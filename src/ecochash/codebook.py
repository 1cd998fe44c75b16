"""Random codeword pools and their separation diagnostics.

A codebook holds distinct k-bit codes from which newly observed labels draw
the active core of their ternary codeword. Generation is rejection sampling:
duplicates and bitwise complements are thrown away, which guarantees a
minimum pairwise distance of 1 and costs nothing at realistic capacities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitcode import PackedCode, codes_to_words
from .errors import CodebookExhaustedError

DEFAULT_CAPACITY = 1024

# Seed-stream tag separating draw randomness from generation randomness.
_DRAW_STREAM = 101


@dataclass
class SeparationStats:
    min_distance: int
    mean_distance: float


@dataclass
class Codebook:
    """Pool of unassigned k-bit codes, consumed by draws during training.

    Draw randomness is derived from (rng_seed, draws_made), so a codebook
    restored from disk continues the exact same draw sequence.
    """

    k: int
    pool: list[PackedCode]
    rng_seed: int
    draws_made: int = 0

    def __len__(self) -> int:
        return len(self.pool)

    def draw(self) -> PackedCode:
        """Remove and return a uniformly chosen pool element."""
        if not self.pool:
            raise CodebookExhaustedError(
                f"codebook of k={self.k} is exhausted after {self.draws_made} draws; "
                "regenerate with a larger capacity")
        rng = np.random.default_rng([_DRAW_STREAM, self.rng_seed, self.draws_made])
        idx = int(rng.integers(len(self.pool)))
        self.draws_made += 1
        return self.pool.pop(idx)


def default_capacity(anticipated_labels: int | None = None) -> int:
    """Provisioning policy: 4x the anticipated label count, else 1024."""
    if anticipated_labels is None:
        return DEFAULT_CAPACITY
    return 4 * anticipated_labels


def recommended_rho(k: int) -> int:
    """Cycle size 4 * ceil(log2 k), keeping random code columns distinct
    with probability well above 0.9."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return max(1, 4 * (k - 1).bit_length())


def generate(k: int, capacity: int, seed: int) -> Codebook:
    """Sample ``capacity`` distinct, non-complementary k-bit codes.

    Deterministic for a fixed seed. Requires capacity <= 2^(k-1) since
    excluding complements halves the usable space.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if capacity > (1 << (k - 1)):
        raise ValueError(
            f"capacity {capacity} infeasible for k={k}: at most {1 << (k - 1)} "
            "codes exist once complements are excluded")
    rng = np.random.default_rng(seed)
    full = (1 << k) - 1
    seen: set[int] = set()
    pool: list[PackedCode] = []
    while len(pool) < capacity:
        # One block of candidates draws the same bits as one draw per
        # candidate, and a block never outlasts the codes still needed.
        block = np.packbits(rng.integers(0, 2, size=(capacity - len(pool), k)),
                            axis=1, bitorder="little")
        for row in block:
            word = int.from_bytes(row, "little")
            if word in seen or (word ^ full) in seen:
                continue
            seen.add(word)
            pool.append(PackedCode(k, word))
    return Codebook(k=k, pool=pool, rng_seed=seed)


def unique_bipartition_probability(rho: int, k: int) -> float:
    """Probability that k random rho-bit columns are pairwise distinct.

    Computed as the falling-factorial product prod_{i<k} (2^rho - i) / 2^rho,
    which avoids the factorial-ratio overflow. Returns 0 when k > 2^rho.
    """
    if rho < 1 or k < 1:
        raise ValueError("rho and k must be >= 1")
    space = 1 << rho
    if k > space:
        return 0.0
    p = 1.0
    for i in range(k):
        p *= (space - i) / space
    return p


def separation_stats(cb: Codebook) -> SeparationStats:
    """Exact min and mean pairwise Hamming distance over the pool.

    One XOR-popcount pass per code against the codes after it, summed as integers.
    """
    n = len(cb.pool)
    if n < 2:
        raise ValueError(f"need at least 2 pool entries, have {n}")
    words = codes_to_words([c.bits for c in cb.pool], cb.k)
    dmin, total = cb.k, 0
    for i in range(n - 1):
        d = np.bitwise_count(words[i + 1:] ^ words[i]).sum(axis=1, dtype=np.int64)
        dmin = min(dmin, int(d.min()))
        total += int(d.sum())
    return SeparationStats(min_distance=dmin, mean_distance=total / (n * (n - 1) // 2))
