"""The growing ternary code matrix: cycle bookkeeping and codeword assignment.

Labels arrive in cycles of ``rho``; each cycle owns ``k`` dedicated columns.
A label observed in cycle j is assigned a k-bit core drawn from the codebook,
active only inside columns [(j-1)k, jk). Storage keeps just the core and the
cycle index per label, so the matrix costs O(k) per label no matter how wide
it grows. Training and indexing work on (cycle, core) directly; ``find``
builds the full-width ternary codeword as the reference form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitcode import PackedCode, TernaryCodeword, unpack
from .codebook import Codebook
from .errors import UnknownLabelError

Label = str


def _signs(core: PackedCode) -> np.ndarray:
    """A core's +1/-1 entries as a read-only float64 vector."""
    c = np.asarray(unpack(core), dtype=np.float64)
    c.flags.writeable = False
    return c


@dataclass
class ObserveResult:
    new_cycle_started: bool
    is_new_label: bool


@dataclass
class EcocMatrix:
    """Label -> ternary codeword map that grows in both directions.

    ``m`` counts cycles (so the total width is m*k) and ``n_in_cycle`` counts
    labels already assigned in the current cycle. The counter starts at 0 and
    a new cycle opens when it would exceed ``rho``, which makes "rho labels
    per cycle" hold exactly. ``signs`` holds each label's core as a
    read-only float64 vector of +1/-1 entries, the form training needs; it
    is derived from ``cores`` and never saved.
    """

    k: int
    rho: int
    m: int = 1
    n_in_cycle: int = 0
    cores: dict[Label, PackedCode] = field(default_factory=dict)
    cycle_of_label: dict[Label, int] = field(default_factory=dict)
    signs: dict[Label, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.rho < 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        self.signs = {y: _signs(core) for y, core in self.cores.items()}

    @property
    def width(self) -> int:
        return self.m * self.k

    @property
    def labels(self) -> list[Label]:
        return list(self.cores)

    def __contains__(self, y: Label) -> bool:
        return y in self.cores

    def __len__(self) -> int:
        return len(self.cores)

    def locate(self, y: Label) -> tuple[int, PackedCode]:
        """The cycle and the core of a known label."""
        if y not in self.cores:
            raise UnknownLabelError(f"label {y!r} has not been observed")
        return self.cycle_of_label[y], self.cores[y]

    def find(self, y: Label) -> TernaryCodeword:
        """The reference codeword of a known label, at the current width."""
        cycle, core = self.locate(y)
        offset = (cycle - 1) * self.k
        return TernaryCodeword(self.width, PackedCode(self.width, core.bits << offset),
                               PackedCode(self.width, ((1 << self.k) - 1) << offset))

    def cycle_columns(self, j: int) -> range:
        """Half-open column range owned by cycle j (1-based)."""
        if not 1 <= j <= self.m:
            raise ValueError(f"cycle {j} out of range [1, {self.m}]")
        return range((j - 1) * self.k, j * self.k)

    def observe_label(self, cb: Codebook, y: Label) -> ObserveResult:
        """Look up y, assigning a fresh codeword (and possibly a new cycle) if unseen.

        When the current cycle is full, every existing row implicitly gains k
        trailing inactive columns and the new label's core lands in the fresh
        cycle. The caller must initialize k new hash functions whenever
        ``new_cycle_started`` is set. The core is drawn before anything
        changes, so an exhausted codebook leaves the matrix as it was.
        """
        if y in self.cores:
            return ObserveResult(False, False)
        core = cb.draw()
        new_cycle = self.n_in_cycle == self.rho
        if new_cycle:
            self.m += 1
            self.n_in_cycle = 0
        self.cores[y] = core
        self.signs[y] = _signs(core)
        self.cycle_of_label[y] = self.m
        self.n_in_cycle += 1
        return ObserveResult(new_cycle, True)


def new_matrix(k: int, rho: int) -> EcocMatrix:
    return EcocMatrix(k=k, rho=rho)
