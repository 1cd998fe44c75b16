"""Bit-packed binary and ternary codes with exact (masked) Hamming distance.

Codes live in {-1,+1}^b and are stored as Python integers, bit t of the
integer holding position t of the code (+1 <-> set bit, -1 <-> clear bit).
That makes XOR + popcount the distance kernel for both the binary and the
masked ternary case. Bits above ``length`` are kept at zero so integer
equality doubles as code equality. A block of n codes is an
(n, ``n_words(length)``) array of ``WORD``s (see ``codes_to_words``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError

WORD_BITS = 64
WORD = np.dtype("<u8")


@dataclass(frozen=True)
class PackedCode:
    """A fixed-width code in {-1,+1}^length, bit-packed into an int."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative code length {self.length}")
        if self.bits < 0:
            raise ValueError("bit storage must be nonnegative")
        if self.bits >> self.length:
            raise ValueError("set bits beyond the declared length")

    def __len__(self) -> int:
        return self.length

    def bit(self, t: int) -> int:
        """Value at position t as +1 or -1."""
        if not 0 <= t < self.length:
            raise IndexError(f"bit index {t} out of range for length {self.length}")
        return 1 if (self.bits >> t) & 1 else -1

    def popcount(self) -> int:
        return self.bits.bit_count()

    def pad_to(self, length: int) -> "PackedCode":
        """Relabel to a wider length; the new high positions read as -1."""
        if length < self.length:
            raise DimensionError(f"cannot pad length {self.length} down to {length}")
        return PackedCode(length, self.bits)

    def to01(self) -> str:
        """Readable bit string, position 0 first."""
        return "".join("1" if (self.bits >> t) & 1 else "0" for t in range(self.length))


@dataclass(frozen=True)
class TernaryCodeword:
    """A code in {-1,0,+1}^length: value bits plus an active-position mask.

    Positions where the mask bit is clear are inactive (the 0 entries); the
    stored value bit there is normalized to 0 so equal codewords compare
    equal as integers.
    """

    length: int
    values: PackedCode
    mask: PackedCode = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.mask is None:
            object.__setattr__(self, "mask", PackedCode(self.length, (1 << self.length) - 1))
        if self.values.length != self.length or self.mask.length != self.length:
            raise DimensionError("values/mask length must equal the codeword length")
        normalized = self.values.bits & self.mask.bits
        if normalized != self.values.bits:
            object.__setattr__(self, "values", PackedCode(self.length, normalized))

    def __len__(self) -> int:
        return self.length

    def entry(self, t: int) -> int:
        """Ternary value at position t: -1, 0, or +1."""
        if not 0 <= t < self.length:
            raise IndexError(f"index {t} out of range for length {self.length}")
        if not (self.mask.bits >> t) & 1:
            return 0
        return 1 if (self.values.bits >> t) & 1 else -1

    def active_count(self) -> int:
        return self.mask.popcount()

    def active_positions(self) -> np.ndarray:
        """Sorted array of active positions."""
        out = []
        m = self.mask.bits
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return np.asarray(out, dtype=np.int64)

    def active_values(self) -> np.ndarray:
        """The +1/-1 entries at active positions, in position order."""
        out = []
        v = self.values.bits
        m = self.mask.bits
        while m:
            low = m & -m
            out.append(1.0 if v & low else -1.0)
            m ^= low
        return np.asarray(out, dtype=np.float64)

    def pad_to(self, length: int) -> "TernaryCodeword":
        """Widen with trailing inactive positions; stored bits are unchanged."""
        return TernaryCodeword(length, self.values.pad_to(length), self.mask.pad_to(length))


def pack(bits: Sequence[int]) -> PackedCode:
    """Pack a +1/-1 sequence into a PackedCode.

    Raises ValueError if any element is outside {-1,+1}.
    """
    acc = 0
    for t, v in enumerate(bits):
        if v == 1:
            acc |= 1 << t
        elif v != -1:
            raise ValueError(f"element at position {t} is {v!r}, expected -1 or +1")
    return PackedCode(len(bits), acc)


def unpack(code: PackedCode) -> list[int]:
    """Inverse of pack: the +1/-1 sequence of a code."""
    return [1 if (code.bits >> t) & 1 else -1 for t in range(code.length)]


def ternary(entries: Sequence[int]) -> TernaryCodeword:
    """Build a ternary codeword from a {-1,0,+1} sequence."""
    values = 0
    mask = 0
    for t, v in enumerate(entries):
        if v == 1:
            values |= 1 << t
            mask |= 1 << t
        elif v == -1:
            mask |= 1 << t
        elif v != 0:
            raise ValueError(f"element at position {t} is {v!r}, expected -1, 0 or +1")
    n = len(entries)
    return TernaryCodeword(n, PackedCode(n, values), PackedCode(n, mask))


def hamming_masked(query: PackedCode, cw: TernaryCodeword) -> int:
    """Disagreements between a binary code and a ternary codeword.

    Inactive positions are masked out, so the result is at most the number
    of active entries.
    """
    if query.length != cw.length:
        raise DimensionError(f"length mismatch: {query.length} vs {cw.length}")
    return ((query.bits ^ cw.values.bits) & cw.mask.bits).bit_count()


def n_words(length: int) -> int:
    """64-bit words needed to hold ``length`` code positions."""
    return -(-length // WORD_BITS)


def grown(a: np.ndarray, size: int, axis: int = 0, fill=0) -> np.ndarray:
    """``a`` if it holds ``size`` along ``axis``, else a copy at least twice as long,
    the new part holding ``fill``."""
    have = a.shape[axis]
    if size <= have:
        return a
    out = np.full(a.shape[:axis] + (max(size, 2 * have),) + a.shape[axis + 1:], fill, a.dtype)
    out[(slice(None),) * axis + (slice(have),)] = a
    return out


def codes_to_words(values: Sequence[int], width: int) -> np.ndarray:
    """Stack packed-bit integers into an (n, words) uint64 matrix.

    Word i of a row holds positions [64i, 64i+64), little-endian.
    """
    n_bytes = 8 * max(1, -(-width // WORD_BITS))
    keep = (1 << (8 * n_bytes)) - 1
    raw = bytearray().join((v & keep).to_bytes(n_bytes, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").reshape(len(values), n_bytes // 8)

