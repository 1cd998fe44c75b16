"""The growing ternary code matrix: codeword assignment in arrival order.

Labels arrive in cycles of ``rho``; each cycle owns ``k`` dedicated columns.
A label observed in cycle j is assigned a k-bit core drawn from the codebook,
active only inside columns [(j-1)k, jk). Storage keeps just the core per
label, in arrival order, and a label's cycle follows from its place in that
order, so the matrix costs O(k) per label no matter how wide it grows.
Training and indexing work on (cycle, core) directly; ``find`` builds the
full-width ternary codeword as the reference form.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

import numpy as np

from .bitcode import WORD, PackedCode, TernaryCodeword, grown, n_words
from .codebook import Codebook
from .errors import ConsistencyError, UnknownLabelError

Label = str


def _sign_rows(cores: np.ndarray, k: int) -> np.ndarray:
    """Rows of core words as float64 rows of k +1/-1 entries, position 0 first."""
    return np.unpackbits(cores.view(np.uint8), axis=-1, count=k, bitorder="little") * 2.0 - 1.0


def _check_labels(labels: Iterable) -> None:
    """Raise ValueError naming the first label that is not a ``str``."""
    for y in labels:
        if not isinstance(y, str):
            raise ValueError(f"label {y!r} is not a str")


class EcocMatrix:
    """Label -> ternary codeword map that grows in both directions.

    The labels, in arrival order, are the matrix: the label of row r is in
    cycle r // rho + 1, so every cycle but the last holds exactly rho labels.
    ``m`` counts cycles (so the total width is m*k) and ``n_in_cycle`` the
    labels of the last one; both are derived from the label count. Label y is
    row ``rows[y]`` of two read-only blocks: ``cores`` (ceil(k/64) words) and
    ``signs``, the core as k float64 +1/-1 entries for training, derived from
    ``cores`` and never saved. ``cycle_of_label`` is a read-only view of each
    label's cycle. The constructor copies what it is given and refuses, with
    ValueError, a label that is not a ``str``, as ``observe_labels`` does.
    """

    def __init__(self, k: int, rho: int, labels: Iterable[Label] = (), cores=()) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if rho < 1:
            raise ValueError(f"rho must be >= 1, got {rho}")
        self.k, self.rho = k, rho
        self.rows: dict[Label, int] = {}
        self._cycles: dict[Label, int] = {}
        self.cycle_of_label: Mapping[Label, int] = MappingProxyType(self._cycles)
        labels = list(dict.fromkeys(labels))
        _check_labels(labels)
        # Both blocks grow by doubling; ``cores`` and ``signs`` view their filled rows.
        self._cores, self._signs = np.empty((0, n_words(k)), WORD), np.empty((0, k))
        self._append(labels, cores)

    def _append(self, labels: list[Label], cores) -> None:
        """Give new labels the next rows, writing their cores as one block."""
        n, stop = len(self.rows), len(self.rows) + len(labels)
        self._cores, self._signs = grown(self._cores, stop), grown(self._signs, stop)
        self._cores[n:stop] = np.asarray(cores, WORD).reshape(len(labels), n_words(self.k))
        self._signs[n:stop] = _sign_rows(self._cores[n:stop], self.k)
        for row, y in enumerate(labels, n):
            self.rows[y], self._cycles[y] = row, row // self.rho + 1
        self.cores, self.signs = self._cores[:len(self.rows)], self._signs[:len(self.rows)]
        self.cores.flags.writeable = self.signs.flags.writeable = False

    def __reduce__(self):
        # Copies and pickles go through the constructor, so the views are of their own blocks.
        return EcocMatrix, (self.k, self.rho, self.labels, self.cores)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EcocMatrix):
            return NotImplemented
        return ((self.k, self.rho, self.labels) == (other.k, other.rho, other.labels)
                and np.array_equal(self.cores, other.cores))

    @property
    def m(self) -> int:
        # ceil(labels / rho), or 1 without labels; each step reads it twice, and max() is slower.
        return -(-len(self.rows) // self.rho) or 1

    @property
    def n_in_cycle(self) -> int:
        return len(self.rows) - (self.m - 1) * self.rho

    @property
    def width(self) -> int:
        return self.m * self.k

    @property
    def labels(self) -> list[Label]:
        return list(self.rows)

    def __contains__(self, y: Label) -> bool:
        return y in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def locate(self, y: Label) -> tuple[int, np.ndarray]:
        """The cycle and the core words of a known label."""
        if y not in self.rows:
            raise UnknownLabelError(f"label {y!r} has not been observed")
        return self._cycles[y], self.cores[self.rows[y]]

    def find(self, y: Label) -> TernaryCodeword:
        """The reference codeword of a known label, at the current width."""
        cycle, core = self.locate(y)
        offset = (cycle - 1) * self.k
        bits = int.from_bytes(core.tobytes(), "little")
        return TernaryCodeword(self.width, PackedCode(self.width, bits << offset),
                               PackedCode(self.width, ((1 << self.k) - 1) << offset))

    def cycle_columns(self, j: int) -> range:
        """Half-open column range owned by cycle j (1-based)."""
        if not 1 <= j <= self.m:
            raise ValueError(f"cycle {j} out of range [1, {self.m}]")
        return range((j - 1) * self.k, j * self.k)

    def observe_label(self, cb: Codebook, y: Label) -> None:
        """``observe_labels`` of one label."""
        self.observe_labels(cb, (y,))

    def observe_labels(self, cb: Codebook, labels: Iterable[Label]) -> None:
        """Give each label not yet seen a core and a row, in order of first appearance.

        A codebook of another k raises ConsistencyError, then a label that is
        not a ``str`` ValueError, before any change. The cores are drawn in
        turn, then written as one block, and the caller grows the model to the
        new ``m``. If the codebook runs out, those drawn are kept.
        """
        if cb.k != self.k:
            raise ConsistencyError(f"codebook k={cb.k} does not match matrix k={self.k}")
        new = [y for y in dict.fromkeys(labels) if y not in self.rows]
        _check_labels(new)
        cores = []
        try:
            for _ in new:
                cores.append(cb.draw())
        finally:
            self._append(new[:len(cores)], cores)


def new_matrix(k: int, rho: int) -> EcocMatrix:
    return EcocMatrix(k, rho)
