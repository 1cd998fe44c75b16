"""The hash table: two population modes, update propagation, ranked retrieval.

Entries indexed under their label's codeword are frozen for the index's
lifetime; entries indexed under the mapping output retain their feature
vector so that only the bits of a touched cycle need recomputing when the
hash functions move. Every recomputed-and-stored bit is counted in the
ledger whether or not its value flipped, since the maintenance cost of an
index is the recomputation itself; flips are tallied separately.

Entries are stored as row-aligned arrays that grow by doubling: ``ids``
and ``labels`` lists, ``(words, n)`` little-endian uint64 value and mask
matrices (word w of an entry holds code positions [64w, 64w+64), and each
word is one contiguous row across the entries), and the code length of
each entry. Phi rows also keep their augmented features
``[x; 1]`` in a matrix of their own, next to the entry row of each, so an
update recomputes a cycle's columns for every phi row with one matrix
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .bitcode import WORD_BITS, PackedCode, TernaryCodeword, codes_to_words
from .ecoc import EcocMatrix, Label
from .errors import ConsistencyError, DimensionError, DuplicateIdError
from .learner import HashModel, StepReport, phi

MODE_CODEWORD = "codeword"
MODE_PHI = "phi"

_WORD = np.dtype("<u8")
# Distance cells per ranking block: queries * entries stays near this.
_BLOCK_CELLS = 1 << 16


@dataclass
class UpdateLedger:
    """Cumulative index-maintenance cost, keyed by training iteration."""

    bit_updates_total: int = 0
    flipped_bits_total: int = 0
    entries_touched_total: int = 0
    per_iteration: list[tuple[int, int]] = field(default_factory=list)

    def record(self, iteration: int, bits: int, flips: int, entries: int) -> None:
        self.bit_updates_total += bits
        self.flipped_bits_total += flips
        self.entries_touched_total += entries
        self.per_iteration.append((iteration, bits))


@dataclass
class IndexEntry:
    """A copy of one indexed entry, as ``HashIndex.entries`` hands it out."""

    id: int
    mode: str
    code: TernaryCodeword
    label: Label | None = None
    features: np.ndarray | None = None


def n_words(length: int) -> int:
    """64-bit words needed to hold ``length`` code positions."""
    return -(-length // WORD_BITS)


def _doubled(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """A copy of ``a`` twice as long (at least 1) along ``axis``, the new part zero."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (0, max(1, a.shape[axis]))
    return np.pad(a, pad)


class HashIndex:
    """In-memory index over packed codes with exact bit-update accounting."""

    def __init__(self) -> None:
        self.ledger = UpdateLedger()
        self._ids: list[int] = []
        self._labels: list[Label | None] = []
        self._id_set: set[int] = set()
        self._values = np.zeros((1, 0), dtype=_WORD)
        self._masks = np.zeros((1, 0), dtype=_WORD)
        self._lengths = np.zeros(0, dtype=np.int64)
        self._feats = np.zeros((0, 0))
        self._phi_rows = np.zeros(0, dtype=np.int64)
        self._n_phi = 0
        self._phi_width: int | None = None
        # Codeword rows' ids by label, in insertion order.
        self._members: dict[Label, list[int]] = {}

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def phi_count(self) -> int:
        return self._n_phi

    @property
    def labels(self) -> list[Label | None]:
        """Each entry's label, None where it has none, in insertion order."""
        return list(self._labels)

    def _widen(self, length: int) -> None:
        extra = n_words(length) - len(self._values)
        if extra > 0:
            self._values = np.pad(self._values, ((0, extra), (0, 0)))
            self._masks = np.pad(self._masks, ((0, extra), (0, 0)))

    def add_row(self, id: int, label: Label | None, length: int, values: int,
                mask: int, features: np.ndarray | None = None) -> None:
        """Append one entry given as its code's value and mask bits.

        ``features`` is given for, and only for, a phi entry, whose mask
        must be full; every phi entry must share one width and one feature
        length. Both insert methods and the index loader add entries
        through here, so this is where the index's invariants are checked.
        """
        id = int(id)
        if id in self._id_set:
            raise DuplicateIdError(f"id {id} is already indexed")
        if (values | mask) >> length or values & ~mask:
            raise ValueError(f"entry {id} has bits beyond length {length} or outside its mask")
        if features is not None:
            if mask != (1 << length) - 1:
                raise ValueError(f"phi entry {id} has inactive positions")
            if self._phi_width is not None and self._phi_width != length:
                raise ConsistencyError(
                    f"existing entries have width {self._phi_width}, new entry has {length}")
            if self._n_phi and len(features) + 1 != self._feats.shape[1]:
                raise DimensionError(
                    f"feature length {len(features)} does not match "
                    f"{self._feats.shape[1] - 1} of the existing phi entries")
        n = len(self._ids)
        self._widen(length)
        if n == len(self._lengths):
            self._values = _doubled(self._values, axis=1)
            self._masks = _doubled(self._masks, axis=1)
            self._lengths = _doubled(self._lengths)
        self._values[:, n], self._masks[:, n] = codes_to_words(
            [values, mask], WORD_BITS * len(self._values))
        self._lengths[n] = length
        if features is not None:
            if not self._n_phi:
                self._feats = np.zeros((len(self._phi_rows), len(features) + 1))
            if self._n_phi == len(self._phi_rows):
                self._feats, self._phi_rows = map(_doubled, (self._feats, self._phi_rows))
            self._feats[self._n_phi, :-1] = features
            self._feats[self._n_phi, -1] = 1.0
            self._phi_rows[self._n_phi] = n
            self._n_phi += 1
            self._phi_width = length
        else:
            self._members.setdefault(label, []).append(id)
        self._ids.append(id)
        self._labels.append(label)
        self._id_set.add(id)

    def rows(self):
        """Each entry as the arguments ``add_row`` takes, in insertion order.

        Feature rows are views into the index, valid until it next changes.
        """
        n = len(self)
        feats = dict(zip(self._phi_rows[:self._n_phi].tolist(),
                         self._feats[:self._n_phi, :-1]))
        values, masks = (np.ascontiguousarray(a[:, :n].T) for a in (self._values, self._masks))
        for i, (id, label) in enumerate(zip(self._ids, self._labels)):
            yield (id, label, int(self._lengths[i]),
                   int.from_bytes(values[i].tobytes(), "little"),
                   int.from_bytes(masks[i].tobytes(), "little"), feats.get(i))

    @property
    def entries(self) -> list[IndexEntry]:
        """A snapshot of every entry in insertion order.

        The snapshot is built on each access; changing it leaves the index
        as it is.
        """
        return [IndexEntry(id, MODE_CODEWORD if f is None else MODE_PHI,
                           TernaryCodeword(length, PackedCode(length, values),
                                           PackedCode(length, mask)),
                           label, None if f is None else f.copy())
                for id, label, length, values, mask, f in self.rows()]

    def insert_labeled(self, id: int, y: Label, matrix: EcocMatrix) -> None:
        """Index an instance under its label's codeword.

        The stored code never changes afterwards, no matter how the hash
        functions move.
        """
        self.add_row(id, y, matrix.width, *matrix.placed(y))

    def insert_unlabeled(self, id: int, x: np.ndarray, model: HashModel,
                         label: Label | None = None) -> None:
        """Index an instance under the mapping output, all positions active.

        The feature vector is retained (exactly as given, so pass it already
        normalized) to allow partial recomputation later. ``label`` is an
        optional ground-truth tag kept for evaluation only; it plays no part
        in the stored code.
        """
        if model.width < 1:
            raise ValueError("model has no hash functions")
        code = phi(model, x)
        self.add_row(id, label, code.length, code.bits, (1 << code.length) - 1, x)

    def _recompute(self, model: HashModel, spans: list[tuple[int, int]]) -> int:
        """Recompute the columns [lo, hi) of ``spans`` in every phi row; returns the bits.

        Rows come out at the model's width. Flips are counted only over the
        positions rows had before the call, so growing a code is not charged
        as flipping it. Both counts go to the ledger.
        """
        n = self._n_phi
        if not n or not spans:
            self.ledger.record(model.iteration, 0, 0, 0)
            return 0
        rows = self._phi_rows[:n]
        self._widen(model.width)
        old = np.ascontiguousarray(self._values[:, rows].T)
        bits = np.unpackbits(old.view(np.uint8), axis=1, bitorder="little")
        for lo, hi in spans:
            bits[:, lo:hi] = self._feats[:n] @ model.weights[lo:hi].T >= 0.0
        new = np.packbits(bits, axis=1, bitorder="little").view(_WORD)
        before, ones = codes_to_words([(1 << self._phi_width) - 1, (1 << model.width) - 1],
                                      WORD_BITS * new.shape[1])
        flips = int(np.bitwise_count((old ^ new) & before).sum())
        self._values[:, rows] = new.T
        self._masks[:, rows] = ones[:, None]
        self._lengths[rows] = model.width
        self._phi_width = model.width
        n_bits = n * sum(hi - lo for lo, hi in spans)
        self.ledger.record(model.iteration, n_bits, flips, n)
        return n_bits

    def apply_model_update(self, report: StepReport, model: HashModel) -> int:
        """Eagerly propagate one training step into every phi-mode entry.

        Recomputes exactly the touched columns (which, for a step that opened
        a new cycle, are the freshly appended ones, so entries grow here) and
        returns the number of recomputed bit entries: phi_count * k.
        """
        lo, hi = report.touched_columns.start, report.touched_columns.stop
        if hi > model.width:
            raise ConsistencyError(
                f"report touches columns up to {hi} but model width is {model.width}")
        expected = model.width - (hi - lo) if report.new_cycle_started else model.width
        if self._n_phi and self._phi_width != expected:
            raise ConsistencyError(
                f"stale report: entries have width {self._phi_width}, expected {expected}")
        return self._recompute(model, [(lo, hi)])

    def refresh(self, model: HashModel, cycles=()) -> int:
        """Batched propagation: recompute the given cycles' columns once.

        ``cycles`` holds the 1-based indices of the cycles whose functions
        changed since the last refresh; when nothing changed, the call
        recomputes nothing and returns 0. Columns appended to the model
        since the last refresh are always caught up, so afterwards every
        entry sits at the model's width.
        """
        old_width = self._phi_width or 0
        if old_width > model.width:
            raise ConsistencyError(
                f"entries have width {self._phi_width}, model has {model.width}")
        k = model.k
        total_cycles = model.width // k
        todo = sorted(set(cycles))
        if todo and not 1 <= todo[0] <= todo[-1] <= total_cycles:
            raise ValueError(f"cycle list {todo} out of range [1, {total_cycles}]")
        todo = sorted(set(todo).union(range(old_width // k + 1, total_cycles + 1)))
        return self._recompute(model, [((j - 1) * k, j * k) for j in todo])

    def _distances(self, model: HashModel, block) -> np.ndarray:
        """Masked Hamming distances from each query of ``block`` to every entry.

        Each query's code is ``phi``'s: its own per-vector scores, signed and
        packed. Returns a (queries, entries) array of the narrowest unsigned
        dtype that holds the model's width, entries in insertion order.
        """
        n = len(self)
        width = model.width
        if n and self._lengths[:n].max() > width:
            raise ConsistencyError(
                f"an entry is wider ({self._lengths[:n].max()}) than the query ({width})")
        # No entry is wider than the query, so the masks are clear wherever
        # the query's words and the index's differ: cut or pad to the index's.
        words = len(self._values)
        scores = np.array([model.scores(x) for x in block])
        packed = np.packbits(scores >= 0.0, axis=1, bitorder="little")[:, :8 * words]
        q = np.zeros((len(block), words), dtype=_WORD)
        q.view(np.uint8)[:, :packed.shape[1]] = packed
        dists = np.zeros((len(block), n), dtype=np.min_scalar_type(width))
        cell = np.empty((len(block), n), dtype=_WORD)
        for w in range(words):
            np.bitwise_xor(q[:, w, None], self._values[w, :n], out=cell)
            np.bitwise_and(cell, self._masks[w, :n], out=cell)
            dists += np.bitwise_count(cell)
        return dists

    def rank_many(self, model: HashModel, X):
        """Per query row of ``X``, the entry rows by distance and the distances.

        Yields ``(order, dists)`` as ``rank`` returns them, one pair per
        query. Queries are ranked in blocks of about 2^16 distance cells, so
        the temporaries stay small however many queries there are.
        """
        per_block = max(1, _BLOCK_CELLS // max(1, len(self)))
        rows = iter(X)
        while block := list(islice(rows, per_block)):
            dists = self._distances(model, block)
            yield from zip(np.argsort(dists, axis=1, kind="stable"), dists)

    def all_distances(self, model: HashModel, x_q: np.ndarray) -> np.ndarray:
        """Masked Hamming distance from phi(model, x_q) to every entry.

        Returned in entry insertion order, in the narrowest unsigned dtype
        that holds the model's width. Entries narrower than the current
        width count their missing columns as inactive; an entry wider than
        the query means the caller queried with an outdated model, which is
        an error.
        """
        return self._distances(model, [x_q])[0]

    def rank(self, model: HashModel, x_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry rows by masked Hamming distance to phi(model, x_q), and the distances.

        Ties break by insertion order. The distances are in insertion
        order, as ``all_distances`` returns them.
        """
        dists = self.all_distances(model, x_q)
        return np.argsort(dists, kind="stable"), dists

    def _hits(self, order: np.ndarray, dists: np.ndarray,
              top_n: int | None) -> list[tuple[int, int]]:
        if top_n is not None:
            order = order[:top_n]
        return [(self._ids[i], d) for i, d in zip(order.tolist(), dists[order].tolist())]

    def query(self, model: HashModel, x_q: np.ndarray,
              top_n: int | None = None) -> list[tuple[int, int]]:
        """Rank all entries by masked Hamming distance to phi(model, x_q).

        Ties break by insertion order. Returns (id, distance) pairs,
        truncated to top_n when given.
        """
        return self._hits(*self.rank(model, x_q), top_n)

    def query_many(self, model: HashModel, X, top_n: int | None = None):
        """``query`` for each row of ``X``, ranked in blocks by ``rank_many``."""
        for order, dists in self.rank_many(model, X):
            yield self._hits(order, dists, top_n)

    def query_by_codeword(self, matrix: EcocMatrix, model: HashModel,
                          x_q: np.ndarray) -> list[tuple[Label, int, tuple[int, ...]]]:
        """Rank the observed labels by codeword distance, then expand members.

        A label's distance is that of its core to the query's bits in its
        cycle, so the work scales with the labels rather than the entries.
        Label ties break by observation order; each label's codeword-mode
        member ids follow insertion order.
        """
        q = phi(model, x_q)
        if matrix.width != q.length:
            raise ConsistencyError(
                f"matrix width {matrix.width} does not match query width {q.length}")
        k, core_mask = matrix.k, (1 << matrix.k) - 1
        dists = {y: (((q.bits >> (matrix.cycle_of_label[y] - 1) * k) ^ core.bits)
                     & core_mask).bit_count()
                 for y, core in matrix.cores.items()}
        ranked = sorted(dists.items(), key=lambda t: t[1])
        return [(y, d, tuple(self._members.get(y, ()))) for y, d in ranked]
