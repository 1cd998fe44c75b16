"""The hash table: two population modes, update propagation, ranked retrieval.

Entries indexed under their label's codeword are frozen for the index's
lifetime; entries indexed under the mapping output retain their feature
vector so that only the bits of a touched cycle need recomputing when the
hash functions move. Every recomputed-and-stored bit is counted in the
ledger whether or not its value flipped, since the maintenance cost of an
index is the recomputation itself; flips are tallied separately.

Rows live in two blocks that grow by doubling, beside ``ids`` and
``labels`` lists in insertion order; a flag per row says which block it
is in, and its slot there is its rank among that block's rows. A
codeword row is its label's cycle, k-bit core (ceil(k/64) uint64 words;
the index's k is set by its first codeword row) and the width it was
inserted at, so opening a cycle changes no row. A phi row is value words
in a word-major ``(words, n)`` block (word w holds code positions
[64w, 64w+64)) at the one width all phi rows share, with no masks, plus
its augmented features ``[x; 1]``, so an update recomputes a cycle's
columns for every phi row with one matrix product. A query's distance to
a codeword row is the popcount of its bits in the row's cycle XOR the
core; to a phi row, of its bits below the phi width XOR the words.
``rows`` expands codeword rows back to full-width value and mask bits, so
saved files do not depend on this layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bitcode import WORD_BITS, PackedCode, TernaryCodeword, codes_to_words
from .ecoc import EcocMatrix, Label
from .errors import ConsistencyError, DimensionError, DuplicateIdError
from .learner import HashModel, StepReport, phi

MODE_CODEWORD = "codeword"
MODE_PHI = "phi"

_WORD = np.dtype("<u8")
_WORD_MASK = (1 << WORD_BITS) - 1
# Distance cells per ranking block: queries * entries stays near this.
_BLOCK_CELLS = 1 << 16


@dataclass
class UpdateLedger:
    """Cumulative index-maintenance cost: totals only, however long the stream."""

    bit_updates_total: int = 0
    flipped_bits_total: int = 0
    entries_touched_total: int = 0

    def record(self, bits: int, flips: int, entries: int) -> None:
        self.bit_updates_total += bits
        self.flipped_bits_total += flips
        self.entries_touched_total += entries


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


def _ints(words: np.ndarray, n: int) -> list[int]:
    """The first ``n`` slots of a word-major ``(words, slots)`` block as ints."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.ascontiguousarray(words[:, :n].T)]


def _packed(signs: np.ndarray, size: int) -> np.ndarray:
    """(queries, bits) sign bits cut into blocks of ``size``, each in whole words.

    Returns a (queries, blocks, ceil(size/64)) array of little-endian words;
    bits past the end of the last block are clear.
    """
    queries, width = signs.shape
    blocks = -(-width // size)
    bits = np.zeros((queries, blocks * size), dtype=bool)
    bits[:, :width] = signs
    packed = np.packbits(bits.reshape(queries, blocks, size), axis=2, bitorder="little")
    words = np.zeros((queries, blocks, 8 * n_words(size)), dtype=np.uint8)
    words[:, :, :packed.shape[2]] = packed
    return words.view(_WORD)


def _hamming(qs, rows: np.ndarray, queries: int, dtype) -> np.ndarray:
    """Per query and slot, the sum over words w of popcount(qs[w] ^ rows[w]).

    ``rows`` is a word-major (words, slots) block; ``qs[w]`` holds the
    queries' word w, one per slot or one for all slots.
    """
    dists = np.zeros((queries, rows.shape[1]), dtype=dtype)
    cell = np.empty(dists.shape, dtype=_WORD)
    for q, row in zip(qs, rows):
        np.bitwise_xor(q, row, out=cell)
        dists += np.bitwise_count(cell)
    return dists


class HashIndex:
    """In-memory index over packed codes with exact bit-update accounting."""

    def __init__(self) -> None:
        self.ledger = UpdateLedger()
        self._ids: list[int] = []
        self._labels: list[Label | None] = []
        self._id_set: set[int] = set()
        self._is_phi = np.zeros(0, dtype=bool)
        # The widest row's width; a query may not be narrower.
        self._widest = 0
        # Codeword block: cycle, core words and insertion width per slot.
        self._k: int | None = None
        self._n_cw = 0
        self._cycles = np.zeros(0, dtype=np.int64)
        self._cores = np.zeros((0, 0), dtype=_WORD)
        self._cw_widths = np.zeros(0, dtype=np.int64)
        # Phi block: value words at the shared width and features per slot.
        self._n_phi = 0
        self._phi_width: int | None = None
        self._values = np.zeros((0, 0), dtype=_WORD)
        self._feats = np.zeros((0, 0))
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

    def _append(self, id: int, label: Label | None, is_phi: bool) -> int:
        """Give ``id`` the next row, as an int; a duplicate raises before any change."""
        id = int(id)
        if id in self._id_set:
            raise DuplicateIdError(f"id {id} is already indexed")
        n = len(self._ids)
        if n == len(self._is_phi):
            self._is_phi = _doubled(self._is_phi)
        self._is_phi[n] = is_phi
        self._ids.append(id)
        self._labels.append(label)
        self._id_set.add(id)
        return id

    def _add_codeword(self, id: int, label: Label | None, cycle: int, core: int,
                      width: int, k: int) -> None:
        """Append a codeword row: the k-bit ``core`` on cycle ``cycle``'s columns."""
        if self._k not in (None, k):
            raise ConsistencyError(f"codeword entries have k={self._k}, entry {id} has k={k}")
        id = self._append(id, label, False)
        if self._k is None:
            self._k = k
            self._cores = np.zeros((n_words(k), len(self._cycles)), dtype=_WORD)
        slot = self._n_cw
        if slot == len(self._cycles):
            self._cycles, self._cw_widths = map(_doubled, (self._cycles, self._cw_widths))
            self._cores = _doubled(self._cores, axis=1)
        self._cycles[slot] = cycle
        self._cw_widths[slot] = width
        # A word at a time: 0.7 us against 5.3 us through codes_to_words.
        for w in range(len(self._cores)):
            self._cores[w, slot] = (core >> (WORD_BITS * w)) & _WORD_MASK
        self._n_cw += 1
        self._widest = max(self._widest, width)
        self._members.setdefault(label, []).append(id)

    def _add_phi(self, id: int, label: Label | None, width: int, words: np.ndarray,
                 features: np.ndarray) -> None:
        """Append a phi row: its ``n_words(width)`` value words and its features."""
        if self._phi_width not in (None, width):
            raise ConsistencyError(
                f"existing entries have width {self._phi_width}, new entry has {width}")
        slot = self._n_phi
        if slot and len(features) + 1 != self._feats.shape[1]:
            raise DimensionError(
                f"feature length {len(features)} does not match "
                f"{self._feats.shape[1] - 1} of the existing phi entries")
        self._append(id, label, True)
        if not slot:
            self._values = np.zeros((len(words), len(self._feats)), dtype=_WORD)
            self._feats = np.zeros((len(self._feats), len(features) + 1))
        if slot == len(self._feats):
            self._feats = _doubled(self._feats)
            self._values = _doubled(self._values, axis=1)
        self._values[:, slot] = words
        self._feats[slot, :-1] = features
        self._feats[slot, -1] = 1.0
        self._n_phi += 1
        self._phi_width = width
        self._widest = max(self._widest, width)

    def add_row(self, id: int, label: Label | None, length: int, values: int,
                mask: int, features: np.ndarray | None = None) -> None:
        """Append one entry given as its code's value and mask bits.

        ``features`` is given for, and only for, a phi entry, whose mask
        must be full; every phi entry must share one width and one feature
        length. A codeword entry's mask must be one aligned k-bit block,
        ``((1 << k) - 1) << (c - 1) * k`` for its cycle c, with the k of
        the other codeword entries. The index loader adds entries through
        here, so this is where the index's invariants are checked.
        """
        if (values | mask) >> length or values & ~mask:
            raise ValueError(f"entry {id} has bits beyond length {length} or outside its mask")
        if features is not None:
            if mask != (1 << length) - 1:
                raise ValueError(f"phi entry {id} has inactive positions")
            words = codes_to_words([values], length)[0, :n_words(length)]
            self._add_phi(id, label, length, words, features)
            return
        k = mask.bit_count()
        offset = (mask & -mask).bit_length() - 1
        if not k or offset % k or mask >> offset != (1 << k) - 1:
            raise ValueError(f"codeword entry {id}'s mask is not one aligned k-bit block")
        self._add_codeword(id, label, offset // k + 1, values >> offset, length, k)

    def rows(self):
        """Each entry as the arguments ``add_row`` takes, in insertion order.

        A codeword row comes back as its core placed in its cycle's
        columns, at the width it was inserted at. Feature rows are views
        into the index, valid until it next changes.
        """
        k = self._k or 0
        codewords = zip(self._cycles[:self._n_cw].tolist(), _ints(self._cores, self._n_cw),
                        self._cw_widths[:self._n_cw].tolist())
        phis = zip(_ints(self._values, self._n_phi), self._feats[:self._n_phi, :-1])
        width = self._phi_width or 0
        full = (1 << width) - 1
        for id, label, is_phi in zip(self._ids, self._labels, self._is_phi[:len(self)].tolist()):
            if is_phi:
                values, features = next(phis)
                yield id, label, width, values, full, features
            else:
                cycle, core, length = next(codewords)
                offset = (cycle - 1) * k
                yield id, label, length, core << offset, ((1 << k) - 1) << offset, None

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
        functions move. Every codeword entry of an index shares one k.
        """
        cycle, core = matrix.locate(y)
        self._add_codeword(id, y, cycle, core.bits, matrix.width, matrix.k)

    def insert_unlabeled(self, id: int, x: np.ndarray, model: HashModel,
                         label: Label | None = None) -> None:
        """Index an instance under the mapping output, all positions active.

        The feature vector is retained (exactly as given, so pass it already
        normalized) to allow partial recomputation later. ``label`` is an
        optional ground-truth tag kept for evaluation only; it plays no part
        in the stored code, which is ``phi(model, x)``'s bits.
        """
        width = model.width
        if width < 1:
            raise ValueError("model has no hash functions")
        bits = np.zeros(WORD_BITS * n_words(width), dtype=bool)
        np.greater_equal(model.scores(x), 0.0, out=bits[:width])
        self._add_phi(id, label, width, np.packbits(bits, bitorder="little").view(_WORD), x)

    def _recompute(self, model: HashModel, spans: list[tuple[int, int]]) -> int:
        """Recompute the columns [lo, hi) of ``spans`` in every phi row; returns the bits.

        Only the words from the first span's to the last span's are
        unpacked and packed again. Rows come out at the model's width.
        Flips are counted only over the positions rows had before the call,
        so growing a code is not charged as flipping it. Both counts go to
        the ledger; a call that recomputes nothing leaves it as it was.
        """
        n = self._n_phi
        if not n or not spans:
            return 0
        old_width = self._phi_width
        extra = n_words(model.width) - len(self._values)
        if extra > 0:
            self._values = np.pad(self._values, ((0, extra), (0, 0)))
        first = min(lo for lo, _ in spans) // WORD_BITS
        words = self._values[first:n_words(max(hi for _, hi in spans)), :n]
        bits = np.unpackbits(np.ascontiguousarray(words.T).view(np.uint8), axis=1,
                             bitorder="little")
        flips = 0
        for lo, hi in spans:
            span = bits[:, lo - WORD_BITS * first:hi - WORD_BITS * first]
            new = self._feats[:n] @ model.weights[lo:hi].T >= 0.0
            kept = max(0, min(hi, old_width) - lo)
            flips += int(np.count_nonzero(span[:, :kept] != new[:, :kept]))
            span[:] = new
        words[:] = np.packbits(bits, axis=1, bitorder="little").view(_WORD).T
        self._phi_width = model.width
        self._widest = max(self._widest, model.width)
        n_bits = n * sum(hi - lo for lo, hi in spans)
        self.ledger.record(n_bits, flips, n)
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
        width = model.width
        if self._widest > width:
            raise ConsistencyError(
                f"an entry is wider ({self._widest}) than the query ({width})")
        signs = np.array([model.scores(x) for x in block]).reshape(len(block), width) >= 0.0
        dtype = np.min_scalar_type(width)
        n_cw, n_phi = self._n_cw, self._n_phi
        if n_cw:
            # Each codeword slot meets the query's bits in its own cycle.
            q, at = _packed(signs, self._k), self._cycles[:n_cw] - 1
            cw_d = _hamming([np.take(q[:, :, w], at, axis=1) for w in range(q.shape[2])],
                            self._cores[:, :n_cw], len(block), dtype)
        if n_phi:
            # The query's bits at or past the phi width are cleared, as the rows' are.
            q = _packed(signs[:, :self._phi_width], WORD_BITS)
            phi_d = _hamming(q.T[0, :, :, None], self._values[:, :n_phi], len(block), dtype)
        if n_cw and n_phi:
            is_phi = self._is_phi[:len(self)]
            dists = np.empty((len(block), len(self)), dtype=dtype)
            dists[:, is_phi], dists[:, ~is_phi] = phi_d, cw_d
            return dists
        return cw_d if n_cw else phi_d if n_phi else np.zeros((len(block), 0), dtype=dtype)

    def rank_blocks(self, model: HashModel, X):
        """``rank`` for blocks of query rows of ``X``: (queries, entries) arrays.

        Yields ``(orders, dists)`` per block of about 2^16 distance cells, so
        the temporaries stay small however many queries there are.
        """
        per_block = max(1, _BLOCK_CELLS // max(1, len(self)))
        rows = iter(X)
        while block := list(islice(rows, per_block)):
            dists = self._distances(model, block)
            yield np.argsort(dists, axis=1, kind="stable"), dists

    def rank_many(self, model: HashModel, X):
        """``rank_blocks`` one query at a time: ``(order, dists)`` per row of ``X``."""
        for orders, dists in self.rank_blocks(model, X):
            yield from zip(orders, dists)

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
            if top_n < 0:
                raise ValueError(f"top_n must be >= 0, got {top_n}")
            order = order[:top_n]
        return [(self._ids[i], d) for i, d in zip(order.tolist(), dists[order].tolist())]

    def query(self, model: HashModel, x_q: np.ndarray,
              top_n: int | None = None) -> list[tuple[int, int]]:
        """Rank all entries by masked Hamming distance to phi(model, x_q).

        Ties break by insertion order. Returns (id, distance) pairs,
        truncated to top_n when given; a negative top_n raises ValueError.
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
