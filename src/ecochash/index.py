"""The hash table: two population modes, update propagation, ranked retrieval.

Entries indexed under their label's codeword are frozen for the index's
lifetime; entries indexed under the mapping output retain their feature
vector so that only the bits of a touched cycle need recomputing when the
hash functions move. Every recomputed-and-stored bit is counted in the
ledger whether or not its value flipped, since the maintenance cost of an
index is the recomputation itself; flips are tallied separately.

Rows live in two blocks that grow by doubling, beside ``ids`` and
``labels`` lists in insertion order; a flag per row says which block it
is in, and its column there is its rank among that block's rows. Every row
shares one k, set by the index's first row (a phi row takes its model's
k). A codeword row is its label's cycle and k-bit core (ceil(k/64)
uint64 words), so opening a cycle changes no row; as an entry, it is its
core in its cycle's columns, at the length cycle * k. A phi row is value
words in a word-major ``(words, n)`` block at the one width all phi rows
share, with no masks, plus its augmented features ``[x; 1]``, so an
update recomputes a cycle's columns for every phi row with one matrix
product. Each cycle of a phi row owns a slot of whole bytes (see
``_phi_layout``), so a recompute writes whole bytes; at k = 8, 16, 32
and 64 the slots are the code's bits back to back. Every phi bit, stored
or queried, is ``learner.exact_signs``' exact sign. A query's distance
to a codeword row is the popcount of its bits in the row's cycle XOR the
core; to a phi row, of its slotted bits below the phi width XOR the
words. Index files hold the two blocks as ``FILE_LAYOUT``'s arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bitcode import (WORD, PackedCode, TernaryCodeword,  # noqa: F401
                      codes_to_words, grown, n_words, words_to_codes)
from .ecoc import EcocMatrix, Label
from .errors import ConsistencyError, DimensionError, DuplicateIdError
# Nothing here calls ``phi`` or ``codes_to_words``; both stay module names because
# the benchmark's tracer (perfbench/tracing.py) reads them from this ``__dict__``.
from .learner import (HashModel, StepReport, _sq_norm_bound, augment_rows,  # noqa: F401
                      exact_signs, phi)

MODE_CODEWORD = "codeword"
MODE_PHI = "phi"

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


# Index file format version 4: (name, dtype) little-endian arrays in file order, a single
# value being an array of one (``_SINGLE``); ``label_of`` indexes the UTF-8 label table (-1:
# none). k is 0 without rows, the phi width and feature length without phi rows; ``values``
# holds each phi row's words in slots (see ``_phi_layout``).
FILE_LAYOUT = (
    ("ids", "<u8"), ("is_phi", "u1"), ("label_lengths", "<u4"), ("label_text", "u1"),
    ("label_of", "<i4"), ("k", "<u4"), ("cycles", "<u4"), ("cores", "<u8"),
    ("phi_width", "<u4"), ("feature_length", "<u4"), ("values", "<u8"), ("features", "<f8"),
    ("widest", "<u4"), ("bit_updates_total", "<u8"), ("flipped_bits_total", "<u8"),
    ("entries_touched_total", "<u8"),
)
_SINGLE = ("k", "phi_width", "feature_length", "widest", *vars(UpdateLedger()))
_EMPTY = {name: np.zeros(int(name in _SINGLE), dtype) for name, dtype in FILE_LAYOUT}


@dataclass
class IndexEntry:
    """A copy of one indexed entry, as ``HashIndex.entries`` hands it out."""

    id: int
    mode: str
    code: TernaryCodeword
    label: Label | None = None
    features: np.ndarray | None = None


def _distance_dtype(largest: int):
    """The narrowest unsigned dtype that holds distances up to ``largest``."""
    return np.uint8 if largest < 1 << 8 else np.uint16 if largest < 1 << 16 else np.uint32


def encode_labels(labels) -> dict:
    """A UTF-8 label table: each label's byte length, and their bytes in order."""
    text = [y.encode("utf-8") for y in labels]
    return {"label_lengths": np.array([len(b) for b in text], dtype=np.uint32),
            "label_text": np.frombuffer(b"".join(text), dtype=np.uint8)}


def decode_labels(lengths, text) -> list[str]:
    """Inverse of ``encode_labels``; a ValueError when the table does not add up."""
    lengths = np.asarray(lengths, dtype=np.int64).tolist()
    text = np.asarray(text, dtype=np.uint8).tobytes()
    if sum(lengths) != len(text):
        raise ValueError("the label lengths do not add up to the label text")
    return [text[e - size:e].decode("utf-8") for e, size in zip(accumulate(lengths), lengths)]


def _phi_layout(k: int, width: int) -> tuple[int, int]:
    """A phi row's bytes per cycle slot and its slots at ``width``, a multiple of k.

    A slot is k/8 bytes rounded up to 1, 2, 4 or 8, or to whole words past
    64 bits, so none crosses a word. Cycle j's k bits start slot j; a row
    is the slots of its size * slots / 8 whole words, the rest clear.
    """
    size = 8 * n_words(k) if k > 64 else 1 << (-(-k // 8) - 1).bit_length()
    return size, -(-(width // k) * size // 8) * 8 // size


def _packed(signs: np.ndarray, k: int, size: int, slots: int) -> np.ndarray:
    """(rows, cycles * k) signs as (rows, slots, size) bytes, cycle j's bits in slot j.

    One packbits call packs the signs: flat as they are when they fill the
    slots, else from one copy into a clear block that does. When k fills its
    slot, a row's slots are its cycles' bits back to back, so the block adds
    only the clear slots past its last cycle.
    """
    rows, cycles = len(signs), signs.shape[1] // k
    if k == 8 * size:
        if cycles < slots:
            bits = np.zeros((rows, slots * k), bool)
            bits[:, :cycles * k] = signs
            signs = bits
        # One flat call is several times faster than one per row or slot.
        return np.packbits(signs, None, "little").reshape(rows, slots, size)
    bits = np.zeros((rows, slots, 8 * size), bool)
    bits[:, :cycles, :k] = signs.reshape(rows, cycles, k)
    # Positional arguments: keywords cost packbits about a microsecond a call.
    return np.packbits(bits, 2, "little")


def _hamming(qs: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """Per query and column, the sum over words w of popcount(qs[w] ^ rows[w]).

    ``rows`` is a word-major (words, columns) block of at least one word;
    ``qs`` is (words, queries, columns) or (words, queries, 1), the queries'
    word w for each column or for all of them. Words go in chunks of about
    2^16 cells, so one query takes one pass and a block of queries stays small.
    """
    words, queries, _ = qs.shape
    step = max(1, _BLOCK_CELLS // (queries * rows.shape[1] or 1))
    dists = None
    for w in range(0, words, step):
        count = np.bitwise_count(np.bitwise_xor(qs[w:w + step], rows[w:w + step, None]))
        part = (np.add.reduce(count, axis=0, dtype=dtype) if len(count) > 1
                else count[0].astype(dtype, copy=False))
        dists = part if dists is None else dists + part
    return dists


def _check_top_n(top_n: int | None) -> None:
    if top_n is not None and top_n < 0:
        raise ValueError(f"top_n must be >= 0, got {top_n}")


class HashIndex:
    """In-memory index over packed codes with exact bit-update accounting."""

    def __init__(self, fields: dict = _EMPTY) -> None:
        """An empty index, or a copy of the one ``arrays`` described.

        Its invariants are checked once over the arrays; a ValueError names the
        one that fails (raised by ``reshape`` or ``item`` for a wrong size).
        """
        k, phi_width, d, widest, *totals = (np.asarray(fields[f]).item() for f in _SINGLE)
        ids = np.asarray(fields["ids"]).tolist()
        n = len(ids)
        is_phi = np.asarray(fields["is_phi"]).reshape(n)
        n_phi = int(np.count_nonzero(is_phi))
        n_cw = n - n_phi
        if ((k > 0) != (n > 0) or (phi_width > 0) != (n_phi > 0) or (d and not n_phi)
                or n_phi and phi_width % k):
            raise ValueError(f"k={k}, phi width {phi_width} or feature length {d} "
                             "does not fit the rows")
        label_of = np.asarray(fields["label_of"], dtype=np.int64).reshape(n)
        table = decode_labels(fields["label_lengths"], fields["label_text"])
        cycles = np.array(fields["cycles"], dtype=np.int64).reshape(n_cw)
        cores = np.asarray(fields["cores"], dtype=WORD).reshape(n_cw, n_words(k))
        size, slots = _phi_layout(k, phi_width) if n_phi else (0, 0)
        values = np.asarray(fields["values"], dtype=WORD).reshape(n_phi, size * slots // 8)
        feats = np.asarray(fields["features"], dtype=np.float64).reshape(n_phi, d)
        for broken, what in (
                (n and is_phi.max() > 1, "a block flag is neither 0 nor 1"),
                (len(set(ids)) != n, "an id appears twice"),
                (n and not -1 <= label_of.min() <= label_of.max() < len(table),
                 f"a label index is outside [-1, {len(table)})"),
                (n_cw and cycles.min() < 1, "a codeword row's cycle is 0"),
                (n_cw and k % 64 and (cores[:, -1] >> np.uint64(k % 64)).any(),
                 f"a codeword core has bits past k={k}"),
                # A phi row's bits are its cycles' k bits, each from its slot's first bit.
                (n_phi and (values & ~_packed(np.ones((1, phi_width), bool), k, size, slots)
                            .reshape(1, -1).view(WORD)).any(),
                 f"a phi row has a bit outside its cycles' k={k} bits"),
                (n_phi and not np.isfinite(feats).all(), "a phi row's feature is NaN or infinite"),
                (widest != max(k * int(cycles.max(initial=0)), phi_width),
                 f"wrong widest width {widest}")):
            if broken:
                raise ValueError(what)
        self.ledger = UpdateLedger(*totals)
        self._ids, self._id_set, self._is_phi = ids, set(ids), is_phi.astype(bool)
        self._labels = [None if i < 0 else table[i] for i in label_of.tolist()]
        # The end of the last column any row uses; a query may not be narrower.
        self._widest = widest
        # Codeword block: cycle (0-based, as queries index by it) and core words per column.
        self._k, self._n_cw, self._cycles = k, n_cw, cycles - 1
        self._cores = np.array(cores.T, order="C")
        # Phi block: value words at the shared width, in ``_phi_layout``'s (slot
        # bytes, slots), and features per column.
        self._n_phi, self._phi_width, self._phi_slots = n_phi, phi_width, (size, slots)
        self._values = np.array(values.T, order="C")
        self._feats = np.ones((n_phi, d + 1) if n_phi else (0, 0))
        self._feats[:, :-1] = feats
        self._x_bound = None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def phi_count(self) -> int:
        return self._n_phi

    @property
    def feature_sq_norm_bound(self) -> float:
        """An upper bound on the squared Frobenius norm of the phi rows' [x; 1].

        Features never change once admitted, so the bound is kept until the
        next insert adds rows; never saved.
        """
        if self._x_bound is None:
            self._x_bound = _sq_norm_bound(self._feats[:self._n_phi])
        return self._x_bound

    @property
    def labels(self) -> list[Label | None]:
        """Each entry's label, None where it has none, in insertion order."""
        return list(self._labels)

    def _append(self, ids: list[int], labels: list, is_phi: bool) -> None:
        """Give each id the next row, with its label; a bad id raises before any change."""
        new = set()
        for id in ids:
            if not 0 <= id < 1 << 64:
                raise ValueError(f"id {id} is outside [0, 2^64)")
            if id in self._id_set or id in new:
                raise DuplicateIdError(f"id {id} is already indexed")
            new.add(id)
        start = len(self._ids)
        self._is_phi = grown(self._is_phi, start + len(ids))
        self._is_phi[start:start + len(ids)] = is_phi
        self._ids += ids
        self._labels += labels
        self._id_set |= new

    def arrays(self) -> dict:
        """The index as ``FILE_LAYOUT``'s fields, by name; arrays may be views."""
        n_cw, n_phi = self._n_cw, self._n_phi
        at = {y: i for i, y in enumerate(dict.fromkeys(y for y in self._labels if y is not None))}
        return {
            "ids": np.array(self._ids, dtype=np.uint64),
            "is_phi": self._is_phi[:len(self)],
            **encode_labels(at),
            "label_of": np.array([at.get(y, -1) for y in self._labels], dtype=np.int32),
            "k": self._k,
            "cycles": self._cycles[:n_cw] + 1,
            "cores": self._cores[:, :n_cw].T,
            "phi_width": self._phi_width,
            "feature_length": self._feats.shape[1] - 1 if n_phi else 0,
            "values": self._values[:, :n_phi].T,
            "features": self._feats[:n_phi, :-1],
            "widest": self._widest,
            **vars(self.ledger),
        }

    @property
    def entries(self) -> list[IndexEntry]:
        """A snapshot of every entry in insertion order.

        A codeword entry is its core in its cycle's columns, at length
        cycle * k, with features None; a phi entry has a full mask at the
        phi width. The snapshot is built on each access; changing it leaves
        the index as it is.
        """
        k, width = self._k, self._phi_width
        codewords = zip((self._cycles[:self._n_cw] + 1).tolist(),
                        words_to_codes(self._cores[:, :self._n_cw].T))
        n_phi, codes = self._n_phi, []
        if n_phi:
            # Each row's slots as bytes, then their cycles' bits back to back.
            slots = np.ascontiguousarray(self._values[:, :n_phi].T).view(np.uint8)
            slots = slots.reshape(n_phi, -1, self._phi_slots[0])[:, :width // k]
            bits = np.unpackbits(slots, 2, k, "little").reshape(n_phi, width)
            codes = [int.from_bytes(row.tobytes(), "little")
                     for row in np.packbits(bits, 1, "little")]
        phis = zip(codes, self._feats[:n_phi, :-1])
        out = []
        for id, label, is_phi in zip(self._ids, self._labels, self._is_phi[:len(self)].tolist()):
            if is_phi:
                values, x = next(phis)
                length, mode, mask, x = width, MODE_PHI, (1 << width) - 1, x.copy()
            else:
                cycle, core = next(codewords)
                length, mode, x = cycle * k, MODE_CODEWORD, None
                values, mask = core << length - k, ((1 << k) - 1) << length - k
            out.append(IndexEntry(id, mode, TernaryCodeword(
                length, PackedCode(length, values), PackedCode(length, mask)), label, x))
        return out

    def insert_labeled(self, id: int, y: Label, matrix: EcocMatrix) -> None:
        """Index an instance under its label's codeword.

        The stored code never changes afterwards, no matter how the hash
        functions move. Every row of an index shares one k; a matrix of
        another k raises ConsistencyError.
        """
        cycle, core = matrix.locate(y)
        k = matrix.k
        if self._k not in (0, k):
            raise ConsistencyError(f"the index's rows have k={self._k}, entry {id} has k={k}")
        self._append([int(id)], [y], False)
        if not self._n_cw:
            self._cores = np.zeros((n_words(k), len(self._cycles)), dtype=WORD)
        self._k = k
        col = self._n_cw
        self._cycles = grown(self._cycles, col + 1)
        self._cores = grown(self._cores, col + 1, axis=1)
        self._cycles[col] = cycle - 1
        self._cores[:, col] = core
        self._n_cw += 1
        self._widest = max(self._widest, cycle * k)

    def insert_many(self, ids, X, model: HashModel, labels=None) -> None:
        """Index each row of ``X`` under the mapping output, all positions active.

        Row i gets id ``ids[i]`` and, when ``labels`` is given, ``labels[i]``:
        a ground-truth tag (or None) kept for evaluation only, which plays no
        part in the stored code, ``phi(model, X[i])``'s bits. The features are
        retained exactly as given (so pass them already normalized) to allow
        partial recomputation later. One ``exact_signs`` call scores the batch.

        Everything is checked before any change: one label per row; rows of
        the model's d and of the phi block's feature length (DimensionError);
        finite features (ValueError naming the row id); ids in [0, 2^64), new
        and distinct (DuplicateIdError). A phi block behind the
        model's new cycles takes the rows at its own width, and the next
        ``refresh`` or ``apply_model_update`` catches them up with the rest. A
        model narrower than the block, or of another k than the index's rows,
        raises ConsistencyError.
        """
        ids = [int(i) for i in ids]
        X = np.asarray(X, dtype=np.float64)
        n = len(ids)
        labels = [None] * n if labels is None else list(labels)
        if X.ndim != 2 or len(X) != n or len(labels) != n:
            raise ValueError(f"{n} ids, {len(labels)} labels and a block of shape {X.shape} "
                             "do not make one row each")
        width, col = self._phi_width or model.width, self._n_phi
        if width > model.width:
            raise ConsistencyError(f"phi entries have width {width}, the model {model.width}")
        if self._k not in (0, model.k):
            raise ConsistencyError(f"the index's rows have k={self._k}, the model k={model.k}")
        if width < 1:
            raise ValueError("model has no hash functions")
        if X.shape[1] != model.d:
            raise DimensionError(f"feature length {X.shape[1]} does not match d={model.d}")
        if col and X.shape[1] + 1 != self._feats.shape[1]:
            raise DimensionError(
                f"feature length {X.shape[1]} does not match "
                f"{self._feats.shape[1] - 1} of the existing phi entries")
        # The rows are staged in the blocks' spare capacity, past the last phi
        # row, so a batch that exact_signs or _append refuses leaves no row
        # behind. Spare feature rows keep the 1.0 of [x; 1] in their last column.
        size, slots = _phi_layout(model.k, width)
        if not col:
            self._values = np.zeros((size * slots // 8, len(self._feats)), dtype=WORD)
            self._feats = np.ones((len(self._feats), model.d + 1))
        if col + n > len(self._feats):
            self._feats = grown(self._feats, col + n, fill=1.0)
            self._values = grown(self._values, col + n, axis=1)
        Xa = self._feats[col:col + n]
        Xa[:, :-1] = X
        # The model's kept norm bound, unless the block scores only its first columns.
        signs = exact_signs(model.weights[:width], Xa, lambda i: f"row id {ids[i]}",
                            w_bound=model.sq_norm_bound if width == model.width else None)
        packed = _packed(signs, model.k, size, slots).reshape(n, size * slots)
        self._values[:, col:col + n] = packed.view(WORD).T
        self._append(ids, labels, True)
        self._n_phi += n
        self._x_bound = None
        if n:
            self._k, self._phi_width, self._phi_slots = model.k, width, (size, slots)
            self._widest = max(self._widest, width)

    def insert_unlabeled(self, id: int, x: np.ndarray, model: HashModel,
                         label: Label | None = None) -> None:
        """Index one instance under the mapping output: ``insert_many``'s one-row case."""
        self.insert_many([id], np.asarray(x).reshape(1, -1), model, [label])

    def _recompute(self, model: HashModel, cycles: list[int]) -> int:
        """Recompute the given 1-based cycles in every phi row; returns the bits.

        One ``exact_signs`` call scores the cycles' columns, against the kept
        ``feature_sq_norm_bound``, and one packbits call packs only their
        signs. Each cycle's bytes are written through a byte view of its
        slot, so no other bit changes. Rows come out at the model's width.
        Flips, the popcount of old XOR new slots, count only in the cycles the
        rows held before the call, so growing a code is not charged as
        flipping it. Both counts go to the ledger; a call that recomputes
        nothing leaves it as it was. A model of another k raises
        ConsistencyError.
        """
        n, k = self._n_phi, self._k
        if not n or not cycles:
            return 0
        if model.k != k:
            raise ConsistencyError(f"the index's rows have k={k}, the model k={model.k}")
        size, slots = _phi_layout(k, model.width)
        extra = size * slots // 8 - len(self._values)
        if extra > 0:
            self._values = np.pad(self._values, ((0, extra), (0, 0)))
        # The cycles' weights as one C-ordered (d+1, columns) block, so the product
        # Xa @ W.T reads an untransposed right-hand side, which BLAS multiplies
        # faster; its norm bound is read from it, as vdot would copy Wt.T.
        Wt = np.concatenate([model.weights[(j - 1) * k:j * k].T for j in cycles], axis=1,
                            out=np.empty((model.d + 1, k * len(cycles))))
        new = exact_signs(Wt.T, self._feats[:n], w_bound=_sq_norm_bound(Wt),
                          x_bound=self.feature_sq_norm_bound)
        # Each slot as (words, rows, bytes in a word), and a row's bytes in a word as
        # one item: numpy copies a strided array of items several times faster.
        t = min(size, 8)
        packed = _packed(new, k, size, len(cycles)).reshape(n, len(cycles), -1, t)
        rows = self._values.view(np.uint8).reshape(len(self._values), -1, 8)[:, :n]
        held, flips = self._phi_width // k, 0
        for i, j in enumerate(cycles):
            w, b = divmod((j - 1) * size, 8)  # the slot's first word, and byte in it
            words = self._values[w:w + packed.shape[2], :n]
            old = words.copy() if j <= held else None
            rows[w:w + packed.shape[2], :, b:b + t].view(f"V{t}")[...] = \
                packed[:, i].swapaxes(0, 1).view(f"V{t}")
            if old is not None:
                flips += int(np.bitwise_count(old ^ words).sum())
        self._phi_width, self._phi_slots = model.width, (size, slots)
        self._widest = max(self._widest, model.width)
        n_bits = n * k * len(cycles)
        self.ledger.record(n_bits, flips, n)
        return n_bits

    def apply_model_update(self, report: StepReport, model: HashModel) -> int:
        """Eagerly propagate one training step into every phi-mode entry.

        Recomputes exactly the touched cycle (which, for a step that opened a
        new cycle, is the freshly appended one, so entries grow here) and
        returns the number of recomputed bit entries: phi_count * k. A report
        whose columns are not one cycle's k columns of the model, or that the
        rows' width does not match, raises ConsistencyError before any change.
        """
        touched, k = report.touched_columns, model.k
        hi = touched.start + k
        if touched.start % k or touched != range(touched.start, hi) or hi > model.width:
            raise ConsistencyError(f"report touches columns {touched}, not one of the "
                                   f"k={k} columns of a cycle of {model.width // k}")
        expected = model.width - k if report.new_cycle_started else model.width
        if self._n_phi and self._phi_width != expected:
            raise ConsistencyError(
                f"stale report: entries have width {self._phi_width}, expected {expected}")
        return self._recompute(model, [hi // k])

    def refresh(self, model: HashModel, cycles=()) -> int:
        """Batched propagation: recompute the given cycles' columns once.

        ``cycles`` holds the 1-based indices of the cycles whose functions
        changed since the last refresh; when nothing changed, the call
        recomputes nothing and returns 0. Columns appended to the model
        since the last refresh are always caught up, so afterwards every
        entry sits at the model's width.
        """
        old_width = self._phi_width
        if old_width > model.width:
            raise ConsistencyError(
                f"entries have width {self._phi_width}, model has {model.width}")
        k = model.k
        total_cycles = model.width // k
        todo = sorted(set(cycles))
        if todo and not 1 <= todo[0] <= todo[-1] <= total_cycles:
            raise ValueError(f"cycle list {todo} out of range [1, {total_cycles}]")
        todo = sorted(set(todo).union(range(old_width // k + 1, total_cycles + 1)))
        return self._recompute(model, todo)

    def _distances(self, model: HashModel, X: np.ndarray, first: int = 0) -> np.ndarray:
        """Masked Hamming distances from each query row of ``X`` to every entry.

        Each query's code is ``phi``'s, from one ``exact_signs`` call over the
        block; a NaN or infinite value raises ValueError naming its query row,
        counted from ``first``. Returns a (queries, entries) array, entries in
        insertion order, of the narrowest unsigned dtype that holds the
        largest distance a row can have: k for a codeword row, the phi width
        for a phi row.
        """
        width = model.width
        if self._widest > width:
            raise ConsistencyError(
                f"an entry is wider ({self._widest}) than the query ({width})")
        if self._k not in (0, model.k):
            raise ConsistencyError(f"the index's rows have k={self._k}, the model k={model.k}")
        signs = exact_signs(model.weights, augment_rows(X, model.d),
                            lambda i: f"query row {first + i}", w_bound=model.sq_norm_bound)
        queries = len(X)
        n_cw, n_phi, k = self._n_cw, self._n_phi, self._k
        dtype = _distance_dtype(max(k, self._phi_width))
        if n_cw:
            # Each codeword row meets the query's bits in its own cycle, in whole words.
            q = _packed(signs[:, :width - width % k], k, 8 * n_words(k), width // k)
            q = q.view(WORD).transpose(2, 0, 1)
            cw_d = _hamming(np.take(q, self._cycles[:n_cw], axis=2),
                            self._cores[:, :n_cw], dtype)
        if n_phi:
            # The query's bits at or past the phi width are cleared, as the rows' are.
            pw, (size, slots) = self._phi_width, self._phi_slots
            q = _packed(signs[:, :pw], k, size, slots).reshape(queries, 1, size * slots)
            q = q.view(WORD).transpose(2, 0, 1)
            phi_d = _hamming(q, self._values[:, :n_phi], dtype)
        if n_cw and n_phi:
            is_phi = self._is_phi[:len(self)]
            dists = np.empty((queries, len(self)), dtype=dtype)
            dists[:, is_phi], dists[:, ~is_phi] = phi_d, cw_d
            return dists
        return cw_d if n_cw else phi_d if n_phi else np.zeros((queries, 0), dtype=dtype)

    def rank_blocks(self, model: HashModel, X):
        """``(orders, dists)``, both (queries, entries), per block of rows of ``X``.

        ``X`` is an (n, d) array or a sequence of n rows. A block holds about
        2^16 distance cells, so the temporaries stay small however many
        queries there are. ``orders`` ranks entry rows by distance, ties in
        insertion order; ``dists`` is in insertion order.
        """
        X = np.asarray(X, dtype=np.float64)
        per_block = max(1, _BLOCK_CELLS // max(1, len(self)))
        for first in range(0, len(X), per_block):
            dists = self._distances(model, X[first:first + per_block], first)
            yield dists.argsort(axis=1, kind="stable"), dists

    def all_distances(self, model: HashModel, x_q: np.ndarray) -> np.ndarray:
        """Masked Hamming distance from phi(model, x_q) to every entry.

        Returned in entry insertion order, in the narrowest unsigned dtype
        that holds k and the phi width. Entries narrower than the current
        width count their missing columns as inactive; an entry wider than
        the query means the caller queried with an outdated model, which is
        an error.
        """
        return self._distances(model, np.asarray(x_q).reshape(1, -1))[0]

    def _hits(self, order, dists, top_n: int | None) -> list[tuple[int, int]]:
        order = order[:top_n]
        return [(self._ids[i], d) for i, d in zip(order.tolist(), dists[order].tolist())]

    def query(self, model: HashModel, x_q: np.ndarray,
              top_n: int | None = None) -> list[tuple[int, int]]:
        """Rank all entries by masked Hamming distance to phi(model, x_q).

        Ties break by insertion order. Returns (id, distance) pairs,
        truncated to top_n when given; a negative top_n raises ValueError.
        """
        _check_top_n(top_n)
        dists = self.all_distances(model, x_q)
        return self._hits(dists.argsort(kind="stable"), dists, top_n)

    def query_many(self, model: HashModel, X, top_n: int | None = None):
        """``query`` for each row of ``X``, as an iterator over ``rank_blocks``.

        A negative top_n raises ValueError here, before any row is ranked.
        """
        _check_top_n(top_n)
        return (self._hits(order, dists, top_n)
                for orders, block in self.rank_blocks(model, X)
                for order, dists in zip(orders, block))
