"""The hash table: two population modes, update propagation, ranked retrieval.

Entries indexed under their label's codeword are frozen for the index's
lifetime; entries indexed under the mapping output retain their feature
vector so that only the bits of a touched cycle need recomputing when the
hash functions move. Every recomputed-and-stored bit is counted in the
ledger whether or not its value flipped, since the maintenance cost of an
index is the recomputation itself; flips are tallied separately.

Rows live in two blocks that grow by doubling, beside ``ids`` and ``labels``
lists in insertion order; a flag byte per row says which block it is in, and
its column there is its rank among that block's rows. Every row shares one k,
set by the index's first row (a phi row takes its model's k), and a cycle's
k bits are one slot (``_slot``): an item of 1, 2, 4 or 8 bytes, or whole
words past k = 64. A codeword row is its label's cycle and its core as that
slot, so opening a cycle changes no row; as an entry, it is its core in its
cycle's columns, at the length cycle * k. The phi block is slot-major, one
row per item of each held cycle's slot and one column per phi row, plus each
row's augmented features ``[x; 1]``, so an update recomputes a cycle's slot
for every phi row with one matrix product and one assignment. Inserted phi
rows wait unscored (staged), with a copy of the weights, until the first
read of the bits or an insert after the model writes, then score as one
block against the copy. Every phi bit, stored or queried, is
``learner.exact_signs``' exact sign, stored ones screened by the index's one
running ||[X; 1]||^2 bound. A query is packed once into slots at the model's
width; its distance to a codeword row is the popcount of its slot in the
row's cycle XOR the core, to a phi row of its first held slots XOR the
row's. Index files hold the two blocks as ``FILE_LAYOUT``'s arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import is_not

import numpy as np

from .bitcode import (WORD, PackedCode, TernaryCodeword,  # noqa: F401
                      codes_to_words, grown, n_words)
from .ecoc import EcocMatrix, Label, _check_labels
from .errors import ConsistencyError, DimensionError, DuplicateIdError
# Nothing here calls ``phi`` or ``codes_to_words``; both stay module names because
# the benchmark's tracer (perfbench/tracing.py) reads them from this ``__dict__``.
from .learner import (HashModel, StepReport, _sq_norm_bound, augment_rows,  # noqa: F401
                      check_finite, exact_signs, phi)

MODE_CODEWORD = "codeword"
MODE_PHI = "phi"

# Distance cells per ranking block: queries * entries stays near this.
_BLOCK_CELLS = 1 << 16
# Slot items of 1, 2, 4 and 8 bytes, built once: a dtype from a string costs about a microsecond.
_ITEMS = tuple(np.dtype(f"<u{1 << i}") for i in range(4))
# Whether a label is given; as a filter, cheaper than a generator over the labels.
_GIVEN = partial(is_not, None)


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


# Index file format version 5: (name, dtype) little-endian arrays in file order, a single
# value being an array of one (``_SINGLE``); ``label_of`` indexes the UTF-8 label table (-1:
# none). k is 0 without rows, the phi width 0 without phi rows. ``cores`` holds each
# codeword row's slot and ``values`` each phi row's slots in cycle order, as bytes.
FILE_LAYOUT = (
    ("ids", "<u8"), ("is_phi", "u1"), ("label_lengths", "<u4"), ("label_text", "u1"),
    ("label_of", "<i4"), ("k", "<u4"), ("cycles", "<u4"), ("cores", "u1"),
    ("phi_width", "<u4"), ("values", "u1"), ("features", "<f8"),
    ("bit_updates_total", "<u8"), ("flipped_bits_total", "<u8"), ("entries_touched_total", "<u8"),
)
_SINGLE = ("k", "phi_width", *vars(UpdateLedger()))
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


def _slot(k: int) -> tuple[np.dtype, int]:
    """A cycle's slot at k: its little-endian unsigned item dtype and its items.

    A slot is one item of k/8 bytes rounded up to 1, 2, 4 or 8, or
    ``n_words(k)`` words past 64 bits; it holds the cycle's k bits from its
    first bit, the rest clear.
    """
    if k > 64:
        return WORD, n_words(k)
    return _ITEMS[(-(-k // 8) - 1).bit_length()], 1


def _packed(signs: np.ndarray, k: int) -> np.ndarray:
    """(rows, cycles * k) signs as (rows, cycles * items) slot items, cycle j's in slot j.

    One packbits call packs the signs: flat as they are when k fills its
    slot, so the slots are the bits back to back, else from one copy into a
    clear block that does.
    """
    item, per = _slot(k)
    rows, cycles, bits = len(signs), signs.shape[1] // k, 8 * item.itemsize * per
    if k == bits:
        # One flat call is several times faster than one per row or slot.
        packed = np.packbits(signs, None, "little")
    else:
        padded = np.zeros((rows, cycles, bits), bool)
        padded[:, :, :k] = signs.reshape(rows, cycles, k)
        # Positional arguments: keywords cost packbits about a microsecond a call.
        packed = np.packbits(padded, 2, "little")
    return packed.view(item).reshape(rows, cycles * per)


def _slot_bytes(block: np.ndarray) -> np.ndarray:
    """A slot-major (slot items, rows) block as each row's slots' bytes, in cycle order."""
    return np.ascontiguousarray(block.T).view(np.uint8)


def _hamming(qs: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """Per query and column, the sum over items w of popcount(qs[w] ^ rows[w]).

    ``rows`` is an item-major (items, columns) block of at least one slot item;
    ``qs`` is (items, queries, columns) or (items, queries, 1), the queries'
    item w for each column or for all of them, or for one query (items,
    columns) or (items, 1), which gives (columns,). Items go in chunks of
    about 2^16 cells, so a block of queries stays small; items that fit in
    one chunk take one XOR-popcount-reduce pass.
    """
    cells = rows.shape[1]
    if qs.ndim == 3:
        cells, rows = cells * qs.shape[1], rows[:, None]
    step = max(1, _BLOCK_CELLS // (cells or 1))
    if len(qs) <= step:
        return _xor_count(qs, rows, dtype)
    dists = _xor_count(qs[:step], rows[:step], dtype)
    for w in range(step, len(qs), step):
        dists += _xor_count(qs[w:w + step], rows[w:w + step], dtype)
    return dists


def _xor_count(qs: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """The sum over the first axis of popcount(qs ^ rows), in ``dtype``."""
    count = np.bitwise_xor(qs, rows)
    # numpy counts the bits of a uint16 about twice as slowly as of a uint32.
    count = np.bitwise_count(count.astype(np.uint32) if count.itemsize == 2 else count)
    return (np.add.reduce(count, axis=0, dtype=dtype) if len(count) > 1
            else count[0].astype(dtype, copy=False))


def _whole(cycles) -> bool:
    """Whether every listed cycle is an integer, so it indexes the weights."""
    return all(isinstance(j, (int, np.integer)) for j in cycles)


def _check_top_n(top_n: int | None) -> None:
    if top_n is not None and not (isinstance(top_n, (int, np.integer)) and top_n >= 0):
        raise ValueError(f"top_n must be an integer >= 0, got {top_n!r}")


class HashIndex:
    """In-memory index over packed codes with exact bit-update accounting.

    Rows enter in blocks, ``insert_labeled_many`` for codeword rows and
    ``insert_many`` for phi rows; ``insert_labeled`` and ``insert_unlabeled``
    are their one-row cases.
    """

    def __init__(self, fields: dict = _EMPTY) -> None:
        """An empty index, or a copy of the one ``arrays`` described.

        Its invariants are checked once over the arrays; a ValueError names the
        one that fails (raised by ``reshape`` or ``item`` for a wrong size).
        """
        k, phi_width, *totals = (np.asarray(fields[f]).item() for f in _SINGLE)
        ids = np.asarray(fields["ids"]).tolist()
        n = len(ids)
        is_phi = np.asarray(fields["is_phi"]).reshape(n)
        n_phi = int(np.count_nonzero(is_phi))
        n_cw = n - n_phi
        if (k > 0) != (n > 0) or (phi_width > 0) != (n_phi > 0) or n_phi and phi_width % k:
            raise ValueError(f"k={k} or phi width {phi_width} does not fit the rows")
        label_of = np.asarray(fields["label_of"], dtype=np.int64).reshape(n)
        table = decode_labels(fields["label_lengths"], fields["label_text"])
        cycles = np.array(fields["cycles"], dtype=np.int64).reshape(n_cw)
        item, per = _slot(k)
        size = per * item.itemsize
        cores = np.ascontiguousarray(fields["cores"], np.uint8).reshape(n_cw, size).view(item)
        values = np.ascontiguousarray(fields["values"], np.uint8).reshape(
            n_phi, phi_width // k * size if n_phi else 0).view(item)
        feats = np.asarray(fields["features"], np.float64).reshape(n_phi, -1 if n_phi else 0)
        # Each slot's last item holds its top k - 8 * item bytes * (items - 1) bits.
        top = k - 8 * item.itemsize * (per - 1)
        last = np.concatenate([cores[:, per - 1::per].ravel(), values[:, per - 1::per].ravel()])
        for broken, what in (
                (n and is_phi.max() > 1, "a block flag is neither 0 nor 1"),
                (len(set(ids)) != n, "an id appears twice"),
                (n and not -1 <= label_of.min() <= label_of.max() < len(table),
                 f"a label index is outside [-1, {len(table)})"),
                (n_cw and cycles.min() < 1, "a codeword row's cycle is 0"),
                (top < 8 * item.itemsize and (last >> item.type(top)).any(),
                 f"a slot has bits past k={k}"),
                (not np.isfinite(feats).all(), "a phi row's feature is NaN or infinite")):
            if broken:
                raise ValueError(what)
        self.ledger = UpdateLedger(*totals)
        self._ids, self._id_set = ids, set(ids)
        self._is_phi = bytearray(is_phi.astype(bool).tobytes())
        self._labels = [None if i < 0 else table[i] for i in label_of.tolist()]
        # The end of the last column any row uses; a query may not be narrower.
        self._widest = max(k * int(cycles.max(initial=0)), phi_width)
        # Codeword block: cycle (0-based, as queries index by it) and slot items per column.
        self._k, self._n_cw, self._cycles = k, n_cw, cycles - 1
        self._cores = np.array(cores.T, order="C")
        # Phi block: the items of each held cycle's slot, slot-major, and features per column.
        self._n_phi, self._phi_width = n_phi, phi_width
        self._values = np.array(values.T, order="C")
        self._feats = np.ones((n_phi, feats.shape[1] + 1) if n_phi else (0, 0))
        self._feats[:, :-1] = feats
        # The phi rows' ||[X; 1]||_F^2 bound, and the rows staged unscored, or None:
        # (model, its write count, a copy of its weights, first column).
        self._x_bound, self._staged = _sq_norm_bound(self._feats[:n_phi]), None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def phi_count(self) -> int:
        return self._n_phi

    @property
    def feature_sq_norm_bound(self) -> float:
        """An upper bound on the squared Frobenius norm of the phi rows' [x; 1].

        Computed once over the rows an index starts with, then each insert adds
        its rows' bound, rounded up so the sum stays a bound; never saved.
        """
        return self._x_bound

    @property
    def labels(self) -> list[Label | None]:
        """Each entry's label, None where it has none, in insertion order."""
        return list(self._labels)

    def _check_k(self, model: HashModel) -> None:
        """A ConsistencyError unless the index has no rows or its rows have the model's k."""
        if self._k not in (0, model.k):
            raise ConsistencyError(f"the index's rows have k={self._k}, the model k={model.k}")

    def _append(self, ids: list[int], labels: list, is_phi: bool) -> None:
        """Give each id the next row, with its label; a bad id raises before any change."""
        id_set = self._id_set
        before = len(id_set)
        try:
            # Each id joins the set as it passes, so a repeat within the block is caught too.
            for id in ids:
                if not 0 <= id < 1 << 64:
                    raise ValueError(f"id {id} is outside [0, 2^64)")
                if id in id_set:
                    raise DuplicateIdError(f"id {id} is already indexed")
                id_set.add(id)
        except ValueError:
            # The ids that joined before the bad one, in order, leave again.
            id_set.difference_update(ids[:len(id_set) - before])
            raise
        self._is_phi += (b"\1" if is_phi else b"\0") * len(ids)
        self._ids += ids
        self._labels += labels

    def _settle(self) -> None:
        """Score the staged phi rows with one ``exact_signs`` call and one pack.

        They score against the stage's copy of the weights, which are the
        weights they were inserted under, whenever this runs. Their features
        and those weights were checked finite at insert, so this never raises.
        """
        if self._staged is None:
            return
        (_, _, W, first), n = self._staged, self._n_phi
        self._staged = None
        signs = exact_signs(W, self._feats[first:n], x_bound=self._x_bound)
        self._values[:, first:n] = _packed(signs, self._k).T

    def __getstate__(self) -> dict:
        # A copy or pickle holds scored rows only, so no model goes with it.
        self._settle()
        return self.__dict__

    def arrays(self) -> dict:
        """The index as ``FILE_LAYOUT``'s fields, by name; arrays may be views."""
        self._settle()
        n_cw, n_phi = self._n_cw, self._n_phi
        at = {y: i for i, y in enumerate(dict.fromkeys(y for y in self._labels if y is not None))}
        return {
            "ids": np.array(self._ids, dtype=np.uint64),
            "is_phi": np.frombuffer(bytes(self._is_phi), bool),
            **encode_labels(at),
            "label_of": np.array([at.get(y, -1) for y in self._labels], dtype=np.int32),
            "k": self._k,
            "cycles": self._cycles[:n_cw] + 1,
            "cores": _slot_bytes(self._cores[:, :n_cw]),
            "phi_width": self._phi_width,
            "values": _slot_bytes(self._values[:, :n_phi]),
            "features": self._feats[:n_phi, :-1],
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
        self._settle()
        k, width, n_cw, n_phi = self._k, self._phi_width, self._n_cw, self._n_phi
        # A codeword row's slot, as little-endian bytes, is its core's int.
        cores = [int.from_bytes(row.tobytes(), "little")
                 for row in _slot_bytes(self._cores[:, :n_cw])]
        codewords = zip((self._cycles[:n_cw] + 1).tolist(), cores)
        codes = []
        if n_phi:
            # Each row's slots as bytes, then their cycles' bits back to back.
            slots = _slot_bytes(self._values[:, :n_phi]).reshape(n_phi, width // k, -1)
            bits = np.unpackbits(slots, 2, k, "little").reshape(n_phi, width)
            codes = [int.from_bytes(row.tobytes(), "little")
                     for row in np.packbits(bits, 1, "little")]
        phis = zip(codes, self._feats[:n_phi, :-1])
        out = []
        for id, label, is_phi in zip(self._ids, self._labels, self._is_phi):
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
        """Index one instance by its label: ``insert_labeled_many``'s one-row case."""
        self.insert_labeled_many([id], [y], matrix)

    def insert_labeled_many(self, ids, labels, matrix: EcocMatrix) -> None:
        """Index each instance under its label's codeword: id ``ids[i]``, label ``labels[i]``.

        The stored codes never change afterwards, no matter how the hash
        functions move. Everything is checked before any change, in this
        order: one label per id; known labels (UnknownLabelError naming the
        first unknown one); the matrix's k, which must be the k every row of
        the index shares (ConsistencyError); ids in [0, 2^64), new and
        distinct (DuplicateIdError). One gather then writes the rows' cycles
        and cores. An empty block changes nothing.
        """
        ids, labels = [int(i) for i in ids], list(labels)
        if len(ids) != len(labels):
            raise ValueError(f"{len(ids)} ids and {len(labels)} labels do not make one row each")
        if not ids:
            return
        rows = np.array([matrix.rows.get(y, -1) for y in labels], dtype=np.intp)
        if rows.min() < 0:
            # Raises for the first unknown label, where argmin finds the first -1.
            matrix.locate(labels[int(rows.argmin())])
        k, n = matrix.k, len(ids)
        if self._k not in (0, k):
            raise ConsistencyError(f"the index's rows have k={self._k}, entry {ids[0]} has k={k}")
        self._append(ids, labels, False)
        item, per = _slot(k)
        if not self._n_cw:
            self._cores = np.zeros((per, len(self._cycles)), dtype=item)
        self._k = k
        col = self._n_cw
        self._cycles = grown(self._cycles, col + n)
        self._cores = grown(self._cores, col + n, axis=1)
        cycles = rows // matrix.rho
        self._cycles[col:col + n] = cycles
        # The cores' words past their slot, and their bits past k, are clear.
        self._cores[:, col:col + n] = matrix.cores[rows, :per].T
        self._n_cw += n
        self._widest = max(self._widest, (int(cycles.max()) + 1) * k)

    def insert_many(self, ids, X, model: HashModel, labels=None) -> None:
        """Index each row of ``X`` under the mapping output, all positions active.

        Row i gets id ``ids[i]`` and, when ``labels`` is given, ``labels[i]``:
        a ground-truth tag (or None) kept for evaluation only, which plays no
        part in the stored code, ``phi(model, X[i])``'s bits. The features are
        retained exactly as given (so pass them already normalized) to allow
        partial recomputation later.

        The rows are staged, not scored: their features are copied in, their
        bound added to ``feature_sq_norm_bound``, and an insert that opens a
        stage copies the model's weights at the block's width. The staged rows
        are scored against that copy, with one ``exact_signs`` call and one
        pack, at the first read of the phi bits (a query, ``refresh``,
        ``apply_steps``, ``apply_model_update``, ``arrays`` and so
        ``save_index``, ``entries``, a copy or pickle), or at an insert under
        another model object or after a weight write (``step``,
        ``step_many``), so each bit is the exact sign under the weights its
        row was inserted under. A loop of one-row inserts pays one product,
        and a one-row insert after each step one copy.

        Everything is checked before any change: one label per row; labels
        that are a ``str`` or None (ValueError); rows of the model's d and of
        the phi block's feature length (DimensionError); finite features
        (ValueError naming the row id) and finite weights (ValueError); ids
        in [0, 2^64), new and distinct (DuplicateIdError). Scoring staged
        rows then never raises. A phi block behind the model's new cycles
        takes the rows at its own width, and the next ``refresh`` or
        ``apply_model_update`` catches them up with the rest. A model
        narrower than the block, or of another k than the index's rows,
        raises ConsistencyError.
        """
        ids = [int(i) for i in ids]
        X = np.asarray(X, dtype=np.float64)
        n = len(ids)
        labels = [None] * n if labels is None else list(labels)
        if X.ndim != 2 or len(X) != n or len(labels) != n:
            raise ValueError(f"{n} ids, {len(labels)} labels and a block of shape {X.shape} "
                             "do not make one row each")
        _check_labels(filter(_GIVEN, labels))
        width, col = self._phi_width or model.width, self._n_phi
        if width > model.width:
            raise ConsistencyError(f"phi entries have width {width}, the model {model.width}")
        self._check_k(model)
        if width < 1:
            raise ValueError("model has no hash functions")
        if X.shape[1] != model.d:
            raise DimensionError(f"feature length {X.shape[1]} does not match d={model.d}")
        if col and X.shape[1] + 1 != self._feats.shape[1]:
            raise DimensionError(
                f"feature length {X.shape[1]} does not match "
                f"{self._feats.shape[1] - 1} of the existing phi entries")
        # ``is``, not ``==``: models compare by their weights' bytes.
        if self._staged and (self._staged[0] is not model or self._staged[1] != model._writes):
            self._settle()
        # The rows are copied into the blocks' spare capacity, past the last phi
        # row, so a batch that check_finite or _append refuses leaves no row
        # behind. Spare feature rows keep the 1.0 of [x; 1] in their last column.
        if not col:
            item, per = _slot(model.k)
            self._values = np.zeros((width // model.k * per, len(self._feats)), dtype=item)
            self._feats = np.ones((len(self._feats), model.d + 1))
        if col + n > len(self._feats):
            self._feats = grown(self._feats, col + n, fill=1.0)
            self._values = grown(self._values, col + n, axis=1)
        Xa = self._feats[col:col + n]
        if n == 1:
            # One row is written as a row: a 2-D slice write costs about twice as much.
            Xa[0, :-1] = X
        else:
            Xa[:, :-1] = X
        # Finite bounds show the rows and the model's weights finite without a pass.
        x_bound = _sq_norm_bound(Xa)
        if not x_bound < math.inf or not model.sq_norm_bound < math.inf:
            check_finite(model.weights[:width], Xa, lambda i: f"row id {ids[i]}")
        self._append(ids, labels, True)
        self._n_phi += n
        if n:
            self._x_bound = math.nextafter(self._x_bound + x_bound, math.inf)
            self._k, self._phi_width = model.k, width
            self._widest = max(self._widest, width)
            if self._staged is None:
                self._staged = (model, model._writes, np.array(model.weights[:width]), col)

    def insert_unlabeled(self, id: int, x: np.ndarray, model: HashModel,
                         label: Label | None = None) -> None:
        """Index one instance under the mapping output: ``insert_many``'s one-row case.

        The row is staged as ``insert_many`` stages it, and every check is made
        here, so a loop of one-row inserts is scored as one block.
        """
        self.insert_many([id], np.asarray(x).reshape(1, -1), model, [label])

    def _recompute(self, model: HashModel, cycles: list[int], updates: int = 1) -> int:
        """Recompute the given 1-based cycles in every phi row; returns the bits.

        Staged rows are scored first. One ``exact_signs`` call scores the
        cycles' columns, against the kept ``feature_sq_norm_bound``, and one
        packbits call packs only their signs. One assignment writes each
        cycle's slot rows, so no other bit changes; rows come out at the
        model's width, the block padded only once the scores exist. Flips, the
        popcount of old XOR new slots, count only in the cycles the rows held
        before the call, so growing a code is not charged as flipping it. Both
        counts go to the ledger, with the phi rows as entries touched once per
        each of ``updates``; a call that recomputes nothing leaves it as it
        was. A model of another k raises ConsistencyError.
        """
        n, k = self._n_phi, self._k
        if not n or not cycles:
            return 0
        self._check_k(model)
        self._settle()
        cycles, per = sorted(cycles), _slot(k)[1]
        # The cycles' weights as one C-ordered (d+1, columns) block, so the product
        # Xa @ W.T reads an untransposed right-hand side, which BLAS multiplies
        # faster; its norm bound is read from it, as vdot would copy Wt.T.
        Wt = np.concatenate([model.weights[(j - 1) * k:j * k].T for j in cycles], axis=1,
                            out=np.empty((model.d + 1, k * len(cycles))))
        new = exact_signs(Wt.T, self._feats[:n], w_bound=_sq_norm_bound(Wt), x_bound=self._x_bound)
        new = _packed(new, k).T
        extra = model.width // k * per - len(self._values)
        if extra > 0:
            self._values = np.pad(self._values, ((0, extra), (0, 0)))
        # Item i of cycle j's slot is row (j - 1) * per + i; held cycles sort first, to rows[:h].
        rows = np.array([(j - 1) * per + i for j in cycles for i in range(per)])
        h = per * sum(j <= self._phi_width // k for j in cycles)
        flips = int(np.bitwise_count(self._values[rows[:h], :n] ^ new[:h]).sum())
        self._values[rows, :n] = new
        self._phi_width = model.width
        self._widest = max(self._widest, model.width)
        n_bits = n * k * len(cycles)
        self.ledger.record(n_bits, flips, n * updates)
        return n_bits

    def apply_steps(self, model: HashModel, cycles: list[int]) -> int:
        """Eagerly propagate one training step of each listed cycle into every phi row.

        ``cycles`` are distinct 1-based cycles of the model, such as a round
        that ``step_many`` reports to its ``after_round``. Cycles own disjoint
        columns, so one recompute of them all leaves the index, ledger
        included, as one ``apply_model_update`` per cycle would: phi_count * k
        bits and phi_count entries per cycle, flips only in the cycles the
        rows held. Returns the bits. A duplicated cycle, one that is not an
        integer in [1, width / k], a model of another k or narrower than the
        rows, or a list that leaves a cycle past the rows' width out raises
        ConsistencyError before any change.
        """
        self._check_k(model)
        k, m = model.k, model.width // model.k
        listed = set(cycles)
        if (len(listed) != len(cycles) or not _whole(listed)
                or listed and not 1 <= min(listed) <= max(listed) <= m):
            raise ConsistencyError(f"cycles {cycles} are not distinct integers in [1, {m}]")
        held = self._phi_width // k
        if self._n_phi and (held > m or not listed.issuperset(range(held + 1, m + 1))):
            raise ConsistencyError(f"stale cycles: entries have width {self._phi_width}, "
                                   f"the model {model.width}, and {cycles} are listed")
        return self._recompute(model, cycles, len(cycles))

    def apply_model_update(self, report: StepReport, model: HashModel) -> int:
        """Eagerly propagate one training step into every phi-mode entry.

        ``apply_steps``' one-cycle case: recomputes exactly the touched cycle
        (which, for a step that opened a new cycle, is the freshly appended
        one, so entries grow here) and returns the number of recomputed bit
        entries: phi_count * k. A report whose columns are not one cycle's k
        columns of the model, or that the rows' width does not match, raises
        ConsistencyError before any change.
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
        return self.apply_steps(model, [hi // k])

    def refresh(self, model: HashModel, cycles=()) -> int:
        """Batched propagation: recompute the given cycles' columns once.

        ``cycles`` holds the 1-based indices of the cycles whose functions
        changed since the last refresh; when nothing changed, the call
        recomputes nothing and returns 0. Columns appended to the model
        since the last refresh are always caught up, so afterwards every
        entry sits at the model's width. A cycle that is not an integer in
        [1, width / k] raises ValueError, and a model narrower than the
        entries ConsistencyError, before any change.
        """
        old_width = self._phi_width
        if old_width > model.width:
            raise ConsistencyError(
                f"entries have width {self._phi_width}, model has {model.width}")
        k = model.k
        total_cycles = model.width // k
        todo = sorted(set(cycles))
        if not _whole(todo) or todo and not 1 <= todo[0] <= todo[-1] <= total_cycles:
            raise ValueError(f"cycle list {todo} is not integers in [1, {total_cycles}]")
        todo = sorted(set(todo).union(range(old_width // k + 1, total_cycles + 1)))
        return self._recompute(model, todo)

    def _distances(self, model: HashModel, X: np.ndarray, first: int = 0) -> np.ndarray:
        """Masked Hamming distances from each query row of ``X`` to every entry.

        Each query's code is ``phi``'s, from one ``exact_signs`` call over the
        block; a NaN or infinite value raises ValueError naming its query row,
        counted from ``first``. A block of one row, as ``query`` and
        ``all_distances`` pass, takes the one-row case: its slot items meet
        each block of rows as one (items,) row, in a 2-D XOR-popcount pass. Returns a (queries, entries) array,
        entries in insertion order, of the narrowest unsigned dtype that holds
        the largest distance a row can have: k for a codeword row, the phi
        width for a phi row.
        """
        width = model.width
        if self._widest > width:
            raise ConsistencyError(
                f"an entry is wider ({self._widest}) than the query ({width})")
        self._check_k(model)
        self._settle()
        signs = exact_signs(model.weights, augment_rows(X, model.d),
                            lambda i: f"query row {first + i}", w_bound=model.sq_norm_bound)
        queries = len(X)
        n_cw, n_phi, k = self._n_cw, self._n_phi, self._k
        dtype = _distance_dtype(max(k, self._phi_width))
        if not len(self):
            return np.zeros((queries, 0), dtype=dtype)
        per = _slot(k)[1]
        # Each query packed once, into (queries, items) slot items at the model's width;
        # a lone query as one (items,) row, so each block meets it in a 2-D pass.
        qs = _packed(signs, k)
        if queries == 1:
            qs = qs[0]
        if n_cw:
            # Each codeword row meets the query's slot in the row's cycle.
            cw_qs = (qs.reshape(-1, per).T if queries == 1
                     else qs.reshape(queries, -1, per).transpose(2, 0, 1))
            cw_d = _hamming(np.take(cw_qs, self._cycles[:n_cw], axis=-1),
                            self._cores[:, :n_cw], dtype)
        if n_phi:
            # Phi rows meet the query's slots of the cycles they hold, slot-major as they are.
            held = self._phi_width // k * per
            phi_qs = qs[:held, None] if queries == 1 else qs[:, :held].T[:, :, None]
            phi_d = _hamming(phi_qs, self._values[:, :n_phi], dtype)
        if n_cw and n_phi:
            is_phi = np.frombuffer(bytes(self._is_phi), bool)
            dists = np.empty((queries, len(self)), dtype=dtype)
            dists[:, is_phi], dists[:, ~is_phi] = phi_d, cw_d
            return dists
        return (cw_d if n_cw else phi_d).reshape(queries, -1)

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
        return list(zip(map(self._ids.__getitem__, order.tolist()), dists[order].tolist()))

    def query(self, model: HashModel, x_q: np.ndarray,
              top_n: int | None = None) -> list[tuple[int, int]]:
        """Rank all entries by masked Hamming distance to phi(model, x_q).

        Ties break by insertion order. Returns (id, distance) pairs,
        truncated to top_n when given; a negative top_n raises ValueError.
        The distances are ``all_distances``', from the one-row case of the
        ranking kernel, and its checks and errors are those of ``query_many``.
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
