"""On-disk formats: model bundles, indexes, and feature files.

Everything binary is little-endian with explicit magic and version words.
Saving and reloading a bundle reproduces it byte for byte, including the
codebook draw position, so a restored session continues the exact same
random sequence it would have produced uninterrupted.

Feature files come in two encodings. The binary one is compact and typed:
a "FEAT" magic, the dimension, then (u64 id, i32 label, d float32) records
where label -1 means unlabeled. The CSV one is ``id,label,f0,...`` with an
empty label cell meaning unlabeled; its floats are parsed as float32 so
both encodings of the same data train identically.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitcode import PackedCode
from .codebook import Codebook
from .ecoc import EcocMatrix
from .errors import FormatError
from .index import FILE_LAYOUT, HashIndex, n_words
from .learner import FeatureNormalizer, HashModel

MODEL_MAGIC = b"ECOCHMDL"
INDEX_MAGIC = b"ECOCHIDX"
FEATURE_MAGIC = 0x54414546  # the bytes b"FEAT"
MODEL_VERSION = 1
INDEX_VERSION = 3
# The one normalization FeatureNormalizer does, named in every model file.
_NORMALIZER_TAG = "l2"


class _Writer:
    def __init__(self, f) -> None:
        self.f = f

    def raw(self, b: bytes) -> None:
        self.f.write(b)

    def u8(self, v: int) -> None:
        self.f.write(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.f.write(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.f.write(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self.f.write(struct.pack("<d", v))

    def text(self, s: str) -> None:
        b = s.encode("utf-8")
        self.u32(len(b))
        self.f.write(b)

    def words(self, length: int, bits: int) -> None:
        """A code as its length, its word count and its little-endian words."""
        n = n_words(length)
        self.u32(length)
        self.u32(n)
        self.f.write(bits.to_bytes(8 * n, "little"))

    def array(self, a: np.ndarray, dtype: str) -> None:
        self.f.write(np.ascontiguousarray(a, dtype=dtype).tobytes())


class _Reader:
    """Reads fields from a file's bytes, never past their end, as views into them."""

    def __init__(self, data: bytes) -> None:
        self.data = memoryview(data)
        self.pos = 0
        self.end = len(data)

    def raw(self, n: int) -> memoryview:
        pos = self.pos
        if n > self.end - pos:
            raise FormatError(f"truncated file: wanted {n} bytes, got {self.end - pos}")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def u8(self) -> int:
        return struct.unpack("<B", self.raw(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.raw(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def count(self, item_bytes: int, wide: bool = False) -> int:
        """A u32 (u64 if ``wide``) count of items no smaller than ``item_bytes``."""
        n = self.u64() if wide else self.u32()
        if n * item_bytes > self.end - self.pos:
            raise FormatError(f"count {n} overruns the {self.end - self.pos} bytes left")
        return n

    def text(self) -> str:
        try:
            return str(self.raw(self.u32()), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"text field is not UTF-8: {exc}") from None

    def words(self) -> tuple[int, int]:
        """A code's length and bits, stored in exactly ceil(length/64) words."""
        length = self.u32()
        n = self.count(8)
        if n != n_words(length):
            raise FormatError(f"{n} words for a code of length {length}")
        return length, int.from_bytes(self.raw(8 * n), "little")

    def array(self, shape: tuple[int, ...], dtype: str) -> np.ndarray:
        """A read-only view of the next ``shape`` items of ``dtype``."""
        b = self.raw(math.prod(shape) * np.dtype(dtype).itemsize)
        return np.frombuffer(b, dtype=dtype).reshape(shape)


def _check_header(r: _Reader, magic: bytes, kind: str, version: int, older: str = "") -> None:
    """Check the magic and the version; ``older`` is added for a version below ``version``."""
    got = bytes(r.raw(len(magic)))
    if got != magic:
        raise FormatError(f"not a {kind} file: bad magic {got!r}")
    found = r.u32()
    if found != version:
        raise FormatError(f"unsupported {kind} version {found}{older if found < version else ''}")


@dataclass
class ModelBundle:
    """Everything needed to continue training or serve queries."""

    k: int
    rho: int
    eta: float
    seed: int
    codebook: Codebook
    matrix: EcocMatrix
    model: HashModel
    normalizer: FeatureNormalizer | None = None


def save_model(bundle: ModelBundle, path) -> None:
    """Write a bundle; k and rho are the matrix's and the seed is the model's."""
    m = bundle.model
    mat = bundle.matrix
    with open(path, "wb") as f:
        w = _Writer(f)
        w.raw(MODEL_MAGIC)
        w.u32(MODEL_VERSION)
        w.u32(mat.k)
        w.u32(mat.rho)
        w.u32(m.d)
        w.f64(bundle.eta)
        w.u64(m.seed)
        w.u64(m.iteration)
        w.u32(mat.m)
        w.u32(mat.n_in_cycle)
        cb = bundle.codebook
        w.u64(cb.rng_seed)
        w.u64(cb.draws_made)
        w.u32(len(cb.pool))
        for c in cb.pool:
            w.words(c.length, c.bits)
        w.u32(len(mat.cores))
        for y, core in mat.cores.items():
            w.text(y)
            w.u32(mat.cycle_of_label[y])
            w.words(core.length, core.bits)
        w.u32(m.width)
        w.array(m.weights, "<f8")
        if bundle.normalizer is None:
            w.u8(0)
        else:
            w.u8(1)
            w.text(_NORMALIZER_TAG)
            w.u64(bundle.normalizer.count)
            w.array(bundle.normalizer.mean, "<f8")


# The smallest code record: its length, its word count and one word.
_MIN_CODE_BYTES = 4 + 4 + 8


def _read_core(r: _Reader, k: int) -> PackedCode:
    """A k-bit code: a codebook entry or a label's core."""
    length, bits = r.words()
    if length != k or bits >> k:
        raise FormatError(f"codes must have k={k} bits and none beyond, got length {length}")
    return PackedCode(k, bits)


def load_model(path) -> ModelBundle:
    with open(path, "rb") as f:
        r = _Reader(f.read())
        _check_header(r, MODEL_MAGIC, "model", MODEL_VERSION)
        k = r.u32()
        rho = r.u32()
        d = r.u32()
        eta = r.f64()
        if not 0.0 <= eta < math.inf:
            raise FormatError(f"learning rate {eta} is not finite and >= 0")
        seed = r.u64()
        iteration = r.u64()
        m_cycles = r.u32()
        n_in_cycle = r.u32()
        if min(k, rho, d, m_cycles) < 1:
            raise FormatError(f"k={k}, rho={rho}, d={d} and cycles={m_cycles} must be >= 1")
        cb_seed = r.u64()
        draws_made = r.u64()
        pool = [_read_core(r, k) for _ in range(r.count(_MIN_CODE_BYTES))]
        cores: dict[str, PackedCode] = {}
        cycle_of: dict[str, int] = {}
        in_cycle: dict[int, set[int]] = {}
        # Each label record: its text's length word, its cycle id and its core.
        for _ in range(r.count(4 + 4 + _MIN_CODE_BYTES)):
            y = r.text()
            j = r.u32()
            core = _read_core(r, k)
            if y in cores:
                raise FormatError(f"label {y!r} appears twice")
            if not 1 <= j <= m_cycles:
                raise FormatError(f"label {y!r} is in cycle {j}, outside [1, {m_cycles}]")
            seen = in_cycle.setdefault(j, set())
            if core.bits in seen:
                raise FormatError(f"two labels of cycle {j} share a core")
            seen.add(core.bits)
            if len(seen) > rho:
                raise FormatError(f"cycle {j} holds more than rho={rho} labels")
            cycle_of[y], cores[y] = j, core
        # Every draw removes its code, so a pool never repeats one nor holds a label's core.
        free = {c.bits for c in pool}
        if len(free) < len(pool) or any(c.bits in free for c in cores.values()):
            raise FormatError("the codebook pool repeats a code or holds a label's core")
        last = len(in_cycle.get(m_cycles, ()))
        if last != n_in_cycle:
            raise FormatError(f"n_in_cycle is {n_in_cycle}, but cycle {m_cycles} holds {last}")
        width = r.u32()
        # Copies, not views of the file: ``step`` writes the weights in place.
        weights = r.array((width, d + 1), "<f8").copy()
        normalizer = None
        if r.u8():
            tag = r.text()
            if tag != _NORMALIZER_TAG:
                raise FormatError(f"unknown normalizer {tag!r}")
            count = r.u64()
            normalizer = FeatureNormalizer(mean=r.array((d,), "<f8").copy(), count=count)
    if r.pos != r.end:
        raise FormatError(f"{r.end - r.pos} trailing bytes after the model")
    if not np.isfinite(weights).all() or (
            normalizer is not None and not np.isfinite(normalizer.mean).all()):
        raise FormatError("a weight or the normalizer's mean is NaN or infinite")
    matrix = EcocMatrix(k=k, rho=rho, m=m_cycles, n_in_cycle=n_in_cycle,
                        cores=cores, cycle_of_label=cycle_of)
    model = HashModel(d=d, k=k, weights=weights, iteration=iteration, seed=seed)
    if model.width != matrix.width:
        raise FormatError(
            f"inconsistent file: {model.width} weight rows for width {matrix.width}")
    codebook = Codebook(k=k, pool=pool, rng_seed=cb_seed, draws_made=draws_made)
    return ModelBundle(k=k, rho=rho, eta=eta, seed=seed, codebook=codebook,
                       matrix=matrix, model=model, normalizer=normalizer)


def save_index(index: HashIndex, path) -> None:
    fields = index.arrays()
    with open(path, "wb") as f:
        w = _Writer(f)
        w.raw(INDEX_MAGIC)
        w.u32(INDEX_VERSION)
        for a in (np.asarray(fields[name], dtype=dtype) for name, dtype in FILE_LAYOUT):
            w.u64(a.size)
            w.raw(a.tobytes())


def load_index(path) -> HashIndex:
    """Read ``FILE_LAYOUT``'s arrays, each after its u64 size; ``HashIndex`` checks them."""
    with open(path, "rb") as f:
        r = _Reader(f.read())
    _check_header(r, INDEX_MAGIC, "index", INDEX_VERSION,
                  "; rebuild the index from its model and features with `ecochash index`")
    fields = {name: r.array((r.count(np.dtype(dtype).itemsize, wide=True),), dtype)
              for name, dtype in FILE_LAYOUT}
    if r.pos != r.end:
        raise FormatError(f"{r.end - r.pos} trailing bytes after the index")
    try:
        return HashIndex(fields)
    except ValueError as exc:
        raise FormatError(f"bad index: {exc}") from None


def write_features(path, ids, labels, X, fmt: str | None = None) -> None:
    """Write an (ids, labels, features) table; label None means unlabeled.

    The binary encoding needs integer labels (it stores an i32, with -1
    reserved for unlabeled); CSV takes any label without a comma-safe
    escape worry since the writer quotes as needed. A value that is NaN,
    infinite or beyond float32's range raises ValueError, as
    ``read_features`` would refuse the file; so does, in the binary
    encoding, an id outside [0, 2^64).
    """
    # A value beyond float32's range becomes inf here, which the check below rejects.
    with np.errstate(over="ignore"):
        X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {X.shape}")
    if not len(ids) == len(labels) == X.shape[0]:
        raise ValueError("ids, labels and features disagree on row count")
    if len(set(ids)) != len(ids):
        raise ValueError("ids must be unique within a feature file")
    _check_finite(ids, X, ValueError)
    fmt = fmt or ("csv" if Path(path).suffix.lower() == ".csv" else "binary")
    if fmt == "csv":
        _write_features_csv(path, ids, labels, X)
    elif fmt == "binary":
        _write_features_binary(path, ids, labels, X)
    else:
        raise ValueError(f"unknown feature format {fmt!r}")


def _encode_label(label: str | None) -> int:
    if label is None:
        return -1
    try:
        v = int(label)
    except ValueError:
        raise FormatError(
            f"binary feature files need integer labels, got {label!r}") from None
    if v == -1:
        raise FormatError("label -1 is reserved for unlabeled rows")
    if not -(1 << 31) <= v < (1 << 31):
        raise FormatError(f"label {v} does not fit in 32 bits")
    return v


def _feature_record(d: int) -> np.dtype:
    """One binary feature record: u64 id, i32 label and d float32 values."""
    return np.dtype([("id", "<u8"), ("label", "<i4"), ("x", "<f4", (d,))])


def _write_features_binary(path, ids, labels, X: np.ndarray) -> None:
    bad = [i for i in ids if not 0 <= int(i) < 1 << 64]
    if bad:
        raise ValueError(f"id {bad[0]} does not fit a binary feature file's u64")
    records = np.empty(X.shape[0], dtype=_feature_record(X.shape[1]))
    records["id"] = [int(i) for i in ids]
    records["label"] = [_encode_label(y) for y in labels]
    records["x"] = X
    Path(path).write_bytes(struct.pack("<II", FEATURE_MAGIC, X.shape[1]) + records.tobytes())


def _write_features_csv(path, ids, labels, X: np.ndarray) -> None:
    d = X.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as f:
        out = csv.writer(f)
        out.writerow(["id", "label"] + [f"f{j}" for j in range(d)])
        for i in range(X.shape[0]):
            label = "" if labels[i] is None else str(labels[i])
            row = [str(int(ids[i])), label]
            row.extend(repr(float(v)) for v in X[i])
            out.writerow(row)


def read_features(path):
    """Read either feature encoding, sniffing the binary magic.

    Returns (ids, labels, X) with X as float32; labels are strings or None.
    Ids must be unique and every feature value finite.
    """
    with open(path, "rb") as f:
        head = f.read(4)
    binary = len(head) == 4 and struct.unpack("<I", head)[0] == FEATURE_MAGIC
    ids, labels, X = (_read_features_binary if binary else _read_features_csv)(path)
    if len(set(ids)) != len(ids):
        raise FormatError(f"{path}: duplicate ids in feature file")
    _check_finite(ids, X, FormatError, f"{path}: ")
    return ids, labels, X


def _check_finite(ids, X: np.ndarray, error: type, prefix: str = "") -> None:
    """Raise ``error`` naming the first row of float32 ``X`` with a non-finite value."""
    if not np.isfinite(X).all():
        row = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise error(f"{prefix}row id {ids[row]} has a feature value that is "
                    "NaN, infinite or beyond float32's range")


def _read_features_binary(path):
    r = _Reader(Path(path).read_bytes())
    if r.u32() != FEATURE_MAGIC:
        raise FormatError("not a feature file: bad magic")
    d = r.u32()
    if d < 1:
        raise FormatError(f"feature dimension must be >= 1, got {d}")
    body = r.end - r.pos
    # Checked before the record dtype is built, which numpy refuses for a huge d.
    if body % (12 + 4 * d):
        raise FormatError("truncated feature record")
    if not body:
        return [], [], np.empty((0, d), dtype=np.float32)
    records = np.frombuffer(r.data, dtype=_feature_record(d), offset=r.pos)
    ids = records["id"].tolist()
    labels = [None if y == -1 else str(y) for y in records["label"].tolist()]
    return ids, labels, records["x"].astype(np.float32)


def _read_features_csv(path):
    # A value beyond float32's range parses as inf, which read_features rejects.
    with open(path, "r", encoding="utf-8", newline="") as f, np.errstate(over="ignore"):
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty feature file") from None
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise FormatError(
                "feature CSV must start with columns id,label,f0,...")
        d = len(header) - 2
        ids: list[int] = []
        labels: list[str | None] = []
        rows: list[np.ndarray] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise FormatError(
                    f"line {line_no}: expected {d + 2} columns, got {len(row)}")
            try:
                ids.append(int(row[0]))
            except ValueError:
                raise FormatError(f"line {line_no}: bad id {row[0]!r}") from None
            labels.append(row[1] if row[1] != "" else None)
            try:
                rows.append(np.asarray(row[2:], dtype=np.float32))
            except ValueError:
                raise FormatError(f"line {line_no}: bad feature value") from None
    X = np.stack(rows) if rows else np.empty((0, d), dtype=np.float32)
    return ids, labels, X
