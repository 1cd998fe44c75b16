"""On-disk formats: model bundles, indexes, and feature files.

Model and index files are one framing: a magic, a u32 version, then the
arrays of a layout in order, each as its u64 element count and its
little-endian items (a single value is an array of one).
``FILE_LAYOUT`` in ``ecochash.index`` names an index's arrays (each row's
cycle slots as bytes) and ``MODEL_LAYOUT`` here a model's: the codebook
pool, every label's core in arrival order (which gives its cycle), the
weights and the normalizer's mean. Saving and reloading a bundle
reproduces it byte for byte, including the codebook draw position, so a
restored session continues the exact same random sequence it would have
produced uninterrupted.

Feature files come in two encodings. The binary one is compact and typed:
a "FEAT" magic, the dimension, then (u64 id, i32 label, d float32) records
where label -1 means unlabeled. The CSV one is UTF-8 ``id,label,f0,...``
with an empty label cell meaning unlabeled, the id and label quoted as
``csv`` quotes them. Its floats are written at 9 significant digits, which
name every float32 exactly, and parsed as float32, so both encodings of
the same data train identically; files written with more digits read to
the same values.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitcode import n_words
from .codebook import Codebook
from .ecoc import EcocMatrix
from .errors import FormatError
from .index import FILE_LAYOUT, HashIndex, decode_labels, encode_labels
from .learner import FeatureNormalizer, HashModel

MODEL_MAGIC = b"ECOCHMDL"
INDEX_MAGIC = b"ECOCHIDX"
FEATURE_MAGIC = 0x54414546  # the bytes b"FEAT"
MODEL_VERSION = 3
INDEX_VERSION = 5

# Model file format version 3, in the framing of ``FILE_LAYOUT``. ``pool`` and ``cores``
# hold ceil(k/64) words per code, ``cores`` in the order of the label table, which is
# arrival order: the label at place r is in cycle r // rho + 1. An empty ``mean`` means
# no normalizer, and its count is then 0.
MODEL_LAYOUT = (
    ("k", "<u4"), ("rho", "<u4"), ("d", "<u4"), ("eta", "<f8"), ("seed", "<u8"),
    ("iteration", "<u8"), ("codebook_seed", "<u8"), ("draws_made", "<u8"), ("pool", "<u8"),
    ("cores", "<u8"), ("label_lengths", "<u4"), ("label_text", "u1"),
    ("weights", "<f8"), ("normalizer_count", "<u8"), ("mean", "<f8"),
)
_MODEL_SINGLE = ("k", "rho", "d", "eta", "seed", "iteration", "codebook_seed", "draws_made",
                 "normalizer_count")


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

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def array(self, dtype: str) -> np.ndarray:
        """A u64 count, then a read-only view of that many items of ``dtype``."""
        n = struct.unpack("<Q", self.raw(8))[0]
        return np.frombuffer(self.raw(n * np.dtype(dtype).itemsize), dtype=dtype)


def _save_arrays(path, magic: bytes, version: int, layout, fields: dict) -> None:
    """Write ``magic``, ``version`` and ``layout``'s arrays from ``fields``."""
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<I", version))
        for name, dtype in layout:
            a = np.asarray(fields[name], dtype=dtype)
            f.write(struct.pack("<Q", a.size))
            f.write(a.tobytes())


def _load_arrays(path, magic: bytes, version: int, layout, kind: str, older: str) -> dict:
    """``layout``'s arrays by name, as read-only views of the file's bytes.

    The magic and the version must match (``older`` is added for a lower
    version), every count must fit the bytes left, and none may follow.
    """
    with open(path, "rb") as f:
        r = _Reader(f.read())
    got = bytes(r.raw(len(magic)))
    if got != magic:
        raise FormatError(f"not a {kind} file: bad magic {got!r}")
    found = r.u32()
    if found != version:
        raise FormatError(f"unsupported {kind} version {found}{older if found < version else ''}")
    fields = {name: r.array(dtype) for name, dtype in layout}
    if r.pos != r.end:
        raise FormatError(f"{r.end - r.pos} trailing bytes after the {kind}")
    return fields


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
    """Write a bundle; k and rho are the matrix's and the seed is the model's.

    Every field is first converted to its ``MODEL_LAYOUT`` dtype and put
    through ``load_model``'s checks, so a bundle whose file would not load
    raises ValueError before the file is opened. The file holds one k, so
    the model's and the codebook's must be the matrix's.
    """
    m, mat, cb, norm = bundle.model, bundle.matrix, bundle.codebook, bundle.normalizer
    if m.k != mat.k or cb.k != mat.k:
        raise ValueError(f"cannot save this model: the model's k={m.k} and the codebook's "
                         f"k={cb.k} must be the matrix's k={mat.k}")
    values = {
        "k": mat.k, "rho": mat.rho, "d": m.d, "eta": bundle.eta, "seed": m.seed,
        "iteration": m.iteration, "codebook_seed": cb.rng_seed, "draws_made": cb.draws_made,
        "pool": cb.pool, "cores": mat.cores, **encode_labels(mat.rows),
        "weights": m.weights,
        "normalizer_count": 0 if norm is None else norm.count,
        "mean": () if norm is None else norm.mean,
    }
    fields = {}
    for name, dtype in MODEL_LAYOUT:
        value = values[name]
        try:
            # A numpy integer would wrap into an unsigned dtype; a Python int raises.
            fields[name] = np.ascontiguousarray(
                int(value) if isinstance(value, np.integer) else value, dtype)
        except OverflowError:
            raise ValueError(f"cannot save this model: {name}={value} does not fit "
                             f"the file's {np.dtype(dtype)}") from None
    try:
        _check_model(fields)
    except ValueError as exc:
        raise ValueError(f"cannot save this model: {exc}") from None
    _save_arrays(path, MODEL_MAGIC, MODEL_VERSION, MODEL_LAYOUT, fields)


def load_model(path) -> ModelBundle:
    """Read ``MODEL_LAYOUT``'s arrays and check the model's invariants once over them."""
    fields = _load_arrays(path, MODEL_MAGIC, MODEL_VERSION, MODEL_LAYOUT, "model",
                          "; retrain it with `ecochash train` (the same features, flags "
                          "and seed give the same model)")
    try:
        labels, pool, cores = _check_model(fields)
    except ValueError as exc:
        raise FormatError(f"bad model: {exc}") from None
    k, rho, d, eta, seed, iteration, cb_seed, draws_made, count = (
        fields[name].item() for name in _MODEL_SINGLE)
    mean = fields["mean"]
    # The constructors copy the pool, the cores and the weights out of the file's bytes.
    matrix = EcocMatrix(k, rho, labels, cores)
    model = HashModel(d=d, k=k, weights=fields["weights"].reshape(-1, d + 1),
                      iteration=iteration, seed=seed)
    normalizer = FeatureNormalizer(mean=mean.copy(), count=count) if mean.size else None
    codebook = Codebook(k=k, pool=pool, rng_seed=cb_seed, draws_made=draws_made)
    return ModelBundle(k=k, rho=rho, eta=eta, seed=seed, codebook=codebook,
                       matrix=matrix, model=model, normalizer=normalizer)


def _check_model(fields: dict):
    """``(labels, pool, cores)`` of ``MODEL_LAYOUT``'s arrays, once they pass every check.

    A ValueError names the invariant that fails. Every check is sized by the
    arrays, so a huge k or d allocates nothing before the weight count
    refuses it. The pool and cores are (codes, ceil(k/64)) blocks.
    """
    # Every single value is read, so each is checked to be one.
    k, rho, d, eta, *_, count = (fields[name].item() for name in _MODEL_SINGLE)
    if min(k, rho, d) < 1 or not 0.0 <= eta < math.inf:
        raise ValueError(f"k={k}, rho={rho} and d={d} must be >= 1, "
                         f"and eta={eta} finite and >= 0")
    labels = decode_labels(fields["label_lengths"], fields["label_text"])
    m = max(1, -(-len(labels) // rho))
    pool = fields["pool"].reshape(-1, n_words(k))
    cores = fields["cores"].reshape(-1, n_words(k))
    codes, weights, mean = np.concatenate([pool, cores]), fields["weights"], fields["mean"]
    # Each code tagged 0 in the pool and by its cycle as a core, then sorted stably by
    # code, so equal codes meet with their tags in order. (lexsort allocates per word:
    # empty blocks, which a corrupt k makes as wide as it likes, are not sorted.)
    tags = np.concatenate([np.zeros(len(pool), int), np.arange(len(cores)) // rho + 1])
    order = np.lexsort(codes.T) if len(codes) else []
    codes, tags = codes[order], tags[order]
    repeat, tag = (codes[1:] == codes[:-1]).all(axis=1), tags[:-1]
    for broken, what in (
            (len(cores) != len(labels), f"{len(cores)} cores for {len(labels)} labels"),
            (len(set(labels)) < len(labels), "a label appears twice"),
            (k % 64 and (codes[:, -1] >> np.uint64(k % 64)).any(), f"a code has bits past k={k}"),
            ((repeat & (tag > 0) & (tag == tags[1:])).any(),
             "two labels of one cycle share a core"),
            # Every draw removes its code, so a pool never repeats one nor holds a label's core.
            ((repeat & (tag == 0)).any(),
             "the codebook pool repeats a code or holds a label's core"),
            (weights.size % (d + 1), f"{weights.size} weights are not rows of {d + 1}"),
            (weights.size != m * k * (d + 1),
             f"model width {weights.size // (d + 1)} does not match matrix width {m * k}"),
            (mean.size not in (0, d) or (count and not mean.size),
             f"a mean of length {mean.size} for d={d} with count {count}"),
            (not (np.isfinite(weights).all() and np.isfinite(mean).all()),
             "a weight or the normalizer's mean is NaN or infinite")):
        if broken:
            raise ValueError(what)
    return labels, pool, cores


def save_index(index: HashIndex, path) -> None:
    _save_arrays(path, INDEX_MAGIC, INDEX_VERSION, FILE_LAYOUT, index.arrays())


def load_index(path) -> HashIndex:
    """Read ``FILE_LAYOUT``'s arrays; ``HashIndex`` checks them."""
    fields = _load_arrays(path, INDEX_MAGIC, INDEX_VERSION, FILE_LAYOUT, "index",
                          "; rebuild the index from its model and features with `ecochash index`")
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
    values = ",".join(["%.9g"] * d)  # 9 significant digits round-trip a float32
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerow(["id", "label"] + [f"f{j}" for j in range(d)])
        for i, y, x in zip(ids, labels, X):
            # csv quotes the label as needed: "id,label," then its "\r\n", which is cut.
            head = io.StringIO()
            csv.writer(head).writerow([int(i), "" if y is None else str(y), ""])
            f.write(head.getvalue()[:-2] + values % tuple(x.tolist()) + "\r\n")


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
    """Every failure is a ``FormatError`` naming the file, as the CSV reader's are."""
    r = _Reader(Path(path).read_bytes())
    try:
        if r.u32() != FEATURE_MAGIC:
            raise FormatError("not a feature file: bad magic")
        d = r.u32()
        if d < 1:
            raise FormatError(f"feature dimension must be >= 1, got {d}")
        body = r.end - r.pos
        # Checked before the record dtype is built, which numpy refuses for a huge d.
        if body % (12 + 4 * d):
            raise FormatError("truncated feature record")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not body:
        return [], [], np.empty((0, d), dtype=np.float32)
    records = np.frombuffer(r.data, dtype=_feature_record(d), offset=r.pos)
    ids = records["id"].tolist()
    labels = [None if y == -1 else str(y) for y in records["label"].tolist()]
    return ids, labels, records["x"].astype(np.float32)


def _read_features_csv(path):
    """Check the header with ``csv``, then parse every row with one ``np.loadtxt``.

    Any failure, a byte that is not UTF-8 included, is a ``FormatError``
    naming the file; one in a data row also names its line (the header's
    is line 1) and, when it parses, the row's id.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            header = next(csv.reader(f), None)
            if header is None:
                raise FormatError("empty feature file")
            if len(header) < 3 or header[0] != "id" or header[1] != "label":
                raise FormatError("feature CSV must start with columns id,label,f0,...")
            d = len(header) - 2
            # loadtxt warns on a table with no rows, so a header-only file returns here.
            first = next((line for line in f if line.strip("\r\n")), None)
            if first is None:
                return [], [], np.empty((0, d), dtype=np.float32)
            try:
                # With no comment character a label may start with "#". A value beyond
                # float32's range parses as inf, which read_features rejects.
                table = np.loadtxt(itertools.chain([first], f), delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, dtype=[
                                       ("id", "O"), ("label", "O"), ("x", "<f4", (d,))])
                ids = [int(i) for i in table["id"].tolist()]
            except ValueError as exc:
                raise FormatError(_bad_row(path, d) or str(exc)) from None
    except (ValueError, csv.Error) as exc:
        # numpy's column-count message ends in a hint about its own `usecols` option.
        raise FormatError(f"{path}: {str(exc).split('; use `usecols`')[0]}") from None
    labels = [y or None for y in table["label"].tolist()]
    return ids, labels, table["x"].copy()


def _bad_row(path, d: int) -> str | None:
    """What is wrong with the first data row at fault, as "line N (id I): what".

    The rows are read again with ``csv``, so a quoted label may span lines;
    the id is left out when it does not parse. None when the file cannot be
    read again or no row is found at fault.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            rows = csv.reader(f)
            next(rows)
            line = rows.line_num + 1
            for row in rows:
                fault = _row_fault(row, d) if row else None
                if fault:
                    try:
                        return f"line {line} (id {int(row[0])}): {fault}"
                    except ValueError:
                        return f"line {line}: {fault}"
                line = rows.line_num + 1
    except (UnicodeDecodeError, csv.Error):
        pass
    return None


def _row_fault(row: list[str], d: int) -> str | None:
    """What ``np.loadtxt`` or ``int`` refuses in a CSV row of d features, if anything."""
    if len(row) != d + 2:
        return f"expected {d + 2} fields, found {len(row)}"
    try:
        int(row[0])
    except ValueError:
        return f"the id {row[0]!r} is not an integer"
    for col, value in enumerate(row[2:], 3):
        try:
            float(value)
            # loadtxt reads Python's float syntax, but without "_" and in ASCII only.
            ok = "_" not in value and value.strip().isascii()
        except ValueError:
            ok = False
        if not ok:
            return f"{value!r} in column {col} is not a number"
    return None
