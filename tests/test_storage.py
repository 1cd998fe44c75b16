"""Round trips and corruption handling for the on-disk formats."""

import hashlib
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from ecochash.codebook import generate
from ecochash.ecoc import EcocMatrix, new_matrix
from ecochash.errors import ConsistencyError, FormatError
from ecochash.evaluation import derive_seed, make_gaussian_classes
from ecochash.index import MODE_CODEWORD, MODE_PHI, HashIndex
from ecochash.learner import FeatureNormalizer, HashModel, step
from ecochash import storage
from ecochash.storage import (ModelBundle, load_index, load_model, read_features,
                              save_index, save_model, write_features)


def trained_bundle(with_normalizer=True, steps=40):
    rng = np.random.default_rng(0)
    X, labels = make_gaussian_classes(5, 6, steps, separation=3.0, seed=1)
    norm = FeatureNormalizer.fit(X) if with_normalizer else None
    Xn = norm.transform_many(X) if norm else X
    matrix = new_matrix(8, 2)
    cb = generate(8, 32, seed=2)
    model = HashModel.create(d=6, k=8, seed=3)
    for i in range(steps):
        step(model, matrix, cb, Xn[i], labels[i])
    return ModelBundle(k=8, rho=2, eta=1.0, seed=3, codebook=cb,
                       matrix=matrix, model=model, normalizer=norm), Xn, labels


def assert_bundles_equal(a, b):
    assert (a.k, a.rho, a.eta, a.seed) == (b.k, b.rho, b.eta, b.seed)
    assert np.array_equal(a.codebook.pool, b.codebook.pool)
    assert (a.codebook.rng_seed, a.codebook.draws_made) \
        == (b.codebook.rng_seed, b.codebook.draws_made)
    assert np.array_equal(a.matrix.cores, b.matrix.cores)
    assert a.matrix.labels == b.matrix.labels
    assert (a.matrix.m, a.matrix.n_in_cycle) == (b.matrix.m, b.matrix.n_in_cycle)
    assert np.array_equal(a.model.weights, b.model.weights)
    assert (a.model.d, a.model.k, a.model.iteration, a.model.seed) \
        == (b.model.d, b.model.k, b.model.iteration, b.model.seed)


def test_model_roundtrip_bytes(tmp_path):
    bundle, _, _ = trained_bundle()
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(bundle, p1)
    loaded = load_model(p1)
    assert_bundles_equal(bundle, loaded)
    assert loaded.normalizer is not None
    assert loaded.normalizer.count == bundle.normalizer.count
    assert np.array_equal(loaded.normalizer.mean, bundle.normalizer.mean)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def split_arrays(blob, layout):
    """A model or index file's arrays by name, read here with ``struct`` alone.

    After the 8-byte magic and the u32 version, each array is its u64
    element count and its little-endian items, in layout order.
    """
    fields, pos = {}, 12
    for name, dtype in layout:
        (n,) = struct.unpack_from("<Q", blob, pos)
        fields[name] = np.frombuffer(blob, dtype, n, pos + 8).copy()
        pos += 8 + n * np.dtype(dtype).itemsize
    assert pos == len(blob)
    return fields


def join_arrays(head, layout, fields):
    """The inverse of ``split_arrays`` after the 12 bytes of ``head``."""
    out = [head]
    for name, dtype in layout:
        a = np.asarray(fields[name], dtype=dtype)
        out += [struct.pack("<Q", a.size), a.tobytes()]
    return b"".join(out)


# SHA-256 of the saved ``trained_bundle()``, in model format version 3.
TRAINED_MODEL_SHA256 = "9e3db2bfba9e4fc05797fb5d4bdee29bab3280f5fece8e605625a33c6e67c2b2"


def test_model_bytes_are_pinned(tmp_path):
    bundle, _, _ = trained_bundle()
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = p.read_bytes()
    assert blob[:12] == storage.MODEL_MAGIC + struct.pack("<I", 3)
    f = split_arrays(blob, storage.MODEL_LAYOUT)
    mat, model, cb, norm = bundle.matrix, bundle.model, bundle.codebook, bundle.normalizer
    singles = ["k", "rho", "d", "eta", "seed", "iteration", "codebook_seed", "draws_made",
               "normalizer_count"]
    assert [f[name].tolist() for name in singles] == [
        [8], [2], [6], [1.0], [3], [40], [2], [5], [40]]
    # k = 8: one word per code.
    assert f["pool"].tolist() == cb.pool[:, 0].tolist()
    assert f["cores"].tolist() == mat.cores[:, 0].tolist()
    assert f["label_lengths"].tolist() == [2] * 5
    assert f["label_text"].tobytes() == b"c0c2c4c1c3"
    assert f["weights"].tobytes() == model.weights.tobytes()
    assert f["mean"].tobytes() == norm.mean.tobytes()
    assert hashlib.sha256(blob).hexdigest() == TRAINED_MODEL_SHA256


# A model with k=8, rho=2, d=1, one empty cycle, an empty pool, no labels,
# 8 zero weight rows and no normalizer, after the magic and the version.
OLD_MODEL_BODIES = {
    1: struct.pack("<IIIdQQIIQQIII", 8, 2, 1, 1.0, 3, 0, 1, 0, 2, 0, 0, 0, 8)
    + bytes(8 * 2 * 8) + b"\x00",
    # Version 2's arrays, each its u64 count and its items: k, rho, d, eta,
    # seed, iteration, cycles, n_in_cycle, codebook seed and draws, then the
    # pool, cores, label cycles, label table, weights, normalizer count and mean.
    2: b"".join(struct.pack(f"<Q{len(v)}{t}", len(v), *v) for t, v in (
        ("I", [8]), ("I", [2]), ("I", [1]), ("d", [1.0]), ("Q", [3]), ("Q", [0]), ("I", [1]),
        ("I", [0]), ("Q", [2]), ("Q", [0]), ("Q", []), ("Q", []), ("I", []), ("I", []),
        ("B", []), ("d", [0.0] * 16), ("Q", [0]), ("d", []))),
}


@pytest.mark.parametrize("version", [1, 2])
def test_model_version_1_is_refused(tmp_path, version):
    p = tmp_path / "old.model"
    p.write_bytes(storage.MODEL_MAGIC + struct.pack("<I", version) + OLD_MODEL_BODIES[version])
    with pytest.raises(FormatError, match=f"unsupported model version {version}; retrain it "
                                          "with `ecochash train`"):
        load_model(p)


def _model_fields(tmp_path, steps=40):
    bundle, _, _ = trained_bundle(steps=steps)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = p.read_bytes()
    return p, blob[:12], split_arrays(blob, storage.MODEL_LAYOUT)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), -1.0])
def test_model_rejects_eta_that_is_negative_or_not_finite(tmp_path, eta):
    p, head, fields = _model_fields(tmp_path, steps=5)
    assert fields["eta"].tolist() == [1.0]
    fields["eta"] = [eta]
    p.write_bytes(join_arrays(head, storage.MODEL_LAYOUT, fields))
    with pytest.raises(FormatError, match="eta"):
        load_model(p)


def _set(i, value):
    """A change that sets item ``i`` of an array to ``value(array, fields)``."""
    def change(a, fields):
        a = a.copy()
        a[i] = value(a, fields)
        return a
    return change


# trained_bundle's label table c0 c2 | c4 c1 | c3 fills cycles 1, 2 and 3 (rho = 2).
@pytest.mark.parametrize("name, change, match", [
    ("cores", _set(0, lambda a, f: int(a[0]) | 1 << int(f["k"][0])), "bits past k"),
    ("cores", _set(1, lambda a, f: a[0]), "share a core"),
    ("cores", lambda a, f: a[:-1], "4 cores for 5 labels"),
    ("label_text", _set(3, lambda a, f: a[1]), "appears twice"),
    ("pool", _set(1, lambda a, f: a[0]), "pool repeats"),
    ("pool", _set(0, lambda a, f: f["cores"][3]), "holds a label's core"),
    ("weights", lambda a, f: a[:-7], "weights for"),
    ("mean", lambda a, f: a[:-1], "mean of length"),
    ("label_lengths", _set(0, lambda a, f: 3), "do not add up"),
    ("label_text", _set(1, lambda a, f: 0xFF), "utf-8"),
], ids=["core-bit-past-k", "shared-core", "core-count", "repeated-label", "pool-repeat",
        "pool-holds-core", "weight-rows", "mean-length", "label-lengths", "not-utf-8"])
def test_model_rejects_broken_arrays(tmp_path, name, change, match):
    p, head, fields = _model_fields(tmp_path)
    p.write_bytes(join_arrays(head, storage.MODEL_LAYOUT, fields))
    load_model(p)
    fields[name] = change(fields[name], fields)
    p.write_bytes(join_arrays(head, storage.MODEL_LAYOUT, fields))
    # No check allocates by a stored value: the file is 3 KB.
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=match):
            load_model(p)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_loaded_bundle_continues_training_identically(tmp_path):
    # The bundle's own k, rho and seed disagree with its parts, as when a run
    # seed is stored beside a model seeded from a sub-seed; the parts win.
    X = np.random.default_rng(0).standard_normal((6, 4))
    matrix = new_matrix(8, 2)
    cb = generate(8, 32, seed=2)
    model = HashModel.create(d=4, k=8, seed=derive_seed(0, 2000))
    for x, y in zip(X[:4], "abab"):
        step(model, matrix, cb, x, y)
    bundle = ModelBundle(k=16, rho=5, eta=1.0, seed=0, codebook=cb,
                         matrix=matrix, model=model)
    save_model(bundle, tmp_path / "m.model")
    loaded = load_model(tmp_path / "m.model")
    assert (loaded.k, loaded.rho, loaded.seed) == (8, 2, model.seed)
    assert (loaded.matrix.k, loaded.matrix.rho, loaded.model.seed) == (8, 2, model.seed)
    for b in (bundle, loaded):
        # "c" opens cycle 2, whose functions are drawn from the model's seed.
        for x, y in zip(X[4:], "ca"):
            step(b.model, b.matrix, b.codebook, x, y)
    assert loaded.matrix.m == 2
    assert loaded.model.weights.tobytes() == model.weights.tobytes()
    assert np.array_equal(loaded.matrix.cores, matrix.cores)


def _mismatched_bundle(part):
    """A k=8, d=4 bundle of two cycles whose ``part`` disagrees with its matrix."""
    matrix, cb = new_matrix(8, 2), generate(8, 16, seed=2)
    model = HashModel.create(d=4, k=8, seed=3)
    X = np.random.default_rng(0).standard_normal((3, 4))
    for x, y in zip(X, "abc"):
        step(model, matrix, cb, x, y)
    norm = FeatureNormalizer.fit(X)
    if part == "one-cycle model":
        model = HashModel.create(d=4, k=8, seed=3)
    elif part == "k=4 model":
        model = HashModel(d=4, k=4, weights=np.ones((16, 5)))
    elif part == "mean of length 5":
        norm = FeatureNormalizer(mean=np.zeros(5), count=3)
    else:
        cb = generate(16, 16, seed=2)
    return ModelBundle(k=8, rho=2, eta=1.0, seed=3, codebook=cb, matrix=matrix,
                       model=model, normalizer=norm)


@pytest.mark.parametrize("part, match", [
    ("one-cycle model", "model width 8 does not match matrix width 16"),
    ("k=4 model", "k=4"),
    ("mean of length 5", "mean of length 5 for d=4"),
    ("k=16 codebook", "codebook's k=16"),
])
def test_save_model_refuses_parts_that_disagree_before_it_writes(tmp_path, part, match):
    # load_model would refuse each such file, so save_model writes none.
    bundle = _mismatched_bundle(part)
    p, kept = tmp_path / "new.model", tmp_path / "kept.model"
    kept.write_bytes(b"an earlier file")
    for path in (p, kept):
        with pytest.raises(ValueError, match=match):
            save_model(bundle, path)
    assert not p.exists() and kept.read_bytes() == b"an earlier file"


@pytest.mark.parametrize("case", ["repeated code", "assigned core"])
def test_model_rejects_a_pool_no_draws_could_leave(tmp_path, case):
    # Every draw removes its code, so such a pool would later hand two labels
    # one core: a file that loads, trains and saves, then fails to reload.
    bundle, _, _ = trained_bundle(steps=5)
    cb = bundle.codebook
    extra = cb.pool if case == "repeated code" else bundle.matrix.cores
    cb.pool = np.concatenate([cb.pool, extra[:1]])
    p = tmp_path / "m.model"
    save_model(bundle, p)
    with pytest.raises(FormatError):
        load_model(p)


def test_features_binary_rejects_corrupt_dimension(tmp_path):
    p = tmp_path / "t.feat"
    for d in (0, (1 << 32) - 1):
        p.write_bytes(struct.pack("<II", 0x54414546, d) + bytes(16))
        with pytest.raises(FormatError):
            read_features(p)


def test_a_loaded_bundle_equals_the_saved_one(tmp_path):
    bundle, _, _ = trained_bundle()
    p = tmp_path / "m.model"
    save_model(bundle, p)
    assert load_model(p) == bundle
    # Arrays compare bitwise: one ulp, or the sign of a zero, makes a difference.
    m = bundle.model
    w = m.weights.copy()
    w[0, 0] = np.nextafter(w[0, 0], np.inf)
    assert HashModel(d=m.d, k=m.k, weights=w, iteration=m.iteration, seed=m.seed) != m
    assert (FeatureNormalizer(np.array([np.nan, 0.0]), 1)
            == FeatureNormalizer(np.array([np.nan, 0.0]), 1)
            != FeatureNormalizer(np.array([np.nan, -0.0]), 1))


def _flip_pool_code(b):
    b.codebook.pool[3, 0] ^= 1


def _flip_core(b):
    m = b.matrix
    cores = m.cores.copy()
    cores[2, 0] ^= 1 << 7
    b.matrix = EcocMatrix(m.k, m.rho, m.labels, cores)


def _count_a_draw(b):
    b.codebook.draws_made += 1


def _move_a_label(b):
    m = b.matrix
    with pytest.raises(TypeError):
        m.cycle_of_label["c0"] = 2
    # A label's cycle is its row's: c0 and c4 trade rows, so c0 is in cycle 2.
    order = [2, 1, 0, 3, 4]
    b.matrix = EcocMatrix(m.k, m.rho, [m.labels[i] for i in order], m.cores[order])
    assert b.matrix.cycle_of_label["c0"] == 2


@pytest.mark.parametrize("change", [_flip_pool_code, _flip_core, _count_a_draw, _move_a_label])
def test_a_loaded_bundle_differs_after_one_change(tmp_path, change):
    bundle, _, _ = trained_bundle()
    p = tmp_path / "m.model"
    save_model(bundle, p)
    loaded = load_model(p)
    assert loaded == bundle
    change(loaded)
    assert loaded != bundle and bundle != loaded


def test_model_roundtrip_without_normalizer(tmp_path):
    bundle, _, _ = trained_bundle(with_normalizer=False)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    loaded = load_model(p)
    assert loaded.normalizer is None
    assert_bundles_equal(bundle, loaded)


def test_model_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.model"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_model(p)


def test_model_rejects_wrong_version(tmp_path):
    bundle, _, _ = trained_bundle(steps=5)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = bytearray(p.read_bytes())
    blob[8:12] = (99).to_bytes(4, "little")
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(p)


@pytest.mark.parametrize("where, value", [
    ("weight", np.nan), ("weight", -np.inf), ("mean", np.nan), ("mean", np.inf)])
def test_model_rejects_non_finite_numbers(tmp_path, where, value):
    bundle, _, _ = trained_bundle(steps=5)
    if where == "weight":
        m = bundle.model
        weights = m.weights.copy()
        weights[1] = value
        bundle.model = HashModel(d=m.d, k=m.k, weights=weights, iteration=m.iteration,
                                 seed=m.seed)
    else:
        bundle.normalizer.mean[1] = value
    p = tmp_path / "m.model"
    save_model(bundle, p)
    with pytest.raises(FormatError, match="NaN or infinite"):
        load_model(p)


def test_model_rejects_truncation(tmp_path):
    bundle, _, _ = trained_bundle(steps=5)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = p.read_bytes()
    for cut in (10, len(blob) // 2, len(blob) - 3):
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_model(p)


def test_model_rejects_trailing_bytes(tmp_path):
    bundle, _, _ = trained_bundle(steps=5)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_model(p)


def test_model_byte_overwrites_load_or_raise_format_error(tmp_path):
    X, labels = make_gaussian_classes(5, 2, 20, separation=3.0, seed=1)
    norm = FeatureNormalizer.fit(X)
    matrix, cb = new_matrix(4, 2), generate(4, 8, seed=2)
    model = HashModel.create(d=2, k=4, seed=3)
    for x, y in zip(norm.transform_many(X), labels):
        step(model, matrix, cb, x, y, eta=0.5)
    assert matrix.m == 3 and len(cb.pool) > 0
    p, out = tmp_path / "m.model", tmp_path / "out.model"
    save_model(ModelBundle(k=4, rho=2, eta=0.5, seed=3, codebook=cb, matrix=matrix,
                           model=model, normalizer=norm), p)
    blob = p.read_bytes()
    assert len(blob) < 1024
    loaded = 0
    for offset in range(len(blob)):
        for value in (0x00, 0xFF, 0x01):
            mutated = bytearray(blob)
            mutated[offset] = value
            p.write_bytes(bytes(mutated))
            try:
                got = load_model(p)
            except FormatError:
                continue
            loaded += 1
            x = np.ones(got.model.d)
            fresh = ["fresh"] if len(got.codebook.pool) else []
            # An overwritten float may be huge, so the scores may overflow.
            with np.errstate(all="ignore"):
                for y in got.matrix.labels[:1] + fresh:
                    step(got.model, got.matrix, got.codebook, x, y, eta=got.eta)
            save_model(got, out)
    assert loaded > len(blob)


def populated_index(bundle, Xn, labels):
    index = HashIndex()
    for i in range(10):
        index.insert_labeled(i, labels[i], bundle.matrix)
    for i in range(10, 20):
        index.insert_unlabeled(i, Xn[i], bundle.model, label=labels[i])
    index.insert_unlabeled(20, Xn[20], bundle.model)
    return index


def test_index_roundtrip_bytes(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    # give the ledger something to say
    report = step(bundle.model, bundle.matrix, bundle.codebook, Xn[21], labels[21])
    index.apply_model_update(report, bundle.model)
    p1, p2 = tmp_path / "a.index", tmp_path / "b.index"
    save_index(index, p1)
    loaded = load_index(p1)
    assert len(loaded) == len(index)
    for a, b in zip(index.entries, loaded.entries):
        assert (a.id, a.mode, a.label) == (b.id, b.mode, b.label)
        assert a.code == b.code
        if a.features is None:
            assert b.features is None
        else:
            assert np.array_equal(a.features, b.features)
    assert loaded.ledger.bit_updates_total == index.ledger.bit_updates_total
    assert loaded.ledger.flipped_bits_total == index.ledger.flipped_bits_total
    assert loaded.ledger.entries_touched_total == index.ledger.entries_touched_total
    save_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of the saved populated index after one eager update, in format
# version 5: at k=8 each slot is one byte.
POPULATED_INDEX_SHA256 = "a85f3ddb182975e99e26ef4de3cff1ea207ad0f71c539223209132a432ae3832"


def test_index_bytes_are_pinned(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    report = step(bundle.model, bundle.matrix, bundle.codebook, Xn[21], labels[21])
    index.apply_model_update(report, bundle.model)
    p = tmp_path / "i.index"
    save_index(index, p)
    blob = p.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == POPULATED_INDEX_SHA256


def test_index_version_1_is_refused(tmp_path):
    # An empty version-1 index: no rows, the ledger's totals and an empty
    # per-step history section.
    p = tmp_path / "old.index"
    p.write_bytes(storage.INDEX_MAGIC + struct.pack("<IIQQQQ", 1, 0, 0, 0, 0, 0))
    with pytest.raises(FormatError, match="unsupported index version 1.*ecochash index"):
        load_index(p)


def test_index_version_2_is_refused(tmp_path):
    # An empty version-2 index: the version-3 arrays plus an empty per-row
    # insertion-width array after the cycles.
    sizes = [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1]
    items = [struct.pack("<Q", n) + b"\0" * (8 if i >= 14 else 4) * n
             for i, n in enumerate(sizes)]
    p = tmp_path / "old.index"
    p.write_bytes(storage.INDEX_MAGIC + struct.pack("<I", 2) + b"".join(items))
    with pytest.raises(FormatError, match="unsupported index version 2.*ecochash index"):
        load_index(p)


def test_index_version_3_is_refused(tmp_path):
    # An empty version-3 index: the version-4 arrays, phi rows packed back
    # to back instead of in slots, and k 0 without codeword rows.
    sizes = [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1]
    items = [struct.pack("<Q", n) + b"\0" * (8 if i >= 13 else 4) * n
             for i, n in enumerate(sizes)]
    p = tmp_path / "old.index"
    p.write_bytes(storage.INDEX_MAGIC + struct.pack("<I", 3) + b"".join(items))
    with pytest.raises(FormatError, match="unsupported index version 3.*ecochash index"):
        load_index(p)


def test_index_version_4_is_refused(tmp_path):
    # An empty version-4 index: the version-5 arrays with word-sized cores and
    # values, the feature length after the phi width and widest before the
    # ledger.
    sizes = [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1]
    items = [struct.pack("<Q", n) + b"\0" * (8 if i >= 13 else 4) * n
             for i, n in enumerate(sizes)]
    p = tmp_path / "old.index"
    p.write_bytes(storage.INDEX_MAGIC + struct.pack("<I", 4) + b"".join(items))
    with pytest.raises(FormatError, match="unsupported index version 4.*ecochash index"):
        load_index(p)


def test_index_file_size_does_not_grow_with_the_stream(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    model, matrix = bundle.model, bundle.matrix
    sizes = []
    for steps in (1, 999):
        for i in range(steps):
            # Only labels already seen, so no step opens a cycle.
            report = step(model, matrix, bundle.codebook, Xn[i % 40], labels[i % 40])
            assert not report.new_cycle_started
            index.apply_model_update(report, model)
        save_index(index, tmp_path / "i.index")
        sizes.append((tmp_path / "i.index").stat().st_size)
    assert index.ledger.entries_touched_total == 1000 * index.phi_count
    assert sizes[0] == sizes[1]


class SavedArrays:
    """Stands in for an index whose arrays ``save_index`` writes as given."""

    def __init__(self, fields):
        self.fields = fields

    def arrays(self):
        return self.fields


def _set_first(value):
    """A change that sets an array's first element to ``value(array, fields)``."""
    def change(a, fields):
        a = a.copy()
        a.flat[0] = value(a, fields)
        return a
    return change


def _set_bit(bit):
    """A change that sets bit ``bit`` of an array of bytes, from the first row's first byte."""
    def change(a, fields):
        a = a.copy()
        a.flat[bit // 8] |= 1 << bit % 8
        return a
    return change


def phi_only_index(k):
    """Six phi rows at three cycles of k bits, and no codeword rows."""
    model = HashModel.create(d=3, k=k, seed=1)
    for cycle in (2, 3):
        model.grow_cycle(cycle)
    index = HashIndex()
    index.insert_many(range(6), np.random.default_rng(4).standard_normal((6, 3)), model)
    return index


def codeword_only_index(k):
    """Four codeword rows of k bits in two cycles, and no phi rows."""
    matrix = new_matrix(k, 2)
    cb = generate(k, 8, seed=2)
    for y in "abcd":
        matrix.observe_label(cb, y)
    index = HashIndex()
    for i, y in enumerate("abcd"):
        index.insert_labeled(i, y, matrix)
    return index


def _populated():
    return populated_index(*trained_bundle())


@pytest.mark.parametrize("build, names, change", [
    (_populated, "is_phi", _set_first(lambda a, f: 2)),
    (_populated, "ids", _set_first(lambda a, f: a[1])),
    (_populated, "label_of", _set_first(lambda a, f: len(f["label_lengths"]))),
    (_populated, "k", lambda v, f: 0),
    (_populated, "cycles", _set_first(lambda a, f: 0)),
    # A slot holds its cycle's k bits from its first bit, the rest clear: bit 12
    # of a 2-byte slot at k=12, and bit 6 of a slot's second word at k=70.
    (lambda: codeword_only_index(12), "cores", _set_bit(12)),
    (lambda: codeword_only_index(70), "cores", _set_bit(70)),
    # 3 cycles of k=24 in 4-byte slots: bit 88 is in the padding byte of the
    # last cycle's slot, past the phi width, and bit 24 in the first one's.
    (lambda: phi_only_index(24), "values", _set_bit(88)),
    (_populated, "features", _set_first(lambda a, f: -np.inf)),
    (lambda: phi_only_index(8), "k", lambda v, f: 0),
    # 24 bits at k=8 to 20.
    (lambda: phi_only_index(8), "phi_width", lambda v, f: v - 4),
    (lambda: phi_only_index(24), "values", _set_bit(24)),
    (lambda: phi_only_index(70), "values", _set_bit(70)),
    # The rows hold 3 slots of their bytes each: one byte more or fewer is refused.
    (lambda: phi_only_index(24), "values", lambda a, f: a[:-1]),
    (_populated, "features", lambda a, f: a[:-1]),
], ids=["flag", "repeated-id", "label-index", "k-zero", "cycle-zero",
        "core-bit-past-k", "core-bit-past-k-in-a-second-word", "phi-bit-past-width",
        "feature-not-finite", "phi-only-k-zero", "phi-width-not-a-multiple-of-k",
        "phi-bit-in-slot-padding", "phi-bit-in-word-padding", "values-short-of-the-slots",
        "features-short-of-the-rows"])
def test_index_rejects_broken_arrays(tmp_path, build, names, change):
    fields = {key: np.array(v) for key, v in build().arrays().items()}
    p = tmp_path / "i.index"
    save_index(SavedArrays(fields), p)
    load_index(p)
    for name in names.split():
        fields[name] = change(fields[name], fields)
    save_index(SavedArrays(fields), p)
    with pytest.raises(FormatError):
        load_index(p)


def test_a_cycle_past_the_models_loads_and_a_query_refuses_it(tmp_path):
    # Format 5 derives the widest column from the cycles, so a raised cycle is
    # no file fault; ranking with a model that lacks the cycle is refused.
    bundle, Xn, labels = trained_bundle()
    fields = {key: np.array(v) for key, v in populated_index(bundle, Xn, labels).arrays().items()}
    fields["cycles"][0] = bundle.model.width // bundle.model.k + 1
    save_index(SavedArrays(fields), tmp_path / "i.index")
    index = load_index(tmp_path / "i.index")
    with pytest.raises(ConsistencyError, match="wider"):
        index.query(bundle.model, Xn[0])


def test_insert_labeled_rejects_a_second_k():
    matrices = []
    for k in (8, 4):
        matrix, cb = new_matrix(k, 2), generate(k, 8, seed=k)
        step(HashModel.create(d=2, k=k, seed=0), matrix, cb, np.ones(2), "a")
        matrices.append(matrix)
    index = HashIndex()
    index.insert_labeled(0, "a", matrices[0])
    with pytest.raises(ConsistencyError):
        index.insert_labeled(1, "a", matrices[1])
    assert len(index) == 1


def test_loaded_index_still_queries_and_updates(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    p = tmp_path / "i.index"
    save_index(index, p)
    loaded = load_index(p)
    want = index.query(bundle.model, Xn[0])
    assert loaded.query(bundle.model, Xn[0]) == want
    report = step(bundle.model, bundle.matrix, bundle.codebook, Xn[22], labels[22])
    assert loaded.apply_model_update(report, bundle.model) == 11 * 8


def test_index_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.index"
    p.write_bytes(b"WRONGMAG" + b"\x00" * 32)
    with pytest.raises(FormatError):
        load_index(p)


def test_index_rejects_truncation(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    p = tmp_path / "i.index"
    save_index(index, p)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError):
        load_index(p)


def test_index_rejects_trailing_bytes(tmp_path):
    bundle, Xn, labels = trained_bundle()
    p = tmp_path / "i.index"
    save_index(populated_index(bundle, Xn, labels), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        load_index(p)


def test_index_byte_overwrites_load_or_raise_format_error(tmp_path):
    bundle, Xn, labels = trained_bundle()
    model = bundle.model
    index = HashIndex()
    index.insert_labeled(0, labels[0], bundle.matrix)
    index.insert_unlabeled(1, Xn[1], model, label=labels[1])
    index.insert_unlabeled(2, Xn[2], model)
    index.insert_labeled(3, labels[3], bundle.matrix)
    index.refresh(model, cycles=[1])
    p = tmp_path / "i.index"
    save_index(index, p)
    blob = p.read_bytes()
    assert len(blob) < 512
    loaded = 0
    for offset in range(len(blob)):
        for value in (0x00, 0xFF, 0x01):
            mutated = bytearray(blob)
            mutated[offset] = value
            p.write_bytes(bytes(mutated))
            try:
                got = load_index(p)
            except FormatError:
                continue
            loaded += 1
            # A cycle raised past the model's loads, and a query refuses the row.
            fields = got.arrays()
            if fields["k"] * int(fields["cycles"].max(initial=0)) > model.width:
                with pytest.raises(ConsistencyError, match="wider"):
                    got.query(model, Xn[5])
                continue
            # An overwritten float may be huge, so the scores may overflow.
            with np.errstate(over="ignore", invalid="ignore"):
                got.query(model, Xn[5])
                got.refresh(model, cycles=[1])
    assert loaded > len(blob)


def feature_table():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((7, 3)).astype(np.float32)
    ids = [10, 11, 12, 13, 14, 15, 16]
    labels = ["0", "5", None, "7", "0", None, "123456"]
    return ids, labels, X


@pytest.mark.parametrize("name", ["t.csv", "t.feat"])
def test_features_roundtrip(tmp_path, name):
    ids, labels, X = feature_table()
    p = tmp_path / name
    write_features(p, ids, labels, X)
    rids, rlabels, rX = read_features(p)
    assert list(rids) == ids
    assert list(rlabels) == labels
    assert rX.dtype == np.float32
    assert np.array_equal(rX, X)


def test_features_csv_labels_can_be_text(tmp_path):
    ids = [1, 2]
    labels = ["cat", None]
    X = np.array([[0.5, 1.25], [2.0, -3.5]], dtype=np.float32)
    p = tmp_path / "t.csv"
    write_features(p, ids, labels, X)
    rids, rlabels, rX = read_features(p)
    assert list(rlabels) == labels
    assert np.array_equal(rX, X)


def test_features_binary_rejects_text_labels(tmp_path):
    with pytest.raises(FormatError):
        write_features(tmp_path / "t.feat", [1], ["cat"], np.zeros((1, 2)))


def test_features_binary_rejects_reserved_label(tmp_path):
    with pytest.raises(FormatError):
        write_features(tmp_path / "t.feat", [1], ["-1"], np.zeros((1, 2)))


def test_features_binary_rejects_out_of_range_label(tmp_path):
    with pytest.raises(FormatError):
        write_features(tmp_path / "t.feat", [1], [str(1 << 40)], np.zeros((1, 2)))


@pytest.mark.parametrize("bad", [-3, 1 << 64])
def test_write_features_binary_rejects_ids_outside_64_bits(tmp_path, bad):
    p = tmp_path / "t.feat"
    with pytest.raises(ValueError, match=f"id {bad} "):
        write_features(p, [1, bad], ["0", "1"], np.zeros((2, 2)))
    assert not p.exists()


def test_features_reject_duplicate_ids(tmp_path):
    with pytest.raises(ValueError):
        write_features(tmp_path / "t.csv", [1, 1], ["0", "1"], np.zeros((2, 2)))
    p = tmp_path / "dup.csv"
    p.write_text("id,label,f0\n1,0,0.5\n1,1,0.25\n")
    with pytest.raises(FormatError):
        read_features(p)


def write_unchecked(path, ids, labels, X):
    """Encode a table as ``write_features`` does, skipping its finiteness check."""
    encode = (storage._write_features_csv if path.suffix == ".csv"
              else storage._write_features_binary)
    encode(path, ids, labels, np.asarray(X, dtype=np.float32))


@pytest.mark.parametrize("name", ["t.csv", "t.feat"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_features_reject_non_finite_values(tmp_path, name, bad):
    ids, labels, X = feature_table()
    X[4, 1] = bad
    p = tmp_path / name
    write_unchecked(p, ids, labels, X)
    with pytest.raises(FormatError, match="row id 14 "):
        read_features(p)


@pytest.mark.parametrize("name", ["t.csv", "t.feat"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e39, -1e300])
def test_write_features_rejects_non_finite_values(tmp_path, name, bad):
    ids, labels, X = feature_table()
    X = X.astype(np.float64)
    X[4, 1] = bad
    p = tmp_path / name
    with pytest.raises(ValueError, match="row id 14 "):
        write_features(p, ids, labels, X)
    assert not p.exists()


def test_features_csv_rejects_values_beyond_float32(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,label,f0\n1,0,0.5\n2,0,1e39\n")
    with pytest.raises(FormatError, match="row id 2 "):
        read_features(p)


def test_features_binary_truncation(tmp_path):
    ids, labels, X = feature_table()
    p = tmp_path / "t.feat"
    write_features(p, ids, labels, X)
    blob = p.read_bytes()
    p.write_bytes(blob[: len(blob) - 2])
    with pytest.raises(FormatError):
        read_features(p)


def test_features_binary_errors_name_the_file(tmp_path):
    ids, labels, X = feature_table()
    p = tmp_path / "t.feat"
    write_features(p, ids, labels, X)
    blob = p.read_bytes()
    for broken in (blob[:-2], blob[:6], blob[:4] + struct.pack("<I", 0) + blob[8:]):
        p.write_bytes(broken)
        with pytest.raises(FormatError) as info:
            read_features(p)
        assert str(info.value).startswith(f"{p}: ")


FLOAT32_EDGES = np.array([
    0x00000000, 0x80000000,  # +0 and -0
    0x00000001, 0x007FFFFF,  # the smallest and the largest subnormal
    0x00800000,  # the smallest normal
    0x7F7FFFFF, 0xFF7FFFFF,  # +-max finite
    0x3F7FFFFF, 0x3F800000, 0x3F800001, 0xBF800000,  # 1.0, its neighbours, -1.0
    0x3DCCCCCD,  # 0.1
], dtype=np.uint32)


@pytest.mark.parametrize("name", ["t.csv", "t.feat"])
def test_features_roundtrip_float32_bits(tmp_path, name):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 1 << 32, size=4096, dtype=np.uint32)
    bits = np.concatenate([FLOAT32_EDGES, bits[np.isfinite(bits.view(np.float32))]])
    bits = bits[: len(bits) // 8 * 8].reshape(-1, 8)
    p = tmp_path / name
    write_features(p, list(range(len(bits))), ["0"] * len(bits), bits.view(np.float32))
    _, _, X = read_features(p)
    assert X.dtype == np.float32
    # view(np.uint32), since array_equal takes -0.0 for 0.0
    assert np.array_equal(X.view(np.uint32), bits)


def test_features_csv_is_written_at_nine_digits(tmp_path):
    p = tmp_path / "t.csv"
    write_features(p, [1, 2], ["0", None], FLOAT32_EDGES[:6].view(np.float32).reshape(2, 3))
    assert p.read_bytes() == (b"id,label,f0,f1,f2\r\n"
                              b"1,0,0,-0,1.40129846e-45\r\n"
                              b"2,,1.17549421e-38,1.17549435e-38,3.40282347e+38\r\n")


def test_features_csv_in_the_17_digit_format_reads_the_same_bits(tmp_path):
    # As written by repr(float(v)) of each float32, before 9 digits were enough.
    p = tmp_path / "t.csv"
    p.write_bytes(b"id,label,f0,f1,f2\r\n"
                  b"1,0,0.10000000149011612,-0.0,3.4028234663852886e+38\r\n"
                  b"2,,1.401298464324817e-45,1.1754942106924411e-38,0.9999999403953552\r\n"
                  b"3,5,1.0000001192092896,-3.4028234663852886e+38,1.1754943508222875e-38\r\n")
    _, _, X = read_features(p)
    assert X.view(np.uint32).tolist() == [[0x3DCCCCCD, 0x80000000, 0x7F7FFFFF],
                                          [0x00000001, 0x007FFFFF, 0x3F7FFFFF],
                                          [0x3F800001, 0xFF7FFFFF, 0x00800000]]


CSV_CASES = {
    "empty-file": (b"", FormatError),
    "bad-header": (b"wrong,header,here\n", FormatError),
    "short-row": (b"id,label,f0,f1\n1,0,0.5\n", FormatError),
    "long-row": (b"id,label,f0\n1,0,0.5,1\n", FormatError),
    "whitespace-line": (b"id,label,f0\n \n1,0,0.5\n", FormatError),
    "bad-id": (b"id,label,f0\nnotanint,0,0.5\n", FormatError),
    "bad-float": (b"id,label,f0\n1,0,notafloat\n", FormatError),
    "header-only": (b"id,label,f0,f1\n", ([], [], np.empty((0, 2), dtype=np.float32))),
    "quoted-labels": (b'id,label,f0\n1,"a,b",0.5\n2,"say ""hi""",1\n3,"two\nlines",2\n'
                      b"4,#tag,-3\n",
                      ([1, 2, 3, 4], ["a,b", 'say "hi"', "two\nlines", "#tag"],
                       np.array([[0.5], [1], [2], [-3]], dtype=np.float32))),
    "crlf-and-blank-lines": (b"id,label,f0\r\n1,0,0.25\r\n\r\n2,,1e-3\r\n",
                             ([1, 2], ["0", None], np.array([[0.25], [1e-3]], dtype=np.float32))),
    "utf8-label": ("id,label,f0\n1,\u00e9t\u00e9,0.5\n".encode(),
                   ([1], ["\u00e9t\u00e9"], np.array([[0.5]], dtype=np.float32))),
}


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_features_csv_cases(tmp_path, case):
    text, expected = CSV_CASES[case]
    p = tmp_path / "t.csv"
    p.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is FormatError:
            with pytest.raises(FormatError):
                read_features(p)
            return
        ids, labels, X = read_features(p)
    assert (ids, labels) == expected[:2]
    assert X.dtype == np.float32 and X.shape == expected[2].shape
    assert np.array_equal(X.view(np.uint32), expected[2].view(np.uint32))


@pytest.mark.parametrize("text, where", [
    (b"id,label,f0\n \n1,0,0.5\n", "line 2: expected 3 fields, found 1"),
    (b"id,label,f0\n1,0,1_0\n", "line 2 (id 1): '1_0' in column 3 is not a number"),
    (b"id,label,f0\n1,0,0.5\n2,0,0.5,7\n", "line 3 (id 2): expected 3 fields, found 4"),
    (b"id,label,f0\n1,0,0.5\nx,0,0.25\n", "line 3: the id 'x' is not an integer"),
    # A quoted label over two lines and a blank line come before the row at fault.
    (b'id,label,f0\n1,"a\nb",0.5\n\n3,,zz\n', "line 5 (id 3): 'zz' in column 3 is not a number"),
])
def test_features_csv_errors_name_the_file_line_and_the_id(tmp_path, text, where):
    p = tmp_path / "t.csv"
    p.write_bytes(text)
    with pytest.raises(FormatError) as info:
        read_features(p)
    assert str(info.value) == f"{p}: {where}"


def test_features_csv_that_is_not_utf8_is_a_format_error_naming_the_file(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("id,label,f0\n1,\u00e9t\u00e9,0.5\n".encode("latin-1"))
    with pytest.raises(FormatError, match="latin1.csv: .*utf-8"):
        read_features(p)


def test_features_csv_byte_overwrites_load_or_raise_format_error(tmp_path):
    p = tmp_path / "t.csv"
    write_features(p, [1, 2, 3], ["a,b", None, "7"],
                   np.array([[0.5, -1.25], [3.0, 0.1], [-0.0, 2e-5]], dtype=np.float32))
    blob = p.read_bytes()
    assert len(blob) < 128
    loaded = 0
    for offset in range(len(blob)):
        for value in b'\x00\xff,\n" 1':
            mutated = bytearray(blob)
            mutated[offset] = value
            p.write_bytes(bytes(mutated))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    ids, labels, X = read_features(p)
                except FormatError:
                    continue
            loaded += 1
            assert len(ids) == len(labels) == X.shape[0] and X.dtype == np.float32
    assert loaded > len(blob)


def test_feature_format_sniffing(tmp_path):
    ids, labels, X = feature_table()
    # binary payload under a non-csv suffix is recognized by magic
    p = tmp_path / "table.dat"
    write_features(p, ids, labels, X, fmt="binary")
    rids, _, _ = read_features(p)
    assert list(rids) == ids
    # csv payload likewise falls back on content, not suffix
    p2 = tmp_path / "table2.dat"
    write_features(p2, ids, labels, X, fmt="csv")
    rids2, _, rX2 = read_features(p2)
    assert list(rids2) == ids
    assert np.array_equal(rX2, X)
