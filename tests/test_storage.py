"""Round trips and corruption handling for the on-disk formats."""

import hashlib
import struct

import numpy as np
import pytest

from ecochash.codebook import generate
from ecochash.ecoc import new_matrix
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
    assert a.codebook.pool == b.codebook.pool
    assert (a.codebook.rng_seed, a.codebook.draws_made) \
        == (b.codebook.rng_seed, b.codebook.draws_made)
    assert a.matrix.cores == b.matrix.cores
    assert a.matrix.cycle_of_label == b.matrix.cycle_of_label
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


def test_model_rejects_another_normalizer_tag(tmp_path):
    bundle, _, _ = trained_bundle()
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = p.read_bytes()
    # The file ends with the normalizer: u8 1, the text "l2", u64 count, d means.
    tail = 1 + 4 + 2 + 8 + 8 * bundle.model.d
    assert blob[-tail:-tail + 7] == b"\x01\x02\x00\x00\x00l2"
    for tag in (b"L2", b"z1"):
        p.write_bytes(blob[:-tail + 5] + tag + blob[-tail + 7:])
        with pytest.raises(FormatError):
            load_model(p)


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), -1.0])
def test_model_rejects_eta_that_is_negative_or_not_finite(tmp_path, eta):
    bundle, _, _ = trained_bundle(steps=5)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    blob = bytearray(p.read_bytes())
    # magic, version, k, rho and d come before the f64 eta.
    assert struct.unpack_from("<d", blob, 24)[0] == bundle.eta
    struct.pack_into("<d", blob, 24, eta)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(p)


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
    assert loaded.matrix.cores == matrix.cores


@pytest.mark.parametrize("case", ["repeated code", "assigned core"])
def test_model_rejects_a_pool_no_draws_could_leave(tmp_path, case):
    # Every draw removes its code, so such a pool would later hand two labels
    # one core: a file that loads, trains and saves, then fails to reload.
    bundle, _, _ = trained_bundle(steps=5)
    pool = bundle.codebook.pool
    pool.append(pool[0] if case == "repeated code" else next(iter(bundle.matrix.cores.values())))
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
            fresh = ["fresh"] if got.codebook.pool else []
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
# version 2.
POPULATED_INDEX_SHA256 = "db19ea968c6c9602e61ee5b2253b4761a6ac661353a5141bdf28d338cd606d3f"


def test_index_bytes_are_pinned(tmp_path):
    bundle, Xn, labels = trained_bundle()
    index = populated_index(bundle, Xn, labels)
    report = step(bundle.model, bundle.matrix, bundle.codebook, Xn[21], labels[21])
    index.apply_model_update(report, bundle.model)
    p = tmp_path / "i.index"
    save_index(index, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == POPULATED_INDEX_SHA256


def test_index_version_1_is_refused(tmp_path):
    # An empty version-1 index: no rows, the ledger's totals and an empty
    # per-step history section.
    p = tmp_path / "old.index"
    p.write_bytes(storage.INDEX_MAGIC + struct.pack("<IIQQQQ", 1, 0, 0, 0, 0, 0))
    with pytest.raises(FormatError, match="unsupported index version 1.*ecochash index"):
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


@pytest.mark.parametrize("name, change", [
    ("is_phi", _set_first(lambda a, f: 2)),
    ("ids", _set_first(lambda a, f: a[1])),
    ("label_of", _set_first(lambda a, f: len(f["label_lengths"]))),
    ("k", lambda v, f: 0),
    ("cycles", _set_first(lambda a, f: 0)),
    ("widths", _set_first(lambda a, f: f["cycles"][0] * f["k"] - 1)),
    ("cores", _set_first(lambda a, f: int(a.flat[0]) | 1 << int(f["k"]))),
    ("values", _set_first(lambda a, f: int(a.flat[0]) | 1 << int(f["phi_width"]))),
    ("widest", lambda v, f: v + 1),
], ids=["flag", "repeated-id", "label-index", "k-zero", "cycle-zero", "width-below-cycle-k",
        "core-bit-past-k", "phi-bit-past-width", "widest"])
def test_index_rejects_broken_arrays(tmp_path, name, change):
    bundle, Xn, labels = trained_bundle()
    fields = {key: np.array(v) for key, v in
              populated_index(bundle, Xn, labels).arrays().items()}
    p = tmp_path / "i.index"
    save_index(SavedArrays(fields), p)
    load_index(p)
    fields[name] = change(fields[name], fields)
    save_index(SavedArrays(fields), p)
    with pytest.raises(FormatError):
        load_index(p)


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


def test_features_csv_error_cases(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("wrong,header,here\n")
    with pytest.raises(FormatError):
        read_features(p)
    p.write_text("id,label,f0\nnotanint,0,0.5\n")
    with pytest.raises(FormatError):
        read_features(p)
    p.write_text("id,label,f0\n1,0,notafloat\n")
    with pytest.raises(FormatError):
        read_features(p)
    p.write_text("id,label,f0,f1\n1,0,0.5\n")
    with pytest.raises(FormatError):
        read_features(p)


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
