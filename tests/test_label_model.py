"""The label model as word and sign blocks: no per-code objects, blocks equal to the reference."""

import copy
import pickle

import numpy as np
import pytest

from ecochash.bitcode import PackedCode
from ecochash.codebook import generate, recommended_rho
from ecochash.ecoc import new_matrix
from ecochash.learner import HashModel, step
from ecochash.storage import ModelBundle, load_model, save_model


def trained(k, rho, capacity, d, labels, seed=0):
    """A bundle after one step per label, in order."""
    rng = np.random.default_rng(seed)
    cb, matrix = generate(k, capacity, seed=seed), new_matrix(k, rho)
    model = HashModel.create(d, k, seed=seed)
    for y in labels:
        step(model, matrix, cb, rng.standard_normal(d), y)
    return ModelBundle(k=k, rho=rho, eta=1.0, seed=seed, codebook=cb, matrix=matrix,
                       model=model)


def test_loading_and_training_build_no_per_code_object(tmp_path, monkeypatch):
    # The benchmark's CLI pipeline size: 974 pool codes and 50 labels at k=32, d=64.
    k = 32
    bundle = trained(k, recommended_rho(k), 1024, 64, [f"c{i}" for i in range(50)])
    assert (len(bundle.codebook), len(bundle.matrix), bundle.matrix.m) == (974, 50, 3)
    built = []
    init = PackedCode.__post_init__
    monkeypatch.setattr(PackedCode, "__post_init__", lambda self: built.append(init(self)))
    p = tmp_path / "m.model"
    save_model(bundle, p)
    loaded = load_model(p)
    assert loaded == bundle
    rng = np.random.default_rng(1)
    # 60 new labels: 10 finish cycle 3, then cycles 4, 5 and 6 open.
    for i in range(60):
        step(loaded.model, loaded.matrix, loaded.codebook, rng.standard_normal(64), f"n{i}")
    assert loaded.matrix.m == 6
    save_model(loaded, p)
    assert built == []


def assert_blocks_match_reference(matrix):
    k = matrix.k
    assert matrix.cores.shape == (len(matrix), -(-k // 64))
    assert matrix.signs.shape == (len(matrix), k)
    for y in matrix.labels:
        cw = matrix.find(y)
        cycle, words = matrix.locate(y)
        assert cycle == matrix.cycle_of_label[y] == matrix.rows[y] // matrix.rho + 1
        assert np.array_equal(matrix.signs[matrix.rows[y]], cw.active_values())
        assert int.from_bytes(words.tobytes(), "little") == cw.values.bits >> (cycle - 1) * k


@pytest.mark.parametrize("seed", range(12))
def test_blocks_equal_the_reference_codewords_through_growth_and_reload(tmp_path, seed):
    # k=70 takes two words per core. Blocks grow 1, 2, 4, 8, 16 rows, and a
    # loaded block, exactly full, doubles on its next label.
    k, rho, d = 70, 3, 2
    labels = [f"y{i}" for i in range(17)]
    bundle = trained(k, rho, 64, d, labels[:5], seed)
    assert_blocks_match_reference(bundle.matrix)
    rng = np.random.default_rng(seed)
    for y in labels[5:11]:
        step(bundle.model, bundle.matrix, bundle.codebook, rng.standard_normal(d), y)
    assert_blocks_match_reference(bundle.matrix)
    p = tmp_path / "m.model"
    save_model(bundle, p)
    loaded = load_model(p)
    assert loaded == bundle
    assert_blocks_match_reference(loaded.matrix)
    for b in (bundle, loaded):
        for y in labels[11:]:
            step(b.model, b.matrix, b.codebook, np.ones(d), y)
        assert_blocks_match_reference(b.matrix)
    assert loaded == bundle


def test_a_copied_or_unpickled_matrix_owns_its_blocks():
    bundle = trained(8, 2, 32, 2, list("abcde"))
    matrix, cb = bundle.matrix, bundle.codebook
    for twin in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
        assert twin == matrix
        assert not (twin.cores.flags.writeable or twin.signs.flags.writeable)
        twin.observe_label(cb, "new")
        assert_blocks_match_reference(twin)
        assert "new" not in matrix.cycle_of_label and len(matrix.cores) == 5
