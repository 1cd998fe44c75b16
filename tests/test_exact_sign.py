"""Exact-sign scoring: every phi bit is the sign of the exact real dot product.

Points on hyperplanes, zero vectors and duplicate points are where a
floating-point score can take either sign, depending on the order in which
it was summed. The references here are a ``Fraction`` sum, so they hold
whatever BLAS does.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from ecochash.codebook import generate
from ecochash.ecoc import new_matrix
from ecochash.errors import DimensionError, DuplicateIdError
from ecochash.index import HashIndex
from ecochash.learner import (HashModel, augment_rows, exact_signs, phi,
                              predict_bit, step)
from ecochash.storage import ModelBundle, load_index, load_model, save_index, save_model

D, K = 6, 8


def oracle(W, Xa) -> np.ndarray:
    """Signs of the exact dot products, sgn(0) = +1, by Fraction sums."""
    return np.array([[sum(Fraction(a) * Fraction(b) for a, b in zip(w, xa)) >= 0
                      for w in np.asarray(W).tolist()] for xa in np.asarray(Xa).tolist()],
                    dtype=bool).reshape(len(Xa), len(W))


def on_hyperplanes(W, X, rng):
    """Rows of X moved onto the hyperplanes of random rows of W, in floating point.

    The exact score of such a point is a rounding error away from zero, so a
    computed score may have either sign.
    """
    out = []
    for x in X:
        w = W[rng.integers(len(W))]
        out.append(x - (w[:-1] @ x + w[-1]) / (w[:-1] @ w[:-1]) * w[:-1])
    return np.array(out)


def hard_points(W, rng, n=24):
    """Points on hyperplanes, duplicates of them, zero vectors and random points."""
    d = W.shape[1] - 1
    X = on_hyperplanes(W, rng.standard_normal((n, d)), rng)
    return np.vstack([X, X[:4], np.zeros((2, d)), rng.standard_normal((4, d))])


def trained_model(seed=0, steps=80, n_labels=6):
    """A model trained on a short stream (rho=2 opens three cycles), and its stream."""
    rng = np.random.default_rng(seed)
    matrix, cb = new_matrix(K, 2), generate(K, 64, seed=seed)
    model = HashModel.create(d=D, k=K, seed=seed)
    centers = 3.0 * rng.standard_normal((n_labels, D))
    stream = [(centers[i % n_labels] + 0.3 * rng.standard_normal(D), f"c{i % n_labels}")
              for i in range(steps)]
    return matrix, cb, model, stream


def layouts(a):
    """C-ordered, Fortran-ordered and transposed-back copies of a matrix."""
    return [np.ascontiguousarray(a), np.asfortranarray(a), np.ascontiguousarray(a.T).T]


def test_kernel_matches_the_fraction_oracle_in_every_layout():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((12, D + 1))
    W[0] = [1.0, -1.0, 0, 0, 0, 0, 0.0]  # exactly 0 on x0 == x1
    W[1] = [1e16, -1.0, -1e16, 0, 0, 0, 0.0]  # a left-to-right sum reads 0, the truth is -1
    X = hard_points(W, rng)
    X[-1] = [1.0, 1.0, 1.0, 0, 0, 0]
    X[-2] = [2.5, 2.5, 0, 0, 0, 0]
    Xa = augment_rows(X, D)
    want = oracle(W, Xa)
    assert not want[-1, 1] and want[-2, 0]
    for w in layouts(W):
        for xa in layouts(Xa):
            assert np.array_equal(exact_signs(w, xa), want)


@pytest.mark.parametrize("scale", [5e-324, 1e-300, 1e-160, 1e-140, 1e140, 1e150, 1e300])
def test_kernel_is_exact_where_products_over_or_underflow(scale):
    rng = np.random.default_rng(2)
    W = rng.standard_normal((5, D + 1))
    X = hard_points(W, rng, n=6) * scale
    Xa = augment_rows(X, D)
    for w in (W, W * scale):
        assert np.array_equal(exact_signs(w, Xa), oracle(w, Xa))


def test_kernel_refuses_non_finite_values():
    W = np.ones((3, D + 1))
    Xa = augment_rows(np.zeros((4, D)), D)
    for bad in (np.nan, np.inf, -np.inf):
        X = Xa.copy()
        X[2, 1] = bad
        with pytest.raises(ValueError, match="row 2 "):
            exact_signs(W, X)
        with pytest.raises(ValueError, match="weight"):
            exact_signs(np.where(np.eye(3, D + 1) > 0, bad, W), Xa)


def test_phi_and_predict_bit_follow_the_oracle():
    _, _, model, _ = trained_model()
    rng = np.random.default_rng(3)
    X = hard_points(model.weights, rng)
    want = oracle(model.weights, augment_rows(X, D))
    for x, bits in zip(X, want):
        code = phi(model, x)
        assert [code.bit(t) > 0 for t in range(model.width)] == bits.tolist()
        assert predict_bit(model.weights[0], x) == (1 if bits[0] else -1)
    with pytest.raises(ValueError, match="NaN"):
        phi(model, np.full(D, np.nan))


def codes(index):
    return [e.code.values.bits for e in index.entries]


@pytest.mark.parametrize("seed", range(4))
def test_eager_batched_and_reinsert_reach_the_same_codes(seed):
    """Hard points join at random times; every maintenance path ends at phi's bits."""
    matrix, cb, model, stream = trained_model(seed)
    final = HashModel.create(d=D, k=K, seed=seed)
    scratch_matrix, scratch_cb = new_matrix(K, 2), generate(K, 64, seed=seed)
    for x, y in stream:
        step(final, scratch_matrix, scratch_cb, x, y)
    # Hard for the final weights, which every path has to end at.
    rng = np.random.default_rng([seed, 5])
    X = hard_points(final.weights, rng)
    order = rng.permutation(len(X))
    joins = np.sort(rng.integers(0, len(stream) + 1, size=len(X)))
    eager, batched = HashIndex(), HashIndex()
    dirty, placed = set(), 0
    for it, (x, y) in enumerate(stream + [(None, None)]):
        while placed < len(X) and joins[placed] == it:
            i = int(order[placed])
            eager.insert_unlabeled(i, X[i], model)
            batched.insert_many([i], X[i:i + 1], model)
            placed += 1
        if x is None:
            break
        report = step(model, matrix, cb, x, y)
        eager.apply_model_update(report, model)
        dirty.add(matrix.cycle_of_label[y])
        if it % 7 == 6:
            batched.refresh(model, cycles=sorted(dirty))
            dirty.clear()
    batched.refresh(model, cycles=sorted(dirty))
    assert np.array_equal(model.weights, final.weights)
    reinserted, one_by_one = HashIndex(), HashIndex()
    ids = [int(i) for i in order]
    reinserted.insert_many(ids, X[order], model)
    for i in ids:
        one_by_one.insert_unlabeled(i, X[i], model)
    want = oracle(model.weights, augment_rows(X[order], D))
    want_codes = [int.from_bytes(np.packbits(b, bitorder="little").tobytes(), "little")
                  for b in want]
    assert codes(eager) == codes(batched) == codes(reinserted) == codes(one_by_one) == want_codes
    assert [phi(model, X[i]).bits for i in ids] == want_codes


def test_insert_many_equals_insert_unlabeled_row_by_row_behind_new_cycles():
    matrix, cb, model, stream = trained_model(steps=40)
    for x, y in stream[:2]:
        step(model, matrix, cb, x, y)
    rng = np.random.default_rng(6)
    X = hard_points(model.weights, rng, n=10)
    labels = [f"y{i % 3}" if i % 4 else None for i in range(len(X))]
    bulk, rows = HashIndex(), HashIndex()
    bulk.insert_many(range(5), X[:5], model, labels[:5])
    for i in range(5):
        rows.insert_unlabeled(i, X[i], model, label=labels[i])
    width = model.width
    for x, y in stream[2:]:
        step(model, matrix, cb, x, y)
    assert model.width > width
    # The phi block is behind the model's new cycles: rows go in at its width.
    bulk.insert_many(range(5, len(X)), X[5:], model, labels[5:])
    for i in range(5, len(X)):
        rows.insert_unlabeled(i, X[i], model, label=labels[i])
    assert snapshot(bulk) == snapshot(rows)
    assert bulk.refresh(model) == rows.refresh(model)
    assert codes(bulk) == codes(rows)
    assert bulk.labels == rows.labels == labels


def snapshot(index):
    return {name: np.array(v).tolist() for name, v in index.arrays().items()}


@pytest.mark.parametrize("case", ["duplicate in batch", "already indexed", "id out of range",
                                  "wrong dimension", "nan", "inf", "label count"])
def test_a_bad_batch_leaves_the_index_unchanged(case):
    _, _, model, _ = trained_model(steps=0)
    rng = np.random.default_rng(7)
    index = HashIndex()
    index.insert_many([10, 11], rng.standard_normal((2, D)), model, ["a", None])
    before = snapshot(index)
    ids, X, labels = [1, 2, 3], rng.standard_normal((3, D)), None
    error = ValueError
    if case == "duplicate in batch":
        ids, error = [1, 2, 1], DuplicateIdError
    elif case == "already indexed":
        ids, error = [1, 11, 3], DuplicateIdError
    elif case == "id out of range":
        ids = [1, 2, 1 << 64]
    elif case == "wrong dimension":
        X, error = rng.standard_normal((3, D + 1)), DimensionError
    elif case in ("nan", "inf"):
        X[1, 2] = np.nan if case == "nan" else -np.inf
    else:
        labels = ["a"]
    with pytest.raises(error) as info:
        index.insert_many(ids, X, model, labels)
    if case in ("nan", "inf"):
        assert "row id 2 " in str(info.value)
    assert snapshot(index) == before
    assert len(index) == 2 and index.phi_count == 2
    index.insert_many([1, 2, 3], rng.standard_normal((3, D)), model)
    assert len(index) == 5


def test_non_finite_rows_are_refused_by_insert_unlabeled_and_queries():
    _, _, model, _ = trained_model(steps=10)
    index = HashIndex()
    with pytest.raises(ValueError, match="row id 7 has a feature that is NaN or infinite"):
        index.insert_unlabeled(7, np.array([0.0, np.nan, 0, 0, 0, 0]), model)
    assert len(index) == 0
    index.insert_unlabeled(7, np.zeros(D), model)
    with pytest.raises(ValueError, match="query row 0 "):
        index.query(model, np.full(D, np.inf))
    queries = np.zeros((3, D))
    queries[2, 0] = np.nan
    with pytest.raises(ValueError, match="query row 2 "):
        list(index.query_many(model, queries))


def test_the_weights_are_read_only():
    matrix, cb, model, stream = trained_model(steps=3)
    source = model.weights.copy()
    owner = HashModel(d=D, k=K, weights=source)
    source[0, 0] += 1.0
    assert owner.weights[0, 0] != source[0, 0]
    for x, y in stream:
        step(model, matrix, cb, x, y)
    assert model.width > K
    for write in (lambda w: w.__setitem__((0, 0), 1.0), lambda w: w.__iadd__(1.0),
                  lambda w: np.subtract(w, 1.0, out=w)):
        with pytest.raises(ValueError, match="read-only"):
            write(model.weights)
    with pytest.raises(ValueError):
        model.weights.flags.writeable = True
    with pytest.raises(AttributeError):
        model.weights = source


def test_a_copied_or_unpickled_model_shows_its_own_steps():
    model = HashModel.create(d=D, k=K, seed=0)
    for twin in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin == model
        # Every margin of a fresh cycle at x = 0 is violated, so every bias moves by 1.
        step(twin, new_matrix(K, 2), generate(K, 64, seed=0), np.zeros(D), "a")
        assert np.array_equal(np.abs(twin.weights[:, -1]), np.ones(K))
        assert not twin.weights.flags.writeable
    assert not model.weights[:, -1].any()


def exact_sq_norm(W) -> Fraction:
    return sum(Fraction(v) ** 2 for v in np.asarray(W).ravel().tolist())


@pytest.mark.parametrize("seed", range(4))
def test_the_kept_bound_covers_the_exact_norm_after_any_interleaving(seed, tmp_path):
    """Steps (some opening cycles), saves and loads in a random order, with the bound
    read after each; it must bound, and stay within rounding of, the exact norm."""
    rng = np.random.default_rng([seed, 8])
    matrix, cb, model, _ = trained_model(seed, steps=0)
    bundle = ModelBundle(k=K, rho=2, eta=2.0, seed=seed, codebook=cb, matrix=matrix,
                         model=model)
    path = tmp_path / "m.model"
    for _ in range(60):
        op = rng.integers(4)
        if op == 3:
            save_model(bundle, path)
            bundle = load_model(path)
        else:
            x = 4.0 * rng.standard_normal(D)
            step(bundle.model, bundle.matrix, bundle.codebook, x,
                 f"c{rng.integers(3 + 3 * op)}", eta=2.0)
        exact = exact_sq_norm(bundle.model.weights)
        bound = Fraction(bundle.model.sq_norm_bound)
        assert exact <= bound <= exact * (1 + Fraction(1, 10 ** 9))
    assert bundle.matrix.m >= 3
    model = bundle.model
    model.grow_cycles((bundle.matrix.m + 1,))
    assert exact_sq_norm(model.weights) <= Fraction(model.sq_norm_bound)


def exact_feature_sq_norm(index) -> Fraction:
    """The exact squared norm of the phi rows' [x; 1]: the features plus a 1 per row."""
    return exact_sq_norm(index.arrays()["features"]) + index.phi_count


@pytest.mark.parametrize("seed", range(4))
def test_the_kept_feature_bound_covers_the_exact_norm_after_any_interleaving(seed, tmp_path):
    """Inserts of one row or a batch, refused batches, eager updates, refreshes, saves
    and loads in a random order, with the index's feature bound read after each; it
    must bound, and stay within rounding of, the exact norm of the feature block."""
    rng = np.random.default_rng([seed, 9])
    matrix, cb, model, _ = trained_model(seed, steps=0)
    step(model, matrix, cb, rng.standard_normal(D), "c0")
    index, path, ids = HashIndex(), tmp_path / "i.index", iter(range(10 ** 6))
    for _ in range(60):
        op = rng.integers(6)
        scale = 10.0 ** rng.integers(-3, 4)
        if op == 0:
            index.insert_unlabeled(next(ids), scale * rng.standard_normal(D), model)
        elif op == 1:
            n = int(rng.integers(1, 5))
            index.insert_many([next(ids) for _ in range(n)],
                              scale * rng.standard_normal((n, D)), model)
        elif op == 2:
            # Its rows are staged past the last phi row before exact_signs refuses them.
            X = scale * rng.standard_normal((3, D))
            X[2, 0] = np.inf
            before = index.phi_count
            with pytest.raises(ValueError, match="NaN or infinite"):
                index.insert_many([next(ids) for _ in range(3)], X, model)
            assert index.phi_count == before
        elif op == 3:
            report = step(model, matrix, cb, rng.standard_normal(D), f"c{rng.integers(6)}")
            index.apply_model_update(report, model)
        elif op == 4:
            report = step(model, matrix, cb, rng.standard_normal(D), f"c{rng.integers(6)}")
            index.refresh(model, cycles=[matrix.cycle_of_label[report.label]])
        else:
            save_index(index, path)
            index = load_index(path)
        exact = exact_feature_sq_norm(index)
        bound = Fraction(index.feature_sq_norm_bound)
        assert exact <= bound <= exact * (1 + Fraction(1, 10 ** 9))
    assert index.phi_count > 0 and matrix.m >= 2


def test_a_row_inserted_after_a_refresh_is_refreshed_against_a_fresh_bound():
    """A feature bound kept from before the insert would let the screen certify the
    rounded signs of a large row on hyperplanes, which may be wrong."""
    matrix, cb, model, stream = trained_model(steps=12)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    rng = np.random.default_rng(10)
    index = HashIndex()
    index.insert_many(range(8), rng.standard_normal((8, D)), model)
    index.refresh(model, cycles=[1])  # reads, and keeps, the bound of these eight rows
    X = on_hyperplanes(model.weights[:K], 1e150 * rng.standard_normal((16, D)), rng)
    index.insert_many(range(8, 24), X, model)
    index.refresh(model, cycles=[1])
    want = oracle(model.weights, augment_rows(X, D))
    assert codes(index)[8:] == [int.from_bytes(np.packbits(b, bitorder="little").tobytes(),
                                               "little") for b in want]
    assert exact_feature_sq_norm(index) <= Fraction(index.feature_sq_norm_bound)


def test_the_feature_bound_stays_a_bound_over_many_small_inserts(tmp_path):
    """One row with ||[x; 1]||^2 near 2^54, where a float's spacing is 4, then 1,000
    one-row inserts of [0; 1], whose bounds of about 1 a float sum would round away:
    a plain running sum ends about 960 below the exact norm."""
    model = HashModel.create(d=4, k=K, seed=3)
    index = HashIndex()
    index.insert_unlabeled(0, np.array([2.0 ** 27, 3.0, -5.0, 0.5]), model)
    for i in range(1, 1001):
        index.insert_unlabeled(i, np.zeros(4), model)

    def covered():
        exact = exact_feature_sq_norm(index)
        bound = Fraction(index.feature_sq_norm_bound)
        return exact <= bound <= exact * (1 + Fraction(1, 10 ** 9))

    assert covered()
    assert [d for _, d in index.query(model, np.zeros(4), top_n=2)] == [0, 0]  # settles
    assert covered()
    index.refresh(model, cycles=[1])
    assert covered()
    save_index(index, tmp_path / "i.index")
    index = load_index(tmp_path / "i.index")
    assert covered() and index.phi_count == 1001
    want = oracle(model.weights, augment_rows(index.arrays()["features"], 4))
    assert codes(index) == [int.from_bytes(np.packbits(b, bitorder="little").tobytes(),
                                           "little") for b in want]


def test_an_overflowed_weight_is_refused_whatever_bound_was_kept():
    matrix, cb = new_matrix(1, 1), generate(1, 1, seed=0)
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    x = np.array([1.0, 0.0])
    index = HashIndex()
    index.insert_unlabeled(0, x, model)
    assert phi(model, x).bits == 1  # the bound of the zero weights is now kept
    with np.errstate(over="ignore"):
        step(model, matrix, cb, np.array([1e300, 0.0]), "a", eta=1e300)
    assert np.isinf(model.weights).any()
    before = snapshot(index)
    for call in (lambda: phi(model, x), lambda: index.query(model, x),
                 lambda: index.insert_unlabeled(1, x, model)):
        with pytest.raises(ValueError, match="a hash function's weight is NaN or infinite"):
            call()
    assert snapshot(index) == before
