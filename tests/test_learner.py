"""SGD steps, the margin surrogate, and its sparse gradient."""

import copy
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecochash.bitcode import TernaryCodeword, hamming_masked, pack, ternary, unpack
from ecochash.codebook import Codebook, generate
from ecochash.ecoc import EcocMatrix, new_matrix
from ecochash.errors import CodebookExhaustedError, ConsistencyError, DimensionError
from ecochash.learner import (FeatureNormalizer, HashModel, _descend, augment, augment_rows,
                              exact_signs, gradient, init_functions, phi, step, step_many,
                              surrogate_loss)
from ecochash.bitcode import PackedCode
from ecochash.index import HashIndex
from ecochash.storage import ModelBundle, load_model, save_model

finite_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def random_codeword(rng, width, n_active):
    entries = [0] * width
    for t in rng.choice(width, size=n_active, replace=False):
        entries[t] = int(rng.choice([-1, 1]))
    return ternary(entries)


def test_init_deterministic():
    a = init_functions(5, 3, seed=[2, 1])
    b = init_functions(5, 3, seed=[2, 1])
    assert np.array_equal(a, b)
    assert a.shape == (3, 6)


def test_init_zero_count():
    assert init_functions(5, 0, seed=0).shape == (0, 6)


def test_init_moments():
    w = init_functions(9, 1000, seed=4)
    assert np.all(w[:, -1] == 0.0)
    body = w[:, :-1].ravel()
    assert body.std() == pytest.approx(1 / np.sqrt(10), rel=0.05)
    assert abs(body.mean()) < 0.02


def one_row_bit(w, x):
    """Bit 0 of phi for a one-function model of weights ``w``, checked against
    ``exact_signs`` on the one-row block [x; 1], as +1 or -1."""
    model = HashModel(d=len(x), k=1, weights=np.reshape(w, (1, -1)))
    sign = exact_signs(model.weights, augment_rows(np.reshape(x, (1, -1)), len(x)))
    bit = phi(model, x).bit(0)
    assert sign.shape == (1, 1) and bit == (1 if sign[0, 0] else -1)
    return bit


def test_one_row_sign_examples():
    x = np.array([1.0, 2.0])
    assert one_row_bit(np.array([1.0, 0.0, 0.0]), x) == 1
    assert one_row_bit(np.array([-1.0, 0.0, 0.0]), x) == -1
    # zero score lands on +1
    assert one_row_bit(np.zeros(3), x) == 1
    # bias term is the last weight
    assert one_row_bit(np.array([0.0, 0.0, -0.5]), x) == -1


@given(st.lists(finite_floats, min_size=1, max_size=8), st.data())
def test_one_row_sign_matches_dot_oracle(xs, data):
    ws = data.draw(st.lists(finite_floats, min_size=len(xs) + 1, max_size=len(xs) + 1))
    x = np.array(xs)
    w = np.array(ws)
    # The exact real dot product: a float sum can round an underflowing
    # product to zero (w = [-5e-324, 0], x = [0.5] reads +1 there, not -1).
    dot = sum(Fraction(wi) * Fraction(xi) for wi, xi in zip(ws, xs + [1.0]))
    assert one_row_bit(w, x) == (1 if dot >= 0 else -1)


def test_phi_dimension_error():
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        phi(model, np.zeros(3))
    with pytest.raises(DimensionError):
        augment_rows(np.zeros((1, 3)), 2)


def test_phi_zero_width():
    model = HashModel(d=4, k=2, weights=np.empty((0, 5)))
    assert phi(model, np.zeros(4)).length == 0


def test_phi_matches_per_bit_oracle():
    rng = np.random.default_rng(0)
    model = HashModel.create(d=6, k=4, seed=3)
    model.grow_cycles((2,))
    model.grow_cycles((3,))
    for _ in range(20):
        x = rng.standard_normal(6)
        code = phi(model, x)
        assert code.length == 12
        # Each bit on its own: exact_signs of one function on the one-row block.
        xa = augment_rows(x.reshape(1, -1), 6)
        assert unpack(code) == [1 if exact_signs(model.weights[t:t + 1], xa)[0, 0] else -1
                                for t in range(12)]


def test_surrogate_zero_when_margins_met():
    # rows w_t = 2 c_t xh / |xh|^2 give z = -c s = -2 on active columns
    x = np.array([0.5, -1.0, 2.0])
    xh = augment(x)
    cvals = [1, -1, 1, -1]
    w = np.array([2 * c * xh / (xh @ xh) for c in cvals])
    model = HashModel(d=3, k=4, weights=w)
    cw = ternary(cvals)
    assert surrogate_loss(model, x, cw) == 0.0


def test_surrogate_single_active_at_decision_boundary():
    # w . xh = 0 on the active column gives hinge value exactly 1
    x = np.array([1.0, 1.0])
    w = np.array([[1.0, -1.0, 0.0], [5.0, 5.0, 5.0]])
    model = HashModel(d=2, k=2, weights=w)
    cw = ternary([1, 0])
    assert surrogate_loss(model, x, cw) == pytest.approx(1.0)


def test_surrogate_upper_bounds_masked_distance():
    rng = np.random.default_rng(8)
    for _ in range(200):
        width = int(rng.integers(1, 10))
        model = HashModel(d=4, k=width,
                          weights=init_functions(4, width, seed=int(rng.integers(1 << 30))))
        x = rng.standard_normal(4)
        cw = random_codeword(rng, width, int(rng.integers(0, width + 1)))
        assert surrogate_loss(model, x, cw) >= hamming_masked(phi(model, x), cw) - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
       st.lists(finite_floats, min_size=3, max_size=3), st.integers(0, 10_000))
def test_surrogate_bound_property(value_bits, mask_bits, xs, wseed):
    width = 16
    value_bits &= mask_bits
    cw = TernaryCodeword(width, PackedCode(width, value_bits), PackedCode(width, mask_bits))
    model = HashModel(d=3, k=width, weights=init_functions(3, width, seed=wseed))
    x = np.array(xs)
    assert surrogate_loss(model, x, cw) >= hamming_masked(phi(model, x), cw) - 1e-12


def test_gradient_empty_when_satisfied():
    x = np.array([0.5, -1.0, 2.0])
    xh = augment(x)
    cvals = [1, -1]
    w = np.array([2 * c * xh / (xh @ xh) for c in cvals])
    model = HashModel(d=3, k=2, weights=w)
    assert gradient(model, x, ternary(cvals)) == {}


def test_gradient_skips_inactive_columns():
    model = HashModel.create(d=3, k=4, seed=0)
    x = np.ones(3)
    g = gradient(model, x, ternary([1, 0, -1, 0]))
    assert set(g) <= {0, 2}


def test_gradient_violated_column_value():
    # active column with w = 0: z = -c*0 = 0 > -1, slope 1, gradient -c xh
    x = np.array([2.0, -3.0])
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    g = gradient(model, x, ternary([1]))
    assert set(g) == {0}
    assert np.allclose(g[0], -augment(x))
    g = gradient(model, x, ternary([-1]))
    assert np.allclose(g[0], augment(x))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    checked = 0
    while checked < 50:
        model = HashModel(d=4, k=5,
                          weights=init_functions(4, 5, seed=int(rng.integers(1 << 30))))
        x = rng.standard_normal(4)
        cw = random_codeword(rng, 5, 3)
        # stay away from the hinge kink where the derivative jumps
        z = -cw.active_values() * (model.weights[cw.active_positions()] @ augment(x))
        if np.any(np.abs(z + 1.0) < 1e-3):
            continue
        g = gradient(model, x, cw)
        t = int(rng.choice(cw.active_positions()))
        i = int(rng.integers(model.d + 1))
        w_plus = model.weights.copy()
        w_plus[t, i] += h
        w_minus = model.weights.copy()
        w_minus[t, i] -= h
        fd = (surrogate_loss(HashModel(d=4, k=5, weights=w_plus), x, cw)
              - surrogate_loss(HashModel(d=4, k=5, weights=w_minus), x, cw)) / (2 * h)
        got = g.get(t, np.zeros(model.d + 1))[i]
        assert got == pytest.approx(fd, abs=1e-4)
        checked += 1


def test_hinge_kink_has_zero_slope():
    # One active column with c = +1 and w . [x;1] = 1 - eps, so z = -1 + eps.
    x = np.array([0.0])
    for eps, slope in ((0.0, 0.0), (1e-9, 1.0)):
        model = HashModel(d=1, k=1, weights=np.array([[0.0, 1.0 - eps]]))
        g = gradient(model, x, ternary([1]))
        assert (g[0][-1] if g else 0.0) == -slope
    model = HashModel(d=1, k=1, weights=np.array([[0.0, 1.0]]))
    assert surrogate_loss(model, x, ternary([1])) == 0.0


def single_column_setup(core_bits):
    matrix = new_matrix(1, 1)
    cb = Codebook(k=1, pool=[core_bits], rng_seed=0)
    return matrix, cb


def test_step_noop_when_margin_met():
    x = np.array([1.0, 0.0])
    xh = augment(x)
    matrix, cb = single_column_setup(0b1)
    model = HashModel(d=2, k=1, weights=(2 * xh / (xh @ xh)).reshape(1, 3))
    before = model.weights.copy()
    report = step(model, matrix, cb, x, "a")
    assert report.surrogate_loss_before == 0.0
    assert np.array_equal(model.weights, before)
    assert model.iteration == 1


def test_step_and_step_many_leave_a_row_at_the_kink():
    # z = -c * (w . [x;1]) = -1 exactly: the hinge slope there is 0.
    x = np.array([1.0, 0.0])
    for train in (lambda *a: step(*a, x, "a"), lambda *a: step_many(*a, x[None], ["a"])):
        matrix, cb = single_column_setup(0b1)
        model = HashModel(d=2, k=1, weights=[[0.5, 0.0, 0.5]])
        train(model, matrix, cb)
        assert model.weights.tolist() == [[0.5, 0.0, 0.5]]
        assert model.iteration == 1


def test_step_violated_column_moves_by_eta_c_x():
    x = np.array([2.0, -1.0])
    matrix, cb = single_column_setup(0b1)
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    report = step(model, matrix, cb, x, "a", eta=1.0)
    # w <- w - eta * (-c xh) = c xh with c = +1
    assert np.allclose(model.weights[0], augment(x))
    assert report.surrogate_loss_before == pytest.approx(1.0)
    assert report.touched_columns == range(0, 1)
    assert report.is_new_label and not report.new_cycle_started


def test_step_grows_model_on_new_cycle():
    matrix = new_matrix(2, 1)
    cb = generate(2, 2, seed=0)
    model = HashModel.create(d=3, k=2, seed=1)
    rng = np.random.default_rng(0)
    r1 = step(model, matrix, cb, rng.standard_normal(3), "a")
    assert not r1.new_cycle_started and model.width == 2
    r2 = step(model, matrix, cb, rng.standard_normal(3), "b")
    assert r2.new_cycle_started and model.width == 4
    assert r2.touched_columns == range(2, 4)


def test_step_leaves_other_cycles_bitwise_intact():
    matrix = new_matrix(4, 1)
    cb = generate(4, 8, seed=3)
    model = HashModel.create(d=5, k=4, seed=7)
    rng = np.random.default_rng(1)
    step(model, matrix, cb, rng.standard_normal(5), "a")
    step(model, matrix, cb, rng.standard_normal(5), "b")
    frozen_a = model.weights[0:4].copy()
    for _ in range(30):
        step(model, matrix, cb, rng.standard_normal(5), "b")
    assert np.array_equal(model.weights[0:4], frozen_a)


def reference_step(model, matrix, cb, x, y, eta):
    """``step`` spelt out with the reference codeword, loss and gradient.

    Returns the updated model, built through the constructor, and the loss.
    """
    m = matrix.m
    matrix.observe_label(cb, y)
    if matrix.m > m:
        model.grow_cycles((matrix.m,))
    cw = matrix.find(y)
    loss_before = surrogate_loss(model, x, cw)
    weights = model.weights.copy()
    for t, g in gradient(model, x, cw).items():
        weights[t] -= eta * g
    return HashModel(d=model.d, k=model.k, weights=weights, iteration=model.iteration + 1,
                     seed=model.seed), loss_before


def test_step_equals_reference_bitwise():
    k, d = 8, 6
    rng = np.random.default_rng(5)
    stream = [(rng.standard_normal(d), f"y{int(rng.integers(7))}") for _ in range(150)]
    fast, ref = [(HashModel.create(d, k, seed=2), new_matrix(k, 2), generate(k, 32, seed=4))
                 for _ in range(2)]
    for x, y in stream:
        report = step(*fast, x, y, eta=0.3)
        ref_model, ref_loss = reference_step(*ref, x, y, 0.3)
        ref = (ref_model, *ref[1:])
        assert report.surrogate_loss_before == ref_loss
        assert fast[0].weights.tobytes() == ref[0].weights.tobytes()
        assert fast[0].iteration == ref[0].iteration
    assert fast[1].m >= 3
    assert len(fast[1]) < len(stream)


def test_step_resumes_bitwise_across_save_and_load(tmp_path):
    k, d, rho, eta = 8, 6, 2, 0.3
    rng = np.random.default_rng(9)
    stream = [(rng.standard_normal(d), f"y{int(rng.integers(9))}") for _ in range(120)]

    def fresh():
        return ModelBundle(k=k, rho=rho, eta=eta, seed=2, codebook=generate(k, 32, seed=4),
                           matrix=new_matrix(k, rho), model=HashModel.create(d, k, seed=2))

    whole = fresh()
    for x, y in stream:
        step(whole.model, whole.matrix, whole.codebook, x, y, eta=eta)
    part = fresh()
    path = tmp_path / "model.bin"
    for i, (x, y) in enumerate(stream):
        if i % 7 == 3:
            save_model(part, path)
            part = load_model(path)
        step(part.model, part.matrix, part.codebook, x, y, eta=eta)
    assert part.matrix.m >= 3
    assert part.model.weights.tobytes() == whole.model.weights.tobytes()


def test_augment_equals_append_bitwise():
    x32 = np.random.default_rng(8).standard_normal(7).astype(np.float32)
    for x in (x32, x32.tolist(), [1, -2, 3]):
        want = np.append(np.asarray(x, dtype=np.float64), 1.0)
        got = augment(x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_step_loss_decreases_on_separable_stream():
    rng = np.random.default_rng(2)
    matrix = new_matrix(4, 2)
    cb = generate(4, 8, seed=5)
    model = HashModel.create(d=3, k=4, seed=9)
    centers = {"a": np.array([3.0, 0.0, 0.0]), "b": np.array([-3.0, 0.0, 0.0])}
    losses = []
    for i in range(50):
        y = "a" if i % 2 == 0 else "b"
        x = centers[y] + 0.1 * rng.standard_normal(3)
        x = x / np.linalg.norm(x)
        losses.append(step(model, matrix, cb, x, y, eta=0.5).surrogate_loss_before)
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_perceptron_property_on_margin_separated_stream():
    # hand-built single active bit per label; a stream separated with margin
    # must stop violating after finitely many mistakes
    rng = np.random.default_rng(3)
    matrix = new_matrix(1, 2)
    cb = Codebook(k=1, pool=[0b1, 0b0], rng_seed=0)
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    violations = []
    for i in range(1000):
        y = "pos" if i % 2 == 0 else "neg"
        base = np.array([1.0, 1.0]) if y == "pos" else np.array([-1.0, -1.0])
        x = base + 0.05 * rng.standard_normal(2)
        x = x / np.linalg.norm(x)
        r = step(model, matrix, cb, x, y)
        violations.append(r.surrogate_loss_before > 0.0)
    assert not any(violations[-200:])


def test_step_rejects_wrong_dimension():
    matrix = new_matrix(2, 1)
    cb = generate(2, 2, seed=0)
    model = HashModel.create(d=3, k=2, seed=0)
    with pytest.raises(DimensionError):
        step(model, matrix, cb, np.zeros(4), "a")


@pytest.mark.parametrize("eta", [float("nan"), float("inf"), -1.0, -1e-300])
def test_step_rejects_eta_that_is_negative_or_not_finite(eta):
    matrix, cb = single_column_setup(0b1)
    model = HashModel(d=2, k=1, weights=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        step(model, matrix, cb, np.ones(2), "a", eta=eta)
    assert np.array_equal(model.weights, np.zeros((1, 3)))
    step(model, matrix, cb, np.ones(2), "a", eta=0.0)
    assert np.array_equal(model.weights, np.zeros((1, 3)))


def test_step_deterministic():
    outs = []
    for _ in range(2):
        matrix = new_matrix(4, 2)
        cb = generate(4, 8, seed=11)
        model = HashModel.create(d=3, k=4, seed=13)
        rng = np.random.default_rng(4)
        for i in range(40):
            step(model, matrix, cb, rng.standard_normal(3), f"y{i % 5}")
        outs.append(model.weights.copy())
    assert np.array_equal(outs[0], outs[1])


def loop_of_steps(state, X, labels, eta):
    """``step`` on each example in turn: the reference ``step_many`` must equal.

    Returns the per-example (cycle, loss, new label, new cycle) columns of the
    examples that ran, and the error that stopped the loop, if any.
    """
    model, matrix, cb = state
    rows = []
    try:
        for x, y in zip(X, labels):
            r = step(model, matrix, cb, x, y, eta=eta)
            rows.append((r.touched_columns.start // matrix.k + 1, r.surrogate_loss_before,
                         r.is_new_label, r.new_cycle_started))
    except CodebookExhaustedError as e:
        return rows, e
    return rows, None


def assert_block_equals_loop(state, X, labels, eta):
    """Run ``step_many`` on ``state`` and a loop of ``step`` on a copy; compare bitwise."""
    ref = copy.deepcopy(state)
    want, error = loop_of_steps(ref, X, labels, eta)
    if error is None:
        report = step_many(*state, X, labels, eta=eta)
        got = list(zip(report.cycles.tolist(), report.surrogate_losses_before.tolist(),
                       report.new_labels.tolist(), report.new_cycles.tolist()))
        assert got == want
    else:
        with pytest.raises(CodebookExhaustedError):
            step_many(*state, X, labels, eta=eta)
    (model, matrix, cb), (ref_model, ref_matrix, ref_cb) = state, ref
    assert model.weights.tobytes() == ref_model.weights.tobytes()
    assert model.iteration == ref_model.iteration
    # Labels in order, cores and their signs; draws made and the pool.
    assert matrix == ref_matrix and cb == ref_cb
    assert matrix.signs.tobytes() == ref_matrix.signs.tobytes()
    return error


def random_block(rng, n, d, classes, first=0):
    """n examples whose labels are drawn from ``classes`` labels, from y{first} on."""
    X = rng.standard_normal((n, d)) / np.sqrt(d)
    return X, [f"y{int(c)}" for c in first + rng.integers(classes, size=n)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8, 33]), st.integers(1, 4),
       st.integers(1, 6), st.integers(1, 12), st.sampled_from([0.0, 0.3, 1.0]),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)), min_size=1, max_size=4),
       st.sampled_from([2, 5, 9, 64]))
def test_step_many_equals_a_loop_of_step(seed, k, rho, d, classes, eta, blocks, capacity):
    # Consecutive blocks continue one model; later blocks see trained weights
    # and labels and cycles that open mid-block, several in one block when
    # rho is small. Each block's labels start from its own first label, so a
    # block mixes labels new to the matrix, repeated inside it, with labels
    # seen in earlier blocks. A small codebook runs out mid-block.
    rng = np.random.default_rng(seed)
    state = (HashModel.create(d, k, seed=seed), new_matrix(k, rho),
             generate(k, min(capacity, 1 << (k - 1)), seed=seed + 1))
    for n, first in blocks:
        X, labels = random_block(rng, n, d, classes, first)
        if assert_block_equals_loop(state, X, labels, eta) is not None:
            break


@pytest.fixture
def observed(monkeypatch):
    """Per call of ``EcocMatrix.observe_labels``, the labels it admitted, in row order.

    A call that fails records the labels it admitted before it failed.
    """
    calls = []
    observe = EcocMatrix.observe_labels

    def counting(matrix, cb, labels):
        n = len(matrix)
        try:
            return observe(matrix, cb, labels)
        finally:
            calls.append(matrix.labels[n:])

    monkeypatch.setattr(EcocMatrix, "observe_labels", counting)
    return calls


@pytest.mark.parametrize("blocks", [False, True])
def test_only_a_label_new_to_the_matrix_is_observed(observed, blocks):
    # Labels repeated inside a block, and labels seen in an earlier block. A
    # block admits its new labels with one call; step admits each new label
    # alone and looks a known one up without a call.
    k, d = 4, 3
    rng = np.random.default_rng(3)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 8, seed=2))
    for labels, new in ((["a", "b", "a", "a", "c", "b"], ["a", "b", "c"]),
                        (["c", "a", "d", "d", "b", "e", "a"], ["d", "e"]),
                        (["e", "b", "b"], [])):
        X = rng.standard_normal((len(labels), d))
        observed.clear()
        if blocks:
            report = step_many(*state, X, labels)
            assert [y for y, is_new in zip(labels, report.new_labels) if is_new] == new
        else:
            for x, y in zip(X, labels):
                step(*state, x, y)
        assert observed == ([new] if blocks else [[y] for y in new])
    assert state[1].labels == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("blocks", [False, True])
def test_an_exhausted_codebook_is_observed_once_mid_block(observed, blocks):
    # Three codes: "d", the fourth new label, fails its draw. The labels drawn
    # before it are admitted, and no label after it.
    k, d = 3, 4
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 3, seed=2))
    labels = ["a", "b", "a", "c", "b", "d", "a", "e"]
    X = np.random.default_rng(4).standard_normal((len(labels), d))
    with pytest.raises(CodebookExhaustedError):
        if blocks:
            step_many(*state, X, labels)
        else:
            for x, y in zip(X, labels):
                step(*state, x, y)
    assert observed == ([["a", "b", "c"]] if blocks else [["a"], ["b"], ["c"], []])
    assert state[1].labels == ["a", "b", "c"] and state[0].iteration == 5
    assert state[2].draws_made == 3 and state[0].width == 2 * k


def test_step_many_opens_cycles_mid_block_and_continues_a_trained_model():
    k, d, rho = 8, 5, 2
    rng = np.random.default_rng(21)
    state = (HashModel.create(d, k, seed=3), new_matrix(k, rho), generate(k, 64, seed=4))
    X, labels = random_block(rng, 40, d, 3)
    for x, y in zip(X, labels):
        step(*state, x, y, eta=0.5)
    X, labels = random_block(rng, 120, d, 9)
    assert_block_equals_loop(state, X, labels, 0.5)
    assert state[1].m == 5 and state[0].iteration == 160


def test_step_many_continues_a_model_loaded_from_a_file(tmp_path):
    k, d, rho, eta = 8, 6, 2, 0.3
    rng = np.random.default_rng(9)
    bundle = ModelBundle(k=k, rho=rho, eta=eta, seed=2, codebook=generate(k, 32, seed=4),
                         matrix=new_matrix(k, rho), model=HashModel.create(d, k, seed=2))
    X, labels = random_block(rng, 50, d, 5)
    step_many(bundle.model, bundle.matrix, bundle.codebook, X, labels, eta=eta)
    save_model(bundle, tmp_path / "model.bin")
    loaded = load_model(tmp_path / "model.bin")
    X, labels = random_block(rng, 70, d, 9)
    assert_block_equals_loop((loaded.model, loaded.matrix, loaded.codebook), X, labels, eta)
    assert loaded.matrix.m == 5


@pytest.mark.parametrize("k, d", [(33, 7), (64, 200)])
def test_step_many_at_wide_cores_and_threaded_gemv_sizes(k, d):
    # k=33 spans two core words; 64 x 201 weights per cycle is past the size
    # at which OpenBLAS may split one gemv across threads.
    rng = np.random.default_rng(k)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 64, seed=2))
    X, labels = random_block(rng, 90, d, 7)
    assert_block_equals_loop(state, X, labels, 1.0)


def test_step_many_with_eta_zero_and_an_empty_block():
    k, d = 4, 3
    rng = np.random.default_rng(2)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 1), generate(k, 8, seed=2))
    before = state[0].weights.copy()
    X, labels = random_block(rng, 30, d, 4)
    assert_block_equals_loop(state, X, labels, 0.0)
    assert state[0].weights[:k].tobytes() == before.tobytes()
    report = step_many(*state, np.empty((0, d)), [], eta=1.0)
    assert all(len(a) == 0 for a in vars(report).values())
    assert_block_equals_loop(state, np.empty((0, d)), [], 1.0)
    assert state[0].iteration == 30


def test_step_many_stops_where_the_codebook_runs_out():
    # Four codes for nine labels: the fifth new label fails its draw. The
    # examples before it are applied, it and every later one are not.
    k, d = 3, 4
    rng = np.random.default_rng(6)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 4, seed=2))
    X, labels = random_block(rng, 60, d, 9)
    assert assert_block_equals_loop(state, X, labels, 1.0) is not None
    model, matrix, cb = state
    assert len(matrix) == 4 and len(cb) == 0
    assert 4 <= model.iteration < 60


def test_step_many_checks_before_it_changes_anything():
    k, d = 4, 3
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 1), generate(k, 8, seed=2))
    with pytest.raises(DimensionError):
        step_many(*state, np.zeros((2, d + 1)), ["a", "b"])
    with pytest.raises(ValueError):
        step_many(*state, np.zeros((3, d)), ["a", "b"])
    with pytest.raises(ValueError):
        step_many(*state, np.zeros((2, d)), ["a", "b"], eta=float("nan"))
    wide = (HashModel.create(d, 2 * k, seed=1), *state[1:])
    with pytest.raises(ConsistencyError):
        step_many(*wide, np.zeros((2, d)), ["a", "b"])
    assert len(state[1]) == 0 and state[2].draws_made == 0 and state[0].iteration == 0


def test_step_checks_before_it_changes_anything():
    # A width-16 model against a width-8 matrix: step refuses it before it
    # observes the label, so no label joins the matrix and no code is drawn.
    k, d = 8, 3
    model, matrix, cb = HashModel.create(d, k, seed=1), new_matrix(k, 1), generate(k, 16, seed=2)
    model.grow_cycles((2,))
    weights, pool = model.weights.copy(), cb.pool.copy()
    with pytest.raises(ConsistencyError):
        step(model, matrix, cb, np.zeros(d), "a")
    with pytest.raises(DimensionError):
        step(model, matrix, cb, np.zeros(d + 1), "a")
    with pytest.raises(ValueError):
        step(model, matrix, cb, np.zeros(d), "a", eta=float("nan"))
    assert len(matrix) == 0 and matrix.width == k
    assert cb.draws_made == 0 and np.array_equal(cb.pool, pool)
    assert model.iteration == 0 and np.array_equal(model.weights, weights)


def test_step_many_opens_several_cycles_and_runs_out_in_one_block():
    # rho = 1: the second block opens four cycles with one growth, and the
    # third runs out of codes at its second new label, on a trained model.
    k, d = 8, 5
    rng = np.random.default_rng(8)
    state = (HashModel.create(d, k, seed=2), new_matrix(k, 1), generate(k, 7, seed=3))
    assert assert_block_equals_loop(state, *random_block(rng, 20, d, 2), 0.5) is None
    assert assert_block_equals_loop(state, *random_block(rng, 30, d, 4, first=2), 0.5) is None
    assert state[1].m == 6 and state[0].width == 6 * k
    error = assert_block_equals_loop(state, *random_block(rng, 30, d, 3, first=6), 0.5)
    assert isinstance(error, CodebookExhaustedError)
    assert len(state[1]) == 7 and len(state[2]) == 0 and state[0].width == 7 * k


def test_grow_cycles_equals_one_grow_cycle_per_cycle():
    one, block = HashModel.create(4, 3, seed=5), HashModel.create(4, 3, seed=5)
    for j in (2, 3, 4):
        one.grow_cycles((j,))
    block.grow_cycles(range(2, 5))
    assert one == block
    block.grow_cycles([])
    assert one == block


def test_no_model_holds_negative_zero_so_a_row_left_alone_keeps_its_bits():
    # The dense update adds +-0 to each row whose margin is met: 0 * (eta * c)
    # times [x;1] is -0.0 wherever c * x_j < 0. That leaves every weight but
    # -0.0 as it is, and the constructor and growth turn -0.0 into 0.0.
    k, d = 4, 3
    matrix, cb = new_matrix(k, 2), generate(k, 8, seed=1)
    matrix.observe_label(cb, "a")
    c = matrix.signs[0]
    weights = np.full((k, d + 1), -0.0)
    weights[:, 0] = 2.0 * c
    model = HashModel(d=d, k=k, weights=weights)
    assert np.array_equal(model.weights, weights)
    assert not np.signbit(model.weights[model.weights == 0.0]).any()
    grown = copy.deepcopy(model)
    grown.grow_cycles([2, 3])
    assert not np.signbit(grown.weights[grown.weights == 0.0]).any()
    before = model.weights.copy()
    # c * score is 2 on every row: no margin is violated, so nothing may change.
    report = step(model, matrix, cb, np.array([1.0, -1.0, -1.0]), "a", eta=0.5)
    assert report.surrogate_loss_before == 0.0
    assert model.weights.tobytes() == before.tobytes()


def test_a_row_left_alone_stays_finite_when_eta_times_x_overflows():
    # eta * x is inf in column 0. The violated row moves to +-inf there; the
    # row that meets its margin gets 0 * x, not 0 * inf, and keeps its bits.
    k, d = 2, 2
    matrix, cb = new_matrix(k, 2), generate(k, 2, seed=1)
    matrix.observe_label(cb, "a")
    c = matrix.signs[0]
    weights = np.zeros((k, d + 1))
    weights[0, -1] = 10.0 * c[0]
    model = HashModel(d=d, k=k, weights=weights)
    with np.errstate(over="ignore"):
        step(model, matrix, cb, np.array([1e300, 0.0]), "a", eta=1e300)
    assert model.weights[0].tobytes() == weights[0].tobytes()
    assert model.weights[1, 0] == c[1] * np.inf


def descend_reference(w, c, xh, eta):
    """``_descend`` row by row: each block's z from its own gemv, then w + (eta * c) * [x;1]."""
    w = w.copy().reshape(-1, *w.shape[-2:])
    c, xh = c.reshape(len(w), -1), xh.reshape(len(w), -1)
    z = np.empty(c.shape)
    for b in range(len(w)):
        z[b] = -c[b] * (w[b] @ xh[b])
        for t in np.flatnonzero(z[b] > -1.0):
            w[b, t] = w[b, t] + (eta * c[b, t]) * xh[b]
    return w, z


def descend_block(rng, shape):
    """Weights with exact zeros and no -0.0, +1/-1 entries, and [x;1] with zeros and subnormals."""
    *blocks, k, width = shape
    w = 3.0 * rng.standard_normal(shape)
    w[rng.random(shape) < 0.2] = 0.0
    c = rng.choice([-1.0, 1.0], (*blocks, k))
    xh = rng.standard_normal((*blocks, width))
    tiny = np.finfo(np.float64).smallest_subnormal
    xh[..., 0], xh[..., 1], xh[..., 2] = 0.0, 3 * tiny, -1e5 * tiny
    xh[..., -1] = 1.0
    return w + 0.0, c, xh


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
# step's (k, d+1) block takes the K=1 product and the rounds' stack the einsum, each
# also at the size the benchmark's workloads run (k=32, d=64).
@pytest.mark.parametrize("shape", [(6, 9), (3, 6, 9), (32, 65), (10, 32, 65)],
                         ids=["step-2d", "rounds-3d", "step-k32", "rounds-k32"])
def test_descend_equals_a_row_by_row_reference_bitwise(shape, eta):
    rng = np.random.default_rng([len(shape), int(10 * eta)])
    w, c, xh = descend_block(rng, shape)
    want_w, want_z = descend_reference(w, c, xh, eta)
    got_w = w.copy()
    z = _descend(got_w, c, xh, eta)
    violated = (want_z > -1.0).reshape(c.shape)
    # Both kinds of row are present, so each branch of the update is compared.
    assert violated.any() and not violated.all()
    assert z.tobytes() == want_z.reshape(c.shape).tobytes()
    assert got_w.tobytes() == want_w.reshape(shape).tobytes()
    assert got_w[~violated].tobytes() == w[~violated].tobytes()
    assert not np.signbit(got_w[got_w == 0.0]).any()


def test_descend_overflows_only_on_a_violated_row():
    # eta * x is inf in column 0; the violated row (c * score 0) becomes inf
    # there, and the row that meets its margin (c * score 2) keeps its bytes.
    c = np.array([1.0, -1.0])
    w = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    xh = np.array([1e300, 0.0, 1.0])
    with np.errstate(over="ignore"):
        want_w, want_z = descend_reference(w, c, xh, 1e300)
        got_w = w.copy()
        z = _descend(got_w, c, xh, 1e300)
    assert z.tobytes() == want_z[0].tobytes()
    assert got_w.tobytes() == want_w[0].tobytes()
    assert got_w[0, 0] == np.inf and np.isfinite(got_w[0, 1:]).all()
    assert got_w[1].tobytes() == w[1].tobytes()


def refusal_state():
    """A trained model, its matrix and codebook, and an index with rows staged against it.

    Also the features of those rows, to stage them again against a copy.
    """
    k, d = 8, 4
    rng = np.random.default_rng(5)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 16, seed=2))
    step_many(*state, *random_block(rng, 12, d, 5), eta=0.5)
    index, rows = HashIndex(), rng.standard_normal((6, d))
    index.insert_many(range(6), rows, state[0])
    return state, index, rows


def assert_refused(call, state, index, rows, match, error=ValueError):
    """``call`` raises ``error`` itself and changes neither the state nor the staged rows' bits."""
    twin = copy.deepcopy(state)
    ref = HashIndex()
    ref.insert_many(range(len(rows)), rows, twin[0])
    with pytest.raises(error, match=match) as info:
        call()
    assert info.type is error
    (model, matrix, cb), (ref_model, ref_matrix, ref_cb) = state, twin
    assert model == ref_model and model.weights.tobytes() == ref_model.weights.tobytes()
    assert matrix == ref_matrix and cb == ref_cb
    assert matrix.signs.tobytes() == ref_matrix.signs.tobytes()
    got, want = index.arrays(), ref.arrays()
    assert all(np.array_equal(got[name], want[name]) for name in want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_and_step_many_refuse_features_that_are_not_finite(bad):
    state, index, rows = refusal_state()
    d = state[0].d
    x = np.zeros(d)
    x[1] = bad
    assert_refused(lambda: step(*state, x, "y0"), state, index, rows,
                   "the example has a feature that is NaN or infinite")
    X = np.zeros((5, d))
    X[3, 2] = bad
    # A new label too: the features are refused before it is drawn.
    assert_refused(lambda: step_many(*state, X, ["y0", "new", "y1", "y2", "y3"]), state, index,
                   rows, "row 3 has a feature that is NaN or infinite")


@pytest.mark.parametrize("case", ["eta -1", "eta nan", "eta inf", "length d-1", "length d+1",
                                  "width", "eta before length", "length before width",
                                  "width before features"])
def test_step_refuses_each_bad_argument_with_its_class_and_message(case):
    # Each of step's checks, and their order: eta, the feature length, the
    # model's width against the matrix's, then finite features.
    state, index, rows = refusal_state()
    model, matrix, cb = state
    d, eta, x = model.d, 1.0, np.ones(model.d)
    error, match = DimensionError, f"feature length {d + 1} does not match d={d}"
    if case.startswith("eta"):
        eta = {"eta -1": -1.0, "eta nan": np.nan, "eta inf": np.inf,
               "eta before length": -1.0}[case]
        x = np.ones(d + 1) if case == "eta before length" else x
        error, match = ValueError, f"eta must be finite and >= 0, got {eta}"
    elif case == "length d-1":
        x, match = np.ones(d - 1), f"feature length {d - 1} does not match d={d}"
    elif case == "length d+1":
        x = np.ones(d + 1)
    else:
        # Two new labels open a cycle the model has not grown: the widths differ.
        matrix.observe_labels(cb, ["w0", "w1"])
        assert matrix.width == model.width + model.k
        x = np.ones(d + 1) if case == "length before width" else x
        if case == "width before features":
            x[0] = np.nan
        if case != "length before width":
            error = ConsistencyError
            match = f"model width {model.width} does not match matrix width {matrix.width}"
    assert_refused(lambda: step(*state, x, "y0", eta=eta), state, index, rows,
                   re.escape(match), error)


@pytest.mark.parametrize("bad", [None, 5, 5.0, b"y0", ("y0",)])
def test_a_label_that_is_not_a_str_is_refused(bad):
    state, index, rows = refusal_state()
    d = state[0].d
    model, matrix, cb = state
    assert_refused(lambda: step(*state, np.ones(d), bad), state, index, rows, "is not a str")
    # Earlier labels in the block, new or known, are not admitted either.
    assert_refused(lambda: step_many(*state, np.ones((4, d)), ["y0", "new", bad, "y1"]),
                   state, index, rows, "is not a str")
    assert_refused(lambda: matrix.observe_label(cb, bad), state, index, rows, "is not a str")
    assert_refused(lambda: matrix.observe_labels(cb, ["new", bad]), state, index, rows,
                   "is not a str")


def test_a_numpy_str_label_is_a_str():
    state, _, _ = refusal_state()
    report = step(*state, np.ones(state[0].d), np.str_("fresh"))
    assert report.is_new_label and state[1].labels[-1] == "fresh"


@pytest.mark.parametrize("shape", [(2, 3), (3, 5), (5,), (2, 5, 1)])
def test_model_refuses_weights_that_are_not_whole_cycles(shape):
    # At k=2 and d=4 the weights are (2m, 5): (2, 3) has rows of another d,
    # and (3, 5) holds a cycle and a half.
    with pytest.raises(ValueError, match=re.escape(f"weights of shape {shape}")):
        HashModel(d=4, k=2, weights=np.zeros(shape))


def assert_rounds_report_each_step(state, X, labels, eta):
    """Run ``step_many`` with ``after_round`` on ``state`` and a loop of ``step`` on a copy.

    Round r's call must list, 1-based and ascending, the cycles with at least
    r examples in the block, and each listed cycle's weights must be the
    loop's after that cycle's r-th step. Returns the error that stopped both.
    """
    ref = copy.deepcopy(state)
    k = ref[0].k
    want, steps, error = {}, {}, None
    try:
        for x, y in zip(X, labels):
            touched = step(*ref, x, y, eta=eta).touched_columns
            c = touched.start // k + 1
            steps[c] = steps.get(c, 0) + 1
            want[c, steps[c]] = ref[0].weights[touched].tobytes()
    except CodebookExhaustedError as e:
        error = e
    calls, got = [], {}

    def after_round(cycles):
        calls.append(cycles)
        for c in cycles:
            got[c, len(calls)] = state[0].weights[(c - 1) * k:c * k].tobytes()

    if error is None:
        step_many(*state, X, labels, eta=eta, after_round=after_round)
    else:
        with pytest.raises(CodebookExhaustedError):
            step_many(*state, X, labels, eta=eta, after_round=after_round)
    assert calls == [sorted(c for c, n in steps.items() if n >= r)
                     for r in range(1, max(steps.values(), default=0) + 1)]
    assert all(cycles[0] >= 1 for cycles in calls)
    assert got == want
    assert state[0].weights.tobytes() == ref[0].weights.tobytes()
    assert state[0].iteration == ref[0].iteration
    assert state[1] == ref[1] and state[2] == ref[2]
    return error


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 8, 33]), st.integers(1, 4),
       st.integers(1, 6), st.integers(1, 12), st.sampled_from([0.0, 0.3, 1.0]),
       st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_after_round_sees_each_cycle_after_its_rth_step(seed, k, rho, d, classes, eta,
                                                        blocks):
    # Later blocks continue one model, with cycles that open mid-block.
    rng = np.random.default_rng(seed)
    state = (HashModel.create(d, k, seed=seed), new_matrix(k, rho),
             generate(k, min(64, 1 << (k - 1)), seed=seed + 1))
    for n in blocks:
        X, labels = random_block(rng, n, d, classes)
        if assert_rounds_report_each_step(state, X, labels, eta) is not None:
            break


def test_after_round_is_not_called_for_an_empty_block():
    k, d = 4, 3
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 1), generate(k, 8, seed=2))
    calls = []
    step_many(*state, np.empty((0, d)), [], after_round=calls.append)
    assert calls == [] and state[0].iteration == 0


def test_after_round_reports_the_rounds_before_the_codebook_runs_out():
    # As in the loop of step, the examples before the failed draw are applied,
    # and so reported, before CodebookExhaustedError propagates.
    k, d = 3, 4
    rng = np.random.default_rng(6)
    state = (HashModel.create(d, k, seed=1), new_matrix(k, 2), generate(k, 4, seed=2))
    X, labels = random_block(rng, 60, d, 9)
    assert assert_rounds_report_each_step(state, X, labels, 1.0) is not None
    assert 4 <= state[0].iteration < 60


def test_fortran_ordered_weights_are_kept_c_ordered_and_train_alike():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((32, 9))
    twins = [HashModel(8, 32, order(w)) for order in (np.ascontiguousarray, np.asfortranarray)]
    assert all(m._w.flags.c_contiguous for m in twins)
    X, labels = random_block(rng, 60, 8, 3)
    for model in twins:
        matrix, cb = new_matrix(32, 20), generate(32, 8, seed=1)
        for x, y in zip(X[:30], labels[:30]):
            step(model, matrix, cb, x, y)
        step_many(model, matrix, cb, X[30:], labels[30:])
    assert twins[0].weights.tobytes() == twins[1].weights.tobytes()


def test_normalizer_fit():
    X = np.array([[1.0, 1.0], [3.0, 1.0]])
    nz = FeatureNormalizer.fit(X)
    assert np.allclose(nz.mean, [2.0, 1.0])
    out = nz.transform(np.array([3.0, 1.0]))
    assert np.allclose(out, [1.0, 0.0])
    assert np.linalg.norm(out) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("X", [np.empty((0, 3)), np.ones(3)], ids=["no-rows", "1-d"])
def test_normalizer_fit_refuses_a_block_without_rows(X):
    with pytest.raises(ValueError, match="at least one row"):
        FeatureNormalizer.fit(X)


def test_normalizer_zero_vector_passthrough():
    nz = FeatureNormalizer(mean=np.zeros(2), count=1)
    assert np.array_equal(nz.transform(np.zeros(2)), np.zeros(2))


@pytest.mark.parametrize("d", [1, 3, 5])
def test_normalizer_rejects_other_lengths(d):
    nz = FeatureNormalizer(mean=np.zeros(4), count=1)
    with pytest.raises(DimensionError):
        nz.transform(np.ones(d))
    with pytest.raises(DimensionError):
        nz.transform_many(np.ones((2, d)))
    assert (nz.mean.tolist(), nz.count) == ([0.0] * 4, 1)


def test_normalizer_transform_many_matches_single():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 4))
    nz = FeatureNormalizer.fit(X)
    many = nz.transform_many(X)
    for i in range(10):
        assert np.allclose(many[i], nz.transform(X[i]))


@pytest.mark.parametrize("d", [1, 3, 8, 9, 64, 65, 512])
def test_normalizer_transforms_agree_bit_for_bit(d):
    rng = np.random.default_rng(d)
    X = rng.standard_normal((2000, d)) * rng.uniform(0.01, 100.0, (2000, 1))
    nz = FeatureNormalizer.fit(X)
    X[0] = nz.mean  # centres to the zero vector
    many = nz.transform_many(X)
    one = np.array([nz.transform(x) for x in X])
    assert one.tobytes() == many.tobytes()
    assert not many[0].any()
