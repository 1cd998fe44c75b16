"""Growth and codeword assignment of the ternary code matrix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecochash.bitcode import PackedCode, ternary, unpack
from ecochash.codebook import generate
from ecochash.ecoc import EcocMatrix, new_matrix
from ecochash.errors import CodebookExhaustedError, UnknownLabelError
from ecochash.learner import HashModel, step


def fresh(k, rho, capacity=256, seed=0):
    capacity = min(capacity, 1 << (k - 1))
    return new_matrix(k, rho), generate(k, capacity, seed=seed)


def test_new_matrix_shape():
    mat = new_matrix(4, 2)
    assert (mat.k, mat.rho, mat.m, mat.n_in_cycle) == (4, 2, 1, 0)
    assert mat.width == 4
    assert len(mat) == 0

    wide = new_matrix(32, 20)
    assert wide.width == 32


def test_new_matrix_rejects_bad_args():
    with pytest.raises(ValueError):
        new_matrix(0, 2)
    with pytest.raises(ValueError):
        new_matrix(4, 0)


def test_first_label_fully_active():
    mat, cb = fresh(4, 2)
    assert mat.observe_label(cb, "a") is None
    assert "a" in mat and mat.m == 1
    assert mat.n_in_cycle == 1
    cw = mat.find("a")
    assert cw.length == 4
    assert cw.active_count() == 4
    assert list(cw.active_positions()) == [0, 1, 2, 3]


def test_third_label_opens_second_cycle():
    mat, cb = fresh(4, 2)
    mat.observe_label(cb, "a")
    mat.observe_label(cb, "b")
    assert mat.width == 4
    mat.observe_label(cb, "c")
    assert "c" in mat and len(mat) == 3
    assert mat.m == 2
    assert mat.width == 8
    assert list(mat.find("c").active_positions()) == [4, 5, 6, 7]


def test_exhausted_codebook_leaves_matrix_unchanged():
    mat, cb = new_matrix(4, 1), generate(4, 2, seed=0)
    model = HashModel.create(d=3, k=4, seed=0)
    x = np.ones(3)
    step(model, mat, cb, x, "a")
    step(model, mat, cb, x, "b")
    before = (mat.m, mat.n_in_cycle, mat.width)
    with pytest.raises(CodebookExhaustedError):
        step(model, mat, cb, x, "c")
    assert (mat.m, mat.n_in_cycle, mat.width) == before
    assert "c" not in mat
    step(model, mat, cb, x, "a")
    assert model.width == mat.width == 8


def test_reobserve_pads_and_flags_false():
    mat, cb = fresh(4, 2)
    mat.observe_label(cb, "a")
    first = mat.find("a")
    mat.observe_label(cb, "b")
    mat.observe_label(cb, "c")
    mat.observe_label(cb, "a")
    assert len(mat) == 3 and mat.m == 2
    cw = mat.find("a")
    assert cw.length == 8
    # same active bits, just padded
    assert list(cw.active_positions()) == [0, 1, 2, 3]
    assert list(cw.active_values()) == list(first.active_values())


def test_find_unknown_label():
    mat, _ = fresh(4, 2)
    with pytest.raises(UnknownLabelError):
        mat.find("ghost")


def test_find_matches_observe():
    mat, cb = fresh(3, 2)
    mat.observe_label(cb, "x")
    seen = ternary(unpack(PackedCode(3, int(mat.cores[mat.rows["x"]][0]))))
    assert mat.find("x") == seen
    assert "x" in mat
    assert "y" not in mat


def test_labels_in_observation_order():
    mat, cb = fresh(4, 3)
    for y in ["c", "a", "b"]:
        mat.observe_label(cb, y)
    assert mat.labels == ["c", "a", "b"]


def test_cycle1_label_confined_after_growth():
    mat, cb = fresh(4, 2)
    for y in "abcdef":
        mat.observe_label(cb, y)
    assert mat.m == 3
    cw = mat.find("a")
    assert cw.length == 12
    assert all(p < 4 for p in cw.active_positions())


def test_cycle_columns():
    mat, cb = fresh(4, 2)
    assert mat.cycle_columns(1) == range(0, 4)
    for y in "abcde":
        mat.observe_label(cb, y)
    assert mat.m == 3
    assert mat.cycle_columns(3) == range(8, 12)
    with pytest.raises(ValueError):
        mat.cycle_columns(4)
    with pytest.raises(ValueError):
        mat.cycle_columns(0)


def test_deterministic_assignment():
    runs = []
    for _ in range(2):
        mat, cb = fresh(4, 2, seed=9)
        for y in "abcde":
            mat.observe_label(cb, y)
        runs.append({y: (mat.find(y).values.bits, mat.find(y).mask.bits) for y in mat.labels})
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 30))
def test_growth_law_and_invariants(k, rho, n_labels):
    mat = new_matrix(k, rho)
    cb = generate(k, min(256, 1 << (k - 1)), seed=1)
    if len(cb.pool) < n_labels:
        n_labels = len(cb.pool)
    if n_labels == 0:
        return
    cycles_started = 0
    for i in range(n_labels):
        m = mat.m
        mat.observe_label(cb, f"y{i}")
        cycles_started += mat.m > m
    # m = ceil(L / rho), counting the initial cycle as already open
    assert mat.m == math.ceil(n_labels / rho)
    assert cycles_started == mat.m - 1
    assert mat.width == mat.m * k

    per_cycle = {}
    for y in mat.labels:
        per_cycle[mat.cycle_of_label[y]] = per_cycle.get(mat.cycle_of_label[y], 0) + 1
    for j in range(1, mat.m):
        assert per_cycle[j] == rho
    assert per_cycle[mat.m] == mat.n_in_cycle == n_labels - (mat.m - 1) * rho

    for y in mat.labels:
        cw = mat.find(y)
        assert cw.length == mat.width
        assert cw.active_count() == k
        j = mat.cycle_of_label[y]
        assert set(cw.active_positions()) == set(mat.cycle_columns(j))
        assert cw.values.bits >> (j - 1) * k == mat.cores[mat.rows[y]][0]

    # distinct labels never share an identical codeword
    rendered = {(mat.find(y).values.bits, mat.find(y).mask.bits) for y in mat.labels}
    assert len(rendered) == n_labels


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 8, 65]), st.integers(1, 4), st.integers(1, 10),
       st.lists(st.integers(0, 9), max_size=12), st.lists(st.integers(0, 9), max_size=12))
def test_observe_labels_equals_a_loop_of_observe_label(k, rho, capacity, first, block):
    # A block admits its labels not yet seen, in order of first appearance,
    # with the draws, cores and signs of one observe_label per label; when the
    # codebook runs out, the labels drawn before are admitted.
    one, cb_one = fresh(k, rho, capacity, seed=4)
    many, cb_many = fresh(k, rho, capacity, seed=4)
    for labels in ([f"y{i}" for i in first], [f"y{i}" for i in block]):
        try:
            for y in labels:
                one.observe_label(cb_one, y)
        except CodebookExhaustedError:
            with pytest.raises(CodebookExhaustedError):
                many.observe_labels(cb_many, labels)
        else:
            many.observe_labels(cb_many, labels)
        assert one == many and cb_one == cb_many
        assert one.signs.tobytes() == many.signs.tobytes()
        assert dict(one.cycle_of_label) == dict(many.cycle_of_label)


@pytest.mark.parametrize("bad", [1, None, b"a", ("a",)])
def test_the_constructor_refuses_a_label_that_is_not_a_str(bad):
    # An int label once built a matrix that save_model could not write.
    labels, cores = ["a", bad], [[1], [2]]
    with pytest.raises(ValueError, match="is not a str"):
        EcocMatrix(8, 2, labels, cores)
    assert labels == ["a", bad] and cores == [[1], [2]]
    assert EcocMatrix(8, 2, ["a", np.str_("b")], cores).labels == ["a", "b"]
