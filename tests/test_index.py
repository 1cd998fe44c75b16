"""Index population in both modes, bit-update accounting, and ranking."""

import copy
import pickle
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecochash.bitcode import hamming_masked
from ecochash.codebook import generate
from ecochash.ecoc import new_matrix
from ecochash.errors import (ConsistencyError, DimensionError, DuplicateIdError,
                             UnknownLabelError)
from ecochash.evaluation import retrieval_map
from ecochash.index import MODE_CODEWORD, MODE_PHI, HashIndex
from ecochash.learner import HashModel, StepReport, exact_signs, phi, step, step_many
from ecochash.storage import load_index, save_index


def small_stream(n_labels=5, k=8, rho=2, d=6, seed=0, steps=60):
    """A trained setup plus the stream that trained it."""
    rng = np.random.default_rng(seed)
    matrix = new_matrix(k, rho)
    cb = generate(k, min(64, 1 << (k - 1)), seed=seed)
    model = HashModel.create(d=d, k=k, seed=seed)
    centers = rng.standard_normal((n_labels, d)) * 3.0
    stream = []
    for i in range(steps):
        y = i % n_labels
        x = centers[y] + 0.2 * rng.standard_normal(d)
        x = x / np.linalg.norm(x)
        stream.append((x, f"c{y}"))
    return matrix, cb, model, stream


def test_insert_labeled_freezes_code():
    matrix, cb, model, stream = small_stream()
    x0, y0 = stream[0]
    step(model, matrix, cb, x0, y0)
    index = HashIndex()
    index.insert_labeled(1, y0, matrix)
    snapshot = index.entries[0].code
    for x, y in stream[1:]:
        step(model, matrix, cb, x, y)
    assert index.entries[0].code == snapshot
    assert index.entries[0].mode == MODE_CODEWORD


def test_insert_labeled_unknown_label():
    matrix = new_matrix(4, 2)
    index = HashIndex()
    with pytest.raises(UnknownLabelError):
        index.insert_labeled(1, "nope", matrix)


def test_duplicate_id_rejected():
    matrix, cb, model, stream = small_stream()
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_labeled(7, stream[0][1], matrix)
    with pytest.raises(DuplicateIdError):
        index.insert_labeled(7, stream[0][1], matrix)
    with pytest.raises(DuplicateIdError):
        index.insert_unlabeled(7, stream[0][0], model)


def same_arrays(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[f], b[f]) for f in a)


def copied_arrays(index):
    return {f: np.array(v) for f, v in index.arrays().items()}


def test_duplicate_id_leaves_index_unchanged():
    """A duplicate id raises before any change, and so does a row of another k."""
    matrix, cb, model, stream = small_stream()
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_unlabeled(7, stream[0][0], model)
    before = copied_arrays(index)
    with pytest.raises(DuplicateIdError):
        index.insert_labeled(7, stream[0][1], matrix)
    other, other_cb, other_model, other_stream = small_stream(k=4)
    step(other_model, other, other_cb, other_stream[0][0], other_stream[0][1])
    # The k=8 phi row set the index's k, so a k=4 codeword row is refused.
    with pytest.raises(ConsistencyError):
        index.insert_labeled(8, other_stream[0][1], other)
    assert same_arrays(copied_arrays(index), before)


def same_bits(a, b):
    """Whether two ``arrays()`` dicts have the same fields, dtypes, shapes and bytes."""
    a, b = ({f: np.asarray(v) for f, v in d.items()} for d in (a, b))
    return a.keys() == b.keys() and all(
        (a[f].dtype, a[f].shape, a[f].tobytes()) == (b[f].dtype, b[f].shape, b[f].tobytes())
        for f in a)


def labeled_setup(k, n_labels=7, rho=2):
    """Labels over several cycles, and an index that holds phi and codeword rows."""
    matrix, cb, model, stream = small_stream(n_labels=n_labels, k=k, rho=rho,
                                             steps=2 * n_labels)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many([100, 101, 102], [x for x, _ in stream[:3]], model, ["c0", None, "c2"])
    index.insert_labeled(103, "c1", matrix)
    return matrix, model, stream, index


# k=5 and 12 pad their slots; 64 fills one word; 70 spans two.
@pytest.mark.parametrize("k", [5, 8, 12, 32, 64, 70])
def test_insert_labeled_many_equals_a_loop_of_insert_labeled(k):
    matrix, model, stream, index = labeled_setup(k)
    assert matrix.m == 4
    loop = copy.deepcopy(index)
    ids = list(range(20, 34))
    labels = [f"c{i % 7}" for i in (6, 0, 3, 3, 1, 5, 6, 2, 4, 0, 0, 5, 2, 1)]
    for id, y in zip(ids, labels):
        loop.insert_labeled(id, y, matrix)
    index.insert_labeled_many(ids, labels, matrix)
    assert same_bits(index.arrays(), loop.arrays())
    x = stream[0][0]
    assert index.query(model, x) == loop.query(model, x)


def test_insert_labeled_many_refuses_a_bad_block_before_any_change():
    matrix, _, _, index = labeled_setup(8)
    other = new_matrix(4, 2)
    other.observe_label(generate(4, 8, seed=0), "c0")
    before = copied_arrays(index)
    for ids, labels, m, error in (
            ([1, 2, 3], ["c0", "nope", "c1"], matrix, UnknownLabelError),
            ([1, 2], ["c0", "c0"], other, ConsistencyError),
            ([1, 2, 1], ["c0", "c1", "c2"], matrix, DuplicateIdError),
            ([1, 103], ["c0", "c1"], matrix, DuplicateIdError),
            ([1, -3], ["c0", "c1"], matrix, ValueError),
            ([1, 1 << 64], ["c0", "c1"], matrix, ValueError),
            ([1, 2], ["c0"], matrix, ValueError),
            # Labels are checked first, then k, then ids.
            ([103, 2], ["c0", "nope"], matrix, UnknownLabelError),
            ([103, 2], ["c0", "c0"], other, ConsistencyError)):
        with pytest.raises(error):
            index.insert_labeled_many(ids, labels, m)
        assert same_bits(index.arrays(), before)


@pytest.mark.parametrize("bad", [5, 5.0, b"c0", ("c0",)])
def test_insert_many_refuses_a_label_that_is_not_a_str_before_any_change(bad, tmp_path):
    # None means unlabeled; an int label was once indexed, and then arrays() and
    # save_index raised AttributeError.
    _, model, stream, index = labeled_setup(8)
    before = copied_arrays(index)
    with pytest.raises(ValueError, match="is not a str"):
        index.insert_many([1, 2], [x for x, _ in stream[:2]], model, labels=[None, bad])
    assert same_bits(index.arrays(), before) and (len(index), index.phi_count) == (4, 3)
    save_index(index, tmp_path / "i.index")
    assert same_bits(load_index(tmp_path / "i.index").arrays(), before)


@pytest.mark.parametrize("case", ["duplicate id", "length d-1", "length d+1", "other k",
                                  "other d"])
def test_insert_unlabeled_refuses_a_bad_row_with_its_class_and_message(case):
    _, model, stream, index = labeled_setup(8)
    d, id, x, target = model.d, 2, stream[1][0], model
    before = copy.deepcopy(index)
    # A staged row on each side: the refusal leaves the stage as it was.
    for twin in (index, before):
        twin.insert_unlabeled(1, stream[0][0], model)
    if case == "duplicate id":
        id, error, match = 101, DuplicateIdError, "id 101 is already indexed"
    elif case.startswith("length"):
        x = x[:-1] if case == "length d-1" else np.append(x, 0.5)
        error, match = DimensionError, f"feature length {len(x)} does not match d={d}"
    elif case == "other k":
        # As wide as the rows, so the k check is the one that fails.
        target = HashModel(d, 4, np.zeros((model.width, d + 1)))
        error, match = ConsistencyError, "the index's rows have k=8, the model k=4"
    else:
        target, x = HashModel(d + 1, 8, np.zeros((model.width, d + 2))), np.append(x, 0.5)
        error = DimensionError
        match = f"model d={d + 1} does not match feature length {d} of the existing phi entries"
    with pytest.raises(error, match=re.escape(match)) as info:
        index.insert_unlabeled(id, x, target)
    assert info.type is error
    assert index.feature_sq_norm_bound == before.feature_sq_norm_bound
    assert same_bits(index.arrays(), before.arrays())
    for twin in (index, before):
        twin.insert_unlabeled(2, stream[1][0], model)
    assert same_bits(index.arrays(), before.arrays())


@pytest.mark.parametrize("bad", [5, 5.0, b"c0", ("c0",)])
def test_insert_unlabeled_refuses_a_label_that_is_not_a_str_before_any_change(bad, tmp_path):
    _, model, stream, index = labeled_setup(8)
    before = copy.deepcopy(index)
    # A staged row on each side: the refusal leaves the stage as it was.
    for target in (index, before):
        target.insert_unlabeled(1, stream[0][0], model)
    with pytest.raises(ValueError, match="is not a str"):
        index.insert_unlabeled(2, stream[1][0], model, label=bad)
    assert same_bits(index.arrays(), before.arrays()) and index.labels[-1] is None
    index.insert_unlabeled(2, stream[1][0], model, label="c1")
    save_index(index, tmp_path / "i.index")
    assert load_index(tmp_path / "i.index").labels[-2:] == [None, "c1"]


def test_insert_labeled_many_of_an_empty_block_changes_nothing():
    matrix, _, _, index = labeled_setup(8)
    for target in (index, HashIndex()):
        before = copied_arrays(target)
        target.insert_labeled_many([], [], matrix)
        assert same_bits(target.arrays(), before)


def test_every_row_of_an_index_shares_one_k():
    matrix, cb, model, stream = small_stream(k=8)
    other, other_cb, other_model, _ = small_stream(k=4)
    step(model, matrix, cb, *stream[0])
    step(other_model, other, other_cb, *stream[0])
    X = [x for x, _ in stream[:3]]
    phis, codewords = HashIndex(), HashIndex()
    phis.insert_many(range(3), X, model)
    codewords.insert_labeled(0, stream[0][1], matrix)
    for index in (phis, codewords):
        before = copied_arrays(index)
        with pytest.raises(ConsistencyError):
            index.insert_many([10, 11], X[:2], other_model)
        with pytest.raises(ConsistencyError):
            index.insert_labeled(12, stream[0][1], other)
        assert same_arrays(copied_arrays(index), before)
    # The rows' k is the index's k until the last row goes, however it was set.
    assert int(phis.arrays()["k"]) == int(codewords.arrays()["k"]) == 8


def test_same_cycle_labels_get_distinct_codes():
    matrix, cb, model, stream = small_stream(n_labels=2, rho=2)
    step(model, matrix, cb, stream[0][0], "c0")
    step(model, matrix, cb, stream[1][0], "c1")
    a = matrix.find("c0")
    b = matrix.find("c1")
    assert a.mask == b.mask
    assert a.values != b.values


def test_insert_unlabeled_all_active():
    matrix, cb, model, stream = small_stream(k=8)
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_unlabeled(3, stream[0][0], model)
    e = index.entries[0]
    assert e.mode == MODE_PHI
    assert e.code.active_count() == 8
    assert e.code.values == phi(model, stream[0][0])
    assert e.features is not None


def test_refresh_after_no_change_is_free():
    matrix, cb, model, stream = small_stream()
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_unlabeled(1, stream[0][0], model)
    assert index.refresh(model) == 0
    assert index.ledger.bit_updates_total == 0


def test_apply_counts_phi_entries_times_k():
    matrix, cb, model, stream = small_stream(k=4, rho=2, n_labels=2)
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    for i in range(10):
        index.insert_unlabeled(i, stream[i % len(stream)][0], model)
    report = step(model, matrix, cb, stream[1][0], stream[1][1])
    assert index.apply_model_update(report, model) == 10 * 4


def test_apply_with_no_phi_entries_is_free():
    matrix, cb, model, stream = small_stream()
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_labeled(1, stream[0][1], matrix)
    report = step(model, matrix, cb, stream[1][0], stream[1][1])
    assert index.apply_model_update(report, model) == 0


def test_eager_total_is_n_k_t():
    matrix, cb, model, stream = small_stream(n_labels=3, k=8, rho=4, steps=40)
    index = HashIndex()
    for i in range(12):
        index.insert_unlabeled(100 + i, stream[i][0], model)
    for x, y in stream:
        report = step(model, matrix, cb, x, y)
        index.apply_model_update(report, model)
    assert index.ledger.bit_updates_total == 12 * 8 * 40


def test_splice_matches_full_recompute():
    matrix, cb, model, stream = small_stream(n_labels=6, k=4, rho=2, steps=80)
    index = HashIndex()
    for i in range(15):
        index.insert_unlabeled(i, stream[i][0], model)
    dirty = set()
    for x, y in stream:
        report = step(model, matrix, cb, x, y)
        dirty.add(report.touched_columns.start // model.k + 1)
    index.refresh(model, cycles=sorted(dirty))
    for e in index.entries:
        assert e.code.values == phi(model, e.features)
        assert e.code.length == model.width


def test_flips_match_snapshot_diff():
    matrix, cb, model, stream = small_stream(n_labels=2, k=8, rho=2, steps=30)
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    for i in range(8):
        index.insert_unlabeled(i, stream[i][0], model)
    flips_oracle = 0
    for x, y in stream[1:]:
        before = [e.code.values.bits for e in index.entries]
        report = step(model, matrix, cb, x, y)
        index.apply_model_update(report, model)
        for old, e in zip(before, index.entries):
            flips_oracle += (old ^ e.code.values.bits).bit_count()
    assert index.ledger.flipped_bits_total == flips_oracle


def test_recompute_spans_that_straddle_words():
    # k=24: code positions [48, 72) of cycle 3 would cross words 0 and 1
    # back to back; as slot rows, each cycle is one 4-byte item with a byte
    # of padding, in its own row of the phi block.
    matrix, cb, model, stream = small_stream(n_labels=5, k=24, rho=1, steps=40)
    step(model, matrix, cb, stream[0][0], stream[0][1])
    eager, late = HashIndex(), HashIndex()
    for i, (x, _) in enumerate(stream[:9]):
        eager.insert_unlabeled(i, x, model)
        late.insert_unlabeled(i, x, model)
    flips_oracle = 0
    dirty = set()
    for x, y in stream[1:]:
        before = [e.code.values.bits for e in eager.entries]
        width = model.width
        report = step(model, matrix, cb, x, y)
        eager.apply_model_update(report, model)
        dirty.add(matrix.cycle_of_label[y])
        for old, e in zip(before, eager.entries):
            flips_oracle += ((old ^ e.code.values.bits) & ((1 << width) - 1)).bit_count()
    assert model.width == 120
    late.refresh(model, cycles=sorted(dirty))
    assert eager.ledger.flipped_bits_total == flips_oracle
    for a, b in zip(eager.entries, late.entries):
        assert a.code == b.code
        assert a.code.values == phi(model, a.features)


@pytest.mark.parametrize("k", [5, 8, 24, 32, 64, 70])
def test_refresh_of_any_set_of_cycles_rewrites_the_same_bits(k):
    # Each subset of six cycles rewrites its slots, and only them: a padded
    # byte (k=5), a full byte (8), 4 bytes with one of padding (24), half a
    # word (32), a word (64) or two words with padding (70).
    matrix, cb, model, stream = small_stream(n_labels=6, k=k, rho=1, steps=12)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many(range(12), [x for x, _ in stream], model)
    want = [phi(model, x) for x, _ in stream]
    for subset in range(1, 1 << 6):
        cycles = [j + 1 for j in range(6) if subset >> j & 1]
        assert index.refresh(model, cycles) == 12 * k * len(cycles)
        assert [e.code.values for e in index.entries] == want
    assert index.ledger.flipped_bits_total == 0


@pytest.mark.parametrize("k", [5, 8, 12, 24, 32, 64, 70, 72])
def test_recompute_writes_only_the_listed_cycles_slots(k, tmp_path):
    # Slots of 1, 1, 2, 4, 4, 8, 2 x 8 and 2 x 8 bytes. All four cycles move,
    # and a refresh of cycles 2 and 4 writes their bits and no other; flips
    # are the snapshot's diff in those cycles, and the slots' padding stays
    # clear, as the loader checks.
    matrix, cb, model, stream = small_stream(n_labels=4, k=k, rho=1, steps=12)
    for x, y in stream[:4]:
        step(model, matrix, cb, x, y)
    X, moves = np.split(np.random.default_rng(k).standard_normal((20, 6)), [12])
    index = HashIndex()
    index.insert_many(range(12), X, model)
    before = [phi(model, x).bits for x in X]
    # Random points under the four labels violate their margins, so every cycle moves.
    for x, (_, y) in zip(moves, stream[4:]):
        step(model, matrix, cb, x, y)
    after = [phi(model, x).bits for x in X]
    listed = ((1 << k) - 1) << k | ((1 << k) - 1) << 3 * k
    assert index.refresh(model, [2, 4]) == 12 * k * 2
    assert [e.code.values.bits for e in index.entries] == [
        b & ~listed | a & listed for b, a in zip(before, after)]
    assert any((b ^ a) & ~listed for b, a in zip(before, after))
    flips = sum(((b ^ a) & listed).bit_count() for b, a in zip(before, after))
    assert flips and index.ledger.flipped_bits_total == flips
    save_index(index, tmp_path / "i.index")
    assert [e.code for e in load_index(tmp_path / "i.index").entries] == \
        [e.code for e in index.entries]


def test_recompute_scores_one_c_ordered_weight_block(monkeypatch):
    # For small blocks BLAS multiplies Xa @ W.T faster when W.T is C-ordered.
    # A recompute copies its cycles' weights into one such block; a row slice
    # of the weights, or a concatenation of them, would be F-ordered. Queries
    # score against the weights themselves, with no copy, and staged rows
    # against the copy their stage took at insert.
    calls = []

    def spy(W, Xa, *args, **kwargs):
        calls.append((W, np.shares_memory(W, model.weights)))
        return exact_signs(W, Xa, *args, **kwargs)

    monkeypatch.setattr("ecochash.index.exact_signs", spy)
    matrix, cb, model, stream = small_stream(n_labels=4, k=24, rho=1, steps=6)
    for x, y in stream[:3]:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many(range(5), [x for x, _ in stream[:5]], model)
    before = copy.deepcopy(model)
    report = step(model, matrix, cb, *stream[3])
    assert not calls
    # The recompute scores the staged rows first, against their stage's copy.
    index.apply_model_update(report, model)
    index.refresh(model, cycles=[1, 3])
    index.query(model, stream[0][0])
    assert [weights for _, weights in calls] == [False, False, False, True]
    assert np.array_equal(calls[0][0], before.weights)
    assert not np.array_equal(calls[0][0], model.weights)
    spans = [report.touched_columns, [*range(24), *range(48, 72)]]
    for (W, _), columns in zip(calls[1:3], spans):
        assert W.T.flags.c_contiguous
        assert np.array_equal(W, model.weights[columns])


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_phi_rows_are_phi_bits_back_to_back_when_k_fills_its_slot(k):
    # At these k a slot is the cycle's bits, so a row's slots in cycle order
    # are the code's bytes: at width 96 and k=32 a row is 12 bytes.
    matrix, cb, model, stream = small_stream(n_labels=3, k=k, rho=1, steps=9)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many(range(9), [x for x, _ in stream], model)
    report = step(model, matrix, cb, *stream[0])
    index.apply_model_update(report, model)
    want = [phi(model, x).bits.to_bytes(model.width // 8, "little") for x, _ in stream]
    assert index.arrays()["values"].shape == (9, model.width // 8)
    assert [row.tobytes() for row in index.arrays()["values"]] == want


@pytest.mark.parametrize("columns", [range(3, 11), range(0, 4), range(0, 16), range(0, 16, 2)])
def test_apply_rejects_a_report_that_is_not_one_cycle(columns):
    matrix, cb, model, stream = small_stream(n_labels=2, k=8, rho=1)
    for x, y in stream[:2]:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many(range(4), [x for x, _ in stream[:4]], model)
    before = copied_arrays(index)
    report = StepReport(label="c0", touched_columns=columns, surrogate_loss_before=0.0,
                        new_cycle_started=False, is_new_label=False)
    with pytest.raises(ConsistencyError):
        index.apply_model_update(report, model)
    assert same_arrays(copied_arrays(index), before)


def test_new_cycle_extension_not_counted_as_flip():
    matrix, cb, model, _ = small_stream(n_labels=4, k=8, rho=1)
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(6)
    step(model, matrix, cb, x0, "c0")
    index = HashIndex()
    index.insert_unlabeled(0, x0, model)
    assert index.entries[0].code.length == 8
    # "c1" opens cycle 2; only the 8 new columns are touched, and those
    # positions did not exist before, so no flips can be charged
    report = step(model, matrix, cb, rng.standard_normal(6), "c1")
    assert report.new_cycle_started
    bits = index.apply_model_update(report, model)
    assert bits == 8
    assert index.entries[0].code.length == 16
    assert index.ledger.flipped_bits_total == 0


def test_refresh_counts_flips_over_widths_before_the_call():
    matrix, cb, model, _ = small_stream(n_labels=4, k=8, rho=1)
    rng = np.random.default_rng(5)
    step(model, matrix, cb, rng.standard_normal(6), "c0")
    index = HashIndex()
    for i in range(20):
        index.insert_unlabeled(i, rng.standard_normal(6), model)
    report = step(model, matrix, cb, rng.standard_normal(6), "c1")
    assert report.new_cycle_started
    # Cycle 1's functions did not move, so recomputing it flips nothing;
    # cycle 2 is appended after it in the same call and did not exist before.
    assert index.refresh(model, cycles=[1]) == 20 * 16
    assert index.ledger.flipped_bits_total == 0


def test_phi_insert_after_a_new_cycle_joins_the_stale_block():
    matrix, cb, model, _ = small_stream(n_labels=4, k=8, rho=1)
    rng = np.random.default_rng(5)
    step(model, matrix, cb, rng.standard_normal(6), "c0")
    index = HashIndex()
    for i in range(3):
        index.insert_unlabeled(i, rng.standard_normal(6), model)
    old = HashModel(d=6, k=8, weights=model.weights.copy())
    assert step(model, matrix, cb, rng.standard_normal(6), "c1").new_cycle_started
    x = rng.standard_normal(6)
    index.insert_unlabeled(3, x, model)
    # The new row holds the first 8 of the model's 16 columns, as the others do.
    assert [e.code.length for e in index.entries] == [8] * 4
    assert index.entries[3].code.values == phi(old, x)
    # Catching up the appended cycle charges every row, the new one included.
    assert index.refresh(model) == 4 * 8
    assert index.entries[3].code.values == phi(model, x)
    assert index.ledger.bit_updates_total == 4 * 8


def test_phi_insert_with_a_model_narrower_than_the_block_raises():
    matrix, cb, model, _ = small_stream(n_labels=4, k=8, rho=1)
    rng = np.random.default_rng(5)
    step(model, matrix, cb, rng.standard_normal(6), "c0")
    narrow = HashModel(d=6, k=8, weights=model.weights.copy())
    step(model, matrix, cb, rng.standard_normal(6), "c1")
    index = HashIndex()
    index.insert_unlabeled(0, rng.standard_normal(6), model)
    with pytest.raises(ConsistencyError):
        index.insert_unlabeled(1, rng.standard_normal(6), narrow)
    assert len(index) == 1


@pytest.mark.parametrize("bad_id", [-3, 1 << 64])
def test_ids_outside_64_bits_are_rejected_before_any_change(bad_id):
    matrix, cb, model, stream = small_stream()
    x, y = stream[0]
    step(model, matrix, cb, x, y)
    index = HashIndex()
    with pytest.raises(ValueError):
        index.insert_labeled(bad_id, y, matrix)
    with pytest.raises(ValueError):
        index.insert_unlabeled(bad_id, x, model)
    assert len(index) == 0
    index.insert_labeled((1 << 64) - 1, y, matrix)
    index.insert_unlabeled(0, x, model)
    assert [e.id for e in index.entries] == [(1 << 64) - 1, 0]


def test_entries_is_a_snapshot():
    matrix, cb, model, stream = small_stream()
    step(model, matrix, cb, stream[0][0], stream[0][1])
    index = HashIndex()
    index.insert_unlabeled(0, stream[0][0], model)
    index.entries[0].code = matrix.find(stream[0][1])
    index.entries[0].features[:] = 0.0
    e = index.entries[0]
    assert e.code.values == phi(model, stream[0][0])
    assert np.array_equal(e.features, stream[0][0])


def test_query_empty_index():
    model = HashModel.create(d=3, k=4, seed=0)
    assert HashIndex().query(model, np.zeros(3)) == []


def test_query_ranking_matches_naive_sort():
    matrix, cb, model, stream = small_stream(n_labels=5, k=8, rho=2, steps=60)
    index = HashIndex()
    for i, (x, y) in enumerate(stream):
        step(model, matrix, cb, x, y)
        if i % 2 == 0:
            index.insert_labeled(i, y, matrix)
    index2 = HashIndex()
    for i, (x, y) in enumerate(stream):
        if i % 3 == 0:
            index2.insert_unlabeled(i, x, model)
    for probe, _ in stream[:10]:
        for idx in (index, index2):
            got = idx.query(model, probe)
            q = phi(model, probe)
            naive = sorted(
                ((hamming_masked(q, e.code.pad_to(q.length)), pos, e.id)
                 for pos, e in enumerate(idx.entries)),
                key=lambda t: (t[0], t[1]))
            assert got == [(id_, d) for d, _, id_ in naive]


def test_query_self_is_nearest_among_phi():
    matrix, cb, model, stream = small_stream(n_labels=3, k=8, rho=4, steps=30)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    for i, (x, _) in enumerate(stream[:10]):
        index.insert_unlabeled(i, x, model)
    results = index.query(model, stream[4][0])
    assert results[0][1] == 0
    assert 4 in [id_ for id_, d in results if d == 0]


def test_query_top_n():
    matrix, cb, model, stream = small_stream()
    for x, y in stream[:10]:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    for i, (x, _) in enumerate(stream[:10]):
        index.insert_unlabeled(i, x, model)
    full = index.query(model, stream[0][0])
    assert index.query(model, stream[0][0], top_n=3) == full[:3]


def query_error(index, model, x):
    """The (class, message) of the error every query route raises for ``x``.

    ``query`` and ``all_distances`` take the one-row case, ``query_many`` of
    one row too, and ``query_many`` of two copies the block kernel; all four
    must raise one class with one message.
    """
    raised = set()
    for route in (lambda: index.query(model, x), lambda: index.all_distances(model, x),
                  lambda: list(index.query_many(model, [x])),
                  lambda: list(index.query_many(model, [x, x]))):
        with pytest.raises(Exception) as info:
            route()
        raised.add((info.type, str(info.value)))
    assert len(raised) == 1, raised
    return raised.pop()


def test_query_rejects_wider_entry():
    matrix, cb, model, stream = small_stream(n_labels=4, k=4, rho=1)
    step(model, matrix, cb, stream[0][0], "c0")
    step(model, matrix, cb, stream[1][0], "c1")
    index = HashIndex()
    index.insert_labeled(0, "c1", matrix)
    narrow = HashModel.create(d=6, k=4, seed=0)
    assert query_error(index, narrow, stream[0][0]) == (
        ConsistencyError, "an entry is wider (8) than the model (4)")
    # A phi entry wider than the model, too.
    index = HashIndex()
    index.insert_unlabeled(0, stream[0][0], model)
    assert query_error(index, narrow, stream[0][0]) == (
        ConsistencyError, "an entry is wider (8) than the model (4)")


def test_query_rejects_a_model_of_another_k():
    # Codeword rows of a k=8 matrix, 32 bits wide, ranked with a k=16 model
    # 48 bits wide: the width check passes, but the rows' cycle blocks are
    # not the model's, so every ranking path raises.
    matrix, cb, small, stream = small_stream(n_labels=4, k=8, rho=1)
    other, other_cb, model, _ = small_stream(k=16, rho=1)
    index = HashIndex()
    for i, (x, y) in enumerate(stream[:4]):
        step(small, matrix, cb, x, y)
        index.insert_labeled(i, y, matrix)
    for x, y in stream[:3]:
        step(model, other, other_cb, x, y)
    assert (matrix.width, model.width) == (32, 48)
    x = stream[0][0]
    assert query_error(index, model, x) == (
        ConsistencyError, "the index's rows have k=8, the model k=16")
    with pytest.raises(ConsistencyError):
        retrieval_map(index, model, [x], ["c0"])


@pytest.mark.parametrize("call", ["refresh", "apply_steps", "apply_model_update", "query",
                                  "query_many", "retrieval_map", "insert_unlabeled"])
def test_a_model_of_another_d_is_refused_before_any_change(call):
    # Phi rows of d=4 and a codeword row, and a model of d=6 with their k and width:
    # every call that takes the model refuses it with one class and one message.
    matrix, cb, model, stream = small_stream(n_labels=4, k=8, rho=2, d=4, steps=8)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many([0, 1, 2], [x for x, _ in stream[:3]], model, ["c0", None, "c2"])
    index.insert_labeled(3, "c1", matrix)
    other = HashModel(6, 8, np.random.default_rng(1).standard_normal((model.width, 7)))
    assert (model.width, other.width) == (16, 16)
    before = copy.deepcopy(index)
    # A staged row on each side: the refusal leaves the stage as it was.
    for twin in (index, before):
        twin.insert_unlabeled(4, stream[3][0], model)
    q = np.linspace(-1.0, 1.0, 6)
    calls = {
        "refresh": lambda: index.refresh(other, [1]),
        "apply_steps": lambda: index.apply_steps(other, [1, 2]),
        "apply_model_update": lambda: index.apply_model_update(
            StepReport("c0", range(8, 16), 0.0, False, False), other),
        "query": lambda: index.query(other, q),
        "query_many": lambda: list(index.query_many(other, [q, q])),
        "retrieval_map": lambda: retrieval_map(index, other, [q], ["c0"]),
        # The row has the index's length, so only the model is at fault.
        "insert_unlabeled": lambda: index.insert_unlabeled(9, stream[4][0], other),
    }
    with pytest.raises(DimensionError, match=re.escape(
            "model d=6 does not match feature length 4 of the existing phi entries")) as info:
        calls[call]()
    assert info.type is DimensionError
    assert index.feature_sq_norm_bound == before.feature_sq_norm_bound
    assert vars(index.ledger) == vars(before.ledger)
    assert same_bits(index.arrays(), before.arrays())


def test_refresh_with_a_model_of_another_k_on_codeword_rows_is_refused():
    # Codeword rows only: nothing to recompute, but the model's k is still not the rows'.
    matrix, cb, small, stream = small_stream(n_labels=4, k=8, rho=1)
    index = HashIndex()
    for i, (x, y) in enumerate(stream[:4]):
        step(small, matrix, cb, x, y)
        index.insert_labeled(i, y, matrix)
    other = HashModel(6, 4, np.zeros((matrix.width, 7)))
    before = copied_arrays(index)
    with pytest.raises(ConsistencyError, match=re.escape(
            "the index's rows have k=8, the model k=4")):
        index.refresh(other)
    assert same_bits(index.arrays(), before)


@pytest.mark.parametrize("call", ["refresh", "apply_steps", "apply_model_update"])
def test_maintenance_refuses_a_model_narrower_than_the_phi_rows_with_one_message(call):
    # Phi rows two cycles wide and a one-cycle model of their k and d: each
    # maintenance call refuses it with the same message, before its own checks.
    matrix, cb, model, stream = small_stream(n_labels=4, k=8, rho=2, d=4, steps=8)
    for x, y in stream:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many([0, 1], [x for x, _ in stream[:2]], model)
    narrow = HashModel(4, 8, model.weights[:8])
    assert (model.width, narrow.width) == (16, 8)
    before = copy.deepcopy(index)
    calls = {
        "refresh": lambda: index.refresh(narrow, [1]),
        "apply_steps": lambda: index.apply_steps(narrow, [1]),
        "apply_model_update": lambda: index.apply_model_update(
            StepReport("c0", range(0, 8), 0.0, False, False), narrow),
    }
    with pytest.raises(ConsistencyError, match=re.escape(
            "an entry is wider (16) than the model (8)")):
        calls[call]()
    assert vars(index.ledger) == vars(before.ledger)
    assert same_bits(index.arrays(), before.arrays())


def test_query_allows_stale_narrow_entries():
    matrix, cb, model, stream = small_stream(n_labels=4, k=4, rho=1, steps=40)
    step(model, matrix, cb, stream[0][0], "c0")
    index = HashIndex()
    index.insert_unlabeled(0, stream[0][0], model)
    # model grows two more cycles; no refresh between
    step(model, matrix, cb, stream[1][0], "c1")
    step(model, matrix, cb, stream[2][0], "c2")
    assert model.width == 12
    results = index.query(model, stream[0][0])
    # the entry's 4 stored columns still score; missing ones read inactive
    assert len(results) == 1
    assert results[0][1] <= 4


def mixed_index(n_labels=10, k=8, d=6):
    """Phi rows and codeword rows of several widths, all narrower than the model.

    rho=1 opens a cycle per label, so the model ends 88 bits wide, past one
    64-bit word, and no entry is refreshed to that width.
    """
    matrix, cb, model, stream = small_stream(n_labels=n_labels, k=k, rho=1, d=d,
                                             steps=3 * n_labels)
    index = HashIndex()
    for i, (x, y) in enumerate(stream):
        step(model, matrix, cb, x, y)
        if i == n_labels // 2:
            for j, (xp, yp) in enumerate(stream[:12]):
                index.insert_unlabeled(100 + j, xp, model, label=yp)
        if i % 3 == 0 and i < 2 * n_labels - 2:
            index.insert_labeled(i, y, matrix)
    step(model, matrix, cb, stream[0][0], "extra")
    return model, index, stream


def test_index_from_its_arrays_is_an_independent_copy():
    model, index, stream = mixed_index()
    copy = HashIndex(index.arrays())
    before = list(map(repr, index.entries))
    assert list(map(repr, copy.entries)) == before
    assert vars(copy.ledger) == vars(index.ledger)
    x = stream[0][0]
    assert copy.query(model, x) == index.query(model, x)
    copy.refresh(model, cycles=[1])
    copy.insert_unlabeled(999, x, model)
    assert list(map(repr, index.entries)) == before


def per_query(blocks):
    """``rank_blocks``' blocks as one ``(order, dists)`` pair per query."""
    return [pair for orders, dists in blocks for pair in zip(orders, dists)]


def test_rank_many_matches_naive_ranking_across_blocks(monkeypatch):
    import ecochash.index as index_mod
    model, index, stream = mixed_index()
    widths = {e.code.length for e in index.entries}
    assert len(widths) > 2 and max(widths) < model.width and model.width > 64
    blocks = []
    distances = HashIndex._distances

    def spy(self, model, block, *first):
        blocks.append(len(block))
        return distances(self, model, block, *first)

    monkeypatch.setattr(HashIndex, "_distances", spy)
    monkeypatch.setattr(index_mod, "_BLOCK_CELLS", 2 * len(index))
    probes = np.array([x for x, _ in stream[:7]])
    ranked = per_query(index.rank_blocks(model, probes))
    assert blocks == [2, 2, 2, 1]
    assert len(ranked) == len(probes)
    entries = index.entries
    for x, (order, dists) in zip(probes, ranked):
        q = phi(model, x)
        naive = [hamming_masked(q, e.code.pad_to(q.length)) for e in entries]
        assert dists.tolist() == naive
        assert order.tolist() == sorted(range(len(naive)), key=lambda i: (naive[i], i))
        assert index.query(model, x) == naive_ranking(index, model, x)


def test_rank_many_empty_index_and_no_queries():
    model = HashModel.create(d=3, k=4, seed=0)
    ranked = per_query(HashIndex().rank_blocks(model, np.ones((3, 3))))
    assert [(o.tolist(), d.tolist()) for o, d in ranked] == [([], [])] * 3
    assert list(HashIndex().query_many(model, np.ones((3, 3)))) == [[]] * 3
    model, index, _ = mixed_index()
    assert list(index.rank_blocks(model, np.zeros((0, model.d)))) == []
    assert list(index.query_many(model, np.zeros((0, model.d)))) == []


def test_distances_hold_widths_past_uint16():
    model = HashModel.create(d=1, k=65_600)
    index = HashIndex()
    index.insert_unlabeled(0, np.array([1.0]), model)
    # Every bit differs, which a uint16 accumulator would wrap to 64.
    assert index.all_distances(model, np.array([-1.0])).tolist() == [65_600]
    assert index.query(model, np.array([-1.0])) == [(0, 65_600)]


def test_query_own_label_first_when_trained():
    matrix, cb, model, stream = small_stream(n_labels=4, k=8, rho=4, steps=120)
    index = HashIndex()
    for i, (x, y) in enumerate(stream):
        step(model, matrix, cb, x, y)
    for i, (x, y) in enumerate(stream):
        index.insert_labeled(i, y, matrix)
    hits = 0
    for x, y in stream[-20:]:
        [(top_id, _)] = index.query(model, x, top_n=1)
        hits += stream[top_id][1] == y
    assert hits >= 18


def test_ledger_totals_consistent():
    matrix, cb, model, stream = small_stream(n_labels=3, k=8, rho=4, steps=30)
    index = HashIndex()
    for i in range(5):
        index.insert_unlabeled(i, stream[i][0], model)
    for x, y in stream:
        report = step(model, matrix, cb, x, y)
        index.apply_model_update(report, model)
    assert index.ledger.bit_updates_total == 5 * 8 * 30
    assert index.ledger.entries_touched_total == 5 * 30
    # A call that recomputes nothing records nothing.
    before = repr(index.ledger)
    assert index.refresh(model) == 0
    assert repr(index.ledger) == before


def cycle_report(k, cycle, new_cycle_started=False):
    return StepReport(label=None, touched_columns=range((cycle - 1) * k, cycle * k),
                      surrogate_loss_before=0.0, new_cycle_started=new_cycle_started,
                      is_new_label=False)


@pytest.mark.parametrize("k", [8, 12, 32, 72])
def test_apply_steps_equals_one_apply_model_update_per_cycle(k):
    # A byte slot, a padded 2-byte slot, half a word and two words with padding.
    matrix, cb, model, stream = small_stream(n_labels=6, k=k, rho=1, steps=12)
    for x, y in stream[:6]:
        step(model, matrix, cb, x, y)
    X = [x for x, _ in stream[:9]]
    many, one = HashIndex(), HashIndex()
    many.insert_many(range(9), X, model)
    one.insert_many(range(9), X, model)
    # One step of each of the six cycles, on an example their labels' rows misfit.
    for x, y in stream[6:]:
        step(model, matrix, cb, -x, y)
    assert many.apply_steps(model, [2, 6, 1, 4]) == 9 * k * 4
    for c in (2, 6, 1, 4):
        one.apply_model_update(cycle_report(k, c), model)
    assert same_arrays(copied_arrays(many), copied_arrays(one))
    assert many.ledger.bit_updates_total == 9 * k * 4
    assert many.ledger.entries_touched_total == 9 * 4
    assert many.ledger.flipped_bits_total > 0
    assert many.apply_steps(model, []) == 0
    assert same_arrays(copied_arrays(many), copied_arrays(one))


@pytest.mark.parametrize("k", [8, 12, 32, 72])
def test_rounds_through_apply_steps_equal_eager_steps(k):
    # Blocks open cycles mid-block; each round reaches the rows before the next.
    matrix, cb, model, stream = small_stream(n_labels=7, k=k, rho=2, steps=70)
    ref = copy.deepcopy((model, matrix, cb))
    X = [x for x, _ in stream[:10]]
    rounds, eager = HashIndex(), HashIndex()
    step(model, matrix, cb, *stream[0])
    step(*ref, *stream[0])
    rounds.insert_many(range(10), X, model)
    eager.insert_many(range(10), X, ref[0])
    for block in (stream[1:9], stream[9:40], stream[40:]):
        step_many(model, matrix, cb, [x for x, _ in block], [y for _, y in block],
                  after_round=lambda cycles: rounds.apply_steps(model, cycles))
        for x, y in block:
            eager.apply_model_update(step(*ref, x, y), ref[0])
    assert model.weights.tobytes() == ref[0].weights.tobytes() and matrix.m == 4
    assert same_arrays(copied_arrays(rounds), copied_arrays(eager))
    assert rounds.ledger.bit_updates_total == 69 * 10 * k
    assert rounds.ledger.entries_touched_total == 69 * 10


def test_apply_steps_refuses_a_bad_cycle_list_before_any_change():
    matrix, cb, model, stream = small_stream(n_labels=3, k=8, rho=1)
    for x, y in stream[:2]:
        step(model, matrix, cb, x, y)
    index = HashIndex()
    index.insert_many(range(4), [x for x, _ in stream[:4]], model)
    # Opens cycle 3, which the rows do not hold yet.
    step(model, matrix, cb, *stream[2])
    other, other_cb, other_model, _ = small_stream(k=4)
    step(other_model, other, other_cb, *stream[0])
    narrow = HashModel(model.d, 8, model.weights[:8])
    before = copied_arrays(index)
    for cycles in ([1, 3, 3], [0, 3], [3, 4], [1, 2], [], [1]):
        with pytest.raises(ConsistencyError):
            index.apply_steps(model, cycles)
    for wrong in (other_model, narrow):
        with pytest.raises(ConsistencyError):
            index.apply_steps(wrong, [1])
    assert same_arrays(copied_arrays(index), before)
    assert index.apply_steps(model, [3]) == 4 * 8
    assert index.arrays()["phi_width"] == 24


@pytest.mark.parametrize("k", [8, 70])
def test_apply_steps_counts_flips_whatever_the_order_of_its_cycles(k):
    # Rows one cycle behind, and a round that lists the new cycle first: flips
    # count only in the cycles the rows held, as for the sorted list.
    matrix, cb, model, stream = small_stream(n_labels=3, k=k, rho=1, steps=9)
    for x, y in stream[:2]:
        step(model, matrix, cb, x, y)
    X, moves = np.split(np.random.default_rng(k).standard_normal((10, 6)), [8])
    index = HashIndex()
    index.insert_many(range(8), X, model)
    before = [phi(model, x).bits for x in X]
    step(model, matrix, cb, *stream[2])
    for x, (_, y) in zip(moves, stream[:2]):
        step(model, matrix, cb, x, y)
    after = [phi(model, x).bits for x in X]
    held = (1 << 2 * k) - 1
    flips = sum(((b ^ a) & held).bit_count() for b, a in zip(before, after))
    assert flips and index.apply_steps(model, [3, 1, 2]) == 8 * k * 3
    assert index.ledger.flipped_bits_total == flips
    assert [e.code.values.bits for e in index.entries] == after


def test_negative_top_n_is_rejected():
    matrix, cb, model, stream = small_stream(n_labels=3, k=8, rho=4, steps=5)
    index = HashIndex()
    for i, (x, _) in enumerate(stream):
        index.insert_unlabeled(i, x, model)
    x_q = stream[0][0]
    assert index.query(model, x_q, top_n=0) == []
    assert [len(h) for h in index.query_many(model, [x_q, x_q], top_n=2)] == [2, 2]
    with pytest.raises(ValueError):
        index.query(model, x_q, top_n=-3)
    # Raised at the call, before anything is iterated.
    with pytest.raises(ValueError):
        index.query_many(model, [x_q], top_n=-1)
    # A top_n that is not an integer is refused the same way, not by the slice.
    for bad in (2.5, 2.0, "2", np.float64(2)):
        with pytest.raises(ValueError, match="top_n must be an integer >= 0"):
            index.query(model, x_q, top_n=bad)
        with pytest.raises(ValueError, match="top_n must be an integer >= 0"):
            index.query_many(model, [x_q], top_n=bad)
    assert index.query(model, x_q, top_n=np.int64(2)) == index.query(model, x_q)[:2]


def test_eager_final_state_equals_populate_after():
    matrix, cb, model, stream = small_stream(n_labels=5, k=8, rho=2, steps=60)
    eager = HashIndex()
    for i, (x, _) in enumerate(stream[:12]):
        eager.insert_unlabeled(i, x, model)
    for x, y in stream:
        report = step(model, matrix, cb, x, y)
        eager.apply_model_update(report, model)
    late = HashIndex()
    for i, (x, _) in enumerate(stream[:12]):
        late.insert_unlabeled(i, x, model)
    for a, b in zip(eager.entries, late.entries):
        assert a.code == b.code


OPS = ("insert_labeled", "insert_unlabeled", "step", "apply", "refresh", "roundtrip")


def naive_ranking(index, model, x):
    q = phi(model, x)
    rows = sorted((hamming_masked(q, e.code.pad_to(q.length)), pos, e.id)
                  for pos, e in enumerate(index.entries))
    return [(id_, d) for d, _, id_ in rows]


# k=24 gives slots of 4 bytes with one byte of padding, two to a word, so
# eager updates and multi-cycle refreshes write part of a word.
@pytest.mark.parametrize("k", [8, 24])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)),
                max_size=30))
def test_random_interleavings_keep_index_invariants(k, ops):
    # rho=1 opens a cycle per label, so widths pass 64 bits into a second word.
    d = 4
    matrix = new_matrix(k, 1)
    cb = generate(k, 64, seed=1)
    model = HashModel.create(d=d, k=k, seed=2)
    index = HashIndex()
    frozen = {}  # codeword entry id -> its codeword when inserted
    pending = set()  # cycles whose functions moved since they were last propagated
    report = None
    bits = flips = touched = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, (op, seed) in enumerate(ops):
            rng = np.random.default_rng(seed)
            before = index.entries
            phi_width = next((e.code.length for e in before if e.mode == MODE_PHI), None)
            recomputed = 0
            if op == "insert_labeled" and len(matrix):
                y = matrix.labels[seed % len(matrix)]
                index.insert_labeled(n, y, matrix)
                frozen[n] = matrix.find(y)
            elif op == "insert_unlabeled":
                # A phi block behind the model takes the row at its own width.
                index.insert_unlabeled(n, rng.standard_normal(d), model, label=f"c{seed % 12}")
            elif op == "step":
                report = step(model, matrix, cb, rng.standard_normal(d), f"c{seed % 12}")
                pending.add(matrix.cycle_of_label[report.label])
            elif op == "apply" and report is not None:
                span = report.touched_columns
                expected = model.width - len(span) if report.new_cycle_started else model.width
                if phi_width not in (None, expected):
                    with pytest.raises(ConsistencyError):
                        index.apply_model_update(report, model)
                else:
                    index.apply_model_update(report, model)
                    pending.discard(span.start // k + 1)
                    recomputed = 1
                report = None
            elif op == "refresh":
                old = phi_width if phi_width is not None else model.width
                appended = set(range(old // k + 1, model.width // k + 1))
                index.refresh(model, cycles=sorted(pending))
                recomputed = len(pending | appended)
                pending.clear()
                report = None
            elif op == "roundtrip":
                path = Path(tmp) / f"{n}.index"
                save_index(index, path)
                index = load_index(path)
            after = index.entries
            n_phi = sum(e.mode == MODE_PHI for e in before)
            bits += n_phi * k * recomputed
            touched += n_phi if recomputed else 0
            flips += sum(((a.code.values.bits ^ b.code.values.bits)
                          & ((1 << b.code.length) - 1)).bit_count()
                         for a, b in zip(after, before) if b.mode == MODE_PHI)
            assert index.ledger.bit_updates_total == bits
            assert index.ledger.flipped_bits_total == flips
            assert index.ledger.entries_touched_total == touched
            fresh = not pending and all(e.code.length == model.width
                                        for e in after if e.mode == MODE_PHI)
            for e in after:
                if e.mode == MODE_CODEWORD:
                    # A codeword entry ends with its cycle, however wide the matrix was.
                    assert e.code.length == k * matrix.cycle_of_label[e.label]
                    assert e.code.pad_to(frozen[e.id].length) == frozen[e.id]
                elif fresh:
                    assert e.code.values == phi(model, e.features)
            x_q = rng.standard_normal(d)
            assert index.query(model, x_q) == naive_ranking(index, model, x_q)


# Staging: phi inserts copy features in and are scored as one block at the first
# read of the bits, an insert under another model, or the model's next write.

STAGING_OPS = ("insert_row", "insert_block", "insert_codeword", "step", "step_many",
               "step_many_inserting", "apply_model_update", "apply_steps", "refresh",
               "query", "query_many", "entries", "save_load", "copy_index", "pickle_index",
               "copy_model", "pickle_model")


def outcome(call):
    """``call()``'s result, or the type of the exception it raised."""
    try:
        return call()
    except (ConsistencyError, ValueError) as error:
        return type(error)


@pytest.mark.parametrize("k", [5, 24, 70])
@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(STAGING_OPS), st.integers(0, 2**32 - 1),
                          st.booleans()), max_size=25))
def test_staged_inserts_match_a_twin_settled_after_each_insert(k, ops):
    # rho=2 over 8 labels opens cycles mid-stream, so staged rows meet growth.
    d = 4
    matrix, cb = new_matrix(k, 2), generate(k, min(64, 1 << (k - 1)), seed=1)
    model = HashModel.create(d=d, k=k, seed=2)
    lazy, twin = HashIndex(), HashIndex()
    report = None

    def insert(ids, X, labels=None):
        lazy.insert_many(ids, X, model, labels)
        twin.insert_many(ids, X, model, labels)
        twin.arrays()

    with tempfile.TemporaryDirectory() as tmp:
        for n, (op, seed, check) in enumerate(ops):
            rng = np.random.default_rng(seed)
            ids = [100 * n + j for j in range(1 + seed % 5)]
            X = rng.standard_normal((len(ids), d))
            ys = [f"c{v}" for v in rng.integers(0, 8, len(ids))]
            if op == "insert_row":
                lazy.insert_unlabeled(ids[0], X[0], model, ys[0])
                twin.insert_unlabeled(ids[0], X[0], model, ys[0])
                twin.arrays()
            elif op == "insert_block":
                insert(ids, X, ys)
            elif op == "insert_codeword" and len(matrix):
                labels = [matrix.labels[v % len(matrix)] for v in range(seed, seed + len(ids))]
                lazy.insert_labeled_many(ids, labels, matrix)
                twin.insert_labeled_many(ids, labels, matrix)
            elif op == "step":
                report = step(model, matrix, cb, X[0], ys[0])
            elif op == "step_many":
                step_many(model, matrix, cb, X, ys)
            elif op == "step_many_inserting":
                rows = iter(range(len(ids)))

                def after_round(cycles):
                    j = next(rows, None)
                    if j is not None:
                        insert([ids[j] + 50], X[j:j + 1] * 2.0)

                step_many(model, matrix, cb, X, ys, after_round=after_round)
            elif op == "apply_model_update" and report is not None:
                assert (outcome(lambda: lazy.apply_model_update(report, model))
                        == outcome(lambda: twin.apply_model_update(report, model)))
                report = None
            elif op in ("apply_steps", "refresh"):
                cycles = sorted({int(c) for c in rng.integers(1, model.width // k + 1, 2)})
                if op == "apply_steps":
                    held = int(twin.arrays()["phi_width"]) // k
                    cycles = sorted(set(cycles).union(range(held + 1, model.width // k + 1)))
                call = getattr(HashIndex, op)
                assert outcome(lambda: call(lazy, model, cycles)) == outcome(
                    lambda: call(twin, model, cycles))
            elif op == "query":
                assert lazy.query(model, X[0]) == twin.query(model, X[0])
            elif op == "query_many":
                assert list(lazy.query_many(model, X)) == list(twin.query_many(model, X))
            elif op == "entries":
                assert list(map(repr, lazy.entries)) == list(map(repr, twin.entries))
            elif op == "save_load":
                for i, index in enumerate((lazy, twin)):
                    save_index(index, Path(tmp) / f"{n}-{i}.index")
                lazy, twin = (load_index(Path(tmp) / f"{n}-{i}.index") for i in range(2))
            elif op == "copy_index":
                # With the model in one copy, the copies share a copy of it.
                lazy, twin, model = copy.deepcopy((lazy, twin, model))
            elif op == "pickle_index":
                lazy, twin, model = pickle.loads(pickle.dumps((lazy, twin, model)))
            elif op == "copy_model":
                model = copy.deepcopy(model)
            elif op == "pickle_model":
                model = pickle.loads(pickle.dumps(model))
            # Reads that score nothing; the ledger moves only at a recompute.
            assert vars(lazy.ledger) == vars(twin.ledger)
            assert len(lazy) == len(twin) and lazy.labels == twin.labels
            if check:
                assert same_bits(lazy.arrays(), twin.arrays())
                x_q = rng.standard_normal(d)
                assert lazy.query(model, x_q) == twin.query(model, x_q)
        assert same_bits(lazy.arrays(), twin.arrays())


def staged_setup(k=8, n_labels=4):
    matrix, cb, model, stream = small_stream(n_labels=n_labels, k=k, rho=1, steps=40)
    for x, y in stream[:n_labels]:
        step(model, matrix, cb, x, y)
    return matrix, cb, model, stream


def codes_of(index):
    return [e.code.values.bits for e in index.entries]


def test_two_indexes_staged_against_one_model_meet_its_weights_before_a_step():
    matrix, cb, model, stream = staged_setup()
    X = np.array([x for x, _ in stream[:6]])
    before = copy.deepcopy(model)
    one, two = HashIndex(), HashIndex()
    one.insert_many(range(3), X[:3], model)
    for i in range(6):
        two.insert_unlabeled(i, X[i], model)
    # Large steps against the labels' own examples move every cycle.
    for x, y in stream[4:8]:
        step(model, matrix, cb, -x, y, eta=10.0)
    assert codes_of(one) == [phi(before, x).bits for x in X[:3]]
    assert codes_of(two) == [phi(before, x).bits for x in X]
    assert codes_of(two) != [phi(model, x).bits for x in X]


@pytest.mark.parametrize("rounds", [False, True])
def test_step_many_scores_staged_rows_before_it_writes(rounds):
    # Without after_round the block writes once, at its end; with it, once per
    # round, and rows the callback inserts meet that round's weights.
    matrix, cb, model, stream = staged_setup()
    X = np.array([x for x, _ in stream[:6]])
    before = copy.deepcopy(model)
    index = HashIndex()
    index.insert_many(range(6), X, model)
    late, seen = [], []

    def after_round(cycles):
        seen.append(copy.deepcopy(model))
        index.insert_unlabeled(100 + len(late), X[len(late)] * 2.0, model)
        late.append(X[len(late)] * 2.0)

    block = stream[4:12]
    step_many(model, matrix, cb, [-x for x, _ in block], [y for _, y in block], eta=10.0,
              after_round=after_round if rounds else None)
    want = [phi(before, x).bits for x in X] + [phi(m, x).bits for m, x in zip(seen, late)]
    assert codes_of(index) == want
    assert want[:6] != [phi(model, x).bits for x in X]


def test_one_index_staged_against_two_models_in_turn():
    matrix, cb, model, stream = staged_setup()
    other = HashModel(model.d, model.k, model.weights * -1.0)
    X = np.array([x for x, _ in stream[:6]])
    index = HashIndex()
    index.insert_many(range(3), X[:3], model)
    # Another model object scores the rows staged against the first one.
    index.insert_many(range(3, 6), X[3:], other)
    first, second = copy.deepcopy((model, other))
    for x, y in stream[4:8]:
        step(model, matrix, cb, -x, y, eta=10.0)
        step(other, matrix, cb, -x, y, eta=10.0)
    assert codes_of(index) == ([phi(first, x).bits for x in X[:3]]
                               + [phi(second, x).bits for x in X[3:]])
    assert codes_of(index) != [phi(model, x).bits for x in X[:3]] + [phi(other, x).bits
                                                                      for x in X[3:]]


def test_staged_rows_follow_the_models_writes_not_its_iteration():
    # A caller may set the public iteration back after a step; the index tells
    # the weights apart by the model's own count of its writes.
    matrix, cb, model, stream = staged_setup()
    X = np.array([x for x, _ in stream[:6]])
    index = HashIndex()
    index.insert_many(range(3), X[:3], model)
    first, iteration = copy.deepcopy(model), model.iteration
    for x, y in stream[4:8]:
        step(model, matrix, cb, -x, y, eta=10.0)
    model.iteration = iteration
    index.insert_many(range(3, 6), X[3:], model)
    second = copy.deepcopy(model)
    for x, y in stream[4:8]:
        step(model, matrix, cb, x, y, eta=10.0)
    assert codes_of(index) == ([phi(first, x).bits for x in X[:3]]
                               + [phi(second, x).bits for x in X[3:]])
    assert [phi(first, x).bits for x in X] != [phi(second, x).bits for x in X]


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copy_of_a_staged_index_with_its_model_scores_the_inserted_weights(how):
    # The model's copy holds no index, so the index's copy holds scored rows.
    matrix, cb, model, stream = staged_setup()
    X = np.array([x for x, _ in stream[:6]])
    index = HashIndex()
    index.insert_many(range(6), X, model)
    before = copy.deepcopy(model)
    pair = (index, model)
    index, model = copy.deepcopy(pair) if how == "deepcopy" else pickle.loads(pickle.dumps(pair))
    for x, y in stream[4:8]:
        step(model, matrix, cb, -x, y, eta=10.0)
    assert codes_of(index) == [phi(before, x).bits for x in X]
    assert codes_of(index) != [phi(model, x).bits for x in X]


def test_an_index_dropped_while_staged_is_not_kept_alive():
    matrix, cb, model, stream = staged_setup()
    index = HashIndex()
    index.insert_unlabeled(0, stream[0][0], model)
    alive = weakref.ref(index)
    del index
    assert alive() is None
    step(model, matrix, cb, *stream[1])
    step_many(model, matrix, cb, [x for x, _ in stream[2:6]], [y for _, y in stream[2:6]])


@pytest.mark.parametrize("bad", ["feature", "weight"])
def test_a_non_finite_insert_is_refused_with_no_row_staged(bad):
    matrix, cb, model, stream = staged_setup()
    index = HashIndex()
    index.insert_many(range(3), [x for x, _ in stream[:3]], model)
    before = copied_arrays(index)
    x, target = stream[3][0].copy(), model
    if bad == "feature":
        x[2] = np.nan
        match = "row id 9 has a feature that is NaN or infinite"
    else:
        weights = model.weights.copy()
        weights[5, 1] = np.nan
        target = HashModel(model.d, model.k, weights)
        match = "a hash function's weight is NaN or infinite"
    with pytest.raises(ValueError, match=match):
        index.insert_unlabeled(9, x, target)
    assert len(index) == index.phi_count == 3
    assert same_bits(index.arrays(), before)
    assert index._staged is None
    step(model, matrix, cb, *stream[4])


def test_one_row_inserts_before_a_step_are_scored_in_one_call(monkeypatch):
    calls = []

    def spy(W, Xa, *args, **kwargs):
        calls.append(len(Xa))
        return exact_signs(W, Xa, *args, **kwargs)

    monkeypatch.setattr("ecochash.index.exact_signs", spy)
    matrix, cb, model, stream = staged_setup(k=32)
    X = np.random.default_rng(5).standard_normal((1500, model.d))
    index, twin = HashIndex(), HashIndex()
    for i, x in enumerate(X):
        index.insert_unlabeled(i, x, model)
    assert calls == []
    before = copy.deepcopy(model)
    step(model, matrix, cb, *stream[0])
    assert calls == []
    index.arrays()
    assert calls == [1500]
    twin.insert_many(range(1500), X, before)
    assert same_bits(index.arrays(), twin.arrays())


@pytest.mark.parametrize("call", ["refresh", "apply_steps"])
def test_a_cycle_that_is_not_an_integer_is_refused_before_any_change(call, tmp_path):
    matrix, cb, model, stream = small_stream(n_labels=2, k=8, rho=1, steps=4)
    step(model, matrix, cb, *stream[0])
    index = HashIndex()
    index.insert_many(range(3), [x for x, _ in stream[:3]], model)
    step(model, matrix, cb, *stream[1])
    assert index.arrays()["phi_width"] == 8 and model.width == 16
    before = copied_arrays(index)
    save_index(index, tmp_path / "before.index")
    with pytest.raises(ValueError if call == "refresh" else ConsistencyError):
        if call == "refresh":
            index.refresh(model, cycles=[1.5])
        else:
            index.apply_steps(model, [1.0, 2])
    assert same_bits(index.arrays(), before)
    save_index(index, tmp_path / "after.index")
    assert (tmp_path / "after.index").read_bytes() == (tmp_path / "before.index").read_bytes()
    loaded = load_index(tmp_path / "after.index")
    assert list(map(repr, loaded.entries)) == list(map(repr, index.entries))
