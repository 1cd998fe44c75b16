"""Ranking metrics and the stream-experiment harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecochash.errors import UndefinedAPError
from ecochash.evaluation import (CURVE_HEADER, CurvePoint, ExperimentConfig,
                                 average_precision, block_average_precision,
                                 derive_seed,
                                 make_gaussian_classes, mean_average_precision,
                                 retrieval_map, run_stream_experiment,
                                 write_curve_csv)
from ecochash.index import MODE_CODEWORD, MODE_PHI, HashIndex
from ecochash import evaluation
from ecochash.learner import BlockReport, HashModel, step, step_many


def textbook_ap(relevance):
    # independent oracle: running precision at each relevant rank,
    # averaged over the total number of relevant items
    total_rel = sum(relevance)
    hits = 0
    acc = 0.0
    for rank, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            acc += hits / rank
    return acc / total_rel


def test_ap_examples():
    assert average_precision([1, 1, 1]) == 1.0
    assert average_precision([0, 0, 1]) == pytest.approx(1 / 3)
    assert average_precision([1, 0, 1]) == pytest.approx((1.0 + 2 / 3) / 2)
    assert average_precision([0, 1, 0, 0]) == pytest.approx(0.5)


def test_ap_all_irrelevant_is_undefined():
    with pytest.raises(UndefinedAPError):
        average_precision([0, 0, 0])
    with pytest.raises(UndefinedAPError):
        average_precision([])


def test_ap_matches_textbook_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        rel = rng.integers(0, 2, size=rng.integers(1, 30))
        if not rel.any():
            continue
        assert average_precision(rel) == pytest.approx(textbook_ap(list(rel)))


def test_map_pools_queries():
    assert mean_average_precision([[1, 1], [1, 1]]) == 1.0
    assert mean_average_precision([[1, 0], [0, 1]]) == pytest.approx(0.75)


def test_map_skips_undefined_queries():
    assert mean_average_precision([[1, 1], [0, 0]]) == 1.0
    with pytest.raises(UndefinedAPError):
        mean_average_precision([[0, 0], [0]])


relevance_lists = st.lists(st.lists(st.booleans(), max_size=40), max_size=12)


@settings(max_examples=200, deadline=None)
@given(relevance_lists)
def test_block_ap_matches_textbook_oracle(lists):
    # Lists of unequal length, padded with False into one block.
    block = np.zeros((len(lists), max(map(len, lists), default=0)), dtype=bool)
    for row, rel in zip(block, lists):
        row[:len(rel)] = rel
    aps = block_average_precision(block)
    assert aps.shape == (len(lists),)
    for ap, rel in zip(aps, lists):
        if any(rel):
            assert ap == pytest.approx(textbook_ap(rel), rel=1e-12)
            assert ap == average_precision(rel)
        else:
            assert np.isnan(ap)
    defined = [textbook_ap(rel) for rel in lists if any(rel)]
    if defined:
        assert mean_average_precision(lists) == pytest.approx(np.mean(defined), rel=1e-12)
    else:
        with pytest.raises(UndefinedAPError):
            mean_average_precision(lists)


@settings(max_examples=50, deadline=None)
@given(relevance_lists, st.integers(0, 300))
def test_block_ap_ignores_trailing_false(lists, pad):
    width = max(map(len, lists), default=0)
    block = np.zeros((len(lists), width + pad), dtype=bool)
    for row, rel in zip(block, lists):
        row[:len(rel)] = rel
    narrow = block_average_precision(block[:, :width])
    wide = block_average_precision(block)
    assert narrow.tobytes() == wide.tobytes()


def test_block_ap_shapes():
    assert block_average_precision(np.zeros((0, 5), dtype=bool)).shape == (0,)
    assert np.isnan(block_average_precision(np.zeros((3, 0), dtype=bool))).all()
    with pytest.raises(ValueError):
        block_average_precision([True, False])  # a block is 2-D


def test_random_ranking_ap_near_class_prior():
    # 100 relevant of 1000: expectation sits just above 1/L = 0.1
    rng = np.random.default_rng(0)
    base = np.zeros(1000, dtype=bool)
    base[:100] = True
    aps = []
    for _ in range(300):
        rel = base.copy()
        rng.shuffle(rel)
        aps.append(average_precision(rel))
    assert 0.08 <= np.mean(aps) <= 0.13


def test_make_gaussian_classes_shape_and_balance():
    X, labels = make_gaussian_classes(4, 6, 103, seed=2)
    assert X.shape == (103, 6)
    assert len(labels) == 103
    counts = {y: labels.count(y) for y in set(labels)}
    assert set(counts) == {"c0", "c1", "c2", "c3"}
    assert max(counts.values()) - min(counts.values()) <= 1


def test_make_gaussian_classes_deterministic():
    a = make_gaussian_classes(3, 5, 50, seed=7)
    b = make_gaussian_classes(3, 5, 50, seed=7)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]
    c = make_gaussian_classes(3, 5, 50, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    seen = {derive_seed(42, t) for t in range(100)}
    assert len(seen) == 100
    assert derive_seed(41, 7) != derive_seed(42, 7)


def separable_setup():
    X, labels = make_gaussian_classes(2, 8, 600, separation=4.0, seed=3)
    tr, db, q = slice(0, 400), slice(400, 550), slice(550, 600)
    return ((X[tr], labels[tr]), (X[db], labels[db]), (X[q], labels[q]))


def test_codeword_mode_learns_separable_classes():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    cfg = ExperimentConfig(k=16, rho=4, orderings=2, seed=5)
    res = run_stream_experiment(trX, trY, dbX, dbY, qX, qY, cfg)
    assert res.mean_map >= 0.95
    assert len(res.per_ordering_map) == 2
    # codeword entries never move, so no maintenance bits are charged
    assert res.bit_updates_per_ordering == [0, 0]
    assert res.flipped_bits_per_ordering == [0, 0]


def test_untrained_model_scores_near_chance():
    X, labels = make_gaussian_classes(10, 32, 1500, separation=4.0, seed=42)
    tr, db, q = slice(0, 500), slice(500, 1300), slice(1300, 1500)
    cfg = ExperimentConfig(k=32, rho=10, eta=0.0, orderings=1, seed=42)
    res = run_stream_experiment(X[tr], labels[tr], X[db], labels[db],
                                X[q], labels[q], cfg)
    assert 0.05 <= res.mean_map <= 0.25


def test_experiment_is_deterministic():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    cfg = ExperimentConfig(k=8, rho=4, orderings=1, seed=9, checkpoint_every=100)
    a = run_stream_experiment(trX, trY, dbX, dbY, qX, qY, cfg)
    b = run_stream_experiment(trX, trY, dbX, dbY, qX, qY, cfg)
    assert a.per_ordering_map == b.per_ordering_map
    assert a.bit_updates_per_ordering == b.bit_updates_per_ordering
    assert [(p.ordering, p.iteration, p.bit_updates, p.map_value) for p in a.curve] \
        == [(p.ordering, p.iteration, p.bit_updates, p.map_value) for p in b.curve]


def test_default_pool_fits_a_small_k():
    # 3 classes would take 4 * 3 = 12 codes, but k=4 has only 2^3 to give.
    X, labels = make_gaussian_classes(3, 4, 120, separation=4.0, seed=2)
    tr, db, q = slice(0, 60), slice(60, 100), slice(100, 120)
    for mode in ("codeword", MODE_PHI):
        cfg = ExperimentConfig(k=4, rho=2, orderings=1, seed=2, mode=mode)
        res = run_stream_experiment(X[tr], labels[tr], X[db], labels[db],
                                    X[q], labels[q], cfg)
        assert 0.0 < res.mean_map <= 1.0


def test_eager_phi_bits_are_n_k_t():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    n, t = 30, 50
    cfg = ExperimentConfig(k=8, rho=4, orderings=1, seed=1, mode=MODE_PHI)
    res = run_stream_experiment(trX[:t], trY[:t], dbX[:n], dbY[:n], qX, qY, cfg)
    assert res.bit_updates_per_ordering == [n * 8 * t]


def test_batched_phi_skips_clean_cycles():
    """Smaller cycles converge and go clean, so their refreshes get skipped.

    10 classes make two cycles of 8 columns at rho=5 and one at rho=10, which
    is dirty at every refresh. Over experiment seeds 0-11, rho=5 recomputes
    about half as many bits per code column (a mean ratio of 0.48-0.51, and at
    most 0.73 for one seed, under five core-draw sequences).
    """
    X, labels = make_gaussian_classes(10, 16, 3000, separation=3.0, seed=21)
    tr, db, q = slice(0, 2000), slice(2000, 2500), slice(2500, 2600)
    per_column = {5: [], 10: []}
    maps = []
    for seed in range(12):
        for rho in (5, 10):
            cfg = ExperimentConfig(k=8, rho=rho, orderings=1, seed=seed,
                                   refresh_every=20, mode=MODE_PHI)
            res = run_stream_experiment(X[tr], labels[tr], X[db], labels[db],
                                        X[q], labels[q], cfg)
            per_column[rho].append(res.bit_updates_per_ordering[0] / (8 * -(-10 // rho)))
            maps.append(res.mean_map)
    ratio = np.array(per_column[5]) / np.array(per_column[10])
    assert np.count_nonzero(ratio < 1.0) >= 11
    assert ratio.mean() < 0.75
    assert min(maps) >= 0.5


def test_batched_phi_beats_eager_on_bits():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    eager = ExperimentConfig(k=8, rho=4, orderings=1, seed=2, mode=MODE_PHI)
    batched = ExperimentConfig(k=8, rho=4, orderings=1, seed=2, mode=MODE_PHI,
                               refresh_every=25)
    res_e = run_stream_experiment(trX, trY, dbX, dbY, qX, qY, eager)
    res_b = run_stream_experiment(trX, trY, dbX, dbY, qX, qY, batched)
    assert res_b.bit_updates_per_ordering[0] < res_e.bit_updates_per_ordering[0]


def test_low_rho_warns():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    cfg = ExperimentConfig(k=8, rho=2, orderings=1, seed=0)
    with pytest.warns(UserWarning, match="collide"):
        run_stream_experiment(trX[:40], trY[:40], dbX[:20], dbY[:20], qX, qY, cfg)


def test_threshold_rho_does_not_warn():
    import warnings
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    cfg = ExperimentConfig(k=8, rho=3, orderings=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_stream_experiment(trX[:40], trY[:40], dbX[:20], dbY[:20], qX, qY, cfg)


def test_checkpoint_rows():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    cfg = ExperimentConfig(k=8, rho=4, orderings=2, seed=4, checkpoint_every=10)
    res = run_stream_experiment(trX[:35], trY[:35], dbX[:30], dbY[:30], qX, qY, cfg)
    for o in range(2):
        its = [p.iteration for p in res.curve if p.ordering == o]
        assert its == [10, 20, 30, 35]
    # bit counters never decrease along an ordering
    for o in range(2):
        bits = [p.bit_updates for p in res.curve if p.ordering == o]
        assert bits == sorted(bits)


def test_curve_csv_format(tmp_path):
    points = [CurvePoint(0, 10, 800, 0.5, 0.123456),
              CurvePoint(0, 20, 1600, 1 / 3, 0.25)]
    path = tmp_path / "curve.csv"
    write_curve_csv(points, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    assert lines[1] == "0,10,800,0.500000,0.123"
    assert lines[2] == "0,20,1600,0.333333,0.250"


def test_retrieval_map_skips_label_free_entries():
    from ecochash.codebook import generate
    from ecochash.ecoc import new_matrix
    from ecochash.learner import step
    rng = np.random.default_rng(3)
    matrix = new_matrix(8, 2)
    cb = generate(8, 16, seed=0)
    model = HashModel.create(d=4, k=8, seed=0)
    xs = rng.standard_normal((6, 4))
    for i in range(6):
        step(model, matrix, cb, xs[i], "a" if i % 2 == 0 else "b")
    index = HashIndex()
    index.insert_unlabeled(0, xs[0], model, label="a")
    index.insert_unlabeled(1, xs[1], model, label=None)
    # the unlabeled entry can never be relevant, so one relevant item exists
    val = retrieval_map(index, model, xs[:1], ["a"])
    assert 0.0 < val <= 1.0
    with pytest.raises(UndefinedAPError):
        retrieval_map(index, model, xs[:1], ["zzz"])
    # nor does a query labelled None match the unlabeled entry
    with pytest.raises(UndefinedAPError):
        retrieval_map(index, model, xs[:1], [None])


def test_experiment_validates_inputs():
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    with pytest.raises(ValueError):
        run_stream_experiment(trX, trY[:-1], dbX, dbY, qX, qY,
                              ExperimentConfig(k=8, rho=4))
    with pytest.raises(ValueError):
        run_stream_experiment(trX, trY, dbX, dbY, qX, qY,
                              ExperimentConfig(k=8, rho=4, mode="nope"))
    with pytest.raises(ValueError):
        run_stream_experiment(trX, trY, dbX, dbY, qX, qY,
                              ExperimentConfig(k=8, rho=4, refresh_every=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", [MODE_CODEWORD, MODE_PHI])
@pytest.mark.parametrize("normalize", [True, False])
def test_experiment_refuses_an_empty_training_stream(mode, normalize):
    (trX, _), (dbX, dbY), (qX, qY) = separable_setup()
    with pytest.raises(ValueError, match="training stream is empty"):
        run_stream_experiment(trX[:0], [], dbX, dbY, qX, qY,
                              ExperimentConfig(k=8, rho=4, mode=mode, normalize=normalize))


@pytest.mark.parametrize("over", [{"orderings": 0}, {"orderings": -2},
                                  {"checkpoint_every": 0}, {"checkpoint_every": -5}])
def test_experiment_rejects_counts_below_one(over):
    (trX, trY), (dbX, dbY), (qX, qY) = separable_setup()
    with pytest.raises(ValueError):
        run_stream_experiment(trX, trY, dbX, dbY, qX, qY,
                              ExperimentConfig(k=8, rho=4, **over))


def experiment_and_state(monkeypatch, cfg, stepwise):
    """The experiment's result, each ordering's final weights and index arrays,
    and whether each block passed ``after_round``.

    ``stepwise`` runs the reference: one ``step`` per block of one example,
    which is the loop of ``step`` that blocks through ``step_many`` must
    equal, and in eager phi mode one ``apply_model_update`` after each step.
    """
    models, indexes, propagated = [], [], []

    def create(*args, **kwargs):
        models.append(HashModel.create(*args, **kwargs))
        return models[-1]

    def new_index():
        indexes.append(HashIndex())
        return indexes[-1]

    def loop_step_many(model, matrix, cb, X, labels, eta=1.0, after_round=None):
        """``step_many`` as a loop of ``step``; ``after_round`` as each step's own update."""
        reports = []
        for x, y in zip(X, labels):
            reports.append(step(model, matrix, cb, x, y, eta=eta))
            if after_round is not None:
                indexes[-1].apply_model_update(reports[-1], model)
        return BlockReport(
            np.array([r.touched_columns.start // matrix.k + 1 for r in reports], dtype=np.intp),
            np.array([r.surrogate_loss_before for r in reports]),
            np.array([r.is_new_label for r in reports], dtype=bool),
            np.array([r.new_cycle_started for r in reports], dtype=bool))

    def spied_step_many(*args, after_round=None, **kwargs):
        propagated.append(after_round is not None)
        return step_many(*args, after_round=after_round, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(evaluation, "HashModel", type("Models", (), {"create": staticmethod(create)}))
        m.setattr(evaluation, "HashIndex", new_index)
        m.setattr(evaluation, "step_many", loop_step_many if stepwise else spied_step_many)
        if stepwise:
            m.setattr(evaluation, "_block_ends", lambda T, *_: list(range(1, T + 1)))
        X, labels = make_gaussian_classes(12, 6, 260, separation=1.0, seed=8)
        res = run_stream_experiment(X[:150], labels[:150], X[150:230], labels[150:230],
                                    X[230:], labels[230:], cfg)
    arrays = [{f: np.array(v).tobytes() for f, v in index.arrays().items()} for index in indexes]
    return res, [w.weights.tobytes() for w in models], arrays, propagated


def assert_experiment_equals_a_loop_of_step(monkeypatch, cfg):
    got, got_w, got_index, propagated = experiment_and_state(monkeypatch, cfg, stepwise=False)
    want, want_w, want_index, _ = experiment_and_state(monkeypatch, cfg, stepwise=True)
    # Only eager phi mode propagates rounds; the other modes train as before.
    assert set(propagated) == {cfg.mode == MODE_PHI and cfg.refresh_every == 1}
    points = [[(p.ordering, p.iteration, p.bit_updates, p.map_value) for p in r.curve]
              for r in (got, want)]
    assert points[0] == points[1]
    every = cfg.checkpoint_every
    assert len(points[0]) == cfg.orderings * (1 + (149 // every if every else 0))
    assert got.per_ordering_map == want.per_ordering_map
    assert got.bit_updates_per_ordering == want.bit_updates_per_ordering
    assert got.flipped_bits_per_ordering == want.flipped_bits_per_ordering
    assert got_w == want_w and len(got_w) == cfg.orderings
    # Rows, slots and ledger totals, entries touched included.
    assert got_index == want_index and len(got_index) == cfg.orderings
    return got


@pytest.mark.parametrize("mode, refresh_every", [("codeword", 1), (MODE_PHI, 5),
                                                 (MODE_PHI, 13)])
@pytest.mark.parametrize("checkpoint_every", [None, 7, 10])
def test_blocks_of_steps_equal_a_loop_of_step(monkeypatch, mode, refresh_every,
                                              checkpoint_every):
    # rho=3 puts the 12 classes in 4 cycles, most of them opened mid-block.
    assert_experiment_equals_a_loop_of_step(monkeypatch, ExperimentConfig(
        k=8, rho=3, orderings=2, seed=3, mode=mode, refresh_every=refresh_every,
        checkpoint_every=checkpoint_every))


@pytest.mark.parametrize("k", [8, 12, 32, 72])
@pytest.mark.parametrize("checkpoint_every", [None, 7])
@pytest.mark.parametrize("eta", [0.0, 1.0])
@pytest.mark.filterwarnings("ignore:rho=2 is below")
def test_eager_rounds_equal_a_loop_of_step_and_apply(monkeypatch, k, checkpoint_every, eta):
    # A byte slot, a padded 2-byte slot, half a word and two words with padding.
    # rho=2, below the recommended rho on purpose, puts the 12 classes in 6
    # cycles, most of them opened mid-block; checkpoints split the blocks
    # that the rounds propagate.
    got = assert_experiment_equals_a_loop_of_step(monkeypatch, ExperimentConfig(
        k=k, rho=2, eta=eta, orderings=2, seed=5, mode=MODE_PHI, refresh_every=1,
        checkpoint_every=checkpoint_every))
    assert got.bit_updates_per_ordering == [150 * 80 * k] * 2
    assert (sum(got.flipped_bits_per_ordering) == 0) == (eta == 0.0)
