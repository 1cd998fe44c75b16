"""Retrieval quality and index-maintenance cost over online label streams.

Relevance is label equality: for a query of class y, exactly the indexed
items of class y count as hits. Average precision follows the ranked-list
convention, mean precision at the relevant ranks with the total number of
relevant items as denominator, so a random ranking scores near the class
prior and a perfect ranking scores 1.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .codebook import (default_capacity, generate, recommended_rho,
                       unique_bipartition_probability)
from .ecoc import Label, new_matrix
from .errors import UndefinedAPError
from .index import MODE_CODEWORD, MODE_PHI, HashIndex
# Nothing here calls ``step``; it stays a module name because the benchmark's
# tracer (perfbench/tracing.py) reads it from this ``__dict__``.
from .learner import FeatureNormalizer, HashModel, step, step_many  # noqa: F401


def derive_seed(seed: int, tag: int) -> int:
    """A serializable integer sub-seed, deterministic in (seed, tag)."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0])


def block_average_precision(relevance) -> np.ndarray:
    """AP of each row of a (queries, entries) relevance block in rank order.

    A row with no relevant entry gets NaN. Trailing False entries change nothing.
    """
    rel = np.asarray(relevance, dtype=bool)
    if rel.ndim != 2:
        raise ValueError(f"a relevance block is 2-D, not of shape {rel.shape}")
    # One flat scan: np.nonzero on a 2-D block took 7x as long at 43 x 1,500.
    rows, cols = np.divmod(np.flatnonzero(rel), rel.shape[1])
    totals = np.count_nonzero(rel, axis=1)
    # Each row's segment opens with a 0.0 slot: reduceat then adds the row's
    # precisions pairwise as np.sum does, and sums a row with no hit to 0.
    starts = np.cumsum(totals) - totals + np.arange(len(rel))
    at = np.arange(1, len(cols) + 1) + rows
    precisions = np.zeros(len(cols) + len(rel))
    precisions[at] = (at - starts[rows]) / (cols + 1)
    with np.errstate(invalid="ignore"):
        return np.add.reduceat(precisions, starts) / totals


def mean_defined(aps: np.ndarray) -> float:
    """Mean of the per-query APs that are not NaN; raises if none is."""
    defined = aps[~np.isnan(aps)]
    if not len(defined):
        raise UndefinedAPError(f"all {len(aps)} queries had zero relevant entries")
    return float(np.mean(defined))


def query_average_precisions(index: HashIndex, model: HashModel, queries,
                             query_labels) -> np.ndarray:
    """Each query's AP over the index's ranking, NaN where nothing is relevant.

    Rankings come in blocks from ``HashIndex.rank_blocks`` and use the
    index's own tie-breaking (insertion order). Unlabeled entries are
    never relevant, not even to a query labelled None.
    """
    # -1 marks unlabeled entries; -2, for a query label no entry has, matches nothing.
    codes: dict[Label, int] = {}
    entry_codes = np.array([-1 if y is None else codes.setdefault(y, len(codes))
                            for y in index.labels], dtype=np.int64)
    query_codes = np.array([codes.get(y, -2) for y in query_labels], dtype=np.int64)
    aps = np.full(len(query_codes), np.nan)
    done = 0
    for orders, _ in index.rank_blocks(model, queries):
        rows = slice(done, done + len(orders))
        aps[rows] = block_average_precision(entry_codes[orders] == query_codes[rows, None])
        done += len(orders)
    return aps


def retrieval_map(index: HashIndex, model: HashModel, queries,
                  query_labels) -> float:
    """mAP of an index under the current model.

    Queries whose class has no indexed member are skipped.
    """
    return mean_defined(query_average_precisions(index, model, queries, query_labels))


def make_gaussian_classes(n_classes: int, d: int, n_samples: int,
                          separation: float = 4.0, seed: int = 0):
    """Balanced isotropic Gaussian blobs labeled "c0" .. "c{n-1}".

    Class means are separation * N(0, I); samples add unit noise. Rows come
    back shuffled, so any prefix/suffix slicing is a random split.
    """
    if n_classes < 1 or d < 1 or n_samples < 1:
        raise ValueError("n_classes, d and n_samples must all be >= 1")
    rng = np.random.default_rng([seed, 13])
    means = separation * rng.standard_normal((n_classes, d))
    assign = np.arange(n_samples) % n_classes
    rng.shuffle(assign)
    X = means[assign] + rng.standard_normal((n_samples, d))
    labels = [f"c{i}" for i in assign]
    return X, labels


@dataclass
class ExperimentConfig:
    """Knobs for a stream experiment; defaults follow the library defaults.

    ``refresh_every`` controls hash-table maintenance in phi mode: 1 means
    every training step reaches the index before its cycle's next step,
    R > 1 means the index is refreshed every R steps, recomputing only the
    cycles whose functions changed since the last refresh (plus a closing
    refresh at stream end).
    """

    k: int
    rho: int | None = None
    eta: float = 1.0
    orderings: int = 5
    refresh_every: int = 1
    mode: str = MODE_CODEWORD
    seed: int = 0
    capacity: int | None = None
    checkpoint_every: int | None = None
    normalize: bool = True


@dataclass
class CurvePoint:
    ordering: int
    iteration: int
    bit_updates: int
    map_value: float
    wall_time_s: float


@dataclass
class ExperimentResult:
    per_ordering_map: list[float]
    mean_map: float
    curve: list[CurvePoint]
    bit_updates_per_ordering: list[int]
    flipped_bits_per_ordering: list[int]


def _checkpoint_map(index, model, queries, query_labels) -> float:
    try:
        return retrieval_map(index, model, queries, query_labels)
    except UndefinedAPError:
        return float("nan")


def _block_ends(T: int, *cadences: int | None) -> list[int]:
    """The iterations in 1..T after which a block of steps must stop: T and
    every multiple of each given cadence."""
    ends = {T} if T else set()
    for every in cadences:
        if every:
            ends.update(range(every, T, every))
    return sorted(ends)


def run_stream_experiment(train_X, train_labels, db_X, db_labels,
                          query_X, query_labels,
                          config: ExperimentConfig) -> ExperimentResult:
    """Train over several shuffles of a stream, measuring retrieval quality.

    Every ordering retrains from scratch under its own derived seeds. In
    codeword mode a database item enters the index once its label is first
    observed, with the other items of the block's new labels in one
    ``insert_labeled_many`` call, and its stored code never moves again; in
    phi mode the whole database is indexed up front and maintained as
    dictated by ``config.refresh_every``. Checkpoint rankings in batched mode see the
    index as it stands, stale cycles included, because that is what a
    caller querying between refreshes would see. Every mode trains through
    ``step_many``, in blocks that end at checkpoints and, in batched phi
    mode, at refresh points. With ``refresh_every=1`` each round of a block
    is propagated into the index (``HashIndex.apply_steps``) before the next
    round starts, so each step reaches the index before its cycle's next
    step, and the index and ledger end as with one ``apply_model_update``
    after each ``step``.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    db_X = np.asarray(db_X, dtype=np.float64)
    query_X = np.asarray(query_X, dtype=np.float64)
    for name, X, labels in (("training", train_X, train_labels),
                            ("database", db_X, db_labels), ("query", query_X, query_labels)):
        if len(labels) != X.shape[0]:
            raise ValueError(f"{name} labels do not match the {name} matrix")
    if not len(train_labels):
        raise ValueError("the training stream is empty: there is nothing to train on")
    if config.mode not in (MODE_CODEWORD, MODE_PHI):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.refresh_every < 1:
        raise ValueError("refresh_every must be >= 1")
    if config.orderings < 1:
        raise ValueError("orderings must be >= 1")
    if config.checkpoint_every is not None and config.checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1, or None for no checkpoints")
    rho = config.rho if config.rho is not None else recommended_rho(config.k)
    if rho < (config.k - 1).bit_length():
        p = unique_bipartition_probability(rho, config.k)
        warnings.warn(
            f"rho={rho} is below ceil(log2 k)={(config.k - 1).bit_length()}, "
            f"so k={config.k} random columns collide often (unique-bipartition "
            f"probability {p:.3g}); consider rho={recommended_rho(config.k)}")
    T, d = train_X.shape
    if config.normalize:
        norm = FeatureNormalizer.fit(train_X)
        train_X, db_X, query_X = map(norm.transform_many, (train_X, db_X, query_X))
    capacity = config.capacity
    if capacity is None:
        capacity = default_capacity(len(set(train_labels)), config.k)

    per_map: list[float] = []
    curve: list[CurvePoint] = []
    bits_per: list[int] = []
    flips_per: list[int] = []
    for o in range(config.orderings):
        t0 = time.perf_counter()
        perm = np.random.default_rng([config.seed, 11, o]).permutation(T)
        cb = generate(config.k, capacity, derive_seed(config.seed, 1000 + o))
        matrix = new_matrix(config.k, rho)
        model = HashModel.create(d, config.k, seed=derive_seed(config.seed, 2000 + o))
        index = HashIndex()
        pending: dict[Label, list[int]] = {}
        if config.mode == MODE_PHI:
            index.insert_many(range(len(db_X)), db_X, model, db_labels)
        else:
            for i, y in enumerate(db_labels):
                pending.setdefault(y, []).append(i)
        batched = config.mode == MODE_PHI and config.refresh_every > 1
        # Eager mode propagates each round's steps before their cycles' next step.
        propagate = ((lambda cycles: index.apply_steps(model, cycles))
                     if config.mode == MODE_PHI and not batched else None)
        dirty: set[int] = set()
        done = 0
        for it in _block_ends(T, config.checkpoint_every,
                              config.refresh_every if batched else None):
            block = perm[done:it]
            ys = [train_labels[src] for src in block]
            report = step_many(model, matrix, cb, train_X[block], ys, eta=config.eta,
                               after_round=propagate)
            if config.mode == MODE_CODEWORD:
                # The database rows of the block's new labels, in the order they arrived.
                ids, labels = [], []
                for y in compress(ys, report.new_labels):
                    rows = pending.pop(y, ())
                    ids += rows
                    labels += [y] * len(rows)
                index.insert_labeled_many(ids, labels, matrix)
            elif batched:
                dirty.update(report.cycles[report.surrogate_losses_before > 0.0].tolist())
                if it % config.refresh_every == 0:
                    index.refresh(model, cycles=sorted(dirty))
                    dirty.clear()
            if (config.checkpoint_every and it % config.checkpoint_every == 0
                    and it != T):
                curve.append(CurvePoint(
                    o, it, index.ledger.bit_updates_total,
                    _checkpoint_map(index, model, query_X, query_labels),
                    time.perf_counter() - t0))
            done = it
        if batched:
            index.refresh(model, cycles=sorted(dirty))
        final_map = _checkpoint_map(index, model, query_X, query_labels)
        per_map.append(final_map)
        bits_per.append(index.ledger.bit_updates_total)
        flips_per.append(index.ledger.flipped_bits_total)
        curve.append(CurvePoint(o, T, index.ledger.bit_updates_total, final_map,
                                time.perf_counter() - t0))
    return ExperimentResult(per_map, float(np.mean(per_map)), curve,
                            bits_per, flips_per)


CURVE_HEADER = "ordering,iteration,bit_updates,map,wall_time_s"


def write_curve_csv(points, path) -> None:
    """Write checkpoint rows; all columns except wall_time_s are exact."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(CURVE_HEADER + "\n")
        for p in points:
            f.write(f"{p.ordering},{p.iteration},{p.bit_updates},"
                    f"{p.map_value:.6f},{p.wall_time_s:.3f}\n")
