"""Command-line front end.

Subcommands mirror the library's lifecycle: inspect a codebook, train a
model over a feature stream, build an index, query it, and evaluate
retrieval quality. All randomness flows from one integer seed in [0, 2^64),
taken from --seed or the ECOCHASH_SEED environment variable (default 0),
so identical invocations produce identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import chain, islice

import numpy as np

from . import codebook as cb_mod
from . import evaluation, storage
from .ecoc import new_matrix
from .errors import (CodebookExhaustedError, ConsistencyError, DimensionError,
                     DuplicateIdError, EcocHashError, FormatError,
                     UndefinedAPError, UnknownLabelError)
from .index import MODE_CODEWORD, MODE_PHI, HashIndex
# Nothing here calls ``step``; it stays a module name because the benchmark's
# tracer (perfbench/tracing.py) reads it from this ``__dict__``.
from .learner import FeatureNormalizer, HashModel, step, step_many  # noqa: F401

SEED_ENV = "ECOCHASH_SEED"

_ERROR_CATEGORIES = [
    (CodebookExhaustedError, "codebook-exhausted"),
    (UnknownLabelError, "unknown-label"),
    (DuplicateIdError, "duplicate-id"),
    (DimensionError, "dimension"),
    (ConsistencyError, "consistency"),
    (UndefinedAPError, "undefined-metric"),
    (FormatError, "format"),
    (EcocHashError, "error"),
    (ValueError, "invalid-argument"),
    (OSError, "io"),
]


def _resolve_seed(value: int | None) -> int:
    if value is None:
        raw = os.environ.get(SEED_ENV)
        if raw is None:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV}={raw!r} is not an integer") from None
    # Model and index files store the seed as a u64.
    if not 0 <= value < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {value}")
    return value


def _transform(normalizer: FeatureNormalizer | None, X: np.ndarray) -> np.ndarray:
    return normalizer.transform_many(X) if normalizer is not None else np.asarray(
        X, dtype=np.float64)


def _codebook(args) -> tuple[int, int, cb_mod.Codebook]:
    """The seed, the rho and a fresh codebook that --seed, --rho, --k and --capacity give."""
    seed = _resolve_seed(args.seed)
    rho = args.rho if args.rho is not None else cb_mod.recommended_rho(args.k)
    capacity = args.capacity if args.capacity is not None else cb_mod.default_capacity(k=args.k)
    return seed, rho, cb_mod.generate(args.k, capacity, seed)


def _cmd_codebook_stats(args) -> int:
    _, rho, cb = _codebook(args)
    stats = cb_mod.separation_stats(cb)
    prob = cb_mod.unique_bipartition_probability(rho, args.k)
    print("k,capacity,rho,min_distance,mean_distance,unique_bipartition_probability")
    print(f"{args.k},{len(cb)},{rho},{stats.min_distance},"
          f"{stats.mean_distance:.6f},{prob:.6g}")
    return 0


def _cmd_train(args) -> int:
    seed, rho, cb = _codebook(args)
    ids, labels, X = storage.read_features(args.features)
    labeled = [(i, y) for i, y in enumerate(labels) if y is not None]
    if not labeled:
        raise ValueError(f"{args.features} has no labeled rows to train on")
    # The mean is fitted over the labeled rows in file order, whatever the stream order.
    normalizer = FeatureNormalizer.fit(X[[i for i, _ in labeled]]) if args.normalize else None
    X = _transform(normalizer, X)
    if args.shuffle_seed is not None:
        perm = np.random.default_rng(args.shuffle_seed).permutation(len(labeled))
        labeled = [labeled[i] for i in perm]
    skipped = len(labels) - len(labeled)
    if skipped:
        print(f"skipping {skipped} unlabeled rows", file=sys.stderr)
    matrix = new_matrix(args.k, rho)
    model = HashModel.create(X.shape[1], args.k, seed=seed)
    t0 = time.perf_counter()
    losses = step_many(model, matrix, cb, X[[row for row, _ in labeled]],
                       [y for _, y in labeled], eta=args.eta).surrogate_losses_before
    elapsed = time.perf_counter() - t0
    bundle = storage.ModelBundle(k=args.k, rho=rho, eta=args.eta, seed=seed,
                                 codebook=cb, matrix=matrix, model=model,
                                 normalizer=normalizer)
    storage.save_model(bundle, args.model_out)
    decile = max(1, len(losses) // 10)
    print("examples,labels_seen,cycles,width,mean_surrogate_loss,"
          "first_decile_loss,last_decile_loss,wall_time_s")
    print(f"{len(losses)},{len(matrix)},{matrix.m},{model.width},"
          f"{np.mean(losses):.6f},{np.mean(losses[:decile]):.6f},"
          f"{np.mean(losses[-decile:]):.6f},{elapsed:.3f}")
    return 0


def _cmd_index(args) -> int:
    bundle = storage.load_model(args.model)
    ids, labels, X = storage.read_features(args.features)
    X = _transform(bundle.normalizer, X)
    index = HashIndex()
    skipped = 0
    if args.mode == MODE_PHI:
        index.insert_many(ids, X, bundle.model, labels)
    else:
        labeled = [(id, y) for id, y in zip(ids, labels) if y is not None]
        skipped = len(ids) - len(labeled)
        if skipped and not args.skip_unlabeled:
            raise ValueError(f"row id {ids[labels.index(None)]} has no label; codeword mode "
                             "needs one (or pass --skip-unlabeled)")
        index.insert_labeled_many([id for id, _ in labeled], [y for _, y in labeled],
                                  bundle.matrix)
    storage.save_index(index, args.index_out)
    if skipped:
        print(f"skipped {skipped} unlabeled rows", file=sys.stderr)
    print("entries,codeword_entries,phi_entries,width")
    print(f"{len(index)},{len(index) - index.phi_count},{index.phi_count},"
          f"{bundle.model.width}")
    return 0


def _cmd_query(args) -> int:
    bundle = storage.load_model(args.model)
    index = storage.load_index(args.index)
    ids, _, X = storage.read_features(args.queries)
    queries = _transform(bundle.normalizer, X)
    ranked = zip(ids, index.query_many(bundle.model, queries, top_n=args.top))
    # The first block is ranked before the header, so a failed command prints nothing.
    first = list(islice(ranked, 1))
    out = sys.stdout
    out.write("query_id,rank,id,distance\n")
    for qid, hits in chain(first, ranked):
        out.write("".join(f"{qid},{rank},{id},{dist}\n"
                          for rank, (id, dist) in enumerate(hits, start=1)))
    return 0


def _cmd_eval(args) -> int:
    if args.full_experiment:
        return _cmd_eval_full(args)
    if not (args.model and args.index and args.queries):
        raise ValueError("eval needs --model, --index and --queries "
                         "(or --full-experiment with its data flags)")
    bundle = storage.load_model(args.model)
    index = storage.load_index(args.index)
    ids, labels, X = storage.read_features(args.queries)
    if all(y is None for y in labels):
        raise ValueError(f"{args.queries} has no labeled rows to evaluate against")
    # A query without a relevant entry, unlabeled ones included, counts as skipped.
    aps = evaluation.query_average_precisions(
        index, bundle.model, _transform(bundle.normalizer, X), labels)
    value = evaluation.mean_defined(aps)
    evaluated = int(np.count_nonzero(~np.isnan(aps)))
    print("queries,evaluated,skipped,map")
    print(f"{len(ids)},{evaluated},{len(ids) - evaluated},{value:.6f}")
    return 0


def _cmd_eval_full(args) -> int:
    for flag, name in ((args.train_features, "--train-features"),
                       (args.db_features, "--db-features"),
                       (args.queries, "--queries"),
                       (args.k, "--k")):
        if flag is None:
            raise ValueError(f"--full-experiment needs {name}")
    seed = _resolve_seed(args.seed)
    t_ids, t_labels, t_X = storage.read_features(args.train_features)
    if any(y is None for y in t_labels):
        raise ValueError("training rows must all be labeled")
    d_ids, d_labels, d_X = storage.read_features(args.db_features)
    q_ids, q_labels, q_X = storage.read_features(args.queries)
    config = evaluation.ExperimentConfig(
        k=args.k, rho=args.rho, eta=args.eta, orderings=args.orderings,
        refresh_every=args.refresh_every, mode=args.mode, seed=seed,
        capacity=args.capacity, checkpoint_every=args.checkpoint_every,
        normalize=args.normalize)
    result = evaluation.run_stream_experiment(
        t_X, t_labels, d_X, d_labels, q_X, q_labels, config)
    if args.curve_out:
        evaluation.write_curve_csv(result.curve, args.curve_out)
    print("ordering,map,bit_updates,flipped_bits")
    for o, (ap, bits, flips) in enumerate(zip(result.per_ordering_map,
                                              result.bit_updates_per_ordering,
                                              result.flipped_bits_per_ordering)):
        print(f"{o},{ap:.6f},{bits},{flips}")
    mean_bits = np.mean(result.bit_updates_per_ordering)
    mean_flips = np.mean(result.flipped_bits_per_ordering)
    print(f"mean,{result.mean_map:.6f},{mean_bits:.1f},{mean_flips:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecochash",
        description="Online supervised hashing with growing ternary output codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook-stats",
                       help="separation and column-collision stats of a fresh codebook")
    p.add_argument("--k", type=int, required=True, help="code bits per cycle")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--rho", type=int, default=None,
                   help="labels per cycle (default 4*ceil(log2 k))")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_codebook_stats)

    p = sub.add_parser("train", help="train a model over a labeled feature stream")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="permute the stream instead of file order")
    p.add_argument("--model-out", required=True)
    p.add_argument("--no-normalize", dest="normalize", action="store_false",
                   help="train on raw features instead of centered unit vectors")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("index", help="build an index from a feature file")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--mode", choices=[MODE_CODEWORD, MODE_PHI], required=True)
    p.add_argument("--index-out", required=True)
    p.add_argument("--skip-unlabeled", action="store_true",
                   help="in codeword mode, drop rows without a label")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("query", help="rank index entries for each query row")
    p.add_argument("--model", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="retrieval quality of an index, or a full rebuild experiment")
    p.add_argument("--model")
    p.add_argument("--index")
    p.add_argument("--queries")
    p.add_argument("--full-experiment", action="store_true")
    p.add_argument("--train-features")
    p.add_argument("--db-features")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rho", type=int, default=None)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--orderings", type=int, default=5)
    p.add_argument("--refresh-every", type=int, default=1)
    p.add_argument("--mode", choices=[MODE_CODEWORD, MODE_PHI],
                   default=MODE_CODEWORD)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--curve-out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-normalize", dest="normalize", action="store_false")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _ERROR_CATEGORIES) as exc:
        for cls, category in _ERROR_CATEGORIES:
            if isinstance(exc, cls):
                print(f"error ({category}): {exc}", file=sys.stderr)
                return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
