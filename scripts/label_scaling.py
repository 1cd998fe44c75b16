#!/usr/bin/env python3
"""Measure how training, a codeword index's row size and query time scale with labels.

For each label count, trains one example per label (so every cycle opens;
k=32, rho=20, d=64) and reports the label pass's cost in microseconds per
new label: one ``step_many`` block of all the labels beside the loop of
``step``, each on fresh copies of one model, matrix and codebook, as the
median of 9 timed runs, the two sides alternating. Both sides' weights
digests must agree. It then inserts four codeword rows per label and
reports the bytes per row and the time of a warm top-10 query, as the
median and quartiles of 15 timed repeats over every probe. Bytes per row
are counted two ways: the index's arrays over their slot capacity, and
everything the inserts allocated (tracemalloc), which also takes in the
per-row Python ids, lists and sets. It measures whichever ``ecochash`` is
importable, so running it with ``PYTHONPATH=src`` from two checkouts
compares them; the weights and rankings digests (full rankings of every
probe) must then agree.

``block_over_loop`` is the median, over those alternating runs, of the
block's time over the loop's beside it, so a slowdown of a shared machine
that falls on both sides cancels out.

    PYTHONPATH=src python3 scripts/label_scaling.py --labels 200 2000
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import statistics
import time
import timeit
import tracemalloc

import numpy as np

from ecochash.codebook import generate
from ecochash.ecoc import new_matrix
from ecochash.index import HashIndex
from ecochash.learner import HashModel, step, step_many

K, RHO, DIMS, ROWS_PER_LABEL, SEED, TRAIN_REPEATS = 32, 20, 64, 4, 0, 9


def bytes_per_row(index: HashIndex) -> float:
    """The index's array bytes over its slot capacity.

    The index's arrays grow by doubling from one slot, so their capacity is
    the power of two at or above the row count.
    """
    capacity = 1 << (len(index) - 1).bit_length()
    total = sum(a.nbytes for a in vars(index).values() if isinstance(a, np.ndarray))
    return total / capacity


def train(centers: np.ndarray, labels: list) -> tuple:
    """One example per new label, as one ``step_many`` block and as a loop of ``step``.

    The two sides alternate, so a stall of the machine falls on both. Returns
    the block's trained (model, matrix, codebook), per side the median
    microseconds per new label and the trained weights' digest, and the
    median ratio of block time to loop time over the repeats.
    """
    start = (HashModel.create(d=DIMS, k=K, seed=SEED), new_matrix(K, RHO),
             generate(K, 2 * len(labels), seed=SEED))
    sides = {"loop": lambda state: [step(*state, x, y) for x, y in zip(centers, labels)],
             "block": lambda state: step_many(*state, centers, labels)}
    times, out = {side: [] for side in sides}, {}
    for _ in range(TRAIN_REPEATS):
        for side, run in sides.items():
            state = copy.deepcopy(start)
            t = time.perf_counter()
            run(state)
            times[side].append(time.perf_counter() - t)
            out[f"{side}_weights_sha256"] = hashlib.sha256(state[0].weights.tobytes()).hexdigest()
    for side, ts in times.items():
        out[f"new_label_{side}_us"] = 1e6 * statistics.median(ts) / len(labels)
    out["block_over_loop"] = statistics.median(
        b / a for a, b in zip(times["loop"], times["block"]))
    return state, out


def measure(n_labels: int, probes: int) -> dict:
    rng = np.random.default_rng(SEED)
    centers = rng.standard_normal((n_labels, DIMS))
    labels = [str(y) for y in range(n_labels)]
    (model, matrix, cb), training = train(centers, labels)
    tracemalloc.start()
    index = HashIndex()
    for i in range(ROWS_PER_LABEL * n_labels):
        index.insert_labeled(i, labels[i % n_labels], matrix)
    traced = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    X = centers[rng.integers(0, n_labels, probes)] + 0.5 * rng.standard_normal((probes, DIMS))
    digest = hashlib.sha256(repr([index.query(model, x) for x in X]).encode())
    times = timeit.repeat(lambda: [index.query(model, x, top_n=10) for x in X],
                          number=1, repeat=15)
    q1, median, q3 = (1e6 * t / probes for t in statistics.quantiles(times, n=4))
    return {"labels": n_labels, "width": model.width, "rows": len(index), **training,
            "bytes_per_row": bytes_per_row(index),
            "traced_bytes_per_row": traced / len(index),
            "query_top10_us": median, "query_top10_us_quartiles": [q1, q3],
            "rankings_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--labels", type=int, nargs="+", default=[200, 2000])
    ap.add_argument("--probes", type=int, default=200, help="query vectors timed per case")
    args = ap.parse_args()
    # The BLAS library numpy was built with; a thread variable that is not set reads null.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas": f"{blas.get('name')} {blas.get('version')}",
                    **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "k": K, "rho": RHO, "d": DIMS, "rows_per_label": ROWS_PER_LABEL,
        "probes": args.probes, "cases": [measure(n, args.probes) for n in args.labels],
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
