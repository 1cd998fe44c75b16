"""The benchmark's workloads.

Every workload is a closed loop with one client: this process hands the
library its next training example, query or command only after the previous
call has returned, and starts no threads. All data comes from
``make_gaussian_classes`` on the "hard" tier (separation 0.5), where mAP is
well below 1, so a change that alters results shows in ``map``.

A workload is set up once per run (data generated, files written) and then
repeated in passes. Each pass builds everything from scratch, so passes of
one run do identical work and must give identical results.
"""

from __future__ import annotations

import contextlib
import io
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ecochash import (cli, codebook, ecoc, evaluation, index, learner,
                      storage)

import checks

SEPARATION = 0.5
K = 32
TOP_N = 10
# The CLI's per-command wall times, kept in each pass's ``extra``.
STAGE_TIMES = frozenset({"cli_train_s", "cli_index_s", "cli_query_s", "cli_eval_s"})
# Queries per pass whose ranking is compared with the naive reference.
RANKING_SAMPLES = 3

# Sizes per workload. A pass takes about a second on a 2-core machine, so
# a run holds a dozen passes or more.
SIZES = {
    "stream-codeword": dict(classes=200, d=64, train=2500, db=1000,
                            queries=500),
    "stream-phi-eager": dict(classes=50, d=64, train=200, db=400,
                             queries=500),
    "serve-mixed": dict(classes=50, d=64, train=1000, db=1500, queries=500,
                        refresh_every=50, query_every=5, check_every=50),
    "cli-pipeline": dict(classes=50, d=64, train=400, db=1000, queries=500),
}

# Tiny sizes for the benchmark's own tests. 25 classes still open a second
# cycle (rho is 20 at k=32), so cycle growth is exercised.
TINY = {
    "stream-codeword": dict(classes=25, d=8, train=200, db=60, queries=20),
    "stream-phi-eager": dict(classes=25, d=8, train=60, db=40, queries=20),
    "serve-mixed": dict(classes=25, d=8, train=120, db=60, queries=20,
                        refresh_every=10, query_every=3, check_every=4),
    "cli-pipeline": dict(classes=25, d=8, train=120, db=80, queries=20),
}


@dataclass
class Pass:
    """What one pass measured and found."""

    wall_s: float
    window_s: float
    train_steps: int
    train_s: float
    latencies_s: list[float]
    map: float
    attempted: int
    failed: int = 0
    probe_s: float = 0.0
    setup_s: float = 0.0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def fail(self, what: str, count: int) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{what}: {count}")


def _split(sizes, seed):
    n = sizes["train"] + sizes["db"] + sizes["queries"]
    X, labels = evaluation.make_gaussian_classes(
        sizes["classes"], sizes["d"], n, separation=SEPARATION, seed=seed)
    a, b = sizes["train"], sizes["train"] + sizes["db"]
    return X[:a], labels[:a], X[a:b], labels[a:b], X[b:], labels[b:]


def _recording(tracer, traced):
    return tracer.recording() if traced else contextlib.nullcontext()


def _sample(n, seed):
    rng = np.random.default_rng([seed, 7])
    return set(rng.choice(n, size=min(n, RANKING_SAMPLES), replace=False).tolist())


class Workload:
    name = ""

    def __init__(self, sizes, seed, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs; repeatable, and the same for the same seed."""
        raise NotImplementedError

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def run_pass(self, tracer, traced: bool, first: bool) -> Pass:
        raise NotImplementedError

    def patched(self):
        return contextlib.nullcontext()


class _Capture:
    """Keeps the last model and index ``run_stream_experiment`` builds.

    It replaces the two constructors the experiment calls by name, and times
    the experiment's closing mAP, so training time can be told apart from
    evaluation without tracing each step.
    """

    def __init__(self) -> None:
        self.index = None
        self.model = None
        self.map_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        real_index = evaluation.HashIndex
        real_model = evaluation.HashModel
        real_map = evaluation.retrieval_map

        def make_index():
            self.index = real_index()
            return self.index

        def create_model(*args, **kwargs):
            self.model = real_model.create(*args, **kwargs)
            return self.model

        def timed_map(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real_map(*args, **kwargs)
            finally:
                self.map_s += time.perf_counter() - t0

        evaluation.HashIndex = make_index
        evaluation.HashModel = types.SimpleNamespace(create=create_model)
        evaluation.retrieval_map = timed_map
        try:
            yield self
        finally:
            evaluation.HashIndex = real_index
            evaluation.HashModel = real_model
            evaluation.retrieval_map = real_map


class StreamWorkload(Workload):
    """``run_stream_experiment`` over one ordering, then warm queries.

    After the experiment the final index answers every query once more,
    timed one by one; the index no longer changes, so these are ranking
    costs at the stated index size.
    """

    mode = ""

    def __init__(self, sizes, seed, workdir) -> None:
        super().__init__(sizes, seed, workdir)
        self.capture = _Capture()

    def setup(self) -> None:
        self.data = _split(self.sizes, self.seed)
        norm = learner.FeatureNormalizer.fit(self.data[0])
        self.queries = norm.transform_many(self.data[4])
        self.sample = _sample(len(self.queries), self.seed)

    def patched(self):
        return self.capture.installed()

    def ops_per_pass(self) -> int:
        s = self.sizes
        return s["db"] + s["train"] + 2 * s["queries"]

    def run_pass(self, tracer, traced, first) -> Pass:
        s = self.sizes
        cap = self.capture
        cap.map_s = 0.0
        config = evaluation.ExperimentConfig(
            k=K, orderings=1, mode=self.mode, refresh_every=1, seed=self.seed)
        latencies = []
        hits = []
        with _recording(tracer, traced):
            t0 = time.perf_counter()
            result = evaluation.run_stream_experiment(*self.data, config)
            t1 = time.perf_counter()
            idx, model = cap.index, cap.model
            for x in self.queries:
                a = time.perf_counter()
                hits.append(idx.query(model, x, top_n=TOP_N))
                latencies.append(time.perf_counter() - a)
            t2 = time.perf_counter()
        p = Pass(wall_s=t1 - t0, window_s=t2 - t0, train_steps=s["train"],
                 train_s=t1 - t0 - cap.map_s, latencies_s=latencies,
                 map=result.mean_map, attempted=self.ops_per_pass())
        bits = result.bit_updates_per_ordering[0]
        with tracer.paused():
            p.fail("ranking", sum(
                checks.ranking_mismatch(idx, model, self.queries[i], hits[i], TOP_N)
                for i in sorted(self.sample)))
            if self.mode == index.MODE_PHI:
                p.fail("phi", checks.stale_phi_entries(idx, model))
                p.fail("ledger", checks.eager_ledger_mismatch(
                    bits, s["train"], s["db"], K))
            else:
                p.fail("ledger", int(bits != 0))
            p.fail("ledger", int(idx.ledger.bit_updates_total != bits))
            if first:
                path = self.workdir / "index.bin"
                storage.save_index(idx, path)
                p.fail("index-roundtrip", checks.roundtrip_mismatch(
                    path, storage.load_index, storage.save_index))
                p.digests["index_bytes"] = checks.digest(path.read_bytes())
        p.digests.update(
            rankings=checks.digest(hits), map=repr(p.map), bit_updates=bits,
            flipped_bits=result.flipped_bits_per_ordering[0],
            weights=checks.digest(model.weights.tobytes()))
        p.extra.update(bit_updates=bits,
                       flipped_bits=result.flipped_bits_per_ordering[0])
        return p


class StreamCodeword(StreamWorkload):
    name = "stream-codeword"
    mode = index.MODE_CODEWORD


class StreamPhiEager(StreamWorkload):
    name = "stream-phi-eager"
    mode = index.MODE_PHI


class ServeMixed(Workload):
    """A library loop that trains and answers queries on one phi index.

    The index is built with ``insert_unlabeled``; then training steps stream
    in, the index is refreshed every ``refresh_every`` steps with the same
    dirty-cycle rule as ``run_stream_experiment``, and one top-10 query is
    timed every ``query_every`` steps. The first query after a refresh sees
    a changed index, so the latency tail measures query-after-write.
    """

    name = "serve-mixed"

    def setup(self) -> None:
        tr_X, self.tr_y, db_X, self.db_y, q_X, self.q_y = _split(self.sizes, self.seed)
        self.norm = learner.FeatureNormalizer.fit(tr_X)
        self.train = self.norm.transform_many(tr_X)
        self.db = self.norm.transform_many(db_X)
        self.queries = self.norm.transform_many(q_X)

    def ops_per_pass(self) -> int:
        s = self.sizes
        return (s["db"] + s["train"] + s["train"] // s["refresh_every"] + 1
                + s["train"] // s["query_every"] + s["queries"])

    def run_pass(self, tracer, traced, first) -> Pass:
        s = self.sizes
        rho = codebook.recommended_rho(K)
        nq = len(self.queries)
        latencies = []
        hits = []
        refreshes = []  # (dirty cycles, width before, width after, bits)
        ranking_bad = 0
        check_s = 0.0
        train_s = 0.0
        with _recording(tracer, traced):
            t0 = time.perf_counter()
            cb = codebook.generate(K, codebook.default_capacity(s["classes"]),
                                   evaluation.derive_seed(self.seed, 1000))
            matrix = ecoc.new_matrix(K, rho)
            model = learner.HashModel.create(
                s["d"], K, seed=evaluation.derive_seed(self.seed, 2000))
            idx = index.HashIndex()
            for i in range(s["db"]):
                idx.insert_unlabeled(i, self.db[i], model, label=self.db_y[i])
            dirty: set[int] = set()
            since = 0
            width = model.width
            for it in range(s["train"]):
                a = time.perf_counter()
                y = self.tr_y[it]
                report = learner.step(model, matrix, cb, self.train[it], y)
                if report.surrogate_loss_before > 0.0 or report.new_cycle_started:
                    dirty.add(matrix.cycle_of_label[y])
                since += 1
                if since >= s["refresh_every"]:
                    bits = idx.refresh(model, cycles=sorted(dirty))
                    refreshes.append((sorted(dirty), width, model.width, bits))
                    width = model.width
                    dirty.clear()
                    since = 0
                train_s += time.perf_counter() - a
                if (it + 1) % s["query_every"]:
                    continue
                q = (it // s["query_every"]) % nq
                a = time.perf_counter()
                got = idx.query(model, self.queries[q], top_n=TOP_N)
                latencies.append(time.perf_counter() - a)
                hits.append(got)
                if len(hits) % s["check_every"] == 0:
                    a = time.perf_counter()
                    with tracer.paused():
                        ranking_bad += checks.ranking_mismatch(
                            idx, model, self.queries[q], got, TOP_N)
                    check_s += time.perf_counter() - a
            a = time.perf_counter()
            bits = idx.refresh(model, cycles=sorted(dirty))
            train_s += time.perf_counter() - a
            refreshes.append((sorted(dirty), width, model.width, bits))
            final_map = evaluation.retrieval_map(idx, model, self.queries, self.q_y)
            t1 = time.perf_counter()
        wall = t1 - t0 - check_s
        p = Pass(wall_s=wall, window_s=wall, train_steps=s["train"],
                 train_s=train_s, latencies_s=latencies, map=final_map,
                 attempted=self.ops_per_pass())
        with tracer.paused():
            p.fail("ranking", ranking_bad)
            p.fail("phi", checks.stale_phi_entries(idx, model))
            cycles = [checks.batched_cycles(d, w0, w1, K) for d, w0, w1, _ in refreshes]
            p.fail("ledger", sum(int(b != s["db"] * K * len(c))
                                 for (_, _, _, b), c in zip(refreshes, cycles)))
            p.fail("ledger", checks.batched_ledger_mismatch(
                idx.ledger.bit_updates_total, s["db"], K, cycles))
            if first:
                bundle = storage.ModelBundle(
                    k=K, rho=rho, eta=1.0, seed=self.seed, codebook=cb,
                    matrix=matrix, model=model, normalizer=self.norm)
                model_path = self.workdir / "model.bin"
                index_path = self.workdir / "index.bin"
                storage.save_model(bundle, model_path)
                storage.save_index(idx, index_path)
                p.fail("model-roundtrip", checks.roundtrip_mismatch(
                    model_path, storage.load_model, storage.save_model))
                p.fail("index-roundtrip", checks.roundtrip_mismatch(
                    index_path, storage.load_index, storage.save_index))
                p.digests.update(model_bytes=checks.digest(model_path.read_bytes()),
                                 index_bytes=checks.digest(index_path.read_bytes()))
        led = idx.ledger
        p.digests.update(rankings=checks.digest(hits), map=repr(final_map),
                         bit_updates=led.bit_updates_total,
                         flipped_bits=led.flipped_bits_total,
                         weights=checks.digest(model.weights.tobytes()))
        p.extra.update(bit_updates=led.bit_updates_total,
                       flipped_bits=led.flipped_bits_total,
                       refreshes=len(refreshes),
                       refreshed_cycles=sum(len(c) for c in cycles))
        return p


class CliPipeline(Workload):
    """``train`` -> ``index --mode phi`` -> ``query`` -> ``eval`` in process.

    After the four commands the library loads the saved model and index and
    answers each query, timed one by one, then computes ``retrieval_map``.
    The CLI's outputs are checked against these library results. This
    read-back is not traced, so layer shares cover the four commands only.
    """

    name = "cli-pipeline"

    FILES = ("train.csv", "db.csv", "queries.csv")

    def setup(self) -> None:
        s = self.sizes
        parts = _split(s, self.seed)
        ids = iter(range(s["train"] + s["db"] + s["queries"]))
        for name, X, labels in zip(self.FILES, parts[0::2], parts[1::2]):
            storage.write_features(self.workdir / name,
                                   [next(ids) for _ in labels], labels, X)
        self.sample = _sample(s["queries"], self.seed)

    def ops_per_pass(self) -> int:
        return 4 + 2 * self.sizes["queries"]

    def _commands(self):
        w = self.workdir
        model, idx = str(w / "model.bin"), str(w / "index.bin")
        queries = str(w / "queries.csv")
        return [
            ("train", ["train", "--features", str(w / "train.csv"), "--k", str(K),
                       "--seed", str(self.seed), "--model-out", model]),
            ("index", ["index", "--model", model, "--features", str(w / "db.csv"),
                       "--mode", "phi", "--index-out", idx]),
            ("query", ["query", "--model", model, "--index", idx,
                       "--queries", queries, "--top", str(TOP_N)]),
            ("eval", ["eval", "--model", model, "--index", idx,
                      "--queries", queries]),
        ]

    def run_pass(self, tracer, traced, first) -> Pass:
        w = self.workdir
        stage_s = {}
        outputs = {}
        latencies = []
        hits = []
        with _recording(tracer, traced):
            t0 = time.perf_counter()
            for name, argv in self._commands():
                out, err = io.StringIO(), io.StringIO()
                a = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                stage_s[name] = time.perf_counter() - a
                outputs[name] = out.getvalue()
                if code != 0:
                    raise RuntimeError(f"cli {name} exited {code}: {err.getvalue()}")
            t1 = time.perf_counter()
        # The read-back runs after recording has stopped.
        bundle = storage.load_model(w / "model.bin")
        idx = storage.load_index(w / "index.bin")
        q_ids, q_labels, q_X = storage.read_features(w / "queries.csv")
        xs = [bundle.normalizer.transform(x) for x in q_X]
        for x in xs:
            a = time.perf_counter()
            hits.append(idx.query(bundle.model, x, top_n=TOP_N))
            latencies.append(time.perf_counter() - a)
        lib_map = evaluation.retrieval_map(idx, bundle.model, xs, q_labels)
        n_train = self.sizes["train"]
        p = Pass(wall_s=t1 - t0, window_s=t1 - t0, train_steps=n_train,
                 train_s=stage_s["train"], latencies_s=latencies, map=lib_map,
                 attempted=self.ops_per_pass())
        with tracer.paused():
            cli_hits = checks.parse_query_output(outputs["query"])
            p.fail("cli-query", sum(int(cli_hits.get(qid) != got)
                                    for qid, got in zip(q_ids, hits)))
            p.fail("cli-eval", int(abs(checks.parse_eval_map(outputs["eval"])
                                       - lib_map) > 5e-7))
            p.fail("ranking", sum(
                checks.ranking_mismatch(idx, bundle.model, xs[i], hits[i], TOP_N)
                for i in sorted(self.sample)))
            if first:
                p.fail("phi", checks.stale_phi_entries(idx, bundle.model))
                p.fail("model-roundtrip", checks.roundtrip_mismatch(
                    w / "model.bin", storage.load_model, storage.save_model))
                p.fail("index-roundtrip", checks.roundtrip_mismatch(
                    w / "index.bin", storage.load_index, storage.save_index))
        p.digests.update(
            rankings=checks.digest(outputs["query"]), map=repr(lib_map),
            model_bytes=checks.digest((w / "model.bin").read_bytes()),
            index_bytes=checks.digest((w / "index.bin").read_bytes()))
        p.extra.update({f"cli_{k}_s": v for k, v in stage_s.items()})
        return p


WORKLOADS = {cls.name: cls for cls in (StreamCodeword, StreamPhiEager,
                                       ServeMixed, CliPipeline)}
