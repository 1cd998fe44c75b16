"""Benchmark for ecochash: end-to-end metrics, result checks and a traced run.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload serve-mixed --seed 0 --seconds 25 --trace 0

or every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 0 --seconds 25

A run repeats passes of the workload for ``--seconds`` seconds. Before
each pass it sets the workload up again (importing the library in a fresh
interpreter where numpy is already loaded, then generating inputs and
writing files), so ``setup_s`` is the median of as many set-ups as there
are passes, spread over the run like the passes themselves. Every pass
checks the program's outputs; a wrong output counts as a failed
operation. With ``--trace 1`` the passes alternate between untraced and
traced, and the run reports per-layer numbers from the traced ones plus
the tracing overhead.

Times are scaled to a reference machine speed. On a shared machine the
same code runs up to twice as slow for seconds to minutes at a time, which
made raw pass times of one seed differ by 1.8x between runs. So a fixed
speed probe, independent of the library, runs between passes, and each
set-up and pass time is multiplied by PROBE_REF_S over the mean probe
time measured around it: the result is the time the work would take
at the speed where the probe takes PROBE_REF_S. Each time, query
percentiles included, is taken per pass and reported as its median over
the passes. Raw seconds are kept in the record beside the scaled ones.
The p99 query latency is printed and recorded but not gated: over ten
seeds its spread between runs reached a quarter of its median on the
warm-query workloads, where it measures stalls of the shared machine more
than the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
list every metric by name and unit, and the full record (environment,
digests of results, per-span table) is written to ``.perfbench/results``;
a baseline is those records collected into one file.
BLAS is pinned to one thread, because two threads made run-to-run spread
several times wider on a 2-core machine.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean as mean  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# The speed probe's time, in seconds, on a quiet 2-core machine where this
# benchmark was defined; times are scaled to that speed.
PROBE_REF_S = 0.05

# name -> unit, reported on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "query_p50_ms": "ms",
    "query_mean_ms": "ms",
    "map": "ratio",
    "peak_rss_mb": "MB",
}

# name -> (unit, span, statistic). Shares (%) are of the traced pass
# window, so a layer's share bounds what speeding it up can save. Spans a
# workload never enters read 0 there.
PER_LAYER = {
    "learner.step.calls": ("count", "learner.step", "calls"),
    "learner.step.busy_pct": ("%", "learner.step", "busy_pct"),
    "learner.step.mean_us": ("us", "learner.step", "mean_us"),
    "learner.phi.calls": ("count", "learner.phi", "calls"),
    "learner.phi.busy_pct": ("%", "learner.phi", "busy_pct"),
    "ecoc.observe_label.busy_pct": ("%", "ecoc.observe_label", "busy_pct"),
    "codebook.generate.busy_pct": ("%", "codebook.generate", "busy_pct"),
    "index.insert.calls": ("count", "index.insert", "calls"),
    "index.insert.busy_pct": ("%", "index.insert", "busy_pct"),
    "index.apply_model_update.calls": ("count", "index.apply_model_update", "calls"),
    "index.apply_model_update.busy_pct": ("%", "index.apply_model_update", "busy_pct"),
    "index.refresh.calls": ("count", "index.refresh", "calls"),
    "index.refresh.busy_pct": ("%", "index.refresh", "busy_pct"),
    "index.all_distances.cold_calls": ("count", "index.all_distances.cold", "calls"),
    "index.all_distances.cold_us": ("us", "index.all_distances.cold", "mean_us"),
    "index.all_distances.cold_pct": ("%", "index.all_distances.cold", "busy_pct"),
    "index.all_distances.warm_us": ("us", "index.all_distances.warm", "mean_us"),
    "index.all_distances.warm_pct": ("%", "index.all_distances.warm", "busy_pct"),
    "bitcode.codes_to_words.calls": ("count", "bitcode.codes_to_words", "calls"),
    "bitcode.codes_to_words.busy_pct": ("%", "bitcode.codes_to_words", "busy_pct"),
    "index.query.calls": ("count", "index.query", "calls"),
    "index.query.self_us": ("us", "index.query", "self_us"),
    "evaluation.retrieval_map.busy_pct": ("%", "evaluation.retrieval_map", "busy_pct"),
    "evaluation.retrieval_map.self_pct": ("%", "evaluation.retrieval_map", "self_pct"),
    "storage.read_features.busy_pct": ("%", "storage.read_features", "busy_pct"),
    "storage.save_index.busy_pct": ("%", "storage.save_index", "busy_pct"),
    "storage.load_index.busy_pct": ("%", "storage.load_index", "busy_pct"),
    "storage.save_model.busy_pct": ("%", "storage.save_model", "busy_pct"),
    "storage.load_model.busy_pct": ("%", "storage.load_model", "busy_pct"),
    "cli.eval.self_pct": ("%", "cli.eval", "self_pct"),
}
# name -> unit, for per-layer values counted by the pass or the tracer.
PER_LAYER_COUNTS = {
    "index.bit_updates": "bits",
    "index.flipped_bits": "bits",
    "index.flip_ratio": "ratio",
    "index.refresh.cycles": "count",
    "storage.read_features.bytes": "bytes",
    "storage.index_bytes": "bytes",
    "storage.model_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}
# Units of the workload-specific figures each record also carries.
EXTRA_UNITS = {
    "bit_updates": "bits", "flipped_bits": "bits", "refreshes": "count",
    "refreshed_cycles": "count", "cli_train_s": "s", "cli_index_s": "s",
    "cli_query_s": "s", "cli_eval_s": "s", "failed_frac": "ratio",
    "raw_wall_s": "s", "raw_setup_s": "s", "probe_s": "s", "query_p99_ms": "ms",
}


def _import_library():
    """Import the library from this checkout's sources, then the benchmark."""
    global tracing, workloads
    if not (SRC / "ecochash" / "__init__.py").is_file():
        sys.exit(f"error: no ecochash sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecochash
    if SRC not in Path(ecochash.__file__).resolve().parents:
        sys.exit(f"error: imported ecochash from {ecochash.__file__}, not {SRC}")
    import tracing
    import workloads


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter.

    numpy is imported first and not counted: its import is most of the
    total, the library cannot change it, and its time varies the most.
    """
    code = ("import time, numpy; t = time.perf_counter(); import ecochash; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_pinning": "OPENBLAS/OMP/MKL_NUM_THREADS set before numpy loads",
        "gc_enabled": gc.isenabled(),
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def layer_metrics(spans, counts, p) -> dict[str, float]:
    """The per-layer metrics of one traced pass, bar the tracing overhead."""
    table = tracing.summarize(spans)
    out = {}
    for name, (_, span, stat) in PER_LAYER.items():
        row = table.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        calls = row["calls"]
        out[name] = {
            "calls": calls,
            "busy_pct": 100.0 * row["busy_s"] / p.window_s,
            "self_pct": 100.0 * row["self_s"] / p.window_s,
            "mean_us": 1e6 * row["busy_s"] / calls if calls else 0.0,
            "self_us": 1e6 * row["self_s"] / calls if calls else 0.0,
        }[stat]
    bits = p.extra.get("bit_updates", 0)
    flips = p.extra.get("flipped_bits", 0)
    out.update({
        "index.bit_updates": bits,
        "index.flipped_bits": flips,
        "index.flip_ratio": flips / bits if bits else 0.0,
        "index.refresh.cycles": p.extra.get("refreshed_cycles", 0),
        "storage.read_features.bytes": counts.get("read_bytes", 0),
        "storage.index_bytes": counts.get("index_bytes", 0),
        "storage.model_bytes": counts.get("model_bytes", 0),
        "trace.pass_s": p.window_s,
    })
    return out


@dataclass(frozen=True)
class _Code:
    length: int
    bits: int


def speed_probe() -> float:
    """Seconds taken by a fixed mix of the work the library spends time in.

    Small frozen dataclasses over Python ints; small matrix-vector products
    packed into bits; and masked XOR, popcount and lexsort over a word
    matrix, as in a ranking. It calls nothing in the library, so a change to
    the library cannot move it.
    """
    t0 = time.perf_counter()
    for i in range(10000):
        c = _Code(96, (i * 2654435761) & ((1 << 96) - 1))
        _Code(c.length, c.bits ^ (c.bits >> 3)).bits.bit_count()
    w, words = _PROBE_W, _PROBE_WORDS
    x = np.ones(w.shape[1])
    order = np.arange(len(words))
    for _ in range(300):
        q = np.packbits(w @ x >= 0.0, bitorder="little").view(np.uint64)
        d = np.bitwise_count(words ^ q).sum(axis=-1, dtype=np.int64)
        np.lexsort((order, d))[:10].tolist()
    return time.perf_counter() - t0


_PROBE_W = np.random.default_rng(0).standard_normal((128, 65))
_PROBE_WORDS = np.random.default_rng(1).integers(
    0, 1 << 63, size=(1000, 2), dtype=np.uint64)


def scaled(passes, seconds_of) -> float:
    """Median over ``passes`` of ``seconds_of(pass)`` in reference seconds."""
    return statistics.median(seconds_of(p) * PROBE_REF_S / p.probe_s
                             for p in passes)


def run_workload(name, seed, seconds, trace_on, sizes=None, out_dir=OUT):
    """Set up, run passes for ``seconds``, check, and return the record."""
    sizes = sizes or workloads.SIZES[name]
    workdir = out_dir / "work" / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    wl = workloads.WORKLOADS[name](sizes, seed, workdir)

    tracer = tracing.Tracer()
    passes, untraced, traced_passes, layers = [], [], [], []
    attempted = failed = 0
    errors = []
    installed = tracer.installed() if trace_on else contextlib.nullcontext()
    try:
        with wl.patched(), installed:
            start = time.perf_counter()
            probe = speed_probe()
            while True:
                traced = trace_on and len(passes) % 2 == 1
                first_span = len(tracer.spans)
                tracer.counts.clear()
                try:
                    imp = import_seconds()
                    t0 = time.perf_counter()
                    wl.setup()
                    setup_s = imp + time.perf_counter() - t0
                    p = wl.run_pass(tracer, traced, first=not passes)
                except Exception:
                    errors.append(traceback.format_exc())
                    print(errors[-1], file=sys.stderr)
                    attempted += wl.ops_per_pass()
                    failed += wl.ops_per_pass()
                    break
                after = speed_probe()
                p.probe_s = (probe + after) / 2
                probe = after
                p.setup_s = setup_s
                if passes and p.digests.items() - passes[0].digests.items():
                    p.fail("determinism", 1)
                attempted += p.attempted
                failed += p.failed
                passes.append(p)
                if traced:
                    traced_passes.append(p)
                    layers.append(layer_metrics(tracer.spans[first_span:],
                                                tracer.counts, p))
                else:
                    untraced.append(p)
                elapsed = time.perf_counter() - start
                need = 2 if trace_on else 1
                if len(passes) >= need and elapsed * (1 + 1 / len(passes)) > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not untraced or (trace_on and not traced_passes):
        raise RuntimeError(f"{name}: too few passes completed")

    def percentile(q):
        return scaled(untraced, lambda p: float(np.percentile(p.latencies_s, q)))

    e2e = {
        "setup_s": scaled(passes, lambda p: p.setup_s),
        "wall_s": scaled(untraced, lambda p: p.wall_s),
        "train_steps_per_s": 1 / scaled(untraced, lambda p: p.train_s / p.train_steps),
        "query_p50_ms": 1e3 * percentile(50),
        "query_mean_ms": 1e3 * scaled(untraced, lambda p: mean(p.latencies_s)),
        "map": passes[0].map,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace_on:
        units = {m: u for m, (u, _, _) in PER_LAYER.items()} | PER_LAYER_COUNTS
        values = {m: statistics.median(layer[m] for layer in layers)
                  for m in layers[0]}
        values["trace.overhead_s"] = (
            scaled(traced_passes, lambda p: p.wall_s) - e2e["wall_s"])
        metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in e2e.items()}
    env["loadavg_end"] = os.getloadavg()
    extra = dict(passes[0].extra, query_p99_ms=1e3 * percentile(99),
                 failed_frac=failed / attempted,
                 raw_wall_s=statistics.median(p.wall_s for p in untraced),
                 raw_setup_s=statistics.median(p.setup_s for p in passes),
                 probe_s=mean(p.probe_s for p in passes))
    for key in extra.keys() & workloads.STAGE_TIMES:
        extra[key] = scaled(untraced, lambda p: p.extra[key])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on),
        "sizes": sizes, "passes": len(passes), "traced_passes": len(traced_passes),
        "query_samples": sum(len(p.latencies_s) for p in untraced),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_probe_s": [p.probe_s for p in passes],
        "pass_setup_s": [p.setup_s for p in passes],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": [f for p in passes for f in p.failures], "errors": errors,
        "metrics": metrics, "end_to_end": e2e, "extra": extra,
        "digests": passes[0].digests, "environment": env,
    }
    if trace_on:
        record["span_table"] = tracing.summarize(tracer.spans)
        record["traced_window_s"] = sum(p.window_s for p in traced_passes)
        results = out_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        tracer.write(results / f"{name}-seed{seed}-spans.jsonl")
    return record


def result_line(record) -> str:
    """The final JSON line of a single-workload run."""
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                              "metrics")})


def describe(record) -> list[str]:
    """Every metric of a record, one per line, by name and unit."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"trace {record['trace']}: {record['passes']} passes, "
             f"{record['query_samples']} timed queries, "
             f"{record['failed']}/{record['attempted']} operations failed"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in record["extra"].items():
        lines.append(f"  {name:36s} {value:.6g} {EXTRA_UNITS[name]}")
    if record["trace"]:
        window = record["traced_window_s"]
        top = sorted(record["span_table"].items(), key=lambda kv: -kv[1]["self_s"])
        lines.append("  largest self-time shares of the traced passes: " + ", ".join(
            f"{span} {100 * row['self_s'] / window:.1f}%" for span, row in top[:6]))
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def _single(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(describe(record)))
    print(result_line(record))
    return 0


def _all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    records = []
    for name in workloads.WORKLOADS:
        for trace_on in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_on)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            path = OUT / "results" / f"{name}-seed{args.seed}-trace{trace_on}.json"
            records.append(json.loads(path.read_text()))
    ok = all(r["correct"] for r in records)
    print(f"all workloads: correct={ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    if args.workload == "all":
        return _all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
