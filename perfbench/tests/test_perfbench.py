"""The benchmark's own tests, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
import workloads
from ecochash import index, learner
from ecochash.bitcode import PackedCode, TernaryCodeword


def _pass(name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name](workloads.TINY[name], seed, tmp_path)
    wl.setup()
    with wl.patched():
        return wl.run_pass(tracing.Tracer(), False, first=True)


def _record(name, trace_on, tmp_path, seed=3):
    return run.run_workload(name, seed, 0, trace_on, sizes=workloads.TINY[name],
                            out_dir=tmp_path)


def test_benchmark_json_declares_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m: u for m, (u, _, _) in run.PER_LAYER.items()}
    per_layer.update(run.PER_LAYER_COUNTS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


@pytest.mark.parametrize("trace_on", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_name_and_unit(name, trace_on, tmp_path):
    record = _record(name, trace_on, tmp_path)
    assert record["correct"], record["failures"] + record["errors"]
    result = json.loads(run.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = (run.END_TO_END if not trace_on else
                {m: u for m, (u, _, _) in run.PER_LAYER.items()} | run.PER_LAYER_COUNTS)
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    lines = run.describe(record)
    for metric, unit in expected.items():
        assert any(line.split()[0] == metric and line.split()[-1] == unit
                   for line in lines[1:]), metric
    if not trace_on:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["serve-mixed", "cli-pipeline"])
def test_same_seed_gives_identical_counts_and_map(name, tmp_path):
    a = _record(name, 0, tmp_path / "a")
    b = _record(name, 0, tmp_path / "b")
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["end_to_end"]["map"] == b["end_to_end"]["map"]
    assert a["digests"] == b["digests"]


def test_swapped_ranking_is_caught(tmp_path, monkeypatch):
    assert _pass("stream-codeword", tmp_path).failed == 0
    real = index.HashIndex.query

    def swapped(self, *args, **kwargs):
        hits = real(self, *args, **kwargs)
        hits[0], hits[1] = hits[1], hits[0]
        return hits

    monkeypatch.setattr(index.HashIndex, "query", swapped)
    p = _pass("stream-codeword", tmp_path)
    assert any(f.startswith("ranking") for f in p.failures)


@pytest.mark.parametrize("name", ["stream-phi-eager", "serve-mixed"])
def test_off_by_one_ledger_is_caught(name, tmp_path, monkeypatch):
    assert _pass(name, tmp_path).failed == 0
    real = index.UpdateLedger.record
    planted = []

    def off_by_one(self, iteration, bits, flips, entries):
        extra = int(bits > 0 and not planted)
        planted.extend([True] * extra)
        real(self, iteration, bits + extra, flips, entries)

    monkeypatch.setattr(index.UpdateLedger, "record", off_by_one)
    p = _pass(name, tmp_path)
    assert [f for f in p.failures if f.startswith("ledger")]


def test_flipped_phi_bit_is_caught(tmp_path, monkeypatch):
    real = index.HashIndex.refresh

    def flip_one(self, model, cycles=()):
        bits = real(self, model, cycles)
        e = self.entries[0]
        wrong = PackedCode(e.code.length, learner.phi(model, e.features).bits ^ 1)
        e.code = TernaryCodeword(e.code.length, wrong, e.code.mask)
        return bits

    monkeypatch.setattr(index.HashIndex, "refresh", flip_one)
    p = _pass("serve-mixed", tmp_path)
    assert "phi: 1" in p.failures


def test_cli_outputs_are_compared_with_the_library(tmp_path):
    text = "query_id,rank,id,distance\n5,1,9,0\n5,2,3,1\n"
    assert checks.parse_query_output(text) == {5: [(9, 0), (3, 1)]}
    with pytest.raises(ValueError):
        checks.parse_query_output("query_id,rank,id,distance\n5,2,9,0\n")
    assert checks.parse_eval_map("queries,evaluated,skipped,map\n4,4,0,0.250000\n") == 0.25


def test_batched_cycles_include_appended_ones():
    assert checks.batched_cycles({1}, 32, 96, 32) == [1, 2, 3]
    assert checks.batched_cycles(set(), 96, 96, 32) == []
    assert checks.batched_ledger_mismatch(2 * 32 * 3, 2, 32, [[1], [1, 2]]) == 0
    assert checks.batched_ledger_mismatch(2 * 32 * 3 + 1, 2, 32, [[1], [1, 2]]) == 1


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "serve-mixed", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
