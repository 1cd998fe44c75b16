"""Correctness checks on the program's outputs.

Each check returns the number of operations it found wrong, so the run can
count them as failed. The references here are deliberately naive: they use
the library's public reference types (``hamming_masked`` over each entry's
``TernaryCodeword``) and ``phi`` one vector at a time, never the index's
own fast paths.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ecochash import bitcode, learner
from ecochash.index import MODE_PHI


def reference_ranking(index, model, x, top_n=None) -> list[tuple[int, int]]:
    """(id, distance) by masked Hamming distance, ties by insertion order."""
    q = learner.phi(model, x)
    rows = []
    for pos, e in enumerate(index.entries):
        code = e.code if e.code.length == q.length else e.code.pad_to(q.length)
        rows.append((bitcode.hamming_masked(q, code), pos, e.id))
    rows.sort()
    ranked = [(id, d) for d, _, id in rows]
    return ranked if top_n is None else ranked[:top_n]


def ranking_mismatch(index, model, x, got, top_n=None) -> int:
    """1 if ``got`` differs from the reference ranking, else 0."""
    return int([tuple(r) for r in got] != reference_ranking(index, model, x, top_n))


def stale_phi_entries(index, model) -> int:
    """Phi entries whose stored code differs from phi(model, features)."""
    bad = 0
    for e in index.entries:
        if e.mode != MODE_PHI:
            continue
        code = learner.phi(model, e.features)
        if e.code.length != code.length or e.code.values.bits != code.bits:
            bad += 1
    return bad


def eager_ledger_mismatch(bit_updates, steps, phi_entries, k) -> int:
    """Eager maintenance recomputes k bits of every phi entry per step."""
    return int(bit_updates != steps * phi_entries * k)


def batched_cycles(dirty, old_width, new_width, k) -> list[int]:
    """Cycles a refresh must recompute: the dirty ones plus any appended."""
    appended = range(old_width // k + 1, new_width // k + 1)
    return sorted(set(dirty) | set(appended))


def batched_ledger_mismatch(bit_updates, phi_entries, k, cycles_per_refresh) -> int:
    """Batched maintenance recomputes n*k bits per refreshed cycle."""
    expected = phi_entries * k * sum(len(c) for c in cycles_per_refresh)
    return int(bit_updates != expected)


def parse_query_output(text) -> dict[int, list[tuple[int, int]]]:
    """The CLI ``query`` table as {query id: [(id, distance), ...]}."""
    lines = text.splitlines()
    if not lines or lines[0] != "query_id,rank,id,distance":
        raise ValueError("query output lacks its header")
    out: dict[int, list[tuple[int, int]]] = {}
    for line in lines[1:]:
        qid, rank, id, dist = (int(v) for v in line.split(","))
        hits = out.setdefault(qid, [])
        if rank != len(hits) + 1:
            raise ValueError(f"query {qid}: rank {rank} out of order")
        hits.append((id, dist))
    return out


def parse_eval_map(text) -> float:
    """The mAP the CLI ``eval`` table reports."""
    header, row = text.splitlines()[-2:]
    if header != "queries,evaluated,skipped,map":
        raise ValueError("eval output lacks its header")
    return float(row.split(",")[-1])


def roundtrip_mismatch(path, load, save) -> int:
    """1 unless loading ``path`` and saving it again gives the same bytes."""
    path = Path(path)
    again = path.with_name(path.name + ".again")
    save(load(path), again)
    same = again.read_bytes() == path.read_bytes()
    again.unlink()
    return int(not same)


def digest(data) -> str:
    """Short sha256 of bytes, or of the repr of a plain value."""
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()[:16]
