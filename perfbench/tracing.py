"""Span tracing for the benchmark's traced run.

The tracer wraps the library's public functions, and the names those
functions are imported under inside the library, so that calls made from
one module into another are seen without editing the library. Each span
records its name, start, end, parent span, request id and self time; spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from contextlib import contextmanager

from ecochash import (bitcode, cli, codebook, ecoc, evaluation, index,
                      learner, storage)

# Span names whose root call opens a new request: one request per training
# step, insert, query, final evaluation or CLI command. Other root spans
# (an eager update after its step, say) join the request that is open.
REQUEST_ROOTS = frozenset({
    "learner.step", "index.insert", "index.query", "evaluation.retrieval_map",
    "cli.train", "cli.index", "cli.query", "cli.eval",
})

_MUTATORS = ("insert_labeled", "insert_unlabeled", "apply_model_update",
             "refresh")


class Tracer:
    """Records one span per wrapped call while ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.request = 0
        # Byte counts at the storage boundary, by counter name.
        self.counts: dict[str, int] = {}
        # Indexes that answered all_distances since their last mutation;
        # a call on any other index is "cold" (it sees a changed index).
        self._warm: weakref.WeakSet = weakref.WeakSet()

    def wrap(self, name, fn):
        """A wrapper recording a span named ``name``.

        ``name`` may be a callable taking the call's arguments, for spans
        whose name depends on the receiver's state.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(*args) if callable(name) else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if parent is None and span_name in REQUEST_ROOTS:
                tracer.request += 1
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                tracer.spans.append((sid, span_name, t0, t1,
                                     parent[0] if parent else -1,
                                     tracer.request, t1 - t0 - frame[1]))

        traced.__wrapped__ = fn
        return traced

    def _sized(self, name, fn, counter, path_arg):
        """Wrap a storage call and add the size of its file to a counter."""
        counts = self.counts
        tracer = self

        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.enabled:
                counts[counter] = counts.get(counter, 0) + os.path.getsize(args[path_arg])
            return out

        return self.wrap(name, sized)

    def _distance_name(self, idx, *_):
        cold = idx not in self._warm
        self._warm.add(idx)
        return "index.all_distances.cold" if cold else "index.all_distances.warm"

    def _mutator(self, name, fn):
        warm = self._warm

        def mutate(idx, *args, **kwargs):
            warm.discard(idx)
            return fn(idx, *args, **kwargs)

        return self.wrap(name, mutate)

    def targets(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        out = []
        for owner in (learner, evaluation, cli):
            out.append((owner, "step", self.wrap("learner.step", owner.step)))
        for owner in (learner, index):
            out.append((owner, "phi", self.wrap("learner.phi", owner.phi)))
        for owner in (codebook, evaluation):
            out.append((owner, "generate",
                        self.wrap("codebook.generate", owner.generate)))
        for owner in (bitcode, index):
            out.append((owner, "codes_to_words",
                        self.wrap("bitcode.codes_to_words", owner.codes_to_words)))
        out.append((ecoc.EcocMatrix, "observe_label",
                    self.wrap("ecoc.observe_label", ecoc.EcocMatrix.observe_label)))
        HI = index.HashIndex
        for attr in _MUTATORS:
            span = "index.insert" if attr.startswith("insert") else f"index.{attr}"
            out.append((HI, attr, self._mutator(span, getattr(HI, attr))))
        out.append((HI, "all_distances",
                    self.wrap(self._distance_name, HI.all_distances)))
        out.append((HI, "query", self.wrap("index.query", HI.query)))
        out.append((evaluation, "retrieval_map",
                    self.wrap("evaluation.retrieval_map", evaluation.retrieval_map)))
        for attr, counter, path_arg in (("read_features", "read_bytes", 0),
                                        ("save_index", "index_bytes", 1),
                                        ("save_model", "model_bytes", 1)):
            out.append((storage, attr, self._sized(
                f"storage.{attr}", getattr(storage, attr), counter, path_arg)))
        for attr in ("load_index", "load_model"):
            out.append((storage, attr,
                        self.wrap(f"storage.{attr}", getattr(storage, attr))))
        for cmd in ("train", "index", "query", "eval"):
            attr = f"_cmd_{cmd}"
            out.append((cli, attr, self.wrap(f"cli.{cmd}", getattr(cli, attr))))
        return out

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self.targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block."""
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextmanager
    def paused(self):
        """Stop recording inside the block, e.g. while checks run."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, request, self."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for _, name, t0, t1, _, _, self_s in spans:
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += t1 - t0
        row["self_s"] += self_s
    return out
