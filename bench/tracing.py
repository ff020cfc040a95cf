"""Spans around the library's public functions, kept in memory.

:meth:`Tracer.install` re-binds every module-level name of a public
``ncpqec`` function, in every ``ncpqec`` module that binds it (so
``ncpqec.qec.apply_map`` is wrapped as well as ``ncpqec.superop.apply_map``),
plus the ``json`` the CLI reads and writes documents with.
:meth:`Tracer.restore` puts the originals back, so untraced runs execute
the library unchanged.  No layer waits on a queue or a lock: every call
is synchronous in one thread, so a span's time is all busy time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import Counter
from contextlib import contextmanager

import ncpqec
from ncpqec import cli, documents, equivalence, pseudolinalg, qec, superop

from metrics import LAYERS, PER_LAYER

MODULES = (ncpqec, qec, pseudolinalg, superop, equivalence, documents, cli)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "raised")

    def __init__(self, name: str, start: float, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.raised: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and op id.

    ``raised`` is set on the span where an exception first appears, so a
    failure is counted once, in the layer it came from.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._seen: list[BaseException] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(index)
        try:
            yield
        except BaseException as exc:
            if not any(exc is e for e in self._seen):
                self._seen.append(exc)
                self.spans[index].raised = type(exc).__name__
            raise
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for module in MODULES:
            for name, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not name.startswith("_")
                    and obj.__module__.startswith("ncpqec.")
                ):
                    if obj not in wrapped:
                        wrapped[obj] = self.wrap(obj, f"{obj.__module__.split('.')[-1]}.{obj.__name__}")
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapped[obj])
        traced_json = types.SimpleNamespace(
            load=self.wrap(json.load, "documents.json_load"),
            dumps=self.wrap(json.dumps, "documents.json_dumps"),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._saved.append((cli, "json", cli.json))
        cli.json = traced_json

    def restore(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()


def self_time(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], cycles: int, doc_bytes: list[int], channel_doc_bytes: list[int], import_s: float) -> dict:
    """Per-layer metrics of a traced phase of ``cycles`` whole cycles."""
    own = self_time(spans)
    total: Counter = Counter()
    total_self: Counter = Counter()
    calls: Counter = Counter()
    for s, t in zip(spans, own):
        total[s.name] += s.duration
        total_self[s.name] += t
        calls[s.name] += 1

    out: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "s":
            out[name] = total[base] / cycles
        elif field == "self_s":
            out[name] = total_self[base] / cycles
        elif field == "calls":
            out[name] = calls[base] / cycles
    verdicts = calls["qec.analyze"]
    out["qec.ph_condition_matrix.calls_per_verdict"] = calls["qec.ph_condition_matrix"] / verdicts if verdicts else 0.0
    # analyze calls domain_witness only when the negative block acts on
    # the code, so each call that returns yields a witness.
    witness_spans = {i for i, s in enumerate(spans) if s.name == "qec.domain_witness"}
    witnesses = sum(1 for i in witness_spans if spans[i].raised is None)
    candidates = sum(1 for s in spans if s.name == "superop.apply_map" and s.parent in witness_spans)
    out["qec.witness.hit_ratio"] = witnesses / candidates if candidates else 0.0
    failures: Counter = Counter()
    for s in spans:
        if s.raised is not None:
            layer = s.name.split(".")[0]
            failures[layer] += 1
            failures[f"{layer}.{s.raised}"] += 1
    for layer in LAYERS:
        out[f"{layer}.failures"] = failures[layer] / cycles
    out["pseudolinalg.failures.PseudoDiagonalizationFailure"] = failures["pseudolinalg.PseudoDiagonalizationFailure"] / cycles
    out["qec.failures.WitnessSearchFailed"] = failures["qec.WitnessSearchFailed"] / cycles
    out["documents.doc_bytes"] = statistics.fmean(doc_bytes) if doc_bytes else 0.0
    out["documents.channel_doc_bytes"] = statistics.fmean(channel_doc_bytes) if channel_doc_bytes else 0.0
    out["cli.import_s"] = import_s
    out["failures_by_type"] = {k: v / cycles for k, v in sorted(failures.items()) if "." in k}
    return out
