"""Span tracing of ctcsim's layers from outside the package.

``Tracer.install`` replaces each layer's public functions with timing
wrappers at every name where the package looks them up (a function imported
with ``from .qlinalg import partial_trace`` is patched in the importing
module too), and wraps ``DeutschInteraction.__post_init__``, where an
interaction is validated. Spans are kept in memory as tuples and written
out when the run ends. A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

MODULES = ("qlinalg", "deutsch", "distinguisher", "infotheory", "protocols", "serialize", "cli")

# Functions traced, as "<module>.<function>"; each span takes that name.
TRACED = (
    "qlinalg.partial_trace",
    "qlinalg.is_unitary",
    "deutsch.induced_map",
    "deutsch.fixed_points",
    "deutsch.output_state",
    "deutsch.evolve",
    "deutsch.nonlinearity_gap",
    "distinguisher.validate_state_set",
    "distinguisher.construct_family",
    "distinguisher.verify_family",
    "distinguisher.build_distinguisher",
    "distinguisher.classify",
    "infotheory.holevo_chi",
    "infotheory.ctc_accessible_info",
    "infotheory.violation_report",
    "protocols.run_qkd",
    "serialize.dump_json",
    "cli.main",
)
INTERACTION = "deutsch.interaction"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, parent, op, round, name, start, end)
        self.stack: list[int] = []
        self.next_id = 0
        self.op = 0                       # operation the current spans belong to
        self.round = 0
        self.counts: dict[tuple[int, str], float] = defaultdict(float)   # (round, counter)
        self.maxima: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, self.next_id = self.next_id, self.next_id + 1
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span_id, parent, self.op, self.round, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # Counters recorded at the layer boundaries.
    def _after_induced_map(self, args, kwargs, result):
        self.maxima["deutsch.superop_bytes_max"] = max(
            self.maxima["deutsch.superop_bytes_max"], 16 * args[0].d_ctc ** 4)

    def _after_interaction(self, args, kwargs, result):
        ix = args[0]
        self.maxima["deutsch.V_bytes_max"] = max(
            self.maxima["deutsch.V_bytes_max"], 16 * (ix.d_sys * ix.d_ctc) ** 2)

    def _after_run_qkd(self, args, kwargs, result):
        self.counts[(self.round, "protocols.signals")] += args[1]
        path = kwargs.get("transcript_path")
        if path is not None:
            self.counts[(self.round, "serialize.bytes_written")] += os.path.getsize(path)

    def _after_dump_json(self, args, kwargs, result):
        self.counts[(self.round, "serialize.bytes_written")] += len(result.encode()) + 1

    def install(self, package) -> None:
        after = {
            "deutsch.induced_map": self._after_induced_map,
            "protocols.run_qkd": self._after_run_qkd,
            "serialize.dump_json": self._after_dump_json,
        }
        namespaces = [package] + [getattr(package, m) for m in MODULES]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(getattr(package, module), attr)
            wrapped = self._span(name, original, after.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapped)
        cls = package.deutsch.DeutschInteraction
        original = cls.__post_init__
        self._restore.append((cls, "__post_init__", original))
        cls.__post_init__ = self._span(INTERACTION, original, self._after_interaction)

    def uninstall(self) -> None:
        while self._restore:
            ns, key, original = self._restore.pop()
            setattr(ns, key, original)

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per round: '<span>.calls', '<span>.s' and '<span>.self_s', plus counters."""
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _r, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, _parent, _op, r, name, start, end in self.spans:
            agg = rounds[r]
            agg[name + ".calls"] += 1
            agg[name + ".s"] += end - start
            agg[name + ".self_s"] += end - start - child_time[span_id]
        for (r, key), value in self.counts.items():
            rounds[r][key] += value
        return rounds

    def layer_metrics(self, rounds: list[int]) -> dict[str, float]:
        """Median over the traced rounds of each per-round value, plus maxima."""
        table = self.per_round()
        keys = set()
        for r in rounds:
            keys.update(table[r])
        out = {key: statistics.median(table[r].get(key, 0.0) for r in rounds) for key in keys}
        solves = out.get("deutsch.fixed_points.calls", 0.0)
        maps = out.get("deutsch.induced_map.calls", 0.0)
        out["deutsch.induced_map.per_solve"] = maps / solves if solves else 0.0
        out.update(self.maxima)
        return out

    def write(self, path) -> None:
        """All spans as JSON, one per line, with times relative to the first."""
        t0 = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, r, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "round": r,
                                     "name": name, "start": start - t0, "end": end - t0}) + "\n")
