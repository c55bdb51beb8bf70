"""Spans and work counts at gapcover's layer boundaries.

Each public function is wrapped at the name its caller looks it up by (for
example ``gapcover.cover.enum_body`` and
``gapcover.enumeration.hull_line_extent``), so no file of the program
changes. A span is (name, start, end, parent, instance); spans stay in memory
and are written out when the run ends. A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from collections import defaultdict

# span name -> the (module, attribute) sites its callers look it up by
SITES = {
    "harness.gen_random": [("harness", "gen_random")],
    "harness.parse_instance": [("harness", "parse_instance")],
    "harness.run_batch": [("harness", "run_batch")],
    "cover.cover": [("harness", "cover")],
    "cover.verify_cover": [("harness", "verify_cover")],
    "cover.verify_projection": [("harness", "verify_projection")],
    "cover.restrict_to_span": [("cover", "restrict_to_span")],
    "cover.gap_membership_tester": [("cover", "gap_membership_tester")],
    "enumeration.enum_body": [("cover", "enum_body")],
    "enumeration.enum_gap": [("cover", "enum_gap")],
    "enumeration.subset_check": [("cover", "subset_check")],
    "enumeration.project_count": [("cover", "project_count")],
    "geomcore.hull_line_extent": [("enumeration", "hull_line_extent")],
    "geomcore.mvee": [("cover", "mvee")],
    "geomcore.circumscribe_parallelotope": [("cover", "circumscribe_parallelotope")],
    "latred.lll_reduce": [("cover", "lll_reduce")],
    "latred.certify_reduction": [("cover", "certify_reduction")],
    "exactalg.unimodular_solve": [("cover", "unimodular_solve")],
    "exactalg.det": [(m, "det") for m in ("cover", "exactalg", "geomcore", "harness", "latred")],
    "exactalg.inverse": [(m, "inverse") for m in ("cover", "exactalg", "geomcore", "latred")],
}

# spans reported as per-layer self time, in milliseconds
TIMED = [
    "enumeration.enum_body",
    "geomcore.hull_line_extent",
    "latred.lll_reduce",
    "latred.certify_reduction",
    "exactalg.unimodular_solve",
    "exactalg.det",
    "exactalg.inverse",
    "geomcore.circumscribe_parallelotope",
    "geomcore.mvee",
    "enumeration.enum_gap",
    "enumeration.project_count",
    "cover.gap_membership_tester",
    "enumeration.subset_check",
    "cover.cover",
    "cover.verify_cover",
    "cover.verify_projection",
    "cover.restrict_to_span",
    "harness.gen_random",
    "harness.parse_instance",
    "harness.report_json",
]


def _box_points(body) -> int:
    return math.prod(2 * b + 1 for b in body.int_box_bounds())


def _tested(points, result) -> int:
    ok, witness = result
    return len(points) if ok else points.points.index(tuple(witness)) + 1


# work counts taken where the work happens: name -> (counter, f(args, result))
COUNTS = {
    "enumeration.enum_body": [
        ("enumeration.points_kept", lambda a, r: len(r)),
        ("enumeration.box_points", lambda a, r: _box_points(a[0])),
    ],
    "geomcore.hull_line_extent": [
        ("geomcore.lines_swept", lambda a, r: 1),
        ("geomcore.lines_hit", lambda a, r: r is not None),
    ],
    "enumeration.enum_gap": [("enumeration.gap_points", lambda a, r: len(r))],
    "enumeration.subset_check": [("enumeration.points_tested", lambda a, r: _tested(a[0], r))],
}


COUNTERS = [c for counts in COUNTS.values() for c, _ in counts]


class Tracer:
    """Spans kept in memory. The stack holds span objects, not indices, so
    that a span opened by the speed probe's signal handler in the middle of
    ``_open`` or ``_close`` cannot mix up parents."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span or None, instance]
        self.stack: list[list] = []
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.instance = -1  # -1: set-up
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _open(self, name: str) -> list:
        s = [name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else None, self.instance]
        self.spans.append(s)
        self.stack.append(s)
        return s

    def _close(self, s: list) -> None:
        s[2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        counts = COUNTS.get(name, ())

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            for counter, f in counts:
                self.counts[(counter, self.instance)] += f(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in SITES.items():
            for module, attr in sites:
                mod = importlib.import_module(f"gapcover.{module}")
                original = getattr(mod, attr)
                self._undo.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def self_ms(self, instances) -> dict[str, float]:
        """Self time per span name, in ms, over the spans of the given
        instances."""
        child: dict[int, int] = defaultdict(int)
        for name, start, end, parent, inst in self.spans:
            if parent is not None:
                child[id(parent)] += end - start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            name, start, end, parent, inst = s
            if inst in instances:
                out[name] += (end - start - child[id(s)]) / 1e6
        return out

    def count(self, counter: str, instances) -> int:
        return sum(v for (c, inst), v in self.counts.items() if c == counter and inst in instances)

    def calls(self, name: str, instances) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] in instances)

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for name, start, end, parent, inst in self.spans:
                parent_index = index[id(parent)] if parent is not None else -1
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent_index, "instance": inst}) + "\n")
