"""Seeded benchmark of gapcover's exact cover pipeline.

    python3 perfbench/run.py --workload vertex-bodies --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` and
driven through its public entry point ``harness.run_batch``, one instance at
a time, in this single process; each report is serialised with
``batch_report_to_json`` and ``to_canonical_json`` and checked against the
independent computations of ``checks.py``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). See README.md for the workloads, metrics and their spread.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# On the 2-vCPU Xeon VM this was tuned on, host speed drifts by up to 2x,
# within tens of milliseconds and over seconds alike, and CPU time follows
# wall time. So a timer interrupts the run every PROBE_S and times a fixed
# kernel; that time is taken out of whatever the kernel interrupted, and each
# instance's time is scaled by KERNEL_REF_S over the mean kernel time within
# WINDOW_S of it, i.e. reported in seconds at the speed where one kernel pass
# takes KERNEL_REF_S.
KERNEL_REF_S = 0.006
PROBE_S = 0.05
WINDOW_S = 0.3
SETUP_S = 1.5  # set-up is repeated for about this long, at least 3 times


def kernel() -> float:
    """Time one pass of a fixed workload of the kinds of operation the
    program spends its time on: tuple-keyed dict updates and a sort, reads
    scattered over a 16 MB list, and Fraction Gauss-Jordan steps. The
    scattered reads make the pass slow down, as the program does, when the
    host's caches are contended; without them the pass tracked the program
    with a log-log slope of 0.4-0.7 instead of about 1."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    total = 0
    for i in _SCATTER:
        total += _BIG[i]
    n = 6
    m = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 4) + 20 * (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return time.perf_counter() - t0


_BIG = [i & 255 for i in range(1 << 21)]  # small ints are shared: 16 MB of references
_SCATTER = [(i * 2654435761) % (1 << 21) for i in range(1500)]


class SpeedProbe:
    """Kernel passes on a wall-clock timer. ``spent`` is the time the
    passes took, to be taken out of the work they interrupted."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent = 0.0
        self.tracer = tracer

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        with self.tracer.span("probe.kernel") if self.tracer else contextlib.nullcontext():
            self.samples.append(kernel())
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        return KERNEL_REF_S / statistics.fmean(self.samples[start:stop])

    def local_scale(self, t0: float, t1: float) -> float:
        """Scale from the passes within WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        # a native call that holds off the timer can leave a window empty
        return self.scale(lo, hi) if hi > lo else self.scale()


def fresh_import():
    for name in [m for m in sys.modules if m == "gapcover" or m.startswith("gapcover.")]:
        del sys.modules[name]
    return importlib.import_module("gapcover.harness")


def build(harness, workload: str, seed: int, claims_cache: dict, probe: SpeedProbe):
    """One set-up: import, gen_random and parse_instance over the corpus.
    Returns (harness, items, specs, (start, end, seconds of set-up)).
    Claims, which need the independent lattice points, are attached outside
    the timed part."""
    t0, p0 = time.perf_counter(), probe.spent
    harness = harness or fresh_import()
    docs = workloads.generate(harness, workload, seed)
    t1, p1 = time.perf_counter(), probe.spent
    if workload == "verify-claims":
        if "items" not in claims_cache:
            claims_cache["items"] = workloads.attach_claims(docs, lattice_points, checks.gap_members, seed)
        items = claims_cache["items"]
    else:
        items = [workloads.Item(doc) for doc in docs]
    t2, p2 = time.perf_counter(), probe.spent
    specs = [harness.parse_instance(item.doc) for item in items]
    t3, p3 = time.perf_counter(), probe.spent
    return harness, items, specs, (t0, t3, (t1 - t0) - (p1 - p0) + (t3 - t2) - (p3 - p2))


_POINTS: dict[str, list] = {}


def lattice_points(body: dict) -> list:
    key = json.dumps(body, sort_keys=True)
    if key not in _POINTS:
        _POINTS[key] = checks.lattice_points(body)
    return _POINTS[key]


def timed_rounds(harness, specs, seconds: float, probe: SpeedProbe, tracer):
    """Whole rounds over the corpus while the next one fits in the run.
    Returns per-round lists of (start, end, seconds of work) per instance
    and the first round's canonical reports; a later round that differs
    marks the run incorrect."""
    rounds, first, identical = [], [], True
    start = time.perf_counter()
    while True:
        gc.collect()
        times = []
        for i, spec in enumerate(specs):
            if tracer:
                tracer.instance = len(rounds) * len(specs) + i
            span = tracer.span("harness.report_json") if tracer else contextlib.nullcontext()
            t0, p0 = time.perf_counter(), probe.spent
            batch = harness.run_batch([spec])
            with span:
                text = harness.to_canonical_json(harness.batch_report_to_json(batch))
            t1 = time.perf_counter()
            times.append((t0, t1, t1 - t0 - (probe.spent - p0)))
            if not rounds:
                first.append(text)
            elif text != first[i]:
                identical = False
        rounds.append(times)
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return rounds, first, identical


def check(items, texts) -> tuple[int, int, list]:
    """(errors, rejected, ratios) over one round: an error is an instance
    the program raised on; a rejected one has a result the independent
    checks refuse."""
    errors, rejected, ratios = 0, 0, []
    for item, text in zip(items, texts):
        entry = json.loads(text)["instances"][0]
        if "error" in entry:
            errors += 1
            print(f"instance raised: {entry['error']}", file=sys.stderr)
            continue
        points = lattice_points(entry["instance"]["body"])
        if item.expect is not None:
            problems = checks.check_claim_entry(entry, points, item.expect)
            ratios.append(checks.rat(entry["verify"]["ratio"]))
        else:
            problems = checks.check_cover_entry(entry, points, entry["instance"].get("phi"))
            ratios.append(checks.rat(entry["cover"]["ratio"]))
        if problems:
            rejected += 1
            print(f"rejected {json.dumps(entry['instance'])}: {problems[:3]}", file=sys.stderr)
    return errors, rejected, ratios


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gapcover" / "harness.py").is_file():
        print(f"gapcover sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = tracing.Tracer() if args.trace else None
    with SpeedProbe(tracer) as probe:
        # set-up, several times; the last import is the one measured
        setup_s, claims_cache = [], {}
        while len(setup_s) < 3 or sum(dt for _, _, dt in setup_s) < SETUP_S:
            harness, items, specs, timed = build(None, args.workload, args.seed, claims_cache, probe)
            setup_s.append(timed)
        setup_samples = len(probe.samples)
        if tracer:
            tracer.install()
            _, _, specs, _ = build(harness, args.workload, args.seed, claims_cache, probe)
        rounds, texts, identical = timed_rounds(harness, specs, args.seconds, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    t_check = time.perf_counter()
    errors, rejected, ratios = check(items, texts)
    t_check = time.perf_counter() - t_check
    n_rounds, n = len(rounds), len(specs)
    setup_s = [dt * probe.local_scale(t0, t1) for t0, t1, dt in setup_s]
    instance_s = [[dt * probe.local_scale(t0, t1) for t0, t1, dt in r] for r in rounds]
    if not tracer:
        operations_ms = [dt * 1000 for r in instance_s for dt in r]
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "wall_s": metric(statistics.median(sum(r) for r in instance_s), "s"),
            "instance_ms.p50": metric(statistics.median(operations_ms), "ms"),
            "instance_ms.p90": metric(statistics.quantiles(operations_ms, n=10)[8], "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "cover_ratio_geomean": metric(math.exp(statistics.fmean(math.log(r) for r in ratios)), "ratio"),
        }
    else:
        metrics = layer_metrics(tracer, n_rounds, n, probe.scale(setup_samples))
        metrics["traced.wall_s"] = metric(statistics.median(sum(r) for r in instance_s), "s")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": identical and rejected == 0,
        "attempted": n_rounds * n,
        "failed": n_rounds * (errors + rejected),
        "metrics": metrics,
    }
    detail = {**result, "setup_s": setup_s, "instance_s": instance_s}
    (OUT / f"{stem}.json").write_text(json.dumps(detail) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(f"{args.workload}: {n_rounds} round(s) of {n} instances, {len(probe.samples)} kernel passes, "
          f"speed {probe.scale(setup_samples):.3f} of the reference; checks {t_check:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, n_rounds: int, n: int, scale: float) -> dict:
    """Per-round self time and counts of each layer; gen_random and
    parse_instance come from the traced set-up."""
    timed = range(n_rounds * n)
    self_ms = tracer.self_ms(timed)
    setup_ms = tracer.self_ms({-1})
    out = {}
    for name in tracing.TIMED:
        ms = setup_ms[name] if name in ("harness.gen_random", "harness.parse_instance") else self_ms[name] / n_rounds
        out[f"{name}.ms"] = metric(ms * scale, "ms")
    for name in ("enumeration.enum_body", "exactalg.det"):
        out[f"{name}.calls"] = metric(tracer.calls(name, timed) / n_rounds, "count")
    for c in tracing.COUNTERS:
        out[c] = metric(tracer.count(c, timed) / n_rounds, "count")
    box = out["enumeration.box_points"]["value"]
    out["enumeration.kept_per_box"] = metric(out["enumeration.points_kept"]["value"] / box if box else 0.0, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
