"""The benchmark's tracer counts work from the values gapcover returns.

perfbench/tracing.py reads ``len()`` of enum_body's result for
``points_kept``, ``len()`` of enum_gap's for ``gap_points``, and ``len()``
and ``.points.index()`` of subset_check's first argument for
``points_tested``.  These tests run the traced pipeline and hold each count
to the reports, so that a change of those types fails here rather than in
the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from gapcover import harness

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

BALL = {"type": "ball", "radius": 2}  # 13 points
DISK_5 = {"type": "ellipsoid", "form": [["1/5", 0], [0, "1/5"]]}  # x^2 + y^2 <= 5: 21 points
# the hexagon |x|, |y|, |x - y| <= 2, 19 points, by dependent differences
HEXAGON = {"base": [0, 0], "diffs": [[1, 0], [0, 1], [1, 1]], "halfsides": [1, 1, 1]}

# (instance, points_kept, gap_points, points_tested)
CASES = [
    ({"dim": 2, "body": BALL, "phi": [1, 2]}, 13, 0, 0),
    ({"dim": 2, "body": BALL, "gap": HEXAGON}, 13, 19, 13),
    # (-2, -1), (-2, 0) are in the hexagon, (-2, 1) is the witness
    ({"dim": 2, "body": DISK_5, "gap": HEXAGON}, 21, 19, 3),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.fixture
def traced_batch():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        entries = []
        for i, (doc, *_) in enumerate(CASES):
            tracer.instance = i
            batch = harness.run_batch([harness.parse_instance(doc)], include_timings=True)
            entries.append(batch.entries[0])
    finally:
        tracer.uninstall()
    return tracer, entries


def test_counts_match_reports(traced_batch):
    tracer, entries = traced_batch
    for i, ((_, kept, gap_points, tested), entry) in enumerate(zip(CASES, entries)):
        assert "error" not in entry
        verify = entry["verify"]
        assert tracer.count("enumeration.points_kept", {i}) == verify["cardinality_C"] == kept
        assert tracer.count("enumeration.gap_points", {i}) == gap_points
        timings = verify["timings_ms_approx"]
        assert tracer.count("enumeration.points_tested", {i}) == timings["points_tested"] == tested
        if gap_points:
            assert verify["cardinality_P"] == gap_points
    assert entries[0]["projection"]["image_count_C"] == 9
    assert entries[1]["verify"]["contained"] is True
    assert entries[2]["verify"]["witness"] == [-2, 1]
