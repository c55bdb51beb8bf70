"""Canonical reports pinned by hash.

``run_batch`` runs each instance of a small fixed list on its own, and the
sha256 of its canonical JSON report must equal the one recorded in
``golden_reports.json``.  The list holds ``gen_random`` seeds 0-3 of every
generator kind at d = 2..4, a box, a ball, verify-mode claims (true and
false, with base 0 and nonzero, over a lattice of determinant 2 and of
lower order), an instance with a functional phi, a budget skip, and two
cover-mode bodies whose lattice points span a proper subspace.

The hashes pin more than the exact stages: the enclosing ellipsoid (MVEE)
comes from Khachiyan's iteration in CPython floats, so they also pin those
float steps.  These are correctly rounded IEEE operations that depend on no
numpy or BLAS build, but they also pin CPython's ``sum()`` of floats: it
adds left to right up to 3.11 and is compensated from 3.12 on, while
``pyproject.toml`` allows 3.10 and later.  So the reports depend on the
interpreter: all 47 hashes hold on CPython 3.10.13 and 3.11.7, while on
3.12.1 and 3.13.0 eight differ, all ``random-vertices`` at d = 3 and 4.
Summing with ``functools.reduce(operator.add, ..., 0.0)`` in ``mvee``
would make all 47 hold on 3.11 to 3.13, at about 20 % more ``mvee`` time.
Only a change that declares a change of output may regenerate the file,
under CPython 3.11 or older, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

from gapcover.harness import (
    GENERATOR_KINDS,
    batch_report_to_json,
    gen_random,
    parse_instance,
    run_batch,
    to_canonical_json,
)

FIXTURE = pathlib.Path(__file__).with_name("golden_reports.json")

FIXED = {
    "box": {"dim": 3, "body": {"type": "box", "halfwidths": ["5/2", 3, "7/3"]}},
    "ball": {"dim": 3, "body": {"type": "ball", "radius": "7/2"}},
    "verify-claim": {
        "dim": 2,
        "body": {"type": "ellipsoid", "form": [["17/8", "13/16"], ["13/16", "5/16"]]},
        "gap": {"base": [0, 0], "diffs": [[1, -3], [0, 1]], "halfsides": [1, 1]},
    },
    "phi": {"dim": 3, "body": {"type": "ball", "radius": 3}, "phi": [1, -2, 1]},
    "budget-skip": {"dim": 3, "body": {"type": "box", "halfwidths": [100, 100, 100]}, "budget": 1000},
    # false; the witness (-2, 0, -1) is the mirror of the lexicographically
    # positive (2, 0, 1)
    "claim-mirror-witness": {
        "dim": 3,
        "body": {"type": "ball", "radius": "5/2"},
        "gap": {"base": [0, 0, 0], "diffs": [[1, 0, 0], [1, 1, 0], [0, 1, 1]], "halfsides": [2, 2, 1]},
    },
    # false; P is not symmetric and the witness (0, 0, 2) lies in the swept half
    "claim-nonzero-base": {
        "dim": 3,
        "body": {"type": "ball", "radius": 2},
        "gap": {"base": [-1, 0, -1], "diffs": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "halfsides": [2, 2, 2]},
    },
    # false; the differences span a lattice of determinant 2 without e_2
    "claim-det2-lattice": {
        "dim": 2,
        "body": {"type": "ball", "radius": 2},
        "gap": {"base": [0, 0], "diffs": [[1, 0], [1, 2]], "halfsides": [4, 2]},
    },
    # true; a progression of order 2 in Z^3 covering a planar body
    "claim-lower-order": {
        "dim": 3,
        "body": {"type": "vertices", "points": [[2, 1, 0], [1, -1, 0]]},
        "gap": {"base": [0, 0, 0], "diffs": [[1, 0, 0], [0, 1, 0]], "halfsides": [2, 1]},
    },
    # cover mode on a proper subspace: C = {(-1, 0), (0, 0), (1, 0)}, so the
    # ellipsoid is pulled back to its 1-D sublattice
    "restricted-ellipsoid": {"dim": 2, "body": {"type": "ellipsoid", "form": [["1/2", 0], [0, 25]]}},
    # cover mode on a planar vertex body in Z^3 (mvee in the plane), with a
    # functional whose fibres on C hold more than one point
    "restricted-vertices-phi": {
        "dim": 3,
        "body": {"type": "vertices", "points": [[2, 1, 0], [1, -1, 0]]},
        "phi": [1, 1, 2],
    },
}


def instances():
    """(name, InstanceSpec) for every pinned instance."""
    out = [
        (f"{kind}/d{dim}/s{seed}", gen_random(kind, dim, seed))
        for kind in GENERATOR_KINDS
        for dim in (2, 3, 4)
        for seed in range(4)
    ]
    return out + [(name, parse_instance(doc)) for name, doc in FIXED.items()]


def report_hash(spec) -> str:
    text = to_canonical_json(batch_report_to_json(run_batch([spec])))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("name, spec", instances(), ids=[name for name, _ in instances()])
def test_report_hash(name, spec):
    assert report_hash(spec) == GOLDEN[name]


def test_fixture_names_every_instance():
    assert sorted(GOLDEN) == sorted(name for name, _ in instances())


if __name__ == "__main__":
    if sys.version_info >= (3, 12):
        sys.exit("golden hashes are written under CPython 3.11 or older: from 3.12 on, sum() of floats is compensated")
    FIXTURE.write_text(
        json.dumps({name: report_hash(spec) for name, spec in instances()}, indent=2) + "\n"
    )
