"""Canonical reports pinned by hash, checked without pytest.

``run_batch`` runs each instance of a small fixed list on its own, and the
sha256 of its canonical JSON report must equal the one recorded in
``golden_reports.json``.  ``test_golden_reports.py`` runs the same check
under pytest; this module needs only the standard library and ``gapcover``,
so any interpreter can run it.  From the root of the repository:

    PYTHONPATH=src python tests/_golden.py           # check; name each mismatch
    PYTHONPATH=src python tests/_golden.py --write   # regenerate; name each hash that moved or is new

The hashes pin the compact canonical text (``to_canonical_json``: sorted
keys, no insignificant whitespace), byte for byte.  Only a change that
declares a change of output may regenerate the file, and it quotes the
count of hashes that ``--write`` reports as moved.
"""

import hashlib
import json
import pathlib
import sys

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
    # phi_d = 0: every run of C adds its length to one fibre at once
    "ball-phi-last-zero": {"dim": 3, "body": {"type": "ball", "radius": 3}, "phi": [1, 2, 0]},
    # true; P is not symmetric, and phi's fibres on P come from closed forms
    "claim-nonzero-base-phi": {
        "dim": 3,
        "body": {"type": "ball", "radius": 2},
        "gap": {"base": [1, 0, 0], "diffs": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "halfsides": [3, 2, 2]},
        "phi": [2, -1, 1],
    },
    # true; d_3 = d_1 + d_2, so P and P+P are listed
    "claim-dependent-phi": {
        "dim": 2,
        "body": {"type": "ball", "radius": 2},
        "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1], [1, 1]], "halfsides": [2, 2, 1]},
        "phi": [1, -2],
    },
    # true; phi(d_1) = 0, so the first step of P's convolution only scales
    "claim-phi-vanishes-on-diff": {
        "dim": 3,
        "body": {"type": "ball", "radius": 2},
        "gap": {"base": [0, 0, 0], "diffs": [[1, -1, 0], [0, 1, 0], [0, 0, 1]], "halfsides": [2, 3, 2]},
        "phi": [1, 1, 3],
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


def load_golden() -> dict:
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def main(argv) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tests/_golden.py [--write]", file=sys.stderr)
        return 2
    hashes = {name: report_hash(spec) for name, spec in instances()}
    golden = load_golden()
    bad = [name for name in hashes if golden.get(name) != hashes[name]]
    bad += [f"{name} (in the fixture, not an instance)" for name in golden if name not in hashes]
    if argv:
        FIXTURE.write_text(json.dumps(hashes, indent=2) + "\n")
        new = [name for name in hashes if name not in golden]
        for name in bad:
            print(f"{'NEW' if name in new else 'MOVED'} {name}")
        print(f"wrote {len(hashes)} hashes to {FIXTURE.name}: {len(bad) - len(new)} moved, {len(new)} new")
        return 0
    for name in bad:
        print(f"MISMATCH {name}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"CPython {version}: {len(hashes) - len(bad)} of {len(hashes)} hashes match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
