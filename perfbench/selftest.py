"""Fast self-test of the independent checkers (no gapcover needed).

    python3 perfbench/selftest.py

Shows that the checks accept a correct report entry and reject a falsified
progression, a miscounted C, a wrong projection count and a wrong verdict.
"""

from __future__ import annotations

import copy
import sys

import checks

DISK = {"type": "ellipsoid", "form": [["1/4", 0], [0, "1/4"]]}  # radius 2: 13 points


def entry(halfsides, card_c=13) -> dict:
    card_p = (2 * halfsides[0] + 1) * (2 * halfsides[1] + 1)
    rep = {"cardinality_C": card_c, "cardinality_P": card_p, "ratio": f"{card_p}/13", "contained": True, "witness": None}
    return {
        "mode": "cover",
        "instance": {"dim": 2, "body": DISK},
        "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": list(halfsides)},
        "cover": dict(rep),
        "verify": dict(rep),
        "contained": True,
    }


def expect(name: str, problems: list, rejected: bool) -> None:
    if bool(problems) != rejected:
        sys.exit(f"selftest {name}: expected {'rejection' if rejected else 'acceptance'}, got {problems}")


def main() -> int:
    disk = checks.lattice_points(DISK)
    if len(disk) != 13 or (2, 0) not in disk or (1, 2) in disk:
        sys.exit(f"selftest: disk of radius 2 scanned as {disk}")
    square = checks.lattice_points({"type": "vertices", "points": [[1, 1], [1, -1]]})
    segment = checks.lattice_points({"type": "vertices", "points": [[2, 2]]})
    if len(square) != 9 or segment != [(-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)]:
        sys.exit(f"selftest: vertex scans gave {square} and {segment}")

    expect("correct cover", checks.check_cover_entry(entry((2, 2)), disk), rejected=False)
    # a progression cut below (2, 0), with its own counts consistent
    expect("falsified progression", checks.check_cover_entry(entry((1, 2)), disk), rejected=True)
    expect("miscounted C", checks.check_cover_entry(entry((2, 2), card_c=12), disk), rejected=True)

    good = entry((2, 2))
    phi = (1, 1)
    fibres = checks.image_fibres(good["gap"], phi)
    good["projection"] = {
        "functional": [1, 1], "image_count_C": 5, "max_fiber_C": 3, "image_count_P": len(fibres),
        "max_fiber_P": max(fibres.values()), "cardinality_P": 25, "sumset_cardinality": 81, "degraded": False,
        "doubling_ok": True, "fiber_monotone": True, "chain_ok": True, "corollary_ok": True,
    }
    if (len(fibres), max(fibres.values())) != (9, 5):
        sys.exit(f"selftest: fibres of the 5x5 grid under x+y are {fibres}")
    expect("correct projection", checks.check_cover_entry(good, disk, phi), rejected=False)
    bad = copy.deepcopy(good)
    bad["projection"]["image_count_P"] = 8
    expect("miscounted projection", checks.check_cover_entry(bad, disk, phi), rejected=True)

    claim = {
        "instance": {"dim": 2, "body": DISK, "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [1, 2]}},
        "verify": {"cardinality_C": 13, "cardinality_P": 15, "ratio": "15/13", "contained": False, "witness": [-2, 0]},
        "contained": False,
    }
    expect("false claim caught", checks.check_claim_entry(claim, disk, {"contained": False, "witness": (-2, 0)}), rejected=False)
    expect("wrong witness", checks.check_claim_entry(claim, disk, {"contained": False, "witness": (2, 0)}), rejected=True)
    expect("wrong verdict", checks.check_claim_entry(claim, disk, {"contained": True, "witness": None}), rejected=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
