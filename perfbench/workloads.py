"""Seeded corpora of the four workloads.

A corpus is a fixed pool of bodies: ``gen_random`` draws with generator
seeds 0..count-1 for each stratum, plus fixed examples. The run's seed moves
every body by a signed permutation of its coordinates that keeps the last
coordinate in place, draws the functionals φ and the cut of each false
claim, and orders the instances. A symmetry keeps a body's lattice-point
count, its bounding box and the number of lines the vertex sweep visits, so
the seed changes what the program sees but not how much work it is.
Bodies drawn afresh per seed were tried first and dropped: one instance's
work is heavy-tailed (a d = 4 vertex body takes 2.1-3.9 s, one projection
instance 20 s), and on projection the median instance moved from 24 to
31 ms between seeds with the host's speed shared, more than a bound allows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("vertex-bodies", "ellipsoid-bodies", "projection", "verify-claims")


@dataclass
class Item:
    doc: dict  # the instance document handed to parse_instance
    expect: dict | None = None  # verify-claims: verdict and witness by construction


# (generator kind, dim, count, gen_random keywords): generator seeds 0..count-1
STRATA = {
    "vertex-bodies": [
        ("random-vertices", 4, 1, {}),
        ("random-vertices", 3, 5, {}),
        ("random-vertices", 2, 92, {}),
    ],
    "ellipsoid-bodies": [
        ("lattice-ball", 2, 12, {}),
        ("lattice-ball", 3, 12, {}),
        ("lattice-ball", 4, 15, {}),
        ("lattice-ball", 5, 12, {}),
        ("lattice-ball", 6, 12, {}),
        ("random-ellipsoid", 2, 12, {}),
        ("random-ellipsoid", 3, 15, {}),
        ("random-ellipsoid", 4, 10, {}),
    ],
    "projection": [
        ("lattice-ball", 3, 76, {}),
        ("lattice-ball", 4, 12, {}),
        ("lattice-ball", 5, 4, {"radius": 3}),
        ("random-ellipsoid", 3, 8, {}),
        ("random-ellipsoid", 4, 1, {"scale": 1}),
    ],
    # bodies that carry a true and a false claim each
    "verify-claims": [
        ("lattice-ball", 2, 20, {"radius": 8}),
        ("lattice-ball", 3, 20, {"radius": 6}),
        ("lattice-ball", 4, 12, {}),
        ("random-ellipsoid", 3, 12, {}),
        ("random-vertices", 2, 20, {}),
        ("random-vertices", 3, 2, {}),
    ],
}

# the 2-D vertex examples of the cover tests, the degenerate segment included
VERTEX_EXAMPLES = ([[3, 1], [1, 3], [2, -2]], [[2, 2]], [[3, 1], [1, 3]])
# the skewed lattice ellipsoid (m m^T / 16, m = [[5, 3], [2, 1]]) and the
# subspace-degenerate one (lattice points on one axis only)
ELLIPSOID_EXAMPLES = ([["17/8", "13/16"], ["13/16", "5/16"]], [["1/2", 0], [0, 25]])
SEGMENTS = 12  # verify-claims: seeded lattice segments, order-1 claims
PLATES = 30  # verify-claims: flat 3-D ellipsoids, order-2 claims
# verify-claims: a true claim whose redundant third difference makes the
# differences dependent; verify_cover raises RankError on it every time
REDUNDANT_CLAIM = {
    "dim": 2,
    "body": {"type": "ellipsoid", "form": [["1/9", 0], [0, "1/9"]]},
    "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1], [1, 1]], "halfsides": [3, 3, 1]},
}


def _json_rat(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _symmetry(rng: random.Random, d: int):
    perm = list(range(d - 1))
    rng.shuffle(perm)
    return perm + [d - 1], [rng.choice((1, -1)) for _ in range(d)]


def _move_body(body: dict, perm, signs) -> dict:
    """Image of a body under y_i = s_i x_perm(i)."""
    d = len(perm)
    if body["type"] == "vertices":
        pts = [[_json_rat(signs[i] * Fraction(p[perm[i]])) for i in range(d)] for p in body["points"]]
        return {"type": "vertices", "points": pts}
    form = body["form"]
    return {
        "type": "ellipsoid",
        "form": [[_json_rat(signs[i] * signs[j] * Fraction(form[perm[i]][perm[j]])) for j in range(d)] for i in range(d)],
    }


def _draws(harness, workload: str):
    for kind, dim, count, kw in STRATA[workload]:
        for i in range(count):
            yield harness.gen_random(kind, dim, i, **kw).to_json_dict()["body"], dim


def generate(harness, workload: str, seed: int) -> list[dict]:
    """Instance documents before any claim is attached (the timed part of
    set-up together with parse_instance)."""
    rng = random.Random(f"{workload}:{seed}")
    bodies = list(_draws(harness, workload))
    if workload == "vertex-bodies":
        bodies += [({"type": "vertices", "points": p}, 2) for p in VERTEX_EXAMPLES]
    if workload == "ellipsoid-bodies":
        bodies += [({"type": "ellipsoid", "form": f}, 2) for f in ELLIPSOID_EXAMPLES]
    if workload == "verify-claims":
        segments = random.Random("segments")
        bodies += [_segment(segments) for _ in range(SEGMENTS)]
        for i in range(PLATES):
            flat = harness.gen_random("lattice-ball", 2, i, radius=10).to_json_dict()["body"]
            bodies.append((_plate(flat), 3))
    docs = []
    for body, dim in bodies:
        perm, signs = _symmetry(rng, dim)
        docs.append({"dim": dim, "body": _move_body(body, perm, signs)})
    if workload == "projection":
        for doc in docs:
            phi = [0] * doc["dim"]
            while not any(phi):
                phi = [rng.randint(-3, 3) for _ in range(doc["dim"])]
            doc["phi"] = phi
    rng.shuffle(docs)
    return docs


def _segment(rng: random.Random) -> tuple[dict, int]:
    """conv(±m v) for a primitive v: its lattice points are t v, |t| <= m."""
    d = rng.choice((2, 3))
    v = [0] * d
    while math.gcd(*v) != 1:
        v = [rng.randint(-2, 2) for _ in range(d)]
    m = rng.randint(1, 3)
    return {"type": "vertices", "points": [[m * c for c in v]]}, d


def _plate(flat: dict) -> dict:
    """A 3-D ellipsoid whose lattice points are those of a 2-D one: the
    third coordinate is held to |z| <= 1/2."""
    (a, b), (c, e) = flat["form"]
    return {"type": "ellipsoid", "form": [[a, b, 0], [c, e, 0], [0, 0, 4]]}


def attach_claims(docs: list[dict], lattice_points, members, seed: int) -> list[Item]:
    """verify-claims: turn each body into a true and a false claim whose
    verdicts are known by construction."""
    rng = random.Random(f"claims:{seed}")
    items = []
    for doc in docs:
        c_points = lattice_points(doc["body"])
        d = doc["dim"]
        if doc["body"]["type"] == "vertices" and len(doc["body"]["points"]) == 1:
            # a segment: its lattice points are the multiples t*step, |t| <= g
            v = [int(c) for c in doc["body"]["points"][0]]
            g = math.gcd(*v)
            diffs, halfsides = [[c // g for c in v]], [g]
        else:
            # the lattice points' own bounding box, on the axes they use
            axes = [j for j in range(d) if any(p[j] for p in c_points)]
            diffs = [[int(i == j) for i in range(d)] for j in axes]
            halfsides = [max(abs(p[j]) for p in c_points) for j in axes]
        items.append(_claim(doc, diffs, halfsides, c_points, members, contained=True))
        # false: one half-side cut below the lattice point that attains it
        cut = rng.randrange(len(halfsides))
        halfsides = halfsides[:cut] + [halfsides[cut] - 1] + halfsides[cut + 1 :]
        items.append(_claim(doc, diffs, halfsides, c_points, members, contained=False))
    items.append(Item(REDUNDANT_CLAIM, {"contained": True, "witness": None}))
    rng.shuffle(items)
    return items


def _claim(doc, diffs, halfsides, c_points, members, contained: bool) -> Item:
    gap = {"base": [0] * doc["dim"], "diffs": diffs, "halfsides": halfsides}
    witness = None
    if not contained:
        # verify_cover lists C in lexicographic order and stops at the
        # first point outside P
        witness = next(p for p, ok in zip(c_points, members(gap, c_points)) if not ok)
    return Item({**doc, "gap": gap}, {"contained": contained, "witness": witness})
