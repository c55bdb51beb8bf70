"""Independent checks of gapcover's batch reports.

Nothing here imports gapcover or reuses one of its algorithms:

- the lattice points C of an ellipsoid body come from a scan of its
  integerized quadratic form over the box given by the exact inverse form;
- the lattice points of a vertex body come from a facet description of
  conv(±V) computed here from d-subsets of ±V (or, for a segment, from the
  gcd of its single vertex);
- P ⊇ C is an exact integer solve for each point's coefficients;
- #P = Π(2nᵢ+1) and #(P+P) = Π(4nᵢ+1) when the differences are independent;
- φ(P) and its fibres are the coefficients of Πᵢ(x^(−nᵢcᵢ)+…+x^(nᵢcᵢ)),
  with cᵢ = φ(dᵢ).

Each ``check_*`` function takes an entry without an error and returns a
list of problems; an empty list means the entry agrees with the independent
computation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

Point = tuple[int, ...]

_CHUNK = 1 << 14


def rat(x) -> Fraction:
    """A report rational: an int or a "p/q" string."""
    return Fraction(x)


# ---------------------------------------------------------------- linear algebra


def _eliminate(rows: list[list[Fraction]], ncols: int):
    """Row-reduce in place; returns the pivot (row, col) pairs."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def rank(vectors) -> int:
    vecs = [[Fraction(x) for x in v] for v in vectors]
    if not vecs:
        return 0
    return len(_eliminate(vecs, len(vecs[0])))


def inverse(m) -> list[list[Fraction]]:
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    if len(_eliminate(aug, n)) != n:
        raise ValueError("singular matrix")
    return [row[n:] for row in aug]


class CoefficientSolver:
    """Exact integer coefficients m with W m = x, for an integer W (d x k)
    of full column rank, in integer arithmetic: for k independent rows R of
    W and D the common denominator of W_R^-1, m = (D W_R^-1) x_R / D; the
    other rows are then checked."""

    def __init__(self, columns):
        self.k = len(columns)
        self.d = len(columns[0])
        self.w = [[int(columns[j][i]) for j in range(self.k)] for i in range(self.d)]
        # k independent rows, chosen greedily
        self.rows: list[int] = []
        for i, row in enumerate(self.w):
            if len(self.rows) < self.k and rank([self.w[r] for r in self.rows] + [row]) > len(self.rows):
                self.rows.append(i)
        if len(self.rows) != self.k:
            raise ValueError("differences are dependent")
        inv = inverse([self.w[i] for i in self.rows])
        self.den = math.lcm(*(x.denominator for row in inv for x in row))
        self.scaled_inv = [[int(x * self.den) for x in row] for row in inv]

    def solve(self, x) -> list[int] | None:
        """The integer coefficients, or None when x is not an integer
        combination of the columns."""
        xs = [x[i] for i in self.rows]
        m = []
        for row in self.scaled_inv:
            q, r = divmod(sum(a * b for a, b in zip(row, xs)), self.den)
            if r:
                return None
            m.append(q)
        for i in range(self.d):
            if sum(a * b for a, b in zip(self.w[i], m)) != x[i]:
                return None
        return m


# ---------------------------------------------------------------- lattice points


def _scan(bounds, test) -> list[Point]:
    return [p for p in product(*(range(-b, b + 1) for b in bounds)) if test(p)]


def ellipsoid_points(form) -> list[Point]:
    """All integer x with x^T A x <= 1, A the (rational) form."""
    a = [[rat(x) for x in row] for row in form]
    d = len(a)
    den = math.lcm(*(x.denominator for row in a for x in row))
    n = [[int(x * den) for x in row] for row in a]
    inv = inverse(a)
    # |x_j| <= sqrt((A^-1)_jj) on the ellipsoid
    bounds = [math.isqrt(inv[j][j].numerator * inv[j][j].denominator) // inv[j][j].denominator for j in range(d)]
    worst = sum(abs(n[i][j]) * bounds[i] * bounds[j] for i in range(d) for j in range(d))
    if worst >= 2**62 or den >= 2**62:
        return _scan(bounds, lambda p: sum(p[i] * n[i][j] * p[j] for i in range(d) for j in range(d)) <= den)
    # int64 is exact below 2^62; the box is scanned in chunks so that this
    # check never needs more memory than the program's own enumeration
    shape = [2 * b + 1 for b in bounds]
    offset = np.array(bounds, dtype=np.int64)
    form = np.array(n, dtype=np.int64)
    total = math.prod(shape)
    kept = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        grid = np.stack(np.unravel_index(idx, shape), axis=1).astype(np.int64) - offset
        vals = np.einsum("pi,ij,pj->p", grid, form, grid)
        kept.extend(tuple(int(c) for c in row) for row in grid[vals <= den])
    return kept


def facets(points) -> list[list[Fraction]]:
    """Normals a of the facets {a.x = 1} of conv(±V), V spanning."""
    d = len(points[0])
    sym = [tuple(Fraction(c) for c in p) for p in points] + [tuple(-Fraction(c) for c in p) for p in points]
    found = set()
    for subset in combinations(sym, d):
        try:
            inv = inverse(subset)
        except ValueError:
            continue
        # a with v.a = 1 for every v of the subset
        a = tuple(sum(inv[i][j] for j in range(d)) for i in range(d))
        if all(abs(sum(x * y for x, y in zip(a, v))) <= 1 for v in sym):
            found.add(a)
    return sorted(found)


def vertex_points(points) -> list[Point]:
    d = len(points[0])
    pts = [[rat(c) for c in p] for p in points]
    r = rank(pts)
    if r == d:
        normals = facets(pts)
        rows = []
        for a in normals:
            den = math.lcm(*(x.denominator for x in a))
            rows.append(([int(x * den) for x in a], den))
        bounds = [int(max(abs(p[j]) for p in pts)) for j in range(d)]
        return _scan(bounds, lambda p: all(abs(sum(c * x for c, x in zip(row, p))) <= den for row, den in rows))
    if r == 1 and len(pts) == 1 and all(c.denominator == 1 for c in pts[0]):
        v = [int(c) for c in pts[0]]
        g = math.gcd(*v)
        step = [c // g for c in v]
        return sorted(tuple(t * c for c in step) for t in range(-g, g + 1))
    raise ValueError("vertex body is neither spanning nor an integer segment")


def lattice_points(body: dict) -> list[Point]:
    """Lexicographically sorted lattice points of a body document."""
    if body["type"] == "ellipsoid":
        return ellipsoid_points(body["form"])
    if body["type"] == "vertices":
        return vertex_points(body["points"])
    raise ValueError(f"no independent scan for body type {body['type']!r}")


# ---------------------------------------------------------------- progressions


def gap_members(gap: dict, points) -> list[bool]:
    """Exact membership of each point in the progression."""
    base, diffs, halfsides = gap["base"], gap["diffs"], gap["halfsides"]
    if not diffs:
        return [list(p) == list(base) for p in points]
    solver = CoefficientSolver(diffs)
    out = []
    for p in points:
        m = solver.solve([a - b for a, b in zip(p, base)])
        out.append(m is not None and all(abs(c) <= n for c, n in zip(m, halfsides)))
    return out


def independent(gap: dict) -> bool:
    active = [v for v, n in zip(gap["diffs"], gap["halfsides"]) if n >= 1]
    return rank(active) == len(active)


def image_fibres(gap: dict, phi) -> dict[int, int]:
    """φ-fibre sizes of a proper progression: coefficients of
    x^φ(base) Π_i (x^(-n_i c_i) + ... + x^(n_i c_i)), c_i = φ(d_i)."""
    poly = {sum(a * b for a, b in zip(phi, gap["base"])): 1}
    for v, n in zip(gap["diffs"], gap["halfsides"]):
        c = sum(a * b for a, b in zip(phi, v))
        nxt: dict[int, int] = {}
        for e, k in poly.items():
            for m in range(-n, n + 1):
                nxt[e + m * c] = nxt.get(e + m * c, 0) + k
        poly = nxt
    return poly


def covering_bound(d: int) -> int:
    return max(d, 1) ** (3 * max(d, 1))


# ---------------------------------------------------------------- report entries


def check_cover_entry(entry: dict, c_points: list[Point], phi=None) -> list[str]:
    """A cover-mode batch entry: C, P ⊇ C, #P, the ratio and, with φ, the
    projection counts."""
    problems = []
    cov, ver, gap = entry["cover"], entry["verify"], entry["gap"]
    n_c = len(c_points)
    d = len(gap["base"])
    for name, rep in (("cover", cov), ("verify", ver)):
        if rep["cardinality_C"] != n_c:
            problems.append(f"{name}.cardinality_C {rep['cardinality_C']} != {n_c}")
        if rep["contained"] is not True or rep["witness"] is not None:
            problems.append(f"{name} does not claim containment")
    if not independent(gap):
        return problems + ["covering progression has dependent differences"]
    n_p = math.prod(2 * n + 1 for n in gap["halfsides"])
    for name, rep in (("cover", cov), ("verify", ver)):
        if rep["cardinality_P"] != n_p:
            problems.append(f"{name}.cardinality_P {rep['cardinality_P']} != {n_p}")
    outside = [p for p, ok in zip(c_points, gap_members(gap, c_points)) if not ok]
    if outside:
        problems.append(f"P misses lattice point {outside[0]}")
    ratio = Fraction(n_p, n_c)
    if rat(cov["ratio"]) != ratio or rat(ver["ratio"]) != ratio:
        problems.append(f"ratio {cov['ratio']} != {ratio}")
    if ratio > covering_bound(d):
        problems.append(f"ratio {ratio} above d^(3d)")
    if entry.get("contained") is not True:
        problems.append("entry not marked contained")
    if phi is not None:
        problems += check_projection(entry.get("projection"), gap, c_points, phi)
    return problems


def check_projection(rep: dict | None, gap: dict, c_points, phi) -> list[str]:
    if rep is None:
        return ["projection report missing"]
    fib_c: dict[int, int] = {}
    for p in c_points:
        v = sum(a * b for a, b in zip(phi, p))
        fib_c[v] = fib_c.get(v, 0) + 1
    fib_p = image_fibres(gap, phi)
    order = len(gap["diffs"])
    n_p = math.prod(2 * n + 1 for n in gap["halfsides"])
    n_pp = math.prod(4 * n + 1 for n in gap["halfsides"])
    img_c, max_c = len(fib_c), max(fib_c.values())
    img_p, max_p = len(fib_p), max(fib_p.values())
    expected = {
        "functional": list(phi),
        "image_count_C": img_c,
        "max_fiber_C": max_c,
        "image_count_P": img_p,
        "max_fiber_P": max_p,
        "cardinality_P": n_p,
        "sumset_cardinality": n_pp,
        "degraded": False,
        "doubling_ok": n_pp <= 2**order * n_p,
        "fiber_monotone": max_p >= max_c,
        "chain_ok": img_p * max_p <= n_pp and n_pp * max_c <= 2**order * n_p * max_p,
        "corollary_ok": img_p <= covering_bound(len(phi)) * img_c,
    }
    problems = [f"projection.{k} {rep.get(k)!r} != {v!r}" for k, v in expected.items() if rep.get(k) != v]
    if not (expected["chain_ok"] and expected["corollary_ok"] and expected["fiber_monotone"]):
        problems.append("independent projection counts break the chain")
    return problems


def check_claim_entry(entry: dict, c_points: list[Point], expect: dict) -> list[str]:
    """A verify-mode entry against the verdict and witness known by
    construction."""
    problems = []
    rep = entry["verify"]
    gap = entry["instance"]["gap"]
    if rep["cardinality_C"] != len(c_points):
        problems.append(f"cardinality_C {rep['cardinality_C']} != {len(c_points)}")
    if rep["contained"] is not expect["contained"] or entry.get("contained") is not expect["contained"]:
        problems.append(f"verdict {rep['contained']} != {expect['contained']}")
    witness = None if rep["witness"] is None else tuple(rep["witness"])
    if witness != expect["witness"]:
        problems.append(f"witness {witness} != {expect['witness']}")
    if independent(gap):
        n_p = math.prod(2 * n + 1 for n in gap["halfsides"])
        if rep["cardinality_P"] != n_p:
            problems.append(f"cardinality_P {rep['cardinality_P']} != {n_p}")
        if rat(rep["ratio"]) != Fraction(n_p, len(c_points)):
            problems.append(f"ratio {rep['ratio']} != {n_p}/{len(c_points)}")
    return problems
