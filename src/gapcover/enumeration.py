"""Exact lattice-point enumeration and counting.

Ground truth for every cardinality claim in the pipeline: one exact line
sweep finds a body's integer points, visiting only the lines that meet it,
and keeps them as runs, the points on one line of the last coordinate.
Each line hands its children the integer sums their extents need, so no
line re-reads its prefix: an ellipsoid line its Schur-chain polynomial
(Fincke-Pohst partial sums), a vertex line its facet sums N.(prefix, 0)
and l1 norm.  The points are listed, in lexicographic order, only where a
caller asks for them; outputs and failure witnesses are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, DimensionError
from .exactalg import Frozen, _gauss_jordan
from .geomcore import DEFAULT_BUDGET, ConvexBody, hull_line_extent

IntPoint = tuple[int, ...]
Run = tuple[IntPoint, int, int]  # (prefix, lo, hi): the points prefix + (t,), lo <= t <= hi


class PointSet(Frozen):
    """The integer points of a centrally symmetric convex body, as the
    ``runs`` of its line sweep (enum_body, which finds each run's ends from
    the integer sums its parent line carried): one run per last-coordinate
    line of the lexicographically nonnegative half, in sweep order.  The origin
    opens the first run and is its own mirror; the points are the runs and
    their negatives.  A convex body's points on one line are contiguous, so
    the runs determine the set, and equal runs mean equal sets.

    ``points``, the lexicographic listing, is built on first use and kept.
    Coordinates are Python ``int``s, which the JSON reports rely on."""

    __slots__ = ("dim", "runs", "_points")

    def __init__(self, dim: int, runs: Sequence[Run]):
        self._set(dim=dim, runs=tuple(runs), _points=None)

    @property
    def points(self) -> tuple[IntPoint, ...]:
        """The points in lexicographic order: the negatives of the swept
        points, last first, up to the origin, then the swept points."""
        if self._points is None:
            mirrors = [
                tuple(-c for c in prefix) + (-t,)
                for prefix, lo, hi in reversed(self.runs)
                for t in range(hi, lo - 1, -1)
            ]
            mirrors.pop()  # the origin, swept first
            mirrors += [prefix + (t,) for prefix, lo, hi in self.runs for t in range(lo, hi + 1)]
            self._set(_points=tuple(mirrors))
        return self._points

    def __len__(self) -> int:
        return 2 * sum(hi - lo + 1 for _, lo, hi in self.runs) - 1

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.dim == other.dim and self.runs == other.runs


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression {base + sum m_i diffs_i : |m_i| <= halfsides_i}.

    ``diffs`` may hold fewer than ``dim`` vectors (a lower-order progression
    embedded in Z^dim); the listed cardinality is prod(2 n_i + 1).
    """

    dim: int
    base: IntPoint
    diffs: tuple[IntPoint, ...]
    halfsides: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(int(c) for c in self.base))
        object.__setattr__(self, "diffs", tuple(tuple(int(c) for c in v) for v in self.diffs))
        object.__setattr__(self, "halfsides", tuple(int(n) for n in self.halfsides))
        if len(self.base) != self.dim:
            raise DimensionError("base point has wrong dimension")
        if any(len(v) != self.dim for v in self.diffs):
            raise DimensionError("difference vector has wrong dimension")
        if len(self.halfsides) != len(self.diffs):
            raise DimensionError("need one halfside per difference vector")
        if any(n < 0 for n in self.halfsides):
            raise DimensionError("halfsides must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.diffs)

    def listed_cardinality(self) -> int:
        card = 1
        for n in self.halfsides:
            card *= 2 * n + 1
        return card

    def diffs_independent(self) -> bool:
        """Exact independence of the difference vectors with halfside >= 1
        (vectors never used because their range is {0} are ignored)."""
        active = [v for v, n in zip(self.diffs, self.halfsides) if n >= 1]
        if not active:
            return True
        return len(_gauss_jordan(active, self.dim)[1]) == len(active)

    def doubled(self) -> "Gap":
        """The sumset self + self: same differences, doubled base and ranges."""
        return Gap(
            self.dim,
            tuple(2 * c for c in self.base),
            self.diffs,
            tuple(2 * n for n in self.halfsides),
        )


def enum_gap(gap: Gap, cap: int = DEFAULT_BUDGET) -> frozenset[IntPoint]:
    """The set of the progression's listed points.

    The progression is proper iff len(result) == gap.listed_cardinality().
    """
    card = gap.listed_cardinality()
    if card > cap:
        raise BudgetError(f"progression lists {card} points, budget {cap}")
    # base + the sumset of the differences' ranges, deduplicated per step
    pts = {gap.base}
    for v, n in zip(gap.diffs, gap.halfsides):
        steps = [tuple(m * c for c in v) for m in range(-n, n + 1)]
        pts = {tuple(map(operator.add, p, step)) for p in pts for step in steps}
    return frozenset(pts)


def box_point_count(body: ConvexBody) -> int:
    """Number of integer points in the body's integer bounding box."""
    return math.prod(2 * b + 1 for b in body.int_box_bounds())


def enum_body(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> PointSet:
    """Exactly the integer points of the body, as the runs of one line
    sweep (see PointSet).

    Coordinates are fixed one at a time; given those already fixed, the
    next one ranges over the exact integer interval where the line through
    the prefix meets the body's projection onto one more coordinate, so
    only lines that meet the body are visited.  A line's integer state is
    carried to its children, each of which costs O(1) big-int operations
    for an ellipsoid (the Schur recurrence of _ellipsoid_lines) and
    O(#facets) for a vertex body (the facet sums of _vertex_lines), not a
    pass over its prefix.  By central symmetry, only t >= 0 is swept while
    the prefix is all zero.  On the last coordinate that interval, when not
    empty, is a run.  The bounding box is checked against the budget before
    any work, and a vertex body's facet search before any line.
    """
    bounds = body.int_box_bounds()
    total = math.prod(2 * b + 1 for b in bounds)
    if total > cap:
        raise BudgetError(f"bounding box holds {total} integer points, budget {cap}")
    if body.kind == "vertices":
        body.hull_facets(cap)
    root, children = _LINES[body.kind](body, bounds)
    last = body.dim - 1
    runs: list[Run] = []

    def sweep(prefix: IntPoint, state, lo: int, hi: int, zero: bool) -> None:
        # the line through prefix meets the body in [lo, hi]
        if zero:
            lo = max(lo, 0)
        if len(prefix) == last:
            if lo <= hi:
                runs.append((prefix, lo, hi))
            return
        for t, child, c_lo, c_hi in children(prefix, state, lo, hi):
            sweep(prefix + (t,), child, c_lo, c_hi, zero and t == 0)

    if root is not None:
        sweep((), *root, True)
    return PointSet(body.dim, runs)


def _ellipsoid_lines(body: ConvexBody, bounds: Sequence[int]):
    """The lines of x^T N x <= den, the ellipsoid's form cleared to integers.

    Its schur_chain eliminates the last coordinates first: block m, over
    the previous pivot q_m, is the form of the projection onto the first
    m + 1 coordinates, y^T block_m y <= den q_m.  On the line through a
    prefix p of length m that reads Q(t) = a t^2 + 2 b t + c <= 0, with
    a = block_m[m][m], b = block_m[m][:m] . p and c = p^T block_m p - den q_m,
    which holds for an integer t iff |a t + b| <= isqrt(b^2 - a c).  The
    chain's step block_m = (a' block'[:m+1, :m+1] - v v^T) / q', block'
    the next block with last diagonal entry a', last column v and pivot
    q', gives for the child line through (p, t)
    b' = v . (p, t) and c' = (q' Q(t) + b'^2) / a', an exact division,
    so its discriminant b'^2 - a' c' is -q' Q(t), >= 0 on the parent's
    extent: the partial sums of Fincke and Pohst (Math. Comp. 44, 1985) in
    integers.  A line's state is (b, c); v . p is taken once per parent."""
    den, chain = body.ellipsoid_rep.schur
    last = body.dim - 1
    ((a0,),), q0 = chain[0]
    s = math.isqrt(a0 * den * q0)  # b = 0, c = -den q_0
    root = ((0, -den * q0), -(s // a0), s // a0)

    def children(prefix, state, lo, hi):
        m = len(prefix)
        b, c = state
        a = chain[m][0][m][m]
        rows, q = chain[m + 1]
        v = rows[m + 1]
        a1, v_t = v[m + 1], v[m]
        base = sum(map(operator.mul, v, prefix))
        inner = m + 1 < last
        for t in range(lo, hi + 1):
            qt = (a * t + 2 * b) * t + c
            b1 = base + v_t * t
            s = math.isqrt(-q * qt)
            c1 = (q * qt + b1 * b1) // a1 if inner else None
            yield t, (b1, c1), -((s + b1) // a1), (s - b1) // a1

    return root, children


def _vertex_lines(body: ConvexBody, bounds: Sequence[int]):
    """The lines of a vertex body: the box bounds, narrowed below the last
    coordinate by ||x||_1 <= max_i ||v_i||_1, which every hull point
    satisfies (floored as max_i ||w_i||_1 // den, w_i = den v_i the integer
    rows of the body's point_mat); the last coordinate's extent is read off
    the facets by hull_line_extent, from the sums N_f . (p, 0) of the facet
    rows.  A line's state is (sums, ||p||_1): each child adds N_f[m] t to
    each sum and |t| to the norm."""
    l1_cap = max(sum(map(abs, p)) for p in body.point_mat.num) // body.point_mat.den
    last = body.dim - 1
    facets = body.hull_facets()
    columns = list(zip(*(normal for normal, _ in facets)))

    def last_extent(sums):
        span = hull_line_extent(body, sums)
        if span is None:
            return None
        (lo, lo_den), (hi, hi_den) = span
        return -(-lo // lo_den), hi // hi_den

    zeros = [0] * len(facets)
    if last:
        r = min(bounds[0], l1_cap)
        root = ((zeros, 0), -r, r)
    else:
        span = last_extent(zeros)
        root = None if span is None else (None, *span)

    def children(prefix, state, lo, hi):
        m = len(prefix)
        sums, l1 = state
        column = columns[m]
        for t in range(lo, hi + 1):
            child = [s + n * t for s, n in zip(sums, column)]
            if m + 1 == last:
                span = last_extent(child)
                if span is not None:
                    yield t, None, *span
            else:
                norm = l1 + abs(t)
                r = min(bounds[m + 1], l1_cap - norm)
                yield t, (child, norm), -r, r

    return root, children


def _box_lines(body: ConvexBody, bounds: Sequence[int]):
    """The lines of a box: its integer bounds, whatever the prefix."""

    def children(prefix, state, lo, hi):
        b = bounds[len(prefix) + 1]
        return ((t, None, -b, b) for t in range(lo, hi + 1))

    return (None, -bounds[0], bounds[0]), children


# kind -> (body, bounds) -> (root, children): root is (state, lo, hi) of the
# line through the empty prefix, or None when it misses the body;
# children(prefix, state, lo, hi) yields (t, child state, lo', hi') for each
# t in [lo, hi] whose line through prefix + (t,) meets the body
_LINES = {"ellipsoid": _ellipsoid_lines, "vertices": _vertex_lines, "box": _box_lines}


def subset_check(
    points: Iterable[IntPoint], member: Callable[[IntPoint], bool]
) -> tuple[bool, IntPoint | None]:
    """True iff every point satisfies the membership predicate; on failure
    also returns the first failing point in iteration order."""
    for p in points:
        if not member(p):
            return False, p
    return True, None


def project_count(points: Iterable[IntPoint], phi: Sequence[int]) -> tuple[int, int]:
    """Exact (#phi(points), max fiber size) for an integer linear functional."""
    coeffs = tuple(int(c) for c in phi)
    fibers: dict[int, int] = {}
    for p in points:
        if len(p) != len(coeffs):
            raise DimensionError(f"functional has {len(coeffs)} coefficients, point {p} {len(p)}")
        val = sum(map(operator.mul, coeffs, p))
        fibers[val] = fibers.get(val, 0) + 1
    if not fibers:
        return 0, 0
    return len(fibers), max(fibers.values())
