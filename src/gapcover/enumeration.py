"""Exact lattice-point enumeration and counting.

Ground truth for every cardinality claim in the pipeline: one exact line
sweep finds a body's integer points, visiting only the lines that meet it,
and keeps them as runs, the points on one line of the last coordinate.
They are listed, in lexicographic order, only where a caller asks for the
points; outputs and failure witnesses are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, DimensionError
from .exactalg import Frozen, _pivot_rows
from .geomcore import DEFAULT_BUDGET, ConvexBody, hull_line_extent

IntPoint = tuple[int, ...]
Run = tuple[IntPoint, int, int]  # (prefix, lo, hi): the points prefix + (t,), lo <= t <= hi


class PointSet(Frozen):
    """The integer points of a centrally symmetric convex body, as the
    ``runs`` of its line sweep (enum_body): one run per last-coordinate line
    of the lexicographically nonnegative half, in sweep order.  The origin
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
        return len(_pivot_rows(active, self.dim)) == len(active)

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
    only lines that meet the body are visited.  By central symmetry, only
    t >= 0 is swept while the prefix is all zero.  On the last coordinate
    that interval, when not empty, is a run.  The bounding box is checked
    against the budget before any work, and a vertex body's facet search
    before any line.
    """
    total = box_point_count(body)
    if total > cap:
        raise BudgetError(f"bounding box holds {total} integer points, budget {cap}")
    if body.kind == "vertices":
        body.hull_facets(cap)
    extent = _LINE_EXTENTS[body.kind](body)
    last = body.dim - 1
    runs: list[Run] = []

    def sweep(prefix: IntPoint, zero: bool) -> None:
        span = extent(prefix)
        if span is None:
            return
        lo, hi = span
        if zero:
            lo = max(lo, 0)
        if len(prefix) < last:
            for t in range(lo, hi + 1):
                sweep(prefix + (t,), zero and t == 0)
        elif lo <= hi:
            runs.append((prefix, lo, hi))

    sweep((), True)
    return PointSet(body.dim, runs)


def _ellipsoid_extent(body: ConvexBody):
    """Line extents of x^T N x <= den, the ellipsoid's form cleared to
    integers.  Its schur_chain eliminates the last coordinates first: after
    j steps the leading block over the last pivot q is the Schur complement,
    the form of the projection onto the first d - j coordinates, so that
    projection is y^T M y <= den * q.  On a line the form reads
    a t^2 + 2 b t + c <= 0, which holds for an integer t iff
    |a t + b| <= isqrt(b^2 - a c)."""
    den, chain = body.ellipsoid_rep.schur
    forms = [(rows, den * q) for rows, q in chain]  # forms[m]: onto m + 1 coordinates

    def extent(prefix: IntPoint) -> tuple[int, int] | None:
        rows, bound = forms[len(prefix)]
        a = rows[-1][-1]
        b = sum(map(operator.mul, rows[-1], prefix))
        c = sum(x * sum(map(operator.mul, row, prefix)) for x, row in zip(prefix, rows)) - bound
        disc = b * b - a * c
        if disc < 0:
            return None
        s = math.isqrt(disc)
        return -((s + b) // a), (s - b) // a

    return extent


def _vertex_extent(body: ConvexBody):
    """Line extents of a vertex body: the box bounds, narrowed below the
    last coordinate by ||x||_1 <= max_i ||v_i||_1, which every hull point
    satisfies; the last coordinate's extent is read off the facets."""
    bounds = body.int_box_bounds()
    l1_cap = math.floor(max(sum(abs(c) for c in v) for v in body.points))
    last = body.dim - 1

    def extent(prefix: IntPoint) -> tuple[int, int] | None:
        if len(prefix) < last:
            r = min(bounds[len(prefix)], l1_cap - sum(map(abs, prefix)))
            return -r, r
        span = hull_line_extent(body, prefix)
        if span is None:
            return None
        return math.ceil(span[0]), math.floor(span[1])

    return extent


def _box_extent(body: ConvexBody):
    """Line extents of a box: its integer bounds, whatever the prefix."""
    bounds = body.int_box_bounds()
    return lambda prefix: (-bounds[len(prefix)], bounds[len(prefix)])


_LINE_EXTENTS = {"ellipsoid": _ellipsoid_extent, "vertices": _vertex_extent, "box": _box_extent}


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
