"""Exact lattice-point enumeration and counting.

Ground truth for every cardinality claim in the pipeline: scan a bounding box
and test exact membership.  Scan order is lexicographic, so outputs and
failure witnesses are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, DimensionError
from .exactalg import Mat, rank
from .geomcore import DEFAULT_BUDGET, ConvexBody, hull_line_extent

IntPoint = tuple[int, ...]


class PointSet:
    """Deduplicated, lexicographically sorted set of integer points.

    Coordinates are normalized to Python ``int`` (numpy listings included),
    which the JSON reports rely on."""

    __slots__ = ("dim", "points", "_index")

    def __init__(self, dim: int, points: Iterable[Sequence[int]]):
        pts = sorted({tuple(map(int, p)) for p in points})
        for p in pts:
            if len(p) != dim:
                raise DimensionError(f"point {p} does not have dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "_index", frozenset(pts))

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(map(int, p)) in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points

    def __repr__(self):
        return f"PointSet(dim={self.dim}, n={len(self.points)})"


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
        return rank(Mat(active)) == len(active)

    def doubled(self) -> "Gap":
        """The sumset self + self: same differences, doubled base and ranges."""
        return Gap(
            self.dim,
            tuple(2 * c for c in self.base),
            self.diffs,
            tuple(2 * n for n in self.halfsides),
        )


def enum_gap(gap: Gap, cap: int = DEFAULT_BUDGET) -> PointSet:
    """All listed points of the progression, deduplicated.

    The progression is proper iff len(result) == gap.listed_cardinality().
    """
    card = gap.listed_cardinality()
    if card > cap:
        raise BudgetError(f"progression lists {card} points, budget {cap}")
    pts = []
    ranges = [range(-n, n + 1) for n in gap.halfsides]
    for coeffs in itertools.product(*ranges):
        p = list(gap.base)
        for m, v in zip(coeffs, gap.diffs):
            if m:
                for j in range(gap.dim):
                    p[j] += m * v[j]
        pts.append(tuple(p))
    return PointSet(gap.dim, pts)


def _box_scan_count(bounds: Sequence[int]) -> int:
    total = 1
    for b in bounds:
        total *= 2 * b + 1
    return total


def enum_body(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> PointSet:
    """Exactly the integer points of the body.

    Scans the integer bounding box; membership is exact per representation.
    Vertex bodies use a line sweep instead: their integer facets are computed
    once (within the same budget) and each scan line's exact extent is read
    off them.
    """
    bounds = body.int_box_bounds()
    total = _box_scan_count(bounds)
    if total > cap:
        raise BudgetError(f"bounding box holds {total} integer points, budget {cap}")

    if body.kind == "vertices":
        body.hull_facets(cap)
        return _enum_vertices_sweep(body, bounds)
    if body.kind == "box":
        # bounds are floors of the halfwidths, so the whole grid is inside
        return PointSet(body.dim, itertools.product(*(range(-b, b + 1) for b in bounds)))
    fast = _enum_ellipsoid_vectorized(body, bounds, total)
    if fast is not None:
        return fast
    pts = []
    for p in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if body.contains_int_point(p):
            pts.append(p)
    return PointSet(body.dim, pts)


def _enum_ellipsoid_vectorized(body: ConvexBody, bounds: Sequence[int], total: int):
    """int64 bulk evaluation of the integerized quadratic form; exact because
    a worst-case magnitude precheck rules out overflow.  Returns None when
    the precheck fails (caller falls back to big-int scanning)."""
    import numpy as np

    n_rows, den = body._ellipsoid_int_test()
    d = body.dim
    worst = sum(
        abs(n_rows[i][j]) * bounds[i] * bounds[j] for i in range(d) for j in range(d)
    )
    if worst >= 2**62 or den >= 2**62 or total < 256:
        return None
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T
    form = np.array(n_rows, dtype=np.int64)
    keep = []
    chunk = 1 << 20
    for start in range(0, grid.shape[0], chunk):
        block = grid[start : start + chunk]
        vals = np.einsum("pi,ij,pj->p", block, form, block)
        keep.append(block[vals <= den])
    pts = np.concatenate(keep)
    return PointSet(d, pts.tolist())


def _enum_vertices_sweep(body: ConvexBody, bounds: Sequence[int]) -> PointSet:
    d = body.dim
    pts: list[IntPoint] = []
    # any hull point satisfies ||x||_1 <= max_i ||v_i||_1, so lines whose
    # prefix already exceeds that bound are empty
    l1_cap = max(sum(abs(c) for c in v) for v in body.points)
    prefix_ranges = [range(-b, b + 1) for b in bounds[:-1]]
    for prefix in itertools.product(*prefix_ranges):
        # central symmetry: sweep half the prefixes and mirror the rest
        mirror = tuple(-c for c in prefix)
        if mirror < prefix:
            continue
        if sum(abs(c) for c in prefix) > l1_cap:
            continue
        extent = hull_line_extent(body, prefix)
        if extent is None:
            continue
        lo, hi = extent
        for t in range(math.ceil(lo), math.floor(hi) + 1):
            pts.append(prefix + (t,))
            pts.append(mirror + (-t,))
    return PointSet(d, pts)


def subset_check(
    points: Iterable[IntPoint], member: Callable[[IntPoint], bool]
) -> tuple[bool, IntPoint | None]:
    """True iff every point satisfies the membership predicate; on failure
    also returns the first failing point in iteration order."""
    for p in points:
        if not member(p):
            return False, p
    return True, None


def project_count(s: PointSet, phi: Sequence[int]) -> tuple[int, int]:
    """Exact (#phi(s), max fiber size) for an integer linear functional."""
    coeffs = tuple(int(c) for c in phi)
    if len(coeffs) != s.dim:
        raise DimensionError(f"functional has {len(coeffs)} coefficients, points {s.dim}")
    fibers: dict[int, int] = {}
    for p in s:
        val = sum(c * x for c, x in zip(coeffs, p))
        fibers[val] = fibers.get(val, 0) + 1
    if not fibers:
        return 0, 0
    return len(fibers), max(fibers.values())
