"""Centrally symmetric convex bodies, enclosing ellipsoids, enclosing parallelotopes.

No floating point is used here.  Every claim consumed downstream is
established in exact integer arithmetic: point membership and the floor of a
body's support function at an integer vector (``ConvexBody.int_support``).
A vertex body's enclosing ellipsoid is a moment form within a factor k of
the body (``mvee``), from one integer inverse of the moment matrix M, or a
few more when its points crowd into few directions; the form keeps its own
inverse, a multiple of M.  An ellipsoid's form is factored exactly once,
when it is built; the line extents and the parallelotope's volume are read
off that factorization, and the parallelotope is handed on as the
ellipsoid's dual form A^-1 = R / p in integers, which the reduction reads,
with its exact squared volume.  A vertex body is described exactly by
integer rows |N.x| <= D (its facets, and with D = 0 the equalities of its
span), computed once per body.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BudgetError,
    DimensionError,
    RankError,
    SingularMatrixError,
)
from .exactalg import (
    Frozen,
    Mat,
    Vector,
    _gauss_jordan,
    _independent_rows,
    _int_inverse,
    _inverse_pair,
    _with_identity,
    as_vector,
    det,  # not called here; perfbench/tracing.py wraps geomcore.det
    int_matmul,
    integer_kernel,
    inverse,  # not called here; perfbench/tracing.py wraps geomcore.inverse
    schur_chain,
    vec_dot,
)

DEFAULT_BUDGET = 10**7  # lattice points, or facet candidates, one call may visit


class Ellipsoid(Frozen):
    """Origin-centred ellipsoid {x : x^T A x <= 1} with A rational and
    positive definite.

    ``schur`` is (den, chain): A = n / den as the form holds it, and
    chain = schur_chain(n) is its exact factorization, computed once here,
    where it also proves A positive definite."""

    __slots__ = ("form", "schur")

    def __init__(self, form: Mat):
        if not form.is_square():
            raise DimensionError("ellipsoid form must be square")
        if form.num != tuple(zip(*form.num)):
            raise DimensionError("ellipsoid form must be symmetric")
        chain = schur_chain(form.num)
        if chain is None:
            raise RankError("ellipsoid form is not positive definite")
        self._set(form=form, schur=(form.den, chain))

    @property
    def dim(self) -> int:
        return self.form.rows

    def quad(self, x: Sequence) -> Fraction:
        v = as_vector(x)
        return vec_dot(v, [vec_dot(row, v) for row in self.form.num]) / self.form.den

    def contains(self, x: Sequence) -> bool:
        return self.quad(x) <= 1


class ConvexBody(Frozen):
    """Symmetric convex body: vertex hull, ellipsoid, or axis-aligned box.

    A vertex body is conv(points ∪ -points); listing one of each antipodal
    pair is enough.  Its points are cleared once, to the integer rows over
    one denominator of ``point_mat``, which the facets, the bounds and the
    sweep read; ``points`` is their Fraction view.
    """

    __slots__ = ("kind", "dim", "point_mat", "ellipsoid_rep", "halfwidths", "_facets")

    KINDS = ("vertices", "ellipsoid", "box")

    def __init__(self, kind, dim, point_mat=None, ellipsoid_rep=None, halfwidths=None):
        if kind not in self.KINDS:
            raise DimensionError(f"unknown body kind {kind!r}")
        if dim < 1:
            raise DimensionError("body dimension must be >= 1")
        self._set(kind=kind, dim=dim, point_mat=point_mat, ellipsoid_rep=ellipsoid_rep)
        self._set(halfwidths=halfwidths, _facets=None)

    @classmethod
    def vertices(cls, points: Iterable[Iterable]) -> "ConvexBody":
        m = Mat(points)  # DimensionError without points, or for points of unequal dimension
        return cls("vertices", m.cols, point_mat=m)

    @property
    def points(self) -> tuple[Vector, ...] | None:
        """A vertex body's listed points as Fractions; None for other kinds."""
        return None if self.point_mat is None else self.point_mat.entries

    @classmethod
    def from_ellipsoid(cls, e: Ellipsoid) -> "ConvexBody":
        return cls("ellipsoid", e.dim, ellipsoid_rep=e)

    @classmethod
    def box(cls, halfwidths: Iterable) -> "ConvexBody":
        hw = as_vector(halfwidths)
        if not hw:
            raise DimensionError("box needs at least one axis")
        if any(h < 0 for h in hw):
            raise DimensionError("box halfwidths must be nonnegative")
        return cls("box", len(hw), halfwidths=hw)

    def spanning_points(self) -> Mat:
        """Finite symmetric point set whose hull is the body, as the rows of
        a Mat (vertex and box kinds only); used to seed enclosing-ellipsoid
        computations."""
        if self.kind == "vertices":
            return self.point_mat
        if self.kind == "box":
            signs = itertools.product((1, -1), repeat=self.dim)
            return Mat([s * h for s, h in zip(sign, self.halfwidths)] for sign in signs)
        raise DimensionError("ellipsoid bodies have no vertex description")

    def int_support(self, t: Sequence[int]) -> int:
        """floor(h(t)), h(t) = max{t . x : x in body} the support function at
        an integer vector t, exactly: for an ellipsoid isqrt(t R t^T // p)
        with A^-1 = R / p, as (t . x)^2 <= (t A^-1 t^T)(x^T A x) with equality
        on the boundary; for a vertex body max |t . w| // den over its points
        w / den; for a box floor(sum |t_i| h_i)."""
        if self.kind == "ellipsoid":
            r, p = _inverse_pair(self.ellipsoid_rep.form)  # t R t^T over t's nonzero entries
            return math.isqrt(sum(a * b * r[i][k] for i, a in enumerate(t) if a for k, b in enumerate(t) if b) // p)
        if self.kind == "vertices":
            return max(abs(sum(map(operator.mul, w, t))) for w in self.point_mat.num) // self.point_mat.den
        return math.floor(sum(abs(a) * h for a, h in zip(t, self.halfwidths) if a))

    def int_box_bounds(self) -> tuple[int, ...]:
        """Integer per-axis bounds of the body, int_support on each unit
        vector: the floors of the exact extents.  An ellipsoid reads them off
        the diagonal of its kept dual form, isqrt(R_jj // p); a vertex body
        off one pass over its integer rows, max_i |w_ij| // den per column
        j."""
        if self.kind == "ellipsoid":
            r, p = _inverse_pair(self.ellipsoid_rep.form)
            return tuple(math.isqrt(row[j] // p) for j, row in enumerate(r))
        if self.kind == "vertices":
            den = self.point_mat.den
            return tuple(max(map(abs, col)) // den for col in zip(*self.point_mat.num))
        d = self.dim
        return tuple(self.int_support((0,) * j + (1,) + (0,) * (d - 1 - j)) for j in range(d))

    def hull_facets(self, cap: int = DEFAULT_BUDGET) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Exact H-representation of a vertex body, computed on first use:
        integer rows (N, D) with x inside iff |N.x| <= D for every row; the
        rows with D = 0 are the equalities of the body's span.  The first
        call raises BudgetError, before any work, when the facet search has
        more than cap candidates; later calls return the stored rows."""
        if self.kind != "vertices":
            raise DimensionError("only vertex bodies have a facet description")
        if self._facets is None:
            self._set(_facets=_hull_facets(self.point_mat, cap))
        return self._facets

    def contains(self, x: Sequence) -> bool:
        """Exact membership; boundary points count as inside."""
        v = as_vector(x)
        if len(v) != self.dim:
            raise DimensionError(f"point has dimension {len(v)}, body {self.dim}")
        if self.kind == "box":
            return all(abs(a) <= h for a, h in zip(v, self.halfwidths))
        if self.kind == "ellipsoid":
            return self.ellipsoid_rep.contains(v)
        return all(abs(vec_dot(normal, v)) <= bound for normal, bound in self.hull_facets())


def _hull_facets(points: Mat, cap: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Exact H-representation of conv(±rows of points) in integers.

    With W = den * points the integer rows, let r be the rank of W and J its
    r pivot columns (_gauss_jordan), on which W has rank r.  Every facet of
    conv(±W) within span(W) contains r independent points of ±W, so its
    normal (supported on J) solves s_i w_i[J] . a = D for an r-subset S of W
    and signs s.  By Cramer's rule that is a = R s and D = |D0| with one
    Gauss-Jordan pass over [S | I] per subset, which leaves [D0 I | R],
    D0 = +-det S and R = D0 S^-1: a solves S a = D0 s, and the sign of D0
    only flips a, which the rows' sign convention drops.  Taking s_1 = +1
    keeps one of each ±a pair: C(n, r) * 2^(r-1) candidates, each kept when
    |a . w| <= D for every w.  An integer basis e of the kernel of W comes
    first, as rows |e . x| <= 0.
    """
    w, den = points.num, points.den
    n, d = len(w), len(w[0])
    cols = [c for _, c in _gauss_jordan(w, d)[1]]
    r = len(cols)
    candidates = math.comb(n, r) << (r - 1) if r else 0
    if candidates > cap:
        raise BudgetError(
            f"facet stage: {candidates} candidate hyperplanes "
            f"(C({n}, {r}) * 2^{r - 1}), budget {cap}"
        )
    rows: dict[tuple, None] = {e + (0,): None for e in integer_kernel(w, d)}
    proj = [tuple(p[c] for c in cols) for p in w]
    for subset in itertools.combinations(proj, r) if r else ():
        a, pivots, d0 = _gauss_jordan(_with_identity(subset), r)
        if len(pivots) < r:
            continue
        adj, bound = [row[r:] for row in a], abs(d0)
        for tail in itertools.product((1, -1), repeat=r - 1):
            s = (1,) + tail
            a = [sum(map(operator.mul, row, s)) for row in adj]
            if any(abs(sum(map(operator.mul, a, p))) > bound for p in proj):
                continue
            # |a . (den x)| <= D on the coordinates J
            normal = [0] * d
            for j, c in zip(cols, a):
                normal[j] = den * c
            g = math.gcd(*normal, bound)
            row = tuple(c // g for c in normal + [bound])
            if next(c for c in row if c) < 0:
                row = tuple(-c for c in row[:-1]) + row[-1:]
            rows[row] = None
    return tuple((row[:-1], row[-1]) for row in rows)


def hull_line_extent(body: ConvexBody, sums: Sequence) -> tuple[tuple, tuple] | None:
    """Exact extent {t : (p, t) in body} of a vertex body on the line
    through a prefix p of the first d - 1 coordinates, as its two ends
    (numerator, positive denominator); None when the line misses it.
    ``sums`` holds N.(p, 0) for each row |N.x| <= D of hull_facets, in
    order, so the line reads |s + N[-1] t| <= D on each row: an interval,
    compared exactly as integer fractions.  This is the one-line reference
    that the tests hold the sweep's facet test against; the sweep
    (enumeration._sweep_kernel) does not call it, but reads the integer
    ends of each line in its generated last level."""
    facets = body.hull_facets()
    if len(sums) != len(facets):
        raise DimensionError(f"{len(sums)} facet sums for {len(facets)} facet rows")
    lo = hi = None  # (numerator, positive denominator)
    for (normal, bound), s in zip(facets, sums):
        c = normal[-1]
        if c == 0:
            if abs(s) > bound:
                return None
            continue
        if c < 0:
            s, c = -s, -c
        if lo is None or (-bound - s) * lo[1] > lo[0] * c:
            lo = (-bound - s, c)
        if hi is None or (bound - s) * hi[1] < hi[0] * c:
            hi = (bound - s, c)
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


def mvee(points: Mat | Iterable[Iterable]) -> Ellipsoid:
    """Enclosing ellipsoid of points ∪ -points, within a factor k of their
    hull K, from a moment form in integers; the points are given as they
    come or as the rows of a Mat.

    This is a moment ellipsoid, not the minimum-volume one.  With w the
    integer rows of the points' Mat over den, S some of them, M = sum w w^T
    over S, M^-1 = R / q from one fraction-free inverse with the sign moved
    into R, and g = max w^T R w over every w, the ellipsoid
    {x : x^T (den^2 R / g) x <= 1} holds every ±point exactly, one on the
    boundary.  K holds it shrunk by rho = sqrt(g |S| / q): K's support at u
    is at least the root mean square of u . x over S.  S is every point
    when that gives rho <= k; otherwise, when many points lie in few
    directions, S is a basis in which every point has coordinates in
    [-1, 1] (_spread_basis), so that g / q <= k and rho <= k.  For k = 1
    every S gives the hull itself.  With rho <= k and vol(K) <= 2^k #C (van
    der Corput), cover's parallelotope stage |Q| <= (4k)^k #C holds for
    k <= 12, where the unit ball's volume is at least 1.  No float or cap is
    involved.  RankError when the points do not span, that is when M is
    singular.
    """
    if not isinstance(points, Mat):
        pts = tuple(points)
        if not pts:
            raise RankError("empty point set")
        points = Mat(pts)  # DimensionError unless the points share one dimension d >= 1
    w, den = points.num, points.den
    k = len(w[0])
    m, r, q, g = _moment_form(w, w)
    if k > 1 and g * len(w) > k * k * q:
        m, r, q, g = _moment_form(_spread_basis(w, k), w)
    den_sq = den * den
    form = Mat([[den_sq * x for x in row] for row in r], g)
    # A = den^2 R / g and R / q = M^-1 give A^-1 = g M / (q den^2): no pass rebuilds it
    form._set(_inv=(tuple(tuple(g * x for x in row) for row in m), q * den_sq))
    return Ellipsoid(form)


def _moment_form(rows: Sequence[Sequence[int]], w: Sequence[Sequence[int]]) -> tuple[list, list, int, int]:
    """(M, R, q, g): M = sum v v^T over the rows, M^-1 = R / q with q > 0,
    and g = max w^T R w over w."""
    m = int_matmul(list(zip(*rows)), rows)
    try:
        r, q = _int_inverse(m)
    except SingularMatrixError:
        raise RankError("points do not span the space") from None
    if q < 0:
        r, q = [[-x for x in row] for row in r], -q
    return m, r, q, max(sum(a * sum(map(operator.mul, row, p)) for a, row in zip(p, r)) for p in w)


def _spread_basis(w: Sequence[Sequence[int]], k: int) -> list[Sequence[int]]:
    """k of the spanning integer rows w, in which every row has coordinates
    in [-1, 1].  From k independent rows, the row with the largest
    coordinate beyond ±1 replaces that basis row, which multiplies |det| by
    the coordinate, until no row has one: |det| grows with each swap, so no
    basis comes back and the exchange ends."""
    basis = _independent_rows(w, k)
    while True:
        adj, p = _int_inverse(basis)  # a row's coordinates are (v . adj columns) / p
        cols = list(zip(*adj))
        best, swap = abs(p), None
        for v in w:
            for j, col in enumerate(cols):
                c = abs(sum(map(operator.mul, v, col)))
                if c > best:
                    best, swap = c, (j, v)
        if swap is None:
            return basis
        basis[swap[0]] = swap[1]


def circumscribe_parallelotope(e: Ellipsoid) -> tuple[tuple[tuple[int, ...], ...], int, Fraction]:
    """The ellipsoid's dual form and its circumscribed parallelotope's
    squared volume, (R, p, |Q|^2): A^-1 = R / p with p > 0, the Gram matrix
    that lll_reduce reduces, and |Q|^2 = 4^d / det A, both exact.  R / p is
    the pair kept on the form: mvee's, or one inverse of any other form.

    e.schur factors A = U D U^T (see schur_chain), so e lies in
    Q = {x : |w_m . x| <= 1 / sqrt(D_m)}, w_m the columns of U, and
    |Q| = 2^d / sqrt(prod D_m) = 2^d / sqrt(det A), since det U = 1.  With
    A = n / den, the chain's last pivot is det n, so
    |Q|^2 = 4^d den^d / det n.  No square root is taken: the half-sides of
    the progression come from the body's support function
    (ConvexBody.int_support) on the rows of the reduction's T."""
    r, p = _inverse_pair(e.form)
    den, chain = e.schur
    return r, p, Fraction(4**e.dim * den**e.dim, chain[0][0][0][0])
