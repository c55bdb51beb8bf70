"""Centrally symmetric convex bodies, enclosing ellipsoids, enclosing parallelotopes.

Floating point is allowed in one place, Khachiyan's iteration in ``mvee``,
which runs in CPython floats between an exact set-up (one integer inverse,
rounded once per entry) and an exact finish (the rationalized form rescaled
over the integer points); every claim consumed downstream is established in
exact rational arithmetic: point membership and slab containment.  An
ellipsoid's form is factored exactly once, when it is built; the line
extents and the parallelotope's axes are read off that factorization, and
the parallelotope is handed on as its generator matrix, integer rows over
one denominator, and its exact volume.  A vertex body is described exactly
by integer rows |N.x| <= D (its facets, and with D = 0 the equalities of its
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
    CertificationError,
    ConvergenceError,
    DimensionError,
    RankError,
)
from .exactalg import (
    Frozen,
    Mat,
    Vector,
    _gauss_jordan,
    _int_det,
    _int_inverse,
    _inverse_pair,
    _span_rank,
    as_vector,
    clear_denominators,
    det,  # not called here; perfbench/tracing.py wraps geomcore.det
    int_matmul,
    integer_kernel,
    inverse,  # not called here; perfbench/tracing.py wraps geomcore.inverse
    schur_chain,
    sqrt_upper,
    vec_dot,
)

DEFAULT_BUDGET = 10**7  # lattice points, or facet candidates, one call may visit
MVEE_MAX_ITER = 100_000
MVEE_DEFAULT_EPS = Fraction(1, 100)
_RATIONALIZE_DEN_CAP = 10**9  # largest denominator of an entry of mvee's rationalized form


class Ellipsoid(Frozen):
    """Origin-centred ellipsoid {x : x^T A x <= 1} with A rational and
    positive definite.

    ``schur`` is (den, chain): den clears A to integer rows n = den * A, and
    chain = schur_chain(n) is its exact factorization, computed once here,
    where it also proves A positive definite."""

    __slots__ = ("form", "schur")

    def __init__(self, form: Mat):
        if not form.is_square():
            raise DimensionError("ellipsoid form must be square")
        n = form.rows
        for i in range(n):
            for j in range(i):
                if form.entries[i][j] != form.entries[j][i]:
                    raise DimensionError("ellipsoid form must be symmetric")
        rows, den = clear_denominators(form)
        chain = schur_chain(rows)
        if chain is None:
            raise RankError("ellipsoid form is not positive definite")
        self._set(form=form, schur=(den, chain))

    @property
    def dim(self) -> int:
        return self.form.rows

    def quad(self, x: Sequence) -> Fraction:
        v = as_vector(x)
        return vec_dot(v, self.form.mul_vec(v))

    def contains(self, x: Sequence) -> bool:
        return self.quad(x) <= 1

    def int_box_bounds(self) -> tuple[int, ...]:
        """Per-axis integer bounds: floor of the exact axis extents, the
        square roots of A^-1's diagonal, with A^-1 = R / p in integers."""
        r, p = _inverse_pair(self.form)
        return tuple(math.isqrt(r[j][j] // p) for j in range(self.dim))


class ConvexBody(Frozen):
    """Symmetric convex body: vertex hull, ellipsoid, or axis-aligned box.

    A vertex body is conv(points ∪ -points); listing one of each antipodal
    pair is enough.
    """

    __slots__ = ("kind", "dim", "points", "ellipsoid_rep", "halfwidths", "_facets")

    KINDS = ("vertices", "ellipsoid", "box")

    def __init__(self, kind, dim, points=None, ellipsoid_rep=None, halfwidths=None):
        if kind not in self.KINDS:
            raise DimensionError(f"unknown body kind {kind!r}")
        if dim < 1:
            raise DimensionError("body dimension must be >= 1")
        self._set(kind=kind, dim=dim, points=points, ellipsoid_rep=ellipsoid_rep)
        self._set(halfwidths=halfwidths, _facets=None)

    @classmethod
    def vertices(cls, points: Iterable[Iterable]) -> "ConvexBody":
        pts = tuple(as_vector(p) for p in points)
        if not pts:
            raise DimensionError("vertex body needs at least one point")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise DimensionError("vertex dimensions disagree")
        return cls("vertices", d, points=pts)

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

    def spanning_points(self) -> tuple[Vector, ...]:
        """Finite symmetric point set whose hull is the body (vertex and box
        kinds only); used to seed enclosing-ellipsoid computations."""
        if self.kind == "vertices":
            return self.points
        if self.kind == "box":
            corners = []
            for signs in itertools.product((1, -1), repeat=self.dim):
                corners.append(tuple(s * h for s, h in zip(signs, self.halfwidths)))
            return tuple(corners)
        raise DimensionError("ellipsoid bodies have no vertex description")

    def exact_halfwidths(self) -> tuple[Fraction, ...]:
        """Exact per-axis extents max{|x_j| : x in body} (rational for vertex
        and box kinds; not available for ellipsoids)."""
        if self.kind == "vertices":
            return tuple(
                max(abs(p[j]) for p in self.points) for j in range(self.dim)
            )
        if self.kind == "box":
            return self.halfwidths
        raise DimensionError("use int_box_bounds for ellipsoid bodies")

    def int_box_bounds(self) -> tuple[int, ...]:
        """Integer per-axis bounds of the body: floor of the exact extents,
        for a vertex body max |w_j| // den over its cleared points w."""
        if self.kind == "ellipsoid":
            return self.ellipsoid_rep.int_box_bounds()
        if self.kind == "vertices":
            w, den = clear_points(self.points)
            return tuple(max(map(abs, col)) // den for col in zip(*w))
        return tuple(int(h) for h in self.exact_halfwidths())

    def hull_facets(self, cap: int = DEFAULT_BUDGET) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Exact H-representation of a vertex body, computed on first use:
        integer rows (N, D) with x inside iff |N.x| <= D for every row; the
        rows with D = 0 are the equalities of the body's span.  The first
        call raises BudgetError, before any work, when the facet search has
        more than cap candidates; later calls return the stored rows."""
        if self.kind != "vertices":
            raise DimensionError("only vertex bodies have a facet description")
        if self._facets is None:
            self._set(_facets=_hull_facets(self.points, cap))
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


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*row) or 1
    return tuple(c // g for c in row)


def clear_points(points: Sequence[Vector]) -> tuple[list[tuple[int, ...]], int]:
    """The points as integer rows w = den * p, den > 0 the lcm of their
    denominators."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in points], den


def _hull_facets(points: Sequence[Vector], cap: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Exact H-representation of conv(±points) in integers.

    With den the lcm of the denominators and W = den * points, let r be the
    rank of W and J its r pivot columns (_gauss_jordan), on which W has rank
    r.  Every facet of conv(±W) within span(W) contains r independent points
    of ±W, so its normal (supported on J) solves s_i w_i[J] . a = D for an
    r-subset of W and signs s; Cramer's rule in integers gives a and
    D = |det|.  Taking s_1 = +1 keeps one of each ±a pair: C(n, r) * 2^(r-1)
    candidates, each kept when |a . w| <= D for every w.  An integer basis e
    of the kernel of W comes first, as rows |e . x| <= 0.
    """
    w, den = clear_points(points)
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
        d0 = _int_det(subset)
        if d0 == 0:
            continue
        sgn = 1 if d0 > 0 else -1
        for tail in itertools.product((1, -1), repeat=r - 1):
            s = (1,) + tail
            a = [
                sgn * _int_det([row[:j] + (si,) + row[j + 1 :] for row, si in zip(subset, s)])
                for j in range(r)
            ]
            if any(abs(sum(x * y for x, y in zip(a, p))) > abs(d0) for p in proj):
                continue
            # |a . (den x)| <= |d0| on the coordinates J
            normal = [0] * d
            for j, c in zip(cols, a):
                normal[j] = den * c
            row = _primitive(normal + [abs(d0)])
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
    compared exactly as integer fractions.  The sweep carries the sums
    down from each line to its children and calls this once per
    last-coordinate line."""
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


def mvee(points: Iterable[Iterable], eps=MVEE_DEFAULT_EPS, max_iter=MVEE_MAX_ITER) -> Ellipsoid:
    """Enclosing ellipsoid of points ∪ -points, near-minimal volume.

    At d = 1 it is the interval itself, A = 1 / max x^2.  Otherwise
    Khachiyan's ascent runs in CPython floats until max_j x_j^T M^-1 x_j <=
    d (1 + eps), M = sum u_i x_i x_i^T.  With p = den x the integer points
    and u_i = float(1 / n) = a / b, the first M^-1 is b den^2 R / (a q), R / q
    the integer inverse of sum p p^T, rounded once per entry; Sherman-Morrison
    updates it, and as each step s < 1 / d, u is never needed.  A = M^-1 / d,
    rationalized at denominators <= _RATIONALIZE_DEN_CAP and cleared to
    K / qa, is rescaled to K den^2 / max p^T K p: every point lies in it
    exactly, one on the boundary.  ConvergenceError, naming the entry
    rounded worst, if that form is not positive definite.
    """
    pts = tuple(points)
    if not pts:
        raise RankError("empty point set")
    x_mat = Mat(pts)  # DimensionError unless the points share one dimension d >= 1
    ip, den = clear_denominators(x_mat)
    d = x_mat.cols
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DimensionError("eps must lie in (0, 1)")
    if _span_rank(ip, d) < d:
        raise RankError("points do not span the space")
    if d == 1:
        return Ellipsoid(Mat([[Fraction(den**2, max(p[0] * p[0] for p in ip))]]))

    r, q = _int_inverse(int_matmul(list(zip(*ip)), ip))
    w_num, w_den = (1.0 / len(pts)).as_integer_ratio()
    m_inv = [[w_den * den**2 * x / (w_num * q) for x in row] for row in r]  # int / int rounds correctly
    xs = [tuple(map(float, p)) for p in x_mat.entries]
    target = d * (1.0 + float(eps))
    for _ in range(max_iter):
        gmax = None
        for x in xs:
            y = [sum(map(operator.mul, row, x)) for row in m_inv]
            g = sum(map(operator.mul, x, y))
            if gmax is None or g > gmax:  # the first maximum, as max() keeps it
                gmax, ymax = g, y
        if gmax <= target:
            break
        step = (gmax - d) / (d * (gmax - 1.0))
        # ((1 - s) M + s x x^T)^-1 = (M^-1 - c y y^T / (1 + c g)) / (1 - s),
        # with y = M^-1 x, g = x^T y and c = s / (1 - s)
        c = step / (1.0 - step)
        f = c / (1.0 + c * gmax)
        m_inv = [
            [(a - f * yi * yk) / (1.0 - step) for a, yk in zip(row, ymax)]
            for row, yi in zip(m_inv, ymax)
        ]
    else:
        raise ConvergenceError(f"no convergence within {max_iter} iterations")

    # A ~ M^-1 / d, symmetric since float addition commutes
    upper = {(i, k): (m_inv[i][k] / d + m_inv[k][i] / d) / 2.0 for i in range(d) for k in range(i, d)}
    rat = {ik: Fraction(x).limit_denominator(_RATIONALIZE_DEN_CAP) for ik, x in upper.items()}
    k_rows, qa = clear_denominators(Mat([[rat[min(i, k), max(i, k)] for k in range(d)] for i in range(d)]))
    smax = max(sum(pi * sum(map(operator.mul, row, p)) for pi, row in zip(p, k_rows)) for p in ip)
    try:  # smax <= 0 only if K is not positive definite, and then neither is K den^2
        return Ellipsoid(Mat([[Fraction(x * den**2, max(smax, 1)) for x in row] for row in k_rows]))
    except RankError:
        (i, k), x = max(upper.items(), key=lambda e: abs(float(rat[e[0]]) / e[1] - 1.0) if e[1] else 0.0)
        raise ConvergenceError(
            f"mvee: the form rationalized at denominators <= {_RATIONALIZE_DEN_CAP} is not"
            f" positive definite; its entry ({i}, {k}) = {x!r} became {rat[i, k]}"
        ) from None


def circumscribe_parallelotope(e: Ellipsoid) -> tuple[list[list[int]], int, Fraction]:
    """Parallelotope Q certified (exactly) to contain e, as (rows, den, |Q|):
    its generator matrix G = rows / den, whose columns are the generators,
    in lowest terms (den is the lcm of G's denominators), and the volume.

    e.schur factors A = U D U^T (see schur_chain), so x^T A x =
    sum_m D_m (w_m . x)^2 with w_m the columns of U, and e lies in
    Q = {x : |w_m . x| <= s_m} for s_m = sqrt_upper(1 / D_m): G = U^-T
    diag(s_m), and |Q| = 2^d prod s_m since det U = 1, within 2^-48 relative
    per axis of 2^d / sqrt(det A).  Row m of U^T is r_m / r_m[m], r_m the
    integer row the chain keeps, so with the integer inverse of the rows r_m
    as K / k_den, G = K diag(r_m[m] s_m) / k_den.  The dual normals of Q are
    the rows w_m / s_m of G^-1 = diag(1 / s_m) U^T; the slab certificate
    n A^-1 n^T <= 1 is checked for each, in integers with A^-1 = R / p as
    kept on the form; CertificationError if it fails."""
    d = e.dim
    den, chain = e.schur
    r_inv, p = _inverse_pair(e.form)
    r_rows, scales = [], []
    for m, (rows, q) in enumerate(chain):
        r = rows[m]
        s = sqrt_upper(Fraction(q * den, r[m]))
        # n = r / (r[m] s) with s = a / b: n A^-1 n^T <= 1 iff
        # p b^2 (r R r^T) <= p^2 r[m]^2 a^2
        r_quad = sum(x * sum(map(operator.mul, row, r)) for x, row in zip(r, r_inv))
        if p * s.denominator**2 * r_quad > (p * r[m] * s.numerator) ** 2:
            raise CertificationError("parallelotope slab certificate failed")
        r_rows.append(list(r) + [0] * (d - 1 - m))
        scales.append(s)
    k, k_den = _int_inverse(r_rows)
    # column m of G is r_m[m] a_m / (b_m k_den) times K's, s_m = a_m / b_m, over g_den
    g_den = abs(k_den) * math.lcm(*(s.denominator for s in scales))
    col = [r_rows[m][m] * s.numerator * g_den // (s.denominator * k_den) for m, s in enumerate(scales)]
    g = [[x * c for x, c in zip(row, col)] for row in k]
    content = math.gcd(g_den, *(x for row in g for x in row))
    return [[x // content for x in row] for row in g], g_den // content, 2**d * math.prod(scales)
