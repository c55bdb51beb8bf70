"""Centrally symmetric convex bodies, enclosing ellipsoids, enclosing parallelotopes.

Floating point is allowed in one place, Khachiyan's iteration in ``mvee``,
which runs in floats between an exact set-up (one integer inverse, rounded
once per entry) and an exact finish (the rationalized form rescaled over the
integer points).  The iteration is straight-line code generated per
dimension, with the IEEE operations of the reference loop in
tests/_oracles.py and no float sum(), so its steps, and the reports, do not
depend on the interpreter.  Every claim consumed downstream is established in
exact integer arithmetic: point membership and the floor of a body's support
function at an integer vector (``ConvexBody.int_support``).  An ellipsoid's
form is factored exactly once, when it is built; the line extents and the
parallelotope's volume are read off that factorization, and the parallelotope
is handed on as the ellipsoid's dual form A^-1 = R / p in integers, which
the reduction reads, with its exact squared volume.  A vertex body is
described exactly by integer rows |N.x| <= D (its facets, and with D = 0 the
equalities of its span), computed once per body.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    RankError,
)
from .exactalg import (
    Frozen,
    Mat,
    Vector,
    _gauss_jordan,
    _int_inverse,
    _inverse_pair,
    _span_rank,
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
MVEE_MAX_ITER = 100_000
MVEE_EPS = Fraction(1, 100)  # mvee's tolerance; the bound needs the ellipsoid only up to a constant
_RATIONALIZE_DEN_CAP = 10**9  # largest denominator of an entry of mvee's rationalized form


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
            corners = []
            for signs in itertools.product((1, -1), repeat=self.dim):
                corners.append(tuple(s * h for s, h in zip(signs, self.halfwidths)))
            return Mat(corners)
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
        """Integer per-axis bounds of the body: int_support on each unit
        vector, the floors of the exact extents."""
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


def _float_dot(terms: Iterable[tuple[str, str]]) -> str:
    """Source of sum(a * b for a, b in terms) as sum() adds floats up to
    CPython 3.11: left to right from its int 0, written 0.0, the double that
    int + float converts it to before adding."""
    return " + ".join(f"{a} * {b}" if i else f"(0.0 + {a} * {b})" for i, (a, b) in enumerate(terms))


@functools.cache
def _khachiyan_kernel(d: int):
    """Khachiyan's ascent at dimension d >= 2 as a function compiled once
    per d: kernel(m_inv, xs, target, max_iter) returns M^-1 as a tuple of
    rows, or None when max_iter iterations leave max g above target.

    Only the int d enters the generated source.  It unpacks M^-1 and each
    point into locals, writes y_i = M^-1_i . x and g = x . y out term by
    term (``_float_dot``), keeps the first point of largest g, and sets each
    entry to (M^-1_ik - (f y_i) y_k) / (1 - s), f y_i formed once per row.
    These are the IEEE operations, in their order, of the generic loop
    ``khachiyan_loop`` in tests/_oracles.py, and no float sum() is called,
    whose order CPython 3.12 changed."""
    r = range(d)
    m = [[f"m{i}_{k}" for k in r] for i in r]
    x, y, z = ([f"{c}{i}" for i in r] for c in "xyz")
    matrix = "(" + ", ".join(f"({', '.join(row)})" for row in m) + ")"
    point = ", ".join(x)

    def scan(out: list[str], g: str, indent: str) -> list[str]:
        # out = M^-1 x and g = x . out for the point in x0, x1, ...
        lines = [f"{o} = {_float_dot(zip(row, x))}" for o, row in zip(out, m)]
        return [indent + line for line in lines + [f"{g} = {_float_dot(zip(x, out))}"]]

    source = "\n".join([
        "def kernel(m_inv, xs, target, max_iter):",
        f"    {matrix} = m_inv",
        "    first, rest = xs[0], xs[1:]",
        "    for _ in range(max_iter):",
        f"        {point} = first",
        *scan(z, "gmax", " " * 8),
        f"        for {point} in rest:",
        *scan(y, "g", " " * 12),
        "            if g > gmax:",
        f"                gmax, {', '.join(z)} = g, {', '.join(y)}",
        "        if gmax <= target:",
        f"            return {matrix}",
        # ((1 - s) M + s x x^T)^-1 = (M^-1 - c y y^T / (1 + c g)) / (1 - s),
        # with y = M^-1 x, g = x^T y and c = s / (1 - s)
        f"        step = (gmax - {d}.0) / ({d}.0 * (gmax - 1.0))",
        "        c = step / (1.0 - step)",
        "        f = c / (1.0 + c * gmax)",
        "        shrink = 1.0 - step",
        *(
            f"        fz = f * {z[i]}; "
            + "; ".join(f"{m[i][k]} = ({m[i][k]} - fz * {z[k]}) / shrink" for k in r)
            for i in r
        ),
        "    return None",
    ])
    namespace: dict = {}
    exec(compile(source, f"<khachiyan kernel d={d}>", "exec"), {}, namespace)
    return namespace["kernel"]


def mvee(points: Mat | Iterable[Iterable], max_iter=MVEE_MAX_ITER) -> Ellipsoid:
    """Enclosing ellipsoid of points ∪ -points, near-minimal volume; the
    points are given as they come or as the rows of a Mat.

    At d = 1 it is the interval itself, A = 1 / max x^2.  Otherwise
    Khachiyan's ascent runs in floats until max_j x_j^T M^-1 x_j <=
    d (1 + MVEE_EPS), M = sum u_i x_i x_i^T, as straight-line code generated
    for d (``_khachiyan_kernel``): the IEEE operations of the reference loop in
    tests/_oracles.py, and no float sum(), so its steps are the same on
    every interpreter.  With x = p / den, p the integer rows of the points'
    Mat, and u_i = float(1 / n) = a / b, the first M^-1 is b den^2 R / (a q),
    R / q the integer inverse of sum p p^T, rounded once per entry;
    Sherman-Morrison updates it, and as each step s < 1 / d, u is never
    needed.  A = M^-1 / d, rationalized at denominators <=
    _RATIONALIZE_DEN_CAP and cleared by Mat to K / qa, is rescaled to
    K den^2 / max p^T K p (qa cancels): every point lies in it exactly, one
    on the boundary.  ConvergenceError, naming the entry
    rounded worst, if that form is not positive definite.
    """
    if not isinstance(points, Mat):
        pts = tuple(points)
        if not pts:
            raise RankError("empty point set")
        points = Mat(pts)  # DimensionError unless the points share one dimension d >= 1
    ip, den = points.num, points.den
    d = points.cols
    if _span_rank(ip, d) < d:
        raise RankError("points do not span the space")
    if d == 1:
        return Ellipsoid(Mat([[den**2]], max(p[0] * p[0] for p in ip)))

    r, q = _int_inverse(int_matmul(list(zip(*ip)), ip))
    w_num, w_den = (1.0 / points.rows).as_integer_ratio()
    m_inv = [[w_den * den**2 * x / (w_num * q) for x in row] for row in r]  # int / int rounds correctly
    xs = [tuple(x / den for x in p) for p in ip]
    m_inv = _khachiyan_kernel(d)(m_inv, xs, d * (1.0 + float(MVEE_EPS)), max_iter)
    if m_inv is None:
        raise ConvergenceError(f"no convergence within {max_iter} iterations")

    # A ~ M^-1 / d, symmetric since float addition commutes
    upper = {(i, k): (m_inv[i][k] / d + m_inv[k][i] / d) / 2.0 for i in range(d) for k in range(i, d)}
    rat = {ik: Fraction(x).limit_denominator(_RATIONALIZE_DEN_CAP) for ik, x in upper.items()}
    k_rows = Mat([[rat[min(i, k), max(i, k)] for k in range(d)] for i in range(d)]).num
    smax = max(sum(pi * sum(map(operator.mul, row, p)) for pi, row in zip(p, k_rows)) for p in ip)
    try:  # smax <= 0 only if K is not positive definite, and then neither is K den^2
        return Ellipsoid(Mat([[x * den**2 for x in row] for row in k_rows], max(smax, 1)))
    except RankError:
        (i, k), x = max(upper.items(), key=lambda e: abs(float(rat[e[0]]) / e[1] - 1.0) if e[1] else 0.0)
        raise ConvergenceError(
            f"mvee: the form rationalized at denominators <= {_RATIONALIZE_DEN_CAP} is not"
            f" positive definite; its entry ({i}, {k}) = {x!r} became {rat[i, k]}"
        ) from None


def circumscribe_parallelotope(e: Ellipsoid) -> tuple[tuple[tuple[int, ...], ...], int, Fraction]:
    """The ellipsoid's dual form and its circumscribed parallelotope's
    squared volume, (R, p, |Q|^2): A^-1 = R / p with p > 0, the Gram matrix
    that lll_reduce reduces, and |Q|^2 = 4^d / det A, both exact.

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
