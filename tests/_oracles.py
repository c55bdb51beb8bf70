"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own algorithms: grid searches,
exhaustive enumeration, and hand formulas.  The one exception, ``hnf``, is
the canonical form over the library's ``_hnf_with_transform`` that the
lattice-equality checks compare.
"""

import itertools
import math
import operator
from fractions import Fraction

from gapcover.errors import CertificationError, ConvergenceError, DimensionError, RankError
from gapcover.exactalg import Mat, UnimodularMat, _hnf_with_transform, sqrt_upper


def grid_mvee_volume_2d(points, n_theta=180, n_aspect=160, max_aspect=40.0):
    """Smallest enclosing-ellipse volume over a documented parameter grid.

    Candidates: rotation angle theta in [0, pi) (n_theta steps) and aspect
    ratio rho in [1, max_aspect] (geometric grid).  For each candidate frame
    the scale is fitted so all points are enclosed, which keeps every
    candidate feasible; the least candidate area upper-bounds the optimum.
    """
    pts = [(float(x), float(y)) for x, y in points]
    best = math.inf
    for it in range(n_theta):
        theta = math.pi * it / n_theta
        c, s = math.cos(theta), math.sin(theta)
        rot = [(c * x + s * y, -s * x + c * y) for x, y in pts]
        for ia in range(n_aspect):
            rho = max_aspect ** (ia / (n_aspect - 1))
            # ellipse (u/a)^2 + (v*rho/a)^2 <= 1: fit a to enclose all points
            a_sq = max(u * u + (v * rho) ** 2 for u, v in rot)
            area = math.pi * a_sq / rho
            if area < best:
                best = area
    return best


def grid_mvee_volume_3d(points, n_angle=14, n_aspect=8, max_aspect=12.0):
    """Coarse 3-D analogue of grid_mvee_volume_2d (Euler-angle grid)."""
    pts = [tuple(map(float, p)) for p in points]
    best = math.inf
    angles = [math.pi * i / n_angle for i in range(n_angle)]
    aspects = [max_aspect ** (i / (n_aspect - 1)) for i in range(n_aspect)]
    for alpha, beta, gamma in itertools.product(angles, angles, angles):
        ca, sa = math.cos(alpha), math.sin(alpha)
        cb, sb = math.cos(beta), math.sin(beta)
        cg, sg = math.cos(gamma), math.sin(gamma)
        # z-y-z rotation
        r = (
            (ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb),
            (sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb),
            (-sb * cg, sb * sg, cb),
        )
        rot = [
            (
                r[0][0] * x + r[1][0] * y + r[2][0] * z,
                r[0][1] * x + r[1][1] * y + r[2][1] * z,
                r[0][2] * x + r[1][2] * y + r[2][2] * z,
            )
            for x, y, z in pts
        ]
        for rho2, rho3 in itertools.product(aspects, aspects):
            a_sq = max(u * u + (v * rho2) ** 2 + (w * rho3) ** 2 for u, v, w in rot)
            vol = (4.0 / 3.0) * math.pi * a_sq ** 1.5 / (rho2 * rho3)
            if vol < best:
                best = vol
    return best


def ellipsoid_volume(form_entries, dim):
    """Exact-formula volume of {x : x^T A x <= 1}: omega_d / sqrt(det A)."""
    import numpy as np

    a = [[float(x) for x in row] for row in form_entries]
    det = float(np.linalg.det(np.array(a)))
    unit = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    return unit / math.sqrt(det)


def brute_disk_points(radius_sq, bound):
    """All integer points with |x|^2 <= radius_sq, by direct scan."""
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x * x + y * y <= radius_sq:
                out.append((x, y))
    return sorted(out)


def shortest_basis_2d(rows, coeff_bound=4):
    """Exhaustive search for the two shortest independent lattice vectors."""
    cands = []
    for m1, m2 in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=2):
        if (m1, m2) == (0, 0):
            continue
        v = tuple(m1 * a + m2 * b for a, b in zip(rows[0], rows[1]))
        cands.append((sum(Fraction(c) ** 2 for c in v), v, (m1, m2)))
    cands.sort(key=lambda t: (t[0], t[2]))
    first = cands[0]
    for q, v, m in cands:
        if first[2][0] * m[1] - first[2][1] * m[0] != 0:
            return first[0], q
    raise AssertionError("no independent pair found")


def _unique_solution(cols, rhs):
    """The unique y with sum_j y_j cols[j] == rhs, by exact Gauss-Jordan
    elimination; None when the columns are dependent or rhs is outside
    their span."""
    k, m = len(cols), len(rhs)
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(m)]
    for c in range(k):
        pr = next((i for i in range(c, m) if rows[i][c] != 0), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for i in range(m):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(rows[i][k] != 0 for i in range(k, m)):
        return None
    return [rows[i][k] for i in range(k)]


def in_vertex_hull(vertices, x):
    """x in conv(±vertices), by Carathéodory's theorem: x is a convex
    combination of some affinely independent subset S of ±vertices.  For
    each S the barycentric coordinates (the unique solution of
    sum l_s (s, 1) = (x, 1)) are solved exactly and must be nonnegative."""
    sym = sorted(
        {tuple(Fraction(c) for c in v) for v in vertices}
        | {tuple(-Fraction(c) for c in v) for v in vertices}
    )
    lifted_x = tuple(x) + (1,)
    for size in range(1, len(x) + 2):
        for subset in itertools.combinations(sym, size):
            lam = _unique_solution([s + (1,) for s in subset], lifted_x)
            if lam is not None and all(c >= 0 for c in lam):
                return True
    return False


def vertex_hull_lattice_points(vertices):
    """Sorted integer points of conv(±vertices): the box of the largest
    absolute coordinates, filtered by in_vertex_hull."""
    d = len(vertices[0])
    bounds = [math.floor(max(abs(Fraction(v[j])) for v in vertices)) for j in range(d)]
    box = itertools.product(*(range(-b, b + 1) for b in bounds))
    return [p for p in box if in_vertex_hull(vertices, p)]


def ellipsoid_lattice_points(form):
    """Sorted integer points x with x^T A x <= 1, A = form: the box of the
    exact axis extents sqrt((A^-1)_jj), each point tested in Fractions."""
    inv = fraction_inverse(form)
    diag = [inv[j][j] for j in range(len(form))]
    bounds = [math.isqrt(x.numerator * x.denominator) // x.denominator for x in diag]
    box = itertools.product(*(range(-b, b + 1) for b in bounds))
    return [
        x
        for x in box
        if sum(Fraction(a) * xi * xj for row, xi in zip(form, x) for a, xj in zip(row, x)) <= 1
    ]


def box_lattice_points(halfwidths):
    """Sorted integer points x with |x_j| <= halfwidths[j], each tested in
    Fractions over the box of the ceilings."""
    hw = [Fraction(h) for h in halfwidths]
    box = itertools.product(*(range(-math.ceil(h), math.ceil(h) + 1) for h in hw))
    return [x for x in box if all(abs(c) <= h for c, h in zip(x, hw))]


def sweep_runs(points):
    """The runs (prefix, lo, hi) of a centrally symmetric set of integer
    points: over the points whose first nonzero coordinate is positive, and
    the origin, the least and largest last coordinate on each line of the
    last coordinate, by prefix in lexicographic order.  Each line's points
    must be contiguous."""
    lines = {}
    for p in points:
        if next((c for c in p if c), 0) >= 0:
            lines.setdefault(tuple(p[:-1]), []).append(p[-1])
    runs = []
    for prefix in sorted(lines):
        ts = lines[prefix]
        assert len(ts) == max(ts) - min(ts) + 1, f"line {prefix} is not contiguous"
        runs.append((prefix, min(ts), max(ts)))
    return runs


def gap_points(gap):
    """The progression's points, by summing every coefficient choice."""
    ranges = [range(-n, n + 1) for n in gap.halfsides]
    return {
        tuple(b + sum(m * v[j] for m, v in zip(ms, gap.diffs)) for j, b in enumerate(gap.base))
        for ms in itertools.product(*ranges)
    }


def gap_contains(gap, p):
    """p in the progression, whose active differences (half-side >= 1) must
    be independent: the unique rational solution of
    p - base = sum y_j v_j over them must be integral with |y_j| <= n_j."""
    active = [(v, n) for v, n in zip(gap.diffs, gap.halfsides) if n >= 1]
    rhs = [a - b for a, b in zip(p, gap.base)]
    if not active:
        return not any(rhs)
    y = _unique_solution([v for v, _ in active], rhs)
    return y is not None and all(c.denominator == 1 and abs(c) <= n for c, (_, n) in zip(y, active))


def enumerated_projection(c_points, gap, phi, cap):
    """The fields of a projection report, by listing P and P+P point by
    point and counting the fibres of phi on C and on P with a dict.

    ``c_points`` are the lattice points C of a body in dimension len(phi);
    ``gap`` is read only for its base, differences and half-sides.  When P+P
    lists more than ``cap`` coefficient vectors its count is dropped and the
    chain falls back to #phi(P) * m <= 2^order * #P (``degraded``)."""

    def listed(base, halfsides):
        ranges = [range(-n, n + 1) for n in halfsides]
        return {
            tuple(b + sum(m * v[j] for m, v in zip(ms, gap.diffs)) for j, b in enumerate(base))
            for ms in itertools.product(*ranges)
        }

    def fibres(points):
        counts = {}
        for p in points:
            value = sum(a * x for a, x in zip(phi, p))
            counts[value] = counts.get(value, 0) + 1
        return len(counts), max(counts.values(), default=0)

    img_c, fiber_c = fibres(c_points)
    p_points = listed(gap.base, gap.halfsides)
    img_p, fiber_p = fibres(p_points)
    card_p = len(p_points)
    order = len(gap.diffs)
    sumset_card = None
    if math.prod(4 * n + 1 for n in gap.halfsides) <= cap:
        sumset_card = len(listed([2 * b for b in gap.base], [2 * n for n in gap.halfsides]))
    degraded = sumset_card is None
    if degraded:
        chain_ok = img_p * fiber_c <= 2**order * card_p
    else:
        chain_ok = (
            img_p * fiber_p <= sumset_card
            and sumset_card * fiber_c <= 2**order * card_p * fiber_p
        )
    d = max(len(phi), 1)
    return {
        "functional": tuple(phi),
        "image_count_C": img_c,
        "image_count_P": img_p,
        "max_fiber_C": fiber_c,
        "max_fiber_P": fiber_p,
        "cardinality_P": card_p,
        "sumset_cardinality": sumset_card,
        "doubling_ok": None if degraded else sumset_card <= 2**order * card_p,
        "fiber_monotone": fiber_p >= fiber_c,
        "chain_ok": chain_ok,
        "corollary_ok": img_p <= d ** (3 * d) * max(img_c, 1),
        "degraded": degraded,
    }


def _dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def norm_sq(u):
    return _dot(u, u)


def gram_schmidt(rows):
    """Gram-Schmidt over the rationals: (b*_i, mu) with
    b_i = b*_i + sum_(j<i) mu_ij b*_j."""
    d = len(rows)
    ortho = []
    mu = [[Fraction(0)] * d for _ in range(d)]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = _dot(row, ortho[j]) / _dot(ortho[j], ortho[j])
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
    return ortho, mu


def fraction_det(rows):
    """Determinant by Bareiss elimination carried out in Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    return Fraction(sign) * a[n - 1][n - 1]


def fraction_inverse(rows):
    """Inverse rows by fraction-free forward elimination and exact back
    substitution, in Fractions; ZeroDivisionError when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    prev = Fraction(1)
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise ZeroDivisionError("matrix is singular")
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, 2 * n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = pivot
    for k in range(n - 1, -1, -1):
        pivot = a[k][k]
        for j in range(k + 1, 2 * n):
            a[k][j] /= pivot
        a[k][k] = Fraction(1)
        for i in range(k):
            f = a[i][k]
            if f:
                for j in range(k, 2 * n):
                    a[i][j] -= f * a[k][j]
    return tuple(tuple(row[n:]) for row in a)


def identity(n):
    """The n x n identity Mat."""
    return Mat([[int(i == j) for j in range(n)] for i in range(n)])


def hnf(m):
    """Canonical Hermite normal form (h, u) of a full-row-rank integer Mat,
    u unimodular with u @ m == h, from the library's _hnf_with_transform.

    Convention: row-style, lower triangular, positive pivots, entries below
    each pivot reduced modulo the pivot.  Two integer matrices generate the
    same row lattice iff their forms are equal.
    """
    h, u, rk = _hnf_with_transform(m.int_entries())
    if rk < m.rows:
        raise RankError(f"matrix has row rank {rk} < {m.rows}")
    return Mat(h), UnimodularMat(u)


def fraction_rank(rows):
    """Rank by Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0])):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def fraction_kernel(rows, cols):
    """Basis of the right kernel {x : rows @ x = 0} by Gauss-Jordan
    elimination in Fractions: per non-pivot column f the solution with
    x_f = 1 and 0 at the other non-pivot columns, times the lcm of its
    denominators."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -a[pr][f]
        den = math.lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * den) for x in v))
    return basis


def parallelotope_contains(gens, x):
    """x in {G lam : |lam_i| <= 1}, with lam = G^-1 x by fraction_inverse;
    ``gens`` is the generator matrix G, its columns the generators."""
    g_inv = fraction_inverse(gens)
    return all(abs(_dot(row, x)) <= 1 for row in g_inv)


def circumscribe_reference(e):
    """(G, |Q|) of the circumscribed parallelotope of an ``Ellipsoid``, as
    ``geomcore.circumscribe_parallelotope`` built them as rational matrices:
    the rows w_m = r_m / r_m[m] of U^T from e.schur, padded with zeros,
    G = U^-T diag(s_m) with s_m = sqrt_upper(q den / r_m[m]) from the
    Fraction inverse of U^T, and |Q| = 2^d prod s_m.  Each dual normal
    n = w_m / s_m is checked against the Fraction inverse of the form,
    n A^-1 n^T <= 1, and CertificationError raised if it fails."""
    d = e.dim
    den, chain = e.schur
    a_inv = fraction_inverse(e.form.entries)
    w_rows, scales = [], []
    for m, (rows, q) in enumerate(chain):
        r = rows[m]
        s = sqrt_upper(Fraction(q * den, r[m]))
        w = [Fraction(x, r[m]) for x in r] + [0] * (d - 1 - m)
        n = [x / s for x in w]
        if _dot(n, [_dot(row, n) for row in a_inv]) > 1:
            raise CertificationError("parallelotope slab certificate failed")
        w_rows.append(w)
        scales.append(s)
    u_inv_t = fraction_inverse(w_rows)
    gens = [[x * s for x, s in zip(row, scales)] for row in u_inv_t]
    return gens, 2**d * math.prod(scales)


def lll_recompute(rows, delta=Fraction(99, 100)):
    """Textbook exact LLL that recomputes Gram-Schmidt from scratch after
    every swap, with the same size-reduction order (j = k-1 down to 0,
    rounding half up) and Lovasz test as ``latred.lll_reduce``.

    Returns (reduced rows, T, swaps, rounded) with T @ rows == reduced rows:
    the rows are tuples of Fractions, T a tuple of int tuples, and rounded
    lists the values mu_kj that size reduction rounded, in order."""
    d = len(rows)
    rows = [[Fraction(x) for x in r] for r in rows]
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    ortho, mu = gram_schmidt(rows)
    swaps, rounded, k = 0, [], 1
    while k < d:
        for j in range(k - 1, -1, -1):
            q = math.floor(mu[k][j] + Fraction(1, 2))
            rounded.append(mu[k][j])
            if q:
                rows[k] = [a - q * b for a, b in zip(rows[k], rows[j])]
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                ortho, mu = gram_schmidt(rows)
        if _dot(ortho[k], ortho[k]) >= (delta - mu[k][k - 1] ** 2) * _dot(ortho[k - 1], ortho[k - 1]):
            k += 1
        else:
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
            t[k], t[k - 1] = t[k - 1], t[k]
            ortho, mu = gram_schmidt(rows)
            swaps += 1
            k = max(k - 1, 1)
    return tuple(map(tuple, rows)), tuple(map(tuple, t)), swaps, rounded


def khachiyan_reference(points, eps=Fraction(1, 100), max_iter=100_000):
    """The form rows of the enclosing ellipsoid by the plain Khachiyan loop.

    Every float step is that of the straightforward implementation: a
    weight vector u kept throughout, M^-1 taken from the exact Fraction
    inverse of M = sum u_i x_i x_i^T (again whenever a step has s = 1), the
    argmax over a list of all g_j, and a Fraction rescale by
    max x^T A x.  Exact steps use this module's Fraction oracles.  Raises
    RankError, DimensionError or ConvergenceError where ``mvee`` should.
    """
    pts = tuple(tuple(Fraction(x) for x in p) for p in points)
    if not pts:
        raise RankError("empty point set")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionError("point dimensions disagree")
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise DimensionError("eps must lie in (0, 1)")
    if fraction_rank(pts) < d:
        raise RankError("points do not span the space")

    xs = [tuple(map(float, p)) for p in pts]
    n = len(pts)
    u = [1.0 / n] * n
    target = d * (1.0 + float(eps))

    def direct_inverse():
        w = [Fraction(ui) for ui in u]
        m = [[sum(wi * p[i] * p[j] for wi, p in zip(w, pts)) for j in range(d)] for i in range(d)]
        return [[float(x) for x in row] for row in fraction_inverse(m)]

    m_inv = direct_inverse()
    for _ in range(max_iter):
        mx = [[sum(map(operator.mul, row, x)) for row in m_inv] for x in xs]
        g = [sum(map(operator.mul, x, y)) for x, y in zip(xs, mx)]
        j = max(range(n), key=g.__getitem__)
        gmax = g[j]
        if gmax <= target:
            break
        step = (gmax - d) / (d * (gmax - 1.0))
        u = [ui * (1.0 - step) for ui in u]
        u[j] += step
        if step == 1.0:
            m_inv = direct_inverse()
            continue
        y = mx[j]
        c = step / (1.0 - step)
        f = c / (1.0 + c * gmax)
        m_inv = [
            [(a - f * yi * yk) / (1.0 - step) for a, yk in zip(row, y)] for row, yi in zip(m_inv, y)
        ]
    else:
        raise ConvergenceError(f"no convergence within {max_iter} iterations")

    a = [[x / d for x in row] for row in m_inv]
    a_rows = [
        [Fraction((a[i][j] + a[j][i]) / 2.0).limit_denominator(10**9) for j in range(d)]
        for i in range(d)
    ]
    s = max(_dot(p, [_dot(row, p) for row in a_rows]) for p in pts)
    if s <= 0:
        raise ConvergenceError("degenerate rationalized form")
    return [[x / s for x in row] for row in a_rows]


def sweep_reference(body, lines=None):
    """The runs (prefix, lo, hi) of a body's line sweep, each line's extent
    recomputed from its whole prefix: for an ellipsoid, b and c of the
    line a t^2 + 2 b t + c <= 0 from the Schur block over the prefix; for a
    vertex body, the box bounds narrowed by the vertices' largest l1 norm
    below the last coordinate and, on it, N.(prefix, t) against every
    facet row |N.x| <= D; for a box, its bounds.  Only t >= 0 is swept
    while the prefix is all zero.  No budget is checked.  ``lines``, when
    a list, receives the prefix of each last-coordinate line visited, in
    order."""
    last = body.dim - 1
    bounds = body.int_box_bounds()

    if body.kind == "ellipsoid":
        den, chain = body.ellipsoid_rep.schur

        def extent(prefix):
            rows, q = chain[len(prefix)]
            a = rows[-1][-1]
            b = sum(map(operator.mul, rows[-1], prefix))
            c = sum(x * sum(map(operator.mul, row, prefix)) for x, row in zip(prefix, rows)) - den * q
            if b * b - a * c < 0:
                return None
            s = math.isqrt(b * b - a * c)
            return -((s + b) // a), (s - b) // a

    elif body.kind == "vertices":
        l1_cap = math.floor(max(sum(abs(c) for c in v) for v in body.points))

        def extent(prefix):
            if len(prefix) < last:
                r = min(bounds[len(prefix)], l1_cap - sum(map(abs, prefix)))
                return -r, r
            lo, hi = -math.inf, math.inf
            for normal, bound in body.hull_facets():
                s = sum(map(operator.mul, normal, prefix))
                c = normal[-1]
                if c == 0:
                    if abs(s) > bound:
                        return None
                    continue
                ends = (Fraction(-bound - s, c), Fraction(bound - s, c))
                lo, hi = max(lo, min(ends)), min(hi, max(ends))
            return (math.ceil(lo), math.floor(hi)) if lo <= hi else None

    else:

        def extent(prefix):
            return -bounds[len(prefix)], bounds[len(prefix)]

    runs = []

    def sweep(prefix, zero):
        if lines is not None and len(prefix) == last:
            lines.append(prefix)
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
    return runs
