"""Exact integer and rational linear algebra.

A rational matrix, ``Mat``, is stored as the kernels use it: integer rows
over one positive denominator, in lowest terms, cleared once when it is
built; its Fraction entries are only a view.  The eliminations are
fraction-free (Bareiss): every division is exact.  One Gauss-Jordan pass,
``_gauss_jordan``, serves every inverse, kernel, pivot choice and integer
solver built from a matrix alone; determinants take the forward-only half of
it, ``_int_det``.  Nothing here may round.  A ``Mat`` is immutable, so its
determinant and inverse are computed at most once and kept on it, or set by
the code that built them (``geomcore.mvee``).  A ``UnimodularMat`` holds its
inverse too, which LLL builds beside T, so that its certificate is one
product; an integer matrix with a claimed integer inverse needs no
elimination either, only that product (``_is_inverse``), which is how the
covering certificate turns T into the solve of its progression.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    LatticeMismatchError,
    SingularMatrixError,
)

Vector = tuple[Fraction, ...]


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(x) for x in values)


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


class Frozen:
    """Base of the immutable classes: attribute assignment raises; ``_set``
    sets a slot once or as a memo (mvee seeds its form's inverse pair).
    ``Mat.__init__``, run for every matrix built, sets its slots through
    ``object.__setattr__`` directly, at half the cost of ``_set``'s loop."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class Mat(Frozen):
    """Immutable dense rational matrix num / den: ``num`` a tuple of integer
    rows and ``den`` >= 1, in lowest terms (gcd(den, every entry) = 1, so den
    is the lcm of the entries' denominators and equal matrices have equal
    (num, den)).  ``Mat(rows, den=1)`` is rows / den, rows of ints or of any
    rationals, which are cleared here once.  ``entries``, the rows as
    Fractions, is built on first use and kept; ``det`` and ``inverse`` keep
    their results on the matrix."""

    __slots__ = ("num", "den", "rows", "cols", "_entries", "_det", "_inv", "_inv_mat")

    def __init__(self, rows: Iterable[Iterable], den: int = 1):
        if den < 1:
            raise DimensionError(f"matrix denominator must be >= 1, not {den}")
        num = tuple(map(tuple, rows))
        if not num or not num[0]:
            raise DimensionError("matrix must have at least one row and column")
        cols = len(num[0])
        if any(len(row) != cols for row in num):
            raise DimensionError("ragged rows in matrix literal")
        if not all(type(x) is int for row in num for x in row):
            grid = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in num]
            lcm = math.lcm(*(x.denominator for row in grid for x in row))
            num = tuple(tuple(x.numerator * (lcm // x.denominator) for x in row) for row in grid)
            den *= lcm
        g = math.gcd(den, *(x for row in num for x in row)) if den > 1 else 1
        if g > 1:
            num = tuple(tuple(x // g for x in row) for row in num)
        setattr_ = object.__setattr__
        setattr_(self, "num", num)
        setattr_(self, "den", den // g)
        setattr_(self, "rows", len(num))
        setattr_(self, "cols", cols)
        setattr_(self, "_entries", None)
        setattr_(self, "_det", None)
        setattr_(self, "_inv", None)
        setattr_(self, "_inv_mat", None)

    @property
    def entries(self) -> tuple[Vector, ...]:
        if self._entries is None:
            den = self.den
            self._set(_entries=tuple(tuple(Fraction(x, den) for x in row) for row in self.num))
        return self._entries

    def transpose(self) -> "Mat":
        return Mat(zip(*self.num), self.den)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def int_entries(self) -> tuple[tuple[int, ...], ...]:
        if self.den != 1:
            raise DimensionError("matrix has non-integer entries")
        return self.num

    def scale(self, s) -> "Mat":
        s = Fraction(s)
        return Mat([[x * s.numerator for x in row] for row in self.num], self.den * s.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Mat(int_matmul(self.num, other.num), self.den * other.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, c)) for c in cols] for row in a]


@cache
def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity as tuples of ints, built once per n and shared:
    compare a product with it as tuples (a list never equals a tuple)."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _is_inverse(rows: Sequence[Sequence[int]], claim: Sequence[Sequence[int]]) -> bool:
    """Whether ``claim`` is the inverse of the n x n integer matrix ``rows``
    exactly: n rows of n ints with rows @ claim = I, one integer product.
    Two integer matrices whose product is I have determinants +-1."""
    n = len(rows)
    return (
        tuple(map(len, claim)) == (n,) * n
        and all(type(x) is int for row in claim for x in row)
        and tuple(map(tuple, int_matmul(rows, claim))) == _identity(n)
    )


def det(m: Mat) -> Fraction:
    """Exact determinant: Bareiss over m's integer rows, det(num) / den^rows."""
    if not m.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    if m._det is None:
        m._set(_det=Fraction(_int_det(m.num), m.den**m.rows))
    return m._det


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    # Bareiss over plain ints; divisions are exact.
    n = len(rows)
    a = [list(map(int, row)) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def schur_chain(n: Sequence[Sequence[int]]) -> list[tuple[tuple, int]] | None:
    """One fraction-free (Bareiss) elimination of the symmetric integer rows
    n, last coordinate first; None, as soon as a pivot is not positive, iff
    n is not positive definite.  Entry m is (block, q): the leading
    (m + 1) x (m + 1) rows left after eliminating coordinates d - 1, ...,
    m + 1, q times the Schur complement of n onto the first m + 1
    coordinates, with q the previous pivot (1 for m = d - 1).  With
    r = block[m] and pivot p = r[m] = det n[m:, m:], the terms
    (r . x)^2 / (p q) sum to x^T n x: n = U D U^T, U unit upper
    triangular with columns r / p and D_m = p / q."""
    a = [list(row) for row in n]
    chain = []
    q = 1
    for m in range(len(a) - 1, -1, -1):
        pivot, row_m = a[m][m], a[m]
        if pivot <= 0:
            return None
        chain.append((tuple(map(tuple, a[: m + 1])), q))
        for i in range(m):
            f = a[i][m]
            a[i] = [(pivot * x - f * y) // q for x, y in zip(a[i][:m], row_m)]
        q = pivot
    chain.reverse()
    return chain


def _gauss_jordan(
    rows: Sequence[Sequence[int]], cols: int
) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """One fraction-free Gauss-Jordan pass over the first ``cols`` columns
    of integer rows; any further columns (an identity block, say) are
    carried along.  Returns (a, pivots, D): pivots lists (i, c) for each
    pivot from left to right, i the row's index in ``rows`` and c its
    column, so their number is the rank; a holds the pivot rows first, in
    that order, then the rest; D is the last pivot (1 without pivots).  In
    each column the first remaining row with a nonzero entry is picked,
    every division by the previous pivot is exact, and each pivot row ends
    with D at its own pivot column and 0 at the other pivot columns.  A
    row with 0 in the pivot column is only scaled by pivot / prev, and
    left alone when the two are equal."""
    a = [list(row) for row in rows]
    order = list(range(len(a)))
    pivots: list[tuple[int, int]] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        for pr in range(r, len(a)):
            if a[pr][c]:
                break
        else:
            continue
        a[r], a[pr] = a[pr], a[r]
        order[r], order[pr] = order[pr], order[r]
        pivot, row_r = a[r][c], a[r]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(row, row_r)]
            elif not f and pivot != prev:  # a row with 0 here only scales
                a[i] = [pivot * x // prev for x in row]
        prev = pivot
        pivots.append((order[r], c))
    return a, pivots, prev


def _with_identity(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """[rows | I]: each row followed by its unit vector."""
    n = len(rows)
    return [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]


def _int_inverse(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(r, p) with rows^-1 == r / p and p = +-det(rows): the Gauss-Jordan
    pass over [rows | I] leaves [p I | r]."""
    n = len(rows)
    a, pivots, p = _gauss_jordan(_with_identity(rows), n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in a], p


def _inverse_pair(m: Mat) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(r, p) with m^-1 == r / p, r integers and p > 0; kept on m."""
    if m._inv is None:
        r, p = _int_inverse(m.num)  # m^-1 = den * r / p
        s = m.den if p > 0 else -m.den  # the sign of p moves into r
        m._set(_inv=(tuple(tuple(s * x for x in row) for row in r), abs(p)))
    return m._inv


def inverse(m: Mat) -> Mat:
    """Exact inverse from one fraction-free Gauss-Jordan pass over m's
    integer rows; the inverse matrix is built on the first call and kept."""
    if not m.is_square():
        raise DimensionError(f"inverse needs a square matrix, got {m.rows}x{m.cols}")
    if m._inv_mat is None:
        m._set(_inv_mat=Mat(*_inverse_pair(m)))
    return m._inv_mat


def _independent_rows(points: Iterable[Sequence[int]], d: int) -> list[Sequence[int]]:
    """The integer points, in order, that raise the rank of those before
    them: a basis of their span, with early exit at d (fast for spanning
    sets).  Each point is eliminated in ints against the kept rows, which
    are divided by their content."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row)
    kept = []
    for p in points:
        v = list(p)
        for piv, row in basis:
            f = v[piv]
            if f:
                g = row[piv]
                v = [g * a - f * b for a, b in zip(v, row)]
        if any(v):
            content = math.gcd(*v)
            basis.append((next(j for j, x in enumerate(v) if x), [x // content for x in v]))
            kept.append(p)
            if len(kept) == d:
                break
    return kept


def _span_rank(points: Iterable[Sequence[int]], d: int) -> int:
    """Rank of integer points (see _independent_rows)."""
    return len(_independent_rows(points, d))


class IntegerSolver(Frozen):
    """Solver for m @ y = x, m an integer matrix with independent columns:
    calling it gives the integer y, or None when there is none.  With
    adj @ m = den I (adj zero at all but k independent rows of m),
    y = adj @ x / den; ``others`` holds each other row with its index,
    (row, i), whose equation row . y = x[i] must then hold."""

    __slots__ = ("adj", "den", "others")

    def __init__(self, adj: list[list[int]], den: int, others: list[tuple[tuple[int, ...], int]]):
        self._set(adj=adj, den=den, others=others)

    def __call__(self, x: Sequence[int]) -> list[int] | None:
        rows = len(self.adj) + len(self.others)  # m's rows: k pivot rows and the others
        if len(x) != rows:
            raise DimensionError(f"right-hand side has dimension {len(x)}, the matrix {rows} rows")
        y = []
        for row in self.adj:
            q, rem = divmod(sum(map(operator.mul, row, x)), self.den)
            if rem:
                return None
            y.append(q)
        for row, i in self.others:
            if sum(map(operator.mul, row, y)) != x[i]:
                return None
        return y


def _integer_solver(columns: Sequence[Sequence[int]], dim: int) -> IntegerSolver | None:
    """The IntegerSolver of the dim x k integer matrix m with the given
    columns (k = 0 allowed: then only 0 solves, by the empty y); None when
    the columns are dependent.  The Gauss-Jordan pass over [m | I], pivoting
    in m's k columns, leaves pivot row j as [den e_j | adj_j]."""
    k = len(columns)
    rows = list(zip(*columns)) if k else [()] * dim
    a, pivots, den = _gauss_jordan(_with_identity(rows), k)
    if len(pivots) < k:
        return None
    picked = {i for i, _ in pivots}
    others = [(rows[i], i) for i in range(dim) if i not in picked]
    return IntegerSolver([row[k:] for row in a[:k]], den, others)


def integer_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel {x : rows @ x = 0} of an integer matrix
    with ``cols`` columns: one primitive integer vector per non-pivot
    column f, with x_f > 0 and 0 at the other non-pivot columns.  The
    Gauss-Jordan pass leaves every pivot row with the last pivot D at its
    own pivot column and 0 at the others, so x_f = D and x_c = -a[c][f] at
    each pivot column c solve it."""
    a, pivots, last = _gauss_jordan(rows, cols)
    pivot_cols = [c for _, c in pivots]
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        v = [0] * cols
        v[f] = last
        for row, c in zip(a, pivot_cols):
            v[c] = -row[f]
        g = math.gcd(*v) if last > 0 else -math.gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


class UnimodularMat(Frozen):
    """Square matrix T of ints with det T = +-1, held with its inverse.  The
    certificate is a raised error unless T^-1 is a matrix of ints and
    T T^-1 = I exactly: two integer matrices whose product is I have
    determinants +-1.  Without a claimed inverse, T^-1 = r p from one
    fraction-free inverse r / p of T, which needs |p| = |det T| = 1
    (SingularMatrixError when det T = 0)."""

    __slots__ = ("int_rows", "dim", "_inv")

    def __init__(self, entries: Iterable[Iterable[int]], inverse: Iterable[Iterable[int]] | None = None):
        rows = tuple(map(tuple, entries))
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows) or not all(type(x) is int for row in rows for x in row):
            raise DimensionError("unimodular matrix must be a square matrix of ints")
        if inverse is None:
            r, p = _int_inverse(rows)
            if abs(p) != 1:
                raise LatticeMismatchError(f"matrix has |determinant| {abs(p)}, expected 1")
            inverse = [[x * p for x in row] for row in r]
        inv = tuple(map(tuple, inverse))
        if not _is_inverse(rows, inv):
            raise LatticeMismatchError("the claimed inverse is no matrix of ints with T T^-1 = I: det T is not +-1")
        self._set(int_rows=rows, dim=n, _inv=inv)

    def inverse(self) -> "UnimodularMat":
        """T^-1, held since T was built; its own inverse is T."""
        inv = object.__new__(UnimodularMat)
        inv._set(int_rows=self._inv, dim=self.dim, _inv=self.int_rows)
        return inv

    def __eq__(self, other) -> bool:
        return isinstance(other, UnimodularMat) and self.int_rows == other.int_rows

    def __hash__(self):
        return hash(self.int_rows)

    def __repr__(self):
        return f"UnimodularMat({list(map(list, self.int_rows))})"


def _hnf_with_transform(rows: Sequence[Sequence[int]]):
    """Lower-triangular row Hermite form of an integer matrix.

    Returns (h, u, rank) with u unimodular, u @ rows == h, pivots positive,
    entries below each pivot reduced into [0, pivot).  Zero rows of h, if
    any, are the topmost rows; the corresponding rows of u form a basis of
    the left kernel of the input.
    """
    m = len(rows)
    n = len(rows[0])
    h = [list(map(int, row)) for row in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    pr = m - 1
    for c in range(n - 1, -1, -1):
        if pr < 0:
            break
        # gcd-collect column c into row pr using rows 0..pr
        while True:
            best = None
            for i in range(pr + 1):
                if h[i][c] != 0 and (best is None or abs(h[i][c]) < abs(h[best][c])):
                    best = i
            if best is None:
                break  # column is zero among active rows
            if best != pr:
                h[best], h[pr] = h[pr], h[best]
                u[best], u[pr] = u[pr], u[best]
            done = True
            for i in range(pr):
                if h[i][c] != 0:
                    q = h[i][c] // h[pr][c]
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[pr])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[pr])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[pr][c] == 0:
            continue
        if h[pr][c] < 0:
            h[pr] = [-a for a in h[pr]]
            u[pr] = [-a for a in u[pr]]
        piv = h[pr][c]
        for i in range(pr + 1, m):
            q = h[i][c] // piv  # floor keeps the residue in [0, piv)
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pr])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pr])]
        pr -= 1
    rk = m - 1 - pr
    return h, u, rk


def left_kernel(m: Mat) -> list[tuple[int, ...]]:
    """Basis of the saturated integer left kernel {u : u @ m = 0}."""
    rows = m.int_entries()
    h, u, rk = _hnf_with_transform(rows)
    # canonical sign: first nonzero entry positive
    return [tuple(-x for x in v) if next(x for x in v if x) < 0 else tuple(v) for v in u[: len(rows) - rk]]


def unimodular_solve(x: Mat, x2: Mat) -> UnimodularMat:
    """Certified change of basis: T with T @ x == x2 and det T = +/-1.

    Raises LatticeMismatchError when the row lattices of x and x2 differ
    (T would be non-integer or have |det| != 1).
    """
    if not x.is_square() or not x2.is_square() or x.rows != x2.rows:
        raise DimensionError("unimodular_solve needs two square matrices of equal size")
    dx = det(x)
    if dx == 0:
        raise SingularMatrixError("first basis is singular")
    dx2 = det(x2)
    if dx2 == 0:
        raise SingularMatrixError("second basis is singular")
    if abs(dx2 / dx) != 1:
        raise LatticeMismatchError(f"lattices differ: determinant ratio {dx2 / dx}")
    # x^-1 = r / p, so T = x2 @ x^-1 = (x2.num @ r) / (x2.den * p): integral iff its den is 1
    r, p = _inverse_pair(x)
    t = Mat(int_matmul(x2.num, r), x2.den * p)
    if t.den != 1:
        raise LatticeMismatchError("lattices differ: transform is not integral")
    return UnimodularMat(t.num)

