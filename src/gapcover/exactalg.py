"""Exact integer and rational linear algebra.

Scalars are ``fractions.Fraction`` throughout (arbitrary precision, always
normalized with positive denominator), so every operation in this module is
exact: nothing here may round.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import (
    DimensionError,
    LatticeMismatchError,
    RankError,
    SingularMatrixError,
)

Rat = Fraction

Vector = tuple[Fraction, ...]


def as_vector(values: Iterable) -> Vector:
    return tuple(Fraction(x) for x in values)


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def norm_sq(u: Sequence) -> Fraction:
    return vec_dot(u, u)


def l1_norm(u: Sequence) -> Fraction:
    return sum((abs(Fraction(a)) for a in u), Fraction(0))


class Mat:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not grid or not grid[0]:
            raise DimensionError("matrix must have at least one row and column")
        cols = len(grid[0])
        if any(len(row) != cols for row in grid):
            raise DimensionError("ragged rows in matrix literal")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Iterable[Iterable]) -> "Mat":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Mat":
        return Mat(zip(*self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def int_entries(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_integer():
            raise DimensionError("matrix has non-integer entries")
        return tuple(tuple(int(x) for x in row) for row in self.entries)

    def scale(self, s) -> "Mat":
        s = Fraction(s)
        return Mat([[x * s for x in row] for row in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        return Mat([[vec_dot(row, c) for c in cols] for row in self.entries])

    def mul_vec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(v)}")
        return tuple(vec_dot(row, v) for row in self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"


def det(m: Mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = [list(row) for row in m.entries]
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


def inverse(m: Mat) -> Mat:
    """Exact inverse: fraction-free forward elimination, exact back substitution."""
    if not m.is_square():
        raise DimensionError(f"inverse needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    a = [list(m.entries[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    prev = Fraction(1)
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    break
            else:
                raise SingularMatrixError("matrix is singular")
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
    return Mat([row[n:] for row in a])


def rank(m: Mat) -> int:
    a = [list(row) for row in m.entries]
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pv = a[r][c]
        for i in range(r + 1, m.rows):
            if a[i][c] != 0:
                f = a[i][c] / pv
                for j in range(c, m.cols):
                    a[i][j] -= f * a[r][j]
        r += 1
        if r == m.rows:
            break
    return r


def rational_kernel(m: Mat) -> list[Vector]:
    """Basis of the right kernel {x : m @ x = 0} over the rationals."""
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            v[pc] = -a[pr][fc]
        basis.append(tuple(v))
    return basis


class UnimodularMat:
    """Square integer matrix with determinant exactly +1 or -1."""

    __slots__ = ("int_rows", "dim", "det")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = []
        for row in entries:
            out = []
            for x in row:
                xi = int(x)
                if xi != x:
                    raise DimensionError("unimodular matrix entries must be integers")
                out.append(xi)
            rows.append(tuple(out))
        rows = tuple(rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionError("unimodular matrix must be square")
        d = _int_det(rows)
        if d not in (1, -1):
            raise LatticeMismatchError(f"matrix has determinant {d}, expected +1 or -1")
        object.__setattr__(self, "int_rows", rows)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "det", d)

    def __setattr__(self, name, value):
        raise AttributeError("UnimodularMat is immutable")

    @classmethod
    def identity(cls, n: int) -> "UnimodularMat":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def mat(self) -> Mat:
        return Mat(self.int_rows)

    def inverse(self) -> "UnimodularMat":
        inv = inverse(self.mat)
        return UnimodularMat(inv.int_entries())

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.int_rows)

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


def hnf(m: Mat) -> tuple[Mat, UnimodularMat]:
    """Canonical Hermite normal form of a full-row-rank integer matrix.

    Convention: row-style, lower triangular, positive pivots, entries below
    each pivot reduced modulo the pivot.  Two integer matrices generate the
    same row lattice iff their forms are equal.
    """
    rows = m.int_entries()
    h, u, rk = _hnf_with_transform(rows)
    if rk < m.rows:
        raise RankError(f"matrix has row rank {rk} < {m.rows}")
    return Mat(h), UnimodularMat(u)


def left_kernel(m: Mat) -> list[tuple[int, ...]]:
    """Basis of the saturated integer left kernel {u : u @ m = 0}."""
    rows = m.int_entries()
    h, u, rk = _hnf_with_transform(rows)
    out = []
    for i in range(len(rows) - rk):
        vec = tuple(u[i])
        # canonical sign: first nonzero entry positive
        for x in vec:
            if x:
                if x < 0:
                    vec = tuple(-y for y in vec)
                break
        out.append(vec)
    return out


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
    t = x2 @ inverse(x)
    if not t.is_integer():
        raise LatticeMismatchError("lattices differ: transform is not integral")
    return UnimodularMat(t.int_entries())


def floor_sqrt(x: Fraction) -> int:
    """Largest integer t with t*t <= x (x nonnegative)."""
    if x < 0:
        raise ValueError("floor_sqrt of a negative value")
    return isqrt(x.numerator // x.denominator)


_SQRT_SCALE = 1 << 48


def sqrt_upper(x: Fraction) -> Fraction:
    """Rational u >= sqrt(x), tight to about 2^-48 relative error."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt_upper of a negative value")
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    s = isqrt(p * q * _SQRT_SCALE * _SQRT_SCALE) + 1
    return Fraction(s, q * _SQRT_SCALE)
