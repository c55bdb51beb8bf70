import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapcover.errors import (
    DimensionError,
    LatticeMismatchError,
    RankError,
    SingularMatrixError,
)
from gapcover.exactalg import (
    Mat,
    UnimodularMat,
    _gauss_jordan,
    _independent_rows,
    _inverse_pair,
    _integer_solver,
    _span_rank,
    det,
    integer_kernel,
    inverse,
    left_kernel,
    unimodular_solve,
)
from gapcover.enumeration import PointSet
from gapcover.geomcore import ConvexBody, Ellipsoid

from _oracles import (
    fraction_det,
    fraction_inverse,
    fraction_kernel,
    fraction_rank,
    gauss_jordan_reference,
    hnf,
    identity,
    unimodular,
)


def cofactor_2x2(m):
    # independent hand oracle for 2x2 determinants
    return m.entries[0][0] * m.entries[1][1] - m.entries[0][1] * m.entries[1][0]


def adjugate_2x2(m):
    a, b = m.entries[0]
    c, d = m.entries[1]
    dt = a * d - b * c
    return Mat([[d / dt, -b / dt], [-c / dt, a / dt]])


small_ints = st.integers(min_value=-30, max_value=30)


def square_int_mats(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# entries over mixed denominators up to 10^9, as in the pipeline's
# generator matrices
rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**9))


@st.composite
def square_rational_mats(draw, max_dim=5):
    """Square rational matrices; about half are made singular by setting
    one row to a rational combination of two others (or to zero)."""
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        i = draw(st.integers(0, n - 1))
        rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])] if n > 2 else [Fraction(0)] * n
    return rows


class TestIntegerKernels:
    """det, inverse and the Gauss-Jordan rank clear denominators and
    eliminate in ints; the Fraction eliminations in tests/_oracles.py are
    the reference."""

    @given(square_rational_mats())
    @settings(max_examples=80, deadline=None)
    def test_det_matches_fraction_oracle(self, rows):
        assert det(Mat(rows)) == fraction_det(rows)

    @given(square_rational_mats())
    @settings(max_examples=80, deadline=None)
    def test_inverse_matches_fraction_oracle(self, rows):
        m = Mat(rows)
        if fraction_det(rows) == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert inverse(m).entries == fraction_inverse(rows)
            # the integer pair carries the inverse's sign in its numerators
            r, p = _inverse_pair(m)
            assert p > 0
            assert tuple(tuple(Fraction(x, p) for x in row) for row in r) == fraction_inverse(rows)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_fraction_oracle(self, data):
        # a product (m x r)(r x n) has rank <= r, so many draws are deficient
        m, r, n = (data.draw(st.integers(1, 5)) for _ in range(3))
        left = data.draw(st.lists(st.lists(rationals, min_size=r, max_size=r), min_size=m, max_size=m))
        right = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=r, max_size=r))
        rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)] for row in left]
        assert len(_gauss_jordan(Mat(rows).num, n)[1]) == fraction_rank(rows)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_span_rank_matches_fraction_oracle(self, points):
        assert _span_rank(points, 3) == fraction_rank(points)

    @pytest.mark.parametrize("x", [(3,), (3, 0, 1)], ids=["short", "long"])
    def test_integer_solver_rejects_wrong_length(self, x):
        # a 2 x 2 system: a 1- or 3-vector has no solve, and is not truncated
        solve = _integer_solver([(1, 0), (0, 1)], 2)
        assert solve((3, 0)) == [3, 0]
        with pytest.raises(DimensionError, match="dimension"):
            solve(x)

    @pytest.mark.parametrize(
        "rows, order, value",
        [
            ([[0, 5, 0], [3, 0, 0], [0, 0, 2]], [1, 0, 2], -30),
            ([[0, 0, 2], [3, 0, 0], [0, 5, 0]], [1, 2, 0], 30),
            ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [0, 2], 0),
            ([[Fraction(1, 2), 1], [1, 2]], [0], 0),
        ],
        ids=["odd-permutation", "even-permutation", "singular", "singular-rational"],
    )
    def test_det_reads_the_pivot_order(self, rows, order, value):
        # the last Gauss-Jordan pivot is the determinant of the rows in
        # pivot order, negated for an odd order; 0 below full rank
        m = Mat(rows)
        assert [i for i, _ in _gauss_jordan(m.num, m.rows)[1]] == order
        assert det(m) == value == fraction_det(rows)


def fraction_matmul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)) for row in a)


@st.composite
def rational_grids(draw, rows=None, cols=None):
    """(grid, den): a grid of ints or of rationals over mixed denominators,
    with a denominator 1..10^6 for Mat(grid, den)."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entry = draw(st.sampled_from([small_ints, rationals]))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return grid, draw(st.sampled_from([1, draw(st.integers(1, 10**6))]))


class TestMat:
    """A Mat is integer rows over one denominator in lowest terms; its
    arithmetic is checked against Fraction grids."""

    @given(rational_grids(), st.integers(1, 50))
    @settings(max_examples=120, deadline=None)
    def test_lowest_terms_and_entries(self, drawn, c):
        grid, den = drawn
        m = Mat(grid, den)
        assert m.den >= 1 and math.gcd(m.den, *(x for row in m.num for x in row)) == 1
        assert all(type(x) is int for row in m.num for x in row)
        want = tuple(tuple(Fraction(x) / den for x in row) for row in grid)
        assert m.entries == want
        # the same matrix given as Fractions, or over a multiple of den
        for same in (Mat(want), Mat([[c * x for x in row] for row in grid], c * den)):
            assert same == m and (same.num, same.den) == (m.num, m.den) and hash(same) == hash(m)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_fraction_oracles(self, data):
        n, k, l = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = Mat(*data.draw(rational_grids(n, k)))
        b = Mat(*data.draw(rational_grids(k, l)))
        s = data.draw(st.one_of(small_ints, rationals))
        assert (a @ b).entries == fraction_matmul(a.entries, b.entries)
        assert a.scale(s).entries == tuple(tuple(x * s for x in row) for row in a.entries)
        assert a.transpose().entries == tuple(zip(*a.entries))
        sq = Mat(*data.draw(rational_grids(n, n)))
        assert det(sq) == fraction_det(sq.entries)
        if det(sq):
            inv = inverse(sq)
            assert inv.den >= 1 and inv.entries == fraction_inverse(sq.entries)
            assert sq @ inv == identity(n)

    @pytest.mark.parametrize("den", [0, -1, -7])
    def test_denominator_below_one_raises(self, den):
        with pytest.raises(DimensionError, match="denominator"):
            Mat([[1, 2], [3, 4]], den)

    def test_int_entries_needs_denominator_one(self):
        assert Mat([[2, 4]], 2).int_entries() == ((1, 2),)
        with pytest.raises(DimensionError, match="non-integer"):
            Mat([[1, 2]], 2).int_entries()


class TestDet:
    def test_diagonal(self):
        assert det(Mat([[2, 0], [0, 3]])) == 6

    def test_identity_4x4(self):
        assert det(identity(4)) == 1

    def test_2x2_against_cofactor_oracle(self):
        m = Mat([[1, 2], [3, 4]])
        assert det(m) == cofactor_2x2(m) == -2

    def test_rational_entries(self):
        m = Mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert det(m) == cofactor_2x2(m)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            det(Mat([[1, 2, 3], [4, 5, 6]]))

    @given(square_int_mats())
    @settings(max_examples=60, deadline=None)
    def test_transpose_invariance(self, rows):
        m = Mat(rows)
        assert det(m) == det(m.transpose())

    @given(square_int_mats())
    @settings(max_examples=60, deadline=None)
    def test_det_times_det_inverse_is_one(self, rows):
        m = Mat(rows)
        d = det(m)
        if d == 0:
            return
        assert d * det(inverse(m)) == 1


class TestInverse:
    def test_identity(self):
        assert inverse(identity(3)) == identity(3)

    def test_shear(self):
        assert inverse(Mat([[1, 0], [-4, 1]])) == Mat([[1, 0], [4, 1]])

    def test_against_adjugate_oracle(self):
        m = Mat([[2, 1], [1, 1]])
        assert inverse(m) == adjugate_2x2(m) == Mat([[1, -1], [-1, 2]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(Mat([[1, 2], [2, 4]]))

    @given(square_int_mats())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, rows):
        m = Mat(rows)
        if det(m) == 0:
            return
        assert m @ inverse(m) == identity(m.rows)


def naive_lattice_equal(a: Mat, b: Mat) -> bool:
    """Row-lattice equality oracle: each row of one is an integer combination
    of the rows of the other (both directions), via exact solves."""
    inv_a, inv_b = inverse(a), inverse(b)
    for i in range(b.rows):
        coeffs = (Mat([b.entries[i]]) @ inv_a).entries[0]
        if any(c.denominator != 1 for c in coeffs):
            return False
    for i in range(a.rows):
        coeffs = (Mat([a.entries[i]]) @ inv_b).entries[0]
        if any(c.denominator != 1 for c in coeffs):
            return False
    return True


class TestHnf:
    def test_identity(self):
        h, u = hnf(identity(3))
        assert h == identity(3)
        assert u == unimodular([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_row_swap(self):
        h, u = hnf(Mat([[0, 1], [1, 0]]))
        assert h == identity(2)
        assert Mat(u.int_rows) @ Mat([[0, 1], [1, 0]]) == h

    def test_det_preserved(self):
        m = Mat([[2, 4], [6, 8]])
        h, u = hnf(m)
        assert abs(det(h)) == 8
        assert Mat(u.int_rows) @ m == h
        # canonical shape: lower triangular, positive pivots
        assert h.entries[0][1] == 0
        assert h.entries[0][0] > 0 and h.entries[1][1] > 0
        assert 0 <= h.entries[1][0] < h.entries[0][0]
        assert naive_lattice_equal(m, h)

    def test_rank_deficient_raises(self):
        with pytest.raises(RankError):
            hnf(Mat([[1, 2], [2, 4]]))

    @given(square_int_mats())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_lattice_preserving(self, rows):
        m = Mat(rows)
        if det(m) == 0:
            return
        h, u = hnf(m)
        h2, _ = hnf(h)
        assert h2 == h
        assert Mat(u.int_rows) @ m == h
        assert naive_lattice_equal(m, h)


def make_unimodular(seed_ops):
    """Build a small unimodular matrix from a list of (kind, i, j, q) ops."""
    n = 3
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, q in seed_ops:
        i, j = i % n, j % n
        if i == j:
            continue
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return Mat(rows)


elementary_ops = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-3, 3),
    ),
    min_size=1,
    max_size=8,
)


class TestUnimodularSolve:
    def test_identity_to_swap(self):
        t = unimodular_solve(identity(2), Mat([[0, 1], [1, 0]]))
        assert Mat(t.int_rows) == Mat([[0, 1], [1, 0]])

    def test_index_two_sublattice_rejected(self):
        # T = 2 I is integral, T^-1 = I / 2 is not
        with pytest.raises(LatticeMismatchError, match="not integral"):
            unimodular_solve(identity(2), identity(2).scale(2))

    def test_shear(self):
        t = unimodular_solve(Mat([[1, 0], [4, 1]]), identity(2))
        assert Mat(t.int_rows) @ Mat([[1, 0], [4, 1]]) == identity(2)
        assert Mat(t.int_rows) == Mat([[1, 0], [-4, 1]])

    def test_non_integer_transform_rejected(self):
        # same determinant but different lattices
        with pytest.raises(LatticeMismatchError, match="not integral"):
            unimodular_solve(Mat([[2, 0], [0, 1]]), Mat([[1, 0], [0, 2]]))

    @pytest.mark.parametrize(
        "x, x2",
        [
            # determinant ratio 1/2: T is integral, T^-1 is not
            (Mat([[Fraction(1, 3), 0], [1, Fraction(1, 7)]]), Mat([[Fraction(1, 6), 0], [1, Fraction(1, 7)]])),
            # determinant ratio 1: neither is integral
            (Mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), Mat([[Fraction(1, 4), 0], [0, Fraction(2, 3)]])),
        ],
        ids=["determinant-ratio", "non-integral"],
    )
    def test_rational_mismatch_rejected(self, x, x2):
        with pytest.raises(LatticeMismatchError, match="not integral"):
            unimodular_solve(x, x2)

    @pytest.mark.parametrize(
        "x, x2, error",
        [
            (Mat([[1, 2], [2, 4]]), identity(2), SingularMatrixError),
            (identity(2), Mat([[1, 2], [2, 4]]), SingularMatrixError),
            (identity(2), Mat([[1, 0, 0], [0, 1, 0]]), DimensionError),
            (identity(2), identity(3), DimensionError),
        ],
        ids=["first-singular", "second-singular", "not-square", "unequal-size"],
    )
    def test_singular_or_misshapen_bases_raise(self, x, x2, error):
        with pytest.raises(error):
            unimodular_solve(x, x2)

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3), elementary_ops)
    @settings(max_examples=60, deadline=None)
    def test_rational_bases_match_fraction_oracle(self, rows, ops):
        # x rational with mixed denominators, x2 = W @ x for a unimodular W;
        # T must be W, and x2 @ x^-1 with the oracle's inverse
        if fraction_det(rows) == 0:
            return
        w = make_unimodular(ops)
        x = Mat(rows)
        x2 = w @ x
        t = unimodular_solve(x, x2)
        assert Mat(t.int_rows) == w == x2 @ Mat(fraction_inverse(rows))

    @given(square_int_mats(3), elementary_ops)
    @settings(max_examples=60, deadline=None)
    def test_succeeds_iff_hnf_equal(self, rows, ops):
        while len(rows) < 3:
            rows = rows + [[0] * len(rows[0])]
        m = Mat([r[:3] + [0] * (3 - len(r[:3])) for r in rows[:3]])
        if det(m) == 0:
            return
        w = make_unimodular(ops)
        m2 = w @ m
        t = unimodular_solve(m, m2)
        assert Mat(t.int_rows) == w
        assert hnf(m)[0] == hnf(m2)[0]
        m3 = m.scale(2)
        with pytest.raises((LatticeMismatchError, SingularMatrixError)):
            unimodular_solve(m, m3)
        assert hnf(m)[0] != hnf(m3)[0]


T_2 = [[2, 1], [1, 1]]  # det 1, T^-1 = [[1, -1], [-1, 2]]


class TestUnimodularMat:
    def test_claimed_inverse_is_held(self):
        t = UnimodularMat(T_2, [[1, -1], [-1, 2]])
        assert t.inverse().int_rows == ((1, -1), (-1, 2))
        assert t.inverse().inverse() == t

    @pytest.mark.parametrize(
        "claimed",
        [
            [[1, -1], [-1, 3]],
            [[2, 1], [1, 1]],
            [[-1, 1], [1, -2]],
            [[1, -1]],
            [[1, -1, 0], [-1, 2, 0]],
            # T times its first two rows is I, so only the shape check
            # catches the extra row
            [[1, -1], [-1, 2], [5, 5]],
        ],
        ids=["entry-off", "t-itself", "negated", "short", "wide", "extra-row"],
    )
    def test_wrong_claimed_inverse_raises(self, claimed):
        with pytest.raises(LatticeMismatchError, match="claimed inverse"):
            UnimodularMat(T_2, claimed)

    @pytest.mark.parametrize(
        "rows, adjugate",
        [
            ([[2, 0], [0, 1]], [[1, 0], [0, 2]]),
            ([[0, 3], [1, 0]], [[0, -3], [-1, 0]]),
            ([[1, 2], [2, 4]], [[4, -2], [-2, 1]]),
        ],
        ids=["det-2", "det-minus-3", "singular"],
    )
    def test_non_unimodular_rows_refuse_their_adjugate(self, rows, adjugate):
        # T adj T = det T I: only for det T = 1 is the adjugate the inverse
        with pytest.raises(LatticeMismatchError, match="claimed inverse"):
            UnimodularMat(rows, adjugate)

    @given(elementary_ops)
    @settings(max_examples=60, deadline=None)
    def test_elementary_products_hold_their_inverse(self, ops):
        # det T of either sign; T^-1 from the oracle, and T from T^-1
        w = make_unimodular(ops)
        inv = [[int(x) for x in row] for row in fraction_inverse(w.entries)]
        t = UnimodularMat(w.num, inv)
        assert t.inverse().int_rows == tuple(map(tuple, inv))
        assert UnimodularMat(inv, w.num) == t.inverse()

    @pytest.mark.parametrize("rows", [[[Fraction(1, 2)]], [[Fraction(1)]], [[1, 0], [0]]], ids=["half", "fraction-one", "ragged"])
    def test_rows_not_a_square_of_ints_raise(self, rows):
        with pytest.raises(DimensionError, match="square matrix of ints"):
            UnimodularMat(rows, rows)

    def test_rational_claimed_inverse_raises(self):
        # [[2]] [[1/2]] = I, but det [[2]] = 2: the inverse must be integral
        with pytest.raises(LatticeMismatchError, match="claimed inverse"):
            UnimodularMat([[2]], [[Fraction(1, 2)]])


@st.composite
def kernel_inputs(draw):
    """(rows, cols): up to 6 integer rows, some of them zero or combinations
    of earlier rows, so that the rank is often below both sizes."""
    cols = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * cols)
        elif kind == "free":
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    return rows, cols


@st.composite
def gauss_jordan_inputs(draw):
    """(rows, cols) for _gauss_jordan: kernel_inputs' rows (zero, free and
    dependent ones), square matrices, singular squares whose last row
    combines two others, or [M | I] pivoting in M's columns; the entries
    take both signs, so pivots are often negative, and a drawn column may
    be zeroed."""
    kind = draw(st.sampled_from(["kernel", "square", "singular", "wide"]))
    if kind == "kernel":
        rows, cols = draw(kernel_inputs())
    else:
        cols = draw(st.integers(2 if kind == "singular" else 1, 5))
        rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols), min_size=cols, max_size=cols))
        if kind == "singular":
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    if rows and draw(st.booleans()):
        z = draw(st.integers(0, cols - 1))
        rows = [row[:z] + [0] + row[z + 1 :] for row in rows]
    if kind == "wide":
        rows = [row + [int(i == j) for j in range(cols)] for i, row in enumerate(rows)]
    return rows, cols


class TestKernels:
    @given(gauss_jordan_inputs())
    @example(([[-2, 1], [3, -4]], 2))  # both pivots negative
    @example(([[0, 5, 1, 0], [-3, 0, 0, 1]], 2))  # [M | I], a zero below the first pivot
    @example(([[0, 0], [0, 0]], 2))
    @settings(max_examples=200, deadline=None)
    def test_gauss_jordan_matches_reference_loop(self, data):
        # skipping the rows that hold 0 in the pivot column, or only scaling
        # them, changes nothing: (a, pivots, D) equal the loop's that
        # updates every row
        rows, cols = data
        assert _gauss_jordan(rows, cols) == gauss_jordan_reference(rows, cols)

    def test_integer_kernel(self):
        m = Mat([[1, 1, 0], [0, 0, 1]])
        basis = integer_kernel(m.int_entries(), 3)
        assert basis == [(-1, 1, 0)]
        for v in basis:
            assert m @ Mat(zip(v)) == Mat([[0], [0]])
        assert integer_kernel([], 2) == [(1, 0), (0, 1)]
        assert integer_kernel([[0, 0, 0]], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # the last pivot is negative; the vectors still have x_f > 0
        assert integer_kernel([[2, 4, 6], [0, -3, 3]], 3) == [(-5, 1, 1)]

    @given(kernel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_integer_kernel_matches_fraction_oracle(self, data):
        rows, cols = data
        basis = integer_kernel(rows, cols)
        assert basis == fraction_kernel(rows, cols)
        assert len(basis) == cols - (fraction_rank(rows) if rows else 0)

    @given(kernel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_kernel_of_independent_rows(self, data):
        # integer_kernel's rows depend only on the row space, so the rows
        # that raise the rank, in either order, give the kernel of them all
        rows, cols = data
        rank = fraction_rank(rows) if rows else 0
        for order in (rows, rows[::-1]):
            kept = _independent_rows(order, cols)
            assert len(kept) == rank == _span_rank(order, cols)
            assert all(any(p is r for r in rows) for p in kept)
            assert integer_kernel(kept, cols) == integer_kernel(rows, cols)

    def test_left_kernel_saturated(self):
        m = Mat([[1], [-1]])
        basis = left_kernel(m)
        assert basis == [(1, 1)]

    def test_left_kernel_full_rank_empty(self):
        assert left_kernel(identity(3)) == []

    def test_rank(self):
        assert _gauss_jordan([[1, 2], [2, 4]], 2)[1] == [(0, 0)]
        assert _span_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == 3

    @given(kernel_inputs())
    @settings(max_examples=120, deadline=None)
    def test_gauss_jordan_matches_fraction_oracle(self, data):
        # the pivot columns are those where the rank of the leading columns
        # rises; the pivot rows are independent rows of the input, and each
        # ends with the last pivot at its own pivot column, 0 at the others
        rows, cols = data
        a, pivots, last = _gauss_jordan(rows, cols)
        ranks = [fraction_rank([row[:c] for row in rows]) if rows and c else 0 for c in range(cols + 1)]
        assert [c for _, c in pivots] == [c for c in range(cols) if ranks[c + 1] > ranks[c]]
        assert len(pivots) == ranks[cols]
        if pivots:
            assert fraction_rank([rows[i] for i, _ in pivots]) == len(pivots)
        for row, (_, c) in zip(a, pivots):
            assert [row[f] for _, f in pivots] == [last if f == c else 0 for _, f in pivots]


class TestSqrtBounds:
    def test_floor_sqrt(self):
        # an ellipsoid body's int_box_bounds are floor(sqrt((A^-1)_jj)), from
        # A^-1 = R / p
        def bounds(form):
            return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form))).int_box_bounds()

        assert bounds([[Fraction(10, 89), 0], [0, Fraction(10, 91)]]) == (2, 3)
        assert bounds([[Fraction(1, 4)]]) == (2,)
        form = [[Fraction(x, 50) for x in row] for row in ((5, 2, 0), (2, 4, 1), (0, 1, 3))]
        inv = fraction_inverse(form)
        want = tuple(math.isqrt(math.floor(inv[j][j])) for j in range(3))
        assert bounds(form) == want


IMMUTABLE = [
    (identity(2), "rows"),
    (PointSet(1, [((), 0, 0)]), "runs"),
    (Ellipsoid(identity(2)), "form"),
    (ConvexBody.box([1, 1]), "kind"),
    (UnimodularMat([[1, 0], [0, 1]], [[1, 0], [0, 1]]), "int_rows"),
]


@pytest.mark.parametrize("obj, attr", IMMUTABLE, ids=[type(obj).__name__ for obj, _ in IMMUTABLE])
def test_attribute_assignment_raises(obj, attr):
    with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
        setattr(obj, attr, None)
