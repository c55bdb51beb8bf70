import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapcover.exactalg

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
    _span_rank,
    clear_denominators,
    det,
    integer_kernel,
    inverse,
    left_kernel,
    sqrt_upper,
    unimodular_solve,
    vec_dot,
)
from gapcover.enumeration import PointSet
from gapcover.geomcore import ConvexBody, Ellipsoid

from _oracles import fraction_det, fraction_inverse, fraction_kernel, fraction_rank, hnf, identity


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

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_fraction_oracle(self, data):
        # a product (m x r)(r x n) has rank <= r, so many draws are deficient
        m, r, n = (data.draw(st.integers(1, 5)) for _ in range(3))
        left = data.draw(st.lists(st.lists(rationals, min_size=r, max_size=r), min_size=m, max_size=m))
        right = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=r, max_size=r))
        rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)] for row in left]
        ints, _ = clear_denominators(Mat(rows))
        assert len(_gauss_jordan(ints, n)[1]) == fraction_rank(rows)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_span_rank_matches_fraction_oracle(self, points):
        assert _span_rank(points, 3) == fraction_rank(points)

    def test_computed_once_per_matrix(self):
        m = Mat([[Fraction(1, 3), 2], [5, Fraction(7, 9)]])
        with mock.patch.object(gapcover.exactalg, "_int_det", wraps=gapcover.exactalg._int_det) as spy:
            assert det(m) == det(m) == fraction_det(m.entries)
        assert spy.call_count == 1
        assert inverse(m) is inverse(m)


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
        coeffs = inv_a.transpose().mul_vec(b.entries[i])
        if any(c.denominator != 1 for c in coeffs):
            return False
    for i in range(a.rows):
        coeffs = inv_b.transpose().mul_vec(a.entries[i])
        if any(c.denominator != 1 for c in coeffs):
            return False
    return True


class TestHnf:
    def test_identity(self):
        h, u = hnf(identity(3))
        assert h == identity(3)
        assert u == UnimodularMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

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
        with pytest.raises(LatticeMismatchError, match="determinant ratio"):
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
        "x, x2, reason",
        [
            (
                Mat([[Fraction(1, 3), 0], [1, Fraction(1, 7)]]),
                Mat([[Fraction(1, 6), 0], [1, Fraction(1, 7)]]),
                "determinant ratio",
            ),
            (
                Mat([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
                Mat([[Fraction(1, 4), 0], [0, Fraction(2, 3)]]),
                "not integral",
            ),
        ],
        ids=["determinant-ratio", "non-integral"],
    )
    def test_rational_mismatch_rejected(self, x, x2, reason):
        with pytest.raises(LatticeMismatchError, match=reason):
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


class TestKernels:
    def test_integer_kernel(self):
        m = Mat([[1, 1, 0], [0, 0, 1]])
        basis = integer_kernel(m.int_entries(), 3)
        assert basis == [(-1, 1, 0)]
        for v in basis:
            assert m.mul_vec(v) == (0, 0)
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
    @given(st.fractions(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_bracketing(self, x):
        up = sqrt_upper(x)
        assert x <= up * up

    def test_floor_sqrt(self):
        # Ellipsoid.int_box_bounds is floor(sqrt((A^-1)_jj)), from A^-1 = R / p
        e = Ellipsoid(Mat([[Fraction(10, 89), 0], [0, Fraction(10, 91)]]))
        assert e.int_box_bounds() == (2, 3)
        assert Ellipsoid(Mat([[Fraction(1, 4)]])).int_box_bounds() == (2,)
        form = [[Fraction(x, 50) for x in row] for row in ((5, 2, 0), (2, 4, 1), (0, 1, 3))]
        inv = fraction_inverse(form)
        want = tuple(math.isqrt(math.floor(inv[j][j])) for j in range(3))
        assert Ellipsoid(Mat(form)).int_box_bounds() == want

    def test_exact_square(self):
        assert 2 <= sqrt_upper(Fraction(4))


def test_vec_dot_dimension_error():
    with pytest.raises(DimensionError):
        vec_dot((1, 2), (1, 2, 3))


IMMUTABLE = [
    (identity(2), "rows"),
    (PointSet(1, [((), 0, 0)]), "runs"),
    (Ellipsoid(identity(2)), "form"),
    (ConvexBody.box([1, 1]), "kind"),
    (UnimodularMat([[1, 0], [0, 1]]), "int_rows"),
]


@pytest.mark.parametrize("obj, attr", IMMUTABLE, ids=[type(obj).__name__ for obj, _ in IMMUTABLE])
def test_attribute_assignment_raises(obj, attr):
    with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
        setattr(obj, attr, None)
