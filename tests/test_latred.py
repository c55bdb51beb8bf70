import itertools
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gapcover.cover
import gapcover.latred

from gapcover.errors import DimensionError, LatticeMismatchError, RankError
from gapcover.cover import cover
from gapcover.exactalg import Mat, UnimodularMat, Vector, _int_inverse, det, inverse
from gapcover.harness import gen_random
from gapcover.geomcore import Ellipsoid, circumscribe_parallelotope
from gapcover.latred import certify_reduction, lll_reduce

from _oracles import (
    fraction_det,
    fraction_inverse,
    fraction_rank,
    gram_schmidt,
    hnf,
    identity,
    lll_recompute,
    norm_sq,
    shortest_basis_2d,
)

MINIMA_MAX_DIM = 4


def gram(rows):
    """The Gram matrix B B^T of integer rows."""
    return [[sum(map(operator.mul, a, b)) for b in rows] for a in rows]


def reduce_mat(basis: Mat):
    """lll_reduce of the rows of a square rational matrix, passed as the
    Gram matrix of its integer rows over their common denominator: (the
    reduced Mat T @ basis, T)."""
    t = lll_reduce(gram(basis.num))
    return Mat(t.int_rows) @ basis, t


def norm_product_sq(basis: Mat) -> Fraction:
    """prod ||b_j||^2 over the rows of a square rational matrix, from
    certify_reduction with T = I on the Gram matrix of its integer rows over
    den^2."""
    d = basis.rows
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    t = UnimodularMat(unit, unit)
    return math.prod(certify_reduction(t, gram(basis.num), basis.den**2))


def defect_sq(basis: Mat) -> Fraction:
    """The squared orthogonality defect prod ||b_j||^2 / det(basis)^2."""
    return norm_product_sq(basis) / det(basis) ** 2


def successive_minima_bruteforce(basis: Mat) -> list[Vector]:
    """Lattice vectors realizing the successive minima, by exhaustive search.

    Only for dim <= 4.  The basis is LLL-reduced first, giving rows b_i and
    the search radius R = max_i ||b_i||, which reaches the last minimum since
    the b_i are d independent lattice vectors, so lambda_d <= max_i ||b_i||.
    Candidates come from a single exhaustive scan of the coefficient box
    |m_i| <= floor(U_i) + 1, where U_i is a rational upper bound on
    R * ||col_i(B^-1)||; by Cauchy-Schwarz on m_i = <v, col_i(B^-1)> the box
    holds every v = sum m_i b_i with ||v|| <= R.  On LLL-reduced 4-D bases
    with entries in [-4, 4] the box holds 625 to 1125 points.  The scan
    keeps the vectors with ||v||^2 <= R^2, one of each +-pair, sorted by
    (||v||^2, m).  Vectors are then picked greedily in that order subject to
    linear independence, so they are returned in nondecreasing norm.
    """
    d = basis.rows
    if d > MINIMA_MAX_DIM:
        raise ValueError(f"brute-force minima limited to dim <= {MINIMA_MAX_DIM}")
    reduced, _ = reduce_mat(basis)
    rows = reduced.entries
    radius_sq = max(norm_sq(v) for v in rows)

    inv = inverse(reduced)
    bounds = []
    for i in range(d):
        col = [row[i] for row in inv.entries]
        bound_sq = radius_sq * norm_sq(col)
        bounds.append(math.isqrt(math.ceil(bound_sq)) + 1)

    candidates = []
    for coeffs in itertools.product(*(range(-b, b + 1) for b in bounds)):
        first_nonzero = next((c for c in coeffs if c != 0), 0)
        if first_nonzero <= 0:  # skip 0 and one of each +-pair
            continue
        v = tuple(
            sum(coeffs[i] * rows[i][j] for i in range(d)) for j in range(d)
        )
        q = norm_sq(v)
        if q <= radius_sq:
            candidates.append((q, coeffs, v))
    candidates.sort(key=lambda item: (item[0], item[1]))

    chosen: list[Vector] = []
    chosen_rows: list[list[Fraction]] = []
    for q, _, v in candidates:
        trial = chosen_rows + [list(v)]
        if fraction_rank(trial) == len(trial):
            chosen.append(v)
            chosen_rows = trial
            if len(chosen) == d:
                break
    if len(chosen) < d:
        raise RankError("search radius failed to produce d independent vectors")
    return chosen


def lattices_equal(a: Mat, b: Mat) -> bool:
    """Oracle: scale to integer matrices with one common factor, compare HNFs."""
    den = 1
    for m in (a, b):
        for row in m.entries:
            for x in row:
                den = den * x.denominator // __import__("math").gcd(den, x.denominator)
    return hnf(a.scale(den))[0] == hnf(b.scale(den))[0]


def basis_strategy(max_dim=4, bound=25):
    def build(n):
        return st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    return st.integers(2, max_dim).flatmap(build)


class TestLll:
    def test_identity(self):
        b = Mat([(1, 0), (0, 1)])
        v, t = reduce_mat(b)
        assert v == b
        assert Mat(t.int_rows) == identity(2)

    def test_size_reduction_shear(self):
        b = Mat([(1, 0), (4, 1)])
        v, t = reduce_mat(b)
        assert v.entries == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        assert Mat(t.int_rows) == Mat([[1, 0], [-4, 1]])
        assert Mat(t.int_rows) @ b == v

    def test_finds_short_basis(self):
        rows = ((1, 1), (0, 2))
        b = Mat(rows)
        v, t = reduce_mat(b)
        for vec in v.entries:
            assert norm_sq(vec) <= 2
        # exhaustive oracle: the two shortest independent vectors have norms^2 (2, 2)
        q1, q2 = shortest_basis_2d(rows)
        assert {norm_sq(v.entries[0]), norm_sq(v.entries[1])} <= {q1, q2} | {q1} | {q2}
        assert norm_sq(v.entries[0]) == q1

    def test_lovasz_and_size_reduction_hold(self):
        b = Mat([(12, 2, 17), (4, -9, 3), (5, 5, 5)])
        v, _ = reduce_mat(b)
        rows = [list(r) for r in v.entries]
        ortho, mu = gram_schmidt(rows)
        d = len(rows)
        delta = Fraction(99, 100)
        for i in range(d):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, d):
            lhs = norm_sq(ortho[k])
            rhs = (delta - mu[k][k - 1] ** 2) * norm_sq(ortho[k - 1])
            assert lhs >= rhs

    @given(basis_strategy())
    @settings(max_examples=40, deadline=None)
    def test_lattice_preserved_and_bound(self, rows):
        b = Mat(rows)
        if det(b) == 0:
            return
        v, t = reduce_mat(b)
        assert Mat(t.int_rows) @ b == v
        assert lattices_equal(b, v)
        assert abs(det(v)) == abs(det(b))
        d = b.rows
        # the squared defect of an LLL-reduced basis, delta = 99/100, is at
        # most 2^(d(d-1)/2)
        assert defect_sq(v) <= Fraction(2) ** Fraction(d * (d - 1), 2)

    def test_wrong_transform_raises(self, monkeypatch):
        # T's certificate, T T^-1 = I with the inverse that LLL carries, is
        # checked by UnimodularMat as a raised error, not an assert that
        # python -O strips
        real = gapcover.latred.UnimodularMat

        def perturbed(rows, inverse):
            rows[0][0] += 1
            return real(rows, inverse)

        monkeypatch.setattr(gapcover.latred, "UnimodularMat", perturbed)
        with pytest.raises(LatticeMismatchError, match="claimed inverse"):
            lll_reduce(gram([(1, 0), (4, 1)]))

    def test_dependent_rows_rejected(self):
        # the Gram pass finds dd[i] <= 0 for a singular or an indefinite
        # Gram matrix; no determinant is taken first
        for rows in ([[1, 2], [2, 4]], [[0, 0], [1, 1]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
            with pytest.raises(RankError, match="not positive definite"):
                lll_reduce(gram(rows))
        for g in ([[-1]], [[1, 2], [2, 1]], [[2, 1, 0], [1, 2, 0], [0, 0, -3]]):
            with pytest.raises(RankError, match="not positive definite"):
                lll_reduce(g)

    def test_non_square_rejected(self):
        for g in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[1], [0, 1]]):
            with pytest.raises(DimensionError):
                lll_reduce(g)

    def test_rational_entries(self):
        b = Mat([(Fraction(1, 3), 0), (Fraction(5, 2), Fraction(1, 7))])
        v, t = reduce_mat(b)
        assert Mat(t.int_rows) @ b == v
        assert lattices_equal(b, v)


@st.composite
def rational_bases(draw):
    """Nonsingular rational d x d bases, d = 1..6, half of them integer
    bases.  Half of them are skewed by a chain of unimodular shears
    row_i += m * row_(i-1), which LLL has to undo with many swaps."""
    d = draw(st.integers(1, 6))
    bound = draw(st.sampled_from([3, 60, 10**5]))
    entry = st.builds(Fraction, st.integers(-bound, bound), st.integers(1, draw(st.sampled_from([1, 9]))))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    if draw(st.booleans()):
        m = draw(st.integers(2, 50))
        for i in range(1, d):
            rows[i] = [a + m * b for a, b in zip(rows[i], rows[i - 1])]
    assume(det(Mat(rows)) != 0)
    return rows


def assert_same_as_recompute(rows, g=None):
    """lll_reduce rounds the same mu_kj values as the oracle, in the same
    order, and returns its T exactly, with T @ rows the oracle's reduced
    rows; returns the oracle's swap count.  The basis is given by its rows,
    or with rows None by its integer Gram matrix g alone.  A wrong update
    makes the entries blow up within a few steps, so each value is compared
    as it is rounded and the run stops at the first difference."""
    want_rows, want_t, swaps, want_rounded = lll_recompute(rows, gram=g)
    rounded = []
    round_half_up = gapcover.latred._round_half_up

    def checked(num, den):
        x = Fraction(num, den)
        assert len(rounded) < len(want_rounded), "more roundings than the oracle"
        assert x == want_rounded[len(rounded)], f"mu differs at rounding {len(rounded)}"
        rounded.append(x)
        return round_half_up(num, den)

    with mock.patch.object(gapcover.latred, "_round_half_up", checked):
        t = lll_reduce(gram(Mat(rows).num) if g is None else g)
    assert rounded == want_rounded
    assert t.int_rows == want_t
    assert_carries_inverse(t)
    if rows is not None:
        assert (Mat(t.int_rows) @ Mat(rows)).entries == want_rows
    return swaps


def assert_carries_inverse(t):
    """The inverse that LLL built beside T by mirrored column operations is
    T^-1: T T^-1 = I, and it equals a fresh fraction-free inverse of T."""
    inv = t.inverse()
    assert Mat(t.int_rows) @ Mat(inv.int_rows) == identity(t.dim)
    r, p = _int_inverse(t.int_rows)
    assert abs(p) == 1
    assert inv.int_rows == tuple(tuple(x * p for x in row) for row in r)
    assert inv.inverse().int_rows == t.int_rows


class _Captured(Exception):
    pass


class TestLllMatchesRecompute:
    """The in-place swap update of mu and ||b*_i||^2 must make every
    decision a full Gram-Schmidt recomputation makes."""

    @given(rational_bases())
    @settings(max_examples=80, deadline=None)
    def test_random_rational_bases(self, rows):
        assert_same_as_recompute(rows)

    def test_many_swaps(self):
        # knapsack-style basis: the reduction takes 44 swaps
        rows = [
            [int(i == j) for j in range(5)] + [a]
            for i, a in enumerate((10**6, 777_777, 555_553, 313_131, 271_828))
        ] + [[0] * 5 + [3]]
        assert assert_same_as_recompute(rows) >= 20

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize(
        "kind, kw",
        [("lattice-ball", {}), ("random-ellipsoid", {"scale": 1}), ("random-vertices", {})],
        ids=["lattice-ball", "random-ellipsoid", "random-vertices"],
    )
    def test_pipeline_generator_matrices(self, kind, kw, d, monkeypatch):
        # the generators of the parallelotope enter LLL as their Gram
        # matrix, the integer dual form R = p A^-1 that cover() hands on for
        # the seed-0 instance; cover stops there
        grams = []

        def record(g, *args):
            grams.append(g)
            raise _Captured

        monkeypatch.setattr(gapcover.cover, "lll_reduce", record)
        with pytest.raises(_Captured):
            cover(gen_random(kind, d, 0, **kw).body)
        assert_same_as_recompute(None, [list(row) for row in grams[0]])


@given(rational_bases(), st.integers(2, 10**9))
@settings(max_examples=40, deadline=None)
def test_scaled_basis_same_transform(rows, c):
    # a rational Gram matrix reaches lll_reduce as its numerators over a
    # common denominator, i.e. scaled; scaling changes no decision, so
    # c * gram gives the same T, and so does the basis c * B
    reduced, t = reduce_mat(Mat(rows))
    g = gram(Mat(rows).num)
    assert lll_reduce([[c * x for x in row] for row in g]) == t
    reduced_c, t_c = reduce_mat(Mat([[c * x for x in row] for row in rows]))
    assert t_c == t
    assert reduced_c == reduced.scale(c)


@st.composite
def definite_forms(draw):
    """Positive-definite rational forms B B^T, d = 1..5, B nonsingular with
    entries n / m, |n| <= 6 and 1 <= m <= 9."""
    d = draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 9))
    b = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(fraction_det(b) != 0)
    return Mat(b) @ Mat(b).transpose()


@given(definite_forms())
@settings(max_examples=40, deadline=None)
def test_integer_handoff_matches_rational_matrices(form):
    # the dual form reaches LLL as integers R over p > 0: exactly the
    # rational A^-1 cleared, with |Q|^2 det A = 4^d, the T of the oracle on
    # the rational Gram matrix A^-1, and the squared widths t_j A^-1 t_j^T
    e = Ellipsoid(form)
    r, p, vol_sq = circumscribe_parallelotope(e)
    a_inv = fraction_inverse(form.entries)
    assert p > 0
    assert tuple(tuple(Fraction(x, p) for x in row) for row in r) == tuple(map(tuple, a_inv))
    assert vol_sq * det(form) == 4**e.dim
    t = lll_reduce(r)
    _, want_t, _, _ = lll_recompute(None, gram=a_inv)
    assert t.int_rows == want_t
    widths_sq = tuple(sum(a * b for a, b in zip(tj, (sum(x * y for x, y in zip(row, tj)) for row in a_inv))) for tj in want_t)
    assert certify_reduction(t, r, p) == widths_sq


class TestCertify:
    # certify_reduction's squared lengths, over det^2: the squared
    # orthogonality defect, exactly

    def test_identity_ratio_one(self):
        b = Mat([(1, 0), (0, 1)])
        assert norm_product_sq(b) == 1
        assert defect_sq(b) == 1

    def test_sqrt2_ratio(self):
        b = Mat([(1, 0), (1, 1)])
        assert norm_product_sq(b) == 2
        assert defect_sq(b) == 2

    def test_unreduced_flagged(self):
        assert defect_sq(Mat([(1, 0), (100, 1)])) == 10001

    def test_hadamard_lower_bound(self):
        for rows in [((3, 1), (1, 2)), ((5, 0, 0), (1, 1, 0), (2, 3, 4)), ((Fraction(1, 3), 1), (2, Fraction(5, 7)))]:
            assert defect_sq(Mat(rows)) >= 1


class TestSuccessiveMinima:
    def test_identity(self):
        mins = successive_minima_bruteforce(Mat([(1, 0), (0, 1)]))
        assert sorted(norm_sq(v) for v in mins) == [1, 1]

    def test_sheared_is_standard(self):
        mins = successive_minima_bruteforce(Mat([(1, 0), (4, 1)]))
        assert sorted(norm_sq(v) for v in mins) == [1, 1]

    def test_rectangular(self):
        mins = successive_minima_bruteforce(Mat([(2, 0), (0, 3)]))
        assert sorted(norm_sq(v) for v in mins) == [4, 9]

    def test_dimension_cap(self):
        rows = [[int(i == j) for j in range(5)] for i in range(5)]
        with pytest.raises(ValueError, match="limited to dim <= 4"):
            successive_minima_bruteforce(Mat(rows))

    def test_independent(self):
        mins = successive_minima_bruteforce(Mat([(2, 1, 0), (1, 2, 0), (0, 0, 5)]))
        assert fraction_rank(mins) == 3
        assert norm_sq(mins[0]) <= norm_sq(mins[1]) <= norm_sq(mins[2])

    @given(basis_strategy(max_dim=3, bound=6))
    @settings(max_examples=20, deadline=None)
    def test_cross_check_with_lll(self, rows):
        b = Mat(rows)
        if det(b) == 0:
            return
        mins = successive_minima_bruteforce(b)
        reduced, _ = reduce_mat(b)
        prod_sq = norm_product_sq(reduced)
        prod_min_sq = Fraction(1)
        for v in mins:
            prod_min_sq *= norm_sq(v)
        d = b.rows
        # minima product <= reduced norm product <= LLL factor * minima product
        assert prod_min_sq <= prod_sq
        assert prod_sq <= Fraction(2) ** Fraction(d * (d - 1), 2) * prod_min_sq

    @given(basis_strategy(max_dim=2, bound=25))
    @settings(max_examples=100, deadline=None)
    def test_minima_match_2d_oracle(self, rows):
        # exact minima, not merely short independent vectors: the exhaustive
        # 2-D oracle on the LLL-reduced rows, where coefficients up to 4 suffice
        b = Mat(rows)
        if det(b) == 0:
            return
        mins = successive_minima_bruteforce(b)
        reduced, _ = reduce_mat(b)
        assert [norm_sq(v) for v in mins] == list(shortest_basis_2d(reduced.entries))

    def test_minkowski_lower_bound(self):
        # prod lambda_i >= c_d |det| with explicit rational c_d understating
        # 2^d / (d! omega_d): c_1=1, c_2=63/100, c_3=31/100, c_4=13/100
        cds = {1: Fraction(1), 2: Fraction(63, 100), 3: Fraction(31, 100), 4: Fraction(13, 100)}
        cases = [
            ((3,),),
            ((2, 1), (1, 3)),
            ((1, 0, 0), (2, 3, 0), (4, 5, 6)),
            ((1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 3, 0), (1, 1, 1, 2)),
        ]
        for rows in cases:
            b = Mat(rows)
            d = b.rows
            mins = successive_minima_bruteforce(b)
            prod_sq = Fraction(1)
            for v in mins:
                prod_sq *= norm_sq(v)
            assert prod_sq >= (cds[d] * abs(det(b))) ** 2
