import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gapcover.geomcore
from gapcover.errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    RankError,
)
from gapcover.cover import cover
from gapcover.enumeration import enum_body
from gapcover.exactalg import Mat, _span_rank, det, inverse
from gapcover.geomcore import (
    MVEE_EPS,
    ConvexBody,
    Ellipsoid,
    circumscribe_parallelotope,
    hull_line_extent,
    mvee,
)
from gapcover.harness import gen_random
from gapcover.latred import certify_reduction, lll_reduce

from _oracles import (
    ellipsoid_volume,
    exact_halfwidths,
    fraction_det,
    fraction_inverse,
    fraction_rank,
    grid_mvee_volume_2d,
    grid_mvee_volume_3d,
    hull_facets_reference,
    identity,
    khachiyan_loop,
    khachiyan_reference,
    parallelotope_contains,
)


class TestEllipsoid:
    def test_validation(self):
        with pytest.raises(DimensionError):
            Ellipsoid(Mat([[1, 2], [3, 1]]))  # not symmetric
        with pytest.raises(RankError):
            Ellipsoid(Mat([[1, 0], [0, -1]]))  # not positive definite

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_accepts_iff_leading_minors_positive(self, data):
        # Sylvester's criterion against the Fraction determinant of each
        # leading minor; M M^T + s I is definite, semidefinite or
        # indefinite depending on the shift s
        small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 1000))
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
        shift = data.draw(st.builds(Fraction, st.integers(-20, 20), st.integers(1, 1000)))
        form = [[sum(a * b for a, b in zip(m[i], m[j])) + shift * (i == j) for j in range(n)] for i in range(n)]
        if all(fraction_det([row[:k] for row in form[:k]]) > 0 for k in range(1, n + 1)):
            assert Ellipsoid(Mat(form)).form == Mat(form)
        else:
            with pytest.raises(RankError, match="not positive definite"):
                Ellipsoid(Mat(form))

    def test_membership_and_support(self):
        e = Ellipsoid(Mat([[Fraction(1, 4), 0], [0, 1]]))
        assert e.contains((2, 0))
        assert e.contains((0, 1))
        assert not e.contains((2, 1))
        # squared support in direction (1, 0): (A^-1)_00
        assert inverse(e.form).entries[0][0] == 4
        body = ConvexBody.from_ellipsoid(e)
        assert body.int_box_bounds() == (2, 1)
        # floor(sqrt((1, 1) A^-1 (1, 1)^T)) = floor(sqrt(5))
        assert body.int_support((1, 1)) == body.int_support((-1, -1)) == 2


class TestMvee:
    def test_cross_polytope_gives_disk(self):
        e = mvee([(1, 0), (0, 1)])
        # symmetry forces a disk; exact containment of both generators
        assert e.quad((1, 0)) <= 1
        assert e.quad((0, 1)) <= 1
        vol = ellipsoid_volume(e.form.entries, 2)
        oracle = grid_mvee_volume_2d([(1, 0), (0, 1)])
        assert vol <= 1.02 * oracle

    def test_square_corners_give_radius_sqrt2(self):
        e = mvee([(1, 1), (1, -1)])
        assert e.quad((1, 1)) <= 1
        assert e.quad((1, -1)) <= 1
        # disk of squared radius 2: form approx I/2, det approx 1/4
        det = (
            e.form.entries[0][0] * e.form.entries[1][1]
            - e.form.entries[0][1] * e.form.entries[1][0]
        )
        assert abs(float(det) - 0.25) < 0.01

    def test_dim1_interval(self):
        e = mvee([(1,)])
        assert e.form == Mat([[1]])

    def test_dim1_is_exact_past_the_rationalization_cap(self):
        # 1 / 10^12 has no approximation with denominator <= 10^9 but 0
        assert mvee([(10**6,)]).form == Mat([[Fraction(1, 10**12)]])
        assert mvee([(Fraction(3, 2),), (-1,)]).form == Mat([[Fraction(4, 9)]])

    def test_under_resolved_form_names_the_stage(self):
        # A[0][0] ~ 1.4e-10 rounds to 0 at denominators <= 10^9
        with pytest.raises(ConvergenceError, match=r"mvee.*1000000000.*entry \(0, 0\)"):
            mvee([(60000, 0), (0, 1)])

    def test_degenerate_raises(self):
        with pytest.raises(RankError):
            mvee([(1, 0), (2, 0)])

    def test_max_iter_exhausted(self):
        with pytest.raises(ConvergenceError, match="within 1 iterations"):
            mvee([(3, 1), (1, 2), (-1, 3)], max_iter=1)

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            mvee([(1, 0), (0, 1, 0)])

    def test_empty_set(self):
        with pytest.raises(RankError, match="empty"):
            mvee([])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, data):
        # the same exact form, or the same error, at the pipeline's tolerance
        d = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(d, 8))
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        pts = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
        try:
            expected = khachiyan_reference(pts, MVEE_EPS)
        except (RankError, ConvergenceError) as exc:
            with pytest.raises(type(exc)):
                mvee(pts)
        else:
            assert mvee(pts).form == Mat(expected)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_reference_loop_bitwise(self, data):
        # every entry of M^-1 by float.hex, from the same start; a third of
        # the coordinates are 0, and a small max_iter often runs out
        d = data.draw(st.integers(2, 7))
        n = data.draw(st.integers(d, d + 3))
        coord = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5))
        pts = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
        assume(fraction_rank(pts) == d)
        eps = data.draw(st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1, 3)]))
        max_iter = data.draw(st.sampled_from([1, 4, 30, 400]))
        m = [[sum(p[i] * p[k] for p in pts) / n for k in range(d)] for i in range(d)]
        m_inv = [[float(x) for x in row] for row in fraction_inverse(m)]
        xs = [tuple(map(float, p)) for p in pts]
        target = d * (1.0 + float(eps))
        got = gapcover.geomcore._khachiyan_kernel(d)(m_inv, xs, target, max_iter)
        expected = khachiyan_loop(m_inv, xs, target, max_iter)
        if expected is None:
            assert got is None
        else:
            assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in expected]

    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=2,
            max_size=7,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_containment_random(self, pts):
        if _span_rank(pts, 2) < 2:
            return
        e = mvee(pts)
        for p in pts:
            assert e.quad(p) <= 1
            assert e.quad(tuple(-c for c in p)) <= 1

    def test_quality_2d_random(self):
        sets = [
            [(3, 1), (1, 2), (-1, 3)],
            [(5, 0), (4, 3), (0, 2)],
            [(2, 2), (3, -1)],
        ]
        for pts in sets:
            e = mvee(pts)
            vol = ellipsoid_volume(e.form.entries, 2)
            oracle = grid_mvee_volume_2d(pts)
            assert vol <= (1 + 2 * 0.01) * oracle

    def test_quality_3d_coarse(self):
        pts = [(2, 0, 1), (0, 3, 0), (1, 1, 2)]
        e = mvee(pts)
        vol = ellipsoid_volume(e.form.entries, 3)
        oracle = grid_mvee_volume_3d(pts)
        assert vol <= (1 + 2 * 0.01) * oracle


def dual_form(e):
    """circumscribe_parallelotope's (A^-1 = R / p as a Mat, |Q|^2), p > 0."""
    r, p, vol_sq = circumscribe_parallelotope(e)
    assert p > 0
    return Mat(r, p), vol_sq


class TestCircumscribe:
    def test_unit_disk_square(self):
        # Q is the square [-1, 1]^2
        a_inv, vol_sq = dual_form(Ellipsoid(identity(2)))
        assert a_inv == identity(2)
        assert vol_sq == 16

    def test_axis_aligned_ellipse(self):
        a_inv, vol_sq = dual_form(Ellipsoid(Mat([[Fraction(1, 4), 0], [0, 1]])))
        assert a_inv == Mat([[4, 0], [0, 1]])
        assert vol_sq == 64

    def test_unit_ball(self):
        a_inv, vol_sq = dual_form(Ellipsoid(identity(3)))
        assert a_inv == identity(3)
        assert vol_sq == 64

    def test_volume_matches_determinant(self):
        # |Q|^2 = 4^d / det A, exactly: no root is rounded
        for form in (Mat([[2, 1], [1, 3]]), Mat([[5, 2, 0], [2, 4, 1], [0, 1, 3]]), Mat([[Fraction(1, 9), 0], [0, 4]])):
            e = Ellipsoid(form)
            a_inv, vol_sq = dual_form(e)
            assert a_inv == inverse(form)
            assert vol_sq * det(form) == 4**e.dim

    def test_boundary_points_inside_random_forms(self):
        # the reduced parallelotope Q' = {x : |t_j . x| <= h_E(t_j)}, t_j the
        # rows of the T that LLL returns on R and h_E(t_j)^2 the certificate's
        # squared widths, holds the boundary point x = c / sqrt(c^T A c) of
        # each direction c: (t_j . c)^2 <= h_E(t_j)^2 c^T A c, in squares
        forms = [
            Mat([[2, 1], [1, 3]]),
            Mat([[Fraction(1, 9), 0], [0, 4]]),
            Mat([[5, 2, 0], [2, 4, 1], [0, 1, 3]]),
        ]
        directions = [(1, 0), (0, 1), (1, 1), (2, -1)]
        for form in forms:
            e = Ellipsoid(form)
            r, p, _ = circumscribe_parallelotope(e)
            t = lll_reduce(r)
            widths_sq = certify_reduction(t, r, p)
            for c in directions[: e.dim + 1]:
                c = c + (0,) * (e.dim - len(c))
                for tj, w_sq in zip(t.int_rows, widths_sq):
                    assert sum(a * b for a, b in zip(tj, c)) ** 2 <= w_sq * e.quad(c)


def line_extent(body, prefix):
    """hull_line_extent on the line through prefix, given the facet sums
    N.(prefix, 0) it takes, with the two ends as Fractions."""
    sums = [sum(a * x for a, x in zip(normal, prefix)) for normal, _ in body.hull_facets()]
    span = hull_line_extent(body, sums)
    return None if span is None else tuple(Fraction(*end) for end in span)


@st.composite
def vertex_point_sets(draw):
    """1 to 7 points in d = 1..4 (at most 6 at d = 4) with small rational
    coordinates; in about half the draws at d >= 2 one coordinate is an
    integer combination of two others, so the points span a proper
    subspace and the search runs on pivot columns J other than the first
    r."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6 if d == 4 else 7))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3]))
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    if d > 1 and draw(st.booleans()):
        j = draw(st.integers(0, d - 1))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        for p in pts:
            p[j] = a * p[j - 1] + b * p[(j + 1) % d]
    return pts


class TestBodiesAndMembership:
    def test_box_membership_boundary(self):
        b = ConvexBody.box([1, 1])
        assert b.contains((1, 1))
        assert not b.contains((Fraction(3, 2), 0))

    def test_disk_membership(self):
        b = ConvexBody.from_ellipsoid(Ellipsoid(identity(2)))
        assert not b.contains((1, 1))
        assert b.contains((1, 0))

    def test_hull_membership_lp(self):
        b = ConvexBody.vertices([(2, 1), (1, 2)])
        # (1,1) = (1/3)(2,1) + (1/3)(1,2), coefficient sum 2/3 <= 1
        assert b.contains((1, 1))
        assert b.contains((2, 1))
        assert not b.contains((2, 2))
        assert not b.contains((3, 0))

    def test_hull_symmetry(self):
        b = ConvexBody.vertices([(2, 1), (1, 2)])
        assert b.contains((-1, -1))
        assert b.contains((-2, -1))

    def test_line_extent(self):
        body = ConvexBody.vertices([(Fraction(2), Fraction(1)), (Fraction(1), Fraction(2))])
        ext = line_extent(body, (0,))
        assert ext is not None
        lo, hi = ext
        # x=0 slice of conv(±{(2,1),(1,2)}): segment between (0,-1) and (0,1)
        assert lo == -1 and hi == 1
        assert line_extent(body, (3,)) is None

    def test_line_extent_segment(self):
        # conv(±(2, 2)) is the diagonal from (-2, -2) to (2, 2)
        body = ConvexBody.vertices([(2, 2)])
        for x in range(-2, 3):
            assert line_extent(body, (x,)) == (x, x)
        assert line_extent(body, (Fraction(1, 2),)) == (Fraction(1, 2), Fraction(1, 2))
        assert line_extent(body, (3,)) is None
        assert body.contains((1, 1))
        assert not body.contains((1, 0))

    def test_line_extent_1d(self):
        body = ConvexBody.vertices([(3,)])
        assert line_extent(body, ()) == (-3, 3)
        assert body.contains((3,))
        assert not body.contains((Fraction(7, 2),))

    def test_zero_vertex(self):
        body = ConvexBody.vertices([(0, 0)])
        assert line_extent(body, (0,)) == (0, 0)
        assert line_extent(body, (1,)) is None
        assert body.contains((0, 0))
        assert not body.contains((0, Fraction(1, 5)))

    def test_collinear_3d(self):
        # all three points lie on the line through (1, 2, 3)
        body = ConvexBody.vertices([(1, 2, 3), (2, 4, 6), (Fraction(1, 2), 1, Fraction(3, 2))])
        assert line_extent(body, (1, 2)) == (3, 3)
        assert line_extent(body, (1, 1)) is None
        assert line_extent(body, (3, 6)) is None
        assert body.contains((-2, -4, -6))
        assert not body.contains((1, 2, 4))

    def test_coplanar_3d(self):
        # a hexagon in the plane z = x + y
        body = ConvexBody.vertices([(1, 0, 1), (0, 1, 1), (1, -1, 0)])
        assert line_extent(body, (1, 0)) == (1, 1)
        assert line_extent(body, (1, 1)) is None
        assert body.contains((Fraction(1, 2), Fraction(1, 2), 1))
        assert not body.contains((Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)))
        assert not body.contains((1, 1, 2))

    def test_facets_skip_dependent_first_coordinate(self):
        # x_1 = 0 on the body, so J = {2, 3}: the kernel row, then the
        # facets in candidate order
        body = ConvexBody.vertices([(0, 1, 1), (0, 1, 2)])
        assert body.hull_facets() == (((1, 0, 0), 0), ((0, 1, 0), 1), ((0, 3, -2), 1))

    def test_facet_budget(self):
        # 12 points of rank 3: C(12, 3) * 2^2 = 880 facet candidates
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
               (1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 1, 1), (1, -1, 1), (1, 1, -1)]
        with pytest.raises(BudgetError, match="facet stage: 880 candidate"):
            ConvexBody.vertices(pts).hull_facets(cap=879)
        assert ConvexBody.vertices(pts).hull_facets(cap=880)

    @given(vertex_point_sets())
    @settings(max_examples=200, deadline=None)
    def test_facets_match_cramer_reference(self, pts):
        # the same rows in the same order as r + 1 determinants per candidate
        assert ConvexBody.vertices(pts).hull_facets() == hull_facets_reference(pts)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_generated_facets_match_cramer_reference(self, dim):
        for seed in range(6):
            body = gen_random("random-vertices", dim, seed, num_points=dim + 3).body
            assert body.hull_facets() == hull_facets_reference(body.points)

    def test_spanning_points_box(self):
        b = ConvexBody.box([1, 2])
        assert set(b.spanning_points().entries) == {(1, 2), (1, -2), (-1, 2), (-1, -2)}

    def test_exact_halfwidths(self):
        b = ConvexBody.vertices([(2, 1), (1, -3)])
        assert exact_halfwidths(b) == (2, 3)
        assert b.int_box_bounds() == (2, 3)

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.fractions(-7, 7, max_denominator=12)] * d), min_size=1, max_size=4
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_int_box_bounds_floor_exact_halfwidths(self, points):
        # the cleared-integer bounds are the floors of the exact extents
        b = ConvexBody.vertices(points)
        assert b.int_box_bounds() == tuple(math.floor(h) for h in exact_halfwidths(b))


class TestParallelotope:
    """The parallelotope as the pipeline hands it on, (A^-1, |Q|^2), and the
    oracle membership test in a parallelotope {G lam : |lam_i| <= 1}, the
    generators the columns of G, that the progression test below uses."""

    def test_contains_unit_square(self):
        g = [(1, 0), (0, 1)]
        assert parallelotope_contains(g, (1, 1))
        assert not parallelotope_contains(g, (Fraction(3, 2), 0))

    def test_contains_sheared(self):
        g = [(1, 1), (0, 2)]  # generators (1, 0) and (1, 2)
        assert parallelotope_contains(g, (2, 2))  # lambda = (1, 1)
        assert not parallelotope_contains(g, (3, 2))

    def test_volume(self):
        # circumscribe_parallelotope's |Q|^2 is 4^d det A^-1, d = 1..4
        forms = [
            [[Fraction(1, 7)]],
            [["17/8", "13/16"], ["13/16", "5/16"]],
            [[3, 1, 0], [1, 2, 1], [0, 1, 5]],
            [[4, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 0], [1, 0, 0, 6]],
        ]
        for form in forms:
            a_inv, vol_sq = dual_form(Ellipsoid(Mat(form)))
            assert vol_sq == 4**a_inv.rows * fraction_det(a_inv.entries)

    @pytest.mark.parametrize(
        "body",
        [
            ConvexBody.from_ellipsoid(Ellipsoid(identity(2).scale(Fraction(1, 4)))),
            ConvexBody.from_ellipsoid(Ellipsoid((Mat([[5, 3], [2, 1]]) @ Mat([[5, 2], [3, 1]])).scale(Fraction(1, 16)))),
            ConvexBody.vertices([(3, 1), (1, 3), (2, -2)]),
            ConvexBody.box([Fraction(5, 2), 1, Fraction(7, 3)]),
        ],
        ids=["disk", "skewed", "vertices", "box"],
    )
    def test_progression_parallelotope_holds_c(self, body):
        # C lies in the parallelotope spanned by the n_j v_j of cover's
        # progression: |t_j . x| <= h_K(t_j) on the body, by construction
        gap, _ = cover(body)
        gens = [[n * v[i] for v, n in zip(gap.diffs, gap.halfsides)] for i in range(body.dim)]
        assert all(parallelotope_contains(gens, x) for x in enum_body(body))
