import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapcover.errors import (
    BudgetError,
    DimensionError,
    RankError,
)
import gapcover.exactalg

from gapcover.cover import cover, restrict_to_span
from gapcover.enumeration import enum_body
from gapcover.exactalg import Mat, _int_inverse, det, inverse
from gapcover.geomcore import (
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
    fraction_rank,
    grid_mvee_volume_2d,
    grid_mvee_volume_3d,
    hull_facets_reference,
    identity,
    moment_reference,
    mvee_reference,
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


def moment_factor(pts):
    """min(g n, d^2)^(d / 2) for n points spanning Q^d (moment_reference):
    a bound on the volume factor between mvee's ellipsoid and the one it
    shrinks to inside conv(±points), g n for the moment form of every
    point and at most d^2 for the basis that replaces it beyond d^2."""
    _, g = moment_reference(pts)
    d = len(pts[0])
    return float(min(g * len(pts), d * d)) ** (d / 2)


def moment_forms(pts):
    """The forms M_S^-1 / g that mvee may return, one for each S of
    mvee_reference."""
    return [Mat(m_inv).scale(1 / g) for m_inv, g in (moment_reference(pts, s) for s in mvee_reference(pts))]


def assert_kept_inverse(e):
    """mvee's kept pair (R, p) is a fresh fraction-free inverse of its form
    as rationals, circumscribe_parallelotope reads it without an inverse
    pass, and it returns the same (R / p, |Q|^2) on a copy of the form
    built without the pair."""
    form = e.form
    r, p = form._inv
    fresh, q = _int_inverse(form.num)  # form^-1 = den * fresh / q
    assert p > 0
    assert Mat(r, p).entries == tuple(tuple(Fraction(form.den * x, q) for x in row) for row in fresh)
    with mock.patch.object(gapcover.exactalg, "_int_inverse", side_effect=AssertionError("inverse pass")):
        kept_r, kept_p, kept_vol = circumscribe_parallelotope(e)
    copy = Ellipsoid(Mat(form.num, form.den))
    assert copy.form._inv is None
    copy_r, copy_p, copy_vol = circumscribe_parallelotope(copy)
    assert (Mat(kept_r, kept_p), kept_vol) == (Mat(copy_r, copy_p), copy_vol)


class TestMvee:
    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[st.fractions(-6, 6, max_denominator=5)] * d), min_size=d, max_size=7),
                st.integers(0, 30),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_kept_inverse_matches_a_fresh_one(self, drawn):
        # A = den^2 R / g with R / q = M^-1 gives A^-1 = g M / (q den^2); a
        # point listed many times makes mvee take a spread basis
        pts, repeats = drawn
        assume(fraction_rank(pts) == len(pts[0]))
        assert_kept_inverse(mvee(pts + [pts[0]] * repeats))

    @pytest.mark.parametrize(
        "points",
        [
            [(100, i) for i in range(60)] + [(0, 1)],
            [(1000, i) for i in range(-40, 41)] + [(3, 7)],
            [(10**4, 0, 0), (0, 1, 0)],
            [(x, 0) for x in range(1, 401)] + [(0, 1)],
        ],
        ids=["fan-60", "fan-81", "restricted-thin", "collinear-interior"],
    )
    def test_kept_inverse_on_crowded_bodies(self, points):
        # the bodies of test_cover's TestStageChain, restricted to their
        # span as cover does; the last two crowd one axis, so that mvee
        # takes a spread basis, the fans take every point
        body = restrict_to_span(ConvexBody.vertices(points)).body
        assert_kept_inverse(mvee(body.spanning_points()))

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
        # disk of squared radius 2: form I/2, det 1/4
        assert e.form == Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])

    def test_dim1_interval(self):
        e = mvee([(1,)])
        assert e.form == Mat([[1]])

    def test_dim1_is_exact_past_the_rationalization_cap(self):
        # den^2 / max p^2, however large p and den are
        assert mvee([(10**6,)]).form == Mat([[Fraction(1, 10**12)]])
        assert mvee([(Fraction(3, 2),), (-1,)]).form == Mat([[Fraction(4, 9)]])

    def test_degenerate_raises(self):
        with pytest.raises(RankError, match="do not span"):
            mvee([(1, 0), (2, 0)])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            mvee([(1, 0), (0, 1, 0)])

    def test_empty_set(self):
        with pytest.raises(RankError, match="empty"):
            mvee([])

    @pytest.mark.parametrize(
        "points, card_c, card_p",
        [([(60000, 0), (0, 1)], 120_003, 360_003), ([(300000, 1), (0, 1)], 900_003, 900_003)],
        ids=["axis", "skew"],
    )
    def test_thin_body_covers(self, points, card_c, card_p):
        # aspect ratios of 6 * 10^4 and 3 * 10^5: the form needs no rounding
        gap, report = cover(ConvexBody.vertices(points))
        assert report.contained
        assert (report.cardinality_C, report.cardinality_P) == (card_c, card_p)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_moment_reference(self, data):
        # the same exact form as the Fraction oracle, or RankError when the
        # points do not span; a point drawn several times weighs the moment
        # form of every point more, up to the basis that replaces it
        d = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 8))
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        pts = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
        pts += [pts[0]] * data.draw(st.integers(0, 12))
        if fraction_rank(pts) < d:
            with pytest.raises(RankError):
                mvee(pts)
        else:
            assert mvee(pts).form in moment_forms(pts)

    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                st.lists(st.tuples(*[st.fractions(-6, 6, max_denominator=4)] * d), min_size=d, max_size=6),
                st.integers(0, 30),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_within_k_of_the_hull(self, drawn):
        # E / k lies in K = conv(±points), exactly, however many times a
        # point is listed: h_E(N) <= k D, i.e. N R N^T <= k^2 D^2 p, for
        # every facet |N . x| <= D of K, with A^-1 = R / p
        pts, repeats = drawn
        k = len(pts[0])
        assume(fraction_rank(pts) == k)
        e = mvee(pts + [pts[0]] * repeats)
        r, p, _ = circumscribe_parallelotope(e)
        for normal, bound in ConvexBody.vertices(list(dict.fromkeys(pts))).hull_facets():
            assert sum(a * b * r[i][j] for i, a in enumerate(normal) for j, b in enumerate(normal)) <= k * k * bound * bound * p

    def test_collinear_interior_points_leave_the_hull_form(self):
        # 5000 points on one axis and one off it: the moment form of every
        # point would be about sqrt(5000) times too long along the axis; the
        # basis (5000, 0), (0, 1) gives the hull's own axes
        e = mvee([(x, 0) for x in range(1, 5001)] + [(0, 1)])
        assert e.form == Mat([[Fraction(1, 5000**2), 0], [0, 1]])

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.fractions(-6, 6, max_denominator=4)] * d), min_size=d, max_size=7)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_containment_random(self, pts):
        # every point and its negative inside, exactly, and one on the boundary
        assume(fraction_rank(pts) == len(pts[0]))
        e = mvee(pts)
        quads = [e.quad(p) for p in pts]
        assert max(quads) == 1
        assert all(e.quad(tuple(-c for c in p)) == q for p, q in zip(pts, quads))

    def test_quality_2d_random(self):
        # no smaller than the minimum-volume ellipse, whose area the fine
        # grid gives to within 1 %, and no larger than (g n)^(d / 2) times it
        sets = [
            [(3, 1), (1, 2), (-1, 3)],
            [(5, 0), (4, 3), (0, 2)],
            [(2, 2), (3, -1)],
        ]
        for pts in sets:
            vol = ellipsoid_volume(mvee(pts).form.entries, 2)
            oracle = grid_mvee_volume_2d(pts)
            assert oracle <= 1.01 * vol
            assert vol <= moment_factor(pts) * oracle

    def test_quality_3d_coarse(self):
        # as in 2-D; the coarse grid is up to 10 % above the minimum: for the
        # first set, three points in Q^3, the moment form is the minimum
        # ellipsoid itself, and the grid reads 8 % more
        for pts in ([(2, 0, 1), (0, 3, 0), (1, 1, 2)], [(3, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)]):
            vol = ellipsoid_volume(mvee(pts).form.entries, 3)
            oracle = grid_mvee_volume_3d(pts)
            assert oracle <= 1.1 * vol
            assert vol <= moment_factor(pts) * oracle


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

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.fractions(-6, 6, max_denominator=4)] * d), min_size=d, max_size=7)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dual_form_of_moment_ellipsoid_is_proportional_to_m(self, pts):
        # LLL reduces the moment matrix M = sum x x^T over mvee's rows S
        # itself: R / p = c M, c > 0, for one S of mvee_reference
        assume(fraction_rank(pts) == len(pts[0]))
        d = len(pts[0])
        r, p, _ = circumscribe_parallelotope(mvee(pts))
        dual = Mat(r, p)
        found = False
        for s in mvee_reference(pts):
            m = [[sum(Fraction(x[i] * x[j]) for x in s) for j in range(d)] for i in range(d)]
            c = Fraction(r[0][0], p) / m[0][0]
            found = found or (c > 0 and dual == Mat(m).scale(c))
        assert found

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

    @given(vertex_point_sets())
    @settings(max_examples=40, deadline=None)
    def test_vertex_box_bounds_are_unit_supports(self, pts):
        # the one pass over the integer rows equals int_support on each
        # unit vector
        body = ConvexBody.vertices(pts)
        d = body.dim
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        assert body.int_box_bounds() == tuple(body.int_support(u) for u in units)

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
