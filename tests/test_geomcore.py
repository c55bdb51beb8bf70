import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapcover.geomcore
from gapcover.errors import (
    BudgetError,
    CertificationError,
    ConvergenceError,
    DimensionError,
    RankError,
)
from gapcover.exactalg import Mat, _span_rank, det, inverse, sqrt_upper
from gapcover.geomcore import (
    ConvexBody,
    Ellipsoid,
    circumscribe_parallelotope,
    hull_line_extent,
    mvee,
)

from _oracles import (
    ellipsoid_volume,
    fraction_det,
    grid_mvee_volume_2d,
    grid_mvee_volume_3d,
    identity,
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
        assert e.int_box_bounds() == (2, 1)


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

    @pytest.mark.parametrize("eps", [0, 1, Fraction(-1, 2), Fraction(3, 2)])
    def test_eps_outside_unit_interval(self, eps):
        with pytest.raises(DimensionError, match="eps"):
            mvee([(1, 0), (0, 1)], eps)

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionError):
            mvee([(1, 0), (0, 1, 0)])

    def test_empty_set(self):
        with pytest.raises(RankError, match="empty"):
            mvee([])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, data):
        # bit-identical float steps: the same exact form, or the same error
        d = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(d, 8))
        coord = st.fractions(min_value=-6, max_value=6, max_denominator=5)
        pts = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
        eps = data.draw(st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1, 3)]))
        try:
            expected = khachiyan_reference(pts, eps)
        except (RankError, ConvergenceError) as exc:
            with pytest.raises(type(exc)):
                mvee(pts, eps)
        else:
            assert mvee(pts, eps).form == Mat(expected)

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


def generators(e):
    """circumscribe_parallelotope's (G, |Q|), G the rational Mat rows / den."""
    rows, den, vol = circumscribe_parallelotope(e)
    return Mat(rows).scale(Fraction(1, den)), vol


class TestCircumscribe:
    def test_unit_disk_square(self):
        e = Ellipsoid(identity(2))
        g, vol = generators(e)
        # any rotation is fine; volume must be (2 side)^2 up to tiny slack
        assert float(vol) <= 4.0 * 1.001
        # exact certificate is part of construction; spot-check a boundary point
        assert parallelotope_contains(g.entries, (1, 0)) or parallelotope_contains(g.entries, (0, 1))

    def test_axis_aligned_ellipse(self):
        e = Ellipsoid(Mat([[Fraction(1, 4), 0], [0, 1]]))
        g, vol = generators(e)
        assert float(vol) <= 8.0 * 1.001
        assert parallelotope_contains(g.entries, (2, 0))
        assert parallelotope_contains(g.entries, (0, 1))

    def test_unit_ball(self):
        g, vol = generators(Ellipsoid(identity(3)))
        assert 8 < vol <= 8 * (1 + Fraction(1, 2**48)) ** 3
        assert parallelotope_contains(g.entries, (1, 0, 0))
        assert parallelotope_contains(g.entries, (0, 0, -1))

    def test_volume_matches_determinant(self):
        # |Q| = 2^d prod s_m, each s_m within 2^-48 relative of its square
        # root, so |Q|^2 det A lies in [4^d, 4^d (1 + 2^-48)^(2d)]
        for form in (Mat([[2, 1], [1, 3]]), Mat([[5, 2, 0], [2, 4, 1], [0, 1, 3]])):
            e = Ellipsoid(form)
            v_sq = generators(e)[1] ** 2 * det(form)
            assert 4**e.dim <= v_sq <= 4**e.dim * (1 + Fraction(1, 2**48)) ** (2 * e.dim)

    def test_wrong_factorization_fails_certificate(self, monkeypatch):
        # axes shortened by half: the slab check against A^-1 must catch it
        monkeypatch.setattr(gapcover.geomcore, "sqrt_upper", lambda x: sqrt_upper(x) / 2)
        with pytest.raises(CertificationError, match="slab certificate"):
            circumscribe_parallelotope(Ellipsoid(Mat([[2, 1], [1, 3]])))

    def test_boundary_points_inside_random_forms(self):
        forms = [
            Mat([[2, 1], [1, 3]]),
            Mat([[Fraction(1, 9), 0], [0, 4]]),
            Mat([[5, 2, 0], [2, 4, 1], [0, 1, 3]]),
        ]
        directions = [(1, 0), (0, 1), (1, 1), (2, -1)]
        for form in forms:
            e = Ellipsoid(form)
            g, _ = generators(e)
            for c in directions[: e.dim + 1]:
                c = c + (0,) * (e.dim - len(c))
                # exact point of the ellipsoid in direction c: c / sqrt_upper(c^T A c)
                t = sqrt_upper(e.quad(c))
                x = tuple(Fraction(ci) / t for ci in c)
                assert e.contains(x)
                assert parallelotope_contains(g.entries, x)


def line_extent(body, prefix):
    """hull_line_extent on the line through prefix, given the facet sums
    N.(prefix, 0) it takes, with the two ends as Fractions."""
    sums = [sum(a * x for a, x in zip(normal, prefix)) for normal, _ in body.hull_facets()]
    span = hull_line_extent(body, sums)
    return None if span is None else tuple(Fraction(*end) for end in span)


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

    def test_spanning_points_box(self):
        b = ConvexBody.box([1, 2])
        assert set(b.spanning_points()) == {(1, 2), (1, -2), (-1, 2), (-1, -2)}

    def test_exact_halfwidths(self):
        b = ConvexBody.vertices([(2, 1), (1, -3)])
        assert b.exact_halfwidths() == (2, 3)
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
        assert b.int_box_bounds() == tuple(math.floor(h) for h in b.exact_halfwidths())


class TestParallelotope:
    """The parallelotope as the pipeline hands it on, (G, |Q|) with the
    generators the columns of G, and the oracle membership test in it that
    the containment tests above use."""

    def test_contains_unit_square(self):
        g = [(1, 0), (0, 1)]
        assert parallelotope_contains(g, (1, 1))
        assert not parallelotope_contains(g, (Fraction(3, 2), 0))

    def test_contains_sheared(self):
        g = [(1, 1), (0, 2)]  # generators (1, 0) and (1, 2)
        assert parallelotope_contains(g, (2, 2))  # lambda = (1, 1)
        assert not parallelotope_contains(g, (3, 2))

    def test_volume(self):
        # circumscribe_parallelotope's |Q| = 2^d prod s_m is 2^d |det G|, d = 1..4
        forms = [
            [[Fraction(1, 7)]],
            [["17/8", "13/16"], ["13/16", "5/16"]],
            [[3, 1, 0], [1, 2, 1], [0, 1, 5]],
            [[4, 1, 0, 1], [1, 3, 1, 0], [0, 1, 2, 0], [1, 0, 0, 6]],
        ]
        for form in forms:
            g, vol = generators(Ellipsoid(Mat(form)))
            assert vol == 2**g.rows * abs(fraction_det(g.entries))
