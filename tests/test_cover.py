import dataclasses
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gapcover.cover
import gapcover.exactalg
from gapcover.cover import (
    _certify,
    cover,
    covering_bound,
    gap_membership_tester,
    restrict_to_span,
    stage_chain,
    verify_cover,
    verify_projection,
)
from gapcover.enumeration import DEFAULT_BUDGET, Gap, PointSet, enum_body, enum_gap, project_count
from gapcover.errors import BudgetError, CertificationError, DimensionError
from gapcover.exactalg import Mat, _integer_solver, _span_rank, det, integer_kernel, left_kernel
from gapcover.geomcore import ConvexBody, Ellipsoid
from gapcover.harness import parse_instance, run_batch

from _golden import FIXED
from _oracles import (
    _unique_solution,
    brute_disk_points,
    enumerated_projection,
    gap_contains,
    gap_points,
    run_reference,
    unimodular,
)


def disk(radius_sq, dim=2):
    form = [[Fraction(int(i == j), radius_sq) for j in range(dim)] for i in range(dim)]
    return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))


@st.composite
def spanless_bodies(draw):
    """Bodies whose lattice points need not span: hulls of 1 to 3 integer
    combinations of two vectors in Z^2..Z^4, and ellipsoids
    I / r2 + 2 (w w^T + u u^T), whose lattice points lie on w^T x = 0 (and
    u^T x = 0 for half the draws)."""
    d = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    if draw(st.booleans()):
        a, b = draw(vec), draw(vec)
        coeff = st.integers(-2, 2)
        combos = [draw(st.tuples(coeff, coeff)) for _ in range(draw(st.integers(1, 3)))]
        pts = [[m * x + n * y for x, y in zip(a, b)] for m, n in combos]
        assume(any(map(any, pts)))
        return ConvexBody.vertices(pts)
    w = draw(vec.filter(any))
    u = draw(vec) if draw(st.booleans()) else [0] * d
    r2 = Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 2)))
    form = [[(i == j) / r2 + 2 * (w[i] * w[j] + u[i] * u[j]) for j in range(d)] for i in range(d)]
    return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))


class TestRestrictToSpan:
    # runs (0, 0) + [0, 0] and (0, 1) + [0, 1]: only both ends of the
    # second run span the plane x1 = 0
    @example(ConvexBody.vertices([(0, 1, 0), (0, 1, 1)]))
    @given(spanless_bodies())
    @settings(max_examples=40, deadline=None)
    def test_span_from_run_ends_matches_every_point(self, body):
        # the run ends span what every nonzero point of C spans
        red = restrict_to_span(body)
        nonzero = [p for p in enum_body(body).points if any(p)]
        if not nonzero:
            assert red.k == 0 and red.embed is None
            return
        d = body.dim
        assert red.k == _span_rank(nonzero, d)
        if red.k < d:
            basis_rows = left_kernel(Mat(integer_kernel(nonzero, d)).transpose())
            assert red.embed == Mat(basis_rows).transpose()
        else:
            assert red.embed is None

    def test_identity_for_full_dimensional(self):
        red = restrict_to_span(disk(4))
        assert red.is_identity and red.embed is None
        assert red.k == 2
        assert len(red.ambient_points) == 13

    def test_diagonal_segment(self):
        body = ConvexBody.vertices([(2, 2)])
        red = restrict_to_span(body)
        assert red.k == 1
        assert red.embed == Mat([[1], [1]])
        # restricted body is the interval [-2, 2]
        restricted = enum_body(red.body)
        assert restricted.points == tuple((t,) for t in range(-2, 3))

    def test_trivial_origin(self):
        body = ConvexBody.box([Fraction(1, 2), Fraction(1, 3)])
        red = restrict_to_span(body)
        assert red.k == 0
        assert len(red.ambient_points) == 1

    def test_long_segment_lists_nothing(self):
        # the restricted body is the hull of the one nonzero run end, and the
        # run scan certifies C: neither lists its 2 * 10^6 + 1 points
        body = ConvexBody.vertices([(0, 10**6)])
        red = restrict_to_span(body)
        assert red.body.points == ((10**6,),) or red.body.points == ((-(10**6),),)
        _, report = cover(body)
        assert report.contained and report.cardinality_C == report.cardinality_P == 2 * 10**6 + 1
        assert report.lattice_points._points is None

    @given(spanless_bodies(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_restricted_hull_is_hull_of_c(self, body, data):
        # the solved run ends have the hull of every point of C, solved:
        # equal support functions at integer directions
        red = restrict_to_span(body)
        assume(0 < red.k < body.dim and body.kind == "vertices")
        basis = list(zip(*red.embed.num))
        solved = [_unique_solution(basis, p) for p in enum_body(body).points]
        assert len(red.body.points) < len(solved)
        t = data.draw(st.lists(st.integers(-6, 6), min_size=red.k, max_size=red.k))
        assert red.body.int_support(t) == max(sum(a * y for a, y in zip(t, ys)) for ys in solved)

    def test_degenerate_ellipsoid_pullback(self):
        # tall thin ellipse: only (0, 0), (+-1, 0) inside
        e = Ellipsoid(Mat([[Fraction(1, 2), 0], [0, 25]]))
        red = restrict_to_span(ConvexBody.from_ellipsoid(e))
        assert red.k == 1
        assert red.body.kind == "ellipsoid"
        pts = enum_body(red.body)
        assert pts.points == ((-1,), (0,), (1,))


class TestCoverPipeline:
    def test_interval_ratio_one(self):
        body = ConvexBody.box([Fraction(7, 2)])
        gap, report = cover(body)
        assert enum_gap(gap) == frozenset((t,) for t in range(-3, 4))
        assert report.ratio == 1
        assert report.contained

    def test_long_interval(self):
        # its form is 1 / 10^10, exactly
        gap, report = cover(ConvexBody.vertices([(100000,)]))
        assert report.contained
        assert report.cardinality_C == report.cardinality_P == 200_001

    def test_box_2d(self):
        body = ConvexBody.box([2, 3])
        gap, report = cover(body)
        assert report.cardinality_C == 35
        assert report.contained
        assert report.ratio <= 4

    def test_disk_radius_two(self):
        body = disk(4)
        gap, report = cover(body)
        assert report.cardinality_C == 13
        assert report.contained
        assert report.ratio <= covering_bound(2)
        chain = stage_chain(report)
        assert all(chain.values())
        # computed once per report, and only for one with stages
        assert report.stage_factors is report.stage_factors
        assert chain == {name: f <= 1 for name, f in report.stage_factors.items()}
        assert dataclasses.replace(report, stages=None).stage_factors is None

    def test_vertex_body(self):
        body = ConvexBody.vertices([(3, 1), (1, 3), (2, -2)])
        gap, report = cover(body)
        assert report.contained
        assert report.ratio >= 1
        assert min(gap.halfsides) >= 1

    def test_degenerate_body_covers(self):
        body = ConvexBody.vertices([(2, 2)])
        gap, report = cover(body)
        assert report.contained
        assert report.cardinality_C == 5
        assert gap.order == 1
        assert report.ratio == 1

    def test_trivial_origin_body(self):
        body = ConvexBody.box([Fraction(1, 3), Fraction(1, 3)])
        gap, report = cover(body)
        assert report.contained
        assert report.cardinality_P == 1
        assert gap.order == 0

    def test_volume_invariance_and_unimodularity(self):
        body = disk(4)
        gap, report = cover(body)
        s = report.stages
        # |B| = |Q'|, since |det T| = 1: the box of the squared widths
        assert s.volume_box_sq == 4**s.subspace_dim * s.box_halfwidths_sq[0] * s.box_halfwidths_sq[1]
        assert s.volume_box_sq == s.reduction_ratio_sq * s.volume_parallelotope_sq
        w = Mat(gap.diffs).transpose()
        assert abs(det(w)) == 1

    def test_skewed_lattice_ellipsoid(self):
        # image of a ball under a skew basis: genuinely needs the reduction
        m = Mat([[5, 3], [2, 1]])
        form = (m @ m.transpose()).scale(Fraction(1, 16))
        body = ConvexBody.from_ellipsoid(Ellipsoid(form))
        gap, report = cover(body)
        assert report.contained
        assert report.ratio <= covering_bound(2)
        chain = stage_chain(report)
        assert all(chain.values())

    def test_3d_ball(self):
        body = disk(4, dim=3)
        gap, report = cover(body)
        assert report.contained
        assert report.cardinality_C == 33
        assert report.ratio <= covering_bound(3)


@st.composite
def membership_cases(draw):
    """(gap, points) with independent active differences: k = 0..dim of
    them in dims 1..4, entries in [-3, 3], half-sides 1..3, interleaved
    with up to two inactive differences (half-side 0), each either an
    integer combination of the active ones or any vector, and a base in
    [-5, 5]^dim.  The points are base + sum m_i d_i + e with
    |m_i| <= n_i + 1 and e in [-1, 1]^dim: a box around the base that
    reaches one step past P along every difference, and off its lattice."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(0, dim))
    coord = st.integers(-3, 3)
    active = [tuple(draw(coord) for _ in range(dim)) for _ in range(k)]
    diffs = [(v, draw(st.integers(1, 3))) for v in active]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            ms = [draw(st.integers(-2, 2)) for _ in active]
            v = tuple(sum(m * a[j] for m, a in zip(ms, active)) for j in range(dim))
        else:
            v = tuple(draw(coord) for _ in range(dim))
        diffs.append((v, 0))
    diffs = draw(st.permutations(diffs))
    base = tuple(draw(st.integers(-5, 5)) for _ in range(dim))
    gap = Gap(dim, base, [v for v, _ in diffs], [n for _, n in diffs])
    assume(gap_membership_tester(gap) is not None)
    points = []
    for _ in range(draw(st.integers(1, 30))):
        ms = [draw(st.integers(-n - 1, n + 1)) for n in gap.halfsides]
        p = [b + draw(st.integers(-1, 1)) for b in base]
        for m, v in zip(ms, gap.diffs):
            p = [x + m * c for x, c in zip(p, v)]
        points.append(tuple(p))
    return gap, points


@st.composite
def run_cases(draw):
    """(gap, runs): membership_cases with each point p opening the run
    prefix = p[:-1], lo = p[-1] - a, hi = p[-1] + b, a and b in 0..2, so
    that a ninth of the runs are single points."""
    gap, points = draw(membership_cases())
    runs = []
    for p in points:
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        runs.append((p[:-1], p[-1] - a, p[-1] + b))
    return gap, runs


BIG = 2**64 + 7  # scales entries past the int64 range


@st.composite
def scan_cases(draw, dim, k):
    """(gap, runs) for the compiled run scan of shape (dim, k): k
    independent active differences with entries in [-2, 2], one of them
    replaced half the time by e_dim plus a combination of the others (so
    e_dim is in their lattice and runs may be long), and one sometimes
    scaled by BIG; half-sides 1..2 (1 for k > 4, to keep the listing
    small); up to two inactive differences, each a combination of the
    active ones or any vector; a base that is 0, in [-3, 3]^dim or BIG
    times that.  Each run either is a point of P or opens at
    base + sum m_j v_j + e, |m_j| <= n_j + 1 and e = 0 or in [-1, 1]^dim,
    and reaches 0..2 steps down and up along e_dim: runs inside P, leaving
    it at either end, off its lattice (k < dim gives ``others`` rows) and,
    where e_dim is not in that lattice, longer than one point all occur."""
    coord = st.integers(-2, 2)
    active = [tuple(draw(coord) for _ in range(dim)) for _ in range(k)]
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        ms = [draw(st.integers(-1, 1)) if i != j else 0 for i in range(k)]
        active[j] = tuple(int(c == dim - 1) + sum(m * a[c] for m, a in zip(ms, active)) for c in range(dim))
    if k and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        active[j] = tuple(c * BIG for c in active[j])
    diffs = [(v, draw(st.integers(1, 2 if k <= 4 else 1))) for v in active]
    for _ in range(draw(st.integers(0, 2))):
        if active and draw(st.booleans()):
            ms = [draw(st.integers(-2, 2)) for _ in active]
            v = tuple(sum(m * a[c] for m, a in zip(ms, active)) for c in range(dim))
        else:
            v = tuple(draw(coord) for _ in range(dim))
        diffs.append((v, 0))
    diffs = draw(st.permutations(diffs))
    scale = draw(st.sampled_from([0, 1, BIG]))
    base = tuple(scale * draw(st.integers(-3, 3)) for _ in range(dim))
    gap = Gap(dim, base, [v for v, _ in diffs], [n for _, n in diffs])
    assume(gap_membership_tester(gap) is not None)
    runs = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            ms = [draw(st.integers(-n, n)) for n in gap.halfsides]
            e, a, b = (0,) * dim, 0, 0
        else:
            ms = [draw(st.integers(-n - 1, n + 1)) for n in gap.halfsides]
            e = (0,) * dim if draw(st.booleans()) else tuple(draw(st.integers(-1, 1)) for _ in range(dim))
            a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        p = list(map(sum, zip(base, e)))
        for m, v in zip(ms, gap.diffs):
            p = [x + m * c for x, c in zip(p, v)]
        runs.append((tuple(p[:-1]), p[-1] - a, p[-1] + b))
    return gap, runs


class TestMembershipTester:
    @given(membership_cases())
    @settings(max_examples=200, deadline=None)
    # the pipeline's progression for the disk of radius 2, on a 13 x 13 box
    @example((cover(disk(4))[0], list(itertools.product(range(-6, 7), repeat=2))))
    # non-unimodular differences (2, 0), (0, 1) and a nonzero base
    @example((Gap(2, (1, -1), ((2, 0), (0, 1)), (2, 1)), [(5, 0), (4, 0), (6, 0), (-3, -2), (1, 1)]))
    # order 1 in Z^3: points off the line must fail the non-pivot rows
    @example((Gap(3, (0, 0, 1), ((1, 2, 0),), (2,)), [(2, 4, 1), (2, 4, 0), (2, 5, 1), (3, 6, 1)]))
    # an inactive difference that depends on the active one
    @example((Gap(2, (0, 0), ((1, 0), (2, 0)), (3, 0)), [(3, 0), (4, 0), (-4, 0), (0, 1)]))
    # half-side 0 everywhere, and order 0
    @example((Gap(2, (3, -2), ((1, 0),), (0,)), [(3, -2), (4, -2)]))
    @example((Gap(2, (3, -2), (), ()), [(3, -2), (3, -1)]))
    def test_matches_oracle(self, case):
        gap, points = case
        member = gap_membership_tester(gap)
        listed = gap_points(gap)
        assert [member(p) for p in points] == [p in listed for p in points]

    @given(run_cases())
    @settings(max_examples=200, deadline=None)
    # a nonzero base on Z^2 = the lattice of (1, 0), (1, 1): runs inside
    # P, one point past its end, and below it
    @example((Gap(2, (1, -1), ((1, 0), (1, 1)), (2, 2)), [((1,), -1, 1), ((1,), -1, 2), ((1,), -4, -1)]))
    # order 2 in Z^3, e_3 among the differences: the non-pivot row holds
    # on the first runs and fails on the last
    @example((Gap(3, (0, 0, 1), ((0, 0, 1), (1, 2, 0)), (2, 1)),
              [((1, 2), -1, 3), ((1, 2), -1, 4), ((0, 0), 1, 1), ((1, 3), 0, 0)]))
    # e_2 outside the lattice of (1, 1), (1, -1): single points only
    @example((Gap(2, (0, 1), ((1, 1), (1, -1)), (2, 2)), [((1,), 0, 0), ((1,), 0, 2), ((0,), 1, 1)]))
    # an inactive difference (2, 2) that depends on the active ones
    @example((Gap(2, (0, 0), ((1, 0), (2, 2), (0, 1)), (1, 0, 1)), [((1,), -1, 1), ((1,), -1, 2), ((2,), 0, 0)]))
    # order 0: P = {base}
    @example((Gap(2, (3, -2), (), ()), [((3,), -2, -2), ((3,), -2, -1), ((2,), -2, -2)]))
    def test_run_matches_oracle(self, case):
        gap, runs = case
        member = gap_membership_tester(gap)
        listed = gap_points(gap)
        for prefix, lo, hi in runs:
            expected = all(prefix + (t,) in listed for t in range(lo, hi + 1))
            assert (member.scan([(prefix, lo, hi)]) is None) == expected, (prefix, lo, hi)

    @pytest.mark.parametrize("dim, k", [(dim, k) for dim in range(1, 7) for k in range(dim + 1)])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_scan_matches_references(self, dim, k, data):
        # each run's verdict from the compiled scan, from the generic loop and
        # from the listing of P agree, and so does the first failing run
        gap, runs = data.draw(scan_cases(dim, k))
        member = gap_membership_tester(gap)
        active = [(v, n) for v, n in zip(gap.diffs, gap.halfsides) if n >= 1]
        solve = _integer_solver([v for v, _ in active], gap.dim)
        halfsides = [n for _, n in active]
        listed = gap_points(gap)
        verdicts = [run_reference(solve, gap.base, halfsides, *run) for run in runs]
        assert verdicts == [all(prefix + (t,) in listed for t in range(lo, hi + 1)) for prefix, lo, hi in runs]
        assert [member.scan([run]) is None for run in runs] == verdicts
        assert member.scan(runs) == next((i for i, inside in enumerate(verdicts) if not inside), None)

    @pytest.mark.parametrize("p", [(1, 1, 5), (1,)], ids=["long", "short"])
    def test_wrong_length_point_raises(self, p):
        member = gap_membership_tester(Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1)))
        assert member((1, 1)) and not member((1, 2))
        with pytest.raises(DimensionError, match="dimension"):
            member(p)

    def test_dependent_active_differences_give_no_tester(self):
        # an active difference that depends on another: P must be listed
        assert gap_membership_tester(Gap(2, (0, 0), ((1, 0), (2, 0)), (3, 1))) is None


@st.composite
def claim_cases(draw):
    """(body, gap): an ellipsoid, box or vertex body in dims 1..4 and a
    progression with independent active differences.  The progression is
    the pipeline's, sometimes with one half-side lowered by 1, or a random
    one as in membership_cases: order 0..dim (lower order in Z^dim, and
    lattices of any determinant), entries in [-2, 2], half-sides 0..3 with
    up to two inactive differences, each either a combination of the
    active ones or any vector, and a base that is 0 or in [-2, 2]^dim."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["ellipsoid", "box", "vertices"]))
    coord = st.integers(-2, 2)
    if kind == "box":
        body = ConvexBody.box([Fraction(draw(st.integers(0, 5)), 2) for _ in range(dim)])
    elif kind == "vertices":
        body = ConvexBody.vertices(
            [tuple(draw(coord) for _ in range(dim)) for _ in range(draw(st.integers(1, 3)))]
        )
    else:
        # (m^T m + I) / r: positive definite
        m = [[draw(coord) for _ in range(dim)] for _ in range(dim)]
        r = draw(st.integers(1, 6))
        form = [
            [Fraction(sum(row[i] * row[j] for row in m) + (i == j), r) for j in range(dim)]
            for i in range(dim)
        ]
        body = ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))
    if draw(st.booleans()):
        gap = cover(body)[0]
        if gap.order and draw(st.booleans()):
            i = draw(st.integers(0, gap.order - 1))
            halfsides = list(gap.halfsides)
            halfsides[i] = max(halfsides[i] - 1, 0)
            gap = Gap(dim, gap.base, gap.diffs, halfsides)
        return body, gap
    k = draw(st.integers(0, dim))
    active = [tuple(draw(coord) for _ in range(dim)) for _ in range(k)]
    diffs = [(v, draw(st.integers(1, 3))) for v in active]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            ms = [draw(coord) for _ in active]
            v = tuple(sum(m * a[j] for m, a in zip(ms, active)) for j in range(dim))
        else:
            v = tuple(draw(coord) for _ in range(dim))
        diffs.append((v, 0))
    diffs = draw(st.permutations(diffs))
    base = (0,) * dim if draw(st.booleans()) else tuple(draw(coord) for _ in range(dim))
    gap = Gap(dim, base, [v for v, _ in diffs], [n for _, n in diffs])
    assume(gap_membership_tester(gap) is not None)
    return body, gap


class TestRunCertificate:
    @given(claim_cases())
    @settings(max_examples=150, deadline=None)
    # det 2 without e_2, true: every run of C = {t (1, 1)} is a single point
    @example((ConvexBody.vertices([(1, 1)]), Gap(2, (0, 0), ((1, 1), (1, -1)), (1, 1))))
    # det 2 without e_2, false: (0, 1) and (1, 0) are off the lattice
    @example((disk(1), Gap(2, (0, 0), ((1, 1), (1, -1)), (3, 3))))
    # order 1 in Z^3 with a nonzero base, and an inactive dependent difference
    @example((ConvexBody.vertices([(0, 0, 2)]), Gap(3, (0, 0, 1), ((0, 0, 1), (0, 0, 2)), (3, 0))))
    # only the far end of a run is outside P, with base 0 and with another
    @example((ConvexBody.box([2]), Gap(1, (0,), ((1,),), (1,))))
    @example((ConvexBody.box([1, 2]), Gap(2, (0, -1), ((1, 0), (0, 1)), (1, 2))))
    # no active difference, base 0
    @example((ConvexBody.box([Fraction(1, 2)] * 3), Gap(3, (0, 0, 0), ((1, 2, 3),), (0,))))
    def test_matches_point_walk(self, case):
        # verify_cover tests runs; the oracle walks C point by point in
        # lexicographic order
        body, gap = case
        report = verify_cover(body, gap)
        first = next((p for p in enum_body(body) if not gap_contains(gap, p)), None)
        assert report.contained == (first is None)
        assert report.witness == first


class TestCoverCatchesShrunkenProgression:
    @pytest.mark.parametrize(
        "body",
        [
            disk(4),
            ConvexBody.from_ellipsoid(
                Ellipsoid((Mat([[5, 3], [2, 1]]) @ Mat([[5, 2], [3, 1]])).scale(Fraction(1, 16)))
            ),
            ConvexBody.vertices([(2, 2)]),
        ],
        ids=["disk", "skewed", "segment"],
    )
    def test_witness_is_first_missing_point(self, body, monkeypatch):
        # half the half-sides n_j = floor(h_K(t_j)) as cover builds its
        # progression: P no longer holds C, and cover must say so with the
        # first point of C that is outside P
        def halved(dim, base, diffs, halfsides):
            return Gap(dim, base, diffs, tuple(n // 2 for n in halfsides))

        monkeypatch.setattr("gapcover.cover.Gap", halved)
        gap, report = cover(body)
        listed = gap_points(gap)
        assert not report.contained
        assert report.witness == next(p for p in enum_body(body) if p not in listed)


class TestVerifyCover:
    def test_pipeline_output_verifies(self):
        body = disk(4)
        gap, _ = cover(body)
        report = verify_cover(body, gap)
        assert report.contained
        assert report.witness is None

    def test_falsified_gap_detected(self):
        body = disk(4)
        bad = Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1))
        report = verify_cover(body, bad)
        assert not report.contained
        w = report.witness
        assert w is not None
        assert w[0] ** 2 + w[1] ** 2 <= 4  # witness is a body point
        assert max(abs(w[0]), abs(w[1])) > 1  # outside the 3x3 grid

    def test_dependent_differences_true_claim(self):
        # e1, e2 and the redundant e1 + e2 with half-sides (3, 3, 1) cover
        # the disk of radius 3
        gap = Gap(2, (0, 0), ((1, 0), (0, 1), (1, 1)), (3, 3, 1))
        report = verify_cover(disk(9), gap)
        assert report.contained and report.witness is None
        assert report.cardinality_C == len(brute_disk_points(9, 3))
        assert report.cardinality_P == len(gap_points(gap))

    def test_dependent_differences_false_claim(self):
        gap = Gap(2, (0, 0), ((1, 0), (0, 1), (1, 1)), (1, 3, 1))
        report = verify_cover(disk(9), gap)
        listed = gap_points(gap)
        assert not report.contained
        assert report.witness == next(p for p in brute_disk_points(9, 3) if p not in listed)
        assert report.witness == (-3, 0)
        assert report.cardinality_P == len(listed)

    def test_inactive_dependent_difference(self):
        # (2, 0) depends on (1, 0) but has half-side 0, so it never moves P
        gap = Gap(2, (0, 0), ((1, 0), (2, 0)), (3, 0))
        report = verify_cover(ConvexBody.box([2, 0]), gap)
        assert report.contained and report.witness is None
        assert report.cardinality_P == 7

    def test_origin_gap(self):
        body = ConvexBody.box([Fraction(1, 3)])
        gap = Gap(1, (0,), (), ())
        report = verify_cover(body, gap)
        assert report.contained
        assert report.ratio == 1


class TestCertifyDimension:
    @pytest.mark.parametrize(
        "body, gap",
        [
            # zip over a 2-D point and a 1-D base would compare one coordinate
            (ConvexBody.box([1, 1]), Gap(1, (0,), ((1,),), (20000,))),
            (ConvexBody.box([3, 3]), Gap(3, (0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (3, 3, 3))),
            (ConvexBody.box([1, 1]), Gap(1, (0,), ((1,),), (5,))),
        ],
        ids=["1d-gap-large", "3d-gap", "1d-gap-small"],
    )
    def test_mismatch_raises_before_testing(self, body, gap):
        with pytest.raises(DimensionError, match="dimension"):
            verify_cover(body, gap)


class _CountingTester:
    """A membership tester that records each run its scan tests in ``runs``,
    as the scan draws it, and each point test in ``points``."""

    def __init__(self, member, runs, points):
        self.member, self.base, self.runs, self.points = member, member.base, runs, points

    def __call__(self, p):
        self.points.append(tuple(p))
        return self.member(p)

    def scan(self, runs):
        return self.member.scan(self._drawn(runs))

    def _drawn(self, runs):
        for run in runs:
            self.runs.append(run)
            yield run


def _counting_tester(runs, points):
    return lambda gap, inverse=None: _CountingTester(gap_membership_tester(gap, inverse), runs, points)


def _assert_one_test_per_run(c_points, runs, points):
    # each run (or, with a nonzero base, its mirror) is tested at most once,
    # and points are tested only inside the last run tested, which failed
    assert len(set(runs)) == len(runs) <= 2 * len(c_points.runs)
    if points:
        prefix, lo, hi = runs[-1]
        assert all(p[:-1] == prefix and lo <= p[-1] <= hi for p in points)


class TestListingCrossCheck:
    """P is not listed to cross-check the tester (TestMembershipTester
    checks it against the oracle instead): the tester runs once per run of
    C, up to the first failing run, and point by point only inside that
    run; only dependent differences list P."""

    @pytest.mark.parametrize("halfsides", [(1, 1), (2, 2)], ids=["false-claim", "true-claim"])
    def test_tester_runs_once_per_run(self, halfsides, monkeypatch):
        runs, points = [], []
        monkeypatch.setattr(gapcover.cover, "gap_membership_tester", _counting_tester(runs, points))
        gap = Gap(2, (0, 0), ((1, 0), (0, 1)), halfsides)
        report = verify_cover(disk(4), gap)
        c_points = enum_body(disk(4))
        _assert_one_test_per_run(c_points, runs, points)
        if halfsides == (2, 2):
            assert report.contained and runs == list(reversed(c_points.runs)) and points == []
        else:
            # (-2, 0) is the first point of C and lies outside the 3 x 3 grid;
            # its mirror (2, 0) is the last swept run, tested first
            assert report.witness == (-2, 0)
            assert runs == [((2,), 0, 0)] and points == [(2, 0)]

    @pytest.mark.parametrize(
        "gap, listed",
        [
            (Gap(2, (0, 0), ((1, 0), (0, 1)), (2, 2)), 0),
            (Gap(2, (0, 0), ((2, 0), (0, 1), (4, 0)), (1, 2, 0)), 0),
            (Gap(2, (0, 0), ((1, 0), (0, 1), (1, 1)), (2, 2, 1)), 1),
        ],
        ids=["independent", "inactive-dependent", "dependent"],
    )
    def test_lists_only_dependent_differences(self, gap, listed, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return enum_gap(*args)

        monkeypatch.setattr(gapcover.cover, "enum_gap", counted)
        report = verify_cover(disk(4), gap)
        assert len(calls) == listed
        assert report.cardinality_P == len(gap_points(gap))
        assert report.contained == all(p in gap_points(gap) for p in enum_body(disk(4)))

    @pytest.mark.parametrize(
        "body",
        [disk(9), ConvexBody.vertices([(2, 1), (1, 2)]), ConvexBody.box([2, 1, 1])],
        ids=["ellipsoid", "vertices", "box"],
    )
    def test_spanning_body_never_lists_c(self, body, monkeypatch):
        # full rank and independent differences: C stays runs throughout
        monkeypatch.setattr(PointSet, "points", property(lambda self: pytest.fail("C was listed")))
        gap, report = cover(body)
        assert report.contained and gap_membership_tester(gap) is not None
        assert report.cardinality_C == len(report.lattice_points)
        d = body.dim
        unit = Gap(d, (0,) * d, tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), (1,) * d)
        assert verify_cover(body, unit).cardinality_C == report.cardinality_C

    def test_large_progression_exits_at_first_missing_point(self, monkeypatch):
        # #P = 7 * 40 001: no listing, and the test stops at the witness, the
        # first point of C (lexicographic) with x1 = 3.  The base is not 0, so
        # the mirrored runs come first, then the swept ones up to x1 = 3.
        runs, points = [], []
        monkeypatch.setattr(gapcover.cover, "gap_membership_tester", _counting_tester(runs, points))
        monkeypatch.setattr(gapcover.cover, "enum_gap", lambda *a: pytest.fail("P was listed"))
        gap = Gap(2, (-1, 0), ((1, 0), (0, 1)), (3, 20000))
        report = verify_cover(ConvexBody.box([3, 3]), gap)
        c_points = enum_body(ConvexBody.box([3, 3]))
        assert not report.contained
        assert report.witness == (3, -3)
        _assert_one_test_per_run(c_points, runs, points)
        assert runs[-1] == ((3,), -3, 3) and len(runs) == 2 * len(c_points.runs)
        assert points == [(3, -3)]


class TestVerifyProjection:
    def test_identity_1d(self):
        body = ConvexBody.box([Fraction(7, 2)])
        gap, _ = cover(body)
        rep = verify_projection(verify_cover(body, gap), (1,))
        assert rep.image_count_C == 7
        assert rep.image_count_P == 7
        assert rep.chain_ok and rep.corollary_ok and rep.fiber_monotone
        assert not rep.degraded

    def test_grid_diagonal(self):
        body = ConvexBody.box([1, 1])
        gap, _ = cover(body)
        rep = verify_projection(verify_cover(body, gap), (1, 1))
        assert rep.chain_ok
        assert rep.doubling_ok
        assert rep.image_count_P >= 5

    def test_zero_functional(self):
        body = disk(4)
        gap, _ = cover(body)
        rep = verify_projection(verify_cover(body, gap), (0, 0))
        assert rep.image_count_C == 1
        assert rep.image_count_P == 1
        assert rep.max_fiber_C == 13
        assert rep.chain_ok and rep.corollary_ok

    def test_random_functionals_on_disk(self):
        body = disk(4)
        gap, _ = cover(body)
        for phi in [(1, 0), (2, -3), (5, 5), (-4, 1)]:
            rep = verify_projection(verify_cover(body, gap), phi)
            assert rep.chain_ok
            assert rep.corollary_ok
            assert rep.fiber_monotone
            assert rep.doubling_ok

    def test_reads_the_certificates_proof(self, monkeypatch):
        # the certificate proved the differences independent: no second
        # Gauss-Jordan pass, and no listing of P
        report = verify_cover(disk(4), Gap(2, (1, 0), ((1, 1), (1, -1), (2, 0)), (2, 2, 0)))
        assert report.gap_points is None
        elimination = gapcover.exactalg._gauss_jordan.__code__
        calls = []

        def record(frame, event, arg):
            if event == "call" and frame.f_code is elimination:
                calls.append(frame)

        monkeypatch.setattr(gapcover.cover, "enum_gap", lambda *a: pytest.fail("P was listed"))
        sys.setprofile(record)
        try:
            rep = verify_projection(report, (2, -1))
        finally:
            sys.setprofile(None)
        assert calls == []
        assert (rep.cardinality_P, rep.sumset_cardinality) == (25, 81)


@st.composite
def vertex_bodies(draw):
    """Hulls of 1 to 3 integer points in [-3, 3]^d, d = 1..4."""
    d = draw(st.integers(1, 4))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    return ConvexBody.vertices(draw(st.lists(point, min_size=1, max_size=3)))


@st.composite
def small_ellipsoids(draw):
    """Ellipsoids sum_i (L x)_i^2 / r_i <= 1 in dims 1..3, L unit lower
    triangular with entries in [-2, 2] and r_i in 1..9: sheared, and with at
    most 7^dim lattice points."""
    d = draw(st.integers(1, 3))
    shear = [[1 if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(d)] for i in range(d)]
    r = [draw(st.integers(1, 9)) for _ in range(d)]
    form = [[sum(Fraction(shear[m][i] * shear[m][j], r[m]) for m in range(d)) for j in range(d)] for i in range(d)]
    return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))


class TestProjectionOfRuns:
    @given(st.one_of(spanless_bodies(), vertex_bodies()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_image_of_c_matches_listing(self, body, data):
        # phi's fibres on C, read off the runs, against project_count over
        # the listed points
        phi = data.draw(st.lists(st.integers(-3, 3), min_size=body.dim, max_size=body.dim))
        report = verify_cover(body, Gap(body.dim, (0,) * body.dim, (), ()))
        rep = verify_projection(report, phi)
        assert (rep.image_count_C, rep.max_fiber_C) == project_count(report.lattice_points.points, phi)

    def test_dimension_mismatch(self):
        report = verify_cover(disk(4), Gap(2, (0, 0), (), ()))
        with pytest.raises(DimensionError, match="functional has 3 coefficients, progression 2"):
            verify_projection(report, (1, 2, 3))


class TestProjectionOfCoverReport:
    @given(st.one_of(spanless_bodies(), small_ellipsoids()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_enumerated_report(self, body, data):
        # cover's own report, restricted (k < d) or not, against the listing
        # of C, P and P+P
        phi = data.draw(st.lists(st.integers(-3, 3), min_size=body.dim, max_size=body.dim))
        gap, report = cover(body)
        rep = verify_projection(report, phi)
        expected = enumerated_projection(report.lattice_points.points, gap, phi, 10**7)
        assert dataclasses.asdict(rep) == expected


@st.composite
def projection_cases(draw):
    """(box half-widths, gap, phi): orders 1..4 in dims 1..4, half-sides
    0..3, a nonzero base, and sometimes a difference that depends on the
    first two."""
    dim = draw(st.integers(1, 4))
    order = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    diffs = [tuple(draw(coord) for _ in range(dim)) for _ in range(order)]
    if order >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        diffs[-1] = tuple(a * x + b * y for x, y in zip(diffs[0], diffs[1]))
    halfsides = tuple(draw(st.integers(0, 3)) for _ in range(order))
    base = draw(st.tuples(*[st.integers(-5, 5)] * dim).filter(any))
    phi = tuple(draw(coord) for _ in range(dim))
    box = [draw(st.integers(0, 2)) for _ in range(dim)]
    return box, Gap(dim, base, diffs, halfsides), phi


class TestProjectionAgainstListing:
    @given(projection_cases())
    @settings(max_examples=60, deadline=None)
    # phi(d_1) = 0 with half-side 2
    @example(([1, 2], Gap(2, (1, 0), ((1, -1), (0, 1)), (2, 1)), (1, 1)))
    # negative phi(d_i), half-side 0, order 2 in dim 4
    @example(([1, 0, 1, 2], Gap(4, (0, 0, 3, 0), ((1, 2, 0, 0), (0, 0, 0, 1)), (3, 0)), (-2, 0, 1, -1)))
    # dependent: d_3 = d_1 - d_2, listed
    @example(([2, 2], Gap(2, (-1, 2), ((1, 0), (0, 1), (1, -1)), (2, 1, 1)), (3, -1)))
    def test_matches_enumerated_report(self, case):
        box, gap, phi = case
        body = ConvexBody.box(box)
        c_points = list(itertools.product(*(range(-b, b + 1) for b in box)))
        rep = verify_projection(verify_cover(body, gap), phi)
        assert dataclasses.asdict(rep) == enumerated_projection(c_points, gap, phi, 10**7)


class TestProjectionClosedForm:
    def test_independent_gap_lists_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a progression was listed")

        monkeypatch.setattr("gapcover.cover.enum_gap", refuse)
        gap = Gap(2, (1, -1), ((1, 0), (1, 1)), (2, 3))
        rep = verify_projection(verify_cover(disk(4), gap), (2, -1))
        assert rep.cardinality_P == 5 * 7
        assert rep.sumset_cardinality == 9 * 13
        assert not rep.degraded

    def test_sumset_above_budget_not_degraded(self):
        # #(P+P) = 81 > cap = 50; the convolution bound is 1 * 5 + 5 * 5 = 30
        # steps
        gap = Gap(2, (0, 0), ((1, 0), (0, 1)), (2, 2))
        rep = verify_projection(verify_cover(ConvexBody.box([2, 2]), gap), (1, 0), cap=50)
        assert not rep.degraded
        assert rep.sumset_cardinality == 9 * 9
        assert rep.doubling_ok and rep.chain_ok

    def test_budget_raised_before_any_work(self):
        # one step: min(1, 1) * 21 = 21 steps, within the budget
        gap = Gap(1, (0,), ((1,),), (10,))
        rep = verify_projection(verify_cover(ConvexBody.box([3]), gap), (1,), cap=100)
        assert rep.sumset_cardinality == 41

        # two steps: 21 + min(21, 1 + 20) * 21 = 462 steps, raised before
        # C's fibres are counted, which would read the runs of C
        class Unread:
            @property
            def runs(self):
                raise AssertionError("C's fibres were counted")

        gap = Gap(2, (0, 0), ((1, 0), (0, 1)), (10, 10))
        report = dataclasses.replace(verify_cover(ConvexBody.box([3, 3]), gap), lattice_points=Unread())
        with pytest.raises(BudgetError, match=r"projection stage.* 462 steps, budget 100"):
            verify_projection(report, (1, 1), cap=100)

    def test_wide_functional_stays_sparse(self):
        # phi(d_1) = 10^9: the image of P spans 2 * 10^9 + 3 values but
        # holds 9, and the precheck's work is 3 + min(3, 2 * 10^9 + 1) * 3 =
        # 12 steps, which the sparse convolution stays within
        gap = Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1))
        report = verify_cover(ConvexBody.box([1, 1]), gap)
        rep = verify_projection(report, (10**9, 1), cap=12)
        assert rep.image_count_P == 9 and rep.max_fiber_P == 1
        assert rep.image_count_C == 9 and rep.holds
        with pytest.raises(BudgetError, match=r"projection stage.* 12 steps, budget 11"):
            verify_projection(report, (10**9, 1), cap=11)


class TestProjectionReadsListing:
    def test_dependent_claim_lists_p_once(self, monkeypatch):
        # the golden claim-dependent-phi: the certificate lists P, half-sides
        # (2, 2, 1), and the projection check reads that listing and lists
        # only P+P, (4, 4, 2)
        listed = []
        listing = gapcover.cover.enum_gap
        monkeypatch.setattr(gapcover.cover, "enum_gap", lambda gap, *cap: listed.append(gap.halfsides) or listing(gap, *cap))
        batch = run_batch([parse_instance(FIXED["claim-dependent-phi"])])
        assert not batch.failures and not batch.budget_skips
        assert listed == [(2, 2, 1), (4, 4, 2)]

    def test_listing_above_budget(self):
        # P lists 5 * 5 * 3 = 75 points, within the certificate's budget and
        # above the projection's
        gap = Gap(2, (0, 0), ((1, 0), (0, 1), (1, 1)), (2, 2, 1))
        report = verify_cover(disk(4), gap)
        assert report.gap_points == enum_gap(gap)
        assert verify_projection(report, (1, -2), cap=75).cardinality_P == len(report.gap_points)
        with pytest.raises(BudgetError, match="progression lists 75 points, budget 74"):
            verify_projection(report, (1, -2), cap=74)


class TestStageChain:
    def test_holds_on_examples(self):
        for body in [disk(4), ConvexBody.box([2, 3]), ConvexBody.vertices([(3, 1), (1, 3)])]:
            _, report = cover(body)
            assert all(stage_chain(report).values())

    @pytest.mark.parametrize(
        "points",
        [[(100, i) for i in range(60)] + [(0, 1)], [(1000, i) for i in range(-40, 41)] + [(3, 7)]],
        ids=["fan-60", "fan-81"],
    )
    def test_holds_on_clustered_fans(self, points):
        # all but one point in a narrow fan, which the moment form weights
        # most: the ellipsoid is far from the minimum one, and the chain
        # must still hold with the pinned constants
        _, report = cover(ConvexBody.vertices(points))
        assert report.contained
        assert all(stage_chain(report).values())

    @pytest.mark.parametrize(
        "points",
        [[(10**4, 0, 0), (0, 1, 0)], [(x, 0) for x in range(1, 401)] + [(0, 1)]],
        ids=["restricted-thin", "collinear-interior"],
    )
    def test_holds_when_points_crowd_one_axis(self, points):
        # the listed points, or the run ends of the restricted body (every
        # point of C here, each run being one point), crowd the first axis:
        # the moment form of all of them is sqrt(#points) too long there,
        # and the basis that replaces it keeps the parallelotope factor
        # near 1/1000 (it was 3.3 on the first body)
        _, report = cover(ConvexBody.vertices(points))
        assert report.contained
        assert all(stage_chain(report).values())
        assert report.stage_factors["parallelotope"] < Fraction(1, 100)


def _passes_inside_certify(run):
    """(Gauss-Jordan passes that ran inside cover._certify, run's result),
    seen by a profile hook."""
    certify, elimination = gapcover.cover._certify.__code__, gapcover.exactalg._gauss_jordan.__code__
    calls = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is elimination:
            f = frame.f_back
            while f is not None and f.f_code is not certify:
                f = f.f_back
            calls.append(f is not None)

    sys.setprofile(record)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return sum(calls), result


@st.composite
def unimodular_claims(draw):
    """(body, gap, T): a body from small_ellipsoids or vertex_bodies, and a
    progression whose d differences are the columns of T^-1, with T the
    identity after up to 6 elementary row operations (add -2..2 times one
    row to another, swap two rows, negate one), half-sides 1..3 and a base
    that is 0 or in [-2, 2]^d."""
    body = draw(st.one_of(small_ellipsoids(), vertex_bodies()))
    d = body.dim
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            m = draw(st.integers(-2, 2))
            t[i] = [a + m * b for a, b in zip(t[i], t[j])]
        elif op == "swap":
            t[i], t[j] = t[j], t[i]
        elif op == "negate":
            t[i] = [-a for a in t[i]]
    diffs = tuple(zip(*unimodular(t).inverse().int_rows))
    halfsides = [draw(st.integers(1, 3)) for _ in range(d)]
    base = (0,) * d if draw(st.booleans()) else tuple(draw(st.integers(-2, 2)) for _ in range(d))
    return body, Gap(d, base, diffs, halfsides), tuple(map(tuple, t))


# M has columns (2, 1) and (3, 2), det 1; T = M^-1
SKEWED = Gap(2, (0, 0), ((2, 1), (3, 2)), (2, 1))
SKEWED_T = ((2, -3), (-1, 2))


class TestClaimedInverse:
    """cover hands the certificate the reduction's T, the claimed inverse
    of P's differences, which one integer product checks in place of a
    Gauss-Jordan pass over them."""

    @pytest.mark.parametrize(
        "body",
        [
            disk(4),
            ConvexBody.from_ellipsoid(
                Ellipsoid((Mat([[5, 3], [2, 1]]) @ Mat([[5, 2], [3, 1]])).scale(Fraction(1, 16)))
            ),
            ConvexBody.vertices([(2, 1), (1, 2)]),
            ConvexBody.box([2, 1, 1]),
        ],
        ids=["disk", "skewed", "vertices", "box"],
    )
    def test_full_rank_cover_certifies_without_elimination(self, body):
        inside, (gap, report) = _passes_inside_certify(lambda: cover(body))
        assert report.contained and report.gap_points is None
        assert inside == 0
        # the claim path of verify_cover, given the same P, runs one pass
        inside, claim = _passes_inside_certify(lambda: verify_cover(body, gap))
        assert claim.contained and inside == 1

    def test_claim_builds_the_same_tester(self):
        member = gap_membership_tester(SKEWED, SKEWED_T)
        points = list(itertools.product(range(-8, 9), repeat=2))
        listed = gap_points(SKEWED)
        assert [member(p) for p in points] == [p in listed for p in points]

    @pytest.mark.parametrize(
        "gap, claim",
        [
            (SKEWED, ((2, -3), (-1, 3))),
            (SKEWED, ((-1, 2), (2, -3))),
            (SKEWED, ((2, -3, 0), (-1, 2, 0), (0, 0, 1))),
            (SKEWED, ((2, -3, 0), (-1, 2, 0))),
            (SKEWED, ((2, -3),)),
            # the exact rational inverse of differences (2, 0), (0, 1): no
            # integer solve
            (Gap(2, (0, 0), ((2, 0), (0, 1)), (1, 1)), ((Fraction(1, 2), 0), (0, 1))),
        ],
        ids=["entry-off", "rows-swapped", "too-large", "too-wide", "too-few-rows", "rational"],
    )
    def test_wrong_claim_raises(self, gap, claim):
        with pytest.raises(CertificationError, match="claimed inverse"):
            gap_membership_tester(gap, claim)

    @pytest.mark.parametrize(
        "gap",
        [
            Gap(2, (0, 0), ((1, 0),), (1,)),
            Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 0)),
            Gap(2, (0, 0), ((1, 0), (0, 1), (1, 1)), (1, 1, 1)),
        ],
        ids=["fewer-differences", "half-side-0", "more-differences"],
    )
    def test_claim_that_does_not_fit_p(self, gap):
        with pytest.raises(DimensionError, match="claimed inverse"):
            gap_membership_tester(gap, ((1, 0), (0, 1)))

    @given(unimodular_claims())
    @settings(max_examples=100, deadline=None)
    def test_claim_matches_elimination(self, case):
        # the same verdict, witness and work from T as from one pass over P
        body, gap, t = case
        c_points = enum_body(body)
        by_claim = _certify(c_points, gap, DEFAULT_BUDGET, {}, None, t)
        by_pass = _certify(c_points, gap, DEFAULT_BUDGET, {})
        assert by_claim.gap_points is None and by_pass.gap_points is None
        fields = ("contained", "witness", "cardinality_C", "cardinality_P", "ratio")
        assert [getattr(by_claim, f) for f in fields] == [getattr(by_pass, f) for f in fields]
        for key in ("runs_tested", "points_tested"):
            assert by_claim.timings_ms[key] == by_pass.timings_ms[key]
