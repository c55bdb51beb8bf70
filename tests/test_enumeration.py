import itertools
import json
import linecache
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapcover import enumeration
from gapcover.cover import _run_kernel, gap_membership_tester
from gapcover.errors import BudgetError, DimensionError
from gapcover.enumeration import (
    Gap,
    PointSet,
    enum_body,
    enum_gap,
    project_count,
    subset_check,
)
from gapcover.exactalg import Mat
from gapcover.geomcore import ConvexBody, Ellipsoid, hull_line_extent
from gapcover.harness import GENERATOR_KINDS, batch_report_to_json, gen_random, parse_instance, run_batch

from _oracles import (
    box_lattice_points,
    brute_disk_points,
    ellipsoid_lattice_points,
    gap_points,
    sweep_reference,
    sweep_runs,
    vertex_hull_lattice_points,
)


def _rationals(bound):
    """Fractions n/q in [-bound, bound] with q in {1, 2, 3}."""
    return st.sampled_from((1, 2, 3)).flatmap(
        lambda q: st.integers(-bound * q, bound * q).map(lambda n: Fraction(n, q))
    )


def _points(dim, bound):
    return st.lists(st.tuples(*[_rationals(bound)] * dim), min_size=1, max_size=3)


@st.composite
def _flat_3d(draw):
    """1 to 3 points a*u + b*v in Z^3 with b = 0 for collinear draws: rank <= 2."""
    unit = st.tuples(*[st.integers(-1, 1)] * 3)
    u, v = draw(unit), draw(unit)
    coeff = st.sampled_from([Fraction(k, 2) for k in range(-2, 3)])
    collinear = draw(st.booleans())
    pts = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(coeff), (0 if collinear else draw(coeff))
        pts.append(tuple(a * x + b * y for x, y in zip(u, v)))
    return pts


@st.composite
def _ellipsoid_forms(draw):
    """Forms (R^T R + I) / r2 at d = 1..5, half of them tilted by
    off-diagonal terms with denominators up to 2**64, half of them flattened
    to a plate by adding lam * w w^T: many lines that meet a plate hold no
    integer point."""
    d = draw(st.integers(1, 5))
    r = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    r2 = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 2)))
    form = [
        [(sum(row[i] * row[j] for row in r) + (i == j)) / r2 for j in range(d)] for i in range(d)
    ]
    if draw(st.booleans()):
        # the tilt's norm is at most 3/64, under 1/6 <= the form's least
        # eigenvalue, so the form stays positive definite
        for i in range(d):
            for j in range(i):
                tilt = Fraction(draw(st.integers(-1, 1)), draw(st.integers(64, 2**64)))
                form[i][j] += tilt
                form[j][i] += tilt
    if draw(st.booleans()):
        w = [draw(st.integers(-2, 2)) for _ in range(d)]
        lam = draw(st.integers(2, 50))
        form = [[form[i][j] + lam * w[i] * w[j] for j in range(d)] for i in range(d)]
    return form


@st.composite
def _sweep_bodies(draw, kind, d):
    """Bodies of one kind in Z^d, up to a few thousand points at d = 6:
    round ellipsoids, thin plates (lam w w^T added, as in the @example of
    test_ellipsoid_matches_oracle) and ellipsoids whose lattice points lie
    on w^T x = 0 (2 w w^T added); boxes with zero half-widths among the
    others; vertex bodies in general position, in a proper subspace, and
    a single point, the origin among them."""
    small = st.integers(-3, 3) if d < 4 else st.integers(-2, 2)
    vec = st.lists(small, min_size=d, max_size=d)
    unit = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    if kind == "ellipsoid":
        r = [draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=d, max_size=d)) for _ in range(d)]
        r2 = Fraction(draw(st.integers(2, (40, 40, 25, 12, 8, 6)[d - 1])), draw(st.integers(1, 2)))
        form = [[(sum(row[i] * row[j] for row in r) + (i == j)) / r2 for j in range(d)] for i in range(d)]
        shape = draw(st.sampled_from(["round", "round", "plate", "subspace"]))
        if shape != "round":
            w = draw(unit.filter(any))
            lam = draw(st.integers(2, 50)) if shape == "plate" else 2
            form = [[form[i][j] + lam * w[i] * w[j] for j in range(d)] for i in range(d)]
        return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))
    if kind == "box":
        halves = st.sampled_from([0, 0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2)])
        return ConvexBody.box([draw(halves) for _ in range(d)])
    shape = draw(st.sampled_from(["general", "subspace", "point"]))
    if shape == "point":
        return ConvexBody.vertices([draw(vec)])
    if shape == "general":
        return ConvexBody.vertices([draw(vec) for _ in range(draw(st.integers(1, d + 1)))])
    basis = [draw(unit) for _ in range(draw(st.integers(1, max(d - 1, 1))))]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
    combos = [draw(coeffs) for _ in range(draw(st.integers(1, 4)))]
    return ConvexBody.vertices([[sum(map(operator.mul, cs, col)) for col in zip(*basis)] for cs in combos])


def extent_runs(body, lines):
    """The runs that hull_line_extent gives on the last-coordinate lines
    through the prefixes ``lines``: the ceiling of each line's lower end
    and the floor of its upper end, lo raised to 0 on the all-zero prefix,
    where the line holds an integer point."""
    runs = []
    for p in lines:
        sums = [sum(map(operator.mul, normal, p)) for normal, _ in body.hull_facets()]
        span = hull_line_extent(body, sums)
        if span is None:
            continue
        (lo, lo_den), (hi, hi_den) = span
        lo, hi = -(-lo // lo_den), hi // hi_den
        if not any(p):
            lo = max(lo, 0)
        if lo <= hi:
            runs.append((p, lo, hi))
    return runs


def disk(radius_sq, dim=2):
    form = [[Fraction(int(i == j), radius_sq) for j in range(dim)] for i in range(dim)]
    return ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))


class TestEnumBody:
    def test_disk_radius_two(self):
        pts = enum_body(disk(4))
        assert len(pts) == 13
        assert pts.points == tuple(brute_disk_points(4, 2))

    def test_square_halfwidth_one(self):
        pts = enum_body(ConvexBody.box([1, 1]))
        assert len(pts) == 9

    def test_segment(self):
        pts = enum_body(ConvexBody.box([3]))
        assert pts.points == tuple((t,) for t in range(-3, 4))

    def test_vertex_hull_cross_polytope(self):
        pts = enum_body(ConvexBody.vertices([(2, 0), (0, 2)]))
        # |x| + |y| <= 2
        assert len(pts) == 13

    def test_vertex_hull_matches_per_point_lp(self):
        vertices = [(2, 1), (1, 2)]
        assert list(enum_body(ConvexBody.vertices(vertices)).points) == vertex_hull_lattice_points(vertices)

    @given(st.one_of(_points(2, 3), _points(3, 2), _flat_3d(), _points(4, 1)))
    @settings(max_examples=30, deadline=None)
    def test_vertex_hull_matches_caratheodory_oracle(self, vertices):
        body = ConvexBody.vertices(vertices)
        pts = enum_body(body)
        oracle = vertex_hull_lattice_points(vertices)
        assert list(pts.points) == oracle
        assert len(pts) == len(oracle)
        assert list(pts.runs) == sweep_reference(body)

    # a plate |x + y + 2z| <= 1/7 inside the ball of radius 3: the z-line
    # through (1, 0) meets it around z = -1/2 and holds no integer point
    @example([[Fraction(int(i == j), 9) + 49 * a * b for j, b in enumerate((1, 1, 2))]
              for i, a in enumerate((1, 1, 2))])
    @given(_ellipsoid_forms())
    @settings(max_examples=60, deadline=None)
    def test_ellipsoid_matches_oracle(self, form):
        body = ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))
        pts = enum_body(body)
        oracle = ellipsoid_lattice_points(form)
        assert list(pts.points) == oracle
        assert len(pts) == len(oracle)
        assert pts == PointSet(len(form), sweep_runs(oracle))
        assert list(pts.runs) == sweep_reference(body)

    @given(st.lists(_rationals(3).map(abs), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_box_matches_oracle(self, halfwidths):
        body = ConvexBody.box(halfwidths)
        pts = enum_body(body)
        oracle = box_lattice_points(halfwidths)
        assert list(pts.points) == oracle
        assert len(pts) == len(oracle)
        assert list(pts.runs) == sweep_reference(body)

    # at d = 5 one draw, seed 1 (test_random_vertices_5d takes seed 0), and
    # random-ellipsoid needs scale 1 to fit the default box guard
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_matches_sweep_reference(self, kind, dim):
        for seed in range(3) if dim < 5 else (1,):
            body = gen_random(kind, dim, seed, scale=1 if dim == 5 else 2).body
            assert list(enum_body(body).runs) == sweep_reference(body), seed

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("kind", ConvexBody.KINDS)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_generated_sweep_matches_reference(self, kind, d, data):
        body = data.draw(_sweep_bodies(kind, d))
        lines = []
        pts = enum_body(body)
        assert list(pts.runs) == sweep_reference(body, lines)
        assert pts.lines == len(lines)

    @pytest.mark.parametrize("d", [17, 22, 25, 34])
    def test_sweep_past_one_function(self, d):
        # past _KERNEL_LOOPS levels the sweep continues in nested functions;
        # the free coordinates sit on both sides of each hand-over, the
        # other bodies hold one point at any d
        loops = enumeration._KERNEL_LOOPS
        free = sorted({i for i in (loops - 1, loops, 2 * loops - 1, 2 * loops, d - 1) if i < d})
        unit = [[int(i == j) for j in range(d)] for i in range(d)]
        form = [[Fraction(4 * (i == j)) for j in range(d)] for i in range(d)]
        for i in free:
            form[i][i] = Fraction(1, 3)
        for i, j in zip(free, free[1:]):
            form[i][j] = form[j][i] = Fraction(1, 10)
        bodies = [
            ConvexBody.box([0] * d),
            ConvexBody.box([int(i in free) for i in range(d)]),
            disk(Fraction(1, 4), d),
            ConvexBody.from_ellipsoid(Ellipsoid(Mat(form))),
            ConvexBody.vertices([[0] * d]),
            ConvexBody.vertices([[0] * d, unit[free[0]], [-c for c in unit[free[1]]], unit[free[-1]]]),
        ]
        for body in bodies:
            pts, lines = enum_body(body), []
            assert list(pts.runs) == sweep_reference(body, lines)
            assert pts.lines == len(lines)
            assert sum(hi - lo + 1 for _, lo, hi in pts.runs) > 0

    def test_sweep_compiled_once_per_kind_and_dim(self):
        draws = itertools.product(GENERATOR_KINDS, (1, 2, 3), range(3))
        bodies = [gen_random(kind, d, seed).body for kind, d, seed in draws]
        bodies += [ConvexBody.box([2] * d) for d in (1, 2, 3)]
        shapes = {(body.kind, body.dim) for body in bodies}
        enumeration._sweep_kernel.cache_clear()
        for body in bodies:
            enum_body(body)
        info = enumeration._sweep_kernel.cache_info()
        compiled = len(shapes)
        assert (info.misses, info.hits, info.currsize) == (compiled, len(bodies) - compiled, compiled)

    def test_random_vertices_5d(self):
        # 7 vertices, 40 facet rows; both sweeps visit 1 977 last-coordinate
        # lines, which the l1 cut narrows below the last coordinate
        body = gen_random("random-vertices", 5, 0).body
        lines = []
        runs = sweep_reference(body, lines)
        pts = enum_body(body)
        assert list(pts.runs) == runs
        assert (pts.lines, len(lines), len(runs), len(pts)) == (1977, 1977, 90, 353)

    def test_facet_test_once_per_last_line(self):
        # the generated facet test reads each of the 16 last-coordinate
        # lines the reference visits once, and gives hull_line_extent's
        # integer ends on each; two of the rows have N[-1] < 0, which the
        # kernel's arguments flip
        body = ConvexBody.vertices([(3, 1, 0), (0, 2, 1), (1, -1, 2)])
        assert sum(normal[-1] < 0 for normal, _ in body.hull_facets()) == 2
        pts, lines = enum_body(body), []
        assert list(pts.runs) == sweep_reference(body, lines)
        assert list(pts.runs) == extent_runs(body, lines)
        assert pts.lines == len(lines) == 16

    def test_flat_rows_empty_lines(self):
        # conv(±(1, 1, 0), ±(1, 1, 2)) lies in the plane x0 = x1; its rows
        # -x0 + x1 = 0 and |x0| <= 1 have N[-1] = 0, and the first empties
        # the lines through (0, 1), (1, -1) and (1, 0), which the box
        # (1, 1, 2) and the l1 cut 4 keep
        body = ConvexBody.vertices([(1, 1, 0), (1, 1, 2)])
        flat = [(normal, bound) for normal, bound in body.hull_facets() if not normal[-1]]
        assert flat == [((-1, 1, 0), 0), ((1, 0, 0), 1)]
        pts, lines = enum_body(body), []
        assert list(pts.runs) == sweep_reference(body, lines)
        assert list(pts.runs) == extent_runs(body, lines)
        emptied = [p for p in lines if any(abs(sum(map(operator.mul, n, p))) > e for n, e in flat)]
        assert emptied == [(0, 1), (1, -1), (1, 0)]
        assert pts.lines == len(lines) == 5
        assert pts.runs == (((0, 0), 0, 1), ((1, 1), 0, 2))

    def test_kernel_sources_in_linecache(self):
        # a traceback or debugger inside a generated kernel shows its lines
        sweep = enumeration._sweep_kernel.__wrapped__("vertices", 3)
        make = _run_kernel.__wrapped__(3, 2, True)
        for kernel, first in ((sweep, "def sweep(bounds, l1_cap, columns, slant, flat):"), (make, "def make(")):
            line = linecache.getline(kernel.__code__.co_filename, 1)
            assert line.startswith(first) and line.endswith("\n")

    def test_vertex_hull_1d(self):
        pts = enum_body(ConvexBody.vertices([(3,)]))
        assert pts.points == tuple((t,) for t in range(-3, 4))

    def test_budget(self):
        with pytest.raises(BudgetError):
            enum_body(ConvexBody.box([100, 100, 100]), cap=1000)

    def test_facet_budget_before_sweep(self, monkeypatch):
        # the 5x5x3 box fits the budget, the 4 * C(20, 3) = 4560 facet
        # candidates do not; a spy kernel records any sweep
        pts = [(a, b, c) for a in (0, 1, 2) for b in (-1, 0, 1, 2) for c in (-1, 1)][:20]
        swept = []

        def spy(*args):
            swept.append(args)
            return [], 0

        monkeypatch.setattr(enumeration, "_sweep_kernel", lambda kind, d: spy)
        with pytest.raises(BudgetError, match="facet stage"):
            enum_body(ConvexBody.vertices(pts), cap=1000)
        assert swept == []
        assert enum_body(ConvexBody.vertices(pts[:4])) == PointSet(3, [])
        assert len(swept) == 1

    def test_collinear_and_coplanar_3d(self):
        line = enum_body(ConvexBody.vertices([(2, 4, 6)]))
        assert line.points == tuple((t, 2 * t, 3 * t) for t in range(-2, 3))
        # the hexagon conv(±{(1,0), (0,1), (1,1)}) lifted to the plane z = 0
        flat = enum_body(ConvexBody.vertices([(1, 0), (0, 1), (1, 1)]))
        plane = enum_body(ConvexBody.vertices([(1, 0, 0), (0, 1, 0), (1, 1, 0)]))
        assert len(flat) == 7
        assert plane.points == tuple(p + (0,) for p in flat.points)

    def test_monotone(self):
        small = enum_body(disk(4))
        large = enum_body(disk(9))
        assert set(small.points) <= set(large.points)

    @given(st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_symmetry(self, r_sq):
        pts = enum_body(disk(r_sq))
        for p in pts:
            assert tuple(-c for c in p) in pts


class TestEnumGap:
    def test_grid(self):
        g = Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1))
        pts = enum_gap(g)
        assert len(pts) == 9
        assert g.listed_cardinality() == 9

    def test_sheared_proper(self):
        g = Gap(2, (0, 0), ((1, 0), (1, 2)), (1, 1))
        pts = enum_gap(g)
        assert len(pts) == 9
        assert gap_membership_tester(g) is not None

    def test_1d_stride(self):
        g = Gap(1, (0,), ((2,),), (3,))
        assert enum_gap(g) == frozenset((t,) for t in range(-6, 7, 2))

    def test_improper_dedup(self):
        g = Gap(1, (0,), ((1,), (1,)), (1, 1))
        pts = enum_gap(g)
        assert len(pts) == 5 < g.listed_cardinality()
        assert gap_membership_tester(g) is None

    def test_budget(self):
        g = Gap(1, (0,), ((1,),), (10**8,))
        with pytest.raises(BudgetError):
            enum_gap(g)

    def test_order_zero(self):
        g = Gap(2, (1, 1), (), ())
        assert enum_gap(g) == frozenset({(1, 1)})
        assert g.listed_cardinality() == 1

    @given(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=30, deadline=None)
    def test_cardinality_iff_independent(self, halfsides, d1, d2):
        g = Gap(2, (0, 0), (d1, d2), halfsides)
        pts = enum_gap(g)
        if gap_membership_tester(g) is not None:
            assert len(pts) == g.listed_cardinality()


def _in_form(form, bound):
    """Integer points x in [-bound, bound]^2 with x^T form x <= 1, in Fractions."""
    return [
        x
        for x in itertools.product(range(-bound, bound + 1), repeat=2)
        if sum(form[i][j] * x[i] * x[j] for i in range(2) for j in range(2)) <= 1
    ]


def _verify_entry(doc):
    """The verify entry of the instance's run_batch report, read back from
    its JSON text."""
    text = json.dumps(batch_report_to_json(run_batch([parse_instance(doc)])))
    return json.loads(text)["instances"][0]["verify"]


class TestInt64Prechecks:
    """Ellipsoids with large integerized denominators, and progressions at
    and past the int64 range, give the oracle's points, as Python ints that
    the JSON reports can serialize."""

    @pytest.mark.parametrize(
        "base0", [2**62 - 33, 2**62, -(2**62)], ids=["int64", "bigint", "bigint-negative"]
    )
    def test_enum_gap(self, base0):
        # the largest coordinate |base0| + 8 * 1 + 8 * 3 is 2**62 - 1 for
        # the first base and past 2**62 for the other two
        gap = Gap(2, (base0, 5), ((1, 2), (3, -1)), (8, 8))
        pts = enum_gap(gap)
        assert pts == frozenset(gap_points(gap))
        assert len(pts) == 289
        assert all(type(c) is int for p in pts for c in p)
        claim = {"base": [base0, 5], "diffs": [[1, 2], [3, -1]], "halfsides": [8, 8]}
        entry = _verify_entry({"dim": 2, "body": {"type": "ball", "radius": 3}, "gap": claim})
        assert entry["contained"] is False and entry["cardinality_P"] == 289

    @pytest.mark.parametrize("off_den", [2**50, 2**64], ids=["int64", "bigint"])
    def test_enum_body(self, off_den):
        # a disk of radius 10 tilted by a tiny off-diagonal term, which moves
        # boundary points with x1 * x2 > 0 out; the integerized denominator
        # lcm(100, off_den) is 25 * 2**52 or 25 * 2**64
        form = [[Fraction(1, 100), Fraction(1, off_den)], [Fraction(1, off_den), Fraction(1, 100)]]
        body = ConvexBody.from_ellipsoid(Ellipsoid(Mat(form)))
        assert body.int_box_bounds() == (10, 10)
        pts = enum_body(body)
        oracle = _in_form(form, 11)
        assert pts == PointSet(2, sweep_runs(oracle))
        assert pts.points == tuple(oracle)
        assert (6, 8) not in pts.points and (6, -8) in pts.points
        assert all(type(c) is int for p in pts for c in p)
        doc = {
            "dim": 2,
            "body": {"type": "ellipsoid", "form": [[str(x) for x in row] for row in form]},
            "gap": {"base": [0, 0], "diffs": [[1, 0], [0, 1]], "halfsides": [9, 9]},
        }
        assert _verify_entry(doc)["witness"] == [-10, 0]


class TestSubsetCheck:
    def test_disk_in_box(self):
        pts = enum_body(disk(4))
        ok, witness = subset_check(pts, lambda p: abs(p[0]) <= 2 and abs(p[1]) <= 2)
        assert ok and witness is None

    def test_grid_not_in_disk(self):
        grid = enum_gap(Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1)))
        ok, witness = subset_check(grid, lambda p: p[0] ** 2 + p[1] ** 2 <= 1)
        assert not ok
        assert witness is not None
        assert witness[0] ** 2 + witness[1] ** 2 > 1
        assert witness in grid


class TestProjectCount:
    def test_grid_diagonal(self):
        grid = enum_gap(Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1)))
        count, fiber = project_count(grid, (1, 1))
        assert count == 5
        assert fiber == 3

    def test_zero_functional(self):
        grid = enum_gap(Gap(2, (0, 0), ((1, 0), (0, 1)), (1, 1)))
        count, fiber = project_count(grid, (0, 0))
        assert count == 1
        assert fiber == len(grid)

    def test_disk_first_coordinate(self):
        pts = enum_body(disk(4))
        count, fiber = project_count(pts, (1, 0))
        assert count == 5
        # fiber over x=0 is (0,-2)..(0,2)
        assert fiber == 5

    def test_dimension_mismatch(self):
        pts = enum_body(disk(4))
        with pytest.raises(DimensionError):
            project_count(pts, (1,))

    @given(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=30),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_consistency(self, raw_pts, phi):
        s = frozenset(raw_pts)
        count, fiber = project_count(s, phi)
        # fibers partition the set; the largest times the image count covers it
        assert fiber * count >= len(s)
        assert count <= len(s)
