"""The support function and the guarantees of half-sides read from it.

``ConvexBody.int_support(t)`` is floor(h_K(t)), and cover's half-sides are
n_j = int_support(t_j) over the rows t_j of the reduction's T.  These tests
hold it to a Fraction oracle of max{t . x : x in K} on every body kind,
the restricted body of a degenerate one included, and check what follows:
every n_j >= 1, every stage inequality, and half-sides no larger than the
l1 widths floor(||row_j(T G)||_1) of the circumscribed parallelotope's
generators G.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gapcover.cover
from gapcover import harness
from gapcover.cover import cover, restrict_to_span, stage_chain
from gapcover.enumeration import DEFAULT_BUDGET, box_point_count
from gapcover.errors import BudgetError
from gapcover.exactalg import Mat
from gapcover.geomcore import ConvexBody, Ellipsoid

from _golden import instances as golden_instances
from _oracles import fraction_det, l1_halfsides, support_floor
from test_cover import spanless_bodies

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def directions(d):
    return st.lists(st.integers(-6, 6), min_size=d, max_size=d)


@st.composite
def ellipsoid_bodies(draw):
    """{x : x^T B B^T x <= r^2}, d = 1..4, B nonsingular with entries
    n / m, |n| <= 5 and 1 <= m <= 4, r^2 a positive rational."""
    d = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    b = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(fraction_det(b) != 0)
    r2 = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 7)))
    return ConvexBody.from_ellipsoid(Ellipsoid((Mat(b) @ Mat(b).transpose()).scale(1 / r2)))


@st.composite
def vertex_bodies(draw):
    """conv(±points), 1..5 points in Q^d, d = 1..4, rational coordinates
    with denominators up to 6."""
    d = draw(st.integers(1, 4))
    coord = st.fractions(-9, 9, max_denominator=6)
    return ConvexBody.vertices(draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5)))


@st.composite
def box_bodies(draw):
    d = draw(st.integers(1, 4))
    return ConvexBody.box(draw(st.lists(st.fractions(0, 9, max_denominator=5), min_size=d, max_size=d)))


@st.composite
def bodies_and_directions(draw):
    body = draw(st.one_of(ellipsoid_bodies(), vertex_bodies(), box_bodies()))
    return body, draw(directions(body.dim))


class TestIntSupport:
    @given(bodies_and_directions())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_oracle(self, case):
        body, t = case
        assert body.int_support(t) == support_floor(body, t)

    @given(st.one_of(ellipsoid_bodies(), vertex_bodies(), box_bodies()))
    @settings(max_examples=60, deadline=None)
    def test_box_bounds_are_unit_supports(self, body):
        d = body.dim
        units = [[int(i == j) for i in range(d)] for j in range(d)]
        assert body.int_box_bounds() == tuple(body.int_support(e) for e in units)
        assert body.int_box_bounds() == tuple(support_floor(body, e) for e in units)

    @given(spanless_bodies(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_restricted_body(self, body, data):
        # the body cover reads its half-sides from on a proper subspace: the
        # ellipsoid pulled back, or the hull of C in the sublattice's
        # coordinates
        red = restrict_to_span(body)
        assume(0 < red.k < body.dim)
        t = data.draw(directions(red.k))
        assert red.body.int_support(t) == support_floor(red.body, t)

    def test_examples(self):
        disk = ConvexBody.from_ellipsoid(Ellipsoid(Mat([[Fraction(1, 5), 0], [0, Fraction(1, 5)]])))
        assert [disk.int_support(t) for t in ((1, 0), (1, 1), (2, 1), (0, 0))] == [2, 3, 5, 0]
        hull = ConvexBody.vertices([(Fraction(7, 2), 1), (1, Fraction(-5, 3))])
        assert [hull.int_support(t) for t in ((1, 0), (0, 1), (1, -1), (-2, 3))] == [3, 1, 2, 7]
        box = ConvexBody.box([Fraction(5, 2), Fraction(4, 3)])
        assert [box.int_support(t) for t in ((1, 0), (1, 1), (-1, 2))] == [2, 3, 5]


def cover_traced(body):
    """cover(body), with the ellipsoid handed to circumscribe_parallelotope
    and the T that lll_reduce returned, both None without stages."""
    seen = {}
    circumscribe, reduce = gapcover.cover.circumscribe_parallelotope, gapcover.cover.lll_reduce

    def circumscribe_seen(e):
        seen["e"] = e
        return circumscribe(e)

    def reduce_seen(gram):
        seen["t"] = reduce(gram)
        return seen["t"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapcover.cover, "circumscribe_parallelotope", circumscribe_seen)
        mp.setattr(gapcover.cover, "lll_reduce", reduce_seen)
        gap, report = cover(body)
    return gap, report, seen.get("e"), seen.get("t")


def corpus(workload, seed=1):
    """The benchmark corpus of a workload, as parsed instances."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up
    spec.loader.exec_module(workloads)
    return [harness.parse_instance(doc) for doc in workloads.generate(harness, workload, seed)]


HIGH_DIM = [
    (kind, d, seed, kw)
    for kind, kw in (("random-vertices", {}), ("lattice-ball", {}), ("lattice-ball", {"radius": 6}))
    for d in (5, 6)
    for seed in range(3)
]


class TestGuarantees:
    @given(st.one_of(spanless_bodies(), vertex_bodies(), ellipsoid_bodies(), box_bodies()))
    @settings(max_examples=60, deadline=None)
    def test_halfsides_at_least_one(self, body):
        # h_K(t) >= 1 for every nonzero integer t, since C spans Z^k; a body
        # whose bounding box is over the budget is refused before any work
        if box_point_count(body) > DEFAULT_BUDGET:
            with pytest.raises(BudgetError, match="bounding box"):
                cover(body)
            return
        gap, report, _, _ = cover_traced(body)
        assert report.contained
        assert all(n >= 1 for n in gap.halfsides)

    def test_stage_chain_on_golden_instances(self):
        for name, spec in golden_instances():
            if spec.gap is None and name != "budget-skip":  # cover mode, within its budget
                _, report = cover(spec.body, spec.budget)
                assert all(stage_chain(report).values()), name

    @pytest.mark.parametrize("kind, d, seed, kw", HIGH_DIM, ids=[f"{k}-{d}-{s}-{kw}" for k, d, s, kw in HIGH_DIM])
    def test_stage_chain_high_dimension(self, kind, d, seed, kw):
        _, report = cover(harness.gen_random(kind, d, seed, **kw).body)
        assert report.contained
        assert all(stage_chain(report).values())

    @pytest.mark.parametrize("workload", ["vertex-bodies", "ellipsoid-bodies", "projection"])
    def test_halfsides_not_above_parallelotope_l1(self, workload):
        # the half-sides floor(||row_j(T G)||_1) read off Q's generators G
        # bound n_j = floor(h_K(t_j)) from above, since K is inside E and E
        # inside Q
        for spec in corpus(workload):
            gap, report, e, t = cover_traced(spec.body)
            assert report.contained
            if e is not None:
                old = l1_halfsides(e, t.int_rows)
                assert all(n <= m for n, m in zip(gap.halfsides, old)), (spec.to_json_dict(), gap.halfsides, old)
