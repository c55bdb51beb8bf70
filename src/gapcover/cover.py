"""End-to-end covering pipeline with exact certificates.

Given a centrally symmetric convex body, produce a generalized arithmetic
progression containing every lattice point of the body, certify the
containment with a membership test built from the progression alone, and
measure the covering ratio.  The body's lattice points C are found once per
instance, as the runs of its line sweep (the points on one line of the last
coordinate), and kept as runs; C is listed only for a listed P, and a
degenerate vertex body reads the ends of its runs.  The progression P is
listed only when its differences are dependent; otherwise the runs are
tested in one scan, straight-line integer code compiled once per shape, and
each run is tested at once from the numerators of one exact integer solve.
That solve is T itself when cover's P has full rank, used only after one
integer product checks it against P's differences; otherwise (a restricted
body, or a claim given to verify_cover) one Gauss-Jordan pass over P's
differences builds it.  The stages:

1. enclosing ellipsoid E = {x : x^T A x <= 1} of the body: the body itself
   for an ellipsoid, otherwise the moment form of its spanning points, or
   of a basis of them when they crowd into few directions (geomcore.mvee):
   an integer inverse scaled so that every point lies in E and one on its
   boundary, with E within a factor k of the body,
2. its dual form A^-1 = R / p in integers, kept on A (by mvee, as a multiple
   of the moment matrix, or by one inverse of a given form), and the exact
   squared volume |Q|^2 = 4^k / det A of the parallelotope Q along the
   factorization A = U D U^T that circumscribes E,
3. LLL on the Gram matrix R, which returns the unimodular T with T^-1, built
   by the same row operations; its rows t_j are a reduced basis of the dual
   lattice in the metric of E,
4. the reduced parallelotope Q' = {x : |t_j . x| <= h_E(t_j)}, with the
   exact squared widths h_E(t_j)^2 = t_j R t_j^T / p as the reduction's
   certificate, the box B of the coordinates y = T x over Q',
5. progression P = preimage of the integer box |y_j| <= n_j under x -> T x,
   i.e. base 0, differences = columns of T^-1, half-sides
   n_j = floor(h_K(t_j)) from the body's own support function, so that
   C ⊆ P holds by construction: t_j . x is an integer of size at most
   h_K(t_j) for every x in C.

Bodies whose lattice points span a proper subspace are first restricted to
that subspace (saturated sublattice via Hermite-form kernels) and the
progression is pushed back to ambient coordinates.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

from .enumeration import (
    DEFAULT_BUDGET,
    Gap,
    IntPoint,
    PointSet,
    Run,
    _compile_kernel,
    _dot,
    _tup,
    check_listing,
    enum_body,
    enum_gap,
    project_count,
    subset_check,
)
from .errors import BudgetError, CertificationError, DimensionError, RankError
from .exactalg import (
    Frozen,
    IntegerSolver,
    Mat,
    _independent_rows,
    _integer_solver,
    _is_inverse,
    det,  # not called here; perfbench/tracing.py wraps cover.det
    int_matmul,
    integer_kernel,
    inverse,  # not called here; perfbench/tracing.py wraps cover.inverse
    left_kernel,
    unimodular_solve,  # not called here; perfbench/tracing.py wraps cover.unimodular_solve
)
from .geomcore import (
    ConvexBody,
    Ellipsoid,
    circumscribe_parallelotope,
    mvee,
)
from .latred import certify_reduction, lll_reduce

# Pinned pipeline constants; stage_chain checks each inequality exactly on
# every report:
# covering ratio bound  #P/#C <= RATIO_CONSTANT * d^(3d)
# parallelotope stage   |Q|^2 <= (PARALLELOTOPE_CONSTANT * k)^(2k) * #C^2
# box stage             |B|^2 <= (BOX_CONSTANT * k)^(4k) * |Q|^2
RATIO_CONSTANT = Fraction(1)
PARALLELOTOPE_CONSTANT = Fraction(4)
BOX_CONSTANT = Fraction(1)
STAGES = ("parallelotope", "box", "count")  # the keys of CoverReport.stage_factors


@cache
def covering_bound(dim: int) -> Fraction:
    """Documented covering-ratio bound RATIO_CONSTANT * dim^(3 dim), formed
    once per dim (a Fraction is immutable)."""
    d = max(dim, 1)
    return RATIO_CONSTANT * Fraction(d) ** (3 * d)


@dataclass(frozen=True)
class SubspaceReduction:
    """Restriction of a body to the saturated lattice of span(C).

    ``embed`` maps Z^k onto Z^dim ∩ span(C) (columns are a lattice basis)
    when that is a proper subspace, 0 < k < dim; it is None when no
    embedding is needed: k = 0 (C = {0}) or k = dim (``is_identity``).
    """

    dim: int
    k: int
    embed: Mat | None
    body: ConvexBody | None
    ambient_points: PointSet

    @property
    def is_identity(self) -> bool:
        return self.k == self.dim


@dataclass(frozen=True)
class StageDiagnostics:
    """What each stage of cover built, in exact squares; the field names are
    the keys of a report's ``stages`` record.  ``mvee_used`` says whether
    the ellipsoid is mvee's moment form.  |B|^2 = 4^k prod h_E(t_j)^2, and
    ``reduction_ratio_sq`` = |B|^2 / |Q|^2 is the reduced basis' squared
    orthogonality defect."""

    subspace_dim: int
    mvee_used: bool
    volume_parallelotope_sq: Fraction
    volume_box_sq: Fraction
    box_halfwidths_sq: tuple[Fraction, ...]
    reduction_ratio_sq: Fraction


@dataclass(frozen=True)
class CoverReport:
    """Outcome of certifying C ⊆ P.  The last three fields are what the
    certificate worked from, which the projection check (verify_projection)
    reads and the JSON reports leave out: ``lattice_points`` is C as the
    runs of its sweep, which were tested; ``gap`` is the progression P that
    was certified; ``gap_points`` is P's listing when its active differences
    (half-side >= 1) are dependent, and None when the certificate proved
    them independent: gap_membership_tester built a tester, from the one
    integer product that checked cover's T or from one Gauss-Jordan pass,
    and P was not listed."""

    dim: int
    cardinality_C: int
    cardinality_P: int
    ratio: Fraction
    bound_value: Fraction
    contained: bool
    witness: tuple[int, ...] | None
    stages: StageDiagnostics | None
    timings_ms: dict
    lattice_points: PointSet = field(compare=False, repr=False)
    gap: Gap = field(compare=False, repr=False)
    gap_points: frozenset[IntPoint] | None = field(compare=False, repr=False)

    @cached_property
    def stage_factors(self) -> dict[str, Fraction] | None:
        """Exact per-stage inequalities with the pinned constants, each as
        the factor lhs / rhs, so that it holds iff its factor is <= 1; None
        for a report without stages.  Computed once per report, for
        stage_chain and the batch maxima alike, each as one Fraction of
        integers.

        The inequalities are compared in squares, which need no root:

        parallelotope: |Q|^2 <= (PARALLELOTOPE_CONSTANT * k)^(2k) * #C^2
        box:           |B|^2 <= (BOX_CONSTANT * k)^(4k) * |Q|^2
        count:         #P^2  <= 4^k * |B|^2
        """
        s = self.stages
        if s is None:
            return None
        k, pc, bc = s.subspace_dim, PARALLELOTOPE_CONSTANT, BOX_CONSTANT
        q, b = s.volume_parallelotope_sq, s.volume_box_sq
        return {
            "parallelotope": _over(q, (pc.numerator * k) ** (2 * k) * self.cardinality_C**2, pc.denominator ** (2 * k)),
            "box": _over(b, (bc.numerator * k) ** (4 * k) * q.numerator, bc.denominator ** (4 * k) * q.denominator),
            "count": _over(self.cardinality_P**2, 4**k * b.numerator, b.denominator),
        }


def _over(a: Fraction | int, num: int, den: int) -> Fraction:
    """a / (num / den) as one Fraction of integers: a single gcd."""
    return Fraction(a.numerator * den, a.denominator * num)


@dataclass(frozen=True)
class ProjectionReport:
    """Images of C and of P under an integer functional, with #P and #(P+P)
    (see verify_projection), both read from a CoverReport.  The C side comes
    from the runs of the point set the certification found; the P side from
    closed forms and a sparse convolution when the certificate proved the
    active differences independent, otherwise from a listing of P.

    ``sumset_cardinality`` and ``doubling_ok`` are None only when
    ``degraded``: P has dependent differences and P+P lists more points than
    the budget, so the chain is checked by the membership-based bound.  The
    field names are the keys of a report's ``projection`` record.
    """

    functional: tuple[int, ...]
    image_count_C: int
    image_count_P: int
    max_fiber_C: int
    max_fiber_P: int
    cardinality_P: int
    sumset_cardinality: int | None
    doubling_ok: bool | None
    fiber_monotone: bool
    chain_ok: bool
    corollary_ok: bool
    degraded: bool

    @property
    def holds(self) -> bool:
        """The projection verdict: the chain, the corollary and fibre
        monotonicity all hold."""
        return self.chain_ok and self.corollary_ok and self.fiber_monotone


def restrict_to_span(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> SubspaceReduction:
    """Restrict a body to the saturated sublattice Z^d ∩ span of its lattice
    points.  Identity reduction when the points already span; k = 0 when the
    only lattice point is the origin.  The span is read off the nonzero run
    ends, which span C: the k of them that raise the rank, last runs first,
    are a basis of it, and its saturated lattice is taken from those k.

    On a proper subspace an ellipsoid is pulled back by the embedding and
    no point is solved; any other body becomes the vertex body of its
    distinct nonzero run ends, solved in the sublattice's coordinates: every
    point of C lies between the ends of its run or of the mirrored run, so
    their hull is conv(C).  When e_d is not in the span, every run is one
    point, and the ends are all of C but the origin."""
    c_points = enum_body(body, cap)
    d = body.dim
    # the last runs first: a spanning body reaches rank d after a few ends
    ends = _independent_rows(_run_ends(reversed(c_points.runs)), d)
    k = len(ends)
    if k == 0:
        return SubspaceReduction(d, 0, None, None, c_points)
    if k == d:
        return SubspaceReduction(d, d, None, body, c_points)

    # functionals vanishing on span(C), from the k ends that span it; the
    # saturated lattice is the integer solutions of those functionals
    basis_rows = left_kernel(Mat(integer_kernel(ends, d)).transpose())
    if len(basis_rows) != k:
        raise RankError("saturated sublattice has unexpected rank")
    embed = Mat(basis_rows).transpose()  # d x k, columns = lattice basis

    if body.kind == "ellipsoid":
        # embed^T A embed, with A = num / den and embed^T = basis_rows
        form = body.ellipsoid_rep.form
        pulled = int_matmul(basis_rows, int_matmul(form.num, list(zip(*basis_rows))))
        body0 = ConvexBody.from_ellipsoid(Ellipsoid(Mat(pulled, form.den)))
    else:
        solve_embed = _integer_solver(basis_rows, d)
        if solve_embed is None:
            raise RankError("embedding matrix is rank deficient")
        reduced = []
        for p in dict.fromkeys(_run_ends(c_points.runs)):
            y = solve_embed(p)
            if y is None:
                raise RankError("lattice point outside the saturated sublattice")
            reduced.append(y)
        body0 = ConvexBody.vertices(reduced)
    return SubspaceReduction(d, k, embed, body0, c_points)


def _run_ends(runs: Sequence[Run]):
    """The nonzero ends of the runs, lo before hi, in the runs' order."""
    return (p for prefix, lo, hi in runs for p in (prefix + (lo,), prefix + (hi,)) if any(p))


@cache
def _run_kernel(d: int, k: int, shifted: bool):
    """The run certificate of a progression in Z^d with k independent
    active differences, compiled once per (d, k, shifted):
    make(adj, den, bounds, others, base, stepless) returns scan(runs), the
    index of the first run not inside P, or None.  The IntegerSolver's
    entries (adj, den, its d - k ``others`` rows), the bounds n_j |den|,
    the base and whether e_d has no solve are arguments of make; only d, k
    and ``shifted`` (a nonzero base) enter the generated source.

    Each run prefix + (t,), lo <= t <= hi, is unpacked into locals x_i, the
    base subtracted, and v = adj @ x, the numerators of y(lo) = v / den,
    written out term by term.  The solve is linear, so y(t) = y(lo) +
    (t - lo) adj[:, d - 1] / den, and the box |y_j| <= n_j is convex: the
    run lies in P iff, when hi > lo, e_d has a solve (two consecutive points
    in P differ by e_d), and for each j den divides v_j, |v_j| <= n_j |den|
    and |v_j + (hi - lo) adj_j[d - 1]| <= n_j |den|, and each ``others``
    row holds (row . v = den x_i).  These are the tests of the generic loop
    ``run_reference`` in tests/_oracles.py, in its order."""
    r, a = range(d), range(k)
    x = [f"x{i}" for i in r]
    adj = [[f"a{j}_{i}" for i in r] for j in a]
    others = [([f"o{o}_{j}" for j in a], f"i{o}") for o in range(d - k)]

    def fail(test: str) -> list[str]:
        return [f"            if {test}:", "                return index"]

    body = [f"            {xi} -= b{i}" for i, xi in enumerate(x)] if shifted else []
    for j in a:
        body += [f"            v{j} = {_dot(zip(adj[j], x))}"]
        body += fail(f"v{j} % den or abs(v{j}) > n{j} or abs(v{j} + span * {adj[j][-1]}) > n{j}")
    for row, i in others:
        body += fail(f"{_dot(zip(row, (f'v{j}' for j in a)))} != den * {_tup(x)}[{i}]")
    source = [
        "def make(adj, den, bounds, others, base, stepless):",
        f"    {_tup(map(_tup, adj))} = adj",
        f"    {_tup(f'n{j}' for j in a)} = bounds",
        f"    {_tup(f'({_tup(row)}, {i})' for row, i in others)} = others",
        *([f"    {_tup(f'b{i}' for i in r)} = base"] if shifted else []),
        "    def scan(runs):",
        f"        for index, ({_tup(x[:-1])}, {x[-1]}, hi) in enumerate(runs):",
        f"            if stepless and hi > {x[-1]}:",
        "                return index",
        f"            span = hi - {x[-1]}",
        *body,
        "        return None",
        "    return scan",
    ]
    return _compile_kernel(source, f"<run kernel d={d} k={k} shifted={shifted}>")


class GapMembership(Frozen):
    """Exact membership in a progression whose active differences
    (half-side >= 1) are independent, from one IntegerSolver of
    p - base = sum y_j v_j over them.  ``scan(runs)`` tests runs in turn,
    in numerator space, and gives the index of the first not inside P, or
    None (see _run_kernel); calling it tests one point, as a run of one."""

    __slots__ = ("base", "scan")

    def __init__(self, base: tuple[int, ...], halfsides: tuple[int, ...], solve: IntegerSolver):
        d, den = len(base), solve.den
        stepless = solve((0,) * (d - 1) + (1,)) is None
        bounds = [n * abs(den) for n in halfsides]
        make = _run_kernel(d, len(halfsides), any(base))
        self._set(base=base, scan=make(solve.adj, den, bounds, solve.others, base, stepless))

    def __call__(self, p: Sequence[int]) -> bool:
        if len(p) != len(self.base):
            raise DimensionError(f"point has dimension {len(p)}, progression {len(self.base)}")
        return self.scan(((p[:-1], p[-1], p[-1]),)) is None


def gap_membership_tester(
    gap: Gap, inverse: Sequence[Sequence[int]] | None = None
) -> GapMembership | None:
    """Exact membership test that trusts only the progression, for
    differences whose active ones (half-side >= 1) are independent: solve
    p - base = sum y_j v_j over the active differences in integers and
    require |y_j| <= n_j, for one point or for each run of a sequence
    (GapMembership.scan).  The inactive ones only ever take coefficient 0,
    and they may depend on the active ones.  Without active differences
    P = {base}.  None when the active differences are dependent.

    Without ``inverse`` the solve comes from one Gauss-Jordan pass over the
    active differences.  ``inverse`` is a claimed inverse T of P's
    difference matrix M (its columns the differences), such as the
    reduction's T in cover: it is the solve, y = T (p - base) with
    denominator 1 and no further rows, once one integer product has checked
    M T = I exactly against P's own differences (so T M = I: both are
    square), and CertificationError is raised when it does not hold.  The
    claim fits only a P of d differences that are all active: DimensionError
    otherwise."""
    if inverse is not None:
        if gap.order != gap.dim or 0 in gap.halfsides:
            raise DimensionError(
                f"a claimed inverse needs {gap.dim} differences of half-side >= 1, "
                f"the progression has half-sides {gap.halfsides}"
            )
        if not _is_inverse(tuple(zip(*gap.diffs)), inverse):
            raise CertificationError("the claimed inverse of the progression's differences is not one: T M != I")
        return GapMembership(gap.base, gap.halfsides, IntegerSolver(inverse, 1, []))
    active = [(v, n) for v, n in zip(gap.diffs, gap.halfsides) if n >= 1]
    solve = _integer_solver([v for v, _ in active], gap.dim)
    if solve is None:
        return None
    return GapMembership(gap.base, tuple(n for _, n in active), solve)


def cover(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> tuple[Gap, CoverReport]:
    """Run the full pipeline and certify the result.

    Returns the covering progression and a report whose ``contained`` flag
    comes from the same certification as verify_cover: every run of the
    body's lattice points is tested with gap_membership_tester, and P is not
    listed.  When the body's lattice points span (no restriction), P's
    differences are the columns of T^-1 and the tester's solve is the
    reduction's T, checked against them by one integer product; otherwise
    it is built from P alone.  Either way no unchecked pipeline state enters
    the certificate.  Any False here is a bug, not a tolerance issue.  The
    report also carries the stage diagnostics and the point set C.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    red = restrict_to_span(body, cap)
    timings["enumerate_ms"] = (time.perf_counter() - t0) * 1000.0
    d = body.dim

    if red.k == 0:
        gap = Gap(d, (0,) * d, (), ())
        return gap, _certify(red.ambient_points, gap, cap, timings)

    k = red.k
    body0 = red.body

    t0 = time.perf_counter()
    mvee_used = body0.kind != "ellipsoid"
    enclosing = mvee(body0.spanning_points()) if mvee_used else body0.ellipsoid_rep
    timings["ellipsoid_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    gram, p, vol_q_sq = circumscribe_parallelotope(enclosing)
    timings["parallelotope_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    t_lll = lll_reduce(gram)
    timings["reduce_ms"] = (time.perf_counter() - t0) * 1000.0

    # n_j = floor(h_K(t_j)) >= 1: C spans, so t_j . c is a nonzero integer
    # for some c in C
    halfsides = tuple(body0.int_support(t) for t in t_lll.int_rows)
    # the differences are the columns of T^-1, pushed back by the embedding
    cols = t_lll.inverse().int_rows
    if not red.is_identity:
        cols = int_matmul(red.embed.int_entries(), cols)
    gap = Gap(d, (0,) * d, tuple(zip(*cols)), halfsides)

    widths_sq = certify_reduction(t_lll, gram, p)
    vol_box_sq = Fraction(4**k * math.prod(w.numerator for w in widths_sq), math.prod(w.denominator for w in widths_sq))
    stages = StageDiagnostics(
        subspace_dim=k,
        mvee_used=mvee_used,
        volume_parallelotope_sq=vol_q_sq,
        volume_box_sq=vol_box_sq,
        box_halfwidths_sq=widths_sq,
        reduction_ratio_sq=_over(vol_box_sq, vol_q_sq.numerator, vol_q_sq.denominator),
    )
    claim = t_lll.int_rows if red.is_identity else None
    return gap, _certify(red.ambient_points, gap, cap, timings, stages, claim)


def stage_chain(report: CoverReport) -> dict[str, bool]:
    """Whether each inequality of CoverReport.stage_factors holds; all True
    without stages.  A factor is a Fraction in lowest terms with a positive
    denominator, so it is <= 1 iff its numerator is <= its denominator."""
    factors = report.stage_factors
    if factors is None:
        return dict.fromkeys(STAGES, True)
    return {name: factor.numerator <= factor.denominator for name, factor in factors.items()}


def verify_cover(body: ConvexBody, gap: Gap, cap: int = DEFAULT_BUDGET) -> CoverReport:
    """Independent verification of a covering claim.

    Finds the body's lattice points and certifies them against the
    progression (see _certify): by gap_membership_tester when the active
    differences are independent, by a listing of P when they are dependent.
    Nothing of the pipeline is used.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    c_points = enum_body(body, cap)
    timings["enumerate_ms"] = (time.perf_counter() - t0) * 1000.0
    return _certify(c_points, gap, cap, timings)


def _certify(
    c_points: PointSet,
    gap: Gap,
    cap: int,
    timings: dict,
    stages: StageDiagnostics | None = None,
    inverse: Sequence[Sequence[int]] | None = None,
) -> CoverReport:
    """Certify C ⊆ P, trusting only the progression; the witness is the
    lexicographically first point of C outside P.  The report is built
    once, with the ``stages`` given (cover's) or None (verify_cover's).

    With independent active differences, gap_membership_tester's scan tests
    the runs of C (see PointSet) in one pass, each at once, up to the first
    failing run, and only that run point by point (_first_outside);
    #P = prod(2 n_i + 1), and P is not listed.  The tester's solve is
    ``inverse``, cover's T, when one is given, after one integer product has
    checked it against P's differences (CertificationError if it fails);
    without one it is one Gauss-Jordan pass over them.
    With dependent ones, P and C are listed once, for #P and the membership
    of each point in turn, and the report keeps P's listing for the
    projection check.  The certification time and the numbers of runs and
    points tested are added to ``timings``, which the report keeps.
    """
    if gap.dim != c_points.dim:
        raise DimensionError(f"progression has dimension {gap.dim}, lattice points {c_points.dim}")
    t0 = time.perf_counter()
    member = gap_membership_tester(gap, inverse)
    listed = None
    if member is not None:
        witness, runs_tested, points_tested = _first_outside(c_points.runs, member)
        contained = witness is None
        card_p = gap.listed_cardinality()
    else:
        listed = enum_gap(gap, cap)
        contained, witness = subset_check(c_points, listed.__contains__)
        card_p = len(listed)
        runs_tested, points_tested = 0, len(c_points) if contained else c_points.points.index(witness) + 1
    timings["certify_ms"] = (time.perf_counter() - t0) * 1000.0
    timings.update(runs_tested=runs_tested, points_tested=points_tested)

    card_c = len(c_points)
    return CoverReport(
        dim=c_points.dim,
        cardinality_C=card_c,
        cardinality_P=card_p,
        ratio=Fraction(card_p, card_c) if card_c else Fraction(1),
        bound_value=covering_bound(c_points.dim),
        contained=contained,
        witness=witness,
        stages=stages,
        timings_ms=timings,
        lattice_points=c_points,
        gap=gap,
        gap_points=listed,
    )


def _first_outside(runs: Sequence[Run], member: GapMembership) -> tuple[tuple[int, ...] | None, int, int]:
    """(first point of C outside P in lexicographic order or None, runs
    tested, points tested), C being the runs and their negatives.  With base
    0, P = -P: the swept runs are scanned last first, and the first failing
    one is tested point by point from t = hi down, since minus its first
    failing point is the witness.  Otherwise the mirrored runs, last first,
    and then the swept runs are C in order, one scan tests them, and the
    first failing run is tested point by point in t order.  The runs tested
    are those up to and including the failing one."""
    shifted = any(member.base)
    if shifted:
        order = [(tuple(-c for c in prefix), -hi, -lo) for prefix, lo, hi in reversed(runs)]
        order += runs
    else:
        order = runs  # scanned last first, so failure i is runs[~i]
    failed = member.scan(order if shifted else reversed(runs))
    if failed is None:
        return None, len(order), 0
    prefix, lo, hi = order[failed if shifted else ~failed]
    ts = range(lo, hi + 1) if shifted else range(hi, lo - 1, -1)
    for count, t in enumerate(ts, 1):
        p = prefix + (t,)
        if not member(p):
            return (p if shifted else tuple(-c for c in p)), failed + 1, count
    raise CertificationError(f"run {prefix} + [{lo}, {hi}] fails its run test, but none of its points")


def verify_projection(report: CoverReport, phi: Sequence[int], cap: int = DEFAULT_BUDGET) -> ProjectionReport:
    """Exact verification of the image-size chain under an integer functional,
    for the progression P and the lattice points C of a certificate
    (cover's or verify_cover's report).

    Checks #phi(P) * m' <= #(P+P), #(P+P) * m <= 2^order * #P * m', the
    doubling fact #(P+P) <= 2^order * #P, and the covering corollary
    #phi(P) <= bound * #phi(C), in integers, where m and m' are the largest
    fibres of phi on C and on P.  C is ``report.lattice_points``; it is
    neither swept again nor listed here: phi is counted over the swept runs
    only, a run adding phi(prefix) + phi_d t for lo <= t <= hi, all at once
    when phi_d = 0, and the fibres of C are then F(x) = N(x) + N(-x) - [x = 0]
    over the distinct swept values x, the origin being swept exactly once.

    When the certificate proved P's active differences independent
    (``report.gap_points`` is None), P and P+P are proper and nothing of
    them is listed, nor tested again: #P = prod(2 n_i + 1),
    #(P+P) = prod(4 n_i + 1), and the fibre sizes of phi on P are the
    coefficients of prod_i (x^(-n_i c_i) + ... + x^(n_i c_i)),
    c_i = phi(d_i), convolved exactly in Python ints and sparsely, a dict
    over the values reached (a step with c_i = 0 only scales them by
    2 n_i + 1).  ``cap`` then bounds
    that convolution, summed per step: step i holds at most
    min(prod_{j<i} (2 n_j + 1), 1 + sum_{j<i} 2 n_j |c_j|) fibres and
    multiplies each by 2 n_i + 1 shifts.  The bound is checked before any
    work starts, C's image included, and BudgetError names the projection
    stage.

    Otherwise P is the certificate's listing (``report.gap_points``), not
    listed again, and P+P is listed; ``cap`` bounds each listing, a P above
    it raising the BudgetError of enum_gap, and when P+P exceeds it the
    report is ``degraded`` to the membership-based bound
    #phi(P) * m <= 2^order * #P; only dependent differences can degrade.
    """
    gap = report.gap
    phi = tuple(map(int, phi))
    if len(phi) != gap.dim:
        raise DimensionError(f"functional has {len(phi)} coefficients, progression {gap.dim}")
    order = gap.order
    if report.gap_points is None:
        steps = [
            (abs(sum(map(operator.mul, phi, v))), n)
            for v, n in zip(gap.diffs, gap.halfsides)
            if n >= 1
        ]
        work, listed, width, sumset_card = 0, 1, 1, 1
        for c, n in steps:
            work += min(listed, width) * (2 * n + 1)
            listed *= 2 * n + 1
            width += 2 * n * c
            sumset_card *= 4 * n + 1
        if work > cap:
            raise BudgetError(
                f"projection stage: convolving the image of P takes up to {work} steps, budget {cap}"
            )

    swept: dict[int, int] = {}  # N(x): the swept points with phi = x
    get = swept.get
    *head, last = phi
    for prefix, lo, hi in report.lattice_points.runs:
        v = sum(map(operator.mul, head, prefix))
        if last:
            for x in range(v + last * lo, v + last * (hi + 1), last):
                swept[x] = get(x, 0) + 1
        else:
            swept[v] = get(v, 0) + hi - lo + 1
    # the image is the swept values and their negatives; the origin, its
    # own mirror, is counted once
    img_c = 2 * len(swept) - len(swept.keys() & map(operator.neg, swept))
    fiber_c = max(n + get(-x, 0) - (not x) for x, n in swept.items())

    degraded = False
    if report.gap_points is None:
        fibres = {0: 1}
        for c, n in steps:
            if not c:
                fibres = {value: count * (2 * n + 1) for value, count in fibres.items()}
                continue
            shifts = range(-n * c, n * c + 1, c)
            nxt: dict[int, int] = {}
            at = nxt.get
            for value, count in fibres.items():
                for s in shifts:
                    key = value + s
                    nxt[key] = at(key, 0) + count
            fibres = nxt
        img_p, fiber_p, card_p = len(fibres), max(fibres.values()), listed
    else:
        check_listing(gap, cap)
        p_points = report.gap_points
        img_p, fiber_p = project_count(p_points, phi)
        card_p = len(p_points)
        try:
            sumset_card = len(enum_gap(gap.doubled(), cap))
        except BudgetError:
            sumset_card = None
            degraded = True

    doubling_ok = None
    fiber_monotone = fiber_p >= fiber_c
    if not degraded:
        chain_ok = (
            img_p * fiber_p <= sumset_card
            and sumset_card * fiber_c <= 2**order * card_p * fiber_p
        )
        doubling_ok = sumset_card <= 2**order * card_p
    else:
        chain_ok = img_p * fiber_c <= 2**order * card_p
    bound = covering_bound(gap.dim)
    corollary_ok = img_p * bound.denominator <= bound.numerator * img_c
    return ProjectionReport(
        functional=phi,
        image_count_C=img_c,
        image_count_P=img_p,
        max_fiber_C=fiber_c,
        max_fiber_P=fiber_p,
        cardinality_P=card_p,
        sumset_cardinality=sumset_card,
        doubling_ok=doubling_ok,
        fiber_monotone=fiber_monotone,
        chain_ok=chain_ok,
        corollary_ok=corollary_ok,
        degraded=degraded,
    )
