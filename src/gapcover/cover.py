"""End-to-end covering pipeline with exact certificates.

Given a centrally symmetric convex body, produce a generalized arithmetic
progression containing every lattice point of the body, certify the
containment with a membership test built from the progression alone, and
measure the covering ratio.  The body's lattice points C are found once per
instance, as the runs of its line sweep (the points on one line of the last
coordinate), and kept as runs; C is listed only for a proper subspace or a
listed P.  The progression P is listed only when its differences are
dependent; otherwise membership of a whole run is one exact integer solve.
The stages:

1. enclosing ellipsoid of the body (exact for ellipsoid bodies, certified
   Khachiyan output otherwise),
2. circumscribed parallelotope Q along the exact factorization
   A = U D U^T of the ellipsoid's form, handed on as its generator matrix
   G = U^-T diag(s_m), s_m >= 1 / sqrt(D_m), integer rows over one den, and
   its exact volume |Q| = 2^d prod s_m, with an exact slab certificate
   against A^-1 for each dual normal, a row of G^-1 = diag(1 / s_m) U^T,
3. LLL-reduce the integer rows den G to den V, with a unimodular T and
   T @ G = V, checked once in integers by lll_reduce, whose Gram
   determinants prove the rows independent; |Q'| = |Q| since |det T| = 1,
4. axis-aligned box B with half-widths a_j = ||row_j(den V)||_1 / den, and
   the reduction certificate of V, whose determinant (of den V) is the only
   one the pipeline takes,
5. progression P = preimage of (B ∩ Z^d) under the coordinate map T, i.e.
   base 0, differences = columns of T^-1, half-sides floor(a_j).

Bodies whose lattice points span a proper subspace are first restricted to
that subspace (saturated sublattice via Hermite-form kernels) and the
progression is pushed back to ambient coordinates.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .enumeration import DEFAULT_BUDGET, Gap, PointSet, Run, enum_body, enum_gap, project_count, subset_check
from .errors import BudgetError, CertificationError, DimensionError, RankError
from .exactalg import (
    Frozen,
    IntegerSolver,
    Mat,
    _integer_solver,
    _span_rank,
    clear_denominators,
    det,  # not called here; perfbench/tracing.py wraps cover.det
    int_matmul,
    integer_kernel,
    inverse,  # not called here; perfbench/tracing.py wraps cover.inverse
    left_kernel,
    unimodular_solve,  # not called here; perfbench/tracing.py wraps cover.unimodular_solve
)
from .geomcore import (
    MVEE_DEFAULT_EPS,
    ConvexBody,
    Ellipsoid,
    circumscribe_parallelotope,
    mvee,
)
from .latred import certify_reduction, lll_reduce

# Pinned pipeline constants; stage_chain checks each inequality exactly on
# every report:
# covering ratio bound  #P/#C <= RATIO_CONSTANT * d^(3d)
# parallelotope stage   |Q|  <= (PARALLELOTOPE_CONSTANT * k)^k * #C
# box stage             |B|  <= (BOX_CONSTANT * k)^(2k) * |Q'|
RATIO_CONSTANT = Fraction(1)
PARALLELOTOPE_CONSTANT = Fraction(4)
BOX_CONSTANT = Fraction(1)
STAGES = ("parallelotope", "box", "count")  # the keys of CoverReport.stage_factors


def covering_bound(dim: int) -> Fraction:
    """Documented covering-ratio bound RATIO_CONSTANT * dim^(3 dim)."""
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
    eps: Fraction | None
    subspace_dim: int
    mvee_used: bool
    volume_parallelotope: Fraction
    volume_parallelotope_reduced: Fraction
    volume_box: Fraction
    box_halfwidths: tuple[Fraction, ...]
    a_min: Fraction
    all_halfwidths_ge_1: bool
    reduction_ratio: Fraction


@dataclass(frozen=True)
class CoverReport:
    """Outcome of certifying C ⊆ P.  ``lattice_points`` is C as the runs of
    its sweep, which were tested; the projection check reads its runs, and
    the JSON reports leave it out."""

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

    @cached_property
    def stage_factors(self) -> dict[str, Fraction] | None:
        """Exact per-stage inequalities with the pinned constants, each as
        the factor lhs / rhs, so that it holds iff its factor is <= 1; None
        for a report without stages.  Computed once per report, for
        stage_chain and the batch maxima alike.

        parallelotope: |Q| <= (PARALLELOTOPE_CONSTANT * k)^k * #C
        box:           |B| <= (BOX_CONSTANT * k)^(2k) * |Q'|
        count:         #P  <= 2^k * |B|
        """
        s = self.stages
        if s is None:
            return None
        k = s.subspace_dim
        return {
            "parallelotope": s.volume_parallelotope / ((PARALLELOTOPE_CONSTANT * k) ** k * self.cardinality_C),
            "box": s.volume_box / ((BOX_CONSTANT * k) ** (2 * k) * s.volume_parallelotope_reduced),
            "count": self.cardinality_P / (Fraction(2) ** k * s.volume_box),
        }


@dataclass(frozen=True)
class ProjectionReport:
    """Images of C and of P under an integer functional, with #P and #(P+P)
    (see verify_projection).  The C side comes from the runs of the point set
    the certification found, the P side from closed forms or a listing of P.

    ``sumset_cardinality`` and ``doubling_ok`` are None only when
    ``degraded``: P has dependent differences and P+P lists more points than
    the budget, so the chain is checked by the membership-based bound.
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


def restrict_to_span(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> SubspaceReduction:
    """Restrict a body to the saturated sublattice Z^d ∩ span of its lattice
    points.  Identity reduction when the points already span; k = 0 when the
    only lattice point is the origin.  The span is read off the nonzero run
    ends, which span C; only a proper subspace lists C, to check each point
    against the sublattice and to give a vertex body's restricted vertices."""
    c_points = enum_body(body, cap)
    d = body.dim
    # the last runs first: a spanning body reaches rank d after a few ends
    k = _span_rank(_run_ends(reversed(c_points.runs)), d)
    if k == 0:
        return SubspaceReduction(d, 0, None, None, c_points)
    if k == d:
        return SubspaceReduction(d, d, None, body, c_points)
    ends = list(_run_ends(c_points.runs))

    # functionals vanishing on span(C); the saturated lattice is the
    # integer solutions of those functionals
    basis_rows = left_kernel(Mat(integer_kernel(ends, d)).transpose())
    if len(basis_rows) != k:
        raise RankError("saturated sublattice has unexpected rank")
    embed = Mat(basis_rows).transpose()  # d x k, columns = lattice basis

    solve_embed = _integer_solver(basis_rows, d)
    if solve_embed is None:
        raise RankError("embedding matrix is rank deficient")
    reduced = []
    for p in c_points:
        y = solve_embed(p)
        if y is None:
            raise RankError("lattice point outside the saturated sublattice")
        reduced.append(tuple(y))

    if body.kind == "ellipsoid":
        # embed^T A embed, with A = n / den and embed^T = basis_rows
        n, den = clear_denominators(body.ellipsoid_rep.form)
        pulled = int_matmul(basis_rows, int_matmul(n, list(zip(*basis_rows))))
        form0 = Mat([[Fraction(x, den) for x in row] for row in pulled])
        body0 = ConvexBody.from_ellipsoid(Ellipsoid(form0))
    else:
        body0 = ConvexBody.vertices([p for p in reduced if any(p)])
    return SubspaceReduction(d, k, embed, body0, c_points)


def _run_ends(runs: Sequence[Run]):
    """The nonzero ends of the runs, lo before hi, in the runs' order."""
    return (p for prefix, lo, hi in runs for p in (prefix + (lo,), prefix + (hi,)) if any(p))


class GapMembership(Frozen):
    """Exact membership in a progression whose active differences
    (half-side >= 1) are independent, from one IntegerSolver of
    p - base = sum y_j v_j over them.  ``run`` tests a run at once, in
    numerator space; calling it tests one point, as a run of one.  ``step``
    is the solve of e_d, None when e_d is outside the lattice of the active
    differences."""

    __slots__ = ("base", "solve", "step", "_shifted", "_rows")

    def __init__(self, base: tuple[int, ...], halfsides: tuple[int, ...], solve: IntegerSolver):
        step = solve((0,) * (len(base) - 1) + (1,))
        # per active difference j: row j of adj, n_j |den| and adj_j[d - 1]
        rows = [(row, n * abs(solve.den), row[-1]) for row, n in zip(solve.adj, halfsides)]
        self._set(base=base, solve=solve, step=step, _shifted=any(base), _rows=rows)

    def __call__(self, p: tuple[int, ...]) -> bool:
        return self.run(p[:-1], p[-1], p[-1])

    def run(self, prefix: tuple[int, ...], lo: int, hi: int) -> bool:
        """Whether every point prefix + (t,), lo <= t <= hi, lies in P.  With
        x = prefix + (lo,) - base and v = adj @ x, the numerators of
        y(lo) = v / den, the solve is linear, so y(t) = y(lo) + (t - lo) s,
        s = ``step`` = adj[:, d - 1] / den, and the box |y_j| <= n_j is
        convex: the run lies in P iff den divides each v_j, the ``others``
        rows hold (row . v = den x_i), |v_j| <= n_j |den| and
        |v_j + (hi - lo) adj_j[d - 1]| <= n_j |den| for each j, and, when
        hi > lo, s exists (two consecutive points in P differ by e_d)."""
        if hi > lo and self.step is None:
            return False
        x = prefix + (lo,)
        if self._shifted:
            x = tuple(map(operator.sub, x, self.base))
        den, span = self.solve.den, hi - lo
        v = []
        for row, bound, last in self._rows:
            vj = sum(map(operator.mul, row, x))
            if vj % den or abs(vj) > bound or abs(vj + span * last) > bound:
                return False
            v.append(vj)
        return all(sum(map(operator.mul, row, v)) == den * x[i] for row, i in self.solve.others)


def gap_membership_tester(gap: Gap) -> GapMembership | None:
    """Exact membership test built from the progression alone (independent of
    any pipeline state), for differences whose active ones (half-side >= 1)
    are independent: solve p - base = sum y_j v_j over the active
    differences in integers and require |y_j| <= n_j, for one point or for
    a whole run (GapMembership.run).  The inactive ones only ever take
    coefficient 0, and they may depend on the active ones.  Without active
    differences P = {base}.  None when the active differences are
    dependent."""
    active = [(v, n) for v, n in zip(gap.diffs, gap.halfsides) if n >= 1]
    solve = _integer_solver([v for v, _ in active], gap.dim)
    if solve is None:
        return None
    return GapMembership(gap.base, tuple(n for _, n in active), solve)


def cover(
    body: ConvexBody,
    eps: Fraction = MVEE_DEFAULT_EPS,
    cap: int = DEFAULT_BUDGET,
) -> tuple[Gap, CoverReport]:
    """Run the full pipeline and certify the result.

    Returns the covering progression and a report whose ``contained`` flag
    comes from the same certification as verify_cover: every run of the
    body's lattice points is tested with gap_membership_tester, built from
    the progression alone (no pipeline state such as T enters it), and P is
    not listed.  Any False here is a bug, not a tolerance issue.  The report
    also carries the stage diagnostics and the point set C.
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
    if body0.kind == "ellipsoid":
        enclosing = body0.ellipsoid_rep
        mvee_used = False
    else:
        enclosing = mvee(body0.spanning_points(), eps)
        mvee_used = True
    timings["ellipsoid_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    gens, den, vol_q = circumscribe_parallelotope(enclosing)
    timings["parallelotope_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    # rows of the generator matrix are the coordinate vectors of the generators
    reduced, t_lll = lll_reduce(gens)
    timings["reduce_ms"] = (time.perf_counter() - t0) * 1000.0

    halfwidths = tuple(Fraction(sum(map(abs, row)), den) for row in reduced)
    halfsides = tuple(int(a) for a in halfwidths)  # floor: halfwidths >= 0
    # the differences are the columns of T^-1, pushed back by the embedding
    cols = t_lll.inverse().int_rows
    if not red.is_identity:
        cols = int_matmul(red.embed.int_entries(), cols)
    gap = Gap(d, (0,) * d, tuple(zip(*cols)), halfsides)
    report = _certify(red.ambient_points, gap, cap, timings)

    cert = certify_reduction(reduced, den)
    vol_box = Fraction(2) ** k * math.prod(halfwidths, start=Fraction(1))
    stages = StageDiagnostics(
        eps=eps if mvee_used else None,
        subspace_dim=k,
        mvee_used=mvee_used,
        volume_parallelotope=vol_q,
        volume_parallelotope_reduced=vol_q,  # |Q'| = |Q|, since |det T| = 1
        volume_box=vol_box,
        box_halfwidths=halfwidths,
        a_min=min(halfwidths),
        all_halfwidths_ge_1=all(a >= 1 for a in halfwidths),
        reduction_ratio=cert.ratio,
    )
    return gap, replace(report, stages=stages)


def stage_chain(report: CoverReport) -> dict[str, bool]:
    """Whether each inequality of CoverReport.stage_factors holds; all True
    without stages."""
    factors = report.stage_factors
    if factors is None:
        return dict.fromkeys(STAGES, True)
    return {name: factor <= 1 for name, factor in factors.items()}


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


def _certify(c_points: PointSet, gap: Gap, cap: int, timings: dict) -> CoverReport:
    """Certify C ⊆ P from the progression alone; the witness is the
    lexicographically first point of C outside P.

    With independent active differences, gap_membership_tester tests each
    run of C (see PointSet) at once, and only the first failing run point by
    point (_first_outside); #P = prod(2 n_i + 1), and P is not listed.
    With dependent ones, P and C are listed once, for #P and the membership
    of each point in turn.  The certification time and the numbers of runs
    and points tested are added to ``timings``, which the report keeps.
    """
    if gap.dim != c_points.dim:
        raise DimensionError(f"progression has dimension {gap.dim}, lattice points {c_points.dim}")
    t0 = time.perf_counter()
    member = gap_membership_tester(gap)
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
        stages=None,
        timings_ms=timings,
        lattice_points=c_points,
    )


def _first_outside(runs: Sequence[Run], member: GapMembership) -> tuple[tuple[int, ...] | None, int, int]:
    """(first point of C outside P in lexicographic order or None, runs
    tested, points tested), C being the runs and their negatives.  With base
    0, P = -P: the swept runs are tested last first, and the first failing
    one from t = hi down, since minus its first failing point is the
    witness.  Otherwise the mirrored runs, last first, and then the swept
    runs are C in order, and the first failing run is tested in t order."""
    shifted = any(member.base)
    if shifted:
        order = [(tuple(-c for c in prefix), -hi, -lo) for prefix, lo, hi in reversed(runs)]
        order += runs
    else:
        order = runs[::-1]
    for tested, (prefix, lo, hi) in enumerate(order, 1):
        if member.run(prefix, lo, hi):
            continue
        ts = range(lo, hi + 1) if shifted else range(hi, lo - 1, -1)
        for count, t in enumerate(ts, 1):
            p = prefix + (t,)
            if not member(p):
                return (p if shifted else tuple(-c for c in p)), tested, count
        raise CertificationError(f"run {prefix} + [{lo}, {hi}] fails its run test, but none of its points")
    return None, len(order), 0


def verify_projection(
    c_points: PointSet,
    gap: Gap,
    phi: Sequence[int],
    cap: int = DEFAULT_BUDGET,
) -> ProjectionReport:
    """Exact verification of the image-size chain under an integer functional.

    Checks #phi(P) * m' <= #(P+P), #(P+P) * m <= 2^order * #P * m', the
    doubling fact #(P+P) <= 2^order * #P, and the covering corollary
    #phi(P) <= bound * #phi(C), where m and m' are the largest fibres of phi
    on C and on P.  C is passed in as the point set the certification
    already found (``CoverReport.lattice_points``); it is neither swept again
    nor listed here: the fibres of phi on C are read off its runs, a run
    adding phi(prefix) + phi_d t for lo <= t <= hi and its mirror the
    negatives, the origin once.

    When the differences with half-side >= 1 are independent
    (``gap.diffs_independent()``), P and P+P are proper and nothing of them
    is listed: #P = prod(2 n_i + 1), #(P+P) = prod(4 n_i + 1), and the fibre
    sizes of phi on P are the coefficients of
    prod_i (x^(-n_i c_i) + ... + x^(n_i c_i)), c_i = phi(d_i), convolved
    exactly in Python ints.  ``cap`` then bounds that convolution, summed
    per step: step i holds at most min(prod_{j<i} (2 n_j + 1),
    1 + sum_{j<i} 2 n_j |c_j|) fibres and multiplies each by 2 n_i + 1
    shifts.  The bound is checked before any work starts, C's image
    included, and BudgetError names the projection stage.

    Otherwise P and P+P are listed, ``cap`` bounds each listing, and when
    P+P exceeds it the report is ``degraded`` to the membership-based bound
    #phi(P) * m <= 2^order * #P; only dependent differences can degrade.
    """
    phi = tuple(int(c) for c in phi)
    if len(phi) != gap.dim:
        raise DimensionError(f"functional has {len(phi)} coefficients, progression {gap.dim}")
    order = gap.order
    proper = gap.diffs_independent()
    if proper:
        steps = [
            (sum(a * b for a, b in zip(phi, v)), n)
            for v, n in zip(gap.diffs, gap.halfsides)
            if n >= 1
        ]
        work, listed, width = 0, 1, 1
        for c, n in steps:
            work += min(listed, width) * (2 * n + 1)
            listed *= 2 * n + 1
            width += 2 * n * abs(c)
        if work > cap:
            raise BudgetError(
                f"projection stage: convolving the image of P takes up to {work} steps, budget {cap}"
            )

    if c_points.dim != len(phi):
        raise DimensionError(f"functional has {len(phi)} coefficients, lattice points {c_points.dim}")
    fibres_c = {0: -1}  # the origin is its own mirror
    for prefix, lo, hi in c_points.runs:
        v = sum(map(operator.mul, phi, prefix))
        for t in range(lo, hi + 1):
            x = v + phi[-1] * t
            fibres_c[x] = fibres_c.get(x, 0) + 1
            fibres_c[-x] = fibres_c.get(-x, 0) + 1
    img_c, fiber_c = len(fibres_c), max(fibres_c.values())

    degraded = False
    if proper:
        fibres = {0: 1}
        for c, n in steps:
            nxt: dict[int, int] = {}
            for value, count in fibres.items():
                for m in range(-n, n + 1):
                    key = value + m * c
                    nxt[key] = nxt.get(key, 0) + count
            fibres = nxt
        img_p, fiber_p = len(fibres), max(fibres.values())
        card_p = gap.listed_cardinality()
        sumset_card = gap.doubled().listed_cardinality()
    else:
        p_points = enum_gap(gap, cap)
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
    corollary_ok = img_p <= covering_bound(gap.dim) * max(img_c, 1)
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
