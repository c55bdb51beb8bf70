"""Exact lattice-point enumeration and counting.

Ground truth for every cardinality claim in the pipeline: one exact line
sweep finds a body's integer points, visiting only the lines that meet it,
and keeps them as runs, the points on one line of the last coordinate.
The sweep is straight-line code generated per body kind and dimension,
d nested loops compiled once per (kind, d) (_sweep_kernel), with the
body's integers as arguments.  Each line hands its children, in locals,
the integer sums their extents need, so no line re-reads its prefix: an
ellipsoid line its Schur-chain polynomial (Fincke-Pohst partial sums), a
vertex line its facet sums N.(prefix, 0) and l1 norm.  The last level
reads a line's extent off those sums in the kernel itself, with no call
per line, and the kernel counts the last-coordinate lines it visits.  The
points are listed, in lexicographic order, only where a caller asks for
them; outputs and failure witnesses are deterministic.

The generated kernels, this sweep and the run certificate of
cover._run_kernel, share one code generator: _tup, _dot and
_compile_kernel, which registers each source with linecache.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import BudgetError, DimensionError
from .exactalg import Frozen
from .geomcore import (
    DEFAULT_BUDGET,
    ConvexBody,
    hull_line_extent,  # not called here; perfbench/tracing.py wraps enumeration.hull_line_extent
)

IntPoint = tuple[int, ...]
Run = tuple[IntPoint, int, int]  # (prefix, lo, hi): the points prefix + (t,), lo <= t <= hi


class PointSet(Frozen):
    """The integer points of a centrally symmetric convex body, as the
    ``runs`` of its line sweep (enum_body, which finds each run's ends from
    the integer sums its parent line carried): one run per last-coordinate
    line of the lexicographically nonnegative half, in sweep order.  The origin
    opens the first run and is its own mirror; the points are the runs and
    their negatives.  A convex body's points on one line are contiguous, so
    the runs determine the set, and equal runs mean equal sets.

    ``lines`` is the work that found them: the number of last-coordinate
    lines the sweep visited, hit or not (None for a set not swept).  It is
    not part of equality.  ``points``, the lexicographic listing, is built
    on first use and kept.  Coordinates are Python ``int``s, which the JSON
    reports rely on."""

    __slots__ = ("dim", "runs", "lines", "_points")

    def __init__(self, dim: int, runs: Sequence[Run], lines: int | None = None):
        self._set(dim=dim, runs=tuple(runs), lines=lines, _points=None)

    @property
    def points(self) -> tuple[IntPoint, ...]:
        """The points in lexicographic order: the negatives of the swept
        points, last first, up to the origin, then the swept points."""
        if self._points is None:
            mirrors = [
                tuple(-c for c in prefix) + (-t,)
                for prefix, lo, hi in reversed(self.runs)
                for t in range(hi, lo - 1, -1)
            ]
            mirrors.pop()  # the origin, swept first
            mirrors += [prefix + (t,) for prefix, lo, hi in self.runs for t in range(lo, hi + 1)]
            self._set(_points=tuple(mirrors))
        return self._points

    def __len__(self) -> int:
        return 2 * sum(hi - lo + 1 for _, lo, hi in self.runs) - 1

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.dim == other.dim and self.runs == other.runs


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression {base + sum m_i diffs_i : |m_i| <= halfsides_i}.

    ``diffs`` may hold fewer than ``dim`` vectors (a lower-order progression
    embedded in Z^dim); the listed cardinality is prod(2 n_i + 1).
    """

    dim: int
    base: IntPoint
    diffs: tuple[IntPoint, ...]
    halfsides: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(int(c) for c in self.base))
        object.__setattr__(self, "diffs", tuple(tuple(int(c) for c in v) for v in self.diffs))
        object.__setattr__(self, "halfsides", tuple(int(n) for n in self.halfsides))
        if len(self.base) != self.dim:
            raise DimensionError("base point has wrong dimension")
        if any(len(v) != self.dim for v in self.diffs):
            raise DimensionError("difference vector has wrong dimension")
        if len(self.halfsides) != len(self.diffs):
            raise DimensionError("need one halfside per difference vector")
        if any(n < 0 for n in self.halfsides):
            raise DimensionError("halfsides must be nonnegative")

    @property
    def order(self) -> int:
        return len(self.diffs)

    def listed_cardinality(self) -> int:
        return math.prod(2 * n + 1 for n in self.halfsides)

    def doubled(self) -> "Gap":
        """The sumset self + self: same differences, doubled base and ranges."""
        return Gap(self.dim, tuple(2 * c for c in self.base), self.diffs, tuple(2 * n for n in self.halfsides))


def check_listing(gap: Gap, cap: int) -> None:
    """BudgetError when listing the progression visits more than cap points."""
    card = gap.listed_cardinality()
    if card > cap:
        raise BudgetError(f"progression lists {card} points, budget {cap}")


def enum_gap(gap: Gap, cap: int = DEFAULT_BUDGET) -> frozenset[IntPoint]:
    """The set of the progression's listed points.

    The progression is proper iff len(result) == gap.listed_cardinality().
    """
    check_listing(gap, cap)
    # base + the sumset of the differences' ranges, deduplicated per step
    pts = {gap.base}
    for v, n in zip(gap.diffs, gap.halfsides):
        steps = [tuple(m * c for c in v) for m in range(-n, n + 1)]
        pts = {tuple(map(operator.add, p, step)) for p in pts for step in steps}
    return frozenset(pts)


def box_point_count(body: ConvexBody) -> int:
    """Number of integer points in the body's integer bounding box."""
    return math.prod(2 * b + 1 for b in body.int_box_bounds())


def enum_body(body: ConvexBody, cap: int = DEFAULT_BUDGET) -> PointSet:
    """Exactly the integer points of the body, as the runs of one line
    sweep (see PointSet), run by the sweep generated for its kind and
    dimension (_sweep_kernel), with the number of last-coordinate lines it
    visited as the set's ``lines``.

    Coordinates are fixed one at a time; given those already fixed, the
    next one ranges over the exact integer interval where the line through
    the prefix meets the body's projection onto one more coordinate, so
    only lines that meet the body are visited.  A line's integer state is
    carried in locals to its children, each of which costs O(1) big-int
    operations for an ellipsoid (its Schur-chain recurrence) and
    O(#facets) for a vertex body (its facet sums), not a pass over its
    prefix.  By central symmetry, only t >= 0 is swept while the prefix is
    all zero.  On the last coordinate that interval, when not empty, is a
    run.  A vertex body's facet rows |N.x| <= D are handed to the kernel
    once per call: each row flipped so that N[-1] >= 0 (the test is
    symmetric), the rows with N[-1] > 0 first, as their columns on the
    first d - 1 coordinates and the pairs (N[-1], D), then the rows with
    N[-1] = 0, whose bounds D follow.  The bounding box is checked against
    the budget before any work, and a vertex body's facet search before
    any line.
    """
    bounds = body.int_box_bounds()
    total = math.prod(2 * b + 1 for b in bounds)
    if total > cap:
        raise BudgetError(f"bounding box holds {total} integer points, budget {cap}")
    sweep = _sweep_kernel(body.kind, body.dim)
    if body.kind == "ellipsoid":
        runs, lines = sweep(*body.ellipsoid_rep.schur)
    elif body.kind == "vertices":
        facets = body.hull_facets(cap)
        points = body.point_mat
        l1_cap = max(sum(map(abs, p)) for p in points.num) // points.den
        slanted = [(n, e) if n[-1] > 0 else (tuple(-c for c in n), e) for n, e in facets if n[-1]]
        flat = [(n, e) for n, e in facets if not n[-1]]
        columns = tuple(zip(*(n[:-1] for n, _ in slanted + flat)))
        slant = tuple((n[-1], e) for n, e in slanted)
        runs, lines = sweep(bounds, l1_cap, columns, slant, tuple(e for _, e in flat))
    else:
        runs, lines = sweep(bounds)
    return PointSet(body.dim, runs, lines)


# The kernel code generator, shared with cover._run_kernel.


def _tup(names) -> str:
    """A tuple display, also as an assignment target; () when empty."""
    return f"({''.join(f'{n}, ' for n in names)})"


def _dot(terms) -> str:
    """The sum of c * v over the (c, v) pairs as an expression; 0 when empty."""
    return " + ".join(f"{c} * {v}" for c, v in terms) or "0"


def _compile_kernel(lines: list[str], filename: str, **names):
    """The one function that the source ``lines`` define, compiled as
    ``filename`` with ``names`` as its globals.  The source is registered
    with linecache under that name, so that a traceback or a debugger
    inside the kernel shows its lines."""
    source = "".join(line + "\n" for line in lines)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), names, namespace)
    (kernel,) = namespace.values()
    return kernel


# for loops per generated function: CPython compiles at most 20 statically
# nested blocks in one function (CO_MAXBLOCKS), and a vertex body's last
# level adds one
_KERNEL_LOOPS = 16


@functools.cache
def _sweep_kernel(kind: str, d: int):
    """The line sweep of a body of one kind in Z^d as a function compiled
    once per (kind, d), which returns (runs, lines): the runs in sweep order
    and the number of last-coordinate lines visited.  It is called as
    sweep(den, chain) for an ellipsoid (its Ellipsoid.schur),
    sweep(bounds, l1_cap, columns, slant, flat) for a vertex body (see
    enum_body) and sweep(bounds) for a box.  Only the kind and d enter the
    generated source; the body's integers are arguments.

    The d coordinates are nested loops over x0, x1, ...; each level holds
    its line's state and extent [lo_m, hi_m] in locals, and z_m, whether
    the prefix is all zero, which raises lo_m to 0.  One pass of level m's
    loop gives its child line's state and extent:

    - ellipsoid, x^T N x <= den with N = num the form cleared to integers:
      block m of the chain, over the previous pivot q_m, is the form of the
      projection onto the first m + 1 coordinates, y^T block_m y <=
      den q_m.  On the line through a prefix p of length m that reads
      Q(t) = a t^2 + 2 b t + c <= 0, a = block_m[m][m], b = block_m[m][:m] . p
      and c = p^T block_m p - den q_m, which holds for an integer t iff
      |a t + b| <= isqrt(b^2 - a c).  The chain's step block_m =
      (a' block'[:m+1, :m+1] - v v^T) / q', block' the next block with
      last row v, a' = v[m + 1] and pivot q', gives for the child line
      through (p, t) b' = v . (p, t) and c' = (q' Q(t) + b'^2) / a', an
      exact division, so its discriminant b'^2 - a' c' is -q' Q(t), >= 0
      on the parent's extent: the partial sums of Fincke and Pohst
      (Math. Comp. 44, 1985) in integers.  v[:m] . p is dotted once per
      parent, and c' is formed only above the last level;
    - vertex body: the box bounds, narrowed below the last coordinate by
      ||x||_1 <= l1_cap = max_i ||w_i||_1 // den, which every hull point
      satisfies (w_i = den v_i the integer rows of its point_mat); the
      state is the facet sums s = N.(p, 0), each child adding N_f[m] t
      (``columns`` holds the rows' columns), and ||p||_1.  The last level
      adds N_f[-2] t to its parent's sums as it reads them and narrows
      [-bd, bd] on each row with c = N[-1] > 0 (``slant``) to
      [-((D + s) // c), (D - s) // c], exact since the ceiling of a
      maximum is the maximum of the ceilings; a row with N[-1] = 0
      (``flat``) empties the line when |s| > D.  No call is made and no
      list of sums is built per last-coordinate line;
    - box: its integer bounds, whatever the prefix.

    The last level appends (prefix, lo, hi) when lo <= hi.  These are the
    extents of ``sweep_reference`` in tests/_oracles.py, which recomputes
    each line from its whole prefix.  The lines are counted once per loop
    of the level above the last, not once per line.  Past _KERNEL_LOOPS
    levels the loops continue in nested functions of at most _KERNEL_LOOPS
    loops each: part{m}, called on each line of level m with the prefix,
    the line's extent, zero flag and state, sweeps levels m onwards, so
    every d compiles; at d <= _KERNEL_LOOPS + 1 the sweep is one
    function."""
    last = d - 1
    x = [f"x{i}" for i in range(d)]

    def parent(m: int) -> list[str]:  # once per line of level m, before its loop
        return []

    def carried(m: int) -> list[str]:  # the state of a line of level m
        return []

    if kind == "ellipsoid":
        params = "den, chain"
        # r{m}_j = block_m[m][j], so a_m = r{m}_{m}; q{m} the previous pivot
        head = [
            f"{_tup(f'r{m}_{j}' for j in range(m + 1))}, q{m} = chain[{m}][0][{m}], chain[{m}][1]"
            for m in range(d)
        ]
        head += ["s = isqrt(r0_0 * den * q0)", "b0, c0 = 0, -den * q0", "hi0 = s // r0_0", "lo0 = -hi0"]

        def parent(m: int) -> list[str]:
            return [f"e{m + 1} = {_dot((f'r{m + 1}_{j}', x[j]) for j in range(m))}"]

        def carried(m: int) -> list[str]:
            return [f"b{m}", f"c{m}"]

        def child(m: int) -> list[str]:
            n, a = m + 1, f"r{m + 1}_{m + 1}"
            return [
                f"u = q{n} * ((r{m}_{m} * x{m} + 2 * b{m}) * x{m} + c{m})",
                f"b{n} = e{n} + r{n}_{m} * x{m}",
                "s = isqrt(-u)",
                *([f"c{n} = (u + b{n} * b{n}) // {a}"] if n < last else []),
                f"lo{n} = -((s + b{n}) // {a})",
                f"hi{n} = (s - b{n}) // {a}",
            ]

    elif kind == "vertices":
        params = "bounds, l1_cap, columns, slant, flat"
        head = [f"{_tup(f'bd{m}' for m in range(d))} = bounds"]
        if last:
            head += [
                f"{_tup(f'col{m}' for m in range(last))} = columns",
                "s0, n0 = [0] * len(col0), 0",
                "r = min(bd0, l1_cap)",
                "lo0, hi0 = -r, r",
            ]
        else:  # the box bound of a segment is its exact integer extent
            head += ["lo0, hi0 = -bd0, bd0"]

        def carried(m: int) -> list[str]:
            return [f"s{m}", f"n{m}"]

        def child(m: int) -> list[str]:
            n = m + 1
            if n < last:
                return [
                    f"s{n} = [s + c * x{m} for s, c in zip(s{m}, col{m})]",
                    f"n{n} = n{m} + abs(x{m})",
                    f"r = min(bd{n}, l1_cap - n{n})",
                    f"lo{n}, hi{n} = -r, r",
                ]
            # slant is exhausted first, so the flat rows' sums are what
            # ``rows`` has left
            return [
                f"lo{n}, hi{n} = -bd{n}, bd{n}",
                f"rows = zip(s{m}, col{m})",
                "for (c, e), (s, a) in zip(slant, rows):",
                f"    s += a * x{m}",
                "    t = -((e + s) // c)",
                f"    if t > lo{n}:",
                f"        lo{n} = t",
                "    t = (e - s) // c",
                f"    if t < hi{n}:",
                f"        hi{n} = t",
                "for e, (s, a) in zip(flat, rows):",
                f"    if abs(s + a * x{m}) > e:",
                f"        hi{n} = lo{n} - 1",
                "        break",
            ]

    else:
        params = "bounds"
        head = [f"{_tup(f'bd{m}' for m in range(d))} = bounds", "lo0, hi0 = -bd0, bd0"]

        def child(m: int) -> list[str]:
            return [f"lo{m + 1}, hi{m + 1} = -bd{m + 1}, bd{m + 1}"]

    # at d = 1 the one line is the one through the empty prefix
    head.append(f"count = {int(not last)}")
    top = lines = ["if lo0 < 0:", "    lo0 = 0"]  # sweep's own loops
    parts: list[list[str]] = []  # the nested functions, after the head
    shift = 0  # level m's loop is indented m + shift deep in its function
    for m in range(last):
        if m and m % _KERNEL_LOOPS == 0:  # hand each line of level m to part{m}
            call = f"part{m}({', '.join([*x[:m], f'lo{m}', f'hi{m}', f'z{m}', *carried(m)])})"
            lines.append("    " * (m + shift) + call)
            lines = [f"def {call}:"]
            parts.append(lines)
            shift = 1 - m
        inner = child(m)
        n = m + 1
        zero = f"x{m} == 0" if m == 0 else f"z{m} and x{m} == 0"
        if n < last:
            inner += [f"z{n} = {zero}", f"if z{n} and lo{n} < 0:", f"    lo{n} = 0"]
        else:
            inner += [f"if {zero} and lo{n} < 0:", f"    lo{n} = 0"]
        pre = parent(m)
        if n == last:  # this loop visits the last-coordinate lines
            pre.append(f"count += hi{m} - lo{m} + 1")
            if lines is not top:
                lines.insert(1, "    nonlocal count")
        pad = "    " * (m + shift)
        lines += [pad + line for line in pre + [f"for x{m} in range(lo{m}, hi{m} + 1):"]]
        lines += [pad + "    " + line for line in inner]
    pad = "    " * (last + shift)
    lines += [
        pad + f"if lo{last} <= hi{last}:",
        pad + f"    runs.append(({_tup(x[:last])}, lo{last}, hi{last}))",
    ]
    body = ["runs = []", *head, *(line for part in parts for line in part), *top, "return runs, count"]
    source = [f"def sweep({params}):", *("    " + line for line in body)]
    return _compile_kernel(source, f"<sweep kernel kind={kind} d={d}>", isqrt=math.isqrt)


def subset_check(
    points: Iterable[IntPoint], member: Callable[[IntPoint], bool]
) -> tuple[bool, IntPoint | None]:
    """True iff every point satisfies the membership predicate; on failure
    also returns the first failing point in iteration order."""
    for p in points:
        if not member(p):
            return False, p
    return True, None


def project_count(points: Iterable[IntPoint], phi: Sequence[int]) -> tuple[int, int]:
    """Exact (#phi(points), max fiber size) for an integer linear functional."""
    coeffs = tuple(int(c) for c in phi)
    fibers: dict[int, int] = {}
    for p in points:
        if len(p) != len(coeffs):
            raise DimensionError(f"functional has {len(coeffs)} coefficients, point {p} {len(p)}")
        val = sum(map(operator.mul, coeffs, p))
        fibers[val] = fibers.get(val, 0) + 1
    if not fibers:
        return 0, 0
    return len(fibers), max(fibers.values())
