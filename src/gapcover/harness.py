"""Instance parsing, seeded generation, batch running, and report emission.

Instance documents are JSON; every exact quantity is serialized as an integer
or a "p/q" string, never a float.  Floats appear only in explicitly
approximate diagnostics (timings, CSV convenience columns).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

from .cover import (
    STAGES,
    CoverReport,
    cover,
    stage_chain,
    verify_cover,
    verify_projection,
)
from .enumeration import DEFAULT_BUDGET, Gap, box_point_count
from .errors import BudgetError, DimensionError, GapCoverError, GenerationError, ParseError, RankError
from .exactalg import Mat, _span_rank, det
from .geomcore import ConvexBody, Ellipsoid

EXIT_OK = 0
EXIT_CERT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

GENERATOR_KINDS = ("lattice-ball", "random-vertices", "random-ellipsoid")

_SCAN_GUARD = 200_000  # generator-side bound on the enumeration box


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    State update s += 0x9E3779B97F4A7C15 (mod 2^64); output mixes the state
    with two xor-shift-multiply rounds (constants 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB) and a final 31-bit xor-shift.  Integers in a range
    are drawn by rejection sampling, so identical seeds give identical
    streams on every platform.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self.MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive; ValueError if hi < lo."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        n = hi - lo + 1
        limit = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < limit:
                return lo + (v % n)


@dataclass(frozen=True)
class InstanceSpec:
    dim: int
    body: ConvexBody
    phi: tuple[int, ...] | None = None
    budget: int = DEFAULT_BUDGET
    gap: Gap | None = None
    kind: str = ""
    seed: int | None = None

    def to_json_dict(self) -> dict:
        doc = {"dim": self.dim, "body": _body_to_json(self.body)}
        if self.phi is not None:
            doc["phi"] = list(self.phi)
        if self.budget != DEFAULT_BUDGET:
            doc["budget"] = self.budget
        if self.gap is not None:
            doc["gap"] = gap_to_json(self.gap)
        if self.kind:
            doc["kind"] = self.kind
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc


@dataclass
class BatchReport:
    entries: list = field(default_factory=list)
    max_ratio: Fraction | None = None
    # stage name -> largest CoverReport.stage_factors value (a square) over the cover entries
    max_factors: dict = field(default_factory=lambda: dict.fromkeys(STAGES))
    failures: list = field(default_factory=list)
    budget_skips: list = field(default_factory=list)

    def exit_code(self, allow_skip: bool = False) -> int:
        if self.failures:
            return EXIT_CERT_FAILURE
        if self.budget_skips and not allow_skip:
            return EXIT_BUDGET
        return EXIT_OK


def rat_to_json(x: Fraction | int):
    num, den = x.as_integer_ratio()
    return num if den == 1 else f"{num}/{den}"


def record_to_json(record) -> dict:
    """A report dataclass (StageDiagnostics, ProjectionReport) as a JSON
    object keyed by its field names."""
    return {f.name: _value_to_json(getattr(record, f.name)) for f in fields(record)}


def _value_to_json(x):
    # type(), not isinstance: an isinstance check against Fraction, an ABC,
    # costs as much as the rest of the record
    if type(x) is Fraction:
        return rat_to_json(x)
    if type(x) is tuple:
        return [_value_to_json(v) for v in x]
    return x


def _parse_rat(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(path, "expected a rational (integer or 'p/q' string)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, f"malformed rational {value!r}") from None
    raise ParseError(path, f"expected a rational, got {type(value).__name__}")


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _parse_rat_matrix(value, path: str, dim: int) -> Mat:
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError(path, f"expected {dim} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{path}[{i}]", f"expected {dim} entries")
        rows.append([_parse_rat(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return Mat(rows)


def _body_to_json(body: ConvexBody) -> dict:
    if body.kind == "vertices":
        return {
            "type": "vertices",
            "points": [[rat_to_json(c) for c in p] for p in body.points],
        }
    if body.kind == "ellipsoid":
        return {
            "type": "ellipsoid",
            "form": [[rat_to_json(c) for c in row] for row in body.ellipsoid_rep.form.entries],
        }
    return {"type": "box", "halfwidths": [rat_to_json(h) for h in body.halfwidths]}


def _parse_body(doc, dim: int, path: str) -> ConvexBody:
    if not isinstance(doc, dict):
        raise ParseError(path, "body must be an object")
    btype = doc.get("type")
    if btype == "vertices":
        pts = doc.get("points")
        if not isinstance(pts, list) or not pts:
            raise ParseError(f"{path}.points", "expected a nonempty list of points")
        parsed = []
        for i, p in enumerate(pts):
            if not isinstance(p, list) or len(p) != dim:
                raise ParseError(f"{path}.points[{i}]", f"expected {dim} coordinates")
            parsed.append([_parse_rat(c, f"{path}.points[{i}][{j}]") for j, c in enumerate(p)])
        return ConvexBody.vertices(parsed)
    if btype == "ellipsoid":
        form = _parse_rat_matrix(doc.get("form"), f"{path}.form", dim)
        try:
            return ConvexBody.from_ellipsoid(Ellipsoid(form))
        except (DimensionError, RankError) as exc:
            raise ParseError(f"{path}.form", str(exc)) from None
    if btype == "box":
        hw = doc.get("halfwidths")
        if not isinstance(hw, list) or len(hw) != dim:
            raise ParseError(f"{path}.halfwidths", f"expected {dim} halfwidths")
        parsed = [_parse_rat(h, f"{path}.halfwidths[{i}]") for i, h in enumerate(hw)]
        for i, h in enumerate(parsed):
            if h < 0:
                raise ParseError(f"{path}.halfwidths[{i}]", "box halfwidths must be nonnegative")
        return ConvexBody.box(parsed)
    if btype == "ball":
        radius = _parse_rat(doc.get("radius"), f"{path}.radius")
        if radius <= 0:
            raise ParseError(f"{path}.radius", "radius must be positive")
        identity = Mat([[int(i == j) for j in range(dim)] for i in range(dim)])
        return ConvexBody.from_ellipsoid(Ellipsoid(identity.scale(1 / (radius * radius))))
    raise ParseError(f"{path}.type", f"unknown body type {btype!r}")


def _parse_gap(doc, dim: int, path: str) -> Gap:
    if not isinstance(doc, dict):
        raise ParseError(path, "gap must be an object")
    base = doc.get("base")
    if not isinstance(base, list) or len(base) != dim:
        raise ParseError(f"{path}.base", f"expected {dim} coordinates")
    diffs = doc.get("diffs")
    if not isinstance(diffs, list):
        raise ParseError(f"{path}.diffs", "expected a list of difference vectors")
    halfsides = doc.get("halfsides")
    if not isinstance(halfsides, list) or len(halfsides) != len(diffs):
        raise ParseError(f"{path}.halfsides", "expected one halfside per difference")
    parsed_diffs = []
    for i, v in enumerate(diffs):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"{path}.diffs[{i}]", f"expected {dim} coordinates")
        parsed_diffs.append(tuple(_parse_int(c, f"{path}.diffs[{i}][{j}]") for j, c in enumerate(v)))
    return Gap(
        dim,
        tuple(_parse_int(c, f"{path}.base[{i}]") for i, c in enumerate(base)),
        tuple(parsed_diffs),
        tuple(_parse_int(n, f"{path}.halfsides[{i}]") for i, n in enumerate(halfsides)),
    )


_KNOWN_KEYS = {"dim", "body", "phi", "budget", "gap", "kind", "seed"}


def parse_instance(doc) -> InstanceSpec:
    """Validate one instance document (dict or JSON text)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError("", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("", "instance must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ParseError(sorted(unknown)[0], "unknown key")
    if "dim" not in doc:
        raise ParseError("dim", "missing")
    dim = _parse_int(doc["dim"], "dim")
    if dim < 1:
        raise ParseError("dim", "must be >= 1")
    if "body" not in doc:
        raise ParseError("body", "missing")
    body = _parse_body(doc["body"], dim, "body")

    phi = None
    if "phi" in doc:
        raw = doc["phi"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise ParseError("phi", f"expected {dim} integer coefficients")
        phi = tuple(_parse_int(c, f"phi[{i}]") for i, c in enumerate(raw))
    budget = DEFAULT_BUDGET
    if "budget" in doc:
        budget = _parse_int(doc["budget"], "budget")
        if budget < 1:
            raise ParseError("budget", "must be positive")
    gap = _parse_gap(doc["gap"], dim, "gap") if "gap" in doc else None
    kind = doc.get("kind", "")
    if not isinstance(kind, str):
        raise ParseError("kind", "must be a string")
    seed = None
    if "seed" in doc:
        seed = _parse_int(doc["seed"], "seed")
    return InstanceSpec(dim=dim, body=body, phi=phi, budget=budget, gap=gap, kind=kind, seed=seed)


def gen_random(
    kind: str,
    dim: int,
    seed: int,
    *,
    entry_bound: int = 3,
    radius: Fraction | int | str = 4,
    num_points: int = 0,
    coord_bound: int = 4,
    scale: int = 2,
    max_tries: int = 100,
    box_guard: int = _SCAN_GUARD,
) -> InstanceSpec:
    """Deterministic random instance (seed fully determines the output).

    lattice-ball: integer basis with entries in [-entry_bound, entry_bound];
    the intersection of a ball with that lattice, rewritten in lattice
    coordinates, i.e. an ellipsoid instance with form B B^T / radius^2.
    random-vertices: num_points integer points spanning the space.
    random-ellipsoid: form R^T R / (scale^2 ||R||_F^2), which contains the
    ball of radius `scale`.  Radius, scale, entry_bound and coord_bound
    must be positive, num_points nonnegative (0 draws dim + 2 points).

    Draws that do not span, or whose enumeration box holds more than
    box_guard points, are rejected and redrawn, deterministically; after
    max_tries GenerationError names which of the two rejected them.
    """
    if dim < 1:
        raise GenerationError("dim must be >= 1")
    if kind not in GENERATOR_KINDS:
        raise GenerationError(f"unknown generator kind {kind!r}")
    r = Fraction(radius)
    if r <= 0 or scale <= 0:
        raise GenerationError(f"radius and scale must be positive, not {r} and {scale}")
    for name, value in (("entry_bound", entry_bound), ("coord_bound", coord_bound)):
        if value < 1:
            raise GenerationError(f"{name} must be >= 1, not {value}")
    if num_points < 0:
        raise GenerationError(f"num_points must be >= 0, not {num_points}")
    # stream separated by kind so different generators never share draws
    rng = SplitMix64((seed << 8) ^ GENERATOR_KINDS.index(kind))
    box = None  # bounding box of the last spanning draw, which box_guard rejected
    for _ in range(max_tries):
        if kind == "random-vertices":
            pts = [
                [rng.randint(-coord_bound, coord_bound) for _ in range(dim)]
                for _ in range(num_points or dim + 2)
            ]
            if _span_rank(pts, dim) < dim:
                continue
            body = ConvexBody.vertices(pts)
        else:
            bound = entry_bound if kind == "lattice-ball" else 2
            m = Mat([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)])
            if det(m) == 0:
                continue
            if kind == "lattice-ball":
                form = (m @ m.transpose()).scale(1 / (r * r))
            else:
                fro_sq = sum(x * x for row in m.num for x in row)
                form = (m.transpose() @ m).scale(Fraction(1, scale * scale * fro_sq))
            body = ConvexBody.from_ellipsoid(Ellipsoid(form))
        box = box_point_count(body)
        if box <= box_guard:
            return InstanceSpec(dim=dim, body=body, kind=kind, seed=seed)
    if box is None:
        raise GenerationError(f"no spanning draw after {max_tries} tries")
    raise GenerationError(
        f"no usable draw after {max_tries} tries: the bounding box of every spanning draw"
        f" holds more than box_guard = {box_guard} integer points, the last {box}"
    )


def gap_to_json(gap: Gap) -> dict:
    return {
        "base": list(gap.base),
        "diffs": [list(v) for v in gap.diffs],
        "halfsides": list(gap.halfsides),
    }


def cover_report_to_json(report: CoverReport, include_timings: bool = False) -> dict:
    doc = {
        "dim": report.dim,
        "cardinality_C": report.cardinality_C,
        "cardinality_P": report.cardinality_P,
        "ratio": rat_to_json(report.ratio),
        "bound_value": rat_to_json(report.bound_value),
        "contained": report.contained,
        "witness": list(report.witness) if report.witness is not None else None,
    }
    s = report.stages
    if s is not None:
        doc["stages"] = record_to_json(s)
        doc["stage_chain"] = stage_chain(report)
    if include_timings:
        # wall-clock diagnostics; approximate by nature and excluded from
        # the canonical (byte-comparable) report
        doc["timings_ms_approx"] = {k: float(v) for k, v in report.timings_ms.items()}
    return doc


def to_canonical_json(doc) -> str:
    """The canonical text of a report: exactly ``json.dumps(doc,
    sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"``.

    Keys are sorted and no insignificant whitespace is written, so equal
    documents give equal bytes and the text can be hashed; strings are
    escaped to ASCII, ints written in full, tuples as lists, and floats (only
    the ``*_approx`` diagnostics) as ``json.dumps`` writes them.  A value
    that is not JSON, such as a Fraction, raises TypeError; a circular
    document raises RecursionError.  Keys are not checked: ``json.dumps``
    writes an int, float, bool or None key as a string (keys of mixed types
    cannot be sorted and raise TypeError), and every key the program builds
    is a literal or a dataclass field name.  Readers who want the text
    indented can use ``python -m json.tool``.

    Compact, the whole document is one call into CPython's C encoder.  The
    C encoder does not handle ``indent`` (CPython 3.10 to 3.13), so an
    indented form goes through ``json.encoder``'s Python code, at about
    twice the cost per report.  ``check_circular=False`` spares the
    encoder's table of the containers it is inside; the recursion limit
    still stops a circular document.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def run_batch(
    specs: Sequence[InstanceSpec],
    *,
    fail_fast: bool = False,
    allow_skip: bool = False,
    include_timings: bool = False,
) -> BatchReport:
    """Certify each instance once and check its projection when phi is given.

    An instance without a ``gap`` runs the pipeline (cover), which sweeps C
    and certifies the progression it builds; one carrying a ``gap`` is
    verification-only (verify_cover).  Either way the report's ``verify``
    entry is that certificate without the stage diagnostics, and the
    projection check reads that certificate: its sweep of C, its
    progression and its proof of independence.  Per-instance errors are
    captured in the report; the batch aborts early only with fail_fast.
    Report order follows input order.
    """
    batch = BatchReport()
    for index, spec in enumerate(specs):
        entry = {"index": index, "instance": spec.to_json_dict()}
        t0 = time.perf_counter()
        try:
            if spec.gap is not None:
                gap = spec.gap
                report = verify_cover(spec.body, gap, spec.budget)
                entry["mode"] = "verify"
                entry["verify"] = cover_report_to_json(report, include_timings)
            else:
                gap, report = cover(spec.body, spec.budget)
                entry["mode"] = "cover"
                entry["gap"] = gap_to_json(gap)
                certificate = cover_report_to_json(report, include_timings)
                entry["cover"] = certificate
                # the same certificate, without the stage diagnostics
                entry["verify"] = {
                    key: value
                    for key, value in certificate.items()
                    if key not in ("stages", "stage_chain")
                }
                for name, factor in (report.stage_factors or {}).items():
                    if batch.max_factors[name] is None or factor > batch.max_factors[name]:
                        batch.max_factors[name] = factor
            contained = report.contained
            ratio = report.ratio
            if spec.phi is not None:
                prep = verify_projection(report, spec.phi, spec.budget)
                entry["projection"] = record_to_json(prep)
                contained = contained and prep.holds
            entry["contained"] = contained
            if batch.max_ratio is None or ratio > batch.max_ratio:
                batch.max_ratio = ratio
            if not contained:
                batch.failures.append(
                    {"index": index, "witness": entry.get("verify", {}).get("witness")}
                )
        except BudgetError as exc:
            entry["error"] = {"type": "budget", "message": str(exc)}
            batch.budget_skips.append({"index": index, "message": str(exc)})
        except GapCoverError as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            batch.failures.append({"index": index, "message": str(exc)})
        if include_timings:
            entry["runtime_ms_approx"] = (time.perf_counter() - t0) * 1000.0
        entry.setdefault("contained", entry.get("error") is None)
        batch.entries.append(entry)
        if fail_fast and (batch.failures or batch.budget_skips):
            break
    return batch


def batch_report_to_json(batch: BatchReport) -> dict:
    return {
        "instances": batch.entries,
        "aggregate": {
            "max_ratio": rat_to_json(batch.max_ratio) if batch.max_ratio is not None else None,
            **{
                f"max_{name}_factor_sq": rat_to_json(factor) if factor is not None else None
                for name, factor in batch.max_factors.items()
            },
        },
        "failures": batch.failures,
        "budget_skips": batch.budget_skips,
    }


CSV_COLUMNS = (
    "dim",
    "kind",
    "seed",
    "card_C",
    "card_P",
    "ratio_num",
    "ratio_den",
    "contained",
    "reduction_ratio_sq",
    "runtime_ms",
)


def batch_to_csv(batch: BatchReport) -> str:
    """Fixed-column CSV; reduction_ratio_sq and runtime_ms are approximate
    convenience floats (the JSON report holds the exact values)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for entry in batch.entries:
        inst = entry.get("instance", {})
        rep = entry.get("cover") or entry.get("verify") or {}
        ratio = Fraction(str(rep.get("ratio", "0"))) if rep else Fraction(0)
        stages = rep.get("stages") or {}
        red = stages.get("reduction_ratio_sq")
        writer.writerow(
            [
                inst.get("dim", ""),
                inst.get("kind", "") or inst.get("body", {}).get("type", ""),
                inst.get("seed", ""),
                rep.get("cardinality_C", ""),
                rep.get("cardinality_P", ""),
                ratio.numerator if rep else "",
                ratio.denominator if rep else "",
                entry.get("contained", ""),
                float(Fraction(str(red))) if red is not None else "",
                round(entry.get("runtime_ms_approx", 0.0), 3),
            ]
        )
    return buf.getvalue()
