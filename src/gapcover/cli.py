"""Command-line interface.

Subcommands: cover, verify, project, random, batch.  Input and output are
JSON documents, read by harness.parse_instance and written by the harness
*_to_json functions; exit codes: 0 all certificates hold, 1 certification
failure, 2 usage, parse or generation error, 3 budget exhausted without
--allow-skip.  --eps and --budget are put into the instance document and
checked with its other keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cover import cover, verify_cover, verify_projection
from .errors import BudgetError, GapCoverError, GenerationError, ParseError
from .harness import (
    EXIT_BUDGET,
    EXIT_CERT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    GENERATOR_KINDS,
    batch_report_to_json,
    batch_to_csv,
    cover_report_to_json,
    gap_to_json,
    gen_random,
    parse_instance,
    projection_report_to_json,
    run_batch,
    to_canonical_json,
)


def _read_json(path: str):
    """The JSON document in a file, or on stdin for -."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError("", f"invalid JSON: {exc}") from None


def _write_output(text: str, path: str | None):
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_io_flags(sub):
    sub.add_argument("--input", "-i", required=True, help="instance JSON file, or - for stdin")
    sub.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
    sub.add_argument("--eps", default=None, help="ellipsoid tolerance as a rational, e.g. 1/100")
    sub.add_argument("--budget", type=int, default=None, help="enumeration point budget")
    sub.add_argument("--timings", action="store_true", help="include approximate timing diagnostics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcover",
        description="Cover the lattice points of a symmetric convex body by a "
        "generalized arithmetic progression, with exact certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_cover = subs.add_parser("cover", help="run the covering pipeline on one instance")
    _add_io_flags(p_cover)

    p_verify = subs.add_parser("verify", help="verify a progression against a body")
    _add_io_flags(p_verify)

    p_project = subs.add_parser("project", help="cover, then verify the projection chain")
    _add_io_flags(p_project)
    p_project.add_argument("--phi", default=None, help="comma-separated integer coefficients")

    p_random = subs.add_parser("random", help="emit a seeded random instance")
    p_random.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p_random.add_argument("--dim", type=int, required=True)
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--entry-bound", type=int, default=3)
    p_random.add_argument("--radius", default="4")
    p_random.add_argument("--num-points", type=int, default=0)
    p_random.add_argument("--coord-bound", type=int, default=4)
    p_random.add_argument("--scale", type=int, default=2)
    p_random.add_argument("--output", "-o", default=None)

    p_batch = subs.add_parser("batch", help="run a JSON array of instances")
    _add_io_flags(p_batch)
    p_batch.add_argument("--csv", default=None, help="also write a CSV summary to this path")
    p_batch.add_argument("--fail-fast", action="store_true")
    p_batch.add_argument("--allow-skip", action="store_true", help="budget errors do not fail the run")
    return parser


def _parse_with_overrides(doc, args):
    """parse_instance on the document with --eps and --budget put in as its
    keys, so that one validator serves the flags and the document."""
    flags = {"eps": args.eps, "budget": args.budget}
    if isinstance(doc, dict):
        doc = {**doc, **{key: v for key, v in flags.items() if v is not None}}
    return parse_instance(doc)


def _cmd_cover(args) -> int:
    spec = _parse_with_overrides(_read_json(args.input), args)
    gap, report = cover(spec.body, spec.eps, spec.budget)
    doc = {
        "instance": spec.to_json_dict(),
        "gap": gap_to_json(gap),
        "report": cover_report_to_json(report, args.timings),
    }
    _write_output(to_canonical_json(doc), args.output)
    return EXIT_OK if report.contained else EXIT_CERT_FAILURE


def _cmd_verify(args) -> int:
    spec = _parse_with_overrides(_read_json(args.input), args)
    if spec.gap is None:
        raise ParseError("gap", "verify needs an instance with a 'gap' object")
    report = verify_cover(spec.body, spec.gap, spec.budget)
    doc = {
        "instance": spec.to_json_dict(),
        "report": cover_report_to_json(report, args.timings),
    }
    _write_output(to_canonical_json(doc), args.output)
    return EXIT_OK if report.contained else EXIT_CERT_FAILURE


def _cmd_project(args) -> int:
    spec = _parse_with_overrides(_read_json(args.input), args)
    phi = spec.phi
    if args.phi is not None:
        phi = tuple(int(c) for c in args.phi.split(","))
    if phi is None:
        raise ParseError("phi", "project needs a functional (instance key or --phi)")
    if len(phi) != spec.dim:
        raise ParseError("phi", f"expected {spec.dim} coefficients")
    gap, report = cover(spec.body, spec.eps, spec.budget)
    prep = verify_projection(report.lattice_points, gap, phi, spec.budget)
    doc = {
        "instance": spec.to_json_dict(),
        "gap": gap_to_json(gap),
        "report": cover_report_to_json(report, args.timings),
        "projection": projection_report_to_json(prep),
    }
    _write_output(to_canonical_json(doc), args.output)
    ok = report.contained and prep.chain_ok and prep.corollary_ok and prep.fiber_monotone
    return EXIT_OK if ok else EXIT_CERT_FAILURE


def _cmd_random(args) -> int:
    spec = gen_random(
        args.kind,
        args.dim,
        args.seed,
        entry_bound=args.entry_bound,
        radius=args.radius,
        num_points=args.num_points,
        coord_bound=args.coord_bound,
        scale=args.scale,
    )
    _write_output(to_canonical_json(spec.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_batch(args) -> int:
    docs = _read_json(args.input)
    if isinstance(docs, dict) and "instances" in docs:
        docs = docs["instances"]
    if not isinstance(docs, list):
        raise ParseError("", "batch input must be a JSON array of instances")
    specs = []
    for i, doc in enumerate(docs):
        try:
            specs.append(_parse_with_overrides(doc, args))
        except ParseError as exc:
            raise ParseError(f"[{i}].{exc.path}" if exc.path else f"[{i}]", exc.message) from None
    batch = run_batch(
        specs,
        fail_fast=args.fail_fast,
        allow_skip=args.allow_skip,
        include_timings=args.timings,
    )
    _write_output(to_canonical_json(batch_report_to_json(batch)), args.output)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(batch_to_csv(batch))
    return batch.exit_code(args.allow_skip)


_COMMANDS = {
    "cover": _cmd_cover,
    "verify": _cmd_verify,
    "project": _cmd_project,
    "random": _cmd_random,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GapCoverError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_CERT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
