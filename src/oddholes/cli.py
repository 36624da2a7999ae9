"""Command-line front end.

All structured output is JSON on stdout (UTF-8, LF); human-oriented notes
go to stderr.  Exit status: 0 success, 1 a property violation or bound
failure was found, 2 usage or parse error, 3 internal error (any other
exception, reported on stderr as ``internal error: <Type>: <message>``).
The exact oracle's vertex cap can be overridden with the
ODDHOLES_EXACT_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .coloring import dsatur, four_color_a3_components
from .exact import chromatic_number
from .generate import GenSpec, corpus_filename, generate_member
from .graph import Graph, GraphError, ParseError, parse_graph, to_graph6
from .holes import ClassSpec, class_membership, enumerate_induced_cycles
from .verify import MembershipError, certified_class_color, verify_corpus


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _load_graph(path: str) -> Graph:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    fmt = "edge-list" if p.suffix in (".el", ".edges", ".edgelist") else "graph6"
    return parse_graph(text, fmt)


def _class_spec(args: argparse.Namespace) -> ClassSpec:
    return ClassSpec(args.family, args.ell, args.seven_hole_free)


def _coloring_payload(coloring) -> dict:
    return {
        "assignment": {str(v): c for v, c in sorted(coloring.assignment.items())},
        "colors_used": coloring.colors_used,
    }


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    cspec = _class_spec(args)
    verdict = class_membership(g, cspec)
    payload = {
        "family": cspec.family,
        "ell": cspec.ell,
        "clauses": cspec.describe(),
        "member": verdict.member,
        "witness": list(verdict.witness.cycle) if verdict.witness else None,
        "witness_kind": verdict.witness.kind if verdict.witness else None,
    }
    _emit(payload)
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    if args.family is not None:
        cspec = _class_spec(args)
        try:
            cert = certified_class_color(g, cspec)
        except MembershipError as exc:
            _emit({
                "error": "not a class member",
                "witness": list(exc.witness.cycle),
                "witness_kind": exc.witness.kind,
            })
            return 1
        payload = _coloring_payload(cert.coloring)
        payload.update({"bound": cert.bound, "within": cert.within})
        _emit(payload)
        return 0
    if args.method == "a3":
        coloring, evidence = four_color_a3_components(g)
        if evidence is not None:
            _emit({
                "error": "a BFS layer contains an odd cycle",
                "evidence": list(evidence),
            })
            return 1
    elif args.method == "exact":
        coloring = chromatic_number(g).coloring
    else:
        coloring = dsatur(g)
    payload = _coloring_payload(coloring)
    payload["method"] = args.method
    _emit(payload)
    return 0


def _cmd_chroma(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    _emit({"chi": chromatic_number(g).chi})
    return 0


def _cmd_holes(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    witnesses = enumerate_induced_cycles(g, args.max_len)
    _emit({
        "count": len(witnesses),
        "cycles": [
            {"cycle": list(w.cycle), "length": w.length, "kind": w.kind}
            for w in witnesses
        ],
    })
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    degenerate = []
    for offset in range(args.count):
        gs = GenSpec(
            cspec=_class_spec(args),
            n=args.n,
            density=args.density,
            seed=args.seed + offset,
            retry_budget=args.retry_budget,
        )
        result = generate_member(gs)
        name = corpus_filename(gs)
        (out_dir / name).write_text(to_graph6(result.graph) + "\n")
        files.append(name)
        if result.degenerate:
            degenerate.append(name)
    _emit({"dir": str(out_dir), "files": files, "degenerate": degenerate})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_corpus(
        args.dir,
        family=args.family,
        ell=args.ell,
        seven_hole_free=args.seven_hole_free,
        timeout=args.timeout,
    )
    payload = report.to_dict()
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    summary = payload["summary"]
    line = (
        f"verified {summary['graphs']} graphs: {summary['pass']} pass, "
        f"{summary['fail']} fail, {summary['skip']} skip, "
        f"{summary['timeout']} timeout, {summary['error']} error"
    )
    if summary["membership_timeout"]:
        line += f", {summary['membership_timeout']} membership timeout"
    print(line, file=sys.stderr)
    return 1 if report.has_failures else 0


def _positive_seconds(text: str) -> float:
    """A time budget: a positive finite number of seconds.  NaN would turn
    every deadline off and zero or less would expire every one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number of seconds, got {text!r}"
        )
    return value


def _add_class_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--class",
        dest="family",
        choices=["A", "B", "G", "F"],
        required=required,
        default=None,
        help="graph family letter",
    )
    parser.add_argument("--ell", type=int, required=required, help="family parameter (>= 2)")
    parser.add_argument(
        "--seven-hole-free",
        action="store_true",
        help="additionally exclude 7-holes (the 12*ell+8 bound's hypothesis)",
    )


def _check_class_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Where --class is optional, a class is given whole or not at all."""
    if args.family is not None and args.ell is None:
        parser.error("--class requires --ell")
    if args.family is None and args.ell is not None:
        parser.error("--ell requires --class")
    if args.family is None and args.seven_hole_free:
        parser.error("--seven-hole-free requires --class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddholes",
        description="hole detection, class membership, levellings, and bounded coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="class membership with a witness on failure")
    p.add_argument("file")
    _add_class_flags(p, required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("color", help="color a graph (optionally certified for a class)")
    p.add_argument("file")
    p.add_argument("--method", choices=["a3", "dsatur", "exact"], default="dsatur")
    _add_class_flags(p, required=False)
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("chroma", help="exact chromatic number")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_chroma)

    p = sub.add_parser("holes", help="enumerate induced cycles up to a length")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.set_defaults(fn=_cmd_holes)

    p = sub.add_parser("gen", help="generate seeded random class members")
    _add_class_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.15)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--retry-budget", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run the property suite over a corpus directory")
    p.add_argument("dir")
    _add_class_flags(p, required=False)
    p.add_argument("--timeout", type=_positive_seconds, default=30.0)
    p.add_argument("--report", help="also write the JSON report to this path")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "family"):
            _check_class_flags(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
