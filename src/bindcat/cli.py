"""Command-line front end: law checking for category/monoidal/displayed
documents, term generation and substitution, the monad-law suite, and
the two iteration demos.  Every subcommand is a thin wrapper over a
library call; results are reported uniformly and exit codes are
0 (pass), 1 (law violations), 2 (usage or input errors).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from .displayed import check_displayed_category, load_displayed
from .fincat import TableError, _read_doc, check_category_laws, from_doc
from .monoidal import check_monoidal_laws, from_monoidal_doc
from .omega import ChainError, IterationError, NaturalityError, run_param_demo
from .report import LawReport
from .signature import ParseError, load_signature
from .terms import (Substitution, _nonnegative, check_monad_laws, enumerate_terms, parse_term,
                    render_term, run_evenness_demo, substitute)


@dataclass
class RunReport:
    """The uniform machine-readable outcome of one CLI invocation."""

    command: str
    status: str  # pass | fail | error
    checks_run: int
    violations: list = field(default_factory=list)
    elapsed_ms: int = 0


def _emit(report: RunReport, as_json: bool, lines: tuple[str, ...] = ()) -> None:
    if as_json:
        print(json.dumps(report.__dict__, indent=2))
        return
    for line in lines:
        print(line)
    print(f"{report.command}: {report.status} "
          f"({report.checks_run} checks, {len(report.violations)} violations, "
          f"{report.elapsed_ms} ms)")
    for v in report.violations:
        print(f"  [{v['law']}] {v['witness']}")


def _finish(args, rep: LawReport, t0: float, lines: tuple[str, ...] = ()) -> int:
    elapsed = int((time.perf_counter() - t0) * 1000)
    report = RunReport(args.command, "pass" if rep.ok else "fail", rep.checks_run,
                       [{"law": v.law, "witness": v.witness} for v in rep.violations],
                       elapsed)
    _emit(report, args.json, lines)
    return 0 if rep.ok else 1


def _cmd_check_cat(args) -> tuple[LawReport, tuple[str, ...]]:
    return check_category_laws(from_doc(_read_doc(args.file))), ()


def _cmd_check_monoidal(args) -> tuple[LawReport, tuple[str, ...]]:
    return check_monoidal_laws(from_monoidal_doc(_read_doc(args.file))), ()


def _cmd_check_displayed(args) -> tuple[LawReport, tuple[str, ...]]:
    return check_displayed_category(load_displayed(args.file)), ()


def _cmd_gen_terms(args) -> tuple[LawReport, tuple[str, ...]]:
    sig = load_signature(args.sig)
    ts = enumerate_terms(sig, args.scope, args.depth)
    rep = LawReport()
    rep.tally(len(ts))
    return rep, tuple(render_term(t) for t in ts)


def _cmd_subst(args) -> tuple[LawReport, tuple[str, ...]]:
    _nonnegative(scope=args.scope)
    sig = load_signature(args.sig)
    t = parse_term(sig, args.scope, args.term)
    target = args.scope if args.target is None else args.target
    if len(args.image) != args.scope:
        raise ValueError(
            f"need one image per variable: scope {args.scope} but "
            f"{len(args.image)} images given")
    images = tuple(parse_term(sig, target, s) for s in args.image)
    sub = Substitution(args.scope, target, images)
    result = substitute(t, sub)
    rep = LawReport()
    rep.tally()
    return rep, (render_term(result),)


def _cmd_laws(args) -> tuple[LawReport, tuple[str, ...]]:
    sig = load_signature(args.sig)
    return check_monad_laws(sig, args.depth, args.scope, args.image_depth), ()


def _cmd_mendler_demo(args) -> tuple[LawReport, tuple[str, ...]]:
    return run_evenness_demo(args.depth), ()


def _cmd_param_demo(args) -> tuple[LawReport, tuple[str, ...]]:
    return run_param_demo(args.depth), ()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bindcat",
        description="Check categorical structures and binding-signature "
                    "substitution at finite bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("check-cat", _cmd_check_cat, "check category laws of a table document")
    p.add_argument("file", help="JSON category document")

    p = add("check-monoidal", _cmd_check_monoidal,
            "check monoidal coherence of a table document")
    p.add_argument("file", help="JSON monoidal document")

    p = add("check-displayed", _cmd_check_displayed,
            "check displayed-category laws of a table document")
    p.add_argument("file", help="JSON displayed document (references its base)")

    p = add("gen-terms", _cmd_gen_terms, "enumerate well-scoped terms")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--scope", type=int, default=2, help="ambient scope (default 2)")
    p.add_argument("--depth", type=int, default=3, help="depth bound (default 3)")

    p = add("subst", _cmd_subst, "apply a substitution to a term")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--scope", type=int, default=2,
                   help="scope of the input term (default 2)")
    p.add_argument("--target", type=int, default=None,
                   help="target scope (default: same as --scope)")
    p.add_argument("term", help="term to substitute into")
    p.add_argument("image", nargs="*", help="image term for each variable, in order")

    p = add("laws", _cmd_laws, "exhaustive substitution monad laws")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--depth", type=int, default=3, help="term depth bound (default 3)")
    p.add_argument("--scope", type=int, default=2, help="largest scope (default 2)")
    p.add_argument("--image-depth", type=int, default=None,
                   help="depth bound for substitution images (default: depth - 1)")

    p = add("mendler-demo", _cmd_mendler_demo,
            "evenness of unary numerals by generalized Mendler iteration")
    p.add_argument("--depth", type=int, default=6, help="checked level (default 6)")

    p = add("param-initial-demo", _cmd_param_demo,
            "parametrized initiality for leaf-labelled binary trees")
    p.add_argument("--depth", type=int, default=3, help="checked level (default 3)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        rep, lines = args.handler(args)
    except (ParseError, TableError, ChainError, IterationError, NaturalityError,
            OSError, ValueError) as exc:
        elapsed = int((time.perf_counter() - t0) * 1000)
        print(f"error: {exc}", file=sys.stderr)
        _emit(RunReport(args.command, "error", 0, [], elapsed), args.json)
        return 2
    return _finish(args, rep, t0, lines)


if __name__ == "__main__":
    sys.exit(main())
