"""One pass of one benchmark workload, in the fresh interpreter that
``run.py`` starts for it, so that the package's process-global caches
start cold as they do for each ``bindcat`` invocation.

Usage: worker.py WORKLOAD MODE TRACE SPAWNED_AT

MODE is ``full`` (set up, then run every checker call), ``setup`` (set up
only) or ``micro`` (the terms-layer microbenchmark).  SPAWNED_AT is the
parent's monotonic clock just before it started this process; on Linux
that clock is shared between processes, so set-up time includes
interpreter start.  Prints one JSON object on its last line.

The package is imported as shipped: ``tests/conftest.py``, which turns
scope checking on, is never imported, and a run where ``CHECK_SCOPES``
is on anyway is refused.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bindcat.terms  # noqa: E402
from bindcat import (Ctor, Substitution, Var, chain_category,  # noqa: E402
                     check_category_laws, check_displayed_monoidal,
                     check_monad, check_monad_laws, check_monoidal_laws,
                     check_subst_via_mendler, check_whiskered_bifunctor,
                     classical_from_whiskered, compose_substitutions,
                     endofunctor_monoidal, enumerate_monoids, enumerate_terms,
                     from_monoidal_doc, hom_enumerate, monoid_to_monad,
                     parse_signature, run_evenness_demo, run_param_demo,
                     scoped_signature_functor, substitute, to_monoidal_doc,
                     total_monoidal, trivial_displayed_monoidal,
                     whiskered_from_classical, adamek_initial_algebra)
from bindcat.cli import main as cli_main  # noqa: E402
from bindcat.terms import lift_substitution  # noqa: E402

import expected  # noqa: E402
from expected import SEED_PINNED  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

OUT = HERE / "out"

LAM_TEXT = "sig lam { app : [0, 0]; abs : [1]; }"
AC_TEXT = "sig ac { c : []; abs : [1]; s : [0]; }"
U_TEXT = "sig u { s : [0]; abs : [1]; }"


# --- the saboteur: the benchmark's own copy of the acceptance test's ------------
# substitution that forgets to weaken old images under binders.

def _shift_scope(t, k):
    if isinstance(t, Var):
        return Var(t.scope + k, t.index)
    return Ctor(t.scope + k, t.name, tuple(_shift_scope(a, k) for a in t.args))


def broken_substitute(t, s):
    if isinstance(t, Var):
        return s.images[t.index]
    out = []
    for a in t.args:
        k = a.scope - t.scope
        if k == 0:
            out.append(broken_substitute(a, s))
        else:
            # new variables map to themselves, but captured occurrences
            # in the images are left pointing at the wrong binder
            bad = Substitution(
                s.source + k, s.target + k,
                tuple(Var(s.target + k, i) for i in range(k))
                + tuple(_shift_scope(img, k) for img in s.images))
            out.append(broken_substitute(a, bad))
    return Ctor(s.target, t.name, tuple(out))


def arities(sig) -> list[tuple[int, ...]]:
    return [c.arity for c in sig.constructors]


# --- recording and judging checker calls --------------------------------------

@dataclass
class CliResult:
    code: int
    doc: dict
    checks_run: int


class Calls:
    """The workload's checker calls, each inside its own span.  Results
    are judged after the timed region, so judging costs no verdict time."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.made: list[tuple[str, object, object]] = []

    def call(self, name: str, fn, judge):
        with self.tracer.span(name) as sp:
            try:
                result = fn()
            except Exception as exc:  # a raising call is a wrong verdict
                result = exc
        if hasattr(result, "checks_run"):
            sp.counts["checks"] = result.checks_run
        elif isinstance(result, list):
            sp.counts["count"] = len(result)
        self.made.append((name, result, judge))
        return None if isinstance(result, Exception) else result

    def judge(self) -> tuple[int, list[str]]:
        """(checks run by all calls, one line per call judged wrong)."""
        checks, wrong = 0, []
        for name, result, judge in self.made:
            if isinstance(result, Exception):
                wrong.append(f"{name}: raised {result!r}")
                continue
            checks += getattr(result, "checks_run", 0)
            problems = judge(result)
            if problems:
                wrong.append(f"{name}: " + "; ".join(problems))
        return checks, wrong


def passes(checks: int | None = None):
    def judge(rep) -> list[str]:
        out = []
        if not rep.ok:
            v = rep.violations[0]
            out.append(f"expected pass, got {len(rep.violations)} violations, "
                       f"first [{v.law}] {v.witness[:200]}")
        if checks is not None and rep.checks_run != checks:
            out.append(f"checks_run {rep.checks_run}, expected {checks}")
        return out
    return judge


def equals(want, what: str):
    def judge(got) -> list[str]:
        return [] if got == want else [f"{what} is {got!r}, expected {want!r}"]
    return judge


def violation_totals(rep) -> dict[str, int]:
    totals: dict[str, int] = {}
    for v in rep.violations:
        totals[v.law] = totals.get(v.law, 0) + 1
    return totals


# --- workloads ----------------------------------------------------------------
# Each workload has a set-up function returning its inputs and a run
# function making its checker calls in order, from one thread, each
# waiting for the one before.  Check counts and result sizes go on each
# call's span; ``layer_counts`` gives the other per-layer counts.

def setup_laws() -> dict:
    lam = parse_signature(LAM_TEXT)
    return {"sig": lam, "checks": expected.monad_law_checks(arities(lam), 3, 2)}


def run_laws(ctx: dict, calls: Calls) -> None:
    calls.call("terms.sweep",
               lambda: check_monad_laws(
                   ctx["sig"], depth=3, max_scope=2,
                   subst=calls.tracer.aggregate("terms.subst", substitute)),
               passes(ctx["checks"]))


def setup_sabotaged() -> dict:
    ac = parse_signature(AC_TEXT)
    return {"sig": ac, "checks": expected.monad_law_checks(arities(ac), 3, 2),
            "subst": broken_substitute}


def judge_sabotaged(ctx: dict):
    want = SEED_PINNED["sabotaged.violations"]

    def judge(rep) -> list[str]:
        out = []
        if rep.ok:
            out.append("expected the saboteur to fail the laws")
        if rep.checks_run != ctx["checks"]:
            out.append(f"checks_run {rep.checks_run}, expected {ctx['checks']}")
        totals = violation_totals(rep)
        if totals != want:
            out.append(f"violations per law {totals}, expected {want}")
        if not any(v.law == "monad-assoc" and "abs" in v.witness
                   for v in rep.violations):
            out.append("no monad-assoc witness mentions abs")
        return out
    return judge


def run_sabotaged(ctx: dict, calls: Calls) -> None:
    calls.call("terms.sweep",
               lambda: check_monad_laws(
                   ctx["sig"], 3, 2,
                   subst=calls.tracer.aggregate("terms.subst", ctx["subst"])),
               judge_sabotaged(ctx))


def monoidal_tables(M) -> tuple:
    C = M.base
    return (C.objects, C.morphisms, C.identity, C.comp, M.unit,
            M.tensor.obj_table, M.tensor.lwhisker, M.tensor.rwhisker,
            M.lunitor, M.lunitor_inv, M.runitor, M.runitor_inv,
            M.associator, M.associator_inv)


def whiskered_tables(T) -> tuple:
    return (T.obj_table, T.lwhisker, T.rwhisker)


def setup_tables() -> dict:
    OUT.mkdir(exist_ok=True)
    doc_path = OUT / f"chain3-monoidal-{os.getpid()}.json"
    doc = to_monoidal_doc(endofunctor_monoidal(chain_category(3)).monoidal)
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    return {"doc_path": doc_path}


def teardown_tables(ctx: dict) -> None:
    ctx["doc_path"].unlink(missing_ok=True)


def built(n: int):
    def judge(E) -> list[str]:
        out = []
        if len(E.functors) != expected.chain_endofunctors(n):
            out.append(f"{len(E.functors)} endofunctors, expected "
                       f"{expected.chain_endofunctors(n)}")
        if len(E.nats) != SEED_PINNED[f"nat_transes.n{n}"]:
            out.append(f"{len(E.nats)} transformations, expected "
                       f"{SEED_PINNED[f'nat_transes.n{n}']}")
        return out
    return judge


def count_is(want: int, what: str):
    def judge(xs) -> list[str]:
        return [] if len(xs) == want else [f"{len(xs)} {what}, expected {want}"]
    return judge


def run_cli_check_monoidal(path: Path) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["check-monoidal", str(path), "--json"])
    doc = json.loads(buf.getvalue())
    return CliResult(code, doc, doc["checks_run"])


def doc_roundtrip(M) -> tuple[int, object]:
    text = json.dumps(to_monoidal_doc(M))
    return len(text.encode()), from_monoidal_doc(json.loads(text))


def run_tables(ctx: dict, calls: Calls) -> None:
    E = calls.call("monoidal.build.n3",
                   lambda: endofunctor_monoidal(chain_category(3)), built(3))
    M = E.monoidal
    calls.call("fincat.category_laws.n3", lambda: check_category_laws(M.base), passes())
    calls.call("monoidal.whiskered_laws.n3",
               lambda: check_whiskered_bifunctor(M.tensor), passes())
    rep3 = calls.call("monoidal.monoidal_laws.n3", lambda: check_monoidal_laws(M),
                      passes())
    monoids = calls.call("monoidal.monoids.n3", lambda: enumerate_monoids(M),
                         count_is(expected.chain_monoids(3), "monoids"))
    for m in monoids:
        calls.call("monoidal.monads.n3", lambda m=m: check_monad(monoid_to_monad(E, m)),
                   passes())
    calls.call("monoidal.classical_roundtrip.n3",
               lambda: whiskered_tables(
                   whiskered_from_classical(classical_from_whiskered(M.tensor))),
               equals(whiskered_tables(M.tensor), "round-tripped tensor"))
    calls.call("monoidal.doc_roundtrip.n3", lambda: doc_roundtrip(M),
               lambda r: equals(monoidal_tables(M), "tables read back")(
                   monoidal_tables(r[1])))

    def cli_ok(r: CliResult) -> list[str]:
        want = rep3.checks_run if rep3 is not None else None
        if (r.code, r.doc["status"], r.doc["violations"], r.checks_run) == \
                (0, "pass", [], want):
            return []
        return [f"exit {r.code}, status {r.doc['status']}, "
                f"{len(r.doc['violations'])} violations, {r.checks_run} checks "
                f"(library gave {want})"]

    calls.call("cli.check_monoidal.n3",
               lambda: run_cli_check_monoidal(ctx["doc_path"]), cli_ok)
    calls.call("displayed.monoidal_laws.n3",
               lambda: check_displayed_monoidal(trivial_displayed_monoidal(M)),
               passes())
    calls.call("displayed.total_laws.n3",
               lambda: check_monoidal_laws(total_monoidal(trivial_displayed_monoidal(M))),
               passes())

    E4 = calls.call("monoidal.build.n4",
                    lambda: endofunctor_monoidal(chain_category(4)), built(4))
    M4 = E4.monoidal
    calls.call("fincat.category_laws.n4", lambda: check_category_laws(M4.base),
               passes())
    calls.call("monoidal.whiskered_laws.n4",
               lambda: check_whiskered_bifunctor(M4.tensor),
               passes(SEED_PINNED["whiskered_laws.n4.checks"]))
    calls.call("monoidal.monoidal_laws.n4", lambda: check_monoidal_laws(M4),
               passes(SEED_PINNED["monoidal_laws.n4.checks"]))
    calls.call("monoidal.monoids.n4", lambda: enumerate_monoids(M4),
               count_is(expected.chain_monoids(4), "monoids"))
    calls.call("displayed.monoidal_laws.n4",
               lambda: check_displayed_monoidal(trivial_displayed_monoidal(M4)),
               passes(SEED_PINNED["displayed_monoidal.n4.checks"]))


def endofunctor_candidates(n: int) -> int:
    """Candidate functor tables the search tries on the n-chain: over
    every object map, the product of hom sizes for the non-identity
    morphisms (identities are forced)."""
    C = chain_category(n)
    total = 0
    for images in itertools.product(C.objects, repeat=len(C.objects)):
        on_obj = dict(zip(C.objects, images))
        prod = 1
        for m, s, t in C.morphisms:
            if m != C.id_of(s):
                prod *= len(hom_enumerate(C, on_obj[s], on_obj[t]))
        total += prod
    return total


def setup_folds() -> dict:
    return {"lam": parse_signature(LAM_TEXT), "u": parse_signature(U_TEXT)}


def adamek_levels(sig, max_scope: int, top: int) -> dict[int, list]:
    alg = adamek_initial_algebra(scoped_signature_functor(sig, max_scope, top))
    return {d: list(alg.carrier.level(d)) for d in range(1, top + 1)}


def adamek_agrees(sig, max_scope: int):
    """Each level, split by scope, is the direct enumeration, and its
    size is the arity recurrence's count."""
    def judge(levels) -> list[str]:
        out = []
        for d, level in levels.items():
            for n in range(max_scope + 1):
                at = [t for t in level if t.scope == n]
                if len(at) != expected.term_count(arities(sig), n, d):
                    out.append(f"level {d} scope {n}: {len(at)} terms, expected "
                               f"{expected.term_count(arities(sig), n, d)}")
                elif at != enumerate_terms(sig, n, d):
                    out.append(f"level {d} scope {n} differs from enumerate_terms")
        return out
    return judge


def run_folds(ctx: dict, calls: Calls) -> None:
    calls.call("omega.adamek", lambda: adamek_levels(ctx["lam"], 2, 3),
               adamek_agrees(ctx["lam"], 2))
    calls.call("omega.adamek", lambda: adamek_levels(ctx["u"], 2, 6),
               adamek_agrees(ctx["u"], 2))
    calls.call("omega.mendler", lambda: run_evenness_demo(6, uniqueness_level=16),
               passes())
    calls.call("omega.param_demo", lambda: run_param_demo(4),
               passes(SEED_PINNED["param_demo.checks"]))
    calls.call("omega.subst_via_mendler",
               lambda: check_subst_via_mendler(ctx["lam"], 3, 2, 1),
               passes(SEED_PINNED["subst_via_mendler.checks"]))


WORKLOADS = {
    "laws": (setup_laws, run_laws, None),
    "laws-sabotaged": (setup_sabotaged, run_sabotaged, None),
    "tables": (setup_tables, run_tables, teardown_tables),
    "folds": (setup_folds, run_folds, None),
}


# --- per-layer numbers read off results (traced passes only) ------------------

def layer_counts(workload: str, calls: Calls) -> dict[str, float]:
    results = {}
    for name, result, _ in calls.made:
        if not isinstance(result, Exception):
            results.setdefault(name, []).append(result)
    out: dict[str, float] = {}
    if "terms.sweep" in results:
        rep = results["terms.sweep"][0]
        totals = violation_totals(rep)
        out["report.violations.monad-assoc"] = totals.get("monad-assoc", 0)
        out["report.violations.monad-right-unit"] = totals.get("monad-right-unit", 0)
        out["report.witness_chars"] = sum(len(v.witness) for v in rep.violations)
    if workload == "tables":
        E4 = results["monoidal.build.n4"][0]
        out["monoidal.endofunctor_yield.n4"] = \
            len(E4.functors) / endofunctor_candidates(4)
        out["monoidal.doc_bytes.n3"] = results["monoidal.doc_roundtrip.n3"][0][0]
    if workload == "folds":
        out["omega.adamek_elems"] = sum(len(level) for levels in results["omega.adamek"]
                                        for level in levels.values())
        out["omega.mendler_candidates"] = expected.evenness_candidates(16)
    return out


# --- the terms-layer microbenchmark ---------------------------------------------

def run_micro() -> tuple[dict[str, float], list[str]]:
    """Cold enumeration, then lift, hash, substitute, term equality and
    composition over the sweep's own grid, each timed on its own."""
    lam = parse_signature(LAM_TEXT)
    out: dict[str, float] = {}
    t0 = time.perf_counter()
    grids = {(n, d): enumerate_terms(lam, n, d) for n in range(3) for d in (3, 2)}
    out["terms.enumerate_s"] = time.perf_counter() - t0
    out["terms.enumerate_count"] = sum(len(ts) for ts in grids.values())

    subs_from = {n: [Substitution(n, m, images) for m in range(3)
                     for images in itertools.product(grids[(m, 2)], repeat=n)]
                 for n in range(3)}
    pool = [s for n in range(3) for s in subs_from[n]]
    pairs = [(t, s) for n in range(3) for s in subs_from[n] for t in grids[(n, 3)]]
    want = [expected.reference_substitute(t, s, Var, Ctor) for t, s in pairs]
    composable = [(tau, s) for n in range(3) for s in subs_from[n]
                  for tau in subs_from[s.target]]

    def timed(stem: str, fn, items) -> list:
        t0 = time.perf_counter()
        res = [fn(*x) for x in items]
        out[f"terms.micro.{stem}_s"] = time.perf_counter() - t0
        out[f"terms.micro.{stem}_calls"] = len(items)
        return res

    t0 = time.perf_counter()
    once = [lift_substitution(s, 1) for s in pool]
    twice = [lift_substitution(s, 1) for s in once]
    out["terms.micro.lift_s"] = time.perf_counter() - t0
    out["terms.micro.lift_calls"] = len(once) + len(twice)
    timed("hash", hash, [(s,) for s in pool + once + twice])
    got = timed("subst", substitute, pairs)
    same = timed("eq", lambda a, b: a == b, list(zip(got, want)))
    timed("compose", compose_substitutions, composable)

    wrong = []
    sigma_grid = sum(expected.term_count(arities(lam), n, 3)
                     * sum(expected.term_count(arities(lam), m, 2) ** n for m in range(3))
                     for n in range(3))
    if len(pairs) != sigma_grid:
        wrong.append(f"terms.micro: {len(pairs)} (term, substitution) pairs, "
                     f"expected {sigma_grid}")
    if not all(same):
        wrong.append(f"terms.micro: substitute differs from the reference on "
                     f"{same.count(False)} of {len(same)} pairs")
    return out, wrong


def main(argv: list[str]) -> int:
    workload, mode, trace, spawned_at = argv[1], argv[2], argv[3] == "1", float(argv[4])
    if bindcat.terms.CHECK_SCOPES:
        print("refused: bindcat.terms.CHECK_SCOPES is on, so the run would not "
              "measure the library's defaults", file=sys.stderr)
        return 3
    result: dict = {"workload": workload, "mode": mode, "check_scopes": False}
    if mode == "micro":
        result["layer"], result["wrong"] = run_micro()
    else:
        setup, run, teardown = WORKLOADS[workload]
        ctx = setup()
        result["setup_s"] = time.monotonic() - spawned_at
        if mode == "full":
            tracer = Tracer(f"{workload}-{os.getpid()}") if trace else NullTracer()
            calls = Calls(tracer)
            t0 = time.perf_counter()
            with tracer.span(f"workload.{workload}"):
                run(ctx, calls)
            result["verdict_s"] = time.perf_counter() - t0
            result["checks"], result["wrong"] = calls.judge()
            result["calls"] = len(calls.made)
            if trace:
                result["spans"] = tracer.records()
                result["layer"] = layer_counts(workload, calls)
        if teardown:
            teardown(ctx)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
