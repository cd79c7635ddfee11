"""Pinned failure output of the table checkers.

A fixed battery of broken tables, each run through the category,
whiskered, monoidal and displayed checkers.  For every run the fixture
`tables_golden.json` records `checks_run`, the violation totals per law
and the SHA-256 of the ordered (law, witness) list, so any change to
what a checker counts, reports or renders shows up here.

The battery is built from End(chain 3): one changed value in each of its
tables, the same for its trivial displayed monoidal structure plus three
deleted displayed entries, and the broken document fixtures.

Regenerate the fixture (only when a change to the output is intended):

    PYTHONPATH=src python tests/test_tables_golden.py
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from bindcat import (
    chain_category,
    check_category_laws,
    check_displayed_category,
    check_displayed_monoidal,
    check_monoidal_laws,
    check_whiskered_bifunctor,
    endofunctor_monoidal,
    from_doc,
    from_monoidal_doc,
    load_displayed,
    trivial_displayed_monoidal,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "tables_golden.json"


def summary(rep) -> dict:
    pairs = [[v.law, v.witness] for v in rep.violations]
    digest = hashlib.sha256(json.dumps(pairs, ensure_ascii=False).encode("utf-8"))
    return {"checks_run": rep.checks_run,
            "violations": dict(sorted(Counter(v.law for v in rep.violations).items())),
            "sha256": digest.hexdigest()}


def _middle(table):
    keys = list(table)
    return keys[len(keys) // 2]


def _changed(table, ring):
    """A copy of ``table`` whose middle entry holds the next id of ``ring``."""
    out = dict(table)
    key = _middle(table)
    out[key] = ring[(ring.index(out[key]) + 1) % len(ring)]
    return out


def _deleted(table):
    key = _middle(table)
    return {k: v for k, v in table.items() if k != key}


def _swapped(holder, name, table):
    """Run-scoped replacement of one table; returns the restorer."""
    old = getattr(holder, name)
    setattr(holder, name, table)
    return lambda: setattr(holder, name, old)


MONOIDAL_TABLES = [
    # (run name, holder path, attribute, value ring: "mor" or "obj")
    ("comp", "base", "comp", "mor"),
    ("obj", "tensor", "obj_table", "obj"),
    ("lwhisker", "tensor", "lwhisker", "mor"),
    ("rwhisker", "tensor", "rwhisker", "mor"),
    ("lunitor", "", "lunitor", "mor"),
    ("lunitor_inv", "", "lunitor_inv", "mor"),
    ("runitor", "", "runitor", "mor"),
    ("runitor_inv", "", "runitor_inv", "mor"),
    ("associator", "", "associator", "mor"),
    ("associator_inv", "", "associator_inv", "mor"),
]

DISPLAYED_TABLES = [
    ("disp_comp", "disp_cat", "disp_comp", "mor"),
    ("disp_id", "disp_cat", "disp_id", "mor"),
    ("disp_tensor", "", "disp_tensor", "obj"),
    ("disp_lwhisker", "", "disp_lwhisker", "mor"),
    ("disp_rwhisker", "", "disp_rwhisker", "mor"),
    ("disp_lunitor", "", "disp_lunitor", "mor"),
    ("disp_lunitor_inv", "", "disp_lunitor_inv", "mor"),
    ("disp_runitor", "", "disp_runitor", "mor"),
    ("disp_runitor_inv", "", "disp_runitor_inv", "mor"),
    ("disp_associator", "", "disp_associator", "mor"),
    ("disp_associator_inv", "", "disp_associator_inv", "mor"),
]

DELETED_TABLES = [
    ("disp_comp", "disp_cat", "disp_comp"),
    ("disp_tensor", "", "disp_tensor"),
    ("disp_lwhisker", "", "disp_lwhisker"),
]


def _monoidal_runs(M):
    return [("check_monoidal_laws", lambda: check_monoidal_laws(M)),
            ("check_whiskered_bifunctor", lambda: check_whiskered_bifunctor(M.tensor)),
            ("check_category_laws", lambda: check_category_laws(M.base))]


def _displayed_runs(DM):
    return [("check_displayed_monoidal", lambda: check_displayed_monoidal(DM)),
            ("check_displayed_category", lambda: check_displayed_category(DM.disp_cat))]


def battery():
    """Yield (run name, LawReport) for every run of the battery, in order."""
    M = endofunctor_monoidal(chain_category(3)).monoidal
    mors = [m for m, _, _ in M.base.morphisms]
    rings = {"mor": mors, "obj": list(M.base.objects)}
    for name, path, attr, ring in MONOIDAL_TABLES:
        holder = getattr(M, path) if path else M
        restore = _swapped(holder, attr, _changed(getattr(holder, attr), rings[ring]))
        try:
            for check, run in _monoidal_runs(M):
                yield f"monoidal/{name}/{check}", run()
        finally:
            restore()

    DM = trivial_displayed_monoidal(M)
    D = DM.disp_cat
    rings = {"mor": [ff for bucket in D.disp_hom.values() for ff in bucket],
             "obj": [xx for x in M.base.objects for xx in D.fiber(x)]}
    mutants = [(f"changed/{name}", path, attr,
                lambda table, ring=ring: _changed(table, rings[ring]))
               for name, path, attr, ring in DISPLAYED_TABLES]
    mutants += [(f"deleted/{name}", path, attr, _deleted)
                for name, path, attr in DELETED_TABLES]
    for name, path, attr, mutate in mutants:
        holder = getattr(DM, path) if path else DM
        restore = _swapped(holder, attr, mutate(getattr(holder, attr)))
        try:
            for check, run in _displayed_runs(DM):
                yield f"displayed/{name}/{check}", run()
        finally:
            restore()

    broken = from_monoidal_doc(json.loads((FIXTURES / "broken_pentagon.json").read_text()))
    for check, run in _monoidal_runs(broken):
        yield f"broken_pentagon/{check}", run()
    unit = from_doc(json.loads((FIXTURES / "broken_unit.json").read_text()))
    yield "broken_unit/check_category_laws", check_category_laws(unit)
    missing = load_displayed(FIXTURES / "displayed_missing_comp.json")
    yield "displayed_missing_comp/check_displayed_category", check_displayed_category(missing)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed():
    return {name: summary(rep) for name, rep in battery()}


def test_failure_output_is_pinned(golden, observed):
    for run, want in golden.items():
        assert observed.get(run) == want, run
    assert list(observed) == list(golden)


def test_every_mutant_is_caught(golden):
    for name, want in golden.items():
        if not name.startswith(("monoidal/", "displayed/")):
            continue
        if name.endswith(("check_category_laws", "check_whiskered_bifunctor",
                          "check_displayed_category")):
            continue  # the changed table may lie outside what these read
        assert want["violations"], name


if __name__ == "__main__":
    out = {name: summary(rep) for name, rep in battery()}
    GOLDEN.write_text(json.dumps(out, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    laws = {law for s in out.values() for law in s["violations"]}
    print(f"wrote {len(out)} runs over {len(laws)} laws to {GOLDEN}")
