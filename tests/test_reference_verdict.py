"""``check_monoidal_laws`` against a textbook reference verdict.

``monoidal_reference.ref_lawful`` decides lawfulness from the definition,
reading the string tables directly.  Here both verdicts run on every
single-entry deletion and change of three lawful monoidal categories
(a ``TableError`` counts as a rejection), and on End(chain 2) with one comp
entry added on each non-composable pair.  Where they disagree is pinned:
a new disagreement is a law the library misses, or one it invents.

Today every disagreement is the same gap: ``check_monoidal_laws`` runs no
category law on its base, so it accepts a base whose comp table lacks a
composite that no tensor law reads, or holds one on a non-composable
pair.  ``check_category_laws`` rejects all of these."""

import json
import re
from pathlib import Path

import pytest

from bindcat import (TableError, chain_category, check_category_laws, check_monoidal_laws,
                     endofunctor_monoidal, from_monoidal_doc)
import monoidal_reference
from monoidal_reference import ref_lawful
from test_cocycles import categorical_group, cocycle, negation, twisted_coboundary
from test_law_census import laws, sites  # noqa: F401 (fixtures)
from test_pointed import idempotent_arrow
from test_tables_golden import MONOIDAL_TABLES, _changed, _swapped

TABLES = MONOIDAL_TABLES + [("identity", "base", "identity", "mor")]

# (corpus, table, key, value or None for a deletion) where the library
# accepts and the reference does not; the added comp entries are pinned in
# test_the_verdicts_differ_on_every_non_composable_comp_entry
GAP = {("End(chain 2)", "comp", key, None) for key in [
    ("const_0=>Id", "id_const_0"), ("id_Id", "const_0=>Id"), ("Id=>const_1", "const_0=>Id"),
    ("Id=>const_1", "id_Id"), ("id_const_1", "Id=>const_1")]}


def library_accepts(M) -> bool:
    try:
        return check_monoidal_laws(M).ok
    except TableError:
        return False


def rings(M) -> dict:
    """The values of each sort that an entry of M's tables may hold."""
    return {"mor": [m for m, _, _ in M.base.morphisms], "obj": list(M.base.objects)}


def variants(M):
    """(table, key, value, holder, attribute, changed table) for every deletion
    (value None) of an entry of M's tables and every change of its value to
    another of the same sort."""
    values = rings(M)
    for name, path, attr, ring in TABLES:
        holder = getattr(M, path) if path else M
        table = getattr(holder, attr)
        for key, old in table.items():
            for new in [None] + [v for v in values[ring] if v != old]:
                out = dict(table)
                if new is None:
                    del out[key]
                else:
                    out[key] = new
                yield name, key, new, holder, attr, out


def verdicts(M):
    """(table, key, value, library verdict, reference clause) for every variant."""
    for name, key, new, holder, attr, table in variants(M):
        restore = _swapped(holder, attr, table)
        try:
            yield name, key, new, library_accepts(M), ref_lawful(M)
        finally:
            restore()


def end_chain_2():
    return endofunctor_monoidal(chain_category(2)).monoidal


CORPORA = {
    "End(chain 2)": (end_chain_2, 717),
    "Z/3, omega_1": (lambda: categorical_group(3, 3, cocycle(3, 1)), 1_377),
    "twisted Z/2": (lambda: categorical_group(2, 3, twisted_coboundary, negation), 416),
}


def test_the_reference_accepts_what_the_builders_make():
    for C in (chain_category(2), chain_category(3), idempotent_arrow()):
        assert ref_lawful(endofunctor_monoidal(C).monoidal) is None
    for build, _ in CORPORA.values():
        assert ref_lawful(build()) is None


def test_the_reference_rejects_the_broken_fixture_and_every_golden_mutant(fixtures):
    broken = from_monoidal_doc(json.loads((fixtures / "broken_pentagon.json").read_text()))
    assert ref_lawful(broken) == "Pentagon"
    M = endofunctor_monoidal(chain_category(3)).monoidal
    values = rings(M)
    for name, path, attr, ring in MONOIDAL_TABLES:
        holder = getattr(M, path) if path else M
        restore = _swapped(holder, attr, _changed(getattr(holder, attr), values[ring]))
        try:
            assert ref_lawful(M) is not None, name
        finally:
            restore()
    assert ref_lawful(M) is None


@pytest.mark.parametrize("corpus", CORPORA)
def test_the_verdicts_differ_only_on_the_pinned_variants(corpus):
    build, size = CORPORA[corpus]
    runs = list(verdicts(build()))
    assert len(runs) == size
    apart = {(corpus, name, key, new) for name, key, new, lib, ref in runs
             if lib != (ref is None)}
    assert apart == {gap for gap in GAP if gap[0] == corpus}
    for name, key, new, lib, ref in runs:
        if (corpus, name, key, new) in apart:
            assert (lib, ref) == (True, "CompositeTotal")


def test_the_verdicts_differ_on_every_non_composable_comp_entry():
    M = end_chain_2()
    base = M.base
    ends = {m: (s, t) for m, s, t in base.morphisms}
    pairs = [(g, f) for g in ends for f in ends if ends[f][1] != ends[g][0]]
    assert len(pairs) == 26
    for g, f in pairs:
        restore = _swapped(base, "comp", {**base.comp, (g, f): g})
        try:
            assert (library_accepts(M), ref_lawful(M)) == (True, "CompositeKeys"), (g, f)
            assert not check_category_laws(base).ok
        finally:
            restore()


def test_every_gap_variant_fails_the_category_laws():
    M = end_chain_2()
    for _, _, key, _ in GAP:
        restore = _swapped(M.base, "comp", {k: v for k, v in M.base.comp.items() if k != key})
        try:
            assert not check_category_laws(M.base).ok, key
        finally:
            restore()


def test_the_reference_spells_no_library_law(laws):  # noqa: F811
    # so the census still counts only the tests that make a law fail
    words = set(re.findall(r"[\w-]+", Path(monoidal_reference.__file__).read_text("utf-8")))
    assert sorted(words & laws) == []
