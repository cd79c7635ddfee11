"""The trivial displayed builders and the total category against
from-scratch references: the same tables in the same order, with each
displayed id built once per construction."""

import pytest

from bindcat import (
    TableError,
    chain_category,
    check_displayed_monoidal,
    check_monoidal_laws,
    endofunctor_monoidal,
    total_category,
    total_monoidal,
    trivial_displayed,
    trivial_displayed_monoidal,
    walking_arrow,
)
from bindcat.displayed import DisplayedCategory, DisplayedMonoidal
from bindcat.fincat import pair_mor, pair_obj

DISP_CAT_TABLES = ("fiber_obj", "disp_hom", "disp_id", "disp_comp")
DISP_MONOIDAL_TABLES = ("disp_tensor", "disp_lwhisker", "disp_rwhisker",
                        "disp_lunitor", "disp_lunitor_inv", "disp_runitor",
                        "disp_runitor_inv", "disp_associator", "disp_associator_inv")
MONOIDAL_TABLES = ("lunitor", "lunitor_inv", "runitor", "runitor_inv",
                   "associator", "associator_inv")


# --- references: one fresh string per table entry, composites by product scan --------

def reference_trivial_displayed_monoidal(M):
    C = M.base
    star = lambda ident: f"{ident}^"
    D = DisplayedCategory(
        C,
        {x: [star(x)] for x in C.objects},
        {(f, star(x), star(y)): [star(f)] for f, x, y in C.morphisms},
        {star(x): star(C.id_of(x)) for x in C.objects},
        {(star(g), star(f)): star(h) for (g, f), h in C.comp.items()})
    objs, mors = C.objects, [f for f, _, _ in C.morphisms]
    return DisplayedMonoidal(
        M, D, star(M.unit),
        {(star(x), star(y)): star(M.tensor.obj(x, y)) for x in objs for y in objs},
        {(star(x), star(f)): star(M.tensor.lw(x, f)) for x in objs for f in mors},
        {(star(f), star(z)): star(M.tensor.rw(f, z)) for z in objs for f in mors},
        {star(x): star(M.lunitor[x]) for x in objs},
        {star(x): star(M.lunitor_inv[x]) for x in objs},
        {star(x): star(M.runitor[x]) for x in objs},
        {star(x): star(M.runitor_inv[x]) for x in objs},
        {(star(x), star(y), star(z)): star(M.associator[(x, y, z)])
         for x in objs for y in objs for z in objs},
        {(star(x), star(y), star(z)): star(M.associator_inv[(x, y, z)])
         for x in objs for y in objs for z in objs})


def profiles(D):
    """Each displayed morphism's (base morphism, source, target), read
    from the raw buckets."""
    return {ff: key for key, bucket in D.disp_hom.items() for ff in bucket}


def reference_total_category(D):
    """Every displayed composite tried against every base composite."""
    C = D.base
    profile = profiles(D)
    objects = tuple(pair_obj(x, xx) for x in C.objects for xx in D.fiber(x))
    morphisms, proj_mor = [], {}
    for f, x, y in C.morphisms:
        for xx in D.fiber(x):
            for yy in D.fiber(y):
                for ff in D.bucket(f, xx, yy):
                    morphisms.append((pair_mor(f, ff), pair_obj(x, xx), pair_obj(y, yy)))
                    proj_mor[pair_mor(f, ff)] = f
    identity = {pair_obj(x, xx): pair_mor(C.id_of(x), D.disp_id[xx])
                for x in C.objects for xx in D.fiber(x) if xx in D.disp_id}
    comp = {}
    for (g, f), h in C.comp.items():
        for (gg, ff), hh in D.disp_comp.items():
            if profile[gg][0] == g and profile[ff][0] == f \
                    and profile[ff][2] == profile[gg][1]:
                comp[(pair_mor(g, gg), pair_mor(f, ff))] = pair_mor(h, hh)
    proj_obj = {pair_obj(x, xx): x for x in C.objects for xx in D.fiber(x)}
    return objects, tuple(morphisms), identity, comp, proj_obj, proj_mor


def reference_total_monoidal_tables(DM):
    D = DM.disp_cat
    over = {xx: x for x, fiber in D.fiber_obj.items() for xx in fiber}
    profile = profiles(D)
    pobj = lambda xx: pair_obj(over[xx], xx)
    pmor = lambda mm: pair_mor(profile[mm][0], mm)
    dobjs = [xx for x in D.base.objects for xx in D.fiber(x)]
    return {
        "unit": pobj(DM.disp_unit),
        "obj_table": {(pobj(x), pobj(y)): pobj(DM.disp_tensor[(x, y)])
                      for x in dobjs for y in dobjs},
        "lwhisker": {(pobj(x), pmor(f)): pmor(DM.disp_lwhisker[(x, f)])
                     for x in dobjs for f in profile},
        "rwhisker": {(pmor(f), pobj(z)): pmor(DM.disp_rwhisker[(f, z)])
                     for z in dobjs for f in profile},
        "lunitor": {pobj(x): pmor(DM.disp_lunitor[x]) for x in dobjs},
        "lunitor_inv": {pobj(x): pmor(DM.disp_lunitor_inv[x]) for x in dobjs},
        "runitor": {pobj(x): pmor(DM.disp_runitor[x]) for x in dobjs},
        "runitor_inv": {pobj(x): pmor(DM.disp_runitor_inv[x]) for x in dobjs},
        "associator": {(pobj(a), pobj(b), pobj(c)): pmor(DM.disp_associator[(a, b, c)])
                       for a in dobjs for b in dobjs for c in dobjs},
        "associator_inv": {(pobj(a), pobj(b), pobj(c)):
                           pmor(DM.disp_associator_inv[(a, b, c)])
                           for a in dobjs for b in dobjs for c in dobjs},
    }


def in_order(table):
    return list(table.items())


# --- inputs --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain3():
    return endofunctor_monoidal(chain_category(3)).monoidal


def z2_over_terminal():
    """One displayed object p over the terminal monoidal category, whose
    displayed endomorphisms e and s form Z/2; both lie over the one base
    morphism."""
    M = endofunctor_monoidal(chain_category(1)).monoidal
    C = M.base
    (x,), ((f, _, _),) = C.objects, C.morphisms
    D = DisplayedCategory(C, {x: ["p"]}, {(f, "p", "p"): ["e", "s"]}, {"p": "e"},
                          {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
    return DisplayedMonoidal(
        M, D, "p", {("p", "p"): "p"},
        {("p", "e"): "e", ("p", "s"): "s"}, {("e", "p"): "e", ("s", "p"): "s"},
        {"p": "e"}, {"p": "e"}, {"p": "e"}, {"p": "e"},
        {("p", "p", "p"): "e"}, {("p", "p", "p"): "e"})


def arrow_with_off_base_entries():
    """trivial_displayed(walking_arrow) with one identity and one composite
    landing over the wrong base morphism."""
    D = trivial_displayed(walking_arrow())
    (x, *_), (f, *_) = D.base.objects, [m for m, s, t in D.base.morphisms if s != t]
    D.disp_id[f"{x}^"] = f"{f}^"
    key = next(k for k, v in D.disp_comp.items() if v == f"{f}^")
    D.disp_comp[key] = f"{D.base.id_of(x)}^"
    return D


# --- the trivial builders ---------------------------------------------------------------

def test_trivial_builders_match_the_reference(chain3):
    DM = trivial_displayed_monoidal(chain3)
    ref = reference_trivial_displayed_monoidal(chain3)
    assert DM.disp_unit == ref.disp_unit
    for table in DISP_CAT_TABLES:
        assert in_order(getattr(DM.disp_cat, table)) == in_order(getattr(ref.disp_cat, table))
    for table in DISP_MONOIDAL_TABLES:
        assert in_order(getattr(DM, table)) == in_order(getattr(ref, table))
    assert in_order(trivial_displayed(chain3.base).disp_comp) == in_order(ref.disp_cat.disp_comp)


def test_trivial_associators_share_their_ids(chain3):
    DM = trivial_displayed_monoidal(chain3)
    seen = {}
    for table in (DM.disp_associator, DM.disp_associator_inv):
        for key, value in table.items():
            for ident in (*key, value):
                assert seen.setdefault(ident, ident) is ident, ident
    assert all(a is b for a, b in zip(DM.disp_associator, DM.disp_associator_inv))


# --- the total category -------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: trivial_displayed_monoidal(endofunctor_monoidal(chain_category(3)).monoidal).disp_cat,
    lambda: z2_over_terminal().disp_cat,
    arrow_with_off_base_entries,
], ids=["chain3-trivial", "z2-over-terminal", "off-base-entries"])
def test_total_category_matches_the_product_scan(make):
    D = make()
    objects, morphisms, identity, comp, proj_obj, proj_mor = reference_total_category(D)
    total, proj = total_category(D)
    assert total.objects == objects
    assert total.morphisms == morphisms
    assert in_order(total.identity) == in_order(identity)
    assert in_order(total.comp) == in_order(comp)
    assert in_order(proj.on_obj) == in_order(proj_obj)
    assert in_order(proj.on_mor) == in_order(proj_mor)


@pytest.mark.parametrize("make", [
    lambda: trivial_displayed_monoidal(endofunctor_monoidal(chain_category(3)).monoidal),
    z2_over_terminal,
], ids=["chain3-trivial", "z2-over-terminal"])
def test_total_monoidal_matches_the_reference(make):
    DM = make()
    ref = reference_total_monoidal_tables(DM)
    TM = total_monoidal(DM)
    assert TM.unit == ref["unit"]
    assert TM.name == "total"
    assert TM.tensor.base is TM.base
    for table in ("obj_table", "lwhisker", "rwhisker"):
        assert in_order(getattr(TM.tensor, table)) == in_order(ref[table])
    for table in MONOIDAL_TABLES:
        assert in_order(getattr(TM, table)) == in_order(ref[table])
    objects, morphisms, identity, comp, _, _ = reference_total_category(DM.disp_cat)
    assert (TM.base.objects, TM.base.morphisms) == (objects, morphisms)
    assert in_order(TM.base.comp) == in_order(comp)


def test_total_monoidal_names_the_first_missing_entry():
    DM = z2_over_terminal()
    del DM.disp_rwhisker[("s", "p")]
    del DM.disp_associator[("p", "p", "p")]
    with pytest.raises(TableError,
                       match=r"disp_rwhisker has no entry for \('s', 'p'\)"):
        total_monoidal(DM)


# --- a violation only the total finds -------------------------------------------------
# check_displayed_monoidal checks no unitor or associator naturality, so a left
# whisker that breaks lunitor naturality passes it; the total's check finds it.

def z2_with_an_unnatural_lunitor():
    DM = z2_over_terminal()
    DM.disp_lwhisker[("p", "s")] = "e"
    return DM


def test_the_total_finds_the_unnatural_lunitor():
    rep = check_monoidal_laws(total_monoidal(z2_with_an_unnatural_lunitor()))
    assert rep.checks_run == 39
    assert [(v.law, v.witness) for v in rep.violations] == [(
        "lunitor-naturality",
        "at (id_Id,s): (Id,p)→(Id,p): ((id_Id,e) after (Id,p)⊗(id_Id,s)) = (id_Id,e) "
        "but ((id_Id,s) after (id_Id,e)) = (id_Id,s)")]


@pytest.mark.xfail(strict=True, reason="the displayed checker checks no unitor naturality")
def test_the_displayed_checker_finds_the_unnatural_lunitor():
    assert not check_displayed_monoidal(z2_with_an_unnatural_lunitor()).ok


def test_chain4_trivial_total_is_lawful(end_chain_counts):
    # the base's own count: the trivial total mirrors End(chain 4)
    M4 = endofunctor_monoidal(chain_category(4)).monoidal
    rep = check_monoidal_laws(total_monoidal(trivial_displayed_monoidal(M4)))
    assert rep.ok
    assert rep.checks_run == 3_997_385
    assert end_chain_counts(4).monoidal == 3_997_385
