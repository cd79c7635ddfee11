"""Displayed categories over a finite base, displayed monoidal structure,
the total category with its projection, and sections.

All displayed data is indexed by base ids with exact equality — there is
no transport of displayed objects along base equalities anywhere in the
model.  Displayed object and morphism ids are globally unique, so tables
can key on them directly.  Fibers may be empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from .fincat import (FinCategory, FinFunctor, TableError, _assoc_law, _CatIndex, _comp_index,
                     _doc_category, _doc_fields, _doc_map, _doc_rows, _functor_index, _grid,
                     _indexing, _read_doc, _unit_laws, pair_mor, pair_obj)
from .monoidal import (_ISO_TABLES, MonoidalCategory, WhiskeredBifunctor, _associator_isos,
                       _index_monoidal, _interchange, _MonoidalIndex, _pentagon, _place,
                       _triangle, _unitor_isos, _whisker_composition, _whisker_identities)
from .report import LawReport, _split_families


@dataclass
class DisplayedCategory:
    """Fibers of objects over base objects and buckets of displayed
    morphisms over base morphisms, with identity/composition tables.

    ``disp_hom[(f, xx, yy)]`` lists the displayed morphisms over f that
    run xx → yy; absent keys mean empty buckets.  The tables are the only
    state, so they may be edited between checks: each checker call
    numbers and validates the ids anew (``_DispIndex``).
    """

    base: FinCategory
    fiber_obj: dict[str, list[str]]
    disp_hom: dict[tuple[str, str, str], list[str]]
    disp_id: dict[str, str]
    disp_comp: dict[tuple[str, str], str]

    def fiber(self, x: str) -> list[str]:
        return self.fiber_obj.get(x, [])

    def bucket(self, f: str, xx: str, yy: str) -> list[str]:
        return self.disp_hom.get((f, xx, yy), [])


class _DispIndex:
    """Integer view of a displayed category over a ``_CatIndex``, built by
    one checker call and dropped when it returns, so the tables may change
    between calls.  It is the one place that numbers displayed ids, and
    building it is the displayed category's validation: an id used twice,
    a dangling id, or a bucket whose ends do not lie over its base
    morphism's, is a TableError.

    Displayed objects are numbered fiber by fiber in base object order,
    displayed morphisms in bucket order.  ``base``, ``src`` and ``tgt``
    give a displayed morphism's profile; ``ident`` holds None where a
    displayed identity is absent; ``comp[gg]`` maps ff to gg after ff,
    and ``comp_items`` lists (gg, ff, gg after ff) in table order.  These
    are ``_CatIndex``'s fields, read by the base checkers' shared loops:
    ``fincat._unit_laws`` and ``fincat._assoc_law`` for the category laws,
    and the ``monoidal`` loops for the monoidal ones.
    """

    __slots__ = ("cx", "objects", "obj_no", "over", "fibers", "mors", "mor_no", "base", "src",
                 "tgt", "buckets", "ident", "comp", "comp_items")

    def __init__(self, D: DisplayedCategory, cx: _CatIndex):
        for x in D.fiber_obj:
            if x not in cx.obj_no:
                raise TableError(f"fiber over unknown base object {x!r}")
        self.cx = cx
        self.fibers = [[] for _ in cx.objects]
        self.objects, self.over = [], []
        self.obj_no = on = {}
        for x, base_x in enumerate(cx.objects):
            for xx in D.fiber(base_x):
                if xx in on:
                    raise TableError(f"displayed object id {xx!r} used twice")
                on[xx] = len(self.objects)
                self.fibers[x].append(on[xx])
                self.objects.append(xx)
                self.over.append(x)
        self.mors, self.base, self.src, self.tgt = [], [], [], []
        self.mor_no = mn = {}
        self.buckets = {}
        with _indexing("disp_hom"):
            for (f, xx, yy), bucket in D.disp_hom.items():
                g, s, t = key = cx.mor_no[f], on[xx], on[yy]
                if self.over[s] != cx.src[g]:
                    raise TableError(f"bucket {(f, xx, yy)}: {xx!r} is not over the source")
                if self.over[t] != cx.tgt[g]:
                    raise TableError(f"bucket {(f, xx, yy)}: {yy!r} is not over the target")
                self.buckets[key] = list(range(len(self.mors), len(self.mors) + len(bucket)))
                for ff in bucket:
                    if ff in mn:
                        raise TableError(f"displayed morphism id {ff!r} used twice")
                    mn[ff] = len(self.mors)
                    self.mors.append(ff)
                    self.base.append(g)
                    self.src.append(s)
                    self.tgt.append(t)
        self.ident = _grid(D.disp_id, "disp_id", mn, on)
        self.comp, self.comp_items = _comp_index(D.disp_comp, "disp_comp", mn)

    def profile(self, m: int) -> tuple[str, str, str]:
        """(base morphism, displayed source, displayed target) of m."""
        return self.cx.mors[self.base[m]], self.objects[self.src[m]], self.objects[self.tgt[m]]


def check_displayed_category(D: DisplayedCategory) -> LawReport:
    """Exhaustive displayed-category laws; assumes a lawful base (missing
    base composites are simply skipped — the base checker owns those).

    The loops run over an integer index that lives for this call only,
    and a witness is rendered only for an instance that fails."""
    cx = _CatIndex(D.base)
    rep = LawReport()
    _check_displayed_category(rep, cx, _DispIndex(D, cx))
    return rep


def _check_displayed_category(rep: LawReport, cx: _CatIndex, dx: _DispIndex) -> None:
    objs, mors, over = dx.objects, dx.mors, dx.over
    base, src, tgt, ident, comp = dx.base, dx.src, dx.tgt, dx.ident, dx.comp
    passed = 0

    for xx, ff in enumerate(ident):
        x = cx.objects[over[xx]]
        if ff is None:
            rep.check(False, "disp-id-totality", f"no displayed identity for {objs[xx]} over {x}")
            continue
        passed += 1
        if base[ff] == cx.ident[over[xx]] and src[ff] == xx and tgt[ff] == xx:
            passed += 1
        else:
            rep.check(False, "disp-id-over",
                      f"disp_id({objs[xx]}) = {mors[ff]} has profile {dx.profile(ff)}, "
                      f"expected ({cx.mors[cx.ident[over[xx]]]}, {objs[xx]}, {objs[xx]})")

    for g, f, h in cx.comp_items:
        x, y, z = cx.src[f], cx.tgt[f], cx.tgt[g]
        if y != cx.src[g]:
            continue
        for xx in dx.fibers[x]:
            for yy in dx.fibers[y]:
                for zz in dx.fibers[z]:
                    for ff in dx.buckets.get((f, xx, yy), ()):
                        for gg in dx.buckets.get((g, yy, zz), ()):
                            hh = comp[gg].get(ff)
                            if hh is None:
                                rep.check(False, "disp-comp-totality",
                                          f"no composite for ({mors[gg]} over {cx.mors[g]}) "
                                          f"after ({mors[ff]} over {cx.mors[f]}) at fibers "
                                          f"({objs[xx]}, {objs[yy]}, {objs[zz]})")
                                continue
                            passed += 1
                            if base[hh] == h and src[hh] == xx and tgt[hh] == zz:
                                passed += 1
                            else:
                                rep.check(False, "disp-comp-over",
                                          f"({mors[gg]} after {mors[ff]}) = {mors[hh]} has "
                                          f"profile {dx.profile(hh)}, expected "
                                          f"({cx.mors[h]}, {objs[xx]}, {objs[zz]})")

    for gg, ff, _ in dx.comp_items:
        if base[ff] in cx.comp[base[gg]] and tgt[ff] == src[gg]:
            passed += 1
        else:
            rep.check(False, "disp-comp-composable",
                      f"disp_comp entry ({mors[gg]}, {mors[ff]}) over non-composable pair "
                      f"({cx.mors[base[gg]]}, {cx.mors[base[ff]]})")

    passed += _unit_laws(rep, "disp-", dx, "disp_id({})")
    passed += _assoc_law(rep, "disp-", dx)
    rep.tally(passed)


def total_category(D: DisplayedCategory) -> tuple[FinCategory, FinFunctor]:
    """Pair base data with displayed data: objects (x, xx), morphisms
    (f, ff); second component of the result is the projection functor."""
    cx = _CatIndex(D.base)
    return _total_category(D.base, cx, _DispIndex(D, cx))[:2]


def _total_category(C: FinCategory, cx: _CatIndex, dx: _DispIndex):
    """``total_category`` read off the index of a displayed category over C, with
    the maps naming each displayed object and morphism by its pair id, each named once."""
    base, src, tgt, over = dx.base, dx.src, dx.tgt, dx.over
    pobj = {xx: pair_obj(cx.objects[x], xx) for xx, x in zip(dx.objects, over)}
    pmor = {ff: pair_mor(cx.mors[f], ff) for ff, f in zip(dx.mors, base)}
    pobjs, pmors = list(pobj.values()), list(pmor.values())

    def pair_over(f: int, ff: int) -> str:
        # an unlawful displayed table may put ff over another base morphism
        return pmors[ff] if base[ff] == f else pair_mor(cx.mors[f], dx.mors[ff])

    morphisms = []
    proj_mor = {}
    for f, (x, y) in enumerate(zip(cx.src, cx.tgt)):
        for xx in dx.fibers[x]:
            for yy in dx.fibers[y]:
                for ff in dx.buckets.get((f, xx, yy), ()):
                    morphisms.append((pmors[ff], pobjs[xx], pobjs[yy]))
                    proj_mor[pmors[ff]] = cx.mors[f]
    identity = {pobjs[xx]: pair_over(cx.ident[over[xx]], ff)
                for xx, ff in enumerate(dx.ident) if ff is not None}
    by_base: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for gg, ff, hh in dx.comp_items:
        if tgt[ff] == src[gg]:
            by_base.setdefault((base[gg], base[ff]), []).append((gg, ff, hh))
    comp = {}
    for g, f, h in cx.comp_items:
        for gg, ff, hh in by_base.get((g, f), ()):
            comp[(pmors[gg], pmors[ff])] = pair_over(h, hh)
    total = FinCategory(tuple(pobjs), tuple(morphisms), identity, comp)
    proj = FinFunctor(total, C, {p: cx.objects[x] for p, x in zip(pobjs, over)}, proj_mor,
                      name="projection")
    return total, proj, pobj, pmor


@dataclass
class Section:
    """A functorial choice of displayed data over every base object and
    morphism; lifting it and projecting back is the identity."""

    disp_cat: DisplayedCategory
    on_obj: dict[str, str]
    on_mor: dict[str, str]


def lift_section(s: Section) -> FinFunctor:
    """Mechanical lift base → total; lawfulness of the section is exactly
    lawfulness (check_functor) of the returned functor.  A section that
    misses a base id, or names one its total category lacks, is a TableError."""
    C = s.disp_cat.base
    total, _ = total_category(s.disp_cat)
    F = FinFunctor(C, total, {x: pair_obj(x, xx) for x, xx in s.on_obj.items()},
                   {f: pair_mor(f, ff) for f, ff in s.on_mor.items()}, name="section-lift")
    _functor_index(F, _CatIndex(C), _CatIndex(total))  # building the index is the validation
    return F


def projection_functor(D: DisplayedCategory) -> FinFunctor:
    return total_category(D)[1]


# --- displayed monoidal ------------------------------------------------------

@dataclass
class DisplayedMonoidal:
    """Displayed monoidal structure: a displayed unit, a displayed tensor
    in whiskered form, and displayed structural morphisms over the base
    ones, each with a designated inverse."""

    base_monoidal: MonoidalCategory
    disp_cat: DisplayedCategory
    disp_unit: str
    disp_tensor: dict[tuple[str, str], str]
    disp_lwhisker: dict[tuple[str, str], str]
    disp_rwhisker: dict[tuple[str, str], str]
    disp_lunitor: dict[str, str]
    disp_lunitor_inv: dict[str, str]
    disp_runitor: dict[str, str]
    disp_runitor_inv: dict[str, str]
    disp_associator: dict[tuple[str, str, str], str]
    disp_associator_inv: dict[tuple[str, str, str], str]


def _disp_monoidal_index(DM: DisplayedMonoidal, dx: _DispIndex) -> _MonoidalIndex:
    """``DM``'s tables as a ``_MonoidalIndex`` over ``dx``; building it is their validation."""
    if DM.disp_unit not in dx.obj_no:
        raise TableError(f"unknown displayed object {DM.disp_unit!r}")
    names = ("disp_tensor", "disp_lwhisker", "disp_rwhisker", *("disp_" + t for t in _ISO_TABLES))
    return _MonoidalIndex(dx, dx.obj_no[DM.disp_unit], [(getattr(DM, t), t) for t in names], _grid)


def check_displayed_monoidal(DM: DisplayedMonoidal) -> LawReport:
    """Displayed-category laws, then the displayed tensor, whiskers and
    structural morphisms: totality, lying over the base, the whisker
    identities and composition, interchange, the structural isos, the
    triangle and the pentagon.  Unitor and associator naturality are not
    checked here; ``check_monoidal_laws(total_monoidal(DM))`` is the
    complete check.

    A missing displayed entry, structural inverses included, is a
    totality violation.  Every law that the base checkers also state runs
    through their one loop for it: the unit laws and associativity
    (``fincat._unit_laws``, ``fincat._assoc_law``), the whisker identities
    and composition, interchange, the unitor and associator isos, the
    triangle and the pentagon (``monoidal._whisker_identities``,
    ``_whisker_composition``, ``_interchange``, ``_unitor_isos``,
    ``_associator_isos``, ``_triangle``, ``_pentagon``).  The base and
    displayed tables are indexed by integers for this call only, in the
    one index shape the base checkers read; a witness is rendered only
    for an instance that fails.  Large tables are checked in parts across
    CPUs (``report._split_families``)."""
    D = DM.disp_cat
    M = DM.base_monoidal
    if D.base is not M.base and D.base != M.base:
        raise TableError("displayed category is over a different base than its monoidal structure")
    cx, bm = _index_monoidal(M)
    dx = _DispIndex(D, cx)
    dm = _disp_monoidal_index(DM, dx)
    rep = LawReport()
    _check_displayed_category(rep, cx, dx)
    objs, mors, over = dx.objects, dx.mors, dx.over
    base, src, tgt = dx.base, dx.src, dx.tgt
    ten, lw, rw = dm.ten.obj, dm.ten.lw, dm.ten.rw
    n, n_mor = len(objs), len(mors)

    rep.check(over[dm.unit] == bm.unit, "disp-unit-over",
              lambda: f"displayed unit {DM.disp_unit} lies over "
                      f"{cx.objects[over[dm.unit]]}, expected {M.unit}")

    def tensor_over(rep: LawReport, xxs: range) -> int:
        passed = 0
        for xx in xxs:
            ten_x, base_ten_x = ten[xx], bm.ten.obj[over[xx]]
            for yy in range(n):
                oo = ten_x[yy]
                if oo is None:
                    rep.check(False, "disp-tensor-totality",
                              f"no displayed tensor for ({objs[xx]}, {objs[yy]})")
                    continue
                want = base_ten_x[over[yy]]
                if over[oo] == want:
                    passed += 1
                else:
                    rep.check(False, "disp-tensor-over",
                              f"{objs[xx]}⊗̂{objs[yy]} = {objs[oo]} lies over "
                              f"{cx.objects[over[oo]]}, expected {cx.objects[want]}")
        return passed

    def whiskers_over(rep: LawReport, xxs: range) -> int:
        passed = 0
        for xx in xxs:
            x = over[xx]
            lw_x, ten_x, base_lw_x = lw[xx], ten[xx], bm.ten.lw[x]
            for ff in range(n_mor):
                f, yy, zz = base[ff], src[ff], tgt[ff]
                mm = lw_x[ff]
                if mm is None:
                    rep.check(False, "disp-lwhisker-totality",
                              f"no displayed left whisker ({objs[xx]}, {mors[ff]})")
                else:
                    s, t = ten_x[yy], ten_x[zz]
                    if s is not None and t is not None:
                        if base[mm] == base_lw_x[f] and src[mm] == s and tgt[mm] == t:
                            passed += 1
                        else:
                            rep.check(False, "disp-lwhisker-over",
                                      f"{objs[xx]}⊗̂{mors[ff]} = {mors[mm]} has profile "
                                      f"{dx.profile(mm)}, expected "
                                      f"({cx.mors[base_lw_x[f]]}, {objs[s]}, {objs[t]})")
                mm = rw[ff][xx]
                if mm is None:
                    rep.check(False, "disp-rwhisker-totality",
                              f"no displayed right whisker ({mors[ff]}, {objs[xx]})")
                else:
                    s, t = ten[yy][xx], ten[zz][xx]
                    if s is not None and t is not None:
                        want = bm.ten.rw[f][x]
                        if base[mm] == want and src[mm] == s and tgt[mm] == t:
                            passed += 1
                        else:
                            rep.check(False, "disp-rwhisker-over",
                                      f"{mors[ff]}⊗̂{objs[xx]} = {mors[mm]} has profile "
                                      f"{dx.profile(mm)}, expected "
                                      f"({cx.mors[want]}, {objs[s]}, {objs[t]})")
        return passed

    def interchange(ff: int, gg: int, lhs: int, rhs: int) -> str:
        yy, yy1, xx, xx1 = src[ff], tgt[ff], src[gg], tgt[gg]
        return (f"at ff={mors[ff]}, gg={mors[gg]}: ({mors[gg]}⊗̂{objs[yy1]} after "
                f"{objs[xx]}⊗̂{mors[ff]}) = {mors[lhs]} but ({objs[xx1]}⊗̂{mors[ff]} "
                f"after {mors[gg]}⊗̂{objs[yy]}) = {mors[rhs]}")

    base_unitor = {"lunitor": bm.lu, "runitor": bm.ru}

    def unitor_over(rep: LawReport, which: str, fwd, bwd, s, xx: int, at: tuple) -> int:
        passed = 0
        if fwd is None:
            rep.check(False, f"disp-{which}-totality", f"no displayed {which} at {objs[xx]}")
        else:
            base_fwd = base_unitor[which][over[xx]]
            if base[fwd] == base_fwd and src[fwd] == s and tgt[fwd] == xx:
                passed += 1
            else:
                want = (cx.mors[base_fwd], None if s is None else objs[s], objs[xx])
                rep.check(False, f"disp-{which}-over",
                          f"disp {_place(which, objs, at)} = {mors[fwd]} has profile "
                          f"{dx.profile(fwd)}, expected {want}")
        if bwd is None:
            rep.check(False, f"disp-{which}-totality",
                      f"no displayed {which} inverse at {objs[xx]}")
        return passed

    def associator_over(rep: LawReport, which: str, al, al_inv, s, t, at: tuple) -> int:
        passed = 0
        if al is None:
            rep.check(False, "disp-associator-totality",
                      "no displayed associator at ({}, {}, {})".format(*(objs[i] for i in at)))
        elif s is not None and t is not None:
            xx, yy, zz = at
            base_al = bm.a[over[xx]][over[yy]][over[zz]]
            if base[al] == base_al and src[al] == s and tgt[al] == t:
                passed += 1
            else:
                rep.check(False, "disp-associator-over",
                          f"disp {_place(which, objs, at)} = {mors[al]} has profile "
                          f"{dx.profile(al)}, expected ({cx.mors[base_al]}, {objs[s]}, {objs[t]})")
        if al_inv is None:
            rep.check(False, "disp-associator-totality", "no displayed associator inverse "
                      "at ({}, {}, {})".format(*(objs[i] for i in at)))
        return passed

    def triangle(xx: int, zz: int, lhs: int, r: int) -> str:
        return (f"at ({objs[xx]},{objs[zz]}): ({objs[xx]}⊗̂lunitor after associator) = "
                f"{'None' if lhs is None else mors[lhs]} but runitor⊗̂{objs[zz]} = {mors[r]}")

    n_comp = len(dx.comp_items)
    _split_families(rep, [
        (n, n * n, tensor_over),
        (n, 2 * n * n_mor, whiskers_over),
        (n, 2 * n * n, lambda rep, xxs: _whisker_identities(
            rep, xxs, "disp-", dx, dm.ten, "⊗̂", "disp_id({})")),
        (n_comp, 2 * n_comp * n, lambda rep, items: _whisker_composition(
            rep, items, "disp-", dx, dm.ten, "⊗̂")),
        (n_mor, n_mor * n_mor, lambda rep, ffs: _interchange(
            rep, ffs, "disp-interchange", dx, dm.ten, interchange)),
        (n, 6 * n, lambda rep, xxs: _unitor_isos(
            rep, xxs, "disp-", dx, dm, unitor_over, "disp_id({})")),
        (n, 3 * n ** 3, lambda rep, xxs: _associator_isos(
            rep, xxs, "disp-", dx, dm, associator_over, "disp_id({})")),
        (n, n * n, lambda rep, xxs: _triangle(rep, xxs, "disp-triangle", dx, dm, triangle)),
        (n, n ** 4, lambda rep, ws: _pentagon(rep, ws, "disp-pentagon", dx, dm))])
    return rep


def total_monoidal(DM: DisplayedMonoidal) -> MonoidalCategory:
    """Monoidal structure on the total category; the projection from
    total_category is strict monoidal for it by construction.  A missing
    displayed entry is a TableError naming its table and key."""
    cx = _CatIndex(DM.disp_cat.base)
    dx = _DispIndex(DM.disp_cat, cx)
    _disp_monoidal_index(DM, dx)  # building the indexes is the validation
    total, _, pobj, pmor = _total_category(DM.disp_cat.base, cx, dx)

    def paired(table: str, keys, pair_keys, names=pmor) -> dict:
        """The displayed table renamed to pair ids: the entry at each of
        ``keys`` goes under the matching one of ``pair_keys``."""
        disp = getattr(DM, table)
        out = {}
        for key, pair_key in zip(keys, pair_keys):
            try:
                out[pair_key] = names[disp[key]]
            except KeyError:
                raise TableError(
                    f"displayed monoidal table {table} has no entry for {key!r}") from None
        return out

    dobjs, pobjs = list(pobj), list(pobj.values())
    dmors, pmors = list(pmor), list(pmor.values())
    pair_triples = list(itertools.product(pobjs, repeat=3))
    tensor = WhiskeredBifunctor(
        total,
        paired("disp_tensor", itertools.product(dobjs, repeat=2),
               itertools.product(pobjs, repeat=2), pobj),
        paired("disp_lwhisker", itertools.product(dobjs, dmors),
               itertools.product(pobjs, pmors)),
        paired("disp_rwhisker", ((ff, zz) for zz in dobjs for ff in dmors),
               ((ff, zz) for zz in pobjs for ff in pmors)))
    return MonoidalCategory(
        total,
        pobj[DM.disp_unit],
        tensor,
        paired("disp_lunitor", dobjs, pobjs),
        paired("disp_lunitor_inv", dobjs, pobjs),
        paired("disp_runitor", dobjs, pobjs),
        paired("disp_runitor_inv", dobjs, pobjs),
        paired("disp_associator", itertools.product(dobjs, repeat=3), pair_triples),
        paired("disp_associator_inv", itertools.product(dobjs, repeat=3), pair_triples),
        name="total",
    )


# --- canonical small instances ----------------------------------------------

class _Starred(dict):
    """Map from a base id to its displayed id ``id^``, built by one
    construction and dropped when it returns, so that every table of that
    construction shares one string per base id."""

    def __missing__(self, ident: str) -> str:
        self[ident] = name = f"{ident}^"
        return name


def trivial_displayed(C: FinCategory) -> DisplayedCategory:
    """One displayed object over every base object, one displayed morphism
    over every base morphism; the total category mirrors the base."""
    return _trivial_displayed(C, _Starred())


def _trivial_displayed(C: FinCategory, star: _Starred) -> DisplayedCategory:
    fiber_obj = {x: [star[x]] for x in C.objects}
    disp_hom = {(f, star[x], star[y]): [star[f]] for f, x, y in C.morphisms}
    disp_id = {star[x]: star[C.id_of(x)] for x in C.objects}
    disp_comp = {(star[g], star[f]): star[h] for (g, f), h in C.comp.items()}
    return DisplayedCategory(C, fiber_obj, disp_hom, disp_id, disp_comp)


def trivial_displayed_monoidal(M: MonoidalCategory) -> DisplayedMonoidal:
    C = M.base
    star = _Starred()
    D = _trivial_displayed(C, star)
    T = M.tensor
    mors = [f for f, _, _ in C.morphisms]
    triples = lambda: itertools.product(C.objects, repeat=3)
    disp_triples = [(star[x], star[y], star[z]) for x, y, z in triples()]
    return DisplayedMonoidal(
        base_monoidal=M,
        disp_cat=D,
        disp_unit=star[M.unit],
        disp_tensor={(star[x], star[y]): star[T.obj(x, y)]
                     for x in C.objects for y in C.objects},
        disp_lwhisker={(star[x], star[f]): star[T.lw(x, f)]
                       for x in C.objects for f in mors},
        disp_rwhisker={(star[f], star[z]): star[T.rw(f, z)]
                       for z in C.objects for f in mors},
        disp_lunitor={star[x]: star[M.lunitor[x]] for x in C.objects},
        disp_lunitor_inv={star[x]: star[M.lunitor_inv[x]] for x in C.objects},
        disp_runitor={star[x]: star[M.runitor[x]] for x in C.objects},
        disp_runitor_inv={star[x]: star[M.runitor_inv[x]] for x in C.objects},
        disp_associator={key: star[M.associator[base_key]]
                         for key, base_key in zip(disp_triples, triples())},
        disp_associator_inv={key: star[M.associator_inv[base_key]]
                             for key, base_key in zip(disp_triples, triples())},
    )


# --- JSON interchange --------------------------------------------------------

_DISP_FIELDS = {"base", "fiber_obj", "disp_hom", "disp_id", "disp_comp"}


def from_displayed_doc(doc, base: FinCategory) -> DisplayedCategory:
    _doc_fields(doc, _DISP_FIELDS, "displayed")
    fibers = doc["fiber_obj"]
    if not isinstance(fibers, dict) or not all(
            isinstance(k, str) and isinstance(v, list) and
            all(isinstance(e, str) for e in v) for k, v in fibers.items()):
        raise TableError("'fiber_obj' must map base objects to arrays of ids")
    hom_rows = doc["disp_hom"]
    if not isinstance(hom_rows, list):
        raise TableError("'disp_hom' must be an array")
    disp_hom = {}
    for row in hom_rows:
        if not isinstance(row, dict) or set(row) != {"over", "src", "tgt", "mors"} \
                or not all(isinstance(row[k], str) for k in ("over", "src", "tgt")) \
                or not isinstance(row["mors"], list) \
                or not all(isinstance(e, str) for e in row["mors"]):
            raise TableError(f"bad disp_hom row: {row!r}")
        key = (row["over"], row["src"], row["tgt"])
        if key in disp_hom:
            raise TableError(f"duplicate disp_hom bucket {key}")
        disp_hom[key] = list(row["mors"])
    ids = _doc_map(doc, "disp_id", "displayed objects", "displayed morphisms")
    disp_comp = _doc_rows(doc["disp_comp"], ("after", "first", "result"), "disp_comp")
    D = DisplayedCategory(base, dict(fibers), disp_hom, ids, disp_comp)
    _DispIndex(D, _CatIndex(base))  # building the index is the validation
    return D


def load_displayed(path) -> DisplayedCategory:
    """Read a displayed-category document; its 'base' field is a path to a
    category document, resolved relative to the displayed file."""
    doc = _read_doc(path)
    if not isinstance(doc, dict) or "base" not in doc:
        raise TableError("displayed document must reference a 'base' file")
    if not isinstance(doc["base"], str):
        raise TableError("'base' must be a file path string")
    base_doc = _read_doc(Path(path).parent / doc["base"])
    return from_displayed_doc(doc, _doc_category(base_doc))
