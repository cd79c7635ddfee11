"""Whiskered tensors, monoidal categories over finite tables, monoids,
functor categories [C, D], and End(C) on the diagonal: monoids there are monads.

The whiskered presentation is the canonical one here: a tensor is an
object table plus left and right whiskering tables.  The classical
bifunctor on a product category exists only at the conversion boundary
(`whiskered_from_classical` / `classical_from_whiskered`), and the two
forms are exact inverses on lawful data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fincat import (
    FinCategory,
    FinFunctor,
    FinNatTrans,
    TableError,
    hom_enumerate,
    pair_mor,
    pair_obj,
    product_category,
    to_doc,
    _CatIndex,
    _check_functor,
    _check_nat_trans,
    _doc_category,
    _doc_fields,
    _doc_map,
    _doc_rows,
    _full_grid,
    _functor_index,
    _nat_index,
)
from .report import LawReport, _split_families

DEFAULT_ENUM_BOUND = 10_000


class EnumerationOverflow(Exception):
    """Raised when materializing a functor category would exceed the bound."""


@dataclass
class WhiskeredBifunctor:
    """A tensor given by its curried data: object table, left whiskers
    x ⊗ f, and right whiskers f ⊗ z.

    ``lwhisker[(x, f)]`` with f: y→z is a morphism x⊗y → x⊗z;
    ``rwhisker[(f, z)]`` with f: x→y is a morphism x⊗z → y⊗z.
    """

    base: FinCategory
    obj_table: dict[tuple[str, str], str]
    lwhisker: dict[tuple[str, str], str]
    rwhisker: dict[tuple[str, str], str]

    def obj(self, x: str, y: str) -> str:
        try:
            return self.obj_table[(x, y)]
        except KeyError:
            raise TableError(f"tensor object table missing entry ({x!r}, {y!r})") from None

    def lw(self, x: str, f: str) -> str:
        try:
            return self.lwhisker[(x, f)]
        except KeyError:
            raise TableError(f"left whisker table missing entry ({x!r}, {f!r})") from None

    def rw(self, f: str, z: str) -> str:
        try:
            return self.rwhisker[(f, z)]
        except KeyError:
            raise TableError(f"right whisker table missing entry ({f!r}, {z!r})") from None


class _TensorIndex:
    """Integer view of a tensor over a category index, from its (table, name) pairs:
    ``obj[x][y]``, ``lw[x][f]`` and ``rw[f][z]``, by ``_full_grid``, or by ``_grid``
    for displayed tables.  Built by one checker call and dropped when it returns;
    building it is the tables' validation."""

    __slots__ = ("obj", "lw", "rw")

    def __init__(self, cx, tables, grid=_full_grid):
        on, mn = cx.obj_no, cx.mor_no
        obj, lw, rw = tables
        self.obj = grid(*obj, on, on, on)
        self.lw = grid(*lw, mn, on, mn)
        self.rw = grid(*rw, mn, mn, on)


def _tensor_tables(T: WhiskeredBifunctor) -> list:
    return [(T.obj_table, "tensor obj table"), (T.lwhisker, "left whisker table"),
            (T.rwhisker, "right whisker table")]


def check_whiskered_bifunctor(T: WhiskeredBifunctor) -> LawReport:
    """Identity, composition, endpoint, and interchange laws, exhaustively.

    The loops run over an integer index that lives for this call only,
    and a witness is rendered only for an instance that fails.  A large
    table is checked in parts across CPUs (``report._split_families``)."""
    cx = _CatIndex(T.base)
    rep = LawReport()
    _split_families(rep, _whiskered_families(cx, _TensorIndex(cx, _tensor_tables(T))))
    return rep


def _whiskered_families(cx: _CatIndex, tx: _TensorIndex) -> list:
    """The whiskered-bifunctor law families, in report order, as
    ``_split_families`` takes them."""
    objs, mors, src, tgt = cx.objects, cx.mors, cx.src, cx.tgt
    ten, lw, rw = tx.obj, tx.lw, tx.rw
    n_obj, n_mor = len(objs), len(mors)

    def endpoints(rep: LawReport, xs: range) -> int:
        passed = 0
        for x in xs:
            tx_, lwx = ten[x], lw[x]
            for f in range(n_mor):
                y, z = src[f], tgt[f]
                m = lwx[f]
                if src[m] == tx_[y] and tgt[m] == tx_[z]:
                    passed += 1
                else:
                    rep.check(False, "lwhisker-endpoints",
                              f"{objs[x]}⊗{mors[f]} = {mors[m]}: {objs[src[m]]}→{objs[tgt[m]]}, "
                              f"expected {objs[tx_[y]]}→{objs[tx_[z]]}")
                m = rw[f][x]
                if src[m] == ten[y][x] and tgt[m] == ten[z][x]:
                    passed += 1
                else:
                    rep.check(False, "rwhisker-endpoints",
                              f"{mors[f]}⊗{objs[x]} = {mors[m]}: {objs[src[m]]}→{objs[tgt[m]]}, "
                              f"expected {objs[ten[y][x]]}→{objs[ten[z][x]]}")
        return passed

    def interchange(f: int, g: int, lhs: int, rhs: int) -> str:
        y, y1, x, x1 = src[f], tgt[f], src[g], tgt[g]
        return (f"at f={mors[f]}: {objs[y]}→{objs[y1]}, g={mors[g]}: {objs[x]}→{objs[x1]}: "
                f"({mors[g]}⊗{objs[y1]} after {objs[x]}⊗{mors[f]}) = {mors[lhs]} but "
                f"({objs[x1]}⊗{mors[f]} after {mors[g]}⊗{objs[y]}) = {mors[rhs]}")

    n_comp = len(cx.comp_items)
    return [(n_obj, 2 * n_obj * n_mor, endpoints),
            (n_obj, 2 * n_obj * n_obj, lambda rep, xs: _whisker_identities(
                rep, xs, "", cx, tx, "⊗", "id_{}")),
            (n_comp, 2 * n_comp * n_obj, lambda rep, items: _whisker_composition(
                rep, items, "", cx, tx, "⊗")),
            (n_mor, n_mor * n_mor, lambda rep, fs: _interchange(
                rep, fs, "interchange", cx, tx, interchange))]


def _whisker_identities(rep: LawReport, xs: range, law: str, cx, tx: _TensorIndex,
                        ot: str, idn: str) -> int:
    """The whisker identities over integer tables, at every (x, y) with x
    in xs: x ⊗ id_y = id_(x⊗y) = id_x ⊗ y.  An instance that reads an
    absent entry (None in a displayed table) is skipped uncounted: the
    totality checks report it.  A failure is reported under ``law +
    'lwhisker-identity'`` or ``law + 'rwhisker-identity'``, with the
    tensor rendered as ``ot`` and an identity as ``idn.format(object)``.
    Returns the number of passes."""
    objs, mors, ident, ten, lw, rw = cx.objects, cx.mors, cx.ident, tx.obj, tx.lw, tx.rw
    passed = 0
    span = range(len(objs))
    for x in xs:
        ten_x, lw_x, ix = ten[x], lw[x], ident[x]
        rw_ix = None if ix is None else rw[ix]
        for y in span:
            xy = ten_x[y]
            i_xy = None if xy is None else ident[xy]
            if i_xy is None:
                continue
            iy = ident[y]
            m = None if iy is None else lw_x[iy]
            if m is not None:
                if m == i_xy:
                    passed += 1
                else:
                    rep.check(False, law + "lwhisker-identity",
                              f"{objs[x]}{ot}{idn.format(objs[y])} = {mors[m]}, "
                              f"expected {idn.format(objs[xy])}")
            m = None if rw_ix is None else rw_ix[y]
            if m is not None:
                if m == i_xy:
                    passed += 1
                else:
                    rep.check(False, law + "rwhisker-identity",
                              f"{idn.format(objs[x])}{ot}{objs[y]} = {mors[m]}, "
                              f"expected {idn.format(objs[xy])}")
    return passed


def _whisker_composition(rep: LawReport, items: range, law: str, cx, tx: _TensorIndex,
                         ot: str) -> int:
    """The whisker composition laws over integer tables, at every comp
    entry (g, f, g ∘ f) in ``comp_items[items]`` and every object x:
    x ⊗ (g ∘ f) = (x ⊗ g) ∘ (x ⊗ f) and (g ∘ f) ⊗ x = (g ⊗ x) ∘ (f ⊗ x).
    An entry on a non-composable pair is skipped: the composability check
    reports it.  An instance that reads an absent whisker (None in a
    displayed table) is skipped uncounted, and an absent composite fails
    it.  A failure is reported under ``law + 'lwhisker-composition'`` or
    ``law + 'rwhisker-composition'``, with the tensor rendered as ``ot``.
    Returns the number of passes."""
    objs, mors, src, tgt, comp, lw, rw = cx.objects, cx.mors, cx.src, cx.tgt, cx.comp, tx.lw, tx.rw
    passed = 0
    for g, f, h in cx.comp_items[items.start:items.stop]:
        if tgt[f] != src[g]:
            continue
        rw_g, rw_f, rw_h = rw[g], rw[f], rw[h]
        for x, lw_x in enumerate(lw):
            l_g, l_f, l_h = lw_x[g], lw_x[f], lw_x[h]
            if l_g is not None and l_f is not None and l_h is not None:
                got = comp[l_g].get(l_f)
                if got == l_h:
                    passed += 1
                else:
                    rep.check(False, law + "lwhisker-composition",
                              f"{objs[x]}{ot}({mors[g]} after {mors[f]}) = {mors[l_h]} but "
                              f"({objs[x]}{ot}{mors[g]} after {objs[x]}{ot}{mors[f]}) = "
                              f"{'None' if got is None else mors[got]}")
            r_g, r_f, r_h = rw_g[x], rw_f[x], rw_h[x]
            if r_g is not None and r_f is not None and r_h is not None:
                got = comp[r_g].get(r_f)
                if got == r_h:
                    passed += 1
                else:
                    rep.check(False, law + "rwhisker-composition",
                              f"({mors[g]} after {mors[f]}){ot}{objs[x]} = {mors[r_h]} but "
                              f"({mors[g]}{ot}{objs[x]} after {mors[f]}{ot}{objs[x]}) = "
                              f"{'None' if got is None else mors[got]}")
    return passed


def _interchange(rep: LawReport, fs: range, law: str, cx, tx: _TensorIndex, witness) -> int:
    """Interchange over integer tables, for f in fs, f: y→y' and every
    g: x→x': (g ⊗ y') ∘ (x ⊗ f) = (x' ⊗ f) ∘ (g ⊗ y).  An instance that
    reads an absent entry (None in a displayed table, a TypeError) or
    composite (a KeyError) is skipped uncounted: the totality and
    endpoint checks report it.  A failure is reported under ``law`` with
    ``witness(f, g, lhs, rhs)``.  Returns the number of passes."""
    src, tgt, comp, lw, rw = cx.src, cx.tgt, cx.comp, tx.lw, tx.rw
    passed = 0
    mors = range(len(src))
    for f in fs:
        y, y1 = src[f], tgt[f]
        lw_f = [lwx[f] for lwx in lw]
        for g in mors:
            rw_g = rw[g]
            try:
                lhs = comp[rw_g[y1]][lw_f[src[g]]]
                rhs = comp[lw_f[tgt[g]]][rw_g[y]]
            except (KeyError, TypeError):
                continue
            if lhs == rhs:
                passed += 1
            else:
                rep.check(False, law, witness(f, g, lhs, rhs))
    return passed


def _pentagon(rep: LawReport, ws: range, law: str, cx, mx) -> int:
    """The pentagon over integer tables, at every (w, x, y, z) with w in ws:
    α_(w,x,y⊗z) ∘ α_(w⊗x,y,z) = (w ⊗ α_(x,y,z)) ∘ α_(w,x⊗y,z) ∘ (α_(w,x,y) ⊗ z).
    Instances that read an absent entry or composite are skipped uncounted,
    as in ``_interchange``.  A failure is reported under ``law``.  Returns
    the number of passes.

    Each side is computed as a row over z, with None where the instance
    is skipped.  A row depends only on the table rows it reads, and
    ``_grid`` makes equal table rows one list, so under one w each side's
    row is kept in a dict keyed by the ``id``s of the rows it reads and
    shared by every (x, y) that reads the same ones.  Both dicts are
    dropped when w moves on, which bounds them by about twice the
    associator grid.  A pair of equal rows with no None passes at every
    z; any other pair is walked z by z, so failures come in (w, x, y, z)
    order."""
    objs, mors, comp = cx.objects, cx.mors, cx.comp
    ten, lw, rw, A = mx.ten.obj, mx.ten.lw, mx.ten.rw, mx.a
    passed = 0
    n = len(objs)
    span = range(n)
    ten_id, rw_id = [id(row) for row in ten], [id(row) for row in rw]
    A_id = [[id(row) for row in plane] for plane in A]
    for w in ws:
        A_w, lw_w, ten_w, A_w_id = A[w], lw[w], ten[w], A_id[w]
        two_step: dict[tuple[int, int, int], list] = {}
        three_step: dict[tuple[int, int, int], list] = {}
        for x in span:
            wx = ten_w[x]
            if wx is None:
                continue
            A_wx, A_wx_, A_x, ten_x = A_w[x], A[wx], A[x], ten[x]
            A_wx_id, A_wx__id, A_x_id = A_w_id[x], A_id[wx], A_id[x]
            for y in span:
                xy, a = ten_x[y], A_wx[y]
                if xy is None or a is None:
                    continue
                key = (A_wx_id, ten_id[y], A_wx__id[y])
                lhs = two_step.get(key)
                if lhs is None:
                    ten_y, A_wx_y = ten[y], A_wx_[y]
                    lhs = two_step[key] = []
                    for z in span:
                        try:
                            lhs.append(comp[A_wx[ten_y[z]]][A_wx_y[z]])
                        except (KeyError, TypeError):
                            lhs.append(None)
                key = (A_x_id[y], A_w_id[xy], rw_id[a])
                rhs = three_step.get(key)
                if rhs is None:
                    A_xy, A_w_xy, rw_a = A_x[y], A_w[xy], rw[a]
                    rhs = three_step[key] = []
                    for z in span:
                        try:
                            rhs.append(comp[lw_w[A_xy[z]]][comp[A_w_xy[z]][rw_a[z]]])
                        except (KeyError, TypeError):
                            rhs.append(None)
                if lhs == rhs and None not in lhs:
                    passed += n
                    continue
                for z, l, r in zip(span, lhs, rhs):
                    if l is None or r is None:
                        continue
                    if l == r:
                        passed += 1
                    else:
                        rep.check(False, law,
                                  f"at ({objs[w]},{objs[x]},{objs[y]},{objs[z]}): "
                                  f"two-step side = {mors[l]}, three-step side = {mors[r]}")
    return passed


def _triangle(rep: LawReport, xs: range, law: str, cx, mx, witness) -> int:
    """The triangle over integer tables, at every (x, z) with x in xs:
    (x ⊗ λ_z) ∘ α_(x,I,z) = ρ_x ⊗ z.  An instance that reads an absent
    entry (None in a displayed table) is skipped uncounted, and an absent
    composite fails it.  A failure is reported under ``law`` with
    ``witness(x, z, lhs, rhs)``.  Returns the number of passes."""
    comp, lw, rw, lu, ru, A = cx.comp, mx.ten.lw, mx.ten.rw, mx.lu, mx.ru, mx.a
    passed = 0
    for x in xs:
        ru_x, lw_x, A_xI = ru[x], lw[x], A[x][mx.unit]
        for z, lu_z in enumerate(lu):
            a = A_xI[z]
            if lu_z is None or a is None or ru_x is None:
                continue
            w, rhs = lw_x[lu_z], rw[ru_x][z]
            if w is None or rhs is None:
                continue
            lhs = comp[w].get(a)
            if lhs == rhs:
                passed += 1
            else:
                rep.check(False, law, witness(x, z, lhs, rhs))
    return passed


def _place(which: str, objs, at: tuple[int, ...]) -> str:
    """The structural iso ``which`` at the objects numbered ``at``, for a witness."""
    names = [objs[i] for i in at]
    return f"{which} at {names[0]}" if len(names) == 1 else f"{which} at ({','.join(names)})"


def _iso(rep: LawReport, law: str, cx, which: str, at: tuple[int, ...], fwd, bwd, s, t,
         idn: str) -> int:
    """The inverse laws fwd ∘ bwd = id_t and bwd ∘ fwd = id_s of the iso ``which``
    at the objects ``at``, fwd: s → t with designated inverse bwd.  An absent entry
    (None in a displayed table) skips its instance uncounted, and an absent composite
    fails it.  A failure is reported under ``law + which + '-iso'``, with an identity
    rendered as ``idn.format(object)``.  Returns the number of passes."""
    if fwd is None or bwd is None or s is None or t is None:
        return 0
    objs, mors, ident, comp = cx.objects, cx.mors, cx.ident, cx.comp
    ok = 0
    for first, then, end in ((bwd, fwd, t), (fwd, bwd, s)):
        if ident[end] is None:
            continue
        got = comp[then].get(first)
        if got == ident[end]:
            ok += 1
        else:
            rep.check(False, law + which + "-iso",
                      f"{_place(which, objs, at)}: ({mors[then]} after {mors[first]}) "
                      f"= {'None' if got is None else mors[got]}, expected {idn.format(objs[end])}")
    return ok


def _unitor_isos(rep: LawReport, xs: range, law: str, cx, mx, entry, idn: str) -> int:
    """λ_x : I⊗x → x, then ρ_x : x⊗I → x, at every x in xs: ``entry(rep,
    which, fwd, bwd, s, t, at)`` checks the entry and returns its passes,
    then ``_iso`` its inverse laws.  Returns the number of passes."""
    ten, I = mx.ten.obj, mx.unit
    passed = 0
    for x in xs:
        for which, fwd, bwd, s in (("lunitor", mx.lu[x], mx.lu_inv[x], ten[I][x]),
                                   ("runitor", mx.ru[x], mx.ru_inv[x], ten[x][I])):
            passed += entry(rep, which, fwd, bwd, s, x, (x,))
            passed += _iso(rep, law, cx, which, (x,), fwd, bwd, s, x, idn)
    return passed


def _associator_isos(rep: LawReport, xs: range, law: str, cx, mx, entry, idn: str) -> int:
    """α_(x,y,z) : (x⊗y)⊗z → x⊗(y⊗z) at every (x, y, z) with x in xs, as
    ``_unitor_isos`` runs the unitors; an absent tensor makes s or t None."""
    ten, A, A_inv = mx.ten.obj, mx.a, mx.a_inv
    span = range(len(ten))
    passed = 0
    for x in xs:
        ten_x = ten[x]
        for y in span:
            xy = ten_x[y]
            for z in span:
                yz = ten[y][z]
                s = None if xy is None else ten[xy][z]
                t = None if yz is None else ten_x[yz]
                fwd, bwd, at = A[x][y][z], A_inv[x][y][z], (x, y, z)
                passed += entry(rep, "associator", fwd, bwd, s, t, at)
                passed += _iso(rep, law, cx, "associator", at, fwd, bwd, s, t, idn)
    return passed


def whiskered_from_classical(F: FinFunctor) -> WhiskeredBifunctor:
    """Curry a functor C×C → C (with product ids as built by
    product_category) into its whiskered form."""
    C = F.target
    obj_table = {(x, y): F.obj(pair_obj(x, y)) for x in C.objects for y in C.objects}
    lwhisker = {(x, f): F.mor(pair_mor(C.id_of(x), f))
                for x in C.objects for f, _, _ in C.morphisms}
    rwhisker = {(f, z): F.mor(pair_mor(f, C.id_of(z)))
                for z in C.objects for f, _, _ in C.morphisms}
    return WhiskeredBifunctor(C, obj_table, lwhisker, rwhisker)


def classical_from_whiskered(T: WhiskeredBifunctor) -> FinFunctor:
    """Uncurry to a functor C×C → C; pair action is left-then-right."""
    C = T.base
    P = product_category(C, C)
    on_obj = {pair_obj(x, y): T.obj(x, y) for x in C.objects for y in C.objects}
    on_mor = {}
    for f, x, x1 in C.morphisms:
        for g, y, y1 in C.morphisms:
            first = T.lw(x, g)          # x⊗y → x⊗y'
            second = T.rw(f, y1)        # x⊗y' → x'⊗y'
            on_mor[pair_mor(f, g)] = C.compose(second, first)
    return FinFunctor(P, C, on_obj, on_mor, name="uncurried")


@dataclass
class Monoid:
    carrier: str
    unit_map: str
    mult: str


@dataclass
class Monad:
    endofunctor: FinFunctor
    unit: FinNatTrans
    mult: FinNatTrans


@dataclass
class MonoidalCategory:
    """A finite category with unit object, whiskered tensor, and the
    structural isomorphisms with their designated inverses.

    ``associator[(x, y, z)]`` is the morphism (x⊗y)⊗z → x⊗(y⊗z).
    """

    base: FinCategory
    unit: str
    tensor: WhiskeredBifunctor
    lunitor: dict[str, str]
    lunitor_inv: dict[str, str]
    runitor: dict[str, str]
    runitor_inv: dict[str, str]
    associator: dict[tuple[str, str, str], str]
    associator_inv: dict[tuple[str, str, str], str]
    name: str = ""


_ISO_TABLES = ("lunitor", "lunitor_inv", "runitor", "runitor_inv", "associator", "associator_inv")


class _MonoidalIndex:
    """Integer view of monoidal tables over a category index: ``ten``, the
    unitors per object, the associators as ``a[x][y][z]`` and the unit's
    number, from (table, name) pairs in ``_TensorIndex`` then ``_ISO_TABLES``
    order, gridded as ``_TensorIndex`` grids them."""

    __slots__ = ("unit", "ten", "lu", "lu_inv", "ru", "ru_inv", "a", "a_inv")

    def __init__(self, cx, unit: int, tables: list, grid=_full_grid):
        on, mn = cx.obj_no, cx.mor_no
        self.unit = unit
        self.ten = _TensorIndex(cx, tables[:3], grid)
        self.lu, self.lu_inv, self.ru, self.ru_inv = (grid(*t, mn, on) for t in tables[3:7])
        self.a, self.a_inv = (grid(*t, mn, on, on, on) for t in tables[7:])


def _index_monoidal(M: MonoidalCategory) -> tuple[_CatIndex, _MonoidalIndex]:
    """M's category index and monoidal index; building them is M's validation."""
    if M.tensor.base is not M.base and M.tensor.base != M.base:
        raise TableError("tensor is over a different category than its monoidal structure")
    cx = _CatIndex(M.base)
    if M.unit not in cx.obj_no:
        raise TableError(f"unit object {M.unit!r} is not in the category")
    tables = _tensor_tables(M.tensor) + [(getattr(M, t), t) for t in _ISO_TABLES]
    return cx, _MonoidalIndex(cx, cx.obj_no[M.unit], tables)


def check_monoidal_laws(M: MonoidalCategory) -> LawReport:
    """Whiskered-bifunctor laws for the tensor, then the structural-iso,
    naturality, triangle, and pentagon laws.  Exhaustive on the tables.

    One integer index, built for this call only and shared with the
    whiskered checks, carries every loop; a witness is rendered only for
    an instance that fails.  A large table is checked in parts across
    CPUs (``report._split_families``)."""
    cx, mx = _index_monoidal(M)
    objs, mors, src, tgt, comp = cx.objects, cx.mors, cx.src, cx.tgt, cx.comp
    ten, lw, rw = mx.ten.obj, mx.ten.lw, mx.ten.rw
    I, lu, ru, A = mx.unit, mx.lu, mx.ru, mx.a
    n_obj, n_mor = len(objs), len(mors)

    def endpoints(rep: LawReport, which: str, fwd: int, bwd: int, s: int, t: int, at) -> int:
        if src[fwd] == s and tgt[fwd] == t:
            return 1
        rep.check(False, which + "-endpoints",
                  f"{_place(which, objs, at)}: {mors[fwd]}: "
                  f"{objs[src[fwd]]}→{objs[tgt[fwd]]}, expected {objs[s]}→{objs[t]}")
        return 0

    def unitor_naturality(rep: LawReport, fs: range) -> int:
        passed = 0
        lw_I = lw[I]
        for f in fs:
            x, y = src[f], tgt[f]
            lhs = comp[lu[y]].get(lw_I[f])
            rhs = comp[f].get(lu[x])
            if lhs is not None and rhs is not None:
                if lhs == rhs:
                    passed += 1
                else:
                    rep.check(False, "lunitor-naturality",
                              f"at {mors[f]}: {objs[x]}→{objs[y]}: ({mors[lu[y]]} after "
                              f"{objs[I]}⊗{mors[f]}) = {mors[lhs]} "
                              f"but ({mors[f]} after {mors[lu[x]]}) = {mors[rhs]}")
            lhs = comp[ru[y]].get(rw[f][I])
            rhs = comp[f].get(ru[x])
            if lhs is not None and rhs is not None:
                if lhs == rhs:
                    passed += 1
                else:
                    rep.check(False, "runitor-naturality",
                              f"at {mors[f]}: {objs[x]}→{objs[y]}: ({mors[ru[y]]} after "
                              f"{mors[f]}⊗{objs[I]}) = {mors[lhs]} "
                              f"but ({mors[f]} after {mors[ru[x]]}) = {mors[rhs]}")
        return passed

    def naturality(rep: LawReport, slot: str, f: int, y: int, z: int, lhs: int,
                   rhs: int) -> None:
        rep.check(False, "associator-naturality",
                  f"{slot} slot, f={mors[f]}, (y,z)=({objs[y]},{objs[z]}): "
                  f"{mors[lhs]} vs {mors[rhs]}")

    def associator_naturality(rep: LawReport, fs: range) -> int:
        passed = 0
        for f in fs:
            x, x1 = src[f], tgt[f]
            rw_f, A_x, A_x1 = rw[f], A[x], A[x1]
            lw_f = [lwx[f] for lwx in lw]
            for y in range(n_obj):
                rw_fy, ten_y, lw_y = rw[rw_f[y]], ten[y], lw[y]
                rw_lw_yf = rw[lw_y[f]]
                A_yx1, A_yx, A_y = A[y][x1], A[y][x], A[y]
                A_x1y, A_xy = A_x1[y], A_x[y]
                for z in range(n_obj):
                    try:  # naturality in the first argument
                        lhs, rhs = comp[A_x1y[z]][rw_fy[z]], comp[rw_f[ten_y[z]]][A_xy[z]]
                    except KeyError:
                        pass
                    else:
                        if lhs == rhs:
                            passed += 1
                        else:
                            naturality(rep, "first", f, y, z, lhs, rhs)
                    try:  # second argument
                        lhs, rhs = comp[A_yx1[z]][rw_lw_yf[z]], comp[lw_y[rw_f[z]]][A_yx[z]]
                    except KeyError:
                        pass
                    else:
                        if lhs == rhs:
                            passed += 1
                        else:
                            naturality(rep, "second", f, y, z, lhs, rhs)
                    A_yz = A_y[z]
                    try:  # third argument
                        lhs, rhs = comp[A_yz[x1]][lw_f[ten_y[z]]], comp[lw_y[lw_f[z]]][A_yz[x]]
                    except KeyError:
                        pass
                    else:
                        if lhs == rhs:
                            passed += 1
                        else:
                            naturality(rep, "third", f, y, z, lhs, rhs)
        return passed

    def triangle(x: int, z: int, lhs: int, rhs: int) -> str:
        return (f"at ({objs[x]},{objs[z]}): ({objs[x]}⊗lunitor_{objs[z]} after "
                f"α_({objs[x]},{objs[I]},{objs[z]})) = {cx.name(lhs)} "
                f"but runitor_{objs[x]}⊗{objs[z]} = {mors[rhs]}")

    rep = LawReport()
    _split_families(rep, _whiskered_families(cx, mx.ten) + [
        (n_obj, 6 * n_obj, lambda rep, xs: _unitor_isos(
            rep, xs, "", cx, mx, endpoints, "id_{}")),
        (n_obj, 3 * n_obj ** 3, lambda rep, xs: _associator_isos(
            rep, xs, "", cx, mx, endpoints, "id_{}")),
        (n_mor, 2 * n_mor, unitor_naturality),
        (n_mor, 3 * n_mor * n_obj ** 2, associator_naturality),
        (n_obj, n_obj ** 2, lambda rep, xs: _triangle(rep, xs, "triangle", cx, mx, triangle)),
        (n_obj, n_obj ** 4, lambda rep, ws: _pentagon(rep, ws, "pentagon", cx, mx))])
    return rep


def check_monoid(M: MonoidalCategory, m: Monoid) -> LawReport:
    """Unit and associativity diagrams for a monoid object, via the
    stored unitors/associator."""
    C, T = M.base, M.tensor
    rep = LawReport()
    if not (C.has_mor(m.unit_map) and C.has_mor(m.mult)) or m.carrier not in C.objects:
        raise TableError("monoid data references unknown ids")
    rep.check(C.src(m.unit_map) == M.unit and C.tgt(m.unit_map) == m.carrier,
              "monoid-unit-endpoints",
              f"unit {m.unit_map}: {C.src(m.unit_map)}→{C.tgt(m.unit_map)}, "
              f"expected {M.unit}→{m.carrier}")
    mm = T.obj(m.carrier, m.carrier)
    rep.check(C.src(m.mult) == mm and C.tgt(m.mult) == m.carrier,
              "monoid-mult-endpoints",
              f"mult {m.mult}: {C.src(m.mult)}→{C.tgt(m.mult)}, "
              f"expected {mm}→{m.carrier}")
    if rep.violations:
        return rep
    comp = C.comp.get

    for table, key in (("lunitor", m.carrier), ("runitor", m.carrier),
                       ("associator", (m.carrier,) * 3)):
        if key not in getattr(M, table):
            raise TableError(f"{table} has no entry for {key!r}")
    lhs = comp((m.mult, T.rw(m.unit_map, m.carrier)))
    rep.check(lhs == M.lunitor[m.carrier], "monoid-unit-left",
              f"(mult after unit⊗{m.carrier}) = {lhs}, "
              f"expected lunitor = {M.lunitor[m.carrier]}")
    lhs = comp((m.mult, T.lw(m.carrier, m.unit_map)))
    rep.check(lhs == M.runitor[m.carrier], "monoid-unit-right",
              f"(mult after {m.carrier}⊗unit) = {lhs}, "
              f"expected runitor = {M.runitor[m.carrier]}")
    lhs = comp((m.mult, T.rw(m.mult, m.carrier)))
    inner = comp((T.lw(m.carrier, m.mult),
                  M.associator[(m.carrier, m.carrier, m.carrier)]))
    rhs = None if inner is None else comp((m.mult, inner))
    rep.check(lhs is not None and lhs == rhs, "monoid-assoc",
              f"(mult after mult⊗{m.carrier}) = {lhs} but "
              f"(mult after {m.carrier}⊗mult after α) = {rhs}")
    return rep


def enumerate_monoids(M: MonoidalCategory) -> list[Monoid]:
    """All monoid objects in M, by exhaustive search over the tables."""
    out = []
    for carrier in M.base.objects:
        mm = M.tensor.obj(carrier, carrier)
        for eta in hom_enumerate(M.base, M.unit, carrier):
            for mu in hom_enumerate(M.base, mm, carrier):
                cand = Monoid(carrier, eta, mu)
                if check_monoid(M, cand).ok:
                    out.append(cand)
    return out


# --- functor categories ----------------------------------------------------

def _lawful(candidates, check, bound: int, what: str) -> list:
    """The candidates that ``check(rep, candidate)`` passes; more than
    ``bound`` of them is an EnumerationOverflow."""
    found = []
    for cand in candidates:
        rep = LawReport()
        check(rep, cand)
        if rep.ok:
            found.append(cand)
            if len(found) > bound:
                raise EnumerationOverflow(f"more than {bound} {what}; raise the bound to proceed")
    return found


def _homs(cx: _CatIndex) -> list[list[list[int]]]:
    """``homs[x][y]`` lists the morphisms x → y by number, in table order."""
    return [[[f for f in into if cx.src[f] == x] for into in cx.into]
            for x in range(len(cx.into))]


def _functors(cs: _CatIndex, ct: _CatIndex, bound: int) -> list[tuple[tuple, tuple]]:
    """Every functor from the category indexed by ``cs`` to the one indexed
    by ``ct``, as ``_functor_index`` gives it, by exhaustive search over
    object maps and hom-constrained morphism maps."""
    src, tgt, ident = cs.src, cs.tgt, cs.ident
    homs = _homs(ct)
    non_id = [f for f, x in enumerate(src) if f != ident[x] or x != tgt[f]]

    def candidates():
        for fo in itertools.product(range(len(ct.objects)), repeat=len(cs.objects)):
            fm = [ct.ident[fo[x]] for x in src]  # an identity goes to an identity
            for picks in itertools.product(*(homs[fo[src[f]]][fo[tgt[f]]] for f in non_id)):
                for f, m in zip(non_id, picks):
                    fm[f] = m
                yield fo, tuple(fm)

    return _lawful(candidates(), lambda rep, fx: _check_functor(rep, cs, ct, fx),
                   bound, "endofunctors" if cs is ct else "functors")


def _nat_transes(cs: _CatIndex, ct: _CatIndex, functors: list[tuple], bound: int) -> list[tuple]:
    """Every natural transformation between the indexed functors, as
    (source number, target number, component numbers)."""
    homs = _homs(ct)
    candidates = ((i, j, comps) for i, (fo, _) in enumerate(functors)
                  for j, (go, _) in enumerate(functors)
                  for comps in itertools.product(*(homs[y][z] for y, z in zip(fo, go))))
    return _lawful(candidates, lambda rep, nx: _check_nat_trans(
        rep, cs, ct, functors[nx[0]], functors[nx[1]], nx[2]), bound, "natural transformations")


def _functor(C: FinCategory, D: FinCategory, cs, ct, fx: tuple, name: str = "") -> FinFunctor:
    return FinFunctor(C, D, dict(zip(cs.objects, (ct.objects[y] for y in fx[0]))),
                      dict(zip(cs.mors, (ct.mors[m] for m in fx[1]))), name=name)


def enumerate_endofunctors(C: FinCategory, bound: int = DEFAULT_ENUM_BOUND) -> list[FinFunctor]:
    """Every functor C → C, unnamed, in ``functor_category(C, C)``'s order."""
    cx = _CatIndex(C)
    return [_functor(C, C, cx, cx, fx) for fx in _functors(cx, cx, bound)]


@dataclass
class _FunctorCategory:
    """[C, D] as ``base``, with registries naming its functors and transformations
    and keying them by ``_functor_index`` and ``_nat_index``, in ``base``'s order."""

    base: FinCategory
    functors: dict[str, FinFunctor]
    nats: dict[str, FinNatTrans]
    _functor_names: dict[tuple, str] = field(repr=False)
    _nat_ids: dict[tuple, str] = field(repr=False)


def functor_category(C: FinCategory, D: FinCategory,
                     bound: int = DEFAULT_ENUM_BOUND) -> _FunctorCategory:
    """[C, D]: the functors C → D and their natural transformations, composed as tuples
    of numbers over one index of each category.  Functors are named ``const_x``, "Id"
    (on the diagonal only) or ``F{i}``; transformations ``id_F``, ``F=>G`` or ``F=>G#k``."""
    cs = _CatIndex(C)
    ct = cs if D is C else _CatIndex(D)
    objs, mors, ident, comp = ct.objects, ct.mors, ct.ident, ct.comp
    fxs = _functors(cs, ct, bound)
    fn: list[str] = []
    for i, (fo, fm) in enumerate(fxs):
        name = None
        if cs is ct and fo == tuple(range(len(fo))) and fm == tuple(range(len(fm))):
            name = "Id"
        elif len(set(fo)) == 1 and all(m == ident[fo[0]] for m in fm):
            name = f"const_{objs[fo[0]]}"
        fn.append(f"F{i}" if name is None or name in fn else name)
    f_names = {name: _functor(C, D, cs, ct, fx, name) for name, fx in zip(fn, fxs)}

    nxs = _nat_transes(cs, ct, fxs, bound)
    nn: list[str] = []
    pair_counts: dict[tuple[int, int], int] = {}
    for i, j, comps in nxs:
        if i == j and comps == tuple(ident[y] for y in fxs[i][0]):
            nn.append(f"id_{fn[i]}")
        else:
            k = pair_counts.get((i, j), 0)
            pair_counts[(i, j)] = k + 1
            nn.append(f"{fn[i]}=>{fn[j]}" if k == 0 else f"{fn[i]}=>{fn[j]}#{k}")
    n_ids = {nid: FinNatTrans(f_names[fn[i]], f_names[fn[j]],
                              {x: mors[c] for x, c in zip(cs.objects, comps)}, name=nid)
             for nid, (i, j, comps) in zip(nn, nxs)}

    n_no = {nx: a for a, nx in enumerate(nxs)}
    into = [[(a, h, ac) for a, (h, j, ac) in enumerate(nxs) if j == g] for g in range(len(fxs))]
    comp_table = {}
    for b, (i, j, bc) in enumerate(nxs):
        for a, h, ac in into[i]:  # the α with β after α defined
            comp_table[(nn[b], nn[a])] = nn[n_no[(h, j, tuple(comp[y][x] for y, x in zip(bc, ac)))]]
    base = FinCategory(tuple(fn), tuple((nid, fn[i], fn[j]) for nid, (i, j, _) in zip(nn, nxs)),
                       {name: f"id_{name}" for name in fn}, comp_table)
    nat_ids = {(fxs[i], fxs[j], comps): nid for nid, (i, j, comps) in zip(nn, nxs)}
    return _FunctorCategory(base, f_names, n_ids, dict(zip(fxs, fn)), nat_ids)


@dataclass
class EndofunctorMonoidal(_FunctorCategory):
    """End(C): [C, C] with the composition tensor as ``monoidal``; the registries
    read monoid data back as monad data (and back) without recomputation."""

    category: FinCategory
    monoidal: MonoidalCategory


def endofunctor_monoidal(C: FinCategory, bound: int = DEFAULT_ENUM_BOUND) -> EndofunctorMonoidal:
    """End(C) as a MonoidalCategory over ``functor_category(C, C)``: the tensor is
    composition, strictly unital and associative on tables, so every structural
    component is a pointwise identity."""
    FC = functor_category(C, C, bound)
    base, fn, nn, fxs = FC.base, list(FC.functors), list(FC.nats), list(FC._functor_names)
    f_no = {fx: f for f, fx in enumerate(fxs)}
    nxs = [(f_no[fx], f_no[gx], comps) for fx, gx, comps in FC._nat_ids]
    n_no = {nx: a for a, nx in enumerate(nxs)}
    ten = [[f_no[(tuple(fo[y] for y in go), tuple(fm[m] for m in gm))] for go, gm in fxs]
           for fo, fm in fxs]  # ten[f][g] is F∘G, x ↦ F(G(x))
    obj_table = {(fn[f], fn[g]): fn[fg] for f, row in enumerate(ten) for g, fg in enumerate(row)}
    lwhisker, rwhisker = {}, {}
    for f, (fo, fm) in enumerate(fxs):
        for a, (i, j, ac) in enumerate(nxs):
            # F ⊗ α : F∘G ⇒ F∘G' with components F(α_x)
            lwhisker[(fn[f], nn[a])] = nn[n_no[(ten[f][i], ten[f][j], tuple(fm[c] for c in ac))]]
            # α ⊗ F : G∘F ⇒ G'∘F with components α_{F(x)}
            rwhisker[(nn[a], fn[f])] = nn[n_no[(ten[i][f], ten[j][f], tuple(ac[y] for y in fo))]]
    tensor = WhiskeredBifunctor(base, obj_table, lwhisker, rwhisker)

    ids = list(base.identity.values())  # Id ∘ F = F = F ∘ Id, so the unitors are these
    associator = {(fn[f], fn[g], fn[h]): ids[ten[ten[f][g]][h]]
                  for f, g, h in itertools.product(range(len(fn)), repeat=3)}
    M = MonoidalCategory(base, "Id", tensor, *(dict(base.identity) for _ in range(4)),
                         associator, dict(associator), name="endofunctors")
    return EndofunctorMonoidal(**vars(FC), category=C, monoidal=M)


def check_monad(T: Monad) -> LawReport:
    """Functor and naturality laws for the data, then the unit and
    associativity laws componentwise, over one integer index of the
    category built for this call only."""
    F = T.endofunctor
    cx = _CatIndex(F.source)
    fo, fm = fx = _functor_index(F, cx, cx)

    def index(G: FinFunctor, cs: _CatIndex, ct: _CatIndex) -> tuple:
        return fx if G is F else _functor_index(G, cs, ct)

    unit, mult = _nat_index(T.unit, cx, cx, index), _nat_index(T.mult, cx, cx, index)
    rep = LawReport()
    _check_functor(rep, cx, cx, fx)
    _check_nat_trans(rep, cx, cx, *unit)
    _check_nat_trans(rep, cx, cx, *mult)
    (unit_src, _, eta), (mult_src, _, mu) = unit, mult
    rep.check(unit_src == (tuple(range(len(fo))), tuple(range(len(fm)))),
              "monad-unit-shape", "unit transformation does not start at the identity functor")
    rep.check(mult_src == (tuple(fo[y] for y in fo), tuple(fm[m] for m in fm)),
              "monad-mult-shape", "mult transformation does not start at the square")
    objs, ident, name = cx.objects, cx.ident, cx.name
    for x, tx in enumerate(fo):
        after_mu = cx.comp[mu[x]]
        lhs = after_mu.get(eta[tx])
        rep.check(lhs == ident[tx], "monad-unit-left", lambda: (
            f"at {objs[x]}: (mult after unit_{objs[tx]}) = {name(lhs)}, expected id_{objs[tx]}"))
        lhs = after_mu.get(fm[eta[x]])
        rep.check(lhs == ident[tx], "monad-unit-right", lambda: (
            f"at {objs[x]}: (mult after F(unit_{objs[x]})) = {name(lhs)}, expected id_{objs[tx]}"))
        lhs, rhs = after_mu.get(mu[tx]), after_mu.get(fm[mu[x]])
        rep.check(lhs is not None and lhs == rhs, "monad-assoc", lambda: (
            f"at {objs[x]}: (mult after mult_{objs[tx]}) = {name(lhs)} but "
            f"(mult after F(mult_{objs[x]})) = {name(rhs)}"))
    return rep


def monoid_to_monad(E: EndofunctorMonoidal, m: Monoid) -> Monad:
    """Read monoid data as monad data through the registries; nothing is
    recomputed."""
    if m.carrier not in E.functors:
        raise TableError("monoid is not over an endofunctor monoidal category instance")
    return Monad(E.functors[m.carrier], E.nats[m.unit_map], E.nats[m.mult])


def monad_to_monoid(E: EndofunctorMonoidal, T: Monad) -> Monoid:
    cx = _CatIndex(E.category)
    try:
        return Monoid(E._functor_names[_functor_index(T.endofunctor, cx, cx)],
                      *(E._nat_ids[_nat_index(t, cx, cx)] for t in (T.unit, T.mult)))
    except KeyError:
        raise TableError("monad is not in this endofunctor category") from None


# --- JSON interchange -------------------------------------------------------

_MONOIDAL_FIELDS = {"objects", "morphisms", "identity", "comp", "unit", "tensor",
                    "lunitor", "lunitor_inv", "runitor", "runitor_inv",
                    "associator", "associator_inv"}


def from_monoidal_doc(doc) -> MonoidalCategory:
    _doc_fields(doc, _MONOIDAL_FIELDS, "monoidal")
    base = _doc_category({k: doc[k] for k in ("objects", "morphisms", "identity", "comp")})
    unit = doc["unit"]
    if not isinstance(unit, str):
        raise TableError("'unit' must be an object id string")
    tdoc = doc["tensor"]
    if not isinstance(tdoc, dict) or set(tdoc) != {"obj", "lwhisker", "rwhisker"}:
        raise TableError("'tensor' must have exactly obj/lwhisker/rwhisker tables")

    tensor = WhiskeredBifunctor(
        base,
        _doc_rows(tdoc["obj"], ("left", "right", "result"), "tensor obj"),
        _doc_rows(tdoc["lwhisker"], ("obj", "mor", "result"), "tensor lwhisker"),
        _doc_rows(tdoc["rwhisker"], ("mor", "obj", "result"), "tensor rwhisker"),
    )

    assoc = ("x", "y", "z", "result")
    M = MonoidalCategory(base, unit, tensor,
                         *(_doc_map(doc, f, "object ids", "morphism ids")
                           for f in ("lunitor", "lunitor_inv", "runitor", "runitor_inv")),
                         _doc_rows(doc["associator"], assoc, "associator"),
                         _doc_rows(doc["associator_inv"], assoc, "associator_inv"))
    _index_monoidal(M)  # building the indexes is the validation
    return M


def to_monoidal_doc(M: MonoidalCategory) -> dict:
    doc = to_doc(M.base)
    doc["unit"] = M.unit
    doc["tensor"] = {
        "obj": [{"left": x, "right": y, "result": o}
                for (x, y), o in M.tensor.obj_table.items()],
        "lwhisker": [{"obj": x, "mor": f, "result": m}
                     for (x, f), m in M.tensor.lwhisker.items()],
        "rwhisker": [{"mor": f, "obj": z, "result": m}
                     for (f, z), m in M.tensor.rwhisker.items()],
    }
    doc["lunitor"] = dict(M.lunitor)
    doc["lunitor_inv"] = dict(M.lunitor_inv)
    doc["runitor"] = dict(M.runitor)
    doc["runitor_inv"] = dict(M.runitor_inv)
    doc["associator"] = [{"x": x, "y": y, "z": z, "result": m}
                         for (x, y, z), m in M.associator.items()]
    doc["associator_inv"] = [{"x": x, "y": y, "z": z, "result": m}
                             for (x, y, z), m in M.associator_inv.items()]
    return doc
