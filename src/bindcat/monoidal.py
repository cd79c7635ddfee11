"""Tensors in whiskered (curried) form, monoidal categories over finite
tables, monoids, and the endofunctor instance where monoids are monads.

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
    check_category_laws,
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
    _doc_rows,
    _full_grid,
    _functor_index,
    _nat_index,
)
from .report import LawReport

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

    def on_obj(self, x: str):
        """Curried object action: the map y ↦ x⊗y."""
        return lambda y: self.obj(x, y)

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
    """Integer view of a tensor over a ``_CatIndex``: ``obj[x][y]``,
    ``lw[x][f]`` and ``rw[f][z]``.  Built by one checker call and dropped
    when it returns; building it is the tensor's validation, so a missing
    entry or an unknown id is a TableError."""

    __slots__ = ("obj", "lw", "rw")

    def __init__(self, T: WhiskeredBifunctor, cx: _CatIndex):
        on, mn = cx.obj_no, cx.mor_no
        self.obj = _full_grid(T.obj_table, "tensor obj table", on, on, on)
        self.lw = _full_grid(T.lwhisker, "left whisker table", mn, on, mn)
        self.rw = _full_grid(T.rwhisker, "right whisker table", mn, mn, on)


def check_whiskered_bifunctor(T: WhiskeredBifunctor) -> LawReport:
    """Identity, composition, endpoint, and interchange laws, exhaustively.

    The loops run over an integer index that lives for this call only,
    and a witness is rendered only for an instance that fails."""
    cx = _CatIndex(T.base)
    rep = LawReport()
    _check_whiskered(rep, cx, _TensorIndex(T, cx))
    return rep


def _check_whiskered(rep: LawReport, cx: _CatIndex, tx: _TensorIndex) -> None:
    objs, mors = cx.objects, cx.mors
    src, tgt, ident, comp = cx.src, cx.tgt, cx.ident, cx.comp
    ten, lw, rw = tx.obj, tx.lw, tx.rw
    n_obj, n_mor = len(objs), len(mors)
    passed = 0

    for x in range(n_obj):
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

    for x in range(n_obj):
        for y in range(n_obj):
            xy = ten[x][y]
            m = lw[x][ident[y]]
            if m == ident[xy]:
                passed += 1
            else:
                rep.check(False, "lwhisker-identity",
                          f"{objs[x]}⊗id_{objs[y]} = {mors[m]}, expected id_{objs[xy]}")
            m = rw[ident[x]][y]
            if m == ident[xy]:
                passed += 1
            else:
                rep.check(False, "rwhisker-identity",
                          f"id_{objs[x]}⊗{objs[y]} = {mors[m]}, expected id_{objs[xy]}")

    for g, f, h in cx.comp_items:
        rw_g, rw_f, rw_h = rw[g], rw[f], rw[h]
        for x in range(n_obj):
            lwx = lw[x]
            lhs, rhs = lwx[h], comp[lwx[g]].get(lwx[f])
            if rhs is not None:
                if lhs == rhs:
                    passed += 1
                else:
                    rep.check(False, "lwhisker-composition",
                              f"{objs[x]}⊗({mors[g]} after {mors[f]}) = {mors[lhs]} but "
                              f"({objs[x]}⊗{mors[g]} after {objs[x]}⊗{mors[f]}) = {mors[rhs]}")
            lhs, rhs = rw_h[x], comp[rw_g[x]].get(rw_f[x])
            if rhs is not None:
                if lhs == rhs:
                    passed += 1
                else:
                    rep.check(False, "rwhisker-composition",
                              f"({mors[g]} after {mors[f]})⊗{objs[x]} = {mors[lhs]} but "
                              f"({mors[g]}⊗{objs[x]} after {mors[f]}⊗{objs[x]}) = {mors[rhs]}")

    def interchange(f: int, g: int, lhs: int, rhs: int) -> str:
        y, y1, x, x1 = src[f], tgt[f], src[g], tgt[g]
        return (f"at f={mors[f]}: {objs[y]}→{objs[y1]}, g={mors[g]}: {objs[x]}→{objs[x1]}: "
                f"({mors[g]}⊗{objs[y1]} after {objs[x]}⊗{mors[f]}) = {mors[lhs]} but "
                f"({objs[x1]}⊗{mors[f]} after {mors[g]}⊗{objs[y]}) = {mors[rhs]}")

    passed += _interchange(rep, "interchange", src, tgt, comp, lw, rw, interchange)
    rep.tally(passed)


def _interchange(rep: LawReport, law: str, src, tgt, comp, lw, rw, witness) -> int:
    """Interchange over integer tables, for f: y→y' and g: x→x':
    (g ⊗ y') ∘ (x ⊗ f) = (x' ⊗ f) ∘ (g ⊗ y).  An instance that reads an
    absent entry (None in a displayed table, a TypeError) or composite (a
    KeyError) is skipped uncounted: the totality and endpoint checks
    report it.  A failure is reported under ``law`` with
    ``witness(f, g, lhs, rhs)``.  Returns the number of passes."""
    passed = 0
    mors = range(len(src))
    for f in mors:
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


def _pentagon(rep: LawReport, law: str, objs, mors, comp, ten, lw, rw, A) -> int:
    """The pentagon over integer tables, at every (w, x, y, z):
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
    passed = 0
    n = len(objs)
    span = range(n)
    ten_id, rw_id = [id(row) for row in ten], [id(row) for row in rw]
    A_id = [[id(row) for row in plane] for plane in A]
    for w in span:
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


class _MonoidalIndex:
    """Integer view of a monoidal category: its ``_CatIndex`` and
    ``_TensorIndex``, the unit, the unitors per object and the associators
    as ``a[x][y][z]``.  Built by one checker call and dropped when it
    returns; building it is the monoidal category's validation."""

    __slots__ = ("cat", "ten", "unit", "lu", "lu_inv", "ru", "ru_inv", "a", "a_inv")

    def __init__(self, M: MonoidalCategory):
        if M.tensor.base is not M.base and M.tensor.base != M.base:
            raise TableError("tensor is over a different category than its monoidal structure")
        self.cat = cx = _CatIndex(M.base)
        self.ten = _TensorIndex(M.tensor, cx)
        on, mn = cx.obj_no, cx.mor_no
        if M.unit not in on:
            raise TableError(f"unit object {M.unit!r} is not in the category")
        self.unit = on[M.unit]
        self.lu, self.lu_inv, self.ru, self.ru_inv = (
            _full_grid(getattr(M, table), table, mn, on)
            for table in ("lunitor", "lunitor_inv", "runitor", "runitor_inv"))
        self.a, self.a_inv = (
            _full_grid(getattr(M, table), table, mn, on, on, on)
            for table in ("associator", "associator_inv"))


def check_monoidal_laws(M: MonoidalCategory) -> LawReport:
    """Whiskered-bifunctor laws for the tensor, then the structural-iso,
    naturality, triangle, and pentagon laws.  Exhaustive on the tables.

    One integer index, built for this call only and shared with the
    whiskered checks, carries every loop; a witness is rendered only for
    an instance that fails."""
    mx = _MonoidalIndex(M)
    cx, I = mx.cat, mx.unit
    objs, mors, name = cx.objects, cx.mors, cx.name
    src, tgt, ident, comp = cx.src, cx.tgt, cx.ident, cx.comp
    ten, lw, rw = mx.ten.obj, mx.ten.lw, mx.ten.rw
    lu, ru, A = mx.lu, mx.ru, mx.a
    n_obj, n_mor = len(objs), len(mors)
    rep = LawReport()
    _check_whiskered(rep, cx, mx.ten)
    passed = 0

    def place(where: str, at: tuple[int, ...]) -> str:
        return where.format(*(objs[i] for i in at))

    def iso(fwd: int, bwd: int, s: int, t: int, law: str, where: str, *at: int) -> int:
        # where is formatted with the names of the objects at, on failure only
        ok = 0
        if src[fwd] == s and tgt[fwd] == t:
            ok += 1
        else:
            rep.check(False, law + "-endpoints",
                      f"{place(where, at)}: {mors[fwd]}: {objs[src[fwd]]}→{objs[tgt[fwd]]}, "
                      f"expected {objs[s]}→{objs[t]}")
        one = comp[fwd].get(bwd)
        if one == ident[t]:
            ok += 1
        else:
            rep.check(False, law + "-iso",
                      f"{place(where, at)}: ({mors[fwd]} after {mors[bwd]}) = {name(one)}, "
                      f"expected id_{objs[t]}")
        other = comp[bwd].get(fwd)
        if other == ident[s]:
            ok += 1
        else:
            rep.check(False, law + "-iso",
                      f"{place(where, at)}: ({mors[bwd]} after {mors[fwd]}) = {name(other)}, "
                      f"expected id_{objs[s]}")
        return ok

    for x in range(n_obj):
        passed += iso(lu[x], mx.lu_inv[x], ten[I][x], x, "lunitor", "lunitor at {}", x)
        passed += iso(ru[x], mx.ru_inv[x], ten[x][I], x, "runitor", "runitor at {}", x)
    for x in range(n_obj):
        for y in range(n_obj):
            for z in range(n_obj):
                passed += iso(A[x][y][z], mx.a_inv[x][y][z],
                              ten[ten[x][y]][z], ten[x][ten[y][z]], "associator",
                              "associator at ({},{},{})", x, y, z)

    lw_I = lw[I]
    for f in range(n_mor):
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

    def naturality(slot: str, f: int, y: int, z: int, lhs: int, rhs: int) -> None:
        rep.check(False, "associator-naturality",
                  f"{slot} slot, f={mors[f]}, (y,z)=({objs[y]},{objs[z]}): "
                  f"{mors[lhs]} vs {mors[rhs]}")

    for f in range(n_mor):
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
                        naturality("first", f, y, z, lhs, rhs)
                try:  # second argument
                    lhs, rhs = comp[A_yx1[z]][rw_lw_yf[z]], comp[lw_y[rw_f[z]]][A_yx[z]]
                except KeyError:
                    pass
                else:
                    if lhs == rhs:
                        passed += 1
                    else:
                        naturality("second", f, y, z, lhs, rhs)
                A_yz = A_y[z]
                try:  # third argument
                    lhs, rhs = comp[A_yz[x1]][lw_f[ten_y[z]]], comp[lw_y[lw_f[z]]][A_yz[x]]
                except KeyError:
                    pass
                else:
                    if lhs == rhs:
                        passed += 1
                    else:
                        naturality("third", f, y, z, lhs, rhs)

    for x in range(n_obj):
        for z in range(n_obj):
            lhs = comp[lw[x][lu[z]]].get(A[x][I][z])
            rhs = rw[ru[x]][z]
            if lhs is not None:
                if lhs == rhs:
                    passed += 1
                else:
                    rep.check(False, "triangle",
                              f"at ({objs[x]},{objs[z]}): ({objs[x]}⊗lunitor_{objs[z]} after "
                              f"α_({objs[x]},{objs[I]},{objs[z]})) = {mors[lhs]} "
                              f"but runitor_{objs[x]}⊗{objs[z]} = {mors[rhs]}")

    passed += _pentagon(rep, "pentagon", objs, mors, comp, ten, lw, rw, A)
    rep.tally(passed)
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


# --- endofunctor categories -------------------------------------------------

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


def _endofunctors(cx: _CatIndex, bound: int) -> list[tuple[tuple, tuple]]:
    """Every functor C → C as ``_functor_index`` gives it, by exhaustive
    search over object maps and hom-constrained morphism maps."""
    src, tgt, ident = cx.src, cx.tgt, cx.ident
    homs = _homs(cx)
    non_id = [f for f, x in enumerate(src) if f != ident[x] or x != tgt[f]]

    def candidates():
        for fo in itertools.product(range(len(cx.objects)), repeat=len(cx.objects)):
            fm = [ident[fo[x]] for x in src]  # an identity goes to an identity
            for picks in itertools.product(*(homs[fo[src[f]]][fo[tgt[f]]] for f in non_id)):
                for f, m in zip(non_id, picks):
                    fm[f] = m
                yield fo, tuple(fm)

    return _lawful(candidates(), lambda rep, fx: _check_functor(rep, cx, cx, fx),
                   bound, "endofunctors")


def _nat_transes(cx: _CatIndex, functors: list[tuple], bound: int) -> list[tuple]:
    """Every natural transformation between the indexed endofunctors, as
    (source number, target number, component numbers)."""
    homs = _homs(cx)
    candidates = ((i, j, comps) for i, (fo, _) in enumerate(functors)
                  for j, (go, _) in enumerate(functors)
                  for comps in itertools.product(*(homs[y][z] for y, z in zip(fo, go))))
    return _lawful(candidates, lambda rep, nx: _check_nat_trans(
        rep, cx, cx, functors[nx[0]], functors[nx[1]], nx[2]), bound, "natural transformations")


def _functor(C: FinCategory, cx: _CatIndex, fx: tuple, name: str = "") -> FinFunctor:
    objs, mors = cx.objects, cx.mors
    return FinFunctor(C, C, dict(zip(objs, (objs[y] for y in fx[0]))),
                      dict(zip(mors, (mors[m] for m in fx[1]))), name=name)


def enumerate_endofunctors(C: FinCategory, bound: int = DEFAULT_ENUM_BOUND) -> list[FinFunctor]:
    """Every functor C → C, found by exhaustive search over object maps
    and hom-constrained morphism maps."""
    cx = _CatIndex(C)
    return [_functor(C, cx, fx) for fx in _endofunctors(cx, bound)]


@dataclass
class EndofunctorMonoidal:
    """The monoidal category of all endofunctors of a finite category,
    together with the registries that let monoid data be read back as
    monad data (and back) without recomputation.  The registries key a
    functor by its ``_functor_index`` and a transformation by its
    ``_nat_index``."""

    category: FinCategory
    monoidal: MonoidalCategory
    functors: dict[str, FinFunctor]
    nats: dict[str, FinNatTrans]
    _functor_names: dict[tuple, str] = field(repr=False, default_factory=dict)
    _nat_ids: dict[tuple, str] = field(repr=False, default_factory=dict)


def endofunctor_monoidal(C: FinCategory, bound: int = DEFAULT_ENUM_BOUND) -> EndofunctorMonoidal:
    """Materialize the endofunctor category of C as a MonoidalCategory:
    objects are the functors C→C, morphisms the natural transformations,
    tensor is composition, and every structural component is a pointwise
    identity (the tensor is strictly unital and associative on tables).

    Functors and transformations are composed and whiskered as tuples of
    numbers over one index of C, and named only in the tables."""
    cx = _CatIndex(C)
    objs, mors, ident, comp = cx.objects, cx.mors, cx.ident, cx.comp
    fxs = _endofunctors(cx, bound)
    fn: list[str] = []
    for i, (fo, fm) in enumerate(fxs):
        name = None
        if fo == tuple(range(len(fo))) and fm == tuple(range(len(fm))):
            name = "Id"
        elif len(set(fo)) == 1 and all(m == ident[fo[0]] for m in fm):
            name = f"const_{objs[fo[0]]}"
        fn.append(f"F{i}" if name is None or name in fn else name)
    f_names = {name: _functor(C, cx, fx, name) for name, fx in zip(fn, fxs)}

    nxs = _nat_transes(cx, fxs, bound)
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
                              {x: mors[c] for x, c in zip(objs, comps)}, name=nid)
             for nid, (i, j, comps) in zip(nn, nxs)}

    n_no = {nx: a for a, nx in enumerate(nxs)}
    into: list[list[int]] = [[] for _ in fxs]
    for a, (_, j, _) in enumerate(nxs):
        into[j].append(a)
    comp_table = {}
    for b, (i, j, bc) in enumerate(nxs):
        for a in into[i]:  # the α with β after α defined
            h, _, ac = nxs[a]
            composite = tuple(comp[y][x] for y, x in zip(bc, ac))
            comp_table[(nn[b], nn[a])] = nn[n_no[(h, j, composite)]]
    identity = {name: f"id_{name}" for name in fn}
    base = FinCategory(tuple(fn), tuple((nid, fn[i], fn[j]) for nid, (i, j, _) in zip(nn, nxs)),
                       identity, comp_table)

    f_no = {fx: f for f, fx in enumerate(fxs)}
    ten = [[f_no[(tuple(fo[y] for y in go), tuple(fm[m] for m in gm))] for go, gm in fxs]
           for fo, fm in fxs]  # ten[f][g] is F∘G, x ↦ F(G(x))
    obj_table = {(fn[f], fn[g]): fn[fg] for f, row in enumerate(ten) for g, fg in enumerate(row)}
    lwhisker = {}
    rwhisker = {}
    for f, (fo, fm) in enumerate(fxs):
        for a, (i, j, ac) in enumerate(nxs):
            # F ⊗ α : F∘G ⇒ F∘G' with components F(α_x)
            lwhisker[(fn[f], nn[a])] = nn[n_no[(ten[f][i], ten[f][j], tuple(fm[c] for c in ac))]]
            # α ⊗ F : G∘F ⇒ G'∘F with components α_{F(x)}
            rwhisker[(nn[a], fn[f])] = nn[n_no[(ten[i][f], ten[j][f], tuple(ac[y] for y in fo))]]
    tensor = WhiskeredBifunctor(base, obj_table, lwhisker, rwhisker)

    lunitor = {name: identity[obj_table[("Id", name)]] for name in fn}
    runitor = {name: identity[obj_table[(name, "Id")]] for name in fn}
    ids = [identity[name] for name in fn]
    associator = {(fn[f], fn[g], fn[h]): ids[ten[ten[f][g]][h]]
                  for f, g, h in itertools.product(range(len(fn)), repeat=3)}
    M = MonoidalCategory(
        base, "Id", tensor,
        lunitor, dict(lunitor), runitor, dict(runitor),
        associator, dict(associator),
        name="endofunctors",
    )
    nat_ids = {(fxs[i], fxs[j], comps): nid for nid, (i, j, comps) in zip(nn, nxs)}
    return EndofunctorMonoidal(C, M, f_names, n_ids, dict(zip(fxs, fn)), nat_ids)


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

    def unitor(field_name):
        table = doc[field_name]
        if not isinstance(table, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in table.items()):
            raise TableError(f"'{field_name}' must map object ids to morphism ids")
        return dict(table)

    assoc = ("x", "y", "z", "result")
    M = MonoidalCategory(base, unit, tensor,
                         unitor("lunitor"), unitor("lunitor_inv"),
                         unitor("runitor"), unitor("runitor_inv"),
                         _doc_rows(doc["associator"], assoc, "associator"),
                         _doc_rows(doc["associator_inv"], assoc, "associator_inv"))
    _MonoidalIndex(M)  # building the index is the validation
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
