"""Finite categories as explicit composition tables, plus functors and
natural transformations over them, with exhaustive law checking.

Everything here is decidable by enumeration: a law checker walks every
instance of every law and reports all failures, so an empty report means
the data passed exhaustively.

Composition is stored in classical order throughout the package:
``comp[(g, f)]`` is "g after f", defined exactly when ``tgt(f) == src(g)``.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

from .report import LawReport


class TableError(Exception):
    """Structural defect in a table: a dangling id, a missing entry, a
    duplicate, or a malformed document.  Distinct from law violations,
    which are reported through LawReport."""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` for reading table documents: a repeated key
    in a JSON object is a TableError, where ``json`` keeps the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise TableError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


@dataclass
class FinCategory:
    """A category presented by finite tables of opaque string ids.

    ``morphisms`` keeps declaration order (hom_enumerate relies on it);
    ``comp[(g, f)]`` stores the composite g after f.
    """

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]  # (id, src, tgt)
    identity: dict[str, str]
    comp: dict[tuple[str, str], str]
    _by_id: dict[str, tuple[str, str]] = field(init=False, repr=False)

    def __post_init__(self):
        by_id: dict[str, tuple[str, str]] = {}
        for mid, src, tgt in self.morphisms:
            if mid in by_id:
                raise TableError(f"duplicate morphism id {mid!r}")
            by_id[mid] = (src, tgt)
        self._by_id = by_id
        if len(set(self.objects)) != len(self.objects):
            raise TableError("duplicate object id")

    def has_mor(self, mid: str) -> bool:
        return mid in self._by_id

    def src(self, mid: str) -> str:
        return self._by_id[mid][0]

    def tgt(self, mid: str) -> str:
        return self._by_id[mid][1]

    def id_of(self, obj: str) -> str:
        try:
            return self.identity[obj]
        except KeyError:
            raise TableError(f"no identity morphism recorded for object {obj!r}") from None

    def compose(self, g: str, f: str) -> str:
        """g after f; raises TableError when the entry is absent."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise TableError(f"composite ({g!r} after {f!r}) not in table") from None


@dataclass
class FinFunctor:
    source: FinCategory
    target: FinCategory
    on_obj: dict[str, str]
    on_mor: dict[str, str]
    name: str = ""

    def obj(self, x: str) -> str:
        try:
            return self.on_obj[x]
        except KeyError:
            raise TableError(f"functor {self.name or '<anon>'} has no image for object {x!r}") from None

    def mor(self, f: str) -> str:
        try:
            return self.on_mor[f]
        except KeyError:
            raise TableError(f"functor {self.name or '<anon>'} has no image for morphism {f!r}") from None


@dataclass
class FinNatTrans:
    source: FinFunctor
    target: FinFunctor
    components: dict[str, str]
    name: str = ""

    def at(self, x: str) -> str:
        try:
            return self.components[x]
        except KeyError:
            raise TableError(f"natural transformation missing component at {x!r}") from None


def mapping_tables_equal(F: FinFunctor, G: FinFunctor) -> bool:
    """Exact equality of the object and morphism mappings."""
    return F.on_obj == G.on_obj and F.on_mor == G.on_mor


# --- law checking ----------------------------------------------------------

@contextmanager
def _indexing(what: str):
    """Turn a failed id lookup while indexing ``what`` into a TableError."""
    try:
        yield
    except KeyError as e:
        raise TableError(f"{what} names unknown id {e.args[0]!r}") from None


def _grid(table: dict, what: str, value_no: dict, *key_nos: dict) -> list:
    """``table`` as nested lists indexed by the numbers of its key's one to
    three parts, holding the number of each entry and None where there is
    no entry.  An entry whose key or value is not numbered is a TableError
    naming ``what``.

    Equal innermost rows of one grid are one list: each is replaced by the
    first equal row, so a checker may recognise a repeated row by ``id``
    (``monoidal._pentagon`` does).  A grid is therefore read-only once
    built; writing an entry would change every row that shares it.
    ``monoidal._MonoidalIndex`` builds displayed tables' grids with it,
    and a MonoidalCategory's with ``_full_grid``."""
    def empty(nos):
        return [None] * len(nos[0]) if len(nos) == 1 else [empty(nos[1:]) for _ in nos[0]]

    grid = empty(key_nos)
    with _indexing(what):
        if len(key_nos) == 1:
            (a,) = key_nos
            for x, v in table.items():
                grid[a[x]] = value_no[v]
        elif len(key_nos) == 2:
            a, b = key_nos
            for (x, y), v in table.items():
                grid[a[x]][b[y]] = value_no[v]
        else:
            a, b, c = key_nos
            for (x, y, z), v in table.items():
                grid[a[x]][b[y]][c[z]] = value_no[v]
    if len(key_nos) > 1:
        seen: dict[tuple, list] = {}
        for plane in ([grid] if len(key_nos) == 2 else grid):
            for i, row in enumerate(plane):
                plane[i] = seen.setdefault(tuple(row), row)
    return grid


def _full_grid(table: dict, what: str, value_no: dict, *key_nos: dict) -> list:
    """``_grid`` of a table with an entry at every key.  Every entry has
    found its own place, so a table short of the full size lacks a key:
    the TableError names the first."""
    grid = _grid(table, what, value_no, *key_nos)
    if len(table) != math.prod(map(len, key_nos)):
        keys = key_nos[0] if len(key_nos) == 1 else itertools.product(*key_nos)
        missing = next(k for k in keys if k not in table)
        raise TableError(f"{what} has no entry for {missing!r}")
    return grid


class _CatIndex:
    """Integer view of a category, built by one checker call and dropped
    when it returns (callers change tables between checks).  Building it
    is the category's validation: a dangling id or a missing identity is
    a TableError.

    Objects and morphisms are numbered in declaration order.  ``comp[g]``
    maps f to g after f, ``comp_items`` lists (g, f, g after f) in table
    order, and ``into[y]`` lists the morphisms with target y.
    """

    __slots__ = ("objects", "mors", "obj_no", "mor_no", "src", "tgt", "ident",
                 "comp", "comp_items", "into")

    def __init__(self, C: FinCategory):
        self.objects = C.objects
        self.mors = [m for m, _, _ in C.morphisms]
        self.obj_no = obj_no = {x: i for i, x in enumerate(C.objects)}
        self.mor_no = mor_no = {m: i for i, m in enumerate(self.mors)}
        with _indexing("morphism table"):
            self.src = [obj_no[s] for _, s, _ in C.morphisms]
            self.tgt = [obj_no[t] for _, _, t in C.morphisms]
        self.ident = _full_grid(C.identity, "identity table", mor_no, obj_no)
        self.comp, self.comp_items = _comp_index(C.comp, "comp table", mor_no)
        self.into = [[] for _ in C.objects]
        for f, y in enumerate(self.tgt):
            self.into[y].append(f)

    def name(self, m) -> str:
        """Render a morphism number; an absent composite renders as None."""
        return "None" if m is None else self.mors[m]


def _comp_index(table: dict, what: str, mor_no: dict) -> tuple[list, list]:
    """``comp[g]`` mapping f to g after f, and ``comp_items`` listing (g, f,
    g after f) in table order; an unknown id is a TableError naming ``what``."""
    comp, items = [{} for _ in mor_no], []
    with _indexing(what):
        for (g, f), h in table.items():
            g, f, h = mor_no[g], mor_no[f], mor_no[h]
            comp[g][f] = h
            items.append((g, f, h))
    return comp, items


def check_category_laws(C: FinCategory) -> LawReport:
    """Exhaustive check of every category law instance.

    Raises TableError on dangling ids; law failures land in the report.
    The loops run over an integer index that lives for this call only,
    and a witness is rendered only for an instance that fails.
    """
    ix = _CatIndex(C)
    objs, mors, src, tgt, comp = ix.objects, ix.mors, ix.src, ix.tgt, ix.comp
    rep = LawReport()
    passed = 0
    for x, i in enumerate(ix.ident):
        if src[i] == x and tgt[i] == x:
            passed += 1
        else:
            rep.check(False, "identity-endpoints",
                      f"id_{objs[x]} = {mors[i]} has endpoints {objs[src[i]]}→{objs[tgt[i]]}")

    for g, f, h in ix.comp_items:
        if tgt[f] == src[g]:
            passed += 1
        else:
            rep.check(False, "comp-composable",
                      f"comp entry ({mors[g]} after {mors[f]}) on a non-composable pair")
        if src[h] == src[f] and tgt[h] == tgt[g]:
            passed += 1
        else:
            rep.check(False, "comp-endpoints",
                      f"({mors[g]} after {mors[f]}) = {mors[h]} should run "
                      f"{objs[src[f]]}→{objs[tgt[g]]}")
    for g, row in enumerate(comp):
        for f in ix.into[src[g]]:
            if f in row:
                passed += 1
            else:
                rep.check(False, "comp-totality",
                          f"composable pair ({mors[g]} after {mors[f]}) missing from comp table")

    passed += _unit_laws(rep, "", ix, "id_{}")
    passed += _assoc_law(rep, "", ix)
    rep.tally(passed)
    return rep


def _unit_laws(rep: LawReport, law: str, cx, idn: str) -> int:
    """The unit laws over a category index, at every morphism f: x→y:
    id_y ∘ f = f and f ∘ id_x = f.  An instance that reads an absent
    identity (None in a displayed table) or composite is skipped
    uncounted: the totality checks report it.  A failure is reported
    under ``law + 'unit-left'`` or ``law + 'unit-right'``, with an
    identity rendered as ``idn.format(object)``.  Returns the number of
    passes."""
    objs, mors, src, tgt, ident, comp = cx.objects, cx.mors, cx.src, cx.tgt, cx.ident, cx.comp
    passed = 0
    for f, after_f in enumerate(comp):
        i = ident[tgt[f]]
        got = None if i is None else comp[i].get(f)
        if got is not None:
            if got == f:
                passed += 1
            else:
                rep.check(False, law + "unit-left",
                          f"({idn.format(objs[tgt[f]])} after {mors[f]}) = {mors[got]}, "
                          f"expected {mors[f]}")
        i = ident[src[f]]
        got = None if i is None else after_f.get(i)
        if got is not None:
            if got == f:
                passed += 1
            else:
                rep.check(False, law + "unit-right",
                          f"({mors[f]} after {idn.format(objs[src[f]])}) = {mors[got]}, "
                          f"expected {mors[f]}")
    return passed


def _assoc_law(rep: LawReport, law: str, cx) -> int:
    """Associativity over a category index, at every comp entry (g, f, g ∘ f)
    on a composable pair, in table order, and every h out of g's target:
    h ∘ (g ∘ f) = (h ∘ g) ∘ f.  An entry on a non-composable pair is
    skipped: the composability check reports it.  An instance that reads
    an absent composite is skipped uncounted: the totality checks report
    it.  A failure is reported under ``law + 'assoc'``.  Returns the
    number of passes."""
    mors, src, tgt, comp = cx.mors, cx.src, cx.tgt, cx.comp
    out = [[] for _ in cx.objects]
    for h, y in enumerate(src):
        out[y].append(h)
    passed = 0
    for g, f, gf in cx.comp_items:
        if tgt[f] != src[g]:
            continue
        for h in out[tgt[g]]:
            after_h = comp[h]
            hg = after_h.get(g)
            if hg is None:
                continue
            left, right = after_h.get(gf), comp[hg].get(f)
            if left is None or right is None:
                continue
            if left == right:
                passed += 1
            else:
                rep.check(False, law + "assoc",
                          f"({mors[h]} after ({mors[g]} after {mors[f]})) = {mors[left]} but "
                          f"(({mors[h]} after {mors[g]}) after {mors[f]}) = {mors[right]}")
    return passed


def _map_grid(table: dict, what: str, noun: str, value_no: dict, key_no: dict) -> list:
    """``_full_grid`` of a one-key table, whose TableError names the entry
    at fault: one keyed on an unknown id, or one naming an unknown ``noun``."""
    for k, v in table.items():
        if k not in key_no:
            raise TableError(f"{what} for unknown id {k!r}")
        if v not in value_no:
            raise TableError(f"{what} names unknown {noun} {v!r} at {k!r}")
    return _full_grid(table, what, value_no, key_no)


def _functor_index(F: FinFunctor, cs: _CatIndex, ct: _CatIndex) -> tuple[tuple, tuple]:
    """``F`` as the numbers of its object images and of its morphism
    images, over the index ``cs`` of its source and ``ct`` of its target.
    Building it is the functor's validation."""
    what = f"functor {F.name or '<anon>'} image"
    return (tuple(_map_grid(F.on_obj, what, "object", ct.obj_no, cs.obj_no)),
            tuple(_map_grid(F.on_mor, what, "morphism", ct.mor_no, cs.mor_no)))


def _nat_index(t: FinNatTrans, cs: _CatIndex, ct: _CatIndex,
               index=_functor_index) -> tuple[tuple, tuple, tuple]:
    """``t`` as (source functor, target functor, component numbers) over
    the index ``cs`` of its functors' source and ``ct`` of their target.
    Building it is the transformation's validation, its functors' included;
    ``index`` builds a functor's index, or returns one the caller holds."""
    F, G = t.source, t.target
    if G.source != F.source or G.target != F.target:
        raise TableError("natural transformation between functors of different categories")
    comps = _map_grid(t.components, "natural transformation component", "morphism",
                      ct.mor_no, cs.obj_no)
    return index(F, cs, ct), index(G, cs, ct), tuple(comps)


def check_functor(F: FinFunctor) -> LawReport:
    """Endpoint, identity and composition laws of a functor, exhaustively.
    The loops run over integer indexes that live for this call only, and
    a witness is rendered only for an instance that fails."""
    cs = _CatIndex(F.source)
    ct = cs if F.target is F.source else _CatIndex(F.target)
    rep = LawReport()
    _check_functor(rep, cs, ct, _functor_index(F, cs, ct))
    return rep


def _check_functor(rep: LawReport, cs: _CatIndex, ct: _CatIndex, fx: tuple) -> None:
    fo, fm = fx
    s_objs, s_mors, src, tgt = cs.objects, cs.mors, cs.src, cs.tgt
    objs, mors, t_src, t_tgt = ct.objects, ct.mors, ct.src, ct.tgt
    for f, m in enumerate(fm):
        x, y = fo[src[f]], fo[tgt[f]]
        rep.check(t_src[m] == x and t_tgt[m] == y, "functor-endpoints", lambda: (
            f"image of {s_mors[f]}: {s_objs[src[f]]}→{s_objs[tgt[f]]} is {mors[m]}: "
            f"{objs[t_src[m]]}→{objs[t_tgt[m]]}, expected {objs[x]}→{objs[y]}"))
    for x, i in enumerate(cs.ident):
        rep.check(fm[i] == ct.ident[fo[x]], "functor-identity", lambda: (
            f"image of id_{s_objs[x]} is {mors[fm[i]]}, expected id_{objs[fo[x]]}"))
    for g, f, h in cs.comp_items:
        img = ct.comp[fm[g]].get(fm[f])
        rep.check(img == fm[h], "functor-composition", lambda: (
            f"image of ({s_mors[g]} after {s_mors[f]}) is {mors[fm[h]]}, "
            f"but ({mors[fm[g]]} after {mors[fm[f]]}) = {ct.name(img)}"))


def check_nat_trans(t: FinNatTrans) -> LawReport:
    """Component endpoints and naturality squares, exhaustively, run as
    check_functor runs its laws."""
    C, D = t.source.source, t.source.target
    cs = _CatIndex(C)
    ct = cs if D is C else _CatIndex(D)
    rep = LawReport()
    _check_nat_trans(rep, cs, ct, *_nat_index(t, cs, ct))
    return rep


def _check_nat_trans(rep: LawReport, cs: _CatIndex, ct: _CatIndex,
                     fx: tuple, gx: tuple, comps: tuple) -> None:
    (fo, fm), (go, gm) = fx, gx
    s_objs, s_mors = cs.objects, cs.mors
    objs, mors, t_src, t_tgt, comp, name = ct.objects, ct.mors, ct.src, ct.tgt, ct.comp, ct.name
    for x, c in enumerate(comps):
        rep.check(t_src[c] == fo[x] and t_tgt[c] == go[x], "component-endpoints", lambda: (
            f"component at {s_objs[x]} is {mors[c]}: {objs[t_src[c]]}→{objs[t_tgt[c]]}, "
            f"expected {objs[fo[x]]}→{objs[go[x]]}"))
    for f, (x, y) in enumerate(zip(cs.src, cs.tgt)):
        left, right = comp[comps[y]].get(fm[f]), comp[gm[f]].get(comps[x])
        rep.check(left is not None and left == right, "naturality", lambda: (
            f"square at {s_mors[f]}: {s_objs[x]}→{s_objs[y]}: ({mors[comps[y]]} after "
            f"{mors[fm[f]]}) = {name(left)} but ({mors[gm[f]]} after {mors[comps[x]]}) = "
            f"{name(right)}"))


# --- constructions ---------------------------------------------------------

def pair_obj(x: str, y: str) -> str:
    return f"({x},{y})"


def pair_mor(f: str, g: str) -> str:
    return f"({f},{g})"


def product_category(C: FinCategory, D: FinCategory) -> FinCategory:
    """Product category with pairwise tables; ids are rendered pairs."""
    objects = tuple(pair_obj(x, y) for x in C.objects for y in D.objects)
    morphisms = tuple(
        (pair_mor(f, g), pair_obj(fx, gx), pair_obj(fy, gy))
        for f, fx, fy in C.morphisms
        for g, gx, gy in D.morphisms
    )
    identity = {
        pair_obj(x, y): pair_mor(C.identity[x], D.identity[y])
        for x in C.objects
        for y in D.objects
    }
    comp = {
        (pair_mor(g1, g2), pair_mor(f1, f2)): pair_mor(h1, h2)
        for (g1, f1), h1 in C.comp.items()
        for (g2, f2), h2 in D.comp.items()
    }
    return FinCategory(objects, morphisms, identity, comp)


def hom_enumerate(C: FinCategory, x: str, y: str) -> list[str]:
    """Morphisms x → y in table order."""
    if x not in C.objects:
        raise TableError(f"unknown object {x!r}")
    if y not in C.objects:
        raise TableError(f"unknown object {y!r}")
    return [m for m, s, t in C.morphisms if s == x and t == y]


def identity_functor(C: FinCategory) -> FinFunctor:
    return FinFunctor(C, C, {x: x for x in C.objects},
                      {m: m for m, _, _ in C.morphisms}, name="Id")


def constant_functor(C: FinCategory, D: FinCategory, obj: str) -> FinFunctor:
    i = D.id_of(obj)
    return FinFunctor(C, D, {x: obj for x in C.objects},
                      {m: i for m, _, _ in C.morphisms}, name=f"const_{obj}")


def compose_functors(G: FinFunctor, F: FinFunctor) -> FinFunctor:
    """G after F."""
    if F.target != G.source:
        raise TableError("functors not composable")
    return FinFunctor(
        F.source, G.target,
        {x: G.obj(F.obj(x)) for x in F.source.objects},
        {m: G.mor(F.mor(m)) for m, _, _ in F.source.morphisms},
        name=f"{G.name}∘{F.name}" if G.name and F.name else "",
    )


def identity_nat_trans(F: FinFunctor) -> FinNatTrans:
    return FinNatTrans(F, F, {x: F.target.id_of(F.obj(x)) for x in F.source.objects})


# --- ready-made small categories -------------------------------------------

def terminal_category() -> FinCategory:
    return FinCategory(("*",), (("id_*", "*", "*"),), {"*": "id_*"},
                       {("id_*", "id_*"): "id_*"})


def walking_arrow() -> FinCategory:
    """Two objects a, b and a single arrow f: a → b."""
    return FinCategory(
        ("a", "b"),
        (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")),
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
        },
    )


def chain_category(n: int) -> FinCategory:
    """The poset 0 < 1 < … < n-1 as a category with one arrow per ≤-pair."""
    if n < 1:
        raise ValueError("chain needs at least one object")
    objects = tuple(str(i) for i in range(n))

    def arrow(i: int, j: int) -> str:
        return f"id_{i}" if i == j else f"le_{i}_{j}"

    morphisms = tuple((arrow(i, j), str(i), str(j))
                      for i in range(n) for j in range(i, n))
    identity = {str(i): f"id_{i}" for i in range(n)}
    comp = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                comp[(arrow(j, k), arrow(i, j))] = arrow(i, k)
    return FinCategory(objects, morphisms, identity, comp)


def discrete_category(objects) -> FinCategory:
    objs = tuple(objects)
    return FinCategory(
        objs,
        tuple((f"id_{x}", x, x) for x in objs),
        {x: f"id_{x}" for x in objs},
        {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in objs},
    )


# --- JSON interchange -------------------------------------------------------

_DOC_FIELDS = {"objects", "morphisms", "identity", "comp"}


def from_doc(doc) -> FinCategory:
    """Build a FinCategory from the JSON document shape; structural errors
    (wrong shape, unknown fields, dangling ids) raise TableError."""
    C = _doc_category(doc)
    _CatIndex(C)  # building the index is the validation
    return C


def _doc_fields(doc, fields: set, what: str) -> None:
    """A ``what`` document must be a JSON object with exactly ``fields``."""
    if not isinstance(doc, dict):
        raise TableError(f"{what} document must be a JSON object")
    unknown = set(doc) - fields
    if unknown:
        raise TableError(f"unknown fields in {what} document: {sorted(unknown)}")
    missing = fields - set(doc)
    if missing:
        raise TableError(f"{what} document missing fields: {sorted(missing)}")


def _doc_map(doc: dict, field: str, keys: str, values: str) -> dict:
    """A document's ``field``: an object from ``keys`` to ``values``, all strings."""
    table = doc[field]
    if not isinstance(table, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in table.items()):
        raise TableError(f"'{field}' must map {keys} to {values}")
    return dict(table)


def _read_doc(path) -> object:
    """The JSON document in the file at ``path``; text that does not
    decode, a repeated key or deep nesting is a TableError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise TableError(f"{path}: JSON nested too deeply to decode") from None
        except (ValueError, TableError) as exc:
            raise TableError(f"{path}: {exc}") from None


def _doc_rows(entries, keys: tuple[str, ...], what: str) -> dict:
    """A document's array of ``what`` rows, each with exactly the string
    fields ``keys``, as a table keyed on all but the last of them."""
    if not isinstance(entries, list):
        raise TableError(f"{what} table must be an array")
    out = {}
    for row in entries:
        if not isinstance(row, dict) or set(row) != set(keys) \
                or not all(isinstance(row[k], str) for k in keys):
            raise TableError(f"bad {what} row: {row!r}")
        key = tuple(row[k] for k in keys[:-1])
        if key in out:
            raise TableError(f"duplicate {what} entry {key}")
        out[key] = row[keys[-1]]
    return out


def _doc_category(doc) -> FinCategory:
    """The category a document spells out; only its shape is checked."""
    _doc_fields(doc, _DOC_FIELDS, "category")
    objects = doc["objects"]
    if not isinstance(objects, list) or not all(isinstance(x, str) for x in objects):
        raise TableError("'objects' must be an array of strings")
    mor_rows = doc["morphisms"]
    if not isinstance(mor_rows, list):
        raise TableError("'morphisms' must be an array")
    morphisms = []
    for row in mor_rows:
        if (not isinstance(row, dict) or set(row) != {"id", "src", "tgt"}
                or not all(isinstance(row[k], str) for k in ("id", "src", "tgt"))):
            raise TableError(f"bad morphism row: {row!r}")
        morphisms.append((row["id"], row["src"], row["tgt"]))
    ident = _doc_map(doc, "identity", "object ids", "morphism ids")
    comp = _doc_rows(doc["comp"], ("after", "first", "result"), "comp")
    return FinCategory(tuple(objects), tuple(morphisms), ident, comp)


def to_doc(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in C.morphisms],
        "identity": dict(C.identity),
        "comp": [{"after": g, "first": f, "result": h} for (g, f), h in C.comp.items()],
    }
