"""Monoidal structure: whiskered tensors, coherence laws, monoid objects,
and the endofunctor instance with its monoid/monad correspondence."""

import dataclasses
import hashlib
import itertools
import json
import re
from collections import Counter

import pytest

from bindcat import (
    EnumerationOverflow,
    FinCategory,
    FinNatTrans,
    Monad,
    Monoid,
    TableError,
    WhiskeredBifunctor,
    chain_category,
    check_category_laws,
    check_functor,
    check_monad,
    check_monoid,
    check_monoidal_laws,
    check_nat_trans,
    check_whiskered_bifunctor,
    classical_from_whiskered,
    discrete_category,
    endofunctor_monoidal,
    enumerate_endofunctors,
    enumerate_monoids,
    from_monoidal_doc,
    functor_category,
    identity_functor,
    identity_nat_trans,
    monad_to_monoid,
    monoid_to_monad,
    to_doc,
    to_monoidal_doc,
    total_monoidal,
    walking_arrow,
    whiskered_from_classical,
)
from test_cocycles import categorical_group, cocycle, negation, twisted_coboundary
from test_pointed import idempotent_arrow, pointed_endofunctors

# --- tensors on the walking arrow ------------------------------------------------
#
# Hom sets in the walking arrow have at most one element, so a whiskered
# table with correct endpoints is determined by its object part alone.

ORDER = {"a": 0, "b": 1}


def _unique_mor(x, y):
    if x == y:
        return f"id_{x}"
    if (x, y) == ("a", "b"):
        return "f"
    raise AssertionError(f"no morphism {x} -> {y}")


def _tensor_from_obj(obj_fn) -> WhiskeredBifunctor:
    W = walking_arrow()
    obj_table = {(x, y): obj_fn(x, y) for x in W.objects for y in W.objects}
    lwhisker = {(x, g): _unique_mor(obj_fn(x, W.src(g)), obj_fn(x, W.tgt(g)))
                for x in W.objects for g, _, _ in W.morphisms}
    rwhisker = {(g, z): _unique_mor(obj_fn(W.src(g), z), obj_fn(W.tgt(g), z))
                for z in W.objects for g, _, _ in W.morphisms}
    return WhiskeredBifunctor(W, obj_table, lwhisker, rwhisker)


def _arrow_tensor_corpus():
    return {
        "min": _tensor_from_obj(lambda x, y: x if ORDER[x] <= ORDER[y] else y),
        "max": _tensor_from_obj(lambda x, y: x if ORDER[x] >= ORDER[y] else y),
        "const_a": _tensor_from_obj(lambda x, y: "a"),
        "const_b": _tensor_from_obj(lambda x, y: "b"),
        "proj_left": _tensor_from_obj(lambda x, y: x),
        "proj_right": _tensor_from_obj(lambda x, y: y),
    }


def _tables(T: WhiskeredBifunctor):
    return (T.obj_table, T.lwhisker, T.rwhisker)


@pytest.mark.parametrize("name", list(_arrow_tensor_corpus()))
def test_arrow_tensor_is_lawful(name):
    assert check_whiskered_bifunctor(_arrow_tensor_corpus()[name]).ok


@pytest.mark.parametrize("name", list(_arrow_tensor_corpus()))
def test_arrow_tensor_roundtrips_exactly(name):
    T = _arrow_tensor_corpus()[name]
    F = classical_from_whiskered(T)
    assert check_functor(F).ok
    assert _tables(whiskered_from_classical(F)) == _tables(T)
    G = classical_from_whiskered(whiskered_from_classical(F))
    assert (G.on_obj, G.on_mor) == (F.on_obj, F.on_mor)


def test_sabotaged_tensor_fails_both_presentations():
    T = _arrow_tensor_corpus()["min"]
    T.rwhisker[("f", "a")] = "f"  # should be id_a
    assert not check_whiskered_bifunctor(T).ok
    assert not check_functor(classical_from_whiskered(T)).ok


def test_whiskered_lawful_iff_classical_lawful_and_stable():
    # One object, one involution: every whisker table has valid endpoints,
    # so all sixteen candidates can be swept.  A table is a lawful tensor
    # exactly when its uncurried functor is lawful AND re-currying gives the
    # table back; uncurrying alone can launder a broken identity whisker
    # (the two constants cancel in the composite).
    Z = FinCategory(
        ("e",), (("id_e", "e", "e"), ("s", "e", "e")), {"e": "id_e"},
        {("id_e", "id_e"): "id_e", ("id_e", "s"): "s",
         ("s", "id_e"): "s", ("s", "s"): "id_e"})
    n_lawful = n_classical = n_stable = 0
    for li, ls, ri, rs in itertools.product(["id_e", "s"], repeat=4):
        T = WhiskeredBifunctor(Z, {("e", "e"): "e"},
                               {("e", "id_e"): li, ("e", "s"): ls},
                               {("id_e", "e"): ri, ("s", "e"): rs})
        w_ok = check_whiskered_bifunctor(T).ok
        F = classical_from_whiskered(T)
        c_ok = check_functor(F).ok
        stable = _tables(whiskered_from_classical(F)) == _tables(T)
        assert w_ok == (c_ok and stable)
        n_lawful += w_ok
        n_classical += c_ok
        n_stable += stable
    assert (n_lawful, n_classical, n_stable) == (4, 8, 4)


# --- the endofunctor instance ----------------------------------------------------

@pytest.fixture(scope="module")
def two_chain_endo():
    return endofunctor_monoidal(chain_category(2))


def test_endofunctor_instance_shape(two_chain_endo):
    E = two_chain_endo
    assert sorted(E.functors) == ["Id", "const_0", "const_1"]
    assert len(E.nats) == 6


def test_endofunctor_instance_is_lawful(two_chain_endo):
    rep = check_monoidal_laws(two_chain_endo.monoidal)
    assert rep.ok
    assert rep.checks_run == 513


def test_endofunctor_structure_is_strict(two_chain_endo):
    # tensor is functor composition, so the unitors and associator are
    # all identity transformations, componentwise
    M = two_chain_endo.monoidal
    C = M.base
    for x in C.objects:
        assert M.lunitor[x] == C.id_of(x)
        assert M.runitor[x] == C.id_of(x)
    for key in itertools.product(C.objects, repeat=3):
        assert M.associator[key] == C.id_of(C.tgt(M.associator[key]))


def test_endofunctor_tensor_roundtrips(two_chain_endo):
    T = two_chain_endo.monoidal.tensor
    F = classical_from_whiskered(T)
    assert check_functor(F).ok
    assert _tables(whiskered_from_classical(F)) == _tables(T)


def test_monoids_of_the_endofunctor_instance(two_chain_endo):
    monoids = enumerate_monoids(two_chain_endo.monoidal)
    assert sorted(m.carrier for m in monoids) == ["Id", "const_1"]


def test_monoid_monad_correspondence(two_chain_endo):
    E = two_chain_endo
    for m in enumerate_monoids(E.monoidal):
        T = monoid_to_monad(E, m)
        assert check_monad(T).ok
        assert monad_to_monoid(E, T) == m


def test_monad_components_of_identity_monoid(two_chain_endo):
    E = two_chain_endo
    (ident,) = [m for m in enumerate_monoids(E.monoidal) if m.carrier == "Id"]
    T = monoid_to_monad(E, ident)
    C = E.category
    for x in C.objects:
        assert T.unit.at(x) == C.id_of(x)
        assert T.mult.at(x) == C.id_of(x)


def test_broken_monoid_candidate_is_reported(two_chain_endo):
    M = two_chain_endo.monoidal
    bad = Monoid("const_1", "id_Id", "id_const_1")
    rep = check_monoid(M, bad)
    assert {v.law for v in rep.violations} == {"monoid-unit-endpoints"}


def test_monoid_mult_with_wrong_endpoints_is_reported(two_chain_endo):
    rep = check_monoid(two_chain_endo.monoidal, Monoid("Id", "id_Id", "Id=>const_1"))
    assert rep.checks_run == 2
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("monoid-mult-endpoints", "mult Id=>const_1: Id→const_1, expected Id→Id")]


# End(chain 2) is thin: parallel arrows are equal, so with the endpoints
# right the unit and associativity laws can only fail through the
# structure map they are compared against.
@pytest.mark.parametrize("field, key, law, witness", [
    ("lunitor", "Id", "monoid-unit-left",
     "(mult after unit⊗Id) = id_Id, expected lunitor = Id=>const_1"),
    ("runitor", "Id", "monoid-unit-right",
     "(mult after Id⊗unit) = id_Id, expected runitor = Id=>const_1"),
    ("associator", ("Id", "Id", "Id"), "monoid-assoc",
     "(mult after mult⊗Id) = id_Id but (mult after Id⊗mult after α) = const_0=>Id"),
])
def test_monoid_law_against_a_broken_structure_map(two_chain_endo, field, key, law, witness):
    M = two_chain_endo.monoidal
    bad = "const_0=>Id" if field == "associator" else "Id=>const_1"
    broken = dataclasses.replace(M, **{field: {**getattr(M, field), key: bad}})
    rep = check_monoid(broken, Monoid("Id", "id_Id", "id_Id"))
    assert rep.checks_run == 5
    assert [(v.law, v.witness) for v in rep.violations] == [(law, witness)]


def _monad(E, carrier, unit, mult):
    """A Monad on chain 2 from functor names and components at (0, 1)."""
    F, objs = E.functors, E.category.objects
    return Monad(F[carrier], FinNatTrans(F[unit[0]], F[carrier], dict(zip(objs, unit[1]))),
                 FinNatTrans(F[mult[0]], F[carrier], dict(zip(objs, mult[1]))))


@pytest.mark.parametrize("unit, mult, counts, first", [
    # the lawful const_1 monad, for reference
    (("Id", ["le_0_1", "id_1"]), ("const_1", ["id_1", "id_1"]), {}, None),
    # unit out of const_1, not the identity functor
    (("const_1", ["id_1", "id_1"]), ("const_1", ["id_1", "id_1"]),
     {"monad-unit-shape": 1},
     ("monad-unit-shape", "unit transformation does not start at the identity functor")),
    # mult out of Id, not const_1 ∘ const_1: mult_0 = le_0_1 composes with nothing
    (("Id", ["le_0_1", "id_1"]), ("Id", ["le_0_1", "id_1"]),
     {"monad-mult-shape": 1, "monad-unit-left": 1, "monad-unit-right": 1, "monad-assoc": 1},
     ("monad-mult-shape", "mult transformation does not start at the square")),
    # unit_1 = le_0_1, so mult after unit_1 is le_0_1, not id_1
    (("Id", ["le_0_1", "le_0_1"]), ("const_1", ["id_1", "id_1"]),
     {"component-endpoints": 1, "naturality": 2, "monad-unit-left": 2},
     ("monad-unit-left", "at 0: (mult after unit_1) = le_0_1, expected id_1")),
    # mult_1 = le_0_1
    (("Id", ["le_0_1", "id_1"]), ("const_1", ["id_1", "le_0_1"]),
     {"component-endpoints": 1, "naturality": 2, "monad-unit-left": 1,
      "monad-unit-right": 1, "monad-assoc": 2},
     ("monad-assoc", "at 0: (mult after mult_1) = le_0_1 but (mult after F(mult_0)) = id_1")),
])
def test_broken_monads_on_chain_2(two_chain_endo, unit, mult, counts, first):
    rep = check_monad(_monad(two_chain_endo, "const_1", unit, mult))
    assert rep.checks_run == 27
    assert Counter(v.law for v in rep.violations) == counts
    if first is not None:
        law, witness = first
        assert next(v.witness for v in rep.violations if v.law == law) == witness


def test_monad_with_a_component_naming_an_unknown_morphism_is_structural():
    Id = identity_functor(walking_arrow())
    T = Monad(Id, FinNatTrans(Id, Id, {"a": "nope", "b": "id_b"}), identity_nat_trans(Id))
    with pytest.raises(TableError, match="unknown morphism 'nope' at 'a'"):
        check_monad(T)


@pytest.mark.parametrize("table, key", [
    ("lunitor", "const_1"), ("runitor", "const_1"), ("associator", ("const_1",) * 3)])
def test_monoid_check_names_a_missing_structure_entry(two_chain_endo, table, key):
    M = two_chain_endo.monoidal
    (m,) = [m for m in enumerate_monoids(M) if m.carrier == "const_1"]
    short = {k: v for k, v in getattr(M, table).items() if k != key}
    with pytest.raises(TableError, match=f"^{table} has no entry for {re.escape(repr(key))}$"):
        check_monoid(dataclasses.replace(M, **{table: short}), m)


def test_monoid_with_unknown_ids_is_structural(two_chain_endo):
    with pytest.raises(TableError):
        check_monoid(two_chain_endo.monoidal, Monoid("Id", "nope", "id_Id"))


def test_enumeration_bound():
    with pytest.raises(EnumerationOverflow, match="^more than 2 endofunctors; raise the bound"):
        enumerate_endofunctors(chain_category(2), bound=2)


def test_enumerating_over_a_missing_identity_is_structural():
    W = walking_arrow()
    W.identity.pop("b")
    with pytest.raises(TableError, match="^identity table has no entry for 'b'$"):
        enumerate_endofunctors(W)


# --- functor categories [C, D] ------------------------------------------------------

CHAIN_PAIRS = [(2, 3, (6, 20, 50)), (3, 2, (4, 10, 20)), (3, 4, (20, 175, 980))]


def _sizes(FC) -> tuple[int, int, int]:
    return len(FC.base.objects), len(FC.base.morphisms), len(FC.base.comp)


@pytest.mark.parametrize("a, b, sizes", CHAIN_PAIRS, ids=[f"{a}-{b}" for a, b, _ in CHAIN_PAIRS])
def test_chain_functor_categories_match_the_monotone_maps(a, b, sizes, chain_functor_counts):
    FC = functor_category(chain_category(a), chain_category(b))
    assert _sizes(FC) == sizes == chain_functor_counts(a, b)
    assert check_category_laws(FC.base).ok


CATEGORIES = {f"chain {k}": lambda k=k: chain_category(k) for k in range(1, 5)}
CATEGORIES.update({"walking arrow": walking_arrow, "discrete ab": lambda: discrete_category("ab"),
                   "idempotent": idempotent_arrow})
IDEMPOTENT_PAIRS = [("idempotent", "chain 2", (3, 6, 10)), ("chain 2", "idempotent", (5, 31, 175)),
                    ("idempotent", "idempotent", (9, 87, 770))]


@pytest.mark.parametrize("c, d, sizes", IDEMPOTENT_PAIRS,
                         ids=[f"{c}-{d}" for c, d, _ in IDEMPOTENT_PAIRS])
def test_functor_categories_over_the_idempotent_base(c, d, sizes):
    C = CATEGORIES[c]()
    D = C if d == c else CATEGORIES[d]()  # the same category on the diagonal
    FC = functor_category(C, D)
    assert _sizes(FC) == sizes
    assert check_category_laws(FC.base).ok
    for F in FC.functors.values():
        assert (F.source, F.target) == (C, D) and check_functor(F).ok, F.name
    for t in FC.nats.values():
        assert check_nat_trans(t).ok, t.name


def test_the_diagonal_functor_category_is_the_endofunctor_base():
    C = idempotent_arrow()
    FC, E = functor_category(C, C), endofunctor_monoidal(C)
    assert json.dumps(to_doc(FC.base)) == json.dumps(to_doc(E.monoidal.base))
    assert (FC.functors, FC.nats) == (E.functors, E.nats)
    assert (FC._functor_names, FC._nat_ids) == (E._functor_names, E._nat_ids)


def test_only_the_diagonal_names_an_identity_functor():
    C = walking_arrow()
    D = FinCategory(C.objects, C.morphisms + (("g", "a", "b"),), dict(C.identity),
                    {**C.comp, ("g", "id_a"): "g", ("id_b", "g"): "g"})
    FC = functor_category(C, D)
    inclusion = ((0, 1), (0, 1, 2))  # the numbers of an identity, over another category
    assert list(FC.functors) == ["const_a", "F1", "F2", "const_b"]
    assert FC._functor_names[inclusion] == "F1"
    assert FC.functors["F1"].on_mor == {"id_a": "id_a", "id_b": "id_b", "f": "f"}
    assert "Id" in functor_category(C, C).functors


def test_functor_category_bounds_name_what_overflowed():
    C, D = chain_category(2), chain_category(3)
    with pytest.raises(EnumerationOverflow, match="^more than 5 functors; raise the bound"):
        functor_category(C, D, bound=5)
    with pytest.raises(EnumerationOverflow, match="^more than 6 natural transformations;"):
        functor_category(C, D, bound=6)
    with pytest.raises(EnumerationOverflow, match="^more than 2 endofunctors;"):
        functor_category(C, C, bound=2)


# the first 16 hex digits of the SHA-256 of End(C)'s monoidal document and of
# enumerate_endofunctors's (on_obj, on_mor, name) list
END_DIGESTS = {
    "chain 1": ("bd171ab926f3b3b2", "81fb2bb50646e832"),
    "chain 2": ("6020c374d2c26e10", "1afdfc91f59621be"),
    "chain 3": ("0b8a655bcb45d630", "c0be8bf54c44260f"),
    "chain 4": ("6cd82aadc3f2b643", "6a60aac437d42b36"),
    "walking arrow": ("331b24599ec55450", "c75ef07e034ffd40"),
    "discrete ab": ("518c95361c1f7234", "e7dbbb93360c8be2"),
    "idempotent": ("e26b28ec2b50d96c", "f0a2318fc9ba196d"),
}


@pytest.mark.parametrize("name", END_DIGESTS)
def test_endofunctor_tables_are_pinned(name):
    def digest(doc) -> str:
        return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
    C = CATEGORIES[name]()
    functors = [(F.on_obj, F.on_mor, F.name) for F in enumerate_endofunctors(C)]
    assert (digest(to_monoidal_doc(endofunctor_monoidal(C).monoidal)),
            digest(functors)) == END_DIGESTS[name]


# the first 16 hex digits of the SHA-256 of the monoidal document of inputs
# that are not End(C): non-strict associators, and total categories whose
# tables are keyed on pair ids
DOC_DIGESTS = {
    "Z/3, omega_1": (lambda: categorical_group(3, 3, cocycle(3, 1)), "c9cda7265cfc26a7"),
    "twisted Z/2": (lambda: categorical_group(2, 3, twisted_coboundary, negation),
                    "1f047930fcc823af"),
    "total Ptd(chain 3)": (lambda: total_monoidal(pointed_endofunctors(
        endofunctor_monoidal(chain_category(3)).monoidal)), "d114362aef46cb37"),
    "total Ptd(idempotent)": (lambda: total_monoidal(pointed_endofunctors(
        endofunctor_monoidal(idempotent_arrow()).monoidal)), "3c973b7ea88997b7"),
}


@pytest.mark.parametrize("name", DOC_DIGESTS)
def test_monoidal_documents_are_pinned_and_read_back(name):
    build, want = DOC_DIGESTS[name]
    text = json.dumps(to_monoidal_doc(build()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want
    assert json.dumps(to_monoidal_doc(from_monoidal_doc(json.loads(text)))) == text


@pytest.mark.parametrize("monoid", [Monoid("nope", "id_Id", "id_Id"),
                                    Monoid("Id", "nope", "id_Id"), Monoid("Id", "id_Id", "nope")],
                         ids=["carrier", "unit", "mult"])
def test_monoid_to_monad_rejects_an_unknown_id(two_chain_endo, monoid):
    with pytest.raises(TableError,
                       match="^monoid is not over an endofunctor monoidal category instance$"):
        monoid_to_monad(two_chain_endo, monoid)


def _closure_operators(n: int) -> set[tuple[int, ...]]:
    """Maps on 0 < 1 < ... < n-1 that are monotone, inflationary and
    idempotent, by brute force over all maps."""
    return {c for c in itertools.product(range(n), repeat=n)
            if all(c[i] <= c[j] for i in range(n) for j in range(i, n))
            and all(c[i] >= i and c[c[i]] == c[i] for i in range(n))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monoids_on_a_chain_are_its_closure_operators(n):
    # A monad on a poset is a closure operator; a chain of n elements has
    # one for every subset of its elements that contains the top, 2^(n-1).
    E = endofunctor_monoidal(chain_category(n))
    monoids = enumerate_monoids(E.monoidal)
    assert len(monoids) == 2 ** (n - 1)
    maps = []
    for m in monoids:
        on_obj = E.functors[m.carrier].on_obj
        c = tuple(int(on_obj[str(i)]) for i in range(n))
        assert all(c[i] >= i for i in range(n)), m.carrier      # inflationary
        assert all(c[c[i]] == c[i] for i in range(n)), m.carrier  # idempotent
        maps.append(c)
    assert sorted(maps) == sorted(_closure_operators(n))


# --- coherence fixtures ------------------------------------------------------------

def test_broken_pentagon_fixture(fixtures):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    rep = check_monoidal_laws(from_monoidal_doc(doc))
    assert {v.law for v in rep.violations} == {"pentagon"}
    (v,) = rep.violations
    assert "(e,e,e,e)" in v.witness


def test_monoidal_doc_roundtrip(fixtures):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    assert to_monoidal_doc(from_monoidal_doc(doc)) == doc


def test_monoidal_doc_missing_structure_is_structural(fixtures):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    doc["associator"] = []
    with pytest.raises(TableError):
        from_monoidal_doc(doc)


def test_monoidal_doc_unknown_field(fixtures):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    doc["extra"] = 1
    with pytest.raises(TableError):
        from_monoidal_doc(doc)


@pytest.mark.parametrize("field", ["associator", "associator_inv"])
def test_monoidal_doc_rejects_duplicate_associator_row(fixtures, field):
    doc = json.loads((fixtures / "broken_pentagon.json").read_text())
    doc[field].append(dict(doc[field][0]))
    with pytest.raises(TableError, match=f"duplicate {field} entry"):
        from_monoidal_doc(doc)


# An entry keyed on an id the category does not have is structural: the
# index numbers every entry by its key, so such an entry has no place.
UNKNOWN_KEYED = [
    ("lunitor", lambda d: d["lunitor"].update(nope="nope")),
    ("tensor obj table",
     lambda d: d["tensor"]["obj"].append({"left": "nope", "right": "Id", "result": "Id"})),
    ("left whisker table",
     lambda d: d["tensor"]["lwhisker"].append({"obj": "nope", "mor": "nope", "result": "nope"})),
    ("associator",
     lambda d: d["associator"].append({"x": "nope", "y": "Id", "z": "Id", "result": "id_Id"})),
]


@pytest.mark.parametrize("table, mangle", UNKNOWN_KEYED, ids=[t for t, _ in UNKNOWN_KEYED])
def test_monoidal_doc_rejects_an_entry_at_an_unknown_key(two_chain_endo, table, mangle):
    doc = to_monoidal_doc(two_chain_endo.monoidal)
    mangle(doc)
    with pytest.raises(TableError, match=f"^{table} names unknown id 'nope'$"):
        from_monoidal_doc(doc)


def test_checkers_reject_an_entry_at_an_unknown_key(two_chain_endo):
    M = two_chain_endo.monoidal
    with pytest.raises(TableError, match="^runitor_inv names unknown id 'nope'$"):
        check_monoidal_laws(dataclasses.replace(M, runitor_inv={**M.runitor_inv, "nope": "id_Id"}))
    T = M.tensor
    with pytest.raises(TableError, match="^right whisker table names unknown id 'nope'$"):
        check_whiskered_bifunctor(
            dataclasses.replace(T, rwhisker={**T.rwhisker, ("id_Id", "nope"): "id_Id"}))


def test_missing_entries_are_named(two_chain_endo):
    M = two_chain_endo.monoidal
    short = {k: v for k, v in M.associator.items() if k != ("Id", "const_1", "Id")}
    with pytest.raises(TableError,
                       match=r"^associator has no entry for \('Id', 'const_1', 'Id'\)$"):
        check_monoidal_laws(dataclasses.replace(M, associator=short))
    T = M.tensor
    short = {k: v for k, v in T.lwhisker.items() if k != ("const_0", "id_Id")}
    with pytest.raises(TableError,
                       match=r"^left whisker table has no entry for \('const_0', 'id_Id'\)$"):
        check_whiskered_bifunctor(dataclasses.replace(T, lwhisker=short))
