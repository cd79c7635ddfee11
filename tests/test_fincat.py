"""Table-driven finite categories: construction, laws, documents."""

import dataclasses
import json

import pytest

from bindcat import (
    FinCategory,
    FinFunctor,
    FinNatTrans,
    TableError,
    chain_category,
    check_category_laws,
    check_functor,
    check_nat_trans,
    compose_functors,
    constant_functor,
    discrete_category,
    from_doc,
    hom_enumerate,
    identity_functor,
    identity_nat_trans,
    product_category,
    terminal_category,
    to_doc,
    walking_arrow,
)

# --- the walking arrow, exhaustively ------------------------------------------

def test_walking_arrow_shape():
    W = walking_arrow()
    assert W.objects == ("a", "b")
    assert sorted(m for m, _, _ in W.morphisms) == ["f", "id_a", "id_b"]
    assert W.src("f") == "a" and W.tgt("f") == "b"
    assert W.compose("id_b", "f") == "f"
    assert W.compose("f", "id_a") == "f"


def test_walking_arrow_is_lawful():
    rep = check_category_laws(walking_arrow())
    assert rep.ok
    assert rep.checks_run == 25


def test_compose_rejects_mismatched_endpoints():
    W = walking_arrow()
    with pytest.raises(TableError):
        W.compose("f", "f")


def test_compose_rejects_unknown_morphism():
    W = walking_arrow()
    with pytest.raises(TableError):
        W.compose("id_a", "nope")


def test_hom_enumerate():
    W = walking_arrow()
    assert hom_enumerate(W, "a", "b") == ["f"]
    assert hom_enumerate(W, "b", "a") == []
    assert hom_enumerate(W, "a", "a") == ["id_a"]


# --- small constructions --------------------------------------------------------

def test_terminal_category():
    T = terminal_category()
    assert len(T.objects) == 1
    assert check_category_laws(T).ok


def test_chain_category_two():
    C = chain_category(2)
    assert C.objects == ("0", "1")
    assert sorted(m for m, _, _ in C.morphisms) == ["id_0", "id_1", "le_0_1"]
    assert C.compose("le_0_1", "id_0") == "le_0_1"
    assert check_category_laws(C).ok


def test_chain_category_three_composites():
    C = chain_category(3)
    assert C.compose("le_1_2", "le_0_1") == "le_0_2"
    assert check_category_laws(C).ok


def test_discrete_category():
    C = discrete_category(["x", "y"])
    assert hom_enumerate(C, "x", "y") == []
    assert check_category_laws(C).ok


def test_product_of_walking_arrows():
    P = product_category(walking_arrow(), walking_arrow())
    assert len(P.objects) == 4
    assert len(P.morphisms) == 9
    assert check_category_laws(P).ok


# --- functors and natural transformations ---------------------------------------

def test_identity_functor_is_lawful():
    F = identity_functor(walking_arrow())
    assert check_functor(F).ok


def test_constant_functor_is_lawful():
    W = walking_arrow()
    F = constant_functor(W, W, "b")
    assert check_functor(F).ok
    assert F.obj("a") == "b" and F.mor("f") == "id_b"


def test_compose_functors_table():
    W = walking_arrow()
    F = constant_functor(W, W, "b")
    G = compose_functors(F, identity_functor(W))
    assert G.on_obj == F.on_obj and G.on_mor == F.on_mor


def test_functor_law_violation_is_reported():
    W = walking_arrow()
    F = FinFunctor(W, W, {"a": "a", "b": "b"},
                   {"id_a": "id_a", "id_b": "id_b", "f": "id_a"})
    rep = check_functor(F)
    assert not rep.ok
    assert {v.law for v in rep.violations} == {"functor-endpoints",
                                               "functor-composition"}


def test_functor_identity_law_can_fail():
    # p is idempotent, so sending id_* to p keeps composition and endpoints
    P = FinCategory(("*",), (("e", "*", "*"), ("p", "*", "*")), {"*": "e"},
                    {("e", "e"): "e", ("e", "p"): "p", ("p", "e"): "p", ("p", "p"): "p"})
    assert check_category_laws(P).ok
    rep = check_functor(FinFunctor(terminal_category(), P, {"*": "*"}, {"id_*": "p"}))
    assert rep.checks_run == 3
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("functor-identity", "image of id_* is p, expected id_*")]


@pytest.mark.parametrize("table, key, value", [("on_obj", "c", "zzz"), ("on_mor", "g", "f")])
def test_functor_image_of_an_unknown_id_is_structural(table, key, value):
    F = identity_functor(walking_arrow())
    getattr(F, table)[key] = value
    with pytest.raises(TableError, match=f"image for unknown id '{key}'"):
        check_functor(F)


def test_nat_trans_component_naming_an_unknown_morphism_is_structural():
    Id = identity_functor(walking_arrow())
    with pytest.raises(TableError, match="unknown morphism 'nope' at 'a'"):
        check_nat_trans(FinNatTrans(Id, Id, {"a": "nope", "b": "id_b"}))


def test_nat_trans_component_keyed_on_an_unknown_object_is_structural():
    Id = identity_functor(walking_arrow())
    with pytest.raises(TableError, match="unknown id 'zzz'"):
        check_nat_trans(FinNatTrans(Id, Id, {"a": "id_a", "b": "id_b", "zzz": "f"}))


def test_identity_nat_trans_is_natural():
    t = identity_nat_trans(identity_functor(walking_arrow()))
    assert check_nat_trans(t).ok


def test_non_natural_square_is_caught():
    W = walking_arrow()
    Id = identity_functor(W)
    Cb = constant_functor(W, W, "b")
    # component at a points the wrong way round for naturality at f
    t = FinNatTrans(Cb, Id, {"a": "id_b", "b": "id_b"})
    rep = check_nat_trans(t)
    assert not rep.ok
    assert any(v.law == "component-endpoints" for v in rep.violations)


# --- one smallest broken table per category law ---------------------------------

def _with_comp(C, changes, drop=()):
    comp = {k: v for k, v in C.comp.items() if k not in drop}
    comp.update(changes)
    return dataclasses.replace(C, comp=comp)


@pytest.mark.parametrize("C, checks, law, witness", [
    pytest.param(dataclasses.replace(discrete_category("ab"), identity={"a": "id_b", "b": "id_b"}),
                 12, "identity-endpoints", "id_a = id_b has endpoints b→b",
                 id="identity-endpoints"),
    pytest.param(_with_comp(walking_arrow(), {("f", "f"): "f"}),
                 27, "comp-composable", "comp entry (f after f) on a non-composable pair",
                 id="comp-composable"),
    pytest.param(_with_comp(walking_arrow(), {}, drop=[("f", "id_a")]),
                 20, "comp-totality", "composable pair (f after id_a) missing from comp table",
                 id="comp-totality"),
    # two parallel arrows, with f after id_a recorded as g
    pytest.param(FinCategory(("a", "b"),
                             (("id_a", "a", "a"), ("id_b", "b", "b"),
                              ("f", "a", "b"), ("g", "a", "b")),
                             {"a": "id_a", "b": "id_b"},
                             {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
                              ("id_b", "f"): "f", ("id_b", "g"): "g",
                              ("f", "id_a"): "g", ("g", "id_a"): "g"}),
                 36, "unit-right", "(f after id_a) = g, expected f", id="unit-right"),
])
def test_category_law_can_fail(C, checks, law, witness):
    rep = check_category_laws(C)
    assert rep.checks_run == checks
    assert [(v.law, v.witness) for v in rep.violations] == [(law, witness)]


# --- JSON interchange ------------------------------------------------------------

def test_doc_roundtrip(fixtures):
    doc = json.loads((fixtures / "walking_arrow.json").read_text())
    C = from_doc(doc)
    assert to_doc(C) == doc
    assert check_category_laws(C).ok


def test_broken_unit_fixture_fails_correct_laws(fixtures):
    doc = json.loads((fixtures / "broken_unit.json").read_text())
    rep = check_category_laws(from_doc(doc))
    assert {v.law for v in rep.violations} == {"comp-endpoints", "unit-left"}


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(flavour="strawberry"),
    lambda d: d.pop("identity"),
    lambda d: d["morphisms"].append({"id": "f", "src": "a", "tgt": "b"}),
    lambda d: d["comp"].append({"after": "f", "first": "id_a", "result": "f"}),
    lambda d: d["morphisms"].append({"id": "g", "from": "a", "tgt": "b"}),
])
def test_from_doc_rejects_malformed(fixtures, mangle):
    doc = json.loads((fixtures / "walking_arrow.json").read_text())
    mangle(doc)
    with pytest.raises(TableError):
        from_doc(doc)


@pytest.mark.parametrize("table, mangle", [
    pytest.param("identity table", lambda d: d["identity"].update(c="id_a"), id="identity-key"),
    pytest.param("identity table", lambda d: d["identity"].update(b="nope"), id="identity-value"),
    pytest.param("morphism table",
                 lambda d: d["morphisms"].append({"id": "g", "src": "a", "tgt": "c"}),
                 id="morphism-target"),
    pytest.param("comp table",
                 lambda d: d["comp"].append({"after": "f", "first": "nope", "result": "f"}),
                 id="comp-key"),
])
def test_from_doc_names_the_table_with_an_unknown_id(fixtures, table, mangle):
    doc = json.loads((fixtures / "walking_arrow.json").read_text())
    mangle(doc)
    with pytest.raises(TableError, match=f"^{table} names unknown id"):
        from_doc(doc)


def test_from_doc_names_a_missing_identity(fixtures):
    doc = json.loads((fixtures / "walking_arrow.json").read_text())
    del doc["identity"]["b"]
    with pytest.raises(TableError, match="^identity table has no entry for 'b'$"):
        from_doc(doc)


def test_from_doc_rejects_non_object():
    with pytest.raises(TableError):
        from_doc(["not", "a", "table"])


def test_duplicate_object_rejected():
    with pytest.raises(TableError):
        FinCategory(("a", "a"), (("id_a", "a", "a"),), {"a": "id_a"},
                    {("id_a", "id_a"): "id_a"})
