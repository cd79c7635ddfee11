"""Displayed categories, total categories, sections, displayed monoidal."""

import collections
import itertools
import json
import re

import pytest

from bindcat import (
    Section,
    TableError,
    chain_category,
    check_category_laws,
    check_displayed_category,
    check_displayed_monoidal,
    check_functor,
    check_monoidal_laws,
    compose_functors,
    endofunctor_monoidal,
    from_displayed_doc,
    from_monoidal_doc,
    identity_functor,
    lift_section,
    load_displayed,
    projection_functor,
    total_category,
    total_monoidal,
    trivial_displayed,
    trivial_displayed_monoidal,
    walking_arrow,
)
from bindcat.displayed import DisplayedCategory
from bindcat.fincat import mapping_tables_equal
from test_tables_golden import _changed


def test_three_object_example_is_lawful(fixtures):
    D = load_displayed(fixtures / "three_objects.json")
    assert check_displayed_category(D).ok


def test_three_object_example_totalizes(fixtures):
    D = load_displayed(fixtures / "three_objects.json")
    total, proj = total_category(D)
    assert len(total.objects) == 3
    assert len(total.morphisms) == 4
    assert check_category_laws(total).ok
    assert check_functor(proj).ok


def test_empty_fiber_contributes_nothing(fixtures):
    D = load_displayed(fixtures / "three_objects.json")
    total, _ = total_category(D)
    assert not any(o.endswith("c)") for o in total.objects)


def test_partial_section_is_rejected(fixtures):
    # c has an empty fiber, so no section over the whole base exists
    D = load_displayed(fixtures / "three_objects.json")
    with pytest.raises(TableError):
        lift_section(Section(D, {"a": "p", "b": "q1"},
                             {"id_a": "p_id", "id_b": "q1_id", "f": "pf"}))


def test_missing_comp_is_a_law_violation_not_structural(fixtures):
    D = load_displayed(fixtures / "displayed_missing_comp.json")
    rep = check_displayed_category(D)
    assert not rep.ok
    assert {v.law for v in rep.violations} == {"disp-comp-totality"}
    (v,) = rep.violations
    assert "q1_id" in v.witness and "pf" in v.witness


def test_displayed_doc_rejects_duplicate_ids(fixtures):
    doc = json.loads((fixtures / "three_objects.json").read_text())
    base = load_displayed(fixtures / "three_objects.json").base
    doc["fiber_obj"]["c"] = ["p"]  # reuses a displayed id
    with pytest.raises(TableError):
        from_displayed_doc(doc, base)


def test_displayed_doc_rejects_unknown_field(fixtures):
    doc = json.loads((fixtures / "three_objects.json").read_text())
    base = load_displayed(fixtures / "three_objects.json").base
    doc["extra"] = []
    with pytest.raises(TableError):
        from_displayed_doc(doc, base)


def test_displayed_doc_rejects_bad_bucket(fixtures):
    doc = json.loads((fixtures / "three_objects.json").read_text())
    base = load_displayed(fixtures / "three_objects.json").base
    doc["disp_hom"].append(
        {"over": "f", "src": "q1", "tgt": "q1", "mors": ["x"]})
    with pytest.raises(TableError):
        from_displayed_doc(doc, base)


def test_load_displayed_rejects_repeated_json_keys(fixtures, tmp_path):
    # json.loads would keep the last value of a repeated key, in either file
    doc = (fixtures / "three_objects.json").read_text()
    base = json.dumps(json.loads((fixtures / "disp_base.json").read_text()))
    (tmp_path / "disp_base.json").write_text(base)
    (tmp_path / "fiber.json").write_text(doc.replace('"c": []', '"c": [], "c": []'))
    with pytest.raises(TableError, match="repeated key 'c'"):
        load_displayed(tmp_path / "fiber.json")
    (tmp_path / "base.json").write_text(doc)
    (tmp_path / "disp_base.json").write_text(
        base.replace('"identity": {', '"identity": {"a": "id_a", '))
    with pytest.raises(TableError, match="repeated key 'a'"):
        load_displayed(tmp_path / "base.json")


def test_load_displayed_names_a_file_nested_too_deeply(fixtures, tmp_path):
    # json recurses once per level; nesting past the recursion limit is bad input
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    with pytest.raises(TableError, match=re.escape(f"{nested}: JSON nested too deeply")):
        load_displayed(nested)
    doc = json.loads((fixtures / "three_objects.json").read_text())
    (tmp_path / "fiber.json").write_text(json.dumps(dict(doc, base="nested.json")))
    with pytest.raises(TableError, match=re.escape(f"{nested}: JSON nested too deeply")):
        load_displayed(tmp_path / "fiber.json")


def test_load_displayed_names_a_malformed_base_file(fixtures, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    doc = json.loads((fixtures / "three_objects.json").read_text())
    (tmp_path / "fiber.json").write_text(json.dumps(dict(doc, base="broken.json")))
    with pytest.raises(TableError, match=re.escape(f"{broken}: Expecting property name")):
        load_displayed(tmp_path / "fiber.json")


# --- the tables are the only state ------------------------------------------------

def test_a_morphism_added_in_place_is_checked_like_a_fresh_table():
    # each call numbers the displayed ids anew, so an edited table needs no rebuild
    D = trivial_displayed(walking_arrow())
    D.disp_hom[("f", "a^", "b^")].append("f2^")
    D.disp_comp[("f2^", "id_a^")] = D.disp_comp[("id_b^", "f2^")] = "f2^"
    fresh = DisplayedCategory(D.base, dict(D.fiber_obj), dict(D.disp_hom), dict(D.disp_id),
                              dict(D.disp_comp))
    rep, want = check_displayed_category(D), check_displayed_category(fresh)
    assert (rep.ok, rep.checks_run, list(rep.violations)) \
        == (want.ok, want.checks_run, list(want.violations)) == (True, 38, [])
    assert len(total_category(D)[0].morphisms) == 4


@pytest.mark.parametrize("edit, message", [
    (lambda D: D.fiber_obj["b"].append("a^"), "displayed object id 'a^' used twice"),
    (lambda D: D.disp_hom[("id_b", "b^", "b^")].append("f^"),
     "displayed morphism id 'f^' used twice"),
], ids=["object", "morphism"])
def test_an_id_used_twice_is_rejected_by_each_call(edit, message):
    W = walking_arrow()
    tables = trivial_displayed(W)
    edit(tables)
    D = DisplayedCategory(W, tables.fiber_obj, tables.disp_hom, tables.disp_id,
                          tables.disp_comp)  # the tables are checked when a call indexes them
    for call in (check_displayed_category, total_category):
        with pytest.raises(TableError, match=re.escape(message)):
            call(D)


# --- the trivial displayed construction --------------------------------------------

def test_trivial_displayed_mirrors_base():
    W = walking_arrow()
    D = trivial_displayed(W)
    assert check_displayed_category(D).ok
    assert D.fiber("a") == ["a^"]
    total, proj = total_category(D)
    assert len(total.objects) == len(W.objects)
    assert len(total.morphisms) == len(W.morphisms)
    assert check_functor(proj).ok


def test_trivial_section_lifts_to_identity_projection():
    W = walking_arrow()
    D = trivial_displayed(W)
    s = Section(D, {x: f"{x}^" for x in W.objects},
                {f: f"{f}^" for f, _, _ in W.morphisms})
    lifted = lift_section(s)
    assert check_functor(lifted).ok
    proj = projection_functor(D)
    assert mapping_tables_equal(compose_functors(proj, lifted),
                                identity_functor(W))


# --- displayed monoidal --------------------------------------------------------------

@pytest.fixture(scope="module")
def endo_monoidal():
    return endofunctor_monoidal(chain_category(2)).monoidal


def test_trivial_displayed_monoidal_is_lawful(endo_monoidal):
    DM = trivial_displayed_monoidal(endo_monoidal)
    rep = check_displayed_monoidal(DM)
    assert rep.ok


def test_total_monoidal_passes_coherence(endo_monoidal):
    M = total_monoidal(trivial_displayed_monoidal(endo_monoidal))
    rep = check_monoidal_laws(M)
    assert rep.ok


def test_total_monoidal_names_a_missing_entry(endo_monoidal):
    DM = trivial_displayed_monoidal(endo_monoidal)
    del DM.disp_lunitor_inv["const_0^"]
    with pytest.raises(TableError,
                       match=r"disp_lunitor_inv has no entry for 'const_0\^'"):
        total_monoidal(DM)


def test_projection_is_strict_monoidal(endo_monoidal):
    DM = trivial_displayed_monoidal(endo_monoidal)
    total_M = total_monoidal(DM)
    _, proj = total_category(DM.disp_cat)
    base_M = endo_monoidal

    assert proj.obj(total_M.unit) == base_M.unit
    for x, y in itertools.product(total_M.base.objects, repeat=2):
        assert proj.obj(total_M.tensor.obj(x, y)) == \
            base_M.tensor.obj(proj.obj(x), proj.obj(y))
    for x in total_M.base.objects:
        for f, _, _ in total_M.base.morphisms:
            assert proj.mor(total_M.tensor.lw(x, f)) == \
                base_M.tensor.lw(proj.obj(x), proj.mor(f))
            assert proj.mor(total_M.tensor.rw(f, x)) == \
                base_M.tensor.rw(proj.mor(f), proj.obj(x))
    for x in total_M.base.objects:
        assert proj.mor(total_M.lunitor[x]) == base_M.lunitor[proj.obj(x)]
        assert proj.mor(total_M.runitor[x]) == base_M.runitor[proj.obj(x)]
    for key in itertools.product(total_M.base.objects, repeat=3):
        assert proj.mor(total_M.associator[key]) == \
            base_M.associator[tuple(proj.obj(x) for x in key)]


def test_displayed_monoidal_missing_whisker_is_reported(endo_monoidal):
    DM = trivial_displayed_monoidal(endo_monoidal)
    key = next(iter(DM.disp_lwhisker))
    del DM.disp_lwhisker[key]
    rep = check_displayed_monoidal(DM)
    assert not rep.ok
    assert any(v.law == "disp-lwhisker-totality" for v in rep.violations)


@pytest.mark.parametrize("table, law", [
    ("disp_lunitor_inv", "disp-lunitor-totality"),
    ("disp_runitor_inv", "disp-runitor-totality"),
    ("disp_associator_inv", "disp-associator-totality"),
])
def test_displayed_monoidal_missing_inverse_is_reported(endo_monoidal, table, law):
    DM = trivial_displayed_monoidal(endo_monoidal)
    assert check_displayed_monoidal(DM).checks_run == 412
    del getattr(DM, table)[next(iter(getattr(DM, table)))]
    rep = check_displayed_monoidal(DM)
    # one totality failure stands in for the two inverse checks it skips
    assert rep.checks_run == 411
    assert [v.law for v in rep.violations] == [law]
    assert "inverse" in rep.violations[0].witness
    assert "const_0^" in rep.violations[0].witness


def test_absent_entries_skip_the_instances_that_read_them(endo_monoidal):
    # each absent entry is one totality violation; every law instance that
    # reads it, the interchange and pentagon among them, is skipped uncounted
    DM = trivial_displayed_monoidal(endo_monoidal)
    del DM.disp_associator[next(iter(DM.disp_associator))]
    del DM.disp_lwhisker[next(iter(DM.disp_lwhisker))]
    rep = check_displayed_monoidal(DM)
    assert rep.checks_run == 386
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("disp-lwhisker-totality", "no displayed left whisker (const_0^, id_const_0^)"),
        ("disp-associator-totality",
         "no displayed associator at (const_0^, const_0^, const_0^)"),
    ]


def _starred(pentagon_witness: str) -> str:
    """A base pentagon witness with every id renamed to its trivial
    displayed id ``id^``."""
    at, sides = pentagon_witness.split(": ", 1)
    quad = at.removeprefix("at (").removesuffix(")").split(",")
    sides = (side.split(" = ") for side in sides.split(", "))
    return (f"at ({','.join(x + '^' for x in quad)}): "
            + ", ".join(f"{side} = {m}^" for side, m in sides))


def test_displayed_pentagon_agrees_with_the_base(fixtures):
    M = from_monoidal_doc(json.loads((fixtures / "broken_pentagon.json").read_text()))
    base = [v.witness for v in check_monoidal_laws(M).violations if v.law == "pentagon"]
    disp = [v.witness for v in check_displayed_monoidal(trivial_displayed_monoidal(M)).violations
            if v.law == "disp-pentagon"]
    assert disp == [_starred(w) for w in base]
    assert disp == ["at (e^,e^,e^,e^): two-step side = id_e^, three-step side = s^"]


# The unit laws, associativity, the whisker identities and composition and
# the structural isos run through one kernel each for both checkers; on a
# trivial displayed structure the displayed report of these laws is the
# base's, renamed.
_SHARED_LAWS = ("unit-left", "unit-right", "assoc", "lwhisker-identity", "rwhisker-identity",
                "lwhisker-composition", "rwhisker-composition",
                "lunitor-iso", "runitor-iso", "associator-iso")


def _unstarred(v) -> tuple[str, str]:
    """A violation of a trivial displayed structure in base notation."""
    witness = re.sub(r"disp_id\(([^()]*)\)", r"id_\1", v.witness)
    return v.law.removeprefix("disp-"), witness.replace("⊗̂", "⊗").replace("^", "")


@pytest.mark.parametrize("path, table, count", [
    ("tensor", "lwhisker", 11), ("tensor", "rwhisker", 11), ("base", "comp", 21),
    ("", "lunitor", 2), ("", "lunitor_inv", 2), ("", "runitor", 2), ("", "runitor_inv", 2),
    ("", "associator", 2), ("", "associator_inv", 2), ("base", "identity", 85),
])
def test_displayed_shared_laws_agree_with_the_base(path, table, count):
    M = endofunctor_monoidal(chain_category(3)).monoidal
    holder = getattr(M, path) if path else M
    setattr(holder, table, _changed(getattr(holder, table), [m for m, _, _ in M.base.morphisms]))
    base = [(v.law, v.witness)
            for v in check_category_laws(M.base).violations + check_monoidal_laws(M).violations
            if v.law in _SHARED_LAWS]
    disp = [_unstarred(v)
            for v in check_displayed_monoidal(trivial_displayed_monoidal(M)).violations
            if v.law.removeprefix("disp-") in _SHARED_LAWS]
    assert len(base) == count
    assert disp == base


# --- saboteurs: the smallest broken End(chain 2) input for each law -------------------
# Each pins the exact check count and violation counts, and the witness of
# the law it is there for; the unbroken inputs make 63 and 412 checks.

def _set(table, key, value):
    table[key] = value


@pytest.mark.parametrize("sabotage, checks, laws, witness", [
    (lambda D: D.disp_id.pop("Id^"), 58,
     {"disp-id-totality": 1},
     "no displayed identity for Id^ over Id"),
    # associativity skips the non-composable entry: the unbroken 63 checks and its violation
    (lambda D: _set(D.disp_comp, ("Id=>const_1^", "id_const_0^"), "const_0=>const_1^"), 64,
     {"disp-comp-composable": 1},
     "disp_comp entry (Id=>const_1^, id_const_0^) over non-composable pair "
     "(Id=>const_1, id_const_0)"),
    (lambda D: _set(D.disp_comp, ("const_0=>Id^", "id_const_0^"), "const_0=>const_1^"), 61,
     {"disp-comp-over": 1, "disp-unit-right": 1},
     "(const_0=>Id^ after disp_id(const_0^)) = const_0=>const_1^, expected const_0=>Id^"),
], ids=["id-totality", "comp-composable", "unit-right"])
def test_displayed_category_saboteur(endo_monoidal, sabotage, checks, laws, witness):
    D = trivial_displayed(endo_monoidal.base)
    sabotage(D)
    rep = check_displayed_category(D)
    assert rep.checks_run == checks
    assert collections.Counter(v.law for v in rep.violations) == laws
    assert witness in [v.witness for v in rep.violations]


@pytest.mark.parametrize("sabotage, checks, laws, witness", [
    (lambda DM: setattr(DM, "disp_unit", "const_0^"), 412,
     {"disp-unit-over": 1, "disp-lunitor-over": 2, "disp-lunitor-iso": 2,
      "disp-runitor-over": 1, "disp-runitor-iso": 1, "disp-triangle": 2},
     "displayed unit const_0^ lies over const_0, expected Id"),
    (lambda DM: DM.disp_rwhisker.pop(("id_const_0^", "const_0^")), 391,
     {"disp-rwhisker-totality": 1},
     "no displayed right whisker (id_const_0^, const_0^)"),
    (lambda DM: DM.disp_lunitor.pop("const_0^"), 407,
     {"disp-lunitor-totality": 1},
     "no displayed lunitor at const_0^"),
    (lambda DM: DM.disp_runitor.pop("const_0^"), 407,
     {"disp-runitor-totality": 1},
     "no displayed runitor at const_0^"),
    (lambda DM: DM.disp_associator.pop(("const_0^", "const_0^", "const_0^")), 401,
     {"disp-associator-totality": 1},
     "no displayed associator at (const_0^, const_0^, const_0^)"),
    # the iso checks skip a side whose identity is missing
    (lambda DM: DM.disp_cat.disp_id.pop("Id^"), 395,
     {"disp-id-totality": 1},
     "no displayed identity for Id^ over Id"),
    # associativity and the whisker-composition laws skip a non-composable entry
    (lambda DM: _set(DM.disp_cat.disp_comp, ("Id=>const_1^", "id_const_0^"),
                     "const_0=>const_1^"), 413,
     {"disp-comp-composable": 1},
     "disp_comp entry (Id=>const_1^, id_const_0^) over non-composable pair "
     "(Id=>const_1, id_const_0)"),
], ids=["unit-over", "rwhisker-totality", "lunitor-totality", "runitor-totality",
        "associator-totality", "missing-identity", "non-composable-comp"])
def test_displayed_monoidal_saboteur(endo_monoidal, sabotage, checks, laws, witness):
    DM = trivial_displayed_monoidal(endo_monoidal)
    sabotage(DM)
    rep = check_displayed_monoidal(DM)
    assert rep.checks_run == checks
    assert collections.Counter(v.law for v in rep.violations) == laws
    assert witness in [v.witness for v in rep.violations]
