"""End-to-end acceptance gate.

Nine scenarios, run in order.  Each prints exactly one

    PASS criterion N: <label> [<seconds>]
    FAIL criterion N: <label> [<seconds>]

line straight to the terminal (capture is suspended for the stamp), and
each has a pinned wall-clock budget: exceeding the budget fails the test
even when every assertion inside it holds.
"""

import contextlib
import dataclasses
import hashlib
import inspect
import itertools
import json
import time
from collections import Counter

import pytest

import bindcat.terms
from bindcat import (
    Ctor,
    ParamAlgebraFamily,
    Section,
    Var,
    WhiskeredBifunctor,
    adamek_initial_algebra,
    chain_category,
    check_category_laws,
    check_displayed_monoidal,
    check_functor,
    check_mendler_fixed_point,
    check_monad,
    check_monad_laws,
    check_monoidal_laws,
    check_whiskered_bifunctor,
    classical_from_whiskered,
    compose_functors,
    count_mendler_solutions,
    endofunctor_monoidal,
    enumerate_monoids,
    enumerate_terms,
    gen_mendler_iteration,
    identity_functor,
    lift_section,
    load_displayed,
    monad_to_monoid,
    monoid_to_monad,
    mu_on_morphism,
    param_initial_algebras,
    parametrized_initiality,
    parse_signature,
    run_param_demo,
    scoped_signature_functor,
    Substitution,
    total_category,
    total_monoidal,
    trivial_displayed_monoidal,
    walking_arrow,
    whiskered_from_classical,
)
from bindcat.cli import main as cli_main
from bindcat.fincat import mapping_tables_equal
from bindcat.omega import (
    check_param_initiality,
    demo_param_corpus,
    leaf,
    leftmost_leaf_family,
    node,
    powerset_family,
    tree_bifunctor,
)
from bindcat.terms import evenness_instance, nat_term

LAM = parse_signature("sig lam { app : [0, 0]; abs : [1]; }")


def _stamp(n, label, ok, elapsed, capfd):
    verdict = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"{verdict} criterion {n}: {label} [{elapsed:.1f}s]", flush=True)


@contextlib.contextmanager
def gate(n, label, budget_s, capfd):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _stamp(n, label, False, time.perf_counter() - t0, capfd)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget_s
    _stamp(n, label, ok, elapsed, capfd)
    if not ok:
        pytest.fail(f"criterion {n} took {elapsed:.1f}s, over its "
                    f"{budget_s:.0f}s budget")


# --- fault injection: substitution that forgets to lift under binders ---------


def _shift_scope(t, k):
    if isinstance(t, Var):
        return Var(t.scope + k, t.index)
    return Ctor(t.scope + k, t.name, tuple(_shift_scope(a, k) for a in t.args))


def _unweakened_lift(s, k):
    """lift_substitution that widens the substitution without weakening the
    old images: new variables map to themselves, but captured occurrences in
    the images are left pointing at the wrong binder."""
    if k == 0:
        return s
    return Substitution(s.source + k, s.target + k,
                        tuple(Var(s.target + k, i) for i in range(k))
                        + tuple(_shift_scope(img, k) for img in s.images))


# --- tensors on the walking arrow (homs have at most one element) --------------

_ORDER = {"a": 0, "b": 1}


def _unique_mor(W, x, y):
    if x == y:
        return f"id_{x}"
    assert (x, y) == ("a", "b")
    return "f"


def _tensor_from_obj(obj_fn):
    W = walking_arrow()
    return WhiskeredBifunctor(
        W,
        {(x, y): obj_fn(x, y) for x in W.objects for y in W.objects},
        {(x, g): _unique_mor(W, obj_fn(x, W.src(g)), obj_fn(x, W.tgt(g)))
         for x in W.objects for g, _, _ in W.morphisms},
        {(g, z): _unique_mor(W, obj_fn(W.src(g), z), obj_fn(W.tgt(g), z))
         for z in W.objects for g, _, _ in W.morphisms})


def _arrow_tensors():
    return {
        "min": _tensor_from_obj(lambda x, y: x if _ORDER[x] <= _ORDER[y] else y),
        "max": _tensor_from_obj(lambda x, y: x if _ORDER[x] >= _ORDER[y] else y),
        "const_a": _tensor_from_obj(lambda x, y: "a"),
        "const_b": _tensor_from_obj(lambda x, y: "b"),
        "proj_left": _tensor_from_obj(lambda x, y: x),
        "proj_right": _tensor_from_obj(lambda x, y: y),
    }


def _tables(T):
    return (T.obj_table, T.lwhisker, T.rwhisker)


# --- the nine criteria ----------------------------------------------------------


def test_criterion_1_monad_laws_for_substitution(fixtures, capfd, monkeypatch):
    with gate(1, "monad laws for capture-avoiding substitution "
                 "(depth 3, scope 2)", 60, capfd):
        code = cli_main(["laws", "--sig", str(fixtures / "lam.sig"),
                         "--depth", "3", "--scope", "2", "--json"])
        doc = json.loads(capfd.readouterr().out)
        assert code == 0
        assert doc["status"] == "pass"
        assert doc["violations"] == []
        assert doc["checks_run"] == 833_716

        # the library's own substitution, run with the broken lift
        monkeypatch.setattr(bindcat.terms, "lift_substitution", _unweakened_lift)
        rep = check_monad_laws(LAM, 3, 2)
        assert not rep.ok
        assert any(v.law == "monad-assoc" and "abs" in v.witness
                   for v in rep.violations)
        # the failing path examines every instance too: the count is the
        # arity-recurrence one, and the per-law totals are seed values
        assert rep.checks_run == 833_716
        assert Counter(v.law for v in rep.violations) == \
            {"monad-assoc": 296_337, "monad-right-unit": 59}
        # the SHA-256 of repr([(v.law, v.witness) for v in rep.violations]),
        # fed piece by piece rather than as one 40 M-character string
        digest = hashlib.sha256(b"[")
        for i, v in enumerate(rep.violations):
            digest.update(((", " if i else "") + repr((v.law, v.witness))).encode())
        digest.update(b"]")
        assert digest.hexdigest() == \
            "6f6ef7848ae9d08bb6430ff36bdb312b53f7b4c8aba7f40318e29c6c47db4d8d"


def test_criterion_2_whiskered_classical_agreement(capfd):
    with gate(2, "whiskered and classical tensor presentations agree",
              10, capfd):
        corpus = _arrow_tensors()
        corpus["endofunctors"] = \
            endofunctor_monoidal(chain_category(2)).monoidal.tensor
        for T in corpus.values():
            F = classical_from_whiskered(T)
            assert _tables(whiskered_from_classical(F)) == _tables(T)
            G = classical_from_whiskered(whiskered_from_classical(F))
            assert (G.on_obj, G.on_mor) == (F.on_obj, F.on_mor)
            assert check_whiskered_bifunctor(T).ok
            assert check_functor(F).ok

        # an endpoint-preserving sabotage fails in both presentations
        bad = _arrow_tensors()["min"]
        bad.rwhisker[("f", "a")] = "f"  # should be id_a
        assert not check_whiskered_bifunctor(bad).ok
        assert not check_functor(classical_from_whiskered(bad)).ok


def test_criterion_3_monoids_are_monads(capfd):
    with gate(3, "monoids among endofunctors are exactly the monads",
              10, capfd):
        E = endofunctor_monoidal(chain_category(2))
        monoids = enumerate_monoids(E.monoidal)
        assert sorted(m.carrier for m in monoids) == ["Id", "const_1"]
        for m in monoids:
            T = monoid_to_monad(E, m)
            assert check_monad(T).ok
            assert monad_to_monoid(E, T) == m

        # composition-as-tensor is strict: every coherence cell is an identity
        M, C = E.monoidal, E.monoidal.base
        for x in C.objects:
            assert M.lunitor[x] == C.id_of(x)
            assert M.runitor[x] == C.id_of(x)
        for key in itertools.product(C.objects, repeat=3):
            assert M.associator[key] == C.id_of(C.tgt(M.associator[key]))


def test_criterion_4_displayed_totalization(fixtures, capfd):
    with gate(4, "displayed structures totalize and project strictly",
              10, capfd):
        E = endofunctor_monoidal(chain_category(2))
        DM = trivial_displayed_monoidal(E.monoidal)
        assert check_displayed_monoidal(DM).ok

        TM = total_monoidal(DM)
        assert check_monoidal_laws(TM).ok  # pentagon and triangle included

        _, proj = total_category(DM.disp_cat)
        base_M = E.monoidal
        assert proj.obj(TM.unit) == base_M.unit
        for x, y in itertools.product(TM.base.objects, repeat=2):
            assert proj.obj(TM.tensor.obj(x, y)) == \
                base_M.tensor.obj(proj.obj(x), proj.obj(y))
        for x in TM.base.objects:
            for f, _, _ in TM.base.morphisms:
                assert proj.mor(TM.tensor.lw(x, f)) == \
                    base_M.tensor.lw(proj.obj(x), proj.mor(f))
                assert proj.mor(TM.tensor.rw(f, x)) == \
                    base_M.tensor.rw(proj.mor(f), proj.obj(x))
        for x in TM.base.objects:
            assert proj.mor(TM.lunitor[x]) == base_M.lunitor[proj.obj(x)]
            assert proj.mor(TM.runitor[x]) == base_M.runitor[proj.obj(x)]
        for key in itertools.product(TM.base.objects, repeat=3):
            assert proj.mor(TM.associator[key]) == \
                base_M.associator[tuple(proj.obj(x) for x in key)]

        D = load_displayed(fixtures / "three_objects.json")
        total, proj3 = total_category(D)
        assert len(total.objects) == 3
        assert len(total.morphisms) == 4
        assert check_category_laws(total).ok
        assert check_functor(proj3).ok

        base = E.monoidal.base
        s = Section(DM.disp_cat,
                    {x: f"{x}^" for x in base.objects},
                    {f: f"{f}^" for f, _, _ in base.morphisms})
        assert mapping_tables_equal(compose_functors(proj, lift_section(s)),
                                    identity_functor(base))


def test_criterion_5_staged_construction_matches_enumeration(capfd):
    with gate(5, "iterated-stage construction matches direct term "
                 "enumeration", 30, capfd):
        F = scoped_signature_functor(LAM, max_scope=2, depth_budget=3)
        alg = adamek_initial_algebra(F)
        for d in (1, 2, 3):
            level = alg.carrier.level(d)
            for scope in (0, 1, 2):
                assert [t for t in level if t.scope == scope] == \
                    enumerate_terms(LAM, scope, d)
        assert [t for t in alg.carrier.level(2) if t.scope == 0] == \
            [Ctor(0, "abs", (Var(1, 0),))]


def test_criterion_6_mendler_evenness(capfd):
    with gate(6, "Mendler-style iteration computes evenness uniquely",
              10, capfd):
        F, alg, L, X, psi = evenness_instance(6)
        h = gen_mendler_iteration(F, alg, L, X, psi, 6)
        assert check_mendler_fixed_point(F, alg, L, X, psi, h, 6).ok
        assert h[nat_term(3)] is False
        assert h[nat_term(4)] is True

        F4, alg4, L4, X4, psi4 = evenness_instance(4)
        assert count_mendler_solutions(F4, alg4, L4, X4, psi4, 4) == 1


def test_criterion_7_parameterized_folds(capfd):
    with gate(7, "parameterized folds: existence, naturality, uniqueness",
              60, capfd):
        rep = run_param_demo(depth=3)
        assert rep.ok
        assert rep.checks_run == 1621

        cat, carriers, mor_maps = demo_param_corpus()
        assert len(cat.objects) == 3
        PB = tree_bifunctor(cat, carriers, mor_maps)
        mu = param_initial_algebras(PB)
        fam = leftmost_leaf_family(cat, carriers, mor_maps)
        h = parametrized_initiality(PB, mu, fam, 3)
        assert h["zc"][node(node(leaf(2), leaf(5)), leaf(9))] == 2


def test_criterion_8_no_cocontinuity_witness_needed(capfd):
    with gate(8, "powerset folds need no cocontinuity witness", 10, capfd):
        cat, carriers, mor_maps = demo_param_corpus()
        PB = tree_bifunctor(cat, carriers, mor_maps)
        mu = param_initial_algebras(PB)
        fam = powerset_family(cat, carriers, mor_maps)
        h = parametrized_initiality(PB, mu, fam, 3)
        assert h["zc"][node(node(leaf(2), leaf(5)), leaf(9))] == \
            frozenset({2, 5, 9})
        assert check_param_initiality(PB, mu, fam, 2).ok

        # nothing on this code path accepts extra structure on the
        # parameter functor
        forbidden = ("cocontinu", "colimit", "cocomplete")
        for field in dataclasses.fields(ParamAlgebraFamily):
            assert not any(w in field.name.lower() for w in forbidden)
        for fn in (parametrized_initiality, mu_on_morphism,
                   param_initial_algebras, check_param_initiality,
                   gen_mendler_iteration):
            for p in inspect.signature(fn).parameters:
                assert not any(w in p.lower() for w in forbidden)


def test_criterion_9_exit_codes(fixtures, capfd):
    with gate(9, "violations and malformed input map to exit codes",
              10, capfd):
        expected = [
            ("check-monoidal", "broken_pentagon.json", "pentagon"),
            ("check-cat", "broken_unit.json", "unit-left"),
            ("check-displayed", "displayed_missing_comp.json",
             "disp-comp-totality"),
        ]
        for cmd, fname, law in expected:
            code = cli_main([cmd, str(fixtures / fname), "--json"])
            doc = json.loads(capfd.readouterr().out)
            assert code == 1
            assert law in {v["law"] for v in doc["violations"]}

        for fname in ("malformed.json", "unknown_field.json"):
            assert cli_main(["check-cat", str(fixtures / fname)]) == 2
            capfd.readouterr()
