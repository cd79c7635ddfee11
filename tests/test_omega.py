"""Chains of sets, initial algebras, Mendler-style iteration, and the
parametrized variant on leaf-labelled trees."""

import copy
import dataclasses
import gc
import hashlib
import itertools
import os
import pickle
import tracemalloc
import weakref

import pytest

import bindcat.omega
import bindcat.report
import bindcat.terms
from bindcat import (
    ChainError,
    EnumEndofunctor,
    EnumSetObj,
    FinCategory,
    FinFunctor,
    IterationError,
    NaturalityError,
    ParamAlgebraFamily,
    ParamBifunctor,
    adamek_initial_algebra,
    chain_category,
    check_functor,
    check_initial_algebra,
    check_initiality,
    check_mendler_fixed_point,
    check_poset_initiality,
    constant_functor,
    count_mendler_solutions,
    gen_mendler_iteration,
    identity_functor,
    mu_on_morphism,
    parametrized_initiality,
    poset_initial_algebra,
    run_evenness_demo,
    run_param_demo,
    terminal_category,
    walking_arrow,
)
from bindcat.omega import (
    OmegaChain,
    _trees,
    _mu_actions,
    _param_initiality_report,
    check_endofunctor_laws,
    check_param_bifunctor,
    check_param_initiality,
    const_enum_set,
    constant_endofunctor,
    count_param_solutions,
    demo_param_corpus,
    empty_enum_set,
    identity_endofunctor,
    leaf,
    leftmost_leaf_family,
    node,
    param_initial_algebras,
    powerset_family,
    tree_bifunctor,
    truncate,
)
from bindcat.terms import evenness_instance, nat_term


def tally(rep) -> dict:
    out = {}
    for v in rep.violations:
        out[v.law] = out.get(v.law, 0) + 1
    return out


def brute_force_count(dom: list, targets: list, holds) -> int:
    """Every map dom → targets, tried one at a time: how many satisfy
    ``holds``."""
    return sum(bool(holds(dict(zip(dom, picks))))
               for picks in itertools.product(targets, repeat=len(dom)))


# ------------- levelled sets -------------


def test_const_enum_set():
    X = const_enum_set([1, 2])
    assert X.level(0) == [1, 2]
    assert X.level(5) == [1, 2]
    assert empty_enum_set().level(3) == []


def test_levels_reject_duplicates():
    X = EnumSetObj(lambda d: [0] * (d + 1), name="dup")
    with pytest.raises(ChainError, match="duplicates"):
        X.level(1)


def test_levels_reject_shrinking():
    X = EnumSetObj(lambda d: [] if d else [1], name="shrink")
    with pytest.raises(ChainError, match="cumulative"):
        X.level(1)


def test_non_cumulative_level_names_the_first_dropped_elements():
    X = EnumSetObj(lambda d: [3, 1] if d else [5, 4, 3, 2, 1], name="drop")
    with pytest.raises(ChainError) as err:
        X.level(1)
    assert str(err.value) == "drop: level 1 is not cumulative (drops ['2', '4', '5'])"


def test_negative_level():
    with pytest.raises(ValueError):
        const_enum_set([1]).level(-1)


def test_a_deep_level_answers_without_recursion():
    assert EnumSetObj(lambda d: [0]).level(5000) == [0]


def test_truncate_freezes():
    X = EnumSetObj(lambda d: list(range(d + 1)))
    assert truncate(X, 2).level(10) == [0, 1, 2]


# ------------- a small inductive instance: unary numerals -------------


def numeral_functor() -> EnumEndofunctor:
    """F(X) = 1 ⊎ X, with the successor wrapped as a tagged pair."""

    def apply(X: EnumSetObj) -> EnumSetObj:
        def level(d):
            out = ["zero"]
            if d > 0:
                out += [("succ", x) for x in X.level(d - 1)]
            return out
        return EnumSetObj(level, name=f"1+{X.name}")

    def apply_map(h):
        return lambda e: e if e == "zero" else ("succ", h(e[1]))

    return EnumEndofunctor("1+X", apply, apply_map, lambda d: max(d - 1, 0))


def numeral(k: int):
    e = "zero"
    for _ in range(k):
        e = ("succ", e)
    return e


def test_numeral_functor_laws():
    F = numeral_functor()
    X = const_enum_set([0, 1, 2])
    rep = check_endofunctor_laws(F, X, [lambda v: v, lambda v: min(v + 1, 2)], 3)
    assert rep.ok


def test_identity_and_constant_endofunctors():
    X = const_enum_set(["a", "b"])
    assert check_endofunctor_laws(identity_endofunctor(), X, [lambda e: e], 2).ok
    assert check_endofunctor_laws(constant_endofunctor(X), X, [lambda e: e], 2).ok


def test_a_level_shift_above_its_level_is_reported():
    # the identity, claiming that level d needs level d + 1 of its argument
    Id = identity_endofunctor()
    F = EnumEndofunctor("Id", Id.apply, Id.apply_map, lambda d: d + 1)
    rep = check_endofunctor_laws(F, const_enum_set([1, 2]), [], 1)
    assert rep.checks_run == 6
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("level-shift-bound", "level_shift(0) = 1 > 0"),
        ("level-shift-bound", "level_shift(1) = 2 > 1")]


def test_a_level_shift_below_what_a_level_reads_is_reported():
    # the numerals, claiming that every level of F(X) needs only level 0
    # of X: levels 0 and 1 read no more, levels 2 and 3 do
    F = numeral_functor()
    F = EnumEndofunctor(F.name, F.apply, F.apply_map, lambda d: 0)
    rep = check_endofunctor_laws(F, EnumSetObj(lambda d: list(range(d + 1))), [], 3)
    assert rep.checks_run == 12
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("level-shift-witness", f"level {d} of F(X) changes when X is frozen at level 0")
        for d in (2, 3)]


def test_a_map_that_forgets_the_identity_is_reported():
    # every map goes to the constant 0: composition holds, F(id) does not
    Id = identity_endofunctor()
    F = EnumEndofunctor("collapse", Id.apply, lambda h: (lambda e: 0), Id.level_shift)
    rep = check_endofunctor_laws(F, const_enum_set([0, 1]), [lambda v: 1 - v], 0)
    assert rep.checks_run == 6
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("endofunctor-identity", "F(id)(1) = 0")]


def test_a_map_that_breaks_composition_is_reported():
    # F(h) = h∘h keeps identities but not composites: with f constant 1
    # and g swapping 0 and 1, F(g∘f) is constant 0 and F(g)∘F(f) constant 1
    Id = identity_endofunctor()
    F = EnumEndofunctor("square", Id.apply, lambda h: (lambda e: h(h(e))), Id.level_shift)
    rep = check_endofunctor_laws(F, const_enum_set([0, 1]),
                                 [lambda v: 1, lambda v: 1 - v], 0)
    assert rep.checks_run == 12
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("endofunctor-composition", f"F(g∘f)({e}) = 0 but F(g)(F(f)({e})) = 1")
        for e in (0, 1)]


def test_chain_stages():
    chain = OmegaChain(numeral_functor())
    assert chain.stage(0).level(5) == []
    assert chain.stage(1).level(5) == ["zero"]
    assert set(chain.stage(3).level(5)) == {numeral(0), numeral(1), numeral(2)}
    assert not chain.stable_at(2, 3)
    assert chain.stable_at(4, 3)


def test_stability_answers_do_not_depend_on_the_order_asked():
    forward, backward = OmegaChain(numeral_functor()), OmegaChain(numeral_functor())
    asked = [(4, 3), (2, 3), (2, 1), (2, 0), (4, 3), (2, 1)]
    answers = [forward.stable_at(n, d) for n, d in asked]
    assert answers == [True, False, True, True, True, True]
    assert [backward.stable_at(n, d) for n, d in reversed(asked)] == answers[::-1]


def test_stages_that_list_one_set_in_other_orders_are_stable():
    def apply(X: EnumSetObj):
        return EnumSetObj(lambda d: X.level(d)[::-1] or [1, 2])
    chain = OmegaChain(EnumEndofunctor("flip", apply, lambda h: h, lambda d: d))
    assert chain.stage(1).level(0) == [1, 2] and chain.stage(2).level(0) == [2, 1]
    assert not chain.stable_at(0, 0)
    assert chain.stable_at(1, 2)


def test_adamek_numerals():
    alg = adamek_initial_algebra(numeral_functor())
    mu = alg.carrier
    assert set(mu.level(3)) == {numeral(k) for k in range(4)}
    assert check_initial_algebra(alg, 4).ok


def test_adamek_detects_non_stabilizing_chain():
    # every application invents a fresh element at level 0
    def apply(X: EnumSetObj):
        return EnumSetObj(lambda d: X.level(d) + [len(X.level(d))])

    F = EnumEndofunctor("grow", apply, lambda h: h, lambda d: d)
    alg = adamek_initial_algebra(F)
    with pytest.raises(ChainError, match="did not stabilize"):
        alg.carrier.level(0)


def swap_functor() -> EnumEndofunctor:
    """F(X) = {("x", |X at level 0|)}: stage 1 is {("x", 0)}, stage 2
    {("x", 1)}, so the chain is not monotone."""
    def apply(X: EnumSetObj):
        base = X.level(0)
        return EnumSetObj(lambda d: [("x", len(base))])

    return EnumEndofunctor("swap", apply, lambda h: h, lambda d: 0)


def test_adamek_detects_non_monotone_chain():
    alg = adamek_initial_algebra(swap_functor())
    with pytest.raises(ChainError, match="not included"):
        alg.carrier.level(0)


def test_stability_test_rejects_a_stage_not_included_in_the_next():
    included = "chain stage 1 is not included in stage 2 at level 0"
    chain = OmegaChain(swap_functor())
    assert not chain.stable_at(0, 0)
    with pytest.raises(ChainError, match=f"^{included}$"):
        chain.stable_at(1, 0)
    # Mendler iteration builds the stage map out of stage 1, then asks
    # whether stages 1 and 2 agree
    F = swap_functor()
    with pytest.raises(ChainError, match=f"^{included}$"):
        gen_mendler_iteration(F, adamek_initial_algebra(F), identity_endofunctor(),
                              const_enum_set(["only"], "1"),
                              lambda A, h: (lambda e: "only"), 0)


def test_mendler_iteration_rejects_a_stage_that_loses_an_element():
    # stage 1 is {a} / {a, b} at levels 0 / 1 and stage 2 {a, c} / {a, c}:
    # the stages differ at level 0 already, so the stability test never
    # reaches level 1, where stage 2 has lost b
    stage1, stage2 = {0: ["a"], 1: ["a", "b"]}, {0: ["a", "c"], 1: ["a", "c"]}

    def apply(X: EnumSetObj):
        levels = stage2 if X.level(0) else stage1
        return EnumSetObj(lambda d: levels[min(d, 1)])

    F = EnumEndofunctor("loses-b", apply, lambda h: h, lambda d: d)
    assert not OmegaChain(F).stable_at(1, 1)
    with pytest.raises(ChainError, match="^stage 2 lost element 'b'; L is not monotone$"):
        gen_mendler_iteration(F, adamek_initial_algebra(F), identity_endofunctor(),
                              const_enum_set(["only"], "1"),
                              lambda A, h: (lambda e: "only"), 1)


def test_initiality_with_brute_force():
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    parity = const_enum_set([False, True], "parity")

    def g(e):
        return True if e == "zero" else not e[1]

    rep = check_initiality(F, alg, [(parity, g)], 3)
    assert rep.ok
    assert rep.checks_run > 0


def test_initiality_forced_beyond_bound():
    # 8^7 candidate maps at level 6, far past brute force; the level-ordered
    # count still answers exactly
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    counter = const_enum_set(list(range(8)), "ctr")

    def g(e):
        return 0 if e == "zero" else min(e[1] + 1, 7)

    rep = check_initiality(F, alg, [(counter, g)], 6)
    assert rep.ok
    assert tally(rep) == {}


def parity(e):
    return True if e == "zero" else not e[1]


def swapped(alg, field: str):
    """The algebra with one structure map composed with the swap of the
    numerals 1 and 2, which share levels 2 and up."""
    swap = {numeral(1): numeral(2), numeral(2): numeral(1)}
    fn = getattr(alg, field)
    return dataclasses.replace(alg, **{field: lambda e: fn(swap.get(e, e))})


def uniqueness_count(rep, depth: int) -> int:
    """The count behind check_initiality's one uniqueness check."""
    bad = [v.witness for v in rep.violations if v.law == "initiality-uniqueness"]
    if not bad:
        return 1
    assert bad[0].endswith(f" solutions at level {depth}")
    return int(bad[0].split()[0])


def brute_force_initiality(F, alg, X, g, depth: int) -> int:
    mu = alg.carrier
    return brute_force_count(
        mu.level(depth), X.level(depth),
        lambda k: all(k.get(alg.str_map(w)) == g(F.apply_map(k.__getitem__)(w))
                      for w in F.apply(mu).level(depth)))


def test_initiality_count_agrees_with_brute_force():
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    targets = [
        (const_enum_set([False, True], "parity"), parity),
        (const_enum_set(list(range(8)), "ctr"),
         lambda e: 0 if e == "zero" else min(e[1] + 1, 7)),
        # zero lands outside the target: no solution at all
        (const_enum_set([False, True], "parity"),
         lambda e: 2 if e == "zero" else not e[1]),
    ]
    algebras = [alg, swapped(alg, "str_map"), swapped(alg, "str_inv")]
    seen = set()
    for a in algebras:
        for X, g in targets:
            for depth in range(4):
                want = brute_force_initiality(F, a, X, g, depth)
                got = uniqueness_count(check_initiality(F, a, [(X, g)], depth), depth)
                assert got == want, (depth, X.name)
                seen.add(want)
    assert seen == {0, 1}


def test_initiality_value_outside_the_target():
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    X = const_enum_set([False, True], "parity")
    rep = check_initiality(F, alg, [(X, lambda e: 2 if e == "zero" else not e[1])], 3)
    assert tally(rep) == {"initiality-existence": 1, "initiality-uniqueness": 1}
    assert rep.violations[-1].witness == "0 solutions at level 3"


def test_str_inv_that_swaps_two_elements_is_not_a_section():
    alg = swapped(adamek_initial_algebra(numeral_functor()), "str_inv")
    rep = check_initial_algebra(alg, 4)
    assert rep.checks_run == 15
    assert tally(rep) == {"str-section": 2, "str-retraction": 2}


def test_carrier_missing_an_element_of_f_mu_is_not_a_fixed_point():
    # μ without the numeral 2: F(μ) still has 2 (the successor of 1) and
    # from level 3 on lacks 3; the difference is listed sorted by repr
    alg = adamek_initial_algebra(numeral_functor())
    mu = alg.carrier
    short = dataclasses.replace(alg, carrier=EnumSetObj(
        lambda d: [e for e in mu.level(d) if e != numeral(2)], name="mu without 2"))
    rep = check_initial_algebra(short, 3)
    assert rep.checks_run == 10
    two, three = repr(repr(numeral(2))), repr(repr(numeral(3)))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("str-iso", f"level 2: F(μ) has 3 elements, μ has 2; difference [{two}]"),
        ("str-iso", f"level 3: F(μ) has 3 elements, μ has 3; difference [{two}, {three}]")]


def test_str_map_that_swaps_two_elements_breaks_the_fold_equation():
    F = numeral_functor()
    alg = swapped(adamek_initial_algebra(F), "str_map")
    X = const_enum_set([False, True], "parity")
    rep = check_initiality(F, alg, [(X, parity)], 3)
    assert rep.checks_run == 9
    # h(str(1)) = h(2) but the equation wants not h(0), and the other way
    # round; the equation for 1 then reads 1 itself and has no solution
    assert tally(rep) == {"initiality-fixed-point": 2, "initiality-uniqueness": 1}
    assert rep.violations[-1].witness == "0 solutions at level 3"


# ------------- Mendler-style iteration -------------


def test_evenness_by_iteration():
    F, alg, L, X, psi = evenness_instance(6)
    h = gen_mendler_iteration(F, alg, L, X, psi, 6)
    assert check_mendler_fixed_point(F, alg, L, X, psi, h, 6).ok
    assert h[nat_term(3)] is False
    assert h[nat_term(4)] is True


def test_fixed_point_check_reports_what_psi_reads_outside_h():
    # without zero, h misses one element of its domain, and ψ(h) at one
    # reads the missing zero
    F, alg, L, X, psi = evenness_instance(4)
    h = gen_mendler_iteration(F, alg, L, X, psi, 4)
    h.pop(nat_term(0))
    rep = check_mendler_fixed_point(F, alg, L, X, psi, h, 4)
    assert rep.checks_run == 6
    zero, one = repr(nat_term(0)), repr(nat_term(1))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("mendler-domain", f"h is undefined on {zero}"),
        ("mendler-domain", f"h is undefined on {zero}, which ψ(h)({one}) reads")]


def test_fixed_point_check_reports_a_wrong_value():
    # h(2) = False breaks the equations at 2 and at 3, which reads it
    F, alg, L, X, psi = evenness_instance(4)
    h = gen_mendler_iteration(F, alg, L, X, psi, 4)
    h[nat_term(2)] = False
    rep = check_mendler_fixed_point(F, alg, L, X, psi, h, 4)
    assert rep.checks_run == 8
    two, three = repr(nat_term(2)), repr(nat_term(3))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("mendler-fixed-point", f"h({two}) = False but ψ(h)({two}) = True"),
        ("mendler-fixed-point", f"h({three}) = False but ψ(h)({three}) = True")]


def test_evenness_unique_solution():
    F, alg, L, X, psi = evenness_instance(4)
    assert count_mendler_solutions(F, alg, L, X, psi, 4) == 1


def test_solution_count_rejects_a_forward_read():
    F, alg, L, X, psi = evenness_instance(4)

    def reads_ahead(A, h):
        step = psi(A, h)
        return lambda e: h[nat_term(1)] if e == nat_term(0) else step(e)

    with pytest.raises(ChainError, match="level_shift lies"):
        count_mendler_solutions(F, alg, L, X, reads_ahead, 4)


def self_reading(psi, at):
    """ψ with the equation at ``at`` replaced by h(at) = h(at)."""
    def bent(A, h):
        step = psi(A, h)
        return lambda e: h[e] if e == at else step(e)
    return bent


def test_evenness_count_agrees_with_brute_force():
    seen = set()
    for depth in range(7):
        F, alg, L, X, psi = evenness_instance(depth)
        dom = L.apply(alg.carrier).level(depth)
        variants = [
            psi,
            self_reading(psi, nat_term(0)),
            self_reading(psi, nat_term(depth)),
            # zero's equation has no solution: h(0) = not h(0)
            lambda A, h, psi=psi: (lambda e, step=psi(A, h):
                                   (not h[e]) if e == nat_term(0) else step(e)),
            # the top numeral lands outside the target
            lambda A, h, psi=psi, top=nat_term(depth): (
                lambda e, step=psi(A, h): "wat" if e == top else step(e)),
        ]
        for v in variants:
            def holds(k, v=v):
                step = v(alg.carrier, k)
                return all(k[e] == step(e) for e in dom)
            want = brute_force_count(dom, X.level(depth), holds)
            assert count_mendler_solutions(F, alg, L, X, v, depth) == want, depth
            seen.add(want)
    assert seen == {0, 1, 2}


def test_self_reading_zero_equation_has_two_solutions():
    F, alg, L, X, psi = evenness_instance(4)
    assert count_mendler_solutions(F, alg, L, X, self_reading(psi, nat_term(0)), 4) == 2


def test_evenness_demo_reports_a_second_solution(monkeypatch):
    real = bindcat.terms.evenness_instance

    def patched(depth):
        F, alg, L, X, psi = real(depth)
        if depth == 4:  # the uniqueness instance only
            psi = self_reading(psi, nat_term(0))
        return F, alg, L, X, psi

    monkeypatch.setattr(bindcat.terms, "evenness_instance", patched)
    rep = run_evenness_demo(6)
    assert rep.checks_run == 15
    assert [(v.law, v.witness) for v in rep.violations] == \
        [("mendler-uniqueness", "2 maps satisfy the equation at level 4")]


def test_seed_requires_empty_or_singleton():
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    L = constant_endofunctor(const_enum_set(["*"], "pt"))
    X = const_enum_set([0, 1], "2")
    with pytest.raises(IterationError, match="seed"):
        gen_mendler_iteration(F, alg, L, X, lambda A, h: h.__getitem__, 3)


def test_constant_domain_with_singleton_target():
    F = numeral_functor()
    alg = adamek_initial_algebra(F)
    L = constant_endofunctor(const_enum_set(["*"], "pt"))
    X = const_enum_set(["only"], "1")
    h = gen_mendler_iteration(F, alg, L, X, lambda A, h: (lambda e: "only"), 3)
    assert h == {"*": "only"}


def test_stage_inconsistent_psi_is_a_naturality_violation():
    F, alg, L, X, good_psi = evenness_instance(4)

    def bad_psi(A, h):
        step = good_psi(A, h)
        flip = len(A.level(1)) % 2 == 1
        return lambda e: flip if e == nat_term(0) else step(e)

    with pytest.raises(NaturalityError, match="naturality violation"):
        gen_mendler_iteration(F, alg, L, X, bad_psi, 4)


def test_value_outside_target_is_an_iteration_error():
    F, alg, L, X, _ = evenness_instance(3)
    with pytest.raises(IterationError, match="outside"):
        gen_mendler_iteration(F, alg, L, X, lambda A, h: (lambda e: "wat"), 3)


# ------------- parametrized initiality on leaf-labelled trees -------------


def test_equal_trees_are_one_object():
    assert node(leaf(1), node(leaf(2), leaf(3))) is node(leaf(1), node(leaf(2), leaf(3)))
    assert leaf(1) is not leaf(2) and node(leaf(1), leaf(2)) is not node(leaf(2), leaf(1))


def test_a_tree_prints_indexes_and_measures_as_its_tuple():
    t = node(leaf(1), leaf(2))
    assert repr(t) == "('node', ('leaf', 1), ('leaf', 2))"
    assert (t[0], t[1], t[2], t[-1]) == ("node", leaf(1), leaf(2), leaf(2))
    assert t[1][0] == "leaf" and t[1][1] == 1
    assert len(t) == 3 and len(leaf(1)) == 2
    with pytest.raises(IndexError):
        t[3]
    # equality is identity: a tree is not its tuple
    assert t != ("node", ("leaf", 1), ("leaf", 2))


def test_trees_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        leaf(1).args = ("leaf", 2)


def test_copies_and_pickles_of_a_tree_are_the_tree():
    t = node(leaf(1), node(leaf(frozenset({2})), leaf(3)))
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_interning_keeps_no_tree_alive():
    t = node(leaf(-1), node(leaf(-2), leaf(-3)))
    refs = [weakref.ref(t), weakref.ref(t[2]), weakref.ref(t[1])]
    del t
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert not [k for k in _trees if k[0] == "leaf" and k[1] in (-1, -2, -3)]


def test_building_a_carrier_checks_levels_without_sets():
    # levels are checked through dict key views: building μ at zc to level
    # 4 peaks 0.89 MB above what it holds afterwards, 4.56 MB through sets
    cat, carriers, mor_maps = demo_param_corpus()
    F = tree_bifunctor(cat, carriers, mor_maps).functor_at("zc")
    gc.collect()
    tracemalloc.start()
    try:
        mu = adamek_initial_algebra(F)
        assert len(mu.carrier.level(4)) == 21_612
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 2_000_000


@pytest.fixture(scope="module")
def corpus():
    cat, carriers, mor_maps = demo_param_corpus()
    PB = tree_bifunctor(cat, carriers, mor_maps)
    return cat, carriers, mor_maps, PB, param_initial_algebras(PB)


def test_param_bifunctor_laws(corpus):
    _, carriers, _, PB, _ = corpus
    sample = const_enum_set([leaf(v) for v in carriers["za"]], "sample")
    assert check_param_bifunctor(PB, sample, lambda e: e, 2).ok


def test_a_parameter_identity_that_moves_elements_is_reported():
    # id_* acts as the constant 0, which still composes with itself
    PB = ParamBifunctor(terminal_category(), lambda z: identity_endofunctor(),
                        lambda f: (lambda e: 0))
    rep = check_param_bifunctor(PB, const_enum_set([0, 1]), lambda e: e, 0)
    assert rep.checks_run == 6
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("param-action-identity", "F(id_*)(1) = 0")]


def test_a_parameter_action_that_breaks_composition_is_reported():
    # p is idempotent (p∘p = p) but acts by swapping 0 and 1
    P = FinCategory(("*",), (("e", "*", "*"), ("p", "*", "*")), {"*": "e"},
                    {("e", "e"): "e", ("e", "p"): "p", ("p", "e"): "p", ("p", "p"): "p"})
    PB = ParamBifunctor(P, lambda z: identity_endofunctor(),
                        lambda f: (lambda e: 1 - e) if f == "p" else (lambda e: e))
    rep = check_param_bifunctor(PB, const_enum_set([0, 1]), lambda e: e, 0)
    assert rep.checks_run == 14
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("param-action-composition", f"F(p after p)({e}) = {1 - e} but composite gives {e}")
        for e in (0, 1)]


def test_a_parameter_action_that_is_not_natural_is_reported():
    # f: a → b acts as the constant 0, which the swap of 0 and 1 does not commute with
    PB = ParamBifunctor(walking_arrow(), lambda z: identity_endofunctor(),
                        lambda f: (lambda e: 0) if f == "f" else (lambda e: e))
    rep = check_param_bifunctor(PB, const_enum_set([0, 1]), lambda e: 1 - e, 0)
    assert rep.checks_run == 18
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("param-action-interchange", f"whiskering square fails at f, {e}") for e in (0, 1)]


def test_tree_carrier_contents(corpus):
    *_, mu = corpus
    level2 = mu["za"].carrier.level(2)
    assert leaf(1) in level2
    assert node(leaf(1), leaf(2)) in level2
    assert node(node(leaf(1), leaf(1)), leaf(1)) not in level2


def test_leftmost_leaf_fold(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    fam = leftmost_leaf_family(cat, carriers, mor_maps)
    h = parametrized_initiality(PB, mu, fam, 3)
    assert h["zc"][node(node(leaf(2), leaf(5)), leaf(9))] == 2
    assert h["za"][leaf(2)] == 2


def test_powerset_fold_needs_no_extra_structure(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    fam = powerset_family(cat, carriers, mor_maps)
    h = parametrized_initiality(PB, mu, fam, 3)
    assert h["zc"][node(node(leaf(2), leaf(5)), leaf(9))] == frozenset({2, 5, 9})
    assert check_param_initiality(PB, mu, fam, 2).ok


def test_mendler_values_are_the_targets_own_elements(corpus):
    # φ builds a fresh frozenset per call; h keeps the target's own objects
    cat, carriers, mor_maps, PB, mu = corpus
    fam = powerset_family(cat, carriers, mor_maps)
    F, phi, X = PB.functor_at("zc"), fam.phi("zc"), fam.g_obj("zc")

    def psi(A, h):
        lifted = F.apply_map(h.__getitem__)
        return lambda e: phi(lifted(e))

    h = gen_mendler_iteration(F, mu["zc"], identity_endofunctor(), X, psi, 3)
    own = {id(x) for x in X.level(3)}
    assert len(h) == 147 and all(id(v) in own for v in h.values())
    act = mu_on_morphism(PB, mu, "f", 3)
    own = {id(t) for t in mu["zb"].carrier.level(3)}
    assert len(act) == 38 and all(id(t) in own for t in act.values())


def test_mu_action_relabels_leaves(corpus):
    *_, PB, mu = corpus
    act = mu_on_morphism(PB, mu, "f", 3)
    assert act[node(leaf(1), leaf(2))] == node(leaf(7), leaf(7))


def test_param_uniqueness_counts(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    fam = leftmost_leaf_family(cat, carriers, mor_maps)
    for z in cat.objects:
        assert count_param_solutions(PB, mu, fam, z, 2) == 1


def test_param_count_agrees_with_brute_force(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    covered = 0
    for fam in (leftmost_leaf_family(cat, carriers, mor_maps),
                powerset_family(cat, carriers, mor_maps)):
        for z in cat.objects:
            dom, vals = mu[z].carrier.level(2), fam.g_obj(z).level(2)
            if len(vals) ** len(dom) > 5000:
                continue
            lift, phi = PB.functor_at(z).apply_map, fam.phi(z)
            want = brute_force_count(
                dom, vals, lambda k: all(k[e] == phi(lift(k.__getitem__)(e)) for e in dom))
            assert want == 1
            assert count_param_solutions(PB, mu, fam, z, 2) == want
            covered += 1
    assert covered == 4  # all but the two families' components at zc


def test_param_count_with_a_value_outside_the_target(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    fam = leftmost_leaf_family(cat, carriers, mor_maps)
    good_phi = fam.phi

    def phi(z):
        inner = good_phi(z)
        return (lambda e: 8 if e[0] == "leaf" else inner(e)) if z == "zb" else inner

    broken = ParamAlgebraFamily(fam.g_obj, fam.g_mor, phi)
    assert [count_param_solutions(PB, mu, broken, z, 2) for z in cat.objects] == [1, 0, 1]


def test_param_uniqueness_fails_when_the_target_omits_a_component_value(corpus):
    # the components are built into the true G; the report is then handed
    # a G(zc) without 5, a value h_zc takes, so no map solves zc's system
    cat, carriers, mor_maps, PB, mu = corpus
    fam = leftmost_leaf_family(cat, carriers, mor_maps)
    hs = parametrized_initiality(PB, mu, fam, 2)

    def g_obj(z):
        return const_enum_set([2, 9], name="G(zc) without 5") if z == "zc" else fam.g_obj(z)

    broken = ParamAlgebraFamily(g_obj, fam.g_mor, fam.phi)
    rep = _param_initiality_report(PB, mu, broken, hs, _mu_actions(PB, mu, 2), 2)
    assert rep.checks_run == 57
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("param-uniqueness", "component at zc has 0 solutions at level 2")]


def test_a_component_off_its_fixed_point_is_reported(corpus):
    # h_zc moved at one tree breaks its own equation and those of the 12
    # trees that have it as left child; no square and no count reads it
    cat, carriers, mor_maps, PB, mu = corpus
    fam = leftmost_leaf_family(cat, carriers, mor_maps)
    hs = parametrized_initiality(PB, mu, fam, 3)
    moved = node(leaf(2), leaf(5))
    hs["zc"][moved] = 5
    rep = _param_initiality_report(PB, mu, fam, hs, _mu_actions(PB, mu, 3), 3)
    assert rep.checks_run == 464
    assert tally(rep) == {"param-fixed-point": 13}
    assert rep.violations[0].witness == \
        f"at zc: h(str({moved!r})) = 5 but φ(F(h)({moved!r})) = 2"


def test_non_natural_family_is_rejected(corpus):
    cat, carriers, mor_maps, PB, mu = corpus
    fam = powerset_family(cat, carriers, mor_maps)
    good_phi = fam.phi

    def phi(z):
        inner = good_phi(z)
        if z == "zc":
            return lambda e: frozenset() if e[0] == "leaf" else inner(e)
        return inner

    broken = ParamAlgebraFamily(fam.g_obj, fam.g_mor, phi)
    with pytest.raises(NaturalityError, match="not natural"):
        parametrized_initiality(PB, mu, broken, 2)


def test_run_param_demo():
    rep = run_param_demo(depth=3)
    assert rep.ok
    assert rep.checks_run == 1621


def test_run_param_demo_builds_each_mendler_map_once(monkeypatch):
    # six μ actions, one per parameter morphism, and three components
    # for each of the two families
    real = bindcat.omega.gen_mendler_iteration
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3].name)  # the target carrier's name
        return real(*args, **kwargs)

    monkeypatch.setattr(bindcat.omega, "gen_mendler_iteration", counted)
    assert run_param_demo(depth=3).checks_run == 1621
    assert len(calls) == 12
    assert sorted(calls) == sorted(["mu(F(za,-))", "mu(F(zb,-))", "mu(F(zb,-))",
                                    "mu(F(zc,-))", "mu(F(zc,-))", "mu(F(zc,-))",
                                    "G(za)", "G(zb)", "G(zc)",
                                    "P(za)", "P(zb)", "P(zc)"])


# Saboteurs of the param demo: each breaks one of its pieces through
# monkeypatch.  Every μ action goes through the public mu_on_morphism.

def _sabotage_mu(monkeypatch, change):
    """Hand every μ action h at parameter morphism f on as change(f, h)."""
    real = bindcat.omega.mu_on_morphism
    monkeypatch.setattr(bindcat.omega, "mu_on_morphism",
                        lambda PB, mu, f, depth: change(f, real(PB, mu, f, depth)))


def broken_mu_action(monkeypatch):
    # μ(g) sends every tree to leaf(2)
    _sabotage_mu(monkeypatch, lambda f, h: {t: leaf(2) for t in h} if f == "g" else h)


def mu_identity_that_moves_trees(monkeypatch):
    # μ(id_zb) sends every tree to leaf(7)
    _sabotage_mu(monkeypatch, lambda f, h: {t: leaf(7) for t in h} if f == "id_zb" else h)


def rightmost_leaf_fold(monkeypatch):
    # the rightmost-leaf family in place of the leftmost-leaf one
    real = bindcat.omega.leftmost_leaf_family

    def rightmost(param_cat, carriers, mor_maps):
        fam = real(param_cat, carriers, mor_maps)
        return ParamAlgebraFamily(fam.g_obj, fam.g_mor,
                                  lambda z: (lambda e: e[1] if e[0] == "leaf" else e[2]))

    monkeypatch.setattr(bindcat.omega, "leftmost_leaf_family", rightmost)


PAIR = node(leaf(1), leaf(2))


def wrong_relabelling(monkeypatch):
    # μ(f) sends the example pair to leaf(7)
    _sabotage_mu(monkeypatch, lambda f, h: {**h, PAIR: leaf(7)} if f == "f" else h)


def non_natural_powerset_phi(monkeypatch):
    # the powerset family's φ at zc sends every leaf to the empty set
    real = bindcat.omega.powerset_family

    def broken(param_cat, carriers, mor_maps):
        fam = real(param_cat, carriers, mor_maps)
        good_phi = fam.phi

        def phi(z):
            inner = good_phi(z)
            return (lambda e: frozenset() if e[0] == "leaf" else inner(e)) if z == "zc" else inner

        return ParamAlgebraFamily(fam.g_obj, fam.g_mor, phi)

    monkeypatch.setattr(bindcat.omega, "powerset_family", broken)


BROKEN_MU_ACTION_DIGEST = "06024537a3f382479ae294911e5376eacb63047d472d7679ed26feb97edd4274"


def digest(pairs) -> str:
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


def test_run_param_demo_with_a_broken_mu_action(monkeypatch):
    # breaking the action of g must surface in the naturality squares and
    # in μ's composition law, with the same witnesses in the same order
    broken_mu_action(monkeypatch)
    rep = run_param_demo(depth=3)
    assert rep.checks_run == 1621
    totals = {}
    for v in rep.violations:
        totals[v.law] = totals.get(v.law, 0) + 1
    assert totals == {"param-naturality": 10, "mu-composition": 38}
    assert digest([(v.law, v.witness) for v in rep.violations]) == BROKEN_MU_ACTION_DIGEST


def test_run_param_demo_with_a_mu_identity_that_moves_trees(monkeypatch):
    # this moves zb's four nodes at level 3
    mu_identity_that_moves_trees(monkeypatch)
    rep = run_param_demo(depth=3)
    assert rep.checks_run == 1621
    assert tally(rep) == {"mu-identity": 4, "mu-composition": 40}
    seven = node(leaf(7), leaf(7))
    assert rep.violations[0].witness == f"μ(id_zb)({seven!r}) = {leaf(7)!r}"


def test_run_param_demo_with_a_rightmost_leaf_fold(monkeypatch):
    # the rightmost-leaf family is just as lawful, but folds the example to 9
    rightmost_leaf_fold(monkeypatch)
    rep = run_param_demo(depth=3)
    assert rep.checks_run == 1621
    example = node(node(leaf(2), leaf(5)), leaf(9))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("leftmost-leaf-example", f"fold of {example!r} gave 9, expected 2")]


def test_run_param_demo_with_a_wrong_relabelling(monkeypatch):
    # μ(g) sends leaf(7) to leaf(9) where μ(gf) gives node(leaf(9), leaf(9))
    wrong_relabelling(monkeypatch)
    rep = run_param_demo(depth=3)
    assert rep.checks_run == 1621
    nines = node(leaf(9), leaf(9))
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("mu-composition",
         f"μ(g after f)({PAIR!r}) = {nines!r} but the composite gives {leaf(9)!r}"),
        ("mu-action-example", f"relabelling {PAIR!r} gave {leaf(7)!r}")]


# ------------- the param demo split across processes -------------
# (the split fixture is in conftest.py)


def demo_outcome(depth: int):
    """run_param_demo's checks_run and its (law, witness) pairs in order,
    or the type and message of the exception it raised."""
    try:
        rep = run_param_demo(depth)
    except Exception as exc:
        return type(exc), str(exc)
    return rep.checks_run, [(v.law, v.witness) for v in rep.violations]


@pytest.mark.parametrize("saboteur", [
    None, broken_mu_action, mu_identity_that_moves_trees, rightmost_leaf_fold,
    wrong_relabelling, non_natural_powerset_phi], ids=lambda s: s.__name__ if s else "clean")
def test_split_param_demo_reports_as_one_part(monkeypatch, split, saboteur):
    if saboteur:
        saboteur(monkeypatch)
    outcomes = []
    for workers in (1, 2, 3):
        split(workers)
        outcomes.append(demo_outcome(3))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert split.widths == [1, 2, 2]  # the demo has two parts at most
    if saboteur is non_natural_powerset_phi:
        assert outcomes[0][0] is NaturalityError
    else:
        assert outcomes[0][0] == 1621
    if saboteur is broken_mu_action:
        assert [digest(pairs) for _, pairs in outcomes] == [BROKEN_MU_ACTION_DIGEST] * 3


def test_split_param_demo_raises_the_childs_exception_as_one_part(monkeypatch, split):
    non_natural_powerset_phi(monkeypatch)
    raised = []
    for workers in (1, 2):
        split(workers)
        with pytest.raises(NaturalityError) as exc:
            run_param_demo(3)
        raised.append(str(exc.value))
    assert split.widths == [1, 2] and len(split.children) == 1
    assert raised == [
        "φ is not natural at g: φ(('leaf', 7)) transports to frozenset() "
        "one way and frozenset({9}) the other"] * 2


def test_split_param_demo_with_a_broken_parameter_action_raises_in_this_process(
        monkeypatch, split):
    # g sends leaf(7) to node(leaf(9), leaf(9)): the leftmost-leaf family
    # cannot relabel that node and μ's action at g leaves its target.
    # μ's actions are built before the families, by this process before
    # it forks, so the demo raises μ's IterationError and starts no part
    real = bindcat.omega.tree_bifunctor

    def broken(cat, carriers, mor_maps):
        PB = real(cat, carriers, mor_maps)
        nines = node(leaf(9), leaf(9))

        def act(f):
            good = PB.param_action(f)
            return (lambda e: nines if e == leaf(7) else good(e)) if f == "g" else good

        return ParamBifunctor(PB.param_cat, PB.functor_at, act)

    monkeypatch.setattr(bindcat.omega, "tree_bifunctor", broken)
    cat, carriers, mor_maps = demo_param_corpus()
    PB = broken(cat, carriers, mor_maps)
    mu = param_initial_algebras(PB)
    with pytest.raises(KeyError):
        parametrized_initiality(PB, mu, leftmost_leaf_family(cat, carriers, mor_maps), 3)
    seven, nine = node(leaf(7), leaf(7)), node(leaf(9), leaf(9))
    for workers in (1, 2):
        split(workers)
        with pytest.raises(IterationError) as exc:
            run_param_demo(3)
        assert str(exc.value) == (
            f"stage 3 sends {node(leaf(7), seven)!r} to {node(nine, node(nine, nine))!r}, "
            "outside the target truncation")
    assert split.widths == [] and split.children == []


def test_small_param_demo_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a param demo below the break-even forked")

    monkeypatch.setattr(bindcat.report, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert bindcat.report._PARAM_SPLIT_BREAK_EVEN > 190  # μ's trees at depth 3
    assert run_param_demo(3).checks_run == 1621


# ------------- poset-shaped instances -------------


def test_poset_least_fixed_point():
    C = chain_category(3)
    F = constant_functor(C, C, "1")
    mu = poset_initial_algebra(C, F)
    assert mu == "1"
    assert check_poset_initiality(C, F, mu, ["1", "2"]).ok


def test_poset_identity_functor():
    C = chain_category(3)
    F = identity_functor(C)
    assert poset_initial_algebra(C, F) == "0"
    assert check_poset_initiality(C, F, "0", list(C.objects)).ok


def chain_map(C, m: dict) -> FinFunctor:
    """The monotone map m on chain_category(3)'s objects, as a functor."""
    def arrow(i, j):
        return f"id_{i}" if i == j else f"le_{i}_{j}"
    return FinFunctor(C, C, {str(i): str(j) for i, j in m.items()},
                      {f: arrow(m[int(s)], m[int(t)]) for f, s, t in C.morphisms})


def test_poset_mu_that_is_not_a_fixed_point():
    C = chain_category(3)
    rep = check_poset_initiality(C, constant_functor(C, C, "2"), "0", [])
    assert rep.checks_run == 1
    assert [(v.law, v.witness) for v in rep.violations] == \
        [("poset-fixed-point", "F(0) = 2 is not 0")]


def test_poset_fixed_point_that_is_not_least():
    # 1 is a fixed point of the identity, but 0 lies below it
    C = chain_category(3)
    rep = check_poset_initiality(C, identity_functor(C), "1", list(C.objects))
    assert rep.checks_run == 7
    assert [(v.law, v.witness) for v in rep.violations] == \
        [("poset-initiality", "hom(1, 0) has 0 elements, expected exactly 1")]


def test_poset_target_that_carries_no_algebra():
    # F fixes 0 and sends 1 up to 2, so 1 is above μ = 0 but F(1) > 1
    C = chain_category(3)
    F = chain_map(C, {0: 0, 1: 2, 2: 2})
    assert check_functor(F).ok
    assert poset_initial_algebra(C, F) == "0"
    rep = check_poset_initiality(C, F, "0", ["1", "2"])
    assert rep.checks_run == 5
    assert [(v.law, v.witness) for v in rep.violations] == \
        [("poset-algebra", "1 carries no algebra: hom(F(1), 1) is empty")]


def test_poset_requires_initial_object():
    from bindcat import discrete_category
    C = discrete_category(["x", "y"])
    with pytest.raises(ChainError, match="initial object"):
        poset_initial_algebra(C, identity_functor(C))
