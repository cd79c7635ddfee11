"""Well-scoped terms over a binding signature: construction, enumeration,
substitution (weakening included), and the substitution monad laws."""

import copy
import gc
import hashlib
import itertools
import os
import pickle
import tracemalloc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import bindcat.terms
from bindcat import (
    Ctor,
    ParseError,
    ScopeError,
    Substitution,
    Var,
    check_term,
    construct,
    enumerate_terms,
    load_signature,
    parse_signature,
    parse_term,
    render_term,
    substitute,
)
from bindcat.terms import (
    binder_nesting,
    check_monad_laws,
    check_subst_via_mendler,
    compose_substitutions,
    lift_substitution,
    nat_signature,
    nat_term,
    render_substitution,
    run_evenness_demo,
    subst_via_mendler,
    substitution_pool,
    term_depth,
    unit_substitution,
    weakening,
)

LAM = parse_signature("sig lam { app : [0, 0]; abs : [1]; }")


def lam_term(scope, text):
    return parse_term(LAM, scope, text)


# ------------- construction and scope checking -------------


def test_construct_app():
    t = construct(LAM, 1, "app", Var(1, 0), Var(1, 0))
    assert t.scope == 1 and t.name == "app"
    check_term(LAM, t)


def test_construct_abs_binds_one():
    t = construct(LAM, 0, "abs", Var(1, 0))
    assert t.scope == 0
    assert t.args[0].scope == 1
    check_term(LAM, t)


def test_construct_rejects_wrong_child_scope():
    with pytest.raises(ScopeError):
        construct(LAM, 0, "abs", Var(2, 0))


def test_construct_rejects_wrong_arity():
    with pytest.raises(ValueError):
        construct(LAM, 0, "app", Var(0, 0))


def test_var_index_must_be_in_scope():
    with pytest.raises(ScopeError):
        Var(0, 0)
    with pytest.raises(ScopeError):
        Var(2, 2)


def test_check_term_rejects_foreign_child():
    bad = Ctor(0, "abs", (42,))
    with pytest.raises(ScopeError):
        check_term(LAM, bad)


def test_foreign_child_can_still_be_built():
    # the term functor's action on maps into other sets puts non-terms
    # in argument position
    assert Ctor(0, "abs", (42,)).args == (42,)
    assert Ctor(0, "abs", (42,)) == Ctor(0, "abs", (42,))


# ------------- hash-consing -------------


def test_equal_terms_are_one_object():
    built = Ctor(1, "app", (Var(1, 0), Ctor(1, "abs", (Var(2, 1),))))
    sources = [
        lam_term(1, "app(var 0, abs(var 1))"),
        next(t for t in enumerate_terms(LAM, 1, 3) if t == built),
        substitute(lam_term(2, "app(var 1, abs(var 2))"),
                   Substitution(2, 1, (Var(1, 0), Var(1, 0)))),
    ]
    for t in sources:
        assert t == built and hash(t) == hash(built) and t is built


def test_distinct_terms_differ():
    assert Var(2, 0) != Var(2, 1) != Var(3, 1)
    assert lam_term(0, "abs(var 0)") != lam_term(1, "abs(var 0)")
    assert len({*enumerate_terms(LAM, 2, 3)}) == 99


def test_terms_are_immutable():
    t = Var(1, 0)
    with pytest.raises(AttributeError):
        t.index = 0
    assert t.index == 0


def test_copies_are_the_same_term():
    t = lam_term(1, "abs(app(var 0, var 1))")
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    # repr keeps its dataclass form, which witnesses print
    assert repr(Var(1, 0)) == "Var(scope=1, index=0)"


def test_interning_keeps_no_term_alive():
    t = lam_term(3, "abs(abs(app(var 4, var 3)))")
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_scope_checks_run_when_the_table_answers(monkeypatch):
    # built while checks were off, so both are in the table ill-scoped
    monkeypatch.setattr(bindcat.terms, "CHECK_SCOPES", False)
    bad_var = Var(2, 2)
    bad_ctor = Ctor(2, "abs", (Var(1, 0),))
    monkeypatch.setattr(bindcat.terms, "CHECK_SCOPES", True)
    with pytest.raises(ScopeError):
        Var(2, 2)
    with pytest.raises(ScopeError):
        Ctor(2, "abs", (Var(1, 0),))
    assert bad_var.index == 2 and bad_ctor.scope == 2


def test_substitution_interns_through_the_scope_checked_helper(monkeypatch):
    # Ctor(...) and substitution share one intern helper, which keeps the
    # argument scope check
    with pytest.raises(ScopeError):
        bindcat.terms._ctor(2, "abs", (Var(1, 0),))
    # a lift that leaves its images in scope 0 hands abs a body of scope
    # 0 at scope 1, which the helper rejects during the substitution
    closed = lam_term(0, "abs(var 0)")
    monkeypatch.setattr(bindcat.terms, "lift_substitution",
                        lambda s, k: Substitution(s.source + k, 0, (closed,) * (s.source + k)))
    with pytest.raises(ScopeError, match="argument of abs at scope 1 has scope 0"):
        substitute(lam_term(1, "abs(var 1)"), unit_substitution(1))


def test_term_depth():
    assert term_depth(Var(1, 0)) == 0
    assert term_depth(lam_term(0, "abs(var 0)")) == 1
    assert term_depth(lam_term(0, "abs(app(var 0, var 0))")) == 2
    assert term_depth(nat_term(0)) == 0  # nullary constructor


# ------------- printing and parsing -------------


def test_render_examples():
    assert render_term(Var(3, 2)) == "var 2"
    assert render_term(lam_term(0, "abs(var 0)")) == "abs(var 0)"
    assert render_term(nat_term(2)) == "succ(succ(zero()))"


def test_parse_whitespace_insensitive():
    assert lam_term(1, "app(var 0,abs(var  1))") == \
        lam_term(1, "app( var 0 , abs( var 1 ) )")


@pytest.mark.parametrize("text,fragment", [
    ("var 1", "scope"),
    ("foo(var 0)", "unknown constructor"),
    ("app(var 0)", "','"),
    ("abs(var 0", "')'"),
    ("abs(var 0) var", "trailing input"),
    ("abs()", "expected a term"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_term(LAM, 1, text)
    assert fragment in str(exc.value)


@settings(max_examples=60)
@given(scope=st.integers(0, 2), data=st.data())
def test_render_parse_roundtrip(scope, data):
    pool = enumerate_terms(LAM, scope, 3)
    t = data.draw(st.sampled_from(pool))
    assert parse_term(LAM, scope, render_term(t)) == t


# ------------- enumeration -------------


def test_enumeration_counts():
    assert [len(enumerate_terms(LAM, n, 2)) for n in range(3)] == [1, 4, 9]
    assert [len(enumerate_terms(LAM, n, 3)) for n in range(3)] == [5, 26, 99]


def test_enumeration_smallest_closed_term():
    assert enumerate_terms(LAM, 0, 2) == [lam_term(0, "abs(var 0)")]
    assert enumerate_terms(LAM, 0, 1) == []


def test_enumeration_is_cumulative():
    small = set(enumerate_terms(LAM, 1, 2))
    assert small <= set(enumerate_terms(LAM, 1, 3))


def test_enumeration_nat():
    nat = nat_signature()
    assert [len(enumerate_terms(nat, 0, d)) for d in (1, 2, 3)] == [1, 2, 3]
    assert nat_term(2) in enumerate_terms(nat, 0, 3)


# ------------- weakening -------------


def test_weakening_is_a_variable_substitution():
    w = weakening(2, 1)
    assert isinstance(w, Substitution)
    assert w == Substitution(2, 3, (Var(3, 1), Var(3, 2)))
    assert weakening(2, 0) == unit_substitution(2)


def test_weakening_shifts_free_variables():
    t = lam_term(1, "abs(app(var 0, var 1))")
    shifted = substitute(t, weakening(1, 1))
    assert shifted == lam_term(2, "abs(app(var 0, var 2))")


def test_substitution_validation():
    with pytest.raises(ScopeError, match="needs 2 images, got 1"):
        Substitution(2, 1, (Var(1, 0),))
    with pytest.raises(ScopeError, match="not the target scope 1"):
        Substitution(1, 1, (Var(2, 1),))


# ------------- substitution -------------


def test_render_substitution():
    assert render_substitution(unit_substitution(1)) == "{0 -> var 0} : 1->1"


def test_substitute_variable():
    s = Substitution(1, 0, (lam_term(0, "abs(var 0)"),))
    assert substitute(Var(1, 0), s) == lam_term(0, "abs(var 0)")


def test_substitute_under_binder_avoids_capture():
    # the free var 1 is replaced by a closed term; the bound var 0 stays put
    t = lam_term(1, "abs(app(var 0, var 1))")
    s = Substitution(1, 0, (lam_term(0, "abs(var 0)"),))
    assert substitute(t, s) == lam_term(0, "abs(app(var 0, abs(var 0)))")


def test_lift_unit_is_unit():
    assert lift_substitution(unit_substitution(1), 1) == unit_substitution(2)


def test_lift_shifts_old_images():
    s = Substitution(1, 1, (lam_term(1, "abs(app(var 0, var 1))"),))
    lifted = lift_substitution(s, 1)
    assert lifted.images[0] == Var(2, 0)
    assert lifted.images[1] == lam_term(2, "abs(app(var 0, var 2))")


def test_substitute_scope_mismatch():
    with pytest.raises(ScopeError):
        substitute(Var(2, 0), unit_substitution(1))


def test_scope_check_runs_before_the_memo():
    # substituting abs(var 1) leaves its body var 1 at scope 2 in the memo
    memo = {}
    s = Substitution(1, 0, (lam_term(0, "abs(var 0)"),))
    lift = bindcat.terms._remembered_lifts()
    bindcat.terms._substitute(memo, lam_term(1, "abs(var 1)"), s, lift)
    assert Var(2, 1) in memo
    with pytest.raises(ScopeError):
        bindcat.terms._substitute(memo, Var(2, 1), s, lift)


def shift_free(t, k, cutoff=0):
    """t in scope t.scope + k, its variables from cutoff up shifted by k."""
    if isinstance(t, Var):
        return Var(t.scope + k, t.index + k if t.index >= cutoff else t.index)
    return Ctor(t.scope + k, t.name,
                tuple(shift_free(a, k, cutoff + a.scope - t.scope) for a in t.args))


def reference_substitute(t, s):
    """De Bruijn substitution from scratch, shifting at the leaves: under
    k binders, var i < k stays bound and var i >= k becomes image i - k
    with its free variables shifted by k."""
    def go(u, k):
        if isinstance(u, Var):
            if u.index < k:
                return Var(s.target + k, u.index)
            return shift_free(s.images[u.index - k], k)
        return Ctor(s.target + k, u.name,
                    tuple(go(a, k + a.scope - u.scope) for a in u.args))
    return go(t, 0)


def lam_grid():
    """The sweep's grid: terms of depth < 3 and substitutions with images
    of depth < 2, at scopes <= 2."""
    terms = {n: enumerate_terms(LAM, n, 3) for n in range(3)}
    subs = {n: [Substitution(n, m, images) for m in range(3)
                for images in itertools.product(enumerate_terms(LAM, m, 2), repeat=n)]
            for n in range(3)}
    return terms, subs


def test_substitute_matches_a_from_scratch_reference():
    terms, subs = lam_grid()
    pairs = [(t, s) for n in terms for s in subs[n] for t in terms[n]]
    assert len(pairs) == 10_081
    for t, s in pairs:
        assert substitute(t, s) == reference_substitute(t, s)


def test_composition_is_sigma_then_tau_on_the_whole_grid():
    _, subs = lam_grid()
    pairs = [(tau, sigma) for n in subs for sigma in subs[n] for tau in subs[sigma.target]]
    assert len(pairs) == 9_221
    for tau, sigma in pairs:
        assert compose_substitutions(tau, sigma) == Substitution(
            sigma.source, tau.target,
            tuple(reference_substitute(img, tau) for img in sigma.images))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_composition_agrees_with_sequencing(data):
    terms = enumerate_terms(LAM, 1, 2)
    images1 = enumerate_terms(LAM, 2, 2)
    images2 = enumerate_terms(LAM, 1, 2)
    t = data.draw(st.sampled_from(terms))
    sigma = Substitution(1, 2, (data.draw(st.sampled_from(images1)),))
    tau = Substitution(2, 1, tuple(data.draw(st.sampled_from(images2))
                                   for _ in range(2)))
    composed = compose_substitutions(tau, sigma)
    assert substitute(t, composed) == substitute(substitute(t, sigma), tau)


# ------------- the monad-law suite -------------


def test_monad_laws_small_counts():
    rep = check_monad_laws(LAM, 2, 1)
    assert rep.ok and rep.checks_run == 13
    rep = check_monad_laws(LAM, 2, 2)
    assert rep.ok and rep.checks_run == 297
    rep = check_monad_laws(LAM, 3, 1, image_depth=2)
    assert rep.ok and rep.checks_run == 643


def test_monad_laws_nat():
    rep = check_monad_laws(nat_signature(), 3, 2)
    assert rep.ok


# fault injection: re-scope images without shifting their indices, i.e.
# substitution under a binder captures what it should have avoided

def shift_scope(t, k):
    if isinstance(t, Var):
        return Var(t.scope + k, t.index)
    return Ctor(t.scope + k, t.name, tuple(shift_scope(a, k) for a in t.args))


def unweakened_lift(s, k):
    """lift_substitution that re-scopes the images without weakening them."""
    if k == 0:
        return s
    return Substitution(s.source + k, s.target + k,
                        tuple(Var(s.target + k, j) for j in range(k))
                        + tuple(shift_scope(img, k) for img in s.images))


def broken_substitute(t, s):
    if isinstance(t, Var):
        return s.images[t.index]
    return Ctor(s.target, t.name,
                tuple(broken_substitute(a, unweakened_lift(s, a.scope - t.scope))
                      for a in t.args))


def test_fault_injection_is_detected():
    rep = check_monad_laws(LAM, 2, 2, subst=broken_substitute)
    assert rep.checks_run == 297
    assert len(rep.violations) == 26
    assert {v.law for v in rep.violations} <= {"monad-assoc", "monad-right-unit"}
    assert any(v.law == "monad-assoc" for v in rep.violations)
    assert all("abs" in v.witness for v in rep.violations)


def test_fault_injection_invisible_without_binders():
    # nat has no binders, so the broken lift is never exercised
    rep = check_monad_laws(nat_signature(), 3, 2, subst=broken_substitute)
    assert rep.ok


def test_failing_sweep_keeps_its_witnesses_in_shared_pieces():
    # the report keeps the sweep's bit masks over its rendered terms and
    # substitutions, and makes each Violation only when it is read: about
    # 9 B per violation; a Violation with a tuple of pieces kept about
    # 120 B, and a string rendered per witness about 250 B
    ac = parse_signature("sig ac { c : []; abs : [1]; s : [0]; }")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = check_monad_laws(ac, 2, 3, image_depth=1, subst=broken_substitute)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert Counter(v.law for v in rep.violations) == \
        {"monad-assoc": 13_540, "monad-right-unit": 6}
    assert retained / len(rep.violations) < 16


def test_broken_lift_is_detected_on_the_library_path(monkeypatch):
    # the default substitute, memoised per subterm, must still be able to fail
    monkeypatch.setattr(bindcat.terms, "lift_substitution", unweakened_lift)
    rep = check_monad_laws(LAM, 2, 2)
    assert rep.checks_run == 297
    assert Counter(v.law for v in rep.violations) == \
        {"monad-assoc": 23, "monad-right-unit": 3}
    assert any(v.law == "monad-assoc" and "abs" in v.witness for v in rep.violations)


def plain_law_loop(sig, depth, max_scope, subst, compose):
    """The ordered (law, witness) pairs of the plain exhaustive loop, with
    no memo: right unit over n, t; left unit over n, σ, i; associativity
    over n, σ, τ, t, against compose(τ, σ)."""
    scopes = range(max_scope + 1)
    terms_at = {n: enumerate_terms(sig, n, depth) for n in scopes}
    subs_from = {n: [Substitution(n, m, images) for m in scopes
                     for images in itertools.product(
                         enumerate_terms(sig, m, max(depth - 1, 1)), repeat=n)]
                 for n in scopes}
    out = []
    for n in scopes:
        for t in terms_at[n]:
            if subst(t, unit_substitution(n)) != t:
                out.append(("monad-right-unit",
                            f"t = {render_term(t)} changed under the identity substitution"))
    for n in scopes:
        for s in subs_from[n]:
            for i in range(n):
                got = subst(Var(n, i), s)
                if got != s.images[i]:
                    out.append(("monad-left-unit",
                                f"var {i} under sigma = {render_substitution(s)} "
                                f"gives {render_term(got)}"))
    for n in scopes:
        for s in subs_from[n]:
            for tau in subs_from[s.target]:
                ts = compose(tau, s)
                for t in terms_at[n]:
                    if subst(subst(t, s), tau) != subst(t, ts):
                        out.append(("monad-assoc",
                                    f"t = {render_term(t)}; sigma = {render_substitution(s)}; "
                                    f"tau = {render_substitution(tau)}"))
    return out


def test_broken_lift_reports_in_the_plain_loop_order(monkeypatch):
    # at scope 2 some τs permute one another's images, so the sweep's
    # orbit order differs from declaration order; the report must not
    monkeypatch.setattr(bindcat.terms, "lift_substitution", unweakened_lift)
    rep = check_monad_laws(LAM, 2, 2)
    got = [(v.law, v.witness) for v in rep.violations]
    assert Counter(law for law, _ in got) == {"monad-assoc": 23, "monad-right-unit": 3}
    assert got == plain_law_loop(LAM, 2, 2, substitute, compose_substitutions)


def test_broken_subst_reports_in_the_plain_loop_order():
    def compose(tau, s):
        return Substitution(s.source, tau.target,
                            tuple(broken_substitute(img, tau) for img in s.images))
    rep = check_monad_laws(LAM, 2, 2, subst=broken_substitute)
    got = [(v.law, v.witness) for v in rep.violations]
    assert len(got) == 26
    assert got == plain_law_loop(LAM, 2, 2, broken_substitute, compose)


def test_clean_sweep_frees_composite_columns_early(monkeypatch):
    # τs that permute one another's images share composites, and the sweep
    # runs them back to back: a traced peak of 0.43 MB, 1.09 MB in declaration
    # order; in one part, so that the whole sweep is traced
    monkeypatch.setattr(bindcat.terms, "_usable_cpus", lambda: 1)
    sig = parse_signature("sig a { app : [0, 0]; }")
    gc.collect()
    tracemalloc.start()
    try:
        rep = check_monad_laws(sig, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.checks_run == 57_347
    assert peak < 750_000


def last_image_substitute(t, s):
    """substitute, except that every variable goes to the last image."""
    if isinstance(t, Var):
        return s.images[-1]
    return substitute(t, s)


def test_wrong_variable_image_is_detected():
    rep = check_monad_laws(LAM, 2, 2, subst=last_image_substitute)
    assert rep.checks_run == 297
    assert Counter(v.law for v in rep.violations) == \
        {"monad-assoc": 32, "monad-left-unit": 2, "monad-right-unit": 1}
    assert rep.violations[0].witness == "t = var 0 changed under the identity substitution"
    assert next(v.witness for v in rep.violations if v.law == "monad-left-unit") == \
        "var 0 under sigma = {0 -> var 0, 1 -> var 1} : 2->2 gives var 1"


WRONG_TERM = lam_term(1, "app(var 0, var 0)")
WRONG_SIGMA = Substitution(1, 2, (Var(2, 1),))


def wrong_on_one_pair(t, s):
    """substitute, except app(var 0, var 0) under {0 -> var 1} : 1->2."""
    if t is WRONG_TERM and s == WRONG_SIGMA:
        return Var(2, 0)
    return substitute(t, s)


def test_subst_wrong_on_one_pair_gives_exactly_its_violations():
    # the columns holding the wrong term take the element-wise mask path,
    # every other column compares whole
    rep = check_monad_laws(LAM, 2, 2, subst=wrong_on_one_pair)
    assert rep.checks_run == 297
    s12, s21 = "{0 -> var 1} : 1->2", "{0 -> var 0, 1 -> var 0} : 2->1"
    assert [(v.law, v.witness) for v in rep.violations] == [("monad-assoc", w) for w in [
        "t = app(var 0, var 0); sigma = {0 -> var 0} : 1->2; "
        "tau = {0 -> var 1, 1 -> var 0} : 2->2",
        "t = app(var 0, var 0); sigma = {0 -> var 0} : 1->2; "
        "tau = {0 -> var 1, 1 -> var 1} : 2->2",
        f"t = app(var 0, var 0); sigma = {s12}; tau = {s21}",
        f"t = app(var 0, var 0); sigma = {s12}; tau = {{0 -> var 0, 1 -> var 0}} : 2->2",
        f"t = app(var 0, var 0); sigma = {s12}; tau = {{0 -> var 1, 1 -> var 0}} : 2->2",
        f"t = app(var 0, var 0); sigma = {s12}; tau = {{0 -> var 1, 1 -> var 1}} : 2->2",
        f"t = app(var 0, var 0); sigma = {s21}; tau = {s12}",
        f"t = app(var 0, var 1); sigma = {s21}; tau = {s12}",
        f"t = app(var 1, var 0); sigma = {s21}; tau = {s12}",
        f"t = app(var 1, var 1); sigma = {s21}; tau = {s12}",
    ]]


# ------------- the sweep split across processes -------------


@pytest.fixture
def split(monkeypatch):
    """split(w): later sweeps, however small, run in w parts (w - 1 of
    them in forked children).  split.widths lists the part counts of the
    sweeps run and split.children the pids forked; no child may outlive
    the test."""
    in_parts, fork = bindcat.terms._in_parts, os.fork

    def counted(run, parts):
        set_width.widths.append(len(parts))
        return in_parts(run, parts)

    def recorded_fork():
        pid = fork()
        if pid:
            set_width.children.append(pid)
        return pid

    def set_width(w):
        monkeypatch.setattr(bindcat.terms, "_usable_cpus", lambda: w)
    set_width.widths, set_width.children = [], []
    monkeypatch.setattr(bindcat.terms, "_SPLIT_BREAK_EVEN", 0)
    monkeypatch.setattr(bindcat.terms, "_in_parts", counted)
    monkeypatch.setattr(os, "fork", recorded_fork)
    yield set_width
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def ordered_digest(rep):
    """checks_run, the (law, witness) pairs in order, and their SHA-256
    in criterion 1's encoding."""
    pairs = [(v.law, v.witness) for v in rep.violations]
    return rep.checks_run, pairs, hashlib.sha256(repr(pairs).encode()).hexdigest()


@pytest.mark.parametrize("workers", [2, 3])
def test_split_sweep_reports_as_one_part(monkeypatch, split, workers):
    split(1)
    one_pair = ordered_digest(check_monad_laws(LAM, 2, 2, subst=wrong_on_one_pair))
    split(workers)
    assert ordered_digest(check_monad_laws(LAM, 2, 2, subst=wrong_on_one_pair)) == one_pair
    assert one_pair[0] == 297 and len(one_pair[1]) == 10

    monkeypatch.setattr(bindcat.terms, "lift_substitution", unweakened_lift)
    split(1)
    broken_lift = ordered_digest(check_monad_laws(LAM, 3, 1))
    split(workers)
    assert ordered_digest(check_monad_laws(LAM, 3, 1)) == broken_lift
    assert broken_lift[0] == 643 and len(broken_lift[1]) == 158
    assert split.widths == [1, workers, 1, workers]


def test_split_sweep_raises_the_first_failing_part(split):
    # the parent's part succeeds and both children's raise: the first
    # child forked runs part 1, whose exception is raised
    parent = os.getpid()

    def in_children_only(t, s):
        if os.getpid() != parent:
            raise ScopeError(f"no substitution in process {os.getpid()}")
        return substitute(t, s)

    split(3)
    with pytest.raises(ScopeError) as exc:
        check_monad_laws(LAM, 2, 2, subst=in_children_only)
    assert str(exc.value) == f"no substitution in process {split.children[0]}"
    assert len(split.children) == 2


def test_split_sweep_reaps_its_children_when_its_own_part_raises(split):
    # the parent raises in its own part, once the children are running
    parent = os.getpid()

    def in_parent_only(t, s):
        if os.getpid() == parent and split.children:
            raise ScopeError("no substitution here")
        return substitute(t, s)

    split(2)
    with pytest.raises(ScopeError) as exc:
        check_monad_laws(LAM, 2, 2, subst=in_parent_only)
    assert str(exc.value) == "no substitution here"
    assert len(split.children) == 1


def test_split_sweep_reports_what_a_child_cannot_send(split):
    class Local(Exception):
        """An exception that does not pickle: its class is local."""

    parent = os.getpid()

    def unpicklable(t, s):
        if os.getpid() != parent:
            raise Local("boom")
        return substitute(t, s)

    def dies(t, s):
        if os.getpid() != parent:
            os._exit(3)
        return substitute(t, s)

    split(2)
    with pytest.raises(RuntimeError) as exc:
        check_monad_laws(LAM, 2, 2, subst=unpicklable)
    assert str(exc.value) == "Local: boom"
    with pytest.raises(RuntimeError) as exc:
        check_monad_laws(LAM, 2, 2, subst=dies)
    assert str(exc.value) == "part 1 of the sweep ended without a result"


def test_split_children_write_nothing(split, capfd):
    split(2)
    rep = check_monad_laws(LAM, 2, 2, subst=wrong_on_one_pair)
    assert len(rep.violations) == 10 and split.widths == [2]
    assert capfd.readouterr() == ("", "")


def test_small_sweep_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a sweep below the break-even forked")

    monkeypatch.setattr(bindcat.terms, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert bindcat.terms._SPLIT_BREAK_EVEN > 21_714
    rep = check_monad_laws(LAM, 2, 3)
    assert rep.ok and rep.checks_run == 21_714


# ------------- substitution via the iteration scheme -------------


def test_binder_nesting():
    assert binder_nesting(Var(1, 0)) == 0
    assert binder_nesting(lam_term(0, "abs(var 0)")) == 1
    assert binder_nesting(lam_term(0, "abs(abs(app(var 0, var 1)))")) == 2
    assert binder_nesting(lam_term(0, "app(abs(var 0), abs(abs(var 0)))")) == 2


def test_substitution_pool_generations():
    pool = substitution_pool(LAM, 1, 1, 1)
    assert len(pool) == 5
    assert sorted(pool.values()) == [0, 0, 0, 1, 1]
    deeper = substitution_pool(LAM, 1, 1, 2)
    assert set(pool) <= set(deeper)
    assert len(deeper) == 7


def test_subst_via_mendler_agrees():
    rep = check_subst_via_mendler(LAM, 2, 1, 1)
    assert rep.ok and rep.checks_run == 14
    rep = check_subst_via_mendler(LAM, 2, 2, 1)
    assert rep.ok
    rep = check_subst_via_mendler(nat_signature(), 3, 1, 1)
    assert rep.ok


def test_subst_via_mendler_disagreement_is_detected(monkeypatch):
    # the direct side captures under binders; the iteration does not
    monkeypatch.setattr(bindcat.terms, "substitute", broken_substitute)
    rep = check_subst_via_mendler(LAM, 2, 1, 1)
    assert rep.checks_run == 14
    assert Counter(v.law for v in rep.violations) == {"mendler-subst-agreement": 1}
    assert rep.violations[0].witness == (
        "t = abs(var 1); sigma = {0 -> var 0} : 1->1; "
        "iteration gives abs(var 1), substitute gives abs(var 0)")


def test_subst_via_mendler_values():
    h = subst_via_mendler(LAM, 2, 1, 1)
    t = lam_term(1, "abs(var 1)")
    s = Substitution(1, 1, (Var(1, 0),))
    assert h[(t, s)] == substitute(t, s) == lam_term(1, "abs(var 1)")


# ------------- the evenness instance -------------


def test_evenness_demo():
    rep = run_evenness_demo(depth=5)
    assert rep.ok
    assert rep.checks_run == 13


def test_oddness_fails_both_spot_values(monkeypatch):
    # zero maps to False: the equation still has exactly one solution,
    # but it is oddness, so h(3) and h(4) are both wrong
    evenness_instance = bindcat.terms.evenness_instance

    def oddness_instance(depth):
        F, alg, L, X, _ = evenness_instance(depth)

        def psi(A, h):
            return lambda e: False if e.name == "zero" else not h[e.args[0]]
        return F, alg, L, X, psi

    monkeypatch.setattr(bindcat.terms, "evenness_instance", oddness_instance)
    rep = run_evenness_demo(depth=5)
    assert rep.checks_run == 13
    assert [(v.law, v.witness) for v in rep.violations] == [
        ("evenness-value", "h(3) should be False"),
        ("evenness-value", "h(4) should be True"),
    ]
