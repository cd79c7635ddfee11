"""ω-chains and their colimits at desk scale: initial algebras built by
chain iteration, generalized Mendler iteration, and parametrized
initiality over a finite category of parameters.

Infinite objects are represented by cumulative truncation levels: an
EnumSetObj assigns to each level d a finite list of hashable elements,
with level d contained in level d+1.  Inclusion maps are identities on
elements, so "the colimit" of a stabilizing chain at level d is simply
the stable stage's level-d set, and algebra structure maps are
identity-on-elements wherever the chain has stabilized.  All equations
are checked exhaustively up to a configured level, never symbolically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, KeysView

from .fincat import FinCategory, FinFunctor, hom_enumerate
from .hashcons import Frozen, _Entry, _new_term
from . import report
from .report import LawReport


class ChainError(Exception):
    """A truncation or enumeration bound was exceeded, or chain data is
    malformed (duplicates, non-cumulative levels)."""


class IterationError(Exception):
    """Mendler iteration could not be seeded or left its target."""


class NaturalityError(Exception):
    """A step family claimed natural turned out not to be."""


def _keys(elems) -> KeysView:
    """The distinct elements as a dict's key view, which compares as a set
    does: a dict of the 21,612 trees of the param demo's largest level
    takes 0.59 MB, a set of them 2.10 MB (Python 3.11.7)."""
    return dict.fromkeys(elems).keys()


class EnumSetObj:
    """A set presented by cumulative finite levels, computed lazily.

    ``level(d)`` returns the list for level d.  Levels are memoized without
    locking, so an object is meant for one thread, and filled upward from
    the highest level held, one at a time, so any level answers without
    recursion.  Duplicate elements and non-cumulative levels are rejected
    at access time, through the key view of a dict of each level's
    elements, not a set.
    """

    def __init__(self, level_fn: Callable[[int], list], name: str = ""):
        self._fn = level_fn
        self._memo: list[list] = []
        self.name = name

    def level(self, d: int) -> list:
        if d < 0:
            raise ValueError("levels are indexed by naturals")
        memo = self._memo
        while len(memo) <= d:
            k = len(memo)
            below = memo[-1] if memo else []
            elems = list(self._fn(k))
            got = _keys(elems)
            if len(got) != len(elems):
                raise ChainError(f"{self.name or 'object'}: level {k} has duplicates")
            if not all(map(got.__contains__, below)):
                dropped = [e for e in below if e not in got]
                raise ChainError(
                    f"{self.name or 'object'}: level {k} is not cumulative "
                    f"(drops {sorted(map(repr, dropped))[:3]})")
            memo.append(elems)
        return memo[d]

    def __repr__(self):
        return f"EnumSetObj({self.name!r})"


def const_enum_set(elems, name: str = "") -> EnumSetObj:
    """The same finite set at every level."""
    fixed = list(elems)
    return EnumSetObj(lambda d: fixed, name=name or f"const({len(fixed)})")


def empty_enum_set() -> EnumSetObj:
    return const_enum_set([], name="0")


def truncate(X: EnumSetObj, k: int) -> EnumSetObj:
    """Freeze X at level k: levels above k repeat level k."""
    return EnumSetObj(lambda d: X.level(min(d, k)), name=f"{X.name}|{k}")


@dataclass
class EnumEndofunctor:
    """An endofunctor on EnumSetObjs with elementwise action on maps and
    a cocontinuity witness.

    ``level_shift(d)`` must be ≤ d and promise that level d of F(X) is
    determined by levels ≤ level_shift(d) of X; this is what makes chain
    stabilization detectable.
    """

    name: str
    apply: Callable[[EnumSetObj], EnumSetObj]
    apply_map: Callable[[Callable], Callable]
    level_shift: Callable[[int], int]


def identity_endofunctor() -> EnumEndofunctor:
    return EnumEndofunctor("Id", lambda X: X, lambda h: h, lambda d: d)


def constant_endofunctor(S: EnumSetObj) -> EnumEndofunctor:
    return EnumEndofunctor(f"const({S.name})", lambda X: S, lambda h: (lambda e: e),
                           lambda d: 0)


def check_endofunctor_laws(F: EnumEndofunctor, X: EnumSetObj,
                           sample_maps: list[Callable], depth: int) -> LawReport:
    """Functor laws on the truncation of X, plus the level-shift witness."""
    rep = LawReport()
    FX = F.apply(X)
    ident = F.apply_map(lambda e: e)
    for e in FX.level(depth):
        rep.check(ident(e) == e, "endofunctor-identity",
                  lambda e=e: f"F(id)({e!r}) = {ident(e)!r}")
    for f in sample_maps:
        for g in sample_maps:
            gf = F.apply_map(lambda e: g(f(e)))
            Fg, Ff = F.apply_map(g), F.apply_map(f)
            for e in FX.level(depth):
                rep.check(gf(e) == Fg(Ff(e)), "endofunctor-composition",
                          lambda e=e: f"F(g∘f)({e!r}) = {gf(e)!r} but "
                                      f"F(g)(F(f)({e!r})) = {Fg(Ff(e))!r}")
    for d in range(depth + 1):
        s = F.level_shift(d)
        rep.check(s <= d, "level-shift-bound", f"level_shift({d}) = {s} > {d}")
        got, want = _keys(F.apply(truncate(X, s)).level(d)), _keys(FX.level(d))
        rep.check(got == want, "level-shift-witness",
                  f"level {d} of F(X) changes when X is frozen at level {s}")
    return rep


class OmegaChain:
    """The chain 0 → F0 → F²0 → … with memoized stages and stability
    answers; connecting maps are inclusions (identity on elements)."""

    def __init__(self, functor: EnumEndofunctor):
        self.functor = functor
        self._stages: list[EnumSetObj] = [empty_enum_set()]
        self._stable: dict[tuple[int, int], bool] = {}

    def stage(self, n: int) -> EnumSetObj:
        while len(self._stages) <= n:
            self._stages.append(self.functor.apply(self._stages[-1]))
        return self._stages[n]

    def stable_at(self, n: int, depth: int) -> bool:
        """True when stages n and n+1 agree on every level ≤ depth.  Levels
        are compared upwards: equal lists at once, others as dict key
        views, not sets; ChainError if stage n is not included in stage
        n+1 at a level before the first that differs."""
        key = (n, depth)
        if key not in self._stable:
            a, b = self.stage(n), self.stage(n + 1)
            for e in range(depth + 1):
                before, after = a.level(e), b.level(e)
                if before == after:
                    continue
                before, after = _keys(before), _keys(after)
                if not before <= after:
                    raise ChainError(
                        f"chain stage {n} is not included in stage {n + 1} at level {e}")
                if before != after:
                    self._stable[key] = False
                    break
            else:
                self._stable[key] = True
        return self._stable[key]


@dataclass
class InitialAlgebra:
    """μF with its chain; the structure map and its inverse are identity
    on elements because the carrier is the stable part of the chain."""

    functor: EnumEndofunctor
    chain: OmegaChain
    carrier: EnumSetObj
    str_map: Callable = field(default=lambda e: e)
    str_inv: Callable = field(default=lambda e: e)


DEFAULT_MAX_STAGE = 32


def adamek_initial_algebra(F: EnumEndofunctor) -> InitialAlgebra:
    """Initial algebra as the levelwise-stable part of 0 → F0 → F²0 → ….

    The carrier's level d is taken from the first stage whose levels
    ≤ d have stopped changing; ChainError if that never happens within
    DEFAULT_MAX_STAGE stages.
    """
    chain = OmegaChain(F)

    def level_fn(d: int) -> list:
        for k in range(DEFAULT_MAX_STAGE):
            if chain.stable_at(k, d):
                return chain.stage(k).level(d)
        raise ChainError(
            f"chain did not stabilize at level {d} within {DEFAULT_MAX_STAGE} stages")

    carrier = EnumSetObj(level_fn, name=f"mu({F.name})")
    return InitialAlgebra(F, chain, carrier)


def check_initial_algebra(alg: InitialAlgebra, depth: int) -> LawReport:
    """str and str_inv are mutually inverse bijections at every level ≤
    depth; concretely, F(μ) and μ have equal level sets and the two maps
    are pointwise identities."""
    rep = LawReport()
    F, mu = alg.functor, alg.carrier
    Fmu = F.apply(mu)
    for d in range(depth + 1):
        got, want = _keys(Fmu.level(d)), _keys(mu.level(d))
        rep.check(got == want, "str-iso",
                  f"level {d}: F(μ) has {len(got)} elements, μ has {len(want)}; "
                  f"difference {sorted(map(repr, got ^ want))[:3]}")
    for e in mu.level(depth):
        rep.check(alg.str_map(alg.str_inv(e)) == e, "str-section",
                  lambda e=e: f"str(str_inv({e!r})) differs")
        rep.check(alg.str_inv(alg.str_map(e)) == e, "str-retraction",
                  lambda e=e: f"str_inv(str({e!r})) differs")
    return rep


_ABSENT = object()


def _level_order(X: EnumSetObj, depth: int) -> list:
    """X's elements up to the given level, each level's new ones in turn."""
    return list(dict.fromkeys(e for d in range(depth + 1) for e in X.level(d)))


def _fold(F: EnumEndofunctor, alg: InitialAlgebra, g: Callable, depth: int) -> dict:
    """The canonical algebra map μF → X at the given level, computed in
    level order; every element's value is forced by its children."""
    h: dict = {}
    for e in _level_order(alg.carrier, depth):
        try:
            h[e] = g(F.apply_map(h.__getitem__)(e))
        except KeyError as missing:
            raise ChainError(f"the fold at {e!r} reads {missing.args[0]!r} before the "
                             f"walk reaches it; the functor's level_shift lies") from None
    return h


def _count_solutions(dom: EnumSetObj, depth: int, targets: list,
                     equation: Callable) -> int:
    """The number of maps k: dom.level(depth) → targets with k(e) =
    equation(k)(e) for all e.  A fold's equations read only lower levels
    (Abel–Matthes–Uustalu, TCS 2005), so a walk in _level_order forces each
    value from those walked before, except where an equation reads its own
    element: that branches on each target value satisfying it.  Every
    value is walked as the element of ``targets`` it equals.
    """
    order = _level_order(dom, depth)
    walk: dict = {}
    rhs, xs = equation(walk), {x: x for x in targets}

    def admissible(e) -> list:
        try:
            x = xs.get(rhs(e), _ABSENT)
            return [] if x is _ABSENT else [x]
        except KeyError as missing:
            if missing.args[0] != e:
                raise
        return [v for v in targets if solves(e, v)]

    def solves(e, v) -> bool:
        walk[e] = v
        return rhs(e) == v

    # depth first over the branch points only: a forced element never branches
    count, p, branches = 0, 0, []
    while True:
        try:
            vals = admissible(order[p]) if p < len(order) else []
        except KeyError as missing:
            raise ChainError(f"the equation for {order[p]!r} reads {missing.args[0]!r} "
                             f"before the walk reaches it; the functor's level_shift lies"
                             ) from None
        count += p == len(order)
        if not vals:
            if not branches:
                return count
            q, vals = branches.pop()
            for e in order[q + 1:p + 1]:
                walk.pop(e, None)
            p = q
        v, e = vals.pop(), order[p]
        if vals:
            branches.append((p, vals))
        walk[e] = v
        p += 1


def check_initiality(F: EnumEndofunctor, alg: InitialAlgebra,
                     target_algebras: list[tuple[EnumSetObj, Callable]],
                     depth: int) -> LawReport:
    """For each algebra (X, g): the canonical fold exists into X's
    truncation, satisfies h ∘ str = g ∘ F(h) exhaustively, and is the
    only solution: each element equals g(F(k)(w)) for every w that str
    sends to it, and one that str misses is free.
    """
    rep = LawReport()
    mu = alg.carrier
    dom = mu.level(depth)
    eqs: dict = {}
    for w in F.apply(mu).level(depth):
        eqs.setdefault(alg.str_map(w), []).append(w)
    for X, g in target_algebras:
        xs = _keys(X.level(depth))
        h = _fold(F, alg, g, depth)
        for e in dom:
            rep.check(h[e] in xs, "initiality-existence",
                      lambda e=e: f"fold({e!r}) = {h[e]!r} escapes the target truncation")
        for w in F.apply(mu).level(depth):
            lhs = h.get(alg.str_map(w))
            rhs = g(F.apply_map(h.__getitem__)(w))
            rep.check(lhs == rhs, "initiality-fixed-point",
                      lambda w=w, lhs=lhs, rhs=rhs:
                      f"h(str({w!r})) = {lhs!r} but g(F(h)({w!r})) = {rhs!r}")

        def equation(k, g=g):
            lift = F.apply_map(k.__getitem__)

            def required(e):
                got = [g(lift(w)) for w in eqs[e]] if e in eqs else [k[e]]
                return got[0] if all(v == got[0] for v in got) else _ABSENT
            return required

        # no map satisfies an equation whose left side lies outside μ
        count = _count_solutions(mu, depth, X.level(depth), equation) \
            if eqs.keys() <= _keys(dom) else 0
        rep.check(count == 1, "initiality-uniqueness",
                  f"{count} solutions at level {depth}")
    return rep


# --- generalized Mendler iteration -------------------------------------------


def gen_mendler_iteration(F: EnumEndofunctor, alg: InitialAlgebra,
                          L: EnumEndofunctor, X: EnumSetObj,
                          psi: Callable[[EnumSetObj, dict], Callable],
                          depth: int) -> dict:
    """The unique h: L(μF) → X with h ∘ L(str) = ψ_{μF}(h), built as the
    colimit of stages h_0, h_{m+1} = ψ_{A_m}(h_m) over the chain.

    ``psi(A, h)`` receives the stage object and the current stage map (a
    dict on L(A)'s level) and must return a callable on L(F A) elements.
    Stage maps must extend one another — a stage that remaps an element
    is reported as a naturality violation of ψ.  Every value is stored as
    the element of ``X.level(depth)`` it equals, never as ψ's own copy.
    """
    chain = alg.chain
    xs = {x: x for x in X.level(depth)}
    dom0 = L.apply(chain.stage(0)).level(depth)
    if not dom0:
        h: dict = {}
    elif len(xs) == 1:
        only = next(iter(xs))
        h = {e: only for e in dom0}
    else:
        raise IterationError(
            "no canonical seed: L of the empty stage is nonempty and the "
            "target truncation is not a singleton")
    for m in range(DEFAULT_MAX_STAGE):
        stable = chain.stable_at(m, depth)
        step = psi(chain.stage(m), h)
        h_next = {}
        for e in L.apply(chain.stage(m + 1)).level(depth):
            v = step(e)
            x = xs.get(v, _ABSENT)
            if x is _ABSENT:
                raise IterationError(
                    f"stage {m + 1} sends {e!r} to {v!r}, outside the target truncation")
            h_next[e] = x
        for e, v in h.items():
            w = h_next.get(e, _ABSENT)
            if w is _ABSENT:
                raise ChainError(f"stage {m + 1} lost element {e!r}; L is not monotone")
            if w != v:
                raise NaturalityError(
                    f"ψ naturality violation detected: stage {m + 1} remaps {e!r} "
                    f"from {v!r} to {w!r}")
        h = h_next
        if stable:
            return h
    raise ChainError(f"no stabilization within {DEFAULT_MAX_STAGE} stages at level {depth}")


def check_mendler_fixed_point(F: EnumEndofunctor, alg: InitialAlgebra,
                              L: EnumEndofunctor, X: EnumSetObj,
                              psi: Callable, h: dict, depth: int) -> LawReport:
    """h ∘ L(str) = ψ_{μF}(h) on every element of L(F μ) at each level ≤
    depth; L(str) is identity on elements here.  An element outside h's
    domain, or one whose ψ(h) reads such an element, is a domain
    violation instead."""
    rep = LawReport()
    mu = alg.carrier
    step = psi(mu, h)
    for e in L.apply(F.apply(mu)).level(depth):
        if not rep.check(e in h, "mendler-domain",
                         lambda e=e: f"h is undefined on {e!r}"):
            continue
        try:
            v = step(e)
        except KeyError as missing:
            rep.fail("mendler-domain", lambda e=e, m=missing.args[0]:
                     f"h is undefined on {m!r}, which ψ(h)({e!r}) reads")
            continue
        rep.check(h[e] == v, "mendler-fixed-point",
                  lambda e=e, v=v: f"h({e!r}) = {h[e]!r} but ψ(h)({e!r}) = {v!r}")
    return rep


def count_mendler_solutions(F: EnumEndofunctor, alg: InitialAlgebra,
                            L: EnumEndofunctor, X: EnumSetObj, psi: Callable,
                            depth: int) -> int:
    """Number of maps h: L(μ) → X at the given level with h = ψ_μ(h)."""
    return _count_solutions(L.apply(alg.carrier), depth, X.level(depth),
                            lambda h: psi(alg.carrier, h))


# --- parametrized initiality --------------------------------------------------

@dataclass
class ParamBifunctor:
    """A bifunctor F(Z, X) presented per parameter: an endofunctor
    F(Z, −) for every parameter object, plus the parameter whiskering
    F(f, X) for every parameter morphism, acting on elements."""

    param_cat: FinCategory
    functor_at: Callable[[str], EnumEndofunctor]
    param_action: Callable[[str], Callable]


@dataclass
class ParamAlgebraFamily:
    """A parametrized algebra: a functor G on parameters given by its
    object and morphism actions, and algebra maps φ_Z: F(Z, G Z) → G Z.

    G is plain functor data.  There is deliberately no field for a
    cocontinuity witness of G, nor for any colimit structure on the
    parameter category — the construction below never needs them.
    """

    g_obj: Callable[[str], EnumSetObj]
    g_mor: Callable[[str], Callable]
    phi: Callable[[str], Callable]


def _set_functor_laws(C: FinCategory, elems: Callable[[str], list],
                      act: Callable[[str], Callable], law: str, name: str,
                      composite: str) -> LawReport:
    """Identity and composition laws, ``law + '-identity'`` and ``law +
    '-composition'``, of a functor from C to sets, on ``elems(z)`` for each
    object z, where ``act(f)`` is f's action on elements.  Witnesses call
    the functor ``name`` and its composite action ``composite``."""
    rep = LawReport()
    for z in C.objects:
        a = act(C.id_of(z))
        for e in elems(z):
            rep.check(a(e) == e, law + "-identity",
                      lambda e=e: f"{name}(id_{z})({e!r}) = {a(e)!r}")
    for (g, f), h in C.comp.items():
        a_f, a_g, a_h = act(f), act(g), act(h)
        for e in elems(C.src(f)):
            rep.check(a_h(e) == a_g(a_f(e)), law + "-composition",
                      lambda e=e: f"{name}({g} after {f})({e!r}) = {a_h(e)!r} but "
                                  f"{composite} gives {a_g(a_f(e))!r}")
    return rep


def check_param_bifunctor(PB: ParamBifunctor, X: EnumSetObj,
                          sample_map: Callable, depth: int) -> LawReport:
    """Whiskering laws for the parameter action, on truncations."""
    C = PB.param_cat
    rep = _set_functor_laws(C, lambda z: PB.functor_at(z).apply(X).level(depth),
                            PB.param_action, "param-action", "F", "composite")
    for f, z, z1 in C.morphisms:
        act = PB.param_action(f)
        FZ, FZ1 = PB.functor_at(z), PB.functor_at(z1)
        on_x = FZ.apply_map(sample_map)
        on_x1 = FZ1.apply_map(sample_map)
        for e in FZ.apply(X).level(depth):
            rep.check(act(on_x(e)) == on_x1(act(e)), "param-action-interchange",
                      lambda e=e: f"whiskering square fails at {f}, {e!r}")
    return rep


def param_initial_algebras(PB: ParamBifunctor) -> dict[str, InitialAlgebra]:
    return {z: adamek_initial_algebra(PB.functor_at(z))
            for z in PB.param_cat.objects}


def _check_phi_naturality(PB: ParamBifunctor, fam: ParamAlgebraFamily, depth: int) -> None:
    C = PB.param_cat
    for f, z, z1 in C.morphisms:
        gz = fam.g_obj(z)
        gf = fam.g_mor(f)
        phi_z, phi_z1 = fam.phi(z), fam.phi(z1)
        act = PB.param_action(f)
        lift = PB.functor_at(z1).apply_map(gf)
        for e in PB.functor_at(z).apply(gz).level(depth):
            lhs = phi_z1(lift(act(e)))
            rhs = gf(phi_z(e))
            if lhs != rhs:
                raise NaturalityError(
                    f"φ is not natural at {f}: φ({e!r}) transports to {lhs!r} "
                    f"one way and {rhs!r} the other")


def _component_psi(PB: ParamBifunctor, fam: ParamAlgebraFamily, z: str) -> Callable:
    """ψ_A(h) = φ_Z ∘ F(Z, h), the same at every stage A: component Z's step.

    φ_Z is cached for as long as this ψ lives.  It runs once per element
    of F(Z, G Z) that ψ meets, and the cache keeps each such element
    alive, so F(Z, h) finds it again instead of making it afresh.
    """
    lift, phi_z = PB.functor_at(z).apply_map, functools.cache(fam.phi(z))
    return lambda A, h: (lambda e, lifted=lift(h.__getitem__): phi_z(lifted(e)))


def parametrized_initiality(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                            fam: ParamAlgebraFamily, depth: int) -> dict[str, dict]:
    """The mediating family h_Z: μ_Z → G Z, each component an instance of
    generalized Mendler iteration with L = Id and ψ_A(h) = φ_Z ∘ F(Z, h).

    No cocontinuity of G and no colimits in the parameter category are
    consulted — the chain lives entirely in the value category.
    """
    _check_phi_naturality(PB, fam, depth)
    out = {}
    for z in PB.param_cat.objects:
        out[z] = gen_mendler_iteration(PB.functor_at(z), mu[z], identity_endofunctor(),
                                       fam.g_obj(z), _component_psi(PB, fam, z), depth)
    return out


def mu_on_morphism(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                   f: str, depth: int) -> dict:
    """Functorial action of Z ↦ μ_Z on a parameter morphism, as the
    mediating map into the target algebra str_{Z'} ∘ F(f, μ_{Z'})."""
    C = PB.param_cat
    z, z1 = C.src(f), C.tgt(f)
    FZ = PB.functor_at(z)
    act = PB.param_action(f)
    target = mu[z1]

    def psi(A, h):
        lifted = FZ.apply_map(h.__getitem__)
        return lambda e: target.str_map(act(lifted(e)))

    return gen_mendler_iteration(FZ, mu[z], identity_endofunctor(),
                                 target.carrier, psi, depth)


def _mu_actions(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                depth: int) -> dict[str, dict]:
    """μ's action on every parameter morphism, in declaration order."""
    return {f: mu_on_morphism(PB, mu, f, depth) for f, _, _ in PB.param_cat.morphisms}


def count_param_solutions(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                          fam: ParamAlgebraFamily, z: str, depth: int) -> int:
    """Number of maps h: μ_Z → G Z at the given level with h = φ_Z ∘ F(Z, h)."""
    return count_mendler_solutions(PB.functor_at(z), mu[z], identity_endofunctor(),
                                   fam.g_obj(z), _component_psi(PB, fam, z), depth)


def check_param_initiality(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                           fam: ParamAlgebraFamily, depth: int) -> LawReport:
    """Fixed-point equation for every component, naturality of the family
    in the parameter, and per-component uniqueness.

    Builds the family's components and μ's action on each parameter
    morphism once, for this call only.
    """
    hs = parametrized_initiality(PB, mu, fam, depth)
    return _param_initiality_report(PB, mu, fam, hs, _mu_actions(PB, mu, depth), depth)


def _param_initiality_report(PB: ParamBifunctor, mu: dict[str, InitialAlgebra],
                             fam: ParamAlgebraFamily, hs: dict[str, dict],
                             actions: dict[str, dict], depth: int) -> LawReport:
    rep = LawReport()
    C = PB.param_cat
    for z in C.objects:
        h = hs[z]
        step = _component_psi(PB, fam, z)(mu[z].carrier, h)
        for w in PB.functor_at(z).apply(mu[z].carrier).level(depth):
            lhs = h.get(mu[z].str_map(w))
            rhs = step(w)
            rep.check(lhs == rhs, "param-fixed-point",
                      lambda w=w, z=z, lhs=lhs, rhs=rhs:
                      f"at {z}: h(str({w!r})) = {lhs!r} but φ(F(h)({w!r})) = {rhs!r}")
    for f, z, z1 in C.morphisms:
        mf = actions[f]
        gf = fam.g_mor(f)
        for t in mu[z].carrier.level(depth):
            lhs = hs[z1].get(mf[t])
            rhs = gf(hs[z][t])
            rep.check(lhs == rhs, "param-naturality",
                      lambda t=t, f=f, lhs=lhs, rhs=rhs:
                      f"square at {f} fails on {t!r}: {lhs!r} vs {rhs!r}")
    for z in C.objects:
        count = count_param_solutions(PB, mu, fam, z, depth)
        rep.check(count == 1, "param-uniqueness",
                  f"component at {z} has {count} solutions at level {depth}")
    return rep


# --- poset instances ----------------------------------------------------------

def poset_initial_algebra(C: FinCategory, F: FinFunctor) -> str:
    """Least fixed point of a monotone endo-map presented as a functor on
    a poset-shaped category: iterate from the initial object."""
    bottoms = [x for x in C.objects
               if all(len(hom_enumerate(C, x, y)) == 1 for y in C.objects)]
    if len(bottoms) != 1:
        raise ChainError("the category has no unique initial object")
    x = bottoms[0]
    for _ in range(len(C.objects) + 1):
        nxt = F.obj(x)
        if nxt == x:
            return x
        x = nxt
    raise ChainError("iteration did not reach a fixed point")


def check_poset_initiality(C: FinCategory, F: FinFunctor, mu_obj: str,
                           target_objs: list[str]) -> LawReport:
    """In a poset, an algebra is an object a with F(a) ≤ a, and
    initiality of μ means hom(μ, a) is a singleton for each such a."""
    rep = LawReport()
    rep.check(F.obj(mu_obj) == mu_obj, "poset-fixed-point",
              f"F({mu_obj}) = {F.obj(mu_obj)} is not {mu_obj}")
    for a in target_objs:
        rep.check(len(hom_enumerate(C, F.obj(a), a)) == 1, "poset-algebra",
                  f"{a} carries no algebra: hom(F({a}), {a}) is empty")
        n = len(hom_enumerate(C, mu_obj, a))
        rep.check(n == 1, "poset-initiality",
                  f"hom({mu_obj}, {a}) has {n} elements, expected exactly 1")
    return rep


# --- ready-made parametrized instances (leaf-labelled binary trees) -----------

class Tree(Frozen):
    """A leaf-labelled binary tree cell, or a cell of F(Z, X) over any X.

    Trees are hash-consed as terms are: a live tree is kept under its args,
    ("leaf", z) or ("node", l, r), in one weak table, so equal trees are
    one object and ``==`` and ``hash`` are those of identity.  Labels and
    children must be hashable, and args that compare equal give one tree.
    A tree prints, indexes and measures like its args tuple.
    """

    __slots__ = ("args",)

    def __getitem__(self, i):
        return self.args[i]

    def __len__(self):
        return len(self.args)

    def __repr__(self):
        return repr(self.args)

    def __reduce__(self):
        return _tree, (self.args,)


_trees: dict[tuple, _Entry] = {}


def _tree(args: tuple) -> Tree:
    """The live tree with these args, made if there is none."""
    entry = _trees.get(args)
    t = entry() if entry is not None else None
    if t is None:
        t = _new_term(Tree, _trees, args, args=args)
    return t


def leaf(z) -> Tree:
    return _tree(("leaf", z))


def node(l, r) -> Tree:
    return _tree(("node", l, r))


def _label_map(param_cat: FinCategory, carriers: dict[str, list],
               mor_maps: dict[str, dict], f: str) -> dict:
    """The function on labels under parameter morphism f: the identity on
    its source's carrier, or f's entry in ``mor_maps``."""
    z = param_cat.src(f)
    return {v: v for v in carriers[z]} if f == param_cat.id_of(z) else mor_maps[f]


def tree_bifunctor(param_cat: FinCategory, carriers: dict[str, list],
                   mor_maps: dict[str, dict]) -> ParamBifunctor:
    """F(Z, X) = Z ⊎ X×X: leaves labelled from the parameter carrier,
    nodes holding two X-elements.  ``mor_maps`` gives the underlying set
    function of every non-identity parameter morphism."""

    def functor_at(z: str) -> EnumEndofunctor:
        labels = carriers[z]

        def apply(X: EnumSetObj) -> EnumSetObj:
            def level(d: int) -> list:
                if d == 0:
                    return []
                below = X.level(d - 1)
                return [leaf(v) for v in labels] + \
                       [node(l, r) for l in below for r in below]
            return EnumSetObj(level, name=f"F({z},{X.name})")

        def apply_map(h: Callable) -> Callable:
            def go(e):
                a = e.args
                if a[0] == "leaf":
                    return e
                return node(h(a[1]), h(a[2]))
            return go

        return EnumEndofunctor(f"F({z},-)", apply, apply_map, lambda d: max(d - 1, 0))

    def param_action(f: str) -> Callable:
        fn = _label_map(param_cat, carriers, mor_maps, f)

        def go(e):
            a = e.args
            if a[0] == "leaf":
                return leaf(fn[a[1]])
            return e
        return go

    return ParamBifunctor(param_cat, functor_at, param_action)


def leftmost_leaf_family(param_cat: FinCategory, carriers: dict[str, list],
                         mor_maps: dict[str, dict]) -> ParamAlgebraFamily:
    """G = identity on parameters; φ keeps a leaf's label and a node's
    left value, so the mediating map is the leftmost-leaf fold."""

    def g_mor(f: str) -> Callable:
        return _label_map(param_cat, carriers, mor_maps, f).__getitem__

    def phi(z: str) -> Callable:
        # a leaf's label and a node's left component both sit in slot 1
        return lambda e: e.args[1]

    return ParamAlgebraFamily(
        g_obj=lambda z: const_enum_set(carriers[z], name=f"G({z})"),
        g_mor=g_mor,
        phi=phi,
    )


def demo_param_corpus() -> tuple[FinCategory, dict[str, list], dict[str, dict]]:
    """Three label sets with a composable pair of relabellings between
    them, enough to exercise identity, composition, and naturality."""
    objects = ("za", "zb", "zc")
    carriers = {"za": [1, 2], "zb": [7], "zc": [2, 5, 9]}
    mor_maps = {"f": {1: 7, 2: 7}, "g": {7: 9}, "gf": {1: 9, 2: 9}}
    morphisms = [("id_za", "za", "za"), ("id_zb", "zb", "zb"),
                 ("id_zc", "zc", "zc"),
                 ("f", "za", "zb"), ("g", "zb", "zc"), ("gf", "za", "zc")]
    identity = {"za": "id_za", "zb": "id_zb", "zc": "id_zc"}
    comp = {}
    for m, s, t in morphisms:
        comp[(identity[t], m)] = m
        comp[(m, identity[s])] = m
    comp[("g", "f")] = "gf"
    cat = FinCategory(objects, tuple(morphisms), identity, comp)
    return cat, carriers, mor_maps


def run_param_demo(depth: int = 3) -> LawReport:
    """Leaf-labelled binary trees over the demo parameter corpus: the
    bifunctor's whiskering laws, initiality of the μ family for both the
    leftmost-leaf and powerset algebras, functoriality of μ on parameter
    morphisms, and two concrete folds.

    μ's carriers and its action on each parameter morphism are built
    once, before the families, and shared by both families' naturality
    squares, μ's functor laws and the relabelling example; each family's
    components are built once and serve its checks, the level-ordered
    uniqueness count among them, and, for the leftmost-leaf family, the
    fold example.  None of these maps outlives the call.  From
    ``report._PARAM_SPLIT_BREAK_EVEN`` trees in μ's carriers, summed over
    the parameters, the two families run at once where two CPUs may be
    used: this process checks the leftmost-leaf family and μ's functor
    laws, and a forked child (see ``report._in_parts``) the powerset
    family, reading the carriers and actions as they stood at the fork.
    The report is what one process gives, every witness in the same
    order.  The example trees sit at level 3, so a depth below 3 raises
    ValueError.
    """
    if depth < 3:
        raise ValueError(f"the param demo needs depth at least 3, where its "
                         f"example trees sit; got {depth}")
    cat, carriers, mor_maps = demo_param_corpus()
    PB = tree_bifunctor(cat, carriers, mor_maps)
    mu = param_initial_algebras(PB)
    rep = LawReport()
    sample = const_enum_set([leaf(v) for v in carriers["za"]], "sample")
    rep.merge(check_param_bifunctor(PB, sample, lambda e: e, min(depth, 2)))
    trees = sum(len(mu[z].carrier.level(depth)) for z in cat.objects)
    actions = _mu_actions(PB, mu, depth)
    example = node(node(leaf(2), leaf(5)), leaf(9))
    pair = node(leaf(1), leaf(2))

    def check(families: tuple) -> tuple[list, tuple | None]:
        # families indexes (leftmost-leaf, powerset); gives each family's
        # report and, with the leftmost-leaf family, its fold of the
        # example and μ's functor laws.  A family's components are dropped
        # after its report, to keep peak memory down
        reps, rest = [], None
        for i in families:
            fam = (leftmost_leaf_family, powerset_family)[i](cat, carriers, mor_maps)
            hs = parametrized_initiality(PB, mu, fam, depth)
            reps.append(_param_initiality_report(PB, mu, fam, hs, actions, depth))
            if i == 0:
                rest = hs["zc"].get(example), _set_functor_laws(
                    cat, lambda z: mu[z].carrier.level(depth),
                    lambda f: actions[f].__getitem__, "mu", "μ", "the composite")
            del hs
        return reps, rest

    # split, the child's powerset family takes about as long as this
    # process's leftmost-leaf family and μ's functor laws
    width = report._width(trees, report._PARAM_SPLIT_BREAK_EVEN)
    results = report._in_parts(check, [(0, 1)] if width == 1 else [(0,), (1,)])
    for reps, _ in results:
        for part in reps:
            rep.merge(part)
    folded, functor_laws = results[0][1]
    rep.merge(functor_laws)
    relabelled = actions["f"].get(pair)
    rep.check(folded == 2, "leftmost-leaf-example",
              f"fold of {example!r} gave {folded!r}, expected 2")
    rep.check(relabelled == node(leaf(7), leaf(7)), "mu-action-example",
              f"relabelling {pair!r} gave {relabelled!r}")
    return rep


def powerset_family(param_cat: FinCategory, carriers: dict[str, list],
                    mor_maps: dict[str, dict]) -> ParamAlgebraFamily:
    """G = finite powerset (as plain functor data, no extra structure);
    φ collects labels, so the mediating map is the set-of-leaves fold."""

    def subsets(z: str) -> list:
        out = [frozenset()]
        for v in carriers[z]:
            out += [s | {v} for s in out]
        return out

    def g_mor(f: str) -> Callable:
        fn = _label_map(param_cat, carriers, mor_maps, f)
        return lambda s: frozenset(fn[v] for v in s)

    def phi(z: str) -> Callable:
        def collect(e):
            a = e.args
            return frozenset([a[1]]) if a[0] == "leaf" else a[1] | a[2]
        return collect

    return ParamAlgebraFamily(
        g_obj=lambda z: const_enum_set(subsets(z), name=f"P({z})"),
        g_mor=g_mor,
        phi=phi,
    )
