"""Well-scoped terms over a binding signature, with capture-avoiding
substitution and exhaustive monad-law checking.

A term carries the scope it lives in: ``Var(n, i)`` is variable i among
n, and a constructor argument with binding arity k lives in scope n + k.
Substitutions are total maps from variables to terms in a target scope;
going under a binder lifts the substitution, weakening its images.
Weakening is itself a substitution, sending each variable to a
variable, so lifting goes through substitution like everything else.

Terms are hash-consed: building a term equal to one that is still alive
returns that very object, so term equality and hashing are identity,
and a term's scope is checked once, when it is first made.

``subst_via_mendler`` rebuilds substitution without structural recursion
on terms, as a generalized Mendler iteration over the term chain; it is
checked against the direct implementation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .hashcons import Frozen, _Entry, _new_term
from .omega import (EnumEndofunctor, EnumSetObj, adamek_initial_algebra,
                    check_mendler_fixed_point, const_enum_set, count_mendler_solutions,
                    gen_mendler_iteration, identity_endofunctor)
from . import report
from .report import LawReport
from .signature import BindingSignature, Constructor, ParseError, _Parser

# Not a switch: the scope checks always run when a term is made.  The
# benchmark's worker reads this name and refuses a run where it is true.
CHECK_SCOPES = False


class ScopeError(ValueError):
    """A term or substitution was used at the wrong scope."""


# --- hash-consed terms ----------------------------------------------------------
# Live variables are kept by (scope, index); live constructor applications
# by args, in one table per (scope, name).  Entries are weak (see
# ``hashcons``), so a term leaves its table when the last reference goes.

_vars: dict[tuple[int, int], _Entry] = {}
_ctors: dict[tuple[int, str], dict[tuple, _Entry]] = {}


class Term(Frozen):
    """A term in a scope; ``Var`` and ``Ctor`` are its two kinds.

    Constructing a term looks its fields up among the live terms first,
    so equal terms are the same object, and ``==`` and ``hash`` are those
    of identity.  Terms are immutable.
    """

    __slots__ = ("scope",)


class Var(Term):
    __slots__ = ("index",)

    def __new__(cls, scope: int, index: int) -> Var:
        entry = _vars.get((scope, index))
        t = entry() if entry is not None else None
        if t is None:
            if not 0 <= index < scope:
                raise ScopeError(
                    f"variable index {index} out of range for scope {scope}")
            t = _new_term(cls, _vars, (scope, index), scope=scope, index=index)
        return t

    def __repr__(self):
        return f"Var(scope={self.scope!r}, index={self.index!r})"

    def __reduce__(self):
        return Var, (self.scope, self.index)


def _ctor(scope: int, name: str, args: tuple) -> Ctor:
    """The live Ctor(scope, name, args), made if there is none: what
    ``Ctor(...)`` returns, without the cost of a class call.  Only a new
    term's arguments are scope-checked; one that fails is never entered."""
    table = _ctors.get((scope, name))
    if table is None:
        table = _ctors[(scope, name)] = {}
    entry = table.get(args)
    t = entry() if entry is not None else None
    if t is None:
        for a in args:
            if isinstance(a, Term) and a.scope < scope:
                raise ScopeError(
                    f"argument of {name} at scope {scope} "
                    f"has scope {a.scope}")
        t = _new_term(Ctor, table, args, scope=scope, name=name, args=args)
    return t


class Ctor(Term):
    # args may hold non-term values: the term functor's action on a map
    # into an arbitrary set reuses Ctor as the cell constructor.  They
    # must be hashable, and args that compare equal give one term.
    __slots__ = ("name", "args")

    def __new__(cls, scope: int, name: str, args: tuple) -> Ctor:
        return _ctor(scope, name, args)

    def __repr__(self):
        return f"Ctor(scope={self.scope!r}, name={self.name!r}, args={self.args!r})"

    def __reduce__(self):
        return Ctor, (self.scope, self.name, self.args)


def construct(sig: BindingSignature, scope: int, name: str, *args: Term) -> Ctor:
    """Build a constructor application, validating arity and scopes."""
    c = sig.constructor(name)
    if len(args) != len(c.arity):
        raise ScopeError(f"{name} takes {len(c.arity)} arguments, got {len(args)}")
    for a, k in zip(args, c.arity):
        if a.scope != scope + k:
            raise ScopeError(
                f"argument of {name} binding {k} must be in scope {scope + k}, "
                f"got scope {a.scope}")
    return Ctor(scope, name, tuple(args))


def check_term(sig: BindingSignature, t: Term) -> None:
    """Raise ScopeError unless t is well-scoped over sig, at the first
    fault in pre-order, left to right.  The subterms are taken from a
    stack, not by recursion, so a term of any depth is checked."""
    todo = [(t, None, 0)]
    while todo:
        t, parent, k = todo.pop()
        if parent is not None:
            if not isinstance(t, Term):
                raise ScopeError(f"argument of {parent.name} is not a term: {t!r}")
            if t.scope != parent.scope + k:
                raise ScopeError(
                    f"argument of {parent.name} at scope {parent.scope} binding {k} "
                    f"has scope {t.scope}")
        if isinstance(t, Var):
            if not 0 <= t.index < t.scope:
                raise ScopeError(
                    f"variable index {t.index} out of range for scope {t.scope}")
            continue
        try:
            c = sig.constructor(t.name)
        except KeyError:
            raise ScopeError(f"unknown constructor {t.name!r}") from None
        if len(t.args) != len(c.arity):
            raise ScopeError(f"{t.name} takes {len(c.arity)} arguments, got {len(t.args)}")
        todo.extend((a, t, k) for a, k in zip(reversed(t.args), reversed(c.arity)))


def term_depth(t: Term) -> int:
    """Constructor nesting above the leaves (variables and nullary
    constructors), taken from a stack, not by recursion."""
    depth, todo = 0, [(t, 0)]
    while todo:
        t, d = todo.pop()
        if isinstance(t, Var) or not t.args:
            depth = max(depth, d)
        else:
            todo.extend((a, d + 1) for a in t.args)
    return depth


def render_term(t: Term) -> str:
    """The text of t, as ``parse_term`` reads it.  The pieces are taken
    from a stack, not by recursion, so a term of any depth renders."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(f"var {t.index}")
        else:
            out.append(f"{t.name}(")
            todo.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                todo.append(t.args[i])
                if i:
                    todo.append(", ")
    return "".join(out)


def parse_term(sig: BindingSignature, scope: int, text: str) -> Term:
    """Parse the surface syntax ``var i`` / ``name(t1, …, tk)``; raises
    ParseError with 1-based position info.  The constructors whose
    arguments are still being read wait on a stack, not in recursive
    calls, so a term of any depth parses."""
    p = _Parser(text)
    waiting: list[tuple[str, int, tuple[int, ...], list]] = []  # (name, scope, arity, args)
    while True:
        tok = p.peek()
        if tok[0] == "ident" and tok[1] == "var":
            p.next()
            num = p.peek()
            i = int(p.expect("nat", "a variable index"))
            if not 0 <= i < scope:
                raise ParseError(num[2], num[3],
                                 f"variable index {i} out of range for scope {scope}")
            t = Var(scope, i)
        else:
            if tok[0] != "ident":
                p.error("expected a term")
            name = p.next()[1]
            try:
                c = sig.constructor(name)
            except KeyError:
                raise ParseError(tok[2], tok[3], f"unknown constructor {name!r}") from None
            p.expect("(", "'('")
            if c.arity:
                waiting.append((name, scope, c.arity, []))
                scope += c.arity[0]
                continue
            p.expect(")", "')'")
            t = Ctor(scope, name, ())
        # t is complete: it is the next argument of the innermost waiting constructor
        while waiting:
            name, scope, arity, args = waiting[-1]
            args.append(t)
            if len(args) < len(arity):
                p.expect(",", "','")
                scope += arity[len(args)]
                break
            p.expect(")", "')'")
            waiting.pop()
            t = Ctor(scope, name, tuple(args))
        else:
            break
    if p.peek()[0] != "eof":
        p.error("trailing input after term")
    return t


def _nonnegative(**bounds: int | None) -> None:
    for name, bound in bounds.items():
        if bound is not None and bound < 0:
            raise ValueError(f"{name} must not be negative, got {bound}")


def _enum(sig: BindingSignature, scope: int, depth: int,
          memo: dict[tuple[int, int], tuple[Term, ...]]) -> tuple[Term, ...]:
    """The terms of depth < depth in scope, memoized under (scope, depth)
    with every key they are built from.  A key waits on a stack, not in a
    recursive call, until the keys it reads are in the memo, so any depth
    enumerates."""
    todo = [(scope, depth)]
    while todo:
        key = n, d = todo[-1]
        if key in memo:
            todo.pop()
        elif d == 0:
            memo[key] = ()
        else:
            missing = [(n + k, d - 1) for c in sig.constructors for k in c.arity
                       if (n + k, d - 1) not in memo]
            if missing:
                todo.extend(missing)
                continue
            out: list[Term] = [Var(n, i) for i in range(n)]
            for c in sig.constructors:
                pools = [memo[(n + k, d - 1)] for k in c.arity]
                out.extend(Ctor(n, c.name, args) for args in itertools.product(*pools))
            memo[key] = tuple(out)
    return memo[(scope, depth)]


def enumerate_terms(sig: BindingSignature, scope: int, depth: int) -> list[Term]:
    """All terms of depth < depth in the given scope, in a deterministic
    order: variables first, then constructors in signature order.  A
    negative scope or depth raises ValueError."""
    _nonnegative(scope=scope, depth=depth)
    return list(_enum(sig, scope, depth, {}))


# --- substitution -------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    source: int
    target: int
    images: tuple[Term, ...]

    def __post_init__(self):
        if self.target < 0:
            raise ScopeError(f"target scope must not be negative, got {self.target}")
        if len(self.images) != self.source:
            raise ScopeError(
                f"substitution from scope {self.source} needs {self.source} images, "
                f"got {len(self.images)}")
        for img in self.images:
            if not isinstance(img, Term):
                raise ScopeError(f"substitution image is not a term: {img!r}")
            if img.scope != self.target:
                raise ScopeError(
                    f"substitution image {render_term(img)} is in scope {img.scope}, "
                    f"not the target scope {self.target}")


def render_substitution(s: Substitution) -> str:
    body = ", ".join(f"{i} -> {render_term(img)}" for i, img in enumerate(s.images))
    return f"{{{body}}} : {s.source}->{s.target}"


def unit_substitution(n: int) -> Substitution:
    return Substitution(n, n, tuple(Var(n, i) for i in range(n)))


def weakening(n: int, k: int) -> Substitution:
    """Shift scope n into scope n + k, freeing the first k indices: the
    substitution sending var i to var i + k."""
    return Substitution(n, n + k, tuple(Var(n + k, i) for i in range(k, n + k)))


def lift_substitution(s: Substitution, k: int) -> Substitution:
    """Extend a substitution under a binder of k fresh variables: bound
    indices map to themselves, images are weakened past them."""
    if k == 0:
        return s
    fresh = tuple(Var(s.target + k, j) for j in range(k))
    return Substitution(s.source + k, s.target + k,
                        fresh + compose_substitutions(weakening(s.target, k), s).images)


def _remembered_lifts():
    """lift_substitution, remembering each lift for as long as the
    returned function lives."""
    lifts: dict[tuple[Substitution, int], Substitution] = {}

    def lift(s: Substitution, k: int) -> Substitution:
        if k == 0:
            return s
        got = lifts.get((s, k))
        if got is None:
            got = lifts[(s, k)] = lift_substitution(s, k)
        return got
    return lift


def _substitute(memo: dict[Term, Term], t: Term, s: Substitution, lift) -> Term:
    """t under s, filling memo with every subterm's result.

    One memo serves one root substitution σ: a subterm at scope
    σ.source + j always meets lift(σ, j), so its result depends on the
    subterm alone, and each distinct subterm is substituted once.
    """
    # before the lookup: the memo also holds subterms of other scopes
    if t.scope != s.source:
        raise ScopeError(
            f"term in scope {t.scope} substituted from scope {s.source}")
    got = memo.get(t)
    if got is None:
        if isinstance(t, Var):
            got = s.images[t.index]
        else:
            n = t.scope
            args = []
            for a in t.args:
                # a child met before: its memo entry is its result
                r = memo.get(a)
                if r is None:
                    k = a.scope - n
                    r = _substitute(memo, a, lift(s, k) if k else s, lift)
                args.append(r)
            got = _ctor(s.target, t.name, tuple(args))
        memo[t] = got
    return got


def _substitute_deep(memo: dict[Term, Term], t: Term, s: Substitution, lift) -> Term:
    """``_substitute`` with the subterms still to do kept on a stack, not in
    recursive calls, so a term of any depth is substituted.  It finishes a
    walk that ran out of recursion from the memo that walk filled."""
    todo = [(t, s)]
    while todo:
        u, su = todo[-1]
        if u in memo:
            todo.pop()
        elif isinstance(u, Var):
            memo[u] = su.images[u.index]
        else:
            missing = [(a, lift(su, a.scope - u.scope)) for a in u.args if a not in memo]
            if missing:
                todo.extend(missing)
            else:
                memo[u] = _ctor(su.target, u.name, tuple([memo[a] for a in u.args]))
    return memo[t]


def substitute(t: Term, s: Substitution) -> Term:
    """Capture-avoiding simultaneous substitution, of a term of any depth."""
    memo: dict[Term, Term] = {}
    lift = _remembered_lifts()
    try:  # the recursion first: it is the faster walk per term
        return _substitute(memo, t, s, lift)
    except RecursionError:
        return _substitute_deep(memo, t, s, lift)


def compose_substitutions(tau: Substitution, sigma: Substitution) -> Substitution:
    """The substitution doing sigma first, then tau; its images may be of any depth."""
    if sigma.target != tau.source:
        raise ScopeError(
            f"cannot compose: first substitution targets scope {sigma.target}, "
            f"second starts from scope {tau.source}")
    memo: dict[Term, Term] = {}
    lift = _remembered_lifts()
    try:
        images = tuple([_substitute(memo, img, tau, lift) for img in sigma.images])
    except RecursionError:
        images = tuple([_substitute_deep(memo, img, tau, lift) for img in sigma.images])
    return Substitution(sigma.source, tau.target, images)


def check_monad_laws(sig: BindingSignature, depth: int, max_scope: int,
                     image_depth: int | None = None, subst=None) -> LawReport:
    """Exhaustive unit and associativity laws for substitution.

    Terms range over depth < depth at scopes ≤ max_scope; substitution
    images range over depth < image_depth (default depth − 1, so the
    instance count stays polynomial rather than doubly exponential).
    A negative bound, or bounds at which one of the three law families
    has no instance, raises ValueError.  ``subst`` swaps in an
    alternative substitute for fault injection.

    Every substitution in the sweep goes through a memo that lives for
    one root substitution.  The library's own substitute fills it with
    every subterm it meets; ``subst`` is treated as a pure function of
    (term, substitution) that returns terms, and its memo holds only the
    terms it is called on.  So the associativity family substitutes far
    fewer times than it checks: under each τ once per distinct term, and
    once per term of the source scope for each distinct composite τ∘σ
    in each part (see ``_assoc_failures``).  Check counts, the violations
    in their order and every witness are those of the plain exhaustive
    loop over n, then σ out of scope n, then τ out of σ's target, then t
    in scope n.  Only the order of computation differs from that loop's:
    τs run in orbit order, not in declaration order.

    The unit laws, the columns σ(t), the tally and the witnesses are this
    process's work.  A large associativity family is split into parts,
    one per CPU this process may use: this process runs one, and a
    forked child runs each other one and sends back its bit masks (see
    ``_assoc_failures``), so ``subst`` then also runs in those children
    and must not rely on state it changes.  A ``subst`` that raises may
    raise first at a different instance than the plain loop, or a sweep
    in declaration order, would reach first; in a split sweep its
    exception is that of the lowest-numbered failing part, raised here
    once every child has ended.  The report keeps the associativity
    failures as the sweep's bit masks, and makes each violation only
    when it is read.
    """
    _nonnegative(depth=depth, max_scope=max_scope, image_depth=image_depth)
    if subst is None or subst is substitute:
        # the library's own substitute shares one memo of lifts per sweep
        sub, aux = _substitute, _remembered_lifts()
    else:
        sub, aux = _once, subst
    if image_depth is None:
        image_depth = max(depth - 1, 1)
    rep = LawReport()
    scopes = range(max_scope + 1)
    memo: dict[tuple[int, int], tuple[Term, ...]] = {}
    terms_at = {n: _enum(sig, n, depth, memo) for n in scopes}
    subs_from = {n: [Substitution(n, m, images) for m in scopes
                     for images in itertools.product(_enum(sig, m, image_depth, memo),
                                                     repeat=n)]
                 for n in scopes}
    instances = {
        "monad-right-unit": sum(map(len, terms_at.values())),
        "monad-left-unit": sum(n * len(subs) for n, subs in subs_from.items()),
        "monad-assoc": sum(len(terms_at[n]) * len(subs_from[s.target])
                           for n, subs in subs_from.items() for s in subs)}
    empty = [law for law, count in instances.items() if not count]
    if empty:
        raise ValueError(f"depth {depth}, scope {max_scope} and image depth "
                         f"{image_depth} give no instance of {', '.join(empty)}")

    for n in scopes:
        ts = terms_at[n]
        for t, got in zip(ts, _column(ts, unit_substitution(n), sub, aux)):
            rep.check(got == t, "monad-right-unit",
                      lambda t=t: f"t = {render_term(t)} changed under the "
                                  f"identity substitution")
    for n in scopes:
        for s in subs_from[n]:
            for i, got in enumerate(_column([Var(n, i) for i in range(n)], s, sub, aux)):
                rep.check(got == s.images[i], "monad-left-unit",
                          lambda i=i, s=s, got=got:
                          f"var {i} under sigma = {render_substitution(s)} "
                          f"gives {render_term(got)}")
    # associativity: the sweep's memos are gone before any witness is rendered
    masks = _assoc_failures(terms_at, subs_from, sub, aux)
    # each witness joins three of these shared pieces when it is read
    shown_t = {n: ["t = " + render_term(t) for t in ts] for n, ts in terms_at.items()}
    shown_s = {n: [render_substitution(s) for s in subs] for n, subs in subs_from.items()}
    shown_sigma = {n: ["; sigma = " + r for r in rs] for n, rs in shown_s.items()}
    shown_tau = {n: ["; tau = " + r for r in rs] for n, rs in shown_s.items()}
    rows = []
    for n in scopes:
        for i, s in enumerate(subs_from[n]):
            rep.tally(len(terms_at[n]) * len(masks[n][i]))
            rows.append((shown_t[n], shown_sigma[n][i], shown_tau[s.target], masks[n][i]))
    # the masks stay the report's: each violation is made when it is read
    rep.fail_bits("monad-assoc", rows)
    return rep


_UNSEEN = object()


def _once(memo: dict, t: Term, s: Substitution, subst) -> Term:
    """subst(t, s), called at most once per memo; the memo keeps only
    the terms subst is called on."""
    got = memo.get(t, _UNSEEN)
    if got is _UNSEEN:
        got = memo[t] = subst(t, s)
    return got


def _column(terms, s: Substitution, sub, aux) -> list[Term]:
    """Each term substituted by s, through one memo for the column."""
    memo: dict[Term, Term] = {}
    return [sub(memo, t, s, aux) for t in terms]


def _assoc_failures(terms_at: dict[int, tuple[Term, ...]],
                    subs_from: dict[int, list[Substitution]],
                    sub, aux) -> dict[int, list[list[int]]]:
    """Where sub(sub(t, σ), τ) == sub(t, τ∘σ) fails: at [n][i][k], for
    σ = subs_from[n][i] and τ = subs_from[σ.target][k], a bit mask over
    the terms t in scope n.  ``sub(memo, t, s, aux)`` substitutes with
    one memo per root substitution: ``_substitute`` with a lift, or
    ``_once`` with a user's subst.

    The τs out of each scope m fall into orbits: τs with the same target
    scope and the same multiset of images, which permute one another's
    images and so share their composites τ∘σ through renamings σ.  The
    orbits are dealt, heaviest first (by instance count) and each to the
    least loaded part, into as many parts as ``report._width`` allows, at
    most one per orbit; a sweep of fewer than ``report._SPLIT_BREAK_EVEN``
    instances is one part.  Each τ's masks depend on τ alone and land at
    its own [n][i][k], so the parts are independent: this process runs
    the first (``_assoc_part``) and a forked child runs each other one,
    after the columns σ(t) are built here and shared with the children
    as they stand.  A composite that τs of two parts share is
    substituted once in each part.  Any exception a part raises is
    raised here, the lowest-numbered failing part's, once every child
    has ended.  Only the order of computation depends on the split, so
    the masks, and the witnesses the caller renders from them, do not.
    """
    into = {m: [(n, i, s) for n, subs in subs_from.items()
                for i, s in enumerate(subs) if s.target == m]
            for m in subs_from}
    # the orbits in sweep order, each with its instance count
    orbits: list[tuple[int, list[tuple[int, int]]]] = []
    for m, taus in subs_from.items():
        rank: dict[Term, int] = {}
        for tau in taus:
            for img in tau.images:
                rank.setdefault(img, len(rank))
        keys = [(tau.target, sorted(rank[img] for img in tau.images)) for tau in taus]
        per_tau = sum(len(terms_at[n]) for n, _, _ in into[m])
        # a stable sort: within an orbit, τs keep declaration order
        for _, ks in itertools.groupby(sorted(range(len(taus)), key=keys.__getitem__),
                                       key=keys.__getitem__):
            ks = [(m, k) for k in ks]
            orbits.append((len(ks) * per_tau, ks))
    width = min(report._width(sum(w for w, _ in orbits), report._SPLIT_BREAK_EVEN),
                len(orbits))
    loads = [0] * width
    dealt: list[list[int]] = [[] for _ in range(width)]
    for o in sorted(range(len(orbits)), key=lambda o: -orbits[o][0]):
        p = loads.index(min(loads))
        loads[p] += orbits[o][0]
        dealt[p].append(o)
    parts = [[mk for o in sorted(d) for mk in orbits[o][1]] for d in dealt]

    mids = {n: [_column(terms_at[n], s, sub, aux) for s in subs]
            for n, subs in subs_from.items()}
    results = report._in_parts(lambda part: _assoc_part(terms_at, subs_from, into, mids,
                                                        part, sub, aux), parts)
    failed = {n: [[0] * len(subs_from[s.target]) for s in subs]
              for n, subs in subs_from.items()}
    for part, masks in zip(parts, results):
        masks = iter(masks)
        for m, k in part:
            for n, i, _ in into[m]:
                failed[n][i][k] = next(masks)
    return failed


def _assoc_part(terms_at, subs_from, into, mids, part: list[tuple[int, int]],
                sub, aux) -> list[int]:
    """The masks of the τs in part, each given as (m, k) for
    τ = subs_from[m][k]: for each τ in turn, one mask per σ in into[m].

    Under one τ each distinct term (an image of some σ, or some σ(t)) is
    substituted once.  A first pass builds every τ∘σ and counts how often
    each distinct composite recurs; the second substitutes the terms of a
    composite's source scope once for the part, and keeps that column
    only until the composite's last use.  Each σ(t) column (``mids``)
    under τ is read from τ's memo, with sub called only on the misses,
    and a bit mask is built only for a column that differs from its
    composite column.  The part lists each orbit's τs back to back, so a
    cached column dies soon after it is made (on the lam sweep at depth
    3, scope 2, in one part, at most 293 columns are alive at once
    instead of 1,067 in declaration order).
    """
    taus = [subs_from[m][k] for m, k in part]
    comp_ids: dict[Substitution, int] = {}
    comps: list[Substitution] = []
    uses: list[int] = []
    under: list[dict[Term, Term]] = []
    rows: list[list[int]] = []
    for tau in taus:
        memo: dict[Term, Term] = {}
        row = []
        for n, _, s in into[tau.source]:
            comp = Substitution(n, tau.target,
                                tuple([sub(memo, img, tau, aux) for img in s.images]))
            c = comp_ids.setdefault(comp, len(comps))
            if c == len(comps):
                comps.append(comp)
                uses.append(0)
            uses[c] += 1
            row.append(c)
        under.append(memo)
        rows.append(row)

    # a composite keeps its images alive: drop each once it is dead
    del comp_ids
    columns: dict[int, list[Term]] = {}
    out: list[int] = []
    for x, tau in enumerate(taus):
        memo, row = under[x], rows[x]
        under[x] = rows[x] = None
        for (n, i, _), c in zip(into[tau.source], row):
            col = columns.pop(c, None)
            if col is None:
                col = _column(terms_at[n], comps[c], sub, aux)
            uses[c] -= 1
            if uses[c]:
                columns[c] = col
            else:
                comps[c] = None
            mid = mids[n][i]
            got = list(map(memo.get, mid))
            if None in got:
                got = [sub(memo, ti, tau, aux) if g is None else g
                       for ti, g in zip(mid, got)]
            mask = 0
            if got != col:
                mask = sum(1 << j for j, (g, want) in enumerate(zip(got, col))
                           if not g == want)
            out.append(mask)
    return out


# --- the term functor and chain-based substitution ----------------------------

def _by_scope(elems) -> dict[int, list]:
    out: dict[int, list] = {}
    for e in elems:
        out.setdefault(e.scope, []).append(e)
    return out


def scoped_signature_functor(sig: BindingSignature, max_scope: int,
                             depth_budget: int) -> EnumEndofunctor:
    """The signature's term-building endofunctor on scope-tagged element
    sets: level d holds variables at every tracked scope plus
    constructor applications whose arguments come from level d − 1.

    Scopes are tracked up to max_scope plus the headroom binders can add
    within depth_budget, so every term of depth < depth_budget at scope
    ≤ max_scope is reachable.
    """
    cap = max_scope + max(depth_budget - 1, 0) * sig.max_binding()

    def apply(X: EnumSetObj) -> EnumSetObj:
        def level(d: int) -> list:
            if d == 0:
                return []
            out: list[Term] = [Var(n, i) for n in range(cap + 1) for i in range(n)]
            below = _by_scope(X.level(d - 1))
            for c in sig.constructors:
                for n in range(cap + 1):
                    pools = [below.get(n + k, []) for k in c.arity]
                    for args in itertools.product(*pools):
                        out.append(Ctor(n, c.name, args))
            return out
        return EnumSetObj(level, name=f"F({X.name})")

    def apply_map(h):
        def go(t: Term) -> Term:
            if isinstance(t, Var):
                return t
            return Ctor(t.scope, t.name, tuple(h(a) for a in t.args))
        return go

    return EnumEndofunctor(f"terms({sig.name})", apply, apply_map,
                           lambda d: max(d - 1, 0))


def binder_nesting(t: Term) -> int:
    """Deepest chain of binder crossings on any path into the term: the
    number of times a substitution gets lifted while traversing it.  The
    subterms are taken from a stack, not by recursion."""
    best, todo = 0, [(t, 0)]
    while todo:
        t, d = todo.pop()
        best = max(best, d)
        if not isinstance(t, Var):
            todo.extend((a, d + 1 if a.scope > t.scope else d) for a in t.args)
    return best


def substitution_pool(sig: BindingSignature, max_scope: int, image_depth: int,
                      rounds: int) -> dict[Substitution, int]:
    """Every substitution between scopes ≤ max_scope with images of
    depth < image_depth, closed under binder lifts for the given number
    of rounds; values record each entry's lift generation."""
    pool: dict[Substitution, int] = {}
    for n in range(max_scope + 1):
        for m in range(max_scope + 1):
            for images in itertools.product(enumerate_terms(sig, m, image_depth),
                                            repeat=n):
                pool[Substitution(n, m, images)] = 0
    arities = sorted({k for c in sig.constructors for k in c.arity if k > 0})
    frontier = sorted(pool, key=render_substitution)
    for r in range(1, rounds + 1):
        grown = []
        for s in frontier:
            for k in arities:
                lifted = lift_substitution(s, k)
                if lifted not in pool:
                    pool[lifted] = r
                    grown.append(lifted)
        if not grown:
            break
        frontier = grown
    return pool


def subst_via_mendler(sig: BindingSignature, depth: int, max_scope: int,
                      image_depth: int = 1) -> dict:
    """Substitution recovered by generalized Mendler iteration, without
    structural recursion on terms.

    The iteration runs over pairs (term, substitution) drawn from a
    finite lift-closed pool; the step sends a variable to its image and
    a constructor application to itself rebuilt with the recursive
    results under lifted substitutions.  Returns the full graph of the
    resulting map as a dict keyed by (term, substitution).
    """
    mb = sig.max_binding()
    rounds = max(depth - 1, 0)
    result_level = depth + max(image_depth - 1, 0)
    F = scoped_signature_functor(sig, max_scope, result_level)
    alg = adamek_initial_algebra(F)
    pool = substitution_pool(sig, max_scope, image_depth, rounds)
    by_source: dict[int, list[tuple[Substitution, int]]] = {}
    for s, gen in pool.items():
        by_source.setdefault(s.source, []).append((s, gen))

    # results can be deeper and wider in scope than the inputs, so the
    # target is a plain enumeration with the extra headroom
    cap_big = max_scope + rounds * mb + max(result_level - 1, 0) * mb

    def target_level(d: int) -> list:
        return [t for n in range(cap_big + 1) for t in enumerate_terms(sig, n, d)]

    X = EnumSetObj(target_level, name="terms")

    # a pair is admitted only if the lifts its binder spine will demand
    # stay inside the pool's closure; this set of pairs is closed under
    # the recursion's child steps.  Each term's nesting is worked out once
    # for this call, not once for each of its pairs at every stage.
    nesting = functools.cache(binder_nesting)

    def l_apply(A: EnumSetObj) -> EnumSetObj:
        def level(d: int) -> list:
            return [(t, s) for t in A.level(min(d, depth))
                    for (s, gen) in by_source.get(t.scope, ())
                    if gen + nesting(t) <= rounds]
        return EnumSetObj(level, name=f"Subst({A.name})")

    L = EnumEndofunctor("Subst", l_apply,
                        lambda h: (lambda p: (h(p[0]), p[1])),
                        lambda d: min(d, depth))

    lift = _remembered_lifts()

    def psi(A: EnumSetObj, h: dict):
        def go(pair):
            w, s = pair
            if isinstance(w, Var):
                return s.images[w.index]
            return Ctor(s.target, w.name,
                        tuple(h[(a, lift(s, a.scope - w.scope))] for a in w.args))
        return go

    return gen_mendler_iteration(F, alg, L, X, psi, result_level)


def check_subst_via_mendler(sig: BindingSignature, depth: int, max_scope: int,
                            image_depth: int = 1) -> LawReport:
    """The Mendler-built substitution agrees with the direct one on its
    whole domain."""
    h = subst_via_mendler(sig, depth, max_scope, image_depth)
    rep = LawReport()
    for (t, s), got in h.items():
        want = substitute(t, s)
        rep.check(got == want, "mendler-subst-agreement",
                  lambda t=t, s=s, got=got, want=want:
                  f"t = {render_term(t)}; sigma = {render_substitution(s)}; "
                  f"iteration gives {render_term(got)}, "
                  f"substitute gives {render_term(want)}")
    return rep


# --- a tiny arithmetic instance used by the iteration demos --------------------

def nat_signature() -> BindingSignature:
    return BindingSignature("nat", (Constructor("zero", ()), Constructor("succ", (0,))))


def nat_term(k: int) -> Term:
    t: Term = Ctor(0, "zero", ())
    for _ in range(k):
        t = Ctor(0, "succ", (t,))
    return t


def evenness_instance(depth: int):
    """Closed unary numerals with the step deciding evenness: zero maps
    to True and succ flips the recursive answer.  Returns
    (F, algebra, L, X, psi) ready for the Mendler machinery."""
    sig = nat_signature()
    F = scoped_signature_functor(sig, 0, depth)
    alg = adamek_initial_algebra(F)
    X = const_enum_set([False, True], "bool")

    def psi(A: EnumSetObj, h: dict):
        def go(e: Term):
            if e.name == "zero":
                return True
            return not h[e.args[0]]
        return go

    return F, alg, identity_endofunctor(), X, psi


def run_evenness_demo(depth: int = 6, uniqueness_level: int = 4) -> LawReport:
    """Evenness end to end: fixed-point equation at the given level, spot
    values at 3 and 4, and uniqueness at ``uniqueness_level``, counted level
    by level (each numeral's equation reads only its predecessor).  The
    numeral 4 sits at level 5, so a depth below 5 raises ValueError."""
    if depth < 5:
        raise ValueError(f"the evenness demo needs depth at least 5, where its "
                         f"spot values h(3) and h(4) sit; got {depth}")
    F, alg, L, X, psi = evenness_instance(depth)
    h = gen_mendler_iteration(F, alg, L, X, psi, depth)
    rep = check_mendler_fixed_point(F, alg, L, X, psi, h, depth)
    rep.check(h[nat_term(3)] is False, "evenness-value",
              "h(3) should be False")
    rep.check(h[nat_term(4)] is True, "evenness-value",
              "h(4) should be True")
    n = count_mendler_solutions(*evenness_instance(uniqueness_level), uniqueness_level)
    rep.check(n == 1, "mendler-uniqueness",
              f"{n} maps satisfy the equation at level {uniqueness_level}")
    return rep
