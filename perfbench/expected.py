"""Expected answers for every checker call the benchmark makes.

Two kinds, kept apart on purpose:

* independent oracles, derived here without calling the code under test
  (counting formulas and a reference substitution);
* ``SEED_PINNED`` counts, which exist only because the seed commit
  produced them.  They catch regressions; they are not evidence of
  correctness, and a change that alters what a checker counts must say
  so when it updates them.
"""

from __future__ import annotations

import math

# --- independent oracles -------------------------------------------------------


def term_count(arities: list[tuple[int, ...]], scope: int, depth: int) -> int:
    """Terms of depth < depth at a scope, from the arity recurrence
    T(n, 0) = 0, T(n, d) = n + sum_c prod_{k in arity c} T(n + k, d - 1)."""
    if depth <= 0:
        return 0
    return scope + sum(math.prod(term_count(arities, scope + k, depth - 1) for k in arity)
                       for arity in arities)


def monad_law_checks(arities: list[tuple[int, ...]], depth: int, max_scope: int,
                     image_depth: int | None = None) -> int:
    """Instances examined by the exhaustive monad-law sweep.

    With I(m) images at scope m and S(n) = sum_m I(m)^n substitutions
    out of scope n: right unit sum_n T(n), left unit sum_n n S(n),
    associativity sum_{n,m} I(m)^n T(n) S(m).
    """
    if image_depth is None:
        image_depth = max(depth - 1, 1)
    scopes = range(max_scope + 1)
    T = {n: term_count(arities, n, depth) for n in scopes}
    I = {m: term_count(arities, m, image_depth) for m in scopes}
    S = {n: sum(I[m] ** n for m in scopes) for n in scopes}
    return (sum(T.values())
            + sum(n * S[n] for n in scopes)
            + sum(I[m] ** n * T[n] * S[m] for n in scopes for m in scopes))


def chain_endofunctors(n: int) -> int:
    """Endofunctors of the n-chain are its monotone self-maps: C(2n-1, n)."""
    return math.comb(2 * n - 1, n)


def chain_monoids(n: int) -> int:
    """Monoids in End(n-chain) are the monads, i.e. the closure
    operators of the chain: 2^(n-1)."""
    return 2 ** (n - 1)


def evenness_candidates(level: int) -> int:
    """Maps from the closed unary numerals below a level (there are
    ``level`` of them) into bool."""
    return 2 ** level


def reference_substitute(t, s, Var, Ctor):
    """De Bruijn substitution written from scratch: index j < k under k
    fresh binders stays bound, and free indices shift by k."""

    def shift(u, k, cutoff):
        if isinstance(u, Var):
            i = u.index + k if u.index >= cutoff else u.index
            return Var(u.scope + k, i)
        return Ctor(u.scope + k, u.name,
                    tuple(shift(a, k, cutoff + a.scope - u.scope) for a in u.args))

    def go(u, images, target):
        if isinstance(u, Var):
            return images[u.index]
        out = []
        for a in u.args:
            k = a.scope - u.scope
            lifted = tuple(Var(target + k, j) for j in range(k)) + \
                tuple(shift(img, k, 0) for img in images)
            out.append(go(a, lifted, target + k))
        return Ctor(target, u.name, tuple(out))

    return go(t, s.images, s.target)


# --- seed-pinned regression counts ----------------------------------------------

SEED_PINNED = {
    "nat_transes.n3": 50,
    "nat_transes.n4": 490,
    "whiskered_laws.n4.checks": 564_970,
    "monoidal_laws.n4.checks": 3_997_385,
    "displayed_monoidal.n4.checks": 2_234_975,
    "param_demo.checks": 151_741,
    "subst_via_mendler.checks": 4_548,
    "sabotaged.violations": {"monad-assoc": 77_256, "monad-right-unit": 15},
}
