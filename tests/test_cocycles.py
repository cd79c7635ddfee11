"""Lawful non-strict monoidal categories from group 3-cocycles.

A categorical group has objects Z/n and hom(g, g) = Z/m, with no other
morphisms: composition adds, the tensor adds objects, and x ⊗ a acts on
a by an action of Z/n on Z/m.  With associator ω(x, y, z) and identity
unitors, its pentagon holds at (w, x, y, z) exactly where the twisted
coboundary δω vanishes, and its triangle at (x, z) exactly where
ω(x, 0, z) = 0.  Each verdict below is predicted by that formula,
computed here apart from the checker."""

import itertools
from collections import Counter

import pytest

from bindcat import FinCategory, MonoidalCategory, WhiskeredBifunctor, check_monoidal_laws


def trivial(x, a):
    return a


def negation(x, a):
    return -a if x % 2 else a


def categorical_group(n, m, omega, act=trivial):
    """The monoidal category on objects g0..g{n-1}, with the morphisms
    a0@g..a{m-1}@g at each g, whose associator at (x, y, z) is
    ω(x, y, z)@(x+y+z), inverse -ω, and whose unitors are identities."""
    span = range(n)
    objs = tuple(f"g{x}" for x in span)

    def mor(a, x):
        return f"a{a % m}@g{x % n}"

    base = FinCategory(
        objs, tuple((mor(a, x), objs[x], objs[x]) for x in span for a in range(m)),
        {objs[x]: mor(0, x) for x in span},
        {(mor(a, x), mor(b, x)): mor(a + b, x)
         for x in span for a in range(m) for b in range(m)})
    tensor = WhiskeredBifunctor(
        base, {(objs[x], objs[y]): objs[(x + y) % n] for x in span for y in span},
        {(objs[x], mor(a, y)): mor(act(x, a), x + y)
         for x in span for y in span for a in range(m)},
        {(mor(a, y), objs[z]): mor(a, y + z) for y in span for z in span for a in range(m)})
    unitor = {objs[x]: mor(0, x) for x in span}
    triples = list(itertools.product(span, repeat=3))
    return MonoidalCategory(
        base, objs[0], tensor, unitor, dict(unitor), dict(unitor), dict(unitor),
        {tuple(objs[i] for i in t): mor(omega(*t), sum(t)) for t in triples},
        {tuple(objs[i] for i in t): mor(-omega(*t), sum(t)) for t in triples})


def coboundary(n, m, omega, act=trivial):
    """The quadruples (w, x, y, z) where δω is not 0 mod m."""
    return [(w, x, y, z) for w, x, y, z in itertools.product(range(n), repeat=4)
            if (act(w, omega(x, y, z)) - omega((w + x) % n, y, z) + omega(w, (x + y) % n, z)
                - omega(w, x, (y + z) % n) + omega(w, x, y)) % m]


def cocycle(n, k):
    """ω_k(a, b, c) = k·a·⌊(b + c)/n⌋, a 3-cocycle on Z/n valued in Z/n."""
    return lambda a, b, c: k * a * ((b + c) // n)


def changed(omega, at, by):
    return lambda *t: omega(*t) + (by if t == at else 0)


def places(rep, law):
    """Where each of the report's violations of law lies, as the indices
    of the objects its witness names."""
    return [tuple(int(g) for g in v.witness[len("at (g"):v.witness.index(")")].split(",g"))
            for v in rep.by_law(law)]


COCYCLES = [(n, k) for n in range(2, 6) for k in range(n)]
CHECKS = {2: 184, 3: 765, 4: 2_216, 5: 5_155}


@pytest.mark.parametrize("n, k", COCYCLES, ids=[f"n{n}-k{k}" for n, k in COCYCLES])
def test_every_cocycle_gives_a_lawful_monoidal_category(n, k):
    omega = cocycle(n, k)
    assert coboundary(n, n, omega) == []
    moved = any(omega(*t) % n for t in itertools.product(range(n), repeat=3))
    assert moved == (k > 0)  # every k > 0 has a non-identity associator
    rep = check_monoidal_laws(categorical_group(n, n, omega))
    assert (rep.ok, rep.checks_run) == (True, CHECKS[n])


def test_a_changed_cocycle_fails_the_pentagon_where_its_coboundary_is_not_zero():
    omega = changed(cocycle(3, 1), (1, 2, 2), 1)
    assert len(coboundary(3, 3, omega)) == 7
    rep = check_monoidal_laws(categorical_group(3, 3, omega))
    assert Counter(v.law for v in rep.violations) == {"pentagon": 7}
    assert places(rep, "pentagon") == coboundary(3, 3, omega)
    assert rep.violations[0].witness == \
        "at (g1,g1,g1,g2): two-step side = a2@g2, three-step side = a0@g2"


def twisted_coboundary(x, y, z):
    """δθ for the normalized 2-cochain θ on Z/2 valued in Z/3 that is 1 at
    (1, 1) and 0 elsewhere, with Z/2 acting by negation: not 0, yet
    cohomologous to 0."""
    def theta(a, b):
        return int(a % 2 == b % 2 == 1)
    return negation(x, theta(y, z)) - theta(x + y, z) + theta(x, y + z) - theta(x, y)


CHANGES = [(t, by) for t in itertools.product(range(2), repeat=3) for by in (1, 2)]


def test_a_twisted_coboundary_gives_a_lawful_monoidal_category():
    assert twisted_coboundary(1, 1, 1) % 3 != 0
    assert coboundary(2, 3, twisted_coboundary, negation) == []
    rep = check_monoidal_laws(categorical_group(2, 3, twisted_coboundary, negation))
    assert (rep.ok, rep.checks_run) == (True, 280)


@pytest.mark.parametrize("at, by", CHANGES,
                         ids=[f"{''.join(map(str, t))}+{by}" for t, by in CHANGES])
def test_a_changed_twisted_coboundary_fails_where_predicted(at, by):
    omega = changed(twisted_coboundary, at, by)
    rep = check_monoidal_laws(categorical_group(2, 3, omega, negation))
    pentagon = coboundary(2, 3, omega, negation)
    triangle = [(at[0], at[2])] if at[1] == 0 else []  # where ω(x, 0, z) is not 0
    assert len(pentagon) in (0, 4, 6)
    assert (places(rep, "pentagon"), places(rep, "triangle")) == (pentagon, triangle)
    assert len(rep.violations) == len(pentagon) + len(triangle)


def test_split_cocycle_corpus_reports_as_one_part(split):
    corpus = [categorical_group(n, n, cocycle(n, k)) for n, k in COCYCLES]
    corpus += [categorical_group(3, 3, changed(cocycle(3, 1), (1, 2, 2), 1))]
    corpus += [categorical_group(2, 3, changed(twisted_coboundary, at, by), negation)
               for at, by in CHANGES]

    def reports():
        return [(rep.checks_run, [(v.law, v.witness) for v in rep.violations])
                for rep in map(check_monoidal_laws, corpus)]
    split(1)
    one = reports()
    assert sum(bool(pairs) for _, pairs in one) > 1
    for workers in (2, 3):
        split(workers)
        assert reports() == one, workers
    assert set(split.widths) == {1, 2, 3}


def _without(M, key):
    """Check M with the composite at key deleted from its base's table."""
    comp = M.base.comp
    M.base.comp = {k: v for k, v in comp.items() if k != key}
    try:
        return check_monoidal_laws(M)
    finally:
        M.base.comp = comp


def test_every_deleted_composite_fails_the_monoidal_laws():
    # the whisker-composition and triangle laws fail an instance whose
    # composite is absent, so no single deletion from a lawful table passes
    corpus = [categorical_group(n, n, cocycle(n, k)) for n, k in COCYCLES if n <= 4]
    corpus.append(categorical_group(2, 3, twisted_coboundary, negation))
    deletions = [(M, key) for M in corpus for key in list(M.base.comp)]
    assert (len(corpus), len(deletions)) == (10, 371)
    assert [key for M, key in deletions if _without(M, key).ok] == []


def test_a_deleted_composite_fails_whisker_composition():
    rep = _without(categorical_group(3, 3, cocycle(3, 1)), ("a0@g0", "a1@g0"))
    assert rep.checks_run == 724
    assert Counter(v.law for v in rep.violations) == {
        "lwhisker-composition": 2, "rwhisker-composition": 2}
    assert rep.violations[0].witness == \
        "g2⊗(a0@g1 after a1@g1) = a1@g0 but (g2⊗a0@g1 after g2⊗a1@g1) = None"
