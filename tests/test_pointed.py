"""Pointed endofunctors, Ptd(C), as a displayed monoidal category over
End(C), the source paper's parameter category for strengths.

Over an endofunctor F the displayed objects are its points η : Id ⇒ F;
over α : F ⇒ G there is one displayed morphism η → α ∘ η.  The tensor
of points η over F and η′ over G is (η ⊗ G) ∘ (Id ⊗ η′), and every
structural map is the base's, at the point its source needs.  On the
idempotent base the fibers hold up to two points, so the displayed
checker meets real fibers here."""

import pytest

from bindcat import (
    FinCategory,
    Monoid,
    chain_category,
    check_displayed_monoidal,
    check_functor,
    check_monoidal_laws,
    endofunctor_monoidal,
    enumerate_monoids,
    hom_enumerate,
    total_category,
    total_monoidal,
)
from bindcat.displayed import DisplayedCategory, DisplayedMonoidal


def idempotent_arrow() -> FinCategory:
    """a → b with an idempotent e on b: e ∘ e = e and e ∘ f = ef."""
    return FinCategory(
        ("a", "b"),
        (("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b"), ("e", "b", "b"),
         ("ef", "a", "b")),
        {"a": "id_a", "b": "id_b"},
        {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("f", "id_a"): "f",
         ("id_b", "f"): "f", ("e", "id_b"): "e", ("id_b", "e"): "e", ("e", "e"): "e",
         ("e", "f"): "ef", ("ef", "id_a"): "ef", ("id_b", "ef"): "ef", ("e", "ef"): "ef"})


def pointed_endofunctors(M) -> DisplayedMonoidal:
    """Ptd(C) over M = End(C).  A point is named by its transformation
    Id ⇒ F, and the displayed morphism over α at the point η by
    ``α*η``; it runs η → α ∘ η."""
    C, T, I = M.base, M.tensor, M.unit
    comp, on = C.comp, C.tgt  # on(η) is the functor the point η is over

    def over(alpha: str, eta: str) -> str:
        return f"{alpha}*{eta}"

    def ten(eta: str, eta1: str) -> str:
        return comp[(T.rw(eta, on(eta1)), T.lw(I, eta1))]

    points = {F: hom_enumerate(C, I, F) for F in C.objects}
    every = [eta for pts in points.values() for eta in pts]
    mors = [(alpha, eta) for alpha, F, _ in C.morphisms for eta in points[F]]
    D = DisplayedCategory(
        C, points,
        {(alpha, eta, comp[(alpha, eta)]): [over(alpha, eta)] for alpha, eta in mors},
        {eta: over(C.id_of(on(eta)), eta) for eta in every},
        {(over(beta, comp[(alpha, eta)]), over(alpha, eta)): over(comp[(beta, alpha)], eta)
         for alpha, eta in mors for beta, s, _ in C.morphisms if s == on(alpha)})
    unit = C.id_of(I)
    triples = [(p, q, r) for p in every for q in every for r in every]

    def unitor(table: dict, source) -> dict:
        return {eta: over(table[on(eta)], source(eta)) for eta in every}

    def associator(table: dict, source) -> dict:
        return {k: over(table[tuple(map(on, k))], source(*k)) for k in triples}

    return DisplayedMonoidal(
        M, D, unit,
        {(eta, eta1): ten(eta, eta1) for eta in every for eta1 in every},
        {(eta, over(alpha, eta1)): over(T.lw(on(eta), alpha), ten(eta, eta1))
         for eta in every for alpha, eta1 in mors},
        {(over(alpha, eta), eta1): over(T.rw(alpha, on(eta1)), ten(eta, eta1))
         for alpha, eta in mors for eta1 in every},
        unitor(M.lunitor, lambda eta: ten(unit, eta)),
        unitor(M.lunitor_inv, lambda eta: eta),
        unitor(M.runitor, lambda eta: ten(eta, unit)),
        unitor(M.runitor_inv, lambda eta: eta),
        associator(M.associator, lambda x, y, z: ten(ten(x, y), z)),
        associator(M.associator_inv, lambda x, y, z: ten(x, ten(y, z))))


# base, fiber sizes, displayed checks, checks on the total, monoids
CASES = {
    "idempotent": (idempotent_arrow, [0, 0, 1, 1, 1, 1, 2, 2, 2], 48_385, 66_623, 2),
    "chain3": (lambda: chain_category(3), [0, 0, 0, 0, 1, 1, 0, 1, 1, 1], 1_950, 2_819, 4),
}


@pytest.fixture(scope="module", params=list(CASES))
def ptd(request):
    build, *expected = CASES[request.param]
    M = endofunctor_monoidal(build()).monoidal
    return M, pointed_endofunctors(M), expected


def test_fibers_hold_the_points(ptd):
    M, DM, (sizes, *_) = ptd
    assert [len(DM.disp_cat.fiber(F)) for F in M.base.objects] == sizes


def test_ptd_is_lawful_on_both_sides(ptd):
    _, DM, (_, disp_checks, total_checks, _) = ptd
    rep = check_displayed_monoidal(DM)
    assert (rep.ok, rep.checks_run) == (True, disp_checks)
    rep = check_monoidal_laws(total_monoidal(DM))
    assert (rep.ok, rep.checks_run) == (True, total_checks)


def test_monoids_of_the_total_are_the_monads(ptd):
    # a monoid in Ptd(C) is a monad with its unit as the point
    M, DM, (*_, n_monoids) = ptd
    _, proj = total_category(DM.disp_cat)
    found = [Monoid(proj.obj(m.carrier), proj.mor(m.unit_map), proj.mor(m.mult))
             for m in enumerate_monoids(total_monoidal(DM))]
    key = lambda m: (m.carrier, m.unit_map, m.mult)
    assert len({key(m) for m in found}) == len(found) == n_monoids
    assert sorted(found, key=key) == sorted(enumerate_monoids(M), key=key)


def test_the_projection_is_strict_monoidal(ptd):
    M, DM, _ = ptd
    TM = total_monoidal(DM)
    _, proj = total_category(DM.disp_cat)
    assert check_functor(proj).ok
    po, pm = proj.obj, proj.mor
    assert po(TM.unit) == M.unit
    T, B = TM.tensor, M.tensor
    assert all(po(v) == B.obj(po(x), po(y)) for (x, y), v in T.obj_table.items())
    assert all(pm(v) == B.lw(po(x), pm(f)) for (x, f), v in T.lwhisker.items())
    assert all(pm(v) == B.rw(pm(f), po(z)) for (f, z), v in T.rwhisker.items())
    for table in ("lunitor", "lunitor_inv", "runitor", "runitor_inv"):
        base = getattr(M, table)
        assert all(pm(v) == base[po(x)] for x, v in getattr(TM, table).items()), table
    for table in ("associator", "associator_inv"):
        base = getattr(M, table)
        assert all(pm(v) == base[tuple(map(po, k))] for k, v in getattr(TM, table).items())
