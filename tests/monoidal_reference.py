"""A textbook verdict on monoidal tables, for differential tests.

``ref_lawful(M)`` reads the string tables of a ``MonoidalCategory`` as
they stand, with no index and no library loop, and returns the name of
the first clause of the definition that they fail, or None when every
clause holds.  The clauses run in the order of the definition (Mac Lane,
*Categories for the Working Mathematician*, I.8 and VII.1): the category,
the tensor as a whiskered bifunctor, then the unitors and the associator
with their endpoints and inverses, natural in each argument, then the two
coherence diagrams.  A clause is only read once the clauses before it hold, so
every composite it takes is of a composable pair and is in the table.

Clause names are CamelCase, so that no word of this file spells a law
name of the library and the census in ``test_law_census.py`` still
counts only the tests that make a law fail."""

import itertools


def ref_lawful(M) -> str | None:
    """The first clause of the definition that M's tables fail, or None."""
    C, T, I = M.base, M.tensor, M.unit
    obj = list(C.objects)
    ends = {m: (s, t) for m, s, t in C.morphisms}
    mors = list(ends)
    ident, comp = C.identity, C.comp

    def c(g, f):
        return comp[(g, f)]

    def src(m):
        return ends[m][0]

    def tgt(m):
        return ends[m][1]

    # the category
    if any(s not in obj or t not in obj for s, t in ends.values()):
        return "MorphismEnds"
    if set(ident) != set(obj) or any(m not in ends for m in ident.values()):
        return "IdentityTable"
    if any(ends[ident[x]] != (x, x) for x in obj):
        return "IdentityEnds"
    composable = {(g, f) for g in mors for f in mors if tgt(f) == src(g)}
    if any(k not in composable or m not in ends for k, m in comp.items()):
        return "CompositeKeys"
    if any(k not in comp for k in composable):
        return "CompositeTotal"
    if any(ends[c(g, f)] != (src(f), tgt(g)) for g, f in composable):
        return "CompositeEnds"
    if any(c(ident[tgt(f)], f) != f or c(f, ident[src(f)]) != f for f in mors):
        return "UnitLaws"
    if any(c(h, c(g, f)) != c(c(h, g), f)
           for g, f in composable for h in mors if src(h) == tgt(g)):
        return "Associativity"

    # the tensor, as object table and whiskers
    ten, lw, rw = T.obj_table, T.lwhisker, T.rwhisker
    if set(ten) != set(itertools.product(obj, obj)) or any(x not in obj for x in ten.values()):
        return "TensorTable"
    if set(lw) != set(itertools.product(obj, mors)) or any(m not in ends for m in lw.values()):
        return "LeftWhiskerTable"
    if set(rw) != set(itertools.product(mors, obj)) or any(m not in ends for m in rw.values()):
        return "RightWhiskerTable"
    if any(ends[lw[(x, f)]] != (ten[(x, src(f))], ten[(x, tgt(f))]) for x in obj for f in mors):
        return "LeftWhiskerEnds"
    if any(ends[rw[(f, x)]] != (ten[(src(f), x)], ten[(tgt(f), x)]) for x in obj for f in mors):
        return "RightWhiskerEnds"
    if any(lw[(x, ident[y])] != ident[ten[(x, y)]] or rw[(ident[x], y)] != ident[ten[(x, y)]]
           for x in obj for y in obj):
        return "WhiskerIdentities"
    if any(lw[(x, c(g, f))] != c(lw[(x, g)], lw[(x, f)])
           or rw[(c(g, f), x)] != c(rw[(g, x)], rw[(f, x)])
           for g, f in composable for x in obj):
        return "WhiskerComposites"
    # g: x → x' and f: y → y' commute: (g⊗y') ∘ (x⊗f) = (x'⊗f) ∘ (g⊗y)
    if any(c(rw[(g, tgt(f))], lw[(src(g), f)]) != c(lw[(tgt(g), f)], rw[(g, src(f))])
           for f in mors for g in mors):
        return "WhiskerExchange"

    # the unitors and the associator
    lu, lu_inv, ru, ru_inv = M.lunitor, M.lunitor_inv, M.runitor, M.runitor_inv
    a, a_inv = M.associator, M.associator_inv
    triples = list(itertools.product(obj, obj, obj))
    if I not in obj:
        return "UnitObject"
    if any(set(t) != set(obj) or any(m not in ends for m in t.values())
           for t in (lu, lu_inv, ru, ru_inv)):
        return "UnitorTables"
    if any(set(t) != set(triples) or any(m not in ends for m in t.values()) for t in (a, a_inv)):
        return "AssociatorTables"
    if any(ends[lu[x]] != (ten[(I, x)], x) or ends[lu_inv[x]] != (x, ten[(I, x)])
           or ends[ru[x]] != (ten[(x, I)], x) or ends[ru_inv[x]] != (x, ten[(x, I)])
           for x in obj):
        return "UnitorEnds"
    if any(ends[a[(x, y, z)]] != (ten[(ten[(x, y)], z)], ten[(x, ten[(y, z)])])
           or ends[a_inv[(x, y, z)]] != ends[a[(x, y, z)]][::-1] for x, y, z in triples):
        return "AssociatorEnds"
    if any(c(fwd[x], bwd[x]) != ident[x] or c(bwd[x], fwd[x]) != ident[src(fwd[x])]
           for fwd, bwd in ((lu, lu_inv), (ru, ru_inv)) for x in obj):
        return "UnitorInverses"
    if any(c(a[t], a_inv[t]) != ident[tgt(a[t])] or c(a_inv[t], a[t]) != ident[src(a[t])]
           for t in triples):
        return "AssociatorInverses"
    if any(c(lu[tgt(f)], lw[(I, f)]) != c(f, lu[src(f)])
           or c(ru[tgt(f)], rw[(f, I)]) != c(f, ru[src(f)]) for f in mors):
        return "UnitorsNatural"
    if any(c(a[(t, y, z)], rw[(rw[(f, y)], z)]) != c(rw[(f, ten[(y, z)])], a[(s, y, z)])
           or c(a[(y, t, z)], rw[(lw[(y, f)], z)]) != c(lw[(y, rw[(f, z)])], a[(y, s, z)])
           or c(a[(y, z, t)], lw[(ten[(y, z)], f)]) != c(lw[(y, lw[(z, f)])], a[(y, z, s)])
           for f, (s, t) in ends.items() for y in obj for z in obj):
        return "AssociatorNatural"

    # coherence: (x⊗λ_z) ∘ α_(x,I,z) = ρ_x⊗z, and the five-term diagram
    if any(c(lw[(x, lu[z])], a[(x, I, z)]) != rw[(ru[x], z)] for x in obj for z in obj):
        return "UnitCoherence"
    if any(c(a[(w, x, ten[(y, z)])], a[(ten[(w, x)], y, z)])
           != c(lw[(w, a[(x, y, z)])], c(a[(w, ten[(x, y)], z)], rw[(a[(w, x, y)], z)]))
           for w, x, y, z in itertools.product(obj, repeat=4)):
        return "Pentagon"
    return None
