"""The table checkers index their tables afresh on every call, their
check counts on End(chain 3) stay as pinned, index grids share equal
rows, the row-sharing pentagon agrees with a plain loop, and each loop
shared by the base and displayed checkers counts the same on a base
index and on its trivial displayed one."""

import itertools

import pytest

from bindcat import (
    chain_category,
    check_category_laws,
    check_displayed_monoidal,
    check_monoidal_laws,
    check_whiskered_bifunctor,
    endofunctor_monoidal,
    total_monoidal,
    trivial_displayed_monoidal,
)
from bindcat.displayed import _disp_monoidal_index, _DispIndex
from bindcat.fincat import _assoc_law, _grid, _unit_laws
from bindcat.monoidal import (_associator_isos, _index_monoidal, _interchange, _pentagon,
                              _triangle, _unitor_isos, _whisker_composition, _whisker_identities)
from bindcat.report import LawReport


@pytest.fixture(scope="module")
def chain3():
    return endofunctor_monoidal(chain_category(3)).monoidal


def _other(ring, value):
    return ring[(ring.index(value) + 1) % len(ring)]


def test_a_changed_tensor_is_seen_by_the_next_check(chain3):
    T = chain3.tensor
    assert check_whiskered_bifunctor(T).ok
    assert check_monoidal_laws(chain3).ok
    key = next(iter(T.lwhisker))
    old = T.lwhisker[key]
    T.lwhisker[key] = _other([m for m, _, _ in T.base.morphisms], old)
    try:
        assert not check_whiskered_bifunctor(T).ok
        assert not check_monoidal_laws(chain3).ok
    finally:
        T.lwhisker[key] = old
    assert check_monoidal_laws(chain3).ok


def test_a_changed_displayed_structure_is_seen_by_the_next_check(chain3):
    DM = trivial_displayed_monoidal(chain3)
    assert check_displayed_monoidal(DM).ok
    key = next(iter(DM.disp_associator))
    mors = [ff for bucket in DM.disp_cat.disp_hom.values() for ff in bucket]
    DM.disp_associator[key] = _other(mors, DM.disp_associator[key])
    rep = check_displayed_monoidal(DM)
    assert {v.law for v in rep.violations} >= {"disp-associator-over"}


def test_chain3_counts_are_pinned(chain3, end_chain_counts):
    declared = end_chain_counts(3)
    assert check_category_laws(chain3.base).checks_run == 1_125
    assert check_whiskered_bifunctor(chain3.tensor).checks_run == 7_200
    assert declared.whiskered == 7_200
    assert check_monoidal_laws(chain3).checks_run == 35_460
    assert declared.monoidal == 35_460
    DM = trivial_displayed_monoidal(chain3)
    assert check_displayed_monoidal(DM).checks_run == 21_596
    assert check_monoidal_laws(total_monoidal(DM)).checks_run == 35_460


@pytest.mark.parametrize("k, counts", [
    (2, (3, 6, 10, 150, 513)),
    (3, (10, 50, 175, 7_200, 35_460)),
    (4, (35, 490, 4_116, 564_970, 3_997_385)),
])
def test_declared_counts_derive_from_monotone_maps(end_chain_counts, k, counts):
    # n, m and c are the objects, morphisms and comp entries of End(chain k)
    assert end_chain_counts(k) == counts


# --- shared grid rows and the pentagon kernel ----------------------------------------

def _row_ids(grid) -> set[int]:
    return {id(row) for plane in grid for row in plane}


def test_grid_keeps_equal_rows_of_one_grid_as_one_list():
    on = {"a": 0, "b": 1, "c": 2}
    table = {(x, y): "a" if y == "c" else "b" for x in "abc" for y in "abc"}
    del table[("c", "a")]
    grid = _grid(table, "table", on, on, on)
    assert grid == [[1, 1, 0], [1, 1, 0], [None, 1, 0]]
    assert grid[0] is grid[1] and grid[2] is not grid[0]
    cube = _grid({(x, y, z): "a" for x in "ab" for y in "abc" for z in "abc"},
                 "cube", on, on, on, on)
    assert cube[0][0] == [0, 0, 0] and cube[2][2] == [None] * 3
    assert len(_row_ids(cube)) == 2


def test_two_grids_share_no_row(chain3):
    # associator and associator_inv hold the same numbers on End(chain 3)
    _, mx = _index_monoidal(chain3)
    rows = _row_ids(mx.a)
    assert len(rows) == 10  # distinct rows among 100
    assert len({tuple(row) for plane in mx.a for row in plane}) == 10
    assert mx.a == mx.a_inv
    assert rows.isdisjoint(_row_ids(mx.a_inv))
    tensor_rows = [mx.ten.obj, mx.ten.lw, mx.ten.rw]
    assert all({id(r) for r in g}.isdisjoint({id(r) for r in h})
               for g, h in itertools.combinations(tensor_rows, 2))


def _plain_pentagon(rep, law, objs, mors, comp, ten, lw, rw, A) -> int:
    # the four-deep loop the row-sharing kernel replaced, kept as its oracle
    passed = 0
    n = len(objs)
    for w in range(n):
        A_w, lw_w, ten_w = A[w], lw[w], ten[w]
        for x in range(n):
            wx = ten_w[x]
            if wx is None:
                continue
            A_wx, A_wx_, A_x, ten_x = A_w[x], A[wx], A[x], ten[x]
            for y in range(n):
                xy, a = ten_x[y], A_wx[y]
                if xy is None or a is None:
                    continue
                rw_a, A_w_xy, A_wx_y, A_xy, ten_y = rw[a], A_w[xy], A_wx_[y], A_x[y], ten[y]
                for z in range(n):
                    try:
                        lhs = comp[A_wx[ten_y[z]]][A_wx_y[z]]
                        rhs = comp[lw_w[A_xy[z]]][comp[A_w_xy[z]][rw_a[z]]]
                    except (KeyError, TypeError):
                        continue
                    if lhs == rhs:
                        passed += 1
                    else:
                        rep.check(False, law,
                                  f"at ({objs[w]},{objs[x]},{objs[y]},{objs[z]}): "
                                  f"two-step side = {mors[lhs]}, three-step side = {mors[rhs]}")
    return passed


def _both_pentagons(cx, mx) -> tuple:
    out = []
    tables = (cx.objects, cx.mors, cx.comp, mx.ten.obj, mx.ten.lw, mx.ten.rw, mx.a)
    for kernel in (lambda rep: _pentagon(rep, range(len(cx.objects)), "pentagon", cx, mx),
                   lambda rep: _plain_pentagon(rep, "pentagon", *tables)):
        rep = LawReport()
        passed = kernel(rep)
        out.append((passed, [(v.law, v.witness) for v in rep.violations]))
    return tuple(out)


def _unshared(grid) -> list:
    return [[list(row) for row in plane] for plane in grid]


def test_pentagon_agrees_with_a_plain_loop_when_no_row_is_shared():
    cx, mx = _index_monoidal(endofunctor_monoidal(chain_category(4)).monoidal)
    tx = mx.ten
    tx.obj, tx.lw, tx.rw = ([list(row) for row in g] for g in (tx.obj, tx.lw, tx.rw))
    mx.a = _unshared(mx.a)
    assert len(_row_ids(mx.a)) == 35 ** 2
    rows, plain = _both_pentagons(cx, mx)
    assert rows == plain == (35 ** 4, [])


def test_pentagon_agrees_with_a_plain_loop_over_absent_entries(chain3):
    DM = trivial_displayed_monoidal(chain3)
    for key in list(DM.disp_associator)[::37][:3]:
        del DM.disp_associator[key]
    cx, _ = _index_monoidal(chain3)
    dx = _DispIndex(DM.disp_cat, cx)
    dm = _disp_monoidal_index(DM, dx)
    assert sum(row.count(None) for plane in dm.a for row in plane) == 3
    rows, plain = _both_pentagons(dx, dm)
    assert rows == plain == (9_867, [])


def test_pentagon_agrees_with_a_plain_loop_on_a_changed_associator(chain3):
    M = chain3
    key = ("Id", "Id", "Id")
    old = M.associator[key]
    M.associator[key] = _other([m for m, _, _ in M.base.morphisms], old)
    try:
        cx, mx = _index_monoidal(M)
    finally:
        M.associator[key] = old
    rows, plain = _both_pentagons(cx, mx)
    assert rows == plain
    assert rows[0] == 9_991 and len(rows[1]) == 3
    assert rows[1][0] == ("pentagon", "at (F1,Id,Id,Id): two-step side = id_F1, "
                                      "three-step side = F1=>F3")


@pytest.mark.parametrize("table", ["lwhisker", "rwhisker", "associator"])
def test_pentagon_agrees_with_a_plain_loop_on_single_changes(chain3, table):
    # rows that differ only in the whisker or associator entry they read
    # must not be shared, across (x, y) or across w
    entries = getattr(chain3 if table == "associator" else chain3.tensor, table)
    mors = [m for m, _, _ in chain3.base.morphisms]
    for key in list(entries)[::50]:
        old = entries[key]
        entries[key] = _other(mors, old)
        try:
            cx, mx = _index_monoidal(chain3)
        finally:
            entries[key] = old
        rows, plain = _both_pentagons(cx, mx)
        assert rows == plain, key


# --- the shared loops on base and displayed indexes ----------------------------------

def _endpoints(cx):
    def entry(rep, which, fwd, bwd, s, t, at) -> int:
        ok = cx.src[fwd] == s and cx.tgt[fwd] == t
        rep.check(ok, which + "-endpoints", f"{which} at {at}")
        return int(ok)
    return entry


def _witness(*args) -> str:
    return f"at {args}"


SHARED_LOOPS = {
    "unit laws": lambda rep, cx, mx: _unit_laws(rep, "", cx, "id_{}"),
    "associativity": lambda rep, cx, mx: _assoc_law(rep, "", cx),
    "whisker identities": lambda rep, cx, mx: _whisker_identities(
        rep, range(len(cx.objects)), "", cx, mx.ten, "⊗", "id_{}"),
    "whisker composition": lambda rep, cx, mx: _whisker_composition(
        rep, range(len(cx.comp_items)), "", cx, mx.ten, "⊗"),
    "interchange": lambda rep, cx, mx: _interchange(
        rep, range(len(cx.mors)), "interchange", cx, mx.ten, _witness),
    "unitor isos": lambda rep, cx, mx: _unitor_isos(
        rep, range(len(cx.objects)), "", cx, mx, _endpoints(cx), "id_{}"),
    "associator isos": lambda rep, cx, mx: _associator_isos(
        rep, range(len(cx.objects)), "", cx, mx, _endpoints(cx), "id_{}"),
    "triangle": lambda rep, cx, mx: _triangle(
        rep, range(len(cx.objects)), "triangle", cx, mx, _witness),
    "pentagon": lambda rep, cx, mx: _pentagon(rep, range(len(cx.objects)), "pentagon", cx, mx),
}


@pytest.mark.parametrize("loop", list(SHARED_LOOPS))
def test_a_shared_loop_counts_alike_on_base_and_trivial_displayed(chain3, loop):
    DM = trivial_displayed_monoidal(chain3)
    cx, mx = _index_monoidal(chain3)
    dx = _DispIndex(DM.disp_cat, cx)
    dm = _disp_monoidal_index(DM, dx)
    counts = []
    for ix, index in ((cx, mx), (dx, dm)):
        rep = LawReport()
        counts.append(SHARED_LOOPS[loop](rep, ix, index))
        assert rep.violations == [], loop
    assert counts[0] == counts[1] > 0
