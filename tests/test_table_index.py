"""The table checkers index their tables afresh on every call, and their
check counts on End(chain 3) stay as pinned."""

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
    DM.disp_associator[key] = _other(list(DM.disp_cat._mor_info), DM.disp_associator[key])
    rep = check_displayed_monoidal(DM)
    assert {v.law for v in rep.violations} >= {"disp-associator-over"}


def test_chain3_counts_are_pinned(chain3):
    assert check_category_laws(chain3.base).checks_run == 1_125
    assert check_whiskered_bifunctor(chain3.tensor).checks_run == 7_200
    assert check_monoidal_laws(chain3).checks_run == 35_460
    DM = trivial_displayed_monoidal(chain3)
    assert check_displayed_monoidal(DM).checks_run == 21_596
    assert check_monoidal_laws(total_monoidal(DM)).checks_run == 35_460
