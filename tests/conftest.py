"""Shared test setup: a fixture-path helper, sweeps forced to split
across processes, and the sizes of [chain a, chain b] and the table check
counts of End(chain k) derived by brute force.  It sets nothing in
``bindcat``: the suite tests the library as shipped."""

import itertools
import os
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

import bindcat.report

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def split(monkeypatch):
    """split(w): later sweeps and param demos, however small, run in w
    parts (w - 1 of them in forked children; the param demo has at most
    two).  split.widths lists the part counts of the sweeps and demos run
    and split.children the pids forked; no child may outlive the test."""
    in_parts, fork = bindcat.report._in_parts, os.fork

    def counted(run, parts):
        set_width.widths.append(len(parts))
        return in_parts(run, parts)

    def recorded_fork():
        pid = fork()
        if pid:
            set_width.children.append(pid)
        return pid

    def set_width(w):
        monkeypatch.setattr(bindcat.report, "_usable_cpus", lambda: w)
    set_width.widths, set_width.children = [], []
    monkeypatch.setattr(bindcat.report, "_SPLIT_BREAK_EVEN", 0)
    monkeypatch.setattr(bindcat.report, "_TABLE_SPLIT_BREAK_EVEN", 0)
    monkeypatch.setattr(bindcat.report, "_PARAM_SPLIT_BREAK_EVEN", 0)
    monkeypatch.setattr(bindcat.report, "_in_parts", counted)
    monkeypatch.setattr(os, "fork", recorded_fork)
    yield set_width
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _monotone_counts(a: int, b: int) -> tuple[int, int, int]:
    """The functors, transformations and comp entries of [chain a, chain b]:
    its monotone maps, the pairs F ≤ G and the chains F ≤ G ≤ H."""
    maps = [f for f in itertools.product(range(b), repeat=a)
            if all(x <= y for x, y in zip(f, f[1:]))]
    pairs = [(f, g) for f in maps for g in maps
             if all(x <= y for x, y in zip(f, g))]
    above = Counter(f for f, _ in pairs)
    return len(maps), len(pairs), sum(above[g] for _, g in pairs)


@pytest.fixture(scope="session")
def chain_functor_counts():
    """chain_functor_counts(a, b): functors, transformations and comp
    entries of [chain a, chain b] by brute force over monotone maps,
    without the library."""
    return _monotone_counts


class EndChainCounts(NamedTuple):
    n: int  # endofunctors of chain k: its monotone maps
    m: int  # pairs F ≤ G
    c: int  # chains F ≤ G ≤ H
    whiskered: int  # check_whiskered_bifunctor's declared count
    monoidal: int  # check_monoidal_laws's declared count


@pytest.fixture(scope="session")
def end_chain_counts():
    """end_chain_counts(k): n, m and c for End(chain k), [chain k, chain k]
    by ``chain_functor_counts``, and the check counts the table checkers
    declare from them."""
    def counts(k: int) -> EndChainCounts:
        n, m, c = _monotone_counts(k, k)
        whiskered = 2 * n * m + 2 * n ** 2 + 2 * c * n + m ** 2
        monoidal = whiskered + 6 * n + 3 * n ** 3 + 2 * m + 3 * m * n ** 2 + n ** 2 + n ** 4
        return EndChainCounts(n, m, c, whiskered, monoidal)
    return counts
