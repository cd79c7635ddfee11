"""Shared test setup: strict scope checking on, fixture-path helper, and
sweeps forced to split across processes."""

import os
from pathlib import Path

import pytest

import bindcat.report
import bindcat.terms

# The scope invariant checks are off by default (they cost a constant
# factor on every cell allocation); the whole test suite runs with them on.
bindcat.terms.CHECK_SCOPES = True

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
