"""The table checkers split their law families across processes and
report exactly what one part reports: the same checks_run, and the same
witnesses in the same order.  Small tables start no process."""

import hashlib
import json
import os
import types

import pytest

import bindcat.cli
import bindcat.report
from bindcat import (
    chain_category,
    check_displayed_monoidal,
    check_monoidal_laws,
    check_whiskered_bifunctor,
    endofunctor_monoidal,
    to_monoidal_doc,
    trivial_displayed_monoidal,
)
from bindcat.cli import main
from bindcat.report import LawReport, _split_families
from test_tables_golden import battery


def ordered_digest(rep):
    """checks_run, the (law, witness) pairs in order, and their SHA-256."""
    pairs = [(v.law, v.witness) for v in rep.violations]
    return rep.checks_run, pairs, hashlib.sha256(repr(pairs).encode()).hexdigest()


CHECKERS = [
    ("whiskered", lambda M: check_whiskered_bifunctor(M.tensor)),
    ("monoidal", check_monoidal_laws),
    ("displayed", lambda M: check_displayed_monoidal(trivial_displayed_monoidal(M))),
]


@pytest.fixture(scope="module")
def chain3():
    return endofunctor_monoidal(chain_category(3)).monoidal


@pytest.fixture(scope="module")
def chain4_broken():
    """End(chain 4) with one associator entry changed: its pentagon and
    naturality failures lie at outer indices across the whole range."""
    M = endofunctor_monoidal(chain_category(4)).monoidal
    objs, mors = M.base.objects, [m for m, _, _ in M.base.morphisms]
    key = (objs[5], objs[20], objs[30])
    M.associator[key] = mors[(mors.index(M.associator[key]) + 1) % len(mors)]
    return M


def test_split_tables_report_as_one_part_on_the_golden_battery(split):
    split(1)
    one = [(name, ordered_digest(rep)) for name, rep in battery()]
    for workers in (2, 3):
        split(workers)
        assert [(name, ordered_digest(rep)) for name, rep in battery()] == one, workers
    assert set(split.widths) == {1, 2, 3}
    assert len(one) == 63 and sum(bool(pairs) for _, (_, pairs, _) in one) == 35


@pytest.mark.parametrize("table", ["lwhisker", "rwhisker", "associator"])
def test_split_tables_report_as_one_part_on_single_changes(split, chain3, table):
    # every 50th entry of the corpus that test_table_index.py changes
    entries = getattr(chain3 if table == "associator" else chain3.tensor, table)
    mors = [m for m, _, _ in chain3.base.morphisms]
    for key in list(entries)[::50]:
        old = entries[key]
        entries[key] = mors[(mors.index(old) + 1) % len(mors)]
        try:
            for name, check in CHECKERS:
                split(1)
                one = ordered_digest(check(chain3))
                for workers in (2, 3):
                    split(workers)
                    assert ordered_digest(check(chain3)) == one, (key, name, workers)
        finally:
            entries[key] = old


@pytest.fixture
def parts_made(monkeypatch, split):
    """What each later split returned, in order: for each part, that
    part's report for each family."""
    made = []
    in_parts = bindcat.report._in_parts

    def kept(run, parts):
        out = in_parts(run, parts)
        made.append(out)
        return out

    monkeypatch.setattr(bindcat.report, "_in_parts", kept)
    return made


def test_split_chain4_displayed_reports_witnesses_from_every_part(split, parts_made,
                                                                  chain4_broken):
    check = CHECKERS[2][1]
    split(1)
    one = ordered_digest(check(chain4_broken))
    for workers in (2, 3):
        split(workers)
        assert ordered_digest(check(chain4_broken)) == one, workers
        # every part found failures, in the pentagon at least
        assert len(parts_made[-1]) == workers
        assert all(parts[-1].violations for parts in parts_made[-1]), workers
    assert one[0] == 2_234_829 and len(one[1]) == 104


def test_split_check_monoidal_cli_prints_the_same_bytes(monkeypatch, split, parts_made,
                                                       chain4_broken, tmp_path, capsys):
    doc = tmp_path / "chain4.json"
    doc.write_text(json.dumps(to_monoidal_doc(chain4_broken)))
    monkeypatch.setattr(bindcat.cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    printed = []
    for workers in (1, 2, 3):
        split(workers)
        assert main(["check-monoidal", str(doc), "--json"]) == 1
        printed.append(capsys.readouterr().out)
        assert len(parts_made[-1]) == workers
        assert all(parts[-1].violations for parts in parts_made[-1]), workers
    assert printed[1] == printed[0] and printed[2] == printed[0]
    out = json.loads(printed[0])
    assert out["checks_run"] == 3_997_191 and len(out["violations"]) == 126
    assert split.widths == [1, 2, 3]


def test_split_table_parts_raise_once_every_child_has_ended(split):
    parent = os.getpid()

    def loop(rep, span):
        if os.getpid() != parent:
            raise ValueError(f"part from {span.start} in a child")
        return len(span)

    split(3)
    with pytest.raises(ValueError) as exc:
        _split_families(LawReport(), [(6, 6, loop)])
    assert str(exc.value) == "part from 2 in a child"
    assert len(split.children) == 2


def test_split_table_children_write_nothing(split, chain3, capfd):
    key = next(iter(chain3.associator))
    old = chain3.associator[key]
    chain3.associator[key] = chain3.lunitor[chain3.unit]
    try:
        split(2)
        rep = check_monoidal_laws(chain3)
    finally:
        chain3.associator[key] = old
    assert rep.violations and split.widths == [2]
    assert capfd.readouterr() == ("", "")


def test_small_tables_start_no_process(monkeypatch, chain3):
    def no_fork():
        raise AssertionError("a table check below the break-even forked")

    monkeypatch.setattr(bindcat.report, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert bindcat.report._TABLE_SPLIT_BREAK_EVEN > 35_460
    counts = [check(chain3).checks_run for _, check in CHECKERS]
    assert counts == [7_200, 35_460, 21_596]
