"""The violation contract: a violation is a frozen pair of strings, its
law and its witness.  A report that holds a run of bit masks reads like
the list of its violations, and reads no piece until a violation is
asked for."""

import copy
import dataclasses
import pickle

import pytest

from bindcat import LawReport, Violation

TEXT = "t = abs(var 1); sigma = {0 -> var 0} : 1->1; tau = {0 -> var 0} : 1->1"


class Rendered:
    def __str__(self):
        return TEXT


@pytest.mark.parametrize("witness", [TEXT, lambda: Rendered()], ids=["text", "object-thunk"])
def test_witness_reads_as_a_string(witness):
    # a report stores each witness as its text
    rep = LawReport()
    rep.fail("monad-assoc", witness)
    v = rep.violations[0]
    assert type(v.witness) is str
    assert v == Violation("monad-assoc", TEXT)


@pytest.mark.parametrize("name", ["law", "witness"])
def test_violations_are_frozen(name):
    v = Violation("monad-assoc", TEXT)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(v, name, "changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(v, name)
    assert (v.law, v.witness) == ("monad-assoc", TEXT)
    assert not hasattr(v, "__dict__")


def test_copies_are_equal_violations():
    v = Violation("monad-assoc", TEXT)
    for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert c == v and hash(c) == hash(v) and repr(c) == repr(v)
    assert repr(v) == f"Violation(law='monad-assoc', witness={TEXT!r})"


def test_merge_and_by_law_keep_every_violation():
    left, right = LawReport(), LawReport()
    left.check(False, "monad-assoc", TEXT)
    left.fail("monad-right-unit", lambda: "t = var 0 changed under the identity substitution")
    right.check(True, "monad-assoc", "never rendered")
    right.fail("monad-assoc", TEXT)
    kept = left.violations + right.violations

    merged = left.merge(right)
    assert merged.checks_run == 2
    assert all(a is b for a, b in zip(merged.violations, kept, strict=True))
    assoc = merged.by_law("monad-assoc")
    assert assoc[0] is kept[0] and assoc[1] is kept[2]
    assert [v.witness for v in assoc] == [TEXT, TEXT]
    assert [v.witness for v in merged.by_law("monad-right-unit")] == \
        ["t = var 0 changed under the identity substitution"]


# ------------- a report holding a run of bit masks -------------


class CountedPieces(list):
    """Witness pieces that count how often they are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


FIRST = ["t = var 0", "t = var 1", "t = abs(var 0)", "t = abs(var 2)"]
LAST = ["; tau = {0 -> var 0} : 1->1", "; tau = {0 -> var 1} : 1->2", "; tau = {} : 0->0"]
MASKS = [("; sigma = a", [0b1010, 0, 0b0001]), ("; sigma = b", [0, 0, 0]),
         ("; sigma = c", [0b1111, 0b0100, 0])]


def run_rows():
    first, last = CountedPieces(FIRST), CountedPieces(LAST)
    return [(first, mid, last, masks) for mid, masks in MASKS], (first, last)


def plain_run(law):
    """The run's (law, witness) pairs by a plain nested loop."""
    return [(law, FIRST[j] + mid + LAST[k]) for mid, masks in MASKS
            for k, mask in enumerate(masks) for j in range(len(FIRST)) if mask >> j & 1]


def report_with_run():
    rep = LawReport()
    rep.fail("monad-right-unit", "t = var 0 changed under the identity substitution")
    rows, counted = run_rows()
    rep.fail_bits("monad-assoc", rows)
    return rep, counted


def test_a_run_is_counted_and_moved_unread():
    rep, counted = report_with_run()
    other, more = report_with_run()
    assert (len(rep.violations), rep.ok, rep.checks_run) == (9, False, 0)
    plain = LawReport()
    plain.check(False, "monad-left-unit", "var 0 under sigma = {} : 0->0 gives var 1")
    first = plain.violations[0]
    plain.merge(rep)  # a run into a report of plain violations
    other.merge(plain)  # and back into a report that holds a run
    assert (len(plain.violations), plain.checks_run) == (10, 1)
    assert (len(other.violations), other.checks_run) == (19, 1)
    rep.violations.extend(other.violations)
    assert len(rep.violations) == 28
    assert [p.reads for p in counted + more] == [0, 0, 0, 0]
    assert list(plain.violations) == [first, *list(rep.violations)[:9]]
    assert list(other.violations)[9:] == list(plain.violations)
    clean = LawReport()
    clean.fail_bits("monad-assoc", [(FIRST, "; sigma = a", LAST, [0, 0, 0])])
    assert clean.ok and len(clean.violations) == 0 and clean.violations == []


def test_a_run_reads_in_plain_loop_order_and_keeps_nothing():
    rep, _ = report_with_run()
    want = [("monad-right-unit", "t = var 0 changed under the identity substitution"),
            *plain_run("monad-assoc")]
    first, second = list(rep.violations), list(rep.violations)
    assert [(v.law, v.witness) for v in first] == want
    assert [(v.law, v.witness) for v in second] == want
    assert first[0] is second[0]  # stored as given
    assert all(a is not b for a, b in zip(first[1:], second[1:], strict=True))


def test_a_run_is_indexed_like_a_list():
    rep, _ = report_with_run()
    every, n = list(rep.violations), len(rep.violations)
    for i in range(-n, n):
        assert rep.violations[i] == every[i]
    assert rep.violations[0] is every[0]
    assert rep.violations[-1] == rep.violations[n - 1] == \
        Violation("monad-assoc", FIRST[2] + "; sigma = c" + LAST[1])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rep.violations[i]


def test_a_run_slices_compares_adds_and_filters_like_a_list():
    rep, _ = report_with_run()
    every = list(rep.violations)
    assert rep.violations[2:5] == every[2:5] and type(rep.violations[::2]) is list
    assert rep.violations == every and every == rep.violations
    assert rep.violations == tuple(every) and rep.violations != every[:-1]
    assert rep.violations != [*every[:-1], every[0]]
    extra = Violation("monad-left-unit", "var 0 under sigma = {} : 0->0 gives var 0")
    assert rep.violations + [extra] == [*every, extra]
    assert [extra] + rep.violations == [extra, *every]
    assert rep.violations + rep.violations == every + every
    assert rep.by_law("monad-assoc") == every[1:]
    assert [v.witness for v in rep.by_law("monad-right-unit")] == \
        ["t = var 0 changed under the identity substitution"]
