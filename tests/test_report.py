"""The violation contract: a witness kept as a tuple of pieces is the same
violation as its joined text, and violations stay frozen."""

import copy
import dataclasses
import pickle

import pytest

from bindcat import LawReport, Violation

PIECES = ("t = abs(var 1)", "; sigma = {0 -> var 0} : 1->1", "; tau = {0 -> var 0} : 1->1")
TEXT = "".join(PIECES)


def test_pieces_and_text_are_one_violation():
    a, b = Violation("monad-assoc", PIECES), Violation("monad-assoc", TEXT)
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == f"Violation(law='monad-assoc', witness={TEXT!r})"
    assert len({a, b}) == 1
    assert a != Violation("monad-right-unit", PIECES)
    assert a != Violation("monad-assoc", PIECES[:2])


@pytest.mark.parametrize("witness", [PIECES, TEXT], ids=["pieces", "text"])
def test_witness_reads_as_a_string(witness):
    v = Violation("monad-assoc", witness)
    assert type(v.witness) is str
    assert v.witness == TEXT


@pytest.mark.parametrize("name", ["law", "witness"])
def test_violations_are_frozen(name):
    v = Violation("monad-assoc", PIECES)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(v, name, "changed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(v, name)
    assert (v.law, v.witness) == ("monad-assoc", TEXT)
    assert not hasattr(v, "__dict__")


def test_copies_are_equal_violations():
    v = Violation("monad-assoc", PIECES)
    for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert c == v and repr(c) == repr(v)


def test_merge_and_by_law_keep_both_forms():
    left, right = LawReport(), LawReport()
    left.check(False, "monad-assoc", PIECES)
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
