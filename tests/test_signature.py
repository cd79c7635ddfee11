"""Signature declarations: parsing, rendering, and the induced functor shape."""

import pytest
from hypothesis import given, strategies as st

from bindcat import (
    BindingSignature,
    Constructor,
    ParseError,
    load_signature,
    parse_signature,
    parse_term,
    render_signature,
    signature_functor,
)

LAM = "sig lam {\n  app : [0, 0];\n  abs : [1];\n}"


def test_parse_lam():
    sig = parse_signature(LAM)
    assert sig.name == "lam"
    assert [c.name for c in sig.constructors] == ["app", "abs"]
    assert sig.constructor("app").arity == (0, 0)
    assert sig.constructor("abs").arity == (1,)
    assert sig.max_binding() == 1


def test_load_signature_fixture(fixtures):
    sig = load_signature(fixtures / "lam.sig")
    assert render_signature(sig) == LAM


def test_nullary_arity(fixtures):
    nat = load_signature(fixtures / "nat.sig")
    assert nat.constructor("zero").arity == ()
    assert nat.constructor("succ").arity == (0,)
    assert nat.max_binding() == 0


def test_unknown_constructor_lookup():
    sig = parse_signature(LAM)
    with pytest.raises(KeyError):
        sig.constructor("lam")


def test_render_parse_roundtrip_explicit():
    sig = parse_signature("sig mixed { lit : [] ; let : [0, 1]; both : [2] ; }")
    again = parse_signature(render_signature(sig))
    assert again == sig


# --- diagnostics --------------------------------------------------------------

def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_signature("sig lam { app : [0 0]; }")
    err = exc.value
    assert (err.line, err.column) == (1, 20)
    assert str(err).startswith("1:20: ")


@pytest.mark.parametrize("text,fragment", [
    ("sig var { }", "reserved"),
    ("sig sort { }", "sorted signatures are not supported"),
    ("sig s { var : []; }", "reserved"),
    ("sig s { sort : []; }", "sorted signatures are not supported"),
    ("sig s { dup : []; dup : [0]; }", "duplicate constructor"),
    ("sig s { app : [-1]; }", "expected"),
    ("sig s { app : [0] }", "expected"),
    ("", "expected"),
])
def test_rejected_inputs(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_signature(text)
    assert fragment in str(exc.value)


LAM_SIG = parse_signature(LAM)


@pytest.mark.parametrize("scope, text, line, column, message", [
    (None, "", 1, 1, "expected 'sig'"),
    (None, "   \n\t", 2, 2, "expected 'sig'"),
    (None, "lam { }", 1, 1, "expected 'sig'"),
    (None, "sig", 1, 4, "expected a signature name, found end of input"),
    (None, "sig\tlam\t{\tapp : [0 0]; }", 1, 20, "expected ']' or ',', found '0'"),
    (None, "sig lam {\r\n  app : [0, 0];\r\n  abs : [1]\r\n}", 4, 1,
     "expected ';', found '}'"),
    (None, "sig s { app : [0] }", 1, 19, "expected ';', found '}'"),
    (None, "sig s { app : [0,]; }", 1, 18, "expected a natural number, found ']'"),
    (None, "sig s { app : [0 0]; }", 1, 18, "expected ']' or ',', found '0'"),
    (None, "sig s { app : [0", 1, 17, "expected ']' or ',', found end of input"),
    (None, "sig s {", 1, 8, "expected a constructor or '}'"),
    (None, "sig s", 1, 6, "expected '{', found end of input"),
    (None, "sig 1s { }", 1, 5, "expected a signature name, found '1'"),
    (None, "sig s { 2app : []; }", 1, 9, "expected a constructor name, found '2'"),
    (None, "sig s { @ }", 1, 9, "unexpected character '@'"),
    (None, "sig sé { }", 1, 6, "unexpected character 'é'"),
    (None, "sig s {\n  café : [];\n}", 2, 6, "unexpected character 'é'"),
    (None, "sig s { app : [-1]; }", 1, 16, "unexpected character '-'"),
    (None, "sig var { }", 1, 5, "'var' is reserved and cannot be used as a signature name"),
    (None, "sig sort { }", 1, 5, "sorted signatures are not supported"),
    (None, "sig s { var : []; }", 1, 9,
     "'var' is reserved and cannot be used as a constructor name"),
    (None, "sig s { sort : []; }", 1, 9, "sorted signatures are not supported"),
    (None, "sig s {\n  dup : [];\n  dup : [0];\n}", 3, 3, "duplicate constructor name 'dup'"),
    (None, "sig s { } x", 1, 11, "trailing input after '}'"),
    (None, "sig s { }\n\n  }", 3, 3, "trailing input after '}'"),
    (None, "sig s { c [0]; }", 1, 11, "expected ':', found '['"),
    (None, "sig s { c : 0; }", 1, 13, "expected '[', found '0'"),
    (None, "sig s { c : [a]; }", 1, 14, "expected a natural number, found 'a'"),
    (None, "sig s { : [0]; }", 1, 9, "expected a constructor name, found ':'"),
    (None, "sig s { c : [0]; ; }", 1, 18, "expected a constructor name, found ';'"),
    (1, "var 1", 1, 5, "variable index 1 out of range for scope 1"),
    (1, "foo(var 0)", 1, 1, "unknown constructor 'foo'"),
    (1, "app(var 0)", 1, 10, "expected ',', found ')'"),
    (1, "abs(var 0", 1, 10, "expected ')', found end of input"),
    (1, "abs(var 0) var", 1, 12, "trailing input after term"),
    (1, "abs()", 1, 5, "expected a term"),
    (0, "", 1, 1, "expected a term"),
    (0, "var", 1, 4, "expected a variable index, found end of input"),
    (1, "var x", 1, 5, "expected a variable index, found 'x'"),
    (1, "var 01", 1, 5, "variable index 1 out of range for scope 1"),
    (0, "abs(\n  app(var 0,\n      var 1))", 3, 11, "variable index 1 out of range for scope 1"),
    (0, "abs(var 0))", 1, 11, "trailing input after term"),
    (0, "abs[var 0]", 1, 4, "expected '(', found '['"),
    (0, "abs(var 0)\r\n#", 2, 1, "unexpected character '#'"),
    (2, "app(var 0, 12)", 1, 12, "expected a term"),
])
def test_error_positions(scope, text, line, column, message):
    # a signature text when scope is None, else a lam term in that scope
    with pytest.raises(ParseError) as exc:
        if scope is None:
            parse_signature(text)
        else:
            parse_term(LAM_SIG, scope, text)
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)


@pytest.mark.parametrize("digit", ["\u0661", "\u00b2"],
                         ids=["arabic-indic-one", "superscript-two"])
def test_non_ascii_digit_is_unexpected(digit):
    # str.isdigit holds for an Arabic-Indic one and a superscript two, but
    # an arity is ASCII digits only
    with pytest.raises(ParseError) as exc:
        parse_signature(f"sig a {{ c : [{digit}]; }}")
    assert (exc.value.line, exc.value.column, exc.value.message) == \
        (1, 14, f"unexpected character {digit!r}")


def test_constructor_rejects_negative_arity():
    with pytest.raises(ValueError):
        Constructor("app", (0, -1))


def test_duplicate_names_rejected_in_constructor_tuple():
    with pytest.raises(ValueError):
        BindingSignature("s", (Constructor("c", ()), Constructor("c", (0,))))


# --- the set-functor description ----------------------------------------------

def test_functor_formula_lam():
    sig = parse_signature(LAM)
    assert signature_functor(sig).formula() == "F(X)(n) = n ⊎ X(n)×X(n) ⊎ X(n+1)"


def test_functor_formula_nat(fixtures):
    nat = load_signature(fixtures / "nat.sig")
    assert signature_functor(nat).formula() == "F(X)(n) = n ⊎ 1 ⊎ X(n)"


# --- property: rendering is a section of parsing --------------------------------

_names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True).filter(
    lambda s: s not in ("var", "sort"))
_ctors = st.lists(
    st.tuples(_names, st.lists(st.integers(0, 3), max_size=3)),
    min_size=1, max_size=5,
    unique_by=lambda c: c[0],
)


@given(name=_names, ctors=_ctors)
def test_render_parse_roundtrip(name, ctors):
    sig = BindingSignature(
        name, tuple(Constructor(n, tuple(ar)) for n, ar in ctors))
    assert parse_signature(render_signature(sig)) == sig
