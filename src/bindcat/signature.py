"""Binding signatures: a small text format, its parser and renderer, and the
description of the endofunctor a signature induces on scoped families.

A signature is a list of constructors; each constructor carries a tuple of
natural numbers, one per argument, giving how many fresh variables that
argument binds.  ``abs : [1]`` is a one-argument constructor whose argument
lives in an extended scope.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

# "var" would collide with the variable form of the term syntax; "sort" is
# reserved so that multi-sorted input fails loudly instead of misparsing.
RESERVED_NAMES = ("var", "sort")


class ParseError(Exception):
    """Syntax or validation error at a 1-based line/column position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass(frozen=True)
class Constructor:
    """A constructor name plus, per argument, the number of variables bound."""

    name: str
    arity: tuple[int, ...]

    def __post_init__(self):
        if any(k < 0 for k in self.arity):
            raise ValueError(f"constructor {self.name} has a negative binding arity")


@dataclass(frozen=True)
class BindingSignature:
    name: str
    constructors: tuple[Constructor, ...]

    def __post_init__(self):
        seen = set()
        for c in self.constructors:
            if c.name in seen:
                raise ValueError(f"duplicate constructor name {c.name}")
            seen.add(c.name)

    def constructor(self, name: str) -> Constructor:
        for c in self.constructors:
            if c.name == name:
                return c
        raise KeyError(name)

    def max_binding(self) -> int:
        """Largest number of variables any single argument binds."""
        return max((k for c in self.constructors for k in c.arity), default=0)


@dataclass(frozen=True)
class EndofunctorDescription:
    """Shape of the functor a signature induces: variables plus one summand
    per constructor, each summand a product of scope-shifted slots."""

    signature: str
    constructors: tuple[tuple[str, tuple[int, ...]], ...]

    def formula(self) -> str:
        parts = ["n"]
        for _, arity in self.constructors:
            if not arity:
                parts.append("1")
            else:
                parts.append("×".join("X(n)" if k == 0 else f"X(n+{k})" for k in arity))
        return "F(X)(n) = " + " ⊎ ".join(parts)


def signature_functor(sig: BindingSignature) -> EndofunctorDescription:
    return EndofunctorDescription(
        signature=sig.name,
        constructors=tuple((c.name, c.arity) for c in sig.constructors),
    )


# --- tokenizer -------------------------------------------------------------

# Each match is blanks and then at most one token: none only at the end of
# the text.  The classes are ASCII: a digit is 0-9, not whatever str.isdigit
# accepts (an Arabic-Indic one, a superscript two), and any other character
# is a one-character "bad" token.
_TOKEN = re.compile(r"[ \t\r]*(?:(?P<newline>\n)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<nat>[0-9]+)|(?P<punct>[{}\[\]:;,()])|(?P<bad>.))?")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) per token, ending with "eof"; a
    punctuation token's kind is its own text."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok, col = m[kind], m.start(kind) - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(line, col, f"unexpected character {tok!r}")
        else:
            tokens.append((tok if kind == "punct" else kind, tok, line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        _, _, line, col = self.peek()
        raise ParseError(line, col, message)

    def expect(self, kind: str, what: str) -> str:
        tok = self.peek()
        if tok[0] != kind:
            self.error(f"expected {what}, found {tok[1]!r}" if tok[0] != "eof"
                       else f"expected {what}, found end of input")
        return self.next()[1]

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok[0] != "ident":
            self.expect("ident", what)
        if tok[1] == "sort":
            self.error("sorted signatures are not supported")
        if tok[1] in RESERVED_NAMES:
            self.error(f"{tok[1]!r} is reserved and cannot be used as {what}")
        return self.next()[1]

    def parse_signature(self) -> BindingSignature:
        kw = self.peek()
        if kw[0] != "ident" or kw[1] != "sig":
            self.error("expected 'sig'")
        self.next()
        name = self.ident("a signature name")
        self.expect("{", "'{'")
        ctors: list[Constructor] = []
        names = set()
        while self.peek()[0] != "}":
            cname_tok = self.peek()
            if cname_tok[0] == "eof":
                self.error("expected a constructor or '}'")
            cname = self.ident("a constructor name")
            if cname in names:
                raise ParseError(cname_tok[2], cname_tok[3],
                                 f"duplicate constructor name {cname!r}")
            names.add(cname)
            self.expect(":", "':'")
            self.expect("[", "'['")
            arity: list[int] = []
            if self.peek()[0] != "]":
                arity.append(int(self.expect("nat", "a natural number")))
                while self.peek()[0] == ",":
                    self.next()
                    arity.append(int(self.expect("nat", "a natural number")))
            self.expect("]", "']' or ','")
            self.expect(";", "';'")
            ctors.append(Constructor(cname, tuple(arity)))
        self.expect("}", "'}'")
        if self.peek()[0] != "eof":
            self.error("trailing input after '}'")
        return BindingSignature(name, tuple(ctors))


def parse_signature(text: str) -> BindingSignature:
    """Parse the signature format; raises ParseError with line/column."""
    return _Parser(text).parse_signature()


def render_signature(sig: BindingSignature) -> str:
    """Canonical text for a signature; parse(render(s)) == s."""
    if not sig.constructors:
        return f"sig {sig.name} {{ }}"
    lines = [f"sig {sig.name} {{"]
    for c in sig.constructors:
        lines.append(f"  {c.name} : [{', '.join(str(k) for k in c.arity)}];")
    lines.append("}")
    return "\n".join(lines)


def load_signature(path) -> BindingSignature:
    return parse_signature(Path(path).read_text(encoding="utf-8"))
