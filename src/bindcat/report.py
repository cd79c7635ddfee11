"""Uniform law reports shared by every checker in the package."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field


class Violation:
    """One failed law instance, with a rendered witness.

    The witness is stored as given: a string, or a tuple of string pieces
    that many violations share and that are joined only when ``witness``
    is read.  Either form compares, hashes and prints as the joined text.
    """

    __slots__ = ("law", "_witness")

    def __init__(self, law: str, witness: str | tuple[str, ...]):
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "_witness", witness)

    @property
    def witness(self) -> str:
        w = self._witness
        return w if isinstance(w, str) else "".join(w)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Violation, (self.law, self._witness)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.law == other.law and self.witness == other.witness

    def __hash__(self):
        return hash((self.law, self.witness))

    def __repr__(self):
        return f"Violation(law={self.law!r}, witness={self.witness!r})"


@dataclass
class LawReport:
    """Outcome of an exhaustive law check.

    ``checks_run`` counts every instance examined, so an empty violation
    list means the laws passed exhaustively, not vacuously.
    """

    checks_run: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, ok: bool, law: str, witness) -> bool:
        """Record one instance; ``witness`` may be a string or a thunk."""
        self.checks_run += 1
        if not ok:
            self.fail(law, witness)
        return ok

    def fail(self, law: str, witness) -> None:
        """Record one failure; ``witness`` may be a string, a thunk, or a
        tuple of string pieces kept unjoined until the witness is read."""
        if callable(witness):
            witness = witness()
        if not isinstance(witness, tuple):
            witness = str(witness)
        self.violations.append(Violation(law, witness))

    def tally(self, n: int = 1) -> None:
        # for hot loops that count instances without going through check()
        self.checks_run += n

    def merge(self, other: "LawReport") -> "LawReport":
        self.checks_run += other.checks_run
        self.violations.extend(other.violations)
        return self

    def by_law(self, law: str) -> list[Violation]:
        return [v for v in self.violations if v.law == law]
