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


def _run(law: str, rows):
    """A run's violations in order: by row, by mask, then by set bit from
    the lowest."""
    for first, mid, last, masks in rows:
        for k, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                yield Violation(law, (first[low.bit_length() - 1], mid, last[k]))
                mask ^= low


class Violations:
    """A report's violations in the order found, read like a list of them.

    Each entry is a ``Violation`` or a run of one law's failures kept as
    bit masks (see ``add_bits``).  A run makes each violation only when
    it is read and keeps none, so the length is a stored count, and
    ``extend`` moves runs across unread.  ``+`` and slices give lists.
    """

    __slots__ = ("_entries", "_len")

    def __init__(self):
        self._entries: list = []  # Violation, or (law, rows, count) for a run
        self._len = 0

    def append(self, v: Violation) -> None:
        self._entries.append(v)
        self._len += 1

    def extend(self, items) -> None:
        if isinstance(items, Violations):
            self._entries += items._entries
            self._len += items._len
        else:
            for v in items:
                self.append(v)

    def add_bits(self, law: str, rows) -> None:
        """Add a run: each row is ``(first, mid, last, masks)``, and bit j
        of ``masks[k]`` is one failure of ``law``, with the witness pieces
        ``(first[j], mid, last[k])``.  Rows are kept as given, unchanged."""
        rows = [row for row in rows if any(row[3])]
        n = sum(mask.bit_count() for row in rows for mask in row[3])
        if n:
            self._entries.append((law, rows, n))
            self._len += n

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for e in self._entries:
            if isinstance(e, Violation):
                yield e
            else:
                yield from _run(e[0], e[1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if not -self._len <= i < self._len:
            raise IndexError("violation index out of range")
        i %= self._len
        for e in self._entries:
            if isinstance(e, Violation):
                if not i:
                    return e
                i -= 1
            elif i < e[2]:
                for v in _run(e[0], e[1]):
                    if not i:
                        return v
                    i -= 1
            else:
                i -= e[2]

    def __eq__(self, other):
        if not isinstance(other, (Violations, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other):
        return [*self, *other] if isinstance(other, (Violations, list, tuple)) else NotImplemented

    def __radd__(self, other):
        return [*other, *self] if isinstance(other, (list, tuple)) else NotImplemented

    def __repr__(self):
        return f"Violations({list(self)!r})"


@dataclass
class LawReport:
    """Outcome of an exhaustive law check.

    ``checks_run`` counts every instance examined, so an empty violation
    sequence means the laws passed exhaustively, not vacuously.
    """

    checks_run: int = 0
    violations: Violations = field(default_factory=Violations)

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

    def fail_bits(self, law: str, rows) -> None:
        """Record failures held as bit masks: see ``Violations.add_bits``."""
        self.violations.add_bits(law, rows)

    def tally(self, n: int = 1) -> None:
        # for hot loops that count instances without going through check()
        self.checks_run += n

    def merge(self, other: "LawReport") -> "LawReport":
        self.checks_run += other.checks_run
        self.violations.extend(other.violations)
        return self

    def by_law(self, law: str) -> list[Violation]:
        return [v for v in self.violations if v.law == law]
