"""Uniform law reports shared by every checker in the package."""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Violation:
    """One failed law instance, with a rendered witness."""

    law: str
    witness: str


def _run(law: str, rows):
    """A run's violations in order: by row, by mask, then by set bit from
    the lowest."""
    for first, mid, last, masks in rows:
        for k, mask in enumerate(masks):
            while mask:
                low = mask & -mask
                yield Violation(law, first[low.bit_length() - 1] + mid + last[k])
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

    def extend(self, other: Violations) -> None:
        self._entries += other._entries
        self._len += other._len

    def add_bits(self, law: str, rows) -> None:
        """Add a run: each row is ``(first, mid, last, masks)``, and bit j
        of ``masks[k]`` is one failure of ``law``, whose witness is
        ``first[j] + mid + last[k]``, joined when the violation is read.
        Rows are kept as given, unchanged."""
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
        return next(itertools.islice(self, i % self._len, None))

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
        """Record one failure; ``witness`` may be a string or a thunk, and
        is stored as its text."""
        if callable(witness):
            witness = witness()
        self.violations.append(Violation(law, str(witness)))

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


# --- sweeps split across processes ------------------------------------------

# Below these many law instances a sweep runs in one process.  On a
# 2-CPU host a forked part's round trip (fork, results back through a
# pipe, reap) takes about 3 ms, 6 ms for a process's first, and each
# part pays for first touching the pages it writes.  Measured as one
# part against two, in fresh processes taking turns:
# - the monad sweep's associativity family, about 0.5 us an instance:
#   sweeps of 20,000 instances (11-14 ms) ran slower split, and from
#   about 50,000 faster;
# - the table checkers, 0.1-0.3 us an instance: check_monoidal_laws on
#   the discrete monoidal category Z/n, with End(chain 4) built beside
#   it, medians of 11 runs, ran 1.1-3x slower split up to 143,000
#   instances (17 ms one part), and in 0.86-1.09 of the time from
#   211,000 to 979,000; check_whiskered_bifunctor on End(chain 4),
#   564,970 instances, in 0.4-0.8 of the time;
# - the param demo's two algebra families, counted not in law instances
#   but in the trees of μ's carriers at the demo's depth, summed over the
#   parameters: run_param_demo on the demo corpus with more labels at za
#   and zc, at depth 3, medians of 10 runs, ran 1.06-1.21x slower split
#   from 447 to 1,314 trees, and in 0.91-0.98 of the time at 1,815 and
#   3,545.  The demo itself ran in 11-18 ms one part and 13-19 ms split
#   at depth 3 (190 trees), and in 0.71 of the time split at depth 4
#   (23,084 trees).
_SPLIT_BREAK_EVEN = 50_000
_TABLE_SPLIT_BREAK_EVEN = 200_000
_PARAM_SPLIT_BREAK_EVEN = 2_000


def _usable_cpus() -> int:
    """How many parts of a sweep may run at once: the CPUs this process
    may use, or 1 where it cannot fork safely (no ``os.fork``, or other
    threads running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _width(instances: int, break_even: int) -> int:
    """How many parts a sweep of this many law instances runs in: one
    below break_even, else one per CPU ``_usable_cpus`` gives."""
    return _usable_cpus() if instances >= break_even else 1


def _split_families(rep: LawReport, families: list) -> None:
    """Check law families into rep, in order, each as one loop would.

    A family is (size, instances, loop): ``loop(part, span)`` checks the
    instances at the outer indices in span, a range within range(size),
    records their failures in the report part, and returns how many
    passed; instances counts the family's instances.  Part p of W runs
    the p-th contiguous slice of every family's outer range: this
    process runs part 0, and a forked child each other part (see
    ``_in_parts``); W is 1 below ``_TABLE_SPLIT_BREAK_EVEN`` instances
    in all.  Each family's checks and violations are merged in part
    order, so rep gets what a one-part run gives, every witness in the
    same order."""
    width = _width(sum(instances for _, instances, _ in families), _TABLE_SPLIT_BREAK_EVEN)

    def run(p: int) -> list[LawReport]:
        parts = []
        for size, _, loop in families:
            part = LawReport()
            part.tally(loop(part, range(size * p // width, size * (p + 1) // width)))
            parts.append(part)
        return parts

    for family in zip(*_in_parts(run, range(width))):
        for part in family:
            rep.merge(part)


def _in_parts(run, parts: list) -> list:
    """[run(part) for part in parts]: this process runs parts[0], and a
    forked child runs each other part and sends back its result, or the
    exception it raised, as one pickle through a pipe.  The results must
    pickle.  Every child has ended and been reaped when this returns or
    raises; a part's exception is raised here, the lowest-numbered
    failing part's."""
    # imported here, by the sweeps that split: importing pickle at module
    # level raised the peak RSS of runs that never split by about 0.4 MB
    import pickle
    import signal
    children: list[tuple[int, object]] = []  # (pid, read end of its pipe)
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _send(w, run, part)  # ends the child
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [run(parts[0])]
        for p, (_, pipe) in enumerate(children, 1):
            try:
                ok, got = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"part {p} of the sweep ended without a result") from None
            if not ok:
                raise got
            results.append(got)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _send(fd: int, run, part) -> None:
    """In a forked child: write (True, run(part)), or (False, the
    exception it raised), to fd as one pickle, then end the process at
    once, running none of the parent's cleanup and flushing none of its
    buffers."""
    import pickle
    status = 1
    try:
        try:
            out = (True, run(part))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that does not survive a pickle
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            out = (False, exc)
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
