"""Mutation sweep over the law check sites of one source file.

Each site is mutated on its own, in a copy of ``src/``, ``tests/`` and
``tools/``: the condition of a ``rep.check(`` call becomes ``True`` and
a ``rep.fail(`` or ``rep.fail_bits(`` call becomes ``None``, so the law
at that site can no longer fail.  The given test files then run with
``pytest -x``.  A site whose mutant still passes every test is a
survivor: no test shows that its law can fail.

    python3 tools/mutation_sweep.py src/bindcat/displayed.py tests/test_displayed.py ...

Run from the repository root.  Prints one line per site as it finishes,
then the survivors, and exits 1 when there are any.  Uses only the
standard library and the interpreter's own pytest; the copies live in a
temporary directory (``TMPDIR``) removed at the end.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Site:
    line: int
    kind: str  # "check", "fail" or "fail_bits"
    law: str
    start: tuple[int, int]  # (line, column) of the span replaced, 1-based lines
    end: tuple[int, int]
    replacement: str


def find_sites(source: str) -> list[Site]:
    """Every ``rep.check(``, ``rep.fail(`` and ``rep.fail_bits(`` call in
    source order."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "rep"
                and node.func.attr in ("check", "fail", "fail_bits")):
            continue
        if node.func.attr == "check":
            law = ast.unparse(node.args[1]) if len(node.args) > 1 else "?"
            span, replacement = node.args[0], "True"
        else:
            law = ast.unparse(node.args[0]) if node.args else "?"
            span, replacement = node, "None"
        sites.append(Site(node.lineno, node.func.attr, law,
                          (span.lineno, span.col_offset),
                          (span.end_lineno, span.end_col_offset), replacement))
    return sorted(sites, key=lambda s: s.start)


def mutate(source: str, site: Site) -> str:
    """Source with the site's span replaced; every other byte is kept.
    Columns from ``ast`` count UTF-8 bytes, so the splice works on bytes."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    (l0, c0), (l1, c1) = site.start, site.end
    head = b"".join(lines[:l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + b"".join(lines[l1:])
    return (head + site.replacement.encode("utf-8") + tail).decode("utf-8")


def run_tests(root: Path, tests: list[str]) -> bool:
    """True when every test passes (the mutant survives)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("source", help="source file to mutate, relative to the repository root")
    ap.add_argument("tests", nargs="+", help="test files or node ids to run for each mutant")
    args = ap.parse_args(argv)

    repo = Path.cwd()
    source = (repo / args.source).read_text(encoding="utf-8")
    sites = find_sites(source)
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        root = Path(tmp)
        # the census test loads this tool from the copy's root
        for part in ("src", "tests", "tools"):
            shutil.copytree(repo / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        target = root / args.source
        if not run_tests(root, args.tests):
            print("the unmutated program fails these tests; nothing to sweep", file=sys.stderr)
            return 2
        for i, site in enumerate(sites, 1):
            target.write_text(mutate(source, site), encoding="utf-8")
            survived = run_tests(root, args.tests)
            if survived:
                survivors.append(site)
            print(f"[{i}/{len(sites)}] line {site.line} rep.{site.kind} {site.law}: "
                  f"{'SURVIVED' if survived else 'killed'}", flush=True)
    print(f"{len(survivors)} of {len(sites)} sites survived in {args.source}")
    for site in survivors:
        print(f"  line {site.line}: rep.{site.kind} {site.law}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
