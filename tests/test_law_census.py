"""A static census of the laws the checkers report: every ``rep.check`` /
``rep.fail`` / ``rep.fail_bits`` law in ``src/bindcat`` must be named
somewhere under ``tests/``, or sit on an allow-list with its reason.  A
law that no test names is one that no test shows can fail;
``tools/mutation_sweep.py`` finds the same sites by running the tests,
this census only reads them."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutation_sweep", ROOT / "tools" / "mutation_sweep.py")
mutation_sweep = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutation_sweep)

# Sites whose law name is built at run time, by (module, expression at the
# site), with every name the expression yields.
BUILT = {
    ("fincat.py", "law + 'unit-left'"): {"unit-left", "disp-unit-left"},
    ("fincat.py", "law + 'unit-right'"): {"unit-right", "disp-unit-right"},
    ("fincat.py", "law + 'assoc'"): {"assoc", "disp-assoc"},
    ("monoidal.py", "law"): {"interchange", "disp-interchange", "triangle", "disp-triangle",
                             "pentagon", "disp-pentagon"},
    ("monoidal.py", "law + 'lwhisker-identity'"): {
        "lwhisker-identity", "disp-lwhisker-identity"},
    ("monoidal.py", "law + 'rwhisker-identity'"): {
        "rwhisker-identity", "disp-rwhisker-identity"},
    ("monoidal.py", "law + 'lwhisker-composition'"): {
        "lwhisker-composition", "disp-lwhisker-composition"},
    ("monoidal.py", "law + 'rwhisker-composition'"): {
        "rwhisker-composition", "disp-rwhisker-composition"},
    ("monoidal.py", "which + '-endpoints'"): {
        "lunitor-endpoints", "runitor-endpoints", "associator-endpoints"},
    ("monoidal.py", "law + which + '-iso'"): {
        "lunitor-iso", "runitor-iso", "associator-iso",
        "disp-lunitor-iso", "disp-runitor-iso", "disp-associator-iso"},
    ("displayed.py", "f'disp-{which}-totality'"): {
        "disp-lunitor-totality", "disp-runitor-totality"},
    ("displayed.py", "f'disp-{which}-over'"): {"disp-lunitor-over", "disp-runitor-over"},
    ("omega.py", "law + '-identity'"): {"param-action-identity", "mu-identity"},
    ("omega.py", "law + '-composition'"): {"param-action-composition", "mu-composition"},
}

# Laws that no test names yet, with the input a saboteur would need.
# Entries may only be removed: there were five when the census began,
# all in omega.py, and each now has a saboteur in tests/test_omega.py.
UNTESTED: dict[str, str] = {}


@pytest.fixture(scope="module")
def sites() -> dict[tuple[str, str], object]:
    """Each site's (module, law expression), mapped to its literal law
    name, or to None where the name is built at run time."""
    out = {}
    for path in sorted((ROOT / "src" / "bindcat").glob("*.py")):
        for site in mutation_sweep.find_sites(path.read_text(encoding="utf-8")):
            try:
                law = ast.literal_eval(site.law)
            except ValueError:
                law = None
            out[(path.name, site.law)] = law
    return out


@pytest.fixture(scope="module")
def laws(sites) -> set[str]:
    return {law for law in sites.values() if law is not None}.union(
        *(BUILT.get(key, ()) for key, law in sites.items() if law is None))


@pytest.fixture(scope="module")
def named() -> set[str]:
    """Every whole name in the tests and fixtures: "pentagon" inside
    "disp-pentagon" does not count as naming "pentagon"."""
    here = Path(__file__).resolve()
    files = [p for p in (ROOT / "tests").glob("*.py") if p.resolve() != here]
    files += (ROOT / "tests" / "fixtures").glob("*.json")
    return {name for p in files for name in re.findall(r"[\w-]+", p.read_text(encoding="utf-8"))}


def test_monad_assoc_is_a_site(sites):
    # the associativity sweep reports through rep.fail_bits, not rep.fail
    assert sites[("terms.py", "'monad-assoc'")] == "monad-assoc"


def test_every_built_law_name_is_mapped(sites):
    assert {key for key, law in sites.items() if law is None} == set(BUILT)


def test_every_law_is_named_by_a_test(laws, named):
    assert len(laws) > 80
    assert sorted(laws - named - set(UNTESTED)) == []


def test_the_allow_list_only_shrinks():
    assert UNTESTED == {}
