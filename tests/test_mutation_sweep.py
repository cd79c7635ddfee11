"""tools/mutation_sweep.py end to end, on a module with no sites.

This lives apart from tests/test_law_census.py: the sweep runs that file
in its copy, and a sweep started from it would start another."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_census_passes_in_the_sweeps_copy():
    # the census loads the tool from the copy's root, so the copy holds tools/
    proc = subprocess.run(
        [sys.executable, "tools/mutation_sweep.py", "src/bindcat/hashcons.py",
         "tests/test_law_census.py"], cwd=ROOT, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "0 of 0 sites survived in src/bindcat/hashcons.py" in proc.stdout
