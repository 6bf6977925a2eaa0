"""tools/output_hashes.py refuses a seed range that would check nothing."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


@pytest.mark.parametrize("seeds", ["5-3", "1-0"])
def test_an_empty_seed_range_exits_2_before_any_run(seeds):
    """An empty range printed no listing and exited 0, so two such listings diffed clean."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--src", "src", "--seeds", seeds],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"argument --seeds: '{seeds}' is an empty seed range" in proc.stderr
