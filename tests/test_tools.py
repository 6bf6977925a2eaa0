"""tools/output_hashes.py: it refuses a seed range that would check nothing, and its compare mode holds each
cell to the README output contracts."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


@pytest.mark.parametrize("seeds", ["5-3", "1-0"])
def test_an_empty_seed_range_exits_2_before_any_run(seeds):
    """An empty range printed no listing and exited 0, so two such listings diffed clean."""
    proc = subprocess.run([sys.executable, str(SCRIPT), "--src", "src", "--seeds", seeds],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"argument --seeds: '{seeds}' is an empty seed range" in proc.stderr


def load_tool():
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("column, old, new, breach", [
    ("amp_mean", "0.5", repr(0.5 * (1 + 1e-15)), False),  # a last-bits move is within 1e-12 relative
    ("objective", "22.008163148129128", "22.008163148129135", False),
    ("amp_mean", "0.5", repr(0.5 * (1 + 1e-9)), True),
    ("cfo_est_hz", "1e-14", "2e-14", False),  # a near-zero column: 1e-12 * max(|old|, 1)
    ("phase_resid_var", "1e-14", "2e-14", True),
    ("snr_est_db", "nan", "nan", False),
    ("snr_est_db", "nan", "18.3", True),
    ("eer", "0.028703703703703703", "0.028703703703703707", True),  # the EER is exact
    ("gain_db", "0.0", "-0.0", False),  # compared by value
    ("accepted", "0", "1", True),  # a decision cell
    ("n_rois", "240", "239", True),
    ("claimed_id", "dev-00", "dev-01", True),
    ("n_rois", "240", "240.0", True),  # another type is another cell
])
def test_the_compare_mode_cell_rule(column, old, new, breach):
    tool = load_tool()
    change, breached = tool.cell_change(column, tool.parse_cell(old), tool.parse_cell(new))
    assert breached == breach
    assert breached or change <= 1e-12


def test_the_compare_mode_reads_samples_by_value_and_every_cell(tmp_path):
    """A zero's sign bit in a .sigmf-data file is no change; a moved sample, a moved cell or a missing row is."""
    tool = load_tool()
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, zero, accepted, extra in ((old, 0.0, 0, "1.5"), (new, -0.0, 1, "")):
        tree.mkdir()
        np.array([1.0, zero, -2.5, 0.0], dtype="<f4").tofile(tree / "s.sigmf-data")
        (tree / "d.csv").write_text(f"claimed_id,accepted\ndev-00,{accepted}\n")
        (tree / "m.json").write_text(json.dumps({"eer": 0.25, "xs": [1.5, 2.0, *([float(extra)] if extra else [])]}))
    changes, identical = {}, {}
    tool.compare_outputs(old, new, "w", changes, identical)
    assert identical == {("w", "d.csv"): 0, ("w", "m.json"): 0, ("w", "s.sigmf-data"): 0}
    assert {key[1:]: breach for key, (_, breach) in changes.items()} == {
        ("s.sigmf-data", "<samples>"): False,
        ("d.csv", "claimed_id"): False, ("d.csv", "accepted"): True,
        ("m.json", "eer"): False, ("m.json", "xs[]"): False, ("m.json", "<cells>"): True,
    }
    (new / "s.sigmf-data").write_bytes(np.array([1.0, 0.0, -2.5, 1e-30], dtype="<f4").tobytes())
    changes = {}
    tool.compare_outputs(old, new, "w", changes, identical)
    assert changes[("w", "s.sigmf-data", "<samples>")] == [math.inf, True]
