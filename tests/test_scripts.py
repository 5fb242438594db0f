"""Smoke tests for the scripts under ``scripts/``, each run as a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tamari_balance import limits

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_export_hasse_gallery(tmp_path):
    result = run_script(
        "export_hasse_gallery.py", "--max-n", "7", "--out-dir", str(tmp_path)
    )
    assert result.returncode == 0, result.stderr
    assert "n=7: 17 trees, 24 edges" in result.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"balanced_{n}.dot" for n in range(8)
    )
    dot = (tmp_path / "balanced_7.dot").read_text()
    assert dot.startswith("digraph balanced_7 {")


def test_zero_beta_experiment_json():
    result = run_script(
        "zero_beta_experiment.py", "--beta", "1", "2", "--max-n", "6", "--json"
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["max_n"] == 6
    assert [trial["beta"] for trial in payload["trials"]] == [1, 2]


@pytest.mark.parametrize(
    "name, row",
    [
        ("export_hasse_gallery.py", limits.HASSE_BALANCED),
        ("zero_beta_experiment.py", limits.IMBALANCE_FAMILY),
    ],
)
def test_script_rejects_one_past_its_row(name, row):
    result = run_script(name, "--max-n", str(row.bound + 1))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: --max-n must lie in 0..{row.bound}\n")
