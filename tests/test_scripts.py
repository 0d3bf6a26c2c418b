"""Smoke tests for the command-line scripts under scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


def test_tilt_scan_two_steps():
    proc = _run_script("tilt_scan.py", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:4]]
    assert len(rows) == 2
    for row in rows:
        tilt, rate_metric, rate_exact = map(float, row[:3])
        assert rate_metric > 0 and rate_exact > 0
        assert row[3] in {"Refine", "KeepCoarse", "Inconclusive"}
    assert "ln N" in proc.stdout.splitlines()[-1]


def test_run_demos_wolf_json():
    proc = _run_script("run_demos.py", "--only", "wolf", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "demo wolf"
    assert doc["result"]["compare_trivial_vs_two"]["verdict"] == "Refine"


@pytest.fixture(scope="module")
def data_digest():
    proc = _run_script("result_digest.py", "--only", "data")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_result_digest_on_data(data_digest):
    lines = data_digest.splitlines()
    assert len(lines) > 10
    labels = set()
    for line in lines:
        digest, rc, label = line.split(" ", 2)
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert rc == "0"
        assert label.split()[0] in {"significance", "project", "estimate", "compare"}
        labels.add(label)
    assert len(labels) == len(lines)


def test_result_digest_against(data_digest, tmp_path):
    saved = tmp_path / "saved.txt"
    saved.write_text(data_digest)
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differs:" not in proc.stdout

    lines = data_digest.splitlines()
    label = lines[3].split(" ", 2)[2]
    lines[3] = "0" * 64 + " 0 " + label
    saved.write_text("\n".join(lines) + "\n")
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.returncode == 1
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("differs:")] == [
        f"differs: {label}"]
