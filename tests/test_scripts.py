"""Smoke tests for the command-line scripts under scripts/."""

import importlib.util
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


@pytest.fixture(scope="module")
def data_run(tmp_path_factory):
    """The digest lines and the --values file of the data commands."""
    values = tmp_path_factory.mktemp("digest") / "values.json"
    proc = _run_script("result_digest.py", "--only", "data", "--values", str(values))
    assert proc.returncode == 0, proc.stderr
    # the second, warm pass in the same process gives every line again
    assert proc.stderr.splitlines()[-1] == (
        f"0 of {len(proc.stdout.splitlines())} label(s) differ between the cold and "
        "the warm pass")
    return proc.stdout, json.loads(values.read_text())


@pytest.fixture(scope="module")
def data_digest(data_run):
    return data_run[0]


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


def test_result_digest_values(data_run, tmp_path):
    digest, values = data_run
    values = json.loads(json.dumps(values))  # a copy: the fixture is shared
    labels = [line.split(" ", 2)[2] for line in digest.splitlines()]
    assert list(values) == labels
    assert all(v["exit"] == 0 and isinstance(v["result"], dict) for v in values.values())
    saved = tmp_path / "values.json"
    saved.write_text(json.dumps(values))
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differs:" not in proc.stdout

    # one number moved by 1e-9 relative, one verdict changed
    moved, flipped = labels[3], labels[9]
    values[moved]["result"]["comparison"]["chi2_gain"] *= 1.0 + 1e-9
    comparison = values[flipped]["result"]["comparison"]
    comparison["verdict"] = "Refine" if comparison["verdict"] == "Inconclusive" else "Inconclusive"
    saved.write_text(json.dumps(values))
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.returncode == 1
    differ = [ln for ln in proc.stdout.splitlines() if ln.startswith("differs:")]
    assert len(differ) == 2
    head, rel = differ[0].rsplit(": largest relative difference ", 1)
    assert head == f"differs: {moved}"
    size, field = rel.split(" at ")
    assert float(size) == pytest.approx(1e-9, rel=1e-3)
    assert field == "result.comparison.chi2_gain"
    assert differ[1] == (f"differs: {flipped}: largest relative difference inf "
                         "at result.comparison.verdict")
    assert proc.stdout.splitlines()[-1] == (
        f"largest relative difference over all labels: inf at {flipped}")


def test_result_digest_largest_over_labels(data_run, tmp_path):
    # the last line reads off the largest difference over all labels
    digest, values = data_run
    values = json.loads(json.dumps(values))  # a copy: the fixture is shared
    labels = [line.split(" ", 2)[2] for line in digest.splitlines()]
    saved = tmp_path / "values.json"
    saved.write_text(json.dumps(values))
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.stdout.splitlines()[-1] == "largest relative difference over all labels: 0"
    small, large = labels[3], labels[9]
    values[small]["result"]["comparison"]["chi2_gain"] *= 1.0 + 1e-12
    values[large]["result"]["comparison"]["chi2_gain"] *= 1.0 + 1e-9
    saved.write_text(json.dumps(values))
    proc = _run_script("result_digest.py", "--only", "data", "--against", str(saved))
    assert proc.returncode == 1
    head, label = proc.stdout.splitlines()[-1].split(" at ", 1)
    size = head.removeprefix("largest relative difference over all labels: ")
    assert float(size) == pytest.approx(1e-9, rel=1e-3)
    assert label == large


def test_result_digest_warm_difference(monkeypatch, capsys):
    # a warm line that differs from its cold one makes the script exit 1
    spec = importlib.util.spec_from_file_location(
        "result_digest", ROOT / "scripts" / "result_digest.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    seen = []
    cold = script.result_digest

    def drifting(argv, out):
        digest, rc, result = cold(argv, out)
        seen.append(argv)
        return ("0" * 64 if seen.count(argv) == 2 and argv == ["demo", "wolf"]
                else digest), rc, result

    monkeypatch.setattr(script, "result_digest", drifting)
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("GIBBSFIT_LOG", "error")
    assert script.main(["--only", "demos"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == ["warm differs: demo wolf",
                        "1 of 4 label(s) differ between the cold and the warm pass"]
    assert len(seen) == 2 * len(script.DEMO_COMMANDS)


def test_readme_library_block_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("evidence ")
    assert lines[2].split()[0] in {"Refine", "KeepCoarse", "Inconclusive"}
