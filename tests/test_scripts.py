"""The demo scripts run end to end in their own interpreter."""
import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import yaml

from conftest import GOLDEN

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=60,
    )


def test_run_scripted_demo(tmp_path):
    out = tmp_path / "run"
    proc = run_script("run_scripted_demo.py", "--out", str(out), "--fresh")
    assert proc.returncode == 0, proc.stderr
    assert "hash chain and lineage replay verified over 3 versions" in proc.stdout
    # Trained on the ToySamples themselves, the demo writes the golden tree.
    manifest = yaml.safe_load((GOLDEN / "manifest.yaml").read_text())
    tree = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert tree == manifest["files"]


def test_toy_improvement_demo():
    proc = run_script("toy_improvement_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "improvement: +1.00 on 20 held-out samples" in proc.stdout


def test_regen_golden_fixtures_reproduces_them(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = SCRIPTS / "regen_golden_fixtures.py"
    spec = importlib.util.spec_from_file_location("regen_golden_fixtures", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    assert regen.main() == 0
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
