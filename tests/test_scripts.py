"""The demo scripts run end to end in their own interpreter."""
import hashlib
import importlib.util
import shutil
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


def import_script(monkeypatch, name):
    """Import a script as a module; its ``sys.path`` edit is undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    regen = import_script(monkeypatch, "regen_golden_fixtures")
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    assert regen.main() == 0
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_src_size_counts_lines_and_settable_values(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "def f(a, b=1, *args, c=2, d, **kw):\n"
        "    return lambda x=3: x\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    k: ClassVar[int] = 1\n"
        "class Plain:\n"
        "    w: int = 0\n"
        "class N(NamedTuple):\n"
        "    p: int\n"
        "    q: int = 0\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text("async def g(e=None):\n    pass\n", encoding="utf-8")
    proc = run_script("src_size.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # b=1, c=2, e=None, y, z and q; not the lambda's default, the ClassVar
    # or Plain.w.
    assert proc.stdout.splitlines() == ["lines: 17", "settable values: 6"]

    proc = run_script("src_size.py")
    assert proc.returncode == 0, proc.stderr
    src = SCRIPTS.parent / "src" / "reprompt"
    lines = sum(p.read_bytes().count(b"\n") for p in src.glob("*.py"))
    assert proc.stdout.splitlines()[0] == f"lines: {lines}"


def test_mutation_soak_subset(monkeypatch):
    # Every 6th of the soak's cases: each kind of damage to the golden run,
    # in a few seconds. `python scripts/mutation_soak.py` runs them all.
    soak = import_script(monkeypatch, "mutation_soak")
    count, failures = soak.soak(every=6)
    assert failures == []
    assert count >= 90


# sha256 of the golden run's cursor in the older format, with epoch lines.
OLDER_GOLDEN_CURSOR = "86a357d44abb1e65db87a8b6028235e96309af0f3d3e0c4767e71918930f7884"


def test_mutation_soak_older_cursor_is_corrupt(monkeypatch, tmp_path):
    # The subset above need not pick this case, so run it here. It rebuilds
    # the older golden cursor byte for byte, and inspect and resume refuse it.
    soak = import_script(monkeypatch, "mutation_soak")
    golden = tmp_path / "golden"
    soak.train_golden(golden)
    selected = [case for case in soak.cases(golden) if case[0] == soak.CORRUPTING]
    assert [label for _, label, _ in selected] == [
        "state.cursor: older format with epoch lines",
    ]
    (target, _, damage), = selected
    older = tmp_path / "older"
    shutil.copytree(golden, older)
    damage(older)
    assert hashlib.sha256((older / "state.cursor").read_bytes()).hexdigest() == (
        OLDER_GOLDEN_CURSOR
    )
    assert soak.check(golden, tmp_path, target, damage) == []


def test_mutation_soak_damaged_copies_are_corrupt(monkeypatch, tmp_path):
    # Every damage to the dataset or script copy, or to the hash run.meta
    # records of it, must make inspect and resume exit 2.
    soak = import_script(monkeypatch, "mutation_soak")
    golden = tmp_path / "golden"
    soak.train_golden(golden)
    selected = [case for case in soak.cases(golden) if case[0] in soak.COPIES]
    assert {target for target, _, _ in selected} == soak.COPIES
    # Per copy: delete, three cuts and nine bit flips; per hash: nine values.
    assert len(selected) == 2 * 13 + 2 * 9
    for target, label, damage in selected:
        assert soak.check(golden, tmp_path, target, damage) == [], label


def test_bench_pairs_summary_applies_the_gain_rule(monkeypatch):
    pairs = import_script(monkeypatch, "bench_pairs")
    base = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # q1 12.25, q3 16.75
    clear = pairs.summarize(base, [b - 5 for b in base], "lower")
    assert clear == {
        "base": (14.5, 12.25, 16.75), "change": (9.5, 7.25, 11.75),
        "wins": 10, "ties": 0, "pairs": 10, "gain": True,
    }
    # Every pair won, but the medians differ by less than the base's spread.
    assert not pairs.summarize(base, [b - 4 for b in base], "lower")["gain"]
    # A wide gap, but a tie and a loss leave 8 wins of 10.
    mixed = [b - 5 for b in base[:8]] + [base[8], base[9] + 1]
    assert pairs.summarize(base, mixed, "lower")["wins"] == 8
    assert pairs.summarize(base, mixed, "lower")["ties"] == 1
    assert not pairs.summarize(base, mixed, "lower")["gain"]
    # For a metric where higher is better, the same runs count the other way.
    higher = pairs.summarize(base, [b + 5 for b in base], "higher")
    assert (higher["wins"], higher["gain"]) == (10, True)
    assert pairs.summarize(base, [b + 5 for b in base], "lower")["wins"] == 0


def test_untested_lines_counts_each_statement_by_its_head(monkeypatch):
    tool = import_script(monkeypatch, "untested_lines")
    source = (
        "import os\n"
        "@dec\n"
        "def f(x):\n"
        "    '''A docstring runs no instruction.'''\n"
        "    global g\n"
        "    if (x and\n"
        "            x > 1):\n"
        "        return (\n"
        "            x)\n"
        "    try:\n"
        "        pass\n"
        "    except OSError:\n"
        "        raise\n"
        "    return None\n"
    )
    assert tool.statements(source) == {
        1: range(1, 2), 3: range(2, 4), 6: range(6, 8), 8: range(8, 10),
        10: range(10, 11), 11: range(11, 12), 13: range(13, 14), 14: range(14, 15),
    }
    # A statement is reached through any line of its head.
    assert tool.unreached(source, {1, 2, 7, 11, 14}) == [8, 10, 13]
