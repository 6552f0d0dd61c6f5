#!/usr/bin/env python3
"""Damage copies of the golden run in many ways; check inspect and resume.

Trains the golden run (``tests/fixtures/golden``) once through the CLI,
with its dataset and script copied into the run directory. Each case
copies that directory, applies one damage, then runs ``reprompt inspect``
and ``reprompt resume`` on it in this process. The damages:

- per file: delete it, truncate it to 0 bytes, to half and by its last
  byte, flip the low bit of a byte at nine evenly spaced offsets, and
  replace it with an empty directory;
- once: add an empty directory named like the next version file;
- per cursor field, per field of a version record or focus, and per
  run.meta key: remove it or set it to null, a string, a float, a list, a
  mapping, a bool, -1 or 10**30;
- per cursor line: delete or duplicate it, or insert a blank line before
  it (and after the last); per pair of lines: swap them;
- once: rewrite the cursor in its older format, which gave every line a
  ``kind`` and followed each epoch's last batch line with an epoch line.

Each case must keep these invariants:

- ``inspect`` exits 0 or 2 and ``resume`` exits 0, 1 or 2; neither
  raises. ``resume`` may exit 1 only on a case that damages an input it
  checks as such: the run.meta keys that must match the config and
  sample list, run.meta as a whole, and the run.meta keys that name the
  dataset and script copies;
- a ``resume`` that does not exit 0 leaves the tree byte-identical;
- after a ``resume`` that exits 0, ``inspect`` exits 0;
- a cursor in the older format, any damage to the dataset or script
  copy, any other value of the run.meta hash of either copy, and a
  directory in the place of any file but a transcript, or named like the
  next version file, make a corrupt run: ``inspect`` and ``resume`` both
  exit 2.

The tree compared is each file's bytes and each directory's path, so a
``resume`` that removes a directory has changed it.

    python scripts/mutation_soak.py [--every N]

``--every N`` runs every Nth case only. The script prints each broken
invariant and a summary line, and exits 1 when any case broke one.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reprompt.cli import main as cli  # noqa: E402

GOLDEN = ROOT / "tests" / "fixtures" / "golden"
CONFIG = str(GOLDEN / "run.cfg")

# What a field or key is set to; _REMOVE deletes it instead.
_REMOVE = object()
VALUES = (_REMOVE, None, "x", 1.5, [1], {"a": 1}, True, -1, 10**30)
FLIPS = 9
# Damage to these may make resume exit 1: the run.meta keys it compares with
# the config and samples, run.meta as a whole, and the run.meta keys that
# name the copies (null leaves resume without a dataset or script).
CONFIG_INPUTS = {
    "samples", "samples_sha256", "batch_size", "epochs", "max_rounds", "feedback",
    "seed", "model", "summarizer_model", "optimizer_model", "repair_model",
    "temperature", "segmentation", "required_tokens", "guards", "run.meta",
    "dataset", "script",
}
# Damage to these targets makes a corrupt run: inspect and resume must exit 2.
CORRUPTING = "state.cursor epoch lines"
NOT_A_FILE = "a directory in a run file's place"
# So does damage to the input copies and to the hashes run.meta records of them.
COPIES = {"dataset.yaml", "script.yaml", "dataset_sha256", "script_sha256"}


def train_golden(run_dir: Path) -> None:
    code, _, err = run_cli([
        "train", "--config", CONFIG,
        "--prompt", str(GOLDEN / "initial_prompt.txt"),
        "--dataset", str(GOLDEN / "dataset.yaml"),
        "--script", str(GOLDEN / "script.yaml"),
        "--out", str(run_dir),
    ])
    if code != 0:
        raise SystemExit(f"training the golden run failed: {err}")


def run_cli(argv: list[str]) -> tuple[int | str, str, str]:
    """The exit code (or the exception it raised), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = cli(argv)
        except Exception as exc:  # the invariant under test: no command raises
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def tree(root: Path) -> dict[str, str | None]:
    """Each file's SHA-256, and None for each directory, by path."""
    return {
        p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def _set(mapping: dict, key: str, value) -> None:
    if value is _REMOVE:
        mapping.pop(key, None)
    else:
        mapping[key] = value


def _value_name(value) -> str:
    return "remove" if value is _REMOVE else json.dumps(value)


def _read_lines(run: Path) -> list[dict]:
    return [json.loads(line) for line in (run / "state.cursor").read_bytes().splitlines()]


def _write_lines(run: Path, entries: list[dict]) -> None:
    (run / "state.cursor").write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries),
        encoding="utf-8",
    )


Damage = Callable[[Path], None]


def _delete(name: str) -> Damage:
    return lambda run: (run / name).unlink()


def _cut(name: str, length: int) -> Damage:
    return lambda run: (run / name).write_bytes((run / name).read_bytes()[:length])


def _flip(name: str, offset: int) -> Damage:
    def damage(run):
        data = bytearray((run / name).read_bytes())
        data[offset] ^= 1
        (run / name).write_bytes(bytes(data))
    return damage


def _directory(name: str) -> Damage:
    def damage(run):
        (run / name).unlink(missing_ok=True)
        (run / name).mkdir()
    return damage


def _file_cases(golden: Path) -> list[tuple[str, str, Damage]]:
    cases = []
    files = [name for name, digest in tree(golden).items() if digest is not None]
    for name in files:
        size = (golden / name).stat().st_size
        cases.append((name, f"{name}: delete", _delete(name)))
        for label, length in (("empty", 0), ("half", size // 2), ("drop last byte", size - 1)):
            cases.append((name, f"{name}: truncate {label}", _cut(name, length)))
        for offset in sorted({k * (size - 1) // (FLIPS - 1) for k in range(FLIPS)}):
            cases.append((name, f"{name}: flip byte {offset}", _flip(name, offset)))
        target = name if name.startswith("transcripts/") else NOT_A_FILE
        cases.append((target, f"{name}: replace with a directory", _directory(name)))
    stray = f"prompts/v{sum(name.startswith('prompts/') for name in files)}.txt"
    cases.append((NOT_A_FILE, f"{stray}: add a directory", _directory(stray)))
    return cases


def _blank_line(index: int) -> Damage:
    def damage(run):
        lines = (run / "state.cursor").read_bytes().splitlines(keepends=True)
        lines.insert(index, b"\n")
        (run / "state.cursor").write_bytes(b"".join(lines))
    return damage


def _older_format(run: Path) -> None:
    """Rewrite the cursor as the older format wrote it: each batch line also
    carries ``"kind": "batch"``, and an epoch line, whose ``changed`` says
    whether the epoch wrote a version, follows each epoch's last batch line."""
    entries = _read_lines(run)
    lines = []
    for index, entry in enumerate(entries):
        lines.append({**entry, "kind": "batch"})
        epoch = entry["epoch"]
        if index + 1 == len(entries) or entries[index + 1]["epoch"] != epoch:
            lines.append({
                "kind": "epoch", "epoch": epoch,
                "changed": any("version" in e for e in entries if e["epoch"] == epoch),
                "prompt_version": entry["prompt_version"],
            })
    _write_lines(run, lines)


def _cursor_cases(golden: Path) -> list[tuple[str, str, Damage]]:
    entries = _read_lines(golden)
    cases = []

    def edit(index: int, path: tuple[str, ...], value) -> Damage:
        def damage(run):
            lines = _read_lines(run)
            target = lines[index]
            for key in path[:-1]:
                target = target[key]
            _set(target, path[-1], value)
            _write_lines(run, lines)
        return damage

    for index, entry in enumerate(entries):
        paths = [(key,) for key in sorted(entry)]
        paths += [
            (outer, key)
            for outer in ("version", "focus") if isinstance(entry.get(outer), dict)
            for key in sorted(entry[outer])
        ]
        for path, value in itertools.product(paths, VALUES):
            label = f"state.cursor line {index + 1} {'.'.join(path)}: {_value_name(value)}"
            cases.append(("state.cursor", label, edit(index, path, value)))
    cases.append((CORRUPTING, "state.cursor: older format with epoch lines", _older_format))

    def reorder(order: list[int]) -> Damage:
        return lambda run: _write_lines(run, [_read_lines(run)[i] for i in order])

    lines = range(len(entries))
    for i in lines:
        cases.append(("state.cursor", f"state.cursor: delete line {i + 1}",
                      reorder([j for j in lines if j != i])))
        cases.append(("state.cursor", f"state.cursor: duplicate line {i + 1}",
                      reorder([j for j in lines for _ in range(2 if j == i else 1)])))
    for i in range(len(entries) + 1):
        cases.append(("state.cursor", f"state.cursor: blank line before line {i + 1}",
                      _blank_line(i)))
    for i, j in itertools.combinations(lines, 2):
        order = list(lines)
        order[i], order[j] = j, i
        cases.append(("state.cursor", f"state.cursor: swap lines {i + 1} and {j + 1}",
                      reorder(order)))
    return cases


def _meta_cases(golden: Path) -> list[tuple[str, str, Damage]]:
    keys = list(json.loads((golden / "run.meta").read_text(encoding="utf-8")))

    def edit(key: str, value) -> Damage:
        def damage(run):
            meta = json.loads((run / "run.meta").read_text(encoding="utf-8"))
            _set(meta, key, value)
            (run / "run.meta").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        return damage

    return [
        (key, f"run.meta {key}: {_value_name(value)}", edit(key, value))
        for key, value in itertools.product(keys, VALUES)
    ]


def cases(golden: Path) -> list[tuple[str, str, Damage]]:
    """Every case as (target, label, damage). The target is the damaged
    file, the damaged run.meta key, CORRUPTING or NOT_A_FILE."""
    return _file_cases(golden) + _cursor_cases(golden) + _meta_cases(golden)


def check(golden: Path, work: Path, target: str, damage: Damage) -> list[str]:
    """Damage a copy of ``golden`` and return the invariants it broke."""
    run = work / "run"
    shutil.rmtree(run, ignore_errors=True)
    shutil.copytree(golden, run)
    damage(run)
    problems = []
    corrupting = target in (CORRUPTING, NOT_A_FILE) or target in COPIES
    inspect, _, _ = run_cli(["inspect", "--out", str(run)])
    if inspect not in ((2,) if corrupting else (0, 2)):
        problems.append(f"inspect: {inspect}")
    before = tree(run)
    resumed, _, err = run_cli(["resume", "--config", CONFIG, "--out", str(run)])
    allowed = (2,) if corrupting else (0, 1, 2) if target in CONFIG_INPUTS else (0, 2)
    if resumed not in allowed:
        problems.append(f"resume: {resumed} {err.strip()}")
    elif resumed != 0 and tree(run) != before:
        problems.append(f"resume exited {resumed} but changed the tree: {err.strip()}")
    elif resumed == 0:
        after, _, err = run_cli(["inspect", "--out", str(run)])
        if after != 0:
            problems.append(f"inspect after resume: {after} {err.strip()}")
    return problems


def soak(every: int) -> tuple[int, list[str]]:
    """Run every ``every``-th case; return the count run and the failures."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        golden = Path(tmp) / "golden"
        train_golden(golden)
        selected = cases(golden)[::every]
        for target, label, damage in selected:
            failures += [f"{label}: {p}" for p in check(golden, Path(tmp), target, damage)]
    return len(selected), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--every", type=int, default=1, help="run every Nth case")
    args = parser.parse_args(argv)
    if args.every < 1:
        parser.error("--every must be at least 1")
    start = time.perf_counter()
    count, failures = soak(args.every)
    for line in failures:
        print(line)
    print(f"{count} cases, {len(failures)} broken invariant(s), "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
