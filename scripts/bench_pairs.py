#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a base revision against the working tree.

    python scripts/bench_pairs.py --base HEAD --pairs 10 --seed-base 601
    python scripts/bench_pairs.py --base HEAD --workload eval_http \\
        --pairs 10 --seed-base 601

Without ``--workload`` it runs every workload ``BENCHMARK.json`` lists,
one after the other, and prints one table each; ``--seconds`` defaults
to its ``run_seconds``, the length of the benchmark's own runs.

Pair ``i`` runs ``perfbench/run.py --seed K+i --trace 0`` once on each
side, the base first in even pairs and the change first in odd ones. Each
side's committed files are exported (``git archive``) into the same
directory, ``.bench_pairs``, just before it runs, and its own
``perfbench/run.py`` runs there unchanged. The working tree is exported
through ``git stash create``, so it holds the tracked files as they are
now, staged or not; a new file counts once it is staged. One path for
both sides matters: the same code from two checkout paths has read
differently in every pair (``train_wide`` ``peak_rss_mb`` 26.84 against
27.29 MiB in 6/6 pairs).

Per end-to-end metric it prints each side's median and quartiles, the
change's wins and ties (a tie counts for neither side), and whether the
gain rule holds: the change wins at least nine tenths of the pairs, and
its median beats the base's by more than the base's q1-q3 spread. It
also applies the no-regression rule, in the ``worse`` column: yes when
the change's median is worse than the base's by more than the metric's
``bound``, read as a fraction of the base's median; unresolved when it
is not, but the base's q1-q3 spread is wider than the bound and some run
of the change reads no better than every run of the base; else no. The
direction and bound of each metric come from ``BENCHMARK.json``. Every
run's ``correct`` flag, failed count and end-to-end values are printed as
it ends, so a reader can tell noise from a shift. It exits 1 when,
on any workload, a run is not correct or failed an operation, or a metric
is worse.
"""
from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_pairs"


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, check=True
    ).stdout


def export(rev: str, dest: Path) -> None:
    """The files of ``rev``, and only those, at ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as archive:
        archive.extractall(dest, filter="data")


def run_side(rev: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of ``rev``: the last line ``perfbench/run.py`` prints."""
    export(rev, WORK)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=WORK, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"the benchmark printed nothing: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles and wins of paired runs of one metric, whether
    the gain rule holds for the change, and whether it is worse (yes, no
    or unresolved) by the no-regression rule with ``bound``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change, strict=True))
    ties = sum(b == c for b, c in zip(base, change))
    b_q1, b_median, b_q3 = _quartiles(base)
    c_q1, c_median, c_q3 = _quartiles(change)
    allowed = bound * abs(b_median)
    every_run_better = min(sign * b for b in base) > max(sign * c for c in change)
    if sign * (c_median - b_median) > allowed:
        worse = "yes"
    elif b_q3 - b_q1 > allowed and not every_run_better:
        worse = "unresolved"
    else:
        worse = "no"
    return {
        "base": (b_median, b_q1, b_q3),
        "change": (c_median, c_q1, c_q3),
        "wins": wins,
        "ties": ties,
        "pairs": len(base),
        "gain": 10 * wins >= 9 * len(base) and sign * (b_median - c_median) > b_q3 - b_q1,
        "worse": worse,
    }


def compare(workload: str, base: str, change: str, args, metrics: list) -> bool:
    """Run ``args.pairs`` pairs of ``workload`` and print its table; True
    when a run is not correct or failed an operation, or a metric is worse."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = [("base", base), ("change", change)]
        for side, rev in order if i % 2 == 0 else order[::-1]:
            result = run_side(rev, workload, seed, args.seconds)
            runs[side].append(result)
            values = " ".join(
                f"{name}={result['metrics'][name]['value']:.4g}" for name, *_ in metrics
            )
            print(f"{workload} pair {i + 1} seed {seed} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    print(f"\n{workload}, {args.pairs} pairs, {args.seconds:g} s runs, "
          f"seeds {args.seed_base}-{args.seed_base + args.pairs - 1}")
    print("metric          base median [q1-q3]            change median [q1-q3]          "
          "wins  ties  gain  worse")
    worse = False
    for name, unit, better, bound in metrics:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        s = summarize(values["base"], values["change"], better, bound)
        cells = [f"{m:.4g} [{q1:.4g}-{q3:.4g}] {unit}" for m, q1, q3 in (s["base"], s["change"])]
        print(f"{name:<15} {cells[0]:<30} {cells[1]:<30} {s['wins']:>2}/{s['pairs']:<2} "
              f"{s['ties']:>2}/{s['pairs']:<2} {'yes' if s['gain'] else 'no':<5} {s['worse']}")
        worse = worse or s["worse"] == "yes"
    print(flush=True)
    return worse or any(not r["correct"] or r["failed"] for side in runs for r in runs[side])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", choices=workloads,
                        help="one workload (default: each in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    base = _git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    change = _git("stash", "create").decode().strip() or _git("rev-parse", "HEAD").decode().strip()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    failed = [w for w in ([args.workload] if args.workload else workloads)
              if compare(w, base, change, args, metrics)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
