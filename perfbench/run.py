#!/usr/bin/env python3
"""Offline benchmark of reprompt: whole train and eval runs, and each layer.

    python3 perfbench/run.py --workload train_wide --seed 1 --seconds 20 --trace 0

Writes the workload's inputs from ``--seed``, then runs rounds of it,
each in a fresh interpreter, until ``--seconds`` have passed (at least
three rounds). With ``--trace 0`` it prints the end-to-end metrics,
medians over the rounds; with ``--trace 1`` it alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones plus
``trace.overhead_s``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Results
also go to ``BENCH_<workload>.json`` (``.trace.json`` when traced) at the
root of the checkout. Standard library only; the program is imported
from ``src/`` next to this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import spec  # noqa: E402
import tracing  # noqa: E402

MIN_ROUNDS = 3
# No round starts this long after the run began, and no round outlives
# DEADLINE_S, so a run ends within three minutes even if the program hangs.
LAST_START_S = 100
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("gateway_calls", "count"),
    ("request_kchars", "kchar"),
)


def _child_env() -> dict:
    """The loopback stub must be reached directly, never through a proxy."""
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_round(workload: str, inputs: str, work: str, traced: bool, index: int,
              timeout: float) -> dict:
    round_dir = os.path.join(work, f"round{index}")
    os.makedirs(round_dir)
    out_path = os.path.join(round_dir, "result.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), workload, inputs, round_dir,
         "1" if traced else "0", out_path],
        env=_child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {workload} failed with exit code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        result = json.load(fh)
    shutil.rmtree(round_dir)
    return result


def _median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def summarize(workload: str, rounds: list[dict], traced: bool) -> dict:
    problems = [p for r in rounds for p in r["problems"]]
    digests = {r.get("digest") for r in rounds if workload != "eval_http"}
    if len(digests) > 1:
        problems.append("two rounds on the same inputs wrote different run trees")
    missing = sorted({m for r in rounds for m in r.get("missing", ())})
    if missing:
        problems.append(f"the traced names are gone from the program: {missing}")
    plain = [r for r in rounds if not r["traced"]]
    if traced:
        layered = [r for r in rounds if "layers" in r]
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            if not layered:  # the program failed in every traced round
                value = 0.0
            elif name == "trace.overhead_s":
                value = _median(layered, "wall_s") - _median(plain, "wall_s")
            else:
                value = statistics.median(r["layers"][name] for r in layered)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": _median(plain, name), "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reprompt", "__init__.py")):
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reprompt.cli  # noqa: F401  -- compiles the program before any round is timed
    import inputs as inputs_module

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        inputs_module.PREPARE[args.workload](args.seed, Path(inputs))
        rounds: list[dict] = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - start
            untraced = [r for r in rounds if not r["traced"]]
            enough = len(untraced) >= MIN_ROUNDS and (
                not args.trace or len(rounds) - len(untraced) >= MIN_ROUNDS)
            # A round that would end past --seconds is not started, so the
            # run lasts about --seconds whatever the length of a round.
            if (enough and elapsed + longest > args.seconds) or elapsed >= LAST_START_S:
                break
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.perf_counter()
            rounds.append(run_round(args.workload, inputs, work, traced, len(rounds),
                                    DEADLINE_S - (began - start)))
            longest = max(longest, time.perf_counter() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    result, problems = summarize(args.workload, rounds, bool(args.trace))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {"train_wide": spec.TRAIN_WIDE, "train_deep": spec.TRAIN_DEEP,
                  "eval_http": spec.EVAL_HTTP}[args.workload],
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "result": result,
        "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
    }
    if args.trace:
        record["spans"] = next((r["spans"] for r in reversed(rounds) if "spans" in r), [])
    name = f"BENCH_{args.workload}{'.trace' if args.trace else ''}.json"
    with open(os.path.join(ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
