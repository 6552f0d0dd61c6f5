"""Correctness checks made apart from the program.

Plans are read and judged by this module's own parser and its own
budget-and-route rule, working on the samples as plain data. Prompt
versions are compared with the ones ``spec`` builds. Every check
returns a list of problems; an empty list means the output is right.
Standard library only.
"""
from __future__ import annotations

import hashlib
import os
import re

import spec

_DAY_RE = re.compile(r"Day (\d+): (\S+)")


def parse_plan(text: str) -> tuple[str, ...] | None:
    """The plan in the last "PLAN:" block of a text, or None."""
    idx = text.rfind("PLAN:")
    if idx < 0:
        return None
    ids: list[str] = []
    for line in text[idx + len("PLAN:"):].splitlines():
        line = line.strip()
        if not line:
            continue
        m = _DAY_RE.fullmatch(line)
        if m is None or int(m.group(1)) != len(ids) + 1:
            break
        ids.append(m.group(2))
    return tuple(ids) or None


def plan_feasible(plan, sample: dict) -> bool:
    """One known activity per day, total cost within the budget, and every
    move between consecutive days on an allowed route."""
    if plan is None or len(plan) != sample["days"]:
        return False
    chosen = []
    for day_options, option_id in zip(sample["options"], plan):
        found = [o for o in day_options if o["id"] == option_id]
        if not found:
            return False
        chosen.append(found[0])
    if sum(o["cost"] for o in chosen) > sample["budget"]:
        return False
    routes = {(a, b) for a, b in sample["routes"]}
    return all((x["city"], y["city"]) in routes for x, y in zip(chosen, chosen[1:]))


def tree_digest(root) -> str:
    """Hash of every relative path and file's bytes under ``root``."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
            digest.update(b"\0")
    return digest.hexdigest()


def tree_size(root) -> tuple[int, int]:
    """(bytes, files) under ``root``."""
    size = files = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            size += os.path.getsize(os.path.join(dirpath, name))
            files += 1
    return size, files


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_versions(run_dir) -> list[str]:
    prompts = os.path.join(run_dir, "prompts")
    texts = []
    while os.path.exists(os.path.join(prompts, f"v{len(texts)}.txt")):
        texts.append(_read(os.path.join(prompts, f"v{len(texts)}.txt")))
    return texts


def read_answers(run_dir, epoch: int) -> dict[str, str]:
    """Transcript text per sample id for one epoch of a run directory."""
    base = os.path.join(run_dir, "transcripts", f"e{epoch}")
    answers = {}
    if not os.path.isdir(base):
        return answers
    for batch in sorted(os.listdir(base)):
        for name in sorted(os.listdir(os.path.join(base, batch))):
            answers[name[: -len(".txt")]] = _read(os.path.join(base, batch, name))
    return answers


def split_prompt(text: str) -> dict[str, str] | None:
    """Cut a prompt of this benchmark's layout into its five parts."""
    cuts = [text.find(marker) for marker in
            (spec.STEP_INTRO, spec.EXAMPLES_OPEN, spec.FORMAT_OPEN, spec.TASK_OPEN)]
    if min(cuts) < 0 or cuts != sorted(cuts):
        return None
    bounds = [0] + cuts + [len(text)]
    names = ("preamble", "steps", "examples", "format", "task")
    return {name: text[bounds[i]:bounds[i + 1]] for i, name in enumerate(names)}


def check_versions(texts: list[str], expected: list[str]) -> list[str]:
    """Each version's step block is the constructed one, and every other
    part, the protected examples and format segments included, is
    byte-identical to v0's."""
    problems = []
    if len(texts) != len(expected):
        problems.append(f"{len(texts)} prompt versions, expected {len(expected)}")
    if texts and expected and texts[0] != expected[0]:
        problems.append("v0 differs from the input prompt")
    first = split_prompt(texts[0]) if texts else None
    for k, (got, want) in enumerate(zip(texts, expected)):
        parts = split_prompt(got)
        if parts is None or first is None:
            problems.append(f"v{k} does not have the prompt's layout")
            continue
        if parts["steps"] != split_prompt(want)["steps"]:
            problems.append(f"v{k} step block differs from the constructed one")
        for name in ("preamble", "examples", "format", "task"):
            if parts[name] != first[name]:
                problems.append(f"v{k} {name} segment differs from v0's")
    return problems


def check_train_wide(run_dir, expect: dict, result: dict) -> list[str]:
    problems = check_versions(read_versions(run_dir), expect["versions"])
    if tuple(result["versions"]) != (0, 1):
        problems.append(f"versions {result['versions']}, expected (0, 1)")
    n = len(expect["samples"])
    if result["episodes"] != 2 * n:
        problems.append(f"{result['episodes']} episodes, expected {2 * n}")
    if result["gateway_calls"] != expect["calls"]:
        problems.append(f"{result['gateway_calls']} gateway calls, expected {expect['calls']}")
    by_id = {s["id"]: s for s in expect["samples"]}
    for epoch, want in ((1, False), (2, True)):
        answers = read_answers(run_dir, epoch)
        if set(answers) != set(by_id):
            problems.append(f"epoch {epoch} has transcripts for {len(answers)} of {n} samples")
        wrong = [sid for sid, text in answers.items()
                 if plan_feasible(parse_plan(text), by_id.get(sid, {"days": -1})) != want]
        if wrong:
            verdict = "passes" if not want else "fails"
            problems.append(f"epoch {epoch}: {len(wrong)} answer(s) {verdict}, first {wrong[0]}")
    return problems


def check_train_deep(run_dir, expect: dict, result: dict) -> list[str]:
    problems = check_versions(read_versions(run_dir), expect["versions"])
    count = len(expect["versions"])
    if tuple(result["versions"]) != tuple(range(count)):
        problems.append(f"versions end at v{result['versions'][-1]}, "
                        f"expected one per batch up to v{count - 1}")
    for key in ("repairs", "rejections", "episodes", "rounds"):
        if result[key] != expect[key]:
            problems.append(f"{result[key]} {key}, planted {expect[key]}")
    if result["gateway_calls"] != expect["calls"]:
        problems.append(f"{result['gateway_calls']} gateway calls, expected {expect['calls']}")
    return problems


def check_eval(expect: dict, rounds: list[tuple[str, list, list]]) -> list[str]:
    """``rounds`` holds (label, records, sent) per evaluated prompt:
    records as (sample id, delivered, passed) and the plans the stub sent
    as (sample id, plan). v0 must pass nothing and v1 everything."""
    problems = []
    by_id = {s["id"]: s for s in expect["samples"]}
    for label, records, sent in rounds:
        if [r[0] for r in records] != list(by_id):
            problems.append(f"{label}: report covers {len(records)} of {len(by_id)} samples")
        plans = dict(sent)
        if len(plans) != len(sent) or set(plans) != set(by_id):
            problems.append(f"{label}: the stub answered {len(sent)} requests "
                            f"for {len(plans)} samples, expected one per sample")
        undelivered = [r[0] for r in records if not r[1]]
        if undelivered:
            problems.append(f"{label}: {len(undelivered)} sample(s) not delivered, "
                            f"first {undelivered[0]}")
        mismatched = [sid for sid, _, passed in records
                      if passed != plan_feasible(plans.get(sid), by_id.get(sid, {"days": -1}))]
        if mismatched:
            problems.append(f"{label}: {len(mismatched)} record(s) disagree with the "
                            f"feasibility of the plan sent, first {mismatched[0]}")
        rate = sum(r[2] for r in records) / max(1, len(records))
        want = 1.0 if label == "v1" else 0.0
        if rate != want:
            problems.append(f"{label}: pass rate {rate:.3f}, expected {want:.0f}")
    return problems
