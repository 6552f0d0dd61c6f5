#!/usr/bin/env python3
"""Regenerate the golden end-to-end fixtures under tests/fixtures/golden/.

Builds the initial prompt, a three-sample training set, and the scripted
gateway responses for a two-epoch run, then executes the run once and
freezes the resulting directory tree as a manifest of content hashes.
The acceptance suite replays the same inputs and must reproduce every
byte. Run this only when the engine's observable behavior is meant to
change, and review the resulting diff.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reprompt import prompts
from reprompt.actor import RuleCheckFeedback
from reprompt.config import parse_config
from reprompt.gateway import ScriptedGateway, load_script
from reprompt.prompt_model import (
    SegmentKind,
    StepEdit,
    StepEditOp,
    inject_default_steps,
    parse_prompt,
    render_prompt,
)
from reprompt.summarizer import FocusCase, parse_conclusion, scrub_violations
from reprompt.optimizer import classify_placement, parse_final_prompt
from reprompt.toy_task import (
    RULE_BUDGET,
    ToyAdapter,
    best_answer,
    blind_answer,
    format_plan,
    generate_sample,
    to_task_sample,
    toy_check,
    toy_sample_to_dict,
)
from reprompt.trainer import train

GOLDEN = ROOT / "tests" / "fixtures" / "golden"

# Present in the budget step of v1 and v2, absent from v0 and from every
# transcript, so script entries can branch on which prompt version a
# request was built from.
ANCHOR = "costs of the chosen activities"

RUN_CFG = """\
[train]
epochs = 2
batch_size = 3
max_rounds = 2
feedback = rulecheck
seed = 42

[gateway]
backend = scripted
model = planner
summarizer_model = critic

[task]
kind = toy
required_tokens = ["PLAN:"]
format_open = ["Your final answer"]
"""

INITIAL_PROMPT = """\
You are a day-planner. For each day of the trip choose exactly one activity from that day's options. The total cost of all chosen activities must stay within the budget, and every pair of consecutive days must follow one of the allowed city routes.

***** Example *****
Task id: toy-demo
Days: 2
Budget: 40
Options:
Day 1: x11 (cost 15, city A); x12 (cost 30, city B)
Day 2: x21 (cost 20, city A); x22 (cost 35, city C)
Routes: A->A, B->C

A valid answer:
PLAN:
Day 1: x11
Day 2: x21
***** Example Ends *****

Your final answer must end with a block starting with "PLAN:", followed by one line per day in the form "Day k: <activity id>".

Here is the task:
Task id: {task_id}
Days: {days}
Budget: {budget}
Options:
{options}
Routes: {routes}
"""

STEP_TWO_OLD = "2. Then, produce the solution to the task.\n"
STEP_TWO_NEW = (
    "2. Add up the costs of the chosen activities and make sure the total "
    "stays within the stated budget before you commit to a plan.\n"
    "3. Then, produce the solution to the task.\n"
)
STEP_FOUR = (
    "4. Check that every pair of consecutive days follows one of the "
    "allowed city routes before giving the final plan.\n"
)

FOCUS_BUDGET = (
    "the plans repeatedly exceed the stated budget, so cost must be "
    "checked against the budget before answering."
)
FOCUS_ROUTE = (
    "a helpful thought here is to verify that consecutive days form an "
    "allowed route transition before finalizing the plan."
)

MARKER = prompts.FINAL_PROMPT_MARKER


def entry(contains, response, roles=None, excludes=None, max_uses=None):
    match = {"contains": list(contains)}
    if roles is not None:
        match["roles"] = list(roles)
    if excludes:
        match["excludes"] = list(excludes)
    data = {"match": match, "response": response}
    if max_uses is not None:
        data["max_uses"] = max_uses
    return data


def pick_train_samples(count=3):
    """First seeds whose blind (max-cost) answer fails on budget alone."""
    chosen = []
    seed = 0
    while len(chosen) < count:
        sample = generate_sample(seed)
        seed += 1
        if toy_check(blind_answer(sample), sample).violated == (RULE_BUDGET,):
            chosen.append(sample)
    return chosen


def budget_overrun(sample):
    result = toy_check(blind_answer(sample), sample)
    message = result.messages[0]
    assert message.startswith("budget exceeded by "), message
    return message


def build_versions(seg):
    doc = parse_prompt(INITIAL_PROMPT, seg)
    assert [s.kind for s in doc.segments] == [
        SegmentKind.PREAMBLE,
        SegmentKind.EXAMPLES,
        SegmentKind.FORMAT_REQUIREMENTS,
        SegmentKind.TASK_SLOT,
    ], [s.kind for s in doc.segments]
    v0 = render_prompt(inject_default_steps(doc))

    assert v0.count(STEP_TWO_OLD) == 1
    v1 = v0.replace(STEP_TWO_OLD, STEP_TWO_NEW)
    assert v1.count("3. Then, produce the solution to the task.\n") == 1
    v2 = v1.replace(
        "3. Then, produce the solution to the task.\n",
        "3. Then, produce the solution to the task.\n" + STEP_FOUR,
    )

    assert ANCHOR not in v0 and ANCHOR in v1 and ANCHOR in v2
    for text in (v0, v1, v2):
        assert render_prompt(parse_prompt(text, seg)) == text

    d0, d1, d2 = (parse_prompt(t, seg) for t in (v0, v1, v2))
    edit = classify_placement(d0, d1)
    assert edit == StepEdit(StepEditOp.INSERT_BEFORE, 2), edit
    edit = classify_placement(d1, d2)
    assert edit == StepEdit(StepEditOp.APPEND_STEP), edit
    return v0, v1, v2, d1


def build_script(samples, v1, v2, examples_text):
    stubbed_v2 = v2.replace(
        examples_text, "<Examples from the original prompt>\n\n"
    )
    assert stubbed_v2 != v2

    entries = []
    for sample in samples:
        sid_line = f"Task id: {sample.id}\n"
        blind = format_plan(blind_answer(sample))
        good = format_plan(best_answer(sample))
        # Epoch 1, round 1: the agent under v0 ignores the budget.
        entries.append(
            entry(
                [sid_line],
                f"Here is my plan:\n\n{blind}\n",
                roles=["user"],
                excludes=[ANCHOR],
            )
        )
        # Epoch 1, round 2: after checker feedback it answers feasibly.
        entries.append(
            entry(
                [sid_line, budget_overrun(sample)],
                f"Revised to stay within the budget:\n\n{good}\n",
                roles=["user", "assistant", "user"],
            )
        )
        # Epoch 2, round 1: under v1 the budget step fixes the first try.
        entries.append(
            entry(
                [ANCHOR, sid_line],
                f"Totals checked against the budget.\n\n{good}\n",
                roles=["user"],
            )
        )

    summarizer_e1 = (
        "All three discussions go long because the first answer overspends "
        "and gets corrected.\n"
        f"{prompts.CONCLUSION_MARKER}{FOCUS_BUDGET}"
    )
    summarizer_e2 = (
        "The first answers now pass; the remaining risk sits in the route "
        "legality of adjacent days.\n"
        f"{prompts.CONCLUSION_MARKER}{FOCUS_ROUTE}"
    )
    optimizer_e1 = (
        "Options considered: an upfront cost tally, or a final audit step. "
        "The tally belongs before the solution step.\n"
        f"{MARKER}\n{v1}"
    )
    optimizer_e2 = (
        "The route check extends the existing steps, so it goes last.\n"
        f"{MARKER}\n{stubbed_v2}"
    )
    entries.extend(
        [
            entry(
                ["You are a summarizer"],
                summarizer_e1,
                roles=["system", "user"],
                excludes=[ANCHOR],
            ),
            entry(
                ["You are a prompt optimizer"],
                optimizer_e1,
                roles=["system", "user"],
                excludes=[ANCHOR],
            ),
            entry(
                ["You are a summarizer", ANCHOR],
                summarizer_e2,
                roles=["system", "user"],
            ),
            entry(
                ["You are a prompt optimizer", ANCHOR],
                optimizer_e2,
                roles=["system", "user"],
            ),
            entry(
                ["You are a template replacer"],
                v2,
                roles=["system", "user"],
            ),
        ]
    )

    case, text = parse_conclusion(summarizer_e1)
    assert case is FocusCase.FAILURE_REASON and not scrub_violations(text)
    case, text = parse_conclusion(summarizer_e2)
    assert case is FocusCase.HELPFUL_THOUGHT and not scrub_violations(text)
    assert parse_final_prompt(optimizer_e1) == v1
    assert parse_final_prompt(optimizer_e2) == stubbed_v2
    # The anchor must not leak into epoch-1 requests through transcripts
    # (actor responses) or through the focus text handed to the optimizer.
    for sample in samples:
        assert ANCHOR not in format_plan(blind_answer(sample))
        assert ANCHOR not in format_plan(best_answer(sample))
    assert ANCHOR not in FOCUS_BUDGET
    assert ANCHOR not in "Here is my plan: Revised to stay within the budget:"
    return entries


def hash_tree(root: Path) -> dict[str, str]:
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            files[path.relative_to(root).as_posix()] = digest
    return files


def reference_run(tmp: Path):
    config = parse_config(RUN_CFG)
    samples = [to_task_sample(s) for s in load_samples_back()]
    by_id = {s.id: s for s in load_samples_back()}
    feedback = RuleCheckFeedback(ToyAdapter(), by_id)
    gateway = ScriptedGateway(load_script(str(GOLDEN / "script.yaml")))
    run_dir = tmp / "run"
    result = train(
        INITIAL_PROMPT,
        samples,
        config=config,
        gateway=gateway,
        feedback=feedback,
        run_dir=run_dir,
        dataset_src=GOLDEN / "dataset.yaml",
        script_src=GOLDEN / "script.yaml",
    )
    return result, gateway, run_dir


def load_samples_back():
    from reprompt.toy_task import load_toy_samples

    return load_toy_samples(GOLDEN / "dataset.yaml")


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)

    config = parse_config(RUN_CFG)
    seg = config.task.segmentation()
    v0, v1, v2, d1 = build_versions(seg)
    examples_text = next(
        s.text for s in d1.segments if s.kind is SegmentKind.EXAMPLES
    )

    samples = pick_train_samples()
    (GOLDEN / "initial_prompt.txt").write_text(INITIAL_PROMPT, encoding="utf-8")
    (GOLDEN / "run.cfg").write_text(RUN_CFG, encoding="utf-8")
    # Block YAML, not save_toy_samples' JSON lines: the golden tests then
    # read a hand-written-style dataset through libyaml.
    (GOLDEN / "dataset.yaml").write_text(
        yaml.safe_dump([toy_sample_to_dict(s) for s in samples], sort_keys=False),
        encoding="utf-8",
    )

    entries = build_script(samples, v1, v2, examples_text)
    (GOLDEN / "script.yaml").write_text(
        yaml.safe_dump(entries, sort_keys=False, allow_unicode=True),
        encoding="utf-8",
    )
    # The loader enforces unique fingerprints; fail here, not in the tests.
    script = load_script(str(GOLDEN / "script.yaml"))
    assert len(script) == len(entries)

    with tempfile.TemporaryDirectory() as tmp:
        result, gateway, run_dir = reference_run(Path(tmp))
        final_text = render_prompt(result.final_prompt)
        assert final_text == v2, "the run must land exactly on v2"
        assert result.versions == (0, 1, 2)
        assert result.episodes_run == 6
        assert result.calls_used == 14, result.calls_used
        assert result.epochs_completed == 2
        assert not result.converged

        (GOLDEN / "final_prompt.txt").write_text(final_text, encoding="utf-8")
        manifest = {
            "files": hash_tree(run_dir),
            "calls_used": result.calls_used,
            "episodes_run": result.episodes_run,
            "versions": list(result.versions),
            "epochs_completed": result.epochs_completed,
            "converged": result.converged,
        }
        (GOLDEN / "manifest.yaml").write_text(
            yaml.safe_dump(manifest, sort_keys=True), encoding="utf-8"
        )

    print(f"samples: {[s.id for s in samples]}")
    print(f"script entries: {len(entries)}")
    print(f"calls used: {result.calls_used}, episodes: {result.episodes_run}")
    print(f"run files in manifest: {len(manifest['files'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
