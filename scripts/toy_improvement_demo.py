#!/usr/bin/env python3
"""Show one optimization epoch lifting the toy-task pass rate.

Trains for a single epoch on the bundled scripted fixture, which inserts
a budget-check step into the prompt, then evaluates the prompt before
and after on a held-out set of samples whose cost-blind answer always
fails. The eval responder is scripted too: it plays an agent that busts
the budget unless the prompt contains the budget step. Scoring goes
through the enumeration oracle, independent of the training-time checker.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reprompt.actor import NoFeedback, RuleCheckFeedback
from reprompt.config import parse_config
from reprompt.evaluator import evaluate
from reprompt.gateway import ScriptEntry, ScriptedGateway, load_script
from reprompt.prompt_model import parse_prompt, render_prompt
from reprompt.toy_task import (
    CheckResult,
    ToyAdapter,
    best_answer,
    blind_answer,
    format_plan,
    generate_samples,
    load_toy_samples,
    oracle_check,
)
from reprompt.trainer import train

GOLDEN = ROOT / "tests" / "fixtures" / "golden"

# Present only in the step the optimizer adds; the scripted evaluator
# keys its behavior on it.
ANCHOR = "costs of the chosen activities"


def eval_gateway(holdout) -> ScriptedGateway:
    entries = []
    for sample in holdout:
        sid_line = f"Task id: {sample.id}\n"
        entries.append(ScriptEntry(
            contains=(sid_line,),
            response=format_plan(blind_answer(sample)) + "\n",
            roles=("user",),
            excludes=(ANCHOR,),
            max_uses=None,
            line=None,
        ))
        entries.append(ScriptEntry(
            contains=(ANCHOR, sid_line),
            response=format_plan(best_answer(sample)) + "\n",
            roles=("user",),
            excludes=(),
            max_uses=None,
            line=None,
        ))
    return ScriptedGateway(entries)


class OracleAdapter(ToyAdapter):
    """Scores toy answers by the enumeration oracle, not the training-time checker."""

    def check(self, answer, sample):
        return CheckResult(oracle_check(answer, sample))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--samples", type=int, default=20, help="held-out sample count"
    )
    parser.add_argument(
        "--seed", type=int, default=200, help="first seed for the held-out set"
    )
    args = parser.parse_args()

    config = parse_config((GOLDEN / "run.cfg").read_text(encoding="utf-8"))
    config = config._replace(train=config.train._replace(epochs=1))
    toys = load_toy_samples(GOLDEN / "dataset.yaml")
    with tempfile.TemporaryDirectory() as tmp:
        result = train(
            (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
            toys,
            config=config,
            gateway=ScriptedGateway(load_script(str(GOLDEN / "script.yaml"))),
            feedback=RuleCheckFeedback(ToyAdapter(), {s.id: s for s in toys}),
            run_dir=Path(tmp) / "run",
            dataset_src=None,
            script_src=None,
        )
    assert ANCHOR in render_prompt(result.final_prompt)
    print(f"one epoch on {len(toys)} samples landed on prompt "
          f"v{result.versions[-1]}")

    holdout = generate_samples(
        args.samples, base_seed=args.seed, require_blind_fail=True
    )
    gateway = eval_gateway(holdout)
    adapter = OracleAdapter()
    seg = config.task.segmentation()
    initial = parse_prompt(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"), seg
    )

    def score(doc, label):
        report = evaluate(
            doc, holdout, adapter,
            gateway=gateway, model=config.gateway.model,
            temperature=config.gateway.temperature, seed=config.train.seed,
            feedback=NoFeedback(), max_rounds=1,
        )
        print(f"{label}: pass rate {report.pass_rate:.2f} "
              f"({sum(r.passed for r in report.records)}/{report.total})")
        return report.pass_rate

    before = score(initial, "before (no budget step) ")
    after = score(result.final_prompt, "after  (budget step in)")
    print(f"improvement: {after - before:+.2f} "
          f"on {args.samples} held-out samples")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
