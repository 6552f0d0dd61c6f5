#!/usr/bin/env python3
"""Run the bundled scripted training fixture and walk through the results.

Uses the same frozen script the test suite replays: three toy samples,
two epochs, one accepted edit per epoch (a budget step, then a route
step). Everything is deterministic and offline. The run directory is
left behind for inspection.
"""
from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reprompt.actor import RuleCheckFeedback
from reprompt.config import parse_config
from reprompt.gateway import ScriptedGateway, load_script
from reprompt.prompt_model import classify_placement, diff_prompts
from reprompt.toy_task import ToyAdapter, load_toy_samples
from reprompt.trainer import train, verify_chain

GOLDEN = ROOT / "tests" / "fixtures" / "golden"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="runs/scripted_demo", help="run directory to create"
    )
    parser.add_argument(
        "--fresh", action="store_true", help="delete an existing run first"
    )
    args = parser.parse_args()

    out = Path(args.out)
    if args.fresh and out.exists():
        shutil.rmtree(out)

    config = parse_config((GOLDEN / "run.cfg").read_text(encoding="utf-8"))
    toys = load_toy_samples(GOLDEN / "dataset.yaml")
    result = train(
        (GOLDEN / "initial_prompt.txt").read_text(encoding="utf-8"),
        toys,
        config=config,
        gateway=ScriptedGateway(load_script(str(GOLDEN / "script.yaml"))),
        feedback=RuleCheckFeedback(ToyAdapter(), {s.id: s for s in toys}),
        run_dir=out,
        dataset_src=GOLDEN / "dataset.yaml",
        script_src=GOLDEN / "script.yaml",
    )

    print(f"trained on {len(toys)} samples: {', '.join(s.id for s in toys)}")
    print(
        f"episodes {result.episodes_run}, gateway calls {result.calls_used}, "
        f"epochs {result.epochs_completed}, "
        f"converged {'yes' if result.converged else 'no'}"
    )

    # verify_chain checks the hash chain and replays every version with
    # the markers run.meta records.
    records = verify_chain(out)
    print(f"hash chain and lineage replay verified over {len(records)} versions\n")

    for older, newer in zip(records, records[1:]):
        placement = classify_placement(older.doc, newer.doc)
        print(f"--- v{older.doc.version} -> v{newer.doc.version} "
              f"({placement}, focus: {newer.meta['focus_case']})")
        print(diff_prompts(older.doc, newer.doc))
        print()

    print(f"run directory: {out}")
    print(f"inspect it any time with: reprompt inspect --out {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
