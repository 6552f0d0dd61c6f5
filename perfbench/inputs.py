"""Writes a workload's inputs to files before anything is timed.

Samples come from the program's generator, so they have the shape real
runs see; prompts, scripts, the stub's answer table and the expected
outcomes come from ``spec``. ``expect.json`` holds what the checks need:
the samples as plain data and the outcomes worked out from the sizes.
"""
from __future__ import annotations

import json
from pathlib import Path

import yaml

from reprompt.toy_task import (
    best_answer,
    blind_answer,
    generate_samples,
    save_toy_samples,
    toy_sample_to_dict,
)

import spec


def _entry(contains, response, roles, excludes=(), max_uses=None) -> dict:
    match = {"contains": list(contains), "roles": list(roles)}
    if excludes:
        match["excludes"] = list(excludes)
    entry = {"match": match, "response": response}
    if max_uses is not None:
        entry["max_uses"] = max_uses
    return entry


def _optimizer_output(candidate: str) -> str:
    return (
        "Options considered: a step that checks the constraint before the plan "
        "is written, or a final audit.\n"
        "Based on the above analysis, the improved prompt is: \n" + candidate
    )


def _id_line(sample) -> str:
    return f"Task id: {sample.id}\n"


def _write(out: Path, name: str, text: str) -> None:
    (out / name).write_text(text, encoding="utf-8")


def _write_script(out: Path, entries: list[dict]) -> None:
    _write(out, spec.SCRIPT, yaml.safe_dump(entries, sort_keys=False, allow_unicode=True))


def _samples_data(samples) -> list[dict]:
    return [toy_sample_to_dict(s) for s in samples]


def prepare_train_wide(seed: int, out: Path) -> None:
    size = spec.TRAIN_WIDE
    samples = generate_samples(
        size["samples"], base_seed=spec.base_seed(seed, spec.WIDE_OFFSET),
        require_blind_fail=True,
    )
    entries = []
    for s in samples:
        entries.append(_entry([_id_line(s)], spec.plan_text(blind_answer(s)), ["user"],
                              excludes=[spec.ANCHOR]))
        entries.append(_entry([spec.ANCHOR, _id_line(s)], spec.plan_text(best_answer(s)),
                              ["user"]))
    # Only the last batch of epoch 1 yields a failure reason, so every
    # epoch-1 answer comes from v0 and every epoch-2 answer from v1.
    last = samples[(len(samples) - 1) // size["batch_size"] * size["batch_size"]]
    no_reason = (
        "Each slip looks like a one-off.\n"
        "In conclusion, the main focus point should be: no general reason."
    )
    entries.append(_entry(
        [spec.SUMMARIZER_PREFIX, _id_line(last)],
        "Every plan in the batch overspends.\n"
        "In conclusion, the main focus point should be: the plans exceed the "
        "stated budget, so costs must be added up before answering.",
        ["system", "user"], excludes=[spec.ANCHOR],
    ))
    entries.append(_entry([spec.SUMMARIZER_PREFIX], no_reason, ["system", "user"],
                          excludes=[_id_line(last)]))
    entries.append(_entry([spec.SUMMARIZER_PREFIX, spec.ANCHOR, _id_line(last)], no_reason,
                          ["system", "user"]))
    entries.append(_entry([spec.OPTIMIZER_PREFIX], _optimizer_output(spec.wide_v1()),
                          ["system", "user"], excludes=[spec.ANCHOR]))
    _write_script(out, entries)
    save_toy_samples(samples, out / spec.DATASET)
    _write(out, spec.CONFIG, spec.wide_config())
    _write(out, spec.PROMPT, spec.wide_v0())
    expect = {
        "samples": _samples_data(samples),
        "calls": spec.wide_expected_calls(size["samples"], size["batch_size"]),
        "versions": [spec.wide_v0(), spec.wide_v1()],
    }
    _write(out, spec.EXPECT, json.dumps(expect))


def prepare_train_deep(seed: int, out: Path) -> None:
    samples = generate_samples(
        spec.TRAIN_DEEP["samples"], base_seed=spec.base_seed(seed, spec.DEEP_OFFSET),
        require_blind_fail=True,
    )
    entries = []
    for i, s in enumerate(samples):
        best = spec.plan_text(best_answer(s))
        if spec.deep_first_answer_passes(i):
            entries.append(_entry([_id_line(s)], best, ["user"]))
        else:
            entries.append(_entry([_id_line(s)], spec.plan_text(blind_answer(s)), ["user"]))
            entries.append(_entry([_id_line(s)], best, ["user", "assistant", "user"]))
    entries.append(_entry(
        [spec.SUMMARIZER_PREFIX],
        "The first answers keep breaking a constraint.\n"
        "In conclusion, the main focus point should be: check the budget and the "
        "routes before committing to a plan.",
        ["system", "user"],
    ))
    batches = spec.deep_batches()
    for k in range(1, batches + 1):
        old_tag = spec.revision_tag(k - 1)
        good = spec.deep_version(k)
        kind = spec.deep_kind(k)
        opt_match = [spec.OPTIMIZER_PREFIX, old_tag]
        if kind == "plain":
            entries.append(_entry(opt_match, _optimizer_output(good), ["system", "user"],
                                  max_uses=1))
        elif kind == "repair":
            stub = spec.prompt_text(spec.deep_steps(k), revision=k, examples=spec.PLACEHOLDER)
            entries.append(_entry(opt_match, _optimizer_output(stub), ["system", "user"],
                                  max_uses=1))
            entries.append(_entry([spec.REPAIR_PREFIX, old_tag, spec.revision_tag(k)], good,
                                  ["system", "user"], max_uses=1))
        else:
            bad = spec.prompt_text(spec.deep_steps(k), revision=k,
                                   examples=spec.MUTATED_EXAMPLES)
            entries.append(_entry(opt_match, _optimizer_output(bad), ["system", "user"],
                                  max_uses=1))
            entries.append(_entry(opt_match, _optimizer_output(good),
                                  ["system", "user", "user"], max_uses=1))
    _write_script(out, entries)
    save_toy_samples(samples, out / spec.DATASET)
    _write(out, spec.CONFIG, spec.deep_config())
    _write(out, spec.PROMPT, spec.deep_version(0))
    expect = dict(spec.deep_expected(len(samples)))
    expect["samples"] = _samples_data(samples)
    expect["versions"] = [spec.deep_version(k) for k in range(batches + 1)]
    _write(out, spec.EXPECT, json.dumps(expect))


def prepare_eval_http(seed: int, out: Path) -> None:
    samples = generate_samples(
        spec.EVAL_HTTP["samples"], base_seed=spec.base_seed(seed, spec.HOLDOUT_OFFSET),
        require_blind_fail=True,
    )
    save_toy_samples(samples, out / spec.DATASET)
    _write(out, spec.PROMPT, spec.wide_v0())
    _write(out, spec.PROMPT_V1, spec.wide_v1())
    expect = {
        "samples": _samples_data(samples),
        "plans": {
            s.id: {"blind": list(blind_answer(s)), "best": list(best_answer(s))}
            for s in samples
        },
        "calls": 2 * len(samples),
    }
    _write(out, spec.EXPECT, json.dumps(expect))


PREPARE = {
    "train_wide": prepare_train_wide,
    "train_deep": prepare_train_deep,
    "eval_http": prepare_eval_http,
}
