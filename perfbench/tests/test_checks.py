"""Each correctness check of the benchmark fails on a planted wrong output.

Runs the workloads in-process at small sizes, checks that the clean
output passes, then plants one fault and checks that it is reported.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from reprompt.errors import CorruptRunError  # noqa: E402
from reprompt.trainer import verify_chain  # noqa: E402


def _run(workload, tmp_path, prepare=None):
    inp = tmp_path / "inputs"
    work = tmp_path / "work"
    inp.mkdir(parents=True)
    work.mkdir()
    inputs.PREPARE[workload](7, inp)
    if prepare is not None:
        prepare(inp)
    out = {"workload": workload, "traced": False, "problems": []}
    if workload == "eval_http":
        child.run_eval(str(inp), str(work), False, out)
    else:
        child.run_train(workload, str(inp), str(work), False, out)
    expect = json.loads((inp / spec.EXPECT).read_text(encoding="utf-8"))
    return out, expect, str(work / "run")


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setitem(spec.TRAIN_WIDE, "samples", 6)
    monkeypatch.setitem(spec.TRAIN_WIDE, "batch_size", 3)
    monkeypatch.setitem(spec.TRAIN_DEEP, "samples", 2)
    monkeypatch.setitem(spec.TRAIN_DEEP, "epochs", 3)
    monkeypatch.setitem(spec.EVAL_HTTP, "samples", 5)
    for name in list(os.environ):
        if "proxy" in name.lower():
            monkeypatch.delenv(name)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")


def _wide_summary(expect):
    return {"versions": [0, 1], "episodes": 2 * len(expect["samples"]),
            "gateway_calls": expect["calls"]}


def _deep_summary(expect):
    summary = {k: expect[k] for k in ("repairs", "rejections", "episodes", "rounds")}
    summary.update(versions=list(range(len(expect["versions"]))), gateway_calls=expect["calls"])
    return summary


def test_plan_over_budget_is_infeasible():
    sample = {"days": 2, "budget": 50, "routes": [["A", "B"]],
              "options": [[{"id": "a11", "cost": 20, "city": "A"}],
                          [{"id": "a21", "cost": 25, "city": "B"},
                           {"id": "a22", "cost": 40, "city": "B"}]]}
    assert checks.plan_feasible(("a11", "a21"), sample)
    assert not checks.plan_feasible(("a11", "a22"), sample)
    assert checks.parse_plan("noise\n" + spec.plan_text(("a11", "a22"))) == ("a11", "a22")


def test_train_wide_flags_a_plan_over_budget(small, tmp_path):
    out, expect, run_dir = _run("train_wide", tmp_path)
    assert out["problems"] == []
    assert checks.check_train_wide(run_dir, expect, _wide_summary(expect)) == []
    sample = next(s for s in expect["samples"]
                  if sum(max(o["cost"] for o in day) for day in s["options"]) > s["budget"])
    costly = tuple(max(day, key=lambda o: o["cost"])["id"] for day in sample["options"])
    batch_dir = os.path.join(run_dir, "transcripts", "e2")
    for batch in os.listdir(batch_dir):
        path = os.path.join(batch_dir, batch, sample["id"] + ".txt")
        if os.path.exists(path):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n" + spec.plan_text(costly))
    problems = checks.check_train_wide(run_dir, expect, _wide_summary(expect))
    assert problems == [f"epoch 2: 1 answer(s) fails, first {sample['id']}"]


def test_train_deep_flags_a_tampered_version_file(small, tmp_path):
    out, expect, run_dir = _run("train_deep", tmp_path)
    assert out["problems"] == []
    assert checks.check_train_deep(run_dir, expect, _deep_summary(expect)) == []
    path = os.path.join(run_dir, "prompts", "v3.txt")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("Then, choose", "Then, pick"))
    problems = checks.check_train_deep(run_dir, expect, _deep_summary(expect))
    assert problems == ["v3 step block differs from the constructed one"]
    with pytest.raises(CorruptRunError):
        verify_chain(run_dir)


def test_train_deep_flags_a_protected_segment_changed_in_one_version(small, tmp_path):
    out, expect, run_dir = _run("train_deep", tmp_path)
    assert out["problems"] == []
    texts = checks.read_versions(run_dir)
    texts[2] = texts[2].replace("Budget: 40", "Budget: 41")
    texts[4] = texts[4].replace('"Day k: <activity id>"', '"Day k: <id>"')
    assert checks.check_versions(texts, expect["versions"]) == [
        "v2 examples segment differs from v0's",
        "v4 format segment differs from v0's",
    ]


def test_eval_flags_a_stub_that_answers_blind_after_the_anchor(small, tmp_path):
    out, _, _ = _run("eval_http", tmp_path)
    assert out["problems"] == []

    def blind_always(inp):
        expect = json.loads((inp / spec.EXPECT).read_text(encoding="utf-8"))
        for plans in expect["plans"].values():
            plans["best"] = plans["blind"]
        (inp / spec.EXPECT).write_text(json.dumps(expect), encoding="utf-8")

    out, _, _ = _run("eval_http", tmp_path / "wrong", blind_always)
    assert out["problems"] == ["v1: pass rate 0.000, expected 1"]
