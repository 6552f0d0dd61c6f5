import csv

import pytest
import yaml

from reprompt.actor import RuleCheckFeedback
from reprompt.errors import SampleMismatchError
from reprompt.evaluator import (
    EvalRecord,
    EvalReport,
    compare_runs,
    evaluate,
    report_to_dict,
    write_report_tsv,
    write_report_yaml,
)
from reprompt.prompt_model import parse_prompt
from reprompt.toy_task import ToyAdapter, ToyOption, ToySample, format_plan

from conftest import entry, make_gateway, make_recording_gateway

PROMPT = parse_prompt(
    "You plan one activity per day.\n\n"
    "Here is the task:\n"
    "Task id: {task_id}\n"
    "Days: {days}\n"
    "Budget: {budget}\n"
    "Options:\n{options}\n"
    "Routes: {routes}\n"
)


def toy(sid, budget=50):
    return ToySample(
        id=sid,
        days=2,
        budget=budget,
        options=(
            (ToyOption("a11", 20, "A"), ToyOption("a12", 40, "B")),
            (ToyOption("a21", 25, "A"), ToyOption("a22", 10, "C")),
        ),
        route_rule=frozenset({("A", "A"), ("B", "C")}),
    )


GOOD = format_plan(("a11", "a21"))
OVER_BUDGET = format_plan(("a12", "a21"))


def test_mixed_outcomes():
    samples = [toy("t1"), toy("t2"), toy("t3"), toy("t4")]
    gw = make_gateway(
        entry(["Task id: t1"], GOOD),
        entry(["Task id: t2"], OVER_BUDGET),
        entry(["Task id: t3"], "I cannot produce a plan."),
        # t4 has no entry: the episode errors out.
    )
    report = evaluate(PROMPT, samples, ToyAdapter(), gateway=gw, model="agent")
    by_id = {r.sample_id: r for r in report.records}
    assert report.total == 4

    assert by_id["t1"].passed and by_id["t1"].delivered
    assert by_id["t1"].detail == ""

    assert by_id["t2"].delivered and not by_id["t2"].passed
    assert by_id["t2"].detail == "budget exceeded by 15"

    assert not by_id["t3"].delivered
    assert "PLAN" in by_id["t3"].detail

    assert not by_id["t4"].delivered
    assert by_id["t4"].terminal == "error"

    assert report.pass_rate == 0.25
    assert report.delivery_rate == 0.5
    # Passing implies delivering.
    for record in report.records:
        assert not record.passed or record.delivered


def test_records_keep_sample_order():
    samples = [toy("t2"), toy("t1")]
    gw = make_gateway(
        entry(["Task id: t1"], GOOD), entry(["Task id: t2"], GOOD)
    )
    report = evaluate(PROMPT, samples, ToyAdapter(), gateway=gw, model="agent")
    assert [r.sample_id for r in report.records] == ["t2", "t1"]


def test_filled_prompt_reaches_the_gateway():
    gw = make_recording_gateway(entry(["Task id: t1"], GOOD))
    evaluate(PROMPT, [toy("t1")], ToyAdapter(), gateway=gw, model="agent")
    request, _ = gw.history[0]
    opening = request.messages[0].content
    assert "Task id: t1" in opening
    assert "Budget: 50" in opening
    assert "Day 1: a11 (cost 20, city A); a12 (cost 40, city B)" in opening


def test_rulecheck_feedback_recovers_within_round_cap():
    sample = toy("tm")
    first = entry(["Task id: tm"], OVER_BUDGET, roles=["user"])
    second = entry(
        ["Task id: tm", "budget exceeded by 15"],
        GOOD,
        roles=["user", "assistant", "user"],
    )
    gw = make_gateway(first, second)
    fg = RuleCheckFeedback(ToyAdapter(), {"tm": sample})
    report = evaluate(
        PROMPT, [sample], ToyAdapter(), gateway=gw, model="agent",
        feedback=fg, max_rounds=2,
    )
    record = report.records[0]
    assert record.passed
    assert record.rounds_used == 2


def test_empty_report_rates():
    report = EvalReport(records=())
    assert report.total == 0
    assert report.pass_rate == 0.0
    assert report.delivery_rate == 0.0


# --- run comparison ---------------------------------------------------------------


def rec(sid, passed):
    return EvalRecord(
        sample_id=sid,
        delivered=True,
        passed=passed,
        rounds_used=1,
        terminal="max_rounds_exhausted",
    )


def test_compare_runs():
    baseline = EvalReport(records=(rec("a", False), rec("b", True), rec("c", False)))
    candidate = EvalReport(records=(rec("a", True), rec("b", False), rec("c", False)))
    cmp = compare_runs(baseline, candidate)
    assert cmp.improved == ("a",)
    assert cmp.regressed == ("b",)
    assert cmp.baseline_pass_rate == pytest.approx(1 / 3)
    assert cmp.candidate_pass_rate == pytest.approx(1 / 3)
    assert cmp.delta == pytest.approx(0.0)


def test_compare_runs_rejects_mismatched_samples():
    baseline = EvalReport(records=(rec("a", True),))
    candidate = EvalReport(records=(rec("b", True),))
    with pytest.raises(SampleMismatchError, match="different samples"):
        compare_runs(baseline, candidate)


# --- report output ------------------------------------------------------------------


def sample_report():
    return EvalReport(
        records=(
            rec("a", True),
            EvalRecord(
                sample_id="b",
                delivered=False,
                passed=False,
                rounds_used=0,
                terminal="error",
                detail="episode failed",
            ),
        )
    )


def test_report_to_dict():
    data = report_to_dict(sample_report())
    assert data["total"] == 2
    assert data["pass_rate"] == 0.5
    assert data["samples"][1]["detail"] == "episode failed"


def test_yaml_report_round_trips(tmp_path):
    path = tmp_path / "report.yaml"
    write_report_yaml(sample_report(), path)
    data = yaml.safe_load(path.read_text())
    assert data == report_to_dict(sample_report())


def test_tsv_report_layout(tmp_path):
    path = tmp_path / "report.tsv"
    write_report_tsv(sample_report(), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, dialect="excel-tab"))
    assert rows[0] == [
        "sample_id", "delivered", "passed", "rounds_used", "terminal", "detail",
    ]
    assert rows[1] == ["a", "1", "1", "1", "max_rounds_exhausted", ""]
    assert rows[2] == ["b", "0", "0", "0", "error", "episode failed"]
