"""Measure a prompt's pass rate over a labeled sample set.

Evaluation plays the prompt through the same batch path as training, then
grades each transcript's final assistant message with the task's rule
checker. No optimization happens here.
"""
from __future__ import annotations

from pathlib import Path
from typing import Any, NamedTuple, Protocol, Sequence

from .actor import (
    FeedbackGenerator,
    Sample,
    Terminal,
    Transcript,
    collect_batch,
)
from .errors import UnparseableAnswerError
from .gateway import Caller, Gateway
from .prompt_model import PromptDocument


class TaskAdapter(Protocol):
    """What grading needs from a task: parse an answer, judge it."""

    def parse_answer(self, text: str) -> Any: ...

    def check(self, answer: Any, sample: Any) -> Any: ...


class EvalRecord(NamedTuple):
    sample_id: str
    delivered: bool
    passed: bool
    rounds_used: int
    terminal: str
    detail: str


class EvalReport(NamedTuple):
    records: tuple[EvalRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def delivery_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.delivered for r in self.records) / self.total

    @property
    def pass_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.passed for r in self.records) / self.total


def evaluate(
    prompt: PromptDocument,
    samples: Sequence[Sample],
    adapter: TaskAdapter,
    *,
    gateway: Gateway,
    model: str,
    feedback: FeedbackGenerator,
    max_rounds: int,
    temperature: float,
    seed: int,
    parallelism: int = 1,
) -> EvalReport:
    """Run every sample to a terminal state and grade the last answer.

    A sample counts as delivered when its final assistant message parses
    under the adapter, and as passed when the parsed answer also clears
    the checker. Passed implies delivered, so pass rate never exceeds
    delivery rate. Up to ``parallelism`` samples run at once.
    """
    transcripts = collect_batch(
        prompt,
        samples,
        feedback,
        max_rounds,
        caller=Caller(gateway, model, temperature, seed),
        parallelism=parallelism,
    )
    return EvalReport(
        records=tuple(_grade(t, s, adapter) for t, s in zip(transcripts, samples))
    )


def _grade(transcript: Transcript, sample: Sample, adapter: TaskAdapter) -> EvalRecord:
    delivered = passed = False
    final = transcript.last_assistant()
    if transcript.terminal is Terminal.ERROR or final is None:
        detail = transcript.error or "no assistant message"
    else:
        try:
            answer = adapter.parse_answer(final)
        except UnparseableAnswerError as exc:
            detail = str(exc)
        else:
            result = adapter.check(answer, sample)
            delivered, passed = True, bool(result.passed)
            detail = "" if result.passed or not result.messages else result.messages[0]
    return EvalRecord(
        sample_id=transcript.sample_id,
        delivered=delivered,
        passed=passed,
        rounds_used=transcript.rounds_used,
        terminal=transcript.terminal.value,
        detail=detail,
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "total": report.total,
        "delivery_rate": report.delivery_rate,
        "pass_rate": report.pass_rate,
        "samples": [
            {
                "id": r.sample_id,
                "delivered": r.delivered,
                "passed": r.passed,
                "rounds_used": r.rounds_used,
                "terminal": r.terminal,
                "detail": r.detail,
            }
            for r in report.records
        ],
    }


def write_report_yaml(report: EvalReport, path: str | Path) -> None:
    import yaml

    Path(path).write_text(
        yaml.safe_dump(report_to_dict(report), sort_keys=False),
        encoding="utf-8",
    )


def write_report_tsv(report: EvalReport, path: str | Path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, dialect="excel-tab")
        writer.writerow(
            ["sample_id", "delivered", "passed", "rounds_used", "terminal", "detail"]
        )
        for r in report.records:
            writer.writerow(
                [
                    r.sample_id,
                    int(r.delivered),
                    int(r.passed),
                    r.rounds_used,
                    r.terminal,
                    r.detail,
                ]
            )
