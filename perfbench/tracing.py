"""Spans around the program's layers, recorded from outside the program.

A module binds a function's name when it imports it, so each wrapper is
set on the name the caller looks up: ``trainer.collect_batch`` rather
than ``actor.collect_batch``. Spans stay in memory as
[name, start, end, parent index] and are written out when the run ends.
A name that a later version of the program no longer has is skipped and
listed in ``missing``, which the run reports as a failed check. Standard
library only.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_time(self, name: str, exclude: set[str] | None = None) -> float:
        """Time in ``name`` spans less their direct children's time; with
        ``exclude``, less only the children with those names."""
        child_time: dict[int, float] = {}
        for child, start, end, parent in self.spans:
            if parent >= 0 and (exclude is None or child in exclude):
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return sum(
            (end - start) - child_time.get(i, 0.0)
            for i, (n, start, end, _) in enumerate(self.spans) if n == name
        )

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def install(tracer: Tracer, feedback, counts: dict) -> None:
    """Wrap the layers that train, inspect and eval go through.

    ``counts`` collects what the wrappers see in results: episodes,
    rounds and accepted optimizer updates.
    """
    from reprompt import actor, gateway, guardrails, optimizer, prompt_model
    from reprompt import summarizer, toy_task, trainer

    def on_batch(transcripts):
        counts["episodes"] += len(transcripts)
        counts["rounds"] += sum(t.rounds_used for t in transcripts)

    def on_update(update):
        counts["accepted"] += bool(update.changed)

    wrap = tracer.wrap
    wrap(gateway.ScriptedGateway, "complete", "gateway.scripted")
    wrap(gateway.HttpGateway, "complete", "gateway.http")
    wrap(trainer, "collect_batch", "actor.collect_batch", on_batch)
    wrap(feedback, "feedback", "actor.feedback")
    wrap(trainer, "summarize_batch", "summarizer.summarize_batch")
    wrap(summarizer, "serialize_transcripts", "summarizer.serialize")
    wrap(trainer, "optimize", "optimizer.optimize", on_update)
    wrap(optimizer, "review_candidate", "guardrails.review")
    wrap(optimizer, "diff_prompts", "prompt_model.diff")
    wrap(toy_task.ToyAdapter, "check", "toy_task.check")
    for module in (actor, toy_task):
        wrap(module, "fill_slots", "prompt_model.fill_slots")
    for module in (trainer, guardrails):
        wrap(module, "parse_prompt", "prompt_model.parse")
    for module in (trainer, optimizer, guardrails, summarizer, prompt_model):
        wrap(module, "render_prompt", "prompt_model.render")


# Per-layer metric: (name, unit). The README maps each to the end-to-end
# metric it should move and the workload where it should move it.
LAYER_METRICS = (
    ("reprompt.import_s", "s"),
    ("gateway.load_script_s", "s"),
    ("toy_task.load_samples_s", "s"),
    ("gateway.scripted_s", "s"),
    ("gateway.history_kchars", "kchar"),
    ("gateway.http_s", "s"),
    ("gateway.http_connections", "count"),
    ("actor.collect_batch_self_s", "s"),
    ("actor.feedback_s", "s"),
    ("actor.episodes", "count"),
    ("actor.rounds", "count"),
    ("summarizer.serialize_s", "s"),
    ("summarizer.self_s", "s"),
    ("summarizer.request_kchars", "kchar"),
    ("optimizer.self_s", "s"),
    ("optimizer.attempts", "count"),
    ("optimizer.accepted", "count"),
    ("guardrails.review_s", "s"),
    ("guardrails.repairs", "count"),
    ("prompt_model.parse_s", "s"),
    ("prompt_model.render_s", "s"),
    ("prompt_model.diff_s", "s"),
    ("prompt_model.fill_slots_s", "s"),
    ("trainer.self_s", "s"),
    ("trainer.run_dir_kib", "KiB"),
    ("trainer.files", "count"),
    ("trainer.inspect_s", "s"),
    ("evaluator.self_s", "s"),
    ("toy_task.check_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_values(tracer: Tracer, counts: dict, stages: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_s``, which needs the
    untraced runs too. ``stages`` maps a call stage to [calls, chars];
    ``extra`` holds what the child measured itself."""
    total = tracer.totals()

    def kchars(stage):
        return stages.get(stage, [0, 0])[1] / 1000.0

    def calls(*names):
        return sum(stages.get(stage, [0, 0])[0] for stage in names)

    values = {
        "gateway.scripted_s": total.get("gateway.scripted", 0.0),
        "gateway.http_s": total.get("gateway.http", 0.0),
        "actor.collect_batch_self_s": tracer.self_time("actor.collect_batch"),
        "actor.feedback_s": total.get("actor.feedback", 0.0),
        "actor.episodes": counts["episodes"],
        "actor.rounds": counts["rounds"],
        "summarizer.serialize_s": total.get("summarizer.serialize", 0.0),
        "summarizer.self_s": tracer.self_time("summarizer.summarize_batch"),
        "summarizer.request_kchars": kchars("summarizer"),
        "optimizer.self_s": tracer.self_time("optimizer.optimize"),
        "optimizer.attempts": calls("optimizer", "optimizer_retry"),
        "optimizer.accepted": counts["accepted"],
        "guardrails.review_s": total.get("guardrails.review", 0.0),
        "guardrails.repairs": calls("repair"),
        "prompt_model.parse_s": total.get("prompt_model.parse", 0.0),
        "prompt_model.render_s": total.get("prompt_model.render", 0.0),
        "prompt_model.diff_s": total.get("prompt_model.diff", 0.0),
        "prompt_model.fill_slots_s": total.get("prompt_model.fill_slots", 0.0),
        "trainer.self_s": tracer.self_time(
            "trainer.train",
            {"actor.collect_batch", "summarizer.summarize_batch", "optimizer.optimize"},
        ),
        "trainer.inspect_s": total.get("trainer.inspect", 0.0),
        "evaluator.self_s": tracer.self_time("evaluator.evaluate"),
        "toy_task.check_s": total.get("toy_task.check", 0.0),
    }
    values.update(extra)
    return values
