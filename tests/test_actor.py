import logging

import pytest

from reprompt.actor import (
    NoFeedback,
    ReflexionFeedback,
    RuleCheckFeedback,
    TaskSample,
    Terminal,
    ThinkTraceFeedback,
    Transcript,
    TranscriptMessage,
    TranscriptRole,
    collect_batch,
    feedback_generator,
    format_transcript,
    load_dataset,
    run_episode,
)
from reprompt.errors import NoThinkSpanError, UnparseableAnswerError
from reprompt.prompt_model import parse_prompt

from conftest import entry, make_caller, make_gateway, make_recording_gateway

PROMPT = parse_prompt("Solve it.\n\nHere is the task:\nTask id: {task_id}\n")


def sample(sid="s1"):
    return TaskSample(id=sid, slot_values={"task_id": sid})


class CannedFeedback:
    """Fixed verdicts (text, or None to stop), one per call, recording what
    it saw."""

    def __init__(self, *verdicts):
        self.verdicts = list(verdicts)
        self.seen = []

    def feedback(self, transcript):
        self.seen.append(transcript)
        return self.verdicts.pop(0)


# --- run_episode ----------------------------------------------------------------


def test_single_round_episode():
    gw = make_gateway(entry(["Task id: s1"], "answer"))
    fg = CannedFeedback()
    t = run_episode(PROMPT, sample(), fg, 1, caller=make_caller(gw))
    assert t.terminal is Terminal.MAX_ROUNDS_EXHAUSTED
    assert t.rounds_used == 1
    assert [m.role for m in t.messages] == [
        TranscriptRole.USER,
        TranscriptRole.ASSISTANT,
    ]
    assert t.messages[0].content == "Solve it.\n\nHere is the task:\nTask id: s1\n"
    assert t.last_assistant() == "answer"
    # At the round cap the feedback generator is never consulted.
    assert fg.seen == []


def test_stop_feedback_ends_the_episode():
    gw = make_gateway(entry(["Task id: s1"], "answer"))
    fg = CannedFeedback(None)
    t = run_episode(PROMPT, sample(), fg, 3, caller=make_caller(gw))
    assert t.terminal is Terminal.FINISHED_BY_AGENT
    assert t.rounds_used == 1
    assert gw.calls == 1


def test_continue_feedback_travels_as_user_message():
    first = entry(["Task id: s1"], "draft", roles=["user"])
    second = entry(
        ["Task id: s1", "fix the route"],
        "final",
        roles=["user", "assistant", "user"],
    )
    gw = make_gateway(first, second)
    fg = CannedFeedback("fix the route", None)
    t = run_episode(PROMPT, sample(), fg, 3, caller=make_caller(gw))
    assert t.terminal is Terminal.FINISHED_BY_AGENT
    assert t.rounds_used == 2
    roles = [m.role for m in t.messages]
    assert roles == [
        TranscriptRole.USER,
        TranscriptRole.ASSISTANT,
        TranscriptRole.FEEDBACK,
        TranscriptRole.ASSISTANT,
    ]
    assert [m.round for m in t.messages] == [1, 1, 2, 2]
    assert t.last_assistant() == "final"


def test_round_cap_after_continue():
    first = entry(["Task id: s1"], "draft", roles=["user"])
    second = entry(["Task id: s1"], "again", roles=["user", "assistant", "user"])
    gw = make_gateway(first, second)
    fg = CannedFeedback("keep going")
    t = run_episode(PROMPT, sample(), fg, 2, caller=make_caller(gw))
    assert t.terminal is Terminal.MAX_ROUNDS_EXHAUSTED
    assert t.rounds_used == 2
    assert len(fg.seen) == 1


def test_empty_feedback_text_continues():
    first = entry(["Task id: s1"], "draft", roles=["user"])
    second = entry(["Task id: s1"], "again", roles=["user", "assistant", "user"])
    gw = make_gateway(first, second)
    t = run_episode(PROMPT, sample(), CannedFeedback("", None), 3, caller=make_caller(gw))
    assert t.rounds_used == 2
    assert t.messages[2].role is TranscriptRole.FEEDBACK
    assert t.messages[2].content == ""


def test_gateway_failure_wraps_partial_transcript():
    gw = make_gateway(entry(["never matches"], "x"))
    partial = run_episode(PROMPT, sample(), NoFeedback(), 1, caller=make_caller(gw))
    assert partial is not None
    assert partial.terminal is Terminal.ERROR
    assert partial.error.startswith("episode for s1 failed: ")
    assert partial.rounds_used == 0
    assert [m.role for m in partial.messages] == [TranscriptRole.USER]


def test_feedback_failure_wraps_partial_transcript():
    gw = make_gateway(entry(["Task id: s1"], "answer"))

    class Boom:
        def feedback(self, transcript):
            raise RuntimeError("bad feedback")

    partial = run_episode(PROMPT, sample(), Boom(), 2, caller=make_caller(gw))
    assert partial.terminal is Terminal.ERROR
    assert partial.rounds_used == 1
    assert partial.error == "feedback failed for s1: bad feedback"


def test_round_cap_must_be_positive():
    gw = make_gateway(entry(["x"], "y"))
    with pytest.raises(ValueError):
        run_episode(PROMPT, sample(), NoFeedback(), 0, caller=make_caller(gw))


# --- collect_batch -----------------------------------------------------------------


def test_batch_preserves_sample_order():
    gw = make_gateway(
        entry(["Task id: a"], "ra"),
        entry(["Task id: b"], "rb"),
        entry(["Task id: c"], "rc"),
    )
    samples = [sample("a"), sample("b"), sample("c")]
    out = collect_batch(
        PROMPT, samples, NoFeedback(), 1, caller=make_caller(gw), parallelism=1
    )
    assert [t.sample_id for t in out] == ["a", "b", "c"]
    assert [t.last_assistant() for t in out] == ["ra", "rb", "rc"]


def test_batch_isolates_failures():
    gw = make_gateway(entry(["Task id: a"], "ra"))
    out = collect_batch(
        PROMPT, [sample("a"), sample("b")], NoFeedback(), 1, caller=make_caller(gw),
        parallelism=1,
    )
    assert out[0].terminal is Terminal.MAX_ROUNDS_EXHAUSTED
    assert out[1].terminal is Terminal.ERROR
    assert out[1].sample_id == "b"


@pytest.mark.parametrize("parallelism", [1, 2])
def test_batch_logs_each_failed_episode(caplog, parallelism):
    gw = make_gateway(entry(["Task id: a"], "ra"))
    with caplog.at_level(logging.WARNING, logger="reprompt.actor"):
        collect_batch(
            PROMPT, [sample("a"), sample("b")], NoFeedback(), 1,
            caller=make_caller(gw), parallelism=parallelism,
        )
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("reprompt.actor", logging.WARNING)
    ]
    assert caplog.records[0].getMessage().startswith(
        "episode failed for sample b: episode for b failed: "
    )


def test_batch_parallel_results_match_serial():
    gw1 = make_gateway(
        entry(["Task id: a"], "ra"), entry(["Task id: b"], "rb")
    )
    gw2 = make_gateway(
        entry(["Task id: a"], "ra"), entry(["Task id: b"], "rb")
    )
    samples = [sample("a"), sample("b")]
    serial = collect_batch(
        PROMPT, samples, NoFeedback(), 1, caller=make_caller(gw1), parallelism=1
    )
    parallel = collect_batch(
        PROMPT, samples, NoFeedback(), 1, caller=make_caller(gw2),
        parallelism=2,
    )
    assert serial == parallel


# --- datasets ----------------------------------------------------------------------


def test_load_dataset(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text(
        "- id: s1\n  slot_values: {task_id: s1, budget: 90}\n"
        "- id: s2\n  slot_values: {task_id: s2}\n"
    )
    samples = load_dataset(str(path))
    assert [s.id for s in samples] == ["s1", "s2"]
    # Scalar slot values are coerced to strings.
    assert samples[0].slot_values["budget"] == "90"


def test_load_dataset_reads_json(tmp_path):
    block = tmp_path / "block.yaml"
    block.write_text(
        "- id: s1\n  slot_values: {task_id: s1, budget: 90}\n"
        "- id: s2\n  slot_values: {task_id: s2}\n"
    )
    flow = tmp_path / "flow.yaml"
    flow.write_text(
        '[{"id": "s1", "slot_values": {"task_id": "s1", "budget": 90}},\n'
        ' {"id": "s2", "slot_values": {"task_id": "s2"}}]\n'
    )
    assert load_dataset(str(flow)) == load_dataset(str(block))


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text("- id: s1\n- id: s1\n")
    with pytest.raises(ValueError, match="unique"):
        load_dataset(str(path))


def test_load_dataset_rejects_rows_without_id(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text("- slot_values: {a: b}\n")
    with pytest.raises(ValueError, match="id"):
        load_dataset(str(path))


def test_load_dataset_rejects_empty_file(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset(str(path))


# --- transcript formatting ------------------------------------------------------------


def test_format_transcript_blocks():
    t = Transcript(
        sample_id="s1",
        messages=(
            TranscriptMessage(TranscriptRole.USER, "ask", 1),
            TranscriptMessage(TranscriptRole.ASSISTANT, "reply", 1),
            TranscriptMessage(TranscriptRole.FEEDBACK, "hint", 2),
        ),
        rounds_used=1,
        terminal=Terminal.FINISHED_BY_AGENT,
    )
    text = format_transcript(t)
    assert "[user / round 1]\nask" in text
    assert "[assistant / round 1]\nreply" in text
    assert "[feedback / round 2]\nhint" in text


def test_last_assistant_on_empty_transcript():
    t = Transcript(sample_id="s", messages=(), rounds_used=0, terminal=Terminal.ERROR)
    assert t.last_assistant() is None


# --- feedback generators ----------------------------------------------------------------


def _snapshot(answer):
    return Transcript(
        sample_id="s1",
        messages=(
            TranscriptMessage(TranscriptRole.USER, "ask", 1),
            TranscriptMessage(TranscriptRole.ASSISTANT, answer, 1),
        ),
        rounds_used=1,
        terminal=Terminal.FINISHED_BY_AGENT,
    )


def test_no_feedback_always_stops():
    assert NoFeedback().feedback(_snapshot("whatever")) is None


def test_reflexion_stops_on_finish_marker():
    gw = make_gateway(
        entry(["You are a reflection assistant", "[assistant / round 1]"], "LGTM")
    )
    fg = ReflexionFeedback(make_caller(gw, "critic"))
    assert fg.feedback(_snapshot("the answer")) is None


def test_reflexion_continues_with_review_text():
    gw = make_gateway(
        entry(["You are a reflection assistant"], "the total is over budget")
    )
    fg = ReflexionFeedback(make_caller(gw, "critic"))
    assert fg.feedback(_snapshot("the answer")) == "the total is over budget"


def test_thinktrace_extracts_span():
    fg = ThinkTraceFeedback()
    assert fg.feedback(_snapshot("<think>check costs</think>PLAN: x")) is None


def test_thinktrace_errors():
    fg = ThinkTraceFeedback()
    with pytest.raises(NoThinkSpanError):
        fg.feedback(_snapshot("no span here"))
    with pytest.raises(NoThinkSpanError):
        fg.feedback(_snapshot("<think>never closed"))
    empty = Transcript(
        sample_id="s", messages=(), rounds_used=0, terminal=Terminal.ERROR
    )
    with pytest.raises(NoThinkSpanError):
        fg.feedback(empty)


class FakeResult:
    def __init__(self, passed, messages=()):
        self.passed = passed
        self.messages = tuple(messages)


class FakeAdapter:
    def parse_answer(self, text):
        if "garbled" in text:
            raise UnparseableAnswerError("cannot read the answer")
        return text.upper()

    def check(self, answer, sample):
        if "GOOD" in answer:
            return FakeResult(True)
        return FakeResult(False, ["total exceeds the budget"])


def test_rulecheck_pass_stops():
    fg = RuleCheckFeedback(FakeAdapter(), {"s1": object()})
    assert fg.feedback(_snapshot("good plan")) is None


def test_rulecheck_failure_feeds_first_message():
    fg = RuleCheckFeedback(FakeAdapter(), {"s1": object()})
    assert fg.feedback(_snapshot("bad plan")) == "total exceeds the budget"


def test_rulecheck_unparseable_answer_continues():
    fg = RuleCheckFeedback(FakeAdapter(), {"s1": object()})
    assert "cannot read" in fg.feedback(_snapshot("garbled output"))


def build_feedback(name, **kwargs):
    settings = {
        "gateway": make_gateway(), "model": "m", "adapter": None, "samples_by_id": {},
    }
    return feedback_generator(name, temperature=0.0, seed=42, **{**settings, **kwargs})


def test_factory_builds_each_kind():
    gw = make_gateway(entry(["x"], "y"))
    assert isinstance(build_feedback("none"), NoFeedback)
    assert isinstance(
        build_feedback("reflexion", gateway=gw, model="m"), ReflexionFeedback
    )
    assert isinstance(build_feedback("thinktrace"), ThinkTraceFeedback)
    assert isinstance(
        build_feedback("rulecheck", adapter=FakeAdapter(), samples_by_id={}),
        RuleCheckFeedback,
    )


def test_reflexion_from_the_factory_sends_the_given_settings():
    gw = make_recording_gateway(entry(["You are a reflection assistant"], "LGTM"))
    fg = feedback_generator(
        "reflexion", gateway=gw, model="critic", adapter=None, samples_by_id={},
        temperature=0.5, seed=7,
    )
    fg.feedback(_snapshot("the answer"))
    (request, _), = gw.history
    assert (request.model, request.temperature, request.seed) == ("critic", 0.5, 7)


def test_factory_validates_arguments():
    with pytest.raises(TypeError):
        feedback_generator("reflexion", temperature=0.0, seed=42)
    with pytest.raises(ValueError, match=r"\[train\] feedback = rulecheck needs"):
        build_feedback("rulecheck")
    with pytest.raises(ValueError):
        build_feedback("telepathy")
