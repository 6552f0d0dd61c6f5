import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reprompt.actor import (
    NoFeedback,
    ReflexionFeedback,
    RuleCheckFeedback,
    TaskSample,
    Terminal,
    ThinkTraceFeedback,
    Transcript,
    collect_batch,
    feedback_generator,
    format_transcript,
    load_dataset,
    run_episode,
)
from reprompt.errors import GatewayError, NoThinkSpanError, UnparseableAnswerError
from reprompt.gateway import ChatResponse, Message, Role, Usage
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
    assert [m.role for m in t.messages] == [Role.USER, Role.ASSISTANT]
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
    assert t.messages == (
        Message(Role.USER, "Solve it.\n\nHere is the task:\nTask id: s1\n"),
        Message(Role.ASSISTANT, "draft"),
        Message(Role.USER, "fix the route"),
        Message(Role.ASSISTANT, "final"),
    )
    labels = [line for line in format_transcript(t).splitlines() if line.startswith("[")]
    assert labels == [
        "[user / round 1]", "[assistant / round 1]",
        "[feedback / round 2]", "[assistant / round 2]",
    ]
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
    assert t.messages[2] == Message(Role.USER, "")


def test_gateway_failure_wraps_partial_transcript():
    gw = make_gateway(entry(["never matches"], "x"))
    partial = run_episode(PROMPT, sample(), NoFeedback(), 1, caller=make_caller(gw))
    assert partial is not None
    assert partial.terminal is Terminal.ERROR
    assert partial.error.startswith("episode for s1 failed: ")
    assert partial.rounds_used == 0
    assert [m.role for m in partial.messages] == [Role.USER]


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


RAISE = object()


class ScriptedCalls:
    """A gateway that answers call k with ``answers[k - 1]`` and fails call
    ``fail_at``, recording the messages of every request."""

    def __init__(self, answers, fail_at):
        self.answers, self.fail_at, self.sent = answers, fail_at, []

    def complete(self, request):
        self.sent.append(request.messages)
        if len(self.sent) == self.fail_at:
            raise GatewayError("backend down")
        return ChatResponse(self.answers[len(self.sent) - 1], Usage(0, 0))


class ScriptedVerdicts(CannedFeedback):
    def feedback(self, transcript):
        verdict = super().feedback(transcript)
        if verdict is RAISE:
            raise RuntimeError("checker down")
        return verdict


def labelled_blocks(messages):
    """The blocks by counting rounds: the task is round 1, each answer
    counts a round, and the feedback after answer k opens round k + 1."""
    blocks, answers = [], 0
    for i, m in enumerate(messages):
        if m.role is Role.ASSISTANT:
            answers += 1
            label = f"assistant / round {answers}"
        elif i == 0:
            label = "user / round 1"
        else:
            label = f"feedback / round {answers + 1}"
        blocks.append(f"[{label}]\n{m.content}")
    return "\n\n".join(blocks)


@given(
    max_rounds=st.integers(1, 4),
    answers=st.lists(st.text(max_size=6), min_size=4, max_size=4),
    verdicts=st.lists(
        st.one_of(st.text(max_size=6), st.none(), st.just(RAISE)), min_size=3, max_size=3
    ),
    fail_at=st.one_of(st.none(), st.integers(1, 4)),
)
def test_episode_transcript_is_the_messages_sent(max_rounds, answers, verdicts, fail_at):
    gw = ScriptedCalls(answers, fail_at)
    fg = ScriptedVerdicts(*verdicts)
    t = run_episode(PROMPT, sample(), fg, max_rounds, caller=make_caller(gw))

    # The outcome, round by round.
    for k in range(1, max_rounds + 1):
        if k == fail_at:
            terminal, rounds = Terminal.ERROR, k - 1
            break
        if k == max_rounds:
            terminal, rounds = Terminal.MAX_ROUNDS_EXHAUSTED, k
            break
        verdict = verdicts[k - 1]
        if verdict is None or verdict is RAISE:
            terminal = Terminal.FINISHED_BY_AGENT if verdict is None else Terminal.ERROR
            rounds = k
            break
    assert (t.terminal, t.rounds_used) == (terminal, rounds)
    assert bool(t.error) == (terminal is Terminal.ERROR)

    # The task, then each answer followed by the feedback on it.
    assert t.messages[0] == Message(Role.USER, "Solve it.\n\nHere is the task:\nTask id: s1\n")
    assert [m.role for m in t.messages] == [
        Role.ASSISTANT if i % 2 else Role.USER for i in range(len(t.messages))
    ]
    assert [m.content for m in t.messages[1::2]] == answers[:rounds]
    feedback = [m.content for m in t.messages[2::2]]
    assert feedback == verdicts[:len(feedback)]
    assert t.rounds_used == sum(m.role is Role.ASSISTANT for m in t.messages)

    # Each request carried the transcript so far, and so did each feedback call.
    assert gw.sent == [t.messages[:2 * k + 1] for k in range(len(gw.sent))]
    assert [seen.messages for seen in fg.seen] == [
        t.messages[:2 * k + 2] for k in range(len(fg.seen))
    ]
    assert format_transcript(t) == labelled_blocks(t.messages)


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
        "- id: s1\n  slot_values: {task_id: s1, budget: 90, rate: 0.5}\n"
        "- id: s2\n  slot_values: {task_id: s2}\n"
    )
    samples = load_dataset(str(path))
    assert [s.id for s in samples] == ["s1", "s2"]
    # Numbers are filled in as written.
    assert samples[0].slot_values["budget"] == "90"
    assert samples[0].slot_values["rate"] == "0.5"


@pytest.mark.parametrize("text, message", [
    ("- id: null\n", "sample id must be a string, not None"),
    ("- id: [x]\n", "sample id must be a string, not ['x']"),
    ("- id: 7\n", "sample id must be a string, not 7"),
    (
        "- id: a\n  slot_values: {task_id: [A, B]}\n",
        "sample a: slot value task_id must be a string or a number, not ['A', 'B']",
    ),
    (
        "- id: a\n  slot_values: {task_id: null}\n",
        "sample a: slot value task_id must be a string or a number, not None",
    ),
    (
        "- id: a\n  slot_values: {task_id: a, strict: true}\n",
        "sample a: slot value strict must be a string or a number, not True",
    ),
    (
        "- id: a\n  slot_values: {task_id: {x: 1}}\n",
        "sample a: slot value task_id must be a string or a number, not {'x': 1}",
    ),
    (
        # YAML's 1 and true are one key once loaded, so one value would be lost.
        "- id: a\n  slot_values: {null: x, 1: y, true: z}\n",
        "sample a: slot name None must be a string",
    ),
    (
        "- id: a\n  slot_values: {task_id: a, 1: y}\n",
        "sample a: slot name 1 must be a string",
    ),
    (
        # A toy row read as a generic one would load with no slots at all.
        "- id: a\n  slot_values: {task_id: a}\n  days: 1\n  budget: 9\n",
        "sample a: unknown key(s): budget, days",
    ),
], ids=["null-id", "list-id", "int-id", "list-slot", "null-slot", "bool-slot",
        "mapping-slot", "null-slot-name", "int-slot-name", "unknown-key"])
def test_load_dataset_rejects_malformed_records(tmp_path, text, message):
    path = tmp_path / "d.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"{path}: {message}"


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
            Message(Role.USER, "ask"),
            Message(Role.ASSISTANT, "reply"),
            Message(Role.USER, "hint"),
        ),
        terminal=Terminal.FINISHED_BY_AGENT,
    )
    text = format_transcript(t)
    assert "[user / round 1]\nask" in text
    assert "[assistant / round 1]\nreply" in text
    assert "[feedback / round 2]\nhint" in text


def test_last_assistant_on_empty_transcript():
    t = Transcript(sample_id="s", messages=(), terminal=Terminal.ERROR)
    assert t.last_assistant() is None


# --- feedback generators ----------------------------------------------------------------


def _snapshot(answer):
    return Transcript(
        sample_id="s1",
        messages=(Message(Role.USER, "ask"), Message(Role.ASSISTANT, answer)),
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
    empty = Transcript(sample_id="s", messages=(), terminal=Terminal.ERROR)
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
