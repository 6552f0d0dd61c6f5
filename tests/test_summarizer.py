import pytest

from reprompt import prompts
from reprompt.actor import Terminal, Transcript
from reprompt.errors import MissingConclusionMarkerError, ScrubRejectedError
from reprompt.gateway import Message, Role
from reprompt import summarizer
from reprompt.prompt_model import parse_prompt, render_prompt
from reprompt.summarizer import (
    ELIDED_PROMPT_LINE,
    FocusCase,
    TRUNCATION_SENTINEL,
    parse_conclusion,
    scrub_violations,
    serialize_transcripts,
    summarize_batch,
)

from conftest import entry, make_caller, make_gateway, make_recording_gateway

PROMPT = parse_prompt("Do the thing.\n")
PROMPT_TEXT = render_prompt(PROMPT)

MARKER = prompts.CONCLUSION_MARKER


def transcript(sid="s1", answer="a draft answer"):
    return Transcript(
        sample_id=sid,
        messages=(Message(Role.USER, f"task {sid}"), Message(Role.ASSISTANT, answer)),
        terminal=Terminal.FINISHED_BY_AGENT,
    )


# --- conclusion parsing -----------------------------------------------------


def test_failure_reason_routing():
    case, text = parse_conclusion(
        f"analysis...\n{MARKER}the answers ignore the stated constraints."
    )
    assert case is FocusCase.FAILURE_REASON
    assert text == "the answers ignore the stated constraints."


def test_no_general_reason_routing():
    case, text = parse_conclusion(
        f"{MARKER}there is no general reason for the failures."
    )
    assert case is FocusCase.NO_GENERAL_REASON
    assert text == ""


@pytest.mark.parametrize(
    "tail",
    [
        "a helpful thought is to check the route first.",
        "it is helpful to restate the constraints.",
        "always focus on the budget limit.",
    ],
)
def test_helpful_thought_routing(tail):
    case, text = parse_conclusion(MARKER + tail)
    assert case is FocusCase.HELPFUL_THOUGHT
    assert text == tail


def test_last_marker_occurrence_wins():
    raw = (
        f"{MARKER}an early draft conclusion.\n"
        f"more analysis...\n{MARKER}the final conclusion stands."
    )
    _, text = parse_conclusion(raw)
    assert text == "the final conclusion stands."


def test_missing_marker_is_none():
    assert parse_conclusion("no conclusion line anywhere") is None


def test_reason_focus_must_have_text():
    # An empty conclusion line is no conclusion, not a reason without text.
    assert parse_conclusion(f"analysis...\n{MARKER}") is None
    assert parse_conclusion(f"{MARKER}a reason.\n{MARKER}  \n") is None


def test_routing_is_case_insensitive():
    case, _ = parse_conclusion(MARKER + "There Is No GENERAL reason here.")
    assert case is FocusCase.NO_GENERAL_REASON


# --- scrubbing --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "the plan spends $120 too much",
        "the budget of 2600 dollars is exceeded",
        "the trip starts on 3/14",
        "the date 2024-03-14 is wrong",
        "departing Mar 14 was not allowed",
        "the 14 March departure is fixed",
        "costs were 99.50 USD over",
    ],
)
def test_scrubber_catches_scenario_details(text):
    assert scrub_violations(text)


@pytest.mark.parametrize(
    "text",
    [
        "the plans repeatedly exceed the stated budget",
        "option 3 was chosen without checking the route",
        "check all 4 constraints before answering",
        "the answer lists 12 items",
    ],
)
def test_scrubber_accepts_general_statements(text):
    assert scrub_violations(text) == []


# --- transcript serialization -------------------------------------------------------


def test_serialization_headers_and_order():
    text = serialize_transcripts([transcript("s1"), transcript("s2")], 60_000, PROMPT_TEXT)
    first = text.find("=== Transcript for sample s1 ===")
    second = text.find("=== Transcript for sample s2 ===")
    assert 0 <= first < second
    assert "[assistant / round 1]" in text


def test_serialization_respects_budget():
    long_answer = "x" * 50_000
    items = [transcript("s1", long_answer), transcript("s2", long_answer)]
    text = serialize_transcripts(items, 10_000, PROMPT_TEXT)
    assert len(text) <= 10_000
    assert text.count(TRUNCATION_SENTINEL) == 2
    # Symmetric trim keeps each transcript's header and its tail.
    assert "=== Transcript for sample s1 ===" in text
    assert text.rstrip().endswith("x")


def test_short_transcript_is_kept_whole_beside_a_cut_one():
    short, long = transcript("s1"), transcript("s2", "x" * 50_000)
    text = serialize_transcripts([short, long], 10_000, PROMPT_TEXT)
    assert len(text) <= 10_000
    whole = serialize_transcripts([short], 10_000, PROMPT_TEXT)
    assert text.startswith(whole + "\n\n=== Transcript for sample s2 ===")
    assert text.count(TRUNCATION_SENTINEL) == 1


def test_serialization_untouched_under_budget():
    items = [transcript("s1"), transcript("s2")]
    assert len(serialize_transcripts(items, 60_000, PROMPT_TEXT)) < 1_000


def test_serialization_of_empty_list():
    assert serialize_transcripts([], 100, PROMPT_TEXT) == ""


# --- prompt eliding ---------------------------------------------------------------

TASK_PROMPT = (
    "You plan trips.\nKeep within the budget.\n\n"
    "Here is the task:\nTask id: {task_id}\nDays: {days}\n"
)


def episode(sid, first, *later):
    """A transcript whose round-1 message is ``first``; ``later`` are the
    contents that follow it, an assistant reply then feedback, round by round."""
    messages = [Message(Role.USER, first)]
    messages += [
        Message(Role.USER if i % 2 else Role.ASSISTANT, content)
        for i, content in enumerate(later)
    ]
    return Transcript(sid, tuple(messages), Terminal.FINISHED_BY_AGENT)


def filled(sid):
    return TASK_PROMPT.format(task_id=sid, days=2)


def test_shared_prompt_lines_become_one_line():
    text = serialize_transcripts(
        [episode("t9", filled("t9"), "PLAN:")],
        60_000, TASK_PROMPT,
    )
    assert text == (
        "=== Transcript for sample t9 ===\n"
        f"[user / round 1]\n{ELIDED_PROMPT_LINE}\nTask id: t9\nDays: 2\n\n\n"
        "[assistant / round 1]\nPLAN:"
    )


def test_cut_falls_on_a_line_boundary():
    # "Task id: " is shared with the prompt, but the line differs after it,
    # so the whole line is kept.
    text = serialize_transcripts([episode("t9", filled("t9"))], 60_000, TASK_PROMPT)
    assert f"{ELIDED_PROMPT_LINE}\nTask id: t9\n" in text
    assert "Here is the task:" not in text
    # A divergence inside an earlier line keeps that line whole too.
    message = "You plan trips.\nKeep within the budget, strictly.\nTask id: t9\n"
    text = serialize_transcripts([episode("t9", message)], 60_000, TASK_PROMPT)
    assert f"{ELIDED_PROMPT_LINE}\nKeep within the budget, strictly.\nTask id: t9\n" in text
    assert "You plan trips." not in text


@pytest.mark.parametrize("message", [
    "Solve this instead.\nTask id: t9\n",
    "You plan trips!\nKeep within the budget.\n",
    "You plan trips.",
])
def test_message_without_a_shared_line_is_kept_whole(message):
    text = serialize_transcripts([episode("t9", message)], 60_000, TASK_PROMPT)
    assert text == f"=== Transcript for sample t9 ===\n[user / round 1]\n{message}"


def test_only_the_round_one_message_is_elided():
    # Assistant and feedback messages stay verbatim even when they repeat
    # the prompt.
    item = episode(
        "t9", filled("t9"), filled("t9"), filled("t9"), "PLAN:"
    )
    text = serialize_transcripts([item], 60_000, TASK_PROMPT)
    assert text.count(ELIDED_PROMPT_LINE) == 1
    assert text.count(filled("t9")) == 2
    assert f"[feedback / round 2]\n{filled('t9')}" in text


def test_eliding_lets_a_batch_fit_the_budget_whole():
    rules = "".join(f"Rule {i}: keep the plan consistent.\n" for i in range(150))
    prompt = rules + "Task id: {task_id}\nDays: {days}\n"
    items = [
        episode(f"t{i}", prompt.format(task_id=f"t{i}", days=2), f"PLAN: answer {i}")
        for i in range(4)
    ]
    budget = 10_000
    # Sent whole, each round-1 message alone is over its share of the budget.
    assert TRUNCATION_SENTINEL in serialize_transcripts(items, budget, "")
    text = serialize_transcripts(items, budget, prompt)
    assert TRUNCATION_SENTINEL not in text
    assert "Rule 0:" not in text
    for i in range(4):
        assert f"Task id: t{i}\nDays: 2\n" in text
        assert f"PLAN: answer {i}" in text


# --- summarize_batch ------------------------------------------------------------------


def conclusion(text):
    return f"short analysis.\n{MARKER}{text}"


def test_happy_path_single_call():
    gw = make_gateway(
        entry(
            ["You are a summarizer"],
            conclusion("the answers skip the constraint check."),
        )
    )
    focus = summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
    assert focus.case is FocusCase.FAILURE_REASON
    assert focus.text == "the answers skip the constraint check."
    assert gw.calls == 1


def test_request_carries_prompt_and_transcripts():
    gw = make_recording_gateway(entry(["You are a summarizer"], conclusion("a reason.")))
    summarize_batch([transcript("s7")], PROMPT, caller=make_caller(gw, "critic"))
    request, _ = gw.history[0]
    assert request.messages[0].role is Role.SYSTEM
    assert request.messages[0].content == prompts.SUMMARIZER_SYSTEM_PROMPT
    user = request.messages[1].content
    assert prompts.CURRENT_PROMPT_HEADER in user
    assert "Do the thing.\n" in user
    assert "=== Transcript for sample s7 ===" in user
    assert request.model == "critic"


# Replies without a conclusion: no marker at all, or an empty conclusion line.
NO_CONCLUSION = ("no marker in sight", conclusion(""))


def test_retry_after_missing_marker():
    for reply in NO_CONCLUSION:
        gw = make_recording_gateway(
            entry(["You are a summarizer"], reply, excludes=["previous reply"]),
            entry(
                ["You are a summarizer", "previous reply did not contain"],
                conclusion("the constraint is never checked."),
            ),
        )
        focus = summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
        assert focus.case is FocusCase.FAILURE_REASON
        assert gw.calls == 2
        retry_request, _ = gw.history[1]
        assert retry_request.messages[2].content == prompts.SUMMARIZER_FORMAT_REMINDER


def test_two_missing_markers_raise():
    for reply in NO_CONCLUSION:
        gw = make_gateway(entry(["You are a summarizer"], reply, max_uses=2))
        with pytest.raises(MissingConclusionMarkerError):
            summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
        assert gw.calls == 2


def test_retry_after_scrub_hit():
    gw = make_recording_gateway(
        entry(
            ["You are a summarizer"],
            conclusion("the plan runs $40 over."),
            excludes=["scenario-specific"],
        ),
        entry(
            ["You are a summarizer", "scenario-specific details"],
            conclusion("the plans exceed the stated budget."),
        ),
    )
    focus = summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
    assert focus.text == "the plans exceed the stated budget."
    retry_request, _ = gw.history[1]
    assert retry_request.messages[2].content == prompts.SUMMARIZER_DETAIL_REMINDER


def test_two_scrub_hits_raise():
    gw = make_gateway(
        entry(["You are a summarizer"], conclusion("spends $9 extra"), max_uses=2)
    )
    with pytest.raises(ScrubRejectedError):
        summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))


def test_no_reason_case_is_scrub_exempt_downstream():
    # The no-reason conclusion carries empty focus text, so scenario details
    # in the surrounding sentence cannot poison it.
    gw = make_gateway(
        entry(
            ["You are a summarizer"],
            conclusion("there is no general reason, each case differs."),
        )
    )
    focus = summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
    assert focus.case is FocusCase.NO_GENERAL_REASON
    assert focus.text == ""


def test_empty_batch_rejected():
    gw = make_gateway(entry(["x"], "y"))
    with pytest.raises(ValueError):
        summarize_batch([], PROMPT, caller=make_caller(gw, "critic"))


def test_serializes_through_the_module_function_once(monkeypatch):
    # The benchmark times summarizer.serialize_transcripts by wrapping the
    # module attribute, so summarize_batch must reach it through the module.
    seen = []

    def counting(*args):
        seen.append(args)
        return serialize_transcripts(*args)

    monkeypatch.setattr(summarizer, "serialize_transcripts", counting)
    gw = make_recording_gateway(
        entry(["You are a summarizer"], "no marker in sight", excludes=["previous reply"]),
        entry(
            ["You are a summarizer", "previous reply did not contain"],
            conclusion("the constraint is never checked."),
        ),
    )
    summarize_batch([transcript()], PROMPT, caller=make_caller(gw, "critic"))
    assert gw.calls == 2
    assert len(seen) == 1
    assert seen[0][2] == PROMPT_TEXT
