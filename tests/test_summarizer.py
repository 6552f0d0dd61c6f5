import pytest

from reprompt import prompts
from reprompt.actor import Terminal, Transcript, TranscriptMessage, TranscriptRole
from reprompt.errors import (
    MarkerAbsentError,
    MissingConclusionMarkerError,
    ScrubRejectedError,
)
from reprompt.gateway import Role
from reprompt.prompt_model import parse_prompt
from reprompt.summarizer import (
    FocusCase,
    FocusPoint,
    TRUNCATION_SENTINEL,
    parse_conclusion,
    scrub_violations,
    serialize_transcripts,
    summarize_batch,
)

from conftest import entry, make_gateway, make_recording_gateway

PROMPT = parse_prompt("Do the thing.\n")

MARKER = prompts.CONCLUSION_MARKER


def transcript(sid="s1", answer="a draft answer"):
    return Transcript(
        sample_id=sid,
        messages=(
            TranscriptMessage(TranscriptRole.USER, f"task {sid}", 1),
            TranscriptMessage(TranscriptRole.ASSISTANT, answer, 1),
        ),
        rounds_used=1,
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


def test_missing_marker_raises():
    with pytest.raises(MarkerAbsentError):
        parse_conclusion("no conclusion line anywhere")


def test_routing_is_case_insensitive():
    case, _ = parse_conclusion(MARKER + "There Is No GENERAL reason here.")
    assert case is FocusCase.NO_GENERAL_REASON


# --- focus point invariants ----------------------------------------------------


def test_no_reason_focus_must_have_empty_text():
    with pytest.raises(ValueError):
        FocusPoint(
            case=FocusCase.NO_GENERAL_REASON,
            text="something",
            raw_output="r",
            epoch=0,
            batch_index=0,
        )


def test_reason_focus_must_have_text():
    with pytest.raises(ValueError):
        FocusPoint(
            case=FocusCase.FAILURE_REASON,
            text="",
            raw_output="r",
            epoch=0,
            batch_index=0,
        )


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
    text = serialize_transcripts([transcript("s1"), transcript("s2")], 60_000)
    first = text.find("=== Transcript for sample s1 ===")
    second = text.find("=== Transcript for sample s2 ===")
    assert 0 <= first < second
    assert "[assistant / round 1]" in text


def test_serialization_respects_budget():
    long_answer = "x" * 50_000
    items = [transcript("s1", long_answer), transcript("s2", long_answer)]
    text = serialize_transcripts(items, 10_000)
    assert len(text) <= 10_000
    assert text.count(TRUNCATION_SENTINEL) == 2
    # Symmetric trim keeps each transcript's header and its tail.
    assert "=== Transcript for sample s1 ===" in text
    assert text.rstrip().endswith("x")


def test_serialization_untouched_under_budget():
    items = [transcript("s1"), transcript("s2")]
    assert len(serialize_transcripts(items, 60_000)) < 1_000


def test_serialization_of_empty_list():
    assert serialize_transcripts([], 100) == ""


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
    focus = summarize_batch(
        [transcript()], PROMPT, gateway=gw, model="critic", epoch=2, batch_index=1
    )
    assert focus.case is FocusCase.FAILURE_REASON
    assert focus.text == "the answers skip the constraint check."
    assert focus.epoch == 2
    assert focus.batch_index == 1
    assert gw.calls == 1


def test_request_carries_prompt_and_transcripts():
    gw = make_recording_gateway(entry(["You are a summarizer"], conclusion("a reason.")))
    summarize_batch([transcript("s7")], PROMPT, gateway=gw, model="critic")
    request, _ = gw.history[0]
    assert request.messages[0].role is Role.SYSTEM
    assert request.messages[0].content == prompts.SUMMARIZER_SYSTEM_PROMPT
    user = request.messages[1].content
    assert prompts.CURRENT_PROMPT_HEADER in user
    assert "Do the thing.\n" in user
    assert "=== Transcript for sample s7 ===" in user
    assert request.model == "critic"


def test_retry_after_missing_marker():
    gw = make_recording_gateway(
        entry(["You are a summarizer"], "no marker in sight", excludes=["previous reply"]),
        entry(
            ["You are a summarizer", "previous reply did not contain"],
            conclusion("the constraint is never checked."),
        ),
    )
    focus = summarize_batch([transcript()], PROMPT, gateway=gw, model="critic")
    assert focus.case is FocusCase.FAILURE_REASON
    assert gw.calls == 2
    retry_request, _ = gw.history[1]
    assert retry_request.messages[2].content == prompts.SUMMARIZER_FORMAT_REMINDER


def test_two_missing_markers_raise():
    gw = make_gateway(
        entry(["You are a summarizer"], "still no marker", max_uses=2)
    )
    with pytest.raises(MissingConclusionMarkerError):
        summarize_batch([transcript()], PROMPT, gateway=gw, model="critic")
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
    focus = summarize_batch([transcript()], PROMPT, gateway=gw, model="critic")
    assert focus.text == "the plans exceed the stated budget."
    retry_request, _ = gw.history[1]
    assert retry_request.messages[2].content == prompts.SUMMARIZER_DETAIL_REMINDER


def test_two_scrub_hits_raise():
    gw = make_gateway(
        entry(["You are a summarizer"], conclusion("spends $9 extra"), max_uses=2)
    )
    with pytest.raises(ScrubRejectedError):
        summarize_batch([transcript()], PROMPT, gateway=gw, model="critic")


def test_no_reason_case_is_scrub_exempt_downstream():
    # The no-reason conclusion carries empty focus text, so scenario details
    # in the surrounding sentence cannot poison it.
    gw = make_gateway(
        entry(
            ["You are a summarizer"],
            conclusion("there is no general reason, each case differs."),
        )
    )
    focus = summarize_batch([transcript()], PROMPT, gateway=gw, model="critic")
    assert focus.case is FocusCase.NO_GENERAL_REASON
    assert focus.text == ""


def test_empty_batch_rejected():
    gw = make_gateway(entry(["x"], "y"))
    with pytest.raises(ValueError):
        summarize_batch([], PROMPT, gateway=gw, model="critic")
