import pytest

from reprompt import prompts
from reprompt.errors import GuardrailRejectionError, MissingFinalMarkerError
from reprompt.guardrails import GuardConfig
from reprompt.optimizer import optimize, parse_final_prompt
from reprompt.prompt_model import (
    DEFAULT_SEGMENTATION,
    StepEdit,
    StepEditOp,
    classify_placement,
    parse_prompt,
    render_prompt,
)
from reprompt.summarizer import FocusCase, FocusPoint

from conftest import entry, make_caller, make_gateway, make_recording_gateway

MARKER = prompts.FINAL_PROMPT_MARKER  # ends with a space

OLD_TEXT = (
    "Plan the trip.\n\n"
    "1. Read the query.\n"
    "2. Draft the plan.\n\n"
    "***** Example *****\n"
    "Query: q\nPlan: p\n"
    "***** Example Ends *****\n\n"
    "Here is the task:\n{query}\n"
)
OLD = parse_prompt(OLD_TEXT)

NEW_TEXT = OLD_TEXT.replace(
    "2. Draft the plan.\n",
    "2. Check the budget against the total cost.\n3. Draft the plan.\n",
)


def focus(text="the budget is never checked.", case=FocusCase.FAILURE_REASON):
    return FocusPoint(case=case, text=text)


# The run settings of a run on the stock markers and guards.
SETTINGS = {
    "seg_config": DEFAULT_SEGMENTATION,
    "required_tokens": (),
    "guard_config": GuardConfig(),
}


def callers(gateway):
    """The optimizer and repair callers, both on ``gateway``."""
    caller = make_caller(gateway)
    return {"caller": caller, "repair": caller}


def no_reason_focus():
    return FocusPoint(case=FocusCase.NO_GENERAL_REASON, text="")


# --- final prompt extraction ----------------------------------------------------


def test_extracts_text_after_marker():
    assert parse_final_prompt(f"analysis\n{MARKER}the prompt\n") == "the prompt\n"


def test_marker_without_trailing_space_matches():
    bare = MARKER.rstrip(" ")
    assert parse_final_prompt(f"analysis\n{bare}\nthe prompt\n") == "the prompt\n"


def test_last_marker_wins():
    raw = f"{MARKER}draft one\n...\n{MARKER}draft two\n"
    assert parse_final_prompt(raw) == "draft two\n"


def test_single_leading_space_and_newline_are_trimmed():
    bare = MARKER.rstrip(" ")
    assert parse_final_prompt(f"{bare} \n  indented prompt") == "  indented prompt"
    assert parse_final_prompt(f"{bare}\r\nwindows line") == "windows line"


def test_missing_marker_is_none():
    assert parse_final_prompt("no marker anywhere") is None


def test_bare_item_candidate_is_an_insert():
    bare = OLD_TEXT.replace("2. Draft the plan.\n", "2.\n3. Draft the plan.\n")
    gw = make_gateway(entry(["You are a prompt optimizer"], f"{MARKER}\n{bare}"))
    update = optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert update.changed
    assert render_prompt(update.new_prompt) == bare
    assert classify_placement(OLD, update.new_prompt) == StepEdit(StepEditOp.INSERT_BEFORE, 2)


# --- optimize -----------------------------------------------------------------------


def test_no_general_reason_is_identity_with_zero_calls():
    gw = make_gateway(entry(["You are a prompt optimizer"], "should never fire"))
    update = optimize(OLD, no_reason_focus(), **callers(gw), **SETTINGS)
    assert update.changed is False
    assert update.new_prompt is OLD
    assert gw.calls == 0


def test_accepted_rewrite_bumps_version():
    gw = make_gateway(
        entry(["You are a prompt optimizer"], f"analysis\n{MARKER}\n{NEW_TEXT}")
    )
    update = optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert update.changed
    assert render_prompt(update.new_prompt) == NEW_TEXT
    assert update.new_prompt.version == OLD.version + 1
    assert gw.calls == 1


def test_request_carries_prompt_and_focus():
    gw = make_recording_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{NEW_TEXT}")
    )
    optimize(OLD, focus("check totals before answering."), **callers(gw), **SETTINGS)
    request, _ = gw.history[0]
    user = request.messages[1].content
    assert OLD_TEXT in user
    assert "check totals before answering." in user


def test_identical_output_is_unchanged_but_consumes_a_call():
    gw = make_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{OLD_TEXT}")
    )
    update = optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert update.changed is False
    assert update.new_prompt is OLD
    assert gw.calls == 1


def test_retry_note_names_the_rejection():
    mutated = NEW_TEXT.replace("Plan: p\n", "Plan: edited\n")
    gw = make_recording_gateway(
        entry(
            ["You are a prompt optimizer"],
            f"{MARKER}\n{mutated}",
            excludes=["was rejected"],
        ),
        entry(
            ["You are a prompt optimizer", "was rejected"],
            f"{MARKER}\n{NEW_TEXT}",
        ),
    )
    update = optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert update.changed
    assert gw.calls == 2
    retry_request, _ = gw.history[1]
    assert retry_request.messages[2].content == (
        prompts.OPTIMIZER_RETRY_NOTE_TEMPLATE.format(
            reason="examples segment 1 mutated at chars 35..36"
        )
    )


def test_marker_missing_on_every_attempt():
    gw = make_gateway(
        entry(["You are a prompt optimizer"], "no final line here", max_uses=3)
    )
    with pytest.raises(MissingFinalMarkerError):
        optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert gw.calls == 3


def test_all_attempts_rejected_carries_last_report():
    mutated = NEW_TEXT.replace("Plan: p\n", "Plan: edited\n")
    gw = make_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{mutated}", max_uses=3)
    )
    with pytest.raises(GuardrailRejectionError) as err:
        optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert "(last: examples segment 1 mutated at chars" in str(err.value)
    assert gw.calls == 3


def test_attempt_budget_is_configurable():
    gw = make_gateway(
        entry(["You are a prompt optimizer"], "missing marker", max_uses=9)
    )
    with pytest.raises(MissingFinalMarkerError):
        optimize(
            OLD,
            focus(),
            **callers(gw),
            seg_config=DEFAULT_SEGMENTATION,
            required_tokens=(),
            guard_config=GuardConfig(optimizer_attempts=2),
        )
    assert gw.calls == 2


def test_conservation_rejects_preamble_edits():
    sneaky = NEW_TEXT.replace("Plan the trip.", "Plan the perfect trip.")
    gw = make_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{sneaky}", max_uses=3)
    )
    with pytest.raises(GuardrailRejectionError) as err:
        optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert "(last: preamble segment 1 mutated at chars 9..10)" in str(err.value)


def test_placeholder_candidate_is_repaired_in_flight():
    stubbed = NEW_TEXT.replace(
        "***** Example *****\nQuery: q\nPlan: p\n***** Example Ends *****",
        "<Examples from the original prompt>",
    )
    gw = make_recording_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{stubbed}"),
        entry(["You are a template replacer"], NEW_TEXT),
    )
    update = optimize(OLD, focus(), **callers(gw), **SETTINGS)
    assert update.changed
    repair_request, repaired = gw.history[1]
    assert repair_request.messages[0].content.startswith("You are a template replacer")
    assert render_prompt(update.new_prompt) == repaired == NEW_TEXT
    assert gw.calls == 2


def test_required_tokens_flow_through():
    gw = make_gateway(
        entry(["You are a prompt optimizer"], f"{MARKER}\n{NEW_TEXT}", max_uses=3)
    )
    with pytest.raises(GuardrailRejectionError):
        optimize(
            OLD, focus(), **callers(gw),
            seg_config=DEFAULT_SEGMENTATION,
            required_tokens=("THIS TOKEN IS NOWHERE",),
            guard_config=GuardConfig(),
        )


def test_unstructured_prompt_is_refused():
    gw = make_gateway(entry(["x"], "y"))
    bare = parse_prompt("no steps at all\n")
    with pytest.raises(ValueError):
        optimize(bare, focus(), **callers(gw), **SETTINGS)
