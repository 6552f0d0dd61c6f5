import pytest

from reprompt.errors import RepairFailedError
from reprompt.guardrails import (
    GuardConfig,
    GuardReport,
    Verdict,
    ViolationKind,
    compile_placeholder_patterns,
    detect_placeholders,
    repair_placeholders,
    review_candidate,
    verify_protected,
    verify_required_tokens,
)
from reprompt.prompt_model import parse_prompt

from conftest import PROMPT_FIXTURES, entry, make_gateway, make_recording_gateway

ORIGINAL_TEXT = (
    "Plan the trip.\n\n"
    "1. Read the query.\n"
    "2. Draft the plan.\n\n"
    "***** Example *****\n"
    "Query: q\nPlan: p\n"
    "***** Example Ends *****\n\n"
    "Here is the task:\n{query}\n"
)
ORIGINAL = parse_prompt(ORIGINAL_TEXT)


def with_steps(steps_block):
    return ORIGINAL_TEXT.replace("1. Read the query.\n2. Draft the plan.\n", steps_block)


# --- placeholder detection ----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "keep <the examples from the original prompt> here",
        "<Examples omitted for brevity>",
        "<Example 1>",
        "⟨ same examples as before ⟩",
        "{Example block unchanged}",
        "mixed case <EXAMPLES FROM THE ORIGINAL PROMPT>",
    ],
)
def test_default_placeholder_shapes(text):
    assert detect_placeholders(text)


@pytest.mark.parametrize(
    "text",
    [
        "an honest prompt with no stubs",
        "comparisons like a < b and c > d",
        "a {query} slot is not a placeholder",
        "angle text <done> without the keywords",
    ],
)
def test_non_placeholder_text(text):
    assert detect_placeholders(text) == []


def test_spans_are_ordered_and_positioned():
    text = "a ⟨one⟩ then <Examples here> end"
    spans = detect_placeholders(text)
    assert [s.text for s in spans] == ["⟨one⟩", "<Examples here>"]
    assert text[spans[0].start : spans[0].end] == "⟨one⟩"


def test_extra_patterns_extend_the_defaults():
    patterns = compile_placeholder_patterns((r"\[\[.*?\]\]",))
    spans = detect_placeholders("keep [[the rest]] intact", patterns)
    assert [s.text for s in spans] == ["[[the rest]]"]
    # Defaults still apply alongside the extras.
    assert detect_placeholders("⟨x⟩", patterns)


def test_fixture_with_placeholders_is_caught():
    text = (PROMPT_FIXTURES / "planner_rewrite_with_placeholder.txt").read_text()
    spans = detect_placeholders(text)
    assert len(spans) >= 2


# --- protected segment verification ------------------------------------------------


def test_identical_examples_accepted():
    new = parse_prompt(with_steps("1. Read the query.\n2. Check the budget.\n"))
    assert verify_protected(ORIGINAL, new).verdict is Verdict.ACCEPTED


def test_mutated_example_rejected_with_char_range():
    new = parse_prompt(ORIGINAL_TEXT.replace("Plan: p\n", "Plan: different\n"))
    report = verify_protected(ORIGINAL, new)
    assert report.verdict is Verdict.REJECTED
    v = report.violations[0]
    assert v.kind is ViolationKind.EXAMPLES_MUTATED
    assert "chars" in v.detail


def test_dropped_example_rejected_as_missing():
    new = parse_prompt("Plan the trip.\n\n1. Read the query.\n\nHere is the task:\n{query}\n")
    report = verify_protected(ORIGINAL, new)
    assert report.verdict is Verdict.REJECTED
    assert "missing" in report.violations[0].detail


def test_reordered_duplicate_examples_must_keep_order():
    base = (
        "Intro.\n\n***** Example *****\nA\n***** Example Ends *****\n\n"
        "middle text\n\n***** Example *****\nB\n***** Example Ends *****\n\n"
        "Here is the task:\n{q}\n"
    )
    swapped = (
        "Intro.\n\n***** Example *****\nB\n***** Example Ends *****\n\n"
        "middle text\n\n***** Example *****\nA\n***** Example Ends *****\n\n"
        "Here is the task:\n{q}\n"
    )
    old = parse_prompt(base)
    assert verify_protected(old, parse_prompt(base)).verdict is Verdict.ACCEPTED
    report = verify_protected(old, parse_prompt(swapped))
    assert report.verdict is Verdict.REJECTED


def test_unprotected_changes_do_not_trip_the_check():
    new = parse_prompt(ORIGINAL_TEXT.replace("Plan the trip.", "Plan the journey."))
    assert verify_protected(ORIGINAL, new).verdict is Verdict.ACCEPTED


# --- required tokens ------------------------------------------------------------------


def test_required_tokens_present():
    report = verify_required_tokens(ORIGINAL, ("Plan the trip.", "{query}"))
    assert report.verdict is Verdict.ACCEPTED


def test_required_token_case_sensitivity():
    report = verify_required_tokens(ORIGINAL, ("PLAN THE TRIP.",))
    assert report.verdict is Verdict.REJECTED
    assert report.violations[0].kind is ViolationKind.REQUIRED_TOKEN_MISSING
    assert "case-sensitive" in report.violations[0].detail


def test_each_missing_token_is_reported():
    report = verify_required_tokens(ORIGINAL, ("absent one", "absent two"))
    assert len(report.violations) == 2


# --- repair ------------------------------------------------------------------------


CANDIDATE_WITH_STUB = (
    "Plan the trip.\n\n"
    "1. Read the query.\n"
    "2. Check the budget.\n\n"
    "<Examples from the original prompt>\n\n"
    "Here is the task:\n{query}\n"
)

REPAIRED_TEXT = CANDIDATE_WITH_STUB.replace(
    "<Examples from the original prompt>\n\n",
    "***** Example *****\nQuery: q\nPlan: p\n***** Example Ends *****\n\n",
)


def test_repair_happy_path():
    gw = make_recording_gateway(entry(["You are a template replacer"], REPAIRED_TEXT))
    result = repair_placeholders(
        CANDIDATE_WITH_STUB, ORIGINAL, gateway=gw, model="agent"
    )
    assert result == REPAIRED_TEXT
    assert gw.calls == 1
    request, _ = gw.history[0]
    user = request.messages[1].content
    assert ORIGINAL_TEXT in user
    assert CANDIDATE_WITH_STUB in user


def test_repair_retries_until_clean():
    still_stubbed = CANDIDATE_WITH_STUB
    gw = make_gateway(
        entry(
            ["You are a template replacer"],
            still_stubbed,
            excludes=["placeholder replaced by the matching text"],
        ),
        entry(
            ["You are a template replacer", "placeholder or dropped part"],
            REPAIRED_TEXT,
        ),
    )
    result = repair_placeholders(
        CANDIDATE_WITH_STUB, ORIGINAL, gateway=gw, model="agent"
    )
    assert result == REPAIRED_TEXT
    assert gw.calls == 2


def test_repair_rejects_dropped_examples():
    # Output has no placeholders but silently loses the examples block.
    clean_but_lossy = CANDIDATE_WITH_STUB.replace(
        "<Examples from the original prompt>\n\n", ""
    )
    gw = make_gateway(
        entry(["You are a template replacer"], clean_but_lossy, max_uses=3)
    )
    with pytest.raises(RepairFailedError):
        repair_placeholders(CANDIDATE_WITH_STUB, ORIGINAL, gateway=gw, model="agent")
    assert gw.calls == 3


def test_repair_attempt_budget_is_configurable():
    gw = make_gateway(
        entry(["You are a template replacer"], CANDIDATE_WITH_STUB, max_uses=5)
    )
    with pytest.raises(RepairFailedError):
        repair_placeholders(
            CANDIDATE_WITH_STUB, ORIGINAL, gateway=gw, model="agent", attempts=2
        )
    assert gw.calls == 2


# --- review pipeline -----------------------------------------------------------------


def test_review_accepts_clean_candidate():
    candidate = with_steps("1. Read the query.\n2. Check the budget first.\n")
    report, parsed = review_candidate(ORIGINAL, candidate)
    assert report.verdict is Verdict.ACCEPTED
    assert parsed is not None
    assert report.repaired_prompt is None


def test_review_repairs_placeholder_candidate():
    gw = make_gateway(entry(["You are a template replacer"], REPAIRED_TEXT))
    report, parsed = review_candidate(
        ORIGINAL, CANDIDATE_WITH_STUB, gateway=gw, repair_model="agent"
    )
    assert report.verdict is Verdict.REPAIRED
    assert report.repaired_prompt == REPAIRED_TEXT
    assert parsed is not None


def test_review_rejects_placeholders_without_gateway():
    report, parsed = review_candidate(ORIGINAL, CANDIDATE_WITH_STUB)
    assert report.verdict is Verdict.REJECTED
    assert parsed is None
    assert report.violations[0].kind is ViolationKind.PLACEHOLDER_FOUND


def test_review_rejects_failed_repair():
    gw = make_gateway(
        entry(["You are a template replacer"], CANDIDATE_WITH_STUB, max_uses=9)
    )
    report, parsed = review_candidate(
        ORIGINAL, CANDIDATE_WITH_STUB, gateway=gw, repair_model="agent"
    )
    assert report.verdict is Verdict.REJECTED
    assert parsed is None


def test_review_rejects_mutated_examples():
    candidate = ORIGINAL_TEXT.replace("Plan: p\n", "Plan: shortened\n")
    report, parsed = review_candidate(ORIGINAL, candidate)
    assert report.verdict is Verdict.REJECTED
    assert parsed is None
    assert report.violations[0].kind is ViolationKind.EXAMPLES_MUTATED


def test_review_enforces_required_tokens():
    candidate = ORIGINAL_TEXT.replace("Here is the task:", "Here is the task, team:")
    report, parsed = review_candidate(
        ORIGINAL, candidate, required_tokens=("never present",)
    )
    assert report.verdict is Verdict.REJECTED
    assert report.violations[0].kind is ViolationKind.REQUIRED_TOKEN_MISSING


def test_review_honors_extra_patterns():
    candidate = with_steps("1. Read.\n2. [[steps continue as before]]\n")
    cfg = GuardConfig(extra_placeholder_patterns=(r"\[\[.*?\]\]",))
    report, parsed = review_candidate(ORIGINAL, candidate, guard_config=cfg)
    assert report.verdict is Verdict.REJECTED
    assert parsed is None


def test_repaired_verdict_requires_text():
    with pytest.raises(ValueError):
        GuardReport(Verdict.REPAIRED)
