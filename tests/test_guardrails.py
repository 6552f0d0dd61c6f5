import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprompt.errors import RejectedError, StageCallError
from reprompt.gateway import Caller
from reprompt.guardrails import (
    GuardConfig,
    GuardReport,
    Verdict,
    Violation,
    ViolationKind,
    compile_placeholder_patterns,
    detect_placeholders,
    repair_placeholders,
    review_candidate,
    verify_protected,
    verify_required_tokens,
)
from reprompt.prompt_model import (
    DEFAULT_SEGMENTATION,
    DiffStatus,
    SegmentKind,
    diff_prompts,
    parse_prompt,
    render_prompt,
)

from conftest import (
    PROMPT_FIXTURES,
    TOY_SEG,
    entry,
    make_caller,
    make_gateway,
    make_recording_gateway,
)

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
DEFAULT_PATTERNS = compile_placeholder_patterns(())


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
    assert detect_placeholders(text, DEFAULT_PATTERNS)


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
    assert detect_placeholders(text, DEFAULT_PATTERNS) == []


def test_spans_are_ordered_and_positioned():
    text = "a ⟨one⟩ then <Examples here> end"
    spans = detect_placeholders(text, DEFAULT_PATTERNS)
    assert [m.group(0) for m in spans] == ["⟨one⟩", "<Examples here>"]
    assert text[spans[0].start() : spans[0].end()] == "⟨one⟩"


def test_extra_patterns_extend_the_defaults():
    patterns = compile_placeholder_patterns((r"\[\[.*?\]\]",))
    spans = detect_placeholders("keep [[the rest]] intact", patterns)
    assert [m.group(0) for m in spans] == ["[[the rest]]"]
    # Defaults still apply alongside the extras.
    assert detect_placeholders("⟨x⟩", patterns)


def test_fixture_with_placeholders_is_caught():
    text = (PROMPT_FIXTURES / "planner_rewrite_with_placeholder.txt").read_text()
    spans = detect_placeholders(text, DEFAULT_PATTERNS)
    assert len(spans) >= 2


# --- protected segment verification ------------------------------------------------


def test_identical_examples_accepted():
    new = parse_prompt(with_steps("1. Read the query.\n2. Check the budget.\n"))
    assert verify_protected(ORIGINAL, new) == ()


def test_mutated_example_rejected_with_char_range():
    new = parse_prompt(ORIGINAL_TEXT.replace("Plan: p\n", "Plan: different\n"))
    assert verify_protected(ORIGINAL, new) == (
        Violation(
            ViolationKind.SEGMENT_MUTATED,
            "examples segment 1 mutated at chars 35..36",
        ),
    )


def test_dropped_example_rejected_as_missing():
    new = parse_prompt("Plan the trip.\n\n1. Read the query.\n\nHere is the task:\n{query}\n")
    assert verify_protected(ORIGINAL, new) == (
        Violation(
            ViolationKind.SEGMENT_MUTATED,
            "segment layout changed from "
            "[preamble, step_instructions, examples, task_slot] "
            "to [preamble, step_instructions, task_slot]",
        ),
    )


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
    assert verify_protected(old, parse_prompt(base)) == ()
    assert verify_protected(old, parse_prompt(swapped))


def test_only_the_step_block_may_change():
    new = parse_prompt(ORIGINAL_TEXT.replace("Plan the trip.", "Plan the journey."))
    assert verify_protected(ORIGINAL, new) == (
        Violation(
            ViolationKind.SEGMENT_MUTATED, "preamble segment 1 mutated at chars 9..13"
        ),
    )
    step_only = parse_prompt(with_steps("1. Restate the query.\n2. Draft the plan.\n"))
    assert verify_protected(ORIGINAL, step_only) == ()


# One text per segment: preamble, steps, examples, preamble, examples,
# format, task slot.
SEGMENT_TEXTS = (
    "Plan the trip.\n\n",
    "1. Read the query.\n2. Draft the plan.\n\n",
    "***** Example *****\nQuery: q\nPlan: p\n***** Example Ends *****\n\n",
    "Mind the budget.\n\n",
    "***** Example *****\nQuery: r\nPlan: s\n***** Example Ends *****\n\n",
    "Your final answer is one line per day.\n\n",
    "Here is the task:\n{query}\n",
)
STRUCTURED = parse_prompt("".join(SEGMENT_TEXTS), TOY_SEG)

_index = st.integers(0, len(SEGMENT_TEXTS) * 2)
_insert = st.sampled_from(["x", "\n", "3. Check the budget.\n", "step by step", " "])
_segment_edits = st.one_of(
    st.tuples(st.just("edit"), _index, _index, _insert),
    st.tuples(st.just("edit steps"), _index, _insert),
    st.tuples(st.just("drop"), _index),
    st.tuples(st.just("duplicate"), _index),
    st.tuples(st.just("swap"), _index, _index),
    st.tuples(st.just("move steps"), _index),
)


def apply_segment_edit(segments, op):
    """Apply one edit to a list of segments, indices taken modulo its length."""
    name, i, *rest = op
    kinds = [s.kind for s in segments]
    steps = None
    if SegmentKind.STEP_INSTRUCTIONS in kinds:
        steps = kinds.index(SegmentKind.STEP_INSTRUCTIONS)
    if name == "edit steps":
        if steps is None:
            return
        name, i, rest = "edit", steps, [i, *rest]
    i %= len(segments)
    if name == "edit":
        text = segments[i].text
        at = rest[0] % (len(text) + 1)
        segments[i] = segments[i]._replace(text=text[:at] + rest[1] + text[at:])
    elif name == "drop":
        del segments[i]
    elif name == "duplicate":
        segments.insert(i, segments[i])
    elif name == "swap":
        j = rest[0] % len(segments)
        segments[i], segments[j] = segments[j], segments[i]
    elif steps is not None:
        segments.insert(i, segments.pop(steps))


def test_structured_prompt_has_every_segment_kind():
    assert [s.text for s in STRUCTURED.segments] == list(SEGMENT_TEXTS)
    assert {s.kind for s in STRUCTURED.segments} == set(SegmentKind)


@given(st.lists(_segment_edits, min_size=1, max_size=4))
@settings(max_examples=300)
def test_only_an_in_place_step_edit_passes(ops):
    segments = list(STRUCTURED.segments)
    for op in ops:
        if segments:
            apply_segment_edit(segments, op)
    if not segments:
        return
    new = parse_prompt("".join(s.text for s in segments), TOY_SEG)
    violations = verify_protected(STRUCTURED, new)
    step_only = all(
        entry.status is DiffStatus.IDENTICAL
        or (
            entry.status is DiffStatus.MODIFIED
            and entry.kind is SegmentKind.STEP_INSTRUCTIONS
        )
        for entry in diff_prompts(STRUCTURED, new).entries
    )
    assert (violations == ()) == step_only
    assert len(violations) <= 1


# --- required tokens ------------------------------------------------------------------


def test_required_tokens_present():
    assert verify_required_tokens(ORIGINAL, ("Plan the trip.", "{query}")) == ()


def test_required_token_case_sensitivity():
    violations = verify_required_tokens(ORIGINAL, ("PLAN THE TRIP.",))
    assert violations
    assert violations[0].kind is ViolationKind.REQUIRED_TOKEN_MISSING
    assert "case-sensitive" in violations[0].detail


def test_each_missing_token_is_reported():
    violations = verify_required_tokens(ORIGINAL, ("absent one", "absent two"))
    assert len(violations) == 2


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
        CANDIDATE_WITH_STUB, ORIGINAL, caller=make_caller(gw),
        patterns=DEFAULT_PATTERNS, attempts=3,
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
        CANDIDATE_WITH_STUB, ORIGINAL, caller=make_caller(gw),
        patterns=DEFAULT_PATTERNS, attempts=3,
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
    result = repair_placeholders(
        CANDIDATE_WITH_STUB, ORIGINAL, caller=make_caller(gw),
        patterns=DEFAULT_PATTERNS, attempts=3,
    )
    assert result is None
    assert gw.calls == 3


def test_repair_attempt_budget_is_configurable():
    gw = make_gateway(
        entry(["You are a template replacer"], CANDIDATE_WITH_STUB, max_uses=5)
    )
    result = repair_placeholders(
        CANDIDATE_WITH_STUB, ORIGINAL, caller=make_caller(gw),
        patterns=DEFAULT_PATTERNS, attempts=2,
    )
    assert result is None
    assert gw.calls == 2


# --- review pipeline -----------------------------------------------------------------

# A repair caller with an empty script: a call through it raises, so a review
# given it shows that its candidate was never sent for repair.
NO_REPAIR = make_caller(make_gateway())


def test_review_accepts_clean_candidate():
    candidate = with_steps("1. Read the query.\n2. Check the budget first.\n")
    report, parsed = review_candidate(
        ORIGINAL, candidate, seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(), repair=NO_REPAIR
    )
    assert report.verdict is Verdict.ACCEPTED
    assert parsed is not None


def test_review_repairs_placeholder_candidate():
    gw = make_gateway(entry(["You are a template replacer"], REPAIRED_TEXT))
    report, parsed = review_candidate(
        ORIGINAL, CANDIDATE_WITH_STUB, seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(),
        repair=make_caller(gw),
    )
    assert report.verdict is Verdict.REPAIRED
    assert render_prompt(parsed) == REPAIRED_TEXT


def test_review_rejects_placeholders_without_gateway():
    # No gateway answers the repair call: the stub is never passed on, the
    # review fails with the repair stage's error after one call.
    gw = make_gateway()
    with pytest.raises(StageCallError) as info:
        review_candidate(
            ORIGINAL, CANDIDATE_WITH_STUB, seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(),
            repair=Caller(gw, "agent", 0.0, 42, stage="repair"),
        )
    assert info.value.stage == "repair"
    assert isinstance(info.value.cause, RejectedError)
    assert gw.calls == 1


def test_review_rejects_failed_repair():
    gw = make_gateway(
        entry(["You are a template replacer"], CANDIDATE_WITH_STUB, max_uses=9)
    )
    report, parsed = review_candidate(
        ORIGINAL, CANDIDATE_WITH_STUB, seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(),
        repair=make_caller(gw),
    )
    assert report.verdict is Verdict.REJECTED
    assert parsed is None
    assert report.violations[0].kind is ViolationKind.PLACEHOLDER_FOUND
    assert gw.calls == 3


def test_review_rejects_empty_candidate():
    report, parsed = review_candidate(
        ORIGINAL, "", seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(), repair=NO_REPAIR
    )
    assert parsed is None
    assert report == GuardReport(
        Verdict.REJECTED,
        (Violation(ViolationKind.PLACEHOLDER_FOUND, "candidate prompt is empty"),),
    )


def test_review_rejects_mutated_examples():
    candidate = ORIGINAL_TEXT.replace("Plan: p\n", "Plan: shortened\n")
    report, parsed = review_candidate(
        ORIGINAL, candidate, seg_config=DEFAULT_SEGMENTATION, required_tokens=(), guard_config=GuardConfig(), repair=NO_REPAIR
    )
    assert parsed is None
    assert report == GuardReport(
        Verdict.REJECTED,
        (
            Violation(
                ViolationKind.SEGMENT_MUTATED,
                "examples segment 1 mutated at chars 35..36",
            ),
        ),
    )


def test_review_enforces_required_tokens():
    candidate = with_steps("1. Read the query, team.\n2. Draft the plan.\n")
    report, parsed = review_candidate(
        ORIGINAL, candidate, seg_config=DEFAULT_SEGMENTATION,
        required_tokens=("never present",), guard_config=GuardConfig(), repair=NO_REPAIR,
    )
    assert report.verdict is Verdict.REJECTED
    assert report.violations[0].kind is ViolationKind.REQUIRED_TOKEN_MISSING


def test_review_honors_extra_patterns():
    candidate = with_steps("1. Read.\n2. [[steps continue as before]]\n")
    cfg = GuardConfig(extra_placeholder_patterns=(r"\[\[.*?\]\]",))
    # The repair keeps the stub, so the candidate stays rejected.
    gw = make_gateway(entry(["You are a template replacer"], candidate, max_uses=9))
    report, parsed = review_candidate(
        ORIGINAL, candidate, seg_config=DEFAULT_SEGMENTATION, required_tokens=(),
        guard_config=cfg, repair=make_caller(gw),
    )
    assert report.verdict is Verdict.REJECTED
    assert parsed is None
    assert gw.calls == 3
