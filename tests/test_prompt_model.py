from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprompt.errors import (
    EmptyPromptError,
    OverlappingMarkersError,
    SlotMissingError,
)
from reprompt.prompt_model import (
    DEFAULT_SEGMENTATION,
    DiffStatus,
    SegmentKind,
    SegmentationConfig,
    StepEdit,
    StepEditOp,
    classify_placement,
    classify_step_edits,
    diff_prompts,
    fill_slots,
    has_step_instructions,
    inject_default_steps,
    parse_prompt,
    render_prompt,
    slot_names,
    steps_from_text,
)
from reprompt.prompts import DEFAULT_STEP_INSTRUCTIONS

from conftest import PROMPT_FIXTURES, TOY_SEG


def kinds(doc):
    return [s.kind for s in doc.segments]


# --- round trip -----------------------------------------------------------


def assert_round_trips(raw):
    """Parsing keeps every byte, in non-empty segments with at most one
    step block: the shape every later stage relies on."""
    doc = parse_prompt(raw)
    assert render_prompt(doc) == raw
    assert doc.segments and all(s.text for s in doc.segments)
    assert kinds(doc).count(SegmentKind.STEP_INSTRUCTIONS) <= 1


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PROMPT_FIXTURES.glob("*.txt"))
)
def test_fixture_corpus_round_trips(name):
    assert_round_trips((PROMPT_FIXTURES / name).read_text(encoding="utf-8"))


@given(st.text(min_size=1, max_size=400))
@settings(max_examples=300)
def test_round_trip_on_arbitrary_text(raw):
    assert_round_trips(raw)


_marker_lines = st.sampled_from(
    [
        "***** Example *****\n",
        "***** Example Ends *****\n",
        "Here is one example:\n",
        "Here is the task:\n",
        "Given information: x\n",
        "Please work step by step:\n",
        "1. do the first thing\n",
        "2. do the second thing\n",
        "3. do the third thing\n",
        "   continuation line\n",
        "- a bullet\n",
        "\n",
        "plain prose line\n",
        "{slot} text\n",
    ]
)


@given(st.lists(_marker_lines, min_size=1, max_size=30))
@settings(max_examples=300)
def test_round_trip_on_marker_collages(lines):
    raw = "".join(lines)
    if not raw:
        raw = "x"
    assert_round_trips(raw)


def test_empty_prompt_rejected():
    with pytest.raises(EmptyPromptError):
        parse_prompt("")


# --- segmentation ------------------------------------------------------------


def test_full_layout_segments(toy_seg):
    raw = (
        "Intro paragraph.\n\n"
        "Please solve the task step by step:\n"
        "1. First step.\n"
        "2. Second step.\n\n"
        "***** Example *****\ncontent\n***** Example Ends *****\n\n"
        "Your final answer must be one line.\n\n"
        "Here is the task:\n{task}\n"
    )
    doc = parse_prompt(raw, toy_seg)
    assert kinds(doc) == [
        SegmentKind.PREAMBLE,
        SegmentKind.STEP_INSTRUCTIONS,
        SegmentKind.EXAMPLES,
        SegmentKind.FORMAT_REQUIREMENTS,
        SegmentKind.TASK_SLOT,
    ]
    assert render_prompt(doc) == raw


def test_examples_close_is_implicit_before_task():
    raw = (
        "Intro.\n\n"
        "Here is one example:\nGoal: g\nAnswer: a\n\n"
        "Here is the task:\n{goal}\n"
    )
    doc = parse_prompt(raw)
    assert kinds(doc) == [
        SegmentKind.PREAMBLE,
        SegmentKind.EXAMPLES,
        SegmentKind.TASK_SLOT,
    ]
    # The blank gap after the example belongs to the examples segment.
    assert doc.segments[1].text.endswith("Answer: a\n\n")
    assert doc.segments[2].text == "Here is the task:\n{goal}\n"


def test_task_segment_runs_to_end_of_file():
    raw = "Given information: {info}\nQuery: {q}\ntrailing\nlines\n"
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.TASK_SLOT]
    assert doc.segments[0].text == raw


def test_numbered_block_must_start_at_one():
    raw = "Intro.\n2. not a first step\n3. nor this\n"
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.PREAMBLE]


def test_close_marker_line_does_not_open_a_step_block():
    # A line numbered 1. that is a boundary (here an examples close marker)
    # is no first step, so the numbered items after it open no block.
    raw = "Intro\n1. End of examples\n2. next\n"
    doc = parse_prompt(raw, SegmentationConfig(examples_close=("1. End",)))
    assert kinds(doc) == [SegmentKind.PREAMBLE]
    assert render_prompt(doc) == raw


def test_numbering_gap_ends_the_block():
    raw = "1. one\n2. two\n4. four\n"
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.STEP_INSTRUCTIONS, SegmentKind.PREAMBLE]
    assert doc.segments[0].text == "1. one\n2. two\n"
    assert render_prompt(doc) == raw


def test_only_first_step_block_is_detected():
    raw = "1. alpha\n2. beta\n\nInterlude.\n\n1. gamma\n2. delta\n"
    doc = parse_prompt(raw)
    assert kinds(doc).count(SegmentKind.STEP_INSTRUCTIONS) == 1
    assert doc.segments[0].kind is SegmentKind.STEP_INSTRUCTIONS
    assert render_prompt(doc) == raw


def test_introducer_block_covers_following_numbered_items():
    raw = (
        "Work one by one:\n"
        "1. first\n"
        "2. second\n\n"
        "Tail prose.\n"
    )
    doc = parse_prompt(raw)
    assert doc.segments[0].kind is SegmentKind.STEP_INSTRUCTIONS
    assert doc.segments[0].text == "Work one by one:\n1. first\n2. second\n\n"
    assert doc.segments[1].text == "Tail prose.\n"


def test_continuation_after_blank_gap():
    raw = (
        "1. draft the schedule.\n\n"
        "   - keep meals distinct\n"
        "   - change lodging with the city\n"
        "2. check the budget.\n"
    )
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.STEP_INSTRUCTIONS]
    steps = steps_from_text(doc.segments[0].text)
    assert len(steps) == 2
    assert "change lodging" in steps[0]


def test_blank_line_between_items_keeps_one_block():
    doc = parse_prompt("1. alpha\n\n2. beta\n\nTail prose.\n")
    assert kinds(doc) == [SegmentKind.STEP_INSTRUCTIONS, SegmentKind.PREAMBLE]
    assert doc.segments[0].text == "1. alpha\n\n2. beta\n\n"
    assert steps_from_text(doc.segments[0].text) == ("alpha", "beta")


def test_lettered_subitems_attach_to_their_step():
    doc = parse_prompt((PROMPT_FIXTURES / "travel_v5.txt").read_text())
    (block,) = [s for s in doc.segments if s.kind is SegmentKind.STEP_INSTRUCTIONS]
    steps = steps_from_text(block.text)
    assert len(steps) == 5
    assert "a. total budget," in steps[0]
    assert "Keep breakfast" in steps[2]


def test_step_block_stops_at_examples_marker():
    raw = "1. one\n2. two\n***** Example *****\nbody\n***** Example Ends *****\n"
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.STEP_INSTRUCTIONS, SegmentKind.EXAMPLES]
    assert doc.segments[0].text == "1. one\n2. two\n"


def test_overlapping_markers_rejected():
    cfg = DEFAULT_SEGMENTATION._replace(
        examples_open=("Section:",),
        task_open=("Section:",),
    )
    with pytest.raises(OverlappingMarkersError):
        parse_prompt("Section: both\n", cfg)


def test_format_section_with_close_marker():
    cfg = DEFAULT_SEGMENTATION._replace(
        format_open=("=== Format ===",),
        format_close=("=== End Format ===",),
    )
    raw = (
        "Intro.\n\n=== Format ===\nline one\n\nline two\n=== End Format ===\n\n"
        "Here is the task:\n{t}\n"
    )
    doc = parse_prompt(raw, cfg)
    assert kinds(doc) == [
        SegmentKind.PREAMBLE,
        SegmentKind.FORMAT_REQUIREMENTS,
        SegmentKind.TASK_SLOT,
    ]
    assert doc.segments[1].text.startswith("=== Format ===")
    assert doc.segments[1].text.endswith("=== End Format ===\n\n")


@pytest.mark.parametrize("close, raw, format_text", [
    ((), "Intro.\n\nFormat: PLAN:\nDay k: <id>\n\nHere is the task:\n{t}\n",
     "Format: PLAN:\nDay k: <id>\n\n"),
    (("=== End Format ===",), "Intro.\n\nFormat: PLAN:\nline one\nHere is the task:\n{t}\n",
     "Format: PLAN:\nline one\n"),
], ids=["paragraph-without-close-marker", "boundary-before-close-marker"])
def test_format_section_ends_at_its_paragraph_or_the_next_boundary(close, raw, format_text):
    cfg = DEFAULT_SEGMENTATION._replace(format_open=("Format:",), format_close=close)
    doc = parse_prompt(raw, cfg)
    assert kinds(doc) == [
        SegmentKind.PREAMBLE,
        SegmentKind.FORMAT_REQUIREMENTS,
        SegmentKind.TASK_SLOT,
    ]
    assert doc.segments[1].text == format_text


# --- document invariants -------------------------------------------------------


def test_document_needs_a_segment():
    # Text of blank lines is still one segment, never an empty document.
    doc = parse_prompt("\n \n")
    assert kinds(doc) == [SegmentKind.PREAMBLE]
    assert render_prompt(doc) == "\n \n"


def test_at_most_one_step_segment():
    # Once a numbered block is taken, a later introducer starts no second one.
    raw = "1. a\n2. b\n\nPlease solve the task step by step:\n1. c\n"
    doc = parse_prompt(raw)
    assert kinds(doc) == [SegmentKind.STEP_INSTRUCTIONS, SegmentKind.PREAMBLE]
    assert render_prompt(doc) == raw


# --- default step injection ------------------------------------------------------


def test_inject_before_examples_and_reparse():
    raw = (
        "Intro.\n\n"
        "***** Example *****\nx\n***** Example Ends *****\n\n"
        "Here is the task:\n{t}\n"
    )
    doc = inject_default_steps(parse_prompt(raw))
    assert kinds(doc)[1] is SegmentKind.STEP_INSTRUCTIONS
    rendered = render_prompt(doc)
    again = parse_prompt(rendered)
    assert has_step_instructions(again)
    assert render_prompt(again) == rendered
    # Non-step segments are carried over byte for byte.
    assert "Intro.\n\n" in rendered
    assert rendered.count("***** Example *****") == 1


def test_inject_at_end_without_examples():
    doc = inject_default_steps(parse_prompt("Just a preamble.\n"))
    assert kinds(doc) == [SegmentKind.PREAMBLE, SegmentKind.STEP_INSTRUCTIONS]
    assert render_prompt(doc).endswith(DEFAULT_STEP_INSTRUCTIONS)


@pytest.mark.parametrize(
    "tail,separator",
    [("Intro.\n\n", ""), ("Intro.\n", "\n"), ("Intro.", "\n\n")],
)
def test_inject_separator_variants(tail, separator):
    doc = inject_default_steps(parse_prompt(tail))
    steps = [s for s in doc.segments if s.kind is SegmentKind.STEP_INSTRUCTIONS][0]
    assert steps.text == separator + DEFAULT_STEP_INSTRUCTIONS


def test_inject_leaves_structured_prompt_unchanged():
    doc = parse_prompt("1. already has steps\n2. indeed\n")
    assert inject_default_steps(doc) == doc


# --- step lists ----------------------------------------------------------------


def test_steps_from_text_strips_numbering():
    steps = steps_from_text("Header one by one:\n1. alpha\n2. beta gamma\n")
    assert steps == ("alpha", "beta gamma")


def test_bare_item_is_an_empty_step():
    assert steps_from_text("1. alpha\n2.\n3. beta\n") == ("alpha", "", "beta")


def test_text_without_items_has_no_steps():
    assert steps_from_text("Think it through step by step.\n") == ()


# --- step edit classification -----------------------------------------------------


def test_classify_identical():
    assert classify_step_edits(("a", "b"), ("a", "b")) is None


def test_classify_append():
    edit = classify_step_edits(("a", "b"), ("a", "b", "c"))
    assert not edit.multi_edit
    assert str(edit) == "AppendStep"


def test_classify_insert_middle():
    edit = classify_step_edits(("a", "b"), ("a", "x", "b"))
    assert not edit.multi_edit
    assert edit == StepEdit(StepEditOp.INSERT_BEFORE, 2)
    assert str(edit) == "InsertBefore(2)"


def test_classify_insert_front():
    edit = classify_step_edits(("a", "b"), ("x", "a", "b"))
    assert edit == StepEdit(StepEditOp.INSERT_BEFORE, 1)


def test_classify_single_replace():
    edit = classify_step_edits(("a", "b", "c"), ("a", "x", "c"))
    assert not edit.multi_edit
    assert edit == StepEdit(StepEditOp.REPLACE_STEP, 2)


def test_classify_multi_edit_collapses():
    edit = classify_step_edits(("a", "b"), ("x", "y", "z"))
    assert edit.multi_edit
    assert edit == StepEdit(StepEditOp.REPLACE_STEP, None)
    assert str(edit) == "ReplaceStep(*) [multi-edit]"


# --- diff ------------------------------------------------------------------------


def test_diff_identical_iff_rendered_equal():
    raw = "Intro.\n\n1. a\n2. b\n\nHere is the task:\n{t}\n"
    a = parse_prompt(raw)
    b = parse_prompt(raw)
    statuses = {e.status for e in diff_prompts(a, b).entries}
    assert statuses == {DiffStatus.IDENTICAL}


def test_diff_flags_only_modified_step_segment():
    old = parse_prompt("Intro.\n\n1. a\n2. b\n\nHere is the task:\n{t}\n")
    new = parse_prompt("Intro.\n\n1. a\n2. c\n\nHere is the task:\n{t}\n")
    diff = diff_prompts(old, new)
    changed = [e for e in diff.entries if e.status is not DiffStatus.IDENTICAL]
    assert len(changed) == 1
    entry = changed[0]
    assert entry.status is DiffStatus.MODIFIED
    assert entry.kind is SegmentKind.STEP_INSTRUCTIONS
    assert entry.step_edit == StepEdit(StepEditOp.REPLACE_STEP, 2)


def test_diff_reports_added_and_removed():
    old = parse_prompt("Intro.\n\nHere is the task:\n{t}\n")
    new = parse_prompt(
        "Intro.\n\n***** Example *****\nx\n***** Example Ends *****\n\n"
        "Here is the task:\n{t}\n"
    )
    diff = diff_prompts(old, new)
    added = [e for e in diff.entries if e.status is DiffStatus.ADDED]
    assert [e.kind for e in added] == [SegmentKind.EXAMPLES]
    back = diff_prompts(new, old)
    removed = [e for e in back.entries if e.status is DiffStatus.REMOVED]
    assert [e.kind for e in removed] == [SegmentKind.EXAMPLES]


def test_diff_str_is_printable():
    old = parse_prompt("1. a\n2. b\n")
    new = parse_prompt("1. a\n2. b\n3. c\n")
    text = str(diff_prompts(old, new))
    assert "step_instructions" in text
    assert "AppendStep" in text


@pytest.mark.parametrize("new_steps, label", [
    ("1. x\n2. y\n3. z\n", "ReplaceStep(*) [multi-edit]"),
    ("1. a\n2.\n3. b\n", "InsertBefore(2)"),
], ids=["whole-block", "bare-item"])
def test_diff_prints_the_step_edit_label(new_steps, label):
    old = parse_prompt("Intro.\n\n1. a\n2. b\n")
    text = str(diff_prompts(old, parse_prompt("Intro.\n\n" + new_steps)))
    assert text.endswith(f"step_instructions    modified: {label}")


# --- placement -------------------------------------------------------------------

PLAN_TEXT = (
    "Plan the trip.\n\n"
    "1. Read the query.\n"
    "2. Draft the plan.\n\n"
    "***** Example *****\n"
    "Query: q\nPlan: p\n"
    "***** Example Ends *****\n\n"
    "Here is the task:\n{query}\n"
)
PLAN = parse_prompt(PLAN_TEXT)


def test_classify_placement_insert():
    inserted = PLAN_TEXT.replace(
        "2. Draft the plan.\n",
        "2. Check the budget against the total cost.\n3. Draft the plan.\n",
    )
    placement = classify_placement(PLAN, parse_prompt(inserted))
    assert placement.op is StepEditOp.INSERT_BEFORE
    assert placement.index == 2
    assert not placement.multi_edit
    assert str(placement) == "InsertBefore(2)"


def test_classify_placement_append():
    appended = PLAN_TEXT.replace(
        "2. Draft the plan.\n", "2. Draft the plan.\n3. Double-check the output.\n"
    )
    placement = classify_placement(PLAN, parse_prompt(appended))
    assert placement.op is StepEditOp.APPEND_STEP
    assert str(placement) == "AppendStep"


def test_classify_placement_coarse():
    rewritten = PLAN_TEXT.replace(
        "1. Read the query.\n2. Draft the plan.\n",
        "1. Restate the constraints.\n2. List the options.\n3. Pick one.\n",
    )
    placement = classify_placement(PLAN, parse_prompt(rewritten))
    assert placement.op is StepEditOp.REPLACE_STEP
    assert placement.index is None
    assert placement.multi_edit
    assert str(placement) == "ReplaceStep(*) [multi-edit]"


def test_classify_placement_with_equal_steps_is_whole_block():
    spaced = PLAN_TEXT.replace("2. Draft the plan.\n\n", "2. Draft the plan.\n\n\n")
    assert classify_placement(PLAN, parse_prompt(spaced)) == StepEdit(
        StepEditOp.REPLACE_STEP
    )
    assert classify_placement(PLAN, parse_prompt(PLAN_TEXT)) is None


# --- slots -----------------------------------------------------------------------


def test_slot_names_come_from_task_segment_only():
    raw = "Use {braces} freely.\n\nHere is the task:\nA: {alpha}\nB: {beta}\n"
    doc = parse_prompt(raw)
    assert slot_names(doc) == {"alpha", "beta"}


def test_fill_slots_substitutes_and_preserves_other_braces():
    raw = "Literal {braces} stay.\n\nHere is the task:\nValue: {v}\n"
    doc = parse_prompt(raw)
    filled = fill_slots(doc, {"v": "42", "unused": "x"})
    assert "Value: 42" in filled
    assert "Literal {braces} stay." in filled


def test_fill_slots_missing_value():
    doc = parse_prompt("Here is the task:\n{a} and {b}\n")
    with pytest.raises(SlotMissingError) as err:
        fill_slots(doc, {"a": "1"})
    assert err.value.missing == {"b"}
