"""Prompt representation: ordered segments with byte-lossless parse and render.

A prompt is modeled as a sequence of typed segments (preamble, step
instructions, examples, format requirements, task slot). Parsing assigns
every byte of the source text to exactly one segment, so rendering the
document always reproduces the original text unchanged. The optimizer and
the guardrails rely on that property to compare segments byte for byte.
The steps are the step segment's numbered items, a tuple of strings.
"""
from __future__ import annotations

import difflib
import re
from enum import Enum
from typing import NamedTuple

from .errors import (
    EmptyPromptError,
    OverlappingMarkersError,
    SlotMissingError,
)
from .prompts import DEFAULT_STEP_INSTRUCTIONS


class SegmentKind(Enum):
    PREAMBLE = "preamble"
    STEP_INSTRUCTIONS = "step_instructions"
    EXAMPLES = "examples"
    FORMAT_REQUIREMENTS = "format_requirements"
    TASK_SLOT = "task_slot"


class PromptSegment(NamedTuple):
    """One contiguous span of prompt text."""

    kind: SegmentKind
    text: str


class PromptDocument(NamedTuple):
    """An ordered segment sequence plus its version number; version n is
    the child of version n - 1."""

    segments: tuple[PromptSegment, ...]
    version: int = 0


class SegmentationConfig(NamedTuple):
    """Boundary patterns used to split raw prompt text into segments.

    All patterns match when a line, stripped of surrounding whitespace,
    starts with the pattern text. Step blocks are found heuristically:
    either a run of lines numbered from 1, or a block introduced by a line
    containing one of the ``step_introducers`` phrases.
    """

    examples_open: tuple[str, ...] = (
        "***** Example *****",
        "Here are two examples",
        "Here is one example",
    )
    examples_close: tuple[str, ...] = ("***** Example Ends *****",)
    task_open: tuple[str, ...] = ("Here is the task", "Given information:")
    format_open: tuple[str, ...] = ()
    format_close: tuple[str, ...] = ()
    step_introducers: tuple[str, ...] = ("step by step", "one by one")


DEFAULT_SEGMENTATION = SegmentationConfig()

_ITEM_RE = re.compile(r"^\s{0,3}(\d+)[.)]\s")
# Lines that continue a numbered item across a blank gap: indented text,
# dash or bullet lists, and lettered sub-items such as "a. ...".
_CONT_RE = re.compile(r"^(?:\s+\S|[-*•]\s|[a-z][.)]\s)")

_BOUNDARY_FIELDS = (
    "examples_open", "examples_close", "task_open", "format_open", "format_close",
)


def _item_number(line: str) -> int | None:
    m = _ITEM_RE.match(line)
    return int(m.group(1)) if m else None


def _line_categories(line: str, config: SegmentationConfig) -> set[str]:
    stripped = line.strip()
    if not stripped:
        return set()
    # Each field is a tuple of markers, which str.startswith tests in one call.
    return {
        name for name in _BOUNDARY_FIELDS
        if stripped.startswith(getattr(config, name))
    }


def _scan_numbered(lines: list[str], start: int, is_boundary) -> int | None:
    """Return the exclusive end of a numbered block starting at ``start``.

    Items must be numbered 1, 2, ... with no renumbering gaps. Blank gaps
    are allowed between items and before bullet or indented continuation
    paragraphs. Returns None when ``start`` does not open a block.
    """
    n = len(lines)
    expected = 1
    i = start
    content_end = start
    while i < n and not is_boundary(i) and _item_number(lines[i]) == expected:
        expected += 1
        i += 1
        content_end = i
        while i < n:
            if is_boundary(i):
                break
            line = lines[i]
            if _item_number(line) is not None:
                break
            if not line.strip():
                k = i
                while k < n and not lines[k].strip():
                    k += 1
                if k < n and not is_boundary(k):
                    if _item_number(lines[k]) is None and _CONT_RE.match(lines[k]):
                        i = k
                        continue
                    if _item_number(lines[k]) == expected:
                        i = k
                break
            i += 1
            content_end = i
    if expected == 1:
        return None
    return content_end


def _scan_introducer(lines: list[str], start: int, is_boundary) -> int:
    """End of a step block opened by an introducer line.

    Covers the introducer's own paragraph plus a directly following
    numbered block, if any.
    """
    n = len(lines)
    i = start + 1
    while (
        i < n
        and lines[i].strip()
        and not is_boundary(i)
        and _item_number(lines[i]) is None
    ):
        i += 1
    content_end = i
    k = i
    while k < n and not lines[k].strip():
        k += 1
    if k < n and not is_boundary(k) and _item_number(lines[k]) == 1:
        numbered_end = _scan_numbered(lines, k, is_boundary)
        if numbered_end is not None:
            content_end = numbered_end
    return content_end


def parse_prompt(
    raw: str, config: SegmentationConfig | None = None
) -> PromptDocument:
    """Split raw prompt text into a segment document, losslessly.

    Raises EmptyPromptError for empty input and OverlappingMarkersError
    when one line matches two different boundary categories.
    """
    if raw == "":
        raise EmptyPromptError("cannot parse an empty prompt")
    cfg = config or DEFAULT_SEGMENTATION
    lines = raw.splitlines(keepends=True)
    n = len(lines)

    categories = [_line_categories(line, cfg) for line in lines]
    for idx, cats in enumerate(categories):
        if len(cats) > 1:
            raise OverlappingMarkersError(
                f"line {idx + 1} matches several boundary patterns: {sorted(cats)}"
            )

    def is_boundary(i: int) -> bool:
        return bool(categories[i])

    def absorb_blanks(i: int) -> int:
        while i < n and not lines[i].strip():
            i += 1
        return i

    regions: list[tuple[SegmentKind, int, int]] = []
    pre_start = 0

    def flush_preamble(upto: int) -> None:
        if pre_start < upto:
            regions.append((SegmentKind.PREAMBLE, pre_start, upto))

    step_seen = False
    i = 0
    while i < n:
        cats = categories[i]
        if "examples_open" in cats:
            flush_preamble(i)
            j = i + 1
            while j < n:
                if "task_open" in categories[j]:
                    break
                if "examples_close" in categories[j]:
                    j += 1
                    break
                j += 1
            j = absorb_blanks(j)
            regions.append((SegmentKind.EXAMPLES, i, j))
            i = pre_start = j
            continue
        if "task_open" in cats:
            flush_preamble(i)
            regions.append((SegmentKind.TASK_SLOT, i, n))
            i = pre_start = n
            continue
        if "format_open" in cats:
            flush_preamble(i)
            j = i + 1
            if cfg.format_close:
                while j < n and "format_close" not in categories[j]:
                    if categories[j]:
                        break
                    j += 1
                if j < n and "format_close" in categories[j]:
                    j += 1
            else:
                while j < n and lines[j].strip() and not categories[j]:
                    j += 1
            j = absorb_blanks(j)
            regions.append((SegmentKind.FORMAT_REQUIREMENTS, i, j))
            i = pre_start = j
            continue
        if not step_seen and _item_number(lines[i]) == 1:
            end = _scan_numbered(lines, i, is_boundary)
            if end is not None:
                flush_preamble(i)
                end = absorb_blanks(end)
                regions.append((SegmentKind.STEP_INSTRUCTIONS, i, end))
                i = pre_start = end
                step_seen = True
                continue
        if not step_seen and any(
            key in lines[i].lower() for key in cfg.step_introducers
        ):
            flush_preamble(i)
            end = absorb_blanks(_scan_introducer(lines, i, is_boundary))
            regions.append((SegmentKind.STEP_INSTRUCTIONS, i, end))
            i = pre_start = end
            step_seen = True
            continue
        i += 1
    flush_preamble(n)

    segments = tuple(
        PromptSegment(kind=kind, text="".join(lines[a:b])) for kind, a, b in regions
    )
    return PromptDocument(segments=segments)


def render_prompt(doc: PromptDocument) -> str:
    return "".join(segment.text for segment in doc.segments)


def has_step_instructions(doc: PromptDocument) -> bool:
    return any(s.kind is SegmentKind.STEP_INSTRUCTIONS for s in doc.segments)


def _separator_prefix(previous_text: str) -> str:
    if previous_text.endswith("\n\n"):
        return ""
    if previous_text.endswith("\n"):
        return "\n"
    return "\n\n"


def inject_default_steps(doc: PromptDocument) -> PromptDocument:
    """Insert the engine's two default steps into an unstructured prompt.

    The block goes immediately before the first examples segment, or at the
    end of the document when there are no examples. Every other segment is
    carried over byte-identical. A document that already has step
    instructions is returned unchanged.
    """
    if has_step_instructions(doc):
        return doc
    insert_at = len(doc.segments)
    for idx, segment in enumerate(doc.segments):
        if segment.kind is SegmentKind.EXAMPLES:
            insert_at = idx
            break
    prefix = ""
    if insert_at > 0:
        prefix = _separator_prefix(doc.segments[insert_at - 1].text)
    suffix = "\n" if insert_at < len(doc.segments) else ""
    block = PromptSegment(
        kind=SegmentKind.STEP_INSTRUCTIONS,
        text=prefix + DEFAULT_STEP_INSTRUCTIONS + suffix,
    )
    segments = doc.segments[:insert_at] + (block,) + doc.segments[insert_at:]
    return PromptDocument(segments=segments, version=doc.version)


# --- step lists -------------------------------------------------------------


def steps_from_text(text: str) -> tuple[str, ...]:
    """The numbered items of a step segment's text, in order.

    Introducer lines before the first item are not steps. Continuation
    lines attach to the preceding item. Item numbering prefixes are
    stripped and surrounding whitespace trimmed, so a bare ``2.`` line is
    the empty step ``""``.
    """
    collected: list[list[str]] = []
    expected = 1
    for line in text.splitlines(keepends=True):
        if _item_number(line) == expected:
            collected.append([line[_ITEM_RE.match(line).end():]])
            expected += 1
        elif collected:
            collected[-1].append(line)
    return tuple("".join(parts).strip() for parts in collected)


# --- structural diff ---------------------------------------------------------


class DiffStatus(Enum):
    IDENTICAL = "identical"
    MODIFIED = "modified"
    ADDED = "added"
    REMOVED = "removed"


class StepEditOp(Enum):
    INSERT_BEFORE = "InsertBefore"
    REPLACE_STEP = "ReplaceStep"
    APPEND_STEP = "AppendStep"


class StepEdit(NamedTuple):
    """Where an edit landed among the steps (``index`` is 1-based); its
    label is what ``reprompt diff`` and ``reprompt inspect`` print. A
    ReplaceStep without an index replaces the whole block."""

    op: StepEditOp
    index: int | None = None

    @property
    def multi_edit(self) -> bool:
        return self.op is StepEditOp.REPLACE_STEP and self.index is None

    def __str__(self) -> str:
        if self.op is StepEditOp.APPEND_STEP:
            return "AppendStep"
        if self.multi_edit:
            return "ReplaceStep(*) [multi-edit]"
        return f"{self.op.value}({self.index})"


WHOLE_BLOCK = StepEdit(StepEditOp.REPLACE_STEP)


def classify_step_edits(
    old: tuple[str, ...], new: tuple[str, ...]
) -> StepEdit | None:
    """Describe how ``new`` differs from ``old`` at step granularity.

    None when the steps are equal. Single insertions, replacements and
    appends are reported precisely; anything else is WHOLE_BLOCK.
    """
    if old == new:
        return None
    if len(new) == len(old) + 1:
        if new[:-1] == old:
            return StepEdit(StepEditOp.APPEND_STEP)
        for k in range(len(old)):
            if new[:k] == old[:k] and new[k + 1:] == old[k:]:
                return StepEdit(StepEditOp.INSERT_BEFORE, k + 1)
    if len(new) == len(old):
        changed = [i for i, (x, y) in enumerate(zip(old, new)) if x != y]
        if len(changed) == 1:
            return StepEdit(StepEditOp.REPLACE_STEP, changed[0] + 1)
    return WHOLE_BLOCK


class SegmentDiff(NamedTuple):
    kind: SegmentKind
    status: DiffStatus
    step_edit: StepEdit | None = None

    def __str__(self) -> str:
        label = f"{self.kind.value:20s} {self.status.value}"
        if self.step_edit is not None:
            label += f": {self.step_edit}"
        return label


class StructuredDiff(NamedTuple):
    entries: tuple[SegmentDiff, ...]

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.entries)


def diff_prompts(a: PromptDocument, b: PromptDocument) -> StructuredDiff:
    """Compare two documents segment by segment.

    Equal rendered text short-circuits to an all-identical diff, so the
    diff detects inequality exactly when the rendered bytes differ.
    """
    if render_prompt(a) == render_prompt(b):
        return StructuredDiff(
            tuple(SegmentDiff(s.kind, DiffStatus.IDENTICAL) for s in a.segments)
        )
    sa = [(s.kind, s.text) for s in a.segments]
    sb = [(s.kind, s.text) for s in b.segments]
    matcher = difflib.SequenceMatcher(a=sa, b=sb, autojunk=False)
    entries: list[SegmentDiff] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            entries.extend(
                SegmentDiff(kind, DiffStatus.IDENTICAL) for kind, _ in sa[i1:i2]
            )
        elif tag == "delete":
            entries.extend(
                SegmentDiff(kind, DiffStatus.REMOVED) for kind, _ in sa[i1:i2]
            )
        elif tag == "insert":
            entries.extend(
                SegmentDiff(kind, DiffStatus.ADDED) for kind, _ in sb[j1:j2]
            )
        else:
            paired = min(i2 - i1, j2 - j1)
            for t in range(paired):
                kind_a, text_a = sa[i1 + t]
                kind_b, text_b = sb[j1 + t]
                if kind_a is kind_b:
                    edit = None
                    if kind_a is SegmentKind.STEP_INSTRUCTIONS:
                        edit = classify_step_edits(
                            steps_from_text(text_a), steps_from_text(text_b)
                        )
                    entries.append(SegmentDiff(kind_a, DiffStatus.MODIFIED, edit))
                else:
                    entries.append(SegmentDiff(kind_a, DiffStatus.REMOVED))
                    entries.append(SegmentDiff(kind_b, DiffStatus.ADDED))
            for kind, _ in sa[i1 + paired : i2]:
                entries.append(SegmentDiff(kind, DiffStatus.REMOVED))
            for kind, _ in sb[j1 + paired : j2]:
                entries.append(SegmentDiff(kind, DiffStatus.ADDED))
    return StructuredDiff(tuple(entries))


def classify_placement(old: PromptDocument, new: PromptDocument) -> StepEdit | None:
    """Where the step edit from ``old`` to ``new`` landed, read from the
    diff's modified step entry; None when nothing changed. A change that
    moved several steps, or none of them, is the whole-block replacement."""
    for entry in diff_prompts(old, new).entries:
        if (
            entry.status is DiffStatus.MODIFIED
            and entry.kind is SegmentKind.STEP_INSTRUCTIONS
        ):
            return entry.step_edit or WHOLE_BLOCK
    return None


# --- task slots --------------------------------------------------------------

_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def slot_names(doc: PromptDocument) -> set[str]:
    names: set[str] = set()
    for segment in doc.segments:
        if segment.kind is SegmentKind.TASK_SLOT:
            names.update(_SLOT_RE.findall(segment.text))
    return names


def fill_slots(doc: PromptDocument, values: dict[str, str]) -> str:
    """Render the document with task-slot placeholders substituted.

    Raises SlotMissingError when the task slot references a name that has
    no value. Braces outside the task slot are left alone, they are
    ordinary prompt text.
    """
    missing = slot_names(doc) - set(values)
    if missing:
        raise SlotMissingError(missing)

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        return str(values[name]) if name in values else match.group(0)

    parts = []
    for segment in doc.segments:
        if segment.kind is SegmentKind.TASK_SLOT:
            parts.append(_SLOT_RE.sub(substitute, segment.text))
        else:
            parts.append(segment.text)
    return "".join(parts)
