"""Turns a batch of transcripts into one optimization focus point.

This is the loss signal of the training loop: a model reads the batch's
chat histories and names either the main failure reason, a helpful thought
worth generalizing, or declares that there is no general reason. The last
case is the identity signal, it makes the optimizer skip the round.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from . import prompts
from .actor import Transcript, format_transcript
from .errors import MissingConclusionMarkerError, ScrubRejectedError
from .gateway import Caller
from .prompt_model import PromptDocument, render_prompt

DEFAULT_TRANSCRIPT_BUDGET = 60_000

TRUNCATION_SENTINEL = "\n[... transcript truncated ...]\n"

# Stands in for the prompt text a round-1 message shares with the current
# prompt, which the summarizer is shown once ahead of the transcripts.
ELIDED_PROMPT_LINE = "[the current prompt above, with this sample's task filled in:]"


class FocusCase(Enum):
    FAILURE_REASON = "failure_reason"
    HELPFUL_THOUGHT = "helpful_thought"
    NO_GENERAL_REASON = "no_general_reason"


class FocusPoint(NamedTuple):
    case: FocusCase
    text: str


# Conclusions are routed on keywords. Misrouting between the failure-reason
# and helpful-thought cases is harmless downstream, both feed the optimizer
# the same way; only the no-general-reason case changes control flow.
_NO_REASON_KEY = "no general reason"
_THOUGHT_KEYS = ("thought", "helpful", "focus on")


def parse_conclusion(raw: str) -> tuple[FocusCase, str] | None:
    """Extract and classify the conclusion line from raw summarizer output.

    The substring after the last occurrence of the conclusion marker wins.
    Returns None when the marker never appears or nothing follows it.
    """
    idx = raw.rfind(prompts.CONCLUSION_MARKER)
    if idx < 0:
        return None
    text = raw[idx + len(prompts.CONCLUSION_MARKER):].strip()
    if not text:
        return None
    lowered = text.lower()
    if _NO_REASON_KEY in lowered:
        return FocusCase.NO_GENERAL_REASON, ""
    if any(key in lowered for key in _THOUGHT_KEYS):
        return FocusCase.HELPFUL_THOUGHT, text
    return FocusCase.FAILURE_REASON, text


# Scenario-detail scrubber: focus text must stay general, so digits glued to
# currency or calendar patterns are rejected.
_SCRUB_PATTERNS = tuple(
    re.compile(p, re.IGNORECASE)
    for p in (
        r"[$€£]\s?\d",
        r"\d+(?:\.\d+)?\s?(?:usd|eur|gbp|dollars?|euros?|pounds?)\b",
        r"\b\d{1,2}[/.]\d{1,2}(?:[/.]\d{2,4})?\b",
        r"\b\d{4}-\d{2}-\d{2}\b",
        r"\b(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\.?\s\d{1,2}\b",
        r"\b\d{1,2}\s(?:jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]*\b",
    )
)


def scrub_violations(text: str) -> list[str]:
    """Return the scenario-specific literals found in a focus text."""
    hits = []
    for pattern in _SCRUB_PATTERNS:
        hits.extend(m.group(0) for m in pattern.finditer(text))
    return hits


def _elide_prompt(message: str, prompt_text: str) -> str:
    """Replace the lines ``message`` shares with the prompt by one line.

    The shared part ends at a line boundary, so the first line that
    differs (the sample's ``Task id:`` line on toy prompts) is kept whole.
    A message that shares no whole line with the prompt is returned as is.
    """
    # Binary search for the length of the common prefix.
    lo, hi = 0, min(len(message), len(prompt_text))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if message.startswith(prompt_text[:mid]):
            lo = mid
        else:
            hi = mid - 1
    cut = message.rfind("\n", 0, lo) + 1
    return f"{ELIDED_PROMPT_LINE}\n{message[cut:]}" if cut else message


def _serialize_transcript(t: Transcript, prompt_text: str) -> str:
    task, *later = t.messages
    task = task._replace(content=_elide_prompt(task.content, prompt_text))
    t = t._replace(messages=(task, *later))
    return f"=== Transcript for sample {t.sample_id} ===\n{format_transcript(t)}"


def serialize_transcripts(
    transcripts: list[Transcript], budget: int, prompt_text: str
) -> str:
    """Render transcripts for the summarizer, keeping the total under budget.

    ``prompt_text`` is the rendered prompt the summarizer is shown once
    ahead of the transcripts. Each transcript's round-1 user message
    repeats it with the sample's task filled in, so the shared leading
    lines are replaced by ELIDED_PROMPT_LINE and only the filled task
    tail is kept; later messages are verbatim. Oversized transcripts are
    then cut symmetrically: head and tail halves are kept and one sentinel
    marks the gap, so both the sample's task and the final exchange stay
    visible.
    """
    parts = [_serialize_transcript(t, prompt_text) for t in transcripts]
    if not parts:
        return ""
    separator = "\n\n"
    sep_total = len(separator) * (len(parts) - 1)
    allowance = max(0, (budget - sep_total)) // len(parts)
    total = sum(len(p) for p in parts) + sep_total
    if total > budget:
        trimmed = []
        for part in parts:
            if len(part) <= allowance:
                trimmed.append(part)
                continue
            keep = max(0, allowance - len(TRUNCATION_SENTINEL))
            head = keep // 2
            tail = keep - head
            trimmed.append(
                part[:head] + TRUNCATION_SENTINEL + (part[len(part) - tail:] if tail else "")
            )
        parts = trimmed
    result = separator.join(parts)
    return result[:budget] if len(result) > budget else result


def summarize_batch(
    transcripts: list[Transcript],
    prompt: PromptDocument,
    *,
    caller: Caller,
) -> FocusPoint:
    """Summarize a batch into a FocusPoint, with one retry on bad output.

    One gateway call on the happy path. A missing or empty conclusion line
    or a scrubber hit triggers a single retry that carries a corrective
    note; a second failure raises MissingConclusionMarkerError or
    ScrubRejectedError respectively.
    """
    if not transcripts:
        raise ValueError("cannot summarize an empty batch")
    prompt_text = render_prompt(prompt)
    chat_history = (
        f"{prompts.CURRENT_PROMPT_HEADER}\n\n{prompt_text}\n\n"
        + serialize_transcripts(transcripts, DEFAULT_TRANSCRIPT_BUDGET, prompt_text)
    )
    user = prompts.SUMMARIZER_USER_TEMPLATE.format(chat_history=chat_history)
    note = None
    for _ in range(2):
        raw = caller.ask(prompts.SUMMARIZER_SYSTEM_PROMPT, user, note)
        conclusion = parse_conclusion(raw)
        if conclusion is None:
            failure = MissingConclusionMarkerError(
                "no conclusion line, even after the retry"
            )
            note = prompts.SUMMARIZER_FORMAT_REMINDER
            continue
        case, text = conclusion
        hits = scrub_violations(text)
        if hits:
            failure = ScrubRejectedError(
                f"focus text still carries scenario details: {hits}"
            )
            note = prompts.SUMMARIZER_DETAIL_REMINDER
            continue
        return FocusPoint(case=case, text=text)
    raise failure
