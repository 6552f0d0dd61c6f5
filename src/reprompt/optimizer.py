"""Rewrites a prompt's step instructions to address one focus point.

The optimizer asks a model for a full improved prompt, parses it from
behind a fixed final-line marker and routes it through the guardrails,
which let nothing outside the step instructions change; a reply whose
segments equal the prompt's is no change. A focus point with no general
reason short-circuits to an identity update without any model call.
"""
from __future__ import annotations

from typing import NamedTuple

from . import prompts
from .errors import GuardrailRejectionError, MissingFinalMarkerError
from .gateway import Caller
from .guardrails import GuardConfig, review_candidate
from .prompt_model import (
    PromptDocument,
    SegmentationConfig,
    diff_prompts,  # unused here; perfbench/tracing.py wraps optimizer.diff_prompts
    has_step_instructions,
    render_prompt,
)
from .summarizer import FocusCase, FocusPoint


class PromptUpdate(NamedTuple):
    raw_output: str
    new_prompt: PromptDocument
    changed: bool = False


def parse_final_prompt(raw: str) -> str | None:
    """Extract the improved prompt from behind the last final-line marker.

    One leading space (the marker's own separator) and one leading newline
    are trimmed; everything else is returned byte for byte. Returns None
    when the marker never appears.
    """
    marker = prompts.FINAL_PROMPT_MARKER.rstrip(" ")
    idx = raw.rfind(marker)
    if idx < 0:
        return None
    rest = raw[idx + len(marker):]
    if rest.startswith(" "):
        rest = rest[1:]
    if rest.startswith("\r\n"):
        rest = rest[2:]
    elif rest.startswith("\n"):
        rest = rest[1:]
    return rest


def optimize(
    prompt: PromptDocument,
    focus: FocusPoint,
    *,
    caller: Caller,
    repair: Caller,
    seg_config: SegmentationConfig,
    required_tokens: tuple[str, ...],
    guard_config: GuardConfig,
) -> PromptUpdate:
    """Produce the next prompt version for one focus point.

    The no-general-reason case returns the input prompt unchanged with zero
    gateway calls. Otherwise each attempt sends the optimizer prompt, and a
    missing marker or a guardrail rejection consumes one attempt from the
    shared budget; retries carry a note naming the previous rejection.
    """
    if not has_step_instructions(prompt):
        raise ValueError("optimize needs a structured prompt (with step instructions)")
    if focus.case is FocusCase.NO_GENERAL_REASON:
        return PromptUpdate(raw_output="", new_prompt=prompt)
    attempts = guard_config.optimizer_attempts
    base_user = prompts.OPTIMIZER_USER_TEMPLATE.format(
        prompt=render_prompt(prompt), focus=focus.text
    )
    marker_missing = 0
    last_reason: str | None = None
    for _ in range(attempts):
        note = None
        if last_reason is not None:
            note = prompts.OPTIMIZER_RETRY_NOTE_TEMPLATE.format(reason=last_reason)
        raw = caller.ask(prompts.OPTIMIZER_SYSTEM_PROMPT, base_user, note)
        candidate = parse_final_prompt(raw)
        if candidate is None:
            marker_missing += 1
            last_reason = "the final-prompt line was missing"
            continue
        report, parsed = review_candidate(
            prompt,
            candidate,
            seg_config=seg_config,
            required_tokens=required_tokens,
            guard_config=guard_config,
            repair=repair,
        )
        if parsed is None:
            last_reason = report.violations[0].detail
            continue
        if parsed.segments == prompt.segments:
            return PromptUpdate(raw_output=raw, new_prompt=prompt)
        return PromptUpdate(
            raw_output=raw,
            new_prompt=PromptDocument(
                segments=parsed.segments, version=prompt.version + 1
            ),
            changed=True,
        )
    if marker_missing == attempts:
        raise MissingFinalMarkerError(
            f"no final-prompt line in any of {attempts} attempts"
        )
    raise GuardrailRejectionError(
        f"every optimizer attempt was rejected (last: {last_reason})"
    )
