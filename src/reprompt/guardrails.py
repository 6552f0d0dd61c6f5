"""Safety checks applied to every optimizer candidate before acceptance.

Three independent nets: placeholder detection with model-driven repair
(optimizers love to abbreviate long example blocks), byte-exact
verification of every segment outside the step instructions, and
required-token enforcement (a case change in a load-bearing word silently
breaks downstream parsers).
"""
from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from . import prompts
from .config import GuardConfig
from .gateway import Caller
from .prompt_model import (
    PromptDocument,
    SegmentKind,
    SegmentationConfig,
    parse_prompt,
    render_prompt,
)

# Default placeholder shapes: angle-bracket references to the original
# prompt, angle-bracket example stubs, mathematical angle quotes, and
# brace-wrapped example stubs. Extend per task via configuration.
DEFAULT_PLACEHOLDER_PATTERNS = (
    r"<[^<>\n]*original prompt[^<>\n]*>",
    r"<\s*Examples?\b[^<>\n]*>",
    r"⟨[^⟨⟩\n]*⟩",
    r"\{Example[^{}\n]*\}",
)


def compile_placeholder_patterns(extra: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    return tuple(
        re.compile(p, re.IGNORECASE)
        for p in DEFAULT_PLACEHOLDER_PATTERNS + tuple(extra)
    )


class ViolationKind(Enum):
    PLACEHOLDER_FOUND = "placeholder_found"
    SEGMENT_MUTATED = "segment_mutated"
    REQUIRED_TOKEN_MISSING = "required_token_missing"


class Violation(NamedTuple):
    kind: ViolationKind
    detail: str


class Verdict(Enum):
    ACCEPTED = "accepted"
    REPAIRED = "repaired"
    REJECTED = "rejected"


class GuardReport(NamedTuple):
    verdict: Verdict
    violations: tuple[Violation, ...] = ()


def detect_placeholders(
    text: str, patterns: tuple[re.Pattern, ...]
) -> list[re.Match]:
    """Find placeholder matches in candidate text, ordered by position."""
    matches = [m for pattern in patterns for m in pattern.finditer(text)]
    return sorted(matches, key=lambda m: m.span())


def _first_diff_range(old: str, new: str) -> tuple[int, int]:
    """Minimal character range of ``old`` not reproduced in ``new``."""
    prefix = 0
    limit = min(len(old), len(new))
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and old[len(old) - 1 - suffix] == new[len(new) - 1 - suffix]
    ):
        suffix += 1
    return prefix, max(len(old) - suffix, prefix + 1)


def verify_protected(
    old: PromptDocument, new: PromptDocument
) -> tuple[Violation, ...]:
    """Check that every segment of ``old`` but its step instructions comes
    back byte-identical and in place.

    ``new`` must have old's segment kinds in the same order. Returns the
    first difference only: a changed layout, or the mutated segment's kind,
    its occurrence among that kind and the minimal character range that
    differs.
    """
    old_kinds = [s.kind.value for s in old.segments]
    new_kinds = [s.kind.value for s in new.segments]
    if old_kinds != new_kinds:
        detail = (
            f"segment layout changed from [{', '.join(old_kinds)}] "
            f"to [{', '.join(new_kinds)}]"
        )
        return (Violation(ViolationKind.SEGMENT_MUTATED, detail),)
    for i, (old_seg, new_seg) in enumerate(zip(old.segments, new.segments)):
        if (
            old_seg.kind is SegmentKind.STEP_INSTRUCTIONS
            or old_seg.text == new_seg.text
        ):
            continue
        nth = old_kinds[:i + 1].count(old_kinds[i])
        lo, hi = _first_diff_range(old_seg.text, new_seg.text)
        detail = f"{old_kinds[i]} segment {nth} mutated at chars {lo}..{hi}"
        return (Violation(ViolationKind.SEGMENT_MUTATED, detail),)
    return ()


def verify_required_tokens(
    new: PromptDocument, tokens: tuple[str, ...]
) -> tuple[Violation, ...]:
    """Case-sensitive presence check for tokens the task depends on."""
    rendered = render_prompt(new)
    return tuple(
        Violation(
            ViolationKind.REQUIRED_TOKEN_MISSING,
            f"required token {token!r} not found (case-sensitive)",
        )
        for token in tokens
        if token not in rendered
    )


def repair_placeholders(
    candidate: str,
    original: PromptDocument,
    *,
    caller: Caller,
    patterns: tuple[re.Pattern, ...],
    attempts: int,
) -> str | None:
    """Ask a model to splice original text back over placeholder stubs.

    The result must contain zero placeholders and every original examples
    segment verbatim; otherwise the call is retried with a corrective note,
    and None is returned once the budget is spent.
    """
    example_texts = [
        s.text for s in original.segments if s.kind is SegmentKind.EXAMPLES
    ]
    user = prompts.TEMPLATE_REPLACER_USER_TEMPLATE.format(
        original=render_prompt(original), candidate=candidate
    )
    note = None
    for _ in range(attempts):
        repaired = caller.ask(prompts.TEMPLATE_REPLACER_SYSTEM_PROMPT, user, note)
        if not detect_placeholders(repaired, patterns) and all(
            text in repaired for text in example_texts
        ):
            return repaired
        note = prompts.REPAIR_RETRY_NOTE
    return None


def review_candidate(
    old: PromptDocument,
    candidate: str,
    *,
    seg_config: SegmentationConfig,
    required_tokens: tuple[str, ...],
    guard_config: GuardConfig,
    repair: Caller,
) -> tuple[GuardReport, PromptDocument | None]:
    """Run the full guard pipeline over one candidate prompt text.

    Returns the report plus the parsed document when the candidate survives.
    Placeholders trigger repair through the ``repair`` caller (a clean text
    is never re-sent anywhere, which makes re-reviewing a repaired prompt
    free and idempotent). Any repair failure or residual violation rejects.
    """
    patterns = compile_placeholder_patterns(guard_config.extra_placeholder_patterns)
    verdict = Verdict.ACCEPTED
    matches = detect_placeholders(candidate, patterns)
    if matches:
        repaired = repair_placeholders(
            candidate,
            old,
            caller=repair,
            patterns=patterns,
            attempts=guard_config.repair_attempts,
        )
        if repaired is None:
            return GuardReport(
                Verdict.REJECTED,
                tuple(
                    Violation(
                        ViolationKind.PLACEHOLDER_FOUND,
                        f"placeholder {m.group(0)!r} at chars {m.start()}..{m.end()}",
                    )
                    for m in matches
                ),
            ), None
        candidate, verdict = repaired, Verdict.REPAIRED
    if candidate == "":
        empty = Violation(ViolationKind.PLACEHOLDER_FOUND, "candidate prompt is empty")
        return GuardReport(Verdict.REJECTED, (empty,)), None
    parsed = parse_prompt(candidate, seg_config)
    violations = verify_protected(old, parsed) + verify_required_tokens(
        parsed, required_tokens
    )
    if violations:
        return GuardReport(Verdict.REJECTED, violations), None
    return GuardReport(verdict), parsed
