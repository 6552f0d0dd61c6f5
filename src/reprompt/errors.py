"""Exception hierarchy shared by all engine modules."""
from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


# --- prompt model ---------------------------------------------------------

class EmptyPromptError(EngineError):
    """Raised when asked to parse an empty prompt text."""


class OverlappingMarkersError(EngineError):
    """Two boundary patterns matched the same line; the segmentation config is bad."""


class SlotMissingError(EngineError):
    """A task slot referenced by the prompt has no value in the sample."""

    def __init__(self, missing: set[str]):
        self.missing = set(missing)
        super().__init__(f"no value for task slot(s): {', '.join(sorted(missing))}")


# --- gateway --------------------------------------------------------------

class GatewayError(EngineError):
    """Base class for model-call failures."""


class TransportError(GatewayError):
    """Network failure or 5xx from the completion endpoint."""


class RateLimitedError(GatewayError):
    """The endpoint returned 429 and retries were exhausted."""


class RejectedError(GatewayError):
    """The request was refused (non-retryable 4xx, or no script entry matched)."""


class EmptyResponseError(GatewayError):
    """The model finished normally but returned no content."""


class StageCallError(GatewayError):
    """A call of a named stage (summarizer, optimizer, repair) failed.

    ``where`` (epoch and batch) is filled in by the trainer once it knows
    the batch; the message reads "<stage> call failed (<where>): <cause>".
    """

    def __init__(self, stage: str, cause: GatewayError):
        self.stage = stage
        self.cause = cause
        self.where: str | None = None
        super().__init__(stage, cause)

    def __str__(self) -> str:
        where = f" ({self.where})" if self.where else ""
        return f"{self.stage} call failed{where}: {self.cause}"


class ScriptParseError(EngineError):
    """A script file could not be loaded."""

    def __init__(self, message: str, line: int | None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class AmbiguousScriptError(EngineError):
    """Two script entries match the same request, or duplicate fingerprints exist."""


# --- actor ----------------------------------------------------------------

class NoThinkSpanError(EngineError):
    """The last assistant message carries no reasoning-trace span."""


class UnparseableAnswerError(EngineError):
    """An assistant message does not follow the task answer grammar."""


# --- summarizer -----------------------------------------------------------

class MissingConclusionMarkerError(EngineError):
    """The summarizer never produced its conclusion line, even after the retry."""


class ScrubRejectedError(EngineError):
    """The focus text still carried scenario-specific literals after the retry."""


# --- optimizer / guardrails -------------------------------------------------

class MissingFinalMarkerError(EngineError):
    """The optimizer never produced its final-prompt line within the retry budget."""


class GuardrailRejectionError(EngineError):
    """Every optimizer attempt was rejected by the guardrails."""


# --- trainer ----------------------------------------------------

class BudgetExhaustedError(EngineError):
    """The gateway call budget was hit mid-run; state was persisted for resume."""


class CorruptRunError(EngineError):
    """A run directory failed hash-chain verification."""
