"""Episode runner: plays a prompt against task samples and records transcripts.

An episode starts by sending the rendered prompt with task slots filled,
then alternates assistant answers with feedback until the feedback
generator says stop or the round cap is reached. Feedback is a first-class
transcript role; on the wire it travels as a user message.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol

from . import prompts
from .errors import (
    BatchFailedError,
    EpisodeError,
    GatewayError,
    NoThinkSpanError,
    UnparseableAnswerError,
)
from .gateway import (
    ChatRequest,
    DEFAULT_SEED,
    DEFAULT_TEMPERATURE,
    Gateway,
    Message,
    Role,
)
from .prompt_model import PromptDocument, fill_slots
from .yamlio import load_yaml

logger = logging.getLogger(__name__)


class TranscriptRole(Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"
    FEEDBACK = "feedback"


class Terminal(Enum):
    FINISHED_BY_AGENT = "finished_by_agent"
    MAX_ROUNDS_EXHAUSTED = "max_rounds_exhausted"
    ERROR = "error"


@dataclass(frozen=True)
class TranscriptMessage:
    role: TranscriptRole
    content: str
    round: int


@dataclass(frozen=True)
class Transcript:
    sample_id: str
    messages: tuple[TranscriptMessage, ...]
    rounds_used: int
    terminal: Terminal

    def last_assistant(self) -> str | None:
        for message in reversed(self.messages):
            if message.role is TranscriptRole.ASSISTANT:
                return message.content
        return None


@dataclass(frozen=True)
class TaskSample:
    id: str
    slot_values: dict[str, str]


def load_dataset(path: str) -> list[TaskSample]:
    """Read task samples from a YAML list of {id, slot_values} rows."""
    with open(path, encoding="utf-8") as fh:
        data = load_yaml(fh)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: a dataset is a non-empty list of samples")
    samples = []
    for row in data:
        if not isinstance(row, dict) or "id" not in row:
            raise ValueError(f"{path}: every sample needs an id")
        slots = row.get("slot_values") or {}
        samples.append(
            TaskSample(
                id=str(row["id"]),
                slot_values={str(k): str(v) for k, v in slots.items()},
            )
        )
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: sample ids must be unique")
    return samples


class Decision(Enum):
    CONTINUE = "continue"
    STOP = "stop"


@dataclass(frozen=True)
class Feedback:
    text: str
    decision: Decision


class FeedbackGenerator(Protocol):
    def feedback(self, transcript: Transcript) -> Feedback: ...


def format_transcript(transcript: Transcript) -> str:
    """Serialize a transcript as role-tagged blocks, content verbatim."""
    parts = [
        f"[{m.role.value} / round {m.round}]\n{m.content}"
        for m in transcript.messages
    ]
    return "\n\n".join(parts)


def _wire_messages(messages: tuple[TranscriptMessage, ...]) -> tuple[Message, ...]:
    wire = []
    for m in messages:
        if m.role is TranscriptRole.FEEDBACK:
            role = Role.USER
        else:
            role = Role(m.role.value)
        wire.append(Message(role=role, content=m.content))
    return tuple(wire)


def run_episode(
    prompt: PromptDocument,
    sample: TaskSample,
    fg: FeedbackGenerator,
    max_rounds: int,
    *,
    gateway: Gateway,
    model: str,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = DEFAULT_SEED,
    initial_text: str | None = None,
) -> Transcript:
    """Run one episode and return its transcript.

    ``initial_text`` overrides the default round-1 message (the rendered
    prompt with slots filled); the evaluation harness uses it to route
    request building through a task adapter. Gateway failures abort the
    episode and are re-raised as EpisodeError with the partial transcript
    attached.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if initial_text is None:
        initial_text = fill_slots(prompt, sample.slot_values)
    history: list[TranscriptMessage] = [
        TranscriptMessage(TranscriptRole.USER, initial_text, 1)
    ]
    rounds = 0
    while True:
        rounds += 1
        request = ChatRequest(
            messages=_wire_messages(tuple(history)),
            model=model,
            temperature=temperature,
            seed=seed,
        )
        try:
            response = gateway.complete(request)
        except GatewayError as exc:
            partial = Transcript(
                sample_id=sample.id,
                messages=tuple(history),
                rounds_used=rounds - 1,
                terminal=Terminal.ERROR,
            )
            raise EpisodeError(
                f"episode for {sample.id} failed: {exc}",
                transcript=partial,
                cause=exc,
            ) from exc
        history.append(
            TranscriptMessage(TranscriptRole.ASSISTANT, response.content, rounds)
        )
        if rounds >= max_rounds:
            terminal = Terminal.MAX_ROUNDS_EXHAUSTED
            break
        snapshot = Transcript(
            sample_id=sample.id,
            messages=tuple(history),
            rounds_used=rounds,
            terminal=Terminal.FINISHED_BY_AGENT,
        )
        try:
            verdict = fg.feedback(snapshot)
        except Exception as exc:
            partial = Transcript(
                sample_id=sample.id,
                messages=tuple(history),
                rounds_used=rounds,
                terminal=Terminal.ERROR,
            )
            raise EpisodeError(
                f"feedback failed for {sample.id}: {exc}",
                transcript=partial,
                cause=exc,
            ) from exc
        if verdict.decision is Decision.STOP:
            terminal = Terminal.FINISHED_BY_AGENT
            break
        history.append(
            TranscriptMessage(TranscriptRole.FEEDBACK, verdict.text, rounds + 1)
        )
    return Transcript(
        sample_id=sample.id,
        messages=tuple(history),
        rounds_used=rounds,
        terminal=terminal,
    )


def collect_batch(
    prompt: PromptDocument,
    samples: list[TaskSample],
    fg: FeedbackGenerator,
    max_rounds: int,
    *,
    gateway: Gateway,
    model: str,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = DEFAULT_SEED,
    parallelism: int = 1,
) -> list[Transcript]:
    """Run one episode per sample, preserving sample order in the result.

    Episodes are independent. Failed episodes contribute their partial
    transcript (terminal = error); only a batch where every episode failed
    raises BatchFailedError.
    """

    def one(sample: TaskSample) -> Transcript:
        try:
            return run_episode(
                prompt,
                sample,
                fg,
                max_rounds,
                gateway=gateway,
                model=model,
                temperature=temperature,
                seed=seed,
            )
        except EpisodeError as exc:
            logger.warning("episode failed for sample %s: %s", sample.id, exc)
            if exc.transcript is not None:
                return exc.transcript
            return Transcript(
                sample_id=sample.id,
                messages=(),
                rounds_used=0,
                terminal=Terminal.ERROR,
            )

    if parallelism > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            transcripts = list(pool.map(one, samples))
    else:
        transcripts = [one(s) for s in samples]
    if transcripts and all(t.terminal is Terminal.ERROR for t in transcripts):
        raise BatchFailedError("every episode in the batch failed")
    return transcripts


# --- feedback generators -------------------------------------------------------


class NoFeedback:
    """Stops every episode after the first answer."""

    def feedback(self, transcript: Transcript) -> Feedback:
        return Feedback(text="", decision=Decision.STOP)


class ReflexionFeedback:
    """Asks a model to reflect on the latest answer.

    The episode stops once the reflection contains the finish marker;
    otherwise the reflection text is fed back verbatim.
    """

    def __init__(
        self,
        gateway: Gateway,
        model: str,
        finish_marker: str = prompts.DEFAULT_FINISH_MARKER,
        temperature: float = DEFAULT_TEMPERATURE,
        seed: int = DEFAULT_SEED,
    ):
        self._gateway = gateway
        self._model = model
        self._marker = finish_marker
        self._temperature = temperature
        self._seed = seed

    def feedback(self, transcript: Transcript) -> Feedback:
        request = ChatRequest(
            messages=(
                Message(Role.SYSTEM, prompts.REFLECTION_SYSTEM_PROMPT),
                Message(
                    Role.USER,
                    prompts.REFLECTION_USER_TEMPLATE.format(
                        transcript=format_transcript(transcript)
                    ),
                ),
            ),
            model=self._model,
            temperature=self._temperature,
            seed=self._seed,
        )
        reflection = self._gateway.complete(request).content
        if self._marker in reflection:
            return Feedback(text=reflection, decision=Decision.STOP)
        return Feedback(text=reflection, decision=Decision.CONTINUE)


class ThinkTraceFeedback:
    """Treats the model's own delimited reasoning span as the feedback signal.

    The span already sits inside the assistant message, so no extra model
    call is made and the episode always stops after extraction.
    """

    def __init__(self, open_tag: str = "<think>", close_tag: str = "</think>"):
        self._open = open_tag
        self._close = close_tag

    def feedback(self, transcript: Transcript) -> Feedback:
        answer = transcript.last_assistant()
        if answer is None:
            raise NoThinkSpanError("transcript has no assistant message")
        start = answer.find(self._open)
        if start < 0:
            raise NoThinkSpanError(f"no {self._open} span in the last answer")
        start += len(self._open)
        end = answer.find(self._close, start)
        if end < 0:
            raise NoThinkSpanError(f"unterminated {self._open} span")
        return Feedback(text=answer[start:end], decision=Decision.STOP)


class RuleCheckFeedback:
    """Deterministic checker feedback for tasks with machine-checkable rules.

    ``parse_answer`` and ``check`` come from a task adapter; samples are
    looked up by the transcript's sample id. No model call involved.
    """

    def __init__(self, adapter, samples_by_id: dict[str, object]):
        self._adapter = adapter
        self._samples = samples_by_id

    def feedback(self, transcript: Transcript) -> Feedback:
        sample = self._samples[transcript.sample_id]
        answer_text = transcript.last_assistant()
        if answer_text is None:
            return Feedback(
                text="no answer was produced", decision=Decision.CONTINUE
            )
        try:
            answer = self._adapter.parse_answer(answer_text)
        except UnparseableAnswerError as exc:
            return Feedback(text=str(exc), decision=Decision.CONTINUE)
        result = self._adapter.check(answer, sample)
        if result.passed:
            return Feedback(text="", decision=Decision.STOP)
        return Feedback(text=result.messages[0], decision=Decision.CONTINUE)


_GENERATORS: dict[str, Callable] = {}


def feedback_generator(
    name: str,
    *,
    gateway: Gateway | None = None,
    model: str | None = None,
    finish_marker: str = prompts.DEFAULT_FINISH_MARKER,
    think_open: str = "<think>",
    think_close: str = "</think>",
    adapter=None,
    samples_by_id: dict[str, object] | None = None,
    temperature: float = DEFAULT_TEMPERATURE,
    seed: int = DEFAULT_SEED,
) -> FeedbackGenerator:
    """Build a feedback generator from its config tag."""
    if name == "none":
        return NoFeedback()
    if name == "reflexion":
        if gateway is None or model is None:
            raise ValueError("reflexion feedback needs a gateway and a model")
        return ReflexionFeedback(
            gateway, model, finish_marker, temperature=temperature, seed=seed
        )
    if name == "thinktrace":
        return ThinkTraceFeedback(think_open, think_close)
    if name == "rulecheck":
        if adapter is None or samples_by_id is None:
            raise ValueError("rulecheck feedback needs an adapter and samples")
        return RuleCheckFeedback(adapter, samples_by_id)
    raise ValueError(f"unknown feedback generator: {name!r}")
