"""Episode runner: plays a prompt against task samples and records transcripts.

An episode starts by sending the rendered prompt with task slots filled,
then alternates assistant answers with feedback until the feedback
generator says stop or the round cap is reached. A feedback generator
returns the text to feed back, or None to stop the episode.

A transcript is the messages as sent: the task as a user message, then
each answer followed by the feedback on it, which travels as a user
message too. ``format_transcript`` names each message by its position:
the task is ``user / round 1``, answer k is ``assistant / round k`` and
the feedback after it is ``feedback / round k+1``.
"""
from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import NamedTuple, Protocol, Sequence

from . import prompts
from .errors import GatewayError, NoThinkSpanError, UnparseableAnswerError
from .gateway import Caller, Gateway, Message, Role
from .prompt_model import PromptDocument, fill_slots


class Terminal(Enum):
    FINISHED_BY_AGENT = "finished_by_agent"
    MAX_ROUNDS_EXHAUSTED = "max_rounds_exhausted"
    ERROR = "error"


class Transcript(NamedTuple):
    sample_id: str
    # The task, then each answer followed by the feedback on it.
    messages: tuple[Message, ...]
    terminal: Terminal
    # Why the episode aborted; empty unless terminal is ERROR.
    error: str = ""

    @property
    def rounds_used(self) -> int:
        """The number of answers."""
        return len(self.messages) // 2

    def last_assistant(self) -> str | None:
        for message in reversed(self.messages):
            if message.role is Role.ASSISTANT:
                return message.content
        return None


class Sample(Protocol):
    """What the episode loop needs from a task sample: plain data, which
    run_episode fills into the prompt."""

    id: str  # names its transcript file
    slot_values: dict[str, str]  # what its prompt's slots are filled with


class TaskSample(NamedTuple):
    id: str
    slot_values: dict[str, str]


def load_dataset(path: str) -> list[TaskSample]:
    """Read task samples from a YAML (or JSON) list of {id, slot_values} rows.

    A row holds no other key, so a toy dataset is no generic one. An id must
    be a string, since it names the sample's transcript file. slot_values
    must be a mapping, or null or absent for no slots. A slot name must be
    a string, and a slot value a string or a number, which is filled in as
    written.
    """
    from .yamlio import load_yaml

    data = load_yaml(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: a dataset is a non-empty list of samples")
    samples = []
    for row in data:
        if not isinstance(row, dict) or "id" not in row:
            raise ValueError(f"{path}: every sample needs an id")
        sid = row["id"]
        if type(sid) is not str:
            raise ValueError(f"{path}: sample id must be a string, not {sid!r}")
        extra = sorted(map(str, set(row) - {"id", "slot_values"}))
        if extra:
            raise ValueError(f"{path}: sample {sid}: unknown key(s): {', '.join(extra)}")
        slots = {} if row.get("slot_values") is None else row["slot_values"]
        if not isinstance(slots, dict):
            raise ValueError(f"{path}: sample {sid}: slot_values must be a mapping")
        for key, value in slots.items():
            if type(key) is not str:
                raise ValueError(
                    f"{path}: sample {sid}: slot name {key!r} must be a string"
                )
            # type(), not isinstance(): a bool is not taken for a number.
            if type(value) not in (str, int, float):
                raise ValueError(
                    f"{path}: sample {sid}: slot value {key} must be a string "
                    f"or a number, not {value!r}"
                )
        samples.append(TaskSample(sid, {k: str(v) for k, v in slots.items()}))
    ids = [s.id for s in samples]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: sample ids must be unique")
    return samples


class FeedbackGenerator(Protocol):
    def feedback(self, transcript: Transcript) -> str | None:
        """The text to feed back after the last answer, or None to stop."""


def format_transcript(transcript: Transcript) -> str:
    """Serialize a transcript as role-tagged blocks, content verbatim.

    Message i belongs to round i // 2 + 1, and every user message after
    the task is feedback.
    """
    parts = []
    for i, m in enumerate(transcript.messages):
        role = "feedback" if i and m.role is Role.USER else m.role.value
        parts.append(f"[{role} / round {i // 2 + 1}]\n{m.content}")
    return "\n\n".join(parts)


def run_episode(
    prompt: PromptDocument,
    sample: Sample,
    fg: FeedbackGenerator,
    max_rounds: int,
    *,
    caller: Caller,
) -> Transcript:
    """Run one episode and return its transcript.

    The round-1 message is the prompt with the sample's slots filled,
    ``fill_slots(prompt, sample.slot_values)``. A gateway or feedback
    failure ends the episode early: the partial transcript comes back with
    terminal ERROR and ``error`` naming the failure.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    messages = (Message(Role.USER, fill_slots(prompt, sample.slot_values)),)
    terminal, error = Terminal.MAX_ROUNDS_EXHAUSTED, ""
    while True:
        try:
            response = caller.complete(messages)
        except GatewayError as exc:
            terminal, error = Terminal.ERROR, f"episode for {sample.id} failed: {exc}"
            break
        messages += (Message(Role.ASSISTANT, response.content),)
        if len(messages) // 2 >= max_rounds:
            break
        try:
            text = fg.feedback(Transcript(sample.id, messages, Terminal.FINISHED_BY_AGENT))
        except Exception as exc:
            terminal, error = Terminal.ERROR, f"feedback failed for {sample.id}: {exc}"
            break
        if text is None:
            terminal = Terminal.FINISHED_BY_AGENT
            break
        messages += (Message(Role.USER, text),)
    return Transcript(
        sample_id=sample.id,
        messages=messages,
        terminal=terminal,
        error=error,
    )


def collect_batch(
    prompt: PromptDocument,
    samples: Sequence[Sample],
    fg: FeedbackGenerator,
    max_rounds: int,
    *,
    caller: Caller,
    parallelism: int,
) -> list[Transcript]:
    """Run one episode per sample, preserving sample order in the result.

    Episodes are independent: a failed episode contributes its partial
    transcript (terminal = error) and the others still run.
    """

    def one(sample: Sample) -> Transcript:
        transcript = run_episode(prompt, sample, fg, max_rounds, caller=caller)
        if transcript.terminal is Terminal.ERROR:
            import logging

            logging.getLogger(__name__).warning(
                "episode failed for sample %s: %s", sample.id, transcript.error
            )
        return transcript

    if parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(one, samples))
    return [one(s) for s in samples]


# --- feedback generators -------------------------------------------------------


class NoFeedback:
    """Stops every episode after the first answer."""

    def feedback(self, transcript: Transcript) -> None:
        return None


class ReflexionFeedback:
    """Asks a model to reflect on the latest answer.

    The episode stops once the reflection contains
    ``prompts.DEFAULT_FINISH_MARKER``; otherwise the reflection text is fed
    back verbatim.
    """

    def __init__(self, caller: Caller):
        self._caller = caller

    def feedback(self, transcript: Transcript) -> str | None:
        reflection = self._caller.ask(
            prompts.REFLECTION_SYSTEM_PROMPT,
            prompts.REFLECTION_USER_TEMPLATE.format(
                transcript=format_transcript(transcript)
            ),
        )
        if prompts.DEFAULT_FINISH_MARKER in reflection:
            return None
        return reflection


_THINK_OPEN, _THINK_CLOSE = "<think>", "</think>"


class ThinkTraceFeedback:
    """Treats the model's own ``<think>…</think>`` span as the feedback signal.

    The span already sits inside the assistant message, where the
    summarizer reads it, so no extra model call is made and the episode
    always stops. An answer without a closed span fails the episode.
    """

    def feedback(self, transcript: Transcript) -> None:
        answer = transcript.last_assistant()
        if answer is None:
            raise NoThinkSpanError("transcript has no assistant message")
        start = answer.find(_THINK_OPEN)
        if start < 0:
            raise NoThinkSpanError(f"no {_THINK_OPEN} span in the last answer")
        if answer.find(_THINK_CLOSE, start + len(_THINK_OPEN)) < 0:
            raise NoThinkSpanError(f"unterminated {_THINK_OPEN} span")
        return None


class RuleCheckFeedback:
    """Deterministic checker feedback for tasks with machine-checkable rules.

    ``parse_answer`` and ``check`` come from a task adapter; samples are
    looked up by the transcript's sample id. No model call involved.
    """

    def __init__(self, adapter, samples_by_id: dict[str, object]):
        self._adapter = adapter
        self._samples = samples_by_id

    def feedback(self, transcript: Transcript) -> str | None:
        sample = self._samples[transcript.sample_id]
        # run_episode asks for feedback only after an answer.
        try:
            answer = self._adapter.parse_answer(transcript.last_assistant())
        except UnparseableAnswerError as exc:
            return str(exc)
        result = self._adapter.check(answer, sample)
        if result.passed:
            return None
        return result.messages[0]


def feedback_generator(
    name: str,
    *,
    gateway: Gateway,
    model: str,
    adapter,
    samples_by_id: dict[str, object],
    temperature: float,
    seed: int,
) -> FeedbackGenerator:
    """Build a feedback generator from its config tag.

    ``adapter`` is the task's checker, or None for a task without one.
    """
    if name == "none":
        return NoFeedback()
    if name == "reflexion":
        return ReflexionFeedback(Caller(gateway, model, temperature, seed))
    if name == "thinktrace":
        return ThinkTraceFeedback()
    if name == "rulecheck":
        if adapter is None:
            raise ValueError(
                "[train] feedback = rulecheck needs [task] kind = toy, "
                "the task with a rule checker"
            )
        return RuleCheckFeedback(adapter, samples_by_id)
    raise ValueError(f"unknown feedback generator: {name!r}")
