"""INI configuration for training and evaluation runs.

Four sections: [train], [gateway], [task], [guards]. Scalar values are
plain INI; list values are JSON arrays so they survive commas and
quoting. Unknown keys are rejected to catch typos early.
"""
from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .guardrails import GuardConfig
from .prompt_model import DEFAULT_SEGMENTATION, SegmentationConfig


class ConfigError(ValueError):
    """A config file is malformed or holds an out-of-range value."""


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 1
    batch_size: int = 1
    max_rounds: int = 1
    parallelism: int = 1
    # None disables early stopping; the loop then always runs all epochs.
    convergence_patience: int | None = None
    call_budget: int | None = None
    feedback: str = "none"
    seed: int = 42


@dataclass(frozen=True)
class GatewaySettings:
    backend: str = "scripted"
    model: str = "agent"
    summarizer_model: str = "agent"
    optimizer_model: str = "agent"
    repair_model: str = "agent"
    temperature: float = 0.0
    base_url: str | None = None


@dataclass(frozen=True)
class TaskSettings:
    kind: str = "toy"
    required_tokens: tuple[str, ...] = ()
    examples_open: tuple[str, ...] | None = None
    examples_close: tuple[str, ...] | None = None
    task_open: tuple[str, ...] | None = None
    format_open: tuple[str, ...] | None = None
    format_close: tuple[str, ...] | None = None

    def segmentation(self) -> SegmentationConfig:
        base = DEFAULT_SEGMENTATION
        return SegmentationConfig(
            examples_open=self.examples_open if self.examples_open is not None else base.examples_open,
            examples_close=self.examples_close if self.examples_close is not None else base.examples_close,
            task_open=self.task_open if self.task_open is not None else base.task_open,
            format_open=self.format_open if self.format_open is not None else base.format_open,
            format_close=self.format_close if self.format_close is not None else base.format_close,
        )


@dataclass(frozen=True)
class EngineConfig:
    train: TrainSettings = field(default_factory=TrainSettings)
    gateway: GatewaySettings = field(default_factory=GatewaySettings)
    task: TaskSettings = field(default_factory=TaskSettings)
    guards: GuardConfig = field(default_factory=GuardConfig)


_KNOWN_KEYS = {
    "train": {
        "epochs",
        "batch_size",
        "max_rounds",
        "parallelism",
        "convergence_patience",
        "call_budget",
        "feedback",
        "seed",
    },
    "gateway": {
        "backend",
        "model",
        "summarizer_model",
        "optimizer_model",
        "repair_model",
        "temperature",
        "base_url",
    },
    "task": {
        "kind",
        "required_tokens",
        "examples_open",
        "examples_close",
        "task_open",
        "format_open",
        "format_close",
    },
    "guards": {
        "extra_placeholder_patterns",
        "repair_attempts",
        "optimizer_attempts",
    },
}

_FEEDBACK_TAGS = {"none", "reflexion", "thinktrace", "rulecheck"}
_BACKENDS = {"scripted", "http"}


def _section(parser: configparser.ConfigParser, name: str) -> dict[str, str]:
    if not parser.has_section(name):
        return {}
    items = dict(parser.items(name))
    unknown = set(items) - _KNOWN_KEYS[name]
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
        )
    return items


def _get_int(items: dict[str, str], section: str, key: str, default: int, minimum: int = 1) -> int:
    raw = items.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ConfigError(f"[{section}] {key} must be >= {minimum}, got {value}")
    return value


def _get_opt_int(items: dict[str, str], section: str, key: str, minimum: int = 1) -> int | None:
    raw = items.get(key)
    if raw is None or raw.strip() == "":
        return None
    return _get_int(items, section, key, 0, minimum)


def _get_float(items: dict[str, str], section: str, key: str, default: float) -> float:
    raw = items.get(key)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    if value < 0:
        raise ConfigError(f"[{section}] {key} must be >= 0, got {value}")
    return value


def _get_list(items: dict[str, str], section: str, key: str) -> tuple[str, ...] | None:
    raw = items.get(key)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"[{section}] {key} must be a JSON array: {exc}") from None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"[{section}] {key} must be a JSON array of strings")
    return tuple(value)


def parse_config(text: str) -> EngineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]")

    t = _section(parser, "train")
    feedback = t.get("feedback", "none").strip() or "none"
    if feedback not in _FEEDBACK_TAGS:
        raise ConfigError(
            f"[train] feedback must be one of {sorted(_FEEDBACK_TAGS)}, got {feedback!r}"
        )
    train = TrainSettings(
        epochs=_get_int(t, "train", "epochs", 1),
        batch_size=_get_int(t, "train", "batch_size", 1),
        max_rounds=_get_int(t, "train", "max_rounds", 1),
        parallelism=_get_int(t, "train", "parallelism", 1),
        convergence_patience=_get_opt_int(t, "train", "convergence_patience"),
        call_budget=_get_opt_int(t, "train", "call_budget"),
        feedback=feedback,
        seed=_get_int(t, "train", "seed", 42, minimum=0),
    )

    g = _section(parser, "gateway")
    backend = g.get("backend", "scripted").strip() or "scripted"
    if backend not in _BACKENDS:
        raise ConfigError(
            f"[gateway] backend must be one of {sorted(_BACKENDS)}, got {backend!r}"
        )
    model = g.get("model", "agent").strip() or "agent"
    summarizer_model = g.get("summarizer_model", "").strip() or model
    optimizer_model = g.get("optimizer_model", "").strip() or summarizer_model
    repair_model = g.get("repair_model", "").strip() or optimizer_model
    base_url = g.get("base_url", "").strip() or None
    gateway = GatewaySettings(
        backend=backend,
        model=model,
        summarizer_model=summarizer_model,
        optimizer_model=optimizer_model,
        repair_model=repair_model,
        temperature=_get_float(g, "gateway", "temperature", 0.0),
        base_url=base_url,
    )

    k = _section(parser, "task")
    kind = k.get("kind", "toy").strip() or "toy"
    task = TaskSettings(
        kind=kind,
        required_tokens=_get_list(k, "task", "required_tokens") or (),
        examples_open=_get_list(k, "task", "examples_open"),
        examples_close=_get_list(k, "task", "examples_close"),
        task_open=_get_list(k, "task", "task_open"),
        format_open=_get_list(k, "task", "format_open"),
        format_close=_get_list(k, "task", "format_close"),
    )

    u = _section(parser, "guards")
    guards = GuardConfig(
        extra_placeholder_patterns=_get_list(u, "guards", "extra_placeholder_patterns") or (),
        repair_attempts=_get_int(u, "guards", "repair_attempts", 3),
        optimizer_attempts=_get_int(u, "guards", "optimizer_attempts", 3),
    )

    return EngineConfig(train=train, gateway=gateway, task=task, guards=guards)


def load_config(path: str | Path) -> EngineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
