"""INI configuration for training and evaluation runs.

Four sections: [train], [gateway], [task], [guards], one settings class
each; the class holds every default. Scalar values are plain INI; list
values are JSON arrays so they survive commas and quoting. A key left out
or empty takes its class default. Unknown keys are rejected to catch typos
early.
"""
from __future__ import annotations

import configparser
import json
import math
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .prompt_model import DEFAULT_SEGMENTATION, SegmentationConfig


class ConfigError(ValueError):
    """A config file is malformed or holds an out-of-range value."""


class TrainSettings(NamedTuple):
    epochs: int = 1
    batch_size: int = 1
    max_rounds: int = 1
    parallelism: int = 1
    # None disables early stopping; the loop then always runs all epochs.
    convergence_patience: int | None = None
    call_budget: int | None = None
    feedback: str = "none"
    seed: int = 42


class GatewaySettings(NamedTuple):
    backend: str = "scripted"
    model: str = "agent"
    summarizer_model: str = "agent"
    optimizer_model: str = "agent"
    repair_model: str = "agent"
    temperature: float = 0.0
    base_url: str | None = None


class TaskSettings(NamedTuple):
    kind: str = "toy"
    required_tokens: tuple[str, ...] = ()
    examples_open: tuple[str, ...] = DEFAULT_SEGMENTATION.examples_open
    examples_close: tuple[str, ...] = DEFAULT_SEGMENTATION.examples_close
    task_open: tuple[str, ...] = DEFAULT_SEGMENTATION.task_open
    format_open: tuple[str, ...] = DEFAULT_SEGMENTATION.format_open
    format_close: tuple[str, ...] = DEFAULT_SEGMENTATION.format_close

    def segmentation(self) -> SegmentationConfig:
        return SegmentationConfig(
            examples_open=self.examples_open,
            examples_close=self.examples_close,
            task_open=self.task_open,
            format_open=self.format_open,
            format_close=self.format_close,
        )


class GuardConfig(NamedTuple):
    extra_placeholder_patterns: tuple[str, ...] = ()
    repair_attempts: int = 3
    optimizer_attempts: int = 3


class EngineConfig(NamedTuple):
    train: TrainSettings = TrainSettings()
    gateway: GatewaySettings = GatewaySettings()
    task: TaskSettings = TaskSettings()
    guards: GuardConfig = GuardConfig()


# A reader turns a key's raw text into its value; ``where`` names the key
# ("[train] epochs") for the error message.
_Reader = Callable[[str, str], Any]


def _int(minimum: int) -> _Reader:
    def read(raw: str, where: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where} must be an integer, got {raw!r}") from None
        if value < minimum:
            raise ConfigError(f"{where} must be >= {minimum}, got {value}")
        return value

    return read


def _float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    if value < 0:
        raise ConfigError(f"{where} must be >= 0, got {value}")
    return value


def _text(raw: str, where: str) -> str:
    return raw.strip()


def _one_of(choices: set[str]) -> _Reader:
    def read(raw: str, where: str) -> str:
        value = raw.strip()
        if value not in choices:
            raise ConfigError(f"{where} must be one of {sorted(choices)}, got {value!r}")
        return value

    return read


def _list(raw: str, where: str) -> tuple[str, ...]:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} must be a JSON array: {exc}") from None
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a JSON array of strings")
    return tuple(value)


# Each section's settings class and the reader of each of its keys, in
# the order they are read (so the first bad value is the one reported). A
# key left out or empty is not passed, so the class default applies.
_SECTIONS: dict[str, tuple[type, dict[str, _Reader]]] = {
    "train": (TrainSettings, {
        "feedback": _one_of({"none", "reflexion", "thinktrace", "rulecheck"}),
        "epochs": _int(1),
        "batch_size": _int(1),
        "max_rounds": _int(1),
        "parallelism": _int(1),
        "convergence_patience": _int(1),
        "call_budget": _int(1),
        "seed": _int(0),
    }),
    "gateway": (GatewaySettings, {
        "backend": _one_of({"scripted", "http"}),
        "model": _text,
        "summarizer_model": _text,
        "optimizer_model": _text,
        "repair_model": _text,
        "temperature": _float,
        "base_url": _text,
    }),
    "task": (TaskSettings, {
        "kind": _text,
        "required_tokens": _list,
        "examples_open": _list,
        "examples_close": _list,
        "task_open": _list,
        "format_open": _list,
        "format_close": _list,
    }),
    "guards": (GuardConfig, {
        "extra_placeholder_patterns": _list,
        "repair_attempts": _int(1),
        "optimizer_attempts": _int(1),
    }),
}

# A stage's model left out takes the model of the stage before it.
_MODEL_CASCADE = ("model", "summarizer_model", "optimizer_model", "repair_model")


def _read_section(parser: configparser.ConfigParser, name: str) -> dict[str, Any]:
    if not parser.has_section(name):
        return {}
    items = dict(parser.items(name))
    readers = _SECTIONS[name][1]
    unknown = set(items) - set(readers)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
        )
    return {
        key: read(items[key], f"[{name}] {key}")
        for key, read in readers.items()
        if items.get(key, "").strip()
    }


def parse_config(text: str) -> EngineConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    values = {name: _read_section(parser, name) for name in _SECTIONS}
    models = values["gateway"]
    for before, key in zip(_MODEL_CASCADE, _MODEL_CASCADE[1:]):
        if key not in models and before in models:
            models[key] = models[before]
    return EngineConfig(**{
        name: settings(**values[name]) for name, (settings, _) in _SECTIONS.items()
    })


def load_config(path: str | Path) -> EngineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)
