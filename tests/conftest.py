"""Shared fixtures and script-building helpers."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
import yaml

from reprompt.gateway import Script, ScriptEntry, ScriptedGateway
from reprompt.prompt_model import DEFAULT_SEGMENTATION

FIXTURES = Path(__file__).parent / "fixtures"
PROMPT_FIXTURES = FIXTURES / "prompts"
GOLDEN = FIXTURES / "golden"

# The toy prompts mark their format line with this opener.
TOY_SEG = dataclasses.replace(
    DEFAULT_SEGMENTATION, format_open=("Your final answer",)
)


def entry(
    contains,
    response,
    roles=None,
    excludes=None,
    max_uses=None,
) -> dict:
    """One script entry in the YAML schema."""
    match: dict = {"contains": list(contains)}
    if roles is not None:
        match["roles"] = list(roles)
    if excludes:
        match["excludes"] = list(excludes)
    data: dict = {"match": match, "response": response}
    if max_uses is not None:
        data["max_uses"] = max_uses
    return data


def write_script(path: Path, entries: list[dict]) -> str:
    path.write_text(
        yaml.safe_dump(entries, sort_keys=False, allow_unicode=True),
        encoding="utf-8",
    )
    return str(path)


def make_gateway(*entries_data: dict) -> ScriptedGateway:
    """In-memory scripted gateway from entry dicts (same schema as YAML)."""
    built = []
    for data in entries_data:
        match = data["match"]
        built.append(
            ScriptEntry(
                contains=tuple(match["contains"]),
                response=data["response"],
                roles=tuple(match["roles"]) if match.get("roles") else None,
                excludes=tuple(match.get("excludes", ())),
                max_uses=data.get("max_uses"),
            )
        )
    return ScriptedGateway(Script(built))


class Recording:
    """Passes calls to a gateway and keeps (request, response content) pairs."""

    def __init__(self, inner):
        self._inner = inner
        self.history: list = []

    @property
    def calls(self) -> int:
        return self._inner.calls

    def complete(self, request):
        response = self._inner.complete(request)
        self.history.append((request, response.content))
        return response


def make_recording_gateway(*entries_data: dict) -> Recording:
    """Like ``make_gateway``, keeping every answered request in ``history``."""
    return Recording(make_gateway(*entries_data))


@pytest.fixture
def toy_seg():
    return TOY_SEG
