"""Shared fixtures and script-building helpers."""
from __future__ import annotations

import collections
import contextlib
import http.server
import itertools
import os
import threading
from pathlib import Path

import pytest
import yaml

from reprompt.gateway import Caller, ScriptEntry, ScriptedGateway
from reprompt.prompt_model import DEFAULT_SEGMENTATION

FIXTURES = Path(__file__).parent / "fixtures"
PROMPT_FIXTURES = FIXTURES / "prompts"
GOLDEN = FIXTURES / "golden"

# The toy prompts mark their format line with this opener.
TOY_SEG = DEFAULT_SEGMENTATION._replace(format_open=("Your final answer",))


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


def enumerate_plans(sample) -> list[tuple[str, ...]]:
    """All plans for a toy sample, one option per day, in product order."""
    return [
        tuple(o.id for o in combo)
        for combo in itertools.product(*sample.options)
    ]


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
                line=None,
            )
        )
    return ScriptedGateway(built)


def make_caller(gateway, model="agent") -> Caller:
    """A caller at the golden run's temperature (0.0) and seed (42)."""
    return Caller(gateway, model, 0.0, 42)


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


class LoopbackServer(http.server.ThreadingHTTPServer):
    """A threaded HTTP server on a free loopback port, answering with
    ``handler``; ``url`` is the base URL an HttpGateway is given."""

    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.lock = threading.Lock()
        self.requests = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"


@contextlib.contextmanager
def serving(server):
    """Serve ``server`` on a thread while the block runs, then stop it."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def clear_proxies(monkeypatch):
    for name in list(os.environ):
        if "proxy" in name.lower():
            monkeypatch.delenv(name)


@pytest.fixture
def toy_seg():
    return TOY_SEG


@pytest.fixture
def file_reads(monkeypatch):
    """Counts ``Path.read_text``/``read_bytes`` calls per file name."""
    counts: collections.Counter = collections.Counter()
    for name in ("read_text", "read_bytes"):
        def counting(self, *args, _read=getattr(Path, name), **kwargs):
            counts[self.name] += 1
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(Path, name, counting)
    return counts
