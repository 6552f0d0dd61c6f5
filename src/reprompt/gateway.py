"""Chat-completion access: one live HTTP backend and one scripted test double.

Both backends expose the same ``complete(request)`` surface and count every
logical call, so the trainer can do budget accounting no matter which one is
plugged in. The scripted backend matches requests against substring
fingerprints loaded from a script file and is the backbone of the golden
end-to-end fixtures.
"""
from __future__ import annotations

import collections
import itertools
import os
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol

import requests
import yaml
from requests.adapters import HTTPAdapter

from .errors import (
    AmbiguousScriptError,
    EmptyResponseError,
    RateLimitedError,
    RejectedError,
    ScriptParseError,
    TransportError,
)
from .yamlio import SafeLoader

DEFAULT_TEMPERATURE = 0.0
DEFAULT_SEED = 42

API_KEY_ENV = "REPROMPT_API_KEY"
BASE_URL_ENV = "REPROMPT_BASE_URL"


class Role(Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class Message:
    role: Role
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    model: str = "agent"
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = DEFAULT_SEED
    max_output: int | None = None

    def __post_init__(self):
        if not self.messages:
            raise ValueError("a request needs at least one message")
        if self.messages[0].role is Role.ASSISTANT:
            raise ValueError("the first message must come from system or user")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")


class FinishReason(Enum):
    STOP = "stop"
    LENGTH = "length"
    OTHER = "other"


@dataclass(frozen=True)
class Usage:
    prompt_units: int = 0
    output_units: int = 0


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: FinishReason
    usage: Usage = field(default_factory=Usage)


class Gateway(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...

    @property
    def calls(self) -> int: ...


class _CallCounter:
    """Thread-safe counter of logical completion calls."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = 0

    def bump(self) -> None:
        with self._lock:
            self._calls += 1

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls


# --- scripted backend ---------------------------------------------------------


@dataclass
class ScriptEntry:
    """One canned response, matched by substring fingerprint.

    ``contains`` anchors must appear in order within the request content
    (all message contents joined with newlines), without overlapping.
    ``roles`` pins the exact role sequence when given. ``excludes`` lets an
    entry opt out when a marker is present, which is how scripts branch on
    prompt content. ``max_uses`` retires the entry after that many matches.
    """

    contains: tuple[str, ...]
    response: str
    roles: tuple[str, ...] | None = None
    excludes: tuple[str, ...] = ()
    max_uses: int | None = None
    line: int | None = None
    uses: int = 0

    def fingerprint(self) -> tuple:
        return (self.contains, self.roles, self.excludes)


@dataclass
class Script:
    entries: list[ScriptEntry]


_ROLE_VALUES = {r.value for r in Role}


def _entry_from_mapping(data, line: int | None) -> ScriptEntry:
    if not isinstance(data, dict):
        raise ScriptParseError("script entry must be a mapping", line)
    match = data.get("match")
    if not isinstance(match, dict) or "contains" not in match:
        raise ScriptParseError("entry is missing match.contains", line)
    contains = match["contains"]
    if (
        not isinstance(contains, list)
        or not contains
        or not all(isinstance(s, str) and s for s in contains)
    ):
        raise ScriptParseError(
            "match.contains must be a non-empty list of non-empty strings", line
        )
    roles = match.get("roles")
    if roles is not None:
        if not isinstance(roles, list) or not all(
            isinstance(r, str) and r in _ROLE_VALUES for r in roles
        ):
            raise ScriptParseError(
                "match.roles must list roles from system/user/assistant", line
            )
        roles = tuple(roles)
    excludes = match.get("excludes", [])
    if not isinstance(excludes, list) or not all(
        isinstance(s, str) and s for s in excludes
    ):
        raise ScriptParseError("match.excludes must be a list of strings", line)
    if "response" not in data or not isinstance(data["response"], str):
        raise ScriptParseError("entry is missing a string response", line)
    max_uses = data.get("max_uses")
    if max_uses is not None and (not isinstance(max_uses, int) or max_uses < 1):
        raise ScriptParseError("max_uses must be a positive integer", line)
    return ScriptEntry(
        contains=tuple(contains),
        response=data["response"],
        roles=roles,
        excludes=tuple(excludes),
        max_uses=max_uses,
        line=line,
    )


def load_script(path: str) -> Script:
    """Load a script file, preserving entry order.

    The file is composed once; the data is built from that node tree, whose
    marks give each entry's line. Raises ScriptParseError with a line number
    for malformed files and AmbiguousScriptError when two entries share a
    fingerprint.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    loader = SafeLoader(text)
    try:
        root = loader.get_single_node()
        data = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ScriptParseError(f"invalid script file: {exc}", line) from exc
    finally:
        loader.dispose()
    if data is None:
        raise ScriptParseError("script file is empty", 1)
    if not isinstance(data, list):
        raise ScriptParseError("a script is a list of entries", 1)
    entries = [
        _entry_from_mapping(item, node.start_mark.line + 1)
        for item, node in zip(data, root.value)
    ]
    seen: dict[tuple, int | None] = {}
    for entry in entries:
        key = entry.fingerprint()
        if key in seen:
            raise AmbiguousScriptError(
                f"entries at lines {seen[key]} and {entry.line} share a fingerprint"
            )
        seen[key] = entry.line
    return Script(entries=entries)


# Past this many nested branch points the needle regex lists the remaining
# suffixes flat, so that neither ``re`` nor ``_longest_of`` recurses deeper.
_MAX_NESTING = 64


def _longest_of(suffixes: list[str], depth: int = 0) -> str:
    """A regex that matches the longest of ``suffixes`` (sorted, distinct).

    The suffixes are factored into a trie: ``re`` then tests one literal
    per branch point at each position, however many needles there are.
    """
    optional = suffixes[0] == ""
    rest = suffixes[1:] if optional else suffixes
    if not rest:
        return ""
    if depth >= _MAX_NESTING:
        branches = [re.escape(s) for s in sorted(rest, key=len, reverse=True)]
    else:
        branches = []
        for _, group in itertools.groupby(rest, key=lambda s: s[0]):
            group = list(group)
            shared = os.path.commonprefix(group)
            tails = [s[len(shared):] for s in group]
            branches.append(re.escape(shared) + _longest_of(tails, depth + 1))
    if len(branches) == 1 and not optional:
        return branches[0]
    return "(?:" + "|".join(branches) + ")" + ("?" if optional else "")


class _AnchorIndex:
    """The entries that share one role signature, indexed by their needles.

    A needle is any ``contains`` or ``excludes`` string. One ``re`` pass
    over the request finds, at every position, the longest needle that
    starts there; every needle that is a prefix of it occurs there too.
    Each entry is keyed on its rarest anchor (the one the fewest entries
    share), so a request looks only at the entries whose key occurs. Of
    those, only the ones whose anchors all occur and whose excludes do not
    get the in-order ``find`` check.
    """

    def __init__(self, entries: list[tuple[int, ScriptEntry]]):
        needles = sorted({n for _, e in entries for n in (*e.contains, *e.excludes)})
        pattern = f"(?=({_longest_of(needles)}))" if needles else "(?!)"
        self._find = re.compile(pattern).findall
        lengths = sorted({len(n) for n in needles})
        known = set(needles)
        self._prefixes = {
            n: frozenset(n[:k] for k in lengths if k <= len(n) and n[:k] in known)
            for n in needles
        }
        sharing = collections.Counter(a for _, e in entries for a in set(e.contains))
        self._by_key: dict[str | None, list[tuple]] = {}
        for index, e in entries:
            key = min(e.contains, key=sharing.__getitem__, default=None)
            self._by_key.setdefault(key, []).append(
                (index, e, frozenset(e.contains), frozenset(e.excludes))
            )

    def matches(self, joined: str) -> list[tuple[int, ScriptEntry]]:
        """(script index, entry) for every entry matching the request text."""
        present: set[str] = set()
        for longest in set(self._find(joined)):
            present |= self._prefixes[longest]
        return [
            (index, e)
            for key in (None, *present)
            for index, e, anchors, excludes in self._by_key.get(key, ())
            if anchors <= present
            and excludes.isdisjoint(present)
            and _in_order(e.contains, joined)
        ]


def _in_order(anchors: tuple[str, ...], joined: str) -> bool:
    position = 0
    for anchor in anchors:
        found = joined.find(anchor, position)
        if found < 0:
            return False
        position = found + len(anchor)
    return True


class ScriptedGateway:
    """Closed-world backend answering only requests its script anticipates.

    Matching is exact-one: no live entry matching a request raises
    RejectedError ("unscripted request"), more than one raises
    AmbiguousScriptError, listing the entries' lines in script order. With
    no ``max_uses`` in play the backend is a pure function of the script
    and the request.

    The script is indexed once, here, and must not change afterwards.
    Entries are grouped by their pinned role sequence; a request consults
    its own group and the group of entries that pin none. Per call the cost
    is one regex pass over the request text, whose work grows with the
    text and not with the number of entries, plus a check of the few
    entries whose rarest anchor occurs. Only the ``max_uses`` check and
    bump run under the lock, so concurrent episodes match in parallel.
    """

    def __init__(self, script: Script):
        grouped: dict[tuple[str, ...] | None, list] = {}
        for index, entry in enumerate(script.entries):
            grouped.setdefault(entry.roles, []).append((index, entry))
        self._indexes = {roles: _AnchorIndex(group) for roles, group in grouped.items()}
        self._lock = threading.Lock()
        self._counter = _CallCounter()

    @property
    def calls(self) -> int:
        return self._counter.calls

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        roles = tuple(m.role.value for m in request.messages)
        joined = "\n".join(m.content for m in request.messages)
        matched = sorted(
            hit
            for key in (roles, None)
            if key in self._indexes
            for hit in self._indexes[key].matches(joined)
        )
        with self._lock:
            live = [
                e for _, e in matched if e.max_uses is None or e.uses < e.max_uses
            ]
            if not live:
                raise RejectedError("unscripted request")
            if len(live) > 1:
                lines = ", ".join(str(e.line) for e in live)
                raise AmbiguousScriptError(
                    f"request matched several script entries (lines {lines})"
                )
            entry = live[0]
            entry.uses += 1
        if entry.response == "":
            raise EmptyResponseError("scripted response is empty")
        return ChatResponse(
            content=entry.response,
            finish_reason=FinishReason.STOP,
            usage=Usage(prompt_units=len(joined), output_units=len(entry.response)),
        )


# --- HTTP backend -------------------------------------------------------------

_FINISH_MAP = {"stop": FinishReason.STOP, "length": FinishReason.LENGTH}


class HttpGateway:
    """OpenAI-compatible chat-completions client.

    Transport failures and 429 responses are retried up to ``attempts``
    times with a fixed backoff schedule; other 4xx answers are rejected
    outright. The bearer token is read from the environment so secrets
    never travel through config files.

    Without a ``transport``, calls go over keep-alive connections: each
    thread posts through its own ``requests.Session``, and all sessions
    share one connection pool, so a run reuses a connection for call after
    call, across the worker threads of every batch. A pooled connection
    the server has closed is dialled again before it is used. The pool
    keeps up to 10 idle connections per host; the connections close when
    the gateway is garbage-collected.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        attempts: int = 3,
        backoff: tuple[float, ...] = (1.0, 2.0, 4.0),
        timeout: float = 60.0,
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        resolved = base_url or os.environ.get(BASE_URL_ENV)
        if not resolved:
            raise ValueError(
                f"no base URL given and {BASE_URL_ENV} is not set"
            )
        self._base_url = resolved.rstrip("/")
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._attempts = attempts
        self._backoff = backoff
        self._timeout = timeout
        if transport is None:
            self._adapter = HTTPAdapter()
            self._local = threading.local()
            transport = self._pooled_post
        self._post = transport
        self._sleep = sleep
        self._counter = _CallCounter()

    @property
    def calls(self) -> int:
        return self._counter.calls

    def _pooled_post(self, url: str, **kwargs) -> requests.Response:
        # requests does not promise that a Session is thread-safe, so each
        # thread gets its own; the shared adapter's urllib3 pool is.
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
            session.mount("http://", self._adapter)
            session.mount("https://", self._adapter)
        return session.post(url, **kwargs)

    def _payload(self, request: ChatRequest) -> dict:
        payload = {
            "model": request.model,
            "messages": [
                {"role": m.role.value, "content": m.content}
                for m in request.messages
            ],
            "temperature": request.temperature,
            "seed": request.seed,
        }
        if request.max_output is not None:
            payload["max_tokens"] = request.max_output
        return payload

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        url = f"{self._base_url}/chat/completions"
        payload = self._payload(request)
        last_error: Exception | None = None
        for attempt in range(self._attempts):
            if attempt > 0:
                delay = self._backoff[min(attempt - 1, len(self._backoff) - 1)]
                self._sleep(delay)
            try:
                http = self._post(
                    url, json=payload, headers=headers, timeout=self._timeout
                )
            except requests.RequestException as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            status = http.status_code
            if status == 429:
                last_error = RateLimitedError("endpoint returned 429")
                continue
            if status >= 500:
                last_error = TransportError(f"endpoint returned {status}")
                continue
            if status != 200:
                raise RejectedError(f"endpoint returned {status}: {http.text[:200]}")
            try:
                body = http.json()
            except ValueError as exc:
                raise TransportError(f"non-JSON completion body: {exc}") from exc
            return self._parse_body(body)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse_body(body: dict) -> ChatResponse:
        try:
            choice = body["choices"][0]
            content = choice["message"]["content"]
            finish = choice.get("finish_reason", "other")
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion body: {exc}") from exc
        if content is None:
            content = ""
        reason = _FINISH_MAP.get(finish, FinishReason.OTHER)
        if reason is FinishReason.STOP and content == "":
            raise EmptyResponseError("model finished with empty content")
        usage = body.get("usage") or {}
        return ChatResponse(
            content=content,
            finish_reason=reason,
            usage=Usage(
                prompt_units=int(usage.get("prompt_tokens", 0)),
                output_units=int(usage.get("completion_tokens", 0)),
            ),
        )
