"""Chat-completion access: one live HTTP backend and one scripted test double.

Both backends expose the same ``complete(request)`` surface and count every
logical call, so the trainer can do budget accounting no matter which one is
plugged in. The scripted backend matches requests against substring
fingerprints loaded from a script file and is the backbone of the golden
end-to-end fixtures. ``Caller`` binds a backend to one stage's model,
temperature and seed; it is where every request the engine sends is built.
"""
from __future__ import annotations

import collections
import itertools
import json
import os
import re
import threading
import time
from enum import Enum
from typing import Callable, NamedTuple, Protocol

from .errors import (
    AmbiguousScriptError,
    EmptyResponseError,
    GatewayError,
    RateLimitedError,
    RejectedError,
    ScriptParseError,
    StageCallError,
    TransportError,
)

API_KEY_ENV = "REPROMPT_API_KEY"
BASE_URL_ENV = "REPROMPT_BASE_URL"


class Role(Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class Message(NamedTuple):
    role: Role
    content: str


class ChatRequest(NamedTuple):
    messages: tuple[Message, ...]
    model: str
    temperature: float
    seed: int


class Usage(NamedTuple):
    prompt_units: int
    output_units: int


class ChatResponse(NamedTuple):
    content: str
    usage: Usage


class Gateway(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...

    @property
    def calls(self) -> int: ...


class Caller(NamedTuple):
    """A gateway bound to one stage's model, temperature and seed.

    Every request the engine sends is built here, so two calls through the
    same caller differ only in their messages. A caller with a ``stage``
    raises its gateway's errors as a StageCallError naming that stage.
    """

    gateway: Gateway
    model: str
    temperature: float
    seed: int
    stage: str | None = None

    def complete(self, messages: tuple[Message, ...]) -> ChatResponse:
        request = ChatRequest(
            messages=messages,
            model=self.model,
            temperature=self.temperature,
            seed=self.seed,
        )
        try:
            return self.gateway.complete(request)
        except GatewayError as exc:
            if self.stage is None:
                raise
            raise StageCallError(self.stage, exc) from exc

    def ask(self, system: str, user: str, note: str | None = None) -> str:
        """One system and one user message; ``note``, when given, follows
        as a second user message (a retry's corrective note)."""
        messages = (Message(Role.SYSTEM, system), Message(Role.USER, user))
        if note is not None:
            messages += (Message(Role.USER, note),)
        return self.complete(messages).content


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


class ScriptEntry(NamedTuple):
    """One canned response, matched by substring fingerprint.

    ``contains`` anchors must appear in order within the request content
    (all message contents joined with newlines), without overlapping.
    ``roles`` pins the exact role sequence when given. ``excludes`` lets an
    entry opt out when a marker is present, which is how scripts branch on
    prompt content. ``max_uses`` retires the entry after that many matches.
    """

    contains: tuple[str, ...]
    response: str
    roles: tuple[str, ...] | None
    excludes: tuple[str, ...]
    max_uses: int | None
    line: int | None


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
    if max_uses is not None and (
        isinstance(max_uses, bool) or not isinstance(max_uses, int) or max_uses < 1
    ):
        raise ScriptParseError("max_uses must be a positive integer", line)
    return ScriptEntry(
        contains=tuple(contains),
        response=data["response"],
        roles=roles,
        excludes=tuple(excludes),
        max_uses=max_uses,
        line=line,
    )


def load_script(path: str) -> list[ScriptEntry]:
    """Load a script file, preserving entry order.

    The file is composed once; the data is built from that node tree, whose
    marks give each entry's line. Raises ScriptParseError with a line number
    for malformed files and AmbiguousScriptError when two entries share a
    fingerprint: the same ``contains``, ``roles`` and ``excludes``.
    """
    import yaml

    from .yamlio import safe_loader

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    loader = safe_loader()(text)
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
        key = (entry.contains, entry.roles, entry.excludes)
        if key in seen:
            raise AmbiguousScriptError(
                f"entries at lines {seen[key]} and {entry.line} share a fingerprint"
            )
        seen[key] = entry.line
    return entries


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

    The script is indexed once, here, and must not change afterwards. The
    gateway counts each entry's uses itself, by script position, so the
    script it is handed is never changed and can build another gateway.
    Entries are grouped by their pinned role sequence; a request consults
    its own group and the group of entries that pin none. Per call the cost
    is one regex pass over the request text, whose work grows with the
    text and not with the number of entries, plus a check of the few
    entries whose rarest anchor occurs. Only the ``max_uses`` check and
    count run under the lock, so concurrent episodes match in parallel.
    """

    def __init__(self, script: list[ScriptEntry]):
        grouped: dict[tuple[str, ...] | None, list] = {}
        for index, entry in enumerate(script):
            grouped.setdefault(entry.roles, []).append((index, entry))
        self._indexes = {roles: _AnchorIndex(group) for roles, group in grouped.items()}
        self._uses = [0] * len(script)  # by script index
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
                (i, e) for i, e in matched
                if e.max_uses is None or self._uses[i] < e.max_uses
            ]
            if not live:
                raise RejectedError("unscripted request")
            if len(live) > 1:
                lines = ", ".join(str(e.line) for _, e in live)
                raise AmbiguousScriptError(
                    f"request matched several script entries (lines {lines})"
                )
            [(index, entry)] = live
            self._uses[index] += 1
        if entry.response == "":
            raise EmptyResponseError("scripted response is empty")
        return ChatResponse(
            content=entry.response,
            usage=Usage(prompt_units=len(joined), output_units=len(entry.response)),
        )


# --- HTTP backend -------------------------------------------------------------

# A 429, a 5xx answer or a transport error is tried again after these
# delays, so a call makes at most three attempts.
_BACKOFF = (1.0, 2.0)
# Seconds a new connection waits to connect, and then for each read.
_TIMEOUT = 60.0


class HttpGateway:
    """OpenAI-compatible chat-completions client.

    A call makes up to three attempts. A 429 or 5xx answer, or a transport
    failure, is tried again after 1 s and then 2 s (``_BACKOFF``); any other
    non-200 answer is rejected outright. Connections time out after 60 s
    (``_TIMEOUT``). The bearer token is read from ``REPROMPT_API_KEY`` when
    the gateway is built, so secrets never travel through config files.

    Calls go over the HTTP/1.1 keep-alive connections of ``http11``,
    which every thread of every batch shares: a run holds one connection
    per concurrent caller and reuses it call after call, and each request
    goes out in one write (see ``http11.Connections``). Proxies are read
    from the environment once, when the gateway is built, and ``https``
    uses the system trust store. ``http11`` is imported when the first
    gateway is built, so a process that never builds one does not load it.
    """

    def __init__(
        self,
        base_url: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        from . import http11

        resolved = base_url or os.environ.get(BASE_URL_ENV)
        if not resolved:
            raise ValueError(
                f"no base URL given and {BASE_URL_ENV} is not set"
            )
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        self._connections = http11.Connections(
            f"{resolved.rstrip('/')}/chat/completions", headers, _TIMEOUT
        )
        self._sleep = sleep
        self._counter = _CallCounter()

    @property
    def calls(self) -> int:
        return self._counter.calls

    def _payload(self, request: ChatRequest) -> bytes:
        return json.dumps({
            "model": request.model,
            "messages": [
                {"role": m.role.value, "content": m.content}
                for m in request.messages
            ],
            "temperature": request.temperature,
            "seed": request.seed,
        }).encode("utf-8")

    def complete(self, request: ChatRequest) -> ChatResponse:
        self._counter.bump()
        payload = self._payload(request)
        last_error: Exception | None = None
        for attempt in range(len(_BACKOFF) + 1):
            if attempt > 0:
                self._sleep(_BACKOFF[attempt - 1])
            try:
                status, body = self._connections.post(payload)
            except OSError as exc:
                last_error = TransportError(f"request failed: {exc}")
                continue
            if status == 429:
                last_error = RateLimitedError("endpoint returned 429")
                continue
            if status >= 500:
                last_error = TransportError(f"endpoint returned {status}")
                continue
            if status != 200:
                text = body.decode("utf-8", "replace")
                raise RejectedError(f"endpoint returned {status}: {text[:200]}")
            try:
                parsed = json.loads(body)
            except ValueError as exc:
                raise TransportError(f"non-JSON completion body: {exc}") from exc
            return self._parse_body(parsed)
        raise last_error

    @staticmethod
    def _parse_body(body: dict) -> ChatResponse:
        """The response in a completion body. A body without a message, a
        content that is neither a string nor null, or a usage that is not
        a mapping of non-negative integer counts raises TransportError; an
        empty content with finish reason ``"stop"`` raises
        EmptyResponseError."""
        try:
            choice = body["choices"][0]
            content = choice["message"]["content"]
            finish = choice.get("finish_reason")
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion body: {exc}") from exc
        if content is None:
            content = ""
        if not isinstance(content, str):
            raise TransportError(
                f"malformed completion body: content is {type(content).__name__}"
            )
        usage = body.get("usage") or {}
        units = (
            (usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0))
            if isinstance(usage, dict) else (None,)
        )
        if not all(type(n) is int and n >= 0 for n in units):
            raise TransportError(f"malformed completion body: usage {usage!r}")
        if finish == "stop" and content == "":
            raise EmptyResponseError("model finished with empty content")
        return ChatResponse(
            content=content,
            usage=Usage(prompt_units=units[0], output_units=units[1]),
        )
