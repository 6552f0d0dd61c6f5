import base64
import http.server
import itertools
import json
import os
import select
import socket
import socketserver
import subprocess
import sys
import textwrap
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprompt.errors import (
    AmbiguousScriptError,
    EmptyResponseError,
    RateLimitedError,
    RejectedError,
    ScriptParseError,
    TransportError,
)
from reprompt.gateway import (
    API_KEY_ENV,
    BASE_URL_ENV,
    ChatRequest,
    HttpGateway,
    Message,
    Role,
    ScriptEntry,
    ScriptedGateway,
    Usage,
    load_script,
)

from conftest import entry, make_gateway, write_script


def req(*parts, model="agent"):
    """Build a request from (role, content) pairs or bare user strings."""
    messages = []
    for part in parts:
        if isinstance(part, str):
            messages.append(Message(Role.USER, part))
        else:
            role, content = part
            messages.append(Message(Role(role), content))
    return ChatRequest(
        messages=tuple(messages), model=model, temperature=0.0, seed=42
    )


# --- entry matching -------------------------------------------------------------


def matches(e: ScriptEntry, request: ChatRequest) -> bool:
    """Whether a gateway scripted with ``e`` alone answers ``request``."""
    try:
        ScriptedGateway([e]).complete(request)
    except RejectedError:
        return False
    return True


def test_contains_anchors_must_appear_in_order():
    e = ScriptEntry(
        contains=("alpha", "beta"), response="r", roles=None, excludes=(), max_uses=None, line=None
    )
    assert matches(e, req("alpha then beta"))
    assert not matches(e, req("beta then alpha"))


def test_contains_anchors_may_not_overlap():
    e = ScriptEntry(
        contains=("aa", "aa"), response="r", roles=None, excludes=(), max_uses=None, line=None
    )
    assert not matches(e, req("aaa"))
    assert matches(e, req("aaaa"))


def test_anchors_span_message_boundaries():
    e = ScriptEntry(
        contains=("first", "second"), response="r", roles=None, excludes=(), max_uses=None, line=None
    )
    assert matches(e, req(("system", "the first part"), ("user", "the second part")))


def test_roles_pin_the_exact_sequence():
    e = ScriptEntry(
        contains=("x",), roles=("system", "user"), response="r",
        excludes=(), max_uses=None, line=None,
    )
    assert matches(e, req(("system", "x"), ("user", "y")))
    assert not matches(e, req("x"))
    assert not matches(e, req(("system", "x"), ("user", "y"), ("user", "z")))


def test_excludes_veto_a_match():
    e = ScriptEntry(
        contains=("x",), excludes=("stop word",), response="r",
        roles=None, max_uses=None, line=None,
    )
    assert matches(e, req("x marks the spot"))
    assert not matches(e, req("x plus the stop word"))


def test_anchor_that_prefixes_another_needle_at_the_same_position():
    gw = make_gateway(
        entry(["Task"], "short"), entry(["Task id"], "long", excludes=["s10"])
    )
    assert gw.complete(req("Task id: s10")).content == "short"
    with pytest.raises(AmbiguousScriptError):
        gw.complete(req("Task id: s11"))


# --- scripted gateway ------------------------------------------------------------


def test_single_match_returns_response():
    gw = make_gateway(entry(["hello"], "world"))
    res = gw.complete(req("say hello"))
    assert res.content == "world"
    assert gw.calls == 1
    assert res.usage == Usage(prompt_units=len("say hello"), output_units=len("world"))


def test_unscripted_request_is_rejected():
    gw = make_gateway(entry(["hello"], "world"))
    with pytest.raises(RejectedError, match="unscripted"):
        gw.complete(req("goodbye"))
    assert gw.calls == 1


def test_double_match_is_ambiguous():
    gw = make_gateway(entry(["alpha"], "a"), entry(["beta"], "b"))
    with pytest.raises(AmbiguousScriptError):
        gw.complete(req("alpha and beta"))


def test_max_uses_retires_an_entry():
    gw = make_gateway(entry(["go"], "once", max_uses=1))
    assert gw.complete(req("go")).content == "once"
    with pytest.raises(RejectedError):
        gw.complete(req("go"))


def test_gateways_share_a_script_without_sharing_its_uses():
    script = [ScriptEntry(
        contains=("go",), response="once", max_uses=1, roles=None, excludes=(), line=None
    )]
    first, second = ScriptedGateway(script), ScriptedGateway(script)
    assert first.complete(req("go")).content == "once"
    assert second.complete(req("go")).content == "once"
    with pytest.raises(RejectedError):
        first.complete(req("go"))
    assert script == [ScriptEntry(
        contains=("go",), response="once", max_uses=1, roles=None, excludes=(), line=None
    )]


def test_round_dependent_entries_via_roles():
    first = entry(["Task id: s1"], "round one", roles=["user"])
    second = entry(
        ["Task id: s1"], "round two", roles=["user", "assistant", "user"]
    )
    gw = make_gateway(first, second)
    assert gw.complete(req("Task id: s1")).content == "round one"
    followup = req(
        ("user", "Task id: s1"), ("assistant", "round one"), ("user", "try again")
    )
    assert gw.complete(followup).content == "round two"
    assert gw.calls == 2


def test_empty_scripted_response_raises():
    gw = make_gateway(entry(["x"], ""))
    with pytest.raises(EmptyResponseError):
        gw.complete(req("x"))
    assert gw.calls == 1


# --- reference matcher and differential test -------------------------------------


class LinearGateway:
    """The matcher before indexing: every live entry checked against the
    whole request, in script order. Kept as the reference the indexed
    ScriptedGateway must agree with."""

    def __init__(self, entries):
        self._entries = list(entries)
        self._uses = [0] * len(self._entries)

    @staticmethod
    def _matches(e, request):
        if e.roles is not None:
            if tuple(m.role.value for m in request.messages) != e.roles:
                return False
        joined = "\n".join(m.content for m in request.messages)
        position = 0
        for anchor in e.contains:
            found = joined.find(anchor, position)
            if found < 0:
                return False
            position = found + len(anchor)
        return all(marker not in joined for marker in e.excludes)

    def complete(self, request):
        matched = [
            i for i, e in enumerate(self._entries)
            if (e.max_uses is None or self._uses[i] < e.max_uses)
            and self._matches(e, request)
        ]
        if not matched:
            raise RejectedError("unscripted request")
        if len(matched) > 1:
            lines = ", ".join(str(self._entries[i].line) for i in matched)
            raise AmbiguousScriptError(
                f"request matched several script entries (lines {lines})"
            )
        self._uses[matched[0]] += 1
        return self._entries[matched[0]].response


def outcome(gateway, request):
    try:
        result = gateway.complete(request)
    except (RejectedError, AmbiguousScriptError) as exc:
        return type(exc), str(exc)
    return getattr(result, "content", result)


ROLE_SEQUENCES = [("user",), ("system", "user"), ("user", "assistant", "user")]
# A two-letter alphabet makes anchors that prefix, contain, repeat and
# overlap each other, and excludes that overlap anchors.
needle = st.text(alphabet="ab", min_size=1, max_size=4)


@st.composite
def cases(draw):
    """A script and a sequence of requests to send it."""
    pool = draw(st.lists(needle, min_size=1, max_size=6, unique=True))
    from_pool = st.sampled_from(pool)
    entries = []
    for i in range(draw(st.integers(1, 8))):
        entries.append(ScriptEntry(
            contains=tuple(draw(st.lists(from_pool, min_size=1, max_size=3))),
            excludes=tuple(draw(st.lists(from_pool, max_size=2))),
            roles=draw(st.none() | st.sampled_from(ROLE_SEQUENCES)),
            max_uses=draw(st.none() | st.integers(1, 2)),
            response=f"r{i}",
            line=i + 1,
        ))
    # Texts are built from the needles themselves, so that a needle often
    # occurs only where a longer needle it prefixes starts.
    text = st.lists(from_pool | st.sampled_from(["a", "b", "\n"]), max_size=5).map("".join)
    sequence = []
    for _ in range(draw(st.integers(1, 8))):
        roles = draw(st.sampled_from(ROLE_SEQUENCES))
        sequence.append(req(*((r, draw(text)) for r in roles)))
    return entries, sequence


@settings(max_examples=200, deadline=None)
@given(cases())
def test_indexed_matching_agrees_with_linear_reference(case):
    entries, sequence = case
    reference = LinearGateway(entries)
    indexed = ScriptedGateway(entries)
    for request in sequence:
        assert outcome(indexed, request) == outcome(reference, request)


def test_needles_nested_past_the_flat_cutoff_still_match():
    # 150 needles, each a prefix of the next: the trie nests deeper than
    # the regex builder factors before it lists suffixes flat.
    entries = [
        ScriptEntry(contains=("a" * k,), excludes=("a" * (k + 1),), response=f"r{k}",
                    roles=None, max_uses=None, line=k)
        for k in range(1, 151)
    ]
    indexed = ScriptedGateway(entries)
    reference = LinearGateway(entries)
    for n in (1, 63, 64, 65, 149, 150, 151):
        request = req("b" + "a" * n + "b")
        assert outcome(indexed, request) == outcome(reference, request)


# --- script files -----------------------------------------------------------------


def test_load_script_round_trip(tmp_path):
    path = write_script(
        tmp_path / "s.yaml",
        [
            entry(["a"], "ra", roles=["user"], max_uses=2),
            entry(["b"], "rb", excludes=["veto"]),
        ],
    )
    script = load_script(path)
    assert len(script) == 2
    assert script[0].contains == ("a",)
    assert script[0].roles == ("user",)
    assert script[0].max_uses == 2
    assert script[1].excludes == ("veto",)
    assert script[0].line == 1


def test_load_script_reports_entry_line(tmp_path):
    text = textwrap.dedent(
        """\
        - match:
            contains: [ok]
          response: fine
        - match:
            contains: []
          response: broken
        """
    )
    path = tmp_path / "s.yaml"
    path.write_text(text)
    with pytest.raises(ScriptParseError) as err:
        load_script(str(path))
    assert err.value.line == 4


def test_load_script_rejects_duplicate_fingerprints(tmp_path):
    path = write_script(
        tmp_path / "s.yaml",
        [entry(["same"], "first"), entry(["same"], "second")],
    )
    with pytest.raises(AmbiguousScriptError):
        load_script(path)


def test_load_script_rejects_empty_file(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("")
    with pytest.raises(ScriptParseError):
        load_script(str(path))


def test_load_script_rejects_non_list_root(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("match: {contains: [x]}\nresponse: y\n")
    with pytest.raises(ScriptParseError):
        load_script(str(path))


def test_load_script_rejects_bad_roles(tmp_path):
    path = write_script(
        tmp_path / "s.yaml", [entry(["x"], "r", roles=["narrator"])]
    )
    with pytest.raises(ScriptParseError, match="roles"):
        load_script(path)


def test_load_script_rejects_bad_max_uses(tmp_path):
    path = write_script(tmp_path / "s.yaml", [entry(["x"], "r", max_uses=0)])
    with pytest.raises(ScriptParseError, match="max_uses"):
        load_script(path)


@pytest.mark.parametrize("value", ["yes", "true", "no"])
def test_load_script_rejects_boolean_max_uses(tmp_path, value):
    path = tmp_path / "s.yaml"
    path.write_text(
        f"- match:\n    contains: [x]\n  response: r\n"
        f"- match:\n    contains: [y]\n  response: r\n  max_uses: {value}\n"
    )
    with pytest.raises(ScriptParseError, match="max_uses") as err:
        load_script(str(path))
    assert err.value.line == 4


@pytest.mark.parametrize("second, message", [
    ("- just text\n", "script entry must be a mapping"),
    ("- match: {roles: [user]}\n  response: r\n", "entry is missing match.contains"),
    (
        "- match: {contains: [y], excludes: ['']}\n  response: r\n",
        "match.excludes must be a list of strings",
    ),
], ids=["not-a-mapping", "no-contains", "empty-exclude"])
def test_malformed_entry_names_its_line(tmp_path, second, message):
    path = tmp_path / "s.yaml"
    path.write_text("- match:\n    contains: [x]\n  response: r\n" + second)
    with pytest.raises(ScriptParseError) as err:
        load_script(str(path))
    assert err.value.line == 4
    assert str(err.value) == f"{message} (line 4)"


def test_load_script_rejects_missing_response(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("- match:\n    contains: [x]\n")
    with pytest.raises(ScriptParseError, match="response"):
        load_script(str(path))


def test_load_script_reports_yaml_syntax_errors(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("- match: [unclosed\n")
    with pytest.raises(ScriptParseError):
        load_script(str(path))


def test_load_script_reports_yaml_syntax_error_line(tmp_path):
    text = textwrap.dedent(
        """\
        - match:
            contains: [ok]
          response: fine
        - match:
            contains: [x
          response: broken
        """
    )
    path = tmp_path / "s.yaml"
    path.write_text(text)
    with pytest.raises(ScriptParseError) as err:
        load_script(str(path))
    assert err.value.line == 6


# --- HTTP backend over a loopback server ------------------------------------------


def ok_body(content="hello", finish="stop", usage=None):
    return {
        "choices": [
            {"message": {"content": content}, "finish_reason": finish}
        ],
        "usage": usage or {},
    }


DROP = None  # a queued answer that closes the connection unanswered


class _Completions(http.server.BaseHTTPRequestHandler):
    """Records each request, then sends the next queued (status, body)
    answer, a dict body as JSON; with none queued, a 200 "pooled"."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5  # an idle pooled connection must not hold the thread for long

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.requests.append({
                "path": self.path,
                "headers": {k.lower(): v for k, v in self.headers.items()},
                "json": json.loads(body),
            })
            answer = server.answers.pop(0) if server.answers else (200, ok_body("pooled"))
        if answer is DROP:
            self.close_connection = True
            return
        status, payload = answer
        if isinstance(payload, dict):
            payload = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} Canned\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        )
        self.wfile.write(head.encode() + payload)
        # Closing without a "Connection: close" header leaves the client
        # holding a pooled connection that the server has already dropped.
        self.close_connection = self.server.close_after_response

    def log_message(self, *args):
        pass


class _LoopbackServer(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Completions)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = []
        self.answers = []
        self.closed = threading.Semaphore(0)
        self.close_after_response = False
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


def _clear_proxies(monkeypatch):
    for name in list(os.environ):
        if "proxy" in name.lower():
            monkeypatch.delenv(name)


@pytest.fixture
def loopback(monkeypatch):
    """A _LoopbackServer, with the proxy variables cleared and key "k"."""
    _clear_proxies(monkeypatch)
    monkeypatch.setenv(API_KEY_ENV, "k")
    server = _LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def make_http(loopback, *answers):
    """A gateway to ``loopback`` with ``answers`` queued, and its sleeps."""
    loopback.answers.extend(answers)
    slept = []
    return HttpGateway(base_url=loopback.url, sleep=slept.append), slept


def test_success_sends_expected_payload(loopback):
    gw, slept = make_http(
        loopback, (200, ok_body(usage={"prompt_tokens": 3, "completion_tokens": 7}))
    )
    res = gw.complete(
        ChatRequest(
            messages=(Message(Role.SYSTEM, "s"), Message(Role.USER, "u")),
            model="planner",
            temperature=0.5,
            seed=7,
        )
    )
    assert res.content == "hello"
    assert res.usage == Usage(prompt_units=3, output_units=7)
    assert slept == []
    [call] = loopback.requests
    assert call["path"] == "/v1/chat/completions"
    assert call["headers"]["authorization"] == "Bearer k"
    assert call["headers"]["content-type"] == "application/json"
    assert call["json"]["model"] == "planner"
    assert call["json"]["temperature"] == 0.5
    assert call["json"]["seed"] == 7
    assert call["json"]["messages"] == [
        {"role": "system", "content": "s"},
        {"role": "user", "content": "u"},
    ]
    assert "max_tokens" not in call["json"]
    assert gw.calls == 1


def test_no_auth_header_without_key(loopback, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV)
    gw, _ = make_http(loopback, (200, ok_body()))
    gw.complete(req("u"))
    assert "authorization" not in loopback.requests[0]["headers"]


def test_rate_limit_retries_with_backoff(loopback):
    gw, slept = make_http(loopback, *((429, b"") for _ in range(3)))
    with pytest.raises(RateLimitedError):
        gw.complete(req("u"))
    assert len(loopback.requests) == 3
    assert slept == [1.0, 2.0]
    assert gw.calls == 1


def test_server_error_then_success(loopback):
    gw, slept = make_http(loopback, (503, b""), (200, ok_body()))
    assert gw.complete(req("u")).content == "hello"
    assert slept == [1.0]


def test_connection_error_is_retried(loopback):
    gw, slept = make_http(loopback, DROP, (200, ok_body()))
    assert gw.complete(req("u")).content == "hello"
    assert slept == [1.0]
    assert len(loopback.requests) == 2


def test_client_error_fails_immediately(loopback):
    gw, slept = make_http(loopback, (403, b"nope"))
    with pytest.raises(RejectedError, match="403: nope"):
        gw.complete(req("u"))
    assert len(loopback.requests) == 1
    assert slept == []


def test_non_json_success_body_fails_immediately(loopback):
    gw, _ = make_http(loopback, (200, b"body is not JSON"))
    with pytest.raises(TransportError, match="non-JSON"):
        gw.complete(req("u"))
    assert len(loopback.requests) == 1


def test_malformed_body_is_a_transport_error(loopback):
    gw, _ = make_http(loopback, (200, {"choices": []}))
    with pytest.raises(TransportError, match="malformed"):
        gw.complete(req("u"))


@pytest.mark.parametrize("body", [
    ok_body(usage={"prompt_tokens": None}),
    ok_body(usage="many"),
    ok_body(usage={"prompt_tokens": "12k"}),
    ok_body(usage={"completion_tokens": 2.5}),
    ok_body(usage={"completion_tokens": True}),
    ok_body(usage={"prompt_tokens": -1}),
    ok_body(content=["hello"]),
    ok_body(content=3),
], ids=[
    "null-count", "str-usage", "str-count", "float-count", "bool-count",
    "negative-count", "list-content", "int-content",
])
def test_malformed_usage_or_content_is_a_transport_error(loopback, body):
    gw, _ = make_http(loopback, (200, body))
    with pytest.raises(TransportError, match="malformed completion body"):
        gw.complete(req("u"))
    assert len(loopback.requests) == 1


def test_null_content_and_usage_are_empty(loopback):
    body = {"choices": [{"message": {"content": None}}], "usage": None}
    gw, _ = make_http(loopback, (200, body))
    res = gw.complete(req("u"))
    assert (res.content, res.usage) == ("", Usage(0, 0))


def test_non_string_finish_reason_is_other(loopback):
    gw, _ = make_http(loopback, (200, ok_body(content="", finish=["stop"])))
    assert gw.complete(req("u")).content == ""


def test_null_content_with_length_maps_to_empty(loopback):
    gw, _ = make_http(loopback, (200, ok_body(content=None, finish="length")))
    assert gw.complete(req("u")).content == ""


def test_stop_with_empty_content_is_an_error(loopback):
    gw, _ = make_http(loopback, (200, ok_body(content="")))
    with pytest.raises(EmptyResponseError):
        gw.complete(req("u"))


def test_base_url_from_environment(loopback, monkeypatch):
    monkeypatch.setenv(BASE_URL_ENV, f"{loopback.url}/")
    gw = HttpGateway(sleep=lambda _: None)
    gw.complete(req("u"))
    assert loopback.requests[0]["path"] == "/v1/chat/completions"


def test_missing_base_url_is_an_error(monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV, raising=False)
    with pytest.raises(ValueError):
        HttpGateway()


@pytest.mark.parametrize("url", ["ftp://host/v1", "localhost:8000/v1", "http:///v1"])
def test_base_url_must_be_http_or_https(url):
    with pytest.raises(ValueError, match="not an http or https URL"):
        HttpGateway(base_url=url)


@pytest.mark.parametrize("url", [
    "http://host/v 1", "http://host/v1\t", "http://host/v1\x01", "http://host/v1\x7f",
], ids=["space", "tab", "control", "delete"])
def test_base_url_with_a_space_or_control_character_is_an_error(url):
    with pytest.raises(ValueError, match="holds a space or control character"):
        HttpGateway(base_url=url)


@pytest.mark.parametrize("key", ["k\r\nX-Injected: 1", "k\rX", "k\nX"],
                         ids=["crlf", "cr", "lf"])
def test_api_key_with_a_line_break_is_an_error(monkeypatch, key):
    _clear_proxies(monkeypatch)
    monkeypatch.setenv(API_KEY_ENV, key)
    with pytest.raises(ValueError, match="Authorization header value holds a line break"):
        HttpGateway(base_url="http://127.0.0.1:1/v1")


def test_header_value_with_nul_is_an_error():
    from reprompt.http11 import Connections

    # The environment cannot hold NUL, so the field goes to the client directly.
    with pytest.raises(ValueError, match="Authorization header value holds a line break"):
        Connections("http://127.0.0.1:1/v1", {"Authorization": "Bearer k\0"}, 1.0)


def test_host_is_idna_encoded_unless_ascii():
    from reprompt.http11 import _host

    assert _host("127.0.0.1:8080") == b"127.0.0.1:8080"
    assert _host("bücher.example") == b"xn--bcher-kva.example"
    assert _host("bücher.example:8080") == b"xn--bcher-kva.example:8080"


def test_dropped_connection_is_seen_without_poll(monkeypatch):
    # Where select has no poll (Windows), the idle check falls back to select().
    from reprompt import http11

    monkeypatch.setattr(http11, "select", types.SimpleNamespace(select=select.select))
    ours, peer = socket.socketpair()
    with ours, peer:
        assert not http11._is_dropped(ours)
        peer.close()
        assert http11._is_dropped(ours)


def test_pooled_calls_share_one_connection(loopback):
    slept = []
    gw = HttpGateway(base_url=loopback.url, sleep=slept.append)
    for _ in range(5):
        assert gw.complete(req("u")).content == "pooled"
    assert loopback.connections == 1
    assert slept == []


def test_connection_closed_by_server_is_dialled_again(loopback):
    loopback.close_after_response = True
    slept = []
    gw = HttpGateway(base_url=loopback.url, sleep=slept.append)
    for _ in range(3):
        assert gw.complete(req("u")).content == "pooled"
        assert loopback.closed.acquire(timeout=5)
    assert loopback.connections == 3
    assert slept == []  # no attempt failed and was retried


def test_threads_share_the_connection_pool(loopback):
    gw = HttpGateway(base_url=loopback.url, sleep=lambda _: None)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(gw.complete, req("u")) for _ in range(40)]
        contents = [f.result(timeout=30).content for f in futures]
    assert contents == ["pooled"] * 40
    assert 1 <= loopback.connections <= 4
    assert gw.calls == 40


def test_pool_holds_a_connection_per_thread(loopback):
    gw = HttpGateway(base_url=loopback.url, sleep=lambda _: None)
    with ThreadPoolExecutor(max_workers=16) as pool:
        futures = [pool.submit(gw.complete, req("u")) for _ in range(96)]
        contents = [f.result(timeout=30).content for f in futures]
    assert contents == ["pooled"] * 96
    assert 1 <= loopback.connections <= 16


class _RecordingHandler(socketserver.BaseRequestHandler):
    def recv(self):
        try:
            return self.request.recv(65536)
        except ConnectionResetError:  # the client closed with an answer unread
            return b""

    def handle(self):
        server = self.server
        with server.lock:
            server.connections += 1
        buf = b""
        while True:
            reads = 0
            while b"\r\n\r\n" not in buf:
                chunk = self.recv()
                if not chunk:
                    return
                buf, reads = buf + chunk, reads + 1
            head, _, buf = buf.partition(b"\r\n\r\n")
            line, *fields = head.decode("latin-1").split("\r\n")
            headers = {}
            for field in fields:
                name, _, value = field.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            while len(buf) < length:
                chunk = self.recv()
                if not chunk:
                    return
                buf, reads = buf + chunk, reads + 1
            buf = buf[length:]
            with server.lock:
                server.heads.append((line, headers))
                server.raw.append((head, reads))
                answer = server.answers.pop(0) if server.answers else None
            if server.mode == "stall":
                server.stop.wait(10)
            connect = line.startswith("CONNECT")
            if server.mode != "answer" or (connect and answer is None):
                return  # the connection closes unanswered
            if answer is None:
                body = json.dumps(ok_body("recorded")).encode()
                answer = (
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
            self.request.sendall(answer.removesuffix(CLOSE))
            if answer.endswith(CLOSE):
                return
            if connect and server.tls is not None:  # the tunnel is open
                self.request = server.tls.wrap_socket(self.request, server_side=True)

    def finish(self):
        self.request.close()  # a tunnel's TLS socket, which the server does not hold


# Ends a queued raw answer that the server closes the connection after.
CLOSE = b"<close>"


class _Recorder(socketserver.ThreadingTCPServer):
    """Loopback server that records each request's line and headers.

    ``mode`` "answer" sends the next raw answer queued in ``answers`` (a
    completion when none is queued) and keeps the connection open, unless
    the answer ends in CLOSE; "drop" closes it unanswered; "stall" holds it
    unanswered until the server stops. A CONNECT is answered from the same
    queue, and closed unanswered when none is queued; on a server with a
    ``tls`` context, TLS starts once it is answered. ``raw`` holds each
    request's head and the number of reads that took in its head and body;
    ``connections`` counts the accepted connections.
    """

    daemon_threads = True
    tls = None

    def __init__(self, mode):
        super().__init__(("127.0.0.1", 0), _RecordingHandler)
        self.mode = mode
        self.heads = []
        self.raw = []
        self.answers = []
        self.connections = 0
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.address = f"127.0.0.1:{self.server_address[1]}"


@pytest.fixture
def recorder(monkeypatch):
    """Starts _Recorder servers with the proxy variables cleared and key "k"."""
    _clear_proxies(monkeypatch)
    monkeypatch.setenv(API_KEY_ENV, "k")
    started = []

    def start(mode="answer"):
        server = _Recorder(mode)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.stop.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_unanswered_request_is_never_resent_silently(recorder):
    server = recorder("drop")
    slept = []
    gw = HttpGateway(
        base_url=f"http://{server.address}/v1", sleep=slept.append
    )
    with pytest.raises(TransportError, match="request failed"):
        gw.complete(req("u"))
    assert slept == [1.0, 2.0]
    assert len(server.heads) == 3
    assert gw.calls == 1


def test_read_timeout_is_a_retried_transport_error(recorder, monkeypatch):
    server = recorder("stall")
    monkeypatch.setattr("reprompt.gateway._TIMEOUT", 0.2)
    slept = []
    gw = HttpGateway(base_url=f"http://{server.address}/v1", sleep=slept.append)
    with pytest.raises(TransportError, match="timed out"):
        gw.complete(req("u"))
    assert slept == [1.0, 2.0]
    assert len(server.heads) == 3


def _basic(userinfo):
    return "Basic " + base64.b64encode(userinfo.encode()).decode()


def test_http_proxy_gets_absolute_form_targets(recorder, monkeypatch):
    proxy = recorder()
    monkeypatch.setenv("http_proxy", f"http://{proxy.address}")
    gw = HttpGateway(base_url="http://api.invalid/v1", sleep=lambda _: None)
    assert gw.complete(req("u")).content == "recorded"
    line, headers = proxy.heads[0]
    assert line == "POST http://api.invalid/v1/chat/completions HTTP/1.1"
    assert headers["host"] == "api.invalid"
    assert headers["authorization"] == "Bearer k"
    assert "proxy-authorization" not in headers


def test_proxy_credentials_become_proxy_authorization(recorder, monkeypatch):
    proxy = recorder()
    monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{proxy.address}")
    gw = HttpGateway(base_url="http://api.invalid/v1", sleep=lambda _: None)
    gw.complete(req("u"))
    assert proxy.heads[0][1]["proxy-authorization"] == _basic("user:p@ss")


def test_no_proxy_bypasses_the_proxy(recorder, monkeypatch):
    proxy, direct = recorder(), recorder()
    monkeypatch.setenv("http_proxy", f"http://{proxy.address}")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    gw = HttpGateway(base_url=f"http://{direct.address}/v1")
    assert gw.complete(req("u")).content == "recorded"
    assert proxy.heads == []
    assert direct.heads[0][0] == "POST /v1/chat/completions HTTP/1.1"


def test_https_proxy_gets_a_connect_tunnel(recorder, monkeypatch):
    proxy = recorder()
    monkeypatch.setenv("https_proxy", f"http://user:pw@{proxy.address}")
    gw = HttpGateway(base_url="https://api.invalid/v1", sleep=lambda _: None)
    with pytest.raises(TransportError):
        gw.complete(req("u"))  # the recorder closes each tunnel unanswered
    assert len(proxy.heads) == 3  # one per attempt
    for line, headers in proxy.heads:
        assert line.startswith("CONNECT api.invalid:443 HTTP/")
        assert headers["proxy-authorization"] == _basic("user:pw")


@pytest.mark.parametrize("answer, message", [
    (b"HTTP/1.1 407 Proxy Authentication Required\r\nContent-Length: 0\r\n\r\n",
     "answered CONNECT with 407"),
    (b"HTTP/1.1 200 Connection established\r\n\r\nearly",
     "sent bytes before the tunnel opened"),
], ids=["refused", "bytes-before-open"])
def test_tunnel_that_does_not_open_is_a_retried_transport_error(
    recorder, monkeypatch, answer, message
):
    proxy = recorder()
    proxy.answers.extend(answer + CLOSE for _ in range(3))
    monkeypatch.setenv("https_proxy", f"http://{proxy.address}")
    slept = []
    gw = HttpGateway(base_url="https://api.invalid/v1", sleep=slept.append)
    with pytest.raises(TransportError, match=message):
        gw.complete(req("u"))
    assert slept == [1.0, 2.0]
    assert [line for line, _ in proxy.heads] == ["CONNECT api.invalid:443 HTTP/1.1"] * 3


def test_proxy_route_is_fixed_when_the_gateway_is_built(recorder, monkeypatch):
    proxy, direct = recorder(), recorder()
    plain = HttpGateway(base_url=f"http://{direct.address}/v1")
    monkeypatch.setenv("http_proxy", f"http://{proxy.address}")
    routed = HttpGateway(base_url="http://api.invalid/v1")
    monkeypatch.delenv("http_proxy")
    monkeypatch.setenv("no_proxy", "*")
    plain.complete(req("u"))
    routed.complete(req("u"))
    assert [line for line, _ in direct.heads] == ["POST /v1/chat/completions HTTP/1.1"]
    assert [line for line, _ in proxy.heads] == [
        "POST http://api.invalid/v1/chat/completions HTTP/1.1"
    ]


@pytest.mark.parametrize("empty_lower, proxied", [(False, True), (True, False)],
                         ids=["upper-case", "upper-case-under-empty-lower-case"])
def test_upper_case_proxy_variable_routes_as_urllib_does(
    recorder, monkeypatch, empty_lower, proxied
):
    proxy, direct = recorder(), recorder()
    monkeypatch.setenv("HTTP_PROXY", f"http://{proxy.address}")
    if empty_lower:
        monkeypatch.setenv("http_proxy", "")
    gw = HttpGateway(base_url=f"http://{direct.address}/v1")
    assert gw.complete(req("u")).content == "recorded"
    assert (len(proxy.heads), len(direct.heads)) == ((1, 0) if proxied else (0, 1))


# --- HTTP/1.1 on the wire ------------------------------------------------------

_JSON = json.dumps(ok_body("wired")).encode()


def _answer(*fields, body=_JSON, status="HTTP/1.1 200 OK"):
    return "\r\n".join((status, *fields, "", "")).encode() + body


def _chunked(body, size=7):
    chunks = [
        b"%x;ext=%d\r\n%s\r\n" % (len(body[i:i + size]), i, body[i:i + size])
        for i in range(0, len(body), size)
    ]
    return b"".join(chunks) + b"0\r\nX-Checksum: none\r\n\r\n"


def _wired(recorder, *answers):
    server = recorder()
    server.answers.extend(answers)
    slept = []
    gw = HttpGateway(base_url=f"http://{server.address}/v1", sleep=slept.append)
    return server, gw, slept


def _field_names(head):
    return [line.split(b":")[0].decode() for line in head.split(b"\r\n")[1:]]


@pytest.mark.parametrize("proxied", [False, True], ids=["direct", "proxy"])
def test_request_goes_out_in_one_write_with_fields_in_order(recorder, monkeypatch, proxied):
    server = recorder()
    url = f"http://{server.address}/v1"
    names = ["Host", "Accept-Encoding", "Content-Length", "Content-Type", "Authorization"]
    if proxied:
        monkeypatch.setenv("http_proxy", f"http://user:pw@{server.address}")
        url = "http://api.invalid/v1"
        names.append("Proxy-Authorization")
    assert HttpGateway(base_url=url).complete(req("u")).content == "recorded"
    [(head, reads)] = server.raw
    assert reads == 1  # head and body came in one segment
    assert _field_names(head) == names
    line, headers = server.heads[0]
    assert headers["host"] == url.split("/")[2]
    assert headers["accept-encoding"] == "identity"


def test_chunked_answer_with_extensions_and_trailer(recorder):
    chunked = _answer("Transfer-Encoding: chunked", body=_chunked(_JSON))
    # Chunked framing wins over a Content-Length sent with it, but the
    # connection that carried both is not trusted with another request.
    both = _answer("Content-Length: 3", "Transfer-Encoding: chunked", body=_chunked(_JSON))
    server, gw, slept = _wired(recorder, chunked, both)
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 2
    assert slept == []


def test_close_delimited_answer_is_read_to_the_end(recorder):
    server, gw, slept = _wired(recorder, _answer("Content-Type: application/json") + CLOSE)
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 2
    assert slept == []


@pytest.mark.parametrize("answer", [
    _answer(f"Content-Length: {len(_JSON)}", status="HTTP/1.0 200 OK"),
    _answer(f"Content-Length: {len(_JSON)}", "Connection: close"),
    _answer("Transfer-Encoding: gzip") + CLOSE,
], ids=["http-1.0", "connection-close", "not-chunked-read-to-close"])
def test_answer_that_ends_the_connection_is_not_reused(recorder, answer):
    server, gw, slept = _wired(recorder, answer)
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 2
    assert slept == []


@pytest.mark.parametrize("interim", [
    b"HTTP/1.1 100 Continue\r\n\r\n",
    b"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n",
], ids=["100", "103"])
def test_interim_answers_are_skipped(recorder, interim):
    server, gw, slept = _wired(recorder, interim + _answer(f"Content-Length: {len(_JSON)}"))
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 1


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1 OK\r\n\r\n",
    b"SPDY/3 200 OK\r\nContent-Length: 0\r\n\r\n",
    _answer(*(f"X-Field-{i}: {i}" for i in range(101)), "Content-Length: 0", body=b""),
    _answer("X-Long: " + "x" * 70_000, "Content-Length: 0", body=b""),
    _answer("Content-Length: many"),
    _answer("Content-Length: -1"),
    _answer(f"Content-Length: {len(_JSON)}", "Content-Length: 1"),
    _answer("Transfer-Encoding: chunked", body=b"zz\r\n"),
    _answer("Transfer-Encoding: chunked", body=b"3\r\nabcXY0\r\n\r\n"),
    _answer("No colon in this field", "Content-Length: 0", body=b""),
    _answer(f"Content-Length: {len(_JSON) + 1}") + CLOSE,
], ids=[
    "no-status-code", "not-http", "too-many-fields", "head-too-long",
    "bad-length", "negative-length", "conflicting-lengths", "bad-chunk-size",
    "chunk-without-crlf", "field-without-colon", "body-cut-by-close",
])
def test_malformed_answer_is_a_retried_transport_error(recorder, monkeypatch, answer):
    # An answer read to the server's close would otherwise wait this long.
    monkeypatch.setattr("reprompt.gateway._TIMEOUT", 0.5)
    server, gw, slept = _wired(recorder, *(answer for _ in range(3)))
    with pytest.raises(TransportError, match="request failed"):
        gw.complete(req("u"))
    assert slept == [1.0, 2.0]
    assert len(server.heads) == 3


def test_no_content_answer_has_no_body(recorder):
    server, gw, slept = _wired(recorder, b"HTTP/1.1 204 No Content\r\n\r\n")
    with pytest.raises(RejectedError, match="endpoint returned 204"):
        gw.complete(req("u"))
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 1


def test_bytes_past_the_body_close_the_connection(recorder):
    server, gw, slept = _wired(
        recorder, _answer(f"Content-Length: {len(_JSON)}") + b"HTTP/1.1 200 OK\r\n"
    )
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 2
    assert slept == []


class _Segments:
    """A socket whose peer sends ``stream`` in pieces of the given sizes."""

    def __init__(self, stream, sizes):
        self.pieces = []
        for size in sizes:
            if stream:
                self.pieces.append(stream[:size])
                stream = stream[size:]
        self.pieces.append(stream)
        self.sent = b""

    def sendall(self, data):
        self.sent += data

    def recv(self, limit):
        piece = self.pieces.pop(0) if self.pieces else b""
        if len(piece) > limit:
            self.pieces.insert(0, piece[limit:])
        return piece[:limit]


@settings(max_examples=200, deadline=None)
# A close-delimited body that takes two more reads after the one with the head.
@example(body=bytes(60), framing="close", chunk=1, sizes=[40, 20], extra=b"")
@given(
    body=st.binary(max_size=300),
    framing=st.sampled_from(["length", "chunked", "close"]),
    chunk=st.integers(1, 40),
    sizes=st.lists(st.integers(1, 50), max_size=40),
    extra=st.sampled_from([b"", b"HTTP/1.1 200 OK\r\n"]),
)
def test_framing_holds_however_the_answer_is_cut(body, framing, chunk, sizes, extra):
    from reprompt.http11 import Connection

    if framing == "length":
        answer = _answer(f"Content-Length: {len(body)}", body=body)
    elif framing == "chunked":
        answer = _answer("Transfer-Encoding: chunked", body=_chunked(body, chunk))
    else:
        answer, extra = _answer("Server: x", body=body), b""
    sock = _Segments(answer + extra, sizes)
    # Bytes past the body are seen when they come in the piece that ends it.
    seen = extra and len(answer) not in itertools.accumulate(map(len, sock.pieces))
    assert Connection(sock).exchange(b"POST / HTTP/1.1\r\n\r\n") == (
        200, body, framing != "close" and not seen
    )
    assert sock.sent == b"POST / HTTP/1.1\r\n\r\n"


def _self_signed(directory, name):
    """A certificate for ``name`` that signs itself, and its key: PEM paths."""
    pytest.importorskip("cryptography")
    import datetime

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(subject)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.DNSName(name)]), critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = directory / f"{name}.crt", directory / f"{name}.key"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))
    return cert_path, key_path


class _TlsRecorder(_Recorder):
    """A _Recorder that speaks TLS with the given certificate and key: from
    the start or, as a proxy ``tunnel``, once it has answered a CONNECT."""

    def __init__(self, cert_path, key_path, tunnel):
        import ssl

        super().__init__("answer")
        self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        self.tls.load_cert_chain(cert_path, key_path)
        self.tunnel = tunnel

    def get_request(self):
        sock, address = super().get_request()
        sock.settimeout(5)
        if self.tunnel:
            return sock, address
        return self.tls.wrap_socket(sock, server_side=True), address


@pytest.fixture
def tls_server(tmp_path, monkeypatch):
    """Starts a _TlsRecorder whose certificate names ``name`` and is the
    only one the client trusts (``SSL_CERT_FILE``)."""
    _clear_proxies(monkeypatch)
    monkeypatch.setenv(API_KEY_ENV, "k")
    started = []

    def start(name, tunnel=False):
        cert_path, key_path = _self_signed(tmp_path, name)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
        server = _TlsRecorder(cert_path, key_path, tunnel)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_https_call_is_verified_against_the_trust_store(tls_server):
    server = tls_server("localhost")
    server.answers.append(_answer("Transfer-Encoding: chunked", body=_chunked(_JSON)))
    port = server.server_address[1]
    gw = HttpGateway(base_url=f"https://localhost:{port}/v1", sleep=lambda _: None)
    assert gw.complete(req("u")).content == "wired"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 1
    line, headers = server.heads[0]
    assert line == "POST /v1/chat/completions HTTP/1.1"
    assert headers["host"] == f"localhost:{port}"


def test_https_call_goes_through_an_open_tunnel(tls_server, monkeypatch):
    server = tls_server("localhost", tunnel=True)
    server.answers.append(b"HTTP/1.1 200 Connection established\r\n\r\n")
    port = server.server_address[1]
    monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{port}")
    gw = HttpGateway(base_url=f"https://localhost:{port}/v1", sleep=lambda _: None)
    assert gw.complete(req("u")).content == "recorded"
    assert gw.complete(req("u")).content == "recorded"
    assert server.connections == 1
    assert [line for line, _ in server.heads] == [
        f"CONNECT localhost:{port} HTTP/1.1",
        "POST /v1/chat/completions HTTP/1.1",
        "POST /v1/chat/completions HTTP/1.1",
    ]


def test_https_certificate_for_another_name_is_a_transport_error(tls_server):
    server = tls_server("other.invalid")
    slept = []
    gw = HttpGateway(
        base_url=f"https://localhost:{server.server_address[1]}/v1", sleep=slept.append
    )
    with pytest.raises(TransportError, match="certificate verify failed"):
        gw.complete(req("u"))
    assert slept == [1.0, 2.0]
    assert server.heads == []


_CLI_SUBPROCESS = textwrap.dedent(
    """
    import sys

    import reprompt.cli

    LAZY = ("http.client", "urllib.request", "email.parser", "ssl", "requests", "urllib3",
            "encodings.idna")
    print([m for m in LAZY if m in sys.modules])

    import json, socket, threading
    from reprompt.gateway import ChatRequest, HttpGateway, Message, Role

    body = json.dumps({"choices": [{"message": {"content": "hi"},
                                    "finish_reason": "stop"}]}).encode()
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        data = b""
        while b"\\r\\n\\r\\n" not in data or not data.endswith(b"}"):
            data += conn.recv(65536)
        conn.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Length: %d\\r\\n\\r\\n%s"
                     % (len(body), body))
        conn.recv(1)  # until the client closes

    threading.Thread(target=serve, daemon=True).start()
    gw = HttpGateway(base_url=f"http://127.0.0.1:{listener.getsockname()[1]}/v1")
    request = ChatRequest(
        messages=(Message(Role.USER, "u"),), model="agent", temperature=0.0, seed=42
    )
    print(gw.complete(request).content)
    print([m for m in LAZY if m in sys.modules])
    """
)


def test_importing_the_cli_leaves_requests_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _CLI_SUBPROCESS], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "hi", "[]"]


def test_max_uses_holds_under_concurrent_calls():
    gw = make_gateway(entry(["go"], "once", max_uses=25))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(outcome, gw, req("go")) for _ in range(200)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results.count("once") == 25
    assert results.count((RejectedError, "unscripted request")) == 175
    assert gw.calls == 200
