import dataclasses
import http.server
import json
import os
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests
from hypothesis import given, settings
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
    FinishReason,
    HttpGateway,
    Message,
    Role,
    Script,
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
    return ChatRequest(messages=tuple(messages), model=model)


# --- request validation -------------------------------------------------------


def test_request_needs_messages():
    with pytest.raises(ValueError):
        ChatRequest(messages=())


def test_request_rejects_assistant_opening():
    with pytest.raises(ValueError):
        ChatRequest(messages=(Message(Role.ASSISTANT, "hi"),))


def test_request_rejects_negative_temperature():
    with pytest.raises(ValueError):
        ChatRequest(messages=(Message(Role.USER, "x"),), temperature=-0.1)


# --- entry matching -------------------------------------------------------------


def matches(e: ScriptEntry, request: ChatRequest) -> bool:
    """Whether a gateway scripted with ``e`` alone answers ``request``."""
    try:
        ScriptedGateway(Script([e])).complete(request)
    except RejectedError:
        return False
    return True


def test_contains_anchors_must_appear_in_order():
    e = ScriptEntry(contains=("alpha", "beta"), response="r")
    assert matches(e, req("alpha then beta"))
    assert not matches(e, req("beta then alpha"))


def test_contains_anchors_may_not_overlap():
    e = ScriptEntry(contains=("aa", "aa"), response="r")
    assert not matches(e, req("aaa"))
    assert matches(e, req("aaaa"))


def test_anchors_span_message_boundaries():
    e = ScriptEntry(contains=("first", "second"), response="r")
    assert matches(e, req(("system", "the first part"), ("user", "the second part")))


def test_roles_pin_the_exact_sequence():
    e = ScriptEntry(contains=("x",), roles=("system", "user"), response="r")
    assert matches(e, req(("system", "x"), ("user", "y")))
    assert not matches(e, req("x"))
    assert not matches(e, req(("system", "x"), ("user", "y"), ("user", "z")))


def test_excludes_veto_a_match():
    e = ScriptEntry(contains=("x",), excludes=("stop word",), response="r")
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
    assert res.finish_reason is FinishReason.STOP
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
        self._entries = [dataclasses.replace(e) for e in entries]

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
        live = [
            e for e in self._entries if e.max_uses is None or e.uses < e.max_uses
        ]
        matched = [e for e in live if self._matches(e, request)]
        if not matched:
            raise RejectedError("unscripted request")
        if len(matched) > 1:
            lines = ", ".join(str(e.line) for e in matched)
            raise AmbiguousScriptError(
                f"request matched several script entries (lines {lines})"
            )
        matched[0].uses += 1
        return matched[0].response


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
        sequence.append(ChatRequest(
            messages=tuple(Message(Role(r), draw(text)) for r in roles)
        ))
    return entries, sequence


@settings(max_examples=200, deadline=None)
@given(cases())
def test_indexed_matching_agrees_with_linear_reference(case):
    entries, sequence = case
    reference = LinearGateway(entries)
    indexed = ScriptedGateway(Script([dataclasses.replace(e) for e in entries]))
    for request in sequence:
        assert outcome(indexed, request) == outcome(reference, request)


def test_needles_nested_past_the_flat_cutoff_still_match():
    # 150 needles, each a prefix of the next: the trie nests deeper than
    # the regex builder factors before it lists suffixes flat.
    entries = [
        ScriptEntry(contains=("a" * k,), excludes=("a" * (k + 1),), response=f"r{k}",
                    line=k)
        for k in range(1, 151)
    ]
    indexed = ScriptedGateway(Script([dataclasses.replace(e) for e in entries]))
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
    assert len(script.entries) == 2
    assert script.entries[0].contains == ("a",)
    assert script.entries[0].roles == ("user",)
    assert script.entries[0].max_uses == 2
    assert script.entries[1].excludes == ("veto",)
    assert script.entries[0].line == 1


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


# --- HTTP backend -----------------------------------------------------------------


class FakeHttp:
    def __init__(self, status_code=200, body=None, text="", bad_json=False):
        self.status_code = status_code
        self._body = body
        self.text = text
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("body is not JSON")
        return self._body


def ok_body(content="hello", finish="stop", usage=None):
    return {
        "choices": [
            {"message": {"content": content}, "finish_reason": finish}
        ],
        "usage": usage or {},
    }


class FakePost:
    """Canned transport: yields one outcome per attempt, records each call."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_http(post, **kwargs):
    slept = []
    gw = HttpGateway(
        base_url="http://unit.test",
        api_key=kwargs.pop("api_key", "k"),
        transport=post,
        sleep=slept.append,
        **kwargs,
    )
    return gw, slept


def test_success_sends_expected_payload():
    post = FakePost(FakeHttp(body=ok_body(usage={"prompt_tokens": 3, "completion_tokens": 7})))
    gw, slept = make_http(post)
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
    call = post.calls[0]
    assert call["url"] == "http://unit.test/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["json"]["model"] == "planner"
    assert call["json"]["temperature"] == 0.5
    assert call["json"]["seed"] == 7
    assert call["json"]["messages"] == [
        {"role": "system", "content": "s"},
        {"role": "user", "content": "u"},
    ]
    assert "max_tokens" not in call["json"]
    assert gw.calls == 1


def test_max_output_becomes_max_tokens():
    post = FakePost(FakeHttp(body=ok_body()))
    gw, _ = make_http(post)
    gw.complete(
        ChatRequest(messages=(Message(Role.USER, "u"),), max_output=128)
    )
    assert post.calls[0]["json"]["max_tokens"] == 128


def test_no_auth_header_without_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    post = FakePost(FakeHttp(body=ok_body()))
    gw, _ = make_http(post, api_key=None)
    gw.complete(req("u"))
    assert "Authorization" not in post.calls[0]["headers"]


def test_rate_limit_retries_with_backoff():
    post = FakePost(*(FakeHttp(status_code=429) for _ in range(3)))
    gw, slept = make_http(post)
    with pytest.raises(RateLimitedError):
        gw.complete(req("u"))
    assert len(post.calls) == 3
    assert slept == [1.0, 2.0]
    assert gw.calls == 1


def test_server_error_then_success():
    post = FakePost(FakeHttp(status_code=503), FakeHttp(body=ok_body()))
    gw, slept = make_http(post)
    assert gw.complete(req("u")).content == "hello"
    assert slept == [1.0]


def test_connection_error_is_retried():
    post = FakePost(
        requests.ConnectionError("boom"), FakeHttp(body=ok_body())
    )
    gw, _ = make_http(post)
    assert gw.complete(req("u")).content == "hello"


def test_client_error_fails_immediately():
    post = FakePost(FakeHttp(status_code=403, text="nope"))
    gw, slept = make_http(post)
    with pytest.raises(RejectedError, match="403"):
        gw.complete(req("u"))
    assert len(post.calls) == 1
    assert slept == []


def test_non_json_success_body_fails_immediately():
    post = FakePost(FakeHttp(bad_json=True))
    gw, _ = make_http(post)
    with pytest.raises(TransportError, match="non-JSON"):
        gw.complete(req("u"))
    assert len(post.calls) == 1


def test_malformed_body_is_a_transport_error():
    post = FakePost(FakeHttp(body={"choices": []}))
    gw, _ = make_http(post)
    with pytest.raises(TransportError, match="malformed"):
        gw.complete(req("u"))


def test_finish_reason_mapping():
    for finish, expected in [
        ("stop", FinishReason.STOP),
        ("length", FinishReason.LENGTH),
        ("tool_calls", FinishReason.OTHER),
    ]:
        post = FakePost(FakeHttp(body=ok_body(finish=finish)))
        gw, _ = make_http(post)
        assert gw.complete(req("u")).finish_reason is expected


def test_null_content_with_length_maps_to_empty():
    post = FakePost(FakeHttp(body=ok_body(content=None, finish="length")))
    gw, _ = make_http(post)
    res = gw.complete(req("u"))
    assert res.content == ""
    assert res.finish_reason is FinishReason.LENGTH


def test_stop_with_empty_content_is_an_error():
    post = FakePost(FakeHttp(body=ok_body(content="")))
    gw, _ = make_http(post)
    with pytest.raises(EmptyResponseError):
        gw.complete(req("u"))


def test_backoff_schedule_clamps_to_last_value():
    post = FakePost(*(FakeHttp(status_code=429) for _ in range(5)))
    gw, slept = make_http(post, attempts=5, backoff=(1.0,))
    with pytest.raises(RateLimitedError):
        gw.complete(req("u"))
    assert slept == [1.0, 1.0, 1.0, 1.0]


def test_base_url_from_environment(monkeypatch):
    monkeypatch.setenv(BASE_URL_ENV, "http://env.test/")
    post = FakePost(FakeHttp(body=ok_body()))
    gw = HttpGateway(api_key="k", transport=post, sleep=lambda _: None)
    gw.complete(req("u"))
    assert post.calls[0]["url"] == "http://env.test/chat/completions"


def test_missing_base_url_is_an_error(monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV, raising=False)
    with pytest.raises(ValueError):
        HttpGateway(api_key="k")


# --- HTTP backend over a loopback server ------------------------------------------


class _Completions(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 5  # an idle pooled connection must not hold the thread for long

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps(ok_body("pooled")).encode()
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode() + body)
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
        self.closed = threading.Semaphore(0)
        self.close_after_response = False
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture
def loopback(monkeypatch):
    for name in list(os.environ):
        if "proxy" in name.lower():
            monkeypatch.delenv(name)
    server = _LoopbackServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_pooled_calls_share_one_connection(loopback):
    slept = []
    gw = HttpGateway(base_url=loopback.url, api_key="k", sleep=slept.append)
    for _ in range(5):
        assert gw.complete(req("u")).content == "pooled"
    assert loopback.connections == 1
    assert slept == []


def test_connection_closed_by_server_is_dialled_again(loopback):
    loopback.close_after_response = True
    slept = []
    gw = HttpGateway(base_url=loopback.url, api_key="k", sleep=slept.append)
    for _ in range(3):
        assert gw.complete(req("u")).content == "pooled"
        assert loopback.closed.acquire(timeout=5)
    assert loopback.connections == 3
    assert slept == []  # no attempt failed and was retried


def test_threads_share_the_connection_pool(loopback):
    gw = HttpGateway(base_url=loopback.url, api_key="k", sleep=lambda _: None)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(gw.complete, req("u")) for _ in range(40)]
        contents = [f.result(timeout=30).content for f in futures]
    assert contents == ["pooled"] * 40
    assert 1 <= loopback.connections <= 4
    assert gw.calls == 40


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
