"""OpenAI-shaped chat-completions stub on a loopback socket.

It answers from a table built before timing: per sample id, the blind
plan, or the best plan when the request carries the budget-step anchor.
Each response goes out in a single send, since a response written as
separate header and body sends stalls on delayed ACKs. Connections are
served one at a time on one thread, so with the closed-loop client at
most one connection is open and two threads run. Standard library only.
"""
from __future__ import annotations

import json
import socket
import threading

_ID_PREFIX = "Task id: "


def listen() -> socket.socket:
    """A listening socket on an ephemeral loopback port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock


def _http(status: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def completion(content: str) -> bytes:
    body = {
        "choices": [{"message": {"role": "assistant", "content": content},
                     "finish_reason": "stop"}],
        "usage": {"prompt_tokens": 0, "completion_tokens": 0},
    }
    return _http("200 OK", json.dumps(body).encode("utf-8"))


_UNKNOWN = _http("400 Bad Request", b'{"error": "no scripted answer"}')


class LoopbackStub:
    """Serves ``plans[sample id] = {"blind": plan, "best": plan}``.

    ``sent`` records (sample id, plan) for every answer, in order, and
    ``connections`` counts the TCP connections accepted.
    """

    def __init__(self, listener: socket.socket, plans: dict, anchor: str, render_plan):
        self._listener = listener
        self._anchor = anchor
        self._table = {
            (sid, key): (tuple(plan), completion(render_plan(plan)))
            for sid, both in plans.items() for key, plan in both.items()
        }
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="loopback-stub")
        self.connections = 0
        self.sent: list[tuple[str, tuple[str, ...]]] = []

    def start(self) -> None:
        self._listener.settimeout(0.1)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()
        if self._thread.is_alive():
            raise RuntimeError("the loopback stub did not stop")

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                conn.settimeout(0.1)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._serve_connection(conn)

    def _recv(self, conn: socket.socket) -> bytes:
        """Next bytes from the client; empty once it closes or at stop.

        A client that pools connections may hold one open and idle, so the
        wait is cut into short timeouts that look at the stop flag.
        """
        while not self._stop.is_set():
            try:
                return conn.recv(65536)
            except socket.timeout:
                continue
        return b""

    def _serve_connection(self, conn: socket.socket) -> None:
        buf = b""
        while True:
            while b"\r\n\r\n" not in buf:
                chunk = self._recv(conn)
                if not chunk:
                    return
                buf += chunk
            head, _, rest = buf.partition(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            while len(rest) < length:
                chunk = self._recv(conn)
                if not chunk:
                    return
                rest += chunk
            body, buf = rest[:length], rest[length:]
            conn.sendall(self._answer(body))

    def _answer(self, body: bytes) -> bytes:
        try:
            messages = json.loads(body)["messages"]
            content = "\n".join(m["content"] for m in messages)
        except (ValueError, KeyError, TypeError):
            return _UNKNOWN
        # The task slot comes last; the worked example has an id line too.
        start = content.rfind(_ID_PREFIX)
        if start < 0:
            return _UNKNOWN
        start += len(_ID_PREFIX)
        sid = content[start:content.find("\n", start)]
        key = "best" if self._anchor in content else "blind"
        found = self._table.get((sid, key))
        if found is None:
            return _UNKNOWN
        self.sent.append((sid, found[0]))
        return found[1]
