"""The HTTP/1.1 client under HttpGateway: keep-alive connections to one origin.

Requests are framed and answers parsed as RFC 9112 sets out, over plain
sockets, so neither ``http.client`` nor the ``email`` parser it reads
headers with is loaded. ``ssl`` is imported only for an ``https`` origin,
and ``urllib.request`` only when a proxy may be configured (see
``_proxy_for``). HttpGateway imports this module when it is built, so a
scripted run never compiles it.
"""
from __future__ import annotations

import os
import re
import select
import socket
import sys
import threading
import urllib.parse
import weakref

# An answer's head (status line and fields) may hold at most this many
# bytes and fields; so may a chunked answer's trailer section, and a
# chunk-size line at most this many bytes.
_MAX_HEAD = 65536
_MAX_FIELDS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: .*)?")
_HEX = b"0123456789abcdefABCDEF"


class ProtocolError(OSError):
    """An answer breaks HTTP/1.1 message framing."""


def _is_dropped(sock) -> bool:
    """Whether an idle connection's socket is readable: the peer closed it
    (or sent on it unasked), so it must not carry another request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


def _proxy_for(url: urllib.parse.SplitResult) -> str | None:
    """The proxy ``urllib.request`` routes ``url`` through, or None.

    On Linux and other Unixes, ``urllib.request`` reads proxies only from
    ``<scheme>_proxy`` variables, in either case. Without a non-empty one
    it finds none, so it is imported only when one is set. On macOS and
    Windows it also reads the system settings, so it is always imported.
    """
    wanted = f"{url.scheme}_proxy"
    if sys.platform != "darwin" and os.name != "nt" and not any(
        value and name.lower() == wanted for name, value in os.environ.items()
    ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    if proxy and not urllib.request.proxy_bypass(url.netloc):
        return proxy
    return None


def _host(authority: str) -> bytes:
    """``authority`` as a Host field holds it: IDNA-encoded unless ASCII."""
    try:
        return authority.encode("ascii")
    except UnicodeEncodeError:
        return authority.encode("idna")


def _field_value(name: str, value: str) -> bytes:
    encoded = value.encode("latin-1")
    if re.search(rb"[\r\n\0]", encoded):
        raise ValueError(f"the {name} header value holds a line break")
    return encoded


class Connection:
    """One socket to the server, or to the proxy that reaches it, and the
    bytes read from it past the end of the last answer."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, bytes, bool]:
        """Send ``request`` in one write and read the whole answer:
        (status, body, whether the connection may carry another request)."""
        self.sock.sendall(request)
        status, fields, keep = self._head()
        if status in (204, 304):
            return status, b"", keep
        codings = b",".join(fields.get(b"transfer-encoding", ())).lower()
        if codings:
            if codings.rsplit(b",", 1)[-1].strip() == b"chunked":
                # Chunked framing wins over a Content-Length, but a sender
                # of both is not trusted with the connection afterwards.
                body = self._chunked()
                keep = keep and b"content-length" not in fields
            else:
                body, keep = self._until_close(), False
        elif b"content-length" in fields:
            body = self._exactly(_content_length(fields[b"content-length"]))
        else:
            body, keep = self._until_close(), False
        if self._buffer or getattr(self.sock, "pending", int)():
            keep = False  # bytes past the end of the body
        return status, body, keep

    def tunnel(self, request: bytes) -> None:
        """Send a CONNECT ``request`` and read its answer; anything but a
        2xx raises ProtocolError."""
        self.sock.sendall(request)
        status, _, _ = self._head()
        if not 200 <= status < 300:
            raise ProtocolError(f"the proxy answered CONNECT with {status}")
        if self._buffer:
            raise ProtocolError("the proxy sent bytes before the tunnel opened")

    def _fill(self) -> bool:
        """Read what the socket has into the buffer; False at its end."""
        data = self.sock.recv(65536)
        self._buffer += data
        return bool(data)

    def _line(self, limit: int) -> bytes:
        """The next line, without its CRLF (or bare LF), of at most
        ``limit`` bytes with the line break."""
        while True:
            end = self._buffer.find(b"\n", 0, limit)
            if end >= 0:
                break
            if len(self._buffer) >= limit:
                raise ProtocolError(f"an answer line passes the {_MAX_HEAD}-byte limit")
            if not self._fill():
                raise ProtocolError("the connection closed mid-answer")
        line = bytes(self._buffer[:end]).removesuffix(b"\r")
        del self._buffer[:end + 1]
        return line

    def _fields(self, budget: int) -> dict[bytes, list[bytes]]:
        """Header (or trailer) fields up to the empty line, by lower-case
        name, within ``budget`` bytes and _MAX_FIELDS fields."""
        fields: dict[bytes, list[bytes]] = {}
        for _ in range(_MAX_FIELDS + 1):
            line = self._line(budget)
            budget -= len(line) + 2
            if not line:
                return fields
            name, colon, value = line.partition(b":")
            if not colon or not name or name != name.strip() or b" " in name:
                raise ProtocolError(f"malformed header field {line[:80]!r}")
            fields.setdefault(name.lower(), []).append(value.strip(b" \t"))
        raise ProtocolError(f"the answer has over {_MAX_FIELDS} header fields")

    def _head(self) -> tuple[int, dict[bytes, list[bytes]], bool]:
        """The status, fields and keep-alive of the next final answer;
        interim (1xx) answers are skipped."""
        while True:
            line = self._line(_MAX_HEAD)
            match = _STATUS_LINE.fullmatch(line)
            if match is None:
                raise ProtocolError(f"malformed status line {line[:80]!r}")
            fields = self._fields(_MAX_HEAD - len(line) - 2)
            status = int(match[2])
            if status >= 200:
                break
        options = b",".join(fields.get(b"connection", ())).lower().split(b",")
        keep = match[1] != b"0" and b"close" not in (o.strip() for o in options)
        return status, fields, keep

    def _exactly(self, length: int) -> bytes:
        while len(self._buffer) < length:
            if not self._fill():
                raise ProtocolError("the connection closed mid-answer")
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        return body

    def _until_close(self) -> bytes:
        while self._fill():
            pass
        body = bytes(self._buffer)
        self._buffer.clear()
        return body

    def _chunked(self) -> bytes:
        parts = []
        while True:
            size = self._line(_MAX_HEAD).split(b";", 1)[0].strip(b" \t")
            if not size or size.translate(None, _HEX):
                raise ProtocolError(f"malformed chunk size {size[:80]!r}")
            length = int(size, 16)
            if length == 0:
                break
            parts.append(self._exactly(length))
            if self._exactly(2) != b"\r\n":
                raise ProtocolError("a chunk does not end in CRLF")
        self._fields(_MAX_HEAD)  # the trailer section, read and dropped
        return b"".join(parts)


def _content_length(values: list[bytes]) -> int:
    """The one length that every Content-Length value states."""
    lengths = {v.strip(b" \t") for value in values for v in value.split(b",")}
    if len(lengths) != 1:
        raise ProtocolError(f"conflicting Content-Length values {sorted(lengths)}")
    [length] = lengths
    if not length.isdigit():
        raise ProtocolError(f"invalid Content-Length {length[:80]!r}")
    return int(length)


class Connections:
    """Keep-alive connections that POST to one URL, shared by every calling
    thread.

    Each request goes out in one write, with its fields in this order:
    ``Host``, ``Accept-Encoding: identity``, ``Content-Length``, the
    caller's ``headers`` and, through a proxy with credentials,
    ``Proxy-Authorization``. An answer is framed by chunked coding, by its
    Content-Length or by the server's close; interim 1xx answers are
    skipped. Every framing fault raises ProtocolError, an OSError.

    A call takes the idle connection returned last, or dials a new one,
    and puts it back once the whole answer is read, so the idle list never
    holds more connections than there have been concurrent calls. An idle
    connection the peer has closed is closed and replaced before it is
    used. A connection is not reused after an HTTP/1.0 answer, a
    ``Connection: close``, a close-delimited body or bytes past the end of
    the body. Any failure once the request may have gone out closes the
    connection and propagates: a POST is never sent twice here.

    The proxy for the URL's scheme is resolved once, here, from the
    environment (``http_proxy``, ``https_proxy``, ``no_proxy``), as
    ``urllib.request`` resolves it. The proxy is reached over plain TCP:
    an ``http`` origin through it with absolute-form request targets, an
    ``https`` origin through a CONNECT tunnel. Credentials in the proxy URL
    become a ``Proxy-Authorization`` header. ``https`` uses the system
    trust store. The idle connections close when the pool is
    garbage-collected.
    """

    def __init__(self, url: str, headers: dict[str, str], timeout: float):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"URL {url!r} is not an http or https URL")
        if re.search(r"[\x00-\x20\x7f]", url):
            raise ValueError(f"URL {url!r} holds a space or control character")
        host, port = parts.hostname, parts.port or (443 if parts.scheme == "https" else 80)
        authority = parts.netloc.rpartition("@")[2]
        target = url[len(f"{parts.scheme}://{parts.netloc}"):]
        # A bytes host keeps getaddrinfo from loading the idna codec.
        self._address = (_host(host), port)
        self._timeout = timeout
        self._tls = None
        self._tunnel = None
        proxy_fields = b""
        proxy = _proxy_for(parts)
        if proxy is not None:
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            # A proxy URL without a host names this machine, as a None host does.
            hostname = proxy_url.hostname or "localhost"
            self._address = (_host(hostname), proxy_url.port or 80)
            if proxy_url.username is not None:
                import base64

                userinfo = ":".join(
                    urllib.parse.unquote(part or "")
                    for part in (proxy_url.username, proxy_url.password)
                )
                token = base64.b64encode(userinfo.encode("utf-8"))
                proxy_fields = b"Proxy-Authorization: Basic %s\r\n" % token
            if parts.scheme == "https":
                name = _host(f"[{host}]" if ":" in host else host)
                self._tunnel = b"CONNECT %s:%d HTTP/1.1\r\nHost: %s:%d\r\n%s\r\n" % (
                    name, port, name, port, proxy_fields
                )
                proxy_fields = b""
            else:
                target = url
        if parts.scheme == "https":
            import ssl

            self._tls = (ssl.create_default_context(), host)
        self._start = (
            b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            % (target.encode("ascii"), _host(authority))
        )
        self._end = b"".join(
            b"%s: %s\r\n" % (name.encode("ascii"), _field_value(name, value))
            for name, value in headers.items()
        ) + proxy_fields + b"\r\n"
        self._idle: list[Connection] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def _dial(self) -> Connection:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                Connection(sock).tunnel(self._tunnel)
            if self._tls is not None:
                context, host = self._tls
                sock = context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return Connection(sock)

    def _take(self) -> Connection:
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._dial()
            if not _is_dropped(conn.sock):
                return conn
            conn.close()

    def post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` and read the whole answer: (status, body)."""
        request = b"%sContent-Length: %d\r\n%s%s" % (self._start, len(body), self._end, body)
        conn = self._take()
        try:
            status, answer, keep = conn.exchange(request)
        except BaseException:
            conn.close()
            raise
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()
        return status, answer
