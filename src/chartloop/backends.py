"""Reasoner and reader backend implementations.

Both contracts are tiny: a reasoner completes text up to a stop marker, a
reader answers one query about one chart.  HTTP clients speak a minimal JSON
schema compatible with common completion servers, over one persistent
HTTP/1.1 connection per client per thread: an episode's sub-steps reuse one
connection to each backend instead of opening one per call.

The client speaks HTTP/1.1 on its own socket.  A request is a head built
once per client (``POST``, ``Host``, ``Accept-Encoding: identity``,
``Content-Type`` and, with an API key, ``Authorization``) plus its
``Content-Length`` and JSON body, sent in one ``sendall``.  A response is
parsed in one pass from a buffered reader made once per connection: the
status line (at most 100 ``1xx`` interim responses are skipped), at most
100 header lines of at most 64 KiB each, and a body of at most 1 MiB
(``_MAX_BODY``) framed by ``Content-Length``, by ``Transfer-Encoding:
chunked`` or by the server closing the connection.  A call's ``timeout``
bounds the whole response: it must arrive within that many seconds of the
send, however the server spaces its bytes.
``https`` URLs are wrapped by ``ssl.create_default_context()``, which checks
the certificate and the host name.  The scripted reasoner replays a fixed
list of lines for regression tests.  ``ChartReads`` is the one-chart memo
that ``HttpReader``, the table oracle and self-consistency read through.
"""

from __future__ import annotations

import io
import json
import random
import re
import socket
import ssl
import threading
import time
from time import monotonic  # tests replace the module's ``time`` to fake the backoff sleeps
from typing import Callable, Optional, Protocol, Sequence
from urllib.parse import urlsplit


class BackendError(RuntimeError):
    """Transport-level backend failure; episodes end with backend_error."""


class ReasonerBackend(Protocol):
    def complete(
        self, prompt: str, stop_markers: Sequence[str], temperature: float, max_tokens: int
    ) -> str: ...


class ReaderBackend(Protocol):
    def read(self, chart_ref: str, query: str) -> str: ...


class ChartReads:
    """A reader that asks ``fetch`` each query line once per chart: it keeps
    the answers of the chart last read, by query line, and drops them when a
    read names another chart.  An answer is taken to depend only on (chart,
    line); a call that raises keeps nothing, so the next one asks again.

    The one slot is read once per call and replaced whole, so threads may
    share a memo without a lock: a race costs an extra ``fetch``, and an
    answer is only ever stored among its own chart's answers.
    """

    __slots__ = ("_fetch", "_slot")

    def __init__(self, fetch: Callable[[str, str], str]):
        self._fetch = fetch
        self._slot: tuple[Optional[str], dict[str, str]] = (None, {})

    def read(self, chart_ref: str, query: str) -> str:
        chart, answers = self._slot
        if chart != chart_ref:
            answer = self._fetch(chart_ref, query)
            self._slot = (chart_ref, {query: answer})
            return answer
        answer = answers.get(query)
        if answer is None:
            answer = answers[query] = self._fetch(chart_ref, query)
        return answer


class ScriptedReasoner:
    """Replays a fixed sequence of continuations, one per completion call."""

    def __init__(self, lines: Sequence[str] | dict):
        """``lines`` is a list of strings, or a mapping of them keyed exactly
        ``"0"`` to ``"n-1"``, one key per step."""
        if isinstance(lines, dict):
            # n keys that include "0" .. "n-1" are exactly those; a missing one reads None.
            lines = [lines.get(str(step)) for step in range(len(lines))]
        if not isinstance(lines, (list, tuple)) or not all(isinstance(x, str) for x in lines):
            raise ValueError('a script must be a list of strings or an object of strings '
                             'keyed "0" to "n-1"')
        self._lines = list(lines)
        self._cursor = 0

    def complete(
        self, prompt: str, stop_markers: Sequence[str], temperature: float, max_tokens: int
    ) -> str:
        if self._cursor >= len(self._lines):
            raise BackendError("script exhausted")
        line = self._lines[self._cursor]
        self._cursor += 1
        return line


# Statuses a later attempt may get past: server errors, request timeout and
# rate limit.  Any other non-2xx status would come back the same.
_RETRIED_STATUSES = frozenset(range(500, 600)) | {408, 429}
# Full-jitter exponential backoff: retry k waits a uniform draw from
# [0, min(cap, base * 2**k)] seconds; a server's Retry-After is honoured up to the cap.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 10.0
# Response limits, as in http.client: bytes per status, header or chunk-size
# line, line end included, and header lines per response.
_MAX_LINE = 65536
_MAX_HEADERS = 100
# Interim (1xx) responses skipped before the final one; http.client skips any number.
_MAX_INTERIM = 100
# Largest response body, however it is framed: a longer one fails the call,
# so a bad reply cannot fill memory before the timeout.  A body is read at once.
_MAX_BODY = 1 << 20
# http.client refuses these characters in a request target or a host; a
# bearer token holds none of them either.
_UNSAFE_CHAR = re.compile("[\x00-\x20\x7f]")
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?: ([^\r\n]*))?\r?\n")
_HEADER_NAME = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


class _Rejected(BackendError):
    """A status that is not retried: sending the request again cannot help."""


class _RetryAfter(BackendError):
    """A 429 or 503 whose server asked for ``seconds`` of wait before the next try."""

    def __init__(self, message: str, seconds: float):
        super().__init__(message)
        self.seconds = seconds


class _Disconnected(ConnectionError):
    """The server closed the connection before a status line arrived."""


# How a server's close of an idle kept-alive connection shows on the next
# request, before any status line arrives.
_STALE_CONNECTION = (_Disconnected, ConnectionResetError, BrokenPipeError)


class _SocketReader(io.RawIOBase):
    """A socket read by a buffered reader: each read of the socket must end
    by ``deadline``, a ``monotonic()`` time, and costs one clock read."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self.sock.settimeout(left)
        return self.sock.recv_into(buffer)


class _Connection:
    """One socket and the buffered reader made once over it."""

    __slots__ = ("sock", "reader", "rfile")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = _SocketReader(sock)
        self.rfile = io.BufferedReader(self.reader)

    def send(self, request: bytes, timeout: float) -> bytes:
        """Send ``request`` in one write and return the status line that
        answers it; every read of the response must end within ``timeout``
        seconds of the send."""
        self.sock.settimeout(timeout)
        self.sock.sendall(request)
        self.reader.deadline = monotonic() + timeout
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            raise _Disconnected("the server closed the connection without a response")
        return line

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def _read_line(rfile, what: str) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"{what} longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ValueError(f"the response ended inside a {what}")
    return line


def _read_headers(rfile) -> dict[str, str]:
    """Header lines up to the blank line, by lower-case name; a repeated name
    joins its values with ``", "``."""
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile, "header line")
        if line == b"\r\n" or line == b"\n":
            return headers
        name, colon, value = line.partition(b":")
        if not colon or not _HEADER_NAME.fullmatch(name):
            raise ValueError(f"malformed header line {line!r:.100}")
        key, value = name.decode("ascii").lower(), value.strip().decode("latin-1")
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    raise ValueError(f"more than {_MAX_HEADERS} header lines")


def _body_size(size: int) -> int:
    if size > _MAX_BODY:
        raise ValueError(f"the response body is over the limit of {_MAX_BODY} bytes")
    return size


def _read_exact(rfile, size: int) -> bytes:
    data = rfile.read(size)
    if len(data) < size:
        raise ValueError(f"the body ended after {len(data)} of {size} bytes")
    return data


def _read_chunked(rfile) -> bytes:
    parts, total = [], 0
    while True:
        line = _read_line(rfile, "chunk size line")
        digits = line.partition(b";")[0].strip()
        if not _CHUNK_SIZE.fullmatch(digits):
            raise ValueError(f"malformed chunk size line {line!r:.100}")
        size = int(digits, 16)
        if not size:
            _read_headers(rfile)  # the trailer, under the header limits
            return b"".join(parts)
        total = _body_size(total + size)
        parts.append(_read_exact(rfile, size))
        if rfile.read(2) != b"\r\n":
            raise ValueError("a chunk is not followed by CRLF")


def _read_response(rfile, line: bytes) -> tuple[int, str, dict[str, str], bytes, bool]:
    """Status, reason, headers, body and whether the server will close the
    connection, for the response whose status line is ``line``.  A malformed
    or short response raises ValueError."""
    for _ in range(_MAX_INTERIM + 1):
        match = _STATUS_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed status line {line!r:.100}")
        headers = _read_headers(rfile)
        status = int(match[2])
        if status >= 200:
            break
        line = _read_line(rfile, "status line")  # after an interim 1xx response
    else:
        raise ValueError(f"more than {_MAX_INTERIM} interim responses")
    connection = headers.get("connection", "").lower()
    if match[1] == b"0":
        will_close = "keep-alive" not in connection and "keep-alive" not in headers
    else:
        will_close = "close" in connection
    length = headers.get("content-length")
    if status == 204 or status == 304:
        data = b""
    elif headers.get("transfer-encoding", "").lower() == "chunked":
        data = _read_chunked(rfile)
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"malformed Content-Length {length!r:.100}")
        data = _read_exact(rfile, _body_size(int(length)))
    else:
        data, will_close = rfile.read(_MAX_BODY + 1), True
        _body_size(len(data))
    return status, (match[3] or b"").strip().decode("latin-1"), headers, data, will_close


class _HttpClient:
    """POSTs JSON to one ``http``/``https`` URL and decodes the JSON reply.

    Each thread keeps one connection open across calls, so threads share no
    socket.  A kept-alive connection the server has closed since the last
    call (nothing before the status line, a reset or a broken pipe) gets the
    request once more on a fresh connection, outside the ``retries`` count
    and without a wait.  An attempt times out when its response has not
    fully arrived ``timeout`` seconds after its send.  Timeouts, connection
    errors, malformed responses and bodies, and the statuses 5xx, 408 and
    429 are retried up to ``retries`` times, each retry after a full-jitter
    exponential backoff, or after the delta-seconds ``Retry-After`` of a 429
    or 503, both capped at 10 s; any other non-2xx status, 3xx included,
    fails at once.  A failed exchange drops its connection.  ``close``
    closes the connections of every thread.
    """

    def __init__(
        self, url: str, api_key: Optional[str] = None, timeout: float = 60.0, retries: int = 1
    ):
        try:
            parts = urlsplit(url)
            port = parts.port
        except ValueError:  # a malformed host or a port outside 0-65535
            parts = port = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"backend URL {url!r} is not an http or https URL with a host")
        host = parts.hostname
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if _UNSAFE_CHAR.search(host + target) or not target.isascii():
            raise ValueError(f"backend URL {url!r} holds a space, a control character or "
                             "a non-ASCII character in its host, path or query")
        if api_key and (_UNSAFE_CHAR.search(api_key) or not api_key.isascii()):
            raise ValueError("the API key must be ASCII without spaces or control characters")
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        default_port = 443 if parts.scheme == "https" else 80
        self._address = (host, port or default_port)
        self._tls = None
        if parts.scheme == "https":
            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        # The Host header as http.client writes it: an IPv6 address in
        # brackets, the port only when it is not the scheme's default.
        try:
            host_name = host.encode("ascii")
        except UnicodeEncodeError:
            host_name = host.encode("idna")
        if b":" in host_name:
            host_name = b"[" + host_name + b"]"
        if port is not None and port != default_port:
            host_name += b":%d" % port
        self._head = (b"POST " + target.encode("ascii") + b" HTTP/1.1\r\nHost: " + host_name
                      + b"\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n"
                      + (f"Authorization: Bearer {api_key}\r\n".encode("ascii") if api_key else b"")
                      + b"Content-Length: ")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set[_Connection] = set()

    def close(self) -> None:
        """Close the connection of every thread that called this client."""
        with self._lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    def _post(self, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        ceiling = _BACKOFF_BASE_S
        for retries_left in range(self.retries, -1, -1):
            try:
                return self._attempt(body)
            except BackendError as exc:
                if not retries_left or isinstance(exc, _Rejected):
                    raise
                time.sleep(exc.seconds if isinstance(exc, _RetryAfter)
                           else random.uniform(0.0, ceiling))
                ceiling = min(2 * ceiling, _BACKOFF_CAP_S)
        raise AssertionError("unreachable")

    def _attempt(self, body: bytes):
        try:
            connection, line = self._send(self._head + b"%d\r\n\r\n" % len(body) + body)
            status, reason, headers, data, will_close = _read_response(connection.rfile, line)
        except (OSError, ValueError) as exc:
            self._drop()
            raise BackendError(f"request to {self.url} failed: {exc}") from exc
        except BaseException:  # an interrupt leaves the response half read
            self._drop()
            raise
        if will_close:
            self._drop()
        if not 200 <= status < 300:
            message = f"request to {self.url} failed: HTTP Error {status}: {reason}"
            if status not in _RETRIED_STATUSES:
                raise _Rejected(message)
            wait = headers.get("retry-after", "").strip()
            if status in (429, 503) and wait.isascii() and wait.isdigit():
                # float, not int: a digit string of any length converts.
                raise _RetryAfter(message, min(float(wait), _BACKOFF_CAP_S))
            raise BackendError(message)
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise BackendError(f"request to {self.url} failed: {exc}") from exc

    def _send(self, request: bytes) -> tuple[_Connection, bytes]:
        """Send on this thread's connection; return it and the status line."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and not connection.rfile.closed:  # not closed by close()
            try:
                return connection, connection.send(request, self.timeout)
            except _STALE_CONNECTION:
                self._drop()
        connection = self._connect()
        return connection, connection.send(request, self.timeout)

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            connection = _Connection(sock)
        except BaseException:
            sock.close()
            raise
        self._local.connection = connection
        with self._lock:
            self._open.add(connection)
        return connection

    def _drop(self) -> None:
        """Close this thread's connection; its next call opens a new one."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            with self._lock:
                self._open.discard(connection)
            connection.close()


def _extract_text(payload) -> str:
    """The string ``text`` of a response body, at the top level or in its
    first ``choices`` object; any other body is a BackendError."""
    if isinstance(payload, dict):
        text = payload.get("text")
        if isinstance(text, str):
            return text
        choices = payload.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            text = choices[0].get("text")
            if isinstance(text, str):
                return text
    raise BackendError(f"no string text field in response: {payload!r:.200}")


class HttpReasoner(_HttpClient):
    """Completion client: POST {prompt, stop, temperature, max_tokens} -> {text}.

    Also accepts the common ``{"choices": [{"text": ...}]}`` response shape.
    One retry by default, with the transport and retry rules of ``_HttpClient``.
    """

    def __init__(
        self,
        url: str,
        model: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 1,
    ):
        super().__init__(url, api_key, timeout, retries)
        self.model = model

    def complete(
        self, prompt: str, stop_markers: Sequence[str], temperature: float, max_tokens: int
    ) -> str:
        payload = {
            "prompt": prompt,
            "stop": list(stop_markers),
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        if self.model:
            payload["model"] = self.model
        return _extract_text(self._post(payload))


class HttpReader(_HttpClient):
    """Reader client: POST {chart_ref, query} -> {text}.

    Reads go through a ``ChartReads`` memo: a query line repeated on the
    chart last read is answered without a request.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._reads = ChartReads(self._ask)

    def read(self, chart_ref: str, query: str) -> str:
        return self._reads.read(chart_ref, query)

    def _ask(self, chart_ref: str, query: str) -> str:
        return _extract_text(self._post({"chart_ref": chart_ref, "query": query}))

