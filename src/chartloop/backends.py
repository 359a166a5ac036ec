"""Reasoner and reader backend implementations.

Both contracts are tiny: a reasoner completes text up to a stop marker, a
reader answers one query about one chart.  HTTP clients speak a minimal JSON
schema compatible with common completion servers, over one persistent
``http.client`` connection per client per thread: an episode's sub-steps
reuse one connection to each backend instead of opening one per call.  The
scripted reasoner replays a fixed list of lines for regression tests.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Optional, Protocol, Sequence
from urllib.parse import urlsplit


class BackendError(RuntimeError):
    """Transport-level backend failure; episodes end with backend_error."""


class ReasonerBackend(Protocol):
    def complete(
        self, prompt: str, stop_markers: Sequence[str], temperature: float, max_tokens: int
    ) -> str: ...


class ReaderBackend(Protocol):
    def read(self, chart_ref: str, query: str) -> str: ...


class ScriptedReasoner:
    """Replays a fixed sequence of continuations, one per completion call."""

    def __init__(self, lines: Sequence[str] | dict):
        """``lines`` is a list of strings, or a mapping of them by integer step keys."""
        if isinstance(lines, dict):
            try:
                lines = [lines[k] for k in sorted(lines, key=int)]
            except (TypeError, ValueError):
                lines = None  # a key that is not an integer
        if not isinstance(lines, (list, tuple)) or not all(isinstance(x, str) for x in lines):
            raise ValueError("a script must be a list of strings or an object with integer keys")
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
# How a server's close of an idle kept-alive connection shows on the next
# request, before any status line arrives.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
# Full-jitter exponential backoff: retry k waits a uniform draw from
# [0, min(cap, base * 2**k)] seconds; a server's Retry-After is honoured up to the cap.
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 10.0


class _Rejected(BackendError):
    """A status that is not retried: sending the request again cannot help."""


class _RetryAfter(BackendError):
    """A 429 or 503 whose server asked for ``seconds`` of wait before the next try."""

    def __init__(self, message: str, seconds: float):
        super().__init__(message)
        self.seconds = seconds


class _HttpClient:
    """POSTs JSON to one ``http``/``https`` URL and decodes the JSON reply.

    Each thread keeps one connection open across calls, so threads share no
    socket.  A kept-alive connection the server has closed since the last
    call gets the request once more on a fresh connection, outside the
    ``retries`` count and without a wait.  Timeouts, connection errors,
    malformed bodies and the statuses 5xx, 408 and 429 are retried up to
    ``retries`` times, each retry after a full-jitter exponential backoff, or
    after the delta-seconds ``Retry-After`` of a 429 or 503, both capped at
    10 s; any other non-2xx status, 3xx included, fails at once.  ``close``
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
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self._connection_type = (http.client.HTTPSConnection if parts.scheme == "https"
                                 else http.client.HTTPConnection)
        self._address = (parts.hostname, port)
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set[http.client.HTTPConnection] = set()

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
            response = self._send(body)
            data = response.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._drop()
            raise BackendError(f"request to {self.url} failed: {exc}") from exc
        if response.will_close:
            self._drop()
        if not 200 <= response.status < 300:
            message = (f"request to {self.url} failed: "
                       f"HTTP Error {response.status}: {response.reason}")
            if response.status not in _RETRIED_STATUSES:
                raise _Rejected(message)
            wait = (response.getheader("Retry-After") or "").strip()
            if response.status in (429, 503) and wait.isascii() and wait.isdigit():
                # float, not int: a digit string of any length converts.
                raise _RetryAfter(message, min(float(wait), _BACKOFF_CAP_S))
            raise BackendError(message)
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise BackendError(f"request to {self.url} failed: {exc}") from exc

    def _send(self, body: bytes) -> http.client.HTTPResponse:
        """Send on this thread's connection and wait for the status line."""
        connection = getattr(self._local, "connection", None)
        if connection is not None and connection.sock is not None:  # not closed by close()
            try:
                return self._exchange(connection, body)
            except _STALE_CONNECTION:
                self._drop()
        connection = self._connection_type(*self._address, timeout=self.timeout)
        self._local.connection = connection
        with self._lock:
            self._open.add(connection)
        return self._exchange(connection, body)

    def _exchange(self, connection: http.client.HTTPConnection,
                  body: bytes) -> http.client.HTTPResponse:
        connection.request("POST", self._target, body, self._headers)
        return connection.getresponse()

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
    """Reader client: POST {chart_ref, query} -> {text}."""

    def read(self, chart_ref: str, query: str) -> str:
        return _extract_text(self._post({"chart_ref": chart_ref, "query": query}))

