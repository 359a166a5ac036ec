"""Reasoner and reader backend implementations.

Both contracts are tiny: a reasoner completes text up to a stop marker, a
reader answers one query about one chart.  HTTP clients speak a minimal JSON
schema compatible with common completion servers; the scripted reasoner
replays a fixed list of lines for regression tests.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Optional, Protocol, Sequence


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


def _post_json(url: str, payload: dict, timeout: float, headers: dict):
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **headers}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError, RecursionError) as exc:
        raise BackendError(f"request to {url} failed: {exc}") from exc


def _with_retry(call, retries: int):
    attempts = retries + 1
    for attempt in range(attempts):
        try:
            return call()
        except BackendError:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")


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


class HttpReasoner:
    """Completion client: POST {prompt, stop, temperature, max_tokens} -> {text}.

    Also accepts the common ``{"choices": [{"text": ...}]}`` response shape.
    One configurable retry; anything beyond that is the caller's problem.
    """

    def __init__(
        self,
        url: str,
        model: Optional[str] = None,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 1,
    ):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries

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
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        response = _with_retry(
            lambda: _post_json(self.url, payload, self.timeout, headers), self.retries
        )
        return _extract_text(response)


class HttpReader:
    """Reader client: POST {chart_ref, query} -> {text}."""

    def __init__(
        self,
        url: str,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
        retries: int = 1,
    ):
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries

    def read(self, chart_ref: str, query: str) -> str:
        payload = {"chart_ref": chart_ref, "query": query}
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        response = _with_retry(
            lambda: _post_json(self.url, payload, self.timeout, headers), self.retries
        )
        return _extract_text(response)
