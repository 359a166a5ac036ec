import json
import random
import re
import socket
import ssl
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from types import SimpleNamespace

from chartloop import backends, cli, symbolic
from chartloop.backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from chartloop.cli import main
from chartloop.controller import run_episode
from chartloop.oracle import TableOracle, execute_query
from chartloop.prompts import linearize_table
from chartloop.protocol import describe_query
from chartloop.symbolic import SymbolicReasoner, decompose
from chartloop.synth import random_tables
from chartloop.tables import Termination, Value


def _serve(tables, protocol_version):
    """Start a completion+reader server backed by the table oracle over
    ``tables``; yields its base URL and a state dict the tests read and set."""
    oracle = TableOracle(tables)
    reasoner = SymbolicReasoner()
    lock = threading.Lock()
    state = {"requests": [], "fail_next": 0, "fail_status": 500, "fail_headers": {},
             "malformed": "", "connections": 0, "drop_after_response": False}

    class Handler(BaseHTTPRequestHandler):
        # Headers and body go out as two writes; without this, Nagle's
        # algorithm holds the body until the client's delayed ACK (about
        # 40 ms) on a connection that stays open.
        disable_nagle_algorithm = True

        def setup(self):
            super().setup()
            with lock:
                state["connections"] += 1

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            with lock:
                state["requests"].append((self.path, payload, dict(self.headers)))
                fail = state["fail_next"] > 0
                state["fail_next"] -= fail
            # Close after this response without saying so, as a server that
            # times out idle connections does.
            self.close_connection = state["drop_after_response"]
            if fail:
                self.send_response(state["fail_status"])
                for name, value in state["fail_headers"].items():
                    self.send_header(name, value)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if self.path == "/complete":
                text = reasoner.complete(
                    payload["prompt"], payload["stop"],
                    payload["temperature"], payload["max_tokens"],
                )
                body = {"text": text}
            elif self.path == "/complete-openai":
                body = {"choices": [{"text": "The answer is 41."}]}
            elif self.path == "/malformed":
                data = state["malformed"].encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                return
            elif self.path == "/read":
                body = {"text": oracle.read(payload["chart_ref"], payload["query"])}
            else:
                self.send_error(404)
                return
            data = json.dumps(body).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt, *args):
            pass

    Handler.protocol_version = protocol_version
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll keeps each teardown's shutdown() from waiting half a second.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def raw_stub(monkeypatch):
    """A loopback server that answers each request with the next canned raw
    response, whatever host the client asks for: the client's
    ``socket.create_connection`` is sent to it.  Yields a state dict:
    ``responses`` to send, as (bytes, keep the connection open) pairs, where
    a list of bytes is sent one part every 0.1 s;
    ``requests`` received, as raw bytes; ``addresses`` the client connected to."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.02)
    state = {"responses": [], "requests": [], "addresses": []}
    stop = threading.Event()

    def answer(conn):
        conn.settimeout(10)
        with conn, conn.makefile("rb") as rfile:
            while True:
                lines = [rfile.readline()]
                while lines[-1] not in (b"\r\n", b""):
                    lines.append(rfile.readline())
                if not lines[-1]:
                    return  # the client closed the connection
                head = b"".join(lines)
                length = int(re.search(rb"Content-Length: (\d+)", head)[1])
                state["requests"].append(head + rfile.read(length))
                response, keep_open = state["responses"].pop(0)
                parts = response if isinstance(response, list) else [response]
                for number, part in enumerate(parts):
                    if number:
                        time.sleep(0.1)
                    conn.sendall(part)
                if not keep_open:
                    return

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            try:
                answer(conn)
            except OSError:  # the client left in the middle of a response
                pass

    connect = socket.create_connection

    def redirect(address, *args, **kwargs):
        state["addresses"].append(address)
        return connect(listener.getsockname(), *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", redirect)
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield state
    finally:
        stop.set()
        thread.join(timeout=20)
        listener.close()
        assert not thread.is_alive()


@pytest.fixture
def tls_spy(monkeypatch):
    """Replace ``ssl.create_default_context``: each context it makes is a real
    default one whose ``wrap_socket`` records (context, server_hostname) and
    returns the plain socket, so an https client talks to a plain stub."""
    wrapped = []
    create = ssl.create_default_context

    def create_default_context(*args, **kwargs):
        context = create(*args, **kwargs)

        def wrap_socket(sock, server_hostname=None, **options):
            wrapped.append((context, server_hostname))
            return sock

        context.wrap_socket = wrap_socket
        return context

    monkeypatch.setattr(ssl, "create_default_context", create_default_context)
    return wrapped


@pytest.fixture
def http_stub(costa_rica):
    """HTTP/1.0 server: the connection closes after every response."""
    yield from _serve([costa_rica], "HTTP/1.0")


@pytest.fixture
def keepalive_stub(costa_rica):
    """HTTP/1.1 server that keeps connections open and counts them; it also
    knows the charts of ``eval --synthetic 20 --seed 0``."""
    yield from _serve([costa_rica, *random_tables(0, 20)], "HTTP/1.1")


def _chart_refs(n):
    """``n`` distinct charts the keepalive stub knows.  A reader answers a
    line repeated on one chart from its memo, so a test of the transport
    reads a new chart on each call to make every call reach the server."""
    return ["pupil-teacher", *(t.source_id for t in random_tables(0, n - 1))]


def test_http_reasoner_request_schema(http_stub):
    url, state = http_stub
    client = HttpReasoner(f"{url}/complete", api_key="secret-token")
    text = client.complete("Q: How many legend labels are there?\nA: ", ["\n"], 0.0, 128)
    assert text == "Let's describe the figure."
    path, payload, headers = state["requests"][-1]
    assert path == "/complete"
    assert payload == {
        "prompt": "Q: How many legend labels are there?\nA: ",
        "stop": ["\n"],
        "temperature": 0.0,
        "max_tokens": 128,
    }
    assert headers.get("Authorization") == "Bearer secret-token"


def test_http_reasoner_model_field(http_stub):
    url, state = http_stub
    client = HttpReasoner(f"{url}/complete-openai", model="local-7b")
    text = client.complete("Q: x\nA: ", ["\n"], 0.2, 64)
    assert text == "The answer is 41."
    _, payload, _ = state["requests"][-1]
    assert payload["model"] == "local-7b"


def test_http_reader_round_trip(http_stub):
    url, _ = http_stub
    reader = HttpReader(f"{url}/read")
    answer = reader.read("pupil-teacher", "Let's extract the data of Costa Rica.")
    assert answer.startswith("The data is 18.84 in 2000")


def test_http_retry_recovers_once(http_stub):
    url, state = http_stub
    state["fail_next"] = 1
    reader = HttpReader(f"{url}/read", retries=1)
    answer = reader.read("pupil-teacher", "Let's describe the figure.")
    assert answer.startswith("The figure shows the data of:")


def test_http_retry_exhausted_raises(http_stub):
    url, state = http_stub
    state["fail_next"] = 2
    reader = HttpReader(f"{url}/read", retries=1)
    with pytest.raises(BackendError):
        reader.read("pupil-teacher", "Let's describe the figure.")


@pytest.mark.parametrize("status, requests", [
    (404, 1), (400, 1), (401, 1), (302, 1), (408, 2), (429, 2), (500, 2), (503, 2),
])
def test_only_retryable_statuses_are_retried(http_stub, status, requests):
    url, state = http_stub
    state["fail_next"], state["fail_status"] = 2, status
    reader = HttpReader(f"{url}/read", retries=1)
    with pytest.raises(BackendError, match=f"HTTP Error {status}"):
        reader.read("pupil-teacher", "Let's describe the figure.")
    assert len(state["requests"]) == requests


@pytest.fixture
def fake_clock(monkeypatch):
    """Record each backoff sleep; a jittered wait draws the middle of its range,
    whose bounds are recorded too."""
    sleeps, ranges = [], []

    def uniform(low, high):
        ranges.append((low, high))
        return (low + high) / 2

    monkeypatch.setattr(backends, "time", SimpleNamespace(sleep=sleeps.append))
    monkeypatch.setattr(backends, "random", SimpleNamespace(uniform=uniform))
    return sleeps, ranges


def test_retries_back_off_with_full_jitter_up_to_a_cap(http_stub, fake_clock):
    url, state = http_stub
    sleeps, ranges = fake_clock
    state["fail_next"] = 10
    reader = HttpReader(f"{url}/read", retries=10)
    assert reader.read("pupil-teacher", "Let's describe the figure.").startswith(
        "The figure shows the data of:")
    ceilings = [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 10.0, 10.0, 10.0]
    assert ranges == [(0.0, pytest.approx(c)) for c in ceilings]
    assert sleeps == [pytest.approx(c / 2) for c in ceilings]
    assert len(state["requests"]) == 11


def test_no_sleep_after_the_last_attempt(http_stub, fake_clock):
    url, state = http_stub
    sleeps, _ = fake_clock
    state["fail_next"] = 3
    with pytest.raises(BackendError, match="HTTP Error 500"):
        HttpReader(f"{url}/read", retries=2).read("pupil-teacher", "Let's describe the figure.")
    assert sleeps == [pytest.approx(0.05), pytest.approx(0.1)]
    assert len(state["requests"]) == 3


@pytest.mark.parametrize("status, retry_after, waits", [
    pytest.param(429, "3", [3.0], id="429"),
    pytest.param(503, "0", [0.0], id="503"),
    pytest.param(503, " 120 ", [10.0], id="capped"),
    pytest.param(429, "9" * 5000, [10.0], id="5000-digits"),
    pytest.param(500, "3", [0.05], id="only-429-and-503"),
    pytest.param(429, "Wed, 21 Oct 2015 07:28:00 GMT", [0.05], id="http-date"),
    pytest.param(429, "-1", [0.05], id="negative"),
    pytest.param(429, "1.5", [0.05], id="fraction"),
])
def test_retry_after_is_honoured_on_429_and_503(http_stub, fake_clock, status, retry_after,
                                                waits):
    url, state = http_stub
    sleeps, _ = fake_clock
    state["fail_next"], state["fail_status"] = 1, status
    state["fail_headers"] = {"Retry-After": retry_after}
    reader = HttpReader(f"{url}/read", retries=1)
    assert reader.read("pupil-teacher", "Let's describe the figure.").startswith(
        "The figure shows the data of:")
    assert sleeps == [pytest.approx(w) for w in waits]


def test_a_stale_connection_is_resent_without_a_wait(keepalive_stub, fake_clock):
    url, state = keepalive_stub
    sleeps, _ = fake_clock
    state["drop_after_response"] = True
    reader = HttpReader(f"{url}/read", retries=1)
    for chart_ref in _chart_refs(3):
        reader.read(chart_ref, "Let's describe the figure.")
    assert len(state["requests"]) == 3 and state["connections"] == 3
    assert sleeps == []
    reader.close()


@pytest.mark.parametrize("url", [
    "foo", "file:///dev/null", "ftp://127.0.0.1/complete", "http://", "http:///complete",
    "http://127.0.0.1:99999/complete", "http://[::1/complete",
])
def test_backend_url_must_be_http_with_a_host(url):
    with pytest.raises(ValueError, match="not an http or https URL with a host"):
        HttpReasoner(url)
    with pytest.raises(ValueError, match="not an http or https URL with a host"):
        HttpReader(url)


def test_episode_keeps_one_connection_per_backend(keepalive_stub):
    url, state = keepalive_stub
    reasoner, reader = HttpReasoner(f"{url}/complete"), HttpReader(f"{url}/read")
    trace = run_episode(
        "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?",
        "pupil-teacher", reasoner, reader,
    )
    assert trace.final == Value.from_raw("14.92")
    assert len(state["requests"]) > 2
    assert state["connections"] == 2
    reasoner.close()
    reader.close()
    reader.read("synthetic-0-0", "Let's describe the figure.")
    assert state["connections"] == 3
    reader.close()


def test_connection_closed_by_the_server_is_reopened(keepalive_stub):
    url, state = keepalive_stub
    state["drop_after_response"] = True
    reader = HttpReader(f"{url}/read", retries=0)
    for chart_ref in _chart_refs(5):
        assert reader.read(chart_ref, "Let's describe the figure.").startswith(
            "The figure shows the data of:")
    assert len(state["requests"]) == 5
    assert state["connections"] == 5
    reader.close()


def test_threads_share_no_connection(keepalive_stub):
    url, state = keepalive_stub
    reader = HttpReader(f"{url}/read", retries=0)
    barrier, answers, errors = threading.Barrier(4), [], []

    def work():
        try:
            barrier.wait(timeout=10)
            for _ in range(25):
                answers.append(reader.read("pupil-teacher", "Let's describe the figure."))
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(answers) == 100
    assert all(a.startswith("The figure shows the data of:") for a in answers)
    assert state["connections"] == 4
    reader.close()


def test_eval_over_http_is_the_same_at_any_worker_count(keepalive_stub, tmp_path):
    url, _ = keepalive_stub
    common = ["eval", "--synthetic", "20", "--per-template", "2", "--seed", "0"]
    assert main([*common, "--out-dir", str(tmp_path / "symbolic")]) == 0
    expected = (tmp_path / "symbolic" / "records.jsonl").read_bytes()
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert main([*common, "--reasoner-url", f"{url}/complete", "--reader-url", f"{url}/read",
                     "--workers", workers, "--out-dir", str(out)]) == 0
        assert (out / "records.jsonl").read_bytes() == expected


def test_a_deplot_style_needs_a_reasoner_server_and_its_run_replays(keepalive_stub, tmp_path,
                                                                     capsys):
    """The symbolic reasoner ignores the table a DePlot prompt carries, so
    only a reasoner server may be given one; such a run's recorded config
    replays it."""
    url, state = keepalive_stub
    common = ["eval", "--synthetic", "3", "--prompt-style", "deplot5"]
    assert main([*common, "--out-dir", str(tmp_path / "symbolic")]) == 2
    assert capsys.readouterr().err == "error: --prompt-style deplot5 needs --reasoner-url\n"
    assert not (tmp_path / "symbolic").exists()
    first = tmp_path / "first"
    assert main([*common, "--reasoner-url", f"{url}/complete", "--out-dir", str(first)]) == 0
    table = linearize_table(random_tables(0, 3)[0])
    assert any(table in payload["prompt"] for _, payload, _ in state["requests"])
    again = tmp_path / "again"
    assert main(["eval", "--config", str(first / "run_config.json"),
                 "--out-dir", str(again)]) == 0
    for name in ("records.jsonl", "traces.jsonl", "report.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_temperature_reaches_the_reasoner_server_and_its_run_replays(keepalive_stub, tmp_path):
    """A reasoner server is the one backend that reads a temperature: every
    completion request carries it, the run records it, and the recorded
    config replays the run."""
    url, state = keepalive_stub
    first = tmp_path / "first"
    assert main(["eval", "--synthetic", "3", "--sc", "3", "--temperature", "0.9",
                 "--reasoner-url", f"{url}/complete", "--out-dir", str(first)]) == 0
    sent = {payload["temperature"] for path, payload, _ in state["requests"] if path == "/complete"}
    assert sent == {0.9}
    assert json.loads((first / "run_config.json").read_text())["temperature"] == 0.9
    again = tmp_path / "again"
    assert main(["eval", "--config", str(first / "run_config.json"),
                 "--out-dir", str(again)]) == 0
    for name in ("records.jsonl", "traces.jsonl", "report.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_eval_workers_with_a_reader_url_share_one_reasoner(keepalive_stub, tmp_path,
                                                          monkeypatch):
    """Worker threads share the run's one symbolic reasoner, whose plan cache
    holds both threads' questions: each distinct question text is decomposed
    once while the cache holds it, and the records do not move."""
    url, _ = keepalive_stub
    common = ["eval", "--synthetic", "20", "--per-template", "2", "--seed", "0"]
    assert main([*common, "--out-dir", str(tmp_path / "in-process")]) == 0
    made, decomposed = [], []

    class CountedReasoner(SymbolicReasoner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def counted_decompose(question):
        decomposed.append(question)
        return decompose(question)

    monkeypatch.setattr(cli, "SymbolicReasoner", CountedReasoner)
    monkeypatch.setattr(symbolic, "decompose", counted_decompose)
    out = tmp_path / "workers2"
    assert main([*common, "--reader-url", f"{url}/read", "--workers", "2",
                 "--out-dir", str(out)]) == 0
    for name in ("records.jsonl", "traces.jsonl"):
        assert (out / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes()
    assert len(made) == 1
    questions = [json.loads(line)["question"]
                 for line in (out / "records.jsonl").read_text(encoding="utf-8").splitlines()]
    # A text asked again soon after is not decomposed again; one asked again
    # long after may be, once the bounded cache has let it go.
    far = _asked_again_after(questions, symbolic._MEMO_SIZE // 2)
    counts = Counter(decomposed)
    assert set(counts) == set(questions) and len(far) < len(set(questions)) < len(questions)
    assert all(counts[question] == 1 for question in set(questions) - far)
    assert all(counts[question] <= questions.count(question) for question in far)


def _asked_again_after(questions, reach):
    """The texts asked again after ``reach`` or more other distinct texts."""
    last, far = {}, set()
    for index, question in enumerate(questions):
        if question in last and len(set(questions[last[question] + 1:index])) >= reach:
            far.add(question)
        last[question] = index
    return far


def test_eval_sc_over_http_asks_each_line_once_per_chart(keepalive_stub, tmp_path):
    """Self-consistency samples share their reads, and so do the questions of
    one chart: at one worker the reader server gets one request per distinct
    (chart, query line) of the run, and the run writes what the in-process
    run writes."""
    url, state = keepalive_stub
    common = ["eval", "--synthetic", "20", "--sc", "5"]
    assert main([*common, "--out-dir", str(tmp_path / "in-process")]) == 0
    assert main([*common, "--reader-url", f"{url}/read", "--workers", "1",
                 "--out-dir", str(tmp_path / "http")]) == 0
    for name in ("records.jsonl", "traces.jsonl"):
        assert ((tmp_path / "http" / name).read_bytes()
                == (tmp_path / "in-process" / name).read_bytes())
    expected, question_queries = set(), 0
    for line in (tmp_path / "in-process" / "traces.jsonl").read_text().splitlines():
        record = json.loads(line)
        queries = {step["text"] for episode in record["episodes"] for step in episode["steps"]
                   if step["role"] == "reasoner_query"}
        question_queries += len(queries)
        expected |= {(record["chart_id"], query) for query in queries}
    asked = [(payload["chart_ref"], payload["query"]) for _, payload, _ in state["requests"]]
    assert sorted(asked) == sorted(expected)
    # The questions of a chart repeat its lines, so the memo saves requests here.
    assert len(asked) < question_queries


def test_eval_workers_sharing_one_oracle_write_the_in_process_bytes(keepalive_stub, tmp_path,
                                                                   monkeypatch):
    """Four workers read through one table oracle and its one-chart memo,
    which their questions of different charts keep replacing; the run still
    writes what the in-process run writes."""
    url, _ = keepalive_stub
    common = ["eval", "--synthetic", "20", "--per-template", "2"]
    assert main([*common, "--out-dir", str(tmp_path / "in-process")]) == 0
    made = []

    class CountedOracle(TableOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cli, "TableOracle", CountedOracle)
    out = tmp_path / "workers4"
    assert main([*common, "--reasoner-url", f"{url}/complete", "--workers", "4",
                 "--out-dir", str(out)]) == 0
    assert len(made) == 1
    for name in ("records.jsonl", "traces.jsonl"):
        assert (out / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes()


def test_http_reader_answers_a_repeated_line_on_one_chart_once(keepalive_stub, costa_rica):
    url, state = keepalive_stub
    reader = HttpReader(f"{url}/read")
    answers = [reader.read("pupil-teacher", "Let's describe the figure.") for _ in range(3)]
    assert answers == [execute_query(costa_rica, describe_query())] * 3
    assert len(state["requests"]) == 1
    reader.close()


def test_http_reader_drops_the_answers_of_the_last_chart(keepalive_stub):
    url, state = keepalive_stub
    reader = HttpReader(f"{url}/read")
    for chart_ref in ("pupil-teacher", "pupil-teacher", "synthetic-0-0", "pupil-teacher"):
        reader.read(chart_ref, "Let's describe the figure.")
    assert [payload["chart_ref"] for _, payload, _ in state["requests"]] == [
        "pupil-teacher", "synthetic-0-0", "pupil-teacher"]
    reader.close()


def test_http_reader_asks_again_after_a_read_that_raised(keepalive_stub):
    url, state = keepalive_stub
    state["fail_next"] = 1
    reader = HttpReader(f"{url}/read", retries=0)
    with pytest.raises(BackendError, match="HTTP Error 500"):
        reader.read("pupil-teacher", "Let's describe the figure.")
    assert reader.read("pupil-teacher", "Let's describe the figure.").startswith(
        "The figure shows the data of:")
    assert len(state["requests"]) == 2
    reader.close()


def test_threads_sharing_a_chart_memo_get_each_line_its_own_answer():
    """Eight threads read two lines of three charts through one memo whose
    fetch gives up the interpreter lock, as a request does, and switch as
    often as the interpreter allows: however they replace the memo's one
    chart, every answer is its own chart's and line's."""
    def fetch(chart_ref, query):
        time.sleep(0)
        return f"{chart_ref}: {query}"

    reads = backends.ChartReads(fetch)
    cases = [(chart_ref, query) for chart_ref in "abc" for query in "xy"]
    wrong, errors = [], []

    def work(seed):
        try:
            for chart_ref, query in random.Random(seed).choices(cases, k=1000):
                answer = reads.read(chart_ref, query)
                if answer != f"{chart_ref}: {query}":
                    wrong.append((chart_ref, query, answer))
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []


def test_run_leaves_chart_ids_to_a_stepwise_reader_server(http_stub, tmp_path, capsys):
    url, _ = http_stub
    assert main(["run", "--question", "How many legend labels are there?",
                 "--chart", "pupil-teacher", "--reader-url", f"{url}/read",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert "Final answer: 4" in capsys.readouterr().out


@pytest.mark.parametrize("flags, final, completions", [
    pytest.param(["--reasoner-url", "{url}/complete-openai"], "41", 1, id="reasoner-url"),
    pytest.param(["--script", "{script}"], "99", 0, id="script"),
    pytest.param([], "7.0", 0, id="symbolic"),
])
def test_reasoner_is_chosen_by_the_flags_that_configure_it(http_stub, small_corpus_path,
                                                           tmp_path, capsys, flags, final,
                                                           completions):
    """--reasoner-url asks the server, --script replays the file, and neither
    runs the symbolic reasoner; the table oracle reads in every case."""
    url, state = http_stub
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["So the answer is 99."]), encoding="utf-8")
    flags = [flag.format(url=url, script=script) for flag in flags]
    assert main(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                 "--corpus", str(small_corpus_path), *flags,
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert f"Final answer: {final}" in capsys.readouterr().out
    assert len(state["requests"]) == completions


def test_unreachable_backend_is_backend_error():
    client = HttpReasoner("http://127.0.0.1:9/complete", timeout=0.3, retries=0)
    with pytest.raises(BackendError):
        client.complete("x", ["\n"], 0.0, 16)


def test_full_episode_over_http(http_stub, costa_rica):
    url, state = http_stub
    reasoner = HttpReasoner(f"{url}/complete")
    reader = HttpReader(f"{url}/read")
    trace = run_episode(
        "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?",
        "pupil-teacher", reasoner, reader,
    )
    assert trace.terminated_by is Termination.CONCLUSION
    assert trace.final == Value.from_raw("14.92")
    completions = [payload for path, payload, _ in state["requests"] if path == "/complete"]
    assert completions and all(
        p["stop"] == ["\n"] and p["max_tokens"] == 256 for p in completions)


def test_episode_with_dead_backend_terminates(costa_rica):
    reasoner = HttpReasoner("http://127.0.0.1:9/complete", timeout=0.3, retries=0)
    trace = run_episode("q", "pupil-teacher", reasoner, TableOracle([costa_rica]))
    assert trace.terminated_by is Termination.BACKEND_ERROR


def test_scripted_reasoner_from_mapping(tmp_path):
    script = {"1": "second", "0": "first"}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    reasoner = ScriptedReasoner(json.loads(path.read_text(encoding="utf-8")))
    assert reasoner.complete("", ["\n"], 0.0, 8) == "first"
    assert reasoner.complete("", ["\n"], 0.0, 8) == "second"
    with pytest.raises(BackendError):
        reasoner.complete("", ["\n"], 0.0, 8)


MALFORMED_BODIES = ['[1]', '"abc"', '5', '{"choices": ["text"]}', '{"text": null}',
                    pytest.param("[" * 100_000, id="too-deeply-nested")]


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_malformed_response_is_backend_error(http_stub, costa_rica, body):
    url, state = http_stub
    state["malformed"] = body
    oracle = TableOracle([costa_rica])
    question = "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?"
    trace = run_episode(question, "pupil-teacher", HttpReasoner(f"{url}/malformed"), oracle)
    assert trace.terminated_by is Termination.BACKEND_ERROR
    trace = run_episode(question, "pupil-teacher", SymbolicReasoner(),
                        HttpReader(f"{url}/malformed"))
    assert trace.terminated_by is Termination.BACKEND_ERROR


@pytest.mark.parametrize("body", MALFORMED_BODIES)
def test_run_with_malformed_response_exits_3(http_stub, small_corpus_path, tmp_path, capsys,
                                             body):
    url, state = http_stub
    state["malformed"] = body
    code = main(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                 "--corpus", str(small_corpus_path), "--reasoner-url", f"{url}/malformed",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


_OK = b'HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\n{"text": "x"}'
_BODY_16 = b'{"text": "xxxx"}'


def test_each_request_leaves_in_one_sendall(keepalive_stub, monkeypatch):
    url, state = keepalive_stub
    sends = []

    class CountingSocket(socket.socket):
        def sendall(self, data, *args):
            sends.append(bytes(data))
            return super().sendall(data, *args)

    connect = socket.create_connection

    def counted(*args, **kwargs):
        sock = connect(*args, **kwargs)
        timeout = sock.gettimeout()
        counting = CountingSocket(fileno=sock.detach())
        counting.settimeout(timeout)
        return counting

    monkeypatch.setattr(socket, "create_connection", counted)
    reader = HttpReader(f"{url}/read")
    chart_refs = _chart_refs(3)
    for chart_ref in chart_refs:
        reader.read(chart_ref, "Let's describe the figure.")
    reader.close()
    bodies = [json.dumps({"chart_ref": chart_ref, "query": "Let's describe the figure."})
              for chart_ref in chart_refs]
    assert len(state["requests"]) == 3
    assert len(sends) == 3 and all(data.endswith(b"\r\n\r\n" + body.encode())
                                   for data, body in zip(sends, bodies))


def test_the_request_is_one_fixed_head_then_length_and_body(raw_stub):
    raw_stub["responses"].append((_OK, False))
    reader = HttpReader("http://h/read?v=1", api_key="k")
    assert reader.read("c", "q") == "x"
    reader.close()
    body = json.dumps({"chart_ref": "c", "query": "q"}).encode()
    assert raw_stub["requests"] == [
        b"POST /read?v=1 HTTP/1.1\r\nHost: h\r\nAccept-Encoding: identity\r\n"
        b"Content-Type: application/json\r\nAuthorization: Bearer k\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body]
    assert raw_stub["addresses"] == [("h", 80)]


@pytest.mark.parametrize("url, host, address", [
    ("http://h/x", "h", ("h", 80)),
    ("http://h:8080/x", "h:8080", ("h", 8080)),
    ("http://[::1]:8080/x", "[::1]:8080", ("::1", 8080)),
    ("https://h/x", "h", ("h", 443)),
    # http.client read the address's last group as a port: it dialled (":", 1).
    ("http://[::1]/x", "[::1]", ("::1", 80)),
])
def test_host_header_is_written_as_http_client_writes_it(raw_stub, tls_spy, url, host, address):
    raw_stub["responses"].append((_OK, False))
    reader = HttpReader(url, retries=0)
    assert reader.read("c", "q") == "x"
    reader.close()
    head = raw_stub["requests"][0].split(b"\r\n")
    assert head[1] == b"Host: " + host.encode() and b"Accept-Encoding: identity" in head
    assert raw_stub["addresses"] == [address]


def test_https_checks_the_certificate_and_the_host_name(raw_stub, tls_spy):
    raw_stub["responses"].append((_OK, False))
    reader = HttpReader("https://example.test:8443/read", retries=0)
    assert reader.read("c", "q") == "x"
    reader.close()
    [(context, server_hostname)] = tls_spy
    assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname
    assert server_hostname == "example.test"


@pytest.mark.parametrize("url", ["http://h/a b", "http://h/a?q=a b", "http://h/a\x00",
                                 "http://h/a\x7f", "http://h/café"])
def test_a_url_http_cannot_carry_is_refused_when_the_client_is_built(url):
    with pytest.raises(ValueError, match="holds a space, a control character or a non-ASCII"):
        HttpReader(url)


@pytest.mark.parametrize("api_key", ["a\nb", "a\rb", "a b", "café"])
def test_an_api_key_http_cannot_carry_is_refused_when_the_client_is_built(api_key):
    with pytest.raises(ValueError, match="API key"):
        HttpReasoner("http://h/complete", api_key=api_key)


@pytest.mark.parametrize("response, kept", [
    pytest.param(b'HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n'
                 b'5\r\n{"tex\r\n8; name=value\r\nt": "x"}\r\n0\r\nX-Trailer: 1\r\n\r\n', True,
                 id="chunked"),
    pytest.param(b'HTTP/1.1 200 OK\r\n\r\n{"text": "x"}', False, id="until-close"),
    pytest.param(b'HTTP/1.0 200 OK\r\nContent-Length: 13\r\n\r\n{"text": "x"}', False,
                 id="http-1.0"),
    pytest.param(b'HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 13\r\n\r\n'
                 b'{"text": "x"}', True, id="http-1.0-keep-alive"),
    pytest.param(b'HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 13\r\n\r\n'
                 b'{"text": "x"}', False, id="connection-close"),
    pytest.param(b"HTTP/1.1 100 Continue\r\n\r\n" + _OK, True, id="100-continue"),
    pytest.param(b"HTTP/1.1 102 Processing\r\n\r\n" * 100 + _OK, True, id="100-interim"),
    pytest.param(b"HTTP/1.1 200 OK\r\n" + b"X-N: 1\r\n" * 99 + _OK[17:], True, id="100-headers"),
    pytest.param(b"HTTP/1.1 200 OK\r\nX: " + b"a" * 65531 + b"\r\n" + _OK[17:], True,
                 id="64KiB-header-line"),
])
def test_response_framings(raw_stub, response, kept):
    raw_stub["responses"] += [(response, kept), (_OK, True)]
    reader = HttpReader("http://h/read", retries=0)
    assert [reader.read("c", f"q{i}") for i in range(2)] == ["x", "x"]
    assert len(raw_stub["addresses"]) == (1 if kept else 2)
    reader.close()


@pytest.mark.parametrize("response, keep_open, reason", [
    pytest.param(b"HTTP/1.1 2x0 OK\r\n\r\n", True, "malformed status line", id="bad-status-line"),
    pytest.param(b"HTTP/1.1 200 OK\r\nX: " + b"a" * 65532 + b"\r\n" + _OK[17:], True,
                 "header line longer than 65536 bytes", id="header-line-over-64KiB"),
    pytest.param(b"HTTP/1.1 200 OK\r\n" + b"X-N: 1\r\n" * 100 + _OK[17:], True,
                 "more than 100 header lines", id="101-headers"),
    pytest.param(b"HTTP/1.1 102 Processing\r\n\r\n" * 101 + _OK, True,
                 "more than 100 interim responses", id="101-interim"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: -13\r\n\r\n", True,
                 "malformed Content-Length '-13'", id="negative-length"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n", True,
                 "malformed Content-Length '1e3'", id="non-numeric-length"),
    pytest.param(b'HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n{"text": "x"}', False,
                 "the body ended after 13 of 14 bytes", id="short-body"),
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", True,
                 "malformed chunk size line", id="bad-chunk-size"),
    pytest.param(b'HTTP/1.1 200 OK\r\nContent-Length: 13\r\n\r\n{"te', True, "timed out",
                 id="timeout"),
])
def test_a_bad_response_drops_the_connection_and_is_retried(raw_stub, fake_clock, response,
                                                            keep_open, reason):
    sleeps, _ = fake_clock
    raw_stub["responses"] += [(response, keep_open)] * 2
    reader = HttpReader("http://h/read", timeout=0.2, retries=1)
    with pytest.raises(BackendError, match=f"^request to http://h/read failed: {reason}"):
        reader.read("c", "q")
    assert len(raw_stub["requests"]) == 2 and len(sleeps) == 1
    # Each attempt had a connection of its own, and the next call opens a third.
    raw_stub["responses"].append((_OK, True))
    assert reader.read("c", "q") == "x"
    assert len(raw_stub["addresses"]) == 3
    reader.close()


@pytest.mark.parametrize("framing, at_limit, over_limit", [
    # The body is never sent: a client that read it would time out instead.
    pytest.param("length", b"Content-Length: 16\r\n\r\n" + _BODY_16,
                 b"Content-Length: 17\r\n\r\n", id="content-length"),
    # The second chunk would pass the limit; its bytes are never sent.
    pytest.param("chunked", b"Transfer-Encoding: chunked\r\n\r\n8\r\n" + _BODY_16[:8]
                 + b"\r\n8\r\n" + _BODY_16[8:] + b"\r\n0\r\n\r\n",
                 b"Transfer-Encoding: chunked\r\n\r\n8\r\n" + _BODY_16[:8] + b"\r\n9\r\n",
                 id="chunked"),
    pytest.param("close", b"\r\n" + _BODY_16, b"\r\n" + _BODY_16 + b" ", id="until-close"),
])
def test_a_body_over_the_limit_fails_naming_it(raw_stub, monkeypatch, framing, at_limit,
                                               over_limit):
    monkeypatch.setattr(backends, "_MAX_BODY", 16)
    keep_open = framing != "close"
    raw_stub["responses"] += [(b"HTTP/1.1 200 OK\r\n" + at_limit, keep_open),
                              (b"HTTP/1.1 200 OK\r\n" + over_limit, keep_open)]
    reader = HttpReader("http://h/read", timeout=2.0, retries=0)
    assert reader.read("c", "q1") == "xxxx"
    with pytest.raises(BackendError, match="^request to http://h/read failed: the response body "
                                           "is over the limit of 16 bytes$"):
        reader.read("c", "q2")
    # The failed call dropped its connection: the next one opens another.
    raw_stub["responses"].append((_OK, True))
    assert reader.read("c", "q3") == "x"
    assert len(raw_stub["addresses"]) == (2 if keep_open else 3)
    reader.close()


@pytest.mark.parametrize("parts", [
    pytest.param([b"HTTP/1.1 100 Continue\r\n\r\n"] * 20 + [_OK], id="interim-responses"),
    pytest.param([b"HTTP/1.1 200 OK\r\nX: "] + [b"a"] * 20 + [b"\r\n" + _OK[17:]],
                 id="one-header-line"),
])
def test_a_call_ends_within_its_timeout_however_the_server_spaces_its_bytes(raw_stub, parts):
    """The server sends a part every 0.1 s for 2 s, each read well within the
    timeout: the 0.5 s timeout still bounds the call."""
    raw_stub["responses"].append((parts, True))
    reader = HttpReader("http://h/read", timeout=0.5, retries=0)
    start = time.monotonic()
    try:
        with pytest.raises(BackendError, match="^request to http://h/read failed: timed out$"):
            reader.read("c", "q")
    finally:
        reader.close()
    assert time.monotonic() - start < 1.0


def test_eval_workers_keep_a_bounded_window(keepalive_stub, tmp_path, monkeypatch):
    """At most two questions per thread are in flight; the rest wait to be submitted."""
    url, _ = keepalive_stub
    submitted, pending = [], []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            future = super().submit(fn, *args, **kwargs)
            submitted.append(future)
            pending.append(sum(not f.done() for f in submitted))
            return future

    monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
    out = tmp_path / "workers2"
    assert main(["eval", "--synthetic", "20", "--seed", "0", "--reader-url", f"{url}/read",
                 "--workers", "2", "--out-dir", str(out)]) == 0
    assert len(submitted) == len((out / "records.jsonl").read_text().splitlines()) > 20
    assert max(pending) <= 4
