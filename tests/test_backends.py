import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chartloop.backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from chartloop.cli import main
from chartloop.controller import run_episode
from chartloop.oracle import TableOracle
from chartloop.symbolic import SymbolicReasoner
from chartloop.synth import random_tables
from chartloop.tables import Termination, Value


def _serve(tables, protocol_version):
    """Start a completion+reader server backed by the table oracle over
    ``tables``; yields its base URL and a state dict the tests read and set."""
    oracle = TableOracle(tables)
    reasoner = SymbolicReasoner()
    lock = threading.Lock()
    state = {"requests": [], "fail_next": 0, "fail_status": 500, "malformed": "",
             "connections": 0, "drop_after_response": False}

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
                self.send_error(state["fail_status"])
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
def http_stub(costa_rica):
    """HTTP/1.0 server: the connection closes after every response."""
    yield from _serve([costa_rica], "HTTP/1.0")


@pytest.fixture
def keepalive_stub(costa_rica):
    """HTTP/1.1 server that keeps connections open and counts them; it also
    knows the charts of ``eval --synthetic 20 --seed 0``."""
    yield from _serve([costa_rica, *random_tables(0, 20)], "HTTP/1.1")


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
    reader.read("pupil-teacher", "Let's describe the figure.")
    assert state["connections"] == 3
    reader.close()


def test_connection_closed_by_the_server_is_reopened(keepalive_stub):
    url, state = keepalive_stub
    state["drop_after_response"] = True
    reader = HttpReader(f"{url}/read", retries=0)
    for _ in range(5):
        assert reader.read("pupil-teacher", "Let's describe the figure.").startswith(
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
        assert main([*common, "--backend", "http", "--reasoner-url", f"{url}/complete",
                     "--reader-url", f"{url}/read", "--workers", workers,
                     "--out-dir", str(out)]) == 0
        assert (out / "records.jsonl").read_bytes() == expected


def test_run_leaves_chart_ids_to_a_stepwise_reader_server(http_stub, tmp_path, capsys):
    url, _ = http_stub
    assert main(["run", "--question", "How many legend labels are there?",
                 "--chart", "pupil-teacher", "--reader-url", f"{url}/read",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert "Final answer: 4" in capsys.readouterr().out


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
                 "--corpus", str(small_corpus_path), "--backend", "http",
                 "--reasoner-url", f"{url}/malformed", "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
