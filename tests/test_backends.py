import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chartloop.backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from chartloop.cli import main
from chartloop.controller import run_episode
from chartloop.oracle import TableOracle
from chartloop.symbolic import SymbolicReasoner
from chartloop.tables import Termination, Value


@pytest.fixture
def http_stub(costa_rica):
    """Tiny completion+reader server backed by the table oracle."""
    oracle = TableOracle([costa_rica])
    reasoner = SymbolicReasoner()
    state = {"requests": [], "fail_next": 0, "malformed": ""}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            state["requests"].append((self.path, payload, dict(self.headers)))
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(500)
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
                self.send_response(200)
                self.end_headers()
                self.wfile.write(state["malformed"].encode("utf-8"))
                return
            elif self.path == "/read":
                body = {"text": oracle.read(payload["chart_ref"], payload["query"])}
            else:
                self.send_response(404)
                self.end_headers()
                return
            data = json.dumps(body).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        thread.join()


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
