"""Shared chart fixtures, and an HTTP reasoner and reader server over tables.

Most tables mirror the worked examples shipped with the few-shot prompts and
annotated traces, so tests can assert exact answer strings; cells not pinned
by those strings are filled in with plausible values.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from chartloop.oracle import TableOracle
from chartloop.symbolic import _TEMPLATES, SymbolicReasoner
from chartloop.synth import random_tables
from chartloop.tables import ChartTable


@pytest.fixture
def oman_samoa() -> ChartTable:
    return ChartTable.build(
        "health-expenditure",
        [("Oman", "brown"), ("Samoa", "dark blue")],
        ["2008", "2009", "2010", "2011", "2012", "2013", "2014"],
        [
            ["183.88", "233.80", "210.69", "195.26", "196.32", "154.21", "153.22"],
            ["40.72", "40.04", "39.21", "40.63", "41.47", "41.76", "42.77"],
        ],
    )


@pytest.fixture
def net_ratings() -> ChartTable:
    return ChartTable.build(
        "net-ratings",
        [("NET Excellent/ good", "blue"), ("NET Only fair/ poor", "orange")],
        ["Brazil", "German", "Russia", "U.S.", "Japan"],
        [
            ["61.00", "54.00", "48.00", "51.00", "42.00"],
            ["33.00", "39.00", "44.00", "43.00", "50.00"],
        ],
    )


@pytest.fixture
def respondents() -> ChartTable:
    return ChartTable.build(
        "perceptions",
        [("Share of respondents", "blue")],
        ["Very positive", "Fairly positive", "Fairly negative", "Very negative"],
        [["4.00", "41.00", "50.00", "11.00"]],
    )


@pytest.fixture
def activision() -> ChartTable:
    return ChartTable.build(
        "game-revenue",
        [
            ("Consoles", "blue"),
            ("PC*", "dark blue"),
            ("Mobile and ancillary**", "grey"),
            ("Other", "dard red"),
        ],
        ["2019", "2020", "2021", "2022"],
        [
            ["1920.00", "2784.00", "2639.00", "2403.00"],
            ["1718.00", "2056.00", "2190.00", "1998.00"],
            ["2203.00", "2559.00", "2901.00", "3214.00"],
            ["648.00", "687.00", "702.00", "664.00"],
        ],
    )


@pytest.fixture
def segments() -> ChartTable:
    return ChartTable.build(
        "impact-survey",
        [("Value", None)],
        ["Decreased", "No impact", "Increased"],
        [["81.00", "16.00", "3.00"]],
    )


@pytest.fixture
def neonatal() -> ChartTable:
    return ChartTable.build(
        "neonatal-deaths",
        [("Neonatal deaths", "green")],
        ["2000", "2001", "2002", "2003", "2004", "2005"],
        [["853", "847", "822", "828", "818", "843"]],
    )


@pytest.fixture
def costa_rica() -> ChartTable:
    return ChartTable.build(
        "pupil-teacher",
        [
            ("Least developed countries", "blue"),
            ("Cameroon", "purple"),
            ("Costa Rica", "yellow"),
            ("Tajikistan", "brown"),
        ],
        ["2000", "2001", "2006", "2007", "2008", "2011"],
        [
            ["41.12", "40.85", "38.20", "37.64", "36.91", "35.02"],
            ["52.30", "53.11", "49.87", "48.02", "46.77", "45.90"],
            ["18.84", "19.57", "17.79", "17.91", "15.64", "14.92"],
            ["21.55", "21.93", "22.40", "22.18", "22.67", "21.86"],
        ],
    )


@pytest.fixture
def total_market() -> ChartTable:
    return ChartTable.build(
        "market-share",
        [("Total market", "blue"), ("Online", "orange")],
        ["2019", "2018", "2017", "2016", "2015", "2014", "2013", "2012", "2011"],
        [
            ["18", "20.0", "22.0", "23.0", "24.0", "25.0", "26.0", "27.0", "26.0"],
            ["9.0", "8.5", "8.0", "7.2", "6.9", "6.1", "5.8", "5.2", "4.9"],
        ],
    )


@pytest.fixture
def merchandise() -> ChartTable:
    return ChartTable.build(
        "trade-shares",
        [("Merchandise exports", "green"), ("Merchandise imports", "red")],
        ["1993", "1994", "1995"],
        [["0.14", "0.16", "0.18"], ["0.31", "0.36", "0.39"]],
    )


@pytest.fixture
def income() -> ChartTable:
    return ChartTable.build(
        "celebrity-income",
        [("Income in million U.S. dollars", "blue")],
        [
            "Taylor Swift", "Kylie Jenner", "Kanye West", "Lionel Messi",
            "Ed Sheeran", "Cristiano Ronaldo", "Neymar", "The Eagles",
            "Dr. Phil McGraw", "Canelo Alvarez",
        ],
        [["185", "166.5", "150", "127", "110", "108", "105", "100", "95.5", "94"]],
    )


@pytest.fixture
def plotqa_duplicated_axis() -> ChartTable:
    # Grouped bars repeat the year axis; a degenerate but real layout.
    return ChartTable.build(
        "grouped-bars",
        [
            ("Fragile and conflict affected situations", "grey"),
            ("Iraq", "brown"),
            ("Moldova", "orange"),
        ],
        ["2004", "2005", "2006", "2007", "2004", "2005", "2006", "2007"],
        [
            ["1.2", "1.4", "1.3", "1.5", "2.2", "2.4", "2.3", "2.5"],
            ["0.8", "0.9", "1.1", "1.0", "1.8", "1.9", "2.1", "2.0"],
            ["0.5", "0.6", "0.7", "0.8", "1.5", "1.6", "1.7", "1.8"],
        ],
    )


@pytest.fixture
def canada() -> ChartTable:
    return ChartTable.build(
        "emissions",
        [("Canada", "red"), ("Australia", "gold")],
        ["1964", "1965", "1966"],
        [["19.75", "20.82", "21.40"], ["11.32", "11.80", "12.05"]],
    )


@pytest.fixture
def export_2015() -> ChartTable:
    return ChartTable.build(
        "export-value",
        [("Export value", None)],
        ["2014", "2015", "2016", "2017"],
        [["281.3", "296.0", "305.1", "312.4"]],
    )


@pytest.fixture
def turkey() -> ChartTable:
    return ChartTable.build(
        "outsourcing",
        [("Expenditures on general government outsourcing", "dark blue")],
        ["Germany", "Norway", "Turkey", "Greece"],
        [["13.4", "9.41", "7.54", "7.11"]],
    )


@pytest.fixture
def retail() -> ChartTable:
    return ChartTable.build(
        "store-revenue",
        [("Macy's", "blue"), ("Bloomingdale's", "orange")],
        ["2018", "2019"],
        [["598", "613"], ["52", "55"]],
    )


@pytest.fixture
def university_shares() -> ChartTable:
    return ChartTable.build(
        "university-shares",
        [("Share of people who think university is overrated", "teal")],
        ["Malaysia", "Philippines", "Ghana", "Switzerland"],
        [["45.01", "38.92", "27.58", "52.33"]],
    )


@pytest.fixture
def norway_chile() -> ChartTable:
    """Two series over a single x-label."""
    return ChartTable.build("norway-chile", [("Norway", "blue"), ("Chile", "red")], ["2019"],
                            [["3.5"], ["7.25"]])


@pytest.fixture
def line_charts(norway_chile) -> list[ChartTable]:
    """Random charts plus two shapes where a query line can read two ways: a
    single series named like one of its x-labels, and a single x-label."""
    total = ChartTable.build("total-collision", [("Total", None)], ["Total", "Other"], [["5", "7"]])
    return [*random_tables(17, 25), total, norway_chile]


@pytest.fixture(scope="session")
def human_only_questions() -> tuple[tuple[ChartTable, str], ...]:
    """One question, with a small chart that hosts it, for each phrasing that
    only human-authored questions use; the decompose tests pin their plans."""
    net = ChartTable.build("net", [("NET Excellent/good", "blue"), ("NET Only fair/poor", "red")],
                           ["German", "Japan"], [["54", "42"], ["39", "50"]])
    oman = ChartTable.build("oman", [("Oman", None)], ["2009", "2010"], [["233.80", "210.69"]])
    costa = ChartTable.build("costa", [("Costa Rica", None)], ["2000", "2010"],
                             [["18.84", "14.92"]])
    return (
        (net, "By how many points does NET Excellent/good surpass NET Only fair/poor "
              "in German in the year of 2018?"),
        (oman, "In which year the private health expenditure per person in Oman is 210.69?"),
        (costa, "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?"),
    )


@pytest.fixture(scope="session")
def first_phrasing():
    """A function from a question to the (row key, phrasing index) of the
    ``_TEMPLATES`` phrasing that ``decompose`` matches first."""
    return lambda question: next(
        (key, index) for key, row in _TEMPLATES.items()
        for index, phrasing in enumerate(row.phrasings) if phrasing.match(question))


@pytest.fixture(scope="session")
def all_phrasings() -> set[tuple[str, int]]:
    """The (row key, phrasing index) of every ``_TEMPLATES`` phrasing."""
    return {(key, index) for key, row in _TEMPLATES.items() for index in range(len(row.phrasings))}


@pytest.fixture
def small_corpus_path(tmp_path):
    """Two charts (2x3 and 1x4) in the internal JSONL layout, plus QA."""
    charts = [
        ChartTable.build(
            "pair-chart",
            [("Alpha", "blue"), ("Beta", "red")],
            ["2001", "2002", "2003"],
            [["10.5", "11.0", "12.25"], ["7.0", "8.5", "9.75"]],
        ),
        ChartTable.build(
            "solo-chart",
            [("Output", None)],
            ["Q1", "Q2", "Q3", "Q4"],
            [["5.5", "6.25", "7.0", "8.5"]],
        ),
    ]
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    with open(corpus_dir / "charts.jsonl", "w", encoding="utf-8") as handle:
        for table in charts:
            handle.write(table.to_json() + "\n")
    qa = [
        {"chart_id": "pair-chart", "question": "What is the value of Alpha in 2002?",
         "answer": "11.0", "template_type": "data_retrieval"},
        {"chart_id": "solo-chart", "question": "What is the value of Q3?",
         "answer": "7.0", "template_type": "data_retrieval"},
    ]
    with open(corpus_dir / "qa.jsonl", "w", encoding="utf-8") as handle:
        for obj in qa:
            handle.write(json.dumps(obj) + "\n")
    return corpus_dir


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
def http_stub(costa_rica):
    """HTTP/1.0 server: the connection closes after every response."""
    yield from _serve([costa_rica], "HTTP/1.0")
