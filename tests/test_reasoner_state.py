"""The symbolic reasoner's memo: two bounded LRU caches keyed by text.

A warm reasoner must answer every prompt exactly as a fresh one does, in
whatever order prompts and charts arrive (a chart asked again after
another, charts that share a description) and from however many threads.
The recorded episodes take the three prompt styles in turn.  One cache
maps a question to its plan, so a question is decomposed once across an
episode's steps and its self-consistency samples.  The other maps a reader
line to its parse, which depends only on the line's text, so a line is
parsed at most once per chart and lines that charts share may be parsed
once between them.  Neither cache grows past its bound; and
self-consistency asks the reader each distinct line once.
"""

import json
import random
import re
import sys
import threading

import pytest

from chartloop import protocol, symbolic
from chartloop.backends import BackendError
from chartloop.cli import main
from chartloop.controller import (
    EpisodeConfig,
    SelfConsistencyConfig,
    run_episode,
    run_self_consistency,
)
from chartloop.oracle import TableOracle, execute_query
from chartloop.prompts import PromptStyle
from chartloop.protocol import (
    UNAVAILABLE_ANSWER,
    AnswerKind,
    describe_query,
    format_query,
    parse_step,
)
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_table, random_tables
from chartloop.tables import ChartTable, StepRole, TemplateType, Termination

# Every prompt style; episode i takes style i mod 3.
_STYLES = list(PromptStyle)
# Reader lines that begin like a stub line, so that a reasoner which found
# the stub anywhere but in the last "Q: " line directly followed by an "A: "
# line would go wrong; episode i takes prefix (i // 3) mod 3.
_READER_PREFIXES = ("", "A: ", "Q: ")


class _Recorder(SymbolicReasoner):
    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        self.prompts.append(prompt)
        return super().complete(prompt, stop_markers, temperature, max_tokens)


class _PrefixingReader:
    def __init__(self, oracle, prefix):
        self.oracle, self.prefix = oracle, prefix

    def read(self, chart_ref, query):
        return self.prefix + self.oracle.read(chart_ref, query)


def _same_description(table, index):
    """A chart with ``table``'s series and x-labels, so its description line,
    but seeded other cells."""
    rng = random.Random(index)
    cells = [[str(rng.randrange(1, 1000)) for _ in table.x_labels] for _ in table.series]
    return ChartTable.build(f"{table.source_id}-{index}", [(s.name, s.color) for s in table.series],
                            table.x_labels, cells)


def _chart_questions(table):
    for template in TemplateType:
        try:
            for qa, _ in gen_questions(table, template, seed=5, n=1):
                yield table, qa.question
        except SkippedTemplate:
            pass


def _questions(human_only_questions):
    """(table, question) pairs, mostly chart by chart: 30 seeded tables host
    every phrasing gen_questions renders; two charts that share a description
    take turns, two questions each; the human-only phrasings come last, each
    on its small table."""
    for index in range(30):
        yield from _chart_questions(random_table(5, index))
    shared = random_table(5, 30, n_series=2, n_x=4)
    twins = [list(_chart_questions(_same_description(shared, index))) for index in range(2)]
    for k in range(0, len(twins[0]), 2):
        yield from twins[0][k:k + 2] + twins[1][k:k + 2]
    yield from human_only_questions


@pytest.fixture(scope="module")
def episodes(human_only_questions, first_phrasing, all_phrasings):
    """Per closed-loop episode: every prompt its reasoner saw, what a fresh
    reasoner answers to each, and its chart."""
    recorded, phrasings = [], set()
    for number, (table, question) in enumerate(_questions(human_only_questions)):
        style = _STYLES[number % len(_STYLES)]
        prefix = _READER_PREFIXES[number // len(_STYLES) % len(_READER_PREFIXES)]
        context = None if style is PromptStyle.STEPWISE_5SHOT else table
        recorder = _Recorder()
        run_episode(question, table.source_id, recorder,
                    _PrefixingReader(TableOracle([table]), prefix),
                    EpisodeConfig(prompt_style=style), context_table=context)
        fresh = [SymbolicReasoner().complete(p, ["\n"], 0.0, 256) for p in recorder.prompts]
        recorded.append((recorder.prompts, fresh, table.source_id))
        phrasings.add(first_phrasing(question))
    assert phrasings == all_phrasings
    # Somewhere an episode reads the description line the one before it
    # read, of another chart.
    described = [(chart, _reader_lines(prompts[-1])[0]) for prompts, _, chart in recorded]
    assert any(a != b and line == after and protocol.parse_reader_answer(line).kind
               is AnswerKind.DESCRIPTION for (a, line), (b, after) in zip(described, described[1:]))
    return recorded


def _reader_lines(prompt):
    _, begin = symbolic._find_stub(prompt)
    return prompt[begin:].split("\n")[1:-1:2]


def _episode_order(episodes):
    return [(e, i) for e, (prompts, _, _) in enumerate(episodes) for i in range(len(prompts))]


def _revisit_order(episodes):
    """The charts' episodes, each chart's asked again after the next: A B A C B D C ..."""
    charts = []
    for e, (prompts, _, chart) in enumerate(episodes):
        if not charts or charts[-1][0] != chart:
            charts.append((chart, []))
        charts[-1][1].extend((e, i) for i in range(len(prompts)))
    order = []
    for k, (_, block) in enumerate(charts):
        order += block + (charts[k - 1][1] if k else [])
    return order


def _interleaved_order(episodes):
    """Episodes in pairs, their prompts alternating: a0 b0 a1 b1 ..."""
    order = []
    for first in range(0, len(episodes), 2):
        pair = [e for e in (first, first + 1) if e < len(episodes)]
        longest = max(len(episodes[e][0]) for e in pair)
        order += [(e, i) for i in range(longest) for e in pair if i < len(episodes[e][0])]
    return order


def _sc_order(episodes):
    """Each episode three times over, as self-consistency samples arrive."""
    return [(e, i) for e, (prompts, _, _) in enumerate(episodes)
            for _ in range(3) for i in range(len(prompts))]


def _replay(episodes, order, reasoner, cut=None):
    """Send the prompts in ``order`` to ``reasoner``; return the (expected,
    actual) pairs.  With ``cut``, each prompt is first sent cut at a seeded
    point of its last 300 characters."""
    results = []
    for e, i in order:
        prompts, fresh, _ = episodes[e]
        prompt = prompts[i]
        if cut is not None:
            short = prompt[:cut.randrange(max(0, len(prompt) - 300), len(prompt) + 1)]
            results.append((SymbolicReasoner().complete(short, ["\n"], 0.0, 256),
                            reasoner.complete(short, ["\n"], 0.0, 256)))
        results.append((fresh[i], reasoner.complete(prompt, ["\n"], 0.0, 256)))
    return results


@pytest.mark.parametrize("order", [_episode_order, _interleaved_order, _sc_order, _revisit_order],
                         ids=["episode", "interleaved", "sc", "revisit"])
def test_warm_reasoner_answers_like_a_fresh_one(episodes, order):
    results = _replay(episodes, order(episodes), SymbolicReasoner())
    assert [actual for _, actual in results] == [expected for expected, _ in results]


def test_warm_reasoner_answers_cut_prompts_like_a_fresh_one(episodes):
    """A prompt that ends mid-line, then the prompt that completes it."""
    results = _replay(episodes, _episode_order(episodes), SymbolicReasoner(), random.Random(7))
    assert [actual for _, actual in results] == [expected for expected, _ in results]


def test_reasoner_shared_by_threads_answers_like_a_fresh_one(episodes):
    """Four threads, more than the cores of a small machine, share one
    reasoner, each thread sending every fourth prompt."""
    order = _episode_order(episodes)
    reasoner = SymbolicReasoner()
    shares, results, errors = [order[k::4] for k in range(4)], [], []
    barrier = threading.Barrier(len(shares))

    def work(share):
        try:
            barrier.wait(timeout=10)
            results.extend(_replay(episodes, share, reasoner))
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(share,)) for share in shares]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == len(order)
    assert [actual for _, actual in results] == [expected for expected, _ in results]


@pytest.fixture
def counted(monkeypatch):
    """Count calls of ``decompose`` and ``parse_reader_answer`` where the
    reasoner looks them up at call time."""
    counts = {"decompose": 0, "parse_reader_answer": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(symbolic, "decompose")
    counting(protocol, "parse_reader_answer")
    return counts


class _CountingReader:
    def __init__(self, table):
        self.oracle, self.reads = TableOracle([table]), 0

    def read(self, chart_ref, query):
        self.reads += 1
        return self.oracle.read(chart_ref, query)


_TABLE = ChartTable.build("sum", [("Fiji", "blue"), ("Senegal", "red")], ["2001", "2002"],
                          [["1", "5"], ["3", "2"]])
_QUESTION = "What is the sum of the values of Fiji and Senegal in 2002?"


def test_an_episode_decomposes_once_and_parses_each_answer_once(counted):
    reader = _CountingReader(_TABLE)
    trace = run_episode(_QUESTION, "sum", SymbolicReasoner(), reader)
    assert trace.final.raw == "7"
    assert reader.reads == 3
    assert counted == {"decompose": 1, "parse_reader_answer": 3}


def test_self_consistency_samples_share_one_decompose(counted):
    reader = _CountingReader(_TABLE)
    final, traces = run_self_consistency(_QUESTION, "sum", SymbolicReasoner(), reader,
                                         EpisodeConfig(), SelfConsistencyConfig(n_samples=3))
    # Two agreeing samples decide a vote of at most three.
    assert final.raw == "7" and len(traces) == 2
    # The samples ask the same three lines, read and parsed once between them.
    assert reader.reads == 3
    assert counted == {"decompose": 1, "parse_reader_answer": 3}


def test_self_consistency_asks_the_reader_each_line_once():
    reader = _CountingReader(_TABLE)
    final, traces = run_self_consistency(_QUESTION, "sum", SymbolicReasoner(), reader,
                                         EpisodeConfig(), SelfConsistencyConfig(n_samples=5))
    assert final.raw == "7" and len(traces) == 3
    assert reader.reads == 3


class _FailingOnceReader(_CountingReader):
    """Raises ``BackendError`` on its first call and answers every later one."""

    def __init__(self, table):
        super().__init__(table)
        self.queries = []

    def read(self, chart_ref, query):
        self.queries.append(query)
        if len(self.queries) == 1:
            raise BackendError("reader down")
        return super().read(chart_ref, query)


def test_a_failed_read_is_asked_again_by_a_later_sample():
    reader = _FailingOnceReader(_TABLE)
    final, traces = run_self_consistency(_QUESTION, "sum", SymbolicReasoner(), reader,
                                         EpisodeConfig(), SelfConsistencyConfig(n_samples=5))
    assert traces[0].terminated_by is Termination.BACKEND_ERROR
    assert [t.terminated_by for t in traces[1:]] == [Termination.CONCLUSION] * 3
    assert final.raw == "7"
    # The failed line is asked once more, then each of the three lines once.
    first, *rest = reader.queries
    assert rest[0] == first and len(rest) == len(set(rest)) == 3


class _StubReader:
    """Answers every line as the oracle executes it and keeps no memo of its
    own, recording each (chart, line) it is asked."""

    def __init__(self, tables):
        self.tables = {table.source_id: table for table in tables}
        self.asked = []

    def read(self, chart_ref, query):
        self.asked.append((chart_ref, query))
        return execute_query(self.tables[chart_ref], parse_step(query))


def test_self_consistency_asks_any_reader_each_line_once_per_question():
    """Self-consistency keeps its guarantee over a reader without a memo:
    each question asks each of its distinct lines once, even when the
    question before it, on the same chart, asked the same lines."""
    tables = [random_table(3, index) for index in range(4)]
    reader = _StubReader(tables)
    for table in tables:
        for template in (TemplateType.DATA_RETRIEVAL, TemplateType.DATA_RETRIEVAL,
                         TemplateType.MIN_MAX):
            qa, _ = gen_questions(table, template, 0)[0]
            before = len(reader.asked)
            _, traces = run_self_consistency(qa.question, qa.chart_id, SymbolicReasoner(),
                                             reader, EpisodeConfig(),
                                             SelfConsistencyConfig(n_samples=5))
            asked = reader.asked[before:]
            lines = {step.text for trace in traces for step in trace.steps
                     if step.role is StepRole.REASONER_QUERY}
            assert len(traces) == 3
            assert len(asked) == len(set(asked)) and set(asked) == {
                (qa.chart_id, line) for line in lines}


class _RespellingReader(_CountingReader):
    """Writes every other episode's numbers as ``N.0``: each of the question's
    three reads per episode then has two spellings across episodes."""

    def __init__(self, table):
        super().__init__(table)
        self.lines = []

    def read(self, chart_ref, query):
        line = super().read(chart_ref, query)
        if (self.reads - 1) // 3 % 2:
            line = re.sub(r"^(The data is \d+)\.$", r"\1.0.", line)
        self.lines.append(line)
        return line


def test_self_consistency_samples_parse_each_distinct_line_once(counted):
    """Episodes of one question on one reasoner, as samples arrive; the
    episodes are driven one by one because self-consistency would ask the
    respelling reader each line only once."""
    reader, reasoner = _RespellingReader(_TABLE), SymbolicReasoner()
    traces = [run_episode(_QUESTION, "sum", reasoner, reader) for _ in range(3)]
    assert [trace.final.raw for trace in traces] == ["7", "7.0", "7"]
    assert reader.reads == 9
    assert len(set(reader.lines)) == 5
    assert counted == {"decompose": 1, "parse_reader_answer": 5}


def test_memo_holds_the_last_questions_plan_and_the_last_charts_lines():
    """After every question of two charts, asking the second chart's
    questions again decomposes nothing and parses no line."""
    reasoner = SymbolicReasoner()
    tables = random_tables(0, 2)
    for table in tables:
        traces = [run_episode(question, table.source_id, reasoner, TableOracle(tables))
                  for _, question in _chart_questions(table)]
    plans, parses = reasoner._plan.cache_info(), reasoner._parse.cache_info()
    again = [run_episode(question, tables[1].source_id, reasoner, TableOracle(tables))
             for _, question in _chart_questions(tables[1])]
    assert again == traces
    assert reasoner._plan.cache_info().misses == plans.misses
    assert reasoner._parse.cache_info().misses == parses.misses
    assert reasoner._plan.cache_info().hits > plans.hits
    assert reasoner._parse.cache_info().hits > parses.hits


def _ask_chart_by_chart(tables, reasoner, reader):
    """Every template question of each table in turn, one episode each,
    through one reasoner and one reader; returns the traces by chart."""
    return [(table.source_id, run_episode(question, table.source_id, reasoner, reader))
            for chart in tables for table, question in _chart_questions(chart)]


def _distinct_reader_lines(traces):
    return {(chart, step.text) for chart, trace in traces for step in trace.steps
            if step.role is StepRole.READER_ANSWER}


def test_a_run_parses_each_reader_line_once_per_chart(counted):
    tables = random_tables(0, 30)
    traces = _ask_chart_by_chart(tables, SymbolicReasoner(), TableOracle(tables))
    assert all(trace.terminated_by is Termination.CONCLUSION for _, trace in traces)
    distinct = _distinct_reader_lines(traces)
    assert len({line for _, line in distinct}) <= counted["parse_reader_answer"] <= len(distinct)


def test_eval_parses_each_reader_line_once_per_chart(counted, tmp_path):
    assert main(["eval", "--synthetic", "20", "--seed", "0", "--out-dir", str(tmp_path)]) == 0
    distinct = set()
    for line in (tmp_path / "traces.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        distinct |= {(record["chart_id"], step["text"]) for episode in record["episodes"]
                     for step in episode["steps"] if step["role"] == "reader_answer"}
    assert len({line for _, line in distinct}) <= counted["parse_reader_answer"] <= len(distinct)


class _NoDescriptionReader:
    """The oracle, except that it answers DESCRIBE as not available."""

    def __init__(self, tables):
        self.oracle = TableOracle(tables)

    def read(self, chart_ref, query):
        if query == format_query(describe_query()):
            return UNAVAILABLE_ANSWER
        return self.oracle.read(chart_ref, query)


class _BoundChecked(SymbolicReasoner):
    """Checks each completion against a fresh reasoner's and both caches
    against their bound."""

    def __init__(self):
        super().__init__()
        self.completions = 0

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        text = super().complete(prompt, stop_markers, temperature, max_tokens)
        assert text == SymbolicReasoner().complete(prompt, stop_markers, temperature, max_tokens)
        for cache in (self._plan, self._parse):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
        self.completions += 1
        return text


@pytest.mark.parametrize("reader", [TableOracle, _NoDescriptionReader],
                         ids=["described", "not-described"])
def test_charts_sharing_a_description_keep_the_line_store_bounded(reader):
    """A thousand charts with one description and other cells, asked one
    after another: neither cache ever holds more than its bound, and every
    completion is a fresh reasoner's."""
    shared = random_table(0, 0, n_series=2, n_x=4)
    tables = [_same_description(shared, index) for index in range(1000)]
    reasoner = _BoundChecked()
    traces = _ask_chart_by_chart(tables, reasoner, reader(tables))
    assert reasoner.completions > len(traces) > 5000
    # The bound is reached and parses evicted, many times over.
    parses = reasoner._parse.cache_info()
    assert parses.misses - parses.currsize > 100
    if reader is TableOracle:
        assert all(trace.steps[1].text == execute_query(shared, describe_query())
                   for _, trace in traces)
