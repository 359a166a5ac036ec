import functools
import itertools

import pytest

from chartloop.backends import BackendError, ScriptedReasoner
from chartloop.controller import (
    EpisodeConfig,
    SelfConsistencyConfig,
    run_episode,
    run_self_consistency,
)
from chartloop.evalkit import majority_vote, relaxed_match, vote_key
from chartloop.oracle import TableOracle
from chartloop.prompts import PromptConfigError, PromptStyle
from chartloop.protocol import DESCRIBE_QUERY, UNAVAILABLE_ANSWER, QueryOp, parse_step
from chartloop.symbolic import SymbolicReasoner, compute_gold, decompose, gen_questions
from chartloop.tables import ChartTable, StepRole, TemplateType, Termination, Value


class RecordingReader:
    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = []

    def read(self, chart_ref, query):
        answer = self.oracle.read(chart_ref, query)
        self.calls.append((query, answer))
        return answer


class NoDescriptionReader:
    """Answers the describe line as not available, and any other as ``oracle``."""

    def __init__(self, oracle):
        self.oracle = oracle

    def read(self, chart_ref, query):
        if query == DESCRIBE_QUERY:
            return UNAVAILABLE_ANSWER
        return self.oracle.read(chart_ref, query)


class BabblingReasoner:
    """Emits prose forever; episodes must still halt."""

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        return "Hmm, let me think about this some more."


class FailingReasoner:
    def complete(self, prompt, stop_markers, temperature, max_tokens):
        raise BackendError("connection refused")


def test_scripted_replay_difference(retail):
    script = [
        "Let's describe the figure.",
        "Let's extract the data of Macy's BY 2019.",
        "Let's extract the data of Bloomingdale's BY 2019.",
        "The difference between Macy's and Bloomingdale's in 2019 is 613-55=558. "
        "So the answer is 558.",
    ]
    trace = run_episode(
        "What is the difference between Macy's and Bloomingdale's in 2019?",
        "store-revenue",
        ScriptedReasoner(script),
        TableOracle([retail]),
    )
    assert trace.terminated_by is Termination.CONCLUSION
    assert trace.final == Value.from_raw("558")
    assert [s.role for s in trace.steps] == [
        StepRole.REASONER_QUERY, StepRole.READER_ANSWER,
        StepRole.REASONER_QUERY, StepRole.READER_ANSWER,
        StepRole.REASONER_QUERY, StepRole.READER_ANSWER,
        StepRole.CONCLUSION,
    ]


def test_reader_called_once_per_query_with_verbatim_splice(costa_rica):
    reader = RecordingReader(TableOracle([costa_rica]))
    trace = run_episode(
        "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?",
        "pupil-teacher",
        SymbolicReasoner(),
        reader,
    )
    queries = [s for s in trace.steps if s.role is StepRole.REASONER_QUERY]
    answers = [s for s in trace.steps if s.role is StepRole.READER_ANSWER]
    assert len(reader.calls) == len(queries) == len(answers)
    for (query, answer), query_step, answer_step in zip(reader.calls, queries, answers):
        assert query == query_step.text
        assert answer == answer_step.text


def test_episode_describes_the_figure_first(costa_rica):
    question = "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?"
    trace = run_episode(question, "pupil-teacher", SymbolicReasoner(), TableOracle([costa_rica]))
    queries = [parse_step(s.text) for s in trace.steps if s.role is StepRole.REASONER_QUERY]
    assert [query.op for query in queries] == [QueryOp.DESCRIBE, QueryOp.EXTRACT_GROUP]
    assert trace.final == Value.from_raw("14.92")


def test_other_lines_keep_generating_until_cap(costa_rica):
    trace = run_episode(
        "anything", "pupil-teacher", BabblingReasoner(), TableOracle([costa_rica]),
        EpisodeConfig(max_steps=5),
    )
    assert trace.terminated_by is Termination.MAX_STEPS
    assert len(trace.steps) == 5
    assert all(s.role is StepRole.PROTOCOL_ERROR for s in trace.steps)
    assert trace.final is None


def test_backend_error_gives_partial_trace(costa_rica):
    trace = run_episode(
        "anything", "pupil-teacher", FailingReasoner(), TableOracle([costa_rica])
    )
    assert trace.terminated_by is Termination.BACKEND_ERROR
    assert trace.final is None


def test_empty_continuation_is_parse_error(costa_rica):
    class Silent:
        def complete(self, prompt, stop_markers, temperature, max_tokens):
            return ""

    trace = run_episode("anything", "pupil-teacher", Silent(), TableOracle([costa_rica]))
    assert trace.terminated_by is Termination.PARSE_ERROR


def test_multiline_continuation_is_cut_at_marker(retail):
    class Chatty:
        def complete(self, prompt, stop_markers, temperature, max_tokens):
            return "The answer is 558.\nAnd here is some trailing junk."

    trace = run_episode("q", "store-revenue", Chatty(), TableOracle([retail]))
    assert trace.final == Value.from_raw("558")


def test_temperature_zero_closed_loop_deterministic(costa_rica):
    oracle = TableOracle([costa_rica])
    question = "In which year is the value of Costa Rica the lowest?"
    first = run_episode(question, "pupil-teacher", SymbolicReasoner(), oracle)
    second = run_episode(question, "pupil-teacher", SymbolicReasoner(), oracle)
    assert first == second


def test_entity_spelling_aligned_from_description(net_ratings):
    reader = RecordingReader(TableOracle([net_ratings]))
    trace = run_episode(
        "By how many points does NET Excellent/good surpass NET Only fair/poor "
        "in German in the year of 2018?",
        "net-ratings",
        SymbolicReasoner(),
        reader,
    )
    issued = [q for q, _ in reader.calls]
    assert issued[1] == "Let's extract the data of NET Excellent/ good BY German."
    assert issued[2] == "Let's extract the data of NET Only fair/ poor BY German."
    assert trace.final == Value.from_raw("15.00")


def test_single_series_group_named_after_describe(neonatal):
    reader = RecordingReader(TableOracle([neonatal]))
    run_episode(
        "In how many years, is the value of the bar greater than 851?",
        "neonatal-deaths",
        SymbolicReasoner(),
        reader,
    )
    assert reader.calls[1][0] == "Let's extract the data of Neonatal deaths."


def test_single_series_group_falls_back_to_all_values(neonatal):
    """Without a description to name the only series, the group line asks
    for all the values."""
    reader = RecordingReader(NoDescriptionReader(TableOracle([neonatal])))
    run_episode(
        "In how many years, is the value of the bar greater than 851?",
        "neonatal-deaths",
        SymbolicReasoner(),
        reader,
    )
    assert reader.calls[0] == ("Let's describe the figure.", UNAVAILABLE_ANSWER)
    assert reader.calls[1][0] == "Let's extract all the values."


def test_self_consistency_single_sample_identity(costa_rica):
    final, traces = run_self_consistency(
        "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?",
        "pupil-teacher",
        SymbolicReasoner(),
        TableOracle([costa_rica]),
        EpisodeConfig(),
        SelfConsistencyConfig(n_samples=1),
    )
    assert len(traces) == 1
    assert final.raw == "14.92"


def test_self_consistency_votes_across_scripts(retail):
    class Flaky:
        """Concludes a different answer on some episodes."""

        def __init__(self):
            self.calls = 0

        def complete(self, prompt, stop_markers, temperature, max_tokens):
            self.calls += 1
            if self.calls % 3 == 0:
                return "The answer is 14."
            return "The answer is 15.00."

    final, traces = run_self_consistency(
        "q", "store-revenue", Flaky(), TableOracle([retail]),
        EpisodeConfig(), SelfConsistencyConfig(n_samples=3, temperature=0.4),
    )
    # Two votes for 15 out of at most three decide the vote: the 14 is never drawn.
    assert len(traces) == 2
    assert final.raw == "15.00"


def test_all_failed_episodes_vote_none(retail):
    final, traces = run_self_consistency(
        "q", "store-revenue", FailingReasoner(), TableOracle([retail]),
        EpisodeConfig(), SelfConsistencyConfig(n_samples=3),
    )
    assert final is None
    assert all(t.terminated_by is Termination.BACKEND_ERROR for t in traces)


class FinalsReasoner:
    """Concludes episode i with ``finals[i]`` in one step; None is an empty
    line, so that episode ends with no final."""

    def __init__(self, finals):
        self.finals = iter(finals)

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        final = next(self.finals)
        return "" if final is None else f"So the answer is {final}."


class NoReader:
    def read(self, chart_ref, query):
        raise AssertionError("a one-step episode reads nothing")


def _sc(finals, n):
    """(vote, episodes drawn) of run_self_consistency over ``finals``, at most n."""
    final, traces = run_self_consistency(
        "q", "chart", FinalsReasoner(finals), NoReader(), EpisodeConfig(),
        SelfConsistencyConfig(n_samples=n))
    assert [t.final and t.final.raw for t in traces] == list(finals[:len(traces)])
    return final, len(traces)


@functools.cache
def _vote_class(votes):
    """The class a full vote over ``votes`` (sorted finals, failures left
    out) elects; the vote does not depend on their order."""
    vote = majority_vote([Value.from_raw(f) for f in votes])
    return None if vote is None else vote_key(vote)


def _votes(finals):
    return tuple(sorted(f for f in finals if f is not None))


_FINALS = (None, "7", "7.0", "a", "b")
# A class none of _FINALS has, with a smaller key than all of theirs.  With
# it among the possible draws, "no draw changes the class" is exactly the
# stop rule: a leader with no more votes than remain could lose to it.
_UNSEEN = "0"


@functools.cache
def _settled(votes, remaining):
    """True when no way of drawing ``remaining`` more samples changes the
    class that ``votes`` elect."""
    now = _vote_class(votes)
    return all(_vote_class(_votes(votes + rest)) == now
               for rest in itertools.combinations_with_replacement(_FINALS + (_UNSEEN,), remaining))


@pytest.mark.parametrize("n", range(1, 7))
def test_self_consistency_stops_at_the_first_settled_prefix(n):
    """Every sequence of n finals: the vote elects the class all n would,
    and drawing stops at the first prefix whose class no draw can change."""
    for finals in itertools.product(_FINALS, repeat=n):
        final, drawn = _sc(finals, n)
        assert (None if final is None else vote_key(final)) == _vote_class(_votes(finals)), finals
        first = next(k for k in range(1, n + 1) if _settled(_votes(finals[:k]), n - k))
        assert drawn == first, finals


def test_self_consistency_draw_table():
    assert [_sc(["7"] * n, n)[1] for n in range(1, 8)] == [1, 2, 2, 3, 3, 4, 4]
    assert [_sc([None] * n, n) for n in range(1, 8)] == [(None, n) for n in range(1, 8)]


def test_early_stop_keeps_the_class_not_the_raw_form():
    finals = ["7.0", "7.0", "7.0", "7", "7"]
    final, drawn = _sc(finals, 5)
    full = majority_vote([Value.from_raw(f) for f in finals])
    assert (drawn, final.raw, full.raw) == (3, "7.0", "7")
    assert vote_key(final) == vote_key(full)
    assert relaxed_match(final, Value.from_raw("7")) and relaxed_match(full, Value.from_raw("7"))


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(max_steps=0)
    with pytest.raises(ValueError):
        SelfConsistencyConfig(n_samples=0)


def test_deplot_episode_without_table_raises(costa_rica):
    config = EpisodeConfig(prompt_style=PromptStyle.DEPLOT_1SHOT)
    with pytest.raises(PromptConfigError):
        run_episode("What is the value of Costa Rica in 2010?", costa_rica.source_id,
                    SymbolicReasoner(), TableOracle([costa_rica]), config)


def test_closed_loop_matches_gold_small(costa_rica):
    oracle = TableOracle([costa_rica])
    for template in TemplateType:
        for qa, plan in gen_questions(costa_rica, template, seed=2, n=2):
            trace = run_episode(qa.question, costa_rica.source_id, SymbolicReasoner(), oracle)
            assert trace.terminated_by is Termination.CONCLUSION
            from chartloop.evalkit import relaxed_match

            assert relaxed_match(trace.final, qa.gold), (qa.question, trace.final, qa.gold)


def test_point_on_a_single_column_chart_concludes_gold(norway_chile):
    question = "What is the value of Chile?"
    trace = run_episode(question, norway_chile.source_id, SymbolicReasoner(),
                        TableOracle([norway_chile]))
    gold = compute_gold(norway_chile, decompose(question))
    assert trace.final == gold == Value.from_raw("7.25")


_TOTAL = ChartTable.build("total", [("Total", None)], ["Total", "Other"], [["5", "7"]])
_SALES = ChartTable.build("sales", [("Sales", None)], ["2020"], [["42"]])


@pytest.mark.parametrize("table, question, described, gold", [
    ("norway_chile", "What is the value of Chile?", False, "7.25"),
    (_TOTAL, "What is the value of Total?", True, "5"),
    (_SALES, "What is the value of Sales?", True, "42"),
    (_SALES, "What is the value of Sales?", False, "42"),
])
def test_point_line_read_as_a_row_concludes_gold(request, table, question, described, gold):
    """The entity-only line reads as a row or column here; the episode takes
    the entity's pair, or the only pair, and concludes the gold answer, also
    when the reader has no description of the figure to give."""
    if isinstance(table, str):
        table = request.getfixturevalue(table)
    reader = TableOracle([table])
    if not described:
        reader = NoDescriptionReader(reader)
    trace = run_episode(question, table.source_id, SymbolicReasoner(), reader)
    assert trace.final == compute_gold(table, decompose(question)) == Value.from_raw(gold)


_SUM = ChartTable.build("sum", [("A", "blue"), ("B", "red")], ["2019", "2020"],
                        [["1", "5"], ["3", "2"]])


class PromptKeepingReasoner(SymbolicReasoner):
    def __init__(self):
        super().__init__()
        self.prompts = []

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        self.prompts.append(prompt)
        return super().complete(prompt, stop_markers, temperature, max_tokens)


@pytest.mark.parametrize("rewrite, final", [
    pytest.param(lambda answer: answer + "\n", "4", id="trailing-newline"),
    pytest.param(lambda answer: "", "unknown", id="empty"),
    pytest.param(lambda answer: answer + "\nNote", "4", id="second-line"),
    pytest.param(lambda answer: "A: " + answer, "unknown", id="answer-marker"),
    pytest.param(lambda answer: "Q: " + answer, "unknown", id="question-marker"),
])
def test_reader_answer_is_one_protocol_line(rewrite, final):
    """A reader answer is kept up to its first newline, and an empty one
    still answers its query: each query is read once and each prompt's
    answer block is exactly the lines of the trace so far.  A reader line
    that begins like the stub's "Q: " or "A: " line moves neither the
    question nor the answer block; the reasoner cannot use it."""
    oracle = TableOracle([_SUM])
    queries = []

    class RewritingReader:
        def read(self, chart_ref, query):
            queries.append(query)
            return rewrite(oracle.read(chart_ref, query))

    reasoner = PromptKeepingReasoner()
    trace = run_episode("What is the sum of the values of A and B in 2019?", "sum", reasoner,
                        RewritingReader())
    assert trace.final == Value.from_raw(final)
    assert queries == ["Let's describe the figure.", "Let's extract the data of A BY 2019.",
                       "Let's extract the data of B BY 2019."]
    texts = [step.text for step in trace.steps]
    assert not any("\n" in text for text in texts)
    stub = "Q: What is the sum of the values of A and B in 2019?\nA: "
    for index, prompt in enumerate(reasoner.prompts):
        block = prompt[prompt.rfind(stub) + len(stub):]
        assert block == "".join(text + "\n" for text in texts[:2 * index])


def test_a_data_line_answering_describe_concludes_unknown():
    """Each reader answer is read against the query that asked it, so a data
    line where the figure description belongs is not taken as the value."""
    oracle = TableOracle([_SUM])

    class DataForDescribeReader:
        def read(self, chart_ref, query):
            if query == "Let's describe the figure.":
                return "The data is 9."
            return oracle.read(chart_ref, query)

    trace = run_episode("What is the value of A in 2019?", "sum", SymbolicReasoner(),
                        DataForDescribeReader())
    assert trace.terminated_by is Termination.CONCLUSION
    assert trace.final == Value.from_raw("unknown")
