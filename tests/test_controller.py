import pytest

from chartloop.backends import BackendError, ScriptedReasoner
from chartloop.controller import (
    EpisodeConfig,
    SelfConsistencyConfig,
    run_episode,
    run_self_consistency,
    truncate_at_markers,
)
from chartloop.oracle import TableOracle
from chartloop.protocol import QueryOp, StepKind, parse_step
from chartloop.symbolic import SymbolicReasoner, gen_questions
from chartloop.tables import StepRole, TemplateType, Termination, Value


class RecordingReader:
    def __init__(self, oracle):
        self.oracle = oracle
        self.calls = []

    def read(self, chart_ref, query):
        answer = self.oracle.read(chart_ref, query)
        self.calls.append((query, answer))
        return answer


class BabblingReasoner:
    """Emits prose forever; episodes must still halt."""

    def complete(self, prompt, stop_markers, temperature, max_tokens):
        return "Hmm, let me think about this some more."


class FailingReasoner:
    def complete(self, prompt, stop_markers, temperature, max_tokens):
        raise BackendError("connection refused")


def test_truncate_at_markers():
    assert truncate_at_markers("one line\nleftover", ["\n"]) == "one line"
    assert truncate_at_markers("clean", ["\n"]) == "clean"


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


def test_describe_first_on_and_off(costa_rica):
    oracle = TableOracle([costa_rica])
    question = "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?"
    trace = run_episode(question, "pupil-teacher", SymbolicReasoner(), oracle)
    first_query = next(s for s in trace.steps if s.role is StepRole.REASONER_QUERY)
    assert parse_step(first_query.text).query.op is QueryOp.DESCRIBE

    config = EpisodeConfig()
    trace = run_episode(question, "pupil-teacher", SymbolicReasoner(describe_first=False),
                        oracle, config)
    for step in trace.steps:
        parsed = parse_step(step.text)
        if parsed.kind is StepKind.QUERY:
            assert parsed.query.op is not QueryOp.DESCRIBE
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
    reader = RecordingReader(TableOracle([neonatal]))
    run_episode(
        "In how many years, is the value of the bar greater than 851?",
        "neonatal-deaths",
        SymbolicReasoner(describe_first=False),
        reader,
        EpisodeConfig(),
    )
    assert reader.calls[0][0] == "Let's extract all the values."


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
    assert len(traces) == 3
    assert final.raw == "15.00"


def test_all_failed_episodes_vote_none(retail):
    final, traces = run_self_consistency(
        "q", "store-revenue", FailingReasoner(), TableOracle([retail]),
        EpisodeConfig(), SelfConsistencyConfig(n_samples=3),
    )
    assert final is None
    assert all(t.terminated_by is Termination.BACKEND_ERROR for t in traces)


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(max_steps=0)
    with pytest.raises(ValueError):
        SelfConsistencyConfig(n_samples=0)


def test_closed_loop_matches_gold_small(costa_rica):
    oracle = TableOracle([costa_rica])
    for template in TemplateType:
        for qa, plan in gen_questions(costa_rica, template, seed=2, n=2):
            trace = run_episode(qa.question, costa_rica.source_id, SymbolicReasoner(), oracle)
            assert trace.terminated_by is Termination.CONCLUSION
            from chartloop.evalkit import relaxed_match

            assert relaxed_match(trace.final, qa.gold), (qa.question, trace.final, qa.gold)
