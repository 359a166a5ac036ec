
import random

import pytest

from chartloop import oracle as oracle_module
from chartloop.controller import run_episode
from chartloop.oracle import (
    Axis,
    FUZZY_THRESHOLD,
    ChartNotFound,
    EntityNotFound,
    TableOracle,
    closest_name,
    describe,
    edit_similarity,
    execute_query,
    resolve_entity,
)
from chartloop.protocol import (
    UNAVAILABLE_ANSWER,
    describe_query,
    format_query,
    group_query,
    parse_reader_answer,
    point_query,
)
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_table, random_tables
from chartloop.tables import ChartTable, StepRole, TemplateType, normalize_name


def test_describe_matches_prompt_exemplar(oman_samoa):
    assert describe(oman_samoa) == (
        "The figure shows the data of: Oman (brown) | Samoa (dark blue). "
        "The x-axis shows: 2008 | 2009 | 2010 | 2011 | 2012 | 2013 | 2014."
    )


def test_describe_colorless_single_series(segments):
    assert describe(segments) == (
        "The figure shows the data of: Value. "
        "The x-axis shows: Decreased | No impact | Increased."
    )


def test_describe_duplicated_axis(plotqa_duplicated_axis):
    assert describe(plotqa_duplicated_axis) == (
        "The figure shows the data of: Fragile and conflict affected situations (grey) | "
        "Iraq (brown) | Moldova (orange). "
        "The x-axis shows: 2004 | 2005 | 2006 | 2007 | 2004 | 2005 | 2006 | 2007."
    )


def test_describe_income_series_label(income):
    assert describe(income).startswith(
        "The figure shows the data of: Income in million U.S. dollars (blue)."
    )


def test_resolve_exact_case_insensitive(oman_samoa):
    assert resolve_entity(oman_samoa, "oman") == (Axis.SERIES, 0)


def test_resolve_prefers_series_axis():
    table = ChartTable.build("clash", [("2015", None), ("Other", None)],
                             ["2015", "2016"], [["1", "2"], ["3", "4"]])
    assert resolve_entity(table, "2015") == (Axis.SERIES, 0)


def test_resolve_consoles(activision):
    axis, index = resolve_entity(activision, "Consoles")
    assert axis is Axis.SERIES
    assert activision.series[index].name == "Consoles"


def test_resolve_fuzzy_tolerates_spacing(net_ratings):
    axis, index = resolve_entity(net_ratings, "NET Excellent/good")
    assert axis is Axis.SERIES
    assert net_ratings.series[index].name == "NET Excellent/ good"
    assert 0.8 <= edit_similarity("NET Excellent/good", "NET Excellent/ good") < 1.0


def test_resolve_not_found(oman_samoa):
    with pytest.raises(EntityNotFound):
        resolve_entity(oman_samoa, "Atlantis")


def test_closest_name_exact_first_then_first_best_fuzzy():
    assert closest_name("ALPHX", ["Alpha", "alphx"]) == 1
    assert closest_name("Alphz", ["Alpha", "Alphb"]) == 0
    assert edit_similarity("Alphz", "Alpha") == 0.8
    assert closest_name("Zeta", ["Alpha"]) is None


def test_a_name_far_longer_than_every_label_is_not_scored(monkeypatch):
    """A name from outside the program costs no edit distance when its length
    alone keeps it under the threshold, read through the oracle or not."""
    calls = []
    original = oracle_module._edit_distance
    monkeypatch.setattr(oracle_module, "_edit_distance",
                        lambda a, b: calls.append(1) or original(a, b))
    table = random_table(0, 0, n_series=4, n_x=8)
    oracle = TableOracle([table])
    name = "x" * 100_000
    for query in (group_query(name), point_query(name, table.x_labels[0]),
                  point_query(table.series[0].name, name)):
        assert oracle.read(table.source_id, format_query(query)) == UNAVAILABLE_ANSWER
    assert closest_name(name, [s.name for s in table.series]) is None
    assert calls == []


def test_closest_name_agrees_with_scoring_every_entry():
    """Skipping entries by length changes no result: on seeded random names,
    some a few edits from an entry, ``closest_name`` is the exact match or the
    first best-scoring entry at or above the threshold."""
    rng = random.Random(0)
    fuzzy_hits = 0
    for _ in range(3000):
        names = ["".join(rng.choices("abAB ", k=rng.randint(0, 9)))
                 for _ in range(rng.randint(1, 5))]
        name = list(rng.choice(names))
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(name))
            if name and rng.random() < 0.5:
                del name[min(at, len(name) - 1)]
            else:
                name.insert(at, rng.choice("abAB "))
        name = "".join(name)
        scores = [edit_similarity(name, entry) for entry in names]
        best = max(range(len(names)), key=scores.__getitem__)
        exact = [i for i, entry in enumerate(names) if normalize_name(entry) == normalize_name(name)]
        expected = exact[0] if exact else best if scores[best] >= FUZZY_THRESHOLD else None
        assert closest_name(name, names) == expected, (name, names)
        fuzzy_hits += not exact and expected is not None
    assert fuzzy_hits > 100


def test_edit_similarity_bounds():
    assert edit_similarity("abc", "abc") == 1.0
    assert edit_similarity("", "") == 1.0
    assert 0.0 <= edit_similarity("abc", "xyz") <= 1.0


def test_extract_point_by_form(oman_samoa, activision):
    assert execute_query(oman_samoa, point_query("Oman", "2010")) == "The data is 210.69."
    assert execute_query(activision, point_query("Consoles", "2020")) == "The data is 2784.00."


def test_extract_point_flipped_orientation(oman_samoa):
    assert execute_query(oman_samoa, point_query("2010", "Oman")) == "The data is 210.69."
    # "Total" names a series and an x-label; only the x-label reading fits "BY A".
    clash = ChartTable.build("clash", [("Total", None), ("A", None)], ["Total", "Other"],
                             [["1", "2"], ["3", "4"]])
    assert execute_query(clash, point_query("Total", "A")) == "The data is 3."
    assert execute_query(clash, point_query("Total", "Other")) == "The data is 2."


def test_extract_point_single_series_entity_only(export_2015):
    assert execute_query(export_2015, point_query("2015")) == "The data is 296.0."


def test_extract_point_without_by_gets_its_line_answer(oman_samoa):
    # The entity-only line names the 2010 column on a two-series chart.
    assert execute_query(oman_samoa, point_query("2010")) == (
        "The data is 210.69 in Oman, 39.21 in Samoa."
    )
    assert execute_query(oman_samoa, point_query("Oman", "1999")) == UNAVAILABLE_ANSWER


def test_extract_group_series(total_market):
    assert execute_query(total_market, group_query("Total market")) == (
        "The data is 18 in 2019, 20.0 in 2018, 22.0 in 2017, 23.0 in 2016, "
        "24.0 in 2015, 25.0 in 2014, 26.0 in 2013, 27.0 in 2012, 26.0 in 2011."
    )


def test_extract_group_x_label(merchandise):
    assert execute_query(merchandise, group_query("1994")) == (
        "The data is 0.16 in Merchandise exports, 0.36 in Merchandise imports."
    )


def test_extract_group_costa_rica(costa_rica):
    assert execute_query(costa_rica, group_query("Costa Rica")) == (
        "The data is 18.84 in 2000, 19.57 in 2001, 17.79 in 2006, "
        "17.91 in 2007, 15.64 in 2008, 14.92 in 2011."
    )


def test_extract_group_absent_entity(segments, oman_samoa):
    assert execute_query(segments, group_query()) == (
        "The data is 81.00 in Decreased, 16.00 in No impact, 3.00 in Increased."
    )
    assert execute_query(oman_samoa, group_query()) == UNAVAILABLE_ANSWER


def test_extract_group_not_found(oman_samoa):
    assert execute_query(oman_samoa, group_query("Atlantis")) == UNAVAILABLE_ANSWER


def test_read_dispatches_entity_only_point(export_2015):
    oracle = TableOracle([export_2015])
    answer = oracle.read("export-value", "Let's extract the data of 2015.")
    assert answer == "The data is 296.0."


def test_read_unknown_chart_raises(export_2015):
    oracle = TableOracle([export_2015])
    with pytest.raises(ChartNotFound):
        oracle.read("nope", "Let's describe the figure.")


def test_read_junk_query_gets_sentinel(export_2015):
    oracle = TableOracle([export_2015])
    assert oracle.read("export-value", "What even is this?") == UNAVAILABLE_ANSWER


def _every_query(table):
    yield describe_query()
    yield group_query()
    names = [s.name for s in table.series]
    for name in [*names, *table.x_labels]:
        yield group_query(name)
        yield point_query(name)
    for name in names:
        for x in table.x_labels:
            yield point_query(name, x)
            yield point_query(x, name)


def test_execute_query_answers_what_its_line_reads(line_charts):
    for table in line_charts:
        oracle = TableOracle([table])
        for query in _every_query(table):
            line = format_query(query)
            assert execute_query(table, query) == oracle.read(table.source_id, line), line


def test_determinism_and_consistency_on_random_tables():
    for index in range(25):
        table = random_table(17, index)
        for i, label in enumerate(table.series):
            for j, x in enumerate(table.x_labels):
                query = point_query(label.name, x) if len(table.series) > 1 else point_query(x)
                first = execute_query(table, query)
                assert first == execute_query(table, query)
                parsed = parse_reader_answer(first)
                assert parsed.scalar == table.cells[i][j]


def test_group_point_coherence_on_random_tables():
    for index in range(25):
        table = random_table(18, index)
        multi = len(table.series) > 1
        for i, label in enumerate(table.series):
            group = parse_reader_answer(execute_query(table, group_query(label.name)))
            points = []
            for x in table.x_labels:
                query = point_query(label.name, x) if multi else point_query(x)
                answer = execute_query(table, query)
                points.append(parse_reader_answer(answer).scalar)
            assert [v for _, v in group.pairs] == points
            assert [k for k, _ in group.pairs] == list(table.x_labels)


def test_describe_reparses_to_table_labels():
    for index in range(25):
        table = random_table(19, index)
        parsed = parse_reader_answer(describe(table))
        assert parsed.series_names == tuple(s.name for s in table.series)
        assert parsed.x_labels == table.x_labels


def test_oracle_read_matches_formatted_queries(canada):
    oracle = TableOracle([canada])
    answer = oracle.read("emissions", format_query(point_query("Canada", "1965")))
    assert answer == "The data is 20.82."
    answer = oracle.read("emissions", format_query(group_query("Canada")))
    assert answer == "The data is 19.75 in 1964, 20.82 in 1965, 21.40 in 1966."


@pytest.fixture
def executed(monkeypatch):
    """The queries ``TableOracle.read`` hands to ``execute_query``, which it
    looks up at call time; ``failures`` of them raise first."""
    calls, failures = [], []
    original = execute_query

    def counted(table, query):
        calls.append((table.source_id, format_query(query)))
        if failures:
            raise failures.pop()
        return original(table, query)

    monkeypatch.setattr(oracle_module, "execute_query", counted)
    return calls, failures


def test_a_repeated_line_on_one_chart_is_executed_once_and_answers_the_same(
        executed, oman_samoa, canada):
    calls, _ = executed
    oracle = TableOracle([oman_samoa, canada])
    for table in (oman_samoa, canada):
        for query in _every_query(table):
            line = format_query(query)
            first = oracle.read(table.source_id, line)
            assert oracle.read(table.source_id, line) == first == execute_query(table, query)
    assert len(calls) == len(set(calls))


def test_reading_another_chart_drops_the_answers_of_the_last(executed, oman_samoa, canada):
    calls, _ = executed
    oracle = TableOracle([oman_samoa, canada])
    line = format_query(describe_query())
    for chart_ref in ("health-expenditure", "health-expenditure", "emissions", "health-expenditure"):
        oracle.read(chart_ref, line)
    assert [chart_ref for chart_ref, _ in calls] == ["health-expenditure", "emissions", "health-expenditure"]


def test_a_read_that_raises_is_asked_again(executed, oman_samoa):
    calls, failures = executed
    oracle = TableOracle([oman_samoa])
    line = format_query(describe_query())
    failures.append(RuntimeError("reader down"))
    with pytest.raises(RuntimeError):
        oracle.read("health-expenditure", line)
    assert oracle.read("health-expenditure", line) == describe(oman_samoa)
    assert len(calls) == 2
    for _ in range(2):
        with pytest.raises(ChartNotFound):
            oracle.read("nope", line)
    # A chart that is not there replaces nothing: the last chart still answers.
    assert oracle.read("health-expenditure", line) == describe(oman_samoa)
    assert len(calls) == 2


def test_a_closed_loop_executes_each_chart_line_once(executed):
    """Every template's questions over 30 charts, asked chart by chart as
    ``eval --synthetic`` asks them: the oracle executes each distinct
    (chart, query line) once, however many questions send it."""
    calls, _ = executed
    tables = random_tables(0, 30)
    oracle, reasoner = TableOracle(tables), SymbolicReasoner()
    asked, questions = set(), 0
    for table in tables:
        for template in TemplateType:
            try:
                generated = gen_questions(table, template, 0, n=2)
            except SkippedTemplate:
                continue
            for qa, _ in generated:
                trace = run_episode(qa.question, qa.chart_id, reasoner, oracle)
                asked |= {(qa.chart_id, step.text) for step in trace.steps
                          if step.role is StepRole.REASONER_QUERY}
                questions += 1
    assert questions > 200
    assert sorted(calls) == sorted(asked)

