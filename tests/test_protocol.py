import random
import string

import pytest

from chartloop.controller import run_episode
from chartloop.oracle import TableOracle, execute_query
from chartloop.protocol import (
    CONCLUSION,
    AnswerKind,
    AtomicQuery,
    QueryOp,
    ReaderAnswer,
    UNAVAILABLE_ANSWER,
    describe_query,
    description_answer,
    format_query,
    format_reader_answer,
    group_answer,
    group_query,
    parse_reader_answer,
    parse_step,
    point_query,
    scalar_answer,
)
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import ChartTable, StepRole, TemplateType, Value


def test_parse_describe():
    assert parse_step("Let's describe the figure.") == describe_query()


def test_parse_point_with_by():
    assert parse_step("Let's extract the data of Canada BY 1965.") == point_query("Canada", "1965")


def test_parse_entity_only_is_group():
    assert parse_step("Let's extract the data of Total market.") == group_query("Total market")


def test_parse_extract_all():
    assert parse_step("Let's extract all the values.") == group_query(None)


def test_parse_conclusion_takes_last_answer_is():
    line = "The minimum value is 14.92 in 2011. So the answer is 14.92."
    assert parse_step(line) == Value.from_raw("14.92")


def test_parse_conclusion_plain_form():
    assert parse_step("The answer is 7.54.") == Value.from_raw("7.54")


def test_parse_prose_is_other():
    assert parse_step("Let's find the row of Turkey.") is None


def test_parse_non_terminal_answer_is_other():
    assert parse_step("The answer is unknown. Let me try again.") is None


@pytest.mark.parametrize("line, parsed", [
    ("The value Dr. Phil McGraw is in 2019. So the answer is Dr. Phil McGraw.",
     Value.from_raw("Dr. Phil McGraw")),
    ("So the answer is Dr. Phil McGraw.", Value.from_raw("Dr. Phil McGraw")),
    ("The answer is Dr. Phil McGraw.", None),
])
def test_conclusion_answer_may_hold_a_sentence_boundary(line, parsed):
    """Only CONCLUSION's own sentence reads its answer up to the final ".";
    any other "answer is X." keeps the sentence-boundary rule."""
    assert parse_step(line) == parsed


def test_format_query_canonical_forms():
    assert format_query(describe_query()) == "Let's describe the figure."
    assert format_query(group_query("Total market")) == "Let's extract the data of Total market."
    assert format_query(group_query(None)) == "Let's extract all the values."
    assert (
        format_query(point_query("Consoles", "2020"))
        == "Let's extract the data of Consoles BY 2020."
    )
    assert format_query(point_query("2015")) == "Let's extract the data of 2015."


def test_query_round_trip_canonical():
    queries = [
        describe_query(),
        group_query(None),
        group_query("Oman"),
        group_query("NET Excellent/ good"),
        point_query("Canada", "1965"),
        point_query("NET Only fair/ poor", "German"),
    ]
    for query in queries:
        assert parse_step(format_query(query)) == query


def test_point_without_by_reparses_as_group():
    # The entity-only surface form is shared; readers disambiguate on the chart.
    assert parse_step(format_query(point_query("2015"))) == group_query("2015")


def test_by_escape_is_format_stable():
    query = group_query("side BY side")
    rendered = format_query(query)
    assert rendered == "Let's extract the data of side By side."
    reparsed = parse_step(rendered)
    assert reparsed == group_query("side By side")
    assert format_query(reparsed) == rendered


def test_query_validation():
    with pytest.raises(ValueError):
        AtomicQuery(QueryOp.DESCRIBE, entity="x")
    with pytest.raises(ValueError):
        AtomicQuery(QueryOp.EXTRACT_POINT)
    with pytest.raises(ValueError):
        AtomicQuery(QueryOp.EXTRACT_GROUP, entity="x", by="y")


def test_parse_step_total_on_fuzz():
    rng = random.Random(99)
    alphabet = string.printable.replace("\n", "")
    for _ in range(500):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        parsed = parse_step(line)
        assert parsed is None or isinstance(parsed, (AtomicQuery, Value))


def test_parse_scalar_answer():
    answer = parse_reader_answer("The data is 20.82.")
    assert answer.kind is AnswerKind.SCALAR
    assert answer.scalar == Value.from_raw("20.82")


def test_an_exponent_past_what_a_decimal_holds_reads_as_text():
    for line in ["The data is 1e1000000000000000000.", "The data is 1e" + "9" * 20 + "."]:
        answer = parse_reader_answer(line)
        assert answer.kind is AnswerKind.SCALAR
        assert answer.scalar.number is None
    parsed = parse_step("So the answer is 1e1000000000000000000.")
    assert parsed == Value("1e1000000000000000000")


def test_parse_group_answer_preserves_order():
    answer = parse_reader_answer(
        "The data is 0.16 in Merchandise exports, 0.36 in Merchandise imports."
    )
    assert answer.kind is AnswerKind.GROUP
    assert [k for k, _ in answer.pairs] == ["Merchandise exports", "Merchandise imports"]
    assert [v.raw for _, v in answer.pairs] == ["0.16", "0.36"]


def test_parse_group_with_comma_inside_key():
    answer = parse_reader_answer(
        "The data is 120000.0 in Gambia, The, 12170000.0 in Germany."
    )
    assert answer.kind is AnswerKind.GROUP
    assert [k for k, _ in answer.pairs] == ["Gambia, The", "Germany"]


def test_parse_description_with_colors():
    answer = parse_reader_answer(
        "The figure shows the data of: Oman (brown) | Samoa (dark blue). "
        "The x-axis shows: 2008 | 2009 | 2010 | 2011 | 2012 | 2013 | 2014."
    )
    assert answer.kind is AnswerKind.DESCRIPTION
    assert answer.series_names == ("Oman", "Samoa")
    assert answer.series[1].color == "dark blue"
    assert len(answer.x_labels) == 7


def test_parse_description_colorless_single_series():
    answer = parse_reader_answer(
        "The figure shows the data of: Value. The x-axis shows: Decreased | No impact | Increased."
    )
    assert answer.series_names == ("Value",)
    assert answer.series[0].color is None
    assert answer.x_labels == ("Decreased", "No impact", "Increased")


def test_parse_description_comma_separated_axis():
    line = (
        "The figure shows the data of: NET Excellent/ good (blue) | NET Only fair/ poor (orange). "
        "The x-axis shows: Brazil, German, Russia, U.S., Japan."
    )
    answer = parse_reader_answer(line)
    assert answer.x_labels == ("Brazil", "German", "Russia", "U.S.", "Japan")
    assert format_reader_answer(answer) == line


def test_parse_unavailable_and_junk():
    assert parse_reader_answer(UNAVAILABLE_ANSWER).kind is AnswerKind.UNAVAILABLE
    junk = parse_reader_answer("beep boop")
    assert junk.kind is AnswerKind.UNAVAILABLE
    assert junk is parse_reader_answer(UNAVAILABLE_ANSWER) == ReaderAnswer(AnswerKind.UNAVAILABLE)


def test_format_reader_answer_examples():
    assert format_reader_answer(scalar_answer(Value.from_raw("7.54"))) == "The data is 7.54."
    pairs = [("2019", Value.from_raw("18")), ("2018", Value.from_raw("20.0"))]
    assert format_reader_answer(group_answer(pairs)) == "The data is 18 in 2019, 20.0 in 2018."
    with pytest.raises(ValueError):
        format_reader_answer(parse_reader_answer("???"))


def test_reader_answer_round_trip():
    lines = [
        "The data is 20.82.",
        "The data is 2784.00.",
        "The data is 18 in 2019, 20.0 in 2018.",
        "The data is 853 in 2000, 847 in 2001, 822 in 2002, 828 in 2003, 818 in 2004, 843 in 2005.",
        "The figure shows the data of: Value. The x-axis shows: Decreased | No impact | Increased.",
        "The figure shows the data of: Share of respondents (blue). "
        "The x-axis shows: Very positive, Fairly positive, Fairly negative, Very negative.",
    ]
    for line in lines:
        answer = parse_reader_answer(line)
        assert answer.kind is not AnswerKind.UNAVAILABLE
        assert format_reader_answer(answer) == line
        assert parse_reader_answer(format_reader_answer(answer)) == answer


def test_single_pair_group_round_trip():
    answer = group_answer([("2010", Value.from_raw("210.69"))])
    line = format_reader_answer(answer)
    assert parse_reader_answer(line) == answer


# ---------------------------------------------------------------------------
# Round trip of every line the loop writes: format(parse(L)) == L, and the
# parse is the answer or query that was formatted.
# ---------------------------------------------------------------------------

_FIXTURE_TABLES = ["oman_samoa", "net_ratings", "respondents", "activision", "segments",
                   "neonatal", "costa_rica", "total_market", "merchandise", "income",
                   "plotqa_duplicated_axis", "canada", "export_2015", "turkey", "retail",
                   "university_shares", "norway_chile", "line_charts"]


def _answers(table):
    """Every answer the oracle can give over ``table``: its description, each
    cell, and each row and column as pairs."""
    yield description_answer(table.series, table.x_labels)
    for label, row in zip(table.series, table.cells):
        yield group_answer(list(zip(table.x_labels, row)))
        yield from map(scalar_answer, row)
    for j in range(len(table.x_labels)):
        yield group_answer([(label.name, row[j]) for label, row in zip(table.series, table.cells)])


def _queries(table):
    """Every query the oracle takes over ``table``: describe, extract-all, each
    label's group and entity-only point, and each cell read both ways."""
    names = [label.name for label in table.series]
    yield describe_query()
    yield group_query()
    for entity in (*names, *table.x_labels):
        yield group_query(entity)
        yield point_query(entity)
    for name in names:
        for x in table.x_labels:
            yield point_query(name, x)
            yield point_query(x, name)


def _reasoner_steps(table):
    """The steps of a closed-loop episode for each generated question."""
    oracle = TableOracle([table])
    for template in TemplateType:
        try:
            generated = gen_questions(table, template, seed=0)
        except SkippedTemplate:
            continue
        for qa, _ in generated:
            yield from run_episode(qa.question, table.source_id, SymbolicReasoner(), oracle).steps


def assert_protocol_lines_round_trip(table):
    answer_lines = set()
    for answer in _answers(table):
        line = format_reader_answer(answer)
        assert parse_reader_answer(line) == answer, line
        assert format_reader_answer(parse_reader_answer(line)) == line
        answer_lines.add(line)
    for query in _queries(table):
        line = format_query(query)
        parsed = parse_step(line)
        # A point without BY shares the entity-only line of the group query.
        assert parsed == (group_query(query.entity) if query.op is QueryOp.EXTRACT_POINT
                          and query.by is None else query), line
        assert format_query(parsed) == line
        assert execute_query(table, query) in answer_lines | {UNAVAILABLE_ANSWER}, line
    for step in _reasoner_steps(table):
        parsed = parse_step(step.text)
        if step.role is StepRole.REASONER_QUERY:
            assert format_query(parsed) == step.text
        elif step.role is StepRole.CONCLUSION:
            assert step.text.endswith(CONCLUSION.render(parsed.raw))
        else:
            assert step.role is StepRole.READER_ANSWER and step.text in answer_lines


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_protocol_line_round_trips_on_seeded_tables(seed):
    for table in random_tables(seed, 75):
        assert_protocol_lines_round_trip(table)


@pytest.mark.parametrize("name", _FIXTURE_TABLES)
def test_every_protocol_line_round_trips_on_fixture_tables(request, name):
    tables = request.getfixturevalue(name)
    for table in tables if isinstance(tables, list) else [tables]:
        assert_protocol_lines_round_trip(table)


def _label_defect(label_id, reason, series, x_labels):
    table = ChartTable.build(label_id, series, x_labels, [["1"] * len(x_labels)] * len(series))
    return pytest.param(table, id=label_id, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 1 (real chart labels survive the protocol): {reason}"))


@pytest.mark.parametrize("table", [
    _label_defect("pipe-in-series", "the description joins series with ' | '",
                  [("North | South", "blue"), ("East", "red")], ["2019", "2020"]),
    _label_defect("bracket-without-colour", "a colourless name ending '(...)' reads as a colour",
                  [("Sales (in millions)", None)], ["2019", "2020"]),
    _label_defect("comma-in-lone-x-label", "a lone x-label with ', ' reads as two",
                  [("Share", "blue"), ("Other", "red")], ["Men, 18-29"]),
])
def test_labels_that_do_not_survive_the_protocol(table):
    assert_protocol_lines_round_trip(table)
