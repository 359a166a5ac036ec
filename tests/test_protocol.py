import random
import string

import pytest

from chartloop.protocol import (
    AnswerKind,
    AtomicQuery,
    QueryOp,
    StepKind,
    UNAVAILABLE_ANSWER,
    describe_query,
    format_query,
    format_reader_answer,
    group_answer,
    group_query,
    parse_reader_answer,
    parse_step,
    point_query,
    scalar_answer,
)
from chartloop.tables import Value, ValueKind


def test_parse_describe():
    parsed = parse_step("Let's describe the figure.")
    assert parsed.kind is StepKind.QUERY
    assert parsed.query == describe_query()


def test_parse_point_with_by():
    parsed = parse_step("Let's extract the data of Canada BY 1965.")
    assert parsed.query == point_query("Canada", "1965")


def test_parse_entity_only_is_group():
    parsed = parse_step("Let's extract the data of Total market.")
    assert parsed.query == group_query("Total market")


def test_parse_extract_all():
    parsed = parse_step("Let's extract all the values.")
    assert parsed.query == group_query(None)


def test_parse_conclusion_takes_last_answer_is():
    parsed = parse_step("The minimum value is 14.92 in 2011. So the answer is 14.92.")
    assert parsed.kind is StepKind.CONCLUSION
    assert parsed.final == Value.from_raw("14.92")


def test_parse_conclusion_plain_form():
    parsed = parse_step("The answer is 7.54.")
    assert parsed.kind is StepKind.CONCLUSION
    assert parsed.final.raw == "7.54"


def test_parse_prose_is_other():
    parsed = parse_step("Let's find the row of Turkey.")
    assert parsed.kind is StepKind.OTHER


def test_parse_non_terminal_answer_is_other():
    parsed = parse_step("The answer is unknown. Let me try again.")
    assert parsed.kind is StepKind.OTHER


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
        parsed = parse_step(format_query(query))
        assert parsed.kind is StepKind.QUERY
        assert parsed.query == query


def test_point_without_by_reparses_as_group():
    # The entity-only surface form is shared; readers disambiguate on the chart.
    parsed = parse_step(format_query(point_query("2015")))
    assert parsed.query == group_query("2015")


def test_by_escape_is_format_stable():
    query = group_query("side BY side")
    rendered = format_query(query)
    assert rendered == "Let's extract the data of side By side."
    reparsed = parse_step(rendered).query
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
        assert parsed.kind in (StepKind.QUERY, StepKind.CONCLUSION, StepKind.OTHER)


def test_parse_scalar_answer():
    answer = parse_reader_answer("The data is 20.82.")
    assert answer.kind is AnswerKind.SCALAR
    assert answer.scalar == Value.from_raw("20.82")


def test_an_exponent_past_what_a_decimal_holds_reads_as_text():
    for line in ["The data is 1e1000000000000000000.", "The data is 1e" + "9" * 20 + "."]:
        answer = parse_reader_answer(line)
        assert answer.kind is AnswerKind.SCALAR
        assert answer.scalar.kind is ValueKind.TEXT
    parsed = parse_step("So the answer is 1e1000000000000000000.")
    assert parsed.kind is StepKind.CONCLUSION
    assert parsed.final.kind is ValueKind.TEXT


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
    assert junk.raw == "beep boop"


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
