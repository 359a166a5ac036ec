import random
from decimal import Decimal

import pytest

from chartloop.datagen import load_corpus
from chartloop.evalkit import relaxed_match
from chartloop.protocol import point_query
from chartloop.symbolic import QuestionPlan, UndefinedResult, compute_gold
from chartloop.tables import (
    ChartTable,
    QAInstance,
    ReasoningTrace,
    Step,
    StepRole,
    TableError,
    TemplateType,
    Termination,
    TraceError,
    Value,
    bucket_length,
    underlying_length,
    validate_trace,
)


def test_underlying_length_is_cell_count(oman_samoa, export_2015):
    assert underlying_length(oman_samoa) == 14
    assert underlying_length(export_2015) == 4


def test_underlying_length_matches_iteration(oman_samoa):
    seen = sum(1 for _ in oman_samoa.cells for _ in _)
    assert underlying_length(oman_samoa) == seen


def test_bucket_length_examples():
    assert bucket_length(14, [0, 10, 20, 40]) == 1
    assert bucket_length(0, [0, 10]) == 0
    assert bucket_length(100, [0, 10, 20, 40]) == 3


def test_bucket_length_edge_behavior():
    assert bucket_length(10, [0, 10, 20]) == 1  # left-inclusive
    assert bucket_length(9, [0, 10, 20]) == 0
    with pytest.raises(ValueError):
        bucket_length(5, [])
    with pytest.raises(ValueError):
        bucket_length(5, [0, 0, 10])


def test_value_round_trip_preserves_precision():
    for raw in ["2784.00", "18", "20.0", "296.0", "-47232000000.0", "0.16", "14.92"]:
        value = Value.from_raw(raw)
        assert value.number is not None
        again = Value.from_raw(value.raw)
        assert again == value
        assert again.raw == raw


def test_value_classification():
    assert Value.from_raw("yes") == Value("yes")
    assert Value.from_raw(" No ") == Value("No")
    assert Value.from_raw("Independents") == Value("Independents")
    assert Value.from_raw("14.92").number == Decimal("14.92")
    # Only scoring reads past quotes and sentence punctuation: a quoted
    # number holds no number, so a reduce refuses it, yet it scores as 5.
    assert Value.from_raw("'5'") == Value("'5'")
    quoted = ChartTable.build("q", ["A"], ["x1", "x2"], [["'5'", "3"]])
    with pytest.raises(UndefinedResult):
        compute_gold(quoted, QuestionPlan((point_query("A", "x1"), point_query("A", "x2")),
                                          "sum"))
    assert relaxed_match(Value.from_raw("'5'"), Value.from_raw("5"))
    assert relaxed_match(Value.from_raw("Yes."), Value.from_raw("yes"))
    assert not relaxed_match(Value.from_raw("Yes."), Value.from_raw("no"))


@pytest.mark.parametrize("raw, number", [
    ("45%", "45"), ("45 %", "45"), ("$3.2", "3.2"), (" $ 3.2 ", "3.2"), ("$-3", "-3"),
    ("1,200", "1200"), ("-1,234,567.5", "-1234567.5"), ("$1,200.50%", "1200.50"),
    ("1.5e3", "1.5e3"), ("1,200e2", "1.2e5"), ("1e999998", "1e999998"),
])
def test_value_reads_a_decorated_number_and_keeps_its_print(raw, number):
    assert Value.from_raw(raw) == Value(raw, Decimal(number))


@pytest.mark.parametrize("raw", ["%", "$", "$%", "45%%", "$$5", "5$", "%5", "1,2000", "12,00",
                                 ",120", "1e1000000", "1e-1000000", "1e999999",
                                 "9" * 31 + "e999969", "0e5000000", "1e1000000000000000000",
                                 "1e" + "9" * 20, "$1e" + "9" * 20 + "%", "Gambia, The"])
def test_value_outside_the_number_rule_is_text(raw):
    assert Value.from_raw(raw) == Value(raw)


def test_value_round_trip_random_decimals():
    rng = random.Random(4)
    for _ in range(200):
        digits = rng.randrange(1, 7)
        places = rng.randrange(0, 4)
        number = Decimal(rng.randrange(10**digits)) / (10**places)
        raw = str(number)
        assert Value.from_raw(Value.from_raw(raw).raw).raw == raw


def test_table_shape_is_enforced():
    with pytest.raises(TableError):
        ChartTable.build("bad", [("A", None)], ["x", "y"], [["1"]])
    with pytest.raises(TableError):
        ChartTable.build("bad", [("A", None), ("B", None)], ["x"], [["1"]])


def test_validate_rejects_duplicates_and_empties():
    table = ChartTable.build("dup", [("A", None), ("a", None)], ["x"], [["1"], ["2"]])
    with pytest.raises(TableError):
        table.validate()
    table = ChartTable.build("dupx", [("A", None)], ["x", "X "], [["1", "2"]])
    with pytest.raises(TableError):
        table.validate()
    table = ChartTable.build("hole", [("A", None)], ["x"], [[""]])
    with pytest.raises(TableError):
        table.validate()


@pytest.mark.parametrize("series, x_labels, cells, message", [
    (["A", "a"], ["x"], [["1"], ["2"]], "duplicate series name 'a'"),
    ([" "], ["x"], [["1"]], "empty series name"),
    (["", "A", "a"], ["x"], [["1"], ["2"], ["3"]], "empty series name"),
    (["A"], ["x", "X "], [["1", "2"]], "duplicate x-label 'X '"),
    (["A"], ["x", "", "y"], [["1", "2", "3"]], "empty x-label"),
    (["A"], ["x", "x", ""], [["1", "2", "3"]], "duplicate x-label 'x'"),
    (["A"], ["x", "y", "z"], [["n/a", "n/a", " "]], "empty cell at [0][2]"),
    (["A", "B"], ["x", "y"], [["1", "2"], ["3", ""]], "empty cell at [1][1]"),
], ids=["duplicate-series", "blank-series", "empty-series-first", "duplicate-x-label",
        "empty-x-label", "duplicate-x-label-first", "blank-cell-after-text", "empty-cell"])
def test_validate_names_the_first_bad_label_or_cell(series, x_labels, cells, message):
    table = ChartTable.build("t", [(name, None) for name in series], x_labels, cells)
    with pytest.raises(TableError) as raised:
        table.validate()
    assert str(raised.value) == f"t: {message}"


def test_degenerate_axis_constructs_without_validate(plotqa_duplicated_axis):
    assert underlying_length(plotqa_duplicated_axis) == 24
    with pytest.raises(TableError):
        plotqa_duplicated_axis.validate()


def test_table_json_round_trip(oman_samoa, tmp_path):
    (tmp_path / "charts.jsonl").write_text(oman_samoa.to_json() + "\n", encoding="utf-8")
    assert load_corpus(tmp_path).charts == [oman_samoa]


def test_qa_instance_round_trip():
    qa = QAInstance("How much?", Value.from_raw("12"), "c1", TemplateType.ARITHMETIC)
    assert QAInstance.from_dict(qa.to_dict()) == qa
    untyped = QAInstance("Free form?", Value.from_raw("blue"), "c2")
    assert QAInstance.from_dict(untyped.to_dict()) == untyped


@pytest.mark.parametrize("field, raw, reason", [
    ("gold", None, "missing gold"),
    ("question", None, "missing question"),
    ("chart_id", ["c1"], "chart_id must be a string or a number, not an array"),
    ("gold", True, "gold must be a string or a number, not a boolean"),
    ("template_type", False, "template_type must be a string or a number, not a boolean"),
    ("template_type", [], "template_type must be a string or a number, not an array"),
    ("template_type", 0, "'0' is not a valid TemplateType"),
])
def test_qa_instance_text_fields_follow_the_corpus_rule(field, raw, reason):
    obj = {**QAInstance("How much?", Value.from_raw("12"), "c1").to_dict(), field: raw}
    with pytest.raises(ValueError, match=reason):
        QAInstance.from_dict(obj)


def _step(role, text="x"):
    return Step(role, text)


def test_trace_validator_accepts_well_formed():
    trace = ReasoningTrace(
        (
            _step(StepRole.REASONER_QUERY),
            _step(StepRole.READER_ANSWER),
            _step(StepRole.CONCLUSION, "So the answer is 1."),
        ),
        Value.from_raw("1"),
        Termination.CONCLUSION,
    )
    validate_trace(trace)


def test_trace_validator_rejects_orphan_answer():
    trace = ReasoningTrace(
        (_step(StepRole.READER_ANSWER),), None, Termination.MAX_STEPS
    )
    with pytest.raises(TraceError):
        validate_trace(trace)


def test_trace_validator_rejects_mid_trace_conclusion():
    trace = ReasoningTrace(
        (
            _step(StepRole.CONCLUSION),
            _step(StepRole.REASONER_QUERY),
        ),
        Value.from_raw("1"),
        Termination.CONCLUSION,
    )
    with pytest.raises(TraceError):
        validate_trace(trace)


def test_trace_validator_final_iff_conclusion():
    with pytest.raises(TraceError):
        validate_trace(
            ReasoningTrace(
                (_step(StepRole.CONCLUSION, "So the answer is 1."),),
                None,
                Termination.CONCLUSION,
            )
        )
    with pytest.raises(TraceError):
        validate_trace(
            ReasoningTrace(
                (_step(StepRole.REASONER_QUERY),), Value.from_raw("1"), Termination.MAX_STEPS
            )
        )
