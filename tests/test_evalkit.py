import random
from decimal import Decimal

import pytest

from chartloop.evalkit import (
    EvalRecord,
    ReportAccumulator,
    evaluate_run,
    majority_vote,
    make_record,
    normalize_answer,
    read_records_jsonl,
    relaxed_match,
    render_report_text,
    write_records_jsonl,
)
from chartloop.tables import QAInstance, TemplateType, Value, ValueKind


def test_normalize_numeric_canonicalization():
    assert normalize_answer("15.00") == Value(ValueKind.NUMERIC, "15", Decimal("15"))
    assert normalize_answer("2,784").number == Decimal("2784")
    assert normalize_answer("45%").number == Decimal("45")
    assert normalize_answer("$1,200.50").number == Decimal("1200.50")
    assert normalize_answer(" '210.69' ").number == Decimal("210.69")


def test_normalize_yes_no_and_text():
    assert normalize_answer("No.") == Value(ValueKind.YES_NO, "no")
    assert normalize_answer("YES") == Value(ValueKind.YES_NO, "yes")
    assert normalize_answer("Independents").raw == "independents"
    assert normalize_answer("Gambia, The").kind is ValueKind.TEXT


def test_relaxed_match_examples():
    assert relaxed_match(Value.from_raw("210"), Value.from_raw("210.69"))
    assert not relaxed_match(Value.from_raw("200"), Value.from_raw("210.69"))
    assert relaxed_match(Value.from_raw("independents"), Value.from_raw("Independents"))


def test_relaxed_match_rendering_invariance():
    gold = Value.from_raw("15")
    for rendering in ["15", "15.00", " 15.0 ", "15%"]:
        assert relaxed_match(Value.from_raw(rendering), gold)


def test_relaxed_match_exact_boundary():
    gold = Value.from_raw("1000")
    at_boundary = Value.from_raw("1050")          # exactly 5%
    past_boundary = Value.from_raw("1050.000001")  # 5% + 1e-9 of gold
    assert relaxed_match(at_boundary, gold)
    assert not relaxed_match(past_boundary, gold)


def test_relaxed_match_gold_zero_is_exact():
    zero = Value.from_raw("0")
    assert relaxed_match(Value.from_raw("0.00"), zero)
    assert not relaxed_match(Value.from_raw("0.001"), zero)


def test_relaxed_match_kind_mismatch_is_false():
    assert not relaxed_match(Value.from_raw("blue"), Value.from_raw("15"))
    assert not relaxed_match(Value.from_raw("15"), Value.from_raw("blue"))
    assert not relaxed_match(Value.from_raw("yes"), Value.from_raw("15"))


def test_relaxed_match_reflexive_on_random_values():
    rng = random.Random(12)
    for _ in range(100):
        raw = str(Decimal(rng.randrange(1, 10**6)) / (10 ** rng.randrange(0, 3)))
        value = Value.from_raw(raw)
        assert relaxed_match(value, value)


def test_majority_vote_examples():
    assert majority_vote([Value.from_raw(r) for r in ["15", "15.00", "14"]]).raw == "15"
    assert majority_vote([Value.from_raw("yes"), Value.from_raw("no")]).raw == "no"
    assert majority_vote([Value.from_raw("b"), Value.from_raw("a")]).raw == "a"
    assert majority_vote([Value.from_raw(r) for r in ["7.0", "7"]]).raw == "7"
    assert majority_vote([Value.from_raw(r) for r in ["Leisure", "leisure", "x"]]).raw == "Leisure"
    assert majority_vote([]) is None


def test_majority_vote_permutation_invariant():
    rng = random.Random(3)
    pool = [Value.from_raw(str(v)) for v in [1, 1, 2, 2, 2, 3, 3, 3, 3, 5]]
    baseline = majority_vote(pool)
    for _ in range(50):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        assert majority_vote(shuffled) == baseline


def test_majority_vote_idempotent_under_duplication():
    pool = [Value.from_raw(r) for r in ["7", "7.0", "8", "8", "9"]]
    assert majority_vote(pool) == majority_vote(pool + pool)


def _record(correct: bool, template=TemplateType.ARITHMETIC, length=10, gold="1",
            prediction="1"):
    qa = QAInstance("q", Value.from_raw(gold), "c", template)
    pred = Value.from_raw(prediction if correct else "999999")
    return make_record(qa, pred, length, "t")


def test_make_record_flags():
    qa = QAInstance("q", Value.from_raw("10"), "c", None)
    assert make_record(qa, Value.from_raw("10.2"), 4, "t").correct
    assert not make_record(qa, None, 4, "t").correct


def test_evaluate_run_overall_accuracy():
    records = [_record(True)] * 9 + [_record(False)]
    report = evaluate_run(records, [0, 10, 20, 40])
    assert report.n == 10
    assert report.overall_accuracy == pytest.approx(0.9)


def test_evaluate_run_single_template_errors():
    records = [_record(True, TemplateType.MIN_MAX), _record(False, TemplateType.MIN_MAX)]
    report = evaluate_run(records)
    stats = report.by_template[TemplateType.MIN_MAX]
    assert stats.count == 2
    assert stats.errors == 1


def test_bucket_ratios_sum_to_one():
    rng = random.Random(8)
    records = [
        _record(rng.random() < 0.7, length=rng.randrange(1, 120)) for _ in range(200)
    ]
    report = evaluate_run(records, [0, 10, 20, 40])
    assert sum(b.ratio for b in report.by_length_bucket) == pytest.approx(1.0, abs=1e-9)
    assert len(report.by_length_bucket) == 4


def test_report_matches_recount():
    rng = random.Random(21)
    records = [
        _record(rng.random() < 0.5,
                template=rng.choice(list(TemplateType)),
                length=rng.randrange(1, 80))
        for _ in range(300)
    ]
    report = evaluate_run(records, [0, 20, 40])
    assert report.overall_accuracy == pytest.approx(
        sum(r.correct for r in records) / len(records)
    )
    for template, stats in report.by_template.items():
        subset = [r for r in records if r.qa.template_type == template]
        assert stats.count == len(subset)
        assert stats.errors == sum(not r.correct for r in subset)


def test_accumulator_merge_is_associative_and_commutative():
    rng = random.Random(14)
    records = [
        _record(rng.random() < 0.6,
                template=rng.choice(list(TemplateType)),
                length=rng.randrange(1, 60))
        for _ in range(120)
    ]
    chunks = [records[0:40], records[40:90], records[90:120]]
    accs = []
    for chunk in chunks:
        acc = ReportAccumulator()
        for record in chunk:
            acc.add(record)
        accs.append(acc)
    left = accs[0].merge(accs[1]).merge(accs[2])
    right = accs[0].merge(accs[1].merge(accs[2]))
    swapped = accs[2].merge(accs[0]).merge(accs[1])
    edges = [0, 10, 30]
    assert left.report(edges) == right.report(edges) == swapped.report(edges)
    sequential = ReportAccumulator()
    for record in records:
        sequential.add(record)
    assert sequential.report(edges) == left.report(edges)


def test_records_jsonl_round_trip(tmp_path):
    records = [_record(True), _record(False, TemplateType.COMPOUND, length=33)]
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    assert read_records_jsonl(path) == records


def test_render_report_text_is_aligned():
    report = evaluate_run([_record(True), _record(False)], [0, 10])
    text = render_report_text(report)
    assert "overall accuracy: 0.5000" in text
    assert "arithmetic" in text
    assert "[0,10)" in text
