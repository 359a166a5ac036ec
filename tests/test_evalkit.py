import csv
import json
import random
from decimal import Decimal, Overflow

import pytest

from chartloop.evalkit import (
    RECORD_FIELDS,
    TOLERANCE,
    EvalRecord,
    ValueKind,
    _read_answer,
    evaluate_run,
    majority_vote,
    make_record,
    normalize_answer,
    read_records_jsonl,
    relaxed_match,
    render_report_text,
    vote_key,
    write_records_csv,
    write_records_jsonl,
)
from chartloop.tables import QAInstance, TemplateType, Value


def test_normalize_numeric_canonicalization():
    assert normalize_answer("15.00") == Value("15", Decimal("15"))
    assert normalize_answer("2,784").number == Decimal("2784")
    assert normalize_answer("45%").number == Decimal("45")
    assert normalize_answer("$1,200.50").number == Decimal("1200.50")
    assert normalize_answer(" '210.69' ").number == Decimal("210.69")


def test_normalize_yes_no_and_text():
    assert normalize_answer("No.") == Value("no")
    assert normalize_answer("YES") == Value("yes")
    assert normalize_answer("Independents").raw == "independents"
    assert normalize_answer("Gambia, The") == Value("gambia, the")


def test_relaxed_match_examples():
    assert relaxed_match(Value.from_raw("210"), Value.from_raw("210.69"))
    assert not relaxed_match(Value.from_raw("200"), Value.from_raw("210.69"))
    assert relaxed_match(Value.from_raw("independents"), Value.from_raw("Independents"))
    # Numbers read by the cell rule: exponents count, decoration is dropped.
    assert relaxed_match(Value.from_raw("1000"), Value.from_raw("1e3"))
    assert relaxed_match(Value.from_raw("1.02e3"), Value.from_raw("$1,000"))
    assert relaxed_match(Value.from_raw("75"), Value.from_raw("75%"))
    assert not relaxed_match(Value.from_raw("0.5"), Value.from_raw("50%"))
    assert not relaxed_match(Value.from_raw("50%"), Value.from_raw("0.5"))


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


def test_a_number_past_the_exponent_range_scores_as_text():
    """Read as a number, it would overflow when its canonical form is rendered."""
    for raw in ["1e1000000", "-1e-1000000", "9" * 31 + "e999969", "1e1000000000000000000",
                "1e" + "9" * 20]:
        assert normalize_answer(raw) == Value(raw.casefold())
        assert relaxed_match(Value.from_raw(raw), Value.from_raw(raw))
        assert not relaxed_match(Value.from_raw(raw), Value.from_raw("1"))
        assert majority_vote([Value.from_raw(raw)]).raw == raw
    assert normalize_answer("1e999998").number == Decimal("1e999998")


def test_a_far_exponent_keeps_its_vote_key_short():
    assert vote_key(Value.from_raw("1e999998")) == "1E+999998"
    assert vote_key(Value.from_raw("-2.50e-999999")) == "-2.5E-999999"
    assert max(len(vote_key(Value.from_raw(raw))) for raw in ["1e999998", "1e-999999"]) < 16
    assert vote_key(Value.from_raw("1e40")) == vote_key(Value.from_raw("10000e36"))
    assert vote_key(Value.from_raw("1e27")) == "1" + "0" * 27
    assert vote_key(Value.from_raw("1.5e-28")) == "0." + "0" * 27 + "15"


def test_long_numbers_keep_every_digit_in_their_vote_key():
    a, b = "1234567890123456789012345678901", "1234567890123456789012345678949"
    assert vote_key(Value.from_raw(a)) == a
    assert vote_key(Value.from_raw(b)) == b
    assert majority_vote([Value.from_raw(raw) for raw in (a, b, b)]).raw == b
    assert vote_key(Value.from_raw(a + ".000")) == vote_key(Value.from_raw(a + "e0")) == a
    assert vote_key(Value.from_raw("1234567890123456789012345678901e40")) == (
        "1.234567890123456789012345678901E+70")
    assert vote_key(Value.from_raw("0.12345678901234567890123456789010")) == (
        "0.1234567890123456789012345678901")


def _printed_token(rng):
    """A printed number with random sign, grouping, fraction, exponent and
    decoration, sometimes with one character overwritten.  It never ends in
    ".", which ``normalize_answer`` strips as sentence punctuation."""
    n = rng.randrange(10 ** rng.randrange(1, 9))
    token = (rng.choice(["", "$", "$ "]) + rng.choice(["", "-", "+"])
             + (f"{n:,}" if rng.random() < 0.5 else str(n))
             + rng.choice(["", ".", ".5", ".250"]) + rng.choice(["", "e3", "E-2", "e1000000"])
             + rng.choice(["", "%", " %"]))
    if rng.random() < 0.3:
        i = rng.randrange(len(token))
        token = token[:i] + rng.choice("$%,.e -+x") + token[i + 1:]
    return token.rstrip(".")


def test_cells_and_scored_answers_read_one_number_rule():
    rng = random.Random(16)
    tokens = [_printed_token(rng) for _ in range(2000)]
    tokens += ["yes", "No", "Norway", "Gambia, The", "n/a", "45%", "$1,200.50", "1e3"]
    read = [Value.from_raw(token).number for token in tokens]
    assert read == [normalize_answer(token).number for token in tokens]
    decorated = [t for t, n in zip(tokens, read) if n is not None and set(t) & set("$%,")]
    assert len(decorated) > 500


def _reference_match(prediction: str, gold: str) -> bool:
    """Relaxed accuracy written over ``normalize_answer`` on both sides, as the
    scorer once was, except that a ratio past the default context's exponent
    range, which that scorer raised ``Overflow`` on, is a miss."""
    p, g = normalize_answer(prediction), normalize_answer(gold)
    if g.number is not None:
        if p.number is None:
            return False
        if g.number == 0:
            return p.number == 0
        try:
            return abs(p.number - g.number) / abs(g.number) <= TOLERANCE
        except Overflow:
            return False
    return p.number is None and p.raw == g.raw


_WORDS = ["yes", "No", "YES", "nO", "Norway", "norway", "Gambia, The", "n/a", "Straße", "STRASSE",
          "école", "ÉCOLE", "1st", "$", "%", "-", "e5", "yes sir", ""]


def _answer_token(rng):
    """An answer as a reader or a model might print it: a decorated number, a
    far or out-of-range exponent, a zero, yes/no or text, sometimes quoted,
    padded or followed by sentence punctuation."""
    kind = rng.randrange(5)
    if kind == 0:
        token = _printed_token(rng)
    elif kind == 1:
        token = (f"{rng.choice(['', '-'])}{rng.randrange(1, 10 ** 6)}e"
                 f"{rng.choice([1, -1]) * rng.choice([0, 3, 28, 999990, 999998, 999999, 10 ** 6])}")
    elif kind == 2:
        token = rng.choice(["0", "0.00", "-0", "0e5", "$0", "0%", "+0.0"])
    else:
        token = rng.choice(_WORDS)
    if rng.random() < 0.2:
        quote = rng.choice("'\"")
        token = quote + rng.choice(["", " "]) + token + quote
    return rng.choice(["", " "]) + token + rng.choice(["", ".", "!", "?", " "])


def _near(rng, gold: str) -> str:
    """A number at, just inside or just outside 5% of ``gold``'s number,
    reprinted; any other gold re-cased, with sentence punctuation."""
    number = normalize_answer(gold).number
    if number is None:
        cased = rng.choice([gold, gold.upper(), gold.lower(), gold.swapcase()])
        return cased + rng.choice(["", "?", "!", ".", " ?"])
    factor = Decimal(rng.choice(["1", "1.05", "0.95", "1.0500001", "0.9499999", "1.0499", "-1"]))
    shown = number * factor
    return rng.choice([str(shown), f"{shown:f}", f"{shown}%", f"${shown}", f"'{shown}'"])


def test_relaxed_match_agrees_with_the_normalized_rule_on_seeded_pairs():
    rng = random.Random(23)
    pairs = []
    for _ in range(3000):
        gold = _answer_token(rng)
        prediction = _near(rng, gold) if rng.random() < 0.4 else _answer_token(rng)
        pairs.append((prediction, gold))
    verdicts = [relaxed_match(Value.from_raw(p), Value.from_raw(g)) for p, g in pairs]
    assert verdicts == [_reference_match(p, g) for p, g in pairs]
    kinds = {_read_answer(g)[0] for _, g in pairs}
    assert kinds == set(ValueKind)
    assert 300 < sum(verdicts) < len(pairs) - 300


def test_a_far_apart_pair_is_a_miss_not_an_overflow():
    """|pred - gold| / |gold| can pass the default exponent limit."""
    gold = Value.from_raw("1e-999990")
    assert not relaxed_match(Value.from_raw("9e999998"), gold)
    assert not make_record(QAInstance("q", gold, "c"), Value.from_raw("-9e999998"), 1, "t").correct
    assert relaxed_match(Value.from_raw("1.05e-999999"), Value.from_raw("1e-999999"))


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
    assert report["n"] == 10
    assert report["overall_accuracy"] == pytest.approx(0.9)


def test_evaluate_run_single_template_errors():
    records = [_record(True, TemplateType.MIN_MAX), _record(False, TemplateType.MIN_MAX)]
    report = evaluate_run(records)
    stats = report["by_template"][TemplateType.MIN_MAX.value]
    assert stats["count"] == 2
    assert stats["errors"] == 1


def test_bucket_ratios_sum_to_one():
    rng = random.Random(8)
    records = [
        _record(rng.random() < 0.7, length=rng.randrange(1, 120)) for _ in range(200)
    ]
    report = evaluate_run(records, [0, 10, 20, 40])
    assert sum(b["ratio"] for b in report["by_length_bucket"]) == pytest.approx(1.0, abs=1e-9)
    assert len(report["by_length_bucket"]) == 4


def test_report_matches_recount():
    rng = random.Random(21)
    records = [
        _record(rng.random() < 0.5,
                template=rng.choice(list(TemplateType)),
                length=rng.randrange(1, 80))
        for _ in range(300)
    ]
    report = evaluate_run(records, [0, 20, 40])
    assert report["overall_accuracy"] == pytest.approx(
        sum(r.correct for r in records) / len(records)
    )
    for template, stats in report["by_template"].items():
        subset = [r for r in records if r.qa.template_type.value == template]
        assert stats["count"] == len(subset)
        assert stats["errors"] == sum(not r.correct for r in subset)


def test_evaluate_run_is_one_pass_over_any_iterable():
    rng = random.Random(5)
    records = [_record(rng.random() < 0.6, template=rng.choice([None, *TemplateType]),
                       length=rng.randrange(0, 60)) for _ in range(200)]
    assert evaluate_run(iter(records), [0, 20]) == evaluate_run(records, [0, 20])
    assert evaluate_run(iter(())) is None


def test_records_csv_columns_are_the_jsonl_keys(tmp_path):
    """One row per record, holding its ``records.jsonl`` line's values in
    the key order; null is an empty cell."""
    records = [_record(True), _record(False, TemplateType.COMPOUND, length=33),
               make_record(QAInstance('Is "A, B"\nabove C?', Value.from_raw("Yes"), "c,1"),
                           None, 0, "episode-2")]
    write_records_jsonl(records, tmp_path / "records.jsonl")
    write_records_csv(records, tmp_path / "records.csv")
    assert_csv_rows_hold_the_jsonl_lines(tmp_path / "records.jsonl", tmp_path / "records.csv")


def assert_csv_rows_hold_the_jsonl_lines(jsonl_path, csv_path):
    with open(jsonl_path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    with open(csv_path, encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == list(RECORD_FIELDS) == list(lines[0])
    assert rows == [["" if value is None else str(value) for value in line.values()]
                    for line in lines]
    assert all(list(line) == header for line in lines)


def test_records_jsonl_round_trip(tmp_path):
    records = [_record(True), _record(False, TemplateType.COMPOUND, length=33)]
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    assert list(read_records_jsonl(path)) == records


def test_render_report_text_is_aligned():
    report = evaluate_run([_record(True), _record(False)], [0, 10])
    text = render_report_text(report)
    assert "overall accuracy: 0.5000" in text
    assert "arithmetic" in text
    assert "[0,10)" in text
