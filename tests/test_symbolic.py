import hashlib
import json
import random

import pytest

from chartloop.oracle import execute_query
from chartloop.protocol import (
    describe_query,
    group_query,
    parse_reader_answer,
    point_query,
)
from chartloop.symbolic import (
    _TEMPLATES,
    _align_entity,
    NotTemplated,
    QuestionPlan,
    Reduce,
    SkippedTemplate,
    UndefinedResult,
    compute_gold,
    decompose,
    deduce,
    gen_questions,
    stable_seed,
)
from chartloop.synth import random_table, random_tables
from chartloop.tables import ChartTable, TemplateType, Value


def _plan(reduce, queries, args=(), template=TemplateType.ARITHMETIC):
    return QuestionPlan(template, tuple(queries), reduce, tuple(args))


def test_decompose_difference_with_distractor_year():
    plan = decompose(
        "By how many points does NET Excellent/good surpass NET Only fair/poor "
        "in German in the year of 2018?"
    )
    assert plan.queries == (
        describe_query(),
        point_query("NET Excellent/good", "German"),
        point_query("NET Only fair/poor", "German"),
    )
    assert plan.reduce is Reduce.DIFFERENCE
    assert plan.template_type is TemplateType.ARITHMETIC


def test_decompose_lookup_by_value():
    plan = decompose("In which year the private health expenditure per person in Oman is 210.69?")
    assert plan.queries == (describe_query(), group_query("Oman"))
    assert plan.reduce is Reduce.ARG_MATCH
    assert plan.reduce_args == (Value.from_raw("210.69"),)


def test_decompose_min_with_measure_phrase():
    plan = decompose("Across all years, what is the minimum pupil-teacher ratio in Costa Rica?")
    assert plan.queries == (describe_query(), group_query("Costa Rica"))
    assert plan.reduce is Reduce.MIN


def test_decompose_count_threshold_single_series():
    plan = decompose("In how many years, is the value of the bar greater than 851?")
    assert plan.queries == (describe_query(), group_query(None))
    assert plan.reduce is Reduce.COUNT_GREATER
    assert plan.reduce_args == (Value.from_raw("851"),)


def test_decompose_no_describe_mode():
    plan = decompose("What is the value of Oman in 2010?", describe_first=False)
    assert plan.queries == (point_query("Oman", "2010"),)


def test_decompose_structural_requires_description():
    plan = decompose("How many legend labels are there?")
    assert plan.queries == (describe_query(),)
    assert plan.reduce is Reduce.COUNT_SERIES
    with pytest.raises(NotTemplated):
        decompose("How many legend labels are there?", describe_first=False)


def test_decompose_free_form_not_templated():
    with pytest.raises(NotTemplated):
        decompose("What do you think of this chart?")


# The reduce table: every answer and concluding sentence below was worked out
# by hand from the literal cells, never produced by chartloop code.  Each row
# is (table, plan, reader answers, answer raw, sentence).  A row with no
# table feeds deduce answers that no table yields; a row with no answer raw
# expects deduce's unknown conclusion and, given a table, UndefinedResult from
# compute_gold.

def _chart(x_labels, **series):
    return ChartTable.build("hand", list(series), x_labels.split(), list(series.values()))


def _row(name, table, reduce, queries, answers, raw, sentence, args=()):
    plan = QuestionPlan(TemplateType.ARITHMETIC, tuple(queries), reduce,
                        tuple(Value.from_raw(a) for a in args))
    return pytest.param(table, plan, answers, raw, sentence, id=name)


_P, _G, _D = point_query, group_query, describe_query
_UNKNOWN = "So the answer is unknown."
_PAIR = _chart("x1 x2 x3", A=["1", "2", "3"], B=["4", "5", "6"])

_HAND_TABLE = [
    _row("identity", _chart("x1 x2", A=["4.5", "7"]), Reduce.IDENTITY,
         [_P("x2")], ["The data is 7."],
         "7", "The value is 7. So the answer is 7."),
    _row("identity-text", _chart("2001 2002", Winner=["Alice", "Bob"]), Reduce.IDENTITY,
         [_P("Winner", "2002")], ["The data is Bob."],
         "Bob", "The value is Bob. So the answer is Bob."),
    _row("sum-keeps-trailing-zeros", _chart("2020", A=["1.50"], B=["2.50"]), Reduce.SUM,
         [_P("A", "2020"), _P("B", "2020")], ["The data is 1.50.", "The data is 2.50."],
         "4.00", "The sum is 1.50+2.50=4.00. So the answer is 4.00."),
    _row("difference", _chart("x1 x2", A=["10.5", "3.25"]), Reduce.DIFFERENCE,
         [_P("x1"), _P("x2")], ["The data is 10.5.", "The data is 3.25."],
         "7.25", "10.5 surpasses 3.25 by 10.5-3.25=7.25. So the answer is 7.25."),
    _row("difference-negative", _chart("x1 x2", A=["3", "5"]), Reduce.DIFFERENCE,
         [_P("x1"), _P("x2")], ["The data is 3.", "The data is 5."],
         "-2", "3 surpasses 5 by 3-5=-2. So the answer is -2."),
    _row("ratio-pads-to-four-places", _chart("x1 x2", A=["7", "4"]), Reduce.RATIO,
         [_P("x1"), _P("x2")], ["The data is 7.", "The data is 4."],
         "1.7500", "The ratio is 7/4=1.7500. So the answer is 1.7500."),
    # 1/32 = 0.03125: half-up gives 0.0313 where banker's rounding gives 0.0312.
    _row("ratio-rounds-half-up", _chart("x1 x2", A=["1", "32"]), Reduce.RATIO,
         [_P("x1"), _P("x2")], ["The data is 1.", "The data is 32."],
         "0.0313", "The ratio is 1/32=0.0313. So the answer is 0.0313."),
    _row("ratio-zero-denominator", _chart("x y", A=["3", "0"]), Reduce.RATIO,
         [_P("x"), _P("y")], ["The data is 3.", "The data is 0."],
         None, _UNKNOWN),
    # 0.25/2 = 0.125: half-up gives 0.13 where banker's rounding gives 0.12.
    _row("average-points-round-half-up", _chart("x", A=["0.12"], B=["0.13"]), Reduce.AVERAGE,
         [_P("A"), _P("B")], ["The data is 0.12.", "The data is 0.13."],
         "0.13", "The average is (0.12+0.13)/2=0.13. So the answer is 0.13."),
    # 4.02/4 = 1.005: half-up gives 1.01 where banker's rounding gives 1.00.
    _row("average-group-rounds-half-up", _chart("x1 x2 x3 x4", A=["1", "1", "1", "1.02"]),
         Reduce.AVERAGE, [_G("A")], ["The data is 1 in x1, 1 in x2, 1 in x3, 1.02 in x4."],
         "1.01", "The average is (1+1+1+1.02)/4=1.01. So the answer is 1.01."),
    _row("min-keeps-printed-form", _chart("x1 x2 x3", A=["3", "1.50", "2"]), Reduce.MIN,
         [_G("A")], ["The data is 3 in x1, 1.50 in x2, 2 in x3."],
         "1.50", "The minimum value is 1.50 in x2. So the answer is 1.50."),
    _row("max-tie-takes-first", _chart("x1 x2 x3", A=["7", "9", "9.0"]), Reduce.MAX,
         [_G("A")], ["The data is 7 in x1, 9 in x2, 9.0 in x3."],
         "9", "The maximum value is 9 in x2. So the answer is 9."),
    _row("argmin-tie-takes-first", _chart("x1 x2 x3", A=["5", "1.0", "1"]), Reduce.ARGMIN,
         [_G("A")], ["The data is 5 in x1, 1.0 in x2, 1 in x3."],
         "x2", "The minimum value is 1.0 in x2. So the answer is x2."),
    _row("argmax-tie-takes-first", _chart("x1 x2 x3", A=["7", "7", "1"]), Reduce.ARGMAX,
         [_G("A")], ["The data is 7 in x1, 7 in x2, 1 in x3."],
         "x1", "The maximum value is 7 in x1. So the answer is x1."),
    _row("count-greater-excludes-equal", _chart("2000 2001 2002", A=["853", "851", "822"]),
         Reduce.COUNT_GREATER, [_G("A")], ["The data is 853 in 2000, 851 in 2001, 822 in 2002."],
         "1", "The values that are greater than 851 are [853]. So the answer is 1.", ["851"]),
    _row("count-greater-none", _chart("x1 x2", A=["1", "2"]), Reduce.COUNT_GREATER,
         [_G("A")], ["The data is 1 in x1, 2 in x2."],
         "0", "The values that are greater than 5 are []. So the answer is 0.", ["5"]),
    _row("count-less", _chart("x1 x2 x3 x4", A=["3", "1", "2", "1"]), Reduce.COUNT_LESS,
         [_G("A")], ["The data is 3 in x1, 1 in x2, 2 in x3, 1 in x4."],
         "2", "The values that are below 2 are [1, 1]. So the answer is 2.", ["2"]),
    _row("second-highest", _chart("x1 x2 x3", A=["2", "8", "5"]), Reduce.SECOND_HIGHEST,
         [_G("A")], ["The data is 2 in x1, 8 in x2, 5 in x3."],
         "x3", "The second highest value is 5 in x3. So the answer is x3."),
    _row("second-highest-tie", _chart("x1 x2 x3", A=["9", "5", "9"]), Reduce.SECOND_HIGHEST,
         [_G("A")], ["The data is 9 in x1, 5 in x2, 9 in x3."],
         "x3", "The second highest value is 9 in x3. So the answer is x3."),
    _row("compare-yes", _chart("x1 x2", A=["5", "3"]), Reduce.COMPARE_YES_NO,
         [_P("x1"), _P("x2")], ["The data is 5.", "The data is 3."],
         "yes", "5 is greater than 3. So the answer is yes."),
    _row("compare-equal-is-no", _chart("x1 x2", A=["4", "4.0"]), Reduce.COMPARE_YES_NO,
         [_P("x1"), _P("x2")], ["The data is 4.", "The data is 4.0."],
         "no", "4 is not greater than 4.0. So the answer is no."),
    _row("arg-match-compares-numbers", _chart("x1 x2 x3", A=["4", "5", "5.0"]),
         Reduce.ARG_MATCH, [_G("A")], ["The data is 4 in x1, 5 in x2, 5.0 in x3."],
         "x2", "The value 5.0 is in x2. So the answer is x2.", ["5.0"]),
    _row("arg-match-no-equal-cell", _chart("x1 x2", A=["4", "6"]), Reduce.ARG_MATCH,
         [_G("A")], ["The data is 4 in x1, 6 in x2."], None, _UNKNOWN, ["5"]),
    _row("two-smallest-in-list-order", _chart("x1 x2 x3", A=["16", "81", "3"]),
         Reduce.SUM_TWO_SMALLEST_VS_LARGEST, [_G("A")],
         ["The data is 16 in x1, 81 in x2, 3 in x3."],
         "no", "Among [16, 81, 3], the two smallest values are 16 and 3 while the largest "
         "value is 81. 16+3=19, which is smaller than 81. So the answer is no."),
    _row("two-smallest-greater", _chart("x1 x2 x3", A=["40", "50", "60"]),
         Reduce.SUM_TWO_SMALLEST_VS_LARGEST, [_G("A")],
         ["The data is 40 in x1, 50 in x2, 60 in x3."],
         "yes", "Among [40, 50, 60], the two smallest values are 40 and 50 while the largest "
         "value is 60. 40+50=90, which is greater than 60. So the answer is yes."),
    _row("two-smallest-equal-sum", _chart("x1 x2 x3", A=["20", "50", "30"]),
         Reduce.SUM_TWO_SMALLEST_VS_LARGEST, [_G("A")],
         ["The data is 20 in x1, 50 in x2, 30 in x3."],
         "no", "Among [20, 50, 30], the two smallest values are 20 and 30 while the largest "
         "value is 50. 20+30=50, which is equal to 50. So the answer is no."),
    _row("count-series", _PAIR, Reduce.COUNT_SERIES,
         [_D()], ["The figure shows the data of: A | B. The x-axis shows: x1 | x2 | x3."],
         "2", "There are 2 legend labels. So the answer is 2."),
    _row("count-x-labels", _PAIR, Reduce.COUNT_X_LABELS,
         [_D()], ["The figure shows the data of: A | B. The x-axis shows: x1 | x2 | x3."],
         "3", "There are 3 x-axis labels. So the answer is 3."),
    _row("non-numeric-cell-in-group", _chart("x1 x2", A=["5", "n/a"]), Reduce.MAX,
         [_G("A")], ["The data is 5 in x1, n/a in x2."], None, _UNKNOWN),
    _row("unavailable-answer", _chart("2010", Oman=["210.69"]), Reduce.IDENTITY,
         [_P("Oman", "1999")], ["The data is not available."], None, _UNKNOWN),
    _row("structural-without-description", None, Reduce.COUNT_SERIES,
         [_D()], ["The data is 3."], None, _UNKNOWN),
    _row("wrong-answer-count", None, Reduce.IDENTITY,
         [_P("x1")], ["The data is 1.", "The data is 2."], None, _UNKNOWN),
    _row("too-few-values", None, Reduce.DIFFERENCE,
         [_P("x1")], ["The data is 3."], None, _UNKNOWN),
]


@pytest.mark.parametrize("table, plan, answers, raw, sentence", _HAND_TABLE)
def test_reduce_hand_table(table, plan, answers, raw, sentence):
    expected = None if raw is None else Value.from_raw(raw)
    assert deduce(plan, [parse_reader_answer(a) for a in answers]) == (sentence, expected)
    if table is None:
        return
    assert [execute_query(table, q) for q in plan.queries] == answers
    if expected is None:
        with pytest.raises(UndefinedResult):
            compute_gold(table, plan)
    else:
        assert compute_gold(table, plan).answer == expected


def test_hand_table_answers_every_reduce():
    answered = {plan.reduce for table, plan, _, raw, _ in (row.values for row in _HAND_TABLE)
                if table is not None and raw is not None}
    assert answered == set(Reduce)


def test_compute_gold_difference(net_ratings):
    plan = _plan(
        Reduce.DIFFERENCE,
        [point_query("NET Excellent/ good", "German"), point_query("NET Only fair/ poor", "German")],
    )
    gold = compute_gold(net_ratings, plan)
    assert gold.answer.raw == "15.00"


def test_compute_gold_average(university_shares):
    plan = _plan(
        Reduce.AVERAGE,
        [
            point_query("Share of people who think university is overrated", "Philippines"),
            point_query("Share of people who think university is overrated", "Ghana"),
        ],
    )
    assert compute_gold(university_shares, plan).answer.raw == "33.25"


def test_compute_gold_count_threshold(neonatal):
    plan = _plan(
        Reduce.COUNT_GREATER,
        [group_query(None)],
        args=[Value.from_raw("851")],
        template=TemplateType.COMPOUND,
    )
    assert compute_gold(neonatal, plan).answer.raw == "1"


def test_compute_gold_min(costa_rica):
    plan = _plan(Reduce.MIN, [group_query("Costa Rica")], template=TemplateType.MIN_MAX)
    assert compute_gold(costa_rica, plan).answer.raw == "14.92"


def test_compute_gold_structural(costa_rica):
    plan = _plan(Reduce.COUNT_SERIES, [describe_query()], template=TemplateType.STRUCTURAL)
    assert compute_gold(costa_rica, plan).answer.raw == "4"


def _answers_for(table, plan):
    return [parse_reader_answer(execute_query(table, q)) for q in plan.queries]


def test_deduce_min_matches_annotated_conclusion(costa_rica):
    plan = decompose("Across all years, what is the minimum pupil-teacher ratio in Costa Rica?")
    text, value = deduce(plan, _answers_for(costa_rica, plan))
    assert text == "The minimum value is 14.92 in 2011. So the answer is 14.92."
    assert value == Value.from_raw("14.92")


def test_deduce_count_matches_annotated_conclusion(neonatal):
    plan = decompose("In how many years, is the value of the bar greater than 851?")
    text, value = deduce(plan, _answers_for(neonatal, plan))
    assert text == "The values that are greater than 851 are [853]. So the answer is 1."
    assert value.raw == "1"


def test_deduce_sum_two_smallest(segments):
    plan = decompose("Is the sum of two smallest segments greater than the largest segment?")
    text, value = deduce(plan, _answers_for(segments, plan))
    assert "16.00+3.00=19.00, which is smaller than 81.00. So the answer is no." in text
    assert value.raw == "no"


def test_deduce_arg_match(oman_samoa):
    plan = decompose("In which year the private health expenditure per person in Oman is 210.69?")
    text, value = deduce(plan, _answers_for(oman_samoa, plan))
    assert value.raw == "2010"
    assert "The value 210.69 is in 2010." in text


def test_gen_deterministic_under_seed(costa_rica):
    first = gen_questions(costa_rica, TemplateType.MIN_MAX, seed=5, n=4)
    second = gen_questions(costa_rica, TemplateType.MIN_MAX, seed=5, n=4)
    assert [(qa.question, qa.gold.raw) for qa, _ in first] == [
        (qa.question, qa.gold.raw) for qa, _ in second
    ]
    different = gen_questions(costa_rica, TemplateType.MIN_MAX, seed=6, n=4)
    assert [(qa.question, qa.gold.raw) for qa, _ in first] != [
        (qa.question, qa.gold.raw) for qa, _ in different
    ]


# Wordings that occur only in human-authored questions; the decompose tests
# above pin their plans.
_HUMAN_ONLY_QUESTIONS = (
    "By how many points does NET Excellent/good surpass NET Only fair/poor "
    "in German in the year of 2018?",
    "In which year the private health expenditure per person in Oman is 210.69?",
    "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?",
)


def _template_key(question):
    return next(key for key, template in _TEMPLATES.items()
                if template.pattern.fullmatch(question))


def test_gen_questions_decompose_back_to_plan():
    generated_keys = set()
    for index in range(40):
        table = random_table(77, index)
        for template in TemplateType:
            for describe_first in (True, False):
                for qa, plan in gen_questions(table, template, seed=3, n=2,
                                              describe_first=describe_first):
                    generated_keys.add(_template_key(qa.question))
                    if template is TemplateType.STRUCTURAL and not describe_first:
                        with pytest.raises(NotTemplated):
                            decompose(qa.question, describe_first=False)
                    else:
                        assert decompose(qa.question, describe_first=describe_first) == plan
    human_keys = {_template_key(q) for q in _HUMAN_ONLY_QUESTIONS}
    assert len(human_keys) == len(_HUMAN_ONLY_QUESTIONS)
    assert human_keys.isdisjoint(generated_keys)
    assert generated_keys | human_keys == set(_TEMPLATES)


def _generation_digest(seeds, n_charts):
    digest = hashlib.sha256()
    for seed in seeds:
        for table in random_tables(seed, n_charts):
            for template in TemplateType:
                for describe_first in (True, False):
                    try:
                        pairs = gen_questions(table, template, seed, n=3,
                                              describe_first=describe_first)
                    except SkippedTemplate:
                        digest.update(b"skipped")
                        continue
                    for qa, plan in pairs:
                        digest.update(json.dumps(qa.to_dict(), sort_keys=True).encode())
                        digest.update(repr(plan).encode())
    return digest.hexdigest()


def test_gen_questions_golden_digest():
    # Pins question wording, gold answers, plans and the RNG call order.
    assert _generation_digest(seeds=(0, 1, 2), n_charts=40) == (
        "7246c0187ba5b9a6866dd1cdf936cf7147e85876310523cbef00df0c808618ad")


def test_gen_skips_too_small_tables():
    tiny = ChartTable.build("tiny", [("Only", None)], ["x"], [["5"]])
    with pytest.raises(SkippedTemplate):
        gen_questions(tiny, TemplateType.ARITHMETIC, seed=1)


def test_gen_skips_non_numeric():
    table = ChartTable.build(
        "texty", [("Winners", None)], ["2001", "2002"], [["Alice", "Bob"]]
    )
    with pytest.raises(SkippedTemplate):
        gen_questions(table, TemplateType.MIN_MAX, seed=1)


def test_second_highest_matches_exhaustive_sort():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(2, 8)
        values = rng.sample(range(1000), n)
        table = ChartTable.build(
            "sh", [("S", None)], [f"k{i}" for i in range(n)], [[str(v) for v in values]]
        )
        plan = _plan(Reduce.SECOND_HIGHEST, [group_query("S")], template=TemplateType.MIN_MAX)
        expected_index = sorted(range(n), key=lambda i: -values[i])[1]
        assert compute_gold(table, plan).answer.raw == f"k{expected_index}"
        text, value = deduce(plan, _answers_for(table, plan))
        assert value.raw == f"k{expected_index}"


def test_gold_never_consults_protocol(monkeypatch, costa_rica):
    import chartloop.protocol as protocol

    def boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("compute_gold touched the step protocol")

    monkeypatch.setattr(protocol, "parse_reader_answer", boom)
    monkeypatch.setattr(protocol, "format_reader_answer", boom)
    plan = _plan(Reduce.MIN, [group_query("Costa Rica")], template=TemplateType.MIN_MAX)
    assert compute_gold(costa_rica, plan).answer.raw == "14.92"


def test_align_entity_keeps_a_name_nothing_matches():
    pool = ["NET Excellent/ good", "German"]
    assert _align_entity("NET Excellent/good", pool) == "NET Excellent/ good"
    assert _align_entity("Atlantis", pool) == "Atlantis"
    assert _align_entity(None, pool) is None


def test_stable_seed_is_process_independent():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    # Pinned so accidental hash()-based seeding would be caught.
    assert stable_seed("probe", 7) == 396262274194932060
