import hashlib
import json
import random

import pytest

from chartloop.oracle import TableOracle
from chartloop.protocol import (
    describe_query,
    group_query,
    parse_reader_answer,
    point_query,
)
from chartloop.symbolic import (
    _TEMPLATES,
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


def test_compute_gold_ratio_zero_denominator():
    table = ChartTable.build("z", [("A", None)], ["x", "y"], [["3", "0"]])
    plan = _plan(Reduce.RATIO, [point_query("x"), point_query("y")])
    with pytest.raises(UndefinedResult):
        compute_gold(table, plan)


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
    oracle = TableOracle([table])
    from chartloop.oracle import execute_query

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


def test_deduce_unavailable_answer_concludes_unknown(oman_samoa):
    plan = decompose("What is the value of Oman in 1999?")
    answers = [parse_reader_answer("The figure shows the data of: A. The x-axis shows: x."),
               parse_reader_answer("The data is not available.")]
    text, value = deduce(plan, answers)
    assert text == "So the answer is unknown."
    assert value is None


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


def test_argmin_tie_breaks_to_lowest_index():
    table = ChartTable.build(
        "ties", [("A", None)], ["x1", "x2", "x3"], [["5", "1", "1"]]
    )
    plan = _plan(Reduce.ARGMIN, [group_query("A")], template=TemplateType.MIN_MAX)
    assert compute_gold(table, plan).answer.raw == "x2"
    plan = _plan(Reduce.ARGMAX, [group_query("A")], template=TemplateType.MIN_MAX)
    table2 = ChartTable.build("ties2", [("A", None)], ["x1", "x2", "x3"], [["7", "7", "1"]])
    assert compute_gold(table2, plan).answer.raw == "x1"
    text, value = deduce(plan, _answers_for(table2, plan))
    assert value.raw == "x1"


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


def test_stable_seed_is_process_independent():
    assert stable_seed("a", 1) == stable_seed("a", 1)
    assert stable_seed("a", 1) != stable_seed("a", 2)
    # Pinned so accidental hash()-based seeding would be caught.
    assert stable_seed("probe", 7) == 396262274194932060
