import hashlib
import json
import random
import re
from collections import Counter
from decimal import Decimal
from itertools import product
from pathlib import Path

import pytest

from chartloop.controller import run_episode
from chartloop.evalkit import relaxed_match
from chartloop.oracle import TableOracle, execute_query
from chartloop.protocol import (
    UNAVAILABLE_ANSWER,
    AnswerKind,
    describe_query,
    group_query,
    parse_reader_answer,
    point_query,
)
from chartloop.symbolic import (
    UNKNOWN_CONCLUSION,
    _align_entity,
    NotTemplated,
    QuestionPlan,
    SkippedTemplate,
    SymbolicReasoner,
    UndefinedResult,
    _FILLINGS,
    _TEMPLATES,
    _gold_answer,
    compute_gold,
    decompose,
    deduce,
    gen_questions,
    stable_seed,
)
from chartloop.synth import random_table, random_tables
from chartloop.tables import ChartTable, TemplateType, Value


def _plan(key, queries, **slots):
    return QuestionPlan(tuple(queries), key, tuple(sorted(slots.items())))


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
    assert plan.key == "difference"


def test_decompose_lookup_by_value():
    plan = decompose("In which year the private health expenditure per person in Oman is 210.69?")
    assert plan.queries == (describe_query(), group_query("Oman"))
    assert plan.key == "arg_match"
    assert dict(plan.slots)["target"] == "210.69"


def test_decompose_min_with_measure_phrase():
    plan = decompose("Across all years, what is the minimum pupil-teacher ratio in Costa Rica?")
    assert plan.queries == (describe_query(), group_query("Costa Rica"))
    assert (plan.key, dict(plan.slots)["op"]) == ("extreme", "minimum")


def test_decompose_count_threshold_single_series():
    plan = decompose("In how many years, is the value of the bar greater than 851?")
    assert plan.queries == (describe_query(), group_query(None))
    assert (plan.key, plan.slots) == (
        "count", (("op", "greater than"), ("target", "851"), ("words", "years")))


def test_decompose_structural_requires_description():
    plan = decompose("How many legend labels are there?")
    assert plan.queries == (describe_query(),)
    assert (plan.key, plan.slots) == ("count_series", ())


def test_decompose_free_form_not_templated():
    with pytest.raises(NotTemplated):
        decompose("What do you think of this chart?")


# The fold table: every answer and concluding sentence below was worked out
# by hand from the literal cells, never produced by chartloop code.  Each row
# is (table, plan, reader answers, answer raw or Value, sentence), with the
# plan's row key and slots.  A row with no
# table feeds deduce answers that no table yields; a row with no answer raw
# expects deduce's unknown conclusion and, given a table, UndefinedResult from
# compute_gold.

def _chart(x_labels, **series):
    return ChartTable.build("hand", list(series), x_labels.split(), list(series.values()))


def _row(name, table, key, queries, answers, raw, sentence, **slots):
    return pytest.param(table, _plan(key, queries, **slots), answers, raw, sentence, id=name)


_P, _G, _D = point_query, group_query, describe_query
_UNKNOWN = "So the answer is unknown."
_PAIR = _chart("x1 x2 x3", A=["1", "2", "3"], B=["4", "5", "6"])
_ONE_SERIES = _chart("2018 2019 2020", S=["4", "7", "9"])

_HAND_TABLE = [
    _row("identity", _chart("x1 x2", A=["4.5", "7"]), "value",
         [_P("x2")], ["The data is 7."],
         "7", "The value is 7. So the answer is 7."),
    _row("identity-text", _chart("2001 2002", Winner=["Alice", "Bob"]), "value",
         [_P("Winner", "2002")], ["The data is Bob."],
         "Bob", "The value is Bob. So the answer is Bob."),
    _row("sum-keeps-trailing-zeros", _chart("2020", A=["1.50"], B=["2.50"]), "sum",
         [_P("A", "2020"), _P("B", "2020")], ["The data is 1.50.", "The data is 2.50."],
         "4.00", "The sum is 1.50+2.50=4.00. So the answer is 4.00."),
    _row("difference", _chart("x1 x2", A=["10.5", "3.25"]), "difference",
         [_P("x1"), _P("x2")], ["The data is 10.5.", "The data is 3.25."],
         "7.25", "10.5 surpasses 3.25 by 10.5-3.25=7.25. So the answer is 7.25."),
    _row("difference-negative", _chart("x1 x2", A=["3", "5"]), "difference",
         [_P("x1"), _P("x2")], ["The data is 3.", "The data is 5."],
         "-2", "3 surpasses 5 by 3-5=-2. So the answer is -2."),
    _row("ratio-pads-to-four-places", _chart("x1 x2", A=["7", "4"]), "ratio",
         [_P("x1"), _P("x2")], ["The data is 7.", "The data is 4."],
         "1.7500", "The ratio is 7/4=1.7500. So the answer is 1.7500."),
    # 1/320 = 0.003125: four places would keep two significant digits, so it
    # rounds to three, and half-up gives 0.00313 where banker's gives 0.00312.
    _row("ratio-rounds-half-up", _chart("x1 x2", A=["1", "320"]), "ratio",
         [_P("x1"), _P("x2")], ["The data is 1.", "The data is 320."],
         "0.00313", "The ratio is 1/320=0.00313. So the answer is 0.00313."),
    _row("ratio-zero-denominator", _chart("x y", A=["3", "0"]), "ratio",
         [_P("x"), _P("y")], ["The data is 3.", "The data is 0."],
         None, _UNKNOWN),
    # 0.245/2 = 0.1225: two places would keep two significant digits, so it
    # rounds to three, and half-up gives 0.123 where banker's gives 0.122.
    _row("average-points-round-half-up", _chart("x", A=["0.12"], B=["0.125"]), "average",
         [_P("A", "x"), _P("B", "x")], ["The data is 0.12.", "The data is 0.125."],
         "0.123", "The average is (0.12+0.125)/2=0.123. So the answer is 0.123."),
    # 4.02/4 = 1.005: half-up gives 1.01 where banker's rounding gives 1.00.
    _row("average-group-rounds-half-up", _chart("x1 x2 x3 x4", A=["1", "1", "1", "1.02"]),
         "average_all", [_G("A")], ["The data is 1 in x1, 1 in x2, 1 in x3, 1.02 in x4."],
         "1.01", "The average is (1+1+1+1.02)/4=1.01. So the answer is 1.01."),
    # Rounding to the step needs more digits than Decimal's 28-digit context.
    _row("ratio-past-precision", _chart("x1 x2", A=["1" + "0" * 29, "3"]), "ratio",
         [_P("x1"), _P("x2")], ["The data is 1" + "0" * 29 + ".", "The data is 3."],
         None, _UNKNOWN),
    _row("average-past-precision", _chart("x1 x2", A=["1" + "0" * 29, "3"]), "average_all",
         [_G("A")], ["The data is 1" + "0" * 29 + " in x1, 3 in x2."], None, _UNKNOWN),
    _row("min-keeps-printed-form", _chart("x1 x2 x3", A=["3", "1.50", "2"]), "extreme",
         [_G("A")], ["The data is 3 in x1, 1.50 in x2, 2 in x3."],
         "1.50", "The minimum value is 1.50 in x2. So the answer is 1.50.", op="minimum"),
    _row("max-tie-takes-first", _chart("x1 x2 x3", A=["7", "9", "9.0"]), "extreme",
         [_G("A")], ["The data is 7 in x1, 9 in x2, 9.0 in x3."],
         "9", "The maximum value is 9 in x2. So the answer is 9.", op="maximum"),
    _row("argmin-tie-takes-first", _chart("x1 x2 x3", A=["5", "1.0", "1"]), "arg_extreme",
         [_G("A")], ["The data is 5 in x1, 1.0 in x2, 1 in x3."],
         "x2", "The minimum value is 1.0 in x2. So the answer is x2.", op="lowest"),
    _row("argmax-tie-takes-first", _chart("x1 x2 x3", A=["7", "7", "1"]), "arg_extreme",
         [_G("A")], ["The data is 7 in x1, 7 in x2, 1 in x3."],
         "x1", "The maximum value is 7 in x1. So the answer is x1.", op="highest"),
    _row("count-greater-excludes-equal", _chart("2000 2001 2002", A=["853", "851", "822"]),
         "count", [_G("A")], ["The data is 853 in 2000, 851 in 2001, 822 in 2002."],
         "1", "The values that are greater than 851 are [853]. So the answer is 1.",
         op="greater than", target="851"),
    _row("count-greater-none", _chart("x1 x2", A=["1", "2"]), "count",
         [_G("A")], ["The data is 1 in x1, 2 in x2."],
         "0", "The values that are greater than 5 are []. So the answer is 0.",
         op="greater than", target="5"),
    _row("count-less", _chart("x1 x2 x3 x4", A=["3", "1", "2", "1"]), "count",
         [_G("A")], ["The data is 3 in x1, 1 in x2, 2 in x3, 1 in x4."],
         "2", "The values that are below 2 are [1, 1]. So the answer is 2.",
         op="below", target="2"),
    _row("second-highest", _chart("x1 x2 x3", A=["2", "8", "5"]), "second_highest",
         [_G("A")], ["The data is 2 in x1, 8 in x2, 5 in x3."],
         "x3", "The second highest value is 5 in x3. So the answer is x3."),
    _row("second-highest-tie", _chart("x1 x2 x3", A=["9", "5", "9"]), "second_highest",
         [_G("A")], ["The data is 9 in x1, 5 in x2, 9 in x3."],
         "x3", "The second highest value is 9 in x3. So the answer is x3."),
    _row("compare-yes", _chart("x1 x2", A=["5", "3"]), "greater",
         [_P("x1"), _P("x2")], ["The data is 5.", "The data is 3."],
         "yes", "5 is greater than 3. So the answer is yes."),
    _row("compare-equal-is-no", _chart("x1 x2", A=["4", "4.0"]), "greater",
         [_P("x1"), _P("x2")], ["The data is 4.", "The data is 4.0."],
         "no", "4 is not greater than 4.0. So the answer is no."),
    _row("arg-match-compares-numbers", _chart("x1 x2 x3", A=["4", "5", "5.0"]),
         "arg_match", [_G("A")], ["The data is 4 in x1, 5 in x2, 5.0 in x3."],
         "x2", "The value 5.0 is in x2. So the answer is x2.", target="5.0"),
    _row("arg-match-no-equal-cell", _chart("x1 x2", A=["4", "6"]), "arg_match",
         [_G("A")], ["The data is 4 in x1, 6 in x2."], None, _UNKNOWN, target="5"),
    _row("two-smallest-in-list-order", _chart("x1 x2 x3", A=["16", "81", "3"]),
         "two_smallest", [_G("A")],
         ["The data is 16 in x1, 81 in x2, 3 in x3."],
         "no", "Among [16, 81, 3], the two smallest values are 16 and 3 while the largest "
         "value is 81. 16+3=19, which is smaller than 81. So the answer is no."),
    _row("two-smallest-greater", _chart("x1 x2 x3", A=["40", "50", "60"]),
         "two_smallest", [_G("A")],
         ["The data is 40 in x1, 50 in x2, 60 in x3."],
         "yes", "Among [40, 50, 60], the two smallest values are 40 and 50 while the largest "
         "value is 60. 40+50=90, which is greater than 60. So the answer is yes."),
    _row("two-smallest-equal-sum", _chart("x1 x2 x3", A=["20", "50", "30"]),
         "two_smallest", [_G("A")],
         ["The data is 20 in x1, 50 in x2, 30 in x3."],
         "no", "Among [20, 50, 30], the two smallest values are 20 and 30 while the largest "
         "value is 50. 20+30=50, which is equal to 50. So the answer is no."),
    # Two values are both the two smallest, the larger also the largest; one
    # value has no second smallest.
    _row("two-smallest-of-two-values", _chart("x1 x2", A=["3", "5"]),
         "two_smallest", [_G("A")], ["The data is 3 in x1, 5 in x2."],
         "yes", "Among [3, 5], the two smallest values are 3 and 5 while the largest "
         "value is 5. 3+5=8, which is greater than 5. So the answer is yes."),
    _row("two-smallest-of-one-value", _chart("2000", S=["5"]),
         "two_smallest", [_G("S")], ["The data is 5 in 2000."], None, _UNKNOWN),
    _row("count-series", _PAIR, "count_series",
         [_D()], ["The figure shows the data of: A | B. The x-axis shows: x1 | x2 | x3."],
         "2", "There are 2 legend labels. So the answer is 2."),
    _row("count-x-labels", _PAIR, "count_x_labels",
         [_D()], ["The figure shows the data of: A | B. The x-axis shows: x1 | x2 | x3."],
         "3", "There are 3 x-axis labels. So the answer is 3."),
    _row("non-numeric-cell-in-group", _chart("x1 x2", A=["5", "n/a"]), "extreme",
         [_G("A")], ["The data is 5 in x1, n/a in x2."], None, _UNKNOWN, op="maximum"),
    # A point line without BY can read as a row or column: the entity's pair
    # answers, else the only pair, else nothing.
    _row("identity-keyed-pair", _chart("Total Other", Total=["5", "7"]), "value",
         [_P("Total")], ["The data is 5 in Total, 7 in Other."],
         "5", "The value is 5. So the answer is 5."),
    _row("identity-only-pair", _chart("2019", Norway=["3.5"], Chile=["7.25"]), "value",
         [_P("Chile")], ["The data is 7.25 in 2019."],
         "7.25", "The value is 7.25. So the answer is 7.25."),
    _row("identity-unkeyed-row", _chart("x1 x2", A=["1", "2"], B=["3", "4"]), "value",
         [_P("A")], ["The data is 1 in x1, 2 in x2."], None, _UNKNOWN),
    # A point operand is a value, keyed by nothing, whatever line it came
    # in: a cell, or the value of the row's pair that its entity keys.
    _row("sum-of-a-cell-and-a-keyed-pair", _chart("Other Total", Total=["5", "7"]), "sum",
         [_P("Other"), _P("Total")], ["The data is 5.", "The data is 5 in Other, 7 in Total."],
         "12", "The sum is 5+7=12. So the answer is 12."),
    _row("unavailable-answer", _chart("2010", Oman=["210.69"]), "value",
         [_P("Oman", "1999")], ["The data is not available."], None, _UNKNOWN),
    _row("structural-without-description", None, "count_series",
         [_D()], ["The data is 3."], None, _UNKNOWN),
    _row("wrong-answer-count", None, "value",
         [_P("x1")], ["The data is 1.", "The data is 2."], None, _UNKNOWN),
    _row("too-few-values", None, "difference",
         [_P("x1")], ["The data is 3."], None, _UNKNOWN),
    _row("group-row-without-data-query", None, "extreme",
         [_D()], ["The figure shows the data of: A. The x-axis shows: x1 | x2."],
         None, _UNKNOWN, op="maximum"),
    # Printed "$", "%" and thousands commas: a cell computes with its bare
    # number and keeps its print, and a computed answer is a plain number.
    _row("sum-of-percent-cells", _chart("2019", Norway=["45%"], Chile=["30%"]), "sum",
         [_P("Norway", "2019"), _P("Chile", "2019")], ["The data is 45%.", "The data is 30%."],
         "75", "The sum is 45%+30%=75. So the answer is 75."),
    _row("average-of-percent-cells", _chart("2019 2020 2021", Norway=["45%", "30%", "10%"]),
         "average_all", [_G("Norway")], ["The data is 45% in 2019, 30% in 2020, 10% in 2021."],
         "28.33", "The average is (45%+30%+10%)/3=28.33. So the answer is 28.33."),
    # Compared as text, "$7.5" would be the largest.
    _row("argmax-of-dollar-cells", _chart("x1 x2 x3", A=["$3.2", "$12", "$7.5"]), "arg_extreme",
         [_G("A")], ["The data is $3.2 in x1, $12 in x2, $7.5 in x3."],
         "x2", "The maximum value is $12 in x2. So the answer is x2.", op="highest"),
    _row("count-greater-than-a-percent", _chart("x1 x2 x3", A=["45%", "60%", "30%"]),
         "count", [_G("A")], ["The data is 45% in x1, 60% in x2, 30% in x3."],
         "1", "The values that are greater than 45% are [60%]. So the answer is 1.",
         op="greater than", target="45%"),
    _row("identity-thousands-comma", _chart("x1 x2", A=["1,200", "950"]), "value",
         [_P("x1")], ["The data is 1,200."],
         Value("1,200", Decimal("1200")),
         "The value is 1,200. So the answer is 1,200."),
    # A group read that comes back as one value, as an x-label of a
    # single-series chart does: every fold takes it as one pair keyed by the
    # query's entity.
    _row("average-all-of-one-value", None, "average_all", [_G("A")], ["The data is 7."],
         "7.00", "The average is (7)/1=7.00. So the answer is 7.00."),
    _row("count-of-one-value", _ONE_SERIES, "count", [_G("2019")], ["The data is 7."],
         "1", "The values that are greater than 5 are [7]. So the answer is 1.",
         op="greater than", target="5"),
    _row("extreme-of-one-value", _ONE_SERIES, "extreme", [_G("2019")], ["The data is 7."],
         "7", "The maximum value is 7 in 2019. So the answer is 7.", op="maximum"),
    _row("arg-extreme-of-one-value", _ONE_SERIES, "arg_extreme", [_G("2019")],
         ["The data is 7."],
         "2019", "The maximum value is 7 in 2019. So the answer is 2019.", op="highest"),
    # Each answer is read against the query that asked it: one of the wrong
    # kind or shape concludes unknown.
    _row("describe-answered-by-data", None, "value",
         [_D(), _P("A", "x1")], ["The data is 9.", "The data is 7."], None, _UNKNOWN),
    _row("sum-with-describe-answered-by-data", None, "sum",
         [_D(), _P("A", "x1"), _P("B", "x1")],
         ["The data is 9.", "The data is 3.", "The data is 5."], None, _UNKNOWN),
    _row("sum-with-cell-read-as-row", None, "sum",
         [_P("A", "x1"), _P("B", "x1")], ["The data is 5.", "The data is 1 in x1, 2 in x2."],
         None, _UNKNOWN),
    _row("sum-with-cell-read-as-description", None, "sum",
         [_P("A", "x1"), _P("B", "x1")],
         ["The data is 7.", "The figure shows the data of: A | B. The x-axis shows: x1 | x2."],
         None, _UNKNOWN),
]


@pytest.mark.parametrize("table, plan, answers, raw, sentence", _HAND_TABLE)
def test_reduce_hand_table(table, plan, answers, raw, sentence):
    expected = raw if raw is None or isinstance(raw, Value) else Value.from_raw(raw)
    printed = None if expected is None else expected.raw
    assert deduce(plan, [parse_reader_answer(a) for a in answers]) == (sentence, printed)
    if table is None:
        return
    assert [execute_query(table, q) for q in plan.queries] == answers
    if expected is None:
        with pytest.raises(UndefinedResult):
            compute_gold(table, plan)
    else:
        assert compute_gold(table, plan) == expected


def test_hand_table_answers_every_reduce():
    """Each row key, with each of its {op} values, is answered by a hand row with a table."""
    folds = set()
    for key, template in _TEMPLATES.items():
        ops = {op for form in template.phrasings
               for alternatives in re.findall(r"\(\?P<op>([^)]*)\)", form.pattern.pattern)
               for op in alternatives.split("|")}
        folds.update((key, op) for op in ops or [None])
    answered = {(plan.key, dict(plan.slots).get("op"))
                for table, plan, _, raw, _ in (row.values for row in _HAND_TABLE)
                if table is not None and raw is not None}
    assert len(folds) == 18 and answered == folds


def test_deduce_never_raises():
    """Each plan the rows fill over small tables, with its queries answered
    in every combination of the shapes a reader line takes, concludes: what
    cannot be folded concludes unknown rather than raising.  So does a
    hand-built plan that reads a point and a group, in either order."""
    outcomes = Counter()
    for index, (n_series, n_x) in enumerate(product((1, 2), (3, 4))):
        table = random_table(39, index, n_series=n_series, n_x=n_x)
        x = table.x_labels
        shapes = [parse_reader_answer(line) for line in (
            "The data is 5.", f"The data is 5 in {x[0]}.",
            f"The data is 5 in {x[0]}, 3 in {x[1]}.",
            f"The data is 5 in {x[0]}, 3 in {x[1]}, 8 in {x[2]}.",
            UNAVAILABLE_ANSWER, execute_query(table, describe_query()),
            "The data is n/a.", "The data is 0.", "The data is 9E+999998.",
            "Not a reader line.")]
        plans = [(_TEMPLATES[key].plan(slots), False)
                 for key, fill in _FILLINGS.items() for slots in fill(table)[:2]]
        group, point = group_query(table.series[0].name), point_query(table.series[0].name, x[0])
        plans += [(QuestionPlan(reads, key, (("op", "minimum"),)), True)
                  for key in ("sum", "value", "extreme") for reads in ((group, point), (point, group))]
        for plan, mixed in plans:
            for answers in product(shapes, repeat=len(plan.queries)):
                sentence, final = deduce(plan, answers)
                assert sentence.endswith(f"So the answer is {final or 'unknown'}.")
                assert not (mixed and final), (plan, answers)
                outcomes[final is None] += 1
    assert outcomes[True] and outcomes[False]


def test_readme_grammar_row_is_a_templates_row():
    """The README's first grammar example is a ``_TEMPLATES`` row as written,
    line for line up to indentation, so it cannot go stale."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Question grammar\n")[1]
    example = re.search(r"^```python\n(.*?)^```", section, flags=re.M | re.S)[1]
    source = (root / "src" / "chartloop" / "symbolic.py").read_text(encoding="utf-8")
    table = source[source.index("\n_TEMPLATES"):source.index("\n)}\n")]

    def lines(text):
        return "\n" + "\n".join(line.strip() for line in text.splitlines()) + "\n"

    assert lines(example) in lines(table)


def test_compute_gold_difference(net_ratings):
    plan = _plan(
        "difference",
        [point_query("NET Excellent/ good", "German"), point_query("NET Only fair/ poor", "German")],
    )
    gold = compute_gold(net_ratings, plan)
    assert gold.raw == "15.00"


def test_compute_gold_average(university_shares):
    plan = _plan(
        "average",
        [
            point_query("Share of people who think university is overrated", "Philippines"),
            point_query("Share of people who think university is overrated", "Ghana"),
        ],
    )
    assert compute_gold(university_shares, plan).raw == "33.25"


def test_compute_gold_count_threshold(neonatal):
    plan = _plan("count", [group_query(None)], op="greater than", target="851")
    assert compute_gold(neonatal, plan).raw == "1"


def test_compute_gold_min(costa_rica):
    plan = _plan("extreme", [group_query("Costa Rica")], op="minimum")
    assert compute_gold(costa_rica, plan).raw == "14.92"


def test_compute_gold_structural(costa_rica):
    plan = _plan("count_series", [describe_query()])
    assert compute_gold(costa_rica, plan).raw == "4"


def test_label_count_gold_needs_the_description():
    # As for the reasoner: without the describe query no labels were read.
    with pytest.raises(UndefinedResult):
        compute_gold(random_table(0, 0), QuestionPlan((), "count_series"))


def _answers_for(table, plan):
    return [parse_reader_answer(execute_query(table, q)) for q in plan.queries]


def test_deduce_min_matches_annotated_conclusion(costa_rica):
    plan = decompose("Across all years, what is the minimum pupil-teacher ratio in Costa Rica?")
    text, answer = deduce(plan, _answers_for(costa_rica, plan))
    assert text == "The minimum value is 14.92 in 2011. So the answer is 14.92."
    assert answer == "14.92"


def test_deduce_count_matches_annotated_conclusion(neonatal):
    plan = decompose("In how many years, is the value of the bar greater than 851?")
    text, answer = deduce(plan, _answers_for(neonatal, plan))
    assert text == "The values that are greater than 851 are [853]. So the answer is 1."
    assert answer == "1"


def test_deduce_sum_two_smallest(segments):
    plan = decompose("Is the sum of two smallest segments greater than the largest segment?")
    text, answer = deduce(plan, _answers_for(segments, plan))
    assert "16.00+3.00=19.00, which is smaller than 81.00. So the answer is no." in text
    assert answer == "no"


def test_deduce_arg_match(oman_samoa):
    plan = decompose("In which year the private health expenditure per person in Oman is 210.69?")
    text, answer = deduce(plan, _answers_for(oman_samoa, plan))
    assert answer == "2010"
    assert "The value 210.69 is in 2010." in text


def test_deduce_folds_data_without_a_description(costa_rica):
    """A describe line answered "not available" leaves the fold without a
    description: a data question still concludes, a label count does not."""
    unavailable = parse_reader_answer(UNAVAILABLE_ANSWER)
    plan = decompose("Across all years, what is the minimum pupil-teacher ratio in Costa Rica?")
    text, answer = deduce(plan, [unavailable, *_answers_for(costa_rica, plan)[1:]])
    assert (text, answer) == ("The minimum value is 14.92 in 2011. So the answer is 14.92.",
                              "14.92")
    plan = decompose("How many legend labels are there?")
    assert deduce(plan, [unavailable]) == (UNKNOWN_CONCLUSION, None)


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


def test_gen_questions_decompose_back_to_plan(human_only_questions, first_phrasing,
                                              all_phrasings):
    generated = set()
    for index in range(40):
        table = random_table(77, index)
        for template in TemplateType:
            for qa, plan in gen_questions(table, template, seed=3, n=2):
                generated.add(first_phrasing(qa.question))
                assert decompose(qa.question) == plan
                assert plan.queries[0] == describe_query()
    human = {first_phrasing(question) for _, question in human_only_questions}
    assert len(human) == len(human_only_questions)
    assert human.isdisjoint(generated)
    assert generated | human == all_phrasings


def test_gen_questions_asks_each_hosted_question_once():
    """A large n asks every question the table hosts, each once; n asks
    min(n, hosted) of them, and the template's rows take turns."""
    tables = [*random_tables(8, 30), *random_tables(9, 10, n_series=1), *random_tables(10, 5, n_x=1)]
    for table in tables:
        for template in TemplateType:
            hosted = [len(_FILLINGS[key](table)) for key, row in _TEMPLATES.items()
                      if row.template_type is template]
            try:
                asked = [qa.question for qa, _ in gen_questions(table, template, 8, n=1000)]
            except SkippedTemplate:
                assert sum(hosted) == 0
                continue
            every = set(asked)
            assert len(asked) == len(every) == sum(hosted)
            for n in (1, 2, 5):
                some = gen_questions(table, template, 8, n=n)
                assert len({qa.question for qa, _ in some}) == len(some) == min(n, sum(hosted))
                assert {qa.question for qa, _ in some} <= every
                turn = min(n, len([count for count in hosted if count]))
                assert len({plan.key for _, plan in some[:turn]}) == turn


def _generation_digest(seeds, n_charts):
    digest = hashlib.sha256()
    for seed in seeds:
        for table in random_tables(seed, n_charts):
            for template in TemplateType:
                try:
                    pairs = gen_questions(table, template, seed, n=3)
                except SkippedTemplate:
                    digest.update(b"skipped")
                    continue
                for qa, plan in pairs:
                    digest.update(json.dumps(qa.to_dict(), sort_keys=True).encode())
                    digest.update(json.dumps([[(q.op.value, q.entity, q.by)
                                               for q in plan.queries],
                                              deduce(plan, _answers_for(table, plan))]).encode())
    return digest.hexdigest()


def test_gen_questions_golden_digest():
    # Pins question wording, gold answers, each plan's reads and what its
    # fold concludes from them, and the RNG call order.
    assert _generation_digest(seeds=(0, 1, 2), n_charts=40) == (
        "646c2aa539b54ee612553aae72e25f765cc87150591ee713dbb461790753df3f")


def _decorate_one_cell(table, rng):
    """``table`` with one random cell printed as "<v>%" or "$<v>"."""
    i, j = rng.randrange(len(table.series)), rng.randrange(len(table.x_labels))
    cells = [[v.raw for v in row] for row in table.cells]
    cells[i][j] = rng.choice(["{}%", "${}"]).format(cells[i][j])
    return ChartTable.build(table.source_id, [(s.name, s.color) for s in table.series],
                            table.x_labels, cells)


def test_closed_loop_over_decorated_cells_answers_every_question():
    """A decorated cell is as numeric as a plain one: every template still
    generates its questions, and the loop answers each one correctly."""
    rng = random.Random(16)
    reasoner = SymbolicReasoner()
    total = correct = 0
    for table in random_tables(0, 200):
        table = _decorate_one_cell(table, rng)
        oracle = TableOracle([table])
        for template in TemplateType:
            for qa, _ in gen_questions(table, template, 0, 2):
                trace = run_episode(qa.question, table.source_id, reasoner, oracle)
                total += 1
                correct += trace.final is not None and relaxed_match(trace.final, qa.gold)
    assert (total, correct) == (2400, 2400)


# The hand-written tables of conftest.py, and the closed-loop failures each
# has today among the questions it hosts: (row key -> count, the label or
# gold that every failing question names).  ROADMAP item 1 (real chart labels
# survive the protocol) owns them: " and " inside a series name splits a sum
# or average question's two entities, and the ". " in "Dr. Phil McGraw" reads
# as a sentence boundary, so the conclusion line does not parse.
_HAND_TABLES = ["oman_samoa", "net_ratings", "respondents", "activision", "segments",
                "neonatal", "costa_rica", "total_market", "merchandise", "income",
                "plotqa_duplicated_axis", "canada", "export_2015", "turkey", "retail",
                "university_shares", "norway_chile"]
_HAND_TABLE_FAILURES = {
    "activision": ({"sum": 12, "average": 12}, "Mobile and ancillary**"),
    "plotqa_duplicated_axis": ({"sum": 16, "average": 16},
                               "Fragile and conflict affected situations"),
}


def test_closed_loop_asks_every_hosted_question_of_the_hand_tables(request):
    """Every question each hand-written table hosts goes through the closed
    loop and is checked against gold; the failures are exactly the pinned
    ones."""
    reasoner = SymbolicReasoner()
    hosted = {}
    for name in _HAND_TABLES:
        table = request.getfixturevalue(name)
        oracle = TableOracle([table])
        failures = []
        hosted[name] = 0
        for template in TemplateType:
            try:
                generated = gen_questions(table, template, 0, n=10_000)
            except SkippedTemplate:
                continue
            for qa, plan in generated:
                hosted[name] += 1
                trace = run_episode(qa.question, table.source_id, reasoner, oracle)
                if trace.final is None or not relaxed_match(trace.final, qa.gold):
                    failures.append((plan.key, f"{qa.question} {qa.gold.raw}"))
        counts, named = _HAND_TABLE_FAILURES.get(name, ({}, ""))
        assert Counter(key for key, _ in failures) == Counter(counts), name
        assert all(named in text for _, text in failures), name
    assert (hosted["activision"], hosted["income"], hosted["plotqa_duplicated_axis"],
            sum(hosted.values())) == (350, 364, 617, 3508)


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
        plan = _plan("second_highest", [group_query("S")])
        expected_index = sorted(range(n), key=lambda i: -values[i])[1]
        assert compute_gold(table, plan).raw == f"k{expected_index}"
        assert deduce(plan, _answers_for(table, plan))[1] == f"k{expected_index}"


def test_gold_never_consults_protocol(monkeypatch, costa_rica):
    import chartloop.protocol as protocol

    def boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("compute_gold touched the step protocol")

    monkeypatch.setattr(protocol, "parse_reader_answer", boom)
    monkeypatch.setattr(protocol, "format_reader_answer", boom)
    plan = _plan("extreme", [group_query("Costa Rica")], op="minimum")
    assert compute_gold(costa_rica, plan).raw == "14.92"


def _near_misses(label):
    """The label, and the label with its last character dropped when it has
    5 or more characters (a name only the fuzzy pass resolves)."""
    return [label, label[:-1]] if len(label) >= 5 else [label]


def _line_shapes(table):
    """Every query line a table is read with: the description, no entity,
    each label's entity-only line, and each (series, x-label) BY line both
    ways round, each also with near-miss names."""
    series = [s.name for s in table.series]
    yield describe_query()
    yield group_query()
    for label in [*series, *table.x_labels]:
        yield point_query(label)
        for near in _near_misses(label):
            yield group_query(near)
    for name in series:
        for x in table.x_labels:
            for e, f in product(_near_misses(name), _near_misses(x)):
                yield point_query(e, f)
                yield point_query(f, e)


def test_gold_reads_what_the_reader_answers():
    """Gold's perfect reader and the oracle are one kernel
    (``oracle.read_table``) with two renderings: on every line shape, near-miss
    names included, gold's answer is what the oracle's line parses to, the
    description included, and a read gold cannot make is the not-available
    line."""
    tables = [*random_tables(4, 30), *random_tables(5, 10, n_series=1),
              *random_tables(6, 10, n_x=1), random_table(7, 0, n_series=1, n_x=1)]
    for table in tables:
        for query in _line_shapes(table):
            answer = parse_reader_answer(execute_query(table, query))
            try:
                assert _gold_answer(table, query) == answer, (table.source_id, query)
            except UndefinedResult:
                assert answer.kind is AnswerKind.UNAVAILABLE, (table.source_id, query)


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
