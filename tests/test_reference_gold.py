"""A reference evaluator for generated questions, independent of the fold.

Gold is ``deduce`` over a perfect reader, so the closed loop checks only that
reads survive the protocol.  Here each ``_TEMPLATES`` row key has one small
function, written from what the row's phrasings ask, that returns the set of
right answers from the table's cells with ``fractions.Fraction`` and
``sorted``.  An answer takes nothing from ``symbolic`` but the plan's row key
and slots, and reads cells by their exact names.

A phrasing with ``{x}`` names a series ``{a}`` (and ``{b}``) at x-labels
``{x}`` (and ``{y}``); one without names x-labels ``{a}`` and ``{b}`` of the
only series.  ``{b}`` defaults to ``{a}`` and ``{y}`` to ``{x}``.
"""

from fractions import Fraction

import pytest

from chartloop.symbolic import _TEMPLATES, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import TemplateType

_SEEDS = (0, 7)
_TABLES = 100
_EVERY = 1_000_000  # more questions than any table hosts


def _cell(table, series, x):
    """The number at a series (the only one when None) and an x-label."""
    row = 0 if series is None else [s.name for s in table.series].index(series)
    return Fraction(table.cells[row][table.x_labels.index(x)].raw)


def _row(table, series):
    """(x-label, number) for each cell of a series (the only one when None)."""
    return [(x, _cell(table, series, x)) for x in table.x_labels]


def _two(table, s):
    """The two numbers a two-point phrasing names, in the order it names them."""
    if "x" in s:
        return _cell(table, s["a"], s["x"]), _cell(table, s.get("b", s["a"]), s.get("y", s["x"]))
    return _cell(table, None, s["a"]), _cell(table, None, s["b"])


def _value(table, s):
    return {_cell(table, s["a"], s["x"]) if "x" in s else _cell(table, None, s["a"])}


def _difference(table, s):
    a, b = _two(table, s)
    return {a - b}


def _ratio(table, s):
    a, b = _two(table, s)
    return {a / b}


def _arg_match(table, s):
    return {x for x, v in _row(table, s["a"]) if v == Fraction(s["target"])}


def _count(table, s):
    t = Fraction(s["target"])
    values = [v for _, v in _row(table, s.get("a"))]
    return {len([v for v in values if (v > t if s["op"] == "greater than" else v < t)])}


def _average_all(table, s):
    values = [v for _, v in _row(table, s["a"])]
    return {sum(values) / len(values)}


def _two_smallest(table, s):
    values = sorted(v for _, v in _row(table, None))
    return {"yes" if values[0] + values[1] > values[-1] else "no"}


def _extreme(table, s):
    values = sorted(v for _, v in _row(table, s["a"]))
    return {values[0] if s["op"] == "minimum" else values[-1]}


def _arg_extreme(table, s):
    row = _row(table, s["a"])
    values = sorted(v for _, v in row)
    best = values[0] if s["op"] == "lowest" else values[-1]
    return {x for x, v in row if v == best}


def _second_highest(table, s):
    """Every label holding the second of the values sorted high to low."""
    row = _row(table, s["a"])
    second = sorted((v for _, v in row), reverse=True)[1]
    return {x for x, v in row if v == second}


def _greater(table, s):
    a, b = _two(table, s)
    return {"yes" if a > b else "no"}


_REFERENCE = {
    "count_series": lambda table, s: {len(table.series)},
    "count_x_labels": lambda table, s: {len(table.x_labels)},
    "arg_match": _arg_match,
    "difference": _difference,
    "sum": lambda table, s: {sum(_two(table, s))},
    "average": lambda table, s: {sum(_two(table, s)) / 2},
    "average_all": _average_all,
    "count": _count,
    "ratio": _ratio,
    "greater": _greater,
    "two_smallest": _two_smallest,
    "extreme": _extreme,
    "arg_extreme": _arg_extreme,
    "second_highest": _second_highest,
    "value": _value,
}


def _agrees(gold, right, tolerance=Fraction(1, 20)):
    """Numeric gold within 5% (``tolerance``) of the exact number; any other
    gold equal."""
    if isinstance(right, str):
        return gold.raw == right
    return abs(Fraction(gold.raw) - right) <= abs(right) * tolerance


@pytest.fixture(scope="module")
def generated():
    """(seed, row key, question, gold, right answers) for every question
    that ``gen_questions`` can ask of 100 tables per seed."""
    rows = []
    for seed in _SEEDS:
        for table in random_tables(seed, _TABLES):
            for template in TemplateType:
                for qa, plan in gen_questions(table, template, seed, n=_EVERY):
                    right = _REFERENCE[plan.key](table, dict(plan.slots))
                    rows.append((seed, plan.key, qa.question, qa.gold, right))
    return rows


def test_reference_answers_every_row():
    assert _REFERENCE.keys() == _TEMPLATES.keys()


def test_generated_gold_matches_the_reference(generated):
    """Every generated question has one right answer, and its gold agrees
    with it: a printed ratio or average lies within 5% of the exact one."""
    wrong = [(question, gold.raw, right) for _, _, question, gold, right in generated
             if len(right) != 1 or not _agrees(gold, *right)]
    assert wrong == []
    counts = {seed: sum(row[0] == seed for row in generated) for seed in _SEEDS}
    assert counts == {0: 22688, 7: 23818}


def test_ratio_gold_is_within_tolerance_of_the_exact_ratio(generated):
    """A ratio prints at least 3 significant digits, so its gold lies within
    0.5% of the exact ratio, ten times inside the scoring tolerance."""
    wrong = [(question, gold.raw, right) for _, key, question, gold, right in generated
             if key == "ratio" and not _agrees(gold, *right, tolerance=Fraction(1, 200))]
    assert wrong == []
