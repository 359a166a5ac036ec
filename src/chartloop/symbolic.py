"""Rule-based reasoner for template questions.

Three jobs, kept deliberately separable so the closed loop is verifiable:

* ``gen_questions`` instantiates template questions over a table,
* ``compute_gold`` answers a plan from values it reads straight off the
  table cells (never through the step protocol), and
* ``decompose``/``deduce`` drive the live episode: pattern-match the question
  into atomic queries, then fold the reader's answers into a concluding
  sentence ending "So the answer is X.".

Each question form is written once, in the ordered ``_TEMPLATES`` table: a
surface string with slots (``{name}`` matches any text, ``{name:regex}``
only ``regex``) and a builder from slot values to queries and reduce.  The
surface string renders generated questions and compiles to the regex that
``decompose`` matches, so the two cannot drift apart.

Running decompose -> reader -> deduce against compute_gold is the package's
main correctness oracle for extraction: the two answer paths read their
values independently, table cells on one side and reader text on the other.
Both then apply the one ``_reduce``; its arithmetic and wording are pinned
by a hand-computed case table in the tests, not by the closed loop.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from typing import Callable, Optional, Sequence

from .oracle import closest_name
from .protocol import (
    AnswerKind,
    AtomicQuery,
    QueryOp,
    ReaderAnswer,
    describe_query,
    format_query,
    group_query,
    point_query,
)
from .tables import ChartTable, QAInstance, TemplateType, Value, normalize_name

UNKNOWN_CONCLUSION = "So the answer is unknown."

_RATIO_STEP = Decimal("0.0001")
_AVERAGE_STEP = Decimal("0.01")


class SkippedTemplate(ValueError):
    """The table is too small or non-numeric for the requested template."""


class NotTemplated(ValueError):
    """The question matches no known template pattern."""


class UndefinedResult(ArithmeticError):
    """The reduce has no defined result (e.g. division by zero)."""


class Reduce(str, Enum):
    IDENTITY = "identity"
    SUM = "sum"
    DIFFERENCE = "difference"
    RATIO = "ratio"
    AVERAGE = "average"
    MIN = "min"
    MAX = "max"
    ARGMIN = "argmin"
    ARGMAX = "argmax"
    COUNT_GREATER = "count_greater"
    COUNT_LESS = "count_less"
    SECOND_HIGHEST = "second_highest"
    COMPARE_YES_NO = "compare_yes_no"
    ARG_MATCH = "arg_match"
    SUM_TWO_SMALLEST_VS_LARGEST = "sum_two_smallest_vs_largest"
    COUNT_SERIES = "count_series"
    COUNT_X_LABELS = "count_x_labels"


@dataclass(frozen=True)
class QuestionPlan:
    """A question's decomposition: atomic queries plus the final reduce."""

    template_type: TemplateType
    queries: tuple[AtomicQuery, ...]
    reduce: Reduce
    reduce_args: tuple[Value, ...] = ()


@dataclass(frozen=True)
class GoldComputation:
    answer: Value
    derivation: str  # the concluding sentence deduce gives for the same values


def stable_seed(*parts: object) -> int:
    """Process-independent integer seed from arbitrary key parts."""
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Question grammar: one table drives both generation and decomposition.
# ---------------------------------------------------------------------------

_SLOT_RE = re.compile(r"\{(\w+)(?::([^{}]*))?\}")


def _surface_regex(surface: str) -> re.Pattern:
    """Compile a surface string: ``{name}`` matches ``.+``, ``{name:regex}`` matches regex."""
    regex, end = "", 0
    for slot in _SLOT_RE.finditer(surface):
        regex += re.escape(surface[end:slot.start()]) + f"(?P<{slot[1]}>{slot[2] or '.+'})"
        end = slot.end()
    return re.compile(regex + re.escape(surface[end:]))


class _Template:
    """One question form: its type, its surface string and its plan builder."""

    __slots__ = ("template_type", "pattern", "form", "build")

    def __init__(self, template_type: TemplateType, surface: str, build: Callable):
        self.template_type = template_type
        self.pattern = _surface_regex(surface)
        self.form = _SLOT_RE.sub(r"{\1}", surface)
        self.build = build

    def plan(self, slots: dict, describe_first: bool) -> QuestionPlan:
        queries, reduce, args = self.build(slots)
        if describe_first:
            queries = (describe_query(), *queries)
        return QuestionPlan(self.template_type, queries, reduce, args)


def _points(reduce: Reduce) -> Callable:
    """Read {a} (in {x}), then {b} (in {y}) if either slot exists; {b} defaults
    to {a} and {y} to {x}."""
    def build(s: dict):
        a, x = s["a"], s.get("x")
        queries = (point_query(a, x),)
        if "b" in s or "y" in s:
            queries += (point_query(s.get("b", a), s.get("y", x)),)
        return queries, reduce, ()
    return build


def _group(reduce) -> Callable:
    """Read the group of {a} (the only series when absent); a dict ``reduce``
    is keyed by the {op} slot, and {target} becomes the reduce argument."""
    def build(s: dict):
        chosen = reduce[s["op"]] if isinstance(reduce, dict) else reduce
        args = (Value.from_raw(s["target"]),) if "target" in s else ()
        return (group_query(s.get("a")),), chosen, args
    return build


_THRESHOLD = {"greater than": Reduce.COUNT_GREATER, "below": Reduce.COUNT_LESS}
_EXTREME = {"minimum": Reduce.MIN, "maximum": Reduce.MAX}
_DR, _ST, _AR = TemplateType.DATA_RETRIEVAL, TemplateType.STRUCTURAL, TemplateType.ARITHMETIC
_CP, _CM, _MM = TemplateType.COMPOUND, TemplateType.COMPARISON, TemplateType.MIN_MAX

# Matched in order, so a more specific form precedes any form that would also
# match it.  Keys are what the generators return; the entries no generator
# returns cover wordings found only in human-authored questions.
_TEMPLATES: dict[str, _Template] = {key: _Template(*entry) for key, *entry in (
    ("count_series", _ST, "How many legend labels are there?",
     lambda s: ((), Reduce.COUNT_SERIES, ())),
    ("count_x_labels", _ST, "How many x-axis labels are there?",
     lambda s: ((), Reduce.COUNT_X_LABELS, ())),
    ("arg_match", _DR, "In which {word:year|category} is the value of {a} equal to {target}?",
     _group(Reduce.ARG_MATCH)),
    ("arg_match_measure", _DR, r"In which {unit:\w+} the {measure} in {a} is {target}?",
     _group(Reduce.ARG_MATCH)),
    ("difference_year_of", _AR,
     "By how many points does {a} surpass {b} in {x} in the year of {year}?",
     _points(Reduce.DIFFERENCE)),
    ("difference", _AR, "By how many points does the value in {a} surpass the value in {b}?",
     _points(Reduce.DIFFERENCE)),
    ("difference_in", _AR, "By how many points does {a} surpass {b} in {x}?",
     _points(Reduce.DIFFERENCE)),
    ("sum_in", _AR, "What is the sum of the values of {a} and {b} in {x}?", _points(Reduce.SUM)),
    ("sum", _AR, "What is the sum of the values in {a} and {b}?", _points(Reduce.SUM)),
    ("average_in", _AR, "What is the average of the values of {a} and {b} in {x}?",
     _points(Reduce.AVERAGE)),
    ("average_all", _AR, "What is the average value of {a} across all {words:years|categories}?",
     _group(Reduce.AVERAGE)),
    ("count_bar", _CP, "In how many {words:years|categories}, is the value of the bar "
     "{op:greater than|below} {target}?", _group(_THRESHOLD)),
    ("count", _CP, "In how many {words:years|categories}, is the value of {a} "
     "{op:greater than|below} {target}?", _group(_THRESHOLD)),
    ("ratio_in", _CM, "What is the ratio of the value of {a} in {x} to that in {y}?",
     _points(Reduce.RATIO)),
    ("ratio", _CM, "What is the ratio of the value in {a} to that in {b}?", _points(Reduce.RATIO)),
    ("greater_in", _CM, "Is the value of {a} in {x} greater than the value of {b} in {y}?",
     _points(Reduce.COMPARE_YES_NO)),
    ("greater", _CM, "Is the value in {a} greater than the value in {b}?",
     _points(Reduce.COMPARE_YES_NO)),
    ("two_smallest", _CM,
     "Is the sum of {det:the |}two smallest segments greater than the largest segment?",
     _group(Reduce.SUM_TWO_SMALLEST_VS_LARGEST)),
    ("extreme", _MM, "Across all {words:years|categories}, what is the {op:minimum|maximum} "
     "value of {a}?", _group(_EXTREME)),
    ("extreme_measure", _MM,
     r"Across all {unit:\w+}, what is the {op:minimum|maximum} {measure:(?:.+ )?}in {a}?",
     _group(_EXTREME)),
    ("arg_extreme", _MM, "In which {word:year|category} is the value of {a} the "
     "{op:highest|lowest}?", _group({"highest": Reduce.ARGMAX, "lowest": Reduce.ARGMIN})),
    ("second_highest", _MM, "Which {word:year|category} has the second highest value of {a}?",
     _group(Reduce.SECOND_HIGHEST)),
    ("value_in", _DR, "What is the value of {a} in {x}?", _points(Reduce.IDENTITY)),
    ("value", _DR, "What is the value of {a}?", _points(Reduce.IDENTITY)),
)}


def decompose(question: str, describe_first: bool = True) -> QuestionPlan:
    """Pattern-match a question into a QuestionPlan.

    Entities are taken verbatim from the question text; spelling is aligned
    to the chart's own names later, once the figure description is in hand.
    Raises NotTemplated for anything outside the grammar (such questions need
    a real language model).  Structural questions are answered entirely from
    the description, so they are also NotTemplated when describe is disabled.
    """
    text = question.strip()
    for template in _TEMPLATES.values():
        m = template.pattern.fullmatch(text)
        if not m:
            continue
        if template.template_type is TemplateType.STRUCTURAL and not describe_first:
            raise NotTemplated("structural questions need the figure description")
        return template.plan(m.groupdict(), describe_first)
    raise NotTemplated(question)


# ---------------------------------------------------------------------------
# Gold computation: table extraction, independent of the protocol.
# ---------------------------------------------------------------------------

def _find_exact(names: Sequence[str], wanted: str) -> Optional[int]:
    want = normalize_name(wanted)
    for i, name in enumerate(names):
        if normalize_name(name) == want:
            return i
    return None


def _gold_point(table: ChartTable, query: AtomicQuery) -> Value:
    series_names = [s.name for s in table.series]
    entity, by = query.entity or "", query.by
    if by is not None:
        si, xi = _find_exact(series_names, entity), _find_exact(table.x_labels, by)
        if si is None or xi is None:
            si, xi = _find_exact(series_names, by), _find_exact(table.x_labels, entity)
        if si is None or xi is None:
            raise UndefinedResult(f"cannot locate cell ({entity!r}, {by!r})")
        return table.cells[si][xi]
    if len(table.series) == 1:
        xi = _find_exact(table.x_labels, entity)
        if xi is not None:
            return table.cells[0][xi]
    if len(table.x_labels) == 1:
        si = _find_exact(series_names, entity)
        if si is not None:
            return table.cells[si][0]
    raise UndefinedResult(f"ambiguous point {entity!r}")


def _gold_group(table: ChartTable, query: AtomicQuery) -> list[tuple[str, Value]]:
    series_names = [s.name for s in table.series]
    if query.entity is None:
        if len(table.series) != 1:
            raise UndefinedResult("entity-free group on a multi-series table")
        return [(x, table.cells[0][j]) for j, x in enumerate(table.x_labels)]
    si = _find_exact(series_names, query.entity)
    if si is not None:
        return [(x, table.cells[si][j]) for j, x in enumerate(table.x_labels)]
    xi = _find_exact(table.x_labels, query.entity)
    if xi is not None:
        return [(s, table.cells[i][xi]) for i, s in enumerate(series_names)]
    raise UndefinedResult(f"cannot locate group {query.entity!r}")


def compute_gold(table: ChartTable, plan: QuestionPlan) -> GoldComputation:
    """Answer the plan by reading its cells straight off the table.

    Extraction never touches the query/answer strings, so it stays an
    independent check on the episode's reader; the reduce is ``deduce``'s own.
    """
    scalars: list[Value] = []
    groups: list[list[tuple[str, Value]]] = []
    for query in plan.queries:
        if query.op is QueryOp.EXTRACT_POINT:
            scalars.append(_gold_point(table, query))
        elif query.op is QueryOp.EXTRACT_GROUP:
            groups.append(_gold_group(table, query))
    counts = (len(table.series), len(table.x_labels))
    sentence, answer = _reduce(plan, scalars, groups[0] if groups else (), counts)
    return GoldComputation(answer, sentence)


# ---------------------------------------------------------------------------
# Deduction over reader answers.
# ---------------------------------------------------------------------------

def deduce(
    plan: QuestionPlan, reader_answers: Sequence[ReaderAnswer]
) -> tuple[str, Optional[Value]]:
    """Fold the reader's answers into a concluding sentence and final value.

    Any unavailable or misaligned answer produces the unknown conclusion (a
    no-answer verdict downstream) rather than an exception.
    """
    if len(reader_answers) != len(plan.queries) or any(
            a.kind is AnswerKind.UNAVAILABLE for a in reader_answers):
        return UNKNOWN_CONCLUSION, None
    description = next((a for a in reader_answers if a.kind is AnswerKind.DESCRIPTION), None)
    scalars = [a.scalar for a in reader_answers if a.kind is AnswerKind.SCALAR and a.scalar]
    groups = [a.pairs for a in reader_answers if a.kind is AnswerKind.GROUP]
    counts = None if description is None else (len(description.series),
                                               len(description.x_labels))
    try:
        return _reduce(plan, scalars, groups[0] if groups else (), counts)
    except (IndexError, UndefinedResult):
        return UNKNOWN_CONCLUSION, None


# ---------------------------------------------------------------------------
# The one reduce of both answer paths.
# ---------------------------------------------------------------------------

_POINT_REDUCES = (Reduce.IDENTITY, Reduce.SUM, Reduce.DIFFERENCE, Reduce.RATIO,
                  Reduce.COMPARE_YES_NO)


def _require_numbers(values: Sequence[Value]) -> list[Decimal]:
    numbers = []
    for v in values:
        if v.number is None:
            raise UndefinedResult(f"non-numeric value {v.raw!r}")
        numbers.append(v.number)
    return numbers


def _reduce(
    plan: QuestionPlan,
    scalars: Sequence[Value],
    pairs: Sequence[tuple[str, Value]],
    counts: Optional[tuple[int, int]],
) -> tuple[str, Value]:
    """Apply the plan's reduce to extracted values: the concluding sentence
    and the answer.

    ``scalars`` are the point values in query order, ``pairs`` the first
    group's (key, value) pairs and ``counts`` the chart's series and x-label
    counts (None without a figure description).  Raises UndefinedResult when
    the result is undefined and IndexError when too few values came in.
    """
    reduce = plan.reduce
    if reduce in (Reduce.COUNT_SERIES, Reduce.COUNT_X_LABELS):
        if counts is None:
            raise UndefinedResult("counting labels needs the figure description")
        n_series, n_x_labels = counts
        n, labels = ((n_series, "legend") if reduce is Reduce.COUNT_SERIES
                     else (n_x_labels, "x-axis"))
        return f"There are {n} {labels} labels. So the answer is {n}.", Value.from_raw(str(n))
    if reduce in _POINT_REDUCES or (reduce is Reduce.AVERAGE and scalars):
        keys, values = [], list(scalars)
    else:
        keys, values = [k for k, _ in pairs], [v for _, v in pairs]
    if not values:
        raise IndexError(f"no values to reduce by {reduce.value}")
    if reduce is Reduce.IDENTITY:
        v = values[0]
        return f"The value is {v.raw}. So the answer is {v.raw}.", v
    numbers = _require_numbers(values)

    if reduce is Reduce.SUM:
        total = sum(numbers, Decimal(0))
        expr = "+".join(v.raw for v in values)
        return f"The sum is {expr}={total}. So the answer is {total}.", Value.from_raw(str(total))
    if reduce is Reduce.DIFFERENCE:
        a, b = values[0].raw, values[1].raw
        d = numbers[0] - numbers[1]
        return f"{a} surpasses {b} by {a}-{b}={d}. So the answer is {d}.", Value.from_raw(str(d))
    if reduce is Reduce.RATIO:
        a, b = values[0].raw, values[1].raw
        if numbers[1] == 0:
            raise UndefinedResult("ratio with zero denominator")
        r = (numbers[0] / numbers[1]).quantize(_RATIO_STEP, rounding=ROUND_HALF_UP)
        return f"The ratio is {a}/{b}={r}. So the answer is {r}.", Value.from_raw(str(r))
    if reduce is Reduce.COMPARE_YES_NO:
        a, b = values[0].raw, values[1].raw
        if numbers[0] > numbers[1]:
            return f"{a} is greater than {b}. So the answer is yes.", Value.yes_no(True)
        return f"{a} is not greater than {b}. So the answer is no.", Value.yes_no(False)
    if reduce is Reduce.AVERAGE:
        m = (sum(numbers, Decimal(0)) / len(numbers)).quantize(_AVERAGE_STEP, ROUND_HALF_UP)
        expr = "(" + "+".join(v.raw for v in values) + f")/{len(numbers)}"
        return f"The average is {expr}={m}. So the answer is {m}.", Value.from_raw(str(m))
    if reduce in (Reduce.MIN, Reduce.ARGMIN):
        i = sorted(range(len(numbers)), key=lambda i: (numbers[i], i))[0]
        v, k = values[i], keys[i]
        answer = v.raw if reduce is Reduce.MIN else k
        text = f"The minimum value is {v.raw} in {k}. So the answer is {answer}."
        return text, Value.from_raw(answer)
    if reduce in (Reduce.MAX, Reduce.ARGMAX):
        i = sorted(range(len(numbers)), key=lambda i: (-numbers[i], i))[0]
        v, k = values[i], keys[i]
        answer = v.raw if reduce is Reduce.MAX else k
        text = f"The maximum value is {v.raw} in {k}. So the answer is {answer}."
        return text, Value.from_raw(answer)
    if reduce in (Reduce.COUNT_GREATER, Reduce.COUNT_LESS):
        threshold = plan.reduce_args[0]
        t = _require_numbers([threshold])[0]
        if reduce is Reduce.COUNT_GREATER:
            hits = [v for v, n in zip(values, numbers) if n > t]
            relation = "greater than"
        else:
            hits = [v for v, n in zip(values, numbers) if n < t]
            relation = "below"
        listing = ", ".join(v.raw for v in hits)
        n = len(hits)
        text = (f"The values that are {relation} {threshold.raw} are [{listing}]. "
                f"So the answer is {n}.")
        return text, Value.from_raw(str(n))
    if reduce is Reduce.SECOND_HIGHEST:
        i = sorted(range(len(numbers)), key=lambda i: (-numbers[i], i))[1]
        v, k = values[i], keys[i]
        text = f"The second highest value is {v.raw} in {k}. So the answer is {k}."
        return text, Value.from_raw(k)
    if reduce is Reduce.ARG_MATCH:
        # Every cell is a number by now, so a text target matches none.
        target = plan.reduce_args[0]
        for k, n in zip(keys, numbers):
            if n == target.number:
                return f"The value {target.raw} is in {k}. So the answer is {k}.", Value.from_raw(k)
        raise UndefinedResult(f"no cell equals {target.raw!r}")
    if reduce is Reduce.SUM_TWO_SMALLEST_VS_LARGEST:
        order = sorted(range(len(numbers)), key=lambda i: (numbers[i], i))
        # The two smallest read in list order, as the worked traces do.
        first, second = sorted(order[:2])
        a, b = values[first].raw, values[second].raw
        c = values[order[-1]].raw
        total = numbers[first] + numbers[second]
        largest = numbers[order[-1]]
        if total > largest:
            relation, verdict = "greater than", Value.yes_no(True)
        elif total < largest:
            relation, verdict = "smaller than", Value.yes_no(False)
        else:
            relation, verdict = "equal to", Value.yes_no(False)
        listing = ", ".join(v.raw for v in values)
        text = (f"Among [{listing}], the two smallest values are {a} and {b} while the "
                f"largest value is {c}. {a}+{b}={total}, which is {relation} {c}. "
                f"So the answer is {verdict.raw}.")
        return text, verdict
    raise UndefinedResult(f"unsupported reduce {reduce}")


# ---------------------------------------------------------------------------
# Template question generation.  Each generator draws from the rng and
# returns a _TEMPLATES key with its slot values; changing the order of the
# draws changes every generated question set.
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"\d{4}")


def _x_word(table: ChartTable) -> tuple[str, str]:
    if all(_YEAR_RE.fullmatch(x) for x in table.x_labels):
        return "year", "years"
    return "category", "categories"


def _numeric_row(table: ChartTable, i: int) -> bool:
    return all(v.number is not None for v in table.cells[i])


def _numeric_rows(table: ChartTable) -> list[int]:
    return [i for i in range(len(table.series)) if _numeric_row(table, i)]


def _gen_data_retrieval(table: ChartTable, rng: random.Random):
    word, _ = _x_word(table)
    rows = _numeric_rows(table)
    choices = ["point"] + (["arg_match"] if rows else [])
    kind = rng.choice(choices)
    if kind == "point":
        si = rng.randrange(len(table.series))
        x = table.x_labels[rng.randrange(len(table.x_labels))]
        if len(table.series) == 1:
            return "value", {"a": x}
        return "value_in", {"a": table.series[si].name, "x": x}
    si = rng.choice(rows)
    target = table.cells[si][rng.randrange(len(table.x_labels))]
    return "arg_match", {"word": word, "a": table.series[si].name, "target": target.raw}


def _gen_structural(table: ChartTable, rng: random.Random):
    return ("count_series" if rng.random() < 0.5 else "count_x_labels"), {}


def _two_distinct(rng: random.Random, n: int) -> tuple[int, int]:
    first = rng.randrange(n)
    second = rng.randrange(n - 1)
    if second >= first:
        second += 1
    return first, second


def _gen_arithmetic(table: ChartTable, rng: random.Random):
    _, words = _x_word(table)
    if len(table.series) == 1:
        if len(table.x_labels) < 2 or not _numeric_row(table, 0):
            raise SkippedTemplate("arithmetic needs two numeric cells")
        kind = rng.choice(["difference", "sum", "average"])
        if kind == "average":
            return "average_all", {"a": table.series[0].name, "words": words}
        xa, xb = _two_distinct(rng, len(table.x_labels))
        if kind == "difference" and table.cells[0][xa].number < table.cells[0][xb].number:
            xa, xb = xb, xa
        return kind, {"a": table.x_labels[xa], "b": table.x_labels[xb]}
    rows = _numeric_rows(table)
    if len(rows) < 2:
        raise SkippedTemplate("arithmetic needs two numeric series")
    kind = rng.choice(["difference", "sum", "average"])
    ia, ib = _two_distinct(rng, len(rows))
    sa, sb = rows[ia], rows[ib]
    xi = rng.randrange(len(table.x_labels))
    if kind == "difference" and table.cells[sa][xi].number < table.cells[sb][xi].number:
        sa, sb = sb, sa
    slots = {"a": table.series[sa].name, "b": table.series[sb].name, "x": table.x_labels[xi]}
    return kind + "_in", slots


def _gen_compound(table: ChartTable, rng: random.Random):
    rows = _numeric_rows(table)
    if not rows:
        raise SkippedTemplate("compound needs a numeric series")
    _, words = _x_word(table)
    si = rng.choice(rows)
    threshold = table.cells[si][rng.randrange(len(table.x_labels))]
    op = "greater than" if rng.random() < 0.5 else "below"
    slots = {"words": words, "op": op, "target": threshold.raw}
    if len(table.series) == 1:
        return "count_bar", slots
    return "count", {**slots, "a": table.series[si].name}


def _gen_comparison(table: ChartTable, rng: random.Random):
    single = len(table.series) == 1
    rows = _numeric_rows(table)
    kinds = []
    if rows and len(table.x_labels) >= 2:
        kinds.extend(["ratio", "greater"])
    if single and len(table.x_labels) >= 3 and _numeric_row(table, 0):
        kinds.append("two_smallest")
    if not single and len(rows) >= 2:
        kinds.append("greater_series")
    if not kinds:
        raise SkippedTemplate("comparison needs two numeric cells")
    kind = rng.choice(kinds)
    if kind == "two_smallest":
        return "two_smallest", {"det": "the "}
    if kind == "greater_series":
        ia, ib = _two_distinct(rng, len(rows))
        x = table.x_labels[rng.randrange(len(table.x_labels))]
        na, nb = table.series[rows[ia]].name, table.series[rows[ib]].name
        return "greater_in", {"a": na, "x": x, "b": nb, "y": x}
    si = rng.choice(rows)
    for _ in range(20):
        xa, xb = _two_distinct(rng, len(table.x_labels))
        if kind != "ratio" or table.cells[si][xb].number != 0:
            break
    else:
        raise SkippedTemplate("no nonzero denominator available")
    la, lb = table.x_labels[xa], table.x_labels[xb]
    if single:
        return kind, {"a": la, "b": lb}
    name = table.series[si].name
    if kind == "ratio":
        return "ratio_in", {"a": name, "x": la, "y": lb}
    return "greater_in", {"a": name, "x": la, "b": name, "y": lb}


def _gen_min_max(table: ChartTable, rng: random.Random):
    rows = _numeric_rows(table)
    if not rows:
        raise SkippedTemplate("min-max needs a numeric series")
    word, words = _x_word(table)
    name = table.series[rng.choice(rows)].name
    ops = ["minimum", "maximum", "lowest", "highest"]
    if len(table.x_labels) >= 2:
        ops.append("second_highest")
    op = rng.choice(ops)
    if op in _EXTREME:
        return "extreme", {"words": words, "op": op, "a": name}
    if op == "second_highest":
        return "second_highest", {"word": word, "a": name}
    return "arg_extreme", {"word": word, "a": name, "op": op}


_GENERATORS = {
    TemplateType.DATA_RETRIEVAL: _gen_data_retrieval,
    TemplateType.STRUCTURAL: _gen_structural,
    TemplateType.ARITHMETIC: _gen_arithmetic,
    TemplateType.COMPOUND: _gen_compound,
    TemplateType.COMPARISON: _gen_comparison,
    TemplateType.MIN_MAX: _gen_min_max,
}


def gen_questions(
    table: ChartTable,
    template_type: TemplateType,
    seed: int,
    n: int = 1,
    describe_first: bool = True,
) -> list[tuple[QAInstance, QuestionPlan]]:
    """Instantiate template questions over a table, deterministic under seed.

    Gold answers come from compute_gold's table reads, not from the plan's
    eventual execution.  Raises SkippedTemplate when the table cannot host
    the template (too small, non-numeric).
    """
    rng = random.Random(stable_seed(seed, template_type.value, table.source_id))
    generate = _GENERATORS[template_type]
    out: list[tuple[QAInstance, QuestionPlan]] = []
    for _ in range(n):
        key, slots = generate(table, rng)
        template = _TEMPLATES[key]
        plan = template.plan(slots, describe_first)
        gold = compute_gold(table, plan)
        question = template.form.format(**slots)
        out.append((QAInstance(question, gold.answer, table.source_id, template_type), plan))
    return out


# ---------------------------------------------------------------------------
# Reasoner backend: replays decompose/deduce through the episode loop.
# ---------------------------------------------------------------------------

def _align_entity(name: Optional[str], pool: Sequence[str]) -> Optional[str]:
    if name is None:
        return None
    match = closest_name(name, pool)
    return name if match is None else pool[match[0]]


class SymbolicReasoner:
    """Deterministic reasoner backend over the template grammar.

    Stateless across calls: each completion re-derives its position from the
    prompt, emits the next planned query (with entity spellings aligned to
    the figure description once it is available), and finally deduces the
    concluding sentence from the spliced reader answers.
    """

    def __init__(self, describe_first: bool = True):
        self.describe_first = describe_first

    def complete(
        self,
        prompt: str,
        stop_markers: Sequence[str],
        temperature: float,
        max_tokens: int,
    ) -> str:
        from .protocol import parse_reader_answer

        question = _last_question(prompt)
        if question is None:
            return UNKNOWN_CONCLUSION
        try:
            plan = decompose(question, describe_first=self.describe_first)
        except NotTemplated:
            return UNKNOWN_CONCLUSION
        lines = _lines_after_answer_marker(prompt)
        answers = [parse_reader_answer(line) for line in lines[1::2]]
        index = len(lines) // 2
        if index < len(plan.queries):
            return format_query(self._grounded(plan.queries[index], answers))
        text, _ = deduce(plan, answers)
        return text

    def _grounded(self, query: AtomicQuery, answers: Sequence[ReaderAnswer]) -> AtomicQuery:
        description = next((a for a in answers if a.kind is AnswerKind.DESCRIPTION), None)
        if query.op is QueryOp.DESCRIBE or description is None:
            return query
        series = list(description.series_names)
        pool = series + list(description.x_labels)
        if query.op is QueryOp.EXTRACT_POINT:
            return point_query(
                _align_entity(query.entity, pool) or "",
                _align_entity(query.by, pool),
            )
        if query.entity is None:
            # Name the only series explicitly, as the annotated traces do.
            if len(series) == 1:
                return group_query(series[0])
            return query
        return group_query(_align_entity(query.entity, pool))


def _last_question(prompt: str) -> Optional[str]:
    marker = prompt.rfind("\nQ: ")
    if marker < 0:
        if prompt.startswith("Q: "):
            marker = -1
        else:
            return None
    start = marker + 4
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def _lines_after_answer_marker(prompt: str) -> list[str]:
    marker = prompt.rfind("\nA: ")
    if marker < 0:
        return []
    text = prompt[marker + 4:]
    return [line for line in text.split("\n") if line]
