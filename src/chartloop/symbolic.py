"""Rule-based reasoner for template questions.

* ``gen_questions`` asks distinct template questions of a table, drawn from
  what each ``_TEMPLATES`` row enumerates: the slot values of every question
  the row asks of the table that has exactly one right answer,
* ``decompose``/``deduce`` drive the live episode: pattern-match the question
  into atomic queries, then fold the reader's answers into a concluding
  sentence ending "So the answer is X.", and
* ``compute_gold`` is ``deduce`` over a perfect reader, which answers each
  query with ``oracle.read_table``'s read of the cells (never through the
  step protocol).

``deduce`` reads each data query's answer by one operand rule (``_operand``):
a value is one pair keyed by the query's entity, a group query's pairs are
its own, and a point query without BY, sent as the entity-only line that may
read as a row or column, takes the pair ``closest_name`` keys by its entity,
or else the only pair.  The fold gets one operand per data query, in order.

Each question meaning is one row of the ordered ``_TEMPLATES`` table: a
key, a type, a builder from slot values to the queries that read, and one
or more phrasings, surface strings with slots (the protocol lines' ``Form``
rule).  One string both renders a generated question and compiles to the
regex that ``decompose`` matches, so the two cannot drift apart.  A plan is
the describe query and then the row's queries, the row's key and the slot
values; the fold of the answers is named by the key alone, and reads
``{op}`` and ``{target}`` from the slots.

Running decompose -> reader -> deduce against compute_gold checks only that
reads survive the protocol, since both sides read (``oracle.read_table``)
and fold alike.  The fold itself is checked by the tests: a hand-computed
case table pins its arithmetic and wording, and a reference evaluator,
written per row from the cells, checks the gold of every question a table
hosts.
"""

from __future__ import annotations

import functools
import hashlib
import random
import re
from dataclasses import dataclass
from decimal import Decimal, DecimalException, ROUND_HALF_UP
from itertools import chain, islice, permutations, zip_longest
from typing import Callable, Optional, Sequence

from . import protocol  # parse_reader_answer is looked up on each cache miss, so wrappers see it
from .oracle import closest_name, read_table
from .protocol import (
    CONCLUSION,
    QUESTION_STUB,
    AnswerKind,
    AtomicQuery,
    Form,
    QueryOp,
    ReaderAnswer,
    describe_query,
    description_answer,
    format_query,
    group_answer,
    group_query,
    point_query,
    scalar_answer,
)
from .tables import ChartTable, QAInstance, TemplateType, Value

UNKNOWN_CONCLUSION = CONCLUSION.render("unknown")
_DATA_ANSWERS = (AnswerKind.SCALAR, AnswerKind.GROUP)


class SkippedTemplate(ValueError):
    """The table hosts no question of the requested template."""


class NotTemplated(ValueError):
    """The question matches no known template pattern."""


class UndefinedResult(ArithmeticError):
    """The fold has no defined result (e.g. division by zero)."""


@dataclass(frozen=True)
class QuestionPlan:
    """A question's decomposition: its atomic queries, the key of the
    ``_TEMPLATES`` row whose fold concludes, and that row's slot values as
    (name, text) pairs in name order (a tuple, so threads can share a plan)."""

    queries: tuple[AtomicQuery, ...]
    key: str
    slots: tuple[tuple[str, str], ...] = ()


def stable_seed(*parts: object) -> int:
    """Process-independent integer seed from arbitrary key parts."""
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Question grammar: one table drives both generation and decomposition.
# ---------------------------------------------------------------------------

class _Template:
    """One question meaning: its key, its type, its builder from slots to
    queries and its phrasings, each a ``Form`` over the builder's slots."""

    def __init__(self, key: str, template_type: TemplateType, build: Callable, *phrasings: str):
        self.key = key
        self.template_type = template_type
        self.build = build
        self.phrasings = tuple(map(Form, phrasings))

    def plan(self, slots: dict) -> QuestionPlan:
        return QuestionPlan((describe_query(), *self.build(slots)), self.key,
                            tuple(sorted(slots.items())))


def _points(s: dict) -> tuple[AtomicQuery, ...]:
    """Read {a} (in {x}), then {b} (in {y}) if either slot exists; {b} defaults
    to {a} and {y} to {x}."""
    a, x = s["a"], s.get("x")
    queries = (point_query(a, x),)
    if "b" in s or "y" in s:
        queries += (point_query(s.get("b", a), s.get("y", x)),)
    return queries


def _group(s: dict) -> tuple[AtomicQuery, ...]:
    """Read the group of {a} (the only series when absent)."""
    return (group_query(s.get("a")),)


_DR, _ST, _AR = TemplateType.DATA_RETRIEVAL, TemplateType.STRUCTURAL, TemplateType.ARITHMETIC
_CP, _CM, _MM = TemplateType.COMPOUND, TemplateType.COMPARISON, TemplateType.MIN_MAX

# One row per question meaning.  Rows, and a row's phrasings, match in order,
# so a more specific phrasing precedes any that would also match it.  A
# generated question is the first phrasing of its row with the slot names of
# its filling (``_FILLINGS``); the phrasings none renders are human-only.
_TEMPLATES: dict[str, _Template] = {row[0]: _Template(*row) for row in (
    ("count_series", _ST, lambda s: (),
     "How many legend labels are there?"),
    ("count_x_labels", _ST, lambda s: (),
     "How many x-axis labels are there?"),
    ("arg_match", _DR, _group,
     "In which {word:year|category} is the value of {a} equal to {target}?",
     r"In which {unit:\w+} the {measure} in {a} is {target}?"),
    ("difference", _AR, _points,
     "By how many points does {a} surpass {b} in {x} in the year of {year}?",
     "By how many points does the value in {a} surpass the value in {b}?",
     "By how many points does {a} surpass {b} in {x}?"),
    ("sum", _AR, _points,
     "What is the sum of the values of {a} and {b} in {x}?",
     "What is the sum of the values in {a} and {b}?"),
    ("average", _AR, _points,
     "What is the average of the values of {a} and {b} in {x}?"),
    ("average_all", _AR, _group,
     "What is the average value of {a} across all {words:years|categories}?"),
    ("count", _CP, _group,
     "In how many {words:years|categories}, is the value of the bar "
     "{op:greater than|below} {target}?",
     "In how many {words:years|categories}, is the value of {a} "
     "{op:greater than|below} {target}?"),
    ("ratio", _CM, _points,
     "What is the ratio of the value of {a} in {x} to that in {y}?",
     "What is the ratio of the value in {a} to that in {b}?"),
    ("greater", _CM, _points,
     "Is the value of {a} in {x} greater than the value of {b} in {y}?",
     "Is the value in {a} greater than the value in {b}?"),
    ("two_smallest", _CM, _group,
     "Is the sum of {det:the |}two smallest segments greater than the largest segment?"),
    ("extreme", _MM, _group,
     "Across all {words:years|categories}, what is the {op:minimum|maximum} value of {a}?",
     r"Across all {unit:\w+}, what is the {op:minimum|maximum} {measure:(?:.+ )?}in {a}?"),
    ("arg_extreme", _MM, _group,
     "In which {word:year|category} is the value of {a} the {op:highest|lowest}?"),
    ("second_highest", _MM, _group,
     "Which {word:year|category} has the second highest value of {a}?"),
    ("value", _DR, _points,
     "What is the value of {a} in {x}?",
     "What is the value of {a}?"),
)}


def decompose(question: str) -> QuestionPlan:
    """Pattern-match a question into a QuestionPlan: the describe query, then
    the data queries of the matching ``_TEMPLATES`` row.

    Entities are taken verbatim from the question text; spelling is aligned
    to the chart's own names later, once the figure description is in hand.
    Raises NotTemplated for anything outside the grammar (such questions need
    a real language model).
    """
    text = question.strip()
    for template in _TEMPLATES.values():
        for phrasing in template.phrasings:
            if m := phrasing.match(text):
                return template.plan(m.groupdict())
    raise NotTemplated(question)


# ---------------------------------------------------------------------------
# The answer path: deduce folds a reader's answers, and gold is deduce over a
# perfect reader of the table.
# ---------------------------------------------------------------------------

def _gold_answer(table: ChartTable, query: AtomicQuery) -> ReaderAnswer:
    """What a perfect reader answers a query: the table's description, or
    ``read_table``'s cell or pairs; UndefinedResult for a line that is not
    available."""
    if query.op is QueryOp.DESCRIBE:
        return description_answer(table.series, table.x_labels)
    read = read_table(table, query)
    if read is None:
        raise UndefinedResult(f"{query} is not available on {table.source_id}")
    return scalar_answer(read) if isinstance(read, Value) else group_answer(read)


def compute_gold(table: ChartTable, plan: QuestionPlan) -> Value:
    """The plan's answer: ``deduce`` over a perfect reader's answers.

    The reads come straight off the table, never through the query or answer
    strings; UndefinedResult when a read cannot be located or ``deduce``
    concludes unknown.
    """
    final = deduce(plan, [_gold_answer(table, query) for query in plan.queries])[1]
    if final is None:
        raise UndefinedResult(f"{plan.key} has no answer on {table.source_id}")
    return Value.from_raw(final)


def deduce(
    plan: QuestionPlan, reader_answers: Sequence[ReaderAnswer]
) -> tuple[str, Optional[str]]:
    """Fold the reader's answers into a concluding sentence and its answer as printed.

    Each answer is read against the query that asked it: a describe query
    takes a description, or leaves the fold without one when the figure is
    not available, and a data query takes only a value or pairs, which
    become its operand.  Any other answer, or an answer count other than the
    query count, produces the unknown conclusion and no answer (a no-answer
    verdict downstream) rather than an exception.
    """
    if len(reader_answers) != len(plan.queries):
        return UNKNOWN_CONCLUSION, None
    counts = None
    pairs: list[tuple[str, Value]] = []
    try:
        for query, answer in zip(plan.queries, reader_answers):
            if query.op is QueryOp.DESCRIBE and answer.kind is AnswerKind.DESCRIPTION:
                counts = (len(answer.series), len(answer.x_labels))
            elif query.op is QueryOp.DESCRIBE and answer.kind is AnswerKind.UNAVAILABLE:
                pass
            elif query.op is not QueryOp.DESCRIBE and answer.kind in _DATA_ANSWERS:
                pairs += _operand(query, answer.scalar or answer.pairs)
            else:
                raise UndefinedResult(f"a {answer.kind.value} answer to {query}")
        reason, final = _reduce(plan, pairs, counts)
    except (IndexError, UndefinedResult, DecimalException):
        return UNKNOWN_CONCLUSION, None
    return f"{reason} {CONCLUSION.render(final)}", final


def _operand(
    query: AtomicQuery, read: Value | Sequence[tuple[str, Value]]
) -> Sequence[tuple[str, Value]]:
    """A data query's read as the (key, value) pairs it adds to the fold, by
    the module's operand rule; UndefinedResult where the rule gives none."""
    if isinstance(read, Value):
        if query.entity is not None:
            return [(query.entity, read)]
    elif query.op is QueryOp.EXTRACT_GROUP:
        return read
    elif query.by is None:
        index = closest_name(query.entity, [key for key, _ in read])
        if index is not None or len(read) == 1:
            return [read[index or 0]]
    raise UndefinedResult(f"the read does not answer {query}")


# ---------------------------------------------------------------------------
# The fold.
# ---------------------------------------------------------------------------

def _require_numbers(values: Sequence[Value]) -> list[Decimal]:
    numbers = []
    for v in values:
        if v.number is None:
            raise UndefinedResult(f"non-numeric value {v.raw!r}")
        numbers.append(v.number)
    return numbers


def _rounded(number: Decimal, places: int) -> Decimal:
    """``number`` half up to ``places`` decimal places, or to 3 significant
    digits where ``places`` would keep fewer: a printed ratio or average lies
    within 0.5% of the exact one."""
    exponent = min(-places, number.adjusted() - 2) if number else -places
    return number.quantize(Decimal(1).scaleb(exponent), ROUND_HALF_UP)


def _reduce(
    plan: QuestionPlan,
    pairs: Sequence[tuple[str, Value]],
    counts: Optional[tuple[int, int]],
) -> tuple[str, str]:
    """Fold extracted values by the plan's row: the reasoning sentence and
    the answer as printed.

    ``pairs`` are the data queries' operands in query order, and ``counts``
    the chart's series and x-label counts (None without a figure
    description).  Raises UndefinedResult when the result is undefined,
    DecimalException when it cannot be rounded at Decimal's precision, and
    IndexError when too few values came in.
    """
    key, slots = plan.key, dict(plan.slots)
    if key in ("count_series", "count_x_labels"):
        if counts is None:
            raise UndefinedResult("counting labels needs the figure description")
        n, labels = (counts[0], "legend") if key == "count_series" else (counts[1], "x-axis")
        return f"There are {n} {labels} labels.", str(n)
    if not pairs:
        raise IndexError(f"no values to fold for {key}")
    keys, values = [k for k, _ in pairs], [v for _, v in pairs]
    if key == "value":
        v = values[0]
        return f"The value is {v.raw}.", v.raw
    numbers = _require_numbers(values)

    if key == "sum":
        total = sum(numbers, Decimal(0))
        expr = "+".join(v.raw for v in values)
        return f"The sum is {expr}={total}.", str(total)
    if key == "difference":
        a, b = values[0].raw, values[1].raw
        d = numbers[0] - numbers[1]
        return f"{a} surpasses {b} by {a}-{b}={d}.", str(d)
    if key == "ratio":
        a, b = values[0].raw, values[1].raw
        if numbers[1] == 0:
            raise UndefinedResult("ratio with zero denominator")
        r = _rounded(numbers[0] / numbers[1], 4)
        return f"The ratio is {a}/{b}={r}.", str(r)
    if key == "greater":
        a, b = values[0].raw, values[1].raw
        if numbers[0] > numbers[1]:
            return f"{a} is greater than {b}.", "yes"
        return f"{a} is not greater than {b}.", "no"
    if key in ("average", "average_all"):
        m = _rounded(sum(numbers, Decimal(0)) / len(numbers), 2)
        expr = "(" + "+".join(v.raw for v in values) + f")/{len(numbers)}"
        return f"The average is {expr}={m}.", str(m)
    if key in ("extreme", "arg_extreme"):
        lowest = slots["op"] in ("minimum", "lowest")
        i = min(range(len(numbers)), key=lambda i: (numbers[i] if lowest else -numbers[i], i))
        v, k = values[i], keys[i]
        answer = v.raw if key == "extreme" else k
        return f"The {'minimum' if lowest else 'maximum'} value is {v.raw} in {k}.", answer
    if key == "count":
        op, threshold = slots["op"], Value.from_raw(slots["target"])
        t = _require_numbers([threshold])[0]
        hits = [v for v, n in zip(values, numbers) if (n > t if op == "greater than" else n < t)]
        listing = ", ".join(v.raw for v in hits)
        return f"The values that are {op} {threshold.raw} are [{listing}].", str(len(hits))
    if key == "second_highest":
        i = sorted(range(len(numbers)), key=lambda i: (-numbers[i], i))[1]
        v, k = values[i], keys[i]
        return f"The second highest value is {v.raw} in {k}.", k
    if key == "arg_match":
        # Every cell is a number by now, so a text target matches none.
        target = Value.from_raw(slots["target"])
        for k, n in zip(keys, numbers):
            if n == target.number:
                return f"The value {target.raw} is in {k}.", k
        raise UndefinedResult(f"no cell equals {target.raw!r}")
    if key == "two_smallest":
        order = sorted(range(len(numbers)), key=lambda i: (numbers[i], i))
        # The two smallest read in list order, as the worked traces do.
        first, second = sorted(order[:2])
        a, b = values[first].raw, values[second].raw
        c = values[order[-1]].raw
        total = numbers[first] + numbers[second]
        largest = numbers[order[-1]]
        relation = ("greater than" if total > largest else
                    "smaller than" if total < largest else "equal to")
        listing = ", ".join(v.raw for v in values)
        return (f"Among [{listing}], the two smallest values are {a} and {b} while the "
                f"largest value is {c}. {a}+{b}={total}, which is {relation} {c}.",
                "yes" if total > largest else "no")
    raise UndefinedResult(f"row {key!r} has no fold")


# ---------------------------------------------------------------------------
# Template question generation.  Each row's enumerator lists the slot values
# of every question the row asks of a table that has exactly one right
# answer; the slot names pick the row's phrasing.  Only gen_questions draws
# from the rng.
# ---------------------------------------------------------------------------

_YEAR_RE = re.compile(r"\d{4}")


def _x_word(table: ChartTable) -> tuple[str, str]:
    if all(_YEAR_RE.fullmatch(x) for x in table.x_labels):
        return "year", "years"
    return "category", "categories"


def _numeric_rows(table: ChartTable) -> list[int]:
    return [i for i, row in enumerate(table.cells) if all(v.number is not None for v in row)]


def _held_once(table: ChartTable, i: int, number: Decimal) -> bool:
    """Whether exactly one cell of series i holds ``number``, so that the
    label holding it is the one right answer."""
    return [v.number for v in table.cells[i]].count(number) == 1


def _two_cells(table: ChartTable, along: bool, names: str,
               keep: Optional[Callable] = None) -> list[dict]:
    """Each ordered pair of distinct numeric cells, in one series (``along``)
    or at one x-label, whose two numbers ``keep`` accepts, as slots: x-labels
    {a} and {b} of the only series, else those of series {a} in {x} and
    series {b} in {y} that ``names`` lists: "abx", "axy" or "axby"."""
    rows, xs, cells = _numeric_rows(table), range(len(table.x_labels)), table.cells
    if along:
        pairs = [(p, j, p, k) for p in rows for j, k in permutations(xs, 2)]
    else:
        pairs = [(p, j, q, j) for p, q in permutations(rows, 2) for j in xs]
    if keep is not None:
        pairs = [(p, j, q, k) for p, j, q, k in pairs
                 if keep(cells[p][j].number, cells[q][k].number)]
    x, s = table.x_labels, [label.name for label in table.series]
    if len(s) == 1:
        return [{"a": x[j], "b": x[k]} for _, j, _, k in pairs]
    if names == "abx":
        return [{"a": s[p], "b": s[q], "x": x[j]} for p, j, q, _ in pairs]
    if names == "axy":
        return [{"a": s[p], "x": x[j], "y": x[k]} for p, j, _, k in pairs]
    return [{"a": s[p], "x": x[j], "b": s[q], "y": x[k]} for p, j, q, k in pairs]


def _whole_series(table: ChartTable, min_x: int, **slots: str) -> list[dict]:
    """``slots`` once if the only series is numeric and has ``min_x`` cells."""
    hosted = len(table.series) == 1 and len(table.x_labels) >= min_x and _numeric_rows(table)
    return [slots] if hosted else []


def _value(table: ChartTable) -> list[dict]:
    if len(table.series) == 1:
        return [{"a": x} for x in table.x_labels]
    return [{"a": s.name, "x": x} for s in table.series for x in table.x_labels]


def _arg_match(table: ChartTable) -> list[dict]:
    word = _x_word(table)[0]
    return [{"word": word, "a": table.series[i].name, "target": v.raw}
            for i in _numeric_rows(table) for v in table.cells[i]
            if _held_once(table, i, v.number)]


def _count(table: ChartTable) -> list[dict]:
    words, single = _x_word(table)[1], len(table.series) == 1
    return [{"words": words, "op": op, "target": target,
             **({} if single else {"a": table.series[i].name})}
            for i in _numeric_rows(table)
            for target in dict.fromkeys(v.raw for v in table.cells[i])
            for op in ("greater than", "below")]


def _extreme(table: ChartTable) -> list[dict]:
    words = _x_word(table)[1]
    return [{"words": words, "op": op, "a": table.series[i].name}
            for i in _numeric_rows(table) for op in ("minimum", "maximum")]


def _arg_extreme(table: ChartTable) -> list[dict]:
    word = _x_word(table)[0]
    return [{"word": word, "a": table.series[i].name, "op": op}
            for i in _numeric_rows(table) for op, best in (("lowest", min), ("highest", max))
            if _held_once(table, i, best(v.number for v in table.cells[i]))]


def _second_highest(table: ChartTable) -> list[dict]:
    word = _x_word(table)[0]
    return [{"word": word, "a": table.series[i].name} for i in _numeric_rows(table)
            if len(table.x_labels) >= 2
            and _held_once(table, i, sorted(v.number for v in table.cells[i])[-2])]


# Each _TEMPLATES row's enumerator, by row key.
_FILLINGS: dict[str, Callable[[ChartTable], list[dict]]] = {
    "count_series": lambda table: [{}],
    "count_x_labels": lambda table: [{}],
    "arg_match": _arg_match,
    "difference": lambda table: _two_cells(table, len(table.series) == 1, "abx",
                                           lambda m, n: m >= n),
    "sum": lambda table: _two_cells(table, len(table.series) == 1, "abx"),
    "average": lambda table: _two_cells(table, False, "abx"),
    "average_all": lambda table: _whole_series(table, 2, a=table.series[0].name,
                                               words=_x_word(table)[1]),
    "count": _count,
    "ratio": lambda table: _two_cells(table, True, "axy", lambda m, n: n != 0),
    "greater": lambda table: _two_cells(table, True, "axby") + _two_cells(table, False, "axby"),
    "two_smallest": lambda table: _whole_series(table, 3, det="the "),
    "extreme": _extreme,
    "arg_extreme": _arg_extreme,
    "second_highest": _second_highest,
    "value": _value,
}


def gen_questions(
    table: ChartTable, template_type: TemplateType, seed: int, n: int = 1
) -> list[tuple[QAInstance, QuestionPlan]]:
    """At most n distinct questions of a template over a table,
    deterministic under seed.

    The template's rows come in a seeded order and take turns, each giving
    its fillings in a seeded order.  So the first question comes from a
    uniformly drawn row, and a row with a single filling is not crowded out
    by one with hundreds; an n above what the table hosts asks each hosted
    question once.  Each plan is the one ``decompose`` gives the question,
    and its gold is ``compute_gold``'s.  Raises SkippedTemplate when the
    table hosts no question of the template.
    """
    rng = random.Random(stable_seed(seed, template_type.value, table.source_id))
    templates = [t for t in _TEMPLATES.values() if t.template_type is template_type]
    rng.shuffle(templates)
    rows = []
    for template in templates:
        if fillings := _FILLINGS[template.key](table):
            rows.append([(template, slots) for slots in rng.sample(fillings, min(n, len(fillings)))])
            if len(rows) >= n:  # the first turn alone asks n questions
                break
    if not rows:
        raise SkippedTemplate(f"{table.source_id} hosts no {template_type.value} question")
    out: list[tuple[QAInstance, QuestionPlan]] = []
    for template, slots in islice(filter(None, chain.from_iterable(zip_longest(*rows))), n):
        plan = template.plan(slots)
        gold = compute_gold(table, plan)
        form = next(f for f in template.phrasings if f.pattern.groupindex.keys() == slots.keys())
        question = form.render(*(slots[name] for name in form.pattern.groupindex))
        out.append((QAInstance(question, gold, table.source_id, template_type), plan))
    return out


# ---------------------------------------------------------------------------
# Reasoner backend: replays decompose/deduce through the episode loop.
# ---------------------------------------------------------------------------

def _align_entity(name: Optional[str], pool: Sequence[str]) -> Optional[str]:
    if name is None:
        return None
    index = closest_name(name, pool)
    return name if index is None else pool[index]


# Entries in each of a reasoner's two caches: room for the questions in flight
# and the lines of the chart being read, and no more, so that a long run holds
# a few charts' worth.
_MEMO_SIZE = 64


def _plan_of(question: str) -> Optional[QuestionPlan]:
    try:
        return decompose(question)
    except NotTemplated:
        return None


def _parse_line(line: str) -> ReaderAnswer:
    return protocol.parse_reader_answer(line)


class SymbolicReasoner:
    """Deterministic reasoner backend over the template grammar.

    Each completion finds the episode's stub in the prompt, emits the next
    planned query (the describe query first, then the data queries with
    entity spellings aligned to the figure description when the reader gave
    one), and finally deduces the concluding sentence from the spliced
    reader answers.

    Every prompt is read whole, so ``complete(prompt)`` returns what a fresh
    reasoner returns whatever came before.  What repeats is memoized in two
    bounded LRU caches keyed by text: one maps a question to its plan (None
    when it is not templated), the other maps a reader line to its parse,
    which depends on nothing else.  An episode's steps and self-consistency
    samples share the plan, and the questions of a chart share the parses of
    its lines.  Threads may share a reasoner without a lock: a race costs an
    extra decompose or parse, never a wrong answer.
    """

    def __init__(self):
        self._plan = functools.lru_cache(_MEMO_SIZE)(_plan_of)
        self._parse = functools.lru_cache(_MEMO_SIZE)(_parse_line)

    def complete(
        self,
        prompt: str,
        stop_markers: Sequence[str],
        temperature: float,
        max_tokens: int,
    ) -> str:
        stub = _find_stub(prompt)
        if stub is None:
            return UNKNOWN_CONCLUSION
        question, begin = stub
        plan = self._plan(question)
        if plan is None:
            return UNKNOWN_CONCLUSION
        lines = prompt[begin:].split("\n")[:-1]  # the unterminated rest is not a line
        answers = list(map(self._parse, lines[1::2]))
        index = len(lines) // 2
        if index < len(plan.queries):
            return format_query(self._grounded(plan.queries[index], answers))
        return deduce(plan, answers)[0]

    def _grounded(self, query: AtomicQuery, answers: Sequence[ReaderAnswer]) -> AtomicQuery:
        description = next((a for a in answers if a.kind is AnswerKind.DESCRIPTION), None)
        if query.op is QueryOp.DESCRIBE or description is None:
            return query
        series = list(description.series_names)
        pool = series + list(description.x_labels)
        if query.op is QueryOp.EXTRACT_POINT:
            entity = _align_entity(query.entity, pool) or ""
            return point_query(entity, _align_entity(query.by, pool))
        if query.entity is None:
            # Name the only series explicitly, as the annotated traces do.
            if len(series) == 1:
                return group_query(series[0])
            return query
        return group_query(_align_entity(query.entity, pool))


def _find_stub(prompt: str) -> Optional[tuple[str, int]]:
    """The episode's question and where its protocol lines begin.

    The stub is the last "Q: " line directly followed by a line beginning
    "A: " (``QUESTION_STUB``); the protocol lines start after that "A: ".  A
    spliced line that itself begins "Q: " or "A: " therefore moves neither.
    """
    end = len(prompt)
    while (answer := prompt.rfind(QUESTION_STUB.tail, 0, end)) >= 0:
        line = prompt.rfind("\n", 0, answer) + 1
        if prompt.startswith(QUESTION_STUB.head, line):
            return prompt[line + len(QUESTION_STUB.head):answer], answer + len(QUESTION_STUB.tail)
        end = answer
    return None

