"""Bidirectional parser/formatter for the reasoner/reader step language.

Reasoner lines are one of three atomic queries, a concluding sentence ending
"... answer is X.", or opaque prose.  Reader lines are a scalar answer, an
enumerated group answer, or a figure description.  Each line form is one
:class:`Form` string here, which both renders the line and reads it back;
the question grammar in ``symbolic`` uses the same slot rule.  Parsing a
formatted line gives back what was formatted, and formatting a parsed line
its bytes (the tests pin both on the shipped few-shot prompt and the closed
loop), except that a label holding a list separator (`` | `` in a series,
``, `` in a lone x-label), or a colourless series ending in ``(...)``,
reads back as other labels.

One surface form is genuinely shared: ``Let's extract the data of <entity>.``
is what both a point query without BY and a group query with that entity
format to.  The parser maps it to a group query, and a line has one answer
whichever query it came from: the entity's row or column, or its one cell
on a single-series chart (see ``oracle.read_table``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .tables import SeriesLabel, Value

_SLOT_RE = re.compile(r"\{(\w+)(?::([^{}]*))?\}")


class Form:
    """Literal text with slots: ``{name}`` matches any text, ``{name:regex}``
    only ``regex``.  ``render(*values)`` writes a line from the slot values in
    order, and ``match(line)`` reads them back by name, or gives None for
    another line.  Both are bound methods (of a positional format string and
    of ``pattern``), so neither adds a Python call; keyword formatting would
    double the cost of writing a line.  ``head`` and ``tail`` are the literal
    text before the first slot and after the last."""

    def __init__(self, surface: str):
        regex, end = "", 0
        for slot in _SLOT_RE.finditer(surface):
            regex += re.escape(surface[end:slot.start()]) + f"(?P<{slot[1]}>{slot[2] or '.+'})"
            end = slot.end()
        self.pattern = re.compile(regex + re.escape(surface[end:]), re.DOTALL)
        self.head, self.tail = _SLOT_RE.split(surface, 1)[0], surface[end:]
        self.render = _SLOT_RE.sub("{}", surface).format
        self.match = self.pattern.fullmatch


# The query lines.  A point line splits at its last " BY ", so ``by`` holds
# none; format demotes the token in names to " By " (``_escape_entity``).
DESCRIBE_QUERY = "Let's describe the figure."
EXTRACT_ALL_QUERY = "Let's extract all the values."
_GROUP_LINE = Form("Let's extract the data of {entity}.")
_POINT_LINE = Form("Let's extract the data of {entity} BY {by:(?!BY )(?!.* BY ).+}.")
BY_SEPARATOR = " BY "

# The reader's lines.  A description lists series, each with its colour if
# it has one, and then the x-labels; a data line holds one value or pairs.
UNAVAILABLE_ANSWER = "The data is not available."
_DESCRIPTION_LINE = Form(
    "The figure shows the data of: {series:.*?}. The x-axis shows: {xaxis:.*}.")
_COLORED_SERIES = Form("{name:.*} ({color:[^()]*})")
_DATA_LINE = Form("The data is {data}.")
_PAIR = Form(r"{value:\S+} in {key}")
_PAIR_SPLIT_RE = re.compile(r", (?=\S+ in )")
PIPE_SEP = " | "
COMMA_SEP = ", "

# The reasoner's last line (``parse_step`` also reads any terminal sentence
# ending "answer is X."), and the stub that asks it a question.
CONCLUSION = Form("So the answer is {answer}.")
_CONCLUSION_MARKER = "answer is "
QUESTION_STUB = Form("Q: {question}\nA: ")


def check_question(question: str) -> str:
    """``question`` as it is; ValueError if it holds a line break, which would
    split the ``QUESTION_STUB`` line that asks it."""
    if "\n" in question or "\r" in question:
        raise ValueError("the question holds a line break")
    return question


class QueryOp(str, Enum):
    DESCRIBE = "describe"
    EXTRACT_POINT = "extract_point"
    EXTRACT_GROUP = "extract_group"


@dataclass(frozen=True, slots=True)
class AtomicQuery:
    """One atomic operation the reasoner may issue to the reader."""

    op: QueryOp
    entity: Optional[str] = None
    by: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op is QueryOp.DESCRIBE and (self.entity or self.by):
            raise ValueError("describe takes no entity")
        if self.op is QueryOp.EXTRACT_POINT and not self.entity:
            raise ValueError("extract-point requires an entity")
        if self.op is QueryOp.EXTRACT_GROUP and self.by:
            raise ValueError("extract-group takes no BY qualifier")


def describe_query() -> AtomicQuery:
    return AtomicQuery(QueryOp.DESCRIBE)


def point_query(entity: str, by: Optional[str] = None) -> AtomicQuery:
    return AtomicQuery(QueryOp.EXTRACT_POINT, entity, by)


def group_query(entity: Optional[str] = None) -> AtomicQuery:
    return AtomicQuery(QueryOp.EXTRACT_GROUP, entity)


def _escape_entity(entity: str) -> str:
    return entity.replace(BY_SEPARATOR, " By ")


def format_query(query: AtomicQuery) -> str:
    """Render the canonical surface form of an atomic query."""
    if query.op is QueryOp.DESCRIBE:
        return DESCRIBE_QUERY
    if query.entity is None:
        return EXTRACT_ALL_QUERY
    if query.by is None:
        return _GROUP_LINE.render(_escape_entity(query.entity))
    return _POINT_LINE.render(_escape_entity(query.entity), _escape_entity(query.by))


def parse_step(line: str) -> AtomicQuery | Value | None:
    """What one reasoner-emitted line says: the query it asks, the final
    ``Value`` it concludes, or None for anything else (total).

    Conclusion detection matches a terminal "... answer is X." sentence and
    extracts X verbatim (trailing %/$ are kept here; normalization is the
    eval layer's concern).  X holds no ". " unless the sentence is
    ``CONCLUSION``'s "So the answer is X.", whose X runs to the final ".".
    """
    stripped = line.rstrip("\r\n")
    if stripped == DESCRIBE_QUERY:
        return describe_query()
    if stripped == EXTRACT_ALL_QUERY:
        return group_query()
    if BY_SEPARATOR in stripped and (m := _POINT_LINE.match(stripped)):
        return point_query(m["entity"], m["by"])
    if m := _GROUP_LINE.match(stripped):
        return group_query(m["entity"])
    if stripped.endswith(".") and _CONCLUSION_MARKER in stripped:
        before, marker, tail = stripped.rpartition(_CONCLUSION_MARKER)
        token = tail[:-1].strip()
        # A sentence boundary inside the tail means "answer is" was not part
        # of the terminal sentence, except in CONCLUSION's own form.
        if token and (". " not in token or (before + marker).endswith(CONCLUSION.head)):
            return Value.from_raw(token)
    return None


class AnswerKind(str, Enum):
    DESCRIPTION = "description"
    SCALAR = "scalar"
    GROUP = "group"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True, slots=True)
class ReaderAnswer:
    """A parsed reader response.

    Exactly one payload is populated per kind: descriptions carry series and
    x-labels, scalar answers carry one value, group answers carry ordered
    (key, value) pairs.  ``x_sep`` records which list separator the source
    description used so re-rendering is byte-exact (the shipped prompts mix
    pipes and commas).
    """

    kind: AnswerKind
    series: tuple[SeriesLabel, ...] = ()
    x_labels: tuple[str, ...] = ()
    x_sep: str = PIPE_SEP
    scalar: Optional[Value] = None
    pairs: tuple[tuple[str, Value], ...] = ()

    @property
    def series_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)


def description_answer(
    series: tuple[SeriesLabel, ...] | list[SeriesLabel],
    x_labels: tuple[str, ...] | list[str],
    x_sep: str = PIPE_SEP,
) -> ReaderAnswer:
    return ReaderAnswer(AnswerKind.DESCRIPTION, series=tuple(series), x_labels=tuple(x_labels), x_sep=x_sep)


def scalar_answer(value: Value) -> ReaderAnswer:
    return ReaderAnswer(AnswerKind.SCALAR, scalar=value)


def group_answer(pairs: list[tuple[str, Value]] | tuple[tuple[str, Value], ...]) -> ReaderAnswer:
    if not pairs:
        raise ValueError("group answers carry at least one pair")
    return ReaderAnswer(AnswerKind.GROUP, pairs=tuple(pairs))


_UNAVAILABLE = ReaderAnswer(AnswerKind.UNAVAILABLE)


def parse_reader_answer(text: str) -> ReaderAnswer:
    """Parse one reader response into a description, scalar or group answer.

    The not-available sentinel and unparseable text (protocol drift) both
    give one shared UNAVAILABLE answer with no payload, never a crash.
    """
    stripped = text.rstrip("\r\n")
    if stripped == UNAVAILABLE_ANSWER:
        return _UNAVAILABLE
    if m := _DESCRIPTION_LINE.match(stripped):
        series = [SeriesLabel(*colored.groups()) if (colored := _COLORED_SERIES.match(item))
                  else SeriesLabel(item) for item in m["series"].split(PIPE_SEP)]
        xaxis = m["xaxis"]
        x_sep = PIPE_SEP if PIPE_SEP in xaxis else COMMA_SEP if COMMA_SEP in xaxis else PIPE_SEP
        return description_answer(series, tuple(xaxis.split(x_sep)), x_sep)
    if m := _DATA_LINE.match(stripped):
        items = _PAIR_SPLIT_RE.split(m["data"])
        pairs = [_PAIR.match(item) for item in items]
        if all(pairs):
            return group_answer([(pair["key"], Value.from_raw(pair["value"])) for pair in pairs])
        if len(items) == 1:
            return scalar_answer(Value.from_raw(m["data"]))
    return _UNAVAILABLE


def format_scalar(value: Value) -> str:
    """The data line of one value, as :func:`format_reader_answer` renders its
    scalar answer.  The table oracle writes one line per read and builds no
    ``ReaderAnswer`` for it: building one cost more than rendering the line."""
    return _DATA_LINE.render(value.raw)


def format_group(pairs: Sequence[tuple[str, Value]]) -> str:
    """The data line of ``(key, value)`` pairs in order, as
    :func:`format_reader_answer` renders their group answer; like
    :func:`group_answer`, no pairs raise ValueError."""
    if not pairs:
        raise ValueError("group answers carry at least one pair")
    return _DATA_LINE.render(COMMA_SEP.join([_PAIR.render(v.raw, k) for k, v in pairs]))


def format_reader_answer(answer: ReaderAnswer) -> str:
    """Render the canonical response form; UNAVAILABLE cannot be formatted."""
    if answer.kind is AnswerKind.SCALAR:
        assert answer.scalar is not None
        return format_scalar(answer.scalar)
    if answer.kind is AnswerKind.GROUP:
        return format_group(answer.pairs)
    if answer.kind is AnswerKind.DESCRIPTION:
        series = PIPE_SEP.join([_COLORED_SERIES.render(s.name, s.color) if s.color else s.name
                                for s in answer.series])
        return _DESCRIPTION_LINE.render(series, answer.x_sep.join(answer.x_labels))
    raise ValueError("unavailable answers have no canonical form")
