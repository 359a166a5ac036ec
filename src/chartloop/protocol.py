"""Bidirectional parser/formatter for the reasoner/reader step language.

Reasoner lines are one of three atomic queries, a concluding sentence ending
"... answer is X.", or opaque prose.  Reader lines are a scalar answer, an
enumerated group answer, or a figure description.  Both directions are exact:
formatting a parsed protocol line reproduces it byte for byte, which the test
suite pins against the shipped few-shot prompt.

One surface form is genuinely shared: ``Let's extract the data of <entity>.``
is what both a point query without BY and a group query with that entity
format to.  The parser maps it to a group query, and a line has one answer
whichever query it came from: the entity's row or column, or its one cell
on a single-series chart (see ``oracle.execute_query``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .tables import SeriesLabel, Value

DESCRIBE_QUERY = "Let's describe the figure."
EXTRACT_ALL_QUERY = "Let's extract all the values."
EXTRACT_PREFIX = "Let's extract the data of "
DATA_PREFIX = "The data is "
DESCRIPTION_PREFIX = "The figure shows the data of: "
UNAVAILABLE_ANSWER = "The data is not available."
BY_SEPARATOR = " BY "

PIPE_SEP = " | "
COMMA_SEP = ", "


class QueryOp(str, Enum):
    DESCRIBE = "describe"
    EXTRACT_POINT = "extract_point"
    EXTRACT_GROUP = "extract_group"


@dataclass(frozen=True)
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
    # The uppercase token separates entity from qualifier; entity names that
    # embed it are demoted at format time so the split stays unambiguous.
    return entity.replace(BY_SEPARATOR, " By ")


def format_query(query: AtomicQuery) -> str:
    """Render the canonical surface form of an atomic query."""
    if query.op is QueryOp.DESCRIBE:
        return DESCRIBE_QUERY
    if query.entity is None:
        return EXTRACT_ALL_QUERY
    by = "" if query.by is None else f"{BY_SEPARATOR}{_escape_entity(query.by)}"
    return f"{EXTRACT_PREFIX}{_escape_entity(query.entity)}{by}."


class StepKind(str, Enum):
    QUERY = "query"
    CONCLUSION = "conclusion"
    OTHER = "other"


@dataclass(frozen=True)
class ParsedStep:
    kind: StepKind
    query: Optional[AtomicQuery] = None
    final: Optional[Value] = None


_CONCLUSION_MARKER = "answer is "


def parse_step(line: str) -> ParsedStep:
    """Classify one reasoner-emitted line. Total: unrecognized text is OTHER.

    Conclusion detection matches a terminal "... answer is X." sentence and
    extracts X verbatim (trailing %/$ are kept here; normalization is the
    eval layer's concern).
    """
    stripped = line.rstrip("\r\n")
    if stripped == DESCRIBE_QUERY:
        return ParsedStep(StepKind.QUERY, query=describe_query())
    if stripped == EXTRACT_ALL_QUERY:
        return ParsedStep(StepKind.QUERY, query=group_query())
    if stripped.startswith(EXTRACT_PREFIX) and stripped.endswith("."):
        payload = stripped[len(EXTRACT_PREFIX):-1]
        if payload:
            if BY_SEPARATOR in payload:
                entity, _, by = payload.rpartition(BY_SEPARATOR)
                if entity and by:
                    return ParsedStep(StepKind.QUERY, query=point_query(entity, by))
            return ParsedStep(StepKind.QUERY, query=group_query(payload))
    if stripped.endswith(".") and _CONCLUSION_MARKER in stripped:
        tail = stripped[stripped.rfind(_CONCLUSION_MARKER) + len(_CONCLUSION_MARKER):]
        token = tail[:-1].strip()
        # A sentence boundary inside the tail means "answer is" was not part
        # of the terminal sentence.
        if token and ". " not in token:
            return ParsedStep(StepKind.CONCLUSION, final=Value.from_raw(token))
    return ParsedStep(StepKind.OTHER)


class AnswerKind(str, Enum):
    DESCRIPTION = "description"
    SCALAR = "scalar"
    GROUP = "group"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
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
    raw: Optional[str] = None

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


def unavailable_answer(raw: str) -> ReaderAnswer:
    return ReaderAnswer(AnswerKind.UNAVAILABLE, raw=raw)


_DESCRIPTION_RE = re.compile(
    r"^The figure shows the data of: (?P<series>.*?)\. The x-axis shows: (?P<xaxis>.*)\.$"
)
_COLOR_RE = re.compile(r"^(?P<name>.*) \((?P<color>[^()]*)\)$")
_PAIR_SPLIT_RE = re.compile(r", (?=\S+ in )")
_PAIR_ITEM_RE = re.compile(r"^\S+ in .+$")


def _parse_series_item(item: str) -> SeriesLabel:
    m = _COLOR_RE.match(item)
    if m:
        return SeriesLabel(m.group("name"), m.group("color"))
    return SeriesLabel(item, None)


def parse_reader_answer(text: str) -> ReaderAnswer:
    """Parse one reader response; unparseable text becomes UNAVAILABLE.

    An UNAVAILABLE result signals protocol drift (or the reader's explicit
    not-available sentinel), never a crash.
    """
    stripped = text.rstrip("\r\n")
    if stripped == UNAVAILABLE_ANSWER:
        return unavailable_answer(text)
    m = _DESCRIPTION_RE.match(stripped)
    if m:
        series = tuple(_parse_series_item(item) for item in m.group("series").split(PIPE_SEP))
        xaxis = m.group("xaxis")
        x_sep = PIPE_SEP if PIPE_SEP in xaxis else COMMA_SEP if COMMA_SEP in xaxis else PIPE_SEP
        return description_answer(series, tuple(xaxis.split(x_sep)), x_sep)
    if stripped.startswith(DATA_PREFIX) and stripped.endswith("."):
        payload = stripped[len(DATA_PREFIX):-1]
        if payload:
            items = _PAIR_SPLIT_RE.split(payload)
            if all(_PAIR_ITEM_RE.match(item) for item in items):
                pairs = []
                for item in items:
                    value_text, key = item.split(" in ", 1)
                    pairs.append((key, Value.from_raw(value_text)))
                return group_answer(pairs)
            if len(items) == 1:
                return scalar_answer(Value.from_raw(payload))
    return unavailable_answer(text)


def format_reader_answer(answer: ReaderAnswer) -> str:
    """Render the canonical response form; UNAVAILABLE cannot be formatted."""
    if answer.kind is AnswerKind.SCALAR:
        assert answer.scalar is not None
        return f"{DATA_PREFIX}{answer.scalar.raw}."
    if answer.kind is AnswerKind.GROUP:
        body = COMMA_SEP.join(f"{v.raw} in {k}" for k, v in answer.pairs)
        return f"{DATA_PREFIX}{body}."
    if answer.kind is AnswerKind.DESCRIPTION:
        series = PIPE_SEP.join(label.render() for label in answer.series)
        xaxis = answer.x_sep.join(answer.x_labels)
        return f"{DESCRIPTION_PREFIX}{series}. The x-axis shows: {xaxis}."
    raise ValueError("unavailable answers have no canonical form")
