"""Core domain types: chart tables, values, questions, and reasoning traces.

Everything here is immutable after construction so tables and traces can be
shared freely across concurrent evaluation workers.  A ``Value`` is a printed
token and the number it shows, with no kind: only scoring (``evalkit``)
classifies an answer as a number, a yes/no or text.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DefaultContext, InvalidOperation
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Optional, Sequence


class TableError(ValueError):
    """Raised when a chart table violates its structural invariants."""


class TraceError(ValueError):
    """Raised when a reasoning trace violates the trace invariants."""


# What the ``from_dict`` constructors raise on a decoded object of the wrong
# shape: a missing key, a wrong type or a bad value, plus the
# ``RecursionError`` of JSON nested too deep to decode.  ``TableError``,
# ``TraceError`` and JSON decode errors are ``ValueError``s.
SHAPE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError, RecursionError)


def shape_reason(exc: BaseException) -> str:
    """What a caught ``SHAPE_ERRORS`` exception says: a missing key reads
    ``missing <key>``, as a null field does, and anything else its own text."""
    return f"missing {exc.args[0]}" if type(exc) is KeyError else str(exc)


def _json_encoder() -> Callable[[Any], str]:
    """``json.dumps(obj, ensure_ascii=False)`` as one function.

    ``JSONEncoder.encode`` builds a new C encoder on every call, which cost
    about 40% of encoding a reader training pair; this one is built once, with
    the settings ``dumps`` passes it except the circular-reference check,
    which no record needs (none holds itself).  Where the interpreter has no
    C accelerator (``json.encoder.c_make_encoder`` is None) it is
    ``JSONEncoder(ensure_ascii=False).encode``: the same text, slower."""
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return json.JSONEncoder(ensure_ascii=False).encode
    encode = make_encoder(None, json.JSONEncoder().default, json.encoder.encode_basestring,
                          None, ": ", ", ", False, False, True)

    def encode_json(obj: Any) -> str:
        return "".join(encode(obj, 0))

    return encode_json


# Every JSON line the package writes (charts, records, traces, training data)
# goes through this one encoder.
encode_json = _json_encoder()

_JSON_TYPE_NAMES = {bool: "a boolean", dict: "an object", list: "an array", str: "a string",
                    int: "a number", float: "a number"}


def _field_error(raw: Any, field: str, index: tuple[int, ...], wanted: str) -> ValueError:
    where = field + "".join(f"[{i}]" for i in index)
    kind = _JSON_TYPE_NAMES.get(type(raw), type(raw).__name__)
    return ValueError(f"missing {where}" if raw is None else
                      f"{where} must be {wanted}, not {kind}")


def text_field(raw: Any, field: str, *index: int) -> str:
    """A decoded JSON text field as text: a string as it is, a number (not a
    boolean) through ``str()``.  Null or any other JSON value raises ValueError
    naming the field, ``field`` followed by each ``index`` in brackets.  Every
    reader of JSON rows takes its text fields through here.  Callers that run
    once per cell or label test for ``str`` first and skip the call, which cost
    about 5% of loading a 10-chart corpus."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return str(raw)
    raise _field_error(raw, field, index, "a string or a number")


def array_field(raw: Any, field: str, *index: int) -> list:
    """A decoded JSON array field as it is; null or any other JSON value raises
    ValueError naming the field as :func:`text_field` does, so a string is
    never read one character at a time."""
    if isinstance(raw, list):
        return raw
    raise _field_error(raw, field, index, "an array")


# A printed number is a plain decimal, or one with thousands commas, a leading
# "$" and a trailing "%" (group 1 drops the "$" and "%").
_NUMERIC_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_DECORATED_RE = re.compile(
    r"(?:\$\s*)?([+-]?(?:(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)(?:\s*%)?")
# Rounding to the context's 28 digits can carry into the next exponent: "< _EMAX".
_EMIN, _EMAX, _PREC = DefaultContext.Emin, DefaultContext.Emax, DefaultContext.prec
# Normalizes without rounding: any coefficient fits its precision.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def parse_number(text: str) -> Optional[Decimal]:
    """The number a stripped printed token shows, with any "$", "%" and
    thousands commas dropped ("45%" reads 45), else None.  The one rule for
    what a printed number is; one whose adjusted exponent is outside the
    default context's [Emin, Emax) is text, so rendering it cannot overflow,
    and so is one whose exponent the constructor itself rejects."""
    if not _NUMERIC_RE.fullmatch(text):
        # Only a "$", "%" or "," lets _DECORATED_RE match where _NUMERIC_RE did not.
        match = ("$" in text or "%" in text or "," in text) and _DECORATED_RE.fullmatch(text)
        if not match:
            return None
        text = match[1].replace(",", "")
    try:
        number = Decimal(text)
    except InvalidOperation:  # an exponent beyond what a Decimal can hold
        return None
    return number if _EMIN <= number.adjusted() < _EMAX else None


def canonical_decimal(d: Decimal) -> str:
    """Render a Decimal with every digit and without trailing zeros, and
    without exponent notation while its adjusted exponent is within the
    context precision; beyond that it is written with an exponent ("1E+40"),
    so the text stays short.  Nothing is rounded: ``Decimal.normalize()`` in
    the default context would round to 28 digits and give distinct long
    numbers one rendering."""
    if d == 0:
        return "0"
    if -_PREC <= d.adjusted() < _PREC:
        text = format(d, "f")
        return text.rstrip("0").rstrip(".") if "." in text else text
    return str(d.normalize(_EXACT))


@dataclass(frozen=True, slots=True)
class Value:
    """A table cell or answer value, preserving the source's printed form.

    ``raw`` is the exact text as printed, except that a yes/no is stripped of
    its padding; a number additionally carries a parsed ``Decimal``, so
    arithmetic never goes through binary floats and rendering never
    re-rounds.  It holds no kind: only scoring classifies an answer.
    """

    raw: str
    number: Optional[Decimal] = None

    @staticmethod
    def from_raw(raw: str) -> "Value":
        """A printed token with the number :func:`parse_number` reads in it,
        if any (``raw`` keeps any "$", "%" and commas); a yes/no is stripped."""
        stripped = raw.strip()
        if stripped.lower() in ("yes", "no"):
            return Value(stripped)
        return Value(raw, parse_number(stripped))


@dataclass(frozen=True, slots=True)
class SeriesLabel:
    """A data series name with its optional legend color."""

    name: str
    color: Optional[str] = None


# A series label's name; ``map`` reads it in C, cheaper per chart than a comprehension.
_SERIES_NAME = attrgetter("name")


@dataclass(frozen=True, slots=True)
class ChartTable:
    """The ground-truth table underlying a chart.

    ``cells[i][j]`` is the value of series ``i`` at x-label ``j``.  Row/column
    shape is enforced at construction; non-empty axes, name uniqueness and
    cell non-emptiness are enforced by :meth:`validate`, which every
    ingestion and generation path calls (raw construction stays permissive
    because real chart corpora contain degenerate axes, e.g. repeated year
    groups).
    """

    source_id: str
    series: tuple[SeriesLabel, ...]
    x_labels: tuple[str, ...]
    cells: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.series):
            raise TableError(
                f"{self.source_id}: {len(self.cells)} cell rows for {len(self.series)} series"
            )
        for i, row in enumerate(self.cells):
            if len(row) != len(self.x_labels):
                raise TableError(
                    f"{self.source_id}: row {i} has {len(row)} cells for "
                    f"{len(self.x_labels)} x-labels"
                )

    @staticmethod
    def build(
        source_id: str,
        series: Sequence[tuple[str, Optional[str]] | str],
        x_labels: Sequence[str],
        cells: Sequence[Sequence[str]],
    ) -> "ChartTable":
        """Construct from plain strings; cell strings keep their precision."""
        labels = tuple(
            SeriesLabel(s, None) if isinstance(s, str) else SeriesLabel(s[0], s[1])
            for s in series
        )
        rows = tuple(tuple(Value.from_raw(str(c)) for c in row) for row in cells)
        return ChartTable(source_id, labels, tuple(x_labels), rows)

    def validate(self) -> None:
        """Check uniqueness and non-emptiness invariants; raise TableError."""
        if not self.series or not self.x_labels:
            raise TableError(f"{self.source_id}: no {'series' if not self.series else 'x-labels'}")
        for axis, labels in (("series name", map(_SERIES_NAME, self.series)),
                             ("x-label", self.x_labels)):
            seen: set[str] = set()
            for label in labels:
                key = normalize_name(label)
                if not key:
                    raise TableError(f"{self.source_id}: empty {axis}")
                if key in seen:
                    raise TableError(f"{self.source_id}: duplicate {axis} {label!r}")
                seen.add(key)
        for i, row in enumerate(self.cells):
            for cell in row:
                # A number is never blank, and the first cell equal to the
                # first blank one is that cell.
                if cell.number is None and not cell.raw.strip():
                    raise TableError(f"{self.source_id}: empty cell at [{i}][{row.index(cell)}]")

    def to_dict(self) -> dict:
        return {
            "id": self.source_id,
            "series": [{"name": s.name, "color": s.color} for s in self.series],
            "x_labels": list(self.x_labels),
            "cells": [[v.raw for v in row] for row in self.cells],
        }

    def to_json(self) -> str:
        return encode_json(self.to_dict())


def normalize_name(name: str) -> str:
    """Case-fold and collapse whitespace for entity comparison."""
    return " ".join(name.split()).casefold()


def underlying_length(table: ChartTable) -> int:
    """Number of data cells: table complexity measure for the analysis plots."""
    return len(table.series) * len(table.x_labels)


def check_bucket_edges(edges: Sequence[int]) -> None:
    """Raise ValueError unless the edges are non-empty and strictly increasing."""
    if not edges:
        raise ValueError("bucket edges must be non-empty")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bucket edges must be strictly increasing")


def bucket_length(length: int, edges: Sequence[int]) -> int:
    """Index of the half-open interval [edge_i, edge_{i+1}) containing length.

    Values at or beyond the last edge fall into the final bucket; values below
    the first edge clamp to bucket 0.
    """
    check_bucket_edges(edges)
    index = 0
    for i, edge in enumerate(edges):
        if length >= edge:
            index = i
        else:
            break
    return index


def bucket_labels(edges: Sequence[int]) -> list[str]:
    labels = [f"[{a},{b})" for a, b in zip(edges, edges[1:])]
    labels.append(f"{edges[-1]}+")
    return labels


class TemplateType(str, Enum):
    DATA_RETRIEVAL = "data_retrieval"
    STRUCTURAL = "structural"
    ARITHMETIC = "arithmetic"
    COMPOUND = "compound"
    COMPARISON = "comparison"
    MIN_MAX = "min_max"


# Each member by its value: a lookup costs about a twentieth of an Enum call,
# which a load pays per QA row and a trace read per step.
_TEMPLATE_TYPES = {template.value: template for template in TemplateType}


def _member(enum: type, members: dict, raw: Any) -> Any:
    """The member named ``raw``, else what the Enum call gives or raises."""
    return members[raw] if type(raw) is str and raw in members else enum(raw)


def template_field(raw: Any) -> Optional[TemplateType]:
    """A decoded ``template_type`` field: null or ``""`` means no template;
    any other value is read by the :func:`text_field` rule and must name a
    ``TemplateType``, else ValueError.  Every reader of QA rows takes its
    template through here."""
    if raw is None or raw == "":
        return None
    return _member(TemplateType, _TEMPLATE_TYPES,
                   raw if type(raw) is str else text_field(raw, "template_type"))


@dataclass(frozen=True, slots=True)
class QAInstance:
    """A question over a chart with its gold answer.

    ``template_type`` is present iff the instance came from a template
    generator or a template-tagged corpus.
    """

    question: str
    gold: Value
    chart_id: str
    template_type: Optional[TemplateType] = None

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "gold": self.gold.raw,
            "chart_id": self.chart_id,
            "template_type": self.template_type.value if self.template_type else None,
        }

    @staticmethod
    def from_dict(obj: dict) -> "QAInstance":
        return QAInstance(
            question=text_field(obj.get("question"), "question"),
            gold=Value.from_raw(text_field(obj.get("gold"), "gold")),
            chart_id=text_field(obj.get("chart_id"), "chart_id"),
            template_type=template_field(obj.get("template_type")),
        )


class StepRole(str, Enum):
    REASONER_QUERY = "reasoner_query"
    READER_ANSWER = "reader_answer"
    CONCLUSION = "conclusion"
    PROTOCOL_ERROR = "protocol_error"


class Termination(str, Enum):
    CONCLUSION = "conclusion"
    MAX_STEPS = "max_steps"
    BACKEND_ERROR = "backend_error"
    PARSE_ERROR = "parse_error"


_STEP_ROLES = {role.value: role for role in StepRole}
_TERMINATIONS = {termination.value: termination for termination in Termination}


@dataclass(frozen=True, slots=True)
class Step:
    role: StepRole
    text: str


@dataclass(frozen=True, slots=True)
class ReasoningTrace:
    """An episode transcript: reasoner lines, spliced reader answers, outcome."""

    steps: tuple[Step, ...]
    final: Optional[Value]
    terminated_by: Termination

    def to_dict(self) -> dict:
        return {
            "steps": [{"role": s.role.value, "text": s.text} for s in self.steps],
            "final": self.final.raw if self.final else None,
            "terminated_by": self.terminated_by.value,
        }

    @staticmethod
    def from_dict(obj: dict) -> "ReasoningTrace":
        """Step texts and a non-null final are read by the :func:`text_field`
        rule, and the steps by :func:`array_field`'s, so a null, or a value
        of the wrong type, raises ValueError naming the field."""
        steps = tuple(
            Step(_member(StepRole, _STEP_ROLES, s["role"]),
                 text if type(text := s.get("text")) is str
                 else text_field(text, f"steps[{i}].text"))
            for i, s in enumerate(array_field(obj.get("steps"), "steps")))
        final = obj.get("final")
        if final is not None:
            final = Value.from_raw(final if type(final) is str else text_field(final, "final"))
        terminated_by = _member(Termination, _TERMINATIONS, obj["terminated_by"])
        return ReasoningTrace(steps, final, terminated_by)


def validate_trace(trace: ReasoningTrace) -> None:
    """Enforce the trace invariants every producer must satisfy."""
    previous: Optional[StepRole] = None
    for i, step in enumerate(trace.steps):
        if step.role is StepRole.READER_ANSWER and previous is not StepRole.REASONER_QUERY:
            raise TraceError(f"step {i}: reader answer not preceded by a reasoner query")
        if step.role is StepRole.CONCLUSION and i != len(trace.steps) - 1:
            raise TraceError(f"step {i}: conclusion is not the last step")
        previous = step.role
    if trace.terminated_by is Termination.CONCLUSION:
        if trace.final is None:
            raise TraceError("conclusion termination without a final value")
        if not trace.steps or trace.steps[-1].role is not StepRole.CONCLUSION:
            raise TraceError("conclusion termination without a conclusion step")
    else:
        if trace.final is not None:
            raise TraceError(f"final value set for {trace.terminated_by.value} termination")
