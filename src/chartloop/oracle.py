"""Deterministic reader over ground-truth tables.

Executes atomic queries against a ChartTable and returns the exact answer
strings a perfect visual reader would produce.  Entity resolution is exact
after case/whitespace normalization, with an edit-similarity fallback (0.8
threshold) so lightly paraphrased reasoner queries still land; out-of-chart
entities get a fixed "not available" sentence rather than an exception, and
the episode continues.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .protocol import (
    AtomicQuery,
    QueryOp,
    UNAVAILABLE_ANSWER,
    description_answer,
    format_reader_answer,
    group_answer,
    parse_step,
    scalar_answer,
    StepKind,
)
from .tables import ChartTable, normalize_name

FUZZY_THRESHOLD = 0.8


class EntityNotFound(LookupError):
    """No series or x-label matched the requested entity closely enough."""


class ChartNotFound(KeyError):
    """The reader has no table for the requested chart reference."""


class Axis(str, Enum):
    SERIES = "series"
    X_LABEL = "x_label"


@dataclass(frozen=True)
class EntityResolution:
    axis: Axis
    index: int
    matched_name: str
    score: float


def _edit_distance(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def edit_similarity(a: str, b: str) -> float:
    """Normalized edit similarity in [0, 1] over normalized names."""
    na, nb = normalize_name(a), normalize_name(b)
    if not na and not nb:
        return 1.0
    longest = max(len(na), len(nb))
    return 1.0 - _edit_distance(na, nb) / longest


def closest_name(
    name: str, names: Sequence[str], threshold: float = FUZZY_THRESHOLD
) -> Optional[tuple[int, float]]:
    """Index and score of the entry of ``names`` that ``name`` means, or None.

    An exact normalized match wins outright; otherwise the highest
    edit-similarity entry at or above the threshold is taken, the first entry
    winning ties.
    """
    wanted = normalize_name(name)
    for index, candidate in enumerate(names):
        if normalize_name(candidate) == wanted:
            return index, 1.0
    best: Optional[tuple[int, float]] = None
    for index, candidate in enumerate(names):
        score = edit_similarity(name, candidate)
        if score >= threshold and (best is None or score > best[1]):
            best = index, score
    return best


def _candidates(table: ChartTable, axis: Optional[Axis]) -> list[tuple[Axis, int, str]]:
    out: list[tuple[Axis, int, str]] = []
    if axis in (None, Axis.SERIES):
        out.extend((Axis.SERIES, i, s.name) for i, s in enumerate(table.series))
    if axis in (None, Axis.X_LABEL):
        out.extend((Axis.X_LABEL, j, x) for j, x in enumerate(table.x_labels))
    return out


def resolve_entity(
    table: ChartTable,
    name: str,
    axis: Optional[Axis] = None,
    threshold: float = FUZZY_THRESHOLD,
) -> EntityResolution:
    """Resolve a name to a series or x-label, series axis first, then x-labels.

    Exact normalized matches win outright; otherwise the highest
    edit-similarity candidate above the threshold is taken, ties broken by
    series axis first and then lowest index.  Deterministic for a given
    (table, name).
    """
    if not name:
        raise EntityNotFound("empty entity name")
    candidates = _candidates(table, axis)
    match = closest_name(name, [cand_name for _, _, cand_name in candidates], threshold)
    if match is None:
        raise EntityNotFound(f"no entity close to {name!r} in chart {table.source_id}")
    cand_axis, index, cand_name = candidates[match[0]]
    return EntityResolution(cand_axis, index, cand_name, match[1])


def describe(table: ChartTable) -> str:
    """Canonical figure description: series with colors, then the x-axis."""
    return format_reader_answer(description_answer(table.series, table.x_labels))


def extract_point(table: ChartTable, entity: str, by: Optional[str] = None) -> str:
    """Answer a point lookup with the cell's printed value.

    With a BY qualifier, entity and qualifier are resolved to opposite axes
    (either orientation is accepted).  Without one, the coordinates are only
    unambiguous on a single-series chart (entity names an x-label) or a
    single-column chart (entity names a series); anything else gets the
    not-available sentinel.
    """
    try:
        if by is not None:
            series_idx, x_idx = _resolve_pair(table, entity, by)
        elif len(table.series) == 1:
            series_idx, x_idx = 0, resolve_entity(table, entity, Axis.X_LABEL).index
        elif len(table.x_labels) == 1:
            series_idx, x_idx = resolve_entity(table, entity, Axis.SERIES).index, 0
        else:
            return UNAVAILABLE_ANSWER
    except EntityNotFound:
        return UNAVAILABLE_ANSWER
    return format_reader_answer(scalar_answer(table.cells[series_idx][x_idx]))


def _resolve_pair(table: ChartTable, entity: str, by: str) -> tuple[int, int]:
    try:
        return (
            resolve_entity(table, entity, Axis.SERIES).index,
            resolve_entity(table, by, Axis.X_LABEL).index,
        )
    except EntityNotFound:
        return (
            resolve_entity(table, by, Axis.SERIES).index,
            resolve_entity(table, entity, Axis.X_LABEL).index,
        )


def extract_group(table: ChartTable, entity: Optional[str] = None) -> str:
    """Answer a group extraction: one series across x-labels, or one x-label
    across series.  An absent entity means all values of a single-series
    chart."""
    try:
        if entity is None:
            if len(table.series) != 1:
                return UNAVAILABLE_ANSWER
            resolution = EntityResolution(Axis.SERIES, 0, table.series[0].name, 1.0)
        else:
            resolution = resolve_entity(table, entity)
    except EntityNotFound:
        return UNAVAILABLE_ANSWER
    if resolution.axis is Axis.SERIES:
        pairs = [
            (x, table.cells[resolution.index][j]) for j, x in enumerate(table.x_labels)
        ]
    else:
        pairs = [
            (s.name, table.cells[i][resolution.index]) for i, s in enumerate(table.series)
        ]
    return format_reader_answer(group_answer(pairs))


def execute_query(table: ChartTable, query: AtomicQuery) -> str:
    """Dispatch a parsed atomic query against a table.

    The shared entity-only surface form arrives as a group query; when its
    entity is an x-label of a single-series chart the intended semantics is a
    point lookup, so that case answers with the scalar form.
    """
    if query.op is QueryOp.DESCRIBE:
        return describe(table)
    if query.op is QueryOp.EXTRACT_POINT:
        return extract_point(table, query.entity or "", query.by)
    if query.entity is not None and len(table.series) == 1:
        try:
            resolution = resolve_entity(table, query.entity)
        except EntityNotFound:
            return UNAVAILABLE_ANSWER
        if resolution.axis is Axis.X_LABEL:
            return extract_point(table, query.entity)
    return extract_group(table, query.entity)


class TableOracle:
    """Reader backend serving the charts in a table store by id."""

    def __init__(self, charts: Mapping[str, ChartTable] | list[ChartTable]):
        if isinstance(charts, list):
            charts = {t.source_id: t for t in charts}
        self._charts = dict(charts)

    def table(self, chart_ref: str) -> ChartTable:
        try:
            return self._charts[chart_ref]
        except KeyError:
            raise ChartNotFound(chart_ref) from None

    def read(self, chart_ref: str, query: str) -> str:
        table = self.table(chart_ref)
        parsed = parse_step(query)
        if parsed.kind is not StepKind.QUERY or parsed.query is None:
            return UNAVAILABLE_ANSWER
        return execute_query(table, parsed.query)
