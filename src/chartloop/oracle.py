"""Deterministic reader over ground-truth tables.

Executes atomic queries against a ChartTable and returns the exact answer
strings a perfect visual reader would produce.  ``read_table`` is the one
table read: it reads a data query as its formatted line reads, so an
``AtomicQuery`` built in code and the line it formats to get one answer, and
``symbolic.compute_gold`` reads through it too.  ``execute_query`` renders
its read as the reader's line.
Entity resolution is exact after case/whitespace normalization, with an
edit-similarity fallback (0.8 threshold) so lightly paraphrased reasoner
queries still land; out-of-chart entities get a fixed "not available"
sentence rather than an exception, and the episode continues.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional, Sequence

from .backends import ChartReads
from .protocol import (
    AtomicQuery,
    QueryOp,
    UNAVAILABLE_ANSWER,
    description_answer,
    format_group,
    format_reader_answer,
    format_scalar,
    parse_step,
)
from .tables import ChartTable, Value, normalize_name

FUZZY_THRESHOLD = 0.8


class EntityNotFound(LookupError):
    """No series or x-label matched the requested entity closely enough."""


class ChartNotFound(KeyError):
    """The reader has no table for the requested chart reference."""


class Axis(str, Enum):
    SERIES = "series"
    X_LABEL = "x_label"


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


def closest_name(name: str, names: Sequence[str]) -> Optional[int]:
    """Index of the entry of ``names`` that ``name`` means, or None.

    An exact normalized match wins outright; otherwise the highest
    edit-similarity entry at or above ``FUZZY_THRESHOLD`` is taken, the first
    entry winning ties.  The distance is at least the length gap, so an entry
    whose gap alone keeps it under the threshold is not scored: a name from
    outside the program costs no quadratic pass however long it is.
    """
    wanted = normalize_name(name)
    for index, candidate in enumerate(names):
        if normalize_name(candidate) == wanted:
            return index
    scores = []
    for candidate in names:
        size = len(normalize_name(candidate))
        gap_similarity = 1.0 - abs(len(wanted) - size) / max(len(wanted), size, 1)
        scores.append(edit_similarity(name, candidate) if gap_similarity >= FUZZY_THRESHOLD else 0.0)
    best = max(range(len(names)), key=scores.__getitem__, default=None)
    return best if best is not None and scores[best] >= FUZZY_THRESHOLD else None


def resolve_entity(table: ChartTable, name: str, axis: Optional[Axis] = None) -> tuple[Axis, int]:
    """The axis and index of the series or x-label ``name`` means, searching
    series first, then x-labels (only ``axis`` when it is given).

    Exact normalized matches win outright; otherwise the highest
    edit-similarity candidate above the threshold is taken, ties broken by
    series axis first and then lowest index.  Deterministic for a given
    (table, name).
    """
    if not name:
        raise EntityNotFound("empty entity name")
    # The exact pass walks the table's own tuples; only a name that matches
    # no label exactly pays for the list the fuzzy pass scores.
    wanted = normalize_name(name)
    if axis is not Axis.X_LABEL:
        for index, label in enumerate(table.series):
            if normalize_name(label.name) == wanted:
                return Axis.SERIES, index
    if axis is not Axis.SERIES:
        for index, label in enumerate(table.x_labels):
            if normalize_name(label) == wanted:
                return Axis.X_LABEL, index
    series = [] if axis is Axis.X_LABEL else [s.name for s in table.series]
    x_labels = () if axis is Axis.SERIES else table.x_labels
    index = closest_name(name, [*series, *x_labels])
    if index is None:
        raise EntityNotFound(f"no entity close to {name!r} in chart {table.source_id}")
    return (Axis.SERIES, index) if index < len(series) else (Axis.X_LABEL, index - len(series))


def describe(table: ChartTable) -> str:
    """Canonical figure description: series with colors, then the x-axis."""
    return format_reader_answer(description_answer(table.series, table.x_labels))


def read_table(table: ChartTable, query: AtomicQuery) -> Value | list[tuple[str, Value]] | None:
    """What a data query's formatted line reads off the table: a cell, a
    row's or column's pairs, or None when the line is not available.

    ``E BY F`` is the cell at E and F in either orientation: E resolves over
    series first and then x-labels, F on the other axis, and only when F is
    not there are both read the other way round.  The entity-only line
    resolves E the same way and gives a series' row, or an x-label's column,
    except that an x-label of a single-series chart gives that one cell.  No
    entity gives every value of a single-series chart.  Anything else is not
    available.  A point query without BY formats to the entity-only line, so
    it gets that line's read.
    """
    single_series = len(table.series) == 1
    try:
        if query.entity is not None:
            axis, index = resolve_entity(table, query.entity)
        elif single_series:
            axis, index = Axis.SERIES, 0
        else:
            return None
        by = None
        if query.by is not None:
            other = Axis.X_LABEL if axis is Axis.SERIES else Axis.SERIES
            try:
                by = resolve_entity(table, query.by, other)[1]
            except EntityNotFound:
                # E may name both axes, as "Total" does in "Total BY <series>".
                by = resolve_entity(table, query.by, axis)[1]
                axis, index = resolve_entity(table, query.entity, other)
    except EntityNotFound:
        return None
    if by is None and axis is Axis.X_LABEL and single_series:
        by = 0
    if by is not None:
        row, column = (index, by) if axis is Axis.SERIES else (by, index)
        return table.cells[row][column]
    if axis is Axis.SERIES:
        return [(x, table.cells[index][j]) for j, x in enumerate(table.x_labels)]
    return [(s.name, table.cells[i][index]) for i, s in enumerate(table.series)]


def execute_query(table: ChartTable, query: AtomicQuery) -> str:
    """Answer an atomic query as its formatted line reads: the description,
    ``read_table``'s read as a data line, or the not-available sentinel."""
    if query.op is QueryOp.DESCRIBE:
        return describe(table)
    read = read_table(table, query)
    if read is None:
        return UNAVAILABLE_ANSWER
    return format_scalar(read) if isinstance(read, Value) else format_group(read)


class TableOracle:
    """Reader backend serving the charts in a table store by id.

    Reads go through a ``ChartReads`` memo: a query line repeated on the
    chart last read is answered without parsing or executing it again.
    """

    def __init__(self, charts: Mapping[str, ChartTable] | list[ChartTable]):
        if isinstance(charts, list):
            charts = {t.source_id: t for t in charts}
        self._charts = dict(charts)
        self._reads = ChartReads(self._answer)

    def table(self, chart_ref: str) -> ChartTable:
        try:
            return self._charts[chart_ref]
        except KeyError:
            raise ChartNotFound(chart_ref) from None

    def read(self, chart_ref: str, query: str) -> str:
        return self._reads.read(chart_ref, query)

    def _answer(self, chart_ref: str, query: str) -> str:
        table = self.table(chart_ref)
        asked = parse_step(query)
        if not isinstance(asked, AtomicQuery):
            return UNAVAILABLE_ANSWER
        return execute_query(table, asked)
