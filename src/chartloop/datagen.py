"""Dataset ingestion, reader training-pair generation, and SFT exports.

Every corpus layout lists its rows lazily; :func:`load_corpus` alone turns
them into charts, and :meth:`Corpus.all_qa` into QA instances on its first
call, so all layouts share one set of row rules and a caller that needs only
the charts never reads a QA row.

The reader corpus is generated per chart from templates: one description
pair, one point pair per cell (BY form on multi-series charts, entity-only
form on single-series charts), and group pairs along both axes of
multi-series charts.  Reasoner fine-tuning examples are exported with
segment-level loss masks: the question and every reader answer are masked,
queries and the conclusion are not.

Reasoning traces have one file format, ``traces.jsonl``, with one record per
question; :func:`write_trace_line` is its only writer and
:func:`read_traces_jsonl` its only reader, which shares the corpus row loop.
"""

from __future__ import annotations

import csv
import json
import random
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TextIO

from . import oracle
from .protocol import (QUESTION_STUB, AtomicQuery, Form, QueryOp, check_question,
                       describe_query, format_query, group_query, point_query)
from .tables import (
    SHAPE_ERRORS,
    ChartTable,
    QAInstance,
    ReasoningTrace,
    SeriesLabel,
    StepRole,
    TableError,
    Termination,
    Value,
    array_field,
    encode_json,
    shape_reason,
    template_field,
    text_field,
    validate_trace,
)

class CorpusError(ValueError):
    """Fatal ingestion failure: missing path, unreadable or misshapen file, or no valid chart."""


@dataclass(frozen=True, slots=True)
class System1Pair:
    chart_id: str
    query: str
    answer: str
    op: AtomicQuery


# A corpus row: where it is, how to decode it (None if decoded already), and its raw form.
Row = tuple[str, Optional[Callable[[Any], Any]], Any]
# What one row can raise: a malformed object, or an unreadable or bad CSV file.
_ROW_ERRORS = (*SHAPE_ERRORS, OSError, csv.Error)


def _jsonl_rows(path: Path) -> Iterator[Row]:
    name = str(path)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield f"{name}:{lineno}", json.loads, line


def _array_rows(label: str, items: Any) -> Iterator[Row]:
    if not isinstance(items, list):
        raise ValueError(f"{label} must be a JSON array")
    return ((f"{label}[{index}]", None, item) for index, item in enumerate(items))


def _json_array_rows(path: Path) -> Iterable[Row]:
    """The rows of a JSON array file; no file, no rows."""
    if not path.exists():
        return ()
    return _array_rows(str(path), json.loads(path.read_text(encoding="utf-8")))


def _add_rows(rows: Iterable[Row], add: Callable[[Any], None], issues: list[str]) -> None:
    """The row loop: decode each row and ``add`` it; a row that raises one of
    ``_ROW_ERRORS`` is skipped and reported as ``where: reason``."""
    for where, decode, raw in rows:
        try:
            add(decode(raw) if decode else raw)
        except _ROW_ERRORS as exc:
            issues.append(f"{where}: {shape_reason(exc)}")


def _csv_chart(path: Path) -> dict:
    """A ChartQA table: a header row of series names, then one row per x-label."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        numbered = [(reader.line_num, row) for row in reader if row]
    rows = [row for _, row in numbered]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise TableError("need a header row plus data rows")
    for line, row in numbered[1:]:
        if len(row) != len(rows[0]):
            raise TableError(f"the row on line {line} has {len(row)} cells, "
                             f"the header {len(rows[0])}")
    return {
        "id": path.stem,
        "series": [{"name": name} for name in rows[0][1:]],
        "x_labels": [row[0] for row in rows[1:]],
        "cells": [[row[i] for row in rows[1:]] for i in range(1, len(rows[0]))],
    }


# A layout's chart rows, and a call that lists its QA rows: a QA file is
# opened only when that call is made.
Layout = tuple[Iterable[Row], Callable[[], Iterable[Row]]]


def _internal_json(path: Path) -> Layout:
    if not path.is_dir():
        return _jsonl_rows(path), lambda: ()
    qa_file = path / "qa.jsonl"
    return _jsonl_rows(path / "charts.jsonl"), \
        lambda: _jsonl_rows(qa_file) if qa_file.exists() else ()


def _chartqa_like(path: Path) -> Layout:
    tables_dir = path / "tables"
    if not tables_dir.is_dir():
        raise ValueError("missing tables/ directory")
    charts = ((str(p), _csv_chart, p) for p in sorted(tables_dir.glob("*.csv")))
    return charts, lambda: _json_array_rows(path / "qa.json")


def _plotqa_like(path: Path) -> Layout:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path} must hold a JSON object")
    # One file holds both arrays, so the QA rows keep its decoded "qa" array.
    qa = payload.get("qa", [])
    return _array_rows(f"{path}#charts", payload.get("charts", [])), \
        lambda: _array_rows(f"{path}#qa", qa)


CORPUS_LAYOUTS = {
    "internal_json": _internal_json,
    "chartqa_like": _chartqa_like,
    "plotqa_like": _plotqa_like,
}


def _cells(row: list, i: int, values: dict[str, Value]) -> tuple[Value, ...]:
    """Series ``i``'s row of cells.  ``values`` maps each printed text parsed so
    far in this load to its ``Value``: a repeated text is parsed once, and every
    cell and answer that prints it shares that immutable ``Value``."""
    parsed = []
    for j, cell in enumerate(array_field(row, "cells", i)):
        text = cell if type(cell) is str else text_field(cell, "cells", i, j)
        value = values.get(text)
        if value is None:
            value = values[text] = Value.from_raw(text)
        parsed.append(value)
    return tuple(parsed)


def _text(texts: dict[str, str], raw: Any, field: str, *index: int) -> str:
    """``raw`` by the :func:`text_field` rule, as the one string ``texts``
    holds for it.  ``texts`` maps each text read so far in this load to the
    first string that held it, so every row that holds a text shares it."""
    text = raw if type(raw) is str else text_field(raw, field, *index)
    return texts.setdefault(text, text)


def _chart_from_obj(obj: dict, values: dict[str, Value], texts: dict[str, str]) -> ChartTable:
    """A chart row: ``id``, ``series`` (``name``, optional ``color``),
    ``x_labels`` and ``cells``, one row of cells per series.  Its texts are
    looked up in, or added to, ``texts`` as in :func:`_text`."""
    series = tuple(
        SeriesLabel(_text(texts, s.get("name"), f"series[{i}].name"),
                    None if s.get("color") is None
                    else _text(texts, s["color"], f"series[{i}].color"))
        for i, s in enumerate(array_field(obj.get("series"), "series"))
    )
    x_labels = tuple([_text(texts, x, "x_labels", j)
                      for j, x in enumerate(array_field(obj.get("x_labels"), "x_labels"))])
    cells = tuple([_cells(row, i, values)
                   for i, row in enumerate(array_field(obj.get("cells"), "cells"))])
    table = ChartTable(_text(texts, obj.get("id"), "id"), series, x_labels, cells)
    table.validate()
    return table


def _field(obj: dict, key: str, alias: str) -> str:
    """``obj[key]``, else ``obj[alias]``, as text; a missing, null or empty value does not count."""
    value = obj.get(key)
    if value is None or value == "":
        value = obj.get(alias)
        if value is None or value == "":
            raise ValueError(f"missing {key} or {alias}")
        key = alias
    return value if type(value) is str else text_field(value, key)


def _qa_from_obj(obj: dict, values: dict[str, Value], texts: dict[str, str]) -> QAInstance:
    """A QA row: ``question``/``query``, ``answer``/``label``, ``chart_id``/``imgname``.
    The gold answer is looked up in, or added to, ``values`` as in :func:`_cells`,
    and the question and chart id in ``texts`` as in :func:`_text`."""
    chart_id = _field(obj, "chart_id", "imgname")
    if obj.get("chart_id") in (None, ""):
        chart_id = Path(chart_id).stem
    answer = _field(obj, "answer", "label")
    gold = values.get(answer)
    if gold is None:
        gold = values[answer] = Value.from_raw(answer)
    question = check_question(_field(obj, "question", "query"))
    # Positional: keyword arguments slow a slotted dataclass's __init__ on every row.
    return QAInstance(texts.setdefault(question, question), gold,
                      texts.setdefault(chart_id, chart_id), template_field(obj.get("template_type")))


@contextmanager
def _reading(location: Path) -> Iterator[None]:
    """Raise ``CorpusError`` when reading a whole file fails, not decoding one of its rows."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise CorpusError(f"cannot read corpus at {location}: {exc}") from exc


class Corpus:
    """A loaded corpus: its validated ``charts`` in file order, and ``issues``,
    one ``where: reason`` line per row skipped so far.  Its QA rows are read on
    the first :meth:`all_qa` call, so a caller that needs only the charts never
    opens a QA file."""

    def __init__(self, charts: list[ChartTable], issues: list[str], location: Path,
                 qa_rows: Callable[[], Iterable[Row]]) -> None:
        self.charts = charts
        self.issues = issues
        self._location = location
        self._qa_rows: Optional[Callable[[], Iterable[Row]]] = qa_rows
        self._qa: Optional[list[QAInstance]] = None

    def chart_index(self) -> dict[str, ChartTable]:
        return {table.source_id: table for table in self.charts}

    def all_qa(self) -> list[QAInstance]:
        """The QA instances, grouped by chart in chart order, each chart's in
        row order.  The first call reads the rows and adds their issues to
        ``issues``; later calls return the same list.  A QA row needs a
        question, an answer and a loaded chart.  Its gold is the loaded cell
        ``Value`` that prints the same text, if any, and its ``chart_id`` its
        table's ``source_id``.  A QA file that cannot be read raises
        ``CorpusError``, on every call."""
        if self._qa is None:
            by_chart: dict[str, list[QAInstance]] = {t.source_id: [] for t in self.charts}
            values = {cell.raw: cell for table in self.charts
                      for row in table.cells for cell in row}
            texts = {chart_id: chart_id for chart_id in by_chart}
            issues: list[str] = []

            def add_qa(obj: dict) -> None:
                qa = _qa_from_obj(obj, values, texts)
                if qa.chart_id not in by_chart:
                    raise ValueError(f"unknown chart {qa.chart_id!r}")
                by_chart[qa.chart_id].append(qa)

            with _reading(self._location):
                _add_rows(self._qa_rows(), add_qa, issues)
            self._qa = [qa for qas in by_chart.values() for qa in qas]
            self.issues += issues
            self._qa_rows = None  # frees a plotqa_like file's decoded QA array
        return self._qa


def load_corpus(path: str | Path, format: str = "internal_json") -> Corpus:
    """Load the charts of a corpus in one of the supported layouts; its QA
    rows wait for :meth:`Corpus.all_qa`.

    One row loop serves every layout.  A chart row becomes a validated
    ``ChartTable``; a repeated chart id keeps the first.  A text field takes a
    string as it is and a number through ``str()``.  A bad row is skipped and
    reported in ``issues`` as ``where: reason``; a missing path, an unreadable
    or misshapen chart file, or a corpus without a valid chart raises
    ``CorpusError``.

    Each distinct text and printed value is held once per call.  A printed
    cell is parsed once, and every cell that prints it shares that ``Value``;
    a chart id, series name, colour or x-label is one string shared by every
    chart that holds it.  Both maps are local to the call.
    """
    if format not in CORPUS_LAYOUTS:
        raise CorpusError(f"unknown corpus format {format!r}")
    location = Path(path)
    if not location.exists():
        raise CorpusError(f"corpus path does not exist: {location}")
    charts: dict[str, ChartTable] = {}
    issues: list[str] = []
    values: dict[str, Value] = {}
    texts: dict[str, str] = {}

    def add_chart(obj: dict) -> None:
        table = _chart_from_obj(obj, values, texts)
        if table.source_id in charts:
            raise ValueError(f"duplicate chart id {table.source_id!r}, first kept")
        charts[table.source_id] = table

    with _reading(location):
        chart_rows, qa_rows = CORPUS_LAYOUTS[format](location)
        _add_rows(chart_rows, add_chart, issues)
    if not charts:
        raise CorpusError(f"no valid charts in {location}")
    return Corpus(list(charts.values()), issues, location, qa_rows)


def sample_eval_set(instances: Sequence[QAInstance], n: int, seed: int) -> list[QAInstance]:
    """Uniform sample without replacement, deterministic under seed."""
    if n > len(instances):
        raise ValueError(f"cannot sample {n} of {len(instances)} instances")
    return random.Random(seed).sample(instances, n)


def generate_system1_corpus(
    charts: Sequence[ChartTable], seed: int = 0
) -> tuple[list[System1Pair], dict]:
    """Template-generate reader training pairs with oracle answers, and the
    ``manifest.json`` dict that counts them.

    Per chart: one describe pair; one point pair per cell; group pairs for
    every series and every x-label on multi-series charts, and a single
    series-named group on single-series charts.
    """
    pairs: list[System1Pair] = []
    for table in charts:
        names = [label.name for label in table.series]
        multi = len(names) > 1
        queries = [describe_query()]
        queries += [point_query(name, x) if multi else point_query(x)
                    for name in names for x in table.x_labels]
        queries += [group_query(name) for name in ([*names, *table.x_labels] if multi else names)]
        pairs += [System1Pair(table.source_id, format_query(query),
                              oracle.execute_query(table, query), query) for query in queries]
    ops = Counter(pair.op.op for pair in pairs)
    manifest = {
        "n_charts": len(charts),
        "n_describe": ops[QueryOp.DESCRIBE],
        "n_point": ops[QueryOp.EXTRACT_POINT],
        "n_group": ops[QueryOp.EXTRACT_GROUP],
        "seed": seed,
    }
    return pairs, manifest


def write_system1_jsonl(pairs: Sequence[System1Pair], path: str | Path) -> None:
    """Reader SFT export; the answer field is the sole loss span."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(encode_json({"query": pair.query, "answer": pair.answer,
                                       "chart_id": pair.chart_id, "loss_span": "answer"}) + "\n"
                          for pair in pairs)


@dataclass(frozen=True, slots=True)
class Segment:
    text: str
    masked: bool


@dataclass(frozen=True, slots=True)
class System2Example:
    """A reasoner fine-tuning example: ordered segments with loss masks.

    Concatenating the segment texts reproduces the full training string;
    masked segments (no loss) are exactly the question and the reader
    answers, unmasked segments are the reasoner's own lines.
    """

    chart_id: str
    segments: tuple[Segment, ...]

    def source_text(self) -> str:
        return "".join(segment.text for segment in self.segments)

    def rendered_tagged(self) -> str:
        lines = []
        for segment in self.segments:
            body = segment.text.rstrip("\n")
            lines.append(_INST_LINE.render(body) if segment.masked else body)
        return "\n".join(lines)


def example_from_trace(trace: ReasoningTrace, question: str, chart_id: str) -> System2Example:
    """Build a masked example from a completed trace."""
    validate_trace(trace)
    if trace.terminated_by is not Termination.CONCLUSION:
        raise ValueError(f"trace terminated by {trace.terminated_by.value}, not a conclusion")
    question_line, newline, answer_start = QUESTION_STUB.render(question).rpartition("\n")
    segments = [Segment(question_line + newline, True)]
    for index, step in enumerate(trace.steps):
        prefix = answer_start if index == 0 else ""
        last = index == len(trace.steps) - 1
        text = f"{prefix}{step.text}" + ("" if last else "\n")
        segments.append(Segment(text, step.role is StepRole.READER_ANSWER))
    return System2Example(chart_id, tuple(segments))


_INST_LINE = Form("[INST] {body:.*} [/INST]")  # a masked segment, as a tagged line
EXAMPLE_SEPARATOR = "----"


def parse_annotated_examples(text: str) -> list[System2Example]:
    """Parse hand-annotated examples in the [INST]-tagged line format.

    Examples are separated by a line of four dashes; a line ends at a line
    feed, less one trailing carriage return.  Each [INST]-wrapped line is a
    masked segment, any other non-blank line unmasked; ``chart_id`` is empty.
    """
    examples: list[System2Example] = []
    blocks = [block for block in re.split(rf"^{EXAMPLE_SEPARATOR}\r?$", text, flags=re.M) if block.strip()]
    for block in blocks:
        lines = [line.removesuffix("\r") for line in block.split("\n") if line.strip()]
        segments: list[Segment] = []
        for line_index, line in enumerate(lines):
            m = _INST_LINE.match(line)
            body = m["body"] if m else line
            trailing = "" if line_index == len(lines) - 1 else "\n"
            segments.append(Segment(body + trailing, m is not None))
        examples.append(System2Example("", tuple(segments)))
    return examples


def _sft_record(example: System2Example, format_tagged: bool) -> dict:
    record: dict = {
        "chart_id": example.chart_id,
        "segments": [{"text": segment.text, "masked": segment.masked}
                     for segment in example.segments],
    }
    if format_tagged:
        record["rendered"] = example.rendered_tagged()
    return record


def export_system2_sft(
    examples: Sequence[System2Example], path: str | Path, format_tagged: bool = False
) -> int:
    """Write masked reasoner examples as JSONL; returns the record count."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(encode_json(_sft_record(example, format_tagged)) + "\n"
                          for example in examples)
    return len(examples)


def examples_from_traces(
    traces: Iterable[tuple[ReasoningTrace, str, str]]
) -> tuple[list[System2Example], int]:
    """Convert (trace, question, chart_id) triples, skipping non-conclusions."""
    out: list[System2Example] = []
    skipped = 0
    for trace, question, chart_id in traces:
        try:
            out.append(example_from_trace(trace, question, chart_id))
        except ValueError:
            skipped += 1
    return out, skipped


def write_trace_line(
    handle: TextIO,
    trace_ref: str,
    question: str,
    chart_id: str,
    final: Optional[Value],
    episodes: Sequence[ReasoningTrace],
) -> None:
    """Append one question's trace record to an open ``traces.jsonl``.

    The record is ``{"trace_ref", "question", "chart_id", "final",
    "episodes"}``: ``final`` is the voted answer as written (or null) and
    each episode is a ``ReasoningTrace.to_dict()``.
    """
    record = {
        "trace_ref": trace_ref,
        "question": question,
        "chart_id": chart_id,
        "final": final.raw if final else None,
        "episodes": [trace.to_dict() for trace in episodes],
    }
    handle.write(encode_json(record) + "\n")


def read_traces_jsonl(path: str | Path) -> tuple[list[tuple[ReasoningTrace, str, str]], list[str]]:
    """Every episode of a ``traces.jsonl`` as a ``(trace, question, chart_id)``
    triple, in file order, plus one issue per line skipped.

    A line that is not a trace record, or holds an episode that fails
    ``validate_trace``, is skipped and reported as ``path:line: reason``; the
    reason for a bad episode starts with ``episodes[i]``.  A file that cannot
    be opened or decoded raises ValueError.
    """
    triples: list[tuple[ReasoningTrace, str, str]] = []
    issues: list[str] = []

    def add(record: dict) -> None:
        question = check_question(text_field(record.get("question"), "question"))
        chart_id = text_field(record.get("chart_id"), "chart_id")
        episodes = []
        for i, obj in enumerate(array_field(record.get("episodes"), "episodes")):
            try:
                trace = ReasoningTrace.from_dict(obj)
                validate_trace(trace)
            except SHAPE_ERRORS as exc:  # name the episode of a --sc line
                raise ValueError(f"episodes[{i}]: {shape_reason(exc)}") from exc
            episodes.append(trace)
        triples.extend((trace, question, chart_id) for trace in episodes)

    try:
        _add_rows(_jsonl_rows(Path(path)), add, issues)
    except (OSError, ValueError) as exc:
        # Opening or decoding the file failed, not parsing one of its lines.
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read traces {path}: {reason}") from exc
    return triples, issues
