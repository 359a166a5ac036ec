"""Dataset ingestion, reader training-pair generation, and SFT exports.

The reader corpus is generated per chart from templates: one description
pair, one point pair per cell (BY form on multi-series charts, entity-only
form on single-series charts), and group pairs along both axes of
multi-series charts.  Reasoner fine-tuning examples are exported with
segment-level loss masks: the question and every reader answer are masked,
queries and the conclusion are not.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import oracle
from .protocol import AtomicQuery, describe_query, format_query, group_query, point_query
from .tables import (
    ChartTable,
    QAInstance,
    ReasoningTrace,
    StepRole,
    TableError,
    TemplateType,
    Termination,
    Value,
    validate_trace,
)

class CorpusError(ValueError):
    """Fatal ingestion failure: unreadable path or zero valid charts."""


@dataclass(frozen=True)
class System1Pair:
    chart_id: str
    query: str
    answer: str
    op: AtomicQuery


@dataclass(frozen=True)
class CorpusManifest:
    n_charts: int
    n_describe: int
    n_point: int
    n_group: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "n_charts": self.n_charts,
            "n_describe": self.n_describe,
            "n_point": self.n_point,
            "n_group": self.n_group,
            "seed": self.seed,
        }


@dataclass
class Corpus:
    entries: list[tuple[ChartTable, list[QAInstance]]]
    issues: list[str]

    @property
    def charts(self) -> list[ChartTable]:
        return [table for table, _ in self.entries]

    def all_qa(self) -> list[QAInstance]:
        return [qa for _, qas in self.entries for qa in qas]

    def chart_index(self) -> dict[str, ChartTable]:
        return {table.source_id: table for table in self.charts}


def _report(issues: list[str], where: str, message: str) -> None:
    issues.append(f"{where}: {message}")


def _qa_from_obj(obj: dict, chart_id: str) -> QAInstance:
    template = obj.get("template_type")
    return QAInstance(
        question=str(obj.get("question") or obj.get("query")),
        gold=Value.from_raw(str(obj.get("answer") if obj.get("answer") is not None else obj.get("label"))),
        chart_id=chart_id,
        template_type=TemplateType(template) if template else None,
    )


def _load_internal_json(path: Path, issues: list[str]) -> list[tuple[ChartTable, list[QAInstance]]]:
    charts_file = path / "charts.jsonl" if path.is_dir() else path
    qa_file = path / "qa.jsonl" if path.is_dir() else None
    tables: dict[str, ChartTable] = {}
    with open(charts_file, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                table = ChartTable.from_dict(json.loads(line))
                table.validate()
                tables[table.source_id] = table
            except (json.JSONDecodeError, KeyError, TableError, TypeError) as exc:
                _report(issues, f"{charts_file}:{lineno}", str(exc))
    qa_by_chart: dict[str, list[QAInstance]] = {cid: [] for cid in tables}
    if qa_file is not None and qa_file.exists():
        with open(qa_file, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    chart_id = str(obj["chart_id"])
                    if chart_id not in tables:
                        raise KeyError(f"unknown chart {chart_id}")
                    qa_by_chart[chart_id].append(_qa_from_obj(obj, chart_id))
                except (json.JSONDecodeError, KeyError, ValueError) as exc:
                    _report(issues, f"{qa_file}:{lineno}", str(exc))
    return [(table, qa_by_chart[cid]) for cid, table in tables.items()]


_CSV_ID_RE = re.compile(r"\.csv$")


def _load_chartqa_like(path: Path, issues: list[str]) -> list[tuple[ChartTable, list[QAInstance]]]:
    tables_dir = path / "tables"
    if not tables_dir.is_dir():
        raise CorpusError(f"{path}: missing tables/ directory")
    tables: dict[str, ChartTable] = {}
    for csv_path in sorted(tables_dir.glob("*.csv")):
        chart_id = _CSV_ID_RE.sub("", csv_path.name)
        try:
            with open(csv_path, encoding="utf-8", newline="") as handle:
                rows = [row for row in csv.reader(handle) if row]
            if len(rows) < 2 or len(rows[0]) < 2:
                raise TableError("need a header row plus data rows")
            series = [(name, None) for name in rows[0][1:]]
            x_labels = [row[0] for row in rows[1:]]
            cells = [[rows[1 + j][1 + i] for j in range(len(x_labels))]
                     for i in range(len(series))]
            table = ChartTable.build(chart_id, series, x_labels, cells)
            table.validate()
            tables[chart_id] = table
        except (TableError, IndexError, OSError) as exc:
            _report(issues, str(csv_path), str(exc))
    qa_by_chart: dict[str, list[QAInstance]] = {cid: [] for cid in tables}
    qa_path = path / "qa.json"
    if qa_path.exists():
        with open(qa_path, encoding="utf-8") as handle:
            entries = json.load(handle)
        for index, obj in enumerate(entries):
            try:
                chart_id = str(obj.get("chart_id") or Path(str(obj["imgname"])).stem)
                if chart_id not in tables:
                    raise KeyError(f"unknown chart {chart_id}")
                qa_by_chart[chart_id].append(_qa_from_obj(obj, chart_id))
            except (KeyError, ValueError) as exc:
                _report(issues, f"{qa_path}[{index}]", str(exc))
    return [(table, qa_by_chart[cid]) for cid, table in tables.items()]


def _load_plotqa_like(path: Path, issues: list[str]) -> list[tuple[ChartTable, list[QAInstance]]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    tables: dict[str, ChartTable] = {}
    for index, obj in enumerate(payload.get("charts", [])):
        try:
            table = ChartTable.from_dict(obj)
            table.validate()
            tables[table.source_id] = table
        except (KeyError, TableError, TypeError) as exc:
            _report(issues, f"{path}#charts[{index}]", str(exc))
    qa_by_chart: dict[str, list[QAInstance]] = {cid: [] for cid in tables}
    for index, obj in enumerate(payload.get("qa", [])):
        try:
            chart_id = str(obj["chart_id"])
            if chart_id not in tables:
                raise KeyError(f"unknown chart {chart_id}")
            qa_by_chart[chart_id].append(_qa_from_obj(obj, chart_id))
        except (KeyError, ValueError) as exc:
            _report(issues, f"{path}#qa[{index}]", str(exc))
    return [(table, qa_by_chart[cid]) for cid, table in tables.items()]


_LOADERS = {
    "internal_json": _load_internal_json,
    "chartqa_like": _load_chartqa_like,
    "plotqa_like": _load_plotqa_like,
}


def load_corpus(path: str | Path, format: str = "internal_json") -> Corpus:
    """Load charts (and any QA annotations) in one of the supported layouts.

    Malformed entries are reported with file/line context and skipped; an
    unreadable path or an entirely empty corpus is fatal.
    """
    if format not in _LOADERS:
        raise CorpusError(f"unknown corpus format {format!r}")
    location = Path(path)
    if not location.exists():
        raise CorpusError(f"corpus path does not exist: {location}")
    issues: list[str] = []
    try:
        entries = _LOADERS[format](location, issues)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusError(f"cannot read corpus at {location}: {exc}") from exc
    if not entries:
        raise CorpusError(f"no valid charts in {location}")
    return Corpus(entries, issues)


def sample_eval_set(instances: Sequence[QAInstance], n: int, seed: int) -> list[QAInstance]:
    """Uniform sample without replacement, deterministic under seed."""
    if n > len(instances):
        raise ValueError(f"cannot sample {n} of {len(instances)} instances")
    return random.Random(seed).sample(instances, n)


def generate_system1_corpus(
    charts: Sequence[ChartTable], seed: int = 0
) -> tuple[list[System1Pair], CorpusManifest]:
    """Template-generate reader training pairs with oracle answers.

    Per chart: one describe pair; one point pair per cell; group pairs for
    every series and every x-label on multi-series charts, and a single
    series-named group on single-series charts.
    """
    pairs: list[System1Pair] = []
    n_describe = n_point = n_group = 0

    def emit(table: ChartTable, op: AtomicQuery) -> None:
        query = format_query(op)
        answer = oracle.execute_query(table, op)
        pairs.append(System1Pair(table.source_id, query, answer, op))

    for table in charts:
        emit(table, describe_query())
        n_describe += 1
        multi = len(table.series) > 1
        for i, label in enumerate(table.series):
            for j, x in enumerate(table.x_labels):
                emit(table, point_query(label.name, x) if multi else point_query(x))
                n_point += 1
        if multi:
            for label in table.series:
                emit(table, group_query(label.name))
                n_group += 1
            for x in table.x_labels:
                emit(table, group_query(x))
                n_group += 1
        else:
            emit(table, group_query(table.series[0].name))
            n_group += 1
    manifest = CorpusManifest(len(charts), n_describe, n_point, n_group, seed)
    return pairs, manifest


def write_system1_jsonl(pairs: Sequence[System1Pair], path: str | Path) -> None:
    """Reader SFT export; the answer field is the sole loss span."""
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            record = {
                "query": pair.query,
                "answer": pair.answer,
                "chart_id": pair.chart_id,
                "loss_span": "answer",
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class Segment:
    text: str
    masked: bool


@dataclass(frozen=True)
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
            lines.append(f"[INST] {body} [/INST]" if segment.masked else body)
        return "\n".join(lines)


def example_from_trace(trace: ReasoningTrace, question: str, chart_id: str) -> System2Example:
    """Build a masked example from a completed trace."""
    validate_trace(trace)
    if trace.terminated_by is not Termination.CONCLUSION:
        raise ValueError(f"trace terminated by {trace.terminated_by.value}, not a conclusion")
    segments = [Segment(f"Q: {question}\n", True)]
    for index, step in enumerate(trace.steps):
        prefix = "A: " if index == 0 else ""
        last = index == len(trace.steps) - 1
        text = f"{prefix}{step.text}" + ("" if last else "\n")
        segments.append(Segment(text, step.role is StepRole.READER_ANSWER))
    return System2Example(chart_id, tuple(segments))


_INST_LINE_RE = re.compile(r"^\[INST\] (?P<body>.*) \[/INST\]$")
EXAMPLE_SEPARATOR = "----"


def parse_annotated_examples(text: str, chart_ids: Optional[Sequence[str]] = None) -> list[System2Example]:
    """Parse hand-annotated examples in the [INST]-tagged line format.

    Examples are separated by a line of four dashes; each [INST]-wrapped line
    is a masked segment, every other non-blank line is unmasked.
    """
    examples: list[System2Example] = []
    blocks = [block for block in re.split(rf"^{EXAMPLE_SEPARATOR}$", text, flags=re.M) if block.strip()]
    for index, block in enumerate(blocks):
        lines = [line for line in block.splitlines() if line.strip()]
        segments: list[Segment] = []
        for line_index, line in enumerate(lines):
            m = _INST_LINE_RE.match(line)
            body = m.group("body") if m else line
            trailing = "" if line_index == len(lines) - 1 else "\n"
            segments.append(Segment(body + trailing, m is not None))
        chart_id = chart_ids[index] if chart_ids and index < len(chart_ids) else ""
        examples.append(System2Example(chart_id, tuple(segments)))
    return examples


def export_system2_sft(
    examples: Iterable[System2Example], path: str | Path, format_tagged: bool = False
) -> int:
    """Write masked reasoner examples as JSONL; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for example in examples:
            record: dict = {
                "chart_id": example.chart_id,
                "segments": [
                    {"text": segment.text, "masked": segment.masked}
                    for segment in example.segments
                ],
            }
            if format_tagged:
                record["rendered"] = example.rendered_tagged()
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


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
