"""Answer normalization, relaxed-accuracy scoring, voting, and reports.

Relaxed accuracy is exact match for text, and at most 5% relative error for
numbers, measured against the gold value (gold zero degrades to exact
equality).  The tolerance boundary is inclusive.  All numeric comparison runs
on Decimals so nothing is lost to binary floats at the boundary.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional, Sequence

from .tables import (
    QAInstance,
    TemplateType,
    Value,
    ValueKind,
    bucket_labels,
    bucket_length,
    canonical_decimal,
)

TOLERANCE = Decimal("0.05")
DEFAULT_BUCKET_EDGES = (0, 10, 20, 40)

_THOUSANDS_RE = re.compile(r"^[+-]?\d{1,3}(,\d{3})+(\.\d+)?$")


def _numeric_candidate(text: str) -> Optional[Decimal]:
    candidate = text.strip()
    if candidate.startswith("$"):
        candidate = candidate[1:].strip()
    if candidate.endswith("%"):
        candidate = candidate[:-1].strip()
    if _THOUSANDS_RE.match(candidate):
        candidate = candidate.replace(",", "")
    if not candidate or not re.fullmatch(r"[+-]?(\d+(\.\d*)?|\.\d+)", candidate):
        return None
    try:
        return Decimal(candidate)
    except InvalidOperation:
        return None


def normalize_answer(raw: str) -> Value:
    """Canonicalize an answer string for voting and matching.

    Strips wrapping whitespace/quotes and sentence punctuation, folds
    yes/no, drops $/%/thousands-separator decoration, and renders numbers
    with canonical precision ("15.00" and "15" normalize identically).
    Anything else is case-folded text.
    """
    s = raw.strip()
    while len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        s = s[1:-1].strip()
    s = s.rstrip(".!?").strip()
    if s.lower() in ("yes", "no"):
        return Value(ValueKind.YES_NO, s.lower())
    number = _numeric_candidate(s)
    if number is not None:
        return Value(ValueKind.NUMERIC, canonical_decimal(number), number)
    return Value(ValueKind.TEXT, s.casefold())


def normalize_value(value: Value) -> Value:
    return normalize_answer(value.raw)


def relaxed_match(prediction: Value, gold: Value, tolerance: Decimal = TOLERANCE) -> bool:
    """Relaxed accuracy verdict for one prediction against gold.

    Numeric gold: |pred - gold| / |gold| <= tolerance, inclusive; gold zero
    requires exact zero.  Text and yes/no: exact normalized match.  A kind
    mismatch that survives numeric coercion is simply false.
    """
    p, g = normalize_value(prediction), normalize_value(gold)
    if g.kind is ValueKind.NUMERIC:
        if p.kind is not ValueKind.NUMERIC or p.number is None or g.number is None:
            return False
        if g.number == 0:
            return p.number == 0
        return abs(p.number - g.number) / abs(g.number) <= tolerance
    if g.kind is not p.kind:
        return False
    return p.raw == g.raw


def vote_key(value: Value) -> str:
    """Canonical rendering used to group equal answers in a vote."""
    return normalize_value(value).raw


def majority_vote(finals: Sequence[Value]) -> Optional[Value]:
    """Mode of the finals by ``vote_key``; ties go to the lexicographically
    smaller key.  Returns the winning class's smallest raw member as written,
    so one final votes for itself; an empty pool means no answer."""
    if not finals:
        return None
    keys = [vote_key(v) for v in finals]
    counts = Counter(keys)
    winner = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    return min((v for v, key in zip(finals, keys) if key == winner), key=lambda v: v.raw)


@dataclass(frozen=True)
class EvalRecord:
    qa: QAInstance
    prediction: Optional[Value]
    correct: bool
    table_length: int
    trace_ref: str

    def to_dict(self) -> dict:
        return {
            "question": self.qa.question,
            "gold": self.qa.gold.raw,
            "chart_id": self.qa.chart_id,
            "template_type": self.qa.template_type.value if self.qa.template_type else None,
            "prediction": self.prediction.raw if self.prediction else None,
            "correct": self.correct,
            "table_length": self.table_length,
            "trace_ref": self.trace_ref,
        }

    @staticmethod
    def from_dict(obj: dict) -> "EvalRecord":
        qa = QAInstance.from_dict(
            {
                "question": obj["question"],
                "gold": obj["gold"],
                "chart_id": obj["chart_id"],
                "template_type": obj.get("template_type"),
            }
        )
        prediction = Value.from_raw(obj["prediction"]) if obj.get("prediction") is not None else None
        return EvalRecord(qa, prediction, bool(obj["correct"]), int(obj["table_length"]),
                          str(obj.get("trace_ref", "")))


def make_record(
    qa: QAInstance, prediction: Optional[Value], table_length: int, trace_ref: str
) -> EvalRecord:
    correct = prediction is not None and relaxed_match(prediction, qa.gold)
    return EvalRecord(qa, prediction, correct, table_length, trace_ref)


@dataclass(frozen=True)
class TemplateStats:
    count: int
    errors: int
    accuracy: float


@dataclass(frozen=True)
class BucketStats:
    bucket: str
    count: int
    ratio: float
    accuracy: float


@dataclass(frozen=True)
class EvalReport:
    n: int
    overall_accuracy: float
    by_template: dict[Optional[TemplateType], TemplateStats]
    by_length_bucket: list[BucketStats]
    bucket_edges: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "overall_accuracy": self.overall_accuracy,
            "by_template": {
                (k.value if k else "untemplated"): {
                    "count": v.count, "errors": v.errors, "accuracy": v.accuracy
                }
                for k, v in self.by_template.items()
            },
            "by_length_bucket": [
                {"bucket": b.bucket, "count": b.count, "ratio": b.ratio, "accuracy": b.accuracy}
                for b in self.by_length_bucket
            ],
            "bucket_edges": list(self.bucket_edges),
        }


class ReportAccumulator:
    """Single-pass aggregation with an associative, commutative merge, so
    concurrent record producers can be folded in any grouping or order."""

    def __init__(self) -> None:
        self.total = 0
        self.correct = 0
        self.template_total: Counter = Counter()
        self.template_correct: Counter = Counter()
        self.length_total: Counter = Counter()
        self.length_correct: Counter = Counter()

    def add(self, record: EvalRecord) -> "ReportAccumulator":
        self.total += 1
        self.correct += int(record.correct)
        key = record.qa.template_type
        self.template_total[key] += 1
        self.template_correct[key] += int(record.correct)
        self.length_total[record.table_length] += 1
        self.length_correct[record.table_length] += int(record.correct)
        return self

    def merge(self, other: "ReportAccumulator") -> "ReportAccumulator":
        merged = ReportAccumulator()
        merged.total = self.total + other.total
        merged.correct = self.correct + other.correct
        merged.template_total = self.template_total + other.template_total
        merged.template_correct = self.template_correct + other.template_correct
        merged.length_total = self.length_total + other.length_total
        merged.length_correct = self.length_correct + other.length_correct
        return merged

    def report(self, bucket_edges: Sequence[int] = DEFAULT_BUCKET_EDGES) -> EvalReport:
        if self.total == 0:
            raise ValueError("no records to report")
        labels = bucket_labels(bucket_edges)
        bucket_total = [0] * len(labels)
        bucket_correct = [0] * len(labels)
        for length, count in self.length_total.items():
            index = bucket_length(length, bucket_edges)
            bucket_total[index] += count
            bucket_correct[index] += self.length_correct[length]
        by_template = {
            key: TemplateStats(
                count=self.template_total[key],
                errors=self.template_total[key] - self.template_correct[key],
                accuracy=self.template_correct[key] / self.template_total[key],
            )
            for key in sorted(self.template_total, key=lambda k: k.value if k else "~")
        }
        buckets = [
            BucketStats(
                bucket=labels[i],
                count=bucket_total[i],
                ratio=bucket_total[i] / self.total,
                accuracy=(bucket_correct[i] / bucket_total[i]) if bucket_total[i] else 0.0,
            )
            for i in range(len(labels))
        ]
        return EvalReport(
            n=self.total,
            overall_accuracy=self.correct / self.total,
            by_template=by_template,
            by_length_bucket=buckets,
            bucket_edges=tuple(bucket_edges),
        )


def evaluate_run(
    records: Sequence[EvalRecord], bucket_edges: Sequence[int] = DEFAULT_BUCKET_EDGES
) -> EvalReport:
    """Aggregate records into overall, per-template, and per-bucket accuracy."""
    acc = ReportAccumulator()
    for record in records:
        acc.add(record)
    return acc.report(bucket_edges)


def render_report_text(report: EvalReport) -> str:
    """Plain-text table alongside the JSON report."""
    lines = [
        f"records: {report.n}",
        f"overall accuracy: {report.overall_accuracy:.4f}",
        "",
        f"{'template':<16}{'count':>8}{'errors':>8}{'accuracy':>10}",
    ]
    for key, stats in report.by_template.items():
        name = key.value if key else "untemplated"
        lines.append(f"{name:<16}{stats.count:>8}{stats.errors:>8}{stats.accuracy:>10.4f}")
    lines.append("")
    lines.append(f"{'table length':<16}{'count':>8}{'ratio':>8}{'accuracy':>10}")
    for bucket in report.by_length_bucket:
        lines.append(
            f"{bucket.bucket:<16}{bucket.count:>8}{bucket.ratio:>8.3f}{bucket.accuracy:>10.4f}"
        )
    return "\n".join(lines)


def write_report(report: EvalReport, json_path, text_path) -> None:
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(render_report_text(report) + "\n")


def write_records_jsonl(records: Sequence[EvalRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), ensure_ascii=False) + "\n")


def read_records_jsonl(path) -> list[EvalRecord]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                records.append(EvalRecord.from_dict(json.loads(line)))
    return records


def write_records_csv(records: Sequence[EvalRecord], path) -> None:
    fields = ["question", "gold", "chart_id", "template_type", "prediction",
              "correct", "table_length", "trace_ref"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(record.to_dict())
