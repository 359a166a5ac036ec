"""Answer normalization, relaxed-accuracy scoring, voting, and reports.

Relaxed accuracy is exact match for text, and at most 5% relative error for
numbers, measured against the gold value (gold zero degrades to exact
equality).  The tolerance boundary is inclusive.  All numeric comparison runs
on Decimals so nothing is lost to binary floats at the boundary.

Predictions and gold answers read numbers by the rule that reads cells and
reader answers (``tables.parse_number``: ``$``, ``%``, thousands commas and
exponents); "75%" matches 75, and "50%" does not match 0.5.  Only scoring
classifies an answer: ``_read_answer`` reads it once, past quotes and
sentence punctuation, into its ``ValueKind`` and its number or folded text,
so "'5'" scores as 5 although its ``Value`` holds no number.  Only voting
renders the canonical ``Value`` of ``normalize_answer``.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, DefaultContext
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .tables import (SHAPE_ERRORS, QAInstance, Value, bucket_labels, bucket_length,
                     canonical_decimal, encode_json, parse_number, shape_reason, text_field)

TOLERANCE = Decimal("0.05")
DEFAULT_BUCKET_EDGES = (0, 10, 20, 40)
_RATIO = Context(prec=DefaultContext.prec, Emax=MAX_EMAX, Emin=MIN_EMIN)  # cannot overflow


class ValueKind(str, Enum):
    NUMERIC = "numeric"
    TEXT = "text"
    YES_NO = "yes_no"


def _read_answer(raw: str) -> tuple[ValueKind, Decimal | str]:
    """An answer's kind and what scoring compares: its number, or its folded text."""
    s = raw.strip()
    while len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        s = s[1:-1].strip()
    s = s.rstrip(".!?").strip()
    if (folded := s.lower()) in ("yes", "no"):
        return ValueKind.YES_NO, folded
    number = parse_number(s)
    return (ValueKind.TEXT, s.casefold()) if number is None else (ValueKind.NUMERIC, number)


def normalize_answer(raw: str) -> Value:
    """Canonicalize an answer string for voting and matching.

    Strips wrapping whitespace/quotes and sentence punctuation, folds yes/no,
    and renders a number read by ``parse_number`` with canonical precision
    ("15.00", "$15" and "1.5e1" normalize identically).  Anything else is
    case-folded text.
    """
    kind, key = _read_answer(raw)
    return Value(canonical_decimal(key), key) if kind is ValueKind.NUMERIC else Value(key)


def relaxed_match(prediction: Value, gold: Value) -> bool:
    """Relaxed accuracy verdict for one prediction against gold.

    Numeric gold: |pred - gold| / |gold| <= TOLERANCE, inclusive; gold zero
    requires exact zero.  Text and yes/no: exact normalized match.  A kind
    mismatch that survives numeric coercion is simply false.
    """
    (p_kind, p), (g_kind, g) = _read_answer(prediction.raw), _read_answer(gold.raw)
    if p_kind is not g_kind:
        return False
    if g_kind is not ValueKind.NUMERIC or not g:
        return p == g
    return _RATIO.divide(abs(p - g), abs(g)) <= TOLERANCE


def vote_key(value: Value) -> str:
    """Canonical rendering used to group equal answers in a vote."""
    return normalize_answer(value.raw).raw


def leading_key(counts: Mapping[str, int]) -> str:
    """The class a vote over ``counts`` (vote key to votes, not empty) elects:
    the most votes, ties to the lexicographically smaller key."""
    return min(counts, key=lambda key: (-counts[key], key))


def vote_decided(counts: Mapping[str, int], remaining: int) -> bool:
    """True once ``remaining`` more votes cannot change the leading class.

    The leader must have more votes than remain, so no class not yet seen can
    reach it, and every other class, given all the remaining votes, must
    still fall short of it or tie it with a larger key.  No votes decide
    nothing."""
    if not counts:
        return False
    leader = leading_key(counts)
    lead = counts[leader]
    return lead > remaining and all(
        count + remaining < lead or (count + remaining == lead and leader < key)
        for key, count in counts.items() if key != leader)


def majority_vote(finals: Sequence[Value]) -> Optional[Value]:
    """Mode of the finals by ``vote_key``, chosen by ``leading_key``.
    Returns the winning class's smallest raw member as written, so one final
    votes for itself; an empty pool means no answer."""
    if not finals:
        return None
    keys = [vote_key(v) for v in finals]
    winner = leading_key(Counter(keys))
    return min((v for v, key in zip(finals, keys) if key == winner), key=lambda v: v.raw)


# The ``records.jsonl`` keys in order, which are also ``write_records_csv``'s columns.
RECORD_FIELDS = ("question", "gold", "chart_id", "template_type", "prediction", "correct",
                 "table_length", "trace_ref")


@dataclass(frozen=True, slots=True)
class EvalRecord:
    qa: QAInstance
    prediction: Optional[Value]
    correct: bool
    table_length: int
    trace_ref: str

    def values(self) -> tuple:
        """The values written for ``RECORD_FIELDS``, in that order."""
        qa = self.qa
        return (qa.question, qa.gold.raw, qa.chart_id,
                qa.template_type.value if qa.template_type else None,
                self.prediction.raw if self.prediction else None, self.correct,
                self.table_length, self.trace_ref)

    def to_dict(self) -> dict:
        return dict(zip(RECORD_FIELDS, self.values()))

    @staticmethod
    def from_dict(obj: dict) -> "EvalRecord":
        """Raises ValueError unless ``correct`` is a JSON bool and
        ``table_length`` a non-negative integer, so no verdict is guessed."""
        raw = obj.get("prediction")
        prediction = None if raw is None else Value.from_raw(text_field(raw, "prediction"))
        correct, table_length = obj["correct"], obj["table_length"]
        if type(correct) is not bool:
            raise ValueError(f"correct must be true or false, not {correct!r}")
        if type(table_length) is not int or table_length < 0:
            raise ValueError(f"table_length must be a non-negative integer, not {table_length!r}")
        return EvalRecord(QAInstance.from_dict(obj), prediction, correct, table_length,
                          text_field(obj.get("trace_ref", ""), "trace_ref"))


def make_record(qa: QAInstance, prediction: Optional[Value], table_length: int,
                trace_ref: str) -> EvalRecord:
    correct = prediction is not None and relaxed_match(prediction, qa.gold)
    return EvalRecord(qa, prediction, correct, table_length, trace_ref)


def evaluate_run(records: Iterable[EvalRecord],
                 bucket_edges: Sequence[int] = DEFAULT_BUCKET_EDGES) -> Optional[dict]:
    """The ``report.json`` dict: overall, per-template and per-bucket accuracy,
    folded over ``records`` in one pass that keeps no record; None if there is none."""
    counts = Counter((r.qa.template_type, r.table_length, r.correct) for r in records)
    total = counts.total()
    if not total:
        return None
    labels = bucket_labels(bucket_edges)
    # [count, correct] of each template and of each length bucket.
    templates: dict = {}
    buckets = [[0, 0] for _ in labels]
    for (key, length, correct), count in counts.items():
        bucket = buckets[bucket_length(length, bucket_edges)]
        for tally in (templates.setdefault(key, [0, 0]), bucket):
            tally[0] += count
            tally[1] += count if correct else 0
    return {
        "n": total,
        "overall_accuracy": sum(correct for _, correct in buckets) / total,
        "by_template": {
            (key.value if key else "untemplated"):
                {"count": count, "errors": count - correct, "accuracy": correct / count}
            for key, (count, correct) in sorted(templates.items(),
                                                key=lambda item: item[0].value if item[0] else "~")
        },
        "by_length_bucket": [
            {"bucket": label, "count": count, "ratio": count / total,
             "accuracy": correct / count if count else 0.0}
            for label, (count, correct) in zip(labels, buckets)
        ],
        "bucket_edges": list(bucket_edges),
    }


def render_report_text(report: dict) -> str:
    """Plain-text table alongside the JSON report."""
    lines = [
        f"records: {report['n']}",
        f"overall accuracy: {report['overall_accuracy']:.4f}",
        "",
        f"{'template':<16}{'count':>8}{'errors':>8}{'accuracy':>10}",
    ]
    for name, stats in report["by_template"].items():
        lines.append(f"{name:<16}{stats['count']:>8}{stats['errors']:>8}"
                     f"{stats['accuracy']:>10.4f}")
    lines.append("")
    lines.append(f"{'table length':<16}{'count':>8}{'ratio':>8}{'accuracy':>10}")
    for bucket in report["by_length_bucket"]:
        lines.append(f"{bucket['bucket']:<16}{bucket['count']:>8}{bucket['ratio']:>8.3f}"
                     f"{bucket['accuracy']:>10.4f}")
    return "\n".join(lines)


def write_report(report: dict, json_path, text_path) -> None:
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(render_report_text(report) + "\n")


def write_record_line(handle: TextIO, record: EvalRecord) -> None:
    """Append one record to an open ``records.jsonl``."""
    handle.write(encode_json(record.to_dict()) + "\n")


def write_records_jsonl(records: Sequence[EvalRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            write_record_line(handle, record)


def read_records_jsonl(path) -> Iterator[EvalRecord]:
    """Read records back lazily; a malformed line raises ValueError naming ``path:line``."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                try:
                    record = EvalRecord.from_dict(json.loads(line))
                except SHAPE_ERRORS as exc:
                    raise ValueError(f"{path}:{lineno}: {shape_reason(exc)}") from exc
                yield record


def write_records_csv(records: Iterable[EvalRecord], path) -> None:
    """The records as CSV: a ``RECORD_FIELDS`` header, then one row of values per record."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RECORD_FIELDS)
        writer.writerows(record.values() for record in records)
