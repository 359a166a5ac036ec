"""Seeded input generator for the chartloop benchmark.

    python3 perfbench/inputs.py --workload closed_loop --seed 0 --seconds 20 --out DIR

Writes a workload's inputs under DIR and prints one JSON line that
summarises them.  The same arguments always give byte-identical files; the
summary carries their SHA-256.  It runs as its own process so that
generating inputs leaves no state (heap, warm caches) behind in the process
the benchmark measures.

* ``closed_loop`` and ``http_sc``: ``corpus/`` in the internal_json layout
  (``charts.jsonl``, ``qa.jsonl``) holding seeded synthetic charts and one
  question per ``TemplateType`` per chart, exactly what
  ``chartloop eval --synthetic N`` generates, plus ``gold.jsonl``: the
  brute-force gold answers, read back by the benchmark without chartloop.
* ``training_export``: ``shards/NNNN/`` each holding a small corpus and the
  closed-loop trace files of its questions, in the layout ``chartloop run``
  writes, plus ``expected.json`` with the counts the export must produce and
  the cell values its point pairs must carry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chartloop.controller import run_episode  # noqa: E402
from chartloop.evalkit import DEFAULT_BUCKET_EDGES  # noqa: E402
from chartloop.oracle import TableOracle  # noqa: E402
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions  # noqa: E402
from chartloop.synth import random_table  # noqa: E402
from chartloop.tables import (  # noqa: E402
    TemplateType,
    Termination,
    bucket_labels,
    bucket_length,
    underlying_length,
)

# Pool sizes per measured second.  The question pools are sized to outlast a
# run at about 1.4x the closed-loop rate measured on the seed code and about
# 10x the http_sc rate, so no question is asked twice; a faster program ends
# the run when the pool is used up.  Export shards are few and cycled (see
# README.md): generating their traces costs more than exporting them.
QA_CHARTS_PER_SECOND = {"closed_loop": 500, "http_sc": 60}
EXPORT_SHARDS_PER_SECOND = 5
EXPORT_CHARTS_PER_SHARD = 10


def questions_for(table, seed: int) -> list:
    out = []
    for template in TemplateType:
        try:
            out.extend(qa for qa, _ in gen_questions(table, template, seed, n=1))
        except SkippedTemplate:
            continue
    return out


def write_corpus(directory: Path, charts, instances) -> None:
    directory.mkdir(parents=True)
    with open(directory / "charts.jsonl", "w", encoding="utf-8") as handle:
        for table in charts:
            handle.write(table.to_json() + "\n")
    with open(directory / "qa.jsonl", "w", encoding="utf-8") as handle:
        for qa in instances:
            row = {"question": qa.question, "answer": qa.gold.raw, "chart_id": qa.chart_id,
                   "template_type": qa.template_type.value}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def system1_pair_count(table) -> int:
    """The per-chart pair formula of ``generate_system1_corpus``."""
    n_series, n_x = len(table.series), len(table.x_labels)
    groups = n_series + n_x if n_series > 1 else 1
    return 1 + n_series * n_x + groups


def qa_pool(out: Path, seed: int, n_charts: int) -> list:
    charts = [random_table(seed, index) for index in range(n_charts)]
    instances = [qa for table in charts for qa in questions_for(table, seed)]
    write_corpus(out / "corpus", charts, instances)
    with open(out / "gold.jsonl", "w", encoding="utf-8") as handle:
        for qa in instances:
            handle.write(json.dumps([qa.chart_id, qa.question, qa.gold.raw], ensure_ascii=False) + "\n")
    return charts


def export_pool(out: Path, seed: int, n_shards: int) -> list:
    reasoner = SymbolicReasoner()
    all_charts = []
    for shard in range(n_shards):
        first = shard * EXPORT_CHARTS_PER_SHARD
        charts = [random_table(seed, first + k) for k in range(EXPORT_CHARTS_PER_SHARD)]
        instances = [qa for table in charts for qa in questions_for(table, seed)]
        directory = out / "shards" / f"{shard:04d}"
        write_corpus(directory, charts, instances)
        (directory / "traces").mkdir()
        reader = TableOracle(charts)
        concluded = 0
        for number, qa in enumerate(instances):
            trace = run_episode(qa.question, qa.chart_id, reasoner, reader)
            concluded += trace.terminated_by is Termination.CONCLUSION
            payload = {"question": qa.question, "chart_id": qa.chart_id}
            payload.update(trace.to_dict())
            with open(directory / "traces" / f"{number:05d}.json", "w", encoding="utf-8") as handle:
                json.dump(payload, handle, ensure_ascii=False, indent=2)
                handle.write("\n")
        expected = {
            "pairs": sum(system1_pair_count(t) for t in charts),
            "concluded_traces": concluded,
            # Point-pair answers, in the order generate_system1_corpus emits them.
            "cells": [cell.raw for t in charts for row in t.cells for cell in row],
        }
        with open(directory / "expected.json", "w", encoding="utf-8") as handle:
            json.dump(expected, handle, sort_keys=True)
            handle.write("\n")
        all_charts.extend(charts)
    return all_charts


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def length_shares(charts) -> dict[str, float]:
    """Share of charts per table-length bucket (cells, edges 0/10/20/40)."""
    labels = bucket_labels(DEFAULT_BUCKET_EDGES)
    counts = Counter(bucket_length(underlying_length(t), DEFAULT_BUCKET_EDGES) for t in charts)
    return {labels[i]: counts[i] / len(charts) for i in range(len(labels))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["closed_loop", "http_sc", "training_export"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True)
    if args.workload == "training_export":
        n_shards = max(2, EXPORT_SHARDS_PER_SECOND * args.seconds)
        charts = export_pool(out, args.seed, n_shards)
        summary = {"shards": n_shards}
    else:
        n_charts = max(20, QA_CHARTS_PER_SECOND[args.workload] * args.seconds)
        charts = qa_pool(out, args.seed, n_charts)
        summary = {}
    summary.update({
        "charts": len(charts),
        "table_length_share": length_shares(charts),
        "sha256": tree_sha256(out),
    })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
