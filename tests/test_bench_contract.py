"""The benchmark drives chartloop through its public functions and records.

Installing every wrapper of the traced run, running one export job with its
check and one short ``closed_loop`` pass with its checks, makes a rename, a
removal or a changed record field that the benchmark reads fail in tier-1
instead of in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench():
    """The benchmark's ``inputs``, ``spans`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return inputs, spans, workloads


def test_install_tracing_finds_every_patched_function(perfbench):
    _, spans, workloads = perfbench
    tracer = spans.Tracer()
    try:
        workloads.install_tracing(tracer, [])
    finally:
        tracer.unpatch_all()


def test_an_export_job_passes_the_benchmark_check(perfbench, tmp_path):
    """One ``training_export`` shard, exported by the job the benchmark times
    and checked as it checks each job: pair count, parsed answers, point
    cells and examples written."""
    inputs, _, workloads = perfbench
    inputs.export_pool(tmp_path / "inputs", 0, 1)
    shard = tmp_path / "inputs" / "shards" / "0000"
    want = json.loads((shard / "expected.json").read_text(encoding="utf-8"))
    out = tmp_path / "out"
    out.mkdir()
    pairs, examples, written = workloads.export_job(shard, out, 0)
    _, (s1_lines, s2_lines) = workloads.file_digest(out / "system1.jsonl", out / "system2.jsonl")
    result = workloads.Result()
    workloads.check_export(result, 0, want, pairs, examples, written, s1_lines, s2_lines)
    assert (result.failed, result.problems) == (0, [])
    assert written == want["concluded_traces"] > 0


def test_a_closed_loop_pass_passes_the_benchmark_checks(perfbench, tmp_path):
    """A ``closed_loop`` run over a 20-chart pool, cut to a twentieth of a
    second: every answer is checked against its gold as the benchmark checks
    it.  ``http_sc`` is left out: its set-up leaves sockets unclosed."""
    inputs, _, workloads = perfbench
    inputs.qa_pool(tmp_path / "inputs", 0, 20)
    (tmp_path / "out").mkdir()
    ctx = workloads.Context(tmp_path / "inputs", tmp_path / "out", 0, seconds=0.05, tracer=None)
    result = workloads.qa_workload(ctx, "closed_loop")
    assert (result.failed, result.problems) == (0, [])
    assert result.attempted > 0
