"""The benchmark's three workloads and the metrics they report.

Every workload is a closed loop: one client, in this process, that waits for
each reply before it sends the next request.  The benchmark drives chartloop
only through its public functions, called through the module attributes the
program itself resolves, so the traced run can wrap them.

An *item* is a question on ``closed_loop`` and ``http_sc`` and an exported
training record on ``training_export``; per-item metrics divide by it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from chartloop import backends, controller, datagen, evalkit, oracle, prompts, protocol, symbolic, tables
from chartloop.controller import EpisodeConfig, SelfConsistencyConfig
from chartloop.protocol import UNAVAILABLE_ANSWER, AnswerKind, QueryOp, describe_query, format_query
from chartloop.tables import Termination, Value, underlying_length

from calibration import Calibrator
from loopback import LoopbackServer
from spans import BATCH_WORK, NO_QUESTION, Tracer

# The benchmark's own checks hold the functions they need from before any
# wrapper is installed, so the traced run neither times nor counts them.
_relaxed_match = evalkit.relaxed_match
_parse_reader_answer = protocol.parse_reader_answer
_value_from_raw = Value.from_raw

QA_BATCH = {"closed_loop": 1000, "http_sc": 100}  # questions per eval batch
SC_SAMPLES, SC_TEMPERATURE = 5, 0.4
SETUP_REPEATS = {"closed_loop": 3, "http_sc": 3, "training_export": 51}
SETUP_KERNELS = 10  # calibration kernel runs after each set-up
# The printed p99 needs at least 10 samples beyond it.  A run that has not
# reached this many by --seconds goes on until it has, up to WINDOW_CAP times
# --seconds.
MIN_SAMPLES = 1010
WINDOW_CAP = 1.5

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "backend_calls_per_item": "count",
    "payload_kb_per_item": "KB",
    "peak_rss_mb": "MB",
}

_CALLS, _MS = "count/item", "ms/item"
PER_LAYER = {
    "prompts.build_prompt.calls": _CALLS,
    "prompts.build_prompt.self_ms": _MS,
    "prompts.default_step_exemplars.calls": _CALLS,
    "prompts.default_step_exemplars.ms": _MS,
    "symbolic.SymbolicReasoner.complete.calls": _CALLS,
    "symbolic.SymbolicReasoner.complete.self_ms": _MS,
    "symbolic.decompose.calls": _CALLS,
    "symbolic.decompose.self_ms": _MS,
    "protocol.parse_step.calls": _CALLS,
    "protocol.parse_step.self_ms": _MS,
    "protocol.parse_reader_answer.calls": _CALLS,
    "protocol.parse_reader_answer.self_ms": _MS,
    "oracle.TableOracle.read.calls": _CALLS,
    "oracle.TableOracle.read.self_ms": _MS,
    "oracle.read.repeat_share": "share",
    "oracle.read.sc_group_repeat_share": "share",
    "oracle.read.unavailable_share": "share",
    "oracle.execute_query.calls": _CALLS,
    "oracle.execute_query.self_ms": _MS,
    "controller.run_episode.calls": _CALLS,
    "controller.run_episode.self_ms": _MS,
    "controller.steps_per_episode": "count",
    "controller.episodes_per_question": "count",
    "workload.reasoner_calls_per_item": _CALLS,
    "workload.reader_calls_per_item": _CALLS,
    "backends.HttpReasoner.complete.calls": _CALLS,
    "backends.HttpReasoner.complete.ms": _MS,
    "backends.HttpReasoner.complete.wait_ms": _MS,
    "backends.HttpReader.read.calls": _CALLS,
    "backends.HttpReader.read.ms": _MS,
    "backends.HttpReader.read.wait_ms": _MS,
    "backends.connections_opened": _CALLS,
    "backends.retries": _CALLS,
    "backends.request_kb": "KB/item",
    "backends.response_kb": "KB/item",
    "backends.server.reasoner.compute_ms": _MS,
    "backends.server.reader.compute_ms": _MS,
    "evalkit.make_record.self_ms": _MS,
    "evalkit.majority_vote.self_ms": _MS,
    "evalkit.evaluate_run.ms": _MS,
    "evalkit.write_records_jsonl.ms": _MS,
    "evalkit.write_records_csv.ms": _MS,
    "evalkit.write_report.ms": _MS,
    "datagen.load_corpus.ms": "ms/call",
    "datagen.generate_system1_corpus.self_ms": _MS,
    "datagen.write_system1_jsonl.ms": _MS,
    "datagen.examples_from_traces.ms": _MS,
    "datagen.export_system2_sft.ms": _MS,
    "trace.overhead_share": "share",
}


@dataclass
class Context:
    inputs: Path
    out: Path
    seed: int
    seconds: float
    tracer: Optional[Tracer]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def failure(self, message: str, count: int = 1) -> None:
        """A failed operation: counted in ``failed`` and described."""
        self.failed += count
        self.problem(message)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


class Window:
    """The timed window: --seconds of timed work and, when latency
    percentiles are reported, at least MIN_SAMPLES samples, but never more
    than WINDOW_CAP times --seconds."""

    def __init__(self, seconds: float, min_samples: int):
        self.target_ns = int(seconds * 1e9)
        self.cap_ns = int(seconds * WINDOW_CAP * 1e9)
        self.min_samples = min_samples

    def over(self, timed_ns: int, samples: int) -> bool:
        return timed_ns >= self.cap_ns or (
            timed_ns >= self.target_ns and samples >= self.min_samples)

    @staticmethod
    def for_run(ctx: "Context") -> "Window":
        """The traced run reports no percentiles, so it needs no minimum."""
        return Window(ctx.seconds, MIN_SAMPLES if ctx.tracer is None else 0)


def repeat_setup(build: Callable, repeats: int, tear_down: Callable = lambda built: None,
                 cal: Optional[Calibrator] = None):
    """Run ``build`` several times, keep the last result and return the
    median set-up time with it, in reference seconds when ``cal`` is given:
    the kernel then runs SETUP_KERNELS times after each set-up, untimed."""
    times, built = [], None
    for _ in range(repeats):
        if built is not None:
            tear_down(built)
            built = None  # let the previous set-up go before timing the next
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
        if cal is not None:
            cal.sample(SETUP_KERNELS)
    return statistics.median(times) * (cal.scale() if cal is not None else 1.0), built


def percentile_ms(latencies_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in milliseconds."""
    ordered = sorted(latencies_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def reference_timings(items: int, timed_ns: int, latencies_ns: list[int],
                      scale: float) -> dict[str, float]:
    """Throughput and latency percentiles in reference time (calibration.py)."""
    return {
        "items_per_s": items / (timed_ns / 1e9 * scale),
        "latency_p50_ms": percentile_ms(latencies_ns, 0.50) * scale,
        "latency_p90_ms": percentile_ms(latencies_ns, 0.90) * scale,
    }


def timing_note(latencies_ns: list[int], items: int, timed_ns: int, cal: Optional[Calibrator]) -> str:
    """The raw (wall-clock) figures, p99 with its sample counts, and the
    calibration.  p99 is printed, not in the metric list: it moves with the
    neighbours' load more than any bound the benchmark may set."""
    n = len(latencies_ns)
    return (f"samples={n} beyond_p99={n - math.ceil(0.99 * n)} "
            f"latency_p99_ms={percentile_ms(latencies_ns, 0.99) * (cal.scale() if cal else 1.0):.6f}; "
            f"raw: items_per_s={items / (timed_ns / 1e9):.3f} "
            f"latency_p50_ms={percentile_ms(latencies_ns, 0.50):.6f} "
            f"latency_p90_ms={percentile_ms(latencies_ns, 0.90):.6f} "
            f"latency_p99_ms={percentile_ms(latencies_ns, 0.99):.6f}; "
            + (cal.note() if cal else "no calibration (traced run)"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def file_digest(*paths: Path) -> tuple[str, list[int]]:
    digest, lines = hashlib.sha256(), []
    for path in paths:
        data = path.read_bytes()
        digest.update(data)
        lines.append(data.count(b"\n"))
    return digest.hexdigest(), lines


def install_tracing(tracer: Tracer, reads: list) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    patch = tracer.patch
    patch(controller, "build_prompt", "prompts.build_prompt")
    patch(prompts, "default_step_exemplars", "prompts.default_step_exemplars")
    patch(symbolic.SymbolicReasoner, "complete", "symbolic.SymbolicReasoner.complete")
    patch(symbolic, "decompose", "symbolic.decompose")
    patch(controller, "parse_step", "protocol.parse_step")
    patch(oracle, "parse_step", "protocol.parse_step")
    patch(protocol, "parse_reader_answer", "protocol.parse_reader_answer")
    patch(oracle.TableOracle, "read", "oracle.TableOracle.read", reads)
    patch(oracle, "execute_query", "oracle.execute_query")
    patch(controller, "run_episode", "controller.run_episode")
    patch(controller, "majority_vote", "evalkit.majority_vote")
    for name in ("make_record", "evaluate_run", "write_records_jsonl", "write_records_csv",
                 "write_report"):
        patch(evalkit, name, f"evalkit.{name}")
    for name in ("load_corpus", "generate_system1_corpus", "write_system1_jsonl",
                 "examples_from_traces", "export_system2_sft"):
        patch(datagen, name, f"datagen.{name}")
    patch(backends.HttpReasoner, "complete", "backends.HttpReasoner.complete")
    patch(backends.HttpReader, "read", "backends.HttpReader.read", reads)


def read_shares(reads: list) -> dict[str, float]:
    """Repeat and not-available shares of the reader queries of the timed
    window, across the whole run and within one question (an SC group)."""
    seen_run, seen_group, group = set(), set(), None
    repeats_run = repeats_group = unavailable = total = 0
    for qid, args, kwargs, answer in reads:
        if qid < 0:
            continue
        key = args[1:] + tuple(sorted(kwargs.items()))
        if qid != group:
            group, seen_group = qid, set()
        repeats_run += key in seen_run
        repeats_group += key in seen_group
        seen_run.add(key)
        seen_group.add(key)
        unavailable += answer == UNAVAILABLE_ANSWER
        total += 1
    total = max(total, 1)
    return {
        "oracle.read.repeat_share": repeats_run / total,
        "oracle.read.sc_group_repeat_share": repeats_group / total,
        "oracle.read.unavailable_share": unavailable / total,
    }


def span_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item calls and times of every span name, over the timed window;
    ``datagen.load_corpus.ms`` is per call and includes set-up."""
    timed = tracer.totals(lambda qid: qid != NO_QUESTION)
    metrics = {}
    for name, unit in PER_LAYER.items():
        span, _, kind = name.rpartition(".")
        if unit == _CALLS and kind == "calls":
            metrics[name] = timed[span]["calls"] / items
        elif kind in ("self_ms", "ms") and unit == _MS:
            metrics[name] = timed[span]["self_ns" if kind == "self_ms" else "ns"] / 1e6 / items
    loads = tracer.totals(lambda qid: True)["datagen.load_corpus"]
    metrics["datagen.load_corpus.ms"] = loads["ns"] / 1e6 / max(loads["calls"], 1)
    return metrics


class CallCounts:
    """Backend calls and prompt bytes, counted at the backend instances."""

    def __init__(self, reasoner, reader):
        self.reasoner_calls = self.reader_calls = self.prompt_bytes = 0
        # The class method is looked up on every call, so the traced run's
        # class-level wrappers still see each call; the instances keep their
        # types, so code that checks a backend's type is unaffected.
        reasoner_type, reader_type = type(reasoner), type(reader)

        def complete(prompt, *args, **kwargs):
            self.reasoner_calls += 1
            self.prompt_bytes += len(prompt.encode("utf-8"))
            return reasoner_type.complete(reasoner, prompt, *args, **kwargs)

        def read(*args, **kwargs):
            self.reader_calls += 1
            return reader_type.read(reader, *args, **kwargs)

        reasoner.complete = complete
        reader.read = read


# ---------------------------------------------------------------------------
# closed_loop and http_sc: an eval over template questions, in batches.
# ---------------------------------------------------------------------------

@dataclass
class EvalPass:
    batch_sizes: list[int] = field(default_factory=list)
    batch_ns: list[int] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    timed_ns: int = 0
    digests: list[str] = field(default_factory=list)
    episodes: int = 0
    steps: int = 0
    sc_samples: int = 0
    sc_identical: int = 0

    @property
    def items(self) -> int:
        return len(self.latencies_ns)


def read_gold(inputs: Path) -> list[list[str]]:
    with open(inputs / "gold.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def eval_pass(result: Result, out: Path, instances, golds, lengths, answer, batch: int,
              tracer: Optional[Tracer], window: Optional[Window] = None,
              batch_sizes: Optional[list[int]] = None, cal: Optional[Calibrator] = None) -> EvalPass:
    """Score questions in eval-sized batches, each batch the way
    ``chartloop eval`` scores a run: episodes, ``make_record`` per question,
    then ``evaluate_run`` and the report and records writers.

    With a ``window`` the pass runs until the window is over; with
    ``batch_sizes`` it repeats a given batch layout.  Checks run after each
    batch, and the calibration kernel between questions, outside the timed
    window.
    """
    clock = time.perf_counter_ns
    run = EvalPass()
    index = 0
    while index < len(instances):
        if batch_sizes is not None:
            if len(run.batch_sizes) == len(batch_sizes):
                break
            size = batch_sizes[len(run.batch_sizes)]
        else:
            if window.over(run.timed_ns, run.items):
                break
            size = min(batch, len(instances) - index)
        start, records, outcomes = index, [], []
        batch_start, paused = clock(), 0
        while index < start + size:
            qa = instances[index]
            if tracer is not None:
                tracer.qid = index
            t0 = clock()
            try:
                final, traces = answer(qa)
                error = None
            except Exception as exc:  # one broken question must not end the run
                final, traces, error = None, (), exc
            records.append(evalkit.make_record(qa, final, lengths[qa.chart_id], f"episode-{index}"))
            t1 = clock()
            run.latencies_ns.append(t1 - t0)
            outcomes.append((final, traces, error))
            index += 1
            timed = run.timed_ns + t1 - batch_start - paused
            if cal is not None:
                paused += cal.between(timed)
            if window is not None and window.over(timed, run.items):
                break
        if tracer is not None:
            tracer.qid = BATCH_WORK
        report = evalkit.evaluate_run(records, evalkit.DEFAULT_BUCKET_EDGES)
        evalkit.write_report(report, out / "report.json", out / "report.txt")
        evalkit.write_records_jsonl(records, out / "records.jsonl")
        evalkit.write_records_csv(records, out / "records.csv")
        run.batch_ns.append(clock() - batch_start - paused)
        run.timed_ns += run.batch_ns[-1]
        run.batch_sizes.append(index - start)
        run.digests.append(file_digest(out / "records.jsonl")[0])
        for offset, (record, (final, traces, error)) in enumerate(zip(records, outcomes)):
            check_question(result, start + offset, instances, golds, record, final, traces, error)
            run.episodes += len(traces)
            run.steps += sum(len(t.steps) for t in traces)
            if len(traces) > 1:
                run.sc_samples += len(traces) - 1
                run.sc_identical += sum(t == traces[0] for t in traces[1:])
    return run


def check_question(result: Result, index: int, instances, golds, record, final, traces, error) -> None:
    qa = instances[index]
    chart_id, question, gold = golds[index]
    result.attempted += 1
    if error is not None:
        result.failure(f"question {index}: {error!r}")
    elif (qa.chart_id, qa.question) != (chart_id, question):
        result.failure(f"question {index}: loaded corpus differs from the generated questions")
    elif not traces or any(t.terminated_by is not Termination.CONCLUSION for t in traces):
        kinds = sorted({t.terminated_by.value for t in traces})
        result.failure(f"question {index}: terminated by {kinds}")
    elif final is None or not _relaxed_match(final, _value_from_raw(gold)):
        result.failure(f"question {index}: answer {final and final.raw!r} against gold {gold!r}")
    elif not record.correct:
        result.failure(f"question {index}: record marked incorrect")


def qa_workload(ctx: Context, name: str) -> Result:
    sc = name == "http_sc"
    result = Result()
    golds = read_gold(ctx.inputs)
    corpus_dir = ctx.inputs / "corpus"
    tracer, reads = ctx.tracer, []
    servers: list[LoopbackServer] = []
    config = EpisodeConfig()
    sc_config = SelfConsistencyConfig(n_samples=SC_SAMPLES, temperature=SC_TEMPERATURE)

    def connect(corpus):
        """Backends for a loaded corpus; over HTTP this starts the server and
        makes the first round trip to each endpoint."""
        if not sc:
            return symbolic.SymbolicReasoner(), oracle.TableOracle(corpus.chart_index())
        server = LoopbackServer(corpus_dir)
        servers.append(server)
        reasoner = backends.HttpReasoner(server.url + "/reasoner")
        reader = backends.HttpReader(server.url + "/reader")
        first = corpus.all_qa()[0]
        reader.read(first.chart_id, format_query(describe_query()))
        reasoner.complete(f"Q: {first.question}\nA: ", ["\n"], 0.0, 256)
        return reasoner, reader

    def set_up():
        corpus = datagen.load_corpus(corpus_dir)
        lengths = {t.source_id: underlying_length(t) for t in corpus.charts}
        return (corpus, lengths, *connect(corpus))

    def answerer(reasoner, reader):
        if sc:
            return lambda qa: controller.run_self_consistency(
                qa.question, qa.chart_id, reasoner, reader, config, sc_config)

        def answer(qa):
            trace = controller.run_episode(qa.question, qa.chart_id, reasoner, reader, config)
            return trace.final, (trace,)
        return answer

    def stop_server() -> dict:
        """Server totals, less the set-up round trip on each endpoint."""
        if not sc:
            return {}
        stats = servers.pop().stop()
        stats["connections"] -= 2
        for entry in stats["endpoints"].values():
            entry["requests"] -= 1
        return stats

    try:
        if tracer is not None:
            install_tracing(tracer, reads)
        setup_s, (corpus, lengths, reasoner, reader) = repeat_setup(
            set_up, SETUP_REPEATS[name], lambda built: stop_server(),
            Calibrator() if tracer is None else None)
        instances = corpus.all_qa()
        counts = CallCounts(reasoner, reader)
        cal = Calibrator() if tracer is None else None
        run = eval_pass(result, ctx.out, instances, golds, lengths, answerer(reasoner, reader),
                        QA_BATCH[name], tracer, window=Window.for_run(ctx), cal=cal)
        stats = stop_server()
        n = run.items
        result.notes.append(
            f"questions={n} batches={len(run.batch_sizes)} timed_s={run.timed_ns / 1e9:.3f} "
            f"pool={len(instances)}")
        result.notes.append(timing_note(run.latencies_ns, n, run.timed_ns, cal))
        result.notes.append(
            f"reasoner_calls_per_question={counts.reasoner_calls / n:.4f} "
            f"reader_calls_per_question={counts.reader_calls / n:.4f} "
            f"steps_per_episode={run.steps / max(run.episodes, 1):.4f}")
        if sc:
            result.notes.append(
                f"sc_samples_identical_to_first={run.sc_identical}/{run.sc_samples} "
                "(SymbolicReasoner ignores temperature)")
            if stats["endpoints"]["reasoner"]["errors"] or stats["endpoints"]["reader"]["errors"]:
                result.problem(f"server reported errors: {stats['endpoints']}")
        if tracer is None:
            result.metrics = {
                "setup_s": setup_s,
                **reference_timings(n, run.timed_ns, run.latencies_ns, cal.scale()),
                "backend_calls_per_item": (counts.reasoner_calls + counts.reader_calls) / n,
                "payload_kb_per_item": counts.prompt_bytes / 1000 / n,
                "peak_rss_mb": peak_rss_mb(),
            }
            return result

        # Traced run: the per-layer numbers come from this pass; an untraced
        # pass over the same batches must then write the same records.
        tracer.unpatch_all()
        metrics = span_metrics(tracer, n)
        metrics.update(read_shares(reads))
        metrics["controller.steps_per_episode"] = run.steps / max(run.episodes, 1)
        metrics["controller.episodes_per_question"] = metrics["controller.run_episode.calls"]
        metrics["workload.reasoner_calls_per_item"] = counts.reasoner_calls / n
        metrics["workload.reader_calls_per_item"] = counts.reader_calls / n
        if sc:
            totals = tracer.totals(lambda qid: qid != NO_QUESTION)
            endpoints = stats["endpoints"]
            client_calls = (totals["backends.HttpReasoner.complete"]["calls"]
                            + totals["backends.HttpReader.read"]["calls"])
            server_requests = endpoints["reasoner"]["requests"] + endpoints["reader"]["requests"]
            metrics.update({
                "backends.HttpReasoner.complete.wait_ms": metrics["backends.HttpReasoner.complete.ms"]
                - endpoints["reasoner"]["compute_ns"] / 1e6 / n,
                "backends.HttpReader.read.wait_ms": metrics["backends.HttpReader.read.ms"]
                - endpoints["reader"]["compute_ns"] / 1e6 / n,
                "backends.connections_opened": stats["connections"] / n,
                "backends.retries": (server_requests - client_calls) / n,
                "backends.request_kb": sum(e["request_bytes"] for e in endpoints.values()) / 1000 / n,
                "backends.response_kb": sum(e["response_bytes"] for e in endpoints.values()) / 1000 / n,
                "backends.server.reasoner.compute_ms": endpoints["reasoner"]["compute_ns"] / 1e6 / n,
                "backends.server.reader.compute_ms": endpoints["reader"]["compute_ns"] / 1e6 / n,
            })
        check = Result()
        reasoner, reader = connect(corpus)
        CallCounts(reasoner, reader)  # the same code path as the untraced run
        plain = eval_pass(check, ctx.out, instances, golds, lengths, answerer(reasoner, reader),
                          QA_BATCH[name], None, batch_sizes=run.batch_sizes)
        stop_server()
        finish_traced(result, tracer, metrics, run, plain, check, ctx.out)
        return result
    finally:
        for server in servers:
            server.kill()
        if tracer is not None:
            tracer.unpatch_all()


def finish_traced(result: Result, tracer: Tracer, metrics: dict, traced, plain, check: Result,
                  out: Path) -> None:
    """Compare the traced pass with the untraced one, check span nesting,
    write the spans out and store the per-layer metrics."""
    for problem in check.problems:
        result.problem(f"untraced pass: {problem}")
    if traced.digests != plain.digests:
        differ = [i for i, (a, b) in enumerate(zip(traced.digests, plain.digests)) if a != b]
        result.problem(f"traced and untraced outputs differ (batches {differ[:5]} of "
                       f"{len(traced.digests)}/{len(plain.digests)}): a wrapper changed behaviour")
    for problem in tracer.check_nesting():
        result.problem(f"span nesting: {problem}")
    # Extra time per item with tracing on, as a share of the untraced time.
    metrics["trace.overhead_share"] = (
        (traced.timed_ns / traced.items) / (plain.timed_ns / plain.items) - 1)
    result.notes.append(f"spans={len(tracer)} written to {out.name}/spans.tsv; "
                        f"outputs of traced and untraced passes identical: {traced.digests == plain.digests}")
    tracer.write_tsv(out / "spans.tsv")
    result.metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# training_export: reader pairs and reasoner SFT examples, one shard per job.
# ---------------------------------------------------------------------------

@dataclass
class ExportPass:
    latencies_ns: list[int] = field(default_factory=list)
    job_items: list[int] = field(default_factory=list)
    timed_ns: int = 0
    items: int = 0
    bytes_written: int = 0
    digests: list[str] = field(default_factory=list)

    @property
    def jobs(self) -> int:
        return len(self.latencies_ns)


class QueryCounter:
    """Counts ``oracle.execute_query`` calls, the export's backend calls."""

    def __init__(self):
        self.calls = 0
        self.original = oracle.execute_query

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        oracle.execute_query = counted

    def remove(self) -> None:
        oracle.execute_query = self.original


def export_job(shard: Path, out: Path, seed: int):
    """What ``chartloop datagen`` then ``chartloop export-ft`` do for a shard."""
    corpus = datagen.load_corpus(shard)
    pairs, _ = datagen.generate_system1_corpus(corpus.charts, seed)
    datagen.write_system1_jsonl(pairs, out / "system1.jsonl")
    triples = []
    for trace_path in sorted((shard / "traces").glob("*.json")):
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        triples.append((tables.ReasoningTrace.from_dict(payload), payload["question"],
                        payload["chart_id"]))
    examples, _ = datagen.examples_from_traces(triples)
    written = datagen.export_system2_sft(examples, out / "system2.jsonl", False)
    return pairs, examples, written


def export_pass(result: Result, ctx: Context, shards: list[Path], expected: list[dict],
                tracer: Optional[Tracer], window: Optional[Window] = None,
                jobs: Optional[int] = None, cal: Optional[Calibrator] = None) -> ExportPass:
    clock = time.perf_counter_ns
    run = ExportPass()
    while (run.jobs < jobs) if jobs is not None else not window.over(run.timed_ns, run.jobs):
        number = run.jobs
        shard, want = shards[number % len(shards)], expected[number % len(shards)]
        if tracer is not None:
            tracer.qid = number
        t0 = clock()
        try:
            pairs, examples, written = export_job(shard, ctx.out, ctx.seed)
            error = None
        except Exception as exc:  # one broken job must not end the run
            pairs, examples, written, error = [], [], 0, exc
        elapsed = clock() - t0
        run.latencies_ns.append(elapsed)
        run.timed_ns += elapsed
        run.items += len(pairs) + written
        run.job_items.append(len(pairs) + written)
        result.attempted += want["pairs"] + want["concluded_traces"]
        if error is not None:
            result.failure(f"job {number}: {error!r}", want["pairs"] + want["concluded_traces"])
            continue
        digest, (s1_lines, s2_lines) = file_digest(ctx.out / "system1.jsonl", ctx.out / "system2.jsonl")
        run.digests.append(digest)
        run.bytes_written += sum((ctx.out / f).stat().st_size for f in ("system1.jsonl", "system2.jsonl"))
        check_export(result, number, want, pairs, examples, written, s1_lines, s2_lines)
        if cal is not None:
            cal.between(run.timed_ns)
    return run


def check_export(result: Result, number: int, want: dict, pairs, examples, written: int,
                 s1_lines: int, s2_lines: int) -> None:
    if len(pairs) != want["pairs"] or s1_lines != len(pairs):
        result.failure(f"job {number}: {len(pairs)} pairs, {s1_lines} lines written, "
                       f"formula gives {want['pairs']}", max(abs(len(pairs) - want["pairs"]), 1))
    answers = [_parse_reader_answer(p.answer) for p in pairs]
    unavailable = sum(a.kind is AnswerKind.UNAVAILABLE for a in answers)
    if unavailable:
        result.failure(f"job {number}: {unavailable} system1 answers do not parse", unavailable)
    points = [a.scalar.raw if a.scalar else None
              for p, a in zip(pairs, answers) if p.op.op is QueryOp.EXTRACT_POINT]
    wrong = sum(got != cell for got, cell in zip(points, want["cells"]))
    if wrong:
        result.failure(f"job {number}: {wrong} point pairs disagree with the table cells", wrong)
    concluded = want["concluded_traces"]
    if not (len(examples) == written == s2_lines == concluded):
        result.failure(f"job {number}: {len(examples)} examples, {written} written, {s2_lines} lines "
                       f"for {concluded} concluded traces", max(abs(written - concluded), 1))


def training_export(ctx: Context) -> Result:
    result = Result()
    shards = sorted(p for p in (ctx.inputs / "shards").iterdir() if p.is_dir())
    expected = [json.loads((s / "expected.json").read_text(encoding="utf-8")) for s in shards]
    tracer = ctx.tracer
    counter = QueryCounter()
    try:
        if tracer is not None:
            install_tracing(tracer, [])
        setup_s, _ = repeat_setup(lambda: datagen.load_corpus(shards[0]),
                                  SETUP_REPEATS["training_export"],
                                  cal=Calibrator() if tracer is None else None)
        cal = Calibrator() if tracer is None else None
        run = export_pass(result, ctx, shards, expected, tracer, window=Window.for_run(ctx), cal=cal)
        calls = counter.calls
        n, jobs = run.items, run.jobs
        result.notes.append(
            f"jobs={jobs} records={n} timed_s={run.timed_ns / 1e9:.3f} shards={len(shards)} "
            f"pool_cycles={jobs / len(shards):.2f}")
        result.notes.append(timing_note(run.latencies_ns, n, run.timed_ns, cal))
        if tracer is None:
            result.metrics = {
                "setup_s": setup_s,
                **reference_timings(n, run.timed_ns, run.latencies_ns, cal.scale()),
                "backend_calls_per_item": calls / n,
                "payload_kb_per_item": run.bytes_written / 1000 / n,
                "peak_rss_mb": peak_rss_mb(),
            }
            return result
        tracer.unpatch_all()
        metrics = span_metrics(tracer, n)
        metrics["workload.reader_calls_per_item"] = calls / n
        check = Result()
        plain = export_pass(check, ctx, shards, expected, None, jobs=jobs)
        finish_traced(result, tracer, metrics, run, plain, check, ctx.out)
        return result
    finally:
        if tracer is not None:
            tracer.unpatch_all()
        counter.remove()


WORKLOADS = {
    "closed_loop": lambda ctx: qa_workload(ctx, "closed_loop"),
    "http_sc": lambda ctx: qa_workload(ctx, "http_sc"),
    "training_export": training_export,
}
