"""Command-line entry point wiring ingestion, generation, episodes, and eval.

Exit codes are stable: 0 success, 2 usage/input error, 3 backend failure,
4 empty result, 130 interrupted (Ctrl-C: one ``interrupted`` line, no
traceback).  ``run`` exits 3 when every episode ended in a backend error,
else 4 when there is no final answer; ``eval`` exits 3, after writing its
files, when every episode of every question ended in a backend error.

``run`` and ``eval`` answer each question the same way: at most ``--sc N``
episodes (one by default), stopping once the vote is decided, majority-voted
by normalized answer, the vote returning the winning answer as the model
wrote it among the episodes drawn.  The temperature is ``--temperature``
if given, else 0.4 with ``--sc`` above 1 and 0.0 otherwise; only an HTTP
reasoner reads it, so ``--temperature`` needs ``--reasoner-url``.  Flags choose
the backends they configure: ``--reasoner-url`` an HTTP reasoner, ``--script``
a replay, neither the symbolic reasoner; ``--reader-url`` an HTTP reader,
else the table oracle.  A flag for a backend not in use is a usage error.
Both write every episode drawn to ``traces.jsonl`` (one line per question, in
input order, in ``datagen``'s trace format), which ``export-ft --traces``
reads, one example per episode.  ``eval`` writes each ``records.jsonl`` line
right after its trace line, and folds the record into the report, as results
arrive: an interrupt or an error keeps every finished question (``report
--records`` builds the report such a run did not write), and memory holds no
question or record, only the synthetic charts, a corpus's QA rows or the
``--sample`` list.

Each subcommand takes only the flags it reads, and each flag's argparse
default is its only default; ``--config`` JSON replaces those defaults and
flags still win, and required flags and the lower limits of numeric flags
(a float flag must also be finite) are checked after that merge.  A usage or
input error prints one ``error:`` line and exits 2, and so does an
``--out-dir`` that cannot be created or written, or an empty ``--corpus``
(it names no corpus, so ``datagen``, ``run`` and ``eval`` refuse it rather
than run without one); each check that does not
answer a question, the exit-4 checks of ``report`` and ``export-ft``
included, runs before ``--out-dir`` is created.
Every command serializes its effective configuration into the output
directory so a run can be reproduced from its artifacts; all randomness
flows from --seed.  Every command writes its files before it prints, so a
stdout closed early (``| head``) loses nothing and is not an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from .controller import EpisodeConfig, SelfConsistencyConfig, run_self_consistency
from .datagen import (
    CORPUS_LAYOUTS,
    Corpus,
    CorpusError,
    examples_from_traces,
    export_system2_sft,
    generate_system1_corpus,
    load_corpus,
    parse_annotated_examples,
    read_traces_jsonl,
    sample_eval_set,
    write_system1_jsonl,
    write_trace_line,
)
from .evalkit import (
    DEFAULT_BUCKET_EDGES,
    evaluate_run,
    make_record,
    read_records_jsonl,
    render_report_text,
    write_record_line,
    write_report,
)
from .oracle import ChartNotFound, TableOracle
from .prompts import PromptStyle
from .protocol import check_question
from .symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from .synth import random_tables
from .tables import (ChartTable, QAInstance, ReasoningTrace, StepRole, Termination, TemplateType,
                     Value, check_bucket_edges, underlying_length)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_EMPTY = 4
EXIT_INTERRUPTED = 130

_PROMPT_STYLES = {
    "stepwise5": PromptStyle.STEPWISE_5SHOT,
    "deplot1": PromptStyle.DEPLOT_1SHOT,
    "deplot5": PromptStyle.DEPLOT_5SHOT,
}

_DEFAULT_BUCKETS = ",".join(str(e) for e in DEFAULT_BUCKET_EDGES)
_DEFAULT_FORMAT = "internal_json"
# Lowest accepted value of each numeric flag; main checks them after the --config merge.
_MINIMUMS = {"sc": 1, "max_steps": 1, "per_template": 1, "workers": 1, "sample": 0,
             "synthetic": 0, "temperature": 0.0}
# Namespace entries that are not options of the command being run.
_NOT_OPTIONS = ("command", "config", "func", "subparser")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as the one line ``<prog>: error: <message>``."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require(cfg: dict, *keys: str) -> None:
    """Required flags are checked after ``--config`` is merged, so a recorded
    config can supply them."""
    missing = [f"--{key.replace('_', '-')}" for key in keys if cfg[key] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")


def _read_json(path: str, what: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from None


def _config_value(action: argparse.Action, key: str, value: object) -> object:
    """Check one config-file value against its flag: strings get the flag's
    type conversion, anything else must already have the flag's type."""
    if value is None and action.default is None:
        return value
    kind = bool if action.nargs == 0 else (action.type or str)
    converted = value
    if kind is not bool and (isinstance(value, str) or (kind is float and type(value) is int)):
        try:
            converted = kind(value)
        except ValueError:
            pass
    if type(converted) is not kind or (action.choices and converted not in action.choices):
        raise UsageError(f"config key {key!r} has a bad value {value!r}")
    return converted


def _config_defaults(sub: argparse.ArgumentParser, command: str, path: str) -> dict:
    """Read a JSON config file into defaults for the ``command`` subparser."""
    loaded = _read_json(path, "config")
    if not isinstance(loaded, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    named = loaded.pop("command", command)
    if named != command:
        raise UsageError(f"config {path} is for {named!r}, not {command!r}")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    for key in loaded:
        if key not in actions:
            raise UsageError(f"config key {key!r} is not an option of {command}")
    return {key: _config_value(actions[key], key, value) for key, value in loaded.items()}


def _write_run_config(cfg: dict, out_dir: Path, command: str) -> None:
    with open(out_dir / "run_config.json", "w", encoding="utf-8") as handle:
        json.dump({"command": command, **cfg}, handle, ensure_ascii=False, indent=2,
                  sort_keys=True)
        handle.write("\n")


def _parse_buckets(text: str) -> tuple[int, ...]:
    try:
        edges = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad bucket edges {text!r}") from exc
    try:
        check_bucket_edges(edges)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return edges


def _load_corpus(cfg: dict) -> Optional[Corpus]:
    """Load ``--corpus`` if given, printing each dropped row once; an empty
    ``--corpus`` is a usage error, not a run without one."""
    if cfg["corpus"] is None:
        if cfg["format"] != _DEFAULT_FORMAT:  # a layout of no corpus would do nothing
            raise UsageError("--format needs --corpus")
        return None
    if not cfg["corpus"]:
        raise UsageError("--corpus cannot be empty")
    corpus = load_corpus(cfg["corpus"], cfg["format"])
    for issue in corpus.issues:
        print(f"warning: {issue}", file=sys.stderr)
    return corpus


def _reasoner_factory(cfg: dict, backends: ExitStack) -> Callable[[], object]:
    url, script = cfg["reasoner_url"], cfg["script"]
    for key in ("model", "api_key"):  # the HTTP clients send neither when it is empty
        if cfg[key] == "":
            raise UsageError(f"--{key.replace('_', '-')} cannot be empty")
    if url is not None and script is not None:
        raise UsageError("--reasoner-url and --script cannot be combined")
    if cfg["model"] is not None and url is None:
        raise UsageError("--model needs --reasoner-url")
    if cfg["temperature"] is not None and url is None:  # only a model samples
        raise UsageError("--temperature needs --reasoner-url")
    if cfg["prompt_style"] != "stepwise5" and url is None:  # only a model reads the table
        raise UsageError(f"--prompt-style {cfg['prompt_style']} needs --reasoner-url")
    if cfg["api_key"] is not None and url is None and cfg["reader_url"] is None:
        raise UsageError("--api-key needs --reasoner-url or --reader-url")
    if url is not None:
        reasoner = HttpReasoner(url, model=cfg["model"], api_key=cfg["api_key"])
        backends.callback(reasoner.close)
        return lambda: reasoner
    if script is None:
        # One reasoner for the run: workers share its two bounded LRU caches,
        # plans by question and parses by reader line, without a lock (a race
        # costs an extra parse).
        reasoner = SymbolicReasoner()
        return lambda: reasoner
    if cfg["sc"] > 1:
        # A replay script is one deterministic episode: there is nothing to vote over.
        raise UsageError("--script cannot be combined with --sc above 1")
    lines = _read_json(script, "script")
    try:
        ScriptedReasoner(lines)  # checked once, before any episode or output
    except ValueError as exc:
        raise UsageError(f"script {script}: {exc}") from None
    return lambda: ScriptedReasoner(lines)


def _answerer(cfg: dict, charts: dict[str, ChartTable]) -> tuple[Callable, ExitStack]:
    """Build the one answer path of ``run`` and ``eval``: at most ``--sc``
    episodes, majority-voted (one episode at ``--sc 1``).  The temperature is
    0.4 when voting over several samples and 0.0 otherwise, unless given; it
    is recorded in ``cfg["temperature"]`` only for an HTTP reasoner, the one
    backend that reads it.  Closing the returned stack closes the HTTP
    clients."""
    backends = ExitStack()
    make_reasoner = _reasoner_factory(cfg, backends)
    temperature = cfg["temperature"]
    if temperature is None:
        temperature = 0.4 if cfg["sc"] > 1 else 0.0
    if cfg["reasoner_url"] is not None:
        cfg["temperature"] = temperature
    if cfg["reader_url"] is not None:
        reader = HttpReader(cfg["reader_url"], api_key=cfg["api_key"])
        backends.callback(reader.close)
    elif charts:
        reader = TableOracle(charts)
    else:
        raise UsageError("no charts available for the table reader")
    config = EpisodeConfig(max_steps=cfg["max_steps"],
                           prompt_style=_PROMPT_STYLES[cfg["prompt_style"]])
    sc = SelfConsistencyConfig(n_samples=cfg["sc"], temperature=temperature)

    def answer(question: str, chart: str) -> tuple[Optional[Value], list[ReasoningTrace]]:
        # run checks the chart before it answers; eval loads every chart it asks about.
        context = None if config.prompt_style is PromptStyle.STEPWISE_5SHOT else charts[chart]
        return run_self_consistency(question, chart, make_reasoner(), reader, config, sc,
                                    context_table=context)

    return answer, backends


def _in_order(pool: Executor, fn: Callable, items: Iterable, window: int) -> Iterator:
    """``fn`` over ``items`` on ``pool``, yielded in input order, with at most
    ``window`` items submitted and not yet yielded; closing the iterator
    cancels those that have not started."""
    pending: deque = deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _all_backend_errors(traces: Sequence[ReasoningTrace]) -> bool:
    return all(t.terminated_by is Termination.BACKEND_ERROR for t in traces)


def cmd_datagen(cfg: dict) -> int:
    _require(cfg, "corpus")
    corpus = _load_corpus(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs, manifest = generate_system1_corpus(corpus.charts, cfg["seed"])
    write_system1_jsonl(pairs, out_dir / "system1.jsonl")
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_run_config(cfg, out_dir, "datagen")
    print(
        f"charts={manifest['n_charts']} describe={manifest['n_describe']} "
        f"point={manifest['n_point']} group={manifest['n_group']}"
    )
    return EXIT_OK


def cmd_run(cfg: dict) -> int:
    _require(cfg, "question", "chart")
    try:
        check_question(cfg["question"])
    except ValueError:
        raise UsageError("--question cannot hold a line break") from None
    corpus = _load_corpus(cfg)
    charts = corpus.chart_index() if corpus else {}
    answer, backends = _answerer(cfg, charts)
    question, chart = cfg["question"], cfg["chart"]
    # The table reader and the DePlot styles read the chart from the corpus;
    # only a reader server prompted stepwise owns the chart ids.
    stepwise = _PROMPT_STYLES[cfg["prompt_style"]] is PromptStyle.STEPWISE_5SHOT
    if chart not in charts and not (cfg["reader_url"] is not None and stepwise):
        raise ChartNotFound(chart)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(cfg, out_dir, "run")
    with backends:
        final, traces = answer(question, chart)
    with open(out_dir / "traces.jsonl", "w", encoding="utf-8") as handle:
        write_trace_line(handle, "episode-0", question, chart, final, traces)
    for index, trace in enumerate(traces):
        if len(traces) > 1:
            print(f"--- episode {index} ---")
        for step in trace.steps:
            tag = "reader" if step.role is StepRole.READER_ANSWER else "reasoner"
            print(f"[{tag}] {step.text}")
    if _all_backend_errors(traces):
        print("backend error; partial trace written", file=sys.stderr)
        return EXIT_BACKEND
    label = "Final" if len(traces) == 1 else "Voted"
    print(f"{label} answer: {final.raw if final else '(none)'}")
    return EXIT_OK if final is not None else EXIT_EMPTY


def _synthetic_eval_set(cfg: dict) -> tuple[dict[str, ChartTable], Iterator[QAInstance]]:
    """The charts by id and the questions of ``--synthetic``, made chart by chart
    as they are asked for; settles ``cfg["templates"]`` (all) and ``cfg["per_template"]`` (1)."""
    if cfg["templates"] is None:
        cfg["templates"] = ",".join(t.value for t in TemplateType)
    cfg["per_template"] = cfg["per_template"] or 1
    known = [t.value for t in TemplateType]
    names = cfg["templates"].split(",")
    for index, name in enumerate(names):
        if name not in known:  # exact: neither space nor empty name is a template
            raise UsageError(f"--templates names {name!r}, not one of {', '.join(known)}")
        if name in names[:index]:  # it would ask and score each of its questions twice
            raise UsageError(f"--templates names {name} twice")
    templates = list(map(TemplateType, names))
    charts = random_tables(cfg["seed"], cfg["synthetic"])

    def questions() -> Iterator[QAInstance]:
        for table in charts:
            for template in templates:
                try:
                    generated = gen_questions(table, template, cfg["seed"], n=cfg["per_template"])
                except SkippedTemplate:
                    continue
                yield from (qa for qa, _ in generated)

    return {table.source_id: table for table in charts}, questions()


def cmd_eval(cfg: dict) -> int:
    if cfg["synthetic"] > 0 and cfg["corpus"]:
        raise UsageError("--corpus and --synthetic cannot be combined")
    if cfg["synthetic"] == 0 and (cfg["templates"] is not None or cfg["per_template"] is not None):
        raise UsageError("--templates and --per-template need --synthetic N")
    if cfg["synthetic"] == 0 and cfg["sample"] == 0 and cfg["seed"] != 0:  # nothing to draw
        raise UsageError("--seed needs --synthetic N or --sample N")
    # Threads only overlap waits on a server; in-process backends hold the GIL.
    if cfg["workers"] > 1 and cfg["reasoner_url"] is None and cfg["reader_url"] is None:
        raise UsageError("--workers above 1 needs --reasoner-url or --reader-url")
    edges = _parse_buckets(cfg["buckets"])
    corpus = _load_corpus(cfg)
    if cfg["synthetic"] > 0:
        charts, instances = _synthetic_eval_set(cfg)
    elif corpus is None:
        raise UsageError("eval needs --corpus or --synthetic N")
    else:
        charts, instances = corpus.chart_index(), corpus.all_qa()
    # Built before a question is drawn: a usage error outranks an empty eval set.
    answer, backends = _answerer(cfg, charts)
    if cfg["sample"] > 0:
        instances = sample_eval_set(list(instances), cfg["sample"], cfg["seed"])
    instances = iter(instances)
    if (first := next(instances, None)) is None:
        backends.close()
        print("no QA instances to evaluate", file=sys.stderr)
        return EXIT_EMPTY
    numbered = enumerate(chain((first,), instances))
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(cfg, out_dir, "eval")

    def score(item: tuple[int, QAInstance]):
        index, qa = item
        final, traces = answer(qa.question, qa.chart_id)
        length = underlying_length(charts[qa.chart_id])
        return make_record(qa, final, length, f"episode-{index}"), traces

    every_episode_failed, workers = True, cfg["workers"]
    with backends, ThreadPoolExecutor(max_workers=workers) as pool, \
            open(out_dir / "traces.jsonl", "w", encoding="utf-8") as traces_file, \
            open(out_dir / "records.jsonl", "w", encoding="utf-8") as records_file:

        def written() -> Iterator:
            # In input order, each result's trace line and record line are
            # written and its record folded into the report as it arrives:
            # an interrupt keeps every finished question, and none stays in
            # memory.  Threads keep at most two questions each in flight.
            nonlocal every_episode_failed
            results = (_in_order(pool, score, numbered, 2 * workers) if workers > 1
                       else map(score, numbered))
            for record, traces in results:
                write_trace_line(traces_file, record.trace_ref, record.qa.question,
                                 record.qa.chart_id, record.prediction, traces)
                write_record_line(records_file, record)
                every_episode_failed = every_episode_failed and _all_backend_errors(traces)
                yield record

        report = evaluate_run(written(), edges)
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    print(render_report_text(report))
    if every_episode_failed:
        print("backend error: every episode failed", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_export_ft(cfg: dict) -> int:
    if not cfg["traces"] and not cfg["annotations"]:
        raise UsageError("export-ft needs --traces or --annotations")
    examples = []
    skipped = 0
    if cfg["annotations"]:
        path = cfg["annotations"]
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise UsageError(f"cannot read annotations {path}: {reason}") from None
        examples.extend(parse_annotated_examples(text))
    if cfg["traces"]:
        triples, issues = read_traces_jsonl(cfg["traces"])
        for issue in issues:
            print(f"warning: {issue}", file=sys.stderr)
        from_traces, not_concluded = examples_from_traces(triples)
        examples.extend(from_traces)
        skipped = len(issues) + not_concluded
    if not examples:
        print("no valid fine-tuning examples", file=sys.stderr)
        return EXIT_EMPTY
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(cfg, out_dir, "export-ft")
    count = export_system2_sft(examples, out_dir / "system2.jsonl", cfg["tagged"])
    masked_chars = sum(len(s.text) for e in examples for s in e.segments if s.masked)
    total_chars = sum(len(s.text) for e in examples for s in e.segments)
    print(f"examples={count} skipped={skipped} masked_chars={masked_chars}/{total_chars}")
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    _require(cfg, "records")
    edges = _parse_buckets(cfg["buckets"])
    try:
        report = evaluate_run(read_records_jsonl(cfg["records"]), edges)
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise UsageError(f"cannot read records {cfg['records']}: {reason}") from None
    if report is None:
        print("no records to report", file=sys.stderr)
        return EXIT_EMPTY
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    _write_run_config(cfg, out_dir, "report")
    print(render_report_text(report))
    return EXIT_OK


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags win")
    p.add_argument("--out-dir", dest="out_dir", default="out", help="output directory")


def _corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", default=None)
    p.add_argument("--format", choices=list(CORPUS_LAYOUTS), default=_DEFAULT_FORMAT)


def _episode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reasoner-url", dest="reasoner_url", default=None,
                   help="HTTP reasoner (default: the symbolic reasoner)")
    p.add_argument("--reader-url", dest="reader_url", default=None,
                   help="HTTP reader (default: the table oracle)")
    p.add_argument("--model", default=None, help="model name for the HTTP reasoner")
    p.add_argument("--api-key", dest="api_key", default=None,
                   help="bearer token for the HTTP backends")
    p.add_argument("--script", default=None, help="replay this JSON list of reasoner lines")
    p.add_argument("--sc", type=int, default=1,
                   help="self-consistency samples: at most N, stopping once the vote is decided")
    p.add_argument("--temperature", type=float, default=None,
                   help="sampling temperature for --reasoner-url "
                        "(default 0.4 with --sc above 1, else 0.0)")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=8)
    p.add_argument("--prompt-style", dest="prompt_style", choices=sorted(_PROMPT_STYLES),
                   default="stepwise5")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chartloop",
        description="Interleaved reasoner/reader runs over chart tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[[dict], int], help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, subparser=p)
        _output_flags(p)
        return p

    p = command("datagen", cmd_datagen, "generate reader training pairs from a corpus")
    _corpus_flags(p)
    p.add_argument("--seed", type=int, default=0, help="master random seed")

    p = command("run", cmd_run, "run a single question through the loop")
    p.add_argument("--question", default=None, help="question text (required)")
    p.add_argument("--chart", default=None, help="chart id, resolved by the reader (required)")
    _corpus_flags(p)
    _episode_flags(p)

    p = command("eval", cmd_eval, "score an eval set and write a report")
    _corpus_flags(p)
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--synthetic", type=int, default=0,
                   help="generate N random charts with template questions")
    p.add_argument("--templates", default=None,
                   help="comma-separated template types (default all; needs --synthetic)")
    p.add_argument("--per-template", dest="per_template", type=int, default=None,
                   help="at most N distinct questions per chart and template "
                        "(default 1; needs --synthetic)")
    p.add_argument("--sample", type=int, default=0, help="sample N instances (0 = all)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads; above 1 only with an HTTP backend")
    _episode_flags(p)
    p.add_argument("--buckets", default=_DEFAULT_BUCKETS, help="comma-separated bucket edges")

    p = command("export-ft", cmd_export_ft, "export loss-masked reasoner SFT data")
    p.add_argument("--traces", default=None, help="traces.jsonl written by run or eval")
    p.add_argument("--annotations", default=None, help="[INST]-tagged annotation file")
    p.add_argument("--tagged", action="store_true",
                   help="include the [INST]-wrapped rendering")

    p = command("report", cmd_report, "re-render a report from saved records")
    p.add_argument("--records", default=None, help="records.jsonl to re-render (required)")
    p.add_argument("--buckets", default=_DEFAULT_BUCKETS, help="comma-separated bucket edges")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become the subcommand's defaults; parsing again
            # lets every flag given on the command line win over them.
            args.subparser.set_defaults(**_config_defaults(args.subparser, args.command,
                                                           args.config))
            args = parser.parse_args(argv)
        cfg = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
        for key, lowest in _MINIMUMS.items():
            value = cfg.get(key)
            if type(value) is float and not math.isfinite(value):  # NaN is not JSON
                raise UsageError(f"--{key.replace('_', '-')} must be a finite number")
            if value is not None and value < lowest:
                raise UsageError(f"--{key.replace('_', '-')} must be at least {lowest}")
        code = args.func(cfg)
        sys.stdout.flush()
        return code
    except (UsageError, CorpusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChartNotFound as exc:
        print(f"error: chart {exc} not found", file=sys.stderr)
        return EXIT_USAGE
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Backends wrap their own socket errors, so this is stdout's reader
        # leaving.  Point stdout at devnull so the final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:
        # Inputs are read behind UsageError, so this is an output that cannot
        # be created or written, such as an --out-dir that names a file.
        print(f"error: cannot write {exc.filename or args.out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
