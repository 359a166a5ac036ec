"""Command-line entry point wiring ingestion, generation, episodes, and eval.

Exit codes are stable: 0 success, 2 usage/input error, 3 backend failure,
4 empty result.  ``run`` exits 3 when every episode ended in a backend error,
else 4 when there is no final answer; ``eval`` exits 3, after writing its
files, when every episode of every question ended in a backend error.

``run`` and ``eval`` answer each question the same way: ``--sc N`` episodes
(one by default) majority-voted by normalized answer, the vote returning the
winning answer as the model wrote it.  The temperature is ``--temperature``
if given, else 0.4 with ``--sc`` above 1 and 0.0 otherwise.  Both write
every episode to ``traces.jsonl`` (one line per question, in input order, in
``datagen``'s trace format), which ``export-ft --traces`` reads.

Each subcommand takes only the flags it reads, and each flag's argparse
default is its only default; ``--config`` JSON replaces those defaults and
flags still win, and required flags and the lower limits of numeric flags
are checked after that merge.  A usage or input error prints one ``error:``
line and exits 2; each check that does not answer a question runs before
``--out-dir`` is created.  Every command serializes its effective
configuration into the output directory so a run can be reproduced from its
artifacts; all randomness flows from --seed.  Every command writes its files
before it prints, so a stdout closed early (``| head``) loses nothing and is
not an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

from .backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from .controller import EpisodeConfig, SelfConsistencyConfig, run_self_consistency
from .datagen import (
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
    write_records_csv,
    write_records_jsonl,
    write_report,
)
from .oracle import ChartNotFound, TableOracle
from .prompts import PromptStyle
from .symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from .synth import random_tables
from .tables import (ChartTable, QAInstance, ReasoningTrace, StepRole, Termination, TemplateType,
                     Value, check_bucket_edges, underlying_length)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_EMPTY = 4

_PROMPT_STYLES = {
    "stepwise5": PromptStyle.STEPWISE_5SHOT,
    "deplot1": PromptStyle.DEPLOT_1SHOT,
    "deplot5": PromptStyle.DEPLOT_5SHOT,
}

_FORMATS = ["internal_json", "chartqa_like", "plotqa_like"]
_DEFAULT_BUCKETS = ",".join(str(e) for e in DEFAULT_BUCKET_EDGES)
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
    """Load ``--corpus`` if given, printing each dropped row once."""
    if not cfg["corpus"]:
        return None
    corpus = load_corpus(cfg["corpus"], cfg["format"])
    for issue in corpus.issues:
        print(f"warning: {issue}", file=sys.stderr)
    return corpus


def _reasoner_factory(cfg: dict, backends: ExitStack) -> Callable[[], object]:
    backend = cfg["backend"]
    if cfg["no_describe"] and backend != "symbolic":
        raise UsageError("--no-describe needs --backend symbolic")
    if backend == "symbolic":
        reasoner = SymbolicReasoner(describe_first=not cfg["no_describe"])
        return lambda: reasoner
    if backend == "http":
        if not cfg["reasoner_url"]:
            raise UsageError("--reasoner-url is required with --backend http")
        reasoner = HttpReasoner(cfg["reasoner_url"], model=cfg["model"], api_key=cfg["api_key"])
        backends.callback(reasoner.close)
        return lambda: reasoner
    if not cfg["script"]:
        raise UsageError("--script is required with --backend scripted")
    if cfg["sc"] > 1:
        # A replay script is one deterministic episode: there is nothing to vote over.
        raise UsageError("--backend scripted cannot be combined with --sc above 1")
    lines = _read_json(cfg["script"], "script")
    try:
        ScriptedReasoner(lines)  # checked once, before any episode or output
    except ValueError as exc:
        raise UsageError(f"script {cfg['script']}: {exc}") from None
    return lambda: ScriptedReasoner(lines)


def _answerer(cfg: dict, charts: dict[str, ChartTable],
              backends: ExitStack) -> Callable[[str, str], tuple]:
    """Build the one answer path of ``run`` and ``eval``: ``--sc`` episodes,
    majority-voted (one episode at ``--sc 1``).  Settles ``cfg["temperature"]``:
    0.4 when voting over several samples and 0.0 otherwise, unless given.
    HTTP clients are closed when ``backends`` is."""
    make_reasoner = _reasoner_factory(cfg, backends)
    if cfg["temperature"] is None:
        cfg["temperature"] = 0.4 if cfg["sc"] > 1 else 0.0
    if cfg["reader_url"]:
        reader = HttpReader(cfg["reader_url"], api_key=cfg["api_key"])
        backends.callback(reader.close)
    elif charts:
        reader = TableOracle(charts)
    else:
        raise UsageError("no charts available for the table reader")
    config = EpisodeConfig(max_steps=cfg["max_steps"],
                           prompt_style=_PROMPT_STYLES[cfg["prompt_style"]])
    sc = SelfConsistencyConfig(n_samples=cfg["sc"], temperature=cfg["temperature"])

    def answer(question: str, chart: str) -> tuple[Optional[Value], list[ReasoningTrace]]:
        context = None
        if config.prompt_style is not PromptStyle.STEPWISE_5SHOT:
            context = charts.get(chart)
            if context is None:
                raise ChartNotFound(chart)
        return run_self_consistency(question, chart, make_reasoner(), reader, config, sc,
                                    context_table=context)

    return answer


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
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_run_config(cfg, out_dir, "datagen")
    print(
        f"charts={manifest.n_charts} describe={manifest.n_describe} "
        f"point={manifest.n_point} group={manifest.n_group}"
    )
    return EXIT_OK


def cmd_run(cfg: dict) -> int:
    _require(cfg, "question", "chart")
    corpus = _load_corpus(cfg)
    charts = corpus.chart_index() if corpus else {}
    backends = ExitStack()
    answer = _answerer(cfg, charts, backends)
    question, chart = cfg["question"], cfg["chart"]
    # The table reader and the DePlot styles read the chart from the corpus;
    # only a reader server prompted stepwise owns the chart ids.
    stepwise = _PROMPT_STYLES[cfg["prompt_style"]] is PromptStyle.STEPWISE_5SHOT
    if chart not in charts and not (cfg["reader_url"] and stepwise):
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


def _synthetic_eval_set(cfg: dict) -> tuple[list[ChartTable], list[QAInstance]]:
    templates = [TemplateType(name) for name in cfg["templates"].split(",") if name]
    charts = random_tables(cfg["seed"], cfg["synthetic"])
    instances: list[QAInstance] = []
    for table in charts:
        for template in templates:
            try:
                generated = gen_questions(table, template, cfg["seed"], n=cfg["per_template"])
            except SkippedTemplate:
                continue
            instances.extend(qa for qa, _ in generated)
    return charts, instances


def cmd_eval(cfg: dict) -> int:
    edges = _parse_buckets(cfg["buckets"])
    corpus = _load_corpus(cfg)
    charts = corpus.chart_index() if corpus else {}
    if cfg["synthetic"] > 0:
        synthetic, instances = _synthetic_eval_set(cfg)
        charts.update((t.source_id, t) for t in synthetic)
    elif corpus is None:
        raise UsageError("eval needs --corpus or --synthetic N")
    else:
        instances = corpus.all_qa()
    if cfg["sample"] > 0:
        instances = sample_eval_set(instances, cfg["sample"], cfg["seed"])
    if not instances:
        print("no QA instances to evaluate", file=sys.stderr)
        return EXIT_EMPTY
    backends = ExitStack()
    answer = _answerer(cfg, charts, backends)
    chart_lengths = {chart_id: underlying_length(t) for chart_id, t in charts.items()}
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(cfg, out_dir, "eval")

    def score(item: tuple[int, QAInstance]):
        index, qa = item
        final, traces = answer(qa.question, qa.chart_id)
        return make_record(qa, final, chart_lengths.get(qa.chart_id, 0), f"episode-{index}"), traces

    records, every_episode_failed = [], True
    with backends, ThreadPoolExecutor(max_workers=cfg["workers"]) as pool, \
            open(out_dir / "traces.jsonl", "w", encoding="utf-8") as traces_file:
        # Both maps yield in input order, so each trace line is written as its
        # result arrives.  The pool starts no thread at --workers 1.
        for record, traces in (pool.map if cfg["workers"] > 1 else map)(score, enumerate(instances)):
            write_trace_line(traces_file, record.trace_ref, record.qa.question, record.qa.chart_id,
                             record.prediction, traces)
            records.append(record)
            every_episode_failed = every_episode_failed and _all_backend_errors(traces)
    report = evaluate_run(records, edges)
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    write_records_jsonl(records, out_dir / "records.jsonl")
    write_records_csv(records, out_dir / "records.csv")
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
        except OSError as exc:
            raise UsageError(f"cannot read annotations {path}: {exc.strerror}") from None
        examples.extend(parse_annotated_examples(text))
    if cfg["traces"]:
        triples, issues = read_traces_jsonl(cfg["traces"])
        for issue in issues:
            print(f"warning: {issue}", file=sys.stderr)
        from_traces, not_concluded = examples_from_traces(triples)
        examples.extend(from_traces)
        skipped = len(issues) + not_concluded
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(cfg, out_dir, "export-ft")
    if not examples:
        print("no valid fine-tuning examples", file=sys.stderr)
        return EXIT_EMPTY
    count = export_system2_sft(examples, out_dir / "system2.jsonl", cfg["tagged"])
    masked_chars = sum(len(s.text) for e in examples for s in e.segments if s.masked)
    total_chars = sum(len(s.text) for e in examples for s in e.segments)
    print(f"examples={count} skipped={skipped} masked_chars={masked_chars}/{total_chars}")
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    _require(cfg, "records")
    try:
        records = read_records_jsonl(cfg["records"])
    except OSError as exc:
        raise UsageError(f"cannot read records {cfg['records']}: {exc.strerror}") from None
    edges = _parse_buckets(cfg["buckets"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if not records:
        print("no records to report", file=sys.stderr)
        return EXIT_EMPTY
    report = evaluate_run(records, edges)
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    _write_run_config(cfg, out_dir, "report")
    print(render_report_text(report))
    return EXIT_OK


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file; flags win")
    p.add_argument("--out-dir", dest="out_dir", default="out", help="output directory")


def _corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", default=None)
    p.add_argument("--format", choices=_FORMATS, default="internal_json")


def _episode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=["symbolic", "http", "scripted"], default="symbolic",
                   help="reasoner backend")
    p.add_argument("--reasoner-url", dest="reasoner_url", default=None)
    p.add_argument("--reader-url", dest="reader_url", default=None)
    p.add_argument("--model", default=None, help="model name for HTTP backends")
    p.add_argument("--api-key", dest="api_key", default=None,
                   help="bearer token for HTTP backends")
    p.add_argument("--script", default=None, help="scripted reasoner JSON file")
    p.add_argument("--sc", type=int, default=1, help="self-consistency sample count")
    p.add_argument("--temperature", type=float, default=None,
                   help="sampling temperature (default 0.4 with --sc above 1, else 0.0)")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=8)
    p.add_argument("--no-describe", dest="no_describe", action="store_true")
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
    p.add_argument("--templates", default=",".join(t.value for t in TemplateType),
                   help="comma-separated template types")
    p.add_argument("--per-template", dest="per_template", type=int, default=1)
    p.add_argument("--sample", type=int, default=0, help="sample N instances (0 = all)")
    p.add_argument("--workers", type=int, default=1)
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
            if cfg.get(key) is not None and cfg[key] < lowest:
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
    except BrokenPipeError:
        # Backends wrap their own socket errors, so this is stdout's reader
        # leaving.  Point stdout at devnull so the final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
