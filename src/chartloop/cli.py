"""Command-line entry point wiring ingestion, generation, episodes, and eval.

Exit codes are stable: 0 success, 2 usage/input error, 3 backend failure,
4 empty result.  Every command serializes its effective configuration into
the output directory so a run can be reproduced from its artifacts; all
randomness flows from --seed.  Every command writes its files before it
prints, so a stdout closed early (``| head``) loses nothing and is not an
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Optional, Sequence

from .backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from .controller import EpisodeConfig, SelfConsistencyConfig, run_episode, run_self_consistency
from .datagen import (
    Corpus,
    CorpusError,
    examples_from_traces,
    export_system2_sft,
    generate_system1_corpus,
    load_corpus,
    parse_annotated_examples,
    sample_eval_set,
    write_system1_jsonl,
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
from .tables import ChartTable, QAInstance, ReasoningTrace, StepRole, Termination, TemplateType, underlying_length

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_EMPTY = 4

_PROMPT_STYLES = {
    "stepwise5": PromptStyle.STEPWISE_5SHOT,
    "deplot1": PromptStyle.DEPLOT_1SHOT,
    "deplot5": PromptStyle.DEPLOT_5SHOT,
}

_DEFAULTS = {
    "seed": 0,
    "format": "internal_json",
    "backend": "symbolic",
    "prompt_style": "stepwise5",
    "temperature": 0.0,
    "sc": 1,
    "max_steps": 8,
    "workers": 1,
    "buckets": ",".join(str(e) for e in DEFAULT_BUCKET_EDGES),
    "out_dir": "out",
    "templates": ",".join(t.value for t in TemplateType),
    "sample": 0,
    "synthetic": 0,
    "per_template": 1,
}


class UsageError(ValueError):
    pass


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--config", default=None, help="JSON config file; flags win")
    parser.add_argument("--out-dir", dest="out_dir", default=None, help="output directory")
    parser.add_argument("--backend", choices=["symbolic", "http", "scripted"],
                        default=None, help="reasoner backend")
    parser.add_argument("--reasoner-url", dest="reasoner_url", default=None)
    parser.add_argument("--reader-url", dest="reader_url", default=None)
    parser.add_argument("--model", default=None, help="model name for HTTP backends")
    parser.add_argument("--api-key", dest="api_key", default=None,
                        help="bearer token for HTTP backends")
    parser.add_argument("--script", default=None, help="scripted reasoner JSON file")
    parser.add_argument("--sc", type=int, default=None, help="self-consistency sample count")
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    parser.add_argument("--no-describe", dest="no_describe", action="store_true", default=None)
    parser.add_argument("--prompt-style", dest="prompt_style",
                        choices=sorted(_PROMPT_STYLES), default=None)
    parser.add_argument("--buckets", default=None, help="comma-separated bucket edges")


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            merged.update(json.load(handle))
    for key, value in vars(args).items():
        if key in ("config", "func", "command"):
            continue
        if value is not None or key not in merged:
            if value is not None:
                merged[key] = value
            elif key not in merged:
                merged[key] = None
    for key, fallback in _DEFAULTS.items():
        if merged.get(key) is None and key in merged:
            merged[key] = fallback
    if merged.get("no_describe") is None:
        merged["no_describe"] = False
    return merged


def _write_run_config(cfg: dict, out_dir: Path, command: str) -> None:
    payload = {"command": command}
    payload.update({k: cfg[k] for k in sorted(cfg)})
    with open(out_dir / "run_config.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2, sort_keys=True)
        handle.write("\n")


def _parse_buckets(text: str) -> tuple[int, ...]:
    try:
        edges = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad bucket edges {text!r}") from exc
    if not edges:
        raise UsageError("bucket edges must be non-empty")
    return edges


def _episode_config(cfg: dict) -> EpisodeConfig:
    return EpisodeConfig(
        max_steps=cfg["max_steps"],
        temperature=cfg["temperature"],
        prompt_style=_PROMPT_STYLES[cfg["prompt_style"]],
    )


def _reasoner_factory(cfg: dict) -> Callable[[], object]:
    backend = cfg["backend"]
    if cfg["no_describe"] and backend != "symbolic":
        raise UsageError("--no-describe needs --backend symbolic")
    if backend == "symbolic":
        reasoner = SymbolicReasoner(describe_first=not cfg["no_describe"])
        return lambda: reasoner
    if backend == "http":
        if not cfg.get("reasoner_url"):
            raise UsageError("--reasoner-url is required with --backend http")
        reasoner = HttpReasoner(cfg["reasoner_url"], model=cfg.get("model"),
                                api_key=cfg.get("api_key"))
        return lambda: reasoner
    if not cfg.get("script"):
        raise UsageError("--script is required with --backend scripted")
    if cfg["sc"] > 1:
        # A replay script is one deterministic episode: there is nothing to vote over.
        raise UsageError("--backend scripted cannot be combined with --sc above 1")
    script_path = cfg["script"]
    return lambda: ScriptedReasoner.from_file(script_path)


def _reader_for(cfg: dict, corpus: Optional[Corpus], extra_charts: Sequence[ChartTable] = ()):
    if cfg.get("reader_url"):
        return HttpReader(cfg["reader_url"], api_key=cfg.get("api_key"))
    charts: dict[str, ChartTable] = {}
    if corpus is not None:
        charts.update(corpus.chart_index())
    for table in extra_charts:
        charts[table.source_id] = table
    if not charts:
        raise UsageError("no charts available for the table reader")
    return TableOracle(charts)


def cmd_datagen(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(cfg["corpus"], cfg["format"])
    for issue in corpus.issues:
        print(f"warning: {issue}", file=sys.stderr)
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


def _print_trace(trace: ReasoningTrace) -> None:
    role_tags = {
        StepRole.REASONER_QUERY: "reasoner",
        StepRole.READER_ANSWER: "reader",
        StepRole.CONCLUSION: "reasoner",
        StepRole.PROTOCOL_ERROR: "reasoner",
    }
    for step in trace.steps:
        print(f"[{role_tags[step.role]}] {step.text}")


def cmd_run(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(cfg["corpus"], cfg["format"]) if cfg.get("corpus") else None
    reader = _reader_for(cfg, corpus)
    make_reasoner = _reasoner_factory(cfg)
    config = _episode_config(cfg)
    context_table = None
    if config.prompt_style is not PromptStyle.STEPWISE_5SHOT:
        if corpus is None:
            raise UsageError("baseline prompt styles need --corpus for the context table")
        context_table = corpus.chart_index().get(cfg["chart"])
        if context_table is None:
            raise ChartNotFound(cfg["chart"])
    _write_run_config(cfg, out_dir, "run")
    question, chart = cfg["question"], cfg["chart"]
    if cfg["sc"] > 1:
        sc = SelfConsistencyConfig(n_samples=cfg["sc"], temperature=cfg["temperature"] or 0.4)
        final, traces = run_self_consistency(
            question, chart, make_reasoner(), reader, config, sc, context_table=context_table
        )
        payload = {
            "question": question,
            "chart_id": chart,
            "final": final.raw if final else None,
            "episodes": [t.to_dict() for t in traces],
        }
        with open(out_dir / "trace.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False, indent=2)
            handle.write("\n")
        for index, trace in enumerate(traces):
            print(f"--- episode {index} ---")
            _print_trace(trace)
        print(f"Voted answer: {final.raw if final else '(none)'}")
        return EXIT_OK if final is not None else EXIT_EMPTY
    trace = run_episode(question, chart, make_reasoner(), reader, config,
                        context_table=context_table)
    payload = {"question": question, "chart_id": chart}
    payload.update(trace.to_dict())
    with open(out_dir / "trace.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    _print_trace(trace)
    if trace.terminated_by is Termination.BACKEND_ERROR:
        print("backend error; partial trace written", file=sys.stderr)
        return EXIT_BACKEND
    print(f"Final answer: {trace.final.raw if trace.final else '(none)'}")
    return EXIT_OK


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
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    edges = _parse_buckets(cfg["buckets"])
    corpus = load_corpus(cfg["corpus"], cfg["format"]) if cfg.get("corpus") else None
    extra_charts: list[ChartTable] = []
    if cfg["synthetic"] > 0:
        extra_charts, instances = _synthetic_eval_set(cfg)
    else:
        if corpus is None:
            raise UsageError("eval needs --corpus or --synthetic N")
        instances = corpus.all_qa()
    if cfg["sample"] > 0:
        instances = sample_eval_set(instances, cfg["sample"], cfg["seed"])
    if not instances:
        print("no QA instances to evaluate", file=sys.stderr)
        return EXIT_EMPTY
    reader = _reader_for(cfg, corpus, extra_charts)
    make_reasoner = _reasoner_factory(cfg)
    config = _episode_config(cfg)
    chart_lengths = {t.source_id: underlying_length(t) for t in extra_charts}
    if corpus is not None:
        chart_lengths.update(
            {t.source_id: underlying_length(t) for t in corpus.charts}
        )
    chart_tables = {t.source_id: t for t in extra_charts}
    if corpus is not None:
        chart_tables.update(corpus.chart_index())
    _write_run_config(cfg, out_dir, "eval")

    def score(item: tuple[int, QAInstance]):
        index, qa = item
        context_table = None
        if config.prompt_style is not PromptStyle.STEPWISE_5SHOT:
            context_table = chart_tables[qa.chart_id]
        if cfg["sc"] > 1:
            sc = SelfConsistencyConfig(n_samples=cfg["sc"], temperature=cfg["temperature"] or 0.4)
            final, _ = run_self_consistency(
                qa.question, qa.chart_id, make_reasoner(), reader, config, sc,
                context_table=context_table,
            )
        else:
            trace = run_episode(qa.question, qa.chart_id, make_reasoner(), reader, config,
                                context_table=context_table)
            final = trace.final
        return make_record(qa, final, chart_lengths.get(qa.chart_id, 0), f"episode-{index}")

    items = list(enumerate(instances))
    if cfg["workers"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["workers"]) as pool:
            records = list(pool.map(score, items))
    else:
        records = [score(item) for item in items]
    if not records:
        return EXIT_EMPTY
    report = evaluate_run(records, edges)
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    write_records_jsonl(records, out_dir / "records.jsonl")
    write_records_csv(records, out_dir / "records.csv")
    print(render_report_text(report))
    return EXIT_OK


def cmd_export_ft(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    examples = []
    skipped = 0
    if cfg.get("annotations"):
        path = Path(cfg["annotations"])
        if not path.exists():
            raise UsageError(f"annotations file not found: {path}")
        examples.extend(parse_annotated_examples(path.read_text(encoding="utf-8")))
    if cfg.get("traces"):
        traces_dir = Path(cfg["traces"])
        if not traces_dir.is_dir():
            raise UsageError(f"traces directory not found: {traces_dir}")
        triples = []
        for trace_path in sorted(traces_dir.glob("*.json")):
            try:
                payload = json.loads(trace_path.read_text(encoding="utf-8"))
                trace = ReasoningTrace.from_dict(payload)
                triples.append((trace, payload["question"], payload["chart_id"]))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                skipped += 1
                print(f"warning: {trace_path}: {exc}", file=sys.stderr)
        converted, bad = examples_from_traces(triples)
        skipped += bad
        examples.extend(converted)
    _write_run_config(cfg, out_dir, "export-ft")
    if not examples:
        print("no valid fine-tuning examples", file=sys.stderr)
        return EXIT_EMPTY
    count = export_system2_sft(examples, out_dir / "system2.jsonl", cfg["tagged"])
    masked_chars = sum(
        len(s.text) for e in examples for s in e.segments if s.masked
    )
    total_chars = sum(len(s.text) for e in examples for s in e.segments)
    print(
        f"examples={count} skipped={skipped} "
        f"masked_chars={masked_chars}/{total_chars}"
    )
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_records_jsonl(cfg["records"])
    if not records:
        print("no records to report", file=sys.stderr)
        return EXIT_EMPTY
    report = evaluate_run(records, _parse_buckets(cfg["buckets"]))
    write_report(report, out_dir / "report.json", out_dir / "report.txt")
    _write_run_config(cfg, out_dir, "report")
    print(render_report_text(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartloop",
        description="Interleaved reasoner/reader runs over chart tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate reader training pairs from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--format", choices=["internal_json", "chartqa_like", "plotqa_like"],
                   default=None)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("run", help="run a single question through the loop")
    p.add_argument("--question", required=True)
    p.add_argument("--chart", required=True, help="chart id, resolved by the reader")
    p.add_argument("--corpus", default=None)
    p.add_argument("--format", choices=["internal_json", "chartqa_like", "plotqa_like"],
                   default=None)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score an eval set and write a report")
    p.add_argument("--corpus", default=None)
    p.add_argument("--format", choices=["internal_json", "chartqa_like", "plotqa_like"],
                   default=None)
    p.add_argument("--synthetic", type=int, default=None,
                   help="generate N random charts with template questions")
    p.add_argument("--templates", default=None, help="comma-separated template types")
    p.add_argument("--per-template", dest="per_template", type=int, default=None)
    p.add_argument("--sample", type=int, default=None, help="sample N instances (0 = all)")
    p.add_argument("--workers", type=int, default=None)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-ft", help="export loss-masked reasoner SFT data")
    p.add_argument("--traces", default=None, help="directory of trace JSON files")
    p.add_argument("--annotations", default=None, help="[INST]-tagged annotation file")
    p.add_argument("--tagged", action="store_true", default=None,
                   help="include the [INST]-wrapped rendering")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_export_ft)

    p = sub.add_parser("report", help="re-render a report from saved records")
    p.add_argument("--records", required=True)
    _add_shared_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args)
    if cfg.get("tagged") is None:
        cfg["tagged"] = False
    try:
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
