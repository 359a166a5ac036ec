import argparse
import gc
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

import chartloop
from chartloop.cli import build_parser, main
from chartloop.datagen import example_from_trace, load_corpus
from chartloop.symbolic import _FILLINGS, SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import ReasoningTrace, TemplateType


def run_cli(args):
    return main([str(a) for a in args])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture
def reasoner_url(monkeypatch):
    """A ``--reasoner-url`` served in process: its reasoner answers as the
    symbolic one does and keeps the temperature of every completion.  Yields
    the URL and that list."""
    import chartloop.cli as cli

    temperatures = []

    class InProcessReasoner(SymbolicReasoner):
        def __init__(self, url, model=None, api_key=None):
            super().__init__()

        def complete(self, prompt, stop_markers, temperature, max_tokens):
            temperatures.append(temperature)
            return super().complete(prompt, stop_markers, temperature, max_tokens)

        def close(self):
            pass

    monkeypatch.setattr(cli, "HttpReasoner", InProcessReasoner)
    return "http://127.0.0.1:9/complete", temperatures


def test_datagen_counts_and_determinism(small_corpus_path, tmp_path, capsys):
    out1 = tmp_path / "run1"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--out-dir", out1,
                    "--seed", 5]) == 0
    printed = capsys.readouterr().out
    assert "charts=2 describe=2 point=10 group=6" in printed
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest == {"n_charts": 2, "n_describe": 2, "n_point": 10,
                        "n_group": 6, "seed": 5}
    out2 = tmp_path / "run2"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--out-dir", out2,
                    "--seed", 5]) == 0
    assert (out1 / "system1.jsonl").read_bytes() == (out2 / "system1.jsonl").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    assert hashlib.sha256((out1 / "manifest.json").read_bytes()).hexdigest() == \
        "bca8c82a4f7c92b9fa9ef55262b9f81f9578e3503c8a20277136442145cc7071"
    config = json.loads((out1 / "run_config.json").read_text())
    assert config["command"] == "datagen"
    assert config["seed"] == 5


def test_datagen_missing_path_exits_2(tmp_path):
    assert run_cli(["datagen", "--corpus", tmp_path / "nope", "--out-dir",
                    tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_run_scripted_replay(small_corpus_path, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        "Let's describe the figure.",
        "Let's extract the data of Alpha BY 2002.",
        "The value of Alpha in 2002 is 11.0. So the answer is 11.0.",
    ]), encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Alpha in 2002?",
                    "--chart", "pair-chart", "--corpus", small_corpus_path,
                    "--script", script, "--out-dir", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "So the answer is 11.0." in printed
    assert "Final answer: 11.0" in printed
    [record] = read_jsonl(out / "traces.jsonl")
    assert record["final"] == record["episodes"][0]["final"] == "11.0"
    assert record["question"] == "What is the value of Alpha in 2002?"
    assert record["trace_ref"] == "episode-0"


def test_run_scripted_difference_replay(tmp_path, capsys):
    charts = tmp_path / "charts.jsonl"
    charts.write_text(json.dumps({
        "id": "store-revenue",
        "series": [{"name": "Macy's", "color": "blue"},
                   {"name": "Bloomingdale's", "color": "orange"}],
        "x_labels": ["2018", "2019"],
        "cells": [["598", "613"], ["52", "55"]],
    }) + "\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        "Let's describe the figure.",
        "Let's extract the data of Macy's BY 2019.",
        "Let's extract the data of Bloomingdale's BY 2019.",
        "The difference between Macy's and Bloomingdale's in 2019 is 613-55=558. "
        "So the answer is 558.",
    ]), encoding="utf-8")
    code = run_cli(["run", "--question",
                    "What is the difference between Macy's and Bloomingdale's in 2019?",
                    "--chart", "store-revenue", "--corpus", charts,
                    "--script", script, "--out-dir", tmp_path / "run"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "So the answer is 558." in printed
    assert "Final answer: 558" in printed


def test_run_self_consistency_votes(small_corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--sc", 3, "--out-dir", out])
    assert code == 0
    # The vote counts normalized finals but returns the answer as written.
    assert "Voted answer: 7.0" in capsys.readouterr().out
    [record] = read_jsonl(out / "traces.jsonl")
    # Two agreeing episodes decide a vote of at most three.
    assert len(record["episodes"]) == 2
    assert record["final"] == "7.0"


def test_run_symbolic_closed_loop(small_corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path, "--out-dir", out])
    assert code == 0
    assert "Final answer: 7.0" in capsys.readouterr().out


def test_run_backend_unreachable_exits_3(small_corpus_path, tmp_path):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--reasoner-url", "http://127.0.0.1:9/complete", "--out-dir", out])
    assert code == 3


def test_http_model_and_key_recorded(small_corpus_path, tmp_path):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "q", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--reasoner-url", "http://127.0.0.1:9/complete",
                    "--model", "local-7b", "--api-key", "tok",
                    "--out-dir", out])
    assert code == 3  # backend is unreachable, but the flags must be accepted
    config = json.loads((out / "run_config.json").read_text())
    assert config["model"] == "local-7b"
    assert config["api_key"] == "tok"


def test_run_reasoner_url_with_script_exits_2(small_corpus_path, tmp_path, capsys):
    code = run_cli(["run", "--question", "q", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--reasoner-url", "http://127.0.0.1:9/complete",
                    "--script", "unused.json", "--out-dir", tmp_path / "run"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --reasoner-url and --script cannot be combined\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags, message", [
    (["--model", "m"], "--model needs --reasoner-url"),
    (["--api-key", "k"], "--api-key needs --reasoner-url or --reader-url"),
])
def test_flag_for_a_backend_not_in_use_exits_2(tmp_path, capsys, flags, message):
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 3, *flags, "--out-dir", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("key", ["model", "api_key"])
def test_empty_model_or_api_key_exits_2(tmp_path, capsys, key, from_config):
    """The HTTP clients send no model field and no Authorization header for
    an empty value, so the run would record a flag that takes no effect."""
    flag = f"--{key.replace('_', '-')}"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "eval", key: ""}), encoding="utf-8")
    out = tmp_path / "eval"
    argv = ["eval", "--synthetic", 1, "--reasoner-url", "http://127.0.0.1:9/complete",
            *(["--config", config] if from_config else [flag, ""]), "--out-dir", out]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} cannot be empty\n"
    assert not out.exists()


def test_eval_with_reasoner_url_alone_runs_the_http_reasoner(tmp_path):
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 3, "--reasoner-url", "http://127.0.0.1:9/complete",
                    "--out-dir", out]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == 0.0
    assert "backend" not in json.loads((out / "run_config.json").read_text())


def test_eval_corpus_closed_loop(small_corpus_path, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run_cli(["eval", "--corpus", small_corpus_path, "--out-dir", out,
                    "--buckets", "0,10,20,40"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 2
    assert report["overall_accuracy"] == 1.0
    assert len(report["by_length_bucket"]) == 4
    assert (out / "records.jsonl").exists()
    assert not (out / "records.csv").exists()
    assert "overall accuracy: 1.0000" in capsys.readouterr().out


def test_eval_synthetic_records_flags(tmp_path, reasoner_url):
    out = tmp_path / "eval"
    code = run_cli(["eval", "--synthetic", 3, "--out-dir", out, "--seed", 11,
                    "--sc", 5, "--temperature", 0.4, "--reasoner-url", reasoner_url[0]])
    assert code == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["sc"] == 5
    assert config["temperature"] == 0.4
    assert config["seed"] == 11
    report = json.loads((out / "report.json").read_text())
    assert report["overall_accuracy"] == 1.0


def test_bad_buckets_exit_2_before_any_episode(tmp_path, capsys):
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 1, "--buckets", "10,5", "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(_RECORD) + "\n", encoding="utf-8")
    out = tmp_path / "report"
    assert run_cli(["report", "--records", records, "--buckets", "10,5", "--out-dir", out]) == 2
    assert not out.exists()


def test_eval_without_instances_exits_4(tmp_path):
    charts = tmp_path / "charts.jsonl"
    charts.write_text(json.dumps({
        "id": "only", "series": [{"name": "A", "color": None}],
        "x_labels": ["x"], "cells": [["1"]],
    }) + "\n", encoding="utf-8")
    code = run_cli(["eval", "--corpus", charts, "--out-dir", tmp_path / "eval"])
    assert code == 4


@pytest.mark.parametrize("flags", [
    ["--model", "m"],
    ["--prompt-style", "deplot1"],
    ["--script", "/missing.json"],
    ["--workers", 2],
], ids=["model", "prompt-style", "missing-script", "workers"])
def test_eval_usage_error_outranks_no_instances(tmp_path, capsys, flags):
    """The backends are checked before the first question is drawn, so a
    corpus with no QA rows still reports a bad flag."""
    charts = tmp_path / "charts.jsonl"
    charts.write_text(json.dumps({
        "id": "only", "series": [{"name": "A", "color": None}],
        "x_labels": ["x"], "cells": [["1"]],
    }) + "\n", encoding="utf-8")
    assert run_cli(["eval", "--corpus", charts, *flags, "--out-dir", tmp_path / "eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


def test_eval_requires_some_input(tmp_path):
    assert run_cli(["eval", "--out-dir", tmp_path / "eval"]) == 2


def test_export_ft_annotations(tmp_path):
    out = tmp_path / "ft"
    with resources.as_file(resources.files("chartloop.data") / "annotated_examples.txt") as path:
        code = run_cli(["export-ft", "--annotations", path, "--tagged", "--out-dir", out])
    assert code == 0
    lines = (out / "system2.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert "[INST]" in json.loads(lines[0])["rendered"]


def test_export_ft_trace_chain(small_corpus_path, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--out-dir", run_out]) == 0
    traces = run_out / "traces.jsonl"
    with open(traces, "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    capsys.readouterr()
    out = tmp_path / "ft"
    assert run_cli(["export-ft", "--traces", traces, "--out-dir", out]) == 0
    captured = capsys.readouterr()
    assert "examples=1 skipped=1 " in captured.out
    assert captured.err.startswith(f"warning: {traces}:2: ") and captured.err.count("\n") == 1
    record = json.loads((out / "system2.jsonl").read_text().splitlines()[0])
    texts = "".join(s["text"] for s in record["segments"])
    assert texts.startswith("Q: What is the value of Q3?\n")


def test_export_ft_empty_file_exits_4(tmp_path):
    empty = tmp_path / "traces.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run_cli(["export-ft", "--traces", empty, "--out-dir", tmp_path / "ft"]) == 4
    assert not (tmp_path / "ft").exists()


def test_report_empty_file_exits_4(tmp_path, capsys):
    empty = tmp_path / "records.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run_cli(["report", "--records", empty, "--out-dir", tmp_path / "out"]) == 4
    assert capsys.readouterr().err == "no records to report\n"
    assert not (tmp_path / "out").exists()


def test_run_sc_traces_export_one_example_per_episode(small_corpus_path, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert run_cli(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--sc", 3, "--out-dir", run_out]) == 0
    out = tmp_path / "ft"
    assert run_cli(["export-ft", "--traces", run_out / "traces.jsonl", "--out-dir", out]) == 0
    # The vote was decided after two of the three episodes.
    assert "examples=2 skipped=0 " in capsys.readouterr().out
    assert len(read_jsonl(out / "system2.jsonl")) == 2


def test_eval_traces_export_one_example_per_concluded_episode(tmp_path, capsys):
    eval_out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 5, "--sc", 2, "--out-dir", eval_out]) == 0
    records = read_jsonl(eval_out / "records.jsonl")
    lines = read_jsonl(eval_out / "traces.jsonl")
    assert [line["trace_ref"] for line in lines] == [r["trace_ref"] for r in records]
    assert [(line["question"], line["chart_id"], line["final"]) for line in lines] == \
        [(r["question"], r["chart_id"], r["prediction"]) for r in records]
    expected = []
    for line in lines:
        for episode in line["episodes"]:
            trace = ReasoningTrace.from_dict(episode)
            if trace.final is not None:
                expected.append(example_from_trace(trace, line["question"], line["chart_id"]))
    assert len(expected) == 2 * len(records)
    out = tmp_path / "ft"
    assert run_cli(["export-ft", "--traces", eval_out / "traces.jsonl", "--out-dir", out]) == 0
    assert f"examples={len(expected)} skipped=0 " in capsys.readouterr().out
    exported = read_jsonl(out / "system2.jsonl")
    assert [[(s["text"], s["masked"]) for s in e["segments"]] for e in exported] == \
        [[(s.text, s.masked) for s in e.segments] for e in expected]
    assert [e["chart_id"] for e in exported] == [e.chart_id for e in expected]


def write_synthetic_corpus(root, seed, n_charts, per_template):
    """Write the charts and questions of ``eval --synthetic n_charts`` as an
    internal_json corpus (``charts.jsonl``, ``qa.jsonl``) under ``root``."""
    root.mkdir()
    charts = random_tables(seed, n_charts)
    with open(root / "charts.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(table.to_json() + "\n" for table in charts)
    with open(root / "qa.jsonl", "w", encoding="utf-8") as handle:
        for table in charts:
            for template in TemplateType:
                try:
                    generated = gen_questions(table, template, seed, n=per_template)
                except SkippedTemplate:
                    continue
                for qa, _ in generated:
                    row = {"question": qa.question, "answer": qa.gold.raw,
                           "chart_id": qa.chart_id, "template_type": template.value}
                    handle.write(json.dumps(row, ensure_ascii=False) + "\n")


# sha256 of each eval output: the 20-chart runs (the corpus case reads the
# same charts and questions back), and the 1000-chart synthetic run.
_EVAL_DIGESTS = {
    20: {
        "records.jsonl": "ef92ad92269169e4453fe192609732939db87aaa37c509f35b2e1ce834c5befd",
        "report.json": "21afc29ae036cc6428b4db6092936a4c41c1cc6c905496dde62f1e23c1a5065d",
        "report.txt": "13537a154557f8c301b3c37e76b96519ac72acd949253e5b4283bf0401646286",
        # Every reasoner and reader line; --sc 3 draws more episodes.
        "traces.jsonl": {
            1: "3ba401f29c2d4d869d24e4ef88c51e0db138bcfe7d206763df4997e34cf33793",
            3: "c6349f47f59379e11a558b4652c71f2ae8aa37b9ae789bc89cf8bcc9cde04706",
        },
    },
    1000: {
        "records.jsonl": "90e43a334907da1be9790274227ac199246358a5d3626a180fcc12ba4c07e755",
        "report.json": "b820c916bf409ec0c3d3cecb674fd123f2b13593971f884dfd84acc15e688ca8",
        "report.txt": "3b0f084e2bf0f2a346b31e68a9a58889b12296d64681d2be02fd6b3f1352f978",
        "traces.jsonl": {
            1: "4fac66ac048de2af70b8889080d6c1463f9a5d61d06904bd221bb61cd2f97342",
        },
    },
}


@pytest.mark.parametrize("sc, source, charts", [(1, "synthetic", 20), (3, "synthetic", 20),
                                                (1, "corpus", 20), (1, "synthetic", 1000)],
                         ids=["1", "3", "corpus", "1000"])
def test_eval_records_bytes_are_pinned(tmp_path, sc, source, charts):
    out = tmp_path / "eval"
    if source == "corpus":
        # The synthetic cases' charts and questions, read back by load_corpus: same bytes.
        write_synthetic_corpus(tmp_path / "corpus", 0, charts, 2)
        assert run_cli(["eval", "--corpus", tmp_path / "corpus", "--out-dir", out]) == 0
    else:
        assert run_cli(["eval", "--synthetic", charts, "--per-template", 2, "--seed", 0,
                        "--sc", sc, "--out-dir", out]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("records.jsonl", "report.json", "report.txt", "traces.jsonl")}
    expected = dict(_EVAL_DIGESTS[charts])
    expected["traces.jsonl"] = expected["traces.jsonl"][sc]
    assert digests == expected


def test_export_files_bytes_are_pinned(tmp_path):
    """``datagen`` over the 20 synthetic charts and ``export-ft`` over the
    traces of their pinned eval, plain and ``--tagged``, write fixed bytes."""
    write_synthetic_corpus(tmp_path / "corpus", 0, 20, 2)
    assert run_cli(["datagen", "--corpus", tmp_path / "corpus", "--out-dir", tmp_path / "s1"]) == 0
    assert run_cli(["eval", "--synthetic", 20, "--per-template", 2, "--seed", 0,
                    "--out-dir", tmp_path / "eval"]) == 0
    traces = tmp_path / "eval" / "traces.jsonl"
    assert run_cli(["export-ft", "--traces", traces, "--out-dir", tmp_path / "s2"]) == 0
    assert run_cli(["export-ft", "--traces", traces, "--tagged", "--out-dir", tmp_path / "s2t"]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("s1/system1.jsonl", "s2/system2.jsonl", "s2t/system2.jsonl")}
    assert digests == {
        "s1/system1.jsonl": "ffa23f578107022165a48faaef6f64dcb952d3924e39815ab33a382f32f7d0cf",
        "s2/system2.jsonl": "0f2ca682b702aa87004075dc4189f92717cb64eae203594a77c975c0e0f1ac68",
        "s2t/system2.jsonl": "625046d0e378250e44b62865b4c9fcd98aef2b178130b7ac248f4e1d23fd7cae",
    }


def test_report_from_records(small_corpus_path, tmp_path, capsys):
    eval_out = tmp_path / "eval"
    assert run_cli(["eval", "--corpus", small_corpus_path, "--out-dir", eval_out]) == 0
    capsys.readouterr()
    report_out = tmp_path / "report"
    code = run_cli(["report", "--records", eval_out / "records.jsonl",
                    "--out-dir", report_out, "--buckets", "0,5,10"])
    assert code == 0
    report = json.loads((report_out / "report.json").read_text())
    assert report["n"] == 2
    assert len(report["by_length_bucket"]) == 3
    same = tmp_path / "same"
    assert run_cli(["report", "--records", eval_out / "records.jsonl", "--out-dir", same]) == 0
    assert (same / "report.json").read_bytes() == (eval_out / "report.json").read_bytes()


def test_config_file_with_flag_precedence(small_corpus_path, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 3, "out_dir": str(tmp_path / "cfg_out")}),
                           encoding="utf-8")
    out = tmp_path / "flag_out"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--config", config_path,
                    "--out-dir", out]) == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["seed"] == 3            # from the config file
    assert config["out_dir"] == str(out)  # flag wins


def test_rerun_from_recorded_config(small_corpus_path, tmp_path):
    out1 = tmp_path / "first"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--out-dir", out1,
                    "--seed", 8]) == 0
    out2 = tmp_path / "second"
    assert run_cli(["datagen", "--config", out1 / "run_config.json",
                    "--corpus", small_corpus_path, "--out-dir", out2]) == 0
    assert (out1 / "system1.jsonl").read_bytes() == (out2 / "system1.jsonl").read_bytes()


@pytest.mark.parametrize("style", ["stepwise5", "deplot1"])
def test_run_unknown_chart_exits_2(small_corpus_path, tmp_path, capsys, style):
    # A DePlot style needs a reasoner server; the chart is checked before any call.
    server = ["--reasoner-url", "http://127.0.0.1:9/complete"] if style != "stepwise5" else []
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "no-such-chart", "--corpus", small_corpus_path,
                    "--prompt-style", style, *server, "--out-dir", tmp_path / "run"])
    assert code == 2
    assert capsys.readouterr().err == "error: chart 'no-such-chart' not found\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("empty", [{"series": [], "cells": []},
                                   {"x_labels": [], "cells": [[]]}],
                         ids=["no-series", "no-x-labels"])
def test_a_chart_with_an_empty_axis_is_left_out(small_corpus_path, tmp_path, capsys, empty):
    """Such a chart is a load issue: datagen writes the other charts' pairs,
    and run does not find it."""
    chart = {"id": "empty-axis", "series": [{"name": "A", "color": None}],
             "x_labels": ["2001"], "cells": [["1"]], **empty}
    before = tmp_path / "before"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--out-dir", before]) == 0
    with open(small_corpus_path / "charts.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(chart) + "\n")
    after = tmp_path / "after"
    assert run_cli(["datagen", "--corpus", small_corpus_path, "--out-dir", after]) == 0
    assert (after / "system1.jsonl").read_bytes() == (before / "system1.jsonl").read_bytes()
    capsys.readouterr()
    assert run_cli(["run", "--question", "How many legend labels are there?",
                    "--chart", "empty-axis", "--corpus", small_corpus_path,
                    "--out-dir", tmp_path / "run"]) == 2
    assert capsys.readouterr().err.endswith("error: chart 'empty-axis' not found\n")


def test_run_question_with_a_line_break_exits_2(tmp_path, capsys):
    """The prompt's ``Q: ...\\nA: `` stub cannot carry a line break: the
    reasoner would answer the last few-shot exemplar's question instead."""
    charts = tmp_path / "charts.jsonl"
    charts.write_text(json.dumps({"id": "gdp", "series": [{"name": "Estonia", "color": None}],
                                  "x_labels": ["2002", "2003"], "cells": [["7840", "8830"]]})
                      + "\n", encoding="utf-8")
    argv = ["run", "--corpus", charts, "--chart", "gdp", "--question"]
    assert run_cli([*argv, "What is the value of Estonia in 2003?",
                    "--out-dir", tmp_path / "one-line"]) == 0
    assert capsys.readouterr().out.endswith("Final answer: 8830\n")
    for question in ("What is the value of\nEstonia in 2003?",
                     "What is the value of\r\nEstonia in 2003?"):
        out = tmp_path / "two-lines"
        assert run_cli([*argv, question, "--out-dir", out]) == 2
        assert capsys.readouterr().err == "error: --question cannot hold a line break\n"
        assert not out.exists()


def test_eval_memory_does_not_grow_with_the_questions(tmp_path):
    """Eight questions per chart and template peak within 0.25 MB of one (a
    list of every record made it 1.3 MB): questions and records stream through
    eval.  What is left of the gap is CPython's capped free lists of small
    tuples, not state that eval keeps."""

    def peak(per_template):
        gc.collect()  # empties the free lists, so each run starts from the same heap
        tracemalloc.start()
        try:
            assert run_cli(["eval", "--synthetic", 40, "--per-template", per_template,
                            "--seed", 0, "--out-dir", tmp_path / str(per_template)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The first eval in a process also loads the prompt files.
    assert run_cli(["eval", "--synthetic", 1, "--out-dir", tmp_path / "first"]) == 0
    one = peak(1)
    assert peak(8) <= one + 250_000


def test_run_scripted_with_self_consistency_exits_2(small_corpus_path, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["The value is 7.0. So the answer is 7.0."]),
                      encoding="utf-8")
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--script", script, "--sc", 3,
                    "--out-dir", tmp_path / "run"])
    assert code == 2
    assert not (tmp_path / "run" / "run_config.json").exists()


def test_eval_into_closed_pipe_keeps_files(tmp_path, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "eval"
    with open(write_end, "w", encoding="utf-8") as closed_pipe:
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        code = run_cli(["eval", "--synthetic", 3, "--out-dir", out])
    assert code == 0
    assert (out / "records.jsonl").exists()
    assert (out / "report.json").exists()


@pytest.mark.parametrize("flags, used", [
    (["--sc", 3, "--temperature", 0], 0.0),
    (["--sc", 3], 0.4),
    (["--sc", 1], 0.0),
])
def test_temperature_follows_sc_unless_given(tmp_path, monkeypatch, reasoner_url, flags, used):
    import chartloop.cli as cli

    seen = []
    original = cli.run_self_consistency

    def spy(question, chart, reasoner, reader, config, sc, **kwargs):
        seen.append(sc.temperature)
        return original(question, chart, reasoner, reader, config, sc, **kwargs)

    monkeypatch.setattr(cli, "run_self_consistency", spy)
    out = tmp_path / "eval"
    url, temperatures = reasoner_url
    assert run_cli(["eval", "--synthetic", 1, *flags, "--reasoner-url", url,
                    "--out-dir", out]) == 0
    assert seen and set(seen) == {used}
    assert temperatures and set(temperatures) == {used}
    assert json.loads((out / "run_config.json").read_text())["temperature"] == used


@pytest.mark.parametrize("command", [
    ["eval", "--synthetic", 20],
    ["eval", "--synthetic", 3, "--sc", 3],
    ["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
     "--corpus", "corpus", "--script", "script.json"],
], ids=["symbolic", "symbolic-sc", "scripted"])
def test_temperature_needs_a_reasoner_url(small_corpus_path, tmp_path, capsys, command):
    """The symbolic and scripted reasoners never read a temperature: giving
    one is a usage error, and their runs record none, so a recorded config
    replays them."""
    script = tmp_path / "script.json"
    script.write_text('["So the answer is 7."]', encoding="utf-8")
    inputs = {"corpus": small_corpus_path, "script.json": script}
    argv = [inputs.get(arg, arg) for arg in command]
    assert run_cli([*argv, "--temperature", 0.9, "--out-dir", tmp_path / "hot"]) == 2
    assert capsys.readouterr().err == "error: --temperature needs --reasoner-url\n"
    assert not (tmp_path / "hot").exists()
    first, again = tmp_path / "first", tmp_path / "again"
    assert run_cli([*argv, "--out-dir", first]) == 0
    assert json.loads((first / "run_config.json").read_text())["temperature"] is None
    assert run_cli([argv[0], "--config", first / "run_config.json", "--out-dir", again]) == 0
    assert (again / "traces.jsonl").read_bytes() == (first / "traces.jsonl").read_bytes()


@pytest.mark.parametrize("given", [
    ["--temperature", "nan"], ["--temperature", "inf"], ["--temperature=-inf"],
    '{"temperature": "nan"}', '{"temperature": 1e400}', '{"temperature": NaN}',
    '{"temperature": "-Infinity"}',
], ids=["flag-nan", "flag-inf", "flag-minus-inf", "config-nan-string", "config-1e400",
        "config-NaN", "config-minus-infinity"])
def test_non_finite_temperature_exits_2(tmp_path, capsys, reasoner_url, given):
    """No sampling temperature is NaN or infinite, and ``run_config.json``
    and every request body are strict JSON, which has no NaN."""
    if isinstance(given, str):
        (tmp_path / "config.json").write_text('{"command": "eval", ' + given[1:],
                                              encoding="utf-8")
        given = ["--config", tmp_path / "config.json"]
    out = tmp_path / "out"
    assert run_cli(["eval", "--synthetic", 1, "--reasoner-url", reasoner_url[0], *given,
                    "--out-dir", out]) == 2
    assert capsys.readouterr().err == "error: --temperature must be a finite number\n"
    assert not out.exists() and reasoner_url[1] == []


def test_eval_interrupted_exits_130_with_one_line(tmp_path, monkeypatch, capsys):
    import chartloop.cli as cli

    original, asked = cli.run_self_consistency, []

    def interrupt_third(*args, **kwargs):
        asked.append(args[0])
        if len(asked) == 3:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_self_consistency", interrupt_third)
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 2, "--out-dir", out]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    assert [line["question"] for line in read_jsonl(out / "traces.jsonl")] == asked[:2]
    assert [record["question"] for record in read_jsonl(out / "records.jsonl")] == asked[:2]


def test_eval_error_keeps_the_records_before_it(tmp_path, monkeypatch, capsys):
    import chartloop.cli as cli

    original, asked = cli.run_self_consistency, []

    def fail_fifth(*args, **kwargs):
        asked.append(args[0])
        if len(asked) == 5:
            raise ValueError("the fifth question breaks")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "run_self_consistency", fail_fifth)
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 2, "--out-dir", out]) == 2
    assert capsys.readouterr().err == "error: the fifth question breaks\n"
    records = read_jsonl(out / "records.jsonl")
    assert [record["question"] for record in records] == asked[:4]
    assert [line["trace_ref"] for line in read_jsonl(out / "traces.jsonl")] == \
        [record["trace_ref"] for record in records]


def test_eval_sigint_keeps_a_trace_line_for_every_record(tmp_path):
    """Ctrl-C in the middle of a real eval process: each record on disk has
    its trace line, and the records rebuild a report."""
    out = tmp_path / "eval"
    src = Path(chartloop.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    with subprocess.Popen(
        [sys.executable, "-m", "chartloop", "eval", "--synthetic", "1000", "--per-template", "2",
         "--out-dir", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        # A shell without job control starts background jobs ignoring SIGINT,
        # which the interpreter would then keep ignoring.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as process:
        try:
            deadline = time.monotonic() + 60
            while not ((out / "records.jsonl").exists() and (out / "records.jsonl").stat().st_size):
                assert process.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            process.send_signal(signal.SIGINT)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            process.kill()
    assert (process.returncode, stdout, stderr) == (130, "", "interrupted\n")
    records = read_jsonl(out / "records.jsonl")
    traces = read_jsonl(out / "traces.jsonl")
    assert 0 < len(records) <= len(traces) < 12_000
    assert [line["trace_ref"] for line in traces[:len(records)]] == \
        [record["trace_ref"] for record in records] == \
        [f"episode-{index}" for index in range(len(records))]
    assert run_cli(["report", "--records", out / "records.jsonl",
                    "--out-dir", tmp_path / "report"]) == 0


@pytest.mark.parametrize("command, content", [
    (["report", "--records", "r.jsonl"], None),
    (["report", "--records", "r.jsonl"], "{not json"),
    (["eval", "--synthetic", 1], "[1, 2]"),
    (["report", "--records", "r.jsonl"], '{"sc": "3"}'),
    (["eval", "--synthetic", 1], '{"sc": "three"}'),
    (["eval", "--synthetic", 1], '{"sc": true}'),
    (["eval", "--synthetic", 1], '{"backend": "oracle"}'),
    (["eval", "--synthetic", 1], '{"unknown_key": 1}'),
    (["report", "--records", "r.jsonl"], '{"command": "eval", "sc": 3, "synthetic": 2}'),
    (["eval", "--synthetic", 1], '{"workers": 0}'),
    (["eval", "--synthetic", 1], '{"no_describe": false}'),
    (["run", "--question", "q", "--chart", "c"], '{"no_describe": true}'),
])
def test_bad_config_file_exits_2(tmp_path, capsys, command, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli([*command, "--config", config, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "run_config.json").exists()


def test_config_strings_take_the_flag_type(tmp_path, reasoner_url):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sc": "3", "temperature": "0.2", "command": "eval",
                                  "reasoner_url": reasoner_url[0]}), encoding="utf-8")
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 1, "--config", config, "--out-dir", out]) == 0
    recorded = json.loads((out / "run_config.json").read_text())
    assert (recorded["sc"], recorded["temperature"]) == (3, 0.2)


@pytest.mark.parametrize("argv", [
    ["datagen", "--corpus", "c", "--sc", 4],
    ["export-ft", "--annotations", "a.txt", "--backend", "http"],
    ["report", "--records", "r.jsonl", "--no-describe"],
    ["run", "--question", "q", "--chart", "c", "--workers", 2],
    ["run", "--question", "q", "--chart", "c", "--no-describe"],
    ["eval", "--synthetic", 1, "--no-describe"],
])
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exited:
        run_cli(argv)
    assert exited.value.code == 2


@pytest.mark.parametrize("sc", [1, 3])
def test_dead_backend_exits_3(small_corpus_path, tmp_path, sc):
    dead = ["--reasoner-url", "http://127.0.0.1:9/complete", "--sc", sc]
    assert run_cli(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, *dead, "--out-dir", tmp_path / "run"]) == 3
    out = tmp_path / "eval"
    assert run_cli(["eval", "--corpus", small_corpus_path, *dead, "--out-dir", out]) == 3
    assert len((out / "records.jsonl").read_text().splitlines()) == 2
    assert (out / "report.json").exists()


def test_run_without_final_exits_4(small_corpus_path, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["Let's describe the figure.", ""]), encoding="utf-8")
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--script", script, "--out-dir", tmp_path / "run"])
    assert code == 4


def test_eval_prediction_does_not_depend_on_sc(small_corpus_path, tmp_path):
    predictions = []
    for sc in (1, 3):
        out = tmp_path / f"sc{sc}"
        assert run_cli(["eval", "--corpus", small_corpus_path, "--sc", sc,
                        "--out-dir", out]) == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        predictions.append([json.loads(line)["prediction"] for line in lines])
    assert predictions[0] == predictions[1] == ["11.0", "7.0"]


@pytest.mark.parametrize("command", [
    ["datagen"],
    ["run", "--question", "What is the value of Q3?", "--chart", "solo-chart"],
    ["eval"],
])
def test_ingestion_issues_print_once(small_corpus_path, tmp_path, command):
    with open(small_corpus_path / "charts.jsonl", "a", encoding="utf-8") as handle:
        handle.write("{not json\n")
    src = Path(chartloop.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "chartloop", *command, "--corpus", str(small_corpus_path),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    issues = load_corpus(small_corpus_path).issues
    assert len(issues) == 1
    assert result.stderr == f"warning: {issues[0]}\n"


_RECORD = {"question": "q", "gold": "1", "chart_id": "c", "template_type": None,
           "prediction": "1", "correct": True, "table_length": 4, "trace_ref": "episode-0"}


def _without(key):
    return json.dumps({k: v for k, v in _RECORD.items() if k != key}) + "\n"


@pytest.mark.parametrize("content, reason", [
    pytest.param(None, None, id="None"),
    pytest.param("[1, 2]\n", None, id="[1, 2]\n"),
    pytest.param('{"question": "q", "chart_id": "c"}\n', None,
                 id='{"question": "q", "chart_id": "c"}\n'),
    pytest.param("[" * 100_000 + "\n", None, id="too-deeply-nested"),
    pytest.param(json.dumps({**_RECORD, "correct": "false"}) + "\n", None,
                 id="correct-is-a-string"),
    pytest.param(json.dumps({**_RECORD, "table_length": -1}) + "\n", None,
                 id="negative-table-length"),
    pytest.param(json.dumps({**_RECORD, "gold": None}) + "\n", None, id="gold-is-null"),
    pytest.param(json.dumps({**_RECORD, "trace_ref": None}) + "\n", None,
                 id="trace-ref-is-null"),
    # A missing required key reads as a null field does.
    pytest.param(_without("table_length"), "missing table_length", id="table-length-missing"),
    pytest.param(_without("correct"), "missing correct", id="correct-missing"),
])
def test_report_bad_records_exit_2(tmp_path, capsys, content, reason):
    records = tmp_path / "records.jsonl"
    if content is not None:
        records.write_text(content, encoding="utf-8")
    assert run_cli(["report", "--records", records, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if content is not None:
        assert err.startswith(f"error: {records}:1: ")
    if reason is not None:
        assert err == f"error: {records}:1: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_report_reads_every_line_before_it_writes(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(_RECORD) + "\n{not json\n", encoding="utf-8")
    assert run_cli(["report", "--records", records, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {records}:2: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [
    "[1, 2]", '{"steps": "abc", "final": null}',
    pytest.param("[" * 100_000, id="too-deeply-nested"),
    pytest.param(json.dumps({"trace_ref": "episode-0", "question": "q", "chart_id": "c",
                             "final": None, "episodes": [{
                                 "steps": [{"role": "reader_answer", "text": "x"}],
                                 "final": None, "terminated_by": "max_steps"}]}),
                 id="episode-fails-validate_trace"),
    # It would split the example's "Q: " line, as in a corpus QA row.
    *(pytest.param(json.dumps({"trace_ref": "episode-0", "question": question, "chart_id": "c",
                               "final": "7", "episodes": [{
                                   "steps": [{"role": "conclusion", "text": "So the answer is 7."}],
                                   "final": "7", "terminated_by": "conclusion"}]}),
                   id=f"question-holds-{name}")
      for name, question in (("lf", "What is\nthe value?"), ("cr", "What is\rthe value?"))),
])
def test_export_ft_skips_malformed_trace(tmp_path, capsys, content):
    bad = tmp_path / "traces.jsonl"
    bad.write_text(content, encoding="utf-8")
    assert run_cli(["export-ft", "--traces", bad, "--out-dir", tmp_path / "ft"]) == 4
    warning = capsys.readouterr().err.splitlines()[0]
    assert warning.startswith(f"warning: {bad}:1: ")


@pytest.mark.parametrize("content", [None, "5", "[1, 2]", '{"first": "x"}', "{not json",
                                     '"abc"', '{"0": 1}',
                                     pytest.param("[" * 100_000, id="too-deeply-nested"),
                                     # An object is keyed exactly "0" .. "n-1".
                                     '{"1": "x", "3": "y"}', '{"0": "a", "00": "b"}',
                                     '{"-1": "x", "0": "y"}', '{" 1": "x", "0": "y"}',
                                     '{"0": "x", "2": "y"}'])
def test_bad_script_exits_2_before_run_config(small_corpus_path, tmp_path, capsys, content):
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content, encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--script", script,
                    "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(script) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--synthetic", 1, "--config", "deep.json"],
    ["report", "--records", "."],
    ["export-ft", "--annotations", "."],
    ["export-ft", "--traces", "."],
    ["export-ft", "--traces", "missing.jsonl"],
    ["export-ft", "--traces", "latin1.jsonl"],
    ["report", "--records", "latin1.jsonl"],
    ["export-ft", "--annotations", "latin1.jsonl"],
])
def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys, argv):
    """Too deeply nested JSON, a directory where a file belongs, a missing
    file and a file that is not UTF-8; the message names the file."""
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    (tmp_path / "latin1.jsonl").write_bytes(b'{"question": "caf\xe9"}\n')
    argv = [tmp_path / arg if arg in ("deep.json", ".", "missing.jsonl", "latin1.jsonl") else arg
            for arg in argv]
    assert run_cli([*argv, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(next(arg for arg in argv if isinstance(arg, Path))) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir, blocked", [
    ("file", "file"),
    ("file/sub", "file/sub"),
    ("out", "out/{artifact}"),
], ids=["an-existing-file", "under-a-file", "artifact-is-a-directory"])
@pytest.mark.parametrize("command, artifact", [
    (["datagen", "--corpus", "{corpus}"], "system1.jsonl"),
    (["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
      "--corpus", "{corpus}"], "traces.jsonl"),
    (["eval", "--synthetic", "1"], "traces.jsonl"),
    (["export-ft", "--traces", "{inputs}/traces.jsonl"], "system2.jsonl"),
    (["report", "--records", "{inputs}/records.jsonl"], "report.json"),
], ids=["datagen", "run", "eval", "export-ft", "report"])
def test_unusable_out_dir_exits_2_with_one_line(small_corpus_path, tmp_path, capsys,
                                                command, artifact, out_dir, blocked):
    inputs = tmp_path / "inputs"
    assert run_cli(["eval", "--corpus", small_corpus_path, "--out-dir", inputs]) == 0
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "out" / artifact).mkdir(parents=True)
    capsys.readouterr()
    argv = [arg.format(corpus=small_corpus_path, inputs=inputs) for arg in command]
    assert run_cli([*argv, "--out-dir", tmp_path / out_dir]) == 2
    err = capsys.readouterr().err
    blocked = tmp_path / blocked.format(artifact=artifact)
    assert err.startswith(f"error: cannot write {blocked}: ") and err.count("\n") == 1


def test_scripted_eval_replays_the_script_for_each_question(small_corpus_path, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"0": "The value is 7.0. So the answer is 7.0."}),
                      encoding="utf-8")
    out = tmp_path / "eval"
    assert run_cli(["eval", "--corpus", small_corpus_path, "--script", script,
                    "--out-dir", out]) == 0
    lines = (out / "records.jsonl").read_text().splitlines()
    assert [json.loads(line)["prediction"] for line in lines] == ["7.0", "7.0"]


@pytest.mark.parametrize("command, artifact", [
    (["datagen", "--seed", 4], "system1.jsonl"),
    (["run", "--question", "What is the value of Q3?", "--chart", "solo-chart"], "traces.jsonl"),
    (["report", "--buckets", "0,5"], "report.json"),
])
def test_recorded_config_alone_reruns_a_command(small_corpus_path, tmp_path, command, artifact):
    if command[0] == "report":
        eval_out = tmp_path / "eval"
        assert run_cli(["eval", "--corpus", small_corpus_path, "--out-dir", eval_out]) == 0
        inputs = ["--records", tmp_path / "eval" / "records.jsonl"]
    else:
        inputs = ["--corpus", small_corpus_path]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli([*command, *inputs, "--out-dir", first]) == 0
    assert run_cli([command[0], "--config", first / "run_config.json", "--out-dir", second]) == 0
    assert (first / artifact).read_bytes() == (second / artifact).read_bytes()


@pytest.mark.parametrize("argv", [
    ["datagen", "--corpus", "c", "--sc", "4"],
    ["report"],
    ["export-ft"],
    ["eval", "--synthetic", 3, "--workers", -2],
    ["eval", "--synthetic", 3, "--workers", 0],
    ["eval", "--synthetic", 3, "--per-template", -1],
    ["eval", "--synthetic", 3, "--sample", -2],
    ["eval", "--synthetic", -1],
    ["eval", "--synthetic", 3, "--temperature", -1],
    ["eval", "--synthetic", 3, "--sc", 0],
    ["run", "--question", "q", "--chart", "c", "--max-steps", 0],
    ["eval"],
    ["run", "--question", "q", "--chart", "c", "--model", "m"],
    ["eval", "--synthetic", 2, "--reasoner-url", "foo"],
    ["eval", "--synthetic", 2, "--reader-url", "file:///dev/null"],
    ["run", "--question", "q", "--chart", "c", "--reasoner-url", "file:///dev/null"],
    ["run", "--question", "What is the value of x?", "--chart", "nope", "--corpus", "corpus"],
    ["run", "--question", "What is the value of x?", "--chart", "nope", "--corpus", "corpus",
     "--reader-url", "http://127.0.0.1:9", "--reasoner-url", "http://127.0.0.1:9/complete",
     "--prompt-style", "deplot1"],
    # Only a reasoner server reads the table a DePlot prompt carries.
    ["eval", "--synthetic", 2, "--prompt-style", "deplot5"],
    ["run", "--question", "What is the value of Q3?", "--chart", "solo-chart", "--corpus", "corpus",
     "--prompt-style", "deplot1"],
    # A line break would split the prompt's question line.
    ["run", "--question", "What is the value of\nx?", "--chart", "c", "--corpus", "corpus"],
    ["eval", "--synthetic", 3, "--workers", 2],
    # A URL or key HTTP cannot carry is refused before any request is sent.
    ["eval", "--synthetic", 2, "--reader-url", "http://127.0.0.1:9/a b"],
    ["eval", "--synthetic", 2, "--reasoner-url", "http://127.0.0.1:9/a\x01b"],
    ["eval", "--synthetic", 2, "--reasoner-url", "http://127.0.0.1:9/complete",
     "--api-key", "a\nb"],
    # Only a model samples: the built-in reasoners never read a temperature.
    ["eval", "--synthetic", 2, "--temperature", 0.9],
    # A flag that would change nothing: a layout without a corpus, a seed
    # without anything to draw.
    ["eval", "--synthetic", 2, "--format", "chartqa_like"],
    ["run", "--question", "What is the value of x?", "--chart", "c",
     "--reader-url", "http://127.0.0.1:9", "--format", "chartqa_like"],
    ["eval", "--corpus", "corpus", "--seed", 5],
])
def test_usage_error_is_one_line(small_corpus_path, tmp_path, capsys, argv):
    argv = [small_corpus_path if arg == "corpus" else arg for arg in argv]
    try:
        code = run_cli([*argv, "--out-dir", tmp_path / "out"])
    except SystemExit as exited:
        code = exited.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["datagen"],
    ["run", "--question", "What is the value of Alpha in 2002?", "--chart", "pair-chart"],
    ["eval"],
    ["eval", "--synthetic", 2],
], ids=["datagen", "run", "eval", "eval-synthetic"])
def test_an_empty_corpus_exits_2(tmp_path, capsys, argv):
    """An empty ``--corpus`` names no corpus: one usage error line before
    ``--out-dir`` exists, never a traceback or a run without the corpus."""
    assert run_cli([*argv, "--corpus", "", "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "error: --corpus cannot be empty\n"
    assert not (tmp_path / "out").exists()


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands():
    """Every ``chartloop`` command in the README's fenced blocks, with its
    backslash continuations joined."""
    readme = _readme()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.lstrip().startswith("chartloop ")]


@pytest.mark.parametrize("flags, message", [
    (["--corpus", "corpus", "--synthetic", 2], "--corpus and --synthetic cannot be combined"),
    (["--corpus", "corpus", "--templates", "structural"],
     "--templates and --per-template need --synthetic N"),
    (["--corpus", "corpus", "--per-template", 2],
     "--templates and --per-template need --synthetic N"),
    (["--per-template", 2], "--templates and --per-template need --synthetic N"),
    (["--synthetic", 2, "--templates", "structural,min_max,structural"],
     "--templates names structural twice"),
], ids=["corpus-and-synthetic", "templates-without-synthetic", "per-template-without-synthetic",
        "per-template-alone", "repeated-template"])
def test_eval_question_set_flags_that_would_do_nothing_exit_2(small_corpus_path, tmp_path, capsys,
                                                             flags, message):
    """A corpus run asks only the corpus's questions; only --synthetic reads
    --templates and --per-template, and a template named twice would ask
    each of its questions twice."""
    argv = [small_corpus_path if arg == "corpus" else arg for arg in flags]
    assert run_cli(["eval", *argv, "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names, named", [
    ("structural, arithmetic", "' arithmetic'"),
    ("Structural", "'Structural'"),
    (",", "''"),
    ("", "''"),
    ("min_max,", "''"),
])
def test_eval_templates_takes_only_exact_names(tmp_path, capsys, names, named):
    """A name is matched exactly, and an empty one names no template."""
    known = ", ".join(t.value for t in TemplateType)
    assert run_cli(["eval", "--synthetic", 2, "--templates", names,
                    "--out-dir", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"error: --templates names {named}, not one of {known}\n"
    assert not (tmp_path / "out").exists()


def test_eval_synthetic_asks_each_question_once(tmp_path):
    """Whatever --per-template asks per chart and template, no (chart,
    question) pair is asked twice."""
    for per_template in range(1, 9):
        out = tmp_path / str(per_template)
        assert run_cli(["eval", "--synthetic", 20, "--per-template", per_template, "--seed", 3,
                        "--out-dir", out]) == 0
        asked = [(r["chart_id"], r["question"]) for r in read_jsonl(out / "records.jsonl")]
        assert len(set(asked)) == len(asked)


def test_eval_per_template_far_above_what_a_chart_hosts(tmp_path):
    """A --per-template of a billion asks each question the chart hosts once,
    and so finishes as fast as that many questions."""
    table, = random_tables(0, 1)
    hosted = sum(len(fillings(table)) for fillings in _FILLINGS.values())
    assert run_cli(["eval", "--synthetic", 1, "--per-template", 10**9,
                    "--out-dir", tmp_path / "out"]) == 0
    asked = [r["question"] for r in read_jsonl(tmp_path / "out" / "records.jsonl")]
    assert len(set(asked)) == len(asked) == hosted


@pytest.mark.parametrize("source, recorded", [
    (["--corpus", "corpus"], (None, None)),
    (["--synthetic", 3], (",".join(t.value for t in TemplateType), 1)),
    (["--synthetic", 3, "--templates", "structural,min_max", "--per-template", 2],
     ("structural,min_max", 2)),
], ids=["corpus", "synthetic-defaults", "synthetic-flags"])
def test_recorded_eval_config_reruns_its_question_set(small_corpus_path, tmp_path, source,
                                                     recorded):
    """run_config.json holds --templates and --per-template as a synthetic run
    used them and null for a corpus run, and re-runs either."""
    argv = [small_corpus_path if arg == "corpus" else arg for arg in source]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(["eval", *argv, "--out-dir", first]) == 0
    config = json.loads((first / "run_config.json").read_text())
    assert (config["templates"], config["per_template"]) == recorded
    assert run_cli(["eval", "--config", first / "run_config.json", "--out-dir", second]) == 0
    for name in ("records.jsonl", "traces.jsonl", "run_config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes().replace(
            str(second).encode(), str(first).encode())


def test_readme_commands_parse():
    """A flag removed from the parser must not stay in the documented commands.
    The commands are only parsed, never run."""
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == {"datagen", "run", "eval", "export-ft", "report"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_names_every_option_and_no_other():
    """Every ``--flag`` in the README's Command line and Backends sections is
    an option of some command, and Command line names every option."""
    readme = _readme()
    named = {title: set(re.findall(r"--[a-z][a-z-]*[a-z]",
                                   readme.split(f"\n## {title}\n")[1].split("\n## ")[0]))
             for title in ("Command line", "Backends")}
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {flag for parser in commands.choices.values() for action in parser._actions
               for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    assert named["Command line"] | named["Backends"] <= options
    assert options <= named["Command line"]
