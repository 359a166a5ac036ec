import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chartloop
from chartloop.cli import main
from chartloop.datagen import example_from_trace, load_corpus
from chartloop.tables import ReasoningTrace


def run_cli(args):
    return main([str(a) for a in args])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


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
                    "--backend", "scripted", "--script", script, "--out-dir", out])
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
                    "--backend", "scripted", "--script", script,
                    "--out-dir", tmp_path / "run"])
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
    assert len(record["episodes"]) == 3
    assert record["final"] == "7.0"


def test_run_symbolic_closed_loop(small_corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--backend", "symbolic", "--out-dir", out])
    assert code == 0
    assert "Final answer: 7.0" in capsys.readouterr().out


def test_run_no_describe_has_no_describe_query(small_corpus_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--no-describe", "--out-dir", out])
    assert code == 0
    [record] = read_jsonl(out / "traces.jsonl")
    trace = record["episodes"][0]
    texts = [s["text"] for s in trace["steps"]]
    assert all("describe the figure" not in t for t in texts)
    assert trace["final"] == "7.0"


def test_run_backend_unreachable_exits_3(small_corpus_path, tmp_path):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--backend", "http", "--reasoner-url",
                    "http://127.0.0.1:9/complete", "--out-dir", out])
    assert code == 3


def test_http_model_and_key_recorded(small_corpus_path, tmp_path):
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "q", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--backend", "http",
                    "--reasoner-url", "http://127.0.0.1:9/complete",
                    "--model", "local-7b", "--api-key", "tok",
                    "--out-dir", out])
    assert code == 3  # backend is unreachable, but the flags must be accepted
    config = json.loads((out / "run_config.json").read_text())
    assert config["model"] == "local-7b"
    assert config["api_key"] == "tok"


def test_run_http_without_url_exits_2(small_corpus_path, tmp_path):
    code = run_cli(["run", "--question", "q", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--backend", "http",
                    "--out-dir", tmp_path / "run"])
    assert code == 2


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
    assert (out / "records.csv").exists()
    assert "overall accuracy: 1.0000" in capsys.readouterr().out


def test_eval_synthetic_records_flags(tmp_path):
    out = tmp_path / "eval"
    code = run_cli(["eval", "--synthetic", 3, "--out-dir", out, "--seed", 11,
                    "--sc", 5, "--temperature", 0.4, "--workers", 2])
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


def test_eval_requires_some_input(tmp_path):
    assert run_cli(["eval", "--out-dir", tmp_path / "eval"]) == 2


def test_export_ft_annotations(tmp_path):
    from chartloop.prompts import annotated_examples_text

    annotations = tmp_path / "annotated.txt"
    annotations.write_text(annotated_examples_text(), encoding="utf-8")
    out = tmp_path / "ft"
    code = run_cli(["export-ft", "--annotations", annotations, "--tagged",
                    "--out-dir", out])
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


def test_run_sc_traces_export_one_example_per_episode(small_corpus_path, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert run_cli(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--sc", 3, "--out-dir", run_out]) == 0
    out = tmp_path / "ft"
    assert run_cli(["export-ft", "--traces", run_out / "traces.jsonl", "--out-dir", out]) == 0
    assert "examples=3 skipped=0 " in capsys.readouterr().out
    assert len(read_jsonl(out / "system2.jsonl")) == 3


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


@pytest.mark.parametrize("sc", [1, 3])
def test_eval_records_bytes_are_pinned(tmp_path, sc):
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 20, "--per-template", 2, "--seed", 0, "--sc", sc,
                    "--out-dir", out]) == 0
    digest = hashlib.sha256((out / "records.jsonl").read_bytes()).hexdigest()
    assert digest == "0c3540dad9a16ad33b8e961d4c4442f1be89ea65b36bd4bfad2ea8a37bc061f4"


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
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "no-such-chart", "--corpus", small_corpus_path,
                    "--prompt-style", style, "--out-dir", tmp_path / "run"])
    assert code == 2
    assert capsys.readouterr().err == "error: chart 'no-such-chart' not found\n"
    assert not (tmp_path / "run").exists()


def test_run_scripted_with_self_consistency_exits_2(small_corpus_path, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(["The value is 7.0. So the answer is 7.0."]),
                      encoding="utf-8")
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--backend", "scripted", "--script", script, "--sc", 3,
                    "--out-dir", tmp_path / "run"])
    assert code == 2
    assert not (tmp_path / "run" / "run_config.json").exists()


@pytest.mark.parametrize("backend_flags", [
    ["--backend", "http", "--reasoner-url", "http://127.0.0.1:9/complete"],
    ["--backend", "scripted", "--script", "unused.json"],
])
def test_no_describe_needs_symbolic_backend(small_corpus_path, tmp_path, backend_flags):
    code = run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--no-describe", *backend_flags, "--out-dir", tmp_path / "run"])
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
def test_temperature_follows_sc_unless_given(tmp_path, monkeypatch, flags, used):
    import chartloop.cli as cli

    seen = []
    original = cli.run_self_consistency

    def spy(question, chart, reasoner, reader, config, sc, **kwargs):
        seen.append(sc.temperature)
        return original(question, chart, reasoner, reader, config, sc, **kwargs)

    monkeypatch.setattr(cli, "run_self_consistency", spy)
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 1, *flags, "--out-dir", out]) == 0
    assert seen and set(seen) == {used}
    assert json.loads((out / "run_config.json").read_text())["temperature"] == used


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


def test_config_strings_take_the_flag_type(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"sc": "3", "temperature": "0.2", "command": "eval"}', encoding="utf-8")
    out = tmp_path / "eval"
    assert run_cli(["eval", "--synthetic", 1, "--config", config, "--out-dir", out]) == 0
    recorded = json.loads((out / "run_config.json").read_text())
    assert (recorded["sc"], recorded["temperature"]) == (3, 0.2)


@pytest.mark.parametrize("argv", [
    ["datagen", "--corpus", "c", "--sc", 4],
    ["export-ft", "--annotations", "a.txt", "--backend", "http"],
    ["report", "--records", "r.jsonl", "--no-describe"],
    ["run", "--question", "q", "--chart", "c", "--workers", 2],
])
def test_commands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exited:
        run_cli(argv)
    assert exited.value.code == 2


@pytest.mark.parametrize("sc", [1, 3])
def test_dead_backend_exits_3(small_corpus_path, tmp_path, sc):
    dead = ["--backend", "http", "--reasoner-url", "http://127.0.0.1:9/complete", "--sc", sc]
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
                    "--backend", "scripted", "--script", script, "--out-dir", tmp_path / "run"])
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


@pytest.mark.parametrize("content", [
    None, "[1, 2]\n", '{"question": "q", "chart_id": "c"}\n',
    pytest.param("[" * 100_000 + "\n", id="too-deeply-nested"),
    pytest.param(json.dumps({**_RECORD, "correct": "false"}) + "\n", id="correct-is-a-string"),
    pytest.param(json.dumps({**_RECORD, "table_length": -1}) + "\n", id="negative-table-length"),
])
def test_report_bad_records_exit_2(tmp_path, capsys, content):
    records = tmp_path / "records.jsonl"
    if content is not None:
        records.write_text(content, encoding="utf-8")
    assert run_cli(["report", "--records", records, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if content is not None:
        assert err.startswith(f"error: {records}:1: ")


@pytest.mark.parametrize("content", [
    "[1, 2]", '{"steps": "abc", "final": null}',
    pytest.param("[" * 100_000, id="too-deeply-nested"),
    pytest.param(json.dumps({"trace_ref": "episode-0", "question": "q", "chart_id": "c",
                             "final": None, "episodes": [{
                                 "steps": [{"role": "reader_answer", "text": "x"}],
                                 "final": None, "terminated_by": "max_steps"}]}),
                 id="episode-fails-validate_trace"),
])
def test_export_ft_skips_malformed_trace(tmp_path, capsys, content):
    bad = tmp_path / "traces.jsonl"
    bad.write_text(content, encoding="utf-8")
    assert run_cli(["export-ft", "--traces", bad, "--out-dir", tmp_path / "ft"]) == 4
    warning = capsys.readouterr().err.splitlines()[0]
    assert warning.startswith(f"warning: {bad}:1: ")


@pytest.mark.parametrize("content", [None, "5", "[1, 2]", '{"first": "x"}', "{not json",
                                     '"abc"', '{"0": 1}',
                                     pytest.param("[" * 100_000, id="too-deeply-nested")])
def test_bad_script_exits_2_before_run_config(small_corpus_path, tmp_path, capsys, content):
    script = tmp_path / "script.json"
    if content is not None:
        script.write_text(content, encoding="utf-8")
    out = tmp_path / "run"
    code = run_cli(["run", "--question", "What is the value of Q3?", "--chart", "solo-chart",
                    "--corpus", small_corpus_path, "--backend", "scripted", "--script", script,
                    "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "run_config.json").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--synthetic", 1, "--config", "deep.json"],
    ["report", "--records", "."],
    ["export-ft", "--annotations", "."],
    ["export-ft", "--traces", "."],
    ["export-ft", "--traces", "missing.jsonl"],
    ["export-ft", "--traces", "latin1.jsonl"],
])
def test_unreadable_input_exits_2_with_one_line(tmp_path, capsys, argv):
    """Too deeply nested JSON, a directory where a file belongs, a missing
    file and a file that is not UTF-8."""
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    (tmp_path / "latin1.jsonl").write_bytes(b'{"question": "caf\xe9"}\n')
    argv = [tmp_path / arg if arg in ("deep.json", ".", "missing.jsonl", "latin1.jsonl") else arg
            for arg in argv]
    assert run_cli([*argv, "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_scripted_eval_replays_the_script_for_each_question(small_corpus_path, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"0": "The value is 7.0. So the answer is 7.0."}),
                      encoding="utf-8")
    out = tmp_path / "eval"
    assert run_cli(["eval", "--corpus", small_corpus_path, "--backend", "scripted",
                    "--script", script, "--out-dir", out]) == 0
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
    ["run", "--question", "q", "--chart", "c", "--backend", "http"],
    ["eval", "--synthetic", 2, "--backend", "http", "--reasoner-url", "foo"],
    ["eval", "--synthetic", 2, "--reader-url", "file:///dev/null"],
    ["run", "--question", "q", "--chart", "c", "--backend", "http",
     "--reasoner-url", "file:///dev/null"],
    ["run", "--question", "What is the value of x?", "--chart", "nope", "--corpus", "corpus"],
    ["run", "--question", "What is the value of x?", "--chart", "nope", "--corpus", "corpus",
     "--reader-url", "http://127.0.0.1:9", "--prompt-style", "deplot1"],
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
