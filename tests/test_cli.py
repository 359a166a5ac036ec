import json
import os
import sys

import pytest

from chartloop.cli import main


def run_cli(args):
    return main([str(a) for a in args])


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
    trace = json.loads((out / "trace.json").read_text())
    assert trace["final"] == "11.0"
    assert trace["question"] == "What is the value of Alpha in 2002?"


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
    # The vote runs over normalized finals, so "7.0" canonicalizes to "7".
    assert "Voted answer: 7" in capsys.readouterr().out
    payload = json.loads((out / "trace.json").read_text())
    assert len(payload["episodes"]) == 3
    assert payload["final"] == "7"


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
    trace = json.loads((out / "trace.json").read_text())
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


def test_export_ft_trace_chain(small_corpus_path, tmp_path):
    run_out = tmp_path / "run"
    assert run_cli(["run", "--question", "What is the value of Q3?",
                    "--chart", "solo-chart", "--corpus", small_corpus_path,
                    "--out-dir", run_out]) == 0
    traces_dir = tmp_path / "traces"
    traces_dir.mkdir()
    (traces_dir / "t0.json").write_text((run_out / "trace.json").read_text())
    out = tmp_path / "ft"
    assert run_cli(["export-ft", "--traces", traces_dir, "--out-dir", out]) == 0
    record = json.loads((out / "system2.jsonl").read_text().splitlines()[0])
    texts = "".join(s["text"] for s in record["segments"])
    assert texts.startswith("Q: What is the value of Q3?\n")


def test_export_ft_empty_dir_exits_4(tmp_path):
    empty = tmp_path / "traces"
    empty.mkdir()
    assert run_cli(["export-ft", "--traces", empty, "--out-dir", tmp_path / "ft"]) == 4


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
