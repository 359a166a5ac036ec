import json
import json.encoder
import random
import tracemalloc
from importlib import resources

import pytest

from chartloop.controller import run_episode
from chartloop.datagen import (
    Corpus,
    CorpusError,
    example_from_trace,
    examples_from_traces,
    export_system2_sft,
    generate_system1_corpus,
    load_corpus,
    parse_annotated_examples,
    read_traces_jsonl,
    sample_eval_set,
    Segment,
    write_system1_jsonl,
    write_trace_line,
)
from chartloop import datagen, tables
from chartloop.evalkit import EvalRecord, make_record, write_record_line
from chartloop.oracle import TableOracle
from chartloop.protocol import QueryOp
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import (
    ChartTable,
    QAInstance,
    ReasoningTrace,
    Step,
    StepRole,
    TemplateType,
    Termination,
    Value,
)


def test_load_internal_json(small_corpus_path):
    corpus = load_corpus(small_corpus_path, "internal_json")
    assert len(corpus.charts) == 2
    assert corpus.issues == []
    qa = corpus.all_qa()
    assert len(qa) == 2
    assert qa[0].template_type is TemplateType.DATA_RETRIEVAL


def test_load_reports_malformed_lines_and_continues(tmp_path):
    charts = tmp_path / "charts.jsonl"
    good = {"id": "ok", "series": [{"name": "A", "color": None}],
            "x_labels": ["x"], "cells": [["1"]]}
    bad_shape = {"id": "bad", "series": [{"name": "A", "color": None}],
                 "x_labels": ["x", "y"], "cells": [["1"]]}
    lines = [json.dumps(good), "{not json", json.dumps(bad_shape)]
    charts.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = load_corpus(charts, "internal_json")
    assert [t.source_id for t in corpus.charts] == ["ok"]
    assert len(corpus.issues) == 2
    assert all("charts.jsonl" in issue for issue in corpus.issues)


def test_load_zero_charts_is_fatal(tmp_path):
    charts = tmp_path / "charts.jsonl"
    charts.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus(charts, "internal_json")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.jsonl", "internal_json")


def test_load_chartqa_like(tmp_path):
    root = tmp_path / "cq"
    (root / "tables").mkdir(parents=True)
    (root / "tables" / "chart1.csv").write_text(
        "Characteristic,Share of respondents\nVery positive,4.00\nVery negative,11.00\n",
        encoding="utf-8",
    )
    qa = [{"imgname": "chart1.png", "query": "What is the value of Very positive?",
           "label": "4.00"},
          {"imgname": "chart1.png", "query": "Is it big?", "label": "no"}]
    (root / "qa.json").write_text(json.dumps(qa), encoding="utf-8")
    corpus = load_corpus(root, "chartqa_like")
    assert len(corpus.charts) == 1
    table = corpus.charts[0]
    assert table.series[0].name == "Share of respondents"
    assert table.x_labels == ("Very positive", "Very negative")
    assert len(corpus.all_qa()) == 2


def test_load_plotqa_like(tmp_path):
    payload = {
        "charts": [{"id": "p1", "series": [{"name": "Canada", "color": "red"}],
                    "x_labels": ["1964", "1965"], "cells": [["19.75", "20.82"]]}],
        "qa": [{"chart_id": "p1", "question": "What is the value of 1965?",
                "answer": "20.82", "template_type": "data_retrieval"}],
    }
    path = tmp_path / "plotqa.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    corpus = load_corpus(path, "plotqa_like")
    assert corpus.all_qa()[0].template_type is TemplateType.DATA_RETRIEVAL


LAYOUTS = ["internal_json", "chartqa_like", "plotqa_like"]
CHART = {"id": "c1", "series": [{"name": "A", "color": None}],
         "x_labels": ["x", "y"], "cells": [["1", "2"]]}
CHART_2 = {"id": "c2", "series": [{"name": "A", "color": None}, {"name": "B", "color": None}],
           "x_labels": ["x"], "cells": [["3"], ["4"]]}
QA = {"chart_id": "c1", "question": "What is the value of x?", "answer": "1"}


def _write_layout(root, layout, charts, qa):
    """Write chart objects and QA rows (any JSON values) in ``layout``; returns
    the path to load."""
    root.mkdir()
    if layout == "plotqa_like":
        path = root / "plotqa.json"
        path.write_text(json.dumps({"charts": charts, "qa": qa}), encoding="utf-8")
        return path
    if layout == "internal_json":
        for name, rows in (("charts.jsonl", charts), ("qa.jsonl", qa)):
            text = "".join(json.dumps(row) + "\n" for row in rows)
            (root / name).write_text(text, encoding="utf-8")
        return root
    (root / "tables").mkdir()
    for chart in charts:
        rows = [["label", *(s["name"] for s in chart["series"])]]
        rows += [[x, *(row[j] for row in chart["cells"])] for j, x in enumerate(chart["x_labels"])]
        text = "".join(",".join(row) + "\n" for row in rows)
        (root / "tables" / f"{chart['id']}.csv").write_text(text, encoding="utf-8")
    (root / "qa.json").write_text(json.dumps(qa), encoding="utf-8")
    return root


@pytest.mark.parametrize("layout, charts, qa, damage, fatal", [
    *(pytest.param(layout, [CHART], [QA, [1, 2]], None, False, id=f"{layout}-qa-row-list")
      for layout in LAYOUTS),
    *(pytest.param(layout, [CHART], [QA, {"chart_id": "c1", "answer": "2"}], None, False,
                   id=f"{layout}-qa-row-without-question")
      for layout in LAYOUTS),
    *(pytest.param(layout, [CHART, {**CHART, "x_labels": ["p", "q"]}], [QA], None, False,
                   id=f"{layout}-duplicate-chart-id")
      for layout in ("internal_json", "plotqa_like")),
    pytest.param("chartqa_like", [CHART], [QA], ("tables/c2.csv", b"label,A\n\xff,1\n"), False,
                 id="chartqa_like-non-utf8-csv"),
    pytest.param("chartqa_like", [CHART], [QA],
                 ("tables/c2.csv", b"Year,A\n2000,1,9\n", "the row on line 2 has 3 cells, the header 2"),
                 False, id="chartqa_like-row-wider-than-header"),
    pytest.param("chartqa_like", [CHART], [QA],
                 ("tables/c2.csv", b"Year,A,B\n\n2001,3\n", "the row on line 3 has 2 cells, the header 3"),
                 False, id="chartqa_like-row-narrower-than-header"),
    pytest.param("chartqa_like", [CHART], [QA], ("qa.json", b'{"qa": []}'), "all_qa",
                 id="chartqa_like-qa-json-object"),
    pytest.param("plotqa_like", [CHART], [QA], ("plotqa.json", json.dumps([CHART]).encode()), "load",
                 id="plotqa_like-file-list"),
    pytest.param("internal_json", [CHART], [QA],
                 ("charts.jsonl", json.dumps(CHART).encode() + b"\n\xff\n"), "load",
                 id="internal_json-non-utf8-line"),
    pytest.param("internal_json", [CHART], [QA],
                 ("charts.jsonl", json.dumps(CHART).encode() + b"\n" + b"[" * 100_000 + b"\n"),
                 False, id="internal_json-too-deeply-nested-line"),
    pytest.param("plotqa_like", [CHART], [QA], ("plotqa.json", b"[" * 100_000), "load",
                 id="plotqa_like-too-deeply-nested-file"),
    *(pytest.param(layout, [CHART, {**CHART_2, "cells": [["3"], [None]]}], [QA], None, False,
                   id=f"{layout}-null-cell")
      for layout in ("internal_json", "plotqa_like")),
    *(pytest.param(layout, [CHART, {**CHART_2, "x_labels": [None]}], [QA], None, False,
                   id=f"{layout}-null-x-label")
      for layout in ("internal_json", "plotqa_like")),
    *(pytest.param(layout, [CHART, {**CHART_2, "series": [], "cells": []}], [QA], None, False,
                   id=f"{layout}-no-series")
      for layout in ("internal_json", "plotqa_like")),
    *(pytest.param(layout, [CHART, {**CHART_2, "x_labels": [], "cells": [[], []]}], [QA], None,
                   False, id=f"{layout}-no-x-labels")
      for layout in ("internal_json", "plotqa_like")),
])
def test_bad_rows_are_skipped_and_bad_files_are_fatal(tmp_path, layout, charts, qa, damage, fatal):
    """``damage`` overwrites a file with bytes, and may give the reason its
    dropped row is reported with.  ``fatal`` names the call that raises: a
    chart file fails the load, a QA file the first ``all_qa()``."""
    path = _write_layout(tmp_path / "corpus", layout, charts, qa)
    if damage:
        (tmp_path / "corpus" / damage[0]).write_bytes(damage[1])
    if fatal == "load":
        with pytest.raises(CorpusError, match="cannot read corpus"):
            load_corpus(path, layout)
        return
    corpus = load_corpus(path, layout)
    if fatal == "all_qa":
        assert corpus.issues == [] and [table.to_dict() for table in corpus.charts] == [CHART]
        with pytest.raises(CorpusError, match="cannot read corpus"):
            corpus.all_qa()
        return
    qas = corpus.all_qa()
    assert len(corpus.issues) == 1
    if damage and damage[2:]:
        assert corpus.issues[0] == f"{tmp_path / 'corpus' / damage[0]}: {damage[2]}"
    assert [table.to_dict() for table in corpus.charts] == [CHART]
    assert [qa.question for qa in qas] == [QA["question"]]


def _mutate(rng, value):
    """A copy of a JSON value with one random change: a key dropped, a child
    changed, or the value replaced by one of another type."""
    kind = rng.randrange(3)
    if kind == 0 and isinstance(value, dict) and value:
        dropped = rng.choice(sorted(value))
        return {k: v for k, v in value.items() if k != dropped}
    if kind == 1 and isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        return {**value, key: _mutate(rng, value[key])}
    if kind == 1 and isinstance(value, list) and value:
        index = rng.randrange(len(value))
        return value[:index] + [_mutate(rng, value[index])] + value[index + 1:]
    return rng.choice([None, 0, 2.5, True, "", "x", [], [1, 2], {}, {"id": 1}])


def _damage_bytes(rng, data):
    """Truncate, drop a line, or overwrite a byte with a structural or non-UTF-8 one."""
    kind = rng.randrange(3)
    if kind == 0:
        return data[:rng.randrange(len(data) + 1)]
    if kind == 1:
        lines = data.split(b"\n")
        del lines[rng.randrange(len(lines))]
        return b"\n".join(lines)
    index = rng.randrange(max(len(data), 1))
    return data[:index] + rng.choice([b",", b'"', b"{", b"]", b"\n", b"\xff"]) + data[index + 1:]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_load_corpus_fuzz_returns_corpus_or_corpus_error(tmp_path, layout):
    rng = random.Random(f"corpus-fuzz-{layout}")
    qa_rows = [QA, {"imgname": "c2.png", "query": "Is B above 3?", "label": "yes"},
               {"chart_id": "c2", "question": "What is the value of B?", "answer": "4",
                "template_type": "data_retrieval"}]
    for case in range(300):
        charts = [CHART, CHART_2]
        if layout != "chartqa_like":  # CSV tables are damaged as bytes below
            charts = [_mutate(rng, c) if rng.random() < 0.3 else c for c in charts]
        qa = [_mutate(rng, row) if rng.random() < 0.3 else row for row in qa_rows]
        root = tmp_path / str(case)
        path = _write_layout(root, layout, charts, qa)
        if rng.random() < 0.5:
            target = rng.choice(sorted(p for p in root.rglob("*") if p.is_file()))
            target.write_bytes(_damage_bytes(rng, target.read_bytes()))
        try:
            corpus = load_corpus(path, layout)
            corpus.all_qa()
        except CorpusError:
            continue
        assert isinstance(corpus, Corpus)
        assert all("\n" not in issue for issue in corpus.issues)


@pytest.mark.parametrize("layout", ["internal_json", "plotqa_like"])
@pytest.mark.parametrize("chart, qa, field, kind", [
    pytest.param({**CHART_2, "id": ["c2"]}, None, "id", "an array", id="id-array"),
    pytest.param({**CHART_2, "id": None}, None, "id", None, id="id-null"),
    pytest.param({**CHART_2, "series": [{"name": "A"}, {"name": {"n": 1}}]}, None,
                 "series[1].name", "an object", id="series-name-object"),
    pytest.param({**CHART_2, "series": [{"name": "A"}, {"color": "red"}]}, None,
                 "series[1].name", None, id="series-name-missing"),
    pytest.param({**CHART_2, "series": [{"name": "A", "color": True}, {"name": "B"}]}, None,
                 "series[0].color", "a boolean", id="color-boolean"),
    pytest.param({**CHART_2, "x_labels": [False]}, None, "x_labels[0]", "a boolean",
                 id="x-label-boolean"),
    pytest.param({**CHART_2, "cells": [["3"], [True]]}, None, "cells[1][0]", "a boolean",
                 id="cell-boolean"),
    pytest.param({**CHART_2, "cells": [[["3"]], ["4"]]}, None, "cells[0][0]", "an array",
                 id="cell-array"),
    pytest.param(None, {**QA, "question": ["What"]}, "question", "an array", id="question-array"),
    pytest.param(None, {**QA, "question": None, "query": {"q": "What"}}, "query", "an object",
                 id="query-object"),
    pytest.param(None, {**QA, "answer": {"v": 1}}, "answer", "an object", id="answer-object"),
    pytest.param(None, {**QA, "answer": True}, "answer", "a boolean", id="answer-boolean"),
    pytest.param(None, {**QA, "chart_id": ["c1"]}, "chart_id", "an array", id="chart-id-array"),
    pytest.param(None, {**QA, "template_type": False}, "template_type", "a boolean",
                 id="template-boolean"),
    pytest.param(None, {**QA, "template_type": []}, "template_type", "an array",
                 id="template-array"),
])
def test_non_text_in_a_text_field_is_an_issue_naming_the_field(tmp_path, layout, chart, qa,
                                                               field, kind):
    path = _write_layout(tmp_path / "corpus", layout, [CHART] + ([chart] if chart else []),
                         [QA] + ([qa] if qa else []))
    corpus = load_corpus(path, layout)
    assert [table.to_dict() for table in corpus.charts] == [CHART]
    assert [qa.question for qa in corpus.all_qa()] == [QA["question"]]
    reason = f"missing {field}" if kind is None else \
        f"{field} must be a string or a number, not {kind}"
    assert len(corpus.issues) == 1 and corpus.issues[0].endswith(f": {reason}")


@pytest.mark.parametrize("question", ["What is the value of\nx?", "What is the value of\r\nx?",
                                      "What is the value of x?\r", "\nWhat is the value of x?"])
def test_a_question_with_a_line_break_is_an_issue(tmp_path, question):
    """The prompt's ``Q: ...\\nA: `` stub cannot carry a line break, so the
    row is dropped rather than answered as another question."""
    path = _write_layout(tmp_path / "corpus", "internal_json", [CHART],
                         [QA, {**QA, "question": question}])
    corpus = load_corpus(path)
    assert [qa.question for qa in corpus.all_qa()] == [QA["question"]]
    assert len(corpus.issues) == 1
    assert corpus.issues[0].endswith("qa.jsonl:2: the question holds a line break")


@pytest.mark.parametrize("layout", ["internal_json", "plotqa_like"])
def test_numbers_in_text_fields_load_through_str(tmp_path, layout):
    chart = {"id": 7, "series": [{"name": 2019, "color": None}, {"name": 2.5, "color": 3}],
             "x_labels": [2020, 1.25], "cells": [[4, 4.5], ["5", -1]]}
    qa = [{"chart_id": 7, "question": 12, "answer": 4.5},
          {"imgname": 7, "query": "Which?", "label": 2019}]
    corpus = load_corpus(_write_layout(tmp_path / "corpus", layout, [chart], qa), layout)
    assert corpus.issues == []
    assert corpus.charts == [ChartTable.build("7", [("2019", None), ("2.5", "3")],
                                              ["2020", "1.25"], [["4", "4.5"], ["5", "-1"]])]
    assert corpus.all_qa() == [QAInstance("12", Value.from_raw("4.5"), "7"),
                               QAInstance("Which?", Value.from_raw("2019"), "7")]


@pytest.mark.parametrize("layout", ["internal_json", "plotqa_like"])
@pytest.mark.parametrize("chart, field, kind", [
    pytest.param({**CHART_2, "x_labels": "x"}, "x_labels", "a string", id="x-labels-string"),
    pytest.param({"id": "c2", "series": [{"name": "A"}], "x_labels": "xy", "cells": ["12"]},
                 "x_labels", "a string", id="x-labels-and-row-strings"),
    pytest.param({**CHART_2, "cells": ["3", ["4"]]}, "cells[0]", "a string", id="cell-row-string"),
    pytest.param({**CHART_2, "cells": "34"}, "cells", "a string", id="cells-string"),
    pytest.param({**CHART_2, "series": "AB"}, "series", "a string", id="series-string"),
    pytest.param({**CHART_2, "x_labels": {"x": 1}}, "x_labels", "an object", id="x-labels-object"),
    pytest.param({**CHART_2, "cells": 34}, "cells", "a number", id="cells-number"),
    pytest.param({**CHART_2, "series": None}, "series", None, id="series-null"),
])
def test_non_array_in_an_array_field_is_an_issue_naming_the_field(tmp_path, layout, chart,
                                                                  field, kind):
    corpus = load_corpus(_write_layout(tmp_path / "corpus", layout, [CHART, chart], [QA]), layout)
    assert [table.to_dict() for table in corpus.charts] == [CHART]
    reason = f"missing {field}" if kind is None else f"{field} must be an array, not {kind}"
    assert len(corpus.issues) == 1 and corpus.issues[0].endswith(f": {reason}")


@pytest.mark.parametrize("layout", ["internal_json", "plotqa_like"])
def test_only_null_or_empty_template_type_means_no_template(tmp_path, layout):
    qa = [{**QA, "template_type": None}, {**QA, "template_type": ""},
          {**QA, "template_type": "structural"}, {**QA, "template_type": 0}]
    corpus = load_corpus(_write_layout(tmp_path / "corpus", layout, [CHART], qa), layout)
    assert [qa.template_type for qa in corpus.all_qa()] == [None, None, TemplateType.STRUCTURAL]
    assert len(corpus.issues) == 1
    assert corpus.issues[0].endswith(": '0' is not a valid TemplateType")


def _held_bytes(load):
    """What ``load()`` returns, and the bytes it allocated and still holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_load_holds_each_distinct_text_once_in_slotted_records(tmp_path):
    """300 seeded charts with one question per template.  On Python 3.11 a
    load holds about 2,240 bytes per chart and 200 per QA row; with a copy of
    every text per row and an instance dict per record it held 3,210 and 340."""
    tables = random_tables(0, 300)
    rows = []
    for table in tables:
        for template in TemplateType:
            try:
                generated = gen_questions(table, template, 0, n=1)
            except SkippedTemplate:
                continue
            rows += [{"question": qa.question, "answer": qa.gold.raw, "chart_id": qa.chart_id,
                      "template_type": template.value} for qa, _ in generated]
    charts_only = _write_layout(tmp_path / "charts", "internal_json",
                                [table.to_dict() for table in tables], [])
    path = _write_layout(tmp_path / "corpus", "internal_json",
                         [table.to_dict() for table in tables], rows)

    def load_all(where):
        corpus = load_corpus(where)
        corpus.all_qa()
        return corpus

    load_all(path)  # let one-time caches fill before measuring
    _, chart_bytes = _held_bytes(lambda: load_corpus(charts_only))
    corpus, all_bytes = _held_bytes(lambda: load_all(path))
    assert corpus.issues == [] and len(corpus.all_qa()) == len(rows) > 1500
    assert chart_bytes / len(tables) < 2700
    assert (all_bytes - chart_bytes) / len(rows) < 270

    index = corpus.chart_index()
    assert all(qa.chart_id is index[qa.chart_id].source_id for qa in corpus.all_qa())
    first: dict[str, str] = {}
    for table in corpus.charts:
        texts = [*table.x_labels, *(s.name for s in table.series),
                 *(s.color for s in table.series if s.color)]
        assert all(first.setdefault(text, text) is text for text in texts)
    assert len(first) < sum(len(t.x_labels) for t in corpus.charts) / 10  # shared, not unique

    table, qa = corpus.charts[0], corpus.all_qa()[0]
    trace = ReasoningTrace((Step(StepRole.CONCLUSION, "1"),), Value.from_raw("1"),
                           Termination.CONCLUSION)
    record = EvalRecord(qa, qa.gold, True, 2, "t")
    for obj in (table, table.series[0], table.cells[0][0], qa, trace, trace.steps[0], record):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def _loaded_values(corpus):
    return [cell for table in corpus.charts for row in table.cells for cell in row] + \
        [qa.gold for qa in corpus.all_qa()]


def test_a_repeated_token_loads_as_one_value(tmp_path):
    charts = [{**CHART, "cells": [["7", "2"]]}, {**CHART_2, "cells": [["7"], ["7"]]}]
    qa = [{**QA, "answer": "7"}, {"chart_id": "c2", "question": "Which?", "answer": "2"}]
    corpus = load_corpus(_write_layout(tmp_path / "corpus", "internal_json", charts, qa))
    first, second = corpus.charts
    sevens = [first.cells[0][0], second.cells[0][0], second.cells[1][0], corpus.all_qa()[0].gold]
    assert all(value is sevens[0] for value in sevens)
    assert corpus.all_qa()[1].gold is first.cells[0][1]


def test_two_loads_share_no_value(tmp_path):
    path = _write_layout(tmp_path / "corpus", "internal_json", [CHART, CHART_2],
                         [QA, {**QA, "answer": "2"}])
    first, second = load_corpus(path), load_corpus(path)
    assert first.charts == second.charts and first.all_qa() == second.all_qa()
    assert not {id(v) for v in _loaded_values(first)} & {id(v) for v in _loaded_values(second)}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_qa_rows_are_parsed_on_the_first_all_qa_call_only(tmp_path, layout, monkeypatch):
    """The charts and their index parse no QA row.  The first ``all_qa()``
    parses each row once and groups the rows by chart, in chart order; a
    later call returns the same list and parses nothing."""
    parsed = []
    parse = datagen._qa_from_obj
    monkeypatch.setattr(datagen, "_qa_from_obj",
                        lambda obj, *maps: parsed.append(obj) or parse(obj, *maps))
    rows = [{"chart_id": "c2", "question": "What is the value of B?", "answer": "4"}, QA,
            {"chart_id": "c2", "question": "What is the value of A?", "answer": "3"}]
    path = _write_layout(tmp_path / "corpus", layout, [CHART, CHART_2], rows)
    corpus = load_corpus(path, layout)
    assert [table.source_id for table in corpus.charts] == ["c1", "c2"]
    assert list(corpus.chart_index()) == ["c1", "c2"]
    assert parsed == []
    first = corpus.all_qa()
    assert len(parsed) == len(rows)
    assert [qa.question for qa in first] == [rows[i]["question"] for i in (1, 0, 2)]
    assert corpus.all_qa() is first and len(parsed) == len(rows)


def test_loaded_values_equal_per_row_parsing(tmp_path):
    """Every table and QA row loads as it would with one ``Value.from_raw`` per
    token; the memo conflates no two tokens that ``from_raw`` keeps apart."""
    tokens = ["7", " 7", 7, "7.0", "Yes", "yes"]
    charts = [{"id": "tokens", "series": [{"name": "A", "color": None}],
               "x_labels": [f"x{i}" for i in range(len(tokens))], "cells": [tokens]}]
    rows = [{"chart_id": "tokens", "question": f"Q{i}?", "answer": token}
            for i, token in enumerate(tokens)]
    for table in random_tables(3, 30):
        charts.append(table.to_dict())
        rows += [{"chart_id": table.source_id, "question": f"{table.source_id} {x}?",
                  "answer": cell.raw}
                 for row in table.cells for x, cell in zip(table.x_labels, row)]
    corpus = load_corpus(_write_layout(tmp_path / "corpus", "internal_json", charts, rows))
    assert corpus.issues == []
    assert corpus.charts == [ChartTable.build(c["id"], [(s["name"], s["color"]) for s in c["series"]],
                                              c["x_labels"], c["cells"]) for c in charts]
    assert [qa.gold for qa in corpus.all_qa()] == \
        [Value.from_raw(str(row["answer"])) for row in rows]
    loaded = corpus.charts[0].cells[0]
    assert loaded == tuple(Value.from_raw(str(token)) for token in tokens)
    assert len(set(loaded)) == 5  # "7" and 7 print alike; the rest stay apart


def test_sample_eval_set_deterministic():
    instances = [
        QAInstance(f"q{i}", Value.from_raw(str(i)), f"c{i}") for i in range(100)
    ]
    first = sample_eval_set(instances, 10, seed=7)
    second = sample_eval_set(instances, 10, seed=7)
    assert first == second
    assert len(set(qa.question for qa in first)) == 10
    assert sample_eval_set(instances, 100, seed=1) != instances or True  # same set
    assert sorted(q.question for q in sample_eval_set(instances, 100, seed=1)) == sorted(
        q.question for q in instances
    )
    with pytest.raises(ValueError):
        sample_eval_set(instances, 101, seed=1)


def test_sample_eval_set_distinct_from_large_pool():
    sample = sample_eval_set(range(2_000_000), 10_000, seed=13)
    assert len(sample) == 10_000
    assert len(set(sample)) == 10_000


def test_sample_eval_set_is_roughly_uniform():
    instances = [QAInstance(f"q{i}", Value.from_raw("1"), "c") for i in range(10)]
    hits = [0] * 10
    n_seeds = 10_000
    for seed in range(n_seeds):
        for qa in sample_eval_set(instances, 5, seed=seed):
            hits[int(qa.question[1:])] += 1
    for count in hits:
        assert abs(count / n_seeds - 0.5) < 0.02


def test_generate_counts_formula(small_corpus_path):
    corpus = load_corpus(small_corpus_path)
    pairs, manifest = generate_system1_corpus(corpus.charts, seed=3)
    assert manifest["n_charts"] == 2
    assert manifest["n_describe"] == 2
    assert manifest["n_point"] == 10   # 2x3 cells + 1x4 cells
    assert manifest["n_group"] == 6    # (2 series + 3 x-labels) + 1 single-series group
    assert manifest["seed"] == 3
    assert len(pairs) == 2 + 10 + 6


def test_generated_counts_on_random_charts():
    charts = random_tables(41, 12)
    pairs, manifest = generate_system1_corpus(charts)
    expected_points = sum(len(t.series) * len(t.x_labels) for t in charts)
    expected_groups = sum(
        (len(t.series) + len(t.x_labels)) if len(t.series) > 1 else 1 for t in charts
    )
    assert manifest["n_describe"] == len(charts)
    assert manifest["n_point"] == expected_points
    assert manifest["n_group"] == expected_groups
    assert len(pairs) == manifest["n_describe"] + manifest["n_point"] + manifest["n_group"]


def test_pairs_reverify_against_oracle(line_charts):
    oracle = TableOracle(line_charts)
    pairs, _ = generate_system1_corpus(line_charts)
    for pair in pairs:
        assert oracle.read(pair.chart_id, pair.query) == pair.answer, pair.query


def test_single_series_pairs_use_entity_only_form(small_corpus_path):
    corpus = load_corpus(small_corpus_path)
    pairs, _ = generate_system1_corpus(corpus.charts)
    solo = [p for p in pairs if p.chart_id == "solo-chart"]
    points = [p for p in solo if p.op.op is QueryOp.EXTRACT_POINT]
    assert all(" BY " not in p.query for p in points)
    duo_points = [p for p in pairs if p.chart_id == "pair-chart"
                  and p.op.op is QueryOp.EXTRACT_POINT]
    assert all(" BY " in p.query for p in duo_points)


def test_describe_pair_answer(income):
    pairs, _ = generate_system1_corpus([income])
    describe_pair = pairs[0]
    assert describe_pair.query == "Let's describe the figure."
    assert describe_pair.answer == (
        "The figure shows the data of: Income in million U.S. dollars (blue). "
        "The x-axis shows: Taylor Swift | Kylie Jenner | Kanye West | Lionel Messi | "
        "Ed Sheeran | Cristiano Ronaldo | Neymar | The Eagles | Dr. Phil McGraw | "
        "Canelo Alvarez."
    )


def test_system1_jsonl_schema(tmp_path, small_corpus_path):
    corpus = load_corpus(small_corpus_path)
    pairs, _ = generate_system1_corpus(corpus.charts)
    out = tmp_path / "system1.jsonl"
    write_system1_jsonl(pairs, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(pairs)
    record = json.loads(lines[0])
    assert list(record) == ["query", "answer", "chart_id", "loss_span"]
    assert record["loss_span"] == "answer"


def test_empty_pair_list_writes_empty_file(tmp_path):
    out = tmp_path / "empty.jsonl"
    write_system1_jsonl([], out)
    assert out.read_text(encoding="utf-8") == ""


def _annotated() -> list:
    """The shipped hand-annotated examples, read as the package ships them."""
    return parse_annotated_examples(resources.files("chartloop.data").joinpath(
        "annotated_examples.txt").read_text(encoding="utf-8"))


def test_annotated_examples_parse():
    examples = _annotated()
    assert len(examples) == 2
    first = examples[0]
    masked = [s.text for s in first.segments if s.masked]
    unmasked = [s.text for s in first.segments if not s.masked]
    assert masked[0].startswith("Q: In how many years")
    assert all(t.startswith(("The figure shows", "The data is")) for t in masked[1:])
    assert unmasked[0] == "A: Let's describe the figure.\n"
    assert unmasked[-1] == "The values that are greater than 851 are [853]. So the answer is 1."


def test_mask_partition_reconstructs_source():
    for example in _annotated():
        source = example.source_text()
        rebuilt = "".join(s.text for s in example.segments)
        assert rebuilt == source
        masked_total = sum(len(s.text) for s in example.segments if s.masked)
        unmasked_total = sum(len(s.text) for s in example.segments if not s.masked)
        assert masked_total + unmasked_total == len(source)


def test_tagged_rendering_round_trips():
    examples = _annotated()
    rendered = "\n----\n".join(e.rendered_tagged() for e in examples)
    assert parse_annotated_examples(rendered) == examples


def test_annotation_lines_end_only_at_newline():
    """As in every protocol reader, only "\n" ends a line and a trailing "\r"
    is dropped: the other breaks ``str.splitlines`` knows stay inside a
    tagged line, so its question stays masked, and a CRLF file parses as
    its LF form, separator lines included."""
    question = "Q: What is the value\u2028of\x85x\x0b\x0c\x1c\x1d\x1e? "
    text = f"[INST] {question} [/INST]\nA: So the answer is 1.\n----\n[INST] Q: y? [/INST]\nA: 2"
    first, second = parse_annotated_examples(text)
    assert first.segments == (Segment(question + "\n", True),
                              Segment("A: So the answer is 1.", False))
    assert second.segments == (Segment("Q: y?\n", True), Segment("A: 2", False))
    assert parse_annotated_examples(text.replace("\n", "\r\n")) == [first, second]


def test_example_from_trace_masks_reader_answers(costa_rica):
    question = "Across all years, what is the minimum pupil-teacher ratio in Costa Rica?"
    trace = run_episode(question, "pupil-teacher", SymbolicReasoner(),
                        TableOracle([costa_rica]))
    example = example_from_trace(trace, question, "pupil-teacher")
    assert example.segments[0].masked and example.segments[0].text == f"Q: {question}\n"
    roles = [s.role for s in trace.steps]
    for segment, role in zip(example.segments[1:], roles):
        assert segment.masked == (role is StepRole.READER_ANSWER)
    assert example.source_text().endswith("So the answer is 14.92.")


def test_trace_without_conclusion_is_skipped():
    trace = ReasoningTrace(
        (Step(StepRole.REASONER_QUERY, "Let's describe the figure."),
         Step(StepRole.READER_ANSWER, "The figure shows the data of: A. The x-axis shows: x.")),
        None,
        Termination.MAX_STEPS,
    )
    with pytest.raises(ValueError):
        example_from_trace(trace, "q", "c")
    examples, skipped = examples_from_traces([(trace, "q", "c")])
    assert examples == [] and skipped == 1


def test_export_system2_sft(tmp_path):
    examples = _annotated()
    out = tmp_path / "system2.jsonl"
    count = export_system2_sft(examples, out, format_tagged=True)
    assert count == 2
    lines = out.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert {s["masked"] for s in first["segments"]} == {True, False}
    assert first["rendered"].startswith("[INST] Q: In how many years")
    plain = tmp_path / "plain.jsonl"
    export_system2_sft(examples, plain, format_tagged=False)
    assert "rendered" not in json.loads(plain.read_text(encoding="utf-8").splitlines()[0])


def test_trace_lines_take_text_fields_by_the_corpus_rule(tmp_path):
    trace = ReasoningTrace((Step(StepRole.CONCLUSION, "So the answer is 7."),),
                           Value.from_raw("7"), Termination.CONCLUSION)
    record = {"trace_ref": "episode-0", "question": "q", "chart_id": "c", "final": "7",
              "episodes": [trace.to_dict()]}
    path = tmp_path / "traces.jsonl"
    without_episodes = {key: value for key, value in record.items() if key != "episodes"}
    path.write_text("".join(json.dumps(line) + "\n" for line in [
        {**record, "question": None}, {**record, "chart_id": ["c"]},
        {**record, "question": 12}, record, without_episodes,
        {**record, "episodes": None}, {**record, "episodes": "ab"}]), encoding="utf-8")
    triples, issues = read_traces_jsonl(path)
    assert triples == [(trace, "12", "c"), (trace, "q", "c")]
    assert issues == [f"{path}:1: missing question",
                      f"{path}:2: chart_id must be a string or a number, not an array",
                      f"{path}:5: missing episodes",
                      f"{path}:6: missing episodes",
                      f"{path}:7: episodes must be an array, not a string"]


def test_trace_steps_and_finals_take_text_fields_by_the_corpus_rule(tmp_path):
    steps = [{"role": "reasoner_query", "text": "Let's describe the figure."},
             {"role": "reader_answer", "text": "The figure shows the data of: A."},
             {"role": "conclusion", "text": "So the answer is 7."}]
    episode = {"steps": steps, "final": "7", "terminated_by": "conclusion"}
    record = {"trace_ref": "episode-0", "question": "q", "chart_id": "c", "final": "7"}
    episodes = [
        {**episode, "steps": [{**steps[0], "text": None}, *steps[1:]]},
        {**episode, "steps": [steps[0], {**steps[1], "text": ["x"]}, steps[2]]},
        {**episode, "final": ["7"]},
        {**episode, "final": 7},
    ]
    lines = [[e] for e in episodes] + [
        # A --sc line: the issue names the episode that breaks a rule.
        [episode, {**episode, "steps": [{**steps[0], "text": None}, *steps[1:]]}],
        [episode, {**episode, "steps": steps[1:]}],
        # A missing required key reads as a null field does.
        [{key: value for key, value in episode.items() if key != "steps"}],
        [{key: value for key, value in episode.items() if key != "terminated_by"}],
        [{**episode, "steps": "ab"}],
    ]
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps({**record, "episodes": e}) + "\n" for e in lines),
                    encoding="utf-8")
    triples, issues = read_traces_jsonl(path)
    assert issues == [
        f"{path}:1: episodes[0]: missing steps[0].text",
        f"{path}:2: episodes[0]: steps[1].text must be a string or a number, not an array",
        f"{path}:3: episodes[0]: final must be a string or a number, not an array",
        f"{path}:5: episodes[1]: missing steps[0].text",
        f"{path}:6: episodes[1]: step 0: reader answer not preceded by a reasoner query",
        f"{path}:7: episodes[0]: missing steps",
        f"{path}:8: episodes[0]: missing terminated_by",
        f"{path}:9: episodes[0]: steps must be an array, not a string",
    ]
    assert [trace.final for trace, _, _ in triples] == [Value.from_raw("7")]


def test_a_bad_role_or_termination_is_a_skipped_line(tmp_path):
    """Roles and terminations are read by value through a dict; a value that
    names no member, or is not a string, still skips its line with the
    Enum's own message."""
    step = {"role": "conclusion", "text": "So the answer is 7."}
    episode = {"steps": [step], "final": "7", "terminated_by": "conclusion"}
    record = {"trace_ref": "episode-0", "question": "q", "chart_id": "c", "final": "7"}
    episodes = [{**episode, "steps": [{**step, "role": "reasoner"}]},
                {**episode, "steps": [{**step, "role": ["conclusion"]}]},
                {**episode, "terminated_by": "done"},
                {**episode, "terminated_by": 0},
                episode]
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps({**record, "episodes": [e]}) + "\n" for e in episodes),
                    encoding="utf-8")
    triples, issues = read_traces_jsonl(path)
    assert issues == [
        f"{path}:1: episodes[0]: 'reasoner' is not a valid StepRole",
        f"{path}:2: episodes[0]: ['conclusion'] is not a valid StepRole",
        f"{path}:3: episodes[0]: 'done' is not a valid Termination",
        f"{path}:4: episodes[0]: 0 is not a valid Termination",
    ]
    [(trace, _, _)] = triples
    assert trace.steps[0].role is StepRole.CONCLUSION
    assert trace.terminated_by is Termination.CONCLUSION


def test_generation_is_reproducible(small_corpus_path, tmp_path):
    corpus = load_corpus(small_corpus_path)
    first, _ = generate_system1_corpus(corpus.charts, seed=9)
    second, _ = generate_system1_corpus(corpus.charts, seed=9)
    assert first == second
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_system1_jsonl(first, out1)
    write_system1_jsonl(second, out2)
    assert out1.read_bytes() == out2.read_bytes()


# Text a JSON writer must escape or keep as it is: non-ASCII (kept), the line
# separator U+2028 (kept), quotes, backslashes and control characters (escaped).
_AWKWARD = 'Caf\u00e9 "\u00dc" \\ \u6771\u4eac\u2028\x00\x07\t\x1f\x7f'


def _written_records(tmp_path) -> list[str]:
    """One line of each record shape the package writes, every text field
    holding ``_AWKWARD``: a System-1 pair, a trace line of three (``--sc 3``)
    episodes, an eval record and a System-2 example with ``rendered``."""
    chart = ChartTable.build(f"chart {_AWKWARD}", [(f"A {_AWKWARD}", "blue"), ("B", None)],
                             ["2019", f"x {_AWKWARD}"], [["1", _AWKWARD], ["3", "4"]])
    pairs, _ = generate_system1_corpus([chart])
    write_system1_jsonl(pairs, tmp_path / "system1.jsonl")
    question = f"What is the value of A {_AWKWARD} in 2019?"
    final = Value.from_raw(_AWKWARD)
    trace = ReasoningTrace((Step(StepRole.REASONER_QUERY, f"Let's extract the data of A {_AWKWARD}."),
                            Step(StepRole.READER_ANSWER, f"The data is 1 in 2019, {_AWKWARD} in x."),
                            Step(StepRole.CONCLUSION, f"So the answer is {_AWKWARD}.")),
                           final, Termination.CONCLUSION)
    with open(tmp_path / "traces.jsonl", "w", encoding="utf-8") as handle:
        write_trace_line(handle, "episode-0", question, chart.source_id, final, [trace] * 3)
    qa = QAInstance(question, final, chart.source_id, TemplateType.DATA_RETRIEVAL)
    with open(tmp_path / "records.jsonl", "w", encoding="utf-8") as handle:
        write_record_line(handle, make_record(qa, final, 4, "episode-0"))
    export_system2_sft([example_from_trace(trace, question, chart.source_id)],
                       tmp_path / "system2.jsonl", format_tagged=True)
    # Split at line feeds only: str.splitlines would also split at U+2028.
    return [line + "\n" for name in ("system1.jsonl", "traces.jsonl", "records.jsonl", "system2.jsonl")
            for line in (tmp_path / name).read_text(encoding="utf-8").split("\n")[:-1]]


def test_every_record_shape_is_written_as_json_dumps_writes_it(tmp_path, monkeypatch):
    """``encode_json`` and its fallback, built without the C encoder, give
    the bytes of ``json.dumps(obj, ensure_ascii=False)`` for every record
    shape the package writes."""
    lines = _written_records(tmp_path)
    assert len(lines) == 9 + 1 + 1 + 1  # a 2x2 chart makes 9 pairs
    assert all("\u2028" in line and "\\u0000" in line for line in lines)  # one kept, one escaped
    objects = [json.loads(line) for line in lines]
    assert lines == [json.dumps(obj, ensure_ascii=False) + "\n" for obj in objects]
    assert lines == [tables.encode_json(obj) + "\n" for obj in objects]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = tables._json_encoder()
    assert isinstance(fallback.__self__, json.JSONEncoder)
    assert lines == [fallback(obj) + "\n" for obj in objects]
