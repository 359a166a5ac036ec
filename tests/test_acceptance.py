"""Acceptance criteria, one test per criterion.

Each test prints a single "[acceptance] <criterion>: PASS|FAIL" line; run
with `pytest -s tests/test_acceptance.py` to see them live.
"""

import random
import time
from decimal import Decimal
from importlib import resources

from chartloop.controller import EpisodeConfig, run_episode
from chartloop.datagen import generate_system1_corpus, parse_annotated_examples
from chartloop.evalkit import majority_vote, relaxed_match
from chartloop.oracle import TableOracle
from chartloop.prompts import (
    PromptStyle,
    default_step_exemplars,
    shipped_prompt_text,
)
from chartloop.protocol import (
    AnswerKind,
    AtomicQuery,
    describe_query,
    format_query,
    format_reader_answer,
    parse_reader_answer,
    parse_step,
)
from chartloop.backends import ScriptedReasoner
from chartloop.symbolic import SkippedTemplate, SymbolicReasoner, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import TemplateType, Termination, Value

# The shipped hand-annotated reasoning examples, read as the package ships them.
_ANNOTATED = resources.files("chartloop.data").joinpath("annotated_examples.txt").read_text(
    encoding="utf-8")


def _verdict(name: str, ok: bool) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _closed_loop_accuracy(tables):
    config = EpisodeConfig()
    reasoner = SymbolicReasoner()
    total = correct = skipped = 0
    first_queries_are_describe = True
    for table in tables:
        oracle = TableOracle([table])
        for template in TemplateType:
            try:
                generated = gen_questions(table, template, seed=101, n=1)
            except SkippedTemplate:
                skipped += 1
                continue
            for qa, plan in generated:
                trace = run_episode(qa.question, table.source_id, reasoner, oracle, config)
                total += 1
                if trace.final is not None and relaxed_match(trace.final, qa.gold):
                    correct += 1
                queries = [parsed for step in trace.steps
                           if isinstance(parsed := parse_step(step.text), AtomicQuery)]
                first_queries_are_describe &= queries[:1] == [describe_query()]
    return total, correct, skipped, first_queries_are_describe


def test_closed_loop_oracle_equivalence():
    start = time.monotonic()
    tables = random_tables(2024, 500)
    total, correct, skipped, first_is_describe = _closed_loop_accuracy(tables)
    elapsed = time.monotonic() - start
    ok = (
        total >= 3000 and correct == total and skipped == 0
        and first_is_describe and elapsed < 30.0
    )
    assert _verdict(
        f"closed-loop oracle equivalence ({correct}/{total} in {elapsed:.1f}s)", ok
    )


def test_worked_trace_replays(retail, turkey, university_shares):
    replays = [
        (
            retail,
            "What is the difference between Macy's and Bloomingdale's in 2019?",
            [
                "Let's describe the figure.",
                "Let's extract the data of Macy's BY 2019.",
                "Let's extract the data of Bloomingdale's BY 2019.",
                "The difference between Macy's and Bloomingdale's in 2019 is "
                "613-55=558. So the answer is 558.",
            ],
            "558",
        ),
        (
            turkey,
            "What is Turkey data in percentage?",
            [
                "Let's describe the figure.",
                "Let's extract the data of Expenditures on general government "
                "outsourcing BY Turkey.",
                "The answer is 7.54.",
            ],
            "7.54",
        ),
        (
            university_shares,
            "What is the average share of people in Philippines and Ghana who "
            "think university is overrated?",
            [
                "Let's describe the figure.",
                "Let's extract the data of Share of people who think university "
                "is overrated BY Philippines.",
                "Let's extract the data of Share of people who think university "
                "is overrated BY Ghana.",
                "The average is (38.92+27.58)/2=33.25. So the answer is 33.25.",
            ],
            "33.25",
        ),
    ]
    ok = True
    for table, question, script, expected in replays:
        trace = run_episode(question, table.source_id, ScriptedReasoner(script),
                            TableOracle([table]))
        ok &= trace.terminated_by is Termination.CONCLUSION
        ok &= trace.final is not None and trace.final.raw == expected
    assert _verdict("worked-trace replays (558 / 7.54 / 33.25)", ok)


def test_relaxed_accuracy_boundary():
    gold = Value.from_raw("210.69")
    checks = [
        relaxed_match(Value.from_raw("210"), gold),        # |210-210.69|/210.69 ~ 0.33%
        not relaxed_match(Value.from_raw("200"), gold),    # ~5.07% relative error
    ]
    for base in [Decimal("1000"), Decimal("3.2"), Decimal("210.69")]:
        gold_value = Value.from_raw(str(base))
        at = Value.from_raw(str(base * Decimal("1.05")))
        past = Value.from_raw(str(base * (Decimal("1.05") + Decimal("1e-9"))))
        checks.append(relaxed_match(at, gold_value))
        checks.append(not relaxed_match(past, gold_value))
    ok = all(checks)
    assert _verdict("relaxed-accuracy 5% boundary", ok)


def _prompt_protocol_lines():
    """(reasoner_line?, text) pairs for every protocol line we ship."""
    lines = []
    for exemplar in default_step_exemplars():
        for index, step in enumerate(exemplar.steps):
            lines.append((index % 2 == 0, step))
    for example in parse_annotated_examples(_ANNOTATED):
        for seg_index, segment in enumerate(example.segments):
            text = segment.text.rstrip("\n")
            if seg_index == 0:
                continue  # the question is not a protocol line
            if text.startswith("A: "):
                text = text[3:]
            lines.append((not segment.masked, text))
    return lines


def test_protocol_round_trip():
    ok = True
    shipped = shipped_prompt_text(PromptStyle.STEPWISE_5SHOT)
    protocol_lines = [
        line[3:] if line.startswith("A: ") else line
        for line in shipped.splitlines()
        if line and not line.startswith("Q: ")
        and line != "Answer the following questions step by step."
    ]
    assert protocol_lines, "shipped prompt must contain protocol lines"
    for line in protocol_lines:
        classified = (
            parse_step(line) is not None
            or parse_reader_answer(line).kind is not AnswerKind.UNAVAILABLE
        )
        ok &= classified  # every protocol line parses as a step or an answer
    for is_reasoner, line in _prompt_protocol_lines():
        if is_reasoner:
            parsed = parse_step(line)
            if parsed is None:
                ok = False
            elif isinstance(parsed, AtomicQuery):
                rendered = format_query(parsed)
                ok &= rendered == line and parse_step(rendered) == parsed
        else:
            answer = parse_reader_answer(line)
            if answer.kind is AnswerKind.UNAVAILABLE:
                ok = False
            else:
                rendered = format_reader_answer(answer)
                ok &= rendered == line and parse_reader_answer(rendered) == answer
    assert _verdict("protocol round-trip over shipped prompts", ok)


def test_datagen_formula(small_corpus_path):
    from chartloop.datagen import load_corpus

    corpus = load_corpus(small_corpus_path)
    pairs_a, manifest_a = generate_system1_corpus(corpus.charts, seed=17)
    pairs_b, manifest_b = generate_system1_corpus(corpus.charts, seed=17)
    expected_points = sum(len(t.series) * len(t.x_labels) for t in corpus.charts)
    expected_groups = sum(
        (len(t.series) + len(t.x_labels)) if len(t.series) > 1 else 1
        for t in corpus.charts
    )
    ok = (
        manifest_a["n_charts"] == len(corpus.charts)
        and manifest_a["n_describe"] == len(corpus.charts)
        and manifest_a["n_point"] == expected_points
        and manifest_a["n_group"] == expected_groups
        and manifest_a == manifest_b
        and pairs_a == pairs_b
    )
    assert _verdict("datagen count formula and seed determinism", ok)


def test_mask_partition():
    examples = parse_annotated_examples(_ANNOTATED)
    ok = len(examples) == 2
    for example in examples:
        source = example.source_text()
        rebuilt = "".join(s.text for s in example.segments)
        ok &= rebuilt == source
        masked = [s.text for s in example.segments if s.masked]
        unmasked = [s.text for s in example.segments if not s.masked]
        ok &= masked[0].startswith("Q: ")
        ok &= all(
            t.startswith(("The figure shows the data of:", "The data is"))
            for t in masked[1:]
        )
        ok &= all(
            t.startswith(("A: Let's", "Let's")) or "answer is" in t for t in unmasked
        )
        ok &= "answer is" in unmasked[-1]
    assert _verdict("mask partition on annotated examples", ok)


def test_self_consistency_properties():
    rng = random.Random(606)
    ok = True
    for _ in range(1000):
        correct = rng.randrange(0, 1000)
        n_correct = rng.randrange(1, 8)
        finals = [Value.from_raw(str(correct))] * n_correct
        remaining = rng.randrange(0, n_correct)  # strictly fewer than the correct count
        wrong_values = [v for v in range(1000, 1010) if v != correct]
        spread = []
        for _ in range(remaining):
            spread.append(Value.from_raw(str(rng.choice(wrong_values))))
        finals.extend(spread)
        baseline = majority_vote(finals)
        ok &= baseline is not None and baseline.raw == str(correct)
        shuffled = finals[:]
        rng.shuffle(shuffled)
        permuted = majority_vote(shuffled)
        ok &= permuted == baseline
    assert _verdict("self-consistency vote properties (1000 multisets)", ok)
