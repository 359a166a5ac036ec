"""Generate both training exports from a tiny chart corpus.

Reader pairs pair every atomic query with the oracle's exact answer; the
reasoner export masks the question and reader answers so loss lands only on
the reasoner's own lines. Run:

    python demos/training_data.py
"""

import json

from chartloop import SymbolicReasoner, TableOracle, run_episode
from chartloop.datagen import example_from_trace, generate_system1_corpus
from chartloop.symbolic import gen_questions
from chartloop.synth import random_tables
from chartloop.tables import TemplateType

charts = random_tables(seed=5, count=2)
pairs, manifest = generate_system1_corpus(charts, seed=5)

print(f"manifest: {json.dumps(manifest)}")
print("\nfirst reader pairs:")
for pair in pairs[:5]:
    print(f"  {pair.query!r} -> {pair.answer!r}")

table = charts[0]
(qa, _), = gen_questions(table, TemplateType.MIN_MAX, seed=1)
trace = run_episode(qa.question, table.source_id, SymbolicReasoner(), TableOracle(charts))
example = example_from_trace(trace, qa.question, table.source_id)

print("\nmasked reasoner example (M = no loss, L = loss):")
for segment in example.segments:
    flag = "M" if segment.masked else "L"
    print(f"  [{flag}] {segment.text.rstrip()}")
print("\nreconstructed == concatenation:", example.source_text().startswith("Q: "))
