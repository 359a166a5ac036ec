"""Walk through the deterministic closed loop.

The rule-based reasoner decomposes template questions, the table oracle
answers its queries, and every final answer is checked against a brute-force
gold computed straight from the table. Run:

    python demos/closed_loop.py
"""

from chartloop import SymbolicReasoner, TableOracle, describe, relaxed_match, run_episode
from chartloop.symbolic import compute_gold, decompose, gen_questions
from chartloop.synth import random_table
from chartloop.tables import TemplateType

table = random_table(seed=12, index=0, n_series=3, n_x=5)
oracle = TableOracle([table])

print("Chart table:")
print(f"  {describe(table)}")
for label, row in zip(table.series, table.cells):
    cells = ", ".join(f"{x}={v.raw}" for x, v in zip(table.x_labels, row))
    print(f"  {label.name}: {cells}")
print()

for template in TemplateType:
    for qa, plan in gen_questions(table, template, seed=3):
        print(f"Q [{template.value}]: {qa.question}")
        trace = run_episode(qa.question, table.source_id, SymbolicReasoner(), oracle)
        for step in trace.steps:
            print(f"  {step.role.value:>15} | {step.text}")
        gold = compute_gold(table, decompose(qa.question))
        verdict = relaxed_match(trace.final, gold)
        print(f"  gold={gold.raw}  final={trace.final.raw}  match={verdict}")
        print()
