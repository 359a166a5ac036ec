"""In-memory span recorder for the benchmark's traced run.

The traced run replaces public chartloop functions, at the module or class
attribute their callers resolve at call time, with wrappers that record one
span per call: name, start, end, parent span and the id of the question (or
export job) it belongs to.  Spans live in flat arrays while the run goes and
are written out once it ends.  The untraced run installs none of this.

The client is single-threaded, so spans nest strictly: a span's children are
the spans opened while it is the innermost open one, they lie inside it and
do not overlap.  ``check_nesting`` verifies that, which is what makes
"self time = duration - time covered by child spans" exact.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

NO_QUESTION = -1  # set-up work, outside the timed window
BATCH_WORK = -2  # timed work shared by a batch: scoring and writing records


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.qids = array("l")
        self.qid = NO_QUESTION
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, record_args=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``record_args`` (a list) receives ``(qid, args, kwargs, result)`` per
        call, for properties measured on the arguments, such as repeated
        queries.
        """
        nid = self._name_id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, qids, stack = self.parents, self.qids, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            qids.append(tracer.qid)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if record_args is not None:
                record_args.append((tracer.qid, args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, record_args=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, record_args))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.ends)

    def check_nesting(self) -> list[str]:
        """Problems with span nesting; empty when every child lies inside its
        parent, siblings do not overlap and every span was closed."""
        problems: list[str] = []
        last_child_end: dict[int, int] = {}
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(len(ends)):
            if ends[i] < starts[i]:
                problems.append(f"span {i} ({self.names[self.name_ids[i]]}) ends before it starts")
                continue
            p = parents[i]
            if p < 0:
                continue
            if starts[i] < starts[p] or ends[i] > ends[p]:
                problems.append(f"span {i} lies outside its parent {p}")
            if starts[i] < last_child_end.get(p, starts[p]):
                problems.append(f"span {i} overlaps an earlier sibling")
            last_child_end[p] = ends[i]
            if len(problems) >= 10:
                break
        return problems

    def totals(self, include_qid) -> dict[str, dict[str, int]]:
        """Per span name: call count, total and self nanoseconds, over the
        spans whose question id satisfies ``include_qid``."""
        starts, ends, parents = self.starts, self.ends, self.parents
        child_ns = [0] * len(ends)
        for i in range(len(ends)):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for i in range(len(ends)):
            if not include_qid(self.qids[i]):
                continue
            entry = out[self.names[self.name_ids[i]]]
            duration = ends[i] - starts[i]
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
        return out

    def write_tsv(self, path: Path) -> None:
        """One line per span: id, parent, question id, name, start and end (ns)."""
        base = self.starts[0] if len(self.starts) else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tqid\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.ends)):
                handle.write(
                    f"{i}\t{self.parents[i]}\t{self.qids[i]}\t{self.names[self.name_ids[i]]}"
                    f"\t{self.starts[i] - base}\t{self.ends[i] - base}\n"
                )
