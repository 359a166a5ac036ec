"""Calibration kernel: the machine's speed, measured while a workload runs.

The benchmark was written on a 2-vCPU VM on a shared host, where other
tenants take the CPU in bursts: the same code takes anywhere from one to two
times its undisturbed time from one moment to the next, CPU time swings with
wall time (it is not steal time), and the share of slow time changes from
run to run.  Raw timings then measure the neighbours as much as the program.

So the timed loop stops every ``INTERVAL_NS`` of timed work, between two
samples, and runs ``kernel``: fixed pure-Python work of the kinds chartloop
spends its time on (string formatting and joining, regular expressions,
dict updates, float parsing, small sorts, reads scattered over a large
table), outside the timed window.  Its
mean time over the run tells how fast the machine ran while the program
did, and the workloads report times scaled by ``REFERENCE_NS`` / that mean:
*reference seconds*, the time the work would take on a machine where the
kernel takes ``REFERENCE_NS``.  Slowdowns that hit the program and the
kernel alike cancel; a change to the program does not touch the kernel.
The raw, unscaled figures are printed beside them.
"""

from __future__ import annotations

import re
import statistics
import time
from array import array

INTERVAL_NS = 20_000_000  # timed work between two kernel runs
# The kernel's time, in ns, on the machine that defines a reference second:
# about its time on the 2-vCPU VM the baseline was measured on when the host
# is quiet.
REFERENCE_NS = 1_000_000
ROUNDS = 4
# Reads at scattered places of an 8 MB table: the program's data (a corpus
# of charts, 30-180 MB resident) slows when the neighbours crowd the shared
# caches, and a kernel that never leaves the L1 cache would not.
TABLE_BITS = 20
READS = 1500

_LINE = re.compile(r"^(\w+)\s*=\s*(-?\d+(?:\.\d+)?)\s*(\w*)$")
_TABLE = array("d", range(1 << TABLE_BITS))


def kernel() -> float:
    """About 1 ms of fixed work; the result only keeps it from being idle."""
    total = 0.0
    for r in range(ROUNDS):
        rows = [f"s{i % 7} = {i * 1.5 + r:.2f} u{i % 3}" for i in range(40)]
        seen: dict = {}
        for line in "\n".join(rows).splitlines():
            match = _LINE.match(line)
            if match:
                key = (match.group(1), match.group(3))
                seen[key] = seen.get(key, 0.0) + float(match.group(2))
        total += sum(sorted(seen.values())[:5])
    mask, index = (1 << TABLE_BITS) - 1, 1
    for _ in range(READS):
        index = (index * 1103515245 + 12345) & mask
        total += _TABLE[index]
    return total


class Calibrator:
    """Runs the kernel between samples of a timed loop and turns raw times
    into reference times."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        self._timed_at_due = 0

    def sample(self, runs: int = 1) -> int:
        """Run the kernel ``runs`` times; return the wall time it took."""
        spent = 0
        for _ in range(runs):
            start = time.perf_counter_ns()
            kernel()
            self.samples_ns.append(time.perf_counter_ns() - start)
            spent += self.samples_ns[-1]
        return spent

    def between(self, timed_ns: int) -> int:
        """Call between two samples with the timed work so far; runs the
        kernel once ``INTERVAL_NS`` more has been timed and returns the
        wall time it took, which the caller leaves out of its timing."""
        if timed_ns < self._timed_at_due:
            return 0
        self._timed_at_due = timed_ns + INTERVAL_NS
        return self.sample()

    def scale(self) -> float:
        """Reference time per wall time over the run."""
        return REFERENCE_NS / statistics.fmean(self.samples_ns) if self.samples_ns else 1.0

    def note(self) -> str:
        if not self.samples_ns:
            return "calibration: no kernel runs"
        return (f"calibration: kernel_runs={len(self.samples_ns)} "
                f"kernel_mean_ms={statistics.fmean(self.samples_ns) / 1e6:.6f} "
                f"kernel_median_ms={statistics.median(self.samples_ns) / 1e6:.6f} "
                f"reference_s_per_s={self.scale():.6f}")
