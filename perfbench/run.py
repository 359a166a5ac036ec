"""chartloop benchmark: closed loop, loopback HTTP self-consistency, training export.

    python3 perfbench/run.py [--workload all|closed_loop|http_sc|training_export]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it uses the chartloop sources under ``src/`` next to this
directory, without installing them.  Each workload generates its inputs from
``--seed`` in a child process, pins itself to one CPU, sets up several times
(reporting the median), measures for ``--seconds`` of timed work, with the
timings in reference seconds (see ``calibration.py``), and checks every
output against the generated gold.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Human-readable lines
start with ``#``; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

``--workload all`` (the default) runs the three workloads one after another,
each in its own process, and prefixes each metric with its workload.
Outputs (inputs, records, spans) go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
NAMES = ("closed_loop", "http_sc", "training_export")
GENERATE_TIMEOUT_S = 300
WORKLOAD_TIMEOUT_S = 900

_LATENCY = {"closed_loop": "per question", "http_sc": "per question (SC group of 5)",
            "training_export": "per export job (one shard)"}
DESCRIPTIONS = {
    "items_per_s": {"closed_loop": "questions per second", "http_sc": "questions per second",
                    "training_export": "records (system1 pairs + system2 examples) per second"},
    "latency_p50_ms": _LATENCY,
    "latency_p90_ms": _LATENCY,
    "backend_calls_per_item": {"closed_loop": "reasoner complete + reader read per question",
                               "http_sc": "reasoner complete + reader read per question",
                               "training_export": "oracle.execute_query per record"},
    "payload_kb_per_item": {"closed_loop": "reasoner prompt KB per question",
                            "http_sc": "reasoner prompt KB per question",
                            "training_export": "JSONL KB written per record"},
}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chartloop" / "__init__.py").is_file():
        print(f"error: no chartloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import chartloop

    if Path(chartloop.__file__).resolve().parent != ROOT / "src" / "chartloop":
        print(f"error: imported chartloop from {chartloop.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    out = OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    generated = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--out", str(out / "inputs")],
        stdout=subprocess.PIPE, text=True, timeout=GENERATE_TIMEOUT_S,
    )
    if generated.returncode != 0:
        print(f"error: input generation exited with {generated.returncode}", file=sys.stderr)
        return 2
    inputs = json.loads(generated.stdout.strip().splitlines()[-1])

    # One CPU for the timed work, the calibration kernel and the http_sc
    # server (which inherits it): the kernel then sees the slowdowns the work
    # sees, and a reply never waits for an idle CPU to be woken up.
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    ctx = workloads.Context(out / "inputs", out, args.seed, args.seconds,
                            Tracer() if args.trace else None)
    result = workloads.WORKLOADS[args.workload](ctx)
    catalog = workloads.PER_LAYER if args.trace else workloads.END_TO_END

    env = {"python": platform.python_version(), "nproc": len(allowed),
           "commit": git_commit()}
    print(f"# env python={env['python']} nproc={env['nproc']} commit={env['commit']} pinned_cpu={cpu}")
    shares = " ".join(f"{k}={v:.3f}" for k, v in inputs["table_length_share"].items())
    extra = f" shards={inputs['shards']}" if "shards" in inputs else ""
    print(f"# inputs {args.workload} seed={args.seed} charts={inputs['charts']}{extra} "
          f"sha256={inputs['sha256'][:16]}")
    print(f"# table length (cells) share: {shares} "
          "(synthetic charts have at most 4x7=28 cells, so none reach 40)")
    for note in result.notes:
        print(f"# {note}")
    print(f"# failed_share={result.failed / max(result.attempted, 1):.6f} "
          f"({result.failed} of {result.attempted} attempted)")
    for problem in result.problems:
        print(f"# PROBLEM {problem}")
    for name, unit in catalog.items():
        meaning = DESCRIPTIONS.get(name, {}).get(args.workload, "")
        print(f"# {args.workload:<16} {name:<44} {result.metrics[name]:>14.6f} {unit:<10} {meaning}")

    payload = {
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in catalog.items()},
    }
    with open(out / "bench.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "inputs": inputs, "notes": result.notes,
                   "problems": result.problems, **payload}, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
