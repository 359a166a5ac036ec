"""The benchmark's traced run wraps chartloop functions by module and name.

Installing every wrapper here makes a rename or removal of one of them fail
in tier-1 instead of in the traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_tracing_finds_every_patched_function():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    try:
        workloads.install_tracing(tracer, [])
    finally:
        tracer.unpatch_all()
