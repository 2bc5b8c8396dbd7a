"""The hooks the benchmark's traced run needs from the package.

``perfbench/run.py --trace 1`` wraps functions listed in
``perfbench/spans.py`` and reads ``slgp.cli._workers``; a rename or
removal of either would break the traced run without failing any other
test.
"""

import importlib.util
from pathlib import Path

import slgp.cli
import slgp.problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_installs_and_uninstalls_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = slgp.problem.assemble
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert slgp.problem.assemble is not original
    finally:
        tracer.uninstall()
    assert slgp.problem.assemble is original
    assert callable(slgp.cli._workers)
    assert slgp.cli._workers(4) == 1
