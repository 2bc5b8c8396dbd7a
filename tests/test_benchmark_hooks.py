"""The hooks the benchmark's traced run needs from the package.

``perfbench/run.py --trace 1`` wraps functions listed in
``perfbench/spans.py`` and reads ``slgp.cli._workers``; a rename or
removal of either, or a simulate that stops reaching a traced function,
would break the traced run without failing any other test.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import slgp.cli
import slgp.problem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls_on_the_package():
    spans = _spans()
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


@pytest.mark.parametrize("scenario", ["tworoute", "elbow"])
def test_traced_simulate_reports_every_layer_metric_as_a_number(scenario, tmp_path):
    # A traced run can exit 0 while a metric reads null, for instance when
    # simulate no longer calls execution.rollout.  Elbow adds inequality
    # rows, line-search backtracks and inner loops that end on a relative
    # gradient cut, which solver.trials_per_step must count.
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = slgp.cli.main(["simulate", "--scenario", scenario, "--seeds", "0..1",
                              "--out", str(tmp_path / "sim")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = spans.layer_metrics(tracer)
    bad = {k: v for k, v in metrics.items()
           if not (isinstance(v, (int, float)) and math.isfinite(v))}
    assert not bad
