"""The hooks the benchmark's traced run needs from the package.

``perfbench/run.py --trace 1`` wraps functions listed in
``perfbench/spans.py`` and reads ``slgp.cli._workers``; a rename or
removal of either, or a simulate that stops reaching a traced function,
would break the traced run without failing any other test.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import slgp.cli
import slgp.problem

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


@pytest.mark.parametrize("workload", ["elbow", "tworoute-n160", "push"])
def test_traced_benchmark_run_ends_on_a_correct_result_line(workload):
    # The traced run drives the CLI and the frozen API end to end; it can
    # exit 0 without a valid last line, so both are checked.
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
