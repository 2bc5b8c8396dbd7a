"""Command-line surface: artifacts, schemas, determinism, exit codes."""

import csv
import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slgp.cli import _config, _load_config, _parse_seeds, build_parser, main
from slgp.execution import rollout
from slgp.features import AffineFeature
from slgp.laplace import SingularComponentError, build_components, eliminate
from slgp.problem import assemble
from slgp.solver import solve

PLAN_WEIGHTS_HEADER = ["skeletonId", "status", "fStar", "logRatio",
                       "entropyRatio", "rank", "weight"]
SUMMARY_HEADER = ["seed", "aborted", "finalError", "planDeviation",
                  "totalCost", "switchCount"]


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _plan(tmp_path, name, *extra):
    out = tmp_path / f"plan-{name}"
    code = main(["plan", "--scenario", name, "--out", str(out), *extra])
    return code, out


# --- plan ------------------------------------------------------------------


def test_plan_elbow_writes_the_mixture_and_solutions(tmp_path):
    code, out = _plan(tmp_path, "elbow")
    assert code == 0
    payload = json.loads((out / "mixture.json").read_text())
    assert payload["schema"] == "slgp.mixture/2"
    assert "priorMode" not in payload
    assert len(payload["components"]) == 4
    total = sum(c["weight"] for c in payload["components"])
    assert abs(total - 1.0) < 1e-12
    for entry in payload["components"]:
        assert set(entry) == {"skeletonId", "fStar", "logRatio",
                              "entropyRatio", "rank", "weight"}
    header, rows = _read_csv(out / "weights.csv")
    assert header == PLAN_WEIGHTS_HEADER
    assert len(rows) == 4
    for sid in ("free", "fix-joint-1", "fix-joint-2", "fix-both"):
        sol = json.loads((out / f"solution-{sid}.json").read_text())
        assert sol["skeletonId"] == sid
        assert sol["status"] == "converged"
        assert {"fStar", "kkt", "xStar", "logRatio", "rank",
                "weight"} <= set(sol)
    assert (out / "report.txt").exists()


def test_plan_elbow_at_n60_converges_every_skeleton(tmp_path):
    # With an absolute inner tolerance, fix-joint-2 ended here in
    # line-search-failure after two stalled inner loops.
    code, out = _plan(tmp_path, "elbow", "--set", "scenario.N=60")
    assert code == 0
    _, rows = _read_csv(out / "weights.csv")
    assert {row[0]: row[1] for row in rows} == {
        sid: "converged" for sid in ("free", "fix-joint-1", "fix-joint-2", "fix-both")}


def test_plan_trace_has_one_row_per_inner_iteration(tmp_path):
    code, out = _plan(tmp_path, "tworoute", "--trace")
    assert code == 0
    header, rows = _read_csv(out / "trace-via-far.csv")
    assert header == ["outer", "inner", "merit", "violation", "stepNorm", "mu",
                      "backtracks", "damping"]
    sol = json.loads((out / "solution-via-far.json").read_text())
    assert len(rows) == sol["innerIterations"]
    for row in rows:
        assert int(row[6]) >= 0 and float(row[5]) > 0.0 and float(row[7]) > 0.0


def test_plan_push_reports_the_two_finger_entropy_advantage(tmp_path):
    code, out = _plan(tmp_path, "push")
    assert code == 0
    header, rows = _read_csv(out / "weights.csv")
    ratios = {row[0]: float(row[3]) for row in rows}
    assert ratios["two-finger"] > ratios["single-finger"]
    report = (out / "report.txt").read_text()
    assert "single-finger" in report and "two-finger" in report


def test_plan_reruns_are_byte_identical(tmp_path):
    _, first = _plan(tmp_path, "tworoute", "--trace")
    code, second = main(["plan", "--scenario", "tworoute", "--trace",
                         "--out", str(tmp_path / "again")]), tmp_path / "again"
    assert code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(n.startswith("trace-") for n in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_plan_honors_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"name": "tworoute", "N": 24}}))
    out = tmp_path / "cfgout"
    code = main(["plan", "--config", str(cfg), "--set",
                 "scenario.sigma=0.2", "--out", str(out)])
    assert code == 0
    sol = json.loads((out / "solution-via-near.json").read_text())
    assert len(sol["xStar"]) == 24
    report = (out / "report.txt").read_text()
    assert "N=24" in report and "sigma=0.2" in report

    # A cost near the float limit overflows the Gauss-Newton Hessian: each
    # skeleton ends in a status that says so, and its cost prints in
    # exponent notation, not as a 300-digit fixed-point number.
    code, out = _plan(tmp_path, "elbow", "--set", "scenario.arm_target_weight=1e308")
    assert code == 1
    lines = (out / "report.txt").read_text().splitlines()[2:]
    assert len(lines) == 4
    for line in lines:
        assert "status=hessian-overflow" in line
        assert re.search(r" fStar=\d\.\d{6}e\+30\d ", line) and len(line) < 120


def test_a_system_that_never_factors_ends_each_skeleton_with_its_status(tmp_path, capsys):
    # Far below the overflow, the damped Gauss-Newton system at the start
    # path does not factor even at the largest damping: every skeleton
    # ends its solve with that status instead of raising.
    code, out = _plan(tmp_path, "elbow", "--set", "scenario.arm_target_weight=1e20")
    assert code == 1
    assert capsys.readouterr().err == ""
    lines = (out / "report.txt").read_text().splitlines()[2:]
    assert [line.split()[0] for line in lines] == ["free", "fix-joint-1", "fix-joint-2",
                                                   "fix-both"]
    for line in lines:
        assert "status=hessian-not-positive-definite" in line
    for sid in ("free", "fix-joint-1", "fix-joint-2", "fix-both"):
        sol = json.loads((out / f"solution-{sid}.json").read_text())
        assert sol["status"] == "hessian-not-positive-definite"
        assert sol["dropReason"] == "solver status hessian-not-positive-definite"


def test_a_merit_that_overflows_ends_each_skeleton_with_its_status(tmp_path, capsys):
    # Every residual is finite, but the route target's squared cost
    # overflows float64 at the start path: each solve ends there instead of
    # running all its outer iterations on an infinite merit.  The suite
    # turns any overflow warning into an error.
    code, out = _plan(tmp_path, "tworoute", "--set", "scenario.route_target=[1e300,0]",
                      "--set", "scenario.route_target_weight=1e10")
    assert code == 1
    assert capsys.readouterr().err == ""
    lines = (out / "report.txt").read_text().splitlines()[2:]
    assert [line.split()[:2] for line in lines] == [
        ["via-near", "status=merit-overflow"], ["via-far", "status=merit-overflow"]]
    for sid in ("via-near", "via-far"):
        sol = json.loads((out / f"solution-{sid}.json").read_text())
        assert (sol["status"], sol["outerIterations"], sol["innerIterations"]) == (
            "merit-overflow", 1, 0)


def test_the_report_keeps_one_status_column(tmp_path, monkeypatch):
    # Statuses up to 20 characters keep the column at its width; a longer
    # one widens it on every line.
    code, out = _plan(tmp_path, "tworoute")
    assert code == 0
    lines = (out / "report.txt").read_text().splitlines()[2:4]
    assert [line.index("fStar=") for line in lines] == [47, 47]

    def solve_failing_far(problem, skeleton, **kwargs):
        sol = solve(problem, skeleton, **kwargs)
        if skeleton.id == "via-far":
            sol = dataclasses.replace(sol, status="hessian-not-positive-definite")
        return sol

    monkeypatch.setattr("slgp.cli.solve", solve_failing_far)
    code, out = _plan(tmp_path / "mixed", "tworoute")
    assert code == 1
    lines = (out / "report.txt").read_text().splitlines()[2:4]
    assert "status=converged " in lines[0]
    assert "status=hessian-not-positive-definite fStar=" in lines[1]
    assert [line.index("fStar=") for line in lines] == [56, 56]


def test_a_feature_that_fails_at_the_start_path_exits_naming_the_skeleton(tmp_path,
                                                                         monkeypatch):
    # The goal feature returns NaN, so the first assembly of the first
    # skeleton fails.
    plain = AffineFeature.eval

    def nan_goal(self, xs):
        values, jac = plain(self, xs)
        return (np.full_like(values, np.nan) if self.name == "goal" else values), jac

    monkeypatch.setattr(AffineFeature, "eval", nan_goal)
    with pytest.raises(SystemExit) as info:
        main(["plan", "--scenario", "tworoute", "--out", str(tmp_path / "x")])
    assert str(info.value.code) == (
        "plan: skeleton 'via-near' cannot be solved from its start path: "
        "feature 'goal' at step 40: nonfinite value or Jacobian")


# --- simulate ---------------------------------------------------------------


def test_disturbed_routes_switch_to_the_far_waypoint(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                 "--disturb", "12:0.0,0.8", "--seeds", "1..20"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.txt", "rollouts.jsonl",
                                                     "summary.csv"]
    steps = [json.loads(line)
             for line in (out / "rollouts.jsonl").read_text().splitlines()]
    assert len(steps) == 20 * 40
    assert {"seed", "n", "x", "command", "weights", "active"} <= set(steps[0])
    # The weights follow the order of the executed skeletons.
    executed = re.search(r"skeletons executed: (.*)", (out / "report.txt").read_text())
    far_col = executed.group(1).split(", ").index("via-far")
    for step in steps:
        if step["n"] < 12:
            assert step["active"] == "via-near"
            assert step["weights"][far_col] < 0.5
    finals = {step["seed"]: step for step in steps if step["n"] == 40}
    assert len(finals) == 20
    assert all(step["active"] == "via-far" for step in finals.values())
    assert all(step["weights"][far_col] > 0.5 for step in finals.values())

    header, srows = _read_csv(out / "summary.csv")
    assert header == SUMMARY_HEADER
    assert len(srows) == 20
    assert all(int(r[5]) >= 1 for r in srows)


def test_noiseless_rollout_stays_on_the_plan(tmp_path):
    out = tmp_path / "quiet"
    code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                 "--noise", "0", "--seeds", "1"])
    assert code == 0
    header, rows = _read_csv(out / "summary.csv")
    assert len(rows) == 1
    deviation = float(rows[0][header.index("planDeviation")])
    assert deviation < 1e-6


def test_both_controller_modes_produce_summaries(tmp_path):
    for mode in ("blending", "switching"):
        out = tmp_path / mode
        code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                     "--controller", mode, "--noise", "2", "--seeds", "0..4"])
        assert code == 0
        header, rows = _read_csv(out / "summary.csv")
        assert header == SUMMARY_HEADER
        assert len(rows) == 5
        assert all(r[1] == "0" for r in rows)
        assert all(float(r[2]) >= 0.0 for r in rows)


def test_simulate_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                     "--noise", "1.5", "--seeds", "3..5"])
        assert code == 0
        outs.append(out)
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_explicit_truth_skeleton_is_honored(tmp_path):
    out = tmp_path / "truth"
    code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                 "--noise", "0", "--seeds", "0", "--truth", "via-far"])
    assert code == 0
    assert "truth skeleton: via-far" in (out / "report.txt").read_text()


def test_overflowing_disturbance_aborts_the_seed_with_step_and_feature(tmp_path, capsys):
    out = tmp_path / "blown"
    code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                 "--seeds", "0", "--disturb", "20:1e307,0"])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    header, rows = _read_csv(out / "summary.csv")
    assert header == SUMMARY_HEADER and rows == [["0", "1", "", "", "", ""]]
    record, = [json.loads(line)
               for line in (out / "rollouts.jsonl").read_text().splitlines()]
    assert record["aborted"] is True
    assert record["reason"].startswith("rollout aborted at step 21: skeleton weights "
                                       "are not finite")
    assert "aborted: 1" in (out / "report.txt").read_text()


# --- validation and exit codes ----------------------------------------------


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_simulate_runs_every_bundled_scenario(tmp_path, name):
    out = tmp_path / name
    assert main(["simulate", "--scenario", name, "--seeds", "0..1",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "aborted: 0" in report
    if name == "push":
        assert ("policy single-finger step 16: dropped 1 dependent "
                "constraint rows\n") in report


def test_simulate_eliminates_each_kept_skeleton_once(tmp_path, monkeypatch):
    # The policies are read off the components' eliminations, so no
    # skeleton is eliminated again for its policy, and one pass eliminates
    # all of them.
    calls = []

    def counting(expansions, *args, **kwargs):
        calls.append([e.skeleton_id for e in expansions])
        return eliminate(expansions, *args, **kwargs)

    for module in ("slgp.laplace", "slgp.kodp"):
        monkeypatch.setattr(f"{module}.eliminate", counting)
    assert main(["simulate", "--scenario", "tworoute", "--seeds", "0",
                 "--out", str(tmp_path / "once")]) == 0
    assert len(calls) == 1
    assert sorted(sid for batch in calls for sid in batch) == ["via-far", "via-near"]


def _unplanned(*args, **kwargs):
    raise AssertionError("an argument check ran after planning began")


def test_bad_arguments_exit_with_a_message(tmp_path, monkeypatch):
    monkeypatch.setattr("slgp.cli.solve", _unplanned)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    out = tmp_path / "x"
    # The argv's own --out, given after this one, wins.
    for argv in (
        ["simulate", "--scenario", "tworoute", "--seeds", "a..z"],
        ["simulate", "--scenario", "tworoute", "--seeds", "3..1"],
        ["simulate", "--scenario", "tworoute", "--seeds", "x"],
        ["simulate", "--scenario", "tworoute", "--disturb", "12:zero"],
        ["simulate", "--scenario", "tworoute", "--disturb", "12:0.0"],
        ["simulate", "--scenario", "tworoute", "--disturb", "0:0.0,0.8"],
        ["simulate", "--scenario", "tworoute", "--truth", "via-nowhere"],
        ["plan", "--scenario", "tworoute", "--set", "scenario.bogus=1"],
        ["plan", "--scenario", "tworoute", "--set", "solver.bogus=2"],
        ["plan", "--scenario", "tworoute", "--set", "oops"],
        ["plan", "--scenario", "tworoute", "--set", "scenario.N=2"],
        ["plan", "--scenario", "tworoute", "--set", "scenario.N=40",
         "--set", "scenario.N.x=1"],
        ["plan", "--config", str(listed)],
        ["plan", "--scenario", "tworoute", "--out", str(listed)],
        ["simulate", "--scenario", "tworoute", "--out", str(listed / "below")],
    ):
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--out", str(out), *argv[1:]])
        assert not out.exists(), argv
        if argv[-2] == "--out":
            assert str(info.value.code).startswith(
                f"{argv[0]}: cannot create output directory '{argv[-1]}': ")
    assert listed.read_text() == "[1, 2]"


@pytest.mark.parametrize("text, cause", [
    (None, "No such file or directory"),
    ("{bad", "Expecting property name enclosed in double quotes"),
], ids=["missing", "bad-json"])
def test_unreadable_config_file_exits_naming_the_path_and_the_cause(tmp_path, text,
                                                                   cause):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["plan", "--config", str(cfg), "--out", str(tmp_path / "x")])
    message = str(info.value.code)
    assert message.startswith(f"cannot read config file '{cfg}': ") and cause in message
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seeds, first", [("-3..-1", -3), ("-1", -1), ("-1..2", -1)],
                         ids=["range", "single", "straddling"])
def test_negative_seeds_are_refused_before_planning(tmp_path, monkeypatch, seeds,
                                                   first):
    monkeypatch.setattr("slgp.cli.solve", _unplanned)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--scenario", "tworoute", f"--seeds={seeds}",
              "--out", str(tmp_path / "x")])
    assert str(info.value.code) == f"--seeds must be >= 0, got {first}"
    assert not (tmp_path / "x").exists()


def test_a_huge_seed_range_is_parsed_without_allocating_it():
    # simulate only iterates the seeds, reads their ends and counts them,
    # so a range serves; a list of 1e11 ints would end in a MemoryError.
    tracemalloc.start()
    try:
        seeds = _parse_seeds("0..100000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seeds == range(100000000001)
    assert (seeds[0], seeds[-1], len(seeds)) == (0, 100000000000, 100000000001)
    assert peak < 10_000


def test_a_stopped_simulate_keeps_the_seeds_finished_so_far(tmp_path, monkeypatch):
    def stop_at_seed_2(*args, seed, **kwargs):
        if seed == 2:
            raise KeyboardInterrupt
        return rollout(*args, seed=seed, **kwargs)

    full = tmp_path / "full"
    assert main(["simulate", "--scenario", "tworoute", "--seeds", "0..1",
                 "--out", str(full)]) == 0
    monkeypatch.setattr("slgp.cli.rollout", stop_at_seed_2)
    stopped = tmp_path / "stopped"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--scenario", "tworoute", "--seeds", "0..5",
              "--out", str(stopped)])
    assert sorted(p.name for p in stopped.iterdir()) == ["rollouts.jsonl", "summary.csv"]
    for name in ("rollouts.jsonl", "summary.csv"):
        assert (stopped / name).read_bytes() == (full / name).read_bytes()


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("key", ["hysterisis", "effortWeight"])
def test_unknown_execution_keys_are_rejected(tmp_path, command, key):
    # Execution settings are simulate flags only, so the section is unknown.
    with pytest.raises(SystemExit, match="unknown config section 'execution'"):
        main([command, "--scenario", "tworoute", "--out", str(tmp_path / "x"),
              "--set", f"execution.{key}=0.1"])
    assert not (tmp_path / "x").exists()


UNKNOWN_EXECUTION = "unknown config section 'execution'; choose from scenario, solver"
SOLVER_KEYS = "choose from maxOuter, tolStep, tolConstraint, hessianReg"


@pytest.mark.parametrize("scenario, extra, message", [
    ("push", ["--disturb", "20:nan,0,0,0,0,0,0"],
     "--disturb entries must be finite, got '20:nan,0,0,0,0,0,0'"),
    ("tworoute", ["--noise", "-1"], "--noise must be a finite number >= 0, got -1.0"),
    ("tworoute", ["--noise", "nan"], "--noise must be a finite number >= 0, got nan"),
    ("tworoute", ["--hysteresis", "-1"],
     "--hysteresis must be a finite number >= 0, got -1.0"),
    ("tworoute", ["--hysteresis", "nan"],
     "--hysteresis must be a finite number >= 0, got nan"),
    ("tworoute", ["--controller", "blending", "--hysteresis", "0.05"],
     "--hysteresis 0.05 has no effect with --controller blending; "
     "it is a switching margin"),
    ("tworoute", ["--set", "execution.noiseScale=0.5"], UNKNOWN_EXECUTION),
    ("tworoute", ["--set", "execution.noise_scale=abc"], UNKNOWN_EXECUTION),
    ("tworoute", ["--set", "execution.priorMode=bogus"], UNKNOWN_EXECUTION),
], ids=["disturb-nan", "noise-negative", "noise-nan", "hysteresis-negative",
        "hysteresis-nan", "hysteresis-with-blending", "noise-scale-text",
        "noise-scale-snake-text", "prior-mode-unknown"])
def test_bad_execution_inputs_are_named(tmp_path, scenario, extra, message):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "x"),
              "--seeds", "0", *extra])
    assert str(info.value.code) == message
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("setting, message", [
    ("scenario=3", "config section 'scenario' must be an object"),
    ("solver=3", "config section 'solver' must be an object"),
    ("execution=3", UNKNOWN_EXECUTION),
    ("solver.maxOuter=abc", "bad solver config: max_outer must be an integer >= 1, got 'abc'"),
    ("solver.maxOuter=2.5", "bad solver config: max_outer must be an integer >= 1, got 2.5"),
    ("solver.maxOuter=true", "bad solver config: max_outer must be a number, got True"),
    ("solver.maxInner=0", f"unknown solver parameter 'maxInner'; {SOLVER_KEYS}"),
    ("solver.tolStep=0", "bad solver config: tol_step must be a finite number > 0, got 0"),
    ("solver.muGrowth=Infinity", f"unknown solver parameter 'muGrowth'; {SOLVER_KEYS}"),
    ("solver.armijoShrink=1", f"unknown solver parameter 'armijoShrink'; {SOLVER_KEYS}"),
], ids=["scenario-int", "solver-int", "execution-int", "max-outer-text",
        "max-outer-fraction", "max-outer-bool", "max-inner-zero",
        "tol-step-zero", "mu-growth-inf", "armijo-shrink-one"])
def test_bad_config_sections_and_solver_settings_are_named(tmp_path, command, setting,
                                                           message):
    with pytest.raises(SystemExit) as info:
        main([command, "--scenario", "tworoute", "--out", str(tmp_path / "x"),
              "--set", setting])
    assert str(info.value.code) == message
    assert not (tmp_path / "x").exists()


def _tuple_error(field, size):
    return f"bad scenario config: {field} must hold {size} finite numbers, got "


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("scenario, setting, message", [
    ("elbow", "solvr.maxOuter=1",
     "unknown config section 'solvr'; choose from scenario, solver"),
    ("elbow", "solver.muInit=2", f"unknown solver parameter 'muInit'; {SOLVER_KEYS}"),
    ("elbow", "scenario.N=40.5",
     "bad scenario config: N must be an integer of at least 4, got 40.5"),
    ("elbow", "scenario.link_lengths=[0.5]",
     "bad scenario config: target (1.35, 0.25) outside arm reach 0.5"),
    ("elbow", "scenario.sigma=Infinity",
     "bad scenario config: sigma must be finite and positive, got inf"),
    # Nonfinite coordinates once reached the solver as FeatureEvalErrors.
    ("tworoute", "scenario.waypoint_near=[Infinity,0]",
     _tuple_error("waypoint_near", 2) + "(inf, 0)"),
    ("elbow", "scenario.arm_target=[NaN,0]", _tuple_error("arm_target", 2) + "(nan, 0)"),
    ("elbow", "scenario.start_angles=[1,-0.4,-0.4,NaN]",
     "bad scenario config: start_angles must hold one or more finite numbers, "
     "got (1, -0.4, -0.4, nan)"),
    ("tworoute", "scenario.route_start=[Infinity,0]",
     _tuple_error("route_start", 2) + "(inf, 0)"),
    ("push", "scenario.box_start=[0.55,0,NaN]", _tuple_error("box_start", 3) + "(0.55, 0, nan)"),
    # Wrong lengths once surfaced as internal errors.
    ("push", "scenario.box_target=[0.85,0]", _tuple_error("box_target", 3) + "(0.85, 0)"),
    ("tworoute", "scenario.route_target=[1]", _tuple_error("route_target", 2) + "(1,)"),
    ("push", "scenario.box_start=[0.55,0]", _tuple_error("box_start", 3) + "(0.55, 0)"),
    ("elbow", "scenario.start_angles=[1,2]",
     "bad scenario config: start_angles must have length 4"),
    # Once taken silently.
    ("elbow", "scenario.arm_target=1.0", _tuple_error("arm_target", 2) + "1.0"),
    ("elbow", "scenario.sigma=true",
     "bad scenario config: sigma must be finite and positive, got True"),
    ("tworoute", "scenario.route_target=[true,0]", _tuple_error("route_target", 2) + "(True, 0)"),
    ("push", "scenario.contact_offset=-0.2",
     "bad scenario config: contact_offset -0.2 must lie inside the face half-width 0.1"),
    # Once an OverflowError traceback from the effort scale.
    ("elbow", "scenario.T=1e308",
     "bad scenario config: effort scale 1/(sigma dt^1.5) is not finite for sigma 0.1 "
     "and time step dt 2.5e+306"),
    # Once a numpy overflow warning, then a failed solve at the start path.
    ("tworoute", "scenario.route_target=[1e308,0]",
     "bad scenario config: feature 'goal': offset sqrt(weight) * values is not finite "
     "for weight 300.0 and values [1e+308, 0.0]"),
    ("push", "scenario.box_target=[1e308,0,0]",
     "bad scenario config: feature 'box-target': offset sqrt(weight) * values is not "
     "finite for weight 100.0 and values [1e+308, 0.0, 0.0]"),
], ids=["misspelt-section", "retired-solver-key", "fractional-n",
        "short-link-lengths", "infinite-sigma", "infinite-waypoint",
        "nan-arm-target", "nan-start-angle", "infinite-route-start",
        "nan-box-angle", "short-box-target", "short-route-target",
        "short-box-start", "short-start-angles", "scalar-arm-target",
        "bool-sigma", "bool-route-target", "offset-off-the-face", "overflowing-t",
        "overflowing-route-target", "overflowing-box-target"])
def test_bad_sections_and_scenario_values_are_named(tmp_path, command, scenario,
                                                    setting, message):
    with pytest.raises(SystemExit) as info:
        main([command, "--scenario", scenario, "--out", str(tmp_path / "x"),
              "--set", setting])
    assert str(info.value.code) == message
    assert not (tmp_path / "x").exists()


def test_config_file_with_a_misspelt_section_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"name": "tworoute"},
                               "solvr": {"maxOuter": 1}}))
    with pytest.raises(SystemExit) as info:
        main(["plan", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert str(info.value.code) == ("unknown config section 'solvr'; "
                                    "choose from scenario, solver")
    assert not (tmp_path / "x").exists()


def test_simulate_takes_the_final_error_from_the_scenario_alone(tmp_path,
                                                                monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return rollout(*args, **kwargs)

    monkeypatch.setattr("slgp.cli.rollout", recording)
    assert main(["simulate", "--scenario", "tworoute", "--seeds", "0..1",
                 "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 2 and not any("target" in kw for kw in calls)


def test_singular_pivot_is_named_at_plan_time(tmp_path, monkeypatch, capsys):
    # Leave the last step's effort rows out of every component: x_N gets no
    # effort curvature, so the effort Hessian pivot at step N is singular.
    def last_step_without_effort(problem, skeleton, x):
        stack = assemble(problem, skeleton, x)
        return dataclasses.replace(
            stack, effort_mask=stack.effort_mask & (stack.steps != problem.N))

    monkeypatch.setattr("slgp.laplace.assemble", last_step_without_effort)
    code, out = _plan(tmp_path, "tworoute")
    assert code == 0
    report = (out / "report.txt").read_text()
    for sid in ("via-near", "via-far"):
        reason = (f"effort Hessian pivot of skeleton '{sid}' at step 40 is "
                  "numerically singular (smallest eigenvalue 0.000e+00)")
        sol = json.loads((out / f"solution-{sid}.json").read_text())
        assert sol["status"] == "converged" and sol["dropReason"] == reason
        assert f"dropped: {reason}" in report
    assert not (out / "mixture.json").exists()

    capsys.readouterr()
    code = main(["simulate", "--scenario", "tworoute", "--out",
                 str(tmp_path / "sim"), "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["no skeleton kept; nothing to execute",
                   "dropped via-near: effort Hessian pivot of skeleton 'via-near' "
                   "at step 40 is numerically singular (smallest eigenvalue 0.000e+00)",
                   "dropped via-far: effort Hessian pivot of skeleton 'via-far' "
                   "at step 40 is numerically singular (smallest eigenvalue 0.000e+00)"]


def test_simulate_names_every_drop_when_no_skeleton_is_kept(tmp_path,
                                                            monkeypatch, capsys):
    def singular(problem, solved):
        return [SingularComponentError(f"toy pivot of '{skeleton.id}'", -1.0)
                for skeleton, _ in solved]

    monkeypatch.setattr("slgp.cli.build_components", singular)
    code = main(["simulate", "--scenario", "tworoute", "--out",
                 str(tmp_path / "sim"), "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("no skeleton kept; nothing to execute\n")
    for sid in ("via-near", "via-far"):
        assert (f"dropped {sid}: toy pivot of '{sid}' is numerically singular "
                "(smallest eigenvalue -1.000e+00)") in err
    assert "converged" not in err


@pytest.mark.parametrize("settings, max_outer", [
    (("solver.max_outer=1", "solver.maxOuter=1", "solver.max_outer=30"), 30),
    (("solver.maxOuter=30", "solver.max_outer=1"), 1),
    (("scenario.N=20", "scenario.N=24"), None),
], ids=["snake-last", "snake-after-camel", "same-spelling"])
def test_the_last_set_of_a_setting_wins_in_either_spelling(tmp_path, settings, max_outer):
    args = [arg for setting in settings for arg in ("--set", setting)]
    cfg = _load_config(build_parser().parse_args(["plan", *args]))
    if max_outer is None:
        assert cfg == {"scenario": {"N": 24}}
        return
    assert _config(cfg, "solver").max_outer == max_outer
    code, out = _plan(tmp_path, "tworoute", *args)
    statuses = {json.loads((out / f"solution-{sid}.json").read_text())["status"]
                for sid in ("via-near", "via-far")}
    assert (code, statuses) == ((0, {"converged"}) if max_outer == 30
                                else (1, {"max-iterations"}))


def test_simulate_says_when_no_skeleton_converged(tmp_path, capsys):
    code = main(["simulate", "--scenario", "tworoute", "--out",
                 str(tmp_path / "sim"), "--seeds", "0",
                 "--set", "solver.maxOuter=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("no skeleton converged; nothing to execute\n")
    assert "dropped via-near: solver status " in err


def test_long_tworoute_horizon_keeps_both_skeletons(tmp_path):
    # A single global eigenvalue floor on the whole projected effort
    # Hessian dropped both routes here; the per-pivot rule keeps them.
    code, out = _plan(tmp_path, "tworoute", "--set", "scenario.N=640")
    assert code == 0
    for sid in ("via-near", "via-far"):
        sol = json.loads((out / f"solution-{sid}.json").read_text())
        assert sol["status"] == "converged" and "dropReason" not in sol
        assert sol["rank"] == 2 * 640 - 2
    assert len(json.loads((out / "mixture.json").read_text())["components"]) == 2


def test_singular_component_is_reported_as_the_drop_reason(tmp_path, monkeypatch):
    # The far route converges, but its component is declared singular.
    def singular_far(problem, solved):
        return [SingularComponentError("projected Hessian (via-far)", -2.5e-13)
                if skeleton.id == "via-far" else built
                for (skeleton, _), built in zip(solved, build_components(problem, solved))]

    monkeypatch.setattr("slgp.cli.build_components", singular_far)
    code, out = _plan(tmp_path, "tworoute")
    assert code == 0
    reason = ("projected Hessian (via-far) is numerically singular "
              "(smallest eigenvalue -2.500e-13)")
    far = json.loads((out / "solution-via-far.json").read_text())
    assert far["status"] == "converged" and far["dropReason"] == reason
    assert "dropReason" not in json.loads((out / "solution-via-near.json").read_text())
    report = (out / "report.txt").read_text()
    assert f"dropped: {reason}" in report
    header, rows = _read_csv(out / "weights.csv")
    assert header == PLAN_WEIGHTS_HEADER

    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "tworoute", "--out", str(sim),
                 "--seeds", "0"]) == 0
    report = (sim / "report.txt").read_text()
    assert f"dropped via-far: {reason}" in report
    assert "no converged solution" not in report


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_running_out_of_memory_names_the_command_and_the_horizon(
        tmp_path, monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array with shape "
                          "(100000000000, 2) and data type float64")

    monkeypatch.setattr("slgp.cli.solve", exhausted)
    with pytest.raises(SystemExit) as info:
        main([command, "--scenario", "tworoute", "--out", str(tmp_path / "x")])
    assert str(info.value.code) == (
        f"{command}: out of memory on scenario tworoute (N=40, d=2): Unable to "
        "allocate 1.46 TiB for an array with shape (100000000000, 2) and data "
        "type float64")


def test_unknown_subcommand_and_scenario_are_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["explode"])
    with pytest.raises(SystemExit):
        main(["plan", "--scenario", "juggling", "--out", str(tmp_path)])


# --- selftest ---------------------------------------------------------------


def test_selftest_subset_passes():
    assert main(["selftest", "--suite", "nullspace", "--suite",
                 "simplex"]) == 0


def test_selftest_future_suite_passes():
    assert main(["selftest", "--suite", "future"]) == 0


def test_selftest_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["selftest", "--suite", "astrology"])
