"""Command-line surface: artifacts, schemas, determinism, exit codes."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from slgp.cli import main
from slgp.laplace import SingularComponentError, build_component, eliminate
from slgp.problem import assemble

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
    assert payload["schema"] == "slgp.mixture/1"
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


# --- simulate ---------------------------------------------------------------


def test_disturbed_routes_switch_to_the_far_waypoint(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "tworoute", "--out", str(out),
                 "--disturb", "12:0.0,0.8", "--seeds", "1..20"])
    assert code == 0
    header, rows = _read_csv(out / "weights.csv")
    assert header[:3] == ["seed", "step", "active"]
    far_col = header.index("w_via-far")
    for seed, step, active, *ws in rows:
        if int(step) < 12:
            assert active == "via-near"
            assert float(ws[far_col - 3]) < 0.5
    finals = {r[0]: r for r in rows if int(r[1]) == 40}
    assert len(finals) == 20
    assert all(r[2] == "via-far" for r in finals.values())
    assert all(float(r[far_col]) > 0.5 for r in finals.values())

    header, srows = _read_csv(out / "summary.csv")
    assert header == SUMMARY_HEADER
    assert len(srows) == 20
    assert all(int(r[5]) >= 1 for r in srows)

    steps = [json.loads(line)
             for line in (out / "rollouts.jsonl").read_text().splitlines()]
    assert len(steps) == 20 * 40
    assert {"seed", "n", "x", "command", "weights", "active"} <= set(steps[0])


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
    # skeleton is eliminated again for its policy.
    calls = []

    def counting(expansion, *args, **kwargs):
        calls.append(expansion.skeleton_id)
        return eliminate(expansion, *args, **kwargs)

    for module in ("slgp.laplace", "slgp.kodp"):
        monkeypatch.setattr(f"{module}.eliminate", counting)
    assert main(["simulate", "--scenario", "tworoute", "--seeds", "0",
                 "--out", str(tmp_path / "once")]) == 0
    assert sorted(calls) == ["via-far", "via-near"]


def test_bad_arguments_exit_with_a_message(tmp_path):
    out = str(tmp_path / "x")
    for argv in (
        ["simulate", "--scenario", "tworoute", "--out", out,
         "--seeds", "a..z"],
        ["simulate", "--scenario", "tworoute", "--out", out,
         "--disturb", "12:zero"],
        ["simulate", "--scenario", "tworoute", "--out", out,
         "--disturb", "12:0.0"],
        ["simulate", "--scenario", "tworoute", "--out", out,
         "--disturb", "0:0.0,0.8"],
        ["simulate", "--scenario", "tworoute", "--out", out,
         "--truth", "via-nowhere"],
        ["plan", "--scenario", "tworoute", "--out", out,
         "--set", "scenario.bogus=1"],
        ["plan", "--scenario", "tworoute", "--out", out,
         "--set", "solver.bogus=2"],
        ["plan", "--scenario", "tworoute", "--out", out, "--set", "oops"],
        ["plan", "--scenario", "tworoute", "--out", out,
         "--set", "scenario.N=2"],
    ):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.mark.parametrize("command", ["plan", "simulate"])
@pytest.mark.parametrize("key", ["hysterisis", "effortWeight"])
def test_unknown_execution_keys_are_rejected(tmp_path, command, key):
    # A misspelt or retired key must not be silently ignored.
    with pytest.raises(SystemExit, match=f"unknown execution parameter '{key}'"):
        main([command, "--scenario", "tworoute", "--out", str(tmp_path / "x"),
              "--set", f"execution.{key}=0.1"])
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scenario, extra, message", [
    ("push", ["--disturb", "20:nan,0,0,0,0,0,0"],
     "--disturb entries must be finite, got '20:nan,0,0,0,0,0,0'"),
    ("tworoute", ["--noise", "-1"], "--noise must be a finite number >= 0, got -1.0"),
    ("tworoute", ["--noise", "nan"], "--noise must be a finite number >= 0, got nan"),
    ("tworoute", ["--hysteresis", "-1"],
     "--hysteresis must be a finite number >= 0, got -1.0"),
    ("tworoute", ["--hysteresis", "nan"],
     "--hysteresis must be a finite number >= 0, got nan"),
    ("tworoute", ["--set", "execution.noiseScale=abc"],
     "execution.noiseScale must be a finite number >= 0, got 'abc'"),
    ("tworoute", ["--set", "execution.priorMode=bogus"], "unknown priorMode 'bogus'"),
], ids=["disturb-nan", "noise-negative", "noise-nan", "hysteresis-negative",
        "hysteresis-nan", "noise-scale-text", "prior-mode-unknown"])
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
    ("execution=3", "config section 'execution' must be an object"),
    ("solver.maxOuter=abc", "bad solver config: max_outer must be an integer >= 1, got 'abc'"),
    ("solver.maxOuter=2.5", "bad solver config: max_outer must be an integer >= 1, got 2.5"),
    ("solver.maxOuter=true", "bad solver config: max_outer must be a number, got True"),
    ("solver.maxInner=0", "bad solver config: max_inner must be an integer >= 1, got 0"),
    ("solver.tolStep=0", "bad solver config: tol_step must be a finite number > 0, got 0"),
    ("solver.muGrowth=Infinity",
     "bad solver config: mu_growth must be a finite number > 0, got inf"),
    ("solver.armijoShrink=1", "bad solver config: armijo_shrink must be below 1, got 1"),
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


def test_singular_pivot_is_named_at_plan_time(tmp_path, monkeypatch, capsys):
    # Leave the last step's effort rows out of every component: x_N gets no
    # effort curvature, so the effort Hessian pivot at step N is singular.
    def last_step_without_effort(problem, skeleton, x):
        stack = assemble(problem, skeleton, x)
        return dataclasses.replace(
            stack, effort_mask=stack.effort_mask & (stack.cost_steps != problem.N))

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
    def singular(problem, skeleton, solution):
        raise SingularComponentError(f"toy pivot of '{skeleton.id}'", -1.0)

    monkeypatch.setattr("slgp.cli.build_component", singular)
    code = main(["simulate", "--scenario", "tworoute", "--out",
                 str(tmp_path / "sim"), "--seeds", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("no skeleton kept; nothing to execute\n")
    for sid in ("via-near", "via-far"):
        assert (f"dropped {sid}: toy pivot of '{sid}' is numerically singular "
                "(smallest eigenvalue -1.000e+00)") in err
    assert "converged" not in err


def test_simulate_says_when_no_skeleton_converged(tmp_path, capsys):
    code = main(["simulate", "--scenario", "tworoute", "--out",
                 str(tmp_path / "sim"), "--seeds", "0",
                 "--set", "solver.maxOuter=1", "--set", "solver.maxInner=1"])
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
    def singular_far(problem, skeleton, solution):
        if skeleton.id == "via-far":
            raise SingularComponentError("projected Hessian (via-far)", -2.5e-13)
        return build_component(problem, skeleton, solution)

    monkeypatch.setattr("slgp.cli.build_component", singular_far)
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
