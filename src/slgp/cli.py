"""Command-line front end: plan, simulate, selftest.

Outputs are deterministic byte-for-byte across reruns: JSON is written
with sorted keys, nothing records wall-clock time, and every random
stream is seeded explicitly.

Skeletons (plan) and seeds (simulate) run one after another on one
thread.  The solves and rollouts are mostly Python code holding the global
interpreter lock, so a thread pool does not overlap them: on 2 CPUs, elbow
plan took 0.83 s on two threads against 0.42 s on one, and tworoute
simulate over 20 seeds 0.18 s against 0.10 s.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .execution import (BLENDING, SWITCHING, RolloutError, build_controller,
                        rollout)
from .kodp import read_policy
from .laplace import (UNIFORM_NA, UNNORMALIZED, SingularComponentError,
                      build_component, build_mixture)
from .problem import validate_skeleton
from .scenarios import Scenario, ScenarioParams, build_scenario
from .selftest import ALL_SUITES, run_suites
from .solver import SolverConfig, solve


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _parse_set(expr: str) -> tuple[str, object]:
    key, eq, raw = expr.partition("=")
    if not eq or not key:
        raise SystemExit(f"--set expects key=value, got '{expr}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _assign(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise SystemExit(f"--set path '{dotted}' crosses a non-section key")
    node[parts[-1]] = value


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise SystemExit("config file must hold a JSON object")
        cfg = loaded
    for expr in getattr(args, "set", None) or []:
        key, value = _parse_set(expr)
        _assign(cfg, key, value)
    return cfg


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise SystemExit(f"config section '{name}' must be an object")
    return section


def _scenario_params(args, cfg: dict) -> ScenarioParams:
    section = dict(_section(cfg, "scenario"))
    if args.scenario:
        section["name"] = args.scenario
    kwargs = {}
    valid = {f.name for f in fields(ScenarioParams)}
    for key, value in section.items():
        # Exact field names first: _snake would fold N and T to lowercase.
        name = key if key in valid else _snake(key)
        if name not in valid:
            raise SystemExit(f"unknown scenario parameter '{key}'")
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return ScenarioParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad scenario parameters: {exc}") from exc


_EXECUTION_KEYS = ("controller", "hysteresis", "noiseScale", "priorMode")


def _nonnegative(name: str, value) -> float:
    """value as a finite float >= 0, or SystemExit naming it."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not 0.0 <= number < np.inf:
        raise SystemExit(f"{name} must be a finite number >= 0, got {value!r}")
    return number


def _execution_config(cfg: dict) -> dict:
    """The execution section with its defaults filled in, checked."""
    section = _section(cfg, "execution")
    for key in section:
        if key not in _EXECUTION_KEYS:
            raise SystemExit(f"unknown execution parameter '{key}'; choose from "
                             f"{', '.join(_EXECUTION_KEYS)}")
    out = {"controller": section.get("controller", SWITCHING),
           "priorMode": section.get("priorMode", UNNORMALIZED)}
    if out["controller"] not in (BLENDING, SWITCHING):
        raise SystemExit(f"unknown controller mode {out['controller']!r}")
    if out["priorMode"] not in (UNNORMALIZED, UNIFORM_NA):
        raise SystemExit(f"unknown priorMode {out['priorMode']!r}")
    for key, default in (("hysteresis", 0.0), ("noiseScale", 1.0)):
        out[key] = _nonnegative(f"execution.{key}", section.get(key, default))
    return out


def _solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig.from_dict(_section(cfg, "solver"))
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad solver config: {exc}") from exc


def _workers(count: int) -> int:
    """Threads used for count independent tasks: always 1.

    Kept only because the benchmark's traced run reports it as
    `cli.workers`; delete it with that metric.
    """
    return 1


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _kkt_dict(kkt) -> dict:
    return {"stationarity": kkt.stationarity, "eqViolation": kkt.eq_violation,
            "ineqViolation": kkt.ineq_violation,
            "complementarity": kkt.complementarity}


def _plan_scenario(scenario: Scenario, solver_cfg: SolverConfig,
                   collect_trace: bool = False):
    """Solve every skeleton and build the Laplace components.

    Returns (solutions, components, drop reasons) in skeleton order; a
    skeleton without a component has None there and the reason: the solver
    status, or the SingularComponentError naming the skeleton, the step
    and the smallest eigenvalue of the singular pivot.
    """
    for sk in scenario.skeletons:
        bad = validate_skeleton(sk, scenario.successors, scenario.problem.N)
        if bad:
            raise SystemExit(f"skeleton '{sk.id}' invalid: "
                             + "; ".join(v.message for v in bad))

    solutions = [solve(scenario.problem, sk, config=solver_cfg,
                       collect_trace=collect_trace)
                 for sk in scenario.skeletons]
    components, reasons = [], []
    for sk, sol in zip(scenario.skeletons, solutions):
        comp, reason = None, None
        if not sol.converged:
            reason = f"solver status {sol.status}"
        else:
            try:
                comp = build_component(scenario.problem, sk, sol)
            except SingularComponentError as exc:
                reason = str(exc)
        components.append(comp)
        reasons.append(reason)
    return solutions, components, reasons


def _solution_payload(sk, sol, comp, weight, reason) -> dict:
    payload = {
        "skeletonId": sk.id,
        "status": sol.status,
        "fStar": sol.f_star,
        "kkt": _kkt_dict(sol.kkt),
        "outerIterations": sol.outer_iterations,
        "innerIterations": sol.inner_iterations,
        "xStar": sol.x_star.tolist(),
        "activeInequalities": int(np.sum(sol.active_set)),
    }
    if comp is not None:
        payload["logRatio"] = comp.log_ratio
        payload["rank"] = comp.rank
    if weight is not None:
        payload["weight"] = weight
    if reason is not None:
        payload["dropReason"] = reason
    return payload


def cmd_plan(args) -> int:
    cfg = _load_config(args)
    params = _scenario_params(args, cfg)
    scenario = build_scenario(params)
    solver_cfg = _solver_config(cfg)
    prior_mode = _execution_config(cfg)["priorMode"]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    solutions, components, reasons = _plan_scenario(scenario, solver_cfg,
                                                    collect_trace=args.trace)
    live = [c for c in components if c is not None]
    mixture = build_mixture(live, prior_mode=prior_mode) if live else None
    weight_of = ({c.skeleton_id: float(w) for c, w in zip(live, mixture.weights)}
                 if mixture else {})

    for sk, sol, comp, reason in zip(scenario.skeletons, solutions, components, reasons):
        _write_json(out / f"solution-{sk.id}.json",
                    _solution_payload(sk, sol, comp, weight_of.get(sk.id), reason))
        if args.trace and sol.trace:
            _write_csv(out / f"trace-{sk.id}.csv",
                       ("outer", "inner", "merit", "violation", "stepNorm"),
                       [(o, i, repr(m), repr(v), repr(s))
                        for o, i, m, v, s in sol.trace])
    if mixture:
        _write_json(out / "mixture.json", mixture.to_dict())
    _write_csv(out / "weights.csv",
               ("skeletonId", "status", "fStar", "logRatio", "entropyRatio",
                "rank", "weight"),
               [(sk.id, sol.status, repr(sol.f_star),
                 repr(comp.log_ratio) if comp else "",
                 repr(float(np.exp(comp.log_ratio))) if comp else "",
                 comp.rank if comp else "",
                 repr(weight_of[sk.id]) if sk.id in weight_of else "")
                for sk, sol, comp in zip(scenario.skeletons, solutions, components)])

    lines = [f"scenario: {scenario.name} (N={params.N}, d={scenario.problem.d}, "
             f"dt={params.dt:g}, sigma={params.sigma:g})",
             f"skeletons: {len(scenario.skeletons)}, converged: "
             f"{sum(s.converged for s in solutions)}"]
    for sk, sol, comp, reason in zip(scenario.skeletons, solutions, components, reasons):
        part = (f"  {sk.id:<16} status={sol.status:<20} fStar={sol.f_star:.6f}")
        if comp is not None:
            part += (f" logRatio={comp.log_ratio:.6f}"
                     f" weight={weight_of.get(sk.id, 0.0):.6f}")
        else:
            part += f" dropped: {reason}"
        lines.append(part)
    if mixture:
        lines.append(f"multimodal cost ({prior_mode}): {mixture.cost:.6f}")
    _write_text(out / "report.txt", "\n".join(lines) + "\n")

    print("\n".join(lines))
    return 0 if all(s.converged for s in solutions) else 1


def _parse_seeds(expr: str) -> list[int]:
    expr = expr.strip()
    if ".." in expr:
        lo, _, hi = expr.partition("..")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise SystemExit(f"bad --seeds range '{expr}'")
        if b < a:
            raise SystemExit(f"empty --seeds range '{expr}'")
        return list(range(a, b + 1))
    try:
        return [int(expr)]
    except ValueError:
        raise SystemExit(f"bad --seeds value '{expr}'")


def _parse_disturb(exprs) -> list[tuple[int, np.ndarray]]:
    out = []
    for expr in exprs or []:
        step, colon, rest = expr.partition(":")
        try:
            vec = np.array([float(v) for v in rest.split(",")])
            out.append((int(step), vec))
        except ValueError:
            colon = ""
        if not colon:
            raise SystemExit(f"--disturb expects step:v1,v2,..., got '{expr}'")
        if not np.isfinite(vec).all():
            raise SystemExit(f"--disturb entries must be finite, got '{expr}'")
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    params = _scenario_params(args, cfg)
    scenario = build_scenario(params)
    solver_cfg = _solver_config(cfg)
    exec_cfg = _execution_config(cfg)
    mode = args.controller or exec_cfg["controller"]
    hysteresis = (exec_cfg["hysteresis"] if args.hysteresis is None
                  else _nonnegative("--hysteresis", args.hysteresis))
    noise = (exec_cfg["noiseScale"] if args.noise is None
             else _nonnegative("--noise", args.noise))
    seeds = _parse_seeds(args.seeds)
    disturbances = _parse_disturb(args.disturb)
    for step, vec in disturbances:
        if vec.shape != (scenario.problem.d,):
            raise SystemExit(f"--disturb vector needs {scenario.problem.d} entries")
        if not 1 <= step <= scenario.problem.N:
            raise SystemExit(f"--disturb step {step} outside [1, {scenario.problem.N}]")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    solutions, components, reasons = _plan_scenario(scenario, solver_cfg)
    kept = [c for c in components if c is not None]
    dropped = [(sk.id, reason) for sk, reason in zip(scenario.skeletons, reasons)
               if reason is not None]
    if not kept:
        lost = "kept" if any(s.converged for s in solutions) else "converged"
        print(f"no skeleton {lost}; nothing to execute", file=sys.stderr)
        for sid, reason in dropped:
            print(f"dropped {sid}: {reason}", file=sys.stderr)
        return 2
    policies = [read_policy(c.elimination, c.skeleton_id, c.x_star, c.prefix)
                for c in kept]
    controller = build_controller(policies, kept, mode=mode, hysteresis=hysteresis)

    if args.truth:
        try:
            truth = scenario.skeleton(args.truth)
        except KeyError:
            raise SystemExit(
                f"unknown truth skeleton '{args.truth}'; choose from "
                f"{sorted(sk.id for sk in scenario.skeletons)}") from None
    elif scenario.truth is not None:
        truth = scenario.truth
    else:
        mixture = build_mixture(kept)
        truth = scenario.skeleton(kept[int(np.argmax(mixture.weights))].skeleton_id)

    target = (None if scenario.target_coords is None
              else (scenario.target_coords, scenario.target_values))

    def run(seed: int):
        try:
            ro = rollout(scenario.problem, truth, controller, noise_scale=noise,
                         disturbances=disturbances, seed=seed, target=target)
            return seed, ro, None
        except RolloutError as exc:
            return seed, None, str(exc)

    results = [run(seed) for seed in seeds]

    ids = [p.skeleton_id for p in controller.policies]
    records, rows, weight_rows = [], [], []
    errors, deviations = [], []
    aborted = 0
    switch_counts = []
    for seed, ro, failure in results:
        if ro is None:
            aborted += 1
            records.append({"seed": seed, "aborted": True, "reason": failure})
            rows.append((seed, 1, "", "", "", ""))
            continue
        err = scenario.final_error(ro.path[-1])
        # Distance to the nearest executed plan; identical remaining value
        # functions can tie the weights, so the last active label alone does
        # not identify which reference the path tracked.
        deviation = min(float(np.linalg.norm(ro.path[-1] - p.x_ref[-1]))
                        for p in controller.policies)
        errors.append(err)
        deviations.append(deviation)
        switches = int(np.sum(ro.active[1:] != ro.active[:-1]))
        switch_counts.append(switches)
        for n in range(scenario.problem.N):
            records.append({
                "seed": seed, "n": n + 1,
                "x": ro.path[n].tolist(),
                "command": ro.commands[n].tolist(),
                "weights": [float(v) for v in ro.weights[n]],
                "active": ids[int(ro.active[n])],
            })
            weight_rows.append((seed, n + 1, ids[int(ro.active[n])],
                                *(repr(float(v)) for v in ro.weights[n])))
        rows.append((seed, 0, repr(err), repr(deviation),
                     repr(ro.total_cost), switches))

    _write_text(out / "rollouts.jsonl",
                "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    _write_csv(out / "summary.csv",
               ("seed", "aborted", "finalError", "planDeviation", "totalCost",
                "switchCount"), rows)
    _write_csv(out / "weights.csv",
               ("seed", "step", "active", *(f"w_{sid}" for sid in ids)),
               weight_rows)

    lines = [f"scenario: {scenario.name}  controller: {mode}  "
             f"hysteresis: {hysteresis:g}  noise: {noise:g}",
             f"truth skeleton: {truth.id}",
             f"skeletons executed: {', '.join(c.skeleton_id for c in kept)}"]
    lines.extend(f"dropped {sid}: {reason}" for sid, reason in dropped)
    lines.extend(f"policy {p.skeleton_id} step {n}: {note}"
                 for p in policies for n, note in p.notes)
    lines.append(f"seeds: {seeds[0]}..{seeds[-1]} ({len(seeds)} total), "
                 f"aborted: {aborted}")
    if errors:
        arr = np.array(errors)
        lines.append(f"final error: mean {arr.mean():.6f}, "
                     f"rms {float(np.sqrt(np.mean(arr ** 2))):.6f}, "
                     f"max {arr.max():.6f}")
        lines.append(f"plan deviation at final step: max {max(deviations):.2e}")
        lines.append(f"mean switches per rollout: {np.mean(switch_counts):.2f}")
    _write_text(out / "report.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if aborted < len(seeds) else 1


def cmd_selftest(args) -> int:
    names = args.suite or None
    results = run_suites(names)
    return 0 if all(ok for _, ok, _ in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slgp",
        description="Skeleton-conditioned path mixtures: plan, simulate, selftest.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", choices=("elbow", "push", "tworoute"),
                       help="scenario name (overrides config)")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dot-path config override, e.g. solver.muInit=2")
        p.add_argument("--out", default="out", help="output directory")

    plan = sub.add_parser("plan", help="solve all skeletons and build the mixture")
    common(plan)
    plan.add_argument("--trace", action="store_true",
                      help="write per-skeleton solver traces")
    plan.set_defaults(func=cmd_plan)

    sim = sub.add_parser("simulate", help="roll out the composite controller")
    common(sim)
    sim.add_argument("--controller", choices=(BLENDING, SWITCHING))
    sim.add_argument("--noise", type=float, help="noise scale (default 1.0)")
    sim.add_argument("--hysteresis", type=float)
    sim.add_argument("--disturb", action="append", metavar="STEP:V1,V2,...",
                     help="impulse added after the step's command")
    sim.add_argument("--seeds", default="0", help="seed or inclusive range a..b")
    sim.add_argument("--truth", help="skeleton id used as rollout truth")
    sim.set_defaults(func=cmd_simulate)

    st = sub.add_parser("selftest", help="run the diagnostic suites")
    st.add_argument("--suite", action="append", choices=sorted(ALL_SUITES),
                    help="run only the named suite (repeatable)")
    st.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
