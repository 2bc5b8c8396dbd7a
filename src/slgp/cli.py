"""Command-line front end: plan, simulate, selftest.

Outputs are deterministic byte-for-byte across reruns: JSON is written
with sorted keys, nothing records wall-clock time, and every random
stream is seeded explicitly.

Each command checks every argument before it plans, so a bad argument
exits with a message before any skeleton is solved or any output
directory is created.  It then plans once: it solves every skeleton, then
builds the Laplace components of the converged ones in one elimination
pass, into one record per skeleton, and writes every artifact from those
records.  `simulate` writes each seed's rollout records as soon as the
seed finishes, so its memory does not grow with the record count.

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
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .execution import (BLENDING, SWITCHING, RolloutError, build_controller,
                        check_disturbance, rollout)
from .laplace import (UNNORMALIZED, LaplaceComponent, build_components,
                      build_mixture)
from .problem import FeatureEvalError
from .scenarios import Scenario, ScenarioParams, build_scenario
from .selftest import ALL_SUITES, run_suites
from .solver import SolverConfig, solve

_SECTIONS = {"scenario": ScenarioParams, "solver": SolverConfig}


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


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
    """Set the dotted key after dropping its setting's earlier key, in either
    spelling, so the value given last comes last and _config keeps it."""
    *path, key = dotted.split(".")
    node = cfg
    for part in path:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise SystemExit(f"--set path '{dotted}' crosses a non-section key")
    for same in [k for k in node if _camel(k) == _camel(key)]:
        del node[same]
    node[key] = value


def _load_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read config file '{args.config}': {exc}") from None
        if not isinstance(loaded, dict):
            raise SystemExit("config file must hold a JSON object")
        cfg = loaded
    for expr in getattr(args, "set", None) or []:
        key, value = _parse_set(expr)
        _assign(cfg, key, value)
    for name in cfg:
        if name not in _SECTIONS:
            raise SystemExit(f"unknown config section '{name}'; choose from "
                             f"{', '.join(_SECTIONS)}")
    return cfg


def _config(cfg: dict, section: str, **overrides):
    """The section's dataclass from its keys, then the overrides.  A key is
    a field name or its camelCase form; any other key, and any value the
    dataclass rejects, exits naming it."""
    entries = cfg.get(section, {})
    if not isinstance(entries, dict):
        raise SystemExit(f"config section '{section}' must be an object")
    names = [f.name for f in fields(_SECTIONS[section])]
    field_of = {form: name for name in names for form in (name, _camel(name))}
    kwargs = {}
    for key, value in entries.items():
        if key not in field_of:
            raise SystemExit(f"unknown {section} parameter '{key}'; choose from "
                             f"{', '.join(_camel(name) for name in names)}")
        kwargs[field_of[key]] = tuple(value) if isinstance(value, list) else value
    try:
        return _SECTIONS[section](**{**kwargs, **overrides})
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad {section} config: {exc}") from exc


def _scenario(args, cfg: dict) -> Scenario:
    overrides = {"name": args.scenario} if args.scenario else {}
    try:
        return build_scenario(_config(cfg, "scenario", **overrides))
    except ValueError as exc:
        raise SystemExit(f"bad scenario config: {exc}") from exc


def _nonnegative(name: str, value: float) -> float:
    """value if it is finite and >= 0, else SystemExit naming it."""
    if not 0.0 <= value < np.inf:
        raise SystemExit(f"{name} must be a finite number >= 0, got {value!r}")
    return value


# Beyond this magnitude the six decimals of .6f would print more digits
# than the 16 significant ones a double holds.
_FIXED_LIMIT = 1e10


def _fixed(value: float) -> str:
    """value with six decimals, or in exponent notation beyond _FIXED_LIMIT."""
    return f"{value:.6f}" if abs(value) < _FIXED_LIMIT else f"{value:.6e}"


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


def _plan_scenario(command: str, scenario: Scenario, solver_cfg: SolverConfig,
                   out: Path, collect_trace: bool = False):
    """Create out, solve every skeleton, then build the Laplace components
    of the converged ones in one elimination pass.

    Returns one (skeleton, solution, component, drop reason) record per
    skeleton, in skeleton order.  A skeleton without a component has None
    there and the reason: the solver status, or the SingularComponentError
    naming the skeleton, the step and the smallest eigenvalue of the
    singular pivot.  An out that cannot be created, a feature that fails
    at a skeleton's start path, and running out of memory exit naming the
    command and the path, the skeleton and feature, or the horizon.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"{command}: cannot create output directory '{out}': "
                         f"{exc.strerror}") from None
    solved = []
    try:
        for sk in scenario.skeletons:
            try:
                solved.append((sk, solve(scenario.problem, sk, config=solver_cfg,
                                         collect_trace=collect_trace)))
            except FeatureEvalError as exc:
                raise SystemExit(f"{command}: skeleton '{sk.id}' cannot be solved from "
                                 f"its start path: {exc}") from None
        built = iter(build_components(scenario.problem,
                                      [(sk, sol) for sk, sol in solved if sol.converged]))
    except MemoryError as exc:
        raise SystemExit(f"{command}: out of memory on scenario {scenario.name} "
                         f"(N={scenario.params.N}, d={scenario.problem.d}): {exc}") from None
    records = []
    for sk, sol in solved:
        comp = next(built) if sol.converged else f"solver status {sol.status}"
        records.append((sk, sol, comp, None) if isinstance(comp, LaplaceComponent)
                       else (sk, sol, None, str(comp)))
    return records


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
    scenario = _scenario(args, cfg)
    params = scenario.params
    solver_cfg = _config(cfg, "solver")

    out = Path(args.out)
    records = _plan_scenario("plan", scenario, solver_cfg, out, collect_trace=args.trace)
    live = [comp for _, _, comp, _ in records if comp is not None]
    mixture = build_mixture(live) if live else None
    weight_of = ({c.skeleton_id: float(w) for c, w in zip(live, mixture.weights)}
                 if mixture else {})

    rows = []
    lines = [f"scenario: {scenario.name} (N={params.N}, d={scenario.problem.d}, "
             f"dt={params.dt:g}, sigma={params.sigma:g})",
             f"skeletons: {len(records)}, converged: "
             f"{sum(sol.converged for _, sol, _, _ in records)}"]
    for sk, sol, comp, reason in records:
        weight = weight_of.get(sk.id)
        _write_json(out / f"solution-{sk.id}.json",
                    _solution_payload(sk, sol, comp, weight, reason))
        if args.trace and sol.trace:
            _write_csv(out / f"trace-{sk.id}.csv",
                       ("outer", "inner", "merit", "violation", "stepNorm", "mu",
                        "backtracks", "damping"),
                       [(o, i, repr(m), repr(v), repr(s), repr(mu), b, repr(dmp))
                        for o, i, m, v, s, mu, b, dmp in sol.trace])
        rows.append((sk.id, sol.status, repr(sol.f_star),
                     repr(comp.log_ratio) if comp else "",
                     repr(float(np.exp(comp.log_ratio))) if comp else "",
                     comp.rank if comp else "",
                     repr(weight) if weight is not None else ""))
        part = f"  {sk.id:<16} status={sol.status:<20} fStar={_fixed(sol.f_star)}"
        if comp is not None:
            part += f" logRatio={_fixed(comp.log_ratio)} weight={_fixed(weight)}"
        else:
            part += f" dropped: {reason}"
        lines.append(part)
    if mixture:
        _write_json(out / "mixture.json", mixture.to_dict())
        lines.append(f"multimodal cost ({UNNORMALIZED}): {_fixed(mixture.cost)}")
    _write_csv(out / "weights.csv",
               ("skeletonId", "status", "fStar", "logRatio", "entropyRatio",
                "rank", "weight"), rows)
    _write_text(out / "report.txt", "\n".join(lines) + "\n")

    print("\n".join(lines))
    return 0 if all(sol.converged for _, sol, _, _ in records) else 1


def _parse_seeds(expr: str) -> range:
    expr = expr.strip()
    lo, dots, hi = expr.partition("..")
    try:
        a = int(lo)
        b = int(hi) if dots else a
    except ValueError:
        raise SystemExit(f"bad --seeds {'range' if dots else 'value'} '{expr}'") from None
    if b < a:
        raise SystemExit(f"empty --seeds range '{expr}'")
    if a < 0:
        raise SystemExit(f"--seeds must be >= 0, got {a}")
    return range(a, b + 1)


def _parse_disturb(exprs, problem) -> list[tuple[int, np.ndarray]]:
    """The --disturb impulses, each checked by the rule rollout applies."""
    out = []
    for expr in exprs or []:
        step, colon, rest = expr.partition(":")
        try:
            step, vec = int(step), [float(v) for v in rest.split(",")]
        except ValueError:
            colon = ""
        if not colon:
            raise SystemExit(f"--disturb expects step:v1,v2,..., got '{expr}'")
        try:
            out.append(check_disturbance(step, vec, problem.N, problem.d))
        except ValueError as exc:
            raise SystemExit(f"--disturb {exc}, got '{expr}'") from None
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = _scenario(args, cfg)
    solver_cfg = _config(cfg, "solver")
    hysteresis = _nonnegative("--hysteresis", args.hysteresis)
    if hysteresis > 0 and args.controller == BLENDING:
        raise SystemExit(f"--hysteresis {hysteresis!r} has no effect with "
                         f"--controller {BLENDING}; it is a switching margin")
    noise = _nonnegative("--noise", args.noise)
    seeds = _parse_seeds(args.seeds)
    disturbances = _parse_disturb(args.disturb, scenario.problem)
    truth = scenario.truth
    if args.truth:
        try:
            truth = scenario.skeleton(args.truth)
        except KeyError:
            raise SystemExit(
                f"unknown truth skeleton '{args.truth}'; choose from "
                f"{sorted(sk.id for sk in scenario.skeletons)}") from None

    out = Path(args.out)
    records = _plan_scenario("simulate", scenario, solver_cfg, out)
    kept = [comp for _, _, comp, _ in records if comp is not None]
    dropped = [(sk.id, reason) for sk, _, _, reason in records if reason is not None]
    if not kept:
        lost = "kept" if any(sol.converged for _, sol, _, _ in records) else "converged"
        print(f"no skeleton {lost}; nothing to execute", file=sys.stderr)
        for sid, reason in dropped:
            print(f"dropped {sid}: {reason}", file=sys.stderr)
        return 2
    controller = build_controller([c.elimination for c in kept], kept,
                                  mode=args.controller, hysteresis=hysteresis)
    if truth is None:
        mixture = build_mixture(kept)
        truth = scenario.skeleton(kept[int(np.argmax(mixture.weights))].skeleton_id)

    ids = [c.skeleton_id for c in kept]
    errors, deviations, switch_counts = [], [], []
    encode = json.JSONEncoder(sort_keys=True).encode
    with (open(out / "rollouts.jsonl", "w", encoding="utf-8", newline="\n") as jsonl,
          open(out / "summary.csv", "w", encoding="utf-8", newline="") as summary_file,
          open(out / "weights.csv", "w", encoding="utf-8", newline="") as weights_file):
        summary = csv.writer(summary_file, lineterminator="\n")
        weight_rows = csv.writer(weights_file, lineterminator="\n")
        summary.writerow(("seed", "aborted", "finalError", "planDeviation", "totalCost",
                          "switchCount"))
        weight_rows.writerow(("seed", "step", "active", *(f"w_{sid}" for sid in ids)))
        for seed in seeds:
            try:
                ro = rollout(scenario.problem, truth, controller, noise_scale=noise,
                             disturbances=disturbances, seed=seed)
            except RolloutError as exc:
                jsonl.write(encode({"seed": seed, "aborted": True, "reason": str(exc)})
                            + "\n")
                summary.writerow((seed, 1, "", "", "", ""))
                continue
            err = scenario.final_error(ro.path[-1])
            # Distance to the nearest executed plan; identical remaining value
            # functions can tie the weights, so the last active label alone does
            # not identify which reference the path tracked.
            deviation = min(float(np.linalg.norm(ro.path[-1] - c.x_star[-1]))
                            for c in kept)
            errors.append(err)
            deviations.append(deviation)
            switches = int(np.sum(ro.active[1:] != ro.active[:-1]))
            switch_counts.append(switches)
            active = [ids[i] for i in ro.active.tolist()]
            weights = ro.weights.tolist()
            per_step = zip(ro.path.tolist(), ro.commands.tolist(), weights, active)
            jsonl.write("".join(
                encode({"seed": seed, "n": n, "x": x, "command": cmd, "weights": w,
                        "active": a}) + "\n"
                for n, (x, cmd, w, a) in enumerate(per_step, 1)))
            weight_rows.writerows((seed, n, a, *map(repr, w))
                                  for n, (a, w) in enumerate(zip(active, weights), 1))
            summary.writerow((seed, 0, repr(err), repr(deviation), repr(ro.total_cost),
                              switches))
    aborted = len(seeds) - len(errors)

    lines = [f"scenario: {scenario.name}  controller: {args.controller}  "
             f"hysteresis: {hysteresis:g}  noise: {noise:g}",
             f"truth skeleton: {truth.id}",
             f"skeletons executed: {', '.join(ids)}"]
    lines.extend(f"dropped {sid}: {reason}" for sid, reason in dropped)
    lines.extend(f"policy {c.skeleton_id} step {n}: {note}"
                 for c in kept for n, note in c.elimination.notes)
    lines.append(f"seeds: {seeds[0]}..{seeds[-1]} ({len(seeds)} total), "
                 f"aborted: {aborted}")
    if errors:
        arr = np.array(errors)
        lines.append(f"final error: mean {_fixed(arr.mean())}, "
                     f"rms {_fixed(float(np.sqrt(np.mean(arr ** 2))))}, "
                     f"max {_fixed(arr.max())}")
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
                       help="dot-path config override, e.g. solver.maxOuter=50")
        p.add_argument("--out", default="out", help="output directory")

    plan = sub.add_parser("plan", help="solve all skeletons and build the mixture")
    common(plan)
    plan.add_argument("--trace", action="store_true",
                      help="write per-skeleton solver traces")
    plan.set_defaults(func=cmd_plan)

    sim = sub.add_parser("simulate", help="roll out the composite controller")
    common(sim)
    sim.add_argument("--controller", choices=(BLENDING, SWITCHING), default=SWITCHING)
    sim.add_argument("--noise", type=float, default=1.0, help="noise scale")
    sim.add_argument("--hysteresis", type=float, default=0.0,
                     help="switching margin")
    sim.add_argument("--disturb", action="append", metavar="STEP:V1,V2,...",
                     help="impulse added after the step's command; impulses "
                          "at one step add up")
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
