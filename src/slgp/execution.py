"""Composite execution of per-skeleton policies with on-the-fly weights.

At step n with observed past x_{n-2:n-1} each skeleton's weight combines
its quadratic cost-to-go at the deviation from its own reference with the
precomputed log entropy ratio of its conditional future distribution:

    w_i  propto  exp(-J_n^{(i)}(past - past*_i) + future_log_ratio_i(n)).

A command is the absolute next configuration: each policy applies its
feedback deviation to its own reference path, and the controller either
blends the commands by weight or switches to the best skeleton (with
optional hysteresis).  Rollouts inject Brownian-scale noise into actuated
coordinates and project the realized configuration back onto the active
equality manifold of the executing skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .kodp import KodpPolicy, cost_to_go, step_policy
from .laplace import LaplaceComponent, future_log_ratios
from .problem import PathProblem, Skeleton, assemble, cost_value, step_constraints

Array = np.ndarray

BLENDING = "blending"
SWITCHING = "switching"

_PROJECT_TOL = 1e-10
_PROJECT_MAX_ITER = 20


class RolloutError(RuntimeError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"rollout aborted at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True)
class CompositeController:
    policies: tuple[KodpPolicy, ...]
    components: tuple[LaplaceComponent, ...]
    future_ratios: Array
    mode: str
    hysteresis: float = 0.0

    @property
    def skeleton_ids(self) -> tuple[str, ...]:
        return tuple(p.skeleton_id for p in self.policies)


def build_controller(policies, components, mode: str = SWITCHING,
                     hysteresis: float = 0.0) -> CompositeController:
    """Pair policies with their Laplace components and precompute the
    per-step future log entropy ratios."""
    policies = tuple(policies)
    components = tuple(components)
    if mode not in (BLENDING, SWITCHING):
        raise ValueError(f"unknown mode '{mode}'")
    if hysteresis < 0.0:
        raise ValueError("hysteresis must be nonnegative")
    if len(policies) != len(components) or not policies:
        raise ValueError("need one component per policy")
    for p, c in zip(policies, components):
        if p.skeleton_id != c.skeleton_id:
            raise ValueError(f"policy '{p.skeleton_id}' paired with "
                             f"component '{c.skeleton_id}'")
    ratios = np.stack([future_log_ratios(c) for c in components])
    return CompositeController(policies=policies, components=components,
                               future_ratios=ratios, mode=mode,
                               hysteresis=hysteresis)


def _deltas(controller: CompositeController, n: int, past: Array) -> Array:
    past = np.asarray(past, dtype=float)
    return np.stack([(past - p.past_reference(n)).ravel()
                     for p in controller.policies])


def online_weights(controller: CompositeController, n: int, past: Array) -> Array:
    """Normalized skeleton weights at step n given the observed past pair."""
    deltas = _deltas(controller, n, past)
    logits = np.array([
        -cost_to_go(p, n, dp) + controller.future_ratios[i, n - 1]
        for i, (p, dp) in enumerate(zip(controller.policies, deltas))
    ])
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def select_skeleton(weights: Array, incumbent: int | None, hysteresis: float) -> int:
    """Argmax with first-index tie-break; a positive hysteresis keeps the
    incumbent unless the challenger beats it by that margin."""
    best = int(np.argmax(weights))
    if incumbent is None or hysteresis == 0.0:
        return best
    if best != incumbent and weights[best] > weights[incumbent] + hysteresis:
        return best
    return incumbent


def _control(controller: CompositeController, n: int, past: Array,
             incumbent: int | None) -> tuple[Array, int, Array]:
    """One controller step: the weights, the chosen skeleton and the
    command, weighing the skeletons once.  In blending mode the chosen
    skeleton is the heaviest one and the command blends all of them."""
    weights = online_weights(controller, n, past)
    deltas = _deltas(controller, n, past)
    commands = np.stack([
        p.reference(n) + step_policy(p, n, dp)[0]
        for p, dp in zip(controller.policies, deltas)
    ])
    if controller.mode == BLENDING:
        return weights, int(np.argmax(weights)), weights @ commands
    chosen = select_skeleton(weights, incumbent, controller.hysteresis)
    return weights, chosen, commands[chosen]


def compose(controller: CompositeController, n: int, past: Array,
            incumbent: int | None = None) -> Array:
    """Next-configuration command at step n for the observed past pair."""
    return _control(controller, n, past, incumbent)[2]


@dataclass(frozen=True)
class Rollout:
    path: Array
    commands: Array
    weights: Array
    active: Array
    seed: int
    final_error: float
    total_cost: float
    violation_trace: Array


def _project_equalities(problem: PathProblem, skeleton: Skeleton, n: int,
                        past: Array, x_guess: Array) -> Array:
    """Newton projection of x_n onto the step's active equality manifold."""
    eq_feats, _ = step_constraints(skeleton, n)
    if not eq_feats:
        return x_guess
    d = problem.d
    x = x_guess.copy()
    for _ in range(_PROJECT_MAX_ITER):
        vals = []
        jacs = []
        for _, feat in eq_feats:
            window = np.vstack([past, x[None, :]])[-feat.window:]
            value, jac = feat.eval(window)
            vals.append(np.atleast_1d(np.asarray(value, dtype=float)))
            jacs.append(np.asarray(jac, dtype=float)[:, -d:])
        h = np.concatenate(vals)
        if np.abs(h).max() <= _PROJECT_TOL:
            return x
        J = np.vstack(jacs)
        dx, *_ = np.linalg.lstsq(J, -h, rcond=None)
        x = x + dx
    raise RolloutError(n, f"equality projection stalled, residual {np.abs(h).max():.3e}, "
                          f"last step norm {np.abs(dx).max():.3e}")


def rollout(problem: PathProblem, truth_skeleton: Skeleton,
            controller: CompositeController, noise_scale: float = 1.0,
            disturbances=(), seed: int = 0,
            target: tuple[Array, Array] | None = None) -> Rollout:
    """Execute the composite controller for one noise realization.

    Noise per step is zero-mean with per-axis std sigma * noise_scale *
    dt^{3/2}, injected only into actuated coordinates; disturbances are
    (step, vector) impulses.  After each realized step the configuration
    is projected onto the executing skeleton's active equality rows.
    target, when given, is (coords, values) for the final-error metric.
    """
    N, d = problem.N, problem.d
    K = len(controller.policies)
    rng = np.random.default_rng(seed)
    bumps = {int(step): np.asarray(vec, dtype=float) for step, vec in disturbances}
    std = problem.sigma * noise_scale * problem.dt**1.5

    path = np.zeros((N, d))
    commands = np.zeros((N, d))
    weights = np.zeros((N, K))
    active = np.zeros(N, dtype=int)
    past = np.asarray(problem.prefix, dtype=float).copy()
    incumbent: int | None = None

    for n in range(1, N + 1):
        weights[n - 1], incumbent, cmd = _control(controller, n, past, incumbent)
        active[n - 1] = incumbent
        commands[n - 1] = cmd
        x = cmd.copy()
        if noise_scale > 0.0:
            eta = rng.standard_normal(d) * std
            eta[~problem.actuated] = 0.0
            x = x + eta
        if n in bumps:
            x = x + bumps[n]
        x = _project_equalities(problem, truth_skeleton, n, past, x)
        path[n - 1] = x
        past = np.vstack([past[1], x])

    stack = assemble(problem, truth_skeleton, path)
    trace = np.zeros(N)
    np.maximum.at(trace, stack.eq_steps - 1, np.abs(stack.eq))
    np.maximum.at(trace, stack.ineq_steps - 1, np.clip(stack.ineq, 0.0, None))
    final_error = float("nan")
    if target is not None:
        coords, values = target
        final_error = float(np.linalg.norm(path[-1, np.asarray(coords, int)]
                                           - np.asarray(values, float)))
    return Rollout(path=path, commands=commands, weights=weights, active=active,
                   seed=seed, final_error=final_error,
                   total_cost=cost_value(stack), violation_trace=trace)


def rms_final_error(rollouts, coords, values) -> float:
    """Root-mean-square final distance to the target across rollouts.

    Accepts Rollout objects or raw (N, d) paths.
    """
    coords = np.asarray(coords, dtype=int)
    values = np.asarray(values, dtype=float)
    sq = []
    for item in rollouts:
        path = item.path if isinstance(item, Rollout) else np.asarray(item, float)
        err = path[-1, coords] - values
        sq.append(float(err @ err))
    if not sq:
        raise ValueError("no rollouts given")
    return float(np.sqrt(np.mean(sq)))
