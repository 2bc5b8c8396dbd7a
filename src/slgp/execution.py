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

import math
from dataclasses import dataclass, field
import numpy as np

from .kodp import KodpPolicy
from .laplace import future_log_ratios
from .problem import (FeatureEvalError, PathProblem, Skeleton, assemble,
                      cost_value, step_constraints, step_equalities)

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
    """Per-skeleton policies and their future log ratios.

    __post_init__ stacks the policies into per-step tables, so one control
    step is a few batched array operations over all K skeletons.  Row
    n-1 of each table serves step n:

      past_ref  (N, K, 2d)      reference (x_{n-2}, x_{n-1}), prefix-padded;
      V, v      (N, K, 2d[, 2d]) quadratic and linear cost-to-go terms;
      offset    (N, K)          v_bar minus the future log ratio;
      gain      (N, K, d, 2d)   feedback gains K;
      command   (N, K, d)       x_ref + u_ff, the command at zero deviation.
    """

    policies: tuple[KodpPolicy, ...]
    future_ratios: Array
    mode: str
    hysteresis: float = 0.0
    past_ref: Array = field(init=False, repr=False, compare=False)
    V: Array = field(init=False, repr=False, compare=False)
    v: Array = field(init=False, repr=False, compare=False)
    offset: Array = field(init=False, repr=False, compare=False)
    gain: Array = field(init=False, repr=False, compare=False)
    command: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pols = self.policies
        shapes = {p.x_ref.shape for p in pols}
        if len(shapes) != 1:
            raise ValueError(f"policies must share one horizon and dimension, "
                             f"got x_ref shapes {sorted(shapes)}")
        (N, _), = shapes
        if np.shape(self.future_ratios) != (len(pols), N):
            raise ValueError(f"future_ratios must have shape ({len(pols)}, {N}), "
                             f"got {np.shape(self.future_ratios)}")
        padded = np.stack([np.concatenate([p.prefix, p.x_ref]) for p in pols], axis=1)
        tables = {
            "past_ref": np.concatenate([padded[:-2], padded[1:-1]], axis=-1),
            "V": np.stack([p.V for p in pols], axis=1),
            "v": np.stack([p.v for p in pols], axis=1),
            "offset": (np.stack([p.v_bar for p in pols], axis=1)
                       - np.asarray(self.future_ratios, dtype=float).T),
            "gain": np.stack([p.K for p in pols], axis=1),
            "command": padded[2:] + np.stack([p.u_ff for p in pols], axis=1),
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)


def build_controller(policies, components, mode: str = SWITCHING,
                     hysteresis: float = 0.0) -> CompositeController:
    """Pair policies with their Laplace components and precompute the
    per-step future log entropy ratios and the stacked step tables."""
    policies = tuple(policies)
    components = tuple(components)
    if mode not in (BLENDING, SWITCHING):
        raise ValueError(f"unknown mode '{mode}'")
    if not hysteresis >= 0.0:
        raise ValueError(f"hysteresis must be nonnegative, got {hysteresis!r}")
    if len(policies) != len(components) or not policies:
        raise ValueError("need one component per policy")
    for p, c in zip(policies, components):
        if p.skeleton_id != c.skeleton_id:
            raise ValueError(f"policy '{p.skeleton_id}' paired with "
                             f"component '{c.skeleton_id}'")
    ratios = np.stack([future_log_ratios(c) for c in components])
    return CompositeController(policies=policies, future_ratios=ratios, mode=mode,
                               hysteresis=hysteresis)


def _deviations(controller: CompositeController, n: int, past: Array) -> Array:
    """Deviation of the observed past pair from every skeleton's reference
    pair at step n, as a (K, 2d) array."""
    N, _, two_d = controller.past_ref.shape
    if not 1 <= n <= N:
        raise ValueError(f"step {n} outside horizon [1, {N}]")
    past = np.asarray(past, dtype=float)
    if past.shape != (2, two_d // 2):
        raise ValueError(f"past at step {n} must have shape (2, {two_d // 2}), "
                         f"got {past.shape}")
    return past.reshape(two_d) - controller.past_ref[n - 1]


def online_weights(controller: CompositeController, n: int, past: Array) -> Array:
    """Normalized skeleton weights at step n given the observed past pair:
    all finite, or all NaN when the largest logit is not finite (the
    cost-to-go overflows), since a NaN then reaches the sum."""
    dp = _deviations(controller, n, past)
    Vdp = np.matmul(controller.V[n - 1], dp[:, :, None])[:, :, 0]
    logits = -np.einsum("ki,ki->k", dp, 0.5 * Vdp + controller.v[n - 1])
    logits -= controller.offset[n - 1]
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
    dp = _deviations(controller, n, past)
    commands = (controller.command[n - 1]
                + np.matmul(controller.gain[n - 1], dp[:, :, None])[:, :, 0])
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
    final_error: float
    total_cost: float


def _project_equalities(problem: PathProblem, skeleton: Skeleton, n: int,
                        padded: Array) -> None:
    """Newton projection of x_n, row n+1 of the prefix-padded path, onto
    the step's active equality manifold, in place."""
    eq, _ = step_constraints(skeleton, n)
    if not eq:
        return
    for _ in range(_PROJECT_MAX_ITER):
        h, J = step_equalities(eq, n, padded)
        if np.abs(h).max() <= _PROJECT_TOL:
            return
        dx, *_ = np.linalg.lstsq(J, -h, rcond=None)
        padded[n + 1] += dx
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
    A negative or nonfinite noise_scale raises ValueError.  Skeleton
    weights that are not finite, a stalled projection, or a feature that
    fails to evaluate in the projection or on the realized path raise
    RolloutError naming the step.
    """
    if not 0.0 <= noise_scale < np.inf:
        raise ValueError(f"noise_scale must be a finite number >= 0, got {noise_scale!r}")
    N, d = problem.N, problem.d
    K = len(controller.policies)
    rng = np.random.default_rng(seed)
    bumps = {int(step): np.asarray(vec, dtype=float) for step, vec in disturbances}
    std = problem.sigma * noise_scale * problem.dt**1.5

    # The realized path behind the prefix; the past pair at step n is the
    # view padded[n-1:n+1].
    padded = np.zeros((N + 2, d))
    padded[:2] = problem.prefix
    path = padded[2:]
    commands = np.zeros((N, d))
    weights = np.zeros((N, K))
    active = np.zeros(N, dtype=int)
    # One draw gives the same per-step stream as N draws of d normals.
    noise = np.zeros((N, d))
    if noise_scale > 0.0:
        noise = rng.standard_normal((N, d)) * std
        noise[:, ~problem.actuated] = 0.0
    incumbent: int | None = None

    # No overflow warnings: the weights and feature checks name each by step.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(1, N + 1):
                past = padded[n - 1:n + 1]
                weights[n - 1], incumbent, cmd = _control(controller, n, past, incumbent)
                if math.isnan(weights[n - 1, 0]):  # all NaN or none, see online_weights
                    dev = np.abs(_deviations(controller, n, past)).max()
                    raise RolloutError(n, f"skeleton weights are not finite; the past "
                                          f"deviates from a reference by up to {dev:.3e}")
                active[n - 1] = incumbent
                commands[n - 1] = cmd
                path[n - 1] = cmd + noise[n - 1]
                if n in bumps:
                    path[n - 1] += bumps[n]
                _project_equalities(problem, truth_skeleton, n, padded)
            stack = assemble(problem, truth_skeleton, path)
    except FeatureEvalError as exc:
        raise RolloutError(exc.step, str(exc)) from exc
    final_error = float("nan")
    if target is not None:
        coords, values = target
        final_error = float(np.linalg.norm(path[-1, np.asarray(coords, int)]
                                           - np.asarray(values, float)))
    return Rollout(path=path, commands=commands, weights=weights, active=active,
                   final_error=final_error, total_cost=cost_value(stack))


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
