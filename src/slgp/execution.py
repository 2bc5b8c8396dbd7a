"""Composite execution of per-skeleton policies with on-the-fly weights.

A skeleton's feedback policy is slice 0, the full cost, of the
Elimination that weighs it (laplace.eliminate): the policy Hessian is the
Hessian of the "optimal" Laplace distribution.  With the past deviation
p = (dx_{n-2}, dx_{n-1}, 1), the first 2d columns of law[n-1] are the
gain K and the last one the feedforward u_ff, dx_n = u_ff + K p[:2d], and
V[n-1] splits into the cost-to-go
J_n(dp) = 1/2 dp^T V dp + v^T dp + v_bar with v_bar = V[2d, 2d] / 2.
The constrained recursion follows Laine & Tomlin, "Efficient computation
of feedback control for equality-constrained LQR", ICRA 2019; in the
first-order unconstrained case it reduces to the Riccati recursion, and
a dense KKT oracle pins the constrained case (slgp.selftest).

At step n with observed past x_{n-2:n-1} each skeleton's weight combines
its cost-to-go at the deviation from its own reference with the
precomputed log entropy ratio of its conditional future distribution:

    w_i  propto  exp(-J_n^{(i)}(past - past*_i) + future_log_ratio_i(n)).

A command is the absolute next configuration: each policy applies its
feedback deviation to its own reference path, and the controller either
blends the commands by weight or switches to the best skeleton (with
optional hysteresis, which blending refuses).  A step reads row n-1 of the controller's tables,
with 0.5 V and the negated offsets computed once per rollout (halving is
exact, so away from overflow and underflow (0.5 V) dp has the bits of
0.5 (V dp)), and the past pair as a view of the flat realized path;
online_weights and compose run the same step after checking n and the
past.  Rollouts inject Brownian-scale noise into actuated coordinates and
project the realized configuration back onto the equality manifold of the
truth skeleton at the steps, and with the rows, that the problem's
memoized row layout lists, cutting rank at RANK_TOL as laplace.eliminate
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .laplace import future_log_ratios
from .problem import (RANK_TOL, FeatureEvalError, PathProblem, Skeleton, _layout,
                      assemble, cost_value, step_equalities)

Array = np.ndarray

BLENDING = "blending"
SWITCHING = "switching"

_PROJECT_TOL = 1e-10
_PROJECT_MAX_ITER = 20


class RolloutError(RuntimeError):
    def __init__(self, step: int, reason: str):
        super().__init__(f"rollout aborted at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True, eq=False)
class CompositeController:
    """Per-step tables of K skeletons' policies, so one control step is a
    few batched array operations over all of them.  Row n-1 of each table
    serves step n:

      past_ref  (N, K, 2d)      reference (x_{n-2}, x_{n-1}), prefix-padded;
      V, v      (N, K, 2d[, 2d]) quadratic and linear cost-to-go terms;
      offset    (N, K)          v_bar minus the future log ratio;
      gain      (N, K, d, 2d)   feedback gains K;
      command   (N, K, d)       x_ref + u_ff, the command at zero deviation.
    """

    past_ref: Array
    V: Array
    v: Array
    offset: Array
    gain: Array
    command: Array
    mode: str
    hysteresis: float = 0.0

    def __post_init__(self):
        if self.mode not in (BLENDING, SWITCHING):
            raise ValueError(f"unknown mode '{self.mode}'")
        if not self.hysteresis >= 0.0:
            raise ValueError(f"hysteresis must be nonnegative, got {self.hysteresis!r}")
        if self.hysteresis > 0.0 and self.mode == BLENDING:
            raise ValueError(f"hysteresis {self.hysteresis!r} has no effect in mode "
                             f"'{BLENDING}'; it is a switching margin")
        shape = np.shape(self.past_ref)
        if len(shape) != 3 or shape[2] % 2:
            raise ValueError(f"past_ref must have shape (N, K, 2d), got {shape}")
        N, K, two_d = shape
        expected = {"V": (N, K, two_d, two_d), "v": (N, K, two_d), "offset": (N, K),
                    "gain": (N, K, two_d // 2, two_d), "command": (N, K, two_d // 2)}
        for name, want in expected.items():
            if np.shape(getattr(self, name)) != want:
                raise ValueError(f"{name} must have shape {want} to match past_ref "
                                 f"{shape}, got {np.shape(getattr(self, name))}")


def check_disturbance(step, vector, N: int, d: int) -> tuple[int, Array]:
    """One (step, vector) impulse as an int and a float array.  The step
    must be an integer in [1, N] and the vector hold d finite entries;
    anything else raises ValueError saying which."""
    if (isinstance(step, bool) or not isinstance(step, (int, np.integer))
            or not 1 <= step <= N):
        raise ValueError(f"step must be an integer in [1, {N}]")
    vec = np.asarray(vector, dtype=float)
    if vec.shape != (d,):
        raise ValueError(f"vector must hold {d} entries, not shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("entries must be finite")
    return int(step), vec


def build_controller(eliminations, components, mode: str = SWITCHING,
                     hysteresis: float = 0.0) -> CompositeController:
    """Stack each skeleton's policy, slice 0 of its elimination's law and
    V, with its component's reference path and per-step future log
    entropy ratios into the controller's step tables.

    eliminations[i] belongs to components[i]: the component's own
    elimination, or backward_pass of its expansion, whose slice 0 is the
    same.  A pair of different skeletons raises ValueError naming both.
    """
    elims = tuple(eliminations)
    components = tuple(components)
    if len(elims) != len(components) or not elims:
        raise ValueError("need one component per elimination")
    for e, c in zip(elims, components):
        if e.skeleton_id != c.skeleton_id:
            raise ValueError(f"elimination of '{e.skeleton_id}' paired with component "
                             f"'{c.skeleton_id}'")
    shapes = ({c.x_star.shape for c in components}
              | {(e.law.shape[0], e.law.shape[2]) for e in elims})
    if len(shapes) != 1:
        raise ValueError(f"eliminations and components must share one horizon and "
                         f"dimension, got (N, d) {sorted(shapes)}")
    (_, d), = shapes
    two_d = 2 * d
    laws = [e.law[:, 0] for e in elims]
    values = [e.V[:, 0] for e in elims]
    padded = np.stack([np.concatenate([c.prefix, c.x_star]) for c in components], axis=1)
    return CompositeController(
        past_ref=np.concatenate([padded[:-2], padded[1:-1]], axis=-1),
        V=np.stack([V[:, :two_d, :two_d] for V in values], axis=1),
        v=np.stack([V[:, :two_d, two_d] for V in values], axis=1),
        offset=(np.stack([0.5 * V[:, two_d, two_d] for V in values], axis=1)
                - np.stack([future_log_ratios(c) for c in components], axis=1)),
        gain=np.stack([law[:, :, :two_d] for law in laws], axis=1),
        command=padded[2:] + np.stack([law[:, :, two_d] for law in laws], axis=1),
        mode=mode, hysteresis=hysteresis)


def _rows(controller: CompositeController, select=slice(None)):
    """Per step in select, the row of every step table, with the
    step-independent scalings applied once over the selection: 0.5 V and
    the negated offsets."""
    c = controller
    return zip(c.past_ref[select], 0.5 * c.V[select], c.v[select], -c.offset[select],
               c.gain[select], c.command[select])


def _query(controller: CompositeController, n: int, past: Array, incumbent: int | None):
    """_step at step n after checking n and the past pair's shape; numpy's
    overflow warnings are quieted, since the weights check replaces them."""
    N, _, two_d = controller.past_ref.shape
    if not 1 <= n <= N:
        raise ValueError(f"step {n} outside horizon [1, {N}]")
    past = np.asarray(past, dtype=float)
    if past.shape != (2, two_d // 2):
        raise ValueError(f"past at step {n} must have shape (2, {two_d // 2}), "
                         f"got {past.shape}")
    row, = _rows(controller, slice(n - 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(controller, row, n, past.reshape(two_d), incumbent)


def online_weights(controller: CompositeController, n: int, past: Array) -> Array:
    """Normalized skeleton weights at step n given the observed past pair;
    weights that are not finite raise RolloutError naming the step."""
    return _query(controller, n, past, None)[0]


def select_skeleton(weights: Array, incumbent: int | None, hysteresis: float) -> int:
    """Argmax with first-index tie-break; a positive hysteresis keeps the
    incumbent unless the challenger beats it by that margin."""
    best = int(weights.argmax())
    if incumbent is None or hysteresis == 0.0:
        return best
    if best != incumbent and weights[best] > weights[incumbent] + hysteresis:
        return best
    return incumbent


def _step(controller: CompositeController, row, n: int, past: Array,
          incumbent: int | None) -> tuple[Array, int, Array]:
    """One controller step, unchecked: the weights, the chosen skeleton
    and the command, from one deviation of the flat observed past pair
    (x_{n-2}, x_{n-1}) from every skeleton's reference pair.  row is
    step n's entry of _rows.  In blending mode the chosen skeleton is the
    heaviest one and the command blends all of them.

    Weights that are not finite raise RolloutError naming the step; they
    are all NaN then, since a nonfinite largest logit puts a NaN in the
    sum.  Callers quiet numpy's overflow warnings, which the error
    replaces.
    """
    past_ref, half_V, v, neg_offset, gain, command = row
    dp = past - past_ref
    column = dp[:, :, None]
    logits = neg_offset - np.einsum("ki,ki->k", dp,
                                    np.matmul(half_V, column)[:, :, 0] + v)
    logits -= logits.max()
    weights = np.exp(logits, out=logits)
    weights /= weights.sum()
    if math.isnan(weights[0]):
        raise RolloutError(n, f"skeleton weights are not finite; the past deviates "
                              f"from a reference by up to {np.abs(dp).max():.3e}")
    commands = command + np.matmul(gain, column)[:, :, 0]
    if controller.mode == BLENDING:
        return weights, int(weights.argmax()), weights @ commands
    chosen = select_skeleton(weights, incumbent, controller.hysteresis)
    return weights, chosen, commands[chosen]


def compose(controller: CompositeController, n: int, past: Array,
            incumbent: int | None = None) -> Array:
    """Next-configuration command at step n for the observed past pair;
    weights that are not finite raise RolloutError naming the step."""
    return _query(controller, n, past, incumbent)[2]


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
    the step's equality rows in the row layout, in place; singular values
    below RANK_TOL times the largest count as zero."""
    eq = _layout(problem, skeleton).equalities.get(n)
    if eq is None:
        return
    for _ in range(_PROJECT_MAX_ITER):
        h, J = step_equalities(eq, n, padded)
        if np.abs(h).max() <= _PROJECT_TOL:
            return
        dx, *_ = np.linalg.lstsq(J, -h, rcond=RANK_TOL)
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
    (step, vector) impulses, and the impulses at one step add up.  At each
    step where the truth skeleton has equality rows, the realized
    configuration is projected onto them.  target, when given, is (coords,
    values) for the final-error metric.  A controller planned for another
    horizon or dimension, a negative or nonfinite noise_scale, and a
    disturbance that check_disturbance rejects, raise ValueError, and a
    structurally invalid truth skeleton raises SkeletonError.  Skeleton
    weights that are not finite, a stalled projection, or a feature that
    fails to evaluate in the projection or on the realized path raise
    RolloutError naming the step.
    """
    if not 0.0 <= noise_scale < np.inf:
        raise ValueError(f"noise_scale must be a finite number >= 0, got {noise_scale!r}")
    N, d = problem.N, problem.d
    planned_N, K, two_d = controller.past_ref.shape
    if (planned_N, two_d) != (N, 2 * d):
        raise ValueError(f"controller planned for N={planned_N}, d={two_d // 2} cannot "
                         f"run a problem with N={N}, d={d}")
    rng = np.random.default_rng(seed)
    bumps = {}
    for i, (step, vec) in enumerate(disturbances):
        try:
            step, vec = check_disturbance(step, vec, N, d)
        except ValueError as exc:
            raise ValueError(f"disturbance {i} at step {step!r}: {exc}") from None
        bumps[step] = bumps[step] + vec if step in bumps else vec
    std = problem.sigma * noise_scale * problem.dt**1.5

    # The realized path behind the prefix, flat, so that the past pair at
    # step n is the view flat[(n-1) d:(n+1) d] of (x_{n-2}, x_{n-1}).  Each
    # row of path holds its step's noise until the command is added to it.
    flat = np.zeros((N + 2) * d)
    padded = flat.reshape(N + 2, d)
    padded[:2] = problem.prefix
    path = padded[2:]
    # One draw gives the same per-step stream as N draws of d normals.
    if noise_scale > 0.0:
        path[:] = rng.standard_normal((N, d)) * std
        path[:, ~problem.actuated] = 0.0
    commands = np.zeros((N, d))
    weights = np.zeros((N, K))
    active = np.zeros(N, dtype=int)
    incumbent: int | None = None
    projected = _layout(problem, truth_skeleton).equalities

    # No overflow warnings: the weights and feature checks name each by step.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for n, (row, x) in enumerate(zip(_rows(controller), path), 1):
                weights[n - 1], incumbent, cmd = _step(controller, row, n,
                                                       flat[(n - 1) * d:(n + 1) * d],
                                                       incumbent)
                active[n - 1] = incumbent
                commands[n - 1] = cmd
                x += cmd
                if n in bumps:
                    x += bumps[n]
                if n in projected:
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
