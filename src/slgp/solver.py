"""Augmented-Lagrangian Gauss-Newton solver over banded path structure.

The objective is f(x) = 1/2 ||r(x)||^2 with equality rows h(x) = 0 and
inequality rows g(x) <= 0.  The merit for fixed multipliers is

    L(x) = f(x) + nu.h + mu ||h||^2 + lam.g + mu ||g_I||^2,

where I collects rows with g_j >= 0 or lam_j > 0.  Inner iterations take
damped Gauss-Newton steps on L with Armijo backtracking; outer iterations
update nu <- nu + 2 mu h and lam <- max(0, lam + 2 mu g) and grow mu when
the constraint violation stalls.  At an inner stationary point the merit
gradient equals the Lagrangian gradient at the updated multipliers, so
convergence is gated directly on the KKT residuals.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
import numpy as np

from .banded import FactorizationError, band_from_step_blocks, banded_cholesky_solve
from .problem import (FeatureStack, PathProblem, Skeleton, assemble,
                      constraint_violation, cost_value, step_gram)

Array = np.ndarray

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINE_SEARCH_FAILURE = "line-search-failure"

_MIN_STEP = 1e-12
_DAMPING_MAX = 1e2
_MU_MAX = 1e12


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    max_outer: int = 30
    max_inner: int = 100
    mu_init: float = 1.0
    mu_growth: float = 5.0
    tol_step: float = 1e-7
    tol_constraint: float = 1e-7
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    hessian_reg: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if isinstance(f.default, int):
                if not (isinstance(value, numbers.Integral) and value >= 1):
                    raise ValueError(f"{f.name} must be an integer >= 1, got {value!r}")
            elif not (isinstance(value, numbers.Real) and 0.0 < value < np.inf):
                raise ValueError(f"{f.name} must be a finite number > 0, got {value!r}")
        if not self.armijo_shrink < 1.0:
            # A backtracking factor of 1 or more never shortens the step.
            raise ValueError(f"armijo_shrink must be below 1, got {self.armijo_shrink!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SolverConfig":
        """Accepts camelCase config-file keys as well as field names."""
        alias = {"maxOuter": "max_outer", "maxInner": "max_inner",
                 "muInit": "mu_init", "muGrowth": "mu_growth",
                 "tolStep": "tol_step", "tolConstraint": "tol_constraint",
                 "armijoC": "armijo_c", "armijoShrink": "armijo_shrink",
                 "hessianReg": "hessian_reg"}
        kwargs = {alias.get(k, k): v for k, v in raw.items()}
        return cls(**kwargs)


@dataclass
class ALState:
    """Multipliers and penalty weight of the current outer iteration."""

    lam: Array
    nu: Array
    mu: float

    def active_rows(self, g: Array) -> Array:
        return (g >= 0.0) | (self.lam > 0.0)


@dataclass(frozen=True)
class KktResiduals:
    stationarity: float
    eq_violation: float
    ineq_violation: float
    complementarity: float


@dataclass(frozen=True)
class NlpSolution:
    """active_set flags the inequality rows with a positive multiplier, the
    rows the augmented Lagrangian keeps: lam > 0."""

    x_star: Array
    lam: Array
    nu: Array
    f_star: float
    status: str
    active_set: Array
    kkt: KktResiduals
    outer_iterations: int
    inner_iterations: int
    trace: tuple = ()

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def _merit(stack: FeatureStack, al: ALState) -> float:
    value = cost_value(stack)
    if stack.eq.size:
        value += float(al.nu @ stack.eq) + al.mu * float(stack.eq @ stack.eq)
    if stack.ineq.size:
        g = stack.ineq
        gi = np.where(al.active_rows(g), g, 0.0)
        value += float(al.lam @ g) + al.mu * float(gi @ gi)
    return value


def _merit_grad(stack: FeatureStack, al: ALState) -> Array:
    coeff = np.where(al.active_rows(stack.ineq),
                     al.lam + 2.0 * al.mu * stack.ineq, al.lam)
    return stack.transpose_dot(stack.residuals, al.nu + 2.0 * al.mu * stack.eq, coeff)


def _merit_hessian(stack: FeatureStack, al: ALState, damping: float) -> Array:
    """J^T J + 2 mu (J_h^T J_h + J_{g,I}^T J_{g,I}) + damping I in upper
    banded storage, summed from the per-step blocks of the rows."""
    active = al.active_rows(stack.ineq)
    steps = np.concatenate([stack.cost_steps, stack.eq_steps, stack.ineq_steps[active]])
    rows = np.vstack([stack.cost_blocks, stack.eq_blocks, stack.ineq_blocks[active]])
    weights = np.concatenate([np.ones(stack.residuals.size),
                              np.full(steps.size - stack.residuals.size, 2.0 * al.mu)])
    ab = band_from_step_blocks(step_gram(steps, rows, weights, stack.N))
    ab[-1] += damping
    return ab


def gauss_newton_step(stack: FeatureStack, al: ALState, damping: float) -> Array:
    """Solve (GN Hessian of the merit + damping I) dx = -grad.

    On factorization failure the damping is grown tenfold up to 1e+2
    before giving up.
    """
    grad = _merit_grad(stack, al)
    level = damping
    while True:
        try:
            return banded_cholesky_solve(_merit_hessian(stack, al, level), -grad)
        except FactorizationError:
            level = max(level, 1e-12) * 10.0
            if level > _DAMPING_MAX:
                raise SolverError("Gauss-Newton system not positive definite "
                                  f"at damping {_DAMPING_MAX}")


def _lagrangian_stationarity(stack: FeatureStack, lam: Array, nu: Array) -> float:
    grad = stack.transpose_dot(stack.residuals, nu, lam)
    return float(np.abs(grad).max()) if grad.size else 0.0


def _kkt(stack: FeatureStack, lam: Array, nu: Array) -> KktResiduals:
    eq_v = float(np.abs(stack.eq).max()) if stack.eq.size else 0.0
    ineq_v = float(np.clip(stack.ineq, 0.0, None).max()) if stack.ineq.size else 0.0
    comp = float(np.abs(lam * stack.ineq).max()) if stack.ineq.size else 0.0
    return KktResiduals(stationarity=_lagrangian_stationarity(stack, lam, nu),
                        eq_violation=eq_v, ineq_violation=ineq_v,
                        complementarity=comp)


def kkt_residuals(problem: PathProblem, skeleton: Skeleton, x: Array,
                  lam: Array, nu: Array) -> KktResiduals:
    return _kkt(assemble(problem, skeleton, x), lam, nu)


def _inner_gauss_newton(problem, skeleton, x_flat, stack, al, cfg, grad_tol,
                        trace, outer):
    """Minimize the AL merit for fixed multipliers, starting from x_flat
    and its stack.

    The accepted trial point keeps its stack, so no point is assembled
    twice.  Returns (x, stack at x, reason, iterations) with reason in
    {"gradient", "step", "line-search", "max-inner"}.
    """
    shape = (problem.N, problem.d)
    small_steps = 0
    for it in range(cfg.max_inner):
        merit = _merit(stack, al)
        grad = _merit_grad(stack, al)
        if float(np.abs(grad).max()) <= grad_tol:
            return x_flat, stack, "gradient", it
        dx = gauss_newton_step(stack, al, cfg.hessian_reg)
        slope = float(grad @ dx)
        alpha = 1.0
        accepted = False
        while alpha * float(np.abs(dx).max()) >= _MIN_STEP:
            trial = x_flat + alpha * dx
            try:
                trial_stack = assemble(problem, skeleton, trial.reshape(shape))
                trial_merit = _merit(trial_stack, al)
            except Exception:
                trial_merit = np.inf  # reject nonfinite trial points
            if trial_merit <= merit + cfg.armijo_c * alpha * slope:
                accepted = True
                break
            alpha *= cfg.armijo_shrink
        if trace is not None:
            trace.append((outer, it, merit, constraint_violation(stack),
                          alpha * float(np.abs(dx).max()) if accepted else 0.0))
        if not accepted:
            return x_flat, stack, "line-search", it + 1
        x_flat = trial
        stack = trial_stack
        if alpha * float(np.abs(dx).max()) <= cfg.tol_step:
            small_steps += 1
            if small_steps >= 2:
                return x_flat, stack, "step", it + 1
        else:
            small_steps = 0
    return x_flat, stack, "max-inner", cfg.max_inner


def solve(problem: PathProblem, skeleton: Skeleton, x_init: Array | None = None,
          config: SolverConfig | None = None, collect_trace: bool = False) -> NlpSolution:
    """Solve the skeleton-constrained path problem.

    x_init defaults to the constant path at x_0.  Deterministic: fixed
    inputs yield bit-identical solutions.
    """
    cfg = config or SolverConfig()
    if x_init is None:
        x = np.tile(problem.prefix[1], (problem.N, 1)).ravel()
    else:
        x_init = np.asarray(x_init, dtype=float)
        if x_init.shape != (problem.N, problem.d):
            raise ValueError(f"x_init must be ({problem.N}, {problem.d})")
        x = x_init.ravel().copy()

    shape = (problem.N, problem.d)
    stack = assemble(problem, skeleton, x.reshape(shape))
    al = ALState(lam=np.zeros(stack.ineq.size), nu=np.zeros(stack.eq.size),
                 mu=cfg.mu_init)
    constrained = stack.eq.size + stack.ineq.size > 0
    viol_prev = constraint_violation(stack)
    grad_gate = 10.0 * cfg.tol_step

    trace: list | None = [] if collect_trace else None
    status = MAX_ITERATIONS
    total_inner = 0
    ls_failures = 0
    outer_done = 0

    for outer in range(cfg.max_outer):
        outer_done = outer + 1
        # Loose inner tolerance while far from feasibility, tight at the end.
        if constrained and viol_prev > 10.0 * cfg.tol_constraint:
            grad_tol = max(0.5 * grad_gate, min(1e-2, 1e-2 * viol_prev))
        else:
            grad_tol = 0.5 * grad_gate
        x, stack, reason, used = _inner_gauss_newton(problem, skeleton, x, stack, al,
                                                     cfg, grad_tol, trace, outer)
        total_inner += used
        lam_new = np.clip(al.lam + 2.0 * al.mu * stack.ineq, 0.0, None)
        nu_new = al.nu + 2.0 * al.mu * stack.eq
        viol = constraint_violation(stack)
        stat = _lagrangian_stationarity(stack, lam_new, nu_new)
        comp = (float(np.abs(lam_new * stack.ineq).max()) if stack.ineq.size else 0.0)
        comp_gate = cfg.tol_constraint * max(1.0, float(lam_new.max()) if lam_new.size else 1.0)
        if stat <= grad_gate and viol <= cfg.tol_constraint and comp <= comp_gate:
            al = ALState(lam=lam_new, nu=nu_new, mu=al.mu)
            status = CONVERGED
            break
        if reason == "line-search":
            ls_failures += 1
            if ls_failures >= 2:
                al = ALState(lam=lam_new, nu=nu_new, mu=al.mu)
                status = LINE_SEARCH_FAILURE
                break
        else:
            ls_failures = 0
        if not constrained and reason in ("gradient", "step", "max-inner"):
            # Nothing an outer update could change; report honestly.
            status = MAX_ITERATIONS if stat > grad_gate else CONVERGED
            if status == CONVERGED:
                break
        mu = al.mu
        if viol > 0.25 * viol_prev and viol > cfg.tol_constraint:
            mu = min(mu * cfg.mu_growth, _MU_MAX)
        al = ALState(lam=lam_new, nu=nu_new, mu=mu)
        viol_prev = max(viol, 1e-300)

    x_star = x.reshape(shape).copy()
    return NlpSolution(x_star=x_star, lam=al.lam.copy(), nu=al.nu.copy(),
                       f_star=cost_value(stack), status=status, active_set=al.lam > 0,
                       kkt=_kkt(stack, al.lam, al.nu), outer_iterations=outer_done,
                       inner_iterations=total_inner,
                       trace=tuple(trace) if trace is not None else ())
