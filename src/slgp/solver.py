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

A solve returns the point and multipliers of its last outer update, with
status converged when they pass the gate.  Otherwise an overflowing merit
at an inner loop's start point, or a Gauss-Newton step that cannot be
taken, ends it at the status its SolverError carries (merit-overflow,
hessian-overflow, hessian-not-positive-definite), a second outer
iteration in a row without an accepted trial at line-search-failure, and
max_outer iterations at max-iterations.

Each inner loop minimizes the merit for multipliers that the next outer
update replaces, so it is solved only as far as it pays.  While the
violation exceeds 10 tol_constraint, an inner loop ends once its merit
gradient is a tenth of the gradient at loop entry (|grad| <= 0.1 |grad_0|,
in the max norm), or below half the stationarity gate, whichever is
larger; this is the forcing sequence of Conn, Gould & Toint (SIAM J.
Numer. Anal. 28, 1991).  Near feasibility, and on skeletons without
constraint rows, every inner loop runs to half the gate.  Gauss-Newton
converges about linearly (about 0.35 per step on elbow), so an absolute
inner tolerance costs 7-14 steps per loop and the tenfold cut a few.  The
factor is not tuned: at 0.05, 0.1, 0.2 and 0.3 one elbow plan takes 118,
106, 100 and 96 steps, against 316 with an absolute inner tolerance, with
the same optima.

Five numbers are constants, not SolverConfig fields: the penalty weight
starts at 1 (_MU_INIT) and grows fivefold (_MU_GROWTH), an inner loop
takes at most 100 steps (_MAX_INNER), and the line search asks for a
sufficient decrease of 1e-4 times the slope (_ARMIJO_C) and halves the
step (_ARMIJO_SHRINK), the textbook Armijo pair (Nocedal & Wright,
Numerical Optimization, ch. 3).  The penalty schedule is part of what a
plan means, not a speed setting: with mu starting at 0.1, or growing
twofold, elbow `fix-both` converges to another local optimum (fStar 53.92
instead of 32.31).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple
import numpy as np

from .banded import FactorizationError, band_from_step_blocks, banded_cholesky_solve
from .problem import (FeatureEvalError, FeatureStack, PathProblem, Skeleton,
                      assemble, constraint_violation, cost_value)

Array = np.ndarray

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
LINE_SEARCH_FAILURE = "line-search-failure"
HESSIAN_OVERFLOW = "hessian-overflow"
HESSIAN_NOT_PD = "hessian-not-positive-definite"
MERIT_OVERFLOW = "merit-overflow"

_MIN_STEP = 1e-12
_INNER_CUT = 0.1  # relative gradient cut that ends an inner loop far from feasibility
_MAX_INNER = 100
_MU_INIT = 1.0
_MU_GROWTH = 5.0
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_DAMPING_MAX = 1e2
_MU_MAX = 1e12


class SolverError(RuntimeError):
    """The merit overflows or no Gauss-Newton step can be taken; status ends the solve."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class SolverConfig:
    max_outer: int = 30
    tol_step: float = 1e-7
    tol_constraint: float = 1e-7
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

    def accepts(self, kkt: KktResiduals, lam: Array) -> bool:
        """The convergence gate: stationarity within 10 tol_step, both
        violations within tol_constraint, and complementarity within
        tol_constraint times the largest multiplier, or 1."""
        comp_gate = self.tol_constraint * max(1.0, float(lam.max()) if lam.size else 1.0)
        return (kkt.stationarity <= 10.0 * self.tol_step
                and max(kkt.eq_violation, kkt.ineq_violation) <= self.tol_constraint
                and kkt.complementarity <= comp_gate)


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


class TraceRow(NamedTuple):
    """One inner iteration: the merit and violation at its start point, the
    accepted step's max norm (0 when the line search failed), the penalty
    weight, the Armijo halvings and the damping the step was solved at."""

    outer: int
    inner: int
    merit: float
    violation: float
    step_norm: float
    mu: float
    backtracks: int
    damping: float


@dataclass(frozen=True)
class NlpSolution:
    """active_set flags the inequality rows with a positive multiplier, the
    rows the augmented Lagrangian keeps: lam > 0.  trace holds one TraceRow
    per inner iteration when collect_trace is set."""

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
    if not np.isfinite(value):
        raise SolverError(MERIT_OVERFLOW, f"augmented-Lagrangian merit is {value}")
    return value


def _merit_grad(stack: FeatureStack, al: ALState) -> Array:
    coeff = np.where(al.active_rows(stack.ineq),
                     al.lam + 2.0 * al.mu * stack.ineq, al.lam)
    return stack.transpose_dot(stack.residuals, al.nu + 2.0 * al.mu * stack.eq, coeff)


def _merit_hessian(stack: FeatureStack, al: ALState, damping: float) -> Array:
    """J^T J + 2 mu (J_h^T J_h + J_{g,I}^T J_{g,I}) + damping I in upper
    banded storage, summed from the per-step blocks of the rows."""
    cost, _, ineq = stack.kinds
    select = np.ones(stack.steps.size, dtype=bool)
    select[ineq] = al.active_rows(stack.ineq)
    weights = np.full(stack.steps.size, 2.0 * al.mu)
    weights[cost] = 1.0
    # A cost weight near the float limit can overflow the Gram sums, and
    # an infinite band would give a NaN step.
    try:
        with np.errstate(over="raise"):
            ab = band_from_step_blocks(stack.gram(select, weights), stack.band)
    except FloatingPointError as exc:
        raise SolverError(HESSIAN_OVERFLOW, f"Gauss-Newton Hessian: {exc}") from None
    ab[-1] += damping
    return ab


def gauss_newton_step(stack: FeatureStack, al: ALState, damping: float,
                      grad: Array) -> tuple[Array, float]:
    """Solve (GN Hessian of the merit + damping I) dx = -grad, with grad the
    merit gradient at the stack; returns dx and the damping it was solved at.

    On factorization failure the damping is grown tenfold up to 1e+2
    before giving up.  Raises SolverError with status HESSIAN_NOT_PD when
    it gives up, and HESSIAN_OVERFLOW when the Hessian overflows float64.
    """
    level = damping
    while True:
        try:
            return banded_cholesky_solve(_merit_hessian(stack, al, level), -grad), level
        except FactorizationError:
            level = max(level, 1e-12) * 10.0
            if level > _DAMPING_MAX:
                raise SolverError(HESSIAN_NOT_PD, "Gauss-Newton system not positive "
                                  f"definite at damping {_DAMPING_MAX}")


def _kkt(stack: FeatureStack, lam: Array, nu: Array) -> KktResiduals:
    grad = stack.transpose_dot(stack.residuals, nu, lam)
    eq_v = float(np.abs(stack.eq).max()) if stack.eq.size else 0.0
    ineq_v = float(np.clip(stack.ineq, 0.0, None).max()) if stack.ineq.size else 0.0
    comp = float(np.abs(lam * stack.ineq).max()) if stack.ineq.size else 0.0
    return KktResiduals(stationarity=float(np.abs(grad).max()) if grad.size else 0.0,
                        eq_violation=eq_v, ineq_violation=ineq_v,
                        complementarity=comp)


def kkt_residuals(problem: PathProblem, skeleton: Skeleton, x: Array,
                  lam: Array, nu: Array) -> KktResiduals:
    return _kkt(assemble(problem, skeleton, x), lam, nu)


def _inner_gauss_newton(problem, skeleton, x_flat, stack, al, cfg, grad_tol, cut,
                        trace, outer):
    """Minimize the AL merit for fixed multipliers, starting from x_flat
    and its stack, until |grad| <= max(grad_tol, cut |grad at entry|).

    The accepted trial point keeps its stack and its merit, so each point
    is assembled once and has its merit and gradient computed once.
    Returns (x, stack at x, failure, iterations): failure is None, or
    LINE_SEARCH_FAILURE when no trial is accepted, or the status of the
    SolverError when no step can be taken.
    """
    shape = (problem.N, problem.d)
    small_steps = 0
    try:
        merit = _merit(stack, al)
    except SolverError as exc:
        return x_flat, stack, exc.status, 0
    for it in range(_MAX_INNER):
        grad = _merit_grad(stack, al)
        grad_norm = float(np.abs(grad).max())
        if it == 0:
            grad_tol = max(grad_tol, cut * grad_norm)
        if grad_norm <= grad_tol:
            return x_flat, stack, None, it
        try:
            dx, damping = gauss_newton_step(stack, al, cfg.hessian_reg, grad)
        except SolverError as exc:
            return x_flat, stack, exc.status, it
        slope = float(grad @ dx)
        alpha = 1.0
        backtracks = 0
        accepted = False
        while alpha * float(np.abs(dx).max()) >= _MIN_STEP:
            trial = x_flat + alpha * dx
            try:
                trial_stack = assemble(problem, skeleton, trial.reshape(shape))
                trial_merit = _merit(trial_stack, al)
            except (FeatureEvalError, SolverError):
                trial_merit = np.inf  # reject trial points that fail or overflow
            if trial_merit <= merit + _ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= _ARMIJO_SHRINK
            backtracks += 1
        if trace is not None:
            trace.append(TraceRow(outer, it, merit, constraint_violation(stack),
                                  alpha * float(np.abs(dx).max()) if accepted else 0.0,
                                  al.mu, backtracks, damping))
        if not accepted:
            return x_flat, stack, LINE_SEARCH_FAILURE, it + 1
        x_flat, stack, merit = trial, trial_stack, trial_merit
        if alpha * float(np.abs(dx).max()) <= cfg.tol_step:
            small_steps += 1
            if small_steps >= 2:
                return x_flat, stack, None, it + 1
        else:
            small_steps = 0
    return x_flat, stack, None, _MAX_INNER


# In a solve float overflow reads inf: a nonfinite merit ends the inner
# loop or rejects the trial, and the Hessian raises its own.
@np.errstate(over="ignore", invalid="ignore")
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
                 mu=_MU_INIT)
    constrained = stack.eq.size + stack.ineq.size > 0
    viol_prev = constraint_violation(stack)
    grad_gate = 10.0 * cfg.tol_step

    trace: list | None = [] if collect_trace else None
    status = MAX_ITERATIONS
    total_inner = 0
    ls_failures = 0

    for outer in range(cfg.max_outer):
        # A relative inner tolerance while far from feasibility, tight at the end.
        far = constrained and viol_prev > 10.0 * cfg.tol_constraint
        x, stack, failure, used = _inner_gauss_newton(
            problem, skeleton, x, stack, al, cfg, 0.5 * grad_gate,
            _INNER_CUT if far else 0.0, trace, outer)
        total_inner += used
        al = ALState(lam=np.clip(al.lam + 2.0 * al.mu * stack.ineq, 0.0, None),
                     nu=al.nu + 2.0 * al.mu * stack.eq, mu=al.mu)
        kkt = _kkt(stack, al.lam, al.nu)
        ls_failures = ls_failures + 1 if failure == LINE_SEARCH_FAILURE else 0
        if cfg.accepts(kkt, al.lam):
            status = CONVERGED
            break
        elif failure not in (None, LINE_SEARCH_FAILURE) or ls_failures >= 2:
            status = failure
            break
        viol = max(kkt.eq_violation, kkt.ineq_violation)
        if viol > 0.25 * viol_prev and viol > cfg.tol_constraint:
            al.mu = min(al.mu * _MU_GROWTH, _MU_MAX)
        viol_prev = max(viol, 1e-300)

    return NlpSolution(x_star=x.reshape(shape).copy(), lam=al.lam.copy(), nu=al.nu.copy(),
                       f_star=cost_value(stack), status=status, active_set=al.lam > 0,
                       kkt=kkt, outer_iterations=outer + 1,
                       inner_iterations=total_inner,
                       trace=tuple(trace) if trace is not None else ())
