"""Constrained dynamic programming over k = 2 path windows.

The quadratized problem at a converged solution decomposes per step into
blocks over [dx_{n-2:n-1}; dx_n] (past p, current c):

    f_n + J_{n+1} = 1/2 [dp; dc]^T [[D, C], [C^T, E]] [dp; dc]
                    + [d; e]^T [dp; dc] + const,
    constraints     l^T dp + m^T dc = 0.

With the bordered inverse H = [[E, m], [m^T, 0]]^{-1} and
Hbar = H [[E, 0], [0, 0]] H, partial minimization over dc gives the
feedback law [dc*; dl*] = u_ff + K dp and the value recursion

    V_n    = D + P^T Hbar P - A H P - (A H P)^T,
    v_n    = d - A H q + P^T (Hbar - H) q,
    vbar_n = const + 1/2 q^T (Hbar - 2 H) q,

where P = [C^T; l^T], A = [C, 0], q = [e; 0].  The first-order
unconstrained case reduces to the Riccati recursion; a dense QP oracle
pins the constrained case in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.linalg

from .problem import RANK_TOL, PathProblem, Skeleton, assemble, step_gram
from .solver import NlpSolution

Array = np.ndarray

_REG_INIT = 1e-9
_REG_MAX = 1e-3


class PolicyError(RuntimeError):
    pass


@dataclass(frozen=True)
class StepQuadratics:
    """Expansion of step n's cost and active constraints over the 3d window.

    hess/grad/const cover f_n alone; the backward pass folds the future
    value function in before splitting into the D, C, E blocks.  con_jac
    holds the active constraint rows (l = past columns, m = current).
    """

    n: int
    hess: Array
    grad: Array
    const: float
    con_jac: Array


@dataclass(frozen=True)
class PolicyExpansion:
    steps: tuple[StepQuadratics, ...]
    skeleton_id: str
    d: int
    x_ref: Array
    prefix: Array


@dataclass(frozen=True)
class KodpPolicy:
    """Time-varying affine feedback with per-step quadratic cost-to-go.

    V[n-1], v[n-1], v_bar[n-1] give J_n(dp) = 1/2 dp^T V dp + v^T dp + v_bar
    over dp = dx_{n-2:n-1}; u_ff[n-1] and K[n-1] give the configuration
    part of the step policy, lam_ff/K_lam the multiplier part.
    """

    skeleton_id: str
    d: int
    V: Array
    v: Array
    v_bar: Array
    u_ff: Array
    K: Array
    lam_ff: tuple
    K_lam: tuple
    x_ref: Array
    prefix: Array
    notes: tuple

    @property
    def N(self) -> int:
        return self.x_ref.shape[0]

    def reference(self, n: int) -> Array:
        return self.x_ref[n - 1]

    def past_reference(self, n: int) -> Array:
        """Reference value of (x_{n-2}, x_{n-1}), prefix-substituted."""
        out = np.empty((2, self.d))
        for k, m in enumerate((n - 2, n - 1)):
            out[k] = self.x_ref[m - 1] if m >= 1 else self.prefix[m + 1]
        return out


def quadratize(problem: PathProblem, skeleton: Skeleton, solution: NlpSolution,
               effort_weight: float = 1.0, proximal_rho: float = 0.0) -> PolicyExpansion:
    """Second-order expansion of every step about the converged solution.

    Gauss-Newton curvature throughout; effort_weight rescales the effort
    (control-cost) rows; proximal_rho adds rho ||x - x*||^2 spread over
    the current-configuration blocks.  Inequality rows enter only when
    flagged active in solution.active_set, frozen thereafter.
    """
    x = solution.x_star
    d, N = problem.d, problem.N
    width = 3 * d
    stack = assemble(problem, skeleton, x)
    # One Gram matrix of the rows [J_i | r_i] per step holds the Hessian,
    # the gradient and twice the constant of the step's cost.
    weights = np.where(stack.effort_mask, effort_weight, 1.0)
    gram = step_gram(stack.cost_steps,
                     np.column_stack([stack.cost_blocks, stack.residuals]), weights, N)
    if proximal_rho:
        gram[:, 2 * d:width, 2 * d:width] += 2.0 * proximal_rho * np.eye(d)
    active = solution.active_set
    con_steps = (stack.eq_steps, stack.ineq_steps[active])
    con_rows = (stack.eq_blocks, stack.ineq_blocks[active])
    bounds = [np.searchsorted(st, np.arange(1, N + 2)) for st in con_steps]
    steps = []
    for n in range(1, N + 1):
        con = np.vstack([rows[b[n - 1]:b[n]] for rows, b in zip(con_rows, bounds)])
        steps.append(StepQuadratics(n=n, hess=gram[n - 1, :width, :width],
                                    grad=gram[n - 1, :width, width],
                                    const=0.5 * float(gram[n - 1, width, width]),
                                    con_jac=con))
    return PolicyExpansion(steps=tuple(steps), skeleton_id=skeleton.id, d=d,
                           x_ref=x.copy(), prefix=np.asarray(problem.prefix, float).copy())


def _independent_columns(m: Array) -> Array:
    """Indices of a maximal independent column subset of m, by pivoted QR
    with the shared relative rank tolerance."""
    r = m.shape[1]
    if r == 0:
        return np.zeros(0, dtype=int)
    _, R, piv = scipy.linalg.qr(m, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(0, dtype=int)
    keep = piv[: int(np.sum(diag > RANK_TOL * diag[0]))]
    return np.sort(keep)


def _bordered_inverse(E: Array, m: Array, n: int) -> tuple[Array, float]:
    """Inverse of [[E, m], [m^T, 0]], regularizing E when singular."""
    d, r = E.shape[0], m.shape[1]
    size = d + r
    eye_like = np.zeros((size, size))
    eye_like[:d, :d] = np.eye(d)
    eps = 0.0
    while True:
        M = np.zeros((size, size))
        M[:d, :d] = E + eps * np.eye(d)
        M[:d, d:] = m
        M[d:, :d] = m.T
        try:
            H = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            H = None
        if H is not None and np.all(np.isfinite(H)):
            err = np.abs(M @ H - np.eye(size)).max()
            if err <= 1e-8 * max(1.0, np.abs(M).max()):
                return H, eps
        eps = _REG_INIT if eps == 0.0 else eps * 10.0
        if eps > _REG_MAX:
            raise PolicyError(f"bordered KKT matrix singular at step {n} "
                              f"even with regularization {_REG_MAX}")


def backward_pass(expansion: PolicyExpansion) -> KodpPolicy:
    """Run the value recursion from n = N down to 1 and extract the policy."""
    d = expansion.d
    N = len(expansion.steps)
    two_d = 2 * d
    V = np.zeros((N, two_d, two_d))
    v = np.zeros((N, two_d))
    v_bar = np.zeros(N)
    u_ff = np.zeros((N, d))
    K = np.zeros((N, d, two_d))
    lam_ff: list[Array] = [None] * N
    K_lam: list[Array] = [None] * N
    notes: list[tuple[int, str]] = []

    V_next = np.zeros((two_d, two_d))
    v_next = np.zeros(two_d)
    vb_next = 0.0
    for step in reversed(expansion.steps):
        n = step.n
        Q = step.hess.copy()
        q = step.grad.copy()
        c = step.const + vb_next
        Q[d:, d:] += V_next
        q[d:] += v_next

        D = Q[:two_d, :two_d]
        C = Q[:two_d, two_d:]
        E = Q[two_d:, two_d:]
        dvec = q[:two_d]
        evec = q[two_d:]

        l = step.con_jac[:, :two_d].T
        m = step.con_jac[:, two_d:].T
        keep = _independent_columns(m)
        if keep.size != m.shape[1]:
            notes.append((n, f"dropped {m.shape[1] - keep.size} dependent constraint rows"))
        l = l[:, keep]
        m = m[:, keep]
        r = m.shape[1]

        H, eps = _bordered_inverse(E, m, n)
        if eps > 0.0:
            notes.append((n, f"regularized E with {eps:.1e}"))
        S = np.zeros_like(H)
        S[:d, :d] = E
        Hbar = H @ S @ H

        P = np.vstack([C.T, l.T])                    # (d+r, 2d)
        A = np.hstack([C, np.zeros((two_d, r))])     # (2d, d+r)
        qk = np.concatenate([evec, np.zeros(r)])

        ff = -H @ qk
        gain = -H @ P
        u_ff[n - 1] = ff[:d]
        lam_ff[n - 1] = ff[d:].copy()
        K[n - 1] = gain[:d]
        K_lam[n - 1] = gain[d:].copy()

        AHP = A @ H @ P
        Vn = D + P.T @ Hbar @ P - AHP - AHP.T
        Vn = 0.5 * (Vn + Vn.T)
        vn = dvec - A @ (H @ qk) + P.T @ ((Hbar - H) @ qk)
        vbn = c + 0.5 * float(qk @ ((Hbar - 2.0 * H) @ qk))

        V[n - 1] = Vn
        v[n - 1] = vn
        v_bar[n - 1] = vbn
        V_next, v_next, vb_next = Vn, vn, vbn

    return KodpPolicy(skeleton_id=expansion.skeleton_id, d=d, V=V, v=v,
                      v_bar=v_bar, u_ff=u_ff, K=K, lam_ff=tuple(lam_ff),
                      K_lam=tuple(K_lam), x_ref=expansion.x_ref,
                      prefix=expansion.prefix, notes=tuple(notes))


def step_policy(policy: KodpPolicy, n: int, delta_past: Array) -> tuple[Array, Array]:
    """Optimal (dx_n, dlambda_n) response to a past deviation dx_{n-2:n-1}."""
    if not 1 <= n <= policy.N:
        raise ValueError(f"step {n} outside horizon [1, {policy.N}]")
    dp = np.asarray(delta_past, dtype=float).ravel()
    if dp.shape != (2 * policy.d,):
        raise ValueError(f"delta_past must have {2 * policy.d} entries")
    dx = policy.u_ff[n - 1] + policy.K[n - 1] @ dp
    dlam = policy.lam_ff[n - 1] + policy.K_lam[n - 1] @ dp
    return dx, dlam


def cost_to_go(policy: KodpPolicy, n: int, delta_past: Array) -> float:
    """J_n at a past deviation; J_{N+1} is identically zero."""
    if n == policy.N + 1:
        return 0.0
    if not 1 <= n <= policy.N:
        raise ValueError(f"step {n} outside horizon [1, {policy.N + 1}]")
    dp = np.asarray(delta_past, dtype=float).ravel()
    if dp.shape != (2 * policy.d,):
        raise ValueError(f"delta_past must have {2 * policy.d} entries")
    return float(0.5 * dp @ policy.V[n - 1] @ dp + policy.v[n - 1] @ dp
                 + policy.v_bar[n - 1])
