"""Constrained dynamic programming over k = 2 path windows.

A skeleton's feedback policy is read off the full-cost slice of the block
recursion that weighs it (laplace.eliminate): the policy Hessian is the
Hessian of the "optimal" Laplace distribution.  read_policy reads it off
the Elimination a LaplaceComponent keeps; backward_pass eliminates the
full cost alone.  At step k, with the past p = (dx_{k-2}, dx_{k-1}, 1),
the step's Gram matrix G_k of [J | r] with the later steps' value folded
in, and the active rows solved in nullspace form, dx_k = T_k p + Z_k y,
the cost of steps k..N is

    1/2 p^T S_k^T G_k S_k p + y^T Z_k^T (G_k S_k)_x p + 1/2 y^T Z_k^T E_k Z_k y,

where S_k maps p to the window at y = 0, (.)_x takes the rows of dx_k
and E_k is the current block of G_k.  With L_k L_k^T = Z_k^T E_k Z_k and
coupling_k = L_k^{-1} Z_k^T (G_k S_k)_x, minimizing over y gives the
feedback law and the value

    dx_k = (T_k - Z_k L_k^{-T} coupling_k) p,
    V_k  = S_k^T G_k S_k - coupling_k^T coupling_k.

The first 2d columns of the law are the gain K, the last one the
feedforward u_ff; V_k splits into the cost-to-go
J_k(dp) = 1/2 dp^T V dp + v^T dp + v_bar with v_bar = V_k[2d, 2d] / 2.
Combinations of rows that vanish on dx_k but still constrain the past are
carried to step k-1 (Laine & Tomlin, "Efficient computation of feedback
control for equality-constrained LQR", ICRA 2019).  The first-order
unconstrained case reduces to the Riccati recursion; a dense KKT oracle
pins the constrained case in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg

# quadratize is the one expansion, shared with the Laplace components.
from .laplace import Elimination, Expansion, SingularComponentError, eliminate, quadratize

Array = np.ndarray


class PolicyError(RuntimeError):
    pass


@dataclass(frozen=True)
class KodpPolicy:
    """Time-varying affine feedback with per-step quadratic cost-to-go.

    V[n-1], v[n-1], v_bar[n-1] give J_n(dp) = 1/2 dp^T V dp + v^T dp + v_bar
    over dp = dx_{n-2:n-1}; u_ff[n-1] and K[n-1] give the step policy
    dx_n = u_ff + K dp.  notes list (step, text) for the constraint rows
    the recursion carried back or dropped.
    """

    skeleton_id: str
    d: int
    V: Array
    v: Array
    v_bar: Array
    u_ff: Array
    K: Array
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


def read_policy(elim: Elimination, skeleton_id: str, x_ref: Array,
                prefix: Array) -> KodpPolicy:
    """The policy of slice 0, the full cost, of an elimination about x_ref."""
    d = x_ref.shape[1]
    two_d = 2 * d
    law = np.concatenate([elim.T, np.zeros((len(elim.Z), d, 1))], axis=2)
    for step_law, Z, chol, coupling in zip(law, elim.Z, elim.chol, elim.coupling):
        if Z.shape[1]:
            step_law -= Z @ scipy.linalg.solve_triangular(chol[0], coupling[0],
                                                          lower=True, trans="T")
    V = elim.V[:, 0]
    return KodpPolicy(skeleton_id=skeleton_id, d=d,
                      V=V[:, :two_d, :two_d], v=V[:, :two_d, two_d],
                      v_bar=0.5 * V[:, two_d, two_d], u_ff=law[:, :, two_d],
                      K=law[:, :, :two_d], x_ref=x_ref, prefix=prefix,
                      notes=elim.notes)


def backward_pass(expansion: Expansion) -> KodpPolicy:
    """Eliminate x_N..x_1 of the full cost and read off the policy.

    A singular pivot raises PolicyError naming the skeleton and the step.
    """
    try:
        elim = eliminate(expansion, count=1)
    except SingularComponentError as exc:
        raise PolicyError(str(exc)) from exc
    return read_policy(elim, expansion.skeleton_id, expansion.x_ref, expansion.prefix)


def step_policy(policy: KodpPolicy, n: int, delta_past: Array) -> Array:
    """Optimal dx_n response to a past deviation dx_{n-2:n-1}."""
    if not 1 <= n <= policy.N:
        raise ValueError(f"step {n} outside horizon [1, {policy.N}]")
    dp = np.asarray(delta_past, dtype=float).ravel()
    if dp.shape != (2 * policy.d,):
        raise ValueError(f"delta_past must have {2 * policy.d} entries")
    return policy.u_ff[n - 1] + policy.K[n - 1] @ dp


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
