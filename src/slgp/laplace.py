"""Degenerate Gaussian path posteriors and their mixture.

Each converged skeleton solution x* yields a Gaussian supported on the
nullspace W of the active constraint Jacobian, with covariance
W (W^T H W)^{-1} W^T for the full cost Hessian H and, analogously, for
the effort-only Hessian H0 of the uncontrolled path distribution.  The
mixture weight of a skeleton combines its path cost with the pseudo-
determinant ratio of the two covariances,

    w_i  propto  exp(-f(x*_i)) * sqrt(|Sigma*_i|+ / |Sigma_i|+),

computed in log space throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .problem import RANK_TOL, PathProblem, Skeleton, assemble
from .solver import NlpSolution

Array = np.ndarray

UNNORMALIZED = "unnormalized"
UNIFORM_NA = "uniform_na"

_EIG_FLOOR = 1e-10


class SingularComponentError(RuntimeError):
    def __init__(self, label: str, smallest: float):
        super().__init__(f"{label} is numerically singular "
                         f"(smallest eigenvalue {smallest:.3e})")
        self.smallest = smallest


def nullspace_basis(J: Array, tol: float = RANK_TOL) -> Array:
    """Orthonormal basis of the numerical nullspace of J.

    Singular directions are those with singular value below
    tol * sigma_max.  An empty J (zero rows) yields the identity.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"J must be 2-D, got shape {J.shape}")
    n = J.shape[1]
    if J.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(J, full_matrices=True)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T.copy()


def _project_spd(H, W: Array, label: str) -> tuple[Array, Array]:
    """W^T H W with an explicit positive-definiteness check.

    Returns the projected matrix and its lower Cholesky factor.  Raises
    SingularComponentError instead of silently regularizing.
    """
    dense = H.toarray() if sp.issparse(H) else np.asarray(H, dtype=float)
    A = W.T @ dense @ W
    A = 0.5 * (A + A.T)
    r = A.shape[0]
    if r == 0:
        return A, np.zeros((0, 0))
    eigs = np.linalg.eigvalsh(A)
    floor = _EIG_FLOOR * np.trace(A) / r
    if eigs[0] <= floor:
        raise SingularComponentError(label, float(eigs[0]))
    return A, np.linalg.cholesky(A)


def _logdet_from_chol(L: Array) -> float:
    if L.shape[0] == 0:
        return 0.0
    return 2.0 * float(np.sum(np.log(np.diag(L))))


@dataclass(frozen=True)
class LaplaceComponent:
    """One skeleton's Gaussian: mean path, support basis, projected Hessians.

    proj_hess comes from all cost rows, proj_hess0 from the effort rows
    alone.  log_ratio = 1/2 (logdet proj_hess0 - logdet proj_hess), the log
    of the entropy ratio sqrt(|Sigma*|+ / |Sigma|+).  Dense covariances are
    only materialized on demand via covariance().
    """

    skeleton_id: str
    x_star: Array
    W: Array
    proj_hess: Array
    proj_hess0: Array
    rank: int
    f_star: float
    log_ratio: float
    chol: Array
    chol0: Array
    hess: sp.csr_matrix
    hess0: sp.csr_matrix
    jac_active: Array

    def covariance(self, distribution: str = "optimal") -> Array:
        L = self.chol if distribution == "optimal" else self.chol0
        if self.rank == 0:
            n = self.W.shape[0]
            return np.zeros((n, n))
        inv = scipy.linalg.cho_solve((L, True), np.eye(self.rank))
        return self.W @ inv @ self.W.T


def build_component(problem: PathProblem, skeleton: Skeleton,
                    solution: NlpSolution) -> LaplaceComponent:
    """Laplace component at a converged solution.

    The active constraint Jacobian stacks all equality rows plus the
    inequality rows flagged in solution.active_set (g >= -1e-6 and
    lambda > 1e-8).
    """
    if not solution.converged:
        raise ValueError(f"solution for '{skeleton.id}' is not converged "
                         f"(status {solution.status})")
    stack = assemble(problem, skeleton, solution.x_star)
    rows = [stack.eq_jac.toarray()] if stack.eq.size else []
    if stack.ineq.size and solution.active_set.any():
        rows.append(stack.ineq_jac[solution.active_set].toarray())
    n = stack.n_vars
    J = np.vstack(rows) if rows else np.zeros((0, n))
    W = nullspace_basis(J)

    hess = (stack.jac.T @ stack.jac).tocsr()
    jac0 = stack.jac[stack.effort_mask]
    hess0 = (jac0.T @ jac0).tocsr()
    proj, chol = _project_spd(hess, W, f"projected Hessian ({skeleton.id})")
    proj0, chol0 = _project_spd(hess0, W, f"projected effort Hessian ({skeleton.id})")
    log_ratio = 0.5 * (_logdet_from_chol(chol0) - _logdet_from_chol(chol))
    return LaplaceComponent(skeleton_id=skeleton.id, x_star=solution.x_star.copy(),
                            W=W, proj_hess=proj, proj_hess0=proj0,
                            rank=W.shape[1], f_star=solution.f_star,
                            log_ratio=log_ratio, chol=chol, chol0=chol0,
                            hess=hess, hess0=hess0, jac_active=J)


def mixture_weights(f_star, log_ratio) -> Array:
    """Normalized weights from per-component log masses -f* + log_ratio.

    Computed with max subtraction; exact on the simplex.
    """
    f_star = np.asarray(f_star, dtype=float)
    log_ratio = np.asarray(log_ratio, dtype=float)
    if f_star.shape != log_ratio.shape or f_star.ndim != 1 or f_star.size == 0:
        raise ValueError("f_star and log_ratio must be equal-length 1-D arrays")
    logits = -f_star + log_ratio
    logits = logits - logits.max()
    w = np.exp(logits)
    return w / w.sum()


def multimodal_cost(f_star, log_ratio, prior_mode: str = UNNORMALIZED) -> float:
    """-log of the total mixture mass, optionally with the uniform 1/N_a prior."""
    f_star = np.asarray(f_star, dtype=float)
    log_ratio = np.asarray(log_ratio, dtype=float)
    logits = -f_star + log_ratio
    peak = logits.max()
    total = -(peak + np.log(np.exp(logits - peak).sum()))
    if prior_mode == UNIFORM_NA:
        return float(total + np.log(f_star.size))
    if prior_mode == UNNORMALIZED:
        return float(total)
    raise ValueError(f"unknown prior mode '{prior_mode}'")


@dataclass(frozen=True)
class PathMixture:
    components: tuple[LaplaceComponent, ...]
    weights: Array
    prior_mode: str
    cost: float

    def to_dict(self) -> dict:
        f = np.array([c.f_star for c in self.components])
        lr = np.array([c.log_ratio for c in self.components])
        return {
            "schema": "slgp.mixture/1",
            "priorMode": self.prior_mode,
            "components": [
                {"skeletonId": c.skeleton_id, "fStar": c.f_star,
                 "logRatio": c.log_ratio, "entropyRatio": float(np.exp(c.log_ratio)),
                 "rank": c.rank, "weight": float(w)}
                for c, w in zip(self.components, self.weights)
            ],
            "multimodalCost": {
                UNNORMALIZED: multimodal_cost(f, lr, UNNORMALIZED),
                UNIFORM_NA: multimodal_cost(f, lr, UNIFORM_NA),
            },
        }


def build_mixture(components, prior_mode: str = UNNORMALIZED) -> PathMixture:
    components = tuple(components)
    f = np.array([c.f_star for c in components])
    lr = np.array([c.log_ratio for c in components])
    return PathMixture(components=components,
                       weights=mixture_weights(f, lr),
                       prior_mode=prior_mode,
                       cost=multimodal_cost(f, lr, prior_mode))


def sample_paths(component: LaplaceComponent, count: int, seed: int,
                 distribution: str = "optimal") -> Array:
    """Draw paths x* + W L^{-T} z, z standard normal in the support.

    distribution "optimal" uses the full-cost covariance, "uncontrolled"
    the effort-only covariance.  Deterministic for a fixed seed; returns
    (count, N, d).
    """
    if distribution not in ("optimal", "uncontrolled"):
        raise ValueError(f"unknown distribution '{distribution}'")
    N, d = component.x_star.shape
    rng = np.random.default_rng(seed)
    if component.rank == 0:
        return np.tile(component.x_star, (count, 1, 1))
    L = component.chol if distribution == "optimal" else component.chol0
    z = rng.standard_normal((component.rank, count))
    y = scipy.linalg.solve_triangular(L.T, z, lower=False)
    flat = component.x_star.ravel()[:, None] + component.W @ y
    return np.ascontiguousarray(flat.T.reshape(count, N, d))


def _band_columns(H, N: int, d: int) -> Array:
    """Upper band of a block-pentadiagonal matrix, block column by block column.

    Entry [k + 1] is the (3d, d) stack of blocks (k-2, k), (k-1, k) and
    (k, k) of H for block k = 1..N.  Entries 0 and 1 stand for the two
    prefix blocks and stay zero, so folds into them need no bounds checks.
    Only the nonzeros of the sparse matrix are read.
    """
    coo = sp.coo_matrix(H)
    rb, cb = coo.row // d, coo.col // d
    upper = rb <= cb
    rb, cb = rb[upper], cb[upper]
    if np.any(cb - rb > 2):
        raise ValueError("Hessian couples blocks more than two steps apart")
    band = np.zeros((N + 2, 3 * d, d))
    np.add.at(band, (cb + 2, (2 - cb + rb) * d + coo.row[upper] % d,
                     coo.col[upper] % d), coo.data[upper])
    return band


def _rows_by_last_block(J: Array, N: int, d: int) -> list[list[Array]]:
    """Constraint rows over their window of blocks k-2..k, grouped by the
    last block k they touch.  All-zero rows are left out."""
    groups: list[list[Array]] = [[] for _ in range(N + 1)]
    nonzero = J != 0.0
    padded = np.hstack([np.zeros((J.shape[0], 2 * d)), J])
    for i in np.flatnonzero(nonzero.any(axis=1)):
        cols = np.flatnonzero(nonzero[i])
        first, last = cols[0] // d + 1, cols[-1] // d + 1
        if last - first > 2:
            raise ValueError(f"constraint row {i} spans more than three steps")
        groups[last].append(padded[i, (last - 1) * d:(last + 2) * d])
    return groups


def future_log_ratios(component: LaplaceComponent) -> Array:
    """Per-step log entropy ratios of the conditional future distribution.

    Entry n-1 is 1/2 (logdet H0_f - logdet H_f), where H_f and H0_f are
    the trailing blocks over steps n..N of the full and the effort-only
    Hessian, projected onto the nullspace of the active rows' future
    columns; entry 0 equals the component's full log_ratio.  One backward
    block recursion over k = N..1 gives all N entries in O(N d^3):

    * the rows whose last nonzero block is k are split by the singular
      values of their block-k part (rank tolerance as in nullspace_basis);
      Z_k spans the nullspace and x_k = T_k (x_{k-2}, x_{k-1}) + Z_k y
      satisfies the independent rows;
    * the pivot Z_k^T G_k Z_k of each Hessian, with the later blocks
      already folded into G_k, adds its log-determinant to the running
      sums; eliminating y folds the Schur complement into blocks k-2 and
      k-1;
    * row combinations that vanish on block k but still touch block k-2
      or k-1 join the rows ending at block k-1, where they are ranked
      against the scale of the block they came from.

    The pivots for k >= n are exactly those of the elimination of the
    future from n with the past held fixed, and the log-determinant ratio
    does not depend on the basis of the nullspace, so entry n-1 is the
    suffix sum of the pivot terms from k = n.
    """
    N, d = component.x_star.shape
    sid = component.skeleton_id
    bands = (_band_columns(component.hess, N, d),
             _band_columns(component.hess0, N, d))
    groups = _rows_by_last_block(component.jac_active, N, d)
    scale = np.zeros(N + 1)
    terms = np.zeros(N)
    for k in range(N, 0, -1):
        Z, T = np.eye(d), np.zeros((d, 2 * d))
        if groups[k]:
            R = np.array(groups[k])
            L, M = R[:, :2 * d], R[:, 2 * d:]
            U, s, vt = np.linalg.svd(M)
            ref = max(s[0], scale[k])
            rank = int(np.sum(s > RANK_TOL * ref))
            Z = vt[rank:].T
            T = -(vt[:rank].T / s[:rank]) @ (U[:, :rank].T @ L)
            for row in U[:, rank:].T @ L:
                # A combination free of block k that still constrains the
                # earlier blocks: treat it as a row ending at block k-1.
                if k > 1 and np.abs(row).max() > RANK_TOL * ref:
                    groups[k - 1].append(np.concatenate([np.zeros(d), row]))
                    scale[k - 1] = max(scale[k - 1], ref)
        logdets = []
        for band, label in zip(bands, ("future block", "future effort block")):
            C, E = band[k + 1, :2 * d].T, band[k + 1, 2 * d:]
            ETC = E @ T + C
            S = T.T @ ETC + ETC.T @ T - T.T @ E @ T
            _, chol = _project_spd(E, Z, f"{label} of '{sid}' at step {k}")
            if chol.size:
                B = scipy.linalg.solve_triangular(chol, Z.T @ ETC, lower=True)
                S -= B.T @ B
            S = 0.5 * (S + S.T)
            band[k, 2 * d:] += S[d:, d:]
            band[k, d:2 * d] += S[:d, d:]
            band[k - 1, 2 * d:] += S[:d, :d]
            logdets.append(_logdet_from_chol(chol))
        terms[k - 1] = 0.5 * (logdets[1] - logdets[0])
    return np.cumsum(terms[::-1])[::-1]
