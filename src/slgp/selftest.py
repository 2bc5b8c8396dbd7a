"""Self-contained diagnostic suites with independent oracles.

Each suite returns (ok, detail) and is deterministic.  The heavy
recursions are cross-checked against separately written references: a
textbook value recursion for first-order LQ problems, a dense KKT solve
for constrained quadratic instances, and dense nullspace projections for
the Laplace covariances and the future log ratios.  The dense oracles are
public so the tests share them.  run_suites prints one PASS/FAIL line per
suite.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from .execution import build_controller, rollout
from .features import check_jacobian, coordinate_target, AccelerationPenalty
from .laplace import (Elimination, Expansion, SingularComponentError, ancestral_paths,
                      build_component, build_components, build_mixture, eliminate,
                      future_log_ratios, mixture_weights, multimodal_cost,
                      nullspace_basis, sample_paths)
from .problem import PathProblem, assemble, free_skeleton
from .scenarios import ScenarioParams, build_scenario
from .solver import SolverConfig, solve

Array = np.ndarray

# Frozen reference mixture: per-skeleton path costs, covariance-determinant
# ratios, the resulting weights, and the combined cost.
_REF_F = np.array([0.1930, 0.7682, 0.6204, 1.4827])
_REF_RATIO = np.array([0.0041, 0.0099, 0.0584, 0.0646])
_REF_WEIGHTS = np.array([0.0626, 0.0850, 0.5810, 0.2713])
_REF_COST = 2.918


def suite_table_arithmetic() -> tuple[bool, str]:
    """Weights and combined cost reproduce the frozen four-skeleton table."""
    w = mixture_weights(_REF_F, np.log(_REF_RATIO))
    cost = multimodal_cost(_REF_F, np.log(_REF_RATIO))
    w_err = float(np.abs(w - _REF_WEIGHTS).max())
    c_err = abs(cost - _REF_COST)
    ok = w_err <= 1e-3 and c_err <= 2e-3
    return ok, f"max weight err {w_err:.2e} (tol 1e-3); cost err {c_err:.2e} (tol 2e-3)"


# --- per-step quadratics -----------------------------------------------------

def _quadratic_expansion(hess, grad, const, rows, skeleton_id: str) -> Expansion:
    """Expansion of the per-step quadratics 1/2 w^T hess w + grad^T w + const
    over the windows w, with the active rows.  Only the full-cost Gram is
    filled: the effort slot stays zero, which _full_cost_elimination never
    reads."""
    N, width = len(hess), np.shape(hess)[1]
    grams = np.zeros((N, 2, width + 1, width + 1))
    grams[:, 0, :width, :width] = hess
    grams[:, 0, :width, width] = grams[:, 0, width, :width] = grad
    grams[:, 0, width, width] = 2.0 * np.asarray(const)
    d = width // 3
    return Expansion(skeleton_id=skeleton_id, x_ref=np.zeros((N, d)),
                     prefix=np.zeros((2, d)), grams=grams, rows=tuple(rows))


def _full_cost_elimination(expansion: Expansion) -> Elimination:
    """eliminate over the full cost of one expansion; a singular pivot raises."""
    elim, = eliminate([expansion], count=1)
    if isinstance(elim, SingularComponentError):
        raise elim
    return elim


# --- the policy in the full-cost slice ----------------------------------------
# The feedback law and value of a skeleton are slice 0 of an elimination's
# law and V, over the past p = (dx_{n-2}, dx_{n-1}, 1) (see slgp.execution).

def _roll_policy(elim: Elimination, delta_prefix: Array) -> Array:
    """Deviation path dx_{1:N} that the full-cost law drives from the
    prefix deviation (dx_{-1}, dx_0)."""
    law = elim.law[:, 0]
    d = law.shape[1]
    p = np.append(np.asarray(delta_prefix, dtype=float), 1.0)
    xs = np.empty((len(law), d))
    for k, step_law in enumerate(law):
        xs[k] = step_law @ p
        p = np.concatenate([p[d:2 * d], xs[k], [1.0]])
    return xs


def _optimal_cost(elim: Elimination, delta_prefix: Array) -> float:
    """J_1 = 1/2 p^T V_1 p of the full cost at the prefix deviation."""
    p = np.append(np.asarray(delta_prefix, dtype=float), 1.0)
    return float(0.5 * p @ elim.V[0, 0] @ p)


# --- first-order LQ oracle --------------------------------------------------

def _lq_oracle(A, R, Q, g, consts):
    """Textbook backward value recursion for
    f_n = 1/2 |x_n - A_n x_{n-1}|^2_{R_n} + 1/2 x_n^T Q_n x_n + g_n^T x_n + c_n
    by direct partial minimization.  Returns per-step (P, p, c)."""
    N = len(A)
    d = A[0].shape[0]
    P = np.zeros((d, d))
    p = np.zeros(d)
    c = 0.0
    out = [None] * N
    for n in reversed(range(N)):
        M = R[n] + Q[n] + P
        F = np.linalg.solve(M, R[n] @ A[n])
        f0 = -np.linalg.solve(M, g[n] + p)
        G = F - A[n]
        QP = Q[n] + P
        Pn = G.T @ R[n] @ G + F.T @ QP @ F
        pn = G.T @ (R[n] @ f0) + F.T @ (QP @ f0) + F.T @ (g[n] + p)
        cn = (0.5 * f0 @ (R[n] @ f0) + 0.5 * f0 @ (QP @ f0)
              + (g[n] + p) @ f0 + c + consts[n])
        out[n] = (0.5 * (Pn + Pn.T), pn, cn, F, f0)
        P, p, c = out[n][0], pn, cn
    return out


def suite_riccati_equivalence(instances: int = 10) -> tuple[bool, str]:
    """Backward pass on first-order LQ steps matches the Riccati recursion.

    The step quadratics only couple (x_{n-1}, x_n); the oldest window
    block stays empty, so the recursion must reproduce the classical
    value matrices in the x_{n-1} block and zeros elsewhere.
    """
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(instances):
        N = int(rng.integers(3, 51))
        d = int(rng.integers(1, 5))

        def spd():
            B = rng.standard_normal((d, d))
            return B @ B.T + 0.3 * np.eye(d)

        A = [rng.standard_normal((d, d)) * 0.6 for _ in range(N)]
        R = [spd() for _ in range(N)]
        Q = [spd() * 0.5 for _ in range(N)]
        g = [rng.standard_normal(d) for _ in range(N)]
        consts = rng.standard_normal(N)

        hess = np.zeros((N, 3 * d, 3 * d))
        for n in range(N):
            hess[n, d:2 * d, d:2 * d] = A[n].T @ R[n] @ A[n]
            hess[n, d:2 * d, 2 * d:] = -A[n].T @ R[n]
            hess[n, 2 * d:, d:2 * d] = -R[n] @ A[n]
            hess[n, 2 * d:, 2 * d:] = R[n] + Q[n]
        grad = np.zeros((N, 3 * d))
        grad[:, 2 * d:] = g
        elim = _full_cost_elimination(_quadratic_expansion(
            hess, grad, consts, [np.zeros((0, 3 * d))] * N, "lq"))

        oracle = _lq_oracle(A, R, Q, g, consts)
        for n in range(N):
            P, p, c, F, f0 = oracle[n]
            V, law = elim.V[n, 0], elim.law[n, 0]
            scale = max(1.0, np.abs(P).max(), abs(c))
            worst = max(worst,
                        np.abs(V[d:2 * d, d:2 * d] - P).max() / scale,
                        np.abs(V[:d]).max() / scale,
                        np.abs(V[d:2 * d, 2 * d] - p).max() / scale,
                        abs(0.5 * V[2 * d, 2 * d] - c) / scale,
                        np.abs(law[:, d:2 * d] - F).max() / scale,
                        np.abs(law[:, :d]).max() / scale,
                        np.abs(law[:, 2 * d] - f0).max() / scale)
    elapsed = time.perf_counter() - start
    return worst <= 1e-8, (f"{instances} instances, max rel err {worst:.2e} "
                           f"(tol 1e-8), {elapsed:.2f}s")


# --- dense equality-QP oracle ----------------------------------------------

def _dense_qp_oracle(expansion: Expansion, delta_prefix: Array):
    """Assemble the full quadratic over x_{1:N} with the prefix deviation
    substituted and solve the dense KKT system.  Returns the path
    deviation (N, d) and the optimal cost."""
    d = expansion.d
    N = len(expansion.rows)
    nz = N * d
    H = np.zeros((nz, nz))
    g = np.zeros(nz)
    c = 0.0
    a_rows, b_rows = [], []
    for n, (G, rows) in enumerate(zip(expansion.grams[:, 0], expansion.rows), start=1):
        hess, grad, const = G[:-1, :-1], G[:-1, -1], 0.5 * G[-1, -1]
        S = np.zeros((3 * d, nz))
        t = np.zeros(3 * d)
        for k, m in enumerate((n - 2, n - 1, n)):
            sl = slice(k * d, (k + 1) * d)
            if m >= 1:
                S[sl, (m - 1) * d:m * d] = np.eye(d)
            else:
                t[sl] = delta_prefix[(m + 1) * d:(m + 2) * d]
        H += S.T @ hess @ S
        g += S.T @ (hess @ t + grad)
        c += 0.5 * t @ hess @ t + grad @ t + const
        if rows.shape[0]:
            a_rows.append(rows @ S)
            b_rows.append(-rows @ t)
    A = np.vstack(a_rows) if a_rows else np.zeros((0, nz))
    b = np.concatenate(b_rows) if b_rows else np.zeros(0)
    na = A.shape[0]
    kkt = np.zeros((nz + na, nz + na))
    kkt[:nz, :nz] = H
    kkt[:nz, nz:] = A.T
    kkt[nz:, :nz] = A
    z = np.linalg.solve(kkt, np.concatenate([-g, b]))[:nz]
    cost = 0.5 * z @ H @ z + g @ z + c
    return z.reshape(N, d), float(cost)


def suite_dense_qp(instances: int = 10, deviations: int = 20) -> tuple[bool, str]:
    """Constrained quadratic instances: the staged policy reproduces the
    dense KKT trajectory and optimal cost for random past deviations."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    N, d = 5, 2
    for _ in range(instances):
        hess, grad, const, rows = [], [], [], []
        for n in range(1, N + 1):
            B = rng.standard_normal((3 * d + 2, 3 * d))
            H = B.T @ B / (3 * d)
            H[2 * d:, 2 * d:] += (0.5 + rng.random()) * np.eye(d)
            rows.append(rng.standard_normal((int(rng.integers(0, d + 1)), 3 * d)))
            hess.append(H)
            grad.append(rng.standard_normal(3 * d))
            const.append(float(rng.standard_normal()))
        expansion = _quadratic_expansion(hess, grad, const, rows, "qp")
        elim = _full_cost_elimination(expansion)
        for _ in range(deviations):
            dp = 0.3 * rng.standard_normal(2 * d)
            z_ref, cost_ref = _dense_qp_oracle(expansion, dp)
            z = _roll_policy(elim, dp)
            cost = _optimal_cost(elim, dp)
            scale = max(1.0, np.abs(z_ref).max(), abs(cost_ref))
            worst = max(worst, np.abs(z - z_ref).max() / scale,
                        abs(cost - cost_ref) / scale)
    elapsed = time.perf_counter() - start
    return worst <= 1e-8, (f"{instances} instances x {deviations} deviations, "
                           f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s")


# --- dense Laplace oracles ----------------------------------------------------

def dense_jacobian(stack, select) -> Array:
    """Dense (rows, N d) Jacobian over the path variables of the table rows
    that select (a slice or a mask) picks, in table order, built from the
    per-row window blocks; the prefix columns are dropped."""
    blocks, steps = stack.blocks[select], stack.steps[select]
    N, d = stack.N, stack.d
    J = np.zeros((len(steps), (N + 2) * d))
    for i, n in enumerate(steps):
        J[i, (n - 1) * d:(n + 2) * d] = blocks[i]
    return J[:, 2 * d:]


def dense_laplace_terms(problem, skeleton, solution) -> tuple[Array, Array, Array]:
    """Dense full and effort-only Gauss-Newton Hessians and the active
    constraint Jacobian of a component, (N d, N d), (N d, N d), (rows, N d)."""
    stack = assemble(problem, skeleton, solution.x_star)
    cost, eq, ineq = stack.kinds
    J, J0 = dense_jacobian(stack, cost), dense_jacobian(stack, stack.effort_mask)
    active = np.zeros(stack.steps.size, dtype=bool)
    active[eq] = True
    active[ineq] = solution.active_set
    return J.T @ J, J0.T @ J0, dense_jacobian(stack, active)


def projected_logdet(H: Array, W: Array) -> float:
    """log det W^T H W; raises ValueError unless it is positive definite."""
    sign, logdet = np.linalg.slogdet(W.T @ H @ W)
    if sign <= 0:
        raise ValueError("projected Hessian is not positive definite")
    return float(logdet)


def dense_covariance(problem, skeleton, solution,
                     distribution: str = "optimal") -> Array:
    """W (W^T H W)^{-1} W^T over the N d path variables, W an orthonormal
    nullspace basis of the active rows and H the full ("optimal") or the
    effort-only ("uncontrolled") Hessian."""
    H, H0, J = dense_laplace_terms(problem, skeleton, solution)
    W = nullspace_basis(J)
    A = W.T @ (H if distribution == "optimal" else H0) @ W
    return W @ np.linalg.solve(A, W.T)


def factor_covariance(component, distribution: str = "optimal") -> Array:
    """Covariance of the sampler's linear map z -> dx, read off by applying
    ancestral_paths to the identity: the rows are the images of the unit
    vectors, so the covariance is their Gram matrix."""
    A = ancestral_paths(component, np.eye(component.rank), distribution)
    A = (A - component.x_star).reshape(component.rank, -1)
    return A.T @ A


# --- Gaussian exactness ------------------------------------------------------

def _lq_problem(N: int = 8, d: int = 2):
    dt, sigma = 0.2, 0.4
    prefix = np.zeros((2, d))
    return PathProblem(
        N=N, d=d, dt=dt, sigma=sigma, prefix=prefix,
        costs=(AccelerationPenalty(d, dt, sigma),),
        terminal_costs=(coordinate_target(d, np.arange(d), np.full(d, 0.7), 5.0),))


def suite_laplace_lq(samples: int = 100_000) -> tuple[bool, str]:
    """On unconstrained LQ problems the approximation is exact. The mean and
    the covariance of the sampler's linear map match a dense Gaussian-
    posterior oracle (least squares on the stacked affine residuals), the
    combined cost equals the slogdet-based closed form, and the sampler's
    empirical covariance matches the dense covariance oracle."""
    start = time.perf_counter()
    mean_err = cov_err = cost_err = 0.0
    tight = SolverConfig(tol_step=1e-12, hessian_reg=1e-12)
    for N, d in ((8, 2), (5, 1), (12, 3)):
        problem = _lq_problem(N, d)
        skeleton = free_skeleton(N)
        sol = solve(problem, skeleton, config=tight)
        if not sol.converged:
            return False, f"LQ solve N={N} d={d} failed (status {sol.status})"
        comp = build_component(problem, skeleton, sol)

        # Every residual is affine, so the stack at the origin gives the
        # exact posterior: mean from least squares, covariance from (A^T A)^-1.
        zeros = np.zeros((N, d))
        stack = assemble(problem, skeleton, zeros)
        A, b = dense_jacobian(stack, stack.kinds[0]), stack.residuals
        mean = np.linalg.lstsq(A, -b, rcond=None)[0]
        cov_oracle = np.linalg.inv(A.T @ A)
        mean_err = max(mean_err,
                       float(np.max(np.abs(sol.x_star.ravel() - mean))))
        cov_err = max(cov_err, float(np.max(
            np.abs(factor_covariance(comp, "optimal") - cov_oracle))))

        A0 = dense_jacobian(stack, stack.effort_mask)
        sign, logdet = np.linalg.slogdet(A.T @ A)
        sign0, logdet0 = np.linalg.slogdet(A0.T @ A0)
        if sign <= 0 or sign0 <= 0:
            return False, f"dense Hessians not positive definite (N={N} d={d})"
        exact = sol.f_star - 0.5 * (logdet0 - logdet)
        got = multimodal_cost(np.array([comp.f_star]),
                              np.array([comp.log_ratio]))
        cost_err = max(cost_err, abs(got - exact))

    problem = _lq_problem()
    skeleton = free_skeleton(problem.N)
    sol = solve(problem, skeleton)
    comp = build_component(problem, skeleton, sol)
    draws = sample_paths(comp, samples, seed=13).reshape(samples, -1)
    emp = np.cov(draws, rowvar=False)
    cov = dense_covariance(problem, skeleton, sol, "optimal")
    sample_err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    elapsed = time.perf_counter() - start
    ok = (mean_err <= 1e-8 and cov_err <= 1e-8 and cost_err <= 1e-8
          and sample_err <= 0.05)
    return ok, (f"mean err {mean_err:.2e}, cov err {cov_err:.2e}, cost err "
                f"{cost_err:.2e} (tol 1e-8); sampled cov rel err "
                f"{sample_err:.3f} (tol 0.05), {samples} draws, {elapsed:.2f}s")


# --- feature derivative checks ----------------------------------------------

def _scenario_features(scenario):
    feats = [*scenario.problem.costs, *scenario.problem.terminal_costs]
    for sk in scenario.skeletons:
        for mode in sk.modes:
            feats.extend(mode.eq)
            feats.extend(mode.ineq)
        for sw in sk.switches:
            feats.extend(sw.eq)
            feats.extend(sw.ineq)
    return feats


def suite_feature_jacobians() -> tuple[bool, str]:
    """Central finite differences confirm every scenario feature Jacobian."""
    rng = np.random.default_rng(101)
    worst, count = 0.0, 0
    for name in ("elbow", "push", "tworoute"):
        scenario = build_scenario(ScenarioParams(name=name))
        d = scenario.problem.d
        for feat in _scenario_features(scenario):
            for _ in range(2):
                xs = rng.uniform(-0.7, 0.7, (feat.window, d))
                worst = max(worst, check_jacobian(feat, xs, h=1e-6))
                count += 1
    return worst <= 1e-4, (f"{count} checks across 3 scenarios, "
                           f"max rel err {worst:.2e} (tol 1e-4)")


def suite_weight_simplex() -> tuple[bool, str]:
    """Weights stay on the simplex for benign and extreme inputs."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for scale in (1.0, 1e2, 1e4):
        for _ in range(20):
            f = rng.normal(0.0, scale, 6)
            lr = rng.normal(0.0, 1.0, 6)
            w = mixture_weights(f, lr)
            if not np.all(np.isfinite(w)) or w.min() < 0.0:
                return False, f"nonfinite or negative weight at scale {scale}"
            worst = max(worst, abs(float(w.sum()) - 1.0))
            shifted = mixture_weights(f + 123.0, lr)
            worst = max(worst, float(np.abs(shifted - w).max()))
    single = mixture_weights(np.array([4.2]), np.array([-1.0]))
    worst = max(worst, abs(float(single[0]) - 1.0))
    return worst <= 1e-12, f"max simplex defect {worst:.2e} (tol 1e-12)"


def suite_nullspace() -> tuple[bool, str]:
    """Nullspace bases are orthonormal, annihilate J, and have the right
    dimension for full-rank, rank-deficient, zero, and empty inputs."""
    rng = np.random.default_rng(17)
    worst = 0.0
    cases = []
    J = rng.standard_normal((3, 8))
    cases.append((J, 8 - 3))
    v, w = rng.standard_normal(8), rng.standard_normal(8)
    cases.append((np.vstack([v, v, w]), 8 - 2))
    cases.append((np.zeros((2, 5)), 5))
    cases.append((np.zeros((0, 4)), 4))
    for J, nullity in cases:
        W = nullspace_basis(J)
        if W.shape != (J.shape[1], nullity):
            return False, f"expected nullity {nullity}, got shape {W.shape}"
        if J.shape[0]:
            worst = max(worst, float(np.abs(J @ W).max()))
        gram = W.T @ W - np.eye(W.shape[1])
        worst = max(worst, float(np.abs(gram).max()))
    return worst <= 1e-8, f"max residual {worst:.2e} (tol 1e-8)"


def _dense_future_log_ratios(problem, skeleton, solution) -> Array:
    """Dense per-step oracle for laplace.future_log_ratios.

    For every step n it restricts the active rows to the future columns
    n..N (rows without future support drop out), takes a fresh nullspace
    basis, and projects both trailing principal Hessian blocks onto it:
    O(N^4 d^3), for tests only.
    """
    N, d = problem.N, problem.d
    H, H0, J = dense_laplace_terms(problem, skeleton, solution)
    out = np.empty(N)
    for n in range(1, N + 1):
        lo = (n - 1) * d
        Jf = J[:, lo:]
        if Jf.shape[0]:
            Jf = Jf[np.abs(Jf).max(axis=1) > 0.0]
        W = nullspace_basis(Jf)
        out[n - 1] = 0.5 * (projected_logdet(H0[lo:, lo:], W)
                            - projected_logdet(H[lo:, lo:], W))
    return out


def suite_future_ratios() -> tuple[bool, str]:
    """The per-step future log ratios of the block recursion match the
    dense per-step projection on both tworoute skeletons."""
    scenario = build_scenario(ScenarioParams(name="tworoute", N=16, T=2.0))
    start = time.perf_counter()
    worst = 0.0
    for sk in scenario.skeletons:
        sol = solve(scenario.problem, sk)
        if not sol.converged:
            return False, f"tworoute solve '{sk.id}' did not converge"
        comp = build_component(scenario.problem, sk, sol)
        got = future_log_ratios(comp)
        dense = _dense_future_log_ratios(scenario.problem, sk, sol)
        worst = max(worst, float(np.abs(got - dense).max()),
                    abs(float(got[0]) - comp.log_ratio))
    elapsed = time.perf_counter() - start
    return worst <= 1e-8, (f"{len(scenario.skeletons)} skeletons, max abs err "
                           f"{worst:.2e} (tol 1e-8), {elapsed:.2f}s")


def suite_determinism() -> tuple[bool, str]:
    """The plan/simulate pipeline is bit-identical across repeated runs."""
    params = ScenarioParams(name="tworoute", N=16, T=2.0)

    def once():
        scenario = build_scenario(params)
        sols = [solve(scenario.problem, sk) for sk in scenario.skeletons]
        if not all(s.converged for s in sols):
            raise RuntimeError("tworoute solve did not converge")
        comps = build_components(scenario.problem, zip(scenario.skeletons, sols))
        for comp in comps:
            if isinstance(comp, SingularComponentError):
                raise RuntimeError(str(comp))
        blob = json.dumps(build_mixture(comps).to_dict(), sort_keys=True)
        ctrl = build_controller([c.elimination for c in comps], comps)
        ro = rollout(scenario.problem, scenario.truth, ctrl, noise_scale=1.0,
                     seed=11, target=(scenario.target_coords, scenario.target_values))
        draws = sample_paths(comps[0], 16, seed=5)
        return blob, ro.path, draws

    try:
        blob_a, path_a, draws_a = once()
        blob_b, path_b, draws_b = once()
    except RuntimeError as exc:
        return False, str(exc)
    ok = (blob_a == blob_b and np.array_equal(path_a, path_b)
          and np.array_equal(draws_a, draws_b))
    return ok, ("mixture JSON, rollout path, and samples bit-identical"
                if ok else "repeated runs differ")


ALL_SUITES = {
    "table": suite_table_arithmetic,
    "riccati": suite_riccati_equivalence,
    "qp": suite_dense_qp,
    "laplace": suite_laplace_lq,
    "jacobians": suite_feature_jacobians,
    "simplex": suite_weight_simplex,
    "nullspace": suite_nullspace,
    "future": suite_future_ratios,
    "determinism": suite_determinism,
}


def run_suites(names=None, stream=None) -> list[tuple[str, bool, str]]:
    stream = stream or sys.stdout
    selected = list(names) if names else list(ALL_SUITES)
    results = []
    for name in selected:
        if name not in ALL_SUITES:
            raise ValueError(f"unknown suite '{name}'; choose from {sorted(ALL_SUITES)}")
        try:
            ok, detail = ALL_SUITES[name]()
        except Exception as exc:  # noqa: BLE001 - a crashing suite is a failure
            ok, detail = False, f"raised {exc!r}"
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'} {name:<12} {detail}", file=stream)
    return results
