"""Per-step value recursion: quadratization, backward pass, policy queries."""

import dataclasses

import numpy as np
import pytest

from slgp.features import AccelerationPenalty, coordinate_target
from slgp.kodp import (StepQuadratics, backward_pass, cost_to_go, quadratize,
                       step_policy)
from slgp.problem import (PathProblem, assemble, cost_value, free_skeleton,
                          step_constraints)
from slgp.selftest import _dense_qp_oracle, _roll_policy  # noqa: PLC2701
from slgp.solver import SolverConfig, solve

TIGHT = SolverConfig(tol_step=1e-12, hessian_reg=1e-12)


def _lq(N=6, d=2):
    return PathProblem.uniform(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        per_step=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal=(coordinate_target(d, np.arange(d), np.full(d, 0.7), 5.0),))


def _expansion(problem, config=TIGHT):
    skeleton = free_skeleton(problem.N)
    sol = solve(problem, skeleton, config=config)
    assert sol.converged
    return quadratize(problem, skeleton, sol), sol, skeleton


def _window_delta(delta, n, d):
    # Deviation over (x_{n-2}, x_{n-1}, x_n); prefix entries never deviate.
    w = np.zeros(3 * d)
    for k, m in enumerate((n - 2, n - 1, n)):
        if m >= 1:
            w[k * d:(k + 1) * d] = delta[m - 1]
    return w


# --- quadratize ----------------------------------------------------------


def test_step_models_reproduce_the_true_cost_on_affine_problems():
    problem = _lq()
    exp, sol, skeleton = _expansion(problem)
    rng = np.random.default_rng(4)
    for _ in range(5):
        delta = rng.normal(scale=0.2, size=sol.x_star.shape)
        stack = assemble(problem, skeleton, sol.x_star + delta)
        model = 0.0
        for st in exp.steps:
            w = _window_delta(delta, st.n, problem.d)
            model += 0.5 * w @ st.hess @ w + st.grad @ w + st.const
        assert model == pytest.approx(cost_value(stack), rel=1e-10)


def test_costless_problems_expand_to_zero_blocks():
    problem = PathProblem.uniform(N=4, d=1, dt=0.5, sigma=1.0,
                                  prefix=np.zeros((2, 1)), per_step=())
    exp, _, _ = _expansion(problem)
    for st in exp.steps:
        assert not st.hess.any()
        assert not st.grad.any()
        assert st.const == 0.0
        assert st.con_jac.shape == (0, 3)


def test_constraint_rows_appear_only_inside_the_contact_window(elbow):
    sk = elbow.scenario.skeleton("fix-joint-2")
    sol = elbow.solution("fix-joint-2")
    lo, hi = next(m.window for m in sk.modes if m.eq)
    exp = quadratize(elbow.scenario.problem, sk, sol)
    if not sol.active_set.any():
        for st in exp.steps:
            expected = 1 if lo <= st.n <= hi else 0
            assert st.con_jac.shape[0] == expected
    else:
        assert all(st.con_jac.shape[0] >= 1
                   for st in exp.steps if lo <= st.n <= hi)


def test_effort_weight_rescales_only_effort_rows():
    problem = _lq()
    base, sol, skeleton = _expansion(problem)
    heavy = quadratize(problem, skeleton, sol, effort_weight=2.0)
    for st1, st2 in zip(base.steps[:-1], heavy.steps[:-1]):
        assert np.allclose(st2.hess, 2.0 * st1.hess)
        assert np.allclose(st2.grad, 2.0 * st1.grad)
        assert st2.const == pytest.approx(2.0 * st1.const)
    # The terminal step mixes groups: the task rows must not rescale.
    last1, last2 = base.steps[-1], heavy.steps[-1]
    assert not np.allclose(last2.hess, 2.0 * last1.hess)


def test_proximal_rho_pads_the_current_block_only():
    problem = _lq()
    base, sol, skeleton = _expansion(problem)
    prox = quadratize(problem, skeleton, sol, proximal_rho=0.5)
    d = problem.d
    bump = np.zeros((3 * d, 3 * d))
    bump[2 * d:, 2 * d:] = np.eye(d)
    for st1, st2 in zip(base.steps, prox.steps):
        assert np.allclose(st2.hess - st1.hess, bump)
        assert np.array_equal(st2.grad, st1.grad)


def _per_step_quadratics(problem, skeleton, solution, effort_weight, proximal_rho):
    """Oracle: every feature at every step on its own, padded into the window."""
    x, d = solution.x_star, problem.d
    width = 3 * d
    cursor, out = 0, []
    for n in range(1, problem.N + 1):
        F, phi, const = np.zeros((width, width)), np.zeros(width), 0.0
        feats = list(problem.step_costs[n - 1])
        if n == problem.N:
            feats += list(problem.terminal_costs)
        for feat in feats:
            r, jac = feat.eval(problem.window(x, n, feat.window))
            w = effort_weight if getattr(feat, "group", None) == "effort" else 1.0
            pad = np.zeros((feat.size, width))
            pad[:, width - feat.window * d:] = jac
            F += w * (pad.T @ pad)
            phi += w * (pad.T @ r)
            const += 0.5 * w * float(r @ r)
        F[2 * d:, 2 * d:] += 2.0 * proximal_rho * np.eye(d)
        eq, ineq = step_constraints(skeleton, n)
        rows = []
        for kind, items in (("eq", eq), ("ineq", ineq)):
            for _, feat in items:
                _, jac = feat.eval(problem.window(x, n, feat.window))
                keep = np.ones(feat.size, dtype=bool)
                if kind == "ineq":
                    keep = solution.active_set[cursor:cursor + feat.size]
                    cursor += feat.size
                pad = np.zeros((int(keep.sum()), width))
                pad[:, width - feat.window * d:] = jac[keep]
                rows.append(pad)
        con = np.vstack(rows) if rows else np.zeros((0, width))
        out.append((F, phi, const, con))
    return out


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_quadratize_matches_the_per_step_expansion(name, request):
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    for sk in bundle.scenario.skeletons:
        sol = bundle.solution(sk.id)
        for effort_weight, rho in ((1.0, 0.0), (2.5, 0.3)):
            exp = quadratize(problem, sk, sol, effort_weight=effort_weight,
                             proximal_rho=rho)
            oracle = _per_step_quadratics(problem, sk, sol, effort_weight, rho)
            for st, (F, phi, const, con) in zip(exp.steps, oracle, strict=True):
                assert np.abs(st.hess - F).max() <= 1e-12 * max(1.0, np.abs(F).max())
                assert np.abs(st.grad - phi).max() <= 1e-12 * max(1.0, np.abs(phi).max())
                assert st.const == pytest.approx(const, rel=1e-12, abs=1e-12)
                assert st.con_jac.shape == con.shape
                assert np.abs(st.con_jac - con).max(initial=0.0) <= 1e-12


# --- backward pass -------------------------------------------------------


def test_costless_policy_is_identically_zero():
    problem = PathProblem.uniform(N=4, d=1, dt=0.5, sigma=1.0,
                                  prefix=np.zeros((2, 1)), per_step=())
    exp, _, _ = _expansion(problem)
    policy = backward_pass(exp)
    assert not policy.V.any()
    assert not policy.v.any()
    assert not policy.v_bar.any()
    assert not policy.u_ff.any()
    assert not policy.K.any()


def test_feedforward_vanishes_at_the_expansion_point():
    exp, _, _ = _expansion(_lq())
    policy = backward_pass(exp)
    assert np.abs(policy.u_ff).max() < 1e-6
    xs, _ = _roll_policy(policy, np.zeros(2 * policy.d))
    assert np.abs(xs).max() < 1e-6


def test_rolled_policy_matches_the_dense_kkt_oracle(tworoute):
    # The recursion and the dense KKT oracle share the expansion point, so
    # the match tests the algebra, not how tight the reference solve was.
    problem = tworoute.scenario.problem
    sk = tworoute.scenario.skeleton("via-near")
    sol = tworoute.solution("via-near")
    exp = quadratize(problem, sk, sol)
    policy = backward_pass(exp)
    rng = np.random.default_rng(11)
    for _ in range(5):
        dp = rng.normal(scale=0.05, size=2 * problem.d)
        z, _, cost = _dense_qp_oracle(exp.steps, problem.d, dp)
        xs, _ = _roll_policy(policy, dp)
        assert np.abs(xs - z).max() < 1e-8
        assert cost_to_go(policy, 1, dp) == pytest.approx(cost, rel=1e-8,
                                                          abs=1e-10)


def test_policy_keeps_the_switch_constraint_satisfied(tworoute):
    problem = tworoute.scenario.problem
    sk = tworoute.scenario.skeleton("via-near")
    sol = tworoute.solution("via-near")
    exp = quadratize(problem, sk, sol)
    policy = backward_pass(exp)
    pinned = [st for st in exp.steps if st.con_jac.shape[0]]
    assert len(pinned) == 1
    st = pinned[0]
    rng = np.random.default_rng(2)
    for _ in range(5):
        dp = rng.normal(scale=0.1, size=2 * problem.d)
        dx, _ = step_policy(policy, st.n, dp)
        assert np.abs(st.con_jac @ np.concatenate([dp, dx])).max() < 1e-8


def test_gains_are_invariant_under_uniform_cost_scaling():
    exp, _, _ = _expansion(_lq())
    c = 3.7
    scaled = dataclasses.replace(exp, steps=tuple(
        StepQuadratics(n=st.n, hess=c * st.hess, grad=c * st.grad,
                       const=c * st.const, con_jac=st.con_jac)
        for st in exp.steps))
    p1, p2 = backward_pass(exp), backward_pass(scaled)
    assert np.abs(p2.K - p1.K).max() < 1e-8
    assert np.abs(p2.u_ff - p1.u_ff).max() < 1e-8
    assert np.abs(p2.V - c * p1.V).max() < 1e-6
    assert np.abs(p2.v_bar - c * p1.v_bar).max() < 1e-8


def test_duplicated_constraint_rows_are_filtered(tworoute):
    problem = tworoute.scenario.problem
    sk = tworoute.scenario.skeleton("via-near")
    sol = tworoute.solution("via-near")
    exp = quadratize(problem, sk, sol)
    doubled = dataclasses.replace(exp, steps=tuple(
        st if not st.con_jac.shape[0] else
        dataclasses.replace(st, con_jac=np.vstack([st.con_jac, st.con_jac]))
        for st in exp.steps))
    clean, noisy = backward_pass(exp), backward_pass(doubled)
    assert any("dependent" in note for _, note in noisy.notes)
    assert np.isfinite(noisy.V).all() and np.isfinite(noisy.u_ff).all()
    assert np.abs(noisy.K - clean.K).max() < 1e-8
    assert np.abs(noisy.u_ff - clean.u_ff).max() < 1e-8


def test_near_dependent_constraint_column_is_dropped_and_noted():
    # Two independent rows and a third that is their combination plus a
    # 1e-9 relative perturbation, far below the shared rank tolerance.
    exp, _, _ = _expansion(_lq(d=3))
    d = exp.d
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(2, 3 * d))
    normal = np.cross(rows[0, 2 * d:], rows[1, 2 * d:])
    near = 0.7 * rows[0] - 1.3 * rows[1]
    near[2 * d:] += 1e-9 * np.linalg.norm(near) * normal / np.linalg.norm(normal)
    step = 3

    def with_rows(con):
        return dataclasses.replace(exp, steps=tuple(
            dataclasses.replace(st, con_jac=con) if st.n == step else st
            for st in exp.steps))

    clean = backward_pass(with_rows(rows))
    noisy = backward_pass(with_rows(np.vstack([rows, near])))
    assert clean.notes == ()
    assert noisy.notes == ((step, "dropped 1 dependent constraint rows"),)
    assert np.abs(noisy.K - clean.K).max() < 1e-8
    assert np.abs(noisy.u_ff - clean.u_ff).max() < 1e-8


def test_push_single_finger_policy_drops_its_dependent_row(push):
    problem = push.scenario.problem
    sk = push.scenario.skeleton("single-finger")
    policy = backward_pass(quadratize(problem, sk, push.solution("single-finger")))
    assert policy.notes == ((16, "dropped 1 dependent constraint rows"),)
    assert np.isfinite(policy.V).all() and np.isfinite(policy.K).all()


# --- policy queries --------------------------------------------------------


def test_value_constants_are_the_zero_deviation_cost_to_go():
    exp, _, _ = _expansion(_lq())
    policy = backward_pass(exp)
    zero = np.zeros(2 * policy.d)
    for n in range(1, policy.N + 1):
        assert cost_to_go(policy, n, zero) == pytest.approx(
            policy.v_bar[n - 1], abs=1e-12)
    assert cost_to_go(policy, policy.N + 1, np.ones(2 * policy.d)) == 0.0


def test_policy_query_validation():
    exp, _, _ = _expansion(_lq())
    policy = backward_pass(exp)
    with pytest.raises(ValueError):
        step_policy(policy, 0, np.zeros(4))
    with pytest.raises(ValueError):
        step_policy(policy, policy.N + 1, np.zeros(4))
    with pytest.raises(ValueError):
        step_policy(policy, 1, np.zeros(3))
    with pytest.raises(ValueError):
        cost_to_go(policy, policy.N + 2, np.zeros(4))


def test_reference_lookups_substitute_the_prefix():
    problem = _lq(N=5, d=2)
    exp, sol, _ = _expansion(problem)
    policy = backward_pass(exp)
    assert policy.N == 5
    assert np.array_equal(policy.reference(3), sol.x_star[2])
    assert np.array_equal(policy.past_reference(1), problem.prefix)
    past2 = policy.past_reference(2)
    assert np.array_equal(past2[0], problem.prefix[1])
    assert np.array_equal(past2[1], sol.x_star[0])
