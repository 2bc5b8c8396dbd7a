"""Per-step value recursion: quadratization, backward pass, policy queries."""

import dataclasses

import numpy as np
import pytest

from slgp.features import AccelerationPenalty, coordinate_target
from slgp.kodp import (PolicyError, backward_pass, cost_to_go, quadratize,
                       read_policy, step_policy)
from slgp.problem import (PathProblem, assemble, cost_value, free_skeleton,
                          step_constraints)
from slgp.selftest import _dense_qp_oracle, _roll_policy  # noqa: PLC2701
from slgp.solver import SolverConfig, solve

from path_windows import window

TIGHT = SolverConfig(tol_step=1e-12, hessian_reg=1e-12)


def _lq(N=6, d=2):
    return PathProblem(
        N=N, d=d, dt=0.2, sigma=0.4, prefix=np.zeros((2, d)),
        costs=(AccelerationPenalty(d, 0.2, 0.4),),
        terminal_costs=(coordinate_target(d, np.arange(d), np.full(d, 0.7), 5.0),))


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


def _with_rows(expansion, step, rows):
    return dataclasses.replace(expansion, rows=tuple(
        rows if n == step else r for n, r in enumerate(expansion.rows, start=1)))


# --- quadratize ----------------------------------------------------------


def test_step_models_reproduce_the_true_cost_on_affine_problems():
    problem = _lq()
    exp, sol, skeleton = _expansion(problem)
    rng = np.random.default_rng(4)
    for _ in range(5):
        delta = rng.normal(scale=0.2, size=sol.x_star.shape)
        stack = assemble(problem, skeleton, sol.x_star + delta)
        model = 0.0
        for n, G in enumerate(exp.grams[:, 0], start=1):
            w = np.append(_window_delta(delta, n, problem.d), 1.0)
            model += 0.5 * w @ G @ w
        assert model == pytest.approx(cost_value(stack), rel=1e-10)


def test_costless_problems_expand_to_zero_blocks():
    problem = PathProblem(N=4, d=1, dt=0.5, sigma=1.0,
                          prefix=np.zeros((2, 1)), costs=())
    exp, _, _ = _expansion(problem)
    assert exp.grams.shape == (4, 2, 4, 4)
    assert not exp.grams.any()
    assert [rows.shape for rows in exp.rows] == [(0, 3)] * 4


def test_constraint_rows_appear_only_inside_the_contact_window(elbow):
    sk = elbow.scenario.skeleton("fix-joint-2")
    sol = elbow.solution("fix-joint-2")
    lo, hi = next(m.window for m in sk.modes if m.eq)
    exp = quadratize(elbow.scenario.problem, sk, sol)
    counts = [rows.shape[0] for rows in exp.rows]
    if not sol.active_set.any():
        for n, count in enumerate(counts, start=1):
            assert count == (1 if lo <= n <= hi else 0)
    else:
        assert all(count >= 1 for count in counts[lo - 1:hi])


def _per_step_quadratics(problem, skeleton, solution):
    """Oracle: every feature at every step on its own, padded into the
    window plus the affine column, summed over all rows and over the
    effort rows."""
    x, d = solution.x_star, problem.d
    width = 3 * d
    cursor, out = 0, []
    for n in range(1, problem.N + 1):
        G = np.zeros((2, width + 1, width + 1))
        feats = list(problem.costs)
        if n == problem.N:
            feats += list(problem.terminal_costs)
        for feat in feats:
            r, jac = feat.eval(window(problem, x, n, feat.window))
            pad = np.zeros((feat.size, width + 1))
            pad[:, width - feat.window * d:width] = jac
            pad[:, width] = r
            G[0] += pad.T @ pad
            if getattr(feat, "group", None) == "effort":
                G[1] += pad.T @ pad
        eq, ineq = step_constraints(skeleton, n)
        rows = []
        for kind, items in (("eq", eq), ("ineq", ineq)):
            for _, feat in items:
                _, jac = feat.eval(window(problem, x, n, feat.window))
                keep = np.ones(feat.size, dtype=bool)
                if kind == "ineq":
                    keep = solution.active_set[cursor:cursor + feat.size]
                    cursor += feat.size
                pad = np.zeros((int(keep.sum()), width))
                pad[:, width - feat.window * d:] = jac[keep]
                rows.append(pad)
        con = np.vstack(rows) if rows else np.zeros((0, width))
        out.append((G, con))
    return out


@pytest.mark.parametrize("name", ["elbow", "push", "tworoute"])
def test_quadratize_matches_the_per_step_expansion(name, request):
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    for sk in bundle.scenario.skeletons:
        sol = bundle.solution(sk.id)
        exp = quadratize(problem, sk, sol)
        oracle = _per_step_quadratics(problem, sk, sol)
        w = 3 * problem.d
        for G, rows, (G_ref, con) in zip(exp.grams, exp.rows, oracle, strict=True):
            for part, ref in ((G[:, :w, :w], G_ref[:, :w, :w]),
                              (G[:, :w, w], G_ref[:, :w, w])):
                assert np.abs(part - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert G[:, w, w] == pytest.approx(G_ref[:, w, w], rel=1e-12, abs=2e-12)
            assert rows.shape == con.shape
            assert np.abs(rows - con).max(initial=0.0) <= 1e-12


# --- backward pass -------------------------------------------------------


def test_costless_policy_raises_naming_the_last_step():
    # Nothing curves x_N, so the first pivot is zero; no regularization
    # papers over it.
    problem = PathProblem(N=4, d=1, dt=0.5, sigma=1.0,
                          prefix=np.zeros((2, 1)), costs=())
    exp, _, _ = _expansion(problem)
    with pytest.raises(PolicyError, match="pivot of skeleton 'free' at step 4 "
                                          "is numerically singular"):
        backward_pass(exp)


def test_feedforward_vanishes_at_the_expansion_point():
    exp, _, _ = _expansion(_lq())
    policy = backward_pass(exp)
    assert np.abs(policy.u_ff).max() < 1e-6
    xs = _roll_policy(policy, np.zeros(2 * policy.d))
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
        z, cost = _dense_qp_oracle(exp, dp)
        xs = _roll_policy(policy, dp)
        assert np.abs(xs - z).max() < 1e-8
        assert cost_to_go(policy, 1, dp) == pytest.approx(cost, rel=1e-8,
                                                          abs=1e-10)


@pytest.mark.parametrize("name", ["elbow", "tworoute", "push"])
def test_policy_keeps_the_switch_constraint_satisfied(name, request):
    # Closed loop from a deviated prefix: at every step with active rows,
    # the realized window satisfies them.
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    d = problem.d
    rng = np.random.default_rng(2)
    checked = 0
    for sk in bundle.scenario.skeletons:
        exp = quadratize(problem, sk, bundle.solution(sk.id))
        policy = backward_pass(exp)
        for _ in range(3):
            dp = rng.normal(scale=0.1, size=2 * d)
            path = np.concatenate([dp, _roll_policy(policy, dp).ravel()])
            for n, rows in enumerate(exp.rows, start=1):
                if rows.shape[0]:
                    window = path[(n - 1) * d:(n + 2) * d]
                    assert np.abs(rows @ window).max() < 1e-8
                    checked += 1
    assert checked


def test_gains_are_invariant_under_uniform_cost_scaling():
    exp, _, _ = _expansion(_lq())
    c = 3.7
    scaled = dataclasses.replace(exp, grams=c * exp.grams)
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
    doubled = dataclasses.replace(exp, rows=tuple(np.vstack([rows, rows])
                                                  for rows in exp.rows))
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

    clean = backward_pass(_with_rows(exp, step, rows))
    noisy = backward_pass(_with_rows(exp, step, np.vstack([rows, near])))
    assert clean.notes == ()
    assert noisy.notes == ((step, "dropped 1 dependent constraint rows"),)
    assert np.abs(noisy.K - clean.K).max() < 1e-8
    assert np.abs(noisy.u_ff - clean.u_ff).max() < 1e-8


def test_rows_differing_only_in_the_past_are_carried_back():
    # Both rows pin the same combination of x_4, so only their difference
    # over (x_2, x_3) tells them apart: the policy must enforce it at step 3
    # instead of dropping the second row as dependent.
    exp, _, _ = _expansion(_lq(N=6, d=2))
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(2, 6))
    rows[1, 4:] = rows[0, 4:]
    pinned = _with_rows(exp, 4, rows)
    policy = backward_pass(pinned)
    assert policy.notes == ((4, "carried 1 constraint rows to step 3"),)
    for _ in range(5):
        dp = rng.normal(scale=0.1, size=4)
        z, cost = _dense_qp_oracle(pinned, dp)
        assert np.abs(_roll_policy(policy, dp) - z).max() < 1e-8
        assert cost_to_go(policy, 1, dp) == pytest.approx(cost, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("name", ["elbow", "tworoute", "push"])
def test_component_policy_equals_the_backward_pass(name, request):
    bundle = request.getfixturevalue(name)
    problem = bundle.scenario.problem
    for sk in bundle.scenario.skeletons:
        comp = bundle.component(sk.id)
        policy = read_policy(comp.elimination, comp.skeleton_id, comp.x_star,
                             comp.prefix)
        reference = backward_pass(quadratize(problem, sk, bundle.solution(sk.id)))
        for attr in ("K", "u_ff", "V", "v", "v_bar", "x_ref", "prefix"):
            assert np.array_equal(getattr(policy, attr), getattr(reference, attr)), \
                (sk.id, attr)
        assert policy.notes == reference.notes


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
