"""Composite execution: online weights, composed commands, closed-loop rolls."""

import dataclasses
import warnings

import numpy as np
import pytest

import slgp.execution
from slgp.execution import (BLENDING, CompositeController, RolloutError,
                            _project_equalities, build_controller, compose,
                            online_weights, rollout, select_skeleton)
from slgp.features import AffineFeature, FiniteDifference
from slgp.kodp import backward_pass, quadratize
from slgp.laplace import build_component, future_log_ratios, mixture_weights
from slgp.problem import (FeatureEvalError, Mode, Skeleton, Switch, _layout,
                          assemble, step_equalities)
from slgp.scenarios import ContactPointTouch, ScenarioParams, build_scenario
from slgp.solver import SolverConfig, solve

from path_windows import step_constraints


@pytest.fixture(scope="module")
def routes():
    # Tighter than the default so noiseless closed-loop exactness has
    # headroom: the waypoint projection error tracks tol_constraint.
    sc = build_scenario(ScenarioParams(name="tworoute"))
    cfg = SolverConfig(tol_step=1e-9, tol_constraint=1e-9, hessian_reg=1e-10)
    elims, comps = [], []
    for sid in ("via-near", "via-far"):
        sol = solve(sc.problem, sc.skeleton(sid), config=cfg)
        assert sol.converged
        elims.append(backward_pass(quadratize(sc.problem, sc.skeleton(sid),
                                              sol)))
        comps.append(build_component(sc.problem, sc.skeleton(sid), sol))
    return sc, elims, comps


def _mid_step(sc):
    return sc.skeleton("via-near").switches[0].at_step


def _past_reference(comp, n):
    """A component's reference (x_{n-2}, x_{n-1}), prefix-substituted."""
    return np.concatenate([comp.prefix, comp.x_star])[n - 1:n + 1]


# --- online weights -------------------------------------------------------


def test_first_step_weights_match_the_offline_mixture(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    w = online_weights(ctrl, 1, sc.problem.prefix)
    offline = mixture_weights([c.f_star for c in comps],
                              [c.log_ratio for c in comps])
    assert np.abs(w - offline).max() < 1e-6


def test_past_on_a_reference_favors_that_skeleton(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    n = _mid_step(sc)
    on_near = online_weights(ctrl, n, _past_reference(comps[0], n))
    on_far = online_weights(ctrl, n, _past_reference(comps[1], n))
    assert on_near[0] > 0.99
    assert on_far[1] > 0.99


def test_identical_copies_split_the_weight_evenly(routes):
    sc, elims, comps = routes
    ctrl = build_controller([elims[0], elims[0]], [comps[0], comps[0]])
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(1, sc.problem.N + 1))
        past = _past_reference(comps[0], n) + rng.normal(scale=0.2, size=(2, 2))
        w = online_weights(ctrl, n, past)
        assert np.abs(w - 0.5).max() < 1e-12


def test_weight_rows_stay_on_the_simplex(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps, mode="switching")
    ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=2.0, seed=3)
    assert np.abs(ro.weights.sum(axis=1) - 1.0).max() < 1e-12
    assert (ro.weights >= 0.0).all()


# --- composed commands ----------------------------------------------------


def test_identical_policies_compose_to_the_same_command(routes):
    sc, elims, comps = routes
    rng = np.random.default_rng(5)
    past = _past_reference(comps[0], 4) + rng.normal(scale=0.1, size=(2, 2))
    cmds = {}
    for mode in ("blending", "switching"):
        ctrl = build_controller([elims[0], elims[0]], [comps[0], comps[0]],
                                mode=mode)
        cmds[mode] = compose(ctrl, 4, past)
    direct = comps[0].x_star[3]
    assert np.allclose(cmds["blending"], cmds["switching"], atol=1e-12)
    assert np.abs(cmds["blending"] - direct).max() < 1.0  # same plan family


def test_dominant_weight_makes_both_modes_emit_its_command(routes):
    sc, elims, comps = routes
    # Push the second plan's value up by a constant: its weight collapses
    # to exp(-80) and both modes must emit the first plan's command.
    V = elims[1].V.copy()
    V[:, 0, -1, -1] += 160.0
    worse = dataclasses.replace(elims[1], V=V)
    rng = np.random.default_rng(13)
    # Small in value-function units: the quadratics carry 1/(sigma^2 dt^3)
    # curvature, so a 1e-3 displacement costs well under a nat.
    past = _past_reference(comps[0], 3) + rng.normal(scale=1e-3, size=(2, 2))
    dp = (past - _past_reference(comps[0], 3)).ravel()
    direct = comps[0].x_star[2] + elims[0].law[2, 0] @ np.append(dp, 1.0)
    for mode in ("blending", "switching"):
        ctrl = build_controller([elims[0], worse], [comps[0], comps[1]],
                                mode=mode)
        w = online_weights(ctrl, 3, past)
        assert w[0] > 1.0 - 1e-12
        assert np.abs(compose(ctrl, 3, past) - direct).max() < 1e-10


def test_opposed_feedforwards_blend_to_zero_and_switch_to_the_first():
    ctrl = CompositeController(
        past_ref=np.zeros((1, 2, 2)), V=np.zeros((1, 2, 2, 2)), v=np.zeros((1, 2, 2)),
        offset=np.zeros((1, 2)), gain=np.zeros((1, 2, 1, 2)),
        command=np.array([[[0.6], [-0.6]]]), mode="blending")
    past = np.zeros((2, 1))
    assert compose(ctrl, 1, past) == pytest.approx([0.0], abs=1e-15)
    switch = dataclasses.replace(ctrl, mode="switching")
    assert compose(switch, 1, past) == pytest.approx([0.6])


def test_out_of_horizon_steps_and_bad_pasts_are_rejected(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    N, d = sc.problem.N, sc.problem.d
    past = sc.problem.prefix
    for query in (online_weights, compose):
        for n in (0, N + 1):
            with pytest.raises(ValueError, match=f"step {n} "):
                query(ctrl, n, past)
        for bad in (past[:1], past.ravel(), np.zeros((2, d + 1))):
            with pytest.raises(ValueError, match="step 3"):
                query(ctrl, 3, bad)


TABLES = ("past_ref", "V", "v", "offset", "gain", "command")


def test_direct_construction_checks_the_table_shapes(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps, mode="blending")
    tables = {name: getattr(ctrl, name) for name in TABLES}
    for name in TABLES[1:]:
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            dataclasses.replace(ctrl, **{name: tables[name][1:]})
    with pytest.raises(ValueError, match=r"^V must .* to match past_ref \(39, 2, 4\)"):
        dataclasses.replace(ctrl, past_ref=ctrl.past_ref[1:])
    with pytest.raises(ValueError, match=r"past_ref must have shape \(N, K, 2d\)"):
        dataclasses.replace(ctrl, past_ref=ctrl.past_ref[..., 1:])
    # The controller checks its own mode and hysteresis, so a direct
    # construction and dataclasses.replace get the same checks.
    for change, message in (({"mode": "bogus"}, "unknown mode 'bogus'"),
                            ({"hysteresis": float("nan")}, "got nan"),
                            ({"hysteresis": -1.0}, "got -1.0")):
        with pytest.raises(ValueError, match=message):
            CompositeController(**tables, **{"mode": "switching", **change})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ctrl, **change)


def _policy_loop(elims, comps, ctrl, n, past, incumbent):
    """Weights and command from a loop over the skeletons: each reads its
    policy off slice 0 of its elimination, its reference off its component."""
    logits, commands = [], []
    for elim, comp in zip(elims, comps):
        dp = (past - _past_reference(comp, n)).ravel()
        two_d = dp.size
        V, law = elim.V[n - 1, 0], elim.law[n - 1, 0]
        cost = (0.5 * dp @ V[:two_d, :two_d] @ dp + V[:two_d, two_d] @ dp
                + 0.5 * V[two_d, two_d])
        logits.append(-cost + future_log_ratios(comp)[n - 1])
        commands.append(comp.x_star[n - 1] + law[:, two_d] + law[:, :two_d] @ dp)
    logits = np.array(logits)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    if ctrl.mode == BLENDING:
        return w, w @ np.array(commands)
    return w, commands[select_skeleton(w, incumbent, ctrl.hysteresis)]


def _kept_components(bundle):
    return [c for c in map(bundle.component, (sk.id for sk in bundle.scenario.skeletons))
            if c is not None]


def _bundle_controller(bundle):
    comps = _kept_components(bundle)
    return build_controller([c.elimination for c in comps], comps)


@pytest.mark.parametrize("name", ["tworoute", "elbow"])
def test_stacked_tables_match_the_per_policy_queries(name, request):
    bundle = request.getfixturevalue(name)
    comps = _kept_components(bundle)
    elims = [c.elimination for c in comps]
    base = build_controller(elims, comps)
    problem = bundle.scenario.problem
    rng = np.random.default_rng(17)
    for mode in ("blending", "switching"):
        ctrl = dataclasses.replace(base, mode=mode)
        for n in range(1, problem.N + 1):
            owner = comps[int(rng.integers(len(comps)))]
            past = _past_reference(owner, n) + rng.normal(scale=1e-3,
                                                          size=(2, problem.d))
            incumbent = int(rng.integers(len(comps)))
            w_loop, cmd_loop = _policy_loop(elims, comps, ctrl, n, past, incumbent)
            w = online_weights(ctrl, n, past)
            cmd = compose(ctrl, n, past, incumbent)
            assert np.abs(w - w_loop).max() <= 1e-12 * np.abs(w_loop).max()
            assert np.abs(cmd - cmd_loop).max() <= 1e-12 * np.abs(cmd_loop).max()


def _stepwise_rollout(problem, truth, ctrl, noise_scale, seed):
    """Rollout that draws the noise one step at a time, stacks the past and
    calls the checked online queries and the projection at every step."""
    rng = np.random.default_rng(seed)
    std = problem.sigma * noise_scale * problem.dt**1.5
    past = np.asarray(problem.prefix, dtype=float).copy()
    path, commands, weights, active = [], [], [], []
    incumbent = None
    for n in range(1, problem.N + 1):
        w = online_weights(ctrl, n, past)
        cmd = compose(ctrl, n, past, incumbent)
        incumbent = (int(np.argmax(w)) if ctrl.mode == BLENDING
                     else select_skeleton(w, incumbent, ctrl.hysteresis))
        eta = rng.standard_normal(problem.d) * std
        eta[~problem.actuated] = 0.0
        padded = np.vstack([problem.prefix, *path, cmd + eta])
        _project_equalities(problem, truth, n, padded)
        x = padded[n + 1]
        path.append(x)
        commands.append(cmd)
        weights.append(w)
        active.append(incumbent)
        past = np.vstack([past[1], x])
    return np.array(path), np.array(commands), np.array(weights), np.array(active)


# (fixture, mode, hysteresis, truth skeleton id); None takes the
# scenario's designated truth.
STEPWISE_CASES = {
    "blending": ("routes", "blending", 0.0, None),
    "switching": ("routes", "switching", 0.0, None),
    "via-near": ("routes", "blending", 0.0, "via-near"),
    "elbow-hysteresis": ("elbow", "switching", 0.05, "fix-both"),
}


@pytest.mark.parametrize("case", list(STEPWISE_CASES))
def test_rollout_matches_a_stepwise_noise_reference(case, request):
    # The rollout's unchecked step, its hoisted tables and its projection
    # at the equality steps alone give the bits of the checked per-step
    # queries with a projection call at every step.
    fixture, mode, hysteresis, truth_id = STEPWISE_CASES[case]
    if fixture == "routes":
        scenario, elims, comps = request.getfixturevalue("routes")
    else:
        bundle = request.getfixturevalue(fixture)
        scenario, comps = bundle.scenario, _kept_components(bundle)
        elims = [c.elimination for c in comps]
    ctrl = build_controller(elims, comps, mode=mode, hysteresis=hysteresis)
    problem = scenario.problem
    truth = scenario.skeleton(truth_id) if truth_id else scenario.truth
    for seed in (0, 7, 31):
        ro = rollout(problem, truth, ctrl, noise_scale=1.5, seed=seed)
        path, commands, weights, active = _stepwise_rollout(problem, truth, ctrl,
                                                            1.5, seed)
        assert np.array_equal(ro.path, path)
        assert np.array_equal(ro.commands, commands)
        assert np.array_equal(ro.weights, weights)
        assert np.array_equal(ro.active, active)


def _projected_steps(monkeypatch, problem, truth, ctrl):
    """The steps at which rollout calls _project_equalities; the recording
    rollout's path must equal the unpatched one's."""
    project, steps = _project_equalities, []

    def record(problem, skeleton, n, padded):
        steps.append(n)
        return project(problem, skeleton, n, padded)

    monkeypatch.setattr(slgp.execution, "_project_equalities", record)
    recorded = rollout(problem, truth, ctrl, noise_scale=1.0, seed=5)
    monkeypatch.undo()
    assert np.array_equal(recorded.path,
                          rollout(problem, truth, ctrl, noise_scale=1.0, seed=5).path)
    return steps


def test_rollout_projects_only_at_the_truth_equality_steps(routes, push, elbow,
                                                           monkeypatch):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    assert sc.truth.id == "unconstrained"
    assert _projected_steps(monkeypatch, sc.problem, sc.truth, ctrl) == []
    assert _projected_steps(monkeypatch, sc.problem, sc.skeleton("via-near"),
                            ctrl) == [_mid_step(sc)]
    # Both windows of two-finger hold equality rows: the box rests during
    # the approach and touches both fingers during the contact.
    truth = push.scenario.skeleton("two-finger")
    approach, contact = truth.modes
    assert approach.eq and contact.eq and contact.window[1] == push.scenario.problem.N
    assert _projected_steps(monkeypatch, push.scenario.problem, truth,
                            _bundle_controller(push)) == list(range(1, contact.window[1] + 1))
    # fix-both has equality rows in its contact window alone.
    truth = elbow.scenario.skeleton("fix-both")
    free, contact = truth.modes
    assert not free.eq and contact.eq
    assert _projected_steps(monkeypatch, elbow.scenario.problem, truth,
                            _bundle_controller(elbow)) == list(range(contact.window[0],
                                                                     contact.window[1] + 1))


def test_select_skeleton_tie_break_and_hysteresis():
    assert select_skeleton(np.array([0.5, 0.5]), None, 0.0) == 0
    assert select_skeleton(np.array([0.2, 0.8]), None, 0.5) == 1
    assert select_skeleton(np.array([0.45, 0.55]), 0, 0.2) == 0
    assert select_skeleton(np.array([0.3, 0.7]), 0, 0.2) == 1
    assert select_skeleton(np.array([0.5, 0.5]), 1, 0.05) == 1
    assert select_skeleton(np.array([0.6, 0.4]), 1, 0.0) == 0


def test_controller_pairing_is_validated(routes):
    sc, elims, comps = routes
    with pytest.raises(ValueError, match="elimination of 'via-near' paired with "
                                         "component 'via-far'"):
        build_controller([elims[0]], [comps[1]])
    shorter = dataclasses.replace(comps[1], x_star=comps[1].x_star[1:])
    with pytest.raises(ValueError, match=r"one horizon and dimension, got \(N, d\) "
                                         r"\[\(39, 2\), \(40, 2\)\]"):
        build_controller(elims, [comps[0], shorter])
    with pytest.raises(ValueError):
        build_controller([], [])
    with pytest.raises(ValueError):
        build_controller(elims, comps[:1])
    with pytest.raises(ValueError):
        build_controller(elims, comps, mode="voting")
    for hysteresis in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            build_controller(elims, comps, hysteresis=hysteresis)


def test_blending_refuses_a_positive_hysteresis(routes):
    # Blending never switches, so a switching margin would be ignored.
    sc, elims, comps = routes
    refused = "^hysteresis 0.05 has no effect in mode 'blending'; it is a switching margin$"
    with pytest.raises(ValueError, match=refused):
        build_controller(elims, comps, mode=BLENDING, hysteresis=0.05)
    blending = build_controller(elims, comps, mode=BLENDING, hysteresis=0.0)
    with pytest.raises(ValueError, match=refused):
        dataclasses.replace(blending, hysteresis=0.05)
    switching = build_controller(elims, comps, mode="switching", hysteresis=0.05)
    with pytest.raises(ValueError, match=refused):
        dataclasses.replace(switching, mode=BLENDING)


# --- closed loop ------------------------------------------------------------


def test_noiseless_rollout_reproduces_the_planned_path(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims[:1], comps[:1])
    ro = rollout(sc.problem, sc.skeleton("via-near"), ctrl, noise_scale=0.0,
                 seed=0)
    assert np.abs(ro.path - comps[0].x_star).max() < 1e-8
    assert (ro.active == 0).all()


def test_noiseless_modes_coincide_on_the_dominant_plan(routes):
    sc, elims, comps = routes
    for mode in ("blending", "switching"):
        ctrl = build_controller(elims, comps, mode=mode)
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0)
        assert np.abs(ro.path - comps[0].x_star).max() < 1e-8


def test_switch_count_is_non_increasing_in_hysteresis(routes):
    sc, elims, comps = routes
    totals = []
    for h in (0.0, 0.05, 0.2):
        ctrl = build_controller(elims, comps, mode="switching", hysteresis=h)
        count = 0
        for seed in range(10):
            ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=2.0,
                         disturbances=((12, np.array([0.0, 0.45])),),
                         seed=seed)
            count += int((np.diff(ro.active) != 0).sum())
        totals.append(count)
    assert totals[0] >= totals[1] >= totals[2]


def test_rollout_is_bit_identical_for_a_fixed_seed(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps, mode="switching")
    a = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=21)
    b = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=21)
    assert np.array_equal(a.path, b.path)
    assert np.array_equal(a.commands, b.commands)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.active, b.active)
    c = rollout(sc.problem, sc.truth, ctrl, noise_scale=1.5, seed=22)
    assert not np.array_equal(a.path, c.path)


def test_disturbances_and_target_metric_are_applied(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    bump = np.array([0.3, -0.2])
    coords, values = sc.target_coords, sc.target_values
    ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0,
                 disturbances=((5, bump),), seed=0,
                 target=(coords, values))
    quiet = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0)
    assert np.allclose(ro.path[:4], quiet.path[:4])
    assert np.abs(ro.path[4] - (quiet.commands[4] + bump)).max() < 1e-12
    assert np.isfinite(ro.final_error)
    assert np.isnan(quiet.final_error)


def test_impulses_at_one_step_add_up(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)

    def path(*disturbances):
        return rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0,
                       disturbances=disturbances).path

    both = path((10, [0.3, 0.0]), (10, [0.0, 0.3]))
    assert np.array_equal(both, path((10, [0.3, 0.3])))
    assert not np.array_equal(both, path((10, [0.0, 0.3])))


@pytest.mark.parametrize("step, vector, message", [
    (5, [0.3], r"disturbance 1 at step 5: vector must hold 2 entries, not shape \(1,\)"),
    (0, [0.3, 0.0], r"disturbance 1 at step 0: step must be an integer in \[1, 40\]"),
    (41, [0.3, 0.0], r"disturbance 1 at step 41: step must be an integer in \[1, 40\]"),
    (99, [0.3, 0.0], r"disturbance 1 at step 99: step must be an integer in \[1, 40\]"),
    (5.7, [0.3, 0.0], r"disturbance 1 at step 5.7: step must be an integer in \[1, 40\]"),
    (True, [0.3, 0.0], r"disturbance 1 at step True: step must be an integer"),
    (5, [np.nan, 0.0], r"disturbance 1 at step 5: entries must be finite"),
    (5, [[0.3, 0.0]], r"disturbance 1 at step 5: vector must hold 2 entries"),
], ids=["short-vector", "step-zero", "step-past-horizon", "step-99", "fractional-step",
        "bool-step", "nan-entry", "nested-vector"])
def test_bad_disturbances_are_named(routes, step, vector, message):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    assert sc.problem.N == 40 and sc.problem.d == 2
    good = (np.int64(40), np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match=message):
        rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0,
                disturbances=(good, (step, vector)))


@pytest.mark.parametrize("scale", [-1.0, -1e-12, float("nan"), float("inf")])
def test_negative_or_nonfinite_noise_scale_is_rejected(routes, scale):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    with pytest.raises(ValueError, match="noise_scale"):
        rollout(sc.problem, sc.truth, ctrl, noise_scale=scale, seed=0)


def test_nonfinite_weights_abort_at_their_step(routes):
    # The past at step 6 holds the overflowing x_5, so the cost-to-go
    # overflows there; no numpy warning escapes on the way.
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    with pytest.raises(RolloutError, match=r"step 6: skeleton weights are not "
                                           r"finite; .* by up to 1\.000e\+307"):
        rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0, seed=0,
                disturbances=((5, np.array([1e307, 0.0])),))


def test_online_queries_raise_at_nonfinite_weights_without_warnings(routes):
    # Called outside rollout, an overflowing past raises the rollout's
    # error; any numpy warning on the way would escape as an exception.
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    past = np.array([[0.0, 0.0], [1e307, 0.0]])
    for query in (online_weights, compose):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RolloutError, match=r"step 21: skeleton weights are "
                                                   r"not finite; .* 1\.000e\+307"):
                query(ctrl, 21, past)


def test_projection_failure_aborts_with_the_step(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims[:1], comps[:1])
    # An inconsistent equality (zero Jacobian, nonzero value) cannot be
    # projected onto; the rollout must abort at its first step.
    stuck = AffineFeature(np.zeros((1, 2)), np.array([1.0]), window=1,
                          name="unreachable")
    N = sc.problem.N
    truth = Skeleton(id="broken",
                     modes=(Mode("m", (1, N), eq=(stuck,)),), switches=())
    with pytest.raises(RolloutError) as info:
        rollout(sc.problem, truth, ctrl, noise_scale=0.0, seed=0)
    assert info.value.step == 1
    assert "projection" in str(info.value)


class _NanBeyond:
    """A feature whose values turn NaN where coordinate coord of its last
    configuration exceeds limit."""

    def __init__(self, inner, coord, limit):
        self.inner, self.coord, self.limit = inner, coord, limit
        self.window, self.size, self.name = inner.window, inner.size, inner.name

    def eval(self, xs):
        values, jacs = self.inner.eval(xs)
        return np.where(xs[..., -1, self.coord, None] > self.limit, np.nan, values), jacs


def test_nonfinite_contact_feature_aborts_the_rollout_with_step_and_label(push):
    ctrl = _bundle_controller(push)
    problem = push.scenario.problem
    truth = push.scenario.skeleton("two-finger")
    approach, contact = truth.modes
    assert contact.symbol == "push-12"
    # Poison face-12 once the box passes halfway from its position at step
    # k - 1 of the clean rollout to that at step k; before step k the clean
    # box never gets that far.
    k = contact.window[0] + 15
    box_x = rollout(problem, truth, ctrl, noise_scale=0.0).path[:, 4]
    assert box_x[k - 2] < box_x[k - 1] and box_x[:k - 1].max() == box_x[k - 2]
    face = _NanBeyond(contact.eq[0], 4, 0.5 * (box_x[k - 2] + box_x[k - 1]))
    assert face.name == "face-12"
    poisoned = dataclasses.replace(truth, modes=(
        approach, dataclasses.replace(contact, eq=(face, *contact.eq[1:]))))
    with pytest.raises(RolloutError) as info:
        rollout(problem, poisoned, ctrl, noise_scale=0.0)
    assert info.value.step == k
    assert (f"rollout aborted at step {k}: feature 'push-12:face-12' at step {k}: "
            "nonfinite value or Jacobian") == str(info.value)


def test_projection_mixes_feature_windows_at_one_step(push):
    problem = push.scenario.problem
    N, d = problem.N, problem.d
    rest = FiniteDifference(d, (-1.0, 1.0), 1.0, coords=[4, 5, 6])
    touch = ContactPointTouch([(0, (-0.1, 0.0))], 4, d)
    assert (rest.window, touch.window) == (2, 1)
    s = 5
    sk = Skeleton(id="rest-touch",
                  modes=(Mode("approach", (1, s - 1), eq=(rest,)),
                         Mode("hold", (s, N), eq=(rest,))),
                  switches=(Switch("touch", s, eq=(touch,)),))
    eq = _layout(problem, sk).equalities[s]
    assert eq == tuple((f, f"{owner}:{f.name}") for owner, f in step_constraints(sk, s)[0])
    padded = np.tile(problem.prefix[0], (N + 2, 1))
    padded[s + 1] += np.random.default_rng(3).normal(scale=0.05, size=d)
    h, J = step_equalities(eq, s, padded)
    windows = [padded[s + 2 - f.window:s + 2] for f, _ in eq]
    assert np.array_equal(h, np.concatenate([f.eval(xs)[0] for (f, _), xs in zip(eq, windows)]))
    assert np.array_equal(J, np.vstack([f.eval(xs)[1][:, -d:] for (f, _), xs in zip(eq, windows)]))
    _project_equalities(problem, sk, s, padded)
    for (f, _), xs in zip(eq, [padded[s + 2 - f.window:s + 2] for f, _ in eq]):
        assert np.abs(f.eval(xs)[0]).max() <= 1e-9


def _switch_rows_at(problem, s, *rows):
    """A two-mode skeleton whose switch at step s holds the given rows."""
    return Skeleton(id="switch-rows",
                    modes=(Mode("a", (1, s - 1)), Mode("b", (s, problem.N))),
                    switches=(Switch("s", s, eq=rows),))


def test_projection_cuts_rank_at_rank_tol(routes):
    sc, elims, comps = routes
    ctrl = build_controller(elims, comps)
    # Two rows at step 3 whose Jacobians differ by 1e-10, with residuals 0
    # and 1e-6 where the controller puts x_3: only a step of 1e4 along the
    # second coordinate would meet both.  Below RANK_TOL they count as one
    # row, so the projection meets their mean and stalls.
    x3 = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0).path[2]
    first = AffineFeature(np.array([[1.0, 0.0]]), -x3[:1], window=1, name="first")
    near = AffineFeature(np.array([[1.0, 1e-10]]),
                         np.array([1e-6 - x3[0] - 1e-10 * x3[1]]), window=1, name="near")
    truth = _switch_rows_at(sc.problem, 3, first, near)
    with pytest.raises(RolloutError) as info:
        rollout(sc.problem, truth, ctrl, noise_scale=0.0)
    assert info.value.step == 3
    assert str(info.value).startswith("rollout aborted at step 3: equality projection "
                                      "stalled, residual 5.000e-07, ")


class _Window:
    """A one-row feature declaring a window the evaluator does not take."""

    size, name = 1, "wide"

    def __init__(self, window):
        self.window = window

    def eval(self, xs):
        raise AssertionError("a bad window must be refused before eval")


@pytest.mark.parametrize("width", [0, 4])
def test_a_bad_feature_window_is_named(routes, width):
    sc, elims, comps = routes
    truth = _switch_rows_at(sc.problem, 3, _Window(width))
    message = f"feature 's:wide' at step 3: window {width} is not 1, 2 or 3"
    with pytest.raises(FeatureEvalError) as info:
        assemble(sc.problem, truth, comps[0].x_star)
    assert (info.value.step, info.value.label, str(info.value)) == (3, "s:wide", message)
    with pytest.raises(RolloutError) as info:
        rollout(sc.problem, truth, build_controller(elims, comps), noise_scale=0.0)
    assert (info.value.step, str(info.value)) == (3, f"rollout aborted at step 3: {message}")


def test_rollout_refuses_a_controller_planned_for_another_shape(routes, elbow):
    sc, elims, comps = routes
    long = build_scenario(ScenarioParams(name="tworoute", N=160))
    long_comps = [build_component(long.problem, sk, solve(long.problem, sk))
                  for sk in long.skeletons]
    long_ctrl = build_controller([c.elimination for c in long_comps], long_comps)
    cases = ((long_ctrl, sc.problem, "N=160, d=2", "N=40, d=2"),
             (build_controller(elims, comps), long.problem, "N=40, d=2", "N=160, d=2"),
             (_bundle_controller(elbow), sc.problem, "N=40, d=4", "N=40, d=2"))
    for ctrl, problem, planned, given in cases:
        truth = long.truth if problem is long.problem else sc.truth
        with pytest.raises(ValueError, match=f"controller planned for {planned} "
                                             f"cannot run a problem with {given}"):
            rollout(problem, truth, ctrl, noise_scale=0.0, seed=0)
