"""The three bundled task families: geometry, constraints, orderings."""

import numpy as np
import pytest

from slgp.execution import build_controller, rollout
from slgp.features import check_jacobian
from slgp.kodp import backward_pass, quadratize
from slgp.laplace import build_component, mixture_weights, sample_paths
from slgp.problem import assemble, skeleton_structure_violations
from slgp.scenarios import (ScenarioParams, arm_joint_positions,
                            build_scenario)
from slgp.selftest import dense_jacobian
from slgp.solver import solve


# --- parameter validation -------------------------------------------------


def test_parameter_bounds_are_enforced():
    with pytest.raises(ValueError):
        ScenarioParams(N=3)
    with pytest.raises(ValueError):
        ScenarioParams(T=-1.0)
    with pytest.raises(ValueError):
        ScenarioParams(sigma=0.0)
    with pytest.raises(ValueError):
        ScenarioParams(link_lengths=(0.5, -0.5))
    with pytest.raises(ValueError):
        ScenarioParams(contact_fraction=1.2)
    with pytest.raises(ValueError):
        ScenarioParams(waypoint_fraction=-0.1)
    for bad in (dict(N=True), dict(sigma=True), dict(T=np.nan),
                dict(arm_target=(np.nan, 0.0)), dict(arm_target=1.0),
                dict(route_target=(1.0,)), dict(box_start=(0.55, 0.0)),
                dict(route_target=(True, 0.0)), dict(link_lengths=()),
                dict(start_angles=(1.0, np.inf, 0.0, 0.0)),
                dict(contact_offset=-0.2), dict(contact_offset=np.inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ScenarioParams(**bad)
    # A time step whose effort scale overflows is named, not an OverflowError.
    with pytest.raises(ValueError, match="effort scale"):
        build_scenario(ScenarioParams(T=1e308))


def test_unknown_scenario_name_lists_the_choices():
    with pytest.raises(ValueError, match="choose from"):
        build_scenario(ScenarioParams(name="juggling"))


def test_unreachable_arm_target_is_rejected():
    with pytest.raises(ValueError, match="reach"):
        build_scenario(ScenarioParams(name="elbow", arm_target=(3.0, 3.0)))


def test_push_geometry_is_validated():
    with pytest.raises(ValueError, match="half-width"):
        build_scenario(ScenarioParams(name="push", contact_offset=0.2,
                                      box_half=0.1))
    with pytest.raises(ValueError, match="axis-aligned"):
        build_scenario(ScenarioParams(name="push", box_start=(0.5, 0.0, 0.4)))


# The legal (mode, switch) -> next mode transitions of each bundled scenario.
SUCCESSORS = {
    "elbow": {("free", "touch-1"): "contact-1", ("free", "touch-2"): "contact-2",
              ("free", "touch-12"): "contact-12"},
    "push": {("approach", "touch-1"): "push-1", ("approach", "touch-12"): "push-12"},
    "tworoute": {("travel", "via-near"): "arrive", ("travel", "via-far"): "arrive"},
}


def test_every_bundled_skeleton_validates(elbow, push, tworoute):
    for bundle in (elbow, push, tworoute):
        sc = bundle.scenario
        for sk in sc.skeletons:
            assert skeleton_structure_violations(sk, sc.problem.N) == []
            for before, switch, after in zip(sk.modes, sk.switches, sk.modes[1:]):
                assert SUCCESSORS[sc.name][before.symbol, switch.symbol] == after.symbol
        with pytest.raises(KeyError):
            sc.skeleton("missing")


# --- planar arm -----------------------------------------------------------


def test_arm_forward_kinematics_on_straight_and_bent_poses():
    lengths = (0.5, 0.5, 0.5, 0.5)
    straight = arm_joint_positions(np.zeros(4), lengths)
    assert np.allclose(straight, [[0.5, 0], [1.0, 0], [1.5, 0], [2.0, 0]])
    upright = arm_joint_positions(np.array([np.pi / 2, 0, 0, 0]), lengths)
    assert np.allclose(upright[:, 0], 0.0, atol=1e-12)
    assert np.allclose(upright[:, 1], [0.5, 1.0, 1.5, 2.0])
    elbowed = arm_joint_positions(np.array([np.pi / 2, -np.pi / 2, 0, 0]),
                                  lengths)
    assert np.allclose(elbowed[1], [0.5, 0.5])


def test_scenario_feature_jacobians_match_finite_differences(elbow, push):
    rng = np.random.default_rng(17)
    for bundle in (elbow, push):
        problem = bundle.scenario.problem
        feats = list(problem.terminal_costs)
        for sk in bundle.scenario.skeletons:
            for mode in sk.modes:
                feats.extend(mode.eq)
                feats.extend(mode.ineq)
            for sw in sk.switches:
                feats.extend(sw.eq)
        checked = 0
        for feat in feats:
            for _ in range(3):
                xs = np.tile(problem.prefix[1], (feat.window, 1))
                xs = xs + rng.normal(scale=0.3, size=xs.shape)
                assert check_jacobian(feat, xs) < 5e-6
                checked += 1
        assert checked >= 9


def test_elbow_equality_row_counts(elbow):
    problem = elbow.scenario.problem
    flat = np.tile(problem.prefix[1], (problem.N, 1))
    counts = {}
    for sk in elbow.scenario.skeletons:
        counts[sk.id] = assemble(problem, sk, flat).eq.size
    contact_steps = counts["fix-joint-1"]
    assert counts["free"] == 0
    assert counts["fix-joint-2"] == contact_steps
    assert counts["fix-both"] == 2 * contact_steps
    assert contact_steps == 17


def test_elbow_contact_solutions_pin_the_joint_to_the_table(elbow):
    lengths = elbow.scenario.params.link_lengths
    sk = elbow.scenario.skeleton("fix-joint-2")
    lo, hi = next(m.window for m in sk.modes if m.eq)
    x = elbow.solution("fix-joint-2").x_star
    for n in range(lo, hi + 1):
        height = arm_joint_positions(x[n - 1], lengths)[1, 1]
        assert abs(height) < 1e-6


def test_elbow_free_plan_is_cheapest_and_most_entropic(elbow):
    ids = ("free", "fix-joint-1", "fix-joint-2", "fix-both")
    f = [elbow.solution(i).f_star for i in ids]
    assert np.argmin(f) == 0
    ratios = {i: elbow.component(i).log_ratio for i in ids}
    # More fixed joints leave fewer soft directions, so the entropy gap
    # to the uncontrolled flow narrows.
    assert ratios["free"] < ratios["fix-joint-1"] < ratios["fix-both"]
    assert ratios["free"] < ratios["fix-joint-2"] < ratios["fix-both"]


def test_elbow_weights_form_a_simplex(elbow):
    comps = [elbow.component(i) for i in ("free", "fix-joint-1",
                                          "fix-joint-2", "fix-both")]
    w = mixture_weights([c.f_star for c in comps],
                        [c.log_ratio for c in comps])
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert (w >= 0.0).all()


# --- quasi-static push ------------------------------------------------------


def test_second_finger_adds_constraint_rank(push):
    problem = push.scenario.problem
    ranks = {}
    for sid in ("single-finger", "two-finger"):
        sol = push.solution(sid)
        stack = assemble(problem, push.scenario.skeleton(sid), sol.x_star)
        ranks[sid] = np.linalg.matrix_rank(dense_jacobian(stack, stack.kinds[1]))
    assert ranks["two-finger"] > ranks["single-finger"]


def test_second_finger_narrows_the_entropy_gap(push):
    single = push.component("single-finger")
    two = push.component("two-finger")
    assert two.log_ratio > single.log_ratio


def test_uncontrolled_spread_shrinks_with_the_second_finger(push):
    sc = push.scenario
    rms = {}
    for sid in ("single-finger", "two-finger"):
        draws = sample_paths(push.component(sid), 100, seed=0,
                             distribution="uncontrolled")
        rms[sid] = float(np.sqrt(np.mean([sc.final_error(x[-1]) ** 2
                                          for x in draws])))
    assert rms["single-finger"] > rms["two-finger"]


def test_push_plans_move_the_box_to_the_target(push):
    sc = push.scenario
    for sid in ("single-finger", "two-finger"):
        x = push.solution(sid).x_star
        assert sc.final_error(x[-1]) < 0.05
        # The box may not move before contact is made.
        touch = sc.skeleton(sid).switches[0].at_step
        box0 = np.asarray(sc.params.box_start)
        assert np.abs(x[:touch - 1, 4:] - box0).max() < 1e-6


# --- two candidate routes -------------------------------------------------


def test_undisturbed_route_weights_favor_the_near_waypoint(tworoute):
    near = tworoute.component("via-near")
    far = tworoute.component("via-far")
    w = mixture_weights([near.f_star, far.f_star],
                        [near.log_ratio, far.log_ratio])
    assert w[0] > 0.99
    assert w[1] < 1e-6


def test_route_weights_respond_continuously_to_disturbance(tworoute):
    sc = tworoute.scenario
    pols, comps = [], []
    for sid in ("via-near", "via-far"):
        sol = tworoute.solution(sid)
        pols.append(backward_pass(quadratize(sc.problem,
                                             sc.skeleton(sid), sol)))
        comps.append(tworoute.component(sid))
    ctrl = build_controller(pols, comps, mode="switching")
    kick = sc.skeleton("via-near").switches[0].at_step - 8
    ws = []
    for m in np.linspace(0.05, 0.07, 41):
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0,
                     disturbances=((kick, np.array([0.0, m])),), seed=0)
        assert np.isfinite(ro.weights).all()
        ws.append(ro.weights[kick, 1])
    ws = np.array(ws)
    assert ws[0] < 0.01
    assert ws[-1] > 0.99
    assert (np.diff(ws) >= -1e-9).all()
    assert np.abs(np.diff(ws)).max() < 0.35
