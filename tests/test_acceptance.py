"""Acceptance checks: one test and one printed pass line per criterion."""

import time

import numpy as np
import pytest

from slgp.cli import main
from slgp.execution import (build_controller, rms_final_error, rollout)
from slgp.kodp import backward_pass, quadratize
from slgp.laplace import (build_component, mixture_weights, multimodal_cost,
                          sample_paths)
from slgp.scenarios import ScenarioParams, build_scenario
from slgp.selftest import (suite_dense_qp, suite_laplace_lq,
                           suite_riccati_equivalence)
from slgp.solver import solve


def _report(num: int, detail: str, elapsed: float, bound: float) -> None:
    print(f"criterion {num}: PASS - {detail} "
          f"({elapsed * 1000.0:.0f} ms, bound {bound:g} s)")


def _solve_scenario(name: str):
    sc = build_scenario(ScenarioParams(name=name))
    out = {}
    for sk in sc.skeletons:
        sol = solve(sc.problem, sk)
        assert sol.converged, f"{name}/{sk.id} did not converge"
        out[sk.id] = (sol, build_component(sc.problem, sk, sol))
    return sc, out


def test_criterion_1_reference_weight_arithmetic():
    t0 = time.perf_counter()
    f = np.array([0.1930, 0.7682, 0.6204, 1.4827])
    ratios = np.array([0.0041, 0.0099, 0.0584, 0.0646])
    expected = np.array([0.0626, 0.0850, 0.5810, 0.2713])
    w = mixture_weights(f, np.log(ratios))
    cost = multimodal_cost(f, np.log(ratios))
    elapsed = time.perf_counter() - t0
    werr = float(np.abs(w - expected).max())
    cerr = abs(cost - 2.918)
    assert werr <= 1e-3
    assert cerr <= 2e-3
    assert elapsed < 0.25
    _report(1, f"weight err {werr:.2e} (tol 1e-3), "
               f"cost err {cerr:.2e} (tol 2e-3)", elapsed, 0.25)


def test_criterion_2_first_order_value_recursion_oracle():
    t0 = time.perf_counter()
    ok, msg = suite_riccati_equivalence(instances=10)
    elapsed = time.perf_counter() - t0
    assert ok, msg
    assert elapsed < 1.0
    _report(2, msg, elapsed, 1.0)


def test_criterion_3_constrained_dense_qp_oracle():
    t0 = time.perf_counter()
    ok, msg = suite_dense_qp(instances=10, deviations=20)
    elapsed = time.perf_counter() - t0
    assert ok, msg
    assert elapsed < 5.0
    _report(3, msg, elapsed, 5.0)


def test_criterion_4_gaussian_posterior_exactness():
    t0 = time.perf_counter()
    ok, msg = suite_laplace_lq(samples=100_000)
    elapsed = time.perf_counter() - t0
    assert ok, msg
    assert elapsed < 10.0
    _report(4, msg, elapsed, 10.0)


def test_criterion_5_arm_orderings():
    t0 = time.perf_counter()
    sc, solved = _solve_scenario("elbow")
    f = {sid: sol.f_star for sid, (sol, _) in solved.items()}
    r = {sid: comp.log_ratio for sid, (_, comp) in solved.items()}
    elapsed = time.perf_counter() - t0
    assert min(f, key=f.get) == "free"
    one_joint = (r["fix-joint-1"], r["fix-joint-2"])
    assert r["free"] < min(one_joint)
    assert max(one_joint) < r["fix-both"]
    assert elapsed < 60.0
    _report(5, "4/4 solved; free fStar lowest; logRatio ordered "
               f"{r['free']:.3f} < {min(one_joint):.3f} <= "
               f"{max(one_joint):.3f} < {r['fix-both']:.3f}", elapsed, 60.0)


def test_criterion_6_second_finger_tightens_the_push():
    t0 = time.perf_counter()
    sc, solved = _solve_scenario("push")
    single = solved["single-finger"][1]
    two = solved["two-finger"][1]
    rms = {}
    for sid, comp in (("single-finger", single), ("two-finger", two)):
        draws = sample_paths(comp, 100, seed=0, distribution="uncontrolled")
        rms[sid] = rms_final_error(list(draws), sc.target_coords,
                                   sc.target_values)
    elapsed = time.perf_counter() - t0
    assert two.log_ratio > single.log_ratio
    assert rms["single-finger"] > rms["two-finger"]
    assert elapsed < 60.0
    _report(6, f"logRatio {two.log_ratio:.3f} > {single.log_ratio:.3f}; "
               f"open-loop rms {rms['single-finger']:.3f} > "
               f"{rms['two-finger']:.3f} (100 samples, seed 0)",
            elapsed, 60.0)


def test_criterion_7_disturbance_threshold_by_bisection():
    t0 = time.perf_counter()
    sc, solved = _solve_scenario("tworoute")
    pols = [backward_pass(quadratize(sc.problem, sc.skeleton(sid), sol))
            for sid, (sol, _) in solved.items()]
    comps = [comp for _, (_, comp) in solved.items()]
    # A small hysteresis stabilizes the exact post-waypoint weight ties,
    # making "stays on the first plan for every step" well defined.
    ctrl = build_controller(pols, comps, mode="switching", hysteresis=0.05)
    kick = sc.skeleton("via-near").switches[0].at_step - 8

    def probe(m: float):
        ro = rollout(sc.problem, sc.truth, ctrl, noise_scale=0.0,
                     disturbances=((kick, np.array([0.0, m])),), seed=0)
        return bool((ro.active == 0).all()), bool(ro.active[-1] == 1)

    lo, hi = 0.0, 0.8
    stays_lo, ends_lo = probe(lo)
    assert stays_lo and not ends_lo
    assert probe(hi)[1]
    while hi - lo > 1e-2:
        mid = 0.5 * (lo + hi)
        if probe(mid)[1]:
            hi = mid
        else:
            lo = mid
    stays_below, _ = probe(lo)
    _, ends_above = probe(hi)
    elapsed = time.perf_counter() - t0
    assert stays_below, "below threshold the rollout left the first plan"
    assert ends_above, "above threshold the rollout did not end on plan B"
    assert hi - lo <= 1e-2
    assert elapsed < 120.0
    _report(7, f"threshold in [{lo:.4f}, {hi:.4f}] (tol 1e-2); below stays "
               "on via-near every step, above ends on via-far",
            elapsed, 120.0)


def test_criterion_8_invariant_suites_via_the_cli():
    t0 = time.perf_counter()
    code = main(["selftest"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    _report(8, "all diagnostic suites pass through the selftest command",
            elapsed, 60.0)
