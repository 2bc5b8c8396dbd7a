"""Shared solved-scenario bundles.

Solving a scenario's skeletons is the expensive part of most tests, so
each scenario is solved once per session and the (scenario, solutions,
components) triple is shared read-only across test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slgp
from slgp import (ScenarioParams, build_component, build_scenario, solve)


class Bundle:
    def __init__(self, scenario, solutions, components):
        self.scenario = scenario
        self.solutions = solutions
        self.components = components

    def solution(self, skeleton_id):
        return self.solutions[skeleton_id]

    def component(self, skeleton_id):
        return self.components[skeleton_id]


def _solve_all(params):
    scenario = build_scenario(params)
    solutions, components = {}, {}
    for sk in scenario.skeletons:
        sol = solve(scenario.problem, sk)
        solutions[sk.id] = sol
        components[sk.id] = (build_component(scenario.problem, sk, sol)
                             if sol.converged else None)
    return Bundle(scenario, solutions, components)


@pytest.fixture(scope="session")
def elbow():
    return _solve_all(ScenarioParams(name="elbow"))


@pytest.fixture(scope="session")
def push():
    return _solve_all(ScenarioParams(name="push"))


@pytest.fixture(scope="session")
def tworoute():
    return _solve_all(ScenarioParams(name="tworoute"))


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter that imports slgp from this tree;
    returns the completed process with its text output."""
    src = str(Path(slgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
    return run
