"""Skeleton-conditioned Gaussian path mixtures for contact-rich planning.

Plan: enumerate constraint skeletons, solve each path problem, and weight
the converged solutions by path cost and covariance-determinant ratio.
Execute: per-skeleton feedback policies recombined on the fly from the
same quantities.
"""

from .features import (EFFORT, TASK, AccelerationPenalty, AffineFeature,
                       DriftPenalty, FiniteDifference, check_jacobian,
                       coordinate_target)
from .problem import (FeatureEvalError, Mode, PathProblem, Skeleton,
                      SkeletonError, Switch, Violation, assemble,
                      constraint_violation, cost_value, free_skeleton,
                      validate_skeleton)
from .solver import NlpSolution, SolverConfig, SolverError, kkt_residuals, solve
from .laplace import (LaplaceComponent, PathMixture, SingularComponentError,
                      build_component, build_mixture, future_log_ratios,
                      mixture_weights, multimodal_cost, nullspace_basis,
                      sample_paths)
from .kodp import PolicyError, backward_pass, quadratize
from .execution import (CompositeController, Rollout, RolloutError,
                        build_controller, compose, online_weights, rollout,
                        select_skeleton)
from .scenarios import Scenario, ScenarioParams, build_scenario

__version__ = "0.1.0"

__all__ = [
    "EFFORT", "TASK", "AccelerationPenalty", "AffineFeature", "DriftPenalty",
    "FiniteDifference", "check_jacobian", "coordinate_target",
    "FeatureEvalError", "Mode", "PathProblem", "Skeleton", "SkeletonError",
    "Switch", "Violation", "assemble", "constraint_violation", "cost_value",
    "free_skeleton", "validate_skeleton",
    "NlpSolution", "SolverConfig", "SolverError", "kkt_residuals", "solve",
    "LaplaceComponent", "PathMixture", "SingularComponentError",
    "build_component", "build_mixture", "future_log_ratios",
    "mixture_weights", "multimodal_cost", "nullspace_basis", "sample_paths",
    "PolicyError", "backward_pass", "quadratize",
    "CompositeController", "Rollout", "RolloutError", "build_controller",
    "compose", "online_weights", "rollout", "select_skeleton",
    "Scenario", "ScenarioParams", "build_scenario",
    "__version__",
]
