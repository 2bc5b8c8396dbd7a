"""Planar benchmark scenarios: elbow reach, quasi-static push, two routes.

Each builder returns a Scenario bundling one PathProblem, the candidate
skeletons, the target description, and the parameters used.  All three
use double-integrator robot coordinates (acceleration effort rows); the
push scenario adds uncontrolled object coordinates whose passive density
is a weak drift penalty and whose motion is governed by contact equality
rows.

Each relation is one feature class, stated once per mode or switch for
all its tips or fingers.  ``ArmTips`` is scaled link-tip coordinates: the
reach, the table clearance and the joints held on the table.
``ContactFacePlane`` projects each ``ContactPointTouch`` offset onto the
face normal, and the box's rest rows are a ``FiniteDifference``.

The elbow builds one ``ArmChain`` for its arm, and every ``ArmTips`` of
the scenario holds it as its shared pass: ``assemble`` runs the chain
once per path, over every step where an arm row applies, and each
``ArmTips`` slices its rows out of it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .features import (TASK, AccelerationPenalty, AffineFeature, Array,
                       DriftPenalty, FiniteDifference, coordinate_target)
from .problem import Mode, PathProblem, Skeleton, Switch, free_skeleton


def _finite(value) -> bool:
    """A real number, not a bool, neither infinite nor NaN."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -np.inf < value < np.inf)


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs for all scenarios, each checked by the kind of its default: N
    is an integer of at least 4; window fractions lie in [0, 1], the
    contact offset inside the face half-width and other numbers are finite
    and positive; a tuple holds as many finite numbers as its default (any
    number of positive link lengths, start angles as many as links)."""

    name: str = "elbow"
    N: int = 40
    T: float = 5.0
    sigma: float = 0.1
    # elbow: planar arm over a table at y = 0
    link_lengths: tuple = (0.5, 0.5, 0.5, 0.5)
    start_angles: tuple = (1.0, -0.4, -0.4, -0.4)
    arm_target: tuple = (1.35, 0.25)
    arm_target_weight: float = 1e3
    contact_fraction: float = 0.6
    # push: two finger points and a box pose (x, y, theta)
    box_half: float = 0.1
    box_start: tuple = (0.55, 0.0, 0.0)
    box_target: tuple = (0.85, 0.0, 0.0)
    box_target_weight: float = 100.0
    contact_offset: float = 0.06
    approach_gap: float = 0.15
    sigma_object: float = 0.3
    sigma_object_rot: float = 3.0
    push_fraction: float = 0.4
    # tworoute: point robot with two candidate waypoints
    route_start: tuple = (0.0, 0.0)
    route_target: tuple = (1.0, 0.0)
    waypoint_near: tuple = (0.5, 0.2)
    waypoint_far: tuple = (0.5, 0.8)
    route_target_weight: float = 300.0
    waypoint_fraction: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            if isinstance(default, str):
                continue
            if isinstance(default, tuple):
                free = f.name in ("link_lengths", "start_angles")
                positive = f.name == "link_lengths"
                ok = (isinstance(value, tuple) and len(value) > 0
                      and (free or len(value) == len(default))
                      and all(_finite(v) and (v > 0 or not positive) for v in value))
                rule = (f"hold {'one or more' if free else len(default)} finite "
                        f"{'positive ' if positive else ''}numbers")
            elif isinstance(default, int):
                ok = (isinstance(value, numbers.Integral)
                      and not isinstance(value, bool) and value >= 4)
                rule = "be an integer of at least 4"
            elif f.name.endswith("_fraction"):
                ok, rule = _finite(value) and 0 <= value <= 1, "lie in [0, 1]"
            elif f.name == "contact_offset":
                ok, rule = _finite(value), "be a finite number"
            else:
                ok, rule = _finite(value) and value > 0, "be finite and positive"
            if not ok:
                raise ValueError(f"{f.name} must {rule}, got {value!r}")
        if not abs(self.contact_offset) < self.box_half:
            raise ValueError(f"contact_offset {self.contact_offset!r} must lie inside "
                             f"the face half-width {self.box_half!r}")

    @property
    def dt(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class Scenario:
    name: str
    problem: PathProblem
    skeletons: tuple[Skeleton, ...]
    target_coords: Array | None
    target_values: Array | None
    final_error: Callable[[Array], float]
    truth: Skeleton | None
    params: ScenarioParams

    def skeleton(self, skeleton_id: str) -> Skeleton:
        for sk in self.skeletons:
            if sk.id == skeleton_id:
                return sk
        raise KeyError(skeleton_id)


# --- planar arm kinematics ------------------------------------------------

def arm_joint_positions(theta: Array, lengths) -> Array:
    """World positions of every link tip of a planar chain rooted at 0.

    theta is (..., K) with any leading batch axes; the result is (..., K, 2).
    """
    phi = np.cumsum(theta, axis=-1)
    lengths = np.asarray(lengths, dtype=float)
    pts = np.empty(phi.shape + (2,))
    np.cumsum(lengths * np.cos(phi), axis=-1, out=pts[..., 0])
    np.cumsum(lengths * np.sin(phi), axis=-1, out=pts[..., 1])
    return pts


def arm_joint_jacobians(theta: Array, lengths) -> tuple[Array, Array]:
    """The tip positions (..., K, 2) and d position_k / d theta_i, shape
    (..., K, 2, K); zero for i > k.

    Joint i turns every tip k >= i about the tip i - 1 (the root for
    i = 0), so the column is the offset p_k - p_{i-1} turned by 90 degrees.
    """
    pts = arm_joint_positions(theta, lengths)
    pivots = np.zeros_like(pts)
    pivots[..., 1:, :] = pts[..., :-1, :]
    # offset[..., k, c, i] = coordinate c of p_k - p_{i-1}
    offset = pts[..., :, :, None] - np.swapaxes(pivots, -1, -2)[..., None, :, :]
    return pts, offset[..., ::-1, :] * _turn(pts.shape[-2])


@functools.cache
def _turn(K: int) -> Array:
    """The sign of each turned offset coordinate, (-1, 1), on the lower
    triangle i <= k, (K, 2, K); read-only."""
    out = np.array([[-1.0], [1.0]]) * np.tri(K)[:, None, :]
    out.setflags(write=False)
    return out


class ArmChain:
    """One pass over a planar arm's kinematic chain: eval gives the tip
    positions and their Jacobians (arm_joint_jacobians) at window stacks
    (..., 1, K) of joint angles.  Every ArmTips of an arm holds the arm's
    chain as its shared pass."""

    def __init__(self, lengths):
        self.lengths = tuple(lengths)

    def eval(self, xs: Array) -> tuple[Array, Array]:
        return arm_joint_jacobians(xs[..., 0, :], self.lengths)


class ArmTips:
    """Rows scale * (p[tips, axes] - offset): coordinate axes[i] of link tip
    tips[i] (0-based), sliced out of one pass over the kinematic chain.
    arm is the ArmChain to share, or link lengths for a chain of its own;
    the offset is one number or one per row."""

    window = 1
    group = TASK

    def __init__(self, arm, tips, axes, scale: float, name: str, offset=0.0):
        self.shared = arm if isinstance(arm, ArmChain) else ArmChain(arm)
        K = len(self.shared.lengths)
        tips, axes = np.asarray(tips), np.asarray(axes)
        offset = np.asarray(offset, dtype=float)
        if tips.ndim != 1 or axes.shape != tips.shape:
            raise ValueError(f"ArmTips '{name}': tips and axes must be two sequences "
                             f"of one length, got shapes {tips.shape} and {axes.shape}")
        if tips.size and not (np.issubdtype(tips.dtype, np.integer)
                              and np.issubdtype(axes.dtype, np.integer)):
            raise ValueError(f"ArmTips '{name}': tips and axes must be integers")
        if ((tips < 0) | (tips >= K)).any():
            raise ValueError(f"ArmTips '{name}': tips {tips.tolist()} must index "
                             f"the chain's {K} link tips 0..{K - 1}")
        if ((axes != 0) & (axes != 1)).any():
            raise ValueError(f"ArmTips '{name}': axes {axes.tolist()} must be 0 (x) or 1 (y)")
        if offset.ndim > 1 or offset.size not in (1, len(tips)):
            raise ValueError(f"ArmTips '{name}': offset must be one number or "
                             f"{len(tips)}, got shape {offset.shape}")
        self.tips = tips.astype(int)
        self.axes = axes.astype(int)
        self.scale = float(scale)
        self.offset = offset
        self.size = len(self.tips)
        self.name = name

    def take(self, chain: tuple[Array, Array]):
        """This feature's values and Jacobians out of the chain's pass."""
        pts, jac = chain
        return (self.scale * (pts[..., self.tips, self.axes] - self.offset),
                self.scale * jac[..., self.tips, self.axes, :])

    def eval(self, xs: Array):
        return self.take(self.shared.eval(xs))


def build_elbow(params: ScenarioParams) -> Scenario:
    """Four-link arm reaching over a table; fixing joints on the table
    during the tail of the horizon trades path cost against stability."""
    lengths = params.link_lengths
    d = len(lengths)
    target = np.asarray(params.arm_target, dtype=float)
    if np.linalg.norm(target) > sum(lengths):
        raise ValueError(f"target {params.arm_target} outside arm reach {sum(lengths)}")
    theta0 = np.asarray(params.start_angles, dtype=float)
    if theta0.shape != (d,):
        raise ValueError(f"start_angles must have length {d}")
    if d < 2:
        raise ValueError(f"link_lengths must hold two or more links, got {lengths!r}: "
                         f"the contact skeletons pin link tips 1 and 2")
    N, dt = params.N, params.dt
    arm = ArmChain(lengths)
    problem = PathProblem(
        N=N, d=d, dt=dt, sigma=params.sigma,
        prefix=np.stack([theta0, theta0]),
        costs=(AccelerationPenalty(d, dt, params.sigma),),
        terminal_costs=(ArmTips(arm, (d - 1, d - 1), (0, 1),
                                np.sqrt(params.arm_target_weight), "reach",
                                offset=target),))

    contact_start = max(2, int(round(params.contact_fraction * N)))

    def heights(joints, sign: float, name: str) -> tuple[ArmTips]:
        """Rows sign * y of the given link tips (1-based)."""
        return (ArmTips(arm, [j - 1 for j in joints], [1] * len(joints), sign, name),)

    def clearance(exclude=()):
        return heights([j for j in range(1, d + 1) if j not in exclude], -1.0,
                       "table-clearance")

    def contact_skeleton(fixed: tuple[int, ...], skeleton_id: str) -> Skeleton:
        tag = "".join(str(j) for j in fixed)
        return Skeleton(
            id=skeleton_id,
            modes=(Mode("free", (1, contact_start - 1), ineq=clearance()),
                   Mode(f"contact-{tag}", (contact_start, N),
                        eq=heights(fixed, 1.0, f"joint{tag}-on-table"),
                        ineq=clearance(exclude=fixed))),
            switches=(Switch(f"touch-{tag}", contact_start),))

    skeletons = (
        Skeleton(id="free", modes=(Mode("free", (1, N), ineq=clearance()),)),
        contact_skeleton((1,), "fix-joint-1"),
        contact_skeleton((2,), "fix-joint-2"),
        contact_skeleton((1, 2), "fix-both"),
    )

    def final_error(x_final: Array) -> float:
        tip = arm_joint_positions(x_final, lengths)[-1]
        return float(np.linalg.norm(tip - target))

    return Scenario(name="elbow", problem=problem, skeletons=skeletons,
                    target_coords=None, target_values=None,
                    final_error=final_error, truth=None, params=params)


# --- quasi-static push ----------------------------------------------------

def _rot(theta: Array) -> tuple[Array, Array]:
    """Rotation matrices R (..., 2, 2) for angles of any shape, and their
    derivatives dR/dtheta: row i of dR is row 1-i of R, signed."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.stack([c, -s, s, c], -1).reshape(np.shape(theta) + (2, 2))
    return R, R[..., ::-1, :] * np.array([[-1.0], [1.0]])


class ContactPointTouch:
    """Two equality rows per finger pinning it to its box-frame point; pins
    lists each finger as (its first coordinate, that point)."""

    window = 1

    def __init__(self, pins, box0: int, dim: int, name: str = "touch"):
        self.fingers0 = [int(f0) for f0, _ in pins]
        self.contacts = np.array([point for _, point in pins], dtype=float)
        self.box0 = box0
        self.dim = dim
        self.size = 2 * len(self.fingers0)
        self.name = name

    def _pin(self, xs: Array):
        """Each finger's offset from its contact point (..., F, 2), their
        Jacobians (..., F, 2, dim), and the box rotation R with dR/dtheta."""
        x, box = xs[..., 0, :], self.box0
        R, dR = _rot(x[..., box + 2])
        rel = (x[..., np.add.outer(self.fingers0, np.arange(2))] - x[..., None, box:box + 2]
               - np.stack([R @ c for c in self.contacts], axis=-2))
        jac = np.zeros(rel.shape + (self.dim,))
        for f, (f0, c) in enumerate(zip(self.fingers0, self.contacts)):
            jac[..., f, :, f0:f0 + 2] = np.eye(2)
            jac[..., f, :, box:box + 2] = -np.eye(2)
            jac[..., f, :, box + 2] = -(dR @ c)
        return rel, jac, R, dR

    def eval(self, xs: Array):
        rel, jac, _, _ = self._pin(xs)
        return (rel.reshape(rel.shape[:-2] + (self.size,)),
                jac.reshape(jac.shape[:-3] + (self.size, self.dim)))


class ContactFacePlane(ContactPointTouch):
    """One equality row per finger: its touch offset projected onto the
    box face normal, so the face plane through the contact point stays
    under the finger while it slides tangentially."""

    def __init__(self, pins, box0: int, normal: Array, dim: int,
                 name: str = "face-contact"):
        super().__init__(pins, box0, dim, name)
        self.normal = np.asarray(normal, dtype=float)
        self.size = len(self.fingers0)

    def eval(self, xs: Array):
        rel, jac, R, dR = self._pin(xs)
        n = (R @ self.normal)[..., None, :]
        face = np.sum(n[..., :, None] * jac, axis=-2)
        # The normal turns with the box too.
        face[..., self.box0 + 2] += np.sum((dR @ self.normal)[..., None, :] * rel, axis=-1)
        return np.sum(n * rel, axis=-1), face


def build_push(params: ScenarioParams) -> Scenario:
    """Two finger points and a box; single- and two-finger push skeletons.

    Coordinates: [f1x, f1y, f2x, f2y, bx, by, btheta].  Only the fingers
    are actuated; the box pose is governed by rest/contact equality rows
    plus a weak drift prior.
    """
    d = 7
    box0 = 4
    half = params.box_half
    a = params.contact_offset
    N, dt = params.N, params.dt
    box_start = np.asarray(params.box_start, dtype=float)
    box_target = np.asarray(params.box_target, dtype=float)
    bx, by, bth = box_start
    if abs(bth) > 1e-12:
        raise ValueError("box must start axis-aligned")
    x0 = np.array([bx - half - params.approach_gap, by + 0.5 * a,
                   bx - half - params.approach_gap, by - 0.5 * a,
                   bx, by, bth])
    finger_coords = np.array([0, 1, 2, 3])
    box_coords = np.array([box0, box0 + 1, box0 + 2])
    actuated = np.zeros(d, dtype=bool)
    actuated[finger_coords] = True

    problem = PathProblem(
        N=N, d=d, dt=dt, sigma=params.sigma,
        prefix=np.stack([x0, x0]),
        costs=(AccelerationPenalty(d, dt, params.sigma, coords=finger_coords),
               # A pose left alone persists, but rotation is far more
               # diffuse than translation: pushing at a point barely
               # determines the spin.
               DriftPenalty(d, dt, (params.sigma_object, params.sigma_object,
                                    params.sigma_object_rot),
                            coords=box_coords, name="object-drift")),
        terminal_costs=(coordinate_target(d, box_coords, box_target,
                                          params.box_target_weight, name="box-target"),),
        actuated=actuated)

    touch_step = max(2, int(round(params.push_fraction * N)))
    normal = np.array([1.0, 0.0])  # inward normal of the left face
    rest = FiniteDifference(d, (-1.0, 1.0), 1.0, coords=box_coords, name="box-at-rest")

    def push_skeleton(points, skeleton_id: str) -> Skeleton:
        """Finger i + 1 pushes at points[i], in the box frame."""
        pins = [(2 * i, point) for i, point in enumerate(points)]
        tag = "".join(str(i + 1) for i in range(len(points)))
        touch = ContactPointTouch(pins, box0, d, name=f"touch-{tag}")
        face = ContactFacePlane(pins, box0, normal, d, name=f"face-{tag}")
        return Skeleton(
            id=skeleton_id,
            modes=(Mode("approach", (1, touch_step - 1), eq=(rest,)),
                   Mode(f"push-{tag}", (touch_step, N), eq=(face,))),
            switches=(Switch(f"touch-{tag}", touch_step, eq=(touch,)),))

    skeletons = (push_skeleton([(-half, 0.0)], "single-finger"),
                 push_skeleton([(-half, a), (-half, -a)], "two-finger"))

    def final_error(x_final: Array) -> float:
        return float(np.linalg.norm(x_final[box_coords] - box_target))

    return Scenario(name="push", problem=problem, skeletons=skeletons,
                    target_coords=box_coords, target_values=box_target,
                    final_error=final_error, truth=None, params=params)


# --- two candidate routes -------------------------------------------------

def build_tworoute(params: ScenarioParams) -> Scenario:
    """Point robot with a near and a far waypoint alternative mid-horizon.

    The waypoint equalities are plan preferences, not physics, so the
    truth skeleton used for rollout projection is unconstrained.
    """
    d = 2
    N, dt = params.N, params.dt
    start = np.asarray(params.route_start, dtype=float)
    target = np.asarray(params.route_target, dtype=float)
    problem = PathProblem(
        N=N, d=d, dt=dt, sigma=params.sigma,
        prefix=np.stack([start, start]),
        costs=(AccelerationPenalty(d, dt, params.sigma),),
        terminal_costs=(coordinate_target(d, (0, 1), target,
                                          params.route_target_weight, name="goal"),))

    mid = min(N - 1, max(2, int(round(params.waypoint_fraction * N))))

    def route(waypoint, label: str) -> Skeleton:
        touch = AffineFeature(np.eye(2), -np.asarray(waypoint, dtype=float),
                              window=1, name=f"waypoint-{label}")
        return Skeleton(
            id=f"via-{label}",
            modes=(Mode("travel", (1, mid - 1)), Mode("arrive", (mid, N))),
            switches=(Switch(f"via-{label}", mid, eq=(touch,)),))

    skeletons = (route(params.waypoint_near, "near"),
                 route(params.waypoint_far, "far"))

    def final_error(x_final: Array) -> float:
        return float(np.linalg.norm(x_final - target))

    return Scenario(name="tworoute", problem=problem, skeletons=skeletons,
                    target_coords=np.array([0, 1]), target_values=target,
                    final_error=final_error,
                    truth=free_skeleton(N, skeleton_id="unconstrained"),
                    params=params)


_BUILDERS = {"elbow": build_elbow, "push": build_push, "tworoute": build_tworoute}


def build_scenario(params: ScenarioParams) -> Scenario:
    try:
        builder = _BUILDERS[params.name]
    except KeyError:
        raise ValueError(f"unknown scenario '{params.name}'; "
                         f"choose from {sorted(_BUILDERS)}") from None
    return builder(params)
