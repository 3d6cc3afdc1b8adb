"""Batched rigid-body dynamics: a 3-finger, 9-joint torque-driven hand and a
free object on a table, stepped for N environments at once.

The model is deliberately simple so it vectorizes: diagonal joint-space
inertia per joint, semi-implicit Euler integration with fixed substeps, and
penalty contacts (linear spring-damper normal force, tanh-regularized
Coulomb friction) between fingertip spheres, the object, and the table
plane at z = 0.  Fidelity is validated against closed-form single-body
cases, not against any reference engine.

Everything is float64 and elementwise over the env axis, so stepping a
batch is bit-identical to stepping each env alone.  The only randomness is
the external-force schedule, which draws from counter-based streams keyed
by (seed, global env_id, step), so a shard of a batch draws the same
forces as the whole batch.

Inside the step, vectors are per axis: x, y and z are separate (3, N)
arrays over fingertips, (8, N) over box corners, or (N,) for the object, in
place of stacked (N, 3, 3, 3) temporaries and 3-wide reductions.  Per-env
constants are (N,) and the joints (9, N).  The env axis is last and
contiguous, so every numpy operation runs one inner loop over the batch;
env-first (N, 3) or (N, 8) arrays broadcast against (N, 1) columns would
run inner loops 3 or 8 elements long.  Only the inside is env-last:
``SimState`` and ``FingertipKin``'s stacked arrays are (N, ...) in C
order, the order the task's multi-axis sums add in.  The per-axis form
gives the stacked form's bits because every sum keeps numpy's order: a
3-wide sum is ((0 + a0) + a1) + a2, numpy's reduction from +0.0 (an all
-0.0 sum gives +0.0); the 8 box corners are added one after another, where
a sum along a contiguous corner axis would add them as a tree; and each
accumulation into a zero total (forces, torques, wrenches) stays a
``0 + x`` or ``0 - x``.

Contact work follows the pairs that can touch, not the batch.  Each substep
runs three contact phases, the methods of ``_Contacts``: ``tip_object`` on
the (fingertip, env) pairs with |tip - x| < tip_r + R + 1 mm, where R bounds
the scaled object (the norm of a box's half extents, a sphere's radius; the
separation is at least |tip - x| - R, and the 1 mm covers the rounding of
the rotated offset); ``tip_table`` on the tips below the table; and
``object_table`` on the sphere's bottom point or, after the corner heights,
the box corners below it.  The two table phases share one law for the plane
z = 0, ``_plane_force``.  A phase gathers its pairs in row-major order and
scatters its result back with ``np.add.at``, which adds in pair order from
+0.0, so each per-env sum adds its fingers or corners in the dense order.
The bits are the dense computation's: a skipped pair added an exact +0.0 or
-0.0 to a sum that starts from +0.0 and so is never -0.0, which leaves it
unchanged; its joint torque was +0.0 (``_dot`` starts from +0.0); and adding
it to the wrench total left that unchanged too.

The kinematics follow the pairs too.  Each substep computes the tip
centers of every pair, which the broad phase and the table test read, but
the velocity terms (tip velocities and joint frames) only at the pairs of
the two fingertip phases (``FingertipKin.at``), from inputs gathered there.
Their formula is elementwise, so each term has the bits a dense pass would
give it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng, spatial
from .domains import FINITE, FLAG, NON_NEGATIVE, POSITIVE, TRIPLE, UNIT, Checked, leaf, list_of, one_of

N_FINGERS = 3
N_JOINTS = 9  # 3 per finger


@dataclass
class HandModel(Checked):
    """Geometry and joint parameters of the 3-finger hand.

    The three fingers are mounted 120 degrees apart on a circle of radius
    ``mount_radius`` at ``mount_height`` above the table, each pointing at
    the arena center.  Per finger the chain is: a roll joint about the
    inward horizontal axis, then two flexion joints about the shared
    lateral axis, with links ``link1_len`` and ``link2_len`` that hang
    straight down at zero joint angle.  These follow the open three-finger
    platform dimensions and live in config, not code.
    """

    link1_len: float = leaf(0.16, POSITIVE)
    link2_len: float = leaf(0.16, POSITIVE)
    fingertip_radius: float = leaf(0.0175, POSITIVE)
    mount_radius: float = leaf(0.04, NON_NEGATIVE)
    mount_height: float = leaf(0.29, POSITIVE)
    joint_lower: float = leaf(-2.70, FINITE)
    joint_upper: float = leaf(1.57, FINITE)
    max_joint_vel: float = leaf(10.0, POSITIVE)
    max_torque: float = leaf(0.36, POSITIVE)
    joint_damping: float = leaf(0.02, NON_NEGATIVE)
    # diagonal joint-space inertia approximation per joint of one finger
    joint_inertia: tuple = leaf((0.012, 0.012, 0.002), list_of(POSITIVE, TRIPLE))
    home_config: tuple = leaf((0.0, 1.1, -2.0), list_of(FINITE, TRIPLE))

    RULES = (("joint_lower", "below", "joint_upper"),)

    def home_joint_positions(self) -> np.ndarray:
        return np.tile(np.asarray(self.home_config, dtype=np.float64), N_FINGERS)


@dataclass
class ObjectParams(Checked):
    """The manipulated object: an axis-aligned box (default: the 6.5 cm
    cube) or a sphere, with uniform-density inertia."""

    kind: str = leaf("box", one_of("box", "sphere"))
    half_extents: tuple = leaf((0.0325, 0.0325, 0.0325), list_of(POSITIVE, TRIPLE))
    radius: float = leaf(0.0325, POSITIVE)
    mass: float = leaf(0.094, POSITIVE)
    friction: float = leaf(0.9, NON_NEGATIVE)

    def box_half_extents(self) -> np.ndarray:
        """Half extents (3,) of the object's box: a sphere's is (r, r, r)."""
        if self.kind == "sphere":
            return np.full(3, self.radius)
        return np.asarray(self.half_extents, dtype=np.float64)


@dataclass
class ContactParams(Checked):
    """Penalty contact constants.

    Stiffness and damping for object contacts scale with the effective
    object mass so the stiff-spring stability limit and the resting
    penetration (< 1 mm for the nominal 94 g cube) are both independent of
    the mass and scale randomization range.
    """

    stiffness: float = leaf(1200.0, POSITIVE)  # N/m per contact at nominal object mass
    damping: float = leaf(6.0, NON_NEGATIVE)  # N s/m per contact at nominal object mass
    friction_smoothing_vel: float = leaf(0.002, POSITIVE)  # m/s, tanh regularization knee
    table_friction: float = leaf(0.5, NON_NEGATIVE)
    mass_scaled: bool = leaf(True, FLAG)


@dataclass
class PhysicsConfig(Checked):
    hand: HandModel = field(default_factory=HandModel)
    object: ObjectParams = field(default_factory=ObjectParams)
    contact: ContactParams = field(default_factory=ContactParams)
    gravity: float = leaf(9.81, FINITE)
    dt: float = leaf(0.02, POSITIVE)
    n_substeps: int = leaf(6, POSITIVE)
    max_obj_linvel: float = leaf(5.0, POSITIVE)
    max_obj_angvel: float = leaf(12.0, POSITIVE)
    # invented plumbing: velocity-proportional reduction of commanded torque (never a gain)
    safety_damping_coef: float = leaf(0.1, NON_NEGATIVE)


@dataclass
class ExternalForceConfig(Checked):
    """Random cube perturbations: each step a force episode starts with
    probability ``prob``; the force is Gaussian per component with std
    ``scale * m * g`` and decays geometrically afterwards."""

    prob: float = leaf(0.1, UNIT)
    scale: float = leaf(1.0, NON_NEGATIVE)
    decay: float = leaf(0.8, UNIT)


@dataclass
class EnvParams:
    """Per-episode randomized physical parameters and correlated noise
    offsets, one row per env.  Factors multiply nominal values."""

    scale: np.ndarray  # (N,)
    mass_factor: np.ndarray  # (N,)
    object_friction_factor: np.ndarray  # (N,)
    table_friction_factor: np.ndarray  # (N,)
    joint_pos_offset: np.ndarray  # (N, 9) rad, per-episode bias
    joint_vel_offset: np.ndarray  # (N, 9) rad/s
    torque_offset: np.ndarray  # (N, 9) N m
    cube_pos_offset: np.ndarray  # (N, 3) m
    cube_rot_offset: np.ndarray  # (N, 3) rotation vector, rad
    ext_force: np.ndarray  # (N, 3) N, current external force state

    @classmethod
    def nominal(cls, n: int) -> "EnvParams":
        one = np.ones(n)
        return cls(
            scale=one.copy(),
            mass_factor=one.copy(),
            object_friction_factor=one.copy(),
            table_friction_factor=one.copy(),
            joint_pos_offset=np.zeros((n, N_JOINTS)),
            joint_vel_offset=np.zeros((n, N_JOINTS)),
            torque_offset=np.zeros((n, N_JOINTS)),
            cube_pos_offset=np.zeros((n, 3)),
            cube_rot_offset=np.zeros((n, 3)),
            ext_force=np.zeros((n, 3)),
        )


@dataclass
class SimState:
    """Batched dynamic state; arrays are (N, ...) and stay finite."""

    joint_pos: np.ndarray  # (N, 9) rad
    joint_vel: np.ndarray  # (N, 9) rad/s
    joint_torque: np.ndarray  # (N, 9) N m, last applied (post noise)
    obj_pos: np.ndarray  # (N, 3) m
    obj_quat: np.ndarray  # (N, 4) xyzw
    obj_linvel: np.ndarray  # (N, 3) m/s
    obj_angvel: np.ndarray  # (N, 3) rad/s, world frame
    fingertip_wrench: np.ndarray  # (N, 3, 6) force+torque per fingertip
    fault: np.ndarray  # (N,) bool
    step_count: np.ndarray  # (N,) int64, per-env steps since run start

    @property
    def n_envs(self) -> int:
        return self.joint_pos.shape[0]

    def copy(self) -> "SimState":
        return SimState(**{k: v.copy() for k, v in vars(self).items()})

    def set_rows(self, mask: np.ndarray, other: "SimState") -> None:
        for name in vars(self):
            getattr(self, name)[mask] = getattr(other, name)[mask]


def object_half_extents(cfg: PhysicsConfig, params: EnvParams) -> np.ndarray:
    """Effective per-env half extents (N, 3) of the object's box."""
    return cfg.object.box_half_extents() * params.scale[:, None]


def object_mass(cfg: PhysicsConfig, params: EnvParams) -> np.ndarray:
    return cfg.object.mass * params.mass_factor


def object_inertia_body(cfg: PhysicsConfig, params: EnvParams) -> np.ndarray:
    """Body-frame diagonal inertia (N, 3) of the uniform-density object."""
    m = object_mass(cfg, params)
    if cfg.object.kind == "sphere":
        r = cfg.object.radius * params.scale
        i = 0.4 * m * r * r
        return np.stack([i, i, i], axis=-1)
    h = object_half_extents(cfg, params)
    s2 = (2.0 * h) ** 2
    return (
        m[:, None]
        / 12.0
        * np.stack([s2[:, 1] + s2[:, 2], s2[:, 0] + s2[:, 2], s2[:, 0] + s2[:, 1]], axis=-1)
    )


def rest_height(cfg: PhysicsConfig, params: EnvParams) -> np.ndarray:
    """Object center height (N,) at static contact equilibrium: the spring
    compression under gravity is included so a freshly placed object does
    not settle."""
    m = object_mass(cfg, params)
    k = cfg.contact.stiffness * (params.mass_factor if cfg.contact.mass_scaled else 1.0)
    n_contacts = 1.0 if cfg.object.kind == "sphere" else 4.0
    h = cfg.object.box_half_extents()[2] * params.scale
    return h - m * cfg.gravity / (k * n_contacts)


def make_rest_state(n: int, cfg: PhysicsConfig, params: EnvParams | None = None) -> SimState:
    """All envs at the home configuration with the object resting at the
    arena center."""
    if params is None:
        params = EnvParams.nominal(n)
    pos = np.zeros((n, 3))
    pos[:, 2] = rest_height(cfg, params)
    return SimState(
        joint_pos=np.tile(cfg.hand.home_joint_positions(), (n, 1)),
        joint_vel=np.zeros((n, N_JOINTS)),
        joint_torque=np.zeros((n, N_JOINTS)),
        obj_pos=pos,
        obj_quat=np.tile(spatial.QUAT_IDENTITY, (n, 1)),
        obj_linvel=np.zeros((n, 3)),
        obj_angvel=np.zeros((n, 3)),
        fingertip_wrench=np.zeros((n, N_FINGERS, 6)),
        fault=np.zeros(n, dtype=bool),
        step_count=np.zeros(n, dtype=np.int64),
    )


# ------------------------------------------------------------------ per-axis
# a vector is an (x, y, z) triple of arrays; a scalar 0.0 stands for zeros


def _add(a, b) -> tuple:
    return tuple(p + q for p, q in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(p - q for p, q in zip(a, b))


_cross = spatial.cross_parts


def _dot(a, b):
    # numpy sums a 3-wide axis from +0.0, in order
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a):
    # squares are never -0.0, so the +0.0 start drops out
    return np.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _rot(r, v) -> tuple:
    """R @ v for a row-major 3x3 nested tuple ``r``."""
    return tuple(row[0] * v[0] + row[1] * v[1] + row[2] * v[2] for row in r)


def _rot_t(r, v) -> tuple:
    """R^T @ v."""
    return tuple(r[0][i] * v[0] + r[1][i] * v[1] + r[2][i] * v[2] for i in range(3))


def _rows(a: np.ndarray) -> tuple:
    """The k contiguous (N,) rows of an (N, k) array's transpose."""
    return tuple(np.ascontiguousarray(a.T))


# ------------------------------------------------------------------ kinematics


class FingertipKin:
    """World-frame fingertip kinematics plus the joint frames needed for
    contact Jacobians, over (finger, env) pairs.  Vectors are per axis: (3,
    N) arrays, finger by env, except the constant mount and roll axis, (3,
    1) per axis; ``at`` gives (K,) arrays at K pairs.  The properties
    ``pos``, ``linvel`` and ``angvel`` stack them into the (N, 3, 3) arrays
    the task reads.

    The tip centers are computed for every pair, as the broad phase and the
    table test read them all.  The velocity terms (``tip_vel``,
    ``tip_angvel``, ``elbow`` and ``flex_axis``) follow the pairs that are
    read: for every pair the first time one of them is read, or, through
    ``at``, at the pairs gathered only.  Both apply ``_velocity_terms`` to
    the same inputs, dense or gathered, and every operation in it is
    elementwise, so a gathered term has the bits of the dense term at its
    pair.
    """

    def __init__(self, tip, elbow_local, c0, s0, qd, cpsi, spsi, mount):
        self.tip = tip  # tip sphere centers
        self.mount = mount  # origin of joints 0 and 1
        self.roll_axis = (cpsi, spsi, 0.0)  # world axis of joint 0
        self._inputs = (elbow_local, c0, s0, qd, cpsi, spsi)

    @cached_property
    def _terms(self) -> tuple:
        return _velocity_terms(self.tip, *self._inputs, self.mount)

    tip_vel = property(lambda self: self._terms[0])
    tip_angvel = property(lambda self: self._terms[1])
    elbow = property(lambda self: self._terms[2])  # origin of joint 2
    flex_axis = property(lambda self: self._terms[3])  # world axis of joints 1 and 2

    # stacked (N, 3, 3) arrays, [env, finger, xyz]
    pos = property(lambda self: _stack_fingers(self.tip))
    linvel = property(lambda self: _stack_fingers(self.tip_vel))
    angvel = property(lambda self: _stack_fingers(self.tip_angvel))

    def at(self, pair: np.ndarray) -> "FingertipKin":
        """The kinematics at flat (finger, env) indices ``pair`` into the (3,
        N) arrays, as (K,) arrays; their velocity terms are computed at
        those pairs only."""
        f, e = _split(pair, self.tip[0].shape[1])
        elbow_local, c0, s0, qd, cpsi, spsi = self._inputs
        return FingertipKin(
            _take(self.tip, pair), _take(elbow_local, pair), *_take((c0, s0), pair),
            tuple(c[f, e] for c in qd),  # strided views: flattening would copy
            *_take((cpsi, spsi), f), _take(self.mount, f),
        )


def _stack_fingers(v: tuple) -> np.ndarray:
    # C order: the task's multi-axis sums add in memory order
    return np.ascontiguousarray(np.stack(v, axis=-1).swapaxes(0, 1))


def _constant(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the finger frames' fixed angles, per finger: phi is the mount's azimuth
# and psi = phi + pi the frame's yaw (local +x points from the mount toward
# the center).  Computed once here; (3, 1) columns broadcast over envs
_PHI = np.arange(N_FINGERS)[:, None] * (2.0 * np.pi / N_FINGERS)
_COS_PHI, _SIN_PHI = _constant(np.cos(_PHI)), _constant(np.sin(_PHI))
_PSI = _PHI + np.pi
_COS_PSI, _SIN_PSI = _constant(np.cos(_PSI)), _constant(np.sin(_PSI))
_SIN_HALF_PSI = _constant(np.sin(_PSI[:, 0] / 2.0))
_COS_HALF_PSI = _constant(np.cos(_PSI[:, 0] / 2.0))


def _to_world(v, cpsi, spsi, mount) -> tuple:
    """Rotate a finger-frame vector to the world by Rz(psi); add the mount."""
    return (cpsi * v[0] - spsi * v[1] + mount[0], spsi * v[0] + cpsi * v[1] + mount[1],
            v[2] + mount[2])


def fingertip_kinematics(
    joint_pos: np.ndarray, joint_vel: np.ndarray | None, hand: HandModel
) -> FingertipKin:
    """Analytic chain kinematics for all fingers, vectorized over envs.

    Joint 0 rolls about the finger's inward horizontal axis; joints 1 and 2
    flex about the shared lateral axis, so their world axes coincide.
    ``joint_pos`` and ``joint_vel`` are (N, 9); ``step`` passes transposed
    views of its joint-major (9, N) arrays, which are used without a copy.
    Only the tip centers are computed here; the velocity terms follow the
    pairs that are read (see ``FingertipKin``).
    """
    q = np.ascontiguousarray(joint_pos.T)
    qd = np.zeros_like(q) if joint_vel is None else np.ascontiguousarray(joint_vel.T)
    q0, q1, q2 = (q[j::3] for j in range(3))  # (3, N), finger by env
    l1, l2 = hand.link1_len, hand.link2_len

    mount = (hand.mount_radius * _COS_PHI, hand.mount_radius * _SIN_PHI,
             np.full((N_FINGERS, 1), hand.mount_height))

    c0, s0 = np.cos(q0), np.sin(q0)
    s1, c1 = np.sin(q1), np.cos(q1)
    q12 = q1 + q2
    s12, c12 = np.sin(q12), np.cos(q12)

    # positions in the finger frame (x inward, y lateral, z up)
    r1, r2 = l1 * c1, l2 * c12
    elbow_local = (-l1 * s1, s0 * r1, -c0 * r1)
    tip_local = _add(elbow_local, (-l2 * s12, s0 * r2, -c0 * r2))
    tip = _to_world(tip_local, _COS_PSI, _SIN_PSI, mount)
    return FingertipKin(tip, elbow_local, c0, s0, tuple(qd[j::3] for j in range(3)),
                        _COS_PSI, _SIN_PSI, mount)


def _velocity_terms(tip, elbow_local, c0, s0, qd, cpsi, spsi, mount) -> tuple:
    """(tip_vel, tip_angvel, elbow, flex_axis) of the fingertips at ``tip``,
    from the finger-frame elbow, the roll joint's cosine and sine, the joint
    velocities and the finger frames, all per axis and elementwise."""
    elbow = _to_world(elbow_local, cpsi, spsi, mount)
    roll, flex = (cpsi, spsi, 0.0), (-spsi * c0, cpsi * c0, s0)

    # velocities: v = sum_k qd_k * a_k x (tip - o_k), w = sum_k qd_k * a_k
    from_mount = _sub(tip, mount)
    arms = (_cross(roll, from_mount), _cross(flex, from_mount), _cross(flex, _sub(tip, elbow)))
    linvel = tuple(0.0 + qd[0] * arms[0][i] + qd[1] * arms[1][i] + qd[2] * arms[2][i]
                   for i in range(3))
    angvel = tuple(0.0 + qd[0] * roll[i] + qd[1] * flex[i] + qd[2] * flex[i] for i in range(3))
    return linvel, angvel, elbow, flex


def fingertip_quat(joint_pos: np.ndarray) -> np.ndarray:
    """Fingertip orientations (N, 3, 4), xyzw: Rz(psi) * Rx(q0) * Ry(q1 + q2)
    per finger, psi being the finger frame's yaw."""
    q0 = joint_pos[:, 0::3]
    q12 = joint_pos[:, 1::3] + joint_pos[:, 2::3]
    qz = (0.0, 0.0, _SIN_HALF_PSI, _COS_HALF_PSI)
    qx = (np.sin(q0 / 2.0), 0.0, 0.0, np.cos(q0 / 2.0))
    qy = (0.0, np.sin(q12 / 2.0), 0.0, np.cos(q12 / 2.0))
    return np.stack(spatial.quat_mul_parts(qz, spatial.quat_mul_parts(qx, qy)), axis=-1)


# ------------------------------------------------------------------ contacts


def _tanh_friction(vt: tuple, fn: np.ndarray, mu, eps: float) -> tuple:
    """Regularized Coulomb friction force opposing tangential velocity
    ``vt``; ``fn`` is the normal force magnitude."""
    speed = _norm(vt)
    moving = speed > 1e-12
    scale = np.where(moving, np.tanh(speed / eps) / np.where(moving, speed, 1.0), 0.0)
    s = -(mu * fn * scale)
    return tuple(s * c for c in vt)


def _point_in_box_normal(d: tuple, h: tuple):
    """Closest surface point and outward normal for points near an AABB.

    ``d`` point in box frame, ``h`` half extents, each a (K,) array per
    axis.  Returns (surface_point, normal, separation) where separation is
    the signed distance from surface to the point (negative when inside).
    The push-out of the points inside the box runs on those points only.
    """
    surface = tuple(np.clip(c, -e, e) for c, e in zip(d, h))
    diff = _sub(d, surface)
    separation = _norm(diff)
    outside = separation > 1e-12
    safe = np.where(outside, separation, 1.0)
    normal = tuple(c / safe for c in diff)

    inside = np.flatnonzero(~outside)
    if inside.size:
        # push out along the axis with the least face distance, the first
        # of equal ones as argmin picks
        d, h = _take(d, inside), _take(h, inside)
        g0, g1, g2 = (e - np.abs(c) for c, e in zip(d, h))  # >= 0 when inside
        pick0 = (g0 <= g1) & (g0 <= g2)
        pick1 = ~pick0 & (g1 <= g2)
        gap_min = np.where(pick0, g0, np.where(pick1, g1, g2))
        sign = np.sign(np.where(pick0, d[0], np.where(pick1, d[1], d[2])))
        sign = np.where(sign == 0.0, 1.0, sign)
        n_in = tuple(np.where(p, sign, 0.0) for p in (pick0, pick1, ~(pick0 | pick1)))
        for k in range(3):
            normal[k][inside] = n_in[k]
            surface[k][inside] = d[k] + n_in[k] * gap_min
        separation[inside] = -gap_min
    return surface, normal, separation


def _take(parts: tuple, idx: np.ndarray) -> tuple:
    """The elements ``idx`` of each part, indexed as flat arrays; a scalar
    part stands for a constant and stays as it is."""
    return tuple(c.ravel()[idx] if np.ndim(c) else c for c in parts)


def _split(pair: np.ndarray, n: int) -> tuple:
    """Row (finger or corner) and env of flat (row, env) indices into (k, N)
    arrays: ``divmod``, with the remainder from the faster division."""
    row = pair // n
    return row, pair - row * n


def _env_sum(e: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum (N,) of per-pair values into their envs ``e``, from +0.0 and in
    pair order: ``np.add.at`` adds its indices one after another."""
    total = np.zeros(n)
    np.add.at(total, e, vals)
    return total


def _joint_torques(kin: FingertipKin, point: tuple, force: tuple) -> tuple:
    """Torques on a finger's three joints of fingertip forces applied at
    ``point``, one array per joint: a_k . ((point - o_k) x force) for each
    joint k.  ``kin`` holds the kinematics gathered at the forces' pairs."""
    at_mount = _cross(_sub(point, kin.mount), force)
    flex = kin.flex_axis
    return (
        _dot(kin.roll_axis, at_mount),
        _dot(flex, at_mount),
        _dot(flex, _cross(_sub(point, kin.elbow), force)),
    )


def _limit_speed(v: tuple, v_max: float) -> tuple:
    k = np.minimum(1.0, v_max / np.maximum(_norm(v), 1e-12))
    return tuple(c * k for c in v)


def _plane_force(pen, v: tuple, k, c, mu, eps: float) -> tuple:
    """Force of the table plane z = 0 on points ``pen`` below it that move at
    ``v``: a spring-damper normal force along +z that never pulls, plus tanh
    friction against the horizontal velocity."""
    fn = np.maximum(0.0, k * pen - c * v[2])
    fric = _tanh_friction((v[0], v[1], 0.0), fn, mu, eps)
    return (0.0 + fric[0], 0.0 + fric[1], fn + fric[2])


class _Contacts:
    """The contact forces of one control step, from its per-env constants,
    (N,) arrays.  Each substep ``clear``s the totals; each phase then selects
    its pairs, gathers its inputs there and adds into the totals: the object's
    force and torque (a phase with no pairs leaves them as they are), the
    joint torques, and the fingertip wrenches, which sum over the substeps."""

    def __init__(self, n: int, params: EnvParams, cfg: PhysicsConfig):
        c = cfg.contact
        self.n, self.tip_r, self.eps = n, cfg.hand.fingertip_radius, c.friction_smoothing_vel
        # mass-proportional constants keep the stiff-spring stability limit
        # and the resting penetration independent of mass randomization
        scale_fac = params.mass_factor if c.mass_scaled else np.ones(n)
        self.k_obj, self.c_obj = c.stiffness * scale_fac, c.damping * scale_fac
        self.k_tip, self.c_tip = c.stiffness, c.damping
        self.mu_obj = cfg.object.friction * params.object_friction_factor
        self.mu_table = c.table_friction * params.table_friction_factor
        self.half = _rows(object_half_extents(cfg, params))
        self.is_sphere = cfg.object.kind == "sphere"
        if self.is_sphere:
            self.radius = bound = cfg.object.radius * params.scale
        else:  # (8, N) corner offsets in the body frame
            self.corners = tuple(spatial._CORNER_SIGNS[:, i, None] * self.half[i] for i in range(3))
            bound = _norm(self.half)
        # broad phase: a tip can touch the object only within this distance of
        # its center, as separation >= |tip - x| - bound; 1 mm covers rounding
        self.reach_sq = (self.tip_r + bound + 1e-3) ** 2
        self.wrench = np.zeros((6, N_FINGERS * n))  # [axis, finger * N + env]
        self.joint_tau = np.empty(N_JOINTS * n)  # [joint * N + env]

    def clear(self) -> None:
        self.force = self.torque = (0.0, 0.0, 0.0)
        self.joint_tau.fill(0.0)

    def tip_object(self, kin: FingertipKin, x, rot, v, w) -> None:
        """Fingertips against the object, on the (finger, env) pairs in reach."""
        n, tip_r = self.n, self.tip_r
        rel = _sub(kin.tip, x)
        pair = np.flatnonzero(rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2] < self.reach_sq)
        if not pair.size:
            return
        f, e = _split(pair, n)
        kin_p = kin.at(pair)
        rot_p = tuple(_take(row, e) for row in rot)
        x_p = _take(x, e)
        d_local = _rot_t(rot_p, _take(rel, pair))  # R^T (c - x)
        if self.is_sphere:
            radius_p = self.radius[e]
            dist = _norm(d_local)
            near = dist > 1e-12
            safe = np.where(near, dist, 1.0)
            n_local = tuple(np.where(near, c / safe, z) for c, z in zip(d_local, (0.0, 0.0, 1.0)))
            separation = dist - radius_p
            surf_local = tuple(c * radius_p for c in n_local)
        else:
            surf_local, n_local, separation = _point_in_box_normal(d_local, _take(self.half, e))
        pen = tip_r - separation
        normal = _rot(rot_p, n_local)  # cube -> tip
        p_c = _add(_rot(rot_p, surf_local), x_p)
        arm, lever = _sub(p_c, kin_p.tip), _sub(p_c, x_p)
        v_tip = _add(kin_p.tip_vel, _cross(kin_p.tip_angvel, arm))
        v_rel = _sub(v_tip, _add(_take(v, e), _cross(_take(w, e), lever)))
        v_n = _dot(v_rel, normal)
        fn = np.where(pen > 0.0, np.maximum(0.0, self.k_obj[e] * pen - self.c_obj[e] * v_n), 0.0)
        vt = tuple(c - v_n * nc for c, nc in zip(v_rel, normal))
        f_tip = _add(tuple(fn * nc for nc in normal), _tanh_friction(vt, fn, self.mu_obj[e], self.eps))
        self.force = _sub(self.force, (_env_sum(e, c, n) for c in f_tip))
        self.torque = _sub(self.torque, (_env_sum(e, c, n) for c in _cross(lever, f_tip)))
        self._add_tip_forces(kin_p, f, pair, p_c, f_tip, arm)

    def tip_table(self, kin: FingertipKin) -> None:
        """Fingertips against the table, on the tips below its surface."""
        pen = self.tip_r - kin.tip[2]
        pair = np.flatnonzero(pen > 0.0)
        if not pair.size:
            return
        f, e = _split(pair, self.n)
        kin_p = kin.at(pair)
        tip = kin_p.tip
        p_c = (tip[0], tip[1], tip[2] - self.tip_r)
        arm = _sub(p_c, tip)
        v_tip = _add(kin_p.tip_vel, _cross(kin_p.tip_angvel, arm))
        force = _plane_force(pen.ravel()[pair], v_tip, self.k_tip, self.c_tip, self.mu_table[e],
                             self.eps)
        self._add_tip_forces(kin_p, f, pair, p_c, force, arm)

    def object_table(self, x, rot, v, w) -> None:
        """The object against the table, on its points below the surface."""
        if self.is_sphere:  # one point, the bottom one at z - r
            pen, r_z = (self.radius - x[2])[None], -self.radius[None]
        else:  # only the corners' heights first: the z row of R @ corner
            r_z = _rot((rot[2],), self.corners)[0]
            pen = -(x[2] + r_z)
        pair = np.flatnonzero(pen > 0.0)
        if not pair.size:
            return
        n = self.n
        e = _split(pair, n)[1]
        r_pts = (0.0, 0.0) if self.is_sphere else _rot(
            (_take(rot[0], e), _take(rot[1], e)), _take(self.corners, pair))
        r_pts += (r_z.ravel()[pair],)
        v_pt = _add(_take(v, e), _cross(_take(w, e), r_pts))
        force = _plane_force(pen.ravel()[pair], v_pt, self.k_obj[e], self.c_obj[e],
                             self.mu_table[e], self.eps)
        self.force = _add(self.force, (_env_sum(e, c, n) for c in force))
        self.torque = _add(self.torque, (_env_sum(e, c, n) for c in _cross(r_pts, force)))

    def _add_tip_forces(self, kin, f, pair, point, force, arm) -> None:
        """Add fingertip forces at ``point`` on (finger, env) pairs ``pair`` to
        the joint torques, through the contact-point Jacobian, and wrenches."""
        # (finger, env) pairs are unique in a phase, so each np.add.at adds
        # a pair's torque or wrench to its own total once
        n = self.n
        tau = _joint_torques(kin, point, force)
        joint = pair + 2 * n * f  # (3 finger + k) * N + env, less k * N
        for k in range(3):
            np.add.at(self.joint_tau[k * n:], joint, tau[k])
        torque = _cross(arm, force)
        for i in range(3):
            np.add.at(self.wrench[i], pair, force[i])
            np.add.at(self.wrench[3 + i], pair, torque[i])


def step(state: SimState, torques: np.ndarray, params: EnvParams, cfg: PhysicsConfig) -> SimState:
    """Advance every env by one control step of ``cfg.dt`` seconds.

    ``torques`` (N, 9) are clamped to ``±cfg.hand.max_torque`` here, the one
    clamp on the actuator (the task layer owns scaling, safety damping, and
    action noise).  Non-finite inputs set the per-env fault flag and that env
    is restored to the rest state; the rest of the batch is unaffected.
    Returns a new state; ``state`` is neither changed nor shared.
    """
    n = state.n_envs
    torques = np.asarray(torques, dtype=np.float64)

    bad = ~np.isfinite(torques).all(axis=1)
    for name in ("joint_pos", "joint_vel", "obj_pos", "obj_quat", "obj_linvel", "obj_angvel"):
        bad |= ~np.isfinite(getattr(state, name)).all(axis=1)
    start = state
    if bad.any():
        start = state.copy()
        start.set_rows(bad, make_rest_state(n, cfg, params))
        torques = np.where(bad[:, None], 0.0, torques)

    hand = cfg.hand
    dt_sub = cfg.dt / cfg.n_substeps
    torques = np.clip(torques, -hand.max_torque, hand.max_torque)
    contacts = _Contacts(n, params, cfg)
    m = object_mass(cfg, params)
    inertia_b = _rows(object_inertia_body(cfg, params))
    ext = _rows(params.ext_force)

    q, qd, tau_cmd = (np.ascontiguousarray(a.T) for a in (start.joint_pos, start.joint_vel, torques))
    x, quat, v, w = map(_rows, (start.obj_pos, start.obj_quat, start.obj_linvel, start.obj_angvel))
    inertia_j = np.tile(np.asarray(hand.joint_inertia), N_FINGERS)[:, None]  # (9, 1)

    for _ in range(cfg.n_substeps):
        kin = fingertip_kinematics(q.T, qd.T, hand)
        rot = spatial.quat_to_mat_parts(quat)
        contacts.clear()
        contacts.tip_object(kin, x, rot, v, w)
        contacts.tip_table(kin)
        contacts.object_table(x, rot, v, w)

        # joints: diagonal inertia, semi-implicit Euler
        tau = tau_cmd - hand.joint_damping * qd + contacts.joint_tau.reshape(N_JOINTS, n)
        qd = qd + dt_sub * tau / inertia_j
        qd = np.clip(qd, -hand.max_joint_vel, hand.max_joint_vel)
        q = q + dt_sub * qd
        below = q < hand.joint_lower
        above = q > hand.joint_upper
        q = np.clip(q, hand.joint_lower, hand.joint_upper)
        qd = np.where(below & (qd < 0.0), 0.0, qd)
        qd = np.where(above & (qd > 0.0), 0.0, qd)

        # the object
        f0, f1, f2 = _add(contacts.force, ext)
        obj_force = (f0, f1, f2 - m * cfg.gravity)
        v = tuple(c + dt_sub * f / m for c, f in zip(v, obj_force))
        # angular dynamics in the body frame, where the inertia is diagonal:
        # I_b dw_b = tau_b - w_b x (I_b w_b)
        w_b = _rot_t(rot, w)
        tau_b = _rot_t(rot, contacts.torque)
        gyro = _cross(w_b, tuple(i * c for i, c in zip(inertia_b, w_b)))
        dw_b = tuple((t - g) / i for t, g, i in zip(tau_b, gyro, inertia_b))
        w = tuple(c + dt_sub * d for c, d in zip(w, _rot(rot, dw_b)))
        v = _limit_speed(v, cfg.max_obj_linvel)
        w = _limit_speed(w, cfg.max_obj_angvel)
        x = tuple(c + dt_sub * d for c, d in zip(x, v))
        quat = spatial.quat_integrate_parts(quat, w, dt_sub)

    obj_pos, obj_quat, obj_linvel, obj_angvel = (np.stack(c, axis=1) for c in (x, quat, v, w))
    return SimState(
        joint_pos=np.ascontiguousarray(q.T), joint_vel=np.ascontiguousarray(qd.T),
        joint_torque=torques, obj_pos=obj_pos, obj_quat=obj_quat, obj_linvel=obj_linvel,
        obj_angvel=obj_angvel,
        fingertip_wrench=np.ascontiguousarray(contacts.wrench.reshape(6, N_FINGERS, n).T) / cfg.n_substeps,
        fault=bad, step_count=state.step_count + 1,
    )


def apply_external_force(
    state: SimState, params: EnvParams, cfg: PhysicsConfig, fcfg: ExternalForceConfig, seed: int,
    env_ids: np.ndarray | None = None,
) -> None:
    """Update the per-env external force state for the coming step.

    Draws are keyed by (seed, env_id, step_count) with the batch's global
    ``env_ids`` (default: envs 0 to N-1), so the schedule is deterministic
    and independent of batch partitioning.
    """
    if fcfg.prob <= 0.0:
        return
    if env_ids is None:
        env_ids = np.arange(state.n_envs)
    key = rng.stream_key(seed, env_ids, state.step_count, rng.CH_EXT_FORCE)
    u = rng.uniform(key, 1)[:, 0]
    fresh = rng.normal(key, 3) * (fcfg.scale * object_mass(cfg, params) * cfg.gravity)[:, None]
    start = u < fcfg.prob
    params.ext_force[:] = np.where(start[:, None], fresh, params.ext_force * fcfg.decay)
