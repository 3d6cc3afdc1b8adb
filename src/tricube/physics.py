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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng, spatial

N_FINGERS = 3
N_JOINTS = 9  # 3 per finger


@dataclass
class HandModel:
    """Geometry and joint parameters of the 3-finger hand.

    The three fingers are mounted 120 degrees apart on a circle of radius
    ``mount_radius`` at ``mount_height`` above the table, each pointing at
    the arena center.  Per finger the chain is: a roll joint about the
    inward horizontal axis, then two flexion joints about the shared
    lateral axis, with links ``link1_len`` and ``link2_len`` that hang
    straight down at zero joint angle.  These follow the open three-finger
    platform dimensions and live in config, not code.
    """

    link1_len: float = 0.16
    link2_len: float = 0.16
    fingertip_radius: float = 0.0175
    mount_radius: float = 0.04
    mount_height: float = 0.29
    joint_lower: float = -2.70
    joint_upper: float = 1.57
    max_joint_vel: float = 10.0
    max_torque: float = 0.36
    joint_damping: float = 0.02
    # diagonal joint-space inertia approximation per joint of one finger
    joint_inertia: tuple = (0.012, 0.012, 0.002)
    home_config: tuple = (0.0, 1.1, -2.0)

    def home_joint_positions(self) -> np.ndarray:
        return np.tile(np.asarray(self.home_config, dtype=np.float64), N_FINGERS)


@dataclass
class ObjectParams:
    """The manipulated object: an axis-aligned box (default: the 6.5 cm
    cube) or a sphere, with uniform-density inertia."""

    kind: str = "box"  # "box" | "sphere"
    half_extents: tuple = (0.0325, 0.0325, 0.0325)
    radius: float = 0.0325
    mass: float = 0.094
    friction: float = 0.9

    def __post_init__(self):
        if self.kind not in ("box", "sphere"):
            raise ValueError(f"unsupported object kind: {self.kind!r}")

    def box_half_extents(self) -> np.ndarray:
        """Half extents (3,) of the object's box: a sphere's is (r, r, r)."""
        if self.kind == "sphere":
            return np.full(3, self.radius)
        return np.asarray(self.half_extents, dtype=np.float64)


@dataclass
class ContactParams:
    """Penalty contact constants.

    Stiffness and damping for object contacts scale with the effective
    object mass so the stiff-spring stability limit and the resting
    penetration (< 1 mm for the nominal 94 g cube) are both independent of
    the mass and scale randomization range.
    """

    stiffness: float = 1200.0  # N/m per contact at nominal object mass
    damping: float = 6.0  # N s/m per contact at nominal object mass
    friction_smoothing_vel: float = 0.002  # m/s, tanh regularization knee
    table_friction: float = 0.5
    mass_scaled: bool = True


@dataclass
class PhysicsConfig:
    hand: HandModel = field(default_factory=HandModel)
    object: ObjectParams = field(default_factory=ObjectParams)
    contact: ContactParams = field(default_factory=ContactParams)
    gravity: float = 9.81
    dt: float = 0.02
    n_substeps: int = 6
    max_obj_linvel: float = 5.0
    max_obj_angvel: float = 12.0
    # invented plumbing: velocity-proportional reduction of commanded torque
    safety_damping_coef: float = 0.1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_substeps < 1:
            raise ValueError(f"n_substeps must be positive, got {self.n_substeps}")


@dataclass
class ExternalForceConfig:
    """Random cube perturbations: each step a force episode starts with
    probability ``prob``; the force is Gaussian per component with std
    ``scale * m * g`` and decays geometrically afterwards."""

    prob: float = 0.1
    scale: float = 1.0
    decay: float = 0.8


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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum (N,) over the fingers or corners of a (k, N) array, one row after
    another from +0.0: numpy's order for the middle axis of an (N, k, 3)
    array.  ``a.sum(axis=0)`` keeps that order only for N > 1: at N = 1 it
    would add 8 corners as a tree."""
    total = 0.0
    for row in a:
        total = total + row
    return total


# ------------------------------------------------------------------ kinematics


@dataclass
class FingertipKin:
    """World-frame fingertip kinematics plus the joint frames needed for
    contact Jacobians.  Vectors are per axis: (3, N) arrays, finger by env,
    except the constant mount and roll axis, (3, 1) per axis.  The
    properties stack them into the (N, 3, 3) arrays the task reads."""

    tip: tuple  # tip sphere centers
    tip_vel: tuple
    tip_angvel: tuple
    elbow: tuple  # origin of joint 2; joints 0 and 1 sit at the mount
    flex_axis: tuple  # world axis of joints 1 and 2
    mount: tuple
    roll_axis: tuple  # world axis of joint 0

    # stacked (N, 3, 3) arrays, [env, finger, xyz]
    pos = property(lambda self: _stack_fingers(self.tip))
    linvel = property(lambda self: _stack_fingers(self.tip_vel))
    angvel = property(lambda self: _stack_fingers(self.tip_angvel))


def _stack_fingers(v: tuple) -> np.ndarray:
    # C order: the task's multi-axis sums add in memory order
    return np.ascontiguousarray(np.stack(v, axis=-1).swapaxes(0, 1))


def _mount_angles() -> np.ndarray:
    return np.arange(N_FINGERS) * (2.0 * np.pi / N_FINGERS)


def fingertip_kinematics(
    joint_pos: np.ndarray, joint_vel: np.ndarray | None, hand: HandModel
) -> FingertipKin:
    """Analytic chain kinematics for all fingers, vectorized over envs.

    Joint 0 rolls about the finger's inward horizontal axis; joints 1 and 2
    flex about the shared lateral axis, so their world axes coincide.
    ``joint_pos`` and ``joint_vel`` are (N, 9); ``step`` passes transposed
    views of its joint-major (9, N) arrays, which are used without a copy.
    """
    q = np.ascontiguousarray(joint_pos.T)
    qd = np.zeros_like(q) if joint_vel is None else np.ascontiguousarray(joint_vel.T)
    q0, q1, q2 = (q[j::3] for j in range(3))  # (3, N), finger by env
    qd = [qd[j::3] for j in range(3)]
    l1, l2 = hand.link1_len, hand.link2_len

    phis = _mount_angles()[:, None]
    mount = (hand.mount_radius * np.cos(phis), hand.mount_radius * np.sin(phis),
             np.full((N_FINGERS, 1), hand.mount_height))
    # finger frame yaw: local +x points from the mount toward the center
    psis = phis + np.pi
    cpsi, spsi = np.cos(psis), np.sin(psis)

    c0, s0 = np.cos(q0), np.sin(q0)
    s1, c1 = np.sin(q1), np.cos(q1)
    q12 = q1 + q2
    s12, c12 = np.sin(q12), np.cos(q12)

    # positions in the finger frame (x inward, y lateral, z up)
    elbow_local = (-l1 * s1, s0 * (l1 * c1), -c0 * (l1 * c1))
    tip_local = _add(elbow_local, (-l2 * s12, s0 * (l2 * c12), -c0 * (l2 * c12)))

    def to_world(v):  # rotate finger frame -> world by Rz(psi), add mount
        return (cpsi * v[0] - spsi * v[1] + mount[0], spsi * v[0] + cpsi * v[1] + mount[1],
                v[2] + mount[2])

    tip, elbow = to_world(tip_local), to_world(elbow_local)
    roll, flex = (cpsi, spsi, 0.0), (-spsi * c0, cpsi * c0, s0)

    # velocities: v = sum_k qd_k * a_k x (tip - o_k), w = sum_k qd_k * a_k
    from_mount = _sub(tip, mount)
    arms = (_cross(roll, from_mount), _cross(flex, from_mount), _cross(flex, _sub(tip, elbow)))
    linvel = tuple(0.0 + qd[0] * arms[0][i] + qd[1] * arms[1][i] + qd[2] * arms[2][i]
                   for i in range(3))
    angvel = tuple(0.0 + qd[0] * roll[i] + qd[1] * flex[i] + qd[2] * flex[i] for i in range(3))
    return FingertipKin(tip, linvel, angvel, elbow, flex, mount, roll)


def fingertip_quat(joint_pos: np.ndarray) -> np.ndarray:
    """Fingertip orientations (N, 3, 4), xyzw: Rz(psi) * Rx(q0) * Ry(q1 + q2)
    per finger, psi being the finger frame's yaw."""
    psis = _mount_angles() + np.pi
    q0 = joint_pos[:, 0::3]
    q12 = joint_pos[:, 1::3] + joint_pos[:, 2::3]
    qz = (0.0, 0.0, np.sin(psis / 2.0), np.cos(psis / 2.0))
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

    ``d`` point in box frame, ``h`` half extents.  Returns (surface_point,
    normal, separation) where separation is the signed distance from surface
    to the point (negative when inside).
    """
    clamped = tuple(np.clip(c, -e, e) for c, e in zip(d, h))
    diff = _sub(d, clamped)
    dist = _norm(diff)
    outside = dist > 1e-12
    safe = np.where(outside, dist, 1.0)

    # inside: push out along the axis with the least face distance, the
    # first of equal ones as argmin picks
    g0, g1, g2 = (e - np.abs(c) for c, e in zip(d, h))  # >= 0 when inside
    pick0 = (g0 <= g1) & (g0 <= g2)
    pick1 = ~pick0 & (g1 <= g2)
    gap_min = np.where(pick0, g0, np.where(pick1, g1, g2))
    sign = np.sign(np.where(pick0, d[0], np.where(pick1, d[1], d[2])))
    sign = np.where(sign == 0.0, 1.0, sign)
    n_in = tuple(np.where(p, sign, 0.0) for p in (pick0, pick1, ~(pick0 | pick1)))

    normal = tuple(np.where(outside, c / safe, i) for c, i in zip(diff, n_in))
    surface = tuple(np.where(outside, cl, c + i * gap_min) for cl, c, i in zip(clamped, d, n_in))
    separation = np.where(outside, dist, -gap_min)
    return surface, normal, separation


def _joint_torques(kin: FingertipKin, point: tuple, force: tuple) -> np.ndarray:
    """Torques (9, N) on the finger joints of fingertip forces applied at
    ``point``: a_k . ((point - o_k) x force) for each joint k."""
    at_mount = _cross(_sub(point, kin.mount), force)
    tau = (
        _dot(kin.roll_axis, at_mount),
        _dot(kin.flex_axis, at_mount),
        _dot(kin.flex_axis, _cross(_sub(point, kin.elbow), force)),
    )
    return np.stack(tau, axis=1).reshape(N_JOINTS, -1)


def _limit_speed(v: tuple, v_max: float) -> tuple:
    k = np.minimum(1.0, v_max / np.maximum(_norm(v), 1e-12))
    return tuple(c * k for c in v)


def step(state: SimState, torques: np.ndarray, params: EnvParams, cfg: PhysicsConfig) -> SimState:
    """Advance every env by one control step of ``cfg.dt`` seconds.

    ``torques`` (N, 9) must already be clamped to the actuator range (the
    task layer owns scaling, safety damping, and action noise).  Non-finite
    inputs set the per-env fault flag and that env is restored to the rest
    state; the rest of the batch is unaffected.
    """
    n = state.n_envs
    torques = np.asarray(torques, dtype=np.float64)

    bad = ~np.isfinite(torques).all(axis=1)
    for name in ("joint_pos", "joint_vel", "obj_pos", "obj_quat", "obj_linvel", "obj_angvel"):
        bad |= ~np.isfinite(getattr(state, name)).all(axis=1)
    out = state.copy()
    if bad.any():
        out.set_rows(bad, make_rest_state(n, cfg, params))
        torques = np.where(bad[:, None], 0.0, torques)
    out.fault[:] = bad

    hand = cfg.hand
    dt_sub = cfg.dt / cfg.n_substeps
    torques = np.clip(torques, -hand.max_torque, hand.max_torque)
    tip_r = hand.fingertip_radius

    # the env axis is last: per-env values are (N,), and they broadcast
    # against the (3, N) fingers, the (8, N) corners and the (9, N) joints.
    # Mass-proportional contact constants keep the stiff-spring stability
    # limit and the resting penetration independent of mass randomization
    scale_fac = params.mass_factor if cfg.contact.mass_scaled else np.ones(n)
    k_obj = cfg.contact.stiffness * scale_fac
    c_obj = cfg.contact.damping * scale_fac
    eps_v = cfg.contact.friction_smoothing_vel
    mu_obj = cfg.object.friction * params.object_friction_factor
    mu_table = cfg.contact.table_friction * params.table_friction_factor

    m = object_mass(cfg, params)
    inertia_b = _rows(object_inertia_body(cfg, params))
    half = _rows(object_half_extents(cfg, params))
    ext = _rows(params.ext_force)
    is_sphere = cfg.object.kind == "sphere"
    if is_sphere:  # (1, N): one contact point
        radius = (cfg.object.radius * params.scale)[None]
    else:  # (8, N) corner offsets in the body frame
        corners_b = tuple(spatial._CORNER_SIGNS[:, i, None] * half[i] for i in range(3))

    q, qd, tau_cmd = (np.ascontiguousarray(a.T) for a in (out.joint_pos, out.joint_vel, torques))
    x, quat, v, w = map(_rows, (out.obj_pos, out.obj_quat, out.obj_linvel, out.obj_angvel))
    inertia_j = np.tile(np.asarray(hand.joint_inertia), N_FINGERS)[:, None]  # (9, 1)

    wrench_acc = np.zeros((6, N_FINGERS, n))

    def add_wrench(force, torque):
        for i in range(3):
            wrench_acc[i] += force[i]
            wrench_acc[3 + i] += torque[i]

    for _ in range(cfg.n_substeps):
        kin = fingertip_kinematics(q.T, qd.T, hand)
        tips = kin.tip
        rot = spatial.quat_to_mat_parts(quat)

        obj_force = obj_torque = (0.0, 0.0, 0.0)
        joint_tau_contact = 0.0

        # ---- fingertip vs object
        d_local = _rot_t(rot, _sub(tips, x))  # R^T (c - x)
        if is_sphere:
            dist = _norm(d_local)
            near = dist > 1e-12
            safe = np.where(near, dist, 1.0)
            n_local = tuple(np.where(near, c / safe, e) for c, e in zip(d_local, (0.0, 0.0, 1.0)))
            separation = dist - radius
            surf_local = tuple(c * radius for c in n_local)
        else:
            surf_local, n_local, separation = _point_in_box_normal(d_local, half)
        pen = tip_r - separation  # (3, N)
        active = pen > 0.0
        if active.any():
            normal = _rot(rot, n_local)  # cube -> tip
            p_c = _add(_rot(rot, surf_local), x)
            arm, lever = _sub(p_c, tips), _sub(p_c, x)
            v_rel = _sub(_add(kin.tip_vel, _cross(kin.tip_angvel, arm)), _add(v, _cross(w, lever)))
            v_n = _dot(v_rel, normal)
            fn = np.where(active, np.maximum(0.0, k_obj * pen - c_obj * v_n), 0.0)
            vt = tuple(c - v_n * nc for c, nc in zip(v_rel, normal))
            f_tip = _add(tuple(fn * nc for nc in normal), _tanh_friction(vt, fn, mu_obj, eps_v))
            obj_force = _sub(obj_force, map(_row_sum, f_tip))
            obj_torque = _sub(obj_torque, map(_row_sum, _cross(lever, f_tip)))
            # map to finger joints through the contact-point Jacobian
            joint_tau_contact = joint_tau_contact + _joint_torques(kin, p_c, f_tip)
            add_wrench(f_tip, _cross(arm, f_tip))

        # ---- fingertip vs table
        pen_t = tip_r - tips[2]
        active_t = pen_t > 0.0
        if active_t.any():
            p_ct = (tips[0], tips[1], tips[2] - tip_r)
            arm = _sub(p_ct, tips)
            v_tip_t = _add(kin.tip_vel, _cross(kin.tip_angvel, arm))
            fn_t = cfg.contact.stiffness * pen_t - cfg.contact.damping * v_tip_t[2]
            fn_t = np.where(active_t, np.maximum(0.0, fn_t), 0.0)
            fric = _tanh_friction((v_tip_t[0], v_tip_t[1], 0.0), fn_t, mu_table, eps_v)
            f_tab = (0.0 + fric[0], 0.0 + fric[1], fn_t + fric[2])
            joint_tau_contact = joint_tau_contact + _joint_torques(kin, p_ct, f_tab)
            add_wrench(f_tab, _cross(arm, f_tab))

        # ---- object vs table
        if is_sphere:
            pen_o = radius - x[2]  # bottom point at z - r
            r_pts = (0.0, 0.0, -radius)
        else:
            r_pts = _rot(rot, corners_b)  # relative to com
            pen_o = -(x[2] + r_pts[2])
        active_o = pen_o > 0.0
        if active_o.any():
            v_pt = _add(v, _cross(w, r_pts))
            fn_o = np.where(active_o, np.maximum(0.0, k_obj * pen_o - c_obj * v_pt[2]), 0.0)
            fric = _tanh_friction((v_pt[0], v_pt[1], 0.0), fn_o, mu_table, eps_v)
            f_o = (0.0 + fric[0], 0.0 + fric[1], fn_o + fric[2])
            obj_force = _add(obj_force, map(_row_sum, f_o))
            obj_torque = _add(obj_torque, map(_row_sum, _cross(r_pts, f_o)))

        # ---- integrate joints (diagonal inertia, semi-implicit Euler)
        tau = tau_cmd - hand.joint_damping * qd + joint_tau_contact
        qd = qd + dt_sub * tau / inertia_j
        qd = np.clip(qd, -hand.max_joint_vel, hand.max_joint_vel)
        q = q + dt_sub * qd
        below = q < hand.joint_lower
        above = q > hand.joint_upper
        q = np.clip(q, hand.joint_lower, hand.joint_upper)
        qd = np.where(below & (qd < 0.0), 0.0, qd)
        qd = np.where(above & (qd > 0.0), 0.0, qd)

        # ---- integrate object
        f0, f1, f2 = _add(obj_force, ext)
        obj_force = (f0, f1, f2 - m * cfg.gravity)
        v = tuple(c + dt_sub * f / m for c, f in zip(v, obj_force))
        # angular dynamics in the body frame, where the inertia is diagonal:
        # I_b dw_b = tau_b - w_b x (I_b w_b)
        w_b = _rot_t(rot, w)
        tau_b = _rot_t(rot, obj_torque)
        gyro = _cross(w_b, tuple(i * c for i, c in zip(inertia_b, w_b)))
        dw_b = tuple((t - g) / i for t, g, i in zip(tau_b, gyro, inertia_b))
        w = tuple(c + dt_sub * d for c, d in zip(w, _rot(rot, dw_b)))
        v = _limit_speed(v, cfg.max_obj_linvel)
        w = _limit_speed(w, cfg.max_obj_angvel)
        x = tuple(c + dt_sub * d for c, d in zip(x, v))
        quat = spatial.quat_integrate_parts(quat, w, dt_sub)

    out.joint_pos, out.joint_vel = np.ascontiguousarray(q.T), np.ascontiguousarray(qd.T)
    out.joint_torque = torques
    out.obj_pos, out.obj_quat, out.obj_linvel, out.obj_angvel = (
        np.stack(c, axis=1) for c in (x, quat, v, w)
    )
    out.fingertip_wrench = np.ascontiguousarray(wrench_acc.T) / cfg.n_substeps
    out.step_count = state.step_count + 1
    return out


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
