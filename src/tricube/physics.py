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
by (seed, env_id, step).
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
    """Effective per-env half extents (N, 3); spheres report their radius on
    all three axes."""
    if cfg.object.kind == "sphere":
        h = np.full(3, cfg.object.radius)
    else:
        h = np.asarray(cfg.object.half_extents, dtype=np.float64)
    return h * params.scale[:, None]


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
    h = (
        cfg.object.radius * params.scale
        if cfg.object.kind == "sphere"
        else np.asarray(cfg.object.half_extents)[2] * params.scale
    )
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


# ------------------------------------------------------------------ kinematics


@dataclass
class FingertipKin:
    """World-frame fingertip kinematics plus the joint frames needed for
    contact Jacobians."""

    pos: np.ndarray  # (N, 3, 3) tip sphere centers
    quat: np.ndarray  # (N, 3, 4)
    linvel: np.ndarray  # (N, 3, 3)
    angvel: np.ndarray  # (N, 3, 3)
    joint_axes: np.ndarray  # (N, 3, 3, 3) [finger, joint, xyz]
    joint_origins: np.ndarray  # (N, 3, 3, 3)


def _mount_angles() -> np.ndarray:
    return np.arange(N_FINGERS) * (2.0 * np.pi / N_FINGERS)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # explicit components: np.cross is needlessly general and slow at 3-wide
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _matvec(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R @ v for r (N, 3, 3) against v (N, ..., 3), broadcasting over the
    middle axes."""
    rr = r.reshape(r.shape[:1] + (1,) * (v.ndim - 2) + (3, 3))
    out = np.empty(np.broadcast_shapes(rr.shape[:-1], v.shape))
    for i in range(3):
        out[..., i] = (
            rr[..., i, 0] * v[..., 0] + rr[..., i, 1] * v[..., 1] + rr[..., i, 2] * v[..., 2]
        )
    return out


def _matvec_t(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R^T @ v with the same broadcasting as _matvec."""
    rr = r.reshape(r.shape[:1] + (1,) * (v.ndim - 2) + (3, 3))
    out = np.empty(np.broadcast_shapes(rr.shape[:-1], v.shape))
    for i in range(3):
        out[..., i] = (
            rr[..., 0, i] * v[..., 0] + rr[..., 1, i] * v[..., 1] + rr[..., 2, i] * v[..., 2]
        )
    return out


def fingertip_kinematics(
    joint_pos: np.ndarray, joint_vel: np.ndarray | None, hand: HandModel
) -> FingertipKin:
    """Analytic chain kinematics for all fingers, vectorized over envs.

    Joint 0 rolls about the finger's inward horizontal axis; joints 1 and 2
    flex about the shared lateral axis, so their world axes coincide.
    """
    n = joint_pos.shape[0]
    if joint_vel is None:
        joint_vel = np.zeros_like(joint_pos)
    q = joint_pos.reshape(n, N_FINGERS, 3)
    qd = joint_vel.reshape(n, N_FINGERS, 3)
    l1, l2 = hand.link1_len, hand.link2_len

    phis = _mount_angles()
    mounts = np.stack(
        [hand.mount_radius * np.cos(phis), hand.mount_radius * np.sin(phis),
         np.full(N_FINGERS, hand.mount_height)],
        axis=-1,
    )  # (3, 3)
    # finger frame yaw: local +x points from the mount toward the center
    psis = phis + np.pi
    cpsi, spsi = np.cos(psis), np.sin(psis)

    c0, s0 = np.cos(q[..., 0]), np.sin(q[..., 0])  # (N, 3)
    s1, c1 = np.sin(q[..., 1]), np.cos(q[..., 1])
    q12 = q[..., 1] + q[..., 2]
    s12, c12 = np.sin(q12), np.cos(q12)

    # positions in the finger frame (x inward, y lateral, z up)
    elbow_local = np.stack([-l1 * s1, s0 * (l1 * c1), -c0 * (l1 * c1)], axis=-1)
    tip_rel = np.stack([-l2 * s12, s0 * (l2 * c12), -c0 * (l2 * c12)], axis=-1)
    tip_local = elbow_local + tip_rel

    def to_world(v_local):  # rotate finger frame -> world by Rz(psi), add mount
        x = cpsi * v_local[..., 0] - spsi * v_local[..., 1]
        y = spsi * v_local[..., 0] + cpsi * v_local[..., 1]
        return np.stack([x, y, v_local[..., 2]], axis=-1)

    tip_world = to_world(tip_local) + mounts
    elbow_world = to_world(elbow_local) + mounts

    # joint axes in world frame
    ax0 = np.broadcast_to(np.stack([cpsi, spsi, np.zeros(N_FINGERS)], axis=-1), (n, N_FINGERS, 3))
    ax12 = np.stack([-spsi * c0, cpsi * c0, s0], axis=-1)  # (N, 3, 3)
    axes = np.stack([ax0, ax12, ax12], axis=2)  # (N, 3 fingers, 3 joints, 3)
    origins = np.stack(
        [np.broadcast_to(mounts, (n, N_FINGERS, 3)),
         np.broadcast_to(mounts, (n, N_FINGERS, 3)),
         elbow_world],
        axis=2,
    )

    # velocities: v = sum_k qd_k * a_k x (tip - o_k), w = sum_k qd_k * a_k
    rel = tip_world[:, :, None, :] - origins  # (N, 3, 3, 3)
    linvel = np.sum(qd[..., None] * _cross(axes, rel), axis=2)
    angvel = np.sum(qd[..., None] * axes, axis=2)

    # tip orientation: Rz(psi) * Rx(q0) * Ry(q1 + q2)
    qz = np.zeros((n, N_FINGERS, 4))
    qz[..., 2] = np.sin(psis / 2.0)
    qz[..., 3] = np.cos(psis / 2.0)
    qx = np.zeros((n, N_FINGERS, 4))
    qx[..., 0] = np.sin(q[..., 0] / 2.0)
    qx[..., 3] = np.cos(q[..., 0] / 2.0)
    qy = np.zeros((n, N_FINGERS, 4))
    qy[..., 1] = np.sin(q12 / 2.0)
    qy[..., 3] = np.cos(q12 / 2.0)
    quat = spatial.quat_mul(qz, spatial.quat_mul(qx, qy))

    return FingertipKin(tip_world, quat, linvel, angvel, axes, origins)


# ------------------------------------------------------------------ contacts


def _tanh_friction(vt: np.ndarray, fn: np.ndarray, mu, eps: float) -> np.ndarray:
    """Regularized Coulomb friction force opposing tangential velocity.

    vt (..., 3), fn (...,) normal force magnitude; returns (..., 3).
    """
    speed = np.linalg.norm(vt, axis=-1)
    scale = np.where(speed > 1e-12, np.tanh(speed / eps) / np.where(speed > 1e-12, speed, 1.0), 0.0)
    return -(mu * fn * scale)[..., None] * vt


def _point_in_box_normal(d_local: np.ndarray, h: np.ndarray):
    """Closest surface point and outward normal for points near an AABB.

    d_local (..., 3) point in box frame, h (..., 3) half extents.  Returns
    (surface_point, normal, separation) where separation is the signed
    distance from surface to the point (negative when inside).
    """
    clamped = np.clip(d_local, -h, h)
    diff = d_local - clamped
    dist = np.linalg.norm(diff, axis=-1)
    outside = dist > 1e-12
    n_out = diff / np.where(outside, dist, 1.0)[..., None]

    # inside: push out along the axis with the least face distance
    face_gap = h - np.abs(d_local)  # (..., 3) >= 0 when inside
    k_min = np.argmin(face_gap, axis=-1)
    sign = np.sign(np.take_along_axis(d_local, k_min[..., None], axis=-1))
    sign = np.where(sign == 0.0, 1.0, sign)
    n_in = np.zeros_like(d_local)
    np.put_along_axis(n_in, k_min[..., None], sign, axis=-1)
    gap_min = np.take_along_axis(face_gap, k_min[..., None], axis=-1)[..., 0]

    normal = np.where(outside[..., None], n_out, n_in)
    surface = np.where(
        outside[..., None],
        clamped,
        d_local + n_in * gap_min[..., None],
    )
    separation = np.where(outside, dist, -gap_min)
    return surface, normal, separation


def step(
    state: SimState,
    torques: np.ndarray,
    params: EnvParams,
    cfg: PhysicsConfig,
) -> SimState:
    """Advance every env by one control step of ``cfg.dt`` seconds.

    ``torques`` (N, 9) must already be clamped to the actuator range (the
    task layer owns scaling, safety damping, and action noise).  Non-finite
    inputs set the per-env fault flag and that env is restored to the rest
    state; the rest of the batch is unaffected.
    """
    n = state.n_envs
    torques = np.asarray(torques, dtype=np.float64)

    bad = ~np.isfinite(torques).all(axis=1)
    bad |= ~np.isfinite(state.joint_pos).all(axis=1)
    bad |= ~np.isfinite(state.joint_vel).all(axis=1)
    bad |= ~np.isfinite(state.obj_pos).all(axis=1)
    bad |= ~np.isfinite(state.obj_quat).all(axis=1)
    bad |= ~np.isfinite(state.obj_linvel).all(axis=1)
    bad |= ~np.isfinite(state.obj_angvel).all(axis=1)
    out = state.copy()
    if bad.any():
        rest = make_rest_state(n, cfg, params)
        out.set_rows(bad, rest)
        out.fault[:] = False
        out.fault[bad] = True
        torques = np.where(bad[:, None], 0.0, torques)
    else:
        out.fault[:] = False

    hand = cfg.hand
    dt_sub = cfg.dt / cfg.n_substeps
    tau_max = hand.max_torque
    torques = np.clip(torques, -tau_max, tau_max)

    # mass-proportional contact constants keep the stiff-spring stability
    # limit and the resting penetration independent of mass randomization
    scale_fac = params.mass_factor if cfg.contact.mass_scaled else np.ones(n)
    k_obj = cfg.contact.stiffness * scale_fac
    c_obj = cfg.contact.damping * scale_fac
    k_hand = cfg.contact.stiffness
    c_hand = cfg.contact.damping
    eps_v = cfg.contact.friction_smoothing_vel
    mu_obj = cfg.object.friction * params.object_friction_factor
    mu_table = cfg.contact.table_friction * params.table_friction_factor

    m = object_mass(cfg, params)
    inertia_b = object_inertia_body(cfg, params)
    half = object_half_extents(cfg, params)
    is_sphere = cfg.object.kind == "sphere"
    radius_eff = cfg.object.radius * params.scale if is_sphere else None
    corner_signs = spatial._CORNER_SIGNS  # (8, 3)

    q = out.joint_pos
    qd = out.joint_vel
    x = out.obj_pos
    quat = out.obj_quat
    v = out.obj_linvel
    w = out.obj_angvel
    inertia_j = np.tile(np.asarray(hand.joint_inertia), N_FINGERS)  # (9,)

    wrench_acc = np.zeros((n, N_FINGERS, 6))

    for _ in range(cfg.n_substeps):
        kin = fingertip_kinematics(q, qd, hand)
        rot = spatial.quat_to_mat(quat)  # (N, 3, 3)

        obj_force = np.zeros((n, 3))
        obj_torque = np.zeros((n, 3))
        joint_tau_contact = np.zeros((n, N_JOINTS))

        # ---- fingertip vs object
        tips = kin.pos  # (N, 3, 3)
        rel_tip = tips - x[:, None, :]
        d_local = _matvec_t(rot, rel_tip)  # R^T (c - x)
        if is_sphere:
            dist = np.linalg.norm(d_local, axis=-1)
            safe = np.where(dist > 1e-12, dist, 1.0)
            n_local = np.where(
                (dist > 1e-12)[..., None], d_local / safe[..., None], [0.0, 0.0, 1.0]
            )
            separation = dist - radius_eff[:, None]
            surf_local = n_local * radius_eff[:, None, None]
        else:
            surf_local, n_local, separation = _point_in_box_normal(
                d_local, half[:, None, :]
            )
        pen = hand.fingertip_radius - separation  # (N, 3)
        active = pen > 0.0
        if active.any():
            normal = _matvec(rot, n_local)  # cube -> tip
            p_c = _matvec(rot, surf_local) + x[:, None, :]
            v_tip_c = kin.linvel + _cross(kin.angvel, p_c - tips)
            v_obj_c = v[:, None, :] + _cross(w[:, None, :], p_c - x[:, None, :])
            v_rel = v_tip_c - v_obj_c
            v_n = np.sum(v_rel * normal, axis=-1)
            fn = np.maximum(0.0, k_obj[:, None] * pen - c_obj[:, None] * v_n)
            fn = np.where(active, fn, 0.0)
            vt = v_rel - v_n[..., None] * normal
            f_tip = fn[..., None] * normal + _tanh_friction(vt, fn, mu_obj[:, None], eps_v)
            obj_force -= f_tip.sum(axis=1)
            obj_torque -= _cross(p_c - x[:, None, :], f_tip).sum(axis=1)
            # map to finger joints through the contact-point Jacobian
            rel_c = p_c[:, :, None, :] - kin.joint_origins  # (N, F, J, 3)
            tau_fj = np.sum(kin.joint_axes * _cross(rel_c, f_tip[:, :, None, :]), axis=-1)
            joint_tau_contact += tau_fj.reshape(n, N_JOINTS)
            wrench_acc[..., 0:3] += f_tip
            wrench_acc[..., 3:6] += _cross(p_c - tips, f_tip)

        # ---- fingertip vs table
        pen_t = hand.fingertip_radius - tips[..., 2]
        active_t = pen_t > 0.0
        if active_t.any():
            p_ct = tips.copy()
            p_ct[..., 2] -= hand.fingertip_radius
            v_tip_t = kin.linvel + _cross(kin.angvel, p_ct - tips)
            fn_t = np.maximum(0.0, k_hand * pen_t - c_hand * v_tip_t[..., 2])
            fn_t = np.where(active_t, fn_t, 0.0)
            vt_t = v_tip_t.copy()
            vt_t[..., 2] = 0.0
            f_tab = np.zeros_like(tips)
            f_tab[..., 2] = fn_t
            f_tab += _tanh_friction(vt_t, fn_t, mu_table[:, None], eps_v)
            rel_ct = p_ct[:, :, None, :] - kin.joint_origins
            tau_t = np.sum(kin.joint_axes * _cross(rel_ct, f_tab[:, :, None, :]), axis=-1)
            joint_tau_contact += tau_t.reshape(n, N_JOINTS)
            wrench_acc[..., 0:3] += f_tab
            wrench_acc[..., 3:6] += _cross(p_ct - tips, f_tab)

        # ---- object vs table
        if is_sphere:
            pen_o = radius_eff - (x[..., 2])  # bottom point at z - r
            pen_o = pen_o[:, None]
            r_pts = np.zeros((n, 1, 3))
            r_pts[:, 0, 2] = -radius_eff
        else:
            corners = _matvec(rot, corner_signs * half[:, None, :])
            r_pts = corners  # relative to com
            pen_o = -(x[:, None, 2] + corners[..., 2])
        active_o = pen_o > 0.0
        if active_o.any():
            v_pt = v[:, None, :] + _cross(w[:, None, :], r_pts)
            fn_o = np.maximum(0.0, k_obj[:, None] * pen_o - c_obj[:, None] * v_pt[..., 2])
            fn_o = np.where(active_o, fn_o, 0.0)
            vt_o = v_pt.copy()
            vt_o[..., 2] = 0.0
            f_o = np.zeros_like(r_pts)
            f_o[..., 2] = fn_o
            f_o += _tanh_friction(vt_o, fn_o, mu_table[:, None], eps_v)
            obj_force += f_o.sum(axis=1)
            obj_torque += _cross(r_pts, f_o).sum(axis=1)

        # ---- integrate joints (diagonal inertia, semi-implicit Euler)
        tau = torques - hand.joint_damping * qd + joint_tau_contact
        qd = qd + dt_sub * tau / inertia_j
        qd = np.clip(qd, -hand.max_joint_vel, hand.max_joint_vel)
        q = q + dt_sub * qd
        below = q < hand.joint_lower
        above = q > hand.joint_upper
        q = np.clip(q, hand.joint_lower, hand.joint_upper)
        qd = np.where(below & (qd < 0.0), 0.0, qd)
        qd = np.where(above & (qd > 0.0), 0.0, qd)

        # ---- integrate object
        obj_force += params.ext_force
        obj_force[:, 2] -= m * cfg.gravity
        v = v + dt_sub * obj_force / m[:, None]
        # angular dynamics in the body frame, where the inertia is diagonal:
        # I_b dw_b = tau_b - w_b x (I_b w_b)
        w_b = _matvec_t(rot, w)
        tau_b = _matvec_t(rot, obj_torque)
        dw_b = (tau_b - _cross(w_b, inertia_b * w_b)) / inertia_b
        w = w + dt_sub * _matvec(rot, dw_b)
        speed = np.linalg.norm(v, axis=-1, keepdims=True)
        v = v * np.minimum(1.0, cfg.max_obj_linvel / np.maximum(speed, 1e-12))
        wspeed = np.linalg.norm(w, axis=-1, keepdims=True)
        w = w * np.minimum(1.0, cfg.max_obj_angvel / np.maximum(wspeed, 1e-12))
        x = x + dt_sub * v
        quat = spatial.quat_integrate(quat, w, dt_sub)

    out.joint_pos = q
    out.joint_vel = qd
    out.joint_torque = torques
    out.obj_pos = x
    out.obj_quat = quat
    out.obj_linvel = v
    out.obj_angvel = w
    out.fingertip_wrench = wrench_acc / cfg.n_substeps
    out.step_count = state.step_count + 1
    return out


def apply_external_force(
    state: SimState, params: EnvParams, cfg: PhysicsConfig, fcfg: ExternalForceConfig, seed: int
) -> None:
    """Update the per-env external force state for the coming step.

    Draws are keyed by (seed, env_id, step_count), so the schedule is
    deterministic and independent of batch partitioning.
    """
    n = state.n_envs
    if fcfg.prob <= 0.0:
        return
    key = rng.stream_key(seed, np.arange(n), state.step_count, rng.CH_EXT_FORCE)
    u = rng.uniform(key, 1)[:, 0]
    fresh = rng.normal(key, 3) * (fcfg.scale * object_mass(cfg, params) * cfg.gravity)[:, None]
    start = u < fcfg.prob
    params.ext_force[:] = np.where(start[:, None], fresh, params.ext_force * fcfg.decay)
