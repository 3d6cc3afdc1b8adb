"""Byte equality of the per-axis physics step with a reference copy of the
stacked-array step it replaced.

The reference below is that earlier ``physics.step`` and
``fingertip_kinematics`` (with the quaternion helpers they called), kept
verbatim apart from recording which contact branches ran.  The per-axis
step must reproduce every output bit: same operations, same summation
order, same signed zeros.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from test_spatial import rotate

from tricube import domrand, physics, rng, spatial
from tricube.physics import (
    N_FINGERS,
    N_JOINTS,
    EnvParams,
    HandModel,
    PhysicsConfig,
    SimState,
    make_rest_state,
    object_half_extents,
    object_inertia_body,
    object_mass,
)

# ------------------------------------------------------------------ reference


@dataclass
class RefKin:
    pos: np.ndarray  # (N, 3, 3)
    quat: np.ndarray  # (N, 3, 4)
    linvel: np.ndarray
    angvel: np.ndarray
    joint_axes: np.ndarray  # (N, 3, 3, 3)
    joint_origins: np.ndarray


def _mount_angles() -> np.ndarray:
    return np.arange(N_FINGERS) * (2.0 * np.pi / N_FINGERS)


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Scale to unit norm. Near-zero quaternions fall back to identity."""
    q = np.asarray(q, dtype=np.float64)
    n = np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    out = np.where(n > 1e-12, q / np.where(n > 1e-12, n, 1.0), spatial.QUAT_IDENTITY)
    return out


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2 (apply q2's rotation first)."""
    x1, y1, z1, w1 = (q1[..., i] for i in range(4))
    x2, y2, z2, w2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=-1,
    )


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (..., 3, 3) from quaternion."""
    x, y, z, w = (q[..., i] for i in range(4))
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    row0 = np.stack([1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy)], axis=-1)
    row1 = np.stack([2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx)], axis=-1)
    row2 = np.stack([2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_from_rotvec(rv: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to quaternion.

    Uses the series for sin(t/2)/t near zero so the map is smooth there.
    """
    rv = np.asarray(rv, dtype=np.float64)
    angle = np.linalg.norm(rv, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-8
    k = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([rv * k, np.cos(half)], axis=-1)


def quat_integrate(q: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Advance orientation by world-frame angular velocity over dt."""
    dq = quat_from_rotvec(omega * dt)
    return quat_normalize(quat_mul(dq, q))


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
) -> "RefKin":
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
    quat = quat_mul(qz, quat_mul(qx, qy))

    return RefKin(tip_world, quat, linvel, angvel, axes, origins)


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
    seen: set,
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
        rot = quat_to_mat(quat)  # (N, 3, 3)

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
            seen.add("tip-object")
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
            seen.add("tip-table")
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
            seen.add("object-table")
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
        quat = quat_integrate(quat, w, dt_sub)

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


# ------------------------------------------------------------------ tests

# the env axis is the step's innermost loop: batch sizes of one env, the
# original 24, and an odd size that has both vector bodies and tails
SIZES = (1, 24, 1031)
BRANCHES = {"tip-object", "tip-table", "object-table"}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_layout(a) -> bool:
    """C order, as the stacked step returned: the task's multi-axis sums
    add in memory order, so another layout changes their bits."""
    return a.flags.c_contiguous


def configs() -> dict:
    unscaled = PhysicsConfig()
    unscaled.contact.mass_scaled = False
    sphere = PhysicsConfig(object=physics.ObjectParams(kind="sphere", radius=0.0375))
    return {
        "box": (PhysicsConfig(), False),
        "box-dr": (PhysicsConfig(), True),
        "box-unscaled": (unscaled, True),
        "sphere": (sphere, True),
    }


def start(cfg: PhysicsConfig, randomized: bool, n: int) -> tuple[SimState, EnvParams]:
    ids = np.arange(n)
    if randomized:
        params = domrand.sample_episode_randomization(
            11, ids, np.zeros(n, dtype=np.int64), domrand.DRConfig()
        )
    else:
        params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    # every 4th env from env k % n: below 4 envs the cases share env 0
    state.joint_pos[0::4, 0:3] = [0.0, 0.645, -1.271]  # finger 0 into the object's +x side
    state.joint_pos[1 % n::4, 3:6] = [0.0, 0.3, -0.3]  # finger 1 into the table
    state.obj_pos[2 % n::4, 2] += 0.03  # dropped
    state.obj_quat[3 % n::4] = spatial.quat_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.4)
    return state, params


@pytest.mark.parametrize("name, n", [  # N=24 keeps the bare config name
    pytest.param(name, n, id=name if n == 24 else f"{name}-{n}")
    for name in sorted(configs()) for n in SIZES
])
def test_step_matches_reference_bytes(name, n):
    cfg, randomized = configs()[name]
    state, params = start(cfg, randomized, n)
    bad_env = 3 % n
    ref = state.copy()
    seen = set()
    for t in range(32):
        torques = rng.uniform(rng.stream_key(5, np.arange(n), t, 77), 9, low=-0.36, high=0.36)
        torques[::5] = 0.0  # rows at rest keep their signed zeros
        if t == 6:
            torques[bad_env, 4] = np.nan
        physics.apply_external_force(state, params, cfg, physics.ExternalForceConfig(), seed=3)
        state = physics.step(state, torques, params, cfg)
        ref = step(ref, torques, params, cfg, seen)
        for field in vars(ref):
            assert same_bytes(getattr(state, field), getattr(ref, field)), (t, field)
            assert same_layout(getattr(state, field)), (t, field)
        if t == 6:
            assert state.fault[bad_env] and state.fault.sum() == 1
        kin = physics.fingertip_kinematics(state.joint_pos, state.joint_vel, cfg.hand)
        want = fingertip_kinematics(ref.joint_pos, ref.joint_vel, cfg.hand)
        for field in ("pos", "linvel", "angvel"):
            assert same_bytes(getattr(kin, field), getattr(want, field)), (t, field)
            assert same_layout(getattr(kin, field)), (t, field)
        assert same_bytes(physics.fingertip_quat(state.joint_pos), want.quat), t
    assert seen == BRANCHES


def test_kinematics_match_reference_bytes(n=64):
    hand = HandModel()
    q = rng.uniform(rng.stream_key(4, np.arange(n), 0, 78), 9, low=-2.7, high=1.57)
    qd = rng.normal(rng.stream_key(4, np.arange(n), 1, 78), 9)
    q[::4, 3:6] = [0.0, 0.0, -0.0]
    qd[::3] = 0.0
    qd[1::3, :4] = -0.0
    for vel in (qd, None):
        kin = physics.fingertip_kinematics(q, vel, hand)
        want = fingertip_kinematics(q, vel, hand)
        for field in ("pos", "linvel", "angvel"):
            assert same_bytes(getattr(kin, field), getattr(want, field)), field
            assert same_layout(getattr(kin, field)), field
    assert same_bytes(physics.fingertip_quat(q), want.quat)


@pytest.mark.parametrize("n", (1, 1031))
def test_kinematics_match_reference_bytes_at_size(n):
    test_kinematics_match_reference_bytes(n)


@pytest.mark.parametrize("n", SIZES)
def test_gathered_velocity_terms_match_dense_bytes(n):
    """The velocity terms ``FingertipKin.at`` computes at some (finger, env)
    pairs have the bits of the dense terms at those pairs."""
    hand = HandModel()
    q = rng.uniform(rng.stream_key(4, np.arange(n), 0, 79), 9, low=-2.7, high=1.57)
    qd = rng.normal(rng.stream_key(4, np.arange(n), 1, 79), 9)
    q[::4, 3:6] = [0.0, 0.0, -0.0]
    qd[::3] = 0.0
    qd[1::3, :4] = -0.0
    every = np.arange(N_FINGERS * n)
    picks = (every, every[1::2], every[n - 1:], np.flatnonzero(q[:, 1::3].T.ravel() > 0.0))
    for vel in (qd, None):
        # transposed views of joint-major arrays, as physics.step passes them
        kin = physics.fingertip_kinematics(q.T.copy().T, None if vel is None else vel.T.copy().T,
                                           hand)
        for pair in picks:
            at = kin.at(pair)
            for name in ("tip", "tip_vel", "tip_angvel", "elbow", "flex_axis"):
                for got, want in zip(getattr(at, name), physics._take(getattr(kin, name), pair)):
                    assert same_bytes(got, want), (vel is None, name)
            finger = pair // n
            for name in ("mount", "roll_axis"):
                for got, want in zip(getattr(at, name), physics._take(getattr(kin, name), finger)):
                    assert same_bytes(got, want), (vel is None, name)


def test_point_in_box_normal_matches_reference_bytes(k=4000):
    """Points inside, outside and on the box, with tied face distances and
    signed zeros; the step's form takes (K,) arrays per axis."""
    r = np.random.default_rng(12)
    h = r.uniform(0.01, 0.05, (k, 3))
    h[::3] = 0.0325  # a cube: ties between faces
    d = h * r.uniform(-1.5, 1.5, (k, 3))
    d[::5] *= 0.5  # inside
    d[1::7] = h[1::7] * r.choice([-1.0, 1.0], (len(d[1::7]), 3))  # on a corner
    d[2::11] = 0.0  # the center: every face ties, sign 0
    d[3::11] = -0.0
    d[4::13, 0] = h[4::13, 0]  # on a face
    want = _point_in_box_normal(d, h)
    got = physics._point_in_box_normal(tuple(d.T.copy()), tuple(h.T.copy()))
    assert (want[2] < 0).any() and (want[2] > 0).any()
    for i, name in enumerate(("surface", "normal")):
        for axis in range(3):
            assert same_bytes(got[i][axis], want[i][:, axis]), (name, axis)
    assert same_bytes(got[2], want[2])


# ------------------------------------------------------------------ contact extremes

PRESSED = [0.0, 0.645, -1.271]  # a finger's tip into the object's side facing it


def touching(tip: np.ndarray, offset: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Object centers (N, 3) that put each tip ``gap`` beyond the object
    point at ``offset`` from the center, along that offset: the separation
    is ``gap`` where ``offset`` is a corner or a sphere's surface point."""
    dist = np.linalg.norm(offset, axis=1)
    return tip - offset * ((dist + gap) / dist)[:, None]


def extreme(case: str, n: int) -> tuple:
    """(cfg, state, params, zero_torques, external forces) of a contact
    extreme; the tips' gaps alternate over envs around zero."""
    tip_r = HandModel().fingertip_radius
    gap = tip_r + np.where(np.arange(n) % 2 == 0, -1e-7, 1e-7)  # tips 1e-7 in or out
    ids = np.arange(n)
    params = domrand.sample_episode_randomization(11, ids, np.zeros(n, dtype=np.int64),
                                                  domrand.DRConfig())
    if case == "none":  # no gravity or pushes: the hand at home never meets the floating cube
        cfg = PhysicsConfig(gravity=0.0)
        state = make_rest_state(n, cfg, params)
        state.obj_pos[:, 2] = 1.0
        return cfg, state, params, True, False
    if case == "sphere-grazing":
        cfg = PhysicsConfig(object=physics.ObjectParams(kind="sphere", radius=0.0375))
        state = make_rest_state(n, cfg, params)
        tip = physics.fingertip_kinematics(state.joint_pos, None, cfg.hand).pos[:, 0]
        offset = np.array([1.0, -0.5, 0.3]) * (cfg.object.radius * params.scale)[:, None]
        offset /= np.linalg.norm([1.0, -0.5, 0.3])
        state.obj_pos = touching(tip, offset, gap)
        return cfg, state, params, False, True
    cfg = PhysicsConfig()
    state = make_rest_state(n, cfg, params)
    if case == "all-pressed":
        state.joint_pos[:] = np.tile(PRESSED, N_FINGERS)
        return cfg, state, params, False, True
    if case == "tip-inside":  # the tip's center inside the box, off its center
        tip = physics.fingertip_kinematics(state.joint_pos, None, cfg.hand).pos[:, 0]
        state.obj_pos = tip - [0.01, 0.005, 0.0]
        return cfg, state, params, False, True
    assert case == "scaled-corner"  # the bound's tight case: |tip - x| = |h| + r
    params.scale[:] = 1.25
    tip = physics.fingertip_kinematics(state.joint_pos, None, cfg.hand).pos[:, 0]
    quat = spatial.quat_from_axis_angle(np.array([1.0, 1.0, 0.0]), 0.4 + 0.01 * ids)
    state.obj_quat = quat
    state.obj_pos = touching(tip, rotate(quat, object_half_extents(cfg, params)), gap)
    return cfg, state, params, False, True


EXTREMES = {
    "all-pressed": {"tip-object", "object-table"},
    "scaled-corner": {"tip-object"},
    "sphere-grazing": {"tip-object"},
    "tip-inside": {"tip-object"},
    "none": set(),
}


@pytest.mark.parametrize("case, n", [
    pytest.param(case, n, id=f"{case}-{n}") for case in EXTREMES for n in SIZES
])
def test_step_matches_reference_bytes_at_contact_extremes(case, n):
    cfg, state, params, still, pushed = extreme(case, n)
    if case == "all-pressed":  # every (finger, env) pair passes the broad phase
        tips = physics.fingertip_kinematics(state.joint_pos, None, cfg.hand).pos
        dist = np.linalg.norm(tips - state.obj_pos[:, None], axis=-1)
        bound = np.linalg.norm(object_half_extents(cfg, params), axis=1)
        assert (dist < cfg.hand.fingertip_radius + bound[:, None]).all()
    ref = state.copy()
    seen = set()
    for t in range(8):
        torques = np.zeros((n, N_JOINTS)) if still else rng.uniform(
            rng.stream_key(5, np.arange(n), t, 77), 9, low=-0.36, high=0.36)
        if pushed:
            physics.apply_external_force(state, params, cfg, physics.ExternalForceConfig(), seed=3)
        state = physics.step(state, torques, params, cfg)
        ref = step(ref, torques, params, cfg, seen)
        for field in vars(ref):
            assert same_bytes(getattr(state, field), getattr(ref, field)), (t, field)
            assert same_layout(getattr(state, field)), (t, field)
    assert EXTREMES[case] <= seen
    if case == "none":
        assert seen == set() and not state.fingertip_wrench.any()
