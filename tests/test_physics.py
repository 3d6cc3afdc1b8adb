import math

import numpy as np
import pytest

from tricube import physics, rng, spatial
from tricube.physics import (
    EnvParams,
    ExternalForceConfig,
    HandModel,
    ObjectParams,
    PhysicsConfig,
    make_rest_state,
)


def default_cfg(**kw):
    return PhysicsConfig(**kw)


# ----------------------------------------------------------------- kinematics


def chain_oracle(joint_pos, hand):
    """Independent FK oracle: explicit 4x4 homogeneous matrix products.
    Returns the (3, 4, 4) fingertip frames, one per finger."""

    def trans(v):
        t = np.eye(4)
        t[:3, 3] = v
        return t

    def rot(axis, theta):
        t = np.eye(4)
        c, s = math.cos(theta), math.sin(theta)
        if axis == "x":
            t[:3, :3] = [[1, 0, 0], [0, c, -s], [0, s, c]]
        elif axis == "y":
            t[:3, :3] = [[c, 0, s], [0, 1, 0], [-s, 0, c]]
        else:
            t[:3, :3] = [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        return t

    tips = []
    for f in range(3):
        phi = 2.0 * math.pi * f / 3.0
        q0, q1, q2 = joint_pos[3 * f : 3 * f + 3]
        t = (
            trans([hand.mount_radius * math.cos(phi), hand.mount_radius * math.sin(phi), hand.mount_height])
            @ rot("z", phi + math.pi)
            @ rot("x", q0)
            @ rot("y", q1)
            @ trans([0, 0, -hand.link1_len])
            @ rot("y", q2)
            @ trans([0, 0, -hand.link2_len])
        )
        tips.append(t)
    return np.array(tips)


def test_fk_zero_config_home_positions():
    hand = HandModel()
    kin = physics.fingertip_kinematics(np.zeros((1, 9)), None, hand)
    # at zero joints the fingers hang straight down from their mounts
    want_z = hand.mount_height - hand.link1_len - hand.link2_len
    for f in range(3):
        phi = 2.0 * math.pi * f / 3.0
        assert np.allclose(
            kin.pos[0, f],
            [hand.mount_radius * math.cos(phi), hand.mount_radius * math.sin(phi), want_z],
            atol=1e-12,
        )


def test_fk_symmetric_config_is_120_deg_rotation():
    hand = HandModel()
    q = np.tile([0.3, 0.7, -1.2], (1, 3))
    kin = physics.fingertip_kinematics(q, None, hand)
    rot120 = spatial.quat_from_axis_angle([0, 0, 1], 2.0 * math.pi / 3.0)
    assert np.allclose(spatial.quat_rotate(rot120, kin.pos[0, 0]), kin.pos[0, 1], atol=1e-12)
    assert np.allclose(spatial.quat_rotate(rot120, kin.pos[0, 1]), kin.pos[0, 2], atol=1e-12)


def test_fk_matches_matrix_oracle():
    hand = HandModel()
    u = rng.uniform(rng.stream_key(0, np.arange(50), 0, 55), 9, low=-2.0, high=1.5)
    kin = physics.fingertip_kinematics(u, None, hand)
    for i in range(50):
        want = chain_oracle(u[i], hand)[:, :3, 3]
        assert np.max(np.abs(kin.pos[i] - want)) < 1e-9


def test_fingertip_quat_matches_matrix_oracle():
    # the rotation part of the oracle's frame, Rz(psi) Rx(q0) Ry(q1) Ry(q2)
    hand = HandModel()
    u = rng.uniform(rng.stream_key(0, np.arange(50), 0, 56), 9, low=-2.0, high=1.5)
    quat = physics.fingertip_quat(u)
    assert quat.shape == (50, 3, 4)
    assert np.max(np.abs(np.linalg.norm(quat, axis=-1) - 1.0)) < 1e-12
    for i in range(50):
        want = chain_oracle(u[i], hand)[:, :3, :3]
        assert np.max(np.abs(spatial.quat_to_mat(quat[i]) - want)) < 1e-12


def test_fk_velocity_matches_finite_difference():
    hand = HandModel()
    q = np.array([[0.2, 0.8, -1.5, -0.1, 0.5, -1.0, 0.3, 1.0, -2.0]])
    qd = np.array([[0.5, -1.0, 2.0, 1.0, 0.3, -0.7, -0.2, 0.9, 1.1]])
    kin = physics.fingertip_kinematics(q, qd, hand)
    eps = 1e-7
    p_plus = physics.fingertip_kinematics(q + eps * qd, None, hand).pos
    p_minus = physics.fingertip_kinematics(q - eps * qd, None, hand).pos
    v_fd = (p_plus - p_minus) / (2 * eps)
    assert np.max(np.abs(kin.linvel - v_fd)) < 1e-5


# ----------------------------------------------------------------- stepping


def test_resting_cube_stays_put():
    cfg = default_cfg()
    n = 8
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    z0 = state.obj_pos[:, 2].copy()
    for _ in range(50):
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
    assert np.max(np.abs(state.obj_pos[:, 2] - z0)) < 1e-4
    assert np.max(np.linalg.norm(state.obj_pos[:, :2], axis=-1)) < 1e-4
    assert np.max(np.abs(state.obj_linvel)) < 1e-3
    assert spatial.rot_dist(state.obj_quat, np.tile(spatial.QUAT_IDENTITY, (n, 1))).max() < 1e-4


def test_rest_penetration_below_one_mm():
    cfg = default_cfg()
    params = EnvParams.nominal(4)
    h = np.asarray(cfg.object.half_extents)[2]
    rest = physics.rest_height(cfg, params)
    assert np.all(h - rest > 0.0)
    assert np.all(h - rest < 1e-3)


def test_ballistic_drop_matches_closed_form():
    cfg = default_cfg()
    n = 4
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    z0 = 0.5  # high enough that we can observe >= 0.1 s of free fall
    state.obj_pos[:, 2] = z0
    t = 0.0
    while t < 0.1 - 1e-9:
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
        t += cfg.dt
    drop_sim = z0 - state.obj_pos[:, 2]
    drop_true = 0.5 * cfg.gravity * t * t
    assert np.all(np.abs(drop_sim - drop_true) / drop_true < 0.05)


def test_single_joint_torque_response_closed_form():
    # raise the hand so fingertips never touch table or cube, free the joint
    hand = HandModel(mount_height=1.5)
    cfg = default_cfg(hand=hand)
    n = 2
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.joint_pos[:] = 0.0
    state.joint_pos[:, 0] = -2.0  # room to move before the upper limit
    state.joint_vel[:] = 0.0
    tau = np.zeros((n, 9))
    tau[:, 0] = 0.05
    i, d = hand.joint_inertia[0], hand.joint_damping
    t = 0.0
    for _ in range(40):  # 0.8 s
        state = physics.step(state, tau, params, cfg)
        t += cfg.dt
    w_true = (0.05 / d) * (1.0 - math.exp(-d * t / i))
    w_sim = state.joint_vel[:, 0]
    assert np.all(np.abs(w_sim - w_true) / w_true < 0.01)
    # untouched joints stay put
    assert np.max(np.abs(state.joint_vel[:, 1:])) < 1e-12


def test_joint_limits_clamp_and_zero_velocity():
    hand = HandModel(mount_height=1.5)
    cfg = default_cfg(hand=hand)
    params = EnvParams.nominal(1)
    state = make_rest_state(1, cfg, params)
    state.joint_pos[:] = 0.0
    tau = np.zeros((1, 9))
    tau[:, 2] = 0.36
    for _ in range(200):
        state = physics.step(state, tau, params, cfg)
    assert abs(state.joint_pos[0, 2] - hand.joint_upper) < 1e-9
    assert state.joint_vel[0, 2] == 0.0


def test_determinism_bit_identical():
    cfg = default_cfg()
    n = 16
    params_a = EnvParams.nominal(n)
    params_b = EnvParams.nominal(n)
    sa = make_rest_state(n, cfg, params_a)
    sb = make_rest_state(n, cfg, params_b)
    torques = rng.uniform(rng.stream_key(1, np.arange(n), 0, 77), 9, low=-0.2, high=0.2)
    for step_i in range(20):
        physics.apply_external_force(sa, params_a, cfg, ExternalForceConfig(), seed=3)
        physics.apply_external_force(sb, params_b, cfg, ExternalForceConfig(), seed=3)
        sa = physics.step(sa, torques, params_a, cfg)
        sb = physics.step(sb, torques, params_b, cfg)
    for name in vars(sa):
        assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


def test_batch_independence_bit_exact():
    # stepping envs [0..8) together equals stepping the slice [3..6) alone
    cfg = default_cfg()
    n = 8
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.obj_pos[:, 0] = np.linspace(-0.02, 0.02, n)
    torques = rng.uniform(rng.stream_key(2, np.arange(n), 0, 77), 9, low=-0.3, high=0.3)
    full = state.copy()
    for _ in range(10):
        full = physics.step(full, torques, params, cfg)

    sub_params = EnvParams.nominal(3)
    for name in vars(sub_params):
        getattr(sub_params, name)[:] = getattr(params, name)[3:6]
    sub = state.copy()
    sub_state = physics.SimState(**{k: v[3:6].copy() for k, v in vars(sub).items()})
    for _ in range(10):
        sub_state = physics.step(sub_state, torques[3:6], sub_params, cfg)
    for name in vars(full):
        assert np.array_equal(getattr(full, name)[3:6], getattr(sub_state, name)), name


def test_energy_non_increasing_through_impact():
    cfg = default_cfg()
    n = 1
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.obj_pos[:, 2] = 0.15
    m = physics.object_mass(cfg, params)
    ib = physics.object_inertia_body(cfg, params)

    def energy(s):
        rot = spatial.quat_to_mat(s.obj_quat)
        w_b = np.einsum("nji,nj->ni", rot, s.obj_angvel)
        return (
            m * cfg.gravity * s.obj_pos[:, 2]
            + 0.5 * m * np.sum(s.obj_linvel**2, axis=-1)
            + 0.5 * np.sum(ib * w_b**2, axis=-1)
        )[0]

    def in_contact(s):
        rot = spatial.quat_to_mat(s.obj_quat)
        h = physics.object_half_extents(cfg, params)
        corners = np.einsum("nij,nkj->nki", rot, spatial._CORNER_SIGNS * h[:, None, :])
        return (s.obj_pos[:, None, 2] + corners[..., 2]).min() <= 0.0

    # mechanical energy may only decrease between contact-free samples (the
    # elastic energy momentarily stored in the penalty spring is not tracked)
    e_prev = energy(state)
    for _ in range(100):  # 2 s: fall, impact, settle
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
        if in_contact(state):
            continue
        e = energy(state)
        assert e <= e_prev * 1.01 + 1e-9
        e_prev = e
    # impacts dissipated energy and the cube ended up resting on the table
    assert energy(state) < 0.5 * (m * cfg.gravity * 0.15)[0]
    assert abs(state.obj_pos[0, 2] - physics.rest_height(cfg, params)[0]) < 2e-3


def test_nonfinite_input_faults_env_without_aborting_batch():
    cfg = default_cfg()
    n = 4
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    torques = np.zeros((n, 9))
    torques[1, 3] = np.nan
    state.obj_linvel[2, 0] = np.inf
    out = physics.step(state, torques, params, cfg)
    assert list(out.fault) == [False, True, True, False]
    for name in vars(out):
        arr = getattr(out, name)
        if arr.dtype.kind == "f":
            assert np.all(np.isfinite(arr)), name
    # faulted envs are back at rest, healthy envs unaffected
    assert np.allclose(out.obj_pos[1, :2], 0.0)
    out2 = physics.step(out, np.zeros((n, 9)), params, cfg)
    assert not out2.fault.any()


def test_fingertip_contact_pushes_cube():
    # finger 0 posed so its tip penetrates the cube's +x face: the cube must
    # feel an opposing force and get pushed in -x
    cfg = default_cfg()
    n = 2
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.joint_pos[:, 0:3] = [0.0, 0.645, -1.271]  # tip near (0.0425, 0, 0.0325)
    touched = False
    for _ in range(25):
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
        if np.any(np.abs(state.fingertip_wrench[:, 0, :3]) > 1e-3):
            touched = True
    assert touched
    assert np.all(state.obj_pos[:, 0] < -1e-4)
    assert np.all(np.isfinite(state.obj_pos))
    # the untouched fingers report no wrench
    assert np.max(np.abs(state.fingertip_wrench[:, 1:, :])) == 0.0


def test_scaled_small_and_heavy_objects_stay_stable():
    cfg = default_cfg()
    n = 4
    params = EnvParams.nominal(n)
    params.scale[:] = [0.4, 1.0, 1.5, 1.0]
    params.mass_factor[:] = [1.0, 0.25, 1.0, 4.0]
    state = make_rest_state(n, cfg, params)
    for _ in range(100):
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
    assert np.all(np.isfinite(state.obj_pos))
    h = physics.object_half_extents(cfg, params)[:, 2]
    assert np.all(np.abs(state.obj_pos[:, 2] - physics.rest_height(cfg, params)) < 2e-4)
    assert np.all(h - state.obj_pos[:, 2] < 1e-3)  # penetration under 1 mm


def test_sphere_object_rests():
    cfg = default_cfg(object=ObjectParams(kind="sphere", radius=0.0375, mass=0.094))
    n = 2
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    for _ in range(50):
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
    assert np.max(np.abs(state.obj_pos[:, 2] - physics.rest_height(cfg, params))) < 1e-4


def test_object_params_validation():
    with pytest.raises(ValueError):
        ObjectParams(kind="mesh")


def test_object_box_half_extents():
    # a sphere's box is (r, r, r) even when half_extents says otherwise; a
    # box's is its half extents, and every size query scales that one box
    sphere = ObjectParams(kind="sphere", radius=0.0375, half_extents=(0.01, 0.02, 0.03))
    box = ObjectParams(kind="box", half_extents=(0.01, 0.04, 0.02), radius=0.5)
    assert sphere.box_half_extents().tolist() == [0.0375] * 3
    assert box.box_half_extents().tolist() == [0.01, 0.04, 0.02]
    params = EnvParams.nominal(2)
    params.scale[:] = [1.0, 1.3]
    for obj in (sphere, box):
        cfg = default_cfg(object=obj)
        half = physics.object_half_extents(cfg, params)
        assert np.array_equal(half, obj.box_half_extents() * params.scale[:, None])
        assert np.all(physics.rest_height(cfg, params) < half[:, 2])


# ------------------------------------------------------------ external force


def test_external_force_zero_prob_is_identity():
    cfg = default_cfg()
    params = EnvParams.nominal(4)
    state = make_rest_state(4, cfg, params)
    before = params.ext_force.copy()
    physics.apply_external_force(state, params, cfg, ExternalForceConfig(prob=0.0), seed=0)
    assert np.array_equal(params.ext_force, before)


def test_external_force_impulse_bookkeeping():
    # free-floating object, no gravity: dv = F/m * dt exactly under Euler
    cfg = default_cfg(gravity=0.0)
    n = 1
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.obj_pos[:, 2] = 1.0  # far from the table
    params.ext_force[0] = [0.02, -0.01, 0.03]
    m = physics.object_mass(cfg, params)[0]
    v0 = state.obj_linvel.copy()
    state = physics.step(state, np.zeros((n, 9)), params, cfg)
    dv = state.obj_linvel[0] - v0[0]
    assert np.allclose(dv, np.array([0.02, -0.01, 0.03]) / m * cfg.dt, rtol=1e-9)


def test_external_force_geometric_decay():
    cfg = default_cfg()
    params = EnvParams.nominal(1)
    state = make_rest_state(1, cfg, params)
    fcfg = ExternalForceConfig(prob=1e-12, decay=0.9)  # never (re)start
    params.ext_force[0] = [1.0, 0.0, 0.0]
    mags = []
    for i in range(5):
        state.step_count[:] = i
        physics.apply_external_force(state, params, cfg, fcfg, seed=0)
        mags.append(params.ext_force[0, 0])
    assert np.allclose(mags, [0.9, 0.81, 0.729, 0.6561, 0.59049])


def test_external_force_magnitude_scales_with_mass():
    cfg = default_cfg()
    n = 4000
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    fcfg = ExternalForceConfig(prob=1.0, scale=1.0, decay=0.8)
    physics.apply_external_force(state, params, cfg, fcfg, seed=7)
    std = params.ext_force.std()
    want = cfg.object.mass * cfg.gravity  # per-component std
    assert abs(std - want) / want < 0.05
