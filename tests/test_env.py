import numpy as np
import pytest

from tricube import env as env_mod
from tricube import physics, rng, spatial
from tricube.domrand import DRConfig
from tricube.env import CubeReposeTask, TaskConfig, actor_layout, critic_layout
from tricube.physics import HandModel, PhysicsConfig
from tricube.ppo import PPOAgent, PPOConfig, load_into
from tricube.reach import ReachTask


def make_task(n=8, seed=0, dr_enabled=False, **task_kw):
    dr = DRConfig(enabled=dr_enabled)
    return CubeReposeTask(n, seed=seed, task=TaskConfig(**task_kw), dr=dr)


def snapshot(task) -> dict:
    """A copy of the task's checkpointed arrays."""
    return {k: v.copy() for k, v in task._arrays().items()}


def rot_mat(q):
    """Rotation matrices (..., 3, 3) from ``spatial.quat_to_mat_parts``."""
    rows = spatial.quat_to_mat_parts(tuple(np.moveaxis(q, -1, 0)))
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


# ------------------------------------------------------------ obs contract


def test_observation_dims_keypoints():
    t = make_task(4)
    obs = t.reset_all()
    assert obs["actor"].shape == (4, 75)
    assert obs["critic"].shape == (4, 147)


def test_observation_dims_pos_quat():
    t = make_task(4, obs_variant="pos_quat")
    obs = t.reset_all()
    assert obs["actor"].shape == (4, 41)
    assert obs["critic"].shape == (4, 113)


def test_actor_layout_golden():
    assert actor_layout("keypoints") == {
        "joint_pos": (0, 9),
        "joint_vel": (9, 18),
        "cube_pose": (18, 42),
        "goal_pose": (42, 66),
        "last_action": (66, 75),
    }
    assert actor_layout("pos_quat") == {
        "joint_pos": (0, 9),
        "joint_vel": (9, 18),
        "cube_pose": (18, 25),
        "goal_pose": (25, 32),
        "last_action": (32, 41),
    }


def test_critic_layout_golden():
    assert critic_layout("keypoints") == {
        "actor": (0, 75),
        "cube_vel": (75, 81),
        "fingertip_pose": (81, 102),
        "fingertip_vel": (102, 120),
        "fingertip_wrench": (120, 138),
        "joint_torque": (138, 147),
    }
    assert critic_layout("pos_quat")["joint_torque"] == (104, 113)


def test_critic_is_noise_free():
    t = make_task(8, dr_enabled=True)
    obs = t.reset_all()
    for _ in range(3):
        obs, _, _, _ = t.step(np.zeros((8, 9)))
    lo, hi = actor_layout("keypoints")["cube_pose"]
    true_kp = spatial.keypoints_to_flat(
        spatial.transform_keypoints(t.state.obj_pos, t.state.obj_quat, t.local_keypoints)
    )
    assert np.array_equal(obs["critic"][:, lo:hi], true_kp)
    # the actor block is noised (and camera-held): it differs from truth
    assert not np.array_equal(obs["actor"][:, lo:hi], true_kp)
    # joint blocks too
    assert np.array_equal(obs["critic"][:, 0:9], t.state.joint_pos)
    assert not np.array_equal(obs["actor"][:, 0:9], t.state.joint_pos)


# ------------------------------------------------------------ process_action


def test_process_action_scaling():
    pcfg = PhysicsConfig()
    zero_vel = np.zeros((1, 9))
    tau, fault = env_mod.process_action(np.zeros((1, 9)), zero_vel, pcfg)
    assert np.all(tau == 0.0) and not fault.any()
    tau, _ = env_mod.process_action(np.ones((1, 9)), zero_vel, pcfg)
    assert np.allclose(tau, 0.36)
    tau, _ = env_mod.process_action(-np.ones((1, 9)), zero_vel, pcfg)
    assert np.allclose(tau, -0.36)
    # out-of-range actions are clipped before scaling
    tau, _ = env_mod.process_action(np.full((1, 9), 5.0), zero_vel, pcfg)
    assert np.allclose(tau, 0.36)


def test_process_action_safety_damping():
    pcfg = PhysicsConfig()
    vel = np.full((1, 9), pcfg.hand.max_joint_vel)
    tau, _ = env_mod.process_action(np.ones((1, 9)), vel, pcfg)
    assert np.allclose(tau, 0.36 * (1.0 - pcfg.safety_damping_coef))


def test_process_action_nan_faults():
    pcfg = PhysicsConfig()
    a = np.zeros((3, 9))
    a[1, 4] = np.nan
    tau, fault = env_mod.process_action(a, np.zeros((3, 9)), pcfg)
    assert list(fault) == [False, True, False]
    assert np.all(tau[1] == 0.0)


# the reference hand, and one whose torque limit and upper joint limit
# exceed the reference's 0.36 N m and 1.57 rad
HANDS = pytest.mark.parametrize("hand", [HandModel(), HandModel(max_torque=0.5, joint_upper=2.0)],
                                ids=["reference", "raised"])


@HANDS
def test_dr_observed_joints_stay_in_the_hand_range(hand):
    # joints at their limits: the noised readings reach the limits, not past
    t = CubeReposeTask(8, seed=1, phys=PhysicsConfig(hand=hand), dr=DRConfig())
    t.reset_all()
    arrays = snapshot(t)
    upper = (np.arange(8) >= 4)[:, None]
    arrays["state.joint_pos"][:] = np.where(upper, hand.joint_upper, hand.joint_lower)
    arrays["state.joint_vel"][:] = np.where(upper, 1.0, -1.0) * hand.max_joint_vel
    actor = t.load_state_dict(arrays)["actor"]
    layout = actor_layout("keypoints")
    pos = actor[:, slice(*layout["joint_pos"])]
    vel = actor[:, slice(*layout["joint_vel"])]
    assert pos.min() == hand.joint_lower and pos.max() == hand.joint_upper
    assert vel.min() == -hand.max_joint_vel and vel.max() == hand.max_joint_vel
    assert not np.all(np.isin(pos, (hand.joint_lower, hand.joint_upper)))  # noise is on


@HANDS
def test_dr_applied_torque_stays_within_max_torque(hand):
    # full commands at rest: the noised torque reaches max_torque, not past
    t = CubeReposeTask(8, seed=2, phys=PhysicsConfig(hand=hand), dr=DRConfig())
    t.reset_all()
    t.step(np.where((np.arange(8) >= 4)[:, None], 1.0, -1.0) * np.ones((8, 9)))
    applied = t.state.joint_torque
    assert applied.min() == -hand.max_torque and applied.max() == hand.max_torque
    assert np.all(np.abs(t.last_action_torque) == hand.max_torque)
    assert not np.all(np.abs(applied) == hand.max_torque)  # noise is on


# ------------------------------------------------------------ reward pieces


def test_object_goal_reward_exact_at_goal():
    cfg = TaskConfig()
    local = spatial.box_local_keypoints((0.0325,) * 3)
    pos = np.array([[0.01, -0.02, 0.05]])
    quat = spatial.quat_from_axis_angle([0.0, 1.0, 0.0], 0.6)[None]
    r = env_mod.object_goal_reward(pos, quat, pos, quat, cfg, local)
    assert r[0] == 2.0  # 8 corners * K(0) = 8 * 0.25


def test_object_goal_reward_maximal_iff_at_goal():
    cfg = TaskConfig()
    local = spatial.box_local_keypoints((0.0325,) * 3)
    n = 500
    u = rng.uniform(rng.stream_key(1, np.arange(n), 0, 60), 3)
    quat = spatial.quat_from_shoemake(u)
    pos = rng.normal(rng.stream_key(2, np.arange(n), 0, 60), 3) * 0.05
    goal_p = np.zeros((n, 3))
    goal_q = np.tile(spatial.QUAT_IDENTITY, (n, 1))
    r = env_mod.object_goal_reward(pos, quat, goal_p, goal_q, cfg, local)
    assert np.all(r <= 2.0)
    same = spatial.rot_dist(quat, goal_q) < 1e-12
    offset = np.linalg.norm(pos, axis=-1) > 1e-9
    assert np.all(r[offset | ~same] < 2.0)


def test_object_goal_reward_double_cover_bit_identical():
    cfg = TaskConfig()
    local = spatial.box_local_keypoints((0.0325,) * 3)
    n = 10_000
    q = spatial.quat_from_shoemake(rng.uniform(rng.stream_key(3, np.arange(n), 0, 61), 3))
    gq = spatial.quat_from_shoemake(rng.uniform(rng.stream_key(4, np.arange(n), 0, 61), 3))
    pos = rng.normal(rng.stream_key(5, np.arange(n), 0, 61), 3) * 0.05
    gpos = rng.normal(rng.stream_key(6, np.arange(n), 0, 61), 3) * 0.05
    base = env_mod.object_goal_reward(pos, q, gpos, gq, cfg, local)
    assert np.array_equal(env_mod.object_goal_reward(pos, -q, gpos, gq, cfg, local), base)
    assert np.array_equal(env_mod.object_goal_reward(pos, q, gpos, -gq, cfg, local), base)


def test_pos_quat_reward_uses_a50_kernel():
    cfg = TaskConfig(reward_variant="pos_quat")
    local = spatial.box_local_keypoints((0.0325,) * 3)
    pos = np.array([[0.1, 0.0, 0.0]])
    goal = np.zeros((1, 3))
    qi = np.tile(spatial.QUAT_IDENTITY, (1, 1))
    r = env_mod.object_goal_reward(pos, qi, goal, qi, cfg, local)
    want = spatial.logistic_kernel(0.1, cfg.kernel_pos) + 1.0 / 0.01
    assert abs(r[0] - want) < 1e-12


def test_stationary_fingertips_zero_penalty_and_reach():
    # zero joint velocity means zero fingertip velocity penalty, and a static
    # scene means zero reach displacement
    hand_kin = physics.fingertip_kinematics(
        np.tile(physics.HandModel().home_joint_positions(), (3, 1)),
        np.zeros((3, 9)),
        physics.HandModel(),
    )
    assert np.all(hand_kin.linvel == 0.0)
    assert np.sum(hand_kin.linvel**2) == 0.0
    tips = hand_kin.pos
    obj = np.zeros((3, 3))
    assert np.all(env_mod.fingertip_to_object(tips, obj, tips, obj) == 0.0)


def test_fingertip_to_object_cases():
    tips0 = np.array([[[0.1, 0.0, 0.1], [0.0, 0.1, 0.1], [0.0, -0.1, 0.1]]])
    obj0 = np.zeros((1, 3))
    # no motion
    assert env_mod.fingertip_to_object(tips0, obj0, tips0, obj0)[0] == 0.0
    # one tip moves 1 cm straight toward the static centroid
    tips1 = tips0.copy()
    direction = tips0[0, 0] / np.linalg.norm(tips0[0, 0])
    tips1[0, 0] = tips0[0, 0] - 0.01 * direction
    d = env_mod.fingertip_to_object(tips0, obj0, tips1, obj0)[0]
    assert abs(d - (-0.01)) < 1e-12


def test_fingertip_to_object_matches_brute_force():
    n = 100
    t0 = rng.normal(rng.stream_key(7, np.arange(n), 0, 62), 9).reshape(n, 3, 3)
    t1 = rng.normal(rng.stream_key(8, np.arange(n), 0, 62), 9).reshape(n, 3, 3)
    p0 = rng.normal(rng.stream_key(9, np.arange(n), 0, 62), 3) * 0.1
    p1 = rng.normal(rng.stream_key(10, np.arange(n), 0, 62), 3) * 0.1
    got = env_mod.fingertip_to_object(t0, p0, t1, p1)
    for i in range(n):
        want = sum(
            np.linalg.norm(t1[i, f] - p1[i]) - np.linalg.norm(t0[i, f] - p0[i])
            for f in range(3)
        )
        assert abs(got[i] - want) < 1e-12


def test_check_success_thresholds():
    qi = spatial.QUAT_IDENTITY
    args = dict(pos_threshold=0.02, rot_threshold=np.deg2rad(22.0))
    p0 = np.zeros((1, 3))

    def check(p, q):
        return env_mod.check_success(*env_mod.goal_errors(p, q, p0, qi[None]), **args)

    assert check(p0, qi[None])[0]
    # inside both thresholds
    p = np.array([[0.019, 0.0, 0.0]])
    q = spatial.quat_from_axis_angle([0, 0, 1], 0.38)[None]
    assert check(p, q)[0]
    # position out by 1 mm
    p = np.array([[0.021, 0.0, 0.0]])
    assert not check(p, qi[None])[0]
    # rotation out
    q = spatial.quat_from_axis_angle([0, 0, 1], 0.39)[None]
    assert not check(p0, q)[0]


def test_success_monotone_in_thresholds():
    n = 1000
    q = spatial.quat_from_shoemake(rng.uniform(rng.stream_key(11, np.arange(n), 0, 63), 3))
    p = rng.normal(rng.stream_key(12, np.arange(n), 0, 63), 3) * 0.02
    qi = np.tile(spatial.QUAT_IDENTITY, (n, 1))
    p0 = np.zeros((n, 3))
    errors = env_mod.goal_errors(p, q, p0, qi)
    tight = env_mod.check_success(*errors, pos_threshold=0.02, rot_threshold=0.3839)
    for pt, rt in [(0.03, 0.3839), (0.02, 0.6), (0.05, 1.0)]:
        loose = env_mod.check_success(*errors, pos_threshold=pt, rot_threshold=rt)
        assert np.all(loose[tight])  # no success flips to failure


def test_reward_total_is_weighted_sum_of_components():
    t = make_task(8, dr_enabled=True)
    t.reset_all()
    cfg = t.cfg
    for _ in range(5):
        a = rng.uniform(rng.stream_key(13, np.arange(8), t.state.step_count, 64), 9, -1, 1)
        obs, reward, done, info = t.step(a)
        c = info["reward_components"]
        total = (
            cfg.w_fingertip_reach * c["fingertip_to_object"]
            + cfg.w_fingertip_vel * c["fingertip_velocity_penalty"]
            + cfg.w_object_goal * c["object_goal_reward"]
        )
        assert np.max(np.abs(total - reward)) < 1e-12


def test_reach_component_zero_after_cutoff():
    t = make_task(4, reach_cutoff_steps=8)  # cutoff after 8 aggregate steps
    t.reset_all()
    _, _, _, info = t.step(np.full((4, 9), 0.3))  # total_steps = 4
    assert np.any(info["reward_components"]["fingertip_to_object"] != 0.0)
    _, _, _, info = t.step(np.full((4, 9), 0.3))  # total_steps = 8, still active
    assert np.any(info["reward_components"]["fingertip_to_object"] != 0.0)
    _, _, _, info = t.step(np.full((4, 9), 0.3))  # total_steps = 12 > 8
    assert np.all(info["reward_components"]["fingertip_to_object"] == 0.0)
    _, _, _, info = t.step(np.full((4, 9), -0.2))
    assert np.all(info["reward_components"]["fingertip_to_object"] == 0.0)


# ------------------------------------------------------------ goals, resets


def test_goal_sampling_deterministic():
    ids = np.arange(16)
    ep = np.zeros(16, dtype=np.int64)
    cfg = TaskConfig()
    zmin = np.full(16, 0.0325)
    p1, q1 = env_mod.sample_goals(5, ids, ep, cfg, zmin)
    p2, q2 = env_mod.sample_goals(5, ids, ep, cfg, zmin)
    assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
    p3, _ = env_mod.sample_goals(6, ids, ep, cfg, zmin)
    assert not np.array_equal(p1, p3)


def test_goal_position_distribution():
    n = 100_000
    ids = np.arange(n)
    ep = np.zeros(n, dtype=np.int64)
    cfg = TaskConfig()
    zmin = np.full(n, 0.0325)
    pos, quat = env_mod.sample_goals(7, ids, ep, cfg, zmin)
    r = np.linalg.norm(pos[:, :2], axis=-1)
    assert r.max() <= cfg.goal_radius + 1e-12
    assert pos[:, 2].min() >= 0.0325 and pos[:, 2].max() <= cfg.goal_z_max
    # xy centroid ~ 0 within 3 sigma; mean radius of area-uniform disc = 2R/3
    se = cfg.goal_radius / np.sqrt(n)
    assert np.all(np.abs(pos[:, :2].mean(axis=0)) < 3 * se)
    assert abs(r.mean() - 2.0 * cfg.goal_radius / 3.0) < 3 * se
    assert abs(pos[:, 2].mean() - 0.5 * (0.0325 + cfg.goal_z_max)) < 3 * se
    # orientations cover SO(3): the angle-to-identity density check
    theta = spatial.rot_dist(quat, np.tile(spatial.QUAT_IDENTITY, (n, 1)))
    bins = np.linspace(0.0, np.pi, 21)
    counts, _ = np.histogram(theta, bins=bins)
    expected = np.diff((bins - np.sin(bins)) / np.pi) * n
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 43.8  # 99.9% quantile at 19 dof


def test_goal_yaw_only_flag():
    n = 1000
    cfg = TaskConfig(goal_yaw_only=True)
    pos, quat = env_mod.sample_goals(8, np.arange(n), np.zeros(n, dtype=np.int64), cfg, np.full(n, 0.0325))
    # yaw-only quats have zero x and y components
    assert np.max(np.abs(quat[:, :2])) < 1e-12


def test_reset_deterministic_and_independent():
    t1 = make_task(16, seed=3, dr_enabled=True)
    t2 = make_task(16, seed=3, dr_enabled=True)
    o1 = t1.reset_all()
    o2 = t2.reset_all()
    assert np.array_equal(o1["actor"], o2["actor"])
    assert np.array_equal(t1.goal_pos, t2.goal_pos)
    # resetting env i leaves env j's draws unchanged: compare with a task
    # where only a subset resets at a different time
    t3 = make_task(16, seed=3, dr_enabled=True)
    t3.reset_all()
    mask = np.zeros(16, dtype=bool)
    mask[:8] = True
    t3._reset_envs(mask)  # envs 0..7 advance to episode 1
    assert np.array_equal(t3.goal_pos[8:], t1.goal_pos[8:])


def test_spawn_has_no_penetration():
    # 2048 envs x 5 episodes of spawns with DR on: the cube never intersects
    # the fingertips or the table
    n = 2048
    t = make_task(n, seed=9, dr_enabled=True)
    for ep in range(5):
        t._reset_envs(np.ones(n, dtype=bool))
        kin = physics.fingertip_kinematics(t.state.joint_pos, None, t.pcfg.hand)
        half = physics.object_half_extents(t.pcfg, t.params)
        rot = rot_mat(t.state.obj_quat)
        rel = kin.pos - t.state.obj_pos[:, None, :]
        # box-frame clamp distance oracle
        local = np.einsum("nji,nfj->nfi", rot, rel)
        clamped = np.clip(local, -half[:, None, :], half[:, None, :])
        dist = np.linalg.norm(local - clamped, axis=-1)
        assert dist.min() > t.pcfg.hand.fingertip_radius  # tips clear of cube
        corners = np.einsum("nij,nkj->nki", rot, spatial._CORNER_SIGNS * half[:, None, :])
        lowest = (t.state.obj_pos[:, None, 2] + corners[..., 2]).min()
        assert lowest > -2.5e-4  # resting spring compression only
        assert kin.pos[..., 2].min() > t.pcfg.hand.fingertip_radius  # tips clear of table


# ------------------------------------------------------------ camera model


def test_camera_hold_and_refresh():
    t = make_task(4, dr_enabled=False, camera_sign_flips=False)
    obs = t.reset_all()
    t.state.obj_linvel[:, 0] = 0.05  # set the cube sliding so its pose changes
    lo, hi = actor_layout("keypoints")["cube_pose"]
    blocks = [obs["actor"][:, lo:hi].copy()]
    for _ in range(6):
        obs, _, _, _ = t.step(np.zeros((4, 9)))
        blocks.append(obs["actor"][:, lo:hi].copy())
    # steps 0..4 identical (held), step 5 refreshes
    for k in range(1, 5):
        assert np.array_equal(blocks[k], blocks[0])
    assert not np.array_equal(blocks[5], blocks[0])
    # with zero noise, the held block equals the true pose at refresh time
    true_kp = spatial.keypoints_to_flat(
        spatial.transform_keypoints(t.held_cube_pos, t.held_cube_quat, t.local_keypoints)
    )
    assert np.array_equal(blocks[6], true_kp)  # still holding step-5 frame


def test_proprioception_refreshes_every_step():
    t = make_task(4, dr_enabled=False, camera_sign_flips=False)
    obs0 = t.reset_all()
    obs1, _, _, _ = t.step(np.full((4, 9), 0.3))
    assert not np.array_equal(obs1["actor"][:, 0:18], obs0["actor"][:, 0:18])


def test_sign_flip_filter_property():
    # with a sign-flipping camera, the filtered pos_quat stream is temporally
    # consistent while the raw stream is not
    t = make_task(8, seed=1, dr_enabled=False, obs_variant="pos_quat",
                  camera_sign_flips=True)
    t.reset_all()
    raw_jumps = 0
    filt_jumps = 0
    prev_raw = t.held_cube_quat.copy()
    prev_filt = t.filtered_cube_quat.copy()
    for _ in range(200):
        _, _, _, _ = t.step(np.zeros((8, 9)))
        raw_jumps += int(np.sum(np.linalg.norm(t.held_cube_quat - prev_raw, axis=-1) > 1.0))
        filt_jumps += int(np.sum(np.linalg.norm(t.filtered_cube_quat - prev_filt, axis=-1) > 1.0))
        prev_raw = t.held_cube_quat.copy()
        prev_filt = t.filtered_cube_quat.copy()
    assert raw_jumps > 10  # flips visibly corrupt the raw stream
    assert filt_jumps == 0  # the filter removes all of them


def test_keypoint_obs_invariant_to_tracker_sign_flips():
    # two runs differing only in camera sign flips produce identical
    # keypoint observations
    a = make_task(4, seed=2, dr_enabled=False, camera_sign_flips=True)
    b = make_task(4, seed=2, dr_enabled=False, camera_sign_flips=False)
    oa = a.reset_all()
    ob = b.reset_all()
    assert np.array_equal(oa["actor"], ob["actor"])
    for _ in range(12):
        oa, _, _, _ = a.step(np.full((4, 9), 0.1))
        ob, _, _, _ = b.step(np.full((4, 9), 0.1))
        assert np.array_equal(oa["actor"], ob["actor"])


# ------------------------------------------------------------ episode logic


def test_episode_terminates_and_resets():
    t = make_task(4, episode_length=10)
    t.reset_all()
    for i in range(9):
        _, _, done, _ = t.step(np.zeros((4, 9)))
        assert not done.any()
    _, _, done, _ = t.step(np.zeros((4, 9)))
    assert done.all()
    recs = t.drain_episode_records()
    assert len(recs) == 4
    assert {r["env_id"] for r in recs} == {0, 1, 2, 3}
    for r in recs:
        assert set(r) >= {"episode", "env_id", "success", "final_pos_err", "final_rot_err", "return"}
    assert np.all(t.episode_step == 0)
    assert np.all(t.episode_idx == 1)


def test_success_when_goal_at_spawn():
    # pin the goal to the cube's resting pose: the do-nothing policy succeeds
    t = make_task(2, episode_length=5, spawn_disc_radius=1e-9, goal_yaw_only=True)
    t.reset_all()
    goal_pos, goal_quat = t.state.obj_pos.copy(), t.state.obj_quat.copy()
    t.set_goals(np.arange(2), goal_pos, goal_quat)
    lo, hi = actor_layout(t.cfg.obs_variant)["goal_pose"]
    want_block = t._pose_blocks(goal_pos, goal_quat)
    for _ in range(5):
        obs_before = t._observations()
        assert np.array_equal(obs_before["actor"][:, lo:hi], want_block)
        _, _, done, info = t.step(np.zeros((2, 9)))
        if not done.any():  # the state is still this episode's
            want = env_mod.object_goal_reward(t.state.obj_pos, t.state.obj_quat, goal_pos,
                                              goal_quat, t.cfg, t.local_keypoints)
            assert np.array_equal(info["reward_components"]["object_goal_reward"], want)
        # the cube rests at the pinned goal: every corner near the kernel's peak 1/4
        assert np.all(info["reward_components"]["object_goal_reward"] > 1.9)
    assert done.all()
    recs = t.drain_episode_records()
    assert all(r["success"] for r in recs)
    assert all(r["final_pos_err"] < 1e-3 for r in recs)


def test_env_step_determinism():
    a = make_task(8, seed=5, dr_enabled=True)
    b = make_task(8, seed=5, dr_enabled=True)
    oa, ob = a.reset_all(), b.reset_all()
    assert np.array_equal(oa["critic"], ob["critic"])
    for i in range(20):
        act = rng.uniform(rng.stream_key(20, np.arange(8), i, 65), 9, -1, 1)
        oa, ra, da, _ = a.step(act)
        ob, rb, db, _ = b.step(act)
        assert np.array_equal(oa["actor"], ob["actor"])
        assert np.array_equal(ra, rb)


def test_state_dict_round_trip_resumes_exactly():
    a = make_task(8, seed=6, dr_enabled=True, episode_length=12)
    a.reset_all()
    acts = [rng.uniform(rng.stream_key(21, np.arange(8), i, 66), 9, -1, 1) for i in range(30)]
    for act in acts[:15]:
        a.step(act)
    snap = snapshot(a)
    cont_obs = []
    for act in acts[15:]:
        o, r, d, _ = a.step(act)
        cont_obs.append((o["actor"].copy(), r.copy()))

    b = make_task(8, seed=6, dr_enabled=True, episode_length=12)
    b.reset_all()
    b.load_state_dict(snap)
    for k, act in enumerate(acts[15:]):
        o, r, d, _ = b.step(act)
        assert np.array_equal(o["actor"], cont_obs[k][0])
        assert np.array_equal(r, cont_obs[k][1])


def perturbed(arrays):
    """A copy of ``arrays`` with every element changed."""
    return {k: ~v if v.dtype == bool else v + 1 for k, v in arrays.items()}


def stepped(task):
    task.reset_all()
    for i in range(3):
        task.step(rng.uniform(rng.stream_key(24, np.arange(4), i, 66), task.action_dim, -1, 1))
    return task


@pytest.mark.parametrize("make, table, load", [
    (lambda: PPOAgent(5, 7, 2, PPOConfig(policy_hidden=(8, 8), value_hidden=(8,)), seed=1),
     PPOAgent._net_tensors, lambda agent, want: load_into(agent._net_tensors(), want)),
    (lambda: stepped(make_task(4, seed=2, dr_enabled=True)),
     CubeReposeTask._arrays, CubeReposeTask.load_state_dict),
    (lambda: stepped(ReachTask(4, seed=2)), ReachTask._arrays, ReachTask.load_state_dict),
], ids=["agent", "cube", "reach"])
def test_every_checkpointed_array_is_live(make, table, load):
    # a load fills the table's arrays: an entry that is a temporary would
    # take its value and drop it, and reading the table back would show it
    obj = make()
    before = {k: v.copy() for k, v in table(obj).items()}
    want = perturbed(before)
    load(obj, want)
    got = table(obj)
    assert got.keys() == want.keys()
    for k, v in got.items():
        assert v.dtype == want[k].dtype and v.tobytes() == want[k].tobytes(), k
        assert v.tobytes() != before[k].tobytes(), k


@pytest.mark.parametrize("fault", ["missing", "shape"])
def test_a_refused_task_load_changes_nothing(fault):
    t = stepped(make_task(4, seed=3, dr_enabled=True))
    before = {k: v.tobytes() for k, v in t._arrays().items()}
    goal_keypoints = t.goal_keypoints.tobytes()
    arrays = perturbed(snapshot(t))
    last = list(arrays)[-1]  # every other array would be copied before it
    if fault == "missing":
        del arrays[last]
    else:
        arrays[last] = np.zeros(2, arrays[last].dtype)
    with pytest.raises(ValueError, match=last):
        t.load_state_dict(arrays)
    assert {k: v.tobytes() for k, v in t._arrays().items()} == before
    assert t.goal_keypoints.tobytes() == goal_keypoints


def test_goal_keypoints_follow_the_goal_pose(monkeypatch):
    uncached = env_mod.object_goal_reward
    calls = []

    def checked(obj_pos, obj_quat, goal_pos, goal_quat, cfg, local, goal_keypoints, obj_keypoints):
        got = uncached(obj_pos, obj_quat, goal_pos, goal_quat, cfg, local, goal_keypoints,
                       obj_keypoints)
        assert got.tobytes() == uncached(obj_pos, obj_quat, goal_pos, goal_quat, cfg, local).tobytes()
        calls.append(len(got))
        return got

    def assert_cached(t):
        want = spatial.transform_keypoints(t.goal_pos, t.goal_quat, t.local_keypoints)
        assert t.goal_keypoints.shape == want.shape
        assert t.goal_keypoints.tobytes() == want.tobytes()

    monkeypatch.setattr(env_mod, "object_goal_reward", checked)
    a = make_task(8, seed=6, dr_enabled=True, episode_length=5)
    a.reset_all()
    assert_cached(a)
    for i in range(12):  # auto-resets after steps 5 and 10; env 3 faults at step 8 instead
        act = rng.uniform(rng.stream_key(23, np.arange(8), i, 66), 9, -1, 1)
        if i == 7:
            act[3, 0] = np.nan
        a.step(act)
        assert_cached(a)
    assert a.episode_idx.tolist() == [2] * 8
    assert a.episode_step.tolist() == [2, 2, 2, 4, 2, 2, 2, 2]

    b = make_task(8, seed=6, dr_enabled=True, episode_length=5)
    b.load_state_dict(snapshot(a))
    assert_cached(b)
    act = rng.uniform(rng.stream_key(23, np.arange(8), 12, 66), 9, -1, 1)
    assert np.array_equal(a.step(act)[1], b.step(act)[1])
    assert calls == [8] * 14


@pytest.mark.parametrize("obs_variant, reward_variant, full_calls", [
    ("keypoints", "keypoints", 2), ("pos_quat", "keypoints", 1), ("keypoints", "pos_quat", 2),
])
def test_step_transforms_the_true_pose_once(monkeypatch, obs_variant, reward_variant, full_calls):
    # the reward and the critic share one transform of the true pose (the
    # actor's held pose is the other); the step's observations are still
    # those of its end state, reset envs included
    real, sizes = spatial.transform_keypoints, []

    def counting(pos, quat, local):
        sizes.append(len(pos))
        return real(pos, quat, local)

    monkeypatch.setattr(spatial, "transform_keypoints", counting)
    t = make_task(8, seed=6, dr_enabled=True, episode_length=5, obs_variant=obs_variant,
                  reward_variant=reward_variant)
    t.reset_all()
    for i in range(12):  # env 3 faults at step 8, the others reset after steps 5 and 10
        act = rng.uniform(rng.stream_key(23, np.arange(8), i, 66), 9, -1, 1)
        if i == 7:
            act[3, 0] = np.nan
        sizes.clear()
        obs, _, done, _ = t.step(act)
        if not done.any():
            assert sizes == [8] * full_calls
        fresh = t._observations()
        for k in ("actor", "critic"):
            assert obs[k].tobytes() == fresh[k].tobytes(), (i, k)


def test_nan_action_faults_and_recovers():
    t = make_task(4, episode_length=50)
    t.reset_all()
    a = np.zeros((4, 9))
    a[2, 0] = np.nan
    _, _, done, _ = t.step(a)
    assert list(done) == [False, False, True, False]
    recs = t.drain_episode_records()
    assert len(recs) == 1 and recs[0]["env_id"] == 2 and not recs[0]["success"]
    # faulted env restarted cleanly
    _, _, done, _ = t.step(np.zeros((4, 9)))
    assert not done.any()
