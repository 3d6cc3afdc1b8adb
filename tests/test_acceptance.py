"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criterion 9 (desk-scale training trends) runs for hours
and is marked `extended`; everything else runs in the default suite.
"""

import json
import time

import numpy as np
import pytest

from tricube import domrand, env as env_mod, harness, physics, rng, spatial
from tricube.config import EngineConfig, HarnessConfig, resolve
from tricube.domrand import DRConfig
from tricube.env import CubeReposeTask, TaskConfig, actor_layout, actor_obs_dim, critic_layout, critic_obs_dim
from tricube.physics import EnvParams, HandModel, PhysicsConfig, make_rest_state
from tricube.ppo import PPOAgent, PPOConfig, gae
from tricube.reach import ReachTask
from tricube.spatial import KernelParams
from tricube.trainer import Trainer, build_trainer


def note(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------- criterion 1


def test_acceptance_1_kernel_values():
    k0 = spatial.logistic_kernel(0.0, KernelParams(a=30.0, b=2.0))
    assert abs(k0 - 0.25) <= 1e-12
    local = spatial.box_local_keypoints((0.0325,) * 3)
    pos = np.array([[0.03, -0.01, 0.08]])
    quat = spatial.quat_from_axis_angle([0.3, 0.5, 1.0], 1.1)[None]
    reward = env_mod.object_goal_reward(pos, quat, pos, quat, TaskConfig(), local)
    assert abs(reward[0] - 2.0) <= 1e-12
    note(1, f"K(0; a=30, b=2) = {k0!r}, goal reward at goal = {reward[0]!r}")


# ---------------------------------------------------------------- criterion 2


def test_acceptance_2_observation_contract():
    assert actor_obs_dim("keypoints") == 75
    assert critic_obs_dim("keypoints") == 147
    assert actor_layout("keypoints") == {
        "joint_pos": (0, 9), "joint_vel": (9, 18), "cube_pose": (18, 42),
        "goal_pose": (42, 66), "last_action": (66, 75),
    }
    assert critic_layout("keypoints") == {
        "actor": (0, 75), "cube_vel": (75, 81), "fingertip_pose": (81, 102),
        "fingertip_vel": (102, 120), "fingertip_wrench": (120, 138),
        "joint_torque": (138, 147),
    }
    t = CubeReposeTask(2, seed=0)
    obs = t.reset_all()
    assert obs["actor"].shape == (2, 75) and obs["critic"].shape == (2, 147)
    note(2, "actor dim 75, critic dim 147, block offsets pinned")


# ---------------------------------------------------------------- criterion 3


def test_acceptance_3_double_cover_and_sign_filter():
    n = 10_000
    cfg = TaskConfig()
    local = spatial.box_local_keypoints((0.0325,) * 3)
    q = spatial.quat_from_shoemake(rng.uniform(rng.stream_key(50, np.arange(n), 0, 1), 3))
    gq = spatial.quat_from_shoemake(rng.uniform(rng.stream_key(51, np.arange(n), 0, 1), 3))
    pos = rng.normal(rng.stream_key(52, np.arange(n), 0, 1), 3) * 0.08
    gpos = rng.normal(rng.stream_key(53, np.arange(n), 0, 1), 3) * 0.08

    # keypoint observations: bit-identical under q -> -q
    kp_plus = spatial.keypoints_to_flat(spatial.transform_keypoints(pos, q, local))
    kp_minus = spatial.keypoints_to_flat(spatial.transform_keypoints(pos, -q, local))
    assert np.array_equal(kp_plus, kp_minus)
    # keypoint reward: bit-identical under sign flips of either pose
    r = env_mod.object_goal_reward(pos, q, gpos, gq, cfg, local)
    assert np.array_equal(env_mod.object_goal_reward(pos, -q, gpos, gq, cfg, local), r)
    assert np.array_equal(env_mod.object_goal_reward(pos, q, gpos, -gq, cfg, local), r)

    # the pos-quat path needs the sign filter to be temporally consistent
    task = CubeReposeTask(
        16, seed=9,
        task=TaskConfig(obs_variant="pos_quat", camera_sign_flips=True, episode_length=400),
        dr=DRConfig(enabled=False),
    )
    task.reset_all()
    raw_jumps = filt_jumps = 0
    prev_raw = task.held_cube_quat.copy()
    prev_filt = task.filtered_cube_quat.copy()
    for _ in range(300):
        task.step(np.zeros((16, 9)))
        raw_jumps += int(np.sum(np.linalg.norm(task.held_cube_quat - prev_raw, axis=-1) > 1.0))
        filt_jumps += int(np.sum(np.linalg.norm(task.filtered_cube_quat - prev_filt, axis=-1) > 1.0))
        prev_raw = task.held_cube_quat.copy()
        prev_filt = task.filtered_cube_quat.copy()
    assert raw_jumps > 50  # the simulated tracker flips signs often
    assert filt_jumps == 0  # the filter removes every flip
    note(3, f"10^4 poses bit-identical under q -> -q; filter removed {raw_jumps} sign flips")


# ---------------------------------------------------------------- criterion 4


def test_acceptance_4_gae_oracle():
    t_len, n = 30, 1000
    r = rng.normal(rng.stream_key(60, np.arange(n), 0, 2), t_len).T
    v = rng.normal(rng.stream_key(61, np.arange(n), 0, 2), t_len).T
    d = rng.uniform(rng.stream_key(62, np.arange(n), 0, 2), t_len).T < 0.12
    boot = rng.normal(rng.stream_key(63, np.arange(n), 0, 2), 1)[:, 0]
    adv, ret = gae(r, v, d, boot, 0.99, 0.95)

    # brute force: forward sums of (gamma*tau)^l one-step TD errors
    want = np.zeros((t_len, n))
    for i in range(n):
        for t in range(t_len):
            acc, coef = 0.0, 1.0
            for l in range(t, t_len):
                v_next = boot[i] if l == t_len - 1 else v[l + 1, i]
                delta = r[l, i] + 0.99 * v_next * (0.0 if d[l, i] else 1.0) - v[l, i]
                acc += coef * delta
                if d[l, i]:
                    break
                coef *= 0.99 * 0.95
            want[t, i] = acc
    err = np.max(np.abs(adv - want))
    assert err < 1e-8
    assert np.max(np.abs(ret - (adv + v))) == 0.0
    note(4, f"GAE vs brute force on 1000 random done-pattern trajectories: max err {err:.2e}")


# ---------------------------------------------------------------- criterion 5


def test_acceptance_5_gradient_check():
    agent = PPOAgent(
        4, 5, 2,
        PPOConfig(policy_hidden=(6, 6), value_hidden=(6,), batch_size=64,
                  minibatch_size=32, entropy_coef=0.01),
        seed=2, dtype=np.float64,
    )
    b = 12
    obs = rng.normal(rng.stream_key(70, np.arange(b), 0, 3), 4)
    cobs = rng.normal(rng.stream_key(71, np.arange(b), 0, 3), 5)
    key = rng.stream_key(72, np.arange(b), 0, rng.CH_POLICY_SAMPLE)
    actions, logp_old = agent.policy.act(obs, stochastic=True, key=key)
    logp_old = logp_old + rng.normal(rng.stream_key(73, np.arange(b), 0, 3), 1)[:, 0] * 0.3
    adv = rng.normal(rng.stream_key(74, np.arange(b), 0, 3), 1)[:, 0]
    rets = rng.normal(rng.stream_key(75, np.arange(b), 0, 3), 1)[:, 0]

    def fd(loss_fn, params, h=1e-6):
        out = []
        for p in params:
            g = np.zeros_like(p)
            for idx in np.ndindex(p.shape):
                orig = p[idx]
                p[idx] = orig + h
                lp = loss_fn()
                p[idx] = orig - h
                lm = loss_fn()
                p[idx] = orig
                g[idx] = (lp - lm) / (2 * h)
            out.append(g)
        return out

    _, pgrads, _ = agent.policy_loss_and_grads(obs, actions, logp_old, adv)
    fd_p = fd(lambda: agent.policy_loss_and_grads(obs, actions, logp_old, adv)[0],
              agent.policy.parameters())
    worst = 0.0
    for g, f in zip(pgrads, fd_p):
        denom = max(np.abs(f).max(), 1e-10)
        worst = max(worst, np.abs(np.asarray(g, np.float64) - f).max() / denom)
    assert worst < 1e-4

    _, vgrads = agent.value_loss_and_grads(cobs, rets)
    fd_v = fd(lambda: agent.value_loss_and_grads(cobs, rets)[0], agent.value.parameters())
    worst_v = 0.0
    for g, f in zip(vgrads, fd_v):
        denom = max(np.abs(f).max(), 1e-10)
        worst_v = max(worst_v, np.abs(np.asarray(g, np.float64) - f).max() / denom)
    assert worst_v < 1e-4
    note(5, f"clipped-surrogate and value grads vs central differences: rel err {worst:.2e} / {worst_v:.2e}")


# ---------------------------------------------------------------- criterion 6


def test_acceptance_6_dr_statistics():
    n = 100_000
    cfg = DRConfig()
    ids = np.arange(n)
    zeros = np.zeros(n, dtype=np.int64)
    params = domrand.sample_episode_randomization(17, ids, zeros, cfg)
    checks = []
    for name, (lo, hi) in [
        ("scale", (0.97, 1.03)), ("mass_factor", (0.70, 1.30)),
        ("object_friction_factor", (0.70, 1.30)), ("table_friction_factor", (0.50, 1.50)),
    ]:
        vals = getattr(params, name)
        assert vals.min() >= lo and vals.max() <= hi, name
        width = hi - lo
        assert vals.min() < lo + 0.05 * width and vals.max() > hi - 0.05 * width, name
        assert abs(vals.mean() - 0.5 * (lo + hi)) < 0.05 * 0.5 * (lo + hi), name
        checks.append(name)

    # correlated offsets
    for arr, want in [
        (params.joint_pos_offset, 0.004), (params.joint_vel_offset, 0.004),
        (params.torque_offset, 0.01),
    ]:
        assert abs(arr.std() - want) < 0.05 * want
    assert np.all(params.cube_pos_offset == 0.0) and np.all(params.cube_rot_offset == 0.0)

    # per-step observation noise sigmas
    truth = np.zeros((n, 3))
    key = rng.stream_key(18, ids, 0, rng.CH_OBS_NOISE)
    noised = domrand.apply_observation_noise(truth, cfg.cube_position, 0.0, key)
    assert abs(noised.std() - 0.002) < 0.05 * 0.002
    jp = domrand.apply_observation_noise(np.zeros((n, 9)), cfg.joint_position, 0.0, key)
    assert abs(jp.std() - 0.003) < 0.05 * 0.003
    jv = domrand.apply_observation_noise(np.zeros((n, 9)), cfg.joint_velocity, 0.0, key)
    assert abs(jv.std() - 0.003) < 0.05 * 0.003
    qn = domrand.apply_orientation_noise(
        np.tile(spatial.QUAT_IDENTITY, (n, 1)), cfg.cube_orientation, np.zeros((n, 3)),
        rng.stream_key(19, ids, 0, rng.CH_OBS_NOISE),
    )
    ang = spatial.rot_dist(qn, np.tile(spatial.QUAT_IDENTITY, (n, 1)))
    assert abs(np.sqrt(np.mean(ang**2)) - 0.020) < 0.05 * 0.020

    tq = domrand.apply_action_noise(np.zeros((n, 9)), cfg.torque, 0.0,
                                    rng.stream_key(20, ids, 0, rng.CH_ACT_NOISE))
    assert abs(tq.std() - 0.02) < 0.05 * 0.02
    # with per-episode offsets folded in: sqrt(sigma^2 + sigma_corr^2)
    tq2 = domrand.apply_action_noise(np.zeros((n, 9)), cfg.torque, params.torque_offset,
                                     rng.stream_key(21, ids, 0, rng.CH_ACT_NOISE))
    want = np.sqrt(0.02**2 + 0.01**2)
    assert abs(tq2.std() - want) < 0.05 * want
    note(6, "all randomization sigmas and ranges within 5% over 1e5 draws")


# ---------------------------------------------------------------- criterion 7


def test_acceptance_7_physics_sanity():
    cfg = PhysicsConfig()
    # ballistic drop
    n = 4
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    state.obj_pos[:, 2] = 0.5
    t = 0.0
    while t < 0.1 - 1e-9:
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
        t += cfg.dt
    drop = 0.5 - state.obj_pos[:, 2]
    ballistic_err = float(np.max(np.abs(drop - 0.5 * cfg.gravity * t * t) / (0.5 * cfg.gravity * t * t)))
    assert ballistic_err < 0.05

    # static rest
    params = EnvParams.nominal(n)
    state = make_rest_state(n, cfg, params)
    start = state.obj_pos.copy()
    for _ in range(50):
        state = physics.step(state, np.zeros((n, 9)), params, cfg)
    drift = float(np.max(np.linalg.norm(state.obj_pos - start, axis=-1)))
    assert drift < 1e-4

    # single-joint torque response vs the damped-integrator closed form
    hand = HandModel(mount_height=1.5)
    jcfg = PhysicsConfig(hand=hand)
    params = EnvParams.nominal(2)
    state = make_rest_state(2, jcfg, params)
    state.joint_pos[:] = 0.0
    state.joint_pos[:, 0] = -2.0
    tau = np.zeros((2, 9))
    tau[:, 0] = 0.05
    t = 0.0
    for _ in range(40):
        state = physics.step(state, tau, params, jcfg)
        t += jcfg.dt
    i, d = hand.joint_inertia[0], hand.joint_damping
    w_true = (0.05 / d) * (1.0 - np.exp(-d * t / i))
    joint_err = float(np.max(np.abs(state.joint_vel[:, 0] - w_true) / w_true))
    assert joint_err < 0.01
    note(7, f"ballistic err {ballistic_err:.3f} (<0.05), rest drift {drift:.2e} m (<1e-4), "
            f"joint response err {joint_err:.4f} (<0.01)")


# ---------------------------------------------------------------- criterion 8


def test_acceptance_8_learning_smoke():
    budget = 300.0  # seconds
    t0 = time.perf_counter()
    cfg = resolve("smoke")
    trainer = build_trainer(cfg)
    trainer.train()
    agent = trainer.agent
    train_time = time.perf_counter() - t0
    assert train_time < budget, f"training took {train_time:.0f}s"

    oracle = cfg.reach.oracle_return
    ev = ReachTask(512, seed=12345, cfg=cfg.reach)
    obs = ev.reset_all()
    total = np.zeros(512)
    for _ in range(cfg.reach.episode_length):
        act, _ = agent.act(obs["actor"], stochastic=False)
        obs, rew, _, _ = ev.step(act)
        total += rew
    frac = float(total.mean() / oracle)
    assert frac >= 0.90, f"mean return is {frac:.3f} of oracle"

    # determinism under a fixed seed: replay the first iterations bit-exactly
    def first_records():
        return build_trainer(cfg).train(stop_after_steps=3 * cfg.ppo.batch_size)

    ra, rb = first_records(), first_records()
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    note(8, f"reach policy at {frac:.1%} of oracle return in {train_time:.0f}s; replay bit-identical")


# ---------------------------------------------------------------- criterion 9


@pytest.mark.extended
def test_acceptance_9_desk_scale_trends():
    """Hours of training: run with `pytest -m extended`."""
    total = 50_000_000
    seeds = (0, 1, 2)
    num_envs = 4096
    eval_trials = 512
    results = {}
    for reward_variant in ("keypoints", "pos_quat"):
        rot_rates = []
        reach_after_cutoff_ok = True
        for seed in seeds:
            tcfg = TaskConfig(reward_variant=reward_variant, reach_cutoff_steps=5e7)
            task = CubeReposeTask(num_envs, seed=seed, task=tcfg, dr=DRConfig(enabled=True))
            agent = PPOAgent(75, 147, 9, PPOConfig(), seed=seed)
            trainer = Trainer(task, agent, total_steps=total, seed=seed)
            records = trainer.train()
            # (b) the reach component is exactly zero once past the cutoff
            for r in records:
                if r["global_step"] > 5e7:
                    comp = r["reward_components"].get("fingertip_to_object", 0.0)
                    reach_after_cutoff_ok &= comp == 0.0
            report = harness.evaluate(
                agent, eval_trials, eval_seed=777, task=TaskConfig(reward_variant=reward_variant),
                dr=DRConfig(enabled=False),
            )
            rot_rates.append(report.rot_success_rate)
        results[reward_variant] = (float(np.mean(rot_rates)), reach_after_cutoff_ok)
    kp_rot, kp_ok = results["keypoints"]
    pq_rot, pq_ok = results["pos_quat"]
    assert kp_ok and pq_ok
    assert kp_rot > pq_rot, f"keypoints {kp_rot:.3f} vs pos-quat {pq_rot:.3f}"
    note(9, f"orientation success: keypoint reward {kp_rot:.3f} > pos-quat reward {pq_rot:.3f}; "
            f"reach term zero after 5e7 steps")


def test_acceptance_9b_reach_cutoff_in_logged_rewards():
    # desk-scale surrogate for criterion 9(b) that runs in seconds: the logged
    # fingertip_to_object component is exactly zero once total steps pass the
    # cutoff, on a scaled-down run crossing a scaled-down cutoff
    tcfg = TaskConfig(episode_length=10, reach_cutoff_steps=256)
    task = CubeReposeTask(8, seed=0, task=tcfg, dr=DRConfig(enabled=True))
    agent = PPOAgent(75, 147, 9,
                     PPOConfig(batch_size=128, minibatch_size=64, epochs=1,
                               policy_hidden=(16,), value_hidden=(16,)), seed=0)
    trainer = Trainer(task, agent, total_steps=512, seed=0)
    records = trainer.train()
    before = [r for r in records if r["global_step"] <= 256]
    after = [r for r in records if r["global_step"] > 256]
    assert any(r["reward_components"]["fingertip_to_object"] != 0.0 for r in before)
    assert all(r["reward_components"]["fingertip_to_object"] == 0.0 for r in after)
    note(9, "(scaled surrogate) reach component exactly zero in logs after the cutoff")


# ---------------------------------------------------------------- criterion 10


def test_acceptance_10_harness_invariants():
    agent = PPOAgent(75, 147, 9,
                     PPOConfig(batch_size=128, minibatch_size=64, epochs=1,
                               policy_hidden=(16,), value_hidden=(16,)), seed=1)
    tcfg = TaskConfig(episode_length=12)
    report = harness.evaluate(agent, 64, eval_seed=5, task=tcfg, dr=DRConfig(enabled=False))

    pos_ths = [0.01, 0.02, 0.05, 0.1, 0.5]
    rot_ths = [0.1, 0.3839724354387525, 1.0, 2.0, 3.2]
    m = harness.threshold_heatmap(report, pos_ths, rot_ths)
    assert np.all(np.diff(m, axis=0) >= 0.0)
    assert np.all(np.diff(m, axis=1) >= 0.0)

    combined, pos_rate, rot_rate = harness.success_breakdown(
        np.array(report.final_pos_err), np.array(report.final_rot_err),
        tcfg.success_pos_threshold, tcfg.success_rot_threshold,
    )
    assert combined <= min(pos_rate, rot_rate)

    def eval_config(seed):
        return EngineConfig(task=tcfg, harness=HarnessConfig(eval_trials=32, eval_seed=seed))

    sweep_a = harness.robustness_sweep(agent, eval_config(6), "scale", [0.8, 1.0])
    sweep_b = harness.robustness_sweep(agent, eval_config(6), "scale", [0.8, 1.0])
    assert [p["report"].to_json() for p in sweep_a] == [p["report"].to_json() for p in sweep_b]

    zs_a = harness.zero_shot_objects(agent, eval_config(7), ["cube_6.5cm", "ball_r3.75cm"])
    zs_b = harness.zero_shot_objects(agent, eval_config(7), ["cube_6.5cm", "ball_r3.75cm"])
    assert {k: v.to_json() for k, v in zs_a.items()} == {k: v.to_json() for k, v in zs_b.items()}
    note(10, "heatmap monotone, combined <= min(position, orientation), "
             "sweep and transfer reports bit-reproducible")


# ---------------------------------------------------------------- criterion 11


def test_acceptance_11_throughput_benchmark():
    cfg = resolve("paper")
    trainer = build_trainer(cfg)
    t0 = time.perf_counter()
    trainer.train(stop_after_steps=cfg.ppo.batch_size)  # one rollout and one update
    rate = cfg.ppo.batch_size / (time.perf_counter() - t0)
    assert trainer.task.num_envs == 4096
    assert rate > 0
    # reported, non-gating: the reference point for the original GPU-resident
    # system is >50,000 samples/sec
    note(11, f"N=4096 throughput: one training iteration {rate:,.0f} env-steps/sec "
             f"(reference point for the original GPU system: >50,000)")
