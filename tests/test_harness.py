import json

import numpy as np
import pytest

from tricube import config, harness
from tricube.config import EngineConfig, HarnessConfig, RunConfig
from tricube.domrand import DRConfig
from tricube.env import TaskConfig
from tricube.harness import (
    EvalReport,
    evaluate,
    robustness_sweep,
    run_ablation,
    success_breakdown,
    threshold_heatmap,
    wilson_interval,
    zero_shot_objects,
)
from tricube.physics import PhysicsConfig
from tricube.ppo import PPOAgent, PPOConfig


def tiny_agent(variant="keypoints", seed=0):
    from tricube.env import actor_obs_dim, critic_obs_dim

    cfg = PPOConfig(batch_size=128, minibatch_size=64, epochs=1,
                    policy_hidden=(16,), value_hidden=(16,))
    return PPOAgent(actor_obs_dim(variant), critic_obs_dim(variant), 9, cfg, seed=seed)


def short_task(**kw):
    kw.setdefault("episode_length", 10)
    return TaskConfig(**kw)


def eval_config(trials, seed, task=None):
    return EngineConfig(task=task or TaskConfig(),
                        harness=HarnessConfig(eval_trials=trials, eval_seed=seed))


# ------------------------------------------------------------------ wilson


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 40)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(40, 40)
    assert 0.9 < lo < 1.0 and hi > 0.999
    lo, hi = wilson_interval(20, 40)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_shrinks_like_sqrt_n():
    widths = []
    for n in (100, 400, 1600):
        lo, hi = wilson_interval(n // 2, n)
        widths.append(hi - lo)
    assert abs(widths[0] / widths[1] - 2.0) < 0.1
    assert abs(widths[1] / widths[2] - 2.0) < 0.1


def test_wilson_contains_truth_on_synthetic_bernoulli():
    rng = np.random.default_rng(0)
    p_true = 0.3
    miss = 0
    for trial in range(200):
        k = rng.binomial(200, p_true)
        lo, hi = wilson_interval(int(k), 200)
        if not (lo <= p_true <= hi):
            miss += 1
    # 80% interval: ~20% misses expected, with discrete-coverage wobble
    assert 0.1 * 200 < miss < 0.3 * 200


# ------------------------------------------------------------------ breakdown


def test_success_breakdown_cases():
    assert success_breakdown(np.zeros(5), np.zeros(5), 0.02, 0.38) == (1.0, 1.0, 1.0)
    pos = np.full(4, 0.01)
    rot = np.full(4, 3.0)
    combined, p, r = success_breakdown(pos, rot, 0.02, 0.38)
    assert (combined, p, r) == (0.0, 1.0, 0.0)
    assert success_breakdown(np.array([]), np.array([]), 0.02, 0.38) == (0.0, 0.0, 0.0)


def test_success_breakdown_scores_nan_errors_as_failures():
    pos = np.array([np.nan, 0.01, 0.01, np.nan])
    rot = np.array([0.1, np.nan, 0.1, np.nan])
    assert success_breakdown(pos, rot, 0.02, 0.38) == (0.25, 0.5, 0.5)


def test_combined_never_exceeds_marginals():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 0.05, 500)
    rot = rng.uniform(0, 1.0, 500)
    combined, p, r = success_breakdown(pos, rot, 0.02, 0.38)
    assert combined <= min(p, r)


# ------------------------------------------------------------------ evaluate


def test_evaluate_report_shape_and_reproducibility():
    agent = tiny_agent()
    rep1 = evaluate(agent, 16, eval_seed=42, task=short_task(), dr=DRConfig(enabled=False))
    rep2 = evaluate(agent, 16, eval_seed=42, task=short_task(), dr=DRConfig(enabled=False))
    assert rep1.to_json() == rep2.to_json()
    assert rep1.n_trials == 16
    assert len(rep1.final_pos_err) == 16
    assert 0.0 <= rep1.success_rate <= 1.0
    assert rep1.ci_lo <= rep1.success_rate <= rep1.ci_hi
    rep3 = evaluate(agent, 16, eval_seed=43, task=short_task(), dr=DRConfig(enabled=False))
    assert rep3.to_json() != rep1.to_json()
    # round trip through json
    assert EvalReport(**json.loads(rep1.to_json())).to_json() == rep1.to_json()


class NaNOnSteps:
    """A deterministic policy that holds still and emits NaN actions for
    ``envs`` on the given (1-based) ``steps``."""

    def __init__(self, steps, envs=slice(None)):
        self.steps, self.envs, self.calls = steps, envs, 0

    def act(self, obs, stochastic=False):
        self.calls += 1
        act = np.zeros((len(obs), 9))
        if self.calls in self.steps:
            act[self.envs] = np.nan
        return act, None


def test_faulted_trials_are_scored_as_failures():
    # thresholds every pose meets: only the fault can fail a trial
    task = short_task(episode_length=5, success_pos_threshold=10.0, success_rot_threshold=4.0)
    rep = evaluate(NaNOnSteps({5}), 4, eval_seed=0, task=task)
    assert (rep.success_rate, rep.pos_success_rate, rep.rot_success_rate,
            rep.success_any_rate) == (0.0, 0.0, 0.0, 0.0)
    assert rep.fault == [True] * 4
    assert threshold_heatmap(rep, [10.0], [4.0]).tolist() == [[0.0]]
    held = evaluate(NaNOnSteps({6}), 4, eval_seed=0, task=task)
    assert held.fault == [False] * 4 and held.success_rate == 1.0


def test_a_trial_that_faults_twice_is_one_failed_trial():
    # env 0 faults on steps 2 and 4 of 5: the episode its first fault's
    # reset starts faults again, and only the first episode is its trial
    task = short_task(episode_length=5, success_pos_threshold=10.0, success_rot_threshold=4.0)
    rep = evaluate(NaNOnSteps({2, 4}, envs=[0]), 4, eval_seed=0, task=task)
    assert rep.n_trials == len(rep.final_pos_err) == 4
    assert rep.fault == [True, False, False, False]
    assert rep.success_rate == rep.success_any_rate == 0.75


def test_zero_trials_give_a_well_formed_report():
    rep = evaluate(tiny_agent(), 0, eval_seed=0, task=short_task())
    assert rep.n_trials == 0 and rep.final_pos_err == rep.fault == []
    assert rep.mean_return == rep.success_rate == rep.success_any_rate == 0.0
    assert (rep.ci_lo, rep.ci_hi) == (0.0, 1.0)
    assert threshold_heatmap(rep, [0.01, 0.02], [0.2]).tolist() == [[0.0], [0.0]]
    assert "NaN" not in rep.to_json()


def test_evaluation_is_paired_across_policies():
    # different policies, same eval seed: the goals and resets are identical,
    # so per-trial errors are comparable one to one
    from tricube.env import CubeReposeTask

    a = CubeReposeTask(8, seed=42, task=short_task(), dr=DRConfig(enabled=False))
    b = CubeReposeTask(8, seed=42, task=short_task(), dr=DRConfig(enabled=False))
    a.reset_all()
    b.reset_all()
    assert np.array_equal(a.goal_pos, b.goal_pos)
    assert np.array_equal(a.goal_quat, b.goal_quat)


# ------------------------------------------------------------------ heatmap


def synthetic_report(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return EvalReport(
        success_rate=0.0, ci_lo=0.0, ci_hi=0.0, n_trials=n, mean_return=0.0,
        pos_success_rate=0.0, rot_success_rate=0.0, success_any_rate=0.0,
        final_pos_err=list(rng.uniform(0, 0.06, n)),
        final_rot_err=list(rng.uniform(0, 0.9, n)),
        fault=[False] * n,
    )


def test_heatmap_monotone_and_matches_headline():
    rep = synthetic_report()
    pos_ths = [0.01, 0.02, 0.03, 0.05]
    rot_ths = [0.19, 0.3839724354387525, 0.58, 0.79]
    m = threshold_heatmap(rep, pos_ths, rot_ths)
    assert m.shape == (4, 4)
    # monotone non-decreasing when loosening either threshold
    assert np.all(np.diff(m, axis=0) >= 0)
    assert np.all(np.diff(m, axis=1) >= 0)
    assert m[-1, -1] >= m[i, j] - 1e-12 if (i := 0) is not None and (j := 0) is not None else True
    combined, _, _ = success_breakdown(
        np.array(rep.final_pos_err), np.array(rep.final_rot_err), 0.02, 0.3839724354387525
    )
    assert m[1, 1] == combined
    # re-scoring the same trials is exact
    assert np.array_equal(m, threshold_heatmap(rep, pos_ths, rot_ths))


# ------------------------------------------------------------------ sweeps


def test_robustness_sweep_nominal_matches_direct_eval():
    agent = tiny_agent()
    cfg = eval_config(8, 7, short_task())
    pts = robustness_sweep(agent, cfg, "scale", [1.0])
    direct = evaluate(agent, 8, eval_seed=7, task=short_task(), dr=DRConfig(enabled=False),
                      config_hash=config.config_hash(cfg))
    assert pts[0]["report"].to_json() == direct.to_json()


def test_robustness_sweep_reproducible_and_validated():
    agent = tiny_agent()
    a = robustness_sweep(agent, eval_config(8, 9, short_task()), "mass", [0.5, 2.0])
    b = robustness_sweep(agent, eval_config(8, 9, short_task()), "mass", [0.5, 2.0])
    assert [p["report"].to_json() for p in a] == [p["report"].to_json() for p in b]
    with pytest.raises(ValueError):
        robustness_sweep(agent, eval_config(4, 9), "friction", [1.0])
    with pytest.raises(ValueError):
        robustness_sweep(agent, eval_config(4, 9), "scale", [])


# ------------------------------------------------------------------ zero-shot


def test_zero_shot_runs_and_rejects_unknown():
    agent = tiny_agent()
    reports = zero_shot_objects(
        agent, eval_config(8, 11, short_task()), ["cube_6.5cm", "ball_r3.75cm", "cuboid_2x8x2cm"],
    )
    assert set(reports) == {"cube_6.5cm", "ball_r3.75cm", "cuboid_2x8x2cm"}
    for rep in reports.values():
        assert rep.n_trials == 8
    with pytest.raises(ValueError, match="unsupported object"):
        zero_shot_objects(agent, eval_config(4, 11), ["ycb_mug"])


def test_zero_shot_training_cube_equals_nominal_eval():
    agent = tiny_agent()
    cfg = eval_config(8, 13, short_task())
    reports = zero_shot_objects(agent, cfg, ["cube_6.5cm"])
    tcfg = short_task()
    tcfg.keypoint_half_extents = (0.0325, 0.0325, 0.0325)
    direct = evaluate(agent, 8, eval_seed=13, task=tcfg, dr=DRConfig(enabled=False),
                      config_hash=config.config_hash(cfg))
    assert reports["cube_6.5cm"].to_json() == direct.to_json()


def test_zero_shot_sphere_keeps_cube_keypoints():
    from tricube.env import CubeReposeTask
    from tricube.physics import ObjectParams

    tcfg = short_task()
    tcfg.keypoint_half_extents = (0.0325, 0.0325, 0.0325)
    pcfg = PhysicsConfig(object=ObjectParams(kind="sphere", radius=0.0375))
    env = CubeReposeTask(2, seed=0, task=tcfg, phys=pcfg, dr=DRConfig(enabled=False))
    assert np.all(np.abs(env.local_keypoints) == 0.0325)


# ------------------------------------------------------------------ ablation


def micro_ablation_config(dr_enabled=True):
    return EngineConfig(
        task=short_task(),
        dr=DRConfig(enabled=dr_enabled),
        ppo=PPOConfig(batch_size=80, minibatch_size=40, epochs=1,
                      policy_hidden=(16,), value_hidden=(16,)),
        harness=HarnessConfig(ablation_seeds=(0,), ablation_total_steps=160,
                              eval_trials=4, eval_seed=99),
        run=RunConfig(num_envs=8),
    )


def test_run_ablation_micro():
    cfg = micro_ablation_config()
    results = run_ablation(cfg)
    assert set(results) == {"O-KP+R-KP", "O-KP+R-PQ", "O-PQ+R-KP", "O-PQ+R-PQ"}
    for variant, by_seed in results.items():
        arm = by_seed[0]
        assert len(arm["curve"]) == 2  # 160 / 80 iterations
        assert arm["report"].n_trials == 4
    # identical config re-run reproduces the grid
    results2 = run_ablation(cfg)
    for variant in results:
        assert results[variant][0]["report"].to_json() == results2[variant][0]["report"].to_json()


def test_ablation_records_divergence_and_continues(monkeypatch):
    from tricube import trainer as trainer_mod

    calls = {"n": 0}
    real_train = trainer_mod.Trainer.train

    def explode_first(self, stop_after_steps=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise FloatingPointError("synthetic divergence")
        return real_train(self, stop_after_steps)

    monkeypatch.setattr(trainer_mod.Trainer, "train", explode_first)
    results = run_ablation(micro_ablation_config(dr_enabled=False))
    assert results["O-KP+R-KP"][0]["error"] == "synthetic divergence"
    assert results["O-KP+R-KP"][0]["report"] is None
    assert results["O-PQ+R-PQ"][0]["report"] is not None  # the grid continued


def test_ablation_arms_use_the_whole_config(monkeypatch):
    # every arm trains on the config's DR and PPO blocks, with nets sized by
    # its task, and every report carries the config's hash
    from tricube import trainer as trainer_mod

    cfg = micro_ablation_config()
    cfg.dr.external_force.prob = 0.0
    seen = []

    def record(self, stop_after_steps=None):
        seen.append((self.task, self.agent))
        return []

    monkeypatch.setattr(trainer_mod.Trainer, "train", record)
    results = run_ablation(cfg)
    assert list(results) == ["O-KP+R-KP", "O-KP+R-PQ", "O-PQ+R-KP", "O-PQ+R-PQ"]
    assert [t.cfg.obs_variant for t, _ in seen] == ["keypoints"] * 2 + ["pos_quat"] * 2
    assert [t.cfg.reward_variant for t, _ in seen] == ["keypoints", "pos_quat"] * 2
    for task, agent in seen:
        assert task.dr is cfg.dr and agent.cfg is cfg.ppo
        assert agent.shape()["actor_obs_dim"] == task.actor_dim
        assert agent.shape()["critic_obs_dim"] == task.critic_dim
        assert agent.shape()["action_dim"] == task.action_dim
    for by_seed in results.values():
        assert by_seed[0]["report"].config_hash == config.config_hash(cfg)


def test_hash_helpers(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(b"hello world")
    h1 = harness.hash_file(str(p))
    p2 = tmp_path / "blob2.bin"
    p2.write_bytes(b"hello world")
    assert harness.hash_file(str(p2)) == h1
