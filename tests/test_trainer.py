import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from tricube import config, nets
from tricube.config import EngineConfig, RunConfig
from tricube.env import TaskConfig
from tricube.ppo import PPOAgent, PPOConfig, read_checkpoint
from tricube.reach import ReachConfig, ReachTask
from tricube.trainer import Trainer, build_agent_for, build_trainer

TASKS = ("cube_repose", "reach")


def tiny_cfg(**kw):
    base = dict(
        batch_size=128, minibatch_size=64, epochs=2,
        policy_hidden=(16, 16), value_hidden=(16,),
        lr_start=3e-4, lr_end=1e-5,
    )
    base.update(kw)
    return PPOConfig(**base)


def tiny_trainer(seed=0, out_dir=None, total=512, num_envs=8, task="cube_repose", checkpoint=None):
    run = RunConfig(seed=seed, task=task, num_envs=num_envs, total_steps=total,
                    checkpoint_interval=0)
    return build_trainer(EngineConfig(task=TaskConfig(episode_length=12),
                                      reach=ReachConfig(episode_length=10), ppo=tiny_cfg(), run=run),
                         out_dir, checkpoint)


def test_rollout_shapes_and_gae_plumbing():
    tr = tiny_trainer()
    batch, stats = tr.collect_rollout()
    n = 128
    assert batch["actor_obs"].shape == (n, 75)
    assert batch["critic_obs"].shape == (n, 147)
    assert batch["actions"].shape == (n, 9)
    for k in ("logp", "advantages", "returns"):
        assert batch[k].shape == (n,)
    assert np.all(np.isfinite(batch["advantages"]))
    assert "fingertip_to_object" in stats["reward_components"]


def test_train_loop_runs_and_counts_steps():
    tr = tiny_trainer(total=512)
    records = tr.train()
    assert tr.agent.global_step == 512
    assert len(records) == 4  # 512 / 128
    assert records[0]["iteration"] == 1
    assert records[-1]["global_step"] == 512
    assert np.isfinite(records[-1]["policy_loss"])


def test_same_seed_trainers_are_bit_identical():
    ra = tiny_trainer(seed=3).train()
    rb = tiny_trainer(seed=3).train()
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    rc = tiny_trainer(seed=4).train()
    assert json.dumps(ra, sort_keys=True) != json.dumps(rc, sort_keys=True)


@pytest.mark.parametrize("task", TASKS)
def test_resume_matches_uninterrupted(tmp_path, task):
    # uninterrupted run
    full = tiny_trainer(seed=5, total=768, task=task)
    full_records = full.train()

    # interrupted at 384 steps, checkpointed, resumed in a fresh process-alike
    part1 = tiny_trainer(seed=5, total=768, task=task)
    part1_records = part1.train(stop_after_steps=384)
    ckpt = str(tmp_path / "mid.tckpt")
    part1.save_checkpoint(ckpt)

    part2 = tiny_trainer(seed=5, total=768, task=task, checkpoint=read_checkpoint(ckpt))
    part2_records = part2.train()

    merged = part1_records + part2_records
    assert json.dumps(merged, sort_keys=True) == json.dumps(full_records, sort_keys=True)


def test_reach_task_trainer_smoke():
    task = ReachTask(8, seed=0, cfg=ReachConfig(episode_length=16))
    agent = PPOAgent(task.actor_dim, task.critic_dim, task.action_dim, tiny_cfg(), seed=0)
    tr = Trainer(task, agent, total_steps=256, seed=0)
    records = tr.train()
    assert agent.global_step == 256
    assert all(np.isfinite(r["mean_reward"]) for r in records)


def test_batch_size_num_envs_mismatch_rejected():
    task = ReachTask(7, seed=0)
    agent = PPOAgent(task.actor_dim, task.critic_dim, task.action_dim, tiny_cfg(), seed=0)
    with pytest.raises(ValueError):
        Trainer(task, agent, total_steps=100, seed=0)


@pytest.mark.parametrize("task", TASKS)
def test_metrics_files_written(tmp_path, task):
    tr = tiny_trainer(seed=1, out_dir=str(tmp_path), total=256, task=task)
    tr.train()
    lines = [json.loads(l) for l in open(tmp_path / "metrics.jsonl")]
    assert len(lines) == 2
    assert {"iteration", "global_step", "lr", "mean_reward", "kl"} <= set(lines[0])
    timing = [json.loads(l) for l in open(tmp_path / "timing.jsonl")]
    assert len(timing) == 2 and timing[0]["env_steps_per_sec"] > 0
    for t in timing:  # the two phases lie inside the iteration's seconds
        assert t["collect_seconds"] >= 0 and t["update_seconds"] >= 0
        assert t["collect_seconds"] + t["update_seconds"] <= t["seconds"]
    assert (tmp_path / "ckpt_final.tckpt").exists()
    episodes = [json.loads(l) for l in open(tmp_path / "episodes.jsonl")]
    cube_only = {"success_any", "fault"} if task == "cube_repose" else set()
    assert episodes and all(
        set(e) == {"episode", "env_id", "success", "final_pos_err", "final_rot_err", "return"}
        | cube_only for e in episodes)


# the sha256 of every (name, bytes) of a fresh agent's checkpointed arrays:
# building loaded agents another way must leave a fresh draw as it is
DRAWN = {"paper": "89daa56855fa9093", "smoke": "85067b5a623be71a"}


@pytest.mark.parametrize("profile", DRAWN)
def test_a_fresh_agent_draws_the_parameters_it_always_drew(profile, monkeypatch):
    draws, real = [], nets.orthogonal_init
    monkeypatch.setattr(nets, "orthogonal_init", lambda *a: draws.append(a) or real(*a))
    agent = build_agent_for(config.resolve(profile))
    digest = hashlib.sha256()
    for name, arr in agent._net_tensors().items():
        digest.update(name.encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest()[:16] == DRAWN[profile]
    assert len(draws) == agent.policy.trunk.n_layers + agent.value.trunk.n_layers


# one smoke-profile (reach, 512 envs) iteration after two others, in a fresh
# process: the minor page faults of its update and whether nets pinned the heap
UPDATE_FAULTS = """
import resource
from tricube import config, nets, trainer
tr = trainer.build_trainer(config.resolve("smoke"))
for _ in range(3):
    batch, _ = tr.collect_rollout()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.agent.update(batch, tr.agent.cfg.lr_start)
print(nets.pin_heap(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def update_faults(**malloc_env) -> tuple[bool, int]:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in nets.GLIBC_MALLOC_ENV + ("GLIBC_TUNABLES",)}
    env.update(malloc_env, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", UPDATE_FAULTS], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pinned, faults = proc.stdout.split()
    return pinned == "True", int(faults)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_a_training_update_reuses_the_pages_of_the_last():
    """Building a net pins glibc's heap, so an update takes its fresh
    activations and deltas from pages earlier updates faulted in; an
    environment that sets a threshold keeps it, and at glibc's 128 KiB mmap
    threshold every such buffer is faulted in again."""
    pinned, faults = update_faults()
    assert pinned and faults < 1000
    pinned, faults = update_faults(MALLOC_TRIM_THRESHOLD_=str(128 << 10))
    assert not pinned and faults > 10000
