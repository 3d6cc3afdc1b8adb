"""The training loop: rollout collection, PPO updates, metrics, checkpoints.

One iteration collects ``horizon = batch_size // num_envs`` steps from the
vectorized task, runs the PPO update at the scheduled learning rate, and
appends one JSONL record to ``metrics.jsonl``.  Everything in that file is
deterministic for a fixed seed; wall-clock quantities (steps/sec, elapsed
time) go to ``timing.jsonl`` so two same-seed runs produce byte-identical
metrics.

Checkpoints embed the full training state: network and optimizer tensors,
environment state arrays, and the integer counters that key every random
stream.  Resuming from a checkpoint therefore continues the exact
trajectory of the uninterrupted run.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from . import rng
from .env import CubeReposeTask
from .ppo import PPOAgent, gae, lr_schedule, read_checkpoint
from .reach import ReachTask


def make_task(name: str, num_envs: int, seed: int, task=None, phys=None, dr=None, reach=None):
    if name == "cube_repose":
        return CubeReposeTask(num_envs, seed=seed, task=task, phys=phys, dr=dr)
    if name == "reach":
        return ReachTask(num_envs, seed=seed, cfg=reach)
    raise ValueError(f"unknown task {name!r}")


class Trainer:
    def __init__(
        self,
        task,
        agent: PPOAgent,
        total_steps: int,
        out_dir: str | None = None,
        checkpoint_interval: int = 50,  # iterations
        seed: int = 0,
    ):
        cfg = agent.cfg
        if cfg.batch_size % task.num_envs != 0:
            raise ValueError(
                f"batch size {cfg.batch_size} not divisible by num_envs {task.num_envs}"
            )
        self.task = task
        self.agent = agent
        self.horizon = cfg.batch_size // task.num_envs
        self.total_steps = total_steps
        self.out_dir = out_dir
        self.checkpoint_interval = checkpoint_interval
        self.seed = seed
        self.obs = None
        self._metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
        self._timing_path = os.path.join(out_dir, "timing.jsonl") if out_dir else None
        self._episodes_path = os.path.join(out_dir, "episodes.jsonl") if out_dir else None
        self.last_metrics: dict | None = None

    # ------------------------------------------------------------ rollouts

    def collect_rollout(self) -> tuple[dict, dict]:
        """Run ``horizon`` policy steps; returns (flat batch, episode stats)."""
        task, agent = self.task, self.agent
        n, h = task.num_envs, self.horizon
        actor_obs = np.empty((h, n, task.actor_dim), dtype=np.float32)
        critic_obs = np.empty((h, n, task.critic_dim), dtype=np.float32)
        actions = np.empty((h, n, task.action_dim), dtype=np.float32)
        logps = np.empty((h, n), dtype=np.float64)
        rewards = np.empty((h, n), dtype=np.float64)
        values = np.empty((h, n), dtype=np.float64)
        dones = np.empty((h, n), dtype=bool)
        comp_sums = {}

        if self.obs is None:
            self.obs = task.reset_all()
        obs = self.obs
        for t in range(h):
            a_obs = agent.prep_actor_obs(obs["actor"], update=True)
            c_obs = agent.prep_critic_obs(obs["critic"], update=True)
            key = rng.stream_key(self.seed, np.arange(n), agent.global_step + t * n, rng.CH_POLICY_SAMPLE)
            act, logp = agent.policy.act(a_obs, stochastic=True, key=key)
            actor_obs[t] = a_obs
            critic_obs[t] = c_obs
            actions[t] = act
            logps[t] = logp
            values[t] = agent.predict_values(c_obs)
            obs, rew, done, info = task.step(act)
            rewards[t] = rew
            dones[t] = done
            for name, arr in info.get("reward_components", {}).items():
                comp_sums[name] = comp_sums.get(name, 0.0) + float(np.mean(arr))
        self.obs = obs
        bootstrap = agent.predict_values(agent.prep_critic_obs(obs["critic"]))

        adv, ret = gae(rewards, values, dones, bootstrap, agent.cfg.gamma, agent.cfg.gae_tau)
        batch = {
            "actor_obs": actor_obs.reshape(h * n, -1),
            "critic_obs": critic_obs.reshape(h * n, -1),
            "actions": actions.reshape(h * n, -1),
            "logp": logps.reshape(h * n),
            "advantages": adv.reshape(h * n),
            "returns": ret.reshape(h * n),
        }
        agent.global_step += h * n

        records = task.drain_episode_records()
        if self._episodes_path and records:
            with open(self._episodes_path, "a") as f:
                for r in records:
                    f.write(json.dumps(r, sort_keys=True) + "\n")
        stats = {
            "mean_reward": float(rewards.mean()),
            "episodes": len(records),
            "success_rate": (
                float(np.mean([r["success"] for r in records])) if records else None
            ),
            "success_any_rate": (
                float(np.mean([r.get("success_any", r["success"]) for r in records]))
                if records
                else None
            ),
            "mean_return": (
                float(np.mean([r["return"] for r in records])) if records else None
            ),
            "reward_components": {k: v / h for k, v in comp_sums.items()},
        }
        return batch, stats

    # ------------------------------------------------------------ training

    def train(self, stop_after_steps: int | None = None) -> list[dict]:
        """Iterate until ``total_steps`` (or ``stop_after_steps``) env steps.

        Returns the list of per-iteration metric records (also streamed to
        metrics.jsonl when an output directory is set).
        """
        out = []
        while self.agent.global_step < self.total_steps:
            if stop_after_steps is not None and self.agent.global_step >= stop_after_steps:
                break
            t0 = time.perf_counter()
            lr = lr_schedule(self.agent.global_step, self.total_steps, self.agent.cfg)
            batch, stats = self.collect_rollout()
            upd = self.agent.update(batch, lr)
            elapsed = time.perf_counter() - t0

            record = {
                "iteration": self.agent.iteration,
                "global_step": self.agent.global_step,
                "lr": lr,
                "mean_reward": stats["mean_reward"],
                "success_rate": stats["success_rate"],
                "success_any_rate": stats["success_any_rate"],
                "mean_return": stats["mean_return"],
                "episodes": stats["episodes"],
                "reward_components": stats["reward_components"],
                "policy_loss": upd.policy_loss,
                "value_loss": upd.value_loss,
                "kl": upd.kl,
                "clip_fraction": upd.clip_fraction,
                "entropy": upd.entropy,
            }
            out.append(record)
            self.last_metrics = record
            if self._metrics_path:
                with open(self._metrics_path, "a") as f:
                    f.write(json.dumps(record, sort_keys=True) + "\n")
            if self._timing_path:
                with open(self._timing_path, "a") as f:
                    f.write(
                        json.dumps(
                            {
                                "iteration": self.agent.iteration,
                                "seconds": elapsed,
                                "env_steps_per_sec": self.agent.cfg.batch_size / elapsed,
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
            if (
                self.out_dir
                and self.checkpoint_interval > 0
                and self.agent.iteration % self.checkpoint_interval == 0
            ):
                self.save_checkpoint(os.path.join(self.out_dir, f"ckpt_{self.agent.iteration:06d}.tckpt"))
        if self.out_dir:
            self.save_checkpoint(os.path.join(self.out_dir, "ckpt_final.tckpt"))
        return out

    # ------------------------------------------------------------ persistence

    def save_checkpoint(self, path: str) -> None:
        extra = {f"env.{k}": v for k, v in self.task.state_dict().items()}
        self.agent.save(
            path,
            extra_tensors=extra,
            extra_meta={"trainer": {"total_steps": self.total_steps, "horizon": self.horizon}},
        )

    def load_checkpoint(self, path: str) -> None:
        tensors, meta = read_checkpoint(path)
        self.agent.load_tensors(tensors)
        self.agent.iteration = meta["iteration"]
        self.agent.global_step = meta["global_step"]
        env_state = {k[len("env."):]: v for k, v in tensors.items() if k.startswith("env.")}
        if env_state:
            self.task.load_state_dict(env_state)
            self.obs = self.task._observations()
