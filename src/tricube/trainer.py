"""The training loop: rollout collection, PPO updates, metrics, checkpoints.

One iteration collects ``horizon = batch_size // num_envs`` steps from the
vectorized task, runs the PPO update at the scheduled learning rate, and
appends one JSONL record to ``metrics.jsonl``.  Everything in that file is
deterministic for a fixed seed; wall-clock quantities (elapsed time, its
collect and update phases, steps/sec) go to ``timing.jsonl`` so two
same-seed runs produce byte-identical metrics.

The critic's values feed only GAE, never the action, so the rollout runs its
step loop inside one ``nets._beside``: each step's value forward is
submitted beside that step's actor-observation prep, ``policy.act`` and
``task.step``, and the loop joins it after ``task.step`` and writes the
step's values.  The BLAS thread count picks only where the forward runs (see
``nets``): at 2 or more BLAS threads the loop holds OpenBLAS at one thread
and the forward runs on one helper thread; at one thread it runs at once on
the calling thread.  Even the smoke profile's 512-env reach rollout, whose
value forward is 128 units wide, collects faster with the helper.  Whichever
thread runs the forward runs its halves in turn (``MLP.infer_beside``),
with the bits of any other inference over the same rows.  The calling
thread keeps ``prep_critic_obs``, whose ``RunningNorm.update`` a profiler
wraps, and allocates the forward's buffers.  The bootstrap values after the
loop are an inference like any other.  Every GEMM runs at one OpenBLAS
thread over rows that do not depend on the thread count, so neither do the
rollout's bits.

Checkpoints embed the full training state: network and optimizer tensors,
environment state arrays, and the integer counters that key every random
stream.  Resuming from a checkpoint therefore continues the exact
trajectory of the uninterrupted run.  Each checkpoint also records the
run's identity (``config.run_identity`` and its hash), against which a
resume is checked, and the line count of each log at that moment, to which
a resume in the same directory cuts the logs back.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict

import numpy as np

from . import nets, rng
from .config import EngineConfig, config_hash, run_identity
from .env import CubeReposeTask
from .ppo import PPOAgent, check_tensors, gae, lr_schedule
from .reach import ReachTask

LOGS = ("metrics.jsonl", "timing.jsonl", "episodes.jsonl")


def make_task(name: str, num_envs: int, seed: int, task=None, phys=None, dr=None, reach=None):
    if name == "cube_repose":
        return CubeReposeTask(num_envs, seed=seed, task=task, phys=phys, dr=dr)
    if name == "reach":
        return ReachTask(num_envs, seed=seed, cfg=reach)
    raise ValueError(f"unknown task {name!r}")


def _task_for(cfg: EngineConfig, num_envs: int):
    return make_task(cfg.run.task, num_envs, cfg.run.seed, task=cfg.task, phys=cfg.physics,
                     dr=cfg.dr, reach=cfg.reach)


def build_agent_for(cfg: EngineConfig, tensors: dict | None = None) -> PPOAgent:
    """The configured agent, sized by a one-env task of the config; given a
    checkpoint's ``tensors``, it holds them in place of drawn parameters
    (see ``PPOAgent``)."""
    probe = _task_for(cfg, 1)
    return PPOAgent(probe.actor_dim, probe.critic_dim, probe.action_dim, cfg=cfg.ppo,
                    seed=cfg.run.seed, tensors=tensors)


def build_trainer(cfg: EngineConfig, out_dir: str | None = None) -> Trainer:
    """The run ``cfg`` describes: its task, its agent and their trainer,
    logging and checkpointing into ``out_dir`` when one is given."""
    agent = build_agent_for(cfg)
    agent.dump_dir = out_dir
    return Trainer(
        _task_for(cfg, cfg.run.num_envs), agent, total_steps=cfg.run.total_steps, out_dir=out_dir,
        checkpoint_interval=cfg.run.checkpoint_interval, seed=cfg.run.seed, config=cfg,
    )


class Trainer:
    def __init__(
        self,
        task,
        agent: PPOAgent,
        total_steps: int,
        out_dir: str | None = None,
        checkpoint_interval: int = 50,  # iterations
        seed: int = 0,
        config: EngineConfig | None = None,  # the resolved config, stored in checkpoints
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
        self.config = config
        self.obs = None
        self._logs = {name: os.path.join(out_dir, name) for name in LOGS} if out_dir else {}

    def _append(self, name: str, records: list[dict]) -> None:
        if name in self._logs and records:
            with open(self._logs[name], "a") as f:
                f.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)

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
        # each step's value forward runs beside the policy and the env step,
        # on a helper thread at 2 or more BLAS threads (see the module docstring)
        with nets._beside(True) as submit:
            for t in range(h):
                c_obs = agent.prep_critic_obs(obs["critic"], update=True)
                step_values = agent.values_beside(c_obs, submit)
                a_obs = agent.prep_actor_obs(obs["actor"], update=True)
                key = rng.stream_key(self.seed, task.env_ids, agent.global_step + t * n,
                                     rng.CH_POLICY_SAMPLE)
                act, logp = agent.policy.act(a_obs, stochastic=True, key=key)
                actor_obs[t] = a_obs
                critic_obs[t] = c_obs
                actions[t] = act
                logps[t] = logp
                obs, rew, done, info = task.step(act)
                values[t] = step_values()
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
        self._append("episodes.jsonl", records)
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
            t1 = time.perf_counter()
            upd = self.agent.update(batch, lr)
            t2 = time.perf_counter()
            elapsed = t2 - t0

            record = {"iteration": self.agent.iteration, "global_step": self.agent.global_step,
                      "lr": lr, **stats, **asdict(upd)}
            out.append(record)
            self._append("metrics.jsonl", [record])
            self._append("timing.jsonl", [{
                "iteration": self.agent.iteration,
                "seconds": elapsed,
                "collect_seconds": t1 - t0,
                "update_seconds": t2 - t1,
                "env_steps_per_sec": self.agent.cfg.batch_size / elapsed,
            }])
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
        meta = {"log_lines": {name: _count_lines(p) for name, p in self._logs.items()}}
        if self.config is not None:
            meta.update(config=run_identity(self.config), config_hash=config_hash(self.config))
        self.agent.save(path, extra_tensors=extra, extra_meta=meta)

    def load_checkpoint(self, tensors: dict, meta: dict) -> None:
        """Continue from the tensors and manifest ``ppo.read_checkpoint``
        returned; ``ValueError`` before any change if a counter is not a
        count, or a tensor the agent or the task needs is missing or of another
        dtype or shape."""
        counters = meta.get("iteration"), meta.get("global_step")
        if not all(type(c) is int and c >= 0 for c in counters):
            raise ValueError(f"the checkpoint's iteration and global step are {counters}")
        check_tensors(tensors, {f"env.{k}": v for k, v in self.task.state_dict().items()})
        self.agent.load_tensors(tensors)
        self.agent.iteration, self.agent.global_step = counters
        self.obs = self.task.load_state_dict(
            {k[len("env."):]: v for k, v in tensors.items() if k.startswith("env.")})

    def truncate_logs(self, log_lines) -> None:
        """Cut each log back to the line count a checkpoint recorded, so a
        resume in the same directory continues after the checkpoint's last
        record.  ``log_lines`` that is not a dict, a count that is missing or
        not a non-negative int, and a log shorter than its count raise
        ``ValueError`` before any log is cut."""
        if not isinstance(log_lines, dict):
            raise ValueError(
                f"the checkpoint's log_lines is {log_lines!r}, not a dict of line counts")
        for name, path in self._logs.items():
            keep, have = log_lines.get(name), _count_lines(path)
            if type(keep) is not int or keep < 0:
                raise ValueError(
                    f"the checkpoint's log_lines[{name!r}] is {keep!r}, not a line count")
            if have < keep:
                raise ValueError(f"{path} holds {have} lines; the checkpoint recorded {keep}")
        for name, path in self._logs.items():
            if os.path.exists(path):
                with open(path, "rb+") as f:
                    for _ in range(log_lines[name]):
                        f.readline()
                    f.truncate(f.tell())


def _count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
