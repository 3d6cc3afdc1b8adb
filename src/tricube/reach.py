"""A 2-joint planar fingertip-reach task.

Minimal torque-controlled arm with no contacts: two links in a plane, a
per-episode target point, reward = logistic kernel of tip-to-target
distance.  The best achievable per-step reward is K(0) = 1/(b+2), so the
oracle episode return is ``episode_length / (b + 2)``; training sanity
checks compare mean return against that bound.  Shares the episode core
(``env.EpisodicTask``) and counter-based determinism with the cube task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .env import EpisodicTask
from .spatial import KernelParams, logistic_kernel


@dataclass
class ReachConfig:
    episode_length: int = 200
    link1_len: float = 0.16
    link2_len: float = 0.16
    joint_inertia: float = 0.004
    joint_damping: float = 0.04
    max_torque: float = 0.25
    max_joint_vel: float = 10.0
    dt: float = 0.02
    target_radius_min: float = 0.08
    target_radius_max: float = 0.25
    # gentle slope: the kernel stays informative across the whole workspace
    kernel: KernelParams = field(default_factory=lambda: KernelParams(a=10.0, b=2.0))

    @property
    def oracle_return(self) -> float:
        return self.episode_length / (self.kernel.b + 2.0)


class ReachTask(EpisodicTask):
    """Vectorized 2-DoF reach with auto-reset.  Observation (12): joint
    angles as cos/sin pairs (4), joint velocities (2), tip xy (2), target
    xy (2), tip-to-target delta (2); the angle encoding keeps the input
    bounded since the joints have no limits."""

    # per-env arrays a checkpoint carries
    STATE_PREFIX = "reach"
    STATE_FIELDS = ("q", "qd", "target", "episode_step", "episode_idx", "episode_return")

    def __init__(self, num_envs: int, seed: int = 0, cfg: ReachConfig | None = None,
                 env_offset: int = 0):
        super().__init__(num_envs, seed, env_offset)
        self.cfg = cfg or ReachConfig()
        self.action_dim = 2
        self.actor_dim = 12
        self.critic_dim = 12
        n = num_envs
        self.q = np.zeros((n, 2))
        self.qd = np.zeros((n, 2))
        self.target = np.zeros((n, 2))

    def tip_position(self, q: np.ndarray) -> np.ndarray:
        c = self.cfg
        x = c.link1_len * np.sin(q[:, 0]) + c.link2_len * np.sin(q[:, 0] + q[:, 1])
        y = -c.link1_len * np.cos(q[:, 0]) - c.link2_len * np.cos(q[:, 0] + q[:, 1])
        return np.stack([x, y], axis=-1)

    def reset_all(self) -> dict:
        self._reset_envs(np.ones(self.num_envs, dtype=bool))
        return self._observations()

    def _begin_episodes(self, ids: np.ndarray, ep: np.ndarray) -> None:
        key = rng.stream_key(self.seed, self._env_ids[ids], ep, rng.CH_REACH_TARGET)
        u = rng.uniform(key, 4)
        c = self.cfg
        r = c.target_radius_min + (c.target_radius_max - c.target_radius_min) * u[:, 0]
        th = 2.0 * np.pi * u[:, 1]
        self.target[ids, 0] = r * np.sin(th)
        self.target[ids, 1] = -r * np.cos(th)
        # random start configuration: many episodes begin near the target,
        # which densifies the learning signal of the distance kernel
        self.q[ids] = (u[:, 2:4] - 0.5) * (2.0 * np.pi)
        self.qd[ids] = 0.0

    def step(self, actions: np.ndarray):
        c = self.cfg
        a = np.asarray(actions, dtype=np.float64)
        a = np.where(np.isfinite(a), a, 0.0)
        tau = np.clip(a, -1.0, 1.0) * c.max_torque
        self.qd = self.qd + c.dt * (tau - c.joint_damping * self.qd) / c.joint_inertia
        self.qd = np.clip(self.qd, -c.max_joint_vel, c.max_joint_vel)
        self.q = self.q + c.dt * self.qd

        dist = np.linalg.norm(self.tip_position(self.q) - self.target, axis=-1)
        reward = logistic_kernel(dist, c.kernel)
        self._count_step(reward)

        done = self.episode_step >= c.episode_length
        self._end_episodes(done, success=dist < 0.01, final_pos_err=dist,
                           final_rot_err=np.zeros(self.num_envs))
        return self._observations(), reward, done, {"dist": dist}

    def _observations(self) -> dict:
        tip = self.tip_position(self.q)
        obs = np.concatenate(
            [np.cos(self.q), np.sin(self.q), self.qd, tip, self.target, tip - self.target],
            axis=-1,
        )
        return {"actor": obs, "critic": obs}
