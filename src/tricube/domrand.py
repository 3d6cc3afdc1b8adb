"""Domain randomization: per-episode physical-parameter scaling, correlated
plus per-step Gaussian observation/action noise, and the external-force
perturbation schedule.  Noise only adds; the hand's limits (``HandModel``)
bound what the task observes and what ``physics.step`` applies.

Noise channels have two parts: ``sigma`` is sampled fresh every timestep,
``sigma_corr`` once at episode start and held, modeling calibration bias.
Orientation noise is not additive: the cube quaternion is perturbed by a
rotation about a uniformly random axis with angle ~ N(0, sigma^2) radians,
applied to the pose in the world frame before keypoints are computed, so
noised keypoints always describe a rigid cube.

Every draw is a pure function of (seed, env_id, counter, channel); see
``rng``.  With ``enabled=False`` the sampling entry points short-circuit,
so trajectories are bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng, spatial
from .domains import FLAG, NON_NEGATIVE, PAIR, POSITIVE, Checked, leaf, list_of
from .physics import N_JOINTS, EnvParams, ExternalForceConfig


@dataclass
class NoiseSpec(Checked):
    sigma: float = leaf(0.0, NON_NEGATIVE)
    sigma_corr: float = leaf(0.0, NON_NEGATIVE)


@dataclass
class DRConfig(Checked):
    """Default values are the reference randomization profile."""

    enabled: bool = leaf(True, FLAG)
    cube_position: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.002, 0.0))
    cube_orientation: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.020, 0.0))
    joint_position: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.003, 0.004))
    joint_velocity: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.003, 0.004))
    torque: NoiseSpec = field(default_factory=lambda: NoiseSpec(0.02, 0.01))
    object_scale_range: tuple = leaf((0.97, 1.03), list_of(POSITIVE, PAIR))
    object_mass_range: tuple = leaf((0.70, 1.30), list_of(POSITIVE, PAIR))
    object_friction_range: tuple = leaf((0.70, 1.30), list_of(NON_NEGATIVE, PAIR))
    table_friction_range: tuple = leaf((0.50, 1.50), list_of(NON_NEGATIVE, PAIR))
    external_force: ExternalForceConfig = field(default_factory=ExternalForceConfig)


def sample_episode_randomization(
    seed: int, env_ids: np.ndarray, episode_idx: np.ndarray, cfg: DRConfig
) -> EnvParams:
    """Draw the per-episode scaling factors and correlated noise offsets for
    the given envs; returns params with one row per entry of ``env_ids``."""
    n = len(env_ids)
    params = EnvParams.nominal(n)
    if not cfg.enabled:
        return params

    key = rng.stream_key(seed, env_ids, episode_idx, rng.CH_EPISODE_SCALING)
    u = rng.uniform(key, 4)
    for i, (name, (lo, hi)) in enumerate(
        [
            ("scale", cfg.object_scale_range),
            ("mass_factor", cfg.object_mass_range),
            ("object_friction_factor", cfg.object_friction_range),
            ("table_friction_factor", cfg.table_friction_range),
        ]
    ):
        getattr(params, name)[:] = lo + (hi - lo) * u[:, i]

    key_c = rng.stream_key(seed, env_ids, episode_idx, rng.CH_CORR_OFFSET)
    z = rng.normal(key_c, 3 * N_JOINTS + 6)
    params.joint_pos_offset[:] = z[:, 0:9] * cfg.joint_position.sigma_corr
    params.joint_vel_offset[:] = z[:, 9:18] * cfg.joint_velocity.sigma_corr
    params.torque_offset[:] = z[:, 18:27] * cfg.torque.sigma_corr
    params.cube_pos_offset[:] = z[:, 27:30] * cfg.cube_position.sigma_corr
    # correlated orientation bias as a rotation vector
    params.cube_rot_offset[:] = z[:, 30:33] * cfg.cube_orientation.sigma_corr
    return params


def apply_observation_noise(
    values: np.ndarray, spec: NoiseSpec, offset: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Additive channel: value + episode offset + fresh N(0, sigma^2)."""
    return values + offset + rng.normal(key, values.shape[-1]) * spec.sigma


def apply_orientation_noise(
    quat: np.ndarray, spec: NoiseSpec, offset_rotvec: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Perturb orientations by a random-axis rotation with angle
    ~ N(0, sigma^2) rad, composed after the correlated bias rotation."""
    z = rng.normal(key, 4)
    axis_norm = np.linalg.norm(z[..., :3], axis=-1, keepdims=True)
    axis = z[..., :3] / np.maximum(axis_norm, 1e-12)
    dq = spatial.quat_from_rotvec(axis * (z[..., 3:4] * spec.sigma))
    out = spatial.quat_mul(dq, spatial.quat_mul(spatial.quat_from_rotvec(offset_rotvec), quat))
    return spatial.quat_normalize(out)


# actuation noise is the same channel, named apart so a profile can time it
apply_action_noise = apply_observation_noise
