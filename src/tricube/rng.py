"""Counter-based random number streams for batched simulation.

Every random draw in the engine is a pure function of a tuple of integer
words, typically ``(seed, env_id, step_or_episode, channel)``.  There is no
mutable generator state.  ``env_id`` is an env's global id (a shard of a
batch keys its envs by their ids in the whole batch, see
``env.EpisodicTask``), so stepping 4096 environments in one batch, in
shards, or each alone consumes exactly the same numbers, and resuming a run
from a checkpoint needs only the integer counters that are already part of
the run state.

The construction is a SplitMix64-style keyed hash: the key words are
absorbed one at a time through the 64-bit finalizer, and the k-th output of
a stream is ``mix(key + (k+1) * GOLDEN)``.  This is the standard splittable
generator sequence and passes the usual statistical batteries; it is not a
cryptographic PRF and is not meant to be.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# Channel tags keep draws at different call sites decorrelated even when the
# (seed, env_id, counter) triple is the same.  Values are arbitrary but fixed:
# changing one changes every stream derived from it.
CH_GOAL_POS = 1
CH_GOAL_ROT = 2
CH_RESET_CUBE = 3
CH_RESET_JOINTS = 4
CH_EPISODE_SCALING = 5
CH_CORR_OFFSET = 6
CH_OBS_NOISE = 7
CH_ACT_NOISE = 8
CH_EXT_FORCE = 9
CH_POLICY_SAMPLE = 10
CH_MINIBATCH_SHUFFLE = 11
CH_PARAM_INIT = 12
CH_REACH_TARGET = 13
CH_OBS_NOISE_CUBE_ROT = 14
CH_CAMERA_SIGN = 15
CH_OBS_NOISE_JOINT_POS = 16
CH_OBS_NOISE_JOINT_VEL = 17


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def stream_key(*words) -> np.ndarray:
    """Derive a stream key from integer words (scalars or int arrays).

    Array words broadcast against each other, so
    ``stream_key(seed, np.arange(n_envs), step, channel)`` yields one
    independent key per environment.
    """
    with np.errstate(over="ignore"):
        h = np.asarray(np.uint64(0x8E51_2F1A_6B3C_9D47), dtype=np.uint64)
        for w in words:
            w64 = np.asarray(w).astype(np.uint64)
            h = _mix(h + GOLDEN + w64)
        return h


def raw_uint64(key: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` raw 64-bit outputs of each stream, shape key.shape + (n,)."""
    key = np.asarray(key, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ctr = (np.arange(1, n + 1, dtype=np.uint64)) * GOLDEN
        return _mix(key[..., None] + ctr)


def uniform(key: np.ndarray, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Uniform float64 draws in [low, high), shape key.shape + (n,)."""
    bits = raw_uint64(key, n)
    u = (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return low + (high - low) * u


def normal(key: np.ndarray, n: int) -> np.ndarray:
    """Standard normal draws via Box-Muller, shape key.shape + (n,)."""
    m = (n + 1) // 2
    bits = raw_uint64(key, 2 * m)
    # u1 in (0, 1] so log is finite; u2 in [0, 1)
    u1 = ((bits[..., :m] >> np.uint64(11)).astype(np.float64) + 1.0) * (1.0 / (1 << 53))
    u2 = (bits[..., m:] >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return out[..., :n]


def permutation(key: np.ndarray, n: int) -> np.ndarray:
    """A deterministic permutation of range(n) keyed by ``key``."""
    u = uniform(np.asarray(key, dtype=np.uint64).reshape(()), n)
    return np.argsort(u, kind="stable")
