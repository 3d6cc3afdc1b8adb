"""Proximal policy optimization with an asymmetric actor-critic.

The actor is a 256-256-128-128 ELU trunk with 9 outputs (action mean) and a
state-independent log-std vector; the critic is a separate 512-512-256-128
trunk on the privileged observation producing a scalar value.  Training
uses the clipped surrogate objective, generalized advantage estimation
truncated at episode boundaries, per-batch advantage normalization,
shuffled minibatch epochs, and a linearly decaying learning rate.

Log-probabilities are computed in float64 regardless of the network dtype,
so stored rollout log-probs and ratio computations do not accumulate f32
rounding.  Minibatch shuffles are drawn from counter-based streams keyed
by (seed, iteration, epoch): an interrupted and resumed run replays the
exact same update sequence.  Each is the stable sort order of its draws
(``rng.permutation``), found by numpy's default sort unless two draws tie.

Gradients, Adam moments and the gradient-norm clip work on one vector per
net (``nets.MLP.vector``; the policy's ``log_std`` is a second vector), and
the checkpoint names one tensor per weight, bias and moment of them.  A
minibatch whose loss or gradient norm is not finite stops the update before
either optimizer steps: an inf in a gradient would otherwise make the
clip's scale 0 and the scaled gradient NaN, which Adam writes into the
parameters and moments.

Checkpoints are a portable container: an 8-byte magic, a little-endian
uint64 manifest length, a JSON manifest (layer shapes, hyperparameters,
global step, counters, and a tensor directory with dtype/shape/offset),
then the raw tensor bytes, little-endian, in directory order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .domains import FINITE, FLAG, NON_NEGATIVE, POSITIVE, UNIT, Checked, leaf, list_of
from .nets import MLP, Adam, RunningNorm, tensors

LOG_2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_MAGIC = b"TCUBCKPT"
CHECKPOINT_VERSION = 2  # 2: the manifest stores the run's config; version 1 files are refused


@dataclass
class PPOConfig(Checked):
    gamma: float = leaf(0.99, UNIT)
    gae_tau: float = leaf(0.95, UNIT)
    lr_start: float = leaf(5e-4, POSITIVE)
    lr_end: float = leaf(1e-6, NON_NEGATIVE)
    batch_size: int = leaf(65536, POSITIVE)
    minibatch_size: int = leaf(16384, POSITIVE)
    epochs: int = leaf(8, POSITIVE)
    clip_eps: float = leaf(0.2, POSITIVE)
    entropy_coef: float = leaf(0.0, NON_NEGATIVE)
    policy_hidden: tuple = leaf((256, 256, 128, 128), list_of(POSITIVE))
    value_hidden: tuple = leaf((512, 512, 256, 128), list_of(POSITIVE))
    log_std_init: float = leaf(0.0, FINITE)
    log_std_min: float = leaf(-5.0, FINITE)
    log_std_max: float = leaf(2.0, FINITE)
    max_grad_norm: float = leaf(1.0, FINITE, off="<= 0 turns clipping off")  # global-norm clip
    normalize_obs: bool = leaf(True, FLAG)  # running per-dim observation normalization
    normalize_value: bool = leaf(True, FLAG)  # running value-target normalization

    RULES = (("lr_end", "at most", "lr_start"), ("batch_size", "divisible by", "minibatch_size"),
             ("log_std_min", "below", "log_std_max"))


def clip_grad_norm(grads: list[np.ndarray], layout: list[list[tuple]], max_norm: float) -> float:
    """The global L2 norm of the gradient vectors ``grads``, laid out by
    ``layout`` (see ``nets.tensors``), before the clip; a norm above
    ``max_norm > 0`` scales every vector in place to ``max_norm``, and a
    non-finite one scales nothing.  Each vector is squared in float64 once,
    and the norm sums its tensors' slices in order, so it has the bits of a
    sum over per-tensor arrays."""
    squares = [g.astype(np.float64) for g in grads]
    for sq in squares:
        np.square(sq, out=sq)
    norm = np.sqrt(sum(float(np.sum(sq)) for sq in tensors(squares, layout)))
    if 0 < max_norm < norm < math.inf:
        scale = max_norm / norm  # a float64 scalar: each product is taken in float64, then stored
        for g in grads:
            g *= scale
    return float(norm)


def lr_schedule(global_step: int, total_steps: int, cfg: PPOConfig) -> float:
    """Linear interpolation from lr_start at step 0 to lr_end at the end."""
    if total_steps <= 0:
        return cfg.lr_start
    frac = min(max(global_step / total_steps, 0.0), 1.0)
    # convex form hits both endpoints exactly
    return (1.0 - frac) * cfg.lr_start + frac * cfg.lr_end


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    bootstrap_value: np.ndarray,
    gamma: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over time-major arrays (T, N).

    ``dones[t]`` marks that the transition at t ended an episode: the
    recursion and the bootstrap are cut there.  Returns float64
    (advantages, returns) with returns = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ValueError(
            f"shape mismatch: rewards {rewards.shape}, values {values.shape}, dones {dones.shape}"
        )
    t_len = rewards.shape[0]
    not_done = 1.0 - np.asarray(dones, dtype=np.float64)
    adv = np.zeros_like(rewards)
    last = np.zeros_like(np.asarray(bootstrap_value, dtype=np.float64))
    next_value = np.asarray(bootstrap_value, dtype=np.float64)
    for t in reversed(range(t_len)):
        delta = rewards[t] + gamma * next_value * not_done[t] - values[t]
        last = delta + gamma * tau * not_done[t] * last
        adv[t] = last
        next_value = values[t]
    return adv, adv + values


class GaussianPolicy:
    """Diagonal-Gaussian torque policy: MLP mean, learned global log-std."""

    def __init__(self, obs_dim: int, action_dim: int, cfg: PPOConfig, seed: int = 0, dtype=np.float32,
                 draw: bool = True):
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.trunk = MLP(
            [obs_dim, *cfg.policy_hidden, action_dim],
            seed_words=(seed, 1),
            final_gain=0.01,
            dtype=dtype,
            draw=draw,
        )
        self.log_std = np.full(action_dim, cfg.log_std_init, dtype=dtype)

    def parameters(self) -> list[np.ndarray]:
        return self.trunk.parameters() + [self.log_std]

    def vectors(self) -> list[np.ndarray]:
        """The parameters as the optimizer steps them: the trunk's vector,
        then log_std."""
        return [self.trunk.vector, self.log_std]

    def layout(self) -> list[list[tuple]]:
        """The tensor shapes of each of ``vectors()``, in ``parameters()`` order."""
        return [self.trunk.shapes, [self.log_std.shape]]

    def std(self) -> np.ndarray:
        return np.exp(np.clip(self.log_std, self.cfg.log_std_min, self.cfg.log_std_max))

    def log_sigma(self) -> np.ndarray:
        """The clipped log-std in float64, as the losses use it."""
        return np.clip(self.log_std.astype(np.float64), self.cfg.log_std_min, self.cfg.log_std_max)

    def log_prob(self, resid: np.ndarray) -> np.ndarray:
        """Diagonal-Gaussian log density of the float64 ``actions - mean``."""
        log_sigma = self.log_sigma()
        sigma = np.exp(log_sigma)
        z = resid / sigma
        return -0.5 * np.sum(z * z, axis=-1) - np.sum(log_sigma) - 0.5 * self.action_dim * LOG_2PI

    def act(
        self, obs: np.ndarray, stochastic: bool = True, key: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Actions in [-1, 1] plus their log-probs.

        Stochastic sampling draws from the keyed stream; deterministic mode
        (evaluation, inference) returns the clamped mean.
        """
        obs = np.asarray(obs)
        if obs.shape[-1] != self.obs_dim:
            raise ValueError(f"observation dim {obs.shape[-1]} != {self.obs_dim}")
        mean = self.trunk(obs)
        if stochastic:
            if key is None:
                raise ValueError("stochastic act() needs a stream key")
            eps = rng.normal(key, self.action_dim)
            sample = mean + self.std() * eps
        else:
            sample = mean
        action = np.clip(sample, -1.0, 1.0)
        return action, self.log_prob(np.asarray(action, dtype=np.float64) - mean)

    def entropy(self) -> float:
        return float(np.sum(self.log_sigma()) + 0.5 * self.action_dim * (1.0 + LOG_2PI))


class ValueNet:
    def __init__(self, obs_dim: int, cfg: PPOConfig, seed: int = 0, dtype=np.float32,
                 draw: bool = True):
        self.obs_dim = obs_dim
        self.trunk = MLP(
            [obs_dim, *cfg.value_hidden, 1], seed_words=(seed, 2), final_gain=1.0, dtype=dtype,
            draw=draw,
        )

    def parameters(self) -> list[np.ndarray]:
        return self.trunk.parameters()

    def vectors(self) -> list[np.ndarray]:
        return [self.trunk.vector]

    def layout(self) -> list[list[tuple]]:
        return [self.trunk.shapes]

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        return self.trunk(obs)[:, 0]


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    kl: float
    clip_fraction: float
    entropy: float


class PPOAgent:
    """Owns the actor, the critic, their optimizers, and the update rule.

    A fresh agent draws its nets' parameters from ``seed``.  Given a
    checkpoint's ``tensors`` it draws nothing: the nets start as zeros of
    their configured shapes and ``load_into`` fills every checkpointed
    array, with its ``ValueError`` for a missing tensor or another dtype or
    shape.  For the paper's nets the draw is ten QR factorizations, several
    times the cost of the load itself."""

    def __init__(
        self,
        actor_obs_dim: int,
        critic_obs_dim: int,
        action_dim: int,
        cfg: PPOConfig | None = None,
        seed: int = 0,
        dtype=np.float32,
        tensors: dict | None = None,
    ):
        self.cfg = cfg or PPOConfig()
        self.seed = seed
        self.dtype = np.dtype(dtype)
        draw = tensors is None
        self.policy = GaussianPolicy(actor_obs_dim, action_dim, self.cfg, seed=seed, dtype=dtype,
                                     draw=draw)
        self.value = ValueNet(critic_obs_dim, self.cfg, seed=seed, dtype=dtype, draw=draw)
        self.opt_policy = Adam(self.policy.vectors(), self.policy.layout())
        self.opt_value = Adam(self.value.vectors(), self.value.layout())
        self.norm_actor = RunningNorm(actor_obs_dim)
        self.norm_critic = RunningNorm(critic_obs_dim)
        self.norm_value = RunningNorm(1)
        self.iteration = 0
        self.global_step = 0
        self.dump_dir: str | None = None  # where to drop a batch on a non-finite loss or gradient
        if tensors is not None:
            load_into(self._net_tensors(), tensors)

    # ------------------------------------------------------- obs/value prep

    def prep_actor_obs(self, obs: np.ndarray, update: bool = False) -> np.ndarray:
        if self.cfg.normalize_obs:
            if update:
                self.norm_actor.update(obs)
            obs = self.norm_actor.normalize(obs)
        return np.asarray(obs, dtype=self.dtype)

    def prep_critic_obs(self, obs: np.ndarray, update: bool = False) -> np.ndarray:
        if self.cfg.normalize_obs:
            if update:
                self.norm_critic.update(obs)
            obs = self.norm_critic.normalize(obs)
        return np.asarray(obs, dtype=self.dtype)

    def act(self, actor_obs: np.ndarray, stochastic: bool = False, key=None):
        """Policy actions on raw (unnormalized) observations; stats frozen."""
        return self.policy.act(self.prep_actor_obs(actor_obs), stochastic, key)

    def predict_values(self, critic_obs_prepped: np.ndarray) -> np.ndarray:
        """Value estimates on prepped observations, in return units."""
        return self._in_return_units(self.value(critic_obs_prepped))

    def values_beside(self, critic_obs_prepped: np.ndarray, submit):
        """``predict_values`` with the value forward run by ``submit`` (see
        ``nets.MLP.infer_beside``); returns a function that waits for it and
        returns the values."""
        outputs = self.value.trunk.infer_beside(critic_obs_prepped, submit)
        return lambda: self._in_return_units(outputs()[:, 0])

    def _in_return_units(self, v: np.ndarray) -> np.ndarray:
        v = v.astype(np.float64)
        if self.cfg.normalize_value:
            v = self.norm_value.denormalize(v[:, None])[:, 0]
        return v

    # ----------------------------------------------------------- losses

    def policy_loss_and_grads(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        logp_old: np.ndarray,
        advantages: np.ndarray,
    ):
        """Clipped-surrogate loss, its gradient vectors (laid out like
        ``policy.vectors()``), and stats.

        The minimum of the two surrogates passes gradient through the
        probability ratio only where the unclipped branch is active (they
        tie exactly when the ratio is inside the clip range).
        """
        cfg = self.cfg
        mean, cache = self.policy.trunk.forward(obs)
        resid = np.asarray(actions, dtype=np.float64) - mean  # float64: mean is promoted
        logp = self.policy.log_prob(resid)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = np.exp(logp - np.asarray(logp_old, dtype=np.float64))
            adv = np.asarray(advantages, dtype=np.float64)
            surr1 = ratio * adv
            surr2 = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * adv
            loss = -np.mean(np.minimum(surr1, surr2))
            entropy = self.policy.entropy()
            loss_total = loss - cfg.entropy_coef * entropy

            b = obs.shape[0]
            use_unclipped = surr1 <= surr2
            dratio = np.where(use_unclipped, -adv / b, 0.0)
            dlogp = dratio * ratio  # (B,)

        sigma = np.exp(self.policy.log_sigma())
        diff = resid / sigma**2
        dmean = dlogp[:, None] * diff
        dlogstd = np.sum(dlogp[:, None] * (diff * resid - 1.0), axis=0)
        dlogstd -= cfg.entropy_coef  # d(-c * entropy)/dlog_std = -c per dim
        # gradient is blocked where the clamp on log_std is active
        at_clip = (self.policy.log_std <= cfg.log_std_min) | (self.policy.log_std >= cfg.log_std_max)
        dlogstd = np.where(at_clip, 0.0, dlogstd)

        grads = [self.policy.trunk.backward(cache, dmean.astype(self.dtype)),
                 dlogstd.astype(self.dtype)]

        kl = float(np.mean(np.asarray(logp_old, dtype=np.float64) - logp))
        clip_frac = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps))
        return float(loss_total), grads, {"kl": kl, "clip_fraction": clip_frac, "entropy": entropy}

    def value_loss_and_grads(self, obs: np.ndarray, returns: np.ndarray):
        """Half the mean squared error and its gradient vectors (laid out
        like ``value.vectors()``)."""
        pred, cache = self.value.trunk.forward(obs)
        pred = pred[:, 0]
        err = pred.astype(np.float64) - np.asarray(returns, dtype=np.float64)
        loss = 0.5 * float(np.mean(err * err))
        dpred = (err / obs.shape[0]).astype(self.dtype)[:, None]
        return loss, [self.value.trunk.backward(cache, dpred)]

    # ----------------------------------------------------------- update

    def update(self, batch: dict, lr: float) -> UpdateStats:
        """One PPO update: ``epochs`` sweeps of shuffled minibatches.

        ``batch`` holds flattened rollout arrays: actor_obs, critic_obs,
        actions, logp, advantages, returns.  Advantages are normalized here,
        over the whole batch.  A non-finite loss or gradient norm aborts
        the update before any optimizer step of its minibatch and raises
        ``FloatingPointError`` after dumping the batch for diagnosis.
        """
        cfg = self.cfg
        n = batch["actions"].shape[0]
        if n % cfg.minibatch_size != 0:
            raise ValueError(f"batch of {n} not divisible by minibatch {cfg.minibatch_size}")
        adv = np.asarray(batch["advantages"], dtype=np.float64)
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        returns = np.asarray(batch["returns"], dtype=np.float64)
        if cfg.normalize_value:
            self.norm_value.update(returns[:, None])
            returns = self.norm_value.normalize(returns[:, None])[:, 0]

        sums: dict[str, float] = {}  # UpdateStats field -> sum over minibatch steps
        steps = 0
        for epoch in range(cfg.epochs):
            perm = rng.permutation(
                rng.stream_key(self.seed, self.iteration, epoch, rng.CH_MINIBATCH_SHUFFLE), n
            )
            for start in range(0, n, cfg.minibatch_size):
                idx = perm[start : start + cfg.minibatch_size]
                # the bytes of batch[k][idx]; np.take gathers 2-D rows several times faster
                actor_obs, actions, logp, critic_obs = (
                    np.take(batch[k], idx, axis=0) for k in ("actor_obs", "actions", "logp", "critic_obs"))
                p_loss, p_grads, p_stats = self.policy_loss_and_grads(actor_obs, actions, logp, adv[idx])
                v_loss, v_grads = self.value_loss_and_grads(critic_obs, returns[idx])
                if not (np.isfinite(p_loss) and np.isfinite(v_loss)):
                    self._abort(batch, f"non-finite loss (policy={p_loss}, value={v_loss})")
                p_norm = clip_grad_norm(p_grads, self.policy.layout(), cfg.max_grad_norm)
                v_norm = clip_grad_norm(v_grads, self.value.layout(), cfg.max_grad_norm)
                if not (np.isfinite(p_norm) and np.isfinite(v_norm)):
                    self._abort(batch, f"non-finite gradient norm (policy={p_norm}, value={v_norm})")
                self.opt_policy.step(self.policy.vectors(), p_grads, lr)
                self.opt_value.step(self.value.vectors(), v_grads, lr)
                steps += 1
                for name, value in {"policy_loss": p_loss, "value_loss": v_loss, **p_stats}.items():
                    sums[name] = sums.get(name, 0.0) + value
        self.iteration += 1
        return UpdateStats(**{name: total / steps for name, total in sums.items()})

    def _abort(self, batch: dict, problem: str) -> None:
        """Raise ``FloatingPointError`` for ``problem``, after dumping the
        batch to ``dump_dir`` if it is set."""
        note = ""
        if self.dump_dir:
            dump = os.path.join(self.dump_dir, "ppo_batch_dump.npz")
            np.savez(dump, **{k: np.asarray(v) for k, v in batch.items()})
            note = f"; batch dumped to {dump}"
        raise FloatingPointError(problem + note)

    # ----------------------------------------------------------- checkpoints

    def _net_tensors(self) -> dict:
        """The checkpointed arrays by name, live: a load copies into them."""
        tensors = {}
        for i, p in enumerate(self.policy.trunk.parameters()):
            tensors[f"policy.p{i}"] = p
        tensors["policy.log_std"] = self.policy.log_std
        for i, p in enumerate(self.value.trunk.parameters()):
            tensors[f"value.p{i}"] = p
        tensors.update(self.opt_policy.state_tensors("opt_policy"))
        tensors.update(self.opt_value.state_tensors("opt_value"))
        tensors.update(self.norm_actor.state_tensors("norm_actor"))
        tensors.update(self.norm_critic.state_tensors("norm_critic"))
        tensors.update(self.norm_value.state_tensors("norm_value"))
        return tensors

    def shape(self) -> dict:
        """Observation and action dims and layer sizes, as a checkpoint
        records them: two agents of equal shape can swap tensors."""
        return {
            "actor_obs_dim": self.policy.obs_dim,
            "critic_obs_dim": self.value.obs_dim,
            "action_dim": self.policy.action_dim,
            "policy_layer_sizes": self.policy.trunk.sizes,
            "value_layer_sizes": self.value.trunk.sizes,
        }

    def save(self, path: str, extra_tensors: dict | None = None, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "ppo_agent",
            "iteration": self.iteration,
            "global_step": self.global_step,
            "seed": self.seed,
            **self.shape(),
            "hyperparams": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in vars(self.cfg).items()
            },
        }
        if extra_meta:
            meta.update(extra_meta)
        tensors = self._net_tensors()
        if extra_tensors:
            tensors.update(extra_tensors)
        write_checkpoint(path, tensors, meta)

    @classmethod
    def from_checkpoint(cls, path: str, dtype=np.float32) -> tuple["PPOAgent", dict, dict]:
        tensors, meta = read_checkpoint(path)
        hp = dict(meta["hyperparams"])
        for k in ("policy_hidden", "value_hidden"):
            hp[k] = tuple(hp[k])
        agent = cls(
            meta["actor_obs_dim"],
            meta["critic_obs_dim"],
            meta["action_dim"],
            cfg=PPOConfig(**hp),
            seed=meta["seed"],
            dtype=dtype,
            tensors=tensors,
        )
        agent.iteration = meta["iteration"]
        agent.global_step = meta["global_step"]
        return agent, tensors, meta


# ------------------------------------------------------------- container io


def write_checkpoint(path: str, tensors: dict, meta: dict) -> None:
    """Write the versioned container: magic, manifest length, JSON manifest,
    then raw little-endian tensor bytes in directory order."""
    directory = []
    offset = 0
    blobs = []
    for name in tensors:
        arr = np.ascontiguousarray(tensors[name])
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        directory.append(
            {
                "name": name,
                "dtype": arr.dtype.newbyteorder("<").str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = dict(meta)
    manifest["format_version"] = CHECKPOINT_VERSION
    manifest["tensors"] = directory
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(np.array([len(mbytes)], dtype="<u8").tobytes())
        f.write(mbytes)
        for raw in blobs:
            f.write(raw)
    os.replace(tmp, path)


def _tensor_entry(path: str, entry) -> tuple:
    """(name, dtype, shape, offset, nbytes) of one tensor directory entry,
    which must describe a plain array whose bytes fill its extent."""
    try:
        name, shape = entry["name"], tuple(entry["shape"])
        dtype, offset, nbytes = np.dtype(entry["dtype"]), entry["offset"], entry["nbytes"]
        sizes = (offset, nbytes, *shape)
        ok = (isinstance(name, str) and isinstance(entry["dtype"], str)
              and all(type(i) is int and i >= 0 for i in sizes)
              and nbytes == dtype.itemsize * math.prod(shape))
    except (TypeError, KeyError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{path}: malformed checkpoint tensor entry {json.dumps(entry)[:200]}")
    return name, dtype, shape, offset, nbytes


def check_tensors(tensors: dict, expected: dict) -> None:
    """Raise ``ValueError`` unless ``tensors`` holds every tensor of
    ``expected`` with its dtype and shape."""
    for name, want in expected.items():
        got = tensors.get(name)
        if got is None:
            raise ValueError(f"the checkpoint holds no tensor {name!r}")
        if got.dtype != want.dtype or got.shape != want.shape:
            raise ValueError(f"tensor {name!r} is {got.dtype} {got.shape} in the checkpoint; "
                             f"the configured run needs {want.dtype} {want.shape}")


def load_into(live: dict, tensors: dict) -> None:
    """Copy each of ``tensors`` into the live array of its name in ``live``;
    ``ValueError`` before any copy unless ``check_tensors`` passes."""
    check_tensors(tensors, live)
    for name, arr in live.items():
        arr[...] = tensors[name]


def read_checkpoint(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (magic {magic!r})")
        head = f.read(8)
        if len(head) < 8:
            raise ValueError(f"{path}: truncated checkpoint: the 16-byte header ends "
                             f"after {8 + len(head)} bytes")
        mlen = int(np.frombuffer(head, dtype="<u8")[0])
        mbytes = f.read(mlen)
        if len(mbytes) < mlen:
            raise ValueError(f"{path}: truncated checkpoint: the manifest holds "
                             f"{len(mbytes)} of its {mlen} bytes")
        try:
            manifest = json.loads(mbytes.decode("utf-8"))
        except ValueError as err:  # UnicodeDecodeError or JSONDecodeError
            raise ValueError(f"{path}: unreadable checkpoint manifest: {err}") from err
        payload = f.read()
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: the checkpoint manifest is a JSON {type(manifest).__name__}, "
                         "not an object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {manifest.get('format_version')}")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: the checkpoint manifest holds no tensor directory")
    tensors = {}
    for entry in entries:
        name, dtype, shape, offset, nbytes = _tensor_entry(path, entry)
        end = offset + nbytes
        if end > len(payload):
            raise ValueError(f"{path}: truncated checkpoint: tensor {name!r} ends at "
                             f"payload byte {end}, but the payload holds {len(payload)} bytes")
        tensors[name] = np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
    meta = {k: v for k, v in manifest.items() if k != "tensors"}
    return tensors, meta
