"""Evaluation protocols: paired ablations, robustness sweeps, success
threshold heatmaps, position/orientation breakdowns, and zero-shot object
transfer.

Every evaluation runs N single-episode trials in a batch of N envs with a
fixed evaluation seed.  Because resets and noise draw from counter-based
streams keyed by (seed, env_id, episode), two policies evaluated with the
same seed face identical goals, spawns, and randomizations: ablation arms
are paired by construction.  Reports carry the config hash, checkpoint
hash, seed, and trial count, and re-running a report spec reproduces it
byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .domrand import DRConfig
from .env import CubeReposeTask, TaskConfig
from .physics import ObjectParams, PhysicsConfig
from .ppo import PPOAgent, PPOConfig
from .trainer import Trainer

# 80% two-sided confidence: Phi^-1(0.9)
Z_80 = 1.2815515655446004

OBS_VARIANTS = {"O-KP": "keypoints", "O-PQ": "pos_quat"}
REWARD_VARIANTS = {"R-KP": "keypoints", "R-PQ": "pos_quat"}

# zero-shot transfer objects: primitive shapes, dimensions in meters
TRANSFER_OBJECTS = {
    "cube_6.5cm": ObjectParams(kind="box", half_extents=(0.0325, 0.0325, 0.0325)),
    "ball_r3.75cm": ObjectParams(kind="sphere", radius=0.0375),
    "cuboid_2x8x2cm": ObjectParams(kind="box", half_extents=(0.01, 0.04, 0.01)),
    "cuboid_2x8x4cm": ObjectParams(kind="box", half_extents=(0.01, 0.04, 0.02)),
    "cuboid_4x8x4cm": ObjectParams(kind="box", half_extents=(0.02, 0.04, 0.02)),
    "cuboid_2x6.5x2cm": ObjectParams(kind="box", half_extents=(0.01, 0.0325, 0.01)),
    "cuboid_2x6.5x4cm": ObjectParams(kind="box", half_extents=(0.01, 0.0325, 0.02)),
    "cuboid_4x6.5x4cm": ObjectParams(kind="box", half_extents=(0.02, 0.0325, 0.02)),
}


def wilson_interval(successes: int, n: int, confidence: float = 0.8) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    if abs(confidence - 0.8) > 1e-12:
        raise ValueError("only the 80% interval is tabulated")
    z = Z_80
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class EvalReport:
    success_rate: float
    ci_lo: float
    ci_hi: float
    n_trials: int
    mean_return: float
    pos_success_rate: float
    rot_success_rate: float
    success_any_rate: float
    final_pos_err: list = field(default_factory=list)  # meters, per trial
    final_rot_err: list = field(default_factory=list)  # radians, per trial
    seed: int = 0
    config_hash: str = ""
    checkpoint_hash: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls(**json.loads(text))


def hash_config(obj) -> str:
    """Stable digest of any JSON-serializable config-ish object."""

    def default(o):
        if hasattr(o, "__dict__"):
            return vars(o)
        if isinstance(o, tuple):
            return list(o)
        raise TypeError(type(o))

    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=default).encode()
    ).hexdigest()[:16]


def hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def success_breakdown(
    pos_err: np.ndarray, rot_err: np.ndarray, pos_threshold: float, rot_threshold: float
) -> tuple[float, float, float]:
    """(combined, position-only, orientation-only) success rates."""
    pos_ok = np.asarray(pos_err) < pos_threshold
    rot_ok = np.asarray(rot_err) < rot_threshold
    n = len(pos_ok)
    if n == 0:
        return 0.0, 0.0, 0.0
    return (
        float(np.mean(pos_ok & rot_ok)),
        float(np.mean(pos_ok)),
        float(np.mean(rot_ok)),
    )


def evaluate(
    agent: PPOAgent,
    n_trials: int,
    eval_seed: int,
    task: TaskConfig | None = None,
    phys: PhysicsConfig | None = None,
    dr: DRConfig | None = None,
    checkpoint_hash: str = "",
) -> EvalReport:
    """Run one fixed-length episode in each of ``n_trials`` parallel envs and
    score end-of-episode success."""
    tcfg = copy.deepcopy(task) if task else TaskConfig()
    env = CubeReposeTask(n_trials, seed=eval_seed, task=tcfg, phys=phys, dr=dr)
    obs = env.reset_all()
    for _ in range(tcfg.episode_length):
        act, _ = agent.act(obs["actor"], stochastic=False)
        obs, _, done, _ = env.step(act)
    records = env.drain_episode_records()
    records.sort(key=lambda r: r["env_id"])
    if len(records) != n_trials:
        raise RuntimeError(f"expected {n_trials} episode records, got {len(records)}")
    pos_err = np.array([r["final_pos_err"] for r in records])
    rot_err = np.array([r["final_rot_err"] for r in records])
    combined, pos_rate, rot_rate = success_breakdown(
        pos_err, rot_err, tcfg.success_pos_threshold, tcfg.success_rot_threshold
    )
    k = int(round(combined * n_trials))
    lo, hi = wilson_interval(k, n_trials)
    return EvalReport(
        success_rate=combined,
        ci_lo=lo,
        ci_hi=hi,
        n_trials=n_trials,
        mean_return=float(np.mean([r["return"] for r in records])),
        pos_success_rate=pos_rate,
        rot_success_rate=rot_rate,
        success_any_rate=float(np.mean([r["success_any"] for r in records])),
        final_pos_err=[float(x) for x in pos_err],
        final_rot_err=[float(x) for x in rot_err],
        seed=eval_seed,
        config_hash=hash_config({"task": tcfg, "phys": phys or PhysicsConfig(), "dr": dr or DRConfig()}),
        checkpoint_hash=checkpoint_hash,
    )


# ------------------------------------------------------------------ ablation


@dataclass
class AblationSpec:
    variants: tuple = ("O-KP+R-KP", "O-KP+R-PQ", "O-PQ+R-KP", "O-PQ+R-PQ")
    seeds: tuple = (0, 1, 2)
    total_steps: int = 50_000_000
    num_envs: int = 4096
    dr_enabled: bool = True
    eval_trials: int = 256
    eval_seed: int = 10_000

    def __post_init__(self):
        for v in self.variants:
            obs_tag, rew_tag = v.split("+")
            if obs_tag not in OBS_VARIANTS or rew_tag not in REWARD_VARIANTS:
                raise ValueError(f"unknown ablation variant {v!r}")


def variant_task_config(variant: str, base: TaskConfig | None = None) -> TaskConfig:
    obs_tag, rew_tag = variant.split("+")
    cfg = copy.deepcopy(base) if base else TaskConfig()
    cfg.obs_variant = OBS_VARIANTS[obs_tag]
    cfg.reward_variant = REWARD_VARIANTS[rew_tag]
    return cfg


def run_ablation(
    spec: AblationSpec,
    base_task: TaskConfig | None = None,
    phys: PhysicsConfig | None = None,
    ppo_cfg: PPOConfig | None = None,
    metrics_hook=None,
) -> dict:
    """Train each observation/reward variant for each seed and evaluate with
    shared goals.  Returns {variant: {seed: {"curve": [...], "report": EvalReport}}}.

    A diverging arm is recorded with its exception and the grid continues.
    """
    from .env import actor_obs_dim, critic_obs_dim  # local import to avoid cycle noise

    results: dict = {}
    for variant in spec.variants:
        results[variant] = {}
        tcfg = variant_task_config(variant, base_task)
        for seed in spec.seeds:
            dr = DRConfig(enabled=spec.dr_enabled)
            task = CubeReposeTask(spec.num_envs, seed=seed, task=copy.deepcopy(tcfg), phys=phys, dr=dr)
            agent = PPOAgent(
                actor_obs_dim(tcfg.obs_variant),
                critic_obs_dim(tcfg.obs_variant),
                9,
                cfg=ppo_cfg,
                seed=seed,
            )
            trainer = Trainer(task, agent, total_steps=spec.total_steps, seed=seed)
            try:
                curve = trainer.train()
            except FloatingPointError as err:
                results[variant][seed] = {"curve": [], "report": None, "error": str(err)}
                continue
            report = evaluate(
                agent,
                spec.eval_trials,
                spec.eval_seed,
                task=variant_task_config(variant, base_task),
                phys=phys,
                dr=DRConfig(enabled=False),
            )
            results[variant][seed] = {"curve": curve, "report": report}
            if metrics_hook:
                metrics_hook(variant, seed, curve, report)
    return results


# ------------------------------------------------------------------ sweeps


def robustness_sweep(
    agent: PPOAgent,
    parameter: str,
    grid: list,
    n_trials: int = 1024,
    eval_seed: int = 20_000,
    task: TaskConfig | None = None,
    phys: PhysicsConfig | None = None,
    checkpoint_hash: str = "",
) -> list[dict]:
    """Success vs. one object parameter, all other randomization off.

    ``parameter`` is "scale" or "mass"; each grid value pins the factor for
    every trial (the factor multiplies the nominal object).
    """
    if parameter not in ("scale", "mass"):
        raise ValueError(f"sweep parameter must be 'scale' or 'mass', got {parameter!r}")
    if len(grid) == 0:
        raise ValueError("sweep grid is empty")
    out = []
    for value in grid:
        pcfg = copy.deepcopy(phys) if phys else PhysicsConfig()
        if parameter == "scale":
            h = np.asarray(pcfg.object.half_extents) * value
            pcfg.object.half_extents = tuple(float(x) for x in h)
            pcfg.object.radius = float(pcfg.object.radius * value)
        else:
            pcfg.object.mass = float(pcfg.object.mass * value)
        report = evaluate(
            agent, n_trials, eval_seed, task=task, phys=pcfg,
            dr=DRConfig(enabled=False), checkpoint_hash=checkpoint_hash,
        )
        out.append({"parameter": parameter, "value": float(value), "report": report})
    return out


def threshold_heatmap(
    report: EvalReport, pos_thresholds: list, rot_thresholds: list
) -> np.ndarray:
    """Success matrix (len(pos) x len(rot)) re-scoring the same trials."""
    pos_err = np.asarray(report.final_pos_err)
    rot_err = np.asarray(report.final_rot_err)
    matrix = np.empty((len(pos_thresholds), len(rot_thresholds)))
    for i, pt in enumerate(pos_thresholds):
        for j, rt in enumerate(rot_thresholds):
            matrix[i, j] = np.mean((pos_err < pt) & (rot_err < rt))
    return matrix


def zero_shot_objects(
    agent: PPOAgent,
    object_names: list[str],
    n_trials: int = 1024,
    eval_seed: int = 30_000,
    task: TaskConfig | None = None,
    phys: PhysicsConfig | None = None,
    checkpoint_hash: str = "",
) -> dict[str, EvalReport]:
    """Swap the simulated object, keep the cube-corner keypoint encoding and
    the 10 Hz camera model, disable all other randomization, evaluate.

    The keypoints fed to the policy remain those of the nominal training
    cube regardless of the object's true shape.
    """
    out = {}
    for name in object_names:
        if name not in TRANSFER_OBJECTS:
            raise ValueError(
                f"unsupported object {name!r}; known: {sorted(TRANSFER_OBJECTS)}"
            )
        pcfg = copy.deepcopy(phys) if phys else PhysicsConfig()
        obj = TRANSFER_OBJECTS[name]
        pcfg.object = ObjectParams(
            kind=obj.kind, half_extents=obj.half_extents, radius=obj.radius,
            mass=pcfg.object.mass, friction=pcfg.object.friction,
        )
        tcfg = copy.deepcopy(task) if task else TaskConfig()
        # the policy still sees the training cube's corner keypoints
        nominal = phys.object if phys else PhysicsConfig().object
        tcfg.keypoint_half_extents = (
            tuple(nominal.half_extents) if nominal.kind == "box" else (nominal.radius,) * 3
        )
        report = evaluate(
            agent, n_trials, eval_seed, task=tcfg, phys=pcfg,
            dr=DRConfig(enabled=False), checkpoint_hash=checkpoint_hash,
        )
        out[name] = report
    return out
