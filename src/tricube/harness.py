"""Evaluation protocols: paired ablations, robustness sweeps, success
threshold heatmaps, position/orientation breakdowns, and zero-shot object
transfer.

Every evaluation runs N single-episode trials in a batch of N envs with a
fixed evaluation seed.  Because resets and noise draw from counter-based
streams keyed by (seed, env_id, episode), two policies evaluated with the
same seed face identical goals, spawns, and randomizations: ablation arms
are paired by construction.  The protocols take the resolved
``EngineConfig`` and read the trial count, evaluation seed, task and
physics from it; every one runs with randomization off.  Reports carry the
config hash, checkpoint hash, seed, and trial count, and re-running a
report spec reproduces it byte for byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as config_mod
from .config import TRANSFER_OBJECTS
from .domrand import DRConfig
from .env import CubeReposeTask, TaskConfig, check_success
from .physics import PhysicsConfig
from .ppo import PPOAgent
from .trainer import build_trainer

# 80% two-sided confidence: Phi^-1(0.9)
Z_80 = 1.2815515655446004

# the 2x2 ablation grid: variant name -> (observation, reward) encodings
ABLATION_VARIANTS = {
    "O-KP+R-KP": ("keypoints", "keypoints"),
    "O-KP+R-PQ": ("keypoints", "pos_quat"),
    "O-PQ+R-KP": ("pos_quat", "keypoints"),
    "O-PQ+R-PQ": ("pos_quat", "pos_quat"),
}

def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """80% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
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
    fault: list = field(default_factory=list)  # per trial: ended by an env fault
    seed: int = 0
    config_hash: str = ""
    checkpoint_hash: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def success_rate(passed, fault=False) -> float:
    """The share of trials that passed and did not fault; 0.0 for no trials."""
    passed = np.asarray(passed, dtype=bool) & ~np.asarray(fault, dtype=bool)
    return float(np.mean(passed)) if passed.size else 0.0


def success_breakdown(
    pos_err: np.ndarray, rot_err: np.ndarray, pos_threshold: float, rot_threshold: float,
    fault=False,
) -> tuple[float, float, float]:
    """(combined, position-only, orientation-only) success rates.  A
    one-sided rate passes a zero error for the other half of the test; a
    faulted trial fails all three."""
    return tuple(
        success_rate(check_success(p, r, pos_threshold, rot_threshold), fault)
        for p, r in ((pos_err, rot_err), (pos_err, 0.0), (0.0, rot_err))
    )


def evaluate(
    agent: PPOAgent,
    n_trials: int,
    eval_seed: int,
    task: TaskConfig | None = None,
    phys: PhysicsConfig | None = None,
    dr: DRConfig | None = None,
    checkpoint_hash: str = "",
    config_hash: str = "",
) -> EvalReport:
    """Run one fixed-length episode in each of ``n_trials`` parallel envs and
    score end-of-episode success, with randomization off unless ``dr`` is
    given.  Each trial is its env's first episode; a trial that ends in an
    env fault is a failure in every rate, and the episodes its reset starts
    are not scored.
    No trials give rates and a mean return of 0.0.  The report carries the
    two hashes it is handed: ``config.config_hash`` of the run's resolved
    config and the checkpoint file's."""
    tcfg = copy.deepcopy(task) if task else TaskConfig()
    env = CubeReposeTask(n_trials, seed=eval_seed, task=tcfg, phys=phys,
                         dr=dr or DRConfig(enabled=False))
    obs = env.reset_all()
    for _ in range(tcfg.episode_length):
        act, _ = agent.act(obs["actor"], stochastic=False)
        obs, _, done, _ = env.step(act)
    records = [r for r in env.drain_episode_records() if r["episode"] == 0]
    records.sort(key=lambda r: r["env_id"])
    if len(records) != n_trials:
        raise RuntimeError(f"expected {n_trials} episode records, got {len(records)}")
    pos_err = np.array([r["final_pos_err"] for r in records])
    rot_err = np.array([r["final_rot_err"] for r in records])
    fault = np.array([r["fault"] for r in records], dtype=bool)
    combined, pos_rate, rot_rate = success_breakdown(
        pos_err, rot_err, tcfg.success_pos_threshold, tcfg.success_rot_threshold, fault
    )
    k = int(round(combined * n_trials))
    lo, hi = wilson_interval(k, n_trials)
    return EvalReport(
        success_rate=combined,
        ci_lo=lo,
        ci_hi=hi,
        n_trials=n_trials,
        mean_return=float(np.mean([r["return"] for r in records])) if records else 0.0,
        pos_success_rate=pos_rate,
        rot_success_rate=rot_rate,
        success_any_rate=success_rate([r["success_any"] for r in records], fault),
        final_pos_err=[float(x) for x in pos_err],
        final_rot_err=[float(x) for x in rot_err],
        fault=[bool(x) for x in fault],
        seed=eval_seed,
        config_hash=config_hash,
        checkpoint_hash=checkpoint_hash,
    )


# ------------------------------------------------------------------ ablation


def run_ablation(cfg: config_mod.EngineConfig) -> dict:
    """Train each observation/reward variant for each of
    ``cfg.harness.ablation_seeds`` and evaluate with shared goals.  Every arm
    trains ``cfg.run.num_envs`` envs on ``cfg.task``, ``cfg.physics``,
    ``cfg.dr`` and ``cfg.ppo`` with its variant's encodings.  Returns
    {variant: {seed: {"curve": [...], "report": EvalReport}}}.

    A diverging arm is recorded with its exception and the grid continues.
    """
    h = cfg.harness
    cfg_hash = config_mod.config_hash(cfg)
    results: dict = {}
    for variant, (obs, rew) in ABLATION_VARIANTS.items():
        results[variant] = {}
        tcfg = replace(cfg.task, obs_variant=obs, reward_variant=rew)
        for seed in h.ablation_seeds:
            trainer = build_trainer(replace(cfg, task=tcfg, run=replace(
                cfg.run, seed=seed, total_steps=h.ablation_total_steps)))
            try:
                curve = trainer.train()
            except FloatingPointError as err:
                results[variant][seed] = {"curve": [], "report": None, "error": str(err)}
                continue
            report = evaluate(trainer.agent, h.eval_trials, h.eval_seed, task=tcfg, phys=cfg.physics,
                              config_hash=cfg_hash)
            results[variant][seed] = {"curve": curve, "report": report}
    return results


# ------------------------------------------------------------------ sweeps


def robustness_sweep(
    agent: PPOAgent, cfg: config_mod.EngineConfig, parameter: str, grid: list,
    checkpoint_hash: str = "",
) -> list[dict]:
    """Success vs. one object parameter on ``cfg``'s task and physics, all
    randomization off.

    ``parameter`` is "scale" or "mass"; each grid value pins the factor for
    every trial (the factor multiplies the nominal object).
    """
    if parameter not in ("scale", "mass"):
        raise ValueError(f"sweep parameter must be 'scale' or 'mass', got {parameter!r}")
    if len(grid) == 0:
        raise ValueError("sweep grid is empty")
    h, cfg_hash, nominal = cfg.harness, config_mod.config_hash(cfg), cfg.physics.object
    out = []
    for value in grid:
        if parameter == "scale":
            half = tuple(float(x) for x in np.asarray(nominal.half_extents) * value)
            obj = replace(nominal, half_extents=half, radius=float(nominal.radius * value))
        else:
            obj = replace(nominal, mass=float(nominal.mass * value))
        report = evaluate(
            agent, h.eval_trials, h.eval_seed, task=cfg.task, phys=replace(cfg.physics, object=obj),
            checkpoint_hash=checkpoint_hash, config_hash=cfg_hash,
        )
        out.append({"parameter": parameter, "value": float(value), "report": report})
    return out


def threshold_heatmap(
    report: EvalReport, pos_thresholds: list, rot_thresholds: list
) -> np.ndarray:
    """Success matrix (len(pos) x len(rot)) re-scoring the same trials as
    ``evaluate`` scores them."""
    pos_err = np.asarray(report.final_pos_err)
    rot_err = np.asarray(report.final_rot_err)
    matrix = np.empty((len(pos_thresholds), len(rot_thresholds)))
    for i, pt in enumerate(pos_thresholds):
        for j, rt in enumerate(rot_thresholds):
            matrix[i, j] = success_rate(check_success(pos_err, rot_err, pt, rt), report.fault)
    return matrix


def zero_shot_objects(
    agent: PPOAgent, cfg: config_mod.EngineConfig, object_names: list[str],
    checkpoint_hash: str = "",
) -> dict[str, EvalReport]:
    """Swap the simulated object of ``cfg``'s physics, keep the cube-corner
    keypoint encoding and the 10 Hz camera model, disable all other
    randomization, evaluate.

    The keypoints fed to the policy remain those of the nominal training
    object's box regardless of the object's true shape.
    """
    h, cfg_hash, nominal = cfg.harness, config_mod.config_hash(cfg), cfg.physics.object
    kp_half = tuple(float(x) for x in nominal.box_half_extents())
    tcfg = replace(cfg.task, keypoint_half_extents=kp_half)
    out = {}
    for name in object_names:
        if name not in TRANSFER_OBJECTS:
            raise ValueError(
                f"unsupported object {name!r}; known: {sorted(TRANSFER_OBJECTS)}"
            )
        obj = replace(TRANSFER_OBJECTS[name], mass=nominal.mass, friction=nominal.friction)
        out[name] = evaluate(
            agent, h.eval_trials, h.eval_seed, task=tcfg, phys=replace(cfg.physics, object=obj),
            checkpoint_hash=checkpoint_hash, config_hash=cfg_hash,
        )
    return out
