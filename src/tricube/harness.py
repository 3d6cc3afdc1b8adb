"""Evaluation protocols: paired ablations, robustness sweeps, success
threshold heatmaps, position/orientation breakdowns, and zero-shot object
transfer.

Every evaluation runs N single-episode trials, one per env id 0 to N-1,
with a fixed evaluation seed.  Because resets and noise draw from
counter-based streams keyed by (seed, env_id, episode), two policies
evaluated with the same seed face identical goals, spawns, and
randomizations: ablation arms are paired by construction.

``evaluate`` splits the trials into contiguous shards, one per core this
process may run on (``os.sched_getaffinity``; restrict it with ``taskset``),
and steps each shard's envs in a forked process at one BLAS thread; the
calling process steps the first shard itself.  Env ids are global, and on
an OpenBLAS kernel with the row property of ``nets`` (``SkylakeX`` and
``Sandybridge``, not ``Haswell``) the policy's inference gives a row the
same bits in any batch, so each trial's bits do not depend on the shard it
ran in and every report is byte-equal for any shard count; every
``manifest.json`` names the kernel (``blas.corename``).  Each shard's task
takes the trial count as its whole batch's env count, so the reach cutoff
(``task.reach_cutoff_steps``) switches the reach term off at the same step
in every shard as in one batch.  Shard bounds fall on multiples of
``INFER_ROWS``, so only the last shard has a tail, and it is the batch's
own.  The shard count is no part of the run's config or identity.

The protocols take the resolved ``EngineConfig`` and read the trial count,
evaluation seed, task and physics from it; every one runs with
randomization off.  Reports carry the config hash, checkpoint hash, seed,
and trial count, and re-running a report spec reproduces it byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import signal
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import config as config_mod
from .config import TRANSFER_OBJECTS
from .domrand import DRConfig
from .env import CubeReposeTask, TaskConfig, check_success
from .nets import INFER_ROWS, openblas_thread_controls, one_blas_thread
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


def shard_bounds(n_trials: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` trial ranges of at most ``n_shards`` shards,
    each at least one ``INFER_ROWS`` block, with bounds on block multiples."""
    blocks = -(-n_trials // INFER_ROWS)
    n_shards = max(1, min(n_shards, blocks))
    edges = [min(INFER_ROWS * (blocks * i // n_shards), n_trials) for i in range(n_shards + 1)]
    return list(zip(edges[:-1], edges[1:]))


def usable_shards() -> int:
    """One shard per core this process may run on, where it can fork and
    can hold each shard's BLAS to one thread (so the shards never run more
    threads than cores); else 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if openblas_thread_controls() is None:
        return 1
    return len(os.sched_getaffinity(0))


def _fork_shard(run, lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that sends back the pickled ``(True, run(lo, hi))``, or
    ``(False, exception)``; returns its pid and the pipe's read end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's frames
        code = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps((True, run(lo, hi)))
            except BaseException as err:  # sent to the parent, raised there
                try:
                    payload = pickle.dumps((False, err))
                except Exception:  # an exception that does not pickle
                    payload = pickle.dumps((False, RuntimeError(f"{type(err).__name__}: {err}")))
            with os.fdopen(w, "wb") as f:
                f.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def run_sharded(run, bounds: list[tuple[int, int]]) -> list:
    """``run(lo, hi)`` of each shard, in shard order: the first shard in
    this process, every other one in a forked child.  A shard's exception
    is raised here.  On every path each child is waited for (and killed if
    its result is no longer wanted) before this returns.

    Forking, not spawning: a child starts from this process's memory (the
    agent and modules, nothing pickled in or imported again), and the only
    threads here are OpenBLAS's, whose own fork handler stops them before
    the fork.  The nets' helper thread lives only inside a split ``MLP``
    pass or a rollout's step loop at 2 or more BLAS threads, and
    ``evaluate`` runs its shards at one BLAS thread, where no pass starts
    one."""
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for lo, hi in bounds[1:]:
            pid, r = _fork_shard(run, lo, hi)
            children[pid] = r
        results = [run(*bounds[0])]
        for pid in list(children):
            with os.fdopen(children[pid], "rb") as f:
                children[pid] = None
                data = f.read()
            os.waitpid(pid, 0)
            del children[pid]
            ok, value = pickle.loads(data) if data else (
                False, RuntimeError(f"evaluation shard process {pid} ended without a result"))
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in children.items():
            if r is not None:
                os.close(r)
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # already reaped
                pass


def episode_records(agent: PPOAgent, lo: int, hi: int, n_trials: int, eval_seed: int,
                    task: TaskConfig, phys: PhysicsConfig | None, dr: DRConfig) -> list[dict]:
    """The first-episode records of trials ``lo`` to ``hi - 1`` of ``n_trials``, by env id."""
    env = CubeReposeTask(hi - lo, seed=eval_seed, task=task, phys=phys, dr=dr, env_offset=lo,
                         batch_envs=n_trials)
    obs = env.reset_all()
    for _ in range(task.episode_length):
        act, _ = agent.act(obs["actor"], stochastic=False)
        obs, _, done, _ = env.step(act)
    records = [r for r in env.drain_episode_records() if r["episode"] == 0]
    records.sort(key=lambda r: r["env_id"])
    if len(records) != hi - lo:
        raise RuntimeError(f"expected {hi - lo} episode records, got {len(records)}")
    return records


def evaluate(
    agent: PPOAgent,
    n_trials: int,
    eval_seed: int,
    task: TaskConfig,
    phys: PhysicsConfig | None = None,
    dr: DRConfig | None = None,
    checkpoint_hash: str = "",
    config_hash: str = "",
) -> EvalReport:
    """Run one fixed-length episode in each of ``n_trials`` envs and score
    end-of-episode success, with randomization off unless ``dr`` is given.
    Each trial is its env's first episode; a trial that ends in an env
    fault is a failure in every rate, and the episodes its reset starts are
    not scored.
    The trials run in shards, one per usable core (see the module
    docstring); the report is the same for any shard count.
    No trials give rates and a mean return of 0.0.  The report carries the
    two hashes it is handed: ``config.config_hash`` of the run's resolved
    config and the checkpoint file's."""
    dr = dr or DRConfig(enabled=False)
    bounds = shard_bounds(n_trials, usable_shards())
    with one_blas_thread() if len(bounds) > 1 else contextlib.nullcontext():
        shards = run_sharded(
            lambda lo, hi: episode_records(agent, lo, hi, n_trials, eval_seed, task, phys, dr),
            bounds)
    records = [r for shard in shards for r in shard]
    pos_err = np.array([r["final_pos_err"] for r in records])
    rot_err = np.array([r["final_rot_err"] for r in records])
    fault = np.array([r["fault"] for r in records], dtype=bool)
    combined, pos_rate, rot_rate = success_breakdown(
        pos_err, rot_err, task.success_pos_threshold, task.success_rot_threshold, fault
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
        obj = replace(TRANSFER_OBJECTS[name], mass=nominal.mass, friction=nominal.friction)
        out[name] = evaluate(
            agent, h.eval_trials, h.eval_seed, task=tcfg, phys=replace(cfg.physics, object=obj),
            checkpoint_hash=checkpoint_hash, config_hash=cfg_hash,
        )
    return out
