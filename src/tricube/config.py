"""Engine configuration: one tree of typed blocks, JSON on disk, strict on
unknown keys.

Resolution order is profile defaults, then the config file, then ``--set
section.key=value`` overrides.  The resolved tree round-trips through JSON
exactly (parse -> serialize -> parse is the identity), and its
canonical-JSON hash identifies the run in every report and manifest.  Every
leaf declares its domain (``domains``), and building the tree checks each
one: an out-of-domain leaf is a ``ConfigError`` naming its path.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .domains import NON_EMPTY, NON_NEGATIVE, POSITIVE, SEED, Checked, ConfigError, leaf, list_of, one_of
from .domrand import DRConfig
from .env import TaskConfig
from .physics import ObjectParams, PhysicsConfig
from .ppo import PPOConfig
from .reach import ReachConfig


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


@dataclass
class HarnessConfig(Checked):
    eval_trials: int = leaf(1024, NON_NEGATIVE, off="0 runs no trials")
    eval_seed: int = leaf(10_000, SEED)
    ablation_seeds: tuple = leaf((0, 1, 2), list_of(SEED, NON_EMPTY))
    ablation_total_steps: int = leaf(50_000_000, POSITIVE)
    sweep_scale_grid: tuple = leaf((0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5), list_of(POSITIVE, NON_EMPTY))
    sweep_mass_grid: tuple = leaf((0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 4.0), list_of(POSITIVE, NON_EMPTY))
    heatmap_pos_thresholds: tuple = leaf((0.01, 0.02, 0.03, 0.05), list_of(POSITIVE, NON_EMPTY))
    heatmap_rot_thresholds_deg: tuple = leaf((11.0, 22.0, 33.0, 45.0), list_of(POSITIVE, NON_EMPTY))
    transfer_objects: tuple = leaf(tuple(TRANSFER_OBJECTS), list_of(one_of(*TRANSFER_OBJECTS), NON_EMPTY))


@dataclass
class RunConfig(Checked):
    seed: int = leaf(0, SEED)
    task: str = leaf("cube_repose", one_of("cube_repose", "reach"))
    num_envs: int = leaf(4096, POSITIVE)
    total_steps: int = leaf(1_000_000_000, POSITIVE)
    checkpoint_interval: int = leaf(50, NON_NEGATIVE, off="0 writes no periodic checkpoints")  # iterations
    stop_after_steps: int | None = leaf(None, POSITIVE, kind=int)
    output_dir: str = leaf("runs/default", NON_EMPTY)


@dataclass
class EngineConfig(Checked):
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    dr: DRConfig = field(default_factory=DRConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reach: ReachConfig = field(default_factory=ReachConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    run: RunConfig = field(default_factory=RunConfig)

    # the one rule across two sections
    RULES = (("ppo.batch_size", "divisible by", "run.num_envs"),)


# Profiles are override dicts on top of the dataclass defaults.  The default
# profile reproduces the reference setup end to end (the dataclass defaults
# already carry every cited numeric value); the desk profile trims total
# steps to workstation scale; smoke drives the 2-DoF reach task.
PROFILES: dict[str, dict] = {
    "paper": {},
    "desk": {
        "run": {"total_steps": 50_000_000},
    },
    "smoke": {
        "run": {"task": "reach", "num_envs": 512, "total_steps": 1_200_000, "checkpoint_interval": 0},
        "ppo": {
            "batch_size": 7680,
            "minibatch_size": 1920,
            "lr_start": 8e-4,
            "lr_end": 5e-5,
            "gamma": 0.95,
            "gae_tau": 0.9,
            "policy_hidden": [64, 64],
            "value_hidden": [128, 128],
            "log_std_init": -1.2,
        },
    },
}


# ----------------------------------------------------------- dict plumbing


def to_dict(obj) -> dict:
    """Dataclass tree -> plain JSON-ready dict (tuples become lists)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_dict(v) for v in obj]
    return obj


def _build(cls, defaults, data: dict, path: str):
    """``cls`` from ``defaults`` under ``data``, built, and so checked, bottom-up."""
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        default, sub_path = getattr(defaults, f.name), f"{path}.{f.name}" if path else f.name
        if f.name not in data:
            kwargs[f.name] = copy.deepcopy(default)
        elif not dataclasses.is_dataclass(default):
            kwargs[f.name] = f.metadata["domain"].coerce(data[f.name], f.metadata["kind"], sub_path)
        elif isinstance(data[f.name], dict):
            kwargs[f.name] = _build(type(default), default, data[f.name], sub_path)
        else:
            raise ConfigError(f"{sub_path}: expected a table, got {type(data[f.name]).__name__}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}" if path else str(err)) from err


def from_dict(data: dict) -> EngineConfig:
    return _build(EngineConfig, EngineConfig(), data, "")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def parse_set_override(expr: str) -> dict:
    """``section.key=value`` (arbitrarily nested) -> a one-leaf dict."""
    if "=" not in expr:
        raise ConfigError(f"--set needs key=value, got {expr!r}")
    key, _, raw = expr.partition("=")
    parts = [p for p in key.strip().split(".") if p]
    if not parts:
        raise ConfigError(f"--set has an empty key in {expr!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are fine
    leaf: dict = {parts[-1]: value}
    for p in reversed(parts[:-1]):
        leaf = {p: leaf}
    return leaf


def resolve(
    profile: str = "paper",
    file_data: dict | None = None,
    set_exprs: list[str] | None = None,
) -> EngineConfig:
    """Profile defaults <- config file <- --set overrides, then validate."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; available: {sorted(PROFILES)}")
    data = copy.deepcopy(PROFILES[profile])
    if file_data:
        data = _deep_merge(data, file_data)
    for expr in set_exprs or []:
        data = _deep_merge(data, parse_set_override(expr))
    return from_dict(data)


def load_file(path: str) -> dict:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


def run_identity(cfg: EngineConfig) -> dict:
    """The resolved config as a plain dict, leaving out ``run.output_dir``:
    where the artifacts land changes none of them, so two runs of one config
    in two directories share an identity.  Checkpoints store it and
    ``config_hash`` digests it."""
    data = to_dict(cfg)
    del data["run"]["output_dir"]
    return data


def config_hash(cfg: EngineConfig) -> str:
    """Digest of the canonical JSON of ``run_identity(cfg)``."""
    canon = json.dumps(run_identity(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
