"""Engine configuration: one tree of typed blocks, JSON on disk, strict on
unknown keys.

Resolution order is profile defaults, then the config file, then ``--set
section.key=value`` overrides.  The resolved tree round-trips through JSON
exactly (parse -> serialize -> parse is the identity), is validated before
any run starts, and its canonical-JSON hash identifies the run in every
report and manifest.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .domrand import DRConfig
from .env import TaskConfig
from .physics import PhysicsConfig
from .ppo import PPOConfig
from .reach import ReachConfig


class ConfigError(ValueError):
    pass


@dataclass
class HarnessConfig:
    eval_trials: int = 1024
    eval_seed: int = 10_000
    ablation_seeds: tuple = (0, 1, 2)
    ablation_total_steps: int = 50_000_000
    sweep_scale_grid: tuple = (0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5)
    sweep_mass_grid: tuple = (0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 4.0)
    heatmap_pos_thresholds: tuple = (0.01, 0.02, 0.03, 0.05)
    heatmap_rot_thresholds_deg: tuple = (11.0, 22.0, 33.0, 45.0)
    transfer_objects: tuple = (
        "cube_6.5cm",
        "ball_r3.75cm",
        "cuboid_2x8x2cm",
        "cuboid_2x8x4cm",
        "cuboid_4x8x4cm",
        "cuboid_2x6.5x2cm",
        "cuboid_2x6.5x4cm",
        "cuboid_4x6.5x4cm",
    )


@dataclass
class RunConfig:
    seed: int = 0
    task: str = "cube_repose"  # or "reach"
    num_envs: int = 4096
    total_steps: int = 1_000_000_000
    checkpoint_interval: int = 50  # iterations
    stop_after_steps: int | None = None
    output_dir: str = "runs/default"

    def __post_init__(self):
        if self.num_envs <= 0 or self.total_steps <= 0:
            raise ValueError("num_envs and total_steps must be positive")
        if self.task not in ("cube_repose", "reach"):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass
class EngineConfig:
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    dr: DRConfig = field(default_factory=DRConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    reach: ReachConfig = field(default_factory=ReachConfig)
    harness: HarnessConfig = field(default_factory=HarnessConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def validate(self) -> None:
        if self.ppo.batch_size % self.run.num_envs != 0:
            raise ConfigError(
                f"ppo.batch_size {self.ppo.batch_size} must be divisible by run.num_envs {self.run.num_envs}"
            )
        if self.run.stop_after_steps is not None and self.run.stop_after_steps <= 0:
            raise ConfigError("run.stop_after_steps must be positive when set")


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


def _coerce_like(default, value, path: str):
    if dataclasses.is_dataclass(default):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a table, got {type(value).__name__}")
        return _build(type(default), default, value, path)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        return tuple(value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{path}: expected an integer")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    # default is None (optional field): accept what JSON gave us
    return tuple(value) if isinstance(value, list) else value


def _build(cls, defaults, data: dict, path: str):
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            sub_path = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _coerce_like(getattr(defaults, f.name), data[f.name], sub_path)
        else:
            kwargs[f.name] = copy.deepcopy(getattr(defaults, f.name))
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{path or cls.__name__}: {err}") from err


def from_dict(data: dict) -> EngineConfig:
    cfg = _build(EngineConfig, EngineConfig(), data, "")
    cfg.validate()
    return cfg


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


def config_hash(cfg: EngineConfig) -> str:
    """Digest of the canonical JSON, leaving out ``run.output_dir``: where the
    artifacts land changes none of them, so two runs of one config in two
    directories share an identity."""
    data = to_dict(cfg)
    del data["run"]["output_dir"]
    canon = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
