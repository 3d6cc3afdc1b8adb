import dataclasses
import json

import pytest
from test_cli import TINY, outroot, run_cli  # noqa: F401 (outroot is a fixture)

from tricube import config as config_mod
from tricube.cli import EXIT_CONFIG
from tricube.config import (TRANSFER_OBJECTS, ConfigError, EngineConfig, config_hash, from_dict,
                            resolve, to_dict)
from tricube.physics import ObjectParams
from tricube.ppo import PPOConfig


def test_defaults_carry_reference_values():
    cfg = resolve("paper")
    assert cfg.ppo.gamma == 0.99
    assert cfg.ppo.gae_tau == 0.95
    assert cfg.ppo.lr_start == 5e-4
    assert cfg.ppo.lr_end == 1e-6
    assert cfg.ppo.batch_size == 65536
    assert cfg.ppo.minibatch_size == 16384
    assert cfg.ppo.epochs == 8
    assert cfg.ppo.clip_eps == 0.2
    assert cfg.ppo.entropy_coef == 0.0
    assert cfg.ppo.policy_hidden == (256, 256, 128, 128)
    assert cfg.ppo.value_hidden == (512, 512, 256, 128)
    assert cfg.task.w_fingertip_reach == -750.0
    assert cfg.task.w_fingertip_vel == -0.5
    assert cfg.task.w_object_goal == 40.0
    assert cfg.task.kernel_keypoints.a == 30.0 and cfg.task.kernel_keypoints.b == 2.0
    assert cfg.task.kernel_pos.a == 50.0
    assert cfg.task.reach_cutoff_steps == 5e7
    assert cfg.task.success_pos_threshold == 0.02
    assert abs(cfg.task.success_rot_threshold - 0.3839724354387525) < 1e-12
    assert cfg.dr.cube_position.sigma == 0.002
    assert cfg.dr.cube_orientation.sigma == 0.020
    assert cfg.dr.joint_position.sigma == 0.003 and cfg.dr.joint_position.sigma_corr == 0.004
    assert cfg.dr.torque.sigma == 0.02 and cfg.dr.torque.sigma_corr == 0.01
    assert cfg.dr.object_scale_range == (0.97, 1.03)
    assert cfg.dr.object_mass_range == (0.70, 1.30)
    assert cfg.dr.object_friction_range == (0.70, 1.30)
    assert cfg.dr.table_friction_range == (0.50, 1.50)
    assert cfg.physics.dt == 0.02
    assert cfg.physics.hand.max_torque == 0.36
    assert cfg.physics.hand.joint_lower == -2.70 and cfg.physics.hand.joint_upper == 1.57
    assert cfg.task.camera_repeat == 5
    assert cfg.run.num_envs == 4096


def test_round_trip_identity():
    cfg = resolve("paper")
    d1 = to_dict(cfg)
    cfg2 = from_dict(json.loads(json.dumps(d1)))
    d2 = to_dict(cfg2)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert config_hash(cfg) == config_hash(cfg2)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        from_dict({"ppo": {"gama": 0.98}})
    with pytest.raises(ConfigError, match="unknown keys"):
        from_dict({"not_a_section": {}})
    with pytest.raises(ConfigError, match="dr.torque"):
        from_dict({"dr": {"torque": {"sgima": 1}}})


def test_type_errors_are_reported_with_path():
    with pytest.raises(ConfigError, match="ppo.gamma"):
        from_dict({"ppo": {"gamma": "fast"}})
    with pytest.raises(ConfigError, match="run.num_envs"):
        from_dict({"run": {"num_envs": 2.5}})
    with pytest.raises(ConfigError, match="dr.enabled"):
        from_dict({"dr": {"enabled": 1}})


def test_validation_catches_cross_field_issues():
    with pytest.raises(ConfigError, match="divisible"):
        resolve("paper", set_exprs=["run.num_envs=1000"])
    with pytest.raises(ConfigError):
        resolve("paper", set_exprs=["ppo.minibatch_size=999"])
    with pytest.raises(ConfigError):
        resolve("paper", set_exprs=["task.episode_length=0"])


def test_set_override_parsing():
    cfg = resolve("paper", set_exprs=[
        "run.num_envs=256",
        "ppo.batch_size=512",
        "ppo.minibatch_size=256",
        "task.obs_variant=pos_quat",
        "dr.enabled=false",
        "ppo.policy_hidden=[32, 32]",
    ])
    assert cfg.run.num_envs == 256
    assert cfg.task.obs_variant == "pos_quat"
    assert cfg.dr.enabled is False
    assert cfg.ppo.policy_hidden == (32, 32)
    with pytest.raises(ConfigError):
        config_mod.parse_set_override("no_equals_sign")


def test_profiles():
    desk = resolve("desk")
    assert desk.run.total_steps == 50_000_000
    smoke = resolve("smoke")
    assert smoke.run.task == "reach"
    assert smoke.ppo.policy_hidden == (64, 64)
    with pytest.raises(ConfigError, match="unknown profile"):
        resolve("imaginary")


def test_file_merge(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"run": {"num_envs": 128}, "ppo": {"batch_size": 256, "minibatch_size": 128}}))
    cfg = resolve("paper", config_mod.load_file(str(p)), ["run.seed=9"])
    assert cfg.run.num_envs == 128 and cfg.run.seed == 9
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        config_mod.load_file(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1,2]")
    with pytest.raises(ConfigError, match="top level"):
        config_mod.load_file(str(lst))


def test_hash_changes_with_content():
    a = resolve("paper")
    b = resolve("paper", set_exprs=["run.seed=1"])
    assert config_hash(a) != config_hash(b)
    # where the artifacts land is no part of the run's identity
    assert config_hash(resolve("paper", set_exprs=["run.output_dir=elsewhere"])) == config_hash(a)


def test_shipped_profiles_keep_their_hashes():
    # the declared domains admit every value the shipped configs use
    want = {"paper": "d06b939d29d3f1d1", "desk": "d836d3d9478d42ff", "smoke": "f495bad89ef48d4e"}
    assert {name: config_hash(resolve(name)) for name in want} == want
    for obj in TRANSFER_OBJECTS.values():
        assert from_dict({"physics": {"object": to_dict(obj)}}).physics.object == obj


def test_tuple_leaves_coerce_their_elements():
    ints = resolve("paper", set_exprs=["dr.object_scale_range=[1,1]"])
    floats = resolve("paper", set_exprs=["dr.object_scale_range=[1.0,1.0]"])
    assert ints.dr.object_scale_range == (1.0, 1.0)
    assert config_hash(ints) == config_hash(floats)
    hidden = resolve("paper", set_exprs=["ppo.policy_hidden=[16.0]"]).ppo.policy_hidden
    assert hidden == (16,) and isinstance(hidden[0], int)


def test_direct_construction_and_replace_are_checked_too():
    with pytest.raises(ValueError, match="mass must be positive"):
        dataclasses.replace(ObjectParams(), mass=0.0)
    with pytest.raises(ValueError, match="log_std_min must be below log_std_max"):
        PPOConfig(log_std_min=3.0)


def config_leaves(obj, prefix=""):
    """``(dotted path, field)`` of every leaf under the config block ``obj``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from config_leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f


# one value of each kind outside every domain of that kind: a float leaf must
# be finite, no int leaf takes -1 and no string leaf "", a bool takes no number
OUTSIDE = {float: "NaN", int: "-1", str: '""', bool: "1"}


LEAVES = dict(config_leaves(EngineConfig()))


@pytest.mark.parametrize("path", LEAVES)
def test_every_leaf_has_a_domain_and_a_value_outside_it_exits_2(outroot, capsys, path):
    f = LEAVES[path]
    assert "domain" in f.metadata, f"{path} declares no domain"
    bad = OUTSIDE[f.metadata["kind"]]
    if isinstance(f.default, tuple):
        bad = f"[{bad}]"  # an element outside the elements' domain
    assert run_cli("train", *TINY, "--set", f"{path}={bad}", "--dry-run") == EXIT_CONFIG
    section, name = path.rsplit(".", 1)
    err = capsys.readouterr().err
    assert f"{section}: {name} must be" in err or f"{path}: expected" in err, err
    assert not any(outroot.iterdir())


@pytest.mark.parametrize("expr, want", [
    ("dr.object_scale_range=[-1,-1]", "dr: object_scale_range must be positive"),
    ("dr.object_scale_range=[1.2,0.8]", "dr: object_scale_range must be an ordered pair"),
    ("ppo.gamma=-1", "ppo: gamma must be in [0, 1]"),
    ("ppo.clip_eps=-1", "ppo: clip_eps must be positive"),
    ("ppo.log_std_min=3", "ppo: log_std_min must be below log_std_max"),
    ("dr.external_force.prob=2", "dr.external_force: prob must be in [0, 1]"),
    ("dr.external_force.decay=2", "dr.external_force: decay must be in [0, 1]"),
    ("reach.target_radius_min=0.5", "reach: target_radius_min must be at most target_radius_max"),
    ("harness.ablation_seeds=[0.5]", "harness.ablation_seeds: expected an integer"),
    ("run.seed=-1", "run: seed must be an integer in [0, 2**64)"),
    ("run.checkpoint_interval=-1", "run: checkpoint_interval must be non-negative"),
    ("ppo.policy_hidden=[16.5]", "ppo.policy_hidden: expected an integer"),
    ('task.keypoint_half_extents="abc"', "task: keypoint_half_extents must be 3 values"),
    ("ppo.lr_start=NaN", "ppo: lr_start must be positive"),
])
def test_values_that_used_to_train_or_crash_are_config_errors(outroot, capsys, expr, want):
    assert run_cli("train", "--out", "bad", *TINY, "--set", expr) == EXIT_CONFIG
    assert want in capsys.readouterr().err
    assert not any(outroot.iterdir())


HUGE = "1" + "0" * 400  # a JSON integer past the largest float


@pytest.mark.parametrize("expr, want", [
    (f"physics.dt={HUGE}", "physics.dt: expected a finite number, got an integer too large"),
    (f"dr.object_scale_range=[1,{HUGE}]", "dr.object_scale_range: expected a finite number"),
    (f"run.seed={HUGE}", "run: seed must be an integer in [0, 2**64)"),
], ids=["float-leaf", "float-element", "int-leaf"])
def test_an_integer_too_large_for_its_leaf_is_a_config_error(outroot, capsys, expr, want):
    assert run_cli("train", *TINY, "--set", expr, "--dry-run") == EXIT_CONFIG
    assert want in capsys.readouterr().err
    assert not any(outroot.iterdir())


@pytest.mark.parametrize("key, value", [
    ("ppo.max_grad_norm", 0), ("ppo.max_grad_norm", -1), ("harness.eval_trials", 0),
    ("run.checkpoint_interval", 0),
])
def test_the_documented_sentinels_stay_in_their_domains(key, value):
    section, name = key.split(".")
    assert getattr(getattr(resolve("paper", set_exprs=[f"{key}={value}"]), section), name) == value
