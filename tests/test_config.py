import json

import pytest

from tricube import config as config_mod
from tricube.config import ConfigError, config_hash, from_dict, resolve, to_dict


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
