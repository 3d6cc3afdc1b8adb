import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from tricube import ppo, spatial
from tricube.cli import EXIT_CONFIG, EXIT_INCOMPAT, EXIT_OK, EXIT_RUNTIME, main
from tricube.physics import PhysicsConfig

TINY = [
    "--set", "run.num_envs=8",
    "--set", "ppo.batch_size=128",
    "--set", "ppo.minibatch_size=64",
    "--set", "ppo.epochs=1",
    "--set", "ppo.policy_hidden=[16]",
    "--set", "ppo.value_hidden=[16]",
    "--set", "task.episode_length=10",
    "--set", "run.total_steps=384",
    "--set", "run.checkpoint_interval=0",
]


@pytest.fixture
def outroot(tmp_path, monkeypatch):
    monkeypatch.setenv("TRICUBE_OUT", str(tmp_path))
    return tmp_path


def run_cli(*args) -> int:
    return main(list(args))


def count_checkpoint_reads(monkeypatch) -> list:
    """Wrap ``read_checkpoint`` wherever a module binds it; the returned
    list collects the path of every read."""
    from tricube import cli, ppo, trainer

    reads, real_read = [], ppo.read_checkpoint

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    for mod in (cli, ppo, trainer):
        if hasattr(mod, "read_checkpoint"):
            monkeypatch.setattr(mod, "read_checkpoint", counting_read)
    return reads


def test_dry_run_prints_config(outroot, capsys):
    assert run_cli("train", "--profile", "paper", "--dry-run") == EXIT_OK
    out = capsys.readouterr().out
    cfg = json.loads(out)
    assert cfg["ppo"]["batch_size"] == 65536
    assert not any(outroot.iterdir())  # nothing written


def test_train_writes_artifacts(outroot):
    assert run_cli("train", "--out", "runA", "--seed", "3", *TINY) == EXIT_OK
    d = outroot / "runA"
    for name in ("config.json", "metrics.jsonl", "timing.jsonl", "episodes.jsonl",
                 "manifest.json", "ckpt_final.tckpt"):
        assert (d / name).exists(), name
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert manifest["config"]["run"]["num_envs"] == 8
    assert not (d / ".lock").exists()  # released
    # only writes inside the output dir
    assert {p.name for p in outroot.iterdir()} == {"runA"}


def test_phase_seconds_reach_the_manifest_and_the_wallclock_figure(outroot):
    from tricube import cli

    assert run_cli("train", "--out", "tr", "--seed", "3", *TINY) == EXIT_OK
    timing = [json.loads(l) for l in (outroot / "tr" / "timing.jsonl").read_text().splitlines()]
    throughput = json.loads((outroot / "tr" / "manifest.json").read_text())["throughput"]
    assert set(throughput) == set(cli.TIMING_KEYS)
    for key in cli.TIMING_KEYS:
        assert throughput[key] == pytest.approx(np.mean([t[key] for t in timing]))
    assert run_cli("plot", "--out", "pl", "--metrics", str(outroot / "tr" / "metrics.jsonl")) == EXIT_OK
    assert (outroot / "pl" / "success_vs_wallclock.svg").read_text().startswith("<svg")
    # a resumed run's timing file may open with records that have no phase keys
    old = outroot / "old.jsonl"
    old.write_text('{"env_steps_per_sec": 10.0, "iteration": 1, "seconds": 1.0}\n'
                   + json.dumps(timing[0]) + "\n")
    means = cli._mean_timing(str(old))
    assert means["env_steps_per_sec"] == pytest.approx((10.0 + timing[0]["env_steps_per_sec"]) / 2)
    assert means["update_seconds"] == timing[0]["update_seconds"]
    assert cli._mean_timing(str(outroot / "none.jsonl")) == dict.fromkeys(cli.TIMING_KEYS)


def test_the_manifest_names_the_blas_build_and_the_checkpoint_does_not(outroot, monkeypatch):
    from tricube import nets
    from tricube.ppo import read_checkpoint

    assert run_cli("train", "--out", "a", "--seed", "3", *TINY) == EXIT_OK
    blas = json.loads((outroot / "a" / "manifest.json").read_text())["blas"]
    controls = nets.openblas_thread_controls()
    if controls is None:
        assert blas == {"config": None, "corename": None, "threads": None}
    else:
        assert blas["threads"] == controls[0]() >= 1
        assert blas["corename"] and blas["corename"] in blas["config"]
        assert blas["config"].startswith("OpenBLAS")
    # under another BLAS each entry is null; the checkpoint bytes stay the same
    monkeypatch.setattr(nets, "_openblas", lambda: None)
    assert run_cli("train", "--out", "b", "--seed", "3", *TINY) == EXIT_OK
    blas = json.loads((outroot / "b" / "manifest.json").read_text())["blas"]
    assert blas == {"config": None, "corename": None, "threads": None}
    ckpt_a, ckpt_b = (outroot / d / "ckpt_final.tckpt" for d in ("a", "b"))
    assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
    assert "blas" not in json.dumps(read_checkpoint(str(ckpt_a))[1])


def test_same_seed_trains_identical_metrics(outroot):
    assert run_cli("train", "--out", "r1", "--seed", "5", *TINY) == EXIT_OK
    assert run_cli("train", "--out", "r2", "--seed", "5", *TINY) == EXIT_OK
    m1 = (outroot / "r1" / "metrics.jsonl").read_bytes()
    m2 = (outroot / "r2" / "metrics.jsonl").read_bytes()
    assert m1 == m2
    e1 = (outroot / "r1" / "episodes.jsonl").read_bytes()
    e2 = (outroot / "r2" / "episodes.jsonl").read_bytes()
    assert e1 == e2
    assert run_cli("train", "--out", "r3", "--seed", "6", *TINY) == EXIT_OK
    assert (outroot / "r3" / "metrics.jsonl").read_bytes() != m1


def test_resume_equivalence(outroot):
    assert run_cli("train", "--out", "full", "--seed", "8", *TINY) == EXIT_OK
    assert run_cli(
        "train", "--out", "part1", "--seed", "8", *TINY, "--set", "run.stop_after_steps=128"
    ) == EXIT_OK
    assert run_cli(
        "train", "--out", "part2", "--seed", "8", *TINY,
        "--resume", str(outroot / "part1" / "ckpt_final.tckpt"),
    ) == EXIT_OK
    merged = (outroot / "part1" / "metrics.jsonl").read_text() + (
        outroot / "part2" / "metrics.jsonl"
    ).read_text()
    assert merged == (outroot / "full" / "metrics.jsonl").read_text()


def test_same_directory_resume_is_byte_equal_to_an_uninterrupted_run(outroot):
    every = ["--seed", "8", *TINY, "--set", "run.checkpoint_interval=1"]
    assert run_cli("train", "--out", "full", *every) == EXIT_OK
    assert run_cli("train", "--out", "again", *every) == EXIT_OK
    # train to iteration 2 and stop, then resume from iteration 1 in the same
    # directory: the logs drop the record of iteration 2 before it is rewritten
    assert run_cli("train", "--out", "crash", *every, "--set", "run.stop_after_steps=256") == EXIT_OK
    assert len((outroot / "crash" / "metrics.jsonl").read_text().splitlines()) == 2
    assert run_cli("train", "--out", "crash", *every,
                   "--resume", str(outroot / "crash" / "ckpt_000001.tckpt")) == EXIT_OK
    for name in ("metrics.jsonl", "episodes.jsonl", "ckpt_final.tckpt"):
        assert (outroot / "crash" / name).read_bytes() == (outroot / "full" / name).read_bytes(), name
    assert len((outroot / "crash" / "timing.jsonl").read_text().splitlines()) == 3
    assert (outroot / "again" / "ckpt_final.tckpt").read_bytes() == (
        outroot / "full" / "ckpt_final.tckpt").read_bytes()


def test_same_directory_resume_refuses_a_log_shorter_than_recorded(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "8", *TINY) == EXIT_OK
    metrics = outroot / "tr" / "metrics.jsonl"
    metrics.write_text(metrics.read_text().splitlines(keepends=True)[0])
    assert run_cli("train", "--out", "tr", "--seed", "8", *TINY,
                   "--resume", str(outroot / "tr" / "ckpt_final.tckpt")) == EXIT_INCOMPAT
    assert "holds 1 lines; the checkpoint recorded 3" in capsys.readouterr().err


def test_same_directory_resume_refuses_malformed_log_lines(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "8", *TINY) == EXIT_OK
    before = {p.name: p.read_bytes() for p in (outroot / "tr").iterdir()}
    bad = outroot / "tr" / "bad.tckpt"
    cases = {
        "no log_lines": (lambda m: {k: v for k, v in m.items() if k != "log_lines"},
                         "log_lines is None, not a dict"),
        "a list": (lambda m: {**m, "log_lines": [3, 3, 3]}, "log_lines is [3, 3, 3], not a dict"),
        "a missing count": (lambda m: {**m, "log_lines": {"metrics.jsonl": 3}},
                            "log_lines['timing.jsonl'] is None, not a line count"),
        "a float count": (lambda m: {**m, "log_lines": {**m["log_lines"], "metrics.jsonl": 3.0}},
                          "log_lines['metrics.jsonl'] is 3.0, not a line count"),
        "a negative count": (lambda m: {**m, "log_lines": {**m["log_lines"], "episodes.jsonl": -1}},
                             "log_lines['episodes.jsonl'] is -1, not a line count"),
    }
    for case, (edit, what) in cases.items():
        edit_manifest(outroot / "tr" / "ckpt_final.tckpt", bad, edit)
        assert run_cli("train", "--out", "tr", "--seed", "8", *TINY,
                       "--resume", str(bad)) == EXIT_INCOMPAT, case
        assert what in capsys.readouterr().err, case
        bad.unlink()
        assert {p.name: p.read_bytes() for p in (outroot / "tr").iterdir()} == before, case


def test_fresh_train_into_a_directory_holding_a_run_is_refused(outroot, capsys):
    assert run_cli("train", "--out", "a", "--seed", "1", *TINY) == EXIT_OK
    before = {p.name: p.read_bytes() for p in (outroot / "a").iterdir()}
    assert run_cli("train", "--out", "a", "--seed", "1", *TINY) == EXIT_CONFIG
    assert f"{outroot / 'a'} already holds a run" in capsys.readouterr().err
    # so is a resume from a checkpoint of another directory
    assert run_cli("train", "--out", "b", "--seed", "1", *TINY,
                   "--set", "run.stop_after_steps=128") == EXIT_OK
    assert run_cli("train", "--out", "a", "--seed", "1", *TINY,
                   "--resume", str(outroot / "b" / "ckpt_final.tckpt")) == EXIT_CONFIG
    assert {p.name: p.read_bytes() for p in (outroot / "a").iterdir()} == before
    # one non-empty log is a run; nothing is written, not even config.json
    logs = outroot / "logs"
    logs.mkdir()
    (logs / "episodes.jsonl").write_text("{}\n")
    assert run_cli("train", "--out", "logs", *TINY) == EXIT_CONFIG
    assert [p.name for p in logs.iterdir()] == ["episodes.jsonl"]
    (logs / "episodes.jsonl").write_text("")
    assert run_cli("train", "--out", "logs", *TINY) == EXIT_OK


def test_lock_file_rejects_concurrent_runs(outroot):
    d = outroot / "locked"
    d.mkdir()
    (d / ".lock").write_text(str(os.getpid()))
    assert run_cli("train", "--out", "locked", *TINY) == EXIT_RUNTIME


def test_lock_of_a_dead_run_is_reclaimed(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    d = outroot / "stale"
    d.mkdir()
    (d / ".lock").write_text(child.stdout.strip())  # exited and reaped
    assert run_cli("eval", "--out", "stale", "--checkpoint", ckpt, "--trials", "0",
                   *TINY) == EXIT_OK
    assert json.loads((d / "eval_report.json").read_text())["n_trials"] == 0
    assert not (d / ".lock").exists()
    # a lock that holds no PID is never taken for stale
    (d / ".lock").write_text("held")
    assert run_cli("eval", "--out", "stale", "--checkpoint", ckpt, "--trials", "0",
                   *TINY) == EXIT_RUNTIME
    assert (d / ".lock").read_text() == "held"


def test_config_error_exit_code(outroot):
    assert run_cli("train", "--set", "ppo.gama=1") == EXIT_CONFIG
    assert run_cli("train", "--set", "run.num_envs=1000") == EXIT_CONFIG
    assert run_cli("train", "--config", str(outroot / "missing.json")) == EXIT_CONFIG


def test_eval_zero_trials_and_reports(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev0", "--checkpoint", ckpt, "--trials", "0", *TINY) == EXIT_OK
    rep = json.loads((outroot / "ev0" / "eval_report.json").read_text())
    assert rep["n_trials"] == 0

    assert run_cli("eval", "--out", "ev1", "--checkpoint", ckpt, "--trials", "6", *TINY) == EXIT_OK
    rep = json.loads((outroot / "ev1" / "eval_report.json").read_text())
    assert rep["n_trials"] == 6 and len(rep["final_pos_err"]) == 6
    assert rep["checkpoint_hash"]
    # same checkpoint and seed: identical report files
    assert run_cli("eval", "--out", "ev2", "--checkpoint", ckpt, "--trials", "6", *TINY) == EXIT_OK
    assert (outroot / "ev1" / "eval_report.json").read_bytes() == (
        outroot / "ev2" / "eval_report.json"
    ).read_bytes()


def test_eval_checkpoint_incompatibility(outroot):
    assert run_cli("train", "--out", "kp", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "kp" / "ckpt_final.tckpt")
    rc = run_cli(
        "eval", "--out", "bad", "--checkpoint", ckpt, "--trials", "2", *TINY,
        "--set", "task.obs_variant=pos_quat",
    )
    assert rc == EXIT_INCOMPAT


def test_resume_checkpoint_incompatibility(outroot, capsys):
    assert run_cli("train", "--out", "kp", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "kp" / "ckpt_final.tckpt")
    rc = run_cli("train", "--out", "pq", "--seed", "1", *TINY,
                 "--set", "task.obs_variant=pos_quat", "--resume", ckpt)
    assert rc == EXIT_INCOMPAT
    assert 'task.obs_variant "keypoints" (configured "pos_quat")' in capsys.readouterr().err
    rc = run_cli("train", "--out", "wide", "--seed", "1", *TINY,
                 "--set", "ppo.policy_hidden=[32]", "--resume", ckpt)
    assert rc == EXIT_INCOMPAT
    assert "ppo.policy_hidden [16] (configured [32])" in capsys.readouterr().err
    rc = run_cli("train", "--out", "more", "--seed", "1", *TINY,
                 "--set", "run.num_envs=16", "--resume", ckpt)
    assert rc == EXIT_INCOMPAT
    assert "run.num_envs 8 (configured 16)" in capsys.readouterr().err


def test_resume_refuses_another_seed_or_task_config(outroot, capsys):
    assert run_cli("train", "--out", "kp", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "kp" / "ckpt_final.tckpt")
    before = {p.name: p.read_bytes() for p in (outroot / "kp").iterdir()}
    assert run_cli("train", "--out", "kp", "--seed", "2", *TINY, "--resume", ckpt) == EXIT_INCOMPAT
    assert "run.seed 1 (configured 2)" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (outroot / "kp").iterdir()} == before  # untouched
    assert run_cli("train", "--out", "ep", "--seed", "1", *TINY,
                   "--set", "task.episode_length=20", "--resume", ckpt) == EXIT_INCOMPAT
    assert "task.episode_length 10 (configured 20)" in capsys.readouterr().err
    # how often the run checkpoints and the evaluation protocols may change
    assert run_cli("train", "--out", "ok", "--seed", "1", *TINY, "--set", "run.checkpoint_interval=5",
                   "--set", "harness.eval_trials=7", "--resume", ckpt) == EXIT_OK


def test_eval_refuses_another_ppo_config(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev", "--checkpoint", ckpt, "--trials", "2", *TINY,
                   "--set", "ppo.normalize_obs=false") == EXIT_INCOMPAT
    assert "ppo.normalize_obs true (configured false)" in capsys.readouterr().err
    # physics and task settings are what sweeps vary: still legal
    assert run_cli("eval", "--out", "ev2", "--checkpoint", ckpt, "--trials", "2", *TINY,
                   "--set", "task.episode_length=12", "--seed", "4") == EXIT_OK


def test_negative_trials_is_a_config_error(outroot):
    assert run_cli("eval", "--out", "ev", "--checkpoint", "unused", "--trials", "-1", *TINY) == EXIT_CONFIG
    assert run_cli("ablate", "--out", "ab", *TINY, "--set", "harness.ablation_total_steps=0") == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("epochs", "0"), ("epochs", "-1"), ("batch_size", "0"), ("batch_size", "-128"),
    ("minibatch_size", "0"), ("minibatch_size", "-4"),
])
def test_non_positive_ppo_sizes_are_config_errors(outroot, capsys, key, value):
    assert run_cli("train", *TINY, "--set", f"ppo.{key}={value}", "--dry-run") == EXIT_CONFIG
    assert f"ppo: {key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("physics.dt", "0"), ("physics.dt", "-0.02"), ("physics.n_substeps", "0"),
    ("physics.n_substeps", "-1"), ("task.camera_repeat", "0"), ("task.camera_repeat", "-5"),
])
def test_non_positive_step_settings_are_config_errors(outroot, capsys, key, value):
    assert run_cli("train", *TINY, "--set", f"{key}={value}", "--dry-run") == EXIT_CONFIG
    section, name = key.split(".")
    assert f"{section}: {name} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, want", [
    ("physics.object.mass", "0", "positive"),
    ("physics.object.half_extents", "[0,0.0325,0.0325]", "positive"),
    ("physics.object.radius", "-0.01", "positive"),
    ("physics.object.friction", "-0.1", "non-negative"),
    ("physics.hand.fingertip_radius", "-0.01", "positive"),
    ("physics.hand.link1_len", "0", "positive"),
    ("physics.hand.link2_len", "-0.16", "positive"),
    ("physics.hand.max_joint_vel", "0", "positive"),
    ("physics.hand.max_torque", "0", "positive"),
    ("physics.hand.joint_inertia", "[0.0,0.012,0.002]", "positive"),
    ("physics.hand.joint_inertia", "[0.012,0.012]", "3 values"),
    ("physics.hand.home_config", "[0.0,1.1]", "3 values"),
    ("physics.hand.joint_damping", "-0.02", "non-negative"),
    ("physics.hand.joint_lower", "1.57", "below joint_upper"),
    ("physics.contact.stiffness", "0", "positive"),
    ("physics.contact.friction_smoothing_vel", "0", "positive"),
    ("physics.contact.damping", "-1", "non-negative"),
    ("physics.contact.table_friction", "-0.5", "non-negative"),
    ("physics.safety_damping_coef", "-0.1", "non-negative"),
    ("task.keypoint_half_extents", "[0.03,0.03]", "3 values"),
    ("task.keypoint_half_extents", "[0,0.03,0.03]", "positive"),
])
def test_out_of_range_physics_constants_are_config_errors(outroot, capsys, key, value, want):
    assert run_cli("train", *TINY, "--set", f"{key}={value}") == EXIT_CONFIG
    section, name = key.rsplit(".", 1)
    assert f"{section}: {name} must be {want}" in capsys.readouterr().err
    assert not any(outroot.iterdir())


@pytest.mark.parametrize("value", ['"abc"', "1.5", "0", "true"])
def test_stop_after_steps_must_be_a_positive_integer(outroot, capsys, value):
    assert run_cli("train", *TINY, "--set", f"run.stop_after_steps={value}") == EXIT_CONFIG
    assert "run: stop_after_steps must be a positive integer" in capsys.readouterr().err
    assert not any(outroot.iterdir())


@pytest.mark.parametrize("key, value, section", [
    ("dr.torque.clamp_lo", "-1", "dr.torque"), ("dr.external_force_enabled", "false", "dr"),
])
def test_removed_randomization_keys_are_unknown(outroot, capsys, key, value, section):
    # the hand's limits live in physics.hand; external forces stop at prob 0
    assert run_cli("train", *TINY, "--set", f"{key}={value}") == EXIT_CONFIG
    assert f"{section}: unknown keys ['{key.rsplit('.', 1)[1]}']" in capsys.readouterr().err


def test_checkpoints_without_a_stored_config_are_refused(outroot, monkeypatch, capsys):
    from tricube import ppo

    version = ppo.CHECKPOINT_VERSION
    monkeypatch.setattr(ppo, "CHECKPOINT_VERSION", 1)
    assert run_cli("train", "--out", "v1", "--seed", "1", *TINY) == EXIT_OK
    monkeypatch.setattr(ppo, "CHECKPOINT_VERSION", version)
    v1 = str(outroot / "v1" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev", "--checkpoint", v1, "--trials", "2", *TINY) == EXIT_INCOMPAT
    assert "unsupported checkpoint version 1" in capsys.readouterr().err
    assert run_cli("train", "--out", "re", "--seed", "1", *TINY, "--resume", v1) == EXIT_INCOMPAT
    # a bare agent checkpoint carries no config
    bare = str(outroot / "bare.tckpt")
    ppo.PPOAgent(75, 147, 9, cfg=ppo.PPOConfig(), seed=0).save(bare)
    assert run_cli("eval", "--out", "ev2", "--checkpoint", bare, "--trials", "2", *TINY) == EXIT_INCOMPAT
    assert "records no config" in capsys.readouterr().err


def test_unreadable_checkpoint_exits_incompatible(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    cut = outroot / "cut.tckpt"
    cut.write_bytes((outroot / "tr" / "ckpt_final.tckpt").read_bytes()[:40])
    assert run_cli("eval", "--out", "ev", "--checkpoint", str(cut), "--trials", "2", *TINY) == EXIT_INCOMPAT
    assert run_cli("train", "--out", "re", *TINY, "--resume", str(cut)) == EXIT_INCOMPAT


def test_reports_carry_the_manifest_config_hash(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev", "--checkpoint", ckpt, "--trials", "2", *TINY) == EXIT_OK
    assert run_cli("sweep", "--out", "sw", "--checkpoint", ckpt, "--parameter", "mass",
                   "--grid", "[1.0]", "--trials", "2", *TINY) == EXIT_OK

    def manifest_hash(name):
        return json.loads((outroot / name / "manifest.json").read_text())["config_hash"]

    rep = json.loads((outroot / "ev" / "eval_report.json").read_text())
    assert rep["config_hash"] == manifest_hash("ev")
    pts = [json.loads(l) for l in (outroot / "sw" / "sweep_mass.jsonl").read_text().splitlines()]
    assert [p["report"]["config_hash"] for p in pts] == [manifest_hash("sw")]


def test_eval_reads_the_checkpoint_once_into_one_agent(outroot, monkeypatch):
    from tricube import ppo

    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    agents, real_init = [], ppo.PPOAgent.__init__

    def counting_init(self, *args, **kw):
        agents.append(self)
        real_init(self, *args, **kw)

    reads = count_checkpoint_reads(monkeypatch)
    monkeypatch.setattr(ppo.PPOAgent, "__init__", counting_init)
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev", "--checkpoint", ckpt, "--trials", "2", *TINY) == EXIT_OK
    assert reads == [ckpt] and len(agents) == 1


def test_checkpoint_commands_load_without_drawing_parameters(outroot, monkeypatch):
    from tricube import cli, config, nets, ppo

    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    saved = ppo.read_checkpoint(ckpt)[0]

    def no_draw(*args):
        raise AssertionError("a checkpoint load drew parameters")

    monkeypatch.setattr(nets, "orthogonal_init", no_draw)
    cfg = config.resolve("paper", None, TINY[1::2] + ["run.seed=1"])
    agent = cli.read_agent(SimpleNamespace(checkpoint=ckpt), cfg)["agent"]
    for name, arr in agent._net_tensors().items():
        assert arr.dtype == saved[name].dtype and arr.tobytes() == saved[name].tobytes(), name
    assert run_cli("eval", "--out", "ev", "--checkpoint", ckpt, "--trials", "2", *TINY) == EXIT_OK


def test_resume_builds_its_run_without_drawing_parameters(outroot, monkeypatch):
    from tricube import nets, ppo

    every = ["--seed", "8", *TINY, "--set", "run.checkpoint_interval=1"]
    assert run_cli("train", "--out", "full", *every) == EXIT_OK
    assert run_cli("train", "--out", "part", *every, "--set", "run.stop_after_steps=128") == EXIT_OK
    assert run_cli("train", "--out", "crash", *every, "--set", "run.stop_after_steps=256") == EXIT_OK

    def no_draw(*args):
        raise AssertionError("a resume drew parameters")

    monkeypatch.setattr(nets, "orthogonal_init", no_draw)
    assert run_cli("train", "--out", "new", *every,
                   "--resume", str(outroot / "part" / "ckpt_final.tckpt")) == EXIT_OK
    assert run_cli("train", "--out", "crash", *every,
                   "--resume", str(outroot / "crash" / "ckpt_000001.tckpt")) == EXIT_OK
    for name in ("metrics.jsonl", "episodes.jsonl", "ckpt_final.tckpt"):
        assert (outroot / "crash" / name).read_bytes() == (outroot / "full" / name).read_bytes(), name
    for name in ("metrics.jsonl", "episodes.jsonl"):
        merged = (outroot / "part" / name).read_bytes() + (outroot / "new" / name).read_bytes()
        assert merged == (outroot / "full" / name).read_bytes(), name
    # a new directory's final checkpoint differs from the uninterrupted one
    # only in the line counts of its own, shorter logs
    (new, new_meta), (full, full_meta) = (ppo.read_checkpoint(str(outroot / d / "ckpt_final.tckpt"))
                                          for d in ("new", "full"))
    assert new_meta.pop("log_lines") != full_meta.pop("log_lines") and new_meta == full_meta
    assert new.keys() == full.keys()
    for name, arr in full.items():
        assert new[name].dtype == arr.dtype and new[name].tobytes() == arr.tobytes(), name


def with_dropped_task_tensors(path) -> None:
    """Rewrite checkpoint ``path`` with the task tensors that checkpoints
    held before they kept only what a load cannot derive, at the values and
    in the places they had: the cube's observed goal block after its goal
    quaternion, and each task's aggregate step count, the run's global step,
    at the end."""
    tensors, meta = ppo.read_checkpoint(str(path))
    out = {}
    for name, arr in tensors.items():
        out[name] = arr
        if name == "env.task.goal_quat":  # the keypoints observation variant
            local = spatial.box_local_keypoints(PhysicsConfig().object.box_half_extents())
            out["env.task.goal_block"] = spatial.keypoints_to_flat(
                spatial.transform_keypoints(tensors["env.task.goal_pos"], arr, local))
    prefix = "task" if "env.task.goal_quat" in tensors else "reach"
    out[f"env.{prefix}.total_steps"] = np.array([meta["global_step"]], np.int64)
    ppo.write_checkpoint(str(path), out, meta)


@pytest.mark.parametrize("task", ["cube_repose", "reach"])
def test_a_checkpoint_holding_derived_task_tensors_resumes_byte_equal(outroot, task):
    every = ["--seed", "8", *TINY, "--set", f"run.task={task}", "--set", "reach.episode_length=10",
             "--set", "run.checkpoint_interval=1"]
    assert run_cli("train", "--out", "full", *every) == EXIT_OK
    assert run_cli("train", "--out", "part", *every, "--set", "run.stop_after_steps=128") == EXIT_OK
    assert run_cli("train", "--out", "crash", *every, "--set", "run.stop_after_steps=256") == EXIT_OK
    edited = [outroot / "part" / "ckpt_final.tckpt", outroot / "crash" / "ckpt_000001.tckpt"]
    for path in edited:
        with_dropped_task_tensors(path)
    assert run_cli("train", "--out", "new", *every, "--resume", str(edited[0])) == EXIT_OK
    assert run_cli("train", "--out", "crash", *every, "--resume", str(edited[1])) == EXIT_OK
    for name in ("metrics.jsonl", "episodes.jsonl", "ckpt_final.tckpt"):
        assert (outroot / "crash" / name).read_bytes() == (outroot / "full" / name).read_bytes(), name
    for name in ("metrics.jsonl", "episodes.jsonl"):
        merged = (outroot / "part" / name).read_bytes() + (outroot / "new" / name).read_bytes()
        assert merged == (outroot / "full" / name).read_bytes(), name
    (new, _), (full, _) = (ppo.read_checkpoint(str(outroot / d / "ckpt_final.tckpt"))
                           for d in ("new", "full"))
    assert new.keys() == full.keys()
    for name, arr in full.items():
        assert new[name].dtype == arr.dtype and new[name].tobytes() == arr.tobytes(), name
    written = [p for p in outroot.glob("*/*.tckpt") if p not in edited]
    assert len(written) == 11  # full 4, part 1, crash 3, new 3
    for path in written:
        names = ppo.read_checkpoint(str(path))[0]
        assert not [n for n in names if n.endswith((".total_steps", ".goal_block"))], path


def test_eval_of_a_checkpoint_with_another_value_net_exits_incompatible(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = outroot / "tr" / "ckpt_final.tckpt"
    wide = ["--set", "ppo.value_hidden=[32]"]
    assert run_cli("eval", "--out", "ev", "--checkpoint", str(ckpt), *TINY, *wide) == EXIT_INCOMPAT
    assert "ppo.value_hidden [16] (configured [32])" in capsys.readouterr().err
    # a checkpoint whose recorded config names the wider net but whose
    # tensors are the narrow one's is refused by the load itself
    bad = outroot / "bad.tckpt"
    edit_manifest(ckpt, bad, lambda m: {**m, "config": {
        **m["config"], "ppo": {**m["config"]["ppo"], "value_hidden": [32]}}})
    assert run_cli("eval", "--out", "ev", "--checkpoint", str(bad), *TINY, *wide) == EXIT_INCOMPAT
    assert "tensor 'value.p0' is float32 (16, 147) in the checkpoint; " \
           "the configured run needs float32 (32, 147)" in capsys.readouterr().err
    assert sorted(p.name for p in outroot.iterdir()) == ["bad.tckpt", "tr"]


def test_the_package_imports_neither_argparse_nor_svgplot():
    """Only ``cli.build_parser`` needs argparse and only the figure code
    needs svgplot, so importing the package's modules loads neither."""
    code = ("import sys\n"
            "from tricube import cli, config, domrand, env, harness, nets, physics, ppo, reach, rng, trainer\n"
            "print(sorted(m for m in ('argparse', 'tricube.svgplot') if m in sys.modules))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_resume_reads_the_checkpoint_once(outroot, monkeypatch):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY,
                   "--set", "run.stop_after_steps=128") == EXIT_OK
    reads = count_checkpoint_reads(monkeypatch)
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("train", "--out", "re", "--seed", "1", *TINY, "--resume", ckpt) == EXIT_OK
    assert reads == [ckpt]


def test_reports_rerun_byte_equal_and_record_trials(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    runs = {
        "sweep_scale.jsonl": ["sweep", "--parameter", "scale", "--grid", "[0.9,1.0]"],
        "threshold_heatmap.json": ["heatmap"],
        "objects.jsonl": ["objects", "--objects", '["cube_6.5cm","ball_r3.75cm"]'],
    }
    for name, (cmd, *extra) in runs.items():
        for out in ("a", "b"):
            assert run_cli(cmd, "--out", f"{cmd}_{out}", "--checkpoint", ckpt, *extra,
                           "--trials", "3", *TINY) == EXIT_OK
        report = (outroot / f"{cmd}_a" / name).read_bytes()
        assert report == (outroot / f"{cmd}_b" / name).read_bytes()
        # --trials is part of the resolved config, so of its hash
        manifest = json.loads((outroot / f"{cmd}_a" / "manifest.json").read_text())
        assert manifest["config"]["harness"]["eval_trials"] == 3
        assert manifest["config_hash"].encode() in report


def test_protocols_refuse_the_reach_task(outroot, capsys):
    reach = ["--profile", "smoke", "--set", "run.num_envs=8", "--set", "ppo.batch_size=128",
             "--set", "ppo.minibatch_size=64", "--set", "run.total_steps=128"]
    assert run_cli("train", "--out", "r", *reach) == EXIT_OK
    ckpt = str(outroot / "r" / "ckpt_final.tckpt")
    for cmd, *extra in (["eval"], ["sweep", "--parameter", "mass"], ["heatmap"], ["objects"]):
        assert run_cli(cmd, "--out", cmd, "--checkpoint", ckpt, "--trials", "2", *extra,
                       *reach) == EXIT_CONFIG
        assert "run.task is 'reach'" in capsys.readouterr().err
    assert run_cli("ablate", "--out", "ab", *reach) == EXIT_CONFIG
    assert "run.task is 'reach'" in capsys.readouterr().err


def test_grid_and_objects_are_checked_config_overrides(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    for cmd, *flag in (["sweep", "--parameter", "mass", "--grid", "[0.5"],
                       ["sweep", "--parameter", "mass", "--grid", "0.5"],
                       ["sweep", "--parameter", "mass", "--grid", '["a"]'],
                       ["sweep", "--parameter", "scale", "--grid", "[0]"],
                       ["objects", "--objects", '["teapot"]'],
                       ["objects", "--objects", "[[1]]"]):
        assert run_cli(cmd, "--out", "bad", "--checkpoint", ckpt, *flag, *TINY) == EXIT_CONFIG, flag
    assert "teapot" in capsys.readouterr().err
    assert not (outroot / "bad").exists()
    assert run_cli("sweep", "--out", "sw", "--checkpoint", ckpt, "--parameter", "mass",
                   "--grid", "[0.5,2]", "--trials", "2", *TINY) == EXIT_OK
    manifest = json.loads((outroot / "sw" / "manifest.json").read_text())
    assert manifest["config"]["harness"]["sweep_mass_grid"] == [0.5, 2] == manifest["grid"]


def test_empty_output_dir_is_a_config_error(outroot, capsys):
    # an empty run.output_dir would write the run's files into the root itself
    assert run_cli("train", "--out", "", *TINY) == EXIT_CONFIG
    assert "run: output_dir must be non-empty" in capsys.readouterr().err
    assert not any(outroot.iterdir())


def test_empty_evaluation_lists_are_config_errors(outroot, capsys):
    ckpt = str(outroot / "unread.tckpt")  # the config is refused before the checkpoint is read
    assert run_cli("objects", "--out", "ob", "--checkpoint", ckpt, "--objects", "[]",
                   *TINY) == EXIT_CONFIG
    assert "harness: transfer_objects must be non-empty" in capsys.readouterr().err
    assert run_cli("heatmap", "--out", "hm", "--checkpoint", ckpt, *TINY,
                   "--set", "harness.heatmap_pos_thresholds=[]") == EXIT_CONFIG
    assert "harness: heatmap_pos_thresholds must be non-empty" in capsys.readouterr().err
    assert not any(outroot.iterdir())


def test_eval_missing_checkpoint(outroot):
    assert run_cli(
        "eval", "--out", "missing", "--checkpoint", str(outroot / "no.tckpt"), "--trials", "2", *TINY
    ) == EXIT_CONFIG


def test_sweep_empty_grid_errors(outroot):
    assert run_cli("train", "--out", "sw", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "sw" / "ckpt_final.tckpt")
    rc = run_cli("sweep", "--out", "swe", "--checkpoint", ckpt, "--parameter", "scale",
                 "--grid", "[]", *TINY)
    assert rc == EXIT_CONFIG


def test_sweep_heatmap_objects_plot_round_trip(outroot):
    assert run_cli("train", "--out", "base", "--seed", "2", *TINY) == EXIT_OK
    ckpt = str(outroot / "base" / "ckpt_final.tckpt")

    assert run_cli("sweep", "--out", "sw1", "--checkpoint", ckpt, "--parameter", "scale",
                   "--grid", "[0.8,1.0]", "--trials", "4", *TINY) == EXIT_OK
    sweep_file = outroot / "sw1" / "sweep_scale.jsonl"
    pts = [json.loads(l) for l in sweep_file.read_text().splitlines()]
    assert [p["value"] for p in pts] == [0.8, 1.0]

    assert run_cli("heatmap", "--out", "hm1", "--checkpoint", ckpt, "--trials", "4", *TINY) == EXIT_OK
    hm = json.loads((outroot / "hm1" / "threshold_heatmap.json").read_text())
    m = np.array(hm["success_matrix"])
    assert np.all(np.diff(m, axis=0) >= 0) and np.all(np.diff(m, axis=1) >= 0)

    assert run_cli("objects", "--out", "ob1", "--checkpoint", ckpt,
                   "--objects", '["cube_6.5cm","ball_r3.75cm"]', "--trials", "4", *TINY) == EXIT_OK
    objs = [json.loads(l) for l in (outroot / "ob1" / "objects.jsonl").read_text().splitlines()]
    assert {o["object"] for o in objs} == {"cube_6.5cm", "ball_r3.75cm"}

    assert run_cli("plot", "--out", "pl1",
                   "--metrics", str(outroot / "base" / "metrics.jsonl"),
                   "--sweep-file", str(sweep_file),
                   "--heatmap-file", str(outroot / "hm1" / "threshold_heatmap.json")) == EXIT_OK
    for name in ("success_vs_steps.svg", "sweep_scale.svg", "threshold_heatmap.svg"):
        svg = (outroot / "pl1" / name).read_text()
        assert svg.startswith("<svg")
    # figures regenerate bit-identically
    assert run_cli("plot", "--out", "pl2",
                   "--metrics", str(outroot / "base" / "metrics.jsonl"),
                   "--sweep-file", str(sweep_file),
                   "--heatmap-file", str(outroot / "hm1" / "threshold_heatmap.json")) == EXIT_OK
    for name in ("success_vs_steps.svg", "sweep_scale.svg", "threshold_heatmap.svg"):
        assert (outroot / "pl1" / name).read_bytes() == (outroot / "pl2" / name).read_bytes()
    # heatmap axes carry the threshold labels from the report
    svg = (outroot / "pl1" / "threshold_heatmap.svg").read_text()
    assert "22°" in svg and "0.02 m" in svg


def test_plot_missing_input(outroot):
    assert run_cli("plot", "--out", "plx", "--metrics", str(outroot / "none.jsonl")) == EXIT_CONFIG
    assert run_cli("plot", "--out", "ply") == EXIT_CONFIG  # nothing to do


def test_malformed_plot_input_is_a_config_error(outroot, capsys):
    bad_lines = outroot / "bad.jsonl"
    bad_lines.write_text('{"global_step": 1, "success_rate": 0.5}\n{"global_step": 2,\n')
    bad_json = outroot / "bad.json"
    bad_json.write_text('{"success_matrix": [[1.0],\n [0.5],,]}\n')
    for flag, path, line in (("--metrics", bad_lines, 2), ("--sweep-file", bad_lines, 2),
                             ("--heatmap-file", bad_json, 2)):
        assert run_cli("plot", "--out", "pl", flag, str(path)) == EXIT_CONFIG
        assert f"{path}, line {line}: invalid JSON" in capsys.readouterr().err
    assert sorted(p.name for p in outroot.iterdir()) == ["bad.json", "bad.jsonl"]


def test_plot_input_of_the_wrong_shape_is_a_config_error(outroot, capsys):
    inputs = {
        "--metrics": ('[{"global_step": 1, "success_rate": 0.5}]\n', "not a metrics file"),
        "--heatmap-file": ('{"rot_thresholds_deg": [10], "pos_thresholds_m": [0.02]}\n',
                           "not a heatmap file (KeyError: 'success_matrix')"),
        "--sweep-file": ('{"parameter": "mass", "value": 1.0}\n',
                         "not a sweep file (KeyError: 'report')"),
    }
    # values the figures draw that are not numbers, or a matrix of the wrong shape
    report = '"report": {"success_rate": 0.5, "ci_lo": 0.4, "ci_hi": 0.6}'
    bad_values = [
        ("--metrics", '{"global_step": 1, "success_rate": "half"}\n',
         "not a metrics file (ValueError: 'half' is not a number)"),
        ("--sweep-file", '{"parameter": "mass", "value": NaN, %s}\n' % report,
         "not a sweep file (ValueError: nan is not a number)"),
        ("--heatmap-file", '{"rot_thresholds_deg": [10, 20], "pos_thresholds_m": [0.02], '
         '"success_matrix": [[0.5]]}\n', "not a heatmap file (ValueError: success_matrix is "
         "not 1 x 2"),
        ("--heatmap-file", '{"rot_thresholds_deg": [10], "pos_thresholds_m": [0.02], '
         '"success_matrix": [[true]]}\n', "not a heatmap file (ValueError: True is not"),
    ]
    cases = [(flag, text, what) for flag, (text, what) in inputs.items()] + bad_values
    for i, (flag, text, what) in enumerate(cases):
        path = outroot / f"in{i}.json"
        path.write_text(text)
        assert run_cli("plot", "--out", "pl", flag, str(path)) == EXIT_CONFIG, flag
        assert f"{path}: {what}" in capsys.readouterr().err, flag
    # with two --metrics files, the error names the one of the wrong shape
    good = outroot / "good.jsonl"
    good.write_text('{"global_step": 1, "success_rate": 0.5}\n')
    assert run_cli("plot", "--out", "pl", "--metrics", str(good), str(outroot / "in3.json")) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{outroot / 'in3.json'}: not a metrics file" in err and str(good) not in err
    good.unlink()
    # a timing file beside the metrics is named when it is the one of the wrong shape
    (outroot / "run").mkdir()
    (outroot / "run" / "metrics.jsonl").write_text(
        '{"iteration": 0, "global_step": 1, "success_rate": 0.5}\n')
    (outroot / "run" / "timing.jsonl").write_text('{"iteration": 0}\n')
    assert run_cli("plot", "--out", "pl", "--metrics", str(outroot / "run" / "metrics.jsonl")) \
        == EXIT_CONFIG
    assert f"{outroot / 'run' / 'timing.jsonl'}: not a timing file" in capsys.readouterr().err
    assert sorted(p.name for p in outroot.iterdir()) == [f"in{i}.json" for i in range(7)] + ["run"]


def test_plot_renderer_faults_stay_internal_errors(outroot, monkeypatch):
    """A fault in svgplot on valid input is not blamed on the input file."""
    from tricube import svgplot

    def broken(*args, **kwargs):
        raise ValueError("renderer fault")

    monkeypatch.setattr(svgplot, "line_chart", broken)
    metrics = outroot / "metrics.jsonl"
    metrics.write_text('{"global_step": 1, "success_rate": 0.5}\n')
    assert run_cli("plot", "--out", "pl", "--metrics", str(metrics)) == EXIT_RUNTIME


def edit_manifest(src, dst, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` with its JSON manifest replaced by
    ``edit(manifest)``; the tensor bytes stay as they are."""
    raw = src.read_bytes()
    mlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    mbytes = json.dumps(edit(json.loads(raw[16:16 + mlen]))).encode()
    dst.write_bytes(raw[:8] + np.array([len(mbytes)], dtype="<u8").tobytes() + mbytes
                    + raw[16 + mlen:])


def edit_entry(name, edit):
    """A manifest edit that applies ``edit`` to the directory entry ``name``."""
    return lambda m: {**m, "tensors": [edit(e) if e["name"] == name else e for e in m["tensors"]]}


def drop_entry(name):
    return lambda m: {**m, "tensors": [e for e in m["tensors"] if e["name"] != name]}


# manifest edits, the commands that read the edited tensor, and what the
# refusal names
BAD_CONTENTS = {
    "missing tensor": (drop_entry("policy.p0"), ("eval", "train"), "holds no tensor 'policy.p0'"),
    "missing env tensor": (drop_entry("env.state.joint_pos"), ("train",),
                           "holds no tensor 'env.state.joint_pos'"),
    "wrong env shape": (edit_entry("env.state.joint_pos", lambda e: {**e, "shape": e["shape"][::-1]}),
                        ("train",), "tensor 'env.state.joint_pos' is float64 (9, 8)"),
    "wrong shape": (edit_entry("policy.p0", lambda e: {**e, "shape": e["shape"][::-1]}),
                    ("eval", "train"), "tensor 'policy.p0' is float32 (75, 16)"),
    "manifest list": (lambda m: [m], ("eval", "train"), "manifest is a JSON list"),
    "no step counter": (lambda m: {k: v for k, v in m.items() if k != "global_step"}, ("train",),
                        "iteration and global step are"),
    "unknown dtype": (edit_entry("policy.p0", lambda e: {**e, "dtype": "<q9"}), ("eval", "train"),
                      "malformed checkpoint tensor entry"),
}


def test_bad_checkpoint_contents_are_incompatible_and_write_nothing(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = outroot / "tr" / "ckpt_final.tckpt"
    for case, (edit, commands, what) in BAD_CONTENTS.items():
        bad = outroot / "bad.tckpt"
        edit_manifest(ckpt, bad, edit)
        argv = {"eval": ["eval", "--checkpoint", str(bad), "--trials", "2"],
                "train": ["train", "--seed", "1", "--resume", str(bad)]}
        for command in commands:
            assert run_cli(*argv[command], "--out", "run", *TINY) == EXIT_INCOMPAT, (case, command)
            assert what in capsys.readouterr().err, (case, command)
            assert sorted(p.name for p in outroot.iterdir()) == ["bad.tckpt", "tr"], (case, command)


# one argument list per command; {ckpt} and {metrics} name a trained run's files
EVERY_COMMAND = {
    "train": ["train"],
    "train --resume": ["train", "--resume", "{ckpt}"],
    "eval": ["eval", "--checkpoint", "{ckpt}"],
    "sweep": ["sweep", "--checkpoint", "{ckpt}", "--parameter", "mass", "--grid", "[1.0]"],
    "ablate": ["ablate", "--set", "harness.ablation_total_steps=128",
               "--set", "harness.ablation_seeds=[0]"],
    "heatmap": ["heatmap", "--checkpoint", "{ckpt}"],
    "objects": ["objects", "--checkpoint", "{ckpt}", "--objects", '["cube_6.5cm"]'],
    "plot": ["plot", "--metrics", "{metrics}"],
}


@pytest.mark.parametrize("name", EVERY_COMMAND)
def test_every_command_writes_one_manifest_naming_the_checkpoint_it_read(outroot, monkeypatch, name):
    from tricube import cli, harness

    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY,
                   "--set", "run.stop_after_steps=128") == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    manifests, real_write = [], cli.OutputDir.write_manifest

    def counting_write(self, *args, **kw):
        manifests.append(self.path)
        return real_write(self, *args, **kw)

    monkeypatch.setattr(cli.OutputDir, "write_manifest", counting_write)
    argv = [a.format(ckpt=ckpt, metrics=outroot / "tr" / "metrics.jsonl")
            for a in EVERY_COMMAND[name]]
    assert run_cli(*argv, "--out", "run", "--seed", "1", "--set", "harness.eval_trials=2",
                   *TINY) == EXIT_OK
    assert manifests == [str(outroot / "run")]
    assert not (outroot / "run" / ".lock").exists()
    manifest = json.loads((outroot / "run" / "manifest.json").read_text())
    assert manifest["command"] == argv[0] and manifest["config_hash"]
    if "{ckpt}" in EVERY_COMMAND[name]:
        assert manifest["checkpoint"] == ckpt
        assert manifest["checkpoint_hash"] == harness.hash_file(ckpt)
    else:
        assert "checkpoint" not in manifest and "checkpoint_hash" not in manifest


def test_a_refused_run_leaves_no_output_directory(outroot, capsys):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY,
                   "--set", "run.stop_after_steps=128") == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "missing", "--checkpoint", str(outroot / "no.tckpt"),
                   *TINY) == EXIT_CONFIG
    assert run_cli("eval", "--out", "mismatch", "--checkpoint", ckpt, *TINY,
                   "--set", "task.obs_variant=pos_quat") == EXIT_INCOMPAT
    assert run_cli("train", "--out", "resumed", "--seed", "2", *TINY, "--resume", ckpt) == EXIT_INCOMPAT
    assert "run.seed 1 (configured 2)" in capsys.readouterr().err
    assert sorted(p.name for p in outroot.iterdir()) == ["tr"]


def test_zero_trials_still_check_the_checkpoint_and_write_no_nan(outroot):
    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    reach = ["--profile", "smoke", "--set", "run.num_envs=8", "--set", "ppo.batch_size=128",
             "--set", "ppo.minibatch_size=64", "--set", "run.total_steps=128"]
    assert run_cli("train", "--out", "r", *reach) == EXIT_OK
    for cmd, *extra in (["eval"], ["sweep", "--parameter", "mass"], ["heatmap"], ["objects"]):
        zero = [cmd, "--trials", "0", *extra]
        assert run_cli(*zero, "--out", "x", "--checkpoint", str(outroot / "no.tckpt"), *TINY) == EXIT_CONFIG
        assert run_cli(*zero, "--out", "x", "--checkpoint", ckpt, *TINY,
                       "--set", "task.obs_variant=pos_quat") == EXIT_INCOMPAT
        assert run_cli(*zero, "--out", "x", "--checkpoint", str(outroot / "r" / "ckpt_final.tckpt"),
                       *reach) == EXIT_CONFIG
        assert not (outroot / "x").exists()
        assert run_cli(*zero, "--out", cmd, "--checkpoint", ckpt, *TINY) == EXIT_OK
        for f in (outroot / cmd).iterdir():
            assert "NaN" not in f.read_text(), f.name
