import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tricube.cli import EXIT_CONFIG, EXIT_INCOMPAT, EXIT_OK, EXIT_RUNTIME, main

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


def test_lock_file_rejects_concurrent_runs(outroot):
    d = outroot / "locked"
    d.mkdir()
    (d / ".lock").write_text(str(os.getpid()))
    assert run_cli("train", "--out", "locked", *TINY) == EXIT_RUNTIME


def test_lock_of_a_dead_run_is_reclaimed(outroot):
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    d = outroot / "stale"
    d.mkdir()
    (d / ".lock").write_text(child.stdout.strip())  # exited and reaped
    assert run_cli("eval", "--out", "stale", "--checkpoint", "unused", "--trials", "0",
                   *TINY) == EXIT_OK
    assert json.loads((d / "eval_report.json").read_text())["n_trials"] == 0
    assert not (d / ".lock").exists()
    # a lock that holds no PID is never taken for stale
    (d / ".lock").write_text("held")
    assert run_cli("eval", "--out", "stale", "--checkpoint", "unused", "--trials", "0",
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
    err = capsys.readouterr().err
    assert "actor_obs_dim 75 (configured 41)" in err
    rc = run_cli("train", "--out", "wide", "--seed", "1", *TINY,
                 "--set", "ppo.policy_hidden=[32]", "--resume", ckpt)
    assert rc == EXIT_INCOMPAT
    assert "policy_layer_sizes [75, 16, 9] (configured [75, 32, 9])" in capsys.readouterr().err
    rc = run_cli("train", "--out", "more", "--seed", "1", *TINY,
                 "--set", "run.num_envs=16", "--resume", ckpt)
    assert rc == EXIT_INCOMPAT
    err = capsys.readouterr().err
    assert "env.state.joint_pos shape (8, 9) (configured (16, 9))" in err
    assert "env.task.episode_step shape (8,) (configured (16,))" in err


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
    from tricube import cli, ppo, trainer

    assert run_cli("train", "--out", "tr", "--seed", "1", *TINY) == EXIT_OK
    reads, agents = [], []
    real_read, real_init = ppo.read_checkpoint, ppo.PPOAgent.__init__

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    def counting_init(self, *args, **kw):
        agents.append(self)
        real_init(self, *args, **kw)

    for mod in (cli, ppo, trainer):
        monkeypatch.setattr(mod, "read_checkpoint", counting_read)
    monkeypatch.setattr(ppo.PPOAgent, "__init__", counting_init)
    ckpt = str(outroot / "tr" / "ckpt_final.tckpt")
    assert run_cli("eval", "--out", "ev", "--checkpoint", ckpt, "--trials", "2", *TINY) == EXIT_OK
    assert reads == [ckpt] and len(agents) == 1


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


def test_benchmark_mode(outroot, capsys):
    rc = run_cli("train", "--out", "bench", "--benchmark", *TINY)
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "env-steps/sec" in out
    assert "50,000" in out
    manifest = json.loads((outroot / "bench" / "manifest.json").read_text())
    assert manifest["throughput"]["env_steps_per_sec"] > 0
