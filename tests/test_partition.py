"""Batch-partition invariance and sharded evaluation.

A batch of envs split into shards at global offsets steps bit for bit like
the whole batch, a policy row gets the same action alone as in any batch,
and ``harness.evaluate`` gives the same report for any shard count.  The
``check_*`` functions also run in a fresh process at one and at two BLAS
threads (see blas_threads.py).
"""

import os

import numpy as np
import pytest
from blas_threads import loaded_blas_threads, run_check

from tricube import cli, harness, nets, rng
from tricube import trainer as trainer_mod
from tricube.domrand import DRConfig
from tricube.env import CubeReposeTask, TaskConfig, actor_obs_dim, critic_obs_dim
from tricube.physics import ExternalForceConfig
from tricube.ppo import PPOAgent, PPOConfig
from tricube.reach import ReachConfig, ReachTask
from tricube.trainer import Trainer


def step_shards(make, bounds, action_dim, steps, nan_at=None):
    """Step one task per ``(lo, hi)`` shard on the same keyed actions;
    returns the per-step observations, rewards and dones joined across the
    shards as bytes, and every episode record by (env_id, episode).
    ``nan_at`` = (step, env) sends that env a NaN action, forcing a fault."""
    n = bounds[-1][1]
    tasks = [make(hi - lo, lo) for lo, hi in bounds]
    firsts = [t.reset_all() for t in tasks]
    trace = [np.concatenate([o[k] for o in firsts]).tobytes() for k in ("actor", "critic")]
    for i in range(steps):
        act = rng.uniform(rng.stream_key(30, np.arange(n), i, 80), action_dim, -1.0, 1.0)
        if nan_at is not None and nan_at[0] == i:
            act[nan_at[1]] = np.nan
        outs = [t.step(act[lo:hi]) for t, (lo, hi) in zip(tasks, bounds)]
        for k in ("actor", "critic"):
            trace.append(np.concatenate([o[0][k] for o in outs]).tobytes())
        trace += [np.concatenate([o[j] for o in outs]).tobytes() for j in (1, 2)]
    records = sorted((r for t in tasks for r in t.drain_episode_records()),
                     key=lambda r: (r["env_id"], r["episode"]))
    return trace, records


def test_cube_shards_at_global_offsets_step_like_the_whole_batch():
    dr = DRConfig(external_force=ExternalForceConfig(prob=0.5))

    def make(n, offset):
        return CubeReposeTask(n, seed=4, task=TaskConfig(episode_length=6), dr=dr,
                              env_offset=offset)

    whole = step_shards(make, [(0, 16)], 9, 15, nan_at=(3, 11))
    split = step_shards(make, [(0, 8), (8, 16)], 9, 15, nan_at=(3, 11))
    assert split[0] == whole[0]
    assert split[1] == whole[1]
    records = whole[1]
    assert {r["env_id"] for r in records} == set(range(16))
    assert [r["env_id"] for r in records if r["fault"]] == [11]
    assert max(r["episode"] for r in records) >= 1  # resets happened


def test_reach_shards_at_global_offsets_step_like_the_whole_batch():
    def make(n, offset):
        return ReachTask(n, seed=6, cfg=ReachConfig(episode_length=4), env_offset=offset)

    whole = step_shards(make, [(0, 8)], 2, 10)
    split = step_shards(make, [(0, 4), (4, 8)], 2, 10)
    assert split == whole
    assert {r["env_id"] for r in whole[1]} == set(range(8))


def rollout_rows(n: int, offset: int) -> dict:
    """One one-step rollout of an ``n``-env cube trainer at global
    ``offset``: its actions, logp, rewards, dones and values, row by row."""
    task = CubeReposeTask(n, seed=4, env_offset=offset)
    cfg = PPOConfig(batch_size=n, minibatch_size=n, normalize_obs=False,
                    policy_hidden=(16, 16), value_hidden=(16,))
    agent = PPOAgent(task.actor_dim, task.critic_dim, task.action_dim, cfg, seed=2)
    trainer = Trainer(task, agent, total_steps=n, seed=5)
    rows = {"rewards": [], "dones": [], "values": []}
    step, real_gae = task.step, trainer_mod.gae

    def recording_step(act):
        out = step(act)
        rows["rewards"].append(out[1])
        rows["dones"].append(out[2])
        return out

    def recording_gae(rewards, values, dones, bootstrap, *args):
        rows["values"] += [*values, bootstrap]  # the step's, then the bootstrap's
        return real_gae(rewards, values, dones, bootstrap, *args)

    task.step, trainer_mod.gae = recording_step, recording_gae
    try:
        batch = trainer.collect_rollout()[0]
    finally:
        trainer_mod.gae = real_gae
    rows = {k: np.concatenate(v) for k, v in rows.items()}
    return {**rows, "actions": batch["actions"], "logp": batch["logp"]}


def test_training_rollout_shards_at_global_offsets_sample_like_the_whole_batch():
    # the policy samples are keyed on global env ids; their step counter
    # advances by the trainer's own env count, so only a rollout's first
    # step keys alike in the whole batch and in its shards
    whole = rollout_rows(16, 0)
    shards = [rollout_rows(8, 0), rollout_rows(8, 8)]
    assert np.abs(whole["actions"]).max() > 0.1
    for name, rows in whole.items():
        if name == "values":  # each rollout's step values, then its bootstrap values
            split = np.concatenate([s[name][:8] for s in shards] + [s[name][8:] for s in shards])
        else:
            split = np.concatenate([s[name] for s in shards])
        assert rows.tobytes() == split.tobytes(), name


def test_shard_bounds_fall_on_inference_blocks():
    assert harness.shard_bounds(0, 2) == [(0, 0)]
    assert harness.shard_bounds(64, 2) == [(0, 64)]
    assert harness.shard_bounds(1024, 2) == [(0, 512), (512, 1024)]
    assert harness.shard_bounds(600, 2) == [(0, 256), (256, 600)]
    assert harness.shard_bounds(1024, 3) == [(0, 256), (256, 512), (512, 1024)]
    assert harness.shard_bounds(300, 8) == [(0, 256), (256, 300)]


# ------------------------------------------------------------------ checks


def trained_scale_agent(variant: str = "keypoints") -> PPOAgent:
    """A cube agent with fitted observation statistics and a policy head of
    trained scale (the initial head is 100x smaller), so its actions are
    far from zero."""
    agent = PPOAgent(actor_obs_dim(variant), critic_obs_dim(variant), 9, PPOConfig(), seed=2)
    task = CubeReposeTask(64, seed=1, task=TaskConfig(obs_variant=variant), dr=DRConfig())
    obs = task.reset_all()
    agent.prep_actor_obs(obs["actor"], update=True)
    agent.prep_critic_obs(obs["critic"], update=True)
    agent.policy.trunk.weights[-1] *= 100.0
    return agent


def use_cores(n: int) -> None:
    """Let this process see ``n`` usable cores, so evaluate runs n shards."""
    os.sched_getaffinity = lambda pid: set(range(n))


def check_act_rows(threads: int) -> None:
    """One row's action and value equal that row's in a 1024-row batch."""
    assert loaded_blas_threads() in (None, threads)
    agent = trained_scale_agent()
    task = CubeReposeTask(1024, seed=3, dr=DRConfig())
    obs = task.reset_all()
    actions, logp = agent.act(obs["actor"])
    values = agent.predict_values(agent.prep_critic_obs(obs["critic"]))
    assert np.abs(actions).max() > 0.1
    for i in (0, 1, 63, 255, 256, 700, 1023):
        a, lp = agent.act(obs["actor"][i : i + 1])
        assert a.tobytes() == actions[i : i + 1].tobytes()
        assert lp.tobytes() == logp[i : i + 1].tobytes()
        v = agent.predict_values(agent.prep_critic_obs(obs["critic"][i : i + 1]))
        assert v.tobytes() == values[i : i + 1].tobytes()
    for m in (64, 300):
        assert agent.act(obs["actor"][:m])[0].tobytes() == actions[:m].tobytes()


# batches of k * INFER_ROWS rows whose rows must carry the bytes they carry alone
ROW_BLOCKS = (1, 2, 3, 4, 5, 8, 16, 31, 32, 64)


def check_net_rows(threads: int) -> None:
    """Each row of the policy and the value net gets the bytes it gets alone
    inside k * 256 rows for every k in ``ROW_BLOCKS``, and inside 64 * 256
    rows plus a ragged tail of 77."""
    assert loaded_blas_threads() in (None, threads)
    agent = trained_scale_agent()
    most = ROW_BLOCKS[-1] * nets.INFER_ROWS + 77
    for net in (agent.policy.trunk, agent.value.trunk):
        x = rng.normal(rng.stream_key(31, np.arange(most), 0, 80), net.sizes[0]).astype(np.float32)
        whole = net(x)
        assert np.abs(whole).max() > 0.1
        for i in (0, 1, 255, 256, 4095, 8191, 16383, 16384, most - 1):
            assert net(x[i : i + 1]).tobytes() == whole[i : i + 1].tobytes(), (net.sizes, i)
        for k in ROW_BLOCKS:
            m = k * nets.INFER_ROWS
            assert net(x[:m]).tobytes() == whole[:m].tobytes(), (net.sizes, k)


def check_eval_prefix(threads: int) -> None:
    """``evaluate`` on 64 trials is the first 64 of 1024, trial by trial,
    and 1024 trials give one report for 1 and 2 shards."""
    assert loaded_blas_threads() in (None, threads)
    agent = trained_scale_agent()
    task = TaskConfig(episode_length=10)
    use_cores(2)
    small = harness.evaluate(agent, 64, 21, task=task)
    two = harness.evaluate(agent, 1024, 21, task=task)
    use_cores(1)
    one = harness.evaluate(agent, 1024, 21, task=task)
    assert one.to_json() == two.to_json()
    for name in ("final_pos_err", "final_rot_err", "fault"):
        assert getattr(small, name) == getattr(one, name)[:64]
    # the per-trial returns too, which follow every action's bits
    dr = DRConfig(enabled=False)
    prefix = harness.episode_records(agent, 0, 64, 21, task, None, dr)
    assert prefix == harness.episode_records(agent, 0, 1024, 21, task, None, dr)[:64]


def check_reports_for_one_and_two_shards(threads: int, root: str) -> None:
    """``eval_report.json``, ``sweep_*.jsonl`` and the ``objects`` report of
    one checkpoint are byte-equal for one and two shards."""
    from test_cli import TINY

    assert loaded_blas_threads() in (None, threads)
    os.environ["TRICUBE_OUT"] = root
    assert cli.main(["train", "--out", "tr", "--seed", "3", *TINY]) == cli.EXIT_OK
    ckpt = os.path.join(root, "tr", "ckpt_final.tckpt")
    runs = {"eval": "eval_report.json", "sweep": "sweep_scale.jsonl", "objects": "objects.jsonl"}
    got = {}
    for cores in (1, 2):
        use_cores(cores)
        for command, report in runs.items():
            out = f"{command}{cores}"
            args = [command, "--out", out, "--checkpoint", ckpt, "--trials", "512", *TINY]
            if command == "sweep":
                args += ["--parameter", "scale"]
            assert cli.main(args) == cli.EXIT_OK
            with open(os.path.join(root, out, report), "rb") as f:
                got[command, cores] = f.read()
    for command in runs:
        assert got[command, 1] == got[command, 2], command


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("check", ["check_act_rows", "check_net_rows", "check_eval_prefix"])
def test_invariance_at_blas_threads(check, threads):
    run_check(threads, "test_partition", check, threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_reports_are_byte_equal_for_one_and_two_shards(threads, tmp_path):
    run_check(threads, "test_partition", "check_reports_for_one_and_two_shards", threads,
              str(tmp_path))


# ------------------------------------------------------------------ failures


def two_cores(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failing_shard_raises_its_error_and_leaves_no_child(where, monkeypatch):
    failing_lo = {"child": 256, "parent": 0}[where]
    real = harness.episode_records

    def records(agent, lo, hi, *args):
        if lo == failing_lo:
            raise FloatingPointError(f"shard {lo}-{hi} diverged")
        return real(agent, lo, hi, *args)

    monkeypatch.setattr(harness, "episode_records", records)
    two_cores(monkeypatch)
    agent = trained_scale_agent()
    with pytest.raises(FloatingPointError, match=f"shard {failing_lo}-"):
        harness.evaluate(agent, 512, 5, task=TaskConfig(episode_length=3))
    assert no_child_left()


def test_a_shard_process_that_dies_is_an_error(monkeypatch):
    real = harness.episode_records

    def records(agent, lo, hi, *args):
        if lo > 0:
            os._exit(9)
        return real(agent, lo, hi, *args)

    monkeypatch.setattr(harness, "episode_records", records)
    two_cores(monkeypatch)
    with pytest.raises(RuntimeError, match="ended without a result"):
        harness.evaluate(trained_scale_agent(), 512, 5, task=TaskConfig(episode_length=3))
    assert no_child_left()


class FirstRowFaults:
    """A policy that sends NaN to the first row of every batch it sees, so
    the first trial of each shard faults."""

    def act(self, obs, stochastic=False):
        act = np.zeros((len(obs), 9))
        act[0] = np.nan
        return act, np.zeros(len(obs))


def test_a_faulted_trial_fails_every_rate_in_any_shard(monkeypatch):
    two_cores(monkeypatch)
    # thresholds so wide that every trial that does not fault succeeds
    task = TaskConfig(episode_length=3, success_pos_threshold=10.0, success_rot_threshold=10.0)
    report = harness.evaluate(FirstRowFaults(), 512, 5, task=task)
    assert [i for i, f in enumerate(report.fault) if f] == [0, 256]
    for rate in ("success_rate", "pos_success_rate", "rot_success_rate", "success_any_rate"):
        assert getattr(report, rate) == 510 / 512, rate
    assert no_child_left()
