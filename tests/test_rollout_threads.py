"""The rollout's value forward beside the policy and the env step (see the
``trainer`` module docstring).

At two or more BLAS threads ``Trainer.collect_rollout`` runs each step's
value forward on one helper thread, with OpenBLAS held to one thread over
the step loop.  The ``check_*`` functions run in a fresh process at a given
BLAS thread count (see blas_threads.py).  They check that a rollout's bytes
do not depend on the thread count, that a failure in the loop leaves no
helper thread and the BLAS count as it was, and that everything a profiler
wraps still runs on the calling thread.
"""

import hashlib
import json
import os
import threading
import time

import numpy as np
import pytest
from blas_threads import loaded_blas_threads, run_check
from test_nets_threads import other_threads, paper_agent

from tricube import env, nets, ppo, rng
from tricube.env import CubeReposeTask, TaskConfig
from tricube.trainer import Trainer

HORIZON = 4
EPISODE = 3  # so each rollout drains the records of its first episodes


def rollout(n: int, out_dir: str | None = None) -> tuple[Trainer, dict]:
    """A cube trainer with the paper nets over ``n`` envs, and the batch of
    one ``HORIZON``-step rollout."""
    agent = paper_agent(batch_size=n * HORIZON, minibatch_size=n * HORIZON)
    task = CubeReposeTask(n, seed=6, task=TaskConfig(episode_length=EPISODE))
    trainer = Trainer(task, agent, total_steps=n * HORIZON, out_dir=out_dir, seed=7)
    return trainer, trainer.collect_rollout()[0]


def check_rollout_bits(threads: int, path: str) -> None:
    """At 300 envs (a padded inference tail), at 512 and at 1031 (a padded
    tail, and a bootstrap value forward that splits at 2 BLAS threads), the
    digests of one rollout's batch and of the episode records it drained;
    the first call writes them to ``path``, the next compares with them.
    The helper thread's rows start late, so a rollout that read them before
    they are done would store other values."""
    assert loaded_blas_threads() in (None, threads)
    forward_rows = nets.MLP._forward_rows

    def late_rows(self, *args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.02)
        return forward_rows(self, *args)

    nets.MLP._forward_rows = late_rows
    digests = {}
    for n in (300, 512, 1031):
        out_dir = f"{path}-{threads}-{n}"
        os.mkdir(out_dir)
        trainer, batch = rollout(n, out_dir)
        if n == 1031 and nets.blas_threads() >= 2:  # 1280 padded rows, 2.5 MiB
            assert trainer.agent.value.trunk.split_rows(1280) == 512
        with open(os.path.join(out_dir, "episodes.jsonl"), "rb") as f:
            episodes = f.read()
        assert episodes.count(b"\n") == n  # every env ended one episode
        assert np.abs(batch["actions"]).max() > 0.1
        arrays = {k: batch[k] for k in ("actor_obs", "critic_obs", "actions", "logp",
                                        "advantages", "returns")}
        digests[n] = {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()}
        digests[n]["episodes"] = hashlib.sha256(episodes).hexdigest()
    digests = json.loads(json.dumps(digests))  # the keys as they read back
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(digests, f)
        return
    with open(path) as f:
        want = json.load(f)
    for n, got in digests.items():
        assert got == want[n], [k for k in got if got[k] != want[n][k]]


def check_failures(threads: int) -> None:
    """A ``task.step`` that raises on the second step raises its own error
    out of the rollout; then no helper thread is alive and the BLAS count is
    as it was, and the next rollout runs."""
    assert loaded_blas_threads() in (None, threads)
    before = nets.blas_threads()
    trainer = rollout(256)[0]
    real, steps = trainer.task.step, []

    def failing_step(act):
        steps.append(threading.current_thread())
        if len(steps) == 2:
            raise RuntimeError("injected")
        return real(act)

    trainer.task.step = failing_step
    with pytest.raises(RuntimeError, match="injected"):
        trainer.collect_rollout()
    assert steps == [threading.main_thread()] * 2
    assert nets.blas_threads() == before
    assert other_threads() == []
    trainer.task.step = real
    trainer.collect_rollout()
    assert other_threads() == []


def check_traced_calls_stay_on_the_main_thread(threads: int) -> None:
    """Everything ``perfbench`` wraps runs on the calling thread in a
    rollout, which its one span stack per process needs (``MLP.backward``
    is wrapped too, though a rollout runs no training pass); at 2 BLAS
    threads the value rows run on the helper thread, so the check is not
    vacuous."""
    assert loaded_blas_threads() in (None, threads)
    traced = [(nets.MLP, "forward"), (nets.MLP, "backward"), (nets.RunningNorm, "update"),
              (ppo.PPOAgent, "predict_values"), (ppo.GaussianPolicy, "act"),
              (rng, "stream_key"), (env.CubeReposeTask, "step")]
    seen, calls = [], {attr: 0 for _, attr in traced}

    def on_main(owner, attr, real):
        def wrapped(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread(), attr
            calls[attr] += 1
            return real(*args, **kwargs)

        setattr(owner, attr, wrapped)

    reals = [(owner, attr, vars(owner)[attr]) for owner, attr in traced]
    forward_rows = nets.MLP._forward_rows

    def recording_rows(self, *args):
        seen.append(threading.current_thread() is threading.main_thread())
        return forward_rows(self, *args)

    for owner, attr, real in reals:
        on_main(owner, attr, real)
    nets.MLP._forward_rows = recording_rows
    try:
        rollout(512)
    finally:
        for owner, attr, real in reals:
            setattr(owner, attr, real)
        nets.MLP._forward_rows = forward_rows
    # a rollout runs no training pass; each other wrapped call ran
    assert [attr for attr, count in calls.items() if not count] == ["backward"]
    engaged = nets.blas_threads() >= 2
    assert (False in seen) == engaged  # the helper ran the value rows, or nothing did
    assert other_threads() == []


def test_rollout_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    path = str(tmp_path / "digests.json")
    run_check(1, "test_rollout_threads", "check_rollout_bits", 1, path)
    run_check(2, "test_rollout_threads", "check_rollout_bits", 2, path)


@pytest.mark.parametrize("check", ["check_failures", "check_traced_calls_stay_on_the_main_thread"])
def test_rollout_helper_at_two_blas_threads(check):
    run_check(2, "test_rollout_threads", check, 2)
