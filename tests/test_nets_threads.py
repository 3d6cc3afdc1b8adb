"""The training passes on two threads (see the ``nets`` module docstring).

At two or more BLAS threads, ``MLP.forward`` and ``MLP.backward`` share a
pass whose widest activation holds ``nets.SPLIT_BYTES`` between the
calling thread and one helper thread.  The ``check_*`` functions run in a
fresh process at two BLAS threads (see blas_threads.py).  They compare
that path's bytes with the same pass at one BLAS thread, where it never
engages, and with the one-thread path at two BLAS threads; they check
that a failure in either thread leaves no thread and the BLAS count as it
was; and that an evaluation forked after a threaded update reports what a
fresh process reports.
"""

import json
import os
import threading

import numpy as np
import pytest
from blas_threads import loaded_blas_threads, run_check

from tricube import harness, nets, rng
from tricube.env import TaskConfig, actor_obs_dim, critic_obs_dim
from tricube.ppo import PPOAgent, PPOConfig

ROWS = (512, 1000, 1920, 4173, 16384)
# where split_rows cuts each net's rows at 2 BLAS threads; a missing entry
# runs on one thread.  The policy's widest layer is 256, the value's 512, so
# the path engages from 2 MiB / (width * itemsize) rows
SPLITS = {
    ("policy", "float32"): {4173: 2048, 16384: 8192},
    ("policy", "float64"): {1920: 1024, 4173: 2048, 16384: 8192},
    ("value", "float32"): {1920: 1024, 4173: 2048, 16384: 8192},
    ("value", "float64"): {512: 256, 1000: 512, 1920: 1024, 4173: 2048, 16384: 8192},
}


def paper_agent(dtype=np.float32, **ppo) -> PPOAgent:
    """An agent with the paper's nets; its output layers at a trained scale
    (the initial heads are small), so the outputs are far from zero."""
    variant = TaskConfig().obs_variant
    agent = PPOAgent(actor_obs_dim(variant), critic_obs_dim(variant), 9, PPOConfig(**ppo),
                     seed=2, dtype=dtype)
    agent.policy.trunk.weights[-1] *= 100.0
    return agent


def keyed(n: int, dim: int, word: int, dtype) -> np.ndarray:
    return rng.normal(rng.stream_key(41, np.arange(n), word, 80), dim).astype(dtype)


def pass_bytes(net: nets.MLP, x: np.ndarray, dout: np.ndarray) -> list[bytes]:
    """The output, the cache and the gradients of one training pass."""
    out, cache = net.forward(x)
    grads = net.backward(cache, dout)
    return [a.tobytes() for a in (out, *cache, *grads)]


def other_threads() -> list:
    return [t for t in threading.enumerate() if t is not threading.main_thread()]


def check_passes(threads: int) -> None:
    """For every row count in ``ROWS``, in float32 and float64, each net's
    forward output, cache and gradients: split where ``SPLITS`` says, and
    byte-equal on two threads, unsplit and at 1 BLAS thread."""
    assert loaded_blas_threads() in (None, threads)
    engages = nets.blas_threads() >= 2
    seen = []  # (lo, hi, on the main thread) of each forward row range
    real_rows, real_split = nets.MLP._forward_rows, nets.MLP.split_rows

    def record(self, x, outs, lo, hi):
        seen.append((lo, hi, threading.current_thread() is threading.main_thread()))
        return real_rows(self, x, outs, lo, hi)

    nets.MLP._forward_rows = record
    for dtype in (np.float32, np.float64):
        agent = paper_agent(dtype)
        for name, net in (("policy", agent.policy.trunk), ("value", agent.value.trunk)):
            for n in ROWS:
                x = keyed(n, net.sizes[0], 0, dtype)
                dout = keyed(n, net.sizes[-1], 1, dtype)
                at = SPLITS[name, np.dtype(dtype).name].get(n, 0) if engages else 0
                assert net.split_rows(n) == at, (name, dtype, n)
                seen.clear()
                two = pass_bytes(net, x, dout)
                want = [(0, at, True), (at, n, False)] if at else [(0, n, True)]
                assert sorted(seen) == want, (name, dtype, n)
                assert other_threads() == []
                with nets.one_blas_thread():
                    assert net.split_rows(n) == 0
                    one = pass_bytes(net, x, dout)
                nets.MLP.split_rows = lambda self, n: 0
                serial = pass_bytes(net, x, dout)
                nets.MLP.split_rows = real_split
                # every pass has the bits of a pass at 1 BLAS thread, split
                # or not, at any row count (see the nets module docstring)
                assert two == one == serial, (name, dtype, n)
    nets.MLP._forward_rows = real_rows


def update_batch(agent: PPOAgent, n: int) -> dict:
    """A keyed batch whose old log-probabilities are the policy's own."""
    actor_obs = keyed(n, agent.policy.trunk.sizes[0], 2, np.float64)
    actions = keyed(n, 9, 3, np.float64)
    logp = agent.policy.log_prob(actions - agent.policy.trunk(actor_obs))
    return {
        "actor_obs": actor_obs,
        "critic_obs": keyed(n, agent.value.trunk.sizes[0], 4, np.float64),
        "actions": actions,
        "logp": logp,
        "advantages": keyed(n, 1, 5, np.float64)[:, 0],
        "returns": keyed(n, 1, 6, np.float64)[:, 0],
    }


def updated_tensors(dtype) -> dict:
    """Every tensor of an agent after one two-epoch update of two 2048-row
    minibatches, which engage the two-thread path at 2 BLAS threads."""
    agent = paper_agent(dtype, batch_size=4096, minibatch_size=2048, epochs=2)
    agent.update(update_batch(agent, 4096), 3e-4)
    return {k: v.tobytes() for k, v in agent._net_tensors().items()}


def check_update(threads: int) -> None:
    """One ``PPOAgent.update`` leaves the same bytes on two threads as at 1
    BLAS thread, in float32 and float64."""
    assert loaded_blas_threads() in (None, threads)
    for dtype in (np.float32, np.float64):
        two = updated_tensors(dtype)
        assert other_threads() == []
        with nets.one_blas_thread():
            one = updated_tensors(dtype)
        assert two == one, dtype


def failing_on(real, main: bool):
    """``real``, except that it raises on the main thread (``main``) or on
    any other thread (not ``main``)."""

    def fake(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == main:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    return fake


def check_failures(threads: int) -> None:
    """A failure in either thread of a forward or a backward pass reaches
    the caller, leaves no helper thread running and the BLAS count as it
    was; the next pass gives the same bytes as before it."""
    assert loaded_blas_threads() in (None, threads)
    if nets.blas_threads() < 2:
        return  # another BLAS: the path never engages
    net = paper_agent().value.trunk
    x, dout = keyed(2048, net.sizes[0], 0, np.float32), keyed(2048, 1, 1, np.float32)
    assert net.split_rows(2048) == 1024
    want = pass_bytes(net, x, dout)
    _, cache = net.forward(x)
    # bias_elu_ runs on both threads of a forward; in a backward the main
    # thread runs mul_elu_grad_ and the helper runs every np.matmul
    sites = [(nets, "bias_elu_", True, "forward"), (nets, "bias_elu_", False, "forward"),
             (nets, "mul_elu_grad_", True, "backward"), (np, "matmul", False, "backward")]
    for owner, attr, main, which in sites:
        real = getattr(owner, attr)
        setattr(owner, attr, failing_on(real, main))
        try:
            with pytest.raises(RuntimeError, match="injected"):
                net.forward(x) if which == "forward" else net.backward(cache, dout)
        finally:
            setattr(owner, attr, real)
        assert nets.blas_threads() == threads, (attr, main)
        assert other_threads() == [], (attr, main)
    assert pass_bytes(net, x, dout) == want


def evaluation_report(agent: PPOAgent) -> str:
    """A 512-trial evaluation in two shards, one of them forked."""
    os.sched_getaffinity = lambda pid: {0, 1}
    forks, real_fork = [], harness._fork_shard
    harness._fork_shard = lambda *args: forks.append(args) or real_fork(*args)
    report = harness.evaluate(agent, 512, 21, task=TaskConfig(episode_length=5))
    harness._fork_shard = real_fork
    assert len(forks) == 1
    return json.dumps(report.to_json(), sort_keys=True)


def check_evaluate_after_update(threads: int, path: str, fresh: bool) -> None:
    """An evaluation forked after a threaded update reports what a fresh
    process that loads the updated agent reports."""
    assert loaded_blas_threads() in (None, threads)
    agent = paper_agent(batch_size=4096, minibatch_size=2048, epochs=1)
    if fresh:
        with np.load(path + ".npz") as f:
            agent.load_tensors(dict(f))
        with open(path + ".json") as f:
            assert evaluation_report(agent) == f.read()
        return
    if nets.blas_threads() >= 2:  # OpenBLAS: the update's passes split
        assert agent.policy.trunk.split_rows(2048) and agent.value.trunk.split_rows(2048)
    agent.update(update_batch(agent, 4096), 3e-4)
    np.savez(path + ".npz", **agent._net_tensors())
    with open(path + ".json", "w") as f:
        f.write(evaluation_report(agent))


@pytest.mark.parametrize("check", ["check_passes", "check_update", "check_failures"])
def test_two_thread_training_passes(check):
    run_check(2, "test_nets_threads", check, 2)


def test_evaluation_after_a_threaded_update_matches_a_fresh_process(tmp_path):
    path = str(tmp_path / "updated")
    run_check(2, "test_nets_threads", "check_evaluate_after_update", 2, path, False)
    run_check(2, "test_nets_threads", "check_evaluate_after_update", 2, path, True)
