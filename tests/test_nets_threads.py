"""The BLAS thread count picks where a pass runs, never what it computes
(see the ``nets`` module docstring).

``MLP.split_rows`` cuts a pass whose widest activation holds
``nets.SPLIT_BYTES`` in two at any BLAS thread count.  At two or more BLAS
threads the halves run side by side on the calling thread and one helper
thread, and every GEMM of every pass runs with OpenBLAS held to one thread;
at one thread the halves run in turn.  The ``check_*`` functions run in a
fresh process at a given BLAS thread count, under each OpenBLAS core type
this CPU can execute (see blas_threads.py).  They compare each pass's bytes
with the same pass under ``one_blas_thread()``; they check that a failure in
either thread leaves no thread and the BLAS count as it was; that an
evaluation forked after a threaded update reports what a fresh process
reports; and that a training run writes the same bytes at 1 and at 2 BLAS
threads.
"""

import contextlib
import json
import os
import threading

import numpy as np
import pytest
from blas_threads import core_types, loaded_blas_threads, run_check

from tricube import cli, harness, nets, rng
from tricube.env import TaskConfig, actor_obs_dim, critic_obs_dim
from tricube.ppo import PPOAgent, PPOConfig

# the row counts of the pass matrix, each with where split_rows cuts it, at
# any BLAS thread count, once the pass splits at all: the multiple of 256
# nearest half the rows
CUTS = {512: 256, 1000: 512, 1024: 512, 1536: 768, 1920: 1024, 2048: 1024, 4096: 2048,
        4173: 2048, 8192: 4096, 16384: 8192}
# the fewest of those rows at which each net splits, in float32 and in float64:
# where its widest activation (256 for the paper policy, 512 for the paper
# value and both wide nets, 64 and 128 for the smoke nets) reaches 2 MiB
SPLITS = {"policy": (2048, 1024), "value": (1024, 512), "smoke policy": (8192, 4096),
          "smoke value": (4096, 2048), "wide policy": (1024, 512), "wide value": (1024, 512)}


def paper_agent(dtype=np.float32, tensors=None, **ppo) -> PPOAgent:
    """An agent with the paper's nets; its output layers at a trained scale
    (the initial heads are small), so the outputs are far from zero.  Given
    a saved agent's ``tensors``, the agent is built from them."""
    variant = TaskConfig().obs_variant
    agent = PPOAgent(actor_obs_dim(variant), critic_obs_dim(variant), 9, PPOConfig(**ppo),
                     seed=2, dtype=dtype, tensors=tensors)
    if tensors is None:
        agent.policy.trunk.weights[-1] *= 100.0
    return agent


def matrix_nets(dtype) -> dict[str, nets.MLP]:
    """The nets of ``SPLITS``: the paper's, the smoke profile's, and a
    reach policy and value with a 512-wide second hidden layer
    ([12, 32, 512, 2] and [12, 64, 512, 1])."""
    paper = paper_agent(dtype)
    out = {"policy": paper.policy.trunk, "value": paper.value.trunk}
    for name, policy_hidden, value_hidden in (("smoke", (64, 64), (128, 128)),
                                              ("wide", (32, 512), (64, 512))):
        agent = PPOAgent(12, 12, 2, PPOConfig(policy_hidden=policy_hidden,
                                              value_hidden=value_hidden), seed=2, dtype=dtype)
        agent.policy.trunk.weights[-1] *= 100.0
        out[f"{name} policy"], out[f"{name} value"] = agent.policy.trunk, agent.value.trunk
    return out


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
    """Each net of ``matrix_nets`` over every row count in ``CUTS``, in
    float32 and float64: split at ``CUTS`` from ``SPLITS`` on, at any BLAS
    thread count; every forward row range run at one BLAS thread, the
    second half on the helper at 2 or more BLAS threads and here at one;
    and the forward output, cache and gradients byte-equal to the same pass
    under ``one_blas_thread()``."""
    assert loaded_blas_threads() in (None, threads)
    beside = nets.blas_threads() >= 2
    seen = []  # (lo, hi, on the main thread, BLAS threads) of each forward row range
    real_rows = nets.MLP._forward_rows

    def record(self, x, outs, lo, hi):
        seen.append((lo, hi, threading.current_thread() is threading.main_thread(),
                     nets.blas_threads()))
        return real_rows(self, x, outs, lo, hi)

    nets.MLP._forward_rows = record
    try:
        for i, dtype in enumerate((np.float32, np.float64)):
            for name, net in matrix_nets(dtype).items():
                for n, cut in CUTS.items():
                    x = keyed(n, net.sizes[0], 0, dtype)
                    dout = keyed(n, net.sizes[-1], 1, dtype)
                    at = cut if n >= SPLITS[name][i] else 0
                    legs = []
                    for held in (False, True):
                        with nets.one_blas_thread() if held else contextlib.nullcontext():
                            assert net.split_rows(n) == at, (name, dtype, n)
                            seen.clear()
                            legs.append(pass_bytes(net, x, dout))
                        here = not beside or held
                        want = [(0, at, True, 1), (at, n, here, 1)] if at else [(0, n, True, 1)]
                        assert sorted(seen) == want, (name, dtype, n, held)
                        assert other_threads() == []
                    assert legs[0] == legs[1], (name, dtype, n)
    finally:
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
    minibatches, whose passes split."""
    agent = paper_agent(dtype, batch_size=4096, minibatch_size=2048, epochs=2)
    agent.update(update_batch(agent, 4096), 3e-4)
    return {k: v.tobytes() for k, v in agent._net_tensors().items()}


def check_update(threads: int) -> None:
    """One ``PPOAgent.update`` leaves the same bytes as under
    ``one_blas_thread()``, in float32 and float64."""
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


def check_inference_plans(threads: int) -> None:
    """``MLP.infer_beside``, the rollout's in-loop value forward, runs the
    plan of ``MLP.__call__``: the paper value net gets the same bytes from
    both at 1024 and 4096 rows (split at 512 and 2048), run at once outside
    any ``_beside`` or by either of ``_beside``'s submits.  Run at once, its
    GEMMs still run at one BLAS thread, and the count is restored after."""
    assert loaded_blas_threads() in (None, threads)
    net = paper_agent().value.trunk
    for n in (1024, 4096):
        assert net.split_rows(n) == CUTS[n]
        x = keyed(n, net.sizes[0], 3, np.float32)
        want = net(x).tobytes()
        assert net.infer_beside(x, nets._now)().tobytes() == want, n
        assert loaded_blas_threads() in (None, threads)
        for wanted in (False, True):
            with nets._beside(wanted) as submit:
                assert net.infer_beside(x, submit)().tobytes() == want, (n, wanted)


def check_evaluate_after_update(threads: int, path: str, fresh: bool) -> None:
    """An evaluation forked after a threaded update reports what a fresh
    process that loads the updated agent reports."""
    assert loaded_blas_threads() in (None, threads)
    ppo = dict(batch_size=4096, minibatch_size=2048, epochs=1)
    if fresh:
        with np.load(path + ".npz") as f:
            agent = paper_agent(tensors=dict(f), **ppo)
        with open(path + ".json") as f:
            assert evaluation_report(agent) == f.read()
        return
    agent = paper_agent(**ppo)
    assert agent.policy.trunk.split_rows(2048) and agent.value.trunk.split_rows(2048)
    agent.update(update_batch(agent, 4096), 3e-4)
    np.savez(path + ".npz", **agent._net_tensors())
    with open(path + ".json", "w") as f:
        f.write(evaluation_report(agent))


def check_train(threads: int, out: str) -> None:
    """``tricube train`` on the smoke profile with a 512-wide value layer,
    into ``out``: its 1920-row minibatches split the value net's passes, and
    its 512-row inferences do not."""
    assert loaded_blas_threads() in (None, threads)
    assert cli.main(["train", "--profile", "smoke", "--set", "ppo.value_hidden=[64,512]",
                     "--set", "run.total_steps=23040", "--out", out]) == 0


@pytest.mark.parametrize("check", ["check_passes", "check_update", "check_failures"])
def test_two_thread_training_passes(check):
    for core in core_types():
        run_check(2, "test_nets_threads", check, 2, core=core)


def test_inference_beside_runs_the_plan_of_a_call():
    for core in core_types():
        for threads in (1, 2):
            run_check(threads, "test_nets_threads", "check_inference_plans", threads, core=core)


def test_evaluation_after_a_threaded_update_matches_a_fresh_process(tmp_path):
    for core in core_types():
        path = str(tmp_path / f"updated-{core}")
        run_check(2, "test_nets_threads", "check_evaluate_after_update", 2, path, False, core=core)
        run_check(2, "test_nets_threads", "check_evaluate_after_update", 2, path, True, core=core)


def test_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    written = {}
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        run_check(threads, "test_nets_threads", "check_train", threads, str(out))
        written[threads] = [(out / name).read_bytes()
                            for name in ("metrics.jsonl", "ckpt_final.tckpt")]
    assert written[1] == written[2]
