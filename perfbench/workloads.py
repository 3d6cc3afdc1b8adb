"""The benchmark's workloads: their inputs as a pure function of the seed.

``make_inputs`` uses no clock, no global state and no randomness beyond the
seed it is given; the program under test receives only what it returns.
Config overrides go through ``tricube.config.resolve`` exactly as the
``--config`` file of the ``tricube`` command would.
"""

from __future__ import annotations

WORKLOADS = {
    "train_cube": "cube task at the paper's per-minibatch shape: PPO update "
    "(nets/ppo) dominates, physics and env about a tenth",
    "eval_cube": "tricube eval on a pos_quat checkpoint, DR off: physics and "
    "env dominate; no update, value net or domrand",
    "train_reach": "smoke profile, reach task: small arrays make nets/ppo "
    "bound by per-call overhead; never calls physics",
}


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    seed = int(seed)
    common = {
        "workload": workload,
        "seed": seed,
        # BLAS threads; None is one per core.  Only train_cube is bound by
        # large GEMMs; the other two ran no slower on one thread of a
        # 2-core host, and one thread leaves them less exposed to whatever
        # else runs on the second core
        "blas_threads": None if workload == "train_cube" else 1,
        # the speed probe's time on the reference machine at this thread
        # count (see probe.py): the 10th percentile of 132 probes each on
        # one and two threads, interleaved over a minute, on a 2-vCPU Xeon
        # host
        "probe_nominal_s": 0.017 if workload == "train_cube" else 0.022,
    }
    if workload == "train_cube":
        # N=4096, minibatch 16384, 8 epochs and both nets are the paper
        # profile's defaults; the batch is cut to one minibatch (horizon 4)
        return {
            **common,
            "kind": "train",
            "profile": "paper",
            "overrides": {"run": {"seed": seed}, "ppo": {"batch_size": 16384}},
        }
    if workload == "train_reach":
        return {
            **common,
            "kind": "train",
            "profile": "smoke",
            "overrides": {"run": {"seed": seed}},
        }
    return {
        **common,
        "kind": "eval",
        "profile": "paper",
        "overrides": {
            "run": {"seed": seed},
            "task": {"obs_variant": "pos_quat", "episode_length": 50},
            "harness": {"eval_trials": 1024, "eval_seed": 10_000 + seed},
        },
        # the evaluated checkpoint is written in set-up: a freshly built
        # agent whose observation normalizers are fitted on one short
        # rollout of a small batch.  It is untrained, as no trained policy
        # exists to load: its deterministic actions stay near zero
        "checkpoint": {
            "overrides": {
                "run": {"seed": seed, "num_envs": 64},
                "task": {"obs_variant": "pos_quat"},
                "ppo": {"batch_size": 512, "minibatch_size": 512},
            },
        },
    }
