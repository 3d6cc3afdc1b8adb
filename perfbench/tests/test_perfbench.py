"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import probe  # noqa: E402
from tracer import Patches, StepClock, Tracer, layer_stats, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


@pytest.fixture(scope="module")
def program():
    t = run.load_program()
    assert t is not None
    return t


class FakeClock:
    """Advances one tick per reading, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# ---------------------------------------------------------------- wrappers


def test_wrappers_restore_the_originals():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    originals = (mod.f, vars(Child)["own"])
    patches = Patches()
    tracer = Tracer(patches)
    tracer.wrap(mod, "f", "mod.f")
    tracer.wrap(Child, "own", "Child.own")
    tracer.wrap(Child, "inherited", "Child.inherited")
    assert mod.f(1) == 2 and Child().own() == "own" and Child().inherited() == "base"
    assert [s[0] for s in tracer.spans] == ["mod.f", "Child.own", "Child.inherited"]
    patches.restore()
    assert (mod.f, vars(Child)["own"]) == originals
    assert "inherited" not in vars(Child)
    assert Child().inherited() == "base"


def test_program_wrappers_restore_the_originals(program):
    targets = run.trace_targets(program)
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    patches = Patches()
    tracer = Tracer(patches)
    for owner, attr, name, count in targets:
        tracer.wrap(owner, attr, name, count)
    StepClock(patches).install(program.env.CubeReposeTask)
    assert program.physics.step is not before[0][2]
    patches.restore()
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr}"
    assert not hasattr(vars(program.env.CubeReposeTask)["reset_all"], "__wrapped__")


def test_wrapper_sees_calls_made_inside_the_module(program):
    """physics.step looks fingertip_kinematics up in its own module."""
    p = program.physics
    patches = Patches()
    tracer = Tracer(patches)
    tracer.wrap(p, "fingertip_kinematics", "kin")
    try:
        cfg = p.PhysicsConfig()
        params = p.EnvParams.nominal(2)
        p.step(p.make_rest_state(2, cfg, params), program.np.zeros((2, 9)), params, cfg)
    finally:
        patches.restore()
    assert len(tracer.spans) == cfg.n_substeps


# ---------------------------------------------------------------- analysis


def test_self_time_adds_up():
    patches = Patches()
    tracer = Tracer(patches, clock=FakeClock())
    mod = types.ModuleType("fake")
    mod.leaf = lambda: None

    def middle():
        mod.leaf()
        mod.leaf()

    mod.middle = middle
    tracer.wrap(mod, "leaf", "leaf")
    tracer.wrap(mod, "middle", "middle")
    try:
        with tracer.span("root"):
            mod.middle()
            mod.leaf()
    finally:
        patches.restore()
    selfs = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == 1
    assert sum(selfs) == pytest.approx(sum(s[2] - s[1] for s in roots))
    assert all(x > 0 for x in selfs)
    stats = layer_stats(tracer.spans, {"setup"})
    assert stats["leaf"]["calls"] == 3 and stats["middle"]["calls"] == 1
    assert sum(r["self_ms"] for r in stats.values()) == pytest.approx(1e3 * (roots[0][2] - roots[0][1]))


def test_step_tail_is_the_median_of_each_units_p90():
    # two units of 20 steps: p90 is the 18th slowest, two steps beyond it
    steps = [i / 1e3 for i in range(1, 21)] + [2 * i / 1e3 for i in range(1, 21)]
    value, note = run.step_tail(steps, [0] * 20 + [1] * 20)
    assert value == pytest.approx((18.0 + 36.0) / 2)
    assert note == "median over 2 units of each unit's p90 step, 20 steps per unit"
    # units of four steps: the slowest of each
    steps = [0.4, 0.5, 0.4, 0.4, 0.3, 0.3, 0.35, 0.3, 0.6, 0.5, 0.5, 0.5]
    value, _ = run.step_tail(steps, [0] * 4 + [1] * 4 + [2] * 4)
    assert value == pytest.approx(500.0) and value > 1e3 * statistics.median(steps)


def test_speed_probe_scales_by_the_median_probe(program):
    p = probe.SpeedProbe(program.np, 0.02)
    p.probes = [(0.0, 1.0, 0.04), (2.0, 3.0, 0.08), (4.0, 5.0, 2.0)]
    assert p.scale() == pytest.approx(0.25)
    assert p.scale(first=2) == pytest.approx(0.01)
    assert p.measure() > 0 and len(p.probes) == 4


def test_import_is_timed_in_a_fresh_process():
    seconds, probe_s = run.import_time()
    assert 0 < seconds < 60 and 0 < probe_s < 60


# ---------------------------------------------------------------- workloads


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_inputs_are_a_pure_function_of_the_seed(workload):
    a = make_inputs(workload, 3)
    snapshot = copy.deepcopy(a)
    make_inputs(workload, 4)
    assert make_inputs(workload, 3) == a == snapshot
    assert make_inputs(workload, 4) != a
    assert json.loads(json.dumps(a)) == a  # plain data only


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.per_layer_metrics()


# ---------------------------------------------------------------- tiny runs


def tiny(workload: str, seed: int = 0) -> dict:
    inputs = make_inputs(workload, seed)
    small_nets = {"epochs": 1, "policy_hidden": [8], "value_hidden": [8]}
    if workload == "train_cube":
        inputs["overrides"]["run"]["num_envs"] = 8
        inputs["overrides"]["ppo"] = {"batch_size": 16, "minibatch_size": 8, **small_nets}
    elif workload == "train_reach":
        inputs["overrides"]["run"]["num_envs"] = 4
        inputs["overrides"]["ppo"] = {"batch_size": 8, "minibatch_size": 4, **small_nets}
    else:
        inputs["overrides"]["harness"]["eval_trials"] = 4
        inputs["overrides"]["task"]["episode_length"] = 3
        inputs["checkpoint"]["overrides"]["run"]["num_envs"] = 4
        inputs["checkpoint"]["overrides"]["ppo"] = {"batch_size": 8, "minibatch_size": 8, **small_nets}
    return inputs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_metric(program, workload, tmp_path):
    raw = run.run_workload(tiny(workload), 0.0, True, program, tmp_path)
    assert raw["attempted"] > 0 and raw["failed"] == 0, raw["problems"]
    assert raw["import_s"] == []  # set-up is not reported by a traced run
    layers, _ = run.layer_metrics(raw["tracer"], raw)
    assert set(layers) == set(run.per_layer_metrics())
    shares = sum(layers[f"{layer}.self_pct"] for layer in run.LAYERS)
    assert shares == pytest.approx(100.0)
    if workload == "train_reach":
        assert layers["physics.step.calls"] == layers["env.step.calls"] == 0
        assert layers["reach.step.calls"] > 0
    elif workload == "eval_cube":
        assert layers["ppo.update.calls"] == 0
        assert all(layers[f"domrand.apply_{k}_noise.calls"] == 0
                   for k in ("observation", "orientation", "action"))
        assert layers["physics.fingertip_kinematics.calls_per_step"] >= 7
    else:
        assert layers["ppo.update.calls"] > 0 and layers["domrand.apply_action_noise.calls"] > 0
    # the program is left as it was found
    for owner, attr, _, _ in run.trace_targets(program):
        assert not hasattr(vars(owner)[attr], "__wrapped__"), f"{owner}.{attr}"


def test_same_seed_gives_the_same_digest(program, tmp_path):
    digests = []
    for _ in range(2):
        raw = run.run_workload(tiny("train_reach", seed=5), 0.0, False, program, tmp_path)
        digests.append(run._digest(raw["records"][:2]))
    assert digests[0] == digests[1]


def test_untraced_run_reports_every_end_to_end_metric(program, tmp_path):
    raw = run.run_workload(tiny("eval_cube"), 0.0, False, program, tmp_path)
    assert len(raw["import_s"]) == len(raw["setup_times"]) == run.SETUP_REPEATS
    values, _ = run.end_to_end(raw)
    assert set(values) == set(run.END_TO_END)
    assert all(v > 0 for v in values.values())
    wall, _ = run.end_to_end(raw, scaled=False)
    assert values["setup_s"] == pytest.approx(
        statistics.median(s * f for s, f in zip(raw["import_s"], raw["import_scale"]))
        + statistics.median(raw["setup_times"]) * raw["setup_scale"])
    assert values["iter_s_p50"] == pytest.approx(wall["iter_s_p50"] * raw["scale"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_reach", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
