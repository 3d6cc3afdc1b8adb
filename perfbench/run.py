"""Benchmark of the tricube pipeline: one workload, one process.

    python3 perfbench/run.py --workload train_cube --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``tricube`` from its
``src/`` directory.  The run times the import in several fresh processes
and sets up the workload as many times (``setup_s`` is the median import
plus the median set-up), runs warm-up units, then measures whole units (a
training iteration, or one ``harness.evaluate`` call) until ``--seconds``
have passed and at least ``MIN_UNITS`` units were measured.
Every unit's output is checked.  Human-readable lines come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.

Timing is done from outside the program.  A step clock wraps the task's
``step`` and ``reset_all``; with ``--trace 1`` the tracer also wraps the
public functions of every layer (see ``trace_targets``).  The wrappers are
removed before the process ends.  The end-to-end timings are scaled to a
reference machine by a speed probe timed during the run (see probe.py);
the wall-clock values are printed next to them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

from probe import SpeedProbe
from tracer import Patches, StepClock, Tracer, layer_stats
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE_EVERY_S = 1.0  # the speed probe runs after a unit once this much time has passed
SETUP_REPEATS = 15  # setup_s: median import (each in a fresh process) + median set-up
WARMUP_UNITS = 1  # run before timing starts
MIN_UNITS = 3  # measured units, whatever --seconds is
TAIL_PCT = 90  # step_ms_tail: this percentile of each unit's steps
DIGEST_UNITS = 2  # records hashed: the first units, whatever the run length

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "iter_s_p50": "s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# traced layers, in report order: span name -> (owner path, attribute)
LAYERS = {
    "physics.step": ("physics", "step"),
    "physics.fingertip_kinematics": ("physics", "fingertip_kinematics"),
    "physics.apply_external_force": ("physics", "apply_external_force"),
    "env.step": ("env.CubeReposeTask", "step"),
    "env.reset_all": ("env.CubeReposeTask", "reset_all"),
    "domrand.apply_observation_noise": ("domrand", "apply_observation_noise"),
    "domrand.apply_orientation_noise": ("domrand", "apply_orientation_noise"),
    "domrand.apply_action_noise": ("domrand", "apply_action_noise"),
    "rng.stream_key": ("rng", "stream_key"),
    "nets.MLP.forward.policy": ("nets.MLP", "forward"),
    "nets.MLP.forward.value": None,  # same wrapper, split by net
    "nets.MLP.backward.policy": ("nets.MLP", "backward"),
    "nets.MLP.backward.value": None,
    "nets.Adam.step": ("nets.Adam", "step"),
    "nets.RunningNorm.update": ("nets.RunningNorm", "update"),
    "ppo.update": ("ppo.PPOAgent", "update"),
    "ppo.policy_loss_and_grads": ("ppo.PPOAgent", "policy_loss_and_grads"),
    "ppo.value_loss_and_grads": ("ppo.PPOAgent", "value_loss_and_grads"),
    "ppo.clip_grad_norm": ("ppo", "clip_grad_norm"),
    "ppo.gae": ("trainer", "gae"),
    "ppo.policy.act": ("ppo.GaussianPolicy", "act"),
    "ppo.predict_values": ("ppo.PPOAgent", "predict_values"),
    "ppo.write_checkpoint": ("ppo", "write_checkpoint"),
    "ppo.read_checkpoint": ("ppo", "read_checkpoint"),
    "trainer.collect_rollout": ("trainer.Trainer", "collect_rollout"),
    "trainer.save_checkpoint": ("trainer.Trainer", "save_checkpoint"),
    "harness.evaluate": ("harness", "evaluate"),
    "reach.step": ("reach.ReachTask", "step"),
    "bench.unit": None,  # the benchmark's own span around each unit
}
# layers that run on every workload also report time per call and self time
EVERY_WORKLOAD = ("rng.stream_key", "nets.MLP.forward.policy", "ppo.policy.act")
CHECKPOINT_IO = ("ppo.write_checkpoint", "ppo.read_checkpoint")


def per_layer_metrics() -> dict:
    """name -> (unit, better) of every metric a traced run prints."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_pct"] = ("%", "lower")
    for layer in EVERY_WORKLOAD:
        out[f"{layer}.ms_p50"] = ("ms", "lower")
        out[f"{layer}.self_ms"] = ("ms", "lower")
    for layer in CHECKPOINT_IO:
        out[f"{layer}.ms"] = ("ms", "lower")
    out["ppo.checkpoint.bytes"] = ("bytes", "lower")
    out["physics.fingertip_kinematics.calls_per_step"] = ("count", "lower")
    out["rng.stream_key.calls_per_step"] = ("count", "lower")
    out["physics.fault_resets"] = ("count", "lower")
    out["control_steps"] = ("count", "higher")
    out["trainer.update_share"] = ("%", "lower")
    out["trainer.update_share.base_s"] = ("s", "lower")
    out["trace.env_steps_per_s"] = ("1/s", "higher")
    return out


# ---------------------------------------------------------------- conditions


def set_blas_threads(wanted: int | None) -> int:
    """Fix the BLAS thread count before numpy loads: ``wanted``, at most
    one per core this process may run on.  Returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(wanted or nproc, nproc))
    return nproc


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def conditions(np, nproc: int, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = {}
    return {
        "host": platform.node(),
        "cpu": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ workloads


def _digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


class TrainRun:
    """One unit is one training iteration: ``Trainer.collect_rollout`` then
    ``PPOAgent.update`` at the scheduled learning rate, as ``tricube train``
    runs it."""

    def __init__(self, inputs: dict, t):
        self.inputs, self.t = inputs, t

    def prepare(self, workdir: Path) -> None:
        pass

    def setup(self) -> None:
        t = self.t
        cfg = t.config.resolve(self.inputs["profile"], self.inputs["overrides"])
        task = t.trainer.make_task(
            cfg.run.task, cfg.run.num_envs, cfg.run.seed,
            task=cfg.task, phys=cfg.physics, dr=cfg.dr, reach=cfg.reach,
        )
        agent = t.cli.build_agent_for(cfg)
        self.trainer = t.trainer.Trainer(task, agent, total_steps=cfg.run.total_steps, seed=cfg.run.seed)
        self.trainer.obs = task.reset_all()
        self.task_cls = type(task)

    def unit(self, clock: StepClock, between):
        np, trainer = self.t.np, self.trainer
        agent = trainer.agent
        lr = self.t.ppo.lr_schedule(agent.global_step, trainer.total_steps, agent.cfg)
        t0 = time.perf_counter()
        clock.mark()
        batch, stats = trainer.collect_rollout()
        t1 = time.perf_counter()
        between()
        t2 = time.perf_counter()
        try:
            upd = agent.update(batch, lr)
        except FloatingPointError as err:  # the update's own non-finite-loss check
            return [(t0, t1), (t2, time.perf_counter())], 0, None, [str(err)], 1, 1
        segments = [(t0, t1), (t2, time.perf_counter())]
        # the fields Trainer.train writes to metrics.jsonl
        record = {
            "iteration": agent.iteration,
            "global_step": agent.global_step,
            "lr": lr,
            "mean_reward": stats["mean_reward"],
            "success_rate": stats["success_rate"],
            "success_any_rate": stats["success_any_rate"],
            "mean_return": stats["mean_return"],
            "episodes": stats["episodes"],
            "reward_components": stats["reward_components"],
            "policy_loss": upd.policy_loss,
            "value_loss": upd.value_loss,
            "kl": upd.kl,
            "clip_fraction": upd.clip_fraction,
            "entropy": upd.entropy,
        }
        problems = [f"non-finite {k}" for k in ("actor_obs", "critic_obs", "advantages", "returns")
                    if not np.isfinite(batch[k]).all()]
        problems += [f"non-finite {k}" for k in ("policy_loss", "value_loss", "mean_reward", "kl")
                     if not np.isfinite(record[k])]
        problems += [f"{k} outside [0, 1]" for k in ("success_rate", "success_any_rate")
                     if record[k] is not None and not 0.0 <= record[k] <= 1.0]
        return segments, len(batch["returns"]), record, problems, 1, int(bool(problems))

    def finish(self, workdir: Path) -> int:
        """Write one training checkpoint and read it back; returns its size."""
        path = workdir / "train.tckpt"
        self.trainer.save_checkpoint(str(path))
        self.t.ppo.read_checkpoint(str(path))
        return path.stat().st_size


class EvalRun:
    """One unit is one ``harness.evaluate`` call, made as ``tricube eval``
    makes it, on a checkpoint written in set-up."""

    def __init__(self, inputs: dict, t):
        self.inputs, self.t = inputs, t
        self.task_cls = t.env.CubeReposeTask

    def prepare(self, workdir: Path) -> None:
        t, spec = self.t, self.inputs["checkpoint"]
        cfg = t.config.resolve(self.inputs["profile"], spec["overrides"])
        task = t.trainer.make_task(
            cfg.run.task, cfg.run.num_envs, cfg.run.seed,
            task=cfg.task, phys=cfg.physics, dr=cfg.dr, reach=cfg.reach,
        )
        agent = t.cli.build_agent_for(cfg)
        t.trainer.Trainer(task, agent, total_steps=cfg.run.total_steps, seed=cfg.run.seed).collect_rollout()
        self.path = workdir / "eval.tckpt"
        agent.save(str(self.path))
        self.ckpt_bytes = self.path.stat().st_size

    def setup(self) -> None:
        t = self.t
        self.cfg = t.config.resolve(self.inputs["profile"], self.inputs["overrides"])
        self.agent, _, _ = t.ppo.PPOAgent.from_checkpoint(str(self.path))
        self.ckpt_hash = t.harness.hash_file(str(self.path))

    def unit(self, clock: StepClock, between):
        t, cfg = self.t, self.cfg
        np, n = t.np, cfg.harness.eval_trials
        t0 = time.perf_counter()
        try:
            report = t.harness.evaluate(
                self.agent, n, cfg.harness.eval_seed, task=cfg.task, phys=cfg.physics,
                dr=t.domrand.DRConfig(enabled=False), checkpoint_hash=self.ckpt_hash,
            )
        except RuntimeError as err:  # evaluate's own record-count check
            return [(t0, time.perf_counter())], 0, None, [str(err)], n, n
        segments = [(t0, time.perf_counter())]
        record = {"final_pos_err": report.final_pos_err, "final_rot_err": report.final_rot_err}
        whole = []  # problems that spoil every trial of the report
        if not report.n_trials == len(report.final_pos_err) == len(report.final_rot_err) == n:
            whole.append(f"{len(report.final_pos_err)} trial records for {n} trials")
        rates = ("success_rate", "pos_success_rate", "rot_success_rate", "success_any_rate",
                 "ci_lo", "ci_hi")
        whole += [f"{k} outside [0, 1]" for k in rates if not 0.0 <= getattr(report, k) <= 1.0]
        if not np.isfinite(report.mean_return):
            whole.append("non-finite mean_return")
        bad = sum(1 for p, r in zip(report.final_pos_err, report.final_rot_err)
                  if not (np.isfinite(p) and np.isfinite(r)))
        problems = whole + ([f"{bad} trials with non-finite errors"] if bad else [])
        failed = n if whole else bad
        return segments, n * cfg.task.episode_length, record, problems, n, failed

    def finish(self, workdir: Path) -> int:
        return self.ckpt_bytes


RUNNERS = {"train": TrainRun, "eval": EvalRun}


# ------------------------------------------------------------------ tracing


def trace_targets(t) -> list:
    """(owner, attribute, span name or naming function, counter) per layer."""

    def by_net(base):
        # the value trunk is the only net with a single output
        return lambda args: f"{base}.{'value' if args[0].sizes[-1] == 1 else 'policy'}"

    targets = []
    for name, where in LAYERS.items():
        if where is None:
            continue
        path, attr = where
        owner = t
        for part in path.split("."):
            owner = getattr(owner, part)
        naming = by_net(name.rsplit(".", 1)[0]) if name.startswith("nets.MLP.") else name
        count = (lambda out: int(t.np.count_nonzero(out.fault))) if name == "physics.step" else None
        targets.append((owner, attr, naming, count))
    return targets


def layer_metrics(tracer: Tracer, raw: dict) -> tuple[dict, dict]:
    """Per-layer metric values and the full per-layer table.  Shares are of
    the time inside the steady phase's ``bench.unit`` spans, so they add up
    to 100."""
    steps = len(raw["step_s"])
    table = layer_stats(tracer.spans, {"steady"})
    steady_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.unit")
    every_phase = layer_stats(tracer.spans, {"setup", "warmup", "steady", "final"})
    zero = {"calls": 0, "ms_p50": 0.0, "self_ms": 0.0}
    values = {}
    for layer in LAYERS:
        row = table.get(layer, zero)
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_pct"] = 100.0 * row["self_ms"] / (1e3 * steady_s)
    for layer in EVERY_WORKLOAD:
        row = table.get(layer, zero)
        values[f"{layer}.ms_p50"] = row["ms_p50"]
        values[f"{layer}.self_ms"] = row["self_ms"]
    for layer in CHECKPOINT_IO:
        values[f"{layer}.ms"] = every_phase.get(layer, zero)["ms_p50"]
    values["ppo.checkpoint.bytes"] = raw["ckpt_bytes"]
    values["physics.fingertip_kinematics.calls_per_step"] = (
        table.get("physics.fingertip_kinematics", zero)["calls"] / max(steps, 1)
    )
    values["rng.stream_key.calls_per_step"] = table.get("rng.stream_key", zero)["calls"] / max(steps, 1)
    values["physics.fault_resets"] = tracer.counts.get(("physics.step", "steady"), 0)
    values["control_steps"] = steps
    update_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "ppo.update" and s[4] == "steady")
    values["trainer.update_share"] = 100.0 * update_s / steady_s
    values["trainer.update_share.base_s"] = steady_s
    values["trace.env_steps_per_s"] = unit_rate(raw)
    return values, table


# ------------------------------------------------------------------ the run


def run_workload(inputs: dict, seconds: float, trace: bool, t, workdir: Path) -> dict:
    """Set up, warm up and measure one workload; returns raw results."""
    patches = Patches()
    clock = StepClock(patches)
    tracer = Tracer(patches) if trace else None
    probe = SpeedProbe(t.np, inputs["probe_nominal_s"])
    try:
        if tracer:
            for owner, attr, name, count in trace_targets(t):
                tracer.wrap(owner, attr, name, count)
        runner = RUNNERS[inputs["kind"]](inputs, t)
        runner.prepare(workdir)
        # each import and set-up has a probe of its own: the set-up phase
        # lasts a few seconds, and the host's speed then can differ from the
        # run's; an import's probe runs in the import's own process
        imports, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            if not trace:
                imports.append(import_time())
            t0 = time.perf_counter()
            runner.setup()
            setup_times.append(time.perf_counter() - t0)
            probe.measure()
        setup_scale = probe.scale()
        setup_probes = len(probe.probes)
        clock.install(runner.task_cls)

        records, problems = [], []
        attempted = failed = 0

        def maybe_probe():
            if probe.since_last() >= PROBE_EVERY_S:
                probe.measure()

        # probing between a unit's parts would land inside its bench.unit span
        between = (lambda: None) if tracer else maybe_probe

        def one_unit():
            nonlocal attempted, failed
            segments, steps, record, probs, n, bad = runner.unit(clock, between)
            attempted += n
            failed += bad
            problems.extend(probs)
            if record is not None:
                records.append(record)
            return segments, steps, not probs

        if tracer:
            tracer.phase = "warmup"
        for _ in range(WARMUP_UNITS):
            one_unit()

        if tracer:
            tracer.phase = "steady"
        probe.measure()
        clock.samples.clear()
        units = []  # (timed segments, env steps)
        start = time.perf_counter()
        while True:
            with tracer.span("bench.unit") if tracer else nullcontext():
                segments, steps, ok = one_unit()
            units.append((segments, steps))
            maybe_probe()
            elapsed = time.perf_counter() - start
            if not ok:
                break
            if elapsed >= seconds and len(units) >= MIN_UNITS:
                break
        if probe.probes[-1][0] < units[-1][0][-1][1]:
            probe.measure()
        steps = list(clock.samples)

        if tracer:
            tracer.phase = "final"
        ckpt_bytes = runner.finish(workdir)
    finally:
        patches.restore()

    return {
        "import_s": [s for s, _ in imports],
        "import_scale": [probe.nominal_s / p for _, p in imports],
        "setup_times": setup_times,
        "setup_scale": setup_scale,
        "scale": probe.scale(setup_probes),
        "unit_s": [sum(e - b for b, e in segs) for segs, _ in units],
        "unit_steps": [n for _, n in units],
        "step_s": [e - b for b, e in steps],
        # the measured unit each step belongs to
        "step_unit": [next(i for i, (segs, _) in enumerate(units) if segs[0][0] <= b and e <= segs[-1][1])
                      for b, e in steps],
        "probe_s": [p[2] for p in probe.probes[setup_probes:]],
        "records": records,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
        "ckpt_bytes": ckpt_bytes,
    }


def unit_rate(raw: dict, scaled: bool = True) -> float:
    """Env steps per second of the median unit.  A median, not a total
    over total, so that a slow spell of the machine during a minority of
    the units does not move it."""
    scale = raw["scale"] if scaled else 1.0
    return statistics.median(n / (s * scale) for n, s in zip(raw["unit_steps"], raw["unit_s"]))


def step_tail(steps: list[float], unit_of: list[int]) -> tuple[float, str]:
    """Tail step time in ms and how it was taken: each measured unit's
    ``TAIL_PCT`` percentile step (nearest rank, so the slowest step of a
    unit with fewer than ten), then the median of these over the units.
    Per unit, because a percentile of all steps pooled takes its samples
    from whichever units met the host's slowest spell."""
    by_unit: dict[int, list[float]] = {}
    for s, u in zip(steps, unit_of):
        by_unit.setdefault(u, []).append(s)
    tails = [sorted(xs)[math.ceil(TAIL_PCT / 100 * len(xs)) - 1] for xs in by_unit.values()]
    per_unit = statistics.median(len(xs) for xs in by_unit.values())
    return (1e3 * statistics.median(tails),
            f"median over {len(tails)} units of each unit's p{TAIL_PCT} step, {per_unit:g} steps per unit")


def end_to_end(raw: dict, scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metric values, in reference-machine seconds when
    ``scaled`` (see probe.py), else in wall-clock seconds.  ``setup_s`` is
    scaled by the probes of the set-up phase (each import by its own), the
    rest by those after it."""
    scale = raw["scale"] if scaled else 1.0
    setup_scale = raw["setup_scale"] if scaled else 1.0
    import_s = statistics.median(raw["import_s"])
    import_ref = statistics.median(
        s * (f if scaled else 1.0) for s, f in zip(raw["import_s"], raw["import_scale"]))
    units = [s * scale for s in raw["unit_s"]]
    steps = [s * scale for s in raw["step_s"]]
    tail_ms, tail_note = step_tail(steps, raw["step_unit"])
    values = {
        "setup_s": import_ref + statistics.median(raw["setup_times"]) * setup_scale,
        "env_steps_per_s": unit_rate(raw, scaled),
        "iter_s_p50": statistics.median(units),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"step_ms_tail": tail_note, "iter_s_p50": f"of {len(units)} units",
             "setup_s": f"import {1e3 * import_s:.1f} ms wall clock"}
    return values, notes


# the modules the benchmark uses, imported as load_program imports them
IMPORT_TIMER = """\
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from tricube import cli, config, domrand, env, harness, nets, physics, ppo, reach, rng, trainer
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from probe import SpeedProbe
print(seconds, SpeedProbe(numpy, 1.0).measure())
"""


def import_time() -> tuple[float, float]:
    """Seconds the ``tricube`` import takes in a fresh process, numpy's own
    import left out (a module is imported once per process), and the
    seconds of a speed probe run in that process right after it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC), str(Path(__file__).parent)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    seconds, probe_s = proc.stdout.split()[-2:]
    return float(seconds), float(probe_s)


def load_program():
    """Import the program from ``src/`` of this checkout.  Returns the
    modules, or None when the sources are absent."""
    if not (SRC / "tricube" / "__init__.py").is_file():
        return None
    import numpy as np

    sys.path.insert(0, str(SRC))
    from tricube import cli, config, domrand, env, harness, nets, physics, ppo, reach, rng, trainer

    if not Path(env.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tricube imported from {env.__file__}, not from {SRC}")
    t = argparse.Namespace(
        np=np, cli=cli, config=config, domrand=domrand, env=env, harness=harness,
        nets=nets, physics=physics, ppo=ppo, reach=reach, rng=rng, trainer=trainer,
    )
    return t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed)
    nproc = set_blas_threads(inputs["blas_threads"])
    t = load_program()
    if t is None:
        print(f"error: no tricube sources under {SRC}", file=sys.stderr)
        return 2

    print("conditions:", json.dumps(conditions(t.np, nproc, args), sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        raw = run_workload(inputs, args.seconds, bool(args.trace), t, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed = raw["attempted"], raw["failed"]
    for p in sorted(set(raw["problems"])):
        print(f"check failed: {p}")
    records = raw["records"][:DIGEST_UNITS]
    print(f"digest = {_digest(records)} over {len(records)} records")
    print("unit seconds =", " ".join(f"{x:.4g}" for x in raw["unit_s"]))
    print(f"speed probe = {1e3 * statistics.median(raw['probe_s']):.4g} ms median "
          f"(reference machine {1e3 * inputs['probe_nominal_s']:.4g} ms)")
    print(f"failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted} "
          f"{'episodes' if inputs['kind'] == 'eval' else 'iterations'})")

    if args.trace:
        values, table = layer_metrics(raw["tracer"], raw)
        steady_ms = 1e3 * values["trainer.update_share.base_s"]
        print(f"{'layer':<34}{'calls':>8}{'ms/call p50':>13}{'self ms':>11}{'share %':>9}")
        for layer in LAYERS:
            row = table.get(layer, {"calls": 0, "ms_p50": 0.0, "self_ms": 0.0})
            print(f"{layer:<34}{row['calls']:>8}{row['ms_p50']:>13.3f}{row['self_ms']:>11.1f}"
                  f"{100 * row['self_ms'] / steady_ms:>9.2f}")
        units = {k: unit for k, (unit, _) in per_layer_metrics().items()}
    else:
        values, notes = end_to_end(raw)
        wall, _ = end_to_end(raw, scaled=False)
        units = END_TO_END
        for k, u in units.items():
            print(f"{k} = {values[k]:.6g} {u} (wall clock {wall[k]:.6g})"
                  + (f" ({notes[k]})" if k in notes else ""))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
