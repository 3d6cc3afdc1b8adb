"""Command-line entry point.

Subcommands: train, eval, sweep, ablate, heatmap, objects, plot.  All of
them resolve configuration the same way (profile, optional JSON config
file, repeated ``--set section.key=value`` overrides), write only inside
their output directory, hold a lock file there for the duration, and leave
exactly one ``manifest.json`` describing the run.

Exit codes: 0 success, 2 configuration error, 3 runtime fault, 4
checkpoint/config incompatibility or an unreadable checkpoint.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__, config as config_mod, harness, svgplot
from .config import ConfigError, EngineConfig, config_hash, to_dict
from .env import actor_obs_dim, critic_obs_dim
from .ppo import PPOAgent, read_checkpoint
from .trainer import Trainer, make_task

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INCOMPAT = 4


class IncompatibilityError(RuntimeError):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class OutputDir:
    """Owns the artifact directory: lock file and the final manifest."""

    def __init__(self, path: str):
        self.path = path
        self.lock_path = os.path.join(path, ".lock")
        self._t0 = time.perf_counter()
        self._started = _now()

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        for retry in (False, True):
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if retry or not self._lock_is_stale():
                    raise RuntimeError(
                        f"output directory {self.path} is locked by another run "
                        f"(remove {self.lock_path} if that run is dead)"
                    ) from None
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.lock_path)
        with os.fdopen(fd, "w") as f:
            f.write(str(os.getpid()))
        return self

    def _lock_is_stale(self) -> bool:
        """Whether the lock is gone or names a process that no longer runs.
        A lock that holds no PID is kept."""
        try:
            with open(self.lock_path) as f:
                pid = int(f.read())
            if pid > 0:
                os.kill(pid, 0)  # signal 0 only checks that the process exists
        except (FileNotFoundError, ProcessLookupError):
            return True
        except (ValueError, OverflowError, PermissionError):
            pass
        return False

    def __exit__(self, *exc):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.lock_path)
        return False

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def write_json(self, name: str, data) -> str:
        path = self.file(name)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(data, f, sort_keys=True, indent=2)
            f.write("\n")
        os.replace(tmp, path)
        return path

    def write_text(self, name: str, text: str) -> str:
        path = self.file(name)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, path)
        return path

    def write_jsonl(self, name: str, records) -> str:
        return self.write_text(name, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    def write_manifest(self, cfg: EngineConfig, command: str, **extra) -> str:
        manifest = {
            "command": command,
            "version": __version__,
            "config": to_dict(cfg),
            "config_hash": config_hash(cfg),
            "seed": cfg.run.seed,
            "started_at": self._started,
            "finished_at": _now(),
            "wallclock_sec": time.perf_counter() - self._t0,
        }
        manifest.update(extra)
        return self.write_json("manifest.json", manifest)


def resolve_config(args) -> EngineConfig:
    file_data = config_mod.load_file(args.config) if args.config else None
    cfg = config_mod.resolve(args.profile, file_data, args.set or [])
    if args.seed is not None:
        cfg.run.seed = args.seed
    if args.out is not None:
        cfg.run.output_dir = args.out
    if getattr(args, "trials", None) is not None:
        cfg.harness.eval_trials = args.trials
    return cfg


def out_dir_for(cfg: EngineConfig) -> str:
    root = os.environ.get("TRICUBE_OUT", ".")
    path = cfg.run.output_dir
    return path if os.path.isabs(path) else os.path.join(root, path)


def build_agent_for(cfg: EngineConfig) -> PPOAgent:
    if cfg.run.task == "reach":
        from .reach import ReachTask

        probe = ReachTask(1, seed=0, cfg=cfg.reach)
        a_dim, c_dim, act_dim = probe.actor_dim, probe.critic_dim, probe.action_dim
    else:
        a_dim = actor_obs_dim(cfg.task.obs_variant)
        c_dim = critic_obs_dim(cfg.task.obs_variant)
        act_dim = 9
    return PPOAgent(a_dim, c_dim, act_dim, cfg=cfg.ppo, seed=cfg.run.seed)


def check_checkpoint(path: str, agent: PPOAgent, task=None) -> dict:
    """The tensors of ``path``, which must be a readable checkpoint of an
    agent shaped like ``agent``: the same observation and action dims and
    layer sizes.  With ``task``, any env state the checkpoint carries must
    also match the task's tensor shapes (so the same ``run.num_envs``).  A
    missing file is a configuration error, anything else an
    incompatibility."""
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        tensors, meta = read_checkpoint(path)
    except ValueError as err:
        raise IncompatibilityError(str(err)) from err
    diffs = [
        f"{k} {meta.get(k)} (configured {v})" for k, v in agent.shape().items() if meta.get(k) != v
    ]
    if task is not None and any(k.startswith("env.") for k in tensors):
        for name, arr in task.state_dict().items():
            got = tensors.get(f"env.{name}")
            if got is None or got.shape != arr.shape:
                found = "missing" if got is None else f"shape {got.shape}"
                diffs.append(f"env.{name} {found} (configured {arr.shape})")
    if diffs:
        raise IncompatibilityError(f"{path} does not fit the configuration: " + ", ".join(diffs))
    return tensors


def load_agent_checkpoint(path: str, cfg: EngineConfig) -> tuple[PPOAgent, str]:
    """The configured agent holding the checkpoint's tensors, and the
    checkpoint file's hash."""
    agent = build_agent_for(cfg)
    agent.load_tensors(check_checkpoint(path, agent))
    return agent, harness.hash_file(path)


def evaluate_checkpoint(path: str, cfg: EngineConfig) -> harness.EvalReport:
    """``harness.evaluate`` of the checkpoint on ``cfg``'s task and physics."""
    agent, ckpt_hash = load_agent_checkpoint(path, cfg)
    return harness.evaluate(
        agent, cfg.harness.eval_trials, cfg.harness.eval_seed, task=cfg.task, phys=cfg.physics,
        checkpoint_hash=ckpt_hash, config_hash=config_hash(cfg),
    )


# ------------------------------------------------------------------ train


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if args.dry_run:
        print(json.dumps(to_dict(cfg), sort_keys=True, indent=2))
        return EXIT_OK
    with OutputDir(out_dir_for(cfg)) as out:
        out.write_json("config.json", to_dict(cfg))
        task = make_task(
            cfg.run.task, cfg.run.num_envs, cfg.run.seed,
            task=cfg.task, phys=cfg.physics, dr=cfg.dr, reach=cfg.reach,
        )
        agent = build_agent_for(cfg)
        agent.dump_dir = out.path
        trainer = Trainer(
            task, agent, total_steps=cfg.run.total_steps, out_dir=out.path,
            checkpoint_interval=cfg.run.checkpoint_interval, seed=cfg.run.seed,
        )
        if args.resume:
            check_checkpoint(args.resume, agent, task)
            trainer.load_checkpoint(args.resume)
            print(f"resumed from {args.resume} at step {agent.global_step}")

        if args.benchmark:
            stats = run_benchmark(trainer)
            print(
                f"benchmark: {stats['num_envs']} envs x {stats['steps']} steps -> "
                f"{stats['env_steps_per_sec']:,.0f} env-steps/sec "
                f"(collection {stats['collect_env_steps_per_sec']:,.0f}, physics-only "
                f"{stats['physics_env_steps_per_sec']:,.0f})"
            )
            print("reference point, original GPU-resident system: >50,000 samples/sec")
            out.write_manifest(cfg, "train --benchmark", throughput=stats)
            return EXIT_OK

        records = trainer.train(stop_after_steps=cfg.run.stop_after_steps)
        final = records[-1] if records else (trainer.last_metrics or {})
        out.write_manifest(
            cfg, "train",
            final_metrics=final,
            throughput={"env_steps_per_sec": _mean_timing(out.file("timing.jsonl"))},
            checkpoints=sorted(
                f for f in os.listdir(out.path) if f.endswith(".tckpt")
            ),
        )
        if final:
            print(
                f"trained to step {agent.global_step}: "
                f"mean reward {final.get('mean_reward'):.4f}, "
                f"success rate {final.get('success_rate')}"
            )
        return EXIT_OK


def _mean_timing(path: str):
    if not os.path.exists(path):
        return None
    vals = [json.loads(line)["env_steps_per_sec"] for line in open(path)]
    return float(np.mean(vals)) if vals else None


def run_benchmark(trainer: Trainer, iterations: int = 3) -> dict:
    """Aggregate env-steps/sec of the full collection loop and physics alone."""
    task, agent = trainer.task, trainer.agent
    trainer.obs = task.reset_all()
    t0 = time.perf_counter()
    for _ in range(iterations):
        trainer.collect_rollout()
    collect_sec = time.perf_counter() - t0
    steps = iterations * trainer.horizon * task.num_envs

    phys_rate = None
    if hasattr(task, "pcfg"):
        from . import physics

        torques = np.zeros((task.num_envs, 9))
        state = task.state
        t0 = time.perf_counter()
        for _ in range(trainer.horizon * iterations):
            state = physics.step(state, torques, task.params, task.pcfg)
        phys_rate = steps / (time.perf_counter() - t0)

    # one update so the figure includes optimization cost
    t0 = time.perf_counter()
    batch, _ = trainer.collect_rollout()
    agent.update(batch, lr=1e-6)
    full_sec = time.perf_counter() - t0
    return {
        "num_envs": task.num_envs,
        "steps": steps,
        "collect_env_steps_per_sec": steps / collect_sec,
        "env_steps_per_sec": trainer.horizon * task.num_envs / full_sec,
        "physics_env_steps_per_sec": phys_rate,
    }


# ------------------------------------------------------------------ eval


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        if cfg.harness.eval_trials == 0:
            out.write_json(
                "eval_report.json", {"n_trials": 0, "trials": [], "config_hash": config_hash(cfg)}
            )
            out.write_manifest(cfg, "eval", report=None)
            print("eval: 0 trials requested, wrote empty report")
            return EXIT_OK
        report = evaluate_checkpoint(args.checkpoint, cfg)
        out.write_text("eval_report.json", report.to_json() + "\n")
        out.write_manifest(cfg, "eval", checkpoint=args.checkpoint,
                           checkpoint_hash=report.checkpoint_hash)
        print(
            f"eval: success {report.success_rate:.3f} "
            f"[{report.ci_lo:.3f}, {report.ci_hi:.3f}] over {report.n_trials} trials "
            f"(position {report.pos_success_rate:.3f}, orientation {report.rot_success_rate:.3f})"
        )
        return EXIT_OK


# ------------------------------------------------------------------ sweep


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        agent, ckpt_hash = load_agent_checkpoint(args.checkpoint, cfg)
        grid = json.loads(args.grid) if args.grid else list(
            getattr(cfg.harness, f"sweep_{args.parameter}_grid"))
        if not grid:
            raise ConfigError("sweep grid is empty")
        points = harness.robustness_sweep(agent, cfg, args.parameter, grid, ckpt_hash)
        out.write_jsonl(f"sweep_{args.parameter}.jsonl", (
            {"parameter": pt["parameter"], "value": pt["value"], "report": asdict(pt["report"])}
            for pt in points))
        out.write_manifest(cfg, "sweep", parameter=args.parameter, grid=grid,
                           checkpoint_hash=ckpt_hash)
        for pt in points:
            r = pt["report"]
            print(f"{args.parameter}={pt['value']:<6g} success {r.success_rate:.3f} "
                  f"[{r.ci_lo:.3f}, {r.ci_hi:.3f}]")
        return EXIT_OK


# ------------------------------------------------------------------ ablate


def cmd_ablate(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        results = harness.run_ablation(cfg)
        out.write_jsonl("ablation.jsonl", (
            {"variant": variant, "seed": seed, "error": arm.get("error"), "curve": arm["curve"],
             "report": asdict(arm["report"]) if arm["report"] else None}
            for variant, by_seed in results.items() for seed, arm in by_seed.items()))
        summary = {}
        for variant, by_seed in results.items():
            rates = [arm["report"].success_rate for arm in by_seed.values() if arm["report"]]
            summary[variant] = {"mean_success": float(np.mean(rates)) if rates else None,
                                "seeds": len(rates)}
        out.write_json("ablation_summary.json", summary)
        out.write_manifest(cfg, "ablate", summary=summary)
        for variant, row in summary.items():
            print(f"{variant}: mean success {row['mean_success']}")
        return EXIT_OK


# ------------------------------------------------------------------ heatmap


def cmd_heatmap(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        report = evaluate_checkpoint(args.checkpoint, cfg)
        ckpt_hash = report.checkpoint_hash
        pos_ths = list(cfg.harness.heatmap_pos_thresholds)
        rot_ths_deg = list(cfg.harness.heatmap_rot_thresholds_deg)
        matrix = harness.threshold_heatmap(
            report, pos_ths, [np.deg2rad(d) for d in rot_ths_deg]
        )
        data = {
            "pos_thresholds_m": pos_ths,
            "rot_thresholds_deg": rot_ths_deg,
            "success_matrix": matrix.tolist(),
            "n_trials": report.n_trials,
            "checkpoint_hash": ckpt_hash,
            "config_hash": report.config_hash,
            "eval_seed": cfg.harness.eval_seed,
        }
        out.write_json("threshold_heatmap.json", data)
        out.write_manifest(cfg, "heatmap", checkpoint_hash=ckpt_hash)
        print("success matrix (rows: position thresholds, cols: orientation):")
        for pt, row in zip(pos_ths, matrix):
            print(f"  {pt:>5g} m: " + "  ".join(f"{v:.3f}" for v in row))
        return EXIT_OK


# ------------------------------------------------------------------ objects


def cmd_objects(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        agent, ckpt_hash = load_agent_checkpoint(args.checkpoint, cfg)
        names = json.loads(args.objects) if args.objects else list(cfg.harness.transfer_objects)
        reports = harness.zero_shot_objects(agent, cfg, names, ckpt_hash)
        out.write_jsonl("objects.jsonl", (
            {"object": name, "report": asdict(rep)} for name, rep in reports.items()))
        out.write_manifest(cfg, "objects", checkpoint_hash=ckpt_hash)
        for name, rep in reports.items():
            print(f"{name:<22} success {rep.success_rate:.3f} [{rep.ci_lo:.3f}, {rep.ci_hi:.3f}]")
        return EXIT_OK


# ------------------------------------------------------------------ plot


def cmd_plot(args) -> int:
    cfg = resolve_config(args)
    with OutputDir(out_dir_for(cfg)) as out:
        wrote = []
        if args.metrics:
            series_steps, series_wall = [], []
            for path in args.metrics:
                if not os.path.exists(path):
                    raise ConfigError(f"metrics file not found: {path}")
                recs = [json.loads(line) for line in open(path)]
                recs = [r for r in recs if r.get("success_rate") is not None]
                if not recs:
                    raise ConfigError(f"{path}: no iterations with completed episodes")
                label = os.path.basename(os.path.dirname(path)) or path
                xs = [r["global_step"] for r in recs]
                ys = [r["success_rate"] for r in recs]
                series_steps.append((label, xs, ys))
                timing = os.path.join(os.path.dirname(path), "timing.jsonl")
                if os.path.exists(timing):
                    secs = {json.loads(l)["iteration"]: json.loads(l)["seconds"] for l in open(timing)}
                    cum, acc = {}, 0.0
                    for it in sorted(secs):
                        acc += secs[it]
                        cum[it] = acc
                    series_wall.append(
                        (label, [cum.get(r["iteration"], 0.0) for r in recs], ys)
                    )
            wrote.append(out.write_text(
                "success_vs_steps.svg",
                svgplot.line_chart(series_steps, title="training success",
                                   xlabel="env steps", ylabel="success rate"),
            ))
            if series_wall:
                wrote.append(out.write_text(
                    "success_vs_wallclock.svg",
                    svgplot.line_chart(series_wall, title="training success",
                                       xlabel="wallclock (s)", ylabel="success rate"),
                ))
        if args.sweep_file:
            if not os.path.exists(args.sweep_file):
                raise ConfigError(f"sweep file not found: {args.sweep_file}")
            pts = [json.loads(line) for line in open(args.sweep_file)]
            if not pts:
                raise ConfigError(f"{args.sweep_file}: empty sweep file")
            param = pts[0]["parameter"]
            xs = [p["value"] for p in pts]
            ys = [p["report"]["success_rate"] for p in pts]
            lo = [p["report"]["ci_lo"] for p in pts]
            hi = [p["report"]["ci_hi"] for p in pts]
            wrote.append(out.write_text(
                f"sweep_{param}.svg",
                svgplot.line_chart(
                    [(param, xs, ys, (lo, hi))],
                    title=f"robustness to object {param}",
                    xlabel=f"object {param} factor", ylabel="success rate",
                ),
            ))
        if args.heatmap_file:
            if not os.path.exists(args.heatmap_file):
                raise ConfigError(f"heatmap file not found: {args.heatmap_file}")
            data = json.load(open(args.heatmap_file))
            wrote.append(out.write_text(
                "threshold_heatmap.svg",
                svgplot.heatmap(
                    np.array(data["success_matrix"]),
                    x_labels=[f"{d:g}°" for d in data["rot_thresholds_deg"]],
                    y_labels=[f"{p:g} m" for p in data["pos_thresholds_m"]],
                    title="success vs thresholds",
                    xlabel="orientation threshold",
                    ylabel="position threshold",
                ),
            ))
        if not wrote:
            raise ConfigError("plot: nothing to do (pass --metrics, --sweep-file, or --heatmap-file)")
        out.write_manifest(cfg, "plot", figures=[os.path.basename(w) for w in wrote])
        for w in wrote:
            print(f"wrote {w}")
        return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tricube",
        description="Vectorized 3-finger cube-reposing: training, evaluation, and analysis",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--profile", default="paper", help="config profile (default: paper)")
        sp.add_argument("--config", help="JSON config file merged over the profile")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key, e.g. --set run.num_envs=256")
        sp.add_argument("--seed", type=int, help="override run.seed")
        sp.add_argument("--out", help="override run.output_dir")

    t = sub.add_parser("train", help="train a policy")
    common(t)
    t.add_argument("--dry-run", action="store_true", help="validate and print the resolved config")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.add_argument("--benchmark", action="store_true", help="measure env-steps/sec and exit")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    common(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--trials", type=int, help="number of evaluation episodes")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep", help="robustness sweep over object scale or mass")
    common(s)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--parameter", choices=["scale", "mass"], required=True)
    s.add_argument("--grid", help="JSON list of factors (default from config)")
    s.add_argument("--trials", type=int)
    s.set_defaults(fn=cmd_sweep)

    a = sub.add_parser("ablate", help="train and evaluate the 2x2 pose-encoding grid")
    common(a)
    a.set_defaults(fn=cmd_ablate)

    h = sub.add_parser("heatmap", help="success across threshold grids")
    common(h)
    h.add_argument("--checkpoint", required=True)
    h.add_argument("--trials", type=int)
    h.set_defaults(fn=cmd_heatmap)

    o = sub.add_parser("objects", help="zero-shot transfer to other object shapes")
    common(o)
    o.add_argument("--checkpoint", required=True)
    o.add_argument("--objects", help="JSON list of object names (default from config)")
    o.add_argument("--trials", type=int)
    o.set_defaults(fn=cmd_objects)

    pl = sub.add_parser("plot", help="render SVG figures from report files")
    common(pl)
    pl.add_argument("--metrics", nargs="*", help="metrics.jsonl files (training curves)")
    pl.add_argument("--sweep-file", help="sweep_*.jsonl from the sweep command")
    pl.add_argument("--heatmap-file", help="threshold_heatmap.json from the heatmap command")
    pl.set_defaults(fn=cmd_plot)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompatibilityError as err:
        print(f"incompatibility: {err}", file=sys.stderr)
        return EXIT_INCOMPAT
    except Exception as err:  # runtime faults get their own exit code
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
