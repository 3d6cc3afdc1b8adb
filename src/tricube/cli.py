"""Command-line entry point.

Subcommands: train, eval, sweep, ablate, heatmap, objects, plot.  ``main``
runs each one the same way: resolve the config (profile, optional JSON
config file, repeated ``--set section.key=value`` overrides); run the
command's check, which only reads, so a refused run writes nothing; take
the output directory and its lock file; run the command's body, which
writes only inside that directory; write exactly one ``manifest.json``.

Exit codes: 0 success, 2 configuration error, 3 runtime fault, 4
checkpoint/config incompatibility or an unreadable checkpoint.  A config
leaf outside its declared domain exits 2, naming its path, before anything
is written.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__, config as config_mod, harness, nets
from .config import ConfigError, EngineConfig, config_hash, run_identity, to_dict
from .ppo import read_checkpoint
from .trainer import LOGS, build_agent_for, build_trainer

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
        return self.write_text(name, json.dumps(data, sort_keys=True, indent=2) + "\n")

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
            "blas": nets.blas_build(),
        }
        manifest.update(extra)
        return self.write_json("manifest.json", manifest)


# flags that override one config key each, applied after every --set; the
# JSON flags pass their text as written
FLAG_KEYS = {"seed": "run.seed", "out": "run.output_dir", "trials": "harness.eval_trials",
             "grid": "harness.sweep_{parameter}_grid", "objects": "harness.transfer_objects"}
JSON_FLAGS = ("grid", "objects")


def resolve_config(args) -> EngineConfig:
    file_data = config_mod.load_file(args.config) if args.config else None
    set_exprs = list(args.set or []) + [
        f"{key.format_map(vars(args))}={value if flag in JSON_FLAGS else json.dumps(value)}"
        for flag, key in FLAG_KEYS.items() if (value := getattr(args, flag, None)) is not None
    ]
    return config_mod.resolve(args.profile, file_data, set_exprs)


def require_cube_task(cfg: EngineConfig) -> None:
    """The evaluation protocols run the cube task only."""
    if cfg.run.task != "cube_repose":
        raise ConfigError(f"run.task is {cfg.run.task!r}; the evaluation protocols need "
                          "'cube_repose'")


def resume_keys(key: str) -> bool:
    """The config keys a resume must share with its checkpoint: all but where
    the artifacts land, when the run stops, how often it checkpoints and the
    evaluation protocols.  ``run.total_steps`` stays: it sets the lr
    schedule."""
    return not _under(key, ("run.output_dir", "run.stop_after_steps",
                            "run.checkpoint_interval", "harness"))


def agent_keys(key: str) -> bool:
    """The config keys that define the agent a checkpoint command loads, so
    sweeps over physics and task stay legal."""
    return _under(key, ("run.task", "task.obs_variant", "ppo"))


def _under(key: str, prefixes) -> bool:
    return any(key == p or key.startswith(p + ".") for p in prefixes)


def _leaves(tree: dict, prefix: str = "") -> dict:
    """``{"a": {"b": 1}}`` -> ``{"a.b": 1}``."""
    out = {}
    for k, v in tree.items():
        if isinstance(v, dict):
            out.update(_leaves(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


def output_path(cfg: EngineConfig) -> str:
    """The run's output directory: a relative ``run.output_dir`` lands under
    ``TRICUBE_OUT``, an absolute one stays."""
    return os.path.join(os.environ.get("TRICUBE_OUT", "."), cfg.run.output_dir)


def check_checkpoint(path: str, cfg: EngineConfig, keys, name: str, build) -> dict:
    """The one read of a command's checkpoint: ``checkpoint``, its
    ``checkpoint_hash``, its manifest as ``meta``, and under ``name`` what
    ``build(tensors, meta)`` built.  ``path`` must be a readable checkpoint
    whose stored config equals ``run_identity(cfg)`` on every key ``keys``
    selects and whose tensors ``build`` takes without a ``ValueError``.  A
    missing file is a configuration error, anything else an incompatibility."""
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        tensors, meta = read_checkpoint(path)
    except ValueError as err:
        raise IncompatibilityError(str(err)) from err
    if not isinstance(meta.get("config"), dict):
        raise IncompatibilityError(f"{path} records no config (not written by tricube train)")
    stored, configured = _leaves(meta["config"]), _leaves(run_identity(cfg))
    diffs = [
        f"{k} {json.dumps(stored.get(k))} (configured {json.dumps(configured.get(k))})"
        for k in sorted(stored.keys() | configured.keys())
        if keys(k) and (k not in stored or k not in configured or stored[k] != configured[k])
    ]
    if diffs:
        raise IncompatibilityError(f"{path} does not fit the configuration: " + ", ".join(diffs))
    try:
        built = build(tensors, meta)
    except ValueError as err:
        raise IncompatibilityError(f"{path}: {err}") from err
    return {name: built, "checkpoint": path, "checkpoint_hash": harness.hash_file(path),
            "meta": meta}


# ------------------------------------------------------------------ checks
# A check reads the command's inputs before its output directory exists and
# returns what the command's body needs; a checkpoint it read goes under
# these keys, which the manifest records.

READ_KEYS = ("checkpoint", "checkpoint_hash")


def check_train(args, cfg: EngineConfig) -> dict:
    """The run's trainer.  A resume builds it from its checkpoint, which
    must fit the config on every resume key; nothing is drawn."""
    out = output_path(cfg)
    if not args.resume:
        return {"trainer": build_trainer(cfg, out)}
    return check_checkpoint(args.resume, cfg, resume_keys, "trainer",
                            lambda tensors, meta: build_trainer(cfg, out, (tensors, meta)))


def check_cube_task(args, cfg: EngineConfig) -> dict:
    require_cube_task(cfg)
    return {}


def read_agent(args, cfg: EngineConfig) -> dict:
    """The checkpoint command's agent, built from its checkpoint's tensors
    (it draws no parameters)."""
    require_cube_task(cfg)
    return check_checkpoint(args.checkpoint, cfg, agent_keys, "agent",
                            lambda tensors, meta: build_agent_for(cfg, tensors))


def evaluate_agent(cfg: EngineConfig, read: dict) -> harness.EvalReport:
    """``harness.evaluate`` of the checkpoint's agent on ``cfg``'s task and physics."""
    return harness.evaluate(
        read["agent"], cfg.harness.eval_trials, cfg.harness.eval_seed, task=cfg.task,
        phys=cfg.physics, checkpoint_hash=read["checkpoint_hash"], config_hash=config_hash(cfg),
    )


# ------------------------------------------------------------------ train
# Each command body takes (args, cfg, out, read), writes only through
# ``out`` and returns the command's own manifest entries.


def cmd_train(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    # the logs are checked under the directory's lock, where no other run
    # writes them; a directory that holds a run existed before this one
    same_dir = bool(args.resume) and os.path.samefile(
        os.path.dirname(os.path.abspath(args.resume)), out.path)
    if not same_dir and any(os.path.getsize(p) for p in map(out.file, LOGS)
                            if os.path.exists(p)):
        raise ConfigError(f"{out.path} already holds a run: resume it from one of its "
                          "checkpoints or train into another directory")
    trainer = read["trainer"]
    if args.resume:
        if same_dir:
            try:
                trainer.truncate_logs(read["meta"].get("log_lines"))
            except ValueError as err:
                raise IncompatibilityError(str(err)) from err
        print(f"resumed from {args.resume} at step {trainer.agent.global_step}")
    out.write_json("config.json", to_dict(cfg))

    records = trainer.train(stop_after_steps=cfg.run.stop_after_steps)
    final = records[-1] if records else {}
    if final:
        print(
            f"trained to step {trainer.agent.global_step}: "
            f"mean reward {final.get('mean_reward'):.4f}, "
            f"success rate {final.get('success_rate')}"
        )
    return {
        "final_metrics": final,
        "throughput": _mean_timing(out.file("timing.jsonl")),
        "checkpoints": sorted(f for f in os.listdir(out.path) if f.endswith(".tckpt")),
    }


TIMING_KEYS = ("env_steps_per_sec", "collect_seconds", "update_seconds")


def _mean_timing(path: str) -> dict:
    """The mean of each of ``TIMING_KEYS`` over the ``timing.jsonl``
    records that hold it (a resumed run's older records may lack the phase
    keys), or None where none does."""
    records = []
    if os.path.exists(path):
        with open(path) as f:
            records = [json.loads(line) for line in f]
    means = {}
    for key in TIMING_KEYS:
        vals = [r[key] for r in records if key in r]
        means[key] = float(np.mean(vals)) if vals else None
    return means


# ------------------------------------------------------------------ eval


def cmd_eval(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    report = evaluate_agent(cfg, read)
    out.write_text("eval_report.json", report.to_json() + "\n")
    print(
        f"eval: success {report.success_rate:.3f} "
        f"[{report.ci_lo:.3f}, {report.ci_hi:.3f}] over {report.n_trials} trials "
        f"(position {report.pos_success_rate:.3f}, orientation {report.rot_success_rate:.3f})"
    )
    return {}


# ------------------------------------------------------------------ sweep


def cmd_sweep(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    grid = list(getattr(cfg.harness, f"sweep_{args.parameter}_grid"))
    points = harness.robustness_sweep(read["agent"], cfg, args.parameter, grid,
                                      read["checkpoint_hash"])
    out.write_jsonl(f"sweep_{args.parameter}.jsonl", (
        {"parameter": pt["parameter"], "value": pt["value"], "report": asdict(pt["report"])}
        for pt in points))
    for pt in points:
        r = pt["report"]
        print(f"{args.parameter}={pt['value']:<6g} success {r.success_rate:.3f} "
              f"[{r.ci_lo:.3f}, {r.ci_hi:.3f}]")
    return {"parameter": args.parameter, "grid": grid}


# ------------------------------------------------------------------ ablate


def cmd_ablate(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
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
    for variant, row in summary.items():
        print(f"{variant}: mean success {row['mean_success']}")
    return {"summary": summary}


# ------------------------------------------------------------------ heatmap


def cmd_heatmap(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    report = evaluate_agent(cfg, read)
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
        "checkpoint_hash": report.checkpoint_hash,
        "config_hash": report.config_hash,
        "eval_seed": cfg.harness.eval_seed,
    }
    out.write_json("threshold_heatmap.json", data)
    print("success matrix (rows: position thresholds, cols: orientation):")
    for pt, row in zip(pos_ths, matrix):
        print(f"  {pt:>5g} m: " + "  ".join(f"{v:.3f}" for v in row))
    return {}


# ------------------------------------------------------------------ objects


def cmd_objects(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    reports = harness.zero_shot_objects(read["agent"], cfg, list(cfg.harness.transfer_objects),
                                        read["checkpoint_hash"])
    out.write_jsonl("objects.jsonl", (
        {"object": name, "report": asdict(rep)} for name, rep in reports.items()))
    for name, rep in reports.items():
        print(f"{name:<22} success {rep.success_rate:.3f} [{rep.ci_lo:.3f}, {rep.ci_hi:.3f}]")
    return {}


# ------------------------------------------------------------------ plot


def read_json(path: str, what: str, lines: bool = False):
    """The JSON value in file ``path``, or with ``lines`` the list of the
    values on its lines.  A missing file, or text that is not JSON, is a
    configuration error naming the file and the line."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    with open(path, "rb") as f:
        chunks = f.read().splitlines() if lines else [f.read()]
    values = []
    for i, chunk in enumerate(chunks, 1):
        try:
            values.append(json.loads(chunk))
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}, line {i if lines else err.lineno}: invalid JSON "
                              f"({err.msg})") from err
        except UnicodeDecodeError as err:
            line = i + chunk[:err.start].count(b"\n")
            raise ConfigError(f"{path}, line {line}: undecodable text ({err.reason})") from err
    return values if lines else values[0]


@contextlib.contextmanager
def json_shape(path: str, what: str):
    """Run the body that reads file ``path``'s JSON; a value of the wrong
    shape (a missing key, a list for an object, a string for a number) is a
    configuration error naming the file."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as err:
        raise ConfigError(f"{path}: not a {what} ({type(err).__name__}: {err})") from err


def json_numbers(values) -> list:
    """``values``, each a finite JSON number; else a ``ValueError`` (inside
    ``json_shape``, a configuration error naming the file)."""
    values = list(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{v!r} is not a number")
    return values


def plot_figures(args, cfg: EngineConfig) -> dict:
    """The figures to draw, by file name, from the input files on the
    command line; a missing or empty input, or one of the wrong shape, is a
    configuration error.  Each input is read and checked inside its own
    ``json_shape``; the figures are drawn outside it, so a fault in
    ``svgplot`` stays an internal error."""
    from . import svgplot  # imported here: only the figures need it

    figures = {}
    if args.metrics:
        series_steps, series_wall = [], []
        for metrics in args.metrics:
            with json_shape(metrics, "metrics file"):
                recs = read_json(metrics, "metrics file", lines=True)
                recs = [r for r in recs if r.get("success_rate") is not None]
                if not recs:
                    raise ConfigError(f"{metrics}: no iterations with completed episodes")
                label = os.path.basename(os.path.dirname(metrics)) or metrics
                xs = json_numbers(r["global_step"] for r in recs)
                ys = json_numbers(r["success_rate"] for r in recs)
                series_steps.append((label, xs, ys))
                timing = os.path.join(os.path.dirname(metrics), "timing.jsonl")
                if os.path.exists(timing):
                    with json_shape(timing, "timing file"):
                        secs = {r["iteration"]: json_numbers([r["seconds"]])[0]
                                for r in read_json(timing, "timing file", lines=True)}
                        cum, acc = {}, 0.0
                        for it in sorted(secs):
                            acc += secs[it]
                            cum[it] = acc
                    series_wall.append(
                        (label, [cum.get(r["iteration"], 0.0) for r in recs], ys)
                    )
        figures["success_vs_steps.svg"] = svgplot.line_chart(
            series_steps, title="training success", xlabel="env steps", ylabel="success rate")
        if series_wall:
            figures["success_vs_wallclock.svg"] = svgplot.line_chart(
                series_wall, title="training success", xlabel="wallclock (s)",
                ylabel="success rate")
    if args.sweep_file:
        with json_shape(args.sweep_file, "sweep file"):
            pts = read_json(args.sweep_file, "sweep file", lines=True)
            if not pts:
                raise ConfigError(f"{args.sweep_file}: empty sweep file")
            param = pts[0]["parameter"]
            if not isinstance(param, str):
                raise TypeError(f"parameter {param!r} is not a string")
            xs = json_numbers(p["value"] for p in pts)
            ys = json_numbers(p["report"]["success_rate"] for p in pts)
            lo = json_numbers(p["report"]["ci_lo"] for p in pts)
            hi = json_numbers(p["report"]["ci_hi"] for p in pts)
        figures[f"sweep_{param}.svg"] = svgplot.line_chart(
            [(param, xs, ys, (lo, hi))],
            title=f"robustness to object {param}",
            xlabel=f"object {param} factor", ylabel="success rate",
        )
    if args.heatmap_file:
        with json_shape(args.heatmap_file, "heatmap file"):
            data = read_json(args.heatmap_file, "heatmap file")
            rot = json_numbers(data["rot_thresholds_deg"])
            pos = json_numbers(data["pos_thresholds_m"])
            matrix = [json_numbers(row) for row in data["success_matrix"]]
            if not (rot and pos) or [len(row) for row in matrix] != [len(rot)] * len(pos):
                raise ValueError(f"success_matrix is not {len(pos)} x {len(rot)} "
                                 "(pos_thresholds_m x rot_thresholds_deg)")
        figures["threshold_heatmap.svg"] = svgplot.heatmap(
            np.array(matrix),
            x_labels=[f"{d:g}°" for d in rot],
            y_labels=[f"{p:g} m" for p in pos],
            title="success vs thresholds",
            xlabel="orientation threshold",
            ylabel="position threshold",
        )
    if not figures:
        raise ConfigError("plot: nothing to do (pass --metrics, --sweep-file, or --heatmap-file)")
    return {"figures": figures}


def cmd_plot(args, cfg: EngineConfig, out: OutputDir, read: dict) -> dict:
    for name, svg in read["figures"].items():
        print(f"wrote {out.write_text(name, svg)}")
    return {"figures": list(read["figures"])}


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported here: nothing else in the package needs it

    p = argparse.ArgumentParser(
        prog="tricube",
        description="Vectorized 3-finger cube-reposing: training, evaluation, and analysis",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, check, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--profile", default="paper", help="config profile (default: paper)")
        sp.add_argument("--config", help="JSON config file merged over the profile")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key, e.g. --set run.num_envs=256")
        sp.add_argument("--seed", type=int, help="override run.seed")
        sp.add_argument("--out", help="override run.output_dir")
        sp.set_defaults(fn=fn, check=check)
        if check is read_agent:  # the checkpoint commands
            sp.add_argument("--checkpoint", required=True)
            sp.add_argument("--trials", type=int, help="number of evaluation episodes")
        return sp

    t = command("train", cmd_train, check_train, "train a policy")
    t.add_argument("--dry-run", action="store_true", help="validate and print the resolved config")
    t.add_argument("--resume", help="checkpoint to resume from")

    command("eval", cmd_eval, read_agent, "evaluate a checkpoint")

    s = command("sweep", cmd_sweep, read_agent, "robustness sweep over object scale or mass")
    s.add_argument("--parameter", choices=["scale", "mass"], required=True)
    s.add_argument("--grid", help="JSON list of factors; overrides harness.sweep_<parameter>_grid")

    command("ablate", cmd_ablate, check_cube_task, "train and evaluate the 2x2 pose-encoding grid")

    command("heatmap", cmd_heatmap, read_agent, "success across threshold grids")

    o = command("objects", cmd_objects, read_agent, "zero-shot transfer to other object shapes")
    o.add_argument("--objects", help="JSON list of object names; overrides harness.transfer_objects")

    pl = command("plot", cmd_plot, plot_figures, "render SVG figures from report files")
    pl.add_argument("--metrics", nargs="*", help="metrics.jsonl files (training curves)")
    pl.add_argument("--sweep-file", help="sweep_*.jsonl from the sweep command")
    pl.add_argument("--heatmap-file", help="threshold_heatmap.json from the heatmap command")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if getattr(args, "dry_run", False):
            print(json.dumps(to_dict(cfg), sort_keys=True, indent=2))
            return EXIT_OK
        read = args.check(args, cfg)
        with OutputDir(output_path(cfg)) as out:
            extra = args.fn(args, cfg, out, read)
            out.write_manifest(cfg, args.command, **extra,
                               **{k: read[k] for k in READ_KEYS if k in read})
        return EXIT_OK
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
