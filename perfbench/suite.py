"""Run every workload over several seeds, each run in a fresh process.

    python3 perfbench/suite.py --seeds 0-9 --trace-seed 0 --out .perfbench_out/suite.json

Each run is ``BENCHMARK.json``'s command with ``--workload``, ``--seed``,
``--seconds`` and ``--trace``, over every workload and for ``run_seconds``
as ``BENCHMARK.json`` gives them.  The suite prints every end-to-end metric by
name and unit with its median, quartiles and spread (quartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives them) next to
the metric's bound, and the tracing overhead: untraced minus traced
``env_steps_per_s`` on the trace seed.  All results, with the conditions
each run printed, go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``0-9`` or ``0,3,7`` (or a mix) -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_one(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python3", "python"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["lines"] = lines[:-1]  # the human-readable report, per-layer table included
    for line in lines:
        if line.startswith("conditions: "):
            out["conditions"] = json.loads(line[len("conditions: "):])
        elif line.startswith("digest = "):
            out["digest"] = line.split()[2]
        elif "(wall clock " in line:  # the unscaled value of a metric
            out.setdefault("wall_clock", {})[line.split()[0]] = float(
                line.split("(wall clock ")[1].split(")")[0])
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,7")
    ap.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    ap.add_argument("--out", default=".perfbench_out/suite.json")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in seeds:  # seed-major, so slow spells of the machine hit every workload
        for w in runs:
            r = run_one(bench["command"], w, seed, seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)

    summary, traced = {}, {}
    ok = True
    for w, rs in runs.items():
        summary[w] = {}
        print(f"\n{w}: {len(rs)} runs, failed_frac "
              f"{sum(r['failed'] for r in rs) / max(sum(r['attempted'] for r in rs), 1):.3g}, "
              f"digests {sorted({r.get('digest') for r in rs})}")
        print(f"  {'metric':<18}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
              f"{'wall-clock median':>19}{'spread':>9}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            med, q1, q3, sp = spread(vals) if len(vals) > 1 else (vals[0], vals[0], vals[0], 0.0)
            steady = sp <= m["bound"] / 3
            ok &= steady
            wall = [r["wall_clock"][m["name"]] for r in rs]
            wmed, _, _, wsp = spread(wall) if len(wall) > 1 else (wall[0], 0, 0, 0.0)
            summary[w][m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                     "spread": sp, "bound": m["bound"], "values": vals,
                                     "wall_clock_median": wmed, "wall_clock_spread": wsp}
            print(f"  {m['name']:<18}{m['unit']:>6}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}"
                  f"{sp:>9.3f}{m['bound']:>8.2f}{wmed:>19.5g}{wsp:>9.3f}"
                  f"{'' if steady else '  > bound/3'}")
        if args.trace_seed is not None:
            t = run_one(bench["command"], w, args.trace_seed, seconds, 1)
            base = next((r for s, r in zip(seeds, rs) if s == args.trace_seed), None)
            traced_rate = t["metrics"]["trace.env_steps_per_s"]["value"]
            if base is not None:
                plain = base["metrics"]["env_steps_per_s"]["value"]
                t["overhead_env_steps_per_s"] = plain - traced_rate
                print(f"  tracing overhead: {plain:.5g} - {traced_rate:.5g} = "
                      f"{plain - traced_rate:.4g} env-steps/s ({100 * (plain - traced_rate) / plain:.2f}%)")
            traced[w] = t

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "seconds": seconds, "summary": summary,
                               "runs": runs, "traced": traced}, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}; every spread below a third of its bound: {ok}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
