"""Run every workload over several seeds and print each metric's median and spread.

Usage, from the root of a checkout:

    python3 bench/report.py [--seeds 1,2,3] [--seconds 20] [--trace 0|1] [--workload NAME ...]

Each (workload, seed) is one ``run.py`` run.  For every metric the table
gives the median over seeds, the quartiles, and the spread: the distance
between the first and third quartile as a share of the median.  With
``--trace 0`` an end-to-end metric is marked steady when its spread is
below a third of its bound in BENCHMARK.json.  The shares of failed and of
nonconverged ops are printed for each workload.  Exits 1 if a run fails
or any op's output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in declared["workloads"]])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            record = json.loads(
                (ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text(encoding="utf-8")
            )
            for name in ("failed_frac", "nonconverged_frac"):
                result["metrics"][name] = record["summary"][name]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(seeds)} seeds, {args.seconds} s each, trace {args.trace}")
        for name, vals in values.items():
            med, q1, q3, spread = _spread(vals)
            line = f"  {name:40s} {med:12.6g} {units[name]:6s} (p25 {q1:.6g}, p75 {q3:.6g}) spread {spread:.4f}"
            if name in bounds:
                steady = spread < bounds[name] / 3
                line += f" bound {bounds[name]} {'steady' if steady else 'NOT steady'}"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
