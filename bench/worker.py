"""Child process of the benchmark: set up, report ready, run the op loop.

Usage (started by run.py): python3 bench/worker.py PLAN.json

Set-up is the numpy and package imports plus reading the generated
configs and their references.  When done the worker prints ``ready`` and
waits for one line on stdin: ``run`` starts the closed loop (one client,
each op begins after the previous one and its check end), anything else
exits.  Results go to the file the plan names.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_cli():
    """The package's CLI module, from this checkout's sources only."""
    if not (SRC / "degen_blowup" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no package sources at {SRC / 'degen_blowup'}")
    sys.path.insert(0, str(SRC))
    from degen_blowup import cli

    if Path(cli.__file__).resolve().parent != SRC / "degen_blowup":
        raise SystemExit(f"benchmark: imported {cli.__file__}, not the checkout's package")
    return cli


def run_commands(cli, commands, paths: dict[str, Path], out: Path) -> tuple[list[int], str | None]:
    """Run one op's CLI commands in-process; returns exit codes and any error."""
    codes = []
    try:
        for command, config in commands:
            codes.append(cli.main([command, "--config", str(paths[config]), "--out", str(out), "--quiet"]))
    except SystemExit as exc:
        return codes, f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - the loop records the failure and goes on
        return codes, f"{type(exc).__name__}: {exc}"
    return codes, None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_and_check(cli, commands, paths, out: Path, kind: str, reference: dict, trace=None, op_id=0) -> dict:
    """One op: run, time, check the outputs, then delete them."""
    shutil.rmtree(out, ignore_errors=True)

    def run():
        return run_commands(cli, commands, paths, out)

    start = time.perf_counter()
    codes, error = trace.trace_op(op_id, run) if trace else run()
    seconds = time.perf_counter() - start
    rss_mb = _peak_rss_mb()  # before the check, which allocates too
    problems = [error] if error else checks.check(kind, out, reference)
    problems += [f"exit code {c}" for c in codes if c in (1, 3)]
    record = {
        "seconds": seconds,
        "peak_rss_mb": rss_mb,
        "codes": codes,
        "failed": bool(problems),
        "nonconverged": 2 in codes,
        "problems": problems[:5],
        "output_bytes": _tree_bytes(out) if out.exists() else 0,
    }
    shutil.rmtree(out, ignore_errors=True)
    return record


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    cli = import_cli()
    workload = WORKLOADS[plan["workload"]]
    configs = {v: {f: Path(p) for f, p in files.items()} for v, files in plan["configs"].items()}
    for files in configs.values():
        for path in files.values():
            path.read_text(encoding="utf-8")
    refs = {v: checks.load_ref(workload.name, v) for v in configs}
    print("ready", flush=True)
    sys.stdout = sys.stderr  # the parent reads one line only; stray output must not fill the pipe
    if sys.stdin.readline().strip() != "run":
        return 0

    work = Path(plan["work"])
    trace = tracing.Tracer() if plan["trace"] else None
    ops = []
    solo = {m: [] for m in workload.solo} if trace else {}
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < plan["seconds"] or (trace and len(ops) < 2):
        i = len(ops)
        variant = plan["sequence"][i % len(plan["sequence"])]
        traced = trace is not None and i % 2 == 0
        record = run_and_check(
            cli, workload.commands, configs[variant], work / f"op-{i}", workload.name,
            refs[variant], trace if traced else None, i,
        )
        ops.append({"variant": variant, "traced": traced, **record})
        if solo and not traced:
            # each sweep member on its own, for the sweep's speed-up
            for member in workload.solo:
                rec = run_and_check(
                    cli, (("rate", member),), configs[variant], work / f"solo-{i}", "rate",
                    refs[variant][member.removesuffix(".cfg")],
                )
                solo[member].append(rec["seconds"])
                ops.append({"variant": variant, "traced": False, "solo": member, **rec})

    result = {"ops": ops, "peak_rss_mb": _peak_rss_mb()}
    if trace:
        main_ops = [op for op in ops if "solo" not in op]
        result["layers"] = tracing.layer_metrics(
            trace,
            [op["output_bytes"] for op in main_ops if op["traced"]],
            [op["seconds"] for op in main_ops if not op["traced"]],
            [op["seconds"] for op in main_ops if op["traced"]],
            solo,
        )
        result["absent"] = trace.absent
        Path(plan["spans"]).write_text(json.dumps(trace.to_json()), encoding="utf-8")
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
