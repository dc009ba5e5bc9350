"""Benchmark of the degen-blowup CLI: one workload, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is one process, closed loop, one client.  An op is the
workload's CLI command sequence run through ``degen_blowup.cli.main`` in
a child process, on config files generated from the seed (see
workloads.py); every op's outputs are checked against the committed
references (see checks.py) and then deleted.

``--trace 0`` reports the end-to-end metrics.  Set-up is measured by
starting the child SETUP_REPEATS times and taking the median time to
``ready``; the middle child runs ops for ``--seconds`` seconds, so the
set-up samples fall both before and after the op loop.
``--trace 1`` alternates traced and untraced ops and reports the
per-layer metrics of tracing.py instead.

Human-readable lines come first on stdout, including the shares of
failed and of nonconverged (exit code 2) ops; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
whole record, with the environment, is also written to
``.bench_out/<workload>-seed<N>-trace<T>.json`` and the traced run's spans
to ``.bench_out/<workload>-seed<N>-spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, op_sequence, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "degen_blowup"
SETUP_REPEATS = 5
# Every op of a run draws its variant from this many seeded choices.
SEQUENCE_LENGTH = 1000
# A run must end within 180 s; the op in flight at the deadline may still take this long.
CHILD_TIMEOUT_S = 170.0
PROBE_LOOPS = 2_000_000
MACHINE_NOTE = (
    "CPU frequency and core placement cannot be pinned in this environment; "
    "other processes may share the cores, so compare runs by ratios and medians"
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_probe() -> dict[str, float]:
    """A fixed pure-Python loop: reported next to the results, never used to scale them."""
    wall, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return {"host_probe_s": time.perf_counter() - wall, "host_probe_cpu_s": time.process_time() - cpu}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "setup_repeats": SETUP_REPEATS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": MACHINE_NOTE,
    }


def _stop(child: subprocess.Popen) -> None:
    if child.poll() is None:
        child.kill()
    child.wait()


def run_children(plan_path: Path, result_path: Path) -> tuple[list[float], dict]:
    """Start the worker SETUP_REPEATS times; the middle one runs the ops."""
    setups = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline().strip()
            setups.append(time.perf_counter() - start)
            if line != "ready":
                raise RuntimeError(f"worker did not get ready (exit code {child.wait()})")
            child.stdin.write("run\n" if k == SETUP_REPEATS // 2 else "exit\n")
            child.stdin.close()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(child)
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
    return setups, json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least ten samples beyond it."""
    pct = int(100 * (1 - 10 / len(values))) if values else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(ops: list[dict], setups: list[float]) -> dict[str, dict]:
    times = [op["seconds"] for op in ops]
    done = sum(not op["failed"] for op in ops)
    return {
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "ops_per_s": {"value": done / sum(times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        # A user runs one command per process: the first op's peak is theirs.
        # Later ops inherit the heap the earlier ones left (it made the whole-run
        # peak of solve-fine read 127 or 147 MB depending on the seed).
        "peak_rss_mb": {"value": ops[0]["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    args = _args(argv)
    # On SIGTERM unwind through the finally blocks, which stop the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "cli.py").is_file():
        print(f"benchmark: no package sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir.mkdir(exist_ok=True)
    try:
        sequence = op_sequence(workload, args.seed, SEQUENCE_LENGTH)
        configs = {
            v: {f: str(p) for f, p in write_configs(workload, v, work / "configs" / v).items()}
            for v in sorted(set(sequence))
        }
        plan_path = work / "plan.json"
        plan = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "sequence": sequence,
            "configs": configs,
            "work": str(work / "ops"),
            "result": str(work / "result.json"),
            "spans": str(out_dir / f"{args.workload}-seed{args.seed}-spans.json"),
        }
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = environment(args)
        env.update(host_probe())
        setups, result = run_children(plan_path, Path(plan["result"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    main_ops = [op for op in ops if "solo" not in op]
    attempted, failed = len(ops), sum(op["failed"] for op in ops)
    untraced = [op["seconds"] for op in main_ops if not op["traced"]]
    traced = [op["seconds"] for op in main_ops if op["traced"]]
    q1, _, q3 = quartiles(untraced)
    summary = {
        "op_s_p25": (q1, "s"),
        "op_s_p75": (q3, "s"),
        "op_samples": (len(untraced), "count"),
        "failed_frac": (failed / attempted, "ratio"),
        "nonconverged_frac": (sum(op["nonconverged"] for op in main_ops) / len(main_ops), "ratio"),
        "output_bytes": (sum(op["output_bytes"] for op in ops), "bytes"),
    }
    tail = _tail(untraced)
    if tail:
        summary[f"op_s_p{tail[0]}"] = (tail[1], "s")
    if args.trace:
        summary["traced_op_s_mean"] = (statistics.mean(traced), "s")
        metrics = result["layers"]
        env["absent_wraps"] = result["absent"]
    else:
        summary["setup_s_all"] = (setups, "s")
        summary["peak_rss_mb_run"] = (result["peak_rss_mb"], "MB")
        metrics = end_to_end(main_ops, setups)
    summary = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    record = {"environment": env, "summary": summary, "metrics": metrics, "ops": ops}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, {failed} failed")
    for name, m in {**metrics, **summary}.items():
        value = m["value"]
        shown = ", ".join(f"{v:.4g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name} = {shown} {m['unit']}")
    for op in ops:
        if op["failed"]:
            print(f"  FAILED op ({op['variant']}): {'; '.join(op['problems'])}")
    print(f"  environment: {json.dumps(env)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
