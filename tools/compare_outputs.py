"""Run the CLI on two source trees and compare everything it prints and writes.

Usage:

    python tools/compare_outputs.py PARENT CHANGE [--tiny]

PARENT and CHANGE are checkouts, directories that hold src/degen_blowup.
The cases are every command of every variant of the benchmark's workloads,
the tiny size included, each command's all-default config (run.command
alone), and REFUSALS: one config per kind of refusal that names its config
keys, whose exit code and stderr are then compared like any output.  The
workload configs come from bench/workloads.py of the checkout this script
lives in, which is imported without writing bytecode.  --tiny runs only the
workloads' tiny size, in a few seconds.

Each command runs as ``python -m degen_blowup.cli`` in a process of its own
per tree, the two trees side by side, with PYTHONPATH=<tree>/src,
PYTHONDONTWRITEBYTECODE=1 and an XDG_CACHE_HOME of the tree's own: two
trees whose _kernels.c differ would otherwise remove each other's kernel
build (kernels._remove_stale) on every start.  Exit codes, stdout, stderr
(with each tree's path written as <tree>) and every output file are compared
byte for byte; a text difference prints as the first hunk of a unified
diff.  Exits 1 on any difference and 0 when there is none.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("solve", "rate", "verify-subsuper", "exhaust", "b2", "sweep")
_CONTEXT = 3  # lines before the first difference
_SHOWN = 30  # lines compared from the first difference on

# (label, command, the keys set after run.command) of configs the CLI refuses
# with exit code 1, naming the keys each refusal's check read
REFUSALS = (
    ("A", "verify-subsuper", "problem.A = -1"),
    ("C-past-samples", "verify-subsuper", "verify.C = -1e10"),
    ("C_list", "verify-subsuper", "verify.C_list = -1,-1e20"),
    ("exhaust-C", "exhaust", "problem.C = -1e20"),
    ("gamma-alpha", "solve", "problem.gamma = -1"),
    ("alpha-N", "rate", "problem.N = 2\nproblem.alpha = 1.5\nproblem.gamma = 1.5"),
    ("eta-R", "solve", "grid.eta = 2"),
    ("R", "solve", "problem.R = -1"),
    ("eta-rounds-to-R", "solve", "grid.eta = 1e-17"),
    ("tol", "solve", "solver.tol = 0"),
    ("window-order", "rate", "rate.d_min = 0.5\nrate.d_max = 0.1"),
    ("envelope-overflow", "solve", "problem.p = 1.02\nproblem.A = 1e250"),
    ("slab-overflow", "exhaust", "problem.A = 1e120"),
    ("n0", "exhaust", "exhaust.n0 = 2"),
    ("n_max", "exhaust", "exhaust.n0 = 8\nexhaust.n_max = 4"),
    ("n_max-rounds-to-R", "exhaust", "exhaust.n_max = 1152921504606846976"),
    ("exhaust-tol", "exhaust", "exhaust.tol = 0"),
    ("b2-alpha", "b2", "b2.family = power\nb2.alpha = -2"),
    ("quad_nodes", "b2", "b2.quad_nodes = 8"),
    ("margin-default", "b2", "b2.R = 0.1"),
)


def load_workloads():
    """bench/workloads.py of this checkout, imported without writing a __pycache__ there."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def cases(configs: Path, tiny: bool) -> list[tuple[str, str, Path]]:
    """(label, command, config path) of every case, configs written under ``configs``."""
    workloads = load_workloads()
    found = []
    for workload in workloads.WORKLOADS.values():
        for variant in [workloads.TINY] if tiny else workloads.variant_names(workload):
            paths = workloads.write_configs(workload, variant, configs / workload.name / variant)
            for command, config in workload.commands:
                found.append((f"{workload.name}/{variant}/{command}", command, paths[config]))
    if not tiny:
        own = [(f"default/{command}", command, "") for command in COMMANDS]
        own += [(f"refused/{label}", command, body + "\n") for label, command, body in REFUSALS]
        for label, command, keys in own:
            path = configs / f"{label}.cfg"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f"run.command = {command}\n{keys}", encoding="utf-8")
            found.append((label, command, path))
    return found


def start(tree: Path, work: Path, command: str, config: Path, out: str) -> subprocess.Popen:
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "XDG_CACHE_HOME": str(work / "cache"),
    }
    args = [sys.executable, "-m", "degen_blowup.cli", command, "--config", str(config), "--out", out]
    return subprocess.Popen(args, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def first_hunk(a: list[str], b: list[str], name: str) -> list[str]:
    """The first hunk of a unified diff of a and b, with its line numbers
    counted from the top of the file; only a window from a few lines before
    their first difference is compared, so that long files cost little."""
    first = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo, hi = max(first - _CONTEXT, 0), first + _SHOWN
    diff = list(difflib.unified_diff(a[lo:hi], b[lo:hi], f"PARENT/{name}", f"CHANGE/{name}", lineterm=""))
    if not diff:
        return [f"{name} differs only in its line ends"]
    hunks = [k for k, line in enumerate(diff) if line.startswith("@@")]
    diff[hunks[0]] = re.sub(r"([-+])(\d+)", lambda m: f"{m[1]}{int(m[2]) + lo}", diff[hunks[0]])
    if len(hunks) > 1 or a[hi:] != b[hi:]:
        return diff[: hunks[1] if len(hunks) > 1 else None] + ["... more differences may follow"]
    return diff


def compare_bytes(a: bytes, b: bytes, name: str) -> list[str]:
    """[] when a and b are equal, else a diff of them as text or one line for binary data."""
    if a == b:
        return []
    try:
        return first_hunk(a.decode().splitlines(), b.decode().splitlines(), name)
    except UnicodeDecodeError:
        return [f"binary {name} differs"]


def compare_case(trees, works, label: str, command: str, config: Path) -> list[str]:
    out = f"out/{label}"
    procs = [start(tree, work, command, config, out) for tree, work in zip(trees, works)]
    runs = []
    for tree, proc in zip(trees, procs):
        stdout, stderr = proc.communicate()
        path = os.fsencode(tree)
        runs.append((proc.returncode, stdout.replace(path, b"<tree>"), stderr.replace(path, b"<tree>")))
    (code_a, out_a, err_a), (code_b, out_b, err_b) = runs
    problems = [] if code_a == code_b else [f"exit code {code_a} -> {code_b}"]
    problems += compare_bytes(out_a, out_b, "stdout") + compare_bytes(err_a, err_b, "stderr")
    dirs = [work / out for work in works]
    names = sorted({p.relative_to(d).as_posix() for d in dirs if d.is_dir() for p in d.rglob("*") if p.is_file()})
    for name in names:
        a, b = (d / name for d in dirs)
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name} written by {'PARENT' if a.is_file() else 'CHANGE'} only")
        else:
            problems += compare_bytes(a.read_bytes(), b.read_bytes(), name)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--tiny", action="store_true", help="only the workloads' tiny size")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "degen_blowup" / "cli.py").is_file():
            parser.error(f"no package sources at {tree / 'src' / 'degen_blowup'}")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        works = [Path(tmp, "parent"), Path(tmp, "change")]
        for work in works:
            work.mkdir()
        all_cases = cases(Path(tmp, "configs"), args.tiny)
        differing = 0
        for label, command, config in all_cases:
            problems = compare_case(trees, works, label, command, config)
            if problems:
                differing += 1
                print(f"DIFF {label}")
                print("\n".join(f"    {line}" for line in problems))
    print(f"compare_outputs: {len(all_cases)} commands, {differing} with differences")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
