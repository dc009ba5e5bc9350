"""tools/compare_outputs.py finds no difference between a checkout and itself,
and names the one output file that a changed source tree writes differently;
the C kernels and their Python twins give the same outputs on every tiny
workload command."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from degen_blowup import kernels
from degen_blowup.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def _compare(parent, change):
    args = [sys.executable, str(TOOL), str(parent), str(change), "--tiny"]
    return subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_tiny_comparison_finds_exactly_the_changed_output(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "degen_blowup" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    changed = text.replace('("iters", report.iters)', '("iters", report.iters + 1)')
    assert changed != text
    cli.write_text(changed, encoding="utf-8")
    # both comparisons at once: each runs five commands per tree
    same, moved = _compare(ROOT, ROOT), _compare(ROOT, tmp_path)
    (out, err), (moved_out, moved_err) = same.communicate(timeout=120), moved.communicate(timeout=120)

    assert same.returncode == 0, out + err
    assert out.splitlines() == ["compare_outputs: 5 commands, 0 with differences"]
    assert moved.returncode == 1, moved_out + moved_err
    lines = [line.strip() for line in moved_out.splitlines()]
    assert [line for line in lines if line.startswith(("DIFF", "---"))] == ["DIFF solve-fine/tiny/solve", "--- PARENT/report.txt"]
    assert "-iters = 3" in lines and "+iters = 4" in lines
    assert lines[-1] == "compare_outputs: 5 commands, 1 with differences"


def _load_workloads(monkeypatch):
    """bench/workloads.py, imported without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _files(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_every_tiny_workload_command_writes_the_same_bytes_without_the_c_kernels(tmp_path, monkeypatch, capsys):
    # each command runs twice in this process: with the C kernels, then with
    # kernels.load patched to None, which the forked sweep members inherit
    workloads = _load_workloads(monkeypatch)
    commands = []
    for workload in workloads.WORKLOADS.values():
        paths = workloads.write_configs(workload, workloads.TINY, tmp_path / "configs" / workload.name)
        commands += [(f"{workload.name}/{command}", command, paths[config]) for command, config in workload.commands]

    def run_all(work):
        work.mkdir()
        monkeypatch.chdir(work)  # the same relative --out in both runs
        runs = {}
        for label, command, config in commands:
            code = main([command, "--config", str(config), "--out", f"out/{label}"])
            runs[label] = (code, *capsys.readouterr())
        return runs, _files(work / "out")

    kernel = run_all(tmp_path / "kernels")
    monkeypatch.setattr(kernels, "load", lambda: None)
    twins = run_all(tmp_path / "twins")
    assert len(kernel[0]) == 5 and "sweep-pair/sweep/eps010/rate.csv" in kernel[1]
    assert kernel[0] == twins[0]
    assert kernel[1].keys() == twins[1].keys()
    assert [name for name in kernel[1] if kernel[1][name] != twins[1][name]] == []
