"""tools/compare_outputs.py finds no difference between a checkout and itself,
and names the one output file that a changed source tree writes differently."""

import shutil
import subprocess
import sys
from pathlib import Path

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
