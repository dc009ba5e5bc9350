"""Self-test of the benchmark itself.

Usage, from the root of a checkout:  python3 bench/selftest.py

Runs every workload once at its tiny size, traced, and checks the outputs
against the committed tiny references; shows that the checks accept a
solution moved by far less than their tolerance (as a pivoting solve
would) and reject a ``u`` moved beyond it and a flipped ``b2`` boolean;
and shows that a wrapped name the package lacks is reported as absent.
Exits 0 when every case passes.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import tracing
from worker import ROOT, import_cli, run_and_check, run_commands
from workloads import TINY, WORKLOADS, write_configs

WORK = ROOT / ".bench_work" / "selftest"


def _scale_u(path, factor: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[2] = repr(float(cells[2]) * factor)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def _flip_first_b2_pass(path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = "false" if cells[1] == "true" else "true"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tampered(cli, name: str, tamper) -> list[str]:
    """Problems the check finds in a tiny run's outputs after ``tamper(out)``."""
    workload = WORKLOADS[name]
    paths = write_configs(workload, TINY, WORK / name / "configs")
    out = WORK / name / "tampered"
    shutil.rmtree(out, ignore_errors=True)
    run_commands(cli, workload.commands, paths, out)
    tamper(out)
    return checks.check(name, out, checks.load_ref(name, TINY))


def main() -> int:
    cli = import_cli()
    shutil.rmtree(WORK, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    results = []

    def case(label: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")

    case("BENCHMARK.json lists the workloads of workloads.py", [w["name"] for w in declared["workloads"]] == list(WORKLOADS))
    for name, workload in WORKLOADS.items():
        paths = write_configs(workload, TINY, WORK / name / "configs")
        ref = checks.load_ref(name, TINY)
        tracer = tracing.Tracer()
        rec = run_and_check(cli, workload.commands, paths, WORK / name / "out", name, ref, tracer)
        case(f"{name}: tiny run matches its reference", not rec["failed"], "; ".join(rec["problems"]))
        solo = {}
        for member in workload.solo:
            member_ref = ref[member.removesuffix(".cfg")]
            solo_rec = run_and_check(cli, (("rate", member),), paths, WORK / name / "solo", "rate", member_ref)
            case(f"{name}: {member} alone matches its reference", not solo_rec["failed"], "; ".join(solo_rec["problems"]))
            solo[member] = [solo_rec["seconds"]]
        layers = tracing.layer_metrics(tracer, [rec["output_bytes"]], [rec["seconds"]], [rec["seconds"]], solo)
        units = {k: m["unit"] for k, m in layers.items()}
        case(f"{name}: traced op yields the declared layer metrics", units == per_layer and not tracer.absent, str(tracer.absent))

    problems = _tampered(cli, "solve-fine", lambda out: _scale_u(out / "solution.csv", 1.0 + 4e-10))
    case("solve-fine: u moved by 4e-10 relative is accepted", not problems, "; ".join(problems[:3]))
    problems = _tampered(cli, "solve-fine", lambda out: _scale_u(out / "solution.csv", 1.0 + 1e-5))
    case("solve-fine: u moved by 1e-5 relative is rejected", bool(problems))
    problems = _tampered(cli, "certify", lambda out: _flip_first_b2_pass(out / "b2.csv"))
    case("certify: a flipped b2 boolean is rejected", any("passes" in p for p in problems), "; ".join(problems))
    problems = _tampered(cli, "exhaust-ladder", lambda out: (out / "limit.csv").unlink())
    case("exhaust-ladder: a missing output file is rejected", bool(problems))

    missing = ("tridiag", "no_such_function", "tridiag.gone", "span", None)
    tracer = tracing.Tracer(tracing.WRAPS + (missing,))
    workload = WORKLOADS["solve-fine"]
    paths = write_configs(workload, TINY, WORK / "absent" / "configs")
    rec = run_and_check(
        cli, workload.commands, paths, WORK / "absent" / "out", "solve-fine",
        checks.load_ref("solve-fine", TINY), tracer,
    )
    tracing.layer_metrics(tracer, [0], [1.0], [1.0], {})
    case("a wrapped name the package lacks is reported absent", tracer.absent == ["tridiag.no_such_function"] and not rec["failed"])

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-test cases passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
