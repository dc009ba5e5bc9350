"""Write the committed references from the outputs of the current code.

Usage, from the root of a checkout:  python3 bench/make_refs.py [WORKLOAD ...]

Run this only at a commit whose answers are trusted: the benchmark then
accepts later code only if it reproduces these outputs within the
tolerances of checks.py.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
from worker import ROOT, import_cli, run_commands
from workloads import WORKLOADS, variant_names, write_configs


def main(names: list[str]) -> int:
    cli = import_cli()
    work = ROOT / ".bench_work" / "make_refs"
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        for variant in variant_names(workload):
            shutil.rmtree(work, ignore_errors=True)
            paths = write_configs(workload, variant, work / "configs")
            start = time.perf_counter()
            codes, error = run_commands(cli, workload.commands, paths, work / "out")
            if error or any(c in (1, 3) for c in codes):
                print(f"{name}/{variant}: exit codes {codes}, {error}", file=sys.stderr)
                return 1
            path = checks.ref_path(name, variant)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(checks.extract(name, work / "out"), indent=1) + "\n", encoding="utf-8")
            print(f"{name}/{variant}: exit codes {codes} in {time.perf_counter() - start:.2f} s -> {path.relative_to(ROOT)}")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
