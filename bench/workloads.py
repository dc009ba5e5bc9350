"""The benchmark's workloads: one committed config table per workload.

An op is one workload's CLI command sequence.  Each workload has a few
config variants that cost the same (same grid size, same Newton and
tridiagonal-solve counts at the commit that defined the benchmark) but
give different answers, so a seed can vary the inputs without moving the
timings.  The seed picks the variant of every op, which also fixes their
order.  Every variant, and the ``tiny`` size the self-test runs, has a
committed reference under ``refs/``.  Why each workload is there is said
in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # (subcommand, config file) for each CLI command of one op, in order
    commands: tuple[tuple[str, str], ...]
    # config file -> keys every variant shares
    files: dict[str, dict[str, str]]
    # variant -> config file -> keys that differ between variants
    variants: dict[str, dict[str, dict[str, str]]]
    # config file -> keys replaced for the self-test's tiny size
    tiny: dict[str, dict[str, str]]
    # sweep member configs the traced run also runs on their own
    solo: tuple[str, ...] = ()


def _rate_member(epsilon: str, m: str) -> dict[str, str]:
    return {
        "run.command": "rate",
        "grid.m": m,
        "problem.epsilon": epsilon,
        "solver.tol": "1e-5",
        "solver.max_iters": "100",
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-fine",
            commands=(("solve", "solve.cfg"),),
            files={
                "solve.cfg": {
                    "run.command": "solve",
                    "problem.kind": "blowup",
                    "grid.m": "200001",
                    "grid.eta": "1e-4",
                    "grid.grading": "2",
                    "solver.tol": "1e-5",
                    "solver.max_iters": "100",
                }
            },
            variants={
                "eps012": {"solve.cfg": {"problem.epsilon": "0.12"}},
                "eps015": {"solve.cfg": {"problem.epsilon": "0.15"}},
                "a15": {"solve.cfg": {"problem.a": "1.5"}},
            },
            tiny={"solve.cfg": {"grid.m": "2001"}},
        ),
        Workload(
            name="exhaust-ladder",
            commands=(("exhaust", "exhaust.cfg"),),
            files={
                "exhaust.cfg": {
                    "run.command": "exhaust",
                    "grid.m": "2001",
                    "exhaust.n0": "4",
                    "exhaust.n_max": "8192",
                    "exhaust.tol": "1e-5",
                    "solver.tol": "1e-5",
                }
            },
            variants={
                "a10": {"exhaust.cfg": {"problem.a": "1.0"}},
                "a12": {"exhaust.cfg": {"problem.a": "1.2"}},
                "a15": {"exhaust.cfg": {"problem.a": "1.5"}},
            },
            tiny={"exhaust.cfg": {"grid.m": "201", "exhaust.n_max": "64", "exhaust.tol": "0.1"}},
        ),
        Workload(
            name="certify",
            commands=(("b2", "b2.cfg"), ("verify-subsuper", "verify.cfg")),
            files={
                "b2.cfg": {"run.command": "b2", "b2.quad_nodes": "65536"},
                "verify.cfg": {"run.command": "verify-subsuper"},
            },
            variants={
                "m010": {"b2.cfg": {"b2.margin": "0.1"}, "verify.cfg": {"verify.C": "-1.0"}},
                "m005": {"b2.cfg": {"b2.margin": "0.05"}, "verify.cfg": {"verify.C": "-2.0"}},
                "m020": {"b2.cfg": {"b2.margin": "0.2"}, "verify.cfg": {"verify.C": "-0.5"}},
            },
            tiny={"b2.cfg": {"b2.quad_nodes": "256"}, "verify.cfg": {"verify.samples": "1001"}},
        ),
        Workload(
            name="sweep-pair",
            commands=(("sweep", "sweep.cfg"),),
            files={
                "sweep.cfg": {"run.command": "sweep"},
                "eps010.cfg": _rate_member("0.1", "100001"),
                "eps020.cfg": _rate_member("0.2", "100001"),
            },
            variants={
                "ab": {"sweep.cfg": {"sweep.configs": "eps010.cfg,eps020.cfg"}},
                "ba": {"sweep.cfg": {"sweep.configs": "eps020.cfg,eps010.cfg"}},
            },
            tiny={"eps010.cfg": {"grid.m": "2001"}, "eps020.cfg": {"grid.m": "2001"}},
            solo=("eps010.cfg", "eps020.cfg"),
        ),
    )
}

TINY = "tiny"


def variant_names(workload: Workload) -> list[str]:
    """Every input the workload can generate, the tiny size included."""
    return [*workload.variants, TINY]


def variant_configs(workload: Workload, variant: str) -> dict[str, dict[str, str]]:
    """Keys of every config file of one variant."""
    if variant == TINY:
        base = variant_configs(workload, next(iter(workload.variants)))
        return {f: {**keys, **workload.tiny.get(f, {})} for f, keys in base.items()}
    return {f: {**keys, **workload.variants[variant].get(f, {})} for f, keys in workload.files.items()}


def write_configs(workload: Workload, variant: str, directory: Path) -> dict[str, Path]:
    """Write one variant's config files into ``directory``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, keys in variant_configs(workload, variant).items():
        path = directory / name
        path.write_text(
            f"# generated by the benchmark: workload {workload.name}, variant {variant}\n"
            + "".join(f"{k} = {v}\n" for k, v in keys.items()),
            encoding="utf-8",
        )
        paths[name] = path
    return paths


def op_sequence(workload: Workload, seed: int, length: int) -> list[str]:
    """The variant of each op, drawn from the seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    names = list(workload.variants)
    return [rng.choice(names) for _ in range(length)]
