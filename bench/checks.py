"""Output checks: what each op wrote, compared with a committed reference.

Numbers are compared with tolerances, not bit for bit, so that a change
which computes the same answer another way (a pivoting LAPACK solve moves
``u`` by about 4e-10 relative) passes, while a wrong answer does not.
Booleans, statuses and labels must match exactly.  Report keys and files
that a reference does not name are ignored.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

# Relative tolerance on solver fields.  Well above the effect of a
# reordered or pivoting linear solve, well below the discretization error.
SOLVER_RTOL = 1e-6
# Quadrature and bisection results are deterministic sums; only the
# summation order may change.
EXACT_RTOL = 1e-9
# Absolute floor for quantities that are differences of nearly equal numbers.
DELTA_ATOL = 1e-8
TINY_ATOL = 1e-12

U_SAMPLES = 201
FIT_WINDOW = (1e-3, 1e-2)


def _read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> list[dict[str, object]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (_value(v) for v in line.split(",")))) for line in lines[1:]]


def _fit(d: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of u = K * d**(-beta) on the fixed window."""
    mask = (d >= FIT_WINDOW[0]) & (d <= FIT_WINDOW[1])
    slope, intercept = np.polyfit(np.log(d[mask]), np.log(u[mask]), 1)
    return float(-slope), float(math.exp(intercept))


def _extract_solve(out: Path) -> dict:
    d, u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, usecols=(1, 2), unpack=True)
    index = np.linspace(0, u.size - 1, U_SAMPLES).round().astype(int)
    beta_hat, k_hat = _fit(d, u)
    report = _read_report(out / "report.txt")
    return {
        "nodes": int(u.size),
        "u_index": index.tolist(),
        "u": u[index].tolist(),
        "beta_hat": beta_hat,
        "K_hat": k_hat,
        "sandwich_ok": _value(report["sandwich_ok"]),
    }


def _extract_exhaust(out: Path) -> dict:
    rows = _read_csv(out / "exhaust.csv")
    limit = _read_csv(out / "limit.csv")
    report = _read_report(out / "exhaust_report.txt")
    return {
        "status": report["status"],
        "n": [row["n"] for row in rows],
        "delta": [row["delta"] for row in rows[1:]],
        "sandwich_ok": [row["sandwich_ok"] for row in rows],
        "limit_r": [row["r"] for row in limit],
        "limit_u": [row["u"] for row in limit],
    }


def _extract_certify(out: Path) -> dict:
    report = _read_report(out / "subsuper_report.txt")
    return {
        "b2": _read_csv(out / "b2.csv"),
        "min_A": _value(report["min_A"]),
        "super_ok": _value(report["super_ok"]),
        "sub_ok_full": _value(report["sub_ok_full"]),
        "sub_ok_sufficient": _value(report["sub_ok_sufficient"]),
        "activation_radius": _value(report["activation_radius"]),
        "c_bar": {k: _value(v) for k, v in report.items() if k.startswith("c_bar(")},
    }


_RATE_KEYS = ("beta_hat", "K_hat", "r2", "reference_beta", "reference_K", "min_ratio", "max_ratio", "bounds_ok")


def _extract_rate(out: Path) -> dict:
    report = _read_report(out / "rate_summary.txt")
    return {key: _value(report[key]) for key in _RATE_KEYS}


def _extract_sweep(out: Path) -> dict:
    """One rate summary per member; sweep writes each into a directory named after its config."""
    return {member.name: _extract_rate(member) for member in sorted(out.iterdir()) if member.is_dir()}


EXTRACT = {
    "solve-fine": _extract_solve,
    "exhaust-ladder": _extract_exhaust,
    "certify": _extract_certify,
    "sweep-pair": _extract_sweep,
    "rate": _extract_rate,
}

# (rtol, atol) per workload; a key listed under "fields" overrides it.
TOLERANCES = {
    "solve-fine": {"default": (SOLVER_RTOL, 0.0)},
    "exhaust-ladder": {"default": (SOLVER_RTOL, 0.0), "fields": {"delta": (SOLVER_RTOL, DELTA_ATOL)}},
    "certify": {"default": (EXACT_RTOL, TINY_ATOL)},
    "sweep-pair": {"default": (SOLVER_RTOL, 0.0)},
    "rate": {"default": (SOLVER_RTOL, 0.0)},
}


def _compare(observed, reference, where: str, tol, fields, problems: list[str]) -> None:
    if isinstance(reference, dict):
        if not isinstance(observed, dict):
            problems.append(f"{where}: expected a mapping, got {observed!r:.80}")
            return
        for key, ref in reference.items():
            if key not in observed:
                problems.append(f"{where}.{key}: missing")
            else:
                _compare(observed[key], ref, f"{where}.{key}", fields.get(key, tol), fields, problems)
        return
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            problems.append(f"{where}: expected {len(reference)} entries, got {observed!r:.80}")
            return
        for i, (obs, ref) in enumerate(zip(observed, reference)):
            _compare(obs, ref, f"{where}[{i}]", tol, fields, problems)
        return
    if isinstance(reference, (bool, str)):
        if observed != reference:
            problems.append(f"{where}: {observed!r} != {reference!r}")
        return
    rtol, atol = tol
    if isinstance(observed, bool) or not isinstance(observed, (int, float)):
        problems.append(f"{where}: expected a number, got {observed!r}")
    elif not math.isfinite(reference):
        if not (observed == reference or (math.isnan(reference) and math.isnan(observed))):
            problems.append(f"{where}: {observed!r} != {reference!r}")
    elif not abs(observed - reference) <= atol + rtol * abs(reference):
        problems.append(f"{where}: {observed!r} differs from {reference!r} beyond rtol={rtol:g} atol={atol:g}")


def compare(kind: str, observed: dict, reference: dict) -> list[str]:
    """Every disagreement between an op's outputs and its reference."""
    spec = TOLERANCES[kind]
    problems: list[str] = []
    _compare(observed, reference, kind, spec["default"], spec.get("fields", {}), problems)
    return problems


def extract(kind: str, out: Path) -> dict:
    return EXTRACT[kind](out)


def check(kind: str, out: Path, reference: dict) -> list[str]:
    """Read an op's outputs and compare them; unreadable outputs are a problem too."""
    try:
        observed = extract(kind, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{kind}: outputs unreadable: {exc!r}"]
    return compare(kind, observed, reference)


def ref_path(workload: str, variant: str) -> Path:
    return REFS / workload / f"{variant}.json"


def load_ref(workload: str, variant: str) -> dict:
    return json.loads(ref_path(workload, variant).read_text(encoding="utf-8"))
