"""The package's imports: every module uses each name it imports, the CLI
leaves each pool to the one command or table that uses it, exception types live in
errors alone, grids alone constructs a Grid, the CLI verifies
barriers in one function, and its schema rows carry each parameter name a
refusal raises."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degen_blowup

PACKAGE = Path(degen_blowup.__file__).parent

# bench/tracing.py wraps cli.assemble_residual and cli.solve_penalized, so
# cli keeps the names although it no longer calls them; only a change to the
# benchmark may drop them.
ALLOWED = {("cli", "assemble_residual"), ("cli", "solve_penalized")}


def imported_names(tree):
    """Each name an import statement binds at module level, with its line."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


# the package's __init__ imports names to re-export them
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree)
        if name not in used and (module, name) not in ALLOWED
    ]
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors"])
def test_only_errors_defines_exception_types(module):
    # the CLI maps each type in errors to one exit code, and no other
    mod = importlib.import_module(f"degen_blowup.{module}")
    own = [
        name
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__
    ]
    assert not own, f"{module} defines exception types: {', '.join(own)}"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "grids"])
def test_only_grids_constructs_a_grid(module):
    # a Grid does not check its nodes: build_graded_grid checks them before it makes one
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Grid"
    ]
    assert not calls, f"{module} calls Grid( on lines {calls}"


def _callers(tree, names):
    """{name: the top-level functions of tree that call name} for each of names."""
    found = {name: set() for name in names}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in found:
                    found[name].add(getattr(top, "name", None))
    return found


def test_only_barriers_verifies_a_barrier():
    # solve, rate and exhaust take their envelopes from the one path
    # verify-subsuper uses; verify-subsuper alone also builds its C_list radii
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    once = ("find_min_A", "verify_super_inequality", "verify_sub_inequality", "build_supersolution")
    assert _callers(tree, once + ("build_subsolution",)) == {
        **{name: {"_barriers"} for name in once},
        "build_subsolution": {"_barriers", "cmd_verify_subsuper"},
    }


def test_only_the_slab_solve_and_the_limit_residual_build_the_blowup_problem():
    # a solve takes the data and the barriers alone, so the CLI never builds
    # the problem; BlowupParams refuses every weight exponent the problem
    # refuses, so nothing builds it only to check its data
    calls = {
        module: _callers(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), ("radial_blowup_problem",))
        for module in ("cli", "exhaustion")
    }
    assert calls == {
        "cli": {"radial_blowup_problem": set()},
        "exhaustion": {"radial_blowup_problem": {"solve_in_slab", "residual_on_monitor"}},
    }


# the call whose arguments from this index on are parameter names: a
# ParameterError's own, or those check_finite and _bound_values pass on to one
_NAMES_FROM = {"ParameterError": 1, "check_finite": 3, "_bound_values": 3}


def test_schema_rows_carry_exactly_the_raised_names():
    # a refusal names its config keys through the rows that carry its
    # parameter names, so a name no row carries reaches the user unlocated.
    # The slab's overflow also names lower, which no row carries: f is
    # monotone and lower <= upper, so f overflows at the upper envelope
    # whenever it does at the lower one, and the refusal blames problem.p,
    # problem.A and the grid's keys (test_overflowing_slab_prints_only_its_refusal).
    from degen_blowup.cli import SCHEMAS

    raised = set()
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                first = _NAMES_FROM.get(getattr(node.func, "id", getattr(node.func, "attr", None)))
                if first is not None:
                    raised |= {arg.value for arg in node.args[first:] if isinstance(arg, ast.Constant)}
    carried = {name for schema in SCHEMAS.values() for _, _, *names in schema.values() for name in names}
    assert raised - carried == {"lower"}
    assert carried <= raised, f"carried but never raised: {sorted(carried - raised)}"


def test_allowed_imports_are_still_unused():
    # an allowance that is no longer needed is dropped with the import
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in dict(imported_names(tree)) and name not in used_names(tree)


def test_cli_import_leaves_the_process_pool_out():
    # sweep alone imports the process pool, at 12-16 ms of every command's
    # start, and b2 alone the thread pool and its queue, at 5-12 ms; numpy
    # loads numpy.polynomial lazily (4.5-7 ms and 0.9 MB), and a(r) does not
    # need it; the C kernels load at their first call, only a cold kernel
    # cache needs subprocess, and hashlib loads OpenSSL, 3.5 MB of every
    # command's peak RSS
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import degen_blowup.cli\n"
        "degen_blowup.cli.BlowupParams(p=3.0, alpha=0.0, gamma=0.0, N=3, R=1.0, a_coef=1.5).a_R\n"
        "unwanted = ('multiprocessing', 'concurrent', 'queue', 'subprocess', 'hashlib', '_hashlib')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in unwanted or m.startswith('numpy.polynomial'))\n"
        "assert not loaded, loaded\n"
        "kernels = degen_blowup.kernels\n"
        "assert kernels.load.cache_info().currsize == kernels.pow10.cache_info().currsize == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_adds_only_these_modules_to_numpy():
    # every command's setup time is the interpreter's start, numpy's import
    # and this one: beyond numpy, the package may load only these modules
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import degen_blowup.cli\n"
        "allowed = {'argparse', 'dataclasses', 'copy', 'gettext', '__future__'}\n"
        "extra = sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in allowed | {'degen_blowup'})\n"
        "assert not extra, extra\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_one_chunk_csv_leaves_the_thread_pool_out(tmp_path):
    # only a float table of more than one chunk formats on the two-thread
    # pool; solve at m = 2001 writes a one-chunk solution.csv
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("run.command = solve\ngrid.m = 2001\n", encoding="utf-8")
    out = tmp_path / "out"
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "from degen_blowup import cli\n"
        f"cli.main(['solve', '--config', {str(cfg)!r}, '--out', {str(out)!r}, '--quiet'])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len((out / "solution.csv").read_text(encoding="utf-8").splitlines()) == 2002
