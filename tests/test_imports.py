"""The package's imports: every module uses each name it imports, and the CLI
leaves the process pool to the one command that uses it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degen_blowup

PACKAGE = Path(degen_blowup.__file__).parent

# bench/tracing.py wraps cli.assemble_residual, so cli keeps the name
# although it no longer calls it; only a change to the benchmark may drop it.
ALLOWED = {("cli", "assemble_residual")}


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


def test_allowed_imports_are_still_unused():
    # an allowance that is no longer needed is dropped with the import
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in dict(imported_names(tree)) and name not in used_names(tree)


def test_cli_import_leaves_the_process_pool_out():
    # sweep alone imports it, and it costs 12-16 ms of every command's start
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import degen_blowup.cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures.process')))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
