"""The package's C kernels (_kernels.c), built once per user and loaded through ctypes.

``thomas`` runs tridiag.thomas_solve's elimination, ``residual_rows`` and
``jacobian_diag`` assemble the residual and the Jacobian's diagonal for
assembly, and ``g17_rows`` writes cli._write_csv's float rows; a ctypes call
releases the interpreter lock.  The system ``cc`` builds the source on first
use into $XDG_CACHE_HOME/degen-blowup (default ~/.cache), in a file named by a
CRC of the source and the build flags, so later processes load it without
compiling, and a new build removes the ones it replaces; where that directory
cannot be written, each process builds its own copy in a private temporary
directory.  Only where no ``cc`` is on PATH does load() return None, and the
callers run their Python paths (tridiag._thomas_loop, assembly's numpy
formulas, cli._fmt) with the same results; a compiler that is there but
fails raises.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import zlib

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def load():
    """The loaded _kernels.c, or None where no C compiler is on PATH."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    with open(_SOURCE, "rb") as f:
        key = zlib.crc32(f.read() + " ".join(_FLAGS).encode())
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "degen-blowup")
    path = os.path.join(cache, f"kernels-{key:08x}.so")
    private = None
    if not os.path.exists(path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        except OSError:  # no writable cache: a copy for this process alone
            private = tempfile.mkdtemp()
            path = os.path.join(private, os.path.basename(path))
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=private)
        os.close(fd)
        _build(cc, tmp, path)
        if private is None:
            _remove_stale(cache, os.path.basename(path))
    lib = ctypes.CDLL(path)
    if private is not None:
        shutil.rmtree(private, ignore_errors=True)  # the loaded library stays mapped
    lib.thomas.argtypes = (ctypes.c_long,) + (ctypes.c_void_p,) * 6
    lib.thomas.restype = ctypes.c_long
    lib.g17_rows.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_long) + (ctypes.c_void_p,) * 4
    lib.g17_rows.restype = ctypes.c_long
    lib.residual_rows.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.POINTER(Terms)) + (ctypes.c_void_p,) * 4
    lib.residual_rows.restype = ctypes.c_long
    lib.jacobian_diag.argtypes = (ctypes.c_long, ctypes.POINTER(Terms)) + (ctypes.c_void_p,) * 3
    lib.jacobian_diag.restype = ctypes.c_long
    return lib


class Terms(ctypes.Structure):
    """_kernels.c's struct terms: addresses of assembly.GridTerms' arrays (Dirichlet rows as data) and its penalty."""

    _fields_ = [
        *((name, ctypes.c_void_p) for name in ("lower_band", "diag", "upper_band", "mu", "b", "w", "rhs", "lower", "upper")),
        ("penalty", ctypes.c_double),
    ]


def _remove_stale(cache: str, keep: str) -> None:
    """Remove every build in cache but keep: older kernels-*.so and the thomas-*.so they replaced."""
    try:
        names = os.listdir(cache)
    except OSError:
        return
    for name in names:
        if name != keep and name.endswith(".so") and name.startswith(("kernels-", "thomas-")):
            try:
                os.remove(os.path.join(cache, name))
            except OSError:  # another process may have removed it first
                pass


def _build(cc: str, tmp: str, path: str) -> None:
    """Compile _SOURCE into tmp, then move it to path in one step, so that a
    process loading path never sees a half-written file."""
    import subprocess  # only a cold cache needs it

    try:
        proc = subprocess.run([cc, *_FLAGS, "-o", tmp, _SOURCE], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{cc} failed to build {_SOURCE}:\n{proc.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def pow10() -> tuple[np.ndarray, np.ndarray]:
    """g17_rows' table: hi + lo = 10**(16 - k) for k = -281..280, hi rounded, lo the rest rounded.

    Exact integers throughout, since int -> float and int / int round correctly.
    """
    hi, lo = [], []
    for q in range(16 + 281, 16 - 281, -1):
        if q >= 0:
            h = float(10**q)
            rest = float(10**q - int(h))
        else:
            den = 10**-q
            h = 1 / den
            num, two = h.as_integer_ratio()
            rest = (two - num * den) / (den * two)
        hi.append(h)
        lo.append(rest)
    return np.array(hi), np.array(lo)
