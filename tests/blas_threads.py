"""Run a check in a fresh Python process at a given BLAS thread count.

OpenBLAS reads its thread count from the environment once, when numpy is
imported, so a test cannot switch it in-process.  ``run_check`` starts a
new interpreter with ``OPENBLAS_NUM_THREADS`` (and ``OMP_NUM_THREADS``) set,
imports ``module`` from this directory and calls ``module.func(*args)``;
the check passes if that call returns.  Given a ``core`` type it also sets
``OPENBLAS_CORETYPE``, which makes a ``DYNAMIC_ARCH`` OpenBLAS run that core
type's kernels; ``core_types`` lists the ones this CPU can execute.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# the CPU flag each OpenBLAS core type needs, widest first
CORE_FLAGS = (("avx512f", "SkylakeX"), ("avx2", "Haswell"), ("avx", "Sandybridge"))


def run_check(threads: int, module: str, func: str, *args, core: str | None = None) -> None:
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]),
    }
    code = f"import {module}; {module}.{func}(*{args!r})"
    if core:
        env["OPENBLAS_CORETYPE"] = core
        # a core type OpenBLAS does not take would leave the check on its default kernel
        code = f"import blas_threads; blas_threads.require_core({core!r}); {code}"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600)
    where = f"{threads} BLAS threads" + (f" on {core}" if core else "")
    assert proc.returncode == 0, f"{func} at {where}:\n{proc.stdout}{proc.stderr}"


def require_core(core: str) -> None:
    """Fail unless numpy's OpenBLAS runs ``core``'s kernels (or is not OpenBLAS)."""
    from tricube import nets

    assert nets.blas_build()["corename"] in (None, core), nets.blas_build()


def core_types() -> list[str | None]:
    """The OpenBLAS core types this CPU can execute, read from the flags in
    ``/proc/cpuinfo``; ``[None]`` (OpenBLAS's own pick) where that file is
    missing or names none of ``CORE_FLAGS``."""
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((line.split(":", 1)[1].split() for line in f if line.startswith("flags")), [])
    except OSError:
        flags = []
    return [core for flag, core in CORE_FLAGS if flag in flags] or [None]


def loaded_blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, or None."""
    from tricube import nets

    controls = nets.openblas_thread_controls()
    return None if controls is None else int(controls[0]())
