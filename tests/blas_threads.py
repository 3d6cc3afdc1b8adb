"""Run a check in a fresh Python process at a given BLAS thread count.

OpenBLAS reads its thread count from the environment once, when numpy is
imported, so a test cannot switch it in-process.  ``run_check`` starts a
new interpreter with ``OPENBLAS_NUM_THREADS`` (and ``OMP_NUM_THREADS``) set,
imports ``module`` from this directory and calls ``module.func(*args)``;
the check passes if that call returns.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run_check(threads: int, module: str, func: str, *args) -> None:
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")]),
    }
    code = f"import {module}; {module}.{func}(*{args!r})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{func} at {threads} BLAS threads:\n{proc.stdout}{proc.stderr}"


def loaded_blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, or None."""
    from tricube import nets

    controls = nets.openblas_thread_controls()
    return None if controls is None else int(controls[0]())
