"""Environment shared by the benchmark's entry points.

``prepare`` must run before numpy or mrcakit is imported: it caps the
native thread pools and puts the checkout's own sources first on the path,
so that the benchmark always measures the code beside it.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One thread per pool: the workloads run one operation at a time, and a
# single thread keeps run-to-run spread down on a shared 2-core machine.
BLAS_THREADS = 1


def prepare() -> None:
    """Cap native threads and make ``import mrcakit`` load ``src/``.

    Exits with an error when the checkout holds no sources.
    """
    if not os.path.isfile(os.path.join(SRC, "mrcakit", "__init__.py")):
        sys.exit(f"perfbench: no mrcakit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mrcakit

    if not os.path.abspath(mrcakit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: mrcakit loaded from {mrcakit.__file__}, not from {SRC}")


def git_commit() -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"
