"""Process set-up shared by the benchmark's scripts; call before numpy loads.

BLAS is pinned to one thread: the nets are tiny, and on a two-core machine a
two-worker sweep with default OpenBLAS threading oversubscribes the cores.
Child processes (set-up probes, sweep pool workers) inherit the setting.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap():
    """Pin BLAS threads and put the package sources first on ``sys.path``.

    Exits non-zero, before anything is measured, when the checkout holds no
    package sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "uman" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'uman'}")
    sys.path.insert(0, str(SRC))
