"""Process set-up shared by the runner, the set-up probe and the suite:
single-threaded BLAS, importing tantheta from this checkout's `src/`, the
warm-up trial and the machine facts printed with every result."""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The machine has few cores; a multi-threaded BLAS would make timings depend
# on what else runs there. These must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout does not hold a tantheta that this benchmark can run."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_tantheta():
    """Import tantheta from `<checkout>/src`, never from an installed copy."""
    package = SRC / "tantheta"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no tantheta package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tantheta

    if Path(tantheta.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported tantheta from {tantheta.__file__}, not {package}")
    return tantheta


def warm_up(tantheta) -> None:
    """One untimed 3x5 trial, so that lazy library set-up is paid here."""
    cfg = tantheta.GenConfig(
        dim0=3, dim1=5, D=4.0, d=1.0, ratio=0.8, conjugate=True, seed=1
    )
    tantheta.run_trial(cfg)


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
