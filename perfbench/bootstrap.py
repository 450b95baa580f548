"""Process set-up shared by the benchmark's entry points.

Call ``pin_threads`` before numpy is imported and ``use_checkout_source``
before choilab is: the benchmark measures the package in the checkout it
sits in, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def pin_threads() -> None:
    """One BLAS/OpenMP thread here and in every child (children inherit os.environ)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> Path:
    """Put the checkout's src/ first on the import path and in PYTHONPATH for children."""
    if not (SRC / "choilab" / "__init__.py").is_file():
        raise MissingSource(f"no choilab package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return ROOT


def check_imported(module) -> None:
    """Refuse to measure a choilab that was not loaded from the checkout."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise MissingSource(f"choilab was imported from {module.__file__}, not {SRC}")
