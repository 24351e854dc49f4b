"""Process set-up shared by the benchmark scripts; imports only the stdlib.

prepare() must run before numpy is imported: OpenBLAS reads its thread
count once, at load time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def prepare() -> None:
    """Pin BLAS to one thread and import lgcf from this checkout's src/."""
    if not (SRC / "lgcf" / "__init__.py").is_file():
        raise BenchError(f"no lgcf sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import lgcf
    if Path(lgcf.__file__).resolve().parent != SRC / "lgcf":
        raise BenchError(f"imported lgcf from {lgcf.__file__}, not {SRC}")
