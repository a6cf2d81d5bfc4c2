"""Test set-up for the benchmark's own tests: ``python3 -m pytest perfbench``."""

import os
import sys
from pathlib import Path

# One BLAS thread, as in benchmark runs; effective when NumPy is not yet loaded.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
