"""Sparse neural networks from random-graph structural priors: generation,
training, adversarial attacks, and graph-property correlation analysis.

Importing the package pins BLAS to one thread per process: a threaded GEMM
splits its sums differently, so trained weights, and every result after
them, would depend on the thread count. Parallelism comes from sweep
workers instead. The pin works only when snnrobust is imported before
numpy, since BLAS reads these variables when numpy loads it; the
`snnrobust` command always imports it first. Imported after numpy without
OPENBLAS_NUM_THREADS=1 already set, the package warns that the pin came too
late. The variables stay set for every subprocess the host starts later.
"""

import os
import sys
import warnings

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    warnings.warn("numpy was imported before snnrobust, so BLAS is not pinned to "
                  "one thread and results may depend on the thread count; import "
                  "snnrobust first or set OPENBLAS_NUM_THREADS=1", RuntimeWarning)
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
