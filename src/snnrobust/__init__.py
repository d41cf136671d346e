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

from .attack import AdversarialExample, DEConfig, de_evolve, fgsm_eps_search, one_pixel
from .data import Dataset, batches, load_idx, synthetic_dataset
from .graph import (Dag, GraphMetrics, LayeredDag, UndirectedGraph,
                    compute_metrics, generate_ws, layer_dag, to_dag)
from .measure import (CorrelationTable, RobustnessRecord, avg_confidence,
                      avg_epsilon, cohen_label, error_rate, kendall,
                      spearman)
from .network import (MaskedNetwork, backward, build_network, forward,
                      init_weights, network_to_graph, param_count,
                      prune_random)
from .train import EvalReport, TrainConfig, adam_step, evaluate_f1, train

__all__ = [
    "AdversarialExample", "DEConfig", "de_evolve", "fgsm_eps_search",
    "one_pixel", "Dataset", "batches", "load_idx", "synthetic_dataset",
    "Dag", "GraphMetrics", "LayeredDag", "UndirectedGraph", "compute_metrics",
    "generate_ws", "layer_dag", "to_dag", "CorrelationTable",
    "RobustnessRecord", "avg_confidence", "avg_epsilon", "cohen_label",
    "error_rate", "kendall", "spearman", "MaskedNetwork",
    "backward", "build_network", "forward", "init_weights",
    "network_to_graph", "param_count", "prune_random", "EvalReport",
    "TrainConfig", "adam_step", "evaluate_f1", "train",
]

__version__ = "0.1.0"
