"""Sparse neural networks from random-graph structural priors: generation,
training, adversarial attacks, and graph-property correlation analysis."""

from .attack import AdversarialExample, DEConfig, de_evolve, fgsm, fgsm_eps_search, one_pixel
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
    "AdversarialExample", "DEConfig", "de_evolve", "fgsm", "fgsm_eps_search",
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
