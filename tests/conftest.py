from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# snnrobust before numpy: importing it pins BLAS to one thread, which
# works only before numpy loads BLAS
import snnrobust

import numpy as np
import pytest
from hypothesis import strategies as st

from snnrobust.graph import generate_ws, layer_dag
from snnrobust.network import build_network, init_weights


def random_small_graph(rng: np.random.Generator, max_vertices: int = 8):
    """Random simple graph for oracle comparisons."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.uniform(0.15, 0.8):
                edges.add((u, v))
    from snnrobust.graph import UndirectedGraph
    return UndirectedGraph(n, frozenset(edges))


@st.composite
def ws_args(draw) -> tuple[int, int, float, int]:
    """(size, nei, p, seed) with size 5-120, nei 1-20 and 2 * nei < size.
    Half the draws take one of the three smallest sizes for nei, where
    rewiring saturates vertices (at size 2 * nei + 1 the lattice is
    complete, and every visit finds its vertex with no room)."""
    nei = draw(st.integers(1, 20))
    low = max(5, 2 * nei + 1)
    size = draw(st.one_of(st.integers(low, low + 2), st.integers(low, 120)))
    return size, nei, draw(st.floats(0, 1)), draw(st.integers(0, 2**31))


def random_layered_net(rng: np.random.Generator, input_dim: int = 6,
                       output_dim: int = 4, max_units: int = 30,
                       require_skip: bool = True, bias_scale: float = 0.0):
    """Small initialized network from a random WS prior, with a skip edge."""
    for _ in range(200):
        size = int(rng.integers(5, max_units + 1))
        nei = int(rng.integers(1, min(3, (size - 1) // 2) + 1))
        p = float(rng.uniform(0.2, 0.9))
        g = generate_ws(size, nei, p, seed=int(rng.integers(2**31)))
        ld = layer_dag(g)
        has_skip = any(ld.layer_index[v] - ld.layer_index[u] > 1
                       for u, v in ld.graph.edges)
        if has_skip or not require_skip:
            net = init_weights(build_network(ld, input_dim, output_dim), "He_N",
                               seed=int(rng.integers(2**31)))
            if bias_scale:
                for b in net.biases:
                    b += rng.uniform(-bias_scale, bias_scale, b.shape)
                net.mark_mutated()
            return net
    raise AssertionError("could not sample a network with a skip edge")


def kink_free_case(rng: np.random.Generator, margin: float = 1e-3, **net_kwargs):
    """Net + input whose pre-activations sit away from the ReLU kink.

    Central differences are only a valid oracle where the loss is smooth in
    an h-neighborhood, so gradient checks sample clear of |pre| <= margin.
    The net is a float64 copy: a central difference at h = 1e-5 needs
    float64's resolution, and the gradient code runs the same in it.
    """
    from snnrobust.network import forward
    from tests.oracles import float64_copy
    for _ in range(200):
        net = float64_copy(random_layered_net(rng, bias_scale=0.05, **net_kwargs))
        x = rng.uniform(0.05, 0.95, net.input_dim)
        _, _, cache = forward(net, x)
        pre = [net.weights[l] @ (cache.x.T if l == 0 else cache.acts[net.sources[l]])
               + net.biases[l][:, None] for l in range(net.n_layers)]
        if min(np.abs(p).min() for p in pre) > margin:
            y = int(rng.integers(net.output_dim))
            return net, x, y
    raise AssertionError("could not sample a kink-free gradient check case")


def run_child(code: str, **env: str) -> str:
    """Run `code` in a fresh interpreter that imports snnrobust and the
    tests package from this checkout, with `env` added to the environment;
    returns its stdout."""
    src = str(Path(snnrobust.__file__).resolve().parents[1])
    root = str(Path(__file__).resolve().parents[1])
    full_env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, root, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=full_env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
