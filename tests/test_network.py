from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnrobust.data import synthetic_dataset
from snnrobust.graph import UndirectedGraph, generate_ws, layer_dag
from snnrobust.network import (INIT_METHODS, NetworkError, StaleCacheError,
                               backward, build_network, cross_entropy, forward,
                               init_weights, load_checkpoint, network_to_graph,
                               param_count, param_views, prune_random,
                               save_checkpoint, softmax)

from tests.conftest import kink_free_case, random_layered_net, random_small_graph, ws_args
from tests.oracles import (dict_build_network, finite_diff_bias_grads,
                           finite_diff_input_grad, finite_diff_weight_grads,
                           float64_copy, keyed_weights, layer_of, row_max_softmax,
                           sequential_ws, set_network_to_graph, vertex_forward_logits)

FIXTURES = Path(__file__).parent / "fixtures"


def tiny_skip_net():
    """Vertices {0,1,2}, edges 0->1, 1->2, 0->2; 2 inputs, 2 outputs."""
    ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1), (1, 2), (0, 2)})))
    return build_network(ld, 2, 2)


class TestBuildNetwork:
    def test_group_structure_of_skip_example(self):
        # one matrix per target layer; layer 2 reads layers 0 (skip) and 1,
        # the output reads the one sink
        net = tiny_skip_net()
        assert [m.tolist() for m in net.masks] == [
            [[1, 1]], [[1]], [[1, 1]], [[1], [1]]]
        assert [s.tolist() for s in net.sources] == [[0, 1], [0], [0, 1], [2]]
        assert net.offsets == [0, 1, 2, 3]
        assert param_count(net) == 12

    def test_chain_has_no_skip_groups(self):
        ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1), (1, 2)})))
        net = build_network(ld, 3, 2)
        assert [m.shape for m in net.masks] == [(1, 3), (1, 1), (1, 1), (2, 1)]
        assert net.sources[2].tolist() == [1]  # no skip column for layer 0

    def test_isolated_vertex_wired_both_ways(self):
        ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1)})))  # vertex 2 isolated
        net = build_network(ld, 4, 3)
        # layer 0 holds vertices {0, 2}; the input matrix covers both densely
        assert net.layer_vertices[0] == [0, 2]
        assert net.masks[0].shape == (2, 4)
        assert np.all(net.masks[0] == 1)
        # the sinks are vertex 2 (column 1) and vertex 1 (column 2); the
        # output does not read vertex 0 (column 0)
        assert net.sources[-1].tolist() == [1, 2]
        assert np.all(net.masks[-1] == 1)

    def test_sources_are_the_predecessor_columns(self, rng):
        for _ in range(20):
            ld = layer_dag(random_small_graph(rng, max_vertices=12))
            net = build_network(ld, 6, 4)
            column = {v: i for i, v in enumerate(v for layer in ld.layers for v in layer)}
            layer = layer_of(ld)
            assert net.sources[0].tolist() == list(range(6))
            for l in range(1, net.n_layers):
                preds = {column[u] for u, v in ld.graph.edges if layer[v] == l}
                assert net.sources[l].tolist() == sorted(preds)
                assert net.masks[l].shape == (len(ld.layers[l]), len(preds))
            assert net.sources[-1].tolist() == sorted(column[v] for v in ld.sinks)

    def test_param_count_formula(self, rng):
        for _ in range(20):
            g = random_small_graph(rng)
            ld = layer_dag(g)
            net = build_network(ld, 784, 10)
            expected = (784 * len(ld.layers[0]) + ld.graph.edge_count
                        + len(ld.sinks) * 10 + g.vertex_count + 10)
            assert param_count(net) == expected

    def test_dense_reference_count(self):
        # 100 isolated vertices make one hidden layer, fully wired both ways:
        # the classic 784-100-10 stack
        ld = layer_dag(UndirectedGraph(100, frozenset()))
        net = build_network(ld, 784, 10)
        assert param_count(net) == 784 * 100 + 100 * 10 + 100 + 10

    def test_rejects_bad_dimensions(self):
        with pytest.raises(NetworkError):
            build_network(layer_dag(UndirectedGraph(1, frozenset())), 0, 10)


class TestInitWeights:
    def test_uniform_bounds(self):
        net = init_weights(tiny_skip_net(), "U", seed=0)
        for w, m in zip(net.weights, net.masks):
            assert np.all(np.abs(w[m == 1]) <= 0.1)

    def test_masked_positions_zero_for_all_methods(self, rng):
        base = tiny_skip_net()
        for method in INIT_METHODS:
            net = init_weights(base, method, seed=1)
            for w, m in zip(net.weights, net.masks):
                assert np.all(w[m == 0] == 0.0)

    # SHA-256 over the sorted "source>target=float.hex()" lines of the
    # unmasked initial weights of WS(40, 2, 0.5, seed 7) from sequential_ws,
    # 784 -> 10, seed 2024. Each digest equals that of the float64 weights
    # the per-(source layer, target layer) group implementation drew,
    # rounded once to float32
    GOLDEN_INIT = {
        "G_N": "83db65845ae89d02afcc815fb242cf2015243f58b518390569fff324b749bf27",
        "G_U": "d75d7aacece88e5e69d84cf39b5366bb3cbc5458caa76c3c20ed4415f16efd8e",
        "He_N": "491238dfd3ce125896188eda3e26b624677aed074bf67de46b86e4f807c159ae",
        "He_U": "48819dc912c70372e18ca914316c8fa7c4b860bd320ae71edf88fa04d2a26aa5",
        "N": "5aaf0d211afbb240b808527f74dfa875232c3a3d9814cd2122a474094289cfd1",
        "U": "8e51a863d664dc0a060ba6f3e01ea657fbd44ca9070bb45ce24b36c6c47af7d8",
    }

    @pytest.mark.parametrize("method", INIT_METHODS)
    def test_golden_digest(self, method):
        ld = layer_dag(sequential_ws(40, 2, 0.5, seed=7))
        net = init_weights(build_network(ld, 784, 10), method, seed=2024)
        keyed = keyed_weights(net)
        assert len(keyed) == 1668
        lines = sorted(f"{s}>{t}={w.hex()}" for (s, t), w in keyed.items())
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.GOLDEN_INIT[method]

    def test_normal_std(self):
        ld = layer_dag(UndirectedGraph(100, frozenset()))
        net = build_network(ld, 100, 10)  # input group alone has 10^4 entries
        net = init_weights(net, "N", seed=7)
        w = net.weights[0].ravel()
        assert abs(w.std() - 0.1) / 0.1 < 0.05

    def test_he_normal_scale(self):
        ld = layer_dag(UndirectedGraph(200, frozenset()))
        net = init_weights(build_network(ld, 400, 10), "He_N", seed=3)
        w = net.weights[0].ravel()  # fan_in = 400
        assert abs(w.std() - np.sqrt(2.0 / 400)) / np.sqrt(2.0 / 400) < 0.05

    def test_glorot_uniform_bound(self):
        ld = layer_dag(UndirectedGraph(50, frozenset()))
        net = init_weights(build_network(ld, 100, 10), "G_U", seed=5)
        w = net.weights[0]
        bound = np.sqrt(2.0) * np.sqrt(6.0 / (100 + 50))
        assert np.all(np.abs(w) <= bound)
        assert w.max() > 0.8 * bound  # actually fills the range

    def test_biases_zero_and_deterministic(self):
        a = init_weights(tiny_skip_net(), "G_N", seed=9)
        b = init_weights(tiny_skip_net(), "G_N", seed=9)
        assert all(np.all(x == 0) for x in a.biases)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_unknown_method_rejected(self):
        with pytest.raises(NetworkError):
            init_weights(tiny_skip_net(), "Xavier", seed=0)


class TestForward:
    def test_zero_weights_give_uniform_probs(self):
        net = tiny_skip_net()
        _, probs, _ = forward(net, np.array([0.3, 0.8]))
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_chain_propagates_value(self):
        ld = layer_dag(UndirectedGraph(2, frozenset({(0, 1)})))
        net = build_network(ld, 1, 1)
        net.weights = [m.copy() for m in net.masks]
        logits, _, cache = forward(net, np.array([1.0]))
        assert cache.acts.tolist() == [[1.0], [1.0]]  # unit-major
        assert logits[0] == 1.0

    def test_matches_vertex_oracle(self, rng):
        from snnrobust.experiment import dense_stack_dag
        cases = []
        for _ in range(20):
            ld = layer_dag(random_small_graph(rng, max_vertices=12))
            cases.append((ld, init_weights(build_network(ld, 6, 4), "He_N",
                                           seed=int(rng.integers(2**31)))))
        # a pruned dense stack, where some hidden unit lost its last
        # outgoing edge and so its column
        ld = layer_dag(dense_stack_dag([3, 4, 3]))
        dense = init_weights(build_network(ld, 6, 4), "He_N", seed=1)
        pruned = prune_random(dense, 0.7, seed=2)
        assert sum(map(len, pruned.sources)) < sum(map(len, dense.sources))
        cases.append((ld, pruned))
        for ld, net in cases:
            net = float64_copy(net)
            for b in net.biases:
                b += rng.uniform(-0.1, 0.1, b.shape)
            x = rng.uniform(0, 1, 6)
            logits, _, _ = forward(net, x)
            assert np.abs(logits - vertex_forward_logits(net, ld, x)).max() < 1e-12

    def test_one_matmul_per_layer(self, rng):
        matmuls = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    matmuls.append(1)
                inputs = [np.asarray(a) for a in inputs]
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*inputs, **kwargs)

        net = random_layered_net(rng)
        net.weights = [w.view(Counted) for w in net.weights]
        forward(net, rng.uniform(0, 1, (3, net.input_dim)))
        assert len(matmuls) == net.n_layers + 1

    def test_probabilities_sum_to_one(self, rng):
        net = float64_copy(random_layered_net(rng))
        x = rng.uniform(0, 1, net.input_dim)
        _, probs, _ = forward(net, x)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)

    def test_batch_matches_single(self, rng):
        net = float64_copy(random_layered_net(rng))
        X = rng.uniform(0, 1, (5, net.input_dim))
        logits_b, probs_b, _ = forward(net, X)
        for i in range(5):
            logits_s, probs_s, _ = forward(net, X[i])
            assert logits_b[i] == pytest.approx(logits_s, abs=1e-12)
            assert probs_b[i] == pytest.approx(probs_s, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            forward(tiny_skip_net(), np.zeros(3))


class TestSoftmax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_row_max(self, rng, dtype):
        # ten classes, as the models have: numpy sums a row of ten in
        # another order than a row of four
        inf, nan = np.inf, np.nan

        def row(*head, fill=-1.0):
            return list(head) + [fill] * (10 - len(head))

        special = [
            row(fill=2.0), row(3.0, -1.0, 3.0, 0.5, 3.0),           # ties
            row(0.0, -0.0), row(-0.0, 0.0), row(fill=-0.0),       # tied zeros
            row(-3.0, 0.0, -0.0, fill=-3.0),
            row(inf, 1.0), row(inf, inf, -inf),                   # infinities
            row(-inf, 1.0, 0.0, -0.0), row(fill=-inf),
            row(nan, 1.0), row(1.0, 0.0, -0.0, nan), row(nan, inf, -inf),
            row(80.0, -80.0, 1e-30, -1e-30),
        ]
        logits = np.vstack([np.array(special), rng.normal(0, 5, (500, 10)),
                            rng.normal(0, 2, (50, 10)).round()]).astype(dtype)
        with np.errstate(all="ignore"):
            got, want = softmax(logits), row_max_softmax(logits)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got.view(f"u{got.itemsize}"),
                              want.view(f"u{want.itemsize}"))


class TestBackward:
    def test_masked_gradients_zero(self, rng):
        net = random_layered_net(rng)
        x = rng.uniform(0, 1, net.input_dim)
        _, _, cache = forward(net, x)
        w_grads, _, _ = backward(net, cache, 1)
        for m, wg in zip(net.masks, w_grads):
            assert np.all(wg[m == 0] == 0.0)

    def test_matches_finite_differences(self, rng):
        for trial in range(5):
            net, x, y = kink_free_case(rng)
            _, _, cache = forward(net, x)
            w_grads, b_grads, input_grad = backward(net, cache, y)

            fd_w = finite_diff_weight_grads(net, x, y)
            fd_b = finite_diff_bias_grads(net, x, y)
            fd_x = finite_diff_input_grad(net, x, y)
            for analytic, numeric in zip(w_grads + b_grads, fd_w + fd_b):
                err = np.abs(analytic - numeric)
                scale = np.maximum(np.abs(numeric), 1e-6)
                assert (err / scale).max() < 1e-4
            scale = np.maximum(np.abs(fd_x), 1e-6)
            assert (np.abs(input_grad - fd_x) / scale).max() < 1e-4

    def test_out_buffers_and_skipped_parts(self, rng):
        net = float64_copy(random_layered_net(rng))
        x = rng.uniform(0, 1, (5, net.input_dim))
        y = rng.integers(0, net.output_dim, 5)
        _, _, cache = forward(net, x)
        w_grads, b_grads, input_grad = backward(net, cache, y)
        size = sum(p.size for p in net.weights + net.biases)
        out = param_views(net, np.full(size, np.nan))
        w_out, b_out, none = backward(net, cache, y, out, input_grad=False)
        assert none is None and w_out is out[0] and b_out is out[1]
        for a, b in zip(w_grads + b_grads, w_out + b_out):
            assert np.array_equal(a, b)
        no_w, no_b, input_only = backward(net, cache, y, params=False)
        assert no_w is None and no_b is None
        assert np.array_equal(input_only, input_grad)

    def test_stale_cache_rejected(self, rng):
        net = random_layered_net(rng)
        x = rng.uniform(0, 1, net.input_dim)
        _, _, cache = forward(net, x)
        net.mark_mutated()
        with pytest.raises(StaleCacheError):
            backward(net, cache, 0)

    def test_uniform_logits_loss_is_log_nclasses(self):
        net = tiny_skip_net()  # zero weights, zero biases
        logits, _, _ = forward(net, np.array([0.5, 0.5]))
        assert cross_entropy(logits, 0) == pytest.approx(np.log(2), abs=1e-12)
        # ten-class shape: uniform logits cost ln 10
        ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1), (1, 2)})))
        net10 = build_network(ld, 784, 10)
        logits, _, _ = forward(net10, np.full(784, 0.3))
        assert cross_entropy(logits, 7) == pytest.approx(np.log(10), abs=1e-12)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(f"u{a.itemsize}"),
                                                 b.view(f"u{b.itemsize}"))


class TestStackAxes:
    """Leading stack axes are separate problems: a stacked forward and input
    gradient give, bit for bit, what one call per problem gives."""

    @pytest.fixture(scope="class")
    def ws_net(self):
        # the sweep's kind of model: a WS(400, 2, 0.9) prior, 784 inputs, 10 classes
        ld = layer_dag(generate_ws(400, 2, 0.9, seed=3))
        return init_weights(build_network(ld, 784, 10), "He_N", seed=5)

    def test_a_stack_of_single_images_is_the_single_image_calls(self, ws_net):
        images = synthetic_dataset(16, seed=21).images
        labels = synthetic_dataset(16, seed=21).labels
        logits, probs, cache = forward(ws_net, images[:, None, :])
        _, _, grads = backward(ws_net, cache, labels[:, None], params=False)
        assert grads.shape == (16, 1, 784)
        for k in range(16):
            logits1, probs1, cache1 = forward(ws_net, images[k])
            _, _, grad1 = backward(ws_net, cache1, int(labels[k]), params=False)
            assert same_bits(logits[k, 0], logits1)
            assert same_bits(probs[k, 0], probs1)
            assert same_bits(grads[k, 0], grad1)

    def test_two_stack_axes_and_batches_of_three(self, ws_net):
        images = synthetic_dataset(12, seed=22).images.reshape(2, 2, 3, 784)
        labels = np.arange(12).reshape(2, 2, 3) % 10
        logits, probs, cache = forward(ws_net, images)
        _, _, grads = backward(ws_net, cache, labels, params=False)
        for i in range(2):
            for j in range(2):
                logits1, probs1, cache1 = forward(ws_net, images[i, j])
                _, _, grad1 = backward(ws_net, cache1, labels[i, j], params=False)
                assert same_bits(logits[i, j], logits1)
                assert same_bits(probs[i, j], probs1)
                assert same_bits(grads[i, j], grad1)

    def test_a_stack_takes_labels_of_its_batch_shape_and_no_parameter_gradients(
            self, rng):
        net = random_layered_net(rng)
        _, _, cache = forward(net, rng.uniform(0, 1, (4, 1, net.input_dim)))
        with pytest.raises(NetworkError, match="labels of shape"):
            backward(net, cache, np.zeros(4, dtype=int), params=False)
        with pytest.raises(NetworkError, match="unstacked batch"):
            backward(net, cache, np.zeros((4, 1), dtype=int))


class TestPruneRandom:
    def test_alpha_zero_is_identity(self, rng):
        net = random_layered_net(rng)
        pruned = prune_random(net, 0.0, seed=0)
        for a, b in zip(net.masks, pruned.masks):
            assert np.array_equal(a, b)

    def test_alpha_one_clears_hidden_only(self, rng):
        net = random_layered_net(rng)
        pruned = prune_random(net, 1.0, seed=0)
        for m in pruned.masks[1:-1]:
            assert not m.any()
        assert np.all(pruned.masks[0] == 1)
        assert np.array_equal(pruned.masks[-1], net.masks[-1])

    def test_exact_floor_count(self, rng):
        net = random_layered_net(rng)
        before = network_to_graph(net).edge_count
        pruned = prune_random(net, 0.5, seed=1)
        assert network_to_graph(pruned).edge_count == before - int(np.floor(0.5 * before))

    def test_deterministic(self, rng):
        net = random_layered_net(rng)
        a = prune_random(net, 0.3, seed=42)
        b = prune_random(net, 0.3, seed=42)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)

    def test_sources_stay_the_live_columns(self, rng):
        for seed in range(10):
            net = random_layered_net(rng)
            pruned = prune_random(net, 0.6, seed=seed)
            before, after = keyed_weights(net), keyed_weights(pruned)
            # pruning removes edges and moves no surviving weight
            assert after.items() <= before.items()
            order = [v for layer in net.layer_vertices for v in layer]
            column = {v: i for i, v in enumerate(order)}
            layer_of = {v: l for l, layer in enumerate(net.layer_vertices) for v in layer}
            live = [set() for _ in range(net.n_layers)]
            for src, tgt in after:
                if src[0] == "v" and tgt[0] == "v":
                    live[layer_of[int(tgt[1:])]].add(column[int(src[1:])])
            for l in range(1, net.n_layers):
                assert pruned.sources[l].tolist() == sorted(live[l])
            assert np.array_equal(pruned.sources[-1], net.sources[-1])

    # SHA-256 of repr(sorted(edges)) after two prunes at alpha 0.4, seeds 13
    # and 14 (the WS graph from sequential_ws), recorded from the network whose
    # hidden matrices spanned every earlier hidden unit
    GOLDEN_PRUNED = {
        "ws": (65, "fb85188e79d965be66b2b0b596d2fd56f7497186ac68a28340f7eb5e27130ba9"),
        "dense": (32, "cc94c6fa5210b79a8ee713028a7fc8603cd743fecd96f4565c3a9b88e6cff068"),
    }

    @pytest.mark.parametrize("kind", GOLDEN_PRUNED)
    def test_golden_pruned_edges(self, kind):
        from snnrobust.experiment import dense_stack_dag
        g = (sequential_ws(60, 3, 0.7, seed=8) if kind == "ws"
             else dense_stack_dag([5, 8, 6]))
        net = build_network(layer_dag(g), 784, 10)
        for step in range(2):
            net = prune_random(net, 0.4, seed=13 + step)
        edges = [tuple(e) for e in network_to_graph(net).edges.tolist()]
        digest = hashlib.sha256(repr(edges).encode()).hexdigest()
        assert (len(edges), digest) == self.GOLDEN_PRUNED[kind]

    def test_pruned_weights_zeroed(self, rng):
        net = random_layered_net(rng)
        pruned = prune_random(net, 0.7, seed=5)
        pruned.assert_mask_invariant()


class TestCopy:
    def test_shares_nothing_and_resets_version(self, rng):
        net = random_layered_net(rng)
        net.mark_mutated()
        out = net.copy()
        assert (out.version, out.init_method) == (0, net.init_method)
        assert out.layer_vertices == net.layer_vertices
        for a, b in zip(net.weights + net.masks + net.sources + net.biases,
                        out.weights + out.masks + out.sources + out.biases):
            assert np.array_equal(a, b) and b.flags.c_contiguous
            assert not np.shares_memory(a, b)
        out.layer_vertices[0].append(-1)
        assert -1 not in net.layer_vertices[0]


class TestNetworkToGraph:
    def test_round_trip_recovers_edges(self, rng):
        for _ in range(20):
            g = random_small_graph(rng)
            net = build_network(layer_dag(g), 5, 3)
            assert network_to_graph(net) == g

    def test_dense_stack_edge_count(self):
        from snnrobust.experiment import dense_stack_dag
        net = build_network(layer_dag(dense_stack_dag([50, 100, 100, 50])), 784, 10)
        assert network_to_graph(net).edge_count == 50 * 100 + 100 * 100 + 100 * 50

    def test_pruning_reduces_edges(self, rng):
        net = random_layered_net(rng)
        before = network_to_graph(net).edge_count
        pruned = prune_random(net, 0.4, seed=3)
        removed = int(np.floor(0.4 * before))
        assert network_to_graph(pruned).edge_count == before - removed

    @settings(max_examples=40, deadline=None)
    @given(args=ws_args(), alpha=st.floats(0, 1), seed=st.integers(0, 2**31))
    def test_array_path_matches_set_oracles(self, args, alpha, seed):
        ld = layer_dag(generate_ws(*args))
        net, want = build_network(ld, 7, 3), dict_build_network(ld, 7, 3)
        assert net.layer_vertices == want.layer_vertices
        for a, b in zip(net.masks + net.sources + net.weights + net.biases,
                        want.masks + want.sources + want.weights + want.biases):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b)
        assert network_to_graph(net) == set_network_to_graph(net) == ld.graph
        pruned = prune_random(net, alpha, seed)
        assert network_to_graph(pruned) == set_network_to_graph(pruned)


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        net = random_layered_net(rng)
        path = tmp_path / "model.bin"
        save_checkpoint(net, path, extra={"note": "test"})
        loaded, header = load_checkpoint(path)
        assert header["extra"]["note"] == "test"
        assert loaded.layer_units == net.layer_units
        for ma, mb in zip(net.masks, loaded.masks):
            assert np.array_equal(ma, mb)
        for wa, wb in zip(net.weights, loaded.weights):
            assert np.array_equal(wa.astype(np.float32), wb.astype(np.float32))
        x = rng.uniform(0, 1, net.input_dim)
        _, p1, _ = forward(net, x)
        _, p2, _ = forward(loaded, x)
        assert p1 == pytest.approx(p2, abs=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(NetworkError):
            load_checkpoint(path)

    def test_schema_1_is_rejected(self):
        # written by the per-(source layer, target layer) group format
        with pytest.raises(NetworkError, match="^unsupported checkpoint schema version 1$"):
            load_checkpoint(FIXTURES / "v1_checkpoint.bin")

    def test_schema_2_fixture_reproduces_probabilities(self, tmp_path):
        # written by the network whose hidden matrices spanned every earlier
        # hidden unit; pruned, with one layer left without an incoming edge
        net, header = load_checkpoint(FIXTURES / "v2_checkpoint.bin")
        assert header["schema_version"] == 2
        assert min(map(len, net.sources)) == 0
        recorded = json.loads((FIXTURES / "v2_checkpoint_probs.json").read_text())
        # recorded in float64 from the stored float32 values
        _, probs, _ = forward(float64_copy(net), np.array(recorded["input"]))
        assert np.abs(probs - recorded["probs"]).max() < 1e-12
        # saved again, it loads to the same matrices
        save_checkpoint(net, tmp_path / "again.bin", extra=header["extra"])
        again, _ = load_checkpoint(tmp_path / "again.bin")
        for a, b in zip(net.weights + net.masks + net.sources,
                        again.weights + again.masks + again.sources):
            assert np.array_equal(a, b)

    def test_resave_reproduces_bytes(self, rng, tmp_path):
        net = prune_random(random_layered_net(rng), 0.6, seed=4)
        save_checkpoint(net, tmp_path / "a.bin", extra={"note": "x"})
        loaded, header = load_checkpoint(tmp_path / "a.bin")
        save_checkpoint(loaded, tmp_path / "b.bin", extra=header["extra"])
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(random_layered_net(rng), path)
        path.write_bytes(path.read_bytes() + bytes(100))
        with pytest.raises(NetworkError, match="has 100 bytes past its last bias"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 20, -40, -1])
    def test_truncated_file_rejected(self, rng, tmp_path, keep):
        path = tmp_path / "model.bin"
        save_checkpoint(random_layered_net(rng), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(NetworkError, match="truncated"):
            load_checkpoint(path)

    def test_weight_at_masked_position_rejected(self, rng, tmp_path):
        net = random_layered_net(rng)
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        (blob_len,) = struct.unpack_from("<I", raw, 8)
        offset = 12 + blob_len
        # the output block's weights start after every hidden layer's
        # full-width float32 block and packed mask
        for units, width in zip(net.layer_units, [net.input_dim, *net.offsets[1:-1]]):
            offset += 4 * units * width + (units * width + 7) // 8
        # a column the output does not read: all of it is masked
        masked = int(np.setdiff1d(np.arange(net.offsets[-1]), net.sources[-1])[0])
        struct.pack_into("<f", raw, offset + 4 * masked, 0.5)
        path.write_bytes(bytes(raw))
        with pytest.raises(NetworkError, match="masked position"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["layer_vertices", "layer_units"])
    def test_a_header_that_disagrees_with_its_layer_vertices_is_refused(
            self, rng, tmp_path, field):
        # the shapes come from layer_vertices; layer_units and sinks are
        # copies of what it and the output block say, and must agree
        net = random_layered_net(rng)
        path = tmp_path / "model.bin"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12:12 + blob_len])
        if field == "layer_vertices":
            # a sink and a unit the output does not read trade places
            order = [v for layer in header["layer_vertices"] for v in layer]
            sink = header["sinks"][0]
            other = next(v for v in order if v not in header["sinks"])
            swap = {sink: other, other: sink}
            header["layer_vertices"] = [[swap.get(v, v) for v in layer]
                                        for layer in header["layer_vertices"]]
        else:
            header["layer_units"][0] += 1
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                         + raw[12 + blob_len:])
        with pytest.raises(NetworkError, match="disagree with its layer_vertices"):
            load_checkpoint(path)
