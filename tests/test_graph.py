from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnrobust.experiment import candidate_param_count, dense_stack_dag, derive_seed
from snnrobust.graph import (GraphError, UndirectedGraph, compute_metrics,
                             generate_ws, layer_dag, to_dag)
from snnrobust.store import GraphEntry, ResultsStore

from tests.conftest import random_small_graph, run_child, ws_args
from tests.oracles import (layer_of, longest_path_layering, naive_metrics, sequential_ws,
                           set_candidate_param_count, set_generate_ws, set_layer_dag,
                           shortest_path_metrics)


def canonical(pairs) -> np.ndarray:
    """The distinct pairs, each as (lower, higher): rows the graph
    constructor takes."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.unique(np.sort(pairs, axis=1), axis=0)


class TestGenerateWS:
    def test_ring_lattice_no_rewiring(self):
        g = generate_ws(10, 2, 0.0, seed=0)
        assert g.edge_count == 20
        assert np.all(g.degrees() == 4)

    def test_full_rewiring_stays_simple(self):
        g = generate_ws(10, 2, 1.0, seed=3)
        assert g.edge_count == 20
        # UndirectedGraph construction already rejects loops/duplicates
        assert all(u != v for u, v in g.edges)

    def test_edge_count_invariant_at_scale(self):
        g = generate_ws(250, 2, 0.6, seed=11)
        assert g.edge_count == 500

    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(5, 60), nei=st.integers(1, 2),
           p=st.floats(0, 1), seed=st.integers(0, 2**31))
    def test_edge_count_always_size_times_nei(self, size, nei, p, seed):
        g = generate_ws(size, nei, p, seed)
        assert g.edge_count == size * nei

    def test_deterministic_given_seed(self):
        a = generate_ws(40, 2, 0.5, seed=9)
        b = generate_ws(40, 2, 0.5, seed=9)
        assert a == b

    # SHA-256 of repr(sorted(edges)), recorded from the generator that draws
    # every coin in one call and each rewired endpoint by batched rejection
    GOLDEN_WS = {
        (400, 2, 0.9, 1): "2f19b9c4b9126e5379293a29957f25ef5832731fd52c6da7724d81e83a52260c",
        (500, 5, 0.5, 2): "6135ff9a498e67a725ac2e4108850fec5bc0718d2a5c5ae5b4824e76832a7d3d",
        (40, 3, 0.7, 3): "4955f2cc7a9cedf37b16aea9f677e668c52e51ed7e9e858110b3fb4090db61a5",
        (30, 14, 0.9, 4): "504d48d39c674adaed653734f229c284a1c1f688ba2dc299b679cd7a7c8558ff",
        (400, 1, 1.0, 5): "a1f888da9d75b84df10f3ba630972176323c6c73c44c753682f896b08182fff1",
    }
    # the same, recorded from the generator that drew one scalar coin per
    # lattice edge and each endpoint with rng.choice over a candidate array
    SEQUENTIAL_GOLDEN_WS = {
        (400, 2, 0.9, 1): "681dbe76bdfb9ce78a01bd88c1708462c4ab8985520631333506f69157b71e8d",
        (500, 5, 0.5, 2): "6f759323ad543b91e1427db8f3cdc15005da534e67663796bccb58ac8e7b06b2",
        (40, 3, 0.7, 3): "31f47876a443964bcc5f11cb9e508ea96cee328b45efbe61363b027e838ca0c2",
        (30, 14, 0.9, 4): "11a1cc86562f0e98f9a3c2e8bad3cf071cb88c6f3ca9885ccb02b56678ba4fa7",
        (400, 1, 1.0, 5): "7eef8a1d0c4ed7b2dc33fc45726b4fa8bdba93e1cc21c978de9e5c7cbb196ee2",
    }

    @pytest.mark.parametrize("args", list(GOLDEN_WS), ids=str)
    def test_golden_edges(self, args):
        edges = [tuple(e) for e in generate_ws(*args).edges.tolist()]
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == self.GOLDEN_WS[args]

    def test_sequential_reference_keeps_its_digests(self):
        for args, digest in self.SEQUENTIAL_GOLDEN_WS.items():
            edges = [tuple(e) for e in sequential_ws(*args).edges.tolist()]
            assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest

    @pytest.mark.parametrize("size, nei", [(5, 2), (20, 2), (31, 15), (64, 3)])
    def test_no_rewiring_gives_the_ring_lattice(self, size, nei):
        lattice = UndirectedGraph(size, canonical([(u, (u + k) % size) for u in range(size)
                                                   for k in range(1, nei + 1)]))
        assert generate_ws(size, nei, 0.0, seed=1) == lattice
        assert sequential_ws(size, nei, 0.0, seed=1) == lattice

    @staticmethod
    def ensemble(gen, seeds: int = 500) -> np.ndarray:
        """Per graph of WS(20, 2, 0.5): the vertex count of each degree
        0..19, then the source and sink counts of its DAG."""
        rows = []
        for seed in range(seeds):
            g = gen(20, 2, 0.5, seed)
            heads = {v for _, v in g.edges}
            tails = {u for u, _ in g.edges}
            rows.append([*np.bincount(g.degrees(), minlength=20),
                         20 - len(heads), 20 - len(tails)])
        return np.array(rows, dtype=float)

    def test_same_distribution_as_the_sequential_reference(self):
        # each ensemble mean within 4 standard errors of the reference's
        new, ref = self.ensemble(generate_ws), self.ensemble(sequential_ws)
        se = np.sqrt(new.var(axis=0, ddof=1) / len(new) + ref.var(axis=0, ddof=1) / len(ref))
        gap = np.abs(new.mean(axis=0) - ref.mean(axis=0))
        assert np.all(gap <= 4 * se), (gap, se)
        assert ref[:, 4].mean() > 5  # degree 4 (the lattice degree) is common

    def test_invalid_parameters_rejected(self):
        with pytest.raises(GraphError):
            generate_ws(4, 2, 0.5, seed=0)  # size < 2*nei+1
        with pytest.raises(GraphError):
            generate_ws(10, 2, 1.5, seed=0)
        with pytest.raises(GraphError):
            generate_ws(10, 0, 0.5, seed=0)


class TestUndirectedGraph:
    def test_rows_sorted_and_read_only(self):
        g = UndirectedGraph(4, [(2, 3), (0, 3), (0, 1)])
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 1], [0, 3], [2, 3]]
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    def test_array_and_pairs_give_equal_graphs(self):
        pairs = [(0, 1), (1, 2)]
        a, b = UndirectedGraph(3, frozenset(pairs)), UndirectedGraph(3, np.array(pairs))
        assert a == b
        assert a != UndirectedGraph(4, pairs)
        assert a != UndirectedGraph(3, [(0, 1)])

    @pytest.mark.parametrize("edges, message", [
        ([(1, 1)], "self-loop at vertex 1"),
        ([(0, 5)], r"edge \(0,5\) out of range or not canonical"),
        ([(-1, 2)], r"edge \(-1,2\) out of range or not canonical"),
        ([(2, 1)], r"edge \(2,1\) out of range or not canonical"),
        ([(0, 1), (1, 2), (0, 1)], r"duplicate edge \(0,1\)"),
        ([(0, 1, 2)], "edges must be"),
    ])
    def test_refusals(self, edges, message):
        with pytest.raises(GraphError, match=message):
            UndirectedGraph(5, edges)


class TestArrayPathMatchesSetOracles:
    """generate_ws, layer_dag and candidate_param_count on the edge array
    give exactly what the set-based path gave."""

    @staticmethod
    def assert_matches(args):
        g = generate_ws(*args)
        assert g == set_generate_ws(*args)
        ld, want = layer_dag(g), set_layer_dag(g)
        assert ld.layers == want.layers
        assert ld.sinks == want.sinks
        assert candidate_param_count(g) == set_candidate_param_count(g)

    @settings(max_examples=80, deadline=None)
    @given(args=ws_args())
    def test_random_parameters(self, args):
        self.assert_matches(args)

    @pytest.mark.parametrize("nei", [2, 7, 20])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_saturated_vertices(self, nei, extra):
        # every coin is below p = 1; at extra 0 every vertex is saturated
        self.assert_matches((2 * nei + 1 + extra, nei, 1.0, nei))


class TestToDag:
    def test_triangle_orientation(self):
        g = UndirectedGraph(3, [(0, 1), (0, 2), (1, 2)])
        d = to_dag(g)
        assert d.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_empty_graph(self):
        d = to_dag(UndirectedGraph(5, frozenset()))
        assert d.edge_count == 0

    def test_edge_count_preserved(self):
        g = generate_ws(10, 2, 0.5, seed=4)
        assert to_dag(g).edge_count == g.edge_count

    def test_acyclic_by_construction(self):
        # every stored edge (u, v) has u < v, so the graph is its own
        # acyclic orientation: any path strictly increases the index
        g = generate_ws(30, 2, 0.8, seed=5)
        assert to_dag(g) is g
        for edge in [(1, 0), (2, 2), (0, 5)]:
            with pytest.raises(GraphError):
                UndirectedGraph(5, frozenset({edge}))


class TestLayerDag:
    def test_chain(self):
        ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1), (1, 2)})))
        assert layer_of(ld) == {0: 0, 1: 1, 2: 2}

    def test_max_predecessor_rule(self):
        ld = layer_dag(UndirectedGraph(3, frozenset({(0, 1), (0, 2), (1, 2)})))
        assert layer_of(ld) == {0: 0, 1: 1, 2: 2}
        # edge 0->2 spans two layers
        assert layer_of(ld)[2] - layer_of(ld)[0] == 2

    def test_isolated_vertex_is_layer_zero(self):
        ld = layer_dag(UndirectedGraph(4, frozenset({(0, 1), (1, 3)})))
        assert layer_of(ld)[2] == 0
        assert 2 in ld.layers[0] and 2 in ld.sinks

    @staticmethod
    def assert_matches_oracle(ld):
        want = longest_path_layering(ld.graph.vertex_count, ld.graph.edges.tolist())
        assert layer_of(ld) == want["layer_index"]
        assert ld.layers == want["layers"]
        assert ld.layers[0] == want["sources"]
        assert ld.sinks == want["sinks"]

    def test_layer_zero_equals_sources(self, rng):
        for _ in range(25):
            g = random_small_graph(rng)
            ld = layer_dag(g)
            heads = {v for _, v in ld.graph.edges}
            assert set(ld.layers[0]) == set(range(g.vertex_count)) - heads
            self.assert_matches_oracle(ld)

    def test_edges_go_strictly_forward(self, rng):
        for _ in range(25):
            g = random_small_graph(rng)
            ld = layer_dag(g)
            layer = layer_of(ld)
            for u, v in ld.graph.edges:
                assert layer[u] < layer[v]
            self.assert_matches_oracle(ld)

    def test_benchmark_scale_graph_matches_oracle(self):
        ld = layer_dag(generate_ws(400, 2, 0.9, seed=3))
        assert len(ld.layers) > 2
        self.assert_matches_oracle(ld)


class TestComputeMetrics:
    def test_complete_graph_density(self):
        g = UndirectedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        m = compute_metrics(g)
        assert m.density_undirected == 1.0
        assert m.density_directed == 0.5

    def test_path_p3(self):
        m = compute_metrics(UndirectedGraph(3, [(0, 1), (1, 2)]))
        assert m.avg_path_length == pytest.approx(4 / 3, abs=1e-12)

    def test_star_center_betweenness(self):
        g = UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)])
        m = compute_metrics(g)
        # center carries all 3 leaf pairs; normalizer (n-1)(n-2)/2 = 3
        assert m.avg_betweenness == pytest.approx(1.0 / 4, abs=1e-12)

    def test_cycle_c4_eccentricity(self):
        m = compute_metrics(UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert m.avg_eccentricity == pytest.approx(2.0, abs=1e-12)
        assert m.diameter == 2

    def test_disconnected_flag_and_largest_component(self):
        g = UndirectedGraph(5, [(0, 1), (1, 2), (3, 4)])
        m = compute_metrics(g)
        assert m.disconnected
        assert m.diameter == 2  # computed on {0,1,2}
        assert m.density_undirected == pytest.approx(3 / 10)

    def test_degree_distribution(self):
        m = compute_metrics(UndirectedGraph(4, [(0, 1), (0, 2), (0, 3)]))
        assert m.degree_distribution == [0, 3, 0, 1]

    def test_path_length_distribution_counts_pairs(self):
        m = compute_metrics(UndirectedGraph(3, [(0, 1), (1, 2)]))
        assert m.path_length_distribution == [0, 2, 1]

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(60):
            g = random_small_graph(rng)
            m = compute_metrics(g)
            o = naive_metrics(g)
            assert m.disconnected == o["disconnected"]
            assert m.diameter == o["diameter"]
            assert m.avg_path_length == pytest.approx(o["avg_path_length"], abs=1e-12)
            assert m.avg_eccentricity == pytest.approx(o["avg_eccentricity"], abs=1e-12)
            assert m.avg_betweenness == pytest.approx(o["avg_betweenness"], abs=1e-12)
            assert m.avg_closeness == pytest.approx(o["avg_closeness"], abs=1e-12)

    @pytest.mark.parametrize("edges, diameter", [
        ([(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)], 2),
        ([(0, 4), (4, 5), (1, 2), (2, 3), (1, 3)], 2),
        ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)], 1),
    ], ids=["path-first", "path-interleaved", "triangle-first"])
    def test_component_tie_keeps_lowest_vertex(self, edges, diameter):
        # two 3-vertex components: the one holding vertex 0 is measured
        m = compute_metrics(UndirectedGraph(6, edges))
        assert m.disconnected
        assert m.diameter == diameter
        assert m.path_length_distribution == ([0, 2, 1] if diameter == 2 else [0, 3])

    @pytest.mark.parametrize("kind", ["ws", "disconnected"])
    def test_matches_oracle_at_40_vertices(self, kind):
        g = generate_ws(40, 2, 0.5, seed=5)
        if kind == "disconnected":
            a, b = generate_ws(24, 2, 0.6, seed=7), generate_ws(15, 1, 0.4, seed=8)
            g = UndirectedGraph(40, np.vstack([a.edges, b.edges + 24]))
        m = compute_metrics(g)
        o = naive_metrics(g)
        assert m.disconnected == o["disconnected"] == (kind == "disconnected")
        assert m.diameter == o["diameter"]
        for key in ("avg_path_length", "avg_eccentricity", "avg_betweenness",
                    "avg_closeness"):
            assert getattr(m, key) == pytest.approx(o[key], abs=1e-12), key

    # The benchmark's stored WS(400, 2, p) graphs (perfbench/workloads.py) as
    # sequential_ws draws them: SHA-256 of every field but avg_betweenness,
    # and avg_betweenness, as the BFS/Brandes implementation computed them.
    @pytest.mark.parametrize("index, p, digest, betweenness", [
        (0, 0.7, "3b783ba7f6dec7ebe3ec5bdb9c9811a775fceb946d06a79b4b275c3073dd51f5",
         0.009081119885139986),
        (1, 0.8, "7d0c44a367b892e7f819b76c78d3926f4e4388ccc0a44fafe1956c462f63b255",
         0.00907652296570572),
        (2, 0.9, "a5c3b585fd38917340a7d29d1ece7cead4736ab6d79545f5708694542888834d",
         0.008981876802559161),
    ])
    def test_golden_benchmark_graphs(self, index, p, digest, betweenness):
        g = sequential_ws(400, 2, p, derive_seed(2107_06158, "bench-graph", index))
        d = asdict(compute_metrics(g))
        assert d.pop("avg_betweenness") == pytest.approx(betweenness, abs=1e-15)
        assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == digest

    @staticmethod
    def multiword_graph(n: int, kind: str, seed: int):
        """A graph on n vertices, labelled in random order: one chorded ring
        ("connected"); a large and a small chorded ring and an isolated
        vertex ("disconnected"); or a path and a chorded ring of equal size
        plus one or two leftover vertices ("tie")."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        half = (n - 1) // 2
        parts = {"connected": [n], "disconnected": [n - n // 3 - 1, n // 3, 1],
                 "tie": [half, half, n - 2 * half]}[kind]
        edges, start = [], 0
        for i, size in enumerate(parts):
            vs = perm[start:start + size]
            start += size
            edges += zip(vs[:-1], vs[1:])
            if size < 3 or (kind == "tie" and i == 0):
                continue
            edges.append((vs[-1], vs[0]))
            edges += (tuple(rng.choice(vs, 2, replace=False)) for _ in range(size // 4))
        return UndirectedGraph(n, canonical(edges))

    @pytest.mark.parametrize("kind", ["connected", "disconnected", "tie"])
    @pytest.mark.parametrize("n", [63, 64, 65, 129, 500])
    def test_multiword_bitsets_equal_shortest_paths(self, n, kind):
        # above 64 vertices a source bitset spans several uint64 words
        g = self.multiword_graph(n, kind, seed=n)
        want = shortest_path_metrics(g)
        assert want.disconnected == (kind != "connected")
        assert compute_metrics(g) == want

    @pytest.mark.parametrize("g", [
        UndirectedGraph(1, frozenset()), UndirectedGraph(2, frozenset()),
        UndirectedGraph(2, [(0, 1)]),
        UndirectedGraph(5, [(0, 1), (0, 2), (1, 2)]), UndirectedGraph(5, [(2, 3), (2, 4), (3, 4)]),
        dense_stack_dag([50, 100, 50]),
    ], ids=["1-vertex", "2-isolated", "2-edge", "isolated-last", "isolated-first",
            "dense-50-100-50"])
    def test_small_and_dense_equal_shortest_paths(self, g):
        assert compute_metrics(g) == shortest_path_metrics(g)

    def test_sparse_random_graphs_equal_shortest_paths(self):
        # many components and isolated vertices, at any position
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            pairs = rng.integers(0, n, (int(rng.integers(0, n + 1)), 2))
            g = UndirectedGraph(n, canonical(pairs[pairs[:, 0] != pairs[:, 1]]))
            assert compute_metrics(g) == shortest_path_metrics(g)

    def test_cli_import_leaves_scipy_out(self):
        # scipy.sparse.csgraph costs every process about 0.35 s to import
        assert run_child("import sys, snnrobust.cli; "
                         "print('scipy' in sys.modules)") == "False"

    def test_directed_density_is_half_undirected(self, rng):
        for _ in range(20):
            g = random_small_graph(rng)
            m = compute_metrics(g)
            assert m.density_directed == pytest.approx(m.density_undirected / 2)


class TestPersistence:
    @staticmethod
    def saved(store, size, nei, p, seed) -> GraphEntry:
        g = generate_ws(size, nei, p, seed)
        entry = GraphEntry("g0001", g, {"size": size, "nei": nei, "p": p, "seed": seed},
                           compute_metrics(g), param_count=1234)
        store.save_graph_entry(entry)
        return entry

    def test_round_trip(self, tmp_path):
        entry = self.saved(ResultsStore(tmp_path), 12, 2, 0.4, 2)
        loaded = ResultsStore(tmp_path).load_graph_entry("g0001")
        assert loaded.graph == entry.graph
        assert loaded.generator == {"size": 12, "nei": 2, "p": 0.4, "seed": 2}
        assert loaded.metrics == entry.metrics
        assert (loaded.graph_id, loaded.param_count) == ("g0001", 1234)

    def test_schema_fields_present(self, tmp_path):
        store = ResultsStore(tmp_path)
        entry = self.saved(store, 8, 1, 0.0, 0)
        path = tmp_path / "graphs" / "g0001.json"
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema_version", "graph_id", "generator", "vertex_count",
                            "edges", "metrics", "disconnected_flag", "param_count"}
        assert doc["edges"] == sorted([list(e) for e in entry.graph.edges])
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True)
        path.write_text(json.dumps({**doc, "schema_version": 99}))
        with pytest.raises(GraphError):
            store.load_graph_entry("g0001")

    def test_a_stored_edge_not_canonical_is_refused(self, tmp_path):
        store = ResultsStore(tmp_path)
        self.saved(store, 8, 1, 0.0, 0)
        path = tmp_path / "graphs" / "g0001.json"
        doc = json.loads(path.read_text())
        doc["edges"][0] = doc["edges"][0][::-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match=r"edge \(1,0\) out of range or not canonical"):
            store.load_graph_entry("g0001")
