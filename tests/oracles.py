"""Independent brute-force oracles used to verify the implementation.

These deliberately avoid the code paths they check: distances come from
Floyd-Warshall or scipy's shortest paths instead of the bit-parallel
breadth-first search of `compute_metrics`, betweenness from naive
per-pair path counting instead of the identity sum_v bc(v) =
sum_{s<t} (d(s,t) - 1) that `compute_metrics` uses, gradients from
central finite differences, network outputs vertex by vertex along the DAG
edges instead of one matmul per layer, layers from relaxing every edge to a
longest-path fixed point instead of one pass in vertex order, Adam from
one expression per parameter array instead of in-place ufuncs over one flat
buffer, and rank statistics from exhaustive pair counting.

`float64_copy` gives a float32 net's float64 twin. The network follows the
dtype of its weights, so the twin runs the same code in float64; tests of
an algebraic identity (finite differences, the vertex oracle, batch against
single) use it at their float64 tolerances.

`sequential_ws` is the Watts-Strogatz generator as it was before its coins
and endpoints were drawn in batches: one scalar coin per lattice edge and
one integer draw per rewired edge. It draws from the same distribution
with another RNG stream, so it is the reference for that distribution and
the source of the graphs that goldens of other layers (initialization,
pruning, training, metrics) were recorded on.

`sorted_shift_rand1_bin_draw`, `row_layout_candidate_probs`,
`row_max_softmax` and `rolled_stencils` are the one-pixel attack's donor
draw, incremental fitness and softmax, and the synthetic glyph stencils, as
they were before they were made faster without changing a bit: each taken
member sorted and stacked per donor, the layer-0 pre-activations built in
the (n, units) layout and transposed, the row max reduced row by row, and
one Gaussian blob and one np.roll per point and row. Tests compare the
fast versions' bits against them.

`set_generate_ws`, `set_layer_dag`, `dict_build_network`,
`set_network_to_graph` and `set_candidate_param_count` are the graph path
as it was when a graph's edges were a frozenset of (u, v) tuples: the
generator collects its edges from the neighbour sets, and layering, masks,
the recovered graph and the parameter count loop over edge tuples with
dicts and sets. The array path must give exactly what they give.
`layer_of` reads each vertex's layer back from a layered DAG's partition,
for tests that check edges against layers.

`write_idx_images`, `write_idx_labels` and `write_synthetic_idx` write IDX
files byte by byte from the format's header layout, for the loader's tests
and for tests that need an MNIST-shaped data directory.
"""

from __future__ import annotations

import gzip
import struct
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from snnrobust.attack import INTENSITY_MAX, _pixel_index
from snnrobust.data import (_GLYPH_SEGMENTS, _SHEARS, _STENCIL_SIZE, IMAGE_MAGIC,
                            LABEL_MAGIC, MNIST_FILES, synthetic_dataset)
from snnrobust.experiment import INPUT_DIM, OUTPUT_DIM
from snnrobust.graph import (GraphError, GraphMetrics, LayeredDag,
                             UndirectedGraph, _batched_integers)
from snnrobust.network import (CHECKPOINT_DTYPE, MaskedNetwork, NetworkError,
                               _from_blocks, _layer_shapes, cross_entropy, forward,
                               propagate)

INF = float("inf")


def sequential_ws(size: int, nei: int, p: float, seed: int) -> UndirectedGraph:
    """Generate a Watts-Strogatz graph.

    Starts from a ring lattice where each vertex connects to its `nei`
    nearest neighbors on each side (degree 2*nei), then visits every lattice
    edge (u, u+k) and, with probability `p`, replaces its far endpoint with
    a uniformly chosen vertex that is neither u nor already adjacent to u.
    Rewiring preserves the edge count (size * nei) exactly.
    """
    if nei < 1:
        raise GraphError("nei must be >= 1")
    if size < 2 * nei + 1:
        raise GraphError(f"size must be >= 2*nei+1, got size={size}, nei={nei}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"rewiring probability must be in [0,1], got {p}")

    rng = np.random.default_rng(seed)
    adj: list[set[int]] = [set() for _ in range(size)]
    for k in range(1, nei + 1):
        for u in range(size):
            v = (u + k) % size
            adj[u].add(v)
            adj[v].add(u)

    for k in range(1, nei + 1):
        for u in range(size):
            if rng.random() >= p:
                continue
            v = (u + k) % size
            if v not in adj[u]:
                # lattice slot already rewired away by an earlier own-edge pass
                continue
            if len(adj[u]) >= size - 1:
                continue
            # draw w's rank among the vertices outside adj[u] | {u} (one
            # integers() draw, the stream use of rng.choice over them), then
            # step past each taken vertex at or below it
            taken = sorted(adj[u] | {u})
            w = int(rng.integers(size - len(taken)))
            for t in taken:
                if t > w:
                    break
                w += 1
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)

    edges = frozenset((u, v) for u in range(size) for v in adj[u] if u < v)
    return UndirectedGraph(size, edges)


def set_generate_ws(size: int, nei: int, p: float, seed: int) -> UndirectedGraph:
    """generate_ws with the same draws, its edges collected from the
    neighbour sets into a frozenset of (u, v) tuples."""
    if nei < 1:
        raise GraphError("nei must be >= 1")
    if size < 2 * nei + 1:
        raise GraphError(f"size must be >= 2*nei+1, got size={size}, nei={nei}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"rewiring probability must be in [0,1], got {p}")

    rng = np.random.default_rng(seed)
    adj = [{(u + k) % size for k in range(-nei, nei + 1) if k} for u in range(size)]
    ks, us = np.nonzero(rng.random((nei, size)) < p)
    draws = _batched_integers(rng, size, len(us))
    for k, u in zip(ks.tolist(), us.tolist()):
        nbrs = adj[u]
        if len(nbrs) >= size - 1:
            continue
        w = next(draws)
        while w == u or w in nbrs:
            w = next(draws)
        v = (u + k + 1) % size
        nbrs.discard(v)
        adj[v].discard(u)
        nbrs.add(w)
        adj[w].add(u)

    edges = frozenset((u, v) for u in range(size) for v in adj[u] if u < v)
    return UndirectedGraph(size, edges)


def layer_of(ld: LayeredDag) -> dict[int, int]:
    """Each vertex's layer, read from the layered DAG's partition."""
    return {v: k for k, layer in enumerate(ld.layers) for v in layer}


def set_layer_dag(g: UndirectedGraph) -> LayeredDag:
    """layer_dag from per-vertex predecessor lists, one pass in vertex
    order, and the sinks from the set of edge tails."""
    n = g.vertex_count
    edges = [tuple(e) for e in g.edges.tolist()]
    preds: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        preds[v].append(u)
    index: dict[int, int] = {}
    for v in range(n):
        index[v] = 1 + max((index[u] for u in preds[v]), default=-1)

    layers_mut: list[list[int]] = [[] for _ in range(max(index.values()) + 1)]
    for v in range(n):
        layers_mut[index[v]].append(v)
    layers = tuple(tuple(layer) for layer in layers_mut)
    tails = {u for u, _ in edges}
    sinks = tuple(v for v in range(n) if v not in tails)
    return LayeredDag(graph=g, layers=layers, sinks=sinks)


def dict_build_network(ld: LayeredDag, input_dim: int, output_dim: int) -> MaskedNetwork:
    """build_network setting one mask entry per edge tuple, through
    vertex -> row and vertex -> column dicts."""
    if ld.graph.vertex_count < 1 or not ld.layers:
        raise NetworkError("layered DAG must contain at least one vertex")
    layers = [list(layer) for layer in ld.layers]
    units = [len(layer) for layer in layers]
    column = {v: i for i, v in enumerate(v for layer in layers for v in layer)}
    row = {v: i for layer in layers for i, v in enumerate(layer)}
    depth = layer_of(ld)

    masks = [np.zeros(shape, dtype=CHECKPOINT_DTYPE)
             for shape in _layer_shapes(input_dim, output_dim, units)]
    masks[0][:] = 1.0
    for u, v in ld.graph.edges.tolist():
        masks[depth[v]][row[v], column[u]] = 1.0
    masks[-1][:, [column[v] for v in ld.sinks]] = 1.0

    return _from_blocks(input_dim, output_dim, layers,
                        [np.zeros_like(m) for m in masks], masks,
                        [np.zeros(n, dtype=CHECKPOINT_DTYPE)
                         for n in units + [output_dim]])


def set_network_to_graph(net: MaskedNetwork) -> UndirectedGraph:
    """network_to_graph collecting one (u, v) tuple per unmasked hidden
    entry into a set."""
    order = [v for layer in net.layer_vertices for v in layer]
    edges = set()
    for l in range(1, net.n_layers):
        targets = net.layer_vertices[l]
        for j, i in zip(*np.nonzero(net.masks[l])):
            edges.add((order[net.sources[l][i]], targets[j]))
    return UndirectedGraph(len(order), frozenset(edges))


def set_candidate_param_count(g: UndirectedGraph) -> int:
    """candidate_param_count with sources and sinks from sets of edge heads
    and tails."""
    n = g.vertex_count
    edges = [tuple(e) for e in g.edges.tolist()]
    sources = n - len({v for _, v in edges})
    sinks = n - len({u for u, _ in edges})
    return INPUT_DIM * sources + g.edge_count + OUTPUT_DIM * sinks + n + OUTPUT_DIM


def floyd_warshall(g: UndirectedGraph) -> np.ndarray:
    n = g.vertex_count
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def path_counts(g: UndirectedGraph, dist: np.ndarray) -> np.ndarray:
    """sigma[s, t]: number of shortest s-t paths, by increasing distance."""
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    sigma = np.zeros((n, n))
    np.fill_diagonal(sigma, 1.0)
    max_d = int(dist[np.isfinite(dist)].max())
    for d in range(1, max_d + 1):
        for s in range(n):
            for t in range(n):
                if dist[s, t] == d:
                    sigma[s, t] = sum(sigma[s, w] for w in adj[t]
                                      if dist[s, w] == d - 1)
    return sigma


def naive_metrics(g: UndirectedGraph) -> dict:
    """Metrics of the largest component via Floyd-Warshall + path counting."""
    n = g.vertex_count
    dist = floyd_warshall(g)

    # components from distance finiteness
    seen, comps = set(), []
    for v in range(n):
        if v in seen:
            continue
        comp = sorted(w for w in range(n) if np.isfinite(dist[v, w]))
        comps.append(comp)
        seen.update(comp)
    comps.sort(key=lambda c: (-len(c), c[0]))
    comp = comps[0]
    nc = len(comp)

    if nc == 1:
        return {"diameter": 0, "avg_path_length": 0.0, "avg_eccentricity": 0.0,
                "avg_betweenness": 0.0, "avg_closeness": 0.0,
                "disconnected": len(comps) > 1}

    sub = dist[np.ix_(comp, comp)]
    ecc = sub.max(axis=1)
    closeness = (nc - 1) / sub.sum(axis=1)
    apl = sub.sum() / (nc * (nc - 1))

    sigma = path_counts(g, dist)
    bc = {v: 0.0 for v in comp}
    for s, t in combinations(comp, 2):
        if sigma[s, t] == 0:
            continue
        for v in comp:
            if v in (s, t):
                continue
            if dist[s, v] + dist[v, t] == dist[s, t]:
                bc[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    norm = (nc - 1) * (nc - 2) / 2.0 if nc > 2 else 1.0
    bc_norm = [bc[v] / norm for v in comp]

    return {
        "diameter": int(ecc.max()),
        "avg_path_length": float(apl),
        "avg_eccentricity": float(ecc.mean()),
        "avg_betweenness": float(np.mean(bc_norm)),
        "avg_closeness": float(closeness.mean()),
        "disconnected": len(comps) > 1,
    }


def shortest_path_metrics(g: UndirectedGraph) -> GraphMetrics:
    """compute_metrics as it was before the bitset BFS: every path metric
    read off one scipy shortest-path matrix of the largest component, and
    degrees counted edge by edge."""
    n = g.vertex_count
    m = g.edge_count
    density_u = 0.0 if n < 2 else m / (n * (n - 1) / 2.0)
    degrees = np.zeros(n, dtype=np.int64)
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    degree_hist = np.bincount(degrees, minlength=int(degrees.max()) + 1).tolist()

    edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(m), (edges[:, 0], edges[:, 1])), shape=(n, n))
    n_comps, labels = csgraph.connected_components(adj, directed=False)
    # argmax takes the lowest vertex among those in a largest component
    comp = np.flatnonzero(labels == labels[np.argmax(np.bincount(labels)[labels])])
    nc = len(comp)
    dist = csgraph.shortest_path(adj[comp][:, comp], directed=False,
                                 unweighted=True).astype(np.int64)

    ecc = dist.max(axis=1)
    diameter = int(ecc.max())
    row_sums = dist.sum(axis=1)
    avg_path_length = int(row_sums.sum()) / float(nc * (nc - 1)) if nc > 1 else 0.0
    return GraphMetrics(
        vertex_count=n,
        edge_count=m,
        density_undirected=density_u,
        density_directed=density_u / 2.0,
        diameter=diameter,
        avg_path_length=avg_path_length,
        avg_eccentricity=float(ecc.mean()),
        avg_betweenness=(avg_path_length - 1.0) / (nc - 2) if nc > 2 else 0.0,
        avg_closeness=float(np.mean((nc - 1) / row_sums)) if nc > 1 else 0.0,
        degree_distribution=degree_hist,
        path_length_distribution=np.bincount(
            dist[np.triu_indices(nc, 1)], minlength=diameter + 1).tolist(),
        disconnected=n_comps > 1,
    )


def longest_path_layering(vertex_count: int, edges) -> dict:
    """Layer of each vertex as the edge count of the longest path ending at
    it, by relaxing layer[v] >= layer[u] + 1 over the edges, taken in
    descending order, until nothing changes."""
    layer = [0] * vertex_count
    edges = sorted(edges, reverse=True)
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            if layer[v] < layer[u] + 1:
                layer[v] = layer[u] + 1
                changed = True
    heads = {v for _, v in edges}
    tails = {u for u, _ in edges}
    return {
        "layer_index": dict(enumerate(layer)),
        "layers": tuple(tuple(v for v in range(vertex_count) if layer[v] == k)
                        for k in range(max(layer) + 1)),
        "sources": tuple(v for v in range(vertex_count) if v not in heads),
        "sinks": tuple(v for v in range(vertex_count) if v not in tails),
    }


def float64_copy(net: MaskedNetwork) -> MaskedNetwork:
    """A copy of net whose weights, masks and biases are float64 (the
    values unchanged, the layout C-ordered)."""
    out = net.copy()
    for name in ("weights", "masks", "biases"):
        setattr(out, name, [np.ascontiguousarray(a, dtype=np.float64)
                            for a in getattr(out, name)])
    return out


def loss_at(net: MaskedNetwork, x: np.ndarray, y: int) -> float:
    logits, _, _ = forward(net, x)
    return cross_entropy(logits, y)


def finite_diff_weight_grads(net: MaskedNetwork, x: np.ndarray, y: int,
                             h: float = 1e-5) -> list[np.ndarray]:
    grads = []
    for w, m in zip(net.weights, net.masks):
        grad = np.zeros_like(w)
        for j, i in zip(*np.nonzero(m)):
            orig = w[j, i]
            w[j, i] = orig + h
            up = loss_at(net, x, y)
            w[j, i] = orig - h
            down = loss_at(net, x, y)
            w[j, i] = orig
            grad[j, i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def finite_diff_bias_grads(net: MaskedNetwork, x: np.ndarray, y: int,
                           h: float = 1e-5) -> list[np.ndarray]:
    grads = []
    for b in net.biases:
        grad = np.zeros_like(b)
        for i in range(b.size):
            orig = b[i]
            b[i] = orig + h
            up = loss_at(net, x, y)
            b[i] = orig - h
            down = loss_at(net, x, y)
            b[i] = orig
            grad[i] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def finite_diff_input_grad(net: MaskedNetwork, x: np.ndarray, y: int,
                           h: float = 1e-5,
                           pixels: np.ndarray | None = None) -> np.ndarray:
    grad = np.zeros_like(x)
    idx = range(x.size) if pixels is None else pixels
    for i in idx:
        xp = x.copy()
        xp[i] += h
        up = loss_at(net, xp, y)
        xp[i] -= 2 * h
        down = loss_at(net, xp, y)
        grad[i] = (up - down) / (2 * h)
    return grad


def keyed_weights(net: MaskedNetwork) -> dict[tuple[str, str], float]:
    """Every unmasked weight keyed by (source, target): a source is "p<pixel>"
    or "v<vertex>", a target "v<vertex>" or "c<class>". Matrix column i of
    layer l reads input feature (layer 0) or buffer column sources[l][i]."""
    order = [v for layer in net.layer_vertices for v in layer]
    keyed = {}
    for l, (w, m, cols) in enumerate(zip(net.weights, net.masks, net.sources)):
        for j, i in zip(*np.nonzero(m)):
            src = f"p{cols[i]}" if l == 0 else f"v{order[cols[i]]}"
            tgt = f"c{j}" if l == net.n_layers else f"v{net.layer_vertices[l][j]}"
            keyed[(src, tgt)] = float(w[j, i])
    return keyed


def vertex_forward_logits(net: MaskedNetwork, ld: LayeredDag, x: np.ndarray) -> np.ndarray:
    """Logits of one input, one vertex at a time in layer order: sources read
    every pixel, other vertices their DAG predecessors, classes the sinks.
    A DAG edge without an unmasked weight (pruned) counts as weight 0."""
    w = keyed_weights(net)
    preds: dict[int, list[int]] = {v: [] for v in range(ld.graph.vertex_count)}
    for u, v in ld.graph.edges:
        preds[v].append(u)
    act: dict[int, float] = {}
    for l, layer in enumerate(ld.layers):
        for j, v in enumerate(layer):
            z = net.biases[l][j]
            if l == 0:
                z += sum(w[(f"p{i}", f"v{v}")] * x[i] for i in range(net.input_dim))
            z += sum(w.get((f"v{u}", f"v{v}"), 0.0) * act[u] for u in preds[v])
            act[v] = max(z, 0.0)
    return np.array([net.biases[-1][c] + sum(w[(f"v{s}", f"c{c}")] * act[s]
                                             for s in ld.sinks)
                     for c in range(net.output_dim)])


def per_array_adam_step(params: list[np.ndarray], grads: list[np.ndarray],
                        m: list[np.ndarray], v: list[np.ndarray], t: int,
                        cfg) -> None:
    """Adam step t (1-based) with bias correction, one array at a time:
    params are updated in place, the moment lists get new arrays."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * (g * g)
        m_hat = m[i] / bc1
        v_hat = v[i] / bc2
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def sorted_shift_rand1_bin_draw(n: int, CR: float, rng: np.random.Generator
                                ) -> tuple[np.ndarray, np.ndarray]:
    """rand1_bin_draw with the members taken so far sorted per donor and
    each new donor stacked beside them."""
    taken = np.arange(n)[:, None]
    for k in (1, 2, 3):
        pick = rng.integers(n - k, size=n)
        for t in np.sort(taken, axis=1).T:
            pick += pick >= t
        taken = np.hstack([taken, pick[:, None]])
    cross = rng.random((n, 3)) < CR
    cross[np.arange(n), rng.integers(3, size=n)] = True
    return taken[:, 1:], cross


def row_max_softmax(logits: np.ndarray) -> np.ndarray:
    """softmax with the row max reduced along each row."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def row_layout_candidate_probs(net: MaskedNetwork, x: np.ndarray):
    """candidate_probs with the layer-0 pre-activations built as (n, units)
    rows of a transposed input matrix, then transposed for propagate."""
    x = np.asarray(x, dtype=net.weights[0].dtype)
    w0_rows = net.weights[0].T.copy()
    pre0 = net.weights[0] @ x + net.biases[0]

    def probs(cands: np.ndarray) -> np.ndarray:
        flat = _pixel_index(cands)
        delta = (cands[:, 2] / INTENSITY_MAX).astype(x.dtype) - x[flat]
        _, logits = propagate(net, (pre0 + w0_rows[flat] * delta[:, None]).T)
        return row_max_softmax(logits)

    return probs


def rolled_stencils() -> np.ndarray:
    """The synthetic corpus's sheared glyph stencils, rasterized one point
    at a time and sheared one np.roll per row."""
    size, sigma = _STENCIL_SIZE, 0.85
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    glyphs = []
    for d in range(10):
        canvas = np.zeros((size, size))
        for x0, y0, x1, y1 in _GLYPH_SEGMENTS[d]:
            n_pts = max(2, int(3 * size * max(abs(x1 - x0), abs(y1 - y0))))
            for t in np.linspace(0.0, 1.0, n_pts):
                px = (x0 + t * (x1 - x0)) * (size - 1)
                py = (y0 + t * (y1 - y0)) * (size - 1)
                canvas = np.maximum(canvas, np.exp(
                    -((xx - px) ** 2 + (yy - py) ** 2) / (2 * sigma ** 2)))
        glyphs.append(canvas)
    return np.array([[[np.roll(row, shear * r // size) for r, row in enumerate(glyph)]
                      for shear in range(-_SHEARS, _SHEARS + 1)]
                     for glyph in glyphs])


def spearman_rank_diff(xs, ys) -> float:
    """Tie-free Spearman via the rank-difference formula."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    n = len(xs)
    rx = np.argsort(np.argsort(xs))
    ry = np.argsort(np.argsort(ys))
    d = rx - ry
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def kendall_pair_count(xs, ys) -> float:
    """Tie-free Kendall via exhaustive concordant/discordant counting."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    n = len(xs)
    concordant = discordant = 0
    for i, j in combinations(range(n), 2):
        s = np.sign(xs[i] - xs[j]) * np.sign(ys[i] - ys[j])
        if s > 0:
            concordant += 1
        elif s < 0:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def write_idx_images(path, images_u8: np.ndarray) -> None:
    """Write (n, rows, cols) uint8 images in IDX format (gzipped iff *.gz)."""
    n, rows, cols = images_u8.shape
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images_u8.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def write_synthetic_idx(data_dir, train_n: int, test_n: int, seed: int) -> None:
    """Materialize the synthetic corpus as standard-named IDX files."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    for split, count, sub_seed in (("train", train_n, seed), ("test", test_n, seed + 1)):
        ds = synthetic_dataset(count, sub_seed, split)
        imgs = np.round(ds.images * 255).astype(np.uint8).reshape(count, 28, 28)
        img_name, lbl_name = MNIST_FILES[split]
        write_idx_images(data_dir / img_name, imgs)
        write_idx_labels(data_dir / lbl_name, ds.labels)
