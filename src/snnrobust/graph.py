"""Watts-Strogatz graph generation, layering, and metrics.

Undirected graphs are generated from a ring lattice with random rewiring
(Watts & Strogatz 1998; all coins drawn in one call, each new endpoint by
rejection from batched integer draws). One UndirectedGraph value runs from
the generator to the network. Its edges are one read-only, sorted
(edge_count, 2) int64 array of rows (u, v) with u < v, built and read with
array operations everywhere. Directing each edge from the lower index to
the higher (as Xie et al. 2019 do) gives the same edge set: the graph is
its own acyclic orientation. layer_dag layers it by the max-predecessor
rule, and network_to_graph recovers it from a network.
Metric computation (density, distances, centralities) runs on the
undirected graph; the directed density of the orientation is recorded
alongside. Distances come from a breadth-first search from every vertex at
once, one bit per source, so no distance matrix is built and scipy is not
needed. The graph file format belongs to the results store.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


class GraphError(ValueError):
    """Invalid graph input or parameter."""


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph on vertices 0..vertex_count-1.

    edges is a read-only (edge_count, 2) int64 array of rows (u, v) with
    u < v, in sorted order: no self-loops, no duplicates. The constructor
    takes such rows in any order, as an array or any iterable of pairs,
    checks them in one vectorized pass and stores them sorted; make_graph
    canonicalizes pairs from outside. Two graphs are equal when their
    vertex counts and edges are.
    """

    vertex_count: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.vertex_count
        if n < 1:
            raise GraphError("vertex_count must be positive")
        edges = _pairs(self.edges)
        u, v = edges[:, 0], edges[:, 1]
        loops = np.flatnonzero(u == v)
        if len(loops):
            raise GraphError(f"self-loop at vertex {u[loops[0]]}")
        bad = np.flatnonzero((u < 0) | (u > v) | (v >= n))
        if len(bad):
            raise GraphError(f"edge ({u[bad[0]]},{v[bad[0]]}) out of range or not canonical")
        # u * n + v orders the rows as (u, v) pairs do
        key = np.sort(u * n + v)
        edges = np.column_stack(np.divmod(key, n))
        dup = np.flatnonzero(key[1:] == key[:-1])
        if len(dup):
            raise GraphError(f"duplicate edge ({edges[dup[0], 0]},{edges[dup[0], 1]})")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and np.array_equal(self.edges, other.edges))

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges.tobytes()))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.vertex_count)


def _pairs(edges) -> np.ndarray:
    """The given pairs, an array or any iterable of them, as an int64
    (count, 2) array."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    return pairs


def make_graph(vertex_count: int, edges) -> UndirectedGraph:
    """Build an UndirectedGraph from any pairs, turning each into u < v and
    dropping repeats."""
    edges = _pairs(edges)
    loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
    if len(loops):
        raise GraphError(f"self-loop at vertex {edges[loops[0], 0]}")
    return UndirectedGraph(vertex_count, np.unique(np.sort(edges, axis=1), axis=0))


@dataclass(frozen=True)
class LayeredDag:
    """A graph, its edges directed from lower to higher index, with the
    max-predecessor layering.

    layer_index maps each vertex to its layer; layers is the corresponding
    ordered partition (vertex ids ascending within each layer). Layer 0 is
    exactly the in-degree-0 vertices; sinks are the out-degree-0 ones.
    """

    graph: UndirectedGraph
    layer_index: dict[int, int]
    layers: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]


def generate_ws(size: int, nei: int, p: float, seed: int) -> UndirectedGraph:
    """Generate a Watts-Strogatz graph.

    Starts from a ring lattice where each vertex connects to its `nei`
    nearest neighbors on each side (degree 2*nei), then visits every lattice
    edge (u, u+k), k-major, and with probability `p` replaces its far
    endpoint with a uniformly chosen vertex that is neither u nor already
    adjacent to u. Rewiring preserves the edge count (size * nei) exactly.

    All coins come from one `rng.random((nei, size))` call. Each new endpoint
    is the next `rng.integers(size)` draw that is neither u nor a neighbour
    of u, which makes it uniform over the allowed vertices; the draws are
    fetched in batches as large as the number of coins below p. Only this
    loop runs vertex by vertex, on neighbour sets; it records the new
    endpoint of each visit it rewires. The edges are then the lattice edges
    it left plus the ones it added, two disjoint parts: a lattice edge
    {u, u+k} is only ever removed by its own visit, because k + k' < size
    for any two offsets, so it is still present when visited; an added edge
    was absent when it was added, so it is neither a lattice edge still to
    be visited nor ever removed.
    """
    if nei < 1:
        raise GraphError("nei must be >= 1")
    if size < 2 * nei + 1:
        raise GraphError(f"size must be >= 2*nei+1, got size={size}, nei={nei}")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"rewiring probability must be in [0,1], got {p}")

    rng = np.random.default_rng(seed)
    ring = list(range(size)) * 3
    adj = [{*ring[u + size - nei:u + size], *ring[u + size + 1:u + size + nei + 1]}
           for u in range(size)]
    ks, us = np.nonzero(rng.random((nei, size)) < p)
    draws = _batched_integers(rng, size, len(us))
    ends = []  # per coin below p: the new endpoint, or -1 if u had no room
    for k, u in zip(ks.tolist(), us.tolist()):
        nbrs = adj[u]
        if len(nbrs) >= size - 1:
            ends.append(-1)
            continue
        w = next(draws)
        while w == u or w in nbrs:
            w = next(draws)
        v = (u + k + 1) % size
        nbrs.discard(v)
        adj[v].discard(u)
        nbrs.add(w)
        adj[w].add(u)
        ends.append(w)

    ends = np.array(ends, dtype=np.int64)
    rewired = ends >= 0
    lattice_u = np.tile(np.arange(size), nei)
    lattice_v = (lattice_u + np.repeat(np.arange(1, nei + 1), size)) % size
    kept = np.ones(nei * size, dtype=bool)
    kept[ks[rewired] * size + us[rewired]] = False
    u = np.concatenate([lattice_u[kept], us[rewired]])
    v = np.concatenate([lattice_v[kept], ends[rewired]])
    return UndirectedGraph(size, np.column_stack([np.minimum(u, v), np.maximum(u, v)]))


def _batched_integers(rng: np.random.Generator, high: int, batch: int):
    """Endless uniform draws from [0, high), fetched `batch` at a time."""
    while True:
        yield from rng.integers(high, size=batch).tolist()


def to_dag(g: UndirectedGraph) -> UndirectedGraph:
    """The acyclic orientation of g, which is g itself.

    Directing every edge {i, j} from i to j with i < j keeps the lower
    triangle of the adjacency matrix, and an UndirectedGraph already stores
    each edge as (i, j) with i < j. Every directed edge increases the vertex
    index, so no cycle exists. Kept for the benchmark workloads, which still
    call it; the package itself passes the graph to layer_dag directly.
    """
    return g


def layer_dag(g: UndirectedGraph) -> LayeredDag:
    """Assign each vertex the layer 1 + max(layer of predecessors); vertices
    with in-degree zero get layer 0.

    Each edge (u, v), u < v, is directed from u to v. The rows are sorted
    by u, so one pass over them meets every edge into u before any edge
    out of u: u's layer is final when it is read.
    """
    n = g.vertex_count
    layer = [0] * n
    # two lists of ints, not a list per row: ints are not tracked by the
    # cyclic garbage collector, so a large graph triggers no full collection
    for u, v in zip(g.edges[:, 0].tolist(), g.edges[:, 1].tolist()):
        if layer[u] >= layer[v]:
            layer[v] = layer[u] + 1
    depth = np.array(layer, dtype=np.int64)
    order = np.argsort(depth, kind="stable").tolist()
    bounds = [0, *np.cumsum(np.bincount(depth)).tolist()]
    layers = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
    sinks = np.flatnonzero(np.bincount(g.edges[:, 0], minlength=n) == 0)
    return LayeredDag(graph=g, layer_index=dict(enumerate(layer)), layers=layers,
                      sinks=tuple(sinks.tolist()))


@dataclass
class GraphMetrics:
    """Graph-theoretic summary of an undirected graph.

    Path-based quantities (diameter, path lengths, eccentricity, betweenness,
    closeness) are computed on the largest connected component when the graph
    is disconnected; `disconnected` records that this happened. Densities and
    the degree distribution always refer to the whole graph.
    """

    vertex_count: int
    edge_count: int
    density_undirected: float
    density_directed: float
    diameter: int
    avg_path_length: float
    avg_eccentricity: float
    avg_betweenness: float
    avg_closeness: float
    degree_distribution: list[int] = field(default_factory=list)
    path_length_distribution: list[int] = field(default_factory=list)
    disconnected: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GraphMetrics":
        return cls(**d)


def _bfs_levels(g: UndirectedGraph) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first search from every vertex at once, on bitsets.

    Vertex v holds the set of sources that have reached it, one bit per
    source in ceil(n/64) uint64 words. A level ORs each vertex's neighbours'
    frontier bits and keeps those it has not seen. Returns the final seen
    bitsets, in which row v is the vertex set of v's component, and for each
    distance k >= 1 the number of sources that first reach each vertex at k:
    the vertices at distance k from it.
    """
    n = g.vertex_count
    edges = g.edges
    order = np.argsort(edges.ravel(), kind="stable")
    neighbours = edges[:, ::-1].ravel()[order]
    degrees = np.bincount(edges.ravel(), minlength=n)
    # reduceat runs over the vertices with neighbours; an isolated vertex
    # would read one element of the next run
    active = np.flatnonzero(degrees)
    starts = (np.cumsum(degrees) - degrees)[active]

    v = np.arange(n)
    seen = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    seen[v, v >> 6] = np.uint64(1) << (v & 63).astype(np.uint64)
    front, counts = seen, []
    while len(neighbours):
        reached = np.zeros_like(seen)
        reached[active] = np.bitwise_or.reduceat(front[neighbours], starts, axis=0)
        reached &= ~seen
        new = np.bitwise_count(reached).sum(axis=1, dtype=np.int64)
        if not new.any():
            break
        seen |= reached
        front = reached
        counts.append(new)
    return seen, counts


def compute_metrics(g: UndirectedGraph) -> GraphMetrics:
    """Compute the full metric set for an undirected graph.

    Densities: undirected |E| / (n(n-1)/2); directed density of the derived
    DAG is half that (same edge set). Path metrics come from exact per-vertex
    counts of the vertices at each distance (`_bfs_levels`), taken over the
    largest component (on a size tie, the one holding the lowest vertex),
    with n its size: closeness is (n-1) / sum of distances, and betweenness
    is normalized by (n-1)(n-2)/2. Every shortest s-t path has d(s,t) - 1
    interior vertices, so the betweenness summed over vertices is sum over
    pairs of (d(s,t) - 1), and its mean is (avg_path_length - 1) / (n - 2).
    """
    n = g.vertex_count
    m = g.edge_count
    density_u = 0.0 if n < 2 else m / (n * (n - 1) / 2.0)
    degrees = g.degrees()
    degree_hist = np.bincount(degrees, minlength=int(degrees.max()) + 1).tolist()

    seen, counts = _bfs_levels(g)
    sizes = np.bitwise_count(seen).sum(axis=1, dtype=np.int64)
    # argmax takes the lowest vertex among those in a largest component
    v0 = int(np.argmax(sizes))
    comp = ((seen[:, v0 >> 6] >> np.uint64(v0 & 63)) & np.uint64(1)) == 1
    nc = int(sizes[v0])
    levels = [c[comp] for c in counts]
    pair_counts = [0] + [int(c.sum()) // 2 for c in levels if c.any()]
    diameter = len(pair_counts) - 1
    ecc = np.zeros(nc, dtype=np.int64)
    row_sums = np.zeros(nc, dtype=np.int64)
    for k, c in enumerate(levels, start=1):
        ecc[c > 0] = k
        row_sums += k * c

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
        path_length_distribution=pair_counts,
        disconnected=nc < n,
    )
