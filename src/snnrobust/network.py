"""Masked feed-forward networks built from layered DAGs.

A network holds, per target layer, one dense weight matrix W, one binary
mask M of the same shape, and the sorted columns `sources[l]` that the
matrix reads. The hidden activations live in one unit-major buffer, hidden
layer l in rows offsets[l]:offsets[l+1], so every target layer is one
matmul over the rows it gathers:
  * layer 0 (the in-degree-0 vertices) reads the network input; its matrix
    is (layer_units[0], input_dim) with an all-ones mask, and sources[0]
    lists every input feature;
  * hidden layer l > 0 reads the buffer rows sources[l], the earlier hidden
    units with at least one unmasked edge into it (skip connections
    included); its matrix is (layer_units[l], len(sources[l])) and the mask
    mirrors the DAG edges;
  * the output reads the sinks (no outgoing DAG edge, whatever their
    layer); its matrix is (output_dim, len(sinks)) with an all-ones mask.

sources[l] therefore holds the columns with an unmasked entry of layer l's
full-width block, whose columns are the input features (layer 0) or every
earlier hidden unit in vertex-layer order. Checkpoints store those blocks;
a column that loses its last unmasked entry to pruning is dropped.

Weights are zero wherever the mask is: construction, initialization and
pruning write zeros there, and backward() masks the weight gradients, so
Adam's moments and updates stay zero at masked positions too.

Every weight and mask matrix is C-ordered, whichever function made it:
dropping columns (`_keep_live_columns`) copies to C order, and
`init_weights` allocates fresh C arrays. The layout is part of the result:
BLAS rounds a product differently for a C-ordered and a Fortran-ordered
matrix, in every single-image product (gemv) and in batched ones (GEMM) of
some shapes, so a trained, a loaded and a pruned net agree to the bit only
in one layout. `train` moves the weights and biases into one flat buffer
(`flatten_params`); they stay C-ordered views into it.

One precision runs from training to disk: every weight, mask and bias is
CHECKPOINT_DTYPE (float32), the dtype the checkpoint stores. `data` builds
its images in it too. Everything downstream follows the dtype of the
weights: forward casts its input to it, and the activation buffer, the
gradients, Adam's moments and the attacks' images inherit it. A net whose
arrays are cast to float64 runs the same code in float64; the tests check
algebraic identities (finite differences, the vertex-by-vertex oracle) on
such a copy.

Hidden layers apply ReLU; the output layer is affine followed by softmax.
"""

from __future__ import annotations

import json
import struct
from copy import deepcopy
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .graph import LayeredDag, UndirectedGraph
from .store import atomic_open

CHECKPOINT_MAGIC = b"SNNCKPT1"
CHECKPOINT_SCHEMA_VERSION = 2
# the one precision of images, weights, gradients and stored values
CHECKPOINT_DTYPE = np.dtype("<f4")

INIT_METHODS = ("G_N", "G_U", "He_N", "He_U", "N", "U")


class NetworkError(ValueError):
    """Invalid network construction or use."""


class StaleCacheError(RuntimeError):
    """A forward cache no longer matches the network parameters."""


@dataclass
class MaskedNetwork:
    """Its layout is stored once, as each hidden layer's vertex ids in row
    order (layer_vertices); the unit counts and offsets derive from it, and
    the sinks the output reads are the columns sources[-1]."""

    input_dim: int
    output_dim: int
    layer_vertices: list[list[int]]
    weights: list[np.ndarray]  # one per hidden layer, then the output matrix
    masks: list[np.ndarray]    # aligned with weights
    sources: list[np.ndarray]  # aligned with weights: the columns each reads
    biases: list[np.ndarray]   # one per hidden layer, then the output bias
    init_method: str | None = None
    version: int = field(default=0, repr=False)

    @property
    def layer_units(self) -> list[int]:
        return [len(v) for v in self.layer_vertices]

    @property
    def n_layers(self) -> int:
        return len(self.layer_vertices)

    @property
    def offsets(self) -> list[int]:
        """First activation-buffer row of each hidden layer, then the total
        hidden width."""
        return [0, *accumulate(self.layer_units)]

    def mark_mutated(self) -> None:
        self.version += 1

    def copy(self) -> "MaskedNetwork":
        out = deepcopy(self)
        out.version = 0
        return out

    def assert_mask_invariant(self) -> None:
        for w, m in zip(self.weights, self.masks):
            if np.any(w[m == 0] != 0.0):
                raise NetworkError("nonzero weight at masked position")


@dataclass
class ForwardCache:
    x: np.ndarray            # (batch, input_dim)
    acts: np.ndarray         # (offsets[-1], batch) post-ReLU activation buffer
    probs: np.ndarray
    single: bool
    version: int


def _layer_shapes(input_dim: int, output_dim: int,
                  units: list[int]) -> list[tuple[int, int]]:
    """Shapes of the full-width blocks, one per target layer."""
    offsets = [0, *accumulate(units)]
    return ([(units[0], input_dim)]
            + [(units[l], offsets[l]) for l in range(1, len(units))]
            + [(output_dim, offsets[-1])])


def _columns(offsets: list[int], input_dim: int, source_layer: int) -> slice:
    """Columns that a source layer occupies in its target layer's full-width
    block; source layer -1 is the network input."""
    if source_layer < 0:
        return slice(0, input_dim)
    return slice(offsets[source_layer], offsets[source_layer + 1])


def _keep_live_columns(net: MaskedNetwork) -> None:
    """Drop, in place, every matrix column without an unmasked entry."""
    for l, m in enumerate(net.masks):
        live = m.any(axis=0)
        if not live.all():
            net.sources[l] = net.sources[l][live]
            net.masks[l] = np.ascontiguousarray(m[:, live])
            net.weights[l] = np.ascontiguousarray(net.weights[l][:, live])


def _from_blocks(input_dim: int, output_dim: int, layer_vertices: list[list[int]],
                weights: list[np.ndarray], masks: list[np.ndarray],
                biases: list[np.ndarray], init_method: str | None = None
                ) -> MaskedNetwork:
    """The network of full-width blocks, narrowed to their live columns;
    raises NetworkError on a nonzero weight at a masked position."""
    net = MaskedNetwork(input_dim, output_dim, layer_vertices,
                        weights, masks, [np.arange(m.shape[1]) for m in masks],
                        biases, init_method=init_method)
    net.assert_mask_invariant()
    _keep_live_columns(net)
    return net


def build_network(ld: LayeredDag, input_dim: int, output_dim: int) -> MaskedNetwork:
    """Construct the zero-weight masked network induced by a layered DAG."""
    if ld.graph.vertex_count < 1 or not ld.layers:
        raise NetworkError("layered DAG must contain at least one vertex")
    if input_dim < 1 or output_dim < 1:
        raise NetworkError("input_dim and output_dim must be >= 1")

    layers = [list(layer) for layer in ld.layers]
    units = [len(layer) for layer in layers]
    column = {v: i for i, v in enumerate(v for layer in layers for v in layer)}
    row = {v: i for layer in layers for i, v in enumerate(layer)}

    masks = [np.zeros(shape, dtype=CHECKPOINT_DTYPE)
             for shape in _layer_shapes(input_dim, output_dim, units)]
    masks[0][:] = 1.0
    for u, v in ld.graph.edges:
        masks[ld.layer_index[v]][row[v], column[u]] = 1.0
    masks[-1][:, [column[v] for v in ld.sinks]] = 1.0

    return _from_blocks(input_dim, output_dim, layers,
                       [np.zeros_like(m) for m in masks], masks,
                       [np.zeros(n, dtype=CHECKPOINT_DTYPE)
                        for n in units + [output_dim]])


def init_weights(net: MaskedNetwork, method: str, seed: int) -> MaskedNetwork:
    """Return a copy of `net` with freshly initialized weights.

    Methods: G_N / G_U (Glorot normal/uniform, gain sqrt(2)), He_N / He_U
    (fan-in Kaiming with a=0, gain sqrt(2)), N (normal, mean 0, std 0.1),
    U (uniform on [-0.1, 0.1]). Each (source layer, target layer) block that
    carries a connection is drawn whole, with the block's own fans, in the
    order input block, hidden blocks by (source, target), output blocks by
    source; the live columns are kept and masked entries zeroed. Biases stay
    zero. Weights are drawn in float64 and cast once to the masks' dtype.
    """
    if method not in INIT_METHODS:
        raise NetworkError(f"unknown init method {method!r}; expected one of {INIT_METHODS}")
    rng = np.random.default_rng(seed)
    gain = np.sqrt(2.0)
    out = net.copy()
    out.weights = [np.zeros_like(m) for m in out.masks]
    L, offsets = out.n_layers, out.offsets
    pairs = ([(-1, 0)] + [(s, l) for s in range(L) for l in range(s + 1, L)]
             + [(t, L) for t in range(L)])
    for s, t in pairs:
        block = _columns(offsets, out.input_dim, s)
        lo, hi = np.searchsorted(out.sources[t], (block.start, block.stop))
        m = out.masks[t][:, lo:hi]
        if not m.any():
            continue
        shape = (m.shape[0], block.stop - block.start)
        fan_out, fan_in = shape
        if method == "G_N":
            std = gain * np.sqrt(2.0 / (fan_in + fan_out))
            w = rng.normal(0.0, std, size=shape)
        elif method == "G_U":
            bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=shape)
        elif method == "He_N":
            std = gain / np.sqrt(fan_in)
            w = rng.normal(0.0, std, size=shape)
        elif method == "He_U":
            bound = gain * np.sqrt(3.0 / fan_in)
            w = rng.uniform(-bound, bound, size=shape)
        elif method == "N":
            w = rng.normal(0.0, 0.1, size=shape)
        else:  # "U"
            w = rng.uniform(-0.1, 0.1, size=shape)
        out.weights[t][:, lo:hi] = w[:, out.sources[t][lo:hi] - block.start] * m
    out.biases = [np.zeros_like(b) for b in out.biases]
    out.init_method = method
    out.mark_mutated()
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (batch, classes) logits, shifted by the row max.

    The row maximum is reduced over a transposed contiguous copy: one
    vectorized pass per class instead of one short reduction per row. A
    maximum does not depend on the order it is taken in, except for which
    zero it keeps of a tied +0 and -0; subtracting either zero changes only
    the sign of a zero, and exp maps both zeros to 1. The row sum keeps
    numpy's own order, so the probabilities are bit for bit those of a
    plain row-wise max.
    """
    e = np.exp(logits - logits.T.copy().max(axis=0)[:, None])
    return e / e.sum(axis=-1, keepdims=True)


def propagate(net: MaskedNetwork, pre0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network from the layer-0 pre-activations pre0, a
    (layer_units[0], batch) array, through hidden layers >= 1 and the output.

    Returns (the (offsets[-1], batch) post-ReLU activation buffer;
    (batch, output_dim) logits). Each hidden layer's product is written
    straight into its rows of the buffer, then biased and rectified there.
    """
    offsets = net.offsets
    acts = np.empty((offsets[-1], pre0.shape[1]), dtype=pre0.dtype)
    np.maximum(pre0, 0.0, out=acts[:offsets[1]])
    for l in range(1, net.n_layers):
        z = acts[offsets[l]:offsets[l + 1]]
        np.matmul(net.weights[l], acts[net.sources[l]], out=z)
        z += net.biases[l][:, None]
        np.maximum(z, 0.0, out=z)
    logits = acts[net.sources[-1]].T @ net.weights[-1].T + net.biases[-1]
    return acts, logits


def forward(net: MaskedNetwork, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Run the network on one input vector or a (batch, input_dim) array.

    The input is cast to the weights' dtype. Returns (logits, class
    probabilities, cache); the cache feeds backward().
    """
    x = np.asarray(x, dtype=net.weights[0].dtype)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise NetworkError(f"input must have {net.input_dim} features, got shape {x.shape}")

    acts, logits = propagate(net, net.weights[0] @ X.T + net.biases[0][:, None])
    probs = softmax(logits)

    cache = ForwardCache(x=X, acts=acts, probs=probs, single=single, version=net.version)
    if single:
        return logits[0], probs[0], cache
    return logits, probs, cache


def cross_entropy(logits: np.ndarray, labels: np.ndarray | int) -> float:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(log_norm - z[np.arange(len(labels)), labels]))


def backward(
    net: MaskedNetwork, cache: ForwardCache, label: np.ndarray | int,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None, *,
    params: bool = True, input_grad: bool = True,
) -> tuple[list[np.ndarray] | None, list[np.ndarray] | None, np.ndarray | None]:
    """Gradients of the mean cross-entropy loss for the cached forward pass.

    Returns (weight gradients aligned with net.weights, bias gradients
    aligned with net.biases, gradient with respect to the input). Weight
    gradients are multiplied by the masks, so they are zero at masked
    positions. ReLU takes derivative 0 at exactly 0; the gate reads the
    post-ReLU buffer, since max(z, 0) > 0 exactly when z > 0.

    `out`, a (weight gradients, bias gradients) pair of C-ordered arrays
    shaped like net.weights and net.biases, receives the parameter gradients
    in place and is returned; without it they are freshly allocated.
    params=False skips the parameter gradients and input_grad=False the
    input gradient; a skipped part is returned as None.
    """
    if cache.version != net.version:
        raise StaleCacheError("forward cache predates a parameter mutation")
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    B = cache.x.shape[0]
    if labels.shape[0] != B:
        raise NetworkError(f"got {labels.shape[0]} labels for batch of {B}")

    L, offsets = net.n_layers, net.offsets
    onehot = np.zeros_like(cache.probs)
    onehot[np.arange(B), labels] = 1.0
    dz = ((cache.probs - onehot) / B).T  # (output_dim, batch)
    d_acts = np.zeros_like(cache.acts)

    weight_grads = bias_grads = None
    if params:
        weight_grads, bias_grads = out if out is not None else param_views(
            net, np.empty(sum(p.size for p in net.weights + net.biases),
                          dtype=net.weights[0].dtype))
    for l in range(L, -1, -1):
        if l < L:
            rows = slice(offsets[l], offsets[l + 1])
            dz = d_acts[rows] * (cache.acts[rows] > 0.0)
        if params:
            np.sum(dz, axis=1, out=bias_grads[l])
            src = cache.x.T if l == 0 else cache.acts[net.sources[l]]
            np.matmul(dz, src.T, out=weight_grads[l])
            weight_grads[l] *= net.masks[l]
        if l > 0:
            d_acts[net.sources[l]] += net.weights[l].T @ dz

    dx = None
    if input_grad:
        dx = dz.T @ net.weights[0]
        if cache.single:
            dx = dx[0]
    return weight_grads, bias_grads, dx


def param_views(net: MaskedNetwork, flat: np.ndarray
                ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """C-ordered views of a flat buffer shaped like net.weights and
    net.biases, laid out weights first, then biases, each row-major."""
    views, start = [], 0
    for p in net.weights + net.biases:
        views.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return views[:len(net.weights)], views[len(net.weights):]


def flatten_params(net: MaskedNetwork) -> np.ndarray:
    """Move every weight and bias of `net` into one flat buffer of their
    dtype, in the layout of param_views, and make net.weights and net.biases
    views into it. Values are unchanged; returns the buffer."""
    flat = np.concatenate([p.ravel() for p in net.weights + net.biases])
    net.weights, net.biases = param_views(net, flat)
    return flat


def param_count(net: MaskedNetwork) -> int:
    """Unmasked weight count plus all bias lengths."""
    return int(sum(m.sum() for m in net.masks) + sum(b.size for b in net.biases))


def prune_random(net: MaskedNetwork, alpha: float, seed: int) -> MaskedNetwork:
    """Zero floor(alpha * nonzero) hidden-to-hidden mask entries uniformly.

    Hidden edges are enumerated by target layer, then row-major within the
    layer's mask (its columns are sorted, so this is the order over the
    full-width block too). Input and output masks are untouched; pruned
    positions have both mask and weight set to zero in the returned copy,
    and a column left without an unmasked entry is dropped.
    """
    if not (0.0 <= alpha <= 1.0):
        raise NetworkError(f"alpha must be in [0,1], got {alpha}")
    out = net.copy()
    edges = [(l, *np.nonzero(out.masks[l])) for l in range(1, out.n_layers)]
    total = sum(rows.size for _, rows, _ in edges)
    k = int(np.floor(alpha * total))
    if k == 0:
        return out
    rng = np.random.default_rng(seed)
    chosen = np.zeros(total, dtype=bool)
    chosen[rng.choice(total, size=k, replace=False)] = True
    start = 0
    for l, rows, cols in edges:
        hit = chosen[start:start + rows.size]
        start += rows.size
        out.masks[l][rows[hit], cols[hit]] = 0.0
        out.weights[l][rows[hit], cols[hit]] = 0.0
    _keep_live_columns(out)
    out.mark_mutated()
    return out


def network_to_graph(net: MaskedNetwork) -> UndirectedGraph:
    """Recover the hidden-structure graph: one vertex per hidden unit, one
    edge (u, v), directed from u to v, per surviving hidden mask entry."""
    order = [v for layer in net.layer_vertices for v in layer]
    edges = set()
    for l in range(1, net.n_layers):
        targets = net.layer_vertices[l]
        for j, i in zip(*np.nonzero(net.masks[l])):
            edges.add((order[net.sources[l][i]], targets[j]))
    return UndirectedGraph(len(order), frozenset(edges))


def _sinks(net: MaskedNetwork) -> list[int]:
    """Sorted vertex ids of the hidden units the output layer reads."""
    order = [v for layer in net.layer_vertices for v in layer]
    return sorted(order[c] for c in net.sources[-1])


def save_checkpoint(net: MaskedNetwork, path, extra: dict | None = None) -> None:
    """Write a checkpoint atomically: magic, JSON header, then per layer the
    weights (CHECKPOINT_DTYPE, float32) and bit-packed mask of its
    full-width block, then the biases (CHECKPOINT_DTYPE). The header's
    layer_units and sinks are derived from layer_vertices and the output
    layer's columns; load_checkpoint checks them against those."""
    header = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "layer_units": net.layer_units,
        "layer_vertices": [list(v) for v in net.layer_vertices],
        "sinks": _sinks(net),
        "init_method": net.init_method,
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        shapes = _layer_shapes(net.input_dim, net.output_dim, net.layer_units)
        for shape, w, m, cols in zip(shapes, net.weights, net.masks, net.sources):
            block = np.zeros(shape, dtype=CHECKPOINT_DTYPE)
            block[:, cols] = w
            f.write(block.tobytes())
            block_mask = np.zeros(shape, dtype=np.uint8)
            block_mask[:, cols] = m
            f.write(np.packbits(block_mask).tobytes())
        for b in net.biases:
            f.write(b.astype(CHECKPOINT_DTYPE).tobytes())


def load_checkpoint(path) -> tuple[MaskedNetwork, dict]:
    """Read a checkpoint of schema 2 into a CHECKPOINT_DTYPE net, the
    stored values unchanged; each layer's full-width block is then narrowed
    to its live columns. The layer shapes come from layer_vertices. Raises
    NetworkError on a bad magic, any other schema, a truncated file, a
    nonzero weight at a masked position, or a header whose layer_units or
    sinks disagree with layer_vertices and the output layer's columns."""
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise NetworkError(f"checkpoint {path} is truncated")
        pos += n
        return buf[pos - n:pos]

    def take_values(count: int) -> np.ndarray:
        # a writable, aligned copy: frombuffer alone is a read-only view
        return np.frombuffer(take(CHECKPOINT_DTYPE.itemsize * count),
                             dtype=CHECKPOINT_DTYPE).copy()

    magic = take(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise NetworkError(f"bad checkpoint magic {magic!r}")
    (blob_len,) = struct.unpack("<I", take(4))
    header = json.loads(take(blob_len).decode("utf-8"))
    version = header.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise NetworkError(f"unsupported checkpoint schema version {version!r}")
    vertices = [list(v) for v in header["layer_vertices"]]
    units = [len(v) for v in vertices]
    weights, masks = [], []
    for shape in _layer_shapes(header["input_dim"], header["output_dim"], units):
        size = shape[0] * shape[1]
        weights.append(take_values(size).reshape(shape))
        packed = np.frombuffer(take((size + 7) // 8), dtype=np.uint8)
        masks.append(np.unpackbits(packed, count=size).reshape(shape)
                     .astype(CHECKPOINT_DTYPE))
    biases = [take_values(n) for n in units + [header["output_dim"]]]
    net = _from_blocks(header["input_dim"], header["output_dim"], vertices,
                       weights, masks, biases, init_method=header.get("init_method"))
    if header["layer_units"] != units or header["sinks"] != _sinks(net):
        raise NetworkError(f"checkpoint {path}: header layer_units or sinks "
                           "disagree with its layer_vertices")
    return net, header
