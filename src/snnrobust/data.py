"""Image dataset loading: MNIST-style IDX files plus a synthetic stand-in.

Images are served as flattened float32 vectors in [0, 1], the checkpoint's
dtype and the one precision the network trains, evaluates and is attacked
in; pixel bytes are scaled by 1/255 in float32. The synthetic corpus renders
ten distinct digit glyphs with random shifts, shears, intensity jitter, and
noise; it exists so the full pipeline can run in environments where the
MNIST files are not available, and is clearly labeled as such wherever it
is used.

Both loaders take a ``count`` and build only the first ``count`` images of
a split: ``load_idx`` converts only that prefix of the file's bytes, and
``synthetic_dataset`` stops its per-image loop there, so its prefix is bit
for bit the first ``count`` images of the whole corpus. Each split is held
once, as one float32 array.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import CHECKPOINT_DTYPE

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class DataFormatError(ValueError):
    """Malformed or inconsistent dataset files."""


@dataclass
class Dataset:
    images: np.ndarray  # (n, width*height) floats in [0, 1]
    labels: np.ndarray  # (n,) ints in {0..9}
    split: str

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        # written so that NaN, which compares False, fails the check
        if self.images.size and not (self.images.min() >= 0.0
                                     and self.images.max() <= 1.0):
            raise DataFormatError("pixel values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise DataFormatError("labels must lie in {0..9}")

    @property
    def n(self) -> int:
        return int(self.images.shape[0])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.images[idx], self.labels[idx], self.split)


def _open_maybe_gzip(path):
    path = Path(path)
    f = open(path, "rb")
    head = f.read(2)
    f.seek(0)
    if head == b"\x1f\x8b":
        f.close()
        return gzip.open(path, "rb")
    return f


def _read_idx_dims(f, path, expected_magic: int) -> tuple[int, ...]:
    raw = f.read(4)
    if len(raw) < 4:
        raise DataFormatError(f"{path}: truncated header")
    (magic,) = struct.unpack(">I", raw)
    if magic != expected_magic:
        raise DataFormatError(f"{path}: magic {magic}, expected {expected_magic}")
    ndim = magic & 0xFF
    return struct.unpack(f">{ndim}I", f.read(4 * ndim))


def _read_idx(path, expected_magic: int) -> np.ndarray:
    with _open_maybe_gzip(path) as f:
        dims = _read_idx_dims(f, path, expected_magic)
        data = f.read()
    count = int(np.prod(dims))
    if len(data) < count:
        raise DataFormatError(f"{path}: expected {count} bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, count=count).reshape(dims)


def _prefix_count(n: int, count: int | None) -> int:
    if count is None:
        return n
    if not 0 <= count <= n:
        raise ValueError(f"count {count} outside [0, {n}]")
    return count


def load_idx(images_path, labels_path, split: str = "train",
             count: int | None = None) -> Dataset:
    """Load an IDX image/label file pair (plain or gzipped), or the first
    ``count`` images of it.

    Pixels are scaled by 1/255 and rows are flattened row-major. Only the
    prefix is converted to float32, and it is divided in place, so the split
    is held once, each pixel the correctly rounded float32 of byte / 255.
    """
    imgs = _read_idx(images_path, IMAGE_MAGIC)
    labels = _read_idx(labels_path, LABEL_MAGIC)
    if imgs.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {imgs.shape[0]} != label count {labels.shape[0]}")
    count = _prefix_count(imgs.shape[0], count)
    flat = imgs[:count].reshape(count, int(np.prod(imgs.shape[1:]))).astype(CHECKPOINT_DTYPE)
    flat /= 255.0
    return Dataset(flat, labels[:count].astype(np.int64), split)


def find_mnist(data_dir) -> dict[str, tuple[Path, Path]] | None:
    """Locate the standard MNIST IDX files (optionally gzipped) in a directory."""
    data_dir = Path(data_dir)
    found = {}
    for split, (img_name, lbl_name) in MNIST_FILES.items():
        pair = []
        for name in (img_name, lbl_name):
            for candidate in (data_dir / name, data_dir / (name + ".gz")):
                if candidate.exists():
                    pair.append(candidate)
                    break
        if len(pair) != 2:
            return None
        found[split] = (pair[0], pair[1])
    return found


def _mnist_paths(data_dir) -> dict[str, tuple[Path, Path]]:
    paths = find_mnist(data_dir)
    if paths is None:
        raise DataFormatError(f"MNIST IDX files not found under {data_dir}")
    return paths


def load_mnist_split(data_dir, split: str, count: int | None = None) -> Dataset:
    """Load one MNIST split ("train" or "test"), or its first ``count``
    images, from a directory."""
    return load_idx(*_mnist_paths(data_dir)[split], split=split, count=count)


def mnist_split_size(data_dir, split: str) -> int:
    """Image count of one MNIST split, read from its IDX header alone."""
    path = _mnist_paths(data_dir)[split][0]
    with _open_maybe_gzip(path) as f:
        return _read_idx_dims(f, path, IMAGE_MAGIC)[0]


def batches(ds: Dataset, batch_size: int, shuffle_seed: int) -> list[np.ndarray]:
    """Deterministic shuffled index batches covering every sample once."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(shuffle_seed).permutation(ds.n)
    return [order[i:i + batch_size] for i in range(0, ds.n, batch_size)]


# --- synthetic stand-in corpus -------------------------------------------

_GLYPH_SEGMENTS = {
    0: [(.25, .15, .75, .15), (.75, .15, .75, .85), (.75, .85, .25, .85), (.25, .85, .25, .15)],
    1: [(.5, .1, .5, .9), (.3, .28, .5, .1), (.35, .9, .65, .9)],
    2: [(.2, .28, .5, .1), (.5, .1, .8, .28), (.8, .28, .2, .9), (.2, .9, .8, .9)],
    3: [(.2, .1, .7, .1), (.7, .1, .8, .3), (.8, .3, .5, .5), (.5, .5, .8, .7), (.8, .7, .7, .9), (.7, .9, .2, .9)],
    4: [(.65, .9, .65, .1), (.65, .1, .2, .62), (.2, .62, .85, .62)],
    5: [(.8, .1, .2, .1), (.2, .1, .2, .5), (.2, .5, .7, .5), (.7, .5, .8, .7), (.8, .7, .7, .9), (.7, .9, .2, .9)],
    6: [(.7, .1, .35, .42), (.35, .42, .2, .7), (.2, .7, .45, .9), (.45, .9, .75, .72), (.75, .72, .6, .52), (.6, .52, .28, .58)],
    7: [(.2, .1, .8, .1), (.8, .1, .4, .9)],
    8: [(.32, .1, .68, .1), (.68, .1, .68, .48), (.68, .48, .32, .48), (.32, .48, .32, .1),
        (.26, .48, .74, .48), (.74, .48, .74, .9), (.74, .9, .26, .9), (.26, .9, .26, .48)],
    9: [(.3, .1, .7, .1), (.7, .1, .7, .46), (.7, .46, .3, .46), (.3, .46, .3, .1), (.7, .46, .58, .9)],
}

_STENCIL_SIZE = 18
_CANVAS = 28


def _rasterize(segments, size: int = _STENCIL_SIZE, sigma: float = 0.85) -> np.ndarray:
    """A size x size canvas holding, at each pixel, the largest Gaussian
    blob of width sigma centered on any of the points spaced along the
    segments. Each segment's points are evaluated in one (n_pts, size,
    size) array."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    canvas = np.zeros((size, size))
    scale = size - 1
    for x0, y0, x1, y1 in segments:
        n_pts = max(2, int(3 * size * max(abs(x1 - x0), abs(y1 - y0))))
        t = np.linspace(0.0, 1.0, n_pts)[:, None, None]
        px = (x0 + t * (x1 - x0)) * scale
        py = (y0 + t * (y1 - y0)) * scale
        blobs = np.exp(-((xx - px) ** 2 + (yy - py) ** 2) / (2 * sigma ** 2))
        canvas = np.maximum(canvas, blobs.max(axis=0))
    return canvas


_SHEARS = 2  # a sheared glyph shifts row r by shear * r // _STENCIL_SIZE, |shear| <= 2
_STENCILS: np.ndarray | None = None


def _stencils() -> np.ndarray:
    """(10, 2 * _SHEARS + 1, size, size) glyphs: digit d sheared by s at
    [d, s + _SHEARS], each row r rolled right by s * r // size (floored),
    built on first use. All shears of all glyphs are one gather: the entry
    at column j of row r comes from column (j - s * r // size) % size."""
    global _STENCILS
    if _STENCILS is None:
        glyphs = np.array([_rasterize(_GLYPH_SEGMENTS[d]) for d in range(10)])
        rows = np.arange(_STENCIL_SIZE)[:, None]
        shears = np.arange(-_SHEARS, _SHEARS + 1)[:, None, None]
        cols = (np.arange(_STENCIL_SIZE) - shears * rows // _STENCIL_SIZE) % _STENCIL_SIZE
        _STENCILS = np.take_along_axis(glyphs[:, None], cols[None], axis=-1)
    return _STENCILS


def synthetic_dataset(n: int, seed: int, split: str = "train",
                      noise: float = 0.10, max_shift: int = 3,
                      count: int | None = None) -> Dataset:
    """Deterministic 28x28 ten-class glyph corpus of n images, or its first
    ``count`` images.

    A labeled stand-in with MNIST's shape: each sample is a digit glyph with
    random placement, shear, intensity, and additive noise. Not MNIST; meant
    for tests and for running the pipeline where the IDX files are absent.
    The generator draws all n labels first, then per image, in order:
    intensity, the shear coin, the shear (only on heads), the row and column
    offsets, then the noise. It stops after image ``count``, so a prefix is
    bit for bit the first ``count`` images of the n-image corpus. Each image
    is composed in float64 and rounded once to float32.
    """
    count = _prefix_count(n, count)
    rng = np.random.default_rng(seed)
    stencils = _stencils()
    images = np.empty((count, _CANVAS, _CANVAS), dtype=CHECKPOINT_DTYPE)
    labels = rng.integers(0, 10, size=n)[:count]
    margin = _CANVAS - _STENCIL_SIZE
    center = margin // 2
    lo = max(0, center - max_shift)
    hi = min(margin, center + max_shift)
    for i in range(count):
        intensity = rng.uniform(0.65, 1.0)
        shear = int(rng.integers(-_SHEARS, _SHEARS + 1)) if rng.random() < 0.5 else 0
        dy = int(rng.integers(lo, hi + 1))
        dx = int(rng.integers(lo, hi + 1))
        image = rng.normal(0.0, noise, size=(_CANVAS, _CANVAS))
        image[dy:dy + _STENCIL_SIZE, dx:dx + _STENCIL_SIZE] += (
            stencils[labels[i], shear + _SHEARS] * intensity)
        images[i] = image
    np.clip(images, 0.0, 1.0, out=images)
    return Dataset(images.reshape(count, -1), labels.astype(np.int64), split)
