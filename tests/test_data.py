from __future__ import annotations

import gzip
import hashlib
import struct

import numpy as np
import pytest

from snnrobust.data import (DataFormatError, Dataset, _stencils, batches,
                            find_mnist, load_idx, synthetic_dataset)

from tests.oracles import (rolled_stencils, write_idx_images, write_idx_labels,
                           write_synthetic_idx)


def write_pair(tmp_path, images, labels, gz=False):
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"imgs{suffix}"
    lbl_path = tmp_path / f"lbls{suffix}"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, labels)
    return img_path, lbl_path


class TestLoadIdx:
    def test_round_trip_exact(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels))
        assert ds.n == 7
        recovered = np.round(ds.images * 255).astype(np.uint8)
        assert np.array_equal(recovered, images.reshape(7, -1))
        assert np.array_equal(ds.labels, labels)

    def test_scaling_endpoints(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        ds = load_idx(*write_pair(tmp_path, images, np.array([3], dtype=np.uint8)))
        assert ds.images[0, 0] == 1.0
        assert ds.images[0, 1] == 0.0

    def test_gzip_variant(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
        labels = np.array([1, 2, 3], dtype=np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels, gz=True))
        assert ds.n == 3

    def test_count_mismatch_rejected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
        img_path, _ = write_pair(tmp_path, images, np.zeros(4, dtype=np.uint8))
        lbl_path = tmp_path / "short"
        write_idx_labels(lbl_path, np.zeros(3, dtype=np.uint8))
        with pytest.raises(DataFormatError):
            load_idx(img_path, lbl_path)

    def test_bad_magic_rejected(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(struct.pack(">IIII", 1234, 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(DataFormatError):
            load_idx(bad, bad)

    def test_truncated_rejected(self, tmp_path):
        bad = tmp_path / "trunc"
        bad.write_bytes(struct.pack(">IIII", 2051, 2, 28, 28) + b"\x00" * 100)
        with pytest.raises(DataFormatError):
            load_idx(bad, bad)

    def test_normalization_preserves_levels(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        ds = load_idx(*write_pair(tmp_path, images, np.array([0], dtype=np.uint8)))
        assert len(np.unique(ds.images)) == 256

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("count", [None, 0, 1, 4, 9])
    def test_in_place_scaling_is_bit_exact(self, tmp_path, rng, gz, count):
        images = rng.integers(0, 256, size=(9, 28, 28)).astype(np.uint8)
        images[0, 0, :3] = (0, 255, 1)
        labels = rng.integers(0, 10, size=9).astype(np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels, gz=gz), count=count)
        expected = images[:count].reshape(-1, 784).astype(np.float32) / np.float32(255.0)
        assert ds.n == len(expected)
        assert ds.images.tobytes() == expected.tobytes()
        assert np.array_equal(ds.labels, labels[:count])

    def test_count_beyond_file_rejected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
        with pytest.raises(ValueError):
            load_idx(*write_pair(tmp_path, images, np.zeros(3, dtype=np.uint8)),
                     count=4)


class TestDatasetChecks:
    @pytest.mark.parametrize("pixels", [[0.5, np.nan], [np.nan, np.nan],
                                        [-0.1, 0.5], [0.5, 1.5]])
    def test_pixels_outside_unit_interval_rejected(self, pixels):
        with pytest.raises(DataFormatError):
            Dataset(np.array([pixels]), np.array([3]), "x")

    def test_unit_interval_endpoints_accepted(self):
        assert Dataset(np.array([[0.0, 1.0]]), np.array([3]), "x").n == 1


class TestBatches:
    def test_sizes(self):
        ds = Dataset(np.zeros((10, 4)), np.zeros(10, dtype=np.int64), "train")
        sizes = [len(b) for b in batches(ds, 4, shuffle_seed=0)]
        assert sizes == [4, 4, 2]

    def test_deterministic(self):
        ds = Dataset(np.zeros((20, 4)), np.zeros(20, dtype=np.int64), "train")
        a = np.concatenate(batches(ds, 6, shuffle_seed=5))
        b = np.concatenate(batches(ds, 6, shuffle_seed=5))
        assert np.array_equal(a, b)

    def test_covers_every_index_once(self):
        ds = Dataset(np.zeros((17, 4)), np.zeros(17, dtype=np.int64), "train")
        flat = np.concatenate(batches(ds, 5, shuffle_seed=1))
        assert sorted(flat.tolist()) == list(range(17))

    def test_bad_batch_size(self):
        ds = Dataset(np.zeros((5, 4)), np.zeros(5, dtype=np.int64), "train")
        with pytest.raises(ValueError):
            batches(ds, 0, shuffle_seed=0)


class TestSynthetic:
    def test_shapes_and_ranges(self):
        ds = synthetic_dataset(50, seed=0)
        assert ds.images.shape == (50, 784)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(10))

    def test_deterministic(self):
        a = synthetic_dataset(20, seed=3)
        b = synthetic_dataset(20, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("seed", [0, 3, 17, 2024])
    def test_prefix_equals_head_of_full_corpus(self, seed):
        n = 60
        full = synthetic_dataset(n, seed)
        for k in (1, n // 5, n):
            head = synthetic_dataset(n, seed, count=k)
            assert head.n == k
            assert (head.images == full.images[:k]).all()
            assert (head.labels == full.labels[:k]).all()

    def test_count_beyond_corpus_rejected(self):
        with pytest.raises(ValueError):
            synthetic_dataset(5, seed=0, count=6)

    # SHA-256 of the images' then the labels' bytes; the float32 images are
    # the float64 corpus of earlier versions rounded once
    @pytest.mark.parametrize("n, seed, digest", [
        (200, 0, "f4fd0890b8f018b3370145ac1bfd3e0fc9043538c41d92d1bf349027b58f0b24"),
        (200, 1, "c96b1814f4f2b2c0cbd6242efa5b7229c1bebb5b60270361aac5d15601713286"),
    ])
    def test_golden_digest(self, n, seed, digest):
        ds = synthetic_dataset(n, seed)
        assert hashlib.sha256(ds.images.tobytes() + ds.labels.tobytes()).hexdigest() == digest

    def test_golden_corpora_draw_every_sheared_glyph(self):
        # replays the documented draw order: labels, then per image the
        # intensity, the shear coin, the shear on heads, two offsets, noise
        drawn = set()
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 10, size=200)
            for label in labels:
                rng.uniform(0.65, 1.0)
                if rng.random() < 0.5:
                    drawn.add((int(label), int(rng.integers(-2, 3))))
                rng.integers(2, 9)
                rng.integers(2, 9)
                rng.normal(0.0, 0.1, size=(28, 28))
        assert drawn >= {(d, s) for d in range(10) for s in (-2, -1, 1, 2)}

    def test_stencils_match_point_by_point_rolls(self):
        got, want = _stencils(), rolled_stencils()
        assert got.shape == want.shape == (10, 5, 18, 18)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_classes_are_separable_hint(self):
        # with shifts disabled, a nearest-centroid rule separates the glyphs
        ds = synthetic_dataset(200, seed=1, noise=0.05, max_shift=0)
        centroids = np.stack([ds.images[ds.labels == c].mean(axis=0)
                              for c in range(10)])
        assigned = np.argmax(ds.images @ centroids.T
                             - 0.5 * (centroids ** 2).sum(axis=1), axis=1)
        assert (assigned == ds.labels).mean() > 0.9

    def test_write_synthetic_idx_loads_back(self, tmp_path):
        write_synthetic_idx(tmp_path, train_n=30, test_n=10, seed=0)
        found = find_mnist(tmp_path)
        assert found is not None
        train = load_idx(*found["train"])
        test = load_idx(*found["test"])
        assert train.n == 30 and test.n == 10
