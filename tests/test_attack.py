from __future__ import annotations

import numpy as np
import pytest

from snnrobust.attack import (AttackError, DEConfig, candidate_probs,
                              de_evolve, fgsm_eps_search, fgsm_many,
                              init_population, one_pixel, perturbed_batch,
                              rand1_bin_draw)
from snnrobust.data import synthetic_dataset
from snnrobust.graph import UndirectedGraph, layer_dag
from snnrobust.network import build_network, forward, init_weights

from tests.conftest import random_layered_net
from tests.oracles import (float64_copy, row_layout_candidate_probs,
                           sorted_shift_rand1_bin_draw)


def bits(a: np.ndarray) -> np.ndarray:
    """The array's raw bits, as unsigned integers of its item size."""
    return a.view(f"u{a.itemsize}")


def edge_candidates() -> tuple[np.ndarray, np.ndarray]:
    """An image whose first and last pixels are 0 and 1, and candidates at
    its corners and edges: one with a change of 0 and two repeated."""
    x = synthetic_dataset(1, seed=9).images[0]
    x[0] = 0.0
    x[783] = 1.0
    k = 14 * 28 + 13  # (p_x, p_y) = (14, 15)
    cands = np.array([[1, 1, 0.0], [1, 1, 255.0], [28, 28, 0.0],
                      [28, 28, 255.0], [14, 15, x[k] * 255.0],
                      [5, 9, 200.0], [5, 9, 200.0], [28, 28, 255.0]])
    return x, cands


@pytest.fixture(scope="module")
def frozen_net():
    """Small trained-ish 784-input model shared across attack tests."""
    rng = np.random.default_rng(777)
    ld = layer_dag(UndirectedGraph(30, frozenset(
        {(u, v) for u in range(15) for v in range(15, 30) if (u + v) % 3})))
    return init_weights(build_network(ld, 784, 10), "G_N", seed=42)


@pytest.fixture(scope="module")
def sample_image():
    return synthetic_dataset(1, seed=3).images[0]


class TestFGSM:
    def test_eps_zero_keeps_image(self, frozen_net, sample_image):
        [out] = fgsm_many(frozen_net, sample_image[None], np.array([3]), 0.0,
                          np.array([0]), keep_images=True)
        assert np.array_equal(out.perturbed_image, sample_image)
        _, probs, _ = forward(frozen_net, sample_image)
        assert out.success == (int(probs.argmax()) != 3)

    def test_sign_perturbation_direction(self, rng):
        net = random_layered_net(rng, input_dim=2, output_dim=2)
        x = np.array([0.5, 0.5])
        _, _, cache = forward(net, x)
        from snnrobust.network import backward
        _, _, g = backward(net, cache, 0)
        [out] = fgsm_many(net, x[None], np.array([0]), 0.1, np.array([0]),
                          keep_images=True)
        expected = np.clip(x + 0.1 * np.sign(g), 0, 1)
        assert out.perturbed_image == pytest.approx(expected, abs=1e-12)

    def test_linf_bound(self, frozen_net, sample_image):
        for eps in (0.05, 0.1, 0.3):
            [out] = fgsm_many(frozen_net, sample_image[None], np.array([2]), eps,
                              np.array([0]), keep_images=True)
            assert np.abs(out.perturbed_image - sample_image).max() <= eps + 1e-12
            assert out.perturbed_image.min() >= 0.0
            assert out.perturbed_image.max() <= 1.0

    def test_negative_eps_rejected(self, frozen_net, sample_image):
        with pytest.raises(AttackError):
            fgsm_many(frozen_net, sample_image[None], np.array([0]), -0.1, np.array([0]))

    def test_batch_matches_single(self, frozen_net):
        frozen_net = float64_copy(frozen_net)
        images = synthetic_dataset(6, seed=8).images
        labels = np.array([0, 1, 2, 3, 4, 5])
        batch = fgsm_many(frozen_net, images, labels, 0.1, np.arange(6), keep_images=True)
        for i, out in enumerate(batch):
            [single] = fgsm_many(frozen_net, images[i:i + 1], labels[i:i + 1], 0.1,
                                 np.array([i]), keep_images=True)
            assert out.success == single.success
            assert out.confidence == pytest.approx(single.confidence, abs=1e-12)
            assert np.array_equal(out.perturbed_image, single.perturbed_image)


class TestEpsSearch:
    def _correct_case(self, net):
        ds = synthetic_dataset(40, seed=12)
        for i in range(ds.n):
            _, probs, _ = forward(net, ds.images[i])
            if int(probs.argmax()) == int(ds.labels[i]):
                return ds.images[i], int(ds.labels[i])
        # fall back: relabel an image to the model's prediction
        _, probs, _ = forward(net, ds.images[0])
        return ds.images[0], int(probs.argmax())

    def test_returns_first_flipping_epsilon(self, frozen_net):
        x, y = self._correct_case(frozen_net)
        out = fgsm_eps_search(frozen_net, x, y)
        if out.success:
            k = round((out.epsilon_used - 0.001) / 0.01)
            assert out.epsilon_used == pytest.approx(0.001 + 0.01 * k)
            if k > 0:
                prev = fgsm_many(frozen_net, x[None], np.array([y]),
                                 out.epsilon_used - 0.01, np.array([0]),
                                 keep_images=True)[0]
                assert not prev.success

    def test_rejects_misclassified_start(self, frozen_net):
        ds = synthetic_dataset(60, seed=13)
        for i in range(ds.n):
            _, probs, _ = forward(frozen_net, ds.images[i])
            pred = int(probs.argmax())
            if pred != int(ds.labels[i]):
                with pytest.raises(AttackError):
                    fgsm_eps_search(frozen_net, ds.images[i], int(ds.labels[i]))
                return
        pytest.skip("frozen net classified every sample correctly")

    def test_immune_constant_classifier_censored(self):
        # output biases force a constant prediction equal to the label
        ld = layer_dag(UndirectedGraph(2, frozenset({(0, 1)})))
        net = build_network(ld, 4, 3)
        net.biases[-1][1] = 5.0
        x = np.array([0.2, 0.4, 0.6, 0.8])
        out = fgsm_eps_search(net, x, 1, cap=0.5)
        assert not out.success
        assert out.epsilon_used is None

    @pytest.mark.parametrize("step", [0.0, -0.01])
    def test_a_step_not_above_zero_is_refused(self, step):
        # the grid start, start + step, ... would never pass the cap
        net = build_network(layer_dag(UndirectedGraph(2, frozenset({(0, 1)}))), 4, 3)
        with pytest.raises(AttackError, match="step must be > 0"):
            fgsm_eps_search(net, np.full(4, 0.5), 0, step=step)

    def test_constant_classifier_never_flips_below_cap(self):
        ld = layer_dag(UndirectedGraph(2, frozenset({(0, 1)})))
        net = build_network(ld, 4, 3)
        net.biases[-1][0] = 1.0
        out = fgsm_eps_search(net, np.full(4, 0.5), 0, start=0.001, step=0.01,
                              cap=0.05)
        assert not out.success


class TestOnePixel:
    def test_candidate_application_convention(self):
        x = np.zeros(784, dtype=np.float32)
        out = perturbed_batch(x, np.array([[5.0, 7.0, 200.0], [28.0, 1.0, 0.0]]))
        # (p_x, p_y) = (column 5, row 7), 1-indexed; I/255 rounded once into
        # the image dtype
        flat = (7 - 1) * 28 + (5 - 1)
        assert out.dtype == np.float32
        assert out[0, flat] == np.float32(200 / 255)
        assert np.count_nonzero(out[0]) == 1
        assert not out[1].any()

    def test_fitness_is_one_minus_true_prob(self, frozen_net, sample_image):
        y = 4
        cand = np.array([[3.0, 3.0, 128.0]])
        _, probs, _ = forward(frozen_net, perturbed_batch(sample_image, cand))
        assert 1.0 - probs[0, y] == pytest.approx(
            1.0 - forward(frozen_net, perturbed_batch(sample_image, cand)[0])[1][y])

    def test_incremental_fitness_matches_full_forward(self):
        rng = np.random.default_rng(31)
        x, cands = edge_candidates()
        for _ in range(4):
            net = random_layered_net(rng, input_dim=784, output_dim=10,
                                     bias_scale=0.1)
            for y in range(3):
                reference = 1.0 - forward(net, perturbed_batch(x, cands))[1][:, y]
                fitness = 1.0 - candidate_probs(net, x)(cands)[:, y]
                assert np.abs(fitness - reference).max() <= 1e-12

    def test_incremental_fitness_bits_match_row_layout(self):
        # the (units, n) layout changes no bit of the probabilities, in
        # float32 and in float64, on the edge candidates and a random
        # population
        rng = np.random.default_rng(32)
        x, edges = edge_candidates()
        cands = np.vstack([edges, init_population(DEConfig(seed=3), rng)])
        for _ in range(4):
            net = random_layered_net(rng, input_dim=784, output_dim=10,
                                     bias_scale=0.1)
            for twin in (net, float64_copy(net)):
                got = candidate_probs(twin, x)(cands)
                want = row_layout_candidate_probs(twin, x)(cands)
                assert got.dtype == want.dtype == twin.weights[0].dtype
                assert np.array_equal(bits(got), bits(want))

    def test_initial_population_distributions(self):
        cfg = DEConfig(pop_size=4000, max_iter=1, seed=0)
        pop = init_population(cfg, np.random.default_rng(0))
        assert pop.shape == (4000, 3)
        assert pop[:, 0].min() >= 1 and pop[:, 0].max() <= 28
        assert np.array_equal(pop[:, :2], np.rint(pop[:, :2]))
        assert pop[:, 2].min() >= 0 and pop[:, 2].max() <= 255
        # clamped normal keeps its center near 128
        assert abs(pop[:, 2].mean() - 128) < 8

    def test_changes_exactly_one_pixel(self, frozen_net, sample_image):
        out = one_pixel(frozen_net, sample_image, 3,
                        DEConfig(pop_size=10, max_iter=3, seed=5))
        diff = np.flatnonzero(out.perturbed_image != sample_image)
        assert diff.size <= 1

    def test_early_stop_when_initial_population_flips(self, frozen_net):
        # relabel to a class the model will not keep under most perturbations
        ds = synthetic_dataset(5, seed=21)
        x = ds.images[0]
        _, probs, _ = forward(frozen_net, x)
        wrong_label = int(probs.argmin())
        out = one_pixel(frozen_net, x, wrong_label,
                        DEConfig(pop_size=8, max_iter=50, seed=6))
        assert out.success
        assert out.generations_used == 0

    def test_deterministic(self, frozen_net, sample_image):
        cfg = DEConfig(pop_size=12, max_iter=5, seed=77)
        a = one_pixel(frozen_net, sample_image, 2, cfg)
        b = one_pixel(frozen_net, sample_image, 2, cfg)
        assert a.candidate == b.candidate
        assert a.success == b.success


class TestDeEvolve:
    @staticmethod
    def sum_fitness(cands):
        return cands.sum(axis=1)

    def test_identical_population_fixed_point(self):
        cfg = DEConfig(pop_size=6, max_iter=1, seed=0)
        pop = np.tile(np.array([5.0, 9.0, 100.0]), (6, 1))
        nxt, fit = de_evolve(pop.copy(), self.sum_fitness, cfg,
                             np.random.default_rng(0), self.sum_fitness(pop))
        assert np.array_equal(nxt, pop)

    def test_best_fitness_non_decreasing(self):
        cfg = DEConfig(pop_size=20, max_iter=1, seed=3)
        rng = np.random.default_rng(3)
        pop = init_population(cfg, rng)
        fit = self.sum_fitness(pop)
        best = fit.max()
        for _ in range(25):
            pop, fit = de_evolve(pop, self.sum_fitness, cfg, rng, fit)
            assert fit.max() >= best - 1e-12
            best = fit.max()

    def test_bounds_hold_after_many_generations(self):
        cfg = DEConfig(pop_size=15, max_iter=1, seed=9, F=0.9)
        rng = np.random.default_rng(9)
        pop = init_population(cfg, rng)
        fit = self.sum_fitness(pop)
        for _ in range(30):
            pop, fit = de_evolve(pop, self.sum_fitness, cfg, rng, fit)
        assert pop[:, 0].min() >= 1 and pop[:, 0].max() <= 28
        assert pop[:, 1].min() >= 1 and pop[:, 1].max() <= 28
        assert pop[:, 2].min() >= 0 and pop[:, 2].max() <= 255
        assert np.array_equal(pop[:, :2], np.rint(pop[:, :2]))

    def test_population_size_constant(self):
        cfg = DEConfig(pop_size=10, max_iter=1, seed=1)
        pop = init_population(cfg, np.random.default_rng(1))
        nxt, _ = de_evolve(pop, self.sum_fitness, cfg, np.random.default_rng(1),
                           self.sum_fitness(pop))
        assert nxt.shape == pop.shape

    @pytest.mark.parametrize("n", [4, 9])
    def test_donors_distinct_and_uniform(self, n):
        rng = np.random.default_rng(n)
        generations = 24_000 // n
        counts = np.zeros((3, n))
        for _ in range(generations):
            donors, _ = rand1_bin_draw(n, 0.9, rng)
            a, b, c = donors.T
            assert np.all(donors != np.arange(n)[:, None])
            assert np.all((a != b) & (a != c) & (b != c))
            for j in range(3):
                counts[j] += np.bincount(donors[:, j], minlength=n)
        # each member is drawn for n-1 of the n parents: share 1/n per slot
        share = counts / (generations * n)
        assert np.abs(share - 1.0 / n).max() < 0.01

    @pytest.mark.parametrize("n", [4, 5, 30, 500])
    def test_draw_matches_sorted_shift(self, n):
        # same donors and crossover, and the generator left in the same
        # state, so the draws of later generations stay aligned too
        for seed in range(4):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                donors, cross = rand1_bin_draw(n, 0.9, rng)
                ref_donors, ref_cross = sorted_shift_rand1_bin_draw(n, 0.9, ref)
                assert donors.shape == (n, 3) and donors.dtype == ref_donors.dtype
                assert np.array_equal(donors, ref_donors)
                assert np.array_equal(cross, ref_cross)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_cr_zero_takes_one_mutant_coordinate(self):
        _, cross = rand1_bin_draw(50, 0.0, np.random.default_rng(2))
        assert np.array_equal(cross.sum(axis=1), np.ones(50))
        # through de_evolve a child differs from its parent in at most the
        # one coordinate it took (repair can map a mutant value back onto
        # the parent's)
        cfg = DEConfig(pop_size=40, max_iter=1, seed=4, CR=0.0)
        pop = init_population(cfg, np.random.default_rng(4))
        seen = []

        def fitness(cands):
            seen.append(cands.copy())
            return np.zeros(len(cands))

        de_evolve(pop, fitness, cfg, np.random.default_rng(5), np.zeros(len(pop)))
        changed = (seen[0] != pop).sum(axis=1)
        assert changed.max() <= 1
        assert changed.mean() > 0.8

    def test_small_population_rejected(self):
        cfg = DEConfig(pop_size=4, max_iter=1, seed=0)
        with pytest.raises(AttackError):
            de_evolve(np.zeros((3, 3)), self.sum_fitness, cfg,
                      np.random.default_rng(0), np.zeros(3))

    def test_config_validation(self):
        with pytest.raises(AttackError):
            DEConfig(pop_size=3)
        with pytest.raises(AttackError):
            DEConfig(F=0.0)
        with pytest.raises(AttackError):
            DEConfig(CR=1.5)
