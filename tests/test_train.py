from __future__ import annotations

import numpy as np
import pytest

from snnrobust.data import Dataset, synthetic_dataset
from snnrobust.graph import Dag, layer_dag
from snnrobust.network import build_network, forward, init_weights
from snnrobust.train import (AdamState, TrainConfig, TrainingDivergedError,
                             adam_step, classification_report, evaluate_f1,
                             train)

from tests.conftest import random_layered_net


class TestAdamStep:
    def test_single_step_hand_computed(self):
        cfg = TrainConfig(seed=0)
        theta = [np.array([0.0])]
        state = AdamState.for_params(theta)
        adam_step(theta, [np.array([1.0])], state, cfg)
        # m_hat = v_hat = 1 after bias correction, so the step is
        # -lr * 1 / (1 + eps)
        expected = -1e-3 / (1.0 + 1e-8)
        assert theta[0][0] == pytest.approx(expected, abs=1e-11)
        assert state.t == 1

    def test_zero_grad_zero_state_is_identity(self):
        cfg = TrainConfig()
        theta = [np.array([0.7, -0.2])]
        state = AdamState.for_params(theta)
        adam_step(theta, [np.zeros(2)], state, cfg)
        assert np.array_equal(theta[0], [0.7, -0.2])

    def test_masked_position_stays_zero(self):
        # backward masks the gradient, so a masked weight only ever sees 0
        cfg = TrainConfig()
        theta = [np.array([[0.5, 0.0]])]
        state = AdamState.for_params(theta)
        for _ in range(3):
            adam_step(theta, [np.array([[0.1, 0.0]])], state, cfg)
        assert theta[0][0, 1] == 0.0
        assert state.m[0][0, 1] == 0.0 and state.v[0][0, 1] == 0.0
        assert theta[0][0, 0] != 0.5


def two_class_toy(n=200, seed=0):
    """Linearly separable two-class blobs embedded in 8 dims."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    centers = np.array([[0.25] * 8, [0.75] * 8])
    images = np.clip(centers[labels] + rng.normal(0, 0.08, (n, 8)), 0, 1)
    return Dataset(images, labels.astype(np.int64), "train")


class TestTrain:
    def test_toy_problem_reaches_high_accuracy(self):
        ds = two_class_toy()
        ld = layer_dag(Dag(6, frozenset({(0, 3), (1, 4), (2, 5), (0, 4)})))
        net = init_weights(build_network(ld, 8, 2), "He_N", seed=1)
        history = train(net, ds, TrainConfig(epochs=30, batch_size=16, seed=2))
        assert history.records[-1].accuracy >= 0.95

    def test_zero_epochs_is_identity(self, rng):
        net = random_layered_net(rng)
        before = [w.copy() for w in net.weights]
        history = train(net, two_class_toy(), TrainConfig(epochs=0, seed=0))
        assert history.records == []
        for w, w0 in zip(net.weights, before):
            assert np.array_equal(w, w0)

    def test_mask_pattern_unchanged_by_training(self):
        ds = two_class_toy()
        ld = layer_dag(Dag(6, frozenset({(0, 3), (1, 4), (2, 5), (0, 4)})))
        net = init_weights(build_network(ld, 8, 2), "G_U", seed=4)
        masks_before = [m.copy() for m in net.masks]
        train(net, ds, TrainConfig(epochs=3, batch_size=32, seed=0))
        for w, m, m0 in zip(net.weights, net.masks, masks_before):
            assert np.array_equal(m, m0)
            assert np.all(w[m0 == 0] == 0.0)

    def test_bitwise_deterministic(self):
        ds = two_class_toy()
        ld = layer_dag(Dag(5, frozenset({(0, 2), (1, 3), (2, 4)})))
        nets = []
        for _ in range(2):
            net = init_weights(build_network(ld, 8, 2), "N", seed=9)
            train(net, ds, TrainConfig(epochs=2, batch_size=16, seed=5))
            nets.append(net)
        for a, b in zip(nets[0].weights, nets[1].weights):
            assert np.array_equal(a, b)

    def test_loss_decreases_over_first_five_steps(self):
        # fixed batch, 5 Adam steps; median verdict over 20 seeds
        from snnrobust.network import backward, cross_entropy, forward
        from snnrobust.train import AdamState, adam_step
        ds = two_class_toy(64)
        drops = []
        for seed in range(20):
            ld = layer_dag(Dag(6, frozenset({(0, 3), (1, 4), (2, 5)})))
            net = init_weights(build_network(ld, 8, 2), "He_N", seed=seed)
            params = net.weights + net.biases
            state = AdamState.for_params(params)
            losses = []
            for _ in range(5):
                logits, _, cache = forward(net, ds.images)
                losses.append(cross_entropy(logits, ds.labels))
                w_grads, b_grads, _ = backward(net, cache, ds.labels)
                adam_step(params, w_grads + b_grads, state, TrainConfig(seed=0))
                net.mark_mutated()
            logits, _, _ = forward(net, ds.images)
            losses.append(cross_entropy(logits, ds.labels))
            drops.append(losses[-1] < losses[0])
        assert np.median(drops) == 1.0

    def test_divergence_detected(self):
        ds = two_class_toy(50)
        ld = layer_dag(Dag(4, frozenset({(0, 2), (1, 3)})))
        net = init_weights(build_network(ld, 8, 2), "He_N", seed=0)
        net.weights[0] += 1e308  # overflow: inf logits, nan loss
        net.mark_mutated()
        with pytest.raises(TrainingDivergedError):
            train(net, ds, TrainConfig(epochs=1, batch_size=16, seed=0))


class TestEvaluateF1:
    def test_perfect_predictions(self):
        truth = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        rep = classification_report(truth, truth)
        assert rep.macro_f1 == pytest.approx(1.0)
        assert rep.accuracy == 1.0

    def test_hand_computed_confusion(self):
        # class 0: 3 correct, 1 predicted as class 1; class 1: 4 correct
        truth = [0, 0, 0, 0, 1, 1, 1, 1]
        preds = [0, 0, 0, 1, 1, 1, 1, 1]
        rep = classification_report(truth, preds)
        f1_a = 6 / 7
        f1_b = 8 / 9
        present = [rep.f1_per_class[0], rep.f1_per_class[1]]
        assert present == pytest.approx([f1_a, f1_b], abs=1e-12)
        macro_present = np.mean(present)
        assert macro_present == pytest.approx((6 / 7 + 8 / 9) / 2, abs=1e-12)
        assert rep.confusion[0, 1] == 1
        assert set(rep.absent_classes) == set(range(2, 10))

    def test_confusion_row_sums_are_supports(self):
        truth = [1, 1, 2, 3, 3, 3]
        preds = [1, 2, 2, 3, 1, 3]
        rep = classification_report(truth, preds)
        assert rep.confusion.sum(axis=1)[1] == 2
        assert rep.confusion.sum(axis=1)[3] == 3

    def test_end_to_end_on_trained_model(self):
        train_set = synthetic_dataset(1500, seed=0)
        test_set = synthetic_dataset(300, seed=1, split="test")
        ld = layer_dag(Dag(40, frozenset()))
        net = init_weights(build_network(ld, 784, 10), "He_N", seed=2)
        train(net, train_set, TrainConfig(epochs=3, batch_size=64, seed=3))
        rep = evaluate_f1(net, test_set)
        assert 0.0 <= rep.macro_f1 <= 1.0
        assert rep.confusion.sum() == test_set.n
        assert rep.accuracy > 0.5
