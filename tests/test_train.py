from __future__ import annotations

import importlib

import numpy as np
import pytest

from snnrobust.attack import candidate_probs, fgsm_many
from snnrobust.data import Dataset, synthetic_dataset
from snnrobust.graph import UndirectedGraph, generate_ws, layer_dag
from snnrobust.network import (backward, build_network, cross_entropy,
                               flatten_params, forward, init_weights,
                               load_checkpoint, param_views, prune_random,
                               save_checkpoint)
from snnrobust.train import (AdamState, TrainConfig, TrainingDivergedError,
                             adam_step, classification_report, evaluate_f1,
                             predict, train)

from tests.conftest import random_layered_net, run_child
from tests.oracles import float64_copy, per_array_adam_step

# the package re-exports the function train() under the module's name
train_module = importlib.import_module("snnrobust.train")


class TestAdamStep:
    def test_single_step_hand_computed(self):
        cfg = TrainConfig(seed=0)
        theta = np.array([0.0])
        state = AdamState.for_params(theta)
        adam_step(theta, np.array([1.0]), state, cfg)
        # m_hat = v_hat = 1 after bias correction, so the step is
        # -lr * 1 / (1 + eps)
        expected = -1e-3 / (1.0 + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-11)
        assert state.t == 1

    def test_zero_grad_zero_state_is_identity(self):
        cfg = TrainConfig()
        theta = np.array([0.7, -0.2])
        state = AdamState.for_params(theta)
        adam_step(theta, np.zeros(2), state, cfg)
        assert np.array_equal(theta, [0.7, -0.2])

    def test_masked_position_stays_zero(self):
        # backward masks the gradient, so a masked weight only ever sees 0
        cfg = TrainConfig()
        theta = np.array([0.5, 0.0])
        state = AdamState.for_params(theta)
        for _ in range(3):
            adam_step(theta, np.array([0.1, 0.0]), state, cfg)
        assert theta[1] == 0.0
        assert state.m[1] == 0.0 and state.v[1] == 0.0
        assert theta[0] != 0.5

    def test_flat_step_equals_per_array_oracle(self, rng):
        # the flat in-place step against one expression per array, over 5
        # steps of real gradients on a fixed batch
        cfg = TrainConfig()
        flat_net = random_layered_net(rng)
        net = flat_net.copy()
        x = rng.uniform(0, 1, (16, net.input_dim))
        y = rng.integers(0, net.output_dim, 16)
        params = flatten_params(flat_net)
        grads = np.empty_like(params)
        state = AdamState.for_params(params)
        m = [np.zeros_like(p) for p in net.weights + net.biases]
        v = [np.zeros_like(p) for p in net.weights + net.biases]
        for t in range(1, 6):
            backward(flat_net, forward(flat_net, x)[2], y,
                     param_views(flat_net, grads), input_grad=False)
            adam_step(params, grads, state, cfg)
            flat_net.mark_mutated()
            w_grads, b_grads, _ = backward(net, forward(net, x)[2], y)
            per_array_adam_step(net.weights + net.biases, w_grads + b_grads,
                                m, v, t, cfg)
            net.mark_mutated()
            for a, b in zip(flat_net.weights + flat_net.biases,
                            net.weights + net.biases):
                assert np.array_equal(a, b)
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m]))
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v]))


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
        ld = layer_dag(UndirectedGraph(6, frozenset({(0, 3), (1, 4), (2, 5), (0, 4)})))
        net = init_weights(build_network(ld, 8, 2), "He_N", seed=1)
        history = train(net, ds, TrainConfig(epochs=30, batch_size=16, seed=2))
        assert history[-1][2] >= 0.95

    def test_zero_epochs_is_identity(self, rng):
        net = random_layered_net(rng)
        before = [w.copy() for w in net.weights]
        history = train(net, two_class_toy(), TrainConfig(epochs=0, seed=0))
        assert history == []
        for w, w0 in zip(net.weights, before):
            assert np.array_equal(w, w0)

    def test_mask_pattern_unchanged_by_training(self):
        ds = two_class_toy()
        ld = layer_dag(UndirectedGraph(6, frozenset({(0, 3), (1, 4), (2, 5), (0, 4)})))
        net = init_weights(build_network(ld, 8, 2), "G_U", seed=4)
        masks_before = [m.copy() for m in net.masks]
        train(net, ds, TrainConfig(epochs=3, batch_size=32, seed=0))
        for w, m, m0 in zip(net.weights, net.masks, masks_before):
            assert np.array_equal(m, m0)
            assert np.all(w[m0 == 0] == 0.0)

    def test_bitwise_deterministic(self):
        ds = two_class_toy()
        ld = layer_dag(UndirectedGraph(5, frozenset({(0, 2), (1, 3), (2, 4)})))
        nets = []
        for _ in range(2):
            net = init_weights(build_network(ld, 8, 2), "N", seed=9)
            train(net, ds, TrainConfig(epochs=2, batch_size=16, seed=5))
            nets.append(net)
        for a, b in zip(nets[0].weights, nets[1].weights):
            assert np.array_equal(a, b)

    def test_loss_decreases_over_first_five_steps(self):
        # fixed batch, 5 Adam steps; median verdict over 20 seeds
        ds = two_class_toy(64)
        drops = []
        for seed in range(20):
            ld = layer_dag(UndirectedGraph(6, frozenset({(0, 3), (1, 4), (2, 5)})))
            net = init_weights(build_network(ld, 8, 2), "He_N", seed=seed)
            params = flatten_params(net)
            grads = np.empty_like(params)
            state = AdamState.for_params(params)
            losses = []
            for _ in range(5):
                logits, _, cache = forward(net, ds.images)
                losses.append(cross_entropy(logits, ds.labels))
                backward(net, cache, ds.labels, param_views(net, grads))
                adam_step(params, grads, state, TrainConfig(seed=0))
                net.mark_mutated()
            logits, _, _ = forward(net, ds.images)
            losses.append(cross_entropy(logits, ds.labels))
            drops.append(losses[-1] < losses[0])
        assert np.median(drops) == 1.0

    def test_divergence_detected(self):
        ds = two_class_toy(50)
        ld = layer_dag(UndirectedGraph(4, frozenset({(0, 2), (1, 3)})))
        net = init_weights(build_network(ld, 8, 2), "He_N", seed=0)
        # the dtype's largest weight overflows: inf logits, nan loss
        net.weights[0][...] = np.finfo(net.weights[0].dtype).max
        net.mark_mutated()
        with pytest.raises(TrainingDivergedError), pytest.warns(RuntimeWarning):
            train(net, ds, TrainConfig(epochs=1, batch_size=16, seed=0))


# The WS(400, 2, 0.9) net that the benchmark stored (perfbench/workloads.py
# REATTACK_GRAPHS) when it was recorded, drawn by sequential_ws, G_N, trained
# 2 epochs; 15 of its 16 matrices have dropped columns. The
# digest of its float32 weights and biases was recorded on an Intel Xeon
# x86-64 VM (numpy 2.4 with OpenBLAS), with one BLAS thread. Run in
# a child that imports snnrobust before numpy: importing it pins BLAS to one
# thread, so the digest holds whatever OPENBLAS_NUM_THREADS the caller sets
# (a threaded GEMM splits its sums differently; two threads once gave
# da8e7c35... in float64).
GOLDEN_TRAIN = """
import hashlib
from snnrobust.data import synthetic_dataset
from snnrobust.experiment import derive_seed
from snnrobust.graph import layer_dag
from snnrobust.network import build_network, init_weights
from snnrobust.train import TrainConfig, train
from tests.oracles import sequential_ws

g = sequential_ws(400, 2, 0.9, derive_seed(2107_06158, "bench-graph", 0))
net = init_weights(build_network(layer_dag(g), 784, 10), "G_N", seed=5)
train(net, synthetic_dataset(1024, 11), TrainConfig(epochs=2, batch_size=128, seed=12))
h = hashlib.sha256()
for p in net.weights + net.biases:
    h.update(p.tobytes())
print(h.hexdigest())
"""


GOLDEN_TRAIN_DIGEST = "954112caf5880db91455f612a25c3ff5063a452b7143403b439ceb22d4a998d3"


def golden_train_digest(threads: str) -> str:
    return run_child(GOLDEN_TRAIN, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def test_golden_trained_weights():
    assert golden_train_digest("1") == GOLDEN_TRAIN_DIGEST


def test_golden_trained_weights_ignore_the_callers_blas_threads():
    assert golden_train_digest("2") == GOLDEN_TRAIN_DIGEST


PIN_WARNINGS = """
import warnings
{first}
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import snnrobust
print(sum("not pinned" in str(w.message) for w in caught))
"""


def test_import_after_numpy_warns_that_the_pin_came_too_late():
    late = PIN_WARNINGS.format(first="import numpy")
    assert run_child(late, OPENBLAS_NUM_THREADS="2") == "1"
    assert run_child(late, OPENBLAS_NUM_THREADS="1") == "0"
    assert run_child(PIN_WARNINGS.format(first=""), OPENBLAS_NUM_THREADS="2") == "0"


def test_one_c_ordered_layout(tmp_path):
    g = generate_ws(60, 2, 0.9, seed=4)
    net = init_weights(build_network(layer_dag(g), 784, 10), "G_N", seed=1)
    # columns were dropped, which is what once left matrices in Fortran order
    assert any(len(net.sources[l]) < net.offsets[l] for l in range(1, net.n_layers + 1))
    save_checkpoint(net, tmp_path / "net.bin")
    trained = net.copy()
    train(trained, synthetic_dataset(64, 0), TrainConfig(epochs=1, batch_size=32))
    nets = [build_network(layer_dag(g), 784, 10), net,
            prune_random(net, 0.5, seed=2), load_checkpoint(tmp_path / "net.bin")[0],
            trained]
    for n in nets:
        for w, m in zip(n.weights, n.masks):
            assert w.flags.c_contiguous and m.flags.c_contiguous
    buffer = trained.weights[0].base
    assert buffer is not None and buffer.ndim == 1
    assert all(p.base is buffer for p in trained.weights + trained.biases)


class TestOnePrecision:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = synthetic_dataset(256, seed=4)
        g = generate_ws(60, 2, 0.7, seed=5)
        net = init_weights(build_network(layer_dag(g), 784, 10), "He_N", seed=6)
        seen = {}
        real_forward, real_adam = train_module.forward, train_module.adam_step

        def spy_forward(net, x):
            out = real_forward(net, x)
            seen["acts"] = out[2].acts
            return out

        def spy_adam(params, grads, state, cfg):
            seen.update(params=params, grads=grads, m=state.m, v=state.v,
                        scratch=state.scratch)
            return real_adam(params, grads, state, cfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(train_module, "forward", spy_forward)
            mp.setattr(train_module, "adam_step", spy_adam)
            train(net, ds, TrainConfig(epochs=2, batch_size=32, seed=7))
        return net, ds, seen

    def test_no_float64_in_the_hot_path(self, trained, tmp_path):
        net, ds, seen = trained
        assert seen["params"].base is None and net.weights[0].base is seen["params"]
        save_checkpoint(net, tmp_path / "net.bin")
        loaded, _ = load_checkpoint(tmp_path / "net.bin")
        x = ds.images[0]
        cands = np.array([[3.0, 4.0, 100.0], [14.0, 15.0, 0.0], [28.0, 1.0, 255.0]])
        attacked = fgsm_many(net, ds.images[:5], ds.labels[:5], 0.1, np.arange(5),
                             keep_images=True)
        arrays = {
            "images": [ds.images],
            "weights, masks and biases": net.weights + net.masks + net.biases,
            "flat parameters": [seen["params"]],
            "gradients": [seen["grads"]],
            "Adam moments and scratch": [seen["m"], seen["v"], *seen["scratch"]],
            "activation buffer": [seen["acts"]],
            "predict": [predict(net, ds.images)],
            "candidate_probs": [candidate_probs(net, x)(cands)],
            "fgsm_many images": [o.perturbed_image for o in attacked],
            "loaded checkpoint": loaded.weights + loaded.masks + loaded.biases,
        }
        for name, group in arrays.items():
            assert {a.dtype for a in group} == {np.dtype(np.float32)}, name

    def test_float64_copy_agrees(self, trained):
        # float32 rounds each of the ~10^3 products a logit sums at 6e-8
        # relative, so probabilities agree to about 1e-5
        net, ds, _ = trained
        probs32 = predict(net, ds.images)
        probs64 = predict(float64_copy(net), ds.images)
        assert probs64.dtype == np.float64
        assert np.abs(probs32 - probs64).max() < 1e-5
        assert (probs32.argmax(axis=1) == probs64.argmax(axis=1)).mean() > 0.99


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
        ld = layer_dag(UndirectedGraph(40, frozenset()))
        net = init_weights(build_network(ld, 784, 10), "He_N", seed=2)
        train(net, train_set, TrainConfig(epochs=3, batch_size=64, seed=3))
        rep = evaluate_f1(net, test_set)
        assert 0.0 <= rep.macro_f1 <= 1.0
        assert rep.confusion.sum() == test_set.n
        assert rep.accuracy > 0.5
