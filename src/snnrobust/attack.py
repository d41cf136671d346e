"""Adversarial attacks: FGSM (fixed and minimal-epsilon search) and the
one-pixel attack driven by differential evolution.

All attacks are read-only on the network and deterministic given their
seeds. Perturbed images stay inside [0, 1] and are built in the image
dtype, float32 for the loaded datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import MaskedNetwork, backward, forward, propagate, softmax

IMG_SIDE = 28
INTENSITY_MAX = 255.0


class AttackError(ValueError):
    """Attack precondition violated."""


@dataclass
class AdversarialExample:
    """Per-image attack record."""

    original_index: int
    success: bool
    confidence: float
    perturbed_image: np.ndarray | None = None
    epsilon_used: float | None = None
    candidate: tuple[int, int, float] | None = None  # (p_x, p_y, intensity)
    generations_used: int | None = None

    def csv_row(self) -> list:
        px, py, intensity = self.candidate if self.candidate else ("", "", "")
        return [self.original_index, int(self.success), self.confidence,
                "" if self.epsilon_used is None else self.epsilon_used,
                px, py, intensity,
                "" if self.generations_used is None else self.generations_used]


ATTACK_CSV_HEADER = ["image_index", "success", "confidence", "epsilon_used",
                     "p_x", "p_y", "I", "generations_used"]


@dataclass
class DEConfig:
    pop_size: int = 500
    max_iter: int = 500
    F: float = 0.5
    CR: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 4:
            raise AttackError("pop_size must be >= 4 for rand/1 mutation")
        if self.F <= 0:
            raise AttackError("F must be positive")
        if not (0.0 <= self.CR <= 1.0):
            raise AttackError("CR must be in [0, 1]")


def _outcome_from_probs(probs: np.ndarray, y: int, index: int, **extra) -> AdversarialExample:
    pred = int(probs.argmax())
    return AdversarialExample(
        original_index=index,
        success=pred != int(y),
        confidence=float(probs[pred]),
        **extra,
    )


def fgsm_many(net: MaskedNetwork, images: np.ndarray, labels: np.ndarray,
              eps: float, indices: np.ndarray,
              keep_images: bool = False) -> list[AdversarialExample]:
    """Fixed-epsilon FGSM: x + eps * sign(d loss / d x), clipped to [0, 1].
    indices[i] is the dataset index recorded for images[i].

    sign(0) is 0, so untouched-gradient pixels stay put. The mean-loss input
    gradient of a batch scales each per-image gradient by a positive
    constant, so its sign equals the per-image sign. In float32, x + eps can
    round to one ulp past the bound; such a pixel is moved one ulp back
    toward x, so |x_adv - x| <= eps holds exactly.
    """
    if eps < 0:
        raise AttackError("eps must be >= 0")
    _, _, cache = forward(net, images)
    _, _, input_grads = backward(net, cache, labels, params=False)
    adv = np.clip(images + eps * np.sign(input_grads), 0.0, 1.0)
    over = np.abs(adv - images) > eps
    adv[over] = np.nextafter(adv[over], images[over])
    _, probs, _ = forward(net, adv)
    return [_outcome_from_probs(probs[i], labels[i], int(indices[i]),
                                perturbed_image=adv[i] if keep_images else None)
            for i in range(images.shape[0])]


def fgsm_search_many(net: MaskedNetwork, images: np.ndarray, labels: np.ndarray,
                     indices: np.ndarray, start: float, step: float,
                     cap: float) -> list[AdversarialExample]:
    """For each image, the smallest epsilon on the grid start, start+step,
    ... <= cap that flips its prediction; images[i] is recorded under
    indices[i], and no record holds an image.

    Each image's input gradient is computed once, at the image; only the
    scale varies. The images are searched in lockstep, each as its own
    batch of one on a leading stack axis (see network): one stacked forward
    and input gradient at the clean images, then one stacked forward per
    grid point over the images not yet flipped. A stacked pass runs one
    single-image product per image, so every record is bit for bit that of
    searching its image alone. Requires every image to be correctly
    classified and step > 0, so that the grid is finite. An image that no
    grid point flips gets a censored record: success False, epsilon_used
    None, and the probabilities of the last grid point (the clean ones for
    an empty grid).
    """
    if step <= 0:
        raise AttackError(f"eps search step must be > 0, got {step}")
    x = np.asarray(images)[:, None, :]
    labels = np.asarray(labels, dtype=np.int64)
    _, probs, cache = forward(net, x)
    probs = probs[:, 0]
    if np.any(probs.argmax(axis=1) != labels):
        raise AttackError("eps search requires a correctly classified input")
    _, _, input_grad = backward(net, cache, labels[:, None], params=False)
    direction = np.sign(input_grad)

    eps_used: list[float | None] = [None] * labels.size
    live = np.arange(labels.size)
    eps = start
    while live.size and eps <= cap + 1e-12:
        _, p, _ = forward(net, np.clip(x[live] + eps * direction[live], 0.0, 1.0))
        probs[live] = p[:, 0]
        flipped = p[:, 0].argmax(axis=1) != labels[live]
        for i in live[flipped]:
            eps_used[i] = float(eps)
        live = live[~flipped]
        eps += step
    return [_outcome_from_probs(probs[i], labels[i], int(indices[i]),
                                epsilon_used=eps_used[i])
            for i in range(labels.size)]


def fgsm_eps_search(net: MaskedNetwork, x: np.ndarray, y: int,
                    start: float = 0.001, step: float = 0.01, cap: float = 1.0,
                    index: int = 0) -> AdversarialExample:
    """fgsm_search_many of the one image x with label y."""
    return fgsm_search_many(net, np.asarray(x)[None], [y], [index],
                            start, step, cap)[0]


def init_population(cfg: DEConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial (pop_size, 3) candidates: coordinates from U(1, 28) rounded to
    integers, intensity from N(128, 127) clamped to [0, 255]."""
    coords = np.rint(rng.uniform(1, IMG_SIDE, size=(cfg.pop_size, 2)))
    intensity = np.clip(rng.normal(128.0, 127.0, size=(cfg.pop_size, 1)),
                        0.0, INTENSITY_MAX)
    return np.hstack([coords, intensity])


def _repair(cands: np.ndarray) -> np.ndarray:
    cands[:, 0] = np.clip(np.rint(cands[:, 0]), 1, IMG_SIDE)
    cands[:, 1] = np.clip(np.rint(cands[:, 1]), 1, IMG_SIDE)
    cands[:, 2] = np.clip(cands[:, 2], 0.0, INTENSITY_MAX)
    return cands


def _pixel_index(cands: np.ndarray) -> np.ndarray:
    """Flat input index of each candidate's 1-indexed (p_x, p_y) pixel."""
    return (cands[:, 1].astype(int) - 1) * IMG_SIDE + (cands[:, 0].astype(int) - 1)


def perturbed_batch(x: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """One copy of image x per (p_x, p_y, I) candidate, with the pixel at
    1-indexed (p_x, p_y) = (column, row) replaced by I/255."""
    out = np.tile(x, (cands.shape[0], 1))
    out[np.arange(cands.shape[0]), _pixel_index(cands)] = cands[:, 2] / INTENSITY_MAX
    return out


def rand1_bin_draw(n: int, CR: float, rng: np.random.Generator
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The random choices of one rand/1/bin generation over n members.

    Returns (donors, cross). Row i of the (n, 3) donors holds (a, b, c), a
    uniformly random ordered triple of distinct members other than i. Row i
    of the (n, 3) boolean cross marks the coordinates child i takes from its
    mutant: each with probability CR, plus one forced coordinate.

    a, b and c are drawn over n-1, n-2 and n-3 values, and each draw is
    shifted past the members already taken for its parent (i, then a, then
    b) in ascending order, which maps it onto the members not yet taken.
    The ascending order of two or three taken members comes from
    np.minimum and np.maximum, not from a sort.
    """
    i = np.arange(n)
    a = rng.integers(n - 1, size=n)
    a += a >= i
    lo, hi = np.minimum(i, a), np.maximum(i, a)
    b = rng.integers(n - 2, size=n)
    b += b >= lo
    b += b >= hi
    c = rng.integers(n - 3, size=n)
    c += c >= np.minimum(lo, b)
    c += c >= np.maximum(lo, np.minimum(hi, b))
    c += c >= np.maximum(hi, b)
    cross = rng.random((n, 3)) < CR
    cross[i, rng.integers(3, size=n)] = True
    return np.stack([a, b, c], axis=1), cross


def de_evolve(
    population: np.ndarray,
    fitness_fn,
    cfg: DEConfig,
    rng: np.random.Generator,
    fitness: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One rand/1/bin generation with greedy >= selection.

    For each parent i, mutant = a + F * (b - c) over three distinct members
    other than i, followed by binomial crossover with one forced coordinate;
    children are repaired (coordinates rounded and clamped, intensity
    clamped) before evaluation. fitness_fn maps an (n, 3) candidate array to
    an (n,) fitness array, and fitness holds the population's. Returns the
    next population and its fitness.

    The generation's random choices are drawn for all parents at once
    (rand1_bin_draw): one call each for a, b and c, whose shifts past the
    members already taken give the distribution of drawing three members
    other than i without replacement, then one call for the (n, 3) crossover
    uniforms and one for the forced coordinate of every parent.
    """
    n = population.shape[0]
    if n < 4:
        raise AttackError("population size must be >= 4")

    donors, cross = rand1_bin_draw(n, cfg.CR, rng)
    a, b, c = donors.T
    mutants = population[a] + cfg.F * (population[b] - population[c])
    children = _repair(np.where(cross, mutants, population))

    child_fitness = fitness_fn(children)
    replace = child_fitness >= fitness
    next_pop = np.where(replace[:, None], children, population)
    next_fit = np.where(replace, child_fitness, fitness)
    return next_pop, next_fit


def candidate_probs(net: MaskedNetwork, x: np.ndarray):
    """Class probabilities of one-pixel candidates on image x.

    Returns a function mapping (n, 3) candidates to (n, output_dim)
    probabilities, forward(net, perturbed_batch(x, cands))[1] up to rounding.
    A candidate changes one input, so its layer-0 pre-activations are the
    clean image's, computed once, plus one input-matrix column times the
    change; only the layers above run per candidate. The columns are
    gathered straight into propagate's (units, n) layout and scaled and
    shifted there in place. The image is cast to the weights' dtype, as
    forward casts it, and the change is taken in that dtype, so the whole
    pass runs in it.
    """
    x = np.asarray(x, dtype=net.weights[0].dtype)
    pre0 = net.weights[0] @ x + net.biases[0]

    def probs(cands: np.ndarray) -> np.ndarray:
        flat = _pixel_index(cands)
        z = np.take(net.weights[0], flat, axis=1)
        z *= (cands[:, 2] / INTENSITY_MAX).astype(x.dtype) - x[flat]
        z += pre0[:, None]
        return softmax(propagate(net, z)[1])

    return probs


def one_pixel(net: MaskedNetwork, x: np.ndarray, y: int, cfg: DEConfig,
              index: int = 0, keep_image: bool = True) -> AdversarialExample:
    """One-pixel attack: evolve (p_x, p_y, I) candidates maximizing
    1 - P(true class), stopping early as soon as any evaluated candidate
    makes the model misclassify. The returned record comes from a full
    forward of the best candidate's image."""
    rng = np.random.default_rng(cfg.seed)
    y = int(y)
    score = candidate_probs(net, x)

    flipped: dict = {}

    def evaluate(cands: np.ndarray) -> np.ndarray:
        probs = score(cands)
        preds = probs.argmax(axis=1)
        fit = 1.0 - probs[:, y]
        hits = np.flatnonzero(preds != y)
        if hits.size and not flipped:
            best_hit = hits[np.argmax(fit[hits])]
            flipped["candidate"] = cands[best_hit].copy()
        return fit

    population = init_population(cfg, rng)
    fitness = evaluate(population)
    generations = 0
    while not flipped and generations < cfg.max_iter:
        population, fitness = de_evolve(population, evaluate, cfg, rng, fitness)
        generations += 1

    if flipped:
        best = flipped["candidate"]
    else:
        best = population[int(np.argmax(fitness))]
    x_adv = perturbed_batch(x, best[None])[0]
    _, probs, _ = forward(net, x_adv)
    return _outcome_from_probs(
        probs, y, index,
        perturbed_image=x_adv if keep_image else None,
        candidate=(int(best[0]), int(best[1]), float(best[2])),
        generations_used=generations,
    )
