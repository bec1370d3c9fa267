"""Dense layer families: deterministic, variational (reparam/Flipout), dropout.

Noise is always supplied by the caller as plain arrays, so every forward
is a pure function of (parameters, input, noise). That keeps stochastic
passes reproducible and lets tests freeze the noise.

Every forward takes its input as a Tensor, recording graph nodes for
training, or as a plain array, running the same operations in the same
order on the parameters' arrays and recording nothing (inference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import DiagonalGaussian, PriorSpec, kl_array, kl_to_prior, sample, softplus_std
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, softplus_array

REPARAM = "reparam"
FLIPOUT = "flipout"
ESTIMATORS = (REPARAM, FLIPOUT)

# forward-pass phases
TRAIN = "train"
MC_INFERENCE = "mc-inference"
DETERMINISTIC_INFERENCE = "deterministic-inference"
PHASES = (TRAIN, MC_INFERENCE, DETERMINISTIC_INFERENCE)


@dataclass
class DenseDeterministic:
    weight: Tensor  # (in, out)
    bias: Tensor    # (out,)

    def __post_init__(self):
        if len(self.weight.shape) != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
            )


@dataclass
class DenseVariational:
    weight_post: DiagonalGaussian  # over (in, out)
    bias_post: DiagonalGaussian    # over (out,)
    estimator: str = FLIPOUT
    prior: PriorSpec = PriorSpec()

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        win = self.weight_post.shape
        if len(win) != 2 or self.bias_post.shape != (win[1],):
            raise ShapeError(
                f"weight posterior {win} and bias posterior {self.bias_post.shape}"
                " are inconsistent"
            )


@dataclass(frozen=True)
class DropoutSpec:
    rate: float
    mc_at_inference: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class NoiseDraw:
    """One batch worth of noise for a variational layer.

    weight_eps/bias_eps are standard-normal draws matching the posterior
    shapes. sign_in/sign_out are per-example Rademacher vectors, only used
    by the Flipout estimator.
    """

    weight_eps: np.ndarray
    bias_eps: np.ndarray
    sign_in: np.ndarray | None = None
    sign_out: np.ndarray | None = None


def dense_forward(layer: DenseDeterministic, x):
    """x W + b with the bias broadcast across rows."""
    if len(x.shape) != 2 or x.shape[1] != layer.weight.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weight {layer.weight.shape}"
        )
    if isinstance(x, Tensor):
        return (x @ layer.weight) + layer.bias
    return (x @ layer.weight.data) + layer.bias.data


def _posterior_terms(layer: DenseVariational, noise: NoiseDraw, tape: bool):
    """(weight mean, weight std, bias draw, KL) of one forward.

    softplus(rho) is computed once per posterior and shared by the draws
    and the KL. With `tape` the terms are graph nodes over the
    parameters, otherwise plain arrays from the same formulas.
    """
    wp, bp = layer.weight_post, layer.bias_post
    if noise.weight_eps.shape != wp.shape or noise.bias_eps.shape != bp.shape:
        raise ShapeError(
            f"eps shapes {noise.weight_eps.shape}/{noise.bias_eps.shape} do not match"
            f" posterior shapes {wp.shape}/{bp.shape}"
        )
    if tape:
        w_std, b_std = softplus_std(wp.rho), softplus_std(bp.rho)
        b = sample(bp, noise.bias_eps, b_std)
        kl = kl_to_prior(wp, layer.prior, w_std) + kl_to_prior(bp, layer.prior, b_std)
        return wp.mu, w_std, b, kl
    w_std, b_std = softplus_array(wp.rho.data), softplus_array(bp.rho.data)
    b = bp.mu.data + b_std * noise.bias_eps
    kl = kl_array(wp.mu.data, w_std, layer.prior) + kl_array(bp.mu.data, b_std, layer.prior)
    return wp.mu.data, w_std, b, kl


def variational_forward_reparam(layer: DenseVariational, x, noise: NoiseDraw):
    """One weight/bias draw shared by the whole batch: x W_sample + b_sample."""
    if layer.estimator != REPARAM:
        raise ContractError(f"layer estimator is {layer.estimator!r}, not {REPARAM!r}")
    _check_input(layer, x)
    w_mu, w_std, b, kl = _posterior_terms(layer, noise, isinstance(x, Tensor))
    w = w_mu + w_std * noise.weight_eps
    return (x @ w) + b, kl


def variational_forward_flipout(layer: DenseVariational, x, noise: NoiseDraw):
    """Pseudo-independent per-example weight perturbations.

    Row n sees x_n W_mu + ((x_n * r_n) (std * eps)) * s_n with a shared
    perturbation base eps and per-example sign vectors r_n, s_n. The bias
    is sampled once per batch by plain reparameterization.

    Both phases compute the output with the same array code; a training
    forward wraps it in one graph node over (x, W_mu, std, b) whose
    backward is the closed form of that affine map.
    """
    if layer.estimator != FLIPOUT:
        raise ContractError(f"layer estimator is {layer.estimator!r}, not {FLIPOUT!r}")
    _check_input(layer, x)
    m = x.shape[0]
    d_in, d_out = layer.weight_post.shape
    if noise.sign_in is None or noise.sign_out is None:
        raise ContractError("flipout noise draw is missing sign vectors")
    if noise.sign_in.shape != (m, d_in) or noise.sign_out.shape != (m, d_out):
        raise ShapeError(
            f"sign shapes {noise.sign_in.shape}/{noise.sign_out.shape} do not match"
            f" batch {m} with dims ({d_in}, {d_out})"
        )
    tape = isinstance(x, Tensor)
    w_mu, w_std, b, kl = _posterior_terms(layer, noise, tape)
    xa, mua, stda, ba = (x.data, w_mu.data, w_std.data, b.data) if tape else (x, w_mu, w_std, b)
    r, s, eps = noise.sign_in, noise.sign_out, noise.weight_eps
    xs = xa * r
    delta = stda * eps
    out = ((xa @ mua) + ((xs @ delta) * s)) + ba
    if not tape:
        return out, kl
    node = Tensor(out, (x, w_mu, w_std, b), _op="flipout")

    def _bw(g):
        gs = g * s
        x.accumulate_grad(g @ mua.T + (gs @ delta.T) * r)
        w_mu.accumulate_grad(xa.T @ g)
        w_std.accumulate_grad((xs.T @ gs) * eps)
        b.accumulate_grad(g.sum(axis=0))

    node._backward_fn = _bw
    return node, kl


def dropout_forward(spec: DropoutSpec, x, mask_noise: np.ndarray | None, phase: str):
    """Inverted dropout: zero with probability rate, scale survivors.

    DeterministicInference is the identity map regardless of rate.
    """
    if phase not in PHASES:
        raise ConfigError(f"unknown phase {phase!r}")
    if phase == DETERMINISTIC_INFERENCE or spec.rate == 0.0:
        return x
    if mask_noise is None or mask_noise.shape != x.shape:
        got = None if mask_noise is None else mask_noise.shape
        raise ShapeError(f"mask noise shape {got} does not match input {x.shape}")
    keep = (mask_noise >= spec.rate).astype(np.float64) / (1.0 - spec.rate)
    return x * keep


def _check_input(layer: DenseVariational, x) -> None:
    if len(x.shape) != 2 or x.shape[1] != layer.weight_post.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weight posterior {layer.weight_post.shape}"
        )


def draw_layer_noise(
    layer: DenseVariational, m: int, rng: np.random.Generator
) -> NoiseDraw:
    """Fresh standard-normal (and Rademacher, for Flipout) draws for one batch."""
    d_in, d_out = layer.weight_post.shape
    weight_eps = rng.standard_normal((d_in, d_out))
    bias_eps = rng.standard_normal(d_out)
    if layer.estimator == FLIPOUT:
        sign_in = rng.integers(0, 2, size=(m, d_in)).astype(np.float64) * 2.0 - 1.0
        sign_out = rng.integers(0, 2, size=(m, d_out)).astype(np.float64) * 2.0 - 1.0
        return NoiseDraw(weight_eps, bias_eps, sign_in, sign_out)
    return NoiseDraw(weight_eps, bias_eps)


def zero_layer_noise(layer: DenseVariational, m: int) -> NoiseDraw:
    """All-zero noise: collapses any estimator onto the posterior means."""
    d_in, d_out = layer.weight_post.shape
    draw = NoiseDraw(np.zeros((d_in, d_out)), np.zeros(d_out))
    if layer.estimator == FLIPOUT:
        return NoiseDraw(
            draw.weight_eps, draw.bias_eps, np.ones((m, d_in)), np.ones((m, d_out))
        )
    return draw
