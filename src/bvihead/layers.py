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
from .errors import ConfigError, ContractError, NumericError, ShapeError
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
    by the Flipout estimator. They are drawn as int8 +-1; float64 +-1 is
    accepted too and gives the same output.
    """

    weight_eps: np.ndarray
    bias_eps: np.ndarray
    sign_in: np.ndarray | None = None
    sign_out: np.ndarray | None = None


def dense_forward(layer: DenseDeterministic, x, _memo: dict | None = None):
    """x W + b with the bias broadcast across rows.

    At inference `_memo`, a dict shared by calls on the same x, keeps the
    output of the first call and returns it to later ones, which must not
    write to it; a non-finite output raises NumericError.
    """
    if len(x.shape) != 2 or x.shape[1] != layer.weight.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weight {layer.weight.shape}"
        )
    if isinstance(x, Tensor):
        return (x @ layer.weight) + layer.bias
    memo = {} if _memo is None else _memo
    if "out" not in memo:
        out = (x @ layer.weight.data) + layer.bias.data
        # checked once, here: later calls return this same array
        if not np.isfinite(out).all():
            raise NumericError("forward produced non-finite values")
        memo["out"] = out
    return memo["out"]


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


def variational_forward_flipout(
    layer: DenseVariational, x, noise: NoiseDraw, _memo: dict | None = None
):
    """Pseudo-independent per-example weight perturbations.

    Row n sees x_n W_mu + ((x_n * r_n) (std * eps)) * s_n with a shared
    perturbation base eps and per-example sign vectors r_n, s_n. The bias
    is sampled once per batch by plain reparameterization.

    Both phases compute the output with the same array operations in the
    same order; a training forward wraps it in one graph node over
    (x, W_mu, std, b) whose backward is the closed form of that affine map.
    At inference `_memo`, a dict shared by calls on the same x, keeps
    x W_mu from the first call for the later ones.
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
    r, s, eps = noise.sign_in, noise.sign_out, noise.weight_eps
    if not tape:
        # the training expression's operations, in place; adding x W_mu
        # second is exact, since floating-point addition commutes
        memo = {} if _memo is None else _memo
        if "xw" not in memo:
            memo["xw"] = x @ w_mu
        out = (x * r) @ (w_std * eps)
        out *= s
        out += memo["xw"]
        out += b
        return out, kl
    # products with int8 signs are slower than with float64 ones at batch sizes
    r, s = r.astype(np.float64), s.astype(np.float64)
    xa, mua, ba = x.data, w_mu.data, b.data
    xs = xa * r
    delta = w_std.data * eps
    out = ((xa @ mua) + ((xs @ delta) * s)) + ba
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
    keep = (mask_noise >= spec.rate) * (1.0 / (1.0 - spec.rate))
    if isinstance(x, Tensor):
        return x * keep
    keep *= x
    return keep


def _check_input(layer: DenseVariational, x) -> None:
    if len(x.shape) != 2 or x.shape[1] != layer.weight_post.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weight posterior {layer.weight_post.shape}"
        )


def draw_layer_noise(
    layer: DenseVariational, m: int, rng: np.random.Generator
) -> NoiseDraw:
    """Fresh standard-normal (and Rademacher, for Flipout) draws for one batch.

    The values and the generator's next state are those of drawing
    weight_eps, bias_eps, then sign_in and sign_out with
    `rng.integers(0, 2, shape) * 2 - 1` each.
    """
    d_in, d_out = layer.weight_post.shape
    weight_eps = rng.standard_normal((d_in, d_out))
    bias_eps = rng.standard_normal(d_out)
    if layer.estimator == FLIPOUT:
        signs = rademacher(rng, m * (d_in + d_out))
        sign_in = signs[: m * d_in].reshape(m, d_in)
        sign_out = signs[m * d_in :].reshape(m, d_out)
        return NoiseDraw(weight_eps, bias_eps, sign_in, sign_out)
    return NoiseDraw(weight_eps, bias_eps)


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """n int8 signs equal to `rng.integers(0, 2, n) * 2 - 1`, leaving rng
    where that call leaves it.

    For a range of two numpy's bounded draw is the top bit of one 32-bit
    output. PCG64 serves each 64-bit output as its low, then its high
    32-bit half, and keeps the unused half in its state. So the signs are
    the top bits of the halves of `random_raw`, with the kept half used
    first and an unused last half kept, as numpy would.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64:
        return (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int8)
    signs = np.empty(n, dtype=np.int8)
    if n == 0:
        return signs
    state = bg.state
    spare = state["has_uint32"]
    raw = bg.random_raw((n - spare + 1) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4")  # low half first
    if spare:
        signs[0] = state["uinteger"] >> 31
    np.right_shift(halves[: n - spare], 31, out=signs[spare:], casting="unsafe")
    signs *= 2
    signs -= 1
    left = len(halves) + spare - n  # 1 when the last high half went unused
    if spare or left:  # random_raw neither reads nor writes the kept half
        state = bg.state
        state["has_uint32"] = left
        if left:
            state["uinteger"] = int(halves[-1])
        bg.state = state
    return signs


def zero_layer_noise(layer: DenseVariational, m: int) -> NoiseDraw:
    """All-zero noise: collapses any estimator onto the posterior means."""
    d_in, d_out = layer.weight_post.shape
    draw = NoiseDraw(np.zeros((d_in, d_out)), np.zeros(d_out))
    if layer.estimator == FLIPOUT:
        return NoiseDraw(
            draw.weight_eps,
            draw.bias_eps,
            np.ones((m, d_in), dtype=np.int8),
            np.ones((m, d_out), dtype=np.int8),
        )
    return draw
