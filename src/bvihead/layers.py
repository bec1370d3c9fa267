"""Dense layer families: deterministic, variational (reparam/Flipout), dropout.

Noise is always supplied by the caller as plain arrays, so every forward
is a pure function of (parameters, input, noise). That keeps stochastic
passes reproducible and lets tests freeze the noise.

A training forward records one graph node per layer over the layer's
leaves, and a variational layer one more scalar node for its KL; each
node's backward is closed-form. It runs on a Tensor input, which gets a
gradient, or on a plain array with `_tape`, which gets none. An inference
forward runs the same operations in the same order on plain arrays and
records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import DiagonalGaussian, PriorSpec, kl_array
from .dist import kl_to_prior, sample  # noqa: F401  # perfbench/tracer.py wraps them here
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .tensor import Tensor, sigmoid_array, softplus_and_exp

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


def dense_forward(layer: DenseDeterministic, x, _memo: dict | None = None, *, _tape=False):
    """x W + b with the bias broadcast across rows.

    A Tensor x, or a plain array x with `_tape`, gives one graph node over
    (x, W, b) whose backward is closed-form; an array x gets no gradient.
    At inference `_memo`, a dict shared by calls on the same x, keeps the
    output of the first call and returns it to later ones, which must not
    write to it; a non-finite output raises NumericError.
    """
    if len(x.shape) != 2 or x.shape[1] != layer.weight.shape[0]:
        raise ShapeError(
            f"input {x.shape} does not match weight {layer.weight.shape}"
        )
    w, b = layer.weight, layer.bias
    if isinstance(x, Tensor) or _tape:
        xa, wa = _array(x), w.data
        node = Tensor((xa @ wa) + b.data, _inputs(x, w, b), _op="dense")

        def _bw(g):
            if isinstance(x, Tensor):
                x.accumulate_grad(g @ wa.T)
            w.accumulate_grad(xa.T @ g)
            b.accumulate_grad(g.sum(axis=0))

        node._backward_fn = _bw
        return node
    memo = {} if _memo is None else _memo
    if "out" not in memo:
        out = (x @ w.data) + b.data
        # checked once, here: later calls return this same array
        if not np.isfinite(out).all():
            raise NumericError("forward produced non-finite values")
        memo["out"] = out
    return memo["out"]


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def _inputs(x, *leaves) -> tuple:
    """A training node's parents: x when it is a Tensor, then the leaves."""
    return ((x,) if isinstance(x, Tensor) else ()) + leaves


def _posterior_arrays(layer: DenseVariational, noise: NoiseDraw, memo: dict | None):
    """(std_W, std_b, KL, the softplus's two exps) from one softplus(rho)
    per posterior, shared by the draws, the KL and the backward's sigmoid.
    `memo`, a dict shared by calls on the same parameters, keeps them."""
    wp, bp = layer.weight_post, layer.bias_post
    if noise.weight_eps.shape != wp.shape or noise.bias_eps.shape != bp.shape:
        raise ShapeError(
            f"eps shapes {noise.weight_eps.shape}/{noise.bias_eps.shape} do not match"
            f" posterior shapes {wp.shape}/{bp.shape}"
        )
    memo = {} if memo is None else memo
    if "post" not in memo:
        (w_std, w_exp), (b_std, b_exp) = softplus_and_exp(wp.rho.data), softplus_and_exp(bp.rho.data)
        kl = kl_array(wp.mu.data, w_std, layer.prior) + kl_array(bp.mu.data, b_std, layer.prior)
        memo["post"] = (w_std, b_std, kl, (w_exp, b_exp))
    return memo["post"]


def _variational_nodes(layer: DenseVariational, x, out, post, data_grads, op: str):
    """The layer's training node over (x, W_mu, W_rho, b_mu, b_rho), x only
    when it is a Tensor, and its KL node, which hands its gradient to the
    layer's node in the same backward pass. `data_grads(g)` adds x's
    gradient to x and returns [dW_mu, dstd_W, db_mu, dstd_b]; the node adds
    the KL's terms, each formed as a separate KL node would form it, and
    then applies drho = dstd * sigmoid(rho) once per posterior.
    """
    wp, bp, prior = layer.weight_post, layer.bias_post, layer.prior
    w_std, b_std, kl, exps = post
    mus, rhos = (wp.mu.data, bp.mu.data), (wp.rho.data, bp.rho.data)
    node = Tensor(out, _inputs(x, wp.mu, wp.rho, bp.mu, bp.rho), _op=op)
    kl_node = Tensor(kl, (node,), _op="kl")
    kl_grad: list = []  # the KL node's gradient, for the layer's node
    kl_node._backward_fn = kl_grad.append
    inv_var = 1.0 / prior.std**2

    def _bw(g):
        # every array below is this call's own, so the sums and products
        # are formed in place, each in the order the separate nodes use
        grads = [None] * 4
        if g is not None:  # None when only the KL reached the loss
            grads = data_grads(g)
        if kl_grad:
            gk = kl_grad.pop()
            gk_mu = gk * inv_var
            terms = []
            for mu, std in zip(mus, (w_std, b_std)):
                d_mu = mu - prior.mean
                d_mu *= gk_mu
                d_std = std * inv_var
                d_std -= 1.0 / std
                d_std *= gk
                terms += [d_mu, d_std]
            for i, t in enumerate(terms):
                grads[i] = t if grads[i] is None else np.add(grads[i], t, out=grads[i])
        d_wmu, d_wstd, d_bmu, d_bstd = grads
        d_wstd *= sigmoid_array(rhos[0], exps[0])
        d_bstd *= sigmoid_array(rhos[1], exps[1])
        wp.mu.accumulate_grad(d_wmu)
        wp.rho.accumulate_grad(d_wstd)
        bp.mu.accumulate_grad(d_bmu)
        bp.rho.accumulate_grad(d_bstd)

    node._backward_fn = _bw
    return node, kl_node


def variational_forward_reparam(
    layer: DenseVariational, x, noise: NoiseDraw, _memo: dict | None = None, *, _tape=False
):
    """One weight/bias draw shared by the whole batch: x W_sample + b_sample.

    A Tensor x, or an array x with `_tape`, gives the layer's training node
    and its KL node (an array x gets no gradient). At inference `_memo`, a
    dict shared by calls on the same parameters, keeps the posterior's std
    and KL from the first call.
    """
    if layer.estimator != REPARAM:
        raise ContractError(f"layer estimator is {layer.estimator!r}, not {REPARAM!r}")
    _check_input(layer, x)
    post = w_std, b_std, kl, _ = _posterior_arrays(layer, noise, _memo)
    w = w_std * noise.weight_eps
    w += layer.weight_post.mu.data
    xa = _array(x)
    out = xa @ w
    out += layer.bias_post.mu.data + b_std * noise.bias_eps
    if not (isinstance(x, Tensor) or _tape):
        return out, kl

    def data_grads(g):
        if isinstance(x, Tensor):
            x.accumulate_grad(g @ w.T)
        d_w, d_b = xa.T @ g, g.sum(axis=0)
        return [d_w, d_w * noise.weight_eps, d_b, d_b * noise.bias_eps]

    return _variational_nodes(layer, x, out, post, data_grads, "reparam")


def variational_forward_flipout(
    layer: DenseVariational,
    x,
    noise: NoiseDraw,
    _memo: dict | None = None,
    *,
    _tape=False,
    _same_x=True,
):
    """Pseudo-independent per-example weight perturbations.

    Row n sees x_n W_mu + ((x_n * r_n) (std * eps)) * s_n with a shared
    perturbation base eps and per-example sign vectors r_n, s_n. The bias
    is sampled once per batch by plain reparameterization.

    Both phases compute the output with the same array operations in the
    same order. A Tensor x, or an array x with `_tape`, gives the layer's
    training node, whose backward is the closed form of that affine map,
    and its KL node (an array x gets no gradient). At inference `_memo`, a
    dict shared by calls on the same parameters, keeps the posterior's std
    and KL from the first call, and x W_mu too unless `_same_x` is false.
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
    post = w_std, b_std, kl, _ = _posterior_arrays(layer, noise, _memo)
    mua = layer.weight_post.mu.data
    r, s, eps = noise.sign_in, noise.sign_out, noise.weight_eps
    tape = isinstance(x, Tensor) or _tape
    if tape:  # products with int8 signs are slower than with float64 ones at batch sizes
        r, s = r.astype(np.float64), s.astype(np.float64)
    xa = _array(x)
    xs = xa * r
    delta = w_std * eps
    # ((x W_mu) + ((x*r) delta) * s) + b in place; adding x W_mu second is
    # exact, since floating-point addition commutes
    out = xs @ delta
    if not tape:
        del xs  # at inference an M x d_in array: freed before the sums below
    out *= s
    memo = _memo if _memo is not None and _same_x and not tape else {}
    if "xw" not in memo:
        memo["xw"] = xa @ mua
    out += memo["xw"]
    out += layer.bias_post.mu.data + b_std * noise.bias_eps  # one bias draw per batch
    if not tape:
        return out, kl

    def data_grads(g):
        gs = g * s
        if isinstance(x, Tensor):
            dx = gs @ delta.T
            dx *= r
            dx += g @ mua.T
            x.accumulate_grad(dx)
        d_std = xs.T @ gs
        d_std *= eps
        d_b = g.sum(axis=0)
        return [xa.T @ g, d_std, d_b, d_b * noise.bias_eps]

    return _variational_nodes(layer, x, out, post, data_grads, "flipout")


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
