"""Dense layer families: deterministic, variational (reparam/Flipout), dropout.

Noise is always supplied by the caller as plain arrays, so every forward
is a pure function of (parameters, input, noise). That keeps stochastic
passes reproducible and lets tests freeze the noise.

Each layer function has two forms. On a plain array it returns the
output, a variational layer's KL, and the layer's closed-form backward,
written once: a training step keeps the backward, a Monte Carlo pass
drops it at once. It checks its own output, and `_posterior_arrays` the
KL, so a non-finite value raises NumericError naming what produced it.
On a Tensor input it runs the array form and records one graph node over
the input and the layer's leaves (and a variational layer one more scalar
node for its KL), whose backward calls that backward: the gradient
reference of the tests. Inference runs a variational layer of either
estimator through the reparam forward.

An array form that writes SPLIT_VALUES values or more, as an MC pass over
a thousand rows does, runs in two row halves (`in_row_halves`), the upper
one on a worker thread. Each such step computes a row from that row
alone, and a product splits only at widths where its halves were seen to
give the bits of one call (SPLIT_WIDTH), so no output depends on the split.
"""

from __future__ import annotations

import contextvars
import functools
from dataclasses import dataclass

import numpy as np

from .dist import DiagonalGaussian, PriorSpec, kl_array, kl_grads
from .dist import kl_to_prior, sample  # noqa: F401  # perfbench/tracer.py wraps them here
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor, check_finite, sigmoid_array, softplus_and_exp

REPARAM = "reparam"
FLIPOUT = "flipout"
ESTIMATORS = (REPARAM, FLIPOUT)

# forward-pass phases; which noise a pass sees is its noise bundle's choice
TRAIN = "train"
MC_INFERENCE = "mc-inference"
PHASES = (TRAIN, MC_INFERENCE)


def check_phase(phase: str) -> None:
    if phase not in PHASES:
        raise ConfigError(f"unknown phase {phase!r}")


# A row-wise step that writes this many values or more, 1,024 rows of
# H = 256, runs in two row halves. Handing a half to the worker thread
# costs about 50-60 us, as much as a ReLU or a mask read-off saves over
# 1,024 x 256 values; a 1,024 x 256 x 256 product takes 2.6 ms whole.
# Training batches of 64 rows, and MC passes of narrow heads, stay whole.
SPLIT_VALUES = 1024 * 256

# A product splits only when it is a multiple of this many columns wide.
# OpenBLAS picks its kernels and blocks by the operands' sizes. On
# SkylakeX (OpenBLAS 0.3.31, one thread) two half-calls of a product 2,
# 3, 10 or 300 columns wide sum some values in another order than one
# call, so their last bits differ: the last 4 columns of a dozen rows at
# 300, most values at 2 or 3. Every multiple of 8 from 8 to 512 gave the
# bits of one call at 12 to 300 inputs, over the row counts where it splits.
SPLIT_WIDTH = 8

# the KL prior of every variational layer, N(0, 1) as in Blundell et al.
# 2015: a checkpoint (config and theta) records no prior, so no head has another
PRIOR = PriorSpec()


@functools.cache
def _worker():
    from concurrent.futures import ThreadPoolExecutor  # 6-10 ms, so on first use only

    return ThreadPoolExecutor(1, thread_name_prefix="bvihead-rows")


def in_row_halves(body, m: int, n: int) -> None:
    """Run body(lo, hi) over the rows [0, m) of a row-wise step that
    writes an m x n array.

    Below SPLIT_VALUES values body runs once, for [0, m). From there up it
    runs for [0, m // 2) on this thread and for [m // 2, m) on one worker
    thread, in this thread's context, so its np.errstate holds there too.
    If the worker has not started the upper half when the lower one ends,
    as on a busy or a single CPU, this thread runs it instead. No half
    runs after it returns, and an error of the lower half is raised
    first. body must touch only rows [lo, hi) of its arrays and call no
    function that perfbench/tracer.py wraps.
    """
    if m * n < SPLIT_VALUES:
        body(0, m)
        return
    h = m // 2
    # cancel() succeeds only while the worker has not started the call
    future = _worker().submit(contextvars.copy_context().run, body, h, m)
    try:
        body(0, h)
    except BaseException:
        if not future.cancel():
            future.exception()  # waits for the worker's upper half
        raise
    if future.cancel():
        body(h, m)
    else:
        future.result()


def _affine(x, w, b, out):
    """x @ w + b, written into `out` when given; NumericError naming
    "forward" if a value is not finite. In row halves, one BLAS call each,
    when w is a multiple of SPLIT_WIDTH columns wide.
    """
    out = np.empty((x.shape[0], w.shape[1])) if out is None else out

    def rows(lo, hi):
        o = np.matmul(x[lo:hi], w, out=out[lo:hi])
        o += b
        check_finite(o, "forward")

    if w.shape[1] % SPLIT_WIDTH:
        rows(0, len(out))
    else:
        in_row_halves(rows, *out.shape)
    return out


@dataclass
class DenseDeterministic:
    weight: Tensor  # (in, out)
    bias: Tensor    # (out,)

    def __post_init__(self):
        if len(self.weight.shape) != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"weight {self.weight.shape} and bias {self.bias.shape} are inconsistent"
            )

    def leaves(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class DenseVariational:
    weight_post: DiagonalGaussian  # over (in, out)
    bias_post: DiagonalGaussian    # over (out,)
    estimator: str = FLIPOUT

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        win = self.weight_post.shape
        if len(win) != 2 or self.bias_post.shape != (win[1],):
            raise ShapeError(
                f"weight posterior {win} and bias posterior {self.bias_post.shape}"
                " are inconsistent"
            )

    def leaves(self) -> list[Tensor]:
        wp, bp = self.weight_post, self.bias_post
        return [wp.mu, wp.rho, bp.mu, bp.rho]


@dataclass(frozen=True)
class DropoutSpec:
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class NoiseDraw:
    """One batch worth of noise for a variational layer.

    weight_eps/bias_eps are standard-normal draws matching the posterior
    shapes. sign_in/sign_out are per-example Rademacher vectors of float64
    +-1, only used by the Flipout estimator in training.
    """

    weight_eps: np.ndarray
    bias_eps: np.ndarray
    sign_in: np.ndarray | None = None
    sign_out: np.ndarray | None = None


def _check_input(x, shape: tuple, what: str) -> None:
    """ShapeError unless x is a batch of rows as wide as `shape`'s inputs."""
    if len(x.shape) != 2 or x.shape[1] != shape[0]:
        raise ShapeError(f"input {x.shape} does not match {what} {shape}")


def dense_forward(layer: DenseDeterministic, x, *, out=None):
    """x W + b with the bias broadcast across rows.

    A Tensor x gives one graph node over (x, W, b). An array x gives the
    output, written into `out` when given, and the layer's closed-form
    backward `backward(g, gk, grads, need_dx)`, which writes dW and db
    into `grads` and returns dx when `need_dx` (a dense layer has no KL,
    so it ignores gk); the node's backward calls it. A non-finite output
    raises NumericError.
    """
    _check_input(x, layer.weight.shape, "weight")
    if isinstance(x, Tensor):
        out, backward = dense_forward(layer, x.data)
        return _training_node(x, layer.leaves(), out, backward, "dense")
    w = layer.weight.data
    out = _affine(x, w, layer.bias.data, out)

    def backward(g, gk, grads, need_dx):
        np.matmul(x.T, g, out=grads[0])
        g.sum(axis=0, out=grads[1])
        return g @ w.T if need_dx else None

    return out, backward


class _LayerNode(Tensor):
    """A layer's training node, whose KL node hands it the KL's gradient:
    its backward runs even when no data gradient reached it."""

    __slots__ = ()
    _takes_none = True


def _training_node(x: Tensor, leaves: list, out, backward, op: str, kl=None):
    """The graph form of a layer's training forward: one node over x and
    the layer's leaves whose backward runs the layer's `backward`, and for
    a variational layer one scalar node for its KL, which hands its
    gradient to the layer's node in the same backward pass."""
    node = _LayerNode(out, (x, *leaves), _op=op)
    kl_grad: list = []  # the KL node's gradient, for the layer's node

    def _bw(g):
        grads = [np.empty_like(t.data) for t in leaves]
        dx = backward(g, kl_grad.pop() if kl_grad else None, grads, True)
        if dx is not None:
            x.accumulate_grad(dx)
        for t, d in zip(leaves, grads):
            t.accumulate_grad(d)

    node._backward_fn = _bw
    if kl is None:
        return node
    kl_node = Tensor(kl, (node,), _op="kl")
    kl_node._backward_fn = kl_grad.append
    return node, kl_node


def _posterior_arrays(layer: DenseVariational, noise: NoiseDraw, memo: dict | None):
    """(std_W, std_b, KL, the softplus's two exps) from one softplus(rho)
    per posterior, shared by the draws, the KL and the backward's sigmoid.
    `memo`, a dict shared by calls on the same parameters, keeps them. A
    non-finite KL raises NumericError."""
    wp, bp = layer.weight_post, layer.bias_post
    if noise.weight_eps.shape != wp.shape or noise.bias_eps.shape != bp.shape:
        raise ShapeError(
            f"eps shapes {noise.weight_eps.shape}/{noise.bias_eps.shape} do not match"
            f" posterior shapes {wp.shape}/{bp.shape}"
        )
    memo = {} if memo is None else memo
    if "post" not in memo:
        (w_std, w_exp), (b_std, b_exp) = softplus_and_exp(wp.rho.data), softplus_and_exp(bp.rho.data)
        kl = kl_array(wp.mu.data, w_std, PRIOR) + kl_array(bp.mu.data, b_std, PRIOR)
        memo["post"] = (w_std, b_std, check_finite(kl, "kl"), (w_exp, b_exp))
    return memo["post"]


def _variational_backward(layer: DenseVariational, post, data_grads):
    """A variational layer's closed-form backward
    `backward(g, gk, grads, need_dx)`: writes [dW_mu, dW_rho, db_mu, db_rho]
    into `grads` and returns dx when `need_dx`.

    `data_grads(g, grads, need_dx)` returns dx and the data terms
    [dW_mu, dstd_W, db_mu, dstd_b], the two mu terms written into grads;
    g is None when only the KL reached the loss. gk, the KL's gradient, is
    None when the KL did not reach it. The KL's terms, `dist.kl_grads` as
    a separate KL node forms them, are added to the data terms, then
    drho = dstd * sigmoid(rho) once per posterior.
    """
    wp, bp = layer.weight_post, layer.bias_post
    w_std, b_std, _, exps = post

    def backward(g, gk, grads, need_dx):
        dx, terms = (None, [None] * 4) if g is None else data_grads(g, grads, need_dx)
        if gk is not None:
            for i, (mu, std) in enumerate(((wp.mu.data, w_std), (bp.mu.data, b_std))):
                for j, t in enumerate(kl_grads(mu, std, PRIOR, gk), 2 * i):
                    terms[j] = t if terms[j] is None else np.add(terms[j], t, out=terms[j])
        for j, rho, e in ((0, wp.rho.data, exps[0]), (2, bp.rho.data, exps[1])):
            if terms[j] is not grads[j]:  # only the KL reached the layer
                grads[j][...] = terms[j]
            np.multiply(terms[j + 1], sigmoid_array(rho, e), out=grads[j + 1])
        return dx

    return backward


def variational_forward_reparam(
    layer: DenseVariational, x, noise: NoiseDraw, _memo: dict | None = None, *, out=None
):
    """One weight/bias draw shared by the whole batch: x W_sample + b_sample.

    A Tensor x gives the layer's training node and its KL node, for a
    reparam layer only. An array x, of a layer of either estimator, gives
    the output, written into `out` when given, the KL and the layer's
    closed-form backward (see `_variational_backward`), which the node's
    backward calls. `_memo`, a dict shared by calls on the same
    parameters, keeps the posterior's std and KL from the first call.
    """
    if isinstance(x, Tensor):
        if layer.estimator != REPARAM:
            raise ContractError(f"layer estimator is {layer.estimator!r}, not {REPARAM!r}")
        out, kl, backward = variational_forward_reparam(layer, x.data, noise)
        return _training_node(x, layer.leaves(), out, backward, "reparam", kl)
    _check_input(x, layer.weight_post.shape, "weight posterior")
    post = w_std, b_std, kl, _ = _posterior_arrays(layer, noise, _memo)
    w = w_std * noise.weight_eps
    w += layer.weight_post.mu.data
    out = _affine(x, w, layer.bias_post.mu.data + b_std * noise.bias_eps, out)

    def data_grads(g, grads, need_dx):
        d_w = np.matmul(x.T, g, out=grads[0])
        d_b = g.sum(axis=0, out=grads[2])
        dx = g @ w.T if need_dx else None
        return dx, [d_w, d_w * noise.weight_eps, d_b, d_b * noise.bias_eps]

    return out, kl, _variational_backward(layer, post, data_grads)


def variational_forward_flipout(layer: DenseVariational, x, noise: NoiseDraw):
    """Pseudo-independent per-example weight perturbations, for training.

    Row n sees x_n W_mu + ((x_n * r_n) (std * eps)) * s_n with a shared
    perturbation base eps and per-example sign vectors r_n, s_n. The bias
    is sampled once per batch by plain reparameterization.

    A Tensor x gives the layer's training node and its KL node. An array x
    gives the output, the KL and the layer's closed-form backward (see
    `_variational_backward`), the closed form of that affine map, which the
    node's backward calls. Inference runs `variational_forward_reparam` on
    a sign-less draw instead.
    """
    if layer.estimator != FLIPOUT:
        raise ContractError(f"layer estimator is {layer.estimator!r}, not {FLIPOUT!r}")
    if isinstance(x, Tensor):
        out, kl, backward = variational_forward_flipout(layer, x.data, noise)
        return _training_node(x, layer.leaves(), out, backward, "flipout", kl)
    _check_input(x, layer.weight_post.shape, "weight posterior")
    m = x.shape[0]
    d_in, d_out = layer.weight_post.shape
    if noise.sign_in is None or noise.sign_out is None:
        raise ContractError("flipout noise draw is missing sign vectors")
    if noise.sign_in.shape != (m, d_in) or noise.sign_out.shape != (m, d_out):
        raise ShapeError(
            f"sign shapes {noise.sign_in.shape}/{noise.sign_out.shape} do not match"
            f" batch {m} with dims ({d_in}, {d_out})"
        )
    post = w_std, b_std, kl, _ = _posterior_arrays(layer, noise, None)
    mua = layer.weight_post.mu.data
    eps, r, s = noise.weight_eps, noise.sign_in, noise.sign_out
    xs = x * r
    delta = w_std * eps
    # ((x W_mu) + ((x*r) delta) * s) + b in place; adding x W_mu second is
    # exact, since floating-point addition commutes
    out = xs @ delta
    out *= s
    out += x @ mua
    out += layer.bias_post.mu.data + b_std * noise.bias_eps  # one bias draw per batch

    def data_grads(g, grads, need_dx):
        gs = g * s
        dx = None
        if need_dx:
            dx = gs @ delta.T
            dx *= r
            dx += g @ mua.T
        d_std = xs.T @ gs
        d_std *= eps
        d_b = g.sum(axis=0, out=grads[2])
        return dx, [np.matmul(x.T, g, out=grads[0]), d_std, d_b, d_b * noise.bias_eps]

    return check_finite(out, "forward"), kl, _variational_backward(layer, post, data_grads)


def dropout_forward(spec: DropoutSpec, x, mask_noise: np.ndarray | None, phase: str, *, out=None):
    """Inverted dropout: zero with probability rate, scale survivors.

    The noise bundle decides: at inference a None mask is the identity map;
    in TRAIN a rate > 0 with no mask raises ShapeError. A Tensor x gives one
    graph node, or x itself for the identity map. An array x gives the
    output, written into `out` (which may be x or the mask noise) when
    given, and the backward `g -> (g * keep) * scale` that the node calls,
    or (x, None) for the identity map. `mask_noise` may also be the boolean
    mask `mask_noise >= rate` of the kept units. A non-finite output raises
    NumericError.
    """
    check_phase(phase)
    if spec.rate == 0.0 or (mask_noise is None and phase != TRAIN):
        return x if isinstance(x, Tensor) else (x, None)
    if isinstance(x, Tensor):
        out, backward = dropout_forward(spec, x.data, mask_noise, phase)
        node = Tensor(out, (x,), _op="mul")
        node._backward_fn = lambda g: x.accumulate_grad(backward(g))
        return node
    if mask_noise is None or mask_noise.shape != x.shape:
        got = None if mask_noise is None else mask_noise.shape
        raise ShapeError(f"mask noise shape {got} does not match input {x.shape}")
    # uniform noise becomes a float64 0/1 mask once, so neither product casts it
    keep = mask_noise if mask_noise.dtype == bool else (mask_noise >= spec.rate).astype(np.float64)
    scale = 1.0 / (1.0 - spec.rate)
    out = np.empty(x.shape) if out is None else out

    def rows(lo, hi):
        # (x * 1.0 or x * 0.0) * scale is bit for bit x * (1.0 or 0.0) * scale,
        # signed zeros included
        o = np.multiply(x[lo:hi], keep[lo:hi], out=out[lo:hi])
        o *= scale
        check_finite(o, "dropout")

    in_row_halves(rows, *out.shape)

    def backward(g):
        dx = g * keep
        dx *= scale
        return dx

    return out, backward


def draw_layer_noise(
    layer: DenseVariational, m: int, rng: np.random.Generator, phase: str = TRAIN
) -> NoiseDraw:
    """Fresh standard-normal (and Rademacher, for Flipout) draws for one batch.

    weight_eps, then bias_eps, then, for a Flipout layer in TRAIN only,
    sign_in and sign_out from one bounded 32-bit draw: the same stream as
    `rng.integers(0, 2, shape) * 2 - 1` for each in turn. An unknown phase
    raises ConfigError.
    """
    check_phase(phase)
    d_in, d_out = layer.weight_post.shape
    weight_eps = rng.standard_normal((d_in, d_out))
    bias_eps = rng.standard_normal(d_out)
    if layer.estimator == FLIPOUT and phase == TRAIN:
        signs = rng.integers(0, 2, size=m * (d_in + d_out), dtype=np.int32) * 2.0 - 1.0
        sign_in = signs[: m * d_in].reshape(m, d_in)
        sign_out = signs[m * d_in :].reshape(m, d_out)
        return NoiseDraw(weight_eps, bias_eps, sign_in, sign_out)
    return NoiseDraw(weight_eps, bias_eps)


def uniform_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """rng.random((m, n)) bit for bit, leaving rng where that call leaves it.

    A PCG64 double takes exactly one 64-bit output, so `in_row_halves`'
    upper half draws from a copy of rng advanced past the lower half's
    outputs; rng then takes the copy's end state and keeps its own
    buffered 32-bit half, which `advance` clears. Any other bit generator
    draws the whole array at once.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64 or m * n < SPLIT_VALUES:
        return rng.random((m, n))
    out, start, upper = np.empty((m, n)), bg.state, np.random.PCG64()
    upper.state = start

    def rows(lo, hi):
        gen = rng if lo == 0 else np.random.Generator(upper.advance(lo * n))
        gen.random(out=out[lo:hi])

    in_row_halves(rows, m, n)
    bg.state = {**upper.state, "has_uint32": start["has_uint32"], "uinteger": start["uinteger"]}
    return out
