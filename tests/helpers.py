"""Shared test oracles: central finite differences against autodiff,
all-zero noise that collapses a variational layer onto its posterior means,
and the distance between the synthetic in-distribution and OOD centers."""

import numpy as np

from bvihead.data import SynthSpec, _centers
from bvihead.layers import FLIPOUT, DenseVariational, NoiseDraw
from bvihead.tensor import Tensor


def numeric_gradients(make_loss, arrays, h=1e-5):
    """Central-difference gradients of a scalar-valued graph builder.

    `make_loss` receives a list of Tensors (one per entry of `arrays`) and
    must return a scalar Tensor. Only forward values are used here, so the
    result is independent of the autodiff path it is checked against.
    """
    def value(arrs):
        loss = make_loss([Tensor(a) for a in arrs])
        return float(loss.data)

    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        flat = g.reshape(-1)
        for j in range(base.size):
            bumped = [a.copy() for a in arrays]
            bumped[i].reshape(-1)[j] += h
            up = value(bumped)
            bumped[i].reshape(-1)[j] -= 2 * h
            down = value(bumped)
            flat[j] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def analytic_gradients(make_loss, arrays):
    leaves = [Tensor(a) for a in arrays]
    loss = make_loss(leaves)
    loss.backward()
    return [leaf.grad.copy() for leaf in leaves]


def gradient_rel_error(make_loss, arrays, h=1e-5):
    """Norm-relative error between autodiff and finite differences."""
    ana = analytic_gradients(make_loss, arrays)
    num = numeric_gradients(make_loss, arrays, h=h)
    a = np.concatenate([g.reshape(-1) for g in ana])
    n = np.concatenate([g.reshape(-1) for g in num])
    denom = max(np.linalg.norm(n), 1e-12)
    return np.linalg.norm(a - n) / denom


def assert_gradients_match(make_loss, arrays, rel=1e-6, h=1e-5):
    err = gradient_rel_error(make_loss, arrays, h=h)
    assert err < rel, f"gradient mismatch: rel error {err:.3e} >= {rel}"


def zero_layer_noise(layer: DenseVariational, m: int) -> NoiseDraw:
    """All-zero noise: collapses any estimator onto the posterior means."""
    d_in, d_out = layer.weight_post.shape
    draw = NoiseDraw(np.zeros((d_in, d_out)), np.zeros(d_out))
    if layer.estimator == FLIPOUT:
        return NoiseDraw(
            draw.weight_eps,
            draw.bias_eps,
            np.ones((m, d_in)),
            np.ones((m, d_out)),
        )
    return draw


def zero_noise(head, m: int) -> list:
    """A bundle with all-zero noise for each variational layer and no
    dropout mask."""
    return [zero_layer_noise(layer, m) if isinstance(layer, DenseVariational) else None
            for layer in head.layers]


def min_center_gap(spec: SynthSpec) -> float:
    """Smallest distance between any OOD center and any in-dist center."""
    in_centers, out_centers = _centers(spec)
    gaps = np.linalg.norm(
        in_centers[:, None, :] - out_centers[None, :, :], axis=2
    )
    return float(gaps.min())
