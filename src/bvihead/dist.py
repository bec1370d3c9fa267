"""Mean-field Gaussian posteriors: reparameterized sampling and analytic KL.

Each parameter tensor of a variational layer owns a DiagonalGaussian whose
scale is kept positive through a softplus of the raw `rho` values. The KL
divergence to an independent Gaussian prior has a closed form, so it is
computed analytically (``kl_terms`` elementwise on plain arrays, whose
sum is the KL, ``kl_to_prior`` as a graph node over that sum,
``kl_grads`` the gradient of both); the Monte Carlo estimator exists only
in the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor


@dataclass(frozen=True)
class PriorSpec:
    """Independent Gaussian prior, one (mean, std) shared by all elements."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not self.std > 0:
            raise ConfigError(f"prior std must be positive, got {self.std}")


class DiagonalGaussian:
    """Posterior q(w) = N(mu, softplus(rho)^2), elementwise independent.

    `mu` and `rho` are leaf tensors; sampling and KL build graph nodes on
    top of them so gradients reach both.
    """

    def __init__(self, mu: Tensor, rho: Tensor):
        if mu.shape != rho.shape:
            raise ShapeError(f"mu shape {mu.shape} != rho shape {rho.shape}")
        self.mu = mu
        self.rho = rho

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mu.shape


def sample(g: DiagonalGaussian, eps, std: Tensor | None = None) -> Tensor:
    """Reparameterized draw w = mu + std * eps, std = softplus(rho) by default.

    `eps` is a Tensor or a constant array of the posterior's shape; pass
    `std` when softplus(rho) is already computed, to share it with the KL.
    """
    if eps.shape != g.shape:
        raise ShapeError(f"eps shape {eps.shape} != posterior shape {g.shape}")
    s = g.rho.softplus() if std is None else std
    return g.mu + s * eps


def kl_terms(mu: np.ndarray, std: np.ndarray, prior: PriorSpec, out=None, scratch=None):
    """The elementwise terms of the closed-form KL[N(mu, std^2) || prior],
    whose sum over elements is the KL, on plain arrays.

    Per element: ln(s_p/s_q) + (s_q^2 + (m_q - m_p)^2) / (2 s_p^2) - 1/2,
    evaluated in that order in two buffers: `out`, which it returns, and
    `scratch`, arrays of mu's shape when given.
    """
    dm = np.subtract(mu, prior.mean, out=scratch)
    dm *= dm
    quad = np.multiply(std, std, out=out)
    quad += dm
    quad *= 1.0 / (2.0 * prior.std**2)
    quad -= np.log(std, out=dm)
    quad += math.log(prior.std) - 0.5
    return quad


def kl_to_prior(
    g: DiagonalGaussian, prior: PriorSpec = PriorSpec(), std: Tensor | None = None
) -> Tensor:
    """Closed-form KL[q || p] summed over elements, as one graph node.

    The value is the sum of ``kl_terms`` and the gradients ``kl_grads``. `std` is an
    already-computed s_q = softplus(rho) to reuse; without it the KL
    computes its own, and gradients reach rho either way.
    """
    s_q = g.rho.softplus() if std is None else std
    if s_q.shape != g.shape:
        raise ShapeError(f"std shape {s_q.shape} != posterior shape {g.shape}")
    mu = g.mu
    s = s_q.data
    out = Tensor(kl_terms(mu.data, s, prior).sum(), (mu, s_q), _op="kl")

    def _bw(grad):
        for t, d in zip((mu, s_q), kl_grads(mu.data, s, prior, grad)):
            t.accumulate_grad(d)

    out._backward_fn = _bw
    return out


def kl_grads(mu: np.ndarray, std: np.ndarray, prior: PriorSpec, gk, out=(None, None)) -> tuple:
    """The gradients of gk times the KL, kl_terms(mu, std, prior) summed,
    in mu and in std, gk (m_q - m_p)/s_p^2 and gk (s_q/s_p^2 - 1/s_q), as
    two new arrays or written into `out`, two arrays of mu's shape."""
    inv_var = 1.0 / prior.std**2
    d_std = np.multiply(std, inv_var, out=out[1])
    d_std -= np.divide(1.0, std, out=out[0])
    d_std *= gk
    d_mu = np.subtract(mu, prior.mean, out=out[0])
    d_mu *= gk * inv_var
    return d_mu, d_std
