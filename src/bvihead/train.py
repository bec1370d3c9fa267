"""Variational training loop: single-sample ELBO estimate per mini-batch.

The loss is NLL plus a weighted KL term; the weight mode controls how the
full-dataset KL is spread across batches. Everything is deterministic
given the config seed: shuffling and per-batch noise derive their own
sub-seeded generators from (seed, epoch, batch).

For the length of a run the head's parameters are views into one flat
float64 vector: in Head.parameters() order, or for a variational head
every mu leaf and then every rho leaf, in layer order. Each step
(`model.train_step`) runs forward and closed-form backward on plain
arrays and writes every parameter's gradient into its view of a second
one; the optimizers update the first in place with a few vector
operations, which Adam runs block by block so that each block stays in
cache between them. A variational head's posterior math runs over the
contiguous rho block in the same blocks, once before the layers and
once after their backwards, in buffers built once per run. No autodiff
graph is recorded.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import LabeledFeatureSet, batches
from .errors import ConfigError, ContractError, NumericError
from .fsio import atomic_write_text, csv_text
from .model import STOCHASTIC_VI, Head, bind_parameters, draw_noise_bundle, parameter_views
from .model import train_step
from .model import forward  # noqa: F401  # perfbench/tracer.py wraps it here
from .tensor import Tensor, nll

SGD = "sgd"
ADAM = "adam"

KL_ONE_OVER_N = "one-over-n"
KL_ONE_OVER_BATCHES = "one-over-batches"
KL_CONSTANT = "constant"
KL_MODES = (KL_ONE_OVER_N, KL_ONE_OVER_BATCHES, KL_CONSTANT)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = ADAM
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    kl_weight_mode: str = KL_ONE_OVER_N
    kl_weight_const: float = 1.0
    seed: int = 7
    shuffle: bool = True

    def __post_init__(self):
        # each message starts with its field's name; the config reader adds the section
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.optimizer not in (SGD, ADAM):
            raise ConfigError(f"optimizer: unknown optimizer {self.optimizer!r}")
        if self.kl_weight_mode not in KL_MODES:
            raise ConfigError(f"kl_weight_mode: unknown kl_weight_mode {self.kl_weight_mode!r}")
        # a momentum of 1 or more lets the velocity grow without bound; Adam
        # divides by 1 - beta2**t, 0 at beta2 = 1, and takes the root of a
        # negative beyond it
        for name in ("momentum", "beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.kl_weight_const < 0:
            raise ConfigError(f"kl_weight_const must be >= 0, got {self.kl_weight_const}")


@dataclass
class EpochStats:
    epoch: int
    nll: float
    kl: float
    loss: float
    accuracy: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        """One column per `EpochStats` field, one row per epoch."""
        return csv_text([f.name for f in fields(EpochStats)], map(astuple, self.epochs))

    def save(self, path) -> None:
        atomic_write_text(path, self.to_csv())


def elbo_loss(log_probs: Tensor, labels, kl_total: Tensor, kl_weight: float) -> Tensor:
    """Negated single-sample ELBO: mean NLL plus kl_weight * KL, as a graph
    node (the reference of `model.train_step`)."""
    if kl_weight < 0:
        raise ConfigError(f"kl_weight must be >= 0, got {kl_weight}")
    data_term = nll(log_probs, labels)
    if kl_weight == 0.0:
        return data_term
    return data_term + kl_total * kl_weight


def kl_weight_for(cfg: TrainConfig, n_examples: int, n_batches: int) -> float:
    """The weight of the KL term: a train step's loss is the batch-mean
    NLL plus kl_weight * KL.

    `one-over-n`, the default, gives 1/N for N training examples: the KL
    weighted per example, as in the ELBO divided by N. `one-over-batches`
    gives 1/M for M batches per epoch, B times more at batch size B (64
    times at the default N = 1,600 and B = 64). It equals Blundell et al.
    2015's pi_i = 1/M (arXiv:1505.05424, section 3.4) only for an NLL
    summed over the batch, not for the batch mean used here. `constant`
    gives `kl_weight_const` as it is.
    """
    if cfg.kl_weight_mode == KL_ONE_OVER_N:
        return 1.0 / n_examples
    if cfg.kl_weight_mode == KL_ONE_OVER_BATCHES:
        return 1.0 / n_batches
    return cfg.kl_weight_const


# ---- optimizers ------------------------------------------------------------

# Values per block of an Adam step and of the posterior sweep. Each
# array's block, 256 KB, stays in a core's L2 cache through the step's
# in-place ufunc calls, where a whole vector of a default VI head (1.35 MB
# per array) is streamed from memory on every call; 8,192-value blocks
# measured slower.
BLOCK = 32_768


def _blocks(arrays: tuple, scratch: tuple) -> list[tuple]:
    """The arrays, equal-sized flat vectors, cut into BLOCK-value blocks,
    each joined by as many leading values of every scratch buffer."""
    n = arrays[0].size
    return [
        tuple(x[lo:lo + BLOCK] for x in arrays) + tuple(s[:min(BLOCK, n - lo)] for s in scratch)
        for lo in range(0, n, BLOCK)
    ]


class Sgd:
    """Momentum SGD on a flat parameter vector, updated in place."""

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        self.lr = learning_rate
        self.momentum = momentum
        self.velocity: np.ndarray | None = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(theta)
        _check_flat(theta, grad, self.velocity)
        self.velocity *= self.momentum
        self.velocity -= self.lr * grad
        theta += self.velocity


class Adam:
    """Adam on a flat parameter vector, updated in place block by block.

    A gradient that differs only in the signs of exact zeros gives the same
    step. A round-to-nearest sum is -0.0 only when both terms are, and m
    and v start at +0.0, so m never turns -0.0 and m + (±0.0) is m; g * g
    is +0.0 for either sign. Sgd's velocity is the same unless a zero
    momentum or an underflow turns it -0.0, and even then only a parameter
    that is itself -0.0 could change.
    """

    def __init__(self, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
            self._scratch = np.empty((2, min(theta.size, BLOCK)))
        _check_flat(theta, grad, self.m)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for th, g, m, v, a, b in _blocks((theta, grad, self.m, self.v), self._scratch):
            # m += (1 - beta1) * (g - m); v += (1 - beta2) * (g * g - v)
            m += np.multiply(1.0 - self.beta1, np.subtract(g, m, out=a), out=a)
            np.multiply(g, g, out=a)
            a -= v
            v += np.multiply(1.0 - self.beta2, a, out=a)
            # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += self.eps
            np.multiply(self.lr, np.divide(m, bc1, out=b), out=b)
            th -= np.divide(b, a, out=b)


def _check_flat(theta: np.ndarray, grad: np.ndarray, state: np.ndarray) -> None:
    if theta.ndim != 1 or grad.shape != theta.shape or state.shape != theta.shape:
        raise ContractError(
            f"expected 1-D parameter and gradient vectors of the optimizer's size"
            f" {state.shape}, got {theta.shape} and {grad.shape}"
        )


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == SGD:
        return Sgd(cfg.learning_rate, cfg.momentum)
    return Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)


# ---- training loop -----------------------------------------------------------


def train(head: Head, data: LabeledFeatureSet, cfg: TrainConfig) -> tuple[Head, TrainReport]:
    """Mini-batch training of any head variant; returns the mutated head.

    One fresh noise draw per batch; a NaN/Inf loss aborts with the epoch
    and batch index.
    """
    if data.n == 0:
        raise ConfigError("training data is empty")
    if data.is_ood.any():
        raise ConfigError("training data must not contain OOD rows")
    k = head.config.num_classes
    if data.labels.min() < 0 or data.labels.max() >= k:
        raise ConfigError(
            f"labels range [{data.labels.min()}, {data.labels.max()}] outside [0, {k})"
        )

    optimizer = make_optimizer(cfg)
    params = head.parameters()
    variational = head.config.variant == STOCHASTIC_VI
    # a layer's leaves are [W_mu, W_rho, b_mu, b_rho]: every mu, then every rho
    order = params[0::2] + params[1::2] if variational else params
    theta = flatten_parameters(order)
    grad = np.empty_like(theta)
    views = dict(zip(map(id, order), parameter_views(order, grad)))
    # train_step writes every value each step
    grads = [[views[id(p)] for p in layer.leaves()] for layer in head.layers]
    posterior = _posterior_buffers(params[1::2], theta, grad) if variational else None
    report = TrainReport()

    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        epoch_batches = batches(
            data,
            cfg.batch_size,
            seed=int(np.random.default_rng((cfg.seed, epoch)).integers(2**31)),
            shuffle=cfg.shuffle,
        )
        kl_weight = kl_weight_for(cfg, data.n, len(epoch_batches))
        sum_nll = sum_kl = sum_loss = 0.0
        correct = 0
        for b_idx, batch in enumerate(epoch_batches):
            noise_rng = np.random.default_rng((cfg.seed, epoch, b_idx))
            bundle = draw_noise_bundle(head, batch.n, noise_rng)
            try:
                log_probs, batch_nll, kl, loss = train_step(
                    head, batch.features, batch.labels, bundle, kl_weight, grads, posterior
                )
            except NumericError as exc:
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}: {exc}"
                ) from exc
            optimizer.step(theta, grad)

            sum_nll += float(batch_nll) * batch.n
            sum_kl += float(kl) * batch.n
            sum_loss += float(loss) * batch.n
            correct += int((log_probs.argmax(axis=1) == batch.labels).sum())
        # nll, kl, loss and accuracy: the epoch's sums over its examples, per example
        per_example = (s / data.n for s in (sum_nll, sum_kl, sum_loss, correct))
        report.epochs.append(EpochStats(epoch, *per_example, time.perf_counter() - start))
    return head, report


def _posterior_buffers(rhos: list[Tensor], theta: np.ndarray, grad: np.ndarray) -> tuple:
    """`model.train_step`'s posterior for a variational head whose theta
    and grad hold every mu leaf, then the `rhos` in the same order.

    The mu and rho halves, with the std, exp and KL-term buffers the sweep
    writes and two scratch buffers, cut in BLOCK-value blocks; the
    gradient's halves in the same blocks; and each layer's views (std_W,
    std_b, terms_W, terms_b) of the buffers, built once for the run.
    """
    n = theta.size // 2
    std, e, terms = np.empty((3, n))
    blocks = _blocks((theta[:n], theta[n:], std, e, terms), np.empty((2, min(n, BLOCK))))
    stds, segments = parameter_views(rhos, std), parameter_views(rhos, terms)
    layers = [(*stds[i:i + 2], *segments[i:i + 2]) for i in range(0, len(rhos), 2)]
    return blocks, _blocks((grad[:n], grad[n:]), ()), layers


def flatten_parameters(params: list[Tensor]) -> np.ndarray:
    """Copy the parameters, in order, into one contiguous float64 vector.

    Each parameter's `.data` is rebound to its reshaped view of the
    vector, so an in-place optimizer step on the vector updates them all.
    """
    theta = np.concatenate([p.data.ravel() for p in params])
    bind_parameters(params, theta)
    return theta
