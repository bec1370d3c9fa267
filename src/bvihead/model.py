"""Three-layer classification heads in three variants.

A head maps feature vectors to class log-probabilities through exactly
three dense layers (F -> H1 -> H2 -> K) with ReLU between them. The
variant decides the layer family: plain deterministic (with training-time
dropout), MC dropout (dropout also active at inference), or stochastic
variational layers whose weights carry mean-field Gaussian posteriors.

A training step (`train_step`) runs each layer function's array form,
forward and closed-form backward, on the parameters' plain arrays and
writes the gradient into a flat vector; it records no autodiff graph.
`forward(..., TRAIN)` runs their Tensor form in the same order and
records one: the gradient reference of the tests. A Monte Carlo pass,
`forward(..., MC_INFERENCE)`, runs their array form in a reused
workspace, drops each backward, and returns its two results as leaf
tensors. Every layer function checks its own output, so both phases name
the same layer and operation for the same non-finite value.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dist import DiagonalGaussian, PriorSpec
from .errors import ConfigError, NumericError, ShapeError
from .fsio import atomic_write_text
from .layers import (
    ESTIMATORS,
    FLIPOUT,
    PHASES,
    TRAIN,
    DenseDeterministic,
    DenseVariational,
    DropoutSpec,
    dense_forward,
    draw_layer_noise,
    dropout_forward,
    in_row_halves,
    uniform_rows,
    variational_forward_flipout,
    variational_forward_reparam,
)
from .tensor import (
    Tensor,
    check_finite,
    log_softmax_array,
    log_softmax_backward,
    nll_backward,
    relu_backward,
    relu_forward,
)

DETERMINISTIC = "deterministic"
MC_DROPOUT = "mc-dropout"
STOCHASTIC_VI = "stochastic-vi"
VARIANTS = (DETERMINISTIC, MC_DROPOUT, STOCHASTIC_VI)

CHECKPOINT_FORMAT_VERSION = 2


@dataclass(frozen=True)
class HeadConfig:
    input_dim: int
    hidden_dims: tuple[int, int]
    num_classes: int
    variant: str
    dropout_rate: float = 0.2
    estimator: str = FLIPOUT

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if len(self.hidden_dims) != 2:
            raise ConfigError(f"expected exactly two hidden dims, got {self.hidden_dims}")
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        if any(int(d) <= 0 for d in dims):
            raise ConfigError(f"all layer dims must be positive, got {dims}")
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return [(dims[i], dims[i + 1]) for i in range(3)]


@dataclass
class Head:
    config: HeadConfig
    layers: list = field(default_factory=list)
    dropout: DropoutSpec | None = None

    def parameters(self) -> list[Tensor]:
        """All leaf parameter tensors, layer by layer in each one's order."""
        return [t for layer in self.layers for t in layer.leaves()]


def _he_uniform(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / d_in)
    return rng.uniform(-limit, limit, size=(d_in, d_out))


def build_head(cfg: HeadConfig, init_seed: int) -> Head:
    """Deterministically initialise a head from its config and seed.

    Weights (or posterior means) use fan-in scaled uniform draws, biases
    start at zero, and variational scales start at rho = -3 so the
    posterior is born narrow.
    """
    rng = np.random.default_rng(init_seed)
    layers = []
    for d_in, d_out in cfg.layer_dims:
        w = _he_uniform(rng, d_in, d_out)
        if cfg.variant == STOCHASTIC_VI:
            layers.append(
                DenseVariational(
                    weight_post=DiagonalGaussian(
                        Tensor(w), Tensor(np.full((d_in, d_out), -3.0))
                    ),
                    bias_post=DiagonalGaussian(
                        Tensor(np.zeros(d_out)), Tensor(np.full(d_out, -3.0))
                    ),
                    estimator=cfg.estimator,
                    prior=PriorSpec(),
                )
            )
        else:
            layers.append(
                DenseDeterministic(Tensor(w), Tensor(np.zeros(d_out)))
            )
    dropout = DropoutSpec(cfg.dropout_rate) if cfg.variant != STOCHASTIC_VI else None
    return Head(config=cfg, layers=layers, dropout=dropout)


# ---- noise bundles --------------------------------------------------------


def draw_noise_bundle(head: Head, m: int, rng: np.random.Generator, phase: str = TRAIN) -> list:
    """One entry per layer, the only code that decides which noise a forward
    sees: NoiseDraw for variational layers (with Flipout signs in TRAIN
    only), mask noise for the two hidden activations at a dropout rate > 0
    in TRAIN, and at inference for MC dropout only, None (no noise) else."""
    masks = (head.dropout is not None and head.dropout.rate > 0
             and (phase == TRAIN or head.config.variant == MC_DROPOUT))
    bundle = []
    for i, layer in enumerate(head.layers):
        if isinstance(layer, DenseVariational):
            bundle.append(draw_layer_noise(layer, m, rng, phase))
        elif i < 2 and masks:
            bundle.append(uniform_rows(rng, m, layer.weight.shape[1]))
        else:
            bundle.append(None)
    return bundle


def zero_noise_bundle(head: Head, m: int) -> list:
    """No noise for any layer: a deterministic head's inference bundle."""
    return [None] * len(head.layers)


def forward(
    head: Head, x: Tensor, noise: list, phase: str, _memo: dict | None = None
) -> tuple[Tensor, Tensor]:
    """Batched forward pass returning (log_probs, total KL).

    KL is zero for non-variational variants. Any non-finite intermediate
    raises NumericError naming the offending layer. The noise bundle alone
    decides what is random; a None dropout entry is no dropout at
    inference. TRAIN records the autodiff graph over the layer functions'
    Tensor form, the gradient reference of `train_step`. MC_INFERENCE runs
    their array form, records no graph, runs every variational layer's
    reparam forward and returns two leaf tensors. `_memo`, a dict shared
    by inference forwards of the same x, keeps per layer what does not
    change between them: each posterior's std and KL, a dense first
    layer's ReLU'd output, and the array each other layer writes its
    output into. A masked dropout layer writes over its mask noise
    instead, once read off as booleans, so that bundle serves one forward.
    The mask read-off and the ReLU run in row halves, as the layer
    functions do (`layers.in_row_halves`).
    """
    if len(x.shape) != 2 or x.shape[1] != head.config.input_dim:
        raise ShapeError(
            f"input {x.shape} does not match head input dim {head.config.input_dim}"
        )
    if len(noise) != len(head.layers):
        raise ConfigError(
            f"noise bundle has {len(noise)} entries for {len(head.layers)} layers"
        )
    if phase not in PHASES:
        raise ConfigError(f"unknown phase {phase!r}")
    for i, layer in enumerate(head.layers):
        if isinstance(layer, DenseVariational) and noise[i] is None:
            raise ConfigError(f"layer {i}: variational layer needs a noise draw")
    spec = head.dropout
    kl_total = None
    if phase == TRAIN:  # train_step's layers, as graph nodes
        h = x
        for i, layer in enumerate(head.layers):
            try:
                if isinstance(layer, DenseVariational):
                    fwd = (variational_forward_flipout if layer.estimator == FLIPOUT
                           else variational_forward_reparam)
                    h, kl = fwd(layer, h, noise[i])
                    kl_total = kl if kl_total is None else kl_total + kl
                else:
                    h = dense_forward(layer, h)
                if i < 2:
                    h = h.relu()
                    if spec is not None:
                        h = dropout_forward(spec, h, noise[i], TRAIN)
            except NumericError as exc:
                raise NumericError(f"layer {i}: {exc}") from exc
        return h.log_softmax(), Tensor(0.0) if kl_total is None else kl_total

    memo = {} if _memo is None else _memo
    h = x.data
    for i, layer in enumerate(head.layers):
        reused, mask = False, None  # the last layer's mask is freed first
        layer_memo = memo.setdefault(i, {})  # its "out" is the layer's output array
        shape = (x.shape[0], head.config.layer_dims[i][1])
        # a mask of another shape goes to dropout_forward, which rejects it
        over_mask = (spec is not None and i < 2 and noise[i] is not None
                     and noise[i].shape == shape)
        mask = (_by_rows(np.greater_equal, noise[i], spec.rate, np.empty(shape, bool))
                if over_mask else noise[i])
        try:
            if isinstance(layer, DenseVariational):
                h, kl = variational_forward_reparam(
                    layer, h, noise[i], layer_memo, out=layer_memo.get("out")
                )[:2]
                kl_total = kl if kl_total is None else kl_total + kl
            elif i == 0:
                reused = "out" in layer_memo  # then it holds the ReLU'd output
                h = layer_memo["out"] if reused else dense_forward(layer, h)[0]
                layer_memo["out"] = h
            else:
                h = dense_forward(layer, h, out=noise[i] if over_mask else layer_memo.get("out"))[0]
            if not over_mask:
                layer_memo["out"] = h
            if i < 2:
                if not reused:
                    _by_rows(np.maximum, h, 0.0, h)
                if spec is not None:
                    h = dropout_forward(spec, h, mask, phase, out=noise[i])[0]
        except NumericError as exc:
            raise NumericError(f"layer {i}: {exc}") from exc
    return (
        Tensor(log_softmax_array(h), _op="log_softmax"),
        Tensor(0.0 if kl_total is None else kl_total, _op="kl"),
    )


def _by_rows(ufunc, a: np.ndarray, scalar: float, out: np.ndarray) -> np.ndarray:
    """ufunc(a, scalar, out=out), in row halves."""
    in_row_halves(lambda lo, hi: ufunc(a[lo:hi], scalar, out=out[lo:hi]), *out.shape)
    return out


def train_step(
    head: Head, x: np.ndarray, labels: np.ndarray, noise: list, kl_weight: float, grads: list
) -> tuple[np.ndarray, float, float, float]:
    """One training step on plain arrays: (log_probs, nll, kl, loss) of the
    batch x under the negated single-sample ELBO, mean NLL plus kl_weight
    times the KL, with the loss's gradient with respect to each parameter
    written into `grads`, its views in Head.parameters() order.

    Every value equals that of forward(..., TRAIN), elbo_loss and
    Tensor.backward: the same layer functions and backward functions run
    in the same order, and a zero kl_weight adds no KL term. The first
    layer forms no gradient of x. The layer functions check their own
    outputs, so a non-finite pre-activation, KL or dropout product raises
    NumericError naming its layer; a non-finite total KL,
    log-probability, NLL or loss raises one too.
    """
    kl_total = None
    saved = []  # per layer: its backward, then its ReLU mask and dropout backward
    h = x
    for i, layer in enumerate(head.layers):
        mask = drop = None
        try:
            if isinstance(layer, DenseVariational):
                fwd = (variational_forward_flipout if layer.estimator == FLIPOUT
                       else variational_forward_reparam)
                h, kl, back = fwd(layer, h, noise[i])
                kl_total = kl if kl_total is None else kl_total + kl
            else:
                h, back = dense_forward(layer, h)
            if i < 2:
                h, mask = relu_forward(h)
                if head.dropout is not None:
                    h, drop = dropout_forward(head.dropout, h, noise[i], TRAIN)
        except NumericError as exc:
            raise NumericError(f"layer {i}: {exc}") from exc
        saved.append((back, mask, drop))
    log_probs = check_finite(log_softmax_array(h), "log_softmax")
    nll = check_finite(-log_probs[np.arange(x.shape[0]), labels].mean(), "nll")
    kl = 0.0 if kl_total is None else check_finite(kl_total, "kl")
    loss = nll if kl_weight == 0.0 else check_finite(nll + kl * kl_weight, "loss")

    gk = None if kl_weight == 0.0 else kl_weight
    g = log_softmax_backward(log_probs, nll_backward(log_probs.shape, labels, 1.0))
    end = len(grads)
    for i in reversed(range(len(head.layers))):
        back, mask, drop = saved[i]
        if mask is not None:  # the layer's output went through ReLU and dropout
            if drop is not None:
                g = drop(g)
            g = relu_backward(mask, g)
        start = end - len(head.layers[i].leaves())
        g = back(g, gk, grads[start:end], i > 0)
        end = start
    return log_probs, nll, kl, loss


# ---- checkpoint serialization ----------------------------------------------

# the JSON form of each HeadConfig field's annotation; an int is never a bool
_JSON_TYPES = {
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "str": lambda v: type(v) is str,
    "tuple[int, int]": lambda v: type(v) is list and all(type(d) is int for d in v),
}


def parameter_views(params: list[Tensor], flat: np.ndarray) -> list[np.ndarray]:
    """Each parameter's reshaped view, in order, of the flat vector `flat`,
    which holds exactly as many values as they do."""
    sizes = [p.data.size for p in params]
    return [
        chunk.reshape(p.data.shape)
        for p, chunk in zip(params, np.split(flat, np.cumsum(sizes)[:-1]))
    ]


def bind_parameters(params: list[Tensor], theta: np.ndarray) -> None:
    """Rebind each parameter's `.data`, in order, to its view of `theta`."""
    for p, view in zip(params, parameter_views(params, theta)):
        p.data = view


def _check_theta(theta: np.ndarray, error: type) -> None:
    """`error` naming the first non-finite value of theta, if any."""
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise error(f"checkpoint.theta[{bad[0]}] is not finite: {float(theta[bad[0]])}")


def head_to_dict(head: Head) -> dict:
    """The format_version, the config, and the parameters as one base64
    string of little-endian float64 values in Head.parameters() order. A
    non-finite parameter, which `head_from_dict` would reject, raises
    NumericError."""
    theta = np.concatenate([p.data.ravel() for p in head.parameters()])
    _check_theta(theta, NumericError)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": {**asdict(head.config), "hidden_dims": list(head.config.hidden_dims)},
        "theta": base64.b64encode(theta.astype("<f8").tobytes()).decode("ascii"),
    }


def _check_keys(obj, keys: list[str], where: str) -> None:
    """ConfigError unless obj is a JSON object with exactly these keys."""
    if type(obj) is not dict:
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise ConfigError(f"{where} has unknown key {unknown[0]!r}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ConfigError(f"{where} lacks key {missing[0]!r}")


def head_from_dict(doc) -> Head:
    """The head a checkpoint document describes; ConfigError if malformed."""
    if type(doc) is not dict:
        raise ConfigError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format_version {version!r}; retrain the head")
    _check_keys(doc, ["format_version", "config", "theta"], "checkpoint")
    c = doc["config"]
    _check_keys(c, [f.name for f in fields(HeadConfig)], "config")
    for f in fields(HeadConfig):
        if not _JSON_TYPES[f.type](c[f.name]):
            raise ConfigError(f"config.{f.name} must be {f.type}, got {type(c[f.name]).__name__}")
    cfg = HeadConfig(**c)
    try:
        raw = base64.b64decode(doc["theta"], validate=True)
    except (TypeError, ValueError) as exc:  # not a str, bad characters or padding
        raise ConfigError(f"checkpoint.theta is not a base64 string: {exc}") from None
    # checked against the header before build_head allocates anything
    n = sum(d_in * d_out + d_out for d_in, d_out in cfg.layer_dims)
    n *= 2 if cfg.variant == STOCHASTIC_VI else 1  # a mu and a rho per weight
    if len(raw) != 8 * n:
        raise ConfigError(f"checkpoint.theta holds {len(raw)} bytes, expected {n} float64 values")
    theta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    _check_theta(theta, ConfigError)
    head = build_head(cfg, init_seed=0)
    bind_parameters(head.parameters(), theta)
    return head


def save_head(head: Head, path) -> None:
    atomic_write_text(path, json.dumps(head_to_dict(head), indent=1, sort_keys=True))


def load_head(path) -> Head:
    """Read a checkpoint; a malformed one raises ConfigError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise ConfigError(f"{path}: checkpoint is not valid JSON: {exc}") from None
    try:
        return head_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
