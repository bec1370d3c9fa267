"""Dense float64 tensors with reverse-mode automatic differentiation.

Covers exactly what small fully connected classification heads need:
2-D matmul, elementwise arithmetic with bias-row broadcasting, relu,
softplus, log, row-wise log-softmax, negative log-likelihood and
summation. Every operation validates its output and raises NumericError
on NaN/Inf instead of letting bad values propagate.

The second operand of an elementwise op may be a Tensor, a Python scalar
or a constant ``np.ndarray`` of exactly the first operand's shape (a
noise draw, a sign vector, a dropout mask). Constants get no graph node
and no gradient; a constant of any other shape raises ShapeError.

Only the gradient reference of the tests records a graph: training and
inference run the same formulas on plain arrays. ``softplus_and_exp``,
``relu_forward``, ``sigmoid_array`` and ``log_softmax_array`` hold the
forward math, and ``relu_backward``, ``log_softmax_backward`` and
``nll_backward`` the backward math, that the graph nodes and the array
code share, so both give bit-identical values.

The recorded graph doubles as the gradient tape: each node keeps its
parents and a backward closure, and ``backward()`` replays the closures
in reverse topological order. It first resets the grad of every
reachable node to None; a node's first gradient contribution is then
assigned as its grad and later ones are added out of place, so no
zero-filled buffers are allocated and no grad is ever mutated after it
is handed on. A root can be walked backward only once.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError, TapeError


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """arr itself; NumericError naming op if any value is NaN or infinite."""
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")
    return arr


def softplus_and_exp(x: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """ln(1 + exp(x)), overflow-safe (x itself above 30), and the
    exp(min(x, 30)) it is computed from, for sigmoid_array to reuse;
    written into `out`, two arrays of x's shape, when given."""
    e = np.exp(np.minimum(x, 30.0, out=out[1]), out=out[1])
    sp = np.log1p(e, out=out[0])
    np.copyto(sp, x, where=x > 30.0)
    return sp, e


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(x, 0) and the mask relu_backward takes: 1.0 where x > 0, else 0.0.

    np.maximum gives np.where(x > 0, x, 0.0) byte for byte on finite x, a
    -0.0 input included, at about a tenth of the select's cost. The mask is
    float64: a product with a bool mask casts it through temporary buffers
    on every call, which measured no faster and left `compare`'s peak RSS
    up to 3 MB higher.
    """
    mask = (x > 0).astype(np.float64)
    return np.maximum(x, 0.0), mask


def log_softmax_array(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D array with max-subtraction for stability."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def sigmoid_array(x: np.ndarray, exp_x: np.ndarray | None = None, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below; never
    overflows. Written into `out`, an array of x's shape, when given.

    `exp_x`, the exp of softplus_and_exp(x), replaces the exp when every x
    is negative, since exp(-|x|) is then that same exp(x).
    """
    if exp_x is not None and (x < 0).all():
        d = np.add(1.0, exp_x, out=out)
        return np.divide(exp_x, d, out=d)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.divide(np.where(x >= 0, 1.0, e), d, out=out)


class Tensor:
    """A value in the computation graph: float64 data plus its gradient."""

    __slots__ = ("data", "grad", "_parents", "_backward_fn", "_consumed")
    # True for a node whose gradient can also reach it other than through
    # its children's backward, such as a layer node from its KL node
    _takes_none = False

    def __init__(self, data, _parents=(), _backward_fn=None, _op="tensor"):
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = check_finite(arr, _op)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g) -> None:
        """Add one gradient contribution: assign the first, add later ones out of place."""
        self.grad = g if self.grad is None else self.grad + g

    # ---- elementwise arithmetic -----------------------------------------

    def _binary_shapes(self, other: "Tensor", op: str) -> bool:
        """Validate shapes; return True when `other` broadcasts as a bias row."""
        if self.shape == other.shape:
            return False
        if (
            len(self.shape) == 2
            and other.shape in ((self.shape[1],), (1, self.shape[1]))
        ):
            return True
        raise ShapeError(f"{op}: shapes {self.shape} and {other.shape} are incompatible")

    def _binary(self, other, op: str, fwd, bwd_self, bwd_other):
        if isinstance(other, Tensor):
            bias_row = self._binary_shapes(other, op)
            out = Tensor(fwd(self.data, other.data), (self, other), _op=op)

            def _bw(g):
                self.accumulate_grad(bwd_self(g, self.data, other.data))
                go = bwd_other(g, self.data, other.data)
                if bias_row:
                    go = go.sum(axis=0).reshape(other.shape)
                other.accumulate_grad(go)

            out._backward_fn = _bw
            return out

        if isinstance(other, (int, float)):
            c = float(other)
        elif isinstance(other, np.ndarray):
            if other.shape != self.shape:
                raise ShapeError(
                    f"{op}: shapes {self.shape} and constant {other.shape} are incompatible"
                )
            c = other
        else:
            raise TypeError(
                f"{op}: expected Tensor, scalar or ndarray, got {type(other).__name__}"
            )
        out = Tensor(fwd(self.data, c), (self,), _op=op)
        out._backward_fn = lambda g: self.accumulate_grad(bwd_self(g, self.data, c))
        return out

    def __add__(self, other):
        return self._binary(
            other, "add",
            lambda a, b: a + b,
            lambda g, a, b: g,
            lambda g, a, b: g,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(
            other, "sub",
            lambda a, b: a - b,
            lambda g, a, b: g,
            lambda g, a, b: -g,
        )

    def __mul__(self, other):
        return self._binary(
            other, "mul",
            lambda a, b: a * b,
            lambda g, a, b: g * b,
            lambda g, a, b: g * a,
        )

    __rmul__ = __mul__

    # ---- matmul -----------------------------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    # ---- unary ops ---------------------------------------------------------

    def relu(self) -> "Tensor":
        data, mask = relu_forward(self.data)
        out = Tensor(data, (self,), _op="relu")
        out._backward_fn = lambda g: self.accumulate_grad(relu_backward(mask, g))
        return out

    def log(self) -> "Tensor":
        out = Tensor(np.log(self.data), (self,), _op="log")
        out._backward_fn = lambda g: self.accumulate_grad(g / self.data)
        return out

    def softplus(self) -> "Tensor":
        """ln(1 + exp(x)), overflow-safe: returns x itself above 30."""
        x = self.data
        sp, e = softplus_and_exp(x)
        out = Tensor(sp, (self,), _op="softplus")
        out._backward_fn = lambda g: self.accumulate_grad(g * sigmoid_array(x, e))
        return out

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), (self,), _op="sum")
        out._backward_fn = lambda g: self.accumulate_grad(np.full_like(self.data, g))
        return out

    def log_softmax(self) -> "Tensor":
        return log_softmax(self)

    # ---- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Propagate gradients from this scalar to every node in its graph.

        The grads of all reachable nodes are reset first, so no manual
        reset between passes is needed. A reachable node that no child
        handed a gradient hands none on: its backward is skipped, unless
        the node `_takes_none`, such as a layer node whose only used output
        is its KL node, which has its backward called with None. Raises
        TapeError when this root has already been walked.
        """
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar root, got shape {self.shape}")
        if self._consumed:
            raise TapeError("backward already ran on this root; build a fresh graph")
        self._consumed = True

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                node.grad = None
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and (node.grad is not None or node._takes_none):
                node._backward_fn(node.grad)


# ---- module-level operations ---------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Standard 2-D matrix product with dA = g Bᵀ, dB = Aᵀ g."""
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    out = Tensor(a.data @ b.data, (a, b), _op="matmul")

    def _bw(g):
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    out._backward_fn = _bw
    return out


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax with max-subtraction for stability."""
    if len(logits.shape) != 2:
        raise ShapeError(f"log_softmax: expected a 2-D tensor, got shape {logits.shape}")
    if logits.shape[1] < 2:
        raise ContractError(f"log_softmax: need at least 2 classes, got {logits.shape[1]}")
    log_probs = log_softmax_array(logits.data)
    out = Tensor(log_probs, (logits,), _op="log_softmax")
    out._backward_fn = lambda g: logits.accumulate_grad(log_softmax_backward(log_probs, g))
    return out


def nll(log_probs: Tensor, labels) -> Tensor:
    """Mean over rows of -log_probs[row, label]."""
    if len(log_probs.shape) != 2:
        raise ShapeError(f"nll: expected a 2-D tensor, got shape {log_probs.shape}")
    m, k = log_probs.shape
    idx = np.asarray(labels)
    if idx.shape != (m,):
        raise ShapeError(f"nll: expected {m} labels, got shape {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ContractError("nll: labels must be integers")
    if idx.min() < 0 or idx.max() >= k:
        bad = idx[(idx < 0) | (idx >= k)][0]
        raise IndexError(f"nll: label {bad} out of range [0, {k})")
    out = Tensor(-log_probs.data[np.arange(m), idx].mean(), (log_probs,), _op="nll")
    out._backward_fn = lambda g: log_probs.accumulate_grad(nll_backward(log_probs.shape, idx, g))
    return out


def relu_backward(mask: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through relu, g times relu_forward's mask: g where the
    input was positive, a zero elsewhere.

    On finite g it differs from np.where(x > 0, g, 0.0) only where that
    gives +0.0 and the product -0.0 (g < 0). Such signs reach the
    parameter gradients only as the signs of exact zeros, which no
    optimizer step passes on to the parameters (see `train.Adam`).
    """
    return g * mask


def log_softmax_backward(log_probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient through a row-wise log-softmax, given its output."""
    return g - np.exp(log_probs) * g.sum(axis=1, keepdims=True)


def nll_backward(shape: tuple[int, int], labels: np.ndarray, g) -> np.ndarray:
    """The gradient of g times the mean NLL with respect to the log-probabilities."""
    buf = np.zeros(shape)
    buf[np.arange(shape[0]), labels] = -g / shape[0]
    return buf
