"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a ``Tensor`` wraps a numpy array and, when
produced by one of the primitives below, carries a closure that routes the
upstream gradient to its parents.  ``backward`` walks the graph in reverse
topological order and accumulates gradients with ``+=``, which is what makes
weight sharing across the two recurrent steps come out right.

A minibatch is one graph. Per-sample vectors are stacked as columns, so a
batch's hidden state is (H, B) and each weight product W @ X is one matrix
product whose backward sums over the batch; images and activation maps
stack along a leading axis, (B, H, W, C) and (B, h, w, d). The elementwise primitives broadcast an operand
whose shape is a prefix of the other's along the remaining axes, such as a
per-feature bias (H,) over the columns of an (H, B) stack.

Every primitive takes tensors and builds its output through one lean
constructor that sets the node's fields directly: float64 data (a 0-d array
for a scalar), whether any parent needs a gradient, the parents, the op name
and the backward rule. The operator sugar turns a Python-number operand, as
in ``1.0 - z``, into a parentless constant built the same way; it receives no
gradient. ``Tensor(data)``, ``parameter`` and ``constant`` make leaves.

Tensors are treated as immutable once they participate in a graph; leaf data
may be mutated between graphs (that is how the optimizer updates parameters).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError


class Tensor:
    """Dense float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        """A leaf holding ``data`` as float64; the primitives build op nodes."""
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # Operator sugar; every overload maps onto one of the named primitives.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, other)


def parameter(data) -> Tensor:
    """A leaf tensor that receives gradients."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _node(data, op: str, parents: tuple[Tensor, ...]) -> Tensor:
    """A primitive's output node, built without ``Tensor.__init__``.

    ``data`` is computed from float64 operands, so only a NumPy scalar (from
    a full reduction, or from two 0-d operands) needs converting, to a 0-d
    array. The node requires a gradient if any parent does; the primitive
    sets its ``_backward`` rule. Without parents it is a constant.
    """
    out = object.__new__(Tensor)
    out.data = data if data.__class__ is np.ndarray else np.asarray(data, dtype=np.float64)
    requires_grad = False
    for p in parents:
        if p.requires_grad:
            requires_grad = True
            break
    out.requires_grad = requires_grad
    out.grad = None
    out.op = op
    out.parents = parents
    out._backward = None
    return out


def _as_tensor(x) -> Tensor:
    """An operator's other operand: ``x`` if it is a tensor; otherwise, a
    Python number as in ``1.0 - z``, a parentless constant holding it."""
    if isinstance(x, Tensor):
        return x
    return _node(np.asarray(x, dtype=np.float64), "leaf", ())


def _add_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def topological_order(root: Tensor) -> list[Tensor]:
    """The tensors reachable from ``root``, each after all of its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

    ``loss`` must be a scalar (shape ``()``). An interior node's gradient is
    dropped as soon as it has been passed on to the node's parents, so only
    the leaves keep one.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = topological_order(loss)
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# Elementwise primitives


def _trailing(a: np.ndarray, ndim: int) -> np.ndarray:
    """``a`` with unit axes appended up to ``ndim`` axes (a scalar broadcasts as is)."""
    return a if a.ndim in (0, ndim) else a.reshape(a.shape + (1,) * (ndim - a.ndim))


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the trailing axes an operand of ``shape`` was broadcast along."""
    return g if g.shape == shape else g.reshape(shape + (-1,)).sum(axis=-1)


def _operands(x: Tensor, y: Tensor, op: str) -> tuple[np.ndarray, np.ndarray]:
    """The operands' data, broadcast-ready.

    Shapes must be identical, or one must be a prefix of the other: that
    operand is repeated along the other's trailing axes. A scalar broadcasts
    over everything, a per-feature bias (H,) over the batch columns of an
    (H, B) stack, a per-sample value (B,) over the grid of a (B, h, w) stack.
    """
    xd, yd = x.data, y.data
    if xd.shape == yd.shape:
        return xd, yd
    if yd.shape == xd.shape[:yd.ndim]:
        return xd, _trailing(yd, xd.ndim)
    if xd.shape == yd.shape[:xd.ndim]:
        return _trailing(xd, yd.ndim), yd
    raise ShapeError(f"{op}: shapes {x.shape} and {y.shape} are not identical "
                     "and neither is a prefix of the other")


def add(x: Tensor, y: Tensor) -> Tensor:
    xd, yd = _operands(x, y, "add")
    out = _node(xd + yd, "add", (x, y))

    def _bw(g):
        if x.requires_grad:
            _add_grad(x, _reduce_to(g, x.shape))
        if y.requires_grad:
            _add_grad(y, _reduce_to(g, y.shape))

    out._backward = _bw
    return out


def sub(x: Tensor, y: Tensor) -> Tensor:
    xd, yd = _operands(x, y, "sub")
    out = _node(xd - yd, "sub", (x, y))

    def _bw(g):
        if x.requires_grad:
            _add_grad(x, _reduce_to(g, x.shape))
        if y.requires_grad:
            _add_grad(y, _reduce_to(-g, y.shape))

    out._backward = _bw
    return out


def mul(x: Tensor, y: Tensor) -> Tensor:
    xd, yd = _operands(x, y, "mul")
    out = _node(xd * yd, "mul", (x, y))

    def _bw(g):
        if x.requires_grad:
            _add_grad(x, _reduce_to(g * yd, x.shape))
        if y.requires_grad:
            _add_grad(y, _reduce_to(g * xd, y.shape))

    out._backward = _bw
    return out


def div(x: Tensor, y: Tensor) -> Tensor:
    xd, yd = _operands(x, y, "div")
    out = _node(xd / yd, "div", (x, y))

    def _bw(g):
        if x.requires_grad:
            _add_grad(x, _reduce_to(g / yd, x.shape))
        if y.requires_grad:
            _add_grad(y, _reduce_to(-g * xd / (yd * yd), y.shape))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Nonlinearities


def logistic(x: np.ndarray) -> np.ndarray:
    """The sigmoid of an array: the forward arithmetic of ``sigmoid``."""
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|): no exp
    # overflow on large |x|.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def log1p_exp(x: np.ndarray) -> np.ndarray:
    """The softplus log(1 + exp(x)) of an array: the forward arithmetic of
    ``softplus``."""
    # max(x, 0) + log(1 + exp(-|x|)): identical to log(1 + exp(x)) without
    # overflow, and strictly positive for every representable input.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: Tensor) -> Tensor:
    y = logistic(x.data)
    out = _node(y, "sigmoid", (x,))

    def _bw(g):
        _add_grad(x, g * y * (1.0 - y))

    out._backward = _bw
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = _node(y, "tanh", (x,))

    def _bw(g):
        _add_grad(x, g * (1.0 - y * y))

    out._backward = _bw
    return out


def softplus(x: Tensor) -> Tensor:
    out = _node(log1p_exp(x.data), "softplus", (x,))

    def _bw(g):
        _add_grad(x, g * logistic(x.data))

    out._backward = _bw
    return out


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)
    out = _node(y, "relu", (x,))

    def _bw(g):
        _add_grad(x, g * (x.data > 0))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Linear algebra, reductions and reshaping


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)@(k,n), or a stack of them (s,m,k)@(s,k,n).

    A batch's weight products are the 2-D case with one column per sample,
    W (m,k) @ X (k,B), so the weight gradient g @ X^T sums over the batch in
    one GEMM. The stacked case multiplies per-sample data, such as each
    sample's descriptors by that sample's guidance vector.
    """
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != ad.ndim or ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"matmul: unsupported ranks for shapes {a.shape} and {b.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")
    out = _node(ad @ bd, "matmul", (a, b))

    def _bw(g):
        if a.requires_grad:
            _add_grad(a, g @ np.swapaxes(bd, -1, -2))
        if b.requires_grad:
            _add_grad(b, np.swapaxes(ad, -1, -2) @ g)

    out._backward = _bw
    return out


def tsum(x: Tensor, keep: int = 0) -> Tensor:
    """Sum over every axis after the first ``keep``: all elements to a scalar
    by default; ``keep=1`` sums each sample of a stack."""
    if not 0 <= keep <= x.data.ndim:
        raise ShapeError(f"tsum: cannot keep {keep} axes of shape {x.shape}")
    out = _node(x.data.reshape(x.shape[:keep] + (-1,)).sum(axis=-1), "sum", (x,))

    def _bw(g):
        _add_grad(x, np.broadcast_to(_trailing(g, x.data.ndim), x.shape))

    out._backward = _bw
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """``x`` viewed with another shape; ``x`` itself when the shape is its own."""
    shape = tuple(shape)
    if shape == x.data.shape:
        return x
    out = _node(x.data.reshape(shape), "reshape", (x,))

    def _bw(g):
        _add_grad(x, g.reshape(x.shape))

    out._backward = _bw
    return out


def transpose(x: Tensor) -> Tensor:
    """Swap the two axes of a matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got shape {x.shape}")
    out = _node(x.data.T, "transpose", (x,))

    def _bw(g):
        _add_grad(x, g.T)

    out._backward = _bw
    return out


def scale_rows(x: Tensor, a: Tensor) -> Tensor:
    """Scale each row of x (..., d), a vector along the last axis, by its own
    scalar in a, of shape x.shape[:-1]: the attention weighting step, where
    a (B, h, w) weights the descriptors of a (B, h, w, d) map stack. It is
    one ``mul`` node, a being the prefix operand, with the shapes checked."""
    if x.data.ndim < 1 or a.shape != x.shape[:-1]:
        raise ShapeError(f"scale_rows: shapes {x.shape} and {a.shape} do not align")
    return mul(x, a)


def pool_rows(x: np.ndarray) -> np.ndarray:
    """The grid means of a (B, h, w, d) stack, one (d,) row per sample: the
    forward arithmetic of ``global_average_pool``."""
    n, h, w, d = x.shape
    return x.reshape(n, h * w, d).sum(axis=1) / (h * w)


def global_average_pool(x: Tensor) -> Tensor:
    """Per-sample mean over the spatial grid of a (B, h, w, d) map stack: one
    image-embedding column per sample, (d, B), the layout the recurrent steps
    consume, with out[c, b] = (1/(h*w)) * sum_ij x[b,i,j,c].
    """
    if x.data.ndim != 4:
        raise ShapeError(f"global_average_pool needs a (B,h,w,d) stack, got shape {x.shape}")
    if x.data.size == 0:
        raise ShapeError(f"global_average_pool on empty tensor of shape {x.shape}")
    n, h, w, d = x.shape
    m = h * w
    out = _node(pool_rows(x.data).T, "gap", (x,))

    def _bw(g):
        _add_grad(x, np.broadcast_to((g.T / m)[:, None, :], (n, m, d)).reshape(x.shape))

    out._backward = _bw
    return out


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Cross entropy of softmax(logits) against hard labels, in nats.

    Logits (C,) with an integer label give a scalar; a stack (C, B) with a
    label vector (B,) gives one loss per sample, shape (B,). Computed through
    the max-shifted log-sum-exp so confident logits cannot overflow:
    loss = log sum_j exp(z_j - z_max) - (z_label - z_max).
    """
    if logits.data.ndim not in (1, 2):
        raise ShapeError(f"softmax_cross_entropy needs (C,) or (C, B) logits, "
                         f"got shape {logits.shape}")
    labels = np.asarray(labels).astype(np.intp)
    if labels.shape != logits.shape[1:]:
        raise ShapeError(f"softmax_cross_entropy: labels of shape {labels.shape} for "
                         f"logits of shape {logits.shape}")
    n = logits.shape[0]
    flat = labels.reshape(-1)
    outside = (flat < 0) | (flat >= n)
    if outside.any():
        raise IndexError(f"label {flat[outside][0]} out of range for {n} classes")
    cols = np.arange(flat.size)
    z = logits.data.reshape(n, -1)
    zmax = np.max(z, axis=0)
    ez = np.exp(z - zmax)
    total = np.sum(ez, axis=0)
    loss = np.log(total) - (z[flat, cols] - zmax)
    out = _node(loss.reshape(labels.shape), "cross_entropy", (logits,))

    def _bw(g):
        p = ez / total
        p[flat, cols] -= 1.0
        _add_grad(logits, (p * g.reshape(-1)).reshape(logits.shape))

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Convolution-stack primitives


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Valid stride-1 2-D convolution of x (..., H, W, Cin) with kernel (kh,kw,Cin,Cout).

    Leading axes are a batch of images: the windows of all of them meet the
    kernel in one GEMM, whose backward sums the kernel gradient over the batch.
    """
    if x.data.ndim < 3 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: need (..., H,W,C) input and (kh,kw,Cin,Cout) kernel, "
                         f"got {x.shape} and {kernel.shape}")
    *batch, h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: input channels {cin} != kernel channels {kcin} "
                         f"(shapes {x.shape}, {kernel.shape})")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({cout},)")
    if h < kh or w < kw:
        raise ShapeError(f"conv2d: input {x.shape} too small for kernel {kernel.shape}")
    oh, ow = h - kh + 1, w - kw + 1

    cols = np.empty((*batch, oh, ow, kh, kw, cin))
    for i in range(kh):
        for j in range(kw):
            cols[..., i, j, :] = x.data[..., i:i + oh, j:j + ow, :]
    flat = cols.reshape(-1, kh * kw * cin)
    y = (flat @ kernel.data.reshape(-1, cout) + bias.data).reshape(*batch, oh, ow, cout)
    out = _node(y, "conv2d", (x, kernel, bias))

    def _bw(g):
        gf = g.reshape(-1, cout)
        _add_grad(kernel, (flat.T @ gf).reshape(kernel.shape))
        _add_grad(bias, gf.sum(axis=0))
        if x.requires_grad:
            dcols = (gf @ kernel.data.reshape(-1, cout).T).reshape(cols.shape)
            dx = np.zeros_like(x.data)
            for i in range(kh):
                for j in range(kw):
                    dx[..., i:i + oh, j:j + ow, :] += dcols[..., i, j, :]
            _add_grad(x, dx)

    out._backward = _bw
    return out


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over the (H, W) axes of x (..., H, W, C);
    a partial window at the edge is kept.

    Ties route the gradient to the first element of the window, so the
    backward pass is deterministic.
    """
    if x.data.ndim < 3:
        raise ShapeError(f"max_pool2 needs an (..., H,W,C) tensor, got shape {x.shape}")
    *batch, h, w, c = x.shape
    oh, ow = (h + 1) // 2, (w + 1) // 2
    padded = np.full((*batch, oh * 2, ow * 2, c), -np.inf)
    padded[..., :h, :w, :] = x.data
    windows = padded.reshape(-1, oh, 2, ow, 2, c).transpose(0, 1, 3, 5, 2, 4)
    windows = windows.reshape(-1, oh, ow, c, 4)
    idx = windows.argmax(axis=4)
    pad_shape = padded.shape
    y = np.take_along_axis(windows, idx[..., None], axis=4)[..., 0]
    out = _node(y.reshape(*batch, oh, ow, c), "max_pool2", (x,))

    def _bw(g):
        dwin = np.zeros(idx.shape + (4,))
        np.put_along_axis(dwin, idx[..., None], g.reshape(idx.shape)[..., None], axis=4)
        dpad = dwin.reshape(-1, oh, ow, c, 2, 2).transpose(0, 1, 4, 2, 5, 3)
        _add_grad(x, dpad.reshape(pad_shape)[..., :h, :w, :])

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# Gradient checking


_GRAD_CHECK_STEP = 1e-5  # the central difference's base step


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def grad_check_groups(f: Callable[[], Tensor],
                      named_params: dict[str, Tensor]) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients,
    reported per parameter group.

    Relative error per coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|). Roundoff in the difference quotient
    (~|f| * eps / step) can dominate coordinates whose true derivative is
    tiny, so a coordinate that looks bad at the base step is re-measured at
    10x and 100x the step and the best-conditioned estimate is kept; a wrong
    backward rule stays wrong at every step and is still reported.
    """
    params = list(named_params.values())
    zero_grads(params)
    loss = f()
    if not np.isfinite(loss.data):
        raise NumericError("gradient check: loss is not finite")
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in named_params.items()}

    def rel_err(flat, i, a, h, name):
        saved = flat[i]
        flat[i] = saved + h
        f_plus = f().item()
        flat[i] = saved - h
        f_minus = f().item()
        flat[i] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"gradient check: non-finite loss while perturbing {name}")
        numeric = (f_plus - f_minus) / (2.0 * h)
        return abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))

    errors: dict[str, float] = {}
    for name, p in named_params.items():
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            a = analytic[name].reshape(-1)[i]
            err = rel_err(flat, i, a, _GRAD_CHECK_STEP, name)
            if err > 1e-5:
                for h in (10.0 * _GRAD_CHECK_STEP, 100.0 * _GRAD_CHECK_STEP):
                    err = min(err, rel_err(flat, i, a, h, name))
                    if err <= 1e-5:
                        break
            worst = max(worst, err)
        errors[name] = worst
    zero_grads(params)
    return errors

