"""GRU cell, the two-layer MLP, classifier heads, and the joint loss.

One gated recurrent step computes

    z = sigmoid(W_xz x + W_hz h + b_z)          update gate
    r = sigmoid(W_xr x + W_hr h + b_r)          reset gate
    n = tanh(W_xg x + r * (W_hg h) + b_g)       candidate state
    h' = (1 - z) * n + z * h

The model runs the same cell twice with shared weights (see
``Model.forward``): step 1 consumes the image embedding from a zero state and
yields the coarse-level output o1, step 2 consumes the attention embedding
(or the image embedding again for the no-attention ablation) and yields o2.
The joint objective is the plain sum of the two cross-entropy branches;
there is no weighting knob. A minibatch runs as one graph: x and h hold one
column per sample, and each branch is the mean over the batch.

Step 1 passes ``None`` for the state. At h = 0 every state-side product
W_h* h, the reset gate's only use r * (W_hg h) and the carry z * h are exact
zeros, so the step computes only

    z = sigmoid(W_xz x + b_z),  n = tanh(W_xg x + b_g),  h' = (1 - z) * n

without the reset gate. Because W @ 0 = 0 exactly for finite W and a + 0 = a,
the values and gradients are those of the full cell run on an explicit zero
state, up to the sign of an exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tensor, matmul, parameter, relu, sigmoid, softmax_cross_entropy, tanh,
                       tsum)
from .errors import ShapeError


# Both recurrent inputs are spatial means (the pooled embedding at t=1, the
# attended embedding at t=2), so their scale is a fraction of the descriptors
# they summarize. Input-side matrices start wider than the scale-preserving
# uniform(+-1/sqrt(fan_in)) by this factor so the small attended signal is
# transmitted from the start; with the fixed two-phase learning-rate schedule
# the gain cannot be recovered by training at desk scale.
DEFAULT_INPUT_GAIN = 8.0


def uniform_weight(rows: int, cols: int, rng: np.random.Generator,
                   gain: float = 1.0) -> Tensor:
    """A (rows, cols) parameter drawn from uniform(+-gain/sqrt(cols))."""
    bound = gain / np.sqrt(cols)
    return parameter(rng.uniform(-bound, bound, size=(rows, cols)))


@dataclass
class GruParams:
    """The nine learned arrays of one GRU cell; hidden size H, input size D."""

    w_xz: Tensor
    w_hz: Tensor
    b_z: Tensor
    w_xr: Tensor
    w_hr: Tensor
    b_r: Tensor
    w_xg: Tensor
    w_hg: Tensor
    b_g: Tensor

    @classmethod
    def init(cls, input_dim: int, hidden: int, rng: np.random.Generator) -> "GruParams":
        return cls(
            w_xz=uniform_weight(hidden, input_dim, rng, DEFAULT_INPUT_GAIN),
            w_hz=uniform_weight(hidden, hidden, rng), b_z=parameter(np.zeros(hidden)),
            w_xr=uniform_weight(hidden, input_dim, rng, DEFAULT_INPUT_GAIN),
            w_hr=uniform_weight(hidden, hidden, rng), b_r=parameter(np.zeros(hidden)),
            w_xg=uniform_weight(hidden, input_dim, rng, DEFAULT_INPUT_GAIN),
            w_hg=uniform_weight(hidden, hidden, rng), b_g=parameter(np.zeros(hidden)),
        )

    @property
    def hidden(self) -> int:
        return self.w_hz.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_xz.shape[1]


def gru_step(x: Tensor, h_prev: Tensor | None, params: GruParams) -> Tensor:
    """One step over a batch: inputs x (D, B) and states h_prev (H, B), one
    column per sample, give the new states h' (H, B); ``None`` for h_prev is
    the zero state."""
    if x.data.ndim != 2 or x.shape[0] != params.input_dim:
        raise ShapeError(f"gru_step: input shape {x.shape} does not match "
                         f"parameter input dim {params.input_dim}")
    if h_prev is None:
        z = sigmoid(params.w_xz @ x + params.b_z)
        n = tanh(params.w_xg @ x + params.b_g)
        # n * (1 - z), not (1 - z) * n: backward then reaches n's subtree
        # before z's, as in the full cell where z * h is walked first, so a
        # leaf both gates read (a conv backbone's pooled x) sums its gradient
        # terms in the same order.
        return n * (1.0 - z)
    if h_prev.shape != (params.hidden, x.shape[1]):
        raise ShapeError(f"gru_step: state shape {h_prev.shape} does not match "
                         f"hidden size {params.hidden} and batch {x.shape[1]}")
    z = sigmoid(params.w_xz @ x + params.w_hz @ h_prev + params.b_z)
    r = sigmoid(params.w_xr @ x + params.w_hr @ h_prev + params.b_r)
    n = tanh(params.w_xg @ x + r * (params.w_hg @ h_prev) + params.b_g)
    return (1.0 - z) * n + z * h_prev


@dataclass
class Mlp:
    """w2 relu(w1 x + b1) + b2: the attention module's guidance network and,
    in the fc_ha ablation, the fully connected stand-in for a recurrent step.
    ``input_gain`` widens the first layer like the GRU's input-side matrices."""

    w1: Tensor  # (hidden, in_dim)
    b1: Tensor  # (hidden,)
    w2: Tensor  # (out_dim, hidden)
    b2: Tensor  # (out_dim,)

    @classmethod
    def init(cls, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator,
             input_gain: float = 1.0) -> "Mlp":
        return cls(w1=uniform_weight(hidden, in_dim, rng, input_gain),
                   b1=parameter(np.zeros(hidden)),
                   w2=uniform_weight(out_dim, hidden, rng), b2=parameter(np.zeros(out_dim)))

    def apply(self, x: Tensor) -> Tensor:
        return matmul(self.w2, relu(matmul(self.w1, x) + self.b1)) + self.b2


@dataclass
class ClassifierHead:
    """Linear logit projection for one hierarchy level."""

    w: Tensor  # (C, H)
    b: Tensor  # (C,)

    @classmethod
    def init(cls, classes: int, hidden: int, rng: np.random.Generator) -> "ClassifierHead":
        return cls(w=uniform_weight(classes, hidden, rng), b=parameter(np.zeros(classes)))


def classify(o_t: Tensor, head: ClassifierHead) -> Tensor:
    return head.w @ o_t + head.b


@dataclass
class LossReport:
    """The two branches of the joint loss, in nats, averaged over a batch;
    the total is their sum. ``per_sample`` holds each sample's joint loss
    when the report comes from a batch's graph."""

    model: float
    vehicle: float
    per_sample: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def total(self) -> float:
        return self.model + self.vehicle

    @classmethod
    def mean(cls, reports: list["LossReport"]) -> "LossReport":
        if not reports:
            raise ValueError("cannot average an empty list of loss reports")
        model = float(np.mean([r.model for r in reports]))
        vehicle = float(np.mean([r.vehicle for r in reports]))
        return cls(model, vehicle)


def hierarchical_loss(logits_model: Tensor, y_model,
                      logits_vehicle: Tensor, y_vehicle) -> tuple[Tensor, LossReport]:
    """Sum of the coarse and fine cross-entropy branches, each the mean over
    the batch: logits (C, B) with label vectors (B,), or one sample's logits
    (C,) with integer labels.

    Returns the differentiable total alongside a float report whose total is
    exactly the sum of its branches.
    """
    l_model = softmax_cross_entropy(logits_model, y_model)
    l_vehicle = softmax_cross_entropy(logits_vehicle, y_vehicle)
    n = l_model.data.size
    model = tsum(l_model) / n
    vehicle = tsum(l_vehicle) / n
    return model + vehicle, LossReport(model.item(), vehicle.item(),
                                       l_model.data + l_vehicle.data)

