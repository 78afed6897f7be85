"""Attention over deep descriptors, guided by the coarse-level output.

The coarse output o1 passes through a two-layer transformer network (an
``Mlp``: linear, ReLU, linear) into a guidance vector w living in descriptor
space. Each spatial location (i,j) of the activation map scores

    s_ij = softplus(w . f_ij)                       (strictly positive)
    a_ij = (s_ij + eps) / sum_kl (s_kl + eps)       (sums to one, eps = 0.1)

and the attended descriptors a_ij * f_ij are averaged over the grid into the
fine-level input embedding x2.

Every step works per sample. A batch holds o1 and w as columns, (H, B) and
(d, B), and the maps as a stack (B, h, w, d), so scores and weights are
(B, h, w) and x2 is (d, B). Scores, weights and ``attend`` also take a
single (h, w, d) map with a (d,) guidance vector, giving (h, w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, global_average_pool, matmul, reshape, scale_rows, softplus,
                       transpose, tsum)
from .backbone import ActivationMap
from .errors import ConfigError, ShapeError
from .gru import Mlp

DEFAULT_EPSILON = 0.1


@dataclass
class AttentionWeights:
    """The normalized weights a over the spatial grid, (B, h, w) for a batch
    or (h, w) for one map: the data of the weight tensor, for reporting and
    export (the differentiable path lives in the tensor itself)."""

    a: np.ndarray

    def argmax_cell(self) -> tuple[int, int]:
        """The (row, column) of the largest weight; the grid is the last two
        axes, so a batch of one gives its sample's cell."""
        row, col = np.unravel_index(np.argmax(self.a), self.a.shape)[-2:]
        return int(row), int(col)


def guidance_signal(o1: Tensor, params: Mlp) -> Tensor:
    """w = W2 relu(W1 o1 + b1) + b2 for a batch of coarse outputs o1 (H, B);
    the columns of w (d, B) live in descriptor space so that w . f is defined."""
    if o1.data.ndim != 2 or o1.shape[0] != params.w1.shape[1]:
        raise ShapeError(f"guidance_signal: o1 shape {o1.shape} does not match "
                         f"transformer input {params.w1.shape[1]}")
    return params.apply(o1)


def attention_scores(w: Tensor, amap: ActivationMap) -> Tensor:
    """Softplus of w . f_ij for every grid location of every sample, each map
    against its own guidance column: (B, h, w) for a batch, (h, w) for one map."""
    *batch, h, gw, d = amap.shape
    if w.shape != (d, *batch):
        raise ShapeError(f"attention_scores: guidance shape {w.shape} does not match "
                         f"descriptor dim {d} and batch {tuple(batch)}")
    n = int(np.prod(batch, dtype=int))
    flat = reshape(amap.tensor, (n, h * gw, d))
    columns = reshape(transpose(reshape(w, (d, n))), (n, d, 1))
    return reshape(softplus(matmul(flat, columns)), (*batch, h, gw))


def normalize_scores(s: Tensor, epsilon: float = DEFAULT_EPSILON) -> Tensor:
    """Shift by epsilon and normalize each sample's scores to a distribution
    over its grid (the last two axes)."""
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if s.data.ndim < 2:
        raise ShapeError(f"normalize_scores needs an (h, w) grid, got shape {s.shape}")
    shifted = s + epsilon
    return shifted / tsum(shifted, keep=s.data.ndim - 2)


def attend(a: Tensor, amap: ActivationMap) -> Tensor:
    """Scale every descriptor by its scalar weight, f_hat_ij = a_ij * f_ij, in
    one node: weights (B, h, w) over maps (B, h, w, d), or (h, w) over one map.
    ``scale_rows`` refuses a weight grid unlike the map's."""
    return scale_rows(amap.tensor, a)


def attention_embedding(attended: Tensor) -> Tensor:
    """x2 = (1/(h*w)) sum_ij f_hat_ij for each map of a (B, h, w, d) stack,
    as columns (d, B)."""
    return global_average_pool(attended)


def attention_pipeline(o1: Tensor, amap: ActivationMap,
                       params: Mlp) -> tuple[Tensor, AttentionWeights]:
    """Full guidance -> scores -> normalize -> attend -> embed chain over a
    batch: o1 (H, B) and maps (B, h, w, d) give x2 (d, B).

    Returns the differentiable x2 and the weights' data for reporting and
    export (the graph never mutates a node's data, so it is not copied).
    """
    w = guidance_signal(o1, params)
    s = attention_scores(w, amap)
    a = normalize_scores(s)
    x2 = attention_embedding(attend(a, amap))
    return x2, AttentionWeights(a=a.data)
