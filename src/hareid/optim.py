"""RMSprop, the two-phase learning-rate schedule, and the training loop.

The optimizer keeps a running average of squared gradients per parameter:

    v <- alpha * v + (1 - alpha) * g^2
    theta <- theta - lr * g / (sqrt(v) + delta)

with constants ``ALPHA`` = 0.99, ``DELTA`` = 1e-8 and no momentum (the common
library defaults). The update runs over blocks of rows of about ``_SLICE``
elements of each parameter, its gradient and its v, so a block and its
temporaries stay in cache while the three statements pass over it; the
arithmetic is elementwise, so the result is the same to the bit as one pass
over the whole array. The learning rate is the paper's two-phase step: the
constant ``INITIAL_LR`` = 1e-3 before ``TrainSchedule.drop_epoch`` (5 by
default) and ``DROPPED_LR`` = 1e-4 from it on.
Each minibatch runs as one graph: the batch gradient is the gradient of the
batch-mean loss, from one forward and one backward pass. The per-epoch
shuffle comes from a counter-based generator keyed on (seed, epoch) so a run
can be resumed mid-way and reproduce the uninterrupted trace exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, backward, zero_grads
from .errors import ConfigError, NumericError
from .gru import LossReport
from .model import Model, check_seed


def rng_for(*key: int) -> np.random.Generator:
    """Deterministic counter-based generator for a key of up to two seeds
    (``check_seed`` refuses any other value, so no two keys share a stream)."""
    k = np.zeros(2, dtype=np.uint64)
    for i, v in enumerate(key[:2]):
        k[i] = np.uint64(check_seed(int(v)))
    return np.random.Generator(np.random.Philox(key=k))


@dataclass
class TrainSchedule:
    drop_epoch: int = 5
    batch_size: int = 64
    epochs: int = 20

    def __post_init__(self):
        if self.drop_epoch < 0:
            raise ConfigError(f"drop_epoch must be >= 0, got {self.drop_epoch}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


def lr_schedule(epoch: int, schedule: TrainSchedule | None = None) -> float:
    """Step schedule: ``INITIAL_LR`` before drop_epoch, ``DROPPED_LR`` from it on."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    schedule = schedule or TrainSchedule()
    return INITIAL_LR if epoch < schedule.drop_epoch else DROPPED_LR


@dataclass
class RmspropState:
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "RmspropState":
        return cls(v={name: np.zeros_like(t.data) for name, t in params.items()})


ALPHA = 0.99
DELTA = 1e-8
INITIAL_LR = 1e-3  # the paper's rate before the drop epoch
DROPPED_LR = 1e-4  # the rate from the drop epoch on
# Elements per RMSprop slice: 256 KB of float64, so a slice of the gradient,
# v, the parameter and the update's temporaries fit in L2 together.
_SLICE = 1 << 15


def rmsprop_step(params: dict[str, Tensor], state: RmspropState, lr: float) -> None:
    """One in-place update; aborts (mutating nothing) on non-finite gradients."""
    arrays: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for name, t in params.items():
        g = np.zeros_like(t.data) if t.grad is None else t.grad
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name}")
        arrays.append((np.atleast_1d(g), np.atleast_1d(state.v[name]),
                       np.atleast_1d(t.data)))
    for g, v, theta in arrays:
        # Blocks of rows along the first axis: basic slices, so views of v and
        # the parameter whatever their memory layout.
        rows = max(1, _SLICE * len(g) // max(g.size, 1))
        for lo in range(0, len(g), rows):
            gs, vs = g[lo:lo + rows], v[lo:lo + rows]
            vs *= ALPHA
            vs += (1.0 - ALPHA) * gs * gs
            theta[lo:lo + rows] -= lr * gs / (np.sqrt(vs) + DELTA)


@dataclass
class TrainResult:
    """The (epoch, mean loss) of each epoch run and the optimizer state; the
    epoch to resume from is ``schedule.epochs``."""

    trace: list[tuple[int, LossReport]]
    state: RmspropState


TrainItem = tuple[np.ndarray, int, int]  # input, model label, vehicle label


def train(model: Model, items: Sequence[TrainItem], schedule: TrainSchedule,
          seed: int, start_epoch: int = 0, state: RmspropState | None = None,
          on_epoch: Callable[[int, LossReport], None] | None = None) -> TrainResult:
    """Run the epoch loop, returning the per-epoch mean loss trace.

    Deterministic given (seed, start state): the shuffle for epoch e is keyed
    on (seed, e) alone, the last partial batch is kept, and each batch's
    gradient is that of its mean loss. Items are read one at a time, once
    per epoch, and their inputs must share one shape. A non-finite loss stops
    training with a ``NumericError`` naming the epoch, the batch and the
    first bad item; ``schedule.epochs`` below ``start_epoch`` is a
    ``ConfigError``.
    """
    if not items:
        raise ConfigError("training set is empty")
    if schedule.epochs < start_epoch:
        raise ConfigError(f"epochs={schedule.epochs} is below the epoch to resume from "
                          f"({start_epoch}); a run cannot be rewound")
    params = model.params()
    if state is None:
        state = RmspropState.init(params)
    n = len(items)
    trace: list[tuple[int, LossReport]] = []
    for epoch in range(start_epoch, schedule.epochs):
        lr = lr_schedule(epoch, schedule)
        order = rng_for(seed, epoch).permutation(n)
        model_sum = 0.0
        vehicle_sum = 0.0
        for number, lo in enumerate(range(0, n, schedule.batch_size)):
            batch = order[lo:lo + schedule.batch_size]
            inputs, y_model, y_vehicle = zip(*(items[i] for i in batch))
            zero_grads(params.values())
            total, report, _ = model.loss(np.stack(inputs), np.array(y_model),
                                          np.array(y_vehicle))
            bad = np.flatnonzero(~np.isfinite(report.per_sample))
            if bad.size:
                raise NumericError(f"epoch {epoch}, batch {number}: non-finite loss for "
                                   f"training item {batch[bad[0]]}")
            backward(total)
            del total, _  # free the batch's graph before the next one is built
            model_sum += report.model * len(batch)
            vehicle_sum += report.vehicle * len(batch)
            rmsprop_step(params, state, lr)
        report = LossReport.from_branches(model_sum / n, vehicle_sum / n)
        trace.append((epoch, report))
        if on_epoch is not None:
            on_epoch(epoch, report)
    return TrainResult(trace=trace, state=state)
