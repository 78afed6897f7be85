"""Representation backbone: a small trainable conv stack or ingested descriptors.

The backbone's only job is to produce activation maps, (h, w, d) tensors
that downstream modules read as h*w deep descriptors of dimension d; the
model stacks a batch's maps as (B, h, w, d). Real datasets enter through
descriptor files produced by any external feature extractor; the conv stack
exists so the whole pipeline stays trainable from raw pixels at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, conv2d, max_pool2, parameter, relu
from .errors import ConfigError, ShapeError


@dataclass
class ActivationMap:
    """An (h, w, d) activation tensor, or a batch of them stacked as
    (B, h, w, d)."""

    tensor: Tensor

    def __post_init__(self):
        if self.tensor.data.ndim not in (3, 4) or min(self.tensor.shape) < 1:
            raise ShapeError(f"activation map must be (h,w,d) or (B,h,w,d) with positive "
                             f"dims, got shape {self.tensor.shape}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tensor.shape


@dataclass
class ConvStackConfig:
    """conv -> ReLU -> 2x2 max-pool, repeated `layers` times: every convolution
    is valid with stride 1, and every pool is ceil-mode 2x2 with stride 2.

    With the defaults (three 2x2 convolutions) a 16x16 input lands on a 2x2
    spatial grid. ``in_channels`` is the images' channel count.
    """

    layers: int = 3
    kernel: int = 2
    channels: int = 32
    in_channels: int = 1

    def __post_init__(self):
        for name in ("layers", "kernel", "channels", "in_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"conv stack {name} must be at least 1, "
                                  f"got {getattr(self, name)}")


@dataclass
class ConvStackParams:
    """Per layer, a (k, k, c_in, c_out) kernel and a (c_out,) bias."""

    kernels: list[Tensor]
    biases: list[Tensor]

    @classmethod
    def init(cls, config: ConvStackConfig, rng: np.random.Generator) -> "ConvStackParams":
        kernels, biases = [], []
        cin = config.in_channels
        for _ in range(config.layers):
            fan_in = config.kernel * config.kernel * cin
            bound = 1.0 / np.sqrt(fan_in)
            kernels.append(parameter(rng.uniform(
                -bound, bound, size=(config.kernel, config.kernel, cin, config.channels))))
            biases.append(parameter(np.zeros(config.channels)))
            cin = config.channels
        return cls(kernels, biases)

    def named(self) -> dict[str, Tensor]:
        return {name: t for i, (k, b) in enumerate(zip(self.kernels, self.biases))
                for name, t in ((f"conv{i}.kernel", k), (f"conv{i}.bias", b))}


def conv_forward(images, params: ConvStackParams) -> ActivationMap:
    """Run the conv stack on a (B, H, W, C) stack of images as one graph;
    fully differentiable. C must be the input width of the first kernel."""
    x = Tensor(images)
    if x.data.ndim != 4:
        raise ShapeError(f"conv_forward expects a (B,H,W,C) stack, got shape {x.shape}")
    in_channels = params.kernels[0].shape[2]
    if x.shape[-1] != in_channels:
        raise ShapeError(f"image has {x.shape[-1]} channels, stack expects {in_channels}")
    for k, b in zip(params.kernels, params.biases):
        x = max_pool2(relu(conv2d(x, k, b)))
    return ActivationMap(x)
