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

from .autodiff import Tensor, constant, conv2d, max_pool2, parameter, relu
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
class ConvLayer:
    """One layer's (k, k, c_in, c_out) kernel and (c_out,) bias."""

    kernel: Tensor
    bias: Tensor


def conv_layers(config: ConvStackConfig, rng: np.random.Generator) -> list[ConvLayer]:
    """The stack's layers, first to last, each kernel drawn from
    uniform(+-1/sqrt(fan_in)) and each bias zero."""
    layers, cin = [], config.in_channels
    for _ in range(config.layers):
        bound = 1.0 / np.sqrt(config.kernel * config.kernel * cin)
        kernel = rng.uniform(-bound, bound,
                             size=(config.kernel, config.kernel, cin, config.channels))
        layers.append(ConvLayer(parameter(kernel), parameter(np.zeros(config.channels))))
        cin = config.channels
    return layers


def conv_forward(images, layers: list[ConvLayer]) -> ActivationMap:
    """Run the conv stack on a (B, H, W, C) stack of images as one graph;
    fully differentiable. C must be the input width of the first kernel."""
    x = constant(images)
    if x.data.ndim != 4:
        raise ShapeError(f"conv_forward expects a (B,H,W,C) stack, got shape {x.shape}")
    in_channels = layers[0].kernel.shape[2]
    if x.shape[-1] != in_channels:
        raise ShapeError(f"image has {x.shape[-1]} channels, stack expects {in_channels}")
    for layer in layers:
        x = max_pool2(relu(conv2d(x, layer.kernel, layer.bias)))
    return ActivationMap(x)
