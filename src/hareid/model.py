"""Full pipeline assembly: backbone -> GAP -> two-step hierarchy -> heads.

Three variants share the surrounding plumbing:

* ``rnn_ha``             full model: shared-weight GRU plus attention.
* ``rnn_h_no_attention`` hierarchy kept, attention removed (x2 = x1).
* ``fc_ha``              GRU replaced by two independent two-layer
                         MLPs; attention kept.

Parameter registration order is fixed (conv stack, recurrent or fc block,
model head, vehicle head, attention net) so that, for one seed, variants
sharing a prefix draw identical initial values for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from .autodiff import Tensor, global_average_pool, reshape, stack, zeros
from .backbone import ActivationMap, ConvStackConfig, ConvStackParams, conv_forward
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .gru import (DEFAULT_INPUT_GAIN, ClassifierHead, GruParams, LossReport, Mlp, classify,
                  gru_step, hierarchical_loss)

VARIANTS = ("rnn_ha", "fc_ha", "rnn_h_no_attention")

# Checkpoint config text: one key=value line per field in this order, parsed
# back with the given type, then an optional conv line.
_TEXT_FIELDS = {"variant": str, "num_models": int, "num_vehicles": int, "d": int,
                "hidden": int, "attn_hidden": int, "backbone": str, "epsilon": float,
                "input_gain": float, "seed": int}


@dataclass
class ModelConfig:
    num_models: int
    num_vehicles: int
    variant: str = "rnn_ha"
    d: int = 16
    hidden: int = 1024
    attn_hidden: int = 0  # 0 means hidden // 2
    backbone: str = "ingested"  # ingested | conv
    epsilon: float = att.DEFAULT_EPSILON
    input_gain: float = DEFAULT_INPUT_GAIN
    seed: int = 0
    conv: ConvStackConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.backbone not in ("ingested", "conv"):
            raise ConfigError(f"unknown backbone {self.backbone!r}")
        if min(self.num_models, self.num_vehicles, self.d, self.hidden) < 1:
            raise ConfigError("class counts and dimensions must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.backbone == "conv":
            if self.conv is None:
                self.conv = ConvStackConfig(channels=self.d)
            if self.conv.channels != self.d:
                raise ConfigError(f"conv stack emits {self.conv.channels} channels "
                                  f"but config.d = {self.d}")

    @property
    def resolved_attn_hidden(self) -> int:
        return self.attn_hidden if self.attn_hidden > 0 else max(1, self.hidden // 2)

    def to_text(self) -> str:
        lines = [f"{key}={getattr(self, key)}" for key in _TEXT_FIELDS]
        if self.conv is not None:
            lines.append(f"conv={self.conv.layers},{self.conv.kernel},{self.conv.channels},"
                         f"{self.conv.in_channels},{self.conv.stride},{int(self.conv.pool)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            kv[key] = value

        def field(key, parse):
            if key not in kv:
                raise FormatError(f"model config lacks key {key!r}")
            try:
                return parse(kv[key])
            except ValueError:
                raise FormatError(f"model config key {key!r} has bad value "
                                  f"{kv[key]!r}") from None

        def conv_stack(value):
            layers, kernel, channels, in_channels, stride, pool = (int(v) for v in
                                                                   value.split(","))
            return ConvStackConfig(layers=layers, kernel=kernel, channels=channels,
                                   in_channels=in_channels, stride=stride, pool=bool(pool))

        try:
            return cls(**{key: field(key, parse) for key, parse in _TEXT_FIELDS.items()},
                       conv=field("conv", conv_stack) if "conv" in kv else None)
        except ConfigError as exc:
            raise FormatError(f"model config is inconsistent: {exc}") from None


@dataclass
class FeatureVector:
    """An evaluation feature; normalized means unit l2 norm (a zero o2 is
    passed through as zero and flagged)."""

    values: np.ndarray
    normalized: bool


def unit_rows(values) -> tuple[np.ndarray, np.ndarray]:
    """l2-normalize the rows of an (n, dim) array; a zero row stays zero and
    is flagged in the returned (n,) mask. A row whose norm is not finite (a
    NaN or infinite entry, or an overflow) is a NumericError."""
    rows = np.asarray(values, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"features must be (n, dim), got shape {rows.shape}")
    norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise NumericError(f"feature row {bad} has non-finite norm {norms[bad]}")
    zero = norms == 0.0
    return rows / np.where(zero, 1.0, norms)[:, None], zero


@dataclass
class ForwardResult:
    """A batch's embeddings, outputs and logits, one column per sample (x1
    (d, B), o1 and o2 (H, B), logits (C, B)); for a single input, the
    sample's vectors."""

    x1: Tensor
    o1: Tensor
    o2: Tensor
    logits_model: Tensor
    logits_vehicle: Tensor
    attention: att.AttentionWeights | None

    def only_sample(self) -> "ForwardResult":
        """The vectors of a batch of one."""
        def column(t: Tensor) -> Tensor:
            return reshape(t, t.shape[:1])

        weights = self.attention
        if weights is not None:
            weights = att.AttentionWeights(s=weights.s[0], a=weights.a[0],
                                           epsilon=weights.epsilon)
        return ForwardResult(x1=column(self.x1), o1=column(self.o1), o2=column(self.o2),
                             logits_model=column(self.logits_model),
                             logits_vehicle=column(self.logits_vehicle), attention=weights)


class Model:
    """One trainable instance of a variant, with a stable parameter registry."""

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.conv_params: ConvStackParams | None = None
        if config.backbone == "conv":
            self.conv_params = ConvStackParams.init(config.conv, rng)
        if config.variant == "fc_ha":
            self.fc1 = Mlp.init(config.d, config.hidden, config.hidden, rng, config.input_gain)
            self.fc2 = Mlp.init(config.d, config.hidden, config.hidden, rng, config.input_gain)
            self.gru: GruParams | None = None
        else:
            self.gru = GruParams.init(config.d, config.hidden, rng, config.input_gain)
        self.head_model = ClassifierHead.init(config.num_models, config.hidden, rng)
        self.head_vehicle = ClassifierHead.init(config.num_vehicles, config.hidden, rng)
        self.attn: Mlp | None = None
        if config.variant != "rnn_h_no_attention":
            self.attn = Mlp.init(config.hidden, config.resolved_attn_hidden, config.d, rng)

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        if self.conv_params is not None:
            out.update(self.conv_params.named())
        if self.gru is not None:
            out.update(self.gru.named())
        else:
            out.update(self.fc1.named("fc1"))
            out.update(self.fc2.named("fc2"))
        out.update(self.head_model.named("head_model"))
        out.update(self.head_vehicle.named("head_vehicle"))
        if self.attn is not None:
            out.update(self.attn.named("attn"))
        return out

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params().values())

    def _activation_maps(self, inp) -> tuple[ActivationMap, bool]:
        """The (B, h, w, d) map stack of a batch of inputs, and whether the
        input was a single sample (an (h, w, d) map or an (H, W, C) image,
        run as a batch of one)."""
        if self.conv_params is not None and not isinstance(inp, ActivationMap):
            images = np.asarray(inp, dtype=np.float64)
            single = images.ndim == 3
            tensor = stack([conv_forward(image, self.conv_params).tensor
                            for image in (images[None] if single else images)])
            return ActivationMap(tensor, provenance="conv"), single
        amap = inp if isinstance(inp, ActivationMap) else ActivationMap(
            Tensor(np.asarray(inp, dtype=np.float64)), provenance="ingested")
        single = amap.tensor.data.ndim == 3
        if single:
            amap = ActivationMap(reshape(amap.tensor, (1, *amap.shape)), amap.provenance)
        if amap.shape[-1] != self.config.d:
            raise ShapeError(f"activation map depth {amap.shape[-1]} does not match "
                             f"config.d = {self.config.d}")
        return amap, single

    def forward(self, inp) -> ForwardResult:
        """Run a batch (a (B, h, w, d) map stack or (B, H, W, C) images) as one
        graph; a single map or image comes back as the sample's vectors."""
        cfg = self.config
        amap, single = self._activation_maps(inp)
        x1 = global_average_pool(amap.tensor)
        if self.gru is None:
            o1 = self.fc1.apply(x1)
        else:
            h0 = zeros((cfg.hidden, amap.shape[0]))
            o1 = gru_step(x1, h0, self.gru).h  # coarse step, zero state
        if self.attn is None:
            x2, attention = x1, None
        else:
            x2, attention = att.attention_pipeline(o1, amap, self.attn, cfg.epsilon)
        if self.gru is None:
            o2 = self.fc2.apply(x2)
        else:
            o2 = gru_step(x2, o1, self.gru).h  # fine step, same weights, state o1
        result = ForwardResult(
            x1=x1, o1=o1, o2=o2,
            logits_model=classify(o1, self.head_model),
            logits_vehicle=classify(o2, self.head_vehicle),
            attention=attention,
        )
        return result.only_sample() if single else result

    def loss(self, inp, y_model, y_vehicle) -> tuple[Tensor, LossReport, ForwardResult]:
        """Mean joint loss of a batch with label vectors (B,), or of a single
        input with integer labels."""
        result = self.forward(inp)
        total, report = hierarchical_loss(result.logits_model, y_model,
                                          result.logits_vehicle, y_vehicle)
        return total, report, result

    def extract_feature(self, inp) -> FeatureVector:
        values, zero = unit_rows(self.forward(inp).o2.data[None])
        return FeatureVector(values=values[0], normalized=not zero[0])

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = self.params()
        if set(state) != set(params):
            missing = sorted(set(params) - set(state))
            extra = sorted(set(state) - set(params))
            raise ConfigError(f"parameter names disagree with checkpoint "
                              f"(missing {missing}, unexpected {extra})")
        for name, tensor in params.items():
            if state[name].shape != tensor.data.shape:
                raise ConfigError(f"{name}: checkpoint shape {state[name].shape} != "
                                  f"model shape {tensor.data.shape}")
            tensor.data[...] = state[name]

