"""Full pipeline assembly: backbone -> GAP -> two-step hierarchy -> heads.

Three variants share the surrounding plumbing:

* ``rnn_ha``             full model: shared-weight GRU plus attention.
* ``rnn_h_no_attention`` hierarchy kept, attention removed (x2 = x1).
* ``fc_ha``              GRU replaced by two independent two-layer
                         MLPs; attention kept.

Training runs the whole chain and both heads as one autodiff graph
(``Model.forward``) over a batch; a single map or image enters as a batch of
one, so every layer below ``Model`` sees one (B, ...) layout. Extraction
(``Model.extract_features``) runs a stack of inputs through the same chain
without the heads, and l2-normalizes o2. A conv backbone's stack runs through
its graph, image by image; from the activation maps on, extraction works on
the parameters' arrays without a graph. Each row keeps the bits of that
input's own ``forward``. The attention net's width ``max(1, hidden // 2)``
(``attn_hidden=0``), ``attention.DEFAULT_EPSILON`` and the input gain
``gru.DEFAULT_INPUT_GAIN`` are constants, recorded in the config text and
checked.

The parameter order is written once, in ``Model.__init__``: each block is
registered (``Model._add``, named by ``autodiff.named``) as it is drawn, in
the order conv stack, recurrent or fc block, model head, vehicle head,
attention net. That order fixes the seeded initial draws, the checkpoint's
tensor order and the RMSprop state, and for one seed variants sharing a
prefix draw identical initial values for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as att
from .autodiff import (Tensor, constant, global_average_pool, log1p_exp, logistic, named,
                       pool_rows)
from .backbone import ActivationMap, ConvLayer, ConvStackConfig, conv_forward, conv_layers
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .gru import (DEFAULT_INPUT_GAIN, ClassifierHead, GruParams, LossReport, Mlp, classify,
                  gru_step, hierarchical_loss)

VARIANTS = ("rnn_ha", "fc_ha", "rnn_h_no_attention")

# Checkpoint config text: one key=value line per key in this order, parsed
# back with the given type (a constant must hold its value), then an optional conv line.
_TEXT_FIELDS = {"variant": str, "num_models": int, "num_vehicles": int, "d": int,
                "hidden": int, "attn_hidden": int, "backbone": str, "epsilon": float,
                "input_gain": float, "seed": int}
_TEXT_CONSTANTS = {"attn_hidden": 0, "epsilon": att.DEFAULT_EPSILON,
                   "input_gain": DEFAULT_INPUT_GAIN}


def check_seed(seed: int) -> int:
    """``seed`` if it is an unsigned 64-bit integer, 0 <= seed < 2**64, as a
    Philox key word and the checkpoint's seed field hold it."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be {'>= 0' if seed < 0 else '< 2**64'}, got {seed}")
    return seed


@dataclass
class ModelConfig:
    """A model's shape and seed. The backbone is the conv stack when ``conv``
    is set and ingested (h, w, d) maps otherwise, as ``backbone`` names it."""

    num_models: int
    num_vehicles: int
    variant: str = "rnn_ha"
    d: int = 16
    hidden: int = 1024
    seed: int = 0
    conv: ConvStackConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if min(self.num_models, self.num_vehicles, self.d, self.hidden) < 1:
            raise ConfigError("class counts and dimensions must be positive")
        if 8 * self.hidden * max(self.hidden, self.d) >= 2**63:  # past NumPy's largest array
            raise ConfigError(f"hidden={self.hidden} with d={self.d} needs a float64 weight of "
                              f"2**63 bytes or more")
        check_seed(self.seed)
        if self.conv is not None and self.conv.channels != self.d:
            raise ConfigError(f"conv stack emits {self.conv.channels} channels "
                              f"but config.d = {self.d}")

    @property
    def backbone(self) -> str:
        return "ingested" if self.conv is None else "conv"

    def to_text(self) -> str:
        values = {**vars(self), "backbone": self.backbone, **_TEXT_CONSTANTS}
        lines = [f"{key}={values[key]}" for key in _TEXT_FIELDS]
        if self.conv is not None:
            # The last two fields record the fixed stride and pooling: 1, 1.
            lines.append(f"conv={self.conv.layers},{self.conv.kernel},{self.conv.channels},"
                         f"{self.conv.in_channels},1,1")
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
            if (stride, pool) != (1, 1):  # the stack's fixed stride and pooling
                raise ValueError
            return ConvStackConfig(layers=layers, kernel=kernel, channels=channels,
                                   in_channels=in_channels)

        values = {key: field(key, parse) for key, parse in _TEXT_FIELDS.items()}
        for key, value in _TEXT_CONSTANTS.items():
            if values.pop(key) != value:
                raise FormatError(f"model config key {key!r} must be {value}, got {kv[key]!r}")
        conv = field("conv", conv_stack) if "conv" in kv else None
        if values.pop("backbone") != ("ingested" if conv is None else "conv"):
            raise FormatError(f"model config key 'backbone' is {kv['backbone']!r} but the text "
                              f"{'lacks' if conv is None else 'has'} a conv line")
        try:
            return cls(**values, conv=conv)
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
        raise NumericError(f"feature row {bad} has non-finite norm {norms[bad]}", row=bad)
    zero = norms == 0.0
    return rows / np.where(zero, 1.0, norms)[:, None], zero


@dataclass
class ForwardResult:
    """A batch's outputs, one column per sample: o2 (H, B), logits (C, B),
    attention weights (B, h, w)."""

    o2: Tensor
    logits_model: Tensor
    logits_vehicle: Tensor
    attention: att.AttentionWeights | None


def _products(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A x for each row x of an (n, k) stack, as (n, m) rows; ``a`` is one
    (m, k) matrix or an (n, m, k) stack, one per row. The right operand is an
    (n, k, 1) stack, so NumPy makes one BLAS matrix-vector call per row: the
    call a one-sample graph makes for A @ x, so each row keeps its bits
    whatever n is (one GEMM over the stack would not)."""
    return np.matmul(a, rows[:, :, None])[:, :, 0]


def _mlp_rows(p: Mlp, rows: np.ndarray) -> np.ndarray:
    """``Mlp.apply`` on (n, in_dim) rows."""
    hidden = np.maximum(_products(p.w1.data, rows) + p.b1.data, 0.0)
    return _products(p.w2.data, hidden) + p.b2.data


def _gru_rows(x: np.ndarray, h: np.ndarray | None, p: GruParams) -> np.ndarray:
    """``gru_step`` on rows: inputs x (n, D) and states h (n, H), or None for
    the zero state."""
    if h is None:
        z = logistic(_products(p.w_xz.data, x) + p.b_z.data)
        n = np.tanh(_products(p.w_xg.data, x) + p.b_g.data)
        return n * (1.0 - z)
    z = logistic(_products(p.w_xz.data, x) + _products(p.w_hz.data, h) + p.b_z.data)
    r = logistic(_products(p.w_xr.data, x) + _products(p.w_hr.data, h) + p.b_r.data)
    n = np.tanh(_products(p.w_xg.data, x) + r * _products(p.w_hg.data, h) + p.b_g.data)
    return (1.0 - z) * n + z * h


def _attention_rows(o1: np.ndarray, maps: np.ndarray, p: Mlp) -> np.ndarray:
    """``attention.attention_pipeline``'s x2 on rows: guidance from o1 (n, H),
    scores, normalization, weighting and pooling of the maps (n, h, w, d)."""
    n, h, w, d = maps.shape
    guidance = _mlp_rows(p, o1)
    scores = log1p_exp(_products(maps.reshape(n, h * w, d), guidance))
    shifted = scores + att.DEFAULT_EPSILON
    a = shifted / shifted.sum(axis=-1)[:, None]
    return pool_rows(maps * a.reshape(n, h, w, 1))


class Model:
    """One trainable instance of a variant, with a stable parameter registry."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self._params: dict[str, Tensor] = {}
        rng = np.random.default_rng(config.seed)
        d, hidden = config.d, config.hidden
        self.conv_params: list[ConvLayer] | None = None
        if config.conv is not None:
            self.conv_params = [self._add(f"conv{i}", layer)
                                for i, layer in enumerate(conv_layers(config.conv, rng))]
        self.gru: GruParams | None = None
        if config.variant == "fc_ha":
            self.fc1 = self._add("fc1", Mlp.init(d, hidden, hidden, rng, DEFAULT_INPUT_GAIN))
            self.fc2 = self._add("fc2", Mlp.init(d, hidden, hidden, rng, DEFAULT_INPUT_GAIN))
        else:
            self.gru = self._add("gru", GruParams.init(d, hidden, rng))
        self.head_model = self._add("head_model",
                                    ClassifierHead.init(config.num_models, hidden, rng))
        self.head_vehicle = self._add("head_vehicle",
                                      ClassifierHead.init(config.num_vehicles, hidden, rng))
        self.attn: Mlp | None = None
        if config.variant != "rnn_h_no_attention":
            self.attn = self._add("attn", Mlp.init(hidden, max(1, hidden // 2), d, rng))

    def _add(self, prefix: str, block):
        """Register ``block``'s tensors under ``prefix``, after those drawn
        before it, and return the block."""
        self._params.update(named(block, prefix))
        return block

    def params(self) -> dict[str, Tensor]:
        """Every parameter by name, in drawing order (a fresh dict)."""
        return dict(self._params)

    def _activation_maps(self, inp) -> ActivationMap:
        """The (B, h, w, d) map stack of a batch of inputs; a single (h, w, d)
        map or (H, W, C) image is a batch of one."""
        inp = np.asarray(inp, dtype=np.float64)
        if inp.ndim == 3:
            inp = inp[None]
        if self.conv_params is not None:
            amap = conv_forward(inp, self.conv_params)
        else:
            amap = ActivationMap(constant(inp))
        if amap.shape[-1] != self.config.d:
            raise ShapeError(f"activation map depth {amap.shape[-1]} does not match "
                             f"config.d = {self.config.d}")
        return amap

    def forward(self, inp) -> ForwardResult:
        """Run a batch (a (B, h, w, d) map stack or (B, H, W, C) images) as one
        graph; a single map or image runs as a batch of one."""
        amap = self._activation_maps(inp)
        x1 = global_average_pool(amap.tensor)
        if self.gru is None:
            o1 = self.fc1.apply(x1)
        else:
            o1 = gru_step(x1, None, self.gru)  # coarse step, zero state
        if self.attn is None:
            x2, attention = x1, None
        else:
            x2, attention = att.attention_pipeline(o1, amap, self.attn)
        if self.gru is None:
            o2 = self.fc2.apply(x2)
        else:
            o2 = gru_step(x2, o1, self.gru)  # fine step, same weights, state o1
        return ForwardResult(o2=o2, logits_model=classify(o1, self.head_model),
                             logits_vehicle=classify(o2, self.head_vehicle),
                             attention=attention)

    def loss(self, inp, y_model, y_vehicle) -> tuple[Tensor, LossReport, ForwardResult]:
        """Mean joint loss of a batch with label vectors (B,); a single input
        takes integer labels and runs as a batch of one."""
        result = self.forward(inp)
        total, report = hierarchical_loss(result.logits_model, np.atleast_1d(y_model),
                                          result.logits_vehicle, np.atleast_1d(y_vehicle))
        return total, report, result

    def extract_features(self, inputs) -> tuple[np.ndarray, np.ndarray]:
        """The retrieval features of a stack of n maps (n, h, w, d), or of n
        images (n, H, W, C) with the conv backbone: ``unit_rows`` of their o2
        rows, with the zero mask.

        A conv backbone's stack runs through its graph, image by image. From
        the activation maps to o2 the chain of ``forward`` runs on the
        parameters' arrays without a graph or the heads, and makes the NumPy
        calls a one-sample graph makes, so every row has the bits of
        ``forward`` on that input alone, whatever the stack.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or len(inputs) == 0:
            raise ShapeError(f"extract_features takes a stack of maps or images, got shape "
                             f"{inputs.shape}")
        if self.conv_params is None:
            maps = self._activation_maps(inputs).tensor.data
        else:
            # Image by image: one conv GEMM over the stack would round some
            # map values differently from the one-image GEMM.
            maps = np.concatenate([self._activation_maps(image).tensor.data
                                   for image in inputs])
        x1 = pool_rows(maps)
        o1 = _mlp_rows(self.fc1, x1) if self.gru is None else _gru_rows(x1, None, self.gru)
        x2 = x1 if self.attn is None else _attention_rows(o1, maps, self.attn)
        o2 = _mlp_rows(self.fc2, x2) if self.gru is None else _gru_rows(x2, o1, self.gru)
        return unit_rows(o2)

    def extract_feature(self, inp) -> FeatureVector:
        """The retrieval feature of one map or image: ``extract_features`` of
        a stack of one."""
        inp = np.asarray(inp)
        if inp.ndim != 3:
            raise ShapeError(f"extract_feature takes one map or image, got shape {inp.shape}")
        values, zero = self.extract_features(inp[None])
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

