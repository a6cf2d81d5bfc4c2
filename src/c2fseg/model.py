"""Encoder-decoder temporal convolutional network for frame labeling.

The backbone is a 1-D U-Net: ``depth`` max-pool/conv encoder stages, a
pyramid-pooling bottleneck, and ``depth`` upsample/conv decoder stages
with skip connections.  Each decoder stage owns (via a head) a prediction
at its own temporal resolution; downstream code ensembles those
coarse-to-fine predictions and also reuses the per-stage features as a
multi-resolution frame representation.

Feature maps are channels-first ``[C, T]`` throughout; probability
matrices handed to callers are time-major ``[T, C]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .seeding import substream


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 2048
    num_classes: int = 48
    num_activities: int = 0          # 0 disables the video-level head
    kernel: int = 5
    depth: int = 6
    encoder_channels: tuple = (256, 256, 256, 128, 128, 128, 128)
    decoder_channels: tuple = (128, 128, 128, 128, 128, 128)
    tpp_windows: tuple = (2, 3, 5, 6)
    upsample_mode: str = "linear"
    skip_connections: bool = True
    activity_hidden: int = 128

    def validate(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if len(self.encoder_channels) != self.depth + 1:
            raise ValueError(
                f"encoder_channels needs depth+1={self.depth + 1} entries, "
                f"got {len(self.encoder_channels)}")
        if len(self.decoder_channels) != self.depth:
            raise ValueError(
                f"decoder_channels needs depth={self.depth} entries, "
                f"got {len(self.decoder_channels)}")
        if self.kernel % 2 != 1 or self.kernel < 1:
            raise ValueError(f"kernel must be odd, got {self.kernel}")
        if self.upsample_mode not in ("linear", "nearest"):
            raise ValueError(f"unknown upsample_mode {self.upsample_mode!r}")
        if any(w < 1 for w in self.tpp_windows):
            raise ValueError("pyramid windows must be >= 1")
        if self.input_dim < 1 or self.num_classes < 1:
            raise ValueError("input_dim and num_classes must be positive")

    @property
    def min_input_len(self) -> int:
        return 2 ** self.depth


@dataclass
class DecoderOutputs:
    """Everything one forward pass produces.

    ``z``    per-decoder-stage features, coarse to fine, each [C_dec, T_u]
             over the (possibly padded) temporal domain of length t_pad;
    ``p``    per-stage class probabilities at full input resolution,
             each [t_in, C];
    ``f_en`` final encoder feature [C_enc, ceil(t_pad / 2**depth)];
    ``p_activity`` video-level activity probabilities [C_V] or None.
    """

    z: list
    p: list
    f_en: Tensor
    t_in: int
    t_pad: int
    p_activity: Tensor | None = None


def _he_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1dLayer:
    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator):
        self.kernel = kernel
        self.pad = (kernel - 1) // 2
        self.w = Tensor(_he_uniform(rng, (cout, cin, kernel), cin * kernel), requires_grad=True)
        self.b = Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.w, self.b, self.pad)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


class BatchNorm1dLayer:
    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.state = ad.BatchNormState(channels)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        return ad.batchnorm1d(x, self.gamma, self.beta, self.state, train)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.state.running_mean
        yield f"{prefix}.running_var", self.state.running_var


class DoubleConv:
    """conv -> norm -> relu, twice; the basic block of every stage."""

    def __init__(self, cin: int, cout: int, kernel: int, rng: np.random.Generator):
        self.conv1 = Conv1dLayer(cin, cout, kernel, rng)
        self.bn1 = BatchNorm1dLayer(cout)
        self.conv2 = Conv1dLayer(cout, cout, kernel, rng)
        self.bn2 = BatchNorm1dLayer(cout)

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        h = ad.relu(self.bn1(self.conv1(x), train))
        return ad.relu(self.bn2(self.conv2(h), train))

    def named_parameters(self, prefix: str):
        yield from self.conv1.named_parameters(f"{prefix}.conv1")
        yield from self.bn1.named_parameters(f"{prefix}.bn1")
        yield from self.conv2.named_parameters(f"{prefix}.conv2")
        yield from self.bn2.named_parameters(f"{prefix}.bn2")

    def named_buffers(self, prefix: str):
        yield from self.bn1.named_buffers(f"{prefix}.bn1")
        yield from self.bn2.named_buffers(f"{prefix}.bn2")


class PyramidBottleneck:
    """Multi-window pooling summary appended to the deepest encoder feature.

    Each window pools the encoder output down to max(1, floor(T_en/w))
    steps, a shared kernel-1 convolution collapses the channels to one,
    and the result is upsampled back to T_en.  The pooled branches are
    concatenated onto the original feature, then a kernel-3 convolution
    mixes the widened map back into itself.
    """

    def __init__(self, channels: int, windows: tuple, kernel_mix: int,
                 upsample_mode: str, rng: np.random.Generator):
        self.windows = tuple(windows)
        self.upsample_mode = upsample_mode
        self.collapse = Conv1dLayer(channels, 1, 1, rng) if self.windows else None
        self.out_channels = channels + len(self.windows)
        self.mix = (Conv1dLayer(self.out_channels, self.out_channels, kernel_mix, rng)
                    if self.windows else None)

    def pooled_concat(self, f_en: Tensor) -> Tensor:
        """The pooling pyramid itself; identity when no windows are set."""
        if not self.windows:
            return f_en
        t_en = f_en.shape[1]
        parts = [f_en]
        for w in self.windows:
            length = max(1, t_en // w)
            if t_en // w >= 1:
                trimmed = (f_en if length * w == t_en
                           else ad.slice_axis(f_en, 1, 0, length * w))
                pooled = ad.maxpool1d_ceil(trimmed, w)
            else:
                pooled = ad.maxpool1d_ceil(f_en, t_en)
            summary = self.collapse(pooled)
            parts.append(ad.upsample1d(summary, t_en, self.upsample_mode))
        return ad.concat(parts, axis=0)

    def __call__(self, f_en: Tensor) -> Tensor:
        out = self.pooled_concat(f_en)
        if self.mix is not None:
            out = self.mix(out)
        return out

    def named_parameters(self, prefix: str):
        if self.collapse is not None:
            yield from self.collapse.named_parameters(f"{prefix}.collapse")
        if self.mix is not None:
            yield from self.mix.named_parameters(f"{prefix}.mix")


class ProjectionHeads:
    """Per-decoder-stage affine + softmax classifiers.

    Kept separate from the backbone because the semi-supervised loop
    re-instantiates fresh heads each iteration while the backbone persists.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.layers = []
        for cdec in cfg.decoder_channels:
            w = Tensor(_he_uniform(rng, (cfg.num_classes, cdec), cdec), requires_grad=True)
            b = Tensor(np.zeros(cfg.num_classes), requires_grad=True)
            self.layers.append((w, b))

    def probs(self, z: list, t_pad: int, t_in: int) -> list:
        """Class probabilities per stage, upsampled to [t_in, C]."""
        out = []
        for (w, b), z_u in zip(self.layers, z):
            logits = ad.add(ad.matmul(w, z_u), ad.reshape(b, (-1, 1)))
            p = ad.softmax(logits, axis=0)
            p = ad.upsample1d(p, t_pad, self.cfg.upsample_mode)
            if t_pad != t_in:
                p = ad.slice_axis(p, 1, 0, t_in)
            out.append(ad.transpose2d(p))
        return out

    def named_parameters(self, prefix: str = "head"):
        for u, (w, b) in enumerate(self.layers, start=1):
            yield f"{prefix}{u}.w", w
            yield f"{prefix}{u}.b", b

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]


class ActivityHead:
    """Video-level classifier: max-pool the deepest encoder feature over
    time, then a two-layer MLP with softmax."""

    def __init__(self, cin: int, hidden: int, num_activities: int,
                 rng: np.random.Generator):
        self.w1 = Tensor(_he_uniform(rng, (hidden, cin), cin), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(_he_uniform(rng, (num_activities, hidden), hidden), requires_grad=True)
        self.b2 = Tensor(np.zeros(num_activities), requires_grad=True)

    def __call__(self, f_en: Tensor) -> Tensor:
        pooled = ad.reshape(ad.reduce_max(f_en, axis=1), (-1, 1))
        h = ad.relu(ad.add(ad.matmul(self.w1, pooled), ad.reshape(self.b1, (-1, 1))))
        logits = ad.add(ad.matmul(self.w2, h), ad.reshape(self.b2, (-1, 1)))
        return ad.reshape(ad.softmax(logits, axis=0), (-1,))

    def named_parameters(self, prefix: str = "activity"):
        yield f"{prefix}.fc1.w", self.w1
        yield f"{prefix}.fc1.b", self.b1
        yield f"{prefix}.fc2.w", self.w2
        yield f"{prefix}.fc2.b", self.b2


class Model:
    """Backbone + default heads (+ optional activity head)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        enc = cfg.encoder_channels
        self.enc_stages = []
        cin = cfg.input_dim
        for cout in enc:
            self.enc_stages.append(DoubleConv(cin, cout, cfg.kernel, rng))
            cin = cout
        self.bottleneck = PyramidBottleneck(enc[-1], cfg.tpp_windows, 3,
                                            cfg.upsample_mode, rng)
        self.dec_stages = []
        prev = self.bottleneck.out_channels
        for u in range(1, cfg.depth + 1):
            skip_ch = enc[cfg.depth - u] if cfg.skip_connections else 0
            self.dec_stages.append(DoubleConv(prev + skip_ch, cfg.decoder_channels[u - 1],
                                              cfg.kernel, rng))
            prev = cfg.decoder_channels[u - 1]
        self.heads = ProjectionHeads(cfg, rng)
        self.activity_head = (ActivityHead(enc[-1], cfg.activity_hidden,
                                           cfg.num_activities, rng)
                              if cfg.num_activities > 0 else None)

    # -- forward -----------------------------------------------------------

    def _prepare(self, v: np.ndarray) -> tuple[Tensor, int, int]:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.cfg.input_dim:
            raise ValueError(f"expected input [T, {self.cfg.input_dim}], got {v.shape}")
        t_in = v.shape[0]
        if t_in < 1:
            raise ValueError("empty input sequence")
        t_pad = max(t_in, self.cfg.min_input_len)
        x = v.T
        if t_pad > t_in:
            # replicate the last frame so short clips still reach the bottleneck
            x = np.concatenate([x, np.repeat(x[:, -1:], t_pad - t_in, axis=1)], axis=1)
        return Tensor(x), t_in, t_pad

    def _encode_stack(self, x: Tensor, train: bool) -> list:
        h = self.enc_stages[0](x, train)
        skips = [h]
        for stage in self.enc_stages[1:]:
            h = stage(ad.maxpool1d_ceil(h, 2), train)
            skips.append(h)
        return skips

    def encode(self, v: np.ndarray, train: bool = False) -> Tensor:
        """Encoder half only: the deepest feature map (cheap path for
        video-level classification)."""
        x, _, _ = self._prepare(v)
        return self._encode_stack(x, train)[-1]

    def features(self, v: np.ndarray, train: bool = False):
        """Run the backbone only: decoder features, encoder summary, lengths."""
        x, t_in, t_pad = self._prepare(v)
        skips = self._encode_stack(x, train)
        f_en = skips[-1]
        h = self.bottleneck(f_en)
        z: list[Tensor] = []
        for u, stage in enumerate(self.dec_stages, start=1):
            target = skips[self.cfg.depth - u]
            h = ad.upsample1d(h, target.shape[1], self.cfg.upsample_mode)
            if self.cfg.skip_connections:
                h = ad.concat([h, target], axis=0)
            h = stage(h, train)
            z.append(h)
        return z, f_en, t_in, t_pad

    def forward(self, v: np.ndarray, train: bool = False,
                heads: ProjectionHeads | None = None) -> DecoderOutputs:
        z, f_en, t_in, t_pad = self.features(v, train)
        heads = self.heads if heads is None else heads
        p = heads.probs(z, t_pad, t_in)
        p_act = self.activity_head(f_en) if self.activity_head is not None else None
        return DecoderOutputs(z=z, p=p, f_en=f_en, t_in=t_in, t_pad=t_pad,
                              p_activity=p_act)

    def activity_probs(self, f_en: Tensor) -> Tensor:
        if self.activity_head is None:
            raise ValueError("model was built without an activity head")
        return self.activity_head(f_en)

    # -- parameter plumbing ------------------------------------------------

    def named_parameters(self):
        for i, stage in enumerate(self.enc_stages):
            yield from stage.named_parameters(f"enc{i}")
        yield from self.bottleneck.named_parameters("tpp")
        for u, stage in enumerate(self.dec_stages, start=1):
            yield from stage.named_parameters(f"dec{u}")
        yield from self.heads.named_parameters()
        if self.activity_head is not None:
            yield from self.activity_head.named_parameters()

    def backbone_parameters(self) -> list:
        """Everything except the projection heads (the persistent part)."""
        head_ids = {id(t) for t in self.heads.parameters()}
        return [t for _, t in self.named_parameters() if id(t) not in head_ids]

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]

    def named_buffers(self):
        for i, stage in enumerate(self.enc_stages):
            yield from stage.named_buffers(f"enc{i}")
        for u, stage in enumerate(self.dec_stages, start=1):
            yield from stage.named_buffers(f"dec{u}")

    def param_count(self) -> int:
        return int(sum(t.data.size for _, t in self.named_parameters()))


def build_model(cfg: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model from (config, seed)."""
    return Model(cfg, substream(seed, "model"))


def multires_feature(outputs: DecoderOutputs, target_len: int,
                     mode: str = "linear") -> Tensor:
    """Frame-wise multi-resolution representation [target_len, depth * C_dec].

    Every decoder stage's feature is upsampled to the target length and
    L2-normalized per frame *before* concatenation, so each stage
    contributes equally: the cosine of two rows equals the mean of the
    per-stage cosines.
    """
    if outputs.t_pad != outputs.t_in and target_len != outputs.t_in:
        raise ValueError("padded outputs can only be expanded to their true length")
    blocks = []
    for z_u in outputs.z:
        if outputs.t_pad > outputs.t_in:
            up = ad.slice_axis(ad.upsample1d(z_u, outputs.t_pad, mode), 1, 0, outputs.t_in)
        else:
            up = ad.upsample1d(z_u, target_len, mode)
        blocks.append(normalize_rows(ad.transpose2d(up)))
    return ad.concat(blocks, axis=1)


NORM_SQ_FLOOR = 1e-24


def normalize_rows(x: Tensor) -> Tensor:
    """Scale every row of [N, D] to unit L2 norm; an all-zero row stays zero.

    Decoder features end in a ReLU, so a dead frame is a legitimate
    all-zero row.  The squared norm is floored *before* the root, so such a
    row gets a finite value and gradient (``sqrt``'s backward divides by
    its output); rows whose squared norm is above the floor are
    bit-identical to a plain division by the norm.
    """
    sum_sq = ad.reduce_sum(ad.mul(x, x), axis=1, keepdims=True)
    return ad.div(x, ad.sqrt(ad.clamp_min(sum_sq, NORM_SQ_FLOOR)))
