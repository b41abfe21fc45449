"""Mask-based two-speaker separator at configurable, desk-runnable scale.

Pipeline: a strided 1-dim conv encoder lifts the waveform into a latent
(channels x frames) representation; stacks of exponentially dilated
convolutional blocks with residual and skip connections produce per-source
sigmoid masks; masked features are mapped back to waveforms by a transposed
1-dim convolution. Training minimizes the permutation-invariant negative
Si-SNR over both source assignments.

All forward paths are built from the autodiff primitives, so losses are
differentiable (to second order) with respect to every parameter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import ParamVector, Tensor
from .dsp import Waveform

GLN_EPS = 1e-8

CHECKPOINT_FORMAT = "metasep-checkpoint-v1"
_HEADER = struct.Struct("<Q")


@dataclass(frozen=True)
class SeparatorConfig:
    """Architecture hyperparameters.

    The defaults are the desk-scale working point; the full-size published
    configuration is reachable through the same fields, it is just not
    trainable on a laptop-class budget.
    """

    enc_channels: int = 64       # latent channels produced by the encoder
    enc_kernel: int = 16         # encoder filter length in samples
    enc_stride: int = 8
    bottleneck_channels: int = 32
    conv_channels: int = 64      # channels inside each dilated block
    kernel: int = 3              # depthwise kernel length
    blocks_per_stack: int = 4    # dilations 2^0 .. 2^(X-1)
    stacks: int = 2

    def __post_init__(self):
        for field in dataclasses.fields(self):
            dsp.require_int(field.name, getattr(self, field.name), 1)
        if self.kernel % 2 == 0:  # the depthwise padding keeps the length only when odd
            raise ValueError(f"kernel must be odd, got {self.kernel}")

    def frames(self, n_samples: int) -> int:
        """Latent frame count for an n-sample input; requires clean alignment."""
        if n_samples < self.enc_kernel:
            raise ValueError(f"input of {n_samples} samples is shorter than the "
                             f"{self.enc_kernel}-sample encoder kernel")
        if (n_samples - self.enc_kernel) % self.enc_stride != 0:
            raise ValueError(
                f"input length {n_samples} does not align with enc_kernel "
                f"{self.enc_kernel} / enc_stride {self.enc_stride}; the decoder could "
                f"not reproduce the full length")
        return (n_samples - self.enc_kernel) // self.enc_stride + 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# parameters


def param_shapes(config: SeparatorConfig) -> "OrderedDict[str, tuple[int, ...]]":
    h, b, hc = config.enc_channels, config.bottleneck_channels, config.conv_channels
    shapes: "OrderedDict[str, tuple[int, ...]]" = OrderedDict()
    shapes["encoder.weight"] = (h, 1, config.enc_kernel)
    shapes["bottleneck.weight"] = (b, h, 1)
    shapes["bottleneck.bias"] = (b,)
    for r in range(config.stacks):
        for x in range(config.blocks_per_stack):
            p = f"tcn.{r}.{x}."
            shapes[p + "expand.weight"] = (hc, b, 1)
            shapes[p + "expand.bias"] = (hc,)
            shapes[p + "expand.prelu"] = ()
            shapes[p + "expand.norm.gamma"] = (hc,)
            shapes[p + "expand.norm.beta"] = (hc,)
            shapes[p + "depthwise.weight"] = (hc, 1, config.kernel)
            shapes[p + "depthwise.bias"] = (hc,)
            shapes[p + "depthwise.prelu"] = ()
            shapes[p + "depthwise.norm.gamma"] = (hc,)
            shapes[p + "depthwise.norm.beta"] = (hc,)
            shapes[p + "residual.weight"] = (b, hc, 1)
            shapes[p + "residual.bias"] = (b,)
            shapes[p + "skip.weight"] = (b, hc, 1)
            shapes[p + "skip.bias"] = (b,)
    shapes["mask.prelu"] = ()
    shapes["mask.weight"] = (2 * h, b, 1)
    shapes["mask.bias"] = (2 * h,)
    shapes["decoder.weight"] = (h, 1, config.enc_kernel)
    return shapes


def init_params(config: SeparatorConfig, seed: int) -> ParamVector:
    """Seeded uniform(+-sqrt(1/fan_in)) conv weights; unit norms, 0.25 prelus."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(config)
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, shape in shapes.items():
        if name.endswith(".prelu"):
            arrays[name] = np.array(0.25)
        elif name.endswith("norm.gamma"):
            arrays[name] = np.ones(shape)
        elif name.endswith("norm.beta"):
            arrays[name] = np.zeros(shape)
        else:  # a conv's weight or bias, bounded by the weight's fan-in
            w_shape = shapes[name.replace(".bias", ".weight")]
            bound = np.sqrt(1.0 / (w_shape[1] * w_shape[2]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return ParamVector.from_arrays(arrays)


# ---------------------------------------------------------------------------
# building blocks over tensors


def encode_tensors(x: Tensor, p: Mapping[str, Tensor], config: SeparatorConfig) -> Tensor:
    t = x.data.shape[-1]
    config.frames(t)
    xin = ad.reshape(x, (1, t))
    return ad.conv1d(xin, p["encoder.weight"], stride=config.enc_stride)


def separate_mask_tensors(x_enc: Tensor, p: Mapping[str, Tensor],
                          config: SeparatorConfig) -> list[Tensor]:
    feat = ad.conv1d(x_enc, p["bottleneck.weight"], p["bottleneck.bias"])
    skip_sum: Tensor | None = None
    for r in range(config.stacks):
        for x in range(config.blocks_per_stack):
            pre = f"tcn.{r}.{x}."
            dilation = 2 ** x
            h = ad.conv1d(feat, p[pre + "expand.weight"], p[pre + "expand.bias"])
            h = ad.prelu(h, p[pre + "expand.prelu"])
            h = ad.gln(h, p[pre + "expand.norm.gamma"], p[pre + "expand.norm.beta"], GLN_EPS)
            h = ad.conv1d(h, p[pre + "depthwise.weight"], p[pre + "depthwise.bias"],
                          dilation=dilation, groups=config.conv_channels,
                          pad=dilation * (config.kernel - 1) // 2)
            h = ad.prelu(h, p[pre + "depthwise.prelu"])
            h = ad.gln(h, p[pre + "depthwise.norm.gamma"], p[pre + "depthwise.norm.beta"],
                       GLN_EPS)
            skip = ad.conv1d(h, p[pre + "skip.weight"], p[pre + "skip.bias"])
            skip_sum = skip if skip_sum is None else ad.add(skip_sum, skip)
            if (r, x) != (config.stacks - 1, config.blocks_per_stack - 1):
                # the last block's residual output reaches nothing; its
                # parameters get the zero gradient of an unreached leaf
                feat = ad.add(feat, ad.conv1d(h, p[pre + "residual.weight"],
                                              p[pre + "residual.bias"]))
    head = ad.prelu(skip_sum, p["mask.prelu"])
    logits = ad.conv1d(head, p["mask.weight"], p["mask.bias"])
    stacked = ad.sigmoid(logits)
    h = config.enc_channels
    return [ad.slice_channels(stacked, c * h, (c + 1) * h)
            for c in range(2)]


def decode_tensors(d: Tensor, p: Mapping[str, Tensor], config: SeparatorConfig) -> Tensor:
    t_frames = d.data.shape[1]
    out_len = (t_frames - 1) * config.enc_stride + config.enc_kernel
    y = ad.conv1d_input_grad(d, p["decoder.weight"], stride=config.enc_stride,
                             out_len=out_len)
    return ad.reshape(y, (out_len,))


def forward_separate_tensors(x: Tensor, p: Mapping[str, Tensor],
                             config: SeparatorConfig) -> list[Tensor]:
    x_enc = encode_tensors(x, p, config)
    masked = [ad.mul(x_enc, m) for m in separate_mask_tensors(x_enc, p, config)]
    return [decode_tensors(d, p, config) for d in masked]


def forward_separate(x, params: ParamVector,
                     config: SeparatorConfig) -> tuple[Waveform, Waveform]:
    """The separated waveforms, with no graph recorded."""
    with ad.no_grad():
        outs = forward_separate_tensors(ad.tensor(dsp._as_samples(x)),
                                        params.to_constants(), config)
    return tuple(Waveform(o.data) for o in outs)


# ---------------------------------------------------------------------------
# permutation-invariant loss


def upit_loss(estimates: Sequence[Tensor], sources) -> tuple[Tensor, tuple[int, int]]:
    """Utterance-level permutation-invariant loss over both assignments.

    Returns (loss, permutation): the loss is a scalar graph node over the
    estimate tensors, and the permutation maps source index to the estimate
    assigned to it; ties break toward the identity. Scores of separated
    waveforms pick their assignment in :func:`evaluate_si_snri`.
    """
    srcs = [dsp._as_samples(s) for s in sources]
    if len(srcs) != 2 or len(estimates) != 2:
        raise ValueError("uPIT here is defined for exactly two sources")
    for s in srcs:
        if float(np.dot(s, s)) <= 0.0:
            raise dsp.ZeroSignalError("uPIT source has zero energy")
    snr = [[dsp.si_snr_graph(srcs[c], estimates[e]) for e in range(2)] for c in range(2)]
    perm = _upit_pick([[x.item() for x in row] for row in snr])
    return ad.scalar_mul(-0.5, ad.add(snr[0][perm[0]], snr[1][perm[1]])), perm


def _upit_pick(snr) -> tuple[int, int]:
    """uPIT's rule: the permutation whose loss over the Si-SNR floats
    snr[source][estimate] is lower, the identity on a tie."""
    if -0.5 * (snr[0][0] + snr[1][1]) <= -0.5 * (snr[0][1] + snr[1][0]):
        return (0, 1)
    return (1, 0)


def mixture_loss_tensors(pair: dsp.MixturePair, p: Mapping[str, Tensor],
                         config: SeparatorConfig) -> Tensor:
    """uPIT loss graph of the separator run on one mixture."""
    estimates = forward_separate_tensors(ad.tensor(pair.mixture.samples), p, config)
    loss, _ = upit_loss(estimates, pair.sources)
    return loss


def evaluate_si_snri(pair: dsp.MixturePair, params: ParamVector,
                     config: SeparatorConfig) -> float:
    """Si-SNR improvement of the separated estimates, uPIT-aligned. The
    scores that choose the assignment are the scores it reports."""
    estimates = forward_separate(pair.mixture, params, config)
    snr = [[dsp.si_snr(s, e) for e in estimates] for s in pair.sources]
    perm = _upit_pick(snr)
    return dsp.si_snr_gain(pair, [snr[c][perm[c]] for c in range(2)])


# ---------------------------------------------------------------------------
# checkpoints


def config_hash(config: SeparatorConfig, train_config: Mapping | None = None) -> str:
    blob = json.dumps({"model": config.to_dict(), "train": dict(train_config or {})},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, params: ParamVector, config: SeparatorConfig,
                    extra: Mapping | None = None) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": config.to_dict(),
        "dim": params.dim,
        "layout": [[name, off, list(shape)] for name, (off, shape) in params.layout.items()],
        "extra": dict(extra or {}),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with dsp.atomic_open(path, "wb") as f:
        f.write(_HEADER.pack(len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(params.values, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ParamVector, SeparatorConfig, dict]:
    """Read a checkpoint, rejecting one whose layout is not its config's, whose
    length is not the header plus 8 bytes per parameter, or that holds a
    non-finite value."""
    raw = Path(path).read_bytes()
    try:
        (hlen,) = _HEADER.unpack_from(raw)
        header = json.loads(raw[_HEADER.size:_HEADER.size + hlen])
    except (struct.error, ValueError) as err:
        raise ValueError(f"{path}: unreadable checkpoint header ({err})") from err
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    try:
        config = SeparatorConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: bad separator config in the header ({err})") from err
    shapes = param_shapes(config)
    layout, dim = ad.pack_layout(shapes)
    entries = [[name, off, list(shape)] for name, (off, shape) in layout.items()]
    if header.get("layout") != entries or header.get("dim") != dim:
        raise ValueError(f"{path}: parameter layout does not match the checkpoint's "
                         f"config ({dim} parameters)")
    offset = _HEADER.size + hlen
    if len(raw) != offset + 8 * dim:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {offset + 8 * dim} "
                         f"for {dim} parameters")
    values = np.frombuffer(raw, dtype="<f8", count=dim, offset=offset).copy()
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: non-finite parameter values")
    return ParamVector(values, shapes), config, header.get("extra", {})
