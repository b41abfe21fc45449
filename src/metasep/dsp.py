"""Signal-level math: mixing at controlled SNR, noise, segmentation, Si-SNR.

All pipeline audio is mono float64 at 8 kHz. Segments are exactly 4 s long;
trailing audio shorter than a segment is dropped rather than padded, because
padded silence would make the scale-invariant SNR of the padded region
degenerate.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SAMPLE_RATE = 8000
SEGMENT_SECONDS = 4.0
SEGMENT_SAMPLES = int(SEGMENT_SECONDS * SAMPLE_RATE)

# Floor for the error energy in the Si-SNR ratio. A floor (rather than an
# unconditional +eps) keeps the metric exact whenever the error energy is
# above 1e-8 and caps the value at perfect reconstruction instead of
# producing an infinite loss.
SI_SNR_EPS = 1e-8

# Mixture-to-noise SNR range drawn per mixture when noise is enabled but no
# explicit level is given.
NOISE_SNR_RANGE_DB = (10.0, 20.0)


class ZeroSignalError(ValueError):
    """A source or reference with no energy cannot be mixed or scored."""


@dataclass
class Waveform:
    """Sample sequence at the pipeline rate, SAMPLE_RATE."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-d, got shape {self.samples.shape}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class MixturePair:
    """A two-speaker mixture with its (scaled) ground-truth sources."""

    mixture: Waveform
    sources: tuple[Waveform, Waveform]
    snr_db: float
    noise_snr_db: float | None = None


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def segment(utterance: Waveform) -> list[Waveform]:
    """Split into consecutive non-overlapping segments, dropping the remainder."""
    n = SEGMENT_SAMPLES
    total = len(utterance)
    if total < n:
        raise ValueError(
            f"utterance of {total} samples is shorter than one {n}-sample segment")
    count = total // n
    return [Waveform(utterance.samples[i * n:(i + 1) * n].copy())
            for i in range(count)]


def mix_at_snr(s1: Waveform, s2: Waveform, snr_db: float) -> MixturePair:
    """Mix two sources, rescaling the second so the pair sits at snr_db.

    The first source keeps its native gain; the second is scaled by g such
    that 10*log10(||s1||^2 / ||g*s2||^2) == snr_db. The stored sources are
    (s1, g*s2), so the mixture is exactly their sum.
    """
    a = _as_samples(s1)
    b = _as_samples(s2)
    if a.size != b.size:
        raise ValueError(f"sources must have equal length, got {a.size} and {b.size}")
    e1 = float(np.dot(a, a))
    e2 = float(np.dot(b, b))
    if e1 <= 0.0 or e2 <= 0.0:
        raise ZeroSignalError("cannot mix a zero-energy source")
    g = math.sqrt(e1 / (e2 * 10.0 ** (snr_db / 10.0)))
    scaled = g * b
    return MixturePair(
        mixture=Waveform(a + scaled),
        sources=(Waveform(a.copy()), Waveform(scaled)),
        snr_db=float(snr_db),
    )


def add_noise(pair: MixturePair, noise_snr_db: float, seed: int) -> MixturePair:
    """Add seeded white Gaussian noise at a fixed mixture-to-noise SNR.

    The scaled noise satisfies 10*log10(||mixture||^2 / ||noise||^2) ==
    noise_snr_db.
    """
    if not math.isfinite(noise_snr_db):
        raise ValueError(f"noise SNR must be finite, got {noise_snr_db}")
    mix = pair.mixture.samples
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(mix.size)
    target = float(np.dot(mix, mix)) / (10.0 ** (noise_snr_db / 10.0))
    noise *= math.sqrt(target / float(np.dot(noise, noise)))
    return MixturePair(
        mixture=Waveform(mix + noise),
        sources=pair.sources,
        snr_db=pair.snr_db,
        noise_snr_db=float(noise_snr_db),
    )


def si_snr_graph(s, s_hat: Tensor) -> Tensor:
    """Scale-invariant SNR (dB) as a differentiable expression in s_hat."""
    ref = _as_samples(s)
    if float(np.dot(ref, ref)) <= 0.0:
        raise ZeroSignalError("si_snr reference has zero energy")
    if ref.shape != s_hat.data.shape:
        raise ValueError(f"length mismatch: {ref.shape} vs {s_hat.data.shape}")
    s_t = ad.tensor(ref)
    ratio = ad.div(ad.dot(s_t, s_hat), ad.tensor(float(np.dot(ref, ref))))
    proj = ad.scale(s_t, ratio)
    err = ad.sub(s_hat, proj)
    num = ad.dot(proj, proj)
    den = ad.clamp_min(ad.dot(err, err), SI_SNR_EPS)
    return ad.scalar_mul(10.0, ad.log10(ad.div(num, den)))


def si_snr(s, s_hat) -> float:
    """Scale-invariant SNR in dB of estimate s_hat against reference s."""
    ref = _as_samples(s)
    est = _as_samples(s_hat)
    if ref.size != est.size:
        raise ValueError(f"length mismatch: {ref.size} vs {est.size}")
    e_ref = float(np.dot(ref, ref))
    if e_ref <= 0.0:
        raise ZeroSignalError("si_snr reference has zero energy")
    proj = (float(np.dot(ref, est)) / e_ref) * ref
    err = est - proj
    num = float(np.dot(proj, proj))
    den = max(float(np.dot(err, err)), SI_SNR_EPS)
    return 10.0 * math.log10(num / den)


def si_snr_improvement(pair: MixturePair, estimates) -> float:
    """Mean per-source Si-SNR gain of the estimates over the raw mixture.

    The estimates must already be aligned to the sources (best assignment
    under the permutation-invariant loss).
    """
    mix = pair.mixture
    total = 0.0
    for src, est in zip(pair.sources, estimates):
        total += si_snr(src, est) - si_snr(src, mix)
    return total / len(pair.sources)


# ---------------------------------------------------------------------------
# file formats

_RAW_HEADER = struct.Struct("<Q")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing; it replaces ``path``
    (``os.replace``) only when the block completes. A write that fails
    leaves the previous file as it was and no temporary file behind. There
    is no fsync: this guards against half-written files, not power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_wav(path, wav: Waveform) -> None:
    """Mono 16-bit PCM at the pipeline rate; samples clipped to [-1, 1)."""
    pcm = np.clip(np.round(wav.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())


def read_wav(path) -> Waveform:
    """Read mono 16-bit PCM, normalizing to [-1, 1)."""
    with wave.open(str(path), "rb") as f:
        if f.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * f.getsampwidth()}-bit")
        rate = f.getframerate()
        if rate != SAMPLE_RATE:
            raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
        pcm = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
    return Waveform(pcm.astype(np.float64) / 32768.0)


def write_raw(path, wav: Waveform) -> None:
    """Lossless float64 storage: 8-byte little-endian length, then samples."""
    data = np.ascontiguousarray(wav.samples, dtype="<f8")
    with atomic_open(path, "wb") as f:
        f.write(_RAW_HEADER.pack(data.size))
        f.write(data.tobytes())


def read_raw(path) -> Waveform:
    """Read a write_raw file, refusing one whose length is not the header's
    8 bytes plus 8 per sample it promises."""
    raw = Path(path).read_bytes()
    if len(raw) < _RAW_HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, too short for the sample count")
    (n,) = _RAW_HEADER.unpack_from(raw)
    if len(raw) != _RAW_HEADER.size + 8 * n:
        raise ValueError(f"{path}: header promises {n} samples "
                         f"({_RAW_HEADER.size + 8 * n} bytes), file has {len(raw)} bytes")
    return Waveform(np.frombuffer(raw, dtype="<f8", offset=_RAW_HEADER.size).copy())
