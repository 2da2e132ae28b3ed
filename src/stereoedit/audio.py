"""Core audio types and ingestion.

Everything downstream works on a fixed internal format: float64 samples in
[-1, 1], 24 kHz, mono source clips and stereo scene buffers. Integer PCM is
converted on ingest and export only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

from .errors import SilentClip, UnreadableFile, UnsupportedFormat

SAMPLE_RATE = 24000
CANONICAL_SECONDS = 10.0
CLIP_REFERENCE_DBFS = -20.0

# Polyphase resampler: windowed-sinc, 64 taps per phase, Kaiser beta 8.6.
_TAPS_PER_PHASE = 64
_KAISER_BETA = 8.6

_INT_SCALES = {
    np.dtype(np.int16): 2.0 ** 15,
    np.dtype(np.int32): 2.0 ** 31,
}


@dataclass(frozen=True)
class SourceClip:
    """Mono source clip at the internal sample rate."""

    label: str
    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE
    origin_path: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("SourceClip samples must be mono (1-D)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("SourceClip samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.samples))))


@dataclass(frozen=True)
class AudioBuffer:
    """Two-channel sample block, shape (2, n), at the internal sample rate."""

    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] != 2:
            raise ValueError("AudioBuffer samples must have shape (2, n)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("AudioBuffer samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def left(self) -> np.ndarray:
        return self.samples[0]

    @property
    def right(self) -> np.ndarray:
        return self.samples[1]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_seconds(self) -> float:
        return self.num_samples / self.sample_rate_hz

    def peak(self) -> float:
        if not self.num_samples:
            return 0.0
        # max(|x|) without an |x| temporary the size of the buffer
        return float(max(self.samples.max(), -self.samples.min()))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.samples))))


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a PCM/float WAV (a path or a binary file object) into float64 in
    [-1, 1], shape (n,) or (n, ch)."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError as exc:
        raise UnreadableFile(f"file not found: {path}") from exc
    except ValueError as exc:
        raise UnsupportedFormat(f"{path}: {exc}") from exc
    except Exception as exc:  # truncated/garbage files
        raise UnreadableFile(f"{path}: {exc}") from exc

    if data.dtype == np.uint8:
        out = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.int16, np.int32):
        out = data.astype(np.float64) / _INT_SCALES[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        if not np.isfinite(data).all():
            raise UnsupportedFormat(f"{path}: samples must be finite")
        out = data.astype(np.float64)
    else:
        raise UnsupportedFormat(f"{path}: unsupported sample dtype {data.dtype}")
    return rate, out


def write_wav(path, buffer: AudioBuffer) -> None:
    """Export as stereo float32 WAV at the internal rate to a path or a
    binary file object."""
    # C order, so scipy writes the frames without another interleaving copy
    data = np.ascontiguousarray(buffer.samples.T, dtype=np.float32)
    wavfile.write(path, buffer.sample_rate_hz, data)


def resample(samples: np.ndarray, from_rate: int, to_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Polyphase windowed-sinc resampling (Kaiser, 64 taps per phase)."""
    if from_rate == to_rate:
        return np.asarray(samples, dtype=np.float64)
    g = gcd(from_rate, to_rate)
    up, down = to_rate // g, from_rate // g
    taps = firwin(_TAPS_PER_PHASE * up, 1.0 / max(up, down),
                  window=("kaiser", _KAISER_BETA))
    return resample_poly(np.asarray(samples, dtype=np.float64), up, down,
                         window=taps * up)


def load_clip(path, label: str) -> SourceClip:
    """Ingest a WAV file as a mono clip at 24 kHz.

    Stereo input is downmixed by channel average; other rates are resampled.
    """
    rate, data = read_wav(path)
    if data.ndim == 2:
        if data.shape[1] > 2:
            raise UnsupportedFormat(f"{path}: more than 2 channels")
        data = data.mean(axis=1)
    samples = resample(data, rate, SAMPLE_RATE)
    return SourceClip(label=label, samples=samples, origin_path=str(path))


def fit_duration(clip: SourceClip, target_seconds: float = CANONICAL_SECONDS) -> SourceClip:
    """Trim (front-aligned) or zero-pad (trailing) to exactly the target length."""
    if target_seconds <= 0:
        raise ValueError("target_seconds must be positive")
    n = round(target_seconds * clip.sample_rate_hz)
    samples = clip.samples
    if len(samples) >= n:
        samples = samples[:n]
    else:
        samples = np.concatenate([samples, np.zeros(n - len(samples))])
    return replace(clip, samples=samples)


def normalize_rms(clip: SourceClip, target_dbfs: float = -20.0) -> SourceClip:
    """Scale the clip so its RMS equals 10^(target_dbfs/20)."""
    rms = clip.rms()
    if rms == 0.0:
        raise SilentClip(f"all-zero clip: {clip.label!r}")
    factor = 10.0 ** (target_dbfs / 20.0) / rms
    return replace(clip, samples=clip.samples * factor)


def prepare_clip(clip: SourceClip, duration_seconds: float) -> SourceClip:
    """The treatment every scene event's clip gets: fit to the scene
    duration, then RMS-normalize to CLIP_REFERENCE_DBFS."""
    return normalize_rms(fit_duration(clip, duration_seconds),
                         CLIP_REFERENCE_DBFS)
