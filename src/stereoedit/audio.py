"""Core audio types and ingestion.

Everything downstream works on a fixed internal format: float64 samples in
[-1, 1], 24 kHz, mono source clips and stereo scene buffers. Integer PCM is
converted on ingest and export only.
"""

from __future__ import annotations

import functools
import mmap
import os
import threading
import warnings
import weakref
from dataclasses import dataclass
from math import gcd, isfinite

import numpy as np
from scipy.io import wavfile

from .errors import SilentClip, UnreadableFile, UnsupportedFormat

SAMPLE_RATE = 24000
CANONICAL_SECONDS = 10.0  # scene duration unless a scene or config sets one
CLIP_REFERENCE_DBFS = -20.0

# Polyphase resampler: windowed-sinc, 64 taps per phase, Kaiser beta 8.6.
_TAPS_PER_PHASE = 64
_KAISER_BETA = 8.6

_INT_SCALES = {
    np.dtype(np.int16): 2.0 ** 15,
    np.dtype(np.int32): 2.0 ** 31,
}


_scratch = threading.local()
_warning_filters_lock = threading.Lock()


def scratch(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """This thread's reusable array ``name`` of the given shape and dtype.

    Its contents are whatever the last use left. Another shape or dtype
    replaces the array, so a thread holds one array per name, sized for the
    latest call: reuse saves the page faults of a fresh array per call.
    """
    arr = getattr(_scratch, name, None)
    if arr is None or arr.shape != shape or arr.dtype != dtype:
        setattr(_scratch, name, None)  # free the old array first
        arr = np.empty(shape, dtype)
        setattr(_scratch, name, arr)
    return arr


@dataclass(frozen=True)
class SourceClip:
    """Mono source clip at the internal sample rate."""

    label: str
    samples: np.ndarray
    origin_path: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("SourceClip samples must be mono (1-D)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("SourceClip samples must be finite")
        object.__setattr__(self, "samples", samples)

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.samples))))


def _clip(label: str, samples: np.ndarray, origin_path: str) -> SourceClip:
    """SourceClip(label, samples, origin_path) for float64 mono samples known
    to be finite, without the constructor's scan of every sample."""
    clip = object.__new__(SourceClip)
    clip.__dict__.update(label=label, samples=samples, origin_path=origin_path)
    return clip


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

    def peak(self) -> float:
        if not self.num_samples:
            return 0.0
        # max(|x|) without an |x| temporary the size of the buffer
        return float(max(self.samples.max(), -self.samples.min()))

    def rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.samples))))


def _read_pcm(path) -> tuple[int, np.ndarray]:
    """A WAV's rate and samples as scipy decodes them, with every failure
    raised as the package's error for a bad file."""
    try:
        # catch_warnings swaps the one filter list that all threads share
        with _warning_filters_lock, warnings.catch_warnings():
            # else scipy returns the frames before a cut in the data chunk
            warnings.filterwarnings("error", "Reached EOF prematurely",
                                    wavfile.WavFileWarning)
            return wavfile.read(path)
    except FileNotFoundError as exc:
        raise UnreadableFile(f"file not found: {path}") from exc
    except ValueError as exc:
        raise UnsupportedFormat(f"{path}: {exc}") from exc
    except Exception as exc:
        # scipy raises struct.error, UnboundLocalError, ZeroDivisionError
        # and TypeError on corrupt headers, besides the warning above
        raise UnreadableFile(f"{path}: {exc}") from exc


def _as_float(path, data: np.ndarray) -> np.ndarray:
    """Decoded WAV samples as float64 in [-1, 1]."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype in _INT_SCALES:
        return data.astype(np.float64) / _INT_SCALES[data.dtype]
    if data.dtype in (np.float32, np.float64):
        if not np.isfinite(data).all():
            raise UnsupportedFormat(f"{path}: samples must be finite")
        return data.astype(np.float64)
    raise UnsupportedFormat(f"{path}: unsupported sample dtype {data.dtype}")


def read_wav(path) -> tuple[int, np.ndarray]:
    """Read a PCM/float WAV (a path or a binary file object) into float64 in
    [-1, 1], shape (n,) or (n, ch)."""
    rate, data = _read_pcm(path)
    return rate, _as_float(path, data)


def read_stereo(path) -> AudioBuffer:
    """Read a 2-channel WAV (a path or a binary file object) as a buffer."""
    rate, data = read_wav(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise UnsupportedFormat(f"{path}: expected a stereo WAV")
    return AudioBuffer(data.T, sample_rate_hz=rate)


def write_wav(path, buffer: AudioBuffer) -> None:
    """Export as stereo float32 WAV at the internal rate to a path or a
    binary file object. Samples that overflow float32 raise
    UnsupportedFormat, and nothing is written."""
    # interleaved C-order frames, so scipy writes them without another copy;
    # filled a channel at a time, since one transposing cast of the whole
    # (2, n) block is about three times slower
    frames = scratch("wav_frames", buffer.samples.T.shape, np.float32)
    try:
        with np.errstate(over="raise"):
            for channel, samples in enumerate(buffer.samples):
                frames[:, channel] = samples
    except FloatingPointError as exc:
        raise UnsupportedFormat(f"{path}: samples overflow float32") from exc
    wavfile.write(path, buffer.sample_rate_hz, frames)


def resample(samples: np.ndarray, from_rate: int, to_rate: int = SAMPLE_RATE) -> np.ndarray:
    """Polyphase windowed-sinc resampling (Kaiser, 64 taps per phase)."""
    if from_rate == to_rate:
        return np.asarray(samples, dtype=np.float64)
    from scipy.signal import resample_poly  # slow to import, rarely needed
    g = gcd(from_rate, to_rate)
    up, down = to_rate // g, from_rate // g
    return resample_poly(np.asarray(samples, dtype=np.float64), up, down,
                         window=_resample_window(up, down))


@functools.lru_cache(maxsize=8)
def _resample_window(up: int, down: int) -> np.ndarray:
    """The resampler's filter for (up, down), designed once and shared."""
    from scipy.signal import firwin
    taps = firwin(_TAPS_PER_PHASE * up, 1.0 / max(up, down),
                  window=("kaiser", _KAISER_BETA)) * up
    taps.flags.writeable = False  # resample_poly copies its window
    return taps


def _decode_clip(path) -> tuple[np.ndarray, float]:
    """``load_clip``'s samples in their smallest exact form: ``(samples,
    unit)`` such that ``samples * unit`` equals them bit for bit.

    Mono int16 or int32 PCM at 24 kHz comes back as read, with unit 2**-15
    or 2**-31. Every other file comes back as float64 with unit 1.0: stereo
    downmixed by channel average, other rates resampled.
    """
    rate, data = _read_pcm(path)
    if data.dtype in _INT_SCALES and data.ndim == 1 and rate == SAMPLE_RATE:
        return data, 1.0 / _INT_SCALES[data.dtype]
    data = _as_float(path, data)  # finite
    if data.ndim == 1 and rate == SAMPLE_RATE:
        return data, 1.0
    if data.ndim == 2 and data.shape[1] > 2:
        raise UnsupportedFormat(f"{path}: more than 2 channels")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if data.ndim == 2:
            data = data.mean(axis=1)
        samples = resample(data, rate, SAMPLE_RATE)
    if not np.isfinite(samples).all():  # the downmix or resampler overflowed
        raise UnsupportedFormat(f"{path}: samples must be finite")
    return samples, 1.0


def load_clip(path, label: str) -> SourceClip:
    """Ingest a WAV file as a mono clip at 24 kHz.

    Stereo input is downmixed by channel average; other rates are resampled.
    Kept for the benchmark's tracer and as the tests' reference: the package
    ingests clips through ``ClipStore``.
    """
    samples, unit = _decode_clip(path)
    # q * 2**-15 is q / 2**15 exactly, as read_wav computes it
    return _clip(label, samples * unit, str(path))


def fit_duration(clip: SourceClip, target_seconds: float = CANONICAL_SECONDS) -> SourceClip:
    """Trim (front-aligned) or zero-pad (trailing) to exactly the target
    length. Kept for the benchmark's tracer and as the tests' reference, as
    ``load_clip`` is: ``ClipStore`` fits clips in the array it returns."""
    if target_seconds <= 0:
        raise ValueError("target_seconds must be positive")
    n = round(target_seconds * SAMPLE_RATE)
    samples = clip.samples
    if len(samples) >= n:
        samples = samples[:n]
    else:
        samples = np.concatenate([samples, np.zeros(n - len(samples))])
    return _clip(clip.label, samples, clip.origin_path)


def _rms_factor(clip: SourceClip) -> float:
    """The factor that brings the clip's RMS level to CLIP_REFERENCE_DBFS."""
    with np.errstate(over="ignore"):  # checked below
        rms = clip.rms()
    if rms == 0.0:
        raise SilentClip(f"all-zero clip: {clip.label!r}")
    if not isfinite(rms):  # finite samples whose squares overflow
        raise UnsupportedFormat(f"{clip.origin_path}: RMS overflows float64")
    return 10.0 ** (CLIP_REFERENCE_DBFS / 20.0) / rms


def normalize_rms(clip: SourceClip) -> SourceClip:
    """Scale the clip so its RMS level is CLIP_REFERENCE_DBFS. Kept for the
    benchmark's tracer and as the tests' reference, as ``load_clip`` is."""
    # finite: no sample exceeds sqrt(len) * rms in magnitude
    return _clip(clip.label, clip.samples * _rms_factor(clip), clip.origin_path)


# Most decoded samples one ClipStore keeps; a file past the bound is decoded
# on every request. The demo catalog's 40 clips take 14.6 MiB as int16.
_STORE_BYTES = 256 * 2 ** 20


def _unheaped(samples: np.ndarray) -> np.ndarray:
    """A copy of ``samples`` in a private anonymous memory map of its own.

    A store's arrays outlive many records. Placed in the malloc heap among
    the records' clip arrays, they fragment it, and records keep faulting
    in fresh pages: 1,263 minor faults per record against 97 this way, in
    40-record template runs on the demo catalog."""
    buffer = mmap.mmap(-1, max(1, samples.nbytes), flags=mmap.MAP_PRIVATE)
    kept = np.frombuffer(buffer, samples.dtype, len(samples))
    kept[:] = samples
    return kept


class ClipStore:
    """The one way a clip enters a scene: decoded once, prepared per request.

    Per file, keyed on (path, mtime, size), the store keeps ``_decode_clip``'s
    exact form of its samples, and per (file, duration) the RMS factor and a
    weak reference to the last prepared array, which is read-only. A request
    whose array is still alive, held by some scene, returns that array, so
    scenes that use a clip share it. A request for a freed array with its
    factor costs one fresh float64 array and one multiply. A request without
    the factor fits the clip in that array, takes the factor from it and
    scales it there. All give ``normalize_rms(fit_duration(load_clip(...)))``
    bit for bit: ``q * (factor * unit)`` rounds the exact product that ``(q *
    unit) * factor`` rounds, once, because ``unit`` is a power of two.
    """

    def __init__(self):
        self._pcm: dict[tuple, tuple[np.ndarray, float]] = {}
        self._factors: dict[tuple, float] = {}
        # weak, so a clip that no scene holds is freed
        self._live = weakref.WeakValueDictionary()
        self.nbytes = 0

    def prepared(self, path, label: str, duration_seconds: float) -> SourceClip:
        try:
            stat = os.stat(path)
        except (OSError, ValueError):  # no file, or a NUL in the path
            _decode_clip(path)  # raises the package's error for a bad path
            raise
        key = (str(path), stat.st_mtime_ns, stat.st_size)
        out = self._live.get((key, duration_seconds))
        if out is not None:
            return _clip(label, out, key[0])
        pcm = self._pcm.get(key)
        if pcm is None:
            pcm = _decode_clip(path)
            if self.nbytes + pcm[0].nbytes <= _STORE_BYTES:
                pcm = _unheaped(pcm[0]), pcm[1]
                self._pcm[key] = pcm
                self.nbytes += pcm[0].nbytes
        samples, unit = pcm
        n = round(duration_seconds * SAMPLE_RATE)
        m = min(len(samples), n)
        out = np.empty(n)
        # an exact cast, then the multiplies in place: np.multiply would cast
        # through a 64 KiB buffer of its own
        out[:m] = samples[:m]
        out[m:] = 0.0
        clip = _clip(label, out, key[0])
        factor = self._factors.get((key, duration_seconds))
        if factor is None:  # fit the clip in ``out``, then normalize it there
            out[:m] *= unit
            factor = _rms_factor(clip)
            if key in self._pcm:
                self._factors[key, duration_seconds] = factor
            out[:m] *= factor
        else:
            out[:m] *= factor * unit
        out.flags.writeable = False
        self._live[key, duration_seconds] = out
        return clip
