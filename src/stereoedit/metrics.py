"""Signal-level evaluation: log-spectral distance, GCC-PHAT delay metrics,
and the round-trip drift harness.

The analysis is fixed: a 1024-sample periodic Hann window with a 256-sample
hop throughout, a GCC lag search of +/-24 samples and a -80 dBFS silence
floor, so degenerate inputs never produce NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .engine import Editor
from .errors import LengthMismatch, NoVoicedFrames
from .plans import Add, Remove

WINDOW = 1024
HOP = 256
EPS_POWER = 1e-10
PHAT_FLOOR = 1e-12
SILENCE_FLOOR_DBFS = -80.0
GCC_MAX_LAG = 24  # samples; > ceil(max physical interaural delay ~15.7)

_HANN = np.hanning(WINDOW + 1)[:-1]  # periodic Hann
_SILENCE_POWER = 10.0 ** (SILENCE_FLOOR_DBFS / 10.0)
_BLOCK = 32  # frames analysed at a time; bounds each call's temporaries


def _frames(x: np.ndarray) -> np.ndarray:
    """Non-padded sliding frames as a view, shape (n_frames, WINDOW)."""
    if len(x) < WINDOW:
        raise LengthMismatch(
            f"signal of {len(x)} samples shorter than window {WINDOW}")
    return sliding_window_view(x, WINDOW)[::HOP]


def _blocks(n_frames: int):
    """Slices that walk n_frames in runs of _BLOCK frames."""
    return (slice(start, start + _BLOCK)
            for start in range(0, n_frames, _BLOCK))


def _check_pair(a: AudioBuffer, b: AudioBuffer) -> None:
    if a.num_samples != b.num_samples or a.sample_rate_hz != b.sample_rate_hz:
        raise LengthMismatch("buffers must share length and sample rate")


def _power(frames: np.ndarray) -> np.ndarray:
    """|STFT|^2 + EPS_POWER of a stack of frames, in one array."""
    power = np.abs(np.fft.rfft(frames * _HANN, axis=1))
    np.square(power, out=power)
    power += EPS_POWER
    return power


class _Reference(AudioBuffer):
    """A buffer that lsd compares many candidates against: the power of
    each block of its frames, per channel, is computed on first use and
    kept for later calls."""

    @cached_property
    def block_powers(self) -> list[list[np.ndarray]]:
        return [[_power(frames[block]) for block in _blocks(len(frames))]
                for frames in map(_frames, self.samples)]


def lsd(a: AudioBuffer, b: AudioBuffer) -> float:
    """Log-spectral distance in dB, averaged over frames and channels.

    Per channel: RMS over bins of 10*log10((|A|^2+eps)/(|B|^2+eps)), then
    the mean over frames; the two channel values are averaged. A channel, or
    else a block of frames, whose samples are the same bits in both buffers
    scores 0 without a transform, as the formula gives for equal frames.
    """
    _check_pair(a, b)
    per_channel = []
    for ch in range(2):
        fa = _frames(a.samples[ch])
        fb = _frames(b.samples[ch])
        # bits, not ==, so that +0.0 against -0.0 is still transformed
        bits_a, bits_b = (x.samples[ch].view(np.int64) for x in (a, b))
        whole = slice(0, (len(fa) - 1) * HOP + WINDOW)  # every analysed sample
        equal = np.array_equal(bits_a[whole], bits_b[whole])
        # every frame's value is kept, so the mean over frames sums in the
        # same order as an unblocked pass and the result is bit-identical
        per_frame = np.zeros(len(fa))
        for i, block in enumerate(() if equal else _blocks(len(fa))):
            span = slice(block.start * HOP,
                         (min(block.stop, len(fa)) - 1) * HOP + WINDOW)
            if np.array_equal(bits_a[span], bits_b[span]):
                continue  # its frames score 0, as equal frames do below
            # the reference's powers are built on the first block that differs
            power_a = (a.block_powers[ch][i] if isinstance(a, _Reference)
                       else _power(fa[block]))
            diff = _power(fb[block])
            np.divide(power_a, diff, out=diff)
            np.log10(diff, out=diff)
            diff *= 10.0
            np.square(diff, out=diff)
            per_frame[block] = np.sqrt(np.mean(diff, axis=1))
        per_channel.append(np.mean(per_frame))
    return float(np.mean(per_channel))


def frame_is_silent(frames: np.ndarray):
    """Whether a frame, or each frame of a stack, is below the silence floor."""
    return np.mean(np.square(frames), axis=-1) < _SILENCE_POWER


def gcc_phat_tdoa(left: np.ndarray, right: np.ndarray) -> int:
    """Integer interaural delay estimate via PHAT-weighted cross-correlation.

    Positive lag means the left channel is the delayed one (source toward
    the right). Frames that are both silent report lag 0.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if len(left) != len(right):
        raise LengthMismatch("frames must have equal length")
    if len(left) < 2 * GCC_MAX_LAG:
        raise ValueError("frames must be at least 2*GCC_MAX_LAG long")
    if frame_is_silent(left) and frame_is_silent(right):
        return 0
    return int(_phat_lag(left, right))


def _phat_lag(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Peak PHAT lag of each row pair (last axis is time)."""
    nfft = 2 * left.shape[-1]
    spec = np.fft.rfft(left, nfft)
    spec *= np.conj(np.fft.rfft(right, nfft))
    spec /= np.maximum(np.abs(spec), PHAT_FLOOR)
    cc = np.fft.irfft(spec, nfft)
    lags = np.concatenate([cc[..., -GCC_MAX_LAG:], cc[..., : GCC_MAX_LAG + 1]],
                          axis=-1)
    return np.argmax(lags, axis=-1) - GCC_MAX_LAG


def _tdoa_track(buffer: AudioBuffer):
    """Per-frame TDOA plus a per-frame silence mask (True = usable)."""
    lf = _frames(buffer.left)
    rf = _frames(buffer.right)
    usable = np.empty(len(lf), dtype=bool)
    tdoas = np.zeros(len(lf), dtype=np.int64)
    for block in _blocks(len(lf)):
        left, right = lf[block], rf[block]
        keep = ~(frame_is_silent(left) & frame_is_silent(right))
        usable[block] = keep
        if keep.any():
            tdoas[block][keep] = _phat_lag(left[keep], right[keep])
    return tdoas, usable


def gcc_mse(a: AudioBuffer, b: AudioBuffer) -> float:
    """Mean squared difference of per-frame interaural delays (samples^2).

    Frames silent in either buffer are excluded.
    """
    _check_pair(a, b)
    ta, ua = _tdoa_track(a)
    tb, ub = _tdoa_track(b)
    mask = ua & ub
    if not np.any(mask):
        raise NoVoicedFrames("all frames are below the silence floor")
    return float(np.mean((ta[mask] - tb[mask]).astype(np.float64) ** 2))


@dataclass(frozen=True)
class RoundTripResult:
    lsd_per_round: tuple[float, ...]


def roundtrip_drift(editor: Editor, audio: AudioBuffer, pseudo_label: str,
                    rounds: int = 5) -> RoundTripResult:
    """Add-then-remove the same pseudo label repeatedly and track LSD drift
    against the original audio after each round. The original is analysed
    at most once per call, on the first block of a round that differs from
    it; a block equal to it bit for bit scores 0 without a transform."""
    add = Add(label=pseudo_label)
    remove = Remove(label=pseudo_label)
    reference = _Reference(audio.samples, audio.sample_rate_hz)
    current = audio
    drifts = []
    for round_no in range(1, rounds + 1):
        try:
            current = editor.edit(current, add)
            current = editor.edit(current, remove)
        except Exception as exc:
            exc.add_note(f"round {round_no}")
            raise
        drifts.append(lsd(reference, current))
    return RoundTripResult(tuple(drifts))
