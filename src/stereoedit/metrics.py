"""Signal-level evaluation: log-spectral distance, GCC-PHAT delay metrics,
and the round-trip drift harness.

The analysis is fixed: a 1024-sample periodic Hann window with a 256-sample
hop throughout, a GCC lag search of +/-24 samples and a -80 dBFS silence
floor, so degenerate inputs never produce NaN.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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


def _frames(x: np.ndarray) -> np.ndarray:
    """Non-padded sliding frames as a view, shape (n_frames, WINDOW)."""
    if len(x) < WINDOW:
        raise LengthMismatch(
            f"signal of {len(x)} samples shorter than window {WINDOW}")
    return sliding_window_view(x, WINDOW)[::HOP]


def _power_spectrogram(x: np.ndarray) -> np.ndarray:
    spec = np.fft.rfft(_frames(x) * _HANN, axis=1)
    return np.abs(spec) ** 2


def lsd(a: AudioBuffer, b: AudioBuffer) -> float:
    """Log-spectral distance in dB, averaged over frames and channels.

    Per channel: RMS over bins of 10*log10((|A|^2+eps)/(|B|^2+eps)), then
    the mean over frames; the two channel values are averaged.
    """
    if a.num_samples != b.num_samples or a.sample_rate_hz != b.sample_rate_hz:
        raise LengthMismatch("buffers must share length and sample rate")
    per_channel = []
    for ch in range(2):
        pa = _power_spectrogram(a.samples[ch]) + EPS_POWER
        pb = _power_spectrogram(b.samples[ch]) + EPS_POWER
        diff = 10.0 * np.log10(pa / pb)
        per_channel.append(np.mean(np.sqrt(np.mean(diff ** 2, axis=1))))
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
    return _phat_lag(left, right)


def _phat_lag(left: np.ndarray, right: np.ndarray) -> int:
    nfft = 2 * len(left)
    spec = np.fft.rfft(left, nfft) * np.conj(np.fft.rfft(right, nfft))
    spec /= np.maximum(np.abs(spec), PHAT_FLOOR)
    cc = np.fft.irfft(spec, nfft)
    lags = np.concatenate([cc[-GCC_MAX_LAG:], cc[: GCC_MAX_LAG + 1]])
    return int(np.argmax(lags)) - GCC_MAX_LAG


def _tdoa_track(buffer: AudioBuffer):
    """Per-frame TDOA plus a per-frame silence mask (True = usable)."""
    lf = _frames(buffer.left)
    rf = _frames(buffer.right)
    usable = ~(frame_is_silent(lf) & frame_is_silent(rf))
    tdoas = np.zeros(len(lf), dtype=np.int64)
    for i in np.flatnonzero(usable):
        tdoas[i] = _phat_lag(lf[i], rf[i])
    return tdoas, usable


def gcc_mse(a: AudioBuffer, b: AudioBuffer) -> float:
    """Mean squared difference of per-frame interaural delays (samples^2).

    Frames silent in either buffer are excluded.
    """
    if a.num_samples != b.num_samples:
        raise LengthMismatch("buffers must have equal length")
    ta, ua = _tdoa_track(a)
    tb, ub = _tdoa_track(b)
    mask = ua & ub
    if not np.any(mask):
        raise NoVoicedFrames("all frames are below the silence floor")
    return float(np.mean((ta[mask] - tb[mask]).astype(np.float64) ** 2))


@dataclass(frozen=True)
class RoundTripResult:
    rounds: int
    lsd_per_round: tuple[float, ...]
    editor_id: str
    label_used: str

    def __post_init__(self):
        object.__setattr__(self, "lsd_per_round", tuple(self.lsd_per_round))
        if len(self.lsd_per_round) != self.rounds:
            raise ValueError("one LSD value per round is required")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "lsd"])
            for i, value in enumerate(self.lsd_per_round, 1):
                writer.writerow([i, f"{value:.9g}"])


def roundtrip_drift(editor: Editor, audio: AudioBuffer, pseudo_label: str,
                    rounds: int = 5, csv_path=None,
                    editor_id: str = "editor") -> RoundTripResult:
    """Add-then-remove the same pseudo label repeatedly and track LSD drift
    against the original audio after each round."""
    add = Add(label=pseudo_label)
    remove = Remove(label=pseudo_label)
    current = audio
    drifts = []
    for round_no in range(1, rounds + 1):
        try:
            current = editor.edit(current, add)
            current = editor.edit(current, remove)
        except Exception as exc:
            exc.args = (f"round {round_no}: {exc}",)
            raise
        drifts.append(lsd(audio, current))
    result = RoundTripResult(rounds=rounds, lsd_per_round=tuple(drifts),
                             editor_id=editor_id, label_used=pseudo_label)
    if csv_path is not None:
        result.write_csv(csv_path)
    return result
