"""Signal-level evaluation: log-spectral distance, GCC-PHAT delay metrics,
and the round-trip drift harness.

Frame analysis uses a 1024-sample Hann window with a 256-sample hop
throughout, and silence is handled with explicit floors so degenerate
inputs never produce NaN.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .engine import Editor
from .errors import LengthMismatch, NoVoicedFrames
from .plans import Add, Remove

EPS_POWER = 1e-10
PHAT_FLOOR = 1e-12
SILENCE_FLOOR_DBFS = -80.0
GCC_MAX_LAG = 24  # samples; > ceil(max physical interaural delay ~15.7)


@dataclass(frozen=True)
class StftParams:
    window_size: int = 1024
    hop: int = 256

    def __post_init__(self):
        if self.hop > self.window_size:
            raise ValueError("hop must not exceed window_size")
        if self.window_size & (self.window_size - 1):
            raise ValueError("window_size must be a power of two")


DEFAULT_STFT = StftParams()


def _frames(x: np.ndarray, params: StftParams) -> np.ndarray:
    """Non-padded sliding frames, shape (n_frames, window_size)."""
    n = len(x)
    if n < params.window_size:
        raise LengthMismatch(
            f"signal of {n} samples shorter than window {params.window_size}")
    count = (n - params.window_size) // params.hop + 1
    idx = (np.arange(count)[:, None] * params.hop
           + np.arange(params.window_size)[None, :])
    return x[idx]


def _power_spectrogram(x: np.ndarray, params: StftParams) -> np.ndarray:
    frames = _frames(x, params)
    window = np.hanning(params.window_size + 1)[:-1]  # periodic Hann
    spec = np.fft.rfft(frames * window, axis=1)
    return np.abs(spec) ** 2


def lsd(a: AudioBuffer, b: AudioBuffer, params: StftParams = DEFAULT_STFT) -> float:
    """Log-spectral distance in dB, averaged over frames and channels.

    Per channel: RMS over bins of 10*log10((|A|^2+eps)/(|B|^2+eps)), then
    the mean over frames; the two channel values are averaged.
    """
    if a.num_samples != b.num_samples or a.sample_rate_hz != b.sample_rate_hz:
        raise LengthMismatch("buffers must share length and sample rate")
    per_channel = []
    for ch in range(2):
        pa = _power_spectrogram(a.samples[ch], params) + EPS_POWER
        pb = _power_spectrogram(b.samples[ch], params) + EPS_POWER
        diff = 10.0 * np.log10(pa / pb)
        per_channel.append(np.mean(np.sqrt(np.mean(diff ** 2, axis=1))))
    return float(np.mean(per_channel))


def frame_is_silent(frame: np.ndarray,
                    floor_dbfs: float = SILENCE_FLOOR_DBFS) -> bool:
    return float(np.mean(np.square(frame))) < 10.0 ** (floor_dbfs / 10.0)


def gcc_phat_tdoa(left: np.ndarray, right: np.ndarray,
                  max_lag: int = GCC_MAX_LAG) -> int:
    """Integer interaural delay estimate via PHAT-weighted cross-correlation.

    Positive lag means the left channel is the delayed one (source toward
    the right). Frames that are both silent report lag 0.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if len(left) != len(right):
        raise LengthMismatch("frames must have equal length")
    if len(left) < 2 * max_lag:
        raise ValueError("frames must be at least 2*max_lag long")
    if frame_is_silent(left) and frame_is_silent(right):
        return 0

    nfft = 2 * len(left)
    spec = np.fft.rfft(left, nfft) * np.conj(np.fft.rfft(right, nfft))
    spec /= np.maximum(np.abs(spec), PHAT_FLOOR)
    cc = np.fft.irfft(spec, nfft)
    lags = np.concatenate([cc[-max_lag:], cc[: max_lag + 1]])
    return int(np.argmax(lags)) - max_lag


def _tdoa_track(buffer: AudioBuffer, params: StftParams, max_lag: int):
    """Per-frame TDOA plus a per-frame silence mask (True = usable)."""
    lf = _frames(buffer.left, params)
    rf = _frames(buffer.right, params)
    floor = 10.0 ** (SILENCE_FLOOR_DBFS / 10.0)
    usable = (np.mean(np.square(lf), axis=1) >= floor) \
        | (np.mean(np.square(rf), axis=1) >= floor)
    tdoas = np.zeros(len(lf), dtype=np.int64)
    for i in range(len(lf)):
        if usable[i]:
            tdoas[i] = gcc_phat_tdoa(lf[i], rf[i], max_lag)
    return tdoas, usable


def gcc_mse(a: AudioBuffer, b: AudioBuffer,
            params: StftParams = DEFAULT_STFT,
            max_lag: int = GCC_MAX_LAG) -> float:
    """Mean squared difference of per-frame interaural delays (samples^2).

    Frames silent in either buffer are excluded.
    """
    if a.num_samples != b.num_samples:
        raise LengthMismatch("buffers must have equal length")
    ta, ua = _tdoa_track(a, params, max_lag)
    tb, ub = _tdoa_track(b, params, max_lag)
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
