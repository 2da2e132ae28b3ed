"""Synthetic test catalog: labeled tone/noise clips generated on demand.

Keeps the repo free of binary fixtures while giving the pipeline, tests,
and CLI demos a realistic label inventory that lines up with the built-in
designer themes.
"""

from __future__ import annotations

import numpy as np
from pathlib import Path
from scipy.io import wavfile

from .audio import SAMPLE_RATE

DEMO_LABELS = (
    "dog bark", "bird chirp", "rain", "engine rev", "wind",
    "clock tick", "rooster crow", "waves", "thunder", "crowd chatter",
    "footsteps", "bell ring", "cricket chirp", "owl hoot", "seagull call",
    "keyboard typing", "phone ringing", "traffic noise", "stream water",
    "fire crackle",
)

CLIPS_PER_LABEL = 2


def _lowpass(x: np.ndarray, alpha: float) -> np.ndarray:
    # one-pole smoother; cheap spectral shaping for noise textures
    from scipy.signal import lfilter  # slow to import: only demo catalogs need it
    return lfilter([1.0 - alpha], [1.0, -alpha], x)


def _burst_train(rng: np.random.Generator, n: int, rate_hz: float,
                 burst_len: int) -> np.ndarray:
    out = np.zeros(n)
    period = int(SAMPLE_RATE / rate_hz)
    for start in range(0, n - burst_len, period):
        jitter = int(rng.integers(0, max(1, period // 4)))
        s = min(start + jitter, n - burst_len)
        env = np.hanning(burst_len)
        out[s:s + burst_len] += env * rng.standard_normal(burst_len)
    return out


def _synth_clip(label: str, variant: int, rng: np.random.Generator,
                seconds: float) -> np.ndarray:
    n = int(seconds * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    noise = rng.standard_normal(n)

    if label in ("rain", "wind", "waves", "traffic noise", "stream water",
                 "crowd chatter", "engine rev", "thunder", "fire crackle"):
        alpha = {"rain": 0.2, "wind": 0.95, "waves": 0.9, "traffic noise": 0.85,
                 "stream water": 0.5, "crowd chatter": 0.7, "engine rev": 0.92,
                 "thunder": 0.97, "fire crackle": 0.3}[label]
        x = _lowpass(noise, alpha)
        if label in ("waves", "wind", "thunder"):
            x *= 0.6 + 0.4 * np.sin(2 * np.pi * (0.15 + 0.1 * variant) * t)
        if label == "fire crackle":
            x += 0.5 * _burst_train(rng, n, 6.0 + variant, 300)
        if label == "engine rev":
            x += 0.4 * np.sin(2 * np.pi * (55 + 10 * variant) * t)
    elif label in ("dog bark", "rooster crow", "owl hoot", "seagull call",
                   "phone ringing", "bell ring"):
        freq = {"dog bark": 350, "rooster crow": 600, "owl hoot": 320,
                "seagull call": 1100, "phone ringing": 880,
                "bell ring": 660}[label] * (1.0 + 0.1 * variant)
        bursts = _burst_train(rng, n, 1.2 + 0.3 * variant, 4000)
        x = bursts * 0.5 + np.abs(bursts) * np.sin(2 * np.pi * freq * t)
    else:  # clicky/periodic textures
        rate = {"clock tick": 2.0, "footsteps": 1.8, "keyboard typing": 7.0,
                "cricket chirp": 12.0, "bird chirp": 4.0}[label]
        x = _burst_train(rng, n, rate + 0.5 * variant, 600)
        if label in ("bird chirp", "cricket chirp"):
            x *= np.sin(2 * np.pi * (2500 + 300 * variant) * t)

    peak = np.max(np.abs(x))
    return x * (0.5 / peak) if peak > 0 else x


def build_demo_catalog(root, seed: int = 0) -> Path:
    """Write the synthetic catalog under root (one directory per label)."""
    root = Path(root)
    for li, label in enumerate(DEMO_LABELS):
        label_dir = root / label.replace(" ", "_")
        label_dir.mkdir(parents=True, exist_ok=True)
        for variant in range(CLIPS_PER_LABEL):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, li, variant]))
            seconds = 6.0 + 2.0 * variant + (li % 3)  # some short, some long
            samples = _synth_clip(label, variant, rng, seconds)
            data = (samples * 32767.0).astype(np.int16)
            wavfile.write(str(label_dir / f"clip_{variant}.wav"),
                          SAMPLE_RATE, data)
    return root
