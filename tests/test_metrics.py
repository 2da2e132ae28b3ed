import random
from dataclasses import replace

import numpy as np
import pytest

from stereoedit.audio import SAMPLE_RATE, AudioBuffer, SourceClip
from stereoedit.engine import OracleEditor
from stereoedit.errors import LengthMismatch, NoVoicedFrames
from stereoedit.metrics import (RoundTripResult, frame_is_silent, gcc_mse,
                                gcc_phat_tdoa, lsd, roundtrip_drift)
from stereoedit.pipeline import sample_scene
from stereoedit.spatial import Direction, EventSpec, Scene, render_scene


def _noise_buffer(seed=0, n=48000):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-0.5, 0.5, (2, n)))


def _pinned_pairs(catalog):
    scene = sample_scene(catalog, random.Random(7), 4, 4)
    a = render_scene(scene)
    moved = (replace(scene.events[0], direction=Direction.LEFT),
             *scene.events[1:])
    yield a, render_scene(replace(scene, events=moved))
    yield a, AudioBuffer(a.samples[::-1] * 0.5)


def test_metric_values_pinned(catalog):
    # exact values: any change to framing, windowing or silence handling
    # moves them
    pinned = [(2.5514017761671575, 118.12935323383084),
              (7.464492011986598, 549.0149253731344)]
    got = [(lsd(a, b), gcc_mse(a, b)) for a, b in _pinned_pairs(catalog)]
    assert got == pinned


def test_shorter_than_window_raises():
    a, b = _noise_buffer(0, n=1023), _noise_buffer(1, n=1023)
    with pytest.raises(LengthMismatch):
        lsd(a, b)
    with pytest.raises(LengthMismatch):
        gcc_mse(a, b)


def test_lsd_self_zero():
    a = _noise_buffer()
    assert lsd(a, a) == 0.0


def test_lsd_symmetry():
    a, b = _noise_buffer(0), _noise_buffer(1)
    assert abs(lsd(a, b) - lsd(b, a)) < 1e-12


def test_lsd_six_db_scaling():
    a = _noise_buffer()
    b = AudioBuffer(a.samples * 10 ** (6 / 20))
    # power ratio is exactly 10^0.6 in every bin, i.e. 6 dB everywhere
    assert lsd(a, b) == pytest.approx(6.0, abs=1e-6)


def test_lsd_length_mismatch():
    with pytest.raises(LengthMismatch):
        lsd(_noise_buffer(n=2048), _noise_buffer(n=4096))


def test_lsd_silence_is_finite():
    silent = AudioBuffer(np.zeros((2, 4096)))
    assert lsd(silent, silent) == 0.0
    assert np.isfinite(lsd(silent, _noise_buffer(n=4096)))


def test_frame_is_silent():
    assert frame_is_silent(np.zeros(1024))
    assert frame_is_silent(np.full(1024, 1e-5))  # -100 dBFS power
    assert not frame_is_silent(np.full(1024, 0.01))
    stack = np.stack([np.zeros(1024), np.full(1024, 0.01)])
    assert frame_is_silent(stack).tolist() == [True, False]


def test_gcc_phat_zero_for_identical():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1024)
    assert gcc_phat_tdoa(x, x) == 0


def test_gcc_phat_recovers_delay_sign():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1024)
    delayed = np.zeros_like(x)
    delayed[16:] = x[:-16]
    # left delayed by 16 -> positive lag (source on the right)
    assert gcc_phat_tdoa(delayed, x) == 16
    assert gcc_phat_tdoa(x, delayed) == -16


def test_gcc_phat_silent_frames():
    zeros = np.zeros(1024)
    assert gcc_phat_tdoa(zeros, zeros) == 0


def test_gcc_phat_rejects_short_frames():
    with pytest.raises(ValueError):
        gcc_phat_tdoa(np.ones(16), np.ones(16))


def test_gcc_mse_self_zero():
    a = _noise_buffer()
    assert gcc_mse(a, a) == 0.0


def test_gcc_mse_detects_direction_change():
    rng = np.random.default_rng(2)
    clip = SourceClip(label="x", samples=rng.uniform(-0.4, 0.4, 48000))
    dur = 2.0
    left = render_scene(Scene(
        (EventSpec("e0", "x", clip, Direction.LEFT, 0.0),), dur))
    right = render_scene(Scene(
        (EventSpec("e0", "x", clip, Direction.RIGHT, 0.0),), dur))
    assert gcc_mse(left, right) == pytest.approx(32.0 ** 2, rel=0.05)


def test_gcc_mse_all_silent_raises():
    silent = AudioBuffer(np.zeros((2, 4096)))
    with pytest.raises(NoVoicedFrames):
        gcc_mse(silent, silent)


def test_roundtrip_result_csv(tmp_path):
    result = RoundTripResult(rounds=2, lsd_per_round=(0.5, 1.0),
                             editor_id="x", label_used="ghost")
    path = tmp_path / "drift.csv"
    result.write_csv(path)
    assert path.read_text().splitlines() == ["round,lsd", "1,0.5", "2,1"]


def test_roundtrip_result_length_check():
    with pytest.raises(ValueError):
        RoundTripResult(rounds=3, lsd_per_round=(0.1,), editor_id="x",
                        label_used="y")


def test_roundtrip_drift_oracle_is_exact(catalog):
    rng = np.random.default_rng(3)
    clip = SourceClip(label="rain", samples=rng.uniform(-0.3, 0.3, 48000))
    scene = Scene((EventSpec("e0", "rain", clip, Direction.FRONT, 0.0),), 2.0)
    audio = render_scene(scene)
    editor = OracleEditor(scene, catalog=catalog, rng=random.Random(0))
    result = roundtrip_drift(editor, audio, "wind", rounds=5)
    assert len(result.lsd_per_round) == 5
    assert all(v <= 1e-6 for v in result.lsd_per_round)


class _LossyEditor:
    """Adds a tiny bias every call, so drift should grow monotonically."""

    def __init__(self):
        self.calls = 0

    def edit(self, audio, step):
        self.calls += 1
        return AudioBuffer(audio.samples * 1.01 + 1e-4)


def test_roundtrip_drift_detects_lossy_editor(tmp_path):
    audio = _noise_buffer()
    result = roundtrip_drift(_LossyEditor(), audio, "ghost", rounds=3,
                             csv_path=tmp_path / "d.csv")
    assert result.lsd_per_round[0] > 0.01
    assert list(result.lsd_per_round) == sorted(result.lsd_per_round)
    assert (tmp_path / "d.csv").exists()


class _ExplodingEditor:
    def edit(self, audio, step):
        raise RuntimeError("boom")


def test_roundtrip_drift_error_names_round():
    with pytest.raises(RuntimeError, match="round 1"):
        roundtrip_drift(_ExplodingEditor(), _noise_buffer(), "ghost", rounds=2)
