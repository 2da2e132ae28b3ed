import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from stereoedit import metrics
from stereoedit.audio import SAMPLE_RATE, AudioBuffer, SourceClip
from stereoedit.engine import OracleEditor
from stereoedit.errors import LengthMismatch, NoVoicedFrames
from stereoedit.metrics import (EPS_POWER, GCC_MAX_LAG, HOP, PHAT_FLOOR,
                                WINDOW, _Reference, _tdoa_track,
                                frame_is_silent, gcc_mse, gcc_phat_tdoa, lsd,
                                roundtrip_drift)
from stereoedit.pipeline import sample_scene
from stereoedit.plans import Remove
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


# The unblocked formulas the metrics had before frames were analysed in
# blocks: every frame of a channel in one array for LSD, one PHAT call per
# usable frame for the TDOA track. Blocking must not change a bit.

def _reference_power(x):
    frames = sliding_window_view(x, WINDOW)[::HOP]
    spec = np.fft.rfft(frames * np.hanning(WINDOW + 1)[:-1], axis=1)
    return np.abs(spec) ** 2


def _reference_lsd(a, b):
    per_channel = []
    for ch in range(2):
        pa = _reference_power(a.samples[ch]) + EPS_POWER
        pb = _reference_power(b.samples[ch]) + EPS_POWER
        diff = 10.0 * np.log10(pa / pb)
        per_channel.append(np.mean(np.sqrt(np.mean(diff ** 2, axis=1))))
    return float(np.mean(per_channel))


def _reference_phat_lag(left, right):
    nfft = 2 * len(left)
    spec = np.fft.rfft(left, nfft) * np.conj(np.fft.rfft(right, nfft))
    spec /= np.maximum(np.abs(spec), PHAT_FLOOR)
    cc = np.fft.irfft(spec, nfft)
    lags = np.concatenate([cc[-GCC_MAX_LAG:], cc[: GCC_MAX_LAG + 1]])
    return int(np.argmax(lags)) - GCC_MAX_LAG


def _reference_tdoa_track(buffer):
    lf = sliding_window_view(buffer.left, WINDOW)[::HOP]
    rf = sliding_window_view(buffer.right, WINDOW)[::HOP]
    usable = ~(frame_is_silent(lf) & frame_is_silent(rf))
    tdoas = np.zeros(len(lf), dtype=np.int64)
    for i in np.flatnonzero(usable):
        tdoas[i] = _reference_phat_lag(lf[i], rf[i])
    return tdoas, usable


def _reference_gcc_mse(a, b):
    ta, ua = _reference_tdoa_track(a)
    tb, ub = _reference_tdoa_track(b)
    mask = ua & ub
    return float(np.mean((ta[mask] - tb[mask]).astype(np.float64) ** 2))


def _delayed_noise(n_frames, seed, delay):
    """Stereo noise, shape (2, n), whose right channel lags the left by
    ``delay`` samples."""
    rng = np.random.default_rng(seed)
    n = WINDOW + (n_frames - 1) * HOP
    x = rng.uniform(-0.4, 0.4, n + 2 * GCC_MAX_LAG)
    shifted = x[GCC_MAX_LAG - delay:GCC_MAX_LAG - delay + n]
    return np.stack([x[GCC_MAX_LAG:GCC_MAX_LAG + n], shifted]) + rng.normal(
        0.0, 0.05, (2, n))


def _assert_matches_reference(a, b):
    assert lsd(a, b) == _reference_lsd(a, b)
    assert gcc_mse(a, b) == _reference_gcc_mse(a, b)
    for buffer in (a, b):
        tdoas, usable = _tdoa_track(buffer)
        ref_tdoas, ref_usable = _reference_tdoa_track(buffer)
        assert tdoas.tolist() == ref_tdoas.tolist()
        assert usable.tolist() == ref_usable.tolist()


@pytest.mark.parametrize("n_frames", [1, 31, 32, 33, 65])
def test_blocked_analysis_matches_reference(n_frames):
    a = AudioBuffer(_delayed_noise(n_frames, seed=n_frames, delay=3))
    b = AudioBuffer(_delayed_noise(n_frames, seed=n_frames + 100, delay=11))
    assert _tdoa_track(a)[0].shape == (n_frames,)
    _assert_matches_reference(a, b)


def test_blocked_analysis_matches_reference_across_silence():
    samples = _delayed_noise(100, seed=5, delay=7)
    # both channels silent in frames 24-30, 35 and 63; left alone
    # silent from frame 70 on, which keeps those frames usable
    for start, stop in [(6000, 8800), (8900, 10000), (16100, 17200)]:
        samples[:, start:stop] = 0.0
    samples[0, 17920:] = 0.0
    a = AudioBuffer(samples)
    b = AudioBuffer(_delayed_noise(100, seed=6, delay=-9))
    usable = _tdoa_track(a)[1]
    assert np.flatnonzero(~usable).tolist() == [24, 25, 26, 27, 28, 29, 30,
                                                 35, 63]
    _assert_matches_reference(a, b)
    _assert_matches_reference(b, a)


# Edges of the sample spans of blocks of 32 frames: a span starts at
# 32*HOP*k and ends WINDOW - HOP samples past the next span's start, or at
# the buffer's end.
_EDGE_OFFSETS = (-1, 0, WINDOW - HOP - 1, WINDOW - HOP, WINDOW - 1, WINDOW)


@st.composite
def _lsd_pairs(draw):
    """A stereo buffer of 1-70 frames and a copy of it that differs in
    nothing, in all of one channel, in one sample at a block edge, or in
    the sign of one zero."""
    n_frames = draw(st.integers(1, 70))
    n = WINDOW + (n_frames - 1) * HOP
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-0.5, 0.5, (2, n))
    b = a.copy()
    ch = draw(st.integers(0, 1))
    change = draw(st.sampled_from(["none", "channel", "edge", "zero sign"]))
    if change == "channel":
        b[ch] = rng.uniform(-0.5, 0.5, n)
    elif change == "edge":
        edges = {n - 1, *(32 * HOP * k + offset
                          for k in range(n_frames // 32 + 1)
                          for offset in _EDGE_OFFSETS)}
        pos = draw(st.sampled_from(sorted(edges & set(range(n)))))
        b[ch, pos] += 0.25
    elif change == "zero sign":
        pos = draw(st.integers(0, n - 1))
        a[ch, pos], b[ch, pos] = 0.0, -0.0
    return AudioBuffer(a), AudioBuffer(b)


@settings(max_examples=200)
@given(_lsd_pairs())
def test_lsd_skips_equal_blocks_without_moving_a_bit(pair):
    a, b = pair
    assert lsd(a, b) == _reference_lsd(a, b)
    assert lsd(b, a) == _reference_lsd(b, a)
    assert lsd(_Reference(a.samples, a.sample_rate_hz), b) == _reference_lsd(
        a, b)


def test_gcc_phat_tdoa_returns_int():
    x = np.random.default_rng(4).standard_normal(1024)
    lag = gcc_phat_tdoa(np.roll(x, 5), x)
    assert type(lag) is int and lag == 5


def _traced_peak(fn):
    """Peak bytes traced while fn runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("metric", [lsd, gcc_mse])
def test_metric_memory_is_bounded(metric):
    # 10 s of stereo: the complex spectrum of all of one channel's frames
    # alone is about 7 MiB, so a bounded call never builds one
    a = _noise_buffer(0, n=10 * SAMPLE_RATE)
    b = _noise_buffer(1, n=10 * SAMPLE_RATE)
    assert _traced_peak(lambda: metric(a, b)) < 2.5 * 2 ** 20


def test_shorter_than_window_raises():
    a, b = _noise_buffer(0, n=1023), _noise_buffer(1, n=1023)
    with pytest.raises(LengthMismatch):
        lsd(a, b)
    with pytest.raises(LengthMismatch):  # equal samples are no shortcut
        lsd(a, a)
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


def test_gcc_mse_rate_mismatch():
    a = _noise_buffer(0)
    b = AudioBuffer(_noise_buffer(1).samples, sample_rate_hz=16000)
    with pytest.raises(LengthMismatch):
        gcc_mse(a, b)


def test_gcc_mse_all_silent_raises():
    silent = AudioBuffer(np.zeros((2, 4096)))
    with pytest.raises(NoVoicedFrames):
        gcc_mse(silent, silent)


def test_roundtrip_drift_oracle_is_exact(catalog, transformed):
    rng = np.random.default_rng(3)
    clip = SourceClip(label="rain", samples=rng.uniform(-0.3, 0.3, 48000))
    scene = Scene((EventSpec("e0", "rain", clip, Direction.FRONT, 0.0),), 2.0)
    audio = render_scene(scene)
    transformed["of"] = audio
    editor = OracleEditor(scene, catalog=catalog, rng=random.Random(0))
    result = roundtrip_drift(editor, audio, "wind", rounds=5)
    assert len(result.lsd_per_round) == 5
    assert result.lsd_per_round == (0.0,) * 5
    # every round's blocks equal the original's bit for bit
    assert transformed == {"reference": 0, "other": 0, "of": audio}


class _LossyEditor:
    """Adds a tiny bias every call, so drift should grow monotonically.
    Keeps what each Remove returned: the buffer each round scores."""

    def __init__(self):
        self.calls = 0
        self.removed = []

    def edit(self, audio, step):
        self.calls += 1
        out = AudioBuffer(audio.samples * 1.01 + 1e-4)
        if isinstance(step, Remove):
            self.removed.append(out)
        return out


def test_roundtrip_drift_detects_lossy_editor():
    audio = _noise_buffer()
    result = roundtrip_drift(_LossyEditor(), audio, "ghost", rounds=3)
    assert result.lsd_per_round[0] > 0.01
    assert list(result.lsd_per_round) == sorted(result.lsd_per_round)


class _ExplodingEditor(_LossyEditor):
    """Edits like _LossyEditor until the Add of round ``fail_round``."""

    def __init__(self, fail_round=1):
        super().__init__()
        self.fail_round = fail_round

    def edit(self, audio, step):
        if self.calls == 2 * (self.fail_round - 1):
            raise RuntimeError("boom")
        return super().edit(audio, step)


def test_roundtrip_drift_error_names_round():
    with pytest.raises(RuntimeError, match="round 1"):
        roundtrip_drift(_ExplodingEditor(), _noise_buffer(), "ghost", rounds=2)


# roundtrip_drift analyses its reference once per call and reuses the
# reference's block powers in every round: each round's value must still be
# the unblocked formula's, bit for bit.

def _drift_matches_reference(audio):
    editor = _LossyEditor()
    result = roundtrip_drift(editor, audio, "ghost", rounds=5)
    assert result.lsd_per_round == tuple(_reference_lsd(audio, c)
                                         for c in editor.removed)


@pytest.mark.parametrize("n_frames", [1, 31, 32, 33, 65])
def test_roundtrip_drift_matches_reference(n_frames):
    audio = AudioBuffer(_delayed_noise(n_frames, seed=n_frames, delay=5))
    _drift_matches_reference(audio)


def test_roundtrip_drift_matches_reference_on_a_scene(catalog):
    audio = render_scene(sample_scene(catalog, random.Random(7), 4, 4))
    assert audio.num_samples == 10 * SAMPLE_RATE
    _drift_matches_reference(audio)


@pytest.fixture
def transformed(monkeypatch):
    """Frame counts of every _power call, split by whether the frames are
    views into the buffer the test registers as the reference."""
    counts = {"reference": 0, "other": 0, "of": None}
    power = metrics._power

    def counting(frames):
        mine = np.shares_memory(frames, counts["of"].samples)
        counts["reference" if mine else "other"] += len(frames)
        return power(frames)

    monkeypatch.setattr(metrics, "_power", counting)
    return counts


def test_roundtrip_drift_transforms_the_reference_once(transformed):
    audio = AudioBuffer(_delayed_noise(65, seed=1, delay=5))
    transformed["of"] = audio
    roundtrip_drift(_LossyEditor(), audio, "ghost", rounds=5)
    assert transformed["reference"] == 2 * 65  # each frame of both channels
    assert transformed["other"] == 5 * 2 * 65


class _OneSampleEditor(_LossyEditor):
    """Adds nothing; each Remove returns a copy with one sample set."""

    def __init__(self, ch, pos, value):
        super().__init__()
        self.ch, self.pos, self.value = ch, pos, value

    def edit(self, audio, step):
        self.calls += 1
        if not isinstance(step, Remove):
            return audio
        samples = audio.samples.copy()
        samples[self.ch, self.pos] = self.value
        out = AudioBuffer(samples)
        self.removed.append(out)
        return out


@pytest.mark.parametrize("pos,value,frames", [
    (32 * HOP + 100, 0.75, 64),        # in the spans of blocks 0 and 1
    (64 * HOP + WINDOW - 1, 0.75, 1),  # only in the last frame, block 2
    (100, -0.0, 32),                   # the sign of a zero: bits differ
])
def test_lsd_transforms_only_the_blocks_that_differ(transformed, pos, value,
                                                     frames):
    samples = _delayed_noise(65, seed=2, delay=5)
    samples[1, 100] = 0.0
    audio = AudioBuffer(samples)
    transformed["of"] = audio
    editor = _OneSampleEditor(1, pos, value)
    result = roundtrip_drift(editor, audio, "ghost", rounds=5)
    assert result.lsd_per_round == tuple(_reference_lsd(audio, c)
                                         for c in editor.removed)
    assert transformed["reference"] == 2 * 65  # once, in the first round
    assert transformed["other"] == 5 * frames


def test_roundtrip_drift_zero_rounds_does_no_analysis(transformed):
    # a reference too short for one frame is not an error when unused
    audio = _noise_buffer(n=WINDOW - 1)
    transformed["of"] = audio
    editor = _LossyEditor()
    result = roundtrip_drift(editor, audio, "ghost", rounds=0)
    assert result.lsd_per_round == ()
    assert editor.calls == 0
    assert transformed == {"reference": 0, "other": 0, "of": audio}


def test_roundtrip_drift_short_reference_fails_after_round_one_edits():
    editor = _LossyEditor()
    with pytest.raises(LengthMismatch):
        roundtrip_drift(editor, _noise_buffer(n=WINDOW - 1), "ghost")
    assert editor.calls == 2
    # an editor failure comes first, noted with its round
    with pytest.raises(RuntimeError, match="round 1"):
        roundtrip_drift(_ExplodingEditor(), _noise_buffer(n=WINDOW - 1),
                        "ghost")


def test_roundtrip_drift_later_error_names_its_round():
    editor = _ExplodingEditor(fail_round=3)
    with pytest.raises(RuntimeError) as info:
        roundtrip_drift(editor, _noise_buffer(), "ghost", rounds=5)
    assert info.value.__notes__ == ["round 3"]
    assert editor.calls == 4
