import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from stereoedit.audio import (SAMPLE_RATE, AudioBuffer, SourceClip,
                              fit_duration, load_clip, normalize_rms,
                              read_wav, resample, write_wav)
from stereoedit.errors import SilentClip, UnreadableFile, UnsupportedFormat


def test_source_clip_requires_mono():
    with pytest.raises(ValueError):
        SourceClip(label="x", samples=np.zeros((2, 10)))


def test_source_clip_rejects_nan():
    with pytest.raises(ValueError):
        SourceClip(label="x", samples=np.array([0.0, np.nan]))


def test_audio_buffer_shape():
    buf = AudioBuffer(np.zeros((2, 100)))
    assert buf.num_samples == 100
    assert buf.left.shape == (100,)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((3, 100)))


def test_read_wav_int16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    data = np.array([0, 16384, -32768, 32767], dtype=np.int16)
    wavfile.write(str(path), SAMPLE_RATE, data)
    rate, out = read_wav(path)
    assert rate == SAMPLE_RATE
    assert out.dtype == np.float64
    np.testing.assert_allclose(out, [0.0, 0.5, -1.0, 32767 / 32768])


def test_read_wav_float32_roundtrip(tmp_path):
    path = tmp_path / "f.wav"
    data = np.linspace(-0.9, 0.9, 64).astype(np.float32)
    wavfile.write(str(path), SAMPLE_RATE, data)
    _, out = read_wav(path)
    np.testing.assert_array_equal(out, data.astype(np.float64))


def test_read_wav_uint8(tmp_path):
    path = tmp_path / "u.wav"
    wavfile.write(str(path), 8000, np.array([0, 128, 255], dtype=np.uint8))
    _, out = read_wav(path)
    np.testing.assert_allclose(out, [-1.0, 0.0, 127 / 128])


def test_read_wav_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        read_wav(tmp_path / "nope.wav")


def test_read_wav_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises((UnreadableFile, UnsupportedFormat)):
        read_wav(path)


def test_read_wav_rejects_non_finite_float(tmp_path):
    path = tmp_path / "inf.wav"
    data = np.zeros((100, 2), dtype=np.float32)
    data[3, 0] = np.inf
    wavfile.write(path, SAMPLE_RATE, data)
    with pytest.raises(UnsupportedFormat, match="finite"):
        read_wav(path)


def test_write_wav_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1, 1, (2, 1000)).astype(np.float32).astype(np.float64)
    buf = AudioBuffer(samples)
    path = tmp_path / "out.wav"
    write_wav(path, buf)
    rate, back = read_wav(path)
    assert rate == SAMPLE_RATE
    np.testing.assert_array_equal(back.T, samples)


def test_resample_identity():
    x = np.linspace(-1, 1, 100)
    np.testing.assert_array_equal(resample(x, SAMPLE_RATE, SAMPLE_RATE), x)


def test_resample_preserves_tone():
    # a 440 Hz tone survives 48k -> 24k: project the interior onto the
    # sin/cos pair at 440 Hz (the filter may shift phase by a fraction of
    # a sample) and require a tiny off-tone residual
    t48 = np.arange(48000) / 48000
    x = np.sin(2 * np.pi * 440 * t48)
    y = resample(x, 48000, SAMPLE_RATE)
    assert len(y) == 24000
    t24 = (np.arange(24000) / 24000)[2000:-2000]
    mid = y[2000:-2000]
    basis = np.stack([np.sin(2 * np.pi * 440 * t24),
                      np.cos(2 * np.pi * 440 * t24)], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, mid, rcond=None)
    residual = mid - basis @ coeffs
    assert np.hypot(*coeffs) == pytest.approx(1.0, abs=1e-4)
    assert np.max(np.abs(residual)) < 1e-3


def test_resample_length_upsample():
    y = resample(np.zeros(16000), 16000, SAMPLE_RATE)
    assert len(y) == 24000


def test_load_clip_downmixes_stereo(tmp_path):
    path = tmp_path / "st.wav"
    data = np.stack([np.full(100, 0.5), np.full(100, -0.5)], axis=1)
    wavfile.write(str(path), SAMPLE_RATE, data.astype(np.float32))
    clip = load_clip(path, "x")
    np.testing.assert_allclose(clip.samples, 0.0, atol=1e-12)


def test_load_clip_rejects_multichannel(tmp_path):
    path = tmp_path / "m.wav"
    wavfile.write(str(path), SAMPLE_RATE, np.zeros((100, 4), dtype=np.float32))
    with pytest.raises(UnsupportedFormat):
        load_clip(path, "x")


def test_fit_duration_trim_and_pad():
    clip = SourceClip(label="x", samples=np.ones(100))
    longer = fit_duration(clip, 200 / SAMPLE_RATE)
    assert len(longer.samples) == 200
    np.testing.assert_array_equal(longer.samples[:100], 1.0)
    np.testing.assert_array_equal(longer.samples[100:], 0.0)
    shorter = fit_duration(clip, 40 / SAMPLE_RATE)
    assert len(shorter.samples) == 40
    np.testing.assert_array_equal(shorter.samples, 1.0)


def test_fit_duration_canonical_length():
    clip = SourceClip(label="x", samples=np.ones(10))
    assert len(fit_duration(clip, 10.0).samples) == 240000


def test_normalize_rms_exact():
    clip = SourceClip(label="x", samples=np.full(1000, 0.25))
    out = normalize_rms(clip, -20.0)
    assert out.rms() == pytest.approx(10 ** (-20 / 20), rel=1e-12)


def test_normalize_rms_silent_raises():
    with pytest.raises(SilentClip):
        normalize_rms(SourceClip(label="x", samples=np.zeros(100)))


def _traced_peak(fn):
    """Peak bytes traced while fn runs (numpy reports its buffers to
    tracemalloc), and fn's result."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_write_wav_allocates_one_float32_copy(tmp_path):
    samples = np.random.default_rng(1).uniform(-1, 1, (2, 240000))
    buf = AudioBuffer(samples)
    path = tmp_path / "big.wav"
    peak, _ = _traced_peak(lambda: write_wav(path, buf))
    payload = samples.size * np.dtype(np.float32).itemsize
    assert peak <= 1.2 * payload
    _, back = read_wav(path)
    np.testing.assert_array_equal(back.T, samples.astype(np.float32))


def test_peak_matches_abs_max_without_a_temporary():
    samples = np.random.default_rng(2).uniform(-1, 1, (2, 240000))
    samples[1, 1234] = -1.5  # the largest magnitude is negative
    buf = AudioBuffer(samples)
    peak, value = _traced_peak(buf.peak)
    assert value == float(np.max(np.abs(samples))) == 1.5
    assert peak < 2 ** 20
    assert AudioBuffer(np.zeros((2, 0))).peak() == 0.0
    assert AudioBuffer(np.full((2, 3), 0.25)).peak() == 0.25
