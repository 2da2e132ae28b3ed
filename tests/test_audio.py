import io
import sys
import threading
import time
import tracemalloc
import warnings

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_constructors_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SourceClip(label="x", samples=np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        AudioBuffer(np.array([[0.0, 0.0], [bad, 0.0]]))


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


@pytest.mark.parametrize("rate,channels", [(SAMPLE_RATE, 1),
                                           (SAMPLE_RATE, 2), (16000, 1)])
def test_load_clip_rejects_non_finite_float(tmp_path, rate, channels):
    path = tmp_path / "inf.wav"
    data = np.zeros((100, channels), dtype=np.float32)
    data[3, 0] = np.inf
    wavfile.write(path, rate, data.squeeze(axis=1) if channels == 1 else data)
    with pytest.raises(UnsupportedFormat, match="finite"):
        load_clip(path, "x")


def test_load_clip_rejects_a_downmix_that_overflows(tmp_path):
    # finite float64 samples whose channel sum is not
    path = tmp_path / "huge.wav"
    wavfile.write(path, SAMPLE_RATE, np.full((100, 2), 1.7e308))
    with (pytest.raises(UnsupportedFormat,
                        match="huge.wav: samples must be finite"),
          warnings.catch_warnings()):
        warnings.simplefilter("error")  # and no numpy overflow warning
        load_clip(path, "x")


def test_load_clip_reference_rejects_an_rms_that_overflows(tmp_path):
    # finite float64 samples whose squares are not: the RMS factor would be 0
    path = tmp_path / "loud.wav"
    wavfile.write(path, SAMPLE_RATE, np.sin(np.arange(2400) / 7.0) * 1e200)
    clip = fit_duration(load_clip(path, "x"), 0.1)
    with (pytest.raises(UnsupportedFormat,
                        match="loud.wav: RMS overflows float64"),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        normalize_rms(clip)


def test_native_clip_ingest_scans_no_sample(tmp_path, monkeypatch):
    # a mono int16 WAV at the internal rate is finite as read: neither
    # load_clip nor the fit and normalize steps after it scan it again
    path = tmp_path / "a.wav"
    data = (np.sin(np.arange(2400) / 7.0) * 20000).astype(np.int16)
    wavfile.write(path, SAMPLE_RATE, data)
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite",
                        lambda *a, **k: scans.append(1) or isfinite(*a, **k))
    clip = normalize_rms(fit_duration(load_clip(path, "x"), 0.2))
    monkeypatch.undo()
    assert scans == []
    fit = np.concatenate([data / 2.0 ** 15, np.zeros(2400)])
    rms = float(np.sqrt(np.mean(np.square(fit))))
    np.testing.assert_array_equal(clip.samples, fit * (0.1 / rms))
    assert (type(clip), clip.label, clip.origin_path, clip.samples.dtype) == (
        SourceClip, "x", str(path), np.float64)


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
    out = normalize_rms(clip)
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


def test_write_wav_reuses_its_frame_buffer(tmp_path):
    buf = AudioBuffer(np.random.default_rng(3).uniform(-1, 1, (2, 240000)))
    write_wav(tmp_path / "a.wav", buf)
    peak, _ = _traced_peak(lambda: write_wav(tmp_path / "b.wav", buf))
    assert peak < 0.05 * buf.samples.size * np.dtype(np.float32).itemsize
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_peak_matches_abs_max_without_a_temporary():
    samples = np.random.default_rng(2).uniform(-1, 1, (2, 240000))
    samples[1, 1234] = -1.5  # the largest magnitude is negative
    buf = AudioBuffer(samples)
    peak, value = _traced_peak(buf.peak)
    assert value == float(np.max(np.abs(samples))) == 1.5
    assert peak < 2 ** 20
    assert AudioBuffer(np.zeros((2, 0))).peak() == 0.0
    assert AudioBuffer(np.full((2, 3), 0.25)).peak() == 0.25


def _wav_bytes(data):
    buf = io.BytesIO()
    wavfile.write(buf, 8000, data)
    return buf.getvalue()


@pytest.mark.parametrize("dtype", ["float32", "float64", "int16", "int32",
                                   "uint8"])
@pytest.mark.parametrize("channels", [1, 2])
def test_read_wav_rejects_every_strict_prefix(dtype, channels):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.5, 0.5, (8, channels)).squeeze()
    if np.dtype(dtype).kind == "f":
        data = samples.astype(dtype)
    else:
        info = np.iinfo(dtype)
        data = (samples * info.max + (info.max + info.min + 1) / 2).astype(dtype)
    whole = _wav_bytes(data)
    assert read_wav(io.BytesIO(whole))[1].shape == data.shape
    for cut in range(len(whole)):
        with pytest.raises((UnreadableFile, UnsupportedFormat)):
            read_wav(io.BytesIO(whole[:cut]))


def test_reads_on_several_threads_each_reject_a_cut_data_chunk():
    """Each read swaps the process's one warning-filter list; unguarded, a
    thread can restore the list another thread's read relies on, which
    then returns the frames before the cut."""
    cut = _wav_bytes(np.zeros((64, 2), np.int16))[:-4]  # one frame
    filters = list(warnings.filters)
    start = threading.Barrier(6)
    wrong = []

    def read_many():
        start.wait()
        for _ in range(2000):
            try:
                read_wav(io.BytesIO(cut))
                wrong.append("returned samples")
            except UnreadableFile:
                pass
            except Exception as exc:  # recorded, as no thread may raise
                wrong.append(repr(exc))

    t0, switch = time.monotonic(), sys.getswitchinterval()
    threads = [threading.Thread(target=read_many) for _ in range(6)]
    sys.setswitchinterval(1e-5)  # more thread switches inside each read
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert time.monotonic() - t0 < 2.0
    assert wrong == []
    assert warnings.filters == filters
