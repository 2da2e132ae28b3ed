"""The clip store: exact, shared while a scene holds a clip, one allocation
per other repeat request, and scoped to its catalog."""

import gc
import os
import pickle
import random
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import resample_poly

import stereoedit.audio as audio
import stereoedit.pipeline as pl
from stereoedit.audio import (SAMPLE_RATE, ClipStore, fit_duration, load_clip,
                              normalize_rms, read_wav)
from stereoedit.catalog import build_catalog
from stereoedit.errors import SilentClip, StereoEditError, UnsupportedFormat
from stereoedit.pipeline import (MANIFEST_NAME, PipelineConfig,
                                 canonical_manifest_bytes, run_pipeline,
                                 sample_scene)


def _samples(dtype, frames, channels, seed):
    rng = np.random.default_rng(seed)
    shape = (frames, channels) if channels == 2 else (frames,)
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, shape, dtype=dtype,
                            endpoint=True)
    data = (rng.standard_normal(shape) * 0.3).astype(dtype)
    data.flat[0] = -0.0  # a sign only a float file keeps
    return data


def prepare_clip(path, duration):
    """The store's reference: a fresh decode, fit to the duration, then
    RMS normalization."""
    return normalize_rms(fit_duration(load_clip(path, "x"), duration))


def _same(got, want):
    assert (got.label, got.origin_path) == (want.label, want.origin_path)
    assert got.samples.dtype == want.samples.dtype == np.float64
    assert got.samples.tobytes() == want.samples.tobytes()


@settings(max_examples=60)
@given(dtype=st.sampled_from([np.int16, np.int32, np.uint8, np.float32,
                              np.float64]),
       channels=st.sampled_from([1, 2]),
       rate=st.sampled_from([SAMPLE_RATE, 16000]),
       clip_seconds=st.sampled_from([0.05, 0.2]),  # shorter, longer
       durations=st.permutations([0.1, 0.15]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_store_gives_prepare_clip_bit_for_bit(dtype, channels, rate,
                                              clip_seconds, durations, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.wav"
        wavfile.write(path, rate, _samples(dtype, round(clip_seconds * rate),
                                           channels, seed))
        if channels == 1 and rate == SAMPLE_RATE:  # nothing to mix or resample
            assert (load_clip(path, "x").samples.tobytes()
                    == read_wav(path)[1].tobytes())
        store = ClipStore()
        # per duration: a first request, a second while the first clip is
        # alive, then, the first freed, one more that has its factor
        for duration in [*durations, *durations]:
            want = prepare_clip(path, duration)
            first = store.prepared(path, "x", duration)
            _same(first, want)
            _same(store.prepared(str(path), "x", duration), want)


def test_live_scenes_share_one_read_only_array_per_clip(catalog_root):
    """60 scenes held at once take at most one array per catalog clip, and
    once they are dropped the store keeps none of those arrays alive."""
    cat = build_catalog(catalog_root)
    scenes = [sample_scene(cat, random.Random(seed), duration_seconds=1.0)
              for seed in range(60)]
    arrays = {id(e.clip.samples): e.clip.samples
              for scene in scenes for e in scene.events}
    assert sum(len(scene.events) for scene in scenes) > 40
    assert len(arrays) <= sum(map(len, cat.entries.values())) == 40
    assert not any(a.flags.writeable for a in arrays.values())
    with pytest.raises(ValueError, match="read-only"):
        scenes[0].events[0].clip.samples[0] = 0.0
    ref = weakref.ref(scenes[0].events[0].clip.samples)
    del scenes, arrays
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("content", [
    b"RIFF\x00\x01",            # a cut-off header
    b"not a wav file at all",   # not a WAV
    None,                       # no file
])
def test_store_raises_what_load_clip_raises(tmp_path, content):
    path = tmp_path / "bad.wav"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(StereoEditError) as want:
        load_clip(path, "x")
    for _ in range(2):
        with pytest.raises(type(want.value)) as got:
            ClipStore().prepared(path, "x", 0.1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("path", ["a\0b", ""])
def test_store_raises_what_load_clip_raises_on_a_bad_path(path):
    # only strings: scene files reject a clip path that is not one
    with pytest.raises(StereoEditError) as want:
        load_clip(path, "x")
    with pytest.raises(type(want.value)) as got:
        ClipStore().prepared(path, "x", 0.1)
    assert str(got.value) == str(want.value)


def _raises_on_an_rms_that_overflows(tmp_path):
    # finite float64 samples whose squares are not: the clip is not zeroed
    path = tmp_path / "loud.wav"
    wavfile.write(path, SAMPLE_RATE, np.sin(np.arange(2400) / 7.0) * 1e200)
    store = ClipStore()
    for _ in range(2):
        with (pytest.raises(UnsupportedFormat,
                            match="loud.wav: RMS overflows float64"),
              warnings.catch_warnings()):
            warnings.simplefilter("error")
            store.prepared(path, "x", 0.1)


def _raises_on_a_silent_clip_every_time(tmp_path):
    path = tmp_path / "quiet.wav"
    wavfile.write(path, SAMPLE_RATE, np.zeros(2400, dtype=np.int16))
    store = ClipStore()
    for _ in range(2):
        with pytest.raises(SilentClip, match="all-zero clip: 'x'"):
            store.prepared(path, "x", 0.1)


def test_store_raises_on_an_rms_that_overflows(tmp_path):
    _raises_on_an_rms_that_overflows(tmp_path)


def test_store_raises_on_a_silent_clip_every_time(tmp_path):
    _raises_on_a_silent_clip_every_time(tmp_path)


@pytest.mark.parametrize("check", [_raises_on_an_rms_that_overflows,
                                   _raises_on_a_silent_clip_every_time])
def test_a_store_past_its_bound_raises_the_same(tmp_path, monkeypatch,
                                                check):
    monkeypatch.setattr(audio, "_STORE_BYTES", 0)
    check(tmp_path)


@pytest.mark.parametrize("dtype,channels,rate", [
    (np.int16, 1, SAMPLE_RATE), (np.int32, 1, SAMPLE_RATE),
    (np.float32, 1, SAMPLE_RATE), (np.int16, 2, SAMPLE_RATE),
    (np.int16, 1, 16000)])
@pytest.mark.parametrize("clip_seconds", [0.05, 0.2])  # shorter, longer
def test_a_store_past_its_bound_prepares_every_request_exactly(
        tmp_path, monkeypatch, dtype, channels, rate, clip_seconds):
    """The store holds a small clip that fills its bound, so every request
    for the file under test decodes it again and takes a fresh factor."""
    small = tmp_path / "small.wav"
    wavfile.write(small, SAMPLE_RATE, _samples(np.int16, 240, 1, 1))
    monkeypatch.setattr(audio, "_STORE_BYTES", 480)
    store = ClipStore()
    store.prepared(small, "x", 0.1)
    path = tmp_path / "c.wav"
    wavfile.write(path, rate, _samples(dtype, round(clip_seconds * rate),
                                       channels, 0))
    for duration in [0.1, 0.15, 0.1, 0.15]:
        _same(store.prepared(path, "x", duration),
              prepare_clip(path, duration))
    assert [key[0] for key in store._pcm] == [str(small)]
    assert [key[0][0] for key in store._factors] == [str(small)]
    assert store.nbytes == 480


def test_resampled_clips_share_one_filter_design(tmp_path, monkeypatch):
    """Two 16 kHz files through one store design the (3, 2) filter once,
    and decode to scipy's resampling with a freshly designed filter."""
    designs = []
    firwin = scipy.signal.firwin

    def counting(*args, **kwargs):
        designs.append(args)
        return firwin(*args, **kwargs)

    monkeypatch.setattr(scipy.signal, "firwin", counting)
    audio._resample_window.cache_clear()
    store = ClipStore()
    for seed in (0, 1):
        path = tmp_path / f"c{seed}.wav"
        wavfile.write(path, 16000, _samples(np.int16, 3200, 1, seed))
        _, data = read_wav(path)
        taps = firwin(64 * 3, 1.0 / 3, window=("kaiser", 8.6))
        want = normalize_rms(fit_duration(audio._clip(
            "x", resample_poly(data, 3, 2, window=taps * 3), str(path)), 0.2))
        _same(store.prepared(path, "x", 0.2), want)
    assert len(designs) == 1
    assert not audio._resample_window(3, 2).flags.writeable


def _traced_request(tmp_path, clip_seconds, requests_before):
    """The traced peak of a 10 s request for an int16 clip, after
    ``requests_before`` untraced ones, and the request's sample count."""
    path = tmp_path / "c.wav"
    wavfile.write(path, SAMPLE_RATE,
                  _samples(np.int16, round(clip_seconds * SAMPLE_RATE), 1, 0))
    store = ClipStore()
    for _ in range(requests_before):
        store.prepared(path, "x", 10.0)
    tracemalloc.start()
    try:
        clip = store.prepared(path, "x", 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(clip.samples)
    assert n == 10 * SAMPLE_RATE
    return peak, n


@pytest.mark.parametrize("clip_seconds", [12.0, 6.0])  # trimmed, padded
def test_a_second_request_allocates_one_clip(tmp_path, clip_seconds):
    peak, n = _traced_request(tmp_path, clip_seconds, 1)
    assert peak <= 8 * n + 64 * 1024, peak


@pytest.mark.parametrize("clip_seconds", [12.0, 8.0])  # trimmed, padded
def test_a_first_request_allocates_one_clip_and_its_square(tmp_path,
                                                           clip_seconds):
    """A miss fits and normalizes the clip in the array it returns; the
    RMS adds one square of that array."""
    peak, n = _traced_request(tmp_path, clip_seconds, 0)
    assert peak <= 2 * 8 * n + 64 * 1024, peak


def test_a_rewritten_clip_is_read_again(tmp_path):
    path = tmp_path / "c.wav"
    store = ClipStore()

    def check():
        _same(store.prepared(path, "x", 0.1),
              prepare_clip(path, 0.1))

    wavfile.write(path, SAMPLE_RATE, _samples(np.int16, 2400, 1, 0))
    check()
    stat = os.stat(path)
    # the same size with a new mtime, then a new size with the old mtime
    wavfile.write(path, SAMPLE_RATE, _samples(np.int16, 2400, 1, 1))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))
    check()
    wavfile.write(path, SAMPLE_RATE, _samples(np.int16, 3000, 1, 2))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    check()


def test_a_pickled_task_does_not_carry_the_store(catalog_root):
    cat = build_catalog(catalog_root)
    config = PipelineConfig(record_count=1, output_dir="out")
    size = len(pickle.dumps((cat, config, 0)))
    for seed in range(8):
        sample_scene(cat, random.Random(seed), duration_seconds=1.0)
    assert cat._store.nbytes > 0
    assert len(pickle.dumps((cat, config, 0))) == size
    copy = pickle.loads(pickle.dumps(cat))
    assert copy.entries == cat.entries and copy._store.nbytes == 0


def test_a_run_frees_its_store_and_leaves_the_callers(catalog_root, tmp_path,
                                                      monkeypatch):
    cat = build_catalog(catalog_root)
    sample_scene(cat, random.Random(0), duration_seconds=1.0)
    before = (cat._store.nbytes, dict(cat._store._factors))
    seen = []
    sample = pl.sample_scene

    def recording(catalog, *args):
        seen.append(weakref.ref(catalog))
        return sample(catalog, *args)

    monkeypatch.setattr(pl, "sample_scene", recording)
    run_pipeline(PipelineConfig(record_count=2, output_dir=str(tmp_path),
                                duration_seconds=1.0), catalog=cat)
    gc.collect()
    assert len(seen) == 2 and all(ref() is None for ref in seen)
    assert (cat._store.nbytes, cat._store._factors) == before


def _synth(catalog, out):
    run_pipeline(PipelineConfig(record_count=3, output_dir=str(out), seed=42,
                                duration_seconds=2.0), catalog=catalog)
    return canonical_manifest_bytes(out / MANIFEST_NAME), {
        wav.name: wav.read_bytes() for wav in (out / "audio").iterdir()}


def test_a_store_bound_of_zero_stores_nothing_and_changes_nothing(
        catalog_root, tmp_path, monkeypatch):
    stored = _synth(build_catalog(catalog_root), tmp_path / "stored")
    monkeypatch.setattr(audio, "_STORE_BYTES", 0)
    cat = build_catalog(catalog_root)
    for seed in range(4):
        sample_scene(cat, random.Random(seed), duration_seconds=2.0)
    assert (cat._store.nbytes, cat._store._pcm, cat._store._factors) == (
        0, {}, {})
    assert _synth(cat, tmp_path / "unstored") == stored
