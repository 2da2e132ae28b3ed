"""The clip store: exact, one allocation per hit, and scoped to its catalog."""

import gc
import os
import pickle
import random
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import stereoedit.audio as audio
import stereoedit.pipeline as pl
from stereoedit.audio import (SAMPLE_RATE, ClipStore, fit_duration, load_clip,
                              normalize_rms, read_wav)
from stereoedit.catalog import build_catalog
from stereoedit.errors import SilentClip, StereoEditError
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
        for duration in [*durations, *durations]:  # a first and second request
            want = prepare_clip(path, duration)
            _same(store.prepared(path, "x", duration), want)
            _same(store.prepared(str(path), "x", duration), want)


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


@pytest.mark.parametrize("path", [None, 1.5, ["a"], "a\0b"])
def test_store_raises_what_load_clip_raises_on_a_bad_path(path):
    # a scene file can give any JSON value as a clip path
    with pytest.raises(StereoEditError) as want:
        load_clip(path, "x")
    with pytest.raises(type(want.value)) as got:
        ClipStore().prepared(path, "x", 0.1)
    assert str(got.value) == str(want.value)


def test_store_raises_on_a_silent_clip_every_time(tmp_path):
    path = tmp_path / "quiet.wav"
    wavfile.write(path, SAMPLE_RATE, np.zeros(2400, dtype=np.int16))
    store = ClipStore()
    for _ in range(2):
        with pytest.raises(SilentClip, match="all-zero clip: 'x'"):
            store.prepared(path, "x", 0.1)


@pytest.mark.parametrize("clip_seconds", [12.0, 6.0])  # trimmed, padded
def test_a_second_request_allocates_one_clip(tmp_path, clip_seconds):
    path = tmp_path / "c.wav"
    wavfile.write(path, SAMPLE_RATE,
                  _samples(np.int16, round(clip_seconds * SAMPLE_RATE), 1, 0))
    store = ClipStore()
    store.prepared(path, "x", 10.0)
    tracemalloc.start()
    try:
        clip = store.prepared(path, "x", 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(clip.samples)
    assert n == 10 * SAMPLE_RATE
    assert peak <= 8 * n + 64 * 1024, peak


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
