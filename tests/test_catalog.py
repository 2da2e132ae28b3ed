import json
import random

import numpy as np
import pytest
from scipy.io import wavfile

from stereoedit.audio import SAMPLE_RATE
from stereoedit.catalog import (build_catalog, resolve_label, retrieve_clip,
                                token_jaccard)
from stereoedit.errors import CatalogMiss, EmptyCatalog


def _write_clip(path, seed=0, n=2400):
    rng = np.random.default_rng(seed)
    wavfile.write(str(path), SAMPLE_RATE,
                  (rng.uniform(-0.5, 0.5, n) * 32767).astype(np.int16))


def test_build_from_directories(tmp_path):
    for label in ("dog_bark", "bell-ring"):
        d = tmp_path / label
        d.mkdir()
        _write_clip(d / "c0.wav")
        _write_clip(d / "c1.wav", seed=1)
    cat = build_catalog(tmp_path)
    assert cat.labels == ["bell ring", "dog bark"]
    assert len(cat) == 4


def test_sidecar_overrides(tmp_path):
    d = tmp_path / "misc"
    d.mkdir()
    _write_clip(d / "c0.wav")
    (tmp_path / "index.jsonl").write_text(
        json.dumps({"path": "misc/c0.wav", "label": "Train Horn"}) + "\n")
    cat = build_catalog(tmp_path)
    assert cat.labels == ["train horn"]


def test_sidecar_bad_line_skipped(tmp_path, caplog):
    d = tmp_path / "rain"
    d.mkdir()
    _write_clip(d / "c0.wav")
    (tmp_path / "index.jsonl").write_text("{bad json\n")
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.labels == ["rain"]
    assert any("skipped" in r.message for r in caplog.records)


def test_non_audio_files_ignored(tmp_path):
    d = tmp_path / "rain"
    d.mkdir()
    _write_clip(d / "c0.wav")
    (d / "notes.txt").write_text("hello")
    cat = build_catalog(tmp_path)
    assert len(cat) == 1


def test_empty_catalog_raises(tmp_path):
    with pytest.raises(EmptyCatalog):
        build_catalog(tmp_path)
    with pytest.raises(EmptyCatalog):
        build_catalog(tmp_path / "missing")


def test_token_jaccard():
    assert token_jaccard("dog bark", "dog bark") == 1.0
    assert token_jaccard("rooster crowing", "rooster crow") == 1.0  # stemmed
    assert token_jaccard("dog bark", "cat meow") == 0.0


def test_resolve_label_exact_and_fuzzy(tmp_path):
    for label in ("dog_bark", "rooster_crow"):
        d = tmp_path / label
        d.mkdir()
        _write_clip(d / "c0.wav")
    cat = build_catalog(tmp_path)
    assert resolve_label(cat, "Dog  Bark") == "dog bark"
    assert resolve_label(cat, "rooster crowing") == "rooster crow"
    with pytest.raises(CatalogMiss):
        resolve_label(cat, "whale song")


def test_retrieve_clip_deterministic(catalog):
    a = retrieve_clip(catalog, "dog bark", random.Random(7), 4.0)
    b = retrieve_clip(catalog, "dog bark", random.Random(7), 4.0)
    assert a.origin_path == b.origin_path
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.label == "dog bark"


def test_sidecar_undecodable_or_too_deep_lines_skipped(tmp_path, caplog):
    d = tmp_path / "misc"
    d.mkdir()
    _write_clip(d / "c0.wav")
    _write_clip(d / "c1.wav", seed=1)
    (tmp_path / "index.jsonl").write_bytes(
        b"\xff\xfe not UTF-8\n" + b"[" * 100_000 + b"\n"
        + json.dumps({"path": "misc/c0.wav", "label": 5}).encode() + b"\n"
        + json.dumps({"path": "misc/c1.wav", "label": "Train Horn"}).encode())
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.entries == {"misc": (str(d / "c0.wav"),),
                           "train horn": (str(d / "c1.wav"),)}
    messages = "\n".join(r.message for r in caplog.records)
    assert all(f"line {n} skipped" in messages for n in (1, 2, 3))
