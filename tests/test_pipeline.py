import json

import numpy as np
import pytest

from stereoedit.audio import SAMPLE_RATE, read_wav
from stereoedit.errors import (FailureBudgetExceeded, OutputDirNotWritable,
                               ValidationFailed)
from stereoedit.pipeline import (MANIFEST_NAME, SINGLE_STEP_MANIFEST_NAME,
                                 PipelineConfig, build_trajectory,
                                 canonical_manifest_bytes, derive_record_seed,
                                 expand_single_step,
                                 read_manifest, run_pipeline, sample_scene,
                                 scene_from_json, scene_to_json,
                                 synthesize_record)
import random


def test_derive_record_seed_stable_and_distinct():
    assert derive_record_seed(0, 0) == derive_record_seed(0, 0)
    seeds = {derive_record_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_record_seed(7, 0) != derive_record_seed(8, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(record_count=1, output_dir="x", k_min=4, k_max=3)
    cfg = PipelineConfig(record_count=250, output_dir="x")
    assert cfg.effective_failure_budget == 3  # ceil(1%)
    assert PipelineConfig(record_count=10, output_dir="x",
                          failure_budget=7).effective_failure_budget == 7


def test_config_from_dict():
    cfg = PipelineConfig.from_dict({
        "record_count": 5, "output_dir": "o", "seed": 3,
        "designer": {"mode": "template"}})
    assert cfg.record_count == 5 and cfg.seed == 3


def test_sample_scene_properties(catalog):
    for seed in range(20):
        scene = sample_scene(catalog, random.Random(seed))
        assert 2 <= len(scene.events) <= 5
        labels = [e.label for e in scene.events]
        assert len(set(labels)) == len(labels)
        for e in scene.events:
            assert -6.0 <= e.gain_db <= 0.0
            assert len(e.clip.samples) == 240000


def test_scene_json_roundtrip(catalog):
    scene = sample_scene(catalog, random.Random(5))
    data = scene_to_json(scene)
    back = scene_from_json(json.loads(json.dumps(data)))
    assert len(back.events) == len(scene.events)
    for a, b in zip(scene.events, back.events):
        assert (a.event_id, a.label, a.direction, a.gain_db) == \
            (b.event_id, b.label, b.direction, b.gain_db)
        np.testing.assert_array_equal(a.clip.samples, b.clip.samples)


def test_build_trajectory_deterministic(catalog, tmp_path):
    cfg = PipelineConfig(record_count=1, output_dir=str(tmp_path), seed=11)
    s1, p1, t1, ids1 = build_trajectory(catalog, cfg, 3)
    s2, p2, t2, ids2 = build_trajectory(catalog, cfg, 3)
    assert p1 == p2 and ids1 == ids2
    for (_, a1), (_, a2) in zip(t1, t2):
        np.testing.assert_array_equal(a1.samples, a2.samples)


def test_synthesize_record_files_and_row(catalog, tmp_path):
    cfg = PipelineConfig(record_count=1, output_dir=str(tmp_path), seed=2)
    row = synthesize_record(catalog, cfg, 0)
    assert row["record_id"] == "rec000000"
    assert len(row["audio_paths"]) == len(row["plan"]["atomic editing steps"]) + 1
    for rel in row["audio_paths"]:
        rate, data = read_wav(tmp_path / rel)
        assert rate == SAMPLE_RATE
        assert data.shape == (240000, 2)
    assert all(f <= 1.0 for f in row["peak_factors"])


def test_run_pipeline_manifest(catalog, tmp_path):
    cfg = PipelineConfig(record_count=4, output_dir=str(tmp_path), seed=3,
                         single_step_expansion=True)
    stats = run_pipeline(cfg, catalog=catalog)
    assert stats.succeeded == 4
    rows = read_manifest(tmp_path / MANIFEST_NAME)
    assert [r["record_id"] for r in rows] == [f"rec{i:06d}" for i in range(4)]
    singles = read_manifest(tmp_path / SINGLE_STEP_MANIFEST_NAME)
    assert len(singles) == sum(len(r["per_step_meta"]) for r in rows)
    first = singles[0]
    assert first["audio_before"] != first["audio_after"]


def test_run_pipeline_unwritable_dir(catalog, tmp_path):
    # output_dir nested under a regular file can never be created
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = PipelineConfig(record_count=1, output_dir=str(blocker / "out"),
                         seed=0)
    with pytest.raises(OutputDirNotWritable):
        run_pipeline(cfg, catalog=catalog)


def test_run_pipeline_tops_up_after_failures(catalog, tmp_path, monkeypatch):
    # make every third record fail; the pipeline must still deliver the count
    import stereoedit.pipeline as pl

    original = pl.build_trajectory

    def flaky(cat, cfg, index):
        if index % 3 == 2:
            raise ValidationFailed(f"synthetic failure at {index}")
        return original(cat, cfg, index)

    monkeypatch.setattr(pl, "build_trajectory", flaky)
    cfg = PipelineConfig(record_count=4, output_dir=str(tmp_path), seed=5,
                         failure_budget=10)
    stats = run_pipeline(cfg, catalog=catalog)
    assert stats.succeeded == 4
    assert stats.failed >= 1
    rows = read_manifest(tmp_path / MANIFEST_NAME)
    assert all(r["index"] % 3 != 2 for r in rows)


def test_run_pipeline_failure_budget(catalog, tmp_path, monkeypatch):
    import stereoedit.pipeline as pl

    def always_fail(cat, cfg, index):
        raise ValidationFailed("nope")

    monkeypatch.setattr(pl, "build_trajectory", always_fail)
    cfg = PipelineConfig(record_count=5, output_dir=str(tmp_path), seed=0,
                         failure_budget=2)
    with pytest.raises(FailureBudgetExceeded):
        run_pipeline(cfg, catalog=catalog)


def test_run_pipeline_programming_error_is_not_budgeted(catalog, tmp_path,
                                                        monkeypatch):
    import stereoedit.pipeline as pl

    def broken(cat, cfg, index):
        raise RuntimeError("bug")

    monkeypatch.setattr(pl, "build_trajectory", broken)
    cfg = PipelineConfig(record_count=2, output_dir=str(tmp_path), seed=0,
                         failure_budget=10)
    with pytest.raises(RuntimeError, match="bug"):
        run_pipeline(cfg, catalog=catalog)
    assert not (tmp_path / MANIFEST_NAME).exists()


def test_canonical_manifest_ignores_timestamp(catalog, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_pipeline(PipelineConfig(record_count=2, output_dir=str(out),
                                    seed=9), catalog=catalog)
    assert canonical_manifest_bytes(a / MANIFEST_NAME) == \
        canonical_manifest_bytes(b / MANIFEST_NAME)


# Template run_pipeline on the demo catalog (seed 0), synth seed 42, 6 records.
# Pinned so that any change to RNG draw order, step semantics, clip ingest,
# rendering, export or manifest layout shows up as a different digest.
GOLDEN_DIGEST_6 = \
    "c55e0cf9814bdc4b5db4b3b29512d78b93c842012a7c69dd238a758bad5499b6"


def test_run_pipeline_golden_digest(catalog, catalog_root, tmp_path):
    import hashlib

    run_pipeline(PipelineConfig(record_count=6, output_dir=str(tmp_path),
                                seed=42), catalog=catalog)
    manifest = canonical_manifest_bytes(tmp_path / MANIFEST_NAME)
    root = json.dumps(str(catalog_root))[1:-1].encode()
    h = hashlib.sha256(manifest.replace(root, b"<catalog>"))
    for wav in sorted((tmp_path / "audio").glob("*.wav")):
        h.update(wav.name.encode())
        h.update(wav.read_bytes())
    steps = {meta["step"].split(" the sound")[0]
             for row in read_manifest(tmp_path / MANIFEST_NAME)
             for meta in row["per_step_meta"]}
    assert {"Remove", "Turn up", "Turn down", "Change", "Add"} <= steps
    assert h.hexdigest() == GOLDEN_DIGEST_6


def test_manifest_write_is_atomic(catalog, tmp_path, monkeypatch):
    import stereoedit.pipeline as pl

    cfg = PipelineConfig(record_count=2, output_dir=str(tmp_path), seed=3,
                         single_step_expansion=True)
    run_pipeline(cfg, catalog=catalog)
    manifest = tmp_path / MANIFEST_NAME
    singles = tmp_path / SINGLE_STEP_MANIFEST_NAME
    before = manifest.read_bytes(), singles.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())

    # the second row cannot be serialized, so the rewrite fails after the
    # first line has gone out
    original = pl.synthesize_record

    def poisoned(cat, config, index):
        row = original(cat, config, index)
        if index == 1:
            row["unserializable"] = object()
        return row

    monkeypatch.setattr(pl, "synthesize_record", poisoned)
    with pytest.raises(TypeError):
        run_pipeline(cfg, catalog=catalog)
    rows = read_manifest(manifest)
    with pytest.raises(KeyError):  # the second record has no step list
        expand_single_step([rows[0], {"record_id": "rec000001"}], singles)

    assert (manifest.read_bytes(), singles.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names
