import json
import math
import os
import re
import shutil
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import stereoedit.audio as audio
from stereoedit.audio import SAMPLE_RATE, read_wav
from stereoedit.catalog import build_catalog
from stereoedit.designer import DesignerConfig, DesignerMode
from stereoedit.errors import (FailureBudgetExceeded, OutputDirNotWritable,
                               ValidationFailed)
from stereoedit.pipeline import (MANIFEST_NAME, SINGLE_STEP_MANIFEST_NAME,
                                 PipelineConfig, build_trajectory,
                                 canonical_manifest_bytes, derive_record_seed,
                                 expand_single_step, process_map,
                                 read_manifest, run_pipeline, sample_scene,
                                 scene_from_json, scene_to_json,
                                 synthesize_record)
from stereoedit.spatial import render_scene
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


def test_scene_from_json_decodes_a_repeated_clip_once(catalog, monkeypatch):
    data = scene_to_json(sample_scene(catalog, random.Random(5), 2, 2, 1.0))
    first = data["events"][0]
    data["events"].append({**first, "event_id": "e9", "label": "again",
                           "direction": "left", "gain_db": -3.0})
    decoded = []
    read_pcm = audio._read_pcm
    monkeypatch.setattr(audio, "_read_pcm",
                        lambda path: decoded.append(path) or read_pcm(path))
    scene = scene_from_json(data)
    assert sorted(decoded) == sorted({e["clip_path"] for e in data["events"]})
    assert len(decoded) == 2
    again = scene.events[2].clip
    assert (again.label, again.origin_path) == ("again", first["clip_path"])
    assert again.samples.tobytes() == scene.events[0].clip.samples.tobytes()


def test_build_trajectory_deterministic(catalog, tmp_path):
    cfg = PipelineConfig(record_count=1, output_dir=str(tmp_path), seed=11)
    s1, p1, t1, ids1 = build_trajectory(catalog, cfg, 3)
    s2, p2, t2, ids2 = build_trajectory(catalog, cfg, 3)
    assert p1 == p2 and ids1 == ids2
    assert len(t1) == len(t2)
    for stage1, stage2 in zip(t1, t2):
        np.testing.assert_array_equal(render_scene(stage1).samples,
                                      render_scene(stage2).samples)


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


def test_reused_buffers_leak_nothing_between_records(catalog, tmp_path):
    """Records written one after another, at scene lengths 4, 10 and 4 s,
    match records written by fresh threads, whose buffers are all new."""
    runs = (("a", 4.0), ("b", 10.0), ("c", 4.0))

    def synthesize(name, seconds):
        config = PipelineConfig(record_count=1, seed=0,
                                output_dir=str(tmp_path / name),
                                duration_seconds=seconds)
        return synthesize_record(catalog, config, 0)

    for name, seconds in runs:
        factors = synthesize(name, seconds)["peak_factors"]
        # a peak-normalized stage, then one exported as rendered
        assert factors[0] < 1.0 and factors[1] == 1.0
    for name, seconds in runs:
        fresh = threading.Thread(target=synthesize,
                                 args=(f"{name}_fresh", seconds))
        fresh.start()
        fresh.join(timeout=60)
        assert not fresh.is_alive()
        wavs = sorted((tmp_path / name / "audio").iterdir())
        assert [w.name for w in wavs] == sorted(
            w.name for w in (tmp_path / f"{name}_fresh" / "audio").iterdir())
        for wav in wavs:
            assert wav.read_bytes() == (
                tmp_path / f"{name}_fresh" / "audio" / wav.name).read_bytes()


def test_warm_record_allocates_little_beyond_its_clips(catalog, tmp_path):
    """Once this thread's buffers exist, a record holds its clips, one
    clip's ingest and no per-stage audio."""
    config = PipelineConfig(record_count=1, output_dir=str(tmp_path), seed=0)
    synthesize_record(catalog, config, 0)
    for index in range(1, 5):
        _, _, stages, _ = build_trajectory(catalog, config, index)
        clips = len({id(e.clip) for stage in stages for e in stage.events})
        clip_bytes = stages[0].num_samples * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            synthesize_record(catalog, config, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (clips + 3) * clip_bytes, (index, clips, peak)


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


def _check_failure_budget(catalog, tmp_path, monkeypatch, workers):
    import stereoedit.pipeline as pl

    def always_fail(cat, cfg, index):
        raise ValidationFailed("nope")

    monkeypatch.setattr(pl, "build_trajectory", always_fail)
    cfg = PipelineConfig(record_count=5, output_dir=str(tmp_path), seed=0,
                         failure_budget=2, worker_count=workers)
    with pytest.raises(FailureBudgetExceeded, match="3 failures exceed "
                       "budget 2; last: record 2: ValidationFailed: nope"):
        run_pipeline(cfg, catalog=catalog)


def test_run_pipeline_failure_budget(catalog, tmp_path, monkeypatch):
    _check_failure_budget(catalog, tmp_path, monkeypatch, 1)


def test_run_pipeline_failure_budget_at_2_workers(catalog, tmp_path,
                                                  monkeypatch):
    _check_failure_budget(catalog, tmp_path, monkeypatch, 2)


def _check_programming_error(catalog, tmp_path, monkeypatch, workers):
    """Indices 1 and 2 raise. At 2 workers they fall in different shares,
    and index 2's, the first item of its share, can fail first; index 1's
    error must still be the one raised."""
    import stereoedit.pipeline as pl

    original = pl.build_trajectory

    def broken(cat, cfg, index):
        if index in (1, 2):
            raise RuntimeError(f"bug at {index}")
        return original(cat, cfg, index)

    monkeypatch.setattr(pl, "build_trajectory", broken)
    cfg = PipelineConfig(record_count=4, output_dir=str(tmp_path), seed=0,
                         duration_seconds=1.0, failure_budget=10,
                         worker_count=workers)
    with pytest.raises(RuntimeError, match="^bug at 1$"):
        run_pipeline(cfg, catalog=catalog)
    assert not (tmp_path / MANIFEST_NAME).exists()


def test_run_pipeline_programming_error_is_not_budgeted(catalog, tmp_path,
                                                        monkeypatch):
    _check_programming_error(catalog, tmp_path, monkeypatch, 1)


def test_run_pipeline_raises_the_first_programming_error_across_shares(
        catalog, tmp_path, monkeypatch):
    _check_programming_error(catalog, tmp_path, monkeypatch, 2)


def test_run_pipeline_budgets_a_clip_whose_downmix_overflows(catalog_root,
                                                             tmp_path):
    root = shutil.copytree(catalog_root, tmp_path / "catalog")
    for path in (root / "bell_ring").iterdir():  # finite, but not its mean
        wavfile.write(path, SAMPLE_RATE, np.full((2400, 2), 1.7e308))
    cfg = PipelineConfig(record_count=10, output_dir=str(tmp_path / "out"),
                         seed=0, duration_seconds=1.0, failure_budget=20)
    stats = run_pipeline(cfg, catalog=build_catalog(root))
    assert stats.succeeded == 10 and stats.failed >= 1
    pattern = r"UnsupportedFormat: .*bell_ring/clip_\d\.wav: samples must be finite"
    assert all(re.fullmatch(pattern, text) for _, text in stats.failures)


def test_run_pipeline_budgets_a_clip_whose_rms_overflows(catalog_root,
                                                         tmp_path):
    root = shutil.copytree(catalog_root, tmp_path / "catalog")
    for path in (root / "bell_ring").iterdir():  # finite, but not its squares
        wavfile.write(path, SAMPLE_RATE, np.sin(np.arange(2400) / 7.0) * 1e200)
    cfg = PipelineConfig(record_count=10, output_dir=str(tmp_path / "out"),
                         seed=0, duration_seconds=1.0, failure_budget=20)
    stats = run_pipeline(cfg, catalog=build_catalog(root))
    assert stats.succeeded == 10 and stats.failed >= 1
    pattern = r"UnsupportedFormat: .*bell_ring/clip_\d\.wav: RMS overflows float64"
    assert all(re.fullmatch(pattern, text) for _, text in stats.failures)


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


def _check_golden_digest(catalog, catalog_root, tmp_path, workers):
    import hashlib

    run_pipeline(PipelineConfig(record_count=6, output_dir=str(tmp_path),
                                seed=42, worker_count=workers),
                 catalog=catalog)
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


def test_run_pipeline_golden_digest(catalog, catalog_root, tmp_path):
    _check_golden_digest(catalog, catalog_root, tmp_path, 1)


@pytest.mark.parametrize("workers", [2, 4])  # 4: three shares of 2, one idle
def test_run_pipeline_golden_digest_at_more_workers(catalog, catalog_root,
                                                    tmp_path, workers):
    _check_golden_digest(catalog, catalog_root, tmp_path, workers)


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


def _every_third_fails(monkeypatch):
    import stereoedit.pipeline as pl

    original = pl.build_trajectory

    def flaky(cat, cfg, index):
        if index % 3 == 2:
            raise ValidationFailed(f"synthetic failure at {index}")
        return original(cat, cfg, index)

    monkeypatch.setattr(pl, "build_trajectory", flaky)


def test_run_pipeline_top_up_is_the_same_at_any_worker_count(
        catalog, tmp_path, monkeypatch):
    _every_third_fails(monkeypatch)
    manifests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        stats = run_pipeline(PipelineConfig(
            record_count=5, output_dir=str(out), seed=5, failure_budget=10,
            worker_count=workers), catalog=catalog)
        assert [index for index, _ in stats.failures] == [2, 5]
        manifests.append(canonical_manifest_bytes(out / MANIFEST_NAME))
    assert manifests[0] == manifests[1]


def _fake_records(monkeypatch, failing):
    """Replace synthesize_record: a one-key row, or a data failure for each
    index in ``failing``. Forked workers inherit the replacement."""
    import stereoedit.pipeline as pl

    def fake(cat, cfg, index):
        if index in failing:
            raise ValidationFailed(f"synthetic failure at {index}")
        return {"index": index}

    monkeypatch.setattr(pl, "synthesize_record", fake)


@pytest.mark.parametrize("workers,pools", [(1, 0), (2, 1)])
def test_run_pipeline_opens_at_most_one_pool(tmp_path, monkeypatch,
                                             opened_pools, workers, pools):
    _fake_records(monkeypatch, {1, 3, 4})  # three top-up rounds
    stats = run_pipeline(PipelineConfig(
        record_count=3, output_dir=str(tmp_path), failure_budget=3,
        worker_count=workers), catalog=object())
    assert [row["index"] for row in read_manifest(tmp_path / MANIFEST_NAME)] \
        == [0, 2, 5]
    assert stats.failed == 3
    assert len(opened_pools) == pools


def _slow_pid(_item):
    time.sleep(0.02)  # long enough for every worker to start on an item
    return os.getpid()


@pytest.mark.parametrize("width", [2, 3])
def test_process_map_runs_each_contiguous_share_in_one_process(opened_pools,
                                                               width):
    """Of 7 items, each run of ceil(7 / width) goes to one worker as one
    task, on every call in the block."""
    share = math.ceil(7 / width)
    with process_map(width) as run:
        calls = [list(run(_slow_pid, range(7))) for _ in range(2)]
    for pids in calls:
        assert os.getpid() not in pids
        for start in range(0, 7, share):
            assert len(set(pids[start:start + share])) == 1, pids
    assert len(opened_pools) == 1


def test_a_worker_decodes_each_clip_once_per_round(catalog, tmp_path,
                                                   monkeypatch):
    """Forked workers inherit the logging decoder; a worker's one task
    carries one catalog, whose store serves all of its records."""
    log_path = tmp_path / "decodes.txt"
    decode = audio._decode_clip

    def logged(path):
        with open(log_path, "a") as fh:
            fh.write(f"{os.getpid()} {path}\n")
        return decode(path)

    monkeypatch.setattr(audio, "_decode_clip", logged)
    stats = run_pipeline(PipelineConfig(
        record_count=12, output_dir=str(tmp_path / "out"),
        duration_seconds=2.0, worker_count=2), catalog=catalog)
    assert stats.failed == 0
    decodes = log_path.read_text().splitlines()
    assert decodes
    assert str(os.getpid()) not in {line.split()[0] for line in decodes}
    assert len(set(decodes)) == len(decodes)


@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=25)
@given(record_count=st.integers(1, 6),
       failing=st.frozensets(st.integers(0, 12), max_size=8))
def test_run_pipeline_rows_are_the_first_good_indices(workers, record_count,
                                                      failing):
    good = [i for i in range(record_count + len(failing)) if i not in failing]
    expected = good[:record_count]
    expected_failures = sorted(i for i in failing if i < expected[-1])
    with pytest.MonkeyPatch.context() as monkeypatch, \
            tempfile.TemporaryDirectory() as out:
        _fake_records(monkeypatch, failing)
        stats = run_pipeline(PipelineConfig(
            record_count=record_count, output_dir=out,
            failure_budget=len(expected_failures), worker_count=workers),
            catalog=object())
        rows = read_manifest(Path(out) / MANIFEST_NAME)
    assert [row["index"] for row in rows] == expected
    assert [index for index, _ in stats.failures] == expected_failures


def test_run_pipeline_llm_designer(catalog, tmp_path, monkeypatch):
    import stereoedit.designer as designer

    asked = []

    def transport(payload):
        text = payload["messages"][1]["content"]
        labels = json.loads(text.splitlines()[1])[0]  # a batch of one scene
        asked.append(labels)
        # the first scene always gets a plan that removes every source
        targets = labels if labels == asked[0] else labels[:1]
        return json.dumps({
            "sound sources": labels,
            "complex editing instruction": "Make this sound like a fake",
            "atomic editing steps": [
                {"operation": "remove", "target": t, "effect": "None"}
                for t in targets]})

    monkeypatch.setattr(designer, "_default_transport",
                        lambda config: transport)
    stats = run_pipeline(PipelineConfig(
        record_count=2, output_dir=str(tmp_path), seed=1, failure_budget=1,
        designer=DesignerConfig(mode=DesignerMode.LLM,
                                endpoint_url="http://localhost/fake",
                                max_retries=2)), catalog=catalog)
    assert [index for index, _ in stats.failures] == [0]
    assert stats.failures[0][1].startswith("ValidationFailed")
    assert asked.count(asked[0]) == 3  # first request and two retries
    rows = read_manifest(tmp_path / MANIFEST_NAME)
    assert [row["index"] for row in rows] == [1, 2]
    assert {row["instruction"] for row in rows} == {"Make this sound like a fake"}
    assert all(len(row["audio_paths"]) == 2 for row in rows)
