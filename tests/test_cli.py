import errno
import hashlib
import json
import logging
import math
import random
import shutil
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from stereoedit import cli
from stereoedit.audio import (AudioBuffer, fit_duration, load_clip,
                              normalize_rms, read_stereo, read_wav, write_wav)
from stereoedit.catalog import build_catalog
from stereoedit.cli import main
from stereoedit.errors import StereoEditError
from stereoedit.pipeline import (MANIFEST_NAME, PipelineConfig, read_manifest,
                                 run_pipeline, sample_scene, scene_from_json,
                                 scene_to_json)
from stereoedit.spatial import render_scene


@pytest.fixture
def scene_file(catalog, tmp_path):
    scene = sample_scene(catalog, random.Random(1), k_min=2, k_max=3)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_to_json(scene)))
    return path


def test_render(scene_file, tmp_path, capsys):
    out = tmp_path / "out.wav"
    assert main(["render", str(scene_file), str(out)]) == 0
    rate, data = read_wav(out)
    assert data.shape == (240000, 2)
    assert "wrote" in capsys.readouterr().out


def test_render_bad_scene_json(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text("{broken")
    assert main(["render", str(bad), str(tmp_path / "o.wav")]) == 2
    assert "error" in capsys.readouterr().err


def test_render_missing_scene(tmp_path):
    assert main(["render", str(tmp_path / "no.json"),
                 str(tmp_path / "o.wav")]) == 3


def test_parse_template_plan(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("Remove the sound of rain\n"
                    "Add the sound of wind at left with 2 db\n")
    assert main(["parse", str(plan)]) == 2  # R1: rain not in sound sources
    out = json.loads(capsys.readouterr().out)
    assert out["violations"][0]["rule_id"] == "R1"


def test_parse_json_plan_autodetect(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "sound sources": ["rain", "wind"],
        "complex editing instruction": "calm",
        "atomic editing steps": [
            {"operation": "remove", "target": "rain", "effect": "None"}],
    }))
    assert main(["parse", str(plan)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_valid"]


def test_parse_malformed_plan(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("Wiggle the sound of rain\n")
    assert main(["parse", str(plan)]) == 2
    plan.write_text("Turn up the sound of rain\n")
    assert main(["parse", str(plan)]) == 2
    # the error quotes the shape the step should have had
    assert "expected 'Turn up the sound of <label> by <n> dB'" in \
        capsys.readouterr().err


def test_edit_executes_plan(scene_file, catalog, tmp_path):
    scene = json.loads(scene_file.read_text())
    label = scene["events"][0]["label"]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {label} by 3 dB\n")
    out_dir = tmp_path / "out"
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(out_dir)]) == 0
    run = json.loads((out_dir / "run.json").read_text())
    assert len(run["audio_paths"]) == 2
    assert (out_dir / "a01.wav").exists()


# sha256 of edit's a00-a02 for the plan below; the stages peak at about
# 1.31, 1.32 and 3.00, so these also pin that edit writes raw renders
EDIT_STAGE_DIGESTS = (
    "3800bffeabf6087a204818d4dc0c1a70938442315bd03baa30bc57b25351a2b5",
    "c3315ed9d6322872f441bdcf7ba20f91027f34316eb5575ee46f927e0d68f551",
    "5ac11993dccb42978cdbc7f696a9608e359f0e1dd621b5f682d15b2343a08ab3",
)


def test_edit_stage_bytes_are_pinned(scene_file, catalog_root, tmp_path):
    label = json.loads(scene_file.read_text())["events"][0]["label"]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {label} by 6 dB\n"
                    "Add the sound of owl hoot at left with 3 db\n")
    out_dir = tmp_path / "out"
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(out_dir), "--catalog", str(catalog_root)]) == 0
    assert tuple(
        hashlib.sha256((out_dir / f"a{i:02d}.wav").read_bytes()).hexdigest()
        for i in range(3)) == EDIT_STAGE_DIGESTS
    assert read_stereo(out_dir / "a02.wav").peak() > 2.9


def test_edit_runs_plan_in_canonical_order(scene_file, tmp_path):
    first, second = json.loads(scene_file.read_text())["events"][:2]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {second['label']} by 3 dB\n"
                    f"Remove the sound of {first['label']}\n")
    out_dir = tmp_path / "out"
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(out_dir)]) == 0
    run = json.loads((out_dir / "run.json").read_text())
    assert run["steps"] == [f"Remove the sound of {first['label']}",
                            f"Turn up the sound of {second['label']} by 3 dB"]


def test_edit_rejects_a_qualified_extract_after_a_change(catalog, tmp_path,
                                                         capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_to_json(
        sample_scene(catalog, random.Random(0), 3, 3, 1.0))))
    plan = tmp_path / "plan.txt"
    plan.write_text("Change the sound of rooster crow to left\n"
                    "Extract the sound of rooster crow at left\n")
    assert main(["edit", str(scene), str(plan), str(tmp_path / "out")]) == 2
    assert "R7: step 1 targets 'rooster crow'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_edit_engine_error_exit_code(scene_file, tmp_path):
    plan = tmp_path / "plan.txt"
    # valid against its own declared sources check is skipped: scene labels used
    plan.write_text("Remove the sound of nonexistent label\n")
    code = main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(tmp_path / "out")])
    assert code == 2  # fails validation before the engine runs


def test_seed_drawn_and_printed(scene_file, catalog_root, tmp_path, capsys):
    scene = json.loads(scene_file.read_text())
    label = scene["events"][0]["label"]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn down the sound of {label} by 1 dB\n")
    assert main(["edit", str(scene_file), str(plan),
                 str(tmp_path / "out")]) == 0
    assert "seed:" in capsys.readouterr().out


def test_synth_and_eval(catalog_root, tmp_path, capsys):
    out_dir = tmp_path / "data"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "record_count": 2, "output_dir": str(out_dir), "seed": 4,
        "catalog_root": str(catalog_root)}))
    assert main(["synth", str(cfg)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["succeeded"] == 2

    # evaluating the dataset against itself: metrics must be 0
    csv_path = tmp_path / "eval.csv"
    assert main(["eval", str(out_dir / MANIFEST_NAME), str(out_dir),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "record_id,audio_index,lsd,gcc_mse"
    for line in lines[1:]:
        _, _, lsd_v, gcc_v = line.split(",")
        assert float(lsd_v) == 0.0 and float(gcc_v) == 0.0


def test_synth_config_toml_or_json_error(tmp_path):
    assert main(["synth", str(tmp_path / "missing.json")]) == 3


def test_roundtrip_oracle_cli(scene_file, catalog, catalog_root, tmp_path,
                              capsys):
    wav = tmp_path / "in.wav"
    assert main(["render", str(scene_file), str(wav)]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "drift.csv"
    scene_labels = {e["label"]
                    for e in json.loads(scene_file.read_text())["events"]}
    spare = next(l for l in catalog.labels if l not in scene_labels)
    assert main(["--seed", "3", "roundtrip", f"oracle:{scene_file}",
                 str(wav), spare, "--rounds", "2",
                 "--catalog", str(catalog_root), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "round 1" in out and "round 2" in out
    assert len(csv_path.read_text().splitlines()) == 3


# Scales its input by 1.01, so every round drifts a little further.
_LOSSY_EDITOR = """import sys
from scipy.io import wavfile
rate, data = wavfile.read(sys.argv[1])
wavfile.write(sys.argv[2], rate, data * 1.01)
"""


def test_roundtrip_csv_bytes(scene_file, tmp_path, capsys):
    wav = tmp_path / "in.wav"
    assert main(["render", str(scene_file), str(wav)]) == 0
    capsys.readouterr()
    script = tmp_path / "lossy.py"
    script.write_text(_LOSSY_EDITOR)
    csv_path = tmp_path / "drift.csv"
    assert main(["roundtrip",
                 f"subprocess:{sys.executable} {script} {{input}} {{output}}",
                 str(wav), "ghost", "--rounds", "3", "--csv", str(csv_path),
                 "--work-dir", str(tmp_path / "work")]) == 0
    values = [line.split()[-1]
              for line in capsys.readouterr().out.splitlines()]
    assert len(values) == 3 and values[0] != "0"
    # csv.writer's format: a header, then one CRLF-ended row per round
    assert csv_path.read_bytes() == ("round,lsd\r\n" + "".join(
        f"{i},{v}\r\n" for i, v in enumerate(values, 1))).encode()


def test_config_values_are_option_defaults(scene_file, catalog,
                                           catalog_root, tmp_path, capsys):
    wav = tmp_path / "in.wav"
    assert main(["render", str(scene_file), str(wav)]) == 0
    scene_labels = {e["label"]
                    for e in json.loads(scene_file.read_text())["events"]}
    spare = next(l for l in catalog.labels if l not in scene_labels)
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"rounds": 2, "catalog": str(catalog_root),
                               "seed": 3}))
    argv = ["--config", str(cfg), "roundtrip", f"oracle:{scene_file}",
            str(wav), spare]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("round 2:")
    assert main(argv + ["--rounds", "3"]) == 0  # an explicit flag wins
    assert capsys.readouterr().out.splitlines()[-1].startswith("round 3:")
    cfg.write_text(json.dumps({"rounds": 2.5}))
    with pytest.raises(SystemExit) as exc_info:  # as --rounds 2.5 would
        main(argv)
    assert exc_info.value.code == 2
    assert "invalid int value: '2.5'" in capsys.readouterr().err


def test_roundtrip_unknown_editor(tmp_path, scene_file):
    wav = tmp_path / "in.wav"
    main(["render", str(scene_file), str(wav)])
    assert main(["roundtrip", "magic:x", str(wav), "ghost"]) == 2


def test_demo_catalog_command(tmp_path, capsys):
    assert main(["--seed", "0", "demo-catalog", str(tmp_path / "cat")]) == 0
    assert "20 labels" in capsys.readouterr().out
    build_catalog(tmp_path / "cat")


def test_manifest_hash_command(catalog, tmp_path, capsys):
    run_pipeline(PipelineConfig(record_count=1, output_dir=str(tmp_path),
                                seed=0), catalog=catalog)
    assert main(["manifest-hash", str(tmp_path / MANIFEST_NAME)]) == 0
    digest = capsys.readouterr().out.strip()
    assert len(digest) == 64


def test_json_log_errors(tmp_path, capsys):
    assert main(["--log-level", "json", "render",
                 str(tmp_path / "no.json"), str(tmp_path / "o.wav")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3


def test_json_log_edit_validation_error_is_one_line(scene_file, tmp_path,
                                                   capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("Remove the sound of nonexistent label\n")
    assert main(["--seed", "1", "--log-level", "json", "edit",
                 str(scene_file), str(plan), str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["exit_code"] == 2
    assert err["error"].startswith("R1: ")


def test_config_file_supplies_seed(scene_file, tmp_path, capsys):
    scene = json.loads(scene_file.read_text())
    label = scene["events"][0]["label"]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {label} by 1 dB\n")
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"seed": 99}))
    assert main(["--config", str(cfg), "edit", str(scene_file), str(plan),
                 str(tmp_path / "out")]) == 0
    assert "seed:" not in capsys.readouterr().out  # seed came from config


def test_unknown_config_key_is_warned(tmp_path, caplog):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"log_levl": "json", "seed": 3}))
    assert main(["--config", str(cfg), "parse",
                 str(tmp_path / "missing.txt")]) == 3
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING]
    assert warned == ["config key 'log_levl' names no option of 'parse'; "
                      "ignored"]


def test_config_file_supplies_log_level(tmp_path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"log_level": "json"}))
    assert main(["--config", str(cfg), "parse",
                 str(tmp_path / "missing.txt")]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3


def test_edit_add_without_catalog_is_engine_error(scene_file, tmp_path,
                                                  capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("Add the sound of owl hoot\n")
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(tmp_path / "out")]) == 4
    assert "require a catalog" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,text", [
    ("missing.json", None),
    ("broken.json", "{not json"),
    ("broken.toml", "seed = = 3"),
    ("binary.json", b"\xff\xfe\x00"),
])
def test_unreadable_config_is_io_error(tmp_path, capsys, name, text):
    cfg = tmp_path / name
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    plan = tmp_path / "plan.txt"
    plan.write_text("Remove the sound of rain\n")
    assert main(["--config", str(cfg), "parse", str(plan)]) == 3
    assert main(["synth", str(cfg)]) == 3
    assert capsys.readouterr().err.count("cannot read config") == 2


def test_config_that_is_not_an_object_is_schema_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    plan = tmp_path / "plan.txt"
    plan.write_text("Remove the sound of rain\n")
    assert main(["--config", str(cfg), "parse", str(plan)]) == 2
    assert main(["synth", str(cfg)]) == 2
    assert capsys.readouterr().err.count("config must be an object") == 2


@pytest.fixture(scope="module")
def dataset(catalog, tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    run_pipeline(PipelineConfig(record_count=1, output_dir=str(out), seed=4),
                 catalog=catalog)
    return out


def _blocker(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker


def test_edit_unwritable_out_dir_is_io_error(scene_file, tmp_path, capsys):
    label = json.loads(scene_file.read_text())["events"][0]["label"]
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {label} by 1 dB\n")
    out = _blocker(tmp_path) / "out"
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(out)]) == 3
    assert "error" in capsys.readouterr().err


def test_eval_unwritable_csv_is_io_error(dataset, tmp_path, capsys):
    csv_path = _blocker(tmp_path) / "s.csv"
    assert main(["eval", str(dataset / MANIFEST_NAME), str(dataset),
                 "--csv", str(csv_path)]) == 3
    assert "error" in capsys.readouterr().err


def _candidates(dataset, tmp_path, damage):
    cand = tmp_path / "cand"
    shutil.copytree(dataset / "audio", cand / "audio")
    first = sorted((cand / "audio").iterdir())[0]
    damage(first)
    return cand


def _write_nan_wav(path):
    rate, data = wavfile.read(path)
    data[5, 1] = np.nan
    wavfile.write(path, rate, data)


def test_eval_non_finite_candidate_is_schema_error(dataset, tmp_path, capsys):
    cand = _candidates(dataset, tmp_path, _write_nan_wav)
    assert main(["eval", str(dataset / MANIFEST_NAME), str(cand)]) == 2
    assert "finite" in capsys.readouterr().err


def test_eval_unreadable_candidate_is_io_error(dataset, tmp_path, capsys):
    cand = _candidates(dataset, tmp_path,
                       lambda path: path.write_bytes(b"RIFF\x00\x01"))
    assert main(["eval", str(dataset / MANIFEST_NAME), str(cand)]) == 3
    assert "error" in capsys.readouterr().err


def test_eval_undecodable_manifest_is_schema_error(dataset, tmp_path, capsys):
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text("{broken\n")
    assert main(["eval", str(manifest), str(dataset)]) == 2
    assert "malformed manifest" in capsys.readouterr().err


def test_eval_row_without_audio_paths_is_schema_error(dataset, tmp_path,
                                                      capsys):
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text(json.dumps({"record_id": "r0"}) + "\n")
    assert main(["eval", str(manifest), str(dataset)]) == 2
    assert "audio_paths" in capsys.readouterr().err


def _write_silent_wav(path):
    wavfile.write(path, 24000, np.zeros(2400, dtype=np.float32))


@pytest.fixture(scope="module")
def scored_dataset(catalog, tmp_path_factory):
    """Three 2 s records and their candidates: each stage's gain changed by
    -1 to -5 dB, and every other stage's channels swapped."""
    out = tmp_path_factory.mktemp("scored")
    run_pipeline(PipelineConfig(record_count=3, output_dir=str(out), seed=5,
                                duration_seconds=2.0), catalog=catalog)
    cand = out / "cand"
    for j, rel in enumerate(
            rel for row in read_manifest(out / MANIFEST_NAME)
            for rel in row["audio_paths"]):
        ref = read_stereo(out / rel)
        samples = ref.samples[::-1] if j % 2 else ref.samples
        (cand / rel).parent.mkdir(parents=True, exist_ok=True)
        gain = 10.0 ** (-(1 + j % 5) / 20)
        write_wav(cand / rel, AudioBuffer(samples * gain))
    return out


def _eval(manifest, cand, monkeypatch, width, csv_path=None):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: width)
    args = ["eval", str(manifest), str(cand)]
    return main(args + ["--csv", str(csv_path)] if csv_path else args)


# sha256 of the serial CSV of scored_dataset, before eval ran in a pool
SCORED_DATASET_CSV_SHA256 = ("f001e03951c74ef4e7149463a846a627"
                             "368c830fadbfa8bcaab7f116a4430af7")


def test_eval_csv_bytes_do_not_depend_on_width(scored_dataset, tmp_path,
                                               monkeypatch):
    manifest = scored_dataset / MANIFEST_NAME
    csvs = []
    for width in (1, 2, 3):
        csvs.append(tmp_path / f"w{width}.csv")
        assert _eval(manifest, scored_dataset / "cand", monkeypatch, width,
                     csvs[-1]) == 0
    serial, *pooled = (path.read_bytes() for path in csvs)
    assert pooled == [serial, serial]
    assert len(serial.splitlines()) > 10
    assert hashlib.sha256(serial).hexdigest() == SCORED_DATASET_CSV_SHA256


def _manifest(dataset, pairs):
    """A one-row manifest beside the dataset's audio with its first
    ``pairs`` stages."""
    row = read_manifest(dataset / MANIFEST_NAME)[0]
    row["audio_paths"] = row["audio_paths"][:pairs]
    manifest = dataset / f"first_{pairs}_pairs.jsonl"
    manifest.write_text(json.dumps(row) + "\n" if pairs else "")
    return manifest


@pytest.mark.parametrize("pairs,pools", [(3, 1), (1, 0), (0, 0)])
def test_eval_opens_one_pool_for_two_or_more_pairs(
        dataset, tmp_path, monkeypatch, opened_pools, pairs, pools):
    csv_path = tmp_path / "s.csv"
    assert _eval(_manifest(dataset, pairs), dataset, monkeypatch, 2,
                 csv_path) == 0
    assert len(opened_pools) == pools
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "record_id,audio_index,lsd,gcc_mse"
    assert len(lines) == 1 + pairs


@pytest.mark.parametrize("damage,code,message", [
    ({2: None}, 3, "missing candidate audio for audio/"),
    ({1: _write_silent_wav}, 2, "expected a stereo WAV"),
    ({1: _write_silent_wav, 2: None}, 2, "expected a stereo WAV"),
    ({1: None, 2: _write_silent_wav}, 3, "missing candidate audio for audio/"),
    ({2: None, 3: _write_silent_wav}, 3, "missing candidate audio for audio/"),
])
def test_eval_reports_the_first_failing_pair_at_any_width(
        dataset, tmp_path, monkeypatch, capsys, damage, code, message):
    """``damage`` maps a pair index to how it fails: None deletes its
    candidate, a writer overwrites its reference."""
    refs = tmp_path / "refs"
    shutil.copytree(dataset / "audio", refs / "audio")
    cand = tmp_path / "cand"
    shutil.copytree(dataset / "audio", cand / "audio")
    row = read_manifest(dataset / MANIFEST_NAME)[0]
    assert len(row["audio_paths"]) >= 4
    for index, write in damage.items():
        rel = row["audio_paths"][index]
        if write is None:
            (cand / rel).unlink()
        else:
            write(refs / rel)
    manifest = refs / MANIFEST_NAME
    manifest.write_text(json.dumps(row) + "\n")
    errors = []
    for width in (1, 2, 3):
        assert _eval(manifest, cand, monkeypatch, width) == code
        errors.append(capsys.readouterr().err)
    first_failure = row["audio_paths"][min(damage)]
    assert errors[0] == errors[1] == errors[2]
    assert message in errors[0] and first_failure in errors[0]


def _write_cut_header(path):
    path.write_bytes(b"RIFF\x00\x01")


def _write_text(path):
    path.write_bytes(b"not a wav file at all")


@pytest.mark.parametrize("write_clip,code", [
    (None, 3),               # the clip file is missing
    (_write_silent_wav, 4),  # the clip is all zeros
    (_write_cut_header, 3),
    (_write_text, 2),
])
def test_scene_clip_errors_keep_their_exit_code(scene_file, tmp_path, capsys,
                                                write_clip, code):
    clip = tmp_path / "clip.wav"
    if write_clip:
        write_clip(clip)
    data = json.loads(scene_file.read_text())
    data["events"][0]["clip_path"] = str(clip)
    scene = tmp_path / "clip_scene.json"
    scene.write_text(json.dumps(data))
    with pytest.raises(StereoEditError) as want:  # a fresh decode, fit, RMS
        normalize_rms(fit_duration(load_clip(clip, data["events"][0]["label"]),
                                   data["duration_seconds"]))
    assert main(["render", str(scene), str(tmp_path / "o.wav")]) == code
    assert want.value.exit_code == code
    assert capsys.readouterr().err == f"error: {want.value}\n"


@pytest.mark.parametrize("content", [b"[1]", b'{"events": [1]}', b"\xff\xfe"])
def test_scene_file_that_is_not_a_scene_is_schema_error(tmp_path, capsys,
                                                        content):
    scene = tmp_path / "scene.json"
    scene.write_bytes(content)
    assert main(["render", str(scene), str(tmp_path / "o.wav")]) == 2
    assert "invalid scene description" in capsys.readouterr().err


def test_plan_file_that_is_not_text_is_parse_error(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_bytes(b"\xff\xfeRemove the sound of rain\n")
    assert main(["parse", str(plan)]) == 2


def test_synth_below_a_regular_file_is_io_error(catalog_root, tmp_path,
                                                capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "record_count": 1, "output_dir": str(_blocker(tmp_path) / "out"),
        "catalog_root": str(catalog_root)}))
    assert main(["synth", str(cfg)]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("clip_bytes,code", [
    (b"RIFF\x00\x01", 3),           # a cut-off header: unreadable
    (b"not a wav file at all", 2),  # not a WAV: unsupported format
])
def test_edit_add_with_bad_catalog_clip(scene_file, tmp_path, capsys,
                                        clip_bytes, code):
    clip_dir = tmp_path / "catalog" / "zz clip"
    clip_dir.mkdir(parents=True)
    (clip_dir / "a.wav").write_bytes(clip_bytes)
    plan = tmp_path / "plan.txt"
    plan.write_text("Add the sound of zz clip\n")
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(tmp_path / "out"),
                 "--catalog", str(tmp_path / "catalog")]) == code
    assert "step 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,content", [
    ("manifest-hash", b"{broken\n"),
    ("manifest-hash", b"[1, 2]\n"),
    ("manifest-hash", b"\xff\n"),
    ("manifest-hash", b"[" * 100_000 + b"\n"),
    ("eval", b'{"record_id": "r0", "audio_paths": 5}\n'),
    ("eval", b'{"record_id": "r0", "audio_paths": [5]}\n'),
])
def test_malformed_manifest_is_schema_error(tmp_path, capsys, command,
                                            content):
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_bytes(content)
    extra = [str(tmp_path)] if command == "eval" else []
    assert main([command, str(manifest), *extra]) == 2
    assert "malformed manifest" in capsys.readouterr().err


@pytest.fixture
def deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    return path


def test_deeply_nested_scene_is_schema_error(deep_json, tmp_path, capsys):
    assert main(["render", str(deep_json), str(tmp_path / "o.wav")]) == 2
    assert "invalid scene description" in capsys.readouterr().err


def test_deeply_nested_plan_is_rejected(deep_json):
    assert main(["parse", str(deep_json)]) == 2


def test_deeply_nested_config_is_io_error(deep_json, tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("Remove the sound of rain\n")
    assert main(["--config", str(deep_json), "parse", str(plan)]) == 3
    assert main(["synth", str(deep_json)]) == 3
    assert capsys.readouterr().err.count("cannot read config") == 2


@pytest.mark.parametrize("designer", ["llm", ["template"], 5])
def test_synth_designer_that_is_not_an_object_is_schema_error(
        catalog_root, tmp_path, capsys, designer):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "record_count": 1, "output_dir": str(tmp_path / "out"),
        "catalog_root": str(catalog_root), "designer": designer}))
    assert main(["synth", str(cfg)]) == 2
    assert "invalid pipeline config" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("record_count", "2"), ("record_count", True), ("worker_count", 1.0),
    ("seed", "7"), ("k_min", 2.5), ("k_max", False), ("failure_budget", 0.5),
    ("duration_seconds", "10"), ("duration_seconds", True),
    ("duration_seconds", 0), ("duration_seconds", -1.5),
    ("single_step_expansion", "yes"), ("single_step_expansion", 1),
    ("record_count", -2), ("worker_count", -3), ("worker_count", 0),
    ("failure_budget", -1),
])
def test_synth_config_field_of_wrong_type_is_schema_error(
        tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"record_count": 1,
                               "output_dir": str(tmp_path / "out"),
                               field: value}))
    assert main(["synth", str(cfg)]) == 2
    assert "invalid pipeline config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [("output_dir", 5),
                                         ("catalog_root", 7)])
def test_synth_config_path_of_wrong_type_is_schema_error(
        tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"record_count": 1,
                               "output_dir": str(tmp_path / "out"),
                               field: value}))
    assert main(["synth", str(cfg)]) == 2
    assert "invalid pipeline config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    ("batch_size", "15"), ("batch_size", 0), ("batch_size", True),
    ("max_retries", -1), ("max_retries", 1.5), ("temperature", True),
    ("temperature", "0.7"), ("temperature", math.nan), ("model_name", 5),
    ("endpoint_url", 9), ("api_key_env", None),
])
def test_synth_designer_field_of_wrong_type_is_schema_error(
        tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.setenv("STEREOEDIT_API_KEY", "key")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "record_count": 1, "output_dir": str(tmp_path / "out"),
        "designer": {"mode": "llm", "endpoint_url": "http://127.0.0.1:9",
                     field: value}}))
    assert main(["synth", str(cfg)]) == 2
    assert "invalid pipeline config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    ("duration_seconds", math.inf), ("gain_db", math.inf),
    ("gain_db", math.nan), ("gain_db", 1e308),
])
def test_scene_number_that_is_not_finite_is_schema_error(
        scene_file, tmp_path, capsys, field, value):
    data = json.loads(scene_file.read_text())
    (data["events"][0] if field == "gain_db" else data)[field] = value
    scene_file.write_text(json.dumps(data))  # as Infinity or NaN
    assert main(["render", str(scene_file), str(tmp_path / "o.wav")]) == 2
    assert "invalid scene description" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "edit"])
def test_render_that_overflows_float32_writes_nothing(scene_file, tmp_path,
                                                      capsys, command):
    data = json.loads(scene_file.read_text())
    data["events"][0]["gain_db"] = 1000.0  # finite as a float64 render
    scene_file.write_text(json.dumps(data))
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn down the sound of {data['events'][0]['label']} "
                    "by 1 dB\n")
    args = {"render": ["render", str(scene_file), str(tmp_path / "o.wav")],
            "edit": ["--seed", "1", "edit", str(scene_file), str(plan),
                     str(tmp_path / "out")]}[command]
    assert main(args) == 2
    assert "samples overflow float32" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.wav")) == []
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command", ["render", "edit"])
def test_render_that_overflows_float64_writes_nothing(scene_file, tmp_path,
                                                      capsys, command):
    data = json.loads(scene_file.read_text())
    first = {**data["events"][0], "direction": "front", "gain_db": 0.0}
    peak = render_scene(scene_from_json({**data, "events": [first]})).peak()
    # each copy is finite, at 10 ** 308 times that peak, and their sum is not
    copies = math.floor(float(np.finfo(np.float64).max) / 1e308 / peak) + 1
    data["events"] += [{**first, "event_id": f"x{i}", "label": f"loud {i}",
                        "gain_db": 6160.0} for i in range(copies)]
    scene_file.write_text(json.dumps(data))
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn down the sound of {first['label']} by 1 dB\n")
    args = {"render": ["render", str(scene_file), str(tmp_path / "o.wav")],
            "edit": ["--seed", "1", "edit", str(scene_file), str(plan),
                     str(tmp_path / "out")]}[command]
    assert main(args) == 2
    assert "scene render overflows float64" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.wav")) == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("existing", [False, True])
def test_edit_that_overflows_after_its_first_stage_writes_nothing(
        scene_file, tmp_path, capsys, existing):
    data = json.loads(scene_file.read_text())
    first = data["events"][0]
    # the first event alone peaks at 0.6 of float32's limit, so stage 0
    # exports and the 6 dB turn-up after it overflows
    first["gain_db"] = 0.0
    alone = scene_from_json({**data, "events": [first]})
    peak = render_scene(alone).peak()
    limit = float(np.finfo(np.float32).max)
    first["gain_db"] = 20 * math.log10(0.6 * limit / peak)
    scene_file.write_text(json.dumps(data))
    plan = tmp_path / "plan.txt"
    plan.write_text(f"Turn up the sound of {first['label']} by 6 dB\n")
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("not ours")
    assert main(["--seed", "1", "edit", str(scene_file), str(plan),
                 str(out)]) == 2
    assert "a01.wav: samples overflow float32" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.wav")) == []
    assert ([p.name for p in out.iterdir()] == ["keep.txt"] if existing
            else not out.exists())


@pytest.mark.parametrize("rounds,code", [(-1, 2), (0, 0)])
def test_roundtrip_negative_rounds_is_schema_error(scene_file, tmp_path,
                                                  capsys, rounds, code):
    wav = tmp_path / "in.wav"
    assert main(["render", str(scene_file), str(wav)]) == 0
    assert main(["roundtrip", "subprocess:cp {input} {output}", str(wav),
                 "rain", "--work-dir", str(tmp_path / "w"),
                 "--rounds", str(rounds)]) == code
    assert ("--rounds must be at least 0" in capsys.readouterr().err) == (
        code == 2)


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "0"])
def test_roundtrip_timeout_must_be_positive_and_finite(scene_file, tmp_path,
                                                      capsys, timeout):
    wav, work = tmp_path / "in.wav", tmp_path / "w"
    assert main(["render", str(scene_file), str(wav)]) == 0
    assert main(["roundtrip", "subprocess:cp {input} {output}", str(wav),
                 "rain", "--work-dir", str(work), "--timeout", timeout]) == 2
    assert "--timeout must be a positive" in capsys.readouterr().err
    assert not work.exists()


def test_roundtrip_io_error_names_its_round(scene_file, tmp_path, capsys):
    wav = tmp_path / "in.wav"
    assert main(["render", str(scene_file), str(wav)]) == 0
    assert main(["roundtrip", "subprocess:cp {input} {output}", str(wav),
                 "rain", "--work-dir", str(_blocker(tmp_path) / "w"),
                 "--rounds", "1"]) == 3
    assert (f"error: round 1: [Errno {errno.ENOTDIR}] "
            in capsys.readouterr().err)


@pytest.mark.parametrize("log_level,line", [
    ("warning", "error: step 0 (Add the sound of owl hoot): "
                "Add steps require a catalog"),
    ("json", '{"error": "step 0 (Add the sound of owl hoot): Add steps '
             'require a catalog", "exit_code": 4}'),
])
def test_labelled_error_line(scene_file, tmp_path, capsys, log_level, line):
    plan = tmp_path / "plan.txt"
    plan.write_text("Add the sound of owl hoot\n")
    assert main(["--seed", "1", "--log-level", log_level, "edit",
                 str(scene_file), str(plan), str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.splitlines()[-1] == line
