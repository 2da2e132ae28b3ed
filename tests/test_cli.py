import json
import random
import shutil

import numpy as np
import pytest
from scipy.io import wavfile

from stereoedit.audio import read_wav
from stereoedit.catalog import build_catalog
from stereoedit.cli import main
from stereoedit.pipeline import (MANIFEST_NAME, PipelineConfig, read_manifest,
                                 run_pipeline, sample_scene, scene_to_json)


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


def test_parse_malformed_plan(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("Wiggle the sound of rain\n")
    assert main(["parse", str(plan)]) == 2


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
