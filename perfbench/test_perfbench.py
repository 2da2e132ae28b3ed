"""Self-tests of the benchmark. Run with: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import TARGETS, Tracer

BENCHMARK = json.loads((workloads.REPO / "BENCHMARK.json").read_text())


def test_synth_digest_is_independent_of_catalog_root(tmp_path):
    raw, digests = [], []
    for root in (tmp_path / "a" / "catalog", tmp_path / "b" / "deeper" / "catalog"):
        workloads.demo.build_demo_catalog(root, seed=0)
        cat = workloads.catalog.build_catalog(root)
        out = root.parent / "out"
        config = workloads.pipeline.PipelineConfig(record_count=2,
                                                   output_dir=str(out), seed=3)
        workloads.pipeline.run_pipeline(config, cat)
        raw.append(workloads.pipeline.canonical_manifest_bytes(
            out / workloads.pipeline.MANIFEST_NAME))
        digests.append(workloads.synth_digest(out, root))
    assert raw[0] != raw[1]  # manifests embed absolute clip paths
    assert digests[0] == digests[1]


def _bindings() -> dict:
    """Every attribute of every stereoedit module, and of OracleEditor."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "stereoedit" or name.startswith("stereoedit."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    snapshot.update({("OracleEditor", k): v
                     for k, v in vars(workloads.engine.OracleEditor).items()})
    return snapshot


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    with Tracer().installed():
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert {("stereoedit.pipeline", "render_scene"),
                ("stereoedit.engine", "render_scene"),
                ("stereoedit.spatial", "render_scene"),
                ("stereoedit.cli", "cmd_eval"),
                ("OracleEditor", "edit")} <= changed
        assert len(changed) > len(TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_metric_names_and_units_match_benchmark_json():
    assert ({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == run.layer_units())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_minimal_traced_run_passes_its_checks(name, tmp_path):
    result = workloads.measure(name, seed=0, seconds=0.1, work=tmp_path,
                               traced=True)
    assert result["problems"] == []
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["trace"]) <= set(run.layer_units())
    assert result["trace"]["trace.span_coverage"] >= 0.9
    if name != "synth-2w":  # the pool workers' spans are not traced
        assert result["trace"]["trace.layer_coverage"] >= 0.9


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(workloads.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "eval", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
