"""Dataset factory: sample scenes, obtain plans, execute trajectories,
and persist audio plus JSONL manifests.

The whole output is a pure function of (config, catalog snapshot): every
record derives its own seed from the global seed and its index, so worker
count and scheduling never change the produced bytes. Timestamps are the
one non-deterministic manifest field and are excluded from the canonical
byte surface (see canonical_manifest_bytes).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .audio import AudioBuffer, load_clip, prepare_clip, write_wav
from .catalog import Catalog, build_catalog
from .designer import (DesignerConfig, DesignerMode, design_plan_llm,
                       design_plan_template)
from .engine import execute_plan
from .errors import (EmptyCatalog, FailureBudgetExceeded,
                     OutputDirNotWritable, StereoEditError, ValidationFailed)
from .plans import (EditPlan, canonicalize_plan, plan_to_json,
                    serialize_step, validate_plan)
from .spatial import Direction, EventSpec, Scene

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.jsonl"
SINGLE_STEP_MANIFEST_NAME = "single_step.jsonl"
MANIFEST_SCHEMA_VERSION = 1
SCENE_GAIN_RANGE_DB = (-6.0, 0.0)


@dataclass(frozen=True)
class PipelineConfig:
    record_count: int
    output_dir: str
    seed: int = 0
    k_min: int = 2
    k_max: int = 5
    duration_seconds: float = 10.0
    designer: DesignerConfig = field(default_factory=DesignerConfig)
    worker_count: int = 1
    single_step_expansion: bool = False
    failure_budget: int | None = None  # None -> 1% of record_count (min 1)

    def __post_init__(self):
        if self.k_min < 2 or self.k_max > 5:
            log.warning("event count range [%d, %d] outside the default [2, 5]",
                        self.k_min, self.k_max)
        if self.k_min > self.k_max:
            raise ValueError("k_min must not exceed k_max")

    @property
    def effective_failure_budget(self) -> int:
        if self.failure_budget is not None:
            return self.failure_budget
        return max(1, math.ceil(0.01 * self.record_count))

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        data = dict(data)
        designer = data.pop("designer", None)
        if isinstance(designer, dict):
            designer = dict(designer)
            if "mode" in designer:
                designer["mode"] = DesignerMode(designer["mode"])
            designer = DesignerConfig(**designer)
        elif designer is None:
            designer = DesignerConfig()
        return cls(designer=designer, **data)


@dataclass(frozen=True)
class PipelineStats:
    requested: int
    succeeded: int
    failed: int
    wall_time_s: float
    failures: tuple[tuple[int, str], ...] = ()


def derive_record_seed(global_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{global_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Scene sampling
# ---------------------------------------------------------------------------

def sample_scene(catalog: Catalog, rng: random.Random,
                 k_min: int = 2, k_max: int = 5,
                 duration_seconds: float = 10.0) -> Scene:
    """Draw K distinct labels and one clip each; directions uniform over
    {left, front, right}, base gains uniform in [-6, 0] dB."""
    labels = sorted(catalog.entries)
    if len(labels) < max(2, k_min):
        raise EmptyCatalog(
            f"need at least {max(2, k_min)} distinct labels, have {len(labels)}")
    k = rng.randint(k_min, min(k_max, len(labels)))
    chosen = rng.sample(labels, k)
    events = []
    for i, label in enumerate(chosen):
        path = rng.choice(catalog.entries[label])
        events.append(EventSpec(
            event_id=f"e{i}",
            label=label,
            clip=prepare_clip(load_clip(path, label), duration_seconds),
            direction=rng.choice((Direction.LEFT, Direction.FRONT,
                                  Direction.RIGHT)),
            gain_db=rng.uniform(*SCENE_GAIN_RANGE_DB)))
    return Scene(tuple(events), duration_seconds)


def scene_to_json(scene: Scene) -> dict:
    return {
        "duration_seconds": scene.duration_seconds,
        "events": [
            {"event_id": e.event_id, "label": e.label,
             "clip_path": e.clip.origin_path,
             "direction": e.direction.value, "gain_db": e.gain_db}
            for e in scene.events
        ],
    }


def scene_from_json(data: dict) -> Scene:
    """Rebuild a scene from its JSON description, re-ingesting clips with
    the standard fit + RMS-normalize treatment."""
    duration = float(data.get("duration_seconds", 10.0))
    events = []
    for i, ev in enumerate(data["events"]):
        events.append(EventSpec(
            event_id=str(ev.get("event_id", f"e{i}")),
            label=str(ev["label"]),
            clip=prepare_clip(load_clip(ev["clip_path"], ev["label"]), duration),
            direction=Direction.from_text(ev["direction"]),
            gain_db=float(ev["gain_db"])))
    return Scene(tuple(events), duration)


# ---------------------------------------------------------------------------
# Record synthesis
# ---------------------------------------------------------------------------

def _design(labels, rng: random.Random, config: PipelineConfig) -> EditPlan:
    if config.designer.mode is DesignerMode.TEMPLATE:
        return design_plan_template(labels, rng)
    result = design_plan_llm([labels], config.designer)
    if result.failures:
        raise result.failures[0]
    return result.plans[0]


def build_trajectory(catalog: Catalog, config: PipelineConfig, index: int):
    """Deterministically produce (scene, plan, trajectory, edited-ids) for a
    record index; pure in-memory form of synthesize_record."""
    rng = random.Random(derive_record_seed(config.seed, index))
    scene = sample_scene(catalog, rng, config.k_min, config.k_max,
                         config.duration_seconds)
    plan = _design(scene.labels, rng, config)
    report = validate_plan(plan, scene.labels)
    if not report.is_valid:
        raise ValidationFailed(
            "; ".join(f"{v.rule_id}: {v.message}" for v in report.violations))
    plan = canonicalize_plan(plan)

    trajectory, edited_ids = execute_plan(scene, plan, catalog=catalog, rng=rng)
    return scene, plan, trajectory, edited_ids


def synthesize_record(catalog: Catalog, config: PipelineConfig,
                      index: int) -> dict:
    """Render one record to disk and return its manifest row."""
    scene, plan, trajectory, edited_ids = build_trajectory(catalog, config, index)
    record_id = f"rec{index:06d}"
    audio_dir = Path(config.output_dir) / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)

    audio_paths = []
    peak_factors = []
    for i, (_, audio) in enumerate(trajectory):
        rel = f"audio/{record_id}_a{i:02d}.wav"
        peak = audio.peak()
        factor = 1.0 / peak if peak > 1.0 else 1.0
        exported = AudioBuffer(audio.samples * factor) if factor != 1.0 else audio
        write_wav(Path(config.output_dir) / rel, exported)
        audio_paths.append(rel)
        peak_factors.append(factor)

    per_step_meta = [
        {"step": serialize_step(step),
         "edited_event_ids": edited_ids[i],
         "export_peak_factor": peak_factors[i + 1]}
        for i, step in enumerate(plan.steps)
    ]
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "record_id": record_id,
        "index": index,
        "seed": derive_record_seed(config.seed, index),
        "instruction": plan.instruction,
        "scene_initial": scene_to_json(scene),
        "plan": plan_to_json(plan),
        "audio_paths": audio_paths,
        "peak_factors": peak_factors,
        "per_step_meta": per_step_meta,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def _worker(args):
    catalog, config, index = args
    try:
        return index, synthesize_record(catalog, config, index), None
    except StereoEditError as exc:  # data failures are budgeted, per record
        return index, None, f"{type(exc).__name__}: {exc}"


def run_pipeline(config: PipelineConfig, catalog: Catalog | None = None) -> PipelineStats:
    """Produce record_count successful records plus manifests.

    Failed records are skipped and replaced by later indices; when failures
    exceed the budget the run aborts with FailureBudgetExceeded.
    """
    t0 = time.monotonic()
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OutputDirNotWritable(f"{out}: {exc}") from exc

    if catalog is None:
        catalog = build_catalog(out / "catalog")

    budget = config.effective_failure_budget
    rows: dict[int, dict] = {}
    failures: list[tuple[int, str]] = []
    cursor = 0

    def handle(result):
        index, row, error = result
        if error is None:
            rows[index] = row
        else:
            log.warning("record %d failed: %s", index, error)
            failures.append((index, error))
            if len(failures) > budget:
                raise FailureBudgetExceeded(
                    f"{len(failures)} failures exceed budget {budget}; "
                    f"last: record {index}: {error}")

    while len(rows) < config.record_count:
        need = config.record_count - len(rows)
        indices = list(range(cursor, cursor + need))
        cursor += need
        tasks = [(catalog, config, i) for i in indices]
        if config.worker_count > 1:
            with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
                for result in pool.map(_worker, tasks):
                    handle(result)
        else:
            for task in tasks:
                handle(_worker(task))

    ordered = [rows[i] for i in sorted(rows)]
    _write_jsonl(out / MANIFEST_NAME, ordered)

    if config.single_step_expansion:
        expand_single_step(ordered, out / SINGLE_STEP_MANIFEST_NAME)

    return PipelineStats(
        requested=config.record_count,
        succeeded=len(ordered),
        failed=len(failures),
        wall_time_s=time.monotonic() - t0,
        failures=tuple(failures),
    )


def expand_single_step(records, out_path) -> int:
    """Write one (step text, a_{i-1} path, a_i path) tuple per step."""
    return _write_jsonl(out_path, (
        {"record_id": row["record_id"],
         "step_index": i,
         "step": meta["step"],
         "audio_before": row["audio_paths"][i],
         "audio_after": row["audio_paths"][i + 1]}
        for row in records
        for i, meta in enumerate(row["per_step_meta"])))


def _write_jsonl(path: Path, rows) -> int:
    """Write one sorted-key JSON line per row and return the row count.

    The lines go to a temp file beside ``path`` that replaces it only once
    complete, so a failed or interrupted write leaves any earlier file whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    count = 0
    try:
        with open(tmp, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
                count += 1
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return count


def read_manifest(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def canonical_manifest_bytes(path) -> bytes:
    """Manifest bytes with the created_at timestamps stripped; this is the
    surface the determinism guarantees apply to."""
    rows = read_manifest(path)
    for row in rows:
        row.pop("created_at", None)
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()
