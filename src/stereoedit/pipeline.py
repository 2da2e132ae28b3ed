"""Dataset factory: sample scenes, obtain plans, execute trajectories,
and persist audio plus JSONL manifests.

The whole output is a pure function of (config, catalog snapshot): every
record derives its own seed from the global seed and its index, so worker
count and scheduling never change the produced bytes. Timestamps are the
one non-deterministic manifest field and are excluded from the canonical
byte surface (see canonical_manifest_bytes).
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .audio import CANONICAL_SECONDS, ClipStore, scratch, write_wav
from .catalog import Catalog, build_catalog
from .designer import (DesignerConfig, DesignerMode, design_plan_llm,
                       design_plan_template)
from .engine import execute_plan
from .errors import (EmptyCatalog, FailureBudgetExceeded,
                     OutputDirNotWritable, SchemaError, StereoEditError,
                     error_text)
from .plans import EditPlan, canonicalize_plan, plan_to_json, serialize_step
from .spatial import Direction, EventSpec, Scene, render_scene

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
    duration_seconds: float = CANONICAL_SECONDS
    designer: DesignerConfig = field(default_factory=DesignerConfig)
    worker_count: int = 1
    single_step_expansion: bool = False
    failure_budget: int | None = None  # None -> 1% of record_count (min 1)

    def __post_init__(self):
        budget = () if self.failure_budget is None else ("failure_budget",)
        for name in ("record_count", "worker_count", "seed", "k_min", "k_max",
                     *budget):
            if type(getattr(self, name)) is not int:  # exact, so not a bool
                raise TypeError(f"{name} must be an integer")
        for name, least in (("record_count", 0), ("worker_count", 1),
                            ("failure_budget", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be at least {least}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise TypeError("output_dir must be a path")
        seconds = self.duration_seconds
        if type(seconds) not in (int, float) or not 0 < seconds < math.inf:
            raise ValueError("duration_seconds must be positive and finite")
        if not isinstance(self.single_step_expansion, bool):
            raise TypeError("single_step_expansion must be true or false")
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
        if designer is None:
            designer = {}
        elif not isinstance(designer, dict):
            raise TypeError("designer must be an object of designer options, "
                            f"not {type(designer).__name__}")
        if "mode" in designer:
            designer = {**designer, "mode": DesignerMode(designer["mode"])}
        return cls(designer=DesignerConfig(**designer), **data)


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
                 duration_seconds: float = CANONICAL_SECONDS) -> Scene:
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
            clip=catalog.prepared_clip(path, label, duration_seconds),
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
    """Rebuild a scene from its JSON description, taking each event's clip
    from one ``ClipStore``, so a clip the scene repeats is decoded once.

    JSON admits NaN and Infinity, so the duration must be finite, and each
    gain finite with a linear factor ``10 ** (gain_db / 20)`` that is too."""
    duration = float(data.get("duration_seconds", CANONICAL_SECONDS))
    if not 0 < duration < math.inf:
        raise ValueError("duration_seconds must be positive and finite")
    store, events = ClipStore(), []
    for i, ev in enumerate(data["events"]):
        gain_db = float(ev["gain_db"])
        if not (math.isfinite(gain_db)
                and gain_db / 20 <= sys.float_info.max_10_exp):
            raise ValueError(f"gain_db {gain_db} has no finite linear factor")
        events.append(EventSpec(
            event_id=str(ev.get("event_id", f"e{i}")),
            label=str(ev["label"]),
            clip=store.prepared(ev["clip_path"], ev["label"], duration),
            direction=Direction.from_text(ev["direction"]),
            gain_db=gain_db))
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
    """Deterministically produce (scene, plan, stage scenes, edited-ids) for
    a record index; the unrendered in-memory form of synthesize_record."""
    rng = random.Random(derive_record_seed(config.seed, index))
    scene = sample_scene(catalog, rng, config.k_min, config.k_max,
                         config.duration_seconds)
    plan = canonicalize_plan(_design(scene.labels, rng, config))
    stages, edited_ids = execute_plan(scene, plan, catalog=catalog, rng=rng)
    return scene, plan, stages, edited_ids


def export_stages(stages, paths, peak_normalize: bool) -> list[float]:
    """Render each stage into this thread's one render buffer and write it
    to its path, one stage at a time. With ``peak_normalize``, a render
    whose peak exceeds 1 is first scaled by ``1 / peak`` in place. Returns
    each stage's factor, 1.0 where none was applied."""
    factors = []
    for stage, path in zip(stages, paths, strict=True):
        buffer = scratch("render", (2, stage.num_samples))
        audio = render_scene(stage, out=buffer)
        peak = audio.peak()
        factor = 1.0 / peak if peak_normalize and peak > 1.0 else 1.0
        if factor != 1.0:
            buffer *= factor
        write_wav(path, audio)
        factors.append(factor)
    return factors


def synthesize_record(catalog: Catalog, config: PipelineConfig,
                      index: int) -> dict:
    """Render one record to disk and return its manifest row."""
    scene, plan, stages, edited_ids = build_trajectory(catalog, config, index)
    record_id = f"rec{index:06d}"
    out = Path(config.output_dir)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    audio_paths = [f"audio/{record_id}_a{i:02d}.wav"
                   for i in range(len(stages))]
    peak_factors = export_stages(stages, [out / rel for rel in audio_paths],
                                 peak_normalize=True)

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
    """The record's manifest row, or the text of its data failure."""
    catalog, config, index = args
    try:
        return synthesize_record(catalog, config, index)
    except StereoEditError as exc:  # data failures are budgeted, per record
        return f"{type(exc).__name__}: {error_text(exc)}"


@contextmanager
def process_map(width: int, caller_shares: bool = False):
    """A ``map(fn, items)`` over ``width`` processes, yielding results in
    submission order: the builtin ``map`` at a width of 1 or less, else one
    process pool, shut down when the block exits.

    The pool has ``width`` workers, or, with ``caller_shares``, ``width - 1``
    that run the first items while this process runs the last
    ``1 / width`` of them. That saves a fork but balances only items of
    about equal cost; the pool alone hands each item to the next free
    worker. Either way the first failing item in submission order is the
    one that raises."""
    if width <= 1:
        yield map
        return
    with ProcessPoolExecutor(
            max_workers=width - 1 if caller_shares else width) as pool:
        if not caller_shares:
            yield pool.map
            return

        def shared_map(fn, items):
            items = list(items)
            split = len(items) * (width - 1) // width
            futures = [pool.submit(fn, item) for item in items[:split]]
            try:
                tail = [fn(item) for item in items[split:]]
            finally:
                # the pool's items come first, so its failure is the one
                # raised, even when one of this process's items failed too
                head = [future.result() for future in futures]
            return head + tail

        yield shared_map


def run_pipeline(config: PipelineConfig, catalog: Catalog | None = None) -> PipelineStats:
    """Produce record_count successful records plus manifests.

    Failed records are replaced by later indices in the same worker pool;
    failures beyond the budget abort the run with FailureBudgetExceeded."""
    t0 = time.monotonic()
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OutputDirNotWritable(f"{out}: {exc}") from exc

    # The run decodes clips into its own copy's store, so they are freed
    # when it returns, and the caller's catalog keeps none of them.
    catalog = (build_catalog(out / "catalog") if catalog is None
               else copy.copy(catalog))

    budget = config.effective_failure_budget
    rows: list[dict] = []
    failures: list[tuple[int, str]] = []
    with process_map(config.worker_count) as run:
        while len(rows) < config.record_count:
            # Every index so far is a row or a failure, so each round starts
            # past the last one; both maps yield in submission order, so the
            # rows stay in index order.
            indices = range(len(rows) + len(failures),
                            config.record_count + len(failures))
            tasks = [(catalog, config, i) for i in indices]
            for index, result in zip(indices, run(_worker, tasks)):
                if isinstance(result, dict):
                    rows.append(result)
                    continue
                log.warning("record %d failed: %s", index, result)
                failures.append((index, result))
                if len(failures) > budget:
                    raise FailureBudgetExceeded(
                        f"{len(failures)} failures exceed budget {budget}; "
                        f"last: record {index}: {result}")

    _write_jsonl(out / MANIFEST_NAME, rows)

    if config.single_step_expansion:
        expand_single_step(rows, out / SINGLE_STEP_MANIFEST_NAME)

    return PipelineStats(
        requested=config.record_count,
        succeeded=len(rows),
        failed=len(failures),
        wall_time_s=time.monotonic() - t0,
        failures=tuple(failures),
    )


def expand_single_step(records, out_path) -> None:
    """Write one (step text, a_{i-1} path, a_i path) tuple per step."""
    _write_jsonl(out_path, (
        {"record_id": row["record_id"],
         "step_index": i,
         "step": meta["step"],
         "audio_before": row["audio_paths"][i],
         "audio_after": row["audio_paths"][i + 1]}
        for row in records
        for i, meta in enumerate(row["per_step_meta"])))


def _write_jsonl(path: Path, rows) -> None:
    """Write one sorted-key JSON line per row.

    The lines go to a temp file beside ``path`` that replaces it only once
    complete, so a failed or interrupted write leaves any earlier file whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_manifest(path) -> list[dict]:
    """The rows of a JSONL manifest, each a JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
    except (RecursionError, ValueError) as exc:  # not UTF-8 or not JSON
        raise SchemaError(f"malformed manifest: {exc}") from exc
    if not all(isinstance(row, dict) for row in rows):
        raise SchemaError("malformed manifest: every row must be an object")
    return rows


def canonical_manifest_bytes(path) -> bytes:
    """Manifest bytes with the created_at timestamps stripped; this is the
    surface the determinism guarantees apply to."""
    rows = read_manifest(path)
    for row in rows:
        row.pop("created_at", None)
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()
