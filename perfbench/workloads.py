"""The benchmark's workloads, their correctness checks and the timed loop.

Every workload runs on the demo catalog (``build_demo_catalog(root, seed=0)``:
20 labels x 2 clips, 10 s, 24 kHz) and derives every other input from the
workload seed. The package is reached only through module attributes
(``pipeline.run_pipeline``, never a local alias), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

if not (SRC / "stereoedit" / "__init__.py").is_file():
    raise ImportError(f"stereoedit sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import stereoedit  # noqa: E402
from stereoedit import (audio, catalog, cli, demo, engine, metrics,  # noqa: E402
                        pipeline, spatial)

if Path(stereoedit.__file__).resolve().parent != (SRC / "stereoedit").resolve():
    raise ImportError(f"stereoedit was imported from {stereoedit.__file__}, "
                      f"not from {SRC}")

from tracer import Tracer  # noqa: E402

# Golden inputs: fixed whatever the workload seed, run as each workload's
# warm-up op, so every run checks output against a pinned value.
GOLDEN_SEED = 42
GOLDEN_SYNTH_RECORDS = 2
GOLDEN_SYNTH_DIGEST = ("c44ec731192b8f3cb401f2e34a922d87"
                       "614350545f727c228930e4f241fffc0a")
GOLDEN_EVAL_DIGEST = ("41944d769ff7e8a88cd5c9d40c7fe02c"
                      "df764b4a6f0504058c946fe1f4da15bf")

# Records per run_pipeline call, i.e. per timed batch: the size of the
# 40-record trace the workload mix was chosen from (see NOTES.md).
SYNTH_BATCH = 40
ROUNDS = 5           # rounds per roundtrip_drift call

# Set-up sizes its inputs for about twice the rate measured when the
# benchmark was written (eval about 3.7 pairs/s at about 4.5 pairs per
# record). Roundtrip scenes hold their clips in memory (about 7 MB each), so
# they get less headroom: about the measured 1.85 calls/s. No input is ever
# replayed: the timed loop ends early when a workload runs out of inputs.
EVAL_RECORDS_PER_S = 1.4
ROUNDTRIP_SCENES_PER_S = 2.0
K_RANGE = (2, 3, 4, 5)  # events per sampled scene, the pipeline's default range

CATALOG_PLACEHOLDER = b"<catalog>"


def derive_seed(seed: int, *parts) -> int:
    text = ":".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def synth_digest(out_dir, catalog_root) -> str:
    """sha256 of the canonical manifest bytes, with the catalog root replaced
    by a placeholder, followed by every exported WAV in path order."""
    out_dir = Path(out_dir)
    manifest = pipeline.canonical_manifest_bytes(out_dir / pipeline.MANIFEST_NAME)
    root = json.dumps(str(catalog_root))[1:-1].encode()
    h = hashlib.sha256(manifest.replace(root, CATALOG_PLACEHOLDER))
    for wav in sorted((out_dir / "audio").glob("*.wav")):
        h.update(wav.name.encode())
        h.update(wav.read_bytes())
    return h.hexdigest()


def perturb_wav(src: Path, dst: Path, rng: random.Random) -> None:
    """Write a candidate that differs from the reference: a gain change of
    -1 to -6 dB, and a channel swap half of the time."""
    rate, data = audio.read_wav(src)
    samples = data.T
    if rng.random() < 0.5:
        samples = samples[::-1]
    gain = 10.0 ** (rng.uniform(-6.0, -1.0) / 20.0)
    dst.parent.mkdir(parents=True, exist_ok=True)
    audio.write_wav(dst, audio.AudioBuffer(samples * gain, sample_rate_hz=rate))


def read_scores(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


class Workload:
    """Set-up, one op, and the checks of one workload.

    ``run_op`` is the only timed call. ``after_op`` and ``verify`` do the
    untimed bookkeeping and checking, and record every failed check in
    ``problems``.
    """

    op_unit = ""
    workers = 1
    entry = ""     # the tracer target each timed call enters the package by
    capacity = None  # timed calls the inputs allow; None for no limit

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def set_up(self, work: Path) -> None:
        self.work = work
        self.catalog_root = work / "catalog"
        demo.build_demo_catalog(self.catalog_root, seed=0)
        self.catalog = catalog.build_catalog(self.catalog_root)
        self.prepare()
        self.warm_up()

    def prepare(self) -> None:
        pass

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int) -> tuple[int, int]:
        """Run op ``i``; return (attempted, failed) in ops."""
        raise NotImplementedError

    def after_op(self, i: int) -> None:
        pass

    def verify(self) -> None:
        pass


class Synth(Workload):
    """Template-mode ``run_pipeline``; an op is one record."""

    op_unit = "records"
    entry = "pipeline.run_pipeline"

    def __init__(self, seed, seconds, workers: int):
        super().__init__(seed, seconds)
        self.workers = workers
        self.first_digest = None

    def _run(self, out: Path, seed: int, records: int, workers: int):
        config = pipeline.PipelineConfig(record_count=records,
                                         output_dir=str(out), seed=seed,
                                         worker_count=workers)
        return pipeline.run_pipeline(config, self.catalog)

    def warm_up(self):
        out = self.work / "golden"
        self._run(out, GOLDEN_SEED, GOLDEN_SYNTH_RECORDS, self.workers)
        digest = synth_digest(out, self.catalog_root)
        self.check(digest == GOLDEN_SYNTH_DIGEST,
                   f"golden synth digest {digest} != pinned {GOLDEN_SYNTH_DIGEST}")
        shutil.rmtree(out)

    def _batch_seed(self, i):
        return derive_seed(self.seed, "synth", i)

    def run_op(self, i):
        try:
            stats = self._run(self.work / f"batch{i}", self._batch_seed(i),
                              SYNTH_BATCH, self.workers)
        except Exception as exc:  # a failed op is counted, not fatal
            self.problems.append(f"batch {i}: {type(exc).__name__}: {exc}")
            return SYNTH_BATCH, SYNTH_BATCH
        return stats.succeeded + stats.failed, stats.failed

    def after_op(self, i):
        out = self.work / f"batch{i}"
        if i == 0 and (out / pipeline.MANIFEST_NAME).is_file():
            self.first_digest = synth_digest(out, self.catalog_root)
        shutil.rmtree(out, ignore_errors=True)

    def verify(self):
        # Output must not depend on the worker count: redo batch 0 with the
        # other count and compare digests.
        other = 2 if self.workers == 1 else 1
        out = self.work / "crosscheck"
        self._run(out, self._batch_seed(0), SYNTH_BATCH, other)
        digest = synth_digest(out, self.catalog_root)
        self.check(digest == self.first_digest,
                   f"batch 0 digest with {other} worker(s) {digest} != "
                   f"{self.first_digest} with {self.workers}")
        shutil.rmtree(out)


class Eval(Workload):
    """``stereoedit eval`` in-process, one record's pairs per call; an op is
    one scored (reference, candidate) pair."""

    op_unit = "pairs"
    entry = "cli.cmd_eval"

    def _make_dataset(self, root: Path, seed: int, records: int):
        """Synthesize references under root/refs and perturbed candidates
        under root/cands; return the manifest rows."""
        refs = root / "refs"
        config = pipeline.PipelineConfig(record_count=records,
                                         output_dir=str(refs), seed=seed)
        pipeline.run_pipeline(config, self.catalog)
        rows = pipeline.read_manifest(refs / pipeline.MANIFEST_NAME)
        for row in rows:
            for rel in row["audio_paths"]:
                perturb_wav(refs / rel, root / "cands" / rel,
                            random.Random(derive_seed(seed, "perturb", rel)))
        return rows

    def _chunk(self, root: Path, row: dict) -> tuple[Path, int]:
        """Write a one-record manifest beside the references."""
        path = root / "refs" / f"chunk_{row['record_id']}.jsonl"
        path.write_text(json.dumps(row, sort_keys=True) + "\n")
        return path, len(row["audio_paths"])

    def _score(self, manifest: Path, root: Path, csv_path: Path) -> int:
        return cli.main(["eval", str(manifest), str(root / "cands"),
                         "--csv", str(csv_path)])

    def prepare(self):
        records = max(2, math.ceil(self.seconds * EVAL_RECORDS_PER_S))
        rows = self._make_dataset(self.work, derive_seed(self.seed, "eval"),
                                  records)
        self.chunks = [self._chunk(self.work, row) for row in rows]
        self.capacity = len(self.chunks)
        self.first_scores = None

    def warm_up(self):
        root = self.work / "golden"
        row = self._make_dataset(root, GOLDEN_SEED, 1)[0]
        row["audio_paths"] = row["audio_paths"][:1]
        manifest, _ = self._chunk(root, row)
        csv_path = root / "scores.csv"
        code = self._score(manifest, root, csv_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        self.check(code == 0 and digest == GOLDEN_EVAL_DIGEST,
                   f"golden eval exit {code}, CSV digest {digest} != "
                   f"pinned {GOLDEN_EVAL_DIGEST}")
        shutil.rmtree(root)

    def _csv(self, i):
        return self.work / f"scores{i}.csv"

    def run_op(self, i):
        manifest, pairs = self.chunks[i]
        try:
            code = self._score(manifest, self.work, self._csv(i))
        except Exception as exc:  # a failed op is counted, not fatal
            self.problems.append(f"chunk {i}: {type(exc).__name__}: {exc}")
            return pairs, pairs
        return pairs, 0 if code == 0 else pairs

    def after_op(self, i):
        path = self._csv(i)
        if not path.is_file():
            return
        rows = read_scores(path)
        self.check(len(rows) == self.chunks[i][1]
                   and all(math.isfinite(float(v)) for r in rows for v in r[2:]),
                   f"chunk {i}: malformed scores {rows}")
        if i == 0:
            self.first_scores = path.read_bytes()
        path.unlink()

    def verify(self):
        # Scores must be reproducible: score chunk 0 again and compare bytes.
        path = self.work / "rescore.csv"
        code = self._score(self.chunks[0][0], self.work, path)
        self.check(code == 0 and path.read_bytes() == self.first_scores,
                   f"chunk 0: rescoring exited {code} or gave different CSV bytes")


class Roundtrip(Workload):
    """``roundtrip_drift`` with the oracle editor over scenes sampled at
    set-up; an op is one round (an Add, a Remove and one LSD)."""

    op_unit = "rounds"
    entry = "metrics.roundtrip_drift"

    @staticmethod
    def _case(cat, rng: random.Random, k: int):
        scene = pipeline.sample_scene(cat, rng, k_min=k, k_max=k)
        spare = rng.choice([l for l in cat.labels if l not in scene.labels])
        return scene, spare, rng.getrandbits(32)

    def _drift(self, case, rounds):
        scene, spare, editor_seed = case
        editor = engine.OracleEditor(scene, self.catalog,
                                     random.Random(editor_seed))
        return metrics.roundtrip_drift(editor, spatial.render_scene(scene),
                                       spare, rounds=rounds)

    def prepare(self):
        rng = random.Random(derive_seed(self.seed, "roundtrip"))
        count = max(2, math.ceil(self.seconds * ROUNDTRIP_SCENES_PER_S))
        # K cycles through 2..5 rather than being drawn, so every run holds
        # the same mix of scene sizes: throughput and memory then vary with
        # the seed far less, and the rest of each scene is still drawn.
        self.cases = [self._case(self.catalog, rng, K_RANGE[j % len(K_RANGE)])
                      for j in range(count)]
        self.capacity = count
        self.last = None

    def warm_up(self):
        case = self._case(self.catalog, random.Random(GOLDEN_SEED), 3)
        drift = self._drift(case, 1).lsd_per_round
        self.check(drift == (0.0,), f"golden roundtrip drift {drift} != (0.0,)")

    def run_op(self, i):
        self.last = None
        try:
            self.last = self._drift(self.cases[i], ROUNDS)
        except Exception as exc:  # a failed op is counted, not fatal
            self.problems.append(f"scene {i}: {type(exc).__name__}: {exc}")
            return ROUNDS, ROUNDS
        return ROUNDS, 0

    def after_op(self, i):
        if self.last is not None:
            drift = self.last.lsd_per_round
            self.check(drift == (0.0,) * ROUNDS,
                       f"scene {i}: drift {drift} is not exactly 0.0")


WORKLOADS = {
    "synth-1w": lambda seed, seconds: Synth(seed, seconds, workers=1),
    "synth-2w": lambda seed, seconds: Synth(seed, seconds, workers=2),
    "eval": Eval,
    "roundtrip": Roundtrip,
}


def _cpu_seconds() -> tuple[float, float]:
    """(own CPU, reaped children's CPU) in seconds, user plus system."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, child.ru_utime + child.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(name: str, seed: int, seconds: float, work: Path,
            traced: bool = False, setup_repeats: int = 1) -> dict:
    """Set the workload up ``setup_repeats`` times (the last set-up is kept),
    then run ops until they have taken ``seconds`` of wall time or the
    workload's inputs run out.

    Returns plain data: set-up times, one (completed ops, wall s, cpu s)
    triple per timed call, counts, problems, peak RSS, the pool workers' CPU
    share and, when ``traced``, the per-layer summary.
    """
    setup_s = []
    wl = None
    for r in range(setup_repeats):
        if wl is not None:
            shutil.rmtree(wl.work)
        wl = WORKLOADS[name](seed, seconds)
        start = time.perf_counter()
        wl.set_up(work / f"setup{r}")
        setup_s.append(time.perf_counter() - start)

    tracer = Tracer() if traced else None
    calls = []
    attempted = failed = 0
    timed = child_cpu = 0.0
    i = 0
    with tracer.installed() if tracer else nullcontext():
        while timed < seconds and (wl.capacity is None or i < wl.capacity):
            own0, child0 = _cpu_seconds()
            start = time.perf_counter()
            a, f = wl.run_op(i)
            wall = time.perf_counter() - start
            own1, child1 = _cpu_seconds()
            wl.after_op(i)
            attempted += a
            failed += f
            timed += wall
            child_cpu += child1 - child0
            calls.append((a - f, wall, own1 - own0 + child1 - child0))
            i += 1
    # Read before verify(), whose untimed cross-check may fork a pool.
    peak_rss = peak_rss_mib()
    wl.verify()
    completed = attempted - failed
    result = {
        "workload": name,
        "op_unit": wl.op_unit,
        "setup_s": setup_s,
        "calls": calls,
        "attempted": attempted,
        "failed": failed,
        "timed_s": timed,
        "problems": wl.problems,
        "peak_rss_mib": peak_rss,
        "worker_cpu_share": child_cpu / (wl.workers * timed),
        "trace": (tracer.summary(max(completed, 1), timed, wl.entry)
                  if tracer else None),
    }
    shutil.rmtree(wl.work)
    return result

