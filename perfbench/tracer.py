"""Outside-in tracer for the stereoedit package.

The package itself carries no instrumentation. ``Tracer.install`` replaces
each target function with a timing wrapper, and ``Tracer.uninstall`` puts
every original back. Modules import functions by name (``pipeline`` and
``engine`` each hold their own ``render_scene`` binding), so a wrapper is
installed under every name, in every stereoedit module, that is bound to the
original function object.

Each call records a span: name, parent span, start, duration and self time
(duration minus the time its child spans cover). Spans stay in memory and are
reduced to per-layer metrics by ``Tracer.summary``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "stereoedit"

# "<module>.<qualified name>" of every wrapped function.
TARGETS = (
    "audio.load_clip",
    "audio.fit_duration",
    "audio.normalize_rms",
    "audio.read_wav",
    "audio.write_wav",
    "catalog.retrieve_clip",
    "spatial.render_scene",
    "spatial.spatialize",
    "engine.apply_step",
    "engine.OracleEditor.edit",
    "plans.validate_plan",
    "plans.canonicalize_plan",
    "designer.design_plan_template",
    "pipeline.sample_scene",
    "pipeline.synthesize_record",
    "pipeline.run_pipeline",
    "metrics.lsd",
    "metrics.gcc_mse",
    "metrics.roundtrip_drift",
    "cli.cmd_eval",
)


def _spatialize_key(clip, direction, gain_db=0.0):
    return clip.origin_path, direction, gain_db


def _load_clip_key(path, label):
    return str(path)


def _lsd_reference_key(a, b, *args, **kwargs):
    # Every 97th sample of both channels: cheap next to the STFTs, and enough
    # to tell apart any two buffers these workloads render or read.
    return a.samples.shape, a.samples[:, ::97].tobytes()


# Target -> (metric name, key function) for "distinct inputs over calls".
DISTINCT = {
    "spatial.spatialize": ("spatial.spatialize.distinct_ratio", _spatialize_key),
    "audio.load_clip": ("audio.load_clip.distinct_ratio", _load_clip_key),
    "metrics.lsd": ("metrics.lsd.distinct_reference_ratio", _lsd_reference_key),
}


def _write_wav_bytes(path, buffer):
    return buffer.samples.size * 4  # exported as float32


def _read_wav_bytes(path):
    return os.path.getsize(path)


# Target -> function giving the bytes one call moves to or from disk.
VOLUME = {
    "audio.write_wav": _write_wav_bytes,
    "audio.read_wav": _read_wav_bytes,
}

MIB = 2.0 ** 20


def layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric ``summary`` reports."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
        units[f"{name}.p50_ms"] = "ms"
    for metric, _ in DISTINCT.values():
        units[metric] = "ratio"
    for name in VOLUME:
        units[f"{name}.mb"] = "MiB/op"
    units["trace.span_coverage"] = "ratio"
    units["trace.layer_coverage"] = "ratio"
    return units


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    parent_id: int | None
    start: float
    duration: float
    self_time: float


class Tracer:
    """Records spans for calls into the stereoedit targets while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.volume: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans as [span_id, child_time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def _wrap(self, name, fn):
        key = DISTINCT.get(name, (None, None))[1]
        size = VOLUME.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                # A forked pool worker: its spans would die with it.
                return fn(*args, **kwargs)
            if key is not None:
                self.keys[name].add(key(*args, **kwargs))
            if size is not None:
                self.volume[name] += size(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if parent is not None:
                parent[1] += duration
            self.spans.append(Span(frame[0], name,
                                   parent[0] if parent is not None else None,
                                   start, duration, duration - frame[1]))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name in TARGETS:
            module_name, _, qualname = name.partition(".")
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:  # a method: the class is its only binding
                owner = getattr(home, owner_name)
                self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self, ops: int, timed_s: float, entry: str) -> dict[str, float]:
        """Per-layer metrics over ``ops`` completed ops and ``timed_s``
        seconds of timed wall time. ``entry`` names the target each timed
        call enters the package by."""
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(span)
        out = {}
        for name in TARGETS:
            spans = by_name[name]
            out[f"{name}.calls"] = len(spans) / ops
            out[f"{name}.self_ms"] = 1e3 * sum(s.self_time for s in spans) / ops
            out[f"{name}.p50_ms"] = (1e3 * statistics.median(s.duration for s in spans)
                                     if spans else 0.0)
        for name, (metric, _) in DISTINCT.items():
            calls = len(by_name[name])
            out[metric] = len(self.keys[name]) / calls if calls else 0.0
        for name in VOLUME:
            out[f"{name}.mb"] = self.volume[name] / MIB / ops
        # Root spans include the entry point, so this is close to 1 by
        # construction: it shows only that no untraced code ran in between.
        covered = sum(s.duration for s in self.spans if s.parent_id is None)
        out["trace.span_coverage"] = covered / timed_s
        # The share of wall time in the self time of named layers below the
        # entry point: work the entry point's own self time hides is missing.
        below = sum(s.self_time for s in self.spans if s.name != entry)
        out["trace.layer_coverage"] = below / timed_s
        return out
