"""Exact event-level execution of atomic edit steps.

The scene-backed implementation here is the reference ("oracle") editor:
every step becomes a parameter change on one event, and the audio is always
re-rendered from the scene, so inverses hold to float precision. External
learned editors plug in through the same ``edit(audio, step)`` surface via
subprocess or HTTP adapters.
"""

from __future__ import annotations

import base64
import io
import random
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path

from .audio import AudioBuffer, prepare_clip, read_wav, write_wav
from .catalog import Catalog, retrieve_clip
from .errors import (AdapterProtocolError, AdapterTimeout, AmbiguousTarget,
                     EmptyCatalog, EmptySceneResult, TargetNotFound)
from .plans import (Add, AtomicStep, Change, EditPlan, Extract, Remove,
                    TurnDown, TurnUp, normalize_label, serialize_step)
from .spatial import Direction, EventSpec, Scene, render_scene


@dataclass(frozen=True)
class EditOutcome:
    scene_after: Scene
    audio_after: AudioBuffer
    edited_event_ids: tuple[str, ...]


def match_target(scene: Scene, label: str, direction: Direction | None = None):
    """Event ids whose label matches under normalized comparison, optionally
    filtered by direction."""
    key = normalize_label(label)
    return [e.event_id for e in scene.events
            if normalize_label(e.label) == key
            and (direction is None or e.direction == direction)]


def _require_one(scene: Scene, label: str, direction: Direction | None) -> EventSpec:
    ids = match_target(scene, label, direction)
    if not ids:
        where = f" at {direction.value}" if direction else ""
        raise TargetNotFound(f"no event labeled {label!r}{where}")
    if len(ids) > 1:
        raise AmbiguousTarget(
            f"{len(ids)} events labeled {label!r}; add a direction qualifier")
    return next(e for e in scene.events if e.event_id == ids[0])


def _swap(events, target: EventSpec, new: EventSpec):
    return tuple(new if e.event_id == target.event_id else e for e in events)


# How each step type but Add rewrites the scene's events around its target.
_REWRITES = {
    Remove: lambda ev, t, s: tuple(e for e in ev if e.event_id != t.event_id),
    Extract: lambda ev, t, s: (t,),
    TurnUp: lambda ev, t, s: _swap(ev, t, replace(t, gain_db=t.gain_db + s.delta_db)),
    TurnDown: lambda ev, t, s: _swap(ev, t, replace(t, gain_db=t.gain_db - s.delta_db)),
    Change: lambda ev, t, s: _swap(ev, t, replace(t, direction=s.to)),
}


def apply_step(scene: Scene, step: AtomicStep,
               catalog: Catalog | None = None,
               rng: random.Random | None = None) -> EditOutcome:
    """Apply one atomic step, returning the mutated scene and its render."""
    if isinstance(step, Add):
        if catalog is None:
            raise EmptyCatalog("Add steps require a catalog")
        clip = retrieve_clip(catalog, step.label, rng or random.Random(0))
        edited = EventSpec(event_id=scene.next_event_id(),
                           label=step.label,
                           clip=prepare_clip(clip, scene.duration_seconds),
                           direction=step.direction or Direction.FRONT,
                           gain_db=step.gain_db if step.gain_db is not None else 0.0)
        events = scene.events + (edited,)
    else:
        rewrite = _REWRITES.get(type(step))
        if rewrite is None:
            raise TypeError(f"unknown step type: {type(step).__name__}")
        # Remove's and Extract's direction, and Change's from_, narrow the target
        qualifier = getattr(step, "from_", getattr(step, "direction", None))
        edited = _require_one(scene, step.label, qualifier)
        events = rewrite(scene.events, edited, step)
        if not events:
            raise EmptySceneResult(
                f"removing {step.label!r} would leave an empty scene")
    after = Scene(events, scene.duration_seconds)
    return EditOutcome(after, render_scene(after), (edited.event_id,))


def execute_plan(scene: Scene, plan: EditPlan,
                 catalog: Catalog | None = None,
                 rng: random.Random | None = None):
    """Run all steps sequentially.

    Returns the trajectory [(scene_0, audio_0), ..., (scene_n, audio_n)],
    whose element 0 is the untouched initial scene, and the event ids each
    step edited.
    """
    trajectory = [(scene, render_scene(scene))]
    edited_ids = []
    current = scene
    for i, step in enumerate(plan.steps):
        try:
            outcome = apply_step(current, step, catalog=catalog, rng=rng)
        except Exception as exc:
            exc.args = (f"step {i} ({serialize_step(step)}): {exc}",)
            raise
        current = outcome.scene_after
        trajectory.append((current, outcome.audio_after))
        edited_ids.append(list(outcome.edited_event_ids))
    return trajectory, edited_ids


# ---------------------------------------------------------------------------
# Editor interface
# ---------------------------------------------------------------------------

class Editor:
    """Anything that can turn (audio, atomic step) into edited audio."""

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        raise NotImplementedError


class OracleEditor(Editor):
    """Scene-backed exact editor; tracks its own scene state across calls."""

    def __init__(self, scene: Scene, catalog: Catalog | None = None,
                 rng: random.Random | None = None):
        self.scene = scene
        self.catalog = catalog
        self.rng = rng or random.Random(0)

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        outcome = apply_step(self.scene, step, catalog=self.catalog, rng=self.rng)
        self.scene = outcome.scene_after
        return outcome.audio_after


def _check_adapter_output(audio_before: AudioBuffer, wav) -> AudioBuffer:
    """Validate an editor's output WAV (a path or a binary file object)."""
    try:
        rate, data = read_wav(wav)
    except Exception as exc:
        raise AdapterProtocolError(f"unreadable editor output: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise AdapterProtocolError("editor output is not stereo")
    if rate != audio_before.sample_rate_hz:
        raise AdapterProtocolError(
            f"editor output rate {rate} != {audio_before.sample_rate_hz}")
    if data.shape[0] != audio_before.num_samples:
        raise AdapterProtocolError(
            f"editor output length {data.shape[0]} != {audio_before.num_samples}")
    return AudioBuffer(data.T)


class SubprocessEditorAdapter(Editor):
    """File-exchange protocol: write input.wav + step.txt, run a command,
    read back output.wav of identical shape.

    The command is a list of argv tokens; the placeholders {input}, {step}
    and {output} are substituted with absolute file paths.
    """

    def __init__(self, command: list[str], work_dir, timeout_s: float = 60.0):
        self.command = list(command)
        self.work_dir = Path(work_dir)
        self.timeout_s = timeout_s
        self._calls = 0

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        self._calls += 1
        call_dir = self.work_dir / f"call_{self._calls:04d}"
        call_dir.mkdir(parents=True, exist_ok=True)
        input_path = call_dir / "input.wav"
        step_path = call_dir / "step.txt"
        output_path = call_dir / "output.wav"
        write_wav(input_path, audio_before)
        step_path.write_text(serialize_step(step) + "\n")

        argv = [tok.format(input=input_path, step=step_path, output=output_path)
                for tok in self.command]
        try:
            proc = subprocess.run(argv, capture_output=True,
                                  timeout=self.timeout_s)
        except subprocess.TimeoutExpired as exc:
            raise AdapterTimeout(
                f"editor command timed out after {self.timeout_s}s") from exc
        if proc.returncode != 0:
            raise AdapterProtocolError(
                f"editor command failed (exit {proc.returncode}): "
                f"{proc.stderr.decode(errors='replace')[:500]}")
        return _check_adapter_output(audio_before, output_path)


class HttpEditorAdapter(Editor):
    """POSTs {"step": text, "audio_b64": <float32 wav>} and expects the same
    shape back under "audio_b64"."""

    def __init__(self, url: str, timeout_s: float = 60.0, session=None):
        import requests

        self.url = url
        self.timeout_s = timeout_s
        self.session = session or requests.Session()

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        wav = io.BytesIO()
        write_wav(wav, audio_before)
        payload = {
            "step": serialize_step(step),
            "audio_b64": base64.b64encode(wav.getvalue()).decode("ascii"),
        }
        try:
            resp = self.session.post(self.url, json=payload, timeout=self.timeout_s)
        except Exception as exc:
            raise AdapterTimeout(f"editor endpoint unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise AdapterProtocolError(f"editor endpoint returned {resp.status_code}")
        try:
            wav_bytes = base64.b64decode(resp.json()["audio_b64"])
        except (ValueError, KeyError, TypeError) as exc:
            raise AdapterProtocolError(f"malformed editor response: {exc}") from exc
        return _check_adapter_output(audio_before, io.BytesIO(wav_bytes))
