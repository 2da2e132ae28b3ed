"""Exact event-level execution of atomic edit steps.

The scene-backed implementation here is the reference ("oracle") editor:
every step becomes a parameter change on one event, and the audio is always
the scene's exact render (an Add mixes only its event onto the render before
it), so inverses hold to float precision, bit for bit. External
learned editors plug in through the same ``edit(audio, step)`` surface via
subprocess or HTTP adapters.
"""

from __future__ import annotations

import base64
import io
import random
import subprocess
from dataclasses import replace
from pathlib import Path

from .audio import AudioBuffer, read_stereo, write_wav
from .catalog import Catalog, retrieve_clip
from .errors import (AdapterProtocolError, AdapterTimeout, AmbiguousTarget,
                     EmptyCatalog, EmptySceneResult, EndpointUnreachable,
                     TargetNotFound, UnreadableFile, UnsupportedFormat)
from .plans import (Add, AtomicStep, Change, EditPlan, Extract, Remove,
                    TurnDown, TurnUp, normalize_label, serialize_step)
from .spatial import Direction, EventSpec, Scene, render_scene


def _require_one(scene: Scene, label: str, direction: Direction | None) -> EventSpec:
    """The one event whose label matches under normalized comparison,
    optionally narrowed by direction."""
    key = normalize_label(label)
    matches = [e for e in scene.events if normalize_label(e.label) == key
               and (direction is None or e.direction == direction)]
    where = f" at {direction.value}" if direction else ""
    if not matches:
        raise TargetNotFound(f"no event labeled {label!r}{where}")
    if len(matches) > 1:
        advice = ("no qualifier tells them apart" if direction
                  else "add a direction qualifier")
        raise AmbiguousTarget(
            f"{len(matches)} events labeled {label!r}{where}; {advice}")
    return matches[0]


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
               rng: random.Random | None = None) -> tuple[Scene, str]:
    """The scene after one atomic step, and the id of the event it edited."""
    if isinstance(step, Add):
        if catalog is None:
            raise EmptyCatalog("Add steps require a catalog")
        clip = retrieve_clip(catalog, step.label, rng or random.Random(0),
                             scene.duration_seconds)
        edited = EventSpec(event_id=scene.next_event_id(),
                           label=step.label,
                           clip=clip,
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
    return Scene(events, scene.duration_seconds), edited.event_id


def execute_plan(scene: Scene, plan: EditPlan,
                 catalog: Catalog | None = None,
                 rng: random.Random | None = None):
    """Run all steps sequentially, without rendering.

    Returns the stage scenes [scene_0, ..., scene_n], whose element 0 is the
    untouched initial scene, and the event ids each step edited. Render a
    stage with render_scene when its audio is needed.
    """
    stages = [scene]
    edited_ids = []
    for i, step in enumerate(plan.steps):
        try:
            after, edited_id = apply_step(stages[-1], step, catalog, rng)
        except Exception as exc:
            exc.add_note(f"step {i} ({serialize_step(step)})")
            raise
        stages.append(after)
        edited_ids.append([edited_id])
    return stages, edited_ids


# ---------------------------------------------------------------------------
# Editor interface
# ---------------------------------------------------------------------------

class Editor:
    """Anything that can turn (audio, atomic step) into edited audio."""

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        raise NotImplementedError


class OracleEditor(Editor):
    """Scene-backed exact editor; tracks its own scene state across calls.

    It keeps its renders of the two scenes it used last and returns a kept
    one for a step back to its scene, so every render it returns is
    read-only. An edit drops the renders it will not keep before it renders,
    so a failed render can cost a kept one, but never the scene or the rng.
    """

    def __init__(self, scene: Scene, catalog: Catalog | None = None,
                 rng: random.Random | None = None):
        self.scene = scene
        self.catalog = catalog
        self.rng = rng or random.Random(0)
        self._renders: list[tuple[Scene, AudioBuffer]] = []  # last used last

    def _kept(self, scene: Scene):
        # by identity: == on EventSpec would compare the clips' arrays
        ids = [*map(id, scene.events)]
        return next((kept for kept in self._renders
                     if [*map(id, kept[0].events)] == ids), None)

    def edit(self, audio_before: AudioBuffer, step: AtomicStep) -> AudioBuffer:
        # an Add draws its clip from the rng: a failed edit gives it back
        rng_state, used = self.rng.getstate(), None
        try:
            scene, _ = apply_step(self.scene, step, self.catalog, self.rng)
            if isinstance(step, Add):
                before = self._kept(self.scene)
                self._renders = [before] if before else []
                before = before or (self.scene, render_scene(self.scene))
                used = [before, (scene, render_scene(scene, base=before))]
            else:
                hit = self._kept(scene)
                if hit is None:  # a render is coming: keep the last used
                    self._renders = self._renders[-1:]
                used = [hit or (scene, render_scene(scene))]
        finally:
            if used is None:
                self.rng.setstate(rng_state)
        self.scene = scene  # only once every render has succeeded
        for _, render in used:
            render.samples.flags.writeable = False
        kept = [k for k in self._renders if all(k is not u for u in used)]
        self._renders = (kept + used)[-2:]
        return used[-1][1]


def _check_adapter_output(audio_before: AudioBuffer, wav) -> AudioBuffer:
    """Validate an editor's output WAV (a path or a binary file object)."""
    try:
        audio = read_stereo(wav)
    except (UnreadableFile, UnsupportedFormat) as exc:
        raise AdapterProtocolError(f"bad editor output: {exc}") from exc
    got = (audio.sample_rate_hz, audio.num_samples)
    want = (audio_before.sample_rate_hz, audio_before.num_samples)
    if got != want:
        raise AdapterProtocolError(
            f"editor output (rate, length) {got} != input {want}")
    return audio


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
        import requests

        try:
            resp = self.session.post(self.url, json=payload, timeout=self.timeout_s)
        except requests.Timeout as exc:
            raise AdapterTimeout(f"editor endpoint timed out: {exc}") from exc
        except requests.RequestException as exc:
            raise EndpointUnreachable(f"editor endpoint: {exc}") from exc
        if resp.status_code != 200:
            raise AdapterProtocolError(f"editor endpoint returned {resp.status_code}")
        try:
            wav_bytes = base64.b64decode(resp.json()["audio_b64"])
        except (RecursionError, ValueError, KeyError, TypeError) as exc:
            raise AdapterProtocolError(f"malformed editor response: {exc}") from exc
        return _check_adapter_output(audio_before, io.BytesIO(wav_bytes))
