import base64
import json
import random
import sys
import textwrap
import weakref

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoedit import engine
from stereoedit.audio import SAMPLE_RATE, SourceClip
from stereoedit.engine import (HttpEditorAdapter, OracleEditor,
                               SubprocessEditorAdapter, apply_step,
                               execute_plan)
from stereoedit.errors import (AdapterProtocolError, AdapterTimeout,
                               AmbiguousTarget, EmptyCatalog, EmptySceneResult,
                               EndpointUnreachable, StereoEditError,
                               TargetNotFound, UnsupportedFormat)
from stereoedit.metrics import roundtrip_drift
from stereoedit.pipeline import sample_scene
from stereoedit.plans import (Add, Change, EditPlan, Extract, Remove,
                              TurnDown, TurnUp)
from stereoedit.spatial import (Direction, EventSpec, Scene, db_to_linear,
                                render_scene)


def _clip(label, seed=0, n=24000):
    rng = np.random.default_rng(seed)
    return SourceClip(label=label, samples=rng.uniform(-0.3, 0.3, n))


def _scene():
    n = 24000
    return Scene((
        EventSpec("e0", "rain", _clip("rain", 1, n), Direction.LEFT, -3.0),
        EventSpec("e1", "dog bark", _clip("dog bark", 2, n), Direction.FRONT, 0.0),
        EventSpec("e2", "clock tick", _clip("clock tick", 3, n), Direction.RIGHT, -1.0),
    ), n / SAMPLE_RATE)


def test_match_target():
    scene = _scene()
    assert apply_step(scene, Remove("Dog  Bark"))[1] == "e1"
    assert apply_step(scene, Remove("rain", Direction.LEFT))[1] == "e0"
    with pytest.raises(TargetNotFound):
        apply_step(scene, Remove("rain", Direction.RIGHT))


def test_remove():
    after, edited_id = apply_step(_scene(), Remove(label="rain"))
    assert [e.event_id for e in after.events] == ["e1", "e2"]
    assert edited_id == "e0"


def test_remove_missing_raises():
    with pytest.raises(TargetNotFound):
        apply_step(_scene(), Remove(label="whale song"))


def test_remove_last_event_raises():
    scene = Scene(_scene().events[:1], 1.0)
    with pytest.raises(EmptySceneResult):
        apply_step(scene, Remove(label="rain"))


def test_ambiguous_needs_direction():
    n = 24000
    scene = Scene((
        EventSpec("e0", "rain", _clip("rain", 1, n), Direction.LEFT, 0.0),
        EventSpec("e1", "rain", _clip("rain", 2, n), Direction.RIGHT, 0.0),
    ), 1.0)
    with pytest.raises(AmbiguousTarget):
        apply_step(scene, Remove(label="rain"))
    _, edited_id = apply_step(scene, Remove(label="rain",
                                            direction=Direction.LEFT))
    assert edited_id == "e0"


def test_ambiguous_message_advises_a_qualifier_only_when_there_is_none():
    n = 24000
    scene = Scene(tuple(
        EventSpec(f"e{i}", "rain", _clip("rain", i, n), Direction.LEFT, 0.0)
        for i in range(2)), 1.0)
    with pytest.raises(AmbiguousTarget, match="add a direction qualifier"):
        apply_step(scene, Remove(label="rain"))
    with pytest.raises(AmbiguousTarget) as info:
        apply_step(scene, Remove(label="rain", direction=Direction.LEFT))
    assert str(info.value) == ("2 events labeled 'rain' at left; "
                               "no qualifier tells them apart")


def test_extract_keeps_spatialization():
    scene = _scene()
    after, _ = apply_step(scene, Extract(label="clock tick"))
    assert [e.event_id for e in after.events] == ["e2"]
    only = Scene((scene.events[2],), scene.duration_seconds)
    np.testing.assert_array_equal(render_scene(after).samples,
                                  render_scene(only).samples)


def test_turn_up_down_adjust_gain():
    scene = _scene()
    up, _ = apply_step(scene, TurnUp(label="dog bark", delta_db=3.0))
    assert up.events[1].gain_db == 3.0
    down, _ = apply_step(scene, TurnDown(label="dog bark", delta_db=2.0))
    assert down.events[1].gain_db == -2.0


def test_turn_up_scales_isolated_event_rms():
    scene = _scene()
    before = render_scene(apply_step(scene, Extract(label="dog bark"))[0])
    turned, _ = apply_step(scene, TurnUp(label="dog bark", delta_db=6.0))
    after = render_scene(apply_step(turned, Extract(label="dog bark"))[0])
    assert after.rms() / before.rms() == pytest.approx(db_to_linear(6.0),
                                                       rel=1e-12)


def test_change_direction():
    scene = _scene()
    after, _ = apply_step(scene, Change(label="rain", to=Direction.RIGHT))
    assert after.events[0].direction is Direction.RIGHT
    with pytest.raises(TargetNotFound):
        apply_step(scene, Change(label="rain", from_=Direction.RIGHT,
                                 to=Direction.FRONT))


def test_add_requires_catalog():
    with pytest.raises(EmptyCatalog):
        apply_step(_scene(), Add(label="wind"))
    plan = EditPlan(instruction="", sound_sources=(), steps=(
        Remove(label="rain"), Add(label="wind")))
    with pytest.raises(EmptyCatalog, match="step 1"):
        execute_plan(_scene(), plan)


def test_add_appends_event(catalog):
    scene = _scene()
    after, edited_id = apply_step(scene, Add(label="wind",
                                             direction=Direction.LEFT,
                                             gain_db=2.0),
                                  catalog=catalog, rng=random.Random(0))
    added = after.events[-1]
    assert added.event_id == edited_id == "e3"
    assert added.direction is Direction.LEFT
    assert added.gain_db == 2.0
    assert len(added.clip.samples) == scene.num_samples


def test_add_defaults_front_zero_db(catalog):
    after, _ = apply_step(_scene(), Add(label="wind"), catalog=catalog,
                          rng=random.Random(0))
    added = after.events[-1]
    assert added.direction is Direction.FRONT and added.gain_db == 0.0


def test_execute_plan_trajectory_shape(catalog):
    scene = _scene()
    plan = EditPlan(instruction="", sound_sources=tuple(scene.labels), steps=(
        Remove(label="rain"),
        TurnUp(label="dog bark", delta_db=2.0),
        Add(label="wind"),
    ))
    stages, edited = execute_plan(scene, plan, catalog=catalog,
                                  rng=random.Random(0))
    audio = [render_scene(stage) for stage in stages]
    assert len(audio) == 4
    assert edited == [["e0"], ["e1"], ["e3"]]
    assert stages[0] is scene
    np.testing.assert_array_equal(audio[0].samples,
                                  render_scene(scene).samples)


def test_execute_plan_error_names_step():
    scene = _scene()
    plan = EditPlan(instruction="", sound_sources=(), steps=(
        Remove(label="rain"), Remove(label="whale song")))
    with pytest.raises(TargetNotFound, match="step 1"):
        execute_plan(scene, plan)


def test_oracle_editor_tracks_scene(catalog):
    scene = _scene()
    editor = OracleEditor(scene, catalog=catalog, rng=random.Random(0))
    audio0 = render_scene(scene)
    after_add = editor.edit(audio0, Add(label="wind"))
    assert len(editor.scene.events) == 4
    after_remove = editor.edit(after_add, Remove(label="wind"))
    np.testing.assert_array_equal(after_remove.samples, audio0.samples)


def test_every_step_goes_through_apply_step(catalog, monkeypatch):
    steps = []

    def counting(scene, step, *args, **kwargs):
        steps.append(step)
        return apply_step(scene, step, *args, **kwargs)

    monkeypatch.setattr(engine, "apply_step", counting)
    plan = EditPlan(instruction="", sound_sources=(), steps=(
        Remove(label="rain"), TurnUp(label="dog bark", delta_db=2.0),
        Add(label="wind")))
    execute_plan(_scene(), plan, catalog=catalog, rng=random.Random(0))
    assert steps == list(plan.steps)

    steps.clear()
    editor = OracleEditor(_scene(), catalog=catalog, rng=random.Random(0))
    audio = render_scene(editor.scene)
    edits = [Add(label="wind"), Remove(label="wind")]
    for step in edits:
        audio = editor.edit(audio, step)
    assert steps == edits


def _oracle_steps(scene, catalog):
    """One step of any type on the scene: Adds take a label the scene lacks,
    the rest target one of its labels, narrowed by any direction or none."""
    targets = st.sampled_from(scene.labels)
    sides = st.sampled_from(Direction)
    narrowing = st.none() | sides
    db = st.integers(0, 6).map(float)
    spare = [label for label in catalog.labels if label not in scene.labels]
    return st.one_of(
        st.builds(Add, st.sampled_from(spare), st.none() | sides,
                  st.none() | st.integers(-6, 6).map(float)),
        st.builds(Remove, targets, narrowing),
        st.builds(Extract, targets, narrowing),
        st.builds(TurnUp, targets, db),
        st.builds(TurnDown, targets, db),
        st.builds(Change, targets, sides, narrowing))


def _bytes(audio):
    return audio.samples.tobytes()


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_oracle_editor_returns_the_render_of_its_scene(catalog, seed, data):
    """Every return equals a full render of the editor's scene, byte for
    byte, and an Add's Remove returns the very buffer returned before it."""
    rng = random.Random(seed)
    editor = OracleEditor(sample_scene(catalog, rng, 1, 4, 0.5),
                          catalog=catalog, rng=rng)
    audio, returned = render_scene(editor.scene), None
    for _ in range(data.draw(st.integers(1, 8))):
        before = editor.scene
        step = data.draw(_oracle_steps(before, catalog))
        try:
            audio = editor.edit(audio, step)
        except StereoEditError:  # no such target, or nothing would be left
            assert editor.scene is before
            continue
        assert _bytes(audio) == _bytes(render_scene(editor.scene))
        if isinstance(step, Add) and data.draw(st.booleans()):
            undone = editor.edit(audio, Remove(step.label))
            assert _bytes(undone) == _bytes(render_scene(before))
            assert returned is None or undone is returned
            audio = undone
        returned = audio


def test_oracle_roundtrip_mixes_one_event_per_round(catalog, monkeypatch):
    """Round 1 renders the scene, then its Add onto that render; each later
    round renders only its Add, onto the kept render, and no Remove renders.
    While an Add renders, the only array an earlier edit returned that is
    still alive is the render it mixes onto: the last Add's is freed."""
    calls, alive = [], []
    step = [None]
    returned = []  # weak references to the samples every edit returned

    def counting(scene, out=None, base=None):
        calls.append((type(step[0]).__name__, len(scene.events),
                      None if base is None else len(base[0].events)))
        if base is not None:
            alive.append([ref() is base[1].samples for ref in returned
                          if ref() is not None])
        return render_scene(scene, out, base)

    class Watched(OracleEditor):
        def edit(self, audio_before, edit_step):
            step[0] = edit_step
            audio = super().edit(audio_before, edit_step)
            if all(ref() is not audio.samples for ref in returned):
                returned.append(weakref.ref(audio.samples))
            return audio

    monkeypatch.setattr(engine, "render_scene", counting)
    scene = sample_scene(catalog, random.Random(5), 3, 3, 1.0)
    spare = next(l for l in catalog.labels if l not in scene.labels)
    editor = Watched(scene, catalog=catalog, rng=random.Random(0))
    result = roundtrip_drift(editor, render_scene(scene), spare, rounds=5)
    assert result.lsd_per_round == (0.0,) * 5
    assert calls == [("Add", 3, None)] + [("Add", 4, 3)] * 5
    assert alive == [[]] + [[True]] * 4


def test_oracle_step_with_no_kept_render_frees_the_older_one(catalog,
                                                            monkeypatch):
    """A step that finds no kept render of its scene keeps, while it renders,
    only the render its editor used last; the other one is already freed."""
    rendered, alive = [], []

    def tracking(scene, out=None, base=None):
        alive.append([ref() is not None for ref in rendered])
        audio = render_scene(scene, out, base)
        rendered.append(weakref.ref(audio.samples))
        return audio

    monkeypatch.setattr(engine, "render_scene", tracking)
    scene = sample_scene(catalog, random.Random(5), 3, 3, 1.0)
    spare = next(l for l in catalog.labels if l not in scene.labels)
    editor = OracleEditor(scene, catalog=catalog, rng=random.Random(0))
    editor.edit(None, Add(spare))  # renders the scene, then mixes the Add
    editor.edit(None, Remove(spare))  # returns the scene's kept render
    turned = editor.edit(None, TurnUp(scene.labels[0], 2.0))
    # the scene's render was used last, so the Add's is the one freed
    assert alive == [[], [True], [True, False]]
    assert _bytes(turned) == _bytes(render_scene(editor.scene))


def test_oracle_edit_whose_render_overflows_changes_nothing(catalog):
    """A failed render leaves the editor on its old scene, with renders
    that later steps still find exact."""
    n = SAMPLE_RATE // 2
    # front, at 1.68e308 everywhere: an Add at the same gain overflows
    loud = EventSpec("e0", "hum", SourceClip("hum", np.full(n, 1.5)),
                     Direction.FRONT, 6164.0)
    editor = OracleEditor(Scene((loud,), n / SAMPLE_RATE), catalog=catalog,
                          rng=random.Random(0))
    audio = editor.edit(None, Add("wind"))
    audio = editor.edit(audio, Remove("wind"))
    scene = editor.scene
    with pytest.raises(UnsupportedFormat, match="overflows float64"):
        editor.edit(audio, Add("rain", Direction.FRONT, 6164.0))
    assert editor.scene is scene
    added = editor.edit(audio, Add("wind"))
    assert _bytes(added) == _bytes(render_scene(editor.scene))
    assert editor.edit(added, Remove("wind")) is audio
    assert _bytes(audio) == _bytes(render_scene(scene))


def test_oracle_returns_are_read_only(catalog):
    """The Add after a Remove mixes onto the kept render the Remove
    returned, so a write into that return would reach the Add's output."""
    scene = sample_scene(catalog, random.Random(5), 3, 3, 1.0)
    spare = next(l for l in catalog.labels if l not in scene.labels)
    editor = OracleEditor(scene, catalog=catalog, rng=random.Random(0))
    added = editor.edit(None, Add(spare))
    removed = editor.edit(added, Remove(spare))
    with pytest.raises(ValueError, match="read-only"):
        removed.samples[:, 100] += 1.0
    again = editor.edit(removed, Add(spare))
    assert _bytes(again) == _bytes(render_scene(editor.scene))
    assert not any(a.samples.flags.writeable for a in (added, removed, again))


def test_oracle_edit_that_fails_leaves_its_rng(catalog):
    """An Add whose render fails gives back its clip draw: the next Add
    takes the clip it would have taken had the failed one never run."""
    n = SAMPLE_RATE // 2
    loud = EventSpec("e0", "hum", SourceClip("hum", np.full(n, 1.5)),
                     Direction.FRONT, 6164.0)

    def wind_after(seed, failing):
        editor = OracleEditor(Scene((loud,), n / SAMPLE_RATE),
                              catalog=catalog, rng=random.Random(seed))
        for step in failing:
            with pytest.raises(UnsupportedFormat, match="overflows float64"):
                editor.edit(None, step)
        editor.edit(None, Add("wind"))
        wind = editor.scene.events[-1]
        return (wind.clip.origin_path, wind.clip.samples.tobytes(),
                wind.direction, wind.gain_db)

    for seed in range(20):
        assert (wind_after(seed, [Add("rain", Direction.FRONT, 6164.0)])
                == wind_after(seed, [])), seed


# ---------------------------------------------------------------------------
# Subprocess adapter
# ---------------------------------------------------------------------------

PASSTHROUGH = textwrap.dedent("""
    import sys, shutil
    shutil.copyfile(sys.argv[1], sys.argv[2])
""")


def test_subprocess_adapter_passthrough(tmp_path):
    script = tmp_path / "editor.py"
    script.write_text(PASSTHROUGH)
    adapter = SubprocessEditorAdapter(
        [sys.executable, str(script), "{input}", "{output}"],
        work_dir=tmp_path / "work")
    audio = render_scene(_scene())
    out = adapter.edit(audio, Remove(label="rain"))
    np.testing.assert_allclose(out.samples,
                               audio.samples.astype(np.float32), atol=0)
    assert (tmp_path / "work" / "call_0001" / "step.txt").read_text() \
        == "Remove the sound of rain\n"


def test_subprocess_adapter_failure(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.exit(3)")
    adapter = SubprocessEditorAdapter([sys.executable, str(script), "{input}"],
                                      work_dir=tmp_path / "work")
    with pytest.raises(AdapterProtocolError, match="exit 3"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


def test_subprocess_adapter_no_output(tmp_path):
    script = tmp_path / "silent.py"
    script.write_text("pass")
    adapter = SubprocessEditorAdapter([sys.executable, str(script)],
                                      work_dir=tmp_path / "work")
    with pytest.raises(AdapterProtocolError, match="file not found"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


def test_subprocess_adapter_timeout(tmp_path):
    script = tmp_path / "slow.py"
    script.write_text("import time; time.sleep(30)")
    adapter = SubprocessEditorAdapter([sys.executable, str(script)],
                                      work_dir=tmp_path / "work", timeout_s=0.5)
    with pytest.raises(AdapterTimeout):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


def test_subprocess_adapter_wrong_shape(tmp_path):
    # editor writes a mono file: protocol violation
    script = tmp_path / "mono.py"
    script.write_text(textwrap.dedent("""
        import sys
        import numpy as np
        from scipy.io import wavfile
        wavfile.write(sys.argv[1], 24000, np.zeros(100, dtype=np.float32))
    """))
    adapter = SubprocessEditorAdapter([sys.executable, str(script), "{output}"],
                                      work_dir=tmp_path / "work")
    with pytest.raises(AdapterProtocolError, match="stereo"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


def test_subprocess_adapter_non_finite_output(tmp_path):
    # editor writes a float WAV of the right shape holding a NaN
    script = tmp_path / "nan.py"
    script.write_text(textwrap.dedent("""
        import sys
        import numpy as np
        from scipy.io import wavfile
        data = np.zeros((24000, 2), dtype=np.float32)
        data[5, 1] = np.nan
        wavfile.write(sys.argv[1], 24000, data)
    """))
    adapter = SubprocessEditorAdapter([sys.executable, str(script), "{output}"],
                                      work_dir=tmp_path / "work")
    with pytest.raises(AdapterProtocolError, match="finite"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


# ---------------------------------------------------------------------------
# HTTP adapter (fake session, no network)
# ---------------------------------------------------------------------------

class _FakeResponse:
    def __init__(self, status_code, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class _FakeSession:
    """Answers every POST with ``reply(payload)`` and records the payloads."""

    def __init__(self, reply):
        self.reply = reply
        self.payloads = []

    def post(self, url, json, timeout):
        self.payloads.append(json)
        return self.reply(json)


def test_http_adapter_echo():
    session = _FakeSession(
        lambda payload: _FakeResponse(200, {"audio_b64": payload["audio_b64"]}))
    adapter = HttpEditorAdapter("http://editor.invalid/edit", session=session)
    audio = render_scene(_scene())
    out = adapter.edit(audio, Remove(label="rain"))
    np.testing.assert_array_equal(out.samples,
                                  audio.samples.astype(np.float32))
    assert session.payloads[0]["step"] == "Remove the sound of rain"
    assert base64.b64decode(session.payloads[0]["audio_b64"])[:4] == b"RIFF"


def test_http_adapter_non_200():
    adapter = HttpEditorAdapter(
        "http://editor.invalid/edit",
        session=_FakeSession(lambda payload: _FakeResponse(503, {})))
    with pytest.raises(AdapterProtocolError, match="503"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


@pytest.mark.parametrize("body", [
    ValueError("not JSON"),
    {"audio": ""},
    ["audio_b64"],
    {"audio_b64": "!!not base64!!"},
    {"audio_b64": base64.b64encode(b"not a wav").decode("ascii")},
])
def test_http_adapter_malformed_body(body):
    adapter = HttpEditorAdapter(
        "http://editor.invalid/edit",
        session=_FakeSession(lambda payload: _FakeResponse(200, body)))
    with pytest.raises(AdapterProtocolError):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


def _raises(exc):
    def reply(payload):
        raise exc
    return reply


@pytest.mark.parametrize("raised,expected", [
    (requests.ConnectionError("connection refused"), EndpointUnreachable),
    (requests.Timeout("read timed out"), AdapterTimeout),
    (RuntimeError("bug in the session"), RuntimeError),
])
def test_http_adapter_transport_errors(raised, expected):
    adapter = HttpEditorAdapter("http://editor.invalid/edit",
                                session=_FakeSession(_raises(raised)))
    with pytest.raises(expected):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))


class _DeeplyNestedResponse:
    status_code = 200

    def json(self):
        return json.loads("[" * 100_000)


def test_http_adapter_deeply_nested_body_is_protocol_error():
    adapter = HttpEditorAdapter(
        "http://editor.invalid/edit",
        session=_FakeSession(lambda payload: _DeeplyNestedResponse()))
    with pytest.raises(AdapterProtocolError, match="malformed editor response"):
        adapter.edit(render_scene(_scene()), Remove(label="rain"))
