import tracemalloc

import numpy as np
import pytest

from stereoedit.audio import SAMPLE_RATE, AudioBuffer, SourceClip
from stereoedit.errors import UnsupportedFormat
from stereoedit.spatial import (Direction, EventSpec, Scene, db_to_linear,
                                itd_samples, pan_gains, render_scene,
                                spatialize)


def _clip(n=1000, seed=0, label="x"):
    rng = np.random.default_rng(seed)
    return SourceClip(label=label, samples=rng.uniform(-0.5, 0.5, n))


def test_direction_from_text():
    assert Direction.from_text(" Left ") is Direction.LEFT
    assert Direction.from_text("FRONT") is Direction.FRONT
    with pytest.raises(ValueError):
        Direction.from_text("up")


def test_itd_samples_endpoints():
    # (r/c)(theta + sin theta) at 90 degrees: 0.0875/343*(pi/2+1)*24000
    expected = 0.0875 / 343.0 * (np.pi / 2 + 1.0) * SAMPLE_RATE
    assert itd_samples(90.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(15.74, abs=0.01)
    assert round(itd_samples(90.0)) == 16
    assert round(itd_samples(-90.0)) == -16
    assert itd_samples(0.0) == 0.0
    with pytest.raises(ValueError):
        itd_samples(120.0)


def test_pan_gains_constant_power():
    for az in (-90.0, -45.0, 0.0, 30.0, 90.0):
        gl, gr = pan_gains(az)
        assert gl > 0 and gr > 0
        assert gl * gl + gr * gr == pytest.approx(1.0, abs=1e-12)


def test_pan_gains_front_symmetric_and_sided():
    gl, gr = pan_gains(0.0)
    assert gl == gr == float(np.sqrt(0.5))
    ll, lr = pan_gains(-90.0)
    assert ll > lr  # left source louder on the left
    rl, rr = pan_gains(90.0)
    assert rr > rl


def test_spatialize_front_identical_channels():
    buf = spatialize(_clip(), Direction.FRONT)
    np.testing.assert_array_equal(buf.left, buf.right)


def test_spatialize_right_delays_left_by_16():
    clip = _clip()
    buf = spatialize(clip, Direction.RIGHT)
    gl, gr = pan_gains(90.0)
    np.testing.assert_allclose(buf.right, clip.samples * gr, rtol=1e-12)
    assert np.all(buf.left[:16] == 0.0)
    np.testing.assert_allclose(buf.left[16:], clip.samples[:-16] * gl,
                               rtol=1e-12)


def test_spatialize_left_delays_right():
    clip = _clip()
    buf = spatialize(clip, Direction.LEFT)
    assert np.all(buf.right[:16] == 0.0)
    assert buf.num_samples == len(clip.samples)


def test_spatialize_gain():
    clip = _clip()
    quiet = spatialize(clip, Direction.FRONT, gain_db=-6.0)
    loud = spatialize(clip, Direction.FRONT, gain_db=0.0)
    ratio = db_to_linear(-6.0)
    np.testing.assert_allclose(quiet.samples, loud.samples * ratio, rtol=1e-12)


def test_scene_unique_ids():
    clip = _clip()
    ev = EventSpec("e0", "x", clip, Direction.FRONT, 0.0)
    with pytest.raises(ValueError):
        Scene((ev, ev))


def test_next_event_id_follows_the_highest_id():
    clip = _clip()
    ev1 = EventSpec("e1", "a", clip, Direction.FRONT, 0.0)
    ev5 = EventSpec("e5", "b", clip, Direction.LEFT, 0.0)
    scene = Scene((ev1, ev5), len(clip.samples) / SAMPLE_RATE)
    assert scene.next_event_id() == "e6"


def test_render_scene_is_superposition():
    c1, c2 = _clip(seed=1, label="a"), _clip(seed=2, label="b")
    n = len(c1.samples)
    dur = n / SAMPLE_RATE
    e1 = EventSpec("e0", "a", c1, Direction.LEFT, -3.0)
    e2 = EventSpec("e1", "b", c2, Direction.RIGHT, 0.0)
    both = render_scene(Scene((e1, e2), dur))
    s1 = render_scene(Scene((e1,), dur))
    s2 = render_scene(Scene((e2,), dur))
    np.testing.assert_array_equal(both.samples, s1.samples + s2.samples)


def test_render_scene_length():
    scene = Scene((EventSpec("e0", "a", _clip(240000), Direction.FRONT, 0.0),),
                  10.0)
    assert render_scene(scene).num_samples == 240000


def _reference_spatialize(clip, direction, gain_db):
    """The separate-channel formula: scale each channel, then delay the far
    one by shifting it right behind zeros."""
    az = direction.azimuth_deg
    gl, gr = pan_gains(az)
    g = db_to_linear(gain_db)
    left = clip.samples * (gl * g)
    right = clip.samples * (gr * g)
    delay = round(itd_samples(az))
    if delay > 0:
        left = np.concatenate([np.zeros(delay), left[:-delay]])
    elif delay < 0:
        right = np.concatenate([np.zeros(-delay), right[:delay]])
    return np.stack([left, right])


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("gain_db", [0.0, -4.5, 3.0])
def test_spatialize_bit_exact_against_reference(direction, gain_db,
                                               monkeypatch):
    # hand out non-zero fresh memory, so a far channel whose head was never
    # written cannot pass as zeroed
    real_empty = np.empty

    def poisoned_empty(*args, **kwargs):
        out = real_empty(*args, **kwargs)
        out.fill(7.0)
        return out

    monkeypatch.setattr(np, "empty", poisoned_empty)
    clip = _clip(n=4000, seed=7)
    buf = spatialize(clip, direction, gain_db)
    expected = _reference_spatialize(clip, direction, gain_db)
    assert np.array_equal(buf.samples, expected)
    delay = round(itd_samples(direction.azimuth_deg))
    if delay:
        far = buf.left if delay > 0 else buf.right
        assert np.all(far[:abs(delay)] == 0.0)
        assert far[abs(delay)] != 0.0


def test_spatialize_allocates_only_its_output():
    clip = _clip(n=240000, seed=3)
    for direction in Direction:
        tracemalloc.start()
        try:
            buf = spatialize(clip, direction, -2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * buf.samples.nbytes, (direction, peak)


def _reference_render(scene):
    """The whole-buffer formula: add each event's spatialize() render, in
    event order, to zeros."""
    total = np.zeros((2, scene.num_samples))
    for e in scene.events:
        total += spatialize(e.clip, e.direction, e.gain_db).samples
    return total


def test_render_scene_bit_exact_against_reference(make_scene):
    scene = make_scene(seed=4, k_min=5, k_max=5)
    assert {e.direction for e in scene.events} == set(Direction)
    expected = _reference_render(scene)
    assert np.array_equal(render_scene(scene).samples, expected)
    # a caller's buffer is overwritten whatever it held, not added to
    out = np.full((2, scene.num_samples), 7.0)
    audio = render_scene(scene, out=out)
    assert audio.samples is out
    assert np.array_equal(out, expected)


def test_render_scene_rejects_a_mismatched_buffer_or_clip():
    clip = _clip(n=1000)
    scene = Scene((EventSpec("e0", "a", clip, Direction.LEFT, 0.0),),
                  1000 / SAMPLE_RATE)
    for out in (np.empty((2, 999)), np.empty((2, 1000), np.float32)):
        with pytest.raises(ValueError, match="render buffer"):
            render_scene(scene, out=out)
    with pytest.raises(ValueError, match="999 samples"):
        render_scene(Scene((EventSpec("e0", "a", _clip(n=999), Direction.LEFT,
                                      0.0),), 1000 / SAMPLE_RATE))


def test_render_scene_from_a_base_equals_a_full_render(make_scene):
    scene = make_scene(seed=4, k_min=5, k_max=5)
    full = render_scene(scene).samples.tobytes()
    for k in range(len(scene.events) + 1):
        opening = Scene(scene.events[:k], scene.duration_seconds)
        base_audio = render_scene(opening)
        kept = base_audio.samples.copy()
        audio = render_scene(scene, base=(opening, base_audio))
        assert audio.samples.tobytes() == full
        assert audio.samples is not base_audio.samples
        assert np.array_equal(base_audio.samples, kept)


def test_render_scene_rejects_a_base_that_does_not_open_the_scene(make_scene):
    scene = make_scene(seed=4, k_min=5, k_max=5)
    events, duration = scene.events, scene.duration_seconds
    first, second = events[:2]
    copied = EventSpec(first.event_id, first.label, first.clip,
                       first.direction, first.gain_db)
    longer = Scene(events + (EventSpec("e9", "x", first.clip, Direction.LEFT,
                                       0.0),), duration)
    for opening in [Scene((second,), duration), Scene((second, first), duration),
                    Scene((copied,), duration), longer]:
        base_audio = render_scene(opening)
        with pytest.raises(ValueError, match="base"):
            render_scene(scene, base=(opening, base_audio))
    short = AudioBuffer(np.zeros((2, scene.num_samples - 1)))
    with pytest.raises(ValueError, match="base"):
        render_scene(scene, base=(Scene(events[:1], duration), short))


def test_render_scene_from_a_base_raises_when_the_added_event_overflows():
    n = 1000
    # front, at 1.68e308 everywhere: a second copy overflows float64
    loud = EventSpec("e0", "a", SourceClip("a", np.full(n, 1.5)),
                     Direction.FRONT, 6164.0)
    opening = Scene((loud,), n / SAMPLE_RATE)
    base_audio = render_scene(opening)
    kept = base_audio.samples.copy()
    scene = Scene((loud, EventSpec("e1", "b", loud.clip, Direction.FRONT,
                                   6164.0)), n / SAMPLE_RATE)
    with pytest.raises(UnsupportedFormat, match="overflows float64"):
        render_scene(scene, base=(opening, base_audio))
    assert np.array_equal(base_audio.samples, kept)


def test_render_scene_allocates_little_beyond_its_output(make_scene):
    scene = make_scene(seed=4, k_min=5, k_max=5)
    tracemalloc.start()
    try:
        audio = render_scene(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * audio.samples.nbytes
