"""Stereo spatialization: pan-law level cues, interaural delay, scene mixing."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .audio import CANONICAL_SECONDS, SAMPLE_RATE, AudioBuffer, SourceClip
from .errors import UnsupportedFormat

HEAD_RADIUS_M = 0.0875
SPEED_OF_SOUND_M_S = 343.0


class Direction(enum.Enum):
    LEFT = "left"
    FRONT = "front"
    RIGHT = "right"

    @property
    def azimuth_deg(self) -> float:
        return {"left": -90.0, "front": 0.0, "right": 90.0}[self.value]

    @classmethod
    def from_text(cls, text: str) -> "Direction":
        return cls(text.strip().lower())


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 20.0)


def itd_samples(azimuth_deg: float) -> float:
    """Woodworth interaural delay in samples.

    tau = (r/c) * (theta + sin(theta)). Positive for sources on the right,
    meaning the left channel is the delayed (far) one.
    """
    if not -90.0 <= azimuth_deg <= 90.0:
        raise ValueError("azimuth must be in [-90, 90] degrees")
    theta = np.deg2rad(azimuth_deg)
    tau = (HEAD_RADIUS_M / SPEED_OF_SOUND_M_S) * (theta + np.sin(theta))
    return float(tau * SAMPLE_RATE)


def pan_gains(azimuth_deg: float) -> tuple[float, float]:
    """Constant-power (left, right) gains over the frontal half-plane.

    The pan angle spans [pi/8, 3*pi/8] so hard left/right keeps an audible
    contralateral channel (the delayed copy the interaural-delay cue lives
    in); gains satisfy left^2 + right^2 = 1 for every azimuth.
    """
    if azimuth_deg == 0.0:
        g = float(np.sqrt(0.5))  # exact channel symmetry at front
        return g, g
    phi = np.pi / 4.0 + np.deg2rad(azimuth_deg) / 4.0
    return float(np.cos(phi)), float(np.sin(phi))


@dataclass(frozen=True)
class EventSpec:
    """One independently editable sound event inside a scene."""

    event_id: str
    label: str
    clip: SourceClip
    direction: Direction
    gain_db: float


@dataclass(frozen=True)
class Scene:
    events: tuple[EventSpec, ...]
    duration_seconds: float = CANONICAL_SECONDS

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        ids = [e.event_id for e in self.events]
        if len(set(ids)) != len(ids):
            raise ValueError("event_id values must be unique within a scene")

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self.events]

    @property
    def num_samples(self) -> int:
        return round(self.duration_seconds * SAMPLE_RATE)

    def next_event_id(self) -> str:
        # one past the highest id present, so a removed top id is reused;
        # manifest v2 plans ids that are never reused
        highest = -1
        for e in self.events:
            if e.event_id.startswith("e") and e.event_id[1:].isdigit():
                highest = max(highest, int(e.event_id[1:]))
        return f"e{highest + 1}"


def _cues(direction: Direction, gain_db: float):
    """((gain, delay) of the left channel, (gain, delay) of the right).

    The gain is the pan-law gain times the event gain; the delay is the
    integer interaural delay of the far channel, 0 for the near one.
    """
    az = direction.azimuth_deg
    g = db_to_linear(gain_db)
    delay = round(itd_samples(az))
    # positive delay: source on the right, so the left channel is far
    delays = (max(delay, 0), max(-delay, 0))
    return tuple((gain * g, d) for gain, d in zip(pan_gains(az), delays))


def spatialize(clip: SourceClip, direction: Direction, gain_db: float = 0.0) -> AudioBuffer:
    """Render a mono clip to stereo with level and integer-sample delay cues.

    Front yields identical channels and no delay. The contralateral channel
    is delayed by round(itd_samples(azimuth)), head-padded with zeros and
    tail-truncated so the canonical length is preserved.

    Both channels are written straight into one (2, n) array, so the render
    allocates its output once and no per-channel temporaries.
    """
    x = clip.samples
    n = len(x)
    out = np.empty((2, n))
    for ch, (gain, d) in enumerate(_cues(direction, gain_db)):
        out[ch, :d] = 0.0
        np.multiply(x[: n - d], gain, out=out[ch, d:])
    return AudioBuffer(out)


# Samples mixed at a time: bounds the render's one temporary to 128 KiB.
_BLOCK = 16384


def render_scene(scene: Scene, out: np.ndarray | None = None,
                 base: tuple[Scene, AudioBuffer] | None = None) -> AudioBuffer:
    """Sample-wise superposition of all spatialized events. Never clips.

    Renders into ``out``, a float64 (2, n) array, when one is given. Each
    event is scaled a block at a time into one small temporary and added to
    the output, so the sums are those of adding whole spatialize() renders
    in event order, bit for bit, without any of them being allocated. A
    mix that overflows float64 raises UnsupportedFormat.

    ``base``, a ``(base_scene, base_audio)`` pair whose events open the
    scene's (the same objects, in order), starts each block from a copy of
    base_audio's: the same sums, so the same bytes. base_audio is only read.
    """
    n = scene.num_samples
    if out is None:
        out = np.empty((2, n))
    elif out.shape != (2, n) or out.dtype != np.float64:
        raise ValueError(f"render buffer must be float64 of shape {(2, n)}")
    start_from = base[1].samples if base else None
    first = len(base[0].events) if base else 0
    if base and (start_from.shape != (2, n) or [*map(id, base[0].events)]
                 != [*map(id, scene.events[:first])]):  # the same objects
        raise ValueError("base must be a render of the scene's first events")
    events = []
    for e in scene.events[first:]:
        if len(e.clip.samples) != n:
            raise ValueError(f"event {e.event_id}: clip has "
                             f"{len(e.clip.samples)} samples, scene {n}")
        events.append((e.clip.samples, _cues(e.direction, e.gain_db)))
    product = np.empty(min(n, _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start in range(0, n, _BLOCK):
            stop = min(start + _BLOCK, n)
            for ch in (0, 1):
                acc = out[ch, start:stop]
                if start_from is None:
                    acc.fill(0.0)
                else:
                    acc[:] = start_from[ch, start:stop]
                for x, cues in events:
                    gain, d = cues[ch]
                    # skipping a delayed channel's zero head is exact: a sum
                    # from +0.0, as a base is, is never -0.0, so +0.0 changes
                    # nothing
                    lo = max(start, d)
                    if lo < stop:
                        tmp = product[: stop - lo]
                        np.multiply(x[lo - d: stop - d], gain, out=tmp)
                        acc[lo - start:] += tmp
    try:
        return AudioBuffer(out)
    except ValueError as exc:  # the shape is right, so the mix overflowed
        raise UnsupportedFormat("scene render overflows float64") from exc
