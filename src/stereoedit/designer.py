"""Plan designers: rule-based scenario templates and an LLM endpoint client.

Both produce (high-level instruction, atomic steps) pairs for a sampled
scene and guarantee that every emitted plan passes ``validate_plan`` against
its own source labels. Template mode is pure and fully offline; LLM mode
speaks a generic chat-completion JSON protocol so any compatible provider
works.
"""

from __future__ import annotations

import enum
import json
import logging
import math
import os
import random
import re
from dataclasses import dataclass
from importlib import resources

from .errors import (AuthFailure, EndpointUnreachable, JsonSyntaxError,
                     MalformedResponse, NoCompatibleScenario, SchemaError,
                     ValidationFailed)
from .plans import (Add, Change, EditPlan, Remove, TurnDown, TurnUp,
                    normalize_label, parse_plan_json, validate_plan)
from .spatial import Direction

log = logging.getLogger(__name__)


def base_prompt() -> str:
    return resources.files("stereoedit.assets").joinpath("base_prompt.txt") \
        .read_text(encoding="utf-8")


class DesignerMode(enum.Enum):
    TEMPLATE = "template"
    LLM = "llm"


@dataclass(frozen=True)
class DesignerConfig:
    mode: DesignerMode = DesignerMode.TEMPLATE
    endpoint_url: str | None = None
    api_key_env: str = "STEREOEDIT_API_KEY"
    model_name: str | None = None
    max_retries: int = 3
    temperature: float | None = None
    batch_size: int = 15

    def __post_init__(self):
        optional = (str, type(None))
        for name, types in (("endpoint_url", optional),
                            ("model_name", optional), ("api_key_env", str)):
            if not isinstance(getattr(self, name), types):
                raise TypeError(f"{name} must be a string")
        for name, least in (("max_retries", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if type(value) is not int:  # exact, so not a bool
                raise TypeError(f"{name} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be at least {least}")
        t = self.temperature
        if t is not None and (type(t) not in (int, float)
                              or not math.isfinite(t)):
            raise TypeError("temperature must be a finite number")
        if self.mode is DesignerMode.LLM and not self.endpoint_url:
            raise ValueError("LLM designer mode requires endpoint_url")


# ---------------------------------------------------------------------------
# Template designer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioTemplate:
    name: str
    instruction_pattern: str
    compatible_labels: frozenset[str]
    compatible_add_labels: tuple[str, ...]

    def incompatible(self, scene_labels) -> list[str]:
        return [l for l in scene_labels
                if normalize_label(l) not in self.compatible_labels]


def _theme(name, instruction, compatible, adds) -> ScenarioTemplate:
    return ScenarioTemplate(
        name=name,
        instruction_pattern=instruction,
        compatible_labels=frozenset(normalize_label(l) for l in compatible),
        compatible_add_labels=tuple(adds),
    )


BUILTIN_THEMES: tuple[ScenarioTemplate, ...] = (
    _theme("coffee shop", "Make this sound like a busy coffee shop",
           ["crowd chatter", "keyboard typing", "phone ringing", "bell ring",
            "footsteps"],
           ["crowd chatter", "keyboard typing"]),
    _theme("train station", "Make this sound like a train station",
           ["crowd chatter", "footsteps", "bell ring", "traffic noise",
            "engine rev"],
           ["crowd chatter", "bell ring"]),
    _theme("forest night", "Make this sound like a forest at night",
           ["owl hoot", "cricket chirp", "wind", "stream water"],
           ["owl hoot", "cricket chirp"]),
    _theme("beach", "Make this sound like a beach",
           ["waves", "seagull call", "wind", "crowd chatter"],
           ["waves", "seagull call"]),
    _theme("sunny park", "Craft this sound to feel like a park on a sunny day",
           ["bird chirp", "crowd chatter", "footsteps", "wind", "dog bark"],
           ["bird chirp", "crowd chatter"]),
    _theme("quiet farm", "Make this audio sound like a quiet farm",
           ["rooster crow", "dog bark", "wind", "bird chirp"],
           ["rooster crow", "dog bark"]),
    _theme("rainy evening", "Make this sound like a rainy evening",
           ["rain", "thunder", "wind"],
           ["rain", "thunder"]),
    _theme("campfire", "Make this sound like a night around a campfire",
           ["fire crackle", "cricket chirp", "owl hoot", "wind"],
           ["fire crackle", "cricket chirp"]),
    _theme("busy street", "Make this sound like a busy city street",
           ["traffic noise", "engine rev", "crowd chatter", "footsteps",
            "phone ringing"],
           ["traffic noise", "crowd chatter"]),
    _theme("mountain stream", "Make this sound like a hike along a mountain stream",
           ["stream water", "bird chirp", "wind"],
           ["stream water", "bird chirp"]),
    _theme("office", "Make this sound like a busy office",
           ["keyboard typing", "phone ringing", "clock tick", "crowd chatter"],
           ["keyboard typing", "phone ringing"]),
    _theme("harbor", "Make this sound like a harbor in the morning",
           ["seagull call", "waves", "bell ring", "wind"],
           ["seagull call", "waves"]),
    _theme("countryside morning", "Make this sound like a countryside morning",
           ["rooster crow", "bird chirp", "wind", "dog bark", "stream water"],
           ["rooster crow", "bird chirp"]),
    _theme("stormy coast", "Make this sound like a stormy coastline",
           ["waves", "thunder", "wind", "rain", "seagull call"],
           ["thunder", "waves"]),
    _theme("old library", "Make this sound like an old library",
           ["clock tick", "footsteps", "keyboard typing"],
           ["clock tick", "footsteps"]),
    _theme("garden afternoon", "Make this sound like a quiet afternoon in a garden",
           ["bird chirp", "wind", "cricket chirp", "stream water"],
           ["bird chirp", "wind"]),
    _theme("city night", "Make this sound like a city at night",
           ["traffic noise", "crowd chatter", "phone ringing", "engine rev"],
           ["traffic noise", "phone ringing"]),
    _theme("meadow", "Make this sound like a meadow in summer",
           ["cricket chirp", "bird chirp", "wind"],
           ["cricket chirp", "wind"]),
    _theme("marketplace", "Make this sound like an open-air marketplace",
           ["crowd chatter", "bell ring", "footsteps", "dog bark"],
           ["crowd chatter", "footsteps"]),
    _theme("winter cabin", "Make this sound like a warm cabin in winter",
           ["fire crackle", "wind", "clock tick", "owl hoot"],
           ["fire crackle", "clock tick"]),
)

_DIRECTIONS = (Direction.LEFT, Direction.FRONT, Direction.RIGHT)


def design_plan_template(scene_labels, rng: random.Random,
                         themes: tuple[ScenarioTemplate, ...] = BUILTIN_THEMES,
                         ) -> EditPlan:
    """Deterministic rule-based designer.

    Picks a scenario theme, removes 1-2 theme-incompatible sources (never
    all), modifies 0-2 of the survivors, and adds 0-2 theme-fitting sources.
    The result always passes validate_plan against scene_labels.
    """
    scene_labels = list(scene_labels)
    if len(scene_labels) < 2:
        raise NoCompatibleScenario("need at least two scene labels")
    scene_keys = {normalize_label(l) for l in scene_labels}

    order = list(themes)
    rng.shuffle(order)
    theme = None
    for candidate in order:
        if candidate.incompatible(scene_labels):
            theme = candidate
            break
    if theme is None:
        raise NoCompatibleScenario(
            "no scenario theme finds a removable source in "
            + ", ".join(scene_labels))

    incompatible = theme.incompatible(scene_labels)
    max_removes = min(2, len(incompatible), len(scene_labels) - 1)
    n_removes = rng.randint(1, max_removes)
    removed = rng.sample(incompatible, n_removes)

    remaining = [l for l in scene_labels if l not in removed]
    n_mods = rng.randint(0, min(2, len(remaining)))
    mod_targets = rng.sample(remaining, n_mods)
    mods = []
    for target in mod_targets:
        kind = rng.choice((TurnUp, TurnDown, Change))
        if kind is Change:
            mods.append(Change(label=target, to=rng.choice(_DIRECTIONS)))
        else:
            mods.append(kind(label=target, delta_db=float(rng.randint(1, 6))))

    add_candidates = [a for a in theme.compatible_add_labels
                      if normalize_label(a) not in scene_keys]
    n_adds = rng.randint(0, min(2, len(add_candidates)))
    adds = [Add(label=label,
                direction=rng.choice(_DIRECTIONS),
                gain_db=float(rng.randint(0, 6)))
            for label in rng.sample(add_candidates, n_adds)]

    steps = tuple(Remove(label=l) for l in removed) + tuple(mods) + tuple(adds)
    plan = EditPlan(instruction=theme.instruction_pattern,
                    sound_sources=tuple(scene_labels),
                    steps=steps)
    report = validate_plan(plan, scene_labels)
    if not report.is_valid:  # guards template-ontology regressions
        raise NoCompatibleScenario(
            f"theme {theme.name!r} produced an invalid plan: {report.violations}")
    return plan


# ---------------------------------------------------------------------------
# LLM designer
# ---------------------------------------------------------------------------

_FENCE_RE = re.compile(r"^\s*```[a-zA-Z0-9_-]*\s*\n(.*?)\n\s*```\s*$", re.DOTALL)


def strip_markdown_fence(text: str) -> str:
    m = _FENCE_RE.match(text)
    return m.group(1) if m else text


@dataclass
class DesignerBatchResult:
    plans: list  # EditPlan | None, aligned with the input batch
    failures: dict  # index -> exception
    retry_counts: dict  # index -> number of individual re-requests


def _default_transport(config: DesignerConfig):
    import requests

    api_key = os.environ.get(config.api_key_env)
    if not api_key:
        raise AuthFailure(
            f"environment variable {config.api_key_env} is not set")
    session = requests.Session()

    def post(payload: dict) -> str:
        headers = {"Authorization": f"Bearer {api_key}"}
        try:
            resp = session.post(config.endpoint_url, json=payload,
                                headers=headers, timeout=120)
        except requests.RequestException as exc:
            raise EndpointUnreachable(str(exc)) from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"endpoint returned {resp.status_code}")
        if resp.status_code >= 400:
            raise EndpointUnreachable(f"endpoint returned {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (RecursionError, ValueError, KeyError, IndexError,
                TypeError) as exc:  # not JSON, nested too deep or mis-shaped
            raise MalformedResponse(f"unexpected response shape: {exc}") from exc

    return post


def _build_payload(config: DesignerConfig, system_text: str,
                   user_text: str) -> dict:
    payload = {
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
    }
    if config.model_name:
        payload["model"] = config.model_name
    if config.temperature is not None:
        payload["temperature"] = config.temperature
    return payload


def _batch_request_text(batch) -> str:
    return ("Here are {} sets of sound sources:\n{}\n"
            "Return a JSON array with exactly one output object per set, "
            "in the same order.".format(
                len(batch), json.dumps([list(b) for b in batch])))


def _parse_content(content: str, count: int) -> list:
    """A response's plans: a JSON array of ``count``, or for one scene also
    the bare plan object that the base prompt asks for."""
    try:
        data = json.loads(strip_markdown_fence(content).strip())
    except (TypeError, RecursionError, json.JSONDecodeError) as exc:
        # not text, nested too deep to parse, or not JSON
        raise MalformedResponse(f"response is not JSON: {exc}") from exc
    if count == 1 and isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or len(data) != count:
        raise MalformedResponse(f"expected a JSON array of {count} plans")
    return data


def _plan_from_obj(obj, scene_labels) -> EditPlan:
    if not isinstance(obj, dict):
        raise MalformedResponse("plan must be a JSON object")
    try:
        plan = parse_plan_json(obj)
    except (JsonSyntaxError, SchemaError) as exc:
        raise MalformedResponse(f"plan does not match schema: {exc}") from exc
    validate_plan(plan, scene_labels).raise_if_invalid()
    if not plan.sound_sources:
        plan = EditPlan(instruction=plan.instruction,
                        sound_sources=tuple(scene_labels),
                        steps=plan.steps, warnings=plan.warnings)
    return plan


def design_plan_llm(scene_labels_batch, config: DesignerConfig,
                    transport=None) -> DesignerBatchResult:
    """Request plans for a batch of scenes from a chat-completion endpoint.

    Each scene's plan is parsed and validated; individual failures are
    re-requested up to config.max_retries, then logged and dropped. The
    transport argument (payload dict -> content string) exists for tests
    and alternative providers.
    """
    if transport is None:
        transport = _default_transport(config)

    prompt = base_prompt()
    batch = [list(labels) for labels in scene_labels_batch]
    indices = range(len(batch))
    plans: list = [None] * len(batch)
    errors: dict = {}
    retry_counts = dict.fromkeys(indices, 0)

    def request(chunk):
        """Request the scenes at indices ``chunk``; store each plan or error."""
        text = _batch_request_text([batch[i] for i in chunk])
        try:
            objs = _parse_content(
                transport(_build_payload(config, prompt, text)), len(chunk))
        except MalformedResponse as exc:
            errors.update(dict.fromkeys(chunk, exc))
            return
        for i, obj in zip(chunk, objs):
            try:
                plans[i] = _plan_from_obj(obj, batch[i])
            except (MalformedResponse, ValidationFailed) as exc:
                errors[i] = exc

    # initial pass, chunked by batch_size, then individual retries
    step = config.batch_size
    for start in range(0, len(batch), step):
        request(indices[start:start + step])
    for i in indices:
        while plans[i] is None and retry_counts[i] < config.max_retries:
            retry_counts[i] += 1
            log.info("designer retry %d/%d for scene %d (%s)",
                     retry_counts[i], config.max_retries, i, errors[i])
            request([i])
        if plans[i] is None:
            log.warning("designer dropped scene %d after %d retries: %s",
                        i, retry_counts[i], errors[i])
    failures = {i: errors[i] for i in indices if plans[i] is None}
    return DesignerBatchResult(plans=plans, failures=failures,
                               retry_counts=retry_counts)
