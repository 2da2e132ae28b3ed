"""Edit-plan language: atomic steps, template text, JSON form, validation.

Two surface forms are supported and kept convertible:

* template text, one step per line, e.g.
  ``Add the sound of rooster crowing at right with 3 db``
* structured JSON with ``sound sources`` / ``complex editing instruction`` /
  ``atomic editing steps`` keys, each step an
  ``{"operation": ..., "target": ..., "effect": ...}`` object.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

from .errors import JsonSyntaxError, ParseError, SchemaError, ValidationFailed
from .spatial import Direction

MIN_DELTA_DB = 0.0
MAX_DELTA_DB = 6.0


def normalize_label(label: str) -> str:
    """Case-insensitive, whitespace-collapsed comparison key."""
    return " ".join(label.lower().split())


# ---------------------------------------------------------------------------
# Atomic steps
# ---------------------------------------------------------------------------

_DIR = "left|front|right"
_NUM = r"[-+]?\d+(?:\.\d+)?"


def _pattern(text: str) -> re.Pattern:
    return re.compile(text, re.IGNORECASE)


@dataclass(frozen=True)
class AtomicStep:
    """Base of the six step types. Each describes both surface forms of
    itself in the class attributes below. Patterns have one named group per
    field; emitters map a field to its text, which is left out when the
    field is None."""

    label: str

    operation: ClassVar[str]  # JSON operation; the template's leading words
    aliases: ClassVar[tuple[str, ...]] = ()  # more JSON operations accepted
    group: ClassVar[int]  # canonical order: 0 remove/extract, 1 modify, 2 add
    template: ClassVar[re.Pattern]  # the whole template sentence
    hint: ClassVar[str]  # the template shape quoted by parse errors
    pieces: ClassVar[dict[str, str]]  # after "<Operation> the sound of <label>"
    effect: ClassVar[re.Pattern]  # matches "" iff the effect may be empty
    effect_pieces: ClassVar[dict[str, str]]  # space-joined; "None" if none


@dataclass(frozen=True)
class Add(AtomicStep):
    direction: Direction | None = None
    gain_db: float | None = None

    operation = "add"
    group = 2
    template = _pattern(
        rf"add the sound of (?P<label>.+?)(?: at (?P<direction>{_DIR}))?"
        rf"(?: (?:with|by) (?P<gain_db>{_NUM})\s*db)?")
    hint = "Add the sound of <label> [at <dir>] [with <n> db]"
    pieces = {"direction": " at {}", "gain_db": " with {} db"}
    effect = _pattern(rf"(?:at (?P<direction>{_DIR}))?\s*"
                      rf"(?:(?:by|with)\s*(?P<gain_db>{_NUM})\s*db)?")
    effect_pieces = {"direction": "at {}", "gain_db": "by {}dB"}


@dataclass(frozen=True)
class _OneEventStep(AtomicStep):
    """Remove and Extract: a target optionally narrowed by direction."""

    direction: Direction | None = None

    group = 0
    pieces = {"direction": " at {}"}
    effect = _pattern(rf"(?:at (?:the )?(?P<direction>{_DIR}))?")
    effect_pieces = {"direction": "at {}"}


@dataclass(frozen=True)
class Remove(_OneEventStep):
    operation = "remove"
    template = _pattern(rf"remove the sound of (?P<label>.+?)"
                        rf"(?: at (?:the )?(?P<direction>{_DIR}))?")
    hint = "Remove the sound of <label> [at <dir>]"


@dataclass(frozen=True)
class Extract(_OneEventStep):
    operation = "extract"
    template = _pattern(rf"extract the sound of (?P<label>.+?)"
                        rf"(?: at (?:the )?(?P<direction>{_DIR}))?")
    hint = "Extract the sound of <label> [at <dir>]"


@dataclass(frozen=True)
class _VolumeStep(AtomicStep):
    """TurnUp and TurnDown: a target and a dB amount."""

    delta_db: float = 0.0

    group = 1
    pieces = {"delta_db": " by {} dB"}
    effect = _pattern(rf"(?:by\s+)?(?P<delta_db>{_NUM})\s*db")
    effect_pieces = {"delta_db": "{}dB"}


@dataclass(frozen=True)
class TurnUp(_VolumeStep):
    operation = "turn up"
    aliases = ("turnup",)
    template = _pattern(rf"turn up (?:the )?(?:the )?sound of (?P<label>.+?) "
                        rf"by (?P<delta_db>{_NUM})\s*db")
    hint = "Turn up the sound of <label> by <n> dB"


@dataclass(frozen=True)
class TurnDown(_VolumeStep):
    operation = "turn down"
    aliases = ("turndown",)
    template = _pattern(rf"turn down (?:the )?(?:the )?sound of (?P<label>.+?) "
                        rf"by (?P<delta_db>{_NUM})\s*db")
    hint = "Turn down the sound of <label> by <n> dB"


@dataclass(frozen=True)
class Change(AtomicStep):
    to: Direction = Direction.FRONT
    from_: Direction | None = None

    operation = "change"
    group = 1
    template = _pattern(rf"change the sound of (?P<label>.+?)"
                        rf"(?: from (?P<from_>{_DIR}))? to (?P<to>{_DIR})")
    hint = "Change the sound of <label> [from <dir>] to <dir>"
    pieces = {"from_": " from {}", "to": " to {}"}
    effect = _pattern(rf"(?:from (?P<from_>{_DIR})\s+)?to (?P<to>{_DIR})")
    effect_pieces = {"from_": "from {}", "to": "to {}"}


_STEP_TYPES = (Add, Remove, Extract, TurnUp, TurnDown, Change)

_BY_OPERATION = {op: cls for cls in _STEP_TYPES
                 for op in (cls.operation, *cls.aliases)}

_FIELD_TYPES = {"label": str, "direction": Direction.from_text,
                "to": Direction.from_text, "from_": Direction.from_text,
                "gain_db": float, "delta_db": float}


def _step_type(step: AtomicStep) -> type[AtomicStep]:
    if not isinstance(step, _STEP_TYPES):
        raise TypeError(f"unknown step type: {type(step).__name__}")
    return type(step)


def _fields(match: re.Match) -> dict:
    """Typed step fields from the named groups a pattern matched."""
    return {name: _FIELD_TYPES[name](text)
            for name, text in match.groupdict().items() if text is not None}


def _fmt_db(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _emit(step: AtomicStep, pieces: dict[str, str]) -> list[str]:
    """The fragments whose field is set, formatted with that field's value."""
    out = []
    for name, piece in pieces.items():
        value = getattr(step, name)
        if value is not None:
            out.append(piece.format(
                value.value if isinstance(value, Direction) else _fmt_db(value)))
    return out


@dataclass(frozen=True)
class EditPlan:
    instruction: str
    sound_sources: tuple[str, ...]
    steps: tuple[AtomicStep, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sound_sources", tuple(self.sound_sources))
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "warnings", tuple(self.warnings))


# ---------------------------------------------------------------------------
# Template text form
# ---------------------------------------------------------------------------

def parse_step(text: str) -> AtomicStep:
    """Parse one canonical template sentence into an AtomicStep."""
    line = text.strip()
    lowered = line.lower()
    for cls in _STEP_TYPES:
        if lowered.startswith(cls.operation + " "):
            m = cls.template.fullmatch(line)
            if not m:
                raise ParseError(f"malformed {cls.operation} step: {line!r}; "
                                 f"expected {cls.hint!r}")
            return cls(**_fields(m))
    raise ParseError(f"unrecognized step: {line!r}; expected one of: Add / "
                     "Remove / Extract / Turn up / Turn down / Change")


def serialize_step(step: AtomicStep) -> str:
    """Emit the canonical template sentence; inverse of parse_step."""
    cls = _step_type(step)
    return (f"{cls.operation.capitalize()} the sound of {step.label}"
            + "".join(_emit(step, cls.pieces)))


def parse_plan_text(text: str) -> EditPlan:
    """Parse a block of template lines (one step per line) into a plan."""
    steps = [parse_step(line) for line in text.splitlines() if line.strip()]
    return EditPlan(instruction="", sound_sources=(), steps=tuple(steps))


# ---------------------------------------------------------------------------
# JSON form (base-prompt output shape)
# ---------------------------------------------------------------------------

_PLACEHOLDER_TARGETS = {"none", "null", "nil", "n/a", "placeholder", ""}

_KNOWN_PLAN_KEYS = {"sound sources", "complex editing instruction",
                    "atomic editing steps"}
_KNOWN_STEP_KEYS = {"operation", "target", "effect"}


def _step_from_json(obj: dict, index: int) -> AtomicStep:
    if not isinstance(obj, dict):
        raise SchemaError(f"step {index}: expected an object")
    missing = {"operation", "target"} - set(obj)
    if missing:
        raise SchemaError(f"step {index}: missing key(s) {sorted(missing)}")
    op = str(obj["operation"]).strip().lower()
    target = obj["target"]
    if not isinstance(target, str) or not target.strip():
        raise SchemaError(f"step {index}: target must be a non-empty string")
    target = target.strip()
    cls = _BY_OPERATION.get(op)
    if cls is None:
        raise SchemaError(f"step {index}: unknown operation {obj['operation']!r}")
    if cls is Add and target.lower() in _PLACEHOLDER_TARGETS:
        raise SchemaError(
            f"step {index}: add target must describe the new sound, "
            f"got placeholder {target!r}")

    text = str(obj.get("effect")).strip()  # a missing effect reads "None"
    if text.lower() in {"none", "null"}:
        text = ""
    m = cls.effect.fullmatch(text)
    if not m:
        problem = f"malformed effect {obj['effect']!r}" if text else "requires an effect"
        raise SchemaError(f"step {index}: {op} {problem}")
    return cls(label=target, **_fields(m))


def _step_to_json(step: AtomicStep) -> dict:
    cls = _step_type(step)
    return {"operation": cls.operation, "target": step.label,
            "effect": " ".join(_emit(step, cls.effect_pieces)) or "None"}


def plan_to_json(plan: EditPlan) -> dict:
    return {
        "sound sources": list(plan.sound_sources),
        "complex editing instruction": plan.instruction,
        "atomic editing steps": [_step_to_json(s) for s in plan.steps],
    }


def parse_plan_json(data) -> EditPlan:
    """Parse the base-prompt JSON shape (or a bare list of step objects)."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        if isinstance(data, str):
            data = json.loads(data)
    except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON, too deep
        raise JsonSyntaxError(str(exc)) from exc

    if isinstance(data, list):
        data = {"atomic editing steps": data}
    if not isinstance(data, dict):
        raise SchemaError("plan JSON must be an object or a list of steps")

    warnings = tuple(f"ignored unknown key {k!r}"
                     for k in data if k not in _KNOWN_PLAN_KEYS)
    if "atomic editing steps" not in data:
        raise SchemaError("missing required key 'atomic editing steps'")
    raw_steps = data["atomic editing steps"]
    if not isinstance(raw_steps, list):
        raise SchemaError("'atomic editing steps' must be a list")

    step_warnings = []
    steps = []
    for i, raw in enumerate(raw_steps):
        if isinstance(raw, dict):
            step_warnings.extend(
                f"step {i}: ignored unknown key {k!r}"
                for k in raw if k not in _KNOWN_STEP_KEYS)
        steps.append(_step_from_json(raw, i))

    sources = data.get("sound sources", [])
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise SchemaError("'sound sources' must be a list of strings")

    return EditPlan(
        instruction=str(data.get("complex editing instruction", "")),
        sound_sources=tuple(sources),
        steps=tuple(steps),
        warnings=warnings + tuple(step_warnings),
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    rule_id: str
    step_index: int | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def rule_ids(self) -> list[str]:
        return [v.rule_id for v in self.violations]

    def raise_if_invalid(self) -> None:
        """Raise ValidationFailed listing each violation as ``R1: message``."""
        if self.violations:
            raise ValidationFailed("; ".join(
                f"{v.rule_id}: {v.message}" for v in self.violations))


def validate_plan(plan: EditPlan, scene_labels) -> ValidationReport:
    """Check a plan against the closed rule set R1-R7.

    The steps are checked in the order they run (see canonicalize_plan),
    against the scene sources still present when each step runs. R1 a
    non-Add step must target a source still present; R2 at most two removes,
    and at least one source kept; R3 at most two adds; R4 added labels must
    not duplicate scene labels or each other; R5 dB values within [0, 6]; R6
    no step may target a label that only an Add introduces; R7 no Extract
    may follow an Add in the plan's own order, since it runs first and would
    keep the added sound, and no Remove or Extract narrowed by a direction
    may follow a Change of its label, since it runs first and would match
    the old direction.
    """
    live = Counter(normalize_label(l) for l in scene_labels)
    labels = set(live)
    added = {normalize_label(s.label) for s in plan.steps if isinstance(s, Add)}
    first_add = next((i for i, s in enumerate(plan.steps) if isinstance(s, Add)),
                     len(plan.steps))
    violations: list[Violation] = []
    removes = 0
    adding = []  # labels of the Adds checked so far

    for i in _run_order(plan.steps):
        step = plan.steps[i]
        key = normalize_label(step.label)
        if isinstance(step, Add):
            if key in labels or key in adding:
                twin = "a scene label" if key in labels else "an earlier add"
                violations.append(Violation(
                    "R4", i, f"added label {step.label!r} duplicates {twin}"))
            adding.append(key)
        elif not live[key]:
            rule, why = (("R6", "only an add introduces") if key in added else
                         ("R1", "matches no scene source present when it runs"))
            violations.append(Violation(
                rule, i, f"step {i} targets {step.label!r}, which {why}"))
        elif isinstance(step, Extract):
            live = Counter({key: 1})
        elif isinstance(step, Remove):
            live[key] -= 1
        if isinstance(step, Extract) and i > first_add:
            violations.append(Violation(
                "R7", i, f"step {i} extracts {step.label!r} after an add; "
                "extracts run first, so the added sound would stay"))
        elif (isinstance(step, (Remove, Extract)) and step.direction
              and any(isinstance(s, Change) and normalize_label(s.label) == key
                      for s in plan.steps[:i])):
            violations.append(Violation(
                "R7", i, f"step {i} targets {step.label!r} at "
                f"{step.direction.value} after a change of it; removes and "
                "extracts run first, so it would match the old direction"))
        removes += isinstance(step, Remove)
        value = getattr(step, "delta_db", getattr(step, "gain_db", None))
        if value is not None and not MIN_DELTA_DB <= value <= MAX_DELTA_DB:
            violations.append(Violation(
                "R5", i,
                f"step {i} dB value {value} outside "
                f"[{MIN_DELTA_DB:g}, {MAX_DELTA_DB:g}]"))

    if removes > 2:
        violations.append(Violation(
            "R2", None, f"{removes} removes; at most 2 allowed"))
    if labels and not live.total():
        violations.append(Violation(
            "R2", None, "plan removes every sound source; keep at least one"))
    if len(adding) > 2:
        violations.append(Violation(
            "R3", None, f"{len(adding)} adds; at most 2 allowed"))
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------

def _run_order(steps) -> list[int]:
    """Step indices in the order the steps run: a stable reorder into
    remove/extract, then modify, then add."""
    return sorted(range(len(steps)), key=lambda i: _step_type(steps[i]).group)


def canonicalize_plan(plan: EditPlan) -> EditPlan:
    """The plan with its steps in the order they are checked and run."""
    return EditPlan(instruction=plan.instruction,
                    sound_sources=plan.sound_sources,
                    steps=tuple(plan.steps[i] for i in _run_order(plan.steps)),
                    warnings=plan.warnings)
