import json
import re

import pytest

from stereoedit.errors import JsonSyntaxError, ParseError, SchemaError
from stereoedit.plans import (Add, Change, EditPlan, Extract, Remove,
                              TurnDown, TurnUp, canonicalize_plan,
                              normalize_label, parse_plan_json,
                              parse_plan_text, parse_step, plan_to_json,
                              serialize_step, validate_plan)
from stereoedit.spatial import Direction


# ---------------------------------------------------------------------------
# Template text parsing
# ---------------------------------------------------------------------------

def test_parse_add_full():
    step = parse_step("Add the sound of dog barking at right with 3 db")
    assert step == Add(label="dog barking", direction=Direction.RIGHT,
                       gain_db=3.0)


def test_parse_add_minimal():
    assert parse_step("Add the sound of rain") == Add(label="rain")


def test_parse_add_by_variant():
    step = parse_step("Add the sound of gentle breeze at front by 2dB")
    assert step == Add(label="gentle breeze", direction=Direction.FRONT,
                       gain_db=2.0)


def test_parse_remove():
    step = parse_step("Remove the sound of bird chirping at right")
    assert step == Remove(label="bird chirping", direction=Direction.RIGHT)
    assert parse_step("Remove the sound of rain") == Remove(label="rain")


def test_parse_extract_with_article():
    step = parse_step("Extract the sound of speaking at the right")
    assert step == Extract(label="speaking", direction=Direction.RIGHT)


def test_parse_turn_up_down():
    up = parse_step("Turn up the sound of engine rev by 2 dB")
    assert up == TurnUp(label="engine rev", delta_db=2.0)
    down = parse_step("Turn down the sound of engine rev by 2.5 dB")
    assert down == TurnDown(label="engine rev", delta_db=2.5)


def test_parse_turn_tolerates_doubled_article():
    step = parse_step("Turn up the the sound of bird tweet by 3dB")
    assert step == TurnUp(label="bird tweet", delta_db=3.0)


def test_parse_change():
    step = parse_step("Change the sound of baby crying from front to right")
    assert step == Change(label="baby crying", from_=Direction.FRONT,
                          to=Direction.RIGHT)
    step = parse_step("Change the sound of bird call to front")
    assert step == Change(label="bird call", to=Direction.FRONT)


def test_parse_case_insensitive():
    assert parse_step("REMOVE THE SOUND OF RAIN") == Remove(label="RAIN")


def test_parse_error_carries_hint():
    with pytest.raises(ParseError, match="expected one of: Add / Remove"):
        parse_step("Wiggle the sound of rain")
    # missing dB clause
    with pytest.raises(ParseError, match=re.escape(
            "expected 'Turn up the sound of <label> by <n> dB'")):
        parse_step("Turn up the sound of rain")


# (step, template sentence, JSON operation, JSON effect) for every operation,
# with and without each optional part.
CANONICAL_FORMS = [
    (Add(label="rooster crowing", direction=Direction.RIGHT, gain_db=3.0),
     "Add the sound of rooster crowing at right with 3 db",
     "add", "at right by 3dB"),
    (Add(label="rain"), "Add the sound of rain", "add", "None"),
    (Add(label="rain", direction=Direction.LEFT),
     "Add the sound of rain at left", "add", "at left"),
    (Add(label="rain", gain_db=2.5),
     "Add the sound of rain with 2.5 db", "add", "by 2.5dB"),
    (Remove(label="rain"), "Remove the sound of rain", "remove", "None"),
    (Remove(label="rain", direction=Direction.FRONT),
     "Remove the sound of rain at front", "remove", "at front"),
    (Extract(label="dog bark"), "Extract the sound of dog bark",
     "extract", "None"),
    (Extract(label="dog bark", direction=Direction.LEFT),
     "Extract the sound of dog bark at left", "extract", "at left"),
    (TurnUp(label="engine rev", delta_db=2.0),
     "Turn up the sound of engine rev by 2 dB", "turn up", "2dB"),
    (TurnUp(label="engine rev", delta_db=0.5),
     "Turn up the sound of engine rev by 0.5 dB", "turn up", "0.5dB"),
    (TurnDown(label="engine rev", delta_db=3.0),
     "Turn down the sound of engine rev by 3 dB", "turn down", "3dB"),
    (TurnDown(label="engine rev", delta_db=2.5),
     "Turn down the sound of engine rev by 2.5 dB", "turn down", "2.5dB"),
    (Change(label="bird call", to=Direction.FRONT),
     "Change the sound of bird call to front", "change", "to front"),
    (Change(label="bird call", from_=Direction.LEFT, to=Direction.RIGHT),
     "Change the sound of bird call from left to right",
     "change", "from left to right"),
]


def test_serialize_canonical_forms():
    for step, text, operation, effect in CANONICAL_FORMS:
        assert serialize_step(step) == text
        assert parse_step(text) == step
        plan = EditPlan(instruction="make it so", sound_sources=("rain",),
                        steps=(step,))
        assert plan_to_json(plan) == {
            "sound sources": ["rain"],
            "complex editing instruction": "make it so",
            "atomic editing steps": [{"operation": operation,
                                      "target": step.label,
                                      "effect": effect}],
        }
        assert parse_plan_json(plan_to_json(plan)).steps == (step,)


def test_plan_text_roundtrip():
    text = ("Remove the sound of clock tick\n"
            "Turn up the sound of bird chirp by 3 dB\n"
            "Add the sound of gentle breeze at front with 2 db")
    plan = parse_plan_text(text)
    assert len(plan.steps) == 3
    assert "\n".join(map(serialize_step, plan.steps)) == text


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------

PLAN_JSON = {
    "sound sources": ["clock tick", "bird chirp", "wind"],
    "complex editing instruction":
        "Make this sound like a quiet afternoon in a garden",
    "atomic editing steps": [
        {"operation": "remove", "target": "clock tick", "effect": "None"},
        {"operation": "turn up", "target": "bird chirp", "effect": "3dB"},
        {"operation": "add", "target": "gentle breeze",
         "effect": "at front by 2dB"},
    ],
}


def test_parse_plan_json_full():
    plan = parse_plan_json(json.dumps(PLAN_JSON))
    assert plan.sound_sources == ("clock tick", "bird chirp", "wind")
    assert plan.steps == (
        Remove(label="clock tick"),
        TurnUp(label="bird chirp", delta_db=3.0),
        Add(label="gentle breeze", direction=Direction.FRONT, gain_db=2.0),
    )
    assert not plan.warnings


def test_parse_plan_json_change_effect():
    plan = parse_plan_json(json.dumps([
        {"operation": "change", "target": "bird call", "effect": "to front"},
        {"operation": "change", "target": "dog bark",
         "effect": "from left to right"},
    ]))
    assert plan.steps[0] == Change(label="bird call", to=Direction.FRONT)
    assert plan.steps[1] == Change(label="dog bark", from_=Direction.LEFT,
                                   to=Direction.RIGHT)


def test_parse_plan_json_unknown_keys_warn():
    data = dict(PLAN_JSON)
    data["extra"] = 1
    plan = parse_plan_json(json.dumps(data))
    assert any("extra" in w for w in plan.warnings)


def test_parse_plan_json_bare_step_list_is_the_object_form():
    steps = [{"operation": "remove", "target": "rain", "effect": "None",
              "extra": 1}]
    bare = parse_plan_json(json.dumps(steps))
    assert bare == parse_plan_json({"atomic editing steps": steps})
    assert bare.warnings == ("step 0: ignored unknown key 'extra'",)
    assert (bare.instruction, bare.sound_sources) == ("", ())


def test_parse_plan_json_placeholder_add_target():
    with pytest.raises(SchemaError):
        parse_plan_json(json.dumps([
            {"operation": "add", "target": "none", "effect": "at left by 2dB"}]))


def test_parse_plan_json_bad_syntax():
    with pytest.raises(JsonSyntaxError):
        parse_plan_json("{not json")


def test_parse_plan_json_missing_steps_key():
    with pytest.raises(SchemaError):
        parse_plan_json(json.dumps({"sound sources": []}))


def test_parse_plan_json_unknown_operation():
    with pytest.raises(SchemaError):
        parse_plan_json(json.dumps([
            {"operation": "reverse", "target": "rain", "effect": "None"}]))


def test_plan_json_roundtrip():
    plan = parse_plan_json(json.dumps(PLAN_JSON))
    again = parse_plan_json(json.dumps(plan_to_json(plan)))
    assert again.steps == plan.steps
    assert again.sound_sources == plan.sound_sources


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

LABELS = ["rain", "dog bark", "clock tick"]


def _plan(*steps):
    return EditPlan(instruction="", sound_sources=tuple(LABELS),
                    steps=tuple(steps))


def test_validate_ok():
    report = validate_plan(_plan(Remove(label="rain"),
                                 TurnUp(label="dog bark", delta_db=3.0),
                                 Add(label="wind")), LABELS)
    assert report.is_valid


def test_validate_remove_all_r2():
    report = validate_plan(
        _plan(*[Remove(label=l) for l in LABELS]), LABELS)
    assert set(report.rule_ids()) == {"R2"}  # >2 removes and removes-all


def test_validate_duplicate_add_r4():
    report = validate_plan(_plan(Add(label="Rain")), LABELS)
    assert report.rule_ids() == ["R4"]


def test_validate_label_added_twice_r4():
    # the later Add in run order is flagged, whatever its direction
    report = validate_plan(_plan(Add(label="wind"), Remove(label="rain"),
                                 Add(label="Wind", direction=Direction.LEFT)),
                           LABELS)
    (violation,) = report.violations
    assert (violation.rule_id, violation.step_index) == ("R4", 2)
    assert "earlier add" in violation.message


def test_validate_db_range_r5():
    report = validate_plan(_plan(TurnUp(label="rain", delta_db=7.0)), LABELS)
    assert report.rule_ids() == ["R5"]
    report = validate_plan(_plan(Add(label="wind", gain_db=-1.0)), LABELS)
    assert report.rule_ids() == ["R5"]
    report = validate_plan(_plan(TurnDown(label="rain", delta_db=6.0)), LABELS)
    assert report.is_valid


@pytest.mark.parametrize("steps,want", [
    # the Remove runs first, so the turn-up (step 0 of the plan) finds no rain
    ((TurnUp(label="rain", delta_db=2.0), Remove(label="rain")), [("R1", 0)]),
    ((Remove(label="rain"), Remove(label="rain")), [("R1", 1)]),
    ((Extract(label="rain"), Remove(label="dog bark")), [("R1", 1)]),
    ((Extract(label="rain"), Remove(label="rain")), [("R2", None)]),
    ((Change(label="rain", to=Direction.LEFT),  # R7: the Remove runs first
      Remove(label="rain", direction=Direction.LEFT)), [("R7", 1), ("R1", 0)]),
])
def test_validate_against_sources_present_when_step_runs(steps, want):
    report = validate_plan(_plan(*steps), LABELS)
    assert [(v.rule_id, v.step_index) for v in report.violations] == want


def test_validate_repeated_label_stays_present_after_one_remove():
    labels = ["rain", "rain", "dog bark"]
    plan = _plan(Remove(label="rain", direction=Direction.LEFT),
                 TurnUp(label="rain", delta_db=1.0))
    assert validate_plan(plan, labels).is_valid


def test_normalize_label():
    assert normalize_label("  Dog   Bark ") == "dog bark"


# ---------------------------------------------------------------------------
# Canonical order
# ---------------------------------------------------------------------------

def test_canonicalize_groups_and_stability():
    plan = _plan(Add(label="wind"),
                 TurnUp(label="rain", delta_db=1.0),
                 Remove(label="dog bark"),
                 Change(label="rain", to=Direction.LEFT),
                 Extract(label="clock tick"),
                 Add(label="waves"))
    ordered = canonicalize_plan(plan).steps
    assert [type(s).__name__ for s in ordered] == \
        ["Remove", "Extract", "TurnUp", "Change", "Add", "Add"]
    # stability: relative order within each group preserved
    assert ordered[4].label == "wind" and ordered[5].label == "waves"
    assert sorted(map(str, plan.steps)) == sorted(map(str, ordered))


@pytest.mark.parametrize("data", [b"\xff", b"[" * 100_000, "[" * 100_000],
                         ids=["not-utf8", "deep-bytes", "deep-text"])
def test_parse_plan_json_undecodable_or_too_deep(data):
    with pytest.raises(JsonSyntaxError):
        parse_plan_json(data)
