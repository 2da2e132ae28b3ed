"""Acceptance suite: ten release-gate properties of the toolkit.

Each test prints one PASS/FAIL verdict line, emitted outside pytest's
output capture so it is always visible in the run log.
"""

import functools
import itertools
import json
import random
import shutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stereoedit.audio import SAMPLE_RATE, SourceClip, read_wav
from stereoedit.designer import DesignerConfig, DesignerMode, design_plan_llm
from stereoedit.engine import OracleEditor, apply_step, execute_plan
from stereoedit.errors import StereoEditError, ValidationFailed
from stereoedit.metrics import gcc_mse, gcc_phat_tdoa, lsd, roundtrip_drift
from stereoedit.pipeline import (MANIFEST_NAME, PipelineConfig,
                                 canonical_manifest_bytes, read_manifest,
                                 run_pipeline, sample_scene)
from stereoedit.plans import (Add, Change, EditPlan, Extract, Remove,
                              TurnDown, TurnUp, canonicalize_plan, parse_step,
                              parse_plan_json, plan_to_json, serialize_step,
                              validate_plan)
from stereoedit.spatial import (Direction, itd_samples, render_scene,
                                spatialize)


@pytest.fixture
def report(capfd):
    """One PASS/FAIL verdict line per criterion, bypassing output capture."""

    def _verdict(criterion: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {criterion:2d}] {verdict}: {detail}",
                  flush=True)
        assert ok, f"criterion {criterion} failed: {detail}"

    return _verdict


def _spare_label(catalog, scene) -> str:
    used = {e.label for e in scene.events}
    return next(l for l in catalog.labels if l not in used)


# ---------------------------------------------------------------------------
# 1. Oracle round-trip: five add/remove rounds reconstruct the original.
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_roundtrip(catalog, report):
    worst = 0.0
    for seed in range(20):
        rng = random.Random(seed)
        scene = sample_scene(catalog, rng, duration_seconds=10.0)
        audio = render_scene(scene)
        editor = OracleEditor(scene, catalog=catalog, rng=rng)
        result = roundtrip_drift(editor, audio, _spare_label(catalog, scene),
                                 rounds=5)
        worst = max(worst, max(result.lsd_per_round))
    report(1, worst <= 1e-6,
            f"20 scenes x 5 add/remove rounds, max LSD {worst:.3e} "
            f"(threshold 1e-6)")


# ---------------------------------------------------------------------------
# 2. Each step's inverse or complement, and each stage's residual, at 1e-7,
#    along random plans of every step type (which criterion 7 also draws).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scene_plans(catalog):
    """One-second scenes of 200 seeds, each built on first draw, with 1-5
    steps of every type: targets as R1, R4 and R6 require, a narrowing
    direction the target's own or any, Change twice (the one most dropped)."""

    @functools.cache
    def plans(seed):
        scene = sample_scene(catalog, random.Random(seed),
                             duration_seconds=1.0)
        labels = st.sampled_from(scene.labels)
        sides = st.sampled_from(Direction)
        db = st.integers(0, 6).map(float)

        def narrowed(make, *more):
            return st.builds(lambda e, side, *rest: make(
                e.label, e.direction if side == "own" else side, *rest),
                st.sampled_from(scene.events),
                st.none() | st.just("own") | sides, *more)

        step = st.one_of(
            st.builds(Add, st.sampled_from([l for l in catalog.labels
                                            if l not in scene.labels]),
                      st.none() | sides, st.none() | db),
            narrowed(Remove), narrowed(Extract),
            st.builds(lambda up, *args: (TurnUp if up else TurnDown)(*args),
                      st.booleans(), labels, db),
            st.builds(Change, labels, sides),
            narrowed(lambda label, side, to: Change(label, to, side), sides))
        return st.tuples(st.just(scene),
                         st.lists(step, min_size=1, max_size=5))

    return st.integers(0, 199).flatmap(plans)


def _valid_plan(scene, steps) -> EditPlan:
    """The drawn steps less those the validator flags, if the rest pass."""
    flagged = {v.step_index for v in validate_plan(
        EditPlan("", (), steps), scene.labels).violations}
    kept = EditPlan("", (), [s for i, s in enumerate(steps)
                             if i not in flagged])
    assume(kept.steps and validate_plan(kept, scene.labels).is_valid)
    return kept


def _run_property(prop) -> str:
    try:
        prop()
    except AssertionError as exc:
        return f"; {exc}"
    return ""


def _undone(step, before, after, old, new, after_audio):
    """(suite, audio to match `before`'s): the inverse of the step, which
    edited `old` into `new`, on `after`, or for Remove and Extract `after`
    plus the pair's other step on `before`."""
    if isinstance(step, (Remove, Extract)):
        other = Extract if isinstance(step, Remove) else Remove
        rest = (render_scene(apply_step(before, other(step.label,
                                                      step.direction))[0])
                .samples if len(before.events) > 1 else 0.0)
        return "complement", after_audio + rest  # a sole event's Remove: 0
    if isinstance(step, Add):
        suite, inverse = "add/remove", Remove(step.label, new.direction)
    elif isinstance(step, Change):
        suite, inverse = "change back", Change(step.label, old.direction,
                                               step.to)
    else:
        back = TurnDown if isinstance(step, TurnUp) else TurnUp
        suite, inverse = "turn up/down", back(step.label, step.delta_db)
    return suite, render_scene(apply_step(after, inverse)[0]).samples


def test_criterion_2_edit_inverses(catalog, scene_plans, report):
    worst = dict.fromkeys(("add/remove", "complement", "turn up/down",
                           "change back", "residual"), 0.0)
    cases = dict.fromkeys(worst, 0)

    @settings(max_examples=100)
    @given(scene_plan=scene_plans)
    def every_step_inverts(scene_plan):
        scene, steps = scene_plan
        plan = canonicalize_plan(_valid_plan(scene, steps))
        try:
            stages, edited = execute_plan(scene, plan, catalog=catalog,
                                          rng=random.Random(0))
        except StereoEditError:
            assume(False)  # a direction that names no event: see criterion 7
        audio = [render_scene(stage).samples for stage in stages]
        for i, (step, (edited_id,)) in enumerate(zip(plan.steps, edited)):
            old, new = ({e.event_id: e for e in s.events}  # by event id
                        for s in stages[i:i + 2])
            added, removed = (sum(spatialize(e.clip, e.direction, e.gain_db)
                                  .samples for k, e in a.items()
                                  if b.get(k) != e)
                              for a, b in ((new, old), (old, new)))
            undone = _undone(step, *stages[i:i + 2], old.get(edited_id),
                             new.get(edited_id), audio[i + 1])
            checks = [("residual", audio[i + 1] - audio[i] + removed, added),
                      (*undone, audio[i])]
            for suite, got, want in checks:
                error = float(np.max(np.abs(got - want)))
                worst[suite] = max(worst[suite], error)
                cases[suite] += 1
                assert error <= 1e-7, (
                    f"{suite} error {error:.2e} at {serialize_step(step)!r}"
                    f" of {'; '.join(map(serialize_step, plan.steps))}")

    # a suite's count per run varies by half: run until each has 200 cases
    for _ in range(10):
        failure = _run_property(every_step_inverts)
        if failure or min(cases.values()) >= 200:
            break
    report(2, not failure and min(cases.values()) >= 200,
           "worst per-sample error (threshold 1e-7) and cases per suite: "
           + ", ".join(f"{k} {worst[k]:.2e} over {cases[k]}" for k in worst)
           + " (at least 200 each)" + failure)


# ---------------------------------------------------------------------------
# 3. Spatial-cue recovery via GCC-PHAT.
# ---------------------------------------------------------------------------

def test_criterion_3_spatial_cues(report):
    expected = round(itd_samples(90.0))
    assert expected == 16
    rng = np.random.default_rng(0)
    failures = []
    for case in range(100):
        samples = rng.uniform(-0.5, 0.5, 8192)
        clip = SourceClip(label="noise", samples=samples)
        for direction, want in ((Direction.LEFT, -16), (Direction.RIGHT, 16),
                                (Direction.FRONT, 0)):
            buf = spatialize(clip, direction)
            got = gcc_phat_tdoa(buf.left[2048:2048 + 2048],
                                buf.right[2048:2048 + 2048])
            tolerance = 0 if direction is Direction.FRONT else 1
            if abs(got - want) > tolerance:
                failures.append((case, direction.value, got, want))
    report(3, not failures,
            f"100 broadband events x 3 directions, TDOA = +/-{expected} "
            f"(+/-1) and 0 at front; {len(failures)} mismatches")


# ---------------------------------------------------------------------------
# 4. dB exactness of volume steps.
# ---------------------------------------------------------------------------

def test_criterion_4_db_exactness(catalog, report):
    worst = 0.0
    for d in (2.0, 3.0, 6.0):
        for seed in range(10):
            scene = sample_scene(catalog, random.Random(200 + seed),
                                 duration_seconds=2.0)
            target = scene.events[0].label
            before = render_scene(apply_step(scene, Extract(target))[0])
            turned, _ = apply_step(scene, TurnUp(label=target, delta_db=d))
            after = render_scene(apply_step(turned, Extract(target))[0])
            ratio = after.rms() / before.rms()
            worst = max(worst, abs(ratio / 10 ** (d / 20) - 1.0))
    report(4, worst <= 1e-4,
            f"turn-up by 2/3/6 dB scales isolated RMS by 10^(d/20), "
            f"worst relative error {worst:.2e} (threshold 1e-4)")


# ---------------------------------------------------------------------------
# 5. Plan-language round-trip and fixture parsing.
# ---------------------------------------------------------------------------

TEMPLATE_SENTENCES = [
    ("Add the sound of dog barking at right with 3 db",
     Add(label="dog barking", direction=Direction.RIGHT, gain_db=3.0)),
    ("Remove the sound of bird chirping at right",
     Remove(label="bird chirping", direction=Direction.RIGHT)),
    ("Extract the sound of speaking at the right",
     Extract(label="speaking", direction=Direction.RIGHT)),
    ("Turn up the sound of engine rev by 2 dB",
     TurnUp(label="engine rev", delta_db=2.0)),
    ("Change the sound of baby crying from front to right",
     Change(label="baby crying", from_=Direction.FRONT, to=Direction.RIGHT)),
]

JSON_FIXTURES = [
    {
        "sound sources": ["clock tick", "bird chirp", "wind"],
        "complex editing instruction":
            "Make this sound like a quiet afternoon in a garden",
        "atomic editing steps": [
            {"operation": "remove", "target": "clock tick", "effect": "None"},
            {"operation": "turn up", "target": "bird chirp", "effect": "3dB"},
            {"operation": "add", "target": "gentle breeze",
             "effect": "at front by 2dB"},
        ],
    },
    {
        "sound sources": ["engine rev", "bell ring"],
        "complex editing instruction": "Make this sound like a busy city street",
        "atomic editing steps": [
            {"operation": "remove", "target": "bell ring", "effect": "None"},
            {"operation": "turn down", "target": "engine rev", "effect": "2dB"},
            {"operation": "add", "target": "distant siren",
             "effect": "at left by 2dB"},
            {"operation": "add", "target": "traffic noise",
             "effect": "at front by 3dB"},
        ],
    },
    {
        "sound sources": ["children scream", "insect buzz", "bird call",
                          "chainsaw run"],
        "complex editing instruction":
            "Make this sound like a bustling park on a sunny day.",
        "atomic editing steps": [
            {"operation": "remove", "target": "chainsaw run", "effect": "None"},
            {"operation": "add", "target": "laughter",
             "effect": "at left by 3dB"},
            {"operation": "turn down", "target": "children scream",
             "effect": "2dB"},
            {"operation": "change", "target": "bird call",
             "effect": "to front"},
        ],
    },
]

_LABELS = st.sampled_from(["rain", "dog bark", "rooster crowing",
                           "bell ring", "bell ring 2", "water waves",
                           "footsteps on gravel"])
_DIRECTIONS = st.sampled_from(Direction)
# quarter-dB steps, signed: each prints as a plain decimal the grammar reads
_DB = st.integers(-48, 48).map(lambda quarters: quarters / 4)

# Every atomic step type, with each optional field both unset and set.
atomic_steps = st.one_of(
    st.builds(Add, label=_LABELS, direction=st.none() | _DIRECTIONS,
              gain_db=st.none() | _DB),
    st.builds(Remove, label=_LABELS, direction=st.none() | _DIRECTIONS),
    st.builds(Extract, label=_LABELS, direction=st.none() | _DIRECTIONS),
    st.builds(TurnUp, label=_LABELS, delta_db=_DB),
    st.builds(TurnDown, label=_LABELS, delta_db=_DB),
    st.builds(Change, label=_LABELS, to=_DIRECTIONS,
              from_=st.none() | _DIRECTIONS),
)


@settings(max_examples=1000)
@given(step=atomic_steps)
def _step_roundtrip(step):
    assert parse_step(serialize_step(step)) == step
    plan = EditPlan(instruction="", sound_sources=(), steps=(step,))
    assert parse_plan_json(plan_to_json(plan)).steps == (step,)


def test_criterion_5_plan_roundtrip(report):
    roundtrip_ok = not _run_property(_step_roundtrip)
    template_ok = all(parse_step(text) == want
                      for text, want in TEMPLATE_SENTENCES)
    fixtures_ok = True
    for fixture in JSON_FIXTURES:
        plan = parse_plan_json(json.dumps(fixture))
        fixtures_ok &= len(plan.steps) == len(fixture["atomic editing steps"])
    ok = roundtrip_ok and template_ok and fixtures_ok
    report(5, ok,
            f"1000 generated steps round-trip through template text and "
            f"JSON ok={roundtrip_ok}, "
            f"5 template sentences ok={template_ok}, "
            f"{len(JSON_FIXTURES)} JSON fixtures ok={fixtures_ok}")


# ---------------------------------------------------------------------------
# 6. Validator fidelity: each rule fixture yields exactly its violation.
# ---------------------------------------------------------------------------

def test_criterion_6_validator_fidelity(report):
    labels = ["rain", "dog bark"]

    def plan(*steps):
        return EditPlan(instruction="", sound_sources=tuple(labels),
                        steps=tuple(steps))

    fixtures = [
        ("remove-all", plan(Remove(label="rain"), Remove(label="dog bark")),
         ["R2"]),
        (">2 adds", plan(Add(label="a"), Add(label="b"), Add(label="c")),
         ["R3"]),
        ("dB out of range", plan(TurnUp(label="rain", delta_db=7.0)), ["R5"]),
        ("unmatched target", plan(Remove(label="thunder")), ["R1"]),
        ("duplicate add", plan(Add(label="rain")), ["R4"]),
        ("one label added twice",
         plan(Add(label="wind"), Add(label="Wind", direction=Direction.LEFT)),
         ["R4"]),
        ("target of an add", plan(TurnUp(label="wind", delta_db=2.0),
                                  Add(label="wind")), ["R6"]),
        # the Remove runs first, so the turn-up's target is gone by then
        ("target removed before it runs",
         plan(TurnUp(label="rain", delta_db=2.0), Remove(label="rain")),
         ["R1"]),
        # the Extract runs first, so the added wind would stay
        ("extract after an add", plan(Add(label="wind"), Extract(label="rain")),
         ["R7"]),
        # the Extract runs first, while rain is still at its old direction
        ("qualified extract after a change",
         plan(Change(label="rain", to=Direction.LEFT),
              Extract(label="rain", direction=Direction.LEFT)), ["R7"]),
    ]
    problems = []
    for name, fixture, want in fixtures:
        got = validate_plan(fixture, labels).rule_ids()
        if got != want:
            problems.append(f"{name}: expected {want}, got {got}")
    report(6, not problems,
            f"{len(fixtures)} rule fixtures each yield exactly the expected "
            f"violation"
            + ("" if not problems else "; " + "; ".join(problems)))


# ---------------------------------------------------------------------------
# 7. Canonical-order equivalence of validator-passing plans.
# ---------------------------------------------------------------------------

def test_criterion_7_canonical_order(catalog, scene_plans, report):
    checked = 0
    rooster = sample_scene(catalog, random.Random(0), 3, 3, 1.0)

    def outcome(scene, plan):  # the final render's bytes, or error class
        try:
            stages, _ = execute_plan(scene, plan, catalog=catalog,
                                     rng=random.Random(0))
        except StereoEditError as exc:
            return type(exc).__name__
        return render_scene(stages[-1]).samples.tobytes()

    @settings(max_examples=200)
    @given(scene_plan=scene_plans)
    # always run: a direction-qualified Extract written after a Change
    @example(scene_plan=(rooster, [Change("rooster crow", Direction.LEFT),
                                   Extract("rooster crow", Direction.LEFT)]))
    def written_order_ends_as_canonical(scene_plan):
        nonlocal checked
        scene, steps = scene_plan
        plan = _valid_plan(scene, steps)
        assert outcome(scene, plan) == outcome(
            scene, canonicalize_plan(plan)), (
            f"ends differ: {'; '.join(map(serialize_step, plan.steps))}")
        checked += 1

    failure = _run_property(written_order_ends_as_canonical)
    report(7, not failure and checked >= 200,
           f"{checked} validator-passing plans of every step type, qualified "
           f"ones too, end alike in written and canonical order" + failure)


# ---------------------------------------------------------------------------
# 8. Pipeline determinism and shape.
# ---------------------------------------------------------------------------

def test_criterion_8_pipeline_determinism(catalog, tmp_path, report):
    n = 100
    outs = {}
    for workers in (1, 4):
        out = outs[workers] = tmp_path / f"run_w{workers}"
        cfg = PipelineConfig(record_count=n, output_dir=str(out), seed=42,
                             worker_count=workers)
        stats = run_pipeline(cfg, catalog=catalog)
        assert stats.succeeded == n

    def output(out):  # the manifest bytes, then each WAV's name and bytes
        yield canonical_manifest_bytes(out / MANIFEST_NAME)
        for path in sorted((out / "audio").iterdir()):
            yield path.name, path.read_bytes()

    identical = all(a == b for a, b in itertools.zip_longest(
        output(outs[1]), output(outs[4])))  # one file pair at a time

    rows = read_manifest(outs[1] / MANIFEST_NAME)
    shape_ok = True
    for row in rows:
        k = len(row["scene_initial"]["events"])
        shape_ok &= 2 <= k <= 5
        shape_ok &= len(row["audio_paths"]) == \
            len(row["plan"]["atomic editing steps"]) + 1
    # spot-check exported WAV shape on a sample of records
    for row in rows[::20]:
        for rel in row["audio_paths"]:
            rate, data = read_wav(outs[1] / rel)
            shape_ok &= rate == SAMPLE_RATE and data.shape == (240000, 2)

    for out in outs.values():
        shutil.rmtree(out)

    report(8, identical and shape_ok,
           f"{n} records byte-identical across worker counts {{1,4}}="
           f"{identical}, shape checks ok={shape_ok}")


# ---------------------------------------------------------------------------
# 9. Metric self-consistency.
# ---------------------------------------------------------------------------

def test_criterion_9_metric_self_consistency(report):
    rng = np.random.default_rng(9)
    from stereoedit.audio import AudioBuffer

    a = AudioBuffer(rng.uniform(-0.5, 0.5, (2, 48000)))
    b = AudioBuffer(rng.uniform(-0.5, 0.5, (2, 48000)))
    scaled = AudioBuffer(a.samples * 10 ** (6 / 20))

    self_zero = lsd(a, a) == 0.0
    symmetric = abs(lsd(a, b) - lsd(b, a)) <= 1e-12
    six_db = abs(lsd(a, scaled) - 6.0) <= 1e-6
    gcc_zero = gcc_mse(a, a) == 0.0
    ok = self_zero and symmetric and six_db and gcc_zero
    report(9, ok,
            f"lsd(a,a)=0 {self_zero}, symmetry {symmetric}, "
            f"+6dB scaling -> LSD {lsd(a, scaled):.8f} (target 6.0), "
            f"gcc_mse(a,a)=0 {gcc_zero}")


# ---------------------------------------------------------------------------
# 10. LLM designer robustness against a mock endpoint.
# ---------------------------------------------------------------------------

def test_criterion_10_llm_designer_robustness(caplog, report):
    labels = ["clock tick", "bird chirp", "wind"]
    valid = {
        "sound sources": labels,
        "complex editing instruction": "Make this a garden afternoon",
        "atomic editing steps": [
            {"operation": "remove", "target": "clock tick", "effect": "None"},
            {"operation": "add", "target": "stream water",
             "effect": "at front by 2dB"},
        ],
    }
    invalid = {
        "sound sources": labels,
        "complex editing instruction": "bad",
        "atomic editing steps": [
            {"operation": "remove", "target": l, "effect": "None"}
            for l in labels
        ],
    }
    config = DesignerConfig(mode=DesignerMode.LLM,
                            endpoint_url="http://localhost/fake",
                            max_retries=3)

    calls = []

    def flaky(payload):
        calls.append(payload)
        return ("not json" if len(calls) == 1 else json.dumps(valid))

    with caplog.at_level("INFO", logger="stereoedit.designer"):
        recovered = design_plan_llm([labels], config, transport=flaky)
    recovery_ok = (not recovered.failures
                   and recovered.retry_counts[0] == 1
                   and any("retry" in r.message for r in caplog.records))

    stubborn = design_plan_llm([labels], config,
                               transport=lambda p: json.dumps(invalid))
    failure_ok = (stubborn.plans[0] is None
                  and isinstance(stubborn.failures[0], ValidationFailed))

    batch = design_plan_llm([labels, ["rain", "thunder"]], config,
                            transport=lambda p: json.dumps([valid, {
                                "sound sources": ["rain", "thunder"],
                                "complex editing instruction": "quieter",
                                "atomic editing steps": [
                                    {"operation": "turn down",
                                     "target": "thunder", "effect": "3dB"}],
                            }]))
    accepted_valid = all(
        plan is not None and validate_plan(plan, labels_i).is_valid
        for plan, labels_i in zip(batch.plans,
                                  [labels, ["rain", "thunder"]]))

    ok = recovery_ok and failure_ok and accepted_valid
    report(10, ok,
            f"malformed-then-valid recovers with logged retry={recovery_ok}, "
            f"persistently invalid -> ValidationFailed={failure_ok}, "
            f"all accepted plans validate={accepted_valid}")
