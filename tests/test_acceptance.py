"""Acceptance suite: ten release-gate properties of the toolkit.

Each test prints one PASS/FAIL verdict line, emitted outside pytest's
output capture so it is always visible in the run log.
"""

import hashlib
import json
import random
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stereoedit.audio import SAMPLE_RATE, SourceClip, read_wav
from stereoedit.designer import DesignerConfig, DesignerMode, design_plan_llm
from stereoedit.engine import OracleEditor, apply_step, execute_plan
from stereoedit.errors import ValidationFailed
from stereoedit.metrics import gcc_mse, gcc_phat_tdoa, lsd, roundtrip_drift
from stereoedit.pipeline import (MANIFEST_NAME, PipelineConfig,
                                 build_trajectory, canonical_manifest_bytes,
                                 read_manifest, run_pipeline, sample_scene)
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
# 2. Edit-inverse and complement suites at 1e-7 per sample.
# ---------------------------------------------------------------------------

def test_criterion_2_edit_inverses(catalog, report):
    tol = 1e-7
    worst = {"add_remove": 0.0, "extract_complement": 0.0,
             "turn_updown": 0.0, "change_involution": 0.0}
    for seed in range(200):
        rng = random.Random(1000 + seed)
        scene = sample_scene(catalog, rng, duration_seconds=2.0)
        original = render_scene(scene)
        target = rng.choice(scene.events)

        # Add then Remove the same new label
        label = _spare_label(catalog, scene)
        added = apply_step(scene, Add(label=label,
                                      direction=rng.choice(list(Direction)),
                                      gain_db=float(rng.randint(0, 6))),
                           catalog=catalog, rng=rng)
        back = apply_step(added.scene_after, Remove(label=label))
        worst["add_remove"] = max(worst["add_remove"], float(np.max(
            np.abs(back.audio_after.samples - original.samples))))

        # Extract + Remove complement
        ext = apply_step(scene, Extract(label=target.label))
        rem = apply_step(scene, Remove(label=target.label))
        worst["extract_complement"] = max(worst["extract_complement"], float(
            np.max(np.abs(ext.audio_after.samples + rem.audio_after.samples
                          - original.samples))))

        # TurnUp then TurnDown by the same delta
        delta = float(rng.randint(1, 6))
        up = apply_step(scene, TurnUp(label=target.label, delta_db=delta))
        down = apply_step(up.scene_after,
                          TurnDown(label=target.label, delta_db=delta))
        worst["turn_updown"] = max(worst["turn_updown"], float(np.max(
            np.abs(down.audio_after.samples - original.samples))))

        # Change direction there and back
        away = rng.choice([d for d in Direction if d is not target.direction])
        moved = apply_step(scene, Change(label=target.label, to=away))
        restored = apply_step(moved.scene_after,
                              Change(label=target.label, to=target.direction))
        worst["change_involution"] = max(worst["change_involution"], float(
            np.max(np.abs(restored.audio_after.samples - original.samples))))

    overall = max(worst.values())
    report(2, overall <= tol,
            "200 cases per suite, worst per-sample error "
            + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
            + " (threshold 1e-7)")


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
            before = apply_step(scene, Extract(label=target)).audio_after
            turned = apply_step(scene, TurnUp(label=target, delta_db=d))
            after = apply_step(turned.scene_after,
                               Extract(label=target)).audio_after
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


@settings(max_examples=1000, deadline=None, database=None)
@given(step=atomic_steps)
def _step_roundtrip(step):
    assert parse_step(serialize_step(step)) == step
    plan = EditPlan(instruction="", sound_sources=(), steps=(step,))
    assert parse_plan_json(plan_to_json(plan)).steps == (step,)


def test_criterion_5_plan_roundtrip(report):
    try:
        _step_roundtrip()
        roundtrip_ok = True
    except AssertionError:  # hypothesis re-raises the shrunk counterexample
        roundtrip_ok = False
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
        ("target of an add", plan(TurnUp(label="wind", delta_db=2.0),
                                  Add(label="wind")), ["R6"]),
        # the Remove runs first, so the turn-up's target is gone by then
        ("target removed before it runs",
         plan(TurnUp(label="rain", delta_db=2.0), Remove(label="rain")),
         ["R1"]),
        # the Extract runs first, so the added wind would stay
        ("extract after an add", plan(Add(label="wind"), Extract(label="rain")),
         ["R7"]),
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

def _scene_and_steps(scene, catalog):
    """The scene with 1-5 steps of every type and no direction qualifier.
    Non-Add steps target a scene label, and Adds a catalog label the scene
    lacks, with direction and gain each set or unset, as the template
    designer's Adds have them. R1, R4 and R6 reject every other target."""
    label = st.sampled_from(scene.labels)
    db = st.integers(0, 6).map(float)
    step = st.one_of(
        st.builds(Add, label=st.sampled_from(
                      [l for l in catalog.labels if l not in scene.labels]),
                  direction=st.none() | st.sampled_from(Direction),
                  gain_db=st.none() | db),
        st.builds(Remove, label=label),
        st.builds(Extract, label=label),
        st.builds(TurnUp, label=label, delta_db=db),
        st.builds(TurnDown, label=label, delta_db=db),
        st.builds(Change, label=label, to=st.sampled_from(Direction)),
    )
    return st.tuples(st.just(scene), st.lists(step, min_size=1, max_size=5))


def test_criterion_7_canonical_order(catalog, report):
    scene_plans = st.one_of([_scene_and_steps(
        sample_scene(catalog, random.Random(seed), duration_seconds=1.0),
        catalog) for seed in range(20)])
    checked = 0

    @settings(max_examples=300, deadline=None, database=None)
    @given(scene_plan=scene_plans)
    def written_order_renders_as_canonical(scene_plan):
        nonlocal checked
        scene, steps = scene_plan
        plan = EditPlan(instruction="", sound_sources=(), steps=tuple(steps))
        assume(validate_plan(plan, scene.labels).is_valid)
        finals = [render_scene(execute_plan(scene, order, catalog=catalog,
                                            rng=random.Random(0))[0][-1])
                  for order in (plan, canonicalize_plan(plan))]
        same = finals[0].samples.tobytes() == finals[1].samples.tobytes()
        assert same, f"renders differ: {'; '.join(map(serialize_step, steps))}"
        checked += 1

    try:
        written_order_renders_as_canonical()
        failure = ""
    except AssertionError as exc:  # the shrunk counterexample
        failure = f"; {exc}"
    report(7, not failure and checked >= 200,
            f"{checked} validator-passing plans of every step type run in "
            f"written and canonical order render to identical bytes"
            + failure)


# ---------------------------------------------------------------------------
# 8. Pipeline determinism and shape.
# ---------------------------------------------------------------------------

def _audio_hashes(out_dir):
    hashes = {}
    for path in sorted((out_dir / "audio").iterdir()):
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def _changed_sets(before, after):
    bm = {e.event_id: e for e in before.events}
    am = {e.event_id: e for e in after.events}
    gone = [e for i, e in bm.items() if am.get(i) != e]
    new = [e for i, e in am.items() if bm.get(i) != e]
    return gone, new


def test_criterion_8_pipeline_determinism(catalog, tmp_path, report):
    n = 100
    runs = {}
    for workers in (1, 4):
        out = tmp_path / f"run_w{workers}"
        cfg = PipelineConfig(record_count=n, output_dir=str(out), seed=42,
                             worker_count=workers)
        stats = run_pipeline(cfg, catalog=catalog)
        assert stats.succeeded == n
        runs[workers] = (canonical_manifest_bytes(out / MANIFEST_NAME),
                         _audio_hashes(out), out)

    identical = (runs[1][0] == runs[4][0] and runs[1][1] == runs[4][1])

    rows = read_manifest(runs[1][2] / MANIFEST_NAME)
    shape_ok = True
    for row in rows:
        k = len(row["scene_initial"]["events"])
        shape_ok &= 2 <= k <= 5
        shape_ok &= len(row["audio_paths"]) == \
            len(row["plan"]["atomic editing steps"]) + 1
    # spot-check exported WAV shape on a sample of records
    for row in rows[::20]:
        for rel in row["audio_paths"]:
            rate, data = read_wav(runs[1][2] / rel)
            shape_ok &= rate == SAMPLE_RATE and data.shape == (240000, 2)

    # per-step residual: a_i - a_{i-1} equals the edited events' isolated
    # contribution, on the float64 (pre-export) trajectory
    cfg1 = PipelineConfig(record_count=n, output_dir=str(runs[1][2]), seed=42)
    residual_worst = 0.0
    for row in rows:
        _, plan, stages, _ = build_trajectory(catalog, cfg1, row["index"])
        for before_scene, after_scene in zip(stages, stages[1:]):
            before_audio = render_scene(before_scene)
            after_audio = render_scene(after_scene)
            gone, new = _changed_sets(before_scene, after_scene)
            expected = np.zeros_like(before_audio.samples)
            for e in new:
                expected += spatialize(e.clip, e.direction, e.gain_db).samples
            for e in gone:
                expected -= spatialize(e.clip, e.direction, e.gain_db).samples
            delta = after_audio.samples - before_audio.samples
            residual_worst = max(residual_worst,
                                 float(np.max(np.abs(delta - expected))))

    for _, _, out in runs.values():
        shutil.rmtree(out)

    ok = identical and shape_ok and residual_worst <= 1e-7
    report(8, ok,
            f"{n} records byte-identical across worker counts {{1,4}}="
            f"{identical}, shape checks ok={shape_ok}, worst residual "
            f"{residual_worst:.2e} (threshold 1e-7)")


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
