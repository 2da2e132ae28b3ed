import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoedit.demo import DEMO_LABELS
from stereoedit.designer import (BUILTIN_THEMES, DesignerConfig, DesignerMode,
                                 _batch_request_text, base_prompt,
                                 design_plan_llm, design_plan_template,
                                 strip_markdown_fence)
from stereoedit.errors import (AuthFailure, EndpointUnreachable,
                               MalformedResponse, NoCompatibleScenario,
                               ValidationFailed)
from stereoedit.plans import Add, Remove, validate_plan

LABELS = ["clock tick", "bird chirp", "wind"]

VALID_PLAN = {
    "sound sources": LABELS,
    "complex editing instruction": "Make this a garden afternoon",
    "atomic editing steps": [
        {"operation": "remove", "target": "clock tick", "effect": "None"},
        {"operation": "turn up", "target": "bird chirp", "effect": "3dB"},
        {"operation": "add", "target": "stream water",
         "effect": "at front by 2dB"},
    ],
}

INVALID_PLAN = {
    "sound sources": LABELS,
    "complex editing instruction": "bad",
    "atomic editing steps": [
        {"operation": "remove", "target": "clock tick", "effect": "None"},
        {"operation": "remove", "target": "bird chirp", "effect": "None"},
        {"operation": "remove", "target": "wind", "effect": "None"},
    ],
}


def _config(**kw):
    kw.setdefault("mode", DesignerMode.LLM)
    kw.setdefault("endpoint_url", "http://localhost/fake")
    return DesignerConfig(**kw)


def test_base_prompt_mentions_schema():
    text = base_prompt()
    for key in ("sound sources", "complex editing instruction",
                "atomic editing steps"):
        assert key in text


def test_llm_config_requires_endpoint():
    with pytest.raises(ValueError):
        DesignerConfig(mode=DesignerMode.LLM)


def test_strip_markdown_fence():
    assert strip_markdown_fence("```json\n{\"a\": 1}\n```") == '{"a": 1}'
    assert strip_markdown_fence('{"a": 1}') == '{"a": 1}'


# ---------------------------------------------------------------------------
# Template designer
# ---------------------------------------------------------------------------

def test_template_designer_valid_over_many_seeds():
    for seed in range(500):
        rng = random.Random(seed)
        plan = design_plan_template(LABELS, rng)
        assert validate_plan(plan, LABELS).is_valid
        assert plan.instruction


@settings(max_examples=500)
@given(labels=st.lists(st.sampled_from(DEMO_LABELS), min_size=2, max_size=5,
                       unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_template_designer_plans_validate(labels, seed):
    try:
        plan = design_plan_template(labels, random.Random(seed))
    except NoCompatibleScenario:
        return
    assert validate_plan(plan, labels).is_valid
    assert plan.instruction
    assert 1 <= sum(isinstance(s, Remove) for s in plan.steps) <= 2
    adds = [s for s in plan.steps if isinstance(s, Add)]
    assert len(adds) <= 2
    for add in adds:
        assert add.direction is not None and add.gain_db is not None


def test_template_designer_deterministic():
    a = design_plan_template(LABELS, random.Random(42))
    b = design_plan_template(LABELS, random.Random(42))
    assert a == b


def test_template_designer_no_scenario():
    # fewer than two labels can never produce a plan
    with pytest.raises(NoCompatibleScenario):
        design_plan_template(["rain"], random.Random(0))
    # a theme that tolerates every scene label finds nothing to remove
    theme = BUILTIN_THEMES[0]
    labels = sorted(theme.compatible_labels)
    with pytest.raises(NoCompatibleScenario):
        design_plan_template(labels, random.Random(0), themes=(theme,))


def test_template_designer_add_caps():
    for seed in range(200):
        plan = design_plan_template(LABELS, random.Random(seed))
        adds = [s for s in plan.steps if isinstance(s, Add)]
        assert len(adds) <= 2
        for add in adds:
            assert add.direction is not None and add.gain_db is not None


# ---------------------------------------------------------------------------
# LLM designer with mock transports
# ---------------------------------------------------------------------------

def test_llm_single_success():
    def transport(payload):
        assert payload["messages"][0]["role"] == "system"
        return json.dumps(VALID_PLAN)

    result = design_plan_llm([LABELS], _config(), transport=transport)
    assert not result.failures
    assert result.plans[0].instruction == "Make this a garden afternoon"
    assert validate_plan(result.plans[0], LABELS).is_valid


def test_llm_fenced_response_accepted():
    result = design_plan_llm(
        [LABELS], _config(),
        transport=lambda p: "```json\n" + json.dumps(VALID_PLAN) + "\n```")
    assert not result.failures


def test_llm_persistently_invalid_fails_with_validation_error():
    result = design_plan_llm([LABELS], _config(max_retries=2),
                             transport=lambda p: json.dumps(INVALID_PLAN))
    assert result.plans[0] is None
    assert isinstance(result.failures[0], ValidationFailed)
    assert result.retry_counts[0] == 2
    assert list(result.failures) == [0]


def test_llm_batch_mixed_outcomes():
    batches = [LABELS, ["rain", "thunder"]]
    bad = dict(INVALID_PLAN)

    def transport(payload):
        text = payload["messages"][1]["content"]
        if "2 sets" in text:
            return json.dumps([VALID_PLAN, bad])
        return json.dumps(bad)  # individual retries for the second scene

    result = design_plan_llm(batches, _config(max_retries=1),
                             transport=transport)
    assert result.plans[0] is not None
    assert result.plans[1] is None and 1 in result.failures


def test_llm_wrong_batch_count_is_retried():
    calls = []

    def transport(payload):
        calls.append(payload)
        if len(calls) == 1:
            return json.dumps([VALID_PLAN])  # 1 plan for 2 scenes
        return json.dumps(VALID_PLAN)

    result = design_plan_llm([LABELS, LABELS], _config(), transport=transport)
    assert not result.failures
    assert len(calls) == 3  # batch + 2 individual retries


def test_llm_one_scene_reply_may_be_an_array_of_one():
    result = design_plan_llm([LABELS], _config(max_retries=0),
                             transport=lambda p: json.dumps([VALID_PLAN]))
    assert not result.failures
    assert result.plans[0].instruction == "Make this a garden afternoon"


@pytest.mark.parametrize("scenes,reply", [
    (1, VALID_PLAN["atomic editing steps"]),
    (2, [VALID_PLAN, VALID_PLAN["atomic editing steps"]]),
])
def test_llm_reply_plan_that_is_a_step_list_is_malformed(scenes, reply):
    result = design_plan_llm([LABELS] * scenes, _config(max_retries=0),
                             transport=lambda p: json.dumps(reply))
    assert list(result.failures) == [scenes - 1]
    assert isinstance(result.failures[scenes - 1], MalformedResponse)


@pytest.mark.parametrize("scenes", [1, 2])
def test_llm_reply_plan_that_is_json_text_is_malformed(scenes):
    # the text of a plan, not a plan object, stays a malformed reply
    plans = [VALID_PLAN] * (scenes - 1) + [json.dumps(VALID_PLAN)]
    result = design_plan_llm([LABELS] * scenes, _config(max_retries=0),
                             transport=lambda p: json.dumps(plans))
    assert list(result.failures) == [scenes - 1]
    assert isinstance(result.failures[scenes - 1], MalformedResponse)


def test_llm_every_request_is_a_batch_request():
    batch = [LABELS, ["rain", "thunder"], ["wind", "rain"]]
    texts = []

    def transport(payload):
        texts.append(payload["messages"][1]["content"])
        if len(texts) == 1:  # scenes 0 and 1: the second plan is invalid
            return json.dumps([VALID_PLAN, INVALID_PLAN])
        return json.dumps(INVALID_PLAN)  # scene 2, then every retry

    result = design_plan_llm(batch, _config(batch_size=2, max_retries=1),
                             transport=transport)
    assert list(result.failures) == [1, 2]
    chunks = [[0, 1], [2], [1], [2]]  # two first passes, then the retries
    assert texts == [_batch_request_text([batch[i] for i in chunk])
                     for chunk in chunks]


def test_llm_endpoint_errors_propagate():
    def unreachable(payload):
        raise EndpointUnreachable("connection refused")

    with pytest.raises(EndpointUnreachable):
        design_plan_llm([LABELS], _config(), transport=unreachable)

    def auth(payload):
        raise AuthFailure("401")

    with pytest.raises(AuthFailure):
        design_plan_llm([LABELS], _config(), transport=auth)


def test_llm_missing_api_key(monkeypatch):
    monkeypatch.delenv("STEREOEDIT_API_KEY", raising=False)
    with pytest.raises(AuthFailure, match="STEREOEDIT_API_KEY"):
        design_plan_llm([LABELS], _config())


# ---------------------------------------------------------------------------
# LLM designer boundary: any response is a valid plan or a typed failure
# ---------------------------------------------------------------------------

_STEP_OBJECTS = st.fixed_dictionaries({
    "operation": st.sampled_from(["remove", "add", "turn up", "turn down",
                                  "change", "extract", "wiggle"]),
    "target": st.sampled_from(LABELS + ["stream water", "rain", ""]),
    "effect": st.sampled_from(["None", "3dB", "9dB", "from left to right",
                               "at front by 2dB", "at left", "loudly"]),
})
_PLAN_OBJECTS = st.fixed_dictionaries(
    {"atomic editing steps": st.lists(_STEP_OBJECTS, max_size=4)},
    optional={"sound sources": st.just(LABELS),
              "complex editing instruction": st.text(max_size=5)})
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | _PLAN_OBJECTS,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=3)),
    max_leaves=8)


@settings(max_examples=200)
@given(responses=st.lists(_JSON_VALUES.map(json.dumps) | _JSON_VALUES,
                          min_size=1, max_size=4))
def test_llm_any_response_is_a_valid_plan_or_a_typed_failure(responses):
    calls = itertools.count()
    batches = [LABELS, ["rain", "thunder"]]
    result = design_plan_llm(
        batches, _config(max_retries=1),
        transport=lambda payload: responses[next(calls) % len(responses)])
    for i, labels in enumerate(batches):
        if result.plans[i] is None:
            assert isinstance(result.failures[i],
                              (MalformedResponse, ValidationFailed))
        else:
            assert i not in result.failures
            assert validate_plan(result.plans[i], labels).is_valid


def test_llm_deeply_nested_response_is_malformed():
    result = design_plan_llm([LABELS], _config(max_retries=0),
                             transport=lambda payload: "[" * 100_000)
    assert isinstance(result.failures[0], MalformedResponse)


def test_llm_transport_bug_propagates():
    def transport(payload):
        raise RuntimeError("bug in the transport")

    with pytest.raises(RuntimeError, match="bug in the transport"):
        design_plan_llm([LABELS], _config(), transport=transport)


def test_llm_reads_the_base_prompt_once_per_call(monkeypatch):
    import stereoedit.designer as designer

    reads = []

    def counting_base_prompt():
        reads.append(1)
        return base_prompt()

    monkeypatch.setattr(designer, "base_prompt", counting_base_prompt)
    payloads = []

    def transport(payload):
        payloads.append(payload)
        if len(payloads) == 1:  # the second scene needs one retry
            return json.dumps([VALID_PLAN, INVALID_PLAN])
        return json.dumps(VALID_PLAN)

    result = design_plan_llm([LABELS, LABELS], _config(), transport=transport)
    assert not result.failures and result.retry_counts == {0: 0, 1: 1}
    assert len(payloads) == 2
    assert all(p["messages"][0]["content"] == base_prompt() for p in payloads)
    assert len(reads) == 1


def test_llm_transport_deeply_nested_body_is_malformed(monkeypatch):
    import requests

    from stereoedit.designer import _default_transport

    class Response:
        status_code = 200

        def json(self):
            return json.loads("[" * 100_000)

    class Session:
        def post(self, url, json, headers, timeout):
            return Response()

    monkeypatch.setenv("STEREOEDIT_API_KEY", "test-key")
    monkeypatch.setattr(requests, "Session", Session)
    post = _default_transport(_config())
    with pytest.raises(MalformedResponse, match="unexpected response shape"):
        post({"messages": []})
