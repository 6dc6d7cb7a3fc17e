"""Bad values are refused where they enter, with the library's own error."""

import math

import numpy as np
import pytest

from voxkit import (
    CurationError,
    EditControlError,
    EmissionFormatError,
    EmissionMatrix,
    EvalCriteria,
    GuidanceParams,
    PenaltyParams,
    ProfileError,
    RegenController,
    SchemaError,
    ScheduleError,
    SourceAdapterSpec,
    SwayParams,
    UtteranceRecord,
    adapt,
    apply_penalty,
    cfg_combine,
    chunk,
    record_from_json_dict,
)
from voxkit.manifest import AdapterError
from voxkit.textnorm.profiles import parse_profile

NAN, INF = math.nan, math.inf


def _profile(min_ratio, max_ratio):
    return parse_profile(f"language = en\nrules = en\nmin_ratio = {min_ratio}\n"
                         f"max_ratio = {max_ratio}\nranges = 0061-007A\n")


def _controller(avg_speed, target_tokens=10):
    return RegenController(avg_speed=avg_speed, target_tokens=target_tokens,
                           mask_start=5, mask_end=20)


# Each row was accepted, or failed with a foreign error, before range checks
# were written as the condition that must hold. The two EvalCriteria rows
# with plain bad values check that each message names its own value.
@pytest.mark.parametrize("make, error, message", [
    (lambda: _profile("nan", 5), ProfileError, "need 0 <= min_ratio < max_ratio"),
    (lambda: _profile(1, "nan"), ProfileError, "need 0 <= min_ratio < max_ratio"),
    (lambda: EvalCriteria(trailing_silence_s=NAN), CurationError, "trailing silence"),
    (lambda: EvalCriteria(trailing_silence_s=-1), CurationError,
     r"^trailing silence must be >= 0, got -1$"),
    (lambda: EvalCriteria(target_per_language=0), CurationError,
     r"^target per language must be >= 1, got 0$"),
    (lambda: _controller(NAN), EditControlError, "avg_speed"),
    (lambda: _controller(INF), EditControlError, "avg_speed"),
    (lambda: _controller(1e308), EditControlError, "product finite"),
    (lambda: PenaltyParams(NAN), EditControlError, "repetition_penalty"),
    (lambda: PenaltyParams(INF), EditControlError, "repetition_penalty"),
    (lambda: GuidanceParams(NAN), ScheduleError, "strength"),
    (lambda: GuidanceParams(INF), ScheduleError, "strength"),
    (lambda: SwayParams(gamma=NAN), ScheduleError, "gamma"),
    (lambda: SwayParams(gamma=INF), ScheduleError, "gamma"),
    (lambda: apply_penalty(np.ones(4), [1], NAN), EditControlError, "penalty factor"),
    (lambda: chunk(NAN, 10.0, 1.0), EditControlError, "duration"),
    (lambda: chunk(INF, 10.0, 1.0), EditControlError, "duration"),
], ids=["min_ratio-nan", "max_ratio-nan", "trailing_silence-nan",
        "trailing_silence-negative", "target-zero", "avg_speed-nan",
        "avg_speed-inf", "expected-frames-inf", "penalty-nan", "penalty-inf",
        "strength-nan", "strength-inf", "gamma-nan", "gamma-inf", "factor-nan",
        "chunk-duration-nan", "chunk-duration-inf"])
def test_range_checks_refuse_nan_and_inf(make, error, message):
    with pytest.raises(error, match=message):
        make()


def _record(**changes):
    fields = dict(key="a", language="en", audio_ref="a.wav", duration_s=1.0,
                  raw_text="hi")
    fields.update(changes)
    return fields


def _emissions(log_probs, vocab):
    return EmissionMatrix(log_probs=log_probs, vocab=vocab, frame_dur_s=0.02)


_HALF = np.log(np.full((2, 2), 0.5))
_ADAPTER = SourceAdapterSpec(source="web", defaults={"language": "en",
                                                    "audio_ref": "a.wav",
                                                    "raw_text": "hi"},
                             field_map={"key": "id", "duration_s": "len"})


@pytest.mark.parametrize("make, error, message", [
    (lambda: _emissions(np.zeros(4), ("<blank>", "a")), EmissionFormatError, "2-D"),
    (lambda: _emissions(_HALF, ("<blank>", "a", "b")), EmissionFormatError,
     "2 columns but 3 vocabulary entries"),
    (lambda: _emissions(_HALF, ("<blank>", "<blank>")), EmissionFormatError, "unique"),
    (lambda: _emissions(np.zeros((2, 1)), ("<blank>",)), EmissionFormatError,
     "at least one label"),
    (lambda: record_from_json_dict(_record(audio_ref=5)), SchemaError,
     "^field 'audio_ref': expected string, got int$"),
    (lambda: UtteranceRecord(**_record(key="")), SchemaError,
     "field 'key': key must be non-empty"),
    (lambda: UtteranceRecord(**_record(language="")), SchemaError,
     "key 'a', field 'language': language must be non-empty"),
    (lambda: adapt({"id": "r1", "len": "long"}, _ADAPTER), AdapterError,
     "^key 'r1', field 'duration_s': duration_s not numeric: 'long'$"),
    (lambda: adapt({"id": "r1", "len": [1]}, _ADAPTER), AdapterError, "not numeric"),
    (lambda: apply_penalty(np.array([1 + 2j, -1j]), [0, 1], 2.0), EditControlError,
     "^logits must be real numbers, not complex128$"),
    (lambda: apply_penalty(["1", "2"], [0], 2.0), EditControlError,
     "^logits must be real numbers, not <U1$"),
    (lambda: apply_penalty(np.array([True, False]), [0], 2.0), EditControlError,
     "^logits must be real numbers, not bool$"),
    (lambda: cfg_combine(np.array([1 + 2j]), np.array([1j]), 1.0), ScheduleError,
     "^cond must be real numbers, not complex128$"),
    (lambda: cfg_combine(["1"], ["2"], 1.0), ScheduleError,
     "^cond must be real numbers, not <U1$"),
    (lambda: cfg_combine(np.ones(2), np.array([True, False]), 1.0), ScheduleError,
     "^uncond must be real numbers, not bool$"),
    (lambda: cfg_combine(np.ones(2), np.zeros(2), 1j), ScheduleError,
     r"^g must be a real number, got 1j$"),
    (lambda: SwayParams(steps=2.5), ScheduleError, r"^steps must be an integer, got 2.5$"),
    (lambda: SwayParams(steps=True), ScheduleError, r"^steps must be an integer, got True$"),
    (lambda: SwayParams(steps="3"), ScheduleError, r"^steps must be an integer, got '3'$"),
], ids=["emissions-ndim", "emissions-columns", "emissions-duplicate-vocab",
        "emissions-vocab-too-short", "wrong-string-type", "empty-key",
        "empty-language", "adapt-text-duration", "adapt-list-duration",
        "penalty-complex-logits", "penalty-text-logits", "penalty-bool-logits",
        "cfg-complex-cond", "cfg-text-cond", "cfg-bool-uncond", "cfg-complex-g",
        "sway-float-steps", "sway-bool-steps", "sway-text-steps"])
def test_refusals_at_entry(make, error, message):
    with pytest.raises(error, match=message):
        make()
