"""Bad values are refused where they enter, with the library's own error."""

import json
import math

import numpy as np
import pytest

from voxkit import (
    CurationError,
    EditControlError,
    EmissionFormatError,
    EmissionMatrix,
    EvalCriteria,
    GenerationOutcome,
    GuidanceParams,
    PenaltyParams,
    ProfileError,
    RegenController,
    SchemaError,
    ScheduleError,
    SourceAdapterSpec,
    StitchError,
    SwayParams,
    UtteranceRecord,
    adapt,
    apply_penalty,
    cfg_combine,
    chunk,
    compute_stats,
    record_from_json_dict,
    stitch,
)
from voxkit.audio import AudioFormatError, write_wav
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
_REGEN = dict(avg_speed=2.0, target_tokens=10, mask_start=5, mask_end=20)
_SEGMENT = np.zeros(100, dtype=np.int16)


def _adapter(**changes):
    spec = dict(source="web", field_map=dict(_ADAPTER.field_map),
                defaults=dict(_ADAPTER.defaults))
    for name, value in changes.items():
        spec[name].update(value)
    return SourceAdapterSpec(**spec)


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
    # A number is a real that is not a bool; a count is an integer that is not.
    (lambda: cfg_combine(np.ones(2), np.zeros(2), True), ScheduleError,
     r"^g must be a real number, got True$"),
    (lambda: SwayParams(gamma=True), ScheduleError,
     r"^gamma must be a real number, got True$"),
    (lambda: SwayParams(gamma="1"), ScheduleError,
     r"^gamma must be a real number, got '1'$"),
    (lambda: GuidanceParams(strength="1"), ScheduleError,
     r"^strength must be a real number, got '1'$"),
    (lambda: PenaltyParams("2"), EditControlError,
     r"^repetition_penalty must be a real number, got '2'$"),
    (lambda: chunk(10.0, "5", 1.0), EditControlError,
     r"^max_chunk_s must be a real number, got '5'$"),
    (lambda: RegenController(**{**_REGEN, "avg_speed": "2"}), EditControlError,
     r"^avg_speed must be a real number, got '2'$"),
    (lambda: RegenController(**{**_REGEN, "target_tokens": 2.5}), EditControlError,
     r"^target_tokens must be an integer, got 2.5$"),
    (lambda: RegenController(**{**_REGEN, "mask_start": 5.5}), EditControlError,
     r"^mask_start must be an integer, got 5.5$"),
    (lambda: RegenController(**{**_REGEN, "mask_end": True}), EditControlError,
     r"^mask_end must be an integer, got True$"),
    (lambda: RegenController(**{**_REGEN, "round": 0.0}), EditControlError,
     r"^round must be an integer, got 0.0$"),
    (lambda: RegenController(**{**_REGEN, "max_rounds": 1.5}), EditControlError,
     r"^max_rounds must be an integer, got 1.5$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000, 0.001, True), StitchError,
     r"^overlap_s must be a real number or a sequence of them, got True$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000, 0.001, ["0.01"]), StitchError,
     r"^overlap_s must be a real number or a sequence of them, got \['0.01'\]$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000, "0.01", 0.5), StitchError,
     r"^fade_s must be a real number, got '0.01'$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000, True, 0.5), StitchError,
     r"^fade_s must be a real number, got True$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], "1000", 0.01, 0.5), StitchError,
     r"^sample_rate must be an integer, got '1000'$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000.5, 0.01, 0.5), StitchError,
     r"^sample_rate must be an integer, got 1000.5$"),
    (lambda: GenerationOutcome("3"), EditControlError,
     r"^generated_frames must be an integer, got '3'$"),
    (lambda: GenerationOutcome(2.5), EditControlError,
     r"^generated_frames must be an integer, got 2.5$"),
    (lambda: GenerationOutcome(True), EditControlError,
     r"^generated_frames must be an integer, got True$"),
    (lambda: EvalCriteria(target_per_language=2.5), CurationError,
     r"^target_per_language must be an integer, got 2.5$"),
    (lambda: EvalCriteria(target_per_language=True), CurationError,
     r"^target_per_language must be an integer, got True$"),
    (lambda: EvalCriteria(min_words=2.5), CurationError,
     r"^min_words must be an integer, got 2.5$"),
    (lambda: EvalCriteria(min_confidence="0.9"), CurationError,
     r"^min_confidence must be a real number, got '0.9'$"),
    (lambda: EvalCriteria(max_duration_s=True), CurationError,
     r"^max_duration_s must be a real number, got True$"),
    # An adapter spec refuses itself when it is made, not on the first row.
    (lambda: _adapter(field_map={"dur": "len"}), AdapterError,
     r"^field 'dur': not a field an adapter fills \(key, language, audio_ref, "
     r"duration_s, raw_text\)$"),
    (lambda: _adapter(defaults={"speaker": "x"}), AdapterError,
     r"^field 'speaker': not a field an adapter fills"),
    (lambda: SourceAdapterSpec(source="web", field_map={"key": "id"},
                               defaults={"language": "en", "audio_ref": "a.wav",
                                         "raw_text": "hi"}),
     AdapterError, r"^field 'duration_s': no mapping or default for required field$"),
    # Refusals no other test reaches.
    (lambda: record_from_json_dict(_record(romanized_tokens="hi")), SchemaError,
     r"^field 'romanized_tokens': expected list of strings, got str$"),
    (lambda: record_from_json_dict(_record(romanized_tokens=["hi", 1])), SchemaError,
     r"^field 'romanized_tokens': expected list of strings, got list$"),
    (lambda: cfg_combine(np.ones(2), np.ones(3), 1.0), ScheduleError,
     r"^shape mismatch: \(2,\) vs \(3,\)$"),
    (lambda: compute_stats([], unit="days"), CurationError,
     r"^unit must be one of \['hours', 'minutes'\], got 'days'$"),
    (lambda: stitch([np.zeros((2, 50))], 1000, 0.001, 0.01), StitchError,
     r"^segment 0 must be mono, got shape \(2, 50\)$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 0, 0.001, 0.01), StitchError,
     r"^sample_rate must be positive, got 0$"),
    (lambda: stitch([_SEGMENT, _SEGMENT], 1000, 0.001, [0.01, 0.01]), StitchError,
     r"^1 boundaries but 2 overlap values$"),
    (lambda: write_wav("unused.wav", np.zeros((2, 2), dtype=np.int16), 16000),
     AudioFormatError, r"^expected mono audio, got shape \(2, 2\)$"),
    (lambda: write_wav("unused.wav", np.zeros(2, dtype=np.int32), 16000),
     AudioFormatError, r"^unsupported sample dtype int32$"),
    (lambda: apply_penalty(np.ones((2, 2)), [0], 2.0), EditControlError,
     r"^logits must be 1-D, got shape \(2, 2\)$"),
], ids=["emissions-ndim", "emissions-columns", "emissions-duplicate-vocab",
        "emissions-vocab-too-short", "wrong-string-type", "empty-key",
        "empty-language", "adapt-text-duration", "adapt-list-duration",
        "penalty-complex-logits", "penalty-text-logits", "penalty-bool-logits",
        "cfg-complex-cond", "cfg-text-cond", "cfg-bool-uncond", "cfg-complex-g",
        "sway-float-steps", "sway-bool-steps", "sway-text-steps",
        "cfg-bool-g", "sway-bool-gamma", "sway-text-gamma", "guidance-text-strength",
        "penalty-text", "chunk-text-max", "regen-text-speed", "regen-float-tokens",
        "regen-float-mask-start", "regen-bool-mask-end", "regen-float-round",
        "regen-float-max-rounds", "stitch-bool-overlap", "stitch-text-overlap",
        "stitch-text-fade", "stitch-bool-fade", "stitch-text-rate", "stitch-float-rate",
        "outcome-text-frames", "outcome-float-frames", "outcome-bool-frames",
        "eval-float-target", "eval-bool-target", "eval-float-min-words",
        "eval-text-confidence", "eval-bool-max-duration", "adapter-unknown-map",
        "adapter-unknown-default", "adapter-unreached-field", "read-text-tokens",
        "read-mixed-tokens", "cfg-shape-mismatch", "stats-unknown-unit",
        "stitch-2d-segment", "stitch-zero-rate", "stitch-overlap-count",
        "wav-2d", "wav-int32", "penalty-2d-logits"])
def test_refusals_at_entry(make, error, message):
    with pytest.raises(error, match=message):
        make()


# NumPy scalars are numbers, and counts may be NumPy integers.
@pytest.mark.parametrize("make", [
    lambda: SwayParams(gamma=np.float32(0.5), steps=np.int32(8)),
    lambda: GuidanceParams(np.float64(2.0)),
    lambda: PenaltyParams(np.float32(1.5)),
    lambda: RegenController(avg_speed=np.float32(2.0), target_tokens=np.int64(10),
                            mask_start=np.int32(5), mask_end=np.uint16(20),
                            round=np.int8(0), max_rounds=np.int64(3)),
    lambda: EvalCriteria(min_confidence=np.float32(0.5), min_words=np.int64(2),
                         target_per_language=np.uint8(4)),
    lambda: chunk(np.float32(10.0), np.float64(4.0), np.float16(1.0)),
    lambda: cfg_combine(np.ones(2), np.zeros(2), np.float32(1.5)),
    lambda: stitch([_SEGMENT, _SEGMENT], np.int32(1000), np.float32(0.01), 0.05),
    lambda: GenerationOutcome(np.int64(3)),
], ids=["sway", "guidance", "penalty", "regen", "eval", "chunk", "cfg", "stitch",
        "outcome"])
def test_numpy_scalars_are_numbers(make):
    make()


def test_stitch_takes_a_numpy_overlap():
    segments = [np.sin(np.arange(200, dtype=np.float64)) for _ in range(3)]
    out, plan = stitch(segments, 1000, 0.01, np.float32(0.05))
    expected_out, expected_plan = stitch(segments, 1000, 0.01, float(np.float32(0.05)))
    assert plan == expected_plan
    assert np.array_equal(out, expected_out)


# A file that is not UTF-8 is refused with its reader's own error, which
# names the byte and, where the reader counts lines, the line that holds it.
_LATIN1 = "é".encode("latin-1")


def test_manifest_not_utf8_names_its_line(tmp_path):
    from voxkit import read_manifest

    good = record_from_json_dict(_record())
    line = json.dumps(_record()).encode()
    path = tmp_path / "m.jsonl"
    # Lines end in \n, \r\n and \r, as text-mode reading counts them; a
    # long first stretch puts the bad byte past the reader's first chunk.
    path.write_bytes(line + b"\n\r\n\r" + b" " * 9000 + b"\n" + _LATIN1 + b"\n")
    with pytest.raises(SchemaError, match=r"^line 5: not UTF-8: invalid continuation "
                                          r"byte at byte \d+$"):
        list(read_manifest(path))
    path.write_bytes(b"\xff" + line + b"\n")
    with pytest.raises(SchemaError, match=r"^line 1: not UTF-8: invalid start byte at byte 0$"):
        list(read_manifest(path))
    path.write_bytes(line + b"\n")
    assert list(read_manifest(path)) == [good]


def test_cli_reports_a_manifest_that_is_not_utf8(tmp_path, capsys):
    from voxkit.cli import main

    path = tmp_path / "m.jsonl"
    path.write_bytes(b"\xff\n")
    assert main(["filter", "-i", str(path), "-o", str(tmp_path / "out.jsonl")]) == 2
    assert "line 1: not UTF-8: invalid start byte at byte 0" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_profile_not_utf8(tmp_path):
    from voxkit import load_profile

    (tmp_path / "en.profile").write_bytes(b"language = en\nrules = en\n# " + _LATIN1 + b"\n")
    with pytest.raises(ProfileError, match=r"en\.profile: not UTF-8: invalid continuation "
                                           r"byte at byte 27$"):
        load_profile("en", tmp_path)


def test_config_not_utf8_names_its_line(tmp_path):
    from voxkit import ConfigError, load_pipeline_config

    path = tmp_path / "run.cfg"
    path.write_bytes(b"stages = filter\r\n\x0c\n# " + _LATIN1 + b"\n")
    # splitlines, as the parser splits, ends a line at a form feed too.
    with pytest.raises(ConfigError, match=r"^line 4: not UTF-8: invalid continuation "
                                          r"byte at byte 21$"):
        load_pipeline_config(path)
