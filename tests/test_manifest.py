import json
import math
import os
import re
import stat
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxkit import (
    DuplicateKeyError,
    ManifestError,
    SchemaError,
    SourceAdapterSpec,
    UtteranceRecord,
    WordSpan,
    adapt,
    read_manifest,
    record_from_json_dict,
    record_to_line,
    validate_record,
    with_words,
    write_manifest,
)
from voxkit import manifest as manifest_module
from voxkit.manifest import AdapterError, quantize_time


def make_record(key="utt1", **kwargs):
    fields = dict(key=key, language="en", audio_ref=f"audio/{key}.wav",
                  duration_s=5.0, raw_text="hello world")
    fields.update(kwargs)
    return UtteranceRecord(**fields)


def aligned_record(key="utt1"):
    words = [
        WordSpan(word="hello", start_s=0.2, end_s=0.8, score=0.95),
        WordSpan(word="world", start_s=1.0, end_s=1.6, score=0.85),
    ]
    return make_record(key, normalized_text="hello world",
                       romanized_tokens=("hello", "world"),
                       words=tuple(words), avg_confidence=0.9)


def test_field_order_is_canonical():
    line = record_to_line(aligned_record())
    keys = list(json.loads(line).keys())
    assert keys == ["key", "language", "audio_ref", "duration_s", "raw_text",
                    "normalized_text", "romanized_tokens", "words",
                    "avg_confidence", "source"]


def test_round_trip_is_byte_stable(tmp_path):
    records = [aligned_record("utt1"), make_record("utt2", duration_s=1.25)]
    path = tmp_path / "m.jsonl"
    write_manifest(records, path)
    first = path.read_bytes()
    write_manifest(read_manifest(path), path)
    assert path.read_bytes() == first


def test_times_round_to_milliseconds():
    span = WordSpan(word="a", start_s=0.123456, end_s=0.9999004, score=0.5)
    payload = span.to_json_dict()
    assert payload["start_s"] == 0.123
    assert payload["end_s"] == 1.0
    assert payload["score"] == 0.5
    assert quantize_time(2.0005) == 2.0 or quantize_time(2.0005) == 2.001


def test_scores_keep_full_precision():
    record = make_record(avg_confidence=0.123456789012)
    line = record_to_line(record)
    assert json.loads(line)["avg_confidence"] == 0.123456789012


def test_unknown_fields_survive_round_trip():
    obj = json.loads(record_to_line(make_record()))
    obj["speaker"] = "spk3"
    obj["snr_db"] = 14.2
    record = record_from_json_dict(obj)
    assert record.extra == {"snr_db": 14.2, "speaker": "spk3"}
    back = json.loads(record_to_line(record))
    assert back["speaker"] == "spk3"
    assert back["snr_db"] == 14.2


def test_missing_core_field_names_the_field(tmp_path):
    obj = json.loads(record_to_line(make_record()))
    del obj["duration_s"]
    with pytest.raises(SchemaError) as err:
        record_from_json_dict(obj)
    assert str(err.value) == "field 'duration_s': missing required field"
    path = tmp_path / "m.jsonl"
    path.write_text("\n" * 6 + json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_manifest(path))
    assert str(err.value) == "line 7, field 'duration_s': missing required field"


def test_wrong_type_rejected():
    obj = json.loads(record_to_line(make_record()))
    obj["duration_s"] = "5.0"
    with pytest.raises(SchemaError):
        record_from_json_dict(obj)
    obj["duration_s"] = True
    with pytest.raises(SchemaError):
        record_from_json_dict(obj)


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = record_to_line(make_record())
    path.write_text(good + "\n" + "{not json}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_manifest(path))
    assert "line 2" in str(err.value)


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text("\n" + record_to_line(make_record()) + "\n\n",
                    encoding="utf-8")
    assert len(list(read_manifest(path))) == 1


def test_duplicate_keys_rejected_on_read_and_write(tmp_path):
    line = record_to_line(make_record())
    path = tmp_path / "dup.jsonl"
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DuplicateKeyError):
        list(read_manifest(path))
    with pytest.raises(DuplicateKeyError):
        write_manifest([make_record(), make_record()], tmp_path / "out.jsonl")


def test_write_validates_before_touching_the_file(tmp_path):
    path = tmp_path / "out.jsonl"
    # A bad record cannot be built, so it never reaches the writer.
    with pytest.raises(ManifestError):
        write_manifest([make_record(), make_record("utt2", avg_confidence=2.0)], path)
    assert not path.exists()
    with pytest.raises(DuplicateKeyError):
        write_manifest([make_record(), make_record()], path)
    assert not path.exists()


def test_write_takes_records_as_they_come(tmp_path):
    path = tmp_path / "out.jsonl"
    write_manifest([make_record("old")], path)
    before = path.read_bytes()
    made = []

    def records(keys):
        for key in keys:
            # The records are not gathered first: the output is open.
            assert [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
            made.append(key)
            yield make_record(key)

    # A duplicate found after writing has begun leaves no new file.
    with pytest.raises(DuplicateKeyError, match="key 'b': duplicate key"):
        write_manifest(records(["a", "b", "c", "b"]), path)
    assert made == ["a", "b", "c", "b"]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    assert write_manifest(records(["x", "y"]), path) == 2
    assert [r.key for r in read_manifest(path)] == ["x", "y"]


def test_read_manifest_lines_gives_each_record_its_line(tmp_path):
    path = tmp_path / "m.jsonl"
    first = json.dumps({"raw_text": "hi", "key": "a", "language": "en",
                        "audio_ref": "a.wav", "duration_s": 1.00001})
    second = record_to_line(make_record("b"))
    path.write_text(f"{first}\n\n{second}", encoding="utf-8")
    pairs = list(manifest_module.read_manifest_lines(path))
    assert [(record.key, line) for record, line in pairs] == [("a", first + "\n"),
                                                              ("b", second)]
    assert [record for record, _ in pairs] == list(read_manifest(path))


def test_failed_write_leaves_old_manifest(tmp_path, monkeypatch):
    path = tmp_path / "out.jsonl"
    write_manifest([make_record("old")], path)
    before = path.read_bytes()
    written = []

    def fail_on_second(record):
        written.append(record.key)
        if len(written) == 2:
            raise OSError("disk full")
        return record_to_line(record)

    monkeypatch.setattr(manifest_module, "record_to_line", fail_on_second)
    with pytest.raises(OSError, match="disk full"):
        write_manifest([make_record("a"), make_record("b")], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_replaces_old_manifest(tmp_path):
    path = tmp_path / "out.jsonl"
    write_manifest([make_record("old")], path)
    write_manifest([make_record("a"), make_record("b")], path)
    assert [r.key for r in read_manifest(path)] == ["a", "b"]
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_write_through_symlink_keeps_link(tmp_path):
    target = tmp_path / "real.jsonl"
    write_manifest([make_record("old")], target)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    write_manifest([make_record("new")], link)
    assert link.is_symlink()
    assert [r.key for r in read_manifest(target)] == ["new"]


def test_write_to_fifo_streams_into_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    write_manifest([make_record("a")], fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [(record_to_line(make_record("a")) + "\n").encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_validate_rejects_bad_spans():
    with pytest.raises(ManifestError):
        make_record(words=(WordSpan(word="a", start_s=1.0, end_s=0.5, score=0.9),))
    with pytest.raises(ManifestError):
        make_record(words=(WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.9),
                           WordSpan(word="b", start_s=0.5, end_s=2.0, score=0.9)),
                    avg_confidence=0.9)
    with pytest.raises(ManifestError):
        make_record(duration_s=1.0,
                    words=(WordSpan(word="a", start_s=0.5, end_s=1.5, score=0.9),),
                    avg_confidence=0.9)


def test_validate_checks_confidence_consistency():
    words = (WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.8),
             WordSpan(word="b", start_s=1.0, end_s=2.0, score=0.6))
    ok = make_record(words=words, avg_confidence=0.7)
    validate_record(ok)
    with pytest.raises(ManifestError):
        make_record(words=words, avg_confidence=0.75)


def test_validate_span_end_may_touch_quantized_duration():
    record = make_record(duration_s=2.0004, words=(
        WordSpan(word="a", start_s=0.0, end_s=2.0, score=0.9),),
        avg_confidence=0.9)
    validate_record(record)


def test_adapter_maps_and_defaults():
    spec = SourceAdapterSpec(
        source="commonvoice",
        field_map={"key": "client_id", "audio_ref": "path",
                   "duration_s": "duration", "raw_text": "sentence"},
        defaults={"language": "de"},
    )
    row = {"client_id": "c1", "path": "clips/c1.mp3", "duration": "4.5",
           "sentence": "Guten Tag", "age": "30"}
    record = adapt(row, spec)
    assert record.key == "c1"
    assert record.language == "de"
    assert record.duration_s == 4.5
    assert record.source == "commonvoice"
    assert record.raw_text == "Guten Tag"


def test_adapter_turns_other_values_of_text_fields_into_strings():
    spec = SourceAdapterSpec(source="web", field_map={"key": "id", "raw_text": "text"},
                             defaults={"language": "en", "audio_ref": "a.wav",
                                       "duration_s": 1.0})
    record = adapt({"id": 7, "text": 42}, spec)
    assert (record.key, record.raw_text) == ("7", "42")


def test_adapter_missing_required_field():
    # The spec refuses itself when it is made, before any row is adapted.
    with pytest.raises(AdapterError) as err:
        SourceAdapterSpec(source="x", field_map={"key": "id"}, defaults={})
    assert "language" in str(err.value) or "audio_ref" in str(err.value)


def test_with_words_attaches_alignment():
    words = (WordSpan(word="hi", start_s=0.0, end_s=0.5, score=0.9),)
    record = with_words(make_record(), words, 0.9)
    assert record.words == words
    assert record.avg_confidence == 0.9


# --------------------------------------------------- error parity, validate-once

_GOOD_LINE = {"key": "ok", "language": "en", "audio_ref": "a.wav",
              "duration_s": 2.0, "raw_text": "hi there"}
_WORD0 = {"word": "hi", "start_s": 0.1, "end_s": 0.5, "score": 0.9}


def _aligned_line(**changes):
    obj = dict(_GOOD_LINE, key="bad", normalized_text="hi there",
               romanized_tokens=["hi", "there"], avg_confidence=0.8,
               words=[_WORD0, {"word": "there", "start_s": 0.6, "end_s": 1.0,
                               "score": 0.7}])
    obj.update(changes)
    return obj


def _second_word(**changes):
    return [_WORD0, dict({"word": "there", "start_s": 0.6, "end_s": 1.0,
                          "score": 0.7}, **changes)]


@pytest.mark.parametrize("obj, message", [
    (_aligned_line(words=[_WORD0, "there"]),
     "line 3, field 'words[1]': expected object, got str"),
    (_aligned_line(words=[_WORD0, {"word": "there", "start_s": 0.6, "end_s": 1.0}]),
     "line 3, field 'words[1].score': missing required field"),
    (_aligned_line(words=_second_word(start_s=True)),
     "line 3, field 'words[1].start_s': expected number, got bool"),
    (_aligned_line(words=_second_word(end_s="1")),
     "line 3, field 'words[1].end_s': expected number, got str"),
    (_aligned_line(words=_second_word(word=3)),
     "line 3, field 'words[1].word': expected string, got int"),
    (_aligned_line(words=_second_word(score=None)),
     "line 3, field 'words[1].score': expected number, got NoneType"),
    (_aligned_line(words={"word": "hi"}),
     "line 3, field 'words': expected list, got dict"),
    (_aligned_line(duration_s=0.9),
     "line 3, key 'bad', field 'words[1]': span ends at 1.0 beyond duration 0.9"),
])
def test_malformed_line_error_text(tmp_path, obj, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_GOOD_LINE) + "\n\n" + json.dumps(obj) + "\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_manifest(path))
    assert str(err.value) == message
    assert err.value.line_no == 3


def test_read_then_write_validates_each_record_once(tmp_path, monkeypatch):
    path = tmp_path / "in.jsonl"
    write_manifest([aligned_record("a"), aligned_record("b"), make_record("c")], path)
    calls = []
    real = manifest_module.validate_record

    def counting(record):
        calls.append(record.key)
        real(record)

    monkeypatch.setattr(manifest_module, "validate_record", counting)
    records = list(read_manifest(path))
    assert calls == ["a", "b", "c"]
    write_manifest(records, tmp_path / "out.jsonl")
    write_manifest(records, tmp_path / "again.jsonl")
    assert calls == ["a", "b", "c"]
    # A copy is a new record and is checked when it is made, not when written.
    copy = replace(records[0], source="x")
    assert calls == ["a", "b", "c", "a"]
    write_manifest([copy], tmp_path / "copy.jsonl")
    assert calls == ["a", "b", "c", "a"]


def test_write_rejects_backwards_span_built_in_code(tmp_path):
    path = tmp_path / "out.jsonl"
    with pytest.raises(SchemaError, match=r"span \[1.0, 0.5\) is empty or negative"):
        write_manifest([make_record(words=(
            WordSpan(word="a", start_s=1.0, end_s=0.5, score=0.9),))], path)
    assert not path.exists()


def test_copy_of_validated_record_is_checked_again(tmp_path):
    path = tmp_path / "in.jsonl"
    write_manifest([aligned_record("a")], path)
    (record,) = read_manifest(path)
    with pytest.raises(SchemaError, match="beyond duration"):
        with_words(record, (WordSpan(word="a", start_s=0.5, end_s=9.0, score=0.9),
                            WordSpan(word="b", start_s=9.0, end_s=9.5, score=0.9)), 0.9)


# ------------------------------------------------- a record checks itself

_HI = WordSpan(word="hi", start_s=0.1, end_s=0.5, score=0.9)
_THERE = WordSpan(word="there", start_s=0.6, end_s=1.0, score=0.7)
_VALID = dict(key="a", language="en", audio_ref="a.wav", duration_s=2.0,
              raw_text="hi there", romanized_tokens=("hi", "there"),
              words=(_HI, _THERE), avg_confidence=0.8)


def _span(start_s, end_s, score=0.9):
    return WordSpan(word="hi", start_s=start_s, end_s=end_s, score=score)


# One row per invariant validate_record enforces: the fields that break it,
# and the message. Rows that change only words and avg_confidence can also
# be reached through with_words.
_INVARIANTS = [
    ("empty-key", {"key": ""}, "key must be non-empty"),
    ("empty-language", {"language": ""}, "language must be non-empty"),
    ("zero-duration", {"duration_s": 0.0}, "duration_s must be finite and positive"),
    ("nan-duration", {"duration_s": math.nan}, "duration_s must be finite and positive"),
    ("sub-ms-duration", {"duration_s": 0.0004}, "duration_s must be finite and positive"),
    ("negative-duration", {"duration_s": -1.0}, "finite and positive, got -1.0$"),
    ("confidence-range", {"avg_confidence": 1.5}, r"avg_confidence 1.5 outside \[0, 1\]"),
    ("backwards-span", {"words": (_span(0.5, 0.1), _THERE)}, "is empty or negative"),
    ("negative-span", {"words": (_span(-0.1, 0.5), _THERE)}, "is empty or negative"),
    ("sub-ms-span", {"words": (_span(0.0001, 0.0004), _THERE)},
     r"span \[0.0001, 0.0004\) is written as \[0.0, 0.0\), which is empty"),
    ("past-duration", {"words": (_HI, replace(_THERE, end_s=2.5))}, "beyond duration"),
    ("score-range", {"words": (_span(0.1, 0.5, score=1.5), _THERE)},
     r"score 1.5 outside \[0, 1\]"),
    ("overlap", {"words": (_HI, replace(_THERE, start_s=0.4))}, "before previous end"),
    ("token-count", {"words": (_HI,), "avg_confidence": 0.9},
     "1 word spans but 2 romanized tokens"),
    ("confidence-mean", {"avg_confidence": 0.5}, "does not match word score mean"),
]


def _by_constructor(changes, tmp_path):
    return UtteranceRecord(**{**_VALID, **changes})


def _by_replace(changes, tmp_path):
    return replace(UtteranceRecord(**_VALID), **changes)


def _by_with_words(changes, tmp_path):
    return with_words(UtteranceRecord(**_VALID), changes.get("words", _VALID["words"]),
                      changes.get("avg_confidence", _VALID["avg_confidence"]))


def _by_read_manifest(changes, tmp_path):
    # Times as they stand, not rounded as a writer would round them.
    row = {**UtteranceRecord(**_VALID).to_json_dict(), **changes}
    row["words"] = [vars(w) if isinstance(w, WordSpan) else w for w in row["words"]]
    first = record_to_line(UtteranceRecord(**{**_VALID, "key": "first"}))
    path = tmp_path / "m.jsonl"
    path.write_text(first + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    return list(read_manifest(path))


_WAYS = {"constructor": _by_constructor, "replace": _by_replace,
         "with_words": _by_with_words, "read_manifest": _by_read_manifest}


@pytest.mark.parametrize("way, changes, message", [
    pytest.param(way, changes, message, id=f"{way}-{name}")
    for way in _WAYS for name, changes, message in _INVARIANTS
    if way != "with_words" or set(changes) <= {"words", "avg_confidence"}])
def test_every_way_of_making_a_record_checks_it(tmp_path, way, changes, message):
    with pytest.raises(SchemaError, match=message) as err:
        _WAYS[way](changes, tmp_path)
    assert err.value.line_no == (2 if way == "read_manifest" else None)


# tuple() would split a bare string into letters; each way of making a
# record refuses one instead. read_manifest refuses any non-list already.
@pytest.mark.parametrize("way, name", [
    ("constructor", "romanized_tokens"), ("constructor", "words"),
    ("replace", "romanized_tokens"), ("replace", "words"), ("with_words", "words")])
def test_a_bare_string_is_not_a_sequence_of_tokens(tmp_path, way, name):
    with pytest.raises(SchemaError, match=f"^key 'a', field '{name}': "
                                          "expected a sequence, got str$"):
        _WAYS[way]({name: "hi"}, tmp_path)


# A field of the wrong type is refused when the record is made, so no
# record exists that write_manifest or read_manifest would refuse later.
@pytest.mark.parametrize("way", ["constructor", "replace"])
@pytest.mark.parametrize("name, value, message", [
    ("key", 5, "^field 'key': expected string, got int$"),
    ("language", b"en", "^key 'a', field 'language': expected string, got bytes$"),
    ("audio_ref", None, "^key 'a', field 'audio_ref': expected string, got NoneType$"),
    ("raw_text", None, "^key 'a', field 'raw_text': expected string, got NoneType$"),
    ("normalized_text", 1.0, "^key 'a', field 'normalized_text': expected string, got float$"),
    ("source", None, "^key 'a', field 'source': expected string, got NoneType$"),
    ("duration_s", "abc", "^key 'a', field 'duration_s': expected number, got str$"),
    ("duration_s", True, "^key 'a', field 'duration_s': expected number, got bool$"),
    ("duration_s", np.bool_(True), "^key 'a', field 'duration_s': expected number, got bool_?$"),
    ("duration_s", 10 ** 400, "^key 'a', field 'duration_s': integer too large for a float$"),
], ids=["int-key", "bytes-language", "none-audio-ref", "none-raw-text", "float-normalized",
        "none-source", "str-duration", "bool-duration", "numpy-bool-duration",
        "overflow-duration"])
def test_a_wrongly_typed_field_is_refused(tmp_path, way, name, value, message):
    with pytest.raises(SchemaError, match=message):
        _WAYS[way]({name: value}, tmp_path)


@pytest.mark.parametrize("duration", [np.float32(2.0), np.float64(2.0), np.int64(2), 2])
def test_numpy_real_durations_are_numbers(duration):
    record = UtteranceRecord(**{**_VALID, "duration_s": duration})
    assert type(record.duration_s) is float and record.duration_s == 2.0


_ROWS = SourceAdapterSpec(source="web", field_map={"key": "id", "duration_s": "len"},
                          defaults={"language": "en", "audio_ref": "a.wav",
                                    "raw_text": "hi"})


# Errors raised while adapting a row, and a repeated key, carry the line too.
@pytest.mark.parametrize("second, error, message", [
    ('{"len": 1.0}', AdapterError,
     "line 2, field 'key': no mapping or default for required field"),
    ('{"id": "r2", "len": 1' + "0" * 400 + "}", AdapterError,
     "line 2, key 'r2', field 'duration_s': integer too large for a float"),
    ('{"id": "r2", "len": 0.0004}', SchemaError,
     "line 2, key 'r2', field 'duration_s': duration_s must be finite and positive, got 0.0"),
    ('{"id": "r1", "len": 2.0}', DuplicateKeyError, "line 2, key 'r1': duplicate key"),
], ids=["unmapped", "overflow", "sub-ms-duration", "duplicate"])
def test_read_manifest_numbers_adapter_errors(tmp_path, second, error, message):
    path = tmp_path / "m.jsonl"
    path.write_text(f'{{"id": "r1", "len": 1.0}}\n{second}\n', encoding="utf-8")
    with pytest.raises(error) as err:
        list(read_manifest(path, _ROWS))
    assert err.value.line_no == 2
    assert str(err.value) == message


def test_validation_mark_is_not_part_of_the_record(tmp_path):
    path = tmp_path / "in.jsonl"
    write_manifest([aligned_record("a")], path)
    (record,) = read_manifest(path)
    assert record == aligned_record("a")
    assert repr(record) == repr(aligned_record("a"))


# ----------------------------------------------------- read/write round trip

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6)


def _seconds(ms):
    """A millisecond time as JSON would carry it: an integer when whole."""
    return ms // 1000 if ms % 1000 == 0 else ms / 1000


@st.composite
def manifest_objects(draw):
    n_words = draw(st.integers(0, 4))
    millis = st.integers(0, 20).map(lambda s: s * 1000) | st.integers(0, 20_000)
    cuts = sorted(draw(st.sets(millis,
                               min_size=2 * n_words, max_size=2 * n_words)))
    scores = [draw(st.sampled_from([0, 1]) | st.floats(0, 1)) for _ in range(n_words)]
    words = [{"word": draw(_TEXT), "start_s": _seconds(cuts[2 * i]),
              "end_s": _seconds(cuts[2 * i + 1]), "score": scores[i]}
             for i in range(n_words)]
    end_ms = cuts[-1] if cuts else 0
    obj = {"key": draw(st.text(min_size=1, max_size=8)),
           "language": draw(st.sampled_from(["en", "ru", "zh", "vi"])),
           "audio_ref": draw(_TEXT),
           "duration_s": _seconds(end_ms + draw(st.sampled_from([1000, 2000])
                                                | st.integers(0 if words else 1, 5000))),
           "raw_text": draw(_TEXT)}
    if draw(st.booleans()):
        obj["normalized_text"] = draw(_TEXT)
        obj["source"] = draw(_TEXT)
    if words:
        obj["words"] = words
        if draw(st.booleans()):
            obj["romanized_tokens"] = [draw(_TEXT) for _ in words]
        if draw(st.booleans()):
            obj["avg_confidence"] = sum(scores) / len(scores)
    elif draw(st.booleans()):
        obj["words"] = []
    extra = draw(st.dictionaries(
        _TEXT.filter(lambda name: name not in manifest_module._FIELD_ORDER),
        _JSON_VALUES, max_size=3))
    obj.update(extra)
    return obj


@settings(max_examples=150, deadline=None)
@given(st.lists(manifest_objects(), max_size=5, unique_by=lambda obj: obj["key"]))
def test_read_write_read_round_trip(objs):
    with tempfile.TemporaryDirectory() as tmp:
        source, first, second = (Path(tmp) / name for name in ("in", "a", "b"))
        source.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n"
                                  for obj in objs), encoding="utf-8")
        records = list(read_manifest(source))
        write_manifest(records, first)
        again = list(read_manifest(first))
        write_manifest(again, second)
        assert again == records
        assert second.read_bytes() == first.read_bytes()


def test_duration_is_rounded_where_it_enters():
    # A record is judged by the duration it is written with, so a rerun on
    # voxkit's own output agrees with the run that wrote it.
    line = make_record().to_json_dict()
    spec = SourceAdapterSpec(source="web", field_map={"duration_s": "len"},
                             defaults={"key": "k", "language": "en",
                                       "audio_ref": "a.wav", "raw_text": "hi"})
    for raw, rounded in ((0.4996, 0.5), (30.0004, 30.0), (1.2345, 1.234)):
        assert record_from_json_dict({**line, "duration_s": raw}).duration_s == rounded
        assert adapt({"len": str(raw)}, spec).duration_s == rounded
    with pytest.raises(SchemaError, match="duration_s must be finite and positive"):
        record_from_json_dict({**line, "duration_s": 0.0004})
    with pytest.raises(SchemaError, match="duration_s must be finite and positive"):
        adapt({"len": 0.0004}, spec)
    # A record built in code keeps its duration; only writing rounds it.
    assert make_record(duration_s=0.4996).duration_s == 0.4996


def test_writers_make_a_missing_directory_only_when_needed(tmp_path, monkeypatch):
    target = tmp_path / "new" / "deeper" / "m.jsonl"
    write_manifest([make_record()], target)
    assert target.is_file()
    assert os.listdir(target.parent) == ["m.jsonl"]

    def no_makedirs(name, *args, **kwargs):
        raise AssertionError(f"makedirs {name}")

    monkeypatch.setattr(os, "makedirs", no_makedirs)
    write_manifest([make_record("utt2")], target)
    assert [r.key for r in read_manifest(target)] == ["utt2"]


def test_atomic_write_takes_a_string_target(tmp_path):
    from voxkit.manifest import atomic_write

    # A missing parent directory is made; a symlink keeps its link and its
    # target is replaced; a trailing separator still names the file.
    target = str(tmp_path / "new" / "out.txt")
    with atomic_write(target) as fh:
        fh.write("one")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with atomic_write(str(link)) as fh:
        fh.write("two")
    assert link.is_symlink()
    with atomic_write(target + os.sep) as fh:
        fh.write("three")
    assert Path(target).read_text(encoding="utf-8") == "three"
    assert os.listdir(tmp_path / "new") == ["out.txt"]
    # A block that raises leaves the old file and no temporary one.
    with pytest.raises(RuntimeError):
        with atomic_write(str(link)) as fh:
            fh.write("four")
            raise RuntimeError
    assert os.listdir(tmp_path / "new") == ["out.txt"]
    assert link.read_text(encoding="utf-8") == "three"
    # So does a block that raises after making missing directories, which
    # go again; one that existed before stays.
    (tmp_path / "empty").mkdir()
    with pytest.raises(RuntimeError):
        with atomic_write(str(tmp_path / "empty" / "a" / "b" / "out.txt")):
            assert (tmp_path / "empty" / "a" / "b").is_dir()
            raise RuntimeError
    assert os.listdir(tmp_path / "empty") == []


def test_atomic_write_temp_file_sits_beside_its_target(tmp_path, monkeypatch):
    from voxkit.manifest import atomic_write

    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((os.fspath(src), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    (tmp_path / "real.txt").write_text("old", encoding="utf-8")
    (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
    for target in (tmp_path / "link.txt", str(tmp_path / "real.txt")):
        with atomic_write(target) as fh:
            fh.write("new")
    assert len(replaced) == 2
    for src, dst in replaced:
        assert dst == str(tmp_path / "real.txt")
        assert os.path.dirname(src) == str(tmp_path)
        assert re.fullmatch(r"\.real\.txt\.[0-9a-f]{8}\.tmp", os.path.basename(src))


def test_json_writers_write_a_dataclass_as_its_fields(tmp_path):
    from voxkit import SplicePoint, StitchPlan
    from voxkit.manifest import write_json, write_json_lines

    splice = SplicePoint(boundary=0, overlap_start=90, splice=95, fade_start=93,
                         zero_crossing=True)
    plan = StitchPlan(segment_offsets=(0, 90), overlap_samples=(10,),
                      fade_samples=4, splices=(splice,))
    write_json(tmp_path / "plan.json", plan)
    assert json.loads((tmp_path / "plan.json").read_text(encoding="utf-8")) == {
        "fade_samples": 4, "overlap_samples": [10], "segment_offsets": [0, 90],
        "splices": [{"boundary": 0, "fade_start": 93, "overlap_start": 90,
                     "splice": 95, "zero_crossing": True}]}
    write_json_lines(tmp_path / "rows.jsonl", [splice])
    assert (tmp_path / "rows.jsonl").read_text(encoding="utf-8") == (
        '{"boundary": 0, "fade_start": 93, "overlap_start": 90, "splice": 95, '
        '"zero_crossing": true}\n')


@pytest.mark.parametrize("writer", ["write_json", "write_json_lines"])
def test_json_writers_refuse_what_json_cannot_encode(tmp_path, writer):
    write = getattr(manifest_module, writer)
    path = tmp_path / "out.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(TypeError, match="Object of type complex is not JSON serializable"):
        write(path, [1j])
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]
