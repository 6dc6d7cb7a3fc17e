import json
import os
import stat
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

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


def test_missing_core_field_names_the_field():
    obj = json.loads(record_to_line(make_record()))
    del obj["duration_s"]
    with pytest.raises(SchemaError) as err:
        record_from_json_dict(obj, line_no=7)
    assert "duration_s" in str(err.value)
    assert "line 7" in str(err.value)


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
    bad = make_record("utt2", avg_confidence=2.0)
    with pytest.raises(ManifestError):
        write_manifest([make_record(), bad], path)
    assert not path.exists()


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
    backwards = make_record(words=(
        WordSpan(word="a", start_s=1.0, end_s=0.5, score=0.9),))
    with pytest.raises(ManifestError):
        validate_record(backwards)
    overlapping = make_record(words=(
        WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.9),
        WordSpan(word="b", start_s=0.5, end_s=2.0, score=0.9)),
        avg_confidence=0.9)
    with pytest.raises(ManifestError):
        validate_record(overlapping)
    past_end = make_record(duration_s=1.0, words=(
        WordSpan(word="a", start_s=0.5, end_s=1.5, score=0.9),),
        avg_confidence=0.9)
    with pytest.raises(ManifestError):
        validate_record(past_end)


def test_validate_checks_confidence_consistency():
    words = (WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.8),
             WordSpan(word="b", start_s=1.0, end_s=2.0, score=0.6))
    ok = make_record(words=words, avg_confidence=0.7)
    validate_record(ok)
    off = make_record(words=words, avg_confidence=0.75)
    with pytest.raises(ManifestError):
        validate_record(off)


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


def test_adapter_missing_required_field():
    spec = SourceAdapterSpec(source="x", field_map={"key": "id"}, defaults={})
    with pytest.raises(AdapterError) as err:
        adapt({"id": "a"}, spec)
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

    def counting(record, line_no=None):
        calls.append(record.key)
        real(record, line_no=line_no)

    monkeypatch.setattr(manifest_module, "validate_record", counting)
    records = list(read_manifest(path))
    write_manifest(records, tmp_path / "out.jsonl")
    write_manifest(records, tmp_path / "again.jsonl")
    assert calls == ["a", "b", "c"]
    # A copy is a new record and is checked when written.
    write_manifest([replace(records[0], source="x")], tmp_path / "copy.jsonl")
    assert calls == ["a", "b", "c", "a"]


def test_write_rejects_backwards_span_built_in_code(tmp_path):
    path = tmp_path / "out.jsonl"
    record = make_record(words=(WordSpan(word="a", start_s=1.0, end_s=0.5, score=0.9),))
    with pytest.raises(SchemaError, match=r"span \[1.0, 0.5\) is empty or negative"):
        write_manifest([record], path)
    assert not path.exists()


def test_copy_of_validated_record_is_checked_again(tmp_path):
    path = tmp_path / "in.jsonl"
    write_manifest([aligned_record("a")], path)
    (record,) = read_manifest(path)
    bad = with_words(record, (WordSpan(word="a", start_s=0.5, end_s=9.0, score=0.9),
                              WordSpan(word="b", start_s=9.0, end_s=9.5, score=0.9)), 0.9)
    with pytest.raises(SchemaError, match="beyond duration"):
        write_manifest([bad], tmp_path / "out.jsonl")


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

    def no_mkdir(self, *args, **kwargs):
        raise AssertionError(f"mkdir {self}")

    monkeypatch.setattr(Path, "mkdir", no_mkdir)
    write_manifest([make_record("utt2")], target)
    assert [r.key for r in read_manifest(target)] == ["utt2"]


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
