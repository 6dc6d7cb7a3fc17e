"""Utterance manifests: the JSONL interchange format between pipeline stages.

A manifest is a UTF-8 JSONL file, one utterance record per line. Field names
and serialization are part of the on-disk contract: times are written at
millisecond (3-decimal) precision, keys are unique within a file, and writing
the same records twice produces byte-identical output. Unknown fields found
in input lines are carried through untouched so foreign annotations survive a
round-trip.

This module is the only one that reads or writes JSON files: read_manifest
reads manifests and adapted source rows, write_manifest writes records, and
write_json and write_json_lines write every other JSON output, a dataclass
instance as its fields. All of them write UTF-8 with sorted keys (records in
canonical field order) and replace the target atomically.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

# Canonical field order for serialization. Extra fields follow, sorted by name.
_FIELD_ORDER = (
    "key",
    "language",
    "audio_ref",
    "duration_s",
    "raw_text",
    "normalized_text",
    "romanized_tokens",
    "words",
    "avg_confidence",
    "source",
)

_WORD_FIELDS = ("word", "start_s", "end_s", "score")

# json.dumps(..., ensure_ascii=False), built once rather than per line.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)

# Tolerance for checking avg_confidence against the mean of word scores.
_CONFIDENCE_TOL = 1e-6


class ManifestError(Exception):
    """Base class for manifest validation and I/O problems."""

    def __init__(self, message: str, *, line_no: int | None = None,
                 field_name: str | None = None, key: str | None = None):
        parts = []
        if line_no is not None:
            parts.append(f"line {line_no}")
        if key is not None:
            parts.append(f"key {key!r}")
        if field_name is not None:
            parts.append(f"field {field_name!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line_no = line_no
        self.field_name = field_name
        self.key = key


class SchemaError(ManifestError):
    """A line or record does not conform to the manifest schema."""


class DuplicateKeyError(ManifestError):
    """The same key appears more than once in a manifest."""


def quantize_time(value: float) -> float:
    """Round a time in seconds to the manifest's millisecond precision."""
    return round(float(value), 3)


@dataclass(frozen=True)
class WordSpan:
    """One aligned word: surface form, time span in seconds, score in [0, 1]."""

    word: str
    start_s: float
    end_s: float
    score: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "word": self.word,
            "start_s": quantize_time(self.start_s),
            "end_s": quantize_time(self.end_s),
            "score": self.score,
        }


@dataclass(frozen=True)
class UtteranceRecord:
    """One utterance with text, optional alignment, and provenance.

    ``words`` and ``avg_confidence`` stay empty/None until alignment has run;
    ``normalized_text`` and ``romanized_tokens`` until normalization has.
    ``extra`` holds unknown input fields verbatim for round-tripping.
    """

    key: str
    language: str
    audio_ref: str
    duration_s: float
    raw_text: str
    normalized_text: str = ""
    romanized_tokens: tuple[str, ...] = ()
    words: tuple[WordSpan, ...] = ()
    avg_confidence: float | None = None
    source: str = ""
    extra: dict[str, Any] = field(default_factory=dict)
    # Set by validate_record once the record has passed. The record is
    # frozen, so the mark cannot go stale; copies made with replace() start
    # unmarked.
    _validated: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        # Canonicalize container types so equality is insensitive to whether
        # the caller passed lists or tuples.
        object.__setattr__(self, "romanized_tokens", tuple(self.romanized_tokens))
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "duration_s", float(self.duration_s))

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "key": self.key,
            "language": self.language,
            "audio_ref": self.audio_ref,
            "duration_s": quantize_time(self.duration_s),
            "raw_text": self.raw_text,
            "normalized_text": self.normalized_text,
            "romanized_tokens": list(self.romanized_tokens),
            "words": [w.to_json_dict() for w in self.words],
            "avg_confidence": self.avg_confidence,
            "source": self.source,
        }
        for name in sorted(self.extra):
            if name not in _FIELD_ORDER:
                out[name] = self.extra[name]
        return out


def _type_error(line_no: int | None, field_name: str, expected: str, got: Any) -> SchemaError:
    return SchemaError(
        f"expected {expected}, got {type(got).__name__}",
        line_no=line_no, field_name=field_name,
    )


def _check_str(obj: dict, name: str, line_no: int | None, default: str | None = None) -> str:
    if name not in obj:
        if default is not None:
            return default
        raise SchemaError("missing required field", line_no=line_no, field_name=name)
    value = obj[name]
    if not isinstance(value, str):
        raise _type_error(line_no, name, "string", value)
    return value


def _number(value: Any, line_no: int | None, field_name: str, expected: str) -> float:
    """A JSON number as a float; bool, a subclass of int, is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _type_error(line_no, field_name, expected, value)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("integer too large for a float", line_no=line_no,
                          field_name=field_name) from None


def _check_number(obj: dict, name: str, line_no: int | None) -> float:
    if name not in obj:
        raise SchemaError("missing required field", line_no=line_no, field_name=name)
    return _number(obj[name], line_no, name, "number")


def _parse_word(obj: Any, line_no: int | None, index: int) -> WordSpan:
    # Fast path for a well-formed word; anything else takes the checks below,
    # which word the error.
    if type(obj) is dict:
        word = obj.get("word")
        start_s = obj.get("start_s")
        end_s = obj.get("end_s")
        score = obj.get("score")
        if (type(word) is str and type(start_s) is float
                and type(end_s) is float and type(score) is float):
            return WordSpan(word, start_s, end_s, score)
    if not isinstance(obj, dict):
        raise _type_error(line_no, f"words[{index}]", "object", obj)
    for name in _WORD_FIELDS:
        if name not in obj:
            raise SchemaError("missing required field", line_no=line_no,
                              field_name=f"words[{index}].{name}")
    word = obj["word"]
    if not isinstance(word, str):
        raise _type_error(line_no, f"words[{index}].word", "string", word)
    values = {name: _number(obj[name], line_no, f"words[{index}].{name}", "number")
              for name in ("start_s", "end_s", "score")}
    return WordSpan(word=word, **values)


def record_from_json_dict(obj: dict[str, Any], line_no: int | None = None) -> UtteranceRecord:
    """Build a validated record from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise _type_error(line_no, "<line>", "object", obj)

    key = _check_str(obj, "key", line_no)
    language = _check_str(obj, "language", line_no)
    audio_ref = _check_str(obj, "audio_ref", line_no)
    # Rounded on the way in, so a record is judged by the value it is written with.
    duration_s = quantize_time(_check_number(obj, "duration_s", line_no))
    raw_text = _check_str(obj, "raw_text", line_no)
    normalized_text = _check_str(obj, "normalized_text", line_no, default="")
    source = _check_str(obj, "source", line_no, default="")

    tokens_raw = obj.get("romanized_tokens", [])
    if not isinstance(tokens_raw, list) or any(not isinstance(t, str) for t in tokens_raw):
        raise _type_error(line_no, "romanized_tokens", "list of strings", tokens_raw)

    words_raw = obj.get("words", [])
    if not isinstance(words_raw, list):
        raise _type_error(line_no, "words", "list", words_raw)
    words = tuple(_parse_word(w, line_no, i) for i, w in enumerate(words_raw))

    avg_confidence = obj.get("avg_confidence")
    if avg_confidence is not None:
        avg_confidence = _number(avg_confidence, line_no, "avg_confidence", "number or null")

    extra = {k: v for k, v in obj.items() if k not in _FIELD_ORDER}

    record = UtteranceRecord(
        key=key, language=language, audio_ref=audio_ref, duration_s=duration_s,
        raw_text=raw_text, normalized_text=normalized_text,
        romanized_tokens=tuple(tokens_raw), words=words,
        avg_confidence=avg_confidence, source=source, extra=extra,
    )
    validate_record(record, line_no=line_no)
    return record


def validate_record(record: UtteranceRecord, line_no: int | None = None) -> None:
    """Raise SchemaError if the record violates a manifest invariant.

    A record that passes is marked, and write_manifest does not check it again.
    """
    if not record.key:
        raise SchemaError("key must be non-empty", line_no=line_no, field_name="key")
    if not record.language:
        raise SchemaError("language must be non-empty", line_no=line_no,
                          field_name="language", key=record.key)
    if not (math.isfinite(record.duration_s) and record.duration_s > 0):
        raise SchemaError(f"duration_s must be finite and positive, got {record.duration_s}",
                          line_no=line_no, field_name="duration_s", key=record.key)
    if record.avg_confidence is not None and not (0.0 <= record.avg_confidence <= 1.0):
        raise SchemaError(f"avg_confidence {record.avg_confidence} outside [0, 1]",
                          line_no=line_no, field_name="avg_confidence", key=record.key)

    duration_q = quantize_time(record.duration_s)
    prev_end = None
    for i, span in enumerate(record.words):
        if not (0.0 <= span.start_s < span.end_s):
            raise SchemaError(
                f"span [{span.start_s}, {span.end_s}) is empty or negative",
                line_no=line_no, field_name=f"words[{i}]", key=record.key)
        # Rounding is monotone and duration_q is already rounded, so an end
        # at or below duration_q cannot round past it.
        if span.end_s > duration_q and quantize_time(span.end_s) > duration_q:
            raise SchemaError(
                f"span ends at {span.end_s} beyond duration {record.duration_s}",
                line_no=line_no, field_name=f"words[{i}]", key=record.key)
        if not (0.0 <= span.score <= 1.0):
            raise SchemaError(f"score {span.score} outside [0, 1]",
                              line_no=line_no, field_name=f"words[{i}]", key=record.key)
        if prev_end is not None and span.start_s < prev_end:
            raise SchemaError(
                f"span starts at {span.start_s} before previous end {prev_end}",
                line_no=line_no, field_name=f"words[{i}]", key=record.key)
        prev_end = span.end_s

    if record.words:
        if record.romanized_tokens and len(record.words) != len(record.romanized_tokens):
            raise SchemaError(
                f"{len(record.words)} word spans but {len(record.romanized_tokens)} "
                "romanized tokens", line_no=line_no, field_name="words", key=record.key)
        if record.avg_confidence is not None:
            mean_score = sum(w.score for w in record.words) / len(record.words)
            if abs(record.avg_confidence - mean_score) > _CONFIDENCE_TOL:
                raise SchemaError(
                    f"avg_confidence {record.avg_confidence} does not match word "
                    f"score mean {mean_score}", line_no=line_no,
                    field_name="avg_confidence", key=record.key)
    object.__setattr__(record, "_validated", True)


def record_to_line(record: UtteranceRecord) -> str:
    """Serialize one record to its canonical JSONL line (no newline)."""
    return _LINE_ENCODER.encode(record.to_json_dict())


def read_manifest(path: str | Path,
                  adapter: SourceAdapterSpec | None = None) -> Iterator[UtteranceRecord]:
    """Yield records from a JSONL file in file order, skipping blank lines.

    Without an adapter each line is a manifest record; with one, each line is
    a source row that ``adapt`` maps onto a record. Raises SchemaError with
    the 1-based line number for a line that is not JSON or not a valid
    record, AdapterError for a row the adapter cannot map, and
    DuplicateKeyError when a key repeats within the file.
    """
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also an integer literal past int's digit limit
                raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                                  line_no=line_no) from exc
            if adapter is None:
                record = record_from_json_dict(obj, line_no=line_no)
            else:
                record = adapt(obj, adapter, line_no=line_no)
            if record.key in seen:
                raise DuplicateKeyError("duplicate key", line_no=line_no, key=record.key)
            seen.add(record.key)
            yield record


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for UTF-8 text writing so that it appears only when complete.

    The text goes to a temporary file in the target's directory, which
    ``os.replace`` moves onto ``path`` when the block exits normally. When
    the block raises, the temporary file is removed and whatever was at
    ``path`` before is left as it was. Nothing is fsynced. A symlink is
    followed, so its target is replaced and the link kept; a path that
    exists but is not a regular file (a pipe, or a device such as
    /dev/stdout) cannot be replaced and is written directly. A missing
    parent directory is created; no other voxkit code makes one.
    """
    path = Path(path)
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            path = Path(os.path.realpath(path))
            mode = os.stat(path).st_mode
    except (FileNotFoundError, NotADirectoryError):
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:
        # Only now, so writing into an existing directory costs no extra call.
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(records: Iterable[UtteranceRecord], path: str | Path) -> int:
    """Write records as JSONL. Returns the number of records written.

    Output is byte-stable: the same records always produce the same file.
    Duplicate keys are rejected before anything is written, and the file
    is replaced atomically, so a failed write leaves the old one in place.
    A record is validated unless it already passed validate_record.
    """
    records = list(records)
    seen: set[str] = set()
    for record in records:
        if not record._validated:
            validate_record(record)
        if record.key in seen:
            raise DuplicateKeyError("duplicate key", key=record.key)
        seen.add(record.key)
    with atomic_write(path) as fh:
        for record in records:
            fh.write(record_to_line(record))
            fh.write("\n")
    return len(records)


def _fields(obj: Any) -> dict[str, Any]:
    """json's default hook: a dataclass instance is written as its fields."""
    if is_dataclass(type(obj)):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_document(payload: Any) -> str:
    """payload as one indented, key-sorted JSON document that keeps non-ASCII
    text as it is, with a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False,
                      default=_fields) + "\n"


def write_json(path: str | Path, payload: Any) -> None:
    """Write payload as a json_document in UTF-8, atomically."""
    with atomic_write(path) as fh:
        fh.write(json_document(payload))


def write_json_lines(path: str | Path, rows: Iterable[Any]) -> None:
    """Write one key-sorted UTF-8 JSON line per row, atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False, default=_fields))
            fh.write("\n")


@dataclass(frozen=True)
class SourceAdapterSpec:
    """How to map one source corpus's row schema onto utterance records.

    ``field_map`` maps record field names to source row keys; ``defaults``
    supplies constant values for fields the source lacks. Every one of the
    required record fields must be reachable through one of the two.
    """

    source: str
    field_map: dict[str, str] = field(default_factory=dict)
    defaults: dict[str, Any] = field(default_factory=dict)

    # The fields a record cannot exist without, which an adapter populates.
    # The remaining canonical fields are filled by later pipeline stages.
    _ADAPTABLE = ("key", "language", "audio_ref", "duration_s", "raw_text")


class AdapterError(ManifestError):
    """A source row cannot be mapped onto a record."""


def adapt(source_row: dict[str, Any], spec: SourceAdapterSpec,
          line_no: int | None = None) -> UtteranceRecord:
    """Map one raw source row to a record, leaving alignment fields empty.

    ``line_no`` is the row's line in its file, reported in any error.
    """
    if not isinstance(source_row, dict):
        raise AdapterError("expected a JSON object", line_no=line_no)
    values: dict[str, Any] = {}
    for name in SourceAdapterSpec._ADAPTABLE:
        if name in spec.field_map:
            src_key = spec.field_map[name]
            if src_key in source_row:
                values[name] = source_row[src_key]
                continue
        if name in spec.defaults:
            values[name] = spec.defaults[name]
            continue
        raise AdapterError("no mapping or default for required field",
                           line_no=line_no, field_name=name)

    for name in ("key", "language", "audio_ref", "raw_text"):
        if not isinstance(values[name], str):
            values[name] = str(values[name])
    try:
        values["duration_s"] = quantize_time(values["duration_s"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise AdapterError(f"duration_s not numeric: {values['duration_s']!r}",
                           line_no=line_no, field_name="duration_s",
                           key=values["key"]) from exc

    record = UtteranceRecord(source=spec.source, **values)
    validate_record(record, line_no=line_no)
    return record


def with_words(record: UtteranceRecord, words: Iterable[WordSpan],
               avg_confidence: float) -> UtteranceRecord:
    """Return a copy of the record with alignment results attached."""
    return replace(record, words=tuple(words), avg_confidence=avg_confidence)
