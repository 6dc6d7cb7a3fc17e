"""Utterance manifests: the JSONL interchange format between pipeline stages.

A manifest is a UTF-8 JSONL file, one utterance record per line. Field names
and serialization are part of the on-disk contract: times are written at
millisecond (3-decimal) precision, keys are unique within a file, and writing
the same records twice produces byte-identical output. Unknown fields found
in input lines are carried through untouched so foreign annotations survive a
round-trip. A record checks itself when it is made, judging its times by the
millisecond values they are written with, so every record written reads back.

This module is the only one that reads or writes JSON files: read_manifest
reads manifests and adapted source rows (read_manifest_lines with the line
each record came from), write_manifest writes records
(a record whose line the caller passes in is not encoded again), and
write_json and write_json_lines write every other JSON output, a dataclass
instance as its fields. All of them write UTF-8 with sorted keys (records
in canonical field order) and replace the target atomically.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

_WORD_FIELDS = ("word", "start_s", "end_s", "score")

# The record fields that hold text.
_TEXT_FIELDS = ("key", "language", "audio_ref", "raw_text", "normalized_text", "source")

# json.dumps(..., ensure_ascii=False), built once rather than per line.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)

# Tolerance for checking avg_confidence against the mean of word scores.
_CONFIDENCE_TOL = 1e-6


class ManifestError(Exception):
    """Base class for manifest validation and I/O problems. The text names the
    line, key and field that are set; only read_manifest sets ``line_no``."""

    def __init__(self, message: str, *, field_name: str | None = None,
                 key: str | None = None):
        super().__init__(message)
        self.line_no: int | None = None
        self.field_name = field_name
        self.key = key

    def __str__(self) -> str:
        parts = [f"{name} {value!r}" for name, value in (
            ("line", self.line_no), ("key", self.key), ("field", self.field_name))
            if value is not None]
        return f"{', '.join(parts)}: {self.args[0]}" if parts else self.args[0]


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
    ``extra`` holds unknown input fields verbatim for round-tripping. Every
    record, a copy made with ``dataclasses.replace`` included, runs
    validate_record when it is made.
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

    def __post_init__(self):
        key = self.key if isinstance(self.key, str) else None
        for name in _TEXT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, str):
                raise _type_error(name, "string", value, key=key)
        # Canonicalize container types so equality is insensitive to whether
        # the caller passed lists or tuples. tuple() would split a bare
        # string into its letters, so one is refused first.
        for name in ("romanized_tokens", "words"):
            if isinstance(getattr(self, name), str):
                raise SchemaError("expected a sequence, got str", field_name=name,
                                  key=key)
        object.__setattr__(self, "romanized_tokens", tuple(self.romanized_tokens))
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "duration_s",
                           _number(self.duration_s, "duration_s", "number", key))
        validate_record(self)

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


# Canonical field order for serialization. Extra fields follow, sorted by name.
_FIELD_ORDER = tuple(f.name for f in fields(UtteranceRecord) if f.name != "extra")


def _type_error(field_name: str, expected: str, got: Any,
                key: str | None = None) -> SchemaError:
    return SchemaError(f"expected {expected}, got {type(got).__name__}",
                       field_name=field_name, key=key)


def _check_str(obj: dict, name: str, default: str | None = None) -> str:
    if name not in obj:
        if default is not None:
            return default
        raise SchemaError("missing required field", field_name=name)
    value = obj[name]
    if not isinstance(value, str):
        raise _type_error(name, "string", value)
    return value


def is_real(value: Any) -> bool:
    """A number: a real that is not a bool. NumPy real scalars count."""
    # A plain float skips the ABC check, which costs about 0.3 us more.
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


def is_integer(value: Any) -> bool:
    """An integer that is not a bool. NumPy integer scalars count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(value: Any, field_name: str, expected: str, key: str | None = None) -> float:
    """A number (see is_real) as a float."""
    if not is_real(value):
        raise _type_error(field_name, expected, value, key)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError("integer too large for a float", field_name=field_name,
                          key=key) from None


def _check_number(obj: dict, name: str) -> float:
    if name not in obj:
        raise SchemaError("missing required field", field_name=name)
    return _number(obj[name], name, "number")


def _parse_word(obj: Any, index: int) -> WordSpan:
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
        raise _type_error(f"words[{index}]", "object", obj)
    for name in _WORD_FIELDS:
        if name not in obj:
            raise SchemaError("missing required field", field_name=f"words[{index}].{name}")
    word = obj["word"]
    if not isinstance(word, str):
        raise _type_error(f"words[{index}].word", "string", word)
    values = {name: _number(obj[name], f"words[{index}].{name}", "number")
              for name in ("start_s", "end_s", "score")}
    return WordSpan(word=word, **values)


def record_from_json_dict(obj: dict[str, Any]) -> UtteranceRecord:
    """Build a record from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise _type_error("<line>", "object", obj)

    key = _check_str(obj, "key")
    language = _check_str(obj, "language")
    audio_ref = _check_str(obj, "audio_ref")
    # Rounded on the way in, so the record holds the value it is written with.
    duration_s = quantize_time(_check_number(obj, "duration_s"))
    raw_text = _check_str(obj, "raw_text")
    normalized_text = _check_str(obj, "normalized_text", default="")
    source = _check_str(obj, "source", default="")

    tokens_raw = obj.get("romanized_tokens", [])
    if not isinstance(tokens_raw, list) or any(not isinstance(t, str) for t in tokens_raw):
        raise _type_error("romanized_tokens", "list of strings", tokens_raw)

    words_raw = obj.get("words", [])
    if not isinstance(words_raw, list):
        raise _type_error("words", "list", words_raw)
    words = tuple(_parse_word(w, i) for i, w in enumerate(words_raw))

    avg_confidence = obj.get("avg_confidence")
    if avg_confidence is not None:
        avg_confidence = _number(avg_confidence, "avg_confidence", "number or null")

    extra = {k: v for k, v in obj.items() if k not in _FIELD_ORDER}

    return UtteranceRecord(
        key=key, language=language, audio_ref=audio_ref, duration_s=duration_s,
        raw_text=raw_text, normalized_text=normalized_text,
        romanized_tokens=tuple(tokens_raw), words=words,
        avg_confidence=avg_confidence, source=source, extra=extra,
    )


def validate_record(record: UtteranceRecord) -> None:
    """Raise SchemaError if the record violates a manifest invariant.

    Times are judged by the millisecond values they are written with, so a
    record that passes reads back. Every record runs this when it is made.
    """
    if not record.key:
        raise SchemaError("key must be non-empty", field_name="key")
    if not record.language:
        raise SchemaError("language must be non-empty", field_name="language",
                          key=record.key)
    duration_q = quantize_time(record.duration_s)
    if not (math.isfinite(duration_q) and duration_q > 0):
        written = f", written as {duration_q}" if duration_q == 0 < record.duration_s else ""
        raise SchemaError(f"duration_s must be finite and positive, got "
                          f"{record.duration_s}{written}",
                          field_name="duration_s", key=record.key)
    if record.avg_confidence is not None and not (0.0 <= record.avg_confidence <= 1.0):
        raise SchemaError(f"avg_confidence {record.avg_confidence} outside [0, 1]",
                          field_name="avg_confidence", key=record.key)

    prev_end = None
    for i, span in enumerate(record.words):
        # Rounding is monotone, so only a span under 2 ms long can be
        # written as an empty one, and an end at or below duration_q, which
        # is already rounded, cannot round past it.
        if not (0.0 <= span.start_s < span.end_s - 0.002):
            if not (0.0 <= span.start_s < span.end_s):
                raise SchemaError(
                    f"span [{span.start_s}, {span.end_s}) is empty or negative",
                    field_name=f"words[{i}]", key=record.key)
            start_q, end_q = quantize_time(span.start_s), quantize_time(span.end_s)
            if start_q >= end_q:
                raise SchemaError(
                    f"span [{span.start_s}, {span.end_s}) is written as "
                    f"[{start_q}, {end_q}), which is empty",
                    field_name=f"words[{i}]", key=record.key)
        if span.end_s > duration_q and quantize_time(span.end_s) > duration_q:
            raise SchemaError(
                f"span ends at {span.end_s} beyond duration {record.duration_s}",
                field_name=f"words[{i}]", key=record.key)
        if not (0.0 <= span.score <= 1.0):
            raise SchemaError(f"score {span.score} outside [0, 1]",
                              field_name=f"words[{i}]", key=record.key)
        if prev_end is not None and span.start_s < prev_end:
            raise SchemaError(
                f"span starts at {span.start_s} before previous end {prev_end}",
                field_name=f"words[{i}]", key=record.key)
        prev_end = span.end_s

    if record.words:
        if record.romanized_tokens and len(record.words) != len(record.romanized_tokens):
            raise SchemaError(
                f"{len(record.words)} word spans but {len(record.romanized_tokens)} "
                "romanized tokens", field_name="words", key=record.key)
        if record.avg_confidence is not None:
            mean_score = sum(w.score for w in record.words) / len(record.words)
            if abs(record.avg_confidence - mean_score) > _CONFIDENCE_TOL:
                raise SchemaError(
                    f"avg_confidence {record.avg_confidence} does not match word "
                    f"score mean {mean_score}", field_name="avg_confidence",
                    key=record.key)


def record_to_line(record: UtteranceRecord) -> str:
    """Serialize one record to its canonical JSONL line (no newline)."""
    return _LINE_ENCODER.encode(record.to_json_dict())


def read_manifest(path: str | Path,
                  adapter: SourceAdapterSpec | None = None) -> Iterator[UtteranceRecord]:
    """Yield records from a JSONL file in file order, skipping blank lines.

    Without an adapter each line is a manifest record; with one, each line is
    a source row that ``adapt`` maps onto a record. Raises SchemaError for a
    line that is not JSON or not a valid record, AdapterError for a row the
    adapter cannot map, and DuplicateKeyError when a key repeats within the
    file; this is the one place that gives an error its 1-based line number.
    """
    return map(itemgetter(0), read_manifest_lines(path, adapter))


def read_manifest_lines(path: str | Path, adapter: SourceAdapterSpec | None = None
                        ) -> Iterator[tuple[UtteranceRecord, str]]:
    """read_manifest's records, each with the text line it was read from."""
    seen: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    try:
                        obj = json.loads(line)
                    except ValueError as exc:  # also an integer literal past int's digit limit
                        raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
                    if adapter is None:
                        record = record_from_json_dict(obj)
                    else:
                        record = adapt(obj, adapter)
                    if record.key in seen:
                        raise DuplicateKeyError("duplicate key", key=record.key)
                except ManifestError as exc:
                    exc.line_no = line_no
                    raise
                seen.add(record.key)
                yield record, line
    except UnicodeDecodeError:
        # Only the file's reader raises this; find the line now, so that
        # reading good input costs nothing.
        raise _undecodable(path) from None


def _undecodable(path: str | Path) -> SchemaError:
    """SchemaError naming the first byte of a file that is not UTF-8 and its
    line, counted as text-mode reading counts lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        error = SchemaError(not_utf8(exc))
        head = data[:exc.start]
        error.line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return error
    return SchemaError("not UTF-8 when read, and changed since")


def not_utf8(exc: UnicodeDecodeError) -> str:
    """What the manifest and config readers say of a file that is not UTF-8;
    exc is from decoding the whole file, so its offset is the file's."""
    return f"not UTF-8: {exc.reason} at byte {exc.start}"


@contextmanager
def atomic_write(path: str | Path | TextIO) -> Iterator[TextIO]:
    """Open ``path`` for UTF-8 text writing so that it appears only when complete.

    The text goes to a temporary file in the target's directory, which
    ``os.replace`` moves onto ``path`` when the block exits normally. When
    the block raises, the temporary file is removed and whatever was at
    ``path`` before is left as it was. Nothing is fsynced. A symlink is
    followed, so its target is replaced and the link kept; a path that
    exists but is not a regular file (a pipe, or a device such as
    /dev/stdout) cannot be replaced and is written directly. A missing
    parent directory is created, and removed again if the block raises; no
    other voxkit code makes one. A text file
    that is already open is written to and left open, so each writer built on
    this one can write inside a caller's atomic_write block: a command that
    writes two files nests the blocks, and both appear or neither does.
    """
    if hasattr(path, "write"):
        yield path
        return
    # A trailing separator still names the file, as it does for a Path.
    path = os.fspath(path).rstrip(os.sep) or os.sep
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            path = os.path.realpath(path)
            mode = os.stat(path).st_mode
    except (FileNotFoundError, NotADirectoryError):
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    made: list[str] = []
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except FileNotFoundError:
        # Only now, so writing into an existing directory costs no extra call.
        missing = directory
        while missing and not os.path.isdir(missing):
            made.append(missing)
            missing = os.path.dirname(missing)
        os.makedirs(directory, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        # The directories made for this file go too, deepest first, if empty.
        for made_dir in made:
            try:
                os.rmdir(made_dir)
            except OSError:
                break
        raise


def write_manifest(records: Iterable[UtteranceRecord], path: str | Path | TextIO,
                   lines: Mapping[int, str] | None = None) -> int:
    """Write records as JSONL. Returns the number of records written.

    Output is byte-stable: the same records always produce the same file.
    records may be a generator: each record is written as it comes, so only
    its key is kept. A duplicate key raises DuplicateKeyError before the file
    is replaced, so it leaves no new file and the old one in place, as any
    failed write does. A record checked itself when it was made, so none is
    checked again here. lines maps id(record) to record_to_line(record) for
    records the caller has encoded before and still holds, so no id can
    belong to another object; those are written without being encoded again.
    """
    seen: set[str] = set()
    lines = lines or {}
    with atomic_write(path) as fh:
        for record in records:
            if record.key in seen:
                raise DuplicateKeyError("duplicate key", key=record.key)
            seen.add(record.key)
            fh.write(lines.get(id(record)) or record_to_line(record))
            fh.write("\n")
    return len(seen)


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


def write_json(path: str | Path | TextIO, payload: Any) -> None:
    """Write payload as a json_document in UTF-8, atomically."""
    with atomic_write(path) as fh:
        fh.write(json_document(payload))


def write_json_lines(path: str | Path | TextIO, rows: Iterable[Any]) -> None:
    """Write one key-sorted UTF-8 JSON line per row, atomically."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False, default=_fields))
            fh.write("\n")


@dataclass(frozen=True)
class SourceAdapterSpec:
    """How to map one source corpus's row schema onto utterance records.

    ``field_map`` maps record field names to source row keys; ``defaults``
    supplies constant values for fields the source lacks. Both may name only
    the required record fields, and every one of those must be reachable
    through one of the two; a spec that breaks either rule is an
    AdapterError when it is made.
    """

    source: str
    field_map: dict[str, str] = field(default_factory=dict)
    defaults: dict[str, Any] = field(default_factory=dict)

    # The fields a record cannot exist without, which an adapter populates.
    # The remaining canonical fields are filled by later pipeline stages.
    _ADAPTABLE = ("key", "language", "audio_ref", "duration_s", "raw_text")

    def __post_init__(self):
        for name in [*self.field_map, *self.defaults]:
            if name not in self._ADAPTABLE:
                raise AdapterError(f"not a field an adapter fills "
                                   f"({', '.join(self._ADAPTABLE)})", field_name=name)
        for name in self._ADAPTABLE:
            if name not in self.field_map and name not in self.defaults:
                raise AdapterError("no mapping or default for required field",
                                   field_name=name)


class AdapterError(ManifestError):
    """A source row cannot be mapped onto a record."""


def adapt(source_row: dict[str, Any], spec: SourceAdapterSpec) -> UtteranceRecord:
    """Map one raw source row to a record, leaving alignment fields empty."""
    if not isinstance(source_row, dict):
        raise AdapterError("expected a JSON object")
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
        raise AdapterError("no mapping or default for required field", field_name=name)

    for name in ("key", "language", "audio_ref", "raw_text"):
        if not isinstance(values[name], str):
            values[name] = str(values[name])
    try:
        values["duration_s"] = quantize_time(values["duration_s"])
    except OverflowError as exc:
        raise AdapterError("integer too large for a float", field_name="duration_s",
                           key=values["key"]) from exc
    except (TypeError, ValueError) as exc:
        raise AdapterError(f"duration_s not numeric: {values['duration_s']!r}",
                           field_name="duration_s", key=values["key"]) from exc
    return UtteranceRecord(source=spec.source, **values)


def with_words(record: UtteranceRecord, words: Iterable[WordSpan],
               avg_confidence: float) -> UtteranceRecord:
    """A copy of the record with alignment results attached; SchemaError if
    they do not fit it."""
    return replace(record, words=words, avg_confidence=avg_confidence)
