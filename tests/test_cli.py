import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import voxkit
from voxkit import (
    BLANK_TOKEN,
    EmissionMatrix,
    FilterConfig,
    PipelineConfig,
    UtteranceRecord,
    WordSpan,
    load_profiles,
    normalize,
    read_wav,
    romanize,
    run_pipeline,
    save_emissions,
    stitch,
    write_manifest,
    write_wav,
)
from voxkit.cli import build_parser, main
from voxkit.curate import compute_stats, stats_to_json_dict
from voxkit.manifest import write_json


def words_for(text, duration_s, score=0.95):
    tokens = text.split()
    step = duration_s / len(tokens)
    return tuple(
        WordSpan(word=w, start_s=round(i * step, 3),
                 end_s=round((i + 1) * step, 3), score=score)
        for i, w in enumerate(tokens)
    )


def rec(key, duration_s=8.0, language="en",
        text="this is a perfectly normal sentence here",
        confidence=0.95, **kwargs):
    fields = dict(key=key, language=language, audio_ref=f"a/{key}.wav",
                  duration_s=duration_s, raw_text=text,
                  normalized_text=text.lower())
    if confidence is not None:
        fields["words"] = words_for(text, duration_s, confidence)
        fields["avg_confidence"] = confidence
    fields.update(kwargs)
    return UtteranceRecord(**fields)


def manifest_of(tmp_path, records, name="in.jsonl"):
    path = tmp_path / name
    write_manifest(records, path)
    return path


def read_lines(path):
    return [json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()]


# ------------------------------------------------------------- exit codes

def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_unknown_command():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag():
    assert main(["stats"]) == 1


def test_missing_input_file_is_data_error(tmp_path):
    assert main(["stats", "-i", str(tmp_path / "absent.jsonl")]) == 2


def test_malformed_manifest_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"key": "a"}\n', encoding="utf-8")
    assert main(["stats", "-i", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


# ----------------------------------------------------------------- ingest

def test_ingest_canonical_passthrough(tmp_path):
    src = manifest_of(tmp_path, [rec("a"), rec("b")])
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_ingest_with_adapter(tmp_path):
    src = tmp_path / "rows.jsonl"
    src.write_text(json.dumps({"id": "r1", "file": "r1.flac", "len": 3.5,
                               "text": "hello there"}) + "\n",
                   encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main(["ingest", "-i", str(src), "-o", str(out),
                 "--source", "web", "--map", "key=id",
                 "--map", "audio_ref=file", "--map", "duration_s=len",
                 "--map", "raw_text=text", "--default", "language=en"])
    assert code == 0
    row = read_lines(out)[0]
    assert row["key"] == "r1"
    assert row["language"] == "en"
    assert row["source"] == "web"


def test_ingest_errors_carry_line_numbers(tmp_path, capsys):
    src = tmp_path / "rows.jsonl"
    out = ["-o", str(tmp_path / "out.jsonl")]
    adapted = ["ingest", "-i", str(src), *out, "--source", "web",
               "--map", "key=id", "--map", "raw_text=text",
               "--default", "language=en", "--default", "audio_ref=a.wav",
               "--default", "duration_s=1.0"]
    canonical = ["ingest", "-i", str(src), *out]
    good_row = json.dumps({"id": "r1", "text": "hello"})
    good_record = json.dumps(rec("r1").to_json_dict())
    cases = [(adapted, good_row, "[1, 2]", "line 2: expected a JSON object"),
             (adapted, good_row, json.dumps({"text": "no id"}),
              "line 2, field 'key'"),
             (canonical, good_record, json.dumps({"key": "r2"}),
              "line 2, field 'language'")]
    for argv, good in ((adapted, good_row), (canonical, good_record)):
        cases += [(argv, good, good, "line 2, key 'r1': duplicate key"),
                  (argv, good, "{not json", "line 2: invalid JSON")]
    for argv, good, second, fragment in cases:
        src.write_text(f"{good}\n{second}\n", encoding="utf-8")
        assert main(argv) == 2
        assert fragment in capsys.readouterr().err


def test_ingest_refuses_a_duration_that_rounds_to_zero(tmp_path, capsys):
    # 0.0004 s would be written as 0.0, which no reader accepts.
    src = tmp_path / "rows.jsonl"
    src.write_text(json.dumps({**rec("a").to_json_dict(), "duration_s": 0.0004,
                               "words": [], "avg_confidence": None}) + "\n",
                   encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["ingest", "-i", str(src), "-o", str(out)]) == 2
    assert "duration_s must be finite and positive, got 0.0" in capsys.readouterr().err
    assert not out.exists()


BIG = 10 ** 400  # an integer that float() cannot hold


def _line(**changes):
    return json.dumps({**rec("a").to_json_dict(), **changes})


_FIRST_WORD = rec("a").to_json_dict()["words"][0]
_ADAPT_LEN = ["--source", "web", "--map", "key=id", "--map", "duration_s=len",
              "--default", "language=en", "--default", "audio_ref=a.wav",
              "--default", "raw_text=hi"]


@pytest.mark.parametrize("argv, line, message", [
    (["stats"], _line(duration_s=BIG),
     "line 1, field 'duration_s': integer too large for a float"),
    (["stats"], _line(words=[{**_FIRST_WORD, "end_s": BIG}]),
     "line 1, field 'words[0].end_s': integer too large for a float"),
    (["stats"], _line(avg_confidence=BIG),
     "line 1, field 'avg_confidence': integer too large for a float"),
    (["stats"], '{"key": ' + "1" * 5000 + "}",
     "line 1: invalid JSON: Exceeds the limit (4300 digits)"),
    (["ingest", "-o", "OUT", *_ADAPT_LEN], json.dumps({"id": "r1", "len": BIG}),
     "line 1, key 'r1', field 'duration_s': duration_s not numeric"),
], ids=["duration", "word-end", "avg-confidence", "5000-digits", "ingest-map"])
def test_numbers_a_float_cannot_hold_are_data_errors(tmp_path, capsys, argv, line,
                                                     message):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text(line + "\n", encoding="utf-8")
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main([argv[0], "-i", str(src), *argv[1:]]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_map_without_source(tmp_path):
    src = manifest_of(tmp_path, [rec("a")])
    assert main(["ingest", "-i", str(src), "-o",
                 str(tmp_path / "o.jsonl"), "--map", "key=id"]) == 1


# -------------------------------------------------------------- normalize

def test_normalize_writes_tokens(tmp_path):
    src = manifest_of(tmp_path,
                      [rec("a", text="Hello,  world 42!", confidence=None)])
    out = tmp_path / "norm.jsonl"
    assert main(["normalize", "-i", str(src), "-o", str(out)]) == 0
    row = read_lines(out)[0]
    assert row["normalized_text"] == "hello, world forty two !"
    assert row["romanized_tokens"] == ["hello", "world", "forty", "two"]


def test_normalize_no_romanize_and_skip_failed(tmp_path, capsys):
    records = [rec("ok", text="Fine text"), rec("sad", text="~~~")]
    src = manifest_of(tmp_path, records)
    out = tmp_path / "norm.jsonl"
    assert main(["normalize", "-i", str(src), "-o", str(out)]) == 2
    code = main(["normalize", "-i", str(src), "-o", str(out),
                 "--no-romanize", "--skip-failed"])
    assert code == 0
    rows = read_lines(out)
    assert [r["key"] for r in rows] == ["ok"]
    assert rows[0]["romanized_tokens"] == []
    assert "skipped 1" in capsys.readouterr().err


def test_normalize_rejections_follow_the_pipeline(tmp_path):
    # No profile for the language, and text that romanizes to no tokens.
    for bad in (rec("bad", language="xx", confidence=None),
                rec("bad", text="!!!", confidence=None)):
        src = manifest_of(tmp_path, [rec("ok", confidence=None), bad])
        out = tmp_path / "norm.jsonl"
        argv = ["normalize", "-i", str(src), "-o", str(out)]
        assert main(argv) == 2
        assert main(argv + ["--skip-failed"]) == 0
        assert [r["key"] for r in read_lines(out)] == ["ok"]


def test_normalize_fault_is_a_stage_failure(tmp_path, monkeypatch, capsys):
    src = manifest_of(tmp_path, [rec("ok", confidence=None),
                                 rec("boom", text="boom", confidence=None)])

    def faulty(text, profile):
        if text == "boom":
            raise RuntimeError("normalizer crashed")
        return normalize(text, profile)

    monkeypatch.setattr(voxkit.pipeline, "normalize", faulty)
    assert main(["normalize", "-i", str(src), "-o",
                 str(tmp_path / "norm.jsonl"), "--skip-failed"]) == 3
    assert ("stage failure: stage normalize, record 'boom': normalizer crashed"
            in capsys.readouterr().err)


def test_profiles_directory_is_the_language_set(tmp_path, capsys):
    # A directory holding only the bundled en profile accepts en alone.
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    bundled = Path(voxkit.__file__).parent / "textnorm" / "data" / "profiles"
    (profiles / "en.profile").write_bytes((bundled / "en.profile").read_bytes())
    src = manifest_of(tmp_path, [rec("de1", language="de"), rec("en1")])
    out = tmp_path / "out.jsonl"
    base = ["-i", str(src), "-o", str(out), "--profiles", str(profiles)]
    assert main(["normalize", *base]) == 2
    assert "no profile for language 'de'" in capsys.readouterr().err
    assert main(["normalize", *base, "--skip-failed"]) == 0
    assert [r["key"] for r in read_lines(out)] == ["en1"]
    rejects = tmp_path / "rejects.jsonl"
    assert main(["filter", *base, "--rejects", str(rejects)]) == 0
    assert [r["key"] for r in read_lines(out)] == ["en1"]
    assert read_lines(rejects) == [
        {"key": "de1", "stage": "filter", "reasons": ["bad_language"]}]


def test_profile_without_a_number_speller_is_refused_on_load(tmp_path, capsys):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    (profiles / "en.profile").write_text(
        "language = en\nrules = default\nmin_ratio = 1.0\nmax_ratio = 30.0\n"
        "ranges = 0030-0039 0061-007A\n", encoding="utf-8")
    src = manifest_of(tmp_path, [rec("a", text="I have 3 cats", confidence=None),
                                 rec("b", text="no digits", confidence=None)])
    out = tmp_path / "out.jsonl"
    assert main(["normalize", "-i", str(src), "-o", str(out), "--profiles",
                 str(profiles), "--skip-failed"]) == 2
    assert ("data error: en: rules 'default' names no number speller"
            in capsys.readouterr().err)
    assert not out.exists()


def test_empty_or_missing_profiles_directory(tmp_path, capsys):
    src = manifest_of(tmp_path, [rec("en1")])
    empty = tmp_path / "empty"
    empty.mkdir()
    for command in ("normalize", "filter"):
        for directory, message in ((empty, "holds no"),
                                   (tmp_path / "nowhere", "no profile directory")):
            assert main([command, "-i", str(src), "-o", str(tmp_path / "o.jsonl"),
                         "--profiles", str(directory)]) == 2
            assert message in capsys.readouterr().err


# ------------------------------------------------------------------ align

def peaked_emissions(tokens, duration_s):
    chars = [c for tok in tokens for c in tok]
    vocab = [BLANK_TOKEN] + sorted(set(chars))
    ext = [0]
    for ch in chars:
        ext.extend([vocab.index(ch), 0])
    probs = np.full((len(ext), len(vocab)), 1e-4)
    for t, label in enumerate(ext):
        probs[t, label] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return EmissionMatrix(np.log(probs), duration_s / len(ext), tuple(vocab))


def test_align_round_trip(tmp_path):
    record = rec("a", confidence=None, duration_s=4.0, text="hi there",
                 romanized_tokens=("hi", "there"))
    src = manifest_of(tmp_path, [record])
    emit = tmp_path / "emit"
    emit.mkdir()
    save_emissions(peaked_emissions(("hi", "there"), 4.0), emit / "a.npz")
    out = tmp_path / "aligned.jsonl"
    code = main(["align", "-i", str(src), "-o", str(out),
                 "--emissions", str(emit)])
    assert code == 0
    row = read_lines(out)[0]
    assert [w["word"] for w in row["words"]] == ["hi", "there"]
    assert row["avg_confidence"] > 0.9


def test_align_missing_emissions(tmp_path, capsys):
    record = rec("a", confidence=None, romanized_tokens=("hi",))
    src = manifest_of(tmp_path, [record])
    emit = tmp_path / "emit"
    emit.mkdir()
    out = tmp_path / "aligned.jsonl"
    args = ["align", "-i", str(src), "-o", str(out),
            "--emissions", str(emit)]
    assert main(args) == 3
    assert "stage failure" in capsys.readouterr().err
    assert main(args + ["--skip-failed"]) == 0
    assert read_lines(out) == []


def test_align_missing_emissions_directory_is_data_error(tmp_path, capsys):
    record = rec("a", confidence=None, romanized_tokens=("hi",))
    src = manifest_of(tmp_path, [record])
    out = tmp_path / "aligned.jsonl"
    assert main(["align", "-i", str(src), "-o", str(out), "--emissions",
                 str(tmp_path / "missing"), "--skip-failed"]) == 2
    assert "emissions_dir" in capsys.readouterr().err
    assert not out.exists()


def test_align_skip_failed_drops_records_without_tokens(tmp_path, capsys):
    record = rec("a", confidence=None, duration_s=4.0, text="hi there")
    src = manifest_of(tmp_path, [record])
    emit = tmp_path / "emit"
    emit.mkdir()
    save_emissions(peaked_emissions(("hi", "there"), 4.0), emit / "a.npz")
    out = tmp_path / "aligned.jsonl"
    args = ["align", "-i", str(src), "-o", str(out), "--emissions", str(emit)]
    assert main(args) == 2
    assert "normalize first" in capsys.readouterr().err
    assert main(args + ["--skip-failed"]) == 0
    assert read_lines(out) == []


def test_align_infeasible_labels(tmp_path):
    record = rec("a", confidence=None, duration_s=1.0, text="hi there",
                 romanized_tokens=("hi", "there"))
    src = manifest_of(tmp_path, [record])
    emit = tmp_path / "emit"
    emit.mkdir()
    vocab = (BLANK_TOKEN, "h", "i", "t", "e", "r")
    probs = np.full((3, len(vocab)), 1.0 / len(vocab))
    save_emissions(EmissionMatrix(np.log(probs), 0.02, vocab),
                   emit / "a.npz")
    assert main(["align", "-i", str(src), "-o",
                 str(tmp_path / "o.jsonl"), "--emissions", str(emit)]) == 3


def test_align_corrupt_emissions(tmp_path, capsys):
    records = [rec(k, confidence=None, duration_s=4.0, text="hi there",
                   romanized_tokens=("hi", "there")) for k in ("a", "b")]
    src = manifest_of(tmp_path, records)
    emit = tmp_path / "emit"
    emit.mkdir()
    save_emissions(peaked_emissions(("hi", "there"), 4.0), emit / "a.npz")
    (emit / "b.npz").write_bytes(b"plain bytes, not an archive")
    out = tmp_path / "aligned.jsonl"
    args = ["align", "-i", str(src), "-o", str(out), "--emissions", str(emit)]
    assert main(args) == 3
    assert "b.npz" in capsys.readouterr().err
    assert main(args + ["--skip-failed"]) == 0
    assert [row["key"] for row in read_lines(out)] == ["a"]


def test_align_emissions_that_do_not_fit_the_record(tmp_path, capsys):
    tokens = ("hi", "there")
    records = [rec(k, confidence=None, duration_s=duration, text="hi there",
                   romanized_tokens=tokens)
               for k, duration in (("a", 4.0), ("k2", 0.1), ("b", 4.0), ("k3", 4.0))]
    src = manifest_of(tmp_path, records)
    emit = tmp_path / "emit"
    emit.mkdir()
    for key in ("a", "b"):
        save_emissions(peaked_emissions(tokens, 4.0), emit / f"{key}.npz")
    # k2's words run to about 0.4 s, past its 0.1 s; k3's frame duration is inf.
    save_emissions(peaked_emissions(tokens, 0.44), emit / "k2.emit")
    save_emissions(peaked_emissions(tokens, 4.0), emit / "k3.emit")
    text = (emit / "k3.emit").read_text(encoding="utf-8")
    (emit / "k3.emit").write_text("inf" + text[text.index(" "):], encoding="utf-8")
    out = tmp_path / "aligned.jsonl"
    args = ["align", "-i", str(src), "-o", str(out), "--emissions", str(emit)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "'k2'" in err and "beyond duration 0.1" in err
    assert not out.exists()
    assert main(args + ["--skip-failed"]) == 0
    assert "skipped 2" in capsys.readouterr().err
    assert [row["key"] for row in read_lines(out)] == ["a", "b"]


def test_align_long_utterance(tmp_path):
    tokens = ("ab" * 35, "ba" * 40)
    record = rec("long", confidence=None, duration_s=8.0,
                 text=" ".join(tokens), romanized_tokens=tokens)
    src = manifest_of(tmp_path, [record])
    emit = tmp_path / "emit"
    emit.mkdir()
    save_emissions(peaked_emissions(tokens, 8.0), emit / "long.emit")
    out = tmp_path / "aligned.jsonl"
    assert main(["align", "-i", str(src), "-o", str(out),
                 "--emissions", str(emit), "--skip-failed"]) == 0
    row = read_lines(out)[0]
    assert [w["word"] for w in row["words"]] == list(tokens)
    assert row["avg_confidence"] > 0.9


# ------------------------------------------------------ pipeline parity

def test_cli_stages_match_run_pipeline(tmp_path):
    profiles = load_profiles()
    records = [
        rec("ok1", 8.0, text="this is a perfectly normal sentence here",
            confidence=None),
        rec("ok2", 7.0, text="another entirely ordinary line of words",
            confidence=None),
        rec("badlang", 5.0, language="xx", confidence=None),
        rec("emptied", 5.0, text="!!!", confidence=None),
        rec("greek", 5.0, text="αβγ δεζ", confidence=None),
        rec("lost", 6.0, text="some gentle words in a quiet room",
            confidence=None),
        rec("corrupt", 6.0, text="some gentle words in a quiet room",
            confidence=None),
        rec("tight", 6.0, text="some gentle words in a quiet room",
            confidence=None),
        rec("brief", 0.4, text="hi there", confidence=None),
    ]
    src = manifest_of(tmp_path, records)
    emit = tmp_path / "emit"
    emit.mkdir()
    for record in records:
        if record.key in ("ok1", "ok2", "brief", "corrupt", "tight"):
            tokens = romanize(normalize(record.raw_text, profiles["en"]), "en")
            save_emissions(peaked_emissions(tokens, record.duration_s),
                           emit / f"{record.key}.npz")
    (emit / "corrupt.npz").write_bytes(b"not an archive")
    vocab = (BLANK_TOKEN, "s", "o", "m", "e")
    save_emissions(EmissionMatrix(np.log(np.full((2, 5), 0.2)), 0.02, vocab),
                   emit / "tight.npz")

    out = tmp_path / "pipeline"
    summary = run_pipeline(PipelineConfig(
        input_path=src, output_dir=out, emissions_dir=emit, profiles=profiles,
        filter_config=FilterConfig(profiles=profiles)))
    assert set(summary["rejections"]) == {
        "bad_language", "empty_text", "unmappable_char", "missing_emissions",
        "bad_emissions", "unalignable", "too_short"}

    norm, aligned, kept, rejects = (tmp_path / f"{name}.jsonl" for name in
                                    ("norm", "aligned", "kept", "rejects"))
    assert main(["normalize", "-i", str(src), "-o", str(norm),
                 "--skip-failed"]) == 0
    assert main(["align", "-i", str(norm), "-o", str(aligned),
                 "--emissions", str(emit), "--skip-failed"]) == 0
    assert main(["filter", "-i", str(aligned), "-o", str(kept),
                 "--rejects", str(rejects)]) == 0
    assert norm.read_bytes() == (out / "romanize.jsonl").read_bytes()
    assert aligned.read_bytes() == (out / "align.jsonl").read_bytes()
    assert kept.read_bytes() == (out / "filter.jsonl").read_bytes()
    filter_lines = [line for line in (out / "rejections.jsonl")
                    .read_text(encoding="utf-8").splitlines(keepends=True)
                    if json.loads(line)["stage"] == "filter"]
    assert rejects.read_text(encoding="utf-8") == "".join(filter_lines)


# ----------------------------------------------------------------- filter

def test_filter_writes_rejects(tmp_path):
    records = [rec("keep"), rec("drop", duration_s=0.4, text="hi there all"),
               rec("dim", confidence=0.1)]
    src = manifest_of(tmp_path, records)
    out = tmp_path / "kept.jsonl"
    rejects = tmp_path / "rejects.jsonl"
    code = main(["filter", "-i", str(src), "-o", str(out),
                 "--rejects", str(rejects)])
    assert code == 0
    assert [r["key"] for r in read_lines(out)] == ["keep"]
    assert read_lines(rejects) == [
        {"key": "dim", "stage": "filter", "reasons": ["low_confidence"]},
        {"key": "drop", "stage": "filter", "reasons": ["too_short"]},
    ]


def test_filter_threshold_flags(tmp_path):
    records = [rec("a", confidence=0.5, source="yt")]
    src = manifest_of(tmp_path, records)
    out = tmp_path / "kept.jsonl"
    code = main(["filter", "-i", str(src), "-o", str(out),
                 "--threshold", "source.yt=0.6"])
    assert code == 0
    assert read_lines(out) == []
    code = main(["filter", "-i", str(src), "-o", str(out),
                 "--threshold", "source.yt=0.4"])
    assert code == 0
    assert len(read_lines(out)) == 1


def test_filter_unaligned_manifest_is_data_error(tmp_path, capsys):
    src = manifest_of(tmp_path, [rec("a", confidence=None)])
    assert main(["filter", "-i", str(src), "-o", str(tmp_path / "o.jsonl")]) == 2
    assert ("data error: record 'a' has no avg_confidence; align it first"
            in capsys.readouterr().err)


def test_filter_bad_threshold_spec(tmp_path):
    src = manifest_of(tmp_path, [rec("a")])
    base = ["filter", "-i", str(src), "-o", str(tmp_path / "o.jsonl")]
    assert main(base + ["--threshold", "nonsense.spec=0.5"]) == 1
    assert main(base + ["--threshold", "default=goose"]) == 1


# ------------------------------------------------------------- fit-bounds

def test_fit_bounds_prints_json(tmp_path, capsys):
    # fit-bounds loads no profile, so a language outside the bundled set works.
    for language in ("en", "xx"):
        records = []
        for i in range(1, 26):
            text = "x" * (4 * i)
            records.append(rec(f"u{i:02d}", duration_s=4.0, text=text,
                               normalized_text=text, language=language))
        src = manifest_of(tmp_path, records)
        assert main(["fit-bounds", "-i", str(src), "-l", language,
                     "--percentile", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["language"] == language
        assert payload["min_ratio"] == 3.0
        assert payload["max_ratio"] == 23.0


def test_fit_bounds_too_few_records(tmp_path):
    src = manifest_of(tmp_path, [rec("a")])
    assert main(["fit-bounds", "-i", str(src), "-l", "en"]) == 2


# ------------------------------------------------------------ curate-eval

def test_curate_eval_selects_and_trims(tmp_path, capsys):
    records = [
        rec(f"e{i}", duration_s=6.0,
            text="one two three four five six seven eight")
        for i in range(4)
    ]
    # trailing silence: words end at 4.0 but duration says 6.0
    silent = rec("tail", duration_s=6.0,
                 text="one two three four five six seven eight",
                 words=words_for("one two three four five six seven eight",
                                 4.0))
    records.append(silent)
    records.append(rec("tiny", duration_s=6.0, text="just three words"))
    src = manifest_of(tmp_path, records)
    out = tmp_path / "eval.jsonl"
    trims = tmp_path / "trims.jsonl"
    code = main(["curate-eval", "-i", str(src), "-o", str(out),
                 "--trims", str(trims), "--target", "3"])
    assert code == 0
    keys = [r["key"] for r in read_lines(out)]
    assert len(keys) == 3
    assert keys == sorted(keys)
    assert "tiny" not in keys
    trim_rows = read_lines(trims)
    assert trim_rows == [{"key": "tail", "old_duration_s": 6.0,
                          "new_duration_s": 4.2}]


# ------------------------------------------------------------------ stats

def test_stats_text_and_json(tmp_path, capsys):
    records = [rec("a", duration_s=10.0), rec("b", duration_s=14.0),
               rec("c", duration_s=6.0, language="de",
                   text="ein ganz normaler deutscher satz hier")]
    src = manifest_of(tmp_path, records)
    assert main(["stats", "-i", str(src)]) == 0
    table = capsys.readouterr().out
    assert "en" in table and "de" in table
    assert main(["stats", "-i", str(src), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"]["utterances"] == 3
    by_lang = {row["language"]: row for row in payload["languages"]}
    assert by_lang["en"]["utterances"] == 2


def test_stats_json_prints_what_stats_json_holds(tmp_path, capsys):
    records = [rec("a", language="é")]
    src = manifest_of(tmp_path, records)
    assert main(["stats", "-i", str(src), "--json"]) == 0
    write_json(tmp_path / "stats.json", stats_to_json_dict(compute_stats(records)))
    printed = capsys.readouterr().out
    assert '"é"' in printed
    assert printed.encode("utf-8") == (tmp_path / "stats.json").read_bytes()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["table", "json"])
def test_stats_on_an_ascii_stdout_is_data_error(tmp_path, capsys, monkeypatch,
                                                flags):
    src = manifest_of(tmp_path, [rec("a", language="é")])
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["stats", "-i", str(src)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: 'ascii' codec can't encode")
    assert err.count("\n") == 1


# ------------------------------------------------------------------ shard

def test_shard_writes_files_and_assignment(tmp_path):
    records = [rec("k0", 8.0), rec("k1", 7.0), rec("k2", 6.0),
               rec("k3", 5.0)]
    src = manifest_of(tmp_path, records)
    out_dir = tmp_path / "shards"
    assert main(["shard", "-i", str(src), "-o", str(out_dir),
                 "-n", "2"]) == 0
    payload = json.loads((out_dir / "assignment.json")
                         .read_text(encoding="utf-8"))
    assert payload["n_shards"] == 2
    assert payload["durations_s"] == [13.0, 13.0]
    assert payload["assignment"] == {"k0": 0, "k1": 1, "k2": 1, "k3": 0}
    shard0 = [r["key"] for r in read_lines(out_dir / "shard_000.jsonl")]
    shard1 = [r["key"] for r in read_lines(out_dir / "shard_001.jsonl")]
    assert shard0 == ["k0", "k3"]
    assert shard1 == ["k1", "k2"]
    assert main(["shard", "-i", str(src), "-o", str(tmp_path / "named"),
                 "-n", "2", "--prefix", "part_"]) == 0
    assert sorted(p.name for p in (tmp_path / "named").iterdir()) == [
        "assignment.json", "part_000.jsonl", "part_001.jsonl"]


def test_shard_bad_count(tmp_path, capsys):
    src = manifest_of(tmp_path, [rec("a")])
    for count in ("0", "-2"):
        assert main(["shard", "-i", str(src), "-o", str(tmp_path / "s"),
                     "-n", count]) == 1
        assert f"--shards must be >= 1, got {count}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# ------------------------------------------------------------ JSON files

def test_json_files_keep_non_ascii_keys_as_utf8(tmp_path):
    eight = "one two three four five six seven eight"
    records = [rec("é1"), rec("é2", confidence=0.1),
               # trailing silence: words end at 4.0 but duration says 6.0
               rec("é3", duration_s=6.0, text=eight,
                   words=words_for(eight, 4.0))]
    src = manifest_of(tmp_path, records)
    profiles = load_profiles()
    run_pipeline(PipelineConfig(
        input_path=src, output_dir=tmp_path / "run", stages=("filter",),
        profiles=profiles, filter_config=FilterConfig(profiles=profiles),
        shard_count=2))
    assert main(["filter", "-i", str(src), "-o", str(tmp_path / "kept.jsonl"),
                 "--rejects", str(tmp_path / "rejects.jsonl")]) == 0
    assert main(["curate-eval", "-i", str(src),
                 "-o", str(tmp_path / "eval.jsonl"),
                 "--trims", str(tmp_path / "trims.jsonl")]) == 0
    assert main(["shard", "-i", str(src), "-o", str(tmp_path / "shards"),
                 "-n", "2"]) == 0
    carries = {"run/rejections.jsonl": "é2", "rejects.jsonl": "é2",
               "trims.jsonl": "é3", "shards/assignment.json": "é1",
               "run/filter.jsonl": "é1", "shards/shard_000.jsonl": "é"}
    written = sorted(tmp_path.rglob("*.json*"))
    assert {"run/stats.json", "run/summary.json"} | set(carries) <= {
        path.relative_to(tmp_path).as_posix() for path in written}
    for path in written:
        assert "\\u" not in path.read_text(encoding="utf-8"), path
    for name, key in carries.items():
        assert key in (tmp_path / name).read_text(encoding="utf-8"), name


# ------------------------------------------------------------------ sched

def test_sched_json(capsys):
    assert main(["sched", "--steps", "4", "--gamma", "1.0",
                 "--strength", "5.0", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5
    assert rows[0] == {"step": 0, "uniform": 0.0, "warped": 0.0,
                       "guidance": 5.0}
    assert rows[-1]["guidance"] == 0.0
    # Options left unset keep the library's defaults.
    table = voxkit.flowsched.schedule_table()
    assert main(["sched", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [tuple(row.values()) for row in rows] == table
    assert main(["sched", "--json", "--strength", "2.0"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == len(table)
    assert rows[0]["guidance"] == 2.0


def test_sched_text(capsys):
    assert main(["sched", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "guidance" in out.splitlines()[0]
    assert len(out.splitlines()) == 4


def test_sched_bad_params():
    assert main(["sched", "--steps", "0"]) == 3


# ---------------------------------------------------------------- editsim

def test_editsim_trace(capsys):
    code = main(["editsim", "--avg-speed", "2.0", "--target-tokens", "10",
                 "--mask", "5", "20", "--flags", "110"])
    assert code == 0
    trace = json.loads(capsys.readouterr().out)
    assert [t["action"] for t in trace] == ["retry", "retry", "accept"]
    assert trace[0]["mask"] == [0, 45]
    assert trace[1]["mask"] == [0, 70]
    assert trace[0]["repetition_penalty"] == 2.0
    assert trace[1]["repetition_penalty"] == 3.0


def test_editsim_bad_flags():
    base = ["editsim", "--avg-speed", "2.0", "--target-tokens", "10",
            "--mask", "5", "20"]
    assert main(base + ["--flags", "1x0"]) == 1
    assert main(base + ["--flags", "11", "--frames", "4"]) == 1
    assert main(base + ["--flags", "11", "--frames", "1,x"]) == 1


# ----------------------------------------------------------------- stitch

def test_stitch_round_trip(tmp_path):
    sr = 8000
    t = np.arange(2 * sr) / sr
    wave = (9000 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    n_ov = sr // 4
    a, b = wave[: sr + n_ov], wave[sr:]
    write_wav(tmp_path / "a.wav", a, sr)
    write_wav(tmp_path / "b.wav", b, sr)
    out_path = tmp_path / "joined.wav"
    plan_path = tmp_path / "plan.json"
    code = main(["stitch", "--inputs", str(tmp_path / "a.wav"),
                 str(tmp_path / "b.wav"), "-o", str(out_path),
                 "--overlap-s", str(n_ov / sr), "--fade-s", "0.01",
                 "--plan", str(plan_path)])
    assert code == 0
    joined, rate = read_wav(out_path)
    assert rate == sr
    direct, plan = stitch([a, b], sr, 0.01, n_ov / sr)
    assert np.array_equal(joined, direct)
    payload = json.loads(plan_path.read_text(encoding="utf-8"))
    assert payload["segment_offsets"] == [0, sr]
    assert payload["splices"][0]["zero_crossing"] is True


def test_stitch_rate_mismatch(tmp_path):
    a = np.zeros(4000, dtype=np.int16)
    write_wav(tmp_path / "a.wav", a, 8000)
    write_wav(tmp_path / "b.wav", a, 16000)
    code = main(["stitch", "--inputs", str(tmp_path / "a.wav"),
                 str(tmp_path / "b.wav"), "-o", str(tmp_path / "o.wav"),
                 "--overlap-s", "0.1"])
    assert code == 3


def _filter_into_new_directories(tmp_path):
    src = manifest_of(tmp_path, [rec("keep"), rec("dim", confidence=0.1)])
    out, rejects = tmp_path / "new1" / "clean.jsonl", tmp_path / "new2" / "rej.jsonl"
    assert main(["filter", "-i", str(src), "-o", str(out),
                 "--rejects", str(rejects)]) == 0
    return out, rejects


def _curate_eval_into_new_directories(tmp_path):
    text = "one two three four five six seven eight"
    src = manifest_of(tmp_path, [rec("tail", duration_s=6.0, text=text,
                                     words=words_for(text, 4.0))])
    out, trims = tmp_path / "new1" / "eval.jsonl", tmp_path / "new2" / "a" / "trims.jsonl"
    assert main(["curate-eval", "-i", str(src), "-o", str(out),
                 "--trims", str(trims)]) == 0
    return out, trims


def _stitch_into_new_directories(tmp_path):
    a = np.zeros(4000, dtype=np.int16)
    write_wav(tmp_path / "a.wav", a, 8000)
    out, plan = tmp_path / "new1" / "joined.wav", tmp_path / "new2" / "plan.json"
    assert main(["stitch", "--inputs", str(tmp_path / "a.wav"), str(tmp_path / "a.wav"),
                 "-o", str(out), "--overlap-s", "0.1", "--plan", str(plan)]) == 0
    return out, plan


def _save_emissions_into_new_directories(tmp_path):
    paths = tmp_path / "new1" / "e.npz", tmp_path / "new2" / "e.emit"
    for path in paths:
        save_emissions(peaked_emissions(("hi",), 1.0), path)
    return paths


def _write_wav_into_a_new_directory(tmp_path):
    path = tmp_path / "new1" / "a" / "x.wav"
    write_wav(path, np.zeros(10, dtype=np.float32), 16000)
    return (path,)


@pytest.mark.parametrize("write", [
    _filter_into_new_directories, _curate_eval_into_new_directories,
    _stitch_into_new_directories, _save_emissions_into_new_directories,
    _write_wav_into_a_new_directory])
def test_writers_create_missing_directories(tmp_path, write):
    for path in write(tmp_path):
        assert path.is_file() and path.stat().st_size > 0


def test_write_wav_failure_keeps_old_file(tmp_path, monkeypatch):
    import voxkit.audio

    path = tmp_path / "out.wav"
    write_wav(path, np.zeros(100, dtype=np.int16), 8000)
    before = path.read_bytes()

    real_atomic_write = voxkit.audio.atomic_write

    class DiskFullAfterHeader:
        """A handle whose first write (the header) lands and whose second fails."""

        def __init__(self, buffer):
            self.buffer, self.raw, self.writes = self, buffer, 0

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError("disk full")
            return self.raw.write(data)

    @contextlib.contextmanager
    def broken(target):
        with real_atomic_write(target) as fh:
            yield DiskFullAfterHeader(fh.buffer)

    monkeypatch.setattr(voxkit.audio, "atomic_write", broken)
    with pytest.raises(OSError, match="disk full"):
        write_wav(path, np.ones(50, dtype=np.int16), 8000)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]


@pytest.mark.parametrize("damage", [
    lambda wav: b"not a wav file at all",
    lambda wav: wav[:30],
    lambda wav: wav[:-2],
], ids=["junk", "cut-in-fmt", "cut-in-data"])
def test_stitch_malformed_wav_is_a_data_error(tmp_path, capsys, damage):
    good, bad = tmp_path / "good.wav", tmp_path / "bad.wav"
    write_wav(good, np.zeros(4000, dtype=np.int16), 8000)
    bad.write_bytes(damage(good.read_bytes()))
    code = main(["stitch", "--inputs", str(good), str(bad),
                 "-o", str(tmp_path / "o.wav"), "--overlap-s", "0.1"])
    assert code == 2
    assert f"data error: {bad}: " in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def _float_option_commands(tmp_path):
    """Minimal arguments for each command that has a float option."""
    src = str(manifest_of(tmp_path, [rec("a")]))
    out = str(tmp_path / "out")
    for name in ("a.wav", "b.wav"):
        write_wav(tmp_path / name, np.zeros(4000, dtype=np.int16), 8000)
    return {
        "filter": ["-i", src, "-o", out],
        "fit-bounds": ["-i", src, "-l", "en"],
        "curate-eval": ["-i", src, "-o", out, "--trims", out + ".trims"],
        "sched": ["--json"],
        "editsim": ["--avg-speed", "2", "--target-tokens", "10", "--mask", "5", "20",
                    "--flags", "1"],
        "stitch": ["--inputs", str(tmp_path / "a.wav"), str(tmp_path / "b.wav"),
                   "-o", out, "--overlap-s", "0.1"],
    }


def test_every_float_option_survives_nan_and_inf(tmp_path, capsys):
    """Each float option set to nan or inf is refused as bad input, or used
    as given; it never raises out of main nor writes NaN or Infinity."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    required = _float_option_commands(tmp_path)
    tried = 0
    for command, sub in commands.items():
        for action in sub._actions:
            if action.type is not float:
                continue
            for value in ("nan", "inf"):
                argv = [command, *required[command], action.option_strings[0], value]
                code = main(argv)
                out, err = capsys.readouterr()
                assert code == 0 or err.startswith(
                    ("error:", "data error:", "stage failure:")), (argv, err)
                assert "NaN" not in out and "Infinity" not in out, argv
                tried += 1
    assert tried >= 2 * 13


# ---------------------------------------------------------------- start-up

def test_runs_without_scipy(tmp_path):
    # NumPy is the one runtime dependency: with SciPy blocked, voxkit still
    # imports, writes and reads both WAV formats, and stitches.
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import voxkit
        from voxkit.cli import main
        out = sys.argv[1]
        for dtype in ("int16", "float32"):
            samples = np.arange(-200, 200).astype(dtype)
            voxkit.write_wav(f"{out}/{dtype}.wav", samples, 8000)
            back, rate = voxkit.read_wav(f"{out}/{dtype}.wav")
            assert rate == 8000 and back.dtype == dtype
            assert np.array_equal(back, samples)
        wav = f"{out}/int16.wav"
        sys.exit(main(["stitch", "--inputs", wav, wav, "-o", f"{out}/joined.wav",
                       "--overlap-s", "0.01", "--fade-s", "0.001"]))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(voxkit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert len(read_wav(tmp_path / "joined.wav")[0]) == 2 * 400 - 80
