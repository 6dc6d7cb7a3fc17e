import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import voxkit
from voxkit import (
    BLANK_TOKEN,
    EmissionMatrix,
    UtteranceRecord,
    WordSpan,
    read_wav,
    save_emissions,
    stitch,
    write_manifest,
    write_wav,
)
from voxkit.cli import main


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


# ----------------------------------------------------------------- filter

def test_filter_writes_rejects(tmp_path):
    records = [rec("keep"), rec("drop", duration_s=0.4, text="hi there all")]
    src = manifest_of(tmp_path, records)
    out = tmp_path / "kept.jsonl"
    rejects = tmp_path / "rejects.jsonl"
    code = main(["filter", "-i", str(src), "-o", str(out),
                 "--rejects", str(rejects)])
    assert code == 0
    assert [r["key"] for r in read_lines(out)] == ["keep"]
    assert read_lines(rejects) == [{"key": "drop", "reasons": ["too_short"]}]


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


def test_filter_bad_threshold_spec(tmp_path):
    src = manifest_of(tmp_path, [rec("a")])
    base = ["filter", "-i", str(src), "-o", str(tmp_path / "o.jsonl")]
    assert main(base + ["--threshold", "nonsense.spec=0.5"]) == 1
    assert main(base + ["--threshold", "default=goose"]) == 1


# ------------------------------------------------------------- fit-bounds

def test_fit_bounds_prints_json(tmp_path, capsys):
    records = []
    for i in range(1, 26):
        text = "x" * (4 * i)
        records.append(rec(f"u{i:02d}", duration_s=4.0, text=text,
                           normalized_text=text))
    src = manifest_of(tmp_path, records)
    assert main(["fit-bounds", "-i", str(src), "-l", "en",
                 "--percentile", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["language"] == "en"
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


def test_shard_bad_count(tmp_path):
    src = manifest_of(tmp_path, [rec("a")])
    assert main(["shard", "-i", str(src), "-o", str(tmp_path / "s"),
                 "-n", "0"]) == 3


# ------------------------------------------------------------------ sched

def test_sched_json(capsys):
    assert main(["sched", "--steps", "4", "--gamma", "1.0",
                 "--strength", "5.0", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5
    assert rows[0] == {"step": 0, "uniform": 0.0, "warped": 0.0,
                       "guidance": 5.0}
    assert rows[-1]["guidance"] == 0.0


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


# ---------------------------------------------------------------- start-up

def test_import_does_not_load_scipy_io():
    # scipy.io is most of the import cost; only WAV reads and writes need it.
    code = "import sys, voxkit; print('scipy.io' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(voxkit.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True, env=env)
    assert result.stdout.strip() == "False"
