import json
import time

import numpy as np
import pytest

import voxkit.pipeline as pipeline_module

from voxkit import (
    BLANK_TOKEN,
    ConfigError,
    EmissionMatrix,
    FilterConfig,
    PipelineConfig,
    PipelineError,
    PipelineStageError,
    UtteranceRecord,
    WordSpan,
    load_pipeline_config,
    load_profiles,
    normalize,
    parallel_map,
    romanize,
    run_pipeline,
    save_emissions,
    shard,
    write_manifest,
)

PROFILES = load_profiles()


def rec(key, duration_s, language="en", text="plain words"):
    return UtteranceRecord(key=key, language=language,
                           audio_ref=f"a/{key}.wav", duration_s=duration_s,
                           raw_text=text)


def aligned_rec(key, duration_s=8.0, language="en",
                text="this is a perfectly normal sentence here",
                confidence=0.95):
    tokens = text.split()
    step = duration_s / len(tokens)
    words = tuple(
        WordSpan(word=w, start_s=round(i * step, 3),
                 end_s=round((i + 1) * step, 3), score=confidence)
        for i, w in enumerate(tokens)
    )
    return UtteranceRecord(key=key, language=language,
                           audio_ref=f"a/{key}.wav", duration_s=duration_s,
                           raw_text=text, normalized_text=text.lower(),
                           words=words, avg_confidence=confidence)


# ------------------------------------------------------------------ shard

def test_shard_single_shard_takes_everything():
    records = [rec(f"k{i}", float(i + 1)) for i in range(5)]
    out = shard(records, 1)
    assert out.n_shards == 1
    assert set(out.shard_of.values()) == {0}
    assert out.durations == (15.0,)
    assert out.keys_for(0) == [f"k{i}" for i in range(5)]


def test_shard_balances_example():
    records = [rec("k0", 8.0), rec("k1", 7.0), rec("k2", 6.0), rec("k3", 5.0)]
    out = shard(records, 2)
    assert out.durations == (13.0, 13.0)
    assert out.shard_of == {"k0": 0, "k1": 1, "k2": 1, "k3": 0}


def test_shard_empty_input():
    out = shard([], 3)
    assert out.durations == (0.0, 0.0, 0.0)
    assert out.shard_of == {}


def test_shard_rejects_bad_count_and_duplicates():
    with pytest.raises(PipelineError):
        shard([], 0)
    with pytest.raises(PipelineError):
        shard([rec("same", 1.0), rec("same", 2.0)], 2)


def test_shard_spread_never_exceeds_longest_record():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        records = [rec(f"k{i}", float(rng.uniform(0.5, 30.0)))
                   for i in range(n)]
        n_shards = int(rng.integers(1, 5))
        out = shard(records, n_shards)
        longest = max(r.duration_s for r in records)
        assert max(out.durations) - min(out.durations) <= longest + 1e-9
        # partition: every key lands in exactly one shard
        seen = [k for i in range(n_shards) for k in out.keys_for(i)]
        assert sorted(seen) == sorted(r.key for r in records)
        for i in range(n_shards):
            total = sum(r.duration_s for r in records
                        if out.shard_of[r.key] == i)
            assert total == pytest.approx(out.durations[i])


def test_keys_for_lists_each_shard_sorted():
    rng = np.random.default_rng(5)
    records = [rec(f"k{int(i):04d}", float(rng.uniform(0.5, 9.0)))
               for i in rng.permutation(300)]
    out = shard(records, 40)
    for index in range(-1, 41):
        expected = sorted(k for k, s in out.shard_of.items() if s == index)
        assert out.keys_for(index) == expected
    out.keys_for(0).clear()
    assert out.keys_for(0)


# ------------------------------------------------------------ parallel_map

def test_parallel_map_preserves_order():
    def jittered(x):
        time.sleep(0.002 * (7 - x % 8))
        return x * x

    items = list(range(24))
    expected = [x * x for x in items]
    assert parallel_map(jittered, items, workers=1) == expected
    assert parallel_map(jittered, items, workers=4) == expected


def test_parallel_map_empty():
    assert parallel_map(lambda x: x, [], workers=4) == []


# ------------------------------------------------------------ configuration

def write_config(tmp_path, body, manifest_records=()):
    manifest = tmp_path / "in.jsonl"
    write_manifest(manifest_records, manifest)
    (tmp_path / "emit").mkdir(exist_ok=True)
    text = "input = in.jsonl\noutput_dir = out\n" + body
    config_path = tmp_path / "pipeline.conf"
    config_path.write_text(text, encoding="utf-8")
    return config_path


def test_config_full_parse(tmp_path):
    body = """\
# everything the parser understands
emissions_dir = emit
stages = normalize romanize
languages = en zh
threshold.default = 0.4
threshold.source.yt = 0.6
threshold.language.zh = 0.5
threshold.pair.yt.zh = 0.8
min_duration_s = 1.0
max_duration_s = 20.0
max_gap_s = 3.0
max_symbol_fraction = 0.2
shard_count = 4
workers = 2
split_zh_chars = true
score_mode = arithmetic
adapter.source = yt
adapter.map.key = id
adapter.map.raw_text = text
adapter.default.language = en
"""
    config = load_pipeline_config(write_config(tmp_path, body))
    assert config.input_path == (tmp_path / "in.jsonl").resolve()
    assert config.output_dir == (tmp_path / "out").resolve()
    assert config.stages == ("normalize", "romanize")
    assert config.shard_count == 4
    assert config.workers == 2
    assert config.split_zh_chars is True
    assert config.score_mode == "arithmetic"
    fc = config.filter_config
    assert fc.default_confidence_threshold == 0.4
    assert fc.thresholds_by_source == {"yt": 0.6}
    assert fc.thresholds_by_language == {"zh": 0.5}
    assert fc.thresholds_by_source_language == {("yt", "zh"): 0.8}
    assert (fc.min_duration_s, fc.max_duration_s) == (1.0, 20.0)
    assert fc.max_gap_s == 3.0
    assert fc.max_symbol_fraction == 0.2
    assert fc.languages == ("en", "zh")
    assert set(config.profiles) == {"en", "zh"}
    assert config.adapter.source == "yt"
    assert config.adapter.field_map == {"key": "id", "raw_text": "text"}
    assert config.adapter.defaults == {"language": "en"}


def test_config_defaults(tmp_path):
    config = load_pipeline_config(write_config(tmp_path, "stages = filter\n"))
    assert config.stages == ("filter",)
    assert config.shard_count == 1
    assert config.workers == 1
    assert config.score_mode == "geometric"
    assert config.adapter is None
    assert len(config.profiles) == 10


def test_config_errors_carry_line_numbers(tmp_path):
    cases = [
        ("just a line without equals\n", "key = value"),
        ("unknown_key = 5\n", "unknown key"),
        ("workers = soon\n", "integer"),
        ("eval.min_words = 6\n", "curate-eval"),
        ("eval.surprise = 1\n", "eval.surprise"),
        ("workers = 2\neval.min_confidence = 0.9\n",
         "line 4: 'eval.min_confidence'"),
        ("threshold.pair.only = 0.5\n", "threshold"),
        ("adapter.map.key = id\n", "adapter.source"),
        ("score_mode = fancy\n", "score_mode"),
        ("workers = 2\nworkers = 3\n", "duplicate"),
        ("stages = filter align\n", "emissions_dir"),
    ]
    for body, fragment in cases:
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(write_config(tmp_path, body))
        assert fragment in str(err.value)


def test_config_requires_existing_input(tmp_path):
    config_path = tmp_path / "p.conf"
    config_path.write_text("input = nowhere.jsonl\noutput_dir = out\n",
                           encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(config_path)
    assert "nowhere.jsonl" in str(err.value)
    config_path.write_text("output_dir = out\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_pipeline_config(config_path)
    assert "input" in str(err.value)


# ------------------------------------------------------------ run_pipeline

def filter_only_config(tmp_path, records, **kwargs):
    manifest = tmp_path / "in.jsonl"
    write_manifest(records, manifest)
    fields = dict(input_path=manifest, output_dir=tmp_path / "out",
                  stages=("filter",),
                  filter_config=FilterConfig(profiles=PROFILES),
                  profiles=PROFILES)
    fields.update(kwargs)
    return PipelineConfig(**fields)


def test_run_pipeline_filters_and_summarizes(tmp_path):
    records = [aligned_rec(f"good{i:02d}") for i in range(15)]
    records += [aligned_rec(f"short{i}", duration_s=0.4,
                            text="hi there all") for i in range(5)]
    summary = run_pipeline(filter_only_config(tmp_path, records))
    assert summary == {
        "input_records": 20,
        "output_records": 15,
        "stages": ["filter"],
        "stage_counts": {"filter": {"in": 20, "out": 15}},
        "rejections": {"too_short": 5},
    }
    out = tmp_path / "out"
    kept = (out / "filter.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(kept) == 15
    rejected = [json.loads(line) for line in
                (out / "rejections.jsonl").read_text(encoding="utf-8")
                .splitlines()]
    assert [r["key"] for r in rejected] == sorted(r["key"] for r in rejected)
    assert all(r["reasons"] == ["too_short"] and r["stage"] == "filter"
               for r in rejected)
    on_disk = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert on_disk == summary
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert stats["total"]["utterances"] == 15


def test_run_pipeline_empty_input(tmp_path):
    summary = run_pipeline(filter_only_config(tmp_path, []))
    assert summary["input_records"] == 0
    assert summary["output_records"] == 0
    assert summary["rejections"] == {}
    assert (tmp_path / "out" / "rejections.jsonl").exists()
    assert (tmp_path / "out" / "filter.jsonl").exists()


def peaked_emissions(tokens, duration_s):
    """Emissions whose best path spells the tokens exactly."""
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


def full_config(tmp_path, records, out_name="out", **kwargs):
    manifest = tmp_path / "in.jsonl"
    write_manifest(records, manifest)
    emissions_dir = tmp_path / "emit"
    emissions_dir.mkdir(exist_ok=True)
    for record in records:
        profile = PROFILES.get(record.language)
        if profile is None:
            continue
        try:
            tokens = romanize(normalize(record.raw_text, profile),
                              record.language)
        except Exception:
            continue
        if tokens:
            save_emissions(peaked_emissions(tokens, record.duration_s),
                           emissions_dir / f"{record.key}.npz")
    fields = dict(input_path=manifest, output_dir=tmp_path / out_name,
                  filter_config=FilterConfig(profiles=PROFILES),
                  profiles=PROFILES, emissions_dir=emissions_dir)
    fields.update(kwargs)
    return PipelineConfig(**fields)


def test_run_pipeline_end_to_end_reasons(tmp_path):
    records = [
        rec("ok1", 8.0, text="this is a perfectly normal sentence here"),
        rec("ok2", 7.0, text="another entirely ordinary line of words"),
        rec("badlang", 5.0, language="xx", text="whatever text"),
        rec("emptied", 5.0, text="..."),
        rec("greek", 5.0, text="αβγ δεζ ηθι κλμ"),
    ]
    config = full_config(tmp_path, records)
    # no emissions for this key: romanization of "404" yields nothing to map
    missing = rec("lost", 6.0, text="some gentle words in a quiet room")
    records.append(missing)
    write_manifest(records, config.input_path)

    summary = run_pipeline(config)
    assert summary["input_records"] == 6
    assert summary["output_records"] == 2
    assert summary["rejections"] == {
        "bad_language": 1, "empty_text": 1, "missing_emissions": 1,
        "unmappable_char": 1,
    }
    rejected = {json.loads(line)["key"]: json.loads(line)
                for line in (tmp_path / "out" / "rejections.jsonl")
                .read_text(encoding="utf-8").splitlines()}
    assert rejected["badlang"]["reasons"] == ["bad_language"]
    assert rejected["badlang"]["stage"] == "normalize"
    assert rejected["emptied"]["reasons"] == ["empty_text"]
    assert rejected["greek"]["reasons"] == ["unmappable_char"]
    assert rejected["lost"]["stage"] == "align"
    # survivors now carry alignment words and a confidence
    kept = (tmp_path / "out" / "filter.jsonl").read_text(
        encoding="utf-8").splitlines()
    for line in kept:
        row = json.loads(line)
        assert row["words"]
        assert row["avg_confidence"] > 0.9


def test_run_pipeline_unalignable(tmp_path):
    record = rec("tight", 6.0, text="some gentle words in a quiet room")
    config = full_config(tmp_path, [record])
    # overwrite with emissions far too short for the label count
    vocab = (BLANK_TOKEN, "a", "s", "o", "m", "e")
    probs = np.full((2, len(vocab)), 1.0 / len(vocab))
    save_emissions(EmissionMatrix(np.log(probs), 0.02, vocab),
                   config.emissions_dir / "tight.npz")
    summary = run_pipeline(config)
    assert summary["rejections"] == {"unalignable": 1}


def test_run_pipeline_wraps_stage_blowups(tmp_path, monkeypatch):
    record = rec("broken", 6.0, text="some gentle words in a quiet room")
    config = full_config(tmp_path, [record])

    def unreadable(path):
        raise OSError(f"{path}: input/output error")

    monkeypatch.setattr(pipeline_module, "load_emissions", unreadable)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config)
    assert err.value.stage == "align"
    assert err.value.key == "broken"


@pytest.mark.parametrize("payload", [b"not an archive", b"", b"PK\x03\x04 cut"])
def test_run_pipeline_rejects_corrupt_emissions(tmp_path, payload):
    records = [rec(f"r{i}", 6.0, text="some gentle words in a quiet room")
               for i in range(3)]
    config = full_config(tmp_path, records)
    (config.emissions_dir / "r1.npz").write_bytes(payload)
    summary = run_pipeline(config)
    assert summary["output_records"] == 2
    assert summary["rejections"] == {"bad_emissions": 1}
    rejected = [json.loads(line) for line in (tmp_path / "out" / "rejections.jsonl")
                .read_text(encoding="utf-8").splitlines()]
    assert rejected == [{"key": "r1", "stage": "align",
                         "reasons": ["bad_emissions"]}]


def test_run_pipeline_aligns_long_utterances(tmp_path):
    words = ("abandoned", "laboratory", "buildings", "gradually")
    text = " ".join(words[i % 4] for i in range(30))      # 285 letters
    records = [rec("long", 40.0, text=text),
               rec("short", 6.0, text="some gentle words in a quiet room")]
    config = full_config(tmp_path, records,
                         filter_config=FilterConfig(profiles=PROFILES,
                                                    max_duration_s=60.0))
    summary = run_pipeline(config)
    assert summary["stage_counts"]["align"] == {"in": 2, "out": 2}
    aligned = [json.loads(line) for line in (tmp_path / "out" / "align.jsonl")
               .read_text(encoding="utf-8").splitlines()]
    assert [len(row["words"]) for row in aligned] == [30, 7]


def test_run_pipeline_shards_outputs(tmp_path):
    records = [aligned_rec(f"r{i:02d}", duration_s=4.0 + i) for i in range(9)]
    config = filter_only_config(tmp_path, records, shard_count=3)
    run_pipeline(config)
    out = tmp_path / "out"
    keys = []
    for i in range(3):
        lines = (out / f"shard_{i:03d}.jsonl").read_text(
            encoding="utf-8").splitlines()
        keys.extend(json.loads(line)["key"] for line in lines)
    assert sorted(keys) == [f"r{i:02d}" for i in range(9)]


def test_run_pipeline_is_deterministic(tmp_path):
    records = [
        rec(f"en{i}", 6.0 + i * 0.37,
            text=f"repeatable words number {i} spoken slowly")
        for i in range(8)
    ]
    records.append(rec("zh0", 4.0, language="zh", text="你好世界"))
    config_a = full_config(tmp_path, records, out_name="out_a", workers=1)
    config_b = full_config(tmp_path, records, out_name="out_b", workers=4)
    run_pipeline(config_a)
    run_pipeline(config_b)
    files_a = sorted(p.name for p in (tmp_path / "out_a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "out_b").iterdir())
    assert files_a == files_b
    for name in files_a:
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_run_pipeline_with_adapter(tmp_path):
    manifest = tmp_path / "in.jsonl"
    rows = [{"id": f"v{i}", "lang": "en", "wav": f"v{i}.wav",
             "dur": 8.0, "text": "this is a perfectly normal sentence here"}
            for i in range(3)]
    manifest.write_text(
        "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    from voxkit import SourceAdapterSpec
    adapter = SourceAdapterSpec(
        source="vlogs",
        field_map={"key": "id", "language": "lang", "audio_ref": "wav",
                   "duration_s": "dur", "raw_text": "text"})
    config = PipelineConfig(input_path=manifest,
                            output_dir=tmp_path / "out",
                            stages=("normalize",),
                            filter_config=FilterConfig(profiles=PROFILES),
                            profiles=PROFILES, adapter=adapter)
    summary = run_pipeline(config)
    assert summary["output_records"] == 3
    row = json.loads((tmp_path / "out" / "normalize.jsonl")
                     .read_text(encoding="utf-8").splitlines()[0])
    assert row["source"] == "vlogs"
    assert row["normalized_text"]
