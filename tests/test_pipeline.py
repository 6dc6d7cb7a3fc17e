import collections
import errno
import json
import math
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import voxkit.manifest as manifest_module
import voxkit.pipeline as pipeline_module

from voxkit import (
    BLANK_TOKEN,
    ConfigError,
    EmissionFormatError,
    EmissionMatrix,
    FilterConfig,
    MissingConfidenceError,
    PipelineConfig,
    PipelineError,
    PipelineStageError,
    SchemaError,
    UtteranceRecord,
    WordSpan,
    load_emissions,
    load_pipeline_config,
    load_profile,
    load_profiles,
    normalize,
    romanize,
    run_pipeline,
    read_manifest,
    save_emissions,
    shard,
    write_manifest,
)
from voxkit.textnorm import ProfileError, parse_profile

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
adapter.map.duration_s = len
adapter.default.language = en
adapter.default.audio_ref = a.wav
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
    assert set(fc.profiles) == {"en", "zh"}
    assert set(config.profiles) == {"en", "zh"}
    assert config.adapter.source == "yt"
    assert config.adapter.field_map == {"key": "id", "raw_text": "text",
                                        "duration_s": "len"}
    assert config.adapter.defaults == {"language": "en", "audio_ref": "a.wav"}


def test_config_defaults(tmp_path):
    config = load_pipeline_config(write_config(tmp_path, "stages = filter\n"))
    assert config.stages == ("filter",)
    assert config.shard_count == 1
    assert config.workers == 1
    assert config.score_mode == "geometric"
    assert config.adapter is None
    assert len(config.profiles) == 10


# An adapter that reaches every required field, on lines 3-8 of a config.
_ADAPTER_CONF = ("adapter.source = web\nadapter.map.key = id\nadapter.map.raw_text = text\n"
                 "adapter.map.duration_s = len\nadapter.default.language = en\n"
                 "adapter.default.audio_ref = a.wav\n")


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
        ("threshold.default = 0.3\nthreshold.default = 0.9\n",
         "line 4: duplicate key 'threshold.default'"),
        ("threshold.source.web = 0.5\nthreshold.source.web = 0.7\n",
         "line 4: duplicate key 'threshold.source.web'"),
        ("adapter.source = web\nadapter.map.key = key\nadapter.map.key = id\n",
         "line 5: duplicate key 'adapter.map.key'"),
        # An adapter that cannot make a record is refused on the line that
        # breaks it, or on adapter.source when a required field is unreached.
        (f"{_ADAPTER_CONF}adapter.map.dur = len\n",
         "line 9: field 'dur': not a field an adapter fills"),
        (f"{_ADAPTER_CONF}adapter.default.speaker = x\n",
         "line 9: field 'speaker': not a field an adapter fills"),
        ("adapter.source = web\nadapter.map.key = id\n",
         "line 3: field 'language': no mapping or default for required field"),
        ("stages = filter align\n", "emissions_dir"),
        # Errors about a setting's value name the line it was set on.
        ("stages = filter\nshard_count = 0\n",
         "line 4: shard_count must be >= 1, got 0"),
        ("stages = filter\nworkers = 0\n", "line 4: workers must be >= 1, got 0"),
        ("workers = 2\nstages = normalize bogus\n",
         "line 4: unknown stage 'bogus'"),
        ("stages = filter filter\n", "line 3: stages listed more than once"),
        ("stages = filter normalize\n", "line 3: stages must run in the order "
                                        "normalize romanize align filter, got "
                                        "filter normalize"),
        ("score_mode = fancy\n", "line 3: score_mode must be geometric or "
                                  "arithmetic, got 'fancy'"),
        # Filter settings the filter rejects are config errors on their line.
        ("threshold.default = 1.5\n", "line 3: confidence threshold 1.5 outside"),
        ("workers = 2\nthreshold.pair.web.zh = 2\n",
         "line 4: confidence threshold 2.0 outside"),
        ("threshold.source.web = 0.5\nthreshold.language.zh = -0.1\n",
         "line 4: confidence threshold -0.1 outside"),
        ("max_gap_s = -1\n", "line 3: max_gap_s must be positive"),
        ("workers = 2\nmax_gap_s = nan\n", "line 4: max_gap_s must be positive"),
        ("min_duration_s = 40\n",
         "line 3: need 0 < min_duration_s < max_duration_s"),
        ("workers = 2\nmax_duration_s = 0.2\n",
         "line 4: need 0 < min_duration_s < max_duration_s"),
        ("max_symbol_fraction = 1.5\n",
         "line 3: max_symbol_fraction must be in [0, 1], got 1.5"),
        ("languages = en xx\n", "line 3: no profile for language 'xx'"),
        ("emissions_dir = nowhere\n", "line 3: emissions_dir "),
        ("workers = 2\nemissions_dir = in.jsonl\n",
         "line 4: emissions_dir "),
    ]
    for body, fragment in cases:
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(write_config(tmp_path, body))
        assert fragment in str(err.value)


def test_config_requires_stages_in_pipeline_order(tmp_path):
    paths = dict(input_path=tmp_path / "in.jsonl", output_dir=tmp_path / "out",
                 emissions_dir=tmp_path)
    with pytest.raises(ConfigError, match="stages must run in the order") as err:
        PipelineConfig(stages=("filter", "align", "romanize", "normalize"), **paths)
    assert err.value.key == "stages"
    # Stages may be left out, as long as the rest keep their order.
    assert PipelineConfig(stages=("normalize", "align"), **paths).stages == (
        "normalize", "align")


# Each row was accepted, or failed with a bare TypeError or a misleading
# message, before the types were checked.
@pytest.mark.parametrize("setting, message", [
    ({"shard_count": 2.5}, "^shard_count must be an integer, got 2.5$"),
    ({"shard_count": True}, "^shard_count must be an integer, got True$"),
    ({"shard_count": "3"}, "^shard_count must be an integer, got '3'$"),
    ({"workers": 2.5}, "^workers must be an integer, got 2.5$"),
    ({"workers": "2"}, "^workers must be an integer, got '2'$"),
    ({"stages": "normalize"},
     "^stages must be a sequence of stage names, not the string 'normalize'$"),
], ids=["float-shards", "bool-shards", "text-shards", "float-workers",
        "text-workers", "text-stages"])
def test_config_refuses_wrongly_typed_settings(tmp_path, setting, message):
    paths = dict(input_path=tmp_path / "in.jsonl", output_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match=message) as err:
        PipelineConfig(**{"stages": ("normalize",), **setting}, **paths)
    assert err.value.key == next(iter(setting))


def test_config_takes_numpy_integer_counts(tmp_path):
    config = PipelineConfig(input_path=tmp_path / "in.jsonl", output_dir=tmp_path / "out",
                            stages=("normalize",), shard_count=np.int64(3),
                            workers=np.uint8(2))
    assert (config.shard_count, config.workers) == (3, 2)


def _profile_text(**changes):
    fields = {"language": "en", "rules": "en", "min_ratio": "1.0",
              "max_ratio": "5.0", "ranges": "0061-007A"}
    fields.update(changes)
    return "".join(f"{k} = {v}\n" for k, v in fields.items() if v is not None)


def _load_misnamed_profile(tmp_path):
    (tmp_path / "de.profile").write_text(_profile_text(), encoding="utf-8")
    return load_profile("de", tmp_path)


# Each row runs one refusal or setting that no other test reaches: a string
# is the error it must raise, anything else the value it must return.
@pytest.mark.parametrize("run, expected", [
    (lambda tmp: parse_profile("language en\n"), "<string>:1: expected 'key = value'"),
    (lambda tmp: parse_profile(_profile_text(ranges=None)), "missing key 'ranges'"),
    (lambda tmp: parse_profile(_profile_text(max_ratio="fast")),
     "ratio bounds must be numeric"),
    (lambda tmp: parse_profile(_profile_text(ranges="0061-zz")), "bad range '0061-zz'"),
    (lambda tmp: parse_profile(_profile_text(punctuation=". ...")),
     "punctuation entries must be single characters, got '...'"),
    (lambda tmp: parse_profile(_profile_text(min_ratio="5", max_ratio="1")),
     "en: need 0 <= min_ratio < max_ratio, got [5.0, 1.0]"),
    (lambda tmp: parse_profile(_profile_text(ranges="007A-0061")),
     "en: empty range 007A-0061"),
    (lambda tmp: parse_profile(_profile_text(rules="default")),
     "en: rules 'default' names no number speller; known: de, en, es, fr, "
     "id, it, pt, ru, vi, zh"),
    (_load_misnamed_profile, "profile declares language 'en', expected 'de'"),
    (lambda tmp: romanize("你好abc世界", "zh", split_zh_chars=True),
     ["ni", "hao", "abc", "shi", "jie"]),
    (lambda tmp: load_pipeline_config(write_config(
        tmp, "emissions_dir = emit\nsplit_zh_chars = no\n")).split_zh_chars, False),
    (lambda tmp: load_pipeline_config(write_config(tmp, "split_zh_chars = maybe\n")),
     "line 3: split_zh_chars expects true/false, got 'maybe'"),
    (lambda tmp: load_pipeline_config(tmp / "absent.conf"), "cannot read config"),
    (lambda tmp: load_pipeline_config(write_config(tmp, "stages =\n")),
     "line 3: empty key or value in 'stages ='"),
], ids=["no-equals", "missing-key", "ratio-not-numeric", "bad-range",
        "long-punctuation", "ratio-order", "empty-range", "no-number-speller",
        "misnamed-profile", "zh-split-keeps-latin-runs", "split-zh-chars-no",
        "split-zh-chars-maybe", "unreadable-config", "empty-value"])
def test_profile_romanize_and_config_cases(tmp_path, run, expected):
    if isinstance(expected, str):
        with pytest.raises((ProfileError, ConfigError), match=re.escape(expected)):
            run(tmp_path)
    else:
        assert run(tmp_path) == expected


def test_pipeline_profiles_default_to_the_filters(tmp_path):
    # Profiles given once, to the filter, serve normalize as well.
    manifest = tmp_path / "in.jsonl"
    write_manifest([rec("en1", 4.0), rec("zh1", 4.0, language="zh",
                                         text="你好世界")], manifest)
    config = PipelineConfig(input_path=manifest, output_dir=tmp_path / "out",
                            stages=("normalize", "romanize"),
                            filter_config=FilterConfig(profiles=PROFILES))
    assert config.profiles is config.filter_config.profiles
    summary = run_pipeline(config)
    assert summary["rejections"] == {}
    assert summary["output_records"] == 2


def test_pipeline_profiles_fill_the_filters(tmp_path):
    # Profiles given once, to the pipeline, serve the filter as well.
    manifest = tmp_path / "in.jsonl"
    write_manifest([aligned_rec("en1")], manifest)
    config = PipelineConfig(input_path=manifest, output_dir=tmp_path / "out",
                            stages=("normalize", "filter"), profiles=PROFILES)
    assert config.profiles is config.filter_config.profiles
    summary = run_pipeline(config)
    assert summary["rejections"] == {}
    assert summary["output_records"] == 1


def test_pipeline_takes_one_language_set(tmp_path):
    paths = dict(input_path=tmp_path / "in.jsonl", output_dir=tmp_path / "out",
                 stages=("normalize", "filter"))
    en_only = {"en": PROFILES["en"]}
    # The same set given on both sides is one set.
    config = PipelineConfig(**paths, profiles=dict(PROFILES),
                            filter_config=FilterConfig(profiles=PROFILES))
    assert config.profiles is config.filter_config.profiles
    with pytest.raises(ConfigError) as err:
        PipelineConfig(**paths, profiles=en_only,
                       filter_config=FilterConfig(profiles=PROFILES))
    assert err.value.key == "profiles"
    assert PipelineConfig(**paths).profiles == {}


def test_normalize_and_filter_accept_the_same_languages(tmp_path):
    # A profile outside the bundled ten (here xx, with English rules) is
    # accepted by normalize and the filter alike; a language without a
    # profile is rejected by both.
    profiles_dir = tmp_path / "profiles"
    profiles_dir.mkdir()
    en_text = (Path(__file__).parents[1] / "src" / "voxkit" / "textnorm" / "data"
               / "profiles" / "en.profile").read_text(encoding="utf-8")
    (profiles_dir / "en.profile").write_text(en_text, encoding="utf-8")
    (profiles_dir / "xx.profile").write_text(
        en_text.replace("language = en", "language = xx"), encoding="utf-8")
    profiles = load_profiles(("en", "xx"), profiles_dir)
    config = PipelineConfig(input_path=tmp_path / "in.jsonl",
                            output_dir=tmp_path / "out",
                            filter_config=FilterConfig(profiles=profiles),
                            profiles=profiles, emissions_dir=tmp_path)
    for language, passes in (("xx", True), ("en", True), ("de", False)):
        record = aligned_rec(f"{language}1", language=language)
        verdicts = []
        for stage in ("normalize", "filter"):
            survivors, rejected = pipeline_module.run_stage(stage, [record], config)
            verdicts.append([r.reasons for r in rejected])
            assert bool(survivors) is passes, (language, stage)
        expected = [] if passes else [("bad_language",)]
        assert verdicts == [expected, expected], language


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


def test_config_rejects_an_emissions_dir_that_is_not_a_directory(tmp_path):
    # Checked whenever it is given, whatever the stages, so that align never
    # runs with every record missing its emissions.
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    for emissions_dir, stages in ((tmp_path / "nowhere", ("align",)),
                                  (tmp_path / "a_file", ("filter",))):
        with pytest.raises(ConfigError, match="is not a directory") as err:
            PipelineConfig(input_path=tmp_path / "in.jsonl",
                           output_dir=tmp_path / "out", stages=stages,
                           emissions_dir=emissions_dir)
        assert err.value.key == "emissions_dir"


def test_config_takes_string_paths(tmp_path):
    manifest = tmp_path / "in.jsonl"
    write_manifest([aligned_rec("a")], manifest)
    config = PipelineConfig(input_path=str(manifest),
                            output_dir=str(tmp_path / "out"),
                            stages=("filter",),
                            filter_config=FilterConfig(profiles=PROFILES),
                            profiles=PROFILES, emissions_dir=str(tmp_path))
    assert config.input_path == manifest
    assert config.output_dir == tmp_path / "out"
    assert config.emissions_dir == tmp_path
    assert run_pipeline(config)["output_records"] == 1


def test_config_rejects_unknown_score_mode(tmp_path):
    # The bad setting is named before any record can be blamed for it, with
    # or without records to align.
    for records in ([rec("a", 4.0)], []):
        with pytest.raises(ConfigError, match="score_mode must be geometric "
                                              "or arithmetic, got 'bogus'"):
            full_config(tmp_path, records, score_mode="bogus")


def test_run_pipeline_aligns_empty_input(tmp_path):
    summary = run_pipeline(full_config(tmp_path, []))
    assert summary["stage_counts"]["align"] == {"in": 0, "out": 0}
    assert summary["output_records"] == 0


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


def test_run_pipeline_filter_needs_aligned_records(tmp_path):
    # A record without a confidence is bad input, not a stage fault.
    config = filter_only_config(tmp_path, [aligned_rec("ok"), rec("a", 4.0)])
    with pytest.raises(MissingConfidenceError, match="record 'a' has no "
                       "avg_confidence; align it first"):
        run_pipeline(config)


def test_run_pipeline_empty_input(tmp_path):
    summary = run_pipeline(filter_only_config(tmp_path, []))
    assert summary["input_records"] == 0
    assert summary["output_records"] == 0
    assert summary["rejections"] == {}
    assert (tmp_path / "out" / "rejections.jsonl").exists()
    assert (tmp_path / "out" / "filter.jsonl").exists()


def test_run_pipeline_judges_the_duration_it_writes(tmp_path):
    # 0.4996 s and 30.0004 s are written as 0.5 and 30.0, inside the default
    # bounds, so they pass here as they do on a rerun over the output.
    wide = {"en": PROFILES["en"].with_ratio_bounds(0.01, 1000.0)}
    config = filter_only_config(tmp_path, [], profiles=wide,
                                filter_config=FilterConfig(profiles=wide))
    lines = [{**aligned_rec(key, duration_s=round(raw, 3), text="hi there")
              .to_json_dict(), "duration_s": raw}
             for key, raw in (("short", 0.4996), ("long", 30.0004))]
    config.input_path.write_text("".join(json.dumps(line) + "\n" for line in lines),
                                 encoding="utf-8")
    summary = run_pipeline(config)
    assert summary["output_records"] == 2
    kept = list(read_manifest(tmp_path / "out" / "filter.jsonl"))
    assert [r.duration_s for r in kept] == [0.5, 30.0]


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


def test_run_pipeline_keeps_emission_keys_inside_emissions_dir(tmp_path):
    (tmp_path / "outside").mkdir()
    (tmp_path / "emit" / "spk1").mkdir(parents=True)
    records = [rec("../outside/rel", 4.0), rec(str(tmp_path / "outside" / "abs"), 4.0),
               rec("spk1/ok", 4.0)]
    config = full_config(tmp_path, records, stages=("normalize", "romanize", "align"))
    # full_config saved emissions for every key, two of them outside emit/.
    assert (tmp_path / "outside" / "rel.npz").is_file()
    assert (tmp_path / "outside" / "abs.npz").is_file()
    summary = run_pipeline(config)
    assert summary["stage_counts"]["align"] == {"in": 3, "out": 1}
    assert summary["rejections"] == {"missing_emissions": 2}
    romanized = list(read_manifest(tmp_path / "out" / "romanize.jsonl"))
    _, rejected = pipeline_module.run_stage("align", romanized, config)
    assert [r.key for r in rejected] == ["../outside/rel",
                                         str(tmp_path / "outside" / "abs")]
    for rejection in rejected:
        assert "absolute or holds '..'" in str(rejection.error)


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

    def crashing(path):
        raise RuntimeError(f"{path}: emission reader crashed")

    monkeypatch.setattr(pipeline_module, "load_emissions", crashing)
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(config)
    assert err.value.stage == "align"
    assert err.value.key == "broken"


def test_an_emission_os_error_rejects_one_record(tmp_path, monkeypatch):
    text = "some gentle words in a quiet room"
    good, long_key = rec("good", 6.0, text=text), rec("k" * 300, 6.0, text=text)
    config = full_config(tmp_path, [good], stages=("normalize", "romanize", "align"))
    write_manifest([good, long_key], config.input_path)
    # A key too long for a file name names no file.
    summary = run_pipeline(config)
    assert summary["rejections"] == {"missing_emissions": 1}
    assert [r.key for r in read_manifest(config.output_dir / "align.jsonl")] == ["good"]

    def denied_for_good(original):
        def call(*args):
            if "good" in str(args[-1]):
                raise PermissionError(errno.EACCES, "Permission denied", str(args[-1]))
            return original(*args)
        return call

    # Any other error the OS gives looking up or reading the file is
    # bad_emissions, with the OS's message.
    for name in ("find_emissions", "load_emissions"):
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, name,
                          denied_for_good(getattr(pipeline_module, name)))
            summary = run_pipeline(config)
            assert summary["rejections"] == {"bad_emissions": 1, "missing_emissions": 1}
            romanized = list(read_manifest(config.output_dir / "romanize.jsonl"))
            _, rejected = pipeline_module.run_stage("align", romanized[:1], config)
        assert [r.reasons for r in rejected] == [("bad_emissions",)]
        assert isinstance(rejected[0].error, EmissionFormatError)
        assert "emissions for key 'good' cannot be read: [Errno 13] Permission denied" \
            in str(rejected[0].error)


def test_run_pipeline_wraps_per_record_faults(tmp_path, monkeypatch):
    records = [rec("ok", 6.0), rec("boom", 6.0, text="boom goes here")]
    config = full_config(tmp_path, records)

    def faulty(text, profile):
        if text == "boom goes here":
            raise RuntimeError("normalizer crashed")
        return normalize(text, profile)

    monkeypatch.setattr(pipeline_module, "normalize", faulty)
    with pytest.raises(PipelineStageError, match="normalizer crashed") as err:
        run_pipeline(config)
    assert (err.value.stage, err.value.key) == ("normalize", "boom")


def test_run_pipeline_blames_a_kernel_fault_on_its_group(tmp_path, monkeypatch):
    from voxkit import aligner
    text = "some gentle words in a quiet room"
    records = [rec(f"r{i}", 6.0, text=text) for i in range(6)]
    config = full_config(tmp_path, records)
    (config.emissions_dir / "r2.npz").unlink()
    # peaked_emissions gives 2 * letters + 1 frames, and a trellis row holds
    # 2 * letters + 3 states: two records fit a group, three do not. The
    # groups are r0 r1 | r3 r4 | r5, r2 being rejected before the kernel.
    letters = len(text.replace(" ", ""))
    monkeypatch.setattr(aligner, "GROUP_CELLS",
                        2 * (2 * letters + 1) * (2 * letters + 3))
    viterbi = aligner._viterbi
    calls = []

    def second_group_fails(jobs, *args):
        calls.append(len(jobs))
        if len(calls) == 2:
            raise FloatingPointError("kernel fault")
        return viterbi(jobs, *args)

    monkeypatch.setattr(aligner, "_viterbi", second_group_fails)
    with pytest.raises(PipelineStageError, match="aligning its group: "
                       "kernel fault") as err:
        run_pipeline(config)
    assert (err.value.stage, err.value.key) == ("align", "r3")
    assert calls == [2, 2]


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


def test_run_pipeline_rejects_an_encrypted_archive(tmp_path):
    records = [rec(f"r{i}", 6.0 + i, text="some gentle words in a quiet room")
               for i in range(3)]
    config = full_config(tmp_path, records, out_name="clean")
    run_pipeline(config)
    archive = bytearray((config.emissions_dir / "r1.npz").read_bytes())
    # Bit 0 of the first central-directory entry's flags: encrypted.
    archive[archive.index(b"PK\x01\x02") + 8] |= 0x01
    (config.emissions_dir / "r1.npz").write_bytes(archive)
    with pytest.raises(EmissionFormatError, match="^r1.npz: File 'log_probs.npy' is "
                                                  "encrypted, password required"):
        load_emissions(config.emissions_dir / "r1.npz")
    summary = run_pipeline(replace(config, output_dir=tmp_path / "out"))
    assert summary["rejections"] == {"bad_emissions": 1}
    rejected = (tmp_path / "out" / "rejections.jsonl").read_text(encoding="utf-8")
    assert rejected == '{"key": "r1", "reasons": ["bad_emissions"], "stage": "align"}\n'
    for stage in pipeline_module.STAGES:
        clean = (tmp_path / "clean" / f"{stage}.jsonl").read_text(
            encoding="utf-8").splitlines()
        if stage in ("align", "filter"):
            clean = [line for line in clean if json.loads(line)["key"] != "r1"]
        assert (tmp_path / "out" / f"{stage}.jsonl").read_text(
            encoding="utf-8").splitlines() == clean


def test_run_pipeline_encodes_each_record_once(tmp_path, monkeypatch):
    records = [rec(f"r{i}", 4.0 + i, text="some gentle words in a quiet room")
               for i in range(6)]
    records.append(rec("long", 40.0, text="some gentle words in a quiet room"))
    config = full_config(tmp_path, records, shard_count=3)
    encode = manifest_module.record_to_line
    calls = collections.Counter()
    encoded = []

    def counting(record):
        calls[id(record)] += 1
        encoded.append(record)          # keeps every id unique over the run
        return encode(record)

    monkeypatch.setattr(manifest_module, "record_to_line", counting)
    summary = run_pipeline(config)
    assert summary["stage_counts"]["filter"] == {"in": 7, "out": 6}
    assert max(calls.values()) == 1
    # normalize, romanize and align each make new records; filter and the
    # shards write align's again.
    assert len(calls) == 3 * len(records)
    out = config.output_dir
    written = [out / f"{stage}.jsonl" for stage in pipeline_module.STAGES]
    written += sorted(out.glob("shard_*.jsonl"))
    assert len(written) == 7
    for path in written:
        assert path.read_text(encoding="utf-8").splitlines() == [
            encode(record) for record in read_manifest(path)]


@pytest.mark.parametrize("n_stages", range(len(pipeline_module.STAGES) + 1))
def test_each_stage_prefix_encodes_each_record_once(tmp_path, monkeypatch, n_stages):
    # Whatever stage runs last, and whether it made new records or passed
    # its input on, the shards reuse the lines of its manifest; with no
    # stage at all they encode the input records.
    stages = pipeline_module.STAGES[:n_stages]
    records = [rec(f"r{i}", 4.0 + i, text="some gentle words in a quiet room")
               for i in range(6)]
    records.append(rec("long", 40.0, text="some gentle words in a quiet room"))
    config = full_config(tmp_path, records, stages=stages, shard_count=3)
    encode = manifest_module.record_to_line
    calls = collections.Counter()
    encoded = []

    def counting(record):
        calls[id(record)] += 1
        encoded.append(record)          # keeps every id unique over the run
        return encode(record)

    monkeypatch.setattr(manifest_module, "record_to_line", counting)
    run_pipeline(config)
    assert calls and max(calls.values()) == 1
    out = config.output_dir
    written = [out / f"{stage}.jsonl" for stage in stages]
    written += sorted(out.glob("shard_*.jsonl"))
    assert len(written) == n_stages + 3
    for path in written:
        assert path.read_text(encoding="utf-8").splitlines() == [
            encode(record) for record in read_manifest(path)]


def test_run_pipeline_rejects_emissions_that_do_not_fit_the_record(tmp_path):
    records = [rec("ok1", 6.0, text="some gentle words in a quiet room"),
               rec("k2", 0.1, text="hi"),
               rec("ok2", 7.0, text="another entirely ordinary line of words"),
               rec("k3", 6.0, text="hi")]
    config = full_config(tmp_path, records)
    third = math.log(1 / 3)
    uniform = np.full((20, 3), third)
    for key in ("k2", "k3"):
        (config.emissions_dir / f"{key}.npz").unlink()
    # 20 frames of 0.02 s: the word ends at 0.4 s, past k2's 0.1 s.
    save_emissions(EmissionMatrix(uniform, 0.02, (BLANK_TOKEN, "h", "i")),
                   config.emissions_dir / "k2.emit")
    # A frame duration of inf puts every span at [inf, inf).
    (config.emissions_dir / "k3.emit").write_text(
        f"inf {BLANK_TOKEN} h i\n" + f"{third!r} " * 3 + "\n",
        encoding="utf-8")

    summary = run_pipeline(config)
    assert summary["output_records"] == 2
    assert summary["stage_counts"]["align"] == {"in": 4, "out": 2}
    assert summary["rejections"] == {"bad_emissions": 2}
    rejected = [json.loads(line) for line in (tmp_path / "out" / "rejections.jsonl")
                .read_text(encoding="utf-8").splitlines()]
    assert rejected == [{"key": key, "stage": "align", "reasons": ["bad_emissions"]}
                        for key in ("k2", "k3")]

    romanized = list(read_manifest(tmp_path / "out" / "romanize.jsonl"))
    survivors, rejections = pipeline_module.run_stage("align", romanized, config)
    assert [r.key for r in survivors] == ["ok1", "ok2"]
    write_manifest(survivors, tmp_path / "survivors.jsonl")
    assert [r.key for r in read_manifest(tmp_path / "survivors.jsonl")] == ["ok1", "ok2"]
    overrun, infinite = (r.error for r in rejections)
    assert isinstance(overrun, EmissionFormatError)
    assert "'k2'" in str(overrun) and "beyond duration 0.1" in str(overrun)
    assert isinstance(overrun.__cause__, SchemaError)
    assert isinstance(infinite, EmissionFormatError)
    assert "frame_dur_s must be finite" in str(infinite)



def _one_letter_emissions(frames, letter_frames):
    """0.4 ms frames over (blank, "a") that spend letter_frames on the letter."""
    probs = np.full((frames, 2), 1e-4)
    probs[:, 0] = 1.0
    probs[letter_frames, 0], probs[letter_frames, 1] = 1e-4, 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    return EmissionMatrix(np.log(probs), 0.0004, (BLANK_TOKEN, "a"))


def test_run_pipeline_rejects_spans_that_round_to_nothing(tmp_path):
    # A word on frame 0 spans [0, 0.0004 s), which would be written as
    # [0.0, 0.0); one on frames 3-4 spans [0.0012, 0.002), written as
    # [0.001, 0.002), which reads back.
    records = [rec("empty", 1.0, text="a"), rec("short", 1.0, text="a"),
               rec("ok", 6.0, text="some gentle words in a quiet room")]
    config = full_config(tmp_path, records, stages=("normalize", "romanize", "align"))
    save_emissions(_one_letter_emissions(3, [0]), config.emissions_dir / "empty.npz")
    save_emissions(_one_letter_emissions(6, [3, 4]), config.emissions_dir / "short.npz")

    summary = run_pipeline(config)
    assert summary["rejections"] == {"bad_emissions": 1}
    rejected = [json.loads(line) for line in (tmp_path / "out" / "rejections.jsonl")
                .read_text(encoding="utf-8").splitlines()]
    assert rejected == [{"key": "empty", "stage": "align", "reasons": ["bad_emissions"]}]
    (short, ok) = read_manifest(tmp_path / "out" / "align.jsonl")
    assert [(w.start_s, w.end_s) for w in short.words] == [(0.001, 0.002)]
    assert ok.key == "ok"
    manifests = [p for p in (tmp_path / "out").glob("*.jsonl") if p.name != "rejections.jsonl"]
    assert len(manifests) >= 3
    for path in manifests:
        list(read_manifest(path))


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


def test_run_pipeline_runs_every_stage_in_the_calling_thread(tmp_path,
                                                            monkeypatch):
    records = [rec(f"en{i}", 6.0 + i, text=f"words number {i} spoken slowly")
               for i in range(4)]
    config = full_config(tmp_path, records, workers=4)
    threads = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            threads.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("normalize", "romanize", "run_chain"):
        monkeypatch.setattr(pipeline_module, name,
                            recorded(getattr(pipeline_module, name)))
    assert run_pipeline(config)["output_records"] == len(records)
    assert sorted({name for name, _ in threads}) == ["normalize", "romanize",
                                                     "run_chain"]
    assert len(threads) == 3 * len(records)
    assert {ident for _, ident in threads} == {threading.get_ident()}


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


def test_ingest_errors_carry_line_numbers(tmp_path):
    from voxkit import SourceAdapterSpec
    from voxkit.manifest import AdapterError, DuplicateKeyError
    adapter = SourceAdapterSpec(
        source="web", field_map={"key": "id", "raw_text": "text"},
        defaults={"language": "en", "audio_ref": "a.wav", "duration_s": 1.0})
    good_row = json.dumps({"id": "r1", "text": "hello"})
    good_record = json.dumps(rec("r1", 1.0).to_json_dict())
    rows = tmp_path / "rows.jsonl"
    # The same row loop serves source rows (with an adapter) and manifest
    # records (without one).
    cases = [(adapter, good_row, "[1, 2]", AdapterError,
              "line 2: expected a JSON object"),
             (adapter, good_row, json.dumps({"text": "no id"}), AdapterError,
              "line 2, field 'key': no mapping"),
             (None, good_record, "[1, 2]", SchemaError,
              "line 2, field '<line>': expected object")]
    for spec, good in ((adapter, good_row), (None, good_record)):
        cases += [(spec, good, good, DuplicateKeyError,
                   "line 2, key 'r1': duplicate key"),
                  (spec, good, "{not json", SchemaError,
                   "line 2: invalid JSON")]
    for spec, good, second, error, fragment in cases:
        rows.write_text(f"{good}\n{second}\n", encoding="utf-8")
        with pytest.raises(error) as err:
            list(read_manifest(rows, spec))
        assert err.value.line_no == 2
        assert fragment in str(err.value)


# ----------------------------------------------------------------- README

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    match = re.search(r"Library:\n\n```python\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)
    assert match, "README has no library example"
    records = [rec("ok1", 8.0, text="this is a perfectly normal sentence here"),
               rec("ok2", 7.0, text="another entirely ordinary line of words"),
               rec("badlang", 5.0, language="xx", text="whatever text")]
    full_config(tmp_path, records)
    # The example reads corpus.jsonl and emissions/ in the working directory.
    (tmp_path / "in.jsonl").rename(tmp_path / "corpus.jsonl")
    (tmp_path / "emit").rename(tmp_path / "emissions")
    monkeypatch.chdir(tmp_path)
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out == "{'bad_language': 1}\n"
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["output_records"] == 2
    assert len(list(out.glob("shard_*.jsonl"))) == 8


def _error_chain(error):
    """error and every error it chains to through __cause__ or __context__."""
    chain, pending = [], [error]
    while pending:
        error = pending.pop()
        if error is not None and all(error is not seen for seen in chain):
            chain.append(error)
            pending += (error.__cause__, error.__context__)
    return chain


def test_rejections_keep_no_stack_frames(tmp_path):
    # A kept traceback keeps every frame on it alive, with its locals: for a
    # corrupt archive, the bytes that failed to load.
    records = [rec("r0", 6.0, text="some gentle words in a quiet room"),
               rec("blank", 5.0, text="   "),
               rec("greek", 5.0, text="αβγ δεζ ηθι κλμ")]
    config = full_config(tmp_path, records)
    (config.emissions_dir / "r0.npz").write_bytes(b"PK\x03\x04" + bytes(1_000_000))
    rejections = []
    for stage in ("normalize", "romanize", "align"):
        records, rejected = pipeline_module.run_stage(stage, records, config)
        rejections += rejected
    assert [(r.stage, r.key, r.reasons) for r in rejections] == [
        ("normalize", "blank", ("empty_text",)),
        ("romanize", "greek", ("unmappable_char",)),
        ("align", "r0", ("bad_emissions",))]
    assert len(_error_chain(rejections[-1].error)) > 1
    for rejection in rejections:
        chain = _error_chain(rejection.error)
        assert [e.__traceback__ for e in chain] == [None] * len(chain), rejection.key


# ------------------------------------------------------------ chunks

CHUNK = pipeline_module.CHUNK_RECORDS


def _files(out_dir):
    """Every file under out_dir, by name, with its bytes."""
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_a_run_that_raises_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch):
    text = "some gentle words in a quiet room"
    monkeypatch.setattr(pipeline_module, "CHUNK_RECORDS", 2)
    config = full_config(tmp_path, [rec(f"old{i}", 4.0 + i, text=text) for i in range(3)],
                         shard_count=3)
    run_pipeline(config)
    (config.output_dir / "notes.txt").write_text("not voxkit's", encoding="utf-8")
    before = _files(config.output_dir)
    # A new input whose align stage dies on a record of the second chunk,
    # after the first chunk went through every stage.
    config = full_config(tmp_path, [rec(f"new{i}", 5.0 + i, text=text) for i in range(4)],
                         shard_count=3)
    load = pipeline_module.load_emissions

    def crashing(path):
        if "new3" in str(path):
            raise RuntimeError(f"{path}: emission reader crashed")
        return load(path)

    monkeypatch.setattr(pipeline_module, "load_emissions", crashing)
    for out_dir in (config.output_dir, tmp_path / "fresh" / "out"):
        with pytest.raises(PipelineStageError) as err:
            run_pipeline(replace(config, output_dir=out_dir))
        assert (err.value.stage, err.value.key) == ("align", "new3")
    assert _files(config.output_dir) == before
    assert not (tmp_path / "fresh").exists()


def _fate_records(n):
    """n records with varied durations; by i % 6 the record is rejected by
    normalize, passes, is rejected by romanize, by align (no emissions),
    passes, or is rejected by the filter (too long)."""
    text = "some gentle words in a quiet room"
    fates = {0: dict(language="xx"), 2: dict(text="αβγ δεζ ηθι κλμ"),
             5: dict(duration_s=40.0)}
    return [rec(f"r{i:04d}", **{"duration_s": 4.0 + i % 7, "text": text,
                                **fates.get(i % 6, {})})
            for i in range(n)]


@pytest.mark.parametrize("size", [1, 2, 3, CHUNK])
def test_chunk_size_never_changes_a_byte(tmp_path, monkeypatch, size):
    records = _fate_records(CHUNK + 4)
    config = full_config(tmp_path, records, shard_count=3)
    for record in records[3::6]:
        (config.emissions_dir / f"{record.key}.npz").unlink()
    monkeypatch.setattr(pipeline_module, "CHUNK_RECORDS", len(records))
    whole = run_pipeline(replace(config, output_dir=tmp_path / "whole"))
    assert whole["rejections"] == {"bad_language": 44, "unmappable_char": 43,
                                   "missing_emissions": 43, "too_long": 43,
                                   "rate_low": 43}
    monkeypatch.setattr(pipeline_module, "CHUNK_RECORDS", size)
    notes = []
    assert run_pipeline(config, progress=notes.append) == whole
    assert _files(config.output_dir) == _files(tmp_path / "whole")
    assert notes.count(f"ingest: {size} records") == len(records) // size
