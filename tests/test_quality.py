import pytest

from voxkit import (
    FilterConfig,
    FilterVerdict,
    InsufficientDataError,
    MissingConfidenceError,
    QualityError,
    UtteranceRecord,
    WordSpan,
    fit_ratio_bounds,
    load_profiles,
    run_chain,
)
from voxkit.quality import REASON_ORDER

PROFILES = load_profiles()


def config(**kwargs):
    kwargs.setdefault("profiles", PROFILES)
    return FilterConfig(**kwargs)


def words_for(text, duration_s, score):
    tokens = text.split()
    step = duration_s / len(tokens)
    return tuple(
        WordSpan(word=w, start_s=round(i * step, 3),
                 end_s=round((i + 1) * step, 3), score=score)
        for i, w in enumerate(tokens)
    )


def make_record(key="utt1", language="en", duration_s=5.0,
                raw_text="this is a perfectly normal sentence here",
                confidence=0.95, source="demo", **kwargs):
    fields = dict(
        key=key, language=language, audio_ref=f"a/{key}.wav",
        duration_s=duration_s, raw_text=raw_text,
        normalized_text=kwargs.pop("normalized_text", raw_text.lower()),
        source=source,
    )
    if confidence is not None:
        fields["words"] = kwargs.pop(
            "words", words_for(raw_text, duration_s, confidence))
        fields["avg_confidence"] = confidence
    fields.update(kwargs)
    return UtteranceRecord(**fields)


def reasons_of(record, cfg=None):
    return run_chain(record, cfg or config()).reasons


def test_clean_record_passes():
    verdict = run_chain(make_record(), config())
    assert verdict.passed
    assert verdict.reasons == ()


def test_confidence_strictly_exceeds():
    cfg = config()
    assert "low_confidence" in reasons_of(make_record(confidence=0.3), cfg)
    assert "low_confidence" in reasons_of(make_record(confidence=0.29), cfg)
    assert "low_confidence" not in reasons_of(
        make_record(confidence=0.31), cfg)


def test_duration_bounds_inclusive():
    cfg = config()
    ok = lambda d: "too_short" not in reasons_of(
        make_record(duration_s=d), cfg) and "too_long" not in reasons_of(
        make_record(duration_s=d), cfg)
    assert ok(0.5)
    assert ok(30.0)
    assert "too_short" in reasons_of(make_record(duration_s=0.499), cfg)
    assert "too_long" in reasons_of(make_record(duration_s=30.001), cfg)


def test_gap_strictly_greater_than_limit():
    cfg = config()
    words = (WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.95),
             WordSpan(word="b", start_s=5.0, end_s=6.0, score=0.95))
    at_limit = make_record(duration_s=6.0, words=words, confidence=0.95)
    assert "long_gap" not in reasons_of(at_limit, cfg)
    words = (WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.95),
             WordSpan(word="b", start_s=5.01, end_s=6.0, score=0.95))
    over = make_record(duration_s=6.0, words=words, confidence=0.95)
    assert "long_gap" in reasons_of(over, cfg)


def test_leading_and_trailing_gaps_count():
    cfg = config()
    words = (WordSpan(word="a", start_s=4.5, end_s=5.5, score=0.95),)
    leading = make_record(duration_s=6.0, words=words, confidence=0.95)
    assert "long_gap" in reasons_of(leading, cfg)
    words = (WordSpan(word="a", start_s=0.0, end_s=1.0, score=0.95),)
    trailing = make_record(duration_s=5.5, words=words, confidence=0.95)
    assert "long_gap" in reasons_of(trailing, cfg)


def test_empty_words_is_one_whole_gap():
    cfg = config()
    record = make_record(duration_s=5.0, confidence=0.95, words=())
    assert "long_gap" in reasons_of(record, cfg)
    short = make_record(duration_s=3.0, confidence=0.95, words=())
    assert "long_gap" not in reasons_of(short, cfg)


def test_rate_bounds_inclusive():
    cfg = config()
    # en profile allows 2..28 chars per second
    text_8 = "abcd efgh"  # 8 non-space chars
    slow = make_record(duration_s=4.0, raw_text=text_8,
                       normalized_text=text_8)
    assert "rate_low" not in reasons_of(slow, cfg)
    slower = make_record(duration_s=4.5, raw_text=text_8,
                         normalized_text=text_8)
    assert "rate_low" in reasons_of(slower, cfg)
    fast_text = "a" * 56
    fast = make_record(duration_s=2.0, raw_text=fast_text,
                       normalized_text=fast_text)
    assert "rate_high" not in reasons_of(fast, cfg)
    faster = make_record(duration_s=1.9, raw_text=fast_text,
                         normalized_text=fast_text)
    assert "rate_high" in reasons_of(faster, cfg)


def test_charset_checked_on_raw_text():
    cfg = config()
    record = make_record(raw_text="hello \U0001F600 there friend okay",
                         normalized_text="hello there friend okay")
    assert "bad_charset" in reasons_of(record, cfg)


def test_symbol_fraction_must_be_a_fraction():
    # Out of range, the charset check would reject clean text.
    for bad in (-1.0, 1.5, float("nan")):
        with pytest.raises(QualityError) as err:
            config(max_symbol_fraction=bad)
        assert err.value.key == "max_symbol_fraction"
    clean = make_record(raw_text="hello world", normalized_text="hello world")
    for edge in (0.0, 1.0):
        assert reasons_of(clean, config(max_symbol_fraction=edge)) == ()


def test_gap_limit_must_be_finite_and_positive():
    # NaN compares false, so it would turn the gap check off.
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(QualityError) as err:
            config(max_gap_s=bad)
        assert err.value.key == "max_gap_s"


def test_range_errors_name_the_setting():
    cases = [
        (dict(default_confidence_threshold=1.5), "threshold.default"),
        (dict(thresholds_by_source={"web": -0.1}), "threshold.source.web"),
        (dict(thresholds_by_language={"zh": 2.0}), "threshold.language.zh"),
        (dict(thresholds_by_source_language={("web", "zh"): 2.0}),
         "threshold.pair.web.zh"),
        (dict(min_duration_s=0.0), "min_duration_s"),
        (dict(min_duration_s=40.0), "min_duration_s"),
        (dict(max_duration_s=0.2), "max_duration_s"),
    ]
    for kwargs, key in cases:
        with pytest.raises(QualityError) as err:
            config(**kwargs)
        assert err.value.key == key, kwargs


def test_unknown_language():
    cfg = config()
    record = make_record(language="xx")
    got = reasons_of(record, cfg)
    assert "bad_language" in got


def test_reasons_accumulate_in_canonical_order():
    cfg = config()
    # unknown language: charset cannot be judged without a profile
    record = make_record(language="xx", duration_s=0.2, confidence=0.1,
                         raw_text="\U0001F600 ok", normalized_text="ok")
    assert reasons_of(record, cfg) == ("low_confidence", "too_short",
                                       "bad_language")
    # known language: charset fires alongside the others
    record = make_record(language="en", duration_s=0.2, confidence=0.1,
                         raw_text="\U0001F600 ok", normalized_text="ok")
    got = reasons_of(record, cfg)
    assert got == ("low_confidence", "too_short", "bad_charset")
    assert list(got) == sorted(
        got, key=("low_confidence", "too_short", "too_long", "long_gap",
                  "rate_low", "rate_high", "bad_charset",
                  "bad_language").index)


def test_a_record_that_trips_every_fragment_lists_reasons_in_order():
    # Low confidence, too long, one word then a long gap, a rate far below
    # the profile's and an emoji: each of the five fragments fires once.
    record = make_record(duration_s=40.0, confidence=0.1,
                         raw_text="\U0001F600 ok", normalized_text="ok",
                         words=(WordSpan("ok", 0.0, 1.0, 0.1),))
    verdict = run_chain(record, config())
    assert verdict.reasons == ("low_confidence", "too_long", "long_gap",
                               "rate_low", "bad_charset")
    assert list(verdict.reasons) == sorted(verdict.reasons, key=REASON_ORDER.index)
    assert not verdict.passed
    # passed is worked out from the reasons, so the two cannot disagree.
    assert FilterVerdict("k", ()).passed
    assert not FilterVerdict("k", ("too_long",)).passed


def test_threshold_fallback_chain():
    cfg = config(
        default_confidence_threshold=0.3,
        thresholds_by_source_language={("cv", "de"): 0.8},
        thresholds_by_source={"cv": 0.6},
        thresholds_by_language={"de": 0.5},
    )
    assert cfg.confidence_threshold("cv", "de") == 0.8
    assert cfg.confidence_threshold("cv", "en") == 0.6
    assert cfg.confidence_threshold("other", "de") == 0.5
    assert cfg.confidence_threshold("other", "en") == 0.3

    record = make_record(language="de", source="cv", confidence=0.7,
                         raw_text="sieben worte sind hier schon genug text",
                         normalized_text="sieben worte sind hier schon "
                                         "genug text")
    assert "low_confidence" in reasons_of(record, cfg)
    assert "low_confidence" not in reasons_of(
        make_record(language="de", source="other", confidence=0.7), cfg)


def test_missing_confidence_is_an_error_not_a_fail():
    record = make_record(confidence=None)
    with pytest.raises(MissingConfidenceError):
        run_chain(record, config())


def ratio_record(i, ratio, language="en", duration_s=2.0):
    n_chars = round(ratio * duration_s)
    text = ("x" * n_chars) if n_chars else "x"
    return make_record(key=f"r{i}", language=language,
                       duration_s=duration_s, raw_text=text,
                       normalized_text=text, confidence=0.95,
                       words=(WordSpan(word=text, start_s=0.0,
                                       end_s=duration_s, score=0.95),))


def test_fit_ratio_bounds_first_percentile_of_1_to_100():
    records = [ratio_record(i, ratio, duration_s=1.0)
               for i, ratio in enumerate(range(1, 101))]
    low, high = fit_ratio_bounds(records, "en", percentile=1.0)
    assert (low, high) == (1.0, 100.0)


def test_fit_ratio_bounds_wider_percentile():
    records = [ratio_record(i, ratio, duration_s=1.0)
               for i, ratio in enumerate(range(1, 101))]
    low, high = fit_ratio_bounds(records, "en", percentile=10.0)
    assert (low, high) == (10.0, 91.0)


def test_fit_ratio_bounds_all_equal():
    records = [ratio_record(i, 10, duration_s=1.0) for i in range(30)]
    low, high = fit_ratio_bounds(records, "en", percentile=5.0)
    assert low == high == 10.0


def test_fit_ratio_bounds_needs_twenty_records():
    records = [ratio_record(i, i + 1, duration_s=1.0) for i in range(19)]
    with pytest.raises(InsufficientDataError):
        fit_ratio_bounds(records, "en", percentile=1.0)


def test_fit_ratio_bounds_filters_by_language():
    records = [ratio_record(i, ratio, duration_s=1.0)
               for i, ratio in enumerate(range(1, 101))]
    records.append(ratio_record(999, 1000, language="zh", duration_s=1.0))
    low, high = fit_ratio_bounds(records, "en", percentile=1.0)
    assert high == 100.0


def test_fit_ratio_bounds_percentile_range():
    records = [ratio_record(i, i + 1, duration_s=1.0) for i in range(40)]
    with pytest.raises(ValueError):
        fit_ratio_bounds(records, "en", percentile=0.0)
    with pytest.raises(ValueError):
        fit_ratio_bounds(records, "en", percentile=50.0)
