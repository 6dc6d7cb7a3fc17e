import numpy as np
import pytest

from voxkit import (
    CurationError,
    EvalCriteria,
    UtteranceRecord,
    WordSpan,
    char_ratio,
    compute_stats,
    count_words,
    eligible,
    render_stats_table,
    select_eval,
    stats_from_totals,
    stats_to_json_dict,
    trim_trailing_silence,
)


def words_spanning(n, duration_s, score=0.95, end_at=None):
    end = end_at if end_at is not None else duration_s
    step = end / n
    return tuple(WordSpan(word=f"w{i}", start_s=round(i * step, 3),
                          end_s=round((i + 1) * step, 3), score=score)
                 for i in range(n))


def make_record(key="utt1", language="en", duration_s=8.0, n_words=8,
                confidence=0.95, text=None, **kwargs):
    words = kwargs.pop("words", words_spanning(n_words, duration_s,
                                               score=confidence))
    if text is None:
        text = " ".join(w.word for w in words)
    return UtteranceRecord(
        key=key, language=language, audio_ref=f"a/{key}.wav",
        duration_s=duration_s, raw_text=text, normalized_text=text,
        words=words, avg_confidence=confidence, **kwargs)


# ------------------------------------------------------------------ trim

def test_trim_caps_after_last_word():
    record = make_record(duration_s=10.0,
                         words=words_spanning(4, 10.0, end_at=6.0))
    trimmed, instruction = trim_trailing_silence(record)
    assert trimmed.duration_s == pytest.approx(6.2)
    assert instruction.old_duration_s == 10.0
    assert instruction.new_duration_s == pytest.approx(6.2)


def test_trim_leaves_tight_records_alone():
    record = make_record(duration_s=4.1,
                         words=words_spanning(4, 4.1, end_at=4.0))
    trimmed, instruction = trim_trailing_silence(record)
    assert instruction is None
    assert trimmed is record


def test_trim_requires_words():
    record = make_record(words=(), confidence=None)
    with pytest.raises(CurationError):
        trim_trailing_silence(record)


# ------------------------------------------------------------- eligibility

def test_eligibility_boundaries():
    ok = make_record(duration_s=8.0, n_words=6, confidence=0.91)
    assert eligible(ok)

    at_score = make_record(confidence=0.9)
    assert not eligible(at_score)
    assert eligible(at_score).reason == "low_score"

    five_words = make_record(n_words=5)
    assert not eligible(five_words)
    assert eligible(five_words).reason == "few_words"

    assert eligible(make_record(duration_s=3.0, n_words=6))
    assert eligible(make_record(duration_s=15.0, n_words=6))
    assert eligible(make_record(duration_s=2.999, n_words=6)).reason == "duration"
    assert eligible(make_record(duration_s=15.001, n_words=6)).reason == "duration"


def test_eligibility_requires_alignment():
    record = make_record(words=(), confidence=None)
    with pytest.raises(CurationError):
        eligible(record)


# --------------------------------------------------------------- selection

def pool_record(i, ratio, duration_s=5.0):
    n_chars = max(6, round(ratio * duration_s))
    word_len = n_chars // 6
    text = " ".join("x" * word_len for _ in range(6))
    return make_record(key=f"p{i:04d}", duration_s=duration_s, text=text,
                       words=words_spanning(6, duration_s), confidence=0.95)


def test_select_eval_prefers_typical_rates():
    records = [pool_record(i, ratio)
               for i, ratio in enumerate([4, 5, 6, 7, 8, 20])]
    criteria = EvalCriteria(target_per_language=3)
    chosen = select_eval(records, criteria)
    ratios = {r.key: char_ratio(r.normalized_text, r.duration_s)
              for r in records}
    mean = sum(ratios.values()) / len(ratios)
    chosen_dist = max(abs(ratios[r.key] - mean) for r in chosen)
    rest = [r for r in records if r not in chosen]
    rest_dist = min(abs(ratios[r.key] - mean) for r in rest)
    assert chosen_dist <= rest_dist
    assert len(chosen) == 3
    assert [r.key for r in chosen] == sorted(r.key for r in chosen)


def test_select_eval_is_permutation_invariant():
    rng = np.random.default_rng(11)
    records = [pool_record(i, float(rng.uniform(3, 10))) for i in range(40)]
    criteria = EvalCriteria(target_per_language=10)
    baseline = [r.key for r in select_eval(records, criteria)]
    for _ in range(5):
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert [r.key for r in select_eval(shuffled, criteria)] == baseline


def test_select_eval_caps_at_target():
    records = [pool_record(i, 5.0 + i * 0.01) for i in range(30)]
    chosen = select_eval(records, EvalCriteria(target_per_language=500))
    assert len(chosen) == 30


def test_select_eval_rejects_ineligible_input():
    bad = make_record(confidence=0.5)
    with pytest.raises(CurationError):
        select_eval([bad])


# ----------------------------------------------------------------- stats

def test_word_counting_rules():
    en = make_record(text="three little words",
                     words=words_spanning(3, 8.0))
    assert count_words(en) == 3
    zh = make_record(language="zh", text="你好世界",
                     words=words_spanning(1, 8.0))
    assert count_words(zh) == 4
    zh_punct = make_record(language="zh", text="你好，世界。",
                           words=words_spanning(1, 8.0))
    assert count_words(zh_punct) == 4


def test_compute_stats_self_consistency():
    records = [
        make_record(key="a", language="en", duration_s=4.0,
                    text="one two three", words=words_spanning(3, 4.0)),
        make_record(key="b", language="en", duration_s=6.0,
                    text="four five", words=words_spanning(2, 6.0)),
        make_record(key="c", language="zh", duration_s=5.0, text="你好世界",
                    words=words_spanning(1, 5.0)),
    ]
    stats = compute_stats(records)
    by_lang = {row.language: row for row in stats.rows}
    assert by_lang["en"].utterances == 2
    assert by_lang["en"].total_words == 5
    assert by_lang["en"].total_duration_s == pytest.approx(10.0)
    assert by_lang["en"].avg_words == pytest.approx(2.5)
    assert by_lang["en"].avg_duration_s == pytest.approx(5.0)
    assert by_lang["zh"].total_words == 4
    assert stats.total.utterances == 3
    assert stats.total.total_words == 9
    assert stats.total.total_duration_s == pytest.approx(15.0)


def test_stats_rows_sorted_by_duration_then_language():
    records = [
        make_record(key="a", language="zh", duration_s=9.0, text="你好",
                    words=words_spanning(1, 9.0)),
        make_record(key="b", language="en", duration_s=3.0,
                    text="hi there", words=words_spanning(2, 3.0)),
        make_record(key="c", language="de", duration_s=3.0,
                    text="hallo welt", words=words_spanning(2, 3.0)),
    ]
    stats = compute_stats(records)
    assert [row.language for row in stats.rows] == ["de", "en", "zh"]


def test_stats_from_totals():
    row = stats_from_totals("zh", utterances=500,
                            total_duration_s=75.84 * 60.0,
                            total_words=18627)
    assert row.avg_words == pytest.approx(37.25, abs=0.01)
    assert row.avg_duration_s == pytest.approx(9.10, abs=0.01)


def test_stats_render_and_json():
    records = [make_record(key="a", duration_s=4.0, text="one two",
                           words=words_spanning(2, 4.0))]
    stats = compute_stats(records)
    table = render_stats_table(stats)
    assert "en" in table and "total" in table
    payload = stats_to_json_dict(stats)
    assert payload["total"]["utterances"] == 1
    assert payload["languages"][0]["language"] == "en"


def test_stats_empty_input():
    stats = compute_stats([])
    assert stats.rows == ()
    assert stats.total.utterances == 0
    total = stats_to_json_dict(stats)["total"]
    assert type(total["total_duration_s"]) is float
