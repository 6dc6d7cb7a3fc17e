import re
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxkit import (
    CharsetVerdict,
    EmptyTextError,
    PauseTagging,
    WordSpan,
    char_ratio,
    load_profile,
    load_profiles,
    normalize,
    pause_tags,
    validate_charset,
)
from voxkit.textnorm import ProfileError, parse_profile
from voxkit.textnorm.core import _expand_number_run


@pytest.fixture(scope="module")
def profiles():
    return load_profiles()


def test_normalize_examples(profiles):
    en = profiles["en"]
    assert normalize("Hello,  world!!", en) == "hello, world!"
    assert normalize("I have 2 cats", en) == "i have two cats"
    assert normalize("TABS\tand\nnewlines", en) == "tabs and newlines"
    assert normalize("  spaced  out  ", en) == "spaced out"


def test_normalize_number_runs(profiles):
    en = profiles["en"]
    assert normalize("room 101", en) == "room one hundred one"
    assert normalize("agent 007", en) == "agent zero zero seven"
    zh = profiles["zh"]
    assert normalize("我有2只猫", zh) == "我有二只猫"
    assert normalize("第42章", zh) == "第四二章" or \
        normalize("第42章", zh) == "第四十二章"


def test_normalize_strips_symbols_and_emoji(profiles):
    en = profiles["en"]
    assert normalize("nice \U0001F600 day", en) == "nice day"
    assert normalize("a + b = c", en) == "a b c"
    assert normalize("100%", en) == "one hundred"


def test_normalize_collapses_repeated_punctuation(profiles):
    en = profiles["en"]
    assert normalize("Wait... what??", en) == "wait. what?"


def test_normalize_folds_fullwidth_forms(profiles):
    zh = profiles["zh"]
    assert normalize("ＡＢＣ１", zh) == "abc一"


def test_normalize_empty_result_raises(profiles):
    with pytest.raises(EmptyTextError):
        normalize("~~~", profiles["en"])
    with pytest.raises(EmptyTextError):
        normalize("   ", profiles["en"])
    with pytest.raises(EmptyTextError):
        normalize("\U0001F600\U0001F600", profiles["en"])


def test_normalize_is_idempotent(profiles):
    samples = {
        "en": ["Hello,  world!!", "I have 2 cats", "Dr. Smith's 3rd try...",
               "A+B, c; d: e!"],
        "de": ["Straße 12, München!", "Zählung: 101 Dinge"],
        "fr": ["L'été a commencé, déjà 30 jours«»"],
        "es": ["¡Hola! ¿Qué tal? 15 cosas"],
        "ru": ["Привет, мир! 21 век"],
        "zh": ["你好，世界！共2024年"],
        "vi": ["Xin chào, 15 người!"],
    }
    for lang, texts in samples.items():
        profile = profiles[lang]
        for text in texts:
            once = normalize(text, profile)
            assert normalize(once, profile) == once


def test_charset_accepts_clean_text(profiles):
    assert validate_charset("hello, world!", profiles["en"]).ok
    assert validate_charset("你好，世界。", profiles["zh"]).ok
    assert validate_charset("привет, мир!", profiles["ru"]).ok


def test_charset_rejects_foreign_script(profiles):
    verdict = validate_charset("hello мир", profiles["en"])
    assert not verdict.ok
    assert verdict.reason == "disallowed_characters"
    assert "м" in verdict.offending


def test_charset_rejects_emoji_and_symbols(profiles):
    verdict = validate_charset("great \U0001F600", profiles["en"])
    assert not verdict.ok
    assert verdict.reason == "disallowed_characters"
    verdict = validate_charset("price 5€", profiles["en"])
    assert not verdict.ok


def test_charset_symbol_fraction_gate(profiles):
    en = profiles["en"]
    # 3 stray @ marks out of 15 non-space chars is over 10%
    verdict = validate_charset("abc@def@ghi@jkl", en, max_symbol_fraction=0.1)
    assert not verdict.ok
    assert verdict.reason == "excessive_symbols"
    assert validate_charset("abc@def@ghi@jkl", en,
                            max_symbol_fraction=0.5).ok
    # whitelisted punctuation never counts against the budget
    assert validate_charset("a, b, c, d, e!", en, max_symbol_fraction=0.0).ok


def _plain_validate_charset(text, profile, max_symbol_fraction):
    """validate_charset as a direct loop over the text, with no memo."""
    hard, soft, total = set(), [], 0
    for ch in text:
        if ch.isspace():
            continue
        total += 1
        cat = unicodedata.category(ch)[0]
        if cat in ("S", "C"):
            hard.add(ch)
        elif cat == "P":
            if ch not in profile.punctuation:
                soft.append(ch)
        elif not any(lo <= ord(ch) <= hi for lo, hi in profile.ranges):
            hard.add(ch)
    if hard:
        return CharsetVerdict(False, tuple(sorted(hard)), "disallowed_characters")
    if total and len(soft) / total > max_symbol_fraction:
        return CharsetVerdict(False, tuple(sorted(set(soft))), "excessive_symbols")
    return CharsetVerdict(True)


def _en_profile(ranges, punctuation):
    return parse_profile(f"language = en\nrules = en\nmin_ratio = 1.0\n"
                         f"max_ratio = 30.0\nranges = {ranges}\n"
                         f"punctuation = {punctuation}\n")


# Profiles for one language that differ in ranges or punctuation, plus a
# ratio-bounds copy, shared by every example so their memos fill up together.
_LATIN = _en_profile("0061-007A 00C0-00FF", ". , ! ?")
_CYRILLIC = _en_profile("0061-007A 0430-044F", "- ; : ?")
_LATIN_OTHER_PUNCT = _en_profile("0061-007A 00C0-00FF", "@ # - «")
_LATIN_COPY = _LATIN.with_ratio_bounds(2.0, 20.0)

_MIXED_CHARS = list("aZzéÿßмЖя你好\U0001F600€@#.,!?;:-«»—…  \t\n\u3000\u00a0\x00\x7f\u200b")
_MIXED_TEXT = st.text(st.sampled_from(_MIXED_CHARS)
                      | st.characters(blacklist_categories=("Cs",)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(text=_MIXED_TEXT, fraction=st.sampled_from([0.0, 0.1, 0.5]))
def test_charset_memo_matches_plain_loop(text, fraction):
    for profile in (_LATIN, _CYRILLIC, _LATIN_COPY, _LATIN_OTHER_PUNCT, _LATIN):
        assert (validate_charset(text, profile, fraction)
                == _plain_validate_charset(text, profile, fraction))


def test_charset_memo_belongs_to_one_profile():
    first = _en_profile("0061-007A", ".")
    copy = first.with_ratio_bounds(2.0, 20.0)
    other = _en_profile("0430-044F", ".")
    assert validate_charset("ab мя", first).reason == "disallowed_characters"
    assert validate_charset("ab мя", other).reason == "disallowed_characters"
    assert validate_charset("мя", other).ok
    assert set(first._char_classes) == set("ab мя")
    assert copy._char_classes == {}
    assert validate_charset("ab", copy).ok


def _plain_normalize(text, profile):
    """normalize with its character filter as a loop, with no translate table."""
    out = re.sub(r"[0-9]+", lambda m: f" {_expand_number_run(m.group(), 'en')} ",
                 unicodedata.normalize("NFKC", text).lower())
    kept = []
    for ch in out:
        cat = unicodedata.category(ch)[0]
        if ch.isspace():
            kept.append(" ")
        elif cat in "LMN" or (cat == "P" and ch in profile.punctuation):
            kept.append(ch)
    out = " ".join(re.sub(r"([^\w\s])\1+", r"\1", "".join(kept)).split())
    if not out:
        raise EmptyTextError("text is empty after normalization")
    return out


def _outcome(fn, *args):
    """The result of a call, or its error's type and text."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# Every profile here spells numbers in English.
@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(_MIXED_CHARS + list("ＡＢ！。'’07¼٣"))
                    | st.characters(blacklist_categories=("Cs",)), max_size=40))
def test_normalize_matches_plain_loop(text):
    for profile in (_LATIN, _CYRILLIC, _LATIN_COPY, _LATIN_OTHER_PUNCT, _LATIN):
        assert _outcome(normalize, text, profile) == _outcome(_plain_normalize, text, profile)


def test_normalize_memo_belongs_to_one_profile():
    first = _en_profile("0061-007A", ". !")
    copy = first.with_ratio_bounds(2.0, 20.0)
    other = _en_profile("0061-007A", "?")
    assert normalize("a! b? c", first) == "a! b c"
    assert normalize("a! b? c", other) == "a b? c"
    assert set(first._kept_chars) == set(map(ord, "a! b?c"))
    assert copy._kept_chars == {}
    assert normalize("a! b? c", copy) == "a! b c"


@settings(max_examples=200, deadline=None)
@given(text=_MIXED_TEXT)
def test_char_ratio_matches_plain_count(text):
    assert char_ratio(text, 2.5) == sum(1 for ch in text if not ch.isspace()) / 2.5


def test_char_ratio():
    assert char_ratio("hello world", 2.0) == 5.0
    assert char_ratio("你好", 1.0) == 2.0
    with pytest.raises(ValueError):
        char_ratio("x", 0.0)


def make_words(*bounds):
    return [WordSpan(word=f"w{i}", start_s=a, end_s=b, score=0.9)
            for i, (a, b) in enumerate(bounds)]


def test_pause_tags_thresholds():
    tagging = PauseTagging()
    assert tagging.tag_for_gap(0.1) is None
    assert tagging.tag_for_gap(0.15) == "#1"
    assert tagging.tag_for_gap(0.39) == "#1"
    assert tagging.tag_for_gap(0.40) == "#2"
    assert tagging.tag_for_gap(0.5) == "#2"
    assert tagging.tag_for_gap(0.80) == "#3"
    assert tagging.tag_for_gap(1.99) == "#3"
    assert tagging.tag_for_gap(2.0) == "#4"
    assert tagging.tag_for_gap(5.0) == "#4"


def test_pause_tags_interleave():
    words = make_words((0.0, 1.0), (1.5, 2.0), (2.05, 3.0), (7.0, 8.0))
    assert pause_tags(words) == ["w0", "#2", "w1", "w2", "#4", "w3"]


def test_pause_tags_rejects_out_of_order():
    words = make_words((1.0, 2.0), (0.5, 0.9))
    with pytest.raises(ValueError):
        pause_tags(words)


def test_pause_tagging_validates_thresholds():
    with pytest.raises(ValueError):
        PauseTagging(thresholds=(0.4, 0.15, 0.8, 2.0))
    with pytest.raises(ValueError):
        PauseTagging(thresholds=(-0.1, 0.4, 0.8, 2.0))


def test_profile_parser_errors(tmp_path):
    good = tmp_path / "en.profile"
    good.write_text("language = en\nrules = en\nmin_ratio = 2.0\n"
                    "max_ratio = 28.0\nranges = 0061-007A\n"
                    "punctuation = . ,\n", encoding="utf-8")
    profile = parse_profile(good.read_text(encoding="utf-8"), origin=str(good))
    assert profile.language == "en"
    assert profile.allows("a")
    assert not profile.allows("A")

    with pytest.raises(ProfileError):
        parse_profile("language = en\nbogus = 1\n", origin="inline")
    with pytest.raises(ProfileError):
        parse_profile("language = en\nlanguage = de\n", origin="inline")


def test_profile_env_override(tmp_path, monkeypatch):
    custom = tmp_path / "profiles"
    custom.mkdir()
    (custom / "en.profile").write_text(
        "language = en\nrules = en\nmin_ratio = 1.0\nmax_ratio = 5.0\n"
        "ranges = 0061-007A\npunctuation = .\n", encoding="utf-8")
    (custom / "notes.txt").write_text("not a profile\n", encoding="utf-8")
    monkeypatch.setenv("VOXKIT_PROFILES", str(custom))
    profile = load_profile("en")
    assert profile.max_ratio == 5.0
    # The directory's profiles are the language set, however few.
    assert list(load_profiles()) == ["en"]
    assert load_profiles()["en"].max_ratio == 5.0
    with pytest.raises(ProfileError, match="no profile for language 'de'"):
        load_profiles(("en", "de"))


def test_profile_directory_missing_or_empty(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ProfileError, match="holds no"):
        load_profiles(profiles_dir=empty)
    not_a_dir = tmp_path / "en.profile"
    not_a_dir.write_text("language = en\n", encoding="utf-8")
    for missing in (tmp_path / "nowhere", not_a_dir):
        with pytest.raises(ProfileError, match="no profile directory"):
            load_profiles(profiles_dir=missing)
        with pytest.raises(ProfileError, match="no profile directory"):
            load_profile("en", missing)


def test_bundled_profiles_cover_ten_languages(profiles):
    assert sorted(profiles) == ["de", "en", "es", "fr", "id", "it", "pt",
                                "ru", "vi", "zh"]
    for profile in profiles.values():
        assert 0 < profile.min_ratio < profile.max_ratio
