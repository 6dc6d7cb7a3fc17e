import re
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from voxkit import UnmappableCharacterError, romanize
from voxkit.textnorm.romanize import _map_char, _tables, is_cjk

TOKEN = re.compile(r"^[a-z']+$")


def test_latin_passthrough():
    assert romanize("hello world", "en") == ["hello", "world"]
    assert romanize("Hello World", "en") == ["hello", "world"]


def test_latin_diacritics_fold():
    assert romanize("déjà vu", "fr") == ["deja", "vu"]
    assert romanize("über straße", "de") == ["uber", "strasse"]
    assert romanize("ação", "pt") == ["acao"]
    assert romanize("mañana", "es") == ["manana"]
    assert romanize("Việt Nam", "vi") == ["viet", "nam"]


def test_apostrophes_bind_into_tokens():
    assert romanize("l'été", "fr") == ["l'ete"]
    assert romanize("don’t", "en") == ["don't"]
    # edge apostrophes strip
    assert romanize("'quote'", "en") == ["quote"]


def test_cyrillic_table():
    assert romanize("привет мир", "ru") == ["privet", "mir"]
    assert romanize("Москва", "ru") == ["moskva"]
    assert romanize("щука", "ru") == ["shchuka"]
    # hard and soft signs vanish
    assert romanize("объект", "ru") == ["obekt"]


def test_cjk_table():
    assert romanize("你好", "zh") == ["nihao"]
    assert romanize("你好 世界", "zh") == ["nihao", "shijie"]
    assert romanize("你好", "zh", split_zh_chars=True) == ["ni", "hao"]
    # umlaut readings fold to plain vowels
    assert romanize("女", "zh") == ["nu"]


def test_punctuation_and_digits_drop():
    assert romanize("hello, world!", "en") == ["hello", "world"]
    assert romanize("你好，世界。", "zh") == ["nihao", "shijie"]


def test_output_token_charset_property():
    texts = [
        ("en", "The quick brown fox jumps over the lazy dog"),
        ("de", "Zwölf Boxkämpfer jagen Viktor über den Sylter Deich"),
        ("fr", "Portez ce vieux whisky au juge blond qui fume"),
        ("ru", "Съешь же ещё этих мягких французских булок"),
        ("zh", "我 有 猫 和 狗"),
        ("vi", "Xin chào thế giới hôm nay"),
    ]
    for lang, text in texts:
        for token in romanize(text, lang):
            assert TOKEN.match(token), (lang, token)


def test_unknown_cjk_char_raises():
    with pytest.raises(UnmappableCharacterError) as err:
        romanize("龤", "zh")
    assert "9FA4" in str(err.value).upper()


def test_unknown_letter_raises():
    # Greek letters are outside every transliteration table
    with pytest.raises(UnmappableCharacterError):
        romanize("αβγ", "en")



def _plain_romanize(text, language, split_zh_chars=False):
    """romanize as a loop over the characters, with no translate table."""
    groups, current = [], []
    for ch in text.lower():
        if ch in "'’ʼ":
            current.append("'")
        elif ch.isspace() or unicodedata.category(ch)[0] in "PSZC":
            if current:
                groups.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        groups.append("".join(current))
    pieces = []
    for group in groups:
        if language == "zh" and split_zh_chars:
            run = []
            for ch in group:
                if is_cjk(ch):
                    if run:
                        pieces.append("".join(run))
                    run = []
                    pieces.append(ch)
                else:
                    run.append(ch)
            if run:
                pieces.append("".join(run))
        else:
            pieces.append(group)
    tokens = []
    for piece in pieces:
        mapped = "".join(_map_char(ch, language, _tables()) for ch in piece).strip("'")
        if not mapped:
            continue
        if not TOKEN.match(mapped):
            raise UnmappableCharacterError(piece[0], language)
        tokens.append(mapped)
    return tokens


def _outcome(fn, *args, **kwargs):
    """The result of a call, or its error's type and text."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


# Characters of every class romanize tells apart: table letters (one of
# them, 龤, in no table), letters that fold or do not, apostrophes, marks,
# digits, punctuation, symbols, separators, controls and spaces.
_ROMANIZE_CHARS = list("abzABÉéßøłıİ'’ʼмЖёъ你好龤々ǅαΩ\u0301\u0308"
                       "0٣.,!?-—«»$€+\U0001F600 \t\n\u3000\u00a0\u2028\x00\x85\u200b")
_ROMANIZE_TEXT = st.text(st.sampled_from(_ROMANIZE_CHARS) | st.characters(), max_size=30)


@settings(max_examples=400, deadline=None)
@given(text=_ROMANIZE_TEXT, language=st.sampled_from(["en", "zh", "ru"]),
       split_zh_chars=st.booleans())
def test_romanize_matches_plain_loop(text, language, split_zh_chars):
    assert (_outcome(romanize, text, language, split_zh_chars=split_zh_chars)
            == _outcome(_plain_romanize, text, language, split_zh_chars))


def test_unmappable_error_names_each_language():
    # An unmappable character is never stored, so every call refuses it
    # with the language of that call.
    for language in ("en", "ru", "en"):
        with pytest.raises(UnmappableCharacterError, match=f"for language '{language}'"):
            romanize("aα", language)
