import re

import pytest

from voxkit import UnmappableCharacterError, romanize

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

