import pytest

from voxkit.textnorm.numbers import (
    MAX_COMPOSED,
    NumberExpansionError,
    digits_to_words,
    number_to_words,
)
from voxkit.textnorm.profiles import SUPPORTED_LANGUAGES

# Hand-checked renderings; every entry is standard orthography minus
# punctuation (hyphens drop out downstream anyway).
SPOT_VALUES = [
    ("en", 0, "zero"),
    ("en", 21, "twenty one"),
    ("en", 105, "one hundred five"),
    ("en", 2024, "two thousand twenty four"),
    ("en", 999999, "nine hundred ninety nine thousand nine hundred ninety nine"),
    ("de", 1, "eins"),
    ("de", 21, "einundzwanzig"),
    ("de", 231, "zweihunderteinunddreißig"),
    ("de", 1001, "eintausendeins"),
    ("fr", 21, "vingt et un"),
    ("fr", 71, "soixante et onze"),
    ("fr", 72, "soixante douze"),
    ("fr", 80, "quatre vingts"),
    ("fr", 81, "quatre vingt un"),
    ("fr", 91, "quatre vingt onze"),
    ("fr", 200, "deux cents"),
    ("fr", 201, "deux cent un"),
    ("fr", 1980, "mille neuf cent quatre vingts"),
    ("es", 16, "dieciséis"),
    ("es", 23, "veintitrés"),
    ("es", 31, "treinta y uno"),
    ("es", 101, "ciento uno"),
    ("es", 500, "quinientos"),
    ("es", 21000, "veintiún mil"),
    ("es", 31000, "treinta y un mil"),
    ("pt", 16, "dezesseis"),
    ("pt", 101, "cento e um"),
    ("pt", 1100, "mil e cem"),
    ("pt", 2024, "dois mil e vinte e quatro"),
    ("it", 21, "ventuno"),
    ("it", 28, "ventotto"),
    ("it", 108, "centotto"),
    ("it", 180, "centottanta"),
    ("it", 2024, "duemilaventiquattro"),
    ("ru", 21, "двадцать один"),
    ("ru", 1000, "одна тысяча"),
    ("ru", 2000, "две тысячи"),
    ("ru", 5000, "пять тысяч"),
    ("ru", 11000, "одиннадцать тысяч"),
    ("ru", 21000, "двадцать одна тысяча"),
    ("zh", 0, "零"),
    ("zh", 11, "十一"),
    ("zh", 105, "一百零五"),
    ("zh", 110, "一百一十"),
    ("zh", 2024, "二千零二十四"),
    ("zh", 10000, "一万"),
    ("zh", 100005, "十万零五"),
    ("id", 10, "sepuluh"),
    ("id", 11, "sebelas"),
    ("id", 15, "lima belas"),
    ("id", 1100, "seribu seratus"),
    ("vi", 10, "mười"),
    ("vi", 15, "mười lăm"),
    ("vi", 21, "hai mươi mốt"),
    ("vi", 25, "hai mươi lăm"),
    ("vi", 101, "một trăm lẻ một"),
    ("vi", 2024, "hai nghìn không trăm hai mươi bốn"),
]


@pytest.mark.parametrize("language,value,expected", SPOT_VALUES)
def test_spot_values(language, value, expected):
    assert number_to_words(value, language) == expected


def test_all_profile_languages_covered():
    assert set(SUPPORTED_LANGUAGES) == {"de", "en", "es", "fr", "id", "it",
                                        "pt", "ru", "vi", "zh"}
    for lang in SUPPORTED_LANGUAGES:
        for n in (0, 1, 7, 19, 60, 99, 100, 847, 1000, 123456, MAX_COMPOSED):
            words = number_to_words(n, lang)
            assert words.strip() == words and words


def test_fallback_above_composed_limit():
    assert number_to_words(1000000, "en") == "one zero zero zero zero zero zero"
    assert number_to_words(MAX_COMPOSED + 1, "zh") == "一零零零零零零"


def test_digit_strings():
    assert digits_to_words("007", "en") == "zero zero seven"
    assert digits_to_words("42", "zh") == "四二"
    with pytest.raises(NumberExpansionError):
        digits_to_words("4a", "en")


def test_errors():
    with pytest.raises(NumberExpansionError):
        number_to_words(-1, "en")
    with pytest.raises(NumberExpansionError):
        number_to_words(5, "xx")
