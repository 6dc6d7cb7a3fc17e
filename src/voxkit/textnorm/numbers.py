"""Cardinal number spelling for the ten supported languages.

Each language renders integers 0..999,999 with its own composition rules;
anything larger falls back to digit-by-digit reading. Outputs use each
language's orthography but never hyphens: compound parts are either joined
with spaces or fused into one word where the language writes them solid.
"""

from __future__ import annotations

MAX_COMPOSED = 999_999


class NumberExpansionError(ValueError):
    pass


# ---------------------------------------------------------------- English

_EN_UNITS = [
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen",
]
_EN_TENS = ["", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
            "eighty", "ninety"]


def _en(n: int) -> str:
    if n < 20:
        return _EN_UNITS[n]
    if n < 100:
        tens, unit = divmod(n, 10)
        return _EN_TENS[tens] + ("" if unit == 0 else " " + _EN_UNITS[unit])
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        head = _EN_UNITS[hundreds] + " hundred"
        return head if rest == 0 else head + " " + _en(rest)
    thousands, rest = divmod(n, 1000)
    head = _en(thousands) + " thousand"
    return head if rest == 0 else head + " " + _en(rest)


# ---------------------------------------------------------------- German

_DE_UNITS = [
    "null", "eins", "zwei", "drei", "vier", "fünf", "sechs", "sieben", "acht",
    "neun", "zehn", "elf", "zwölf", "dreizehn", "vierzehn", "fünfzehn",
    "sechzehn", "siebzehn", "achtzehn", "neunzehn",
]
_DE_TENS = ["", "", "zwanzig", "dreißig", "vierzig", "fünfzig", "sechzig",
            "siebzig", "achtzig", "neunzig"]


def _de_below_1000(n: int, final: bool) -> str:
    # "final" controls bare one: "eins" ends a word, "ein" is the combining form.
    hundreds, rest = divmod(n, 100)
    out = ""
    if hundreds:
        out += ("ein" if hundreds == 1 else _DE_UNITS[hundreds]) + "hundert"
    if rest == 0:
        return out
    if rest == 1:
        return out + ("eins" if final else "ein")
    if rest < 20:
        return out + _DE_UNITS[rest]
    tens, unit = divmod(rest, 10)
    if unit == 0:
        return out + _DE_TENS[tens]
    unit_word = "ein" if unit == 1 else _DE_UNITS[unit]
    return out + unit_word + "und" + _DE_TENS[tens]


def _de(n: int) -> str:
    if n == 0:
        return "null"
    thousands, rest = divmod(n, 1000)
    out = ""
    if thousands:
        out += _de_below_1000(thousands, final=False) + "tausend"
    if rest:
        out += _de_below_1000(rest, final=True)
    return out


# ---------------------------------------------------------------- French

_FR_UNITS = [
    "zéro", "un", "deux", "trois", "quatre", "cinq", "six", "sept", "huit",
    "neuf", "dix", "onze", "douze", "treize", "quatorze", "quinze", "seize",
    "dix sept", "dix huit", "dix neuf",
]
_FR_TENS = {20: "vingt", 30: "trente", 40: "quarante", 50: "cinquante",
            60: "soixante"}


def _fr_below_100(n: int, terminal: bool) -> str:
    if n < 20:
        return _FR_UNITS[n]
    if n < 70:
        tens, unit = divmod(n, 10)
        base = _FR_TENS[tens * 10]
        if unit == 0:
            return base
        if unit == 1:
            return base + " et un"
        return base + " " + _FR_UNITS[unit]
    if n < 80:
        if n == 71:
            return "soixante et onze"
        return "soixante " + _FR_UNITS[n - 60]
    if n == 80:
        return "quatre vingts" if terminal else "quatre vingt"
    return "quatre vingt " + _FR_UNITS[n - 80]


def _fr_below_1000(n: int, terminal: bool) -> str:
    hundreds, rest = divmod(n, 100)
    if hundreds == 0:
        return _fr_below_100(n, terminal)
    if hundreds == 1:
        head = "cent"
    else:
        head = _FR_UNITS[hundreds] + " cent"
        if rest == 0 and terminal:
            head += "s"
    return head if rest == 0 else head + " " + _fr_below_100(rest, terminal)


def _fr(n: int) -> str:
    if n == 0:
        return "zéro"
    thousands, rest = divmod(n, 1000)
    if thousands == 0:
        return _fr_below_1000(n, terminal=True)
    head = "mille" if thousands == 1 else _fr_below_1000(thousands, terminal=False) + " mille"
    return head if rest == 0 else head + " " + _fr_below_1000(rest, terminal=True)


# ---------------------------------------------------------------- Spanish

_ES_UNITS = [
    "cero", "uno", "dos", "tres", "cuatro", "cinco", "seis", "siete", "ocho",
    "nueve", "diez", "once", "doce", "trece", "catorce", "quince",
    "dieciséis", "diecisiete", "dieciocho", "diecinueve", "veinte",
    "veintiuno", "veintidós", "veintitrés", "veinticuatro", "veinticinco",
    "veintiséis", "veintisiete", "veintiocho", "veintinueve",
]
_ES_TENS = {30: "treinta", 40: "cuarenta", 50: "cincuenta", 60: "sesenta",
            70: "setenta", 80: "ochenta", 90: "noventa"}
_ES_HUNDREDS = {1: "ciento", 2: "doscientos", 3: "trescientos",
                4: "cuatrocientos", 5: "quinientos", 6: "seiscientos",
                7: "setecientos", 8: "ochocientos", 9: "novecientos"}


def _es_below_100(n: int) -> str:
    if n < 30:
        return _ES_UNITS[n]
    tens, unit = divmod(n, 10)
    base = _ES_TENS[tens * 10]
    return base if unit == 0 else base + " y " + _ES_UNITS[unit]


def _es_below_1000(n: int) -> str:
    if n == 100:
        return "cien"
    hundreds, rest = divmod(n, 100)
    if hundreds == 0:
        return _es_below_100(n)
    head = _ES_HUNDREDS[hundreds]
    return head if rest == 0 else head + " " + _es_below_100(rest)


def _es_apocope(words: str) -> str:
    # "uno" clips to "un" before "mil": veintiuno -> veintiún, uno -> un.
    if words.endswith("veintiuno"):
        return words[: -len("veintiuno")] + "veintiún"
    if words.endswith("uno"):
        return words[:-3] + "un"
    return words


def _es(n: int) -> str:
    if n == 0:
        return "cero"
    thousands, rest = divmod(n, 1000)
    if thousands == 0:
        return _es_below_1000(n)
    head = "mil" if thousands == 1 else _es_apocope(_es_below_1000(thousands)) + " mil"
    return head if rest == 0 else head + " " + _es_below_1000(rest)


# ---------------------------------------------------------------- Portuguese

_PT_UNITS = [
    "zero", "um", "dois", "três", "quatro", "cinco", "seis", "sete", "oito",
    "nove", "dez", "onze", "doze", "treze", "catorze", "quinze", "dezesseis",
    "dezessete", "dezoito", "dezenove",
]
_PT_TENS = {20: "vinte", 30: "trinta", 40: "quarenta", 50: "cinquenta",
            60: "sessenta", 70: "setenta", 80: "oitenta", 90: "noventa"}
_PT_HUNDREDS = {1: "cento", 2: "duzentos", 3: "trezentos", 4: "quatrocentos",
                5: "quinhentos", 6: "seiscentos", 7: "setecentos",
                8: "oitocentos", 9: "novecentos"}


def _pt_below_100(n: int) -> str:
    if n < 20:
        return _PT_UNITS[n]
    tens, unit = divmod(n, 10)
    base = _PT_TENS[tens * 10]
    return base if unit == 0 else base + " e " + _PT_UNITS[unit]


def _pt_below_1000(n: int) -> str:
    if n == 100:
        return "cem"
    hundreds, rest = divmod(n, 100)
    if hundreds == 0:
        return _pt_below_100(n)
    head = _PT_HUNDREDS[hundreds]
    return head if rest == 0 else head + " e " + _pt_below_100(rest)


def _pt(n: int) -> str:
    if n == 0:
        return "zero"
    thousands, rest = divmod(n, 1000)
    if thousands == 0:
        return _pt_below_1000(n)
    head = "mil" if thousands == 1 else _pt_below_1000(thousands) + " mil"
    if rest == 0:
        return head
    # "e" links the thousands to a short or round remainder.
    joiner = " e " if (rest < 100 or rest % 100 == 0) else " "
    return head + joiner + _pt_below_1000(rest)


# ---------------------------------------------------------------- Italian

_IT_UNITS = [
    "zero", "uno", "due", "tre", "quattro", "cinque", "sei", "sette", "otto",
    "nove", "dieci", "undici", "dodici", "tredici", "quattordici",
    "quindici", "sedici", "diciassette", "diciotto", "diciannove",
]
_IT_TENS = {20: "venti", 30: "trenta", 40: "quaranta", 50: "cinquanta",
            60: "sessanta", 70: "settanta", 80: "ottanta", 90: "novanta"}


def _it_below_100(n: int) -> str:
    if n < 20:
        return _IT_UNITS[n]
    tens, unit = divmod(n, 10)
    base = _IT_TENS[tens * 10]
    if unit == 0:
        return base
    if unit in (1, 8):
        base = base[:-1]  # vowel elision: ventuno, ventotto
    unit_word = "tré" if unit == 3 else _IT_UNITS[unit]
    return base + unit_word


def _it_below_1000(n: int) -> str:
    hundreds, rest = divmod(n, 100)
    if hundreds == 0:
        return _it_below_100(n)
    head = ("" if hundreds == 1 else _IT_UNITS[hundreds]) + "cento"
    if rest == 0:
        return head
    tail = _it_below_100(rest)
    if tail.startswith("o"):
        head = head[:-1]  # centottanta
    return head + tail


def _it(n: int) -> str:
    if n == 0:
        return "zero"
    thousands, rest = divmod(n, 1000)
    if thousands == 0:
        return _it_below_1000(n)
    head = "mille" if thousands == 1 else _it_below_1000(thousands) + "mila"
    return head if rest == 0 else head + _it_below_1000(rest)


# ---------------------------------------------------------------- Russian

_RU_UNITS = [
    "ноль", "один", "два", "три", "четыре", "пять", "шесть", "семь",
    "восемь", "девять", "десять", "одиннадцать", "двенадцать", "тринадцать",
    "четырнадцать", "пятнадцать", "шестнадцать", "семнадцать",
    "восемнадцать", "девятнадцать",
]
_RU_TENS = {20: "двадцать", 30: "тридцать", 40: "сорок", 50: "пятьдесят",
            60: "шестьдесят", 70: "семьдесят", 80: "восемьдесят",
            90: "девяносто"}
_RU_HUNDREDS = {1: "сто", 2: "двести", 3: "триста", 4: "четыреста",
                5: "пятьсот", 6: "шестьсот", 7: "семьсот", 8: "восемьсот",
                9: "девятьсот"}


def _ru_unit(n: int, feminine: bool) -> str:
    if feminine and n == 1:
        return "одна"
    if feminine and n == 2:
        return "две"
    return _RU_UNITS[n]


def _ru_below_1000(n: int, feminine: bool = False) -> str:
    parts = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        parts.append(_RU_HUNDREDS[hundreds])
    if rest >= 20:
        tens, unit = divmod(rest, 10)
        parts.append(_RU_TENS[tens * 10])
        if unit:
            parts.append(_ru_unit(unit, feminine))
    elif rest:
        parts.append(_ru_unit(rest, feminine) if rest < 3 else _RU_UNITS[rest])
    return " ".join(parts)


def _ru_thousand_noun(count: int) -> str:
    # Grammatical number of "тысяча" follows the count's final digits.
    last_two = count % 100
    if 11 <= last_two <= 14:
        return "тысяч"
    last = count % 10
    if last == 1:
        return "тысяча"
    if 2 <= last <= 4:
        return "тысячи"
    return "тысяч"


def _ru(n: int) -> str:
    if n == 0:
        return "ноль"
    thousands, rest = divmod(n, 1000)
    parts = []
    if thousands:
        parts.append(_ru_below_1000(thousands, feminine=True))
        parts.append(_ru_thousand_noun(thousands))
    if rest:
        parts.append(_ru_below_1000(rest))
    return " ".join(parts)


# ---------------------------------------------------------------- Chinese

_ZH_DIGITS = "零一二三四五六七八九"


def _zh_below_10000(n: int, top: bool = True) -> str:
    # top level reads 10..19 as 十X rather than 一十X
    parts: list[str] = []
    started = False
    pending_zero = False
    rest = n
    for value, label in ((1000, "千"), (100, "百"), (10, "十")):
        digit, rest = divmod(rest, value)
        if digit:
            if pending_zero and started:
                parts.append("零")
            if digit == 1 and value == 10 and not started and top:
                parts.append("十")
            else:
                parts.append(_ZH_DIGITS[digit] + label)
            started = True
            pending_zero = False
        elif started:
            pending_zero = True
    if rest:
        if pending_zero and started:
            parts.append("零")
        parts.append(_ZH_DIGITS[rest])
    return "".join(parts) if parts else "零"


def _zh(n: int) -> str:
    if n == 0:
        return "零"
    wan, rest = divmod(n, 10000)
    if wan == 0:
        return _zh_below_10000(n)
    out = _zh_below_10000(wan) + "万"
    if rest == 0:
        return out
    if rest < 1000:
        out += "零"  # bridge the skipped thousands place
    return out + _zh_below_10000(rest, top=False)


# ---------------------------------------------------------------- Indonesian

_ID_UNITS = ["nol", "satu", "dua", "tiga", "empat", "lima", "enam", "tujuh",
             "delapan", "sembilan"]


def _id(n: int) -> str:
    if n == 0:
        return "nol"
    return _id_positive(n)


def _id_positive(n: int) -> str:
    if n < 10:
        return _ID_UNITS[n]
    if n == 10:
        return "sepuluh"
    if n == 11:
        return "sebelas"
    if n < 20:
        return _ID_UNITS[n - 10] + " belas"
    if n < 100:
        tens, unit = divmod(n, 10)
        head = _ID_UNITS[tens] + " puluh"
        return head if unit == 0 else head + " " + _ID_UNITS[unit]
    if n < 200:
        rest = n - 100
        return "seratus" if rest == 0 else "seratus " + _id_positive(rest)
    if n < 1000:
        hundreds, rest = divmod(n, 100)
        head = _ID_UNITS[hundreds] + " ratus"
        return head if rest == 0 else head + " " + _id_positive(rest)
    if n < 2000:
        rest = n - 1000
        return "seribu" if rest == 0 else "seribu " + _id_positive(rest)
    thousands, rest = divmod(n, 1000)
    head = _id_positive(thousands) + " ribu"
    return head if rest == 0 else head + " " + _id_positive(rest)


# ---------------------------------------------------------------- Vietnamese

_VI_UNITS = ["không", "một", "hai", "ba", "bốn", "năm", "sáu", "bảy", "tám",
             "chín"]


def _vi_below_100(n: int) -> str:
    if n < 10:
        return _VI_UNITS[n]
    tens, unit = divmod(n, 10)
    if tens == 1:
        if unit == 0:
            return "mười"
        return "mười " + ("lăm" if unit == 5 else _VI_UNITS[unit])
    head = _VI_UNITS[tens] + " mươi"
    if unit == 0:
        return head
    if unit == 1:
        return head + " mốt"
    if unit == 5:
        return head + " lăm"
    return head + " " + _VI_UNITS[unit]


def _vi_below_1000(n: int) -> str:
    hundreds, rest = divmod(n, 100)
    if hundreds == 0:
        return _vi_below_100(n)
    head = _VI_UNITS[hundreds] + " trăm"
    if rest == 0:
        return head
    if rest < 10:
        return head + " lẻ " + _VI_UNITS[rest]
    return head + " " + _vi_below_100(rest)


def _vi(n: int) -> str:
    if n == 0:
        return "không"
    thousands, rest = divmod(n, 1000)
    if thousands == 0:
        return _vi_below_1000(n)
    head = _vi_below_1000(thousands) + " nghìn"
    if rest == 0:
        return head
    if rest < 100:
        # formal zero-hundreds filler keeps place values unambiguous
        tail = "lẻ " + _VI_UNITS[rest] if rest < 10 else _vi_below_100(rest)
        return head + " không trăm " + tail
    return head + " " + _vi_below_1000(rest)


_RENDERERS = {
    "en": _en, "de": _de, "fr": _fr, "es": _es, "pt": _pt, "it": _it,
    "ru": _ru, "zh": _zh, "id": _id, "vi": _vi,
}

# Languages whose number words join without spaces, to each other and to
# the text around them.
NO_SPACE_LANGUAGES = frozenset({"zh"})


def number_to_words(n: int, language: str) -> str:
    """Spell a non-negative integer in the given language.

    Values above MAX_COMPOSED are read digit by digit.
    """
    if language not in _RENDERERS:
        raise NumberExpansionError(f"no number rules for language {language!r}")
    if n < 0:
        raise NumberExpansionError(f"cannot spell negative number {n}")
    if n > MAX_COMPOSED:
        return digits_to_words(str(n), language)
    return _RENDERERS[language](n)


def digits_to_words(digits: str, language: str) -> str:
    """Spell an ASCII digit string, reading it digit by digit."""
    if not digits.isdigit():
        raise NumberExpansionError(f"not a digit string: {digits!r}")
    render = _RENDERERS.get(language)
    if render is None:
        raise NumberExpansionError(f"no number rules for language {language!r}")
    sep = "" if language in NO_SPACE_LANGUAGES else " "
    return sep.join(render(int(d)) for d in digits)
