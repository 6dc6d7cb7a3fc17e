"""Script transliteration into a shared lowercase Latin token alphabet.

Every output token matches ``^[a-z']+$``. Mapping is per script, driven by
the bundled plain-text tables: Cyrillic and CJK characters go through lookup
tables, Latin letters are folded by stripping combining marks (plus a small
special-case table for letters like ß that do not decompose).

Tokenization splits on whitespace and punctuation; apostrophes inside a token
survive so contractions stay whole. Chinese groups romanize to one token per
whitespace/punctuation-delimited run of characters unless per-character
splitting is requested.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cache
from importlib import resources

_TOKEN_RE = re.compile(r"^[a-z']+$")

_APOSTROPHES = {"'", "’", "ʼ"}

_CJK_RANGES = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0x3005, 0x3005))
_CYRILLIC_RANGE = (0x0400, 0x04FF)


class UnmappableCharacterError(ValueError):
    """A letter has no transliteration in any loaded table."""

    def __init__(self, ch: str, language: str):
        super().__init__(
            f"cannot romanize U+{ord(ch):04X} {ch!r} ({unicodedata.name(ch, 'unknown')}) "
            f"for language {language!r}")
        self.char = ch
        self.language = language


def _read_table(name: str) -> dict[str, str]:
    ref = resources.files("voxkit.textnorm") / "data" / "translit" / name
    table: dict[str, str] = {}
    for line_no, raw in enumerate(ref.read_text(encoding="utf-8").splitlines(), 1):
        if not raw or raw.startswith("#"):
            continue
        src, _, dst = raw.partition("\t")
        if len(src) != 1:
            raise ValueError(f"{name}:{line_no}: source must be one character")
        table[src] = dst
    return table


@cache
def _tables() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    return (
        _read_table("cyrillic.tsv"),
        _read_table("pinyin.tsv"),
        _read_table("latin_fold.tsv"),
    )


def _in_ranges(cp: int, ranges) -> bool:
    return any(lo <= cp <= hi for lo, hi in ranges)


def is_cjk(ch: str) -> bool:
    return _in_ranges(ord(ch), _CJK_RANGES)


def _fold_latin(ch: str, fold_table: dict[str, str], language: str) -> str:
    special = fold_table.get(ch)
    if special is not None:
        return special
    decomposed = unicodedata.normalize("NFKD", ch)
    stripped = "".join(c for c in decomposed if unicodedata.category(c) != "Mn")
    stripped = "".join(fold_table.get(c, c) for c in stripped)
    if stripped and all("a" <= c <= "z" for c in stripped):
        return stripped
    raise UnmappableCharacterError(ch, language)


def _map_char(ch: str, language: str, tables) -> str:
    """Transliterate one character; empty string drops it."""
    cyrillic, pinyin, fold = tables
    if "a" <= ch <= "z" or ch == "'":
        return ch
    cp = ord(ch)
    if _CYRILLIC_RANGE[0] <= cp <= _CYRILLIC_RANGE[1]:
        out = cyrillic.get(ch)
        if out is None:
            raise UnmappableCharacterError(ch, language)
        return out
    if _in_ranges(cp, _CJK_RANGES):
        out = pinyin.get(ch)
        if out is None:
            raise UnmappableCharacterError(ch, language)
        return out
    if unicodedata.category(ch).startswith("L"):
        return _fold_latin(ch, fold, language)
    # Anything non-letter that leaked through tokenization is dropped.
    return ""


def romanize(text: str, language: str, *, split_zh_chars: bool = False) -> list[str]:
    """Map normalized text to lowercase Latin tokens.

    Expects already-normalized input (lowercase, clean punctuation). Raises
    UnmappableCharacterError for letters no table covers.
    """
    tables = _tables()
    text = text.lower()

    tokens: list[str] = []
    for group in _split_groups(text):
        if language == "zh" and split_zh_chars:
            for piece in _split_per_cjk_char(group):
                _emit(piece, language, tables, tokens)
        else:
            _emit(group, language, tables, tokens)
    return tokens


def _split_groups(text: str) -> list[str]:
    """Split into word groups on whitespace and punctuation.

    Apostrophes bind to letters; every other mark is a delimiter.
    """
    groups: list[str] = []
    current: list[str] = []
    for ch in text:
        if ch in _APOSTROPHES:
            current.append("'")
            continue
        cat = unicodedata.category(ch)
        if ch.isspace() or cat[0] in ("P", "S", "Z", "C"):
            if current:
                groups.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        groups.append("".join(current))
    return groups


def _split_per_cjk_char(group: str) -> list[str]:
    """Break a group so each CJK character stands alone; Latin runs stay whole."""
    pieces: list[str] = []
    run: list[str] = []
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
    return pieces


def _emit(group: str, language: str, tables, tokens: list[str]) -> None:
    mapped = "".join(_map_char(ch, language, tables) for ch in group)
    mapped = mapped.strip("'")
    if not mapped:
        return
    if not _TOKEN_RE.match(mapped):
        raise UnmappableCharacterError(group[0], language)
    tokens.append(mapped)
