"""Language profiles: per-language charset, rate bounds, and rule set.

Profiles live in plain-text ``<lang>.profile`` files with ``key = value``
lines, one directory holding one language set. The bundled directory covers
the ten supported languages; another directory, given explicitly or via the
VOXKIT_PROFILES environment variable, may hold fewer or more.

File keys:
    language      two-letter code, must match the file name
    rules         normalization rule set id: the language whose number
                  spelling to use, one of the ten supported
    min_ratio     lower bound on characters per second
    max_ratio     upper bound on characters per second
    ranges        allowed code point ranges, hex, e.g. "0061-007A 00C0"
    punctuation   whitelisted punctuation, space-separated single characters
"""

from __future__ import annotations

import os
import unicodedata
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Iterable

from .numbers import _RENDERERS

SUPPORTED_LANGUAGES = tuple(sorted(_RENDERERS))

_ENV_VAR = "VOXKIT_PROFILES"

_KNOWN_KEYS = {"language", "rules", "min_ratio", "max_ratio", "ranges", "punctuation"}


class ProfileError(Exception):
    pass


class CharMemo(dict):
    """A ``str.translate`` table that fills itself as characters are seen.

    A code point not yet in the table is mapped by ``fill`` and stored, so
    the table grows at most to the distinct characters it has been asked
    about. When ``fill`` raises, nothing is stored and the error reaches the
    caller of ``translate``.
    """

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, cp: int) -> str:
        out = self[cp] = self.fill(chr(cp))
        return out


def _kept_char(punctuation: frozenset[str], ch: str) -> str:
    """What normalize keeps of one character: a space for whitespace; the
    character for a letter, mark, number or whitelisted punctuation mark;
    nothing for other punctuation, symbols and controls."""
    if ch.isspace():
        return " "
    cat = unicodedata.category(ch)[0]
    if cat in "LMN" or (cat == "P" and ch in punctuation):
        return ch
    return ""


@dataclass(frozen=True)
class LanguageProfile:
    language: str
    rules: str
    min_ratio: float
    max_ratio: float
    ranges: tuple[tuple[int, int], ...]
    punctuation: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.rules not in _RENDERERS:
            raise ProfileError(
                f"{self.language}: rules {self.rules!r} names no number "
                f"speller; known: {', '.join(SUPPORTED_LANGUAGES)}")
        if not (0 <= self.min_ratio < self.max_ratio):
            raise ProfileError(
                f"{self.language}: need 0 <= min_ratio < max_ratio, "
                f"got [{self.min_ratio}, {self.max_ratio}]")
        for lo, hi in self.ranges:
            if lo > hi:
                raise ProfileError(f"{self.language}: empty range {lo:04X}-{hi:04X}")

    def allows(self, ch: str) -> bool:
        """True if the code point falls in one of the allowed ranges."""
        cp = ord(ch)
        return any(lo <= cp <= hi for lo, hi in self.ranges)

    @cached_property
    def _char_classes(self) -> dict[str, int]:
        """Character class memo for validate_charset, filled as characters are seen.

        It lives in the instance ``__dict__``, so a copy made by ``replace``
        (``with_ratio_bounds``) or another profile starts with its own.
        """
        return {}

    @cached_property
    def _kept_chars(self) -> CharMemo:
        """normalize's translate table (see _kept_char), held like ``_char_classes``."""
        return CharMemo(partial(_kept_char, self.punctuation))

    def with_ratio_bounds(self, min_ratio: float, max_ratio: float) -> "LanguageProfile":
        return replace(self, min_ratio=min_ratio, max_ratio=max_ratio)


def parse_profile(text: str, origin: str = "<string>") -> LanguageProfile:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProfileError(f"{origin}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ProfileError(f"{origin}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ProfileError(f"{origin}:{line_no}: duplicate key {key!r}")
        values[key] = value.strip()

    for key in ("language", "rules", "min_ratio", "max_ratio", "ranges"):
        if key not in values:
            raise ProfileError(f"{origin}: missing key {key!r}")

    try:
        min_ratio = float(values["min_ratio"])
        max_ratio = float(values["max_ratio"])
    except ValueError as exc:
        raise ProfileError(f"{origin}: ratio bounds must be numeric") from exc

    ranges = []
    for part in values["ranges"].split():
        lo, _, hi = part.partition("-")
        try:
            lo_cp = int(lo, 16)
            hi_cp = int(hi, 16) if hi else lo_cp
        except ValueError as exc:
            raise ProfileError(f"{origin}: bad range {part!r}") from exc
        ranges.append((lo_cp, hi_cp))

    punctuation = frozenset(values.get("punctuation", "").split())
    for mark in punctuation:
        if len(mark) != 1:
            raise ProfileError(f"{origin}: punctuation entries must be single "
                               f"characters, got {mark!r}")

    return LanguageProfile(
        language=values["language"],
        rules=values["rules"],
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        ranges=tuple(ranges),
        punctuation=punctuation,
    )


def _profiles_dir(profiles_dir: str | Path | None) -> Path:
    """profiles_dir, else the VOXKIT_PROFILES directory, else the bundled one."""
    if profiles_dir is None:
        profiles_dir = (os.environ.get(_ENV_VAR)
                        or resources.files("voxkit.textnorm") / "data" / "profiles")
    path = Path(profiles_dir)
    if not path.is_dir():
        raise ProfileError(f"no profile directory at {path}")
    return path


def load_profile(language: str, profiles_dir: str | Path | None = None) -> LanguageProfile:
    """Load ``<dir>/<language>.profile``.

    The directory is ``profiles_dir``, else the VOXKIT_PROFILES environment
    variable, else the bundled profiles.
    """
    directory = _profiles_dir(profiles_dir)
    path = directory / f"{language}.profile"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileError(f"no profile for language {language!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    profile = parse_profile(text, origin=str(path))
    if profile.language != language:
        raise ProfileError(
            f"{path}: profile declares language {profile.language!r}, "
            f"expected {language!r}")
    return profile


def load_profiles(languages: Iterable[str] | None = None,
                  profiles_dir: str | Path | None = None) -> dict[str, LanguageProfile]:
    """Load the profiles of a directory, resolved as in load_profile.

    Every ``*.profile`` in it, sorted by language, unless ``languages``
    names which ones to load. The profiles loaded are the language set that
    normalize and the filter accept.
    """
    directory = _profiles_dir(profiles_dir)
    if languages is None:
        try:
            languages = sorted(name[:-len(".profile")]
                               for name in os.listdir(directory)
                               if name.endswith(".profile"))
        except OSError as exc:
            raise ProfileError(f"cannot list {directory}: {exc}") from exc
        if not languages:
            raise ProfileError(f"profile directory {directory} holds no "
                               f"*.profile file")
    return {lang: load_profile(lang, directory) for lang in languages}
