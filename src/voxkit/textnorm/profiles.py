"""Language profiles: per-language charset, rate bounds, and rule set.

Profiles live in plain-text ``<lang>.profile`` files with ``key = value``
lines. The bundled set covers the ten supported languages; a directory of
replacement profiles can be supplied explicitly or via the VOXKIT_PROFILES
environment variable.

File keys:
    language      two-letter code, must match the file name
    rules         normalization rule set id (selects number spelling)
    min_ratio     lower bound on characters per second
    max_ratio     upper bound on characters per second
    ranges        allowed code point ranges, hex, e.g. "0061-007A 00C0"
    punctuation   whitelisted punctuation, space-separated single characters
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

SUPPORTED_LANGUAGES = ("de", "en", "es", "fr", "id", "it", "pt", "ru", "vi", "zh")

_ENV_VAR = "VOXKIT_PROFILES"

_KNOWN_KEYS = {"language", "rules", "min_ratio", "max_ratio", "ranges", "punctuation"}


class ProfileError(Exception):
    pass


@dataclass(frozen=True)
class LanguageProfile:
    language: str
    rules: str
    min_ratio: float
    max_ratio: float
    ranges: tuple[tuple[int, int], ...]
    punctuation: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.min_ratio < 0 or self.max_ratio <= self.min_ratio:
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


def _bundled_text(language: str) -> str:
    ref = resources.files("voxkit.textnorm") / "data" / "profiles" / f"{language}.profile"
    if not ref.is_file():
        raise ProfileError(f"no bundled profile for language {language!r}")
    return ref.read_text(encoding="utf-8")


def load_profile(language: str, profiles_dir: str | Path | None = None) -> LanguageProfile:
    """Load one language profile.

    Resolution order: explicit ``profiles_dir``, the VOXKIT_PROFILES
    environment variable, then the bundled defaults.
    """
    if profiles_dir is None:
        env_dir = os.environ.get(_ENV_VAR)
        profiles_dir = env_dir if env_dir else None

    if profiles_dir is not None:
        path = Path(profiles_dir) / f"{language}.profile"
        if not path.is_file():
            raise ProfileError(f"profile file not found: {path}")
        text = path.read_text(encoding="utf-8")
        origin = str(path)
    else:
        text = _bundled_text(language)
        origin = f"<bundled {language}.profile>"

    profile = parse_profile(text, origin=origin)
    if profile.language != language:
        raise ProfileError(
            f"{origin}: profile declares language {profile.language!r}, "
            f"expected {language!r}")
    return profile


def load_profiles(languages: tuple[str, ...] = SUPPORTED_LANGUAGES,
                  profiles_dir: str | Path | None = None) -> dict[str, LanguageProfile]:
    return {lang: load_profile(lang, profiles_dir) for lang in languages}
