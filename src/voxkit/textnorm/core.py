"""Text normalization, charset validation, speaking-rate ratio, pause tags."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Sequence

from .numbers import NO_SPACE_LANGUAGES, digits_to_words, number_to_words
from .profiles import LanguageProfile

_DIGIT_RUN = re.compile(r"[0-9]+")
# A run of the same punctuation mark collapses to one.
_REPEAT_PUNCT = re.compile(r"([^\w\s])\1+")

DEFAULT_MAX_SYMBOL_FRACTION = 0.1


class EmptyTextError(ValueError):
    """Normalization left nothing behind."""


@dataclass(frozen=True)
class CharsetVerdict:
    ok: bool
    offending: tuple[str, ...] = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PauseTagging:
    """Gap thresholds (seconds) for pause tags #1..#4, strictly increasing.

    A gap below the first threshold gets no tag; #4 marks abnormal pauses.
    """

    thresholds: tuple[float, float, float, float] = (0.15, 0.40, 0.80, 2.0)

    def __post_init__(self):
        t = self.thresholds
        if len(t) != 4 or any(b <= a for a, b in zip(t, t[1:])) or t[0] <= 0:
            raise ValueError(f"thresholds must be positive and strictly "
                             f"increasing, got {t}")

    def tag_for_gap(self, gap_s: float) -> str | None:
        if gap_s < 0:
            raise ValueError(f"negative gap {gap_s}")
        tag = None
        for level, threshold in enumerate(self.thresholds, start=1):
            if gap_s >= threshold:
                tag = f"#{level}"
        return tag


def _expand_number_run(run: str, rules: str) -> str:
    # Leading zeros read digit by digit so "007" keeps its zeros.
    if len(run) > 1 and run[0] == "0":
        return digits_to_words(run, rules)
    return number_to_words(int(run), rules)


def normalize(text: str, profile: LanguageProfile) -> str:
    """Canonicalize raw text for one language.

    Steps, in order: Unicode NFKC, lowercase, digit runs spelled out with the
    profile's number rules, disallowed punctuation and all symbol/control
    characters removed, repeated punctuation collapsed, whitespace collapsed.
    The result is idempotent under re-normalization. Raises EmptyTextError
    when nothing survives.
    """
    out = unicodedata.normalize("NFKC", text)
    out = out.lower()

    pad = profile.rules not in NO_SPACE_LANGUAGES

    def repl(match: re.Match) -> str:
        words = _expand_number_run(match.group(), profile.rules)
        return f" {words} " if pad else words

    out = _DIGIT_RUN.sub(repl, out)

    out = out.translate(profile._kept_chars)
    out = _REPEAT_PUNCT.sub(r"\1", out)
    out = " ".join(out.split())
    if not out:
        raise EmptyTextError("text is empty after normalization")
    return out


# Character classes for validate_charset.
_OK, _SPACE, _SOFT, _HARD = range(4)


def _char_class(ch: str, profile: LanguageProfile) -> int:
    """Whitespace; symbol, control or out-of-range letter (hard); punctuation
    missing from the whitelist (soft); or allowed."""
    if ch.isspace():
        return _SPACE
    cat = unicodedata.category(ch)
    if cat[0] in ("S", "C"):
        return _HARD
    if cat[0] == "P":
        return _OK if ch in profile.punctuation else _SOFT
    return _OK if profile.allows(ch) else _HARD


def validate_charset(text: str, profile: LanguageProfile,
                     max_symbol_fraction: float = DEFAULT_MAX_SYMBOL_FRACTION) -> CharsetVerdict:
    """Check text against the profile's allowed character set.

    Symbol and control category characters (emoji included) and letters
    outside the profile's ranges always fail. Punctuation missing from the
    whitelist is tolerated up to ``max_symbol_fraction`` of the non-space
    characters; beyond that the text fails as symbol-heavy.
    """
    # Each distinct character is classified once per profile (see
    # _char_class); only spaces and soft punctuation need their counts.
    classes = profile._char_classes
    hard: list[str] = []
    soft: list[str] = []
    n_soft = 0
    total = len(text)
    for ch in set(text):
        cls = classes.get(ch)
        if cls is None:
            cls = classes[ch] = _char_class(ch, profile)
        if cls == _OK:
            continue
        if cls == _HARD:
            hard.append(ch)
        elif cls == _SPACE:
            total -= text.count(ch)
        else:
            soft.append(ch)
            n_soft += text.count(ch)
    if hard:
        return CharsetVerdict(False, tuple(sorted(hard)), "disallowed_characters")
    if total and n_soft / total > max_symbol_fraction:
        return CharsetVerdict(False, tuple(sorted(soft)), "excessive_symbols")
    return CharsetVerdict(True)


def char_ratio(text: str, duration_s: float) -> float:
    """Non-whitespace characters per second of audio."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    # str.split() splits on exactly the characters str.isspace() accepts.
    count = sum(map(len, text.split()))
    return count / duration_s


def pause_tags(words: Sequence, tagging: PauseTagging | None = None) -> list[str]:
    """Interleave pause tags between word spans based on their gaps.

    Takes aligned word spans (anything with word/start_s/end_s attributes)
    ordered by time. Returns the word strings with #1..#4 tags inserted where
    inter-word gaps cross the tagging thresholds.
    """
    if tagging is None:
        tagging = PauseTagging()
    out: list[str] = []
    prev_end: float | None = None
    for span in words:
        if prev_end is not None:
            gap = span.start_s - prev_end
            if gap < 0:
                raise ValueError(
                    f"spans out of order: {span.word!r} starts at {span.start_s} "
                    f"before previous end {prev_end}")
            tag = tagging.tag_for_gap(gap)
            if tag is not None:
                out.append(tag)
        out.append(span.word)
        prev_end = span.end_s
    return out
