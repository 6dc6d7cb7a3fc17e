"""Rule-based quality filtering of aligned utterance records.

Each filter fragment returns the reason codes it found; run_chain runs every
fragment and accumulates reasons rather than short-circuiting, so a verdict
lists everything wrong with a record. A record passes exactly when no reason
fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .aligner import unaligned_gaps
from .manifest import UtteranceRecord
from .textnorm import (
    DEFAULT_MAX_SYMBOL_FRACTION,
    LanguageProfile,
    char_ratio,
    validate_charset,
)

# Canonical reason codes in report order.
LOW_CONFIDENCE = "low_confidence"
TOO_SHORT = "too_short"
TOO_LONG = "too_long"
LONG_GAP = "long_gap"
RATE_LOW = "rate_low"
RATE_HIGH = "rate_high"
BAD_CHARSET = "bad_charset"
BAD_LANGUAGE = "bad_language"

REASON_ORDER = (LOW_CONFIDENCE, TOO_SHORT, TOO_LONG, LONG_GAP, RATE_LOW,
                RATE_HIGH, BAD_CHARSET, BAD_LANGUAGE)


class QualityError(ValueError):
    """A bad filter setting or input; key names the setting at fault, as a
    config file spells it, if there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class MissingConfidenceError(QualityError):
    """The record has no alignment confidence to test (bad input, not a fail)."""


class InsufficientDataError(QualityError):
    """Too few records to fit ratio bounds."""


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds and lookups for the filter chain.

    Confidence thresholds resolve most-specific first: the (source, language)
    pair, then the source, then the language, then the global default. A
    record passes the confidence check only when its confidence exceeds the
    resolved threshold. The languages with a profile are the language
    whitelist.
    """

    default_confidence_threshold: float = 0.3
    thresholds_by_source_language: Mapping[tuple[str, str], float] = field(default_factory=dict)
    thresholds_by_source: Mapping[str, float] = field(default_factory=dict)
    thresholds_by_language: Mapping[str, float] = field(default_factory=dict)
    min_duration_s: float = 0.5
    max_duration_s: float = 30.0
    max_gap_s: float = 4.0
    profiles: Mapping[str, LanguageProfile] = field(default_factory=dict)
    max_symbol_fraction: float = DEFAULT_MAX_SYMBOL_FRACTION

    def __post_init__(self):
        # Each threshold under its config-file key, so that an error names it.
        thresholds = [("threshold.default", self.default_confidence_threshold)]
        thresholds += [(f"threshold.pair.{source}.{language}", value)
                       for (source, language), value
                       in self.thresholds_by_source_language.items()]
        thresholds += [(f"threshold.source.{source}", value)
                       for source, value in self.thresholds_by_source.items()]
        thresholds += [(f"threshold.language.{language}", value)
                       for language, value in self.thresholds_by_language.items()]
        for key, value in thresholds:
            if not (0.0 <= value <= 1.0):
                raise QualityError(f"confidence threshold {value} outside [0, 1]", key)
        if not (0 < self.min_duration_s < self.max_duration_s):
            # Blame the bound that was moved: max only when it left its default.
            moved_max = (self.min_duration_s > 0
                         and self.max_duration_s != FilterConfig.max_duration_s)
            raise QualityError(f"need 0 < min_duration_s < max_duration_s, got "
                               f"[{self.min_duration_s}, {self.max_duration_s}]",
                               "max_duration_s" if moved_max else "min_duration_s")
        if not (0 < self.max_gap_s < math.inf):
            raise QualityError(f"max_gap_s must be positive and finite, got "
                               f"{self.max_gap_s}", "max_gap_s")
        if not (0 <= self.max_symbol_fraction <= 1):
            raise QualityError(f"max_symbol_fraction must be in [0, 1], got "
                               f"{self.max_symbol_fraction}", "max_symbol_fraction")

    def confidence_threshold(self, source: str, language: str) -> float:
        pair = self.thresholds_by_source_language.get((source, language))
        if pair is not None:
            return pair
        by_source = self.thresholds_by_source.get(source)
        if by_source is not None:
            return by_source
        by_language = self.thresholds_by_language.get(language)
        if by_language is not None:
            return by_language
        return self.default_confidence_threshold


@dataclass(frozen=True)
class FilterVerdict:
    key: str
    reasons: tuple[str, ...]

    @property
    def passed(self) -> bool:
        """A record passes exactly when no reason fired."""
        return not self.reasons


def filter_confidence(record: UtteranceRecord, config: FilterConfig) -> list[str]:
    """Fails unless confidence strictly exceeds the resolved threshold."""
    if record.avg_confidence is None:
        raise MissingConfidenceError(
            f"record {record.key!r} has no avg_confidence; align it first")
    threshold = config.confidence_threshold(record.source, record.language)
    if record.avg_confidence <= threshold:
        return [LOW_CONFIDENCE]
    return []


def filter_duration(record: UtteranceRecord, config: FilterConfig) -> list[str]:
    """Boundary durations are inclusive: exactly min or max passes."""
    if record.duration_s < config.min_duration_s:
        return [TOO_SHORT]
    if record.duration_s > config.max_duration_s:
        return [TOO_LONG]
    return []


def filter_gaps(record: UtteranceRecord, config: FilterConfig) -> list[str]:
    """Fails when any unaligned stretch strictly exceeds the gap cap.

    A record with no aligned words counts as one gap spanning the whole
    duration.
    """
    for start, end in unaligned_gaps(record.words, record.duration_s):
        if end - start > config.max_gap_s:
            return [LONG_GAP]
    return []


def filter_rate(record: UtteranceRecord, config: FilterConfig) -> list[str]:
    """Characters-per-second must fall inside the profile bounds, inclusive."""
    profile = config.profiles.get(record.language)
    if profile is None:
        return []  # no profile to judge against; the language check reports it
    ratio = char_ratio(record.normalized_text, record.duration_s)
    if ratio < profile.min_ratio:
        return [RATE_LOW]
    if ratio > profile.max_ratio:
        return [RATE_HIGH]
    return []


def filter_language(record: UtteranceRecord, config: FilterConfig) -> list[str]:
    """Whitelist the language by profile, then validate the raw text's characters."""
    profile = config.profiles.get(record.language)
    if profile is None:
        return [BAD_LANGUAGE]
    verdict = validate_charset(record.raw_text, profile, config.max_symbol_fraction)
    if not verdict.ok:
        return [BAD_CHARSET]
    return []


# In REASON_ORDER, one reason at most each: run_chain's order relies on it.
_FRAGMENTS = (filter_confidence, filter_duration, filter_gaps, filter_rate,
              filter_language)


def run_chain(record: UtteranceRecord, config: FilterConfig) -> FilterVerdict:
    """Run every filter fragment and accumulate reasons in canonical order."""
    return FilterVerdict(record.key, tuple(
        reason for fragment in _FRAGMENTS for reason in fragment(record, config)))


def fit_ratio_bounds(records: Iterable[UtteranceRecord], language: str,
                     percentile: float = 1.0) -> tuple[float, float]:
    """Fit [min_ratio, max_ratio] from a corpus sample of one language.

    Returns the p-th smallest and p-th largest character ratios by the
    nearest-rank rule: with n records the bounds are the ceil(p/100*n)-th
    value from each end of the sorted ratios. Needs at least 20 records.
    """
    if not (0 < percentile < 50):
        raise QualityError(f"percentile must be in (0, 50), got {percentile}")
    ratios = sorted(
        char_ratio(r.normalized_text, r.duration_s)
        for r in records if r.language == language
    )
    if len(ratios) < 20:
        raise InsufficientDataError(
            f"need at least 20 {language!r} records to fit bounds, "
            f"got {len(ratios)}")
    rank = math.ceil(percentile / 100.0 * len(ratios))
    rank = min(max(rank, 1), len(ratios))
    return ratios[rank - 1], ratios[len(ratios) - rank]
