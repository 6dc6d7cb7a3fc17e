"""Evaluation-set curation and corpus statistics.

Curation picks, per language, the records whose character-per-second ratio
sits closest to the language mean, after trimming trailing silence and
applying strict eligibility gates. Statistics summarize a manifest per
language the way corpus summary tables are usually laid out: total duration,
average duration, utterance count, total words, average words.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .manifest import UtteranceRecord
from .textnorm import char_ratio


class CurationError(Exception):
    pass


@dataclass(frozen=True)
class EvalCriteria:
    """Gates for evaluation-set membership.

    Confidence and word count are strict (must exceed), the duration window
    is inclusive on both ends.
    """

    min_confidence: float = 0.9
    min_words: int = 5
    min_duration_s: float = 3.0
    max_duration_s: float = 15.0
    trailing_silence_s: float = 0.2
    target_per_language: int = 500

    def __post_init__(self):
        if not (0 <= self.min_confidence <= 1):
            raise CurationError(f"min_confidence {self.min_confidence} outside [0, 1]")
        if not (0 < self.min_duration_s < self.max_duration_s):
            raise CurationError("need 0 < min_duration_s < max_duration_s")
        if not (self.trailing_silence_s >= 0 and self.target_per_language >= 1):
            raise CurationError("trailing silence and target must be positive")


@dataclass(frozen=True)
class TrimInstruction:
    key: str
    old_duration_s: float
    new_duration_s: float


@dataclass(frozen=True)
class EligibilityVerdict:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def trim_trailing_silence(record: UtteranceRecord,
                          criteria: EvalCriteria | None = None
                          ) -> tuple[UtteranceRecord, TrimInstruction | None]:
    """Cap the record's duration shortly after its last aligned word.

    Returns the (possibly) shortened record plus a trim instruction for the
    audio tooling when the duration changed. Never cuts into the last word.
    """
    if criteria is None:
        criteria = EvalCriteria()
    if not record.words:
        raise CurationError(f"record {record.key!r} has no word spans to trim against")
    last_end = record.words[-1].end_s
    new_duration = min(record.duration_s, last_end + criteria.trailing_silence_s)
    if new_duration >= record.duration_s:
        return record, None
    trimmed = replace(record, duration_s=new_duration)
    return trimmed, TrimInstruction(key=record.key,
                                    old_duration_s=record.duration_s,
                                    new_duration_s=new_duration)


def eligible(record: UtteranceRecord,
             criteria: EvalCriteria | None = None) -> EligibilityVerdict:
    """Strict confidence and word-count gates, inclusive duration window."""
    if criteria is None:
        criteria = EvalCriteria()
    if record.avg_confidence is None:
        raise CurationError(f"record {record.key!r} has no avg_confidence; "
                            f"align it first")
    if not record.avg_confidence > criteria.min_confidence:
        return EligibilityVerdict(False, "low_score")
    if not len(record.words) > criteria.min_words:
        return EligibilityVerdict(False, "few_words")
    if not (criteria.min_duration_s <= record.duration_s <= criteria.max_duration_s):
        return EligibilityVerdict(False, "duration")
    return EligibilityVerdict(True)


def select_eval(records: Sequence[UtteranceRecord],
                criteria: EvalCriteria | None = None) -> list[UtteranceRecord]:
    """Pick the records whose speaking rate is most typical of the pool.

    All inputs must already be eligible. Ranks by absolute distance of the
    character ratio from the pool mean (ties on key), keeps at most the
    per-language target, and returns the selection sorted by key.
    """
    if criteria is None:
        criteria = EvalCriteria()
    if not records:
        return []
    for record in records:
        verdict = eligible(record, criteria)
        if not verdict:
            raise CurationError(f"record {record.key!r} is not eligible "
                                f"({verdict.reason})")
    ratios = {r.key: char_ratio(r.normalized_text, r.duration_s) for r in records}
    mean = sum(ratios.values()) / len(ratios)
    ranked = sorted(records, key=lambda r: (abs(ratios[r.key] - mean), r.key))
    chosen = ranked[:min(criteria.target_per_language, len(ranked))]
    return sorted(chosen, key=lambda r: r.key)


# ---------------------------------------------------------------- statistics

_UNIT_SECONDS = {"hours": 3600.0, "minutes": 60.0}


@dataclass(frozen=True)
class LanguageStats:
    language: str
    utterances: int
    total_duration_s: float
    total_words: int

    @property
    def avg_duration_s(self) -> float:
        return self.total_duration_s / self.utterances if self.utterances else 0.0

    @property
    def avg_words(self) -> float:
        return self.total_words / self.utterances if self.utterances else 0.0


@dataclass(frozen=True)
class CorpusStats:
    unit: str
    rows: tuple[LanguageStats, ...]
    total: LanguageStats


def count_words(record: UtteranceRecord) -> int:
    """Word count for statistics.

    Chinese counts letter characters (each ideograph is one unit); other
    languages count whitespace-separated tokens of the normalized text.
    """
    if record.language == "zh":
        return sum(1 for ch in record.normalized_text
                   if unicodedata.category(ch).startswith("L"))
    return len(record.normalized_text.split())


def stats_from_totals(language: str, utterances: int, total_duration_s: float,
                      total_words: int) -> LanguageStats:
    """Build a stats row directly from aggregate numbers."""
    if utterances < 0 or total_duration_s < 0 or total_words < 0:
        raise CurationError("aggregate statistics cannot be negative")
    return LanguageStats(language=language, utterances=utterances,
                         total_duration_s=total_duration_s,
                         total_words=total_words)


def compute_stats(records: Iterable[UtteranceRecord],
                  unit: str = "hours") -> CorpusStats:
    """Aggregate a manifest into per-language rows plus a totals row.

    Rows are ordered by ascending total duration (then language code) the way
    summary tables usually are.
    """
    if unit not in _UNIT_SECONDS:
        raise CurationError(f"unit must be one of {sorted(_UNIT_SECONDS)}, "
                            f"got {unit!r}")
    sums: dict[str, list[float]] = {}
    for record in records:
        agg = sums.setdefault(record.language, [0, 0.0, 0])
        agg[0] += 1
        agg[1] += record.duration_s
        agg[2] += count_words(record)

    rows = [
        LanguageStats(language=lang, utterances=int(agg[0]),
                      total_duration_s=agg[1], total_words=int(agg[2]))
        for lang, agg in sums.items()
    ]
    rows.sort(key=lambda r: (r.total_duration_s, r.language))
    total = LanguageStats(
        language="total",
        utterances=sum(r.utterances for r in rows),
        total_duration_s=sum((r.total_duration_s for r in rows), 0.0),
        total_words=sum(r.total_words for r in rows),
    )
    return CorpusStats(unit=unit, rows=tuple(rows), total=total)


def duration_in_unit(stats_row: LanguageStats, unit: str) -> float:
    return stats_row.total_duration_s / _UNIT_SECONDS[unit]


def render_stats_table(stats: CorpusStats) -> str:
    """Fixed-width text table with the usual two-decimal display rounding."""
    unit_label = {"hours": "h", "minutes": "min"}[stats.unit]
    header = ("Language", f"Total ({unit_label})", "Avg Dur (s)", "Utterances",
              "Total Words", "Avg Words")
    body = []
    for row in (*stats.rows, stats.total):
        body.append((
            row.language,
            f"{duration_in_unit(row, stats.unit):,.2f}",
            f"{row.avg_duration_s:.2f}",
            f"{row.utterances:,}",
            f"{row.total_words:,}",
            f"{row.avg_words:.2f}",
        ))
    widths = [max(len(header[i]), *(len(line[i]) for line in body))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for line in body:
        lines.append("  ".join(line[i].rjust(widths[i]) if i else
                               line[i].ljust(widths[i])
                               for i in range(len(line))).rstrip())
    return "\n".join(lines) + "\n"


def stats_to_json_dict(stats: CorpusStats) -> dict:
    def row_dict(row: LanguageStats) -> dict:
        return {
            "language": row.language,
            "utterances": row.utterances,
            "total_duration_s": row.total_duration_s,
            f"total_duration_{stats.unit}": duration_in_unit(row, stats.unit),
            "avg_duration_s": row.avg_duration_s,
            "total_words": row.total_words,
            "avg_words": row.avg_words,
        }

    return {
        "unit": stats.unit,
        "languages": [row_dict(r) for r in stats.rows],
        "total": row_dict(stats.total),
    }
