"""End-to-end corpus pipeline: ingest, normalize, romanize, align, filter.

Stages communicate through manifests on disk so any stage can be rerun or
distributed on its own. Everything here is deterministic: outputs are a pure
function of the inputs and the configuration, with no timestamps and all
JSON keys sorted, so reruns are byte-identical.
"""

from __future__ import annotations

import heapq
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .aligner import (AlignmentError, EmissionFormatError, align_grouped,
                      find_emissions, load_emissions)
from .curate import compute_stats, stats_to_json_dict
from .manifest import (ManifestError, SourceAdapterSpec, UtteranceRecord,
                       _write_records, adapt, atomic_write, read_manifest,
                       with_words, write_manifest)
from .quality import FilterConfig, run_chain
from .textnorm import (EmptyTextError, LanguageProfile, ProfileError,
                       UnmappableCharacterError, load_profiles, normalize,
                       romanize)

STAGES = ("normalize", "romanize", "align", "filter")

T = TypeVar("T")
U = TypeVar("U")


class PipelineError(Exception):
    pass


class ConfigError(PipelineError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class PipelineStageError(PipelineError):
    """A stage died on a record for a reason that is not a rejection."""

    def __init__(self, stage: str, key: str, message: str):
        super().__init__(f"stage {stage}, record {key!r}: {message}")
        self.stage = stage
        self.key = key


# ---------------------------------------------------------------- sharding

@dataclass(frozen=True)
class ShardAssignment:
    """Duration-balanced partition of a record set."""

    n_shards: int
    shard_of: Mapping[str, int]          # record key -> shard index
    durations: tuple[float, ...]         # total seconds per shard

    def keys_for(self, index: int) -> list[str]:
        return list(self._keys_by_shard.get(index, ()))

    @cached_property
    def _keys_by_shard(self) -> dict[int, list[str]]:
        by_shard: dict[int, list[str]] = {}
        for key, index in self.shard_of.items():
            by_shard.setdefault(index, []).append(key)
        for keys in by_shard.values():
            keys.sort()
        return by_shard


def shard(records: Sequence[UtteranceRecord], n_shards: int) -> ShardAssignment:
    """Partition records into n_shards with near-equal total duration.

    Greedy longest-first: records sorted by descending duration (ties by
    key) go one at a time onto the currently lightest shard, lowest index
    winning load ties. The resulting spread max - min never exceeds the
    longest single record.
    """
    if n_shards < 1:
        raise PipelineError(f"shard count must be >= 1, got {n_shards}")
    order = sorted(records, key=lambda r: (-r.duration_s, r.key))
    heap = [(0.0, i) for i in range(n_shards)]
    heapq.heapify(heap)
    shard_of: dict[str, int] = {}
    for record in order:
        if record.key in shard_of:
            raise PipelineError(f"duplicate key {record.key!r} in shard input")
        load, index = heapq.heappop(heap)
        shard_of[record.key] = index
        heapq.heappush(heap, (load + record.duration_s, index))
    durations = [0.0] * n_shards
    for load, index in heap:
        durations[index] = load
    return ShardAssignment(n_shards, shard_of, tuple(durations))


def write_shards(records: Sequence[UtteranceRecord], assignment: ShardAssignment,
                 out_dir: Path, prefix: str) -> None:
    """Write each shard's records, sorted by key, to out_dir/{prefix}NNN.jsonl."""
    by_key = {r.key: r for r in records}
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(assignment.n_shards):
        keys = assignment.keys_for(index)
        _write_records([by_key[k] for k in keys],
                       out_dir / f"{prefix}{index:03d}.jsonl", make_parent=False)


def parallel_map(fn: Callable[[T], U], items: Iterable[T],
                 workers: int = 1) -> list[U]:
    """Map fn over items, preserving input order regardless of worker count."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ------------------------------------------------------------ configuration

@dataclass(frozen=True)
class PipelineConfig:
    """Everything run_pipeline needs, resolved and validated."""

    input_path: Path
    output_dir: Path
    stages: tuple[str, ...] = STAGES
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    profiles: Mapping[str, LanguageProfile] = field(default_factory=dict)
    emissions_dir: Path | None = None
    adapter: SourceAdapterSpec | None = None
    shard_count: int = 1
    split_zh_chars: bool = False
    score_mode: str = "geometric"
    workers: int = 1

    def __post_init__(self):
        for stage in self.stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {stage!r}; valid: "
                                  f"{', '.join(STAGES)}")
        if len(set(self.stages)) != len(self.stages):
            raise ConfigError("stages listed more than once")
        if "align" in self.stages and self.emissions_dir is None:
            raise ConfigError("align stage requires emissions_dir")
        if self.shard_count < 1:
            raise ConfigError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


def _parse_bool(value: str, key: str, line_no: int) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} expects true/false, got {value!r}", line_no)


def _parse_float(value: str, key: str, line_no: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {value!r}", line_no) from None


def _parse_int(value: str, key: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}", line_no) from None


def add_threshold(filter_kwargs: dict, spec: str, value: str) -> None:
    """Put one confidence threshold into FilterConfig keyword arguments.

    spec is default, source.S, language.L or pair.S.L. Raises ValueError
    for an unknown spec or a value that is not a number.
    """
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"threshold {spec!r} expects a number, "
                         f"got {value!r}") from None
    parts = spec.split(".")
    if parts == ["default"]:
        filter_kwargs["default_confidence_threshold"] = number
    elif len(parts) == 2 and parts[0] == "source":
        filter_kwargs.setdefault("thresholds_by_source", {})[parts[1]] = number
    elif len(parts) == 2 and parts[0] == "language":
        filter_kwargs.setdefault("thresholds_by_language", {})[parts[1]] = number
    elif len(parts) == 3 and parts[0] == "pair":
        filter_kwargs.setdefault("thresholds_by_source_language",
                                 {})[(parts[1], parts[2])] = number
    else:
        raise ValueError(f"unknown threshold {spec!r}; use default, source.S, "
                         f"language.L or pair.S.L")


def load_pipeline_config(path: str | Path,
                         profiles_dir: str | Path | None = None) -> PipelineConfig:
    """Parse a key=value pipeline configuration file.

    Lines are `key = value`; # starts a comment; relative paths resolve
    against the file's own directory. Dotted keys configure thresholds
    (threshold.default, threshold.source.S, threshold.language.L,
    threshold.pair.S.L) and the ingest adapter (adapter.source,
    adapter.map.FIELD, adapter.default.FIELD). Eval-set criteria are not
    pipeline settings: an eval.* key is an error that points to
    `voxkit curate-eval`.
    """
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    plain: dict[str, tuple[str, int]] = {}
    filter_kwargs: dict = {}
    adapter_map: dict[str, str] = {}
    adapter_defaults: dict[str, str] = {}
    adapter_source: str | None = None
    seen: set[str] = set()

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"empty key or value in {line!r}", line_no)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        seen.add(key)
        if key.startswith("threshold."):
            try:
                add_threshold(filter_kwargs, key[len("threshold."):], value)
            except ValueError as exc:
                raise ConfigError(str(exc), line_no) from None
        elif key.startswith("eval."):
            raise ConfigError(f"{key!r}: run_pipeline does not curate eval "
                              f"sets; pass eval criteria to `voxkit "
                              f"curate-eval` instead", line_no)
        elif key.startswith("adapter.map."):
            adapter_map[key[len("adapter.map."):]] = value
        elif key.startswith("adapter.default."):
            adapter_defaults[key[len("adapter.default."):]] = value
        elif key == "adapter.source":
            adapter_source = value
        elif key in ("input", "output_dir", "emissions_dir", "stages",
                     "languages", "min_duration_s", "max_duration_s",
                     "max_gap_s", "max_symbol_fraction", "shard_count",
                     "workers", "split_zh_chars", "score_mode"):
            plain[key] = (value, line_no)
        else:
            raise ConfigError(f"unknown key {key!r}", line_no)

    def take(key: str) -> tuple[str, int] | None:
        return plain.get(key)

    entry = take("input")
    if entry is None:
        raise ConfigError("missing required key 'input'")
    input_path = (base / entry[0]).resolve()
    if not input_path.exists():
        raise ConfigError(f"input manifest {input_path} does not exist", entry[1])

    entry = take("output_dir")
    if entry is None:
        raise ConfigError("missing required key 'output_dir'")
    output_dir = (base / entry[0]).resolve()

    emissions_dir = None
    entry = take("emissions_dir")
    if entry is not None:
        emissions_dir = (base / entry[0]).resolve()
        if not emissions_dir.is_dir():
            raise ConfigError(f"emissions_dir {emissions_dir} does not exist",
                              entry[1])

    entry = take("stages")
    stages = tuple(entry[0].split()) if entry else STAGES

    entry = take("languages")
    if entry:
        languages = tuple(sorted(entry[0].split()))
    else:
        languages = None

    for key in ("min_duration_s", "max_duration_s", "max_gap_s",
                "max_symbol_fraction"):
        entry = take(key)
        if entry is not None:
            filter_kwargs[key] = _parse_float(entry[0], key, entry[1])
    if languages is not None:
        filter_kwargs["languages"] = languages
    try:
        if languages is not None:
            profiles = load_profiles(languages, profiles_dir)
        else:
            profiles = load_profiles(profiles_dir=profiles_dir)
    except ProfileError as exc:
        raise ConfigError(str(exc)) from exc
    filter_config = FilterConfig(profiles=profiles, **filter_kwargs)

    adapter = None
    if adapter_map or adapter_defaults or adapter_source:
        if not adapter_source:
            raise ConfigError("adapter.map.* given without adapter.source")
        adapter = SourceAdapterSpec(source=adapter_source,
                                    field_map=adapter_map,
                                    defaults=adapter_defaults)

    entry = take("shard_count")
    shard_count = _parse_int(entry[0], "shard_count", entry[1]) if entry else 1
    entry = take("workers")
    workers = _parse_int(entry[0], "workers", entry[1]) if entry else 1
    entry = take("split_zh_chars")
    split_zh = _parse_bool(entry[0], "split_zh_chars", entry[1]) if entry else False
    entry = take("score_mode")
    score_mode = entry[0] if entry else "geometric"
    if score_mode not in ("geometric", "arithmetic"):
        raise ConfigError(f"score_mode must be geometric or arithmetic, "
                          f"got {score_mode!r}")

    return PipelineConfig(
        input_path=input_path,
        output_dir=output_dir,
        stages=stages,
        filter_config=filter_config,
        profiles=profiles,
        emissions_dir=emissions_dir,
        adapter=adapter,
        shard_count=shard_count,
        split_zh_chars=split_zh,
        score_mode=score_mode,
        workers=workers,
    )


# ---------------------------------------------------------------- stages

@dataclass
class _StageOutcome:
    record: UtteranceRecord | None    # None when rejected
    reasons: tuple[str, ...] = ()
    error: Exception | None = None    # explains a rejection; None for a filter verdict


class Rejection(NamedTuple):
    """A record a stage dropped, why, and the error that explains it."""

    key: str
    stage: str
    reasons: tuple[str, ...]
    error: Exception | None


def _stage_normalize(record: UtteranceRecord,
                     config: PipelineConfig) -> _StageOutcome:
    profile = config.profiles.get(record.language)
    if profile is None:
        return _StageOutcome(None, ("bad_language",), ManifestError(
            f"no profile for language {record.language!r}", key=record.key))
    try:
        normalized = normalize(record.raw_text, profile)
    except EmptyTextError as exc:
        return _StageOutcome(None, ("empty_text",), exc)
    return _StageOutcome(replace(record, normalized_text=normalized))


def _stage_romanize(record: UtteranceRecord,
                    config: PipelineConfig) -> _StageOutcome:
    text = record.normalized_text or record.raw_text
    try:
        tokens = romanize(text, record.language,
                          split_zh_chars=config.split_zh_chars)
    except UnmappableCharacterError as exc:
        return _StageOutcome(None, ("unmappable_char",), exc)
    if not tokens:
        return _StageOutcome(None, ("empty_text",), EmptyTextError(
            f"record {record.key!r}: romanization left no tokens"))
    return _StageOutcome(replace(record, romanized_tokens=tuple(tokens)))


def _stage_align(records: list[UtteranceRecord],
                 config: PipelineConfig) -> list[_StageOutcome]:
    """Align consecutive records together, in groups of bounded memory."""
    def jobs():
        for record in records:
            emissions = outcome = None
            try:
                path = find_emissions(config.emissions_dir, record.key)
                if path is None:
                    outcome = _StageOutcome(None, ("missing_emissions",), AlignmentError(
                        f"no emissions for key {record.key!r} under "
                        f"{config.emissions_dir}"))
                elif not record.romanized_tokens:
                    outcome = _StageOutcome(None, ("empty_text",), ManifestError(
                        "no romanized_tokens; normalize first", key=record.key))
                else:
                    emissions = load_emissions(path)
            except EmissionFormatError as exc:
                outcome = _StageOutcome(None, ("bad_emissions",), exc)
            except Exception as exc:
                raise PipelineStageError("align", record.key, str(exc)) from exc
            yield (record, outcome), emissions, record.romanized_tokens

    outcomes: list[_StageOutcome] = []
    try:
        for (record, outcome), result in align_grouped(
                jobs(), score_mode=config.score_mode):
            if outcome is not None:
                outcomes.append(outcome)
            elif isinstance(result, AlignmentError):
                outcomes.append(_StageOutcome(None, ("unalignable",), result))
            else:
                outcomes.append(_StageOutcome(
                    with_words(record, result.words, result.score)))
    except PipelineError:
        raise
    except Exception as exc:
        # A fault inside the kernel belongs to the group that holds the
        # first record without an outcome.
        raise PipelineStageError("align", records[len(outcomes)].key,
                                 f"aligning its group: {exc}") from exc
    return outcomes


def _stage_filter(record: UtteranceRecord,
                  config: PipelineConfig) -> _StageOutcome:
    verdict = run_chain(record, config.filter_config)
    if verdict.passed:
        return _StageOutcome(record)
    return _StageOutcome(None, verdict.reasons)


# Stages that handle one record at a time; align takes the whole list.
_STAGE_FNS = {
    "normalize": _stage_normalize,
    "romanize": _stage_romanize,
    "filter": _stage_filter,
}


def run_stage(stage: str, records: list[UtteranceRecord], config: PipelineConfig
              ) -> tuple[list[UtteranceRecord], list[Rejection]]:
    """Run one stage over records: its survivors and its rejections, in input order.

    A record the stage cannot handle for a reason that is not a rejection
    raises PipelineStageError.
    """
    if stage == "align":
        outcomes = _stage_align(records, config)
    else:
        fn = _STAGE_FNS[stage]

        def run_one(record: UtteranceRecord) -> _StageOutcome:
            try:
                return fn(record, config)
            except (PipelineError, ManifestError):
                raise
            except Exception as exc:
                raise PipelineStageError(stage, record.key, str(exc)) from exc

        outcomes = parallel_map(run_one, records, config.workers)
    survivors: list[UtteranceRecord] = []
    rejections: list[Rejection] = []
    for record, outcome in zip(records, outcomes):
        if outcome.record is not None:
            survivors.append(outcome.record)
        else:
            rejections.append(Rejection(record.key, stage, outcome.reasons,
                                        outcome.error))
    return survivors, rejections


def write_rejections(rejections: Iterable[Rejection], path: str | Path) -> None:
    """Write one JSON line per rejection (key, stage, reasons), sorted by key."""
    with atomic_write(path) as handle:
        for rejection in sorted(rejections, key=lambda r: r.key):
            handle.write(json.dumps({"key": rejection.key,
                                     "stage": rejection.stage,
                                     "reasons": list(rejection.reasons)},
                                    sort_keys=True, ensure_ascii=False) + "\n")


# ------------------------------------------------------------ orchestration

def ingest(path: str | Path,
           adapter: SourceAdapterSpec | None) -> list[UtteranceRecord]:
    """Read a manifest, or with an adapter, map each JSON row to a record.

    Errors carry the line number of the offending row; a key that repeats
    is an error.
    """
    if adapter is None:
        return list(read_manifest(path))
    records = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"invalid JSON: {exc.msg}",
                                    line_no=line_no) from exc
            record = adapt(row, adapter, line_no=line_no)
            if record.key in seen:
                raise ManifestError("duplicate key", line_no=line_no,
                                    key=record.key)
            seen.add(record.key)
            records.append(record)
    return records


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True,
                                ensure_ascii=False) + "\n")


def run_pipeline(config: PipelineConfig,
                 progress: Callable[[str], None] | None = None) -> dict:
    """Run the configured stages over the input manifest.

    Writes one manifest per stage, a rejection list, corpus stats for the
    survivors, and a summary with per-stage counts and a rejection
    histogram. Returns the summary dict. Rerunning with identical inputs
    and configuration produces byte-identical files.
    """
    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    config.output_dir.mkdir(parents=True, exist_ok=True)
    records = ingest(config.input_path, config.adapter)
    n_input = len(records)
    note(f"ingest: {n_input} records")

    stage_counts: dict[str, dict[str, int]] = {}
    histogram: dict[str, int] = {}
    rejections: list[Rejection] = []

    for stage in config.stages:
        survivors, rejected = run_stage(stage, records, config)
        for rejection in rejected:
            for reason in rejection.reasons:
                histogram[reason] = histogram.get(reason, 0) + 1
        rejections += rejected
        stage_counts[stage] = {"in": len(records), "out": len(survivors)}
        write_manifest(survivors, config.output_dir / f"{stage}.jsonl")
        note(f"{stage}: {len(records)} in, {len(survivors)} out")
        records = survivors

    write_rejections(rejections, config.output_dir / "rejections.jsonl")

    stats = compute_stats(records)
    _write_json(config.output_dir / "stats.json", stats_to_json_dict(stats))

    if config.shard_count > 1:
        assignment = shard(records, config.shard_count)
        write_shards(records, assignment, config.output_dir, "shard_")
        note(f"shard: {config.shard_count} shards, "
             f"{max(assignment.durations, default=0.0):.1f}s max")

    summary = {
        "input_records": n_input,
        "output_records": len(records),
        "stages": list(config.stages),
        "stage_counts": stage_counts,
        "rejections": dict(sorted(histogram.items())),
    }
    _write_json(config.output_dir / "summary.json", summary)
    note(f"done: {summary['output_records']} records pass")
    return summary
