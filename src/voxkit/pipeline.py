"""End-to-end corpus pipeline: ingest, normalize, romanize, align, filter.

Stages communicate through manifests on disk so any stage can be rerun or
distributed on its own. Everything here is deterministic: outputs are a pure
function of the inputs and the configuration, with no timestamps and all
JSON keys sorted, so reruns are byte-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO, TypeVar

from . import manifest
from .aligner import (SCORE_MODES, AlignmentError, AlignmentResult,
                      EmissionFormatError, EmissionMatrix, align_grouped,
                      find_emissions, load_emissions)
from .curate import compute_stats, stats_to_json_dict
from .manifest import (AdapterError, ManifestError, SchemaError, SourceAdapterSpec,
                       UtteranceRecord, is_integer, read_manifest, with_words,
                       write_json, write_json_lines, write_manifest)
from .quality import FilterConfig, QualityError, run_chain
from .textnorm import (EmptyTextError, LanguageProfile, ProfileError,
                       UnmappableCharacterError, load_profiles, normalize,
                       romanize)

STAGES = ("normalize", "romanize", "align", "filter")

T = TypeVar("T")


class PipelineError(Exception):
    pass


class ConfigError(PipelineError):
    """A bad setting; key names the config-file key it came from, if known."""

    def __init__(self, message: str, line_no: int | None = None,
                 key: str | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
        self.key = key


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
                 out_dir: Path, prefix: str = "shard_",
                 lines: Mapping[int, str] | None = None) -> None:
    """Write each shard's records, sorted by key, to out_dir/{prefix}NNN.jsonl;
    lines, if given, is passed on to write_manifest."""
    by_key = {r.key: r for r in records}
    for index in range(assignment.n_shards):
        keys = assignment.keys_for(index)
        write_manifest([by_key[k] for k in keys], out_dir / f"{prefix}{index:03d}.jsonl",
                       lines)


# ------------------------------------------------------------ configuration

@dataclass(frozen=True)
class PipelineConfig:
    """Everything run_pipeline needs, resolved and validated.

    The three paths may be given as strings; they are stored as Path.
    profiles and filter_config.profiles are one mapping, the languages that
    normalize and the filter accept: given on either side, it serves both,
    and two different mappings are a ConfigError.
    """

    input_path: Path
    output_dir: Path
    stages: tuple[str, ...] = STAGES
    filter_config: FilterConfig = field(default_factory=FilterConfig)
    profiles: Mapping[str, LanguageProfile] | None = None
    emissions_dir: Path | None = None
    adapter: SourceAdapterSpec | None = None
    shard_count: int = 1
    split_zh_chars: bool = False
    score_mode: str = "geometric"
    # Accepted and checked, but it selects nothing: every stage runs in the
    # calling thread. Callers and config files that set it keep working.
    workers: int = 1

    def __post_init__(self):
        for name in ("input_path", "output_dir", "emissions_dir"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, Path(value))
        if isinstance(self.stages, str):
            raise ConfigError(f"stages must be a sequence of stage names, not the "
                              f"string {self.stages!r}", key="stages")
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.profiles and not self.filter_config.profiles:
            object.__setattr__(self, "filter_config",
                               replace(self.filter_config, profiles=self.profiles))
        elif self.profiles and self.profiles != self.filter_config.profiles:
            raise ConfigError("profiles and filter_config.profiles differ; give "
                              "the language set once", key="profiles")
        object.__setattr__(self, "profiles", self.filter_config.profiles)
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be {' or '.join(SCORE_MODES)}, "
                              f"got {self.score_mode!r}", key="score_mode")
        for stage in self.stages:
            if stage not in STAGES:
                raise ConfigError(f"unknown stage {stage!r}; valid: "
                                  f"{', '.join(STAGES)}", key="stages")
        if len(set(self.stages)) != len(self.stages):
            raise ConfigError("stages listed more than once", key="stages")
        if "align" in self.stages and self.emissions_dir is None:
            raise ConfigError("align stage requires emissions_dir", key="stages")
        if self.emissions_dir is not None and not self.emissions_dir.is_dir():
            raise ConfigError(f"emissions_dir {self.emissions_dir} is not a "
                              f"directory", key="emissions_dir")
        if self.stages != tuple(sorted(self.stages, key=STAGES.index)):
            raise ConfigError(f"stages must run in the order {' '.join(STAGES)}, "
                              f"got {' '.join(self.stages)}", key="stages")
        for name in ("shard_count", "workers"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}", key=name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}", key=name)


def _read_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(value)


# The plain keys of a config file: key -> (the settings it goes to, the
# setting, its reader, and what the error for a value the reader rejects
# says the key expects). A key that is not given keeps the library default.
_PLAIN_KEYS = {
    "input": (PipelineConfig, "input_path", Path, None),
    "output_dir": (PipelineConfig, "output_dir", Path, None),
    "emissions_dir": (PipelineConfig, "emissions_dir", Path, None),
    "stages": (PipelineConfig, "stages", str.split, None),
    "shard_count": (PipelineConfig, "shard_count", int, "an integer"),
    "workers": (PipelineConfig, "workers", int, "an integer"),
    "split_zh_chars": (PipelineConfig, "split_zh_chars", _read_bool, "true/false"),
    "score_mode": (PipelineConfig, "score_mode", str, None),
    "languages": (load_profiles, "languages", str.split, None),
    "min_duration_s": (FilterConfig, "min_duration_s", float, "a number"),
    "max_duration_s": (FilterConfig, "max_duration_s", float, "a number"),
    "max_gap_s": (FilterConfig, "max_gap_s", float, "a number"),
    "max_symbol_fraction": (FilterConfig, "max_symbol_fraction", float, "a number"),
}


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
    `voxkit curate-eval`. A key that is not given keeps the default of the
    setting it stands for; `languages` chooses the profiles that load, and
    those are the languages the pipeline accepts.
    """
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The line the bad byte is on, as splitlines below numbers lines.
        head = exc.object[:exc.start].decode("utf-8")
        raise ConfigError(manifest.not_utf8(exc), len(f"{head}.".splitlines())) from exc

    settings: dict = {PipelineConfig: {}, FilterConfig: {}, load_profiles: {}}
    line_of: dict[str, int] = {}
    adapter_map: dict[str, str] = {}
    adapter_defaults: dict[str, str] = {}
    adapter_source: str | None = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"empty key or value in {line!r}", line_no)
        if key in line_of:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        line_of[key] = line_no
        if key.startswith("threshold."):
            try:
                add_threshold(settings[FilterConfig], key[len("threshold."):], value)
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
        elif key in _PLAIN_KEYS:
            target, name, reader, expects = _PLAIN_KEYS[key]
            try:
                settings[target][name] = reader(value)
            except ValueError:
                raise ConfigError(f"{key} expects {expects}, got {value!r}",
                                  line_no) from None
        else:
            raise ConfigError(f"unknown key {key!r}", line_no)

    for key in ("input", "output_dir"):
        if key not in line_of:
            raise ConfigError(f"missing required key {key!r}")
    pipeline_kwargs = settings[PipelineConfig]
    for name in ("input_path", "output_dir", "emissions_dir"):
        if name in pipeline_kwargs:
            pipeline_kwargs[name] = (base / pipeline_kwargs[name]).resolve()
    if not pipeline_kwargs["input_path"].exists():
        raise ConfigError(f"input manifest {pipeline_kwargs['input_path']} does "
                          f"not exist", line_of["input"])

    if (adapter_map or adapter_defaults) and not adapter_source:
        raise ConfigError("adapter.map.* given without adapter.source")

    try:
        if adapter_source:
            pipeline_kwargs["adapter"] = SourceAdapterSpec(
                source=adapter_source, field_map=adapter_map,
                defaults=adapter_defaults)
        profiles = load_profiles(**settings[load_profiles], profiles_dir=profiles_dir)
        filter_config = FilterConfig(profiles=profiles, **settings[FilterConfig])
        return PipelineConfig(filter_config=filter_config, **pipeline_kwargs)
    except (ConfigError, QualityError) as exc:
        raise ConfigError(str(exc), line_of.get(exc.key), key=exc.key) from None
    except ProfileError as exc:
        raise ConfigError(str(exc), line_of.get("languages")) from exc
    except AdapterError as exc:
        # A field no adapter fills is refused on its own line; a required
        # field that nothing reaches, on the adapter's.
        key = next((key for key in (f"adapter.map.{exc.field_name}",
                                    f"adapter.default.{exc.field_name}")
                    if key in line_of), "adapter.source")
        raise ConfigError(str(exc), line_of[key], key=key) from None


# ---------------------------------------------------------------- stages

class Rejection(NamedTuple):
    """A record a stage dropped, why, and the error that explains it."""

    key: str
    stage: str
    reasons: tuple[str, ...]
    error: Exception | None


def _stage_normalize(record: UtteranceRecord,
                     config: PipelineConfig) -> UtteranceRecord | Rejection:
    profile = config.profiles.get(record.language)
    if profile is None:
        return Rejection(record.key, "normalize", ("bad_language",), ManifestError(
            f"no profile for language {record.language!r}", key=record.key))
    try:
        normalized = normalize(record.raw_text, profile)
    except EmptyTextError as exc:
        return Rejection(record.key, "normalize", ("empty_text",), exc)
    return replace(record, normalized_text=normalized)


def _stage_romanize(record: UtteranceRecord,
                    config: PipelineConfig) -> UtteranceRecord | Rejection:
    text = record.normalized_text or record.raw_text
    try:
        tokens = romanize(text, record.language,
                          split_zh_chars=config.split_zh_chars)
    except UnmappableCharacterError as exc:
        return Rejection(record.key, "romanize", ("unmappable_char",), exc)
    if not tokens:
        return Rejection(record.key, "romanize", ("empty_text",), EmptyTextError(
            f"record {record.key!r}: romanization left no tokens"))
    return replace(record, romanized_tokens=tuple(tokens))


def _stage_align(records: list[UtteranceRecord], config: PipelineConfig
                 ) -> list[UtteranceRecord | Rejection]:
    """Align consecutive records together, in groups of bounded memory; a
    record without usable emissions is rejected here and never reaches the kernel."""
    outcomes: list = [None] * len(records)

    def jobs():
        for index, record in enumerate(records):
            emissions = _run_record("align", _emissions_for, record, config)
            if isinstance(emissions, Rejection):
                outcomes[index] = emissions
            else:
                yield index, emissions, record.romanized_tokens

    try:
        for index, result in align_grouped(jobs(), score_mode=config.score_mode):
            outcomes[index] = _aligned(records[index], result)
    except _DATA_ERRORS:
        raise
    except Exception as exc:
        # A fault inside the kernel belongs to the group that holds the
        # first record without an outcome.
        raise PipelineStageError("align", records[outcomes.index(None)].key,
                                 f"aligning its group: {exc}") from exc
    return outcomes


def _emissions_for(record: UtteranceRecord,
                   config: PipelineConfig) -> EmissionMatrix | Rejection:
    try:
        path = find_emissions(config.emissions_dir, record.key)
    except AlignmentError as exc:
        return Rejection(record.key, "align", ("missing_emissions",), exc)
    if path is None:
        return Rejection(record.key, "align", ("missing_emissions",), AlignmentError(
            f"no emissions for key {record.key!r} under {config.emissions_dir}"))
    if not record.romanized_tokens:
        return Rejection(record.key, "align", ("empty_text",), ManifestError(
            "no romanized_tokens; normalize first", key=record.key))
    try:
        return load_emissions(path)
    except EmissionFormatError as exc:
        return Rejection(record.key, "align", ("bad_emissions",), exc)


def _aligned(record: UtteranceRecord, result: AlignmentResult | AlignmentError
             ) -> UtteranceRecord | Rejection:
    """The record with its alignment; rejected as unalignable when the kernel
    found no path, or as bad_emissions when the emissions do not fit the
    record (say, they run past its duration)."""
    if isinstance(result, AlignmentError):
        return Rejection(record.key, "align", ("unalignable",), result)
    try:
        return with_words(record, result.words, result.score)
    except SchemaError as exc:
        error = EmissionFormatError(f"emissions for key {record.key!r} do not "
                                    f"fit the record: {exc}")
        error.__cause__ = exc
        return Rejection(record.key, "align", ("bad_emissions",), error)


def _stage_filter(record: UtteranceRecord,
                  config: PipelineConfig) -> UtteranceRecord | Rejection:
    verdict = run_chain(record, config.filter_config)
    return (record if verdict.passed
            else Rejection(record.key, "filter", verdict.reasons, None))


# Stages that handle one record at a time, handing back the record they pass
# on or its Rejection; align does the same for the whole list.
_STAGE_FNS = {
    "normalize": _stage_normalize,
    "romanize": _stage_romanize,
    "filter": _stage_filter,
}


# Errors in the data or the settings; every stage lets them through as they are.
_DATA_ERRORS = (PipelineError, ManifestError, QualityError)


def _run_record(stage: str, fn: Callable[[UtteranceRecord, PipelineConfig], T],
                record: UtteranceRecord, config: PipelineConfig) -> T:
    """fn(record, config), with a fault that is not one of _DATA_ERRORS
    raised as a PipelineStageError that names the stage and the record."""
    try:
        return fn(record, config)
    except _DATA_ERRORS:
        raise
    except Exception as exc:
        raise PipelineStageError(stage, record.key, str(exc)) from exc


def _drop_tracebacks(error: BaseException | None) -> None:
    """Clear the traceback of error and of every error in its __cause__ and
    __context__ chain, so a kept error holds no stack frame or its locals
    (such as the bytes of an archive that failed to load)."""
    pending, seen = [error], set()
    while pending:
        error = pending.pop()
        if error is not None and id(error) not in seen:
            seen.add(id(error))
            error.__traceback__ = None
            pending += (error.__cause__, error.__context__)


def run_stage(stage: str, records: list[UtteranceRecord], config: PipelineConfig
              ) -> tuple[list[UtteranceRecord], list[Rejection]]:
    """Run one stage over records: its survivors and its rejections, in input order.

    A record the stage cannot handle for a reason that is not a rejection
    raises PipelineStageError. The error of a rejection, and every error it
    chains to, comes back without its traceback.
    """
    if stage == "align":
        outcomes = _stage_align(records, config)
    else:
        fn = _STAGE_FNS[stage]
        outcomes = [_run_record(stage, fn, record, config) for record in records]
    rejections = [outcome for outcome in outcomes if isinstance(outcome, Rejection)]
    for rejection in rejections:
        _drop_tracebacks(rejection.error)
    return ([outcome for outcome in outcomes if not isinstance(outcome, Rejection)],
            rejections)


def write_rejections(rejections: Iterable[Rejection],
                     path: str | Path | TextIO) -> None:
    """Write one JSON line per rejection (key, stage, reasons), sorted by key."""
    write_json_lines(path, ({"key": r.key, "stage": r.stage, "reasons": list(r.reasons)}
                            for r in sorted(rejections, key=lambda r: r.key)))


# ------------------------------------------------------------ orchestration

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

    records = list(read_manifest(config.input_path, config.adapter))
    n_input = len(records)
    note(f"ingest: {n_input} records")

    stage_counts: dict[str, dict[str, int]] = {}
    histogram: dict[str, int] = {}
    rejections: list[Rejection] = []

    # id(record) -> its line in the last stage manifest. A record that
    # survives a stage unchanged (the filter passes the very objects align
    # made) and every sharded record is written with that line, so it is
    # encoded once per run. Each key is the id of a record that records
    # holds, so no id can pass to another object while the dict lives.
    lines: dict[int, str] = {}
    for stage in config.stages:
        survivors, rejected = run_stage(stage, records, config)
        for rejection in rejected:
            for reason in rejection.reasons:
                histogram[reason] = histogram.get(reason, 0) + 1
        rejections += rejected
        stage_counts[stage] = {"in": len(records), "out": len(survivors)}
        lines = {id(r): lines.get(id(r)) or manifest.record_to_line(r) for r in survivors}
        write_manifest(survivors, config.output_dir / f"{stage}.jsonl", lines)
        note(f"{stage}: {len(records)} in, {len(survivors)} out")
        records = survivors

    write_rejections(rejections, config.output_dir / "rejections.jsonl")

    stats = compute_stats(records)
    write_json(config.output_dir / "stats.json", stats_to_json_dict(stats))

    if config.shard_count > 1:
        assignment = shard(records, config.shard_count)
        write_shards(records, assignment, config.output_dir, lines=lines)
        note(f"shard: {config.shard_count} shards, "
             f"{max(assignment.durations, default=0.0):.1f}s max")

    summary = {
        "input_records": n_input,
        "output_records": len(records),
        "stages": list(config.stages),
        "stage_counts": stage_counts,
        "rejections": dict(sorted(histogram.items())),
    }
    write_json(config.output_dir / "summary.json", summary)
    note(f"done: {summary['output_records']} records pass")
    return summary
