"""Corpus curation and generation control for speech synthesis pipelines.

The package covers the data side of a multilingual TTS system: JSONL
manifests, language-aware text normalization and romanization, CTC forced
alignment with word confidences, rule-based quality filtering, evaluation
set curation, corpus statistics, and duration-balanced sharding. A second
group of modules provides the closed-form inference controls: guidance and
sampling schedules, repetition penalties, the re-generation retry loop,
and chunked synthesis with cross-fade stitching.
"""

from .aligner import (
    BLANK_TOKEN,
    AlignmentError,
    AlignmentResult,
    EmissionFormatError,
    EmissionMatrix,
    InfeasibleAlignmentError,
    UnknownTokenError,
    align_batch,
    find_emissions,
    force_align,
    load_emissions,
    min_frames_required,
    save_emissions,
    unaligned_gaps,
)
from .audio import AudioFormatError, read_wav, write_wav
from .curate import (
    CorpusStats,
    CurationError,
    EligibilityVerdict,
    EvalCriteria,
    LanguageStats,
    TrimInstruction,
    compute_stats,
    count_words,
    eligible,
    render_stats_table,
    select_eval,
    stats_from_totals,
    stats_to_json_dict,
    trim_trailing_silence,
)
from .editctl import (
    EditControlError,
    GenerationOutcome,
    PenaltyParams,
    RegenController,
    RegenDecision,
    SplicePoint,
    StitchError,
    StitchPlan,
    apply_penalty,
    avg_speed,
    chunk,
    penalty_factor,
    regen_step,
    run_regen,
    stitch,
)
from .flowsched import (
    GuidanceParams,
    ScheduleError,
    SwayParams,
    cfg_combine,
    cfg_strength,
    schedule_table,
    sway_grid,
)
from .manifest import (
    DuplicateKeyError,
    ManifestError,
    SchemaError,
    SourceAdapterSpec,
    UtteranceRecord,
    WordSpan,
    adapt,
    read_manifest,
    record_from_json_dict,
    record_to_line,
    validate_record,
    with_words,
    write_manifest,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    PipelineError,
    PipelineStageError,
    ShardAssignment,
    load_pipeline_config,
    run_pipeline,
    shard,
)
from .quality import (
    FilterConfig,
    FilterVerdict,
    InsufficientDataError,
    MissingConfidenceError,
    QualityError,
    fit_ratio_bounds,
    run_chain,
)
from .textnorm import (
    CharsetVerdict,
    EmptyTextError,
    LanguageProfile,
    NumberExpansionError,
    PauseTagging,
    ProfileError,
    SUPPORTED_LANGUAGES,
    UnmappableCharacterError,
    char_ratio,
    load_profile,
    load_profiles,
    normalize,
    number_to_words,
    pause_tags,
    romanize,
    validate_charset,
)

__version__ = "0.1.0"
