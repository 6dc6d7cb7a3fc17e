"""Command-line entry points for the corpus pipeline and control kernels.

Exit codes: 0 success, 1 usage error, 2 data error (malformed manifests,
profiles, or configuration), 3 stage failure (alignment, stitching, or a
pipeline stage blowing up). Progress goes to standard error so stdout stays
clean for piped data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import editctl, flowsched
from .aligner import SCORE_MODES, AlignmentError
from .audio import AudioFormatError, read_wav, write_wav
from .curate import (CurationError, EvalCriteria, compute_stats, eligible,
                     render_stats_table, select_eval, stats_to_json_dict,
                     trim_trailing_silence)
from .manifest import (ManifestError, SourceAdapterSpec, json_document,
                       read_manifest, write_json, write_json_lines,
                       write_manifest)
from .pipeline import (ConfigError, PipelineConfig, PipelineError,
                       PipelineStageError, add_threshold, run_stage, shard,
                       write_rejections, write_shards)
from .quality import FilterConfig, QualityError, fit_ratio_bounds
from .textnorm import (EmptyTextError, ProfileError, UnmappableCharacterError,
                       load_profiles)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_STAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; remap usage problems to 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_kv(pairs: list[str], flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"{flag} expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _given(args, *options: str, **renamed: str) -> dict:
    """Keyword arguments for the options the user set.

    An option left unset is None and keeps the library default. renamed
    maps a parameter to the option that sets it.
    """
    names = {option: option for option in options} | renamed
    return {param: getattr(args, option) for param, option in names.items()
            if getattr(args, option) is not None}


# ---------------------------------------------------------------- commands

def _cmd_ingest(args) -> int:
    adapter = None
    if args.source or args.map or args.default:
        if not args.source:
            raise UsageError("--map/--default require --source")
        adapter = SourceAdapterSpec(source=args.source,
                                    field_map=_parse_kv(args.map, "--map"),
                                    defaults=_parse_kv(args.default, "--default"))
    count = write_manifest(read_manifest(args.input, adapter), args.output)
    _progress(f"ingest: wrote {count} records to {args.output}")
    return EXIT_OK


def _run_stages(args, stages: tuple[str, ...], *, skip_failed: bool = False,
                rejects: str | None = None, **settings) -> int:
    """Run pipeline stages over --input and write the survivors to --output.

    A record a stage rejects raises the error that explains it, unless
    skip_failed is set. Filter verdicts carry no error and are never raised.
    """
    config = PipelineConfig(input_path=args.input,
                            output_dir=Path(args.output).parent,
                            stages=stages, **settings)
    records = list(read_manifest(config.input_path))
    rejections = []
    for stage in stages:
        records, rejected = run_stage(stage, records, config)
        errors = [r.error for r in rejected if r.error is not None]
        if errors and not skip_failed:
            raise errors[0]
        rejections += rejected
    count = write_manifest(records, args.output)
    if rejects:
        write_rejections(rejections, rejects)
    note = f", skipped {len(rejections)}" if rejections else ""
    _progress(f"{args.command}: wrote {count} records{note}")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    stages = ("normalize",) if args.no_romanize else ("normalize", "romanize")
    return _run_stages(args, stages, skip_failed=args.skip_failed,
                       profiles=load_profiles(profiles_dir=args.profiles),
                       split_zh_chars=args.split_zh_chars)


def _cmd_align(args) -> int:
    return _run_stages(args, ("align",), skip_failed=args.skip_failed,
                       emissions_dir=args.emissions, **_given(args, "score_mode"))


def _filter_config_from_args(args) -> FilterConfig:
    kwargs = _given(args, "min_duration_s", "max_duration_s", "max_gap_s")
    for spec, value in _parse_kv(args.threshold, "--threshold").items():
        try:
            add_threshold(kwargs, spec, value)
        except ValueError as exc:
            raise UsageError(f"--threshold: {exc}") from None
    profiles = load_profiles(profiles_dir=args.profiles)
    return FilterConfig(profiles=profiles, **kwargs)


def _cmd_filter(args) -> int:
    return _run_stages(args, ("filter",), rejects=args.rejects,
                       filter_config=_filter_config_from_args(args))


def _cmd_fit_bounds(args) -> int:
    records = [r for r in read_manifest(args.input)
               if r.language == args.language]
    low, high = fit_ratio_bounds(records, args.language,
                                 **_given(args, "percentile"))
    print(json.dumps({"language": args.language, "min_ratio": low,
                      "max_ratio": high}, sort_keys=True))
    return EXIT_OK


def _cmd_curate_eval(args) -> int:
    criteria = EvalCriteria(**_given(
        args, "min_confidence", "min_words", "min_duration_s", "max_duration_s",
        "trailing_silence_s", target_per_language="target"))
    pools: dict[str, list] = {}
    trims = []
    for record in read_manifest(args.input):
        if not record.words or record.avg_confidence is None:
            continue
        record, trim = trim_trailing_silence(record, criteria)
        if trim is not None:
            trims.append(trim)
        if eligible(record, criteria):
            pools.setdefault(record.language, []).append(record)
    selections = {language: select_eval(pools[language], criteria)
                  for language in sorted(pools)}
    selected = [record for chosen in selections.values() for record in chosen]
    count = write_manifest(selected, args.output)
    if args.trims:
        write_json_lines(args.trims, trims)
    per_lang = ", ".join(f"{lang}: {len(chosen)}"
                         for lang, chosen in selections.items())
    _progress(f"curate-eval: selected {count} ({per_lang or 'none eligible'})")
    return EXIT_OK


def _cmd_stats(args) -> int:
    stats = compute_stats(read_manifest(args.input))
    if args.json:
        sys.stdout.write(json_document(stats_to_json_dict(stats)))
    else:
        print(render_stats_table(stats))
    return EXIT_OK


def _cmd_shard(args) -> int:
    if args.shards < 1:
        raise UsageError(f"--shards must be >= 1, got {args.shards}")
    records = list(read_manifest(args.input))
    assignment = shard(records, args.shards)
    out_dir = Path(args.output_dir)
    write_shards(records, assignment, out_dir, **_given(args, "prefix"))
    write_json(out_dir / "assignment.json", {
        "n_shards": assignment.n_shards,
        "durations_s": [round(d, 3) for d in assignment.durations],
        "assignment": assignment.shard_of,
    })
    spread = (max(assignment.durations) - min(assignment.durations)
              if records else 0.0)
    _progress(f"shard: {len(records)} records into {args.shards} shards, "
              f"spread {spread:.3f}s")
    return EXIT_OK


def _cmd_sched(args) -> int:
    guidance = flowsched.GuidanceParams(**_given(args, "strength"))
    sway = flowsched.SwayParams(**_given(args, "gamma", "steps"))
    rows = flowsched.schedule_table(guidance, sway)
    if args.json:
        payload = [{"step": k, "uniform": s, "warped": t, "guidance": g}
                   for k, s, t, g in rows]
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'step':>4}  {'uniform':>10}  {'warped':>10}  {'guidance':>10}")
        for k, s, t, g in rows:
            print(f"{k:>4}  {s:>10.6f}  {t:>10.6f}  {g:>10.6f}")
    return EXIT_OK


def _cmd_editsim(args) -> int:
    controller = editctl.RegenController(
        avg_speed=args.avg_speed,
        target_tokens=args.target_tokens,
        mask_start=args.mask[0],
        mask_end=args.mask[1],
        **_given(args, "max_rounds"),
    )
    if not args.flags or set(args.flags) - {"0", "1"}:
        raise UsageError(f"--flags must be a string of 0s and 1s, "
                         f"got {args.flags!r}")
    flags = [ch == "1" for ch in args.flags]
    if args.frames:
        try:
            frames = [int(f) for f in args.frames.split(",")]
        except ValueError:
            raise UsageError(f"--frames must be comma-separated integers, "
                             f"got {args.frames!r}") from None
        if len(frames) != len(flags):
            raise UsageError(f"--frames gives {len(frames)} attempts but "
                             f"--flags gives {len(flags)}")
    else:
        frames = [int(controller.expected_frames)] * len(flags)
    outcomes = [editctl.GenerationOutcome(generated_frames=f, re_gen_flag=b)
                for f, b in zip(frames, flags)]
    decisions = editctl.run_regen(controller, outcomes)
    trace = []
    state = controller
    for decision in decisions:
        trace.append({
            "round": state.round,
            "action": decision.action,
            "too_short": decision.too_short,
            "flagged": decision.flagged,
            "mask": [decision.controller.mask_start,
                     decision.controller.mask_end],
            "repetition_penalty":
                decision.controller.penalty.repetition_penalty,
        })
        state = decision.controller
    print(json.dumps(trace, indent=2))
    return EXIT_OK


def _cmd_stitch(args) -> int:
    segments = []
    rate = None
    for path in args.inputs:
        samples, sample_rate = read_wav(path)
        if rate is None:
            rate = sample_rate
        elif sample_rate != rate:
            raise editctl.StitchError(f"{path} has rate {sample_rate}, "
                                      f"expected {rate}")
        segments.append(samples)
    out, plan = editctl.stitch(segments, rate, args.fade_s, args.overlap_s)
    write_wav(args.output, out, rate)
    if args.plan:
        write_json(args.plan, plan)
    _progress(f"stitch: wrote {len(out)} samples at {rate} Hz to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="voxkit",
                     description="Corpus curation and generation control "
                                 "for speech synthesis pipelines.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("ingest", _cmd_ingest, "convert source rows to a manifest")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--source", help="source tag for adapted rows")
    p.add_argument("--map", action="append", default=[], metavar="FIELD=KEY",
                   help="manifest field taken from this source key")
    p.add_argument("--default", action="append", default=[],
                   metavar="FIELD=VALUE", help="constant manifest field")

    p = add("normalize", _cmd_normalize, "normalize and romanize transcripts")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--profiles", help="directory of language profiles; the "
                   "languages it holds are the ones accepted")
    p.add_argument("--no-romanize", action="store_true")
    p.add_argument("--split-zh-chars", action="store_true",
                   help="one romanized token per CJK character")
    p.add_argument("--skip-failed", action="store_true",
                   help="drop records that fail instead of aborting")

    p = add("align", _cmd_align, "force-align words against emissions")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--emissions", required=True,
                   help="directory of per-key emission files")
    p.add_argument("--score-mode", choices=SCORE_MODES)
    p.add_argument("--skip-failed", action="store_true",
                   help="drop unalignable records instead of aborting")

    p = add("filter", _cmd_filter, "apply the quality filter chain")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--rejects", help="write rejected keys and reasons here")
    p.add_argument("--profiles", help="directory of language profiles; the "
                   "languages it holds are the ones accepted")
    p.add_argument("--min-duration-s", type=float)
    p.add_argument("--max-duration-s", type=float)
    p.add_argument("--max-gap-s", type=float)
    p.add_argument("--threshold", action="append", default=[],
                   metavar="SPEC=VALUE",
                   help="confidence threshold: default=V, source.S=V, "
                        "language.L=V, or pair.S.L=V")

    p = add("fit-bounds", _cmd_fit_bounds,
            "fit speech-rate bounds from percentiles")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--language", "-l", required=True)
    p.add_argument("--percentile", type=float)

    p = add("curate-eval", _cmd_curate_eval, "build the evaluation subset")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--trims", help="write duration trim instructions here")
    p.add_argument("--min-confidence", type=float)
    p.add_argument("--min-words", type=int)
    p.add_argument("--min-duration-s", type=float)
    p.add_argument("--max-duration-s", type=float)
    p.add_argument("--trailing-silence-s", type=float)
    p.add_argument("--target", type=int, help="records to keep per language")

    p = add("stats", _cmd_stats, "per-language corpus statistics")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--json", action="store_true")

    p = add("shard", _cmd_shard, "split a manifest into balanced shards")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output-dir", "-o", required=True)
    p.add_argument("--shards", "-n", type=int, required=True)
    p.add_argument("--prefix")

    p = add("sched", _cmd_sched, "print guidance and sampling schedules")
    p.add_argument("--steps", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--strength", type=float)
    p.add_argument("--json", action="store_true")

    p = add("editsim", _cmd_editsim, "trace the re-generation state machine")
    p.add_argument("--avg-speed", type=float, required=True,
                   help="frames per token")
    p.add_argument("--target-tokens", type=int, required=True)
    p.add_argument("--mask", type=int, nargs=2, required=True,
                   metavar=("START", "END"), help="edit mask in frames")
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--flags", required=True,
                   help="retry flag per attempt, e.g. 1101")
    p.add_argument("--frames", help="comma-separated frames per attempt "
                                    "(default: the expected count)")

    p = add("stitch", _cmd_stitch, "cross-fade overlapping audio chunks")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--overlap-s", type=float, required=True)
    p.add_argument("--fade-s", type=float, default=0.01)
    p.add_argument("--plan", help="write the splice plan JSON here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "fn", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ManifestError, ProfileError, ConfigError, QualityError,
            CurationError, EmptyTextError, UnmappableCharacterError,
            AudioFormatError, json.JSONDecodeError, OSError,
            UnicodeEncodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AlignmentError, PipelineStageError, PipelineError,
            editctl.EditControlError, flowsched.ScheduleError) as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
