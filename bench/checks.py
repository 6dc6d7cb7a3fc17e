"""Output checks, computed apart from the program.

Expected values come from the generator's files (its planted paths, its own
romanization, the defects it planted) and from small re-computations of the
documented rules written here. Nothing is compared against a stored copy of
an earlier run's output. Each check returns a list of error strings; empty
means the output is right.
"""

from __future__ import annotations

import json
import wave
from collections import Counter
from pathlib import Path

import numpy as np

STAGES = ("normalize", "romanize", "align", "filter")
TIME_TOL = 1e-6       # times are written in whole milliseconds
SCORE_TOL = 1e-9


def _lines(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _nonspace(text: str) -> int:
    return sum(1 for ch in text if not ch.isspace())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------- shards and stats

def check_shards(shard_rows: list[list[dict]], survivors: list[dict], where: str) -> list[str]:
    """Shards partition the survivors, sum to their total, spread <= longest."""
    errors = []
    keys = [r["key"] for rows in shard_rows for r in rows]
    want = sorted(r["key"] for r in survivors)
    if sorted(keys) != want:
        errors.append(f"{where}: shards hold {len(keys)} keys, not a partition of "
                      f"the {len(want)} survivors")
    loads = [sum(r["duration_s"] for r in rows) for rows in shard_rows]
    total = sum(r["duration_s"] for r in survivors)
    if not _close(sum(loads), total, 1e-6 * max(1.0, total)):
        errors.append(f"{where}: shard durations sum to {sum(loads)}, survivors to {total}")
    longest = max((r["duration_s"] for r in survivors), default=0.0)
    if loads and max(loads) - min(loads) > longest + 1e-6:
        errors.append(f"{where}: shard spread {max(loads) - min(loads):.3f}s exceeds the "
                      f"longest record {longest}s")
    return errors


def check_stats(stats: dict, survivors: list[dict], n_words: dict[str, int],
                where: str) -> list[str]:
    """stats.json rows and totals equal a recount of the survivors."""
    rows: dict[str, list] = {}
    for r in survivors:
        row = rows.setdefault(r["language"], [0, 0.0, 0])
        row[0] += 1
        row[1] += r["duration_s"]
        row[2] += n_words[r["key"]]
    want_total = [sum(v[0] for v in rows.values()), sum(v[1] for v in rows.values()),
                  sum(v[2] for v in rows.values())]
    got_rows = {row["language"]: row for row in stats.get("languages", [])}
    errors = []
    if sorted(got_rows) != sorted(rows):
        errors.append(f"{where}: stats languages {sorted(got_rows)} != {sorted(rows)}")
    for lang, (n, dur, words) in [*rows.items(), ("total", want_total)]:
        got = stats["total"] if lang == "total" else got_rows.get(lang)
        if got is None:
            continue
        if (got["utterances"] != n or got["total_words"] != words
                or not _close(got["total_duration_s"], dur, 1e-9 * max(1.0, dur))):
            errors.append(f"{where}: stats row {lang} is {got['utterances']} utt, "
                          f"{got['total_duration_s']}s, {got['total_words']} words; "
                          f"recount gives {n}, {dur}s, {words}")
    return errors


# --------------------------------------------------------------- pipeline batches

def _survives(exp: dict, stage: str) -> bool:
    rejected_at = exp["stage"]
    return rejected_at is None or STAGES.index(rejected_at) > STAGES.index(stage)


def _check_record(row: dict, exp: dict, stage: str, where: str) -> list[str]:
    errors = []
    key = exp["key"]
    if row["normalized_text"] != exp["normalized_text"]:
        errors.append(f"{where}: {key} normalized to {row['normalized_text']!r}, "
                      f"expected {exp['normalized_text']!r}")
    if STAGES.index(stage) >= 1 and row["romanized_tokens"] != exp["tokens"]:
        errors.append(f"{where}: {key} romanized to {row['romanized_tokens']}, "
                      f"expected {exp['tokens']}")
    if STAGES.index(stage) >= 2:
        words = row["words"]
        if len(words) != len(exp["words"]):
            return errors + [f"{where}: {key} has {len(words)} word spans, "
                             f"expected {len(exp['words'])}"]
        for got, (word, start, end), score in zip(words, exp["words"], exp["scores"]):
            if (got["word"] != word or not _close(got["start_s"], start, TIME_TOL)
                    or not _close(got["end_s"], end, TIME_TOL)
                    or not _close(got["score"], score, SCORE_TOL)):
                errors.append(f"{where}: {key} word {got} differs from the planted "
                              f"span {word} [{start}, {end}) score {score}")
                break
        if not _close(row["avg_confidence"], exp["avg_confidence"], SCORE_TOL):
            errors.append(f"{where}: {key} avg_confidence {row['avg_confidence']} != "
                          f"{exp['avg_confidence']}")
    return errors


def check_pipeline_batch(out_dir: Path, keys: list[str], expect: dict, completed: bool,
                         shard_count: int) -> list[str]:
    """Every stage manifest present, and when the run completed, all outputs."""
    where = out_dir.name
    errors = []
    for stage in STAGES:
        path = out_dir / f"{stage}.jsonl"
        if not path.exists():
            if completed:
                errors.append(f"{where}: {stage}.jsonl missing")
            continue
        rows = _lines(path)
        want = [k for k in keys if _survives(expect[k], stage)]
        got = [r["key"] for r in rows]
        if got != want:
            errors.append(f"{where}: {stage}.jsonl keys {got} != expected {want}")
            continue
        for row in rows:
            errors += _check_record(row, expect[row["key"]], stage, f"{where}/{stage}")
    if not completed:
        return errors

    survivors = _lines(out_dir / "filter.jsonl")
    rejections = _lines(out_dir / "rejections.jsonl")
    want_rej = [{"key": k, "stage": expect[k]["stage"], "reasons": expect[k]["reasons"]}
                for k in sorted(keys) if expect[k]["stage"] is not None]
    if rejections != want_rej:
        errors.append(f"{where}: rejections {rejections} != planted {want_rej}")
    seen = Counter([r["key"] for r in survivors] + [r["key"] for r in rejections])
    if sorted(seen) != sorted(keys) or any(n != 1 for n in seen.values()):
        errors.append(f"{where}: input keys do not each appear once in survivors "
                      f"or rejections")
    n_words = {k: expect[k].get("n_words", 0) for k in keys}
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    errors += check_stats(stats, survivors, n_words, where)
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    histogram = Counter(reason for r in want_rej for reason in r["reasons"])
    if (summary["input_records"] != len(keys) or summary["output_records"] != len(survivors)
            or summary["rejections"] != dict(sorted(histogram.items()))):
        errors.append(f"{where}: summary {summary} disagrees with the planted defects")
    if shard_count > 1:
        shards = [_lines(out_dir / f"shard_{i:03d}.jsonl") for i in range(shard_count)]
        errors += check_shards(shards, survivors, where)
    return errors


# --------------------------------------------------------------- recurate passes

def expected_eval(survivors: list[dict], target: int, min_conf=0.9, min_words=5,
                  min_dur=3.0, max_dur=15.0, silence=0.2):
    """curate-eval's documented selection, recomputed: (eval keys, trims)."""
    pools: dict[str, list] = {}
    trims = []
    for r in survivors:
        duration = r["duration_s"]
        capped = min(duration, r["words"][-1]["end_s"] + silence)
        if capped < duration:
            trims.append({"key": r["key"], "old_duration_s": duration,
                          "new_duration_s": capped})
            duration = capped
        if (r["avg_confidence"] > min_conf and len(r["words"]) > min_words
                and min_dur <= duration <= max_dur):
            ratio = _nonspace(r["normalized_text"]) / duration
            pools.setdefault(r["language"], []).append((r["key"], ratio, duration))
    chosen = []
    for language in sorted(pools):
        pool = pools[language]
        mean = sum(ratio for _, ratio, _ in pool) / len(pool)
        ranked = sorted(pool, key=lambda e: (abs(e[1] - mean), e[0]))[:target]
        chosen += sorted(ranked)
    return chosen, trims


def check_recurate_pass(out_dir: Path, inputs: list[dict], expect: dict, stats_text: str,
                        target: int, n_shards: int) -> list[str]:
    where = out_dir.name
    errors = []
    survivors = [r for r in inputs if not expect[r["key"]]["reasons"]]
    clean = _lines(out_dir / "clean.jsonl")
    if clean != survivors:
        got = [r["key"] for r in clean]
        errors.append(f"{where}: clean.jsonl ({len(got)} records) differs from the "
                      f"{len(survivors)} records that break no rule")
    rejects = {r["key"]: r["reasons"] for r in _lines(out_dir / "rejects.jsonl")}
    keys = {r["key"] for r in inputs}
    want = {k: e["reasons"] for k, e in expect.items() if e["reasons"] and k in keys}
    if rejects != want:
        bad = sorted(k for k in set(rejects) | set(want) if rejects.get(k) != want.get(k))
        errors.append(f"{where}: rejects differ from the planted reasons for {bad[:5]}")
    chosen, trims = expected_eval(survivors, target)
    got_eval = _lines(out_dir / "eval.jsonl")
    if [r["key"] for r in got_eval] != [k for k, _, _ in chosen]:
        errors.append(f"{where}: eval set {[r['key'] for r in got_eval]} != recomputed "
                      f"{[k for k, _, _ in chosen]}")
    else:
        for row, (_, _, duration) in zip(got_eval, chosen):
            if not _close(row["duration_s"], round(duration, 3), TIME_TOL):
                errors.append(f"{where}: eval {row['key']} duration {row['duration_s']} "
                              f"!= trimmed {duration}")
    got_trims = _lines(out_dir / "trims.jsonl")
    if len(got_trims) != len(trims) or any(
            a["key"] != b["key"] or not _close(a["new_duration_s"], b["new_duration_s"], 1e-12)
            or a["old_duration_s"] != b["old_duration_s"] for a, b in zip(got_trims, trims)):
        errors.append(f"{where}: trims differ from the recomputed trailing-silence caps")
    n_words = {k: e["n_words"] for k, e in expect.items()}
    errors += check_stats(json.loads(stats_text), survivors, n_words, where)
    shard_dir = out_dir / "shards"
    shards = [_lines(shard_dir / f"shard_{i:03d}.jsonl") for i in range(n_shards)]
    errors += check_shards(shards, survivors, where)
    assignment = json.loads((shard_dir / "assignment.json").read_text(encoding="utf-8"))
    by_shard = {r["key"]: i for i, rows in enumerate(shards) for r in rows}
    if assignment["assignment"] != dict(sorted(by_shard.items())):
        errors.append(f"{where}: assignment.json disagrees with the shard files")
    return errors


# --------------------------------------------------------------- synth requests

def check_request(req: dict, arrays: dict, bank: np.ndarray, result: dict, rate: int,
                  wav_path: Path) -> list[str]:
    """Properties of the method, checked on one request's outputs."""
    errors = []
    n, gamma, strength = req["steps"], req["gamma"], req["strength"]
    rows = result["schedule"]
    if len(rows) != n + 1 or rows[0][2] != 0.0 or rows[-1][2] != 1.0:
        errors.append(f"schedule endpoints {rows[0]}, {rows[-1]} are not exactly 0 and 1")
    for k, s, t, g in rows:
        want_t = (k / n) ** (1.0 + gamma)
        if not _close(t, want_t, 1e-12) or not _close(s, k / n, 1e-15):
            errors.append(f"sway grid point {k} is {t}, expected {want_t}")
            break
        if not _close(g, strength * (1.0 - t) ** 2, 1e-12 * max(1.0, strength)):
            errors.append(f"guidance at t={t} is {g}, expected {strength * (1 - t) ** 2}")
            break
    cond = arrays["cond"].astype(np.float64)
    uncond = arrays["uncond"].astype(np.float64)
    for (k, _, _, g), mixed in zip(rows, result["cfg"]):
        want = cond + g * (cond - uncond)
        if mixed.shape != want.shape or not np.allclose(mixed, want, rtol=1e-12, atol=1e-12):
            errors.append(f"cfg_combine at step {k} differs from cond + g*(cond - uncond)")
            break
    tokens = arrays["tokens"].tolist()
    in_history = np.zeros(bank.shape[1], dtype=bool)
    for k, (factor, logits) in enumerate(result["penalty"]):
        if k:
            in_history[tokens[k - 1]] = True
        want_f = req["repetition_penalty"] / 100.0 * k + 1.0
        if not _close(factor, want_f, 1e-12):
            errors.append(f"penalty factor at token {k} is {factor}, expected {want_f}")
            break
        source = bank[k % bank.shape[0]].astype(np.float64)
        if np.any(logits[in_history] > source[in_history]):
            errors.append(f"apply_penalty raised a history logit at token {k}")
            break
        if not np.array_equal(logits[~in_history], source[~in_history]):
            errors.append(f"apply_penalty changed a logit outside the history at token {k}")
            break
    decisions, start = result["regen"]
    max_rounds = req["regen"]["max_rounds"]
    if not 1 <= len(decisions) <= max_rounds + 1 or decisions[-1].action == "retry":
        errors.append(f"run_regen took {len(decisions)} attempts ending in "
                      f"{decisions[-1].action if decisions else None}; max_rounds {max_rounds}")
    prev = start
    for d in decisions:
        c = d.controller
        if (c.mask_start > prev.mask_start or c.mask_end < prev.mask_end
                or c.penalty.repetition_penalty < prev.penalty.repetition_penalty):
            errors.append("run_regen shrank the mask or the penalty")
            break
        prev = c
    intervals = result["intervals"]
    if len(intervals) != len(req["intervals"]) or any(
            not _close(a, c, 1e-9) or not _close(b, d, 1e-9)
            for (a, b), (c, d) in zip(intervals, req["intervals"])):
        errors.append(f"chunk gave {intervals}, expected {req['intervals']}")
    errors += _check_stitch(result["segments"], result["stitched"], result["plan"],
                            req, rate)
    with wave.open(str(wav_path), "rb") as fh:
        back = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
        if fh.getframerate() != rate or not np.array_equal(back, result["stitched"]):
            errors.append("the written WAV does not read back equal to the stitched audio")
    return errors


def _check_stitch(segments, out, plan, req, rate) -> list[str]:
    n_ov = int(round(req["overlap_s"] * rate))
    n_fade = max(1, int(round(req["fade_s"] * rate)))
    lengths = [len(s) for s in segments]
    if len(out) != sum(lengths) - n_ov * (len(segments) - 1):
        return [f"stitch length {len(out)} != sum of lengths minus overlaps "
                f"{sum(lengths) - n_ov * (len(segments) - 1)}"]
    if plan.fade_samples != n_fade:
        return [f"fade window {plan.fade_samples} samples, expected {n_fade}"]
    offsets = [0]
    for length in lengths[:-1]:
        offsets.append(offsets[-1] + length - n_ov)
    want = np.zeros(len(out), dtype=out.dtype)
    for off, seg in zip(offsets, segments):
        want[off:off + len(seg)] = seg
    outside = np.ones(len(out), dtype=bool)
    errors = []
    for b, splice in enumerate(plan.splices):
        start = offsets[b + 1]
        fade = splice.fade_start
        if not start <= fade <= start + n_ov - n_fade:
            errors.append(f"boundary {b}: fade window at {fade} outside its overlap")
            continue
        left = segments[b]
        want[start:fade] = left[len(left) - n_ov:len(left) - n_ov + fade - start]
        outside[fade:fade + n_fade] = False
        a = left[len(left) - n_ov + fade - start:][:n_fade].astype(np.int64)
        c = segments[b + 1][fade - start:fade - start + n_fade].astype(np.int64)
        mixed = out[fade:fade + n_fade].astype(np.int64)
        if np.any(mixed < np.minimum(a, c) - 1) or np.any(mixed > np.maximum(a, c) + 1):
            errors.append(f"boundary {b}: cross-fade leaves the range of its two sources")
    if not np.array_equal(out[outside], want[outside]):
        errors.append("stitched samples outside the fade windows differ from their "
                      "source segments")
    return errors
