"""Seeded input generator for the voxkit benchmark.

Runs in a process of its own and imports nothing from voxkit. Everything the
output checks expect comes from the generator's own tables and arrays: the
romanization of the words it builds, the CTC path it plants in each emission
matrix, and the filter verdict its own copy of the documented rules gives.

    python3 bench/gen.py --workload clips --seed 7 --out DIR [--tiny]

The same workload, seed and size always give the same files. Sizes are
stratified (each record or request draws from its own quantile bin), so two
seeds give inputs of nearly the same total cost.
"""

from __future__ import annotations

import argparse
import json
import sys
import wave
from pathlib import Path

import numpy as np

LANGUAGES = ("de", "en", "es", "fr", "id", "it", "pt", "ru", "vi", "zh")
# Speech-rate window of the shipped profiles, non-space characters per second.
RATE_BOUNDS = {lang: (2.0, 28.0) for lang in LANGUAGES}
RATE_BOUNDS["zh"] = (1.0, 14.0)

FRAME_S = 0.02
VOCAB = ("<blank>",) + tuple("abcdefghijklmnopqrstuvwxyz'")
LABEL = {ch: i for i, ch in enumerate(VOCAB)}

REASON_ORDER = ("low_confidence", "too_short", "too_long", "long_gap",
                "rate_low", "rate_high", "bad_charset", "bad_language")

# --------------------------------------------------------------- text

_CONS = [(c, c) for c in "bcdfghjklmnprstvz"]
_VOWS = [(v, v) for v in "aeiou"]
_LATIN_EXTRA = {
    "de": ([("ß", "ss")], [("ä", "a"), ("ö", "o"), ("ü", "u")]),
    "en": ([], []),
    "es": ([("ñ", "n")], [("á", "a"), ("é", "e"), ("í", "i"), ("ó", "o"), ("ú", "u")]),
    "fr": ([("ç", "c")], [("é", "e"), ("è", "e"), ("ê", "e"), ("à", "a"), ("œ", "oe")]),
    "id": ([], []),
    "it": ([], [("à", "a"), ("è", "e"), ("ì", "i"), ("ò", "o"), ("ù", "u")]),
    "pt": ([("ç", "c")], [("ã", "a"), ("õ", "o"), ("á", "a"), ("ê", "e")]),
    "vi": ([("đ", "d")], [("ă", "a"), ("â", "a"), ("ê", "e"), ("ô", "o"), ("ơ", "o"),
                          ("ư", "u"), ("ạ", "a"), ("ế", "e"), ("ộ", "o")]),
}
_CYR_CONS = list(zip("бвгджзклмнпрстфхцчшщ",
                     "b v g d zh z k l m n p r s t f kh ts ch sh shch".split()))
_CYR_VOWS = list(zip("аеиоуыэюя", "a e i o u y e yu ya".split()))
_ZH = list(zip("一七万三上下不中人他你们会作先光全八六出分前北南十千半力办加包医华单卖原东世书"
               "买二五京亮今以代信做元儿关兴军农冬冷几刀刚初利别到副功务助卡",
               ("yi qi wan san shang xia bu zhong ren ta ni men hui zuo xian guang quan ba "
                "liu chu fen qian bei nan shi qian ban li ban jia bao yi hua dan mai yuan "
                "dong shi shu mai er wu jing liang jin yi dai xin zuo yuan er guan xing jun "
                "nong dong leng ji dao gang chu li bie dao fu gong wu zhu ka").split()))
_EN_DIGITS = list(zip("23456789", "two three four five six seven eight nine".split()))


def _units(lang):
    if lang == "ru":
        return _CYR_CONS, _CYR_VOWS
    cons, vows = _LATIN_EXTRA[lang]
    return _CONS + cons, _VOWS + vows


def _make_word(rng, lang, max_letters):
    """One word as (surface, roman) with 1..max_letters roman letters."""
    if lang == "zh":
        surface, roman = "", ""
        for _ in range(int(rng.integers(1, 5))):
            ch, py = _ZH[int(rng.integers(len(_ZH)))]
            if len(roman) + len(py) > max_letters:
                break
            surface, roman = surface + ch, roman + py
        return (surface, roman) if roman else None
    if max_letters < 1:
        return None
    cons, vows = _units(lang)
    want = int(rng.integers(2, 9))
    surface, roman = "", ""
    pick_vowel = bool(rng.integers(2))
    while len(roman) < want:
        pool = vows if pick_vowel else cons
        s, r = pool[int(rng.integers(len(pool)))]
        if len(roman) + len(r) > max_letters:
            break
        surface, roman = surface + s, roman + r
        pick_vowel = not pick_vowel
    return (surface, roman) if roman else None


def make_text(rng, lang, lo, hi):
    """A sentence whose romanization has between about lo and hi letters.

    Returns raw text, its normalized form, the romanized tokens and the word
    count the corpus statistics give (CJK characters for zh).
    """
    words = []
    total = 0
    while total < lo:
        word = _make_word(rng, lang, min(hi - total, 12))
        if word is None:
            break
        words.append(word)
        total += len(word[1])
    if lang == "en" and len(words) > 2 and total + 5 <= hi and rng.random() < 0.3:
        words.insert(1 + int(rng.integers(len(words) - 1)),
                     _EN_DIGITS[int(rng.integers(len(_EN_DIGITS)))])
    if lang == "zh":
        raw = "、".join(s for s, _ in words) + "。"
        return raw, raw, [r for _, r in words], sum(len(s) for s, _ in words)
    comma = int(rng.integers(len(words) - 1)) if len(words) > 2 else -1
    if comma >= 0 and words[comma][0].isdigit():
        comma = -1  # a spelled-out digit is padded with spaces, so no mark after it
    end = ".!?"[int(rng.integers(3))]
    raw_parts, norm_parts = [], []
    for i, (surface, roman) in enumerate(words):
        mark = "," if i == comma else ""
        if i == 0 and "a" <= surface[0] <= "z":
            raw_parts.append(surface[0].upper() + surface[1:] + mark)
        elif i == 0 and lang == "ru":
            raw_parts.append(surface[0].upper() + surface[1:] + mark)
        else:
            raw_parts.append(surface + mark)
        norm_parts.append((roman if surface.isdigit() else surface) + mark)
    raw = " ".join(raw_parts) + end
    norm = " ".join(norm_parts) + end
    return raw, norm, [roman for _, roman in words], len(words)


def nonspace(text):
    return sum(1 for ch in text if not ch.isspace())


def repeats(tokens):
    labels = "".join(tokens)
    return sum(1 for a, b in zip(labels, labels[1:]) if a == b)


def stratified(rng, n, lo, hi):
    """n values in [lo, hi), one per equal-width bin, in random order."""
    bins = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * bins


def stratified_pair(rng, n):
    """Two stratified samples in [0, 1) whose bins are paired by a fixed rule.

    Bin j of the first goes with bin (7j + 1) mod n of the second, so the set
    of pairs, and with it the spread of joint sizes, is the same for every
    seed; only the order and the position inside each bin vary.
    """
    j = rng.permutation(n)
    return (j + rng.random(n)) / n, ((j * 7 + 1) % n + rng.random(n)) / n


# --------------------------------------------------------------- emissions

def plant(rng, tokens, n_frames, peak, mode="spread", gap_frames=0):
    """Emissions whose best CTC path is a known layout of the tokens.

    Every frame's planted label is its most probable entry, so the planted
    path is the Viterbi path. Returns float32 log-probs, per-word frame spans
    and per-word geometric-mean scores computed from those same values.
    """
    labels, owner = [], []
    for w, token in enumerate(tokens):
        for ch in token:
            labels.append(LABEL[ch])
            owner.append(w)
    # slots: blank, char, blank, char, ..., char, blank
    n_chars = len(labels)
    blank_min = [0] + [1 if labels[i] == labels[i + 1] else 0
                       for i in range(n_chars - 1)] + [0]
    is_gap = [False] + [owner[i] != owner[i + 1] for i in range(n_chars - 1)] + [False]
    char_len = [1] * n_chars
    blank_len = list(blank_min)
    extra = n_frames - n_chars - sum(blank_min)
    if extra < 0:
        raise ValueError("too few frames for the planted path")
    if gap_frames:
        gaps = [i for i, g in enumerate(is_gap) if g]
        blank_len[gaps[len(gaps) // 2]] += gap_frames
        extra -= gap_frames
    if mode == "spread":
        w_blank = [2.0 if i in (0, n_chars) else (1.0 if is_gap[i] else 0.3)
                   for i in range(n_chars + 1)]
        weights = np.array([*w_blank, *([1.0] * n_chars)]) * rng.uniform(0.5, 1.5, 2 * n_chars + 1)
    else:  # hold the letters, add no silence
        weights = np.array([*([0.0] * (n_chars + 1)), *rng.uniform(0.5, 1.5, n_chars)])
    share = np.floor(extra * weights / weights.sum()).astype(int)
    rest = extra - int(share.sum())
    for i in rng.choice(len(weights), size=rest, p=weights / weights.sum()):
        share[i] += 1
    for i in range(n_chars + 1):
        blank_len[i] += int(share[i])
    for i in range(n_chars):
        char_len[i] += int(share[n_chars + 1 + i])

    path, frame_owner = [], []
    for i in range(n_chars + 1):
        path += [0] * blank_len[i]
        frame_owner += [-1] * blank_len[i]
        if i < n_chars:
            path += [labels[i]] * char_len[i]
            frame_owner += [owner[i]] * char_len[i]
    path = np.array(path)
    n_vocab = len(VOCAB)
    rows = np.arange(n_frames)
    p_top = rng.uniform(peak[0], peak[1], n_frames)
    probs = rng.uniform(0.5, 1.5, (n_frames, n_vocab))
    probs[rows, path] = 0.0
    probs *= ((1.0 - p_top) / probs.sum(axis=1))[:, None]
    probs[rows, path] = p_top
    lp = np.log(probs).astype(np.float32)

    lp64 = lp.astype(np.float64)
    frame_owner = np.array(frame_owner)
    spans, scores = [], []
    for w in range(len(tokens)):
        frames = np.nonzero(frame_owner == w)[0]
        spans.append((int(frames[0]), int(frames[-1])))
        scores.append(min(1.0, float(np.exp(lp64[frames, path[frames]].mean()))))
    return lp, spans, scores


def random_emissions(rng, n_frames, vocab):
    probs = rng.uniform(0.5, 1.5, (n_frames, len(vocab)))
    probs[np.arange(n_frames), rng.integers(len(vocab), size=n_frames)] = 40.0
    probs /= probs.sum(axis=1, keepdims=True)
    return np.log(probs).astype(np.float32)


def save_npz(path, lp, vocab=VOCAB):
    np.savez(path, log_probs=lp, frame_dur_s=np.float64(FRAME_S),
             vocab=np.array(vocab, dtype=np.str_))


def save_emit(path, lp, vocab=VOCAB):
    # Header: frame duration, then the vocabulary; one row of log-probs per frame.
    lines = [" ".join([repr(FRAME_S), *vocab])]
    lines += [" ".join(repr(float(v)) for v in row) for row in lp]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------- pipeline inputs

# Clips plant one of these per defect slot; each names the stage that must
# reject it and the only reason it may give.
CLIP_DEFECTS = (
    ("normalize", "bad_language"), ("normalize", "empty_text"),
    ("romanize", "empty_text"), ("romanize", "unmappable_char"),
    ("align", "missing_emissions"), ("align", "unalignable"),
    ("align", "unalignable/vocab"), ("filter", "low_confidence"),
    ("filter", "too_short"), ("filter", "too_long"), ("filter", "long_gap"),
    ("filter", "rate_low"), ("filter", "rate_high"), ("filter", "bad_charset"),
)

CLIPS_FILTER = {"min_duration_s": 0.8, "max_duration_s": 5.0, "max_gap_s": 1.2,
                "default_confidence_threshold": 0.3}
LONGFORM_FILTER = {"min_duration_s": 0.5, "max_duration_s": 30.0, "max_gap_s": 4.0,
                   "default_confidence_threshold": 0.3}


def _frames(duration_s):
    return int(round(duration_s / FRAME_S))


def _aligned_record(rng, key, lang, letters, cap, dur_range, rate_range, fcfg,
                    peak=(0.9, 0.99), mode="spread", gap_frames=0,
                    duration_s=None, rate_u=None):
    """A record that passes normalize, romanize and align, with expectations.

    ``rate_u`` in [0, 1) places the speech rate inside ``rate_range``.
    """
    raw, norm, tokens, n_words = make_text(rng, lang, letters, min(letters + 4, cap))
    L = sum(len(t) for t in tokens)
    if duration_s is None:
        u = rng.random() if rate_u is None else rate_u
        duration_s = nonspace(norm) / (rate_range[0] + u * (rate_range[1] - rate_range[0]))
        duration_s = min(max(duration_s, dur_range[0]), dur_range[1])
    n_frames = max(_frames(duration_s), L + repeats(tokens) + 2 + gap_frames)
    lp, spans, scores = plant(rng, tokens, n_frames, peak, mode, gap_frames)
    duration_s = round(n_frames * FRAME_S, 3)
    words = [[tok, round(a * FRAME_S, 3), round((b + 1) * FRAME_S, 3)]
             for tok, (a, b) in zip(tokens, spans)]
    exp = {"key": key, "language": lang, "duration_s": duration_s, "raw_text": raw,
           "normalized_text": norm, "tokens": tokens, "words": words,
           "scores": scores, "avg_confidence": sum(scores) / len(scores),
           "n_words": n_words}
    exp["reasons"] = filter_reasons(exp, fcfg, fcfg["default_confidence_threshold"])
    return exp, lp


def filter_reasons(exp, fcfg, threshold, charset_ok=True):
    """The documented filter rules, applied to the generator's own values."""
    reasons = set()
    if exp["avg_confidence"] <= threshold:
        reasons.add("low_confidence")
    d = exp["duration_s"]
    if d < fcfg["min_duration_s"]:
        reasons.add("too_short")
    elif d > fcfg["max_duration_s"]:
        reasons.add("too_long")
    cursor = 0.0
    for _, start, end in exp["words"]:
        if start - cursor > fcfg["max_gap_s"]:
            reasons.add("long_gap")
        cursor = max(cursor, end)
    if d - cursor > fcfg["max_gap_s"]:
        reasons.add("long_gap")
    if exp["language"] in RATE_BOUNDS:
        lo, hi = RATE_BOUNDS[exp["language"]]
        ratio = nonspace(exp["normalized_text"]) / d
        if ratio < lo:
            reasons.add("rate_low")
        elif ratio > hi:
            reasons.add("rate_high")
        if not charset_ok:
            reasons.add("bad_charset")
    else:
        reasons.add("bad_language")
    return [r for r in REASON_ORDER if r in reasons]


# Seed of the longform batch that fails today; its inputs are the same for
# every --seed, so the failed share of a run does not depend on the seed.
FAILING_SEED = 20072009


def gen_pipeline(rng, out, workload, n_batches, batch_size, letters, dur_range,
                 defects_per_batch, emit_every, rate=(9.0, 16.0), failing=None):
    fcfg = CLIPS_FILTER if workload == "clips" else LONGFORM_FILTER
    emis = out / "emissions"
    emis.mkdir()
    (out / "batches").mkdir()
    rate_range = {"zh": (3.0, 6.0)} if workload == "clips" else {}
    expect, batches = {}, []
    # Letters and speech rate are stratified per position across batches, and
    # defect kinds, defect positions and .emit positions depend on the batch
    # index only, so every seed gets the same mix of work.
    pairs = [stratified_pair(rng, n_batches) for _ in range(batch_size)]
    letters_at = np.stack([letters[0] + (letters[1] - letters[0]) * a for a, _ in pairs],
                          axis=1).astype(int)
    rate_at = np.stack([b for _, b in pairs], axis=1)
    slot = 0
    for b in range(n_batches):
        defect_at = {(5 * b + j * (batch_size // max(defects_per_batch, 1))) % batch_size
                     for j in range(defects_per_batch)}
        emit_at = {(b + k * emit_every) % batch_size for k in range(batch_size // emit_every)}
        rows = []
        for i in range(batch_size):
            key = f"{workload}-{b:03d}-{i:02d}"
            lang = LANGUAGES[(b * batch_size + i) % len(LANGUAGES)]
            source = ("studio", "web")[i % 2]
            kind = None
            if i in defect_at:
                kind = CLIP_DEFECTS[slot % len(CLIP_DEFECTS)]
                slot += 1
            exp, lp = _make_pipeline_record(rng, key, lang, int(letters_at[b, i]),
                                            letters[1] - 1, dur_range,
                                            rate_range.get(lang, rate), fcfg, kind,
                                            float(rate_at[b, i]))
            rows.append(_keep_record(emis, expect, key, source, exp, lp, i in emit_at))
        batches.append(_write_batch(out, f"batches/b{b:03d}.jsonl", rows))
    if failing is not None:
        batches.append(_failing_batch(out, workload, expect, fcfg, dur_range, **failing))
    return {"filter": fcfg, "shard_count": 4, "batches": batches}, expect


def _failing_batch(out, workload, expect, fcfg, dur_range, batch_size, letters, rate):
    """One batch of read speech with more than 63 romanized letters a record.

    Today every such batch fails in the align stage (the int8 backtrack of
    force_align overflows once the state index passes 127). Its inputs come
    from FAILING_SEED alone, so each run's rounds fail the same way whatever
    the seed; once the fault is mended the batch completes and is checked
    like any other.
    """
    rng = np.random.default_rng(FAILING_SEED)
    u_letters, u_rate = stratified_pair(rng, batch_size)
    rows = []
    for i in range(batch_size):
        key = f"{workload}-long-{i:02d}"
        lang = LANGUAGES[i % len(LANGUAGES)]
        n_letters = int(letters[0] + (letters[1] - letters[0]) * u_letters[i])
        exp, lp = _make_pipeline_record(rng, key, lang, n_letters, letters[1] - 1, dur_range,
                                        rate, fcfg, None, float(u_rate[i]))
        rows.append(_keep_record(out / "emissions", expect, key, ("studio", "web")[i % 2],
                                 exp, lp, i == 0))
    return dict(_write_batch(out, "batches/long.jsonl", rows), failing=True)


def _keep_record(emis, expect, key, source, exp, lp, emit):
    """Write a record's emissions, keep its expectations, return its row."""
    if lp is not None:
        suffix = ".emit" if emit else ".npz"
        vocab = exp.pop("vocab", VOCAB)
        (save_emit if emit else save_npz)(emis / f"{key}{suffix}", lp, vocab)
        exp["emission"] = suffix
    exp["source"] = source
    expect[key] = exp
    return {"key": key, "language": exp["language"], "audio_ref": f"wav/{key}.wav",
            "duration_s": exp["duration_s"], "raw_text": exp["raw_text"], "source": source}


def _write_batch(out, name, rows):
    with open(out / name, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return {"manifest": name, "keys": [r["key"] for r in rows]}


def _make_pipeline_record(rng, key, lang, letters, cap, dur_range, rate_range, fcfg, kind,
                          rate_u):
    """Expectations plus planted emissions (None when no file is written)."""
    if kind is None:
        for _ in range(50):
            exp, lp = _aligned_record(rng, key, lang, letters, cap, dur_range, rate_range,
                                      fcfg, rate_u=rate_u)
            if not exp["reasons"]:
                exp["stage"] = None
                return exp, lp
        raise RuntimeError("could not draw a clean record")
    stage, reason = kind
    lat = "en" if lang in ("ru", "zh") else lang

    def rejected_early(raw, norm=None, lang_=lat):
        return {"key": key, "language": lang_, "duration_s": 2.0, "raw_text": raw,
                "normalized_text": norm, "stage": stage, "reasons": [reason]}, None

    if reason == "bad_language":
        return rejected_early("Some words here.", lang_="xx")
    if kind == ("normalize", "empty_text"):
        return rejected_early("#@ %")
    if kind == ("romanize", "empty_text"):
        return rejected_early("...", ".")
    if reason == "unmappable_char":
        return rejected_early("Hola αβγ δεζ.", "hola αβγ δεζ.")
    if stage == "align":
        exp, lp = _aligned_record(rng, key, lang, min(letters, 30), cap, dur_range,
                                  rate_range, fcfg)
        exp.update(stage=stage, reasons=[reason.split("/")[0]], words=None)
        if reason == "missing_emissions":
            return exp, None
        L = sum(len(t) for t in exp["tokens"])
        if reason == "unalignable":  # fewer frames than letters
            return exp, random_emissions(rng, max(2, L // 2), VOCAB)
        missing = exp["tokens"][0][0]
        vocab = tuple(v for v in VOCAB if v != missing)
        exp["vocab"] = vocab
        return exp, random_emissions(rng, lp.shape[0], vocab)
    # filter-stage defects: aligned records built to break exactly one rule
    peak, mode, gap, dur = (0.9, 0.99), "spread", 0, None
    if reason == "low_confidence":
        peak = (0.12, 0.2)
    elif reason == "too_short":
        letters, dur = 3, 0.6
    elif reason == "too_long":
        letters, dur = 40, 5.5
    elif reason == "long_gap":
        letters, gap = 26, int(1.6 / FRAME_S)
    elif reason == "rate_low":
        letters, mode, dur = 3, "hold", 3.0
    elif reason == "rate_high":
        letters, dur = 34, 1.0
    lang_ = lat if reason in ("rate_low", "rate_high", "too_short") else lang
    for _ in range(200):
        exp, lp = _aligned_record(rng, key, lang_, letters, cap, dur_range, rate_range, fcfg,
                                  peak=peak, mode=mode, gap_frames=gap, duration_s=dur)
        charset_ok = True
        if reason == "bad_charset":
            words = exp["raw_text"].split(" ")
            words.insert(1, "\U0001F642")
            exp["raw_text"] = " ".join(words)
            charset_ok = False
        exp["reasons"] = filter_reasons(exp, fcfg, fcfg["default_confidence_threshold"],
                                        charset_ok)
        if exp["reasons"] == [reason]:
            exp["stage"] = stage
            return exp, lp
    raise RuntimeError(f"could not plant {reason}")


# --------------------------------------------------------------- recurate inputs

RECURATE_THRESHOLDS = {"default": 0.5, "source.web": 0.6, "language.zh": 0.55,
                       "pair.web.ru": 0.7}
RECURATE_FILTER = {"min_duration_s": 1.0, "max_duration_s": 16.0, "max_gap_s": 2.0}
RECURATE_EVAL_TARGET = 2
RECURATE_BLOCK = 64        # every planted case recurs once per block of records
RECURATE_DEFECTS = (("low_confidence",), ("too_short",), ("too_long",), ("long_gap",),
                    ("rate_low",), ("rate_high",), ("bad_charset",), ("bad_language",),
                    ("low_confidence", "too_short"), ("long_gap", "bad_charset"))
# exact-boundary cases: inclusive durations pass, confidence equal to the
# threshold fails; for the eval gates, confidence 0.9 and 5 words fail while
# 3.0 s and 15.0 s pass.
RECURATE_EDGES = ("dur_min", "dur_max", "conf_equal", "eval_conf", "eval_words",
                  "eval_dur_min", "eval_dur_max")
# Threshold precedence: a confidence that only the most specific threshold
# rejects. (kind: source, language, confidence)
RECURATE_PRECEDENCE = {"prec_pair": ("web", "ru", 0.65), "prec_source": ("web", "zh", 0.57),
                       "prec_language": ("studio", "zh", 0.52)}


def resolve_threshold(source, language):
    t = RECURATE_THRESHOLDS
    for name in (f"pair.{source}.{language}", f"source.{source}", f"language.{language}"):
        if name in t:
            return t[name]
    return t["default"]


def _layout_ms(rng, n_words, weights, duration_ms, lead_ms, trail_ms, big_gap_ms=0):
    """Word spans in whole milliseconds covering [lead, duration - trail].

    Returns None when the words do not fit.
    """
    cap = max(11, min(250, duration_ms // (4 * n_words)))
    gaps = [int(g) for g in rng.integers(10, cap, size=n_words - 1)]
    if big_gap_ms:
        gaps[len(gaps) // 2] = big_gap_ms
    speech = duration_ms - lead_ms - trail_ms - sum(gaps)
    if speech < 30 * n_words:
        return None
    weights = np.asarray(weights, dtype=float) * rng.uniform(0.8, 1.2, n_words)
    lengths = np.floor(speech * weights / weights.sum()).astype(int)
    if lengths.min() < 20:
        return None
    spans, cursor = [], lead_ms
    for i, length in enumerate(lengths):
        spans.append((cursor, cursor + int(length)))
        cursor += int(length) + (gaps[i] if i < n_words - 1 else 0)
    return spans


# Per planted kind: fixed duration in seconds and romanized letters per second.
_RECURATE_SHAPE = {
    "too_short": (0.8, None), "too_long": (17.5, None), "rate_low": (9.0, 0.8),
    "rate_high": (1.6, 60.0), "dur_min": (1.0, 6.0), "dur_max": (16.0, 7.0),
    "eval_dur_min": (3.0, 10.0), "eval_dur_max": (15.0, 7.0), "eval_words": (4.0, 7.0),
    "eval_conf": (8.0, 10.0), "prec_pair": (6.0, 8.0), "prec_source": (6.0, 8.0),
    "prec_language": (6.0, 8.0),
}


def _recurate_record(rng, key, lang, source, kind, duration_s, rate_u):
    """One aligned record built to draw exactly the planted filter reasons."""
    kind = kind or ()
    want = [r for r in REASON_ORDER if r in kind]
    fixed_conf = None
    if kind and kind[0] in RECURATE_PRECEDENCE:
        source, lang, fixed_conf = RECURATE_PRECEDENCE[kind[0]]
    if kind == ("conf_equal",) or fixed_conf is not None:
        want = ["low_confidence"]
    lang_ = "xx" if "bad_language" in kind else lang
    text_lang = "en" if lang_ == "xx" else lang_
    threshold = resolve_threshold(source, lang_)
    d, lps = duration_s, None
    for name in kind:
        d, lps = _RECURATE_SHAPE.get(name, (d, lps))
    if "long_gap" in kind:
        d = max(d, 5.0)
    edge = kind and kind[0] in ("dur_min", "dur_max", "eval_dur_min", "eval_dur_max")
    for attempt in range(1000):
        if attempt == 500 and text_lang == "zh" and fixed_conf is None:
            lang_ = text_lang = "en"   # CJK phrases are too few for some word-count cases
            threshold = resolve_threshold(source, lang_)
        rate = lps or ((5.0 if text_lang != "zh" else 4.0) + 7.0 * rate_u)
        if kind == ("rate_low",) and text_lang == "zh":
            rate = 1.0
        letters = max(3, int(d * rate))
        raw, norm, tokens, n_words = make_text(rng, text_lang, letters, letters + 6)
        n = len(tokens)
        if kind == ("eval_words",) and n != 5:
            continue
        if kind and kind[0].startswith("eval") and kind != ("eval_words",) and n < 6:
            continue
        if n < 2 and "long_gap" in kind:
            continue
        duration_ms = int(round(d * 1000))
        lead = min(int(rng.integers(50, 300)), duration_ms // 10)
        trail = 100 if edge and kind[0].startswith("eval") else min(
            int(rng.integers(0, 600)), duration_ms // 10)
        spans = _layout_ms(rng, n, [len(t) for t in tokens], duration_ms, lead, trail,
                           2600 if "long_gap" in kind else 0)
        if spans is None:
            continue
        if kind == ("conf_equal",):
            scores = [threshold] * n
        elif kind == ("eval_conf",):
            scores = [0.9] * n
        elif fixed_conf is not None:
            scores = [fixed_conf] * n
        else:
            if "low_confidence" in kind:
                target = threshold - rng.uniform(0.08, 0.25)
            elif rng.random() < 0.8 or (kind and kind[0].startswith("eval")):
                target = rng.uniform(0.93, 0.98)
            else:
                target = rng.uniform(threshold + 0.08, 0.88)
            scores = [float(min(1.0, max(0.0, target + rng.uniform(-0.02, 0.02))))
                      for _ in tokens]
        avg = scores[0] if kind in (("conf_equal",), ("eval_conf",)) or fixed_conf \
            else sum(scores) / n
        if "bad_charset" in kind:
            parts = raw.split(" ")
            parts.insert(1, "\u2603")
            raw = " ".join(parts)
        words = [[t, a / 1000, b / 1000] for t, (a, b) in zip(tokens, spans)]
        exp = {"language": lang_, "duration_s": duration_ms / 1000,
               "normalized_text": norm, "words": words, "avg_confidence": avg}
        got = filter_reasons(exp, RECURATE_FILTER, threshold,
                             charset_ok="bad_charset" not in kind)
        if got != want:
            continue
        record = {"key": key, "language": lang_, "audio_ref": f"wav/{key}.wav",
                  "duration_s": duration_ms / 1000, "raw_text": raw,
                  "normalized_text": norm, "romanized_tokens": tokens,
                  "words": [{"word": t, "start_s": a, "end_s": b, "score": s}
                            for (t, a, b), s in zip(words, scores)],
                  "avg_confidence": avg, "source": source}
        return record, {"reasons": got, "kind": list(kind) or None, "n_words": n_words}
    raise RuntimeError(f"could not plant {kind} for {lang}")


def gen_recurate(rng, out, n_manifests, per_manifest, shards):
    (out / "manifests").mkdir()
    sources = ("studio", "web", "crowd")
    planted = [*RECURATE_DEFECTS, *((e,) for e in (*RECURATE_EDGES, *RECURATE_PRECEDENCE))]
    manifests, expect = [], {}
    for m in range(n_manifests):
        kinds = [None] * per_manifest
        for b0 in range(0, per_manifest, RECURATE_BLOCK):
            block = min(RECURATE_BLOCK, per_manifest - b0)
            for j, pos in enumerate(rng.choice(block, size=len(planted), replace=False)):
                kinds[b0 + int(pos)] = planted[j]
        d_u, rates = stratified_pair(rng, per_manifest)
        durations = 1.3 + (15.5 - 1.3) * d_u
        records = []
        for i in range(per_manifest):
            key = f"rc-{m:03d}-{i:05d}"
            lang = LANGUAGES[(m * per_manifest + i) % len(LANGUAGES)]
            source = sources[int(rng.integers(3))]
            record, exp = _recurate_record(rng, key, lang, source, kinds[i],
                                           float(durations[i]), float(rates[i]))
            records.append(record)
            expect[key] = exp
        # one exact tie in speech rate: a second copy under another key
        for r in records:
            trimmed = min(r["duration_s"], r["words"][-1]["end_s"] + 0.2)
            if (not expect[r["key"]]["reasons"] and r["avg_confidence"] > 0.92
                    and len(r["words"]) > 5 and 3.0 <= trimmed <= 15.0):
                twin = dict(r, key=r["key"] + "t")
                records.insert(int(rng.integers(len(records))), twin)
                expect[twin["key"]] = dict(expect[r["key"]], kind=["tie"])
                break
        name = f"manifests/m{m:03d}.jsonl"
        with open(out / name, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r, ensure_ascii=False) + "\n")
        manifests.append({"manifest": name, "keys": [r["key"] for r in records]})
    meta = {"thresholds": RECURATE_THRESHOLDS, "filter": RECURATE_FILTER,
            "eval_target": RECURATE_EVAL_TARGET, "shards": shards,
            "manifests": manifests}
    return meta, expect


# --------------------------------------------------------------- synth inputs

SYNTH_RATE = 16000
SYNTH_VOCAB = 1024
SYNTH_MELS = 80


def chunk_intervals(duration_s, max_chunk_s, overlap_s):
    """The documented chunking rule, computed apart from the program."""
    out, start = [], 0.0
    while True:
        end = min(start + max_chunk_s, duration_s)
        out.append((start, end))
        if end >= duration_s:
            return out
        start = end - overlap_s


def _write_wav16(path, samples):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SYNTH_RATE)
        fh.writeframes(samples.astype("<i2").tobytes())


def gen_synth(rng, out, n_requests, tiny):
    (out / "req").mkdir()
    bank = rng.normal(0.0, 3.0, (64, SYNTH_VOCAB)).astype(np.float32)
    np.save(out / "logits_bank.npy", bank)
    zipf = 1.0 / (np.arange(SYNTH_VOCAB) + 8.0)
    zipf /= zipf.sum()
    scale = 0.25 if tiny else 1.0
    steps = stratified(rng, n_requests, 12, 33).astype(int)
    tok_u, frames_u = stratified_pair(rng, n_requests)
    frames = (150 + 450 * frames_u) * scale
    n_tokens = (100 + 300 * tok_u) * scale
    durations = stratified(rng, n_requests, 4.0, 10.0)
    requests = []
    for q in range(n_requests):
        steps_q, frames_q, tok_q = int(steps[q]), int(frames[q]), int(n_tokens[q])
        cond = rng.normal(0, 1, (SYNTH_MELS, frames_q)).astype(np.float32)
        uncond = (cond + rng.normal(0, 0.3, cond.shape)).astype(np.float32)
        tokens = rng.choice(SYNTH_VOCAB, size=tok_q, p=zipf).astype(np.int32)
        max_rounds = int(rng.integers(1, 5))
        target_tokens = int(rng.integers(10, 60))
        speed = float(rng.uniform(2.0, 6.0))
        expected = speed * target_tokens
        # attempts: some flagged or short, the last one clean, at most
        # max_rounds + 2 of them so the machine always reaches a verdict
        n_att = int(rng.integers(1, max_rounds + 3))
        att_frames = [int(expected * rng.uniform(0.3, 1.2)) for _ in range(n_att)]
        att_flags = [bool(rng.random() < 0.5) for _ in range(n_att)]
        att_frames[-1], att_flags[-1] = int(expected), False
        mask_start = int(rng.integers(0, 400))
        name = f"req/r{q:03d}"
        np.savez(out / f"{name}.npz", cond=cond, uncond=uncond, tokens=tokens,
                 att_frames=np.array(att_frames, dtype=np.int64),
                 att_flags=np.array(att_flags))
        duration = round(float(durations[q]), 3)
        max_chunk = round(float(rng.uniform(2.5, 4.0)), 3)
        overlap = round(float(rng.uniform(0.2, 0.6)), 3)
        intervals = chunk_intervals(duration, max_chunk, overlap)
        chunk_files = []
        for j, (a, b) in enumerate(intervals):
            n = int(round((b - a) * SYNTH_RATE))
            t = np.arange(n) / SYNTH_RATE
            freq = rng.uniform(110.0, 320.0)
            wave_ = 9000 * np.sin(2 * np.pi * freq * t + rng.uniform(0, 6.28))
            wave_ += rng.normal(0, 400, n)
            path = f"{name}_c{j}.wav"
            _write_wav16(out / path, np.clip(np.rint(wave_), -32768, 32767))
            chunk_files.append(path)
        requests.append({
            "arrays": f"{name}.npz", "steps": steps_q,
            "gamma": round(float(rng.uniform(0.0, 1.5)), 3),
            "strength": round(float(rng.uniform(2.0, 7.0)), 3),
            "repetition_penalty": round(float(rng.uniform(0.5, 2.0)), 3),
            "regen": {"avg_speed": speed, "target_tokens": target_tokens,
                      "mask_start": mask_start,
                      "mask_end": mask_start + int(rng.integers(20, 200)),
                      "max_rounds": max_rounds},
            "duration_s": duration, "max_chunk_s": max_chunk, "overlap_s": overlap,
            "fade_s": 0.01, "intervals": intervals, "chunks": chunk_files,
        })
    return {"rate": SYNTH_RATE, "vocab": SYNTH_VOCAB, "requests": requests}, {}


# --------------------------------------------------------------- sizes

SIZES = {
    # workload: (full, tiny)
    "clips": ({"n_batches": 24, "batch_size": 16, "letters": (8, 64),
               "dur_range": (1.0, 4.0), "defects_per_batch": 2, "emit_every": 8},
              {"n_batches": 2, "batch_size": 8, "letters": (8, 64),
               "dur_range": (1.0, 4.0), "defects_per_batch": 4, "emit_every": 4}),
    # Slow read speech with pauses, at most 63 letters, so that it aligns
    # today; plus, in every round, the seed-independent batch of 100-250
    # letters that fails.
    "longform": ({"n_batches": 24, "batch_size": 6, "letters": (40, 64),
                  "dur_range": (8.0, 20.0), "defects_per_batch": 0, "emit_every": 6,
                  "rate": (2.5, 5.0),
                  "failing": {"batch_size": 6, "letters": (100, 251), "rate": (9.0, 16.0)}},
                 {"n_batches": 2, "batch_size": 2, "letters": (40, 64),
                  "dur_range": (8.0, 20.0), "defects_per_batch": 0, "emit_every": 2,
                  "rate": (2.5, 5.0),
                  "failing": {"batch_size": 2, "letters": (100, 251), "rate": (9.0, 16.0)}}),
    "recurate": ({"n_manifests": 4, "per_manifest": 2048, "shards": 1000},
                 {"n_manifests": 2, "per_manifest": 40, "shards": 16}),
    "synth": ({"n_requests": 24}, {"n_requests": 3}),
}


def generate(workload, seed, out, tiny=False):
    out = Path(out)
    out.mkdir(parents=True)
    # One stream per workload, so seeds are independent across workloads.
    rng = np.random.default_rng([seed, sorted(SIZES).index(workload)])
    sizes = SIZES[workload][1 if tiny else 0]
    if workload in ("clips", "longform"):
        meta, expect = gen_pipeline(rng, out, workload, **sizes)
    elif workload == "recurate":
        meta, expect = gen_recurate(rng, out, **sizes)
    else:
        meta, expect = gen_synth(rng, out, sizes["n_requests"], tiny)
    meta.update(workload=workload, seed=seed, tiny=tiny, sizes=sizes)
    (out / "meta.json").write_text(json.dumps(meta, ensure_ascii=False), encoding="utf-8")
    (out / "expect.json").write_text(json.dumps(expect, ensure_ascii=False),
                                     encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
