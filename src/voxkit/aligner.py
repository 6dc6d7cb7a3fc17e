"""Forced alignment of romanized tokens against frame emission matrices.

The aligner runs a max-probability Viterbi pass over the standard
blank-interleaved label trellis: the label sequence (the concatenated
characters of all tokens) is expanded to ``blank c1 blank c2 ... cL blank``,
and each frame either stays in its state, advances to the next state, or
skips the intervening blank when two neighboring labels differ. Word
boundaries fall out of which character owns each frame.

align_batch steps a group of utterances through their trellises together,
one frame at a time for the whole group, which costs far fewer interpreter
round trips than aligning them one by one; force_align is its one-utterance
call. align_grouped feeds it a stream in groups of bounded memory.

Emission matrices hold per-frame log-posteriors over a character vocabulary
with the blank at index 0, and can be stored either as .npz archives or as a
simple whitespace-separated text format with a one-line header.
"""

from __future__ import annotations

import itertools
import math
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .manifest import WordSpan, atomic_write

BLANK_TOKEN = "<blank>"

# The ways force_align can aggregate a word's frame posteriors into its score.
SCORE_MODES = ("geometric", "arithmetic")

# Each row of log-probs must sum to one in probability space within this.
_ROW_NORM_TOL = 1e-3

_TEXT_SUFFIX = ".emit"
_NPZ_SUFFIX = ".npz"

_SENTINEL = np.array([-np.inf])

# Back-pointer cells (frames x utterances x (states + 2), padded to the
# longest and widest member) that align_grouped lets one group hold, one
# byte each.
GROUP_CELLS = 1 << 20

K = TypeVar("K")


class AlignmentError(Exception):
    pass


class EmissionFormatError(AlignmentError):
    """The emission matrix or its file form is malformed."""


class UnknownTokenError(AlignmentError):
    """A token contains a character missing from the emission vocabulary."""

    def __init__(self, char: str, token: str):
        super().__init__(f"character {char!r} of token {token!r} is not in "
                         f"the emission vocabulary")
        self.char = char
        self.token = token


class InfeasibleAlignmentError(AlignmentError):
    """Too few frames to traverse every label state."""

    def __init__(self, n_frames: int, min_frames: int):
        super().__init__(f"{n_frames} frames cannot fit a label sequence "
                         f"needing at least {min_frames}")
        self.n_frames = n_frames
        self.min_frames = min_frames


def _logsumexp_rows(log_probs: np.ndarray) -> np.ndarray:
    peak = log_probs.max(axis=1, keepdims=True)
    return (peak + np.log(np.exp(log_probs - peak).sum(axis=1, keepdims=True))).ravel()


@dataclass(frozen=True)
class EmissionMatrix:
    """Per-frame log-posteriors, shape (frames, vocab); vocab[0] is blank."""

    log_probs: np.ndarray
    frame_dur_s: float
    vocab: tuple[str, ...]

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        object.__setattr__(self, "log_probs", lp)
        object.__setattr__(self, "vocab", tuple(self.vocab))
        if lp.ndim != 2 or lp.shape[0] < 1:
            raise EmissionFormatError(f"log_probs must be 2-D with at least one "
                                      f"frame, got shape {lp.shape}")
        if lp.shape[1] != len(self.vocab):
            raise EmissionFormatError(f"{lp.shape[1]} columns but "
                                      f"{len(self.vocab)} vocabulary entries")
        if len(set(self.vocab)) != len(self.vocab):
            raise EmissionFormatError("vocabulary entries must be unique")
        if len(self.vocab) < 2:
            raise EmissionFormatError("vocabulary needs the blank plus at "
                                      "least one label")
        if self.vocab[0] != BLANK_TOKEN:
            raise EmissionFormatError(f"vocab[0] must be {BLANK_TOKEN!r}, "
                                      f"got {self.vocab[0]!r}")
        if not (self.frame_dur_s > 0 and math.isfinite(self.frame_dur_s)):
            raise EmissionFormatError(f"frame_dur_s must be finite and positive, "
                                      f"got {self.frame_dur_s}")
        if not np.isfinite(lp).all():
            raise EmissionFormatError("log_probs contain non-finite values")
        norms = _logsumexp_rows(lp)
        worst = float(np.abs(norms).max())
        if worst > _ROW_NORM_TOL:
            raise EmissionFormatError(f"rows are not normalized log-"
                                      f"distributions (max |logsumexp| {worst:.2e})")

    @property
    def n_frames(self) -> int:
        return int(self.log_probs.shape[0])

    @property
    def duration_s(self) -> float:
        return self.n_frames * self.frame_dur_s


@dataclass(frozen=True)
class AlignmentResult:
    """Word spans plus the per-frame path that produced them."""

    words: tuple[WordSpan, ...]
    path: tuple[int, ...]        # vocab index per frame, 0 = blank
    path_logprob: float          # total log-probability of the chosen path
    score: float                 # mean word score
    frame_dur_s: float


def _labels_for_tokens(tokens: Sequence[str], vocab: Sequence[str]) -> tuple[list[int], list[int]]:
    """Concatenate token characters into vocab indices plus owner word ids."""
    index = {ch: i for i, ch in enumerate(vocab)}
    labels: list[int] = []
    owners: list[int] = []
    for w, token in enumerate(tokens):
        if not token:
            raise AlignmentError(f"token {w} is empty")
        for ch in token:
            ix = index.get(ch)
            if ix is None or ix == 0:
                raise UnknownTokenError(ch, token)
            labels.append(ix)
            owners.append(w)
    return labels, owners


def min_frames_required(labels: Sequence[int]) -> int:
    """L frames plus one separating blank per adjacent duplicate label."""
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def force_align(emissions: EmissionMatrix, tokens: Sequence[str], *,
                score_mode: str = "geometric") -> AlignmentResult:
    """Viterbi-align token characters to frames and score each word.

    Word scores aggregate the log-posteriors of the frames assigned to the
    word's characters: geometric mode (default) exponentiates their mean,
    arithmetic mode averages the posteriors directly. Score ties in the
    trellis resolve advance over self-loop over blank-skip, so results are
    deterministic.
    """
    result = align_batch([(emissions, tokens)], score_mode=score_mode)[0]
    if isinstance(result, AlignmentError):
        raise result
    return result


def align_batch(items: Sequence[tuple[EmissionMatrix, Sequence[str]]], *,
                score_mode: str = "geometric") -> list[AlignmentResult | AlignmentError]:
    """Viterbi-align several utterances together, in one loop over frames.

    ``items`` are (emissions, tokens) pairs. Returns one entry per item, in
    order: the AlignmentResult that force_align returns for it, or the
    AlignmentError that force_align raises. Each utterance keeps its own
    trellis, so sharing the frame loop changes no result.
    """
    if score_mode not in SCORE_MODES:
        raise ValueError(f"unknown score_mode {score_mode!r}")
    results: list = [None] * len(items)
    jobs = []
    for slot, (emissions, tokens) in enumerate(items):
        try:
            jobs.append(_Job.prepare(slot, emissions, tokens))
        except AlignmentError as exc:
            # Kept without its traceback, the error holds no frame of this
            # call, so the group's arrays are freed as soon as it returns.
            results[slot] = exc.with_traceback(None)
    if jobs:
        jobs.sort(key=lambda job: -job.n_frames)
        for job, result in zip(jobs, _align_group(jobs, score_mode)):
            results[job.slot] = result
    return results


def align_grouped(jobs: Iterable[tuple[K, EmissionMatrix, Sequence[str]]], *,
                  score_mode: str = "geometric"
                  ) -> Iterator[tuple[K, AlignmentResult | AlignmentError]]:
    """Align a stream of (key, emissions, tokens) jobs in bounded groups.

    Consecutive jobs go to align_batch together while the group's
    back-pointer array (longest frames x utterances x (widest trellis + 2),
    the two pad states of each row included) stays within GROUP_CELLS; an
    utterance larger than that is aligned alone.
    Yields (key, result) in input order, result as align_batch gives it.
    """
    keys: list = []
    items: list = []
    frames = width = 0
    for key, emissions, tokens in jobs:
        # The trellis's 2 * letters + 1 states plus the row's two pad states.
        row = 2 * sum(len(token) for token in tokens) + 3
        frames = max(frames, emissions.n_frames)
        width = max(width, row)
        if items and frames * width * (len(items) + 1) > GROUP_CELLS:
            yield from zip(keys, align_batch(items, score_mode=score_mode))
            keys, items = [], []
            frames, width = emissions.n_frames, row
        keys.append(key)
        items.append((emissions, tokens))
    yield from zip(keys, align_batch(items, score_mode=score_mode))


@dataclass(frozen=True)
class _Job:
    """One utterance whose labels fit its frames, ready for the trellis."""

    slot: int
    emissions: EmissionMatrix
    tokens: Sequence[str]
    ext: np.ndarray          # vocab index emitted in each state; even states are blanks
    owners: np.ndarray       # index of the token that owns each label

    @classmethod
    def prepare(cls, slot: int, emissions: EmissionMatrix,
                tokens: Sequence[str]) -> "_Job":
        if not tokens:
            raise AlignmentError("need at least one token to align")
        labels, owners = _labels_for_tokens(tokens, emissions.vocab)
        needed = min_frames_required(labels)
        if emissions.n_frames < needed:
            raise InfeasibleAlignmentError(emissions.n_frames, needed)
        ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
        ext[1::2] = labels
        return cls(slot, emissions, tokens, ext, np.array(owners, dtype=np.int64))

    @property
    def n_frames(self) -> int:
        return self.emissions.n_frames


def _align_group(jobs: list[_Job], score_mode: str) -> list[AlignmentResult]:
    """Align jobs sorted longest first; results in the same order."""
    log_probs = [job.emissions.log_probs for job in jobs]
    # Emissions are read from one flat copy of the group's log-probs, so no
    # frames x utterances x states array is ever built. The trailing -inf
    # is the sentinel that _viterbi's pad states read.
    flat = np.concatenate([*(lp.ravel() for lp in log_probs), _SENTINEL])
    flat_start = np.cumsum([0] + [lp.size for lp in log_probs[:-1]])
    stride = np.array([lp.shape[1] for lp in log_probs], dtype=np.int64)
    state_paths, totals = _viterbi(jobs, flat, flat_start, stride)

    # Per-frame arrays of the whole group, utterance after utterance.
    n_frames = np.array([job.n_frames for job in jobs])
    state = np.fromiter(itertools.chain.from_iterable(state_paths),
                        dtype=np.int64, count=int(n_frames.sum()))
    utt = np.repeat(np.arange(len(jobs)), n_frames)
    frame_start = np.cumsum(n_frames) - n_frames
    n_states = np.array([len(job.ext) for job in jobs])
    ext_start = np.cumsum(n_states) - n_states
    symbol = np.concatenate([job.ext for job in jobs])[ext_start[utt] + state]

    # Frames spent on a label, with the group-wide index of the owning
    # token. Every label state lies on every complete path, so each token
    # owns at least one frame, and token indices never decrease.
    on_label = np.flatnonzero(state & 1)
    label_utt = utt[on_label]
    frame = on_label - frame_start[label_utt]
    log_p = flat[flat_start[label_utt] + frame * stride[label_utt] + symbol[on_label]]
    n_labels = (n_states - 1) // 2
    n_tokens = np.array([len(job.tokens) for job in jobs])
    token_start = np.cumsum(n_tokens) - n_tokens
    owner = (np.concatenate([job.owners for job in jobs])[
        np.cumsum(n_labels)[label_utt] - n_labels[label_utt] + (state[on_label] >> 1)]
        + token_start[label_utt])
    # np.bincount adds in frame order, as a running sum would.
    total_tokens = int(n_tokens.sum())
    counts = np.bincount(owner, minlength=total_tokens)
    if score_mode == "geometric":
        scores = np.exp(np.bincount(owner, weights=log_p, minlength=total_tokens) / counts)
    else:
        scores = np.bincount(owner, weights=np.exp(log_p), minlength=total_tokens) / counts
    scores = np.minimum(scores, 1.0).tolist()
    token_ids = np.arange(total_tokens)
    first = frame[np.searchsorted(owner, token_ids, side="left")]
    last = frame[np.searchsorted(owner, token_ids, side="right") - 1]
    frame_dur = np.repeat([job.emissions.frame_dur_s for job in jobs], n_tokens)
    starts = (first * frame_dur).tolist()
    ends = ((last + 1) * frame_dur).tolist()
    symbols = symbol.tolist()

    results = []
    for b, job in enumerate(jobs):
        lo = int(token_start[b])
        words = tuple(WordSpan(word=token, start_s=starts[lo + w], end_s=ends[lo + w],
                               score=scores[lo + w])
                      for w, token in enumerate(job.tokens))
        f0 = int(frame_start[b])
        results.append(AlignmentResult(
            words=words, path=tuple(symbols[f0:f0 + job.n_frames]),
            path_logprob=totals[b],
            score=float(sum(word.score for word in words) / len(words)),
            frame_dur_s=job.emissions.frame_dur_s))
    return results


def _viterbi(jobs: list[_Job], flat: np.ndarray, flat_start: np.ndarray,
             stride: np.ndarray) -> tuple[list[list[int]], list[float]]:
    """Best state path and its log-probability for each job.

    The group's trellises lie end to end in one state vector, in rows of
    the widest trellis plus two states: row b's state s is at position
    b * row + 2 + s, so every per-frame call works on contiguous slices.
    Every state starts at -inf. The two pad states that open a row read
    the -inf sentinel at the end of flat, so they stay -inf and no row
    reads its neighbour's states. States past a trellis's last one read the
    blank column; they only ever feed later padding or the next row's pad
    states, so no real score sees them. Jobs are sorted longest first, so
    the rows still running at any frame are a prefix of the vector.
    """
    n = len(jobs)
    frames = [job.n_frames for job in jobs]
    row = max(len(job.ext) for job in jobs) + 2
    # at[b, 2 + s]: index into flat of state s's emission at the current frame.
    at = np.zeros((n, row), dtype=np.int64)
    # skip_cost[b, 2 + s]: 0 where s may be entered from s - 2, else -inf.
    skip_cost = np.full((n, row), -np.inf)
    for b, job in enumerate(jobs):
        ext = job.ext
        at[b, 2:2 + len(ext)] = ext
        can_skip = np.zeros(len(ext), dtype=bool)
        can_skip[3::2] = ext[3::2] != ext[1:-2:2]
        skip_cost[b, 2:2 + len(ext)][can_skip] = 0.0
    at += flat_start[:, None]
    step = np.repeat(stride, row).reshape(n, row)
    # Pad states read the sentinel at every frame; padding past a trellis
    # reads the blank column, as at[b, 2 + s] = flat_start[b] left it.
    at[:, :2] = flat.size - 1
    step[:, :2] = 0

    # Frame t's scores go to score[t % 2]; state p of the vector is
    # score[:, 2 + p]. The two leading -inf entries let state p read states
    # p - 1 and p - 2 as plain slices.
    score = np.full((2, 2 + n * row), -np.inf)
    score[0, 2:].reshape(n, row)[:, 2:4] = flat[at[:, 2:4]]
    at, step, skip_cost = at.ravel(), step.ravel(), skip_cost.ravel()
    # back[t, p]: 0 = stay, 1 = advance from p-1, 2 = skip from p-2
    back = np.empty((frames[0], n * row), dtype=np.int8)
    back_bool = back.view(np.bool_)
    emit = np.empty(n * row)
    skipped = np.empty(n * row)
    skip_wins = np.empty(n * row, dtype=bool)
    take = flat.take

    t = 1
    for k in range(n, 0, -1):
        stop = frames[k - 1]
        if t >= stop:
            continue
        m = k * row
        at_k, step_k, emit_k = at[:m], step[:m], emit[:m]
        cost_k, skipped_k, wins_k = skip_cost[:m], skipped[:m], skip_wins[:m]
        views = [(prev[2:2 + m], prev[1:1 + m], prev[:m], cur[2:2 + m])
                 for prev, cur in ((score[1], score[0]), (score[0], score[1]))]
        for t in range(t, stop):
            stay, advance, skip, best = views[t & 1]
            np.add(at_k, step_k, out=at_k)
            take(at_k, out=emit_k, mode="clip")
            np.add(skip, cost_k, out=skipped_k)
            # Tie order: advance beats stay beats skip.
            np.less_equal(stay, advance, out=back_bool[t, :m])
            np.maximum(advance, stay, out=best)
            np.greater(skipped_k, best, out=wins_k)
            np.maximum(best, skipped_k, out=best)
            np.putmask(back[t, :m], wins_k, 2)
            np.add(best, emit_k, out=best)
        t = stop

    state_paths, totals = [], []
    pointer = back.item
    for b, job in enumerate(jobs):
        last = frames[b] - 1
        first = b * row + 2          # vector position of the row's state 0
        final = score[last & 1, 2 + first:]
        # Valid endings: final label or final blank; prefer the label on a tie.
        state = len(job.ext) - 2
        if final[state] < final[state + 1]:
            state += 1
        totals.append(float(final[state]))
        states = [0] * frames[b]
        for t in range(last, 0, -1):
            states[t] = state
            state -= pointer(t, first + state)
        states[0] = state
        state_paths.append(states)
    return state_paths, totals


def unaligned_gaps(words: Iterable[WordSpan] | AlignmentResult,
                   duration_s: float) -> list[tuple[float, float]]:
    """Regions of [0, duration_s] not covered by any word span."""
    if isinstance(words, AlignmentResult):
        words = words.words
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for span in words:
        if span.start_s < cursor - 1e-9:
            raise ValueError(f"span {span.word!r} overlaps or precedes the "
                             f"previous one")
        if span.start_s > cursor:
            gaps.append((cursor, span.start_s))
        cursor = max(cursor, span.end_s)
    if cursor < duration_s:
        gaps.append((cursor, duration_s))
    return gaps


def save_emissions(emissions: EmissionMatrix, path: str | Path) -> None:
    """Write an emission matrix as .npz or .emit text, chosen by suffix.

    The file is replaced atomically: a failed write leaves the old one.
    """
    path = Path(path)
    if path.suffix not in (_NPZ_SUFFIX, _TEXT_SUFFIX):
        raise EmissionFormatError(f"unsupported emission file suffix: {path.name}")
    with atomic_write(path) as fh:
        if path.suffix == _NPZ_SUFFIX:
            np.savez(fh.buffer, log_probs=emissions.log_probs,
                     frame_dur_s=np.float64(emissions.frame_dur_s),
                     vocab=np.array(emissions.vocab, dtype=np.str_))
        else:
            header = " ".join([repr(emissions.frame_dur_s), *emissions.vocab])
            fh.write(header + "\n")
            for row in emissions.log_probs:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_emissions(path: str | Path) -> EmissionMatrix:
    """Read an emission matrix saved by save_emissions.

    A file that does not decode to a valid matrix, whatever the cause,
    raises EmissionFormatError.
    """
    path = Path(path)
    try:
        if path.suffix == _NPZ_SUFFIX:
            return _load_npz(path)
        if path.suffix == _TEXT_SUFFIX:
            return _load_emit(path)
    except KeyError as exc:
        raise EmissionFormatError(f"{path.name}: missing array {exc}") from exc
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        # np.load refuses a non-archive as pickled data (ValueError), a
        # truncated archive as BadZipFile; text that is not UTF-8 raises
        # UnicodeDecodeError, a ValueError.
        raise EmissionFormatError(f"{path.name}: {exc}") from exc
    raise EmissionFormatError(f"unsupported emission file suffix: {path.name}")


def _load_npz(path: Path) -> EmissionMatrix:
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        return EmissionMatrix(
            log_probs=data["log_probs"],
            frame_dur_s=float(data["frame_dur_s"]),
            vocab=tuple(str(v) for v in data["vocab"]),
        )


def _load_emit(path: Path) -> EmissionMatrix:
    """Read a .emit file; the body is parsed in C when it is well formed.

    np.loadtxt accepts a subset of what float() does (no "1_0", no
    non-ASCII digits), so any body it refuses or reads to another shape
    goes to _load_emit_checked, which decides acceptance and words the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        frame_dur, vocab = _read_emit_header(fh, path.name)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                log_probs = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            log_probs = None
    if log_probs is None or log_probs.shape[0] < 1 or log_probs.shape[1] != len(vocab):
        return _load_emit_checked(path)
    return EmissionMatrix(log_probs=log_probs, frame_dur_s=frame_dur, vocab=vocab)


def _load_emit_checked(path: Path) -> EmissionMatrix:
    """Read a .emit file value by value, with the line number of any error."""
    with open(path, "r", encoding="utf-8") as fh:
        frame_dur, vocab = _read_emit_header(fh, path.name)
        rows = []
        for line_no, line in enumerate(fh, 2):
            if not line.strip():
                continue
            values = line.split()
            if len(values) != len(vocab):
                raise EmissionFormatError(
                    f"{path.name}:{line_no}: expected {len(vocab)} values, "
                    f"got {len(values)}")
            try:
                rows.append([float(v) for v in values])
            except ValueError as exc:
                raise EmissionFormatError(f"{path.name}:{line_no}: {exc}") from exc
        if not rows:
            raise EmissionFormatError(f"{path.name}: no frames")
        return EmissionMatrix(log_probs=np.array(rows), frame_dur_s=frame_dur,
                              vocab=vocab)


def _read_emit_header(fh, name: str) -> tuple[float, tuple[str, ...]]:
    """The frame duration and vocabulary from a .emit file's first line."""
    header = fh.readline().split()
    if len(header) < 3:
        raise EmissionFormatError(f"{name}: header needs frame "
                                  f"duration plus at least two vocab entries")
    try:
        frame_dur = float(header[0])
    except ValueError as exc:
        raise EmissionFormatError(f"{name}: bad frame duration "
                                  f"{header[0]!r}") from exc
    return frame_dur, tuple(header[1:])


def find_emissions(directory: str | Path, key: str) -> Path | None:
    """Locate the emission sidecar for an utterance key, if present."""
    directory = Path(directory)
    for suffix in (_NPZ_SUFFIX, _TEXT_SUFFIX):
        candidate = directory / f"{key}{suffix}"
        if candidate.is_file():
            return candidate
    return None
