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

import errno
import functools
import io
import itertools
import math
import os
import stat
import struct
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .manifest import WordSpan, atomic_write

BLANK_TOKEN = "<blank>"

# The ways force_align can aggregate a word's frame posteriors into its score.
SCORE_MODES = ("geometric", "arithmetic")

# Each row of log-probs must sum to one in probability space within this.
_ROW_NORM_TOL = 1e-3

_TEXT_SUFFIX = ".emit"
_NPZ_SUFFIX = ".npz"
# The stat errors that mean "no such file" to find_emissions, as to Path.is_file.
_ABSENT_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)

# np.load reads a file as an archive only if it opens with a zip entry or
# is an empty zip.
_ZIP_PREFIXES = (b"PK\x03\x04", b"PK\x05\x06")
# Size in bytes of the header-length field of each .npy format version read.
_NPY_LENGTH_BYTES = {(1, 0): 2, (2, 0): 4}
# The arrays an emission archive holds, and the member file name of each.
_NPZ_ARRAYS = ("log_probs", "frame_dur_s", "vocab")
_NPZ_MEMBERS = {f"{name}.npy".encode(): name for name in _NPZ_ARRAYS}
# A zip archive's end record, central-directory entry and local header, in
# the layouts zipfile reads them with.
_END = struct.Struct(zipfile.structEndArchive)
_CENTRAL = struct.Struct(zipfile.structCentralDir)
_LOCAL = struct.Struct(zipfile.structFileHeader)

_SENTINEL = np.array([-np.inf])

# Back-pointer cells that align_grouped lets one group hold, one byte each:
# the group's longest frame count times the sum of its trellis rows, a row
# being a trellis's states plus two pad states.
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
        lp = np.asarray(self.log_probs)
        # Converting would drop an imaginary part or parse text as numbers.
        if lp.dtype.kind not in "iuf":
            raise EmissionFormatError(f"log_probs must be real numbers, not {lp.dtype}")
        lp = np.asarray(lp, dtype=np.float64)
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


def _labels_for_tokens(tokens: Sequence[str], vocab: Sequence[str]) -> list[int]:
    """Concatenate token characters into vocab indices."""
    index = {ch: i for i, ch in enumerate(vocab)}
    labels: list[int] = []
    for w, token in enumerate(tokens):
        if not token:
            raise AlignmentError(f"token {w} is empty")
        for ch in token:
            ix = index.get(ch)
            if ix is None or ix == 0:
                raise UnknownTokenError(ch, token)
            labels.append(ix)
    return labels


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
    back-pointer array (longest frames x the sum of the rows, each row a
    trellis plus its two pad states) stays within GROUP_CELLS; an
    utterance larger than that is aligned alone.
    Yields (key, result) in input order, result as align_batch gives it.
    """
    keys: list = []
    items: list = []
    frames = rows = 0
    for key, emissions, tokens in jobs:
        # The trellis's 2 * letters + 1 states plus the row's two pad states.
        row = 2 * sum(len(token) for token in tokens) + 3
        frames = max(frames, emissions.n_frames)
        if items and frames * (rows + row) > GROUP_CELLS:
            yield from zip(keys, align_batch(items, score_mode=score_mode))
            keys, items = [], []
            frames, rows = emissions.n_frames, 0
        rows += row
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

    @classmethod
    def prepare(cls, slot: int, emissions: EmissionMatrix,
                tokens: Sequence[str]) -> "_Job":
        if not tokens:
            raise AlignmentError("need at least one token to align")
        labels = _labels_for_tokens(tokens, emissions.vocab)
        needed = min_frames_required(labels)
        if emissions.n_frames < needed:
            raise InfeasibleAlignmentError(emissions.n_frames, needed)
        ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
        ext[1::2] = labels
        return cls(slot, emissions, tokens, ext)

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
    # The trellis layout _viterbi works in, job b's row from start[b].
    # state_symbol is the vocab index each position emits, 0 on pads and
    # blanks; state_owner is the group-wide index of the token that owns
    # each label position, a token owning one label per letter.
    start = np.cumsum([0] + [len(job.ext) + 2 for job in jobs])
    state_symbol = np.concatenate([part for job in jobs for part in ((0, 0), job.ext)])
    letters = [len(token) for job in jobs for token in job.tokens]
    state_owner = np.zeros_like(state_symbol)
    state_owner[state_symbol > 0] = np.repeat(np.arange(len(letters)), letters)
    n_frames = np.array([job.n_frames for job in jobs])
    paths, totals = _viterbi(n_frames.tolist(), start, state_symbol,
                             flat, flat_start, stride)

    # Per-frame arrays of the whole group, utterance after utterance.
    position = np.fromiter(itertools.chain.from_iterable(paths),
                           dtype=np.int64, count=int(n_frames.sum()))
    utt = np.repeat(np.arange(len(jobs)), n_frames)
    frame_start = np.cumsum(n_frames) - n_frames
    symbol = state_symbol[position]

    # Frames spent on a label, with the group-wide index of the owning
    # token. Every label state lies on every complete path, so each token
    # owns at least one frame, and token indices never decrease.
    on_label = np.flatnonzero(symbol)
    label_utt = utt[on_label]
    frame = on_label - frame_start[label_utt]
    log_p = flat[flat_start[label_utt] + frame * stride[label_utt] + symbol[on_label]]
    owner = state_owner[position[on_label]]
    # np.bincount adds in frame order, as a running sum would.
    total_tokens = len(letters)
    counts = np.bincount(owner, minlength=total_tokens)
    if score_mode == "geometric":
        scores = np.exp(np.bincount(owner, weights=log_p, minlength=total_tokens) / counts)
    else:
        scores = np.bincount(owner, weights=np.exp(log_p), minlength=total_tokens) / counts
    scores = np.minimum(scores, 1.0).tolist()
    token_ids = np.arange(total_tokens)
    first = frame[np.searchsorted(owner, token_ids, side="left")]
    last = frame[np.searchsorted(owner, token_ids, side="right") - 1]
    n_tokens = np.array([len(job.tokens) for job in jobs])
    token_start = np.cumsum(n_tokens) - n_tokens
    frame_dur = np.repeat([job.emissions.frame_dur_s for job in jobs], n_tokens)
    starts = (first * frame_dur).tolist()
    ends = ((last + 1) * frame_dur).tolist()
    symbols = symbol.tolist()

    results = []
    for job, lo, f0, total in zip(jobs, token_start.tolist(), frame_start.tolist(), totals):
        words = tuple(WordSpan(word=token, start_s=starts[lo + w], end_s=ends[lo + w],
                               score=scores[lo + w])
                      for w, token in enumerate(job.tokens))
        results.append(AlignmentResult(
            words=words, path=tuple(symbols[f0:f0 + job.n_frames]),
            path_logprob=total,
            score=float(sum(word.score for word in words) / len(words)),
            frame_dur_s=job.emissions.frame_dur_s))
    return results


def _viterbi(frames: list[int], start: np.ndarray, symbol: np.ndarray,
             flat: np.ndarray, flat_start: np.ndarray,
             stride: np.ndarray) -> tuple[list[list[int]], list[float]]:
    """Best path through each row of the trellis layout, and its log-probability.

    Row b lies at positions start[b] to start[b + 1] of one state vector:
    two pad states, then the states of a trellis over frames[b] frames,
    position p emitting vocab index symbol[p]. So every per-frame call
    works on contiguous slices. Every state starts at -inf. The pad states
    read the -inf sentinel at the end of flat, so they stay -inf and no row
    reads its neighbour's states. Rows are sorted longest first, so the
    rows still running at any frame are a prefix of the vector. A path is
    the position it holds at each frame.
    """
    size = len(symbol)
    rows = np.diff(start)
    pads = np.concatenate([start[:-1], start[:-1] + 1])
    # at[p]: index into flat of position p's emission at the current frame.
    # Pad states start at the sentinel, the last entry of flat, and read it
    # at every frame, as take clips the indices past it.
    at = np.repeat(flat_start, rows) + symbol
    at[pads] = flat.size - 1
    step = np.repeat(stride, rows)
    # skip_cost[p]: 0 where label p may be entered from the label two
    # positions back, else -inf.
    label = symbol > 0
    skip_cost = np.full(size, -np.inf)
    skip_cost[2:][label[2:] & label[:-2] & (symbol[2:] != symbol[:-2])] = 0.0

    # Frame t's scores go to score[t % 2]; position p is score[:, 2 + p].
    # The two leading -inf entries let position p read p - 1 and p - 2 as
    # plain slices. A path starts in its trellis's first blank or label,
    # the two states after the pad states.
    score = np.full((2, 2 + size), -np.inf)
    score[0, 4 + pads] = flat[at[2 + pads]]
    # back[t, p]: 0 = stay, 1 = advance from p-1, 2 = skip from p-2
    back = np.empty((frames[0], size), dtype=np.int8)
    back_bool = back.view(np.bool_)
    emit = np.empty(size)
    skipped = np.empty(size)
    skip_wins = np.empty(size, dtype=bool)
    take = flat.take
    offsets = start.tolist()

    t = 1
    for k in range(len(frames), 0, -1):
        stop = frames[k - 1]
        if t >= stop:
            continue
        m = offsets[k]
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

    paths, totals = [], []
    pointer = back.item
    for b, end in enumerate(offsets[1:]):
        last = frames[b] - 1
        final = score[last & 1, 2:]
        # Valid endings: final label or final blank; prefer the label on a tie.
        p = end - 2
        if final[p] < final[p + 1]:
            p += 1
        totals.append(float(final[p]))
        path = [0] * frames[b]
        for t in range(last, 0, -1):
            path[t] = p
            p -= pointer(t, p)
        path[0] = p
        paths.append(path)
    return paths, totals


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
    if path.suffix == _TEXT_SUFFIX:
        # The header line is split on whitespace when read back.
        for entry in emissions.vocab:
            if entry.split() != [entry]:
                raise EmissionFormatError(f"{path.name}: vocabulary entry {entry!r} "
                                          f"is empty or holds whitespace")
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
    except (ValueError, TypeError, EOFError, RuntimeError, zipfile.BadZipFile,
            zlib.error) as exc:
        # _load_npz refuses a non-archive, a malformed .npy member, an
        # object array and an offset before the start of the file
        # (ValueError), a truncated archive or a bad CRC as BadZipFile;
        # zipfile refuses an encrypted member (RuntimeError) and an
        # unsupported version, method or flag bit (NotImplementedError, a
        # RuntimeError). Text that is not UTF-8 raises UnicodeDecodeError,
        # a ValueError.
        raise EmissionFormatError(f"{path.name}: {exc}") from exc
    raise EmissionFormatError(f"unsupported emission file suffix: {path.name}")


def _load_npz(path: Path) -> EmissionMatrix:
    """Read an archive as np.load(allow_pickle=False) would, without np.load.

    The file is read with one call. An archive laid out as np.savez writes
    one is taken apart from those bytes directly (_savez_members); any
    other goes to zipfile over the same bytes, so its errors are zipfile's.
    Either way each member's CRC is checked, and one .npy parser reads it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] not in _ZIP_PREFIXES:
        raise ValueError("not a zip archive")
    members = _savez_members(data)
    if members is not None:
        log_probs, frame_dur_s, vocab = (_read_npy(io.BytesIO(members[name]), name)
                                         for name in _NPZ_ARRAYS)
    else:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            log_probs, frame_dur_s, vocab = (_read_member(archive, name)
                                             for name in _NPZ_ARRAYS)
    if vocab.ndim != 1:
        raise ValueError(f"vocab must be 1-D, got shape {vocab.shape}")
    return EmissionMatrix(log_probs=log_probs, frame_dur_s=float(frame_dur_s),
                          vocab=tuple(map(str, vocab.tolist())))


def _savez_members(data: bytes) -> dict[str, bytes] | None:
    """The three members of an archive laid out exactly as np.savez writes it.

    None unless every field zipfile reads has the value np.savez writes:
    the end record is the last 22 bytes, with no comment, one disk, no zip64
    locator before it and the central directory right before it; each
    central entry is stored with flag bits 0, no extra field or comment and
    a version zipfile reads; the local headers and their data follow each
    other from byte 0 up to the central directory, in its order, each with
    the name of its entry; each CRC matches; and the members are exactly
    _NPZ_ARRAYS. The local header's extra field (np.savez writes a zip64
    one there) is skipped by its length, and the sizes come from the central
    directory, as zipfile does. So zipfile accepts every archive that this
    accepts and reads the same member bytes from it.
    """
    end = len(data) - _END.size
    if end < 0:
        return None
    (signature, disk, directory_disk, disk_entries, entries, directory_size,
     directory_start, comment_size) = _END.unpack_from(data, end)
    if (signature != zipfile.stringEndArchive or disk or directory_disk
            or comment_size or disk_entries != entries or entries != len(_NPZ_ARRAYS)
            or directory_start + directory_size != end
            or data[end - 20:end - 16] == zipfile.stringEndArchive64Locator):
        return None
    members: dict[str, bytes] = {}
    entry, local = directory_start, 0
    while entry < end:
        if entry + _CENTRAL.size > end:
            return None
        (signature, _, _, version, _, flags, method, _, _, crc, size, file_size,
         name_size, extra_size, comment_size, _, _, _, offset) = _CENTRAL.unpack_from(
            data, entry)
        name = data[entry + _CENTRAL.size:entry + _CENTRAL.size + name_size]
        array = _NPZ_MEMBERS.get(name)
        if (signature != zipfile.stringCentralDir or version > zipfile.MAX_EXTRACT_VERSION
                or flags or method != zipfile.ZIP_STORED or extra_size or comment_size
                or size != file_size or offset != local or array is None
                or array in members or local + _LOCAL.size > directory_start):
            return None
        entry += _CENTRAL.size + name_size
        local_fields = _LOCAL.unpack_from(data, local)
        start = local + _LOCAL.size + name_size + local_fields[-1]
        if (local_fields[0] != zipfile.stringFileHeader or local_fields[-2] != name_size
                or data[local + _LOCAL.size:local + _LOCAL.size + name_size] != name
                or start + size > directory_start):
            return None
        members[array] = member = data[start:start + size]
        if zlib.crc32(member) != crc:
            return None
        local = start + size
    if entry != end or local != directory_start or len(members) != len(_NPZ_ARRAYS):
        return None
    return members


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """The array np.savez stored under name, read through zipfile."""
    try:
        fp = archive.open(f"{name}.npy")
    except KeyError:
        raise KeyError(name) from None
    with fp:
        return _read_npy(fp, name)


def _read_npy(fp: BinaryIO, name: str) -> np.ndarray:
    """The array in one .npy member, writable, in its header's order."""
    version = np.lib.format.read_magic(fp)
    if version not in _NPY_LENGTH_BYTES:
        raise ValueError(f"{name}: unsupported .npy format version {version}")
    field = fp.read(_NPY_LENGTH_BYTES[version])
    header = field + fp.read(int.from_bytes(field, "little"))
    shape, fortran_order, dtype = _npy_header(version, header)
    data = fp.read()
    return np.frombuffer(bytearray(data), dtype, count=math.prod(shape)).reshape(
        shape, order="F" if fortran_order else "C")


@functools.lru_cache(maxsize=1024)
def _npy_header(version: tuple[int, int],
                header: bytes) -> tuple[tuple[int, ...], bool, np.dtype]:
    """Shape, Fortran order and dtype from a .npy header and its length field.

    A header parse costs a literal_eval, and a corpus's archives share few
    distinct headers, so each is parsed once; one that raises is not kept.
    """
    read = (np.lib.format.read_array_header_1_0 if version == (1, 0)
            else np.lib.format.read_array_header_2_0)
    shape, fortran_order, dtype = read(io.BytesIO(header))
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded without pickle")
    return shape, fortran_order, dtype


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
    """Locate the emission sidecar for an utterance key, if present.

    A key may name a file in a subdirectory (``spk1/utt1``). A key that is
    absolute or holds a ``..`` part would resolve outside ``directory``, so
    it raises AlignmentError.
    """
    if os.path.isabs(key) or ".." in key.split("/"):
        raise AlignmentError(f"key {key!r} is absolute or holds '..', so it "
                             f"would resolve outside {directory}")
    # One stat per suffix on a string path: listing the directory instead
    # costs more than the stats of a whole batch.
    stem = os.path.join(directory, key)
    for suffix in (_NPZ_SUFFIX, _TEXT_SUFFIX):
        candidate = stem + suffix
        try:
            if stat.S_ISREG(os.stat(candidate).st_mode):
                return Path(candidate)
        except OSError as exc:
            if exc.errno not in _ABSENT_ERRNOS:
                raise
        except ValueError:  # a NUL in the key names no file
            pass
    return None
