"""Generation-time edit control: repetition penalty, re-generation retries,
and chunked synthesis with cross-fade stitching.

The repetition penalty grows linearly with how much has been generated, so
long outputs get pushed harder away from their own history. The retry state
machine re-runs a span when the generator either raised its own retry flag
or produced suspiciously few frames for the text, widening the edit mask and
raising the penalty each round until a retry budget runs out. Long texts are
synthesized in overlapping chunks and spliced back together at zero
crossings with a short linear cross-fade.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .manifest import is_integer, is_real

# A retry fires when the output is shorter than this fraction of the
# expected frame count for the text.
SHORTFALL_FRACTION = 0.5
# Each retry widens the edit mask by this many frames per side (0.5 s at
# 50 frames/s) and raises the repetition penalty by PENALTY_DELTA.
MASK_EXPAND_FRAMES = 25
PENALTY_DELTA = 1.0


class EditControlError(Exception):
    pass


class StitchError(EditControlError):
    pass


def _require(test, kind: str, error: type[EditControlError] = EditControlError, /,
             **values) -> None:
    """error naming the first of values that test refuses."""
    for name, value in values.items():
        if not test(value):
            raise error(f"{name} must be {kind}, got {value!r}")


# ---------------------------------------------------------------- penalty

@dataclass(frozen=True)
class PenaltyParams:
    """Scaling of the history penalty with generated length.

    The effective factor is ``repetition_penalty / 100 * num_generated + 1``:
    neutral at zero length and growing linearly from there.
    """

    repetition_penalty: float = 1.0

    def __post_init__(self):
        _require(is_real, "a real number", repetition_penalty=self.repetition_penalty)
        if not (0 <= self.repetition_penalty < np.inf):
            raise EditControlError(f"repetition_penalty must be finite and "
                                   f"non-negative, got {self.repetition_penalty}")

    def bumped(self, delta: float) -> "PenaltyParams":
        return PenaltyParams(self.repetition_penalty + delta)


def penalty_factor(params: PenaltyParams, num_generated: int) -> float:
    """Length-scaled penalty factor, >= 1 whenever the penalty is."""
    if num_generated < 0:
        raise EditControlError(f"num_generated must be non-negative, got "
                               f"{num_generated}")
    return params.repetition_penalty / 100.0 * num_generated + 1.0


def apply_penalty(logits: np.ndarray, history_tokens: Sequence[int],
                  factor: float) -> np.ndarray:
    """Discount the logits of already-emitted tokens.

    A negative logit is multiplied by the factor and any other divided by
    it, so the likelihood of a history token never increases; zero and NaN
    logits keep their value, and a signalling NaN comes back quieted.
    ``logits`` must hold real numbers (integers or floats).
    ``history_tokens`` is any 1-D integer sequence (a list or an integer
    ndarray) and may repeat tokens: each history token is penalised once.
    One call is a few NumPy operations over the history,
    O(len(history_tokens)). Returns a new float64 array.
    """
    if not factor > 0:
        raise EditControlError(f"penalty factor must be positive, got {factor}")
    logits = np.asarray(logits)
    if logits.dtype.kind not in "iuf":
        raise EditControlError(f"logits must be real numbers, not {logits.dtype}")
    out = logits.astype(np.float64)
    if out.ndim != 1:
        raise EditControlError(f"logits must be 1-D, got shape {out.shape}")
    idx = np.asarray(history_tokens)
    if idx.ndim != 1:
        raise EditControlError(f"history tokens must be 1-D, got shape {idx.shape}")
    if idx.size == 0:
        return out
    if idx.dtype.kind not in "iu":
        raise EditControlError(f"history tokens must be integers, got {idx.dtype}")
    vocab = out.shape[0]
    try:
        # The gather below would wrap a negative token round, and NumPy casts
        # a uint64 token past the intp range to a negative one. Indexing at
        # argmin/argmax costs a third of what min/max do on short histories.
        if idx.dtype.kind == "u":
            if idx[idx.argmax()] >= vocab:
                raise IndexError
        elif idx[idx.argmin()] < 0:
            raise IndexError
        values = out[idx]  # raises IndexError for tokens >= vocab
    except IndexError:
        bad = idx[(idx < 0) | (idx >= vocab)][0]
        raise EditControlError(f"history token {bad} outside vocabulary "
                               f"of {vocab}") from None
    # Zero and NaN take the division, which keeps them for every factor
    # (0 * inf would be NaN). Every value written back is computed from the
    # original logits, so a repeated token writes the same value each time.
    out[idx] = np.where(values < 0.0, values * factor, values / factor)
    return out


def avg_speed(frame_count: int, token_count: int) -> float:
    """Acoustic frames emitted per text token."""
    if token_count <= 0:
        raise EditControlError(f"token_count must be positive, got {token_count}")
    if frame_count < 0:
        raise EditControlError(f"frame_count must be non-negative, got {frame_count}")
    return frame_count / token_count


# ---------------------------------------------------------------- retries

@dataclass(frozen=True)
class RegenController:
    """State for the bounded re-generation loop around one edit span.

    Mask boundaries are in frames; each retry widens the mask by
    MASK_EXPAND_FRAMES per side and bumps the repetition penalty by
    PENALTY_DELTA.
    """

    avg_speed: float
    target_tokens: int
    mask_start: int
    mask_end: int
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    round: int = 0
    max_rounds: int = 3

    def __post_init__(self):
        _require(is_real, "a real number", avg_speed=self.avg_speed)
        _require(is_integer, "an integer", target_tokens=self.target_tokens,
                 mask_start=self.mask_start, mask_end=self.mask_end,
                 round=self.round, max_rounds=self.max_rounds)
        if not (self.target_tokens > 0 and 0 < self.expected_frames < np.inf):
            raise EditControlError("avg_speed and target_tokens must be positive "
                                   "and their product finite")
        if not 0 <= self.mask_start < self.mask_end:
            raise EditControlError(f"bad mask [{self.mask_start}, {self.mask_end})")
        if self.round < 0 or self.max_rounds < 0 or self.round > self.max_rounds:
            raise EditControlError(f"round {self.round} outside [0, {self.max_rounds}]")

    @property
    def expected_frames(self) -> float:
        return self.avg_speed * self.target_tokens


@dataclass(frozen=True)
class GenerationOutcome:
    """What one generation attempt reported back."""

    generated_frames: int
    re_gen_flag: bool = False

    def __post_init__(self):
        _require(is_integer, "an integer", generated_frames=self.generated_frames)


ACCEPT = "accept"
RETRY = "retry"
GIVE_UP = "give_up"


@dataclass(frozen=True)
class RegenDecision:
    action: str
    controller: RegenController
    too_short: bool = False
    flagged: bool = False


def regen_step(controller: RegenController,
               outcome: GenerationOutcome) -> RegenDecision:
    """Advance the retry state machine by one generation attempt.

    An attempt fails when the generator flagged it or when it produced fewer
    than half the expected frames. Failures retry with a widened mask and a
    bumped penalty until the round budget is exhausted, then give up.
    """
    too_short = outcome.generated_frames < SHORTFALL_FRACTION * controller.expected_frames
    flagged = outcome.re_gen_flag
    if not (too_short or flagged):
        return RegenDecision(ACCEPT, controller, too_short, flagged)
    if controller.round >= controller.max_rounds:
        return RegenDecision(GIVE_UP, controller, too_short, flagged)
    widened = replace(
        controller,
        round=controller.round + 1,
        mask_start=max(0, controller.mask_start - MASK_EXPAND_FRAMES),
        mask_end=controller.mask_end + MASK_EXPAND_FRAMES,
        penalty=controller.penalty.bumped(PENALTY_DELTA),
    )
    return RegenDecision(RETRY, widened, too_short, flagged)


def run_regen(controller: RegenController,
              outcomes: Sequence[GenerationOutcome]) -> list[RegenDecision]:
    """Feed outcomes through the machine until it accepts or gives up."""
    decisions: list[RegenDecision] = []
    for outcome in outcomes:
        decision = regen_step(controller, outcome)
        decisions.append(decision)
        if decision.action != RETRY:
            break
        controller = decision.controller
    return decisions


# ---------------------------------------------------------------- chunking

def chunk(duration_s: float, max_chunk_s: float,
          overlap_s: float) -> list[tuple[float, float]]:
    """Cover [0, duration_s] with intervals of at most max_chunk_s seconds.

    Adjacent intervals overlap by exactly overlap_s; a final shorter chunk
    absorbs the remainder.
    """
    _require(is_real, "a real number", duration_s=duration_s, max_chunk_s=max_chunk_s,
             overlap_s=overlap_s)
    if not (0 < duration_s < np.inf):
        raise EditControlError(f"duration must be finite and positive, got {duration_s}")
    if not (0 < overlap_s < max_chunk_s):
        raise EditControlError(f"need 0 < overlap_s < max_chunk_s, got "
                               f"overlap {overlap_s}, max {max_chunk_s}")
    intervals: list[tuple[float, float]] = []
    start = 0.0
    while True:
        end = min(start + max_chunk_s, duration_s)
        intervals.append((start, end))
        if end >= duration_s:
            return intervals
        start = end - overlap_s


# ---------------------------------------------------------------- stitching

@dataclass(frozen=True)
class SplicePoint:
    """Where one overlap was joined, in output sample coordinates."""

    boundary: int            # which segment pair (0 joins segments 0 and 1)
    overlap_start: int       # absolute sample where the overlap begins
    splice: int              # absolute sample of the chosen splice point
    fade_start: int          # absolute first sample of the cross-fade window
    zero_crossing: bool      # False when the midpoint fallback was used


@dataclass(frozen=True)
class StitchPlan:
    segment_offsets: tuple[int, ...]  # output sample offset of each segment
    overlap_samples: tuple[int, ...]  # samples shared by each adjacent pair
    fade_samples: int
    splices: tuple[SplicePoint, ...]


def _nearest_zero_crossing(samples: np.ndarray, target: int) -> tuple[int, bool]:
    """Index of the sign change closest to target; ties pick the earlier one.

    A crossing sits between samples i and i+1 when their product is <= 0.
    Returns (index, found); when no crossing exists the target comes back
    with found=False.
    """
    values = samples.astype(np.float64)
    products = values[:-1] * values[1:]
    crossings = np.nonzero(products <= 0.0)[0]
    if crossings.size == 0:
        return target, False
    distances = np.abs(crossings - target)
    best = int(crossings[int(np.argmin(distances))])  # argmin takes the first
    return best, True


def stitch(segments: Sequence[np.ndarray], sample_rate: int, fade_s: float,
           overlap_s: float | Sequence[float]) -> tuple[np.ndarray, StitchPlan]:
    """Join overlapping segments into one waveform.

    ``overlap_s`` gives the overlap between each adjacent pair (one real
    number for all pairs or a sequence with one entry per boundary).
    Within each overlap the splice lands on the zero crossing of the
    earlier segment nearest the overlap midpoint, and a linear cross-fade
    of ``fade_s`` blends the two sides; everything outside the fade windows
    is copied sample-exact from its source segment.
    """
    if not segments:
        raise StitchError("need at least one segment")
    arrays = [np.asarray(s) for s in segments]
    for i, arr in enumerate(arrays):
        if arr.ndim != 1:
            raise StitchError(f"segment {i} must be mono, got shape {arr.shape}")
    dtype = arrays[0].dtype
    if any(arr.dtype != dtype for arr in arrays):
        raise StitchError("segments must share one sample dtype")
    _require(is_integer, "an integer", StitchError, sample_rate=sample_rate)
    _require(is_real, "a real number", StitchError, fade_s=fade_s)
    if sample_rate <= 0:
        raise StitchError(f"sample_rate must be positive, got {sample_rate}")

    n_boundaries = len(arrays) - 1
    if is_real(overlap_s):
        overlap_s = [overlap_s] * n_boundaries
    if not (isinstance(overlap_s, (Sequence, np.ndarray)) and all(map(is_real, overlap_s))):
        raise StitchError(f"overlap_s must be a real number or a sequence of them, "
                          f"got {overlap_s!r}")
    overlaps_s = [float(v) for v in overlap_s]
    if len(overlaps_s) != n_boundaries:
        raise StitchError(f"{n_boundaries} boundaries but {len(overlaps_s)} overlap values")
    if not (np.isfinite(fade_s) and fade_s >= 0 and np.isfinite(overlaps_s).all()):
        raise StitchError(f"fade_s must be finite and >= 0 and every overlap finite, "
                          f"got fade_s={fade_s}, overlap_s={overlaps_s}")

    n_fade = max(1, round(fade_s * sample_rate))
    overlaps = [round(v * sample_rate) for v in overlaps_s]
    for b, n_ov in enumerate(overlaps):
        if n_ov < n_fade:
            raise StitchError(f"boundary {b}: overlap of {n_ov} samples is "
                              f"shorter than the {n_fade}-sample fade window")
    # Overlaps are >= n_fade >= 1, so this also fits each overlap in both segments.
    for i, arr in enumerate(arrays):
        need = (overlaps[i - 1] if i > 0 else 0) + (overlaps[i] if i < n_boundaries else 0)
        if len(arr) < need:
            raise StitchError(f"segment {i} is shorter than its combined overlaps")

    total_len = sum(len(a) for a in arrays) - sum(overlaps)
    out = np.zeros(total_len, dtype=dtype)

    offsets = [0]
    for arr, n_ov in zip(arrays, overlaps):
        offsets.append(offsets[-1] + len(arr) - n_ov)

    # Lay segments front to back so the later one wins inside each overlap,
    # then hand the stretch before the fade window back to the earlier one.
    for i in range(len(arrays)):
        out[offsets[i]:offsets[i] + len(arrays[i])] = arrays[i]

    splices = []
    for b in range(n_boundaries):
        n_ov = overlaps[b]
        left, right = arrays[b], arrays[b + 1]
        overlap_start = offsets[b + 1]
        left_tail = left[len(left) - n_ov:]
        midpoint = n_ov // 2
        splice_local, found = _nearest_zero_crossing(left_tail, midpoint)

        fade_lo = splice_local - n_fade // 2
        fade_lo = min(max(fade_lo, 0), n_ov - n_fade)
        ramp = np.linspace(0.0, 1.0, n_fade)
        left_win = left_tail[fade_lo:fade_lo + n_fade].astype(np.float64)
        right_win = right[fade_lo:fade_lo + n_fade].astype(np.float64)
        mixed = (1.0 - ramp) * left_win + ramp * right_win
        if np.issubdtype(dtype, np.integer):
            mixed = np.rint(mixed).astype(dtype)
        else:
            mixed = mixed.astype(dtype)

        # Left of the fade window the earlier segment wins.
        left_region_start = overlap_start
        left_region_end = overlap_start + fade_lo
        out[left_region_start:left_region_end] = left_tail[:fade_lo]
        out[left_region_end:left_region_end + n_fade] = mixed

        splices.append(SplicePoint(
            boundary=b,
            overlap_start=overlap_start,
            splice=overlap_start + splice_local,
            fade_start=overlap_start + fade_lo,
            zero_crossing=found,
        ))

    plan = StitchPlan(tuple(offsets), tuple(overlaps), n_fade, tuple(splices))
    return out, plan
