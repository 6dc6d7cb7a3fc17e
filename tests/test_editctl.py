import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxkit import (
    EditControlError,
    GenerationOutcome,
    PenaltyParams,
    RegenController,
    StitchError,
    apply_penalty,
    avg_speed,
    chunk,
    penalty_factor,
    regen_step,
    run_regen,
    stitch,
)


# ----------------------------------------------------------------- penalty

def test_penalty_factor_examples():
    assert penalty_factor(PenaltyParams(2.0), 50) == 2.0
    assert penalty_factor(PenaltyParams(1.0), 0) == 1.0
    assert penalty_factor(PenaltyParams(0.0), 10_000) == 1.0
    assert penalty_factor(PenaltyParams(1.0), 100) == 2.0


def test_penalty_factor_grows_linearly():
    params = PenaltyParams(3.0)
    values = [penalty_factor(params, n) for n in range(0, 500, 50)]
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0])


def test_apply_penalty_sign_rules():
    logits = np.array([2.0, -2.0, 0.0, 1.0])
    out = apply_penalty(logits, [0, 1, 2], factor=2.0)
    assert out[0] == 1.0     # positive divides
    assert out[1] == -4.0    # negative multiplies
    assert out[2] == 0.0     # zero unchanged
    assert out[3] == 1.0     # non-history untouched


def test_apply_penalty_never_raises_history_logits():
    rng = np.random.default_rng(5)
    for _ in range(200):
        logits = rng.normal(scale=3.0, size=12)
        history = rng.integers(0, 12, size=6).tolist()
        factor = float(rng.uniform(1.0, 4.0))
        out = apply_penalty(logits, history, factor)
        for token in history:
            assert out[token] <= logits[token] + 1e-12


def test_apply_penalty_identity_at_factor_one():
    logits = np.array([3.0, -1.0, 0.5])
    out = apply_penalty(logits, [0, 1, 2], factor=1.0)
    assert np.array_equal(out, logits)


def test_apply_penalty_input_checks():
    with pytest.raises(EditControlError):
        apply_penalty(np.zeros(4), [7], factor=2.0)
    with pytest.raises(EditControlError):
        apply_penalty(np.zeros(4), [0], factor=0.0)
    with pytest.raises(EditControlError):
        penalty_factor(PenaltyParams(1.0), -1)
    with pytest.raises(EditControlError):
        PenaltyParams(-0.5)


def test_apply_penalty_history_checks():
    logits = np.zeros(4)
    for history in ([1, -1], np.array([0, -1], dtype=np.int32)):
        with pytest.raises(EditControlError, match="token -1 outside"):
            apply_penalty(logits, history, factor=2.0)
    for history in ([0, 4], np.array([4], dtype=np.int64)):
        with pytest.raises(EditControlError, match="token 4 outside"):
            apply_penalty(logits, history, factor=2.0)
    for history in ([1.0], [0, 2.5], np.array([1.0])):
        with pytest.raises(EditControlError, match="integers"):
            apply_penalty(logits, history, factor=2.0)
    for history in ([[0, 1]], np.zeros((2, 2), dtype=np.int64), 3):
        with pytest.raises(EditControlError, match="1-D"):
            apply_penalty(logits, history, factor=2.0)


def test_apply_penalty_empty_and_repeated_history():
    logits = np.array([2.0, -2.0, 1.0], dtype=np.float32)
    assert np.array_equal(apply_penalty(logits, [], 3.0), logits)
    assert apply_penalty(logits, np.array([], dtype=np.int64), 3.0).dtype == np.float64
    # A token repeated in the history is penalised once.
    assert apply_penalty(logits, [0, 0, 1, 0, 1], 2.0).tolist() == [1.0, -4.0, 1.0]


def reference_penalty(logits, history, factor):
    """The scalar rule, applied once per distinct history token."""
    out = np.array(logits, dtype=np.float64, copy=True)
    for token in {int(t) for t in history}:
        value = out[token]
        if value > 0:
            out[token] = value / factor
        elif value < 0:
            out[token] = value * factor
    return out


SPECIAL_LOGITS = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf])


@st.composite
def penalty_case(draw):
    vocab = draw(st.integers(1, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    logits = draw(arrays(dtype, vocab, elements=st.one_of(
        SPECIAL_LOGITS, st.floats(width=width))))
    history = draw(st.lists(st.integers(0, vocab - 1), max_size=40))
    kind = draw(st.sampled_from(["list", "int32", "int64"]))
    if kind != "list":
        history = np.array(history, dtype=kind)
    factor = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    return logits, history, factor


@settings(max_examples=300, deadline=None)
@given(penalty_case())
def test_apply_penalty_matches_scalar_loop(case):
    logits, history, factor = case
    before = logits.tobytes()
    with np.errstate(over="ignore", under="ignore"):
        want = reference_penalty(logits, history, factor)
        got = apply_penalty(logits, history, factor)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert logits.tobytes() == before


def _float64s(*bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


QUIET_NANS = _float64s(0x7FF8000000000000, 0x7FF8000000000123, 0xFFF8000000000123)
TRAP_LOGITS = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 2.5, -2.5, 1e-300, -1e300],
                              QUIET_NANS])


@pytest.mark.parametrize("factor", [np.inf, 1e300, 1e-300])
def test_apply_penalty_extreme_factors_match_scalar_loop(factor):
    # 0 * inf is NaN, so a zero logit must never be multiplied.
    history = np.arange(len(TRAP_LOGITS))
    with np.errstate(all="ignore"):
        want = reference_penalty(TRAP_LOGITS, history, factor)
        got = apply_penalty(TRAP_LOGITS, history, factor)
    assert got.tobytes() == want.tobytes()


def test_apply_penalty_quiets_a_signalling_nan():
    signalling = _float64s(0x7FF0000000000001)
    with np.errstate(invalid="ignore"):
        out = apply_penalty(signalling, [0], 2.0)
    assert out.view(np.uint64)[0] == 0x7FF8000000000001


@pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64"])
def test_apply_penalty_refuses_negative_tokens_of_every_width(dtype):
    with pytest.raises(EditControlError, match="^history token -1 outside vocabulary of 4$"):
        apply_penalty(np.zeros(4), np.array([0, -1], dtype=dtype), 2.0)


@pytest.mark.parametrize("dtype, token", [
    ("uint8", 4), ("uint8", 255), ("uint64", 4), ("uint64", 2**63), ("uint64", 2**64 - 1)])
def test_apply_penalty_refuses_unsigned_tokens_past_the_vocabulary(dtype, token):
    # NumPy casts a uint64 index past the intp range to a negative one,
    # which would wrap round to the end of the logits.
    with pytest.raises(EditControlError, match=f"^history token {token} outside vocabulary"):
        apply_penalty(np.zeros(4), np.array([1, token], dtype=dtype), 2.0)


def test_avg_speed():
    assert avg_speed(200, 50) == 4.0
    with pytest.raises(EditControlError):
        avg_speed(200, 0)


# ------------------------------------------------------------------ regen

def controller(**kwargs):
    fields = dict(avg_speed=4.0, target_tokens=25, mask_start=100,
                  mask_end=200)
    fields.update(kwargs)
    return RegenController(**fields)


def test_short_trigger_is_strict():
    ctl = controller()          # expected 100 frames, trigger below 50
    assert regen_step(ctl, GenerationOutcome(49)).action == "retry"
    assert regen_step(ctl, GenerationOutcome(49)).too_short
    at_half = regen_step(ctl, GenerationOutcome(50))
    assert at_half.action == "accept"
    assert not at_half.too_short


def test_flag_triggers_retry_even_when_long_enough():
    ctl = controller()
    decision = regen_step(ctl, GenerationOutcome(100, re_gen_flag=True))
    assert decision.action == "retry"
    assert decision.flagged and not decision.too_short


def test_retry_widens_mask_and_bumps_penalty():
    ctl = controller()
    decision = regen_step(ctl, GenerationOutcome(10))
    widened = decision.controller
    # 0.5 s of context at 50 frames/s on each side
    assert (widened.mask_start, widened.mask_end) == (75, 225)
    assert widened.penalty.repetition_penalty == \
        ctl.penalty.repetition_penalty + 1.0
    assert widened.round == 1


def test_mask_start_clamps_at_zero():
    ctl = controller(mask_start=10, mask_end=60)
    widened = regen_step(ctl, GenerationOutcome(0)).controller
    assert widened.mask_start == 0
    assert widened.mask_end == 85


def test_gives_up_after_round_budget():
    ctl = controller()
    outcomes = [GenerationOutcome(0, re_gen_flag=True)] * 10
    decisions = run_regen(ctl, outcomes)
    assert [d.action for d in decisions] == \
        ["retry", "retry", "retry", "give_up"]


def test_all_flag_sequences_terminate():
    for flags in itertools.product([False, True], repeat=4):
        ctl = controller()
        outcomes = [GenerationOutcome(100, re_gen_flag=f) for f in flags]
        decisions = run_regen(ctl, outcomes)
        assert 1 <= len(decisions) <= 4
        assert decisions[-1].action in ("accept", "give_up")
        for earlier in decisions[:-1]:
            assert earlier.action == "retry"
        # mask width and penalty never shrink along the trajectory
        widths = [ctl.mask_end - ctl.mask_start] + \
            [d.controller.mask_end - d.controller.mask_start
             for d in decisions]
        penalties = [ctl.penalty.repetition_penalty] + \
            [d.controller.penalty.repetition_penalty for d in decisions]
        assert widths == sorted(widths)
        assert penalties == sorted(penalties)


def test_controller_validation():
    with pytest.raises(EditControlError):
        controller(mask_start=200, mask_end=100)
    with pytest.raises(EditControlError):
        controller(avg_speed=0.0)
    with pytest.raises(EditControlError):
        controller(round=4, max_rounds=3)


# --------------------------------------------------------------- chunking

def test_chunk_examples():
    assert chunk(50.0, 30.0, 2.0) == [(0.0, 30.0), (28.0, 50.0)]
    assert chunk(90.0, 30.0, 2.0) == [(0.0, 30.0), (28.0, 58.0),
                                      (56.0, 86.0), (84.0, 90.0)]
    assert chunk(10.0, 30.0, 2.0) == [(0.0, 10.0)]


def test_chunk_covers_duration_with_exact_overlaps():
    intervals = chunk(123.4, 17.0, 3.5)
    assert intervals[0][0] == 0.0
    assert intervals[-1][1] == 123.4
    for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
        assert a_end - b_start == pytest.approx(3.5)
        assert a_end - a_start <= 17.0 + 1e-9


def test_chunk_validation():
    with pytest.raises(EditControlError):
        chunk(0.0, 30.0, 2.0)
    with pytest.raises(EditControlError):
        chunk(50.0, 30.0, 30.0)
    with pytest.raises(EditControlError):
        chunk(50.0, 30.0, 0.0)


# --------------------------------------------------------------- stitching

def sine_chunks(sr=16000, seconds=2.0, overlap_s=0.5, freq=440.0):
    t = np.arange(int(sr * seconds)) / sr
    wave = (0.5 * np.sin(2 * np.pi * freq * t) * 32767).astype(np.int16)
    n_ov = int(overlap_s * sr)
    half = len(wave) // 2
    return wave, wave[: half + n_ov], wave[half:]


def test_stitch_reconstructs_phase_continuous_sine():
    wave, a, b = sine_chunks()
    out, plan = stitch([a, b], 16000, fade_s=0.010, overlap_s=0.5)
    assert len(out) == len(wave)
    assert np.array_equal(out, wave)
    assert plan.splices[0].zero_crossing


def test_stitch_non_overlap_regions_are_bit_exact():
    rng = np.random.default_rng(23)
    a = (rng.normal(scale=8000, size=4000)).astype(np.int16)
    b = (rng.normal(scale=8000, size=4000)).astype(np.int16)
    out, plan = stitch([a, b], 8000, fade_s=0.01, overlap_s=0.25)
    n_ov = 2000
    assert np.array_equal(out[: len(a) - n_ov], a[: len(a) - n_ov])
    assert np.array_equal(out[len(a):], b[n_ov:])
    assert len(out) == len(a) + len(b) - n_ov


def test_stitch_splice_lands_on_zero_crossing_nearest_midpoint():
    sr = 1000
    t = np.arange(2 * sr) / sr
    wave = (1000 * np.sin(2 * np.pi * 10 * t)).astype(np.int16)
    n_ov = 300
    a, b = wave[: sr + n_ov], wave[sr:]
    out, plan = stitch([a, b], sr, fade_s=0.02, overlap_s=n_ov / sr)
    splice = plan.splices[0]
    local = splice.splice - splice.overlap_start
    tail = a[len(a) - n_ov:].astype(np.int64)
    assert tail[local] * tail[min(local + 1, n_ov - 1)] <= 0
    assert abs(local - n_ov // 2) <= sr / 10 / 2 + 1  # within half a period


def test_stitch_fallback_when_no_crossing():
    a = np.full(1000, 500, dtype=np.int16)
    b = np.full(1000, 500, dtype=np.int16)
    out, plan = stitch([a, b], 1000, fade_s=0.01, overlap_s=0.5)
    assert not plan.splices[0].zero_crossing
    assert np.array_equal(out, np.full(1500, 500, dtype=np.int16))


def test_stitch_three_segments():
    sr = 8000
    t = np.arange(3 * sr) / sr
    wave = (6000 * np.sin(2 * np.pi * 220 * t)).astype(np.int16)
    n_ov = sr // 4
    a = wave[: sr + n_ov]
    b = wave[sr: 2 * sr + n_ov]
    c = wave[2 * sr:]
    out, plan = stitch([a, b, c], sr, fade_s=0.01, overlap_s=n_ov / sr)
    assert len(out) == len(wave)
    assert np.array_equal(out, wave)
    assert len(plan.splices) == 2
    assert plan.segment_offsets == (0, sr, 2 * sr)


def test_stitch_single_segment_copies():
    a = np.arange(100, dtype=np.int16)
    out, plan = stitch([a], 1000, fade_s=0.01, overlap_s=0.05)
    assert np.array_equal(out, a)
    assert plan.splices == ()


def test_stitch_float_segments():
    sr = 4000
    t = np.arange(2 * sr) / sr
    wave = np.sin(2 * np.pi * 100 * t).astype(np.float32)
    n_ov = sr // 4
    a, b = wave[: sr + n_ov], wave[sr:]
    out, plan = stitch([a, b], sr, fade_s=0.01, overlap_s=n_ov / sr)
    assert out.dtype == np.float32
    assert np.allclose(out, wave, atol=1e-6)


def test_stitch_validation():
    a = np.zeros(100, dtype=np.int16)
    with pytest.raises(StitchError):
        stitch([], 1000, 0.01, 0.05)
    with pytest.raises(StitchError):
        stitch([a, a], 1000, fade_s=0.2, overlap_s=0.05)  # fade > overlap
    # A segment shorter than one overlap fails the one check on its overlaps.
    with pytest.raises(StitchError, match="segment 1 is shorter than its combined"):
        stitch([a, np.zeros(10, dtype=np.int16)], 1000, 0.001, 0.05)
    with pytest.raises(StitchError, match="segment 0 is shorter than its combined"):
        stitch([np.zeros(10, dtype=np.int16), a], 1000, 0.001, 0.05)
    with pytest.raises(StitchError):
        stitch([a, a.astype(np.float32)], 1000, 0.001, 0.01)
    # Non-finite or negative durations are refused, not rounded or overflowed.
    for fade_s, overlap_s in [(float("nan"), 0.05), (float("inf"), 0.05),
                              (-0.001, 0.05), (0.001, float("nan")),
                              (0.001, float("inf")), (0.001, [float("-inf")])]:
        with pytest.raises(StitchError):
            stitch([a, a], 1000, fade_s, overlap_s)
    # A fade of 0 keeps its one-sample fade.
    assert stitch([a, a], 1000, 0.0, 0.05)[1].fade_samples == 1


def test_stitch_per_boundary_overlaps():
    a = np.zeros(300, dtype=np.int16)
    b = np.zeros(300, dtype=np.int16)
    c = np.zeros(300, dtype=np.int16)
    out, plan = stitch([a, b, c], 1000, fade_s=0.01,
                       overlap_s=[0.1, 0.05])
    assert len(out) == 900 - 100 - 50
    assert plan.overlap_samples == (100, 50)
