"""Property tests of the batched aligner, run when hypothesis is installed."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import test_aligner as aligner_tests  # noqa: E402
from voxkit import (AlignmentError, InfeasibleAlignmentError,  # noqa: E402
                    align_batch, force_align)

# Log-probs are normalized logits; small integers make exact ties common,
# so the tie order is exercised as well as the scores.
LOGITS = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-6.0, 6.0, allow_nan=False))


@st.composite
def utterance(draw, max_frames=30, max_letters=14):
    """Emissions plus tokens; letters past the vocabulary occur on purpose."""
    vocab_size = draw(st.integers(2, 4))
    n_frames = draw(st.integers(1, max_frames))
    logits = draw(arrays(np.float64, (n_frames, vocab_size), elements=LOGITS))
    emissions = aligner_tests.emissions_from_logits(
        logits, frame_dur_s=draw(st.sampled_from([0.01, 0.02, 0.04])))
    tokens = draw(st.lists(st.text(alphabet=aligner_tests.LETTERS, min_size=1,
                                   max_size=5),
                           min_size=1, max_size=max(1, max_letters // 3)))
    return emissions, tokens


def outcome(emissions, tokens, score_mode):
    try:
        return force_align(emissions, tokens, score_mode=score_mode)
    except AlignmentError as exc:
        return exc


@settings(max_examples=100, deadline=None)
@given(items=st.lists(utterance(), min_size=1, max_size=8),
       score_mode=st.sampled_from(["geometric", "arithmetic"]))
def test_group_equals_each_alone(items, score_mode):
    together = align_batch(items, score_mode=score_mode)
    assert len(together) == len(items)
    for (emissions, tokens), got in zip(items, together):
        alone = outcome(emissions, tokens, score_mode)
        if isinstance(alone, AlignmentError):
            assert type(got) is type(alone) and str(got) == str(alone)
        else:
            assert got.words == alone.words
            assert got.path == alone.path
            assert got.path_logprob == alone.path_logprob
            assert got.score == alone.score


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_viterbi_equals_exhaustive_enumeration(data):
    vocab_size = data.draw(st.integers(2, 4))
    n_frames = data.draw(st.integers(1, 7))
    labels = data.draw(st.lists(st.integers(1, vocab_size - 1),
                                min_size=1, max_size=3))
    logits = data.draw(arrays(np.float64, (n_frames, vocab_size), elements=LOGITS))
    emissions = aligner_tests.emissions_from_logits(logits)
    tokens = [emissions.vocab[i] for i in labels]
    expected = aligner_tests.best_path_by_enumeration(emissions.log_probs, labels)
    if expected == -math.inf:
        with pytest.raises(InfeasibleAlignmentError):
            force_align(emissions, tokens)
        return
    result = force_align(emissions, tokens)
    assert abs(result.path_logprob - expected) <= 1e-9
    picked = sum(emissions.log_probs[t, s] for t, s in enumerate(result.path))
    assert abs(picked - result.path_logprob) <= 1e-9
