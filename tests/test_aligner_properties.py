"""Property tests of the batched aligner, run when hypothesis is installed."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import test_aligner as aligner_tests  # noqa: E402
from voxkit import (BLANK_TOKEN, AlignmentError,  # noqa: E402
                    EmissionFormatError, InfeasibleAlignmentError, aligner,
                    align_batch, force_align, load_emissions,
                    min_frames_required)

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


def fixed_member(token, logits):
    return aligner_tests.emissions_from_logits(logits), [token]


# A long narrow trellis that scores high ahead of a shorter, wider one whose
# every path ties low: a row that read its neighbour's states would score
# higher. Then equal frame counts and a one-frame member.
NARROW_AHEAD_OF_WIDE = [
    fixed_member("a", np.tile([8.0, 0.0, 0.0, 0.0], (30, 1))),
    fixed_member("abcab", np.zeros((25, 4))),
    fixed_member("cc", np.random.default_rng(4).normal(size=(25, 4))),
    fixed_member("b", np.random.default_rng(3).normal(size=(1, 4))),
]

# One wide trellis ahead of narrow ones, so the rows differ in length and
# each starts at its own offset: a row read at another offset would take
# its neighbours' states. Then equal frame counts and a one-frame member.
WIDE_AHEAD_OF_NARROW = [
    fixed_member("abcabcab", np.random.default_rng(5).normal(size=(30, 4))),
    fixed_member("a", np.tile([0.0, 8.0, 0.0, 0.0], (12, 1))),
    fixed_member("cb", np.random.default_rng(6).normal(size=(12, 4))),
    fixed_member("b", np.random.default_rng(7).normal(size=(1, 4))),
]


@settings(max_examples=100, deadline=None)
@given(items=st.lists(utterance(), min_size=1, max_size=8),
       score_mode=st.sampled_from(["geometric", "arithmetic"]))
@example(items=WIDE_AHEAD_OF_NARROW, score_mode="geometric")
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


def spelled(labels, cuts):
    """Tokens over the test vocabulary, split after each letter marked in cuts."""
    tokens, token = [], ""
    for label, cut in zip(labels, cuts):
        token += aligner_tests.LETTERS[label - 1]
        if cut:
            tokens.append(token)
            token = ""
    return tokens + [token] if token else tokens


@st.composite
def feasible_member(draw, frames=None):
    """Emissions plus tokens that fit them; frames=None draws the frame count."""
    vocab_size = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(1, vocab_size - 1), min_size=1, max_size=12))
    needed = min_frames_required(labels)
    if frames is None or frames < needed:
        frames = needed + draw(st.sampled_from([0, 0, 1, 2, 5, 12]))
    logits = draw(arrays(np.float64, (frames, vocab_size), elements=LOGITS))
    cuts = draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    return aligner_tests.emissions_from_logits(logits), spelled(labels, cuts)


@st.composite
def feasible_group(draw):
    """Members of mixed widths and frame counts; some repeat the previous count."""
    items = [draw(feasible_member())]
    for _ in range(draw(st.integers(0, 6))):
        same = draw(st.booleans())
        items.append(draw(feasible_member(items[-1][0].n_frames if same else None)))
    return items


@settings(max_examples=150, deadline=None)
@given(items=feasible_group())
@example(items=NARROW_AHEAD_OF_WIDE)
@example(items=WIDE_AHEAD_OF_NARROW)
def test_group_matches_reference_trellis(items):
    for (emissions, tokens), got in zip(items, align_batch(items)):
        labels = [emissions.vocab.index(ch) for token in tokens for ch in token]
        total, states = aligner_tests.reference_trellis(emissions.log_probs, labels)
        assert got.path_logprob == total
        assert got.path == tuple(0 if s % 2 == 0 else labels[s // 2] for s in states)


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
ODD_TOKENS = ["1_0", "nan", "inf", "-inf", "١", "#", "+1.5", "1e-3", "0x1"]


@st.composite
def spelled_value(draw, value):
    """A text form that float() reads back as exactly value."""
    text = repr(value)
    kind = draw(st.sampled_from(["plain"] * 4 + ["plus", "exponent", "underscore",
                                                  "arabic"]))
    if kind == "plus" and not text.startswith("-"):
        return "+" + text
    if kind == "exponent":
        return f"{value:.17e}"
    if kind == "underscore":
        digits = [i for i in range(1, len(text)) if text[i - 1:i + 1].isdigit()]
        if digits:
            at = draw(st.sampled_from(digits))
            return text[:at] + "_" + text[at:]
    if kind == "arabic":
        return text.translate(ARABIC_INDIC_DIGITS)
    return text


@st.composite
def emit_line(draw, columns):
    """One body line: mostly a normalized row, else a blank or malformed one."""
    kind = draw(st.sampled_from(["row"] * 6 + ["blank", "odd", "short", "long"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t "]))
    logits = draw(arrays(np.float64, columns, elements=LOGITS))
    row = (logits - np.log(np.exp(logits).sum())).tolist()
    values = [draw(spelled_value(v)) for v in row]
    if kind == "odd":
        values[draw(st.integers(0, columns - 1))] = draw(st.sampled_from(ODD_TOKENS))
    elif kind == "short":
        values.pop()
    elif kind == "long":
        values.append(values[0])
    sep = draw(st.sampled_from([" ", " ", "  ", "\t", " \t "]))
    pad = draw(st.sampled_from(["", "", " ", "\t"]))
    return pad + sep.join(values) + draw(st.sampled_from(["", "", " ", "\t"]))


@st.composite
def emit_body(draw, columns=3):
    lines = draw(st.lists(emit_line(columns), max_size=8))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    body = "".join(line + end for line, end in zip(lines, endings))
    if body and draw(st.booleans()):
        body = body[:-len(endings[-1])]
    return body


def loaded(load, path):
    try:
        emissions = load(path)
    except EmissionFormatError as exc:
        return str(exc)
    return emissions.log_probs.shape, emissions.log_probs.tobytes(), emissions.vocab


@settings(max_examples=300, deadline=None)
@given(body=emit_body())
def test_emit_fast_path_agrees_with_checked_parser(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "utt.emit"
        path.write_bytes(f"0.02 {BLANK_TOKEN} a b\n{body}".encode("utf-8"))
        assert loaded(load_emissions, path) == loaded(aligner._load_emit_checked, path)
