import io
import math
import pickle
import re
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from voxkit import (
    AlignmentError,
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
from voxkit import aligner as aligner_module

LETTERS = "abc"


def emissions_from_logits(logits, frame_dur_s=0.02):
    logits = np.asarray(logits, dtype=np.float64)
    log_probs = logits - np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
    vocab = ("<blank>",) + tuple(LETTERS[: logits.shape[1] - 1])
    return EmissionMatrix(log_probs=log_probs, vocab=vocab,
                          frame_dur_s=frame_dur_s)


def peaked_emissions(targets, vocab_size, peak=8.0, frame_dur_s=0.02):
    logits = np.zeros((len(targets), vocab_size))
    for t, target in enumerate(targets):
        logits[t, target] = peak
    return emissions_from_logits(logits, frame_dur_s)


def best_path_by_enumeration(log_probs, labels):
    """Walk every legal blank-interleaved path and keep the best total.

    Intentionally brute force: start at the leading blank or first label,
    move stay/advance/skip (skips only land on a label different from the
    one two states back), and finish on the last label or trailing blank.
    Returns -inf when no complete path exists.
    """
    ext = [0]
    for label in labels:
        ext.extend([label, 0])
    n_frames = log_probs.shape[0]
    n_states = len(ext)
    best = -math.inf

    def walk(t, s, acc):
        nonlocal best
        acc += log_probs[t, ext[s]]
        if t == n_frames - 1:
            if s >= n_states - 2:
                best = max(best, acc)
            return
        walk(t + 1, s, acc)
        if s + 1 < n_states:
            walk(t + 1, s + 1, acc)
        if s + 2 < n_states and ext[s + 2] != 0 and ext[s + 2] != ext[s]:
            walk(t + 1, s + 2, acc)

    for start in (0, 1):
        if start < n_states:
            walk(0, start, 0.0)
    return best


def test_matches_enumeration_on_random_cases():
    rng = np.random.default_rng(20240817)
    checked_infeasible = 0
    for _ in range(500):
        n_frames = int(rng.integers(1, 9))
        vocab_size = int(rng.integers(2, 5))
        n_labels = int(rng.integers(1, 4))
        labels = [int(rng.integers(1, vocab_size)) for _ in range(n_labels)]
        logits = rng.normal(scale=2.0, size=(n_frames, vocab_size))
        emissions = emissions_from_logits(logits)
        tokens = [emissions.vocab[i] for i in labels]
        expected = best_path_by_enumeration(emissions.log_probs, labels)
        if expected == -math.inf:
            checked_infeasible += 1
            with pytest.raises(InfeasibleAlignmentError):
                force_align(emissions, tokens)
            continue
        result = force_align(emissions, tokens)
        assert abs(result.path_logprob - expected) <= 1e-9
    assert checked_infeasible > 10


def test_single_frame_single_label():
    emissions = EmissionMatrix(log_probs=np.log([[0.1, 0.9]]),
                               vocab=("<blank>", "a"), frame_dur_s=0.02)
    result = force_align(emissions, ["a"])
    span = result.words[0]
    assert (span.start_s, span.end_s) == (0.0, 0.02)
    assert abs(span.score - 0.9) < 1e-12
    assert result.path == (1,)


def test_infeasible_when_frames_cannot_hold_labels():
    emissions = emissions_from_logits(np.zeros((2, 4)))
    with pytest.raises(InfeasibleAlignmentError):
        force_align(emissions, ["abc"])


def test_duplicate_labels_need_separating_blank():
    assert min_frames_required([1, 1]) == 3
    assert min_frames_required([1, 2, 1]) == 3
    assert min_frames_required([1, 1, 1]) == 5
    emissions = emissions_from_logits(np.zeros((2, 2)))
    with pytest.raises(InfeasibleAlignmentError):
        force_align(emissions, ["aa"])
    emissions = emissions_from_logits(np.zeros((3, 2)))
    result = force_align(emissions, ["aa"])
    assert result.path == (1, 0, 1)


def test_word_spans_cover_peaked_path():
    # frames: a a blank b b blank -> word1 frames 0-1, word2 frames 3-4
    emissions = peaked_emissions([1, 1, 0, 2, 2, 0], vocab_size=3)
    result = force_align(emissions, ["a", "b"])
    first, second = result.words
    assert (first.start_s, first.end_s) == (0.0, 0.04)
    assert (second.start_s, second.end_s) == (0.06, 0.10)
    assert first.score > 0.99 and second.score > 0.99
    assert result.score == pytest.approx((first.score + second.score) / 2)


def test_multi_char_token_spans_all_its_frames():
    emissions = peaked_emissions([1, 2, 3], vocab_size=4)
    result = force_align(emissions, ["abc"])
    assert len(result.words) == 1
    assert (result.words[0].start_s, result.words[0].end_s) == (0.0, 0.06)


def test_score_modes_agree_on_constant_rows():
    log_probs = np.log(np.full((4, 2), 0.5))
    emissions = EmissionMatrix(log_probs=log_probs, vocab=("<blank>", "a"),
                               frame_dur_s=0.02)
    geometric = force_align(emissions, ["a"], score_mode="geometric")
    arithmetic = force_align(emissions, ["a"], score_mode="arithmetic")
    assert geometric.words[0].score == pytest.approx(arithmetic.words[0].score)


def test_uniform_shift_does_not_change_the_path():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 3))
    base = force_align(emissions_from_logits(logits), ["ab"])
    shifted = force_align(emissions_from_logits(logits + 3.5), ["ab"])
    assert base.path == shifted.path


def test_tie_break_is_deterministic_on_uniform_emissions():
    # Every path ties here. Advance beats stay in the back pointers, so the
    # label is entered at the latest tied frame, and the ending prefers the
    # label state over the trailing blank.
    emissions = emissions_from_logits(np.zeros((4, 2)))
    result = force_align(emissions, ["a"])
    assert result.path == (0, 0, 0, 1)
    again = force_align(emissions, ["a"])
    assert again.path == result.path


def test_unknown_token_character():
    emissions = emissions_from_logits(np.zeros((4, 3)))
    with pytest.raises(UnknownTokenError):
        force_align(emissions, ["az"])


def test_empty_tokens_rejected():
    emissions = emissions_from_logits(np.zeros((4, 3)))
    with pytest.raises(AlignmentError):
        force_align(emissions, [])
    with pytest.raises(AlignmentError):
        force_align(emissions, ["a", ""])


def test_emission_matrix_validates_rows():
    from voxkit.aligner import EmissionFormatError
    bad = np.zeros((2, 3))  # rows sum to 3, not 1
    with pytest.raises(EmissionFormatError):
        EmissionMatrix(log_probs=bad, vocab=("<blank>", "a", "b"),
                       frame_dur_s=0.02)
    with pytest.raises(EmissionFormatError):
        EmissionMatrix(log_probs=np.log(np.full((2, 2), 0.5)),
                       vocab=("a", "b"), frame_dur_s=0.02)


def test_unaligned_gaps():
    emissions = peaked_emissions([1, 0, 0, 2], vocab_size=3)
    result = force_align(emissions, ["a", "b"])
    assert unaligned_gaps(result, 0.08) == [(0.02, 0.06)]
    # trailing region counts as a gap too
    assert unaligned_gaps(result, 0.1) == [(0.02, 0.06), (0.08, 0.1)]


def test_npz_round_trip(tmp_path):
    emissions = peaked_emissions([1, 2, 0], vocab_size=3, frame_dur_s=0.04)
    path = tmp_path / "utt1.npz"
    save_emissions(emissions, path)
    back = load_emissions(path)
    assert np.allclose(back.log_probs, emissions.log_probs)
    assert back.vocab == emissions.vocab
    assert back.frame_dur_s == 0.04


def test_emit_text_round_trip(tmp_path):
    emissions = peaked_emissions([1, 2], vocab_size=3)
    path = tmp_path / "utt1.emit"
    save_emissions(emissions, path)
    back = load_emissions(path)
    assert np.array_equal(back.log_probs, emissions.log_probs)
    assert back.vocab == emissions.vocab


class _RowsThatFail:
    """Log-prob rows whose iteration fails after the first row."""

    def __init__(self, rows):
        self.rows = rows

    def __iter__(self):
        yield self.rows[0]
        raise OSError("disk full")


@pytest.mark.parametrize("suffix", [".npz", ".emit"])
def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch, suffix):
    path = tmp_path / f"utt1{suffix}"
    emissions = peaked_emissions([1, 2, 0], vocab_size=3)
    save_emissions(emissions, path)
    before = path.read_bytes()
    if suffix == ".npz":
        def broken(file, **arrays):
            file.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        monkeypatch.setattr(aligner_module.np, "savez", broken)
    else:
        emissions = SimpleNamespace(frame_dur_s=0.04, vocab=emissions.vocab,
                                    log_probs=_RowsThatFail(emissions.log_probs))
    with pytest.raises(OSError):
        save_emissions(emissions, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_well_formed_emit_body_skips_the_checked_parser(tmp_path, monkeypatch):
    path = tmp_path / "utt1.emit"
    save_emissions(peaked_emissions([1, 2, 0], vocab_size=3), path)

    def not_expected(path):
        raise AssertionError("the checked parser ran on a well-formed body")

    monkeypatch.setattr(aligner_module, "_load_emit_checked", not_expected)
    assert load_emissions(path).n_frames == 3


@pytest.mark.parametrize("vocab, bad", [
    (("<blank>", "a b", ""), "a b"),
    (("<blank>", "a", " "), " "),
    (("<blank>", "a", ""), ""),
    (("<blank>", "a", "b\tc"), "b\tc"),
    (("<blank>", "a", "b\n"), "b\n"),
])
def test_emit_save_refuses_vocabulary_its_header_cannot_hold(tmp_path, vocab, bad):
    emissions = EmissionMatrix(np.log(np.full((2, 3), 1 / 3)), 0.02, vocab)
    path = tmp_path / "utt1.emit"
    save_emissions(peaked_emissions([1, 2], vocab_size=3), path)
    before = path.read_bytes()
    with pytest.raises(EmissionFormatError, match=re.escape(repr(bad))):
        save_emissions(emissions, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    save_emissions(emissions, tmp_path / "utt1.npz")
    assert load_emissions(tmp_path / "utt1.npz").vocab == vocab


def load_with_np_load(path):
    """What load_emissions returned when it read archives through np.load."""
    with np.load(path, allow_pickle=False) as data:
        return EmissionMatrix(log_probs=data["log_probs"],
                              frame_dur_s=float(data["frame_dur_s"]),
                              vocab=tuple(str(v) for v in data["vocab"]))


def npy_bytes(array, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), version=version)
    return buf.getvalue()


def npy_members(emissions, version=None):
    return {"log_probs.npy": npy_bytes(emissions.log_probs, version),
            "frame_dur_s.npy": npy_bytes(np.float64(emissions.frame_dur_s)),
            "vocab.npy": npy_bytes(np.array(emissions.vocab))}


def write_zip(path, members):
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def savez_as(dtype, order, save=np.savez, **extra):
    def write(path, emissions):
        save(path, log_probs=np.asarray(emissions.log_probs, dtype=dtype, order=order),
             frame_dur_s=np.float64(emissions.frame_dur_s),
             vocab=np.array(emissions.vocab), **extra)
    return write


NPZ_FORMS = {
    **{f"{np.dtype(dtype).name}-{order}": savez_as(dtype, order)
       for dtype in (np.float16, np.float32, np.float64) for order in "CF"},
    "compressed": savez_as(np.float32, "C", save=np.savez_compressed),
    "npy-2.0": lambda path, emissions: write_zip(path, npy_members(emissions, (2, 0))),
    "extra-member": savez_as(np.float64, "C", extra=np.arange(4)),
}


@pytest.mark.parametrize("form", NPZ_FORMS)
def test_npz_reader_matches_np_load(tmp_path, form):
    path = tmp_path / "utt1.npz"
    NPZ_FORMS[form](path, peaked_emissions([1, 2, 0, 3, 3], vocab_size=4,
                                           frame_dur_s=0.04))
    got, want = load_emissions(path), load_with_np_load(path)
    assert got.log_probs.dtype == np.float64
    assert got.log_probs.tobytes() == want.log_probs.tobytes()
    assert got.log_probs.flags.f_contiguous == want.log_probs.flags.f_contiguous
    assert got.log_probs.flags.writeable
    assert (got.vocab, got.frame_dur_s) == (want.vocab, want.frame_dur_s)


def object_vocab(path, emissions):
    np.savez(path, log_probs=emissions.log_probs,
             frame_dur_s=np.float64(emissions.frame_dur_s),
             vocab=np.array(emissions.vocab, dtype=object))


def without_frame_dur(path, emissions):
    members = npy_members(emissions)
    del members["frame_dur_s.npy"]
    write_zip(path, members)


def short_by_one_value(path, emissions):
    members = npy_members(emissions)
    members["log_probs.npy"] = members["log_probs.npy"][:-8]
    write_zip(path, members)


def shape_past_address_space(path, emissions):
    # Reading the header's shape into a new array would need 512 TiB.
    members = npy_members(emissions)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": "<f8", "fortran_order": False, "shape": (1 << 44, 4)})
    members["log_probs.npy"] = header.getvalue() + emissions.log_probs.tobytes()
    write_zip(path, members)


def flipped_data_byte(path, emissions):
    write_zip(path, npy_members(emissions))
    raw = bytearray(path.read_bytes())
    raw[raw.index(emissions.log_probs.tobytes()) + 7] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("write, message", [
    (object_vocab, "(?i)object arrays"),
    (savez_as(np.complex128, "C"), "real numbers, not complex128"),
    (savez_as(np.str_, "C"), "real numbers, not <U"),
    (without_frame_dur, "missing array '?frame_dur_s"),
    (short_by_one_value, None),
    (shape_past_address_space, None),
    (flipped_data_byte, "Bad CRC-32 for file 'log_probs.npy'"),
], ids=["object-vocab", "complex", "text", "missing-member", "short-data", "huge-shape",
        "bad-crc"])
def test_npz_reader_refuses_malformed_archives(tmp_path, monkeypatch, write, message):
    path = tmp_path / "utt1.npz"
    write(path, peaked_emissions([1, 2, 0], vocab_size=3))

    def refuse(*args, **kwargs):
        raise AssertionError("an archive member was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    with pytest.raises(EmissionFormatError, match=message):
        load_emissions(path)


def test_npz_headers_are_parsed_once_each(tmp_path, monkeypatch):
    parse = np.lib.format.read_array_header_1_0
    calls = []

    def counting(fp, *args, **kwargs):
        calls.append(1)
        return parse(fp, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "read_array_header_1_0", counting)
    aligner_module._npy_header.cache_clear()
    for i in range(4):
        save_emissions(peaked_emissions([1, 2, i % 3], vocab_size=3), tmp_path / f"u{i}.npz")
        load_emissions(tmp_path / f"u{i}.npz")
    assert len(calls) == 3          # log_probs, frame_dur_s and vocab
    save_emissions(peaked_emissions([1, 2], vocab_size=3), tmp_path / "two.npz")
    load_emissions(tmp_path / "two.npz")
    assert len(calls) == 4          # only the log_probs shape is new

    object_vocab(tmp_path / "bad.npz", peaked_emissions([1, 2], vocab_size=3))
    for parses in (5, 6):
        with pytest.raises(EmissionFormatError, match="object arrays"):
            load_emissions(tmp_path / "bad.npz")
        assert len(calls) == parses


def _load_outcome(path):
    """What load_emissions makes of path: the matrix's contents or the error text."""
    try:
        loaded = load_emissions(path)
    except EmissionFormatError as exc:
        return str(exc)
    return (loaded.log_probs.tobytes(), loaded.log_probs.flags.f_contiguous,
            loaded.frame_dur_s, loaded.vocab)


def test_npz_direct_parse_agrees_with_zipfile_on_every_byte_flip(tmp_path, monkeypatch):
    """Each single-byte flip of a saved archive, read as load_emissions reads it
    and again through zipfile alone, gives the same arrays or the same error,
    and nothing but EmissionFormatError escapes either way."""
    path = tmp_path / "utt1.npz"
    save_emissions(peaked_emissions([1, 2, 0], vocab_size=3), path)
    archive = path.read_bytes()
    direct = aligner_module._savez_members
    assert direct(archive) is not None
    accepted, read_directly = set(), 0
    for at in range(len(archive)):
        for mask in (0x01, 0x40, 0xFF):
            flipped = bytearray(archive)
            flipped[at] ^= mask
            path.write_bytes(flipped)
            got = _load_outcome(path)
            monkeypatch.setattr(aligner_module, "_savez_members", lambda data: None)
            want = _load_outcome(path)
            monkeypatch.setattr(aligner_module, "_savez_members", direct)
            assert got == want, (at, mask)
            if not isinstance(got, str):
                accepted.add((at, mask))
                read_directly += direct(bytes(flipped)) is not None
    # Flips in fields that zipfile ignores (time stamps, attributes) still
    # read, most of them directly; a flip np.savez would never write goes
    # to zipfile.
    assert 0 < read_directly < len(accepted)


def test_find_emissions_prefers_npz(tmp_path):
    emissions = peaked_emissions([1], vocab_size=2)
    save_emissions(emissions, tmp_path / "k1.npz")
    save_emissions(emissions, tmp_path / "k1.emit")
    assert find_emissions(tmp_path, "k1").suffix == ".npz"
    assert find_emissions(tmp_path, "k2") is None


def test_find_emissions_stays_inside_its_directory(tmp_path):
    emissions = peaked_emissions([1], vocab_size=2)
    save_emissions(emissions, tmp_path / "outside" / "secret.npz")
    save_emissions(emissions, tmp_path / "em" / "spk1" / "utt1.npz")
    directory = tmp_path / "em"
    # A key may name a file in a subdirectory.
    assert find_emissions(directory, "spk1/utt1") == directory / "spk1" / "utt1.npz"
    for key in (str(tmp_path / "outside" / "secret"), "../outside/secret",
                "spk1/../../outside/secret"):
        with pytest.raises(AlignmentError, match="absolute or holds '..'"):
            find_emissions(directory, key)


def test_find_emissions_edge_keys(tmp_path):
    emissions = peaked_emissions([1], vocab_size=2)
    # A directory named like an archive is passed over for the text file.
    (tmp_path / "dir.npz").mkdir()
    save_emissions(emissions, tmp_path / "dir.emit")
    assert find_emissions(tmp_path, "dir") == tmp_path / "dir.emit"
    # A dangling symlink names no file; a live one is followed.
    (tmp_path / "dangling.npz").symlink_to(tmp_path / "absent.npz")
    assert find_emissions(tmp_path, "dangling") is None
    save_emissions(emissions, tmp_path / "real.npz")
    (tmp_path / "link.npz").symlink_to(tmp_path / "real.npz")
    assert find_emissions(tmp_path, "link") == tmp_path / "link.npz"
    # A NUL names no file, and a key that is one long name is refused by
    # the file system as before.
    assert find_emissions(tmp_path, "re\0al") is None
    with pytest.raises(OSError):
        find_emissions(tmp_path, "k" * 300)
    # "." parts and doubled separators resolve as a Path joins them, and the
    # result is the same Path; a string directory gives it too.
    save_emissions(emissions, tmp_path / "a" / "k.npz")
    for key in ("./real", "a//k", "a/./k", "./a/k"):
        found = find_emissions(str(tmp_path), key)
        assert isinstance(found, Path)
        assert found == tmp_path / f"{key}.npz"
    for key in ("..", "a/..", "/k"):
        with pytest.raises(AlignmentError, match="absolute or holds '..'"):
            find_emissions(tmp_path, key)


def reference_trellis(log_probs, labels):
    """Plain-loop Viterbi in Python floats and ints, documented tie order.

    Returns the total log-probability and the state of every frame.
    """
    rows = np.asarray(log_probs).tolist()
    ext = [0]
    for label in labels:
        ext.extend([label, 0])
    n_states = len(ext)
    score = [-math.inf] * n_states
    score[0], score[1] = rows[0][0], rows[0][ext[1]]
    back = []
    for row in rows[1:]:
        new, moves = [], []
        for s in range(n_states):
            best, move = (score[s - 1] if s else -math.inf), 1
            if score[s] > best:
                best, move = score[s], 0
            if (s >= 3 and s % 2 and ext[s] != ext[s - 2]
                    and score[s - 2] > best):
                best, move = score[s - 2], 2
            new.append(best + row[ext[s]])
            moves.append(move)
        score = new
        back.append(moves)
    state = n_states - 2 if score[-2] >= score[-1] else n_states - 1
    total = score[state]
    states = [state]
    for moves in reversed(back):
        state -= moves[state]
        states.append(state)
    return total, states[::-1]


def check_against_reference(emissions, tokens):
    labels = [emissions.vocab.index(ch) for token in tokens for ch in token]
    owners = [w for w, token in enumerate(tokens) for _ in token]
    total, states = reference_trellis(emissions.log_probs, labels)
    result = force_align(emissions, tokens)
    assert result.path_logprob == total
    assert result.path == tuple(0 if s % 2 == 0 else labels[s // 2]
                                for s in states)
    fd = emissions.frame_dur_s
    for w, span in enumerate(result.words):
        frames = [t for t, s in enumerate(states)
                  if s % 2 and owners[s // 2] == w]
        assert span.word == tokens[w]
        assert span.start_s == frames[0] * fd
        assert span.end_s == (frames[-1] + 1) * fd
        mean = sum(emissions.log_probs[t, result.path[t]] for t in frames) / len(frames)
        assert span.score == pytest.approx(min(1.0, math.exp(mean)), rel=1e-12)
    return result


def test_long_token_on_uniform_emissions():
    # 141 states: the backtrack passes state indices above 127, which
    # arithmetic in the int8 dtype of the back-pointers cannot hold.
    emissions = emissions_from_logits(np.zeros((90, 3)))
    result = check_against_reference(emissions, ["ab" * 35])
    assert result.path_logprob == pytest.approx(90 * math.log(1 / 3))


def test_250_letter_utterance_matches_reference_trellis():
    rng = np.random.default_rng(250)
    text = "".join(rng.choice(list("abc"), 250))
    tokens = [text[i:i + 10] for i in range(0, 250, 10)]
    labels = [LETTERS.index(ch) + 1 for ch in text]
    n_frames = min_frames_required(labels) + 60
    emissions = emissions_from_logits(rng.normal(scale=2.0, size=(n_frames, 4)))
    result = check_against_reference(emissions, tokens)
    assert len(result.words) == 25


def back_pointer_cells(items):
    """Longest frames x the sum of the rows, each row a trellis plus two pad states."""
    frames = max(emissions.n_frames for emissions, _ in items)
    return frames * sum(2 * len("".join(tokens)) + 3 for _, tokens in items)


def test_align_grouped_bounds_groups_and_keeps_order(monkeypatch):
    from voxkit import aligner
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(9):
        n_frames = int(rng.integers(6, 40))
        emissions = emissions_from_logits(rng.normal(size=(n_frames, 4)))
        tokens = ["abc"[: 1 + i % 3], "cab"] if i != 4 else ["abcabcab" * 8]
        jobs.append((f"k{i}", emissions, tokens))
    batches = []

    def counting_batch(items, **kwargs):
        batches.append(list(items))
        return align_batch(items, **kwargs)

    monkeypatch.setattr(aligner, "GROUP_CELLS", 1200)
    monkeypatch.setattr(aligner, "align_batch", counting_batch)
    out = list(aligner.align_grouped(iter(jobs)))
    assert [key for key, _ in out] == [key for key, _, _ in jobs]
    assert len(batches) > 2 and sum(map(len, batches)) == len(jobs)
    for batch, following in zip(batches, batches[1:] + [[]]):
        assert len(batch) == 1 or back_pointer_cells(batch) <= 1200
        if following:
            assert back_pointer_cells(batch + following[:1]) > 1200
    for (key, emissions, tokens), (_, result) in zip(jobs, out):
        if isinstance(result, AlignmentError):
            with pytest.raises(type(result)):
                force_align(emissions, tokens)
        else:
            assert result == force_align(emissions, tokens)


@pytest.mark.parametrize("spare, sizes", [(0, [3]), (-1, [2, 1])])
def test_align_grouped_budget_counts_each_row_at_its_own_width(monkeypatch, spare, sizes):
    from voxkit import aligner
    rng = np.random.default_rng(5)
    items = [(emissions_from_logits(rng.normal(size=(20, 4))), tokens)
             for tokens in (["abcabc"], ["ab"], ["c", "a"])]
    batches = []

    def counting_batch(items, **kwargs):
        batches.append(len(items))
        return align_batch(items, **kwargs)

    monkeypatch.setattr(aligner, "GROUP_CELLS", back_pointer_cells(items) + spare)
    monkeypatch.setattr(aligner, "align_batch", counting_batch)
    out = list(aligner.align_grouped((i, *item) for i, item in enumerate(items)))
    assert batches == sizes
    assert [result for _, result in out] == [force_align(*item) for item in items]
