"""The RIFF codec in voxkit.audio: pinned headers, round trips and refusals."""

import re
import struct
import uuid

import numpy as np
import pytest

from voxkit.audio import AudioFormatError, read_wav, write_wav

# The headers SciPy 1.17.1's wavfile.write gives one sample at 16000 Hz.
INT16_HEADER = bytes.fromhex(
    "524946462600000057415645666d74201000000001000100803e0000007d0000"
    "020010006461746102000000")
FLOAT32_HEADER = bytes.fromhex(
    "524946463600000057415645666d74201200000003000100803e000000fa0000"
    "0400200000006661637404000000010000006461746104000000")


def chunk(chunk_id, payload):
    return (chunk_id + struct.pack("<I", len(payload)) + payload
            + b"\0" * (len(payload) % 2))


def riff(*chunks, form=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def fmt(tag=1, channels=1, rate=16000, bits=16):
    align = channels * bits // 8
    return chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate,
                                      rate * align, align, bits))


def extensible_fmt(subformat, bits, rate=16000):
    """A WAVE_FORMAT_EXTENSIBLE fmt chunk whose subformat GUID is the KSDATAFORMAT
    GUID for ``subformat`` (1 PCM, 3 IEEE float)."""
    guid = uuid.UUID(f"{subformat:08x}-0000-0010-8000-00aa00389b71").bytes_le
    align = bits // 8
    return chunk(b"fmt ", struct.pack("<HHIIHHHHI", 0xFFFE, 1, rate, rate * align,
                                      align, bits, 22, bits, 4) + guid)


@pytest.mark.parametrize("samples, header, stored", [
    (np.array([1234], dtype=np.int16), INT16_HEADER, np.int16),
    (np.array([0.5], dtype=np.float32), FLOAT32_HEADER, np.float32),
    (np.array([0.5]), FLOAT32_HEADER, np.float32),
])
def test_write_wav_pinned_headers(tmp_path, samples, header, stored):
    path = tmp_path / "one.wav"
    write_wav(path, samples, 16000)
    assert path.read_bytes() == header + samples.astype(stored).tobytes()


@pytest.mark.parametrize("dtype, tag, bits", [("int16", 1, 16), ("float32", 3, 32)])
def test_read_wav_skips_chunks_and_reads_extensible(tmp_path, dtype, tag, bits):
    samples = (np.arange(-50, 51) * 300).astype(dtype)
    path = tmp_path / "x.wav"
    # An odd-size LIST chunk (with its pad byte) before fmt, and one after data.
    path.write_bytes(riff(chunk(b"LIST", b"INFOabc"), extensible_fmt(tag, bits),
                          chunk(b"data", samples.tobytes()),
                          chunk(b"LIST", b"x")))
    got, rate = read_wav(path)
    assert rate == 16000 and got.dtype == np.dtype(dtype)
    assert np.array_equal(got, samples) and got.flags.writeable
    write_wav(path, got[::2], 22050)  # a strided view is written in order
    again, rate = read_wav(path)
    assert rate == 22050 and np.array_equal(again, samples[::2])


@pytest.mark.parametrize("data, message", [
    (b"this is not a wav file at all", "not a RIFF WAVE file"),
    (riff(fmt(), chunk(b"data", bytes(4)), form=b"RIFX"), "not a RIFF WAVE file"),
    (riff(chunk(b"fmt ", bytes(14)), chunk(b"data", bytes(4))),
     "no whole fmt chunk before a data chunk"),
    (riff(fmt(), chunk(b"data", bytes(4)))[:30], "truncated 'fmt ' chunk"),
    (riff(fmt(), chunk(b"data", bytes(8)))[:-2], "truncated 'data' chunk"),
    (riff(chunk(b"data", bytes(4)), fmt()), "no whole fmt chunk before a data chunk"),
    (riff(fmt()), "no whole fmt chunk before a data chunk"),
    (riff(fmt(channels=2), chunk(b"data", bytes(8))),
     "expected mono audio, got 2 channels"),
    (riff(fmt(bits=8), chunk(b"data", bytes(4))),
     "unsupported sample format uint8; use int16 or float32"),
    (riff(fmt(bits=32), chunk(b"data", bytes(4))),
     "unsupported sample format int32; use int16 or float32"),
    (riff(fmt(tag=3, bits=64), chunk(b"data", bytes(8))),
     "unsupported sample format float64; use int16 or float32"),
    (riff(fmt(bits=24), chunk(b"data", bytes(6))),
     "unsupported sample format int24; use int16 or float32"),
    (riff(extensible_fmt(2, 16), chunk(b"data", bytes(4))),
     "unsupported sample format with format tag 0x0002"),
    (riff(fmt(rate=0), chunk(b"data", bytes(4))), "sample rate is 0"),
    (riff(fmt(), chunk(b"data", bytes(3))),
     "data chunk of 3 bytes is not a whole number of samples"),
], ids=["not-riff", "rifx", "short-fmt", "cut-in-fmt", "cut-in-data",
        "data-before-fmt", "no-data", "stereo", "uint8", "int32", "float64",
        "24-bit", "extensible-adpcm", "rate-0", "odd-data"])
def test_read_wav_refuses(tmp_path, data, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(data)
    with pytest.raises(AudioFormatError, match=re.escape(f"{path}: {message}")):
        read_wav(path)


@pytest.mark.parametrize("dtype, rate", [
    ("int16", 0), ("int16", -1), ("int16", 2**31), ("int16", 2**32),
    ("float32", 2**30),
])
def test_write_wav_refuses_rates_the_header_cannot_hold(tmp_path, dtype, rate):
    with pytest.raises(AudioFormatError, match="does not fit a WAV header"):
        write_wav(tmp_path / "x.wav", np.zeros(4, dtype=dtype), rate)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dtype, rate", [("int16", 2**31 - 1), ("float32", 2**30 - 1)])
def test_write_wav_keeps_the_largest_rates(tmp_path, dtype, rate):
    write_wav(tmp_path / "x.wav", np.ones(4, dtype=dtype), rate)
    assert read_wav(tmp_path / "x.wav")[1] == rate
