"""Minimal mono WAV I/O (16-bit PCM and float32): a RIFF codec on ``struct``
and NumPy that writes the bytes SciPy's ``wavfile.write`` writes."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .manifest import atomic_write

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# An extensible subformat GUID is its format tag followed by this tail.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_TYPES = {(_PCM, 16): "<i2", (_FLOAT, 32): "<f4"}


class AudioFormatError(Exception):
    pass


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file. Returns (samples, sample_rate).

    int16 and float32 data come back as a writable native-order array.
    """
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise AudioFormatError(f"{path}: not a RIFF WAVE file")
        fmt = None
        while (head := fh.read(8))[:4] != b"data" and len(head) == 8:
            chunk, size = struct.unpack("<4sI", head)
            body = fh.read(size + (size & 1))
            if len(body) < size:
                raise AudioFormatError(f"{path}: truncated "
                                       f"{chunk.decode('latin-1')!r} chunk")
            if chunk == b"fmt ":
                fmt = body[:size]
        if fmt is None or len(fmt) < 16 or len(head) < 8:
            raise AudioFormatError(f"{path}: no whole fmt chunk before a data chunk")
        tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
        if tag == _EXTENSIBLE and len(fmt) >= 40:
            subformat, tail = struct.unpack_from("<I12s", fmt, 24)
            tag = subformat if tail == _GUID_TAIL else tag
        if channels != 1:
            raise AudioFormatError(f"{path}: expected mono audio, got "
                                   f"{channels} channels")
        sample_type = _SAMPLE_TYPES.get((tag, bits))
        if sample_type is None:
            kind = {_PCM: "uint" if bits == 8 else "int", _FLOAT: "float"}.get(tag)
            name = f"{kind}{bits}" if kind else f"with format tag {tag:#06x}"
            raise AudioFormatError(f"{path}: unsupported sample format "
                                   f"{name}; use int16 or float32")
        if rate == 0:
            raise AudioFormatError(f"{path}: sample rate is 0")
        size = struct.unpack("<I", head[4:])[0]
        count, rest = divmod(size, np.dtype(sample_type).itemsize)
        if rest:
            raise AudioFormatError(f"{path}: data chunk of {size} bytes is not "
                                   f"a whole number of samples")
        samples = np.fromfile(fh, sample_type, count)  # no bytes copy in between
    if len(samples) < count:
        raise AudioFormatError(f"{path}: truncated 'data' chunk")
    return samples.astype(sample_type[1:], copy=False), rate


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono samples as 16-bit PCM (int16 input) or float32 WAV.

    The file is replaced atomically: a failed write leaves the old one.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise AudioFormatError(f"expected mono audio, got shape {samples.shape}")
    if samples.dtype == np.int16:
        tag, sample_type = _PCM, "<i2"
    elif samples.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        tag, sample_type = _FLOAT, "<f4"
    else:
        raise AudioFormatError(f"unsupported sample dtype {samples.dtype}")
    out = np.ascontiguousarray(samples, dtype=sample_type)
    rate, width, size = int(sample_rate), out.itemsize, out.nbytes
    if not 1 <= rate < 2**32 // width:
        raise AudioFormatError(f"sample rate {sample_rate} does not fit a WAV header")
    if size > 2**32 - 64:
        raise AudioFormatError(f"{len(out)} samples do not fit a WAV file")
    chunks = b"fmt " + struct.pack("<IHHIIHH", 16 + 2 * (tag == _FLOAT), tag, 1,
                                   rate, rate * width, width, 8 * width)
    if tag == _FLOAT:  # SciPy's float layout: cbSize 0, then a fact chunk
        chunks += struct.pack("<H4sII", 0, b"fact", 4, len(out))
    chunks += b"data" + struct.pack("<I", size)
    with atomic_write(path) as fh:
        fh.buffer.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + size)
                        + b"WAVE" + chunks)
        fh.buffer.write(memoryview(out))
