"""Minimal mono WAV I/O for stitching fixtures (16-bit PCM and float32)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .manifest import atomic_write


class AudioFormatError(Exception):
    pass


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a mono WAV file. Returns (samples, sample_rate).

    int16 and float32 data come back with their dtype preserved.
    """
    from scipy.io import wavfile  # deferred: scipy.io dominates import time

    rate, samples = wavfile.read(str(path))
    if samples.ndim != 1:
        raise AudioFormatError(f"{path}: expected mono audio, got "
                               f"{samples.shape[1]} channels")
    if samples.dtype not in (np.dtype(np.int16), np.dtype(np.float32)):
        raise AudioFormatError(f"{path}: unsupported sample format "
                               f"{samples.dtype}; use int16 or float32")
    return samples, int(rate)


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono samples as 16-bit PCM (int16 input) or float32 WAV.

    The file is replaced atomically: a failed write leaves the old one.
    """
    from scipy.io import wavfile

    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise AudioFormatError(f"expected mono audio, got shape {samples.shape}")
    if samples.dtype == np.int16:
        out = samples
    elif samples.dtype in (np.dtype(np.float32), np.dtype(np.float64)):
        out = samples.astype(np.float32)
    else:
        raise AudioFormatError(f"unsupported sample dtype {samples.dtype}")
    with atomic_write(path) as fh:
        wavfile.write(fh.buffer, int(sample_rate), out)
