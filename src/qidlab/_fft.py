"""Chirp-z transform and FFT convolution on numpy's FFT.

Each routine repeats scipy's (1.17) steps in the same order and with
the same dtypes, so the results match scipy.signal.czt and
scipy.signal.fftconvolve bit for bit while importing only numpy.
"""

from __future__ import annotations

import numpy as np


def next_fast_len(target: int, real: bool = False) -> int:
    """Smallest length >= target whose prime factors are at most 5 (real
    input) or 11 (complex input), as pocketfft's good_size picks it."""
    # odd smooth parts below 2*target, each raised by the least power of
    # two reaching target (a power of two lies in [target, 2*target))
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for x in odd:
            while x < 2 * target:
                grown.append(x)
                x *= p
        odd = grown
    return min(x << (-(-target // x) - 1).bit_length() for x in odd)


def czt(x: np.ndarray, m: int, w: complex) -> np.ndarray:
    """sum_j x[j] * w**(j*k) for k < m by Bluestein's algorithm (a = 1)."""
    n = x.size
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = w ** (k ** 2 / 2.)
    nfft = next_fast_len(n + m - 1)
    fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    y = np.fft.ifft(fwk2 * np.fft.fft(x * wk2[:n], nfft))
    return y[n - 1:n + m - 1] * wk2[:m]


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays through rfft."""
    size = a.size + b.size - 1
    nfft = next_fast_len(size, real=True)
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:size]
