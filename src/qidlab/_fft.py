"""FFT numerics on numpy alone.

TaylorTable evaluates sums of exp(itx) over a uniform grid of x at any
real t from one table of FFTs. fftconvolve and next_fast_len repeat
scipy's (1.17) steps in the same order and with the same dtypes, so
they match scipy.signal.fftconvolve and scipy.fft.next_fast_len bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# complex entries a TaylorTable may hold: 16 * charfn.BLOCK_ENTRIES, 256 MiB
TABLE_ENTRIES = 1 << 24


class TaylorTable:
    """Evaluator of S(t) = sum_k c[k] exp(it(x0 + k*step)) for real t.

    With theta = t*step and indices centred at kc = (len(c) - 1) // 2,
    S(t) = exp(it(x0 + kc*step)) * P(theta), P(theta) = sum_k c[k]
    exp(i(k - kc)theta). On the N nodes theta_j = 2*pi*j/N (N the least
    power of two >= 4*len(c)), row m of the table holds

        D_m[j] = sum_k c[k] (i(k - kc)pi/N)^m / m! * exp(i(k - kc)theta_j),

    all rows from one batched inverse FFT. Writing theta = theta_j + u*pi/N with theta_j
    the nearest node and |u| <= 1, the Taylor series of exp in u gives
    P(theta) = sum_m D_m[j] u^m, which a Horner step evaluates. The
    series stops at the least order M with

        sum_k |c[k]| a_k^(M+1) / (M+1)! <= 2^-53 * sum_k |c[k]|,
        a_k = |k - kc| pi/N <= pi/8,

    and its remainder is below that sum times 1/(1 - a/(M+2)) < 1.25, so
    the table is exact to rounding at every t: each point costs O(M)
    (M at most 13) whatever the length of c. A table of more than
    TABLE_ENTRIES entries, (M + 1)*N, is refused with InputError before
    it is allocated.
    """

    def __init__(self, x0: float, step: float, c: np.ndarray):
        c = np.asarray(c)
        n = c.size
        self.n_fft = 1 << (4 * n - 1).bit_length()
        kc = (n - 1) // 2
        k = np.arange(n) - kc
        a = np.abs(k) * (math.pi / self.n_fft)
        term = np.abs(c)
        floor = 2.0 ** -53 * float(term.sum())
        term = term * a
        order = 0
        while float(term.sum()) > floor:
            order += 1
            term *= a / (order + 1)
        if (order + 1) * self.n_fft > TABLE_ENTRIES:
            raise InputError(f"Taylor table of {order + 1} x {self.n_fft} entries for "
                             f"{n} coefficients exceeds the limit of {TABLE_ENTRIES}")
        self.order = order
        self._centre = x0 + kc * step
        self._scale = step * self.n_fft / (2.0 * math.pi)
        # row m: c_k (i(k - kc)pi/N)^m / m!, placed at index (k - kc) mod N
        rows = np.empty((order + 1, n), dtype=complex)
        rows[0] = c
        rows[1:] = 1j * k * (math.pi / self.n_fft) / np.arange(1, order + 1)[:, None]
        np.cumprod(rows, axis=0, out=rows)
        wrapped = np.zeros((order + 1, self.n_fft), dtype=complex)
        wrapped[:, k % self.n_fft] = rows
        # in place: the table is as large as wrapped
        self.table = np.fft.ifft(wrapped, axis=1, norm="forward", out=wrapped)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """S at each t of the 1-D float array."""
        # r is theta in units of the node spacing; fmod keeps |r| < n_fft
        # exactly, and r - rint(r) is exact
        r = np.fmod(t * self._scale, self.n_fft)
        j = np.rint(r)
        u = 2.0 * (r - j)
        j = j.astype(np.int64) & (self.n_fft - 1)
        acc = self.table[self.order][j]
        for m in range(self.order - 1, -1, -1):
            acc *= u
            acc += self.table[m][j]
        return np.exp(1j * self._centre * t) * acc


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


def fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1-D arrays through rfft."""
    size = a.size + b.size - 1
    nfft = next_fast_len(size, real=True)
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:size]
