"""FFT numerics on numpy alone, and every grid budget (grid_cells).

TaylorTable evaluates sums of exp(itx) over a uniform grid of x at any
real t from one table of FFTs. fftconvolve and next_fast_len repeat
scipy's (1.17) steps in the same order and with the same dtypes, so
they match scipy.signal.fftconvolve and scipy.fft.next_fast_len bit for
bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InputError

# complex entries in one block of products (charfn) or of sub-cell
# coefficients (TaylorTable.floor)
BLOCK_ENTRIES = 1 << 20

# complex entries a TaylorTable may hold: 16 * BLOCK_ENTRIES, 256 MiB
TABLE_ENTRIES = 16 * BLOCK_ENTRIES

# points of a scan read in blocks; inf_scan reads 1e8 in 8.5 s
MAX_GRID_POINTS = 10 ** 9

# levels of 8-way cell subdivision in TaylorTable.floor
FLOOR_LEVELS = 3

_U = 2.0 ** -53


def grid_cells(span: float, step: float, cap: int, what: str) -> int:
    """ceil(span/step) cells, or InputError past cap points: MAX_GRID_POINTS for
    blocked scans, 4*BLOCK_ENTRIES (CF values) or TABLE_ENTRIES (reals) held whole."""
    cells = span / step if step > 0 else math.nan
    if not (cells > 0 and math.isfinite(cells)):
        raise InputError(f"{what} of span {span:g} at step {step:g} has no finite point count")
    if math.ceil(cells) >= cap:
        raise InputError(f"{what} needs {math.ceil(cells) + 1:.4g} grid points, "
                         f"above the cap of {cap}")
    return math.ceil(cells)


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

    floor() reads a lower bound on |P| over the whole period from the
    rows, and allowance(T) bounds the rounding of S over |t| <= T (their
    docstrings).
    """

    def __init__(self, x0: float, step: float, c: np.ndarray):
        c = np.asarray(c)
        n = c.size
        self.n_fft = 1 << (4 * n - 1).bit_length()
        kc = (n - 1) // 2
        k = np.arange(n) - kc
        a = np.abs(k) * (math.pi / self.n_fft)
        term = np.abs(c)
        self._abs_sum = float(term.sum())
        floor = _U * self._abs_sum
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
        # X + |centre| of allowance(), X the largest |x - centre| on the grid
        self._spread = max(kc, n - 1 - kc) * abs(step) + abs(self._centre)
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

    def allowance(self, T: float) -> float:
        """A bound on |__call__(t) - S(t)| at every |t| <= T, with
        u = 2^-53 and A = sum_k |c_k|: the rows' R of floor() without
        subdivision, (1.25 + 8 (M + 1)(log2 N + M)) u A; 4 M u A for the
        Horner steps, as |u| <= 1 and sum_m |D_m[j]| <= e^(pi/8) A; 8 u A
        for the factor exp(i*centre*t) and its product; and
        T (X + |centre|) u A for the rounding of t*scale and centre*t,
        which moves the phase by at most that over A, X being the largest
        |x - centre| on the grid (|dS/dt| <= X A).
        """
        order = self.order
        terms = 1.25 + 8.0 * (order + 1) * (math.log2(self.n_fft) + order) + 4.0 * order + 8.0
        return (terms + T * self._spread) * _U * self._abs_sum

    def floor(self, floor: float = 0.0) -> tuple[float, float, float]:
        """(lower, least, theta): a proven lower bound on |P| over every
        real theta, the least |P| evaluated and the theta in [0, 2*pi)
        where it was evaluated. |S(t)| = |P(t*step)|, so lower bounds |S|
        at every real t.

        On the cell |u| <= 1 around node j, P = sum_m D_m[j] u^m plus the
        Taylor remainder, so

            |P| >= min_{|u| <= 1} |D_0[j] + D_1[j] u| - sum_{m>=2} |D_m[j]| - R,

        the first term being the distance from 0 to a segment. A cell
        whose bound is at or below floor is re-expanded on 8 sub-intervals
        of u by a Taylor shift of its M + 1 coefficients (exact dyadic
        shift matrices, no CF evaluation) and bounded the same way, for
        up to FLOOR_LEVELS levels, in blocks of at most BLOCK_ENTRIES
        coefficients. A level that would open more than max(64, N/8) cells
        stops the subdivision, so the sub-cells kept never outgrow the
        table; lower then stays at or below floor. least is the least
        |D_0| over the nodes and the sub-cell centres.

        R allows, with u = 2^-53 and A = sum_k |c_k|:
          - 1.25 u A for the Taylor remainder (class docstring);
          - 8 (M + 1)(log2 N + M) u A for the rows: an entry of row m is
            an FFT output of inputs summing in modulus to at most A,
            each of its log2 N butterfly levels adds a relative error
            under 4 u, and building the row costs under 3m + 2 roundings
            per coefficient; the allowance doubles that first-order
            tally, and it also covers the arithmetic of the bound;
          - 4 (M + 1) u A per level of subdivision: a shift is a dot
            product of M + 1 terms whose coefficients, in modulus, sum
            to at most sum_m |D_m[j]| <= e^(pi/8) A.
        """
        n, order = self.n_fft, self.order
        slack = (1.25 + 8.0 * (order + 1) * (math.log2(n) + order)) * _U * self._abs_sum
        mods = np.abs(self.table[0])
        j = int(np.argmin(mods))
        least, theta = float(mods[j]), 2.0 * math.pi * j / n
        bounds = _cell_bounds(self.table) - slack
        shut = bounds > floor
        lower = float(bounds[shut].min()) if shut.any() else math.inf
        cells = np.nonzero(~shut)[0]
        bounds, coef = bounds[cells], self.table[:, cells].T
        centre, half = 2.0 * math.pi * cells / n, math.pi / n
        shift, offsets = _shift_matrix(order)
        rows = max(1, BLOCK_ENTRIES // (8 * (order + 1)))
        for _ in range(FLOOR_LEVELS):
            if bounds.size == 0 or bounds.size > max(64, n // 8):
                break
            slack += 4.0 * (order + 1) * _U * self._abs_sum
            keep_b, keep_c, keep_x = [], [], []
            for lo in range(0, coef.shape[0], rows):
                sub = (coef[lo:lo + rows] @ shift).reshape(-1, order + 1)
                x = (centre[lo:lo + rows, None] + half * offsets).ravel()
                m0 = np.abs(sub[:, 0])
                k = int(np.argmin(m0))
                if m0[k] < least:
                    least, theta = float(m0[k]), float(x[k])
                b = _cell_bounds(sub.T) - slack
                shut = b > floor
                if shut.any():
                    lower = min(lower, float(b[shut].min()))
                keep_b.append(b[~shut])
                keep_c.append(sub[~shut])
                keep_x.append(x[~shut])
            bounds, coef, centre = (np.concatenate(v) for v in (keep_b, keep_c, keep_x))
            half /= 8.0
        if bounds.size:
            lower = min(lower, float(bounds.min()))
        return lower, least, theta % (2.0 * math.pi)


def _cell_bounds(coef: np.ndarray) -> np.ndarray:
    """min over real |u| <= 1 of |c_0 + c_1 u|, less sum_{m>=2} |c_m|, for
    each column of the coefficient rows c_m."""
    d0 = coef[0]
    if coef.shape[0] == 1:
        return np.abs(d0)
    d1 = coef[1]
    n1 = np.abs(d1)
    # the distance to the line through the segment where its foot lies
    # inside, else the nearer end; n1 = 0 takes the end |d0|
    inside = np.abs(d0.real * d1.real + d0.imag * d1.imag) < n1 * n1
    perp = np.abs(d0.real * d1.imag - d0.imag * d1.real) / np.where(inside, n1, 1.0)
    out = np.where(inside, perp, np.minimum(np.abs(d0 + d1), np.abs(d0 - d1)))
    for m in range(2, coef.shape[0]):
        out -= np.abs(coef[m])
    return out


@functools.lru_cache(maxsize=None)
def _shift_matrix(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, offsets): the coefficients of p(u) = sum_l c_l u^l on the 8
    sub-intervals of [-1, 1], centred at offsets s_i = (2i - 7)/8 and
    rescaled to |v| <= 1 by u = s_i + v/8, are c @ W, reshaped to rows
    of order + 1; W[l, i*(order + 1) + m] = C(l, m) s_i^(l - m) 8^-m.
    Every entry is a dyadic rational of under 53 bits, so exact."""
    offsets = (2.0 * np.arange(8) - 7.0) / 8.0
    w = np.zeros((order + 1, 8, order + 1))
    for l in range(order + 1):
        for m in range(l + 1):
            w[l, :, m] = math.comb(l, m) * offsets ** (l - m) * 8.0 ** -m
    w = w.reshape(order + 1, -1)
    # cached and shared by every table of this order
    w.setflags(write=False)
    offsets.setflags(write=False)
    return w, offsets


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
