"""Desk-scale demonstrations of the negative results: zeros of the
three-exponential function on the square, and the vanishing infimum of
the three-atom non-lattice CF along growing windows.

The function phi(t1, t2) = (e^{it1} + e^{it2} + e^{i(t1+t2)})/3 vanishes
exactly at +-(2*pi/3, -2*pi/3) inside [-pi, pi]^2. The CF of the law
with equal atoms at 1, alpha, 1+alpha is phi restricted to the line
(t, alpha*t); for irrational alpha that line equidistributes modulo
2*pi and drags inf |f| over [0, T] toward zero, while rational alpha
gives a periodic CF whose floor is reached inside one period. For
alpha = p/q in lowest terms the line meets a zero of phi exactly when
3 divides p + q; the floor is then 0 (up to rounding) and strictly
positive otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charfn import golden_polish
from .errors import InputError

_CHUNK = 1 << 20

# named high-precision constants accepted by alpha parsers
NAMED_ALPHAS = {
    "sqrt2": math.sqrt(2.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
    "e": math.e,
}


@dataclass(frozen=True)
class KutluScan:
    """Grid scan of |phi| on [-pi, pi]^2 with refined zero locations."""

    grid_step: float
    min_modulus: float
    zero_locations: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for t1, t2 in self.zero_locations:
            if abs(kutlu_phi(t1, t2)) >= 1e-9:
                raise InputError("reported zero does not satisfy |phi| < 1e-9")


@dataclass(frozen=True)
class InfScanReport:
    """Prefix minima of |three_point_cf| along a ladder of windows."""

    alpha: float
    window_ladder: tuple[float, ...]
    minima: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        vals = [m for _, m, _ in self.minima]
        if any(b > a + 1e-15 for a, b in zip(vals, vals[1:])):
            raise InputError("window minima must be non-increasing")


def kutlu_phi(t1, t2):
    """(e^{it1} + e^{it2} + e^{i(t1+t2)}) / 3, vectorized."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    out = (np.exp(1j * t1) + np.exp(1j * t2) + np.exp(1j * (t1 + t2))) / 3.0
    return out if out.ndim else complex(out)


def three_point_cf(alpha: float, t):
    """CF of the law with mass 1/3 at each of 1, alpha, 1+alpha."""
    t = np.asarray(t, dtype=float)
    out = (np.exp(1j * t) + np.exp(1j * alpha * t) + np.exp(1j * (1.0 + alpha) * t)) / 3.0
    return out if out.ndim else complex(out)


def kutlu_zero_scan(step: float, detect_below: float = 0.05) -> KutluScan:
    """Scan |phi| on [-pi, pi]^2 and polish every grid basin dipping
    below detect_below down to |phi| < 1e-9 (Nelder-Mead on |phi|);
    basins that do not reach 1e-9 are not reported as zeros."""
    if step <= 0:
        raise InputError("step must be positive")
    n = int(math.ceil(2.0 * math.pi / step)) + 1
    axis = -math.pi + (2.0 * math.pi) * np.arange(n) / (n - 1)
    mods = np.empty((n, n))
    row_block = max(1, _CHUNK // n)
    col = np.exp(1j * axis)
    for lo in range(0, n, row_block):
        t1 = axis[lo:lo + row_block, None]
        mods[lo:lo + row_block] = np.abs(
            np.exp(1j * t1) + col[None, :] + np.exp(1j * t1) * col[None, :]) / 3.0
    min_grid = float(mods.min())

    from scipy.ndimage import label
    from scipy.optimize import minimize
    mask = mods < detect_below
    labels, count = label(mask)
    zeros: list[tuple[float, float]] = []
    best = min_grid
    fobj = lambda v: float(abs(kutlu_phi(v[0], v[1])))
    for lbl in range(1, count + 1):
        idx = np.nonzero(labels == lbl)
        k = int(np.argmin(mods[idx]))
        x0 = np.array([axis[idx[0][k]], axis[idx[1][k]]])
        res = minimize(fobj, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
        val = float(res.fun)
        best = min(best, val)
        if val < 1e-9:
            zeros.append((float(res.x[0]), float(res.x[1])))
    zeros.sort()
    dedup: list[tuple[float, float]] = []
    for z in zeros:
        if all(math.hypot(z[0] - w[0], z[1] - w[1]) > 1e-3 for w in dedup):
            dedup.append(z)
    return KutluScan(grid_step=step, min_modulus=best,
                     zero_locations=tuple(dedup))


def _refine_dip(alpha: float, t: float, step: float) -> tuple[float, float]:
    """Golden polish of |three_point_cf| around a grid minimum."""
    x, v = golden_polish(lambda x: np.abs(three_point_cf(alpha, x)),
                         max(t - step, 0.0), t, t + step)
    return float(x[0]), float(v[0])


def inf_scan(alpha: float, ladder: list[float], step: float) -> InfScanReport:
    """Prefix minima of |three_point_cf(alpha, .)| over [0, T] for each
    T in the increasing ladder, grid-scanned at the given step with a
    golden polish of the best dip per window."""
    if step <= 0:
        raise InputError("step must be positive")
    ladder = [float(T) for T in ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
        raise InputError("ladder must be strictly increasing and non-empty")
    minima: list[tuple[float, float, float]] = []
    running_val = math.inf
    running_arg = 0.0
    lo_idx = 0
    for T in ladder:
        hi_idx = int(math.floor(T / step))
        for lo in range(lo_idx, hi_idx + 1, _CHUNK):
            hi = min(lo + _CHUNK, hi_idx + 1)
            ts = step * np.arange(lo, hi)
            mods = np.abs(three_point_cf(alpha, ts))
            k = int(np.argmin(mods))
            if float(mods[k]) < running_val:
                running_val = float(mods[k])
                running_arg = float(ts[k])
        lo_idx = hi_idx + 1
        t_ref, v_ref = _refine_dip(alpha, running_arg, step)
        if v_ref < running_val:
            running_val, running_arg = v_ref, t_ref
        minima.append((T, running_val, running_arg))
    return InfScanReport(alpha=float(alpha), window_ladder=tuple(ladder),
                         minima=tuple(minima))


def rational_cf_period(frac: Fraction) -> float:
    """Exact CF period of the three-point law for rational alpha = p/q:
    the atoms 1, p/q, 1 + p/q sit on the lattice (1/q)*Z, so the CF has
    period 2*pi*q."""
    if frac <= 0:
        raise InputError("alpha must be positive")
    return 2.0 * math.pi * frac.denominator


def one_period_floor(frac: Fraction, step: float) -> tuple[float, float]:
    """Exhaustive scan of |three_point_cf| over one period for rational
    alpha; returns (min, argmin). This is the floor the window ladder
    stabilizes at: strictly positive unless 3 divides p + q, when the
    CF has real zeros and the floor is 0 up to rounding."""
    period = rational_cf_period(frac)
    alpha = float(frac)
    n = int(math.ceil(period / step))
    best_v, best_t = math.inf, 0.0
    for lo in range(0, n + 1, _CHUNK):
        hi = min(lo + _CHUNK, n + 1)
        ts = period * np.arange(lo, hi) / n
        mods = np.abs(three_point_cf(alpha, ts))
        k = int(np.argmin(mods))
        if float(mods[k]) < best_v:
            best_v, best_t = float(mods[k]), float(ts[k])
    t_ref, v_ref = _refine_dip(alpha, best_t, period / n)
    if v_ref < best_v:
        best_v, best_t = v_ref, t_ref
    return best_v, best_t


def parse_alpha(text: str) -> tuple[float, Fraction | None]:
    """Parse an alpha argument: a named constant ('sqrt2', 'golden',
    'pi', 'e'), a fraction 'p/q' (treated as exactly rational), or a
    decimal literal (treated as exactly rational, since a float is
    one)."""
    s = text.strip().lower()
    if s in NAMED_ALPHAS:
        return NAMED_ALPHAS[s], None
    if "/" in s:
        frac = Fraction(s)
        if frac <= 0:
            raise InputError("alpha must be positive")
        return float(frac), frac
    value = float(s)
    if value <= 0:
        raise InputError("alpha must be positive")
    return value, Fraction(value).limit_denominator(10 ** 12)
