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

inf_scan (each window between two rungs) and one_period_floor (one
period) read their grid through charfn.min_modulus_scan, which
polishes the config.REFINE_TOP lowest local minima of the window
together: every reported minimum is a polished sample, an upper bound
on the infimum and no proof. three_point_cf works in exact phases,
carrying alpha*t as a double-double, so grid values, polished values
and floors are accurate to about 1e-16 at every desk-scale t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._fft import BLOCK_ENTRIES, MAX_GRID_POINTS, TABLE_ENTRIES, grid_cells
from .charfn import min_modulus_scan
from .errors import InputError

# Kutlu zero scan: grid points below this |phi| seed Newton's method,
# which then runs a fixed number of steps on all seeds at once.
_KUTLU_SEED_BELOW = 0.05
_KUTLU_NEWTON_STEPS = 6

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
    """CF of the law with mass 1/3 at each of 1, alpha, 1+alpha, the
    third atom the exact sum, in exact phases:
    (e^{it} + e^{i*alpha*t}(1 + e^{it}))/3 with alpha*t = p + e from
    _two_product and e^{ie} = 1 + ie. The rounded phase fl(alpha*t)
    would move |f| by up to u*|alpha*t| (3.1e-12 at t = 99108.87 for
    sqrt2); the linearisation leaves e^2/2, below rounding while
    |alpha*t| <= 1e8."""
    t = np.asarray(t, dtype=float)
    p, e = _two_product(alpha, t)
    e1 = np.exp(1j * t)
    ea = np.exp(1j * p) * (1.0 + 1j * e)
    out = (e1 + ea * (1.0 + e1)) / 3.0
    return out if out.ndim else complex(out)


def kutlu_zero_scan(step: float) -> KutluScan:
    """Zeros of phi on [-pi, pi]^2. Points of the grid (at most 4096 =
    isqrt(TABLE_ENTRIES) a side) with |phi| below _KUTLU_SEED_BELOW seed
    Newton's method, all stepping together _KUTLU_NEWTON_STEPS times, and
    the distinct limits with |phi| < 1e-9 are reported. Newton reads phi
    as a map R^2 -> C = R^2 with Jacobian columns d phi/dt_k = i(e^{it_k}
    + e^{i(t1+t2)})/3, whose determinant Im(conj(d1) d2) is nonzero at
    both zeros. min_modulus is the least |phi| at a grid point or limit."""
    n = grid_cells(2.0 * math.pi, step, math.isqrt(TABLE_ENTRIES), "Kutlu grid side") + 1
    axis = -math.pi + (2.0 * math.pi) * np.arange(n) / (n - 1)
    mods = np.empty((n, n))
    row_block = max(1, BLOCK_ENTRIES // n)
    e = np.exp(1j * axis)
    for lo in range(0, n, row_block):
        e1 = e[lo:lo + row_block, None]
        mods[lo:lo + row_block] = np.abs(e1 + e + e1 * e) / 3.0
    i, j = np.nonzero(mods < _KUTLU_SEED_BELOW)
    t1, t2 = axis[i], axis[j]
    for _ in range(_KUTLU_NEWTON_STEPS):
        e1, e2 = np.exp(1j * t1), np.exp(1j * t2)
        e12 = e1 * e2
        phi = (e1 + e2 + e12) / 3.0
        d1, d2 = 1j * (e1 + e12) / 3.0, 1j * (e2 + e12) / 3.0
        det = (np.conj(d1) * d2).imag
        t1, t2 = t1 - (np.conj(phi) * d2).imag / det, t2 - (np.conj(d1) * phi).imag / det
    vals = np.abs(kutlu_phi(t1, t2))
    hit = vals < 1e-9
    dedup: list[tuple[float, float]] = []
    for z in sorted(set(zip(t1[hit].tolist(), t2[hit].tolist()))):
        if all(math.hypot(z[0] - w[0], z[1] - w[1]) > 1e-3 for w in dedup):
            dedup.append(z)
    return KutluScan(grid_step=step, min_modulus=float(np.min(vals, initial=mods.min())),
                     zero_locations=tuple(dedup))


def _scan_budget(alpha: float, T: float, step: float, what: str) -> int:
    if not abs(alpha) * T <= 1e8:
        raise InputError(f"alpha*T = {abs(alpha) * T:.4g} exceeds 1e8, past which "
                         f"three_point_cf is not accurate")
    return grid_cells(T, step, MAX_GRID_POINTS, what)


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker's split),
    elementwise on floats or arrays; |e| <= u*|a*b|, u = 2^-53."""
    p = a * b
    ah = 134217729.0 * a
    ah -= ah - a
    bh = 134217729.0 * b
    bh -= bh - b
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def inf_scan(alpha: float, ladder: list[float], step: float) -> InfScanReport:
    """Prefix minima of |three_point_cf(alpha, .)| over [0, T] for each
    T in the increasing ladder. Each window between two rungs is read by
    min_modulus_scan at the given step, which polishes its
    config.REFINE_TOP lowest local minima (its last grid point passes T
    by under one step when the width is no multiple of the step); a rung
    keeps the least value so far and its argmin, the first of equal
    minima."""
    ladder = [float(T) for T in ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])) or not ladder:
        raise InputError("ladder must be strictly increasing and non-empty")
    _scan_budget(alpha, ladder[-1], step, "inf_scan grid")
    minima: list[tuple[float, float, float]] = []
    running_val, running_arg = math.inf, 0.0
    lo = 0.0
    for T in ladder:
        cert = min_modulus_scan(lambda s, lo=lo: three_point_cf(alpha, lo + s), T - lo, step)
        if cert.min_modulus < running_val:
            running_val, running_arg = cert.min_modulus, lo + cert.argmin_t
        lo = T
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
    """Least |three_point_cf| over one period for rational alpha, from
    min_modulus_scan on n = ceil(period/step) cells; returns (min,
    argmin). This is the floor the window ladder stabilizes at, a
    polished sample: strictly positive unless 3 divides p + q, when the
    CF has real zeros and the floor is 0 up to rounding."""
    period = rational_cf_period(frac)
    alpha = float(frac)
    h = period / _scan_budget(alpha, period, step, "one-period grid")
    # half a cell short, so min_modulus_scan counts these cells however period/h rounds
    cert = min_modulus_scan(lambda t: three_point_cf(alpha, t), period - 0.5 * h, h)
    return cert.min_modulus, cert.argmin_t


def parse_alpha(text: str) -> tuple[float, Fraction | None]:
    """Parse an alpha argument: a named constant ('sqrt2', 'golden',
    'pi', 'e'), a fraction 'p/q' (treated as exactly rational), or a
    decimal literal (treated as exactly rational, since a float is
    one)."""
    s = text.strip().lower()
    if s in NAMED_ALPHAS:
        return NAMED_ALPHAS[s], None
    try:
        frac = Fraction(s) if "/" in s else None
        value = float(s if frac is None else frac)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InputError(f"alpha {text!r} is not a finite number") from exc
    if not (value > 0 and math.isfinite(value)):
        raise InputError("alpha must be positive and finite")
    return value, frac if frac is not None else Fraction(value).limit_denominator(10 ** 12)
