"""Selection of a mixing weight delta in (0, tau) such that
delta*e^{it*gamma0} + (1-delta)*f0(t) has no real zeros, with a proven
certificate.

Zeros can only occur where Im(f0(t)e^{-it*gamma0}) vanishes, and there
only at one specific delta per root; the selector enumerates those bad
weights on a window, picks the candidate farthest from all of them and
certifies the resulting mixture.

Only bad weights below tau' = tau + DELTA_SEPARATION can change that
choice. The weight of a root t' is below tau' exactly when
Re f1(t') > -tau'/(1 - tau'), f1 = f0 e^{-it*gamma0}, and
|d^2/dt^2 Re f1| <= E(X - gamma0)^2 bounds Re f1 on each root-scan cell
of width h to within (h^2/8) E(X - gamma0)^2, plus rounding, of the
chord of its end values. A root bracket whose bound keeps Re f1 at or
below -tau'/(1 - tau'), or at or above 0, is therefore neither polished
nor recorded.

The chosen mixture is certified: a pure lattice mixture by
lattice_certificate, any other by chord_certificate from the same CF
grid of f0 that the root scan read, so f0 is evaluated on one grid per
selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from ._fft import BLOCK_ENTRIES, grid_cells
from .charfn import (_U, CharFn, ZeroFreeCertificate, _merge_close, chord_certificate,
                     decay_window, imag_zero_scan, lattice_certificate)
from .dist import Law, is_shift_symmetric, mix, point_mass, support_info
from .errors import InputError, SelectionUnverifiableError


@dataclass(frozen=True)
class DeltaSelection:
    """Chosen mixing weight with the bad weights it avoids, the mixed law
    delta*point_mass(gamma0) + (1-delta)*F0 and the certificate of its
    characteristic function. bad_deltas holds the bad weights below
    tau + DELTA_SEPARATION, the only ones the choice reads; those at or
    above it are neither polished nor recorded (bad_delta_set)."""

    delta: float
    bad_deltas: tuple[float, ...]
    certificate: ZeroFreeCertificate
    gamma0: float
    tau: float
    law: Law

    def __post_init__(self):
        if not (0.0 < self.delta < self.tau):
            raise InputError("delta must lie strictly inside (0, tau)")
        for d in self.bad_deltas:
            if abs(self.delta - d) < config.DELTA_SEPARATION:
                raise InputError("delta too close to a bad weight")
        if not (self.certificate.min_modulus > 0):
            raise InputError("certificate must have positive minimum")


def _scan_window(f0: CharFn, delta_hint: float,
                 cap: float | None = None) -> tuple[float, float | None]:
    """Window for certificates of delta*e^{it*gamma0} + (1-delta)*f0,
    f0 the CF of the law F0.

    Lattice part: one CF period 2*pi/span is exhaustive. Density part:
    the decay_window beyond which the density contribution to the
    mixture stays below delta_hint/2 in modulus, a bound that holds at
    every |t| past the window. Returns (T, tail_bound), tail_bound
    being that delta_hint/2 (None without a density part, or when cap
    cuts the density window short).
    """
    F0 = f0.law
    T_lattice = T_density = 0.0
    tail = None
    if F0.discrete is not None and F0.discrete.locations.size >= 2:
        T_lattice = F0.discrete.lattice_params().period
    if F0.continuous is not None:
        coeff = (1.0 - delta_hint) * (1.0 - F0.discrete_weight)
        T_density = decay_window(f0, delta_hint / (2.0 * coeff))
        tail = 0.5 * delta_hint
        if cap is not None and T_density > cap:
            # the bound covers only |t| past the uncapped window
            T_density, tail = cap, None
    T = max(T_lattice, T_density)
    return (T if T > 0.0 else 4.0 * math.pi), tail


def _root_scan_step(F0: Law, gamma0: float) -> float:
    """Step for sign-change scans of Im(f0 e^{-it gamma0}): eight
    samples per half-period of the fastest oscillation."""
    info = support_info(F0)
    extent = max(abs(info.lext - gamma0), abs(info.rext - gamma0), 1e-6)
    return math.pi / (8.0 * extent)


def bad_delta_set(f0: CharFn, gamma0: float, T: float, step: float,
                  values: np.ndarray | None = None, tau: float = 1.0) -> list[float]:
    """Mixing weights delta' in (0, tau) at which the mixture CF can vanish.

    At every root t' of Im(f1) with f1(t) = f0(t)e^{-it*gamma0} and
    Re f1(t') < 0, the weight delta' = -Re f1(t') / (1 - Re f1(t'))
    (always in (0,1)) is the unique one killing the mixture at t'.
    Returns the deduplicated sorted list over roots found in [-T, T],
    less the weights at or above tau. delta' < tau exactly when
    Re f1(t') > -tau/(1 - tau), so imag_zero_scan skips every root
    bracket on which its bound on Re f1 (E(X - gamma0)^2 times step^2/8
    from the chord of the grid values, plus rounding) stays at or below
    -tau/(1 - tau) or at or above 0; the default tau = 1 keeps every
    weight.

    Roots giving the same weight are folded onto one first: t and -t,
    as f1(-t) = conj f1(t), and for a pure lattice law on a + b*Z with
    gamma0 on its lattice also t and 2*pi/b - t, as f1 then has period
    2*pi/b; the scan then stops at pi/b plus one step, which the fold
    covers. Folded roots merge as in imag_zero_scan, which reads values,
    f0 on step*arange(m) with m >= ceil(T/step) + 1, when given.
    """
    law = f0.law
    centre = support_info(law).cext
    if is_shift_symmetric(law) and abs(gamma0 - centre) <= config.SHIFT_SYMMETRY_TOL:
        raise InputError(
            "gamma0 equals the support center of a shift-symmetric law; "
            "the imaginary part of the recentered CF vanishes identically")
    period = _fold_period(law, gamma0)
    if period is not None:
        T = min(T, 0.5 * period + step)
    re_floor = -tau / (1.0 - tau) if tau < 1.0 else -math.inf
    roots = np.abs(imag_zero_scan(f0, gamma0, T, step, values, (re_floor, 0.0)))
    if period is not None:
        roots = np.minimum(roots % period, period - roots % period)
    roots = np.array(_merge_close(roots))
    re = (f0(roots) * np.exp(-1j * gamma0 * roots)).real
    re = re[re < -1e-15]
    return [d for d in _merge_close((-re / (1.0 - re)).tolist(), 1e-12) if d < tau]


def _fold_period(law: Law, gamma0: float) -> float | None:
    """2*pi/b when law is pure discrete on a + b*Z, b > 0, with gamma0
    on that lattice, so that f0(t) e^{-it*gamma0} has period 2*pi/b."""
    fit = law.discrete.lattice_fit if law.is_pure_discrete else None
    if fit is not None and fit.b > 0:
        m = (gamma0 - fit.a) / fit.b
        if abs(m - round(m)) <= config.LATTICE_REL_TOL * fit.ks[-1]:
            return fit.period
    return None


def _candidate_ladder(bad: list[float], tau: float) -> list[float]:
    """Midpoints of the gaps of (0, tau) \\ bad, widest gap first; the
    widest gap also contributes its quarter points as fallbacks."""
    bounds = [0.0] + [d for d in bad if 0.0 < d < tau] + [tau]
    gaps = sorted(((hi - lo, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo),
                  reverse=True)
    cands = [lo + 0.5 * (hi - lo) for _, lo, hi in gaps]
    if gaps:
        width, lo, hi = gaps[0]
        cands.extend([lo + 0.25 * width, lo + 0.75 * width])
    return cands[:config.DELTA_CANDIDATES]


def _mixture_allowance(f0: CharFn, delta: float, gamma0: float, mixture: Law, T: float) -> float:
    """A bound, at every |t| <= T, on the distance between
    delta*exp(i*gamma0*t) + (1 - delta)*f0(t) as computed and the CF of
    mixture = mix(delta, point_mass(gamma0), F0), with u = 2^-53:
    (1 - delta) f0.allowance(T); delta (2 |gamma0| T + 4) u for the
    point mass, whose phase gamma0*t rounds twice; 24 u for combining the two and for mix's normalising of the
    masses and weights; (1 - delta) w |sum m - 1| for the atom masses m
    of F0 (weight w), whose shortfall from 1 mix normalises away; and T
    times the largest move of an atom when mix merged atoms within
    ATOM_MERGE_TOL."""
    F0 = f0.law
    out = (1.0 - delta) * f0.allowance(T) + delta * (2.0 * abs(gamma0) * T + 4.0) * _U + 24.0 * _U
    locs = np.array([gamma0])
    if F0.discrete is not None:
        locs = np.append(F0.discrete.locations, gamma0)
        out += (1.0 - delta) * F0.discrete_weight * abs(math.fsum(F0.discrete.masses) - 1.0)
    merged = mixture.discrete.locations
    moved = locs - merged[np.searchsorted(merged, locs, side="right") - 1]
    return out + T * float(np.max(np.abs(moved)))


def select_delta(F0: Law, gamma0: float, tau: float) -> DeltaSelection:
    """Pick delta in (0, tau) keeping the mixture CF zero-free,
    maximizing the distance to the bad weights.

    F0's CF is evaluated once, on the root-scan grid of bad_delta_set,
    which collects only the bad weights below tau + DELTA_SEPARATION,
    those that the candidate ladder and the separation test read: a
    root bracket whose Re f1 bound keeps its weight at or above that is
    neither polished nor recorded.
    A candidate whose mixture is a pure lattice law, on the Taylor table
    or with gamma0 on F0's lattice, is certified by lattice_certificate;
    any other by chord_certificate from delta*e^{it*gamma0} + (1-delta)*f0
    on that grid, over _scan_window(delta). The grid is extended only
    when that window reaches past it. Past 4*BLOCK_ENTRIES points (64 MiB)
    a candidate window is skipped and the root-scan grid is unverifiable.
    A candidate is accepted when its lower_bound exceeds
    CERTIFICATE_FLOOR; SelectionUnverifiableError is raised when none is.
    """
    if not (0.0 < tau <= 1.0):
        raise InputError(f"tau must be in (0, 1], got {tau}")
    f0 = CharFn(F0)
    step = _root_scan_step(F0, gamma0)
    T0, _ = _scan_window(f0, delta_hint=0.5 * tau, cap=config.BADSET_WINDOW)
    period = _fold_period(F0, gamma0)
    if period is not None:
        T0 = min(T0, 0.5 * period + step)
    try:
        n = grid_cells(T0, step, 4 * BLOCK_ENTRIES, "root-scan grid") + 1
    except InputError as exc:
        raise SelectionUnverifiableError(str(exc)) from exc
    grid = f0.eval_grid(0.0, step, n)
    bad = bad_delta_set(f0, gamma0, T0, step, grid, tau + config.DELTA_SEPARATION)
    if f0.is_lattice_table:
        # lattice candidates are certified on their own tables; a fresh
        # CharFn builds F0's table again only if some candidate needs f0,
        # so no two tables are held at once
        f0 = CharFn(F0)
    best = -math.inf
    for delta in _candidate_ladder(bad, tau):
        if any(abs(delta - d) < config.DELTA_SEPARATION for d in bad):
            continue
        mixture = mix(delta, point_mass(gamma0), F0)
        f = CharFn(mixture)
        if f.is_lattice_table or period is not None:
            cert = lattice_certificate(f)
        else:
            T, tail = _scan_window(f0, delta)
            try:
                n = grid_cells(T, step, 4 * BLOCK_ENTRIES, "certificate grid") + 1
            except InputError:
                continue
            if n > grid.size:
                grid = np.concatenate((grid, f0(step * np.arange(grid.size, n))))
            cert = chord_certificate(
                lambda t: delta * np.exp(1j * gamma0 * t) + (1.0 - delta) * f0(t), step, n,
                mixture, _mixture_allowance(f0, delta, gamma0, mixture, step * (n - 1)),
                values=lambda lo, hi: (delta * np.exp(1j * gamma0 * step * np.arange(lo, hi))
                                       + (1.0 - delta) * grid[lo:hi]),
                tail_bound=tail)
        best = max(best, cert.lower_bound)
        if cert.lower_bound > config.CERTIFICATE_FLOOR:
            return DeltaSelection(delta=delta, bad_deltas=tuple(bad), certificate=cert,
                                  gamma0=gamma0, tau=tau, law=mixture)
    raise SelectionUnverifiableError(
        f"no candidate delta in (0, {tau}) produced a certified positive "
        f"minimum (best {best:.3e})")
