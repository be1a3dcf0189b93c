"""Selection of a mixing weight delta in (0, tau) such that
delta*e^{it*gamma0} + (1-delta)*f0(t) has no real zeros, with a scan
certificate.

Zeros can only occur where Im(f0(t)e^{-it*gamma0}) vanishes, and there
only at one specific delta per root; the selector enumerates those bad
weights on a window, picks the candidate farthest from all of them and
certifies the resulting mixture: a pure lattice mixture on the Taylor
table by the proven floor of lattice_certificate, any other by a
minimum-modulus scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import config
from .charfn import (CharFn, ZeroFreeCertificate, _merge_close, decay_window, imag_zero_scan,
                     lattice_certificate, min_modulus_scan)
from .dist import Law, is_shift_symmetric, mix, point_mass, support_info
from .errors import InputError, SelectionUnverifiableError


@dataclass(frozen=True)
class DeltaSelection:
    """Chosen mixing weight with the bad weights it avoids, the mixed law
    delta*point_mass(gamma0) + (1-delta)*F0 and the certificate of its
    characteristic function."""

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


def _scan_params(F0: Law, delta_hint: float,
                 cap: float | None = None) -> tuple[float, float, float | None]:
    """Window and step for scans of delta*e^{it*gamma0} + (1-delta)*f0,
    f0 the CF of F0.

    Lattice part: one CF period 2*pi/span is exhaustive. Density part:
    the decay_window beyond which the density contribution to the
    mixture stays below delta_hint/2 in modulus, a bound that holds at
    every |t| past the window. Returns (T, step, tail_bound), tail_bound
    being that delta_hint/2 (None without a density part, or when cap
    cuts the density window short). The step coarsens so the total
    point count stays below the configured cap.
    """
    T_lattice = 0.0
    T_density = 0.0
    step = math.inf
    tail = None
    if F0.discrete is not None and F0.discrete.locations.size >= 2:
        a, b = F0.discrete.lattice_params()
        period = 2.0 * math.pi / b
        locs = F0.discrete.locations
        degree = max(8, int(round((locs[-1] - locs[0]) / b)))
        T_lattice = period
        step = min(step, period / max(config.SCAN_CELLS, 32 * degree))
    if F0.continuous is not None:
        d = F0.continuous
        width = max(d.nodes[-1] - d.grid_origin, d.grid_step)
        step = min(step, (2.0 * math.pi / width) / config.SAMPLES_PER_OSCILLATION)
        coeff = (1.0 - delta_hint) * (1.0 - F0.discrete_weight)
        T_density = decay_window(CharFn(F0), delta_hint / (2.0 * coeff))
        tail = 0.5 * delta_hint
        if cap is not None and T_density > cap:
            # the bound covers only |t| past the uncapped window
            T_density, tail = cap, None
    T = max(T_lattice, T_density)
    if T == 0.0:
        T = 4.0 * math.pi
    if not math.isfinite(step):
        step = T / config.SCAN_CELLS
    step = max(step, T / config.SCAN_POINTS_CAP)
    return T, step, tail


def _root_scan_step(F0: Law, gamma0: float) -> float:
    """Step for sign-change scans of Im(f0 e^{-it gamma0}): eight
    samples per half-period of the fastest oscillation."""
    info = support_info(F0)
    extent = max(abs(info.lext - gamma0), abs(info.rext - gamma0), 1e-6)
    return math.pi / (8.0 * extent)


def bad_delta_set(f0: CharFn, gamma0: float, T: float, step: float) -> list[float]:
    """Mixing weights delta' at which the mixture CF can vanish.

    At every root t' of Im(f1) with f1(t) = f0(t)e^{-it*gamma0} and
    Re f1(t') < 0, the weight delta' = -Re f1(t') / (1 - Re f1(t'))
    (always in (0,1)) is the unique one killing the mixture at t'.
    Returns the deduplicated sorted list over roots found in [-T, T].

    Roots giving the same weight are folded onto one first: t and -t,
    as f1(-t) = conj f1(t), and for a pure lattice law on a + b*Z with
    gamma0 on its lattice also t and 2*pi/b - t, as f1 then has period
    2*pi/b; the scan then stops at pi/b plus one step, which the fold
    covers. Folded roots merge as in imag_zero_scan.
    """
    law = f0.law
    centre = support_info(law).cext
    if is_shift_symmetric(law) and abs(gamma0 - centre) <= config.SHIFT_SYMMETRY_TOL:
        raise InputError(
            "gamma0 equals the support center of a shift-symmetric law; "
            "the imaginary part of the recentered CF vanishes identically")
    period = None
    fit = law.discrete.lattice_fit if law.is_pure_discrete else None
    if fit is not None and fit[1] > 0:
        m = (gamma0 - fit[0]) / fit[1]
        if abs(m - round(m)) <= config.LATTICE_REL_TOL * fit[2][-1]:
            period = 2.0 * math.pi / fit[1]
            T = min(T, 0.5 * period + step)
    roots = np.abs(imag_zero_scan(f0, gamma0, T, step))
    if period is not None:
        roots = np.minimum(roots % period, period - roots % period)
    roots = np.array(_merge_close(roots))
    re = (f0(roots) * np.exp(-1j * gamma0 * roots)).real
    re = re[re < -1e-15]
    return _merge_close((-re / (1.0 - re)).tolist(), 1e-12)


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


def select_delta(F0: Law, gamma0: float, tau: float) -> DeltaSelection:
    """Pick delta in (0, tau) keeping the mixture CF zero-free,
    maximizing the distance to the bad weights.

    A candidate whose mixture is a pure lattice law on the Taylor table
    is accepted when lattice_certificate proves |f| > CERTIFICATE_FLOOR;
    any other when min_modulus_scan finds its minimum above that floor.
    Raises SelectionUnverifiableError when no candidate is accepted.
    """
    if not (0.0 < tau <= 1.0):
        raise InputError(f"tau must be in (0, 1], got {tau}")
    # F0's CF, and the Taylor table it builds, live only for the root
    # scan, so no two tables are held while candidates are certified
    T0, _, _ = _scan_params(F0, delta_hint=0.5 * tau, cap=config.BADSET_WINDOW)
    bad = bad_delta_set(CharFn(F0), gamma0, T0, _root_scan_step(F0, gamma0))
    last_min = 0.0
    for delta in _candidate_ladder(bad, tau):
        if any(abs(delta - d) < config.DELTA_SEPARATION for d in bad):
            continue
        mixture = mix(delta, point_mass(gamma0), F0)
        f = CharFn(mixture)
        if f.is_lattice_table:
            cert = lattice_certificate(f)
        else:
            T, step, tail = _scan_params(F0, delta_hint=delta)
            cert = replace(min_modulus_scan(f, T, step), tail_bound=tail)
        last_min = max(last_min, cert.certified_min)
        if cert.certified_min > config.CERTIFICATE_FLOOR:
            return DeltaSelection(delta=delta, bad_deltas=tuple(bad), certificate=cert,
                                  gamma0=gamma0, tau=tau, law=mixture)
    raise SelectionUnverifiableError(
        f"no candidate delta in (0, {tau}) produced a certified positive "
        f"minimum (best {last_min:.3e})")
