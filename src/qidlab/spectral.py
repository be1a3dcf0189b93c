"""Spectral pairs of zero-free lattice laws: signed compound-Poisson
parametrization of the exponent of the characteristic function.

For a lattice law on a + b*Z whose CF has no real zeros, the
distinguished logarithm over one period splits into a linear drift and
a periodic part; the Fourier coefficients of the periodic part are the
signed atom weights lambda_k at lattice points b*k, so that

    log f(t) = i*gamma*t + sum_k lambda_k * (exp(i*t*b*k) - 1).

Extraction is a discrete Fourier sum over one period of the tracked
branch; weights decay geometrically whenever min |f| > 0, so a modest
truncation order reaches float accuracy for desk-scale laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .charfn import CharFn, _blocked, _power_sum, _track_branch, min_modulus_scan
from .dist import Law
from .errors import InputError, LawShapeError, SpectralExtractionError

# weights below this are dropped from the atom list
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralPair:
    """Drift plus finite signed atomic measure on a lattice."""

    drift_gamma: float
    lattice_a: float
    lattice_b: float
    signed_atoms: tuple[tuple[int, float], ...]
    truncation_K: int
    residual: float

    def __post_init__(self):
        if not (self.lattice_b > 0):
            raise InputError("lattice span must be positive")
        if self.truncation_K < 0 or self.residual < 0:
            raise InputError("truncation order and residual must be nonnegative")
        for k, _ in self.signed_atoms:
            if k == 0:
                raise InputError("signed atoms carry nonzero lattice index only")


def reconstruct_cf(pair: SpectralPair):
    """Evaluator of exp(i*gamma*t + sum lambda_k (e^{itbk} - 1)): a complex
    for scalar t, an array for array t.

    The sum over k = -K..K is one power-table sum in z = e^{itb}
    (charfn's lattice path), taken in blocks of t under BLOCK_ENTRIES.
    """
    ks = np.array([k for k, _ in pair.signed_atoms], dtype=np.int64)
    lams = np.array([lam for _, lam in pair.signed_atoms], dtype=float)
    K = int(np.max(np.abs(ks), initial=0))
    coeffs = np.bincount(ks + K, weights=lams, minlength=2 * K + 1)
    lam_sum = math.fsum(lams)
    b = pair.lattice_b

    def cf(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        sums = _blocked(t_arr, lambda tb: _power_sum(tb, -K * b, b, coeffs), coeffs.size)
        out = np.exp(1j * pair.drift_gamma * t_arr + (sums - lam_sum)).reshape(np.shape(t) or 1)
        return out if np.ndim(t) else complex(out[0])

    return cf


def lattice_spectral_pair(F: Law, K: int = 64,
                          min_modulus_floor: float = config.LOG_MODULUS_FLOOR) -> SpectralPair:
    """Extract the spectral pair of a zero-free lattice law.

    Scans one CF period first; a minimum below min_modulus_floor means
    the pair is not extractable (laws with vanishing CF have none).
    The drift picks up the branch winding over one period, so it always
    lands on the lattice of the law itself.
    """
    if K < 0:
        raise InputError("truncation order K must be nonnegative")
    if not F.is_pure_discrete:
        raise LawShapeError("spectral extraction needs a pure lattice law")
    a, b = F.discrete.lattice_params()
    if b == 0.0:
        b = 1.0  # degenerate law: span is conventional
    period = 2.0 * math.pi / b
    f = CharFn(F)
    cert = min_modulus_scan(f, period, period / config.SCAN_CELLS, refine=True)
    if cert.min_modulus <= min_modulus_floor:
        raise SpectralExtractionError(
            f"not extractable: CF modulus falls to {cert.min_modulus:.3e} "
            f"near t={cert.argmin_t:.6g}")

    n_nodes = max(256, 8 * K)
    fn = lambda ts: f(np.asarray(ts)) * np.exp(-1j * a * np.asarray(ts, dtype=float))
    ts, logs = _track_branch(fn, period, period / n_nodes,
                             floor=0.5 * cert.min_modulus)
    stride = round((len(ts) - 1) / n_nodes)
    coarse = logs[::stride]
    winding = round(float(coarse[-1].imag) / (2.0 * math.pi))
    if abs(coarse[-1] - 2j * math.pi * winding) > 1e-6:
        raise SpectralExtractionError(
            "branch does not close to an integer winding over one period")
    t_nodes = ts[::stride][:n_nodes]
    periodic = coarse[:n_nodes] - 1j * winding * b * t_nodes
    coeff = np.fft.fft(periodic) / n_nodes
    gamma = a + winding * b

    atoms: list[tuple[int, float]] = []
    for k in range(1, K + 1):
        for idx, kk in ((k, k), (n_nodes - k, -k)):
            lam = float(coeff[idx].real)
            if abs(lam) > PRUNE_TOL:
                atoms.append((kk, lam))
    atoms.sort()

    pair = SpectralPair(drift_gamma=gamma, lattice_a=a, lattice_b=b,
                        signed_atoms=tuple(atoms), truncation_K=K, residual=0.0)
    grid = np.linspace(0.0, period, 4 * n_nodes + 1)
    residual = pair_roundtrip_error(F, pair, grid)
    return SpectralPair(drift_gamma=gamma, lattice_a=a, lattice_b=b,
                        signed_atoms=tuple(atoms), truncation_K=K,
                        residual=residual)


def pair_roundtrip_error(F: Law, pair: SpectralPair, grid) -> float:
    """Sup over the grid of |cf(F) - reconstruction from the pair|."""
    ts = np.asarray(grid, dtype=float)
    f = CharFn(F)
    return float(np.max(np.abs(f(ts) - reconstruct_cf(pair)(ts))))
