"""Spectral pairs of zero-free lattice laws: signed compound-Poisson
parametrization of the exponent of the characteristic function.

A lattice law on a + b*Z has the CF f(t) = e^{ita} P(e^{itb}) with
P(z) = sum_k c_k z^k. If P has no zero on |z| = 1, the Fourier
coefficients of log P(e^{i*theta}) - i*w*theta, w the winding of P, are
the signed weights lambda_k at lattice points b*k (Lindner, Pan & Sato,
Trans. AMS 2018): log f(t) = i*gamma*t + sum_k lambda_k (e^{itbk} - 1)
with gamma = a + w*b. P over one period and the weights are both FFTs
on the same nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from ._fft import TaylorTable
from .charfn import BLOCK_ENTRIES, CharFn, _blocked, _track_branch
from .dist import Law
from .errors import InputError, LawShapeError

# weights below this are dropped from the atom list
PRUNE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralPair:
    """Drift plus finite signed atomic measure on a lattice.

    tail_mass is the total variation sum_{|k|>K} |lambda_k| of the
    weights that the truncation at K drops, as far as the extraction
    grid resolves them (0 when not measured).
    """

    drift_gamma: float
    lattice_a: float
    lattice_b: float
    signed_atoms: tuple[tuple[int, float], ...]
    truncation_K: int
    residual: float
    tail_mass: float = 0.0

    def __post_init__(self):
        if not (self.lattice_b > 0):
            raise InputError("lattice span must be positive")
        if self.truncation_K < 0 or self.residual < 0 or self.tail_mass < 0:
            raise InputError("truncation order, residual and tail mass must be nonnegative")
        for k, _ in self.signed_atoms:
            if k == 0:
                raise InputError("signed atoms carry nonzero lattice index only")


def reconstruct_cf(pair: SpectralPair):
    """Evaluator of exp(i*gamma*t + sum lambda_k (e^{itbk} - 1)): a complex
    for scalar t, an array for array t.

    The sum over k = -K..K comes from one Taylor table of the signed
    weights (charfn's lattice path), taken in blocks of t under
    BLOCK_ENTRIES.
    """
    ks = np.array([k for k, _ in pair.signed_atoms], dtype=np.int64)
    lams = np.array([lam for _, lam in pair.signed_atoms], dtype=float)
    K = int(np.max(np.abs(ks), initial=0))
    coeffs = np.bincount(ks + K, weights=lams, minlength=2 * K + 1)
    lam_sum = math.fsum(lams)
    table = TaylorTable(-K * pair.lattice_b, pair.lattice_b, coeffs)

    def cf(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        sums = _blocked(t_arr, table, table.order + 1)
        out = np.exp(1j * pair.drift_gamma * t_arr + (sums - lam_sum)).reshape(np.shape(t) or 1)
        return out if np.ndim(t) else complex(out[0])

    return cf


def lattice_spectral_pair(F: Law, K: int = 64,
                          min_modulus_floor: float = config.LOG_MODULUS_FLOOR) -> SpectralPair:
    """Extract the spectral pair of a zero-free lattice law.

    The log branch of P comes from charfn._track_branch on n nodes of
    one period, n a power of two from max(256, 8K, 4*len(c)), doubled
    there until min_modulus_floor is proved between nodes; a law it
    cannot prove raises SpectralExtractionError. The drift picks up the
    branch winding, so it lands on the law's lattice. The weights of
    the same FFT at K < |k| <= n/2 give the pair's tail_mass. The
    residual is the round-trip error on 4*max(256, 8K) nodes of one
    period, from two more inverse FFTs (_fft_residual). A K whose
    max(256, 8K) exceeds BLOCK_ENTRIES is rejected before any FFT.
    """
    if K < 0:
        raise InputError("truncation order K must be nonnegative")
    if not F.is_pure_discrete:
        raise LawShapeError("spectral extraction needs a pure lattice law")
    n_nodes = max(256, 8 * K)
    if n_nodes > BLOCK_ENTRIES:
        raise InputError(f"truncation order K={K} needs max(256, 8K) = {n_nodes} nodes, "
                         f"above the limit of {BLOCK_ENTRIES} (K <= {BLOCK_ENTRIES // 8})")
    a, b = F.discrete.lattice_params()
    c = np.bincount(F.discrete.lattice_fit[2], weights=F.discrete.masses)
    if b == 0.0:
        b = 1.0  # degenerate law: span is conventional
    vals, steps_log = _track_branch(c, 1 << (max(n_nodes, 4 * c.size) - 1).bit_length(),
                                    min_modulus_floor)
    n = vals.size
    # the n ratios close a cycle, so the branch ends at 2*pi*i*winding
    branch = np.cumsum(steps_log)
    winding = round(float(branch[-1].imag) / (2.0 * math.pi))
    theta = 2.0 * math.pi * np.arange(n) / n
    coeff = np.fft.fft(np.log(vals[0]) + branch - steps_log - 1j * winding * theta) / n
    idx = np.r_[-K:0, 1:K + 1]
    lams = coeff[idx].real
    keep = np.abs(lams) > PRUNE_TOL
    ks, lams = idx[keep], lams[keep]
    tail = math.fsum(np.abs(coeff[K + 1:n - K].real))
    return SpectralPair(drift_gamma=a + winding * b, lattice_a=a, lattice_b=b,
                        signed_atoms=tuple(zip(ks.tolist(), lams.tolist())), truncation_K=K,
                        residual=_fft_residual(c, ks, lams, winding, 4 * n_nodes),
                        tail_mass=tail)


def _fft_residual(c: np.ndarray, ks: np.ndarray, lams: np.ndarray, winding: int,
                  m: int) -> float:
    """pair_roundtrip_error on the m nodes t_j = j*period/m: there
    |f - reconstruction| = |P(theta_j) - exp(i*winding*theta_j + sum_k
    lambda_k (e^{ik*theta_j} - 1))|, theta_j = 2*pi*j/m, and both sums
    are inverse FFTs of coefficients folded modulo m; ks and lams are
    the indices and weights of the pair's signed atoms."""
    p_vals = np.fft.ifft(np.bincount(np.arange(c.size) % m, weights=c, minlength=m),
                         norm="forward")
    sums = np.fft.ifft(np.bincount(ks % m, weights=lams, minlength=m), norm="forward")
    theta = 2.0 * math.pi * np.arange(m) / m
    recon = np.exp(1j * winding * theta + (sums - math.fsum(lams)))
    return float(np.max(np.abs(p_vals - recon)))


def pair_roundtrip_error(F: Law, pair: SpectralPair, grid) -> float:
    """Sup over the grid of |cf(F) - reconstruction from the pair|."""
    ts = np.asarray(grid, dtype=float)
    f = CharFn(F)
    return float(np.max(np.abs(f(ts) - reconstruct_cf(pair)(ts))))
