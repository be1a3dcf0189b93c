"""Constructive approximation pipelines with total-variation certificates.

Three flows, one per target shape: pure density targets are smoothed by
a continuous Bernoulli kernel after mixing in a small atom; pure
lattice targets are tail-trimmed and atom-mixed; mixtures dispatch on
the shape of their discrete part. Every result carries the measured
total variation, the claimed bound (4*eps or 6*eps) and a zero-free
certificate, and construction fails loudly if the measurement ever
exceeds the claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .charfn import CharFn, ZeroFreeCertificate, lattice_certificate
from .dist import (DiscreteLaw, Law, continuous_bernoulli, convolve,
                   mass_on_interval, mix, point_mass, restrict_density,
                   support_info, tv_distance)
from .errors import InputError, LawShapeError, PipelineError
from .zerofree import select_delta

_TAU_LADDER_MAX = 40
_KERNEL_MIN_CELLS = 256


@dataclass(frozen=True)
class ApproxResult:
    """Approximant plus everything needed to audit it."""

    approximant: Law
    eps: float
    params: dict[str, Any]
    tv_value: float
    tv_bound_claimed: float
    tv_error_bound: float
    certificate: ZeroFreeCertificate

    def __post_init__(self):
        if self.tv_value > self.tv_bound_claimed + self.tv_error_bound + 1e-12:
            raise PipelineError(
                f"measured tv {self.tv_value!r} exceeds claimed bound "
                f"{self.tv_bound_claimed!r}; the construction is broken")
        lower = self.certificate.lower_bound
        if lower is None or not lower > 0:
            raise PipelineError(f"certificate lower bound {lower!r} is not a positive proof")


def _require_eps(eps: float, hi: float = 1.0) -> None:
    if not (0.0 < eps < hi):
        raise InputError(f"eps must be in (0, {hi}), got {eps}")


# ---------------------------------------------------------------------------
# Truncation steps


def truncate_density(F: Law, eps: float) -> tuple[Law, float, float]:
    """Restrict a pure density law to [-r_eps, r_eps] with tail mass
    below eps and renormalize.

    Grid densities already have compact support, so r_eps is the
    support radius and the kept mass c_eps is h*sum(samples), 1 within
    rounding. The returned law is a copy of F trimmed to one zero node at
    each end and renormalised; the general restriction path exists for
    asymmetric re-truncation (mixture case 1b).

    F itself is not returned. The CF of the mixed law caches a Taylor
    table on its density (``DensityLaw.node_table``, a few hundred KiB
    at 256 cells); cached on F it would live as long as the caller holds F.
    Returning F raised peak RSS of the density benchmark, which holds 40
    input densities, from 54.4 to 64.1 MiB.
    """
    _require_eps(eps)
    if not F.is_pure_density:
        raise LawShapeError("truncate_density needs a pure density law")
    d = F.continuous
    r_eps = max(abs(d.grid_origin), abs(d.nodes[-1]))
    F_eps, c_eps = restrict_density(F, -r_eps, r_eps)
    if not (c_eps > 1.0 - eps):
        raise PipelineError(f"kept mass {c_eps} not above 1 - eps")
    return F_eps, r_eps, c_eps


def truncate_lattice(F: Law, eps: float) -> tuple[Law, int, int, float, float]:
    """Relocate lattice tail masses onto boundary atoms.

    Picks lattice indices K1 < K2 with tail masses q1, q2 below eps/2
    on each side (trimming as much as the budget allows), moves those
    tails onto the atoms at K1 and K2, and returns
    (law, K1, K2, q1, q2); the variation moved is exactly 2*(q1+q2).
    """
    _require_eps(eps)
    if not F.is_pure_discrete:
        raise LawShapeError("truncate_lattice needs a pure discrete law")
    locs = F.discrete.locations
    if locs.size < 2:
        raise LawShapeError("need at least two atoms (degenerate laws are "
                            "already representable exactly)")
    F.discrete.lattice_params()  # NotLatticeError off a lattice
    ks = F.discrete.lattice_fit[2]
    masses = F.discrete.masses
    below = np.concatenate(([0.0], np.cumsum(masses)[:-1]))
    above = np.concatenate((np.cumsum(masses[::-1])[::-1][1:], [0.0]))
    half = 0.5 * eps
    i1_cands = np.nonzero(below < half)[0]
    i1 = int(i1_cands[-1]) if i1_cands.size else 0
    i1 = min(i1, locs.size - 2)
    i2_cands = np.nonzero((above < half) & (np.arange(locs.size) > i1))[0]
    i2 = int(i2_cands[0])
    q1, q2 = float(below[i1]), float(above[i2])
    new_masses = masses[i1:i2 + 1].copy()
    new_masses[0] += q1
    new_masses[-1] += q2
    out = Law(1.0, DiscreteLaw(locs[i1:i2 + 1], new_masses), None)
    return out, int(ks[i1]), int(ks[i2]), q1, q2


# ---------------------------------------------------------------------------
# Theorem pipelines


def _kernel_step(grid_step: float, tau: float) -> float:
    """Kernel grid step: the target step divided by a power of two so
    the kernel resolves. The kernel grid then nests in the target's
    (``continuous_bernoulli`` puts its nodes on step*Z), so the atom on
    a target node shifts the kernel exactly and ``convolve`` and
    ``tv_distance`` work on the kernel grid by index."""
    k = max(0, math.ceil(math.log2(max(1.0, _KERNEL_MIN_CELLS * grid_step / tau))))
    if k > 24:
        raise PipelineError("smoothing kernel would need a grid finer than "
                            "2^24 cells per target step (resolution underflow)")
    return grid_step / (1 << k)


def _choose_smoothing(F: Law, eps: float, q: float, tau: float,
                      side: str) -> tuple[Law, float, float]:
    """Halve tau until a proven bound puts tv(F, convolve(F, kernel))
    below eps; return (kernel, tau, bound).

    With kernel nodes x_m, samples k_m and cell weights w_m = step*k_m,
    convolve(F, kernel) is exactly sum_m w_m F(. - x_m): the kernel step
    divides F's step by a power of two, so F's interpolant and each
    shift of it are piecewise linear on the output grid, and w_m >= 0
    with sum 1. A shift by x moves a density of variation
    V = sum |s_{i+1} - s_i| by at most |x|*V in L1, so

        tv(F, convolve(F, kernel)) <= V * sum_m w_m |x_m|,

    taken here times 1 + 4*n*2^-52 for rounding, n the nodes of F plus
    the nodes of the kernel. No rung convolves or measures. This is
    V*E|U| for U drawn from the kernel; the shift-modulus form
    sup_{u <= tau} l1_modulus(F, u), about V*tau, is about twice as
    loose (E|U| is about 0.47*tau at q = 0.4) and would usually stop a
    rung later, doubling the output grid.
    """
    d = F.continuous
    variation = float(np.sum(np.abs(np.diff(d.samples))))
    tau_k = tau
    for _ in range(_TAU_LADDER_MAX):
        tau_k *= 0.5
        kernel = continuous_bernoulli(q, tau_k, side, step=_kernel_step(d.grid_step, tau_k))
        k = kernel.continuous
        n = d.samples.size + k.samples.size
        bound = (variation * k.grid_step * float(k.samples @ np.abs(k.nodes))
                 * (1.0 + 4.0 * n * 2.0 ** -52))
        if bound < eps:
            return kernel, tau_k, bound
    raise PipelineError("smoothing ladder exhausted without reaching eps")


def approximate_abs_cont(F: Law, eps: float, q: float, tau: float, side: str) -> ApproxResult:
    """Density-law approximant: atom-mix the truncated target and
    smooth with a one-sided continuous Bernoulli kernel.

    The output is purely absolutely continuous, supported in the
    one-sided tau-neighbourhood of the target support (up to one grid
    step), with total variation below 4*eps.
    """
    _require_eps(eps)
    if not F.is_pure_density:
        raise LawShapeError("approximate_abs_cont needs a pure density law")
    if tau <= 0:
        raise InputError("tau must be positive")
    kernel, tau_eps, smoothing_bound = _choose_smoothing(F, eps, q, tau, side)
    F_eps, r_eps, c_eps = truncate_density(F, eps)
    info = support_info(F_eps)
    gamma_eps = info.lext
    sel = select_delta(F_eps, gamma_eps, tau=eps)
    out = convolve(sel.law, kernel)
    value, bound = tv_distance(F, out)
    h = F.continuous.grid_step
    out_info = support_info(out)
    lo_ok = out_info.lext >= info.lext - (tau if side == "minus" else 0.0) - 1.5 * h
    hi_ok = out_info.rext <= info.rext + (tau if side == "plus" else 0.0) + 1.5 * h
    if not (lo_ok and hi_ok):
        raise PipelineError("output support escapes the claimed neighbourhood")
    params = {"r_eps": r_eps, "c_eps": c_eps, "gamma_eps": gamma_eps,
              "delta_eps": sel.delta, "tau_eps": tau_eps,
              "smoothing_bound": smoothing_bound, "q": q, "side": side}
    return ApproxResult(out, eps, params, value, 4.0 * eps, bound, sel.certificate)


def approximate_lattice(F: Law, eps: float) -> ApproxResult:
    """Lattice-law approximant: trim tails onto boundary atoms, then mix
    a small point mass at the left support edge; exact discrete
    arithmetic throughout, total variation below 4*eps."""
    _require_eps(eps)
    if not F.is_pure_discrete:
        raise LawShapeError("approximate_lattice needs a pure discrete law")
    F.discrete.lattice_params()
    if F.discrete.locations.size == 1:
        # degenerate laws are already representable: identity approximant
        loc = float(F.discrete.locations[0])
        cert = lattice_certificate(CharFn(F))
        params = {"gamma_eps": loc, "delta_eps": 0.0, "K1": 0, "K2": 0,
                  "q1_eps": 0.0, "q2_eps": 0.0}
        return ApproxResult(F, eps, params, 0.0, 4.0 * eps, 0.0, cert)
    F_tilde, K1, K2, q1, q2 = truncate_lattice(F, eps)
    gamma_eps = support_info(F_tilde).lext
    sel = select_delta(F_tilde, gamma_eps, tau=eps)
    out = sel.law
    value, bound = tv_distance(F, out)
    params = {"gamma_eps": gamma_eps, "delta_eps": sel.delta, "K1": K1, "K2": K2,
              "q1_eps": q1, "q2_eps": q2}
    return ApproxResult(out, eps, params, value, 4.0 * eps, bound, sel.certificate)


def _retruncation_point(F_a: Law, gamma1: float, eps: float) -> float:
    """Case 1b: largest grid node r_hat strictly between gamma1 and the
    right support edge whose right-tail mass stays below eps."""
    d = F_a.continuous
    info = support_info(F_a)
    nodes = d.nodes
    r_eps = max(abs(info.lext), abs(info.rext))
    for x in nodes[::-1]:
        if x >= info.rext:
            continue
        if x <= gamma1:
            break
        if mass_on_interval(d, x, r_eps) < eps:
            return float(x)
    raise PipelineError("no re-truncation point satisfies the tail budget")


def approximate_mixture(F: Law, eps: float, q: float = 0.4, tau: float = 0.5,
                        side: str = "plus") -> ApproxResult:
    """Mixture-law approximant following the case split on the discrete
    part: pure lattice delegates to the lattice pipeline; a single atom
    mixes directly (with an asymmetric re-truncation when the atom sits
    exactly at the support center, bound 6*eps instead of 4*eps); two or
    more atoms approximate the lattice part first and bound its mixed CF
    away from zero."""
    _require_eps(eps, hi=0.5)
    c_d = F.discrete_weight
    if c_d == 1.0:
        return approximate_lattice(F, eps)
    F_a = Law(0.0, None, F.continuous)
    F_a_eps, r_eps, c_eps = truncate_density(F_a, eps)
    h = F.continuous.grid_step

    if c_d == 0.0 or F.discrete.locations.size == 1:
        gamma1 = (support_info(F_a_eps).lext if c_d == 0.0
                  else float(F.discrete.locations[0]))
        F_eps = mix(c_d, point_mass(gamma1), F_a_eps)
        case = "1a" if c_d > 0 else "1a(c_d=0)"
        claimed = 4.0 * eps
        params: dict[str, Any] = {"r_eps": r_eps, "c_eps": c_eps, "gamma_eps": gamma1}
        if abs(support_info(F_eps).cext - gamma1) < 0.5 * h:
            case = "1b"
            claimed = 6.0 * eps
            r_hat = _retruncation_point(F_a, gamma1, eps)
            F_a_hat, c_hat = restrict_density(F_a, -r_eps, r_hat)
            if not (c_hat > 1.0 - 2.0 * eps):
                raise PipelineError(f"re-truncation kept mass {c_hat} too small")
            F_eps = mix(c_d, point_mass(gamma1), F_a_hat)
            if abs(support_info(F_eps).cext - gamma1) < 1e-12:
                raise PipelineError("support center still equals the atom "
                                    "after re-truncation")
            params.update({"r_hat_eps": r_hat, "c_hat_eps": c_hat})
        sel = select_delta(F_eps, gamma1, tau=eps)
        out = sel.law
        value, bound = tv_distance(F, out)
        params.update({"delta_eps": sel.delta, "case": case})
        return ApproxResult(out, eps, params, value, claimed, bound, sel.certificate)

    # case 2: at least two lattice atoms
    F_d = Law(1.0, F.discrete, None)
    inner = approximate_lattice(F_d, 0.25 * eps)
    F_d_eps = inner.approximant
    # proven floor of |f_d_eps|
    mu_d = inner.certificate.lower_bound
    F_eps = mix(c_d, F_d_eps, F_a_eps)
    cext = support_info(F_eps).cext
    d_info = support_info(F_d_eps)
    gamma2 = d_info.lext if abs(d_info.lext - cext) > 0.5 * h else d_info.rext
    tau_mix = min(eps, (1.0 - eps) * c_d * mu_d)
    sel = select_delta(F_eps, gamma2, tau=tau_mix)
    delta, out = sel.delta, sel.law
    value, bound = tv_distance(F, out)
    floor = (tau_mix - delta) / (delta + c_d - delta * c_d)
    if not (floor > 0):
        raise PipelineError("discrete-part lower bound is not positive")
    cert_d = lattice_certificate(CharFn(Law(1.0, out.discrete, None)))
    if cert_d.min_modulus < floor - 1e-12:
        raise PipelineError("mixed discrete part dips below its guaranteed floor")
    params = {"r_eps": r_eps, "c_eps": c_eps, "gamma_eps": gamma2,
              "delta_eps": delta, "tau_mix": tau_mix, "mu_d_eps": mu_d,
              "discrete_floor": floor, "discrete_min_modulus": cert_d.min_modulus,
              "discrete_lower_bound": cert_d.lower_bound,
              "K1": inner.params["K1"], "K2": inner.params["K2"],
              "q1_eps": inner.params["q1_eps"], "q2_eps": inner.params["q2_eps"],
              "case": "2"}
    return ApproxResult(out, eps, params, value, 4.0 * eps, bound, sel.certificate)
