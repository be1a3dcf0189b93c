"""Representation of univariate probability laws and exact total-variation
arithmetic.

A law is a convex mixture of a discrete part (weighted atoms) and an
absolutely continuous part (nonnegative samples on a uniform grid).
Atoms are stored as two arrays, built with
``DiscreteLaw(locations, masses)``; ``Atom`` records exist only as the
``DiscreteLaw.atoms`` view. ``DiscreteLaw.lattice_fit`` is the one place
that decides the lattice of the atoms, its misfit and the CF period.
Density samples are read as the piecewise-linear interpolant vanishing
at both grid ends, which makes masses, convolution supports, L1
distances and characteristic functions of represented laws computable
without quadrature guesswork: integrals of piecewise-linear data are
evaluated exactly, cell by cell.

Two uniform grids nest when one step is a whole multiple m of the other
and their origins differ by whole fine steps, both within a few ulps of
the largest node coordinate. The coarse interpolant is then piecewise
linear on the fine grid, so convolution, mixing and TV measurement work
on the fine grid by index, without resampling, FFT or a union of nodes,
and an atom on the fine grid shifts a density copy exactly. Grids that
do not nest are interpolated onto a common grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from ._fft import TABLE_ENTRIES, TaylorTable, fftconvolve, grid_cells
from .errors import InputError, LawShapeError, NotLatticeError

_FLOAT_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Domain types


class Atom(NamedTuple):
    """One record of DiscreteLaw.atoms."""

    location: float
    mass: float


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Finitely many atoms as two read-only float arrays: ``locations``
    strictly increasing with gaps above ATOM_MERGE_TOL, ``masses`` in
    (0, 1] with sum 1."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        locs = np.array(self.locations, dtype=float)
        masses = np.array(self.masses, dtype=float)
        if locs.ndim != 1 or locs.shape != masses.shape or not locs.size:
            raise InputError("discrete law needs equal-length 1-D arrays of at "
                             "least one atom")
        if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(masses))):
            raise InputError("atom locations and masses must be finite")
        if not (np.all(masses > 0.0) and np.all(masses <= 1.0 + config.DISCRETE_MASS_TOL)):
            raise InputError("atom masses must lie in (0, 1]")
        if np.any(np.diff(locs) <= config.ATOM_MERGE_TOL):
            raise InputError("atom locations must be sorted and separated")
        total = math.fsum(masses)
        if abs(total - 1.0) > config.DISCRETE_MASS_TOL * locs.size:
            raise InputError(f"atom masses must sum to 1, got {total!r}")
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms as (location, mass) records, built on first use."""
        return tuple(map(Atom, self.locations.tolist(), self.masses.tolist()))

    @cached_property
    def lattice_fit(self) -> LatticeFit | None:
        """The support as a + b*ks, fitted once, or None when no span
        reproduces every location within config.LATTICE_REL_TOL of the
        support width.

        b is the approximate positive gcd of the location differences,
        refined by least squares. A degenerate law has b = 0.
        """
        locs = self.locations
        a, b, ks = float(locs[0]), 0.0, np.zeros(1, dtype=np.int64)
        if len(locs) > 1:
            diffs = locs[1:] - locs[0]
            tol = config.LATTICE_REL_TOL * float(diffs[-1])
            g = _approx_gcd(diffs, tol)
            if g <= 0 or g < (diffs[0] * 1e-6):
                return None
            ks = np.round(diffs / g)
            if np.any(np.abs(diffs - ks * g) > tol):
                return None
            # least-squares refinement of the span through the fitted indices
            b = float(np.dot(ks, diffs) / np.dot(ks, ks))
            ks = np.concatenate(([0], ks.astype(np.int64)))
        ks.setflags(write=False)
        offset = float(np.max(np.abs(locs - (a + b * ks))))
        scale = max(float(np.max(np.abs(locs))), b * float(ks[-1]))
        span = b if b > 0 else 1.0
        return LatticeFit(a, b, ks, offset, offset + 2.0 * float(np.spacing(scale)),
                          span, 2.0 * math.pi / span)

    def lattice_params(self) -> LatticeFit:
        """lattice_fit; NotLatticeError when the support is not a lattice."""
        fit = self.lattice_fit
        if fit is None:
            raise NotLatticeError("no lattice span fits the support")
        return fit

    def lattice_coeffs(self, cap: int) -> np.ndarray | None:
        """The masses as dense coefficients c[k] of a + b*k, zero at
        lattice gaps, or None, before any is built, past cap of them."""
        ks = self.lattice_params().ks
        return np.bincount(ks, weights=self.masses) if ks[-1] < cap else None


class LatticeFit(NamedTuple):
    """Support a + b*ks, ks[0] = 0, b = 0 for a point mass; span is b, or 1
    for a point mass (|f| = 1), and period = 2*pi/span one period of |f|.
    offset is max |x - (a + b*k)|; misfit adds two ulps of max(|x|, b*ks[-1]),
    so a CF summed at a + b*k is off by at most |t|*misfit."""

    a: float
    b: float
    ks: np.ndarray
    offset: float
    misfit: float
    span: float
    period: float


def _approx_gcd(diffs: np.ndarray, tol: float) -> float:
    """Approximate gcd of the increasing positive differences by the
    Euclid loop below, remainders within tol counting as 0.

    When diffs[0] > tol and every remainder d - diffs[0]*round(d/diffs[0])
    is within tol, the loop returns diffs[0]: for each d its first step
    computes exactly that remainder, which ends the step with g
    unchanged. One vectorised test of that case skips the Python loop
    for the usual lattice, whose first two atoms are adjacent.
    """
    g = float(diffs[0])
    if g > tol and np.all(np.abs(diffs - g * np.round(diffs / g)) <= tol):
        return g
    g = 0.0
    for d in diffs:
        a, b = max(abs(d), g), min(abs(d), g)
        while b > tol:
            a, b = b, abs(a - b * round(a / b))
        g = a
    return float(g)


@dataclass(frozen=True, eq=False)
class DensityLaw:
    """Uniform-grid samples of a probability density.

    The density is the piecewise-linear interpolant of ``samples`` at
    nodes ``grid_origin + i*grid_step``; it must vanish at both grid
    ends and integrate to 1 under the trapezoid rule (exact for the
    interpolant).
    """

    grid_origin: float
    grid_step: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if not (math.isfinite(self.grid_origin) and math.isfinite(self.grid_step)):
            raise InputError("grid_origin and grid_step must be finite")
        if not (self.grid_step > 0):
            raise InputError("grid_step must be positive")
        if samples.ndim != 1 or samples.size < 3:
            raise InputError("samples must be a 1-D array with >= 3 entries")
        if not np.all(np.isfinite(samples)):
            raise InputError("density samples must be finite")
        if np.any(samples < -1e-13):
            raise InputError("density samples must be nonnegative")
        samples = np.maximum(samples, 0.0)
        if samples[0] != 0.0 or samples[-1] != 0.0:
            raise InputError("density must vanish at both grid ends")
        mass = self.grid_step * float(np.sum(samples))
        if abs(mass - 1.0) > config.DENSITY_MASS_TOL:
            raise InputError(f"density must integrate to 1, got {mass!r}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @cached_property
    def nodes(self) -> np.ndarray:
        """grid_origin + i*grid_step, built on first use, read-only."""
        nodes = self.grid_origin + self.grid_step * np.arange(self.samples.size)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def node_table(self) -> TaylorTable:
        """Evaluator of sum_i h*s_i*exp(it*x_i) over the nodes x_i, the
        hat-function CF without its sinc^2 factor; built on first use
        and shared by every CharFn over this density."""
        return TaylorTable(self.grid_origin, self.grid_step, self.grid_step * self.samples)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Piecewise-linear density values, zero outside the grid."""
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.samples,
                         left=0.0, right=0.0)


@dataclass(frozen=True)
class Law:
    """Mixture  discrete_weight * discrete + (1 - discrete_weight) * continuous."""

    discrete_weight: float
    discrete: DiscreteLaw | None = None
    continuous: DensityLaw | None = None

    def __post_init__(self):
        w = self.discrete_weight
        if not (0.0 <= w <= 1.0):
            raise InputError(f"discrete_weight must be in [0, 1], got {w}")
        if w == 0.0 and self.discrete is not None:
            raise InputError("discrete part present with zero weight")
        if w == 1.0 and self.continuous is not None:
            raise InputError("continuous part present with unit discrete weight")
        if w > 0.0 and self.discrete is None:
            raise InputError("positive discrete weight without discrete part")
        if w < 1.0 and self.continuous is None:
            raise InputError("discrete weight below 1 without continuous part")

    @property
    def is_pure_discrete(self) -> bool:
        return self.discrete_weight == 1.0

    @property
    def is_pure_density(self) -> bool:
        return self.discrete_weight == 0.0


@dataclass(frozen=True)
class SupportInfo:
    """Numeric support bounds at node resolution and their midpoint cext."""

    lext: float
    rext: float
    cext: float

    def __post_init__(self):
        if self.lext > self.rext:
            raise InputError("lext must not exceed rext")


# ---------------------------------------------------------------------------
# Constructors


def law_from_atoms(pairs: Iterable[tuple[float, float]], normalize: bool = False) -> Law:
    """Pure discrete law from (location, mass) pairs; coincident locations
    merge and zero masses are dropped."""
    arr = np.array(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("atoms must be (location, mass) pairs")
    if not np.all(np.isfinite(arr)):
        raise InputError("atom locations and masses must be finite")
    if np.any(arr[:, 1] < 0.0):
        raise InputError("atom masses must be nonnegative")
    arr = arr[arr[:, 1] > 0.0]
    locs, masses = _merge_atoms(arr[:, 0], arr[:, 1])
    if normalize:
        masses = masses / math.fsum(masses)
    return Law(1.0, DiscreteLaw(locs, masses), None)


def point_mass(x: float) -> Law:
    return law_from_atoms([(x, 1.0)])


def law_from_density(origin: float, step: float, samples: Sequence[float]) -> Law:
    return Law(0.0, None, DensityLaw(origin, step, np.asarray(samples, dtype=float)))


def density_from_callable(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                          cells: int | None = None, step: float | None = None) -> Law:
    """Sample a density on [lo, hi], pad a zero node on each side and
    renormalize to unit trapezoid mass. A step grid is counted in steps,
    less 1e-12, and refused past TABLE_ENTRIES = 2^24 points unsampled."""
    if hi <= lo:
        raise InputError("need hi > lo")
    if step is None:
        n = cells if cells is not None else config.DEFAULT_CELLS
        step = (hi - lo) / n
    else:
        n = grid_cells((hi - lo) / step - 1e-12, 1.0, TABLE_ENTRIES, "density grid")
    xs = lo + step * np.arange(n + 1)
    vals = np.asarray(fn(xs), dtype=float)
    vals = np.where(xs <= hi + 1e-12 * step, vals, 0.0)
    return Law(0.0, None, _grid_density(lo - step, step, np.concatenate(([0.0], vals, [0.0]))))


def uniform_density(lo: float, hi: float, cells: int | None = None) -> Law:
    """Uniform law on [lo, hi] in grid representation."""
    return density_from_callable(lambda x: np.ones_like(x), lo, hi, cells=cells)


def continuous_bernoulli(q: float, tau: float, side: str,
                         step: float | None = None) -> Law:
    """Continuous Bernoulli smoothing kernel, rescaled to [0, tau]
    ("plus") or [-tau, 0] ("minus").

    With ``step`` given, the nodes of either side lie on step*Z, so the
    kernel grid nests in any grid whose step is a whole multiple of
    ``step`` and whose origin lies on step*Z, and an atom on such a grid
    shifts the kernel exactly. Without it, [0, tau] or [-tau, 0] is
    split into config.DEFAULT_CELLS cells.

    The base density on [0, 1] is C_q * q^x * (1-q)^(1-x) with
    C_q = log(q/(1-q)) / (2q - 1); q = 1/2 is rejected because C_q
    degenerates there (and the uniform kernel is excluded anyway).
    """
    if abs(q - 0.5) < config.Q_HALF_EXCLUSION or not (0.0 < q < 1.0):
        raise InputError(f"q must be in (0,1) away from 1/2, got {q}")
    if not (tau > 0):
        raise InputError("tau must be positive")
    if side not in ("plus", "minus"):
        raise InputError(f"side must be 'plus' or 'minus', got {side!r}")
    log_ratio = math.log(q) - math.log1p(-q)
    c_q = log_ratio / (2.0 * q - 1.0)

    def base(y: np.ndarray) -> np.ndarray:
        # q^y (1-q)^(1-y) = (1-q) * exp(y * log(q/(1-q))), clipped to [0, 1]
        out = c_q * (1.0 - q) * np.exp(y * log_ratio)
        return np.where((y >= 0.0) & (y <= 1.0), out, 0.0)

    if side == "plus":
        lo, hi = 0.0, tau
        fn = lambda x: base(x / tau) / tau
    else:
        lo = -tau if step is None else -step * grid_cells(tau / step - 1e-12, 1.0,
                                                          TABLE_ENTRIES, "kernel grid")
        hi = 0.0
        fn = lambda x: base(x / tau + 1.0) / tau
    return density_from_callable(fn, lo, hi, step=step)


# ---------------------------------------------------------------------------
# Support geometry


def support_info(F: Law) -> SupportInfo:
    """Support bounds at node resolution: the atoms and density nodes
    of positive weighted mass."""
    lo, hi = math.inf, -math.inf
    w = F.discrete_weight
    if F.discrete is not None:
        keep = w * F.discrete.masses > 0.0
        if np.any(keep):
            locs = F.discrete.locations[keep]
            lo, hi = min(lo, float(locs.min())), max(hi, float(locs.max()))
    if F.continuous is not None:
        d = F.continuous
        node_mass = (1.0 - w) * d.grid_step * d.samples
        idx = np.nonzero(node_mass > 0.0)[0]
        if idx.size:
            nodes = d.nodes
            lo = min(lo, float(nodes[idx[0]]))
            hi = max(hi, float(nodes[idx[-1]]))
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise LawShapeError("empty support")
    return SupportInfo(lo, hi, 0.5 * (lo + hi))


def is_shift_symmetric(F: Law) -> bool:
    """True when F reflected about its support center equals F within
    config.SHIFT_SYMMETRY_TOL."""
    tol = config.SHIFT_SYMMETRY_TOL
    info = support_info(F)
    c = info.cext
    width = max(info.rext - info.lext, 1.0)
    if F.discrete is not None:
        locs, masses = F.discrete.locations, F.discrete.masses
        loc_tol = max(config.ATOM_MERGE_TOL, 1e-9 * width)
        # locations increase strictly, so the reflection must reverse them
        if (np.any(np.abs(locs + locs[::-1] - 2.0 * c) > loc_tol)
                or np.any(np.abs(masses[::-1] - masses) > tol * np.maximum(1.0, masses))):
            return False
    if F.continuous is not None:
        d = F.continuous
        # the nodes and their mirrors; a repeated point leaves the maximum
        xs = np.concatenate((d.nodes, 2.0 * c - d.nodes))
        diff = d.pdf(xs) - d.pdf(2.0 * c - xs)
        top = float(np.max(d.samples))
        if float(np.max(np.abs(diff))) > tol * max(top, 1.0):
            return False
    return True


# ---------------------------------------------------------------------------
# Mixture / transform / convolution


def _merge_atoms(locs: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms by (location, mass) and merge each run of atoms that lie
    within ATOM_MERGE_TOL of their left neighbour into one atom at the
    run's leftmost location; masses (of any sign) add up in sorted order."""
    order = np.lexsort((masses, locs))
    locs, masses = locs[order], masses[order]
    start = np.diff(locs, prepend=-np.inf) > config.ATOM_MERGE_TOL
    return locs[start], np.bincount(np.cumsum(start) - 1, weights=masses)


def _grid_density(origin: float, step: float, vals: np.ndarray) -> DensityLaw:
    """Density from grid values: clip at 0, zero both grid ends and scale
    to unit trapezoid mass."""
    vals = np.maximum(vals, 0.0)
    vals[0] = 0.0
    vals[-1] = 0.0
    mass = step * float(np.sum(vals))
    if mass <= 0:
        raise InputError("grid density has zero mass")
    return DensityLaw(origin, step, vals / mass)


def _snap_tol(scale: float) -> float:
    """How far node coordinates of magnitude up to scale may sit from
    where they are meant to be and still count as on a grid: the
    rounding of origin + i*step, a few ulps, with a margin."""
    return 8.0 * _FLOAT_EPS * scale


def _extent(d: DensityLaw) -> float:
    """Largest |x| over the nodes of d."""
    return max(abs(d.grid_origin), abs(d.grid_origin + d.grid_step * (d.samples.size - 1)))


def _whole_steps(dx, step: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, ok), elementwise: the whole number k of steps nearest to dx,
    and whether dx lies within tol of k*step."""
    k = np.round(np.asarray(dx, dtype=float) / step)
    return k.astype(np.int64), np.abs(dx - k * step) <= tol


def _step_ratio(d: DensityLaw, step: float, tol: float) -> int | None:
    """The whole number m with d.grid_step = m*step, judged on d's whole
    span within tol; None when there is none."""
    cells = d.samples.size - 1
    k, ok = _whole_steps(d.grid_step * cells, step, tol)
    return int(k) // cells if ok and k >= cells and k % cells == 0 else None


def _upsample(s: np.ndarray, m: int) -> np.ndarray:
    """The interpolant through samples s read at m points per cell."""
    if m == 1:
        return s
    r = np.arange(m) / m
    return np.append((np.outer(s[:-1], 1.0 - r) + np.outer(s[1:], r)).ravel(), s[-1])


def _nested_sum(parts: list[tuple[float, DensityLaw]]
                ) -> tuple[float, float, np.ndarray, float] | None:
    """sum_j w_j p_j on the finest grid of the parts as (origin, step,
    values, tol), when every part's grid nests in it within tol; None
    otherwise. Snapping moves each part's nodes by at most 2*tol: tol at
    its origin and tol at its last node."""
    step = min(d.grid_step for _, d in parts)
    lo = min(d.grid_origin for _, d in parts)
    grid_cells(max(d.nodes[-1] for _, d in parts) - lo, step, TABLE_ENTRIES, "density sum grid")
    tol = _snap_tol(max(_extent(d) for _, d in parts))
    placed = []
    for w, d in parts:
        m = _step_ratio(d, step, tol)
        off, ok = _whole_steps(d.grid_origin - lo, step, tol)
        if m is None or not ok:
            return None
        placed.append((w, d.samples, m, int(off)))
    acc = np.zeros(max(off + m * (s.size - 1) + 1 for _, s, m, off in placed))
    for w, s, m, off in placed:
        acc[off:off + m * (s.size - 1) + 1] += w * _upsample(s, m)
    return lo, step, acc, tol


def _weighted_density_sum(parts: list[tuple[float, DensityLaw]]) -> DensityLaw:
    """Combine weighted densities onto one uniform grid (weights sum to 1):
    by index on the finest grid when the grids nest, else by
    interpolation onto a grid at the finest step."""
    if len(parts) == 1 and abs(parts[0][0] - 1.0) < 1e-14:
        return parts[0][1]
    nested = _nested_sum(parts)
    if nested is not None:
        lo, step, acc, _ = nested
        return _grid_density(lo, step, acc)
    step = min(d.grid_step for _, d in parts)
    lo = min(d.grid_origin for _, d in parts)
    hi = max(d.nodes[-1] for _, d in parts)
    n = grid_cells((hi - lo) / step + 0.5, 1.0, TABLE_ENTRIES, "density sum grid") + 1
    xs = lo + step * np.arange(n + 1)
    acc = np.zeros(n + 1)
    for w, d in parts:
        acc += w * d.pdf(xs)
    return _grid_density(lo, step, acc)


def _assemble(locs: np.ndarray, masses: np.ndarray,
              density_parts: list[tuple[float, DensityLaw]]) -> Law:
    """Finalise a mixture from weighted atoms and weighted densities whose
    weights together sum to 1: atoms merge, each part is normalised and the
    discrete weight is the merged atom mass."""
    keep = masses > 0.0
    locs, masses = _merge_atoms(locs[keep], masses[keep])
    w_disc = math.fsum(masses)
    disc = DiscreteLaw(locs, masses / w_disc) if masses.size else None
    if not density_parts:
        return Law(1.0, disc, None)
    w_cont = math.fsum(w for w, _ in density_parts)
    cont = _weighted_density_sum([(w / w_cont, d) for w, d in density_parts])
    if disc is None:
        return Law(0.0, None, cont)
    return Law(w_disc / (w_disc + w_cont), disc, cont)


def mix(c: float, F1: Law, F2: Law) -> Law:
    """Pointwise convex combination c*F1 + (1-c)*F2; coincident atoms merge."""
    if not (0.0 <= c <= 1.0):
        raise InputError(f"mixing weight must be in [0, 1], got {c}")
    if c == 1.0:
        return F1
    if c == 0.0:
        return F2
    locs, masses, dens = [np.empty(0)], [np.empty(0)], []
    for w, law in ((c, F1), (1.0 - c, F2)):
        if law.discrete is not None:
            locs.append(law.discrete.locations)
            masses.append(w * law.discrete_weight * law.discrete.masses)
        wc = w * (1.0 - law.discrete_weight)
        if law.continuous is not None and wc > 0:
            dens.append((wc, law.continuous))
    return _assemble(np.concatenate(locs), np.concatenate(masses), dens)


def _resample_density(d: DensityLaw, step: float) -> DensityLaw:
    """Resample onto a finer/other uniform step, keeping the origin."""
    if abs(step - d.grid_step) <= 1e-12 * d.grid_step:
        return d
    n = grid_cells((d.nodes[-1] - d.grid_origin) / step - 1e-12, 1.0, TABLE_ENTRIES, "resampling")
    xs = d.grid_origin + step * np.arange(n + 2)
    return _grid_density(d.grid_origin, step, d.pdf(xs))


def _polyphase_convolve(coarse: np.ndarray, fine: np.ndarray, m: int) -> np.ndarray:
    """up_m(coarse) (*) hat_m (*) fine for m >= 2: the convolution of the
    interpolant through ``coarse``, read at m points per cell, with
    ``fine``, on the grid that resampling builds (one trailing zero node
    included), without building the resampled operand.

    With g = hat_m (*) fine cut into rows G[j] = g[m*j : m*(j + 1)],
    output entry m*p + r is sum_j coarse[p - j] * G[j, r]: one product of
    a sliding window of coarse by G.
    """
    hat = 1.0 - np.abs(np.arange(1 - m, m)) / m
    g = np.convolve(hat, fine)
    rows = -(-g.size // m)
    cut = np.zeros(rows * m)
    cut[:g.size] = g
    pad = np.zeros(rows - 1)
    window = sliding_window_view(np.concatenate((pad, coarse, pad)), rows)
    full = (np.ascontiguousarray(window) @ cut.reshape(rows, m)[::-1].copy()).ravel()
    # hat_m peaks m - 1 entries in
    return full[m - 1:m * coarse.size + fine.size]


def _convolve_densities(d1: DensityLaw, d2: DensityLaw) -> DensityLaw:
    """Density of the convolution on a grid at the finer step.

    When the coarser step is a whole multiple m >= 2 of the finer one and
    the product of the polyphase form stays within the direct size rule,
    the coarse interpolant is convolved as is (``_polyphase_convolve``);
    otherwise both operands are resampled onto the finer step and
    convolved directly or through the FFT.
    """
    step = min(d1.grid_step, d2.grid_step)
    grid_cells(d1.nodes[-1] - d1.grid_origin + d2.nodes[-1] - d2.grid_origin, step,
               TABLE_ENTRIES, "convolution grid")
    origin = d1.grid_origin + d2.grid_origin
    coarse, fine = (d1, d2) if d1.grid_step >= d2.grid_step else (d2, d1)
    m = _step_ratio(coarse, step, _snap_tol(max(_extent(d1), _extent(d2))))
    if m is not None and m > 1:
        rows = -(-(fine.samples.size + 2 * m - 2) // m)
        if (coarse.samples.size + rows - 1) * rows * m <= 262144:
            conv = _polyphase_convolve(coarse.samples, fine.samples, m)
            return _grid_density(origin, step, conv * step)
    d1, d2 = _resample_density(d1, step), _resample_density(d2, step)
    s1, s2 = d1.samples, d2.samples
    if s1.size * s2.size > 262144:
        conv = fftconvolve(s1, s2)
    else:
        conv = np.convolve(s1, s2)
    return _grid_density(origin, step, conv * step)


def _convolve_atoms_density(disc: DiscreteLaw, d: DensityLaw, anchor: float) -> DensityLaw:
    """Sum of atom-shifted density copies on the grid
    d.grid_origin + anchor + d.grid_step*Z.

    ``convolve`` anchors on the origin of the density the copies are
    summed with, so the copies nest in that sum's grid. An atom on
    anchor + d.grid_step*Z, within a few ulps of the largest coordinate,
    shifts its copy exactly. An off-grid atom splits its copy linearly
    between the two adjacent node offsets; mass is preserved exactly and
    the support widens by at most one grid step.
    """
    h, n = d.grid_step, d.samples.size
    locs, masses = disc.locations, disc.masses
    rel = locs - anchor
    grid_cells(float(rel[-1] - rel[0]) / h + n + 2, 1.0, TABLE_ENTRIES, "atom copies")
    grid_cells(max(-rel[0], rel[-1], h), h, 1 << 53, "atom offset grid")
    tol = _snap_tol(max(float(np.max(np.abs(locs))), abs(anchor)))
    k, on = _whole_steps(rel, h, tol)
    base = np.where(on, k, np.floor(rel / h)).astype(np.int64)
    frac = np.where(on, 0.0, rel / h - base)
    bmin = int(base.min())
    span = int(base.max()) - bmin + 1
    acc = np.zeros(n + span + 1)
    for b, f, m in zip(base, frac, masses):
        off = b - bmin
        acc[off:off + n] += m * (1.0 - f) * d.samples
        if f > 0.0:
            acc[off + 1:off + 1 + n] += m * f * d.samples
    return _grid_density(d.grid_origin + anchor + h * bmin, h, acc)


def convolve(F1: Law, F2: Law) -> Law:
    """Convolution of two laws.

    Discrete (*) discrete is exact; parts involving densities land on a
    common uniform grid. Support bounds add within one grid step. When
    one density step is a whole multiple of the other, the density parts
    are added on the finer grid by index, and an atom of one operand
    that lies on the other operand's density grid shifts its copy
    exactly.
    """
    w1, w2 = F1.discrete_weight, F2.discrete_weight
    locs = masses = np.empty(0)
    if F1.discrete is not None and F2.discrete is not None and w1 * w2 > 0:
        locs = np.add.outer(F1.discrete.locations, F2.discrete.locations).ravel()
        masses = np.multiply.outer(w1 * w2 * F1.discrete.masses, F2.discrete.masses).ravel()
    dens = []
    for w, disc, d, other in ((w1 * (1.0 - w2), F1.discrete, F2.continuous, F1.continuous),
                              (w2 * (1.0 - w1), F2.discrete, F1.continuous, F2.continuous)):
        if disc is not None and d is not None and w > 0:
            anchor = other.grid_origin if other is not None else 0.0
            dens.append((w, _convolve_atoms_density(disc, d, anchor)))
    w = (1.0 - w1) * (1.0 - w2)
    if F1.continuous is not None and F2.continuous is not None and w > 0:
        dens.append((w, _convolve_densities(F1.continuous, F2.continuous)))
    return _assemble(locs, masses, dens)


# ---------------------------------------------------------------------------
# Total variation and the L1 shift modulus


def _union_nodes(*node_arrays: np.ndarray) -> np.ndarray:
    xs = np.sort(np.concatenate(node_arrays))
    if xs.size == 0:
        return xs
    keep = np.empty(xs.size, dtype=bool)
    keep[0] = True
    span = max(xs[-1] - xs[0], 1.0)
    np.greater(np.diff(xs), 1e-15 * span, out=keep[1:])
    return xs[keep]


def _abs_pl_integral(dx, vals: np.ndarray) -> float:
    """Exact integral of |piecewise-linear function| with node values
    vals and cell widths dx (an array, or one float on a uniform grid)."""
    a, b = vals[:-1], vals[1:]
    twice = np.abs(a) + np.abs(b)
    crossing = a * b < 0
    if np.any(crossing):
        ac, bc = a[crossing], b[crossing]
        twice[crossing] = (ac * ac + bc * bc) / (np.abs(ac) + np.abs(bc))
    return 0.5 * float(np.sum(dx * twice))


def _density_l1(parts1: list[tuple[float, DensityLaw]],
                parts2: list[tuple[float, DensityLaw]]) -> tuple[float, float]:
    """Exact L1 distance between two weighted density sums, plus a float
    rounding allowance.

    Nested grids are read on the finest grid by index (``_nested_sum``).
    Moving the nodes of an interpolant of variation V by at most x moves
    it by at most 2*x*V in L1, so the snap adds 4*tol*sum |w|*V to the
    allowance. Other grids, and those past the cap, use the union of nodes.
    """
    parts = parts1 + [(-w, d) for w, d in parts2]
    if not parts:
        return 0.0, 0.0
    try:
        nested = _nested_sum(parts)
    except InputError:
        nested = None
    if nested is not None:
        _, step, diff, tol = nested
        snap = 4.0 * tol * sum(abs(w) * float(np.sum(np.abs(np.diff(d.samples))))
                               for w, d in parts)
        return _abs_pl_integral(step, diff), 8.0 * _FLOAT_EPS * diff.size + snap
    xs = _union_nodes(*(d.nodes for _, d in parts))
    diff = np.zeros_like(xs)
    for w, d in parts:
        diff += w * d.pdf(xs)
    return _abs_pl_integral(np.diff(xs), diff), 8.0 * _FLOAT_EPS * xs.size


def tv_distance(F1: Law, F2: Law) -> tuple[float, float]:
    """Total variation of F1 - F2 as a function on R: sum of absolute
    atom-mass differences plus the L1 distance of the density parts.

    Returns (value, error_bound). Discrete vs discrete is exact
    (error_bound 0); density parts are integrated exactly for the
    piecewise-linear representation, so the bound only covers float
    accumulation.
    """
    locs, masses = [np.empty(0)], [np.empty(0)]
    for sign, law in ((1.0, F1), (-1.0, F2)):
        if law.discrete is not None and law.discrete_weight > 0:
            locs.append(law.discrete.locations)
            masses.append(sign * law.discrete_weight * law.discrete.masses)
    _, merged = _merge_atoms(np.concatenate(locs), np.concatenate(masses))
    atom_part = math.fsum(np.abs(merged))

    parts1 = [(1.0 - F1.discrete_weight, F1.continuous)] if F1.continuous is not None else []
    parts2 = [(1.0 - F2.discrete_weight, F2.continuous)] if F2.continuous is not None else []
    dens_part, bound = _density_l1(parts1, parts2)
    return atom_part + dens_part, bound


def l1_modulus(F: Law, u: float) -> float:
    """L1 modulus of continuity of the density part:
    integral of |p(x) - p(x - u)| dx, exact for the representation."""
    if F.continuous is None:
        raise LawShapeError("l1_modulus needs a density part")
    d = F.continuous
    xs = _union_nodes(d.nodes, d.nodes + u)
    diff = d.pdf(xs) - d.pdf(xs - u)
    return _abs_pl_integral(np.diff(xs), diff)


def mass_on_interval(d: DensityLaw, lo: float, hi: float) -> float:
    """Exact mass the piecewise-linear density puts on [lo, hi]."""
    if hi <= lo:
        return 0.0
    if lo <= d.grid_origin and hi >= d.nodes[-1]:
        return d.grid_step * float(np.sum(d.samples))
    xs = _union_nodes(d.nodes, np.array([lo, hi]))
    xs = xs[(xs >= lo - 1e-15) & (xs <= hi + 1e-15)]
    if xs.size < 2:
        return 0.0
    vals = d.pdf(xs)
    return float(np.sum(0.5 * np.diff(xs) * (vals[:-1] + vals[1:])))


def restrict_density(F: Law, lo: float, hi: float) -> tuple[Law, float]:
    """Restrict a pure density law to [lo, hi] and renormalize.

    Returns (restricted law, kept mass). Nodes outside [lo, hi] are
    zeroed; the returned kept mass is the exact mass of the original
    interpolant on [lo, hi].
    """
    if not F.is_pure_density:
        raise LawShapeError("restrict_density needs a pure density law")
    d = F.continuous
    kept = mass_on_interval(d, lo, hi)
    if kept <= 0:
        raise InputError("restriction interval carries no mass")
    nodes = d.nodes
    inside = (nodes >= lo - 1e-15) & (nodes <= hi + 1e-15)
    vals = np.where(inside, d.samples, 0.0)
    idx = np.nonzero(vals > 0)[0]
    if idx.size == 0:
        raise InputError("restriction keeps no positive node")
    i0, i1 = max(idx[0] - 1, 0), min(idx[-1] + 1, vals.size - 1)
    out = _grid_density(d.grid_origin + i0 * d.grid_step, d.grid_step, vals[i0:i1 + 1])
    return Law(0.0, None, out), kept
