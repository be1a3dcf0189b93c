"""Characteristic-function evaluation, zero scanning and the log
branch of a lattice polynomial.

For the grid densities of :mod:`qidlab.dist` the characteristic
function is evaluated in closed form: the transform of a unit hat of
width h at node x is h * exp(itx) * sinc(th/2)^2, so the value is exact
for the represented law and no oscillatory quadrature is needed.

Points on a uniform grid x0 + k*h (lattice atoms, density nodes) are
summed from one FFT Taylor table of their dense coefficients c (zero
at lattice gaps), qidlab._fft.TaylorTable: with theta = th, row m
holds the FFT of c_k (i(k - kc)pi/N)^m / m! on N >= 4*len(c) nodes of
one period of theta, and M + 1 rows, M the least order whose Taylor
remainder is below rounding (at most 13), make the table exact to
rounding at every t. A point then costs a Horner step of order M in
its offset from the nearest node, whatever the number of terms, and
grid scans and pointwise polish share the table. The atom table is
built once per CharFn, the node table once per DensityLaw and shared
by every CharFn over it. Atoms off a lattice, or on a lattice whose
coefficient array would be much longer than the atom list, keep the
dense exp(itx) product.

The same rows prove a floor: on the cell around each node the Taylor
polynomial, less its first-order part, moves |P| by at most the sum of
its higher coefficients, so lattice_certificate bounds |f| of a pure
lattice law on the table from table reads and a few subdivided cells,
with no grid scan. Every other law, a lattice off the table included,
is proved from CF values on a uniform grid by chord_certificate:
e^{-it*mu} f, mu the mean, has second derivative at most the variance
V, so on a cell of width h it stays within (h^2/8) V of its chord, and
cells whose bound is at or below the floor are bisected.
CharFn.allowance bounds the rounding of every computed value, so both
are proofs. min_modulus_scan, a sampled minimum with parabolic polish
read in blocks of the grid, serves check-zero-free, the rational floor
of impossibility.one_period_floor and each window of
impossibility.inf_scan.

The log branch of a lattice polynomial P(theta) = sum_k c_k e^{ik*theta}
(_track_branch, which spectral extraction reads) is one inverse FFT of
c over a period, on a grid doubled until the modulus floor is proved
between nodes and every log increment is below pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import config
from ._fft import (BLOCK_ENTRIES, FLOOR_LEVELS, MAX_GRID_POINTS, TaylorTable, _cell_bounds,
                   grid_cells)
from .dist import DiscreteLaw, Law
from .errors import (IdenticallyZeroImagError, InputError, LawShapeError,
                     SpectralExtractionError)

# Lattice atoms take the Taylor table when its degree + 1 coefficients
# number at most LATTICE_FILL_MAX per atom. The table holds (M + 1) * N
# complex entries, N <= 8 * (degree + 1), 0.85-1.2 KB per coefficient,
# and costs M + 1 FFTs of N points to build; a point then costs 90-200
# ns against 30-67 ns per atom on the dense path (numpy 2.4, one BLAS
# thread, shared 2-core x86 host, two runs). At fill 8 the build is
# repaid within 160-360 points on 20-2000 atoms and the table stays
# under 10 KB per atom; at fill 64 it takes 1800-5500 points and 55-80
# KB per atom, so sparser lattices stay on the dense path.
LATTICE_FILL_MAX = 8

# The Taylor table is used only when a + b*k reproduces every atom to
# within this many ulps of the largest |location|: a lattice fit that
# holds only at config.LATTICE_REL_TOL would change the CF by t times
# the misfit.
_LATTICE_FIT_ULPS = 16

_U = 2.0 ** -53

@dataclass(frozen=True)
class ZeroFreeCertificate:
    """Evidence that |f| stays positive: window, resolution, least
    modulus evaluated and where, and, when proved, a lower bound.

    lower_bound, when present (lattice_certificate, chord_certificate),
    is a proof: |f| >= lower_bound at every |t| <= window_T, with float
    rounding allowed for; min_modulus, the least modulus evaluated, is
    at or above it. On a lattice a + b*Z the window spans at least half
    a period 2*pi/b of |f|, which is even, so the bound holds at every
    real t for the law on the fitted lattice. Without it
    (min_modulus_scan) min_modulus is a sampled minimum, grid plus
    polish, which may lie above the true one.

    tail_bound, when present, is a proven bound on the modulus of the
    continuous-part contribution at every |t| > window_T (the closed
    form of decay_window), so the atom coefficient dominates out there.
    """

    window_T: float
    grid_step: float
    min_modulus: float
    argmin_t: float
    tail_bound: float | None = None
    lower_bound: float | None = None

    def __post_init__(self):
        if self.window_T <= 0 or self.grid_step <= 0:
            raise InputError("window and grid step must be positive")
        if self.min_modulus < 0:
            raise InputError("min_modulus must be nonnegative")


class CharFn:
    """Evaluator of t -> integral of exp(itx) dF(x) for a represented law.

    Density nodes, and atoms that fit a lattice a + b*k to rounding
    level with at most LATTICE_FILL_MAX coefficients per atom, are
    summed through a Taylor table (module docstring); other atoms
    through the dense exp(itx) product. All sums run in blocks of t
    under BLOCK_ENTRIES.
    """

    def __init__(self, law: Law):
        self.law = law
        self._w = law.discrete_weight
        self._locs = self._lattice = None
        if law.discrete is not None:
            self._locs = law.discrete.locations
            self._masses = law.discrete.masses
            self._lattice = _lattice_coeffs(law.discrete)
        if law.continuous is not None:
            d = law.continuous
            self._nodes = d.nodes
            self._h = d.grid_step
        else:
            self._nodes = None

    @cached_property
    def _atom_table(self) -> TaylorTable:
        return TaylorTable(*self._lattice)

    @property
    def is_lattice_table(self) -> bool:
        """A pure lattice law summed by the Taylor table, whose floor
        lattice_certificate reads."""
        return self._nodes is None and self._lattice is not None

    @property
    def _width(self) -> int:
        """Columns of one block's products: atoms on the dense path, M + 1
        per Taylor table."""
        width = 0
        if self._locs is not None:
            width += self._locs.size if self._lattice is None else self._atom_table.order + 1
        if self._nodes is not None:
            width += self.law.continuous.node_table.order + 1
        return width

    def _atom_sum(self, t: np.ndarray) -> np.ndarray:
        if self._lattice is None:
            return np.exp(1j * np.outer(t, self._locs)) @ self._masses
        return self._atom_table(t)

    def _node_sum(self, t: np.ndarray) -> np.ndarray:
        kernel = np.sinc(t * self._h / (2.0 * np.pi)) ** 2
        return kernel * self.law.continuous.node_table(t)

    def _mixed_sum(self, t: np.ndarray) -> np.ndarray:
        acc = np.zeros(t.shape, dtype=complex)
        if self._locs is not None:
            acc += self._w * self._atom_sum(t)
        if self._nodes is not None:
            acc += (1.0 - self._w) * self._node_sum(t)
        return acc

    def __call__(self, t):
        out = _blocked(np.atleast_1d(np.asarray(t, dtype=float)), self._mixed_sum, self._width)
        return out if np.ndim(t) else complex(out[0])

    def eval_grid(self, t0: float, dt: float, n: int) -> np.ndarray:
        """CF values on the uniform grid t0 + dt*arange(n), from the same
        tables as __call__."""
        return _blocked(t0 + dt * np.arange(n), self._mixed_sum, self._width)

    def allowance(self, T: float) -> float:
        """A bound on |self(t) - f(t)| at every |t| <= T, f the CF of the
        law with its atoms at their stored locations. With u = 2^-53 it
        adds, each part weighted by its share of the law:
          - for a Taylor table TaylorTable.allowance, and for lattice
            atoms T times their misfit (_lattice_misfit), as a move of d
            changes exp(itx) by at most |t|*d;
          - for dense atoms (n + 4 + T*max|x|) u times their mass: t*x
            rounds by |tx| u, exp adds 2u and the sum of n products n u;
          - for the nodes 24 u times their mass, for the sinc^2 factor:
            its argument's rounding moves sinc by at most 4u (|x sinc'(x)|
            <= 2), sin and the quotient add 4u, the square and the
            product the rest;
          - 4 u for weighting and adding the parts.
        """
        out = 4.0 * _U
        if self._locs is not None:
            if self._lattice is None:
                xmax = float(np.max(np.abs(self._locs)))
                part = (self._locs.size + 4.0 + T * xmax) * _U * float(np.sum(self._masses))
            else:
                part = self._atom_table.allowance(T) + T * _lattice_misfit(self.law.discrete)
            out += self._w * part
        if self._nodes is not None:
            d = self.law.continuous
            mass = d.grid_step * float(np.sum(d.samples))
            out += (1.0 - self._w) * (d.node_table.allowance(T) + 24.0 * _U * mass)
        return out


def _blocked(t: np.ndarray, part, width: int) -> np.ndarray:
    """part(block) over consecutive blocks of the 1-D array t, each of
    at most BLOCK_ENTRIES // width rows, so products with width columns
    stay within the budget."""
    rows = max(1, BLOCK_ENTRIES // width)
    out = np.empty(t.shape, dtype=complex)
    for lo in range(0, t.size, rows):
        out[lo:lo + rows] = part(t[lo:lo + rows])
    return out


def _lattice_coeffs(disc: DiscreteLaw) -> tuple[float, float, np.ndarray] | None:
    """(a, b, c) with the atom masses as dense coefficients c[k] of
    exp(it(a + bk)), or None when the atoms belong on the dense path:
    not a lattice, more than LATTICE_FILL_MAX terms per atom, or a fit
    off the locations by more than _LATTICE_FIT_ULPS ulps."""
    fit = disc.lattice_fit
    if fit is None:
        return None
    a, b, ks = fit
    if ks[-1] + 1 > LATTICE_FILL_MAX * ks.size:
        return None
    locs = disc.locations
    if np.max(np.abs(locs - (a + b * ks))) > _LATTICE_FIT_ULPS * np.spacing(np.max(np.abs(locs))):
        return None
    return a, b, np.bincount(ks, weights=disc.masses)


def parabolic_polish(fn, a, b, c, fa, fb, fc) -> tuple[np.ndarray, np.ndarray]:
    """Minima of fn in many brackets at once by parabolic interpolation.

    fn maps an array of abscissae to an array of nonnegative values (a
    modulus). Bracket k is a[k] < b[k] < c[k] with values fa[k], fb[k],
    fc[k] that the caller already holds; a bracket whose fb is not below
    both ends returns (b, fb) untouched. Each round makes one call on all
    brackets still open. It takes the vertex v of the parabola through
    the bracket's three points fitted to fn^2, which stays smooth where
    fn is V-shaped at a zero, or the middle of the bracket's longer side
    when the bracket did not halve in the last round (a flat minimum,
    such as a double zero, where fn^2 is far from a parabola). It clips
    v into the bracket and evaluates v - h, v, v + h with
    h = max(0.1 * min(|v - x_mid|, half-width), REFINE_XTOL * (|lo| + |hi|)),
    x_mid the bracket's best point. The least of the old and new points
    and its two neighbours form the next bracket. A bracket stops once h
    is at that floor or the new stencil is not convex in fn^2 beyond
    rounding. Returns the best abscissa and value per bracket, each value
    an actual evaluation of fn or the value passed in.
    """
    x = np.column_stack([np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c)])
    y = np.column_stack([np.atleast_1d(np.asarray(v, dtype=float)) for v in (fa, fb, fc)])
    live = np.nonzero((y[:, 1] < y[:, 0]) & (y[:, 1] < y[:, 2]))[0]
    width = np.full(x.shape[0], np.inf)
    # near a minimum the vertex error squares each round (a flat minimum
    # takes about 40 rounds); the cap only guards brackets shrinking
    # towards x = 0, where the floor is tiny
    for _ in range(100):
        if live.size == 0:
            break
        (x0, x1, x2), (g0, g1, g2) = x[live].T, (y[live] ** 2).T
        d0, d2 = x1 - x0, x2 - x1
        num = d0 * d0 * (g1 - g2) - d2 * d2 * (g1 - g0)
        den = d0 * (g1 - g2) + d2 * (g1 - g0)
        # den < 0 on a bracket unless the squares underflow to ties
        v = x1 - 0.5 * num / np.where(den < 0.0, den, -np.inf)
        slow = x2 - x0 > 0.5 * width[live]
        width[live] = x2 - x0
        v[slow] = np.where(d0 > d2, x1 - 0.5 * d0, x1 + 0.5 * d2)[slow]
        floor = config.REFINE_XTOL * (np.abs(x0) + np.abs(x2))
        half = 0.5 * (x2 - x0)
        h = np.maximum(0.1 * np.minimum(np.abs(np.clip(v, x0, x2) - x1), half), floor)
        room = h < half
        live, x0, x2, v, h, floor = (z[room] for z in (live, x0, x2, v, h, floor))
        v = np.clip(v, x0 + h, x2 - h)
        pts = np.column_stack((v - h, v, v + h))
        vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(-1, 3)
        allx = np.concatenate((x[live], pts), axis=1)
        ally = np.concatenate((y[live], vals), axis=1)
        order = np.argsort(allx, axis=1, kind="stable")
        allx = np.take_along_axis(allx, order, axis=1)
        ally = np.take_along_axis(ally, order, axis=1)
        k = np.clip(np.argmin(ally, axis=1), 1, 4)[:, None] + np.arange(-1, 2)
        x[live] = np.take_along_axis(allx, k, axis=1)
        y[live] = np.take_along_axis(ally, k, axis=1)
        # a stencil convex by less than a few ulps of fn^2 is rounding noise
        g = vals ** 2
        convex = g[:, 0] + g[:, 2] - 2.0 * g[:, 1] > 16.0 * np.finfo(float).eps * g[:, 1]
        live = live[(h > floor) & convex]
    return x[:, 1], y[:, 1]


def min_modulus_scan(f, T: float, step: float) -> ZeroFreeCertificate:
    """Scan |f| on the grid step*k, 0 <= k <= ceil(T/step), and polish
    the config.REFINE_TOP lowest local minima together by
    parabolic_polish (one call of f per round, from the grid moduli). f
    is a CharFn or any callable of an array of t with f(-t) = conj f(t),
    so the window is [-T, T]. The grid, refused past MAX_GRID_POINTS =
    1e9 points, is read in blocks of BLOCK_ENTRIES // 16 points, each
    with one neighbour on either side; ties go to the lower index. The
    certificate records the least modulus seen, grid or polished, and
    where: a sample, never above the grid minimum, and no proof.

    impossibility.inf_scan also passes s -> f(lo + s) to read the window
    [lo, lo + T] between two rungs. That f is not conjugate-symmetric,
    so the symmetric-window reading of the certificate does not apply;
    the caller reads only min_modulus and argmin_t.
    """
    n = grid_cells(T, step, MAX_GRID_POINTS, "scan grid")
    best_v, best_t = math.inf, 0.0
    # kept local minima: grid index and the moduli at k - 1, k, k + 1
    cand, near = np.empty(0, dtype=np.int64), np.empty((0, 3))
    rows = BLOCK_ENTRIES // 16
    for k0 in range(0, n + 1, rows):
        lo = max(k0 - 1, 0)
        ks = np.arange(lo, min(k0 + rows + 1, n + 1))
        mods = np.abs(f(step * ks))
        own = mods[k0 - lo:k0 - lo + rows]
        i = int(np.argmin(own))
        if own[i] < best_v:
            best_v, best_t = float(own[i]), float(step * ks[k0 - lo + i])
        a, b = max(1, k0) - lo, min(k0 + rows, n) - lo
        mid = mods[a:b]
        j = a + np.flatnonzero((mid <= mods[a - 1:b - 1]) & (mid <= mods[a + 1:b + 1]))
        cand = np.concatenate((cand, ks[j]))
        near = np.concatenate((near, np.column_stack((mods[j - 1], mods[j], mods[j + 1]))))
        top = np.argsort(near[:, 1], kind="stable")[:config.REFINE_TOP]
        cand, near = cand[top], near[top]
    if cand.size:
        t_r, v_r = parabolic_polish(lambda t: np.abs(f(t)), step * (cand - 1), step * cand,
                                    step * (cand + 1), *near.T)
        k = int(np.argmin(v_r))
        if v_r[k] < best_v:
            best_t, best_v = float(t_r[k]), float(v_r[k])
    return ZeroFreeCertificate(window_T=float(n * step), grid_step=step,
                               min_modulus=best_v, argmin_t=best_t)


def _lattice_misfit(disc: DiscreteLaw) -> float:
    """Largest distance of an atom from its point a + b*k of lattice_fit,
    which the Taylor table sums, plus two ulps of the largest of
    |location| and b*k for the rounding of a + b*k."""
    a, b, ks = disc.lattice_fit
    locs = disc.locations
    scale = max(float(np.max(np.abs(locs))), b * float(ks[-1]))
    return float(np.max(np.abs(locs - (a + b * ks)))) + 2.0 * float(np.spacing(scale))


def lattice_certificate(f: CharFn) -> ZeroFreeCertificate:
    """Proven certificate of a pure lattice law on a + b*Z. Off the
    Taylor table it is chord_certificate over [0, pi/b], rounded up to
    the grid, at step pi/(8*width), width the support width: |f| is even
    and 2*pi/b-periodic, so half a period covers all of it. On the table
    it is TaylorTable.floor, subdividing cells bounded at or below
    config.CERTIFICATE_FLOOR: window 2*pi/b, one period of |f|, and
    step 2*pi/(b*N) over the table's N nodes; min_modulus is the least
    modulus evaluated there, argmin_t its |t| folded into [0, pi/b]. The
    table sums the masses at a + b*k, within _LATTICE_FIT_ULPS of the
    atoms, and a misfit of d moves |f| by at most |t|*d, so window_T
    times _lattice_misfit comes off lower_bound. A point mass (b = 0)
    has |f| = 1 everywhere and takes the window of b = 1.
    """
    if not f.is_lattice_table:
        disc = f.law.discrete
        if not f.law.is_pure_discrete or disc.locations.size < 2:
            raise LawShapeError("lattice_certificate needs a pure lattice law")
        step = math.pi / (8.0 * float(disc.locations[-1] - disc.locations[0]))
        n = grid_cells(math.pi / disc.lattice_params()[1], step, MAX_GRID_POINTS, "chord grid") + 1
        return chord_certificate(f, step, n, f.law, f.allowance(step * (n - 1)))
    b = f._lattice[1]
    table = f._atom_table
    lower, least, theta = table.floor(config.CERTIFICATE_FLOOR)
    span = b if b > 0 else 1.0
    window = 2.0 * math.pi / span
    return ZeroFreeCertificate(window_T=window, grid_step=window / table.n_fft,
                               min_modulus=least,
                               argmin_t=min(theta, 2.0 * math.pi - theta) / span,
                               lower_bound=lower - window * _lattice_misfit(f.law.discrete))


def _centred_moments(law: Law) -> tuple[float, float]:
    """(mu, V): the mean mu of the law and its second moment V about mu,
    the sum of m*(x - mu)^2 over the atoms plus, for each density node
    x_i, the weight h*s_i of its hat times (x_i - mu)^2 + h^2/6, h^2/6
    being the variance of a hat of half-width h. V is raised by
    (2n + 8) u for the rounding of its n terms."""
    w = law.discrete_weight
    xs, ms, hats = [], [], 0.0
    if law.discrete is not None:
        xs.append(law.discrete.locations)
        ms.append(w * law.discrete.masses)
    if law.continuous is not None:
        d = law.continuous
        xs.append(d.nodes)
        ms.append((1.0 - w) * d.grid_step * d.samples)
        hats = float(np.sum(ms[-1])) * d.grid_step ** 2 / 6.0
    x, m = np.concatenate(xs), np.concatenate(ms)
    mu = float(m @ x) / float(np.sum(m))
    V = (float(m @ (x - mu) ** 2) + hats) * (1.0 + (2.0 * x.size + 8.0) * _U)
    return mu, V


def chord_certificate(fn, step: float, n: int, law: Law, allowance: float, values=None,
                      tail_bound: float | None = None) -> ZeroFreeCertificate:
    """Proven certificate of |f| over |t| <= T = step*(n - 1), f the CF
    of law, from f computed at the n points t_k = step*k: values(lo, hi)
    returns those with lo <= k < hi (by default fn on them), and fn
    computes f at any array of t; allowance bounds the error of both at
    every |t| <= T (CharFn.allowance).

    With mu the mean of the law and V its second moment about mu
    (_centred_moments), g(t) = e^{-it*mu} f(t) has |g''| <= V, so on a
    cell of width h, g stays within (h^2/8) V of the chord between its
    end values, and there

        |f| >= dist(0, chord) - (h^2/8) V - R,

    R being the allowance plus (|mu|*T + 16) u for the rotation by
    e^{-it*mu} and the arithmetic of the bound. The grid is read in
    blocks of BLOCK_ENTRIES // 16 cells. Cells bounded at or below
    config.CERTIFICATE_FLOOR are bisected, one call of fn per level for
    all of them, for up to 3*FLOOR_LEVELS levels, the refinement
    8^FLOOR_LEVELS of TaylorTable.floor. More than max(64, (n - 1)/8)
    open cells stop the subdivision, as there, and lower_bound then
    stays at or below the floor. min_modulus is the least |f| computed
    and argmin_t where; as f(-t) = conj f(t), the window is [-T, T].
    """
    if n < 2:
        raise InputError("a chord certificate needs two or more grid points")
    if values is None:
        values = lambda lo, hi: fn(step * np.arange(lo, hi))
    mu, V = _centred_moments(law)
    T = step * (n - 1)
    slack = allowance + (abs(mu) * T + 16.0) * _U
    cap = max(64, (n - 1) // 8)
    floor = config.CERTIFICATE_FLOOR

    lower, least, at = math.inf, math.inf, 0.0

    def rotated(t, v):
        nonlocal least, at
        m = np.abs(v)
        k = int(np.argmin(m))
        if m[k] < least:
            least, at = float(m[k]), float(t[k])
        return v * np.exp(-1j * mu * t)

    def bounds(lo, hi, g_lo, g_hi):
        return (_cell_bounds(np.array([0.5 * (g_lo + g_hi), 0.5 * (g_hi - g_lo)]))
                - 0.125 * V * (hi - lo) ** 2 - slack)

    cells, n_open = [], 0
    rows = BLOCK_ENTRIES // 16
    for k0 in range(0, n - 1, rows):
        t = step * np.arange(k0, min(n, k0 + rows + 1))
        g = rotated(t, values(k0, k0 + t.size))
        b = bounds(t[:-1], t[1:], g[:-1], g[1:])
        shut = b > floor
        lower = min(lower, float(b[shut].min(initial=math.inf)))
        n_open += int(shut.size - np.count_nonzero(shut))
        if n_open > cap:
            # too many to subdivide: lower takes them as they are
            lower = min(lower, float(b.min()))
            shut[:] = True
        cells.append(tuple(z[~shut] for z in (t[:-1], t[1:], g[:-1], g[1:], b)))
    lo, hi, g_lo, g_hi, b = (np.concatenate(z) for z in zip(*cells))
    for _ in range(3 * FLOOR_LEVELS if n_open <= cap else 0):
        if b.size == 0 or b.size > cap:
            break
        mid = 0.5 * (lo + hi)
        g_mid = rotated(mid, np.asarray(fn(mid)))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        g_lo, g_hi = np.concatenate((g_lo, g_mid)), np.concatenate((g_mid, g_hi))
        b = bounds(lo, hi, g_lo, g_hi)
        shut = b > floor
        lower = min(lower, float(b[shut].min(initial=math.inf)))
        lo, hi, g_lo, g_hi, b = (z[~shut] for z in (lo, hi, g_lo, g_hi, b))
    if b.size:
        lower = min(lower, float(b.min()))
    return ZeroFreeCertificate(window_T=T, grid_step=step, min_modulus=least, argmin_t=at,
                               tail_bound=tail_bound, lower_bound=lower)


def decay_window(f: CharFn, threshold: float) -> float:
    """T* = min(V/threshold, sqrt(J/threshold)), beyond which the
    continuous-part CF (own mass 1) has modulus below threshold.

    The piecewise-linear density p with samples s_i, zero at both grid
    ends, has total variation V = sum |s_{i+1} - s_i|, and p' has jumps
    summing in modulus to J = sum |s_{i+1} - 2 s_i + s_{i-1}| / h (the
    ends padded with zeros). Integrating by parts once and twice gives
    |phi_c(t)| <= V/|t| and <= J/t^2 at every real t, so the window is
    a proof for all |t| > T*, read from the samples alone.
    """
    if threshold <= 0:
        raise InputError("threshold must be positive")
    d = f.law.continuous
    if d is None:
        raise LawShapeError("decay_window needs a density part")
    V = float(np.sum(np.abs(np.diff(d.samples))))
    J = float(np.sum(np.abs(np.diff(d.samples, n=2, prepend=0.0, append=0.0)))) / d.grid_step
    return min(V / threshold, math.sqrt(J / threshold))


def bracket_roots(fn, a, b, fa, fb) -> np.ndarray:
    """Roots of fn in many brackets at once by Chandrupatla's method.

    fn maps an array of abscissae to an array of values. Bracket k is
    [a[k], b[k]] with fa[k], fb[k] nonzero and of opposite signs; only
    their signs must be right, the magnitudes steer interpolation. Each
    step makes one call on all brackets still open, at the point a
    fraction t of the way from the newest point to the other end: t is
    the secant of fa, fb on the first step, then the inverse-quadratic
    interpolate through the last three points where that stays well
    inside the bracket (Chandrupatla 1997, Adv. Eng. Softw. 28(3)),
    else 1/2, clipped to [tl, 1 - tl] with
    tl = REFINE_XTOL / (2 * width) so that every step moves at least
    REFINE_XTOL / 2. A bracket closes when fn is exactly 0 at the new
    point or its width drops below config.REFINE_XTOL (at most 80
    steps). Returns the midpoint of each final bracket.
    """
    x1, x2 = np.array(a, dtype=float), np.array(b, dtype=float)
    f1, f2 = np.array(fa, dtype=float), np.array(fb, dtype=float)
    # the third point is set by the first (secant) step before any use
    x3, f3 = x2.copy(), f2.copy()
    tl = 0.5 * config.REFINE_XTOL / (x2 - x1)
    t = np.clip(f1 / (f1 - f2), tl, 1.0 - tl)
    live = np.arange(x1.size)
    for _ in range(80):
        if live.size == 0:
            break
        xt = x1[live] + t[live] * (x2[live] - x1[live])
        ft = np.asarray(fn(xt))
        # the new point replaces x1 when it has x1's sign; otherwise x1
        # becomes the far end. x3 keeps the point that drops out.
        same = np.sign(ft) == np.sign(f1[live])
        x3[live] = np.where(same, x1[live], x2[live])
        f3[live] = np.where(same, f1[live], f2[live])
        x2[live] = np.where(same, x2[live], x1[live])
        f2[live] = np.where(same, f2[live], f1[live])
        x1[live], f1[live] = xt, ft
        w = np.abs(x2[live] - x1[live])
        hit = ft == 0.0
        x2[live[hit]] = xt[hit]
        done = hit | (w < config.REFINE_XTOL)
        live, w = live[~done], w[~done]
        xi = (x1[live] - x2[live]) / (x3[live] - x2[live])
        phi = (f1[live] - f2[live]) / (f3[live] - f2[live])
        iqi = (phi ** 2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t[live] = 0.5
        j = live[iqi]
        t[j] = (f1[j] / (f2[j] - f1[j]) * f3[j] / (f2[j] - f3[j])
                + (x3[j] - x1[j]) / (x2[j] - x1[j]) * f1[j] / (f3[j] - f1[j]) * f2[j] / (f3[j] - f2[j]))
        tl = 0.5 * config.REFINE_XTOL / w
        t[live] = np.clip(t[live], tl, 1.0 - tl)
    return 0.5 * (x1 + x2)


def imag_zero_scan(f0: CharFn, gamma0: float, T: float, step: float,
                   values: np.ndarray | None = None,
                   re_window: tuple[float, float] | None = None) -> list[float]:
    """Refined roots of Im(f0(t) e^{-it*gamma0}) in [-T, T].

    values, when given, holds f0 on step*arange(m) for some
    m >= ceil(T/step) + 1, as eval_grid computes it, and stands in for
    the grid evaluation.

    The function is odd, as f0(-t) = conj f0(t), so the grid runs over
    [0, T] and the roots found there are returned with their negatives,
    exactly symmetric. Grid values at rounding level count as roots;
    sign changes on the grid are polished by bracket_roots, all brackets
    together, with the end signs taken from the grid values that opened
    each bracket (a pointwise value at a root on a grid node may disagree
    in sign). A polished root is kept when |Im| there is within 1e-7 of
    the grid scale. Raises IdenticallyZeroImagError when the imaginary
    part vanishes on the whole grid (recentered symmetric law), since
    every t would be a root.

    re_window = (lo, hi), when given, drops before the polish every
    bracket on which Re f1, f1(t) = f0(t) e^{-it*gamma0}, provably stays
    at or below lo or at or above hi: |d^2/dt^2 Re f1| <= E(X - gamma0)^2
    = V + (mu - gamma0)^2 (_centred_moments), so on a cell of width step
    Re f1, exact or computed, stays within
    (step^2/8)(V + (mu - gamma0)^2) + 2 (f0.allowance(T') + (|gamma0| T' + 16) u)
    of the chord of its computed end values, T' the last grid point.
    Roots on grid nodes are kept whatever their Re f1.
    """
    n = grid_cells(T, step, 4 * BLOCK_ENTRIES, "root-scan grid")
    g = lambda t: np.imag(f0(t) * np.exp(-1j * gamma0 * t))
    ts = step * np.arange(n + 1)
    if values is None:
        values = f0.eval_grid(0.0, step, n + 1)
    elif values.size < n + 1:
        raise InputError(f"{values.size} grid values do not cover {n + 1} scan points")
    f1 = values[:n + 1] * np.exp(-1j * gamma0 * ts)
    vals = f1.imag
    scale = float(np.max(np.abs(vals)))
    if scale < 1e-12:
        raise IdenticallyZeroImagError(
            "imaginary part is identically zero on the scan grid")
    # grid values at float-noise level are roots themselves and must not
    # seed sign-change brackets (their sign is meaningless)
    zero_tol = 1e-12 * scale
    sign = np.sign(vals)
    sign[np.abs(vals) <= zero_tol] = 0
    roots = ts[sign == 0].tolist()
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if re_window is not None and idx.size:
        mu, V = _centred_moments(f0.law)
        t_end = float(ts[-1])
        e = (0.125 * step * step * (V + (mu - gamma0) ** 2)
             + 2.0 * (f0.allowance(t_end) + (abs(gamma0) * t_end + 16.0) * _U))
        re = f1.real
        lo, hi = np.minimum(re[idx], re[idx + 1]) - e, np.maximum(re[idx], re[idx + 1]) + e
        idx = idx[(hi > re_window[0]) & (lo < re_window[1])]
    if idx.size:
        r = bracket_roots(g, ts[idx], ts[idx + 1], vals[idx], vals[idx + 1])
        roots.extend(r[np.abs(g(r)) <= 1e-7 * scale].tolist())
    half = _merge_close(roots)
    return [-r for r in reversed(half) if r > 0.0] + half


def _merge_close(values, tol: float = max(10 * config.REFINE_XTOL, 1e-12)) -> list[float]:
    """values sorted, each dropped within tol of the last one kept."""
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def _track_branch(c: np.ndarray, n: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Values of the lattice polynomial P(theta) = sum_k c_k e^{ik*theta},
    c_k >= 0, at the nodes theta_j = 2*pi*j/n of one period (one inverse
    FFT), with the increments log(P(theta_{j+1}) / P(theta_j)) of its
    log branch, the last one closing the cycle back to theta_0.

    n doubles from the value given until the floor is proved: between
    nodes |P| drops by at most (pi/n) * sum_k |k - kbar| c_k (kbar the
    mean index), so the grid minimum less that slack must clear floor,
    and every increment must be below pi/2, which pins the branch. A
    node at or below floor, or n past BLOCK_ENTRIES, raises
    SpectralExtractionError; t in its message is in periods 2*pi/b of
    the lattice span b.
    """
    ks = np.arange(c.size)
    slack = math.pi * float(np.abs(ks - ks @ c / c.sum()) @ c)
    while True:
        if n > BLOCK_ENTRIES:
            raise SpectralExtractionError(
                f"not extractable: floor {floor:.3e} unproved on {BLOCK_ENTRIES} nodes")
        vals = n * np.fft.ifft(c, n)
        mods = np.abs(vals)
        j = int(np.argmin(mods))
        if mods[j] <= floor:
            raise SpectralExtractionError(
                f"not extractable: CF modulus falls to {mods[j]:.3e} near t={j / n:.6g}*2pi/b")
        if mods[j] - slack / n > floor:
            steps_log = np.log(np.roll(vals, -1) / vals)
            if float(np.max(np.abs(steps_log))) < 0.5 * math.pi:
                return vals, steps_log
        n *= 2
