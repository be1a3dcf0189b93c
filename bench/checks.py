"""Independent checks of qidlab outputs, written with numpy alone.

Nothing here calls qidlab: laws arrive as plain dicts in the qidlab
JSON layout, and every quantity is recomputed from its definition.
Each check raises CheckError with a message when an output is wrong.
"""

from __future__ import annotations

import math

import numpy as np

# Largest block of t points x support points evaluated at once.
_BLOCK = 1 << 21
# |cf| at or below this is a zero up to float rounding of the sums.
ZERO_TOL = 1e-12


class CheckError(Exception):
    """An output failed an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Laws as plain arrays


def parts(law: dict):
    """(w, locs, masses, density) with density = (nodes, samples, step) or None."""
    w = float(law["discrete_weight"])
    atoms = law.get("atoms") or []
    locs = np.array([float(x) for x, _ in atoms])
    masses = np.array([float(m) for _, m in atoms])
    dens = None
    if law.get("density") is not None:
        d = law["density"]
        samples = np.asarray(d["samples"], dtype=float)
        nodes = float(d["origin"]) + float(d["step"]) * np.arange(samples.size)
        dens = (nodes, samples, float(d["step"]))
    return w, locs, masses, dens


def _sum_exp(ts: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """sum_j ws[j] e^{i t xs[j]} for every t, in blocks of bounded size."""
    out = np.empty(ts.size, dtype=complex)
    rows = max(1, _BLOCK // max(1, xs.size))
    for lo in range(0, ts.size, rows):
        out[lo:lo + rows] = np.exp(1j * ts[lo:lo + rows, None] * xs[None, :]) @ ws
    return out


def _sum_exp_grid(ts: np.ndarray, x0: float, h: float, ws: np.ndarray) -> np.ndarray:
    """The same sum for nodes x0 + j h, with j = B q + m and
    e^{it x_j} = e^{it (x0 + B q h)} e^{it m h}: about sqrt(n) exponentials
    per t instead of n."""
    B = math.isqrt(ws.size - 1) + 1
    nb = -(-ws.size // B)
    W = np.zeros(nb * B)
    W[:ws.size] = ws
    W = W.reshape(nb, B)
    inner_x, outer_x = h * np.arange(B), x0 + h * B * np.arange(nb)
    out = np.empty(ts.size, dtype=complex)
    rows = max(1, _BLOCK // (B + nb))
    for lo in range(0, ts.size, rows):
        tb = ts[lo:lo + rows, None]
        out[lo:lo + rows] = np.sum((np.exp(1j * tb * inner_x) @ W.T) * np.exp(1j * tb * outer_x),
                                   axis=1)
    return out


def cf_direct(law: dict, ts) -> np.ndarray:
    """CF by direct sums: atoms sum m e^{itx}; a piecewise-linear density
    is a sum of hat functions, each with transform h e^{itx} sinc^2(th/2)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    w, locs, masses, dens = parts(law)
    out = np.zeros(ts.size, dtype=complex)
    if w > 0.0 and locs.size:
        out += w * _sum_exp(ts, locs, masses)
    if w < 1.0 and dens is not None:
        nodes, samples, h = dens
        out += (1.0 - w) * np.sinc(ts * h / (2.0 * math.pi)) ** 2 * _sum_exp_grid(
            ts, nodes[0], h, h * samples)
    return out


def _atom_tv(l1: dict, l2: dict) -> float:
    w1, x1, m1, _ = parts(l1)
    w2, x2, m2, _ = parts(l2)
    xs = np.concatenate((x1, x2))
    ms = np.concatenate((w1 * m1, -w2 * m2))
    if xs.size == 0:
        return 0.0
    order = np.argsort(xs, kind="stable")
    xs, ms = xs[order], ms[order]
    scale = max(1.0, float(np.max(np.abs(xs))))
    starts = np.concatenate(([True], np.diff(xs) > 1e-12 * scale))
    return float(np.sum(np.abs(np.add.reduceat(ms, np.nonzero(starts)[0]))))


def _density_l1(l1: dict, l2: dict, refine: int = 4) -> float:
    """L1 norm of the difference of the weighted density parts on the
    union of both grids, each cell cut into `refine` pieces."""
    w1, _, _, d1 = parts(l1)
    w2, _, _, d2 = parts(l2)
    grids = [d[0] for d in (d1, d2) if d is not None]
    if not grids:
        return 0.0
    knots = np.unique(np.concatenate(grids))
    frac = np.arange(refine) / refine
    xs = np.concatenate(((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(),
                         knots[-1:]))
    diff = np.zeros(xs.size)
    for w, d, sign in ((w1, d1, 1.0), (w2, d2, -1.0)):
        if d is not None:
            diff += sign * (1.0 - w) * np.interp(xs, d[0], d[1], left=0.0, right=0.0)
    a = np.abs(diff)
    return float(np.sum(0.5 * np.diff(xs) * (a[:-1] + a[1:])))


def tv(l1: dict, l2: dict) -> float:
    """Total variation as the sum of atom-mass differences plus the L1
    norm of the density difference."""
    return _atom_tv(l1, l2) + _density_l1(l1, l2)


# ---------------------------------------------------------------------------
# Approximation results


def check_tv(target: dict, approximant: dict, tv_value: float, claimed: float,
             error_bound: float) -> float:
    """Recompute TV(target, approximant); it must match the reported
    value and stay under the claimed bound. Returns the recomputed TV."""
    ours = tv(target, approximant)
    pure_atoms = parts(target)[3] is None and parts(approximant)[3] is None
    tol = 1e-12 if pure_atoms else 1e-6 + 1e-3 * ours
    _require(abs(ours - tv_value) <= tol + error_bound,
             f"tv recomputed {ours!r} differs from reported {tv_value!r}")
    _require(ours <= claimed + error_bound + tol,
             f"tv {ours!r} exceeds the claimed bound {claimed!r}")
    return ours


def cf_min(law: dict, window: float, points: int) -> float:
    """min |cf| over `points` + 1 uniform points of [0, window]; the CF of
    a real law is Hermitian, so this covers [-window, window]."""
    ts = np.linspace(0.0, window, points + 1)
    return float(np.min(np.abs(cf_direct(law, ts))))


def check_certificate(law: dict, window: float, points: int) -> float:
    """|cf| of the returned law, summed directly over the certificate's
    window, must stay above float rounding. Returns the independent
    minimum."""
    _require(window > 0, f"certificate window {window!r} is not positive")
    m = cf_min(law, window, points)
    _require(m > ZERO_TOL, f"|cf| reaches {m!r} inside the certificate window")
    return m


def lattice_of(law: dict) -> tuple[float, float]:
    """(a, b) with every atom on a + bZ, b the smallest gap."""
    _, locs, _, dens = parts(law)
    _require(dens is None and locs.size >= 2, "not a lattice law with two or more atoms")
    locs = np.sort(locs)
    a, b = float(locs[0]), float(np.min(np.diff(locs)))
    k = (locs - a) / b
    _require(bool(np.all(np.abs(k - np.round(k)) < 1e-6)), "atoms are not on one lattice")
    return a, b


def check_spectral(law: dict, gamma: float, lattice_b: float,
                   atoms: list, residual: float, K: int) -> float:
    """Recompute sup |f - exp(i gamma t + sum lambda_k (e^{itbk} - 1))| on
    a grid twice as fine as qidlab's, and require gamma on the lattice.
    Returns the recomputed residual."""
    a, b = lattice_of(law)
    _require(abs(lattice_b - b) <= 1e-9 * b, f"pair span {lattice_b!r} is not the lattice span {b!r}")
    k = (gamma - a) / b
    _require(abs(k - round(k)) < 1e-6, f"drift {gamma!r} is off the lattice {a!r} + {b!r}Z")
    _require(all(int(j) != 0 and abs(int(j)) <= K for j, _ in atoms), "pair index outside 1..K")
    n_nodes = max(256, 8 * K)
    ts = np.linspace(0.0, 2.0 * math.pi / b, 8 * n_nodes + 1)
    expo = 1j * gamma * ts
    for j, lam in atoms:
        expo = expo + float(lam) * (np.exp(1j * ts * b * int(j)) - 1.0)
    ours = float(np.max(np.abs(cf_direct(law, ts) - np.exp(expo))))
    _require(ours >= residual - 1e-9 and ours <= 1.5 * residual + 1e-9,
             f"residual recomputed {ours!r} disagrees with reported {residual!r}")
    return ours


# ---------------------------------------------------------------------------
# Impossibility scans


def three_point(alpha: float, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    return (np.exp(1j * ts) + np.exp(1j * alpha * ts) + np.exp(1j * (1.0 + alpha) * ts)) / 3.0


def _grid_min(alpha: float, ts: np.ndarray) -> float:
    return float(np.min(np.abs(three_point(alpha, ts))))


def check_inf_scan(alpha: float, step: float, minima: list, irrational: bool,
                   floor: float | None = None, floor_tol: float = 1e-9) -> None:
    """Window minima (T, min, argmin): each re-evaluated at its argmin;
    the first rung against a brute-force minimum at the same step (no
    higher, and no lower than the derivative allows); minima sink for
    irrational alpha and never pass below the one-period floor for
    rational alpha."""
    _require(len(minima) >= 2, "need at least two rungs")
    slope = 2.0 * (1.0 + abs(alpha)) / 3.0      # sup |f'| <= sum of m|x|
    prev = math.inf
    for T, m, t in minima:
        _require(0.0 <= t <= T + step, f"argmin {t!r} outside [0, {T!r}]")
        v = float(abs(three_point(alpha, t)))
        _require(abs(v - m) <= 1e-12, f"|f({t!r})| = {v!r}, reported {m!r}")
        _require(m <= prev + 1e-15, "window minima increase")
        prev = m
    T1, m1, _ = minima[0]
    brute = _grid_min(alpha, step * np.arange(int(math.floor(T1 / step)) + 1))
    _require(m1 <= brute + 1e-12, f"first rung {m1!r} above the grid minimum {brute!r}")
    _require(m1 >= brute - 0.5 * step * slope - 1e-12,
             f"first rung {m1!r} below what the grid minimum {brute!r} allows")
    if irrational:
        _require(minima[-1][1] < minima[0][1], "minimum does not sink for irrational alpha")
    if floor is not None:
        for T, m, _ in minima:
            _require(m >= floor - floor_tol, f"rung T={T!r} falls to {m!r} below the floor {floor!r}")


def check_floor(p: int, q: int, step: float, floor: float, argmin: float | None = None,
                tol: float = 1e-12) -> None:
    """One-period floor of a rational alpha = p/q: re-evaluated at its
    argmin when given, no higher than the brute-force minimum over one
    period and no lower than the derivative allows; strictly positive.
    `tol` covers the rounding of a printed floor."""
    alpha = p / q
    period = 2.0 * math.pi * q
    n = int(math.ceil(period / step))
    if argmin is not None:
        v = float(abs(three_point(alpha, argmin)))
        _require(abs(v - floor) <= tol, f"|f({argmin!r})| = {v!r}, reported floor {floor!r}")
    brute = _grid_min(alpha, period * np.arange(n + 1) / n)
    slope = 2.0 * (1.0 + alpha) / 3.0
    _require(floor <= brute + tol, f"floor {floor!r} above the grid minimum {brute!r}")
    _require(floor >= brute - 0.5 * (period / n) * slope - tol,
             f"floor {floor!r} below what the grid minimum {brute!r} allows")
    _require(floor > 0.0, "rational floor is not positive")


KUTLU_ZEROS = ((2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0),
               (-2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0))


def check_kutlu(zeros: list) -> None:
    """The zeros in [-pi, pi]^2 are exactly +-(2pi/3, -2pi/3), to 1e-6."""
    _require(len(zeros) == 2, f"expected 2 zeros, got {len(zeros)}")
    for z in KUTLU_ZEROS:
        _require(any(abs(z[0] - a) <= 1e-6 and abs(z[1] - b) <= 1e-6 for a, b in zeros),
                 f"no reported zero within 1e-6 of {z}")
