"""Seeded workload inputs, built with numpy alone.

Laws are plain dicts in the qidlab JSON layout
(``{"discrete_weight": w, "atoms": [[x, m], ...], "density":
{"origin": o, "step": h, "samples": [...]}}``), so the same inputs feed
the in-process workloads, the CLI files and the independent checks.
Every job of one workload comes from one size band: shapes come from a
fixed design stream, and the seed moves placement (offsets, spans,
translations) and picks the constant and the rational of the CLI scans,
never the atom count or the grid size.
"""

from __future__ import annotations

import math

import numpy as np

ROUND = 10          # jobs per round; every run does whole rounds
LATTICE_ATOMS = 160
DENSITY_CELLS = 256
EPS = 0.05
DESIGN_SEED = 20251028
INF_STEP = 0.01
NAMED_ALPHAS = {
    "sqrt2": math.sqrt(2.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
    "e": math.e,
}


def _normalised(masses: np.ndarray) -> np.ndarray:
    # twice: the second pass takes the sum to 1 within rounding
    masses = masses / math.fsum(masses)
    return masses / math.fsum(masses)


def lattice_law(shape: np.random.Generator, place: np.random.Generator,
                n: int = LATTICE_ATOMS) -> dict:
    """Lattice law on a + bZ: a heavy atom (mass 0.7) in the middle of a
    smoothed random profile.

    The heavy atom keeps |cf| >= 0.4, so the CF of every approximant
    stays far from zero; general lattice laws of this size make
    ``lattice_spectral_pair`` fail on some seeds (see README.md).
    ``shape`` draws the profile, ``place`` the lattice offset and span
    and a relative mass jitter of 1e-3.
    """
    prof = np.convolve(shape.gamma(2.0, size=n), np.ones(9) / 9.0, mode="same") + 0.05
    prof *= 1.0 + 1e-3 * place.uniform(-1.0, 1.0, n)
    masses = 0.3 * prof / prof.sum()
    masses[n // 2] += 0.7
    masses = _normalised(masses)
    a = float(place.uniform(-1.0, 1.0))
    b = float(place.uniform(0.5, 2.0))
    return {"discrete_weight": 1.0,
            "atoms": [[a + b * k, float(m)] for k, m in enumerate(masses)]}


def _density(lo: float, hi: float, fn, cells: int) -> dict:
    """Samples of fn on [lo, hi] with one zero node padded on each side,
    scaled to unit trapezoid mass (the qidlab grid convention)."""
    step = (hi - lo) / cells
    xs = lo + step * np.arange(cells + 1)
    samples = np.concatenate(([0.0], np.maximum(fn(xs), 0.0), [0.0]))
    samples = samples / (step * samples.sum())
    return {"origin": lo - step, "step": step, "samples": samples.tolist()}


def density(shape: np.random.Generator, place: np.random.Generator, kind: str,
            cells: int = DENSITY_CELLS) -> dict:
    """Density part: uniform, truncated normal or a mixture of bumps.
    ``shape`` draws the width and the shape, ``place`` only translates."""
    width = float(shape.uniform(0.8, 1.2))
    lo = float(place.uniform(-1.0, 1.0))
    hi = lo + width
    if kind == "uniform":
        fn = np.ones_like
    elif kind == "tnormal":
        mu = lo + width * float(shape.uniform(0.3, 0.7))
        sd = width * float(shape.uniform(0.2, 0.35))
        fn = lambda x: np.exp(-0.5 * ((x - mu) / sd) ** 2)
    elif kind == "bumps":
        centres = lo + width * shape.uniform(0.15, 0.85, 3)
        widths = width * shape.uniform(0.06, 0.15, 3)
        heights = shape.uniform(0.5, 1.5, 3)
        fn = lambda x: 0.05 + sum(h * np.exp(-0.5 * ((x - c) / w) ** 2)
                                  for c, w, h in zip(centres, widths, heights))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    return _density(lo, hi, fn, cells)


def density_law(shape: np.random.Generator, place: np.random.Generator, kind: str) -> dict:
    return {"discrete_weight": 0.0, "density": density(shape, place, kind)}


def mixture_law(shape: np.random.Generator, place: np.random.Generator,
                case: str, kind: str) -> dict:
    """Mixture whose discrete part selects a case of approximate_mixture:
    '1a' one atom off the support centre, '1b' one atom exactly at the
    centre of the density support, '2' a lattice of four atoms."""
    dens = density(shape, place, kind)
    h, o, n = dens["step"], dens["origin"], len(dens["samples"])
    first, last = o + h, o + h * (n - 2)      # outermost positive nodes
    weight = float(shape.uniform(0.2, 0.4))
    if case == "1a":
        atoms = [[first + (last - first) * float(shape.uniform(0.1, 0.35)), 1.0]]
    elif case == "1b":
        if (n - 1) % 2:
            raise ValueError("case 1b needs an even number of grid cells")
        atoms = [[o + h * ((n - 1) // 2), 1.0]]
    elif case == "2":
        b = float(shape.uniform(0.2, 0.4))
        start = first + (last - first) * float(shape.uniform(0.0, 0.3))
        masses = _normalised(np.array([0.7, 0.1, 0.1, 0.1]))
        atoms = [[start + b * k, float(m)] for k, m in enumerate(masses)]
    else:
        raise ValueError(f"unknown mixture case {case!r}")
    return {"discrete_weight": weight, "atoms": atoms, "density": dens}


_PRIMES = [p for p in range(151, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def rational(rng: np.random.Generator) -> tuple[int, int]:
    """p/q in (1, 2) with a seeded prime denominator in [151, 400) and
    3 not dividing p + q.

    When 3 divides p + q, the line (t, pt/q) meets the zero
    (2pi/3, -2pi/3) of phi mod 2pi at t = 2pi q j/3 for some j in {1, 2},
    so the three-point CF has real zeros and no positive floor to show.
    """
    q = int(rng.choice(_PRIMES))
    while True:
        p = int(rng.integers(q + 1, 2 * q))
        if (p + q) % 3:
            return p, q


# ---------------------------------------------------------------------------
# One round of jobs per workload: a list of (kind, payload) pairs.


def _slot_rngs(seed: int, workload: int, slot: int):
    """Shape and placement generators of one job slot. Shapes come from
    a fixed design stream, so every seed runs the same mix of shapes and
    the run median does not follow the seed; the seed moves placement."""
    return (np.random.default_rng([DESIGN_SEED, workload, slot]),
            np.random.default_rng([seed, workload, slot]))


def lattice_round(seed: int) -> list[tuple[str, dict]]:
    return [("lattice", lattice_law(*_slot_rngs(seed, 1, i))) for i in range(ROUND)]


_KINDS = ("uniform", "tnormal", "bumps")
_CASES = ("1a", "1b", "2")


def density_round(seed: int) -> list[tuple[str, dict]]:
    """Job i smooths one density on both sides and approximates the
    three mixture cases built on the same kind of density; kinds rotate
    over the round."""
    jobs = []
    for i in range(ROUND):
        kind = _KINDS[i % 3]
        shape, place = _slot_rngs(seed, 2, i)
        jobs.append(("density", {
            "kind": kind, "law": density_law(shape, place, kind),
            "mixtures": [mixture_law(shape, place, case, kind) for case in _CASES]}))
    return jobs


def cli_round(seed: int) -> list[tuple[str, dict]]:
    """Ten CLI invocations on small inputs. "argv" names input files by
    their key in "inputs" ({in}, {in2}) and the output file as {out}."""
    lat = lattice_law(*_slot_rngs(seed, 4, 0), n=12)
    dens = density_law(*_slot_rngs(seed, 4, 1), "tnormal")
    mix1a = mixture_law(*_slot_rngs(seed, 4, 2), "1a", "bumps")
    mix1b = mixture_law(*_slot_rngs(seed, 4, 3), "1b", "uniform")
    mix2 = mixture_law(*_slot_rngs(seed, 4, 4), "2", "tnormal")
    rng = np.random.default_rng([seed, 4, 5])
    named = sorted(NAMED_ALPHAS)[int(rng.integers(len(NAMED_ALPHAS)))]
    p, q = rational(rng)
    eps = str(EPS)
    # the first rung is short: over [0, 10] no dip is deep yet, so the
    # minimum of an irrational alpha visibly sinks by T = 1000
    ladder = ["--ladder", "10,100,1000", "--step", str(INF_STEP), "--out", "{out}"]
    return [
        ("approximate", {"inputs": {"in": lat}, "argv": [
            "approximate", "{in}", "--mode", "lattice", "--eps", eps, "--out", "{out}"]}),
        ("approximate", {"inputs": {"in": dens}, "argv": [
            "approximate", "{in}", "--mode", "abs", "--eps", eps, "--out", "{out}"]}),
        ("approximate", {"inputs": {"in": mix1b}, "argv": [
            "approximate", "{in}", "--mode", "mixture", "--eps", eps, "--out", "{out}"]}),
        ("approximate", {"inputs": {"in": mix2}, "argv": [
            "approximate", "{in}", "--mode", "mixture", "--eps", eps, "--out", "{out}"]}),
        ("check-zero-free", {"inputs": {"in": lat}, "window": 64.0, "step": 0.01, "argv": [
            "check-zero-free", "{in}", "--window", "64", "--step", "0.01", "--out", "{out}"]}),
        ("spectral-pair", {"inputs": {"in": lat}, "K": 16, "argv": [
            "spectral-pair", "{in}", "-K", "16", "--out", "{out}"]}),
        ("tv", {"inputs": {"in": mix1a, "in2": dens}, "argv": ["tv", "{in}", "{in2}"]}),
        ("kutlu-scan", {"inputs": {}, "argv": ["kutlu-scan", "--step", "0.01", "--out", "{out}"]}),
        ("inf-scan", {"inputs": {}, "alpha": NAMED_ALPHAS[named], "irrational": True,
                      "argv": ["inf-scan", named] + ladder}),
        ("inf-scan", {"inputs": {}, "alpha": p / q, "p": p, "q": q, "irrational": False,
                      "argv": ["inf-scan", f"{p}/{q}"] + ladder}),
    ]


ROUNDS = {"cli": cli_round, "lattice": lattice_round, "density": density_round}
