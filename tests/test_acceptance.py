"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and runtime budget.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np

from qidlab.charfn import CharFn, min_modulus_scan
from qidlab.dist import (convolve, density_from_callable, l1_modulus,
                         law_from_atoms, mix, point_mass, support_info,
                         tv_distance, uniform_density)
from qidlab.errors import SpectralExtractionError
from qidlab.impossibility import inf_scan, kutlu_zero_scan, one_period_floor
from qidlab.pipelines import (approximate_abs_cont, approximate_lattice,
                              approximate_mixture)
from qidlab.spectral import lattice_spectral_pair, pair_roundtrip_error
from qidlab.zerofree import bad_delta_set, select_delta
from conftest import poisson_law

FAIR = law_from_atoms([(0.0, 0.5), (1.0, 0.5)])
SKEW = law_from_atoms([(0.0, 0.2), (1.0, 0.8)])
TWO_THIRDS = law_from_atoms([(0.0, 2.0 / 3.0), (1.0, 1.0 / 3.0)])


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_lattice_bound_exact():
    t0 = time.perf_counter()
    checks = []
    for eps in (0.2, 0.1, 0.05, 0.02):
        res = approximate_lattice(FAIR, eps)
        delta = res.params["delta_eps"]
        checks.append(res.tv_value < 4.0 * eps - 1e-12)
        checks.append(res.tv_error_bound == 0.0)
        checks.append(res.certificate.min_modulus >= delta - 1e-12)
        checks.append(res.certificate.window_T >= 2.0 * math.pi - 1e-9)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    _report("criterion 1 (lattice bound, exact)", all(checks),
            f"4 eps values, runtime {elapsed:.3f}s < 1s")


def test_criterion_2_abs_cont_bound():
    targets = {
        "uniform": uniform_density(0.0, 1.0),
        "trunc-normal": density_from_callable(lambda x: np.exp(-0.5 * x * x),
                                              -3.0, 3.0),
    }
    tau = 0.5
    worst = 0.0
    ok = True
    details = []
    for name, law in targets.items():
        h = law.continuous.grid_step
        info = support_info(law)
        for eps in (0.1, 0.05):
            for side in ("plus", "minus"):
                t0 = time.perf_counter()
                res = approximate_abs_cont(law, eps, 0.4, tau, side)
                elapsed = time.perf_counter() - t0
                worst = max(worst, elapsed)
                out_info = support_info(res.approximant)
                lo = info.lext - (tau if side == "minus" else 0.0)
                hi = info.rext + (tau if side == "plus" else 0.0)
                case_ok = (res.tv_value <= 4.0 * eps + res.tv_error_bound
                           and res.approximant.discrete_weight == 0.0
                           and out_info.lext >= lo - 1.5 * h
                           and out_info.rext <= hi + 1.5 * h
                           and res.certificate.min_modulus > 0.0
                           and elapsed < 30.0)
                ok = ok and case_ok
                details.append(f"{name}/{eps}/{side}: tv={res.tv_value:.4f}")
    _report("criterion 2 (absolutely continuous bound)", ok,
            f"8 cases, worst runtime {worst:.2f}s < 30s; " + "; ".join(details[:2]))


def test_criterion_3_mixture_bounds():
    t0 = time.perf_counter()
    uniform = uniform_density(0.0, 1.0)
    eps = 0.05

    res_1a = approximate_mixture(mix(0.5, point_mass(0.0), uniform), eps)
    ok_1a = (res_1a.params["case"] == "1a"
             and res_1a.tv_value <= 4.0 * eps + res_1a.tv_error_bound)

    res_1b = approximate_mixture(mix(0.5, point_mass(0.5), uniform), eps)
    ok_1b = (res_1b.params["case"] == "1b"
             and res_1b.tv_value <= 6.0 * eps + res_1b.tv_error_bound)

    eps2 = 0.1
    res_2 = approximate_mixture(mix(0.5, FAIR, uniform), eps2)
    floor = res_2.params["discrete_floor"]
    ok_2 = (res_2.params["case"] == "2"
            and res_2.tv_value <= 4.0 * eps2 + res_2.tv_error_bound
            and floor > 0.0
            and res_2.params["discrete_min_modulus"] >= floor - 1e-12)

    elapsed = time.perf_counter() - t0
    _report("criterion 3 (mixture bounds)",
            ok_1a and ok_1b and ok_2 and elapsed < 60.0,
            f"1a tv={res_1a.tv_value:.4f} (<=4eps), 1b tv={res_1b.tv_value:.4f} "
            f"(<=6eps), case2 tv={res_2.tv_value:.4f}, floor={floor:.3g}, "
            f"runtime {elapsed:.2f}s < 60s")


def test_criterion_4_bad_delta_formula():
    bad = bad_delta_set(CharFn(SKEW), 0.0, 7.0, 0.05)
    formula = 0.6 / 1.6
    ok = len(bad) == 1 and abs(bad[0] - formula) < 1e-10
    margins = []
    for tau in (1.0, 0.5, 0.42):
        sel = select_delta(SKEW, 0.0, tau)
        margins.append(abs(sel.delta - formula))
        ok = ok and abs(sel.delta - formula) > 1e-6 and sel.certificate.min_modulus > 0.0
    _report("criterion 4 (bad-delta formula)", ok,
            f"bad set {{{bad[0]:.12f}}} matches 0.375 to 1e-10, selection "
            f"margins {min(margins):.3g}")


def test_criterion_5_spectral_roundtrip():
    t0 = time.perf_counter()
    pair = lattice_spectral_pair(TWO_THIRDS, K=20)
    atoms = dict(pair.signed_atoms)
    ok = True
    for k in range(1, 6):
        oracle = (-1.0) ** (k + 1) * 0.5 ** k / k
        ok = ok and abs(atoms[k] - oracle) < 1e-8
    # reconstruction error of the truncation is bounded by the analytic
    # weight tail (the op-level contract; at K=20 the exact-arithmetic
    # floor of this sup is ~3.1e-8, see the decisions ledger)
    tail_bound = 2.0 * sum(0.5 ** k / k for k in range(21, 600))
    ok = ok and pair.residual <= tail_bound

    pois = poisson_law(0.7)
    ppair = lattice_spectral_pair(pois, K=20)
    patoms = dict(ppair.signed_atoms)
    ok = ok and set(patoms) == {1} and abs(patoms[1] - 0.7) < 1e-9
    grid = np.linspace(0.0, 2.0 * math.pi, 4001)
    perr = pair_roundtrip_error(pois, ppair, grid)
    ok = ok and perr < 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report("criterion 5 (spectral round trip)", ok,
            f"lambda_1..5 at 1e-8, two-atom residual {pair.residual:.3g} <= "
            f"tail {tail_bound:.3g}, poisson sup err {perr:.3g} < 1e-8, "
            f"runtime {elapsed:.2f}s < 5s")


def test_criterion_6_kutlu_zeros():
    t0 = time.perf_counter()
    scan = kutlu_zero_scan(0.005)
    elapsed = time.perf_counter() - t0
    z = 2.0 * math.pi / 3.0
    truth = [(-z, z), (z, -z)]
    ok = len(scan.zero_locations) == 2
    worst = 0.0
    for found in scan.zero_locations:
        dist = min(math.hypot(found[0] - a, found[1] - b) for a, b in truth)
        worst = max(worst, dist)
        ok = ok and dist < 1e-6
    ok = ok and elapsed < 10.0
    _report("criterion 6 (three-exponential zeros)", ok,
            f"2 zeros within {worst:.2g} of +-(2pi/3, -2pi/3), "
            f"runtime {elapsed:.2f}s < 10s")


def test_criterion_7_inf_scan_dichotomy():
    t0 = time.perf_counter()
    rep = inf_scan(math.sqrt(2.0), [1e2, 1e3, 1e4, 1e5], 0.01)
    vals = [m for _, m, _ in rep.minima]
    ok = all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] < 0.1

    frac = Fraction(3, 2)
    floor, _ = one_period_floor(frac, 0.001)
    rep_rat = inf_scan(1.5, [1e2, 1e3, 1e4], 0.01)
    ok = ok and floor > 0.0
    for _, m, _ in rep_rat.minima:
        ok = ok and abs(m - floor) < 1e-6 * floor
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report("criterion 7 (window-infimum dichotomy)", ok,
            f"sqrt2 minima {', '.join('%.2g' % v for v in vals)} strictly "
            f"decreasing to {vals[-1]:.3g} < 0.1; alpha=3/2 floor "
            f"{floor:.6f} constant; runtime {elapsed:.1f}s < 120s")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True

    # CF multiplicativity on random pairs
    ts = np.linspace(-10.0, 10.0, 201)
    for _ in range(6):
        n1, n2 = rng.integers(2, 5, size=2)
        locs1 = np.sort(rng.choice(np.arange(8), size=n1, replace=False)).astype(float)
        locs2 = np.sort(rng.choice(np.arange(8), size=n2, replace=False)).astype(float)
        F = law_from_atoms(list(zip(locs1, rng.dirichlet(np.ones(n1)))))
        G = law_from_atoms(list(zip(locs2, rng.dirichlet(np.ones(n2)))))
        err = np.max(np.abs(CharFn(convolve(F, G))(ts) - CharFn(F)(ts) * CharFn(G)(ts)))
        ok = ok and err < 1e-6

    # tv metric axioms within error bounds
    uniform = uniform_density(0.0, 1.0)
    laws = [FAIR, SKEW, uniform, mix(0.5, FAIR, uniform)]
    for F in laws:
        v, b = tv_distance(F, F)
        ok = ok and v <= b + 1e-15
        for G in laws:
            vfg, bfg = tv_distance(F, G)
            vgf, bgf = tv_distance(G, F)
            ok = ok and abs(vfg - vgf) <= bfg + bgf + 1e-14
            for H in laws:
                vfh, bfh = tv_distance(F, H)
                vhg, bhg = tv_distance(H, G)
                ok = ok and vfg <= vfh + vhg + bfg + bfh + bhg + 1e-12

    # shift modulus bounds and subadditive continuity
    for u in (0.0, 0.25, 1.0, 4.0):
        val = l1_modulus(uniform, u)
        ok = ok and 0.0 <= val <= 2.0 + 1e-12
    for u, u0 in ((0.5, 0.2), (1.5, -0.5)):
        lhs = abs(l1_modulus(uniform, u) - l1_modulus(uniform, u0))
        ok = ok and lhs <= l1_modulus(uniform, u - u0) + 1e-9

    # Fact-1 consistency both ways
    period = 2.0 * math.pi
    for law in (FAIR, SKEW, TWO_THIRDS):
        res = approximate_lattice(law, 0.1)
        cert = min_modulus_scan(CharFn(res.approximant), period, period / 4096)
        ok = ok and cert.min_modulus > 0.0
    for law in (FAIR, law_from_atoms([(float(k), 0.25) for k in range(4)])):
        cert = min_modulus_scan(CharFn(law), period, period / 4096)
        ok = ok and cert.min_modulus < 1e-8
        try:
            lattice_spectral_pair(law, K=16)
            ok = False
        except SpectralExtractionError:
            pass

    elapsed = time.perf_counter() - t0
    _report("criterion 8 (property suites)", ok,
            f"multiplicativity, metric axioms, shift modulus, zero-free "
            f"consistency; runtime {elapsed:.2f}s")
