import math
from dataclasses import replace

import numpy as np
import pytest

from qidlab import _fft, charfn, config, zerofree
from qidlab.charfn import CharFn, chord_certificate, lattice_certificate
from qidlab.dist import (Law, density_from_callable, law_from_atoms, law_from_density, mix,
                         point_mass, support_info, uniform_density)
from qidlab.errors import (InputError, LawShapeError, PipelineError,
                           SelectionUnverifiableError)
from qidlab.pipelines import approximate_abs_cont, approximate_lattice, approximate_mixture
from qidlab.zerofree import bad_delta_set, select_delta, _root_scan_step
from conftest import case_1b_law, heavy_lattice_law


def scalar_bracket_root(g, a, b, fa, fb):
    """One bracket alone, one scalar call per step: the Chandrupatla
    steps of charfn.bracket_roots (the secant of fa, fb first, then
    inverse-quadratic interpolation or bisection, clipped REFINE_XTOL / 2
    inside the bracket)."""
    x1, x2, f1, f2 = a, b, fa, fb
    tl = 0.5 * config.REFINE_XTOL / (b - a)
    t = min(max(fa / (fa - fb), tl), 1.0 - tl)
    for _ in range(80):
        xt = x1 + t * (x2 - x1)
        ft = g(xt)
        if ft == 0.0:
            return xt
        if (ft < 0) == (f1 < 0):
            x3, f3, x1, f1 = x1, f1, xt, ft
        else:
            x3, f3, x2, f2, x1, f1 = x2, f2, x1, f1, xt, ft
        w = abs(x2 - x1)
        if w < config.REFINE_XTOL:
            break
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        t = 0.5
        if phi ** 2 < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        tl = 0.5 * config.REFINE_XTOL / w
        t = min(max(t, tl), 1.0 - tl)
    return 0.5 * (x1 + x2)


def scalar_bad_delta_set(f0, gamma0, T, step, period=None):
    """Reference: polish each sign-change bracket alone with scalar CF
    calls, the end values taken from the grid, fold each root t to |t|
    (and, given the period of f0 e^{-it gamma0}, to the nearer of
    t mod period and period - t mod period), merge folded roots within
    1e-11, then map each root with Re < 0 to its bad weight."""
    g = lambda t: float(np.imag(f0(t) * np.exp(-1j * gamma0 * t)))
    n = int(math.ceil(T / step))
    ts = step * np.arange(-n, n + 1)
    vals = np.array([g(float(t)) for t in ts])
    scale = float(np.max(np.abs(vals)))
    sign = np.sign(vals)
    sign[np.abs(vals) <= 1e-12 * scale] = 0
    roots = [float(t) for t in ts[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        r = scalar_bracket_root(g, float(ts[i]), float(ts[i + 1]), vals[i], vals[i + 1])
        if abs(g(r)) <= 1e-7 * scale:
            roots.append(r)
    folded = []
    for t in roots:
        t = abs(t)
        if period is not None:
            t = min(t % period, period - t % period)
        folded.append(t)
    merged = []
    for t in sorted(folded):
        if not merged or t - merged[-1] > 1e-11:
            merged.append(t)
    bad = []
    for t in merged:
        re = (f0(t) * np.exp(-1j * gamma0 * t)).real
        if re < -1e-15:
            bad.append(-re / (1.0 - re))
    bad.sort()
    out = []
    for d in bad:
        if not out or d - out[-1] > 1e-12:
            out.append(d)
    return out


class TestBadDeltaSet:
    def test_fair_bernoulli_empty(self, fair_bernoulli):
        bad = bad_delta_set(CharFn(fair_bernoulli), 0.0, 7.0, 0.05)
        assert bad == []

    def test_skewed_formula_value(self, skewed_two_atom):
        # root of Im f1 at pi, Re f1(pi) = -0.6, delta' = 0.6/1.6
        bad = bad_delta_set(CharFn(skewed_two_atom), 0.0, 7.0, 0.05)
        assert len(bad) == 1
        assert bad[0] == pytest.approx(0.375, abs=1e-10)

    def test_bad_weights_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            locs = np.sort(rng.choice(np.arange(7), size=4, replace=False)).astype(float)
            masses = rng.dirichlet(np.ones(4))
            law = law_from_atoms(list(zip(locs, masses)))
            gamma = float(locs[0])
            f = CharFn(law)
            for d in bad_delta_set(f, gamma, 2 * math.pi, _root_scan_step(law, gamma)):
                assert 0.0 < d < 1.0

    def test_batched_matches_scalar_reference(self, skewed_two_atom, truncated_normal):
        heavy = heavy_lattice_law()
        cases = [(skewed_two_atom, 0.0, 7.0, 2.0 * math.pi),
                 (heavy, 0.3, 2.0 * math.pi / 1.1, 2.0 * math.pi / 1.1),
                 (mix(0.4, skewed_two_atom, truncated_normal), 0.0, 12.0, None)]
        for law, gamma, T, period in cases:
            f = CharFn(law)
            step = _root_scan_step(law, gamma)
            got = bad_delta_set(f, gamma, T, step)
            want = scalar_bad_delta_set(f, gamma, T, step, period)
            assert len(got) == len(want) > 0
            assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-12

    def test_mirror_roots_give_one_weight(self):
        # t and 2*pi/b - t give the same weight; polished apart, their
        # weights used to land 1-2e-12 apart and both were listed
        law = heavy_lattice_law()
        period = 2.0 * math.pi / 1.1
        bad = bad_delta_set(CharFn(law), 0.3, period, _root_scan_step(law, 0.3))
        assert len(bad) > 1
        assert np.min(np.diff(bad)) >= 1e-9

    def test_symmetric_center_precondition(self, fair_bernoulli):
        with pytest.raises(InputError):
            bad_delta_set(CharFn(fair_bernoulli), 0.5, 4.0, 0.05)


class TestSelectDelta:
    def test_skewed_avoids_bad_weight(self, skewed_two_atom):
        sel = select_delta(skewed_two_atom, 0.0, 1.0)
        assert 0.0 < sel.delta < 1.0
        assert abs(sel.delta - 0.375) > 1e-3
        assert sel.certificate.min_modulus > 0.0
        assert 0.375 == pytest.approx(sel.bad_deltas[0], abs=1e-10)

    def test_fair_small_tau_min_equals_delta(self, fair_bernoulli):
        sel = select_delta(fair_bernoulli, 0.0, 0.1)
        assert 0.0 < sel.delta < 0.1
        # |delta + (1-delta) f(t)| attains its infimum delta at t = pi
        assert sel.certificate.min_modulus == pytest.approx(sel.delta, abs=1e-9)

    def test_symmetric_center_rejected(self, fair_bernoulli):
        with pytest.raises(InputError):
            select_delta(fair_bernoulli, 0.5, 0.5)

    def test_delta_below_tau_always(self, skewed_two_atom, uniform01):
        for law, gamma in ((skewed_two_atom, 0.0), (uniform01, 0.0)):
            for tau in (1.0, 0.3, 0.05):
                sel = select_delta(law, gamma, tau)
                assert 0.0 < sel.delta < tau

    def test_real_root_floor_spot_check(self, skewed_two_atom):
        # at roots of Im f1 with Re f1 >= 0 the mixture modulus is >= delta
        sel = select_delta(skewed_two_atom, 0.0, 0.5)
        f = CharFn(skewed_two_atom)
        mixture = mix(sel.delta, point_mass(0.0), skewed_two_atom)
        fmix = CharFn(mixture)
        for t in (0.0, 2.0 * math.pi):  # roots with Re f1 = 1 >= 0
            assert abs(fmix(t)) >= sel.delta - 1e-12

    def test_mixing_identity_cross_module(self, skewed_two_atom):
        sel = select_delta(skewed_two_atom, 0.0, 0.4)
        mixture = mix(sel.delta, point_mass(0.0), skewed_two_atom)
        fmix = CharFn(mixture)
        f0 = CharFn(skewed_two_atom)
        rng = np.random.default_rng(3)
        ts = rng.uniform(-20.0, 20.0, size=64)
        direct = sel.delta * np.exp(1j * ts * 0.0) + (1 - sel.delta) * f0(ts)
        assert np.max(np.abs(fmix(ts) - direct)) < 1e-12

    def test_density_law_selection(self, uniform01):
        sel = select_delta(uniform01, 0.0, 0.05)
        assert 0.0 < sel.delta < 0.05
        assert sel.certificate.min_modulus > 0.0
        assert sel.certificate.tail_bound is not None

    @pytest.mark.parametrize("name", ["uniform01", "mixture"])
    def test_density_tail_bound_holds_past_window(self, request, name, skewed_two_atom):
        # (1 - delta)(1 - w)|phi_c(t)| <= tail_bound = delta/2 at every
        # |t| > window_T, sampled here out to 50 windows
        if name == "mixture":
            law = mix(0.3, skewed_two_atom, request.getfixturevalue("truncated_normal"))
        else:
            law = request.getfixturevalue(name)
        sel = select_delta(law, 0.0, 0.05)
        cert = sel.certificate
        assert cert.tail_bound == 0.5 * sel.delta
        rng = np.random.default_rng(11)
        ts = cert.window_T * np.concatenate((np.linspace(1.0, 50.0, 100_001)[1:],
                                             rng.uniform(1.0, 50.0, 2000)))
        ts = np.concatenate((ts, -ts))
        phi_c = CharFn(Law(0.0, None, law.continuous))(ts)
        contribution = (1.0 - sel.delta) * (1.0 - law.discrete_weight) * np.abs(phi_c)
        assert np.max(contribution) <= cert.tail_bound

    def test_gamma_off_center_on_symmetric_law_ok(self, fair_bernoulli):
        sel = select_delta(fair_bernoulli, 0.0, 0.5)
        assert sel.certificate.min_modulus > 0.0

    def test_root_grid_past_the_cap_is_unverifiable(self, monkeypatch, uniform01):
        # the root-scan grid is held whole, at most 4*BLOCK_ENTRIES points
        monkeypatch.setattr(zerofree, "BLOCK_ENTRIES", 4)
        monkeypatch.setattr(CharFn, "eval_grid", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(SelectionUnverifiableError,
                           match="root-scan grid needs 32 grid points, above the cap of 16"):
            select_delta(uniform01, 0.0, 0.5)

    def test_tau_validation(self, skewed_two_atom):
        with pytest.raises(InputError):
            select_delta(skewed_two_atom, 0.0, 1.5)
        with pytest.raises(InputError):
            select_delta(skewed_two_atom, 0.0, 0.0)


def bench_density(kind, lo=-0.3, width=1.1):
    """256-cell density of a benchmark shape on [lo, lo + width]."""
    if kind == "uniform":
        fn = np.ones_like
    elif kind == "tnormal":
        fn = lambda x: np.exp(-0.5 * ((x - lo - 0.45 * width) / (0.25 * width)) ** 2)
    else:
        fn = lambda x: 0.05 + sum(h * np.exp(-0.5 * ((x - lo - c * width) / (w * width)) ** 2)
                                  for c, w, h in ((0.2, 0.08, 1.0), (0.5, 0.12, 0.6),
                                                  (0.8, 0.1, 1.3)))
    return density_from_callable(fn, lo, lo + width, cells=256)


def bench_mixture(case, kind):
    """Mixture of the benchmark's case 1a (one atom off the centre), 1b
    (one atom on the centre node) or 2 (a lattice of four atoms), weight
    0.3 on the atoms."""
    dens = bench_density(kind)
    d = dens.continuous
    first, last = float(d.nodes[1]), float(d.nodes[-2])
    if case == "1a":
        atoms = law_from_atoms([(first + 0.2 * (last - first), 1.0)])
    elif case == "1b":
        atoms = point_mass(float(d.nodes[(d.nodes.size - 1) // 2]))
    else:
        atoms = law_from_atoms([(first + 0.1 + 0.3 * k, m)
                                for k, m in enumerate((0.7, 0.1, 0.1, 0.1))])
    return mix(0.3, atoms, dens)


def recorded_bad_delta_calls(monkeypatch, run):
    """The arguments of every bad_delta_set call that run() makes."""
    calls, real = [], zerofree.bad_delta_set
    monkeypatch.setattr(zerofree, "bad_delta_set", lambda *args: calls.append(args) or real(*args))
    run()
    monkeypatch.setattr(zerofree, "bad_delta_set", real)
    return calls


def assert_tau_filters(f0, gamma0, T, step, values, taus=(), around=True):
    """bad_delta_set with tau is the full set cut at tau, for taus and,
    when around, for tau 1e-9 below and above each bad weight."""
    full = bad_delta_set(f0, gamma0, T, step, values)
    taus = list(taus) + [d + s for d in full if around for s in (-1e-9, 1e-9)]
    for tau in taus:
        assert bad_delta_set(f0, gamma0, T, step, values, tau) == [d for d in full if d < tau]
    return full


class TestBadDeltaTau:
    @pytest.mark.parametrize("n", [80, 128, 200])
    def test_lattice_sweep(self, n):
        # the 60 laws of the lattice certificate sweep, scanned as
        # select_delta scans a lattice: gamma0 at the left edge, over half
        # a period; tau around each bad weight on one law in four (11-70
        # weights a law, two scans per weight)
        for seed in range(20):
            law = sweep_law(n, seed)
            gamma0 = float(law.discrete.locations[0])
            step = _root_scan_step(law, gamma0)
            T = math.pi / 1.3 + step
            f0 = CharFn(law)
            grid = f0.eval_grid(0.0, step, int(math.ceil(T / step)) + 1)
            full = assert_tau_filters(f0, gamma0, T, step, grid, (0.05, 0.05 + 1e-6, 0.5),
                                      around=seed % 4 == 0)
            assert full

    @pytest.mark.parametrize("kind", ["uniform", "tnormal", "bumps"])
    def test_density_and_mixture_selections(self, monkeypatch, kind):
        # every root scan of abs-cont and of mixture cases 1a, 1b and 2
        def run():
            approximate_abs_cont(bench_density(kind), 0.05, 0.4, 0.5, "plus")
            for case in ("1a", "1b", "2"):
                approximate_mixture(bench_mixture(case, kind), 0.05)
        calls = recorded_bad_delta_calls(monkeypatch, run)
        assert len(calls) == 5
        weights = 0
        for f0, gamma0, T, step, values, tau in calls:
            weights += len(assert_tau_filters(f0, gamma0, T, step, values, (tau, 0.5)))
        assert weights > 0

    def test_heavy_atom_lattice_polishes_nothing(self, monkeypatch):
        # |f| >= 0.4 keeps every bad weight far above tau: no bracket is
        # polished, and a scan without tau polishes them all
        calls = []
        real = charfn.bracket_roots
        monkeypatch.setattr(charfn, "bracket_roots",
                            lambda *args: calls.append(args[1].size) or real(*args))
        for seed in (5, 6, 7):
            res = approximate_lattice(heavy_lattice_law(seed=seed), 0.05)
            assert res.certificate.lower_bound > config.CERTIFICATE_FLOOR
        assert calls == []
        law = heavy_lattice_law()
        assert len(bad_delta_set(CharFn(law), 0.3, math.pi / 1.1,
                                 _root_scan_step(law, 0.3))) > 10
        assert calls and calls[0] > 10

    @pytest.mark.parametrize("name", ["heavy", "sweep", "uniform", "1a", "1b", "2", "skewed"])
    def test_selection_ignores_the_cut(self, monkeypatch, name, skewed_two_atom):
        # with bad_delta_set blind to tau, select_delta picks the same
        # delta and certificate from the full set
        law, gamma0 = {
            "heavy": lambda: (heavy_lattice_law(), 0.3),
            "sweep": lambda: (sweep_law(128, 3), -0.7),
            "uniform": lambda: (bench_density("uniform"), -0.3),
            "1a": lambda: (bench_mixture("1a", "bumps"), None),
            "1b": case_1b_law,
            "2": lambda: (bench_mixture("2", "tnormal"), -0.3),
            "skewed": lambda: (skewed_two_atom, 0.0),
        }[name]()
        if gamma0 is None:
            gamma0 = float(law.discrete.locations[0])
        for tau in (0.05, 0.5):
            cut = select_delta(law, gamma0, tau)
            real = zerofree.bad_delta_set
            monkeypatch.setattr(zerofree, "bad_delta_set",
                                lambda f0, g, T, step, values=None, *_:
                                real(f0, g, T, step, values))
            full = select_delta(law, gamma0, tau)
            monkeypatch.setattr(zerofree, "bad_delta_set", real)
            assert (cut.delta, cut.certificate) == (full.delta, full.certificate)
            assert cut.bad_deltas == tuple(d for d in full.bad_deltas
                                           if d < tau + config.DELTA_SEPARATION)


def sweep_law(n, seed):
    """Smoothed random profile of n atoms on -0.7 + 1.3*{0..n-1}, no
    heavy atom."""
    rng = np.random.default_rng(seed)
    prof = np.convolve(rng.gamma(2.0, size=n), np.ones(9) / 9.0, mode="same") + 0.05
    return law_from_atoms([(-0.7 + 1.3 * k, float(m)) for k, m in enumerate(prof / prof.sum())],
                          normalize=True)


def oracle_min(law, n=1 << 18):
    """min |f| over n equispaced points of one period, from one FFT of
    the lattice coefficients: an upper bound on the true minimum."""
    _, _, ks = law.discrete.lattice_fit
    return float(np.min(np.abs(np.fft.fft(np.bincount(ks, weights=law.discrete.masses), n))))


class TestLatticeCertificate:
    @pytest.mark.parametrize("n", [80, 128, 200])
    def test_sweep_proven_below_oracle(self, n):
        for seed in range(20):
            res = approximate_lattice(sweep_law(n, seed), 0.05)
            cert = res.certificate
            assert config.CERTIFICATE_FLOOR < cert.lower_bound <= cert.min_modulus
            assert cert.lower_bound <= oracle_min(res.approximant)
            assert cert.window_T == pytest.approx(2.0 * math.pi / 1.3, rel=1e-9)

    def test_fair_bernoulli_needs_subdivision(self, fair_bernoulli, monkeypatch):
        res = approximate_lattice(fair_bernoulli, 0.02)
        delta = res.params["delta_eps"]
        cert = res.certificate
        assert config.CERTIFICATE_FLOOR < cert.lower_bound <= delta
        assert cert.min_modulus == pytest.approx(delta, abs=1e-15)
        assert cert.argmin_t == pytest.approx(math.pi, abs=1e-12)
        monkeypatch.setattr(_fft, "FLOOR_LEVELS", 0)
        assert lattice_certificate(CharFn(res.approximant)).lower_bound <= config.CERTIFICATE_FLOOR

    def test_zero_on_the_circle(self, fair_bernoulli):
        cert = lattice_certificate(CharFn(fair_bernoulli))
        assert cert.lower_bound <= 0.0
        assert cert.min_modulus <= 1e-16

    def test_select_delta_rejects_a_candidate_with_a_zero(self, skewed_two_atom, monkeypatch):
        # 0.375*e_0 + 0.625*(0.2*e_0 + 0.8*e_1) vanishes at t = pi
        monkeypatch.setattr(zerofree, "bad_delta_set", lambda *args: [])
        monkeypatch.setattr(zerofree, "_candidate_ladder", lambda bad, tau: [0.375])
        with pytest.raises(SelectionUnverifiableError):
            select_delta(skewed_two_atom, 0.0, 1.0)
        cert = lattice_certificate(CharFn(mix(0.375, point_mass(0.0), skewed_two_atom)))
        assert cert.lower_bound <= 0.0

    def test_uniform_20000_atoms_within_table_cap(self):
        n = 20_000
        res = approximate_lattice(law_from_atoms([(float(k), 1.0 / n) for k in range(n)]), 0.05)
        cert = res.certificate
        assert config.CERTIFICATE_FLOOR < cert.lower_bound <= cert.min_modulus
        table = CharFn(res.approximant)._atom_table
        assert (table.order + 1) * table.n_fft <= _fft.TABLE_ENTRIES
        assert cert.window_T / cert.grid_step == pytest.approx(table.n_fft)

    def test_misfit_comes_off_the_bound(self):
        # atoms off their fitted lattice by a few ulps: the bound drops by
        # window_T times the misfit, never more than that and rounding
        law = law_from_atoms([(0.0, 0.3), (0.1, 0.3), (0.30000000000000004, 0.4)])
        cert = lattice_certificate(CharFn(law))
        a, b, ks = law.discrete.lattice_fit
        misfit = float(np.max(np.abs(law.discrete.locations - (a + b * ks))))
        assert 0.0 < misfit
        table_lower = CharFn(law)._atom_table.floor(config.CERTIFICATE_FLOOR)[0]
        assert cert.lower_bound <= table_lower - cert.window_T * misfit

    def test_sparse_lattice_off_the_table(self, uniform01, skewed_two_atom):
        # 201 coefficients for 3 atoms: off the table, proved by the chord
        # over half a period, which covers all of |f|
        law = law_from_atoms([(0.0, 0.5), (1.0, 0.25), (200.0, 0.25)])
        f = CharFn(law)
        assert not f.is_lattice_table
        cert = lattice_certificate(f)
        ts = np.linspace(0.0, 2.0 * math.pi, 200_001)
        assert 0.0 < cert.lower_bound <= float(np.min(np.abs(direct_cf(law, ts))))
        for law in (uniform01, mix(0.5, skewed_two_atom, uniform01)):
            with pytest.raises(LawShapeError):
                lattice_certificate(CharFn(law))

    def test_off_table_grid_capped_before_it_is_read(self, monkeypatch):
        # step pi/1600 over [0, pi]: 1600 cells, 1601 points
        law = law_from_atoms([(0.0, 0.5), (1.0, 0.25), (200.0, 0.25)])
        monkeypatch.setattr(charfn, "MAX_GRID_POINTS", 1601)
        assert lattice_certificate(CharFn(law)).window_T == pytest.approx(math.pi)
        monkeypatch.setattr(charfn, "MAX_GRID_POINTS", 1600)
        monkeypatch.setattr(CharFn, "__call__", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(InputError, match="chord grid needs 1601 grid points"):
            lattice_certificate(CharFn(law))


def direct_cf(law, ts):
    """CF by direct sums over atoms and density hats, in blocks of t."""
    out = np.zeros(ts.size, dtype=complex)
    w = law.discrete_weight
    for lo in range(0, ts.size, 2000):
        t = ts[lo:lo + 2000]
        if law.discrete is not None:
            out[lo:lo + 2000] += w * (np.exp(1j * np.outer(t, law.discrete.locations))
                                      @ law.discrete.masses)
        if law.continuous is not None:
            d = law.continuous
            out[lo:lo + 2000] += ((1.0 - w) * np.sinc(t * d.grid_step / (2.0 * math.pi)) ** 2
                                  * (np.exp(1j * np.outer(t, d.nodes)) @ (d.grid_step * d.samples)))
    return out


def three_bumps(x):
    return sum(h * np.exp(-0.5 * ((x - c) / 0.06) ** 2)
               for c, h in ((0.2, 1.0), (0.5, 0.6), (0.75, 1.3)))


CHORD_LAWS = {
    "uniform": lambda: uniform_density(0.0, 1.0, cells=256),
    "truncated_normal": lambda: density_from_callable(lambda x: np.exp(-0.5 * x * x), -3.0, 3.0,
                                                      cells=256),
    "three_bumps": lambda: density_from_callable(three_bumps, 0.0, 1.0, cells=256),
    "two_cell_spike": lambda: law_from_density(0.4, 0.01, [0.0, 100.0, 0.0]),
    "atoms_and_density": lambda: mix(0.3, law_from_atoms([(0.2, 0.6), (0.5, 0.4)]),
                                     uniform_density(0.0, 1.0, cells=256)),
}


def skew_uniform_mixture():
    return mix(0.4, law_from_atoms([(0.0, 0.2), (1.0, 0.8)]), uniform_density(0.0, 1.0))


class TestChordCertificate:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(CHORD_LAWS))
    def test_floor_below_direct_minimum(self, name, side):
        # the proven floor over [-T, T] never exceeds a dense direct-sum
        # minimum of the returned mixture, with gamma0 at either end of the
        # density grid (the spike's support at node resolution is one node)
        law = CHORD_LAWS[name]()
        info, nodes = support_info(law), law.continuous.nodes
        gamma0 = min(info.lext, nodes[0]) if side == "left" else max(info.rext, nodes[-1])
        sel = select_delta(law, gamma0, 0.05)
        cert = sel.certificate
        assert config.CERTIFICATE_FLOOR < cert.lower_bound <= cert.min_modulus
        assert cert.tail_bound == 0.5 * sel.delta
        ts = np.linspace(-cert.window_T, cert.window_T, 20_001)
        assert cert.lower_bound <= float(np.min(np.abs(direct_cf(sel.law, ts))))

    def test_close_to_a_bad_weight_needs_bisection(self, monkeypatch):
        law = skew_uniform_mixture()
        bad = bad_delta_set(CharFn(law), 0.0, 2.0 * math.pi, _root_scan_step(law, 0.0))
        near = bad[0] * (1.0 + 1e-3)
        monkeypatch.setattr(zerofree, "_candidate_ladder", lambda bad, tau: [near])
        calls = []
        monkeypatch.setattr(zerofree, "chord_certificate", lambda fn, *args, **kw: chord_certificate(
            lambda t: calls.append(t.size) or fn(t), *args, **kw))
        cert = select_delta(law, 0.0, 0.5).certificate
        assert len(calls) >= 1
        assert config.CERTIFICATE_FLOOR < cert.lower_bound <= cert.min_modulus
        # without subdivision the same grid proves nothing for it
        monkeypatch.setattr(charfn, "FLOOR_LEVELS", 0)
        with pytest.raises(SelectionUnverifiableError):
            select_delta(law, 0.0, 0.5)

    def test_cell_cap_stops_without_an_exception(self, uniform01):
        # at step 3 the curvature allowance swamps |f| on most of the 1000
        # cells, more than the cap of 125: no subdivision, no proof
        f = CharFn(uniform01)
        calls = []
        cert = chord_certificate(lambda t: calls.append(t.size) or f(t), 3.0, 1001,
                                 uniform01, f.allowance(3000.0),
                                 values=lambda lo, hi: f(3.0 * np.arange(lo, hi)))
        assert calls == []
        assert cert.lower_bound <= config.CERTIFICATE_FLOOR
        assert cert.min_modulus > 0.0 and cert.window_T == 3000.0

    def test_blocks_do_not_change_the_certificate(self, monkeypatch):
        # the grid is read in blocks of BLOCK_ENTRIES // 16 cells; blocks of
        # 7 cells give the same certificate, and a cap crossed in a later
        # block still leaves the bound at or below the floor
        law = uniform_density(0.0, 1.0, cells=64)
        f = CharFn(law)
        whole = [chord_certificate(f, step, 4001, law, f.allowance(4000 * step))
                 for step in (0.05, 3.0)]
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 16 * 7)
        blocked = [chord_certificate(f, step, 4001, law, f.allowance(4000 * step))
                   for step in (0.05, 3.0)]
        assert blocked == whole
        assert blocked[1].lower_bound <= config.CERTIFICATE_FLOOR

    def test_zero_of_the_mixture_is_not_proved(self):
        # at the bad weight itself the mixture vanishes: every level of
        # subdivision leaves the cell at the zero open
        law = skew_uniform_mixture()
        f0 = CharFn(law)
        step = _root_scan_step(law, 0.0)
        delta = bad_delta_set(f0, 0.0, 2.0 * math.pi, step)[0]
        mixture = mix(delta, point_mass(0.0), law)
        f = CharFn(mixture)
        cert = chord_certificate(f, step, 200, mixture, f.allowance(199 * step))
        assert cert.lower_bound <= 0.0 < cert.min_modulus

    def test_density_selection_reads_one_grid_and_never_polishes(self, monkeypatch, uniform01):
        grids, polishes = [], []
        eval_grid = CharFn.eval_grid
        monkeypatch.setattr(CharFn, "eval_grid",
                            lambda self, *args: grids.append(args) or eval_grid(self, *args))
        monkeypatch.setattr(charfn, "parabolic_polish",
                            lambda *args: polishes.append(args) or pytest.fail("polished"))
        for law in (uniform01, skew_uniform_mixture()):
            grids.clear()
            sel = select_delta(law, 0.0, 0.05)
            assert len(grids) == 1
            assert sel.certificate.lower_bound > config.CERTIFICATE_FLOOR
        assert polishes == []

    def test_sparse_lattice_is_proved_over_half_a_period(self):
        # 201 coefficients for 3 atoms: the atoms stay on the dense path
        law = law_from_atoms([(0.0, 0.5), (1.0, 0.25), (200.0, 0.25)])
        res = approximate_lattice(law, 0.05)
        assert not CharFn(res.approximant).is_lattice_table
        cert = res.certificate
        assert cert.window_T >= math.pi
        assert config.CERTIFICATE_FLOOR < cert.lower_bound <= cert.min_modulus
        ts = np.linspace(-math.pi, math.pi, 200_001)
        assert cert.lower_bound <= float(np.min(np.abs(direct_cf(res.approximant, ts))))

    def test_result_needs_a_proof(self, skewed_two_atom):
        res = approximate_lattice(skewed_two_atom, 0.05)
        sampled = replace(res.certificate, lower_bound=None)
        with pytest.raises(PipelineError):
            replace(res, certificate=sampled)
