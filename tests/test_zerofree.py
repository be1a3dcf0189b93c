import math

import numpy as np
import pytest

from qidlab import _fft, config, zerofree
from qidlab.charfn import CharFn, lattice_certificate
from qidlab.dist import Law, law_from_atoms, mix, point_mass
from qidlab.errors import InputError, LawShapeError, SelectionUnverifiableError
from qidlab.pipelines import approximate_lattice
from qidlab.zerofree import bad_delta_set, select_delta, _root_scan_step
from conftest import heavy_lattice_law


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

    def test_tau_validation(self, skewed_two_atom):
        with pytest.raises(InputError):
            select_delta(skewed_two_atom, 0.0, 1.5)
        with pytest.raises(InputError):
            select_delta(skewed_two_atom, 0.0, 0.0)


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

    def test_needs_the_table_path(self, uniform01, skewed_two_atom):
        for law in (uniform01, mix(0.5, skewed_two_atom, uniform01),
                    law_from_atoms([(0.0, 0.5), (1.0, 0.25), (200.0, 0.25)])):
            with pytest.raises(LawShapeError):
                lattice_certificate(CharFn(law))
