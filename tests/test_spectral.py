import math
import time

import numpy as np
import pytest

from qidlab import charfn
from qidlab.charfn import CharFn, _track_branch
from qidlab.dist import convolve, law_from_atoms, point_mass
from qidlab.errors import SpectralExtractionError
from qidlab.pipelines import approximate_lattice
from qidlab.spectral import (SpectralPair, lattice_spectral_pair,
                             pair_roundtrip_error, reconstruct_cf)
from conftest import heavy_lattice_law, poisson_law


def log_series_weights(p0: float, kmax: int) -> dict[int, float]:
    """Independent oracle for {0: p0, 1: 1-p0} with p0 > 1/2:
    log f = log(p0) + log(1 + r e^{it}), r = (1-p0)/p0, so
    lambda_k = (-1)^(k+1) r^k / k."""
    r = (1 - p0) / p0
    return {k: (-1) ** (k + 1) * r ** k / k for k in range(1, kmax + 1)}


class TestExtraction:
    def test_degenerate_law(self):
        pair = lattice_spectral_pair(point_mass(2.5), K=10)
        assert pair.drift_gamma == pytest.approx(2.5, abs=1e-12)
        assert pair.signed_atoms == ()
        assert pair.residual < 1e-10

    def test_poisson_single_atom(self):
        pair = lattice_spectral_pair(poisson_law(0.7), K=20)
        atoms = dict(pair.signed_atoms)
        assert set(atoms) == {1}
        assert atoms[1] == pytest.approx(0.7, abs=1e-9)
        assert pair.drift_gamma == pytest.approx(0.0, abs=1e-9)
        assert pair.residual < 1e-8

    def test_two_atom_signed_series(self, two_thirds_law):
        pair = lattice_spectral_pair(two_thirds_law, K=20)
        atoms = dict(pair.signed_atoms)
        oracle = log_series_weights(2.0 / 3.0, 5)
        for k in range(1, 6):
            assert atoms[k] == pytest.approx(oracle[k], abs=1e-8)
        # genuinely signed: alternating weights
        assert atoms[1] > 0 > atoms[2]
        assert atoms[3] > 0 > atoms[4]

    def test_vanishing_cf_rejected(self, fair_bernoulli):
        with pytest.raises(SpectralExtractionError):
            lattice_spectral_pair(fair_bernoulli, K=10)

    def test_zero_between_nodes_rejected(self):
        # P(z) = 0.4 + 0.2z + 0.4z^2 vanishes at cos(theta) = -1/4, which
        # no power-of-two grid of one period hits
        law = law_from_atoms([(0.0, 0.4), (1.0, 0.2), (2.0, 0.4)])
        t0 = time.perf_counter()
        with pytest.raises(SpectralExtractionError):
            lattice_spectral_pair(law, K=10)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("seed", [5, 6])
    def test_smoothed_profile_approximant(self, seed):
        # 200-atom smoothed profile: an extraction from a sampled floor,
        # with no proof between samples, rejected these approximants
        rng = np.random.default_rng(seed)
        prof = np.convolve(rng.gamma(2.0, size=200), np.ones(9) / 9.0, mode="same") + 0.05
        law = law_from_atoms([(float(k), float(m)) for k, m in enumerate(prof / prof.sum())],
                             normalize=True)
        F = approximate_lattice(law, 0.05).approximant
        pair = lattice_spectral_pair(F, K=64)
        fine = pair_roundtrip_error(F, pair, np.linspace(0.0, 2 * math.pi, 8 * 512 + 1))
        assert pair.residual - 1e-12 <= fine <= 1.5 * pair.residual

    @pytest.mark.parametrize("case", ["heavy_K64", "heavy_K3", "wide_K10", "two_thirds",
                                      "winding", "poisson"])
    def test_fft_residual_matches_roundtrip(self, case):
        # wide_K10: 1 500 coefficients fold onto the 1 024 residual nodes
        law, K = {"heavy_K64": (heavy_lattice_law(), 64),
                  "heavy_K3": (heavy_lattice_law(), 3),
                  "wide_K10": (heavy_lattice_law(1500), 10),
                  "two_thirds": (law_from_atoms([(0.0, 2 / 3), (1.0, 1 / 3)]), 20),
                  "winding": (law_from_atoms([(0.0, 1 / 3), (1.0, 2 / 3)]), 40),
                  "poisson": (poisson_law(0.7), 20)}[case]
        pair = lattice_spectral_pair(law, K=K)
        m = 4 * max(256, 8 * K)
        nodes = (2 * math.pi / pair.lattice_b) * np.arange(m) / m
        assert abs(pair.residual - pair_roundtrip_error(law, pair, nodes)) <= 1e-12

    def test_weights_match_fine_fft(self):
        # lambda_k from an independent 2^18-node FFT of the unwrapped log P
        law = heavy_lattice_law()
        pair = lattice_spectral_pair(law, K=64)
        n = 1 << 18
        # the atoms fill 0.3 + 1.1*{0..159}, so the masses are P's coefficients
        vals = n * np.fft.ifft(law.discrete.masses, n)
        theta = 2 * math.pi * np.arange(n) / n
        phase = np.unwrap(np.angle(vals))
        winding = round(phase[-1] / (2 * math.pi))
        ref = np.fft.fft(np.log(np.abs(vals)) + 1j * (phase - winding * theta)) / n
        atoms = dict(pair.signed_atoms)
        for k in range(1, 65):
            assert atoms.get(k, 0.0) == pytest.approx(ref[k].real, abs=1e-11)
            assert atoms.get(-k, 0.0) == pytest.approx(ref[n - k].real, abs=1e-11)

    def test_winding_law_drift_on_lattice(self):
        # {0: 1/3, 1: 2/3}: the branch winds once, drift = a + b
        pair = lattice_spectral_pair(law_from_atoms([(0.0, 1 / 3), (1.0, 2 / 3)]), K=40)
        assert pair.drift_gamma == pytest.approx(1.0, abs=1e-9)
        assert pair.residual < 1e-8

    def test_nonnegative_weights_for_infinitely_divisible(self):
        # mixture of independent Poisson components stays compound Poisson
        p1 = poisson_law(0.4)
        p2 = poisson_law(0.3, kmax=30)
        doubled = law_from_atoms([(2 * a.location, a.mass) for a in p2.discrete.atoms])
        law = convolve(p1, doubled)
        pair = lattice_spectral_pair(law, K=20)
        atoms = dict(pair.signed_atoms)
        assert atoms[1] == pytest.approx(0.4, abs=1e-9)
        assert atoms[2] == pytest.approx(0.3, abs=1e-9)
        assert all(lam > -1e-12 for lam in atoms.values())


class TestTrackBranch:
    """charfn._track_branch, the one log branch of lattice polynomials."""

    def test_doubles_until_floor_proved(self):
        # min |P| = 0.001 at theta = pi, slack pi * 0.49999975: the floor
        # 1e-6 needs 0.001 - 1.5708 / n > 1e-6, first met at n = 2048
        vals, steps_log = _track_branch(np.array([0.5005, 0.4995]), 256, 1e-6)
        assert vals.size == steps_log.size == 2048

    @pytest.mark.parametrize("masses", [(0.5005, 0.4995), (1 / 3, 2 / 3)],
                             ids=["near_zero", "winding"])
    def test_branch_nodes_and_steps(self, masses):
        c = np.array(masses)
        vals, steps_log = _track_branch(c, 256, 1e-6)
        n = vals.size
        assert n & (n - 1) == 0 and n >= 4 * c.size
        assert float(np.max(np.abs(steps_log))) < 0.5 * math.pi
        # the increments rebuild the values and close the cycle
        rebuilt = vals[0] * np.exp(np.cumsum(steps_log))
        assert np.max(np.abs(rebuilt[:-1] - vals[1:])) <= 1e-13
        assert abs(rebuilt[-1] - vals[0]) <= 1e-13

    def test_poisson_closed_form(self):
        # log P(theta) = lam * (e^{i theta} - 1) for the Poisson law
        lam = 1.0
        vals, steps_log = _track_branch(poisson_law(lam).discrete.masses, 256, 1e-6)
        theta = 2 * math.pi * np.arange(1, vals.size + 1) / vals.size
        branch = np.log(vals[0]) + np.cumsum(steps_log)
        assert np.max(np.abs(branch - lam * (np.exp(1j * theta) - 1.0))) < 1e-12

    def test_zero_on_a_node_rejected(self):
        # P = (1 + e^{i theta}) / 2 vanishes at theta = pi, a node of every grid
        with pytest.raises(SpectralExtractionError, match=r"near t=0\.5\*2pi/b"):
            _track_branch(np.array([0.5, 0.5]), 8, 1e-6)


class TestReconstruct:
    def test_drift_only(self):
        pair = SpectralPair(1.5, 1.5, 1.0, (), 0, 0.0)
        f = reconstruct_cf(pair)
        ts = np.linspace(-5, 5, 101)
        assert np.max(np.abs(f(ts) - np.exp(1.5j * ts))) < 1e-14

    def test_unit_at_zero(self, two_thirds_law):
        pair = lattice_spectral_pair(two_thirds_law, K=12)
        assert reconstruct_cf(pair)(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_poisson_roundtrip(self):
        law = poisson_law(0.7)
        pair = lattice_spectral_pair(law, K=20)
        grid = np.linspace(0.0, 2 * math.pi, 2001)
        assert pair_roundtrip_error(law, pair, grid) < 1e-8

    def test_two_atom_roundtrip_tail_bound(self, two_thirds_law):
        K = 10
        pair = lattice_spectral_pair(two_thirds_law, K=K)
        grid = np.linspace(0.0, 2 * math.pi, 2001)
        err = pair_roundtrip_error(two_thirds_law, pair, grid)
        tail = 2.0 * sum(0.5 ** k / k for k in range(K + 1, 400))
        assert err <= tail
        assert tail < 2.0 ** -K
        # |lambda_k| = r^k / k with r = 1/2 for k >= 1 and 0 for k < 0
        assert pair.tail_mass == pytest.approx(0.5 * tail, rel=1e-9)

    @pytest.mark.parametrize("make_pair", [
        lambda: lattice_spectral_pair(heavy_lattice_law(), K=64),
        lambda: SpectralPair(-0.4, 0.0, 0.7, ((-9, 0.02), (-2, -0.15), (1, 0.3),
                                              (5, -0.05), (6, 0.01)), 9, 0.0),
        lambda: SpectralPair(0.3, 0.3, 1.1, tuple(
            (k, float(lam)) for k, lam in zip(np.r_[-2048:0, 1:2049],
                                              0.002 * np.random.default_rng(4).standard_normal(4096))),
            2048, 0.0),
    ], ids=["heavy_lattice_K64", "gapped_signed", "signed_K2048"])
    def test_power_table_matches_term_by_term(self, make_pair, monkeypatch):
        pair = make_pair()
        ts = np.linspace(-2.0 * math.pi / pair.lattice_b, 2.0 * math.pi / pair.lattice_b, 1501)
        expo = 1j * pair.drift_gamma * ts
        for k, lam in pair.signed_atoms:
            expo = expo + lam * (np.exp(1j * ts * pair.lattice_b * k) - 1.0)
        ref = np.exp(expo)
        f = reconstruct_cf(pair)
        assert np.max(np.abs(f(ts) - ref)) <= 1e-12
        assert f(ts[7]) == pytest.approx(ref[7], abs=1e-12)
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 100)
        assert np.max(np.abs(reconstruct_cf(pair)(ts) - ref)) <= 1e-12

    def test_drift_alone_cannot_fit_nondegenerate(self, two_thirds_law):
        pair = lattice_spectral_pair(two_thirds_law, K=20)
        bare = SpectralPair(pair.drift_gamma, pair.lattice_a, pair.lattice_b,
                            (), 0, 0.0)
        grid = np.linspace(0.0, 2 * math.pi, 512)
        assert pair_roundtrip_error(two_thirds_law, bare, grid) > 0.1


class TestStructure:
    def test_constant_coefficient_consistency(self, two_thirds_law):
        # the t=0 normalization: sum of weights equals -c_0 of the
        # periodic part, recovered here by direct numerical DFT
        pair = lattice_spectral_pair(two_thirds_law, K=32)
        n = 512
        ts = 2 * math.pi * np.arange(n) / n
        f = CharFn(two_thirds_law)
        logs = np.log(f(ts))  # zero-free with positive real part at 0: principal okay away from wrap
        c0 = np.mean(logs)
        assert -sum(lam for _, lam in pair.signed_atoms) == pytest.approx(
            float(c0.real), abs=1e-8)

    def test_convolution_additivity(self, two_thirds_law, skewed_two_atom):
        law = convolve(two_thirds_law, skewed_two_atom)
        p1 = lattice_spectral_pair(two_thirds_law, K=40)
        p2 = lattice_spectral_pair(skewed_two_atom, K=40)
        p12 = lattice_spectral_pair(law, K=40)
        assert p12.drift_gamma == pytest.approx(
            p1.drift_gamma + p2.drift_gamma, abs=1e-9)
        a1, a2, a12 = dict(p1.signed_atoms), dict(p2.signed_atoms), dict(p12.signed_atoms)
        for k in set(a1) | set(a2):
            assert a12.get(k, 0.0) == pytest.approx(
                a1.get(k, 0.0) + a2.get(k, 0.0), abs=1e-8)

    def test_empty_measure_iff_degenerate(self):
        pair = lattice_spectral_pair(point_mass(0.25), K=8)
        assert pair.signed_atoms == ()
        recon = reconstruct_cf(pair)
        ts = np.linspace(-10, 10, 101)
        assert np.max(np.abs(recon(ts) - np.exp(0.25j * ts))) < 1e-12
