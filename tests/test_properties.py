"""Randomized cross-module property suites: CF multiplicativity, metric
axioms within reported error bounds, shift-modulus bounds, and the
zero-freeness consistency between pipeline outputs and spectral
extraction."""

import math

import numpy as np
import pytest

from qidlab.charfn import CharFn, min_modulus_scan
from qidlab.dist import (continuous_bernoulli, convolve, l1_modulus,
                         law_from_atoms, mix, tv_distance, uniform_density)
from qidlab.errors import SpectralExtractionError
from qidlab.pipelines import approximate_lattice
from qidlab.spectral import lattice_spectral_pair
from conftest import geometric_law


def random_discrete(rng, max_atoms=5, span=8):
    n = int(rng.integers(2, max_atoms + 1))
    locs = np.sort(rng.choice(np.arange(span), size=n, replace=False)).astype(float)
    masses = rng.dirichlet(np.ones(n))
    return law_from_atoms(list(zip(locs, masses)))


class TestCFMultiplicativity:
    def test_random_discrete_pairs(self):
        rng = np.random.default_rng(42)
        ts = np.linspace(-12.0, 12.0, 257)
        for _ in range(8):
            F, G = random_discrete(rng), random_discrete(rng)
            lhs = CharFn(convolve(F, G))(ts)
            rhs = CharFn(F)(ts) * CharFn(G)(ts)
            assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_discrete_density_pairs_on_grid(self):
        rng = np.random.default_rng(43)
        u = uniform_density(0.0, 1.0, cells=4096)
        b = continuous_bernoulli(0.3, 1.0, "plus", step=1.0 / 4096)
        ts = np.linspace(-4.0, 4.0, 129)
        for density in (u, b):
            h = density.continuous.grid_step
            locs = np.arange(3) * 512 * h
            masses = rng.dirichlet(np.ones(3))
            F = law_from_atoms(list(zip(locs, masses)))
            lhs = CharFn(convolve(F, density))(ts)
            rhs = CharFn(F)(ts) * CharFn(density)(ts)
            assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_density_density_pair(self):
        u = uniform_density(0.0, 1.0, cells=4096)
        b = continuous_bernoulli(0.7, 0.5, "minus", step=1.0 / 8192)
        ts = np.linspace(-4.0, 4.0, 129)
        lhs = CharFn(convolve(u, b))(ts)
        rhs = CharFn(u)(ts) * CharFn(b)(ts)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestTVMetric:
    def test_axioms_with_error_bounds(self, uniform01):
        rng = np.random.default_rng(17)
        laws = [random_discrete(rng) for _ in range(3)]
        laws.append(uniform01)
        laws.append(mix(0.4, laws[0], uniform01))
        for F in laws:
            v, b = tv_distance(F, F)
            assert v <= b + 1e-15
            for G in laws:
                vfg, bfg = tv_distance(F, G)
                vgf, bgf = tv_distance(G, F)
                assert abs(vfg - vgf) <= bfg + bgf + 1e-14
                for H in laws:
                    vfh, bfh = tv_distance(F, H)
                    vhg, bhg = tv_distance(H, G)
                    assert vfg <= vfh + vhg + bfg + bfh + bhg + 1e-12


class TestShiftModulus:
    def test_bounds_and_subadditivity(self, uniform01, truncated_normal):
        rng = np.random.default_rng(23)
        for law in (uniform01, truncated_normal):
            us = rng.uniform(-3.0, 3.0, size=12)
            for u in us:
                val = l1_modulus(law, float(u))
                assert 0.0 <= val <= 2.0 + 1e-12
            for u, u0 in zip(us[:6], us[6:]):
                lhs = abs(l1_modulus(law, float(u)) - l1_modulus(law, float(u0)))
                assert lhs <= l1_modulus(law, float(u - u0)) + 1e-9


class TestFact1Consistency:
    def test_pipeline_outputs_pass_zero_free_check(self, fair_bernoulli,
                                                   skewed_two_atom):
        period = 2.0 * math.pi
        for law in (fair_bernoulli, skewed_two_atom, geometric_law()):
            for eps in (0.2, 0.05):
                res = approximate_lattice(law, eps)
                cert = min_modulus_scan(CharFn(res.approximant), period, period / 4096)
                assert cert.min_modulus > 0.0
                # the spectral pair exists; weight decay slows as the
                # certificate minimum shrinks, so compare truncations
                p32 = lattice_spectral_pair(res.approximant, K=32,
                                            min_modulus_floor=0.0)
                p96 = lattice_spectral_pair(res.approximant, K=96,
                                            min_modulus_floor=0.0)
                assert p32.residual < 0.02
                assert p96.residual <= p32.residual + 1e-12

    def test_laws_failing_zero_free_are_rejected_by_spectral(self, fair_bernoulli):
        period = 2.0 * math.pi
        vanishing = [fair_bernoulli,
                     law_from_atoms([(float(k), 0.25) for k in range(4)])]
        for law in vanishing:
            cert = min_modulus_scan(CharFn(law), period, period / 4096)
            assert cert.min_modulus < 1e-8
            with pytest.raises(SpectralExtractionError):
                lattice_spectral_pair(law, K=16)
