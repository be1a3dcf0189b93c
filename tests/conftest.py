import numpy as np
import pytest

from qidlab.dist import (density_from_callable, law_from_atoms, mix, point_mass,
                         restrict_density, uniform_density)


@pytest.fixture
def fair_bernoulli():
    return law_from_atoms([(0.0, 0.5), (1.0, 0.5)])


@pytest.fixture
def skewed_two_atom():
    return law_from_atoms([(0.0, 0.2), (1.0, 0.8)])


@pytest.fixture
def two_thirds_law():
    return law_from_atoms([(0.0, 2.0 / 3.0), (1.0, 1.0 / 3.0)])


@pytest.fixture
def uniform01():
    return uniform_density(0.0, 1.0)


@pytest.fixture
def truncated_normal():
    return density_from_callable(lambda x: np.exp(-0.5 * x * x), -3.0, 3.0)


def poisson_law(lam: float, kmax: int = 40):
    """Truncated Poisson(lam) on {0..kmax}, renormalized."""
    from math import exp, factorial
    masses = np.array([exp(-lam) * lam ** k / factorial(k) for k in range(kmax + 1)])
    masses /= masses.sum()
    return law_from_atoms([(float(k), float(m)) for k, m in enumerate(masses)])


def geometric_law(kmax: int = 60):
    """Masses 2^-k at k = 1..kmax, remainder folded into the last atom."""
    ks = np.arange(1, kmax + 1)
    ms = 0.5 ** ks
    ms[-1] += 1.0 - ms.sum()
    return law_from_atoms(list(zip(ks.astype(float), ms)))


def heavy_lattice_law(n: int = 160, seed: int = 5):
    """Atoms on 0.3 + 1.1*{0..n-1}: a heavy atom (mass 0.7) in the middle
    of a smoothed random profile. Im(f e^{-it*0.3}) has hundreds of roots
    per period."""
    rng = np.random.default_rng(seed)
    prof = np.convolve(rng.gamma(2.0, size=n), np.ones(9) / 9.0, mode="same") + 0.05
    masses = 0.3 * prof / prof.sum()
    masses[n // 2] += 0.7
    masses /= masses.sum()
    return law_from_atoms([(0.3 + 1.1 * k, float(m)) for k, m in enumerate(masses)],
                          normalize=True)


def case_1b_law():
    """(law, gamma): mixture case 1b of approximate_mixture on the uniform
    law on [0, 1], an atom of weight 0.3 at the centre node 0.5 and the
    density re-truncated one node short of 1. Im(f e^{-it*0.5}) vanishes
    at rounding level on grid nodes 2*pi*k of the root scan, where the
    grid value and a pointwise value can differ in sign."""
    U = uniform_density(0.0, 1.0)
    F_hat, _ = restrict_density(U, 0.0, 1.0 - U.continuous.grid_step)
    return mix(0.3, point_mass(0.5), F_hat), 0.5
