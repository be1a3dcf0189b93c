import math
import warnings

import numpy as np
import pytest

from qidlab import config, dist
from qidlab.dist import (DensityLaw, DiscreteLaw, Law, continuous_bernoulli,
                         convolve, density_from_callable, is_shift_symmetric, l1_modulus,
                         law_from_atoms, law_from_density, mix, point_mass, restrict_density,
                         support_info, tv_distance, uniform_density)
from qidlab.errors import InputError, LawShapeError, NotLatticeError


class TestTypes:
    def test_atom_rejects_nonpositive_mass(self):
        with pytest.raises(InputError):
            DiscreteLaw(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InputError):
            DiscreteLaw(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))

    def test_discrete_law_mass_and_order(self):
        with pytest.raises(InputError):
            DiscreteLaw(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
        with pytest.raises(InputError):
            DiscreteLaw(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_density_law_invariants(self):
        with pytest.raises(InputError):
            DensityLaw(0.0, 0.1, np.array([0.0, 5.0, 1.0]))  # mass != 1
        with pytest.raises(InputError):
            DensityLaw(0.0, 0.1, np.array([1.0, 9.0, 0.0]) / 1.35)  # end not zero
        with pytest.raises(InputError):
            DensityLaw(0.0, -0.1, np.array([0.0, 10.0, 0.0]))

    def test_nodes_cached_and_read_only(self, uniform01):
        d = uniform01.continuous
        assert d.nodes is d.nodes
        assert not d.nodes.flags.writeable
        assert np.array_equal(d.nodes, d.grid_origin + d.grid_step * np.arange(d.samples.size))

    @pytest.mark.parametrize("pairs", [[(math.nan, 0.5), (1.0, 0.5)],
                                       [(0.0, 0.5), (math.inf, 0.5)],
                                       [(0.0, math.nan), (1.0, 1.0)],
                                       [(0.0, -math.inf), (1.0, 1.0)],
                                       [(0.0, -0.5), (1.0, 1.0)]])
    def test_atoms_must_be_finite(self, pairs):
        with pytest.raises(InputError):
            DiscreteLaw(*np.array(pairs).T)
        with pytest.raises(InputError):
            law_from_atoms(pairs)

    def test_zero_masses_are_dropped(self):
        law = law_from_atoms([(0.0, 0.0), (1.0, 1.0)])
        assert [(a.location, a.mass) for a in law.discrete.atoms] == [(1.0, 1.0)]

    @pytest.mark.parametrize("origin, samples", [
        (0.0, [0.0, math.nan, 2.0, 0.0]),
        (math.nan, [0.0, 2.0, 0.0]),
    ])
    def test_density_must_be_finite(self, origin, samples):
        with pytest.raises(InputError):
            DensityLaw(origin, 0.5, np.array(samples))

    def test_law_shape_constraints(self):
        d = DiscreteLaw(np.array([0.0]), np.array([1.0]))
        with pytest.raises(InputError):
            Law(0.0, d, None)
        with pytest.raises(InputError):
            Law(0.5, d, None)

    def test_lattice_params(self):
        law = law_from_atoms([(0.5, 0.25), (1.5, 0.5), (3.5, 0.25)])
        fit = law.discrete.lattice_params()
        assert fit.a == 0.5
        assert fit.b == pytest.approx(1.0, abs=1e-12)
        alpha = math.sqrt(2.0)
        bad = law_from_atoms([(1.0, 1 / 3), (alpha, 1 / 3), (1 + alpha, 1 / 3)])
        with pytest.raises(NotLatticeError):
            bad.discrete.lattice_params()

    def test_lattice_fit_matches_euclid_loop(self, monkeypatch):
        def euclid(diffs, tol):
            g = 0.0
            for d in diffs:
                a, b = max(abs(d), g), min(abs(d), g)
                while b > tol:
                    a, b = b, abs(a - b * round(a / b))
                g = a
            return float(g)

        rng = np.random.default_rng(7)
        alpha = math.sqrt(2.0)
        supports = [
            [0.3 + 1.1 * k for k in range(160)],             # contiguous
            [-2.5 + 0.7 * k for k in (0, 1, 4, 5, 9, 30)],   # gapped, first gap one step
            [0.25 * k for k in (0, 2, 3, 7)],                # first gap two steps
            [1.0, alpha, 1.0 + alpha],                       # not a lattice
            sorted(rng.uniform(-3.0, 3.0, 12)),              # not a lattice
            [4.2],                                           # one atom
        ]
        for locs in supports:
            atoms = [(x, 1.0 / len(locs)) for x in locs]
            fast = law_from_atoms(atoms, normalize=True).discrete.lattice_fit
            with monkeypatch.context() as m:
                m.setattr(dist, "_approx_gcd", euclid)
                slow = law_from_atoms(atoms, normalize=True).discrete.lattice_fit
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert (fast.a, fast.b) == (slow.a, slow.b) and np.array_equal(fast.ks, slow.ks)
        assert law_from_atoms([(0.25 * k, 0.25) for k in (0, 2, 3, 7)]).discrete.lattice_fit.b \
            == pytest.approx(0.25, abs=1e-15)


class TestSupport:
    def test_degenerate(self):
        info = support_info(point_mass(3.0))
        assert (info.lext, info.rext, info.cext) == (3.0, 3.0, 3.0)

    def test_two_atoms(self, fair_bernoulli):
        info = support_info(fair_bernoulli)
        assert (info.lext, info.rext, info.cext) == (0.0, 1.0, 0.5)

    def test_continuous_bernoulli_support(self):
        law = continuous_bernoulli(0.4, 1.0, "plus")
        info = support_info(law)
        assert info.lext == pytest.approx(0.0, abs=1e-15)
        assert info.rext == pytest.approx(1.0, abs=1e-12)
        assert info.cext == pytest.approx(0.5, abs=1e-12)


class TestShiftSymmetry:
    def test_fair_is_symmetric(self, fair_bernoulli):
        assert is_shift_symmetric(fair_bernoulli)

    def test_unequal_masses(self, skewed_two_atom):
        assert not is_shift_symmetric(skewed_two_atom)

    def test_uniform_density_symmetric(self, uniform01):
        assert is_shift_symmetric(uniform01)

    def test_continuous_bernoulli_not_symmetric(self):
        assert not is_shift_symmetric(continuous_bernoulli(0.4, 1.0, "plus"))

    @pytest.mark.parametrize("law, expected", [
        (law_from_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]), True),
        (law_from_atoms([(0.0, 0.2), (1.0, 0.5), (2.0, 0.3)]), False),
        (law_from_atoms([(0.0, 0.25), (1.0, 0.5), (3.0, 0.25)]), False),
        (law_from_atoms([(0.0, 0.25), (1.0, 0.25), (2.0, 0.5)]), False),
        # the middle atom misses the centre by 0.9e-9 and 1.1e-9: its
        # mirror lies 1.8e-9 and 2.2e-9 away, against loc_tol = 2e-9
        (law_from_atoms([(0.0, 0.25), (1.0 + 0.9e-9, 0.5), (2.0, 0.25)]), True),
        (law_from_atoms([(0.0, 0.25), (1.0 + 1.1e-9, 0.5), (2.0, 0.25)]), False),
        # loc_tol = 1e-9 * width = 1e-5 on a support of width 1e4
        (law_from_atoms([(0.0, 0.25), (5e3 + 0.4e-5, 0.5), (1e4, 0.25)]), True),
        (law_from_atoms([(0.0, 0.25), (5e3 + 0.6e-5, 0.5), (1e4, 0.25)]), False),
        # mirrored masses differ by 0.9e-9 and 1.1e-9, against tol = 1e-9
        (law_from_atoms([(0.0, 0.25 + 0.9e-9), (1.0, 0.5 - 0.9e-9), (2.0, 0.25)]), True),
        (law_from_atoms([(0.0, 0.25 + 1.1e-9), (1.0, 0.5 - 1.1e-9), (2.0, 0.25)]), False),
        (mix(0.5, law_from_atoms([(0.0, 0.5), (1.0, 0.5)]), uniform_density(0.0, 1.0)), True),
        (mix(0.5, law_from_atoms([(0.0, 0.2), (1.0, 0.8)]), uniform_density(0.0, 1.0)), False),
        (mix(0.3, point_mass(0.25), uniform_density(0.0, 1.0)), False),
        (Law(1.0, DiscreteLaw(np.arange(20_000.0), np.full(20_000, 1 / 20_000)), None), True),
    ])
    def test_matches_per_atom_search(self, law, expected):
        assert is_shift_symmetric(law) == shift_symmetric_by_atom_search(law) == expected


def shift_symmetric_by_atom_search(F: Law, tol: float = config.SHIFT_SYMMETRY_TOL) -> bool:
    """Oracle for is_shift_symmetric: each atom x looks up its mirror
    2c - x among its two sorted neighbours and compares masses."""
    info = support_info(F)
    c = info.cext
    width = max(info.rext - info.lext, 1.0)
    if F.discrete is not None:
        locs, masses = F.discrete.locations, F.discrete.masses
        loc_tol = max(config.ATOM_MERGE_TOL, 1e-9 * width)
        for x, m in zip(locs, masses):
            j = np.searchsorted(locs, 2.0 * c - x)
            ok = False
            for k in (j - 1, j):
                if 0 <= k < len(locs) and abs(locs[k] - (2.0 * c - x)) <= loc_tol:
                    ok = abs(masses[k] - m) <= tol * max(1.0, m)
            if not ok:
                return False
    if F.continuous is not None:
        d = F.continuous
        xs = np.union1d(d.nodes, 2.0 * c - d.nodes)
        if np.max(np.abs(d.pdf(xs) - d.pdf(2.0 * c - xs))) > tol * max(np.max(d.samples), 1.0):
            return False
    return True


class TestMix:
    def test_full_weight_returns_first(self, fair_bernoulli, uniform01):
        assert mix(1.0, fair_bernoulli, uniform01) is fair_bernoulli

    def test_half_mix_of_points(self):
        law = mix(0.5, point_mass(0.0), point_mass(1.0))
        assert [(a.location, a.mass) for a in law.discrete.atoms] == [(0.0, 0.5), (1.0, 0.5)]

    def test_weighted_mix_arithmetic(self, fair_bernoulli):
        law = mix(0.01, point_mass(0.0), fair_bernoulli)
        masses = {a.location: a.mass for a in law.discrete.atoms}
        assert masses[0.0] == pytest.approx(0.505, abs=1e-15)
        assert masses[1.0] == pytest.approx(0.495, abs=1e-15)


class TestConvolve:
    def test_shift_by_point_mass(self, fair_bernoulli):
        out = convolve(point_mass(2.5), fair_bernoulli)
        locs = [a.location for a in out.discrete.atoms]
        assert locs == [2.5, 3.5]

    @pytest.mark.parametrize("atoms, said", [
        ([(0.0, 0.5), (1e9, 0.5)], "atom copies needs 1.024e\\+12 grid points"),
        ([(0.0, 0.5), (1e25, 0.5)], "atom copies needs 1.024e\\+28 grid points"),
        ([(1e16, 1.0)], "atom offset grid needs 1.024e\\+19 grid points"),
    ], ids=["1e9", "1e25", "one_atom_1e16"])
    def test_far_atom_copies_refused_before_the_cast(self, atoms, said):
        # copies of a 1024-cell density shifted over 2^10 steps per unit:
        # counted, and the offsets bounded, before any int64 cast or array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=said):
                convolve(law_from_atoms(atoms), uniform_density(0.0, 1.0))

    def test_binomial(self, fair_bernoulli):
        out = convolve(fair_bernoulli, fair_bernoulli)
        atoms = [(a.location, a.mass) for a in out.discrete.atoms]
        assert atoms == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]

    def test_support_bounds_add(self, uniform01):
        minus = continuous_bernoulli(0.4, 0.25, "minus")
        out = convolve(uniform01, minus)
        info = support_info(out)
        # within one step of the coarser operand grid: its boundary ramp
        # becomes visible when resampled onto the finer common grid
        h = max(uniform01.continuous.grid_step, minus.continuous.grid_step)
        assert info.lext == pytest.approx(-0.25, abs=1.5 * h)
        assert info.rext == pytest.approx(1.0, abs=1.5 * h)

    def test_mass_preserved(self, uniform01, truncated_normal):
        out = convolve(uniform01, truncated_normal)
        d = out.continuous
        assert d.grid_step * d.samples.sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_convolution_matches_quadrature_oracle(self):
        # conv of two uniforms on [0,1] is the triangle on [0,2]
        u = uniform_density(0.0, 1.0, cells=512)
        out = convolve(u, u)
        d = out.continuous
        xs = d.nodes
        triangle = np.where(xs < 1.0, np.maximum(xs, 0.0), np.maximum(2.0 - xs, 0.0))
        assert np.max(np.abs(d.samples - triangle)) < 5e-3



def _bumpy_density(origin, step, n, seed):
    """A positive random profile on n nodes, zero at both ends."""
    vals = np.random.default_rng(seed).uniform(0.2, 1.0, n)
    vals[0] = vals[-1] = 0.0
    return dist._grid_density(origin, step, vals)


def _resampled_convolution(d1, d2):
    """Reference: resample both operands onto the finer step, then
    convolve directly."""
    step = min(d1.grid_step, d2.grid_step)
    r1, r2 = dist._resample_density(d1, step), dist._resample_density(d2, step)
    return dist._grid_density(d1.grid_origin + d2.grid_origin, step,
                              np.convolve(r1.samples, r2.samples) * step)


def _union_l1(parts1, parts2):
    """Reference: L1 distance of two weighted density sums on the sorted
    union of every node, cell by cell."""
    xs = np.unique(np.concatenate([d.nodes for _, d in parts1 + parts2]))
    diff = (sum(w * d.pdf(xs) for w, d in parts1)
            - sum(w * d.pdf(xs) for w, d in parts2))
    a, b = diff[:-1], diff[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        cross = np.where(a * b < 0, (a * a + b * b) / (np.abs(a) + np.abs(b)), 0.0)
    cells = np.where(a * b < 0, cross, np.abs(a) + np.abs(b))
    return float(np.sum(0.5 * np.diff(xs) * cells))


class TestNestedGrids:
    @pytest.mark.parametrize("m", [1, 2, 3, 64])
    @pytest.mark.parametrize("coarse_first", [True, False])
    def test_convolution_matches_resampled_reference(self, m, coarse_first, monkeypatch):
        calls = []
        polyphase = dist._polyphase_convolve
        monkeypatch.setattr(dist, "_polyphase_convolve",
                            lambda *a: calls.append(a) or polyphase(*a))
        h = 0.01
        coarse = _bumpy_density(-0.537, h, 41, seed=m)
        fine = _bumpy_density(0.213, h / m, 3 * m + 20, seed=m + 100)
        d1, d2 = (coarse, fine) if coarse_first else (fine, coarse)
        out = dist._convolve_densities(d1, d2)
        ref = _resampled_convolution(d1, d2)
        assert len(calls) == (m > 1)
        assert out.grid_origin == ref.grid_origin
        assert out.grid_step == ref.grid_step
        assert out.samples.size == ref.samples.size
        assert np.max(np.abs(out.samples - ref.samples)) <= 1e-13 * np.max(ref.samples)

    def test_same_step_long_pair_uses_fft(self, monkeypatch):
        calls = []
        fft = dist.fftconvolve
        monkeypatch.setattr(dist, "fftconvolve", lambda *a: calls.append(a) or fft(*a))
        d1 = _bumpy_density(0.0, 1e-3, 2000, seed=1)
        d2 = _bumpy_density(0.5, 1e-3, 2000, seed=2)
        out = dist._convolve_densities(d1, d2)
        assert len(calls) == 1
        assert out.grid_step * out.samples.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("steps, offsets, nested", [
        ((0.01, 0.0025, 0.005), (0.0, 7, 3), True),
        ((0.01, 0.01 / 3, 0.01), (0.0, 5, 11), True),
        ((0.01, 0.0037, 0.01), (0.0, 5, 11), False),
        ((0.01, 0.01, 0.01), (0.0, 0.5, 2), False),
    ], ids=["dyadic", "thirds", "incommensurate", "half-step-offset"])
    def test_l1_matches_union_reference(self, steps, offsets, nested):
        # each part's origin is -1.234 plus offsets[j] of the finest step
        finest = min(steps)
        ds = [_bumpy_density(-1.234 + k * finest, h, n, seed=i)
              for i, (h, k, n) in enumerate(zip(steps, offsets, (60, 150, 90)))]
        parts1 = [(0.3, ds[0]), (0.7, ds[1])]
        parts2 = [(1.0, ds[2])]
        assert (dist._nested_sum(parts1 + parts2) is not None) == nested
        value, bound = dist._density_l1(parts1, parts2)
        assert value == pytest.approx(_union_l1(parts1, parts2), abs=1e-14)
        assert bound < 1e-10

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_kernel_nodes_on_step_lattice(self, side):
        step = 0.1 / 256 * 1.37
        d = continuous_bernoulli(0.4, 0.1, side, step=step).continuous
        k = d.grid_origin / step
        assert abs(k - round(k)) < 1e-9

    def test_grid_atom_shifts_kernel_exactly(self):
        F = dist.density_from_callable(lambda x: 1.0 + x * x, 0.1234, 1.1234, cells=64)
        h = F.continuous.grid_step
        K = continuous_bernoulli(0.4, 0.1, "plus", step=h / 8)
        k = K.continuous
        delta, gamma = 0.05, float(F.continuous.nodes[5])
        out = convolve(mix(delta, point_mass(gamma), F), K).continuous
        smooth = convolve(F, K).continuous
        assert out.grid_step == smooth.grid_step == k.grid_step
        assert out.grid_origin == smooth.grid_origin
        copy = out.samples.copy()
        copy[:smooth.samples.size] -= (1.0 - delta) * smooth.samples
        shift = 5 * 8
        expected = np.zeros_like(copy)
        expected[shift:shift + k.samples.size] = delta * k.samples
        assert np.max(np.abs(copy - expected)) <= 1e-15


# atoms 5e-13 apart lie within config.ATOM_MERGE_TOL and merge onto the
# leftmost location
CLOSE = 5e-13


@pytest.mark.parametrize("build, expected", [
    (lambda: law_from_atoms([(0.0, 0.25), (CLOSE, 0.25), (1.0, 0.5)]),
     [(0.0, 0.5), (1.0, 0.5)]),
    (lambda: mix(0.5, law_from_atoms([(0.0, 0.5), (1.0, 0.5)]),
                 law_from_atoms([(CLOSE, 0.5), (1.0, 0.5)])),
     [(0.0, 0.5), (1.0, 0.5)]),
    (lambda: convolve(law_from_atoms([(0.0, 0.5), (1.0, 0.5)]),
                      law_from_atoms([(0.0, 0.5), (1.0 + CLOSE, 0.5)])),
     [(0.0, 0.25), (1.0, 0.5), (1.0 + (1.0 + CLOSE), 0.25)]),
], ids=["law_from_atoms", "mix", "convolve"])
def test_close_atoms_merge_onto_leftmost(build, expected):
    law = build()
    assert [(a.location, a.mass) for a in law.discrete.atoms] == expected
    shifted = law_from_atoms([(x + CLOSE, m) for x, m in expected])
    assert tv_distance(law, shifted) == (0.0, 0.0)
    assert tv_distance(shifted, law) == (0.0, 0.0)


class TestShiftScale:
    def test_plus_kernel_support(self):
        law = continuous_bernoulli(0.4, 0.5, "plus")
        info = support_info(law)
        assert info.lext == pytest.approx(0.0, abs=1e-15)
        assert info.rext == pytest.approx(0.5, abs=1e-12)

    def test_minus_kernel_support(self):
        law = continuous_bernoulli(0.4, 0.5, "minus")
        info = support_info(law)
        assert info.lext == pytest.approx(-0.5, abs=1e-12)
        assert info.rext == pytest.approx(0.0, abs=1e-15)


class TestGridBudget:
    """Every held density grid is counted and capped at TABLE_ENTRIES
    points before it is built (here lowered to 101)."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(dist, "TABLE_ENTRIES", 101)

    def test_sampled_density(self):
        ones = lambda x: np.ones_like(x)
        assert density_from_callable(ones, 0.0, 1.0, step=0.01).continuous.samples.size == 103
        with pytest.raises(InputError, match="density grid needs 102 grid points"):
            density_from_callable(ones, 0.0, 1.0, step=1.0 / 101)
        with pytest.raises(InputError, match="density grid needs 1e\\+300 grid points"):
            density_from_callable(ones, 0.0, 1.0, step=1e-300)

    def test_minus_kernel(self):
        continuous_bernoulli(0.4, 1.0, "minus", step=0.01)
        with pytest.raises(InputError, match="kernel grid needs 102 grid points"):
            continuous_bernoulli(0.4, 1.0, "minus", step=1.0 / 101)

    def test_convolution(self):
        def flat(n):
            s = np.ones(n)
            s[[0, -1]] = 0.0
            return law_from_density(0.0, 0.25, s / (0.25 * s.sum()))

        # 50 + 50 cells convolve onto 100 cells, 101 points; 50 + 51 do not fit
        assert convolve(flat(51), flat(51)).continuous.samples.size == 101
        with pytest.raises(InputError, match="convolution grid needs 102 grid points"):
            convolve(flat(51), flat(52))

    def test_atom_copies(self):
        # atoms 0 and L shift copies of a 3-cell density over 4L + 6 cells
        dens = law_from_density(0.0, 0.25, [0.0, 2.0, 2.0, 0.0])
        assert convolve(law_from_atoms([(0.0, 0.5), (23.5, 0.5)]), dens).continuous \
            .samples.size == 100
        with pytest.raises(InputError, match="atom copies needs 102 grid points"):
            convolve(law_from_atoms([(0.0, 0.5), (23.75, 0.5)]), dens)

    def test_far_apart_densities(self):
        # their finest common grid spans 4e9 steps: mixing them is refused,
        # and TV reads the union of their nodes instead
        near, far = (law_from_density(x, 0.25, [0.0, 2.0, 2.0, 0.0]) for x in (0.0, 1e9))
        with pytest.raises(InputError, match="density sum grid needs 4e\\+09 grid points"):
            mix(0.5, near, far)
        value, bound = tv_distance(near, far)
        assert value == pytest.approx(2.0, abs=1e-12) and bound < 1e-12


class TestTV:
    def test_identity(self, fair_bernoulli, uniform01):
        assert tv_distance(fair_bernoulli, fair_bernoulli) == (0.0, 0.0)
        value, bound = tv_distance(uniform01, uniform01)
        assert value <= bound <= 1e-10

    def test_fair_vs_point(self, fair_bernoulli):
        value, bound = tv_distance(fair_bernoulli, point_mass(0.0))
        assert value == pytest.approx(1.0, abs=1e-15)
        assert bound == 0.0

    def test_delta_mix_identity(self, skewed_two_atom):
        # tv(F, delta-mix of F with point mass) = delta * tv(F, point mass)
        delta = 0.0375
        mixed = mix(delta, point_mass(0.0), skewed_two_atom)
        lhs, _ = tv_distance(skewed_two_atom, mixed)
        ref, _ = tv_distance(skewed_two_atom, point_mass(0.0))
        assert lhs == pytest.approx(delta * ref, abs=1e-14)

    def test_disjoint_supports(self, uniform01):
        shifted = uniform_density(5.0, 6.0)
        value, bound = tv_distance(uniform01, shifted)
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_cross_terms_atom_vs_density(self, uniform01):
        value, _ = tv_distance(point_mass(0.5), uniform01)
        assert value == pytest.approx(2.0, abs=1e-10)

    def test_metric_axioms_randomized(self):
        rng = np.random.default_rng(7)
        laws = []
        for _ in range(4):
            locs = np.sort(rng.choice(np.arange(6), size=3, replace=False)).astype(float)
            ms = rng.dirichlet(np.ones(3))
            laws.append(law_from_atoms(list(zip(locs, ms))))
        for F in laws:
            for G in laws:
                vfg, bfg = tv_distance(F, G)
                vgf, _ = tv_distance(G, F)
                assert vfg == pytest.approx(vgf, abs=1e-14)
                for H in laws:
                    vfh, _ = tv_distance(F, H)
                    vhg, _ = tv_distance(H, G)
                    assert vfg <= vfh + vhg + 1e-12

    def test_convolution_contracts_tv(self, fair_bernoulli, skewed_two_atom, uniform01):
        base, _ = tv_distance(fair_bernoulli, skewed_two_atom)
        for H in (point_mass(2.0), law_from_atoms([(0.0, 0.3), (2.0, 0.7)]), uniform01):
            value, bound = tv_distance(convolve(fair_bernoulli, H),
                                       convolve(skewed_two_atom, H))
            assert value <= base + bound + 1e-9


class TestL1Modulus:
    def test_zero_shift(self, uniform01):
        assert l1_modulus(uniform01, 0.0) == 0.0

    def test_uniform_half_shift(self, uniform01):
        h = uniform01.continuous.grid_step
        assert l1_modulus(uniform01, 0.5) == pytest.approx(1.0, abs=3 * h)

    def test_bounded_by_two(self, uniform01, truncated_normal):
        for law in (uniform01, truncated_normal):
            for u in (0.1, 0.9, 3.0, 50.0):
                assert 0.0 <= l1_modulus(law, u) <= 2.0 + 1e-12

    def test_subadditive_continuity(self, truncated_normal):
        # |D(u) - D(u0)| <= D(u - u0)
        for u, u0 in ((0.5, 0.3), (1.0, 0.25), (0.2, -0.1)):
            lhs = abs(l1_modulus(truncated_normal, u) - l1_modulus(truncated_normal, u0))
            assert lhs <= l1_modulus(truncated_normal, u - u0) + 1e-9

    def test_requires_density(self, fair_bernoulli):
        with pytest.raises(LawShapeError):
            l1_modulus(fair_bernoulli, 0.5)


class TestContinuousBernoulli:
    def test_normalizing_constant(self):
        # C_q = log(q/(1-q)) / (2q - 1); independent quadrature check
        q = 0.4
        c_q = math.log(q / (1 - q)) / (2 * q - 1)
        assert c_q == pytest.approx(2.027326, abs=1e-6)
        xs = np.linspace(0.0, 1.0, 100001)
        integral = np.trapezoid(q ** xs * (1 - q) ** (1 - xs), xs)
        assert c_q * integral == pytest.approx(1.0, abs=1e-8)

    def test_unit_mass(self):
        for q in (0.1, 0.3, 0.4, 0.7, 0.95):
            law = continuous_bernoulli(q, 1.0, "plus")
            d = law.continuous
            assert d.grid_step * d.samples.sum() == pytest.approx(1.0, abs=1e-10)

    def test_q_half_rejected(self):
        with pytest.raises(InputError):
            continuous_bernoulli(0.5, 1.0, "plus")
        with pytest.raises(InputError):
            continuous_bernoulli(0.5 + 1e-4, 1.0, "plus")

    def test_smoothing_tv_decreases_along_tau_ladder(self, uniform01):
        values = []
        for tau in (0.4, 0.2, 0.1, 0.05):
            kernel = continuous_bernoulli(0.4, tau, "plus")
            value, _ = tv_distance(uniform01, convolve(uniform01, kernel))
            values.append(value)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]
        assert values[-1] < 0.2


class TestRestrict:
    def test_truncation_noop_inside(self, uniform01):
        out, kept = restrict_density(uniform01, -5.0, 5.0)
        assert kept == pytest.approx(1.0, abs=1e-12)
        value, bound = tv_distance(out, uniform01)
        assert value <= bound + 1e-12

    def test_asymmetric_restriction(self, uniform01):
        out, kept = restrict_density(uniform01, -1.0, 0.75)
        assert kept == pytest.approx(0.75, abs=2e-3)
        info = support_info(out)
        assert info.rext <= 0.75 + 1e-12
