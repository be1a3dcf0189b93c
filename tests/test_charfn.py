import math

import numpy as np
import pytest

from qidlab import charfn, config
from qidlab._fft import TaylorTable
from qidlab.charfn import (CharFn, decay_window, imag_zero_scan, min_modulus_scan,
                           parabolic_polish)
from qidlab.dist import (Law, continuous_bernoulli, convolve, law_from_atoms, mix,
                         point_mass, uniform_density)
from qidlab.errors import IdenticallyZeroImagError, InputError, LawShapeError
from qidlab.pipelines import approximate_abs_cont
from qidlab.zerofree import _root_scan_step
from conftest import case_1b_law, heavy_lattice_law


class TestEval:
    def test_point_mass_at_pi(self):
        f = CharFn(point_mass(2.0))
        assert f(math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_fair_bernoulli_zero_at_pi(self, fair_bernoulli):
        f = CharFn(fair_bernoulli)
        assert abs(f(math.pi)) < 1e-15

    def test_unit_at_origin(self, fair_bernoulli, uniform01, truncated_normal):
        for law in (fair_bernoulli, uniform01, truncated_normal,
                    mix(0.3, fair_bernoulli, uniform01)):
            assert CharFn(law)(0.0) == pytest.approx(1.0, abs=1e-10)

    def test_modulus_bounded_and_conjugate_symmetric(self, uniform01, skewed_two_atom):
        ts = np.linspace(-30.0, 30.0, 501)
        for law in (uniform01, skewed_two_atom, mix(0.4, skewed_two_atom, uniform01)):
            f = CharFn(law)
            vals = f(ts)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-10
            assert np.max(np.abs(f(-ts) - np.conj(vals))) < 1e-12

    def test_grid_path_matches_direct(self, uniform01, fair_bernoulli):
        law = mix(0.25, fair_bernoulli, uniform01)
        f = CharFn(law)
        grid = f.eval_grid(-3.0, 0.0173, 400)
        direct = f(-3.0 + 0.0173 * np.arange(400))
        assert np.max(np.abs(grid - direct)) < 1e-11

    def test_tiny_block_budget_agrees(self, monkeypatch, skewed_two_atom, truncated_normal):
        law = mix(0.3, skewed_two_atom, truncated_normal)
        ts = np.linspace(-25.0, 25.0, 1201)
        f, pure = CharFn(law), CharFn(Law(0.0, None, law.continuous))
        ref = (f(ts), pure(ts), f.eval_grid(-25.0, 0.05, 1001))
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 7)
        got = (f(ts), pure(ts), f.eval_grid(-25.0, 0.05, 1001))
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_dense_blocks_within_budget(self, monkeypatch, skewed_two_atom, truncated_normal):
        law = mix(0.3, skewed_two_atom, truncated_normal)
        f, pure = CharFn(law), CharFn(Law(0.0, None, law.continuous))
        # one Horner column per Taylor order of the atom and node tables
        node_width = law.continuous.node_table.order + 1
        width = f._atom_table.order + 1 + node_width
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 3 * width)
        rows, pure_rows = [], []
        for cf, seen in ((f, rows), (pure, pure_rows)):
            for name in ("_atom_sum", "_node_sum"):
                part = getattr(cf, name)
                monkeypatch.setattr(cf, name,
                                    lambda t, part=part, seen=seen: seen.append(t.size) or part(t))
        ts = np.linspace(-5.0, 5.0, 100)
        f(ts)
        pure(ts)
        f.eval_grid(-5.0, 0.1, 100)
        # __call__ and eval_grid evaluate both parts of the mixture, the
        # pure density law its nodes alone
        assert sum(rows) == 4 * ts.size and sum(pure_rows) == ts.size
        assert max(rows) * width <= charfn.BLOCK_ENTRIES
        assert max(pure_rows) * node_width <= charfn.BLOCK_ENTRIES

    def test_multiplicativity_discrete(self, fair_bernoulli, skewed_two_atom):
        out = convolve(fair_bernoulli, skewed_two_atom)
        ts = np.linspace(-8.0, 8.0, 257)
        lhs = CharFn(out)(ts)
        rhs = CharFn(fair_bernoulli)(ts) * CharFn(skewed_two_atom)(ts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_multiplicativity_density(self):
        u = uniform_density(0.0, 1.0, cells=4096)
        b = continuous_bernoulli(0.4, 1.0, "plus", step=1.0 / 4096)
        out = convolve(u, b)
        ts = np.linspace(-4.0, 4.0, 161)
        lhs = CharFn(out)(ts)
        rhs = CharFn(u)(ts) * CharFn(b)(ts)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def direct_atoms(law, t):
    """Reference atom sum: one complex exponential per (t, atom)."""
    locs, masses = law.discrete.locations, law.discrete.masses
    return np.array([np.sum(masses * np.exp(1j * tt * locs)) for tt in t])


def direct_density(law, t):
    """Reference density CF: h * sinc(th/2)^2 * exp(itx) summed over nodes."""
    d = law.continuous
    nodes = d.grid_origin + d.grid_step * np.arange(d.samples.size)
    kernel = np.sinc(t * d.grid_step / (2.0 * np.pi)) ** 2
    return kernel * np.array([np.sum(d.grid_step * d.samples * np.exp(1j * tt * nodes))
                              for tt in t])


GAPPED = [(-2.7 + 0.35 * k, m) for k, m in zip((0, 1, 4, 5, 9, 17),
                                                 (0.1, 0.25, 0.05, 0.3, 0.2, 0.1))]


class TestPowerTable:
    """Lattice atoms and density nodes go through a Taylor table of
    their coefficients; other atom sets through the dense exp(itx)
    product."""

    @pytest.mark.parametrize("law", [
        heavy_lattice_law(),
        law_from_atoms(GAPPED),                    # gaps, negative offset
        law_from_atoms([(0.0, 0.2), (1.0, 0.8)]),
    ], ids=["heavy_lattice", "gapped_negative_offset", "two_atom"])
    def test_lattice_matches_direct_sum(self, law):
        f = CharFn(law)
        assert f._lattice is not None
        # two periods of the heavy lattice; both sums round like eps*|t*x|
        ts = np.linspace(-12.0, 12.0, 1601)
        assert np.max(np.abs(f(ts) - direct_atoms(law, ts))) <= 1e-12
        grid = f.eval_grid(-12.0, 0.015, 1601)
        assert np.max(np.abs(grid - direct_atoms(law, ts))) <= 1e-12

    @pytest.mark.parametrize("atoms", [
        [(1.0, 1 / 3), (math.sqrt(2.0), 1 / 3), (1.0 + math.sqrt(2.0), 1 / 3)],
        [(0.0, 0.5), (1.0, 0.25), (50.0, 0.25)],   # 51 terms for 3 atoms
        [(0.0, 0.5), (1.0, 0.25), (2.0 + 1e-10, 0.25)],  # lattice only at 1e-9
    ], ids=["non_lattice", "sparse_lattice", "misfit_lattice"])
    def test_dense_fallback_matches_direct_sum(self, atoms):
        law = law_from_atoms(atoms)
        f = CharFn(law)
        assert f._lattice is None
        ts = np.linspace(-5e3, 5e3, 2001)
        assert np.max(np.abs(f(ts) - direct_atoms(law, ts))) <= 1e-12
        grid = f.eval_grid(-5e3, 5.0, 2001)
        assert np.max(np.abs(grid - direct_atoms(law, ts))) <= 1e-12

    def test_fill_cut_off(self):
        # degree + 1 = LATTICE_FILL_MAX * atoms is the last lattice on the table
        last = 3.0 * charfn.LATTICE_FILL_MAX - 1.0
        for top, on_table in ((last, True), (last + 1.0, False)):
            law = law_from_atoms([(0.0, 0.5), (1.0, 0.25), (top, 0.25)])
            assert (CharFn(law)._lattice is not None) == on_table

    def test_large_density_matches_direct_sum(self, truncated_normal):
        out = approximate_abs_cont(truncated_normal, 0.05, 0.4, 0.5, "plus").approximant
        assert 15_000 < out.continuous.samples.size < 20_000
        f = CharFn(out)
        ts = np.linspace(-300.0, 300.0, 241)
        ref = direct_density(out, ts)
        assert np.max(np.abs(f(ts) - ref)) <= 1e-12
        pure = CharFn(Law(0.0, None, out.continuous))
        assert np.max(np.abs(pure(ts) - ref)) <= 1e-12

    def test_mixture_matches_direct_sum(self, uniform01):
        law = mix(0.3, law_from_atoms(GAPPED), uniform01)
        ts = np.linspace(-60.0, 60.0, 481)
        ref = 0.3 * direct_atoms(law, ts) + 0.7 * direct_density(law, ts)
        assert np.max(np.abs(CharFn(law)(ts) - ref)) <= 1e-12

    def test_gapped_lattice_blocks_within_budget(self, monkeypatch):
        law = law_from_atoms(GAPPED)
        ts = np.linspace(-40.0, 40.0, 301)
        f = CharFn(law)
        ref = (f(ts), f.eval_grid(-40.0, 0.1, 801))
        cols = f._atom_table.order + 1              # Horner columns, not 6 atoms
        assert cols != 6
        budget = 2 * cols + 5
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", budget)
        entries = []
        evaluate = TaylorTable.__call__
        monkeypatch.setattr(TaylorTable, "__call__", lambda table, t: (
            entries.append((t.size, table.order + 1)) or evaluate(table, t)))
        got = (f(ts), f.eval_grid(-40.0, 0.1, 801))
        assert {c for _, c in entries} == {cols}
        assert max(r * c for r, c in entries) <= budget
        assert sum(r for r, _ in entries) == ts.size + 801
        for a, b in zip(ref, got):
            assert np.max(np.abs(a - b)) < 1e-13


class TestMinModulusScan:
    def test_point_mass_has_unit_modulus(self):
        cert = min_modulus_scan(CharFn(point_mass(1.7)), 4.0, 0.01)
        assert cert.min_modulus == pytest.approx(1.0, abs=1e-12)

    def test_fair_bernoulli_zero_found(self, fair_bernoulli):
        cert = min_modulus_scan(CharFn(fair_bernoulli), 4.0, 0.01)
        assert cert.min_modulus < 1e-8
        assert abs(abs(cert.argmin_t) - math.pi) < 1e-6

    def test_two_thirds_floor(self, two_thirds_law):
        cert = min_modulus_scan(CharFn(two_thirds_law), 4.0, 0.01)
        assert cert.min_modulus == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert abs(abs(cert.argmin_t) - math.pi) < 1e-6

    def test_monotone_in_window(self, skewed_two_atom):
        f = CharFn(skewed_two_atom)
        m1 = min_modulus_scan(f, 2.0, 0.01).min_modulus
        m2 = min_modulus_scan(f, 8.0, 0.01).min_modulus
        assert m2 <= m1 + 1e-15

    def test_lattice_periodicity(self, skewed_two_atom):
        f = CharFn(skewed_two_atom)
        period = 2.0 * math.pi
        m1 = min_modulus_scan(f, period, 0.005).min_modulus
        m3 = min_modulus_scan(f, 3 * period, 0.005).min_modulus
        assert m1 == pytest.approx(m3, abs=1e-9)

    def test_rejects_bad_args(self, fair_bernoulli):
        with pytest.raises(InputError):
            min_modulus_scan(CharFn(fair_bernoulli), -1.0, 0.1)

    def test_certificate_never_above_grid_minimum(self, skewed_two_atom, uniform01):
        for law in (skewed_two_atom, uniform01, mix(0.3, skewed_two_atom, uniform01),
                    heavy_lattice_law()):
            f = CharFn(law)
            cert = min_modulus_scan(f, 12.0, 0.03)
            grid = np.abs(f.eval_grid(0.0, 0.03, int(math.ceil(12.0 / 0.03)) + 1))
            assert cert.min_modulus <= grid.min()

    @pytest.mark.parametrize("case", ["lattice_periods", "double_zero"])
    def test_blocks_do_not_change_the_certificate(self, case, monkeypatch):
        # the grid is read in blocks of BLOCK_ENTRIES // 16 points: blocks of
        # 7 give the same certificate, where minima repeat every period
        # (ties across seams) and at the flat minima of a double zero
        if case == "lattice_periods":
            law, T, step = heavy_lattice_law(), 3.0 * 2.0 * math.pi / 1.1, 2.0 * math.pi / 1.1 / 512
        else:
            law, T, step = law_from_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]), 20.0, 0.03
        f = CharFn(law)
        whole = min_modulus_scan(f, T, step)
        sizes = []
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 16 * 7)
        blocked = min_modulus_scan(lambda t: sizes.append(np.size(t)) or f(t), T, step)
        assert blocked == whole
        # grid blocks of 7 points and a neighbour on each side, then polish
        # rounds of three points per bracket
        assert max(sizes) <= 3 * config.REFINE_TOP < T / step


def eight_cell_polish(fn, a, b, c):
    """Oracle for parabolic_polish: multi-section search. Each step
    samples the 7 interior nodes that cut every open bracket into 8
    equal cells and keeps the two cells beside the best node, until the
    bracket is below REFINE_XTOL relative or stops shrinking."""
    a, b, c = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c))
    fa, fb, fc = np.split(np.asarray(fn(np.concatenate((a, b, c)))), 3)
    lo, hi, x_best, f_best = a.copy(), c.copy(), b.copy(), fb.copy()
    width = np.full(a.size, np.inf)
    live = np.nonzero((fb < fa) & (fb < fc))[0]
    for _ in range(200):
        w = hi[live] - lo[live]
        keep = (w > config.REFINE_XTOL * (np.abs(lo[live]) + np.abs(hi[live]))) & (w < width[live])
        live, w = live[keep], w[keep]
        if live.size == 0:
            break
        width[live] = w
        nodes = lo[live, None] + w[:, None] * np.arange(9) / 8
        nodes[:, -1] = hi[live]
        vals = np.asarray(fn(nodes[:, 1:-1].ravel())).reshape(live.size, 7)
        k = np.argmin(vals, axis=1)
        rows = np.arange(live.size)
        lo[live], hi[live] = nodes[rows, k], nodes[rows, k + 2]
        better = vals[rows, k] < f_best[live]
        x_best[live[better]] = nodes[rows[better], k[better] + 1]
        f_best[live[better]] = vals[rows[better], k[better]]
    return x_best, f_best


def counted(fn, calls):
    """fn recording the abscissae of each call in calls."""
    return lambda x: calls.append(np.array(x)) or fn(x)


def polish(fn, a, b, c):
    """parabolic_polish with the bracket values taken from fn first."""
    a, b, c = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c))
    return parabolic_polish(fn, a, b, c, fn(a), fn(b), fn(c))


class TestParabolicPolish:
    def test_known_minima_in_one_batch(self):
        # a V-shaped minimum, as |f| has at a real zero of f
        fn = lambda x: np.abs(np.sin(x - 0.3))
        want = 0.3 + math.pi * np.arange(1, 4)
        x, v = polish(fn, want - 0.4, want + 0.05, want + 0.3)
        assert np.max(np.abs(x - want)) < 1e-10
        assert np.array_equal(v, fn(x))

    def test_one_call_per_step(self):
        calls = []
        fn = lambda x: (x - 1.0) ** 2
        a, b, c = np.array([0.0, 0.5]), np.array([0.9, 0.95]), np.array([2.0, 1.5])
        x, v = parabolic_polish(counted(fn, calls), a, b, c, fn(a), fn(b), fn(c))
        assert np.max(np.abs(x - 1.0)) < 1e-10
        # one call per round, 3 points per open bracket, none of them a
        # point whose value was passed in
        assert 1 <= len(calls) <= 6
        assert all(pts.size <= 6 and pts.size % 3 == 0 for pts in calls)
        assert not np.isin(np.concatenate(calls), np.concatenate((a, b, c))).any()

    def test_non_bracket_returns_middle(self):
        calls = []
        fn = lambda x: (x - 5.0) ** 2
        x, v = polish(counted(fn, calls), [0.0, 4.0], [1.0, 4.9], [2.0, 6.0])
        assert x[0] == 1.0 and v[0] == 16.0
        assert abs(x[1] - 5.0) < 1e-10
        # the three calls of polish() itself, then rounds for the second only
        assert all(pts.size == 3 for pts in calls[3:])

    @pytest.mark.parametrize("case", ["heavy_lattice", "density_mixture"])
    def test_matches_eight_cell_oracle(self, case, monkeypatch, skewed_two_atom, uniform01):
        if case == "heavy_lattice":
            law, T, step = heavy_lattice_law(), 2.0 * math.pi / 1.1, 2.0 * math.pi / 1.1 / 4096
        else:
            law, T, step = mix(0.3, skewed_two_atom, uniform01), 40.0, 0.01
        seen = []
        monkeypatch.setattr(charfn, "parabolic_polish",
                            lambda *args: seen.append(args) or parabolic_polish(*args))
        min_modulus_scan(CharFn(law), T, step)
        fn, a, b, c, fa, fb, fc = seen[0]
        assert a.size == config.REFINE_TOP
        calls = []
        x, v = parabolic_polish(counted(fn, calls), a, b, c, fa, fb, fc)
        _, v_ref = eight_cell_polish(fn, a, b, c)
        assert np.all(v <= v_ref * (1.0 + 1e-14))
        assert np.array_equal(v, fn(x))
        assert len(calls) <= 6
        assert not np.isin(np.concatenate(calls), np.concatenate((a, b, c))).any()

    def test_fair_bernoulli_zero(self, fair_bernoulli):
        f = CharFn(fair_bernoulli)
        fn = lambda t: np.abs(f(t))
        x, v = polish(fn, 3.13, 3.14, 3.15)
        assert v[0] < 1e-15 and abs(x[0] - math.pi) < 1e-9

    def test_flat_minimum_double_zero(self):
        # |f| = cos(t/2)^2 for the law {0: 1/4, 1: 1/2, 2: 1/4}: the double
        # zero at pi makes fn^2 quartic, far from any parabola, and only
        # the midpoint cuts of brackets that stop halving close in on it
        f = CharFn(law_from_atoms([(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]))
        calls = []
        x, v = polish(counted(lambda t: np.abs(f(t)), calls), 3.12, 3.15, 3.18)
        assert v[0] < 1e-16 and abs(x[0] - math.pi) < 1e-8
        # the three calls of polish() itself, then at most 60 rounds
        assert len(calls) <= 3 + 60


class TestDecayWindow:
    def test_requires_density(self, fair_bernoulli):
        with pytest.raises(LawShapeError):
            decay_window(CharFn(fair_bernoulli), 0.1)

    def test_uniform_window_near_envelope(self, uniform01):
        # |f(t)| = |2 sin(t/2) / t| <= 2/|t|: threshold 0.1 crossed near 20
        t_star = decay_window(CharFn(uniform01), 0.1)
        assert 14.0 <= t_star <= 28.0

    def test_smaller_threshold_larger_window(self, uniform01):
        f = CharFn(uniform01)
        assert decay_window(f, 0.05) > decay_window(f, 0.2)

    def test_small_threshold_window_past_2048(self, uniform01):
        # V/theta = 2e4 and sqrt(J/theta) = sqrt(4/(h*theta)) = 6400 for
        # h = 1/1024: the window lies past t = 2048, and
        # the modulus stays below the threshold beyond it
        f = CharFn(uniform01)
        t_star = decay_window(f, 1e-4)
        assert 2048.0 < t_star == pytest.approx(6400.0, rel=1e-3)
        ts = np.linspace(t_star, 1e5, 200_001)[1:]
        assert np.max(np.abs(f(ts))) < 1e-4

    @pytest.mark.parametrize("name", ["uniform01", "truncated_normal", "continuous_bernoulli",
                                      "abs_cont_output"])
    def test_closed_form_tail_bound(self, request, name):
        # |phi_c(t)| <= min(V/|t|, J/t^2) at every t, here up to 1e5,
        # with a rounding allowance of 1e-12
        if name == "continuous_bernoulli":
            law = continuous_bernoulli(0.4, 1.0, "plus", step=1.0 / 4096)
        elif name == "abs_cont_output":
            law = approximate_abs_cont(request.getfixturevalue("truncated_normal"),
                                       0.05, 0.4, 0.5, "plus").approximant
        else:
            law = request.getfixturevalue(name)
        assert law.is_pure_density
        s, h = law.continuous.samples, law.continuous.grid_step
        V = np.sum(np.abs(np.diff(s)))
        J = np.sum(np.abs(np.diff(np.concatenate(([0.0], s, [0.0])), n=2))) / h
        rng = np.random.default_rng(7)
        ts = np.concatenate((np.geomspace(0.5, 1e5, 20_001), rng.uniform(2048.0, 1e5, 4000)))
        ts = np.concatenate((ts, -ts))
        bound = np.minimum(V / np.abs(ts), J / ts ** 2)
        assert np.all(np.abs(CharFn(law)(ts)) <= bound + 1e-12)
        # the window is where that bound meets the threshold
        assert decay_window(CharFn(law), 0.01) == pytest.approx(min(V / 0.01, math.sqrt(J / 0.01)))


def grid_sign_bisection(f0, gamma0, T, step):
    """Oracle for imag_zero_scan: bisect each sign change of the same
    grid alone with scalar CF calls, the end signs taken from the grid."""
    g = lambda t: float(np.imag(f0(t) * np.exp(-1j * gamma0 * t)))
    n = int(math.ceil(T / step))
    ts = step * np.arange(-n, n + 1)
    vals = np.imag(f0.eval_grid(-n * step, step, 2 * n + 1) * np.exp(-1j * gamma0 * ts))
    scale = float(np.max(np.abs(vals)))
    sign = np.sign(vals)
    sign[np.abs(vals) <= 1e-12 * scale] = 0
    roots = [float(t) for t in ts[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        a, b = float(ts[i]), float(ts[i + 1])
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0 or (b - a) < config.REFINE_XTOL:
                a = b = m
                break
            if (sign[i] < 0) == (fm < 0):
                a = m
            else:
                b = m
        r = 0.5 * (a + b)
        if abs(g(r)) <= 1e-7 * scale:
            roots.append(r)
    roots.sort()
    out = []
    for r in roots:
        if not out or r - out[-1] > 10 * config.REFINE_XTOL:
            out.append(r)
    return out


class TestImagZeroScan:
    def test_fair_bernoulli_roots(self, fair_bernoulli):
        roots = imag_zero_scan(CharFn(fair_bernoulli), 0.0, 4.0, 0.05)
        expected = [-math.pi, 0.0, math.pi]
        assert len(roots) == len(expected)
        for r, e in zip(roots, expected):
            assert r == pytest.approx(e, abs=1e-9)

    def test_skewed_roots_at_pi_multiples(self, skewed_two_atom):
        roots = imag_zero_scan(CharFn(skewed_two_atom), 0.0, 7.0, 0.05)
        for r in roots:
            assert abs(r / math.pi - round(r / math.pi)) < 1e-9

    def test_batched_bisection_call_count(self, monkeypatch):
        f = CharFn(heavy_lattice_law())
        calls = []
        orig = CharFn.__call__
        monkeypatch.setattr(CharFn, "__call__",
                            lambda self, t: calls.append(np.size(t)) or orig(self, t))
        roots = imag_zero_scan(f, 0.3, 2.0 * math.pi / 1.1, 0.0022)
        assert len(roots) > 100
        # five interpolation steps and the acceptance call, one step of slack
        assert len(calls) <= 7

    def test_roots_on_grid_nodes_kept(self):
        # Im(f e^{-it*gamma}) is odd in t, so its roots come in pairs +-t;
        # here the roots at +-2*pi*k sit on grid nodes at rounding level
        law, gamma = case_1b_law()
        roots = np.array(imag_zero_scan(CharFn(law), gamma, 40.0, _root_scan_step(law, gamma)))
        assert len(roots) == 13
        assert np.max(np.abs(np.sort(roots) + np.sort(roots)[::-1])) < 1e-9

    def test_roots_match_scalar_bisection(self, skewed_two_atom, truncated_normal):
        # the roots of the case-1b law sit where |Im| is at rounding level
        # (~3e-15 against a slope of ~3e-4), so the computed function
        # changes sign anywhere within ~1e-11 of them
        cases = [(skewed_two_atom, 0.0, 7.0, config.REFINE_XTOL),
                 (heavy_lattice_law(), 0.3, 2.0 * math.pi / 1.1, config.REFINE_XTOL),
                 (mix(0.4, skewed_two_atom, truncated_normal), 0.0, 12.0, config.REFINE_XTOL),
                 (*case_1b_law(), 40.0, 1e-10)]
        for law, gamma, T, tol in cases:
            f = CharFn(law)
            step = _root_scan_step(law, gamma)
            got = imag_zero_scan(f, gamma, T, step)
            want = grid_sign_bisection(f, gamma, T, step)
            assert len(got) == len(want) > 0
            assert np.max(np.abs(np.array(got) - np.array(want))) <= tol

    def test_mirrored_roots_exactly_symmetric(self, skewed_two_atom, truncated_normal):
        # the scan runs over [0, T] and returns each root r with -r
        for law, gamma, T in [(heavy_lattice_law(), 0.3, 2.0 * math.pi / 1.1),
                              (mix(0.4, skewed_two_atom, truncated_normal), 0.0, 12.0)]:
            roots = np.array(imag_zero_scan(CharFn(law), gamma, T, _root_scan_step(law, gamma)))
            assert roots.size % 2 == 1 and roots[roots.size // 2] == 0.0
            assert np.array_equal(roots, -roots[::-1])
            assert np.all(np.diff(roots) > 0)

    def test_grid_capped_before_it_is_evaluated(self, skewed_two_atom, monkeypatch):
        # [0, 4] at step 0.05 is 81 points, held whole: at most 4*BLOCK_ENTRIES
        f = CharFn(skewed_two_atom)
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 21)
        assert imag_zero_scan(f, 0.0, 4.0, 0.05)
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 20)
        monkeypatch.setattr(CharFn, "eval_grid", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(InputError, match="root-scan grid needs 81 grid points"):
            imag_zero_scan(f, 0.0, 4.0, 0.05)

    def test_symmetric_recentered_is_flagged(self, fair_bernoulli):
        with pytest.raises(IdenticallyZeroImagError):
            imag_zero_scan(CharFn(fair_bernoulli), 0.5, 4.0, 0.05)
