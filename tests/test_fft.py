import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import qidlab
from qidlab import _fft, charfn
from qidlab.errors import InputError


def _remainder(c, table, order):
    """sum_k |c_k| a_k^(order+1) / (order+1)!, a_k = |k - kc| pi/N."""
    k = np.arange(c.size) - (c.size - 1) // 2
    a = np.abs(k) * math.pi / table.n_fft
    return float(np.abs(c) @ a ** (order + 1)) / math.factorial(order + 1)


class TestTaylorTable:
    def test_uniform_lattice_matches_direct_sum(self):
        # 20 000 coefficients on -50 + 0.005*k: theta = 0.005*t covers
        # 1.6 periods, and |t*x| <= 5e4 keeps the direct sum itself within
        # 1e-13 of the exact one (the table lands within 1e-15)
        n = 20_000
        c = np.full(n, 1.0 / n)
        table = _fft.TaylorTable(-50.0, 0.005, c)
        rng = np.random.default_rng(11)
        t = np.concatenate((rng.uniform(-1e3, 1e3, 300), [0.0]))
        ref = np.exp(1j * np.outer(t, -50.0 + 0.005 * np.arange(n))) @ c
        assert np.max(np.abs(table(t) - ref)) <= 1e-12

    @pytest.mark.parametrize("c", [
        np.full(20_000, 1 / 20_000),
        np.random.default_rng(3).standard_normal(4097),
        np.array([0.2, 0.8]),
        np.array([1.0]),
        np.zeros(1),
    ], ids=["uniform_20000", "signed_4097", "two_atom", "point", "empty"])
    def test_order_is_least_meeting_remainder_bound(self, c):
        table = _fft.TaylorTable(0.0, 1.0, c)
        assert table.n_fft >= 4 * c.size and table.n_fft & (table.n_fft - 1) == 0
        assert table.table.shape == (table.order + 1, table.n_fft)
        assert table.order <= 13
        floor = 2.0 ** -53 * float(np.abs(c).sum())
        assert _remainder(c, table, table.order) <= floor
        if table.order > 0:
            assert _remainder(c, table, table.order - 1) > floor

    def test_budget_is_sixteen_blocks(self):
        assert _fft.TABLE_ENTRIES == 16 * charfn.BLOCK_ENTRIES

    def test_million_coefficients_refused_before_allocation(self, monkeypatch):
        # N = 2^22 nodes and 14 rows: about 59 M entries, 0.9 GB
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np.fft, "ifft", no_alloc)
        with pytest.raises(InputError, match=str(_fft.TABLE_ENTRIES)):
            _fft.TaylorTable(0.0, 1.0, np.full(10 ** 6, 1e-6))

    def test_table_at_limit_passes_and_past_it_is_refused(self, monkeypatch):
        c = np.full(300, 1 / 300)
        entries = (_fft.TaylorTable(0.0, 1.0, c).order + 1) * 2048
        monkeypatch.setattr(_fft, "TABLE_ENTRIES", entries)
        assert _fft.TaylorTable(0.0, 1.0, c).n_fft == 2048
        monkeypatch.setattr(_fft, "TABLE_ENTRIES", entries - 1)
        with pytest.raises(InputError, match=f"limit of {entries - 1}"):
            _fft.TaylorTable(0.0, 1.0, c)


class TestGridCells:
    def test_counts_cells_and_refuses_past_the_cap(self):
        # 10/0.01 = 1000 cells, 1001 points: at a cap of 1001 it passes
        assert _fft.grid_cells(10.0, 0.01, 1001, "probe") == 1000
        # plain ceil, no slack: (3*0.1)/0.1 rounds to 3 + 4.4e-16
        assert _fft.grid_cells(3 * 0.1, 0.1, 5, "probe") == 4
        with pytest.raises(InputError, match="probe needs 1001 grid points, above the cap of 1000"):
            _fft.grid_cells(10.0, 0.01, 1000, "probe")
        with pytest.raises(InputError, match="probe needs 1e\\+302 grid points"):
            _fft.grid_cells(1e300, 0.01, _fft.MAX_GRID_POINTS, "probe")

    @pytest.mark.parametrize("span, step", [
        (0.0, 0.01), (-1.0, 0.01), (1.0, 0.0), (1.0, -0.01), (1.0, math.inf),
        (math.inf, 0.01), (math.nan, 0.01), (1.0, math.nan), (1e300, 1e-300)])
    def test_no_positive_finite_count_is_refused(self, span, step):
        with pytest.raises(InputError, match="probe of span"):
            _fft.grid_cells(span, step, _fft.MAX_GRID_POINTS, "probe")


def _oracle_min(c, n=1 << 18):
    """min |P| over n equispaced theta: an upper bound on the true minimum."""
    return float(np.min(np.abs(np.fft.fft(c, n))))


def _smoothed_profile(rng, n):
    prof = np.convolve(rng.gamma(2.0, size=n), np.ones(9) / 9.0, mode="same") + 0.05
    return prof / prof.sum()


class TestFloor:
    @pytest.mark.parametrize("n", [80, 128, 200])
    def test_bound_below_oracle_and_least(self, n):
        # mixtures d*e_0 + (1 - d)*profile: minima of |P| from 1e-3 up
        rng = np.random.default_rng(n)
        for d in (0.002, 0.01, 0.05, 0.2):
            c = (1.0 - d) * _smoothed_profile(rng, n)
            c[0] += d
            table = _fft.TaylorTable(0.0, 1.0, c)
            lower, least, theta = table.floor(1e-9)
            assert 1e-9 < lower <= least
            assert lower <= _oracle_min(c)
            k = np.arange(n) - (n - 1) // 2
            assert abs(abs(c @ np.exp(1j * k * theta)) - least) <= 1e-14

    def test_subdivision_proves_the_fair_mixture(self, monkeypatch):
        # delta + (1 - delta)(1 + e^{i theta})/2 has minimum delta at pi; the
        # node cells alone leave its second-order terms (about 0.04) above delta
        delta = 0.01
        c = np.array([delta + 0.5 * (1.0 - delta), 0.5 * (1.0 - delta)])
        table = _fft.TaylorTable(0.0, 1.0, c)
        lower, least, theta = table.floor(1e-9)
        assert 1e-9 < lower <= delta
        assert least == pytest.approx(delta, abs=1e-15) and theta == math.pi
        monkeypatch.setattr(_fft, "FLOOR_LEVELS", 0)
        assert table.floor(1e-9)[0] <= 1e-9

    def test_zero_on_the_circle_is_not_proved(self):
        lower, least, theta = _fft.TaylorTable(0.0, 1.0, np.array([0.5, 0.5])).floor(1e-9)
        assert lower <= 0.0
        assert least <= 1e-16 and theta == math.pi

    def test_many_open_cells_stop_the_subdivision(self, monkeypatch):
        # (1 + e^{100 i theta})/2 has 100 zeros on the circle: more than
        # max(64, N/8) node cells stay open, so none is subdivided
        c = np.zeros(101)
        c[[0, 100]] = 0.5
        table = _fft.TaylorTable(0.0, 1.0, c)
        sizes = []
        cell_bounds = _fft._cell_bounds

        def counted(coef):
            sizes.append(coef.shape[1])
            return cell_bounds(coef)

        monkeypatch.setattr(_fft, "_cell_bounds", counted)
        assert table.floor(1e-9)[0] <= 0.0
        assert sizes == [table.n_fft]

    def test_point_mass(self):
        lower, least, theta = _fft.TaylorTable(2.0, 0.0, np.array([1.0])).floor()
        assert 1.0 - 1e-14 < lower <= least == 1.0 and theta == 0.0

    def test_blocks_do_not_change_the_bound(self, monkeypatch):
        c = np.full(20, 0.05)
        c[0] += 0.001
        c /= c.sum()
        full = _fft.TaylorTable(0.0, 1.0, c).floor(1e-9)
        assert full[0] > 1e-9
        # one sub-cell per block: only the BLAS summation order changes
        monkeypatch.setattr(_fft, "BLOCK_ENTRIES", 1)
        assert _fft.TaylorTable(0.0, 1.0, c).floor(1e-9) == pytest.approx(full, rel=1e-12)
        monkeypatch.setattr(_fft, "FLOOR_LEVELS", 0)
        assert _fft.TaylorTable(0.0, 1.0, c).floor(1e-9)[0] <= 1e-9

    def test_shift_matrix_is_exact(self):
        from fractions import Fraction
        order = 13
        w, offsets = _fft._shift_matrix(order)
        w = w.reshape(order + 1, 8, order + 1)
        for i, s in enumerate(offsets):
            s = Fraction((2 * i - 7), 8)
            assert Fraction(offsets[i]) == s
            for l in range(order + 1):
                for m in range(order + 1):
                    want = math.comb(l, m) * s ** (l - m) / 8 ** m if m <= l else 0
                    assert Fraction(w[l, i, m]) == want


class TestParity:
    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 300), (513, 700), (1024, 1025)])
    def test_fftconvolve_matches_convolve(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        a, b = rng.random(n1), rng.random(n2)
        ref = np.convolve(a, b)
        got = _fft.fftconvolve(a, b)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)

    def test_next_fast_len_is_smallest_smooth(self):
        def smooth(n, primes):
            for p in primes:
                while n % p == 0:
                    n //= p
            return n == 1
        for real, primes in ((True, (2, 3, 5)), (False, (2, 3, 5, 7, 11))):
            for target in range(1, 600):
                got = _fft.next_fast_len(target, real)
                assert got >= target and smooth(got, primes)
                assert not any(smooth(k, primes) for k in range(target, got))


class TestScipyBitwise:
    """The numpy replicas give scipy's results bit for bit."""

    @pytest.fixture(autouse=True)
    def _scipy(self):
        self.signal = pytest.importorskip("scipy.signal")
        self.sfft = pytest.importorskip("scipy.fft")

    def test_next_fast_len(self):
        targets = list(range(1, 3001)) + [(1 << 18) + 1, 262147, 1 << 20, 999983,
                                          (1 << 24) + 7, 16777259]
        for target in targets:
            for real in (False, True):
                assert _fft.next_fast_len(target, real) == self.sfft.next_fast_len(target, real)

    def test_fftconvolve(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            a, b = (rng.random(int(k)) for k in rng.integers(1, 5000, size=2))
            assert np.array_equal(_fft.fftconvolve(a, b), self.signal.fftconvolve(a, b))


COLD_SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any scipy import now raises
    import qidlab.cli
    from qidlab.charfn import CharFn
    from qidlab.dist import (continuous_bernoulli, convolve, mix, point_mass,
                             uniform_density)
    from qidlab.pipelines import approximate_mixture

    CharFn(uniform_density(0.0, 1.0)).eval_grid(-5.0, 0.01, 1001)
    U = uniform_density(0.0, 1.0, cells=1024)
    K = continuous_bernoulli(0.4, 0.5, "plus", step=1 / 1024)
    assert U.continuous.samples.size * K.continuous.samples.size > 262144
    convolve(U, K)
    res = approximate_mixture(mix(0.5, point_mass(0.0), U), 0.05)
    assert res.params["case"] == "1a"
    for argv in (["kutlu-scan", "--step", "0.02"], ["inf-scan", "sqrt2", "--ladder", "100,1000"],
                 ["inf-scan", "3/2", "--ladder", "100,1000"]):
        assert qidlab.cli.main(argv) == 0
    print(sorted(m for m, mod in sys.modules.items()
                 if m.split(".")[0] == "scipy" and mod is not None))
""")


def test_cold_path_imports_no_scipy(tmp_path):
    """The CLI import, a density grid scan, an FFT convolution, a mixture
    approximation and the kutlu-scan and inf-scan commands run in a fresh
    interpreter where scipy cannot be imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qidlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
