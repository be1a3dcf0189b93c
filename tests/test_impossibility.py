import math
from fractions import Fraction

import numpy as np
import pytest

from qidlab import charfn, impossibility
from qidlab.errors import InputError
from qidlab.impossibility import (InfScanReport, inf_scan, kutlu_phi, kutlu_zero_scan,
                                  one_period_floor, parse_alpha, rational_cf_period,
                                  three_point_cf)

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# regression baselines of the ladder 1e2, 1e3, 1e4, 1e5 at step 0.01;
# the computed rungs agree with mpmath's |f| at their argmins within 6e-17
SQRT2_MINIMA = [8.300652261e-3, 1.004746627e-3, 2.436941917e-4, 7.174268149e-6]
GOLDEN_MINIMA = [2.025571998e-2, 5.071885109e-4, 7.398933325e-5, 7.398933325e-5]
PI_MINIMA = [2.323469718e-2, 6.556004583e-6, 6.556004583e-6, 6.556004583e-6]
RATIONAL_32_FLOOR = 0.20244881124183817
# exact local minimum of |three_point_cf(sqrt2, t)| near the scan's
# argmin over [0, 1e5], alpha the float sqrt(2): mpmath at 40 digits,
# findroot of d/dt |f|^2 from t = 99108.87065839086, then |f| there
SQRT2_EXACT_MIN_1E5 = 7.174268149290285e-6


class TestKutluPhi:
    def test_unit_at_origin(self):
        assert kutlu_phi(0.0, 0.0) == pytest.approx(1.0)

    def test_algebraic_zero(self):
        z = 2.0 * math.pi / 3.0
        assert abs(kutlu_phi(z, -z)) < 1e-14
        assert abs(kutlu_phi(-z, z)) < 1e-14

    def test_value_at_pi_zero(self):
        assert kutlu_phi(math.pi, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-14)

    def test_symmetries(self):
        rng = np.random.default_rng(5)
        t1 = rng.uniform(-math.pi, math.pi, 32)
        t2 = rng.uniform(-math.pi, math.pi, 32)
        swap = np.abs(kutlu_phi(t1, t2)) - np.abs(kutlu_phi(t2, t1))
        conj = kutlu_phi(-t1, -t2) - np.conj(kutlu_phi(t1, t2))
        assert np.max(np.abs(swap)) < 1e-14
        assert np.max(np.abs(conj)) < 1e-14


class TestKutluZeroScan:
    @pytest.mark.parametrize("step", [0.3, 0.1, 0.02, 0.01, 0.005])
    def test_finds_both_zeros(self, step):
        scan = kutlu_zero_scan(step)
        z = 2.0 * math.pi / 3.0
        assert len(scan.zero_locations) == 2
        found = sorted(scan.zero_locations)
        assert all(abs(t) <= math.pi for zero in found for t in zero)
        assert found[0][0] == pytest.approx(-z, abs=1e-13)
        assert found[0][1] == pytest.approx(z, abs=1e-13)
        assert found[1][0] == pytest.approx(z, abs=1e-13)
        assert found[1][1] == pytest.approx(-z, abs=1e-13)
        assert scan.min_modulus < 1e-15

    def test_grid_past_the_cap_is_refused_before_allocation(self, monkeypatch):
        # n^2 moduli, n = ceil(2*pi/step) + 1 a side, at most 4096^2 = TABLE_ENTRIES
        monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated"))
        for step in (2.0 * math.pi / 4095.5, 1e-300, 0.0, -0.01, math.inf):
            with pytest.raises(InputError, match="Kutlu grid side"):
                kutlu_zero_scan(step)

    def test_zero_set_symmetric(self):
        scan = kutlu_zero_scan(0.02)
        locs = {(round(t1, 4), round(t2, 4)) for t1, t2 in scan.zero_locations}
        assert {(round(-t1, 4), round(-t2, 4)) for t1, t2 in locs} == locs


class TestThreePointCF:
    def test_unit_at_origin(self):
        assert three_point_cf(SQRT2, 0.0) == pytest.approx(1.0)

    def test_diagonal_relation_to_phi(self):
        rng = np.random.default_rng(9)
        ts = rng.uniform(0.0, 50.0, 64)
        lhs = three_point_cf(SQRT2, ts)
        rhs = kutlu_phi(ts, SQRT2 * ts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_exact_phases_at_large_t(self):
        # mpmath |f| at 40 digits, alpha the float sqrt(2); the rounded
        # phase fl(alpha*t) is off by 7.2e-13 and 3.1e-12 here
        for t, exact in ((38989.2596159198, 1.5500345866064247e-4),
                         (99108.87065839086, 7.1742681492907225e-6)):
            assert abs(abs(three_point_cf(SQRT2, t)) - exact) <= 1e-15

    def test_degenerate_lattice_alpha_one(self):
        # alpha = 1: f(t) = (2 e^{it} + e^{2it}) / 3, |f(pi)| = 1/3
        assert abs(three_point_cf(1.0, math.pi)) == pytest.approx(1.0 / 3.0, abs=1e-14)


class TestInfScan:
    def test_ladder_validation(self):
        with pytest.raises(InputError):
            inf_scan(SQRT2, [100.0, 100.0], 0.01)
        with pytest.raises(InputError):
            inf_scan(SQRT2, [], 0.01)
        for step in (0.0, -1.0, math.inf):
            with pytest.raises(InputError):
                one_period_floor(Fraction(3, 2), step)

    def test_point_cap_refuses_before_scanning(self, monkeypatch):
        with pytest.raises(InputError, match="grid points"):
            inf_scan(SQRT2, [100.0], 1e-12)
        with pytest.raises(InputError, match="grid points"):
            one_period_floor(Fraction(3, 2), 1e-12)
        # at the cap both still scan; one point past it, neither calls the CF
        monkeypatch.setattr(impossibility, "MAX_GRID_POINTS", 1001)
        monkeypatch.setattr(charfn, "MAX_GRID_POINTS", 1001)
        inf_scan(SQRT2, [10.0], 0.01)                       # floor(10/0.01) + 1 points
        one_period_floor(Fraction(3, 2), 4.0 * math.pi / 1000)  # 1000 cells + 1
        calls = []
        monkeypatch.setattr(impossibility, "three_point_cf",
                            lambda alpha, t: calls.append(t) or np.ones(np.shape(t)))
        with pytest.raises(InputError):
            inf_scan(SQRT2, [1.0, 10.01], 0.01)
        with pytest.raises(InputError):
            one_period_floor(Fraction(3, 2), 4.0 * math.pi / 1001)
        assert calls == []

    def test_phase_past_1e8_refused_before_scanning(self, monkeypatch):
        # three_point_cf is accurate while |alpha*t| <= 1e8; over one period
        # 2*pi*q of alpha = p/q, alpha*t reaches 2*pi*p
        calls = []
        monkeypatch.setattr(impossibility, "three_point_cf",
                            lambda alpha, t: calls.append(t) or np.ones(np.shape(t)))
        inf_scan(1e5, [1e3], 1.0)
        one_period_floor(Fraction(15_000_000, 7), 100.0)
        n = len(calls)
        with pytest.raises(InputError, match="exceeds 1e8"):
            inf_scan(1e5, [1e3, 1.001e3], 1.0)
        with pytest.raises(InputError, match="exceeds 1e8"):
            inf_scan(1e300, [100.0], 0.01)
        with pytest.raises(InputError, match="exceeds 1e8"):
            one_period_floor(Fraction(16_000_000, 7), 100.0)
        with pytest.raises(InputError, match="exceeds 1e8"):
            one_period_floor(Fraction(1e300), 0.01)
        assert len(calls) == n

    def test_floor_scans_exactly_one_period(self, monkeypatch):
        # at step 0.05 the period 2*pi*118 has n = 14829 cells, and
        # period/(period/n) rounds up to n + 1: a recount of the cells
        # would scan one point past the period
        frac, step = Fraction(119, 118), 0.05
        period = rational_cf_period(frac)
        n = math.ceil(period / step)
        assert math.ceil(period / (period / n)) == n + 1
        grids = []
        cf = impossibility.three_point_cf
        monkeypatch.setattr(impossibility, "three_point_cf",
                            lambda alpha, t: grids.append(np.asarray(t)) or cf(alpha, t))
        one_period_floor(frac, step)
        # one block: the first call is the whole grid, the rest polish
        assert grids[0].size == n + 1
        assert grids[0][-1] == pytest.approx(period, rel=1e-15)

    def test_minima_non_increasing_any_alpha(self):
        for alpha in (SQRT2, 0.7, 2.25):
            rep = inf_scan(alpha, [50.0, 200.0, 800.0], 0.02)
            vals = [m for _, m, _ in rep.minima]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sqrt2_regression(self):
        rep = inf_scan(SQRT2, [1e2, 1e3, 1e4, 1e5], 0.01)
        vals = [m for _, m, _ in rep.minima]
        assert vals == pytest.approx(SQRT2_MINIMA, rel=1e-9)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_sqrt2_polish_in_exact_phases(self):
        # plain three_point_cf is off by up to 3e-12 near t = 4e4 (the
        # rounding of t*alpha); the polish in exact phases is not
        rep = inf_scan(SQRT2, [1e5], 0.01)
        assert abs(rep.minima[0][1] - SQRT2_EXACT_MIN_1E5) <= 1e-14

    def test_golden_and_pi_regression(self):
        repg = inf_scan(GOLDEN, [1e2, 1e3, 1e4, 1e5], 0.01)
        assert [m for _, m, _ in repg.minima] == pytest.approx(GOLDEN_MINIMA, rel=1e-9)
        repp = inf_scan(math.pi, [1e2, 1e3, 1e4, 1e5], 0.01)
        assert [m for _, m, _ in repp.minima] == pytest.approx(PI_MINIMA, rel=1e-9)
        assert repg.minima[-1][1] < 0.1
        assert repp.minima[-1][1] < 0.1

    def test_polish_only_when_the_grid_minimum_drops(self, monkeypatch):
        # each window between rungs is one min_modulus_scan; over
        # (1e3, 1e4] nothing beats the dip found by t = 1e3, so the rung
        # carries it forward unchanged
        widths = []
        scan = impossibility.min_modulus_scan
        monkeypatch.setattr(impossibility, "min_modulus_scan",
                            lambda f, T, step: widths.append(T) or scan(f, T, step))
        rep = inf_scan(math.pi, [1e3, 1e4], 0.01)
        assert widths == [1e3, 9e3]
        assert rep.minima[0][1:] == rep.minima[1][1:]
        assert rep.minima[1][1] == pytest.approx(PI_MINIMA[1], rel=1e-9)
        assert rep.minima[1][2] == pytest.approx(236.6667, abs=1e-3)

    def test_pi_finds_the_dip_off_the_grid_minimum(self):
        # the lowest grid point of [0, 1e3] sits at the shallower dip
        # t = 946.67 (|f| = 2.62e-5); the least modulus is at t = 236.6667
        rep = inf_scan(math.pi, [1e2, 1e3], 0.01)
        assert rep.minima[1][1] <= 6.5561e-6
        assert abs(rep.minima[1][2] - 236.6667) <= 1e-3

    def test_rational_stabilizes_at_period_floor(self):
        frac = Fraction(3, 2)
        floor, _ = one_period_floor(frac, 0.001)
        assert floor == pytest.approx(RATIONAL_32_FLOOR, rel=1e-9)
        assert floor > 0.0
        rep = inf_scan(1.5, [1e2, 1e3, 1e4], 0.01)
        for _, m, _ in rep.minima:
            assert m == pytest.approx(floor, rel=1e-6)

    def test_floor_finds_the_dip_off_the_grid_minimum(self):
        # the grid minimum at step 0.01 sits at t = 1038.8 (|f| = 2.114e-3);
        # the least modulus of the period is at t = 519.41
        floor, t = one_period_floor(Fraction(660, 349), 0.01)
        assert floor <= 1.0573e-3
        assert abs(abs(three_point_cf(660 / 349, t)) - floor) <= 1e-12

    def test_floor_vanishes_when_three_divides_p_plus_q(self):
        # the line (t, alpha*t) meets a zero of phi exactly when 3 | p + q
        assert one_period_floor(Fraction(4, 5), 0.01)[0] < 1e-9
        assert one_period_floor(Fraction(2, 1), 0.01)[0] < 1e-9
        assert one_period_floor(Fraction(3, 2), 0.01)[0] > 0.2

    def test_chunk_seams_keep_first_of_equal_minima(self, monkeypatch):
        scan = inf_scan(SQRT2, [10.0, 100.0], 0.01)
        floor = one_period_floor(Fraction(3, 2), 0.01)
        monkeypatch.setattr(impossibility, "BLOCK_ENTRIES", 7)
        monkeypatch.setattr(charfn, "BLOCK_ENTRIES", 16 * 7)
        assert inf_scan(SQRT2, [10.0, 100.0], 0.01) == scan
        assert one_period_floor(Fraction(3, 2), 0.01) == floor
        # |f| = 1 + (4t mod 5) on the grid t = k/4 ties at k = 0, 5, 10, ...:
        # the first tie wins across chunks and across windows
        monkeypatch.setattr(impossibility, "three_point_cf",
                            lambda alpha, t: 1.0 + np.round(4.0 * np.asarray(t)) % 5)
        assert inf_scan(SQRT2, [10.0, 100.0], 0.25).minima == ((10.0, 1.0, 0.0),
                                                                (100.0, 1.0, 0.0))
        assert one_period_floor(Fraction(3, 2), 0.25) == (1.0, 0.0)

    def test_report_invariant_enforced(self):
        with pytest.raises(InputError):
            InfScanReport(1.0, (1.0, 2.0), ((1.0, 0.1, 0.0), (2.0, 0.2, 0.0)))


class TestAlphaHelpers:
    def test_rational_period(self):
        assert rational_cf_period(Fraction(3, 2)) == pytest.approx(4 * math.pi)
        assert rational_cf_period(Fraction(1, 1)) == pytest.approx(2 * math.pi)

    def test_parse_named_and_fraction(self):
        value, frac = parse_alpha("sqrt2")
        assert value == pytest.approx(SQRT2) and frac is None
        value, frac = parse_alpha("3/2")
        assert value == 1.5 and frac == Fraction(3, 2)
        value, frac = parse_alpha("0.25")
        assert value == 0.25 and frac == Fraction(1, 4)
        with pytest.raises(InputError):
            parse_alpha("-1.0")

    def test_convergents_predict_deep_dips(self):
        # near t = 2 pi q (m + 1/3) with sqrt2 (m + 1/3) close to n - 1/3
        # the CF dips; check the scan beats the shallow large-q prediction
        rep = inf_scan(SQRT2, [1e4], 0.01)
        assert rep.minima[0][1] < 0.01


class TestContrastWithLatticePipelines:
    def test_non_lattice_law_escapes_every_certificate_floor(self):
        # lattice approximants come with positive certified floors, while
        # the three-point law with irrational spacing drops below any of
        # them once the window grows
        from qidlab.dist import law_from_atoms
        from qidlab.errors import NotLatticeError
        from qidlab.pipelines import approximate_lattice

        law = law_from_atoms([(1.0, 1 / 3), (SQRT2, 1 / 3), (1 + SQRT2, 1 / 3)])
        with pytest.raises(NotLatticeError):
            law.discrete.lattice_params()

        floors = []
        for target in ([(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.2), (1.0, 0.8)]):
            res = approximate_lattice(law_from_atoms(target), 0.05)
            floors.append(res.certificate.min_modulus)
        assert all(f > 0 for f in floors)
        rep = inf_scan(SQRT2, [1e4], 0.01)
        assert rep.minima[-1][1] < min(floors)
