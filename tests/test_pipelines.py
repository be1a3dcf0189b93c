import math

import numpy as np
import pytest

from qidlab import pipelines
from qidlab.charfn import CharFn, min_modulus_scan
from qidlab.dist import (continuous_bernoulli, convolve, density_from_callable,
                         law_from_atoms, law_from_density, mix, point_mass,
                         support_info, tv_distance)
from qidlab.errors import InputError, LawShapeError
from qidlab.pipelines import (_choose_smoothing, _kernel_step, approximate_abs_cont,
                              approximate_lattice, approximate_mixture,
                              truncate_density, truncate_lattice)
from conftest import geometric_law


def three_bumps():
    return density_from_callable(
        lambda x: (np.exp(-0.5 * ((x - 0.2) / 0.05) ** 2)
                   + 0.5 * np.exp(-0.5 * ((x - 0.5) / 0.03) ** 2)
                   + np.exp(-0.5 * ((x - 0.8) / 0.08) ** 2)), 0.0, 1.0, cells=400)


def two_cell_spike():
    return law_from_density(0.0, 0.01, [0.0, 100.0, 0.0])


def smoothing_law(name, request):
    """A conftest fixture by name, or one of the two laws above."""
    make = {"bumps": three_bumps, "spike": two_cell_spike}.get(name)
    return make() if make else request.getfixturevalue(name)


def ladder_oracle(F, eps, q, tau, side):
    """The convolve-and-measure ladder _choose_smoothing replaced: halve
    tau until the measured tv(F, F * kernel) is below eps."""
    h = F.continuous.grid_step
    for _ in range(40):
        tau *= 0.5
        kernel = continuous_bernoulli(q, tau, side, step=_kernel_step(h, tau))
        value, bound = tv_distance(F, convolve(F, kernel))
        if value + bound < eps:
            return tau
    raise AssertionError("oracle ladder exhausted")


class TestTruncateDensity:
    def test_compact_support_passthrough(self, uniform01):
        F_eps, r_eps, c_eps = truncate_density(uniform01, 0.05)
        assert r_eps == pytest.approx(1.0, abs=2e-3)
        assert c_eps == pytest.approx(1.0, abs=1e-12)
        value, bound = tv_distance(uniform01, F_eps)
        assert value <= bound + 1e-12

    def test_truncation_bound(self, truncated_normal):
        eps = 0.05
        F_eps, r_eps, c_eps = truncate_density(truncated_normal, eps)
        # || F - c_eps * F_eps || < eps  (here both sides are ~0)
        value, _ = tv_distance(truncated_normal, F_eps)
        assert c_eps * value + (1 - c_eps) < eps

    def test_eps_validation(self, uniform01):
        with pytest.raises(InputError):
            truncate_density(uniform01, 1.5)

    def test_requires_pure_density(self, fair_bernoulli):
        with pytest.raises(LawShapeError):
            truncate_density(fair_bernoulli, 0.1)


class TestTruncateLattice:
    def test_finite_support_identity(self, fair_bernoulli):
        out, K1, K2, q1, q2 = truncate_lattice(fair_bernoulli, 0.1)
        assert (q1, q2) == (0.0, 0.0)
        value, _ = tv_distance(out, fair_bernoulli)
        assert value == 0.0

    def test_geometric_tail_relocation(self):
        geo = geometric_law()
        out, K1, K2, q1, q2 = truncate_lattice(geo, 0.1)
        a, b = geo.discrete.lattice_params()
        # boundary atoms at locations 1 and 5; right tail 2^-5
        assert a + b * K1 == pytest.approx(1.0, abs=1e-9)
        assert a + b * K2 == pytest.approx(5.0, abs=1e-9)
        assert q1 == 0.0
        assert q2 == pytest.approx(2.0 ** -5, abs=1e-12)
        value, _ = tv_distance(geo, out)
        assert value == pytest.approx(2 * (q1 + q2), abs=1e-12)
        assert value == pytest.approx(0.0625, abs=1e-12)

    def test_relocation_preserves_mass(self):
        out, *_ = truncate_lattice(geometric_law(), 0.3)
        assert math.fsum(a.mass for a in out.discrete.atoms) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(LawShapeError):
            truncate_lattice(point_mass(1.0), 0.1)


class TestApproximateLattice:
    def test_fair_bernoulli_closed_form(self, fair_bernoulli):
        eps = 0.02
        res = approximate_lattice(fair_bernoulli, eps)
        delta = res.params["delta_eps"]
        masses = {a.location: a.mass for a in res.approximant.discrete.atoms}
        assert masses[0.0] == pytest.approx(delta + (1 - delta) / 2, abs=1e-14)
        assert masses[1.0] == pytest.approx((1 - delta) / 2, abs=1e-14)
        assert res.tv_value == pytest.approx(delta, abs=1e-14)
        assert res.tv_value < eps
        assert res.certificate.min_modulus == pytest.approx(delta, abs=1e-10)

    def test_geometric_bound_and_support(self):
        geo = geometric_law()
        res = approximate_lattice(geo, 0.1)
        assert res.tv_value < 0.4
        src = {a.location for a in geo.discrete.atoms}
        assert {a.location for a in res.approximant.discrete.atoms} <= src

    def test_already_zero_free_still_mixed(self, two_thirds_law):
        res = approximate_lattice(two_thirds_law, 0.9)
        delta = res.params["delta_eps"]
        assert delta > 0.0
        ref, _ = tv_distance(two_thirds_law, point_mass(res.params["gamma_eps"]))
        assert res.tv_value == pytest.approx(delta * ref, abs=1e-12)
        assert res.tv_value <= 2 * delta + 1e-12

    def test_degenerate_identity(self):
        res = approximate_lattice(point_mass(2.0), 0.1)
        assert res.tv_value == 0.0
        assert res.certificate.min_modulus == pytest.approx(1.0, abs=1e-12)

    def test_eps_ladder_bound(self, fair_bernoulli):
        for eps in (0.2, 0.1, 0.05, 0.02):
            res = approximate_lattice(fair_bernoulli, eps)
            assert res.tv_value < 4 * eps

    def test_mixing_decomposition_exact(self, skewed_two_atom):
        res = approximate_lattice(skewed_two_atom, 0.05)
        delta = res.params["delta_eps"]
        gamma = res.params["gamma_eps"]
        rebuilt = mix(delta, point_mass(gamma), skewed_two_atom)
        value, _ = tv_distance(res.approximant, rebuilt)
        assert value < 1e-14

    def test_non_lattice_rejected(self):
        alpha = math.sqrt(2.0)
        law = law_from_atoms([(1.0, 1 / 3), (alpha, 1 / 3), (1 + alpha, 1 / 3)])
        with pytest.raises(InputError):
            approximate_lattice(law, 0.1)


class TestApproximateAbsCont:
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_uniform_bound_support_and_type(self, uniform01, side):
        eps, tau = 0.1, 0.5
        res = approximate_abs_cont(uniform01, eps, 0.4, tau, side)
        assert res.tv_value <= 4 * eps + res.tv_error_bound
        assert res.approximant.discrete_weight == 0.0
        info = support_info(res.approximant)
        h = uniform01.continuous.grid_step
        lo = -tau if side == "minus" else 0.0
        hi = 1.0 + (tau if side == "plus" else 0.0)
        assert info.lext >= lo - 1.5 * h
        assert info.rext <= hi + 1.5 * h
        assert res.certificate.min_modulus > 0.0
        assert res.params["tau_eps"] < tau

    def test_normal_bound(self, truncated_normal):
        res = approximate_abs_cont(truncated_normal, 0.05, 0.4, 0.5, "plus")
        assert res.tv_value <= 0.2 + res.tv_error_bound

    def test_gamma_in_support(self, uniform01):
        res = approximate_abs_cont(uniform01, 0.1, 0.4, 0.5, "plus")
        info = support_info(uniform01)
        assert info.lext <= res.params["gamma_eps"] <= info.rext

    def test_requires_density(self, fair_bernoulli):
        with pytest.raises(LawShapeError):
            approximate_abs_cont(fair_bernoulli, 0.1, 0.4, 0.5, "plus")

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_target_nodes_on_output_grid(self, side):
        F = density_from_callable(lambda x: np.exp(-0.5 * x * x), -1.03, 0.9731, cells=256)
        out = approximate_abs_cont(F, 0.05, 0.4, 0.5, side).approximant.continuous
        k = (F.continuous.nodes - out.grid_origin) / out.grid_step
        assert np.max(np.abs(k - np.round(k))) < 1e-9


class TestSmoothingBound:
    @pytest.mark.parametrize("law", ["uniform01", "truncated_normal", "bumps", "spike"])
    @pytest.mark.parametrize("q", [0.1, 0.4, 0.9])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bound_covers_measured_tv(self, law, q, side, request):
        F = smoothing_law(law, request)
        # the 6-wide normal at tau 1e-3 resamples to 2^21 cells: one case
        taus = [0.5, 0.03, 5e-3]
        if law != "truncated_normal" or (q, side) == (0.4, "plus"):
            taus.append(1e-3)
        for tau in taus:
            # an infinite eps stops the ladder at its first rung, tau
            kernel, tau_k, bound = _choose_smoothing(F, math.inf, q, 2.0 * tau, side)
            assert tau_k == tau
            value, _ = tv_distance(F, convolve(F, kernel))
            assert value <= bound
            # the bound is tight: the shifts are small against F's features
            if tau <= 0.03 and law != "spike":
                assert value >= 0.9 * bound

    @pytest.mark.parametrize("law", ["uniform01", "truncated_normal", "bumps", "spike"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_same_tau_as_measured_ladder(self, law, side, request):
        F = smoothing_law(law, request)
        eps, q, tau = 0.1, 0.4, 0.5
        _, tau_k, bound = _choose_smoothing(F, eps, q, tau, side)
        oracle = ladder_oracle(F, eps, q, tau, side)
        assert bound < eps
        assert tau_k <= oracle
        if law != "spike":
            assert tau_k == oracle

    def test_no_convolution_or_measurement(self, truncated_normal, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the smoothing ladder convolved or measured")

        monkeypatch.setattr(pipelines, "convolve", forbidden)
        monkeypatch.setattr(pipelines, "tv_distance", forbidden)
        _, _, bound = _choose_smoothing(truncated_normal, 0.05, 0.4, 0.5, "plus")
        assert bound < 0.05

    def test_result_records_margin(self, truncated_normal):
        eps = 0.05
        res = approximate_abs_cont(truncated_normal, eps, 0.4, 0.5, "minus")
        _, tau_k, bound = _choose_smoothing(truncated_normal, eps, 0.4, 0.5, "minus")
        assert res.params["tau_eps"] == tau_k
        assert res.params["smoothing_bound"] == bound < eps


class TestApproximateMixture:
    def test_pure_density_reduces_to_case_1a(self, uniform01):
        res = approximate_mixture(uniform01, 0.05)
        assert res.params["case"] == "1a(c_d=0)"
        assert res.tv_value <= 4 * 0.05 + res.tv_error_bound
        assert res.approximant.discrete_weight > 0.0

    def test_pure_lattice_delegates(self, fair_bernoulli):
        res = approximate_mixture(fair_bernoulli, 0.1)
        assert res.tv_value < 0.4

    def test_case_1a(self, uniform01):
        F = mix(0.5, point_mass(0.0), uniform01)
        res = approximate_mixture(F, 0.05)
        assert res.params["case"] == "1a"
        assert res.tv_bound_claimed == pytest.approx(0.2)
        assert res.tv_value <= 0.2 + res.tv_error_bound
        # the single discrete location survives in the output
        assert {a.location for a in res.approximant.discrete.atoms} == {0.0}

    def test_case_1b_retruncation(self, uniform01):
        F = mix(0.5, point_mass(0.5), uniform01)
        eps = 0.05
        res = approximate_mixture(F, eps)
        assert res.params["case"] == "1b"
        assert res.tv_bound_claimed == pytest.approx(6 * eps)
        assert res.tv_value <= 6 * eps + res.tv_error_bound
        assert res.params["c_hat_eps"] > 1 - 2 * eps
        assert res.params["r_hat_eps"] < 1.0

    def test_case_2_floor(self, fair_bernoulli, uniform01):
        F = mix(0.5, fair_bernoulli, uniform01)
        eps = 0.1
        res = approximate_mixture(F, eps)
        assert res.params["case"] == "2"
        assert res.tv_value <= 4 * eps + res.tv_error_bound
        floor = res.params["discrete_floor"]
        tau_mix = res.params["tau_mix"]
        delta = res.params["delta_eps"]
        c_d = 0.5
        assert floor == pytest.approx((tau_mix - delta) / (delta + c_d - delta * c_d))
        assert floor > 0.0
        assert res.params["discrete_min_modulus"] >= floor - 1e-12
        # tau_mix rests on the proven floor of the inner lattice approximant
        inner = approximate_lattice(fair_bernoulli, 0.25 * eps).certificate
        assert res.params["mu_d_eps"] == inner.lower_bound <= inner.min_modulus
        assert 0.0 < res.params["discrete_lower_bound"] <= res.params["discrete_min_modulus"]

    def test_eps_range(self, uniform01):
        with pytest.raises(InputError):
            approximate_mixture(uniform01, 0.7)


class TestFact1Consistency:
    def test_lattice_outputs_scan_zero_free(self, fair_bernoulli, skewed_two_atom):
        period = 2.0 * math.pi
        for law in (fair_bernoulli, skewed_two_atom, geometric_law()):
            res = approximate_lattice(law, 0.05)
            cert = min_modulus_scan(CharFn(res.approximant), period, period / 4096)
            assert cert.min_modulus > 0.0
