"""Each independent check accepts a genuine qidlab output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from checks import CheckError  # noqa: E402

qidlab = pytest.importorskip("qidlab")
from qidlab.jsonio import law_from_dict  # noqa: E402


def _rngs(i):
    return np.random.default_rng([1, i]), np.random.default_rng([2, i])


@pytest.fixture(scope="module")
def lattice_out():
    law = inputs.lattice_law(*_rngs(0), n=20)
    r = qidlab.approximate_lattice(law_from_dict(law), 0.05)
    p = qidlab.lattice_spectral_pair(r.approximant, K=16)
    return law, {"result": worker.result_data(r), "pair": worker.pair_data(p)}


@pytest.fixture(scope="module")
def density_out():
    payload = {"kind": "tnormal",
               "law": inputs.density_law(*_rngs(1), "tnormal"),
               "mixtures": [inputs.mixture_law(*_rngs(2 + i), case, "tnormal")
                            for i, case in enumerate(("1a", "1b", "2"))]}
    F = law_from_dict(payload["law"])
    results = [qidlab.approximate_abs_cont(F, 0.05, 0.4, 0.5, side) for side in ("plus", "minus")]
    results += [qidlab.approximate_mixture(law_from_dict(m), 0.05) for m in payload["mixtures"]]
    return payload, {"results": [worker.result_data(r) for r in results]}


def test_lattice_output_passes_and_tv_corruptions_fail(lattice_out):
    law, out = lattice_out
    verify.check_output("lattice", "lattice", law, out)
    bad = copy.deepcopy(out)
    bad["result"]["tv_value"] += 1e-6
    with pytest.raises(CheckError, match="tv recomputed"):
        verify.check_output("lattice", "lattice", law, bad)
    bad = copy.deepcopy(out)
    atoms = bad["result"]["approximant"]["atoms"]
    atoms[len(atoms) // 4][1] += 0.005        # move mass between interior atoms
    atoms[3 * len(atoms) // 4][1] -= 0.005
    with pytest.raises(CheckError, match="tv recomputed"):
        verify.check_output("lattice", "lattice", law, bad)


def test_tv_over_claimed_bound_fails(lattice_out):
    law, out = lattice_out
    res = out["result"]
    with pytest.raises(CheckError, match="claimed bound"):
        checks.check_tv(law, res["approximant"], res["tv_value"], 0.5 * res["tv_value"], 0.0)


def test_density_output_passes_and_corruptions_fail(density_out):
    payload, out = density_out
    verify.check_output("density", "density", payload, out)
    bad = copy.deepcopy(out)
    samples = bad["results"][0]["approximant"]["density"]["samples"]
    n = len(samples)
    for i in range(n // 4, n // 2):            # move mass inside the density
        samples[i] *= 1.2
    for i in range(n // 2, 3 * n // 4):
        samples[i] *= 0.8
    with pytest.raises(CheckError, match="tv recomputed"):
        verify.check_output("density", "density", payload, bad)
    bad = copy.deepcopy(out)
    bad["results"][3]["params"]["case"] = "1a"
    with pytest.raises(CheckError, match="expected 1b"):
        verify.check_output("density", "density", payload, bad)


def test_certificate_rejects_a_law_with_a_real_zero(lattice_out):
    _, out = lattice_out
    res = out["result"]
    assert checks.check_certificate(res["approximant"], res["certificate"]["window_T"], 64) > 0
    bad = copy.deepcopy(out)
    # the fair Bernoulli law has |cf(pi)| = 0, inside a window of 2 pi
    bad["result"]["approximant"] = {"discrete_weight": 1.0, "atoms": [[0.0, 0.5], [1.0, 0.5]]}
    with pytest.raises(CheckError, match="inside the certificate window"):
        checks.check_certificate(bad["result"]["approximant"], 2.0 * math.pi, 64)


def test_spectral_corruptions_fail(lattice_out):
    _, out = lattice_out
    law, pair = out["result"]["approximant"], out["pair"]
    args = (pair["gamma"], pair["b"], pair["atoms"], pair["residual"], pair["K"])
    checks.check_spectral(law, *args)
    with pytest.raises(CheckError, match="off the lattice"):
        checks.check_spectral(law, pair["gamma"] + 0.5 * pair["b"], *args[1:])
    with pytest.raises(CheckError, match="residual"):
        checks.check_spectral(law, pair["gamma"] + pair["b"], *args[1:])
    atoms = [[k, lam * 1.1] for k, lam in pair["atoms"]]
    with pytest.raises(CheckError, match="residual"):
        checks.check_spectral(law, pair["gamma"], pair["b"], atoms, pair["residual"], pair["K"])
    with pytest.raises(CheckError, match="residual"):
        checks.check_spectral(law, *args[:3], 0.1 * pair["residual"] - 1e-6, pair["K"])


def test_inf_scan_corruptions_fail():
    alpha, step = inputs.NAMED_ALPHAS["golden"], 0.01
    rep = qidlab.inf_scan(alpha, [100.0, 1000.0, 5000.0], step)
    minima = [list(m) for m in rep.minima]
    checks.check_inf_scan(alpha, step, minima, irrational=True)
    bad = copy.deepcopy(minima)
    bad[1][1] *= 0.9
    with pytest.raises(CheckError, match=r"\|f\("):
        checks.check_inf_scan(alpha, step, bad, irrational=True)
    bad = copy.deepcopy(minima)
    bad[0][2] += 0.5 * step
    with pytest.raises(CheckError, match=r"\|f\("):
        checks.check_inf_scan(alpha, step, bad, irrational=True)
    # a first rung taken from the wrong window: value and argmin agree,
    # but it misses the brute-force minimum at the same step
    t = 0.37
    bad = [[100.0, float(abs(checks.three_point(alpha, t))), t]] + minima[1:]
    with pytest.raises(CheckError, match="grid minimum|increase"):
        checks.check_inf_scan(alpha, step, bad, irrational=True)
    flat = [minima[0], [minima[1][0]] + minima[0][1:]]
    with pytest.raises(CheckError, match="does not sink"):
        checks.check_inf_scan(alpha, step, flat, irrational=True)


def test_rational_floor_and_rungs_fail_when_corrupted():
    p, q, step = 5, 3, 0.01
    floor, argmin = qidlab.one_period_floor(Fraction(p, q), step)
    checks.check_floor(p, q, step, floor, argmin)
    with pytest.raises(CheckError):
        checks.check_floor(p, q, step, floor * 1.5, argmin)
    printed, tol = float("%.6g" % floor), 1e-5 * floor + 1e-9
    checks.check_floor(p, q, step, printed, tol=tol)
    with pytest.raises(CheckError, match="above the grid minimum"):
        checks.check_floor(p, q, step, printed * 1.5, tol=tol)
    rep = qidlab.inf_scan(p / q, [100.0, 1000.0], step)
    minima = [list(m) for m in rep.minima]
    checks.check_inf_scan(p / q, step, minima, irrational=False, floor=floor)
    with pytest.raises(CheckError, match="below the floor"):
        checks.check_inf_scan(p / q, step, minima, irrational=False, floor=floor + 1e-3)


def test_kutlu_corruptions_fail():
    scan = qidlab.kutlu_zero_scan(0.02)
    zeros = [list(z) for z in scan.zero_locations]
    checks.check_kutlu(zeros)
    with pytest.raises(CheckError, match="within 1e-6"):
        checks.check_kutlu([zeros[0], [zeros[1][0] + 2e-6, zeros[1][1]]])
    with pytest.raises(CheckError, match="expected 2"):
        checks.check_kutlu(zeros[:1])


def test_cli_tv_and_zero_free_corruptions_fail():
    jobs = inputs.cli_round(3)
    name, payload = jobs[6]
    assert name == "tv"
    value = checks.tv(payload["inputs"]["in"], payload["inputs"]["in2"])
    verify.check_output("cli", name, payload, {"stdout": f"{value!r} 0\n", "out": None})
    with pytest.raises(CheckError, match="printed"):
        verify.check_output("cli", name, payload, {"stdout": f"{value * 1.01!r} 0\n", "out": None})
    name, payload = jobs[4]
    law = payload["inputs"]["in"]
    cert = qidlab.min_modulus_scan(qidlab.CharFn(law_from_dict(law)), 64.0, 0.01)
    text = json.dumps({"window_T": cert.window_T, "grid_step": cert.grid_step,
                       "min_modulus": cert.min_modulus, "argmin_t": cert.argmin_t})
    verify.check_output("cli", name, payload, {"stdout": "", "out": text})
    bad = text.replace(repr(cert.min_modulus), repr(cert.min_modulus * 1.1))
    with pytest.raises(CheckError, match="disagrees"):
        verify.check_output("cli", name, payload, {"stdout": "", "out": bad})


def test_benchmark_json_matches_the_spec():
    path = BENCH.parent / "BENCHMARK.json"
    assert json.loads(path.read_text()) == run.spec()


def test_grid_sum_matches_the_plain_direct_sum():
    rng = np.random.default_rng(5)
    ws, ts = rng.random(1001), np.linspace(-50.0, 300.0, 777)
    x0, h = -0.37, 1.3e-3
    plain = checks._sum_exp(ts, x0 + h * np.arange(ws.size), ws)
    assert np.max(np.abs(checks._sum_exp_grid(ts, x0, h, ws) - plain)) < 1e-12 * ws.sum()


def test_rationals_with_3_dividing_p_plus_q_have_real_zeros_and_are_not_drawn():
    p, q = 152, 151                                  # 3 divides p + q
    ts = 2.0 * math.pi * q * np.array([1.0, 2.0]) / 3.0
    assert np.min(np.abs(checks.three_point(p / q, ts))) < 1e-9
    rng = np.random.default_rng(0)
    assert all(sum(inputs.rational(rng)) % 3 for _ in range(200))
