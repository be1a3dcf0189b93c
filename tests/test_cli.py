import json
import math
import time
import warnings

import numpy as np
import pytest

from qidlab import _fft, impossibility, spectral
from qidlab.cli import main
from qidlab.dist import law_from_atoms, mix, point_mass, uniform_density
from qidlab.errors import InputError
from qidlab.jsonio import canonical_dumps, law_from_dict, law_to_dict, save_law


@pytest.fixture
def fair_path(tmp_path, fair_bernoulli):
    path = tmp_path / "fair.json"
    save_law(fair_bernoulli, str(path))
    return str(path)


@pytest.fixture
def skew_path(tmp_path, two_thirds_law):
    path = tmp_path / "skew.json"
    save_law(two_thirds_law, str(path))
    return str(path)


class TestRoundTrip:
    def test_byte_stable_serialization(self, tmp_path, fair_bernoulli, uniform01):
        for law in (fair_bernoulli, uniform01,
                    mix(1 / 3, fair_bernoulli, uniform01),
                    law_from_atoms([(0.1, 1 / 3), (0.7, 2 / 3)])):
            text1 = canonical_dumps(law_to_dict(law))
            parsed = law_from_dict(json.loads(text1))
            text2 = canonical_dumps(law_to_dict(parsed))
            assert text1 == text2

    def test_seventeen_digit_floats_roundtrip(self):
        law = law_from_atoms([(1 / 3, 1 / 3), (2 / 3, 2 / 3)])
        parsed = law_from_dict(json.loads(canonical_dumps(law_to_dict(law))))
        for a, b in zip(law.discrete.atoms, parsed.discrete.atoms):
            assert a.location == b.location
            assert a.mass == b.mass


class TestExitCodes:
    def test_lattice_approximation_success(self, fair_path, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["approximate", fair_path, "--mode", "lattice",
                     "--eps", "0.02", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tv_value"] < 0.02
        assert payload["certificate"]["min_modulus"] > 0.0
        assert payload["tv_value"] == pytest.approx(payload["params"]["delta_eps"],
                                                    abs=1e-12)

    def test_shape_mismatch_is_input_error(self, fair_path, capsys):
        code = main(["approximate", fair_path, "--mode", "abs", "--eps", "0.05"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_eps_is_input_error(self, fair_path):
        assert main(["approximate", fair_path, "--mode", "lattice",
                     "--eps", "1.5"]) == 2

    def test_unparseable_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["approximate", str(bad), "--mode", "lattice",
                     "--eps", "0.1"]) == 2

    @pytest.mark.parametrize("argv", [
        "inf-scan inf", "inf-scan 1e400", "inf-scan 1/0",
        "inf-scan 3/2 --step inf", "inf-scan sqrt2 --ladder 10,inf",
        "check-zero-free {law} --window inf",
        "check-zero-free {law} --window 1e300 --step 1e-300",
        "approximate {dens} --mode abs --eps 0.05 --tau inf",
        "kutlu-scan --step inf",
    ])
    def test_non_finite_numbers_are_input_errors(self, argv, fair_path, tmp_path,
                                                 uniform01, capsys):
        dens = tmp_path / "dens.json"
        save_law(uniform01, str(dens))
        out = tmp_path / "out"
        args = argv.format(law=fair_path, dens=dens).split() + ["--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, cap", [
        ("inf-scan sqrt2 --ladder 100 --step 1e-12", impossibility.MAX_GRID_POINTS),
        # 1001 window points pass, the 4399-point floor scan does not
        ("inf-scan 1/7 --ladder 10 --step 0.01", 2000),
    ])
    def test_scan_past_point_cap_is_input_error(self, argv, cap, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(impossibility, "MAX_GRID_POINTS", cap)
        out = tmp_path / "scan.csv"
        assert main(argv.split() + ["--out", str(out)]) == 2
        assert "grid points" in capsys.readouterr().err
        assert not out.exists()

    def test_spectral_on_vanishing_cf_is_method_error(self, fair_path, capsys):
        code = main(["spectral-pair", fair_path, "-K", "10"])
        assert code == 3
        assert "not extractable" in capsys.readouterr().err

    @pytest.mark.parametrize("K, limit", [
        (200_000, spectral.BLOCK_ENTRIES),
        (spectral.BLOCK_ENTRIES // 8 + 1, spectral.BLOCK_ENTRIES),
        (257, 2048),
    ])
    def test_spectral_K_past_node_limit_is_input_error(self, K, limit, tmp_path, capsys,
                                                       monkeypatch):
        # max(256, 8K) nodes above the limit: exit 2 naming it, before any FFT
        path = tmp_path / "three.json"
        save_law(law_from_atoms([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]), str(path))
        monkeypatch.setattr(spectral, "BLOCK_ENTRIES", limit)

        def no_fft(*args, **kwargs):
            raise AssertionError("FFT before the K check")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, no_fft)
        out = tmp_path / "pair.json"
        assert main(["spectral-pair", str(path), "-K", str(K), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and str(limit) in err
        assert not out.exists()

    def test_taylor_table_past_limit_is_input_error(self, tmp_path, capsys, monkeypatch):
        # a 256-cell density's node table has N = 2048 columns
        path = tmp_path / "uniform.json"
        save_law(uniform_density(0.0, 1.0, cells=256), str(path))
        monkeypatch.setattr(_fft, "TABLE_ENTRIES", 2000)
        out = tmp_path / "res.json"
        assert main(["approximate", str(path), "--mode", "abs", "--eps", "0.05",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "limit of 2000" in err
        assert not out.exists()

    def test_spectral_K_at_node_limit_passes(self, tmp_path, monkeypatch):
        path = tmp_path / "three.json"
        save_law(law_from_atoms([(0.0, 0.5), (1.0, 0.3), (2.0, 0.2)]), str(path))
        monkeypatch.setattr(spectral, "BLOCK_ENTRIES", 2048)
        out = tmp_path / "pair.json"
        assert main(["spectral-pair", str(path), "-K", "256", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["residual"] < 1e-10


# Laws and calls at the edges of every grid budget: each call exits 0, 2
# or 3 at once, with a message and no numpy text, warning or traceback
SWEEP_LAWS = {
    "lattice": {"discrete_weight": 1.0, "atoms": [[0.0, 0.5], [1.0, 0.3], [2.0, 0.2]]},
    "sparse": {"discrete_weight": 1.0, "atoms": [[0.0, 0.5], [1.0, 0.25], [1e7, 0.25]]},
    "wide": {"discrete_weight": 0.5, "atoms": [[0.0, 0.5], [1e6, 0.5]],
             "density": {"origin": 0.0, "step": 0.5, "samples": [0.0, 1.0, 1.0, 0.0]}},
    "fine": {"discrete_weight": 0.0,
             "density": {"origin": 0.0, "step": 1e-300, "samples": [0.0, 5e299, 5e299, 0.0]}},
    "near": {"discrete_weight": 0.0,
             "density": {"origin": 0.0, "step": 0.25, "samples": [0.0, 2.0, 2.0, 0.0]}},
    "far": {"discrete_weight": 0.0,
            "density": {"origin": 1e9, "step": 0.25, "samples": [0.0, 2.0, 2.0, 0.0]}},
}
SWEEP = [
    ("check-zero-free {lattice} --window 1e300", 2, "scan grid needs 1e+302 grid points"),
    ("check-zero-free {lattice} --window 1e6 --step 1e-4", 2, "scan grid needs 1e+10 grid points"),
    ("check-zero-free {lattice} --step 1e-300", 2, "scan grid needs 6.4e+301 grid points"),
    ("approximate {wide} --mode mixture --eps 0.1", 3, "root-scan grid needs"),
    ("approximate {sparse} --mode lattice --eps 0.05", 3, "root-scan grid needs 8e+07"),
    ("approximate {fine} --mode abs --eps 0.05", 2, "density grid needs 2.5e+299"),
    ("approximate {fine} --mode abs --side minus --eps 0.05", 2, "kernel grid needs 2.5e+299"),
    ("approximate {fine} --mode mixture --eps 0.05", 3, "identically zero"),
    ("spectral-pair {wide}", 2, "pure lattice"),
    ("tv {fine} {wide}", 0, ""),
    ("tv {near} {far}", 0, ""),
    ("kutlu-scan --step 1e-300", 2, "Kutlu grid side needs 6.283e+300 grid points"),
    ("inf-scan 1e300", 2, "alpha*T = 6.283e+300 exceeds 1e8"),
    ("inf-scan sqrt2 --ladder 100 --step 1e-12", 2, "inf_scan grid needs 1e+14 grid points"),
]


def test_sweep_exits_cleanly_at_every_grid_budget(tmp_path, capsys):
    files = {}
    for name, law in SWEEP_LAWS.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(law))
    for line, code, said in SWEEP:
        argv = line.format(**files).split()
        if argv[0] != "tv":
            argv += ["--out", str(tmp_path / "out")]
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code, line
        assert time.perf_counter() - t0 < 1.0, line
        err = capsys.readouterr().err
        assert said in err, (line, err)
        assert not caught, (line, [str(w.message) for w in caught])
        for word in ("numpy", "Warning", "Traceback", "Maximum allowed size"):
            assert word not in err, (line, err)


class TestCommands:
    def test_check_zero_free_verdicts(self, fair_path, skew_path, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["check-zero-free", fair_path, "--window", "4.0",
                     "--step", "0.01", "--out", str(out)]) == 0
        assert "zero found" in capsys.readouterr().out
        cert = json.loads(out.read_text())
        assert cert["min_modulus"] < 1e-8

        assert main(["check-zero-free", skew_path, "--window", "7.0",
                     "--step", "0.01", "--out", str(out)]) == 0
        assert "zero-free at resolution" in capsys.readouterr().out
        cert = json.loads(out.read_text())
        assert cert["min_modulus"] == pytest.approx(1 / 3, abs=1e-8)

    def test_check_zero_free_defaults(self, skew_path, tmp_path, monkeypatch, capsys):
        # window 64, step 0.01, and the output named after it in the cwd
        monkeypatch.chdir(tmp_path)
        assert main(["check-zero-free", skew_path]) == 0
        assert capsys.readouterr().out.endswith("wrote certificate.json\n")
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["window_T"] == pytest.approx(64.0, abs=0.01)
        assert cert["grid_step"] == 0.01

    def test_certificate_lower_bound_written(self, fair_path, skew_path, tmp_path, capsys):
        # proven by approximate on every path, null for check-zero-free scans
        out = tmp_path / "res.json"
        assert main(["approximate", fair_path, "--mode", "lattice", "--eps", "0.02",
                     "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert 0.0 < cert["lower_bound"] <= cert["min_modulus"]
        assert f"(proven bound {cert['lower_bound']:.6g})" in capsys.readouterr().out
        law = tmp_path / "mix.json"
        save_law(mix(0.5, law_from_atoms([(0.0, 0.2), (1.0, 0.8)]), uniform_density(0.0, 1.0)),
                 str(law))
        assert main(["approximate", str(law), "--mode", "mixture", "--eps", "0.1",
                     "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert 0.0 < cert["lower_bound"] <= cert["min_modulus"]
        assert f"(proven bound {cert['lower_bound']:.6g})" in capsys.readouterr().out
        assert main(["check-zero-free", skew_path, "--window", "7.0", "--step", "0.01",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["lower_bound"] is None

    def test_point_mass_unit_modulus(self, tmp_path, capsys):
        path = tmp_path / "pm.json"
        save_law(point_mass(1.0), str(path))
        out = tmp_path / "cert.json"
        assert main(["check-zero-free", str(path), "--window", "4.0",
                     "--step", "0.01", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["min_modulus"] == pytest.approx(1.0, abs=1e-12)

    def test_spectral_pair_file(self, skew_path, tmp_path):
        out = tmp_path / "pair.json"
        assert main(["spectral-pair", skew_path, "-K", "20", "--out", str(out)]) == 0
        pair = json.loads(out.read_text())
        atoms = {k: v for k, v in pair["atoms"]}
        assert atoms[1] == pytest.approx(0.5, abs=1e-10)
        # two_thirds_law: |lambda_k| = 2^-k / k beyond K = 20
        assert pair["tail"] == pytest.approx(sum(0.5 ** k / k for k in range(21, 400)), rel=1e-6)

    def test_tv_output(self, fair_path, tmp_path, capsys):
        d0 = tmp_path / "d0.json"
        save_law(point_mass(0.0), str(d0))
        assert main(["tv", fair_path, str(d0)]) == 0
        value, bound = capsys.readouterr().out.split()
        assert float(value) == pytest.approx(1.0, abs=1e-15)
        assert float(bound) == 0.0

    @pytest.mark.parametrize("atoms", [
        [[math.nan, 0.5], [1, 0.5]],
        [[0, 0.5], [math.inf, 0.5]],
        [[0, 0.5, 0], [1, 0.5, 0]],
        [[0, 0.5], [1]],
        "[[0, 1]]",
        [[0, 0.0], [1, 1.0]],
        [[0, -0.5], [1, 0.75], [2, 0.75]],
        [[0, 1.5]],
        [[1, 0.5], [0, 0.5]],
    ], ids=["nan", "inf", "three_columns", "ragged", "string", "zero_mass",
            "negative_mass", "mass_above_one", "unsorted"])
    def test_tv_rejects_malformed_atoms(self, atoms, fair_path, tmp_path, capsys):
        data = {"discrete_weight": 1, "atoms": atoms}
        with pytest.raises(InputError):
            law_from_dict(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["tv", str(bad), fair_path]) == 2
        assert "input error" in capsys.readouterr().err

    def test_memory_error_is_method_failure(self, fair_path, monkeypatch, capsys):
        def exhaust(args):
            raise MemoryError("Unable to allocate 86.1 GiB")
        monkeypatch.setattr("qidlab.cli.cmd_tv", exhaust)
        assert main(["tv", fair_path, fair_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("method failure: out of memory")
        assert "86.1 GiB" in err

    def test_kutlu_scan_csv(self, tmp_path):
        out = tmp_path / "kutlu.csv"
        assert main(["kutlu-scan", "--step", "0.02", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t1,t2,abs_phi"
        assert len(lines) == 3
        z = 2 * math.pi / 3
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        for t1, t2, aphi in rows:
            assert min(abs(t1 - z), abs(t1 + z)) < 1e-6
            assert aphi < 1e-9

    def test_inf_scan_csv(self, tmp_path):
        out = tmp_path / "inf.csv"
        assert main(["inf-scan", "3/2", "--ladder", "50,200",
                     "--step", "0.01", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "T,min_modulus,argmin_t"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert vals[0] == pytest.approx(vals[1], rel=1e-6)

    def test_mixture_mode(self, tmp_path, fair_bernoulli, uniform01):
        path = tmp_path / "mixture.json"
        save_law(mix(0.5, fair_bernoulli, uniform01), str(path))
        out = tmp_path / "res.json"
        assert main(["approximate", str(path), "--mode", "mixture",
                     "--eps", "0.1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tv_value"] <= 0.4
