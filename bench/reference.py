"""Re-measure the baseline table of ROADMAP item 1 with the benchmark's
environment (one BLAS thread, sources from src/).

    python3 bench/reference.py

Each row is timed once in a warm process after an untimed warm-up,
except the cold CLI row, which is the median of three fresh processes.
The two large rows take about a minute together.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import run


def _cold_cli(tmp: Path) -> float:
    law = tmp / "two_atoms.json"
    law.write_text(json.dumps({"discrete_weight": 1, "atoms": [[0, 0.2], [1, 0.8]]}))
    cmd = [sys.executable, "-m", "qidlab.cli", "approximate", str(law), "--mode", "lattice",
           "--eps", "0.05", "--out", str(tmp / "out.json")]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, env=run._env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # BLAS reads its thread count once, at import: restart in the run's environment
        os.execve(sys.executable, [sys.executable, __file__], run._env())
    import qidlab as q
    uniform = q.uniform_density(0.0, 1.0)
    tnormal = q.density_from_callable(lambda x: np.exp(-0.5 * x * x), -2.0, 2.0)
    poisson = q.law_from_atoms([(k, math.exp(-4.0) * 4.0 ** k / math.factorial(k))
                                for k in range(40)], normalize=True)
    mixture2 = q.mix(0.3, q.law_from_atoms([(0.0, 0.7), (0.25, 0.15), (0.5, 0.15)]),
                     q.uniform_density(0.0, 1.0, cells=256))
    big = q.law_from_atoms([(float(k), 1.0 / 2000) for k in range(2000)], normalize=True)
    pair_law = q.approximate_lattice(poisson, 0.05).approximant
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    q.approximate_abs_cont(uniform, 0.05, 0.4, 0.5, "plus")       # warm-up: lazy imports
    rows = []
    tmp = run.RECORDS / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    rows.append(("`qidlab approximate` on 2 atoms, cold", _cold_cli(tmp)))
    rows += [
        ("abs-cont, uniform", _timed(lambda: q.approximate_abs_cont(uniform, 0.05, 0.4, 0.5, "plus"))),
        ("abs-cont, truncated normal",
         _timed(lambda: q.approximate_abs_cont(tnormal, 0.05, 0.4, 0.5, "plus"))),
        ("mixture case 2", _timed(lambda: q.approximate_mixture(mixture2, 0.05))),
        ("lattice, Poisson(4)", _timed(lambda: q.approximate_lattice(poisson, 0.05))),
        ("spectral pair, K=64", _timed(lambda: q.lattice_spectral_pair(pair_law, K=64))),
        ("kutlu-scan, step 0.005", _timed(lambda: q.kutlu_zero_scan(0.005))),
        ("inf-scan, golden to T=1e4", _timed(lambda: q.inf_scan(golden, [1e4], 0.01))),
        ("lattice, uniform on 2000 atoms", _timed(lambda: q.approximate_lattice(big, 0.05))),
        ("inf-scan, golden to T=1e6", _timed(lambda: q.inf_scan(golden, [1e4, 1e6], 0.01))),
    ]
    print("| workload | time |\n|---|---|")
    for name, t in rows:
        print(f"| {name} | {t * 1e3:.0f} ms |" if t < 1 else f"| {name} | {t:.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
