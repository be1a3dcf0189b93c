"""qidlab benchmark: closed-loop workloads with independent output checks.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --write-spec            # rewrite BENCHMARK.json

One client runs one job at a time. A run starts three or four fresh
worker processes one after another; each sets up (interpreter, `import
qidlab`, inputs, one untimed warm-up job) and then runs whole rounds of
jobs for its share of --seconds, so set-up is measured once per worker.
Every output is checked by numpy code of the benchmark's own. The last
line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import verify

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = ROOT / ".bench_out"

RUN_SECONDS = 20
# Worker processes of an untraced run: each times one set-up and runs whole
# 10-job rounds for RUN_SECONDS / workers of job time and MIN_JOBS / workers
# jobs at least, so a run has ten jobs beyond its tail. A cli round is ten
# cold processes, so four workers run one round each; in-process rounds
# take a few seconds, so three workers run two rounds each, which measures
# over a longer span of the host's speed phases for the same time per run.
WORKERS = {"cli": 4, "lattice": 3, "density": 3}
MIN_JOBS = 40
TRACE_WORKERS = 2    # traced runs: rounds alternate untraced and traced
RUN_DEADLINE_S = 170

WORKLOADS = {
    "cli": "cold qidlab CLI processes over every subcommand; import time dominates "
           "end-to-end latency",
    "lattice": "approximate_lattice plus a K=64 spectral pair on 160-atom lattice laws; "
               "charfn atom path and zerofree root scan, no density code",
    "density": "abs-cont smoothing on both sides plus mixture cases 1a, 1b, 2; charfn CZT "
               "path, decay window, dist convolution and TV",
}
END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    # Timings get the largest bound allowed: on the shared 2-core host the
    # same work runs up to 1.5x slower for seconds at a time (README).
    ("setup_s", "s", "lower", 0.25),
    ("job_s_p50", "s", "lower", 0.25),
    ("job_s_tail", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]
PER_LAYER = {**tracer.metric_units(), "trace.overhead_s": "s"}


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in sorted(PER_LAYER.items())],
    }


def tail(times: list[float]) -> float:
    """Highest percentile with at least ten jobs beyond it."""
    return sorted(times)[len(times) - 11]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one BLAS thread: the jobs are single-client and the host has two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(workload: str, seed: int, slice_s: float, min_jobs: int, trace: bool,
            rec: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its summary)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           repr(slice_s), str(min_jobs), "1" if trace else "0", str(rec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {rec.name} of {workload} failed (exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def _end_to_end(setups: list[float], summaries: list[dict], times: list[float]) -> dict:
    busy = sum(s["busy_s"] for s in summaries)
    return {
        "setup_s": statistics.median(setups),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail(times),
        "jobs_per_s": len(times) / busy,
        "peak_rss_mib": max(s["peak_rss_kib"] for s in summaries) / 1024.0,
    }


def _per_layer(workload: str, summaries: list[dict], times: list[float]) -> dict:
    """Means per traced job; cli.import_s of in-process workloads is the
    workers' own import; overhead is traced minus untraced median."""
    n = sum(s["traced_ok"] for s in summaries)
    totals: dict[str, float] = {}
    for s in summaries:
        for k, v in s["layers"].items():
            totals[k] = totals.get(k, 0) + v
    values = {k: totals.get(k, 0) / max(1, n) for k in PER_LAYER}
    if workload != "cli":
        values["cli.import_s"] = statistics.median(s["import_s"] for s in summaries)
    traced = [t for s in summaries for t, tr in zip(s["times"], s["traced"]) if tr]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
    return values


def _print_gaps(workload: str, gaps: list[tuple]) -> None:
    by_label: dict[str, list] = {}
    for label, cert, ind in gaps:
        by_label.setdefault(label, []).append((cert, ind))
    for label, pairs in sorted(by_label.items()):
        ratio = statistics.median(c / i for c, i in pairs)
        print(f"{workload}: certificate gap {label}: median certificate/independent "
              f"minimum {ratio:.4g} over {len(pairs)} outputs "
              f"(min certificate {min(c for c, _ in pairs):.4g}, "
              f"min independent {min(i for _, i in pairs):.4g})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = RECORDS / workload
    shutil.rmtree(base, ignore_errors=True)
    setups, summaries, dirs = [], [], []
    workers = TRACE_WORKERS if trace else WORKERS[workload]
    for i in range(workers):
        rec = base / f"w{i}"
        rec.mkdir(parents=True)
        setup, summary = _worker(workload, seed, seconds / workers, -(-MIN_JOBS // workers),
                                 trace, rec, deadline)
        setups.append(setup)
        summaries.append(summary)
        dirs.append(rec)
    errors, gaps, checked = verify.verify(workload, seed, dirs)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    for s in summaries:
        for e in s["errors"]:
            print(f"{workload}: failed operation: {e}")
    for e in errors:
        print(f"{workload}: check failed: {e}")
    times = [t for s in summaries for t, tr in zip(s["times"], s["traced"]) if not tr]
    if trace:
        values = _per_layer(workload, summaries, times)
        units = PER_LAYER
    else:
        values = _end_to_end(setups, summaries, times)
        units = {n: u for n, u, _, _ in END_TO_END}
        _print_gaps(workload, gaps)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(units)}
    print(f"{workload}: {attempted} jobs attempted, {failed} failed, "
          f"{checked} distinct outputs checked, {len(errors)} check failures")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions above and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "qidlab" / "__init__.py").is_file():
        print(f"no qidlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
