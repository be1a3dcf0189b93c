"""One worker process of a benchmark run.

    python bench/worker.py WORKLOAD SEED SLICE_S MIN_JOBS TRACE RECORD_DIR

Sets up (imports qidlab, builds one round of inputs, runs one warm-up
job), prints READY, then runs whole rounds of jobs until SLICE_S seconds
of job time have passed and MIN_JOBS jobs have run. Each job's output goes to RECORD_DIR as JSON,
written after the job's clock stops; the parent checks the records.
With TRACE=1 rounds alternate untraced and traced. The last line of
stdout is a JSON summary of job times, failures and layer metrics.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# Outputs as plain data, in the layout of the qidlab CLI's JSON files


def law_data(law) -> dict:
    out = {"discrete_weight": law.discrete_weight}
    if law.discrete is not None:
        out["atoms"] = [[a.location, a.mass] for a in law.discrete.atoms]
    if law.continuous is not None:
        d = law.continuous
        out["density"] = {"origin": d.grid_origin, "step": d.grid_step,
                          "samples": d.samples.tolist()}
    return out


def result_data(r) -> dict:
    c = r.certificate
    return {"approximant": law_data(r.approximant), "tv_value": r.tv_value,
            "tv_bound_claimed": r.tv_bound_claimed, "tv_error_bound": r.tv_error_bound,
            "certificate": {"window_T": c.window_T, "grid_step": c.grid_step,
                            "min_modulus": c.min_modulus, "argmin_t": c.argmin_t},
            "params": {"case": r.params.get("case")}}


def pair_data(p) -> dict:
    return {"gamma": p.drift_gamma, "a": p.lattice_a, "b": p.lattice_b,
            "atoms": [[k, lam] for k, lam in p.signed_atoms], "residual": p.residual,
            "K": p.truncation_K}


# ---------------------------------------------------------------------------
# Workloads: prepare(payload) once in set-up, run(prepared) per job,
# record(output) after the job's clock stops.


class InProcess:
    """Each job calls the qidlab library in this process."""

    def __init__(self, workload: str, seed: int):
        t0 = time.perf_counter()
        import qidlab
        from qidlab.jsonio import law_from_dict
        self.import_s = time.perf_counter() - t0
        self.q = qidlab
        self.law = law_from_dict
        self.jobs = [self.prepare(kind, payload) for kind, payload in inputs.ROUNDS[workload](seed)]
        self.run = getattr(self, "run_" + workload)

    def prepare(self, kind, payload):
        if kind == "lattice":
            return kind, self.law(payload)
        return kind, (self.law(payload["law"]), [self.law(m) for m in payload["mixtures"]])

    def run_lattice(self, job):
        _, F = job
        r = self.q.approximate_lattice(F, inputs.EPS)
        return r, self.q.lattice_spectral_pair(r.approximant, K=64)

    def run_density(self, job):
        _, (F, mixtures) = job
        a = self.q.approximate_abs_cont
        out = [a(F, inputs.EPS, 0.4, 0.5, "plus"), a(F, inputs.EPS, 0.4, 0.5, "minus")]
        return out + [self.q.approximate_mixture(M, inputs.EPS) for M in mixtures]

    def record(self, job, out) -> dict:
        kind = job[0]
        if kind == "lattice":
            return {"result": result_data(out[0]), "pair": pair_data(out[1])}
        return {"results": [result_data(r) for r in out]}

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cli:
    """Each job is a fresh `python -m qidlab.cli` process; traced jobs
    run the CLI under bench/cli_traced.py instead."""

    def __init__(self, workload: str, seed: int, record_dir: Path):
        self.dir = record_dir
        self.import_s = 0.0
        self.jobs = []
        for slot, (name, payload) in enumerate(inputs.ROUNDS[workload](seed)):
            files = {}
            for key, law in payload["inputs"].items():
                path = self.dir / f"in{slot}-{key}.json"
                path.write_text(json.dumps(law))
                files[key] = str(path)
            self.jobs.append((name, payload["argv"], files))
        self.count = 0
        self.trace_path = None

    def run(self, job):
        _, argv, files = job
        self.count += 1
        out = self.dir / f"out{self.count}"
        args = [a.format(out=out, **files) for a in argv]
        if self.trace_path is not None:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(self.trace_path)]
        else:
            cmd = [sys.executable, "-m", "qidlab.cli"]
        proc = subprocess.run(cmd + args, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, cwd=self.dir)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout, out

    def record(self, job, out) -> dict:
        stdout, path = out
        text = None
        if path.exists():
            text = path.read_text()
            path.unlink()
        return {"stdout": stdout, "out": text}

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# ---------------------------------------------------------------------------


def run_job(w, job, tracer, record_dir: Path):
    """Run one job; returns (output or exception, seconds, layer totals
    or None). Tracing, when on, is installed around the job only."""
    cli_trace = record_dir / "trace.json"
    if tracer is not None and isinstance(w, Cli):
        w.trace_path = cli_trace
    elif tracer is not None:
        mark = tracer.mark()
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = w.run(job)
    except Exception as exc:            # a failed operation is counted, not fatal
        out = exc
    dt = time.perf_counter() - t0
    layers = None
    if tracer is not None and isinstance(w, Cli):
        w.trace_path = None
        if not isinstance(out, Exception):
            data = json.loads(cli_trace.read_text())
            tracer.spans.append(data["spans"])
            layers = layer_metrics(data["spans"])
            layers["cli.import_s"] = data["import_s"]
            layers["cli.main_s"] = data["main_s"]
    elif tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, mark)
    return out, dt, layers


def main(argv: list[str]) -> int:
    workload, seed, slice_s, min_jobs, trace, record_dir = argv
    seed, slice_s, min_jobs = int(seed), float(slice_s), int(min_jobs)
    trace, record_dir = trace == "1", Path(record_dir)
    w = Cli(workload, seed, record_dir) if workload == "cli" else InProcess(workload, seed)
    tracer = Tracer() if trace else None
    try:
        w.run(w.jobs[0])                        # warm-up, not timed
    except Exception:                           # counted when the job runs timed
        pass
    print("READY", flush=True)

    times, traced, errors, layers = [], [], [], {}
    busy, rounds, done, traced_ok = 0.0, 0, 0, 0
    while True:
        round_tracer = tracer if trace and rounds % 2 == 1 else None
        for slot, job in enumerate(w.jobs):
            out, dt, job_layers = run_job(w, job, round_tracer, record_dir)
            busy += dt
            times.append(dt)
            traced.append(round_tracer is not None)
            if isinstance(out, Exception):
                errors.append(f"slot {slot}: {type(out).__name__}: {out}"[:400])
            else:
                rec = {"slot": slot, "output": w.record(job, out)}
                (record_dir / f"rec{done}.json").write_text(json.dumps(rec))
            traced_ok += job_layers is not None
            for k, v in (job_layers or {}).items():
                layers[k] = layers.get(k, 0) + v
            done += 1
        rounds += 1
        if busy >= slice_s and done >= min_jobs and (not trace or rounds % 2 == 0):
            break
    if tracer is not None:
        tracer.dump(str(record_dir / "spans.json"))
    summary = {"times": times, "traced": traced, "attempted": len(times),
               "failed": len(errors), "errors": errors[:20], "busy_s": busy,
               "peak_rss_kib": w.peak_rss_kib(), "import_s": w.import_s,
               "layers": layers, "traced_ok": traced_ok}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
