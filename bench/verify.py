"""Route each job record of a run to the independent checks.

Records of the same job slot whose bytes are identical share one
check, so every distinct output is checked exactly once.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import checks
import inputs

# most t points of one certificate re-scan
_CF_POINTS = 8192


def _cert_points(cert: dict) -> int:
    """The certificate's own grid, capped at _CF_POINTS points."""
    return min(_CF_POINTS, int(math.ceil(cert["window_T"] / cert["grid_step"])))


def _approx(label: str, target: dict, res: dict) -> list[tuple]:
    """TV recomputed and |cf| re-scanned over the certificate window."""
    law = res["approximant"]
    checks.check_tv(target, law, res["tv_value"], res["tv_bound_claimed"], res["tv_error_bound"])
    cert = res["certificate"]
    m = checks.check_certificate(law, cert["window_T"], _cert_points(cert))
    return [(label, cert["min_modulus"], m)]


def _lattice(payload, out) -> list[tuple]:
    gaps = _approx("lattice", payload, out["result"])
    p = out["pair"]
    checks.check_spectral(out["result"]["approximant"], p["gamma"], p["b"], p["atoms"],
                          p["residual"], p["K"])
    return gaps


def _density(payload, out) -> list[tuple]:
    targets = [payload["law"], payload["law"]] + payload["mixtures"]
    labels = [f"abs {payload['kind']} plus", f"abs {payload['kind']} minus",
              "mixture 1a", "mixture 1b", "mixture 2"]
    gaps = []
    for label, target, res in zip(labels, targets, out["results"], strict=True):
        case = label.split()[-1] if label.startswith("mixture") else None
        if case is not None and res["params"]["case"] != case:
            raise checks.CheckError(f"mixture ran case {res['params']['case']}, expected {case}")
        gaps += _approx(label, target, res)
    return gaps


def _csv_rows(text: str) -> list[list[float]]:
    return [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]


def _cli(name, payload, out) -> list[tuple]:
    law = payload["inputs"].get("in")
    if name == "approximate":
        return _approx("cli approximate", law, json.loads(out["out"]))
    if name == "check-zero-free":
        cert = json.loads(out["out"])
        n = int(round(cert["window_T"] / cert["grid_step"]))
        grid = checks.cf_min(law, cert["window_T"], n)
        at = float(abs(checks.cf_direct(law, [cert["argmin_t"]])[0]))
        if not (0.0 < cert["min_modulus"] <= grid + 1e-9 and abs(at - cert["min_modulus"]) <= 1e-9):
            raise checks.CheckError(f"certificate {cert} disagrees with the grid minimum {grid!r}")
        return [("cli check-zero-free", cert["min_modulus"], grid)]
    if name == "spectral-pair":
        p = json.loads(out["out"])
        checks.check_spectral(law, p["gamma"], p["b"], p["atoms"], p["residual"], payload["K"])
        return []
    if name == "tv":
        value, bound = (float(v) for v in out["stdout"].split())
        ours = checks.tv(law, payload["inputs"]["in2"])
        if abs(ours - value) > 1e-6 + 1e-3 * ours + bound:
            raise checks.CheckError(f"tv recomputed {ours!r} differs from printed {value!r}")
        return []
    if name == "kutlu-scan":
        checks.check_kutlu([row[:2] for row in _csv_rows(out["out"])])
        return []
    minima = _csv_rows(out["out"])
    if payload["irrational"]:
        checks.check_inf_scan(payload["alpha"], inputs.INF_STEP, minima, irrational=True)
    else:
        m = re.search(r"one-period floor ([0-9.eE+-]+)", out["stdout"])
        if m is None:
            raise checks.CheckError("rational inf-scan printed no one-period floor")
        floor = float(m.group(1))
        tol = 1e-5 * floor + 1e-9          # the floor is printed with six digits
        checks.check_floor(payload["p"], payload["q"], inputs.INF_STEP, floor, tol=tol)
        checks.check_inf_scan(payload["alpha"], inputs.INF_STEP, minima, irrational=False,
                              floor=floor, floor_tol=tol)
    return []


def check_output(workload: str, kind: str, payload, out) -> list[tuple]:
    """Run the checks of one output; returns certificate gaps
    (label, certificate minimum, independent minimum)."""
    if workload == "lattice":
        return _lattice(payload, out)
    if workload == "density":
        return _density(payload, out)
    return _cli(kind, payload, out)


def verify(workload: str, seed: int, record_dirs: list[Path]) -> tuple[list[str], list[tuple], int]:
    """Check every distinct record; returns (errors, gaps, outputs checked)."""
    jobs = inputs.ROUNDS[workload](seed)
    done: set[tuple[int, str]] = set()
    errors, gaps = [], []
    for d in record_dirs:
        for path in sorted(d.glob("rec*.json")):
            text = path.read_text()
            rec = json.loads(text)
            key = (rec["slot"], hashlib.sha256(text.encode()).hexdigest())
            if key in done:
                continue
            done.add(key)
            kind, payload = jobs[rec["slot"]]
            try:
                gaps += check_output(workload, kind, payload, rec["output"])
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"{path.name} slot {rec['slot']}: {type(exc).__name__}: {exc}"[:400])
    return errors, gaps, len(done)
