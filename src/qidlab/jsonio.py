"""Canonical JSON and CSV serialization.

All floats are written with 17 significant digits ('%.17g'), which
round-trips IEEE doubles exactly, so parse -> serialize is byte-stable
and scan tables can serve as regression baselines.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .charfn import ZeroFreeCertificate
from .dist import DensityLaw, DiscreteLaw, Law
from .errors import InputError
from .pipelines import ApproxResult
from .spectral import SpectralPair


def _fmt(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        raise InputError("cannot serialize non-finite float")
    return "%.17g" % x


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text with '%.17g' floats and stable key order."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {canonical_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(canonical_dumps(v) for v in obj) + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Law


def law_to_dict(F: Law) -> dict:
    out: dict[str, Any] = {"discrete_weight": F.discrete_weight}
    if F.discrete is not None:
        out["atoms"] = np.column_stack((F.discrete.locations, F.discrete.masses)).tolist()
    if F.continuous is not None:
        d = F.continuous
        out["density"] = {"origin": d.grid_origin, "step": d.grid_step,
                          "samples": list(d.samples)}
    return out


def law_from_dict(data: dict) -> Law:
    try:
        w = float(data["discrete_weight"])
        disc = None
        if "atoms" in data and data["atoms"] is not None:
            atoms = np.asarray(data["atoms"], dtype=float)
            if atoms.ndim != 2 or atoms.shape[1] != 2:
                raise InputError("atoms must be a list of [location, mass] pairs")
            disc = DiscreteLaw(atoms[:, 0], atoms[:, 1])
        cont = None
        if "density" in data and data["density"] is not None:
            dd = data["density"]
            cont = DensityLaw(float(dd["origin"]), float(dd["step"]),
                              np.asarray(dd["samples"], dtype=float))
        return Law(w, disc, cont)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed law JSON: {exc}") from exc


def load_law(path: str) -> Law:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read law from {path}: {exc}") from exc
    return law_from_dict(data)


def save_law(F: Law, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(law_to_dict(F)) + "\n")


# ---------------------------------------------------------------------------
# Certificates, spectral pairs, results


def certificate_to_dict(cert: ZeroFreeCertificate) -> dict:
    return {"window_T": cert.window_T, "grid_step": cert.grid_step,
            "min_modulus": cert.min_modulus, "argmin_t": cert.argmin_t,
            "tail_bound": cert.tail_bound, "lower_bound": cert.lower_bound}


def spectral_pair_to_dict(pair: SpectralPair) -> dict:
    return {"gamma": pair.drift_gamma, "a": pair.lattice_a, "b": pair.lattice_b,
            "atoms": [[int(k), lam] for k, lam in pair.signed_atoms],
            "residual": pair.residual, "tail": pair.tail_mass}


def approx_result_to_dict(result: ApproxResult) -> dict:
    return {"approximant": law_to_dict(result.approximant),
            "eps": result.eps,
            "params": dict(result.params),
            "tv_value": result.tv_value,
            "tv_bound_claimed": result.tv_bound_claimed,
            "tv_error_bound": result.tv_error_bound,
            "certificate": certificate_to_dict(result.certificate)}


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
