"""Command-line surface: approximation pipelines, zero-free scans,
spectral extraction, total variation and the impossibility scans, with
JSON/CSV file I/O.

Exit codes: 0 success with certificate, 2 input error (parse failure,
shape mismatch, bad parameter, non-finite number), 3 method failure (no
certified result, or out of memory).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import config
from .charfn import CharFn, min_modulus_scan
from .errors import InputError, MethodError
from .impossibility import (inf_scan, kutlu_phi, kutlu_zero_scan, one_period_floor,
                            parse_alpha)
from .jsonio import (approx_result_to_dict, canonical_dumps, certificate_to_dict,
                     load_law, spectral_pair_to_dict, write_csv)
from .pipelines import approximate_abs_cont, approximate_lattice, approximate_mixture
from .spectral import lattice_spectral_pair
from .dist import tv_distance

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_METHOD = 3


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(payload) + "\n")


def cmd_approximate(args) -> int:
    law = load_law(args.input)
    if args.mode == "abs":
        if not law.is_pure_density:
            raise InputError("mode=abs needs a purely absolutely continuous law")
        result = approximate_abs_cont(law, args.eps, args.q, args.tau, args.side)
    elif args.mode == "lattice":
        if not law.is_pure_discrete:
            raise InputError("mode=lattice needs a pure discrete law")
        result = approximate_lattice(law, args.eps)
    else:
        result = approximate_mixture(law, args.eps, args.q, args.tau, args.side)
    _write_json(approx_result_to_dict(result), args.out)
    cert = result.certificate
    print(f"tv_value {result.tv_value:.6g} <= claimed {result.tv_bound_claimed:.6g}; "
          f"certificate min {cert.min_modulus:.6g} (proven bound {cert.lower_bound:.6g}); "
          f"wrote {args.out}")
    return EXIT_OK


def cmd_check_zero_free(args) -> int:
    law = load_law(args.input)
    cert = min_modulus_scan(CharFn(law), args.window, args.step)
    verdict = ("zero found" if cert.min_modulus < config.ZERO_VERDICT_TOL
               else "zero-free at resolution")
    payload = certificate_to_dict(cert)
    payload["verdict"] = verdict
    _write_json(payload, args.out)
    print(f"{verdict}: min |f| = {cert.min_modulus:.6g} at t = {cert.argmin_t:.6g}; "
          f"wrote {args.out}")
    return EXIT_OK


def cmd_spectral_pair(args) -> int:
    law = load_law(args.input)
    pair = lattice_spectral_pair(law, K=args.K)
    _write_json(spectral_pair_to_dict(pair), args.out)
    print(f"gamma {pair.drift_gamma:.6g}, {len(pair.signed_atoms)} signed atoms, "
          f"residual {pair.residual:.3g}; wrote {args.out}")
    return EXIT_OK


def cmd_tv(args) -> int:
    value, bound = tv_distance(load_law(args.input1), load_law(args.input2))
    print(f"{value:.17g} {bound:.17g}")
    return EXIT_OK


def cmd_kutlu_scan(args) -> int:
    scan = kutlu_zero_scan(args.step)
    rows = [(t1, t2, float(abs(kutlu_phi(t1, t2))))
            for t1, t2 in scan.zero_locations]
    write_csv(args.out, ["t1", "t2", "abs_phi"], rows)
    print(f"min |phi| = {scan.min_modulus:.3g}, {len(rows)} zeros; wrote {args.out}")
    return EXIT_OK


def cmd_inf_scan(args) -> int:
    alpha, frac = parse_alpha(args.alpha)
    ladder = [float(x) for x in args.ladder.split(",")]
    # the floor scan runs first so that either scan's point cap stops the
    # command before any output is written
    floor = None
    if frac is not None and frac.denominator <= 1000:
        floor, _ = one_period_floor(frac, args.step)
    report = inf_scan(alpha, ladder, args.step)
    rows = [(T, m, t) for T, m, t in report.minima]
    write_csv(args.out, ["T", "min_modulus", "argmin_t"], rows)
    msg = f"minima {', '.join('%.4g' % m for _, m, _ in report.minima)}; wrote {args.out}"
    if floor is not None:
        msg += f" (rational alpha: one-period floor {floor:.6g})"
    print(msg)
    return EXIT_OK


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as InputError, so they exit 2 like every
    other input error."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qidlab",
        description="Zero-free approximation of probability laws with "
                    "certified total-variation error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="run an approximation pipeline")
    p.add_argument("input", help="law JSON file")
    p.add_argument("--mode", choices=["abs", "lattice", "mixture"], required=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--q", type=_finite_float, default=0.4)
    p.add_argument("--tau", type=_finite_float, default=0.5)
    p.add_argument("--side", choices=["plus", "minus"], default="plus")
    p.add_argument("--out", default="approx_result.json")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("check-zero-free", help="scan |f| for zeros")
    p.add_argument("input")
    p.add_argument("--window", type=_finite_float, default=64.0)
    p.add_argument("--step", type=_finite_float, default=0.01)
    p.add_argument("--out", default="certificate.json")
    p.set_defaults(func=cmd_check_zero_free)

    p = sub.add_parser("spectral-pair", help="extract the spectral pair")
    p.add_argument("input")
    p.add_argument("-K", type=int, default=64)
    p.add_argument("--out", default="spectral_pair.json")
    p.set_defaults(func=cmd_spectral_pair)

    p = sub.add_parser("tv", help="total variation between two laws")
    p.add_argument("input1")
    p.add_argument("input2")
    p.set_defaults(func=cmd_tv)

    p = sub.add_parser("kutlu-scan", help="scan the three-exponential function for zeros")
    p.add_argument("--step", type=_finite_float, default=0.005)
    p.add_argument("--out", default="kutlu_scan.csv")
    p.set_defaults(func=cmd_kutlu_scan)

    p = sub.add_parser("inf-scan", help="window minima of the three-point CF")
    p.add_argument("alpha", help="named constant (sqrt2, golden, pi, e), "
                                 "fraction p/q, or decimal")
    p.add_argument("--ladder", default="100,1000,10000")
    p.add_argument("--step", type=_finite_float, default=0.01)
    p.add_argument("--out", default="inf_scan.csv")
    p.set_defaults(func=cmd_inf_scan)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MethodError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return EXIT_METHOD
    except MemoryError as exc:
        print(f"method failure: out of memory ({exc})", file=sys.stderr)
        return EXIT_METHOD
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
