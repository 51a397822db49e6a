"""Command-line front end.

Subcommands: divergence, kappa, sweep, probe (ratio|inequality|envelope),
construct-u0, demo-counterexample, validate-phi, oracle.  JSON outputs are
deterministic (sorted keys, stable float repr) and validate against the
schema files shipped in deformed_renyi/schemas/.  JSON is strict: a
non-finite float (an infinite kappa, an unbounded ratio, an overflowing term)
is written as the string "inf", "-inf" or "nan", never as a bare Infinity or
NaN.

Every subcommand takes --out (write to a file instead of stdout); divergence,
kappa and sweep also take --tol (solver tolerance on the normalization
residual).  Each probe kind takes only the options it reads: probe ratio
takes --lambda0, --umax, --threshold and --strict, probe inequality takes
--alpha, --u0-value and --ugrid, and probe envelope takes --lambda0,
--bound-k, --c, --ugrid and --vgrid, beside --family and --out.

Exit codes: 0 success, 2 validation error, 3 divergent integral or bracket
failure, 4 inconclusive probe under --strict, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .divergences import classical_renyi, generalized_renyi, kl_divergence, sweep, tsallis_relative_entropy
from .existence import (
    VERDICT_INCONCLUSIVE,
    _shifted_range,
    adversarial_nonexistence_demo,
    construct_u0_sequence,
    growth_envelope_check,
    pointwise_inequality_probe,
    ratio_limsup_probe,
)
from .families import parse_family_spec, validate_family
from .kappa import SolveStatus, solve_kappa
from .measures import load_pair, read_float_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_ROOT = 3
EXIT_INCONCLUSIVE = 4
EXIT_USAGE = 64

UGRID_DEFAULT = "-50:200:2001"
VGRID_DEFAULT = "0:20:201"
UMIN_DEFAULT, UMAX_DEFAULT = -50.0, 50.0  # validate-phi


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_u0(spec: str, size: int):
    kind, _, arg = spec.partition(":")
    if kind == "const":  # the solver checks that it is positive and finite
        return float(arg)
    if kind == "seq":
        header, rows, _ = read_float_csv(arg)
        if header != ["u0"]:
            raise ValueError(f"{arg}: expected single-column CSV with header 'u0'")
        arr = np.asarray(rows, dtype=float).reshape(-1)
        if arr.size != size:
            raise ValueError(f"u0 sequence has {arr.size} entries, pair has {size}")
        return arr
    if kind == "constructed":
        obj = json.loads(Path(arg).read_text())
        arr = np.asarray(obj["u0_sequence"], dtype=float)
        if arr.size < size:
            raise ValueError(f"constructed u0 has {arr.size} entries, pair needs {size}")
        return arr[:size]
    raise ValueError(f"unknown u0 spec {spec!r}; use const:<x>, seq:<csv>, constructed:<json>")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        n = 0
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bad grid {spec!r}: expected lo:hi:n with finite lo, hi and n >= 1")
    return np.linspace(lo, hi, n)


def _parse_alphas(spec: str) -> np.ndarray:
    if ":" in spec:
        return _parse_grid(spec)
    return np.asarray([float(x) for x in spec.split(",")])


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, args) -> None:
    # a non-finite float that reaches here is an error (exit 2), never NaN or Infinity
    _emit(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", args.out)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _status_exit(status: SolveStatus) -> int:
    return EXIT_OK if status is SolveStatus.CONVERGED else EXIT_NO_ROOT


def _problem(args):
    """The family, the pair and the u0 of a solver subcommand."""
    family = parse_family_spec(args.family)
    pair = load_pair(args.pair)
    return family, pair, _parse_u0(args.u0, pair.measure.size)


def _cmd_divergence(args) -> int:
    family, pair, u0 = _problem(args)
    report = generalized_renyi(family, pair, args.alpha, u0=u0, tol=args.tol)
    report.u0 = args.u0  # the spec as given, not the solver's label
    _emit_json(report.to_json(), args)
    return _status_exit(report.status)


def _cmd_kappa(args) -> int:
    family, pair, u0 = _problem(args)
    result = solve_kappa(family, pair, args.alpha, u0=u0, tol=args.tol)
    obj = result.to_json()
    obj["family"] = family.family_id
    _emit_json(obj, args)
    return _status_exit(result.status)


def _cmd_sweep(args) -> int:
    family, pair, u0 = _problem(args)
    reports = sweep(family, pair, _parse_alphas(args.alphas), u0=u0, tol=args.tol)
    rows = [
        [format(r.alpha, ".17g"), format(r.kappa, ".17g"), format(r.value, ".17g"), r.status.value]
        for r in reports
    ]
    _emit(_csv_text(["alpha", "kappa", "value", "status"], rows), args.out)
    return max(_status_exit(r.status) for r in reports)


def _within(grid, bounds):
    lo, hi = bounds
    return grid[(grid >= lo) & (grid <= hi)]


def _cmd_probe(args) -> int:
    family = parse_family_spec(args.family)
    if args.kind == "ratio":
        report = ratio_limsup_probe(family, args.lambda0, u_max=args.umax, threshold=args.threshold)
        _emit_json(report.to_json(), args)
        if args.strict and report.verdict == VERDICT_INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_OK
    # a default grid is clipped so that every point the probe evaluates lies
    # where a tabulated family is defined; a grid given by the caller is used as is
    u = _parse_grid(UGRID_DEFAULT if args.ugrid is None else args.ugrid)
    if args.kind == "inequality":
        if args.ugrid is None:  # the probe evaluates phi at u and u - u0
            u = _within(u, _shifted_range(family, args.u0_value))
        result = pointwise_inequality_probe(family, args.alpha, args.u0_value, u)
        _emit_json(result.to_json(), args)
        return EXIT_OK
    if args.kind == "envelope":
        v = _parse_grid(VGRID_DEFAULT if args.vgrid is None else args.vgrid)
        if args.vgrid is None:
            lo, hi = _shifted_range(family, 0.0)
            v = v[lo + v <= hi]
        if args.ugrid is None:  # the probe evaluates phi at u and u + v
            u = _within(u, _shifted_range(family, -v.max()))
        check = growth_envelope_check(family, args.bound_k, args.lambda0, args.c, u, v)
        _emit_json(check.to_json(), args)
        return EXIT_OK
    raise ValueError(f"unknown probe kind {args.kind!r}")


def _cmd_construct_u0(args) -> int:
    family = parse_family_spec(args.family)
    construction = construct_u0_sequence(
        family, args.alpha, eta=args.eta,
        summability_target=args.target, n_terms=args.terms,
    )
    _emit_json(construction.to_json(), args)
    return EXIT_OK


def _cmd_demo(args) -> int:
    demo = adversarial_nonexistence_demo(args.lam, args.pieces, build_pair=False)
    if args.output == "json":
        _emit_json(demo.to_json(), args)
    else:
        header = ["n", "c_value", "log_mass", "term_phi_c", "cumsum_phi_c",
                  "gap_phi_c", "term_shifted", "cumsum_shifted"]
        rows = [[row["n"]] + [format(row[k], ".17g") for k in header[1:]] for row in demo.rows()]
        note = (f"# divergence certified for shifts >= {demo.lam:g} "
                f"(shifted terms grow by e^(lambda*spacing)/2 per row)\n")
        _emit(note + _csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_validate_phi(args) -> int:
    family = parse_family_spec(args.family)
    # a default bound is clipped to where a tabulated family is defined
    lo, hi = _shifted_range(family, 0.0)
    umin = max(UMIN_DEFAULT, lo) if args.umin is None else args.umin
    umax = min(UMAX_DEFAULT, hi) if args.umax is None else args.umax
    with np.errstate(invalid="ignore"):  # a non-finite bound gives a grid validate_family rejects
        grid = np.linspace(umin, umax, args.n)
    report = validate_family(family, grid)
    _emit_json(report.to_json(), args)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_oracle(args) -> int:
    pair = load_pair(args.pair)
    obj = {
        "alpha": args.alpha,
        "classical_renyi": classical_renyi(pair, args.alpha),
        "kl_pq": kl_divergence(pair),
        "kl_qp": kl_divergence(pair.swapped()),
    }
    if args.tsallis_q is not None:
        obj["tsallis_q"] = args.tsallis_q
        obj["tsallis_relative_entropy"] = tsallis_relative_entropy(pair, args.tsallis_q)
    _emit_json(obj, args)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The parser tree, built once per process; parsing never modifies it, and
    sys.stdout, sys.stderr and the terminal width are read when it prints."""
    parser = _Parser(prog="deformed-renyi", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    solver = argparse.ArgumentParser(add_help=False, parents=[common])
    solver.add_argument("--tol", type=float, default=1e-12, help="solver tolerance on the normalization residual")
    solver.add_argument("--family", required=True)
    solver.add_argument("--pair", required=True)
    solver.add_argument("--u0", default="const:1")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", parents=[solver], help="generalized Renyi divergence report")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("kappa", parents=[solver], help="solve the normalizing shift")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("sweep", parents=[solver], help="alpha-grid CSV of (alpha, kappa, value)")
    p.add_argument("--alphas", default="0.05:0.95:19", help="comma list or lo:hi:n grid")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("probe", help="existence-condition probes")
    kinds = p.add_subparsers(dest="kind", required=True)
    probe = argparse.ArgumentParser(add_help=False, parents=[common])
    probe.add_argument("--family", required=True)
    probe.set_defaults(func=_cmd_probe)
    ugrid = f"lo:hi:n (default {UGRID_DEFAULT}, clipped to a tabulated family's range)"

    p = kinds.add_parser("ratio", parents=[probe], help="sample phi(u)/phi(u - lambda0) up to --umax")
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--umax", type=float, default=200.0)
    p.add_argument("--threshold", type=float, default=1e12)
    p.add_argument("--strict", action="store_true", help="exit 4 on an inconclusive verdict")

    p = kinds.add_parser("inequality", parents=[probe], help="largest u where alpha phi(u) > phi(u - u0)")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--u0-value", type=float, default=1.0)
    p.add_argument("--ugrid", help=ugrid)

    p = kinds.add_parser("envelope", parents=[probe], help="check phi(u + v) <= K phi(u) e^(lam v) on a grid")
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--bound-k", type=float, default=math.e)
    p.add_argument("--c", type=float, default=-math.inf)
    p.add_argument("--ugrid", help=ugrid)
    p.add_argument("--vgrid", help=f"lo:hi:n (default {VGRID_DEFAULT}, clipped to a tabulated family's range)")

    p = sub.add_parser("construct-u0", parents=[common], help="build a shift sequence for the counting measure")
    p.add_argument("--family", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--target", type=float, default=1e-3)
    p.add_argument("--terms", type=int, default=16)
    p.set_defaults(func=_cmd_construct_u0)

    p = sub.add_parser("demo-counterexample", parents=[common], help="adversarial divergence evidence table")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--pieces", type=int, default=60)
    p.add_argument("--output", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("validate-phi", parents=[common], help="numeric check of the axioms on a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--umin", type=float, help=f"default {UMIN_DEFAULT:g}, clipped to a tabulated family's range")
    p.add_argument("--umax", type=float, help=f"default {UMAX_DEFAULT:g}, clipped to a tabulated family's range")
    p.add_argument("--n", type=int, default=2001)
    p.set_defaults(func=_cmd_validate_phi)

    p = sub.add_parser("oracle", parents=[common], help="classical closed-form divergences")
    p.add_argument("--pair", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tsallis-q", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
