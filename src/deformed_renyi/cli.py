"""Command-line front end.

Subcommands: divergence, kappa, sweep, probe (ratio|inequality|envelope),
construct-u0, demo-counterexample, validate-phi, oracle.  JSON outputs are
deterministic (sorted keys, stable float repr) and validate against the
schema files shipped in deformed_renyi/schemas/.

Every subcommand takes --out (write to a file instead of stdout); divergence,
kappa and sweep also take --tol (solver tolerance on the normalization
residual), and probe takes --strict.

Exit codes: 0 success, 2 validation error, 3 divergent integral or bracket
failure, 4 inconclusive probe under --strict, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .divergences import classical_renyi, generalized_renyi, kl_divergence, tsallis_relative_entropy
from .existence import (
    VERDICT_INCONCLUSIVE,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_u0(spec: str, size: int):
    kind, _, arg = spec.partition(":")
    if kind == "const":
        value = float(arg)
        if value <= 0:
            raise ValueError("const u0 must be positive")
        return value
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
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", args.out)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _status_exit(status: SolveStatus) -> int:
    return EXIT_OK if status is SolveStatus.CONVERGED else EXIT_NO_ROOT


def _cmd_divergence(args) -> int:
    family = parse_family_spec(args.family)
    pair = load_pair(args.pair)
    u0 = _parse_u0(args.u0, pair.measure.size)
    report = generalized_renyi(family, pair, args.alpha, u0=u0, tol=args.tol, u0_label=args.u0)
    _emit_json(report.to_json(), args)
    return _status_exit(report.status)


def _cmd_kappa(args) -> int:
    family = parse_family_spec(args.family)
    pair = load_pair(args.pair)
    u0 = _parse_u0(args.u0, pair.measure.size)
    result = solve_kappa(family, pair, args.alpha, u0=u0, tol=args.tol)
    obj = result.to_json()
    obj["family"] = family.family_id
    _emit_json(obj, args)
    return _status_exit(result.status)


def _cmd_sweep(args) -> int:
    family = parse_family_spec(args.family)
    pair = load_pair(args.pair)
    u0 = _parse_u0(args.u0, pair.measure.size)
    rows = []
    worst = EXIT_OK
    for alpha in _parse_alphas(args.alphas):
        report = generalized_renyi(family, pair, float(alpha), u0=u0, tol=args.tol)
        rows.append([
            format(alpha, ".17g"), format(report.kappa, ".17g"),
            format(report.value, ".17g"), report.status.value,
        ])
        worst = max(worst, _status_exit(report.status))
    _emit(_csv_text(["alpha", "kappa", "value", "status"], rows), args.out)
    return worst


def _cmd_probe(args) -> int:
    family = parse_family_spec(args.family)
    if args.kind == "ratio":
        report = ratio_limsup_probe(family, args.lambda0, u_max=args.umax, threshold=args.threshold)
        _emit_json(report.to_json(), args)
        if args.strict and report.verdict == VERDICT_INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_OK
    if args.kind == "inequality":
        result = pointwise_inequality_probe(family, args.alpha, args.u0_value, _parse_grid(args.ugrid))
        _emit_json(result.to_json(), args)
        return EXIT_OK
    if args.kind == "envelope":
        check = growth_envelope_check(
            family, args.bound_k, args.lambda0, args.c,
            _parse_grid(args.ugrid), _parse_grid(args.vgrid),
        )
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
        note = (f"# divergence certified for shifts >= {demo.certifies_lambda_at_least:g} "
                f"(shifted terms grow by e^(lambda*spacing)/2 per row)\n")
        _emit(note + _csv_text(header, rows), args.out)
    return EXIT_OK


def _cmd_validate_phi(args) -> int:
    family = parse_family_spec(args.family)
    report = validate_family(family, np.linspace(args.umin, args.umax, args.n))
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


def build_parser() -> _Parser:
    parser = _Parser(prog="deformed-renyi", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    solver = argparse.ArgumentParser(add_help=False, parents=[common])
    solver.add_argument("--tol", type=float, default=1e-12, help="solver tolerance on the normalization residual")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", parents=[solver], help="generalized Renyi divergence report")
    p.add_argument("--family", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--u0", default="const:1")
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("kappa", parents=[solver], help="solve the normalizing shift")
    p.add_argument("--family", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--u0", default="const:1")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("sweep", parents=[solver], help="alpha-grid CSV of (alpha, kappa, value)")
    p.add_argument("--family", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--alphas", default="0.05:0.95:19", help="comma list or lo:hi:n grid")
    p.add_argument("--u0", default="const:1")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("probe", parents=[common], help="existence-condition probes")
    p.add_argument("kind", choices=["ratio", "inequality", "envelope"])
    p.add_argument("--strict", action="store_true", help="exit 4 on inconclusive probe verdicts")
    p.add_argument("--family", required=True)
    p.add_argument("--lambda0", type=float, default=1.0)
    p.add_argument("--umax", type=float, default=200.0)
    p.add_argument("--threshold", type=float, default=1e12)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--u0-value", type=float, default=1.0)
    p.add_argument("--bound-k", type=float, default=math.e)
    p.add_argument("--c", type=float, default=-math.inf)
    p.add_argument("--ugrid", default="-50:200:2001")
    p.add_argument("--vgrid", default="0:20:201")
    p.set_defaults(func=_cmd_probe)

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
    p.add_argument("--umin", type=float, default=-50.0)
    p.add_argument("--umax", type=float, default=50.0)
    p.add_argument("--n", type=int, default=2001)
    p.set_defaults(func=_cmd_validate_phi)

    p = sub.add_parser("oracle", parents=[common], help="classical closed-form divergences")
    p.add_argument("--pair", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tsallis-q", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
