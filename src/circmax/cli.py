"""Command-line interface.

Subcommands: extend, identify, sample, feasibility, verify.  Exit codes
are stable across subcommands: 0 success, 1 input error, 2 infeasible or
degenerate data, 3 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import _jsonio
from .blockcirc import BlockCirculant, CovBand
from .errors import (CircmaxError, ConvergenceError, DegenerateDataError,
                     DimensionError, HorizonExhaustedError, InfeasibleBandError,
                     InfeasibleExtensionError, InvalidModelError,
                     NotPositiveDefiniteError, NotReciprocalError)
from .feasibility import DEFAULT_HORIZON_FACTOR, feasibility_certificate
from .identify import identify
from .maxent import solve
from .reciprocal import Dataset, ReciprocalModel, sample, verify_model

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

VERIFY_TOL = 1e-8


class _InputError(Exception):
    pass


def _load(path, parser, what):
    try:
        doc = _jsonio.load(path)
        return parser(doc)
    except (OSError, ValueError, KeyError, TypeError, DimensionError) as exc:
        raise _InputError(f"cannot read {what} from {path}: {exc}") from exc


def _write_outputs(out_dir, **files):
    os.makedirs(out_dir, exist_ok=True)
    for name, doc in files.items():
        _jsonio.dump(doc, os.path.join(out_dir, name + ".json"))


def _write_failure(command, out_dir, exc) -> int:
    """Write diagnostics.json for a failed solve, report it and return EXIT_INFEASIBLE.

    The document holds the error and any certificate and diagnostics it carries.
    """
    doc = {"error": str(exc)}
    cert = getattr(exc, "certificate", None)
    if cert is not None:
        doc["certificate"] = cert
    diag = getattr(exc, "diagnostics", None)
    if diag is not None:
        doc["diagnostics"] = diag.to_json_dict()
    _write_outputs(out_dir, diagnostics=doc)
    print(f"{command}: {exc}", file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_extend(args) -> int:
    band = _load(args.band, CovBand.from_json_dict, "covariance band")
    try:
        result = solve(band, args.N)
    except (InfeasibleBandError, InfeasibleExtensionError, ConvergenceError) as exc:
        return _write_failure("extend", args.out, exc)
    _write_outputs(args.out,
                   sigma_opt=result.sigma_opt.to_json_dict(),
                   model=result.model.to_json_dict(),
                   diagnostics=result.diagnostics.to_json_dict())
    return EXIT_OK


def _cmd_identify(args) -> int:
    data = _load(args.data, Dataset.from_json_dict, "dataset")
    try:
        result = identify(data, args.n, ridge=args.ridge,
                          extend_N=args.extend_N)
    except (DegenerateDataError, InfeasibleBandError, InfeasibleExtensionError,
            ConvergenceError) as exc:
        return _write_failure("identify", args.out, exc)
    diag = result.diagnostics.to_json_dict()
    diag["log_likelihood"] = result.log_likelihood
    _write_outputs(args.out,
                   model=result.model.to_json_dict(),
                   diagnostics=diag)
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = _load(args.model, ReciprocalModel.from_json_dict, "model")
    try:
        data = sample(model, args.T, args.seed)
    except InvalidModelError as exc:
        print(f"sample: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _jsonio.dump(data.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    band = _load(args.band, CovBand.from_json_dict, "covariance band")
    try:
        cert = feasibility_certificate(band, args.n_max)
    except InfeasibleBandError as exc:
        print(_jsonio.dumps({"error": str(exc)}), end="")
        return EXIT_INFEASIBLE
    except HorizonExhaustedError as exc:
        print(_jsonio.dumps({
            "error": str(exc),
            "min_eig_trace": {str(k): v for k, v in exc.min_eig_trace.items()},
        }), end="")
        return EXIT_INFEASIBLE
    print(_jsonio.dumps({
        "feasible_N": cert.N,
        "min_eig_trace": {str(k): v for k, v in cert.min_eig_trace.items()},
    }), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load(args.model, ReciprocalModel.from_json_dict, "model")
    cov = _load(args.cov, BlockCirculant.from_json_dict, "covariance")
    report = verify_model(model, cov)
    # non-finite residuals (e.g. covariance not PD) have no JSON number
    doc = {k: (v if np.isfinite(v) else None)
           for k, v in report.to_json_dict().items()}
    ok = np.isfinite(report.max_residual()) and report.max_residual() <= VERIFY_TOL
    doc["pass"] = bool(ok)
    print(_jsonio.dumps(doc), end="")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circmax",
        description="Maximum-entropy band extension of block-circulant "
                    "covariances and reciprocal model identification.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="maximum-entropy extension of a band")
    p.add_argument("--band", required=True, help="covariance band JSON")
    p.add_argument("--N", required=True, type=int, help="circle size")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("identify", help="estimate a reciprocal model from data")
    p.add_argument("--data", required=True, help="dataset JSON")
    p.add_argument("--n", required=True, type=int, help="model order")
    p.add_argument("--ridge", type=float, default=0.0,
                   help="add ridge*I to the lag-0 sample covariance")
    p.add_argument("--extend-N", dest="extend_N", type=int, default=None,
                   help="solve on a larger circle than the data period")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("sample", help="draw realizations from a model")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--T", required=True, type=int, help="number of realizations")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("feasibility",
                       help="first circle size whose wrapped AR extension is PD")
    p.add_argument("--band", required=True, help="covariance band JSON")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help=f"search horizon (default {DEFAULT_HORIZON_FACTOR}*(2n+1))")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("verify", help="residuals of a (model, covariance) pair")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--cov", required=True, help="covariance JSON")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (_InputError, DimensionError, NotReciprocalError,
            NotPositiveDefiniteError) as exc:
        print(f"circmax: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CircmaxError as exc:
        print(f"circmax: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
