"""Output checks, numpy only, independent of the solver's own diagnostics.

Every check raises CheckFailed with a reason.  Tolerances:

- Band extension: the generating model is the exact answer, so the
  relative error of the model and of the band reproduced by sigma_opt
  may be EXTENSION_TOL * cond^2, cond being the generating model's
  spectral condition number (at most 1/SPECTRAL_FLOOR = 4).
- Estimation from T periods of length N: the relative coefficient error
  and the relative error of the sample band may be
  ESTIMATION_CONST * sqrt(p / (N T)), p the number of free coefficients.
  Measured ratios stay below 3.5; 10 leaves the bound many standard
  deviations away while a wrong answer still misses it.
"""

from __future__ import annotations

import json
import os

import numpy as np

from inputs import (banded_sequence, hermitian_eigs, inverse_sequence, lags_of,
                    sample_lags, wrap_margin)

EXTENSION_TOL = 1e-9
ESTIMATION_CONST = 10.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"shape {got.shape} != {want.shape}")
    _require(bool(np.all(np.isfinite(got))), "non-finite values")
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _estimation_bound(spec: dict) -> float:
    m, n = spec["m"], spec["n"]
    p = m * (m + 1) // 2 + n * m * m
    return ESTIMATION_CONST * np.sqrt(p / (spec["N"] * spec["T"]))


def check_extension(spec: dict, M_blocks, sigma_col) -> None:
    """The model is the generating one and sigma_opt reproduces the band."""
    tol = EXTENSION_TOL * spec["cond"] ** 2
    err = _rel_err(M_blocks, spec["M"])
    _require(err <= tol, f"model error {err:.3e} > {tol:.3e}")
    sigma_col = np.asarray(sigma_col, dtype=float)
    _require(sigma_col.shape == spec["sigma_col"].shape, "sigma_opt has the wrong size")
    err = _rel_err(lags_of(sigma_col, spec["n"]), spec["lags"])
    _require(err <= tol, f"band reproduction error {err:.3e} > {tol:.3e}")


def check_periods(spec: dict, Y) -> None:
    """T periods whose circular sample band is near the model's band."""
    Y = np.asarray(Y, dtype=float)
    _require(Y.shape == (spec["T"], spec["N"], spec["m"]), f"data shape {Y.shape}")
    err = _rel_err(sample_lags(Y, spec["n"]), spec["lags"])
    bound = _estimation_bound(spec)
    _require(err <= bound, f"sample band error {err:.3e} > {bound:.3e}")


def check_estimate(spec: dict, M_hat) -> None:
    """Coefficient error within the T^(-1/2) bound of the known model."""
    err = _rel_err(M_hat, spec["M"])
    bound = _estimation_bound(spec)
    _require(err <= bound, f"coefficient error {err:.3e} > {bound:.3e}")


def check_moments(spec: dict, Y, M_hat, cov_col) -> None:
    """The fitted model's covariance reproduces the sample band (ML moment match)."""
    w = hermitian_eigs(np.fft.fft(banded_sequence(np.asarray(M_hat), spec["N"]), axis=0))
    _require(float(w.min()) > 0.0, "fitted model is not positive definite")
    tol = EXTENSION_TOL * float(w.max() / w.min()) ** 2
    err = _rel_err(lags_of(np.asarray(cov_col), spec["n"]), sample_lags(np.asarray(Y), spec["n"]))
    _require(err <= tol, f"moment mismatch {err:.3e} > {tol:.3e}")


def check_records(spec: dict, Y, M_hat, cov_col) -> None:
    check_periods(spec, Y)
    check_estimate(spec, M_hat)
    check_moments(spec, Y, M_hat, cov_col)


# ---------------------------------------------------------------- CLI outputs

def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _blocks(flat, m):
    return np.array([np.reshape(b, (m, m)) for b in flat], dtype=float)


def _read_model(path, spec):
    doc = _load(path)
    _require((doc["m"], doc["n"], doc["N"]) == (spec["m"], spec["n"], spec["N"]),
             "model header differs")
    return _blocks(doc["M"], spec["m"])


def _read_circulant(path, spec):
    doc = _load(path)
    _require((doc["m"], doc["N"]) == (spec["m"], spec["N"]), "circulant header differs")
    return _blocks(doc["first_col"], spec["m"])


def check_cli(spec: dict, code: int, stdout: str, out: str) -> None:
    """Exit code and output files of one CLI invocation.

    ``out`` is the output directory (extend, identify) or file (sample).
    """
    kind = spec["kind"]
    if kind == "cli-infeasible":
        _check_infeasible(spec, code, out)
        return
    _require(code == 0, f"exit code {code}, expected 0")
    if kind == "cli-extend":
        check_extension(spec, _read_model(os.path.join(out, "model.json"), spec),
                        _read_circulant(os.path.join(out, "sigma_opt.json"), spec))
        _load(os.path.join(out, "diagnostics.json"))
    elif kind == "cli-identify":
        M_hat = _read_model(os.path.join(out, "model.json"), spec)
        _load(os.path.join(out, "diagnostics.json"))
        check_estimate(spec, M_hat)
        check_moments(spec, spec["data"], M_hat,
                      inverse_sequence(banded_sequence(M_hat, spec["N"])))
    elif kind == "cli-sample":
        doc = _load(out)
        _require((doc["m"], doc["N"], doc["T"]) == (spec["m"], spec["N"], spec["T"]),
                 "dataset header differs")
        check_periods(spec, np.reshape(doc["realizations"], (spec["T"], spec["N"], spec["m"])))
    elif kind == "cli-feasibility":
        doc = json.loads(stdout)
        _require(doc["feasible_N"] == spec["feasible_N"],
                 f"feasible N {doc['feasible_N']}, expected {spec['feasible_N']}")
        trace = {int(k): v for k, v in doc["min_eig_trace"].items()}
        _require(sorted(trace) == list(range(2 * spec["n"] + 1, spec["feasible_N"] + 1)),
                 "min_eig_trace does not cover 2n+1..N")
    elif kind == "cli-verify":
        doc = json.loads(stdout)
        _require(doc["pass"] is True, "verification did not pass")
    else:
        raise CheckFailed(f"unknown request kind {kind!r}")


def _check_infeasible(spec: dict, code: int, out: str) -> None:
    """Either a correct completion or exit 2 with a certificate.

    At N = 2n+1 the band fixes the whole circulant, so the generator's
    numpy wrap test decides feasibility independently of the library.
    """
    if code == 0:
        sigma = _read_circulant(os.path.join(out, "sigma_opt.json"), spec)
        err = _rel_err(lags_of(sigma, spec["n"]), spec["lags"])
        _require(err <= EXTENSION_TOL, f"band reproduction error {err:.3e}")
        _require(wrap_margin(spec["lags"], spec["N"]) > 0,
                 "converged on a band with no positive completion")
        return
    _require(code == 2, f"exit code {code}, expected 2 or 0")
    cert = _load(os.path.join(out, "diagnostics.json")).get("certificate")
    _require(isinstance(cert, dict), "infeasibility report carries no certificate")
    _require(cert.get("N") == spec["N"] and cert.get("wrap_feasible") is False,
             "certificate does not reject the requested N")
    _require(wrap_margin(spec["lags"], spec["N"]) < 0,
             "certificate rejects a band with a positive wrap")
    _require(cert.get("smallest_feasible_N") == spec["feasible_N"],
             f"certificate names smallest feasible N {cert.get('smallest_feasible_N')}, "
             f"expected {spec['feasible_N']}")
