"""Maximum-likelihood identification of reciprocal AR models.

The circular sample covariances of the data are sufficient statistics
for the banded exponential family, so identification is the
maximum-entropy band extension of the sample band: sufficient_statistics
returns that band as a CovBand, solve extends it, and the estimated
model is the banded inverse of the extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockcirc import BlockCirculant, CovBand
from .errors import DegenerateDataError, DimensionError, InfeasibleBandError
from .maxent import ExtensionResult, SolveDiagnostics, dual_objective, solve
from .reciprocal import Dataset, ReciprocalModel


@dataclass(frozen=True)
class IdentifyResult:
    model: ReciprocalModel
    sigma_opt: BlockCirculant
    diagnostics: SolveDiagnostics
    stats: CovBand             # the sample band S_hat_0..S_hat_n
    log_likelihood: float


def sufficient_statistics(data: Dataset, n: int) -> CovBand:
    """Circular sample covariances up to lag n.

    S_hat_k = (1/(N*T)) sum_t sum_s y_t((s+k) mod N) y_t(s)^T, the lag-0
    estimate symmetrized.  Reads the data as one contiguous (N, m, T) array
    (no copy for sample's output) and sums each lag's terms s < N-k and
    wrapped s >= N-k as two products over the contiguous slices.
    """
    N = data.N
    if n < 0:
        raise DimensionError(f"lag order must be >= 0, got {n}")
    if 2 * n >= N:
        raise DimensionError(f"lag order {n} is not below N/2 for N={N}")
    Y = np.ascontiguousarray(data.realizations.transpose(1, 2, 0))
    scale = 1.0 / (N * data.T)
    out = np.empty((n + 1, data.m, data.m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for k in range(n + 1):
            out[k] = scale * (np.einsum("sit,sjt->ij", Y[k:], Y[:N - k])
                              + np.einsum("sit,sjt->ij", Y[:k], Y[N - k:]))
    if not np.isfinite(out).all():
        raise DimensionError("realizations too large: their sample covariances overflow")
    out[0] = 0.5 * (out[0] + out[0].T)
    return CovBand(data.m, n, out)


def log_likelihood(model: ReciprocalModel, stats: CovBand) -> float:
    """Average per-sample Gaussian log-likelihood, constants dropped.

    L = log det(M_N) - N Tr(M_0 S_hat_0) - 2N sum_k Tr(M_k^T S_hat_k),
    which is log det(M_N) - Tr(M_N times the dense sample covariance).
    Only differences and the argmax are meaningful.
    """
    return -dual_objective(model, stats)


def identify(data: Dataset, n: int, ridge: float = 0.0,
             extend_N: int | None = None) -> IdentifyResult:
    """Estimate the order-n reciprocal model of the data.

    Composes sufficient_statistics, the maximum-entropy extension of the
    sample band at N (the data period unless extend_N overrides it), and
    the banded-inverse readout.  A positive ridge adds ridge*I to the
    lag-0 sample covariance before solving; ridge must be finite and >= 0.
    """
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise DimensionError(f"ridge must be finite and >= 0, got {ridge}")
    band = stats = sufficient_statistics(data, n)
    if ridge > 0.0:
        sigma = stats.sigma.copy()
        sigma[0] = sigma[0] + ridge * np.eye(data.m)
        band = CovBand(data.m, n, sigma)
    N = data.N if extend_N is None else int(extend_N)
    try:
        result: ExtensionResult = solve(band, N)
    except InfeasibleBandError as exc:
        raise DegenerateDataError(
            "insufficient or degenerate data: sample Toeplitz matrix not PD") from exc
    L = log_likelihood(result.model, stats)
    return IdentifyResult(result.model, result.sigma_opt, result.diagnostics,
                          stats, L)
