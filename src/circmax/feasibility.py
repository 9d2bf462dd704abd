"""Constructive feasibility of the positive circulant band extension.

The multichannel Levinson-Whittle recursion turns a positive band into a
matrix AR model; running that model forward extends the lag sequence so
that every finite Toeplitz section stays positive.  Wrapping the extended
sequence onto a circle of size N and testing the frequency blocks gives a
concrete certificate: for N large enough the wrap is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcirc import (BlockCirculant, CovBand, _hermitian_part, _pd, _sequence,
                        pd_tolerance, spectral_bounds)
from .errors import DimensionError, HorizonExhaustedError, InfeasibleBandError

DEFAULT_HORIZON_FACTOR = 16  # default N_max = 16 * (2n + 1)


@dataclass(frozen=True)
class LevinsonResult:
    """Forward matrix AR coefficients A_1..A_n and innovation variance.

    The coefficients satisfy the block normal equations
    S_k + sum_j A_j S_{k-j} = 0 for k = 1..n (S_{-i} = S_i^T).
    """

    m: int
    n: int
    ar_coeffs: np.ndarray   # (n, m, m)
    innovation: np.ndarray  # (m, m), symmetric positive definite


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Outcome of the smallest-feasible-N search."""

    N: int
    circulant: BlockCirculant
    min_eig_trace: dict


def _check_pd(mat: np.ndarray, context: str) -> None:
    if not _pd(np.linalg.eigvalsh(_hermitian_part(mat))):
        raise InfeasibleBandError(f"infeasible band: {context} not positive definite")


def block_levinson(band: CovBand) -> LevinsonResult:
    """Multichannel Levinson-Whittle recursion on the band's Toeplitz matrix.

    Raises InfeasibleBandError as soon as a forward or backward innovation
    loses positive definiteness, which happens iff T_n is not PD.
    """
    m, n = band.m, band.n
    sigma = band.sigma
    _check_pd(sigma[0], "lag-0 block")
    lam_f = sigma[0].copy()
    lam_b = sigma[0].copy()
    A: list[np.ndarray] = []
    B: list[np.ndarray] = []
    for p in range(n):
        delta = sigma[p + 1] + sum(A[j] @ sigma[p - j] for j in range(p))
        kf = -np.linalg.solve(lam_b.T, delta.T).T   # kf = -delta @ inv(lam_b)
        kb = -np.linalg.solve(lam_f.T, delta).T     # kb = -delta.T @ inv(lam_f)
        A, B = ([A[j] + kf @ B[p - 1 - j] for j in range(p)] + [kf],
                [B[j] + kb @ A[p - 1 - j] for j in range(p)] + [kb])
        lam_f, lam_b = (lam_f - delta @ np.linalg.solve(lam_b, delta.T),
                        lam_b - delta.T @ np.linalg.solve(lam_f, delta))
        _check_pd(lam_f, f"order-{p + 1} forward innovation")
        _check_pd(lam_b, f"order-{p + 1} backward innovation")

    coeffs = np.array(A).reshape(n, m, m) if n else np.zeros((0, m, m))
    return LevinsonResult(m, n, coeffs, 0.5 * (lam_f + lam_f.T))


def ar_extend(lev: LevinsonResult, band: CovBand, count: int) -> np.ndarray:
    """Lags S_{n+1}..S_{n+count} of the AR extension S_i = -sum_j A_j S_{i-j}.

    Every finite Toeplitz section of the extended sequence is positive
    definite (maximum-entropy line extension).
    """
    if lev.m != band.m or lev.n != band.n:
        raise DimensionError("Levinson result does not match the band")
    m, n = band.m, band.n
    if count < 0:
        raise DimensionError("count must be non-negative")
    lags = list(band.sigma)
    for i in range(n + 1, n + count + 1):
        lags.append(-sum(lev.ar_coeffs[j - 1] @ lags[i - j] for j in range(1, n + 1))
                    if n else np.zeros((m, m)))
    return np.array(lags[n + 1:]).reshape(count, m, m)


def wrap_sequence(m: int, N: int, lags: np.ndarray) -> BlockCirculant:
    """Circulant wrap of a lag sequence onto Z_N.

    Odd N uses lags 0..(N-1)/2; even N places S_{N/2}^T + S_{N/2} in the
    single self-transpose center slot.
    """
    h = N // 2
    if len(lags) <= h:
        raise DimensionError(f"need lags up to {h} to wrap onto N={N}")
    return BlockCirculant(m, N, _sequence(np.asarray(lags[:h + 1], dtype=float), N))


def feasibility_certificate(band: CovBand, N_max: int | None = None) -> FeasibilityCertificate:
    """Smallest N in [2n+1, N_max] whose wrapped AR extension is PD.

    Returns the N, the wrapped circulant, and the scanned min-eigenvalue
    trace.  Raises InfeasibleBandError when T_n is not PD and
    HorizonExhaustedError (carrying the trace) when no N works.

    The scan stops at the first PD wrap, so only N <= N* is probed, N*
    being the returned N.  Each probe is one FFT plus one batched eigen
    solve over N/2+1 blocks, O(N m^3), for O(N*^2 m^3) in total; the AR
    extension up to lag N_max/2 takes O(N_max m^2) memory.
    """
    n = band.n
    if N_max is None:
        N_max = DEFAULT_HORIZON_FACTOR * (2 * n + 1)
    if N_max < 2 * n + 1:
        raise DimensionError(f"N_max={N_max} below 2n+1={2 * n + 1}")
    lev = block_levinson(band)
    needed = N_max // 2 + 1 - n
    extended = np.concatenate(
        [band.sigma, ar_extend(lev, band, max(needed, 0))], axis=0)

    trace: dict[int, float] = {}
    for N in range(2 * n + 1, N_max + 1):
        wrap = wrap_sequence(band.m, N, extended)
        lo, hi = spectral_bounds(wrap)
        trace[N] = lo
        if lo > pd_tolerance(hi):
            return FeasibilityCertificate(N, wrap, trace)
    raise HorizonExhaustedError(
        f"horizon exhausted: no feasible N up to {N_max}", min_eig_trace=trace)


def find_feasible_N(band: CovBand, N_max: int | None = None) -> int:
    """Smallest feasible circle size; see feasibility_certificate."""
    return feasibility_certificate(band, N_max).N
