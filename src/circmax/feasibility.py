"""Constructive feasibility of the positive circulant band extension.

A positive band's order-n matrix AR model, read off the eigh(T_n) that
decides positivity, extends the lag sequence so that every finite
Toeplitz section stays positive.  Wrapping the extended sequence onto a
circle of size N and testing the frequency blocks gives a concrete
certificate: for N large enough the wrap is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcirc import (BlockCirculant, CovBand, _sequence, _toeplitz_ar,
                        pd_tolerance, spectral_bounds)
from .errors import DimensionError, HorizonExhaustedError

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


def block_levinson(band: CovBand) -> LevinsonResult:
    """Forward AR model of order n of the band, read off eigh(T_n).

    Raises InfeasibleBandError when T_n is not positive definite, by the
    same rule and from the same eigendecomposition as solve's gate.  The
    innovation is Lambda = S_0 + sum_j A_j S_j^T, symmetrized.
    """
    _, AT = _toeplitz_ar(band)
    A = AT[1:].swapaxes(1, 2)
    lam = band.sigma[0] + np.einsum("jab,jcb->ac", A, band.sigma[1:])
    return LevinsonResult(band.m, band.n, A, 0.5 * (lam + lam.T))


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
