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
class FeasibilityCertificate:
    """Outcome of the wrap scan: the first N whose wrapped AR extension is PD."""

    N: int
    circulant: BlockCirculant
    min_eig_trace: dict


def block_levinson(band: CovBand) -> tuple[np.ndarray, np.ndarray]:
    """Forward AR model of order n of the band, read off eigh(T_n).

    Returns (A, innovation): the coefficients A_1..A_n, shape (n, m, m),
    satisfy the block normal equations S_k + sum_j A_j S_{k-j} = 0 for
    k = 1..n (S_{-i} = S_i^T), and the innovation variance is
    Lambda = S_0 + sum_j A_j S_j^T, symmetrized.  Raises
    InfeasibleBandError when T_n is not positive definite, by the same
    rule and from the same eigendecomposition as solve's gate.
    """
    _, AT = _toeplitz_ar(band)
    A = AT[1:].swapaxes(1, 2)
    lam = band.sigma[0] + np.einsum("jab,jcb->ac", A, band.sigma[1:])
    return A, 0.5 * (lam + lam.T)


def _extend(A: np.ndarray, lags: list, upto: int) -> None:
    """Append S_i = -sum_j A_j S_{i-j} to lags in place until it holds lags 0..upto."""
    n = len(A)
    for i in range(len(lags), upto + 1):
        lags.append(-sum(A[j - 1] @ lags[i - j] for j in range(1, n + 1))
                    if n else np.zeros_like(lags[0]))


def ar_extend(band: CovBand, count: int) -> np.ndarray:
    """Lags S_{n+1}..S_{n+count} of the band's AR extension.

    Every finite Toeplitz section of the extended sequence is positive
    definite (maximum-entropy line extension).
    """
    if count < 0:
        raise DimensionError("count must be non-negative")
    lags = list(band.sigma)
    _extend(block_levinson(band)[0], lags, band.n + count)
    return np.array(lags[band.n + 1:]).reshape(count, band.m, band.m)


def wrap_sequence(m: int, N: int, lags: np.ndarray | list) -> BlockCirculant:
    """Circulant wrap of a lag sequence (an array or a list of blocks) onto Z_N.

    Odd N uses lags 0..(N-1)/2; even N places S_{N/2}^T + S_{N/2} in the
    single self-transpose center slot.
    """
    h = N // 2
    if len(lags) <= h:
        raise DimensionError(f"need lags up to {h} to wrap onto N={N}")
    return BlockCirculant(m, N, _sequence(np.asarray(lags[:h + 1], dtype=float), N))


def feasibility_certificate(band: CovBand, N_max: int | None = None) -> FeasibilityCertificate:
    """First N in [2n+1, N_max] whose wrapped AR extension is PD.

    Returns the N, the wrapped circulant, and the scanned min-eigenvalue
    trace.  The N is a witness that a positive completion exists there,
    not the smallest such N.  Raises InfeasibleBandError when T_n is not
    PD and HorizonExhaustedError (carrying the trace) when no N works.

    The scan extends the AR lags only as far as each probe needs and
    stops at the first PD wrap, so only N <= N* is probed, N* being the
    returned N.  Each probe is one FFT plus one batched eigen solve over
    N/2+1 blocks, O(N m^3), for O(N*^2 m^3) time and O(N* m^2) memory in
    total, independent of N_max; an exhausted scan costs the same with
    N_max in place of N*.
    """
    n = band.n
    if N_max is None:
        N_max = DEFAULT_HORIZON_FACTOR * (2 * n + 1)
    if N_max < 2 * n + 1:
        raise DimensionError(f"N_max={N_max} below 2n+1={2 * n + 1}")
    A, _ = block_levinson(band)
    lags = list(band.sigma)

    trace: dict[int, float] = {}
    for N in range(2 * n + 1, N_max + 1):
        _extend(A, lags, N // 2)
        wrap = wrap_sequence(band.m, N, lags)
        lo, hi = spectral_bounds(wrap)
        trace[N] = lo
        if lo > pd_tolerance(hi):
            return FeasibilityCertificate(N, wrap, trace)
    raise HorizonExhaustedError(
        f"horizon exhausted: no feasible N up to {N_max}", min_eig_trace=trace)
