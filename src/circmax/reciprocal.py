"""Reciprocal AR models of order n on the discrete circle Z_N.

A full-rank stationary process on Z_N is reciprocal of order n exactly
when the inverse of its covariance is a symmetric positive definite
block-circulant matrix banded of bandwidth n.  The nonzero lag blocks
M_0..M_n of that inverse are the model coefficients: the process solves
sum_{k=-n}^{n} M_k y(t-k) = e(t) with M_{-k} = M_k^T and E y e^T = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _jsonio
from .blockcirc import (BlockCirculant, _as_blocks, _hermitian_part, _lags,
                        _multiplicities, _pd, _two_sided, assemble_banded,
                        band_residual, inverse, pd_tolerance)
from .errors import (DegenerateProcessError, DimensionError, InvalidModelError,
                     NotPositiveDefiniteError, NotReciprocalError)

DEFAULT_BAND_TOL = 1e-6


@dataclass(frozen=True)
class ReciprocalModel:
    """Banded inverse-covariance coefficients M_0..M_n on Z_N."""

    m: int
    n: int
    N: int
    M_blocks: np.ndarray  # (n+1, m, m)

    def __post_init__(self):
        blocks = _as_blocks(self.M_blocks, (self.n + 1, self.m, self.m), "M_blocks")
        if self.N < 2 * self.n + 1:
            raise DimensionError(f"N={self.N} below 2n+1={2 * self.n + 1}")
        m0 = blocks[0]
        if np.abs(m0 - m0.T).max() > 1e-10 * (1.0 + np.abs(m0).max()):
            raise InvalidModelError("M_0 must be symmetric")
        object.__setattr__(self, "M_blocks", blocks)

    def assembled(self) -> BlockCirculant:
        """The symmetric banded circulant built from the coefficients."""
        return assemble_banded(self.m, self.N, self.M_blocks)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "N": self.N, "M": _jsonio.rows_of(self.M_blocks)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReciprocalModel":
        m, n, N = _jsonio.ints_of(d, "m", "n", "N")
        return cls(m, n, N, _jsonio.blocks_of(d["M"], n + 1, (m, m), "M blocks"))


@dataclass(frozen=True)
class Dataset:
    """T independent realizations of one period of an m-dimensional process."""

    m: int
    N: int
    T: int
    realizations: np.ndarray  # (T, N, m)

    def __post_init__(self):
        a = _as_blocks(self.realizations, (self.T, self.N, self.m), "realizations")
        if self.T < 1:
            raise DimensionError("need T >= 1")
        object.__setattr__(self, "realizations", a)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "N": self.N, "T": self.T,
                "realizations": _jsonio.rows_of(self.realizations)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        m, N, T = _jsonio.ints_of(d, "m", "N", "T")
        return cls(m, N, T, _jsonio.blocks_of(d["realizations"], T, (N, m), "realizations"))


def build_yule_walker_system(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-n two-sided normal equations (gram, rhs) from lags S_0..S_2n.

    ``gram`` is the 2nm x 2nm covariance of the window
    (y(t+n), ..., y(t+1), y(t-1), ..., y(t-n)); ``rhs`` (2nm x m) stacks
    the cross blocks (S_n, ..., S_1, S_1^T, ..., S_n^T).
    """
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 3 or lags.shape[1] != lags.shape[2]:
        raise DimensionError("lags must be a stack of square blocks")
    if len(lags) % 2 == 0:
        raise DimensionError("need an odd number of lags S_0..S_2n")
    n = (len(lags) - 1) // 2
    m = lags.shape[1]
    # window offsets in the fixed order (-n, ..., -1, 1, ..., n); stack[2n + d] = S_d
    offs = np.r_[-n:0, 1:n + 1]
    stack = _two_sided(lags)
    gram = stack[2 * n + offs[None, :] - offs[:, None]].transpose(0, 2, 1, 3)
    rhs = stack[2 * n - offs]  # block i is S_{k_i}^T
    return gram.reshape(2 * n * m, 2 * n * m), rhs.reshape(2 * n * m, m)


def yule_walker(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided coefficients F_{-n}..F_{-1}, F_1..F_n and conjugate variance.

    Solves the orthogonality conditions of the double-sided representation
    sum_k F_k y(t-k) = d(t) with F_0 = I, from the 2n+1 lags S_0..S_2n.
    Returns (F, delta): F of shape (2n, m, m) and the (m, m) variance
    delta = E d(t) d(t)^T of that unnormalized conjugate process.
    Needs twice the lags that the banded maximum-entropy route uses.
    """
    lags = np.asarray(lags, dtype=float)
    gram, rhs = build_yule_walker_system(lags)
    n, m = (len(lags) - 1) // 2, lags.shape[1]
    if n == 0:
        return np.zeros((0, m, m)), 0.5 * (lags[0] + lags[0].T)
    w = np.linalg.eigvalsh(_hermitian_part(gram))
    if not float(np.abs(w).min()) > pd_tolerance(float(np.abs(w).max())):
        raise DegenerateProcessError(
            "degenerate process: singular two-sided normal equations")
    X = np.linalg.solve(gram, -rhs)
    F = X.reshape(2 * n, m, m).swapaxes(1, 2)
    # rhs block i is S_{-k_i}, the lag that F_{k_i} meets in E d(t) y(t)^T
    delta = lags[0] + (F @ rhs.reshape(2 * n, m, m)).sum(axis=0)
    return F, 0.5 * (delta + delta.T)


def covariance_of_model(model: ReciprocalModel) -> BlockCirculant:
    """Covariance of the process the model defines: the inverse of M_N."""
    M = model.assembled()
    try:
        return inverse(M)
    except NotPositiveDefiniteError as exc:
        raise InvalidModelError(f"invalid model: {exc}") from exc


def model_from_covariance(C: BlockCirculant, n: int,
                          band_tol: float = DEFAULT_BAND_TOL) -> ReciprocalModel:
    """Read the order-n model off a covariance with banded inverse.

    Inverts C and returns the band of the inverse; raises
    NotReciprocalError (carrying the off-band fraction) when the inverse
    carries more than band_tol relative mass outside bandwidth n.
    """
    if 2 * n >= C.N:
        raise DimensionError(f"order {n} is not below N/2 for N={C.N}")
    try:
        Minv = inverse(C)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(f"not a covariance: {exc}") from exc
    resid = band_residual(Minv, n)
    if resid > band_tol:
        raise NotReciprocalError(
            f"not reciprocal of order {n}: off-band fraction {resid:.3e}",
            residual=resid)
    return ReciprocalModel(C.m, n, C.N, _lags(Minv.first_col, n))


@dataclass(frozen=True)
class ModelResidualReport:
    """Diagnostic residuals for a (model, covariance) pair."""

    inverse_residual: float    # ||M_N C - I||_F
    band_residual: float       # off-band fraction of C^{-1} at bandwidth n
    symmetry_defect: float     # center-symmetry defect of the coefficients

    def max_residual(self) -> float:
        return max(self.inverse_residual, self.band_residual, self.symmetry_defect)

    def to_json_dict(self) -> dict:
        return {"inverse_residual": self.inverse_residual,
                "band_residual": self.band_residual,
                "symmetry_defect": self.symmetry_defect}


def verify_model(model: ReciprocalModel, C: BlockCirculant) -> ModelResidualReport:
    """Residuals certifying that C is the covariance of the given model."""
    if model.m != C.m or model.N != C.N:
        raise DimensionError("model and covariance dimensions differ")
    # Parseval: ||M C - I||_F^2 = sum over all N frequencies of
    # ||Psi_M(l) Psi_C(l) - I||_F^2, and frequencies l, N-l are conjugate
    psi_M = np.fft.rfft(model.assembled().first_col, axis=0)
    psi_C = np.fft.rfft(C.first_col, axis=0)
    defect = np.sum(np.abs(psi_M @ psi_C - np.eye(C.m)) ** 2, axis=(1, 2))
    inv_resid = float(np.sqrt(_multiplicities(C.N) @ defect))
    try:
        br = band_residual(inverse(C), model.n)
    except NotPositiveDefiniteError:
        br = float("inf")
    m0 = model.M_blocks[0]
    sym = float(np.abs(m0 - m0.T).max())
    return ModelResidualReport(inv_resid, br, sym)


def sample(model: ReciprocalModel, T: int, seed: int) -> Dataset:
    """T independent zero-mean Gaussian periods with covariance M_N^{-1}.

    Colors white noise with the frequency-wise Hermitian square root of
    the covariance spectrum, one (m, m) @ (m, T) product per frequency.
    Output is a deterministic function of seed, of shape (T, N, m) and
    laid out in memory as (N, m, T), realization index fastest.
    """
    if T < 1:
        raise DimensionError("need T >= 1")
    m, N = model.m, model.N
    psi = _hermitian_part(np.fft.rfft(model.assembled().first_col, axis=0))
    w, V = np.linalg.eigh(psi)
    if not _pd(w).all():
        raise InvalidModelError("invalid model: assembled matrix not PD")
    # Hermitian square root of each covariance block Psi_l(C) = Psi_l(M)^{-1}
    roots = (V / np.sqrt(w[:, None, :])) @ V.conj().swapaxes(1, 2)
    # the rfft of the noise holds its spectrum at frequency -l, hence the
    # conjugate roots; the normals are freed once transformed
    Zf = np.fft.rfft(np.random.default_rng(seed).standard_normal((T, N, m)), axis=1)
    Zf = roots.conj() @ Zf.transpose(1, 2, 0)
    return Dataset(m, N, T, np.fft.irfft(Zf, n=N, axis=0).transpose(2, 0, 1))
