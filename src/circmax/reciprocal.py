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

from .blockcirc import (BlockCirculant, _hermitian_part, _multiplicities,
                        assemble_banded, band_residual, inverse, pd_tolerance)
# perfbench/tracer.py patches these two names in this module; keep them importable
from .blockcirc import dft_block_diagonalize, is_positive_definite  # noqa: F401
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
        blocks = np.asarray(self.M_blocks, dtype=float)
        if blocks.shape != (self.n + 1, self.m, self.m):
            raise DimensionError(
                f"M_blocks must have shape ({self.n + 1}, {self.m}, {self.m})")
        if self.N < 2 * self.n + 1:
            raise DimensionError(f"N={self.N} below 2n+1={2 * self.n + 1}")
        m0 = blocks[0]
        if np.abs(m0 - m0.T).max() > 1e-10 * (1.0 + np.abs(m0).max()):
            raise InvalidModelError("M_0 must be symmetric")
        blocks = blocks.copy()
        blocks.flags.writeable = False
        object.__setattr__(self, "M_blocks", blocks)

    def assembled(self) -> BlockCirculant:
        """The symmetric banded circulant built from the coefficients."""
        return assemble_banded(self.m, self.N, self.M_blocks)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "N": self.N,
                "M": [b.reshape(-1).tolist() for b in self.M_blocks]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReciprocalModel":
        m, n, N = int(d["m"]), int(d["n"]), int(d["N"])
        blocks = np.array([np.reshape(b, (m, m)) for b in d["M"]], dtype=float)
        if len(blocks) != n + 1:
            raise DimensionError(f"expected {n + 1} M blocks, got {len(blocks)}")
        return cls(m, n, N, blocks)


@dataclass(frozen=True)
class ConjugateStats:
    """Variance of the unnormalized conjugate (double-sided innovation) process."""

    delta: np.ndarray  # (m, m) symmetric PSD


@dataclass(frozen=True)
class YuleWalkerSystem:
    """Normal equations for the two-sided coefficients of order n.

    ``gram`` is the 2nm x 2nm covariance of the window
    (y(t+n), ..., y(t+1), y(t-1), ..., y(t-n)); ``rhs`` stacks the cross
    blocks (S_n, ..., S_1, S_1^T, ..., S_n^T).
    """

    m: int
    n: int
    gram: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """T independent realizations of one period of an m-dimensional process."""

    m: int
    N: int
    T: int
    realizations: np.ndarray  # (T, N, m)

    def __post_init__(self):
        a = np.asarray(self.realizations, dtype=float)
        if a.shape != (self.T, self.N, self.m):
            raise DimensionError(
                f"realizations must have shape ({self.T}, {self.N}, {self.m})")
        if self.T < 1:
            raise DimensionError("need T >= 1")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "realizations", a)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "N": self.N, "T": self.T,
                "realizations": [r.reshape(-1).tolist() for r in self.realizations]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        m, N, T = int(d["m"]), int(d["N"]), int(d["T"])
        reals = np.array([np.reshape(r, (N, m)) for r in d["realizations"]], dtype=float)
        return cls(m, N, T, reals)


def build_yule_walker_system(lags: np.ndarray) -> YuleWalkerSystem:
    """Assemble the order-n two-sided normal equations from lags S_0..S_2n."""
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 3 or lags.shape[1] != lags.shape[2]:
        raise DimensionError("lags must be a stack of square blocks")
    if len(lags) % 2 == 0:
        raise DimensionError("need an odd number of lags S_0..S_2n")
    n = (len(lags) - 1) // 2
    m = lags.shape[1]

    def R(k: int) -> np.ndarray:
        return lags[k] if k >= 0 else lags[-k].T

    # window offsets in the fixed order (-n, ..., -1, 1, ..., n)
    offs = list(range(-n, 0)) + list(range(1, n + 1))
    gram = np.zeros((2 * n * m, 2 * n * m))
    rhs = np.zeros((2 * n * m, m))
    for i, ki in enumerate(offs):
        rhs[i * m:(i + 1) * m] = R(ki).T
        for j, kj in enumerate(offs):
            gram[i * m:(i + 1) * m, j * m:(j + 1) * m] = R(kj - ki)
    return YuleWalkerSystem(m, n, gram, rhs)


def yule_walker(lags: np.ndarray) -> tuple[np.ndarray, ConjugateStats]:
    """Two-sided coefficients F_{-n}..F_{-1}, F_1..F_n and conjugate variance.

    Solves the orthogonality conditions of the double-sided representation
    sum_k F_k y(t-k) = d(t) with F_0 = I, from the 2n+1 lags S_0..S_2n.
    Needs twice the lags that the banded maximum-entropy route uses.
    """
    lags = np.asarray(lags, dtype=float)
    sys = build_yule_walker_system(lags)
    m, n = sys.m, sys.n
    if n == 0:
        return np.zeros((0, m, m)), ConjugateStats(0.5 * (lags[0] + lags[0].T))
    w = np.linalg.eigvalsh(0.5 * (sys.gram + sys.gram.T))
    if float(np.abs(w).min()) <= pd_tolerance(float(np.abs(w).max())):
        raise DegenerateProcessError(
            "degenerate process: singular two-sided normal equations")
    X = np.linalg.solve(sys.gram, -sys.rhs)
    F = np.array([X[i * m:(i + 1) * m].T for i in range(2 * n)])

    def R(k: int) -> np.ndarray:
        return lags[k] if k >= 0 else lags[-k].T

    offs = list(range(-n, 0)) + list(range(1, n + 1))
    delta = lags[0] + sum(F[i] @ R(-k) for i, k in enumerate(offs))
    return F, ConjugateStats(0.5 * (delta + delta.T))


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
    blocks = np.empty((n + 1, C.m, C.m))
    blocks[0] = 0.5 * (Minv.first_col[0] + Minv.first_col[0].T)
    for k in range(1, n + 1):
        blocks[k] = 0.5 * (Minv.lag(k) + Minv.first_col[k].T)
    return ReciprocalModel(C.m, n, C.N, blocks)


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
    the covariance spectrum; output is a deterministic function of seed.
    """
    if T < 1:
        raise DimensionError("need T >= 1")
    m, N = model.m, model.N
    psi = _hermitian_part(np.fft.rfft(model.assembled().first_col, axis=0))
    w, V = np.linalg.eigh(psi)
    if float(w[:, 0].min()) <= pd_tolerance(float(np.abs(w).max())):
        raise InvalidModelError("invalid model: assembled matrix not PD")
    # Hermitian square root of each covariance block Psi_l(C) = Psi_l(M)^{-1}
    roots = (V / np.sqrt(w[:, None, :])) @ V.conj().swapaxes(1, 2)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((T, N, m))
    # rfft(Z) holds the spectrum at frequency -l, hence the conjugate roots
    Zf = np.einsum("lij,tlj->tli", roots.conj(), np.fft.rfft(Z, axis=1))
    return Dataset(m, N, T, np.fft.irfft(Zf, n=N, axis=1))
