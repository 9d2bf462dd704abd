"""Block-circulant and block-Toeplitz matrix algebra.

A symmetric block-circulant matrix is stored by its generating block
sequence ``first_col`` (c_0, ..., c_{N-1}); the assembled dense matrix
carries block c_k at every position (i, (i+k) mod N).  For covariance
data the sequence is (S_0, S_1^T, ..., S_n^T, 0, ..., 0, S_n, ..., S_1),
so that the assembled matrix has lag blocks S_k = E y(t+k) y(t)^T.

This module is the single owner of that layout: ``_sequence`` writes the
generating sequence of lags S_0..S_L on Z_N, ``_lags`` reads symmetrized
lags S_0..S_n back off one, and ``_two_sided`` stacks S_{-L}..S_L with
S_{-k} = S_k^T for block-Toeplitz work.  Other modules go through them or
the public functions built on them.  The one exception is maxent's band
coordinates, which scatter into the sequence at fixed flat positions
because their order sets how each Newton solve rounds.

All frequency-domain work uses the convention

    Psi_l = sum_k c_k exp(-2j*pi*l*k/N),

the plain forward DFT of the block sequence, which diagonalizes the
assembled matrix under the unitary block Fourier matrix V with
V[k, l] = exp(-2j*pi*k*l/N)/sqrt(N) * I_m.  For a real symmetric
circulant every Psi_l is Hermitian and Psi_{N-l} = conj(Psi_l), so
eigen work is done on the ceil((N+1)/2) unique frequencies only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _jsonio
from .errors import (DimensionError, InfeasibleBandError, NotPositiveDefiniteError,
                     ReconstructionError)

PD_TOL_FACTOR = 1e-10  # lambda_min must exceed PD_TOL_FACTOR * (1 + max spectral norm)
IMAG_TOL = 1e-10       # largest tolerated imaginary residue, relative to block scale


def _as_blocks(blocks, shape: tuple, name: str) -> np.ndarray:
    """The one real-array intake: a read-only float array, finite and of the given shape.

    A read-only float64 array whose memory owner is read-only too (as
    ``sample``'s output is) is kept as it is; anything else, a read-only
    view of writeable memory included, is copied, so that no later write
    to the caller's array can reach the result.
    """
    owner = blocks
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    frozen = (isinstance(owner, np.ndarray) and not owner.flags.writeable
              and blocks.dtype == float and not blocks.flags.writeable)
    a = blocks if frozen else np.array(blocks, dtype=float)
    if a.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionError(f"{name} has a non-finite entry")
    a.flags.writeable = False
    return a


def _sequence(lags: np.ndarray, N: int) -> np.ndarray:
    """Generating sequence (S_0, S_1^T, ..., S_L^T, 0, ..., 0, S_L, ..., S_1) on Z_N.

    Needs 2L <= N.  When 2L = N the two copies of lag L share the
    self-transpose centre slot, which then holds S_L^T + S_L.
    """
    L = len(lags) - 1
    col = np.zeros((N,) + lags.shape[1:])
    col[0] = lags[0]
    col[1:L + 1] = lags[1:].swapaxes(1, 2)
    col[N - L:] = lags[:0:-1]
    col[N - L:L + 1] += lags[N - L:L + 1].swapaxes(1, 2)  # the centre; empty unless 2L = N
    return col


def _lags(col: np.ndarray, n: int) -> np.ndarray:
    """Lags S_0..S_n of a generating sequence, symmetrized as 0.5 (c_{-k} + c_k^T)."""
    k = np.arange(n + 1)
    return 0.5 * (col[-k % len(col)] + col[k].swapaxes(1, 2))


def _two_sided(lags: np.ndarray) -> np.ndarray:
    """Stack S_{-L}..S_L of lags S_0..S_L, S_{-k} = S_k^T: entry L + d is S_d."""
    return np.concatenate([lags[:0:-1].swapaxes(1, 2), lags])


def _band_norm(lags: np.ndarray) -> float:
    """Frobenius norm of lags S_0..S_n, counting lags k >= 1 twice."""
    sq = np.sum(lags**2, axis=(1, 2))
    return float(np.sqrt(sq[0] + 2.0 * sq[1:].sum()))


@dataclass(frozen=True)
class CovBand:
    """Given covariance lags S_0, ..., S_n of an m-dimensional process."""

    m: int
    n: int
    sigma: np.ndarray  # (n+1, m, m)

    def __post_init__(self):
        if self.m < 1 or self.n < 0:
            raise DimensionError("need m >= 1 and n >= 0")
        object.__setattr__(self, "sigma",
                           _as_blocks(self.sigma, (self.n + 1, self.m, self.m), "sigma"))
        s0 = self.sigma[0]
        scale = 1.0 + np.abs(s0).max()
        if np.abs(s0 - s0.T).max() > 1e-10 * scale:
            raise DimensionError("lag-0 block must be symmetric")

    def norm(self) -> float:
        """Frobenius norm of the band, counting lags k >= 1 twice."""
        return _band_norm(self.sigma)

    def scaled(self, c: float) -> "CovBand":
        return CovBand(self.m, self.n, c * np.asarray(self.sigma))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "sigma": _jsonio.rows_of(self.sigma)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CovBand":
        m, n = _jsonio.ints_of(d, "m", "n")
        return cls(m, n, _jsonio.blocks_of(d["sigma"], n + 1, (m, m), "sigma blocks"))


@dataclass(frozen=True)
class BlockCirculant:
    """Block-circulant matrix of N square blocks of size m."""

    m: int
    N: int
    first_col: np.ndarray  # (N, m, m)

    def __post_init__(self):
        if self.m < 1 or self.N < 1:
            raise DimensionError("need m >= 1 and N >= 1")
        object.__setattr__(self, "first_col",
                           _as_blocks(self.first_col, (self.N, self.m, self.m), "first_col"))

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        c = self.first_col
        scale = 1.0 + np.abs(c).max()
        defect = np.abs(c - c[-np.arange(self.N) % self.N].swapaxes(1, 2)).max()
        return defect <= tol * scale

    def to_dense(self) -> np.ndarray:
        m, N = self.m, self.N
        i, j = np.ogrid[:N, :N]
        blocks = self.first_col[(j - i) % N]  # block (i, j) is c_{(j-i) mod N}
        return blocks.transpose(0, 2, 1, 3).reshape(N * m, N * m)

    def lag(self, k: int) -> np.ndarray:
        """Block S_k of the assembled matrix at positions (t+k, t)."""
        return self.first_col[(self.N - k) % self.N]

    def band(self, n: int) -> CovBand:
        """Extract lags 0..n as a CovBand."""
        if 2 * n >= self.N:
            raise DimensionError(f"band order {n} too wide for N={self.N}")
        return CovBand(self.m, n, self.first_col[-np.arange(n + 1) % self.N])

    def to_json_dict(self) -> dict:
        return {"m": self.m, "N": self.N, "first_col": _jsonio.rows_of(self.first_col)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockCirculant":
        m, N = _jsonio.ints_of(d, "m", "N")
        return cls(m, N, _jsonio.blocks_of(d["first_col"], N, (m, m), "first_col blocks"))


@dataclass(frozen=True)
class SpectralForm:
    """Frequency blocks Psi_0, ..., Psi_{N-1} of a block-circulant matrix."""

    m: int
    N: int
    psi: np.ndarray = field(repr=False)  # (N, m, m) complex

    def __post_init__(self):
        a = np.asarray(self.psi, dtype=complex)
        if a.shape != (self.N, self.m, self.m):
            raise DimensionError(f"psi must have shape ({self.N}, {self.m}, {self.m})")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "psi", a)


def assemble_circulant(band: CovBand, N: int) -> BlockCirculant:
    """Circulant completion of a band with every unknown lag set to zero.

    The generating sequence is (S_0, S_1^T, ..., S_n^T, 0, ..., 0,
    S_n, ..., S_1).  Positivity is not guaranteed.
    """
    if N < 2 * band.n + 1:
        raise DimensionError(f"N={N} < 2n+1={2 * band.n + 1}: band blocks would collide")
    return BlockCirculant(band.m, N, _sequence(band.sigma, N))


def assemble_banded(m: int, N: int, blocks: np.ndarray) -> BlockCirculant:
    """Symmetric banded circulant from lag blocks (B_0, ..., B_n)."""
    return assemble_circulant(CovBand(m, len(blocks) - 1, blocks), N)


def _multiplicities(N: int) -> np.ndarray:
    """Conjugate multiplicities of frequencies 0..N//2: 1 at 0 and N/2, else 2."""
    mult = np.full(N // 2 + 1, 2.0)
    mult[0] = 1.0
    if N % 2 == 0:
        mult[-1] = 1.0
    return mult


def dft_block_diagonalize(C: BlockCirculant) -> SpectralForm:
    """Frequency blocks Psi_l = sum_k c_k exp(-2j pi l k / N).

    V* C V = diag(Psi_0, ..., Psi_{N-1}) for the block Fourier matrix V.
    """
    psi = np.fft.fft(C.first_col, axis=0)
    return SpectralForm(C.m, C.N, psi)


def idft_reconstruct(S: SpectralForm) -> BlockCirculant:
    """Invert the block diagonalization back to a real block sequence.

    The spectrum must satisfy Psi_{N-l} = conj(Psi_l); an imaginary
    residue above IMAG_TOL (relative) raises ReconstructionError.
    """
    col = np.fft.ifft(S.psi, axis=0)
    scale = max(1.0, float(np.abs(S.psi).max()))
    resid = float(np.abs(col.imag).max())
    if resid > IMAG_TOL * scale:
        raise ReconstructionError(
            f"non-real reconstruction: imaginary residue {resid:.3e} exceeds tolerance")
    return BlockCirculant(S.m, S.N, col.real)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _half_spectrum(C: BlockCirculant):
    """Unique frequency blocks Psi_0..Psi_{N//2}, their eigenvalues and multiplicities.

    One rfft along the block axis and one batched eigvalsh on the
    Hermitian parts; conjugate frequency pairs count twice.
    """
    psi = _hermitian_part(np.fft.rfft(C.first_col, axis=0))
    return psi, np.linalg.eigvalsh(psi), _multiplicities(C.N)


def _from_half_spectrum(m: int, N: int, psi: np.ndarray) -> BlockCirculant:
    """Real block circulant whose unique frequency blocks are the Hermitian parts of psi."""
    return BlockCirculant(m, N, np.fft.irfft(_hermitian_part(psi), n=N, axis=0))


def _pd(w: np.ndarray) -> np.ndarray:
    """The PD rule per row of ascending eigenvalues; a NaN anywhere in w fails every row."""
    return w[..., 0] > pd_tolerance(float(np.abs(w).max()))


def _require_pd(w: np.ndarray, what: str) -> None:
    """Raise NotPositiveDefiniteError naming the first frequency that fails _pd."""
    bad = np.flatnonzero(~_pd(w))
    if bad.size:
        l = int(bad[0])
        raise NotPositiveDefiniteError(
            f"{what}: frequency {l} has eigenvalue {w[l, 0]:.3e}")


def spectral_bounds(C: BlockCirculant) -> tuple[float, float]:
    """(smallest eigenvalue, largest absolute eigenvalue) over all frequencies."""
    _, w, _ = _half_spectrum(C)
    return float(w[:, 0].min()), float(np.abs(w).max())


def pd_tolerance(max_abs_eig: float) -> float:
    return PD_TOL_FACTOR * (1.0 + max_abs_eig)


def is_positive_definite(C: BlockCirculant) -> bool:
    return bool(_pd(_half_spectrum(C)[1]).all())


def logdet(C: BlockCirculant) -> float:
    """log det of the assembled matrix, summed over the unique frequencies."""
    _, w, mult = _half_spectrum(C)
    _require_pd(w, "not positive definite")
    return float(mult @ np.log(w).sum(axis=1))


def inverse(C: BlockCirculant) -> BlockCirculant:
    """Frequency-wise inverse of a symmetric positive definite circulant."""
    psi, w, _ = _half_spectrum(C)
    _require_pd(w, "not invertible")
    return _from_half_spectrum(C.m, C.N, np.linalg.inv(psi))


def project_circulant(M: np.ndarray, m: int) -> BlockCirculant:
    """Orthogonal projection of a symmetric matrix onto the circulant subspace.

    Block k of the result is the average of the blocks of M along cyclic
    block diagonal k (trace inner product projection).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % m:
        raise DimensionError(f"matrix of shape {M.shape} is not square with block size {m}")
    N = M.shape[0] // m
    blocks = M.reshape(N, m, N, m).transpose(0, 2, 1, 3)
    i, k = np.ogrid[:N, :N]
    return BlockCirculant(m, N, blocks[i, (i + k) % N].sum(axis=0) / N)


def band_residual(C: BlockCirculant, n: int) -> float:
    """Relative Frobenius mass of the blocks outside bandwidth n.

    Zero iff the circulant is banded of bandwidth n.
    """
    if 2 * n >= C.N:
        raise DimensionError(f"bandwidth {n} is not below N/2 for N={C.N}")
    total = float(np.sqrt(np.sum(C.first_col**2)))
    if total == 0.0:
        return 0.0
    off = C.first_col[n + 1:C.N - n]
    return float(np.sqrt(np.sum(off**2))) / total


def toeplitz_gram(band: CovBand, order: int | None = None) -> np.ndarray:
    """Dense symmetric block-Toeplitz matrix of the lags, block order+1 wide.

    Entry (i, j) is S_{i-j}, with S_{-k} = S_k^T.
    """
    n = band.n if order is None else order
    if n > band.n:
        raise DimensionError(f"order {n} exceeds available lags {band.n}")
    m = band.m
    i = np.arange(n + 1)
    blocks = _two_sided(band.sigma[:n + 1])[i[:, None] - i[None, :] + n]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * m, (n + 1) * m)


def _toeplitz_ar(band: CovBand) -> tuple[np.ndarray, np.ndarray]:
    """The PD decision on T_n and the band's order-n forward AR model, from one eigh.

    Raises InfeasibleBandError unless T_n passes the PD rule.  The last
    block column of T_n^{-1}, in reversed block order, is X_j = A_j^T
    Lambda^{-1} for the forward AR model A_0 = I, A_1..A_n with innovation
    Lambda, so A_j^T = X_j X_0^{-1}.  Returns (X, AT), each (n+1, m, m).
    """
    w, V = np.linalg.eigh(_hermitian_part(toeplitz_gram(band)))
    if not _pd(w):
        raise InfeasibleBandError("infeasible band: T_n is not positive definite")
    X = ((V / w) @ V[-band.m:].T).reshape(band.n + 1, band.m, band.m)[::-1]
    return X, X @ np.linalg.inv(X[0])


def is_strictly_positive(band: CovBand) -> bool:
    """Whether the block-Toeplitz matrix of the band is positive definite."""
    try:
        _toeplitz_ar(band)
    except InfeasibleBandError:
        return False
    return True
