"""Block-circulant and block-Toeplitz matrix algebra.

A symmetric block-circulant matrix is stored by its generating block
sequence ``first_col`` (c_0, ..., c_{N-1}); the assembled dense matrix
carries block c_k at every position (i, (i+k) mod N).  For covariance
data the sequence is (S_0, S_1^T, ..., S_n^T, 0, ..., 0, S_n, ..., S_1),
so that the assembled matrix has lag blocks S_k = E y(t+k) y(t)^T.

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

from .errors import DimensionError, NotPositiveDefiniteError, ReconstructionError

PD_TOL_FACTOR = 1e-10  # lambda_min must exceed PD_TOL_FACTOR * (1 + max spectral norm)
IMAG_TOL = 1e-10       # largest tolerated imaginary residue, relative to block scale


def _as_blocks(blocks, m, count, name):
    a = np.asarray(blocks, dtype=float)
    if a.shape != (count, m, m):
        raise DimensionError(f"{name} must have shape ({count}, {m}, {m}), got {a.shape}")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CovBand:
    """Given covariance lags S_0, ..., S_n of an m-dimensional process."""

    m: int
    n: int
    sigma: np.ndarray  # (n+1, m, m)

    def __post_init__(self):
        if self.m < 1 or self.n < 0:
            raise DimensionError("need m >= 1 and n >= 0")
        object.__setattr__(self, "sigma", _as_blocks(self.sigma, self.m, self.n + 1, "sigma"))
        s0 = self.sigma[0]
        scale = 1.0 + np.abs(s0).max()
        if np.abs(s0 - s0.T).max() > 1e-10 * scale:
            raise DimensionError("lag-0 block must be symmetric")

    def norm(self) -> float:
        """Frobenius norm of the band, counting lags k >= 1 twice."""
        sq = np.sum(self.sigma**2, axis=(1, 2))
        return float(np.sqrt(sq[0] + 2.0 * sq[1:].sum()))

    def scaled(self, c: float) -> "CovBand":
        return CovBand(self.m, self.n, c * np.asarray(self.sigma))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n,
                "sigma": [b.reshape(-1).tolist() for b in self.sigma]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CovBand":
        m, n = int(d["m"]), int(d["n"])
        sigma = np.array([np.reshape(b, (m, m)) for b in d["sigma"]], dtype=float)
        if len(sigma) != n + 1:
            raise DimensionError(f"expected {n + 1} sigma blocks, got {len(sigma)}")
        return cls(m, n, sigma)


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
                           _as_blocks(self.first_col, self.m, self.N, "first_col"))

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        c = self.first_col
        scale = 1.0 + np.abs(c).max()
        defect = max(np.abs(c[k] - c[(self.N - k) % self.N].T).max() for k in range(self.N))
        return defect <= tol * scale

    def to_dense(self) -> np.ndarray:
        m, N = self.m, self.N
        D = np.zeros((N * m, N * m))
        for k in range(N):
            blk = self.first_col[k]
            for i in range(N):
                j = (i + k) % N
                D[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
        return D

    def lag(self, k: int) -> np.ndarray:
        """Block S_k of the assembled matrix at positions (t+k, t)."""
        return self.first_col[(self.N - k) % self.N]

    def band(self, n: int) -> CovBand:
        """Extract lags 0..n as a CovBand."""
        if 2 * n >= self.N:
            raise DimensionError(f"band order {n} too wide for N={self.N}")
        return CovBand(self.m, n, np.array([self.lag(k) for k in range(n + 1)]))

    def norm(self) -> float:
        """Frobenius norm of the assembled dense matrix."""
        return float(np.sqrt(self.N * np.sum(self.first_col**2)))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the assembled matrix to x of shape (..., N, m) via FFT."""
        xh = np.fft.ifft(x, axis=-2)
        psi = np.fft.fft(self.first_col, axis=0)
        yh = np.einsum("lij,...lj->...li", psi, xh)
        return np.fft.fft(yh, axis=-2).real

    def to_json_dict(self) -> dict:
        return {"m": self.m, "N": self.N,
                "first_col": [b.reshape(-1).tolist() for b in self.first_col]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "BlockCirculant":
        m, N = int(d["m"]), int(d["N"])
        col = np.array([np.reshape(b, (m, m)) for b in d["first_col"]], dtype=float)
        if len(col) != N:
            raise DimensionError(f"expected {N} first_col blocks, got {len(col)}")
        return cls(m, N, col)


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


def shift_matrix(m: int, N: int) -> np.ndarray:
    """Dense block shift U_N with identity blocks at (i, i+1 mod N)."""
    col = np.zeros((N, m, m))
    col[1] = np.eye(m)
    return BlockCirculant(m, N, col).to_dense()


def fourier_matrix(m: int, N: int) -> np.ndarray:
    """Unitary block Fourier matrix V with V[k,l] = exp(-2j pi k l / N)/sqrt(N) I_m."""
    k = np.arange(N)
    V = np.exp(-2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)
    return np.kron(V, np.eye(m))


def assemble_circulant(band: CovBand, N: int) -> BlockCirculant:
    """Circulant completion of a band with every unknown lag set to zero.

    The generating sequence is (S_0, S_1^T, ..., S_n^T, 0, ..., 0,
    S_n, ..., S_1).  Positivity is not guaranteed.
    """
    n, m = band.n, band.m
    if N < 2 * n + 1:
        raise DimensionError(f"N={N} < 2n+1={2 * n + 1}: band blocks would collide")
    col = np.zeros((N, m, m))
    col[0] = band.sigma[0]
    for k in range(1, n + 1):
        col[k] = band.sigma[k].T
        col[N - k] = band.sigma[k]
    return BlockCirculant(m, N, col)


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


def unique_frequencies(N: int):
    """Indices 0..floor(N/2) with conjugate multiplicities (1 or 2)."""
    return [(l, int(mu)) for l, mu in enumerate(_multiplicities(N))]


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


def _require_pd(w: np.ndarray, what: str) -> None:
    """Raise NotPositiveDefiniteError naming the first frequency at or below tolerance."""
    bad = np.flatnonzero(w[:, 0] <= pd_tolerance(float(np.abs(w).max())))
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
    lo, hi = spectral_bounds(C)
    return lo > pd_tolerance(hi)


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
    col = np.zeros((N, m, m))
    for k in range(N):
        acc = np.zeros((m, m))
        for i in range(N):
            j = (i + k) % N
            acc += M[i * m:(i + 1) * m, j * m:(j + 1) * m]
        col[k] = acc / N
    return BlockCirculant(m, N, col)


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
    T = np.zeros(((n + 1) * m, (n + 1) * m))
    for i in range(n + 1):
        for j in range(n + 1):
            blk = band.sigma[i - j] if i >= j else band.sigma[j - i].T
            T[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return T


def is_strictly_positive(band: CovBand) -> bool:
    """Whether the block-Toeplitz matrix of the band is positive definite."""
    T = toeplitz_gram(band)
    w = np.linalg.eigvalsh(0.5 * (T + T.T))
    return float(w[0]) > pd_tolerance(float(np.abs(w).max()))
