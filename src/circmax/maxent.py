"""Maximum-entropy band extension over symmetric block circulants.

Among all positive definite block-circulant completions of a covariance
band, the entropy maximizer is the unique one whose inverse is banded of
the same bandwidth.  The solver exploits that structure: instead of
completing the covariance it minimizes the strictly convex dual

    f(M) = <M, C(band)> - log det M

directly over symmetric positive definite banded circulants M, where
C(band) is any circulant completion of the data (the pairing touches
only the given lags because M is banded).  At the minimum the band of
M^{-1} reproduces the data, so Sigma_opt = M^{-1} solves the extension
problem and M itself is the reciprocal model of the data.

The iteration is damped Newton in the band coordinates, with no line
search: f is self-concordant, so the step t = 1/(1 + lambda), lambda the
Newton decrement, stays PD in exact arithmetic and lowers f by at least
lambda - log(1 + lambda); once lambda < 1/4, full steps converge
quadratically (Boyd & Vandenberghe, sec. 9.6).  It starts at the band's
own order-n AR model, M = A(z)^* Lambda^{-1} A(z), read off the
same eigendecomposition of T_n that decides whether the band is
positive; the band of its inverse misses the data only by aliasing,
which decays geometrically in N, so large circles converge in 0-3 steps.
The Hessian Tr(M^{-1} E_a M^{-1} E_b) is gathered from one irfft of the
entrywise products of the unique frequency blocks of M^{-1}.  With
dim = m(m+1)/2 + n m^2 band coordinates, each Newton step allocates
(N//2+1) m^4 complex products, (N + 4n+1) m^4 real lags and about
3 * 8 dim^2 bytes of gather temporaries, and frees them all when its
Hessian is built; a solve that converges at its start allocates none of
them.  Each step costs O(N log N m^4 + dim^3).  solve rejects
dim > HESSIAN_DIM_LIMIT with DimensionError before allocating anything.

The band coordinates depend only on (m, n, N): an LRU cache keyed by
(m, n, N) keeps them read-only for COORD_CACHE_SIZE = 64 shapes, 48 dim
bytes each and 6.1 MB at most.  Like any LRU cache, it misses every time
on a cycle of more than 64 shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _jsonio
from .blockcirc import (BlockCirculant, CovBand, _band_norm, _from_half_spectrum,
                        _hermitian_part, _lags, _multiplicities, _pd,
                        _toeplitz_ar, assemble_banded, inverse, logdet,
                        pd_tolerance)
from .errors import (ConvergenceError, DimensionError, HorizonExhaustedError,
                     InfeasibleExtensionError, NotPositiveDefiniteError)
from .feasibility import DEFAULT_HORIZON_FACTOR, feasibility_certificate
from .reciprocal import ReciprocalModel

HESSIAN_DIM_LIMIT = 2000
GRAD_TOL = 1e-10  # relative gradient at which a solve counts as converged
MAX_ITER = 200
START_MARGIN = 1e4  # the start's smallest eigenvalue, in PD guard tolerances
COORD_CACHE_SIZE = 64  # (m, n, N) shapes whose band coordinates are kept


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    objective_trace: list
    grad_norm: float
    band_match: float
    converged: bool
    decrements: list  # Newton decrement lambda of each step taken

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExtensionResult:
    sigma_opt: BlockCirculant
    model: ReciprocalModel
    diagnostics: SolveDiagnostics


def _band_dim(m: int, n: int) -> int:
    """Number of free coordinates of a symmetric banded circulant."""
    return m * (m + 1) // 2 + n * m * m


@functools.lru_cache(maxsize=COORD_CACHE_SIZE)
def _coordinate_arrays(m: int, n: int, N: int):
    """Read-only (k, i, j, pos, pair_weight) of _BandCoords: 6 dim numbers, none O(N)."""
    # the coordinate order sets how each Newton solve rounds, so it stays fixed
    iu = np.triu_indices(m, 1)
    rest = np.indices((n, m, m)).reshape(3, -1)
    k = np.r_[np.zeros(m * (m + 1) // 2, dtype=int), rest[0] + 1]
    i = np.r_[np.arange(m), iu[0], rest[1]]
    j = np.r_[np.arange(m), iu[1], rest[2]]
    pos = np.array([(k * m + j) * m + i, ((-k % N) * m + i) * m + j])
    # the pairing counts an off-diagonal M_0 entry and every M_k, k >= 1, twice
    pair_weight = N * np.where(np.arange(len(k)) < m, 1.0, 2.0)
    for a in (k, i, j, pos, pair_weight):
        a.flags.writeable = False
    return k, i, j, pos, pair_weight


class _BandCoords:
    """Coordinates on symmetric banded circulants of bandwidth n on Z_N.

    Layout: M_0 diagonal entries, M_0 upper off-diagonal pairs row-major,
    then the full blocks M_1..M_n row-major.  Coordinate a is entry
    (i[a], j[a]) of block k[a]; it sits at the two flat positions pos[:, a]
    of the generating sequence (B_0, B_1^T, ..., B_n^T, 0, ..., B_n, ..., B_1).
    """

    def __init__(self, m: int, n: int, N: int):
        self.m, self.n, self.N = m, n, N
        self.dim = _band_dim(m, n)
        self.mult = _multiplicities(N)
        self.n0 = m * (m + 1) // 2
        self.k, self.i, self.j, self.pos, self.pair_weight = _coordinate_arrays(m, n, N)

    def blocks_of(self, x: np.ndarray) -> np.ndarray:
        B = np.zeros((self.n + 1, self.m, self.m))
        B[self.k, self.i, self.j] = x
        B[0, self.j[:self.n0], self.i[:self.n0]] = x[:self.n0]
        return B

    def vec_of(self, blocks: np.ndarray) -> np.ndarray:
        sym = np.array(blocks, dtype=float)
        sym[0] = 0.5 * (sym[0] + sym[0].T)
        return sym[self.k, self.i, self.j]

    def pair_vec(self, blocks: np.ndarray) -> np.ndarray:
        """Euclidean gradient of x -> <M(x), circulant(blocks)>."""
        return self.pair_weight * blocks[self.k, self.i, self.j]

    def psi_of(self, x: np.ndarray) -> np.ndarray:
        """Unique frequency blocks of the banded circulant with coordinates x."""
        col = np.zeros(self.N * self.m * self.m)
        col[self.pos] = x
        return np.fft.rfft(col.reshape(self.N, self.m, self.m), axis=0)

    def hessian(self, psi_inv: np.ndarray) -> np.ndarray:
        """Hessian of -log det M(x) from the unique blocks P_l of M^{-1}.

        R[p, q, r, s, d] = sum_l P_l[p, q] P_l[r, s] exp(2j pi l d / N) over
        all N frequencies is one irfft of the half-spectrum products, and
        H_ab = sum_l Tr(P_l E_a P_l E_b) sums four of its entries at lags
        +-k_a +-k_b (a diagonal M_0 direction is counted twice).  On R's lags
        -2n..2n each flat index is an offset of a plus an offset of b, so
        the gather needs only dim-vectors, not dim x dim index tables.
        """
        m, n, N = self.m, self.n, self.N
        k, i, j = self.k, self.i, self.j
        L = 4 * n + 1
        P = psi_inv.transpose(1, 2, 0)
        R = np.fft.irfft(P[:, :, None, None, :] * P[None, None, :, :, :], n=N, axis=-1)
        R = (N * R[..., np.arange(-2 * n, 2 * n + 1) % N]).reshape(-1)
        up = ((j * m**3 + i) * L + 2 * n + k)[:, None]
        down = ((i * m**3 + j) * L + 2 * n - k)[:, None]
        fwd, rev = (i * m + j) * m * L + k, (j * m + i) * m * L - k
        w = np.where(np.arange(self.dim) < m, 0.5, 1.0)
        H = R[up + fwd] + R[up + rev] + R[down + fwd] + R[down + rev]
        return w[:, None] * H * w


def _logdet_from_eigs(w: np.ndarray, mult: np.ndarray) -> float:
    return float((mult * np.log(w).sum(axis=1)).sum())


def _ar_precision_blocks(X: np.ndarray, AT: np.ndarray, n: int) -> np.ndarray:
    """Lag blocks B_k = sum_j A_j^T Lambda^{-1} A_{j+k} of the band's AR model.

    (X, AT) is the readout of blockcirc._toeplitz_ar: X_j = A_j^T Lambda^{-1}
    and AT_j = A_j^T, so B_k = sum_j A_j^T X_{j+k}^T.  The banded circulant
    with these blocks is A(z)^* Lambda^{-1} A(z) sampled on Z_N.
    """
    return np.array([np.einsum("jab,jcb->ac", AT[:n + 1 - k], X[k:])
                     for k in range(n + 1)])


def _data_lags(M, band: CovBand) -> np.ndarray:
    """Data lags 0..M.n, the only ones a banded M pairs with."""
    if M.m != band.m:
        raise DimensionError("block sizes differ")
    if M.n > band.n:
        raise DimensionError("dual variable bandwidth exceeds the data band")
    return np.asarray(band.sigma[:M.n + 1])


def dual_objective(M, band: CovBand) -> float:
    """f(M) = <M, any circulant completion of the band> - log det M."""
    S = _data_lags(M, band)
    B = np.asarray(M.M_blocks)
    pair = M.N * (float(np.sum(B[0] * S[0])) + 2.0 * float(np.sum(B[1:] * S[1:])))
    return pair - logdet(M.assembled())


def dual_gradient(M, band: CovBand) -> BlockCirculant:
    """Banded circulant with lag blocks (data lag k) - (lag k of M^{-1}).

    Pairing this circulant with a banded symmetric direction under the
    trace inner product gives the directional derivative of the dual
    objective (the circulant pairing carries the multiplicity weights).
    """
    S = _data_lags(M, band)
    col = inverse(M.assembled()).first_col
    return assemble_banded(M.m, M.N, S - col[-np.arange(M.n + 1) % M.N])


def entropy(C: BlockCirculant) -> float:
    """Differential entropy of the zero-mean Gaussian with covariance C."""
    d = C.m * C.N
    return 0.5 * logdet(C) + 0.5 * d * (1.0 + math.log(2.0 * math.pi))


def _infeasibility_report(band: CovBand, N: int, dual_blocks: np.ndarray,
                          pairing: float) -> dict:
    """The certifying iterate plus the AR-wrap scan; see InfeasibleExtensionError."""
    try:
        cert = feasibility_certificate(
            band, N_max=max(N, DEFAULT_HORIZON_FACTOR * (2 * band.n + 1)))
        smallest, trace = cert.N, cert.min_eig_trace
    except HorizonExhaustedError as exc:
        smallest, trace = None, exc.min_eig_trace
    return {"N": N, "dual_blocks": _jsonio.rows_of(dual_blocks), "pairing": pairing,
            "wrap_feasible": False, "wrap_min_eig": trace.get(N),
            "smallest_feasible_N": smallest,
            "min_eig_trace": {str(k): v for k, v in trace.items()}}


def solve(band: CovBand, N: int, init=None) -> ExtensionResult:
    """Maximum-entropy circulant band extension at circle size N.

    Returns the extension Sigma_opt (positive definite, band equal to the
    data, inverse banded of bandwidth n by construction), the reciprocal
    model M = Sigma_opt^{-1}, and the iteration diagnostics.  Newton
    starts at init, or else at the band's AR model, lifted on M_0 where
    its spectrum comes within START_MARGIN guard tolerances of singular.

    Each step moves by t = 1/(1 + lambda), or t = 1 once lambda < 1/4,
    with lambda = sqrt(-g.s) the Newton decrement (diagnostics.decrements),
    so at most (f_0 - f*)/(1/4 - log(5/4)) steps are damped.

    Every iterate M is PD and pairs with every completion Sigma of the
    band to the same number p.x, so an iterate with p.x <= 0 proves that
    no PD completion exists (Boyd & Vandenberghe, Convex Optimization,
    sec. 5.8).  solve checks this before each Newton step and raises
    InfeasibleExtensionError carrying M's lag blocks and p.x; a solve
    that stops short of both (a step fails the PD guard, H gives no
    descent direction or the iteration limit is hit) raises ConvergenceError.
    """
    m, n = band.m, band.n
    if N < 2 * n + 1:
        raise DimensionError(f"N={N} below 2n+1={2 * n + 1}")
    dim = _band_dim(m, n)
    if dim > HESSIAN_DIM_LIMIT:
        raise DimensionError(
            f"band dimension m(m+1)/2 + n m^2 = {dim} exceeds the Newton limit "
            f"{HESSIAN_DIM_LIMIT}")
    # the one PD decision on T_n; its AR model gives the Newton start
    ar_X, ar_AT = _toeplitz_ar(band)

    # normalize to unit lag-0 scale; the problem is exactly scale-equivariant
    scale = float(np.linalg.eigvalsh(band.sigma[0]).max())
    wband = band.scaled(1.0 / scale)
    f_shift = m * N * math.log(scale)

    coords = _BandCoords(m, n, N)
    p = coords.pair_vec(np.asarray(wband.sigma))
    band_norm = wband.norm()
    lag_scale = 1.0 + np.linalg.norm(wband.sigma, axis=(1, 2))

    if init is None:
        blocks0 = scale * _ar_precision_blocks(ar_X, ar_AT, n)
    else:
        if init.m != m or init.n != n or init.N != N:
            raise DimensionError("initial model dimensions differ")
        blocks0 = scale * np.asarray(init.M_blocks)
    x = coords.vec_of(blocks0)

    psi = coords.psi_of(x)
    w = np.linalg.eigvalsh(_hermitian_part(psi))
    # the AR precision's condition number is about cond(T_n)^2, so on
    # strongly correlated bands it can sit at the PD guard; Newton then
    # stalls there, so lift M_0 until the start is well inside the cone
    lift = START_MARGIN * pd_tolerance(float(np.abs(w).max())) - float(w[:, 0].min())
    if init is None and lift > 0.0:
        x[:m] += lift
        psi = psi + lift * np.eye(m)
        w = np.linalg.eigvalsh(_hermitian_part(psi))
    if not _pd(w).all():
        raise NotPositiveDefiniteError("initial dual variable is not PD")
    px = float(p @ x)
    f = px - _logdet_from_eigs(w, coords.mult)

    trace = [f + f_shift]
    grad_norm_rel = math.inf
    band_match = math.inf
    decrements = []

    for it in range(1, MAX_ITER + 1):
        psi_inv = np.linalg.inv(psi)
        gamma = np.asarray(wband.sigma) - _lags(np.fft.irfft(psi_inv, n=N, axis=0), n)
        g = coords.pair_vec(gamma)
        grad_norm_rel = _band_norm(gamma) / (1.0 + band_norm)
        band_match = float(np.max(np.linalg.norm(gamma, axis=(1, 2)) / lag_scale))
        if grad_norm_rel <= GRAD_TOL and band_match <= 10.0 * GRAD_TOL:
            model = ReciprocalModel(m, n, N, coords.blocks_of(x) / scale)
            sigma_opt = _from_half_spectrum(m, N, scale * psi_inv)
            diag = SolveDiagnostics(it - 1, trace, grad_norm_rel, band_match, True,
                                    decrements)
            return ExtensionResult(sigma_opt, model, diag)

        px_abs = float(np.abs(p) @ np.abs(x))
        # p.x = <M, Sigma> for every completion Sigma, and M is PD: p.x <= 0
        # (beyond its rounding) proves that no completion is PD
        if px <= -1e-14 * px_abs:
            diag = SolveDiagnostics(it - 1, trace, grad_norm_rel, band_match, False,
                                    decrements)
            raise InfeasibleExtensionError(
                f"infeasible: no positive completion exists at N={N} "
                f"(a positive definite dual iterate pairs with the band to {px:.3e})",
                certificate=_infeasibility_report(band, N, coords.blocks_of(x) / scale, px),
                diagnostics=diag)

        H = coords.hessian(psi_inv)
        try:
            s = np.linalg.solve(0.5 * (H + H.T), -g)
        except np.linalg.LinAlgError:
            stall = "the Newton system is singular"
            break
        lam2 = -float(g @ s)
        if not lam2 > 0.0:
            stall = "the Newton direction is not a descent direction"
            break
        lam = math.sqrt(lam2)
        # the damped step stays in the Dikin ellipsoid, so M stays PD
        t = 1.0 if lam < 0.25 else 1.0 / (1.0 + lam)
        s_psi = coords.psi_of(s)
        psi_t = psi + t * s_psi
        w = np.linalg.eigvalsh(_hermitian_part(psi_t))
        if not _pd(w).all():
            stall = f"the step at Newton decrement {lam:.3e} failed the PD guard"
            break
        x = x + t * s
        psi = psi_t
        px = float(p @ x)
        f = px - _logdet_from_eigs(w, coords.mult)
        trace.append(f + f_shift)
        decrements.append(lam)
    else:
        stall = f"the iteration limit {MAX_ITER} was reached"

    diag = SolveDiagnostics(len(trace) - 1, trace, grad_norm_rel, band_match, False,
                            decrements)
    raise ConvergenceError(f"no convergence: {stall} (relative gradient "
                           f"{grad_norm_rel:.3e}), with no infeasibility certificate",
                           diagnostics=diag)
