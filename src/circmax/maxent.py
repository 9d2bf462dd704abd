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

The iteration is a damped Newton method in the band coordinates with a
positivity-guarded Armijo backtracking line search; the Hessian
Tr(M^{-1} E_a M^{-1} E_b) is assembled on the N//2+1 unique frequencies.
With dim = m(m+1)/2 + n m^2 band coordinates, the coordinate responses W
and the Hessian intermediate each hold dim x (N//2+1) x m^2 complex
numbers, and one iteration costs O(dim^2 N m^2).  solve rejects
dim > HESSIAN_DIM_LIMIT with DimensionError before allocating either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockcirc import (BlockCirculant, CovBand, _from_half_spectrum,
                        _hermitian_part, _multiplicities, assemble_banded,
                        is_strictly_positive, logdet, pd_tolerance,
                        spectral_bounds)
from .errors import (ConvergenceError, DimensionError, HorizonExhaustedError,
                     InfeasibleBandError, InfeasibleExtensionError,
                     NotPositiveDefiniteError)
from .feasibility import (ar_extend, block_levinson, feasibility_certificate,
                          wrap_sequence)

HESSIAN_DIM_LIMIT = 2000
COLLAPSE_STEP = 1e-14
DEFAULT_PD_GUARD = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-10
    max_iter: int = 200
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    pd_guard: float = 1e-10

    def __post_init__(self):
        if min(self.grad_tol, self.max_iter, self.armijo_c, self.pd_guard) <= 0:
            raise DimensionError("solver parameters must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise DimensionError("backtrack_factor must lie in (0, 1)")


@dataclass(frozen=True)
class DualState:
    """Snapshot of the dual iteration."""

    M: "object"          # ReciprocalModel
    objective: float
    grad_norm: float
    iteration: int


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    objective_trace: list
    grad_norm: float
    band_match: float
    converged: bool
    final_state: DualState | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {"iterations": self.iterations,
                "objective_trace": list(self.objective_trace),
                "grad_norm": self.grad_norm,
                "band_match": self.band_match,
                "converged": self.converged}


@dataclass(frozen=True)
class ExtensionResult:
    sigma_opt: BlockCirculant
    model: "object"      # ReciprocalModel
    diagnostics: SolveDiagnostics

    def __iter__(self):
        return iter((self.sigma_opt, self.model, self.diagnostics))


def _band_dim(m: int, n: int) -> int:
    """Number of free coordinates of a symmetric banded circulant."""
    return m * (m + 1) // 2 + n * m * m


class _BandCoords:
    """Coordinates on symmetric banded circulants of bandwidth n on Z_N.

    Layout: M_0 diagonal entries, M_0 upper off-diagonal pairs row-major,
    then the full blocks M_1..M_n row-major.  ``W[a, u]`` is the
    frequency response of coordinate direction a at the u-th unique
    frequency.
    """

    def __init__(self, m: int, n: int, N: int):
        self.m, self.n, self.N = m, n, N
        self.dim = _band_dim(m, n)
        self.mult = _multiplicities(N)
        # the coordinate order sets how each Newton solve rounds, so it stays fixed
        iu = np.triu_indices(m, 1)
        self.iu = (np.r_[np.arange(m), iu[0]], np.r_[np.arange(m), iu[1]])
        n0 = len(self.iu[0])
        W = np.zeros((self.dim, len(self.mult), m, m), dtype=complex)
        a0 = np.arange(n0)
        W[a0, :, self.iu[0], self.iu[1]] = 1.0
        W[a0, :, self.iu[1], self.iu[0]] = 1.0
        k, i, j = np.indices((n, m, m)).reshape(3, -1)
        a = n0 + np.arange(n * m * m)
        phase = np.exp(2j * np.pi * np.arange(len(self.mult)) * (k + 1)[:, None] / N)
        W[a, :, i, j] = phase
        W[a, :, j, i] += phase.conj()
        self.W = W
        # the pairing counts an off-diagonal M_0 entry and every M_k, k >= 1, twice
        self.pair_weight = N * np.r_[np.ones(m), np.full(self.dim - m, 2.0)]

    def blocks_of(self, x: np.ndarray) -> np.ndarray:
        n0 = len(self.iu[0])
        B = np.zeros((self.n + 1, self.m, self.m))
        B[0][self.iu] = B[0][self.iu[::-1]] = x[:n0]
        B[1:] = x[n0:].reshape(self.n, self.m, self.m)
        return B

    def vec_of(self, blocks: np.ndarray) -> np.ndarray:
        b0 = 0.5 * (blocks[0] + blocks[0].T)
        return np.concatenate([b0[self.iu], blocks[1:].reshape(-1)])

    def pair_vec(self, blocks: np.ndarray) -> np.ndarray:
        """Euclidean gradient of x -> <M(x), circulant(blocks)>."""
        flat = np.concatenate([blocks[0][self.iu], blocks[1:].reshape(-1)])
        return self.pair_weight * flat

    def psi_of(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("a,alij->lij", x, self.W)


def _eig_floor(psi_unique: np.ndarray, pd_guard: float):
    """Batch eigenvalues of Hermitian parts; (eigs, min, tolerance)."""
    w = np.linalg.eigvalsh(_hermitian_part(psi_unique))
    lo = float(w[:, 0].min())
    tol = pd_guard * (1.0 + float(np.abs(w).max()))
    return w, lo, tol


def _logdet_from_eigs(w: np.ndarray, mult: np.ndarray) -> float:
    return float((mult * np.log(w).sum(axis=1)).sum())


def _lag_blocks_of_inverse(coords: _BandCoords, psi_inv_unique: np.ndarray) -> np.ndarray:
    """Lag blocks 0..n of the inverse circulant from its unique spectrum."""
    col = np.fft.irfft(psi_inv_unique, n=coords.N, axis=0)
    k = np.arange(coords.n + 1)
    return 0.5 * (col[-k % coords.N] + col[k].swapaxes(1, 2))


def _block_norm(blocks: np.ndarray) -> float:
    sq = np.sum(blocks**2, axis=(1, 2))
    return float(np.sqrt(sq[0] + 2.0 * sq[1:].sum()))


def dual_objective(M, band: CovBand) -> float:
    """f(M) = <M, any circulant completion of the band> - log det M."""
    coords, x = _coords_and_vec(M, band)
    psi = coords.psi_of(x)
    w, lo, tol = _eig_floor(psi, DEFAULT_PD_GUARD)
    if lo <= tol:
        raise NotPositiveDefiniteError("dual variable is not positive definite")
    p = coords.pair_vec(_padded_band(band, coords.n))
    return float(p @ x) - _logdet_from_eigs(w, coords.mult)


def dual_gradient(M, band: CovBand) -> BlockCirculant:
    """Banded circulant with lag blocks (data lag k) - (lag k of M^{-1}).

    Pairing this circulant with a banded symmetric direction under the
    trace inner product gives the directional derivative of the dual
    objective (the circulant pairing carries the multiplicity weights).
    """
    coords, x = _coords_and_vec(M, band)
    psi = coords.psi_of(x)
    w, lo, tol = _eig_floor(psi, DEFAULT_PD_GUARD)
    if lo <= tol:
        raise NotPositiveDefiniteError("dual variable is not positive definite")
    G = _lag_blocks_of_inverse(coords, np.linalg.inv(psi))
    gamma = _padded_band(band, coords.n) - G
    return assemble_banded(coords.m, coords.N, gamma)


def _padded_band(band: CovBand, n: int) -> np.ndarray:
    if band.n == n:
        return np.asarray(band.sigma)
    out = np.zeros((n + 1, band.m, band.m))
    out[:band.n + 1] = band.sigma
    return out


def _coords_and_vec(M, band: CovBand):
    if M.m != band.m:
        raise DimensionError("block sizes differ")
    if M.n > band.n:
        raise DimensionError("dual variable bandwidth exceeds the data band")
    coords = _BandCoords(M.m, M.n, M.N)
    return coords, coords.vec_of(np.asarray(M.M_blocks))


def entropy(C: BlockCirculant) -> float:
    """Differential entropy of the zero-mean Gaussian with covariance C."""
    d = C.m * C.N
    return 0.5 * logdet(C) + 0.5 * d * (1.0 + math.log(2.0 * math.pi))


def _infeasibility_report(band: CovBand, N: int) -> dict:
    """Wrap test at this N plus the smallest feasible N within the horizon."""
    report: dict = {"N": N}
    try:
        lev = block_levinson(band)
        extended = np.concatenate(
            [band.sigma, ar_extend(lev, band, max(N // 2 + 1 - band.n, 0))], axis=0)
        wrap = wrap_sequence(band.m, N, extended)
        lo, hi = spectral_bounds(wrap)
        report["wrap_min_eig"] = lo
        report["wrap_feasible"] = bool(lo > pd_tolerance(hi))
    except InfeasibleBandError:
        report["wrap_feasible"] = False
    try:
        cert = feasibility_certificate(band, N_max=max(N, 16 * (2 * band.n + 1)))
        report["smallest_feasible_N"] = cert.N
        report["min_eig_trace"] = {str(k): v for k, v in cert.min_eig_trace.items()}
    except HorizonExhaustedError as exc:
        report["smallest_feasible_N"] = None
        report["min_eig_trace"] = {str(k): v for k, v in exc.min_eig_trace.items()}
    return report


def solve(band: CovBand, N: int, cfg: SolverConfig | None = None,
          init=None) -> ExtensionResult:
    """Maximum-entropy circulant band extension at circle size N.

    Returns the extension Sigma_opt (positive definite, band equal to the
    data, inverse banded of bandwidth n by construction), the reciprocal
    model M = Sigma_opt^{-1}, and the iteration diagnostics.
    """
    from .reciprocal import ReciprocalModel

    cfg = cfg or SolverConfig()
    m, n = band.m, band.n
    if N < 2 * n + 1:
        raise DimensionError(f"N={N} below 2n+1={2 * n + 1}")
    dim = _band_dim(m, n)
    if dim > HESSIAN_DIM_LIMIT:
        raise DimensionError(
            f"band dimension m(m+1)/2 + n m^2 = {dim} exceeds the Newton limit "
            f"{HESSIAN_DIM_LIMIT}")
    if not is_strictly_positive(band):
        raise InfeasibleBandError("infeasible band: T_n is not positive definite")

    # normalize to unit lag-0 scale; the problem is exactly scale-equivariant
    scale = float(np.linalg.eigvalsh(band.sigma[0]).max())
    wband = band.scaled(1.0 / scale)
    f_shift = m * N * math.log(scale)

    coords = _BandCoords(m, n, N)
    p = coords.pair_vec(np.asarray(wband.sigma))
    band_norm = wband.norm()

    if init is None:
        blocks0 = np.zeros((n + 1, m, m))
        blocks0[0] = 0.5 * np.linalg.inv(wband.sigma[0])
        blocks0[0] = 0.5 * (blocks0[0] + blocks0[0].T)
    else:
        if init.m != m or init.n != n or init.N != N:
            raise DimensionError("initial model dimensions differ")
        blocks0 = scale * np.asarray(init.M_blocks)
    x = coords.vec_of(blocks0)

    psi = coords.psi_of(x)
    w, lo, tol = _eig_floor(psi, cfg.pd_guard)
    if lo <= tol:
        raise NotPositiveDefiniteError("initial dual variable is not PD")
    f = float(p @ x) - _logdet_from_eigs(w, coords.mult)

    trace = [f + f_shift]
    grad_norm_rel = math.inf
    band_match = math.inf
    collapsed = False

    for it in range(1, cfg.max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        G = _lag_blocks_of_inverse(coords, psi_inv)
        gamma = np.asarray(wband.sigma) - G
        g = coords.pair_vec(gamma)
        grad_norm_rel = _block_norm(gamma) / (1.0 + band_norm)
        band_match = max(
            float(np.linalg.norm(gamma[k]) / (1.0 + np.linalg.norm(wband.sigma[k])))
            for k in range(n + 1))
        if grad_norm_rel <= cfg.grad_tol and band_match <= 10.0 * cfg.grad_tol:
            model = ReciprocalModel(m, n, N, coords.blocks_of(x) / scale)
            sigma_opt = _from_half_spectrum(m, N, scale * psi_inv)
            state = DualState(model, f + f_shift, grad_norm_rel, it - 1)
            diag = SolveDiagnostics(it - 1, trace, grad_norm_rel, band_match, True, state)
            return ExtensionResult(sigma_opt, model, diag)

        K = np.einsum("lij,aljk,lkn->alin", psi_inv, coords.W, psi_inv)
        H = np.einsum("alij,blji,l->ab", K, coords.W, coords.mult).real
        H = 0.5 * (H + H.T)
        try:
            s = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            s = -g
        if g @ s >= 0.0:
            s = -g

        s_psi = coords.psi_of(s)
        gs = float(g @ s)
        # below this, objective comparisons drown in rounding noise
        noise_floor = 1e-14 * (1.0 + abs(f))
        endgame = -gs <= noise_floor
        t = 1.0
        while True:
            trial_psi = psi + t * s_psi
            w_t, lo_t, tol_t = _eig_floor(trial_psi, cfg.pd_guard)
            if lo_t > tol_t:
                f_t = float(p @ (x + t * s)) - _logdet_from_eigs(w_t, coords.mult)
                # quadratic endgame: sufficient-decrease test is meaningless
                # at machine precision, the PD guard alone gates the step
                if endgame and f_t <= f + noise_floor:
                    break
                if f_t <= f + cfg.armijo_c * t * gs:
                    break
            t *= cfg.backtrack_factor
            if t < COLLAPSE_STEP:
                collapsed = True
                break
        if not collapsed and not np.any(t * s):
            collapsed = True
        if collapsed:
            break
        x = x + t * s
        psi = psi + t * s_psi
        f = f_t
        trace.append(f + f_shift)

    state = DualState(None, f + f_shift, grad_norm_rel, len(trace) - 1)
    diag = SolveDiagnostics(len(trace) - 1, trace, grad_norm_rel, band_match, False, state)
    report = _infeasibility_report(band, N)
    if not report.get("wrap_feasible", False):
        raise InfeasibleExtensionError(
            f"infeasible: no positive completion found at N={N} "
            f"(wrap min eigenvalue {report.get('wrap_min_eig')})",
            certificate=report, diagnostics=diag)
    if collapsed:
        raise ConvergenceError(
            "no convergence: line search collapsed on a feasible instance",
            diagnostics=diag)
    raise ConvergenceError(
        f"no convergence within {cfg.max_iter} iterations "
        f"(relative gradient {grad_norm_rel:.3e})", diagnostics=diag)

