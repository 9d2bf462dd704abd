"""Seeded benchmark inputs, built with numpy only.

The generator never imports circmax, so every commit of the library gets
bit-identical inputs for the same seed.  Feasible bands come from random
banded symmetric positive definite models whose spectrum is floored at a
fixed share of its largest eigenvalue; inverting the model frequency-wise
gives the covariance, whose first n+1 lags are the band.  The generating
model is then the exact answer of the band extension at that circle size.

Conventions follow the library: blocks B_0..B_n have the generating
sequence (B_0, B_1^T, ..., B_n^T, 0, ..., 0, B_n, ..., B_1), frequency
blocks are the forward DFT of a generating sequence c, and lag k of the
circulant is c[(N - k) % N].

Every workload has the same sizes for every seed; the seed only draws
the numbers, so run-to-run cost does not depend on which seed is used.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SPECTRAL_FLOOR = 0.25   # smallest model eigenvalue, as a share of the largest
PD_TOL_FACTOR = 1e-10   # the library's positivity rule: lo > 1e-10 * (1 + hi)
DECISION_MARGIN = 1e-6  # keep wrap eigenvalues this far from the positivity threshold
HORIZON_FACTOR = 16     # the library's default feasibility horizon, 16 * (2n + 1)

WORKLOADS = ("extend-scalar", "extend-multichannel", "identify-records", "cli-mix")


@dataclass(frozen=True)
class WorkloadInputs:
    requests: list   # request specs (dicts of numbers and arrays), one cycle
    digest: str


# ---------------------------------------------------------------- circulants

def banded_sequence(B: np.ndarray, N: int) -> np.ndarray:
    """Generating sequence of the symmetric banded circulant of blocks B."""
    n, m = len(B) - 1, B.shape[1]
    col = np.zeros((N, m, m))
    col[0] = B[0]
    for k in range(1, n + 1):
        col[k] = B[k].T
        col[N - k] = B[k]
    return col


def hermitian_eigs(psi: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (psi + psi.conj().swapaxes(-1, -2)))


def lags_of(col: np.ndarray, n: int) -> np.ndarray:
    N = len(col)
    return np.array([col[(N - k) % N] for k in range(n + 1)])


def inverse_sequence(col: np.ndarray) -> np.ndarray:
    """Generating sequence of the inverse of a symmetric PD circulant."""
    return np.fft.ifft(np.linalg.inv(np.fft.fft(col, axis=0)), axis=0).real


def banded_model(rng, m: int, n: int, N: int) -> dict:
    """Random banded SPD model, its covariance and the covariance band."""
    B = 0.3 * rng.standard_normal((n + 1, m, m))
    B[0] = 0.5 * (B[0] + B[0].T) + np.eye(m)
    w = hermitian_eigs(np.fft.fft(banded_sequence(B, N), axis=0))
    shift = (SPECTRAL_FLOOR * w.max() - w.min()) / (1.0 - SPECTRAL_FLOOR)
    if shift > 0:
        B[0] += shift * np.eye(m)
        w = w + shift
    sigma_col = inverse_sequence(banded_sequence(B, N))
    lags = lags_of(sigma_col, n)
    lags[0] = 0.5 * (lags[0] + lags[0].T)
    return {"m": m, "n": n, "N": N, "M": B, "sigma_col": sigma_col,
            "lags": lags, "cond": float(w.max() / w.min())}


def gaussian_periods(sigma_col: np.ndarray, T: int, rng) -> np.ndarray:
    """T independent periods (T, N, m) of the Gaussian circulant process."""
    N, m = sigma_col.shape[:2]
    psi = np.fft.fft(sigma_col, axis=0)
    w, V = np.linalg.eigh(0.5 * (psi + psi.conj().swapaxes(-1, -2)))
    roots = np.einsum("lij,lj,lkj->lik", V, np.sqrt(np.maximum(w, 0.0)), V.conj())
    Z = rng.standard_normal((T, N, m))
    return np.fft.fft(np.einsum("lij,tlj->tli", roots, np.fft.ifft(Z, axis=1)),
                      axis=1).real


def sample_lags(Y: np.ndarray, n: int) -> np.ndarray:
    """Circular sample covariances S_0..S_n of periods Y (T, N, m)."""
    T, N, m = Y.shape
    out = np.array([np.einsum("tsi,tsj->ij", np.roll(Y, -k, axis=1), Y)
                    for k in range(n + 1)]) / (N * T)
    out[0] = 0.5 * (out[0] + out[0].T)
    return out


# ---------------------------------------------------------------- feasibility

def block_toeplitz_min_eig(lags: np.ndarray) -> float:
    n, m = len(lags) - 1, lags.shape[1]
    T = np.zeros(((n + 1) * m, (n + 1) * m))
    for i in range(n + 1):
        for j in range(n + 1):
            T[i * m:(i + 1) * m, j * m:(j + 1) * m] = \
                lags[i - j] if i >= j else lags[j - i].T
    w = np.linalg.eigvalsh(0.5 * (T + T.T))
    return float(w[0] - PD_TOL_FACTOR * (1.0 + np.abs(w).max()))


def ar_extension(lags: np.ndarray, count: int) -> np.ndarray:
    """Lags 0..n+count of the maximum-entropy line extension of the band.

    The AR coefficients solve sum_j A_j S_{k-j} = -S_k (k = 1..n) directly
    from the dense block Toeplitz system.
    """
    n, m = len(lags) - 1, lags.shape[1]

    def R(seq, k):
        return seq[k] if k >= 0 else seq[-k].T

    out = list(lags)
    if n == 0:
        return np.array(out + [np.zeros((m, m))] * count)
    G = np.block([[R(lags, k - j) for k in range(1, n + 1)] for j in range(1, n + 1)])
    rhs = np.hstack([R(lags, k) for k in range(1, n + 1)])
    A = np.linalg.solve(G.T, -rhs.T).T.reshape(m, n, m).transpose(1, 0, 2)
    for i in range(n + 1, n + count + 1):
        out.append(-sum(A[j - 1] @ R(out, i - j) for j in range(1, n + 1)))
    return np.array(out)


def wrap_margin(ext: np.ndarray, N: int) -> float:
    """Smallest wrap eigenvalue at N minus the positivity threshold."""
    m, h = ext.shape[1], N // 2
    col = np.zeros((N, m, m))
    col[0] = ext[0]
    top = h if N % 2 else h - 1
    for k in range(1, top + 1):
        col[k] = ext[k].T
        col[N - k] = ext[k]
    if N % 2 == 0:
        col[h] = ext[h].T + ext[h]
    w = hermitian_eigs(np.fft.fft(col, axis=0)[:h + 1])
    return float(w.min() - PD_TOL_FACTOR * (1.0 + np.abs(w).max()))


def line_band(rng, m: int, n: int, lines: int) -> np.ndarray:
    """Covariance lags of a few spectral lines plus a small white floor."""
    ws = rng.uniform(0.2, np.pi - 0.2, size=lines)
    ps = rng.standard_normal((lines, m, m))
    ps = np.einsum("lij,lkj->lik", ps, ps) / m
    lags = np.array([np.mean(np.cos(ws * k)[:, None, None] * ps, axis=0)
                     for k in range(n + 1)])
    lags[0] += 1e-3 * np.eye(m)
    return lags


def probe_band(rng, m: int, n: int) -> dict:
    """Line-spectrum band whose smallest feasible N lies inside the horizon.

    That N exceeds 2n+1, so the band has no positive completion at
    N = 2n+1, where the band fixes the whole circulant.  Every wrap margin
    is kept clear of the threshold, so the library and this numpy scan
    agree on each probe.
    """
    n_max = HORIZON_FACTOR * (2 * n + 1)
    while True:
        lags = line_band(rng, m, n, lines=max(2, n))
        if block_toeplitz_min_eig(lags) <= DECISION_MARGIN:
            continue
        ext = ar_extension(lags, n_max // 2 + 1 - n)
        scale = float(np.abs(lags[0]).max())
        for N in range(2 * n + 1, n_max + 1):
            margin = wrap_margin(ext, N)
            if abs(margin) <= DECISION_MARGIN * scale:
                break
            if margin > 0:
                if N > 2 * n + 1:
                    return {"m": m, "n": n, "lags": lags, "feasible_N": N}
                break


# ---------------------------------------------------------------- workloads

# The request lists are laid out for steady order statistics.  Each run
# serves whole cycles, so every input contributes the same number of
# samples.  The heaviest inputs form one group of same-size requests,
# well apart in cost from the rest, sized so that the tail percentile
# (p99 at a few thousand samples, p90 at a few hundred) falls in the
# middle of that group's samples; the median of the multichannel,
# records and CLI lists falls on an input set apart from its neighbours.

# (m, n, N): scalar bands, n 1..8 over N 32..512 (nine models each), and
# the eight heaviest requests at N = 1024; a model needs 6 or 7 Newton
# steps, and eight of them keep the tail off any single model's count
SCALAR_GRID = [(1, n, N) for n in range(1, 9) for N in (32, 64, 128, 256, 512)] * 9 \
    + [(1, 8, 1024)] * 8
# (m, n, N): band dimension m(m+1)/2 + n m^2 from 24 to 90
MULTICHANNEL_GRID = [(3, 2, 32), (3, 3, 32), (3, 4, 32), (3, 2, 64), (3, 3, 64),
                     (4, 2, 32), (3, 6, 64),
                     (5, 2, 32),
                     (4, 4, 64), (4, 3, 128), (4, 5, 32), (5, 3, 32)] + [(5, 3, 64)] * 3
# (m, n, N, T): N*T*m from 1e5 to 6e5 at low order
RECORDS_GRID = [(1, 1, 256, 400), (1, 2, 256, 400), (1, 3, 256, 400), (2, 1, 128, 400),
                (1, 1, 512, 200), (2, 2, 128, 400), (3, 1, 128, 300),
                (2, 1, 256, 400),
                (1, 2, 1024, 500), (3, 1, 256, 400), (2, 2, 256, 500), (1, 1, 1024, 500),
                ] + [(2, 1, 512, 600)] * 3


def _extend_requests(grid, rng):
    return [dict(kind="extend", **banded_model(rng, m, n, N)) for m, n, N in grid]


def _records_requests(grid, rng):
    out = []
    for m, n, N, T in grid:
        spec = banded_model(rng, m, n, N)
        out.append(dict(kind="records", T=T, sample_seed=int(rng.integers(2**31)), **spec))
    return out


def _cli_requests(rng, tiny: bool):
    """Fifteen CLI invocations: seven light, the median one, seven heavy."""
    reqs = []
    for m, n, N in ([(1, 2, 64)] if tiny else [(1, 4, 512), (1, 2, 1024), (2, 2, 256)]):
        reqs.append(dict(kind="cli-extend", **banded_model(rng, m, n, N)))
    for m, n, N, T in ([(1, 1, 32, 20)] if tiny else
                       [(2, 1, 128, 100), (1, 2, 256, 100), (1, 1, 512, 300)]):
        spec = banded_model(rng, m, n, N)
        data = gaussian_periods(spec["sigma_col"], T, rng)
        reqs.append(dict(kind="cli-identify", T=T, data=data, **spec))
    for m, n, N, T in ([(1, 1, 32, 10)] if tiny else [(1, 2, 256, 200), (2, 2, 128, 200)]):
        reqs.append(dict(kind="cli-sample", T=T, sample_seed=int(rng.integers(2**31)),
                         **banded_model(rng, m, n, N)))
    for m, n in ([(1, 2)] if tiny else [(1, 3), (2, 4)]):
        reqs.append(dict(kind="cli-feasibility", **probe_band(rng, m, n)))
    for m, n, N in ([(1, 1, 16)] if tiny else [(1, 2, 64), (2, 2, 32)]):
        reqs.append(dict(kind="cli-verify", **banded_model(rng, m, n, N)))
    for m, n in ([(1, 2)] if tiny else [(1, 4), (1, 6), (1, 8)]):
        reqs.append(dict(kind="cli-infeasible", N=2 * n + 1, **probe_band(rng, m, n)))
    return reqs


def generate(workload: str, seed: int, tiny: bool = False) -> WorkloadInputs:
    """One cycle of request specs for a workload, a pure function of the seed.

    ``tiny`` keeps a few small inputs, for the benchmark's own tests.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "extend-scalar":
        grid = [(1, n, N) for n in (1, 3) for N in (32, 64)] if tiny else SCALAR_GRID
        reqs = _extend_requests(grid, rng)
    elif workload == "extend-multichannel":
        reqs = _extend_requests(MULTICHANNEL_GRID[:2] if tiny else MULTICHANNEL_GRID, rng)
    elif workload == "identify-records":
        grid = [(1, 1, 64, 50), (2, 1, 32, 50)] if tiny else RECORDS_GRID
        reqs = _records_requests(grid, rng)
    elif workload == "cli-mix":
        reqs = _cli_requests(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return WorkloadInputs(reqs, digest(reqs))


def digest(requests) -> str:
    """SHA-256 over every number of every request, in order."""
    h = hashlib.sha256()
    for spec in requests:
        for key in sorted(spec):
            value = spec[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(repr(value.shape).encode())
                h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()
