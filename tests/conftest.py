"""Shared generators and independent dense oracles for the test suite.

Oracles here deliberately avoid the library's FFT path: dense matrices
are assembled by index arithmetic and checked with numpy.linalg.
"""

import numpy as np

import circmax as cm


def random_model(rng, m, n, N, scale=0.3, floor=0.3):
    """Random valid reciprocal model with spectrum bounded below by floor."""
    blocks = scale * rng.standard_normal((n + 1, m, m))
    blocks[0] = 0.5 * (blocks[0] + blocks[0].T) + np.eye(m)
    lo, _ = cm.spectral_bounds(cm.assemble_banded(m, N, blocks))
    if lo < floor:
        blocks[0] = blocks[0] + (floor - lo) * np.eye(m)
    return cm.ReciprocalModel(m, n, N, blocks)


def random_stationary_band(rng, m, n, lines=8, jitter=1e-3):
    """Genuine stationary covariance lags from a random line spectrum.

    S_k = mean_i cos(w_i k) * P_i with P_i PSD, plus a small diagonal
    bump at lag zero, so every Toeplitz section is strictly PD.
    """
    while True:
        ws = rng.uniform(0.2, np.pi - 0.2, size=lines)
        ps = rng.standard_normal((lines, m, m))
        ps = np.einsum("lij,lkj->lik", ps, ps) / m
        sigma = np.empty((n + 1, m, m))
        for k in range(n + 1):
            sigma[k] = np.mean(np.cos(ws * k)[:, None, None] * ps, axis=0)
        sigma[0] = sigma[0] + jitter * np.eye(m)
        band = cm.CovBand(m, n, sigma)
        if cm.is_strictly_positive(band):
            return band


def dense_circulant_oracle(band, N):
    """Dense circulant completion built directly from lag semantics.

    Block (i, j) is S_k for (i - j) mod N = k <= n, S_k^T for
    (j - i) mod N = k <= n, zero otherwise.
    """
    m, n = band.m, band.n
    D = np.zeros((N * m, N * m))
    for i in range(N):
        for j in range(N):
            d = (i - j) % N
            if d <= n:
                blk = band.sigma[d]
            elif N - d <= n:
                blk = band.sigma[N - d].T
            else:
                continue
            D[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return D


def shift_matrix(m, N):
    """Dense block shift U_N with identity blocks at (i, i+1 mod N)."""
    return np.kron(np.roll(np.eye(N), 1, axis=1), np.eye(m))


def fourier_matrix(m, N):
    """Unitary block Fourier matrix V with V[k,l] = exp(-2j pi k l / N)/sqrt(N) I_m."""
    k = np.arange(N)
    V = np.exp(-2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)
    return np.kron(V, np.eye(m))


def check_infeasibility_certificate(cert, sigma, N):
    """Check an infeasibility certificate against the band lags with numpy only.

    The dual blocks B_0..B_n generate the banded circulant (B_0, B_1^T, ...,
    B_n^T, 0, ..., B_n, ..., B_1), which must be PD (one rfft and one
    eigvalsh), and must pair with every completion of the band to
    N(<B_0,S_0> + 2 sum_k <B_k,S_k>) <= 0; so no completion is PD.
    """
    S = np.asarray(sigma, dtype=float)
    n, m = S.shape[0] - 1, S.shape[1]
    assert cert["N"] == N
    B = np.reshape(cert["dual_blocks"], (n + 1, m, m))
    col = np.zeros((N, m, m))
    col[0] = B[0]
    col[1:n + 1] = B[1:].transpose(0, 2, 1)
    col[N - n:] = B[1:][::-1]
    assert np.linalg.eigvalsh(np.fft.rfft(col, axis=0)).min() > 0.0
    pairing = N * (np.sum(B[0] * S[0]) + 2.0 * np.sum(B[1:] * S[1:]))
    assert pairing <= 0.0
    assert abs(pairing - cert["pairing"]) <= 1e-12 * N * np.abs(B).sum() * np.abs(S).max()


def dense_ar_oracle(band):
    """Forward AR model (A_1..A_n, Lambda) from one dense solve of the normal equations.

    S_k + sum_j A_j S_{k-j} = 0 for k = 1..n, transposed: block (i, j) of
    the system is S_{j-i} (S_{-d} = S_d^T), the unknowns are A_{j+1}^T and
    the right-hand side is -S_{i+1}^T.  Lambda = S_0 + sum_j A_j S_j^T.
    """
    m, n = band.m, band.n
    S = np.asarray(band.sigma)
    G = np.zeros((n * m, n * m))
    rhs = np.zeros((n * m, m))
    for i in range(n):
        rhs[i * m:(i + 1) * m] = S[i + 1].T
        for j in range(n):
            d = j - i
            G[i * m:(i + 1) * m, j * m:(j + 1) * m] = S[d] if d >= 0 else S[-d].T
    X = np.linalg.solve(G, -rhs)
    A = np.array([X[j * m:(j + 1) * m].T for j in range(n)]).reshape(n, m, m)
    lam = S[0] + sum(A[j - 1] @ S[j].T for j in range(1, n + 1))
    return A, 0.5 * (lam + lam.T)


def dense_toeplitz_oracle(lags, size):
    """Dense block-Toeplitz matrix with (i, j) block S_{i-j}, S_{-k} = S_k^T."""
    lags = np.asarray(lags, dtype=float)
    m = lags.shape[1]
    T = np.zeros((size * m, size * m))
    for i in range(size):
        for j in range(size):
            blk = lags[i - j] if i >= j else lags[j - i].T
            T[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return T


def scalar_circulant_dense(lags, N):
    """Dense symmetric scalar circulant with entry (i,j) = lags[min(d, N-d)]."""
    lags = np.asarray(lags, dtype=float)
    d = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return lags[np.minimum(d, N - d)]


def bruteforce_scalar_extension(sigma, N, newton_iters=200):
    """Direct log-det maximization over the free lags of a scalar circulant.

    Independent primal oracle: dense Newton on the free-lag vector with
    positive-definiteness backtracking and grid-seeded starts.  Returns
    the maximizing free lags (indices n+1 .. N//2).
    """
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    n = len(sigma) - 1
    h = N // 2
    free = list(range(n + 1, h + 1))
    if not free:
        return np.zeros(0)
    # basis matrices: positions where lag index j appears
    d = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    lag_idx = np.minimum(d, N - d)
    basis = [(lag_idx == j).astype(float) for j in free]

    def dense(x):
        lags = np.concatenate([sigma, x])
        return lags[lag_idx]

    def feasible(x):
        return np.linalg.eigvalsh(dense(x)).min() > 1e-12

    def logdet(x):
        sign, val = np.linalg.slogdet(dense(x))
        return val if sign > 0 else -np.inf

    # grid seeding: search over the free-lag box (any PD completion keeps
    # |x_j| below the lag-0 value), refining until feasible points appear
    scale = np.abs(sigma).max()
    seeds = []
    for points in (7, 13, 21, 31, 51):
        axis = np.linspace(-0.99 * scale, 0.99 * scale, points)
        grid = np.stack(np.meshgrid(*[axis] * len(free)), axis=-1).reshape(-1, len(free))
        seeds = [x0 for x0 in grid if feasible(x0)]
        if seeds:
            break
    seeds.sort(key=logdet, reverse=True)
    seeds = seeds[:3]
    best_x, best_v = None, -np.inf
    for x0 in seeds:
        x = x0.copy()
        for _ in range(newton_iters):
            Dinv = np.linalg.inv(dense(x))
            g = np.array([np.sum(Dinv * B) for B in basis])
            H = -np.array([[np.sum((Dinv @ Bi) * (Dinv @ Bj).T)
                            for Bj in basis] for Bi in basis])
            step = np.linalg.solve(H, -g)
            t = 1.0
            f0 = logdet(x)
            while t > 1e-16:
                xt = x + t * step
                if feasible(xt) and logdet(xt) >= f0 + 1e-4 * t * (g @ step):
                    break
                t *= 0.5
            if t <= 1e-16:
                break
            x = x + t * step
            if np.linalg.norm(g) < 1e-13 * (1.0 + abs(f0)):
                break
        v = logdet(x)
        if v > best_v:
            best_x, best_v = x, v
    assert best_x is not None, "oracle found no feasible start"
    return best_x


# Loop forms of the lag-layout code, kept as oracles for the gather forms
# in the library.  Each follows the lag semantics block by block.

def legacy_to_dense(C):
    """Dense matrix with block c_k at every position (i, (i+k) mod N)."""
    m, N = C.m, C.N
    D = np.zeros((N * m, N * m))
    for k in range(N):
        blk = C.first_col[k]
        for i in range(N):
            j = (i + k) % N
            D[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return D


def legacy_is_symmetric(C, tol=1e-12):
    c = C.first_col
    scale = 1.0 + np.abs(c).max()
    defect = max(np.abs(c[k] - c[(C.N - k) % C.N].T).max() for k in range(C.N))
    return defect <= tol * scale


def legacy_band(C, n):
    """Lags S_0..S_n of a circulant: S_k = c_{(N-k) mod N}."""
    return np.array([C.first_col[(C.N - k) % C.N] for k in range(n + 1)])


def legacy_assemble_circulant(sigma, N):
    """Generating sequence (S_0, S_1^T, ..., S_n^T, 0, ..., 0, S_n, ..., S_1)."""
    n, m = len(sigma) - 1, sigma.shape[1]
    col = np.zeros((N, m, m))
    col[0] = sigma[0]
    col[1:n + 1] = sigma[1:].swapaxes(1, 2)
    col[N - n:] = sigma[:0:-1]
    return col


def legacy_wrap_sequence(m, N, lags):
    """Wrap onto Z_N; even N puts S_{N/2}^T + S_{N/2} in the centre slot."""
    h = N // 2
    col = np.zeros((N, m, m))
    col[0] = lags[0]
    top = h if N % 2 else h - 1
    for k in range(1, top + 1):
        col[k] = lags[k].T
        col[N - k] = lags[k]
    if N % 2 == 0:
        col[h] = lags[h].T + lags[h]
    return col


def legacy_model_blocks(Minv, n):
    """Symmetrized lags 0..n of an inverse covariance, as model_from_covariance reads them."""
    blocks = np.empty((n + 1, Minv.m, Minv.m))
    blocks[0] = 0.5 * (Minv.first_col[0] + Minv.first_col[0].T)
    for k in range(1, n + 1):
        blocks[k] = 0.5 * (Minv.lag(k) + Minv.first_col[k].T)
    return blocks


def legacy_dual_gradient(M, band):
    """First column of the banded circulant of (data lag k) - (lag k of M^{-1})."""
    col = cm.inverse(cm.BlockCirculant(
        M.m, M.N, legacy_assemble_circulant(np.asarray(M.M_blocks), M.N))).first_col
    lags = np.asarray(band.sigma[:M.n + 1]) - legacy_band(
        cm.BlockCirculant(M.m, M.N, col), M.n)
    return legacy_assemble_circulant(lags, M.N)


def _two_sided_lag(lags, k):
    return lags[k] if k >= 0 else lags[-k].T


def legacy_yule_walker_system(lags):
    """(gram, rhs) of the order-n two-sided normal equations, block by block."""
    n, m = (len(lags) - 1) // 2, lags.shape[1]
    offs = list(range(-n, 0)) + list(range(1, n + 1))
    gram = np.zeros((2 * n * m, 2 * n * m))
    rhs = np.zeros((2 * n * m, m))
    for i, ki in enumerate(offs):
        rhs[i * m:(i + 1) * m] = _two_sided_lag(lags, ki).T
        for j, kj in enumerate(offs):
            gram[i * m:(i + 1) * m, j * m:(j + 1) * m] = _two_sided_lag(lags, kj - ki)
    return gram, rhs


def legacy_yule_walker_delta(lags, F):
    """Unsymmetrized conjugate variance S_0 + sum_i F_{k_i} S_{-k_i}."""
    n = (len(lags) - 1) // 2
    offs = list(range(-n, 0)) + list(range(1, n + 1))
    return lags[0] + sum(F[i] @ _two_sided_lag(lags, -k) for i, k in enumerate(offs))


def legacy_project_circulant(M, m):
    """Averages of the blocks of M along each cyclic block diagonal."""
    N = M.shape[0] // m
    col = np.zeros((N, m, m))
    for k in range(N):
        acc = np.zeros((m, m))
        for i in range(N):
            j = (i + k) % N
            acc += M[i * m:(i + 1) * m, j * m:(j + 1) * m]
        col[k] = acc / N
    return col
