import numpy as np
import pytest

import circmax as cm
from circmax import blockcirc
from conftest import (dense_circulant_oracle, fourier_matrix, random_stationary_band,
                      shift_matrix)

NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


class TestAssemble:
    def test_zero_padding(self):
        C = cm.assemble_circulant(cm.CovBand(1, 0, blocks(2.0)), 3)
        assert np.array_equal(C.first_col, blocks(2, 0, 0))

    def test_definition_unrolled(self):
        C = cm.assemble_circulant(cm.CovBand(1, 1, blocks(2.0, 1.0)), 4)
        assert np.array_equal(C.first_col, blocks(2, 1, 0, 1))

    def test_collision_rejected(self):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        with pytest.raises(cm.DimensionError):
            cm.assemble_circulant(band, 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_lag_semantics(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 4)
        n = rng.integers(0, 4)
        N = int(rng.integers(2 * n + 1, 2 * n + 12))
        band = random_stationary_band(rng, int(m), int(n))
        C = cm.assemble_circulant(band, N)
        assert np.allclose(C.to_dense(), dense_circulant_oracle(band, N), atol=0)
        assert C.is_symmetric()
        # lag readout returns the band bit-for-bit
        for k in range(n + 1):
            assert np.array_equal(C.lag(k), band.sigma[k])

    def test_shift_commutation(self):
        rng = np.random.default_rng(3)
        for m, N in [(1, 5), (2, 6), (3, 4)]:
            col = rng.standard_normal((N, m, m))
            D = cm.BlockCirculant(m, N, col).to_dense()
            U = shift_matrix(m, N)
            assert np.array_equal(U.T @ D @ U, D) or np.abs(U.T @ D @ U - D).max() < 1e-15

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", [(0, 0, 0), (0, 0, 1), (2, 1, 0)])
    def test_non_finite_rejected(self, where, bad):
        col = np.tile(np.eye(2), (3, 1, 1))
        col[where] = bad
        with pytest.raises(cm.DimensionError, match="first_col has a non-finite entry"):
            cm.BlockCirculant(2, 3, col)


class TestDiagonalize:
    def test_single_block(self):
        C = cm.BlockCirculant(2, 1, np.eye(2)[None])
        S = cm.dft_block_diagonalize(C)
        assert np.allclose(S.psi[0], np.eye(2), atol=0)

    def test_delta_sequence(self):
        S = cm.dft_block_diagonalize(cm.BlockCirculant(1, 4, blocks(1, 0, 0, 0)))
        assert np.allclose(S.psi.ravel(), np.ones(4), atol=1e-15)

    def test_spectrum_matches_dense_eigendecomposition(self):
        C = cm.BlockCirculant(1, 4, blocks(2, 1, 0, 1))
        S = cm.dft_block_diagonalize(C)
        assert np.allclose(sorted(S.psi.ravel().real), [0, 2, 2, 4], atol=1e-12)
        got = np.sort(np.linalg.eigvalsh(C.to_dense()))
        assert np.allclose(got, [0, 2, 2, 4], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_fourier_similarity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 9))
        col = rng.standard_normal((N, m, m))
        C = cm.BlockCirculant(m, N, col)
        V = fourier_matrix(m, N)
        D = V.conj().T @ C.to_dense() @ V
        S = cm.dft_block_diagonalize(C)
        for l in range(N):
            blk = D[l * m:(l + 1) * m, l * m:(l + 1) * m]
            assert np.abs(blk - S.psi[l]).max() < 1e-10
            D[l * m:(l + 1) * m, l * m:(l + 1) * m] = 0.0
        assert np.abs(D).max() < 1e-10

    def test_round_trip_suite(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(120):
            m = int(rng.integers(1, 5))
            N = int(rng.integers(1, 33))
            col = rng.standard_normal((N, m, m))
            C = cm.BlockCirculant(m, N, col)
            back = cm.idft_reconstruct(cm.dft_block_diagonalize(C))
            err = np.abs(back.first_col - col).max() / (1.0 + np.abs(col).max())
            worst = max(worst, err)
        assert worst <= 1e-12


class TestReconstruct:
    def test_forward_oracle(self):
        psi = np.array([4, 2, 0, 2], dtype=complex).reshape(4, 1, 1)
        C = cm.idft_reconstruct(cm.SpectralForm(1, 4, psi))
        assert np.allclose(C.first_col, blocks(2, 1, 0, 1), atol=1e-14)

    def test_constant_spectrum(self):
        psi = 3.5 * np.ones((5, 1, 1), dtype=complex)
        C = cm.idft_reconstruct(cm.SpectralForm(1, 5, psi))
        assert np.allclose(C.first_col, blocks(3.5, 0, 0, 0, 0), atol=1e-14)

    def test_conjugate_violation(self):
        psi = np.array([1, 1j, 1, 1j], dtype=complex).reshape(4, 1, 1)
        with pytest.raises(cm.ReconstructionError):
            cm.idft_reconstruct(cm.SpectralForm(1, 4, psi))


class TestLogdet:
    def test_identity(self):
        assert cm.logdet(cm.BlockCirculant(2, 3, np.tile(np.eye(2), (3, 1, 1)) *
                                           np.array([1, 0, 0])[:, None, None])) == 0.0

    def test_scalar_diagonal(self):
        C = cm.BlockCirculant(1, 4, blocks(2, 0, 0, 0))
        assert abs(cm.logdet(C) - 4 * np.log(2)) < 1e-12

    def test_singular_frequency_rejected(self):
        with pytest.raises(cm.NotPositiveDefiniteError):
            cm.logdet(cm.BlockCirculant(1, 4, blocks(2, 1, 0, 1)))

    def test_dense_agreement_suite(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 110:
            m = int(rng.integers(1, 4))
            N = int(rng.integers(1, 22))
            col = rng.standard_normal((N, m, m)) * 0.3
            sym = np.zeros_like(col)
            for k in range(N):
                sym[k] = 0.5 * (col[k] + col[(N - k) % N].T)
                sym[(N - k) % N] = sym[k].T
            sym[0] = 0.5 * (sym[0] + sym[0].T) + 2.0 * np.eye(m)
            C = cm.BlockCirculant(m, N, sym)
            if not cm.is_positive_definite(C):
                continue
            count += 1
            sign, dense_val = np.linalg.slogdet(C.to_dense())
            assert sign > 0
            assert abs(cm.logdet(C) - dense_val) <= 1e-9 * (1.0 + abs(dense_val))


class TestInverse:
    def test_identity(self):
        C = cm.BlockCirculant(1, 3, blocks(1, 0, 0))
        assert np.allclose(cm.inverse(C).first_col, C.first_col, atol=1e-14)

    def test_diagonal(self):
        C = cm.BlockCirculant(1, 5, blocks(2, 0, 0, 0, 0))
        assert np.allclose(cm.inverse(C).first_col, blocks(0.5, 0, 0, 0, 0), atol=1e-14)

    def test_dense_oracle(self):
        C = cm.BlockCirculant(1, 4, blocks(2, 0.5, 0, 0.5))
        got = cm.inverse(C)
        assert np.abs(got.to_dense() - np.linalg.inv(C.to_dense())).max() < 1e-12
        assert np.abs(got.to_dense() @ C.to_dense() - np.eye(4)).max() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(cm.NotPositiveDefiniteError):
            cm.inverse(cm.BlockCirculant(1, 4, blocks(2, 1, 0, 1)))


def _oracle_eigs(C):
    """eigvalsh of the Hermitian part of every block of the full spectrum."""
    psi = np.fft.fft(C.first_col, axis=0)
    return np.array([np.linalg.eigvalsh(0.5 * (p + p.conj().T)) for p in psi])


def _pd_circulant(rng, m, N):
    """Random symmetric circulant shifted so that its smallest eigenvalue is 1."""
    col = rng.standard_normal((N, m, m))
    sym = 0.5 * (col + col[(-np.arange(N)) % N].swapaxes(1, 2))
    sym[0] += (1.0 - _oracle_eigs(cm.BlockCirculant(m, N, sym)).min()) * np.eye(m)
    return cm.BlockCirculant(m, N, sym)


class TestBatchedSpectrum:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 15, 16])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_per_block_oracle(self, m, N):
        rng = np.random.default_rng(100 * m + N)
        C = _pd_circulant(rng, m, N)
        w = _oracle_eigs(C)
        lo, hi = cm.spectral_bounds(C)
        assert abs(lo - w.min()) <= 1e-12 * (1 + abs(w).max())
        assert abs(hi - np.abs(w).max()) <= 1e-12 * (1 + abs(w).max())
        want = float(np.log(w).sum())
        assert abs(cm.logdet(C) - want) <= 1e-12 * (1 + abs(want))
        psi = np.fft.fft(C.first_col, axis=0)
        inv = np.fft.ifft(np.array([np.linalg.inv(p) for p in psi]), axis=0).real
        got = cm.inverse(C).first_col
        assert np.abs(got - inv).max() <= 1e-12 * (1 + np.abs(inv).max())

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (2, 0), (2, 1)])
    def test_pd_rule_fails_on_nan(self, where):
        w = np.array([[1.0, 2.0], [0.5, 3.0], [1.5, 4.0]])
        assert blockcirc._pd(w).all()
        w[where] = np.nan
        assert not blockcirc._pd(w).any()
        assert not blockcirc._pd(w[where[0]])
        with pytest.raises(cm.NotPositiveDefiniteError):
            blockcirc._require_pd(w, "nan")

    @pytest.mark.parametrize("N", [5, 6])
    def test_error_names_first_bad_frequency(self, N):
        # scalar spectrum 3, 2, -1, -1, ... (symmetric in l -> N-l): l = 2 fails first
        spec = np.array([3.0, 2.0] + [-1.0] * (N - 3) + [2.0])
        first = np.fft.ifft(spec).real
        col = np.zeros((N, 2, 2))
        col[:, 0, 0] = first
        col[0, 1, 1] = 5.0
        C = cm.BlockCirculant(2, N, col)
        assert abs(cm.spectral_bounds(C)[0] + 1.0) < 1e-12
        with pytest.raises(cm.NotPositiveDefiniteError, match="frequency 2 has eigenvalue"):
            cm.logdet(C)
        with pytest.raises(cm.NotPositiveDefiniteError, match="frequency 2 has eigenvalue"):
            cm.inverse(C)


class TestProjection:
    def test_idempotent_on_circulants(self):
        rng = np.random.default_rng(5)
        band = random_stationary_band(rng, 2, 1)
        C = cm.assemble_circulant(band, 7)
        P = cm.project_circulant(C.to_dense(), 2)
        assert np.abs(P.first_col - C.first_col).max() < 1e-14

    def test_corner_block_average(self):
        M = np.zeros((4, 4))
        M[0, 0], M[0, 1], M[1, 0], M[1, 1] = 4.0, 4.0, 4.0, 8.0
        P = cm.project_circulant(M, 1)
        assert np.allclose(P.first_col.ravel(), [3, 1, 0, 1], atol=0)

    def test_zero(self):
        P = cm.project_circulant(np.zeros((6, 6)), 2)
        assert np.abs(P.first_col).max() == 0.0

    def test_orthogonality_against_random_circulants(self):
        rng = np.random.default_rng(9)
        m, N = 2, 6
        A = rng.standard_normal((N * m, N * m))
        M = A + A.T
        P = cm.project_circulant(M, m).to_dense()
        for _ in range(20):
            col = rng.standard_normal((N, m, m))
            Cd = cm.BlockCirculant(m, N, col).to_dense()
            inner = np.sum((M - P) * Cd.T)
            assert abs(inner) < 1e-9 * (1.0 + np.abs(M).max() * np.abs(Cd).max() * N * m)

    def test_corner_projection_is_banded(self):
        rng = np.random.default_rng(13)
        m, n, N = 2, 2, 9
        lam = rng.standard_normal(((n + 1) * m, (n + 1) * m))
        lam = lam + lam.T
        M = np.zeros((N * m, N * m))
        M[:(n + 1) * m, :(n + 1) * m] = lam
        P = cm.project_circulant(M, m)
        assert cm.band_residual(P, n) == 0.0


class TestBandResidual:
    def test_examples(self):
        assert cm.band_residual(cm.BlockCirculant(1, 4, blocks(2, 1, 0, 1)), 1) == 0.0
        assert cm.band_residual(cm.BlockCirculant(1, 4, blocks(2, 1, 1, 1)), 1) > 0.0
        assert cm.band_residual(cm.BlockCirculant(1, 3, blocks(1, 0, 0)), 0) == 0.0

    def test_dimension_error(self):
        with pytest.raises(cm.DimensionError):
            cm.band_residual(cm.BlockCirculant(1, 4, blocks(1, 0, 0, 0)), 2)


class TestCovBand:
    def test_asymmetric_lag0_rejected(self):
        with pytest.raises(cm.DimensionError):
            cm.CovBand(2, 0, np.array([[[1.0, 0.5], [0.0, 1.0]]]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("where", [(0, 0, 0), (0, 0, 1), (1, 1, 0)])
    def test_non_finite_rejected(self, where, bad):
        sigma = np.array([[[2.0, 0.5], [0.5, 2.0]], [[0.3, 0.1], [0.0, 0.2]]])
        sigma[where] = bad
        with pytest.raises(cm.DimensionError, match="sigma has a non-finite entry"):
            cm.CovBand(2, 1, sigma)

    def test_toeplitz_positivity(self):
        assert cm.is_strictly_positive(cm.CovBand(1, 1, blocks(1.0, 0.5)))
        assert not cm.is_strictly_positive(cm.CovBand(1, 1, blocks(1.0, 1.0)))

    def test_toeplitz_gram_matches_oracle(self):
        rng = np.random.default_rng(2)
        band = random_stationary_band(rng, 2, 2)
        from conftest import dense_toeplitz_oracle
        T = cm.toeplitz_gram(band)
        assert np.array_equal(T, dense_toeplitz_oracle(band.sigma, 3))
        assert np.abs(T - T.T).max() == 0.0

    @pytest.mark.parametrize("m,n", [(1, 0), (1, 3), (2, 0), (2, 2), (3, 1), (3, 4)])
    def test_toeplitz_gram_matches_oracle_on_asymmetric_lags(self, m, n):
        from conftest import dense_toeplitz_oracle
        rng = np.random.default_rng(2 + 10 * m + n)
        # asymmetric lags k >= 1, so a transposed block cannot pass
        sigma = rng.standard_normal((n + 1, m, m))
        sigma[0] = sigma[0] + sigma[0].T
        band = cm.CovBand(m, n, sigma)
        for order in range(n + 1):
            T = cm.toeplitz_gram(band, order)
            assert np.array_equal(T, dense_toeplitz_oracle(sigma, order + 1))
        assert np.abs(T - T.T).max() == 0.0


class TestJson:
    def test_band_round_trip(self):
        rng = np.random.default_rng(4)
        band = random_stationary_band(rng, 2, 1)
        back = cm.CovBand.from_json_dict(band.to_json_dict())
        assert np.array_equal(back.sigma, band.sigma)

    def test_circulant_round_trip(self):
        rng = np.random.default_rng(6)
        C = cm.BlockCirculant(2, 5, rng.standard_normal((5, 2, 2)))
        back = cm.BlockCirculant.from_json_dict(C.to_json_dict())
        assert np.array_equal(back.first_col, C.first_col)
