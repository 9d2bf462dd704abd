import numpy as np
import pytest

import circmax as cm
from conftest import random_model, random_stationary_band


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


def exact_lags(model, count):
    C = cm.covariance_of_model(model)
    return np.array([C.lag(k) for k in range(count)])


def sample_oracle(model, T, seed):
    """Reference sampler: one eigh per frequency over all N, complex FFTs."""
    psi = np.fft.fft(model.assembled().first_col, axis=0)
    roots = np.empty_like(psi)
    for l in range(model.N):
        H = 0.5 * (psi[l] + psi[l].conj().T)
        w, V = np.linalg.eigh(H)
        roots[l] = (V / np.sqrt(w)) @ V.conj().T
    Z = np.random.default_rng(seed).standard_normal((T, model.N, model.m))
    Zh = np.fft.ifft(Z, axis=1)
    return np.fft.fft(np.einsum("lij,tlj->tli", roots, Zh), axis=1).real


def dense_inverse_residual(model, C):
    """||M_N C - I||_F from the assembled dense matrices."""
    prod = model.assembled().to_dense() @ C.to_dense()
    return float(np.linalg.norm(prod - np.eye(C.m * C.N)))


class TestYuleWalker:
    def test_white_noise(self):
        lags = np.zeros((5, 2, 2))
        lags[0] = np.eye(2)
        F, stats = cm.yule_walker(lags)
        assert np.abs(F).max() == 0.0
        assert np.array_equal(stats.delta, np.eye(2))

    @pytest.mark.parametrize("seed,m,n,N", [(0, 1, 1, 8), (1, 2, 1, 10),
                                            (2, 2, 2, 12), (3, 3, 2, 14)])
    def test_recovers_model_from_exact_lags(self, seed, m, n, N):
        rng = np.random.default_rng(seed)
        model = random_model(rng, m, n, N)
        lags = exact_lags(model, 2 * n + 1)
        F, stats = cm.yule_walker(lags)
        d_inv = np.linalg.inv(stats.delta)
        assert np.abs(d_inv - model.M_blocks[0]).max() < 1e-8
        for k in range(1, n + 1):
            got_plus = d_inv @ F[n + k - 1]
            got_minus = d_inv @ F[n - k]
            assert np.abs(got_plus - model.M_blocks[k]).max() < 1e-8
            # center symmetry of the normalized coefficients
            assert np.abs(got_minus - got_plus.T).max() < 1e-8

    def test_degenerate_process(self):
        # constant process: every lag equals the variance, Gram is singular
        lags = np.ones((3, 1, 1))
        with pytest.raises(cm.DegenerateProcessError):
            cm.yule_walker(lags)

    def test_delta_shrinks_toward_singularity(self):
        # common-component covariance: S_k = eps*delta_k + 1/N
        N = 8
        deltas = []
        for eps in (1e-1, 1e-3, 1e-5):
            lags = np.full((3, 1, 1), 1.0 / N)
            lags[0, 0, 0] += eps
            _, stats = cm.yule_walker(lags)
            deltas.append(stats.delta[0, 0])
        assert deltas[0] > deltas[1] > deltas[2] > 0
        assert deltas[2] < 1e-4

    def test_gram_is_principal_submatrix_of_covariance(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 2, 1, 9)
        C = cm.covariance_of_model(model)
        lags = exact_lags(model, 3)
        sys = cm.build_yule_walker_system(lags)
        # covariance of (y(t+1), y(t-1)) at t = 1: rows/cols {2, 0} of C
        D = C.to_dense()
        m = 2
        idx = np.r_[2 * m:3 * m, 0:m]
        assert np.abs(sys.gram - D[np.ix_(idx, idx)]).max() < 1e-12
        assert np.linalg.eigvalsh(sys.gram).min() > 0


class TestModelCovariance:
    def test_identity_model(self):
        model = cm.ReciprocalModel(2, 0, 5, np.eye(2)[None])
        C = cm.covariance_of_model(model)
        assert np.abs(C.to_dense() - np.eye(10)).max() < 1e-14

    def test_scaling(self):
        model = cm.ReciprocalModel(1, 0, 4, 0.5 * np.ones((1, 1, 1)))
        C = cm.covariance_of_model(model)
        assert np.allclose(C.first_col, blocks(2, 0, 0, 0), atol=1e-14)

    def test_dense_inverse_oracle(self):
        model = cm.ReciprocalModel(1, 2, 8, blocks(1.0, 0.2, 0.05))
        C = cm.covariance_of_model(model)
        dense = np.linalg.inv(model.assembled().to_dense())
        assert np.abs(C.to_dense() - dense).max() < 1e-12
        assert np.abs(model.assembled().to_dense() @ C.to_dense() - np.eye(8)).max() < 1e-9

    def test_invalid_model_rejected(self):
        bad = cm.ReciprocalModel(1, 1, 5, blocks(1.0, 0.8))
        lo, _ = cm.spectral_bounds(bad.assembled())
        assert lo < 0
        with pytest.raises(cm.InvalidModelError):
            cm.covariance_of_model(bad)


class TestModelFromCovariance:
    def test_identity(self):
        C = cm.BlockCirculant(2, 5, np.tile(np.eye(2), (5, 1, 1)) *
                              np.array([1, 0, 0, 0, 0])[:, None, None])
        model = cm.model_from_covariance(C, 0)
        assert np.abs(model.M_blocks[0] - np.eye(2)).max() < 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 4))
        N = int(rng.integers(2 * n + 1, 25))
        model = random_model(rng, m, n, N)
        back = cm.model_from_covariance(cm.covariance_of_model(model), n)
        scale = 1.0 + np.abs(model.M_blocks).max()
        assert np.abs(back.M_blocks - model.M_blocks).max() <= 1e-9 * scale

    def test_banded_inverse_characterization(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            model = random_model(rng, 2, 2, 12)
            C = cm.covariance_of_model(model)
            assert cm.band_residual(cm.inverse(C), 2) <= 1e-10

    def test_dense_inverse_rejected(self):
        rng = np.random.default_rng(55)
        band = random_stationary_band(rng, 1, 4)
        C = cm.assemble_circulant(band, 12)
        if not cm.is_positive_definite(C):
            C = cm.BlockCirculant(1, 12, C.first_col +
                                  np.eye(1) * np.array([2.0] + [0] * 11)[:, None, None])
        # inverse genuinely spreads outside bandwidth 1
        dense_inv = np.linalg.inv(C.to_dense())
        proj = cm.project_circulant(dense_inv, 1)
        assert cm.band_residual(proj, 1) > 1e-3
        with pytest.raises(cm.NotReciprocalError) as err:
            cm.model_from_covariance(C, 1)
        assert err.value.residual > 1e-3

    def test_not_a_covariance(self):
        C = cm.BlockCirculant(1, 4, blocks(2, 1, 0, 1))
        with pytest.raises(cm.NotPositiveDefiniteError):
            cm.model_from_covariance(C, 1)


class TestVerifyModel:
    def test_identity_pair(self):
        model = cm.ReciprocalModel(1, 0, 4, np.ones((1, 1, 1)))
        C = cm.BlockCirculant(1, 4, blocks(1, 0, 0, 0))
        rep = cm.verify_model(model, C)
        assert rep.max_residual() == 0.0

    def test_valid_round_trip_pair(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 2, 1, 10)
        rep = cm.verify_model(model, cm.covariance_of_model(model))
        assert rep.max_residual() <= 1e-9

    def test_mismatched_pair(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 1, 1, 8)
        other = cm.covariance_of_model(random_model(rng, 1, 1, 8))
        rep = cm.verify_model(model, other)
        assert rep.inverse_residual > 1e-3

    @pytest.mark.parametrize("seed,m,n,N", [(0, 1, 1, 8), (1, 2, 1, 7),
                                            (2, 3, 2, 10), (3, 2, 2, 5)])
    def test_inverse_residual_matches_dense_oracle(self, seed, m, n, N):
        rng = np.random.default_rng(seed)
        model = random_model(rng, m, n, N)
        matched = cm.covariance_of_model(model)
        mismatched = cm.covariance_of_model(random_model(rng, m, n, N))
        # a generic non-symmetric block sequence: no Hermitian structure
        nonsym = cm.BlockCirculant(m, N, rng.standard_normal((N, m, m)))
        for C in (matched, mismatched, nonsym):
            want = dense_inverse_residual(model, C)
            got = cm.verify_model(model, C).inverse_residual
            # the matched residual is rounding noise: hold it to an absolute bound
            scale = 1.0 if C is matched else want
            assert abs(got - want) <= 1e-12 * scale


class TestSample:
    def test_determinism(self):
        model = cm.ReciprocalModel(1, 1, 6, blocks(1.0, 0.3))
        a = cm.sample(model, 7, seed=123)
        b = cm.sample(model, 7, seed=123)
        assert np.array_equal(a.realizations, b.realizations)
        c = cm.sample(model, 7, seed=124)
        assert not np.array_equal(a.realizations, c.realizations)

    def test_white_empirical_covariance(self):
        model = cm.ReciprocalModel(2, 0, 6, np.eye(2)[None])
        T = 40000
        data = cm.sample(model, T, seed=5)
        stats = cm.sufficient_statistics(data, 0)
        assert np.abs(stats.sigma_hat[0] - np.eye(2)).max() < 3.0 / np.sqrt(T)

    def test_sampled_covariance_matches_model(self):
        model = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        C = cm.covariance_of_model(model)
        data = cm.sample(model, 200000, seed=17)
        stats = cm.sufficient_statistics(data, 3)
        for k in range(4):
            se = 3.0 / np.sqrt(data.T * data.N)
            assert np.abs(stats.sigma_hat[k] - C.lag(k)).max() < 6 * se

    def test_orthogonality_monte_carlo(self):
        # E[y e^T] = I for e = M_N y
        model = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        T = 100000
        data = cm.sample(model, T, seed=29)
        y = data.realizations[:, :, 0]
        e = y @ model.assembled().to_dense().T
        prod = y[:, :, None] * e[:, None, :]
        G = prod.mean(axis=0)
        se = prod.std(axis=0) / np.sqrt(T)
        assert np.abs(G - np.eye(8)).max() < 6 * se.max()

    def test_covariance_convergence_rate(self):
        model = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        C = cm.covariance_of_model(model)
        true = np.array([C.lag(k)[0, 0] for k in range(3)])
        errs = []
        for T in (100, 1000, 10000, 100000):
            per_seed = []
            for s in range(5):
                data = cm.sample(model, T, seed=9000 + s)
                stats = cm.sufficient_statistics(data, 2)
                per_seed.append(np.abs(stats.sigma_hat[:, 0, 0] - true).max())
            errs.append(np.mean(per_seed))
        slope = np.polyfit(np.log([100, 1000, 10000, 100000]), np.log(errs), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_invalid_model(self):
        bad = cm.ReciprocalModel(1, 1, 5, blocks(1.0, 0.8))
        with pytest.raises(cm.InvalidModelError):
            cm.sample(bad, 3, seed=0)

    @pytest.mark.parametrize("m,n,N", [(1, 0, 1), (1, 1, 3), (1, 2, 8), (2, 0, 2),
                                       (2, 1, 7), (2, 2, 5), (3, 1, 10), (3, 3, 7)])
    def test_matches_per_frequency_oracle(self, m, n, N):
        rng = np.random.default_rng(100 * m + 10 * n + N)
        model = random_model(rng, m, n, N)
        want = sample_oracle(model, 6, seed=N)
        got = cm.sample(model, 6, seed=N).realizations
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestJson:
    def test_model_round_trip(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 1, 9)
        back = cm.ReciprocalModel.from_json_dict(model.to_json_dict())
        assert np.array_equal(back.M_blocks, model.M_blocks)
        assert (back.m, back.n, back.N) == (model.m, model.n, model.N)

    def test_dataset_round_trip(self):
        model = cm.ReciprocalModel(1, 1, 6, blocks(1.0, 0.3))
        data = cm.sample(model, 4, seed=1)
        back = cm.Dataset.from_json_dict(data.to_json_dict())
        assert np.array_equal(back.realizations, data.realizations)
