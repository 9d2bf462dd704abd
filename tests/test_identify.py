import numpy as np
import pytest

import circmax as cm
from conftest import random_model


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


def naive_circular_covariance(Y, k):
    """Double summation with explicit wrap, straight off the definition."""
    T, N, m = Y.shape
    acc = np.zeros((m, m))
    for t in range(T):
        for s in range(N):
            acc += np.outer(Y[t, (s + k) % N], Y[t, s])
    return acc / (N * T)


class TestSufficientStatistics:
    def test_zero_data(self):
        data = cm.Dataset(1, 6, 3, np.zeros((3, 6, 1)))
        stats = cm.sufficient_statistics(data, 2)
        assert np.abs(stats.sigma).max() == 0.0

    def test_constant_realization(self):
        data = cm.Dataset(1, 4, 1, np.ones((1, 4, 1)))
        stats = cm.sufficient_statistics(data, 1)
        assert stats.sigma[0][0, 0] == 1.0
        assert stats.sigma[1][0, 0] == 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_naive_summation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        T, N, m = 3, 7, 2
        Y = rng.standard_normal((T, N, m))
        data = cm.Dataset(m, N, T, Y)
        stats = cm.sufficient_statistics(data, 3)
        for k in range(4):
            want = naive_circular_covariance(Y, k)
            if k == 0:
                want = 0.5 * (want + want.T)
            assert np.abs(stats.sigma[k] - want).max() < 1e-12

    def test_lag_too_large(self):
        data = cm.Dataset(1, 6, 1, np.zeros((1, 6, 1)))
        with pytest.raises(cm.DimensionError):
            cm.sufficient_statistics(data, 3)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_order(self, n):
        data = cm.Dataset(1, 8, 2, np.ones((2, 8, 1)))
        with pytest.raises(cm.DimensionError, match=f"lag order must be >= 0, got {n}"):
            cm.sufficient_statistics(data, n)
        with pytest.raises(cm.DimensionError, match=f"lag order must be >= 0, got {n}"):
            cm.identify(data, n)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2)])
    def test_overflow_names_the_realizations(self, m, n):
        rng = np.random.default_rng(3)
        data = cm.Dataset(m, 8, 4, 1e200 * rng.standard_normal((4, 8, m)))
        with pytest.raises(cm.DimensionError, match="realizations"):
            cm.sufficient_statistics(data, n)
        # the lag-1 sum split at the wrap: -inf + inf (alternating signs
        # at odd N) and two finite halves whose sum overflows
        alternating = 1e200 * (-1.0) ** np.arange(7 * m).reshape(1, 7, m)
        for Y in (alternating, np.full((1, 3, m), 8.4e153)):
            with pytest.raises(cm.DimensionError, match="realizations"):
                cm.sufficient_statistics(cm.Dataset(m, Y.shape[1], 1, Y), 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_memory_layout(self, m, n):
        # JSON input is C-ordered, sample's output realization-fastest; a
        # (m, T, N) layout and a strided view take the copying path
        rng = np.random.default_rng(10 * m + n)
        for N in (2 * n + 1, 2 * n + 4):
            T = int(rng.integers(1, 5))
            Y = rng.standard_normal((T, N, m))
            want = [naive_circular_covariance(Y, k) for k in range(n + 1)]
            want[0] = 0.5 * (want[0] + want[0].T)
            layouts = [Y, np.ascontiguousarray(Y.transpose(1, 2, 0)).transpose(2, 0, 1),
                       np.ascontiguousarray(Y.transpose(2, 0, 1)).transpose(1, 2, 0),
                       np.repeat(Y, 2, axis=1)[:, ::2]]
            for Y_laid_out in layouts:
                assert np.array_equal(Y_laid_out, Y)
                stats = cm.sufficient_statistics(cm.Dataset(m, N, T, Y_laid_out), n)
                assert np.abs(stats.sigma - want).max() <= 1e-12

    def test_circular_shift_invariance(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((4, 8, 1))
        a = cm.sufficient_statistics(cm.Dataset(1, 8, 4, Y), 2)
        b = cm.sufficient_statistics(cm.Dataset(1, 8, 4, np.roll(Y, 3, axis=1)), 2)
        assert np.abs(a.sigma - b.sigma).max() <= 1e-12


class TestLogLikelihood:
    def test_white_value(self):
        model = cm.ReciprocalModel(1, 0, 6, blocks(1.0))
        stats = cm.CovBand(1, 0, np.ones((1, 1, 1)))
        assert abs(cm.log_likelihood(model, stats) - (-6.0)) < 1e-14

    def test_matches_dense_sample_pairing(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, 1, 8)
        Y = rng.standard_normal((5, 8, 2))
        data = cm.Dataset(2, 8, 5, Y)
        stats = cm.sufficient_statistics(data, 1)
        S = np.einsum("tsi,tuj->siuj", Y, Y).reshape(16, 16) / 5
        Md = model.assembled().to_dense()
        want = np.linalg.slogdet(Md)[1] - float(np.sum(Md * S.T))
        got = cm.log_likelihood(model, stats)
        assert abs(got - want) < 1e-10 * (1 + abs(want))

    def test_equals_negated_dual_for_narrower_model(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, 1, 10)
        data = cm.Dataset(2, 10, 4, rng.standard_normal((4, 10, 2)))
        stats = cm.sufficient_statistics(data, 3)
        assert cm.log_likelihood(model, stats) == -cm.dual_objective(model, stats)
        short = cm.CovBand(2, 1, stats.sigma[:2])
        assert cm.log_likelihood(model, stats) == cm.log_likelihood(model, short)

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(4)
        stats = cm.CovBand(1, 1, blocks(1.0, 0.3))
        for _ in range(10):
            a = random_model(rng, 1, 1, 8)
            b = random_model(rng, 1, 1, 8)
            mid = cm.ReciprocalModel(1, 1, 8, 0.5 * (np.asarray(a.M_blocks) +
                                                     np.asarray(b.M_blocks)))
            La, Lb = (cm.log_likelihood(x, stats) for x in (a, b))
            Lm = cm.log_likelihood(mid, stats)
            assert Lm >= 0.5 * (La + Lb) - 1e-12

    def test_maxent_solution_maximizes(self):
        # refine a grid over scalar order-1 models and compare with the solver
        stats = cm.CovBand(1, 1, blocks(1.0, 0.35))
        N = 6
        result = cm.solve(stats, N)
        best = np.array([result.model.M_blocks[0, 0, 0] * 1.5, 0.0])
        width = np.array([3.0, 1.5])

        def L(v):
            try:
                model = cm.ReciprocalModel(1, 1, N, blocks(*v))
            except cm.CircmaxError:
                return -np.inf
            lo, _ = cm.spectral_bounds(model.assembled())
            if lo <= 1e-9:
                return -np.inf
            return cm.log_likelihood(model, stats)

        for _ in range(8):
            g0 = np.linspace(best[0] - width[0], best[0] + width[0], 21)
            g1 = np.linspace(best[1] - width[1], best[1] + width[1], 21)
            vals = np.array([[L((a, b)) for b in g1] for a in g0])
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            best = np.array([g0[i], g1[j]])
            width *= 0.12
        solver = result.model.M_blocks[[0, 1], 0, 0]
        assert np.abs(best - solver).max() <= 1e-5
        assert cm.log_likelihood(result.model, stats) >= L(best) - 1e-12


class TestIdentify:
    def test_pipeline_composition(self):
        model = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        data = cm.sample(model, 500, seed=2)
        res = cm.identify(data, 2)
        stats = cm.sufficient_statistics(data, 2)
        ext = cm.solve(stats, data.N)
        recomposed = cm.model_from_covariance(ext.sigma_opt, 2)
        assert np.abs(recomposed.M_blocks - res.model.M_blocks).max() <= 1e-9
        assert np.array_equal(ext.model.M_blocks, res.model.M_blocks)

    def test_likelihood_beats_random_models(self):
        rng = np.random.default_rng(6)
        true = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        data = cm.sample(true, 2000, seed=3)
        res = cm.identify(data, 2)
        for _ in range(50):
            other = random_model(rng, 1, 2, 8)
            assert res.log_likelihood >= cm.log_likelihood(other, res.stats)

    def test_estimate_close_at_large_T(self):
        true = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        T = 100000
        data = cm.sample(true, T, seed=11)
        res = cm.identify(data, 2)
        scale = np.abs(true.M_blocks).max()
        assert np.abs(res.model.M_blocks - true.M_blocks).max() <= 5.0 / np.sqrt(T) * scale

    def test_shift_invariance_of_identified_model(self):
        true = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        data = cm.sample(true, 300, seed=7)
        rolled = cm.Dataset(1, 8, 300, np.roll(data.realizations, 5, axis=1))
        a = cm.identify(data, 2)
        b = cm.identify(rolled, 2)
        assert np.abs(a.model.M_blocks - b.model.M_blocks).max() <= 1e-10

    def test_error_decreases_with_T(self):
        true = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
        errs = []
        for T in (100, 1000, 10000):
            per_seed = []
            for s in range(10):
                data = cm.sample(true, T, seed=7000 + s)
                res = cm.identify(data, 2)
                per_seed.append(np.linalg.norm(res.model.M_blocks - true.M_blocks))
            errs.append(float(np.median(per_seed)))
        assert errs[0] > errs[1] > errs[2]

    def test_degenerate_data(self):
        data = cm.Dataset(1, 8, 1, np.zeros((1, 8, 1)))
        with pytest.raises(cm.DegenerateDataError):
            cm.identify(data, 2)

    def test_near_tolerance_data(self):
        # every sample lag of constant data is 1, so T_1 has eigenvalues ridge
        # and 2 + ridge; the positivity rule needs ridge > 1e-10 (3 + ridge)
        data = cm.Dataset(1, 8, 1, np.ones((1, 8, 1)))
        with pytest.raises(cm.DegenerateDataError):
            cm.identify(data, 1, ridge=2.9e-10)
        # J + ridge*I completes it with smallest eigenvalue ridge, below the
        # PD rule: neither outcome can be proven
        assert np.linalg.eigvalsh(np.ones((8, 8)) + 3.1e-10 * np.eye(8)).min() > 0.0
        with pytest.raises(cm.ConvergenceError) as err:
            cm.identify(data, 1, ridge=3.1e-10)
        assert getattr(err.value, "certificate", None) is None

    @pytest.mark.parametrize("ridge", [float("nan"), -5.0, float("inf"), -float("inf")])
    def test_invalid_ridge(self, ridge):
        data = cm.Dataset(1, 8, 1, np.ones((1, 8, 1)))
        with pytest.raises(cm.DimensionError, match="ridge"):
            cm.identify(data, 1, ridge=ridge)

    def test_ridge_rescues_degenerate_data(self):
        data = cm.Dataset(1, 8, 1, np.zeros((1, 8, 1)))
        res = cm.identify(data, 1, ridge=0.5)
        assert abs(res.model.M_blocks[0, 0, 0] - 2.0) < 1e-8
        assert abs(res.model.M_blocks[1, 0, 0]) < 1e-10

    def test_extend_N_solves_on_larger_circle(self):
        true = cm.ReciprocalModel(1, 1, 6, blocks(1.0, 0.3))
        data = cm.sample(true, 400, seed=13)
        res = cm.identify(data, 1, extend_N=12)
        assert res.model.N == 12
        assert res.sigma_opt.N == 12

    def test_two_sided_lags_agree_with_maxent_route(self):
        # exact lags of a genuine order-n process: the 2n-lag linear solve
        # and the n-lag entropy route produce the same coefficients
        rng = np.random.default_rng(15)
        for m, n, N in [(1, 2, 10), (2, 1, 9)]:
            true = random_model(rng, m, n, N)
            C = cm.covariance_of_model(true)
            lags = np.array([C.lag(k) for k in range(2 * n + 1)])
            F, delta = cm.yule_walker(lags)
            d_inv = np.linalg.inv(delta)
            yw = np.concatenate([[d_inv]] + [[d_inv @ F[n + k - 1]]
                                             for k in range(1, n + 1)])
            ext = cm.solve(C.band(n), N)
            assert np.abs(yw - ext.model.M_blocks).max() <= 1e-7
