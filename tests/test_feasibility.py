import tracemalloc

import numpy as np
import pytest

import circmax as cm
from circmax import feasibility
from conftest import dense_ar_oracle, dense_toeplitz_oracle, random_stationary_band


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


def normal_equation_residual(A, band):
    """Max residual of S_k + sum_j A_j S_{k-j} = 0 over k = 1..n."""
    n = band.n
    lags = band.sigma

    def R(k):
        return lags[k] if k >= 0 else lags[-k].T

    worst = 0.0
    for k in range(1, n + 1):
        r = R(k) + sum(A[j - 1] @ R(k - j) for j in range(1, n + 1))
        worst = max(worst, np.abs(r).max())
    return worst


class TestBlockLevinson:
    def test_order_zero(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        A, lam = cm.block_levinson(cm.CovBand(2, 0, S[None]))
        assert A.shape == (0, 2, 2)
        assert np.array_equal(lam, S)

    def test_scalar_closed_form(self):
        A, lam = cm.block_levinson(cm.CovBand(1, 1, blocks(1.0, 0.5)))
        assert abs(A[0, 0, 0] + 0.5) < 1e-14
        assert abs(lam[0, 0] - 0.75) < 1e-14

    @pytest.mark.parametrize("n", range(6))
    def test_matches_dense_normal_equations(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 2, 3):
            band = random_stationary_band(rng, m, n)
            A, lam = cm.block_levinson(band)
            dense_A, dense_lam = dense_ar_oracle(band)
            assert A.shape == (n, m, m)
            np.testing.assert_allclose(A, dense_A, rtol=0, atol=1e-10)
            np.testing.assert_allclose(lam, dense_lam, rtol=0, atol=1e-10 * band.norm())
            assert normal_equation_residual(A, band) <= 1e-8 * band.norm()
            assert np.linalg.eigvalsh(lam).min() > 0

    def test_infeasible_band(self):
        with pytest.raises(cm.InfeasibleBandError):
            cm.block_levinson(cm.CovBand(1, 1, blocks(1.0, 1.0)))
        with pytest.raises(cm.InfeasibleBandError):
            cm.block_levinson(cm.CovBand(1, 0, blocks(-1.0)))


class TestArExtend:
    def test_scalar_geometric_decay(self):
        band = cm.CovBand(1, 1, blocks(1.0, 0.5))
        ext = cm.ar_extend(band, 2)
        assert np.allclose(ext.ravel(), [0.25, 0.125], atol=1e-14)

    def test_white_sequence(self):
        band = cm.CovBand(2, 0, np.eye(2)[None])
        ext = cm.ar_extend(band, 5)
        assert np.abs(ext).max() == 0.0

    def test_extended_toeplitz_stays_pd(self):
        rng = np.random.default_rng(21)
        band = random_stationary_band(rng, 2, 2)
        count = 8
        ext = cm.ar_extend(band, count)
        lags = np.concatenate([band.sigma, ext])
        for k in range(band.n + 1, band.n + count + 2):
            T = dense_toeplitz_oracle(lags[:k], k)
            assert np.linalg.eigvalsh(T).min() > 0

    def test_whitening_of_extended_lags(self):
        rng = np.random.default_rng(22)
        for m, n in [(1, 2), (2, 1), (3, 3)]:
            band = random_stationary_band(rng, m, n)
            A, _ = cm.block_levinson(band)
            ext = cm.ar_extend(band, 10)
            lags = list(band.sigma) + list(ext)

            def R(k):
                return lags[k] if k >= 0 else lags[-k].T

            for i in range(n + 1, n + 11):
                r = R(i) + sum(A[j - 1] @ R(i - j) for j in range(1, n + 1))
                assert np.abs(r).max() <= 1e-10 * (1.0 + band.norm())

    def test_monotone_toeplitz_positivity_spot_check(self):
        rng = np.random.default_rng(23)
        for m in (1, 2, 3):
            band = random_stationary_band(rng, m, 2)
            ext = cm.ar_extend(band, 18)
            lags = np.concatenate([band.sigma, ext])
            T = dense_toeplitz_oracle(lags, 21)
            assert np.linalg.eigvalsh(T).min() > 0

    def test_longer_extension_extends_shorter_bitwise(self):
        band = random_stationary_band(np.random.default_rng(24), 2, 3)
        long = cm.ar_extend(band, 12)
        for count in (0, 1, 5):
            assert np.array_equal(cm.ar_extend(band, count), long[:count])

    def test_bad_inputs(self):
        band = cm.CovBand(1, 1, blocks(1.0, 0.5))
        assert cm.ar_extend(band, 0).shape == (0, 1, 1)
        with pytest.raises(cm.DimensionError, match="count must be non-negative"):
            cm.ar_extend(band, -1)
        with pytest.raises(cm.InfeasibleBandError):
            cm.ar_extend(cm.CovBand(1, 1, blocks(1.0, 1.0)), 3)


class TestFeasibleN:
    def test_white_band(self):
        assert cm.feasibility_certificate(cm.CovBand(1, 1, blocks(1.0, 0.0))).N == 3

    @pytest.mark.parametrize("rho", [0.99, -0.6, -0.8, -0.9])
    def test_scan_matches_dense_oracle(self, rho):
        band = cm.CovBand(1, 1, blocks(1.0, rho))
        cert = cm.feasibility_certificate(band, N_max=200)
        # independent dense scan over the same wraps
        lags = np.concatenate([band.sigma, cm.ar_extend(band, 101)])
        smallest = None
        for N in range(3, 201):
            wrap = cm.wrap_sequence(1, N, lags)
            if np.linalg.eigvalsh(wrap.to_dense()).min() > 0:
                smallest = N
                break
        assert cert.N == smallest
        assert np.linalg.eigvalsh(cert.circulant.to_dense()).min() > 0
        # every scanned N below the answer failed the spectral test
        for N, lo in cert.min_eig_trace.items():
            if N < cert.N:
                assert lo <= 0 or not np.isfinite(lo)

    def test_wrap_is_the_wrapped_ar_extension_bitwise(self):
        rng = np.random.default_rng(32)
        for m, n in [(1, 0), (1, 3), (2, 2)]:
            band = random_stationary_band(rng, m, n)
            cert = cm.feasibility_certificate(band)
            lags = np.concatenate([band.sigma, cm.ar_extend(band, cert.N // 2)])
            want = cm.wrap_sequence(m, cert.N, lags).first_col
            assert np.array_equal(cert.circulant.first_col, want)

    def test_scan_cost_follows_the_answer_not_the_horizon(self):
        band = cm.CovBand(1, 1, [[[1]], [[0]]])
        cm.feasibility_certificate(band, N_max=3)  # one-time numpy setup is not the scan's
        tracemalloc.start()
        try:
            cert = cm.feasibility_certificate(band, N_max=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.N == 3
        assert peak < 64 * 1024

    def test_wrap_band_is_bit_exact(self):
        rng = np.random.default_rng(31)
        band = random_stationary_band(rng, 2, 2)
        cert = cm.feasibility_certificate(band)
        got = cert.circulant.band(band.n)
        for k in range(band.n + 1):
            assert np.array_equal(got.sigma[k], band.sigma[k])

    def test_infeasible_band(self):
        with pytest.raises(cm.InfeasibleBandError):
            cm.feasibility_certificate(cm.CovBand(1, 1, blocks(1.0, 2.0)))

    def test_horizon_exhausted_carries_trace(self):
        band = cm.CovBand(1, 1, blocks(1.0, -0.6))
        with pytest.raises(cm.HorizonExhaustedError) as err:
            cm.feasibility_certificate(band, N_max=3)
        assert set(err.value.min_eig_trace) == {3}
        assert err.value.min_eig_trace[3] < 0

    def test_even_center_slot(self):
        # even-size wraps double the center lag symmetrically
        band = cm.CovBand(1, 1, blocks(1.0, 0.3))
        lags = np.concatenate([band.sigma, cm.ar_extend(band, 3)])
        wrap = cm.wrap_sequence(1, 4, lags)
        assert wrap.first_col[2, 0, 0] == 2 * lags[2, 0, 0]
        assert wrap.is_symmetric()

    @staticmethod
    def _count_probes(monkeypatch):
        calls = []
        probe = feasibility.spectral_bounds

        def counting(C):
            calls.append(C.N)
            return probe(C)

        monkeypatch.setattr(feasibility, "spectral_bounds", counting)
        return calls

    @pytest.mark.parametrize("rho", [0.0, -0.6, -0.8])
    def test_scan_stops_at_first_feasible_wrap(self, monkeypatch, rho):
        calls = self._count_probes(monkeypatch)
        band = cm.CovBand(1, 1, blocks(1.0, rho))
        cert = cm.feasibility_certificate(band)
        assert len(calls) == len(cert.min_eig_trace) == cert.N - 2 * band.n
        assert calls == list(cert.min_eig_trace)

    def test_scan_stops_early_multichannel(self, monkeypatch):
        calls = self._count_probes(monkeypatch)
        band = random_stationary_band(np.random.default_rng(31), 2, 2)
        cert = cm.feasibility_certificate(band)
        assert len(calls) == len(cert.min_eig_trace) == cert.N - 2 * band.n

    def test_exhausted_scan_probes_each_N_once(self, monkeypatch):
        calls = self._count_probes(monkeypatch)
        band = cm.CovBand(1, 1, blocks(1.0, -0.9))
        with pytest.raises(cm.HorizonExhaustedError) as err:
            cm.feasibility_certificate(band, N_max=48)
        trace = err.value.min_eig_trace
        assert len(calls) == len(trace) == 48 - 2 * band.n
        assert calls == list(trace)

    def test_repeated_scans_agree(self):
        band = cm.CovBand(1, 1, blocks(1.0, -0.8))
        first = cm.feasibility_certificate(band)
        second = cm.feasibility_certificate(band)
        assert second.N == first.N
        assert second.min_eig_trace == first.min_eig_trace
