"""The gather forms of the lag layout against their loop forms in conftest.

Bitwise means equal bytes, so signed zeros count too.  The two
reductions (project_circulant, the Yule-Walker delta) may sum in another
order and are held to 1e-15 relative.
"""

import numpy as np
import pytest

import circmax as cm
from conftest import (legacy_assemble_circulant, legacy_band, legacy_dual_gradient,
                      legacy_is_symmetric, legacy_model_blocks,
                      legacy_project_circulant, legacy_to_dense,
                      legacy_wrap_sequence, legacy_yule_walker_delta,
                      legacy_yule_walker_system, random_model,
                      random_stationary_band)

MS = (1, 2, 3)
# odd and even N, N = 2n+1 (no free lag) and N = 2n+2 (one even-N centre lag)
SHAPES = [(n, N) for n in range(5) for N in sorted({2 * n + 1, 2 * n + 2, 2 * n + 5, 16, 17})]


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_close(a, b, rel=1e-15):
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


def random_sigma(rng, m, n):
    sigma = rng.standard_normal((n + 1, m, m))
    sigma[0] = sigma[0] + sigma[0].T
    return sigma


@pytest.mark.parametrize("m", MS)
def test_assemble_circulant_matches_loop(m):
    rng = np.random.default_rng(m)
    for n, N in SHAPES:
        sigma = random_sigma(rng, m, n)
        got = cm.assemble_circulant(cm.CovBand(m, n, sigma), N).first_col
        assert_bitwise(got, legacy_assemble_circulant(sigma, N))


@pytest.mark.parametrize("m", MS)
def test_wrap_sequence_matches_loop(m):
    rng = np.random.default_rng(10 + m)
    for N in range(1, 40):
        lags = rng.standard_normal((N // 2 + 2, m, m))
        lags[1, 0, 0] = -0.0  # an AR extension of a white band yields -0.0 lags
        got = cm.wrap_sequence(m, N, lags).first_col
        assert_bitwise(got, legacy_wrap_sequence(m, N, lags))


def test_wrap_sequence_even_centre_holds_both_copies():
    lags = np.arange(1.0, 13.0).reshape(3, 2, 2)
    col = cm.wrap_sequence(2, 4, lags).first_col
    np.testing.assert_array_equal(col[2], lags[2] + lags[2].T)
    np.testing.assert_array_equal(col[1], lags[1].T)
    np.testing.assert_array_equal(col[3], lags[1])


@pytest.mark.parametrize("m", MS)
def test_to_dense_is_symmetric_and_band_match_loops(m):
    rng = np.random.default_rng(20 + m)
    for N in range(1, 18):
        col = rng.standard_normal((N, m, m))
        col[0] = col[0] + col[0].T  # band() reads c_0 as a symmetric lag 0
        C = cm.BlockCirculant(m, N, col)
        assert_bitwise(C.to_dense(), legacy_to_dense(C))
        assert C.is_symmetric() == legacy_is_symmetric(C)
        for n in range((N - 1) // 2 + 1):
            assert_bitwise(C.band(n).sigma, legacy_band(C, n))
    for n, N in SHAPES:
        S = cm.assemble_circulant(cm.CovBand(m, n, random_sigma(rng, m, n)), N)
        assert S.is_symmetric() and legacy_is_symmetric(S)
        assert_bitwise(S.to_dense(), legacy_to_dense(S))


@pytest.mark.parametrize("m", MS)
def test_project_circulant_matches_loop(m):
    rng = np.random.default_rng(30 + m)
    for N in range(1, 18):
        M = rng.standard_normal((N * m, N * m))
        assert_close(cm.project_circulant(M, m).first_col, legacy_project_circulant(M, m))


@pytest.mark.parametrize("m", MS)
def test_model_from_covariance_matches_loop(m):
    rng = np.random.default_rng(40 + m)
    for n, N in SHAPES:
        if 2 * n >= N:
            continue
        C = cm.covariance_of_model(random_model(rng, m, n, N))
        got = cm.model_from_covariance(C, n).M_blocks
        assert_bitwise(got, legacy_model_blocks(cm.inverse(C), n))


@pytest.mark.parametrize("m", MS)
def test_dual_gradient_matches_loop(m):
    rng = np.random.default_rng(50 + m)
    for n, N in SHAPES:
        M = random_model(rng, m, n, N)
        band = random_stationary_band(rng, m, n + 1)
        got = cm.dual_gradient(M, band).first_col
        assert_bitwise(got, legacy_dual_gradient(M, band))


@pytest.mark.parametrize("m", MS)
def test_yule_walker_matches_loop(m):
    rng = np.random.default_rng(60 + m)
    for n in range(1, 4):
        lags = np.asarray(random_stationary_band(rng, m, 2 * n).sigma)
        got_gram, got_rhs = cm.build_yule_walker_system(lags)
        gram, rhs = legacy_yule_walker_system(lags)
        assert_bitwise(got_gram, gram)
        assert_bitwise(got_rhs, rhs)
        F, got_delta = cm.yule_walker(lags)
        X = np.linalg.solve(gram, -rhs)
        assert_bitwise(F, np.array([X[i * m:(i + 1) * m].T for i in range(2 * n)]))
        delta = legacy_yule_walker_delta(lags, F)
        assert_close(got_delta, 0.5 * (delta + delta.T))
