"""Acceptance gate: eight criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; oracles are dense numpy computations
independent of the library's frequency-domain path.
"""

import time

import numpy as np
import pytest

import circmax as cm
from conftest import (bruteforce_scalar_extension, check_infeasibility_certificate,
                      random_model, random_stationary_band)


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


def _report(num, name, ok):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def _checked(num, name):
    """Context manager printing the pass/fail line for a criterion."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            _report(num, name, exc_type is None)
            return False

    return _Ctx()


DEFAULT_BAND = (1.0, 0.5, 0.2)


def test_criterion_1_scalar_order2_system_reproduction():
    with _checked(1, "order-2 scalar stationarity system at N=8"):
        t0 = time.monotonic()
        band = cm.CovBand(1, 2, blocks(*DEFAULT_BAND))
        result = cm.solve(band, 8)
        m0, m1, m2 = result.model.M_blocks.ravel()
        s0, s1, s2 = DEFAULT_BAND
        x3 = result.sigma_opt.lag(3)[0, 0]
        x4 = result.sigma_opt.lag(4)[0, 0]
        eqs = [m0 * s0 + 2 * m1 * s1 + 2 * m2 * s2 - 1.0,
               m0 * s1 + m1 * (s0 + s2) + m2 * (s1 + x3),
               m0 * s2 + m1 * (s1 + x3) + m2 * (s0 + x4),
               m0 * x3 + m1 * (s2 + x4) + m2 * (s1 + x3),
               m0 * x4 + 2 * m1 * x3 + 2 * m2 * s2]
        elapsed = time.monotonic() - t0
        assert max(abs(e) for e in eqs) <= 1e-8
        assert elapsed < 1.0


def test_criterion_2_banded_inverse_property():
    with _checked(2, "banded inverse over 200 random feasible instances"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20250809)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            N = int(rng.integers(2 * n + 1, 33))
            truth = random_model(rng, m, n, N)
            band = cm.covariance_of_model(truth).band(n)
            result = cm.solve(band, N)
            # independent dense path: invert, project, measure off-band mass
            dense_inv = np.linalg.inv(result.sigma_opt.to_dense())
            proj = cm.project_circulant(dense_inv, m)
            assert cm.band_residual(proj, n) <= 1e-9
            match = max(np.abs(result.sigma_opt.lag(k) - band.sigma[k]).max()
                        for k in range(n + 1))
            assert match <= 1e-7 * band.norm()
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0


def _scalar_instances(count=20, seed=77):
    """Scalar bands with 1..3 free lags, feasible at their N."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 3))
        N = int(rng.integers(2 * n + 2, 9))
        if not 1 <= N // 2 - n <= 3:
            continue
        band = random_stationary_band(rng, 1, n, jitter=5e-2)
        try:
            result = cm.solve(band, N)
        except cm.InfeasibleExtensionError as exc:
            check_infeasibility_certificate(exc.certificate, band.sigma, N)
            continue
        out.append((band, N, result))
    return out


def test_criterion_3_primal_bruteforce_equivalence():
    with _checked(3, "free lags match direct log-det maximization (20 scalar runs)"):
        t0 = time.monotonic()
        for band, N, result in _scalar_instances():
            free = bruteforce_scalar_extension(band.sigma.ravel(), N)
            got = np.array([result.sigma_opt.lag(j)[0, 0]
                            for j in range(band.n + 1, N // 2 + 1)])
            assert np.abs(got - free).max() <= 1e-6
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0


def test_criterion_4_entropy_optimality_probe():
    with _checked(4, "100 off-band perturbations lose; first-order identity"):
        rng = np.random.default_rng(4)
        for band, N, result in _scalar_instances():
            n = band.n
            free_lags = list(range(n + 1, N // 2 + 1))
            dense = result.sigma_opt.to_dense()
            sign, logdet_opt = np.linalg.slogdet(dense)
            assert sign > 0
            dense_inv = np.linalg.inv(dense)
            lo, _ = cm.spectral_bounds(result.sigma_opt)
            for _ in range(100):
                d = rng.standard_normal(len(free_lags))
                pert = np.zeros((N, 1, 1))
                for j, val in zip(free_lags, d):
                    pert[j, 0, 0] = val
                    pert[(N - j) % N, 0, 0] = val
                step = cm.BlockCirculant(1, N, pert)
                hi = max(abs(x) for x in (cm.spectral_bounds(step)))
                t = 0.2 * lo / hi
                trial = dense + t * step.to_dense()
                s_t, v_t = np.linalg.slogdet(trial)
                assert s_t > 0
                assert v_t < logdet_opt
                unit = step.to_dense() / np.linalg.norm(step.to_dense())
                assert abs(float(np.sum(dense_inv * unit.T))) <= 1e-9


def test_criterion_5_round_trip_model_identity():
    with _checked(5, "model -> covariance -> model identity, 100 random models"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            N = int(rng.integers(2 * n + 1, 25))
            truth = random_model(rng, m, n, N)
            back = cm.model_from_covariance(cm.covariance_of_model(truth), n)
            scale = 1.0 + np.abs(truth.M_blocks).max()
            assert np.abs(back.M_blocks - truth.M_blocks).max() <= 1e-9 * scale


def test_criterion_6_identification_consistency():
    with _checked(6, "estimation error shrinks like a square-root law"):
        t0 = time.monotonic()
        truth = cm.ReciprocalModel(1, 2, 8, blocks(1.7273623223670393,
                                                   -0.7643829703591718,
                                                   0.09255161993149166))
        sizes = [100, 1000, 10000]
        medians = []
        for T in sizes:
            errs = []
            for s in range(10):
                data = cm.sample(truth, T, seed=7000 + s)
                res = cm.identify(data, 2)
                errs.append(np.linalg.norm(res.model.M_blocks - truth.M_blocks))
            medians.append(float(np.median(errs)))
        slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
        elapsed = time.monotonic() - t0
        assert medians[0] > medians[1] > medians[2]
        assert -0.65 <= slope <= -0.35
        assert elapsed < 120.0


def test_criterion_7_feasibility_certificate():
    with _checked(7, "smallest feasible N certified spectrally (20 bands)"):
        t0 = time.monotonic()
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            band = random_stationary_band(rng, m, n, jitter=5e-2)
            cert = cm.feasibility_certificate(band, N_max=600)
            # independent dense spectral test at the returned N
            w = np.linalg.eigvalsh(cert.circulant.to_dense())
            assert w.min() > 0
            if cert.N - 1 >= 2 * n + 1:
                # the scan must have rejected N-1 for a genuine reason
                assert cert.min_eig_trace[cert.N - 1] <= 0
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0


def test_criterion_8_numerical_infrastructure():
    with _checked(8, "transform round trip, log-det, gradient suites (>=100 each)"):
        rng = np.random.default_rng(8)
        # transform round trip at 1e-12
        for _ in range(100):
            m = int(rng.integers(1, 5))
            N = int(rng.integers(1, 33))
            col = rng.standard_normal((N, m, m))
            C = cm.BlockCirculant(m, N, col)
            back = cm.idft_reconstruct(cm.dft_block_diagonalize(C))
            assert np.abs(back.first_col - col).max() <= 1e-12 * (1 + np.abs(col).max())
        # log-det against the dense assembly at 1e-9 relative
        done = 0
        while done < 100:
            m = int(rng.integers(1, 4))
            n = int(rng.integers(0, 4))
            N = int(rng.integers(2 * n + 1, 22))
            C = cm.covariance_of_model(random_model(rng, m, n, N))
            sign, want = np.linalg.slogdet(C.to_dense())
            assert sign > 0
            assert abs(cm.logdet(C) - want) <= 1e-9 * (1 + abs(want))
            done += 1
        # gradient against central differences at 1e-6
        h = 1e-5
        done = 0
        while done < 100:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(0, 3))
            N = int(rng.integers(2 * n + 1, 14))
            M = random_model(rng, m, n, N)
            band = random_stationary_band(rng, m, n)
            delta = 0.2 * rng.standard_normal((n + 1, m, m))
            delta[0] = 0.5 * (delta[0] + delta[0].T)
            up = np.asarray(M.M_blocks) + h * delta
            dn = np.asarray(M.M_blocks) - h * delta
            if min(cm.spectral_bounds(cm.assemble_banded(m, N, up))[0],
                   cm.spectral_bounds(cm.assemble_banded(m, N, dn))[0]) <= 1e-6:
                continue
            num = (cm.dual_objective(cm.ReciprocalModel(m, n, N, up), band)
                   - cm.dual_objective(cm.ReciprocalModel(m, n, N, dn), band)) / (2 * h)
            g = cm.dual_gradient(M, band)
            inner = N * float(np.trace(g.lag(0) @ delta[0]))
            for k in range(1, n + 1):
                inner += 2.0 * N * float(np.sum(g.lag(k) * delta[k]))
            assert abs(inner - num) <= 1e-6 * (1 + abs(num))
            done += 1
