import json
import tracemalloc

import numpy as np
import pytest

import circmax as cm
import circmax.maxent as maxent
from circmax.blockcirc import _toeplitz_ar
from circmax.cli import main
from circmax.maxent import _BandCoords
from conftest import (bruteforce_scalar_extension, check_infeasibility_certificate,
                      dense_ar_oracle, random_model, random_stationary_band,
                      scalar_circulant_dense)


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


class TestBandCoords:
    @pytest.mark.parametrize("m,n,N", [(1, 0, 1), (1, 2, 5), (2, 1, 4), (2, 2, 9),
                                       (3, 1, 8), (3, 2, 5)])
    def test_against_circulant_oracle(self, m, n, N):
        coords = _BandCoords(m, n, N)
        assert coords.dim == m * (m + 1) // 2 + n * m * m
        for a in range(coords.dim):
            e = np.zeros(coords.dim)
            e[a] = 1.0
            C = cm.assemble_banded(m, N, coords.blocks_of(e))
            want = np.fft.rfft(C.first_col, axis=0)
            assert np.abs(coords.psi_of(e) - want).max() <= 1e-13
        rng = np.random.default_rng(m + n + N)
        x = rng.standard_normal(coords.dim)
        assert np.array_equal(coords.vec_of(coords.blocks_of(x)), x)
        B = rng.standard_normal((n + 1, m, m))
        B[0] = B[0] + B[0].T
        Mc = cm.assemble_banded(m, N, coords.blocks_of(x)).first_col
        Bc = cm.assemble_banded(m, N, B).first_col
        want = N * float(np.sum(Mc * Bc))
        assert abs(coords.pair_vec(B) @ x - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_hessian_against_dense_trace_oracle(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        # N = 2n+1 makes the lags +-k_a +-k_b wrap around the circle
        for N in sorted({2 * n + 1, 2 * n + 2, 2 * n + 5, 2 * n + 6}):
            coords = _BandCoords(m, n, N)
            M = random_model(rng, m, n, N)
            psi = coords.psi_of(coords.vec_of(M.M_blocks))
            H = coords.hessian(np.linalg.inv(psi))
            Minv = np.linalg.inv(M.assembled().to_dense())
            E = [cm.assemble_banded(m, N, coords.blocks_of(e)).to_dense()
                 for e in np.eye(coords.dim)]
            want = np.array([[np.trace(Minv @ Ea @ Minv @ Eb) for Eb in E] for Ea in E])
            assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max()

    def test_hessian_reuses_no_returned_array(self):
        # what hessian returns must survive the next call unchanged and equal
        # a fresh coordinate set's
        m, n, N = 3, 2, 8
        rng = np.random.default_rng(4)
        coords = _BandCoords(m, n, N)
        P1, P2 = (np.linalg.inv(coords.psi_of(coords.vec_of(M.M_blocks)))
                  for M in (random_model(rng, m, n, N), random_model(rng, m, n, N)))
        H1 = coords.hessian(P1)
        kept = H1.copy()
        H2 = coords.hessian(P2)
        assert H2 is not H1 and np.array_equal(H1, kept)
        assert np.array_equal(H2, _BandCoords(m, n, N).hessian(P2))

    def test_same_shape_shares_read_only_coordinates_not_work_arrays(self):
        m, n, N = 2, 2, 7
        a, b = _BandCoords(m, n, N), _BandCoords(m, n, N)
        for name in ("k", "i", "j", "pos", "pair_weight"):
            assert getattr(a, name) is getattr(b, name)
            with pytest.raises(ValueError):
                getattr(a, name)[0] = 1
        M = random_model(np.random.default_rng(5), m, n, N)
        P = np.linalg.inv(a.psi_of(a.vec_of(M.M_blocks)))
        assert np.array_equal(a.hessian(P), b.hessian(P))

    def test_hessian_at_dimension_limit_allocates_no_index_tables(self):
        m, n, N = 6, 55, 111
        coords = _BandCoords(m, n, N)
        dim = coords.dim
        assert dim > maxent.HESSIAN_DIM_LIMIT
        rng = np.random.default_rng(1)
        B = 0.3 * rng.standard_normal((n + 1, m, m)) * 0.5 ** np.arange(n + 1)[:, None, None]
        B[0] = 0.5 * (B[0] + B[0].T) + 2.0 * np.eye(m)
        P = np.linalg.inv(coords.psi_of(coords.vec_of(B)))
        tracemalloc.start()
        try:
            H = coords.hessian(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.shape == (dim, dim)
        # H and the gathered terms take about 3 * 8 dim^2 bytes; four dim x dim
        # int64 index tables would add 4 * 8 dim^2 more
        assert peak < 4 * 8 * dim * dim

    def test_coordinate_cache_stays_within_its_size(self):
        band = cm.CovBand(1, 1, blocks(1.0, 0.5))
        size = maxent.COORD_CACHE_SIZE
        for N in range(3, 3 + size + 10):
            cm.solve(band, N)
        info = maxent._coordinate_arrays.cache_info()
        assert info.maxsize == size and info.currsize == size

    def test_cold_and_warm_cache_solve_bit_identically(self):
        m, n, N = 2, 2, 6
        M = random_model(np.random.default_rng(6), m, n, N)
        band = cm.inverse(M.assembled()).band(n)
        maxent._coordinate_arrays.cache_clear()
        cold = cm.solve(band, N)
        warm = cm.solve(band, N)
        assert maxent._coordinate_arrays.cache_info().hits >= 1
        assert cold.diagnostics.iterations == warm.diagnostics.iterations > 0
        assert np.array_equal(cold.model.M_blocks, warm.model.M_blocks)
        assert np.array_equal(cold.sigma_opt.first_col, warm.sigma_opt.first_col)


class TestDualObjective:
    def test_identity_value(self):
        band = cm.CovBand(1, 0, blocks(1.0))
        M = cm.ReciprocalModel(1, 0, 4, blocks(1.0))
        assert abs(cm.dual_objective(M, band) - 4.0) < 1e-14

    def test_scalar_calculus_minimum(self):
        band = cm.CovBand(1, 0, blocks(1.0))
        vals = {c: cm.dual_objective(cm.ReciprocalModel(1, 0, 4, blocks(c)), band)
                for c in (0.5, 0.9, 1.0, 1.1, 2.0)}
        for c, v in vals.items():
            assert abs(v - (4 * c - 4 * np.log(c))) < 1e-12
        assert min(vals, key=vals.get) == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_trace_oracle_and_completion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 3))
        n = int(rng.integers(0, 3))
        N = int(rng.integers(2 * n + 1, 14))
        M = random_model(rng, m, n, N)
        band = random_stationary_band(rng, m, n)
        Md = M.assembled().to_dense()
        base = cm.assemble_circulant(band, N).to_dense()
        f = cm.dual_objective(M, band)
        for _ in range(3):
            # complete the band with arbitrary symmetric off-band circulant mass
            off = rng.standard_normal((N, m, m))
            for k in range(1, N):
                off[k] = 0.5 * (off[k] + off[N - k].T)
                off[N - k] = off[k].T
            off[0] = 0.0
            if n:
                off[1:n + 1] = 0.0
                off[N - n:] = 0.0
            comp = base + cm.BlockCirculant(m, N, off).to_dense()
            dense_val = float(np.sum(Md * comp.T)) - np.linalg.slogdet(Md)[1]
            assert abs(f - dense_val) < 1e-9 * (1.0 + abs(f))

    @pytest.mark.parametrize("seed", range(4))
    def test_model_narrower_than_band(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        N = int(rng.integers(2 * n + 5, 14))
        M = random_model(rng, m, n, N)
        band = random_stationary_band(rng, m, n + 2)
        Md = M.assembled().to_dense()
        comp = cm.assemble_circulant(band, N).to_dense()
        want = float(np.sum(Md * comp.T)) - np.linalg.slogdet(Md)[1]
        f = cm.dual_objective(M, band)
        assert abs(f - want) < 1e-9 * (1.0 + abs(f))
        g = cm.dual_gradient(M, band)
        inv = np.linalg.inv(Md)
        lags = [band.sigma[k] - inv[k * m:(k + 1) * m, :m] for k in range(n + 1)]
        want_g = cm.assemble_banded(m, N, np.array(lags)).first_col
        assert np.abs(g.first_col - want_g).max() <= 1e-12

    def test_rejects_indefinite(self):
        band = cm.CovBand(1, 1, blocks(1.0, 0.2))
        M = cm.ReciprocalModel(1, 1, 5, blocks(1.0, 0.8))
        with pytest.raises(cm.NotPositiveDefiniteError):
            cm.dual_objective(M, band)


class TestDualGradient:
    def test_scalar_derivative(self):
        band = cm.CovBand(1, 0, blocks(1.0))
        M = cm.ReciprocalModel(1, 0, 4, blocks(2.0))
        g = cm.dual_gradient(M, band)
        assert abs(g.first_col[0, 0, 0] - 0.5) < 1e-14
        assert np.abs(g.first_col[1:]).max() == 0.0

    def test_stationary_at_optimum(self):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        result = cm.solve(band, 8)
        g = cm.dual_gradient(result.model, band)
        assert np.abs(g.first_col).max() <= 1e-9

    def test_central_differences_suite(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        checked = 0
        while checked < 110:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(0, 3))
            N = int(rng.integers(2 * n + 1, 14))
            M = random_model(rng, m, n, N)
            band = random_stationary_band(rng, m, n)
            delta = 0.2 * rng.standard_normal((n + 1, m, m))
            delta[0] = 0.5 * (delta[0] + delta[0].T)
            up = np.asarray(M.M_blocks) + h * delta
            dn = np.asarray(M.M_blocks) - h * delta
            lo_up, _ = cm.spectral_bounds(cm.assemble_banded(m, N, up))
            lo_dn, _ = cm.spectral_bounds(cm.assemble_banded(m, N, dn))
            if min(lo_up, lo_dn) <= 1e-6:
                continue
            checked += 1
            num = (cm.dual_objective(cm.ReciprocalModel(m, n, N, up), band)
                   - cm.dual_objective(cm.ReciprocalModel(m, n, N, dn), band)) / (2 * h)
            # pairing of the gradient circulant with the direction
            g = cm.dual_gradient(M, band)
            inner = N * float(np.trace(g.lag(0) @ delta[0]))
            for k in range(1, n + 1):
                inner += 2.0 * N * float(np.sum(g.lag(k) * delta[k]))
            assert abs(inner - num) <= 1e-6 * (1.0 + abs(num))


class TestSolve:
    def test_white_extension(self):
        result = cm.solve(cm.CovBand(1, 0, blocks(1.0)), 6)
        assert np.abs(result.sigma_opt.to_dense() - np.eye(6)).max() < 1e-12
        assert abs(result.model.M_blocks[0, 0, 0] - 1.0) < 1e-12

    def test_scalar_five_equation_system(self):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        result = cm.solve(band, 8)
        m0, m1, m2 = result.model.M_blocks.ravel()
        s0, s1, s2 = 1.0, 0.5, 0.2
        x3 = result.sigma_opt.lag(3)[0, 0]
        x4 = result.sigma_opt.lag(4)[0, 0]
        eqs = [m0 * s0 + 2 * m1 * s1 + 2 * m2 * s2 - 1.0,
               m0 * s1 + m1 * (s0 + s2) + m2 * (s1 + x3),
               m0 * s2 + m1 * (s1 + x3) + m2 * (s0 + x4),
               m0 * x3 + m1 * (s2 + x4) + m2 * (s1 + x3),
               m0 * x4 + 2 * m1 * x3 + 2 * m2 * s2]
        assert max(abs(e) for e in eqs) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_primal_bruteforce_agreement(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        N = int(rng.integers(2 * n + 2, 9))
        band = random_stationary_band(rng, 1, n)
        try:
            result = cm.solve(band, N)
        except cm.InfeasibleExtensionError:
            pytest.skip("instance infeasible at this N")
        free = bruteforce_scalar_extension(band.sigma.ravel(), N)
        got = np.array([result.sigma_opt.lag(j)[0, 0]
                        for j in range(n + 1, N // 2 + 1)])
        assert np.abs(got - free).max() <= 1e-6

    def test_infeasible_at_small_N(self):
        band = cm.CovBand(1, 1, blocks(1.0, -0.6))
        with pytest.raises(cm.InfeasibleExtensionError) as err:
            cm.solve(band, 3)
        cert = err.value.certificate
        assert cert["wrap_feasible"] is False
        assert cert["smallest_feasible_N"] == 4
        check_infeasibility_certificate(cert, band.sigma, 3)

    def test_infeasible_with_exhausted_horizon(self):
        # no wrap is PD up to the default horizon 16 * (2n + 1) = 48
        band = cm.CovBand(1, 1, blocks(1.0, -0.9))
        with pytest.raises(cm.InfeasibleExtensionError) as err:
            cm.solve(band, 3)
        cert = err.value.certificate
        assert cert["smallest_feasible_N"] is None
        assert list(cert["min_eig_trace"]) == [str(N) for N in range(3, 49)]
        assert cert["wrap_min_eig"] == -0.8
        check_infeasibility_certificate(cert, band.sigma, 3)

    def test_certificates_beyond_2n_plus_1(self):
        # random bands at N > 2n+1, where a non-PD AR wrap proves nothing
        rng = np.random.default_rng(21)
        certified = []
        for _ in range(30):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            N = int(rng.integers(2 * n + 2, 2 * n + 6))
            band = random_stationary_band(rng, m, n)
            try:
                cm.solve(band, N)
            except cm.InfeasibleExtensionError as exc:
                check_infeasibility_certificate(exc.certificate, band.sigma, N)
                certified.append(m)
        assert len(certified) >= 3 and 2 in certified

    def test_infeasible_band(self):
        with pytest.raises(cm.InfeasibleBandError):
            cm.solve(cm.CovBand(1, 1, blocks(1.0, 1.5)), 9)

    def test_iteration_limit_carries_diagnostics(self, monkeypatch):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        monkeypatch.setattr(maxent, "MAX_ITER", 2)
        with pytest.raises(cm.ConvergenceError) as err:
            cm.solve(band, 8)
        diag = err.value.diagnostics
        assert diag.iterations == 2
        assert len(diag.objective_trace) == 3
        assert len(diag.decrements) == diag.iterations
        assert not diag.converged

    def test_band_dimension_limit(self, monkeypatch, tmp_path):
        band = cm.CovBand(1, 1, blocks(1.0, 0.5))  # dim = 1 + 1 = 2
        monkeypatch.setattr(maxent, "HESSIAN_DIM_LIMIT", 2)
        assert cm.solve(band, 8).diagnostics.converged
        monkeypatch.setattr(maxent, "HESSIAN_DIM_LIMIT", 1)
        with pytest.raises(cm.DimensionError):
            cm.solve(band, 8)
        path = tmp_path / "band.json"
        path.write_text(json.dumps(band.to_json_dict()))
        out = tmp_path / "out"
        assert main(["extend", "--band", str(path), "--N", "8", "--out", str(out)]) == 1
        assert not out.exists()

    def test_monotone_descent(self):
        rng = np.random.default_rng(12)
        band = random_stationary_band(rng, 2, 2)
        result = cm.solve(band, 11)
        trace = result.diagnostics.objective_trace
        # strictly decreasing wherever the change is resolvable in floats
        noise = 1e-13 * (1.0 + abs(trace[0]))
        assert all(b <= a + noise for a, b in zip(trace, trace[1:]))
        assert trace[-1] < trace[0]
        resolvable = [(a, b) for a, b in zip(trace, trace[1:]) if abs(a - b) > noise]
        assert all(b < a for a, b in resolvable)

    def test_damped_step_guarantees(self):
        # f is self-concordant: a step at decrement lam >= 1/4 lowers it by at
        # least lam - log(1 + lam) >= 1/4 - log(5/4), and full steps below 1/4
        # converge quadratically (Boyd & Vandenberghe, sec. 9.6.4)
        gamma = 0.25 - np.log(1.25)
        rng = np.random.default_rng(22)
        damped, feasible, infeasible = 0, 0, 0
        for _ in range(20):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            band = random_stationary_band(rng, m, n)
            # below the AR wrap's first PD circle, solves may be infeasible
            for N in range(2 * n + 1, cm.feasibility_certificate(band).N + 3):
                try:
                    diag = cm.solve(band, N).diagnostics
                except cm.InfeasibleExtensionError as exc:
                    diag = exc.diagnostics
                trace, lams = diag.objective_trace, diag.decrements
                assert len(lams) == diag.iterations == len(trace) - 1
                if diag.converged:
                    feasible += 1
                    assert diag.iterations <= (trace[0] - trace[-1]) / gamma + 6
                else:
                    infeasible += 1
                for f0, f1, lam in zip(trace, trace[1:], lams):
                    if lam >= 0.25:
                        damped += 1
                        assert f0 - f1 >= lam - np.log1p(lam) - 1e-12 * (1 + abs(f1))
        assert damped > 400 and feasible > 150 and infeasible > 20

    @pytest.mark.parametrize("b0,lam,t", [(2.0, 4.0, 0.2), (1.125, 0.5, 2 / 3),
                                          (1.05, 0.2, 1.0)])
    def test_step_rule_in_closed_form(self, b0, lam, t):
        # white band S_0 = 1 from M = b0 I: f(b) = N (b - log b), so the Newton
        # step is b0 - b0^2 and lam = sqrt(N) |b0 - 1|; t = 1 only below 1/4
        N = 16
        init = cm.ReciprocalModel(1, 0, N, blocks(b0))
        diag = cm.solve(cm.CovBand(1, 0, blocks(1.0)), N, init=init).diagnostics
        b1 = b0 + t * (b0 - b0 ** 2)
        assert abs(diag.decrements[0] - lam) <= 1e-12 * lam
        assert abs(diag.objective_trace[1] - N * (b1 - np.log(b1))) <= 1e-12 * N

    def test_uniqueness_from_different_starts(self):
        rng = np.random.default_rng(14)
        band = random_stationary_band(rng, 2, 1)
        r1 = cm.solve(band, 9)
        init = random_model(rng, 2, 1, 9)
        r2 = cm.solve(band, 9, init=init)
        assert np.abs(r1.sigma_opt.first_col - r2.sigma_opt.first_col).max() <= 1e-6

    def test_scale_equivariance(self):
        rng = np.random.default_rng(15)
        band = random_stationary_band(rng, 2, 1)
        r1 = cm.solve(band, 8)
        c = 3.7
        r2 = cm.solve(band.scaled(c), 8)
        scale = 1.0 + np.abs(r1.sigma_opt.first_col).max() * c
        assert np.abs(r2.sigma_opt.first_col - c * r1.sigma_opt.first_col).max() <= 1e-9 * scale
        assert np.abs(r2.model.M_blocks - r1.model.M_blocks / c).max() <= 1e-9

    def test_band_match_and_banded_inverse(self):
        rng = np.random.default_rng(16)
        band = random_stationary_band(rng, 3, 2)
        result = cm.solve(band, 13)
        for k in range(3):
            rel = np.abs(result.sigma_opt.lag(k) - band.sigma[k]).max() / band.norm()
            assert rel <= 1e-7
        dense_inv = np.linalg.inv(result.sigma_opt.to_dense())
        proj = cm.project_circulant(dense_inv, 3)
        assert cm.band_residual(proj, 2) <= 1e-9

    def test_even_circle_size(self):
        rng = np.random.default_rng(17)
        band = random_stationary_band(rng, 1, 2)
        result = cm.solve(band, 10)
        center = result.sigma_opt.first_col[5]
        assert np.abs(center - center.T).max() == 0.0
        assert result.diagnostics.converged


def var1_band(A, n):
    """Exact lags 0..n of the VAR(1) process y(t) = A y(t-1) + e(t), E e e^T = I."""
    m = len(A)
    S0 = np.linalg.solve(np.eye(m * m) - np.kron(A, A), np.eye(m).ravel()).reshape(m, m)
    sigma = [0.5 * (S0 + S0.T)]
    for _ in range(n):
        sigma.append(A @ sigma[-1])
    return cm.CovBand(m, n, np.array(sigma))


class TestStart:
    """Newton starts at the band's order-n AR model A(z)^* Lambda^{-1} A(z)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_start_matches_levinson_oracle(self, m, n):
        # the oracle solves the block normal equations that Levinson solves,
        # with one dense solve
        rng = np.random.default_rng(20 + 10 * m + n)
        # a banded model's lags are not symmetric, so a transposed product or
        # the first block column of T_n^{-1} gives other blocks
        M = random_model(rng, m, n, 64)
        band = cm.inverse(M.assembled()).band(n)
        ar_coeffs, innovation = dense_ar_oracle(band)
        A = np.concatenate([np.eye(m)[None], ar_coeffs])
        L_inv = np.linalg.inv(innovation)
        want = np.array([sum(A[j].T @ L_inv @ A[j + k] for j in range(n + 1 - k))
                         for k in range(n + 1)])
        got = maxent._ar_precision_blocks(*_toeplitz_ar(band), n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("N,iterations", [(32, 1), (256, 0)])
    def test_iteration_count_pins_the_start(self, N, iterations):
        # the band of a banded model differs from its AR model's only by
        # aliasing, which decays with N; a wrong start takes 6-7 steps here
        M = random_model(np.random.default_rng(1), 3, 2, 32)
        M = cm.ReciprocalModel(3, 2, N, M.M_blocks)
        band = cm.inverse(M.assembled()).band(2)
        result = cm.solve(band, N)
        assert result.diagnostics.iterations == iterations
        assert np.abs(result.model.M_blocks - M.M_blocks).max() <= 1e-9

    def test_zero_step_solve_builds_no_hessian(self):
        m, n, N = 6, 27, 256
        rng = np.random.default_rng(0)
        B = 0.3 * rng.standard_normal((n + 1, m, m)) * 0.5 ** np.arange(n + 1)[:, None, None]
        B[0] = 0.5 * (B[0] + B[0].T) + 2.0 * np.eye(m)
        M = cm.ReciprocalModel(m, n, N, B)
        band = cm.inverse(M.assembled()).band(n)
        dim = maxent._band_dim(m, n)
        assert dim > 900
        tracemalloc.start()
        try:
            result = cm.solve(band, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics.iterations == 0
        # one Hessian call peaks at about 3 * 8 * dim^2 bytes; a 0-step solve
        # allocates no dim x dim array at all
        assert peak < 8 * dim * dim

    @pytest.mark.parametrize("N", [4, 32, 128])
    @pytest.mark.parametrize("rho", [1 - 1e-5, -(1 - 1e-6)])
    def test_strongly_correlated_scalar_band_converges(self, rho, N):
        # cond(T_n) ~ 1e6, so the AR precision's sampled spectrum spans more
        # than the PD guard allows; the start must still be usable
        band = cm.CovBand(1, 1, blocks(1.0, rho))
        result = cm.solve(band, N)
        assert result.diagnostics.converged
        assert np.abs(result.sigma_opt.lag(1) - rho).max() <= 1e-8

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_near_unit_root_var_band_converges(self, m, n):
        # optimum near the PD guard, where the cancelling terms of the
        # objective round coarsely: the damped steps must still get there
        c, s = np.cos(0.3), np.sin(0.3)
        Q = np.eye(m)
        Q[:2, :2] = [[c, -s], [s, c]]
        A = Q @ np.diag([1.0, 0.5, -0.3][:m]) @ Q.T
        A[0, -1] += 0.2
        A *= (1 - 1e-6) / np.abs(np.linalg.eigvals(A)).max()
        band = var1_band(A, n)
        for N in (16, 32, 128):
            result = cm.solve(band, N)
            for k in range(n + 1):
                err = np.abs(result.sigma_opt.lag(k) - band.sigma[k]).max()
                assert err <= 1e-8 * np.abs(band.sigma[0]).max()

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_near_tolerance_bands(self, rho):
        # T_1 has eigenvalues 1 -+ |r|; the positivity rule needs 1 - |r| > 3e-10
        outside = cm.CovBand(1, 1, blocks(1.0, rho * (1 - 2.9e-10)))
        assert not cm.is_strictly_positive(outside)
        with pytest.raises(cm.InfeasibleBandError):
            cm.solve(outside, 8)
        # T_n is a principal block of every wrap, so no horizon can help
        with pytest.raises(cm.InfeasibleBandError):
            cm.block_levinson(outside)
        with pytest.raises(cm.InfeasibleBandError):
            cm.feasibility_certificate(outside)
        inside = cm.CovBand(1, 1, blocks(1.0, rho * (1 - 3.1e-10)))
        assert cm.is_strictly_positive(inside)
        # (1-eps) v v^T + eps I, v_t = rho^t, completes it with smallest
        # eigenvalue eps, below the PD rule: neither outcome can be proven
        eps, v = 3.1e-10, rho ** np.arange(8)
        C = (1 - eps) * np.outer(v, v) + eps * np.eye(8)
        assert abs(C[0, 0] - 1.0) <= 1e-15 and C[1, 0] == inside.sigma[1, 0, 0]
        assert np.linalg.eigvalsh(C).min() > 0.0
        with pytest.raises(cm.ConvergenceError) as err:
            cm.solve(inside, 8)
        assert getattr(err.value, "certificate", None) is None

    def test_near_threshold_decisions_agree(self, monkeypatch):
        # lambda_min(T_n) placed within 3 PD tolerances of the threshold; with
        # no Newton steps, solve stops right after its T_n gate
        monkeypatch.setattr(maxent, "MAX_ITER", 0)
        rng = np.random.default_rng(5)
        decisions = []
        for _ in range(200):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            base = random_stationary_band(rng, m, n)
            w = np.linalg.eigvalsh(cm.toeplitz_gram(base))
            sigma = np.array(base.sigma)
            tol = 1e-10 * (1.0 + np.abs(w).max())
            sigma[0] += (rng.uniform(-3.0, 3.0) * tol - w[0]) * np.eye(m)
            band = cm.CovBand(m, n, sigma)
            pd = cm.is_strictly_positive(band)
            with pytest.raises(cm.CircmaxError) as err:
                cm.solve(band, 2 * n + 1)
            assert isinstance(err.value, cm.InfeasibleBandError) == (not pd)
            try:
                cm.block_levinson(band)
                assert pd
            except cm.InfeasibleBandError:
                assert not pd
            decisions.append(pd)
        assert 0 < sum(decisions) < len(decisions)


class TestEntropy:
    def test_identity(self):
        C = cm.BlockCirculant(2, 3, np.tile(np.eye(2), (3, 1, 1)) *
                              np.array([1, 0, 0])[:, None, None])
        expect = 3.0 * (1 + np.log(2 * np.pi))
        assert abs(cm.entropy(C) - expect) < 1e-12

    def test_scaled_identity(self):
        C = cm.BlockCirculant(1, 2, blocks(4.0, 0.0))
        expect = np.log(4.0) + (1 + np.log(2 * np.pi))
        assert abs(cm.entropy(C) - expect) < 1e-12

    def test_solution_beats_perturbed_completions(self):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        result = cm.solve(band, 8)
        H_opt = cm.entropy(result.sigma_opt)
        Sinv = np.linalg.inv(result.sigma_opt.to_dense())
        rng = np.random.default_rng(99)
        beaten = 0
        for _ in range(100):
            d = rng.standard_normal(2)
            pert = np.zeros((8, 1, 1))
            pert[3, 0, 0] = pert[5, 0, 0] = d[0]
            pert[4, 0, 0] = d[1]
            step = cm.BlockCirculant(1, 8, pert)
            lo, _ = cm.spectral_bounds(result.sigma_opt)
            t = 0.25 * lo / (np.abs(d).max() * 8)
            trial = cm.BlockCirculant(1, 8, result.sigma_opt.first_col + t * pert)
            if not cm.is_positive_definite(trial):
                continue
            beaten += 1
            assert cm.entropy(trial) < H_opt
            # exact first-order identity: banded inverse kills off-band steps
            inner = float(np.sum(Sinv * step.to_dense().T)) * t
            assert abs(inner) <= 1e-9
        assert beaten >= 90
