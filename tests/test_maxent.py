import json

import numpy as np
import pytest

import circmax as cm
import circmax.maxent as maxent
from circmax.cli import main
from circmax.maxent import _BandCoords
from conftest import (bruteforce_scalar_extension, random_model,
                      random_stationary_band, scalar_circulant_dense)


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
            assert np.abs(coords.W[a] - want).max() <= 1e-13
        rng = np.random.default_rng(m + n + N)
        x = rng.standard_normal(coords.dim)
        assert np.array_equal(coords.vec_of(coords.blocks_of(x)), x)
        B = rng.standard_normal((n + 1, m, m))
        B[0] = B[0] + B[0].T
        Mc = cm.assemble_banded(m, N, coords.blocks_of(x)).first_col
        Bc = cm.assemble_banded(m, N, B).first_col
        want = N * float(np.sum(Mc * Bc))
        assert abs(coords.pair_vec(B) @ x - want) <= 1e-12 * (1.0 + abs(want))


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

    def test_infeasible_band(self):
        with pytest.raises(cm.InfeasibleBandError):
            cm.solve(cm.CovBand(1, 1, blocks(1.0, 1.5)), 9)

    def test_iteration_limit_carries_diagnostics(self):
        band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
        with pytest.raises(cm.ConvergenceError) as err:
            cm.solve(band, 8, cm.SolverConfig(max_iter=2))
        diag = err.value.diagnostics
        assert diag.iterations == 2
        assert len(diag.objective_trace) == 3
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

    def test_config_validation(self):
        with pytest.raises(cm.DimensionError):
            cm.SolverConfig(backtrack_factor=1.5)
        with pytest.raises(cm.DimensionError):
            cm.SolverConfig(grad_tol=0.0)

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
