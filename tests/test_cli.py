import json

import numpy as np
import pytest

import circmax as cm
from circmax import _jsonio
from circmax.cli import main
from conftest import check_infeasibility_certificate


def blocks(*vals):
    a = np.asarray(vals, dtype=float)
    return a.reshape(len(vals), 1, 1)


@pytest.fixture
def band_file(tmp_path):
    band = cm.CovBand(1, 2, blocks(1.0, 0.5, 0.2))
    path = tmp_path / "band.json"
    _jsonio.dump(band.to_json_dict(), path)
    return path


@pytest.fixture
def model_file(tmp_path):
    model = cm.ReciprocalModel(1, 2, 8, blocks(1.7, -0.75, 0.1))
    path = tmp_path / "model.json"
    _jsonio.dump(model.to_json_dict(), path)
    return path


class TestExtend:
    def test_success_writes_three_files(self, tmp_path, band_file):
        out = tmp_path / "out"
        code = main(["extend", "--band", str(band_file), "--N", "8",
                     "--out", str(out)])
        assert code == 0
        sigma = cm.BlockCirculant.from_json_dict(_jsonio.load(out / "sigma_opt.json"))
        model = cm.ReciprocalModel.from_json_dict(_jsonio.load(out / "model.json"))
        diag = _jsonio.load(out / "diagnostics.json")
        assert list(diag) == ["iterations", "objective_trace", "grad_norm",
                              "band_match", "converged", "decrements"]
        assert diag["converged"] is True
        assert len(diag["decrements"]) == diag["iterations"] > 0
        m0, m1, m2 = model.M_blocks.ravel()
        x3, x4 = sigma.lag(3)[0, 0], sigma.lag(4)[0, 0]
        s0, s1, s2 = 1.0, 0.5, 0.2
        eqs = [m0 * s0 + 2 * m1 * s1 + 2 * m2 * s2 - 1.0,
               m0 * s1 + m1 * (s0 + s2) + m2 * (s1 + x3),
               m0 * s2 + m1 * (s1 + x3) + m2 * (s0 + x4),
               m0 * x3 + m1 * (s2 + x4) + m2 * (s1 + x3),
               m0 * x4 + 2 * m1 * x3 + 2 * m2 * s2]
        assert max(abs(e) for e in eqs) <= 1e-8

    def test_fractional_m_exits_1(self, tmp_path, band_file, capsys):
        doc = _jsonio.load(band_file)
        doc["m"] = 1.7
        _jsonio.dump(doc, band_file)
        assert main(["extend", "--band", str(band_file), "--N", "8",
                     "--out", str(tmp_path / "out")]) == 1
        assert "m must be a JSON integer, got 1.7" in capsys.readouterr().err

    def test_identity_band(self, tmp_path):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 0, blocks(1.0)).to_json_dict(), path)
        out = tmp_path / "out"
        assert main(["extend", "--band", str(path), "--N", "5",
                     "--out", str(out)]) == 0
        sigma = cm.BlockCirculant.from_json_dict(_jsonio.load(out / "sigma_opt.json"))
        assert np.abs(sigma.to_dense() - np.eye(5)).max() < 1e-12

    def test_non_pd_band_exits_2_with_certificate(self, tmp_path):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, 2.0)).to_json_dict(), path)
        out = tmp_path / "out"
        assert main(["extend", "--band", str(path), "--N", "9",
                     "--out", str(out)]) == 2
        diag = _jsonio.load(out / "diagnostics.json")
        assert "error" in diag

    def test_infeasible_N_exits_2_with_certificate(self, tmp_path):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, -0.6)).to_json_dict(), path)
        out = tmp_path / "out"
        assert main(["extend", "--band", str(path), "--N", "3",
                     "--out", str(out)]) == 2
        diag = _jsonio.load(out / "diagnostics.json")
        assert diag["certificate"]["smallest_feasible_N"] == 4
        assert len(diag["diagnostics"]["decrements"]) == diag["diagnostics"]["iterations"]
        check_infeasibility_certificate(diag["certificate"], blocks(1.0, -0.6), 3)

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "band.json"
        path.write_text("{not json")
        assert main(["extend", "--band", str(path), "--N", "8",
                     "--out", str(tmp_path / "out")]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["extend", "--band", str(tmp_path / "nope.json"), "--N", "8",
                     "--out", str(tmp_path / "out")]) == 1

    def test_output_round_trips_bit_exactly(self, tmp_path, band_file):
        out = tmp_path / "out"
        main(["extend", "--band", str(band_file), "--N", "8", "--out", str(out)])
        raw = (out / "sigma_opt.json").read_text()
        reread = cm.BlockCirculant.from_json_dict(json.loads(raw))
        assert _jsonio.dumps(reread.to_json_dict()) == raw


class TestSampleAndIdentify:
    def test_sample_deterministic(self, tmp_path, model_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["sample", "--model", str(model_file), "--T", "20",
                     "--seed", "5", "--out", str(a)]) == 0
        assert main(["sample", "--model", str(model_file), "--T", "20",
                     "--seed", "5", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_invalid_model_exits_2(self, tmp_path):
        path = tmp_path / "model.json"
        _jsonio.dump(cm.ReciprocalModel(1, 1, 5, blocks(1.0, 0.8)).to_json_dict(), path)
        assert main(["sample", "--model", str(path), "--T", "3",
                     "--seed", "0", "--out", str(tmp_path / "d.json")]) == 2

    def test_sample_zero_T_exits_1(self, tmp_path, model_file, capsys):
        out = tmp_path / "d.json"
        assert main(["sample", "--model", str(model_file), "--T", "0",
                     "--seed", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "circmax: need T >= 1\n"
        assert not out.exists()

    def test_identify_round_trip(self, tmp_path, model_file):
        data_path = tmp_path / "data.json"
        main(["sample", "--model", str(model_file), "--T", "5000",
              "--seed", "9", "--out", str(data_path)])
        out = tmp_path / "fit"
        assert main(["identify", "--data", str(data_path), "--n", "2",
                     "--out", str(out)]) == 0
        est = cm.ReciprocalModel.from_json_dict(_jsonio.load(out / "model.json"))
        true = cm.ReciprocalModel.from_json_dict(_jsonio.load(model_file))
        assert np.abs(est.M_blocks - true.M_blocks).max() < 0.2
        diag = _jsonio.load(out / "diagnostics.json")
        assert "log_likelihood" in diag

    def test_identify_zero_data_exits_2(self, tmp_path):
        data = cm.Dataset(1, 8, 1, np.zeros((1, 8, 1)))
        path = tmp_path / "data.json"
        _jsonio.dump(data.to_json_dict(), path)
        assert main(["identify", "--data", str(path), "--n", "2",
                     "--out", str(tmp_path / "fit")]) == 2

    @pytest.mark.parametrize("ridge", ["nan", "-5", "inf"])
    def test_identify_invalid_ridge_exits_1(self, tmp_path, capsys, ridge):
        data = cm.Dataset(1, 16, 50, np.random.default_rng(4).standard_normal((50, 16, 1)))
        path = tmp_path / "data.json"
        _jsonio.dump(data.to_json_dict(), path)
        out = tmp_path / "fit"
        assert main(["identify", "--data", str(path), "--n", "1", "--ridge", ridge,
                     "--out", str(out)]) == 1
        assert "ridge" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-1", "-2"])
    def test_identify_negative_order_exits_1(self, tmp_path, capsys, n):
        data = cm.Dataset(1, 16, 5, np.random.default_rng(5).standard_normal((5, 16, 1)))
        path = tmp_path / "data.json"
        _jsonio.dump(data.to_json_dict(), path)
        out = tmp_path / "fit"
        assert main(["identify", "--data", str(path), "--n", n, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"circmax: lag order must be >= 0, got {n}\n"
        assert not out.exists()

    def test_identify_malformed_exits_1(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("[1, 2,")
        assert main(["identify", "--data", str(path), "--n", "1",
                     "--out", str(tmp_path / "fit")]) == 1


class TestFeasibility:
    def test_white_band(self, tmp_path, capsys):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, 0.0)).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible_N"] == 3

    def test_scan_reports_trace(self, tmp_path, capsys):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, -0.8)).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible_N"] == 20
        assert out["min_eig_trace"]["3"] < 0

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("lag", [0, 1])
    def test_non_finite_band_exits_1(self, tmp_path, capsys, lag, bad):
        sigma = ["1.0", "0.5"]
        sigma[lag] = bad
        path = tmp_path / "band.json"
        path.write_text(f'{{"m":1,"n":1,"sigma":[[{sigma[0]}],[{sigma[1]}]]}}')
        assert main(["feasibility", "--band", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "sigma has a non-finite entry" in out.err

    def test_non_pd_band_exits_2(self, tmp_path):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, 1.5)).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path)]) == 2

    def test_exhausted_horizon_exits_2_with_trace(self, tmp_path, capsys):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, -0.9)).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path), "--n-max", "5"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert sorted(out) == ["error", "min_eig_trace"]
        assert list(out["min_eig_trace"]) == ["3", "4", "5"]

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_near_tolerance_band_names_t_n(self, tmp_path, capsys, rho):
        # 1 - |r| is just below the PD rule's 3e-10: T_n fails it, and so
        # does every wrap, so a larger --n-max cannot help
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, rho * (1 - 2.9e-10))).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "infeasible band: T_n is not positive definite"}


class TestVerify:
    def test_valid_pair(self, tmp_path, model_file, capsys):
        model = cm.ReciprocalModel.from_json_dict(_jsonio.load(model_file))
        cov = cm.covariance_of_model(model)
        cov_path = tmp_path / "cov.json"
        _jsonio.dump(cov.to_json_dict(), cov_path)
        assert main(["verify", "--model", str(model_file),
                     "--cov", str(cov_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        assert out["inverse_residual"] <= 1e-8

    def test_identity_pair(self, tmp_path, capsys):
        mp, cp = tmp_path / "m.json", tmp_path / "c.json"
        _jsonio.dump(cm.ReciprocalModel(1, 0, 4, blocks(1.0)).to_json_dict(), mp)
        _jsonio.dump(cm.BlockCirculant(1, 4, blocks(1, 0, 0, 0)).to_json_dict(), cp)
        assert main(["verify", "--model", str(mp), "--cov", str(cp)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inverse_residual"] == 0.0

    def test_mismatched_pair_exits_3(self, tmp_path, model_file, capsys):
        cov = cm.covariance_of_model(
            cm.ReciprocalModel(1, 2, 8, blocks(2.0, 0.3, -0.1)))
        cov_path = tmp_path / "cov.json"
        _jsonio.dump(cov.to_json_dict(), cov_path)
        assert main(["verify", "--model", str(model_file),
                     "--cov", str(cov_path)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False
        assert out["inverse_residual"] > 1e-8

    def test_dimension_mismatch_exits_1(self, tmp_path, model_file, capsys):
        cov_path = tmp_path / "cov.json"
        _jsonio.dump(cm.BlockCirculant(1, 4, blocks(1, 0, 0, 0)).to_json_dict(), cov_path)
        assert main(["verify", "--model", str(model_file),
                     "--cov", str(cov_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "circmax: model and covariance dimensions differ\n"

    def test_non_pd_covariance_exits_3(self, tmp_path, model_file, capsys):
        bad = cm.BlockCirculant(1, 8, blocks(2, 1, 0, 0, 0, 0, 0, 1))
        assert not cm.is_positive_definite(bad)
        cov_path = tmp_path / "cov.json"
        _jsonio.dump(bad.to_json_dict(), cov_path)
        assert main(["verify", "--model", str(model_file),
                     "--cov", str(cov_path)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False
        assert out["band_residual"] is None


class TestMalformedBlocks:
    """Block lists of the wrong count or row length are input errors (exit 1)."""

    DEFECTS = {
        "ragged": lambda rows: [rows[0] + [0.5]] + rows[1:],
        "short": lambda rows: rows[:-1],
        "over_long": lambda rows: rows + [rows[-1]],
        "long_row": lambda rows: [row + [0.5] for row in rows],
    }

    @staticmethod
    def _files(tmp_path):
        """(argv builder, file, key, valid doc) for each block-carrying input."""
        model = cm.ReciprocalModel(2, 1, 5, [[[2.0, 0.1], [0.1, 2.0]],
                                             [[0.3, 0.0], [0.1, -0.2]]])
        cov = cm.covariance_of_model(model)
        band = cov.band(1)
        data = cm.sample(model, 3, 0)
        out = str(tmp_path / "out")
        return {
            "band": (lambda f: ["extend", "--band", f, "--N", "5", "--out", out],
                     "sigma", band.to_json_dict()),
            "model": (lambda f: ["sample", "--model", f, "--T", "2", "--seed", "0",
                                 "--out", out + ".json"],
                      "M", model.to_json_dict()),
            "covariance": (lambda f: ["verify", "--model", str(tmp_path / "model-ok.json"),
                                      "--cov", f],
                           "first_col", cov.to_json_dict()),
            "dataset": (lambda f: ["identify", "--data", f, "--n", "1", "--out", out],
                        "realizations", data.to_json_dict()),
        }, model

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("kind", ["band", "model", "covariance", "dataset"])
    def test_exits_1(self, tmp_path, capsys, kind, defect):
        files, model = self._files(tmp_path)
        _jsonio.dump(model.to_json_dict(), tmp_path / "model-ok.json")
        argv, key, doc = files[kind]
        path = tmp_path / f"{kind}.json"
        _jsonio.dump(doc, path)
        assert main(argv(str(path))) == 0  # the intact file is accepted
        capsys.readouterr()
        doc[key] = self.DEFECTS[defect](doc[key])
        _jsonio.dump(doc, path)
        assert main(argv(str(path))) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("kind", ["band", "model", "covariance", "dataset"])
    def test_non_finite_exits_1(self, tmp_path, capsys, kind, bad):
        files, model = self._files(tmp_path)
        _jsonio.dump(model.to_json_dict(), tmp_path / "model-ok.json")
        argv, key, doc = files[kind]
        doc[key][0][0] = bad
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))  # the stdlib writes NaN and Infinity literals
        assert main(argv(str(path))) == 1
        assert "has a non-finite entry" in capsys.readouterr().err

    HEADER_DEFECTS = {
        "fraction": lambda v: v + 0.7,
        "float": float,
        "string": str,
        "boolean": bool,
    }

    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    @pytest.mark.parametrize("kind,key", [("band", "m"), ("band", "n"), ("model", "n"),
                                          ("model", "N"), ("covariance", "N"),
                                          ("dataset", "T")])
    def test_non_integer_header_exits_1(self, tmp_path, capsys, kind, key, defect):
        files, model = self._files(tmp_path)
        _jsonio.dump(model.to_json_dict(), tmp_path / "model-ok.json")
        argv, _, doc = files[kind]
        doc[key] = self.HEADER_DEFECTS[defect](doc[key])
        path = tmp_path / f"{kind}.json"
        _jsonio.dump(doc, path)
        assert main(argv(str(path))) == 1
        assert f"{key} must be a JSON integer" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["extend", "--N", "8", "--out", "x"]) == 1

    @pytest.mark.parametrize("flag", ["--tol", "--max-iter"])
    def test_no_solver_knobs(self, tmp_path, band_file, flag):
        out = tmp_path / "out"
        assert main(["extend", "--band", str(band_file), "--N", "8", flag, "1",
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestJsonio:
    def test_compact_output(self):
        text = _jsonio.dumps({"m": 1, "sigma": [[1.0], [0.5]]})
        assert text == '{"m":1,"sigma":[[1.0],[0.5]]}\n'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises(self, tmp_path, bad):
        with pytest.raises(ValueError):
            _jsonio.dumps({"sigma": [[1.0], [bad]]})
        path = tmp_path / "kept.json"
        _jsonio.dump([1.0], path)
        with pytest.raises(ValueError):
            _jsonio.dump([bad], path)
        assert _jsonio.load(path) == [1.0]
