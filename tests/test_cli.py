import json

import numpy as np
import pytest

import circmax as cm
from circmax import _jsonio
from circmax.cli import main


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
        assert diag["converged"] is True
        m0, m1, m2 = model.M_blocks.ravel()
        x3, x4 = sigma.lag(3)[0, 0], sigma.lag(4)[0, 0]
        s0, s1, s2 = 1.0, 0.5, 0.2
        eqs = [m0 * s0 + 2 * m1 * s1 + 2 * m2 * s2 - 1.0,
               m0 * s1 + m1 * (s0 + s2) + m2 * (s1 + x3),
               m0 * s2 + m1 * (s1 + x3) + m2 * (s0 + x4),
               m0 * x3 + m1 * (s2 + x4) + m2 * (s1 + x3),
               m0 * x4 + 2 * m1 * x3 + 2 * m2 * s2]
        assert max(abs(e) for e in eqs) <= 1e-8

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

    def test_non_pd_band_exits_2(self, tmp_path):
        path = tmp_path / "band.json"
        _jsonio.dump(cm.CovBand(1, 1, blocks(1.0, 1.5)).to_json_dict(), path)
        assert main(["feasibility", "--band", str(path)]) == 2


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


class TestUsage:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["extend", "--N", "8", "--out", "x"]) == 1


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
