import csv
import json
from fractions import Fraction as F

import pytest

from tangencylab import verify
from tangencylab.cli import ExperimentConfig, main
from tangencylab.renorm import ModelParams, residual_sup


def read_artifacts(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestConfig:
    def test_hash_is_stable_and_key_order_free(self):
        a = ExperimentConfig("x", {"b": 2, "a": 1}, "out")
        b = ExperimentConfig("x", {"a": 1, "b": 2}, "out")
        assert a.hash == b.hash
        assert len(a.hash) == 12

    def test_hash_changes_with_params(self):
        a = ExperimentConfig("x", {"a": 1}, "out")
        b = ExperimentConfig("x", {"a": 2}, "out")
        assert a.hash != b.hash


class TestCantorCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        # the nominal bound check fails for the exact construction, so the
        # exit status must say so
        rc = main(["cantor", "--m", "6", "--gen", "2", "--out", str(tmp_path)])
        assert rc == 1
        doc = json.loads((tmp_path / "thickness.json").read_text())
        assert doc["bound_holds"] is False
        assert doc["q0"] == {"num": 45, "den": 91, "float": 45 / 91}
        assert doc["delta_discrepancy"] is True
        assert doc["config_hash"]
        man = json.loads((tmp_path / "cantor_manifest.json").read_text())
        assert man["config_hash"] == doc["config_hash"]
        csv_head = (tmp_path / "intervals.csv").read_text().splitlines()[0]
        assert doc["config_hash"] in csv_head

    def test_thickness_grows_with_m(self, tmp_path):
        for m in (6, 8):
            main(["cantor", "--m", str(m), "--gen", "2", "--out", str(tmp_path / str(m))])
        t6 = json.loads((tmp_path / "6" / "thickness.json").read_text())["thickness"]
        t8 = json.loads((tmp_path / "8" / "thickness.json").read_text())["thickness"]
        assert F(t8["num"], t8["den"]) > F(t6["num"], t6["den"])

    def test_odd_m_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cantor", "--m", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGENCYLAB_OUT", str(tmp_path))
        main(["cantor", "--m", "6", "--gen", "1"])
        assert (tmp_path / "thickness.json").exists()

    def test_replay_determinism(self, tmp_path):
        main(["cantor", "--m", "6", "--gen", "3", "--out", str(tmp_path)])
        first = read_artifacts(tmp_path)
        main(["cantor", "--m", "6", "--gen", "3", "--out", str(tmp_path)])
        assert read_artifacts(tmp_path) == first


class TestRenormCommand:
    def test_certifies_and_is_worker_invariant(self, tmp_path):
        rc = main(["renorm", "--eps", "0.1", "--n-min", "4", "--n-max", "10",
                   "--grid", "41", "--workers", "1", "--out", str(tmp_path)])
        assert rc == 0
        first = read_artifacts(tmp_path)
        rc = main(["renorm", "--eps", "0.1", "--n-min", "4", "--n-max", "10",
                   "--grid", "41", "--workers", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert read_artifacts(tmp_path) == first
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["certified"] is True

    def test_bare_model_certifies_exact_law(self, tmp_path):
        rc = main(["renorm", "--n-min", "4", "--n-max", "14", "--grid", "41",
                   "--workers", "1", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["mode"] == "exact-law"
        assert doc["certified"] is True
        lines = (tmp_path / "residuals.csv").read_text().splitlines()
        assert lines[1] == "n,sup_H1,sup_H2,ratio"
        rows = list(csv.DictReader(lines[1:]))
        assert [int(r["n"]) for r in rows] == list(range(4, 15))
        for r in rows:
            assert float(r["sup_H2"]) == residual_sup(ModelParams(), int(r["n"]), grid=41)[1]

    def test_rejects_bad_model(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["renorm", "--lam", "0.6", "--sigma", "2.0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_rejects_n_zero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["renorm", "--n-min", "0", "--out", str(tmp_path)])


class TestAttractorCommand:
    def test_artifacts(self, tmp_path):
        rc = main(["attractor", "--steps", "20000", "--sample", "20000", "--out", str(tmp_path)])
        assert rc == 0
        fps = json.loads((tmp_path / "fixed_points.json").read_text())
        assert fps["count"] == 3
        assert all(f["saddle"] for f in fps["fixed_points"])
        lam = json.loads((tmp_path / "lyapunov.json").read_text())
        assert all(e["value"] > 0 for e in lam["estimates"])
        assert not lam["orbit_escaped"]

    def test_rejects_degenerate_b(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--b", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestTangencyCommand:
    def test_empty_range_succeeds(self, tmp_path):
        rc = main(["tangency", "--points", "0", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "events.csv").read_text().splitlines()
        assert len(lines) == 2  # hash comment + header only

    def test_scan_finds_antimonotone_pair(self, tmp_path):
        rc = main(["tangency", "--n", "6", "--t-min", "-0.03", "--t-max", "0.03",
                   "--points", "7", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        kinds = {e["region"]: e["classification"] for e in doc["events"]}
        assert kinds == {"upper": "contact-making", "lower": "contact-breaking"}
        assert doc["antimonotone_pair"] is True

    def test_coupling_warning(self, tmp_path, capsys):
        main(["tangency", "--n", "2", "--points", "0", "--out", str(tmp_path)])
        assert "widened" in capsys.readouterr().err
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["coupling_warning"] is True


class TestVerifyCommand:
    def test_skip_is_reported_and_exit_reflects_rest(self, tmp_path):
        heavy = [k for k in verify.CRITERIA if k not in ("conjugacy", "velocity_table")]
        argv = ["verify", "--out", str(tmp_path)]
        for k in heavy:
            argv += ["--skip", k]
        rc = main(argv)
        assert rc == 0  # the two checks that ran both pass
        doc = json.loads((tmp_path / "verify.json").read_text())
        skipped = [r for r in doc["results"] if "skipped" in r["details"]]
        assert len(skipped) == len(heavy)

    def test_failing_criterion_named(self, tmp_path):
        heavy = [k for k in verify.CRITERIA if k != "cantor_exactness"]
        argv = ["verify", "--out", str(tmp_path)]
        for k in heavy:
            argv += ["--skip", k]
        rc = main(argv)
        assert rc == 1
        doc = json.loads((tmp_path / "verify.json").read_text())
        failed = [r["key"] for r in doc["results"] if not r["passed"]]
        assert failed == ["cantor_exactness"]

    def test_unknown_skip_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "--skip", "nonsense", "--out", str(tmp_path)])


class TestConfigFile:
    def test_overrides_apply(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m": 8, "gen": 1}))
        main(["cantor", "--m", "6", "--config", str(cfg), "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "thickness.json").read_text())
        assert doc["m"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"wravens": 3}))
        with pytest.raises(SystemExit) as exc:
            main(["cantor", "--m", "6", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestFaultInjection:
    def test_corrupted_constant_fails_named_criterion(self, monkeypatch):
        monkeypatch.setitem(verify.EXPECTED, "q0_m6", F(44, 91))
        res = verify.run_criterion("cantor_exactness")
        assert not res.passed
        assert any("q0" in f for f in res.failures)

    def test_corrupted_slope_target(self, monkeypatch):
        # cheap criterion with an injected wrong velocity expectation
        monkeypatch.setitem(verify.EXPECTED, "h_left_bracket", 0.5)
        res = verify.run_criterion("wang_young")
        assert not res.passed
        assert any("left bracket" in f for f in res.failures)
