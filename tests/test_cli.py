import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tangencylab
from tangencylab import cantor, fold, planar, renorm, verify
from tangencylab.cli import ExperimentConfig, _csv_text, _write_json, main
from tangencylab.renorm import ModelParams, residual_sup


def read_artifacts(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def src_env() -> dict:
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(tangencylab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_imports_cleanly():
    # `python -m tangencylab.cli` warns if the package imported `cli` first
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tangencylab.cli", "--help"],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; numpy.random is loaded at import, so a
    # run's first default_rng does not import it inside the timed work
    code = "import sys, tangencylab.cli; print('scipy' in sys.modules, 'numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def fractions_as_objects(x):
    if isinstance(x, F):
        return {"num": x.numerator, "den": x.denominator, "float": float(x)}
    if isinstance(x, (list, tuple)):
        return [fractions_as_objects(v) for v in x]
    if isinstance(x, dict):
        return {k: fractions_as_objects(v) for k, v in x.items()}
    return x


class TestJsonWriter:
    def test_edge_values(self, tmp_path):
        obj = {"é": [float("nan"), float("inf"), -float("inf"), -0.0], "": {}, "t": (), "n": None,
               "b": [True, False], "big": 10**30, "ω": "κ\u2028", "f": F(-1, 3), "x": {1, 2}}
        cfg = ExperimentConfig("x", {}, "out")
        _write_json(tmp_path / "x.json", obj, cfg)
        want = json.dumps(fractions_as_objects(dict(obj, config_hash=cfg.hash, schema_version=1)),
                          indent=2, sort_keys=True, default=str) + "\n"
        assert (tmp_path / "x.json").read_text() == want



def csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


NUMBERS = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, np.float64(-0.0), math.nan, math.inf, -math.inf, True]),
)


class TestCsvWriter:
    @given(st.lists(st.lists(st.one_of(NUMBERS, st.text(), st.none()), max_size=5), max_size=12))
    def test_matches_csv_writer(self, rows):
        # None, a field csv quotes, a lone field and rows of mixed widths go to csv.writer
        assert _csv_text(rows) == csv_writer_text(rows)

    @given(st.integers(2, 6).flatmap(
        lambda w: st.lists(st.lists(NUMBERS, min_size=w, max_size=w), min_size=1, max_size=40)))
    def test_number_rows_of_one_width_are_formatted(self, rows):
        want = csv_writer_text(rows)
        with mock.patch.object(csv, "writer", side_effect=AssertionError("number rows went to csv.writer")):
            assert _csv_text(rows) == want

    @pytest.mark.parametrize("row", [
        [None, 1], [1, None], ["a,b", 1], ['say "x"', 2.5], ["a\nb", 1], ["a\rb", 1], [""], [], [3], ["None", 1],
    ])
    def test_fields_csv_renders_otherwise_reach_csv_writer(self, row):
        rows = [[1, 2.5], row, [np.float64(0.1), -0.0]]
        want = csv_writer_text(rows)
        with mock.patch.object(csv, "writer", wraps=csv.writer) as writer:
            assert _csv_text(rows) == want
        assert writer.call_count == 1


def reference_thickness_json(m, gen, out):
    """thickness.json and the manifest as the CLI wrote them with `json.dump`
    over payloads of explicit {num, den, float} dicts."""
    def enc(x):
        return {"num": x.numerator, "den": x.denominator, "float": float(x)} if isinstance(x, F) else x

    def enc_all(x):
        if isinstance(x, F):
            return enc(x)
        if isinstance(x, tuple):
            return [enc_all(v) for v in x]
        return float(x)

    cfg = ExperimentConfig("cantor", {"m": m, "gen": gen}, str(out))
    rep = cantor.nmap_cantor_report(m, gen)
    tr, stage = rep["thickness_report"], rep["stage"]
    payload = {
        "m": m,
        "generation": gen,
        "n_intervals": rep["n_intervals"],
        "q0": enc(rep["q0"]),
        "x_m": enc(rep["x_m"]),
        "thickness": enc(rep["thickness"]),
        "nominal_bound": enc(rep["nominal_bound"]),
        "bound_holds": rep["bound_holds"],
        "gap_at_half": enc(rep["gap_at_half"]),
        "gap_at_half_closed_form": enc(rep["gap_at_half_closed_form"]),
        "gap_at_minus_half": enc(rep["gap_at_minus_half"]),
        "nominal_delta": enc(rep["nominal_delta"]),
        "delta_discrepancy": rep["nominal_delta"] != rep["gap_at_minus_half"],
        "realized_closed_form_gen_stable": enc(rep["realized_closed_form"]),
        "report": {
            "thickness": enc_all(tr.thickness),
            "witness_gap": enc_all(tr.witness_gap),
            "witness_bridge": enc_all(tr.witness_bridge),
        },
        "stage": {
            "source": stage.source,
            "generation": stage.generation,
            "ambient": [enc_all(stage.ambient[0]), enc_all(stage.ambient[1])],
        },
        "config_hash": cfg.hash,
        "schema_version": 1,
    }
    manifest = dict(cfg.resolved(), config_hash=cfg.hash)
    return tuple(
        (json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n").encode()
        for doc in (payload, manifest)
    )


def reference_intervals_csv(m, gen, out):
    """intervals.csv as a `csv.writer` rendering of the numerators and
    denominators of the stage's `intervals`."""
    cfg = ExperimentConfig("cantor", {"m": m, "gen": gen}, str(out))
    buf = io.StringIO()
    buf.write(f"# config_hash: {cfg.hash}\n")
    w = csv.writer(buf)
    w.writerow(["generation", "left_num", "left_den", "right_num", "right_den"])
    for a, b in cantor.build_nmap_cantor(m, gen).intervals:
        w.writerow([gen, a.numerator, a.denominator, b.numerator, b.denominator])
    return buf.getvalue().encode()


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
        lines = (tmp_path / "intervals.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash: {doc['config_hash']}"
        assert lines[1] == "generation,left_num,left_den,right_num,right_den"
        row = lines[2].split(",")
        assert F(int(row[1]), int(row[2])) == cantor.build_nmap_cantor(6, 2).intervals[0][0]
        assert len(lines) == 2 + doc["n_intervals"]

    def test_thickness_grows_with_m(self, tmp_path):
        for m in (6, 8):
            main(["cantor", "--m", str(m), "--gen", "2", "--out", str(tmp_path / str(m))])
        t6 = json.loads((tmp_path / "6" / "thickness.json").read_text())["thickness"]
        t8 = json.loads((tmp_path / "8" / "thickness.json").read_text())["thickness"]
        assert F(t8["num"], t8["den"]) > F(t6["num"], t6["den"])

    def test_closed_form_matches_thickness(self, tmp_path):
        # m=8 steps down at generations 3 and 5
        for gen in (2, 3, 5):
            main(["cantor", "--m", "8", "--gen", str(gen), "--out", str(tmp_path)])
            doc = json.loads((tmp_path / "thickness.json").read_text())
            assert doc["realized_closed_form_gen_stable"] == doc["thickness"]

    def test_odd_m_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cantor", "--m", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGENCYLAB_OUT", str(tmp_path))
        main(["cantor", "--m", "6", "--gen", "1"])
        assert (tmp_path / "thickness.json").exists()

    def test_thickness_json_matches_reference_encoding(self, tmp_path):
        for m, gen in ((8, 3), (6, 1)):
            out = tmp_path / f"{m}-{gen}"
            main(["cantor", "--m", str(m), "--gen", str(gen), "--out", str(out)])
            want_doc, want_manifest = reference_thickness_json(m, gen, out)
            assert (out / "thickness.json").read_bytes() == want_doc
            assert (out / "cantor_manifest.json").read_bytes() == want_manifest
        # the stage's intervals are exact in intervals.csv only: the m=6
        # stage starts at q2 = -132/91
        doc = json.loads((tmp_path / "6-1" / "thickness.json").read_text())
        assert "intervals" not in doc["stage"]
        lines = (tmp_path / "6-1" / "intervals.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert (rows[0]["left_num"], rows[0]["left_den"]) == ("-132", "91")
        assert [(F(int(r["left_num"]), int(r["left_den"])), F(int(r["right_num"]), int(r["right_den"])))
                for r in rows] == list(cantor.build_nmap_cantor(6, 1).intervals)

    @pytest.mark.parametrize("m,gen", [(6, 1), (8, 5), (12, 7)])
    def test_intervals_csv_matches_reference_rendering(self, tmp_path, m, gen):
        main(["cantor", "--m", str(m), "--gen", str(gen), "--out", str(tmp_path)])
        assert (tmp_path / "intervals.csv").read_bytes() == reference_intervals_csv(m, gen, tmp_path)

    def test_replay_determinism(self, tmp_path):
        main(["cantor", "--m", "6", "--gen", "3", "--out", str(tmp_path)])
        first = read_artifacts(tmp_path)
        main(["cantor", "--m", "6", "--gen", "3", "--out", str(tmp_path)])
        assert read_artifacts(tmp_path) == first


class TestRenormCommand:
    def test_certifies_and_replays(self, tmp_path):
        argv = ["renorm", "--eps", "0.1", "--n-min", "4", "--n-max", "10", "--grid", "41",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = read_artifacts(tmp_path)
        assert main(argv) == 0
        assert read_artifacts(tmp_path) == first
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["certified"] is True

    def test_negative_eps_is_judged_by_the_rate_fit(self, tmp_path):
        # a quartic fold correction of either sign decays at the slow rate
        assert main(["renorm", "--eps", "-0.1", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "rate.json").read_text())
        assert doc["mode"] == "rate-fit"
        assert doc["certified"] is True
        assert abs(doc["fitted_slope"] - doc["target_log_rate"]) <= 0.05

    def test_negative_zero_eps_is_the_bare_model(self, tmp_path):
        assert main(["renorm", "--eps", "-0.0", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "rate.json").read_text())["mode"] == "exact-law"

    def test_bare_model_certifies_exact_law(self, tmp_path):
        rc = main(["renorm", "--n-min", "4", "--n-max", "14", "--grid", "41", "--out", str(tmp_path)])
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

    @pytest.mark.parametrize("option", ["flag", "config"])
    def test_has_no_workers_option(self, tmp_path, option):
        argv = ["renorm", "--out", str(tmp_path)]
        if option == "flag":
            argv += ["--workers", "2"]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"workers": 2}))
            argv += ["--config", str(tmp_path / "c.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_rejects_bad_model(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["renorm", "--lam", "0.6", "--sigma", "2.0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_rejects_n_zero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["renorm", "--n-min", "0", "--out", str(tmp_path)])

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_rejects_empty_grid(self, tmp_path, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["renorm", "--grid", grid, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--grid must be >= 1" in capsys.readouterr().err


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

    def test_sample_csv_matches_reference_rendering(self, tmp_path):
        main(["attractor", "--steps", "10000", "--sample", "6000", "--out", str(tmp_path)])
        cfg = ExperimentConfig("attractor", {"a": 2.8, "b": 0.1, "steps": 10000, "sample": 6000}, str(tmp_path))
        sample = planar.iterate(planar.cubic_henon(), (2.8, 0.1), (0.1, 0.9), 6000).points[1000:]
        want = f"# config_hash: {cfg.hash}\n" + csv_writer_text([["x", "y"], *([float(x), float(y)] for x, y in sample)])
        assert (tmp_path / "sample.csv").read_bytes() == want.encode()

    def test_rejects_degenerate_b(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--b", "0", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_rejects_short_run(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attractor", "--steps", "100", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--steps must be >= 10000" in capsys.readouterr().err


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

    def test_region_without_event_exits_1(self, tmp_path, capsys):
        # away from mu_bar = 3 both events lie outside the default t-range
        rc = main(["tangency", "--mu-bar", "2.95", "--points", "2", "--out", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "0 event(s); \n"
        assert err == "no tangency event over t in [-0.03, 0.03] in region(s): upper, lower\n"
        # a verdict, not a usage error: the artifacts are written
        assert json.loads((tmp_path / "summary.json").read_text())["events"] == []
        assert len((tmp_path / "scan.csv").read_text().splitlines()) == 2 + 2

    def test_scan_grows_no_manifold(self, tmp_path, monkeypatch):
        # both regions' scans, roots and slopes are read off folds of the
        # unstable curve: no polyline is grown and no probe is measured
        calls = []
        monkeypatch.setattr(planar, "grow_manifold", lambda *a, **k: calls.append("grow_manifold"))
        monkeypatch.setattr(planar.FiberGapProbe, "_measure", lambda *a: calls.append("probe"))
        assert main(["tangency", "--out", str(tmp_path)]) == 0
        kinds = {e["region"]: e["classification"] for e in json.loads((tmp_path / "summary.json").read_text())["events"]}
        assert kinds == {"upper": "contact-making", "lower": "contact-breaking"}
        assert calls == []

    def test_artifacts_are_the_fold_route(self, tmp_path):
        # scan.csv holds each region's fold penetrations at the scan t, and
        # events.csv the fold at each root: its point, signed gap and penetration
        assert main(["tangency", "--out", str(tmp_path)]) == 0
        probes, _ = planar.region_probes(renorm.renormalized_family(ModelParams(), 6), 3.0)

        def rows(name):
            return list(csv.DictReader(l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")))

        scan = rows("scan.csv")
        assert len(scan) == 13
        for row in scan:
            t = float(row["t"])
            for region, probe in probes.items():
                assert float(row[f"{region}_penetration"]) == fold.fold_extremum(probe, t).penetration
        events = rows("events.csv")
        assert [row["region"] for row in events] == ["upper", "lower"]
        for row in events:
            point = fold.fold_extremum(probes[row["region"]], float(row["t"]))
            got = tuple(float(row[k]) for k in ("x", "y", "min_gap", "penetration"))
            assert got == (*point.location, point.gap, point.penetration)
            assert got[2] == (got[3] if row["region"] == "upper" else -got[3])

    def test_each_fold_row_is_measured_once(self, tmp_path, monkeypatch):
        # at the defaults the two regions' scans, roots and slopes read 40
        # distinct (region, t) fold rows, each measured once: each region's
        # scan in its own batch, then both regions' Brent steps and both
        # events' offsets together, no batch over 13 rows; the values do not
        # depend on the order they are measured in
        batches, folds = [], {}
        batch = fold._fold_rows

        def recording(rows):
            batches.append([(probe.mode, t) for probe, t in rows])
            out = batch(rows)
            folds.update(((probe, t), point) for (probe, t), point in zip(rows, out))
            return out

        monkeypatch.setattr(fold, "_fold_rows", recording)
        assert main(["tangency", "--out", str(tmp_path)]) == 0
        rows = [row for b in batches for row in b]
        assert len(rows) == len(set(rows)) == 40
        assert [len(b) for b in batches] == [13, 13, 2, 2, 2, 8]
        assert [{mode for mode, _ in b} for b in batches[:2]] == [{"peak"}, {"valley"}]
        assert all({mode for mode, _ in b} == {"peak", "valley"} for b in batches[2:])
        keys = list(folds)
        assert fold.fold_extrema(keys[::-1])[::-1] == [folds[k] for k in keys]

    @pytest.mark.parametrize("argv", [["--mu-bar", "2.98", "--points", "9"], ["--points", "2"]])
    def test_artifacts_equal_the_per_region_route(self, tmp_path, monkeypatch, argv):
        # solving both regions together writes, byte for byte, what scanning,
        # solving and classifying each region alone with scan_events writes
        out = tmp_path / "out"
        assert main(["tangency", *argv, "--out", str(out)]) == 0
        joint = read_artifacts(out)
        for f in out.iterdir():
            f.unlink()
        monkeypatch.setattr(fold, "fold_scans", lambda probes, ts: [planar.scan_events(p, ts) for p in probes])
        assert main(["tangency", *argv, "--out", str(out)]) == 0
        assert read_artifacts(out) == joint

    def test_upper_error_is_reported_before_an_earlier_lower_one(self, tmp_path, capsys, monkeypatch):
        # the upper region rejects the last scan t, the lower one the first
        bad_t = {"upper": 0.03, "lower": -0.03}

        def fold_rows(rows):
            return [planar.WindowRejected(f"t={t}: no crossing") if t == bad_t[region]
                    else fold.FoldPoint(0.0, 1.0, (0.0, 0.0), 1.0) for region, t in rows]

        monkeypatch.setattr(planar, "region_probes", lambda fam, mu: ({r: r for r in bad_t}, 0.0))
        monkeypatch.setattr(fold, "_fold_rows", fold_rows)
        with pytest.raises(SystemExit):
            main(["tangency", "--points", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "error: --t-min/--t-max: the upper region's window rejects t=0.03: no crossing\n" in err

    def test_upper_slope_error_is_reported_before_a_lower_scan_error(self, tmp_path, capsys, monkeypatch):
        # the upper region's scan brackets a root at t = 0 and rejects only its
        # slope offset t = 0.001, measured after the lower scan that rejects
        # t = -0.03: the upper route fails first, at its own earliest t
        def fold_rows(rows):
            out = []
            for region, t in rows:
                bad = t == (0.001 if region == "upper" else -0.03)
                out.append(planar.WindowRejected(f"t={t}: no crossing") if bad else fold.FoldPoint(0.0, t, (0.0, 0.0), t))
            return out

        monkeypatch.setattr(planar, "region_probes", lambda fam, mu: ({"upper": "upper", "lower": "lower"}, 0.0))
        monkeypatch.setattr(fold, "_fold_rows", fold_rows)
        with pytest.raises(SystemExit):
            main(["tangency", "--points", "3", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "error: --t-min/--t-max: the upper region's window rejects t=0.001: no crossing\n" in err

    def test_lower_only_error_names_the_lower_region(self, tmp_path, capsys):
        # at t = -0.5 the lower valley lies at an end of its arc; the upper
        # region measures every t of the scan
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["tangency", "--t-min", "-0.5", "--t-max", "-0.1", "--points", "3", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --t-min/--t-max: the lower region's window rejects t=-0.5: " in err
        assert "Traceback" not in err and not out.exists()

    def test_single_point_cannot_bracket_an_event(self, tmp_path, capsys):
        assert main(["tangency", "--mu-bar", "2.95", "--points", "1", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_underflowed_coupling_is_a_usage_error(self, tmp_path, capsys):
        # 0.4^n underflows to 0 past n = 813: the family has no inverse to grow W^s with
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["tangency", "--n", "900", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("tangencylab tangency: error: --n: the coupling underflows to 0 at n=900; "
                "the renormalized family has no inverse\n") in err
        assert "Traceback" not in err and not out.exists()

    def test_coupling_warning(self, tmp_path, capsys):
        main(["tangency", "--n", "2", "--points", "0", "--out", str(tmp_path)])
        assert "warning: coupling 0.1600 > 0.05; " in capsys.readouterr().err
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["coupling_warning"] is True

    def test_coupling_warning_says_what_the_scan_does(self, tmp_path, capsys):
        # the scan changes no tolerance: it only centres on the limit prediction
        assert main(["tangency", "--n", "3", "--points", "0", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: coupling 0.0640 > 0.05; the probe windows and growth targets are centred "
                       "on the limit family's tangency, a less reliable prediction at this n\n")


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
        assert [r["key"] for r in doc["results"] if r.get("skipped")] == heavy
        assert not any(r["passed"] for r in skipped)  # a skipped check claims no pass
        assert all("skipped" not in r for r in doc["results"] if r["key"] not in heavy)

    def test_skip_line_and_record(self):
        (r,) = [r for r in verify.run_all(skip=set(verify.CRITERIA)) if r.key == "attractor"]
        assert r.skipped and not r.passed and not r.failed
        assert r.line.startswith("[SKIP] attractor: ")
        assert r.to_json()["skipped"] is True and r.to_json()["passed"] is False

    def test_failing_criterion_named(self, tmp_path):
        heavy = [k for k in verify.CRITERIA if k != "cantor_exactness"]
        argv = ["verify", "--out", str(tmp_path)]
        for k in heavy:
            argv += ["--skip", k]
        rc = main(argv)
        assert rc == 1
        doc = json.loads((tmp_path / "verify.json").read_text())
        failed = [r["key"] for r in doc["results"] if not r["passed"] and not r.get("skipped")]
        assert failed == ["cantor_exactness"]
        assert not any(r["passed"] for r in doc["results"] if r.get("skipped"))

    def test_unknown_skip_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "--skip", "nonsense", "--out", str(tmp_path)])


@pytest.mark.parametrize("argv, message", [
    (["renorm", "--grid", "0"], "--grid must be >= 1"),
    (["attractor", "--steps", "100"], "--steps must be >= 10000"),
    (["tangency", "--n", "0"], "--n must be >= 1"),
    (["cantor", "--m", "5"], "--m must be an even integer >= 6"),
    (["renorm", "--workers", "2"], "unrecognized arguments: --workers 2"),
    (["attractor", "--sample", "-1"], "--sample must be >= 0"),
    (["tangency", "--mu-bar", "-1"], "--mu-bar: the limit family has no upper tangency at mu=-1.0"),
    (["tangency", "--mu-bar", "10"], "--mu-bar: the limit family has no upper tangency at mu=10.0"),
    (["tangency", "--points", "-4"], "--points must be >= 0"),
    (["tangency", "--t-min", "0.03", "--t-max", "-0.03"], "--t-max must be >= --t-min"),
    (["verify", *(a for key in verify.CRITERIA for a in ("--skip", key))],
     "--skip names every criterion; nothing would be checked"),
    (["renorm", "--eps", "nan"], "need a finite eps, got nan"),
    (["renorm", "--eps", "inf"], "need a finite eps, got inf"),
    (["tangency", "--t-min", "-1", "--t-max", "1", "--points", "9"],
     "--t-min/--t-max: the upper region's window rejects t=-1.0: the unstable arc misses the window"),
    (["renorm", "--eps", "0.1", "--n-min", "2200", "--n-max", "2201"],
     "--n-min/--n-max: both residuals underflow to 0 at n=2200; the decay-rate fit needs them positive"),
    (["tangency", "--t-min", "1e6", "--t-max", "1e6", "--points", "1"],
     "--t-min/--t-max: the upper region's saddle solve fails at t=1000000.0: no convergence after"),
    (["tangency", "--t-min", "0", "--t-max", "inf", "--points", "3"],
     "--t-min/--t-max must be finite, got [0.0, inf]"),
    (["attractor", "--a", "nan"], "need a finite a, got nan"),
    (["attractor", "--b", "nan"], "need a finite b, got nan"),
    (["attractor", "--b", "inf"], "need a finite b, got inf"),
], ids=["renorm", "attractor", "tangency", "cantor",
        "unknown-option", "negative-sample", "mu-bar-low", "mu-bar-high",
        "negative-points", "reversed-range", "verify-skips-all",
        "nan-eps", "inf-eps", "wide-t-range", "underflowed-residuals",
        "diverging-saddle", "infinite-t", "nan-a", "nan-b", "inf-b"])
def test_usage_error_names_the_subcommand(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tangencylab {argv[0]} ")
    assert f"tangencylab {argv[0]}: error: {message}" in err
    assert not out.exists()  # inputs are checked before the output directory is made


@pytest.mark.parametrize("argv", [
    ["renorm", "--eps", "0.1", "--n-min", "2200", "--n-max", "2201"],
    ["tangency", "--t-min", "1e6", "--t-max", "1e6", "--points", "1"],
    ["attractor", "--a", "nan", "--steps", "10000", "--sample", "10"],
], ids=["renorm-underflow", "tangency-diverging-saddle", "attractor-nan"])
def test_rejected_input_exits_2_without_traceback(tmp_path, argv):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "tangencylab.cli", *argv, "--out", str(out)],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith(f"usage: tangencylab {argv[0]} ")
    assert not out.exists()


def test_config_usage_error_names_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"wravens": 3}))
    with pytest.raises(SystemExit):
        main(["cantor", "--m", "6", "--config", str(cfg), "--out", str(tmp_path)])
    assert capsys.readouterr().err.startswith("usage: tangencylab cantor ")


class TestConfigFile:
    @pytest.mark.parametrize("text, message", [
        (None, "--config: cannot read '{path}': No such file or directory"),
        ('{"m": 6,', "--config: '{path}' is not valid JSON: Expecting property name"),
        ("[1, 2]", "--config: '{path}' must hold a JSON object, got list"),
    ], ids=["missing", "invalid-json", "not-an-object"])
    def test_unusable_file_rejected(self, tmp_path, capsys, text, message):
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["cantor", "--m", "6", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tangencylab cantor ")
        assert "tangencylab cantor: error: " + message.format(path=cfg) in err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, overrides, message", [
        (["cantor", "--m", "6"], {"m": "12"}, "config key 'm' must be int, got '12'"),
        (["renorm"], {"grid": 2.5}, "config key 'grid' must be int, got 2.5"),
        (["renorm"], {"lam": True}, "config key 'lam' must be float, got True"),
        (["verify"], {"skip": ["bogus"]}, "config key 'skip': invalid choice 'bogus'"),
        (["verify"], {"skip": "tangency"}, "config key 'skip' must be a list, got 'tangency'"),
    ], ids=["str-for-int", "float-for-int", "bool-for-float", "bad-choice", "bare-append"])
    def test_bad_value_rejected(self, tmp_path, capsys, argv, overrides, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(overrides))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tangencylab {argv[0]} ")
        assert f"tangencylab {argv[0]}: error: {message}" in err

    def test_int_converts_like_the_flag(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sigma": 2, "n_max": 5}))
        out = tmp_path / "out"
        assert main(["renorm", "--config", str(cfg), "--out", str(out)]) == 0
        from_config = read_artifacts(out)
        assert main(["renorm", "--sigma", "2", "--n-max", "5", "--out", str(out)]) == 0
        assert read_artifacts(out) == from_config


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

    def test_rate_tolerance_has_one_home(self, tmp_path, monkeypatch):
        # CLI renorm and criterion renorm_rate judge a decay-rate fit by one tolerance
        monkeypatch.setattr(renorm, "RATE_TOL", 1e-6)
        assert main(["renorm", "--eps", "0.1", "--out", str(tmp_path)]) == 1
        assert json.loads((tmp_path / "rate.json").read_text())["certified"] is False
        res = verify.run_criterion("renorm_rate")
        assert not res.passed
        assert len(res.failures) == 2 and all(" within 1e-06 of " in f for f in res.failures)

    def test_coupling_limit_has_one_home(self, tmp_path, capsys, monkeypatch):
        # CLI tangency's warning and criterion tangency's coupling line read one
        # limit; at n = 6 the coupling is 0.4^6 = 0.004096
        monkeypatch.setattr(renorm, "MAX_COUPLING", 0.004)
        assert main(["tangency", "--points", "0", "--out", str(tmp_path)]) == 0
        assert "warning: coupling 0.0041 > 0.004; " in capsys.readouterr().err
        assert json.loads((tmp_path / "summary.json").read_text())["coupling_warning"] is True
        res = verify.run_criterion("tangency")
        assert res.failures == ["FAILED: coupling (lam*sigma)^n = 0.0041 <= 0.004 at n=6"]
        monkeypatch.setattr(renorm, "MAX_COUPLING", 0.2)
        assert main(["tangency", "--n", "2", "--points", "0", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert verify.run_criterion("tangency").passed

    @staticmethod
    def losing(monkeypatch, mode):
        """Make criterion tangency's mu = 3 search of the `mode` region find no
        sign change, as a bracket without a root does."""
        roots = fold.fold_roots

        def fold_roots(searches):
            return [ValueError("f(a) and f(b) must have different signs")
                    if probe.probe.mode == mode and probe.probe.curve(0.0)[0] == 3.0 else root
                    for (probe, _), root in zip(searches, roots(searches))]

        monkeypatch.setattr(fold, "fold_roots", fold_roots)

    def test_missing_tangency_event_is_a_named_failure(self, monkeypatch):
        # the upper event is the locus's mu = 3 root, so the locus loses that
        # grid point too; the lower event is still found and classified
        self.losing(monkeypatch, "peak")
        res = verify.run_criterion("tangency")
        assert not res.passed
        assert len(res.failures) == 2
        assert re.fullmatch(r"FAILED: no upper event in \[-?\d+\.\d{6}, -?\d+\.\d{6}\]", res.failures[0])
        assert res.failures[1] == "FAILED: fold locus found at every mu grid point [2.85, 2.9, 2.95, 3.05, 3.1, 3.15]"
        assert any(d.startswith("ok: lower event at nu=") for d in res.details)

    def test_missing_lower_event_is_a_named_failure(self, monkeypatch):
        self.losing(monkeypatch, "valley")
        res = verify.run_criterion("tangency")
        assert len(res.failures) == 1
        assert re.fullmatch(r"FAILED: no lower event in \[-?\d+\.\d{6}, -?\d+\.\d{6}\]", res.failures[0])
        assert any(d.startswith("ok: upper event at nu=") for d in res.details)

    def test_probe_cross_check_is_live(self, monkeypatch):
        # with a bound far inside the probe-to-fold distance the polyline
        # probe's penetration keeps its sign over [t - b, t + b]: exactly the
        # cross-check line fails, by name, with the bound it read
        monkeypatch.setattr(fold, "fold_bound", lambda probe, event: 1e-9)
        res = verify.run_criterion("tangency")
        assert len(res.failures) == 1
        assert res.failures[0].startswith(
            "FAILED: probe penetrations change sign within the derived bound of the fold events: upper +-1.00e-09: ")
        assert ", lower +-1.00e-09: " in res.failures[0]

    def test_events_are_the_fold_routes(self, monkeypatch):
        # criterion tangency's two mu = 3 events are CLI tangency's route, equal
        # to scan_events on each region's own FoldProbe, and the upper one is the
        # locus's mu = 3 root: the same probe, bracket and Brent iterates give
        # the same bits
        classify, locus, seen = planar.classify_tangency, planar.tangency_locus, {}

        def recording_classify(probe, t0):
            seen[probe.probe.mode] = classify(probe, t0)
            return seen[probe.probe.mode]

        def recording_locus(roots):
            seen["fit"] = locus(roots)
            return seen["fit"]

        monkeypatch.setattr(planar, "classify_tangency", recording_classify)
        monkeypatch.setattr(planar, "tangency_locus", recording_locus)
        assert verify.run_criterion("tangency").passed
        monkeypatch.undo()
        regions, pred = planar.region_probes(renorm.renormalized_family(ModelParams(), 6), 3.0)
        bracket = (pred - 0.03, pred + 0.03)
        for name, mode in (("upper", "peak"), ("lower", "valley")):
            want = planar.scan_events(fold.FoldProbe(regions[name]), bracket)[1]
            assert repr(seen[mode]) == repr(want)
            assert want.parameter == fold.fold_roots([(fold.FoldProbe(regions[name]), bracket)])[0]
        fit = seen["fit"]
        assert seen["peak"].parameter == fit.nu_values[fit.mu_values.index(3.0)]

    def test_criterion_fold_batches(self, monkeypatch):
        # the locus's seven searches and the lower one share each Brent round
        # (the two bracket ends, three steps), then both events' offsets one batch
        batch, sizes = fold._fold_rows, []

        def recording(rows):
            sizes.append(len(rows))
            return batch(rows)

        monkeypatch.setattr(fold, "_fold_rows", recording)
        assert verify.run_criterion("tangency").passed
        assert sizes == [8] * 6
