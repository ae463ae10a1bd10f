import csv
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from rssdloc.channel import Preset
from rssdloc.cli import main
from rssdloc.errors import EmptyInput, UnknownKey
from rssdloc.geometry import OmniAntenna, Point2D
from rssdloc.harness import (
    EpochRecord,
    RunReport,
    aggregate,
    compute_rmse,
    run_scenario,
    run_trial,
    scenario_db,
    trial_rng,
    write_report_files,
)
from rssdloc.scenario import Mode, load_scenario, scenario_from_dict
from rssdloc.solver import AntennaModel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FP_YAML = SCENARIO_DIR / "fp_3x3.yaml"
SIM_YAML = SCENARIO_DIR / "sim_8x8.yaml"


def small_sim_dict(**overrides):
    """A coarse, short simulation scenario that runs in well under a second."""
    d = {
        "name": "small",
        "mode": "SIM_RSSD",
        "preset": "OMNI_DIR",
        "stations": [
            {"id": 1, "x": -3, "y": -3, "role": "RSS_ONLY",
             "antenna": {"gain_db": 6.5, "orientation_deg": 45}},
            {"id": 2, "x": 3, "y": -3, "role": "RSS_ONLY",
             "antenna": {"gain_db": 6.5, "orientation_deg": 135}},
            {"id": 3, "x": 3, "y": 3, "role": "RSS_ONLY",
             "antenna": {"gain_db": 6.5, "orientation_deg": -135}},
            {"id": 4, "x": -3, "y": 3, "role": "RSS_ONLY",
             "antenna": {"gain_db": 6.5, "orientation_deg": -45}},
            {"id": 5, "x": -3, "y": 0, "role": "TDOA_ONLY"},
            {"id": 6, "x": 3, "y": 0, "role": "TDOA_ONLY"},
        ],
        "region": {"x_min": -2, "x_max": 2, "y_min": -2, "y_max": 2,
                   "coarse_step": 0.2, "refine_iterations": 4},
        "waypoint": {"total_length": 3.0, "update_rate": 2.0},
        "seed": 7,
        "trials": 2,
    }
    d.update(overrides)
    return d


@pytest.fixture(scope="module")
def fp_scenario():
    return load_scenario(FP_YAML, {"trials": 2})


class TestComputeRmse:
    def test_known_values(self):
        assert compute_rmse([3.0, 4.0], exclude_first=False) == pytest.approx(
            math.sqrt(12.5))
        assert compute_rmse([100.0, 1.0, 1.0], exclude_first=True) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            compute_rmse([], exclude_first=False)
        with pytest.raises(EmptyInput):
            compute_rmse([5.0], exclude_first=True)


class TestTrialRng:
    def test_streams_are_deterministic_and_distinct(self):
        a = trial_rng(1, 0).normal(size=4)
        b = trial_rng(1, 0).normal(size=4)
        c = trial_rng(1, 1).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSimTrial:
    def test_first_epoch_is_exact_and_excluded(self):
        s = scenario_from_dict(small_sim_dict())
        r = run_trial(s, 0)
        assert r.records[0].error == 0.0
        assert r.rmse == pytest.approx(
            compute_rmse([e.error for e in r.records], exclude_first=True))

    def test_determinism(self):
        s = scenario_from_dict(small_sim_dict())
        r1, r2 = run_trial(s, 0), run_trial(s, 0)
        assert [e.error for e in r1.records] == [e.error for e in r2.records]
        other = run_trial(s, 1)
        assert [e.error for e in r1.records] != [e.error for e in other.records]

    def test_theta_only_with_directional_antennas(self):
        s = scenario_from_dict(small_sim_dict())
        directional = run_trial(s, 0)
        assert all(len(e.theta) == 4 for e in directional.records)
        assert directional.theta_std is not None
        omni = run_trial(s.with_antenna_model(AntennaModel.OMNI), 0)
        assert all(not e.theta for e in omni.records)
        assert omni.theta_std is None

    def test_omni_swap_changes_preset(self):
        s = scenario_from_dict(small_sim_dict())
        omni = s.with_antenna_model(AntennaModel.OMNI)
        assert omni.preset is Preset.OMNI_OMNI
        assert all(isinstance(b.antenna, OmniAntenna) for b in omni.bs)
        assert s.preset is Preset.OMNI_DIR  # the original is untouched

    def test_epoch_spacing_matches_update_rate(self):
        s = scenario_from_dict(small_sim_dict())
        r = run_trial(s, 0)
        dts = np.diff([e.t for e in r.records])
        assert np.allclose(dts, 0.5)


class TestFpTrial:
    def test_record_count_and_mode(self, fp_scenario):
        db = scenario_db(fp_scenario)
        r = run_trial(fp_scenario, 0, db)
        assert len(r.records) == 48
        assert r.mode is Mode.FP_RSSD_TDOA
        # every error counts, including the first point
        assert r.rmse == pytest.approx(compute_rmse(r.errors, exclude_first=False))

    def test_noiseless_coarse_error_bounded_by_grid(self, fp_scenario):
        from dataclasses import replace
        from rssdloc.channel import ChannelParams, ChannelPresets, TdoaNoiseParams
        quiet = ChannelPresets(
            omni_omni=ChannelParams(1.7, 0.0),
            omni_dir=ChannelParams(2.1, 0.0))
        s = replace(fp_scenario, mode=Mode.FP_RSSD, presets=quiet,
                    tdoa_noise=TdoaNoiseParams(0.0))
        r = run_trial(s, 0, scenario_db(s))
        # the best-matching fingerprint is not always the geometrically
        # nearest grid point, but it stays within about one cell
        assert max(r.errors) <= 0.25 * math.sqrt(2) + 1e-9
        assert r.rmse < 0.2

    def test_db_is_deterministic(self, fp_scenario):
        a, b = scenario_db(fp_scenario), scenario_db(fp_scenario)
        assert np.array_equal(a.rss, b.rss)


class TestAggregate:
    def make_report(self, rmse, theta_std=None):
        rec = EpochRecord(0.0, Point2D(0, 0), Point2D(0, 0), 0.0)
        return RunReport(Mode.SIM_RSSD, 0, [rec], rmse, rmse, theta_std, 0.0)

    def test_median_and_mean(self):
        s = aggregate([self.make_report(r) for r in (1.0, 2.0, 6.0)])
        assert s.rmse_median == 2.0
        assert s.rmse_mean == pytest.approx(3.0)
        assert s.trials == 3
        assert s.theta_std_median is None

    def test_theta_median(self):
        s = aggregate([self.make_report(1.0, th) for th in (0.1, 0.3, 0.2)])
        assert s.theta_std_median == pytest.approx(0.2)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            aggregate([])


class TestScenarioLoading:
    def test_shipped_files_parse(self):
        sim = load_scenario(SIM_YAML)
        assert sim.mode is Mode.SIM_RSSD_TDOA
        assert len([b for b in sim.bs if b.role.measures_rss]) == 8
        assert sim.waypoint.total_length == pytest.approx(18.0)
        fp = load_scenario(FP_YAML)
        assert fp.mode is Mode.FP_RSSD_TDOA
        assert fp.circular.count == 48
        assert fp.fingerprint.grid_step == pytest.approx(0.25)

    def test_overrides(self):
        s = load_scenario(SIM_YAML, {"seed": 99, "waypoint.update_rate": 1.0})
        assert s.seed == 99
        assert s.waypoint.update_rate == 1.0

    def test_override_typo_rejected(self):
        with pytest.raises(UnknownKey, match=r"did you mean 'waypoint\.update_rate'"):
            load_scenario(SIM_YAML, {"waypoint.update_rat": 1.0})

    def test_file_typo_rejected(self):
        d = small_sim_dict()
        d["stations"][0]["antenna"] = {"gain_db": 6.5, "orientation": 45}
        with pytest.raises(UnknownKey, match=r"stations\[0\]\.antenna\.orientation_deg"):
            scenario_from_dict(d)

    def test_override_of_key_absent_from_file(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text(yaml.safe_dump(small_sim_dict()))
        assert "pause_time" not in small_sim_dict()["waypoint"]
        s = load_scenario(path, {"waypoint.pause_time": 0.5})
        assert s.waypoint.pause_time == 0.5

    def test_mode_requires_matching_track_section(self):
        d = small_sim_dict()
        del d["waypoint"]
        with pytest.raises(ValueError):
            scenario_from_dict(d)

    def test_tdoa_mode_needs_two_stations(self):
        d = small_sim_dict(mode="SIM_RSSD_TDOA")
        d["stations"] = [s for s in d["stations"] if s["id"] != 6]
        with pytest.raises(ValueError):
            scenario_from_dict(d)


class TestReportFiles:
    def test_csv_outputs(self, tmp_path):
        s = scenario_from_dict(small_sim_dict(trials=1))
        reports = run_scenario(s)
        write_report_files(reports, tmp_path)
        with open(tmp_path / "track.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(reports[0].records)
        assert set(rows[0]) == {"t", "x", "y", "x_hat", "y_hat", "err"}
        assert float(rows[0]["err"]) == 0.0
        with open(tmp_path / "theta.csv", newline="") as f:
            theta_rows = list(csv.DictReader(f))
        assert len(theta_rows) == 4 * len(reports[0].records)
        with open(tmp_path / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        assert len(summary) == 1
        assert float(summary[0]["rmse_median"]) == pytest.approx(
            reports[0].rmse, abs=1e-6)


class TestCli:
    def test_run_fp(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(FP_YAML), "--trials", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "track.csv").exists()
        assert "rmse_median" in capsys.readouterr().out

    def test_build_db(self, tmp_path):
        out = tmp_path / "db.csv"
        rc = main(["build-db", "--scenario", str(FP_YAML), "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:2] == ["x", "y"]
        assert len(rows) == 1 + 13 * 13 - 4

    def test_compare_modes(self, tmp_path, capsys):
        rc = main(["compare", "--scenario", str(FP_YAML), "--trials", "1",
                   "--modes", "FP_RSSD,FP_RSSD_TDOA", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["mode"] for r in rows] == ["FP_RSSD", "FP_RSSD_TDOA"]

    def test_sweep_rejects_unknown_param(self, tmp_path, capsys):
        rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1",
                   "--param", "circular.cont", "--values", "12",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "did you mean 'circular.count'" in capsys.readouterr().err

    def test_sweep(self, tmp_path, capsys):
        rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1",
                   "--param", "circular.count", "--values", "12,24",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "circular.count=12" in out and "circular.count=24" in out
