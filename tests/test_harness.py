import csv
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from rssdloc import harness
from rssdloc.channel import MeasurementSet, simulate_measurements
from rssdloc.cli import main
from rssdloc.errors import (CoincidentPosition, CoincidentWithStation, EmptyInput,
                             InvalidScenario, LocalizationError, UnknownKey)
from rssdloc.fingerprint import FingerprintDB, circular_track, coarse_estimate, refine_with_tdoa
from rssdloc.geometry import SPEED_OF_LIGHT, Point2D
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
    write_summary_csv,
)
from rssdloc.mobility import apply_orientation, generate_track, misorientation, update_orientation
from rssdloc.scenario import Mode, load_scenario, scenario_from_dict
from rssdloc.solver import AntennaModel, SolverConfig, solve_rssd, solve_rssd_tdoa

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FP_YAML = SCENARIO_DIR / "fp_3x3.yaml"
SIM_YAML = SCENARIO_DIR / "sim_8x8.yaml"
CLI_GOLDEN = Path(__file__).resolve().parent / "data" / "cli"


def small_sim_dict(**overrides):
    """A coarse, short simulation scenario that runs in well under a second."""
    d = {
        "name": "small",
        "mode": "SIM_RSSD",
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
        assert compute_rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert compute_rmse([1.0, 1.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            compute_rmse([])


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
        assert r.rmse == pytest.approx(compute_rmse([e.error for e in r.records[1:]]))
        assert r.mean_error == pytest.approx(np.mean([e.error for e in r.records[1:]]))

    def test_determinism(self):
        s = scenario_from_dict(small_sim_dict())
        r1, r2 = run_trial(s, 0), run_trial(s, 0)
        assert [e.error for e in r1.records] == [e.error for e in r2.records]
        other = run_trial(s, 1)
        assert [e.error for e in r1.records] != [e.error for e in other.records]

    def test_theta_only_with_directional_antennas(self):
        s = scenario_from_dict(small_sim_dict())
        directional = run_trial(s, 0)
        # one row per epoch, the known start's too, one column per station
        assert directional.theta.shape == (len(directional.records), 4)
        assert directional.ids.tolist() == [1, 2, 3, 4]
        assert directional.theta[0].tolist() == [0.0] * 4  # pointed at the known start
        assert directional.theta_std == np.std(directional.theta[1:])
        omni = run_trial(s.with_antenna_model(AntennaModel.OMNI), 0)
        assert omni.theta is None
        assert omni.theta_std is None

    def test_omni_swap_changes_preset(self):
        s = scenario_from_dict(small_sim_dict())
        omni = s.with_antenna_model(AntennaModel.OMNI)
        assert omni.channel is omni.presets.omni_omni
        assert (omni.stations.gain_db == 0).all() and not omni.stations.directional.any()
        assert omni.bs == s.bs  # as configured
        assert s.channel is s.presets.omni_dir  # the original is untouched

    def test_epoch_spacing_matches_update_rate(self):
        s = scenario_from_dict(small_sim_dict())
        r = run_trial(s, 0)
        dts = np.diff([e.t for e in r.records])
        assert np.allclose(dts, 0.5)

    @pytest.mark.parametrize("overrides, named", [
        # steps of an ulp or so at coordinates near 1 m: about 2e15 epochs
        ({"waypoint.speed": 1e-15, "waypoint.total_length": 1.0},
         ["waypoint.speed 1e-15", "waypoint.update_rate", "waypoint.total_length 1.0"]),
        # the first pause alone takes 2e12 epochs
        ({"waypoint.pause_time": 1e12}, ["waypoint.pause_time 1000000000000.0", "waypoint.update_rate"]),
        # an epoch reaches and redraws about 1e8 waypoints, or more
        ({"waypoint.speed": 1e9}, ["waypoint.speed 1000000000.0", "waypoint.update_rate"]),
        ({"waypoint.speed": 1e300}, ["waypoint.speed 1e+300", "waypoint.update_rate"]),
    ])
    def test_walk_past_the_limit_rejected(self, deadline, overrides, named):
        s = load_scenario(SIM_YAML, overrides)
        with deadline(1.0), pytest.raises(InvalidScenario) as e:
            run_trial(s, 0)
        assert all(name in str(e.value) for name in named), str(e.value)


class TestFpTrial:
    def test_record_count_and_mode(self, fp_scenario):
        db = scenario_db(fp_scenario)
        r = run_trial(fp_scenario, 0, db)
        assert len(r.records) == 48
        assert r.mode is Mode.FP_RSSD_TDOA
        # every error counts, including the first point
        assert r.rmse == pytest.approx(compute_rmse(r.errors))

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

    def test_tdoa_estimates_stay_in_region(self, fp_scenario):
        # the projection onto the hyperbola searches the region's heights,
        # and on fp_3x3 the TDOA pair's axis is the region's x axis
        db = scenario_db(fp_scenario)
        for trial in range(10):
            for r in run_trial(fp_scenario, trial, db).records:
                assert fp_scenario.region.contains(r.estimate, 1e-9), (trial, r.estimate)

    def test_db_is_deterministic(self, fp_scenario):
        a, b = scenario_db(fp_scenario), scenario_db(fp_scenario)
        assert np.array_equal(a.rss, b.rss)


def per_epoch_trial(s, trial, db):
    """Reference loop of a trial: each epoch is measured and then located on
    its own, as a stack of one.  A directional simulation points its
    antennas at the known start, takes each epoch's misorientation before
    measuring it, and re-points them at each estimate.  Returns the
    (t, true position, estimate) records, the fallback count, and the
    (epochs, stations) misorientation, or None without antenna feedback."""
    rng = trial_rng(s.seed, trial)
    if s.mode.is_sim:
        t, xy = generate_track(s.waypoint, rng)
        known = 1
    else:
        truth = circular_track(s.circular)
        t, xy = np.arange(len(truth), dtype=float), np.array([(p.x, p.y) for p in truth])
        known = 0
    stations = s.stations
    feedback = s.mode.is_sim and s.antenna_model is AntennaModel.DIRECTIONAL
    boresight = (update_orientation(stations.boresight, stations, Point2D(*xy[0].tolist()))
                 if feedback else None)
    records, fallbacks, theta = [], 0, []
    for idx, (te, row) in enumerate(zip(t.tolist(), xy[:, None])):
        pos = Point2D(*row[0].tolist())
        bs = stations
        if feedback:
            bs = apply_orientation(stations, boresight)
            theta.append(misorientation(boresight, stations, row)[0])
        cfg = SolverConfig(s.channel, bs, s.region, s.antenna_model)
        est = pos
        if idx >= known:
            m = simulate_measurements(bs, row, s.channel, s.tdoa_noise, rng)
            if s.mode is Mode.SIM_RSSD:
                (est,) = solve_rssd(cfg, m)
            elif s.mode is Mode.SIM_RSSD_TDOA:
                (est,) = solve_rssd_tdoa(cfg, m)
                if est is None:  # no hyperbola
                    fallbacks += 1
                    (est,) = solve_rssd(cfg, m)
            else:
                (est,) = coarse_estimate(db, m.rss)
                if s.mode is Mode.FP_RSSD_TDOA:
                    (refined,) = refine_with_tdoa([est], m.tdoa, stations, s.region)
                    if refined is None:
                        fallbacks += 1
                    else:
                        est = refined
        if feedback:
            boresight = update_orientation(boresight, stations, est)
        records.append((te, pos, est))
    return records, fallbacks, np.array(theta) if feedback else None


# every mode, and each simulation under both antenna models
MODELS = [(mode, model) for mode in Mode
          for model in (AntennaModel if mode.is_sim else [AntennaModel.DIRECTIONAL])]


class TestBatchedTrial:
    # a trial's scored epochs are drawn at once, and without antenna
    # feedback also located at once

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(MODELS), st.integers(0, 10_000), st.sampled_from([330e-12, 20e-9]))
    @example((Mode.SIM_RSSD, AntennaModel.DIRECTIONAL), 3, 330e-12)
    @example((Mode.SIM_RSSD, AntennaModel.DIRECTIONAL), 3, 20e-9)
    @example((Mode.SIM_RSSD_TDOA, AntennaModel.DIRECTIONAL), 3, 330e-12)
    @example((Mode.SIM_RSSD_TDOA, AntennaModel.DIRECTIONAL), 3, 20e-9)
    def test_equals_per_epoch_loop(self, fp_scenario, model, trial, sigma_tdoa):
        # 20 ns of TDOA noise makes some epochs fall back (TestTdoaFallback)
        mode, antenna_model = model
        if mode.is_sim:
            s = scenario_from_dict(small_sim_dict(mode=mode.value, antenna_model=antenna_model.value,
                                                  sigma_tdoa=sigma_tdoa))
            db = None
        else:
            s = load_scenario(FP_YAML, {"mode": mode.value, "circular.count": 16,
                                        "sigma_tdoa": sigma_tdoa})
            db = scenario_db(fp_scenario)
        r = run_trial(s, trial, db)
        records, fallbacks, theta = per_epoch_trial(s, trial, db)
        assert [(e.t, e.true_position, e.estimate) for e in r.records] == records
        assert r.tdoa_fallbacks == fallbacks
        assert (r.theta is None) if theta is None else np.array_equal(r.theta, theta)

    @pytest.mark.parametrize("mode, antenna_model, name", [
        (Mode.SIM_RSSD, AntennaModel.OMNI, "solve_rssd"),
        (Mode.SIM_RSSD, AntennaModel.DIRECTIONAL, "solve_rssd"),
        (Mode.SIM_RSSD_TDOA, AntennaModel.OMNI, "solve_rssd_tdoa"),
        (Mode.SIM_RSSD_TDOA, AntennaModel.DIRECTIONAL, "solve_rssd_tdoa"),
        (Mode.FP_RSSD, AntennaModel.DIRECTIONAL, "coarse_estimate"),
        (Mode.FP_RSSD_TDOA, AntennaModel.DIRECTIONAL, "coarse_estimate"),
    ])
    def test_locate_step_calls_per_trial(self, monkeypatch, fp_scenario, mode,
                                         antenna_model, name):
        calls = []
        step = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a: calls.append(a) or step(*a))
        if mode.is_sim:
            s = scenario_from_dict(small_sim_dict(mode=mode.value,
                                                  antenna_model=antenna_model.value))
        else:
            s = fp_scenario.with_mode(mode)
        r = run_trial(s, 0, None if mode.is_sim else scenario_db(s))
        # directional simulation re-points its antennas at every estimate, so
        # it locates epoch by epoch; any other trial locates once
        scored = len(r.records) - 1 if mode.is_sim else len(r.records)
        feedback = s.mode.is_sim and s.antenna_model is AntennaModel.DIRECTIONAL
        assert len(calls) == (scored if feedback else 1)

    @pytest.mark.parametrize("mode, antenna_model", MODELS)
    def test_channel_drawn_once_per_trial(self, monkeypatch, fp_scenario, mode, antenna_model):
        # re-pointing the antennas draws nothing: each chunk reads its
        # epochs from the trial's one draw
        drawn = []
        simulate = harness.simulate_measurements
        monkeypatch.setattr(harness, "simulate_measurements",
                            lambda *a: drawn.append(a) or simulate(*a))
        if mode.is_sim:
            s = scenario_from_dict(small_sim_dict(mode=mode.value,
                                                  antenna_model=antenna_model.value))
        else:
            s = fp_scenario.with_mode(mode)
        r = run_trial(s, 0, None if mode.is_sim else scenario_db(s))
        (args,) = drawn
        known = 1 if mode.is_sim else 0
        assert np.array_equal(args[1], [(e.true_position.x, e.true_position.y)
                                        for e in r.records[known:]])

    @pytest.mark.parametrize("mode, name, reads", [
        (Mode.SIM_RSSD, "solve_rssd", lambda m: m),
        (Mode.SIM_RSSD_TDOA, "solve_rssd_tdoa", lambda m: m),
        (Mode.FP_RSSD_TDOA, "refine_with_tdoa", lambda m: m.tdoa),
    ])
    def test_locate_step_reads_the_drawn_stack(self, monkeypatch, fp_scenario, mode, name,
                                               reads):
        # without antenna feedback the channel's one measurement set of a
        # trial is read whole by its one chunk, with the antennas it was
        # drawn with: the same rows, not re-stacked from per-epoch ones
        drawn, calls = [], []
        simulate, step = harness.simulate_measurements, getattr(harness, name)
        monkeypatch.setattr(harness, "simulate_measurements",
                            lambda *a: drawn.append(simulate(*a)) or drawn[-1])
        monkeypatch.setattr(harness, name, lambda *a: calls.append(a) or step(*a))
        if mode.is_sim:
            s = scenario_from_dict(small_sim_dict(mode=mode.value, antenna_model="OMNI"))
        else:
            s = fp_scenario.with_mode(mode)
        run_trial(s, 0, None if mode.is_sim else scenario_db(s))
        (m,), (args,) = drawn, calls
        assert m.rss.shape[0] > 1
        got, want = args[1], reads(m)
        if mode.is_sim:
            assert got.ids is want.ids and np.array_equal(got.rss, want.rss)
            got, want = got.tdoa, want.tdoa
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


def crafted_trial(monkeypatch, antenna_model, path):
    """Trial 0 of the small TDOA simulation along the positions path, its
    first one the known start."""
    xy = np.array(path, dtype=float)
    monkeypatch.setattr(harness, "generate_track",
                        lambda params, rng: (0.5 * np.arange(len(xy)), xy))
    s = scenario_from_dict(small_sim_dict(mode="SIM_RSSD_TDOA", antenna_model=antenna_model))
    return run_trial(s, 0)


class TestFailingTrack:
    # a track through a station fails its trial, before any locate step,
    # with the error of the first check it fails: simulate_measurements
    # checks the scored positions, TDOA stations (at any epoch) first, then
    # RSS stations; the misorientation at a directional trial's end checks
    # the known start too

    @pytest.mark.parametrize("antenna_model, path, error, message", [
        # through TDOA station 5 at (-3, 0)
        ("OMNI", [(0, 0), (-3, 0), (1, 1)], CoincidentPosition,
         "MU coincides with a TDOA station"),
        # starting on RSS station 3 at (3, 3): the known start is checked too
        ("DIRECTIONAL", [(3, 3), (1, 1), (0, 0)], CoincidentWithStation,
         "true position coincides with station 3"),
        # through TDOA station 5, then RSS station 3
        ("DIRECTIONAL", [(0, 0), (-3, 0), (3, 3)], CoincidentPosition,
         "MU coincides with a TDOA station"),
        ("DIRECTIONAL", [(0, 0), (1, 1), (-3, 0)], CoincidentPosition,
         "MU coincides with a TDOA station"),
        ("OMNI", [(0, 0), (1, 1), (3, 3), (1, 1)], CoincidentPosition,
         "MU coincides with station 3"),
    ])
    def test_raises_as_the_per_epoch_loop(self, monkeypatch, antenna_model, path, error,
                                          message):
        # these tracks meet one station each, so checking each epoch's
        # misorientation and then its channel, epoch by epoch, raises the same
        with pytest.raises(error) as e:
            crafted_trial(monkeypatch, antenna_model, path)
        assert str(e.value) == message

    @pytest.mark.parametrize("path, message", [
        # through RSS station 3: the channel's check, not the misorientation's
        ([(0, 0), (1, 1), (3, 3), (1, 1)], "MU coincides with station 3"),
        # through RSS station 3, then TDOA station 5
        ([(0, 0), (3, 3), (1, 1), (-3, 0)], "MU coincides with a TDOA station"),
        # starting on RSS station 3, then through TDOA station 5
        ([(3, 3), (1, 1), (-3, 0)], "MU coincides with a TDOA station"),
    ], ids=["rss-station", "rss-then-tdoa-station", "rss-start-then-tdoa-station"])
    def test_directional_track_raises_in_check_order(self, monkeypatch, path, message):
        with pytest.raises(LocalizationError) as e:
            crafted_trial(monkeypatch, "DIRECTIONAL", path)
        assert type(e.value) is CoincidentPosition and str(e.value) == message


class TestTdoaFallback:
    # 20 ns of TDOA noise spreads the half range difference r by 3 m, so
    # some epochs measure |r| beyond the TDOA pair's half-separation (3 m in
    # the small scenario, 1.5 m in fp_3x3)

    def test_sim_epoch_falls_back_to_rssd(self, monkeypatch):
        s = scenario_from_dict(small_sim_dict(mode="SIM_RSSD_TDOA", sigma_tdoa=20e-9))
        calls = []  # per locate step: its stack, then the stack of its fallback
        solve_rssd, solve_rssd_tdoa = harness.solve_rssd, harness.solve_rssd_tdoa
        monkeypatch.setattr(harness, "solve_rssd_tdoa",
                            lambda cfg, m: calls.append([m]) or solve_rssd_tdoa(cfg, m))
        monkeypatch.setattr(harness, "solve_rssd",
                            lambda cfg, m: calls[-1].append(m) or solve_rssd(cfg, m))
        reports = run_scenario(s)
        counts = [r.tdoa_fallbacks for r in reports]
        assert 0 < sum(counts) < sum(len(r.records) - 1 for r in reports)
        # half-separation 3 m: the degenerate epochs of a locate step, and
        # only they, fall back in one stack of their rows
        degenerate = 0
        for m, *fallback in calls:
            gaps = np.flatnonzero(np.abs(0.5 * SPEED_OF_LIGHT * m.tdoa[2]) >= 3.0 - 1e-9)
            assert len(fallback) == (len(gaps) > 0)
            if fallback:
                assert np.array_equal(fallback[0].rss, m.rss[gaps])
            degenerate += len(gaps)
        assert degenerate == sum(counts)
        assert aggregate(reports).tdoa_fallbacks == sum(counts)

    @pytest.mark.parametrize("mode, without", [(Mode.SIM_RSSD_TDOA, Mode.SIM_RSSD),
                                               (Mode.FP_RSSD_TDOA, Mode.FP_RSSD)])
    def test_nan_tdoa_falls_back(self, fp_scenario, mode, without):
        # a NaN TDOA has no hyperbola: its epoch takes the estimate without
        # TDOA and counts as a fallback, and the other epoch keeps its own
        s = (scenario_from_dict(small_sim_dict(mode=mode.value)) if mode.is_sim
             else fp_scenario.with_mode(mode))
        db = None if mode.is_sim else scenario_db(s)
        m = simulate_measurements(s.stations, np.array([(1.0, 1.0), (1.5, 0.5)]),
                                  s.channel, s.tdoa_noise, np.random.default_rng(0))
        m.tdoa[2][0] = math.nan

        def epoch(e):
            return MeasurementSet(m.ids, m.rss[e:e + 1], m.tdoa[:2] + (m.tdoa[2][e:e + 1],))

        locate = harness._LOCATE[mode]
        estimates, fell_back = locate(s, db, s.stations, m)
        assert fell_back == 1
        assert estimates[0] == harness._LOCATE[without](s, db, s.stations, epoch(0))[0][0]
        assert estimates[1] == locate(s, db, s.stations, epoch(1))[0][0]

    def test_fp_epoch_keeps_coarse_estimate(self, fp_scenario):
        db = scenario_db(fp_scenario)
        assert run_trial(fp_scenario, 0, db).tdoa_fallbacks == 0
        s = load_scenario(FP_YAML, {"sigma_tdoa": 20e-9})
        tdoa = run_trial(s, 0, db)
        coarse = run_trial(s.with_mode(Mode.FP_RSSD), 0, db)
        kept = sum(a.estimate == b.estimate for a, b in zip(tdoa.records, coarse.records))
        assert 0 < tdoa.tdoa_fallbacks == kept < len(tdoa.records)
        assert coarse.tdoa_fallbacks == 0


class TestAggregate:
    def make_report(self, rmse, theta_std=None):
        rec = EpochRecord(0.0, Point2D(0, 0), Point2D(0, 0), 0.0)
        return RunReport(Mode.SIM_RSSD, 0, [rec], rmse, rmse, theta_std)

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

    @pytest.mark.parametrize("path, value, near", [
        ("mode", "SIM_RSD", "SIM_RSSD"),
        ("antenna_model", "OMINI", "OMNI"),
        ("stations.0.role", "RSS_TDAO", "RSS_TDOA"),
    ])
    def test_enum_typo_names_nearest_value(self, path, value, near):
        d = small_sim_dict()
        node, *keys = path.split(".")
        if keys:
            d[node][int(keys[0])][keys[1]] = value
        else:
            d[node] = value
        with pytest.raises(InvalidScenario, match=f"unknown .* '{value}'; did you mean '{near}'"):
            scenario_from_dict(d)

    def test_file_typo_rejected(self):
        d = small_sim_dict()
        d["stations"][0]["antenna"] = {"gain_db": 6.5, "orientation": 45}
        with pytest.raises(UnknownKey, match=r"stations\[0\]\.antenna\.orientation_deg"):
            scenario_from_dict(d)
        # the track moves over the region; there is no area of its own
        d = small_sim_dict()
        d["waypoint"]["area"] = d["region"]
        with pytest.raises(UnknownKey, match=r"unknown scenario key 'waypoint\.area'; "
                                             r"valid keys: pause_time, speed"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("path, text, problem", [
        ("trials", "2.7", "expected a whole number, got 2.7"),
        ("trials", "true", "expected a number, got True"),
        ("seed", "1.5", "expected a whole number, got 1.5"),
        ("circular.count", "false", "expected a number, got False"),
        ("waypoint.speed", ".nan", "expected a finite number, got nan"),
        ("waypoint.total_length", ".inf", "expected a finite number, got inf"),
        ("waypoint.update_rate", "true", "expected a number, got True"),
        ("region.coarse_step", ".nan", "expected a finite number, got nan"),
        ("sigma_tdoa", ".inf", "expected a finite number, got inf"),
        ("sigma_tdoa", "-.inf", "expected a finite number, got -inf"),
        ("sigma_tdoa", "true", "expected a number, got True"),
    ])
    def test_numbers_checked_not_coerced(self, path, text, problem):
        # each value read as a file or a sweep reads it
        with pytest.raises(InvalidScenario,
                           match=rf"invalid scenario key '{path}': {problem}$"):
            load_scenario(SIM_YAML, {path: yaml.safe_load(text)})

    def test_whole_float_reads_as_int(self):
        s = load_scenario(SIM_YAML, {"trials": 2.0, "seed": yaml.safe_load("3.0")})
        assert (s.trials, s.seed) == (2, 3)
        assert type(s.trials) is int and type(s.seed) is int

    def test_override_of_key_absent_from_file(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text(yaml.safe_dump(small_sim_dict()))
        assert "pause_time" not in small_sim_dict()["waypoint"]
        s = load_scenario(path, {"waypoint.pause_time": 0.5})
        assert s.waypoint.pause_time == 0.5

    def test_override_through_value_key_rejected(self):
        with pytest.raises(UnknownKey, match=r"'seed' has no sub-keys"):
            load_scenario(SIM_YAML, {"seed.x": 1})

    def test_antenna_model_is_the_one_antenna_switch(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text(yaml.safe_dump(small_sim_dict()))
        library = scenario_from_dict(small_sim_dict()).with_antenna_model(
            AntennaModel.OMNI)
        override = load_scenario(path, {"antenna_model": "OMNI"})
        path.write_text(yaml.safe_dump(small_sim_dict(antenna_model="OMNI")))
        in_file = load_scenario(path)
        assert library == override == in_file
        assert override.channel is override.presets.omni_omni
        assert (override.stations.gain_db == 0).all()
        assert not override.stations.directional.any()
        assert run_trial(override, 0).errors == run_trial(library, 0).errors

    def test_antenna_model_round_trip(self):
        # OMNI leaves the configured antennas in bs, so DIRECTIONAL runs
        # them again
        s = load_scenario(SIM_YAML)
        back = s.with_antenna_model(AntennaModel.OMNI).with_antenna_model(
            AntennaModel.DIRECTIONAL)
        assert back == s
        got, want = run_trial(back, 0), run_trial(s, 0)
        assert ([(e.t, e.true_position, e.estimate, e.error) for e in got.records]
                == [(e.t, e.true_position, e.estimate, e.error) for e in want.records])
        assert got.theta.tobytes() == want.theta.tobytes()

    def test_directional_rejects_omni_rss_station(self):
        d = small_sim_dict()
        d["stations"][0]["antenna"] = "omni"
        with pytest.raises(ValueError, match="station 1"):
            scenario_from_dict(d)
        d["antenna_model"] = "OMNI"
        assert scenario_from_dict(d).antenna_model is AntennaModel.OMNI

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(InvalidScenario, match=f"trials must be >= 1, got {trials}"):
            scenario_from_dict(small_sim_dict(trials=trials))
        with pytest.raises(InvalidScenario, match="trials must be >= 1"):
            load_scenario(FP_YAML, {"trials": trials})

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

    def test_negative_refine_iterations_rejected(self):
        with pytest.raises(InvalidScenario, match=r"invalid scenario key 'region': "
                                                  r"refine_iterations must be >= 0, got -1$"):
            load_scenario(SIM_YAML, {"region.refine_iterations": -1})
        assert load_scenario(SIM_YAML, {"region.refine_iterations": 0}).region.refine_iterations == 0

    @pytest.mark.parametrize("length", [0, -2.5])
    def test_empty_sim_track_rejected(self, length):
        # a simulation without track length would end every trial in
        # "no epochs to score"; a fingerprint scenario does not walk it
        with pytest.raises(InvalidScenario, match=f"waypoint.total_length must be > 0, "
                                                  f"got {float(length)}"):
            load_scenario(SIM_YAML, {"waypoint.total_length": length})
        d = yaml.safe_load(FP_YAML.read_text())
        d["waypoint"] = {"total_length": length}
        scenario = scenario_from_dict(d)
        with pytest.raises(InvalidScenario, match="waypoint.total_length"):
            scenario.with_mode(Mode.SIM_RSSD)

    def test_station_on_the_fingerprint_grid_rejected(self, tmp_path):
        # the grid point, not the user, would coincide with station 4; a
        # database read from a file has no grid
        path = write_copy(tmp_path, lambda d: d["stations"][3].update(x=1.5, y=1.5))
        with pytest.raises(InvalidScenario, match=r"^fingerprint grid point \(1.5, 1.5\) "
                                                  r"coincides with station 4; list it in "
                                                  r"fingerprint.excluded$"):
            load_scenario(path)
        db_file = tmp_path / "db.csv"
        scenario_db(load_scenario(FP_YAML)).to_csv(db_file)
        assert load_scenario(path, {"fingerprint.db_file": str(db_file)}).mode is Mode.FP_RSSD_TDOA

    @pytest.mark.parametrize("step", [1e-4, 1e-300, 3.0 / 316])
    def test_grid_past_the_limit_rejected(self, deadline, step):
        # 1e-4 m on fp_3x3's 3 m square is 9e8 points, about 14 GB at once;
        # 3 / 316 m is 317 x 317 points, the least square grid past 10^5
        with deadline(1.0), pytest.raises(InvalidScenario, match=(
                rf"^fingerprint.grid_step {step} m puts more than 100,000 grid points")):
            load_scenario(FP_YAML, {"fingerprint.grid_step": step})
        edge = load_scenario(FP_YAML, {"fingerprint.grid_step": 3.0 / 315})
        assert len(scenario_db(edge)) == 316 * 316 - 4

    def test_circular_track_past_the_limit_rejected(self, deadline):
        with deadline(1.0), pytest.raises(InvalidScenario, match=(
                r"^circular.count 1000000000 is more than the 100,000 epochs")):
            load_scenario(FP_YAML, {"circular.count": 10**9})
        assert load_scenario(FP_YAML, {"circular.count": 10**5}).circular.count == 10**5

    @pytest.mark.parametrize("source, mode", [
        ("fp_3x3.yaml", "FP_RSSD"), ("fp_3x3.yaml", "FP_RSSD_TDOA"),
        ("sim_8x8.yaml", "SIM_RSSD"), ("sim_8x8.yaml", "SIM_RSSD_TDOA"),
    ])
    def test_third_tdoa_station_rejected_in_every_mode(self, tmp_path, source, mode):
        # every mode draws the TDOA pair's measurement, so no mode may have three
        path = write_copy(tmp_path, third_tdoa_station(mode), SCENARIO_DIR / source)
        with pytest.raises(InvalidScenario, match="at most two stations may be "
                                                  "TDOA-capable, got stations"):
            load_scenario(path)


class TestReportFiles:
    def test_csv_outputs(self, tmp_path):
        s = scenario_from_dict(small_sim_dict(trials=1))
        reports = run_scenario(s)
        write_report_files(reports, tmp_path)
        write_summary_csv([("small", aggregate(reports))], tmp_path / "summary.csv")
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
        assert summary[0]["label"] == "small"
        assert float(summary[0]["rmse_median"]) == pytest.approx(
            reports[0].rmse, abs=1e-6)


class TestOutputBytes:
    """The CLI's files byte for byte against committed ones under
    tests/data/cli: `run` of one trial of the small directional simulation,
    and `build-db` of fp_3x3.  A change that moves them on purpose
    re-records them and says why."""

    def test_run(self, tmp_path):
        path = tmp_path / "small.yaml"
        path.write_text(yaml.safe_dump(small_sim_dict(trials=1)))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        for name in ("track.csv", "theta.csv", "summary.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (CLI_GOLDEN / name).read_bytes(), name

    def test_build_db(self, tmp_path):
        out = tmp_path / "fingerprints.csv"
        assert main(["build-db", "--scenario", str(FP_YAML), "--out", str(out)]) == 0
        assert out.read_bytes() == (CLI_GOLDEN / "fingerprints.csv").read_bytes()


def write_copy(tmp_path, edit, source=FP_YAML):
    d = yaml.safe_load(source.read_text())
    edit(d)
    path = tmp_path / source.name
    path.write_text(yaml.safe_dump(d))
    return path


def third_tdoa_station(mode):
    def edit(d):
        d["mode"] = mode
        d["stations"][2]["role"] = "RSS_TDOA"
    return edit


class TestCli:
    def test_run_fp(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(FP_YAML), "--trials", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "track.csv").exists()
        assert capsys.readouterr().out.startswith("fp_3x3: trials=1 rmse_median=")
        with open(tmp_path / "summary.csv", newline="") as f:
            assert [r["label"] for r in csv.DictReader(f)] == ["fp_3x3"]

    def test_run_reports_missing_key(self, tmp_path, capsys):
        path = write_copy(tmp_path, lambda d: d["region"].pop("x_min"))
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing scenario key 'region.x_min'\n"

    def test_sweep_reports_a_walk_that_cannot_move(self, tmp_path, capsys, deadline):
        with deadline(1.0):
            rc = main(["sweep", "--scenario", str(SIM_YAML), "--trials", "1",
                       "--param", "waypoint.update_rate", "--values", "1e16",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: waypoint.speed ") and "moves the user nowhere" in err

    def test_run_reports_failed_scenario_check(self, tmp_path, capsys):
        path = write_copy(tmp_path,
                             lambda d: d["stations"][0].update(antenna="omni"))
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "RSS station 1" in err

    def test_run_reports_third_tdoa_station(self, tmp_path, capsys):
        path = write_copy(tmp_path, third_tdoa_station("FP_RSSD"))
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: at most two stations may be TDOA-capable, got stations 1, 2, 3\n")

    def test_run_reports_duplicate_station_id(self, tmp_path, capsys):
        path = write_copy(tmp_path, lambda d: d["stations"][1].update(id=1), SIM_YAML)
        rc = main(["run", "--scenario", str(path), "--trials", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: duplicate station id 1\n"

    def test_run_reports_zero_trials(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(FP_YAML), "--trials", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("command", [
        ["run"],
        ["sweep", "--param", "circular.count", "--values", "12"],
        ["compare", "--modes", "FP_RSSD"],
    ])
    def test_out_that_is_a_file_reported(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        rc = main([*command, "--scenario", str(FP_YAML), "--trials", "1",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("edit, problem", [
        (lambda rows: [rows[0].replace("P_4", "P_9")] + rows[1:],
         "columns P_9 name no RSS station of the scenario"),
        (lambda rows: [rows[0].replace("P_4", "Q_4")] + rows[1:],
         "column 6 is 'Q_4', not P_<station id>"),
        (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0]] + rows[4:],
         "line 4 has 5 fields, the header 6"),
        (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0] + ",abc"] + rows[4:],
         "line 4: could not convert string to float: 'abc'"),
    ], ids=["unknown-station", "bad-header", "short-row", "not-a-number"])
    def test_run_reports_bad_fingerprint_file(self, tmp_path, capsys, edit, problem):
        db_file = tmp_path / "db.csv"
        assert main(["build-db", "--scenario", str(FP_YAML), "--out", str(db_file)]) == 0
        db_file.write_text("\n".join(edit(db_file.read_text().splitlines())) + "\n")
        path = write_copy(tmp_path, lambda d: d["fingerprint"].update(db_file=str(db_file)))
        capsys.readouterr()
        rc = main(["run", "--scenario", str(path), "--trials", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: fingerprint file {str(db_file)!r}: {problem}\n"
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_run_fp_from_db_file(self, tmp_path, capsys):
        # a database written by build-db gives the synthesized one's estimates
        db_file = tmp_path / "db.csv"
        assert main(["build-db", "--scenario", str(FP_YAML), "--out", str(db_file)]) == 0
        path = write_copy(tmp_path, lambda d: d["fingerprint"].update(db_file=str(db_file)))
        loaded, built = load_scenario(path), load_scenario(FP_YAML)
        assert run_trial(loaded, 0).errors == run_trial(built, 0).errors

    @pytest.mark.parametrize("columns", ["reversed", "without-station-2"])
    def test_run_fp_from_db_file_columns(self, tmp_path, columns):
        # a loaded database's columns are matched by station id, in any order
        db = scenario_db(load_scenario(FP_YAML))
        ids = db.bs_ids[::-1] if columns == "reversed" else [i for i in db.bs_ids if i != 2]
        cols = [db.bs_ids.index(i) for i in ids]
        db_file = tmp_path / "db.csv"
        FingerprintDB(db.positions, db.rss[:, cols], ids).to_csv(db_file)
        path = write_copy(tmp_path, lambda d: d["fingerprint"].update(db_file=str(db_file)))
        s = load_scenario(path, {"mode": "FP_RSSD"})
        loaded = FingerprintDB.from_csv(db_file)  # to_csv rounds to 1e-4 dB
        rng = trial_rng(s.seed, 0)
        want = [coarse_estimate(loaded, [simulate_measurements(
                    s.stations, pos, s.channel, s.tdoa_noise, rng).rss[cols]])[0]
                for pos in circular_track(s.circular)]
        assert [e.estimate for e in run_trial(s, 0).records] == want

    @pytest.mark.parametrize("ids", [[1, 2, 3, 9], [1, 2, 3, 0], [1, 2, 3, 5]])
    def test_run_trial_rejects_db_of_other_stations(self, fp_scenario, ids):
        db = scenario_db(fp_scenario)
        other = FingerprintDB(db.positions, db.rss, ids)
        with pytest.raises(ValueError, match=r"fingerprint columns \[1, 2, 3, \d\] name stations "
                                             r"outside \[1, 2, 3, 4\]"):
            run_trial(fp_scenario, 0, other)

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

    def test_compare_rejects_unknown_mode_before_any_run(self, tmp_path, capsys,
                                                          monkeypatch):
        def no_run(s):
            raise AssertionError("a run started")

        monkeypatch.setattr("rssdloc.cli.run_scenario", no_run)
        rc = main(["compare", "--scenario", str(FP_YAML), "--trials", "1",
                   "--modes", "FP_RSSD,FP_RSSD_TDAO", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown Mode 'FP_RSSD_TDAO'; "
                              "did you mean 'FP_RSSD_TDOA'?")
        rc = main(["compare", "--scenario", str(FP_YAML), "--trials", "1",
                   "--modes", "FP_RSSD,FOO", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown Mode 'FOO'; did you mean '")
        assert "valid: SIM_RSSD, SIM_RSSD_TDOA, FP_RSSD, FP_RSSD_TDOA" in err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("modes", [",", " , "])
    def test_compare_rejects_empty_mode_list(self, tmp_path, capsys, modes):
        rc = main(["compare", "--scenario", str(FP_YAML), "--trials", "1",
                   "--modes", modes, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --modes lists no items: {modes!r}\n"
        assert not (tmp_path / "summary.csv").exists()

    def test_run_reports_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nosuch.yaml"
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario file '{path}'")

    @pytest.mark.parametrize("content", [b"name: [x\n", b"\xff\xfe name: x\n"])
    def test_run_reports_unparsable_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario file '{path}'")

    @pytest.mark.parametrize("text, kind", [("- 1\n- 2\n", "list"),
                                            ("", "NoneType"),
                                            ("just text\n", "str")])
    def test_run_reports_non_mapping_file(self, tmp_path, capsys, text, kind):
        path = tmp_path / "flat.yaml"
        path.write_text(text)
        rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: scenario file '{path}' must hold a mapping, got {kind}\n")

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
        assert "circular.count=12: trials=1 " in out and "circular.count=24: trials=1 " in out
        with open(tmp_path / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["label"] for r in rows] == ["circular.count=12", "circular.count=24"]

    def test_sweep_rejects_empty_value_list(self, tmp_path, capsys):
        rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1",
                   "--param", "circular.count", "--values", ",",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --values lists no items: ','\n"
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("values, item", [("[1", "[1"), ("12, {a: 1", "{a: 1")])
    def test_sweep_rejects_unparsable_value(self, tmp_path, capsys, monkeypatch,
                                            values, item):
        def no_run(s):
            raise AssertionError("a run started")

        monkeypatch.setattr("rssdloc.cli.run_scenario", no_run)
        rc = main(["sweep", "--scenario", str(FP_YAML), "--param", "trials",
                   "--values", values, "--out", str(tmp_path)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --values item {item!r} is not a YAML value\n"
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("how", ["flag", "file", "sweep"])
    def test_negative_seed_rejected_at_load(self, tmp_path, capsys, monkeypatch, how):
        def no_run(s):
            raise AssertionError("a run started")

        monkeypatch.setattr("rssdloc.cli.run_scenario", no_run)
        scenario = str(write_copy(tmp_path, lambda d: d.update(seed=-1)) if how == "file"
                       else FP_YAML)
        command = {"flag": ["run", "--seed", "-1"], "file": ["run"],
                   "sweep": ["sweep", "--param", "seed", "--values", "0,-1"]}[how]
        rc = main([*command, "--scenario", scenario, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        with pytest.raises(InvalidScenario, match="seed must be >= 0"):
            load_scenario(FP_YAML, {"seed": -1})

    def test_sweep_checks_every_value_before_any_run(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_run(s):
            raise AssertionError("a run started")

        monkeypatch.setattr("rssdloc.cli.run_scenario", no_run)
        for param, values, problem in [
                ("circular.count", "12,0", "count must be >= 1"),
                ("fingerprint.grid_step", "0.25,0", "grid_step must be > 0, got 0.0"),
                ("fingerprint.db_sigma_beta", "-1", "db_sigma_beta must be >= 0, got -1.0"),
                ("trials", "2.7,true", "'trials': expected a whole number, got 2.7")]:
            # a swept trials key wins over --trials and is checked
            rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1", "--param", param,
                       "--values", values, "--out", str(tmp_path)])
            assert rc == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and problem in err
            assert not (tmp_path / "summary.csv").exists()

    def test_swept_seed_beats_the_flag(self, tmp_path, capsys, monkeypatch):
        seeds = []
        run = harness.run_scenario
        monkeypatch.setattr("rssdloc.cli.run_scenario", lambda s: seeds.append(s.seed) or run(s))
        rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1", "--seed", "5",
                   "--param", "seed", "--values", "1,2", "--out", str(tmp_path)])
        assert rc == 0
        assert seeds == [1, 2]
        out = capsys.readouterr().out
        assert "seed=1: trials=1 " in out and "seed=2: trials=1 " in out

    def test_sweep_antenna_model(self, tmp_path, capsys):
        rc = main(["sweep", "--scenario", str(FP_YAML), "--trials", "1",
                   "--param", "antenna_model", "--values", "DIRECTIONAL,OMNI",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "summary.csv", newline="") as f:
            rmse = [float(r["rmse_median"]) for r in csv.DictReader(f)]
        assert len(rmse) == 2 and rmse[0] != rmse[1]
