"""Closed-loop Monte Carlo experiment runner and metrics.

Every mode runs one loop over chunks of epochs.  The channel of the whole
scored track is drawn once per trial, in one stacked call at the true
positions: its fading and TDOA noise, path loss, directions and TDOAs.
Each chunk reads its epochs from that draw with the antennas' current
boresights, which adds only their gain, giving one measurement set of the
chunk's (T, N) RSS block and TDOA column; the mode's locate step estimates
the whole chunk from it in one call, and the estimates are scored.  The
mode picks, once per trial, the track, whether its start is known and
unscored (in simulation), whether the antennas are re-pointed at each
estimate (directional simulation), and the locate step.

Re-pointing makes each epoch's measurement depend on the last estimate, so
a directional simulation runs chunks of one epoch, and takes the
misorientation of the whole trial at its end, from the boresights each
epoch had.  Every other trial's scored epochs are one chunk, and its
locate step sees the whole stack.  Locating draws no random numbers, so
the measurements are drawn in the same order either way.

A failing track raises where the trial first checks it, before any
locate step: simulate_measurements checks the scored positions (a third
TDOA station, the first epoch on a TDOA station, too few RSS stations,
the first epoch on an RSS station, in that order), so a directional track
through an RSS station raises its CoincidentPosition.  A directional
track that only starts on one raises CoincidentWithStation from the
misorientation at the trial's end.

The solver and fingerprint calls of the locate steps give a chunk's
estimates as (xy, ok): a (T, 2) array and a (T,) mask of the epochs
they located.  An epoch's noisy TDOA can put the measured range difference at
or beyond the station half-separation, where no hyperbola exists, and the
TDOA step masks such an epoch out.  Its row falls back to the estimate
without TDOA (the 2-D RSSD fit, or the coarse fingerprint match), by one
indexed assignment of the ~ok rows for both modes, and is counted in
RunReport.tdoa_fallbacks; the simulation fits a chunk's fallback epochs in
one stack.  The trial keeps its true positions and estimates as (T, 2)
arrays, and builds its EpochRecords from them once, at its end, each
error the math.hypot of geometry.distance; an estimate the antennas were
re-pointed at keeps the Point2D built for update_orientation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelParams, MeasurementSet, simulate_measurements
from .errors import EmptyInput, InvalidScenario
from .fingerprint import FingerprintDB, build_db, circular_track, coarse_estimate, refine_with_tdoa
from .geometry import Point2D, distance
from .mobility import apply_orientation, generate_track, misorientation, update_orientation
from .scenario import Mode, Scenario
from .solver import AntennaModel, SolverConfig, solve_rssd, solve_rssd_tdoa

_DB_STREAM_TAG = 0xDB  # sub-stream id for fingerprint database noise


@dataclass
class EpochRecord:
    t: float
    true_position: Point2D
    estimate: Point2D
    error: float


@dataclass
class RunReport:
    mode: Mode
    trial: int
    records: List[EpochRecord]  # every epoch, a simulated track's known start too
    rmse: float
    mean_error: float
    theta_std: Optional[float]  # rad, over all scored epochs and antennas
    tdoa_fallbacks: int = 0  # TDOA epochs solved without their degenerate TDOA
    # rad, (epochs, stations) misorientation of a directional simulation
    # (every epoch, as records), else None; its columns are ids'
    theta: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None  # the RSS stations' ids, ascending

    @property
    def errors(self) -> List[float]:
        return [r.error for r in self.records]


def compute_rmse(errors: Sequence[float]) -> float:
    if len(errors) == 0:
        raise EmptyInput("no epochs to score")
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def scenario_db(s: Scenario) -> FingerprintDB:
    """The fingerprint database a scenario runs against.

    Loaded from fingerprint.db_file when given, otherwise synthesized from
    the channel model with the configured offline fading level.  A loaded
    database may only hold columns of the scenario's RSS stations.
    """
    if s.fingerprint.db_file:
        db = FingerprintDB.from_csv(s.fingerprint.db_file)
        unknown = sorted(set(db.bs_ids) - set(s.stations.ids.tolist()))
        if unknown:
            raise InvalidScenario(
                f"fingerprint file {s.fingerprint.db_file!r}: columns P_"
                + ", P_".join(map(str, unknown)) + " name no RSS station of the scenario")
        return db
    db_channel = ChannelParams(
        alpha=s.channel.alpha, sigma_beta=s.fingerprint.db_sigma_beta,
        p0=s.channel.p0, d0=s.channel.d0)
    rng = np.random.default_rng([s.seed, _DB_STREAM_TAG])
    return build_db(s.stations, s.region, s.fingerprint.grid_step,
                    s.fingerprint.excluded, db_channel, rng)


# The locate step of each mode: (scenario, fingerprint DB, the station table
# as pointed now, the measurement set of a stack of epochs) -> (the (T, 2)
# array of their estimates, how many of them fell back from their TDOA).

def _rssd(s, db, bs, ms):
    return solve_rssd(SolverConfig(s.channel, bs, s.region, s.antenna_model), ms)[0], 0


def _fall_back(found, without_tdoa):
    """The (xy, ok) TDOA estimates of a stack with the rows of its epochs
    without a hyperbola (~ok) set to without_tdoa(~ok), their estimates
    without TDOA, and how many were set."""
    xy, ok = found
    gaps = len(ok) - np.count_nonzero(ok)
    if gaps:
        xy[~ok] = without_tdoa(~ok)
    return xy, int(gaps)


def _rssd_tdoa(s, db, bs, ms):
    cfg = SolverConfig(s.channel, bs, s.region, s.antenna_model)
    return _fall_back(solve_rssd_tdoa(cfg, ms),
                      lambda gaps: solve_rssd(cfg, MeasurementSet(ms.ids, ms.rss[gaps]))[0])


def _match(s, db, bs, ms):
    # a loaded database may hold some of the stations, in any column order
    cols = np.searchsorted(ms.ids, db.bs_ids)
    if not np.array_equal(ms.ids.take(cols, mode="clip"), db.bs_ids):
        raise ValueError(f"fingerprint columns {db.bs_ids} name stations outside {ms.ids.tolist()}")
    return coarse_estimate(db, ms.rss[:, cols])[0], 0


def _match_tdoa(s, db, bs, ms):
    coarse, _ = _match(s, db, bs, ms)
    return _fall_back(refine_with_tdoa(coarse, ms.tdoa, bs, s.region), lambda gaps: coarse[gaps])


_LOCATE = {Mode.SIM_RSSD: _rssd, Mode.SIM_RSSD_TDOA: _rssd_tdoa,
           Mode.FP_RSSD: _match, Mode.FP_RSSD_TDOA: _match_tdoa}


def run_trial(s: Scenario, trial: int,
              db: Optional[FingerprintDB] = None) -> RunReport:
    """Run one seeded trial of a scenario.

    A fingerprint mode builds its database when db is None.
    """
    rng = trial_rng(s.seed, trial)
    if s.mode.is_sim:
        t, xy = generate_track(s.waypoint, rng)
        truth = [Point2D(x, y) for x, y in xy.tolist()]
        known = 1  # the start position is known
    else:
        db = scenario_db(s) if db is None else db
        truth = circular_track(s.circular)
        t, xy = np.arange(len(truth), dtype=float), np.array([(p.x, p.y) for p in truth])
        known = 0
    stations = s.stations
    # the antennas start pointed at the known start position
    boresight = (update_orientation(stations.boresight, stations, truth[0])
                 if s.mode.is_sim and s.antenna_model is AntennaModel.DIRECTIONAL else None)
    pointed = None  # each epoch's boresights, with antenna feedback
    if boresight is not None:
        pointed = np.empty((len(t), len(stations.ids)))
        pointed[:known] = boresight
    drawn = simulate_measurements(stations, xy[known:], s.channel, s.tdoa_noise, rng)
    locate = _LOCATE[s.mode]

    # the estimates, where the known start stays and every other row is
    # located, and the same as points, each built once
    estimates, points = xy.copy(), truth[:known]
    fallbacks = 0
    start = known
    while start < len(t):
        # With antenna feedback each estimate points the antennas for the
        # next epoch, so every epoch is a chunk; without it the scored
        # track is one.
        stop = start + 1 if boresight is not None else len(t)
        now = stations
        if boresight is not None:
            pointed[start] = boresight
            now = apply_orientation(stations, boresight)
        ms = drawn.received_by(now, slice(start - known, stop - known))
        estimates[start:stop], fell_back = locate(s, db, now, ms)
        fallbacks += fell_back
        if boresight is not None:  # the antennas re-point at the new estimate
            points.append(Point2D(*estimates[start].tolist()))
            boresight = update_orientation(boresight, stations, points[-1])
        start = stop
    points += [Point2D(*p) for p in estimates[len(points):].tolist()]  # no re-pointing built them
    theta = None if pointed is None else misorientation(pointed, stations, xy)
    records = [EpochRecord(te, pos, est, distance(pos, est))
               for te, pos, est in zip(t.tolist(), truth, points)]
    errors = [r.error for r in records[known:]]
    return RunReport(mode=s.mode, trial=trial, records=records, rmse=compute_rmse(errors),
                     mean_error=float(np.mean(errors)),
                     theta_std=None if theta is None else float(np.std(theta[known:])),
                     tdoa_fallbacks=fallbacks, theta=theta, ids=stations.ids)


def run_scenario(s: Scenario) -> List[RunReport]:
    """Run all configured trials; trial k uses the derived stream (seed, k)."""
    db = scenario_db(s) if not s.mode.is_sim else None
    return [run_trial(s, k, db) for k in range(s.trials)]


@dataclass
class Summary:
    mode: Mode
    trials: int
    rmse_median: float
    rmse_mean: float
    theta_std_median: Optional[float]  # rad
    tdoa_fallbacks: int = 0  # summed over the trials


def aggregate(reports: Sequence[RunReport]) -> Summary:
    if not reports:
        raise EmptyInput("no reports to aggregate")
    rmses = [r.rmse for r in reports]
    thetas = [r.theta_std for r in reports if r.theta_std is not None]
    return Summary(
        mode=reports[0].mode,
        trials=len(reports),
        rmse_median=float(np.median(rmses)),
        rmse_mean=float(np.mean(rmses)),
        theta_std_median=float(np.median(thetas)) if thetas else None,
        tdoa_fallbacks=sum(r.tdoa_fallbacks for r in reports),
    )


def write_track_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "x", "y", "x_hat", "y_hat", "err"])
        for r in report.records:
            w.writerow([f"{r.t:.6f}",
                        f"{r.true_position.x:.6f}", f"{r.true_position.y:.6f}",
                        f"{r.estimate.x:.6f}", f"{r.estimate.y:.6f}",
                        f"{r.error:.6f}"])


def write_theta_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "bs_id", "theta_deg"])
        for r, row in zip(report.records, report.theta.tolist()):
            for bs_id, theta in zip(report.ids.tolist(), row):
                w.writerow([f"{r.t:.6f}", bs_id, f"{math.degrees(theta):.6f}"])


def write_summary_csv(rows: Sequence[Tuple[str, Summary]], path) -> None:
    """One row per (label, summary), the label naming the run it summarizes."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label", "mode", "trials", "rmse_median", "rmse_mean",
                    "theta_std_deg", "tdoa_fallbacks"])
        for label, s in rows:
            theta = ("" if s.theta_std_median is None
                     else f"{math.degrees(s.theta_std_median):.4f}")
            w.writerow([label, s.mode.value, s.trials,
                        f"{s.rmse_median:.6f}", f"{s.rmse_mean:.6f}", theta,
                        s.tdoa_fallbacks])


def write_report_files(reports: Sequence[RunReport], out_dir) -> None:
    """Emit the track CSV, and the theta CSV when it has rows, of the first trial."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_track_csv(reports[0], out / "track.csv")
    if reports[0].theta is not None:
        write_theta_csv(reports[0], out / "theta.csv")
