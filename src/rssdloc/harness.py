"""Closed-loop Monte Carlo experiment runner and metrics.

One trial walks the mobile user along its track; at every epoch the channel
is sampled at the true position with the antennas' current boresights, the
selected solver produces an estimate, and (in directional simulation modes)
the antennas are re-pointed at that estimate for the next epoch.

An epoch's noisy TDOA can put the measured range difference at or beyond
the station half-separation, where no hyperbola exists.  Such an epoch
falls back to the estimate without TDOA (the 2-D RSSD fit, or the coarse
fingerprint match) and is counted in RunReport.tdoa_fallbacks.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .channel import ChannelParams, simulate_measurements
from .errors import DegenerateHyperbola, EmptyInput
from .fingerprint import FingerprintDB, build_db, circular_track, coarse_estimate, refine_with_tdoa
from .geometry import Point2D, distance
from .mobility import (
    OrientationState,
    apply_orientation,
    generate_track,
    misorientation,
    update_orientation,
)
from .scenario import Mode, Scenario
from .solver import AntennaModel, SolverConfig, solve_rssd, solve_rssd_tdoa

_DB_STREAM_TAG = 0xDB  # sub-stream id for fingerprint database noise


@dataclass
class EpochRecord:
    t: float
    true_position: Point2D
    estimate: Point2D
    error: float
    theta: Dict[int, float] = field(default_factory=dict)  # rad, per station


@dataclass
class RunReport:
    mode: Mode
    trial: int
    records: List[EpochRecord]
    rmse: float
    mean_error: float
    theta_std: Optional[float]  # rad, over all included epochs and antennas
    runtime: float
    tdoa_fallbacks: int = 0  # TDOA epochs solved without their degenerate TDOA

    @property
    def errors(self) -> List[float]:
        return [r.error for r in self.records]


def compute_rmse(errors: Sequence[float], exclude_first: bool) -> float:
    errs = list(errors[1:] if exclude_first else errors)
    if not errs:
        raise EmptyInput("no epochs to score")
    return math.sqrt(sum(e * e for e in errs) / len(errs))


def _theta_std(records: Sequence[EpochRecord], exclude_first: bool) -> Optional[float]:
    vals = [th for r in (records[1:] if exclude_first else records)
            for th in r.theta.values()]
    if not vals:
        return None
    return float(np.std(vals))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _run_sim_trial(s: Scenario, trial: int) -> RunReport:
    rng = trial_rng(s.seed, trial)
    track = generate_track(s.waypoint, rng)
    directional = s.antenna_model is AntennaModel.DIRECTIONAL
    state = OrientationState.initial(s.bs, track.epochs[0][1]) if directional else None

    records: List[EpochRecord] = []
    fallbacks = 0
    start = time.perf_counter()
    for idx, (t, pos) in enumerate(track.epochs):
        bs_now = apply_orientation(s.bs, state) if directional else s.bs
        theta = {}
        if directional:
            theta = {b.id: misorientation(state, b, pos)
                     for b in s.bs if b.id in state.boresights}
        if idx == 0:
            est = pos  # the initial position is known
        else:
            m = simulate_measurements(bs_now, pos, s.channel, s.tdoa_noise, rng)
            cfg = SolverConfig(s.channel, bs_now, s.region, s.antenna_model)
            if s.mode is Mode.SIM_RSSD_TDOA:
                try:
                    est = solve_rssd_tdoa(cfg, m)
                except DegenerateHyperbola:
                    est = solve_rssd(cfg, m)
                    fallbacks += 1
            else:
                est = solve_rssd(cfg, m)
        records.append(EpochRecord(t, pos, est, distance(pos, est), theta))
        if directional:
            state = update_orientation(state, s.bs, est)
    runtime = time.perf_counter() - start
    return RunReport(
        mode=s.mode, trial=trial, records=records,
        rmse=compute_rmse([r.error for r in records], exclude_first=True),
        mean_error=float(np.mean([r.error for r in records[1:]])),
        theta_std=_theta_std(records, exclude_first=True),
        runtime=runtime,
        tdoa_fallbacks=fallbacks,
    )


def scenario_db(s: Scenario) -> FingerprintDB:
    """The fingerprint database a scenario runs against.

    Loaded from fingerprint.db_file when given, otherwise synthesized from
    the channel model with the configured offline fading level.
    """
    if s.fingerprint.db_file:
        return FingerprintDB.from_csv(s.fingerprint.db_file, s.fingerprint.grid_step)
    db_channel = ChannelParams(
        alpha=s.channel.alpha, sigma_beta=s.fingerprint.db_sigma_beta,
        p0=s.channel.p0, d0=s.channel.d0)
    rng = np.random.default_rng([s.seed, _DB_STREAM_TAG])
    return build_db(s.bs, s.region, s.fingerprint.grid_step,
                    s.fingerprint.excluded, db_channel, rng)


def _run_fp_trial(s: Scenario, trial: int, db: FingerprintDB) -> RunReport:
    rng = trial_rng(s.seed, trial)
    positions = circular_track(s.circular)
    records: List[EpochRecord] = []
    fallbacks = 0
    start = time.perf_counter()
    for i, pos in enumerate(positions):
        m = simulate_measurements(s.bs, pos, s.channel, s.tdoa_noise, rng)
        est = coarse_estimate(db, [m.rss[j] for j in db.bs_ids])
        if s.mode is Mode.FP_RSSD_TDOA:
            try:
                est = refine_with_tdoa(est, m.tdoa, s.bs)
            except DegenerateHyperbola:
                fallbacks += 1
        records.append(EpochRecord(float(i), pos, est, distance(pos, est)))
    runtime = time.perf_counter() - start
    errors = [r.error for r in records]
    return RunReport(
        mode=s.mode, trial=trial, records=records,
        rmse=compute_rmse(errors, exclude_first=False),
        mean_error=float(np.mean(errors)),
        theta_std=None,
        runtime=runtime,
        tdoa_fallbacks=fallbacks,
    )


def run_trial(s: Scenario, trial: int,
              db: Optional[FingerprintDB] = None) -> RunReport:
    """Run one seeded trial of a scenario."""
    if s.mode.is_sim:
        return _run_sim_trial(s, trial)
    if db is None:
        db = scenario_db(s)
    return _run_fp_trial(s, trial, db)


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
    mean_error_mean: float
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
        mean_error_mean=float(np.mean([r.mean_error for r in reports])),
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
        for r in report.records:
            for bs_id in sorted(r.theta):
                w.writerow([f"{r.t:.6f}", bs_id,
                            f"{math.degrees(r.theta[bs_id]):.6f}"])


def write_summary_csv(summaries: Sequence[Summary], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "trials", "rmse_median", "rmse_mean", "theta_std_deg",
                    "tdoa_fallbacks"])
        for s in summaries:
            theta = ("" if s.theta_std_median is None
                     else f"{math.degrees(s.theta_std_median):.4f}")
            w.writerow([s.mode.value, s.trials,
                        f"{s.rmse_median:.6f}", f"{s.rmse_mean:.6f}", theta,
                        s.tdoa_fallbacks])


def write_report_files(reports: Sequence[RunReport], out_dir) -> None:
    """Emit track/theta CSVs for the first trial plus the aggregate summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_track_csv(reports[0], out / "track.csv")
    if any(r.theta for r in reports[0].records):
        write_theta_csv(reports[0], out / "theta.csv")
    write_summary_csv([aggregate(reports)], out / "summary.csv")
