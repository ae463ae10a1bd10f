"""The four benchmark workloads and the output check applied to every trial.

Each workload is a closed loop with one client: trial k starts when trial
k - 1 has returned.  Constructing a workload is its set-up; ``trial(k)`` is
the timed call into rssdloc; ``check`` scores the result outside the timed
region.  Every input derives from the benchmark seed: scenario trials draw
from ``default_rng([seed, k])`` inside ``run_trial``, and the receiver
workload draws its epoch k from the same stream family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from rssdloc import harness, receiver
from rssdloc import scenario as scenario_mod
from rssdloc.errors import LocalizationError
from rssdloc.geometry import SPEED_OF_LIGHT, Point2D, distance
from rssdloc.scenario import Mode, Scenario
from rssdloc.solver import AntennaModel

# Trial index of the untimed warm-up at the end of set-up.  Timed trials count
# from 0, so the warm-up never computes the same inputs as a timed trial.
WARMUP_TRIAL = 1_000_000

_REGION_TOL = 1e-9  # m, float slack on the region boundary


@dataclass
class Outcome:
    """Output check of one benchmark trial."""

    epochs: int = 0            # localization epochs completed
    errors: List[float] = field(default_factory=list)  # m, per scored epoch
    outside: int = 0           # hyperbola-constrained estimates outside the region
    excursion_m: float = 0.0   # farthest of those from the region, in metres
    failure: Optional[str] = None  # LocalizationError raised or check failed
    raised: bool = False       # the failure is a LocalizationError, not a bad output


def excursion(region, p: Point2D) -> float:
    """Distance from p to the region, 0 inside it, in metres."""
    return math.hypot(max(region.x_min - p.x, 0.0, p.x - region.x_max),
                      max(region.y_min - p.y, 0.0, p.y - region.y_max))


def pooled_rmse(outcomes: Sequence[Outcome]) -> float:
    """RMSE over every scored epoch of the given trials, in metres."""
    errs = [e for o in outcomes for e in o.errors]
    return math.sqrt(math.fsum(e * e for e in errs) / len(errs)) if errs else math.nan


def reference_record(outcomes: Sequence[Outcome]) -> dict:
    """What reference.json stores for a seed: pooled RMSE and region excursions."""
    return {"rmse_m": pooled_rmse(outcomes),
            "outside": sum(o.outside for o in outcomes),
            "excursion_m": max((o.excursion_m for o in outcomes), default=0.0)}


class ScenarioRun:
    """Paired trials of one scenario file under a fixed list of variants.

    Trial k runs ``run_trial(variant, k)`` for each variant in turn, so all
    variants see the same seeded noise, as in the acceptance campaigns.
    """

    def __init__(self, root: Path, seed: int, scenario_file: str,
                 variants: Sequence[Callable[[Scenario], Scenario]]):
        base = scenario_mod.load_scenario(root / "scenarios" / scenario_file,
                                          {"seed": seed})
        self.runs = [v(base) for v in variants]
        needs_db = any(not s.mode.is_sim for s in self.runs)
        self.db = harness.scenario_db(base) if needs_db else None

    def trial(self, k: int) -> Union[list, LocalizationError]:
        try:
            return [harness.run_trial(s, k, self.db) for s in self.runs]
        except LocalizationError as e:
            return e

    def check(self, result) -> Outcome:
        out = Outcome()
        if isinstance(result, LocalizationError):
            out.failure, out.raised = f"{type(result).__name__}: {result}", True
            return out
        for s, report in zip(self.runs, result):
            # the first epoch of a simulated track is the known start position
            scored = report.records[1:] if s.mode.is_sim else report.records
            for r in scored:
                est = r.estimate
                out.epochs += 1
                out.errors.append(r.error)
                if not (math.isfinite(est.x) and math.isfinite(est.y)):
                    out.failure = f"{s.mode.value}: non-finite estimate {est}"
                elif not s.region.contains(est, _REGION_TOL):
                    # A TDOA-constrained estimate lies on the measured hyperbola,
                    # which the solvers do not clip to the region.  It is counted
                    # and checked against reference.json (README.md, "Output
                    # check"), not failed on its own.
                    if s.mode.uses_tdoa:
                        out.outside += 1
                        out.excursion_m = max(out.excursion_m,
                                              excursion(s.region, est))
                    else:
                        out.failure = f"{s.mode.value}: estimate {est} outside region"
        return out

    def control(self) -> Optional[str]:
        return None


def _sim_variants(mode: Mode):
    return [lambda s, a=a: s.with_antenna_model(a).with_mode(mode)
            for a in (AntennaModel.DIRECTIONAL, AntennaModel.OMNI)]


class UwbRun:
    """One ranging measurement per trial through the sampled receiver chain.

    The source is drawn uniformly over fp_3x3's area and received by that
    scenario's TDOA pair; each chain gets its own seeded attenuation and
    white noise.

    The receiver reads the correlation peak on a grid of one sample period
    over DEFAULT_UPSAMPLE, so its TDOA error is mostly the rounding of each
    arrival to that grid.  Drawn at random, those rounding phases make
    rmse_m over 80 epochs vary by about 10 % from seed to seed.  Each
    arrival is therefore moved (by less than one grid step) to a phase
    taken from a seeded 2-D low-discrepancy sequence, which covers the grid
    cell evenly in any run.
    """

    NOISE_STD = 0.1                       # per sample, unit-amplitude pulses
    ATTENUATION_DB = (-12.0, 0.0)
    # An estimate off by more than one sample period is a misdetected peak.
    MAX_TDOA_ERROR = 1.0 / receiver.DEFAULT_SAMPLE_RATE
    CONTROL_MAX_ERROR = 10e-12            # s, acceptance criterion 7's bound
    PEAK_GRID = 1.0 / (receiver.DEFAULT_SAMPLE_RATE * receiver.DEFAULT_UPSAMPLE)
    # Steps of the R2 sequence (inverse powers of the plastic number).
    PHASE_STEP = np.array([1 / 1.324717957244746, 1 / 1.324717957244746 ** 2])

    def __init__(self, root: Path, seed: int):
        s = scenario_mod.load_scenario(root / "scenarios" / "fp_3x3.yaml",
                                       {"seed": seed})
        self.seed = seed
        self.phase0 = np.random.default_rng(seed).uniform(size=2)
        self.region = s.region
        self.pair = [b.position for b in sorted(s.bs, key=lambda b: b.id)
                     if b.role.measures_tdoa]
        self.spec = receiver.SignalSpec()
        self.template = receiver.transmit_template(self.spec)

    def _measure(self, delays, attenuation, noise_std: float,
                 rng: Optional[np.random.Generator]):
        try:
            chains = [receiver.correlate_and_detect(
                receiver.generate_signal(self.spec, d, a, noise_std=noise_std, rng=rng),
                self.template) for d, a in zip(delays, attenuation)]
            tdoa = receiver.estimate_tdoa(chains[0], chains[1])
            rss = [receiver.rss_from_correlation(c) for c in chains]
        except LocalizationError as e:
            return e
        return tdoa - (delays[0] - delays[1]), rss

    def trial(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        r = self.region
        src = Point2D(rng.uniform(r.x_min, r.x_max), rng.uniform(r.y_min, r.y_max))
        phases = np.mod(self.phase0 + k * self.PHASE_STEP, 1.0)
        delays = [(math.floor(distance(src, p) / SPEED_OF_LIGHT / self.PEAK_GRID) + f)
                  * self.PEAK_GRID for p, f in zip(self.pair, phases)]
        return self._measure(delays, rng.uniform(*self.ATTENUATION_DB, size=2),
                             self.NOISE_STD, rng)

    def check(self, result) -> Outcome:
        out = Outcome()
        if isinstance(result, LocalizationError):
            out.failure, out.raised = f"{type(result).__name__}: {result}", True
            return out
        err, rss = result
        out.epochs = 1
        out.errors.append(SPEED_OF_LIGHT * err)
        if not abs(err) < self.MAX_TDOA_ERROR:
            out.failure = f"TDOA error {err:.3e} s"
        elif not all(math.isfinite(p) and p > 0 for p in rss):
            out.failure = f"RSS readout {rss}"
        return out

    def control(self) -> Optional[str]:
        """Noiseless epoch in acceptance criterion 7's geometry.

        The source sits at (1.2, 0.9) m between the pair at (0, 0) and
        (3, 0), with 0 dB and -6 dB attenuation; the TDOA error must stay
        under 10 ps.  Returns a failure description, or None.
        """
        src = Point2D(1.2, 0.9)
        delays = [distance(src, p) / SPEED_OF_LIGHT for p in self.pair]
        result = self._measure(delays, (0.0, -6.0), 0.0, None)
        if isinstance(result, LocalizationError):
            return f"control epoch raised {type(result).__name__}: {result}"
        if not abs(result[0]) < self.CONTROL_MAX_ERROR:
            return f"control epoch TDOA error {result[0] * 1e12:.2f} ps >= 10 ps"
        return None


@dataclass(frozen=True)
class Spec:
    make: Callable[[Path, int], object]
    scenario_files: Tuple[str, ...]
    min_trials: int    # always timed, even past --seconds; rmse_m covers these
    trace_trials: int  # trials in each pass of a traced run


WORKLOADS = {
    "sim_2d": Spec(
        lambda root, seed: ScenarioRun(root, seed, "sim_8x8.yaml",
                                       _sim_variants(Mode.SIM_RSSD)),
        ("sim_8x8.yaml",), min_trials=8, trace_trials=3),
    "sim_tdoa": Spec(
        lambda root, seed: ScenarioRun(root, seed, "sim_8x8.yaml",
                                       _sim_variants(Mode.SIM_RSSD_TDOA)),
        ("sim_8x8.yaml",), min_trials=100, trace_trials=40),
    "fp_track": Spec(
        lambda root, seed: ScenarioRun(
            root, seed, "fp_3x3.yaml",
            [lambda s: s.with_mode(Mode.FP_RSSD),
             lambda s: s.with_mode(Mode.FP_RSSD_TDOA)]),
        ("fp_3x3.yaml",), min_trials=400, trace_trials=250),
    "uwb_ranging": Spec(UwbRun, ("fp_3x3.yaml",), min_trials=80, trace_trials=18),
}
