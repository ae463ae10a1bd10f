"""Log-distance channel model and synthetic RSSD / TDOA measurement generation.

Received power follows the log-distance law with Gaussian shadow fading;
directional receive antennas add a cosine-pattern gain term to the link
budget.  A measurement set carries the per-station RSS vector; its pairwise
differences cancel the unknown transmit power, so every RSSD value derives
from that one vector and the pairs are cycle-consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import CoincidentPosition, NonPositiveDistance, TooFewStations
from .geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    DirectionalAntenna,
    Point2D,
    azimuth,
    distance,
    wrap_angle,
)

_COINCIDENCE_TOL = 1e-9  # m


class Preset(Enum):
    OMNI_OMNI = "OMNI_OMNI"
    OMNI_DIR = "OMNI_DIR"


@dataclass(frozen=True)
class ChannelParams:
    """One (path-loss exponent, shadow-fading std) operating point.

    p0 and d0 cancel in every RSS difference; they only matter for absolute
    RSS values (e.g. fingerprint reference vectors before differencing).
    """

    alpha: float
    sigma_beta: float  # dB
    p0: float = -40.0  # dBm at reference distance
    d0: float = 1.0    # m

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.sigma_beta < 0:
            raise ValueError("sigma_beta must be >= 0")
        if self.d0 <= 0:
            raise ValueError("d0 must be > 0")


# Placeholder constants: the source of the measured propagation constants is
# not public, so these defaults only preserve the required ordering (the
# directional-receive case has higher alpha and lower shadow fading).
DEFAULT_OMNI_OMNI = ChannelParams(alpha=1.7, sigma_beta=2.0)
DEFAULT_OMNI_DIR = ChannelParams(alpha=2.1, sigma_beta=1.0)


@dataclass(frozen=True)
class ChannelPresets:
    """Both antenna-combination operating points of a scenario."""

    omni_omni: ChannelParams = DEFAULT_OMNI_OMNI
    omni_dir: ChannelParams = DEFAULT_OMNI_DIR

    def __post_init__(self):
        if self.omni_dir.alpha < self.omni_omni.alpha:
            raise ValueError("OMNI_DIR alpha must be >= OMNI_OMNI alpha")
        if self.omni_dir.sigma_beta > self.omni_omni.sigma_beta:
            raise ValueError("OMNI_DIR sigma_beta must be <= OMNI_OMNI sigma_beta")

    def select(self, preset: Preset) -> ChannelParams:
        return self.omni_omni if preset is Preset.OMNI_OMNI else self.omni_dir


@dataclass(frozen=True)
class TdoaNoiseParams:
    sigma_tdoa: float = 330e-12  # s

    def __post_init__(self):
        if self.sigma_tdoa < 0:
            raise ValueError("sigma_tdoa must be >= 0")


@dataclass
class MeasurementSet:
    """Per-station RSS plus at most one TDOA observation.

    rss maps each RSS station id to its received power in dBm.  The unknown
    transmit power is still in it; only differences of rss are informative.
    tdoa, when present, is (id_k, id_l, delta_t) with delta_t the arrival
    time at k minus the arrival time at l.
    """

    rss: Dict[int, float]
    tdoa: Optional[Tuple[int, int, float]] = None

    @property
    def rssd_pairs(self) -> List[Tuple[int, int, float]]:
        """(id_i, id_j, P_i - P_j) for every station pair with i < j.

        All pairs derive from the one rss vector, so the cycle identity
        P_ij + P_jk = P_ik holds exactly.
        """
        ids = sorted(self.rss)
        return [(i, j, self.rss[i] - self.rss[j])
                for a, i in enumerate(ids) for j in ids[a + 1:]]


def centred(rss: np.ndarray) -> np.ndarray:
    """RSS minus its mean over stations (the last axis).

    This is the part of an RSS vector that its differences determine: the
    transmit power, common to every station, drops out.
    """
    return rss - rss.sum(axis=-1, keepdims=True) / rss.shape[-1]


def received_power(params: ChannelParams, d: float, beta: float) -> float:
    """Log-distance received power in dBm for a caller-supplied fading draw."""
    if d <= 0:
        raise NonPositiveDistance(f"distance must be > 0, got {d}")
    return params.p0 - 10.0 * params.alpha * math.log10(d / params.d0) + beta


def antenna_gain(gain_db: float, phi: float) -> float:
    """Cosine radiation pattern in dB, clamped to 0 outside +-pi/2.

    The unclamped pattern would amplify the backlobe without bound; the
    clamp keeps the model physical outside the small-misorientation regime.
    """
    phi = wrap_angle(phi)
    if abs(phi) > math.pi / 2:
        return 0.0
    return gain_db * math.cos(phi)


def station_gain(bs: BaseStation, target: Point2D) -> float:
    """Receive gain of a station toward a target point, in dB."""
    if not isinstance(bs.antenna, DirectionalAntenna):
        return 0.0
    phi = wrap_angle(azimuth(bs.position, target) - bs.antenna.orientation)
    return antenna_gain(bs.antenna.gain_db, phi)


def rss_stations(bs: List[BaseStation]) -> List[BaseStation]:
    """RSS-measuring stations in ascending id order."""
    return sorted((b for b in bs if b.role.measures_rss), key=lambda b: b.id)


def tdoa_pair(bs: List[BaseStation]) -> Optional[Tuple[BaseStation, BaseStation]]:
    """The (lower-id, higher-id) TDOA station pair, or None if not configured."""
    pair = sorted((b for b in bs if b.role.measures_tdoa), key=lambda b: b.id)
    if len(pair) < 2:
        return None
    if len(pair) > 2:
        raise ValueError("more than two TDOA-capable stations configured")
    return pair[0], pair[1]


def simulate_rss(bs: List[BaseStation], mu: Point2D, params: ChannelParams,
                 rng: np.random.Generator) -> Dict[int, float]:
    """Per-station RSS vector at the true MU position, keyed by station id.

    Shadow fading is drawn i.i.d. per station in ascending id order, so the
    draw sequence is reproducible and identical across solver modes.
    """
    stations = rss_stations(bs)
    if len(stations) < 2:
        raise TooFewStations(f"need >= 2 RSS stations, got {len(stations)}")
    out: Dict[int, float] = {}
    for b in stations:
        d = distance(mu, b.position)
        if d < _COINCIDENCE_TOL:
            raise CoincidentPosition(f"MU coincides with station {b.id}")
        beta = rng.normal(0.0, params.sigma_beta) if params.sigma_beta > 0 else 0.0
        out[b.id] = received_power(params, d, beta) + station_gain(b, mu) - b.bias_db
    return out


def simulate_measurements(bs: List[BaseStation], mu: Point2D,
                          params: ChannelParams,
                          tdoa_params: TdoaNoiseParams,
                          rng: np.random.Generator) -> MeasurementSet:
    """Simulate one localization epoch: the RSS vector plus the TDOA value.

    The TDOA draw happens after the fading draws whether or not the caller
    uses it, keeping RNG streams aligned across solver modes.
    """
    rss = simulate_rss(bs, mu, params, rng)

    tdoa = None
    pair = tdoa_pair(bs)
    if pair is not None:
        k, l = pair
        dk, dl = distance(mu, k.position), distance(mu, l.position)
        if min(dk, dl) < _COINCIDENCE_TOL:
            raise CoincidentPosition("MU coincides with a TDOA station")
        dt = (dk - dl) / SPEED_OF_LIGHT
        if tdoa_params.sigma_tdoa > 0:
            dt += rng.normal(0.0, tdoa_params.sigma_tdoa)
        tdoa = (k.id, l.id, dt)

    return MeasurementSet(rss=rss, tdoa=tdoa)
