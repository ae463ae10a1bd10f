"""Log-distance channel model and synthetic RSSD / TDOA measurement generation.

Received power follows the log-distance law with Gaussian shadow fading;
directional receive antennas add the cosine-pattern gain of
geometry.cosine_gain to the link budget.  A measurement set carries the
per-station RSS vector; its pairwise differences cancel the unknown
transmit power, so every RSSD value derives from that one vector and the
pairs are cycle-consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from .errors import CoincidentPosition, NonPositiveDistance, TooFewStations
from .geometry import SPEED_OF_LIGHT, Layout, Point2D, Stations, cosine_gain, distance

_COINCIDENCE_TOL = 1e-9  # m


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
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.sigma_beta >= 0:
            raise ValueError("sigma_beta must be >= 0")
        if not self.d0 > 0:
            raise ValueError("d0 must be > 0")
        if not math.isfinite(self.p0):
            raise ValueError("p0 must be finite")


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


@dataclass(frozen=True)
class TdoaNoiseParams:
    sigma_tdoa: float = 330e-12  # s

    def __post_init__(self):
        if not self.sigma_tdoa >= 0:
            raise ValueError("sigma_tdoa must be >= 0")


@dataclass(eq=False)
class MeasurementSet:
    """Per-station RSS plus at most one TDOA observation.

    rss is the (N,) received power in dBm of the RSS stations of a station
    table, in its order; ids is that table's own ids array.  The unknown
    transmit power is still in rss; only its differences are informative.
    tdoa, when present, is (id_k, id_l, delta_t) with delta_t the arrival
    time at k minus the arrival time at l.
    """

    ids: np.ndarray
    rss: np.ndarray
    tdoa: Optional[Tuple[int, int, float]] = None

    @property
    def rssd_pairs(self) -> List[Tuple[int, int, float]]:
        """(id_i, id_j, P_i - P_j) for every station pair with i < j.

        All pairs derive from the one rss vector, so the cycle identity
        P_ij + P_jk = P_ik holds exactly.
        """
        return [(i, j, p - q) for (i, p), (j, q)
                in combinations(zip(self.ids.tolist(), self.rss.tolist()), 2)]


def centred(rss: np.ndarray) -> np.ndarray:
    """RSS minus its mean over stations (the last axis).

    This is the part of an RSS vector that its differences determine: the
    transmit power, common to every station, drops out.
    """
    return rss - rss.sum(axis=-1, keepdims=True) / rss.shape[-1]


def received_power(params: ChannelParams, d, beta):
    """Log-distance received power in dBm for a caller-supplied fading draw.

    d and beta are scalars or arrays that broadcast together.
    """
    if np.less_equal(d, 0).any():
        raise NonPositiveDistance(f"distance must be > 0, got {d}")
    return params.p0 - 10.0 * params.alpha * np.log10(np.divide(d, params.d0)) + beta


def simulate_rss(bs: Layout, mu: Point2D, params: ChannelParams,
                 rng: np.random.Generator) -> np.ndarray:
    """The (N,) RSS vector at the true MU position, in the station table's order.

    Shadow fading is drawn i.i.d. per station in ascending id order, so the
    draw sequence is reproducible and identical across solver modes.
    """
    st = Stations.of(bs)
    if len(st.ids) < 2:
        raise TooFewStations(f"need >= 2 RSS stations, got {len(st.ids)}")
    dx, dy = mu.x - st.x, mu.y - st.y
    d = np.hypot(dx, dy)
    if d.min() < _COINCIDENCE_TOL:
        raise CoincidentPosition(f"MU coincides with station {st.ids[d.argmin()]}")
    beta = rng.normal(0.0, params.sigma_beta, len(d)) if params.sigma_beta > 0 else 0.0
    rss = received_power(params, d, beta)
    rss += cosine_gain(st.gcos, st.gsin, dx / d, dy / d)
    rss -= st.bias_db
    return rss


def simulate_measurements(bs: Layout, mu: Point2D,
                          params: ChannelParams,
                          tdoa_params: TdoaNoiseParams,
                          rng: np.random.Generator) -> MeasurementSet:
    """Simulate one localization epoch: the RSS vector plus the TDOA value.

    The TDOA draw happens after the fading draws whether or not the caller
    uses it, keeping RNG streams aligned across solver modes.
    """
    st = Stations.of(bs)
    rss = simulate_rss(st, mu, params, rng)

    tdoa = None
    pair = st.pair()
    if pair is not None:
        k, l = pair
        dk, dl = distance(mu, st.tdoa[k]), distance(mu, st.tdoa[l])
        if min(dk, dl) < _COINCIDENCE_TOL:
            raise CoincidentPosition("MU coincides with a TDOA station")
        dt = (dk - dl) / SPEED_OF_LIGHT
        if tdoa_params.sigma_tdoa > 0:
            dt += rng.normal(0.0, tdoa_params.sigma_tdoa)
        tdoa = (k, l, dt)

    return MeasurementSet(st.ids, rss, tdoa)
