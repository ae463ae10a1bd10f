"""Log-distance channel model and synthetic RSSD / TDOA measurement generation.

Received power follows the log-distance law with Gaussian shadow fading;
directional receive antennas add the cosine-pattern gain of
geometry.cosine_gain to the link budget.  A measurement set carries the
per-station RSS vector; its pairwise differences cancel the unknown
transmit power, so every RSSD value derives from that one vector and the
pairs are cycle-consistent by construction.  A stack of T epochs is one
measurement set too: a (T, N) block of RSS rows and a (T,) column of TDOA
observations, as the channel draws them.  Below simulate_measurements,
which also takes one position, the channel reads positions only as a
(T, 2) stack.  A drawn stack keeps its links, the channel up to the receive
antennas, so antennas turned after the draw read its epochs by adding
their own gain alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import CoincidentPosition, NonPositiveDistance, TooFewStations
from .geometry import _COINCIDENCE_TOL, SPEED_OF_LIGHT, Layout, Point2D, Stations, cosine_gain


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


class Links(NamedTuple):
    """The channel from the user to each RSS station of a station table, up
    to the receive antennas, over a stack of epochs: (T, N) arrays in the
    table's order.  Re-pointing the antennas changes none of them."""

    power: np.ndarray  # dBm, log-distance received power with shadow fading
    ux: np.ndarray     # unit vector from the station toward the user
    uy: np.ndarray

    @classmethod
    def draw(cls, st: Stations, xy: np.ndarray, params: ChannelParams,
             rng: np.random.Generator, z: Optional[np.ndarray] = None) -> "Links":
        """The links of simulate_rss, which documents the arguments, the
        draw and what it raises.  z, when given, is the (T, N) block of
        standard normals of the fading, drawn by the caller together with
        other columns; otherwise it is drawn from rng."""
        if len(st.ids) < 2:
            raise TooFewStations(f"need >= 2 RSS stations, got {len(st.ids)}")
        dx, dy = xy[:, :1] - st.x, xy[:, 1:] - st.y
        d = np.hypot(dx, dy)
        if d.size and d.item(d.argmin()) < _COINCIDENCE_TOL:  # argmin as in received_power
            near = d[(d < _COINCIDENCE_TOL).any(axis=1).argmax()]  # the first such epoch
            raise CoincidentPosition(f"MU coincides with station {st.ids[near.argmin()]}")
        beta = 0.0
        if params.sigma_beta > 0:
            beta = (rng.standard_normal(d.shape) if z is None else z) * params.sigma_beta
        return cls(received_power(params, d, beta), dx / d, dy / d)

    def received(self, st: Stations, rows=slice(None)) -> np.ndarray:
        """The RSS that the station table's antennas, as pointed, read at
        the epochs rows: received power + antenna gain - bias, in that
        order."""
        rss = self.power[rows] + cosine_gain(st.gcos, st.gsin, self.ux[rows], self.uy[rows])
        rss -= st.bias_db
        return rss


@dataclass(eq=False)
class MeasurementSet:
    """Per-station RSS plus the TDOA pair's observation, of one epoch or of
    a stack of T epochs.

    rss is the (N,) received power in dBm of the RSS stations of a station
    table, in its order, or a (T, N) block of such rows, one per epoch;
    rss.ndim tells the two apart.  ids is that table's own ids array.  The
    unknown transmit power is still in rss; only its differences are
    informative.  tdoa, when present, is (id_k, id_l, delta_t) with delta_t
    the arrival time at k minus the arrival time at l: a float for one
    epoch, a (T,) array for a stack.  So a stack shares one station table,
    one TDOA pair, and has a TDOA observation in every epoch or in none.
    A set drawn by simulate_measurements keeps its links, from which
    received_by reads its epochs with the antennas turned.
    """

    ids: np.ndarray
    rss: np.ndarray
    tdoa: Optional[Tuple[int, int, Union[float, np.ndarray]]] = None
    links: Optional[Links] = field(default=None, repr=False)

    @property
    def rssd_pairs(self) -> List[Tuple[int, int, float]]:
        """(id_i, id_j, P_i - P_j) for every station pair with i < j, of a
        one-epoch set.

        All pairs derive from the one rss vector, so the cycle identity
        P_ij + P_jk = P_ik holds exactly.
        """
        return [(i, j, p - q) for (i, p), (j, q)
                in combinations(zip(self.ids.tolist(), self.rss.tolist()), 2)]

    def received_by(self, st: Stations, rows: slice) -> "MeasurementSet":
        """The epochs rows of a stack drawn by simulate_measurements, as
        read by the station table st: the table it was drawn for, its
        antennas turned or not (mobility.apply_orientation).  Only the
        antenna gain is computed anew, so the rows equal a draw of those
        epochs alone with st's antennas, bit for bit."""
        tdoa = None if self.tdoa is None else self.tdoa[:2] + (self.tdoa[2][rows],)
        return MeasurementSet(st.ids, self.links.received(st, rows), tdoa)


def centred(rss: np.ndarray) -> np.ndarray:
    """RSS minus its mean over stations (the last axis).

    This is the part of an RSS vector that its differences determine: the
    transmit power, common to every station, drops out.
    """
    return rss - rss.sum(axis=-1, keepdims=True) / rss.shape[-1]


def received_power(params: ChannelParams, d, beta):
    """Log-distance received power in dBm for a caller-supplied fading draw.

    d and beta are scalars or arrays that broadcast together.  A distance
    that is not > 0, NaN included, raises NonPositiveDistance naming the
    first one.
    """
    d = np.asarray(d)
    # argmin finds a NaN or the least distance in less time than a
    # reduction takes to start on a few stations
    if d.size and not d.item(d.argmin()) > 0:
        raise NonPositiveDistance(f"distance must be > 0, got {d[~(d > 0)].flat[0]}")
    return params.p0 - 10.0 * params.alpha * np.log10(np.divide(d, params.d0)) + beta


def simulate_rss(bs: Layout, xy: np.ndarray, params: ChannelParams,
                 rng: np.random.Generator) -> np.ndarray:
    """The (T, N) RSS at each row of a (T, 2) array of true MU positions,
    its columns in the station table's order.

    Shadow fading is sigma_beta times a standard normal, i.i.d. per station
    and epoch, drawn epoch by epoch in ascending id order, so the draw
    sequence is reproducible and identical across solver modes; with
    sigma_beta = 0 nothing is drawn.  A table of fewer than two RSS
    stations raises TooFewStations.  A position within 1 nm of an RSS
    station raises CoincidentPosition naming it, for the first such epoch.
    The RSS is the received power of the Links plus the antennas' gain
    minus the station's bias, in that order.
    """
    st = Stations.of(bs)
    return Links.draw(st, xy, params, rng).received(st)


def simulate_measurements(bs: Layout, mu: Union[Point2D, np.ndarray],
                          params: ChannelParams,
                          tdoa_params: TdoaNoiseParams,
                          rng: np.random.Generator) -> MeasurementSet:
    """Simulate localization epochs at the rows of a (T, 2) array of
    positions, giving their stack: the (T, N) RSS of simulate_rss and a
    (T,) delta_t column.  One position gives the one-epoch set of a stack
    of one: its row 0, with a float delta_t.

    Each epoch draws its N fading normals, then its TDOA normal whether or
    not the caller uses it, keeping RNG streams aligned across solver
    modes.  A call draws all of them as one (T, columns) block of standard
    normals and scales each column, so a stack's rows equal T single calls
    bit for bit, the generator's state included.  T = 0 draws nothing and
    gives an empty stack.  The set keeps its Links, so that received_by can
    read its epochs again with the antennas turned, without drawing them
    again.

    A stack raises in the order of these checks: a third TDOA-capable
    station (ValueError, before any draw); the first epoch within 1 nm of
    a TDOA station (CoincidentPosition); fewer than two RSS stations
    (TooFewStations); the first epoch within 1 nm of an RSS station
    (CoincidentPosition naming it).
    """
    st = Stations.of(bs)
    single = isinstance(mu, Point2D)
    xy = np.array([[mu.x, mu.y]]) if single else mu
    pair = st.pair()
    fading = len(st.ids) if params.sigma_beta > 0 else 0
    noisy = pair is not None and tdoa_params.sigma_tdoa > 0
    z = rng.standard_normal((len(xy), fading + noisy))
    tdoa = None
    if pair is not None:
        k, l = pair
        a, b = st.tdoa[k], st.tdoa[l]
        dt = np.empty(len(xy))
        for e, (x, y) in enumerate(xy.tolist()):
            # math.hypot per epoch: np.hypot is an ulp off on some epochs
            dk, dl = math.hypot(x - a.x, y - a.y), math.hypot(x - b.x, y - b.y)
            if min(dk, dl) < _COINCIDENCE_TOL:
                raise CoincidentPosition("MU coincides with a TDOA station")
            dt[e] = (dk - dl) / SPEED_OF_LIGHT
        if noisy:
            dt += tdoa_params.sigma_tdoa * z[:, fading]
        tdoa = (k, l, dt.item(0) if single else dt)
    links = Links.draw(st, xy, params, rng, z[:, :fading])
    rss = links.received(st)
    return MeasurementSet(st.ids, rss[0] if single else rss, tdoa, links)
