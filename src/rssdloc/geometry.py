"""Planar geometry: points, base stations, and the range-difference hyperbola.

A station layout enters the numerics once, as a :class:`Stations` table of
per-station arrays; the channel, the antenna loop and the solver read that
table, and :func:`cosine_gain` is the one statement of the directional
receive antenna.

The two stations of a range-difference (TDOA) pair define a canonical frame
with the stations on the x-axis at (-s, 0) and (+s, 0).  All hyperbola math
works in that frame; :class:`CanonicalFrame` has one map into it
(``to_canonical``, on a point) and one out of it (``from_canonical_xy``, on
coordinates), and :func:`measured_hyperbolas` reads TDOA observations into
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateHyperbola, MissingTdoa

SPEED_OF_LIGHT = 299792458.0  # m/s

_DEGENERACY_TOL = 1e-9  # m
_COINCIDENCE_TOL = 1e-9  # m: a user position this close to a station is on it

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


def distance(a: Point2D, b: Point2D) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def azimuth(frm: Point2D, to: Point2D) -> float:
    """Azimuth of the direction from `frm` to `to`, in (-pi, pi]."""
    return wrap_angle(math.atan2(to.y - frm.y, to.x - frm.x))


class Role(Enum):
    RSS_ONLY = "RSS_ONLY"
    TDOA_ONLY = "TDOA_ONLY"
    RSS_TDOA = "RSS_TDOA"  # measures RSS and belongs to the TDOA pair

    @property
    def measures_rss(self) -> bool:
        return self in (Role.RSS_ONLY, Role.RSS_TDOA)

    @property
    def measures_tdoa(self) -> bool:
        return self in (Role.TDOA_ONLY, Role.RSS_TDOA)


@dataclass(frozen=True)
class OmniAntenna:
    pass


@dataclass(frozen=True)
class DirectionalAntenna:
    """Cosine-pattern antenna with peak gain `gain_db` at the boresight."""

    gain_db: float = 6.5
    orientation: float = 0.0  # boresight azimuth, radians

    def __post_init__(self):
        if not self.gain_db >= 0:
            raise ValueError("gain_db must be >= 0")
        if not math.isfinite(self.orientation):
            raise ValueError("orientation must be finite")
        object.__setattr__(self, "orientation", wrap_angle(self.orientation))


Antenna = Union[OmniAntenna, DirectionalAntenna]


@dataclass(frozen=True)
class BaseStation:
    id: int
    position: Point2D
    role: Role = Role.RSS_ONLY
    antenna: Antenna = OmniAntenna()
    bias_db: float = 0.0  # extra attenuation, e.g. an obstructed station


def cosine_gain(gcos, gsin, ux, uy):
    """Receive gain in dB of cosine-pattern antennas toward unit directions
    (ux, uy): G max(0, cos(off-boresight angle)), given gcos = G cos b and
    gsin = G sin b (peak gain G, boresight azimuth b) broadcast against ux
    and uy.  The clamp keeps the backlobe at 0 dB instead of amplifying it
    without bound.  An omni antenna is the G = 0 case.
    """
    g = ux * gcos
    g += uy * gsin
    return np.maximum(g, 0.0, out=g)


@dataclass(frozen=True, eq=False)
class Stations:
    """A station layout as arrays: the RSS stations in ascending id order,
    and the positions of the TDOA-capable stations by id.

    gain_db and boresight describe each RSS station's receive antenna, with
    gain 0 for an omni antenna; gcos and gsin are the G cos b and G sin b
    of cosine_gain.  replace(table, boresight=...) re-points the antennas.
    """

    ids: np.ndarray          # (N,) RSS station ids, ascending
    x: np.ndarray            # (N,) positions
    y: np.ndarray
    bias_db: np.ndarray      # (N,) extra attenuation
    gain_db: np.ndarray      # (N,) peak antenna gain, 0 for an omni antenna
    boresight: np.ndarray    # (N,) boresight azimuth, rad
    directional: np.ndarray  # (N,) bool, a directional antenna is configured
    tdoa: Dict[int, Point2D]  # TDOA-capable stations, ascending id
    gcos: np.ndarray = field(init=False)
    gsin: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gcos", self.gain_db * np.cos(self.boresight))
        object.__setattr__(self, "gsin", self.gain_db * np.sin(self.boresight))

    @classmethod
    def of(cls, bs: Layout) -> Stations:
        """The table of a station list; a table comes back unchanged.

        Raises ValueError naming a station id the list holds twice.
        """
        if isinstance(bs, Stations):
            return bs
        ordered = sorted(bs, key=lambda b: b.id)
        for a, b in zip(ordered, ordered[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate station id {b.id}")
        rss = [b for b in ordered if b.role.measures_rss]
        directional = [isinstance(b.antenna, DirectionalAntenna) for b in rss]
        x, y, bias_db, gain_db, boresight = np.array(
            [(b.position.x, b.position.y, b.bias_db)
             + ((b.antenna.gain_db, b.antenna.orientation) if d else (0.0, 0.0))
             for b, d in zip(rss, directional)], dtype=float).reshape(-1, 5).T.copy()
        return cls(ids=np.array([b.id for b in rss], dtype=int), x=x, y=y,
                   bias_db=bias_db, gain_db=gain_db, boresight=boresight,
                   directional=np.array(directional, dtype=bool),
                   tdoa={b.id: b.position for b in ordered if b.role.measures_tdoa})

    def pair(self) -> Optional[Tuple[int, int]]:
        """The (lower, higher) ids of the TDOA pair, or None.  Every epoch
        draws the one pair's measurement, so a third raises ValueError."""
        if len(self.tdoa) > 2:
            raise ValueError("at most two stations may be TDOA-capable, got stations "
                             + ", ".join(map(str, self.tdoa)))
        return tuple(self.tdoa) if len(self.tdoa) == 2 else None


# A station list or its table: what every function that reads a layout takes.
Layout = Union[Stations, Sequence[BaseStation]]


@dataclass(frozen=True)
class Hyperbola:
    """One branch of the constant-range-difference curve of a station pair.

    `half_separation` is half the distance between the two stations (at
    (-s, 0) and (+s, 0) in the canonical frame); `range_difference` is the
    signed half range difference r = 0.5 * c * dt, so a point (x, y) on the
    branch satisfies d(-s,0) - d(+s,0) = 2r.  Negative r selects the branch
    nearer the station with the earlier arrival.
    """

    half_separation: float
    range_difference: float

    def __post_init__(self):
        # written so that NaN fails each check, as inf does
        if not self.half_separation > 0:
            raise DegenerateHyperbola(
                f"half_separation must be > 0, got {self.half_separation}"
            )
        if not abs(self.range_difference) < self.half_separation - _DEGENERACY_TOL:
            raise DegenerateHyperbola(
                f"|range difference| {abs(self.range_difference):.6g} m not below "
                f"station half-separation {self.half_separation:.6g} m"
            )

    @classmethod
    def from_tdoa(cls, delta_t: float, half_separation: float) -> "Hyperbola":
        return cls(half_separation, 0.5 * SPEED_OF_LIGHT * delta_t)


def branch_x(r, b2, y):
    """x-coordinate at height y (canonical frame) of the branch with half
    range difference r of a pair at half-separation s, given
    b2 = s^2 - r^2: x = r sqrt(1 + y^2 / b2).  Scalars or broadcasting
    ndarrays, e.g. (epochs, 1) columns of r and b2 against (epochs, heights)
    of y.
    """
    return r * np.sqrt(1.0 + np.square(y) / b2)


def hyperbola_x_of_y(h: Hyperbola, y):
    """x-coordinate of the hyperbola branch at height y (canonical frame).

    Accepts a scalar or an ndarray of y values.
    """
    r, s = h.range_difference, h.half_separation
    return branch_x(r, s * s - r * r, y)


def golden_section(f: Callable[[float], float], a: float, b: float,
                   tol: float = 1e-7) -> float:
    """Locate the minimizer of a unimodal function on [a, b] within tol."""
    a, b = min(a, b), max(a, b)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def project_onto_hyperbola(p: Point2D, h: Hyperbola, lo: float, hi: float) -> Point2D:
    """Closest point to p on the hyperbola branch between canonical heights
    lo and hi, by golden-section search over y, which assumes the squared
    distance unimodal there, as it is for points near the curve."""
    def sqdist(y: float) -> float:
        x = hyperbola_x_of_y(h, y)
        return (x - p.x) ** 2 + (y - p.y) ** 2

    y_star = golden_section(sqdist, lo, hi, tol=1e-9)
    return Point2D(float(hyperbola_x_of_y(h, y_star)), y_star)


@dataclass(frozen=True)
class CanonicalFrame:
    """Rigid map between scenario coordinates and the TDOA pair's frame.

    Station k maps to (-s, 0) and station l to (+s, 0).
    """

    origin: Point2D       # midpoint of the pair, scenario coordinates
    axis_angle: float     # azimuth of the k -> l direction
    half_separation: float

    @classmethod
    @functools.lru_cache(maxsize=8)
    def from_stations(cls, pos_k: Point2D, pos_l: Point2D) -> "CanonicalFrame":
        """The frame of the pair at pos_k and pos_l, built once per pair
        and shared, as a frame is immutable."""
        sep = distance(pos_k, pos_l)
        if sep <= 0:
            raise DegenerateHyperbola("TDOA stations are coincident")
        mid = Point2D(0.5 * (pos_k.x + pos_l.x), 0.5 * (pos_k.y + pos_l.y))
        return cls(mid, azimuth(pos_k, pos_l), 0.5 * sep)

    def to_canonical(self, p: Point2D) -> Point2D:
        dx, dy = p.x - self.origin.x, p.y - self.origin.y
        c, s = math.cos(self.axis_angle), math.sin(self.axis_angle)
        return Point2D(c * dx + s * dy, -s * dx + c * dy)

    def from_canonical_xy(self, x, y):
        """The inverse of to_canonical, on coordinates: floats, or arrays
        mapped element by element to the same bits, giving (x, y)."""
        c, s = math.cos(self.axis_angle), math.sin(self.axis_angle)
        return self.origin.x + c * x - s * y, self.origin.y + s * x + c * y


def measured_hyperbolas(bs: Layout, tdoa) -> Tuple[CanonicalFrame, np.ndarray, np.ndarray]:
    """The canonical frame of a TDOA pair, and each epoch's half range
    difference r = 0.5 c delta_t in it, with whether its hyperbola exists.

    tdoa is a measurement set's (id_k, id_l, delta_t): delta_t a (T,)
    array for a stack, or a float, read as a stack of one epoch.  r and the
    mask ok are (T,) arrays; ok is False for each epoch whose Hyperbola
    would raise DegenerateHyperbola (|r| at or beyond the half-separation,
    a NaN or an infinite delta_t), and no epoch raises.  Coincident TDOA
    stations raise DegenerateHyperbola, a missing observation (None) raises
    MissingTdoa, and ids of no TDOA-capable station of bs raise ValueError.
    """
    if tdoa is None:
        raise MissingTdoa("measurement set carries no TDOA observation")
    k, l, dt = tdoa
    positions = Stations.of(bs).tdoa
    missing = [i for i in (k, l) if i not in positions]
    if missing:
        raise ValueError(f"stations {missing} are not TDOA-capable stations of the layout")
    frame = CanonicalFrame.from_stations(positions[k], positions[l])
    r = 0.5 * SPEED_OF_LIGHT * np.atleast_1d(dt)
    return frame, r, np.abs(r) < frame.half_separation - _DEGENERACY_TOL
