"""Position estimation from RSSD measurements.

Station i reads P_i = T - 10 alpha log10(d_i) + g_i + noise, where T is the
user's unknown transmit power and g_i the directional receive gain toward
the user (0 for the omni model).  The fit is least squares over the RSS
differences of all station pairs, which cancel T.  With the model
m_i = -5 alpha log10(d_i^2) + g_i at a candidate, the residual of pair (i, j)
is u_i - u_j with u_i = P_i - m_i, and

    sum_{i<j} (u_i - u_j)^2 = N * sum_i (r_i - mean(r))^2,
    r_i = c_i - m_i,   c_i = P_i - mean(P),

so the objective costs O(N) per candidate instead of O(N^2).  The residual
is centred by subtraction: N * sum(r^2) - (sum r)^2 would cancel badly near
the optimum.  The directional gain is the clamped cosine of the off-boresight
angle, gain * max(0, (dx cos b + dy sin b) / d), with no trigonometry per
candidate.

Two search strategies:

* unconstrained 2D least squares over a rectangular region, by a coarse grid
  scan over cached station-to-grid geometry, followed by local grid
  refinement with step halving from the best few coarse cells at once;
* TDOA-constrained 1D least squares along the measured hyperbola, by a
  coarse scan over y followed by bracket scans that evaluate a whole row of
  heights in one objective call per round, with the x-coordinate recovered
  from the hyperbola equation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .channel import ChannelParams, MeasurementSet, centred, rss_stations
from .errors import EmptyRegion, MissingTdoa, SingularCandidate
from .geometry import (
    BaseStation,
    DirectionalAntenna,
    Point2D,
    hyperbola_x_of_y,
    measured_hyperbola,
)

_SINGULAR_TOL = 1e-6  # m; candidates closer than this to a station get inf
_SINGULAR_TOL2 = _SINGULAR_TOL * _SINGULAR_TOL


class AntennaModel(Enum):
    OMNI = "OMNI"
    DIRECTIONAL = "DIRECTIONAL"


@dataclass(frozen=True)
class SearchRegion:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    coarse_step: float = 0.05
    refine_iterations: int = 6

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise EmptyRegion(
                f"empty region [{self.x_min}, {self.x_max}] x "
                f"[{self.y_min}, {self.y_max}]"
            )
        if self.coarse_step <= 0:
            raise ValueError("coarse_step must be > 0")

    def corners(self) -> List[Point2D]:
        return [Point2D(x, y) for y in (self.y_min, self.y_max)
                for x in (self.x_min, self.x_max)]

    def contains(self, p: Point2D, margin: float = 0.0) -> bool:
        return (self.x_min - margin <= p.x <= self.x_max + margin
                and self.y_min - margin <= p.y <= self.y_max + margin)


@dataclass
class SolverConfig:
    params: ChannelParams
    bs: List[BaseStation]
    region: SearchRegion
    antenna_model: AntennaModel = AntennaModel.OMNI

    def __post_init__(self):
        if self.antenna_model is AntennaModel.DIRECTIONAL:
            for b in self.bs:
                if b.role.measures_rss and not isinstance(b.antenna, DirectionalAntenna):
                    raise ValueError(
                        f"directional model requires a directional antenna on "
                        f"RSS station {b.id}"
                    )


class _Geometry(NamedTuple):
    """Station-to-candidate geometry: (N, n) tables for N stations, n points."""

    logd2: np.ndarray     # log10 of the squared distance
    ux: np.ndarray        # unit vector from the station toward the candidate
    uy: np.ndarray
    singular: np.ndarray  # (n,) candidate within _SINGULAR_TOL of a station

    @classmethod
    def of(cls, sx: np.ndarray, sy: np.ndarray, x: np.ndarray, y: np.ndarray
           ) -> "_Geometry":
        dx = x - sx[:, None]
        dy = y - sy[:, None]
        d2 = dx * dx
        d2 += dy * dy
        singular = (d2 < _SINGULAR_TOL2).any(axis=0)
        # singular candidates evaluate to inf anyway; the clamp only keeps
        # log10 and the division finite there
        np.maximum(d2, _SINGULAR_TOL2, out=d2)
        d = np.sqrt(d2)
        dx /= d
        dy /= d
        return cls(np.log10(d2, out=d2), dx, dy, singular)


@dataclass
class _Model:
    """One epoch's measurement and antenna state, as per-station arrays."""

    sx: np.ndarray          # station x, ascending station id
    sy: np.ndarray
    c: np.ndarray           # centred measured RSS, c_i = P_i - mean(P)
    gcos: Optional[np.ndarray]  # peak gain (dB) times the boresight's cos and
    gsin: Optional[np.ndarray]  # sin; None for the omni model
    directional: bool
    alpha: float

    @classmethod
    def build(cls, cfg: SolverConfig, m: MeasurementSet) -> "_Model":
        stations = [b for b in rss_stations(cfg.bs) if b.id in m.rss]
        if len(stations) != len(m.rss):
            unknown = set(m.rss) - {b.id for b in stations}
            raise ValueError(f"measurement references unknown stations {sorted(unknown)}")
        directional = cfg.antenna_model is AntennaModel.DIRECTIONAL
        gcos = gsin = None
        if directional:
            gcos = np.array([b.antenna.gain_db * math.cos(b.antenna.orientation)
                             for b in stations])
            gsin = np.array([b.antenna.gain_db * math.sin(b.antenna.orientation)
                             for b in stations])
        return cls(
            sx=np.array([b.position.x for b in stations]),
            sy=np.array([b.position.y for b in stations]),
            c=centred(np.array([m.rss[b.id] for b in stations])),
            gcos=gcos,
            gsin=gsin,
            directional=directional,
            alpha=cfg.params.alpha,
        )

    def evaluate(self, g: _Geometry) -> np.ndarray:
        """Objective at every candidate of g: N * sum_i (r_i - mean r)^2.

        Candidates within _SINGULAR_TOL of a station evaluate to +inf so a
        grid scan stays total.
        """
        # r_i = c_i - m_i, with the model m_i = -5 alpha log10 d_i^2 + g_i
        r = g.logd2 * (5.0 * self.alpha)
        r += self.c[:, None]
        if self.directional:
            # gain * cos(off-boresight angle), clamped at 0 as antenna_gain
            gain = g.ux * self.gcos[:, None]
            gain += g.uy * self.gsin[:, None]
            np.maximum(gain, 0.0, out=gain)
            r -= gain
        n = len(r)
        r -= r.sum(axis=0) / n
        q = np.einsum("in,in->n", r, r)
        q *= n
        q[g.singular] = np.inf
        return q

    def objective(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sum-of-squared-residuals at each candidate point (vectorized)."""
        return self.evaluate(_Geometry.of(self.sx, self.sy, x, y))


def rssd_objective(cfg: SolverConfig, m: MeasurementSet, p: Point2D) -> float:
    """Least-squares objective at a single candidate, in dB^2."""
    model = _Model.build(cfg, m)
    d2 = (model.sx - p.x) ** 2 + (model.sy - p.y) ** 2
    if (d2 < _SINGULAR_TOL2).any():
        raise SingularCandidate(f"candidate ({p.x}, {p.y}) coincides with a station")
    return float(model.objective(np.array([p.x]), np.array([p.y]))[0])


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = max(int(math.floor((hi - lo) / step + 1e-9)), 0)
    g = lo + step * np.arange(n + 1)
    if g[-1] < hi - 1e-12:
        g = np.append(g, hi)
    return g


_BLOCK = 4096  # coarse candidates per objective call; keeps temporaries small


@functools.lru_cache(maxsize=4)
def _coarse_geometry(sx: Tuple[float, ...], sy: Tuple[float, ...], reg: SearchRegion
                     ) -> Tuple[np.ndarray, np.ndarray, Tuple[_Geometry, ...]]:
    """The coarse grid of a region (row-major: y slow, x fast) and its
    geometry toward the given stations, shared read-only by every epoch.

    The geometry comes in column blocks of _BLOCK candidates.  Evaluating a
    whole grid at once would allocate several N x G temporaries per call,
    and allocating (page-faulting) them costs more than the arithmetic.
    """
    gx, gy = np.meshgrid(_grid(reg.x_min, reg.x_max, reg.coarse_step),
                         _grid(reg.y_min, reg.y_max, reg.coarse_step))
    x, y = gx.ravel(), gy.ravel()
    sx, sy = np.array(sx), np.array(sy)
    blocks = tuple(_Geometry.of(sx, sy, x[a:a + _BLOCK], y[a:a + _BLOCK])
                   for a in range(0, len(x), _BLOCK))
    for a in (x, y) + tuple(t for g in blocks for t in g):
        a.setflags(write=False)
    return x, y, blocks


def _smallest(q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ties by index: the first k of a
    stable argsort, without sorting all of q."""
    if len(q) > k:
        # everything not above the k-th smallest value (NaN included)
        q_k = np.partition(q, k - 1)[k - 1]
        idx = np.flatnonzero(~(q > q_k))
        return idx[np.argsort(q[idx], kind="stable")[:k]]
    return np.argsort(q, kind="stable")


_STENCIL = np.arange(-2, 3)  # refine offsets, in steps
_REFINE_SEEDS = 8  # coarse cells kept as refinement starting points
_LINE = np.arange(33)  # line-search heights per round, in 1/32 of the bracket
_LINE_TOL = 1e-7  # m; final bracket width of the line search


def _refine(model: _Model, reg: SearchRegion, bx: np.ndarray, by: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-halving refinement of every seed at once.

    Each round scans the 5x5 stencil around each seed's best point, clipped
    to the region, in one objective call.  Within a stencil the first
    minimum wins, i.e. the smallest (y, x).
    """
    n = len(bx)
    rows = np.arange(n)
    bq = np.full(n, math.inf)
    step = reg.coarse_step / 2.0
    for _ in range(reg.refine_iterations):
        xs = np.clip(bx[:, None] + step * _STENCIL, reg.x_min, reg.x_max)
        ys = np.clip(by[:, None] + step * _STENCIL, reg.y_min, reg.y_max)
        gx = np.repeat(xs[:, None, :], 5, axis=1).reshape(n, 25)  # x fast
        gy = np.repeat(ys, 5, axis=1)                             # y slow
        q = model.objective(gx.ravel(), gy.ravel()).reshape(n, 25)
        k = q.argmin(axis=1)
        bx, by, bq = gx[rows, k], gy[rows, k], q[rows, k]
        step /= 2.0
    return bx, by, bq


def solve_rssd(cfg: SolverConfig, m: MeasurementSet) -> Point2D:
    """2D argmin of the RSSD objective over the search region.

    Coarse scan at region.coarse_step, then refine_iterations rounds of a
    local 5x5 grid with the step halved each round (final resolution
    coarse_step / 2**refine_iterations).  The directional gain clamp can
    carve shallow secondary basins, so refinement starts from the several
    best coarse cells and keeps the best refined result, ties going to the
    smallest (y, x).
    """
    model = _Model.build(cfg, m)
    reg = cfg.region
    x, y, blocks = _coarse_geometry(tuple(model.sx.tolist()),
                                    tuple(model.sy.tolist()), reg)
    q = np.concatenate([model.evaluate(g) for g in blocks])
    seeds = _smallest(q, _REFINE_SEEDS)
    bx, by, bq = _refine(model, reg, x[seeds], y[seeds])
    k = np.lexsort((bx, by, bq))[0]
    return Point2D(float(bx[k]), float(by[k]))


def solve_rssd_tdoa(cfg: SolverConfig, m: MeasurementSet) -> Point2D:
    """1D argmin along the measured TDOA hyperbola.

    The hyperbola is parametrized by y in the TDOA pair's canonical frame,
    where its equation gives x.  The search runs over that y: a coarse scan
    at region.coarse_step, then bracket scans around the best coarse cell.
    Each round evaluates 33 evenly spaced heights across the bracket in one
    objective call and keeps the two cells around the first minimum (the
    smallest y on ties), clipped at the bracket ends, so the bracket shrinks
    16x per round until it is _LINE_TOL wide.  The objective is evaluated at
    the hyperbola points mapped out to scenario coordinates.
    """
    if m.tdoa is None:
        raise MissingTdoa("measurement set carries no TDOA observation")
    frame, h = measured_hyperbola(m.tdoa, cfg.bs)
    model = _Model.build(cfg, m)

    corner_y = [frame.to_canonical(c).y for c in cfg.region.corners()]
    y_lo, y_hi = min(corner_y), max(corner_y)

    def q_of_y(y: np.ndarray) -> np.ndarray:
        """Objective at each canonical height of y."""
        return model.objective(*frame.from_canonical_xy(hyperbola_x_of_y(h, y), y))

    ys = _grid(y_lo, y_hi, cfg.region.coarse_step)
    y0 = float(ys[int(np.argmin(q_of_y(ys)))])
    lo = max(y_lo, y0 - cfg.region.coarse_step)
    hi = min(y_hi, y0 + cfg.region.coarse_step)
    last = len(_LINE) - 1
    while hi - lo > _LINE_TOL:
        y = lo + (hi - lo) / last * _LINE
        k = int(np.argmin(q_of_y(y)))
        lo, hi = float(y[max(k - 1, 0)]), float(y[min(k + 1, last)])
    y_star = 0.5 * (lo + hi)
    return frame.from_canonical(Point2D(float(hyperbola_x_of_y(h, y_star)), y_star))
