"""Position estimation from RSSD measurements.

Station i reads P_i = T - 10 alpha log10(d_i) + g_i + noise, where T is the
user's unknown transmit power and g_i the directional receive gain toward
the user (0 for the omni model).  The fit is least squares over the RSS
differences of all station pairs, which cancel T.  With the model
m_i = -5 alpha log10(d_i^2) + g_i at a candidate, the residual of pair (i, j)
is u_i - u_j with u_i = P_i - m_i, and

    sum_{i<j} (u_i - u_j)^2 = N * sum_i (r_i - mean(r))^2,
    r_i = c_i - m_i,   c_i = P_i - mean(P),

so the objective costs O(N) per candidate instead of O(N^2): T is profiled
out, as in separable least squares.  The residual is centred by
subtraction: N * sum(r^2) - (sum r)^2 would cancel badly near the optimum.
The directional gain is geometry.cosine_gain, the clamped cosine of the
off-boresight angle, gain * max(0, (dx cos b + dy sin b) / d), with no
trigonometry per candidate.

Two search strategies:

* unconstrained 2D least squares over a rectangular region, by a coarse grid
  scan followed by local grid refinement with step halving from the best
  few coarse cells at once.  The coarse scan finds those seeds without
  evaluating the float64 objective at every cell.  For the omni model it
  expands the square: with L_c = log10 d^2 centred over stations and
  a = 5 alpha, the objective is N (c.c + 2a c.L_c + a^2 |L_c|^2), one
  matrix product of a chunk of epochs' c against tables cached per
  station layout and region.  The expansion rounds relative to the whole
  objective, not to the small residual near the optimum, so it only
  shortlists coarse cells, and runs in float32; a shortlist counts only
  when its gap to the seeds clears a rounding bound derived from the
  expansion's term magnitudes.  For the directional model, whose gains
  change whenever the antennas are re-pointed, so that the closed loop
  solves one epoch per call, a branch and bound over square blocks of
  the grid runs one epoch at a time: it bounds each station's residual
  over a block by an interval, from the block's range of log10 d^2,
  cached likewise, and the arc of directions toward it, and evaluates the
  objective only in the blocks whose bound does not rule them out.
  Either way the float64 subtraction-centred objective ranks the
  candidates, refines the seeds and picks the estimate, and an epoch
  whose candidates cannot be shown to hold the seeds is ranked over the
  whole grid, so every estimate is the one the float64 objective alone
  gives;
* TDOA-constrained 1D least squares along the measured hyperbola, by a
  coarse scan over y followed by bracket scans that evaluate a whole row of
  heights in one objective call per round, with the x-coordinate recovered
  from the hyperbola equation.  The search runs in the TDOA pair's
  canonical frame: the stations' positions in it are cached per pair and
  layout, their antennas' gain vectors are rotated in once per call, and
  only each estimate is mapped out.  The
  objective reads distances and the dot products of cosine_gain, which
  the rigid map leaves as they are.  A stack of epochs is searched in
  lockstep, one row of heights per epoch: the coarse scans share
  the pair's grid of heights, and every epoch runs the same count of
  rounds, fixed by the region.  An epoch with no hyperbola is masked out
  and left to the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .channel import ChannelParams, MeasurementSet, centred
from .errors import EmptyRegion, SingularCandidate
from .geometry import (CanonicalFrame, Hyperbola, Layout, Point2D, Stations, branch_x,
                       cosine_gain, measured_hyperbolas)

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
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise EmptyRegion(
                f"empty region [{self.x_min}, {self.x_max}] x "
                f"[{self.y_min}, {self.y_max}]"
            )
        if not self.coarse_step > 0:
            raise ValueError("coarse_step must be > 0")
        if not self.refine_iterations >= 0:
            raise ValueError(f"refine_iterations must be >= 0, got {self.refine_iterations}")

    def contains(self, p: Point2D, margin: float = 0.0) -> bool:
        return (self.x_min - margin <= p.x <= self.x_max + margin
                and self.y_min - margin <= p.y <= self.y_max + margin)

    def heights(self, frame: CanonicalFrame) -> Tuple[float, float]:
        """The least and greatest canonical y of the region's corners in a
        TDOA pair's frame: the heights both TDOA paths search its branch over."""
        ys = [frame.to_canonical(Point2D(x, y)).y for y in (self.y_min, self.y_max)
              for x in (self.x_min, self.x_max)]
        return min(ys), max(ys)


@dataclass
class SolverConfig:
    """bs is a station list or a Stations table; stations is its table."""

    params: ChannelParams
    bs: Layout
    region: SearchRegion
    antenna_model: AntennaModel = AntennaModel.OMNI
    stations: Stations = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        st = self.stations = Stations.of(self.bs)
        if self.antenna_model is AntennaModel.DIRECTIONAL and not st.directional.all():
            raise ValueError(f"directional model requires a directional antenna on "
                             f"RSS station {st.ids[~st.directional][0]}")


class _Geometry(NamedTuple):
    """Station-to-candidate geometry: (N, n) tables for N stations, n points."""

    logd2: np.ndarray     # log10 of the squared distance
    ux: Optional[np.ndarray]  # unit vector from the station toward the
    uy: Optional[np.ndarray]  # candidate; None unless asked for
    singular: Optional[np.ndarray]  # (n,) candidate within _SINGULAR_TOL of a
                                    # station; None when no candidate is

    @classmethod
    def of(cls, sx: np.ndarray, sy: np.ndarray, x: np.ndarray, y: np.ndarray,
           units: bool = True) -> "_Geometry":
        dx = x - sx[:, None]
        dy = y - sy[:, None]
        d2 = dx * dx
        d2 += dy * dy
        singular = None
        # argmin finds the least distance in less time than a reduction
        # takes to start on a line search's few candidates
        if d2.item(d2.argmin()) < _SINGULAR_TOL2:
            singular = (d2 < _SINGULAR_TOL2).any(axis=0)
            # singular candidates evaluate to inf anyway; the clamp only
            # keeps log10 and the division finite there
            np.maximum(d2, _SINGULAR_TOL2, out=d2)
        if units:
            d = np.sqrt(d2)
            dx /= d
            dy /= d
        else:
            dx = dy = None
        return cls(np.log10(d2, out=d2), dx, dy, singular)


@dataclass
class _Model:
    """Measurements and antenna state as per-station arrays; c holds one
    column per epoch of a stack (one column for a single epoch)."""

    sx: np.ndarray          # station x, ascending station id
    sy: np.ndarray
    c: np.ndarray           # (N, epochs) centred measured RSS, P_i - mean(P)
    gcos: Optional[np.ndarray]  # (N, 1) columns of cosine_gain's gcos and
    gsin: Optional[np.ndarray]  # gsin; None for the omni model
    alpha: float

    @classmethod
    def build(cls, cfg: SolverConfig, m: MeasurementSet) -> "_Model":
        """The model of a measurement set, one epoch or a stack read with
        the same antennas; it must be of the config's station table, and
        its RSS finite (ValueError otherwise)."""
        st = cfg.stations
        if m.ids is not st.ids and not np.array_equal(m.ids, st.ids):
            raise ValueError(f"measurement of stations {m.ids.tolist()}, not the "
                             f"config's RSS stations {st.ids.tolist()}")
        rss = np.atleast_2d(m.rss)
        bad = ~np.isfinite(rss).all(axis=0)
        if bad.any():
            raise ValueError(f"non-finite RSS from stations {st.ids[bad].tolist()}")
        gain = ((st.gcos[:, None], st.gsin[:, None])
                if cfg.antenna_model is AntennaModel.DIRECTIONAL else (None, None))
        return cls(st.x, st.y, centred(rss).T, *gain, cfg.params.alpha)

    def epochs(self, cols) -> "_Model":
        """The model of some of its epochs: cols indexes the columns of c."""
        return _Model(self.sx, self.sy, self.c[:, cols], self.gcos, self.gsin, self.alpha)

    def in_frame(self, frame: CanonicalFrame) -> "_Model":
        """The model in a TDOA pair's canonical frame: the stations' positions
        and the antennas' (G cos b, G sin b) rotated as frame.to_canonical
        rotates, so that its objective at a canonical point is the model's
        at the point frame.from_canonical_xy maps it to, up to rounding.  The
        positions come from _frame_stations; only the gains are rotated
        here."""
        c, s, x, y = _frame_stations(frame, tuple(self.sx.tolist()), tuple(self.sy.tolist()))
        gain = ((None, None) if self.gcos is None
                else (c * self.gcos + s * self.gsin, c * self.gsin - s * self.gcos))
        return _Model(x, y, self.c, *gain, self.alpha)

    def objective(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Objective N * sum_i (r_i - mean r)^2 at each candidate, in the
        candidates' shape: (epochs, k) candidates, row e read against epoch
        e, or (k,) candidates of a one-epoch model.

        Candidates within _SINGULAR_TOL of a station evaluate to +inf so a
        grid scan stays total.
        """
        directional = self.gcos is not None
        g = _Geometry.of(self.sx, self.sy, x.ravel(), y.ravel(), units=directional)
        # r_i = c_i - m_i, with the model m_i = -5 alpha log10 d_i^2 + g_i,
        # built in place of the geometry's log table; each epoch's column of
        # c is repeated for its k candidates; a one-epoch model's column is
        # broadcast over its candidates, which spares the line search's small
        # calls a copy each
        r = g.logd2
        r *= 5.0 * self.alpha
        r += self.c if self.c.shape[1] == 1 else self.c.repeat(x.shape[1], axis=1)
        if directional:
            r -= cosine_gain(self.gcos, self.gsin, g.ux, g.uy)
        n = len(r)
        r -= r.sum(axis=0) / n
        q = np.einsum("in,in->n", r, r)
        q *= n
        if g.singular is not None:
            q[g.singular] = np.inf
        return q.reshape(x.shape)


def rssd_objective(cfg: SolverConfig, m: MeasurementSet, p: Point2D) -> float:
    """Least-squares objective at a single candidate, in dB^2.

    A lone candidate's residual is summed in another order than a batch's,
    so the value can differ in the last ulp from the one the solver ranked
    at the same point.
    """
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


class _Coarse(NamedTuple):
    """A region's coarse grid (row-major: y slow, x fast) and its geometry
    toward a station layout.  The (N, G) tables are float32, centred over
    stations for the omni shortlist's expanded form.  The (N, B) tables
    bound the geometry, in float64, over the B square blocks of the grid,
    _BLOCK_SIDE cells a side (fewer at its far edges), that the directional
    search branches over."""

    x: np.ndarray         # (G,) candidate coordinates
    y: np.ndarray
    lc: np.ndarray        # (N, G) log10 d^2 minus its mean over stations
    lc2: np.ndarray       # (G,) sum over stations of lc^2
    lc_max: np.float64    # largest |lc| column norm over the non-singular cells
    log_max: np.float64   # largest |log10 d^2| over the non-singular cells
    singular: np.ndarray  # (G,) candidate within _SINGULAR_TOL of a station
    cells: np.ndarray     # (B, side^2) grid indices of each block's cells, G past the grid
    log_lo: np.ndarray    # (N, B) least and greatest log10 d^2 over each block's
    log_hi: np.ndarray    # non-singular cells; NaN for a block of none
    arc: np.ndarray       # (N, 2, B) conjugated unit vectors toward the ends of
                          # the arc of directions to the block, clockwise end
                          # first; 0 where the station lies in its rectangle


def _tiled(a: np.ndarray, ny: int, nx: int, fill) -> np.ndarray:
    """(..., by, side, bx, side) copy of an (..., ny * nx) table of the
    coarse grid, filled past its far edges: [..., i, :, j, :] is block
    (i, j), side = _BLOCK_SIDE."""
    k = _BLOCK_SIDE
    lead = a.shape[:-1]
    out = np.full(lead + (-(-ny // k) * k, -(-nx // k) * k), fill, a.dtype)
    out[..., :ny, :nx] = a.reshape(lead + (ny, nx))
    return out.reshape(lead + (out.shape[-2] // k, k, out.shape[-1] // k, k))


def _block_range(a: np.ndarray, ny: int, nx: int) -> List[np.ndarray]:
    """The least and greatest values of an (..., ny * nx) table of the
    coarse grid over each block's cells, NaN left out: two (..., B)."""
    t = _tiled(a, ny, nx, np.nan)
    return [f.reduce(f.reduce(t, axis=-1), axis=-2).reshape(a.shape[:-1] + (-1,))
            for f in (np.fmin, np.fmax)]


@functools.lru_cache(maxsize=4)
def _coarse_tables(sx: Tuple[float, ...], sy: Tuple[float, ...], reg: SearchRegion
                   ) -> _Coarse:
    """The coarse tables of a region and station layout, shared read-only
    by every epoch; re-pointing the antennas changes none of them.  lc and
    lc2 are the float32 rounding of their float64 values; log_lo and log_hi
    are read off the float64 log table that the objective computes."""
    xs = _grid(reg.x_min, reg.x_max, reg.coarse_step)
    ys = _grid(reg.y_min, reg.y_max, reg.coarse_step)
    gx, gy = np.meshgrid(xs, ys)
    x, y = gx.ravel(), gy.ravel()
    lc, _, _, singular = _Geometry.of(np.array(sx), np.array(sy), x, y, units=False)
    singular = np.zeros(len(x), bool) if singular is None else singular
    # each block's cells, and over them its range of log10 d^2 and its
    # rectangle
    ny, nx = len(ys), len(xs)
    cells = _tiled(np.arange(len(x)), ny, nx, len(x)).swapaxes(1, 2).reshape(-1, _BLOCK_SIDE ** 2)
    log_lo, log_hi = _block_range(np.where(singular, np.nan, lc), ny, nx)
    (x0, y0), (x1, y1) = _block_range(np.stack([x, y]), ny, nx)
    sx, sy = np.array(sx)[:, None], np.array(sy)[:, None]
    inside = (x0 <= sx) & (sx <= x1) & (y0 <= sy) & (sy <= y1)
    vx = np.stack([x0, x1, x1, x0], axis=1) - sx[..., None]  # (N, B, 4)
    vy = np.stack([y0, y0, y1, y1], axis=1) - sy[..., None]
    # from outside, the corners span an arc shorter than pi around the
    # direction of the centre, so their angles from it order the arc
    mx, my = (0.5 * (x0 + x1) - sx)[..., None], (0.5 * (y0 + y1) - sy)[..., None]
    angle = np.arctan2(mx * vy - my * vx, mx * vx + my * vy)
    # each end's unit vector, conjugated: times gcos + i gsin it gives the
    # gain toward the end before the clamp, and the cross product of the
    # end with the boresight
    arc = np.empty((len(sx), 2, len(x0)), complex)
    for k, end in enumerate((angle.argmin(axis=2), angle.argmax(axis=2))):
        ex = np.take_along_axis(vx, end[..., None], axis=2)[..., 0]
        ey = np.take_along_axis(vy, end[..., None], axis=2)[..., 0]
        d = np.hypot(ex, ey)
        d[inside] = np.inf  # a zero end: its gain and cross product read 0
        arc[:, k].real = ex / d
        arc[:, k].imag = -ey / d
    log_max = np.abs(lc).max(initial=0.0, where=~singular)
    lc -= lc.sum(axis=0) / len(sx)
    lc2 = np.einsum("ig,ig->g", lc, lc)
    lc_max = np.sqrt(lc2.max(initial=0.0, where=~singular))
    tables = _Coarse(x, y, lc.astype(np.float32), lc2.astype(np.float32), lc_max, log_max,
                     singular, cells, log_lo, log_hi, arc)
    for a in tables:
        a.setflags(write=False)
    return tables


_STENCIL = np.arange(-2, 3)  # refine offsets, in steps
_REFINE_SEEDS = 8  # coarse cells kept as refinement starting points
_SHORTLIST = 2 * _REFINE_SEEDS  # coarse cells the expanded form passes on per epoch
_BLOCK_SIDE = 7  # coarse cells a side of a directional branch-and-bound block
_PROBES = 4  # least-bounded blocks whose cells set the directional threshold
_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53  # unit roundoff of float64
_CHUNK = 4  # epochs per omni float32 coarse product; keeps it below the size
            # at which OpenBLAS splits it over threads: from 16 epochs that
            # split made it 20-40x slower on a 2-vCPU machine (CHANGES.md FOUND)
# Line-search heights per round as fractions of the bracket: width * (k / 32)
# rounds as (width / 32) * k does, since dividing by a power of two is exact.
_LINE = np.arange(33) / 32
# the bracket after a round whose first minimum is cell k, as fractions of
# the last one: the cells around k, clipped at the bracket ends
_AROUND = _LINE[[[max(k - 1, 0), min(k + 1, len(_LINE) - 1)] for k in range(len(_LINE))]]
_LINE_TOL = 1e-7  # m; final bracket width of the line search
_LOCKSTEP = 16  # epochs per lockstep refinement or line search; bounds their
               # (stations x epochs * candidates) temporaries


def _expanded(model: _Model, t: _Coarse) -> np.ndarray:
    """The (epochs, cells) omni objective of every epoch of the model over
    the coarse grid, by the expanded form of the module docstring, in
    float32.

    q / N = |c + a Lc|^2 with a = 5 alpha.  As c is centred, that is
    |c|^2 + 2a c.Lc + a^2 |Lc|^2, one matrix product against the cached
    tables.  Every product and sum runs on a float32 copy of c; the error
    this leaves is at most _rounding_bound.  Singular cells are +inf.
    """
    c = model.c.T.astype(np.float32)
    a = 5.0 * model.alpha
    q = c @ t.lc
    q *= 2.0 * a
    q += np.einsum("ti,ti->t", c, c)[:, None]
    q += (a * a) * t.lc2
    q *= c.shape[1]
    q[:, t.singular] = np.inf
    return q


def _rounding_bound(model: _Model, t: _Coarse) -> np.ndarray:
    """(epochs,) bounds on |_expanded - objective| over the finite cells.

    Each of the three terms of q / N is a sum over the N stations of
    products of float32-rounded factors, so by the inner-product bound
    |fl(x.y) - x.y| <= gamma_n |x|.|y|, gamma_n = n u / (1 - n u), u = 2^-24
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1), q errs by at most N gamma_(N+16) times the sum of the
    terms' magnitudes.  The 16 covers, with room to spare, the rounding of
    the factors, of the scalars 2a and a^2, of the additions of the terms,
    of the scaling by N and the float64 objective's own.  By Cauchy-Schwarz
    the magnitudes sum to at most (|c| + a max|Lc|)^2, with max|Lc| over
    the finite cells.  The bound holds for any order of summation, so for
    whichever kernel the BLAS picks.

    The float64 log table and objective also err in absolute terms:
    centring over stations cancels residuals of up to R = a (max|log10
    d^2| + 1) + max|c|, so each centred residual errs by up to
    delta = (N + 16) u64 R, however small it is (nearly coincident
    stations), and each of the two moves q by up to
    N (2 sqrt(N) span delta + N delta^2).
    """
    n = len(model.c)
    a = 5.0 * model.alpha
    span = np.sqrt(np.einsum("it,it->t", model.c, model.c))
    span += a * t.lc_max
    nu = (n + 16) * _U32
    delta = (n + 16) * _U64 * (a * (t.log_max + 1.0) + np.abs(model.c).max(axis=0))
    return ((n * nu / (1.0 - nu)) * span * span
            + 2 * n * (2 * math.sqrt(n) * span * delta + n * delta * delta))


def _ranked(cells: np.ndarray, q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first k of each epoch's candidates, (..., k) grid indices and
    their objective values, by value, ties going to the smaller index: of
    one epoch's (n,) candidates, or of (epochs, n), a row each."""
    order = np.lexsort((cells, q), axis=-1)[..., :k]
    return np.take_along_axis(cells, order, -1), np.take_along_axis(q, order, -1)


def _shortlist(model: _Model, t: _Coarse) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The omni seeds of _coarse_seeds, ranked from the _SHORTLIST cells of
    least expanded form, in float32, for every epoch of the model at once.
    A cell left out has an expanded value at least the last shortlisted
    one's, and an objective at least that minus _rounding_bound, so it
    cannot rank among the seeds when that value clears the last seed's
    objective by more than the bound; an epoch whose objective is too flat
    for that (coincident stations) gets None."""
    k = min(_SHORTLIST, len(t.x))
    q = _expanded(model, t)
    cells = np.argpartition(q, k - 1, axis=1)[:, :k]
    cutoff = q[np.arange(len(q))[:, None], cells].max(axis=1)
    seeds, sq = _ranked(cells, model.objective(t.x[cells], t.y[cells]), _REFINE_SEEDS)
    clear = cutoff - sq[:, -1] > _rounding_bound(model, t)
    return [(s, v) if ok else None for s, v, ok in zip(seeds, sq, clear)]


def _intervals(model: _Model, t: _Coarse) -> Tuple[np.ndarray, np.ndarray]:
    """(N, B) ends lo and hi of intervals that hold station i's directional
    residual r_i = c_i + a L_i - g_i over the finite cells of each block,
    for the model's one epoch, hi raised by 2 eta, so that lo_i - hi_j is
    the gap between the intervals of i and j widened by eta.

    L_i spans the block's log_lo to log_hi.  Seen from a station outside
    the block's rectangle, the directions toward it span an arc shorter
    than pi, over which the clamped cosine gain (geometry.cosine_gain) is
    least at one of the arc's ends, and greatest at one of them unless the
    boresight lies in the arc, where it is G.  A station in the rectangle
    has zero ends, which give it [0, G].

    eta covers float64 rounding, with u = 2^-53 and R = a max|L| + max|c|
    + G, G the largest peak gain.  A residual the objective computes lies
    within 24 u R of its interval as computed here: 3 u R for the three
    roundings of the residual, 3 u R for those of each interval end, 2 u R
    for a log10 that rounds otherwise than the table's, and 16 u G for the
    gains, each within 8 u G of the gain toward the exact direction (the
    unit vector's roundings and the two-term form's, times |gcos| + |gsin|
    <= sqrt(2) G), an arc end read from rounded corners and angles
    included.  eta = 32 u R also covers the rounding of lo_i - hi_j.
    """
    a = 5.0 * model.alpha
    bore = model.gcos + 1j * model.gsin
    peak = np.abs(bore)
    z = t.arc * bore[..., None]
    gain = np.maximum(z.real, 0.0)  # toward the arc's two ends
    least = np.minimum(gain[:, 0], gain[:, 1])
    most = np.maximum(gain[:, 0], gain[:, 1])
    # the boresight lies in the arc: anticlockwise of its first end and
    # clockwise of its other
    np.copyto(most, peak, where=(z.imag[:, 0] >= 0.0) & (z.imag[:, 1] <= 0.0))
    eta = 32 * _U64 * (a * t.log_max + np.abs(model.c).max() + peak.max())
    return a * t.log_lo - most + model.c, a * t.log_hi - least + (model.c + 2 * eta)


def _shrunk(bound: np.ndarray, n: int) -> np.ndarray:
    """A bound of _branch_and_bound, in place, lowered to cover the
    rounding of the objective and of its own sum of squares, for n
    stations.

    Centring by a rounded mean can only add to a sum of squares, so the
    objective is at least (1 - gamma_(N+3)) N sum_i (r_i - mean r)^2 of the
    residuals it computes; and a bound sums at most P = N (N - 1) / 2
    rounded squares, so it is at most (1 + gamma_(P+3)) times its exact
    value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1).  Scaling by 1 - (N^2 + 16) u covers both, and
    subtracting (N^2 + 16) 2^-1074 covers gradual underflow.
    """
    bound *= 1.0 - (n * n + 16) * _U64
    bound -= (n * n + 16) * 2.0 ** -1074
    return bound


def _branch_and_bound(model: _Model, t: _Coarse) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The directional seeds of _coarse_seeds for the model's one epoch, by
    branch and bound over the blocks of the grid (Land and Doig,
    Econometrica 28(3), 1960).

    Two lower bounds of the objective over a block's finite cells come from
    _intervals.  With Delta the gap between the highest lower end and the
    lowest upper end, q = N sum_i (r_i - mean r)^2 >= N/2 Delta^2: the
    spread bound.  As q = sum_{i<j} (r_i - r_j)^2, q is at least the sum
    of the squared gaps between each pair's intervals: the pair bound.  Of
    a pair's lo_i - hi_j and lo_j - hi_i at most one is positive, so that
    sum is the one of the positive parts over all ordered pairs.  Both are
    _shrunk.  The spread bound costs O(N) a block and the pair bound
    O(N^2), so the pair bound is taken only of the blocks that the spread
    bound leaves.

    The objective at the cells of the _PROBES blocks of least spread bound
    sets tau, their _REFINE_SEEDS-th least value, which is at least the
    grid's.  The seeds are ranked from those cells and the cells of every
    other block whose bounds are both at most tau, so no cell whose
    objective is at most tau is left out.  A block's cells past the grid's
    far edges (index G in t.cells) are dropped.  None when the probed cells
    hold fewer than _REFINE_SEEDS finite values.
    """
    lo, hi = _intervals(model, t)
    n = len(lo)
    spread = lo.max(axis=0) - hi.min(axis=0)
    np.maximum(spread, 0.0, out=spread)
    spread = _shrunk(np.square(spread, out=spread) * (n / 2), n)
    probes = min(_PROBES, len(spread))
    probed = np.argpartition(spread, probes - 1)[:probes]
    cells = t.cells[probed].ravel()
    cells = cells[cells < len(t.x)]
    q = model.objective(t.x[cells], t.y[cells])
    if np.count_nonzero(np.isfinite(q)) < _REFINE_SEEDS:
        return None
    tau = np.partition(q, _REFINE_SEEDS - 1)[_REFINE_SEEDS - 1]
    near = spread <= tau
    near[probed] = False
    cols = np.flatnonzero(near)
    gap = lo[:, None, cols] - hi[:, cols]
    np.maximum(gap, 0.0, out=gap)
    more = t.cells[cols[_shrunk(np.einsum("ijb,ijb->b", gap, gap), n) <= tau]].ravel()
    more = more[more < len(t.x)]
    if len(more):
        # a lone candidate sums in another order than a batch's
        # (rssd_objective), and the far corner's block may hold one cell:
        # it is evaluated twice and read once
        twice = np.resize(more, max(len(more), 2))
        cells = np.concatenate([cells, more])
        q = np.concatenate([q, model.objective(t.x[twice], t.y[twice])[:len(more)]])
    # only the cells at most the _REFINE_SEEDS-th least value rank among
    # the seeds: sorting just those spares sorting the rest
    least = q <= np.partition(q, _REFINE_SEEDS - 1)[_REFINE_SEEDS - 1]
    return _ranked(cells[least], q[least], _REFINE_SEEDS)


def _coarse_seeds(model: _Model, t: _Coarse) -> Tuple[np.ndarray, np.ndarray]:
    """The refinement seeds of every epoch of the model: (T, seeds) grid
    indices, the first of a stable sort of the objective over the coarse
    grid, and their objective values.

    The float64 objective ranks each epoch's candidates (_ranked), ties
    going to the smaller grid index: those of the omni shortlist
    (_shortlist), _CHUNK epochs at a time, or of the directional branch
    and bound (_branch_and_bound), one epoch at a time.  Either holds
    every cell that can rank among the seeds, so the seeds are those of
    the objective alone.  An epoch whose candidates cannot be shown to
    hold them (None) is ranked over the whole grid instead.
    """
    epochs = [model.epochs(slice(e, e + 1)) for e in range(model.c.shape[1])]
    found = ([f for lo in range(0, len(epochs), _CHUNK)
              for f in _shortlist(model.epochs(slice(lo, lo + _CHUNK)), t)]
             if model.gcos is None else [_branch_and_bound(one, t) for one in epochs])
    for e, one in enumerate(epochs):
        if found[e] is None:
            q = one.objective(t.x, t.y)
            s = np.argsort(q, kind="stable")[:_REFINE_SEEDS]
            found[e] = s, q[s]
    seeds, sq = zip(*found)
    return np.array(seeds), np.array(sq)


def _refine(model: _Model, reg: SearchRegion, bx: np.ndarray, by: np.ndarray,
            bq: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-halving refinement of every seed at once: bx and by are
    (epochs, seeds) starting points with objective values bq, row e refined
    against epoch e, and the refined points and their objective come back
    in that shape; with no rounds, the starting points themselves.

    Each round scans the 5x5 stencil around each seed's best point, clipped
    to the region, in one objective call.  Within a stencil the first
    minimum wins, i.e. the smallest (y, x).
    """
    epochs, seeds = bx.shape
    # each seed's first stencil point, as a flat index into a round's scan
    first = np.arange(0, 25 * bx.size, 25).reshape(bx.shape)
    gx = np.empty((epochs, seeds, 5, 5))  # a round's stencils: x fast, y slow
    gy = np.empty_like(gx)
    step = reg.coarse_step / 2.0
    for _ in range(reg.refine_iterations):
        offsets = step * _STENCIL
        np.add(bx[..., None, None], offsets, out=gx)
        np.add(by[..., None, None], offsets[:, None], out=gy)
        np.minimum(np.maximum(gx, reg.x_min, out=gx), reg.x_max, out=gx)
        np.minimum(np.maximum(gy, reg.y_min, out=gy), reg.y_max, out=gy)
        q = model.objective(gx.reshape(epochs, -1), gy.reshape(epochs, -1))
        k = q.reshape(epochs, seeds, 25).argmin(axis=2) + first
        bx, by, bq = gx.take(k), gy.take(k), q.take(k)
        step /= 2.0
    return bx, by, bq


def solve_rssd(cfg: SolverConfig, m: MeasurementSet):
    """2D argmin of the RSSD objective over the search region.

    m is one epoch's measurement set, giving one point, or a stack of T
    epochs read with the same antennas, solved together and giving
    (xy, ok): the (T, 2) array of their estimates and a (T,) mask, all
    True.
    Coarse scan at region.coarse_step, then refine_iterations rounds of a
    local 5x5 grid with the step halved each round (final resolution
    coarse_step / 2**refine_iterations).  The directional gain clamp can
    carve shallow secondary basins, so refinement starts from the several
    best coarse cells and keeps the best refined result, ties going to the
    smallest (y, x).  A stack runs _LOCKSTEP epochs at a time through
    their coarse scans (_coarse_seeds) and one refinement of all their
    seeds; each epoch's estimate is the one it gets alone.
    """
    model = _Model.build(cfg, m)
    reg = cfg.region
    t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), reg)
    xy = np.empty((model.c.shape[1], 2))
    for lo in range(0, len(xy), _LOCKSTEP):
        chunk = model.epochs(slice(lo, lo + _LOCKSTEP))
        seeds, sq = _coarse_seeds(chunk, t)
        bx, by, bq = _refine(chunk, reg, t.x[seeds], t.y[seeds], sq)
        best = np.lexsort((bx, by, bq), axis=1)[:, 0]
        xy[lo:lo + _LOCKSTEP] = np.stack([bx, by], axis=2)[np.arange(len(best)), best]
    return Point2D(*xy[0].tolist()) if m.rss.ndim == 1 else (xy, np.ones(len(xy), bool))


@functools.lru_cache(maxsize=4)
def _line_tables(frame: CanonicalFrame, reg: SearchRegion) -> Tuple[np.ndarray, np.ndarray, int]:
    """The heights the line search of the TDOA pair with this canonical
    frame scans over a region, shared read-only by every epoch of the pair:
    the (G,) coarse grid over the region's heights in the frame, the (G, 2)
    first bracket of each coarse cell, +-coarse_step clipped to those
    heights, and the count of bracket rounds, the least that takes the
    widest first bracket to _LINE_TOL at 16x per round."""
    y_lo, y_hi = reg.heights(frame)
    ys = _grid(y_lo, y_hi, reg.coarse_step)
    brackets = np.stack([np.maximum(y_lo, ys - reg.coarse_step),
                         np.minimum(y_hi, ys + reg.coarse_step)], axis=1)
    for a in (ys, brackets):
        a.setflags(write=False)
    width, rounds = float((brackets[:, 1] - brackets[:, 0]).max()), 0
    while width > _LINE_TOL:
        width /= 16.0  # exact: a power of two
        rounds += 1
    return ys, brackets, rounds


@functools.lru_cache(maxsize=4)
def _frame_stations(frame: CanonicalFrame, sx: Tuple[float, ...], sy: Tuple[float, ...]
                    ) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """cos and sin of a TDOA pair's axis angle, and the (N,) positions of
    the stations at (sx, sy) in the pair's canonical frame, shared
    read-only by every epoch of the pair; re-pointing the antennas changes
    none of them."""
    c, s = math.cos(frame.axis_angle), math.sin(frame.axis_angle)
    x, y = np.array(sx) - frame.origin.x, np.array(sy) - frame.origin.y
    x, y = c * x + s * y, c * y - s * x
    for a in (x, y):
        a.setflags(write=False)
    return c, s, x, y


def solve_rssd_tdoa(cfg: SolverConfig, m: MeasurementSet):
    """1D argmin along the measured TDOA hyperbola.

    m is a stack of T epochs read with the same antennas, giving (xy, ok):
    the (T, 2) array of their estimates and a (T,) mask, False (and the
    row NaN) for each epoch whose range difference has no hyperbola; or
    one epoch's measurement set, giving one point.  The TDOA
    observations are read by geometry.measured_hyperbolas, which raises
    for a missing TDOA observation; a one-epoch set without a hyperbola
    raises the DegenerateHyperbola of Hyperbola.from_tdoa, and is the only
    call that raises for an epoch's range difference.  Every epoch's RSS
    must be finite, those without a hyperbola too.

    The hyperbola is parametrized by y in the TDOA pair's canonical frame,
    where its equation gives x.  The search runs over that y, between the
    region's heights: a coarse scan at region.coarse_step, then bracket
    scans around the best coarse cell.
    Each round evaluates 33 evenly spaced heights across the bracket in one
    objective call and keeps the two cells around the first minimum (the
    smallest y on ties), clipped at the bracket ends, so the bracket shrinks
    at least 16x per round.  Every epoch runs the same R rounds, the least
    count that takes the region's widest first bracket to _LINE_TOL at 16x
    per round (R = 5 on both shipped scenarios, whose widest bracket is
    2 * coarse_step = 0.1 m), and its estimate is the middle of its last
    bracket.  The objective is that of the model in the pair's frame
    (_Model.in_frame), evaluated at the branch points themselves; only each
    epoch's estimate is mapped out, by frame.from_canonical_xy.  A stack runs
    _LOCKSTEP epochs at a time in lockstep: one objective call for their
    coarse scans, which share the grid of heights, and one per round,
    1 + R calls in all, so each epoch gets the estimate it gets alone.

    What a pair fixes is cached, not rebuilt per call: its frame
    (CanonicalFrame.from_stations), the RSS stations' positions in that
    frame (_frame_stations) and the heights (_line_tables).  So a
    one-epoch call, as a directional closed loop makes after each
    re-pointing, rotates only the antennas' gain vectors into the frame,
    centres its one RSS row and runs its 1 + R scans.
    """
    frame, r, ok = measured_hyperbolas(cfg.stations, m.tdoa)
    single = m.rss.ndim == 1
    if single and not ok[0]:
        Hyperbola.from_tdoa(m.tdoa[2], frame.half_separation)  # raises: no hyperbola
    model = _Model.build(cfg, m)
    # the epochs with a hyperbola; the rows of the others stay NaN
    model, r = model.epochs(ok).in_frame(frame), r[ok]
    b2 = np.square(frame.half_separation) - r * r
    ys, brackets, rounds = _line_tables(frame, cfg.region)
    height = np.empty(len(r))  # each epoch's estimate, in the frame
    for lo in range(0, len(r), _LOCKSTEP):
        rows = slice(lo, lo + _LOCKSTEP)
        sub = model if len(r) <= _LOCKSTEP else model.epochs(rows)
        rr, bb = r[rows, None], b2[rows, None]

        def scan(y):  # each epoch's first minimum over its row of heights
            return sub.objective(branch_x(rr, bb, y), y).argmin(axis=1)

        ab = brackets[scan(ys[None].repeat(len(rr), axis=0))]
        for _ in range(rounds):
            a, width = ab[:, :1], ab[:, 1:] - ab[:, :1]
            ab = a + width * _AROUND[scan(a + width * _LINE)]  # the cells around the minimum
        height[rows] = 0.5 * (ab[:, 0] + ab[:, 1])
    xy = np.full((len(ok), 2), np.nan)
    xy.T[:, ok] = frame.from_canonical_xy(branch_x(r, b2, height), height)  # the ok rows' x, y
    return Point2D(*xy[0].tolist()) if single else (xy, ok)
