"""Grid fingerprint database and two-step RSSD matching.

The offline phase stores a reference RSS vector per grid point; the online
phase picks the grid point whose pairwise RSS differences are closest (in
the Euclidean sense) to the measured ones, then optionally refines the
coarse pick by projecting it onto the measured TDOA hyperbola.  Both steps
take a stack of epochs, as a measurement set holds them: the match takes
the (T, N) RSS block in one vectorized pass, the projection the block's
TDOA observation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .channel import ChannelParams, centred, simulate_rss
from .errors import EmptyGrid, InvalidScenario, LengthMismatch
from .geometry import (_COINCIDENCE_TOL, Hyperbola, Layout, Point2D, Stations,
                       measured_hyperbolas, project_onto_hyperbola)
from .mobility import _WALK_LIMIT
from .solver import SearchRegion

_EXCLUDE_TOL = 1e-6  # m when matching excluded grid points
_CHUNK = 8  # epochs per distance table; bounds its (epochs x M x N) temporary
# grid points a database may hold: coarse_estimate's (_CHUNK, M, N) float64
# temporary is then at most 6.4 MB per station
_GRID_LIMIT = 10**5


@dataclass
class FingerprintDB:
    """Reference locations and their per-station RSS vectors.

    positions is (n, 2) ordered by (y, x) ascending; rss is (n, N) with
    columns in ascending station-id order (bs_ids).
    """

    positions: np.ndarray
    rss: np.ndarray
    bs_ids: List[int]

    def __len__(self) -> int:
        return len(self.positions)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "y"] + [f"P_{i}" for i in self.bs_ids])
            for pos, vec in zip(self.positions, self.rss):
                w.writerow([f"{pos[0]:.4f}", f"{pos[1]:.4f}"]
                           + [f"{v:.4f}" for v in vec])

    @classmethod
    def from_csv(cls, path) -> "FingerprintDB":
        """Read a database in the format to_csv writes.

        A malformed file raises InvalidScenario naming the file and the
        offending column or line.
        """
        def invalid(problem: str) -> InvalidScenario:
            return InvalidScenario(f"fingerprint file {str(path)!r}: {problem}")

        with open(path, newline="") as f:
            try:
                reader = csv.reader(f)
                header = next(reader, [])
                if header[:2] != ["x", "y"]:
                    raise invalid(f"header must start with x, y, got {header[:2]}")
                ids = []
                for col, name in enumerate(header[2:], start=3):
                    try:
                        if not name.startswith("P_"):
                            raise ValueError(name)
                        ids.append(int(name[2:]))
                    except ValueError:
                        raise invalid(f"column {col} is {name!r}, not P_<station id>") from None
                if len(ids) < 2 or len(set(ids)) != len(ids):
                    raise invalid(f"needs two or more distinct station columns, got {header[2:]}")
                rows = []
                for row in reader:
                    if not row:
                        continue
                    if len(row) != len(header):
                        raise invalid(f"line {reader.line_num} has {len(row)} fields, "
                                      f"the header {len(header)}")
                    try:
                        values = [float(v) for v in row]
                    except ValueError as e:
                        raise invalid(f"line {reader.line_num}: {e}") from None
                    if not all(map(math.isfinite, values)):
                        raise invalid(f"line {reader.line_num} holds a non-finite value")
                    rows.append(values)
            except (UnicodeDecodeError, csv.Error) as e:
                raise invalid(f"cannot parse: {e}") from None
        if not rows:
            raise EmptyGrid(f"no fingerprint rows in {path}")
        arr = np.array(rows)
        order = np.lexsort((arr[:, 0], arr[:, 1]))
        arr = arr[order]
        return cls(arr[:, :2].copy(), arr[:, 2:].copy(), ids)


@dataclass(frozen=True)
class CircularTrackParams:
    center: Point2D = Point2D(1.5, 1.5)
    radius: float = 1.0
    count: int = 48
    start_angle_deg: float = -90.0
    step_angle_deg: float = 7.5

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.count > _WALK_LIMIT:
            raise InvalidScenario(f"circular.count {self.count} is more than the"
                                  f" {_WALK_LIMIT:,} epochs a track may take")


def circular_track(params: CircularTrackParams) -> List[Point2D]:
    """Evaluation positions on a circle, m = 1 .. count."""
    pts = []
    for m in range(1, params.count + 1):
        ang = math.radians(params.start_angle_deg
                           + params.step_angle_deg * (m - 1))
        pts.append(Point2D(params.center.x + params.radius * math.cos(ang),
                           params.center.y + params.radius * math.sin(ang)))
    return pts


def grid(st: Stations, area: SearchRegion, grid_step: float,
         excluded: Sequence[Point2D]) -> np.ndarray:
    """The database's (M, 2) grid points over the area, ordered by (y, x),
    with the excluded positions dropped.

    A grid of more than _GRID_LIMIT points raises InvalidScenario naming
    fingerprint.grid_step, before any array is built.  A point within 1 nm
    of one of the table's RSS stations, where the channel model has no
    RSS, raises InvalidScenario naming the point and the station.
    """
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    # floor (with a float-safety nudge) so the grid never leaves the area;
    # a count clipped at the limit is over it either way
    nx, ny = (math.floor(min(span / grid_step + 1e-9, _GRID_LIMIT))
              for span in (area.x_max - area.x_min, area.y_max - area.y_min))
    if (nx + 1) * (ny + 1) > _GRID_LIMIT:
        raise InvalidScenario(f"fingerprint.grid_step {grid_step} m puts more than"
                              f" {_GRID_LIMIT:,} grid points on the area")
    xs = area.x_min + np.arange(nx + 1) * grid_step
    ys = area.y_min + np.arange(ny + 1) * grid_step
    xy = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    ex = np.array([(e.x, e.y) for e in excluded]).reshape(-1, 2)
    xy = xy[~(np.abs(xy[:, None] - ex) < _EXCLUDE_TOL).all(axis=2).any(axis=1)]
    # the first (point, station) pair within the tolerance, if any
    for i, k in np.argwhere(np.hypot(xy[:, :1] - st.x, xy[:, 1:] - st.y) < _COINCIDENCE_TOL)[:1]:
        x, y = xy[i].tolist()
        raise InvalidScenario(f"fingerprint grid point ({x}, {y}) coincides "
                              f"with station {st.ids[k]}; list it in fingerprint.excluded")
    return xy


def build_db(bs: Layout, area: SearchRegion, grid_step: float,
             excluded: Sequence[Point2D], channel: ChannelParams,
             rng: np.random.Generator) -> FingerprintDB:
    """Synthesize the offline database from the channel model at the
    points of grid.

    Pass a channel with sigma_beta = 0 for a noiseless (deterministic)
    database.  Excluded positions are dropped from the grid entirely.
    """
    st = Stations.of(bs)
    xy = grid(st, area, grid_step, excluded)
    if not len(xy):
        raise EmptyGrid("every grid point was excluded")
    # the whole grid in one draw, point by point as a per-point loop draws
    return FingerprintDB(xy, simulate_rss(st, xy, channel, rng), st.ids.tolist())


def coarse_estimate(db: FingerprintDB, meas) -> List[Point2D]:
    """Each epoch's grid point with the closest RSSD expansion; ties go to
    smallest (y, x).

    meas is a (T, N) stack of RSS rows in bs_ids order, matched in
    (epochs x M) distance tables of _CHUNK epochs, giving a list of T
    points.  Another shape raises LengthMismatch, non-finite RSS ValueError.
    """
    if len(db) == 0:
        raise EmptyGrid("empty fingerprint database")
    meas = np.asarray(meas, dtype=float)
    n = db.rss.shape[1]
    if meas.shape[1:] != (n,):
        raise LengthMismatch(f"measurement shape {meas.shape} is not a (T, {n}) stack of "
                             f"RSS rows of the database's {n} stations")
    bad = ~np.isfinite(meas).all(axis=0)
    if bad.any():
        raise ValueError(f"non-finite RSS from stations {np.asarray(db.bs_ids)[bad].tolist()}")
    ref, stack = centred(db.rss), centred(meas)
    k = np.empty(len(stack), dtype=np.intp)
    for lo in range(0, len(stack), _CHUNK):
        d = ref - stack[lo:lo + _CHUNK, None, :]  # (epochs, M, N) differences
        k[lo:lo + _CHUNK] = np.einsum("emk,emk->em", d, d).argmin(axis=1)
    return [Point2D(float(db.positions[i, 0]), float(db.positions[i, 1])) for i in k]


def refine_with_tdoa(coarse: Sequence[Point2D], tdoa, bs: Layout,
                     region: SearchRegion) -> List[Optional[Point2D]]:
    """Project coarse estimates onto their measured TDOA hyperbolas, each
    on its own, over the region's heights in the TDOA pair's canonical frame.

    coarse is a sequence of T points and tdoa the (id_k, id_l, delta_t)
    observation of their stack, delta_t a (T,) array.  It is read by
    geometry.measured_hyperbolas, and the list of T refined points holds
    None for each epoch whose range difference has no hyperbola.
    """
    frame, r, ok = measured_hyperbolas(bs, tdoa)
    lo, hi = region.heights(frame)

    def project(p, r_e):
        h = Hyperbola(frame.half_separation, r_e)
        return frame.from_canonical(project_onto_hyperbola(frame.to_canonical(p), h, lo, hi))

    return [project(p, r_e) if ok_e else None
            for p, r_e, ok_e in zip(coarse, r.tolist(), ok.tolist(), strict=True)]
