"""Grid fingerprint database and two-step RSSD matching.

The offline phase stores a reference RSS vector per grid point; the online
phase picks the grid point whose pairwise RSS differences are closest (in
the Euclidean sense) to the measured ones, then optionally refines the
coarse pick by projecting it onto the measured TDOA hyperbola.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelParams, centred, simulate_rss
from .errors import EmptyGrid, LengthMismatch
from .geometry import (
    BaseStation,
    CanonicalFrame,
    Hyperbola,
    Point2D,
    project_onto_hyperbola,
)
from .solver import SearchRegion

_EXCLUDE_TOL = 1e-6  # m when matching excluded grid points


@dataclass
class FingerprintDB:
    """Reference locations and their per-station RSS vectors.

    positions is (n, 2) ordered by (y, x) ascending; rss is (n, N) with
    columns in ascending station-id order (bs_ids).
    """

    positions: np.ndarray
    rss: np.ndarray
    bs_ids: List[int]
    grid_step: float

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
    def from_csv(cls, path, grid_step: float = 0.25) -> "FingerprintDB":
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            ids = [int(h.split("_", 1)[1]) for h in header[2:]]
            rows = [[float(v) for v in row] for row in reader if row]
        if not rows:
            raise EmptyGrid(f"no fingerprint rows in {path}")
        arr = np.array(rows)
        order = np.lexsort((arr[:, 0], arr[:, 1]))
        arr = arr[order]
        return cls(arr[:, :2].copy(), arr[:, 2:].copy(), ids, grid_step)


@dataclass(frozen=True)
class CircularTrackParams:
    center: Point2D = Point2D(1.5, 1.5)
    radius: float = 1.0
    count: int = 48
    start_angle_deg: float = -90.0
    step_angle_deg: float = 7.5

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def circular_track(params: CircularTrackParams) -> List[Point2D]:
    """Evaluation positions on a circle, m = 1 .. count."""
    pts = []
    for m in range(1, params.count + 1):
        ang = math.radians(params.start_angle_deg
                           + params.step_angle_deg * (m - 1))
        pts.append(Point2D(params.center.x + params.radius * math.cos(ang),
                           params.center.y + params.radius * math.sin(ang)))
    return pts


def build_db(bs: List[BaseStation], area: SearchRegion, grid_step: float,
             excluded: Sequence[Point2D], channel: ChannelParams,
             rng: np.random.Generator) -> FingerprintDB:
    """Synthesize the offline database from the channel model.

    Pass a channel with sigma_beta = 0 for a noiseless (deterministic)
    database.  Excluded positions are dropped from the grid entirely.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    # floor (with a float-safety nudge) so the grid never leaves the area
    nx = int(math.floor((area.x_max - area.x_min) / grid_step + 1e-9))
    ny = int(math.floor((area.y_max - area.y_min) / grid_step + 1e-9))
    ids = sorted(b.id for b in bs if b.role.measures_rss)

    positions, vectors = [], []
    for iy in range(ny + 1):
        y = area.y_min + iy * grid_step
        for ix in range(nx + 1):
            x = area.x_min + ix * grid_step
            p = Point2D(x, y)
            if any(abs(p.x - e.x) < _EXCLUDE_TOL and abs(p.y - e.y) < _EXCLUDE_TOL
                   for e in excluded):
                continue
            rss = simulate_rss(bs, p, channel, rng)
            positions.append([x, y])
            vectors.append([rss[i] for i in ids])
    if not positions:
        raise EmptyGrid("every grid point was excluded")
    return FingerprintDB(np.array(positions), np.array(vectors), ids, grid_step)


def rssd_euclidean(meas: Sequence[float], ref: Sequence[float]) -> float:
    """Euclidean distance between the pairwise-difference expansions.

    Both inputs are absolute per-station RSS vectors.  Over all pairs i < j,
    the norm equals sqrt(N) * ||centred(meas) - centred(ref)||, so any common
    (transmit-power) offset cancels.
    """
    meas = np.asarray(meas, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if meas.shape != ref.shape or meas.ndim != 1 or meas.size < 2:
        raise LengthMismatch(
            f"need equal-length vectors of >= 2 entries, got {meas.shape} vs {ref.shape}")
    return math.sqrt(meas.size) * float(np.linalg.norm(centred(meas) - centred(ref)))


def coarse_estimate(db: FingerprintDB, meas: Sequence[float]) -> Point2D:
    """Grid point with the closest RSSD expansion; ties go to smallest (y, x)."""
    if len(db) == 0:
        raise EmptyGrid("empty fingerprint database")
    meas = np.asarray(meas, dtype=float)
    if meas.shape != (db.rss.shape[1],):
        raise LengthMismatch(
            f"measurement length {meas.shape} does not match database "
            f"station count {db.rss.shape[1]}")
    d = centred(db.rss) - centred(meas)
    k = int(np.argmin(np.einsum("nk,nk->n", d, d)))
    return Point2D(float(db.positions[k, 0]), float(db.positions[k, 1]))


def refine_with_tdoa(coarse: Point2D, tdoa: Tuple[int, int, float],
                     bs: List[BaseStation],
                     y_bracket: Optional[Tuple[float, float]] = None) -> Point2D:
    """Project the coarse estimate onto the measured TDOA hyperbola.

    The projection runs in the TDOA pair's canonical frame; y_bracket, when
    given, is interpreted in that frame.
    """
    k_id, l_id, dt = tdoa
    by_id = {b.id: b for b in bs}
    frame = CanonicalFrame.from_stations(by_id[k_id].position, by_id[l_id].position)
    h = Hyperbola.from_tdoa(dt, frame.half_separation)
    q = project_onto_hyperbola(frame.to_canonical(coarse), h, y_bracket)
    return frame.from_canonical(q)
