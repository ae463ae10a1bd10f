"""Random-waypoint mobility and the dynamic antenna-orientation loop.

The mobile user walks between uniformly drawn waypoints at a constant
speed, sampled at the localization update rate.  Directional receive
antennas are re-pointed toward each new position estimate, one array of
boresights over a station table's RSS stations; the misorientation angle is
the error between a boresight and the true direction to the user, taken
over a stack of positions, with a trial's history of boresights at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .errors import CoincidentWithStation, InvalidScenario
from .geometry import _COINCIDENCE_TOL, Layout, Point2D, Stations
from .solver import SearchRegion

# epochs a walk of total_length or one pause may take, and waypoints one
# epoch may pass
_WALK_LIMIT = 10**5


@dataclass(frozen=True)
class WaypointModelParams:
    area: SearchRegion
    total_length: float = 18.0  # m of track to generate
    speed: float = 1.0         # m/s
    pause_time: float = 0.0    # s at each reached waypoint
    update_rate: float = 2.0   # localization epochs per second

    def __post_init__(self):
        if not math.isfinite(self.total_length):
            raise ValueError("total_length must be finite")
        if not self.speed > 0:
            raise ValueError("speed must be > 0")
        if not self.pause_time >= 0:
            raise ValueError("pause_time must be >= 0")
        if not self.update_rate > 0:
            raise ValueError("update_rate must be > 0")


def _draw_point(area: SearchRegion, rng: np.random.Generator) -> Point2D:
    return Point2D(rng.uniform(area.x_min, area.x_max),
                   rng.uniform(area.y_min, area.y_max))


def generate_track(params: WaypointModelParams,
                   rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Random-waypoint track sampled at the update rate: the (T,) epoch
    times t and the (T, 2) positions xy.

    Waypoints are drawn uniformly over the area in a fixed order, so two
    tracks generated from the same seed share the same geometric path even
    at different update rates.  Generation stops once the summed straight-
    line epoch-to-epoch length reaches total_length.

    Settings that would take more than _WALK_LIMIT epochs to walk
    total_length at an epoch's step, speed / update_rate, or to sit out
    one pause, or that pass more than _WALK_LIMIT waypoints in one epoch
    (a step of that many area diagonals), raise InvalidScenario naming
    them, before the walk starts.  An epoch that starts with no pause
    pending and ends where it started, short of its waypoint, leaves the
    walk as it found it, so every later epoch would too: that raises
    InvalidScenario too (an epoch below the step loop's 1e-15 s tolerance,
    or a step that rounds to nothing at the area's coordinates).
    """
    start = _draw_point(params.area, rng)
    t, xy = [0.0], [(start.x, start.y)]
    if params.total_length <= 0:
        return np.array(t), np.array(xy)

    dt = 1.0 / params.update_rate
    step = params.speed * dt
    area = params.area
    diagonal = math.hypot(area.x_max - area.x_min, area.y_max - area.y_min)
    stepping = (f"waypoint.speed {params.speed} m/s over an epoch of"
                f" 1 / waypoint.update_rate = {dt} s")
    if params.total_length > _WALK_LIMIT * step:
        raise InvalidScenario(f"{stepping} moves the user nowhere near waypoint.total_length"
                              f" {params.total_length} m within {_WALK_LIMIT:,} epochs")
    if step > _WALK_LIMIT * diagonal:
        raise InvalidScenario(f"{stepping} passes more than {_WALK_LIMIT:,} waypoints, each"
                              f" within the area's {diagonal:.4g} m diagonal")
    if params.pause_time > _WALK_LIMIT * dt:
        raise InvalidScenario(f"waypoint.pause_time {params.pause_time} s lasts more than"
                              f" {_WALK_LIMIT:,} epochs of 1 / waypoint.update_rate = {dt} s")

    target = _draw_point(params.area, rng)
    pause_left = 0.0
    path_len = 0.0
    while path_len < params.total_length:
        remaining = dt
        px, py = x, y = xy[-1]
        idle, leg = pause_left == 0, target
        while remaining > 1e-15:
            if pause_left > 0:
                used = min(pause_left, remaining)
                pause_left -= used
                remaining -= used
                continue
            gap = math.hypot(target.x - x, target.y - y)
            reach = params.speed * remaining
            if reach < gap:
                x += (target.x - x) * reach / gap
                y += (target.y - y) * reach / gap
                remaining = 0.0
            else:
                x, y = target.x, target.y
                remaining -= gap / params.speed
                pause_left = params.pause_time
                target = _draw_point(params.area, rng)
        if idle and target is leg and (x, y) == (px, py):
            raise InvalidScenario(f"{stepping} moves the user nowhere")
        path_len += math.hypot(px - x, py - y)
        t.append(t[-1] + dt)
        xy.append((x, y))
    return np.array(t), np.array(xy)


def update_orientation(boresight: np.ndarray, bs: Layout,
                       new_estimate: Point2D) -> np.ndarray:
    """The (N,) boresights of the station table's RSS antennas re-pointed
    at the new position estimate.

    A station coincident with the estimate keeps its boresight (the
    azimuth is undefined there).
    """
    st = Stations.of(bs)
    dx, dy = new_estimate.x - st.x, new_estimate.y - st.y
    return np.where(np.hypot(dx, dy) < _COINCIDENCE_TOL, boresight, np.arctan2(dy, dx))


def apply_orientation(bs: Layout, boresight: np.ndarray) -> Stations:
    """The station table with its antennas turned to the (N,) boresights."""
    return replace(Stations.of(bs), boresight=boresight)


def misorientation(boresight: np.ndarray, bs: Layout, xy: np.ndarray) -> np.ndarray:
    """Unsigned angle between each station's boresight and the true
    direction to the user, in [0, pi], at each row of a (T, 2) array of
    true positions: (T, N) in the order of the station table, for a (T, N)
    history of boresights or (N,) ones.  A position within 1 nm of an RSS
    station raises CoincidentWithStation naming it, for the first such
    epoch."""
    st = Stations.of(bs)
    dx, dy = xy[:, :1] - st.x, xy[:, 1:] - st.y
    coincident = np.hypot(dx, dy) < _COINCIDENCE_TOL
    if coincident.any():
        first = coincident[coincident.any(axis=1).argmax()]
        raise CoincidentWithStation(f"true position coincides with station {st.ids[first.argmax()]}")
    # |a - b| % tau and tau minus it are exact, so this is |wrap(a - b)|
    off = np.abs(np.arctan2(dy, dx) - boresight) % math.tau
    return np.minimum(off, math.tau - off)
