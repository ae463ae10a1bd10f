import math

import numpy as np
import pytest

from rssdloc.errors import CoincidentWithStation, InvalidScenario
from rssdloc.geometry import BaseStation, DirectionalAntenna, Point2D, Role, Stations, distance
from rssdloc.mobility import (
    WaypointModelParams,
    apply_orientation,
    generate_track,
    misorientation,
    update_orientation,
)
from rssdloc.solver import SearchRegion

AREA = SearchRegion(-3.5, 3.5, -3.5, 3.5)


def params(**kw):
    defaults = dict(area=AREA, total_length=18.0, speed=1.0, pause_time=0.0,
                    update_rate=2.0)
    defaults.update(kw)
    return WaypointModelParams(**defaults)


class TestGenerateTrack:
    def test_zero_length_single_epoch(self):
        t, xy = generate_track(params(total_length=0.0), np.random.default_rng(0))
        assert t.shape == (1,) and xy.shape == (1, 2)
        assert t[0] == 0.0

    def test_kinematic_bound(self):
        t, xy = generate_track(params(), np.random.default_rng(1))
        assert t.shape == (len(xy),) and xy.shape[1] == 2
        np.testing.assert_allclose(np.diff(t), 0.5)
        assert (np.hypot(*np.diff(xy, axis=0).T) <= 0.5 + 1e-9).all()

    def test_path_length_accumulation(self):
        p = params()
        _, xy = generate_track(p, np.random.default_rng(2))
        total = sum(math.dist(a, b) for a, b in zip(xy.tolist(), xy[1:].tolist()))
        assert 18.0 <= total <= 18.0 + p.speed / p.update_rate

    def test_positions_stay_inside_area(self):
        for seed in range(10):
            _, xy = generate_track(params(), np.random.default_rng(seed))
            for x, y in xy.tolist():
                assert AREA.contains(Point2D(x, y))

    def test_deterministic_given_seed(self):
        a = generate_track(params(), np.random.default_rng(9))
        b = generate_track(params(), np.random.default_rng(9))
        assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()

    def test_same_path_at_different_rates(self):
        # Waypoint draws do not depend on the sampling rate.
        t_fast, fast = generate_track(params(update_rate=2.0), np.random.default_rng(4))
        t_slow, slow = generate_track(params(update_rate=1.0), np.random.default_rng(4))
        assert fast[0].tolist() == slow[0].tolist()
        # slow samples at integer seconds coincide with fast's even samples
        n = min(len(t_fast[::2]), len(t_slow))
        np.testing.assert_allclose(t_fast[::2][:n], t_slow[:n])
        assert (np.hypot(*(fast[::2][:n] - slow[:n]).T) < 1e-9).all()

    @pytest.mark.parametrize("setting", [
        {"update_rate": 1e16}, {"speed": 1e-300}, {"speed": 1e-300, "pause_time": 1.0},
        {"update_rate": 1e16, "speed": 1e16},
        {"area": SearchRegion(1e17, 1e17 + 64, 1e17, 1e17 + 64)},
    ])
    def test_walk_that_cannot_move_rejected(self, deadline, setting):
        # an epoch of 1e-16 s is below the step loop's 1e-15 s leftover
        # tolerance, and a step of 1e-300 m rounds to no move: either epoch
        # leaves the walk as it found it, so generation would never end.
        # The first three would take more than _WALK_LIMIT epochs to walk
        # the track and are rejected before the walk; a 1 m step in a 1e-16 s
        # epoch, or a 0.5 m step at coordinates 16 m apart, is not, and
        # stalls in the first epoch
        with deadline(1.0), pytest.raises(InvalidScenario, match="moves the user nowhere"):
            generate_track(params(**setting), np.random.default_rng(0))


def station(bs_id=1, x=0.0, y=0.0, orientation=0.0):
    return BaseStation(bs_id, Point2D(x, y), Role.RSS_ONLY,
                       DirectionalAntenna(6.5, orientation))


def pointed_at(bs, position):
    """The boresights of bs pointed at a known position, as a trial points
    them at its known start."""
    return update_orientation(Stations.of(bs).boresight, bs, position)


class TestOrientation:
    def test_start_pointing_is_arctan2_pointing(self):
        rng = np.random.default_rng(12)
        bs = [station(i + 1, *rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
              for i in range(20)]
        table = Stations.of(bs)
        for _ in range(20):
            start = Point2D(rng.uniform(-5, 5), rng.uniform(-5, 5))
            np.testing.assert_array_equal(
                pointed_at(bs, start),
                np.arctan2(start.y - table.y, start.x - table.x))

    def test_update_points_at_estimate(self):
        bs = [station()]
        boresight = pointed_at(bs, Point2D(1, 0))
        assert boresight[0] == pytest.approx(0.0)
        boresight = update_orientation(boresight, bs, Point2D(0, 1))
        assert boresight[0] == pytest.approx(math.pi / 2)

    def test_tdoa_station_untracked(self):
        # one boresight per RSS station, in the station table's order; the
        # TDOA-only station has none
        bs = [station(2, 2.0, 0.0), BaseStation(9, Point2D(2, 2), Role.TDOA_ONLY), station()]
        boresight = pointed_at(bs, Point2D(1, 1))
        np.testing.assert_allclose(boresight, [math.pi / 4, 3 * math.pi / 4])
        boresight = update_orientation(boresight, bs, Point2D(1, -1))
        np.testing.assert_allclose(boresight, [-math.pi / 4, -3 * math.pi / 4])

    def test_idempotent_for_repeated_estimate(self):
        bs = [station(), station(2, 3.0, 0.0)]
        boresight = pointed_at(bs, Point2D(1, 1))
        again = update_orientation(boresight, bs, Point2D(1, 1))
        np.testing.assert_array_equal(again, boresight)

    def test_coincident_estimate_keeps_boresight(self):
        bs = [station(), station(2, 3.0, 0.0)]
        boresight = pointed_at(bs, Point2D(1, 0))
        boresight = update_orientation(boresight, bs, Point2D(0, 0))
        np.testing.assert_allclose(boresight, [0.0, math.pi], atol=1e-15)

    def test_apply_orientation(self):
        bs = [station(orientation=0.3)]
        table = Stations.of(bs)
        boresight = pointed_at(bs, Point2D(0, 5))
        rotated = apply_orientation(table, boresight)
        assert rotated.boresight[0] == pytest.approx(math.pi / 2)
        assert rotated.gcos[0] == pytest.approx(0.0, abs=1e-12)
        assert rotated.gsin[0] == pytest.approx(6.5)
        # inputs untouched
        assert table.boresight[0] == bs[0].antenna.orientation == pytest.approx(0.3)
        assert table.gcos[0] == pytest.approx(6.5 * math.cos(0.3))


def one(p):
    """The (1, 2) stack of one position."""
    return np.array([[p.x, p.y]])


class TestMisorientation:
    def test_zero_when_pointed_at_target(self):
        bs = [station()]
        boresight = pointed_at(bs, Point2D(2, 3))
        assert misorientation(boresight, bs, one(Point2D(2, 3)))[0, 0] == pytest.approx(0.0)

    def test_quarter_turn(self):
        bs = [station()]
        boresight = pointed_at(bs, Point2D(1, 0))
        assert misorientation(boresight, bs, one(Point2D(0, 1)))[0, 0] == pytest.approx(math.pi / 2)

    def test_matches_atan2_hand_computation(self):
        rng = np.random.default_rng(8)
        bs = [station(i + 1, *rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
              for i in range(50)]
        boresight = np.array([b.antenna.orientation for b in bs])
        for _ in range(20):
            target = Point2D(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if min(distance(target, b.position) for b in bs) < 1e-6:
                continue
            (got,) = misorientation(boresight, bs, one(target))
            expected = [abs(math.remainder(
                math.atan2(target.y - b.position.y, target.x - b.position.x)
                - b.antenna.orientation, math.tau)) for b in bs]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            assert ((0.0 <= got) & (got <= math.pi)).all()

    def test_coincident_raises(self):
        bs = [station(), station(2, 3.0, 0.0)]
        boresight = pointed_at(bs, Point2D(1, 0))
        with pytest.raises(CoincidentWithStation, match="station 2"):
            misorientation(boresight, bs, one(Point2D(3, 0)))

    def test_history_equals_per_epoch_calls(self):
        rng = np.random.default_rng(5)
        bs = [station(i + 1, *rng.uniform(-5, 5, 2), 0.0) for i in range(6)]
        positions = rng.uniform(-5, 5, (9, 2))
        history = rng.uniform(-math.pi, math.pi, (9, 6))
        got = misorientation(history, bs, positions)
        want = [misorientation(b, bs, row[None])[0] for b, row in zip(history, positions)]
        assert got.shape == (9, 6)
        assert got.tobytes() == np.array(want).tobytes()

    def test_history_names_the_first_epochs_station(self):
        bs = [station(), station(2, 3.0, 0.0)]
        positions = np.array([(1.0, 1.0), (3.0, 0.0), (0.0, 0.0)])
        with pytest.raises(CoincidentWithStation, match="^true position coincides with station 2$"):
            misorientation(np.zeros(2), bs, positions)
