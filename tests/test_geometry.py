import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rssdloc.errors import DegenerateHyperbola, MissingTdoa
from rssdloc.geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    CanonicalFrame,
    Hyperbola,
    Point2D,
    Role,
    distance,
    hyperbola_x_of_y,
    measured_hyperbolas,
    project_onto_hyperbola,
    wrap_angle,
)

coords = st.floats(-100, 100, allow_nan=False)


def test_distance_basic():
    assert distance(Point2D(0, 0), Point2D(0, 0)) == 0.0
    assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0
    assert distance(Point2D(1.5, 0.5), Point2D(0, 0)) == pytest.approx(math.sqrt(2.5))


@given(coords, coords, coords, coords)
def test_distance_symmetric(ax, ay, bx, by):
    a, b = Point2D(ax, ay), Point2D(bx, by)
    assert distance(a, b) == distance(b, a)
    assert distance(a, b) >= 0.0


@given(coords, coords, coords, coords, coords, coords)
def test_distance_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = Point2D(ax, ay), Point2D(bx, by), Point2D(cx, cy)
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)


class TestHyperbola:
    def test_zero_range_difference_is_bisector(self):
        h = Hyperbola(2.0, 0.0)
        for y in (-3.0, 0.0, 1.7):
            assert hyperbola_x_of_y(h, y) == 0.0

    def test_x_at_zero_height(self):
        assert hyperbola_x_of_y(Hyperbola(2.0, 1.0), 0.0) == pytest.approx(1.0)

    def test_range_difference_residual(self):
        # d_k - d_l must equal 2r for a point on the curve (k at (-s,0)).
        h = Hyperbola(2.0, 1.0)
        y = 1.2
        x = float(hyperbola_x_of_y(h, y))
        dk = math.hypot(x + 2.0, y)
        dl = math.hypot(x - 2.0, y)
        assert abs((dk - dl) - 2.0 * 1.0) < 1e-9

    def test_residual_over_search_range(self):
        h = Hyperbola(3.0, -1.4)
        ys = np.linspace(-10, 10, 1001)
        xs = hyperbola_x_of_y(h, ys)
        dk = np.hypot(xs + 3.0, ys)
        dl = np.hypot(xs - 3.0, ys)
        assert np.max(np.abs((dk - dl) - 2.0 * (-1.4))) < 1e-9

    def test_sign_flip_mirrors_branch(self):
        hp = Hyperbola(2.0, 0.8)
        hm = Hyperbola(2.0, -0.8)
        ys = np.linspace(-5, 5, 101)
        assert np.array_equal(hyperbola_x_of_y(hm, ys), -hyperbola_x_of_y(hp, ys))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateHyperbola):
            Hyperbola(2.0, 2.0)
        with pytest.raises(DegenerateHyperbola):
            Hyperbola(2.0, -2.5)
        with pytest.raises(DegenerateHyperbola):
            Hyperbola(-1.0, 0.0)
        # NaN fails the checks as inf does; a NaN branch would only fail
        # later, in Point2D
        for s, r in [(4.0, math.nan), (4.0, math.inf), (4.0, -math.inf), (math.nan, 1.0)]:
            with pytest.raises(DegenerateHyperbola):
                Hyperbola(s, r)

    def test_from_tdoa(self):
        h = Hyperbola.from_tdoa(1e-9, 2.0)
        assert h.range_difference == pytest.approx(0.5 * SPEED_OF_LIGHT * 1e-9)


def first_error(call, *args):
    """The type and message of what call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as e:
        return type(e), str(e)
    return None


class TestMeasuredHyperbolas:
    # a pair 4 m apart along y = x: half-separation 2 m
    BS = [BaseStation(1, Point2D(-math.sqrt(2.0), -math.sqrt(2.0)), Role.RSS_TDOA),
          BaseStation(2, Point2D(math.sqrt(2.0), math.sqrt(2.0)), Role.RSS_TDOA),
          BaseStation(3, Point2D(0.0, 3.0))]

    def test_one_epoch_and_a_stack(self):
        # a (T,) array of delta_t is a stack, with ok False for each epoch
        # whose Hyperbola would raise; a float is read as a stack of one
        # epoch, and never raises for that epoch either
        wide = 2.0 * 2.5 / SPEED_OF_LIGHT  # |r| = 2.5 m > 2 m
        dt = np.array([1e-9, wide, math.nan, -2e-9, math.inf])
        frame, r, ok = measured_hyperbolas(self.BS, (1, 2, dt))
        assert frame == CanonicalFrame.from_stations(self.BS[0].position, self.BS[1].position)
        errors = [first_error(Hyperbola.from_tdoa, t, 2.0) for t in dt.tolist()]
        assert ok.tolist() == [e is None for e in errors] == [True, False, False, True, False]
        for e in (0, 3):
            assert r[e] == Hyperbola.from_tdoa(float(dt[e]), 2.0).range_difference
        for e, t in enumerate(dt.tolist()):
            one = measured_hyperbolas(self.BS, (1, 2, t))
            assert one[0] == frame and one[2].tolist() == [ok[e]]
            assert np.array_equal(one[1], r[e:e + 1], equal_nan=True)
        _, r, ok = measured_hyperbolas(self.BS, (1, 2, np.empty(0)))
        assert r.shape == ok.shape == (0,)

    def test_observation_checked_before_its_epochs(self):
        with pytest.raises(MissingTdoa):
            measured_hyperbolas(self.BS, None)
        with pytest.raises(ValueError, match=r"stations \[3\] are not TDOA-capable"):
            measured_hyperbolas(self.BS, (1, 3, np.array([math.nan])))


class TestProjection:
    def test_fixed_point(self):
        h = Hyperbola(2.0, 1.0)
        p = Point2D(float(hyperbola_x_of_y(h, 0.7)), 0.7)
        q = project_onto_hyperbola(p, h, -5.0, 5.0)
        assert distance(p, q) < 1e-6

    def test_bisector_projection(self):
        q = project_onto_hyperbola(Point2D(2.0, 1.0), Hyperbola(2.0, 0.0), -5.0, 5.0)
        assert q.x == pytest.approx(0.0, abs=1e-9)
        assert q.y == pytest.approx(1.0, abs=1e-6)

    def test_foot_outside_interval_gives_nearer_end(self):
        # the bisector's foot from (2, 1) is at y = 1, below the heights
        q = project_onto_hyperbola(Point2D(2.0, 1.0), Hyperbola(2.0, 0.0), 2.0, 5.0)
        assert q.x == pytest.approx(0.0, abs=1e-9)
        assert 2.0 <= q.y <= 2.0 + 1e-9

    def test_against_dense_scan(self):
        h = Hyperbola(2.0, 1.0)
        p = Point2D(1.5, 0.8)
        q = project_onto_hyperbola(p, h, -5.0, 5.0)
        ys = np.arange(-5.0, 5.0, 1e-4)
        xs = hyperbola_x_of_y(h, ys)
        d2 = (xs - p.x) ** 2 + (ys - p.y) ** 2
        k = int(np.argmin(d2))
        assert math.hypot(q.x - xs[k], q.y - ys[k]) < 1e-4

    def test_projection_beats_dense_samples(self):
        h = Hyperbola(1.5, -0.6)
        rng = np.random.default_rng(7)
        ys = np.linspace(-8, 8, 10_000)
        xs = hyperbola_x_of_y(h, ys)
        for _ in range(5):
            p = Point2D(rng.uniform(-4, 4), rng.uniform(-4, 4))
            q = project_onto_hyperbola(p, h, -8.0, 8.0)
            dq = distance(p, q)
            dmin = float(np.min(np.hypot(xs - p.x, ys - p.y)))
            assert dq <= dmin + 1e-6


class TestCanonicalFrame:
    def test_stations_map_to_axis(self):
        k, l = Point2D(1.0, 2.0), Point2D(4.0, 6.0)
        f = CanonicalFrame.from_stations(k, l)
        ck, cl = f.to_canonical(k), f.to_canonical(l)
        assert ck.x == pytest.approx(-2.5) and abs(ck.y) < 1e-12
        assert cl.x == pytest.approx(2.5) and abs(cl.y) < 1e-12

    def test_round_trip(self):
        f = CanonicalFrame.from_stations(Point2D(-1, 3), Point2D(2, -2))
        p = Point2D(0.31, -4.7)
        c = f.to_canonical(p)
        q = Point2D(*f.from_canonical_xy(c.x, c.y))
        assert distance(p, q) < 1e-12

    def test_isometry(self):
        f = CanonicalFrame.from_stations(Point2D(0, 0), Point2D(3, 0))
        a, b = Point2D(1, 1), Point2D(-2, 4)
        assert distance(f.to_canonical(a), f.to_canonical(b)) == pytest.approx(
            distance(a, b))
