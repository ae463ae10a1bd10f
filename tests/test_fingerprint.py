import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rssdloc.channel import ChannelParams, received_power, simulate_rss
from rssdloc.errors import EmptyGrid, InvalidScenario, LengthMismatch
from rssdloc.fingerprint import (
    CircularTrackParams,
    FingerprintDB,
    build_db,
    circular_track,
    coarse_estimate,
    refine_with_tdoa,
)
from rssdloc.geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    CanonicalFrame,
    Hyperbola,
    Point2D,
    Role,
    distance,
    hyperbola_x_of_y,
)
from rssdloc.solver import SearchRegion

AREA = SearchRegion(0.0, 3.0, 0.0, 3.0)
NOISELESS = ChannelParams(alpha=2.1, sigma_beta=0.0)

CORNER_BS = [
    BaseStation(1, Point2D(0, 0), Role.RSS_TDOA),
    BaseStation(2, Point2D(3, 0), Role.RSS_TDOA),
    BaseStation(3, Point2D(0, 3), Role.RSS_ONLY),
    BaseStation(4, Point2D(3, 3), Role.RSS_ONLY),
]

EXCLUDED_CORNERS = [b.position for b in CORNER_BS]


@pytest.fixture(scope="module")
def db():
    return build_db(CORNER_BS, AREA, 0.25, EXCLUDED_CORNERS, NOISELESS,
                    np.random.default_rng(0))


def match_one(db, rss):
    """coarse_estimate of one RSS row, as a stack of one."""
    (est,) = coarse_estimate(db, np.asarray(rss)[None])
    return est


def refine_one(p, dt, bs=CORNER_BS, region=AREA):
    """refine_with_tdoa of one coarse point and its delta_t, as a stack of
    one; None where its range difference has no hyperbola."""
    (refined,) = refine_with_tdoa([p], (1, 2, np.array([dt])), bs, region)
    return refined


def looped_db(bs, area, grid_step, excluded, channel, rng):
    """The per-point loop build_db replaced, kept as its reference: the grid
    by rows of ascending y, each point's RSS drawn by its own simulate_rss
    call."""
    nx = int(math.floor((area.x_max - area.x_min) / grid_step + 1e-9))
    ny = int(math.floor((area.y_max - area.y_min) / grid_step + 1e-9))
    positions, vectors = [], []
    for iy in range(ny + 1):
        y = area.y_min + iy * grid_step
        for ix in range(nx + 1):
            x = area.x_min + ix * grid_step
            if any(abs(x - e.x) < 1e-6 and abs(y - e.y) < 1e-6 for e in excluded):
                continue
            positions.append([x, y])
            vectors.append(simulate_rss(bs, np.array([[x, y]]), channel, rng)[0])
    return np.array(positions), np.array(vectors)


class TestBuildDb:
    @pytest.mark.parametrize("sigma_beta", [0.0, 2.0])
    def test_one_draw_equals_per_point_loop(self, sigma_beta):
        channel = ChannelParams(alpha=2.1, sigma_beta=sigma_beta)
        excluded = EXCLUDED_CORNERS + [Point2D(1.5, 1.5)]
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = build_db(CORNER_BS, AREA, 0.25, excluded, channel, rng)
        positions, rss = looped_db(CORNER_BS, AREA, 0.25, excluded, channel, ref_rng)
        assert got.positions.tobytes() == positions.tobytes()
        assert got.rss.shape == rss.shape and got.rss.tobytes() == rss.tobytes()
        assert got.bs_ids == [1, 2, 3, 4]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_offset_grid_equals_per_point_loop(self):
        # a step that does not divide an area offset from the origin, and an
        # excluded point that its grid reaches only to rounding
        area, excluded = SearchRegion(-1.3, 2.2, -0.7, 1.9), [Point2D(-0.1, 0.5)]
        got = build_db(CORNER_BS, area, 0.3, excluded, NOISELESS, np.random.default_rng(4))
        positions, rss = looped_db(CORNER_BS, area, 0.3, excluded, NOISELESS,
                                   np.random.default_rng(4))
        assert len(positions) == 12 * 9 - 1
        assert got.positions.tobytes() == positions.tobytes()
        assert got.rss.tobytes() == rss.tobytes()

    def test_full_grid_count(self):
        # grid points coincident with a station are excluded to stay finite
        full = build_db(CORNER_BS, SearchRegion(0.05, 2.95, 0.05, 2.95), 0.25,
                        [], NOISELESS, np.random.default_rng(0))
        assert len(full) == 12 * 12  # 0.05 .. 2.80 in 0.25 steps

    def test_grid_count_13x13_minus_exclusions(self, db):
        assert len(db) == 13 * 13 - 4

    def test_one_excluded_point(self):
        partial = build_db(CORNER_BS, AREA, 0.25,
                           EXCLUDED_CORNERS + [Point2D(1.5, 1.5)],
                           NOISELESS, np.random.default_rng(0))
        assert len(partial) == 13 * 13 - 5

    def test_noiseless_entries_match_formula(self, db):
        k = 17
        x, y = db.positions[k]
        for col, bs in enumerate(CORNER_BS):
            d = distance(Point2D(x, y), bs.position)
            assert db.rss[k, col] == pytest.approx(
                received_power(NOISELESS, d, 0.0), abs=1e-12)

    def test_csv_round_trip(self, db, tmp_path):
        path = tmp_path / "db.csv"
        db.to_csv(path)
        loaded = FingerprintDB.from_csv(path)
        assert loaded.bs_ids == db.bs_ids
        assert np.allclose(loaded.positions, db.positions, atol=1e-4)
        assert np.allclose(loaded.rss, db.rss, atol=1e-4)

    @pytest.mark.parametrize("text, problem", [
        ("", r"header must start with x, y, got \[\]"),
        ("x,y,P_1\n0,0,-40\n", r"needs two or more distinct station columns, got \['P_1'\]"),
        ("x,y,P_1,P_1\n0,0,-40,-41\n", "needs two or more distinct station columns"),
        ("x,y,P_1,P_2\n0,0,-40,nan\n", "line 2 holds a non-finite value"),
        ("x,y,P_1,P_2\n0,0,-40,-41\n1,0,-40\n", "line 3 has 3 fields, the header 4"),
    ], ids=["empty", "one-station", "duplicate-station", "nan", "short-row"])
    def test_csv_rejects_malformed_file(self, tmp_path, text, problem):
        path = tmp_path / "db.csv"
        path.write_text(text)
        with pytest.raises(InvalidScenario,
                           match=re.escape(f"fingerprint file '{path}': ") + problem):
            FingerprintDB.from_csv(path)


class TestCoarseEstimate:
    def test_self_retrieval(self, db):
        for k in (0, 41, len(db) - 1):
            est = match_one(db, db.rss[k])
            assert (est.x, est.y) == tuple(db.positions[k])

    def test_offset_invariance(self, db):
        k = 30
        est = match_one(db, db.rss[k] + 12.5)
        assert (est.x, est.y) == tuple(db.positions[k])

    def test_off_grid_matches_exhaustive_scan(self, db):
        from itertools import combinations


        def rssd_distance(meas, ref):
            return sum(((meas[i] - meas[j]) - (ref[i] - ref[j])) ** 2
                       for i, j in combinations(range(len(meas)), 2))

        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Point2D(rng.uniform(0.3, 2.7), rng.uniform(0.3, 2.7))
            meas = simulate_rss(CORNER_BS, np.array([[p.x, p.y]]), NOISELESS, rng)[0]  # bs_ids order
            est = match_one(db, meas)
            k = int(np.argmin([rssd_distance(meas, ref) for ref in db.rss]))
            assert (est.x, est.y) == tuple(db.positions[k])

    def test_matches_pair_expansion_argmin(self, db):
        rng = np.random.default_rng(9)
        iu, ju = np.triu_indices(db.rss.shape[1], k=1)
        ref_pairs = db.rss[:, iu] - db.rss[:, ju]
        for _ in range(200):
            meas = db.rss[rng.integers(len(db))] + rng.normal(0.0, 2.0, 4) - 30.0
            d = ref_pairs - (meas[iu] - meas[ju])
            k = int(np.argmin(np.einsum("np,np->n", d, d)))
            est = match_one(db, meas)
            assert (est.x, est.y) == tuple(db.positions[k])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 164), st.floats(-60.0, 0.0),
                              st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4)),
                    min_size=1, max_size=12))
    def test_stack_equals_rows(self, db, epochs):
        # up to 12 epochs, so two distance tables; each row as it would be alone
        meas = np.array([db.rss[k] + offset + np.array(noise)
                         for k, offset, noise in epochs])
        assert coarse_estimate(db, meas) == [match_one(db, row) for row in meas]

    def test_empty_stack(self, db):
        assert coarse_estimate(db, np.empty((0, 4))) == []

    def test_ties_go_to_first_grid_point(self, db):
        # grid points 7 and 90 hold the same fingerprint
        rss = db.rss.copy()
        rss[90] = rss[7]
        twin = FingerprintDB(db.positions, rss, db.bs_ids)
        first = Point2D(*db.positions[7])
        assert match_one(twin, rss[7]) == first
        assert coarse_estimate(twin, [rss[90] + 3.0] * 10) == [first] * 10

    def test_empty_db(self, db):
        empty = FingerprintDB(db.positions[:0], db.rss[:0], db.bs_ids)
        with pytest.raises(EmptyGrid):
            coarse_estimate(empty, db.rss[:1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rss_rejected(self, db, bad):
        # a NaN distance table would pick the first grid point
        meas = db.rss[5].copy()
        meas[2] = bad
        for call in (lambda: coarse_estimate(db, meas[None]),
                     lambda: coarse_estimate(db, np.stack([db.rss[0], meas]))):
            with pytest.raises(ValueError, match=re.escape("non-finite RSS from stations [3]")):
                call()

    def test_length_mismatch(self, db):
        with pytest.raises(LengthMismatch):
            coarse_estimate(db, db.rss[:1, :3])
        with pytest.raises(LengthMismatch):
            coarse_estimate(db, np.append(db.rss[0], -50.0)[None])
        with pytest.raises(LengthMismatch):  # one row is not a stack
            coarse_estimate(db, db.rss[0])
        # a row of the right length: the message names the stack it expects
        with pytest.raises(LengthMismatch, match=re.escape(
                "measurement shape (4,) is not a (T, 4) stack of RSS rows of the "
                "database's 4 stations")):
            coarse_estimate(db, np.zeros(4))


@st.composite
def projection_stacks(draw):
    """A TDOA pair anywhere with an RSS station, and a stack of 0-10
    coarse points and the pair's (T,) column of delta_t, many of whose half
    range differences lie within 1e-8 m of the pair's half-separation s
    less the degeneracy margin, the rest in (-1.2 s, 1.2 s)."""
    coord = st.floats(-5.0, 5.0)
    mid = Point2D(draw(coord), draw(coord))
    half, a = draw(st.floats(0.5, 5.0)), draw(st.floats(-math.pi, math.pi))
    pk = Point2D(mid.x - half * math.cos(a), mid.y - half * math.sin(a))
    pl = Point2D(mid.x + half * math.cos(a), mid.y + half * math.sin(a))
    bs = [BaseStation(1, pk, Role.RSS_TDOA), BaseStation(2, pl, Role.TDOA_ONLY),
          BaseStation(3, mid, Role.RSS_ONLY)]
    s = CanonicalFrame.from_stations(pk, pl).half_separation
    edge = st.builds(lambda sign, d: sign * (s - 1e-9 + d),
                     st.sampled_from([-1.0, 1.0]), st.floats(-1e-8, 1e-8))
    r = st.one_of(edge, st.floats(-1.2 * s, 1.2 * s))
    n = draw(st.integers(0, 10))
    points = [Point2D(draw(coord), draw(coord)) for _ in range(n)]
    dt = np.array([2.0 * draw(r) / SPEED_OF_LIGHT for _ in range(n)])
    return bs, points, dt


@st.composite
def region_projections(draw):
    """A TDOA pair anywhere, a search region anywhere, a coarse point in
    the region, and one TDOA observation of the pair whose half range
    difference lies in (-0.95 s, 0.95 s)."""
    coord = st.floats(-5.0, 5.0)
    mid = Point2D(draw(coord), draw(coord))
    half, a = draw(st.floats(0.5, 5.0)), draw(st.floats(-math.pi, math.pi))
    pk = Point2D(mid.x - half * math.cos(a), mid.y - half * math.sin(a))
    pl = Point2D(mid.x + half * math.cos(a), mid.y + half * math.sin(a))
    bs = [BaseStation(1, pk, Role.RSS_TDOA), BaseStation(2, pl, Role.TDOA_ONLY),
          BaseStation(3, mid, Role.RSS_ONLY)]
    x0, y0 = draw(coord), draw(coord)
    region = SearchRegion(x0, x0 + draw(st.floats(0.5, 6.0)),
                          y0, y0 + draw(st.floats(0.5, 6.0)))
    coarse = Point2D(draw(st.floats(region.x_min, region.x_max)),
                     draw(st.floats(region.y_min, region.y_max)))
    s = CanonicalFrame.from_stations(pk, pl).half_separation
    r = draw(st.floats(-0.95 * s, 0.95 * s))
    return bs, region, coarse, (1, 2, 2.0 * r / SPEED_OF_LIGHT)


def bits(points):
    """The exact bits of each point's coordinates, None kept."""
    return [None if p is None else (p.x.hex(), p.y.hex()) for p in points]


class TestRefineWithTdoa:
    def test_point_on_hyperbola_unchanged(self):
        # zero range difference, point already on the bisector
        refined = refine_one(Point2D(1.5, 1.0), 0.0)
        assert distance(refined, Point2D(1.5, 1.0)) < 1e-6

    def test_bisector_projection(self):
        refined = refine_one(Point2D(2.0, 1.0), 0.0)
        assert refined.x == pytest.approx(1.5, abs=1e-9)
        assert refined.y == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_scan(self):
        from rssdloc.geometry import (
            SPEED_OF_LIGHT, CanonicalFrame, Hyperbola, hyperbola_x_of_y)
        dt = 2e-9
        coarse = Point2D(2.2, 1.3)
        refined = refine_one(coarse, dt)
        frame = CanonicalFrame.from_stations(Point2D(0, 0), Point2D(3, 0))
        h = Hyperbola.from_tdoa(dt, 1.5)
        ys = np.arange(-3.0, 6.0, 1e-4)
        xs = hyperbola_x_of_y(h, ys)
        pc = frame.to_canonical(coarse)
        k = int(np.argmin((xs - pc.x) ** 2 + (ys - pc.y) ** 2))
        best = frame.from_canonical(Point2D(float(xs[k]), float(ys[k])))
        assert distance(refined, best) < 1e-4

    def test_residual_after_refinement(self):
        from rssdloc.geometry import SPEED_OF_LIGHT
        dt = -3.3e-9
        refined = refine_one(Point2D(0.7, 2.4), dt)
        resid = (distance(refined, Point2D(0, 0)) - distance(refined, Point2D(3, 0))
                 - SPEED_OF_LIGHT * dt)
        assert abs(resid) < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(region_projections())
    def test_nearest_branch_point_within_heights(self, case):
        bs, region, coarse, tdoa = case
        refined = refine_one(coarse, tdoa[2], bs, region)
        pk, pl = bs[0].position, bs[1].position
        resid = distance(refined, pk) - distance(refined, pl) - SPEED_OF_LIGHT * tdoa[2]
        assert abs(resid) < 1e-6
        frame = CanonicalFrame.from_stations(pk, pl)
        lo, hi = region.heights(frame)
        assert lo - 1e-9 <= frame.to_canonical(refined).y <= hi + 1e-9
        # against a dense scan of the branch over the same heights, ends
        # included.  Golden section finds the nearest point when the
        # distance has one minimum there; a point on the branch's concave
        # side, past its centre of curvature, can see two.
        h = Hyperbola.from_tdoa(tdoa[2], frame.half_separation)
        ys = np.linspace(lo, hi, 20_001)
        pc = frame.to_canonical(coarse)
        d = np.hypot(hyperbola_x_of_y(h, ys) - pc.x, ys - pc.y)
        k = int(np.argmin(d))
        slope = np.diff(d)
        assume((slope[:k] <= 0).all() and (slope[k:] >= 0).all())
        # the search stops within 1e-9 of the nearest height, and the
        # branch's slope |dx/dy| stays below r / sqrt(s^2 - r^2) < 3.1 at
        # |r| < 0.95 s, so the distance exceeds its minimum by below 1e-8 m
        assert distance(refined, coarse) <= float(d[k]) + 1e-8

    def test_degenerate_tdoa(self):
        # a range difference beyond the half-separation, NaN or infinite:
        # the epoch without a hyperbola is None, alone or in a stack
        for dt in (1e-6, math.nan, math.inf):
            assert refine_one(Point2D(1, 1), dt) is None
            refined = refine_with_tdoa([Point2D(1, 1)] * 2, (1, 2, np.array([dt, 0.0])),
                                       CORNER_BS, AREA)
            assert refined[0] is None
            assert refined[1] == refine_one(Point2D(1, 1), 0.0)

    def test_empty_stack(self):
        assert refine_with_tdoa([], (1, 2, np.empty(0)), CORNER_BS, AREA) == []

    @settings(max_examples=80, deadline=None)
    @given(projection_stacks())
    def test_stack_equals_per_epoch_calls(self, stack):
        # bit for bit, None included; the range differences crowd the
        # half-separation, where a hyperbola stops existing
        bs, points, dt = stack
        alone = [refine_one(p, t, bs) for p, t in zip(points, dt.tolist(), strict=True)]
        assert bits(refine_with_tdoa(points, (1, 2, dt), bs, AREA)) == bits(alone)


class TestCircularTrack:
    def test_first_point(self):
        pts = circular_track(CircularTrackParams())
        assert pts[0].x == pytest.approx(1.5, abs=1e-12)
        assert pts[0].y == pytest.approx(0.5, abs=1e-12)

    def test_thirteenth_point(self):
        pts = circular_track(CircularTrackParams())
        assert pts[12].x == pytest.approx(2.5, abs=1e-12)
        assert pts[12].y == pytest.approx(1.5, abs=1e-12)

    def test_all_points_on_radius(self):
        pts = circular_track(CircularTrackParams())
        assert len(pts) == 48
        for p in pts:
            assert distance(p, Point2D(1.5, 1.5)) == pytest.approx(1.0, abs=1e-12)

    def test_all_points_inside_area(self):
        for p in circular_track(CircularTrackParams()):
            assert AREA.contains(p)
