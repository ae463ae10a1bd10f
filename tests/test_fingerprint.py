import math

import numpy as np
import pytest

from rssdloc.channel import ChannelParams, received_power
from rssdloc.errors import DegenerateHyperbola, EmptyGrid, LengthMismatch
from rssdloc.fingerprint import (
    CircularTrackParams,
    FingerprintDB,
    build_db,
    circular_track,
    coarse_estimate,
    refine_with_tdoa,
    rssd_euclidean,
)
from rssdloc.geometry import BaseStation, Point2D, Role, distance
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


class TestBuildDb:
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
        loaded = FingerprintDB.from_csv(path, db.grid_step)
        assert loaded.bs_ids == db.bs_ids
        assert np.allclose(loaded.positions, db.positions, atol=1e-4)
        assert np.allclose(loaded.rss, db.rss, atol=1e-4)


class TestRssdEuclidean:
    def test_identical_vectors(self):
        assert rssd_euclidean([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_transmit_power_offset_cancels(self):
        meas = [-50.0, -60.0, -55.0]
        shifted = [v + 7.3 for v in meas]
        assert rssd_euclidean(shifted, meas) == pytest.approx(0.0, abs=1e-12)

    def test_hand_expansion(self):
        # RSSD expansions (3, 8, 5) vs (5, 6, 1) -> sqrt(4 + 4 + 16)
        assert rssd_euclidean([0, -3, -8], [0, -5, -6]) == pytest.approx(
            math.sqrt(24.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rssd_euclidean([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_pair_expansion(self):
        rng = np.random.default_rng(8)
        for n in (2, 4, 8):
            meas, ref = rng.normal(-60.0, 8.0, (2, n))
            iu, ju = np.triu_indices(n, k=1)
            pairs = (meas[iu] - meas[ju]) - (ref[iu] - ref[ju])
            assert rssd_euclidean(meas, ref) == pytest.approx(
                float(np.linalg.norm(pairs)), rel=1e-12)


class TestCoarseEstimate:
    def test_self_retrieval(self, db):
        for k in (0, 41, len(db) - 1):
            est = coarse_estimate(db, db.rss[k])
            assert (est.x, est.y) == tuple(db.positions[k])

    def test_offset_invariance(self, db):
        k = 30
        est = coarse_estimate(db, db.rss[k] + 12.5)
        assert (est.x, est.y) == tuple(db.positions[k])

    def test_off_grid_matches_exhaustive_scan(self, db):
        from rssdloc.channel import simulate_rss
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Point2D(rng.uniform(0.3, 2.7), rng.uniform(0.3, 2.7))
            rss = simulate_rss(CORNER_BS, p, NOISELESS, rng)
            meas = np.array([rss[i] for i in db.bs_ids])
            est = coarse_estimate(db, meas)
            dists = [rssd_euclidean(meas, ref) for ref in db.rss]
            k = int(np.argmin(dists))
            assert (est.x, est.y) == tuple(db.positions[k])

    def test_matches_pair_expansion_argmin(self, db):
        rng = np.random.default_rng(9)
        iu, ju = np.triu_indices(db.rss.shape[1], k=1)
        ref_pairs = db.rss[:, iu] - db.rss[:, ju]
        for _ in range(200):
            meas = db.rss[rng.integers(len(db))] + rng.normal(0.0, 2.0, 4) - 30.0
            d = ref_pairs - (meas[iu] - meas[ju])
            k = int(np.argmin(np.einsum("np,np->n", d, d)))
            est = coarse_estimate(db, meas)
            assert (est.x, est.y) == tuple(db.positions[k])

    def test_empty_db(self, db):
        empty = FingerprintDB(db.positions[:0], db.rss[:0], db.bs_ids, 0.25)
        with pytest.raises(EmptyGrid):
            coarse_estimate(empty, db.rss[0])


class TestRefineWithTdoa:
    def test_point_on_hyperbola_unchanged(self):
        # zero range difference, point already on the bisector
        refined = refine_with_tdoa(Point2D(1.5, 1.0), (1, 2, 0.0), CORNER_BS)
        assert distance(refined, Point2D(1.5, 1.0)) < 1e-6

    def test_bisector_projection(self):
        refined = refine_with_tdoa(Point2D(2.0, 1.0), (1, 2, 0.0), CORNER_BS)
        assert refined.x == pytest.approx(1.5, abs=1e-9)
        assert refined.y == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_scan(self):
        from rssdloc.geometry import (
            SPEED_OF_LIGHT, CanonicalFrame, Hyperbola, hyperbola_x_of_y)
        dt = 2e-9
        coarse = Point2D(2.2, 1.3)
        refined = refine_with_tdoa(coarse, (1, 2, dt), CORNER_BS)
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
        refined = refine_with_tdoa(Point2D(0.7, 2.4), (1, 2, dt), CORNER_BS)
        resid = (distance(refined, Point2D(0, 0)) - distance(refined, Point2D(3, 0))
                 - SPEED_OF_LIGHT * dt)
        assert abs(resid) < 1e-6

    def test_degenerate_tdoa(self):
        with pytest.raises(DegenerateHyperbola):
            refine_with_tdoa(Point2D(1, 1), (1, 2, 1e-6), CORNER_BS)


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
