import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssdloc.channel import ChannelParams, TdoaNoiseParams, simulate_measurements
from rssdloc.errors import MissingTdoa, SingularCandidate
from rssdloc.geometry import (
    BaseStation,
    DirectionalAntenna,
    OmniAntenna,
    Point2D,
    Role,
    azimuth,
    distance,
)
from rssdloc.solver import (
    AntennaModel,
    SearchRegion,
    SolverConfig,
    _coarse_geometry,
    _grid,
    _Model,
    solve_rssd,
    solve_rssd_tdoa,
    rssd_objective,
)

REGION = SearchRegion(-3.5, 3.5, -3.5, 3.5)

RSS_POSITIONS = [(-2, -4), (2, -4), (4, -2), (4, 2), (2, 4), (-2, 4), (-4, 2), (-4, -2)]


def make_stations(directional=False, target=None):
    bs = []
    for i, (x, y) in enumerate(RSS_POSITIONS):
        pos = Point2D(x, y)
        antenna = (DirectionalAntenna(6.5, azimuth(pos, target))
                   if directional else OmniAntenna())
        bs.append(BaseStation(i + 1, pos, Role.RSS_ONLY, antenna))
    bs.append(BaseStation(9, Point2D(-4, 0), Role.TDOA_ONLY))
    bs.append(BaseStation(10, Point2D(4, 0), Role.TDOA_ONLY))
    return bs


NOISELESS = ChannelParams(alpha=1.7, sigma_beta=0.0)
NOISY = ChannelParams(alpha=1.7, sigma_beta=2.0)
NO_TDOA_NOISE = TdoaNoiseParams(0.0)


def measure(bs, mu, params=NOISELESS, tdoa=NO_TDOA_NOISE, seed=0):
    return simulate_measurements(bs, mu, params, tdoa, np.random.default_rng(seed))


class TestObjective:
    def test_zero_at_truth_omni(self):
        bs = make_stations()
        mu = Point2D(1.2, -0.7)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        assert rssd_objective(cfg, measure(bs, mu), mu) == pytest.approx(0.0, abs=1e-18)

    def test_zero_at_truth_directional(self):
        mu = Point2D(0.5, 1.5)
        bs = make_stations(directional=True, target=mu)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.DIRECTIONAL)
        assert rssd_objective(cfg, measure(bs, mu), mu) == pytest.approx(0.0, abs=1e-18)

    def test_positive_away_from_truth(self):
        bs = make_stations()
        mu = Point2D(1.2, -0.7)
        m = measure(bs, mu)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = Point2D(rng.uniform(-3.5, 3.5), rng.uniform(-3.5, 3.5))
            if distance(p, mu) < 1e-3:
                continue
            assert rssd_objective(cfg, m, p) > 0.0

    def test_singular_candidate(self):
        bs = make_stations()
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        with pytest.raises(SingularCandidate):
            rssd_objective(cfg, measure(bs, Point2D(0, 0)), bs[0].position)

    def test_transmit_power_shift_invariance(self):
        # Adding a constant to every per-station RSS leaves all P_ij bit-identical.
        bs = make_stations()
        mu = Point2D(-1.0, 2.0)
        m = measure(bs, mu, NOISY, seed=3)
        shifted = [(i, j, (v + 7.5) - 7.5) for i, j, v in m.rssd_pairs]
        assert shifted == m.rssd_pairs

    def test_directional_requires_directional_antennas(self):
        with pytest.raises(ValueError):
            SolverConfig(NOISELESS, make_stations(), REGION, AntennaModel.DIRECTIONAL)


class TestSolveRssd:
    def test_noiseless_recovery_omni(self):
        bs = make_stations()
        mu = Point2D(1.234, -0.567)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        est = solve_rssd(cfg, measure(bs, mu))
        assert distance(est, mu) < REGION.coarse_step / 2 ** REGION.refine_iterations

    def test_noiseless_recovery_directional(self):
        mu = Point2D(-2.1, 0.8)
        bs = make_stations(directional=True, target=mu)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.DIRECTIONAL)
        est = solve_rssd(cfg, measure(bs, mu))
        assert distance(est, mu) < REGION.coarse_step / 2 ** REGION.refine_iterations

    def test_noiseless_identifiability_random_positions(self):
        bs = make_stations()
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        rng = np.random.default_rng(11)
        step = REGION.coarse_step / 2 ** REGION.refine_iterations
        for _ in range(25):
            mu = Point2D(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            if min(distance(mu, b.position) for b in bs) < 0.5:
                continue
            est = solve_rssd(cfg, measure(bs, mu))
            assert distance(est, mu) < 2 * step

    def test_matches_brute_force_grid(self):
        bs = make_stations()
        cfg = SolverConfig(NOISY, bs, REGION, AntennaModel.OMNI)
        from rssdloc.solver import _Model
        for seed in range(3):
            mu = Point2D(0.8, -1.3)
            m = measure(bs, mu, NOISY, seed=seed)
            est = solve_rssd(cfg, m)
            model = _Model.build(cfg, m)
            xs = np.arange(-3.5, 3.5 + 1e-9, 0.01)
            gx, gy = np.meshgrid(xs, xs)
            q = model.objective(gx.ravel(), gy.ravel())
            k = int(np.argmin(q))
            brute = Point2D(float(gx.ravel()[k]), float(gy.ravel()[k]))
            assert distance(est, brute) < 0.02


class TestSolveRssdTdoa:
    def test_noiseless_joint_recovery(self):
        bs = make_stations()
        mu = Point2D(1.1, 2.2)
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        est = solve_rssd_tdoa(cfg, measure(bs, mu))
        assert distance(est, mu) < 1e-3

    def test_bisector_case(self):
        bs = make_stations()
        mu = Point2D(0.0, 1.7)  # equidistant from the TDOA pair
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        m = measure(bs, mu)
        assert m.tdoa[2] == pytest.approx(0.0, abs=1e-18)
        est = solve_rssd_tdoa(cfg, m)
        assert abs(est.x) < 1e-3

    def test_estimate_lies_on_hyperbola(self):
        bs = make_stations()
        cfg = SolverConfig(NOISY, bs, REGION, AntennaModel.OMNI)
        pk, pl = bs[-2].position, bs[-1].position
        for seed in range(5):
            m = measure(bs, Point2D(1.05, -0.4), NOISY, TdoaNoiseParams(330e-12), seed)
            est = solve_rssd_tdoa(cfg, m)
            from rssdloc.geometry import SPEED_OF_LIGHT
            resid = (distance(est, pk) - distance(est, pl)
                     - SPEED_OF_LIGHT * m.tdoa[2])
            assert abs(resid) < 1e-6

    def test_matches_dense_y_scan(self):
        bs = make_stations()
        cfg = SolverConfig(NOISY, bs, REGION, AntennaModel.OMNI)
        from rssdloc.solver import _Model
        from rssdloc.geometry import Hyperbola, hyperbola_x_of_y
        for seed in range(3):
            m = measure(bs, Point2D(-0.9, 1.6), NOISY, TdoaNoiseParams(330e-12), seed)
            est = solve_rssd_tdoa(cfg, m)
            h = Hyperbola.from_tdoa(m.tdoa[2], 4.0)
            model = _Model.build(
                SolverConfig(NOISY, [b for b in bs if b.role.measures_rss],
                             REGION, AntennaModel.OMNI), m)
            ys = np.arange(-3.5, 3.5 + 1e-9, 0.0005)
            q = model.objective(np.asarray(hyperbola_x_of_y(h, ys)), ys)
            k = int(np.argmin(q))
            brute = Point2D(float(hyperbola_x_of_y(h, ys[k])), float(ys[k]))
            assert distance(est, brute) < 1e-3

    def test_missing_tdoa(self):
        bs = make_stations()
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        m = measure(bs, Point2D(1, 1))
        m.tdoa = None
        with pytest.raises(MissingTdoa):
            solve_rssd_tdoa(cfg, m)


def pair_objective(cfg, m, x, y):
    """Reference objective: the sum over all station pairs of the squared
    RSSD residual, with the gain from the wrapped off-boresight angle."""
    stations = sorted((b for b in cfg.bs if b.role.measures_rss), key=lambda b: b.id)
    index = {b.id: k for k, b in enumerate(stations)}
    sx = np.array([b.position.x for b in stations])
    sy = np.array([b.position.y for b in stations])
    pairs = m.rssd_pairs
    pi = np.array([index[i] for i, _, _ in pairs])
    pj = np.array([index[j] for _, j, _ in pairs])
    pij = np.array([v for _, _, v in pairs])
    dx = x[None, :] - sx[:, None]
    dy = y[None, :] - sy[:, None]
    d2 = dx * dx + dy * dy
    singular = (d2 < 1e-12).any(axis=0)
    with np.errstate(divide="ignore"):
        logd2 = np.log10(np.where(d2 > 0, d2, 1.0))
    model = 5.0 * cfg.params.alpha * (logd2[pj] - logd2[pi])
    if cfg.antenna_model is AntennaModel.DIRECTIONAL:
        gain = np.array([b.antenna.gain_db for b in stations])
        bore = np.array([b.antenna.orientation for b in stations])
        phi = np.arctan2(dy, dx) - bore[:, None]
        phi = np.mod(phi + np.pi, 2.0 * np.pi) - np.pi
        g = np.where(np.abs(phi) <= np.pi / 2, gain[:, None] * np.cos(phi), 0.0)
        model = model + g[pi] - g[pj]
    resid = pij[:, None] - model
    q = np.einsum("pn,pn->n", resid, resid)
    q[singular] = np.inf
    return q


def sequential_solve(cfg, m):
    """Reference 2D solve: full stable sort of the coarse scan, then each
    seed refined on its own, one 5x5 scan per round."""
    model = _Model.build(cfg, m)
    reg = cfg.region
    gx, gy = np.meshgrid(_grid(reg.x_min, reg.x_max, reg.coarse_step),
                         _grid(reg.y_min, reg.y_max, reg.coarse_step))
    gx, gy = gx.ravel(), gy.ravel()
    q = model.objective(gx, gy)
    best = None
    for k in np.argsort(q, kind="stable")[:8]:
        bx, by, bq = float(gx[k]), float(gy[k]), math.inf
        step = reg.coarse_step / 2.0
        for _ in range(reg.refine_iterations):
            xs = np.unique(np.clip(bx + step * np.arange(-2, 3), reg.x_min, reg.x_max))
            ys = np.unique(np.clip(by + step * np.arange(-2, 3), reg.y_min, reg.y_max))
            sx, sy = np.meshgrid(xs, ys)
            sq = model.objective(sx.ravel(), sy.ravel())
            j = int(np.argmin(sq))
            bx, by, bq = float(sx.ravel()[j]), float(sy.ravel()[j]), float(sq[j])
            step /= 2.0
        if best is None or (bq, by, bx) < best:
            best = (bq, by, bx)
    return Point2D(best[2], best[1])


@st.composite
def layouts(draw):
    """A random station layout with a noisy measurement set taken in it."""
    n = draw(st.integers(3, 8))
    coord = st.floats(-5.0, 5.0)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n,
                              unique=True))
    directional = draw(st.booleans())
    bs = []
    for i, (x, y) in enumerate(positions):
        antenna = (DirectionalAntenna(draw(st.floats(0.0, 10.0)),
                                      draw(st.floats(-math.pi, math.pi)))
                   if directional else OmniAntenna())
        bs.append(BaseStation(i + 1, Point2D(x, y), Role.RSS_ONLY, antenna))
    params = ChannelParams(alpha=draw(st.floats(1.5, 4.0)),
                           sigma_beta=draw(st.floats(0.0, 3.0)))
    mu = Point2D(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    if min(distance(mu, b.position) for b in bs) < 1e-3:
        mu = Point2D(mu.x + 0.01, mu.y)
    region = SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                          refine_iterations=draw(st.integers(0, 6)))
    model = AntennaModel.DIRECTIONAL if directional else AntennaModel.OMNI
    cfg = SolverConfig(params, bs, region, model)
    m = measure(bs, mu, params, seed=draw(st.integers(0, 2**32 - 1)))
    return cfg, m


class TestAgainstPairForm:
    @settings(max_examples=60, deadline=None)
    @given(layouts(), st.integers(0, 2**32 - 1))
    def test_objective_matches_pair_form(self, layout, seed):
        cfg, m = layout
        rng = np.random.default_rng(seed)
        x = rng.uniform(-6.0, 6.0, 64)
        y = rng.uniform(-6.0, 6.0, 64)
        # station positions themselves are singular candidates
        x[:2] = [b.position.x for b in cfg.bs[:2]]
        y[:2] = [b.position.y for b in cfg.bs[:2]]
        got = _Model.build(cfg, m).objective(x, y)
        np.testing.assert_allclose(got, pair_objective(cfg, m, x, y),
                                   rtol=1e-9, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(layouts())
    def test_batched_refine_equals_sequential(self, layout):
        cfg, m = layout
        est = solve_rssd(cfg, m)
        assert est == sequential_solve(cfg, m)
        assert cfg.region.contains(est)

    def test_layouts_never_share_tables(self):
        a = make_stations()
        b = [BaseStation(s.id, Point2D(s.position.x + 0.37, s.position.y), s.role,
                         s.antenna) for s in a]
        tables = []
        for bs in (a, b):
            sx = tuple(s.position.x for s in bs if s.role.measures_rss)
            sy = tuple(s.position.y for s in bs if s.role.measures_rss)
            x, y, blocks = _coarse_geometry(sx, sy, REGION)
            logd2 = np.concatenate([g.logd2 for g in blocks], axis=1)
            d2 = (x - np.array(sx)[:, None]) ** 2 + (y - np.array(sy)[:, None]) ** 2
            np.testing.assert_allclose(logd2, np.log10(d2), rtol=0, atol=1e-12)
            tables.append(logd2)
        assert not np.array_equal(tables[0], tables[1])

    def test_boresights_share_tables(self):
        # re-pointing antennas changes no station position, so every epoch
        # of a directional run reads the same cached geometry
        pos = make_stations()
        sx = tuple(s.position.x for s in pos if s.role.measures_rss)
        sy = tuple(s.position.y for s in pos if s.role.measures_rss)
        first = _coarse_geometry(sx, sy, REGION)
        for target in (Point2D(1, 1), Point2D(-2, 0.5)):
            bs = make_stations(directional=True, target=target)
            cfg = SolverConfig(NOISY, bs, REGION, AntennaModel.DIRECTIONAL)
            solve_rssd(cfg, measure(bs, target, NOISY))
            assert _coarse_geometry(sx, sy, REGION) is first
        assert not first[2][0].logd2.flags.writeable
