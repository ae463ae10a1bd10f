import math
import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rssdloc import solver
from rssdloc.channel import ChannelParams, MeasurementSet, TdoaNoiseParams, simulate_measurements
from rssdloc.errors import DegenerateHyperbola, MissingTdoa, SingularCandidate
from rssdloc.fingerprint import refine_with_tdoa
from rssdloc.geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    CanonicalFrame,
    DirectionalAntenna,
    Hyperbola,
    OmniAntenna,
    Point2D,
    Role,
    azimuth,
    branch_x,
    distance,
    golden_section,
    hyperbola_x_of_y,
    measured_hyperbolas,
)
from rssdloc.scenario import load_scenario
from rssdloc.solver import (
    AntennaModel,
    SearchRegion,
    SolverConfig,
    _coarse_seeds,
    _coarse_tables,
    _expanded,
    _grid,
    _Model,
    _rounding_bound,
    solve_rssd,
    solve_rssd_tdoa,
    rssd_objective,
)

REGION = SearchRegion(-3.5, 3.5, -3.5, 3.5)

SIM_YAML = Path(__file__).resolve().parent.parent / "scenarios" / "sim_8x8.yaml"

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


def stack(ms):
    """The one measurement set of a non-empty list of one-epoch sets of one
    layout: their RSS rows as a (T, N) block and, when the first carries a
    TDOA observation, the pair it names with every set's delta_t."""
    tdoa = ms[0].tdoa and ms[0].tdoa[:2] + (np.array([m.tdoa[2] for m in ms]),)
    return MeasurementSet(ms[0].ids, np.array([m.rss for m in ms]), tdoa)


@st.composite
def layouts(draw, tdoa=False, directional=None):
    """A random station layout with a noisy measurement set taken in it.

    With tdoa, two TDOA-only stations join the layout and the set carries
    a noisy TDOA whose range difference has a hyperbola.  directional picks
    the antenna model; None draws it.
    """
    n = draw(st.integers(3, 8))
    coord = st.floats(-5.0, 5.0)
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n,
                              unique=True))
    if directional is None:
        directional = draw(st.booleans())
    bs = []
    for i, (x, y) in enumerate(positions):
        antenna = (DirectionalAntenna(draw(st.floats(0.0, 10.0)),
                                      draw(st.floats(-math.pi, math.pi)))
                   if directional else OmniAntenna())
        bs.append(BaseStation(i + 1, Point2D(x, y), Role.RSS_ONLY, antenna))
    if tdoa:
        mid = Point2D(draw(coord), draw(coord))
        s, a = draw(st.floats(0.5, 5.0)), draw(st.floats(-math.pi, math.pi))
        bs += [BaseStation(n + 1, Point2D(mid.x - s * math.cos(a), mid.y - s * math.sin(a)),
                           Role.TDOA_ONLY),
               BaseStation(n + 2, Point2D(mid.x + s * math.cos(a), mid.y + s * math.sin(a)),
                           Role.TDOA_ONLY)]
    params = ChannelParams(alpha=draw(st.floats(1.5, 4.0)),
                           sigma_beta=draw(st.floats(0.0, 3.0)))
    # with tdoa, also users outside the region, whose curve minimum may lie
    # on the region's edge
    user = st.floats(-5.0, 5.0) if tdoa else st.floats(-3.0, 3.0)
    mu = Point2D(draw(user), draw(user))
    if min(distance(mu, b.position) for b in bs) < 1e-3:
        mu = Point2D(mu.x + 0.01, mu.y)
    region = SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                          refine_iterations=draw(st.integers(0, 6)))
    model = AntennaModel.DIRECTIONAL if directional else AntennaModel.OMNI
    cfg = SolverConfig(params, bs, region, model)
    m = measure(bs, mu, params, TdoaNoiseParams(330e-12) if tdoa else NO_TDOA_NOISE,
                seed=draw(st.integers(0, 2**32 - 1)))
    if tdoa:
        assume(measured_hyperbolas(bs, m.tdoa)[2].all())
    return cfg, m


@st.composite
def stacks(draw, max_epochs=10, directional=None):
    """A layout and a stack of 1 to max_epochs noisy measurements taken in
    it with the same antennas, the layout's own measurement first."""
    cfg, m = draw(layouts(directional=directional))
    ms = [m]
    for _ in range(draw(st.integers(0, max_epochs - 1))):
        mu = Point2D(draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
        if min(distance(mu, b.position) for b in cfg.bs) < 1e-3:
            mu = Point2D(mu.x + 0.01, mu.y)
        ms.append(measure(cfg.bs, mu, cfg.params, seed=draw(st.integers(0, 2**32 - 1))))
    return cfg, ms


@st.composite
def tdoa_stacks(draw):
    """A layout with a TDOA pair and a stack of 0-10 noisy measurements
    taken in it with the same antennas.  With 20 ns of TDOA noise, some
    epochs measure a range difference that has no hyperbola."""
    cfg, _ = draw(layouts(tdoa=True))
    noise = TdoaNoiseParams(draw(st.sampled_from([330e-12, 20e-9])))
    ms = []
    for _ in range(draw(st.integers(0, 10))):
        mu = Point2D(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
        if min(distance(mu, b.position) for b in cfg.bs) < 1e-3:
            mu = Point2D(mu.x + 0.01, mu.y)
        ms.append(measure(cfg.bs, mu, cfg.params, noise, seed=draw(st.integers(0, 2**32 - 1))))
    return cfg, ms


def bits(points):
    """The exact bits of each point's coordinates, None kept."""
    return [None if p is None else (p.x.hex(), p.y.hex()) for p in points]


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

    @pytest.mark.parametrize("model", [AntennaModel.OMNI, AntennaModel.DIRECTIONAL])
    def test_no_refine_rounds_gives_first_coarse_minimum(self, model):
        # refine_iterations 0: the estimate is the coarse grid's first
        # minimum, not whichever seed has the smallest (y, x)
        mu = Point2D(1.234, -0.567)
        bs = make_stations(model is AntennaModel.DIRECTIONAL, mu)
        region = replace(REGION, refine_iterations=0)
        cfg = SolverConfig(NOISY, bs, region, model)
        ms = [measure(bs, mu, NOISY, seed=seed) for seed in range(6)]
        gx, gy = np.meshgrid(_grid(region.x_min, region.x_max, region.coarse_step),
                             _grid(region.y_min, region.y_max, region.coarse_step))
        gx, gy = gx.ravel(), gy.ravel()
        for est, m in zip(solve_rssd(cfg, stack(ms)), ms, strict=True):
            k = int(np.argmin(_Model.build(cfg, m).objective(gx, gy)))
            assert est == Point2D(float(gx[k]), float(gy[k]))

    @pytest.mark.parametrize("layout", ["lacks-station-1", "adds-station-11"])
    def test_measurement_of_another_layout_rejected(self, layout):
        # the config must hold exactly the measurement's RSS stations: a
        # measurement of a station it lacks, or of only part of its stations
        bs = make_stations()
        other = (bs[1:] if layout == "lacks-station-1"
                 else bs + [BaseStation(11, Point2D(0.0, -4.0))])
        m = measure(bs, Point2D(1.0, 1.0))
        cfg = SolverConfig(NOISELESS, other, REGION)
        for call in (_Model.build, solve_rssd):
            for measured in (m, stack([m, m])):
                with pytest.raises(ValueError, match="not the config's RSS stations"):
                    call(cfg, measured)

    def test_measurement_reads_the_config_table(self):
        bs = make_stations()
        cfg = SolverConfig(NOISELESS, bs, REGION)
        m = measure(cfg.stations, Point2D(1.0, 1.0))
        assert m.ids is cfg.stations.ids
        # a table of the same stations built apart reads the same
        np.testing.assert_array_equal(_Model.build(cfg, measure(bs, Point2D(1.0, 1.0))).c,
                                      _Model.build(cfg, m).c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rss_rejected(self, bad):
        # one station's non-finite RSS would centre every residual of its
        # epoch to NaN, and the search return the region's first point
        bs = make_stations()
        cfg = SolverConfig(NOISY, bs, REGION)
        m = measure(bs, Point2D(1.0, 1.0), NOISY)
        m_bad = replace(m, rss=np.where(m.ids == 3, bad, m.rss))
        message = re.escape("non-finite RSS from stations [3]")
        # a stack's epoch without a hyperbola is checked too
        no_hyperbola = replace(m_bad, tdoa=(9, 10, math.nan))
        for call in (lambda: solve_rssd(cfg, m_bad), lambda: solve_rssd(cfg, stack([m, m_bad])),
                     lambda: solve_rssd_tdoa(cfg, m_bad),
                     lambda: solve_rssd_tdoa(cfg, stack([m_bad, m])),
                     lambda: solve_rssd_tdoa(cfg, stack([m, no_hyperbola])),
                     lambda: rssd_objective(cfg, m_bad, Point2D(0.0, 0.0))):
            with pytest.raises(ValueError, match=message):
                call()


class TestSearchRegionHeights:
    def test_axis_aligned_pair(self):
        frame = CanonicalFrame.from_stations(Point2D(0.0, 0.0), Point2D(3.0, 0.0))
        assert SearchRegion(0.0, 3.0, 0.5, 2.0).heights(frame) == (0.5, 2.0)

    def test_rotated_pair_spans_the_corners(self):
        # a pair along the diagonal y = x: canonical y = (y - x) / sqrt 2
        frame = CanonicalFrame.from_stations(Point2D(-1.0, -1.0), Point2D(1.0, 1.0))
        lo, hi = SearchRegion(0.0, 2.0, 0.0, 1.0).heights(frame)
        assert lo == pytest.approx(-2.0 / math.sqrt(2.0), abs=1e-12)
        assert hi == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


class TestSolveRssdTdoa:
    @pytest.mark.parametrize("keep, missing", [([], "[9, 10]"), ([9], "[10]")])
    def test_layout_without_the_tdoa_stations_rejected(self, monkeypatch, keep, missing):
        def no_tables(*args):
            raise AssertionError("line tables built")

        monkeypatch.setattr(solver, "_line_tables", no_tables)
        bs = make_stations()
        m = measure(bs, Point2D(1.0, 1.0))
        layout = [b for b in bs if b.role.measures_rss or b.id in keep]
        cfg = SolverConfig(NOISELESS, layout, REGION)
        message = f"stations {re.escape(missing)} are not TDOA-capable stations"
        p = Point2D(0.0, 0.0)
        for call in (lambda: solve_rssd_tdoa(cfg, m), lambda: solve_rssd_tdoa(cfg, stack([m, m])),
                     lambda: refine_with_tdoa([p], m.tdoa, layout, REGION),
                     lambda: refine_with_tdoa([p, p], stack([m, m]).tdoa, layout, REGION)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("case, error, message", [
        ("no TDOA", MissingTdoa, "no TDOA observation"),
        ("not TDOA-capable", ValueError, r"stations \[3, 4\] are not TDOA-capable"),
    ])
    def test_both_tdoa_paths_raise_alike(self, case, error, message):
        # the solver and the fingerprint projection read a stack's TDOA
        # observation through one helper, so they reject a bad stack alike
        bs = make_stations() + [BaseStation(11, Point2D(0.0, -4.0), Role.TDOA_ONLY)]
        cfg = SolverConfig(NOISY, bs, REGION)
        m = stack([measure(bs[:-1], Point2D(1.0, 1.0), NOISY)] * 2)
        m = {"no TDOA": replace(m, tdoa=None),
             "not TDOA-capable": replace(m, tdoa=(3, 4, m.tdoa[2]))}[case]
        points = [Point2D(0.5, 0.5)] * 2
        for call in (lambda: solve_rssd_tdoa(cfg, m),
                     lambda: refine_with_tdoa(points, m.tdoa, bs, REGION)):
            with pytest.raises(error, match=message):
                call()

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

    def test_rotated_shifted_pair(self):
        # the pair off the x-axis: the search runs in a rotated, shifted
        # frame; boresights at the origin, not at mu, so that a gain model
        # rotated with the frame would move the optimum
        pk, pl = Point2D(-3.0, 1.5), Point2D(2.5, -3.0)
        mu = Point2D(0.7, 1.3)
        bs = make_stations(directional=True, target=Point2D(0.0, 0.0))[:-2] + [
            BaseStation(9, pk, Role.TDOA_ONLY), BaseStation(10, pl, Role.TDOA_ONLY)]
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.DIRECTIONAL)
        assert distance(solve_rssd_tdoa(cfg, measure(bs, mu)), mu) < 1e-3
        from rssdloc.geometry import SPEED_OF_LIGHT
        noisy = SolverConfig(NOISY, bs, REGION, AntennaModel.DIRECTIONAL)
        for seed in range(5):
            m = measure(bs, mu, NOISY, TdoaNoiseParams(330e-12), seed)
            est = solve_rssd_tdoa(noisy, m)
            resid = (distance(est, pk) - distance(est, pl)
                     - SPEED_OF_LIGHT * m.tdoa[2])
            assert abs(resid) < 1e-6

    def test_nan_tdoa_has_no_hyperbola(self):
        # a NaN range difference fails the degeneracy check as inf does: the
        # single call raises, and a stack's epoch is None, for the caller's
        # fallback
        bs = make_stations()
        cfg = SolverConfig(NOISY, bs, REGION)
        m = measure(bs, Point2D(1.0, 1.0), NOISY)
        for dt in (math.nan, math.inf):
            m_bad = replace(m, tdoa=(9, 10, dt))
            with pytest.raises(DegenerateHyperbola):
                solve_rssd_tdoa(cfg, m_bad)
            assert solve_rssd_tdoa(cfg, stack([m_bad, m])) == [None, solve_rssd_tdoa(cfg, m)]

    @pytest.mark.parametrize("r", [4.0, -4.0, 5.5, math.nan, math.inf, -math.inf])
    def test_one_epoch_without_a_hyperbola_raises_its_error(self, r):
        # |r| at or beyond the half-separation s = 4 m, NaN and infinite
        # delta_t: the one-epoch call raises what Hyperbola.from_tdoa raises
        bs = make_stations()
        dt = 2.0 * r / SPEED_OF_LIGHT
        m = replace(measure(bs, Point2D(1.0, 1.0), NOISY), tdoa=(9, 10, dt))
        with pytest.raises(DegenerateHyperbola) as want:
            Hyperbola.from_tdoa(dt, 4.0)
        with pytest.raises(DegenerateHyperbola) as got:
            solve_rssd_tdoa(SolverConfig(NOISY, bs, REGION), m)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_missing_tdoa(self):
        bs = make_stations()
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.OMNI)
        m = measure(bs, Point2D(1, 1))
        m.tdoa = None
        with pytest.raises(MissingTdoa):
            solve_rssd_tdoa(cfg, m)

    def test_each_chunk_makes_one_plus_rounds_calls(self, monkeypatch):
        # every epoch runs the region's R bracket rounds, 5 on sim_8x8: each
        # chunk makes its coarse scan and R rounds, each one call over all
        # its epochs, whatever their brackets; a single MeasurementSet is
        # one chunk of one epoch
        shapes = []
        objective = _Model.objective
        monkeypatch.setattr(_Model, "objective",
                            lambda model, x, y: shapes.append(x.shape) or objective(model, x, y))
        s = load_scenario(SIM_YAML)
        rng = np.random.default_rng(11)
        for antenna_model in AntennaModel:
            sc = s.with_antenna_model(antenna_model)
            cfg = SolverConfig(sc.channel, sc.stations, sc.region, sc.antenna_model)
            for epochs in (1, 16, 35):
                m = simulate_measurements(sc.stations, rng.uniform(-3.0, 3.0, (epochs, 2)),
                                          sc.channel, sc.tdoa_noise, rng)
                frame = measured_hyperbolas(cfg.stations, m.tdoa)[0]
                ys, _, rounds = solver._line_tables(frame, sc.region)
                assert rounds == 5
                shapes.clear()
                assert None not in solve_rssd_tdoa(cfg, m)
                sizes = [min(solver._LINE_CHUNK, epochs - lo)
                         for lo in range(0, epochs, solver._LINE_CHUNK)]
                assert shapes == [shape for n in sizes
                                  for shape in [(n, len(ys))] + [(n, 33)] * rounds]
            shapes.clear()
            assert isinstance(solve_rssd_tdoa(cfg, simulate_measurements(
                sc.stations, Point2D(1.0, 1.0), sc.channel, sc.tdoa_noise, rng)), Point2D)
            assert shapes == [(1, len(ys))] + [(1, 33)] * rounds

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           st.floats(0.01, 0.5), st.data())
    def test_rounds_take_the_widest_bracket_to_tolerance(self, pk, pl, corner, size,
                                                         coarse_step, data):
        # R rounds of the line search's bracket arithmetic take the widest
        # first bracket to _LINE_TOL whichever cells they keep, and R - 1
        # rounds of interior cells, which shrink it 16x each, do not;
        # rounding may move the final width by 1e-9 of the first one
        pk, pl = Point2D(*pk), Point2D(*pl)
        assume(distance(pk, pl) > 0.1)
        frame = CanonicalFrame.from_stations(pk, pl)
        reg = SearchRegion(corner[0], corner[0] + size[0], corner[1], corner[1] + size[1],
                           coarse_step)
        _, brackets, rounds = solver._line_tables(frame, reg)
        widths = brackets[:, 1] - brackets[:, 0]
        first = brackets[int(np.argmax(widths))]
        slack = 1e-9 * widths.max()

        def narrowed(picks):
            ab = first
            for k in picks:
                a, width = ab[:1], ab[1:] - ab[:1]
                ab = a + width * solver._AROUND[k]
            return float(ab[1] - ab[0])

        assert rounds >= 1
        cells = st.lists(st.integers(0, 32), min_size=rounds, max_size=rounds)
        assert narrowed(data.draw(cells)) <= solver._LINE_TOL + slack
        interior = st.lists(st.integers(1, 31), min_size=rounds - 1, max_size=rounds - 1)
        assert narrowed(data.draw(interior)) > solver._LINE_TOL - slack

    @settings(max_examples=80, deadline=None)
    @given(tdoa_stacks(), st.sampled_from([1, 3, 16]))
    def test_stack_equals_per_epoch_calls(self, stack_case, chunk):
        # bit for bit, with None where the single call raises; small chunks
        # split the stack
        cfg, ms = stack_case
        alone = []
        for m in ms:
            try:
                alone.append(solve_rssd_tdoa(cfg, m))
            except DegenerateHyperbola:
                alone.append(None)
        block = stack(ms) if ms else measure(cfg.bs, np.empty((0, 2)))
        with mock.patch.object(solver, "_LINE_CHUNK", chunk):
            assert bits(solve_rssd_tdoa(cfg, block)) == bits(alone)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=4),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_line_points_round_as_the_frame_does(self, pk, pl, fractions, directional, seed):
        # the search runs in the pair's frame and maps only each epoch's
        # estimate out, once, by frame.from_canonical, from the point of its
        # branch at the estimated height; a stack's estimates equal each
        # epoch's single call bit for bit
        pk, pl = Point2D(*pk), Point2D(*pl)
        assume(distance(pk, pl) > 0.1)
        bs = make_stations(directional, Point2D(0.0, 0.0))[:-2] + [
            BaseStation(9, pk, Role.TDOA_ONLY), BaseStation(10, pl, Role.TDOA_ONLY)]
        model = AntennaModel.DIRECTIONAL if directional else AntennaModel.OMNI
        cfg = SolverConfig(NOISY, bs, REGION, model)
        rng = np.random.default_rng(seed)
        dt = [f * distance(pk, pl) / SPEED_OF_LIGHT for f in fractions]
        ms = [replace(measure(bs, Point2D(*rng.uniform(-3.0, 3.0, 2)), NOISY, seed=rng),
                      tdoa=(9, 10, t)) for t in dt]
        frame, r, _ = measured_hyperbolas(cfg.stations, stack(ms).tdoa)
        hs = [Hyperbola(frame.half_separation, r_e) for r_e in r.tolist()]
        mapped = []
        from_canonical = CanonicalFrame.from_canonical

        def recorded(f, p):
            mapped.append((p, from_canonical(f, p)))
            return mapped[-1][1]

        with mock.patch.object(CanonicalFrame, "from_canonical", recorded):
            together = solve_rssd_tdoa(cfg, stack(ms))
            alone = [solve_rssd_tdoa(cfg, m) for m in ms]
        assert bits(together) == bits(alone)
        assert bits(p for _, p in mapped) == bits(together + alone)
        for (p, _), h in zip(mapped, hs + hs):
            assert p.x == float(hyperbola_x_of_y(h, p.y))

    def test_empty_stack(self):
        bs = make_stations()
        assert solve_rssd_tdoa(SolverConfig(NOISY, bs, REGION), measure(bs, np.empty((0, 2)))) == []

    @settings(max_examples=60, deadline=None)
    @given(layouts(tdoa=True))
    # every station on the TDOA pair's axis: the objective is even in the
    # canonical y, and its two mirror basins tie
    @example((SolverConfig(ChannelParams(alpha=1.5, sigma_beta=0.0),
                           [BaseStation(1, Point2D(0.0, 0.0), Role.RSS_ONLY),
                            BaseStation(2, Point2D(2.5, 0.0), Role.RSS_ONLY),
                            BaseStation(3, Point2D(1e-05, 0.0), Role.RSS_ONLY),
                            BaseStation(4, Point2D(-0.5, 0.0), Role.TDOA_ONLY),
                            BaseStation(5, Point2D(9.5, 0.0), Role.TDOA_ONLY)],
                           SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                                        refine_iterations=0), AntennaModel.OMNI),
              MeasurementSet(np.array([1, 2, 3]),
                             np.array([-42.64136888583522, -40.0, -42.641325456242264]),
                             (4, 5, -1.99723547389283e-08))))
    def test_line_search_against_reference(self, layout):
        cfg, m = layout
        est = solve_rssd_tdoa(cfg, m)
        pk, pl = (b.position for b in cfg.bs if b.role.measures_tdoa)
        resid = distance(est, pk) - distance(est, pl) - SPEED_OF_LIGHT * m.tdoa[2]
        assert abs(resid) < 1e-6

        # reference path: the same coarse scan and bracket, refined by golden section
        frame, (r,), _ = measured_hyperbolas(cfg.bs, m.tdoa)
        h = Hyperbola(frame.half_separation, r)
        model = _Model.build(cfg, m)

        def q_of_y(y):
            # the objective at the branch points mapped out to scenario
            # coordinates, as the frame maps them
            y = np.atleast_1d(np.asarray(y, dtype=float))
            x = hyperbola_x_of_y(h, y)
            c, s, o = math.cos(frame.axis_angle), math.sin(frame.axis_angle), frame.origin
            return model.objective(o.x + c * x - s * y, o.y + s * x + c * y)

        step = cfg.region.coarse_step
        reg = cfg.region
        corner_y = [frame.to_canonical(Point2D(x, y)).y for x in (reg.x_min, reg.x_max)
                    for y in (reg.y_min, reg.y_max)]
        ys = _grid(min(corner_y), max(corner_y), step)
        y0 = float(ys[int(np.argmin(q_of_y(ys)))])
        lo, hi = max(min(corner_y), y0 - step), min(max(corner_y), y0 + step)
        # Golden section and the bracket scan both assume one minimum in the
        # bracket.  A station near the curve breaks that: its log-distance
        # singularity splits the bracket into basins of similar depth.
        dense = np.linspace(lo, hi, 4001)
        q_dense = q_of_y(dense)
        k = int(np.argmin(q_dense))
        slope = np.diff(q_dense)
        assume((slope[:k] <= 0).all() and (slope[k:] >= 0).all())
        # The solver's coarse scan runs in the pair's frame and this one at
        # the points mapped out, so they round otherwise: where two basins
        # tie, the estimate may lie in the other one, outside this bracket,
        # and must then be as good as the reference (checked below).
        y_est = frame.to_canonical(est).y
        if lo <= y_est <= hi:
            assert abs(y_est - dense[k]) <= dense[1] - dense[0]

        tol = 1e-7
        y_ref = golden_section(lambda y: float(q_of_y(y)[0]), lo, hi, tol=tol)
        # Both searches stop within tol / 2 of the minimizer, so the estimate
        # is within tol of y_ref and its objective at most the larger one at
        # y_ref +- tol.  Near a noiseless optimum (q -> 0) that resolution
        # exceeds 1e-9 relative.
        q_ref = float(np.max(q_of_y([y_ref - tol, y_ref, y_ref + tol])))
        q_est = float(model.objective(np.array([est.x]), np.array([est.y]))[0])
        assert q_est <= q_ref * (1.0 + 1e-9)


class TestInFrame:
    @settings(max_examples=150, deadline=None)
    @given(stacks(max_epochs=4), st.booleans(), st.floats(0.5, 5.0),
           st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           st.floats(-math.pi, math.pi),
           st.lists(st.floats(-0.999, 0.999), min_size=4, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_objective_matches_scenario_frame(self, stack_case, identity, s, mid, angle,
                                              fractions, seed):
        # the line search's objective, of the model rotated into a pair's
        # frame at branch points, against the model's own at the points the
        # frame maps them out to; both antenna models, rotated and shifted
        # frames, stacks of 1-4 epochs.  Over 3,000 examples of this test
        # the two differed by at most 3.7e-12 relative (at q = 4.6e-7 dB^2)
        # and 2.2e-10 dB^2 absolute (at q = 616 dB^2), so rtol 1e-9 leaves a
        # margin of 270x, and atol 1e-9 dB^2 covers q -> 0; the identity
        # frame rounds nothing and must agree bit for bit
        cfg, ms = stack_case
        u = Point2D(s * math.cos(angle), s * math.sin(angle))
        pk, pl = ((Point2D(-s, 0.0), Point2D(s, 0.0)) if identity
                  else (Point2D(mid[0] - u.x, mid[1] - u.y), Point2D(mid[0] + u.x, mid[1] + u.y)))
        frame = CanonicalFrame.from_stations(pk, pl)
        if identity:
            assert (frame.origin, frame.axis_angle) == (Point2D(0.0, 0.0), 0.0)
        s = frame.half_separation
        r = s * np.array(fractions[:len(ms)])[:, None]
        y = np.random.default_rng(seed).uniform(-6.0, 6.0, (len(ms), 9))
        x = branch_x(r, s * s - r * r, y)
        c, sn, o = math.cos(frame.axis_angle), math.sin(frame.axis_angle), frame.origin
        x_out, y_out = o.x + c * x - sn * y, o.y + sn * x + c * y
        tab = cfg.stations
        assume(np.hypot(x_out[..., None] - tab.x, y_out[..., None] - tab.y).min() > 1e-3)
        model = _Model.build(cfg, stack(ms))
        q_in = model.in_frame(frame).objective(x, y)
        q_out = model.objective(x_out, y_out)
        if identity:
            assert q_in.tobytes() == q_out.tobytes()
        np.testing.assert_allclose(q_in, q_out, rtol=1e-9, atol=1e-9)


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
        bx, by, bq = float(gx[k]), float(gy[k]), float(q[k])
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

    @settings(max_examples=30, deadline=None)
    @given(stacks())
    def test_stack_equals_per_measurement(self, stack_case):
        # up to ten epochs: several coarse-product chunks and one refinement
        cfg, ms = stack_case
        assert solve_rssd(cfg, stack(ms)) == [solve_rssd(cfg, m) for m in ms]

    @settings(max_examples=60, deadline=None)
    @given(stacks(), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_objective_rows_read_their_epochs(self, stack_case, k, seed):
        # (epochs, k) candidates: row e is epoch e's objective, bit for bit.
        # From k = 2: numpy sums a lone candidate's (N, 1) residual column as
        # a contiguous vector, in another order than a column of a batch.
        cfg, ms = stack_case
        rng = np.random.default_rng(seed)
        x = rng.uniform(-6.0, 6.0, (len(ms), k))
        y = rng.uniform(-6.0, 6.0, (len(ms), k))
        # station positions themselves are singular candidates
        for e in range(len(ms)):
            p = cfg.bs[e % len(cfg.bs)].position
            x[e, -1], y[e, -1] = p.x, p.y
        q = _Model.build(cfg, stack(ms)).objective(x, y)
        assert q.shape == x.shape
        for e, m in enumerate(ms):
            np.testing.assert_array_equal(q[e], _Model.build(cfg, m).objective(x[e], y[e]))

    def test_empty_stack(self):
        bs = make_stations()
        assert solve_rssd(SolverConfig(NOISY, bs, REGION), measure(bs, np.empty((0, 2)))) == []

    @settings(max_examples=60, deadline=None)
    @given(stacks(max_epochs=5, directional=False))
    # stations 1e-114 m apart, so that the objective is nothing but the
    # rounding of its float64 centring over stations
    @example((SolverConfig(ChannelParams(alpha=2.0, sigma_beta=0.0),
                           [BaseStation(i + 1, Point2D(0.0, y), Role.RSS_ONLY, OmniAntenna())
                            for i, y in enumerate((0.0, 3.7633328214897485e-114,
                                                   5.463124612131651e-132))],
                           SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                                        refine_iterations=0), AntennaModel.OMNI),
              [MeasurementSet(np.array([1, 2, 3]), np.zeros(3))]))
    def test_expanded_coarse_form_matches_evaluate(self, stack_case):
        cfg, ms = stack_case
        model = _Model.build(cfg, stack(ms))
        t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), cfg.region)
        (seeds, sq), expanded = _coarse_seeds(model, t), _expanded(model, t)
        bound = _rounding_bound(model, t)
        for e in range(len(ms)):
            q = model.epochs(slice(e, e + 1)).objective(t.x, t.y)
            # the seeds are the objective's first 8 cells in order, ties by
            # index, with their objective values
            assert seeds[e].tolist() == np.argsort(q, kind="stable")[:8].tolist()
            np.testing.assert_array_equal(sq[e], q[seeds[e]])
            finite = np.isfinite(q)
            assert np.array_equal(np.isfinite(expanded[e]), finite)
            # the float32 form errs by no more than the bound its shortlist clears
            assert np.max(np.abs(expanded[e][finite] - q[finite]), initial=0.0) <= bound[e]

    @settings(max_examples=60, deadline=None)
    @given(stacks(max_epochs=5, directional=True))
    # directional stations 1e-114 m apart: the objective is the rounding of
    # its centring and the gains alone, and no block can be ruled out
    @example((SolverConfig(ChannelParams(alpha=2.0, sigma_beta=0.0),
                           [BaseStation(i + 1, Point2D(0.0, y), Role.RSS_ONLY,
                                        DirectionalAntenna(6.5, b))
                            for i, (y, b) in enumerate(((0.0, 0.0), (3.7633328214897485e-114, 2.0),
                                                        (5.463124612131651e-132, -2.0)))],
                           SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                                        refine_iterations=0), AntennaModel.DIRECTIONAL),
              [MeasurementSet(np.array([1, 2, 3]), np.zeros(3))]))
    # a station in the region, on a grid cell: its blocks take the full
    # range of gain, and that cell is singular
    @example((SolverConfig(NOISY, make_stations(directional=True, target=Point2D(0.5, 0.5))[:7]
                           + [BaseStation(8, Point2D(float(_grid(-3.5, 3.5, 0.1)[38]),
                                                     float(_grid(-3.5, 3.5, 0.1)[20])),
                                          Role.RSS_ONLY, DirectionalAntenna(6.5, 2.5))],
                           SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1,
                                        refine_iterations=0), AntennaModel.DIRECTIONAL),
              [MeasurementSet(np.arange(1, 9), np.array([-50.0, -52.0, -49.0, -55.0,
                                                         -51.0, -53.0, -50.5, -45.0]))]))
    def test_branch_and_bound_seeds_match_whole_grid(self, stack_case):
        # the seeds and their values are the first 8 of a stable sort of the
        # objective over the whole grid, for every epoch of a stack
        cfg, ms = stack_case
        model = _Model.build(cfg, stack(ms))
        t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), cfg.region)
        seeds, sq = _coarse_seeds(model, t)
        for e in range(len(ms)):
            q = model.epochs(slice(e, e + 1)).objective(t.x, t.y)
            want = np.argsort(q, kind="stable")[:8]
            assert seeds[e].tolist() == want.tolist()
            np.testing.assert_array_equal(sq[e], q[want])

    def test_directional_whole_grid_fallback(self):
        # 2 x 2 coarse cells: the probed block holds fewer than 8 finite
        # values, so each epoch of the stack is ranked over the whole grid
        region = SearchRegion(0.0, 0.1, 0.0, 0.1, coarse_step=0.5)
        bs = make_stations(directional=True, target=Point2D(0.05, 0.05))
        cfg = SolverConfig(NOISY, bs, region, AntennaModel.DIRECTIONAL)
        ms = [measure(bs, Point2D(0.02, 0.07), NOISY, seed=1),
              measure(bs, Point2D(0.09, 0.01), NOISY, seed=2)]
        model = _Model.build(cfg, stack(ms))
        t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), region)
        assert len(t.x) == 4
        seeds, sq = _coarse_seeds(model, t)
        assert seeds.shape == (2, 4)
        for e in range(len(ms)):
            q = model.epochs(slice(e, e + 1)).objective(t.x, t.y)
            want = np.argsort(q, kind="stable")[:8]
            assert seeds[e].tolist() == want.tolist()
            np.testing.assert_array_equal(sq[e], q[want])

    @pytest.mark.parametrize("mu", [(0.3, 0.31), (0.32, 0.29), (0.325, 0.32)])
    def test_branch_and_bound_lone_corner_cell(self, monkeypatch, mu):
        # 8 x 8 coarse cells make 4 blocks, the one at the far corner a
        # single cell; with 3 probes (4 would probe them all) and the user
        # beside that corner, it is the only block kept.  A lone candidate
        # sums in another order than a batch's, yet its seed value is the
        # whole grid's.
        region = SearchRegion(0.0, 0.35, 0.0, 0.35, coarse_step=0.05)
        mu = Point2D(*mu)
        bs = make_stations(directional=True, target=mu)
        model = _Model.build(SolverConfig(NOISELESS, bs, region, AntennaModel.DIRECTIONAL),
                             measure(bs, mu))
        t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), region)
        q = model.objective(t.x, t.y)
        calls = []
        objective = _Model.objective
        monkeypatch.setattr(solver, "_PROBES", 3)
        monkeypatch.setattr(_Model, "objective",
                            lambda model, x, y: calls.append((x, y)) or objective(model, x, y))
        seeds, sq = _coarse_seeds(model, t)
        assert len(calls) == 2
        assert set(zip(*map(np.ravel, calls[1]))) == {(t.x[-1], t.y[-1])}
        assert len(t.x) - 1 in seeds[0]
        want = np.argsort(q, kind="stable")[:8]
        assert seeds[0].tolist() == want.tolist()
        np.testing.assert_array_equal(sq[0], q[want])

    def test_branch_and_bound_evaluates_few_cells(self, monkeypatch):
        # antennas pointed near the user, as the closed loop points them:
        # the bounds rule out all but a few blocks of the 19,881 cells (a
        # median of 882 cells, 4.4 %, on these epochs, none past the grid's
        # edges; 2.2 % on sim_8x8's closed loop)
        rng = np.random.default_rng(3)
        region = SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.05)
        cells = []
        objective = _Model.objective
        monkeypatch.setattr(_Model, "objective",
                            lambda model, x, y: cells.append(x.size) or objective(model, x, y))
        evaluated = []
        for _ in range(20):
            mu = Point2D(*rng.uniform(-3.0, 3.0, 2))
            bs = make_stations(directional=True, target=Point2D(mu.x + 0.2, mu.y - 0.1))
            cfg = SolverConfig(NOISY, bs, region, AntennaModel.DIRECTIONAL)
            model = _Model.build(cfg, measure(bs, mu, NOISY, seed=int(rng.integers(2**32))))
            t = _coarse_tables(tuple(model.sx.tolist()), tuple(model.sy.tolist()), region)
            cells.clear()
            _coarse_seeds(model, t)
            evaluated.append(sum(cells))
        assert np.median(evaluated) < 0.1 * len(t.x)

    def test_flat_objective_seeds_from_whole_grid(self):
        # three stations at one point: every cell sees equal distances, so
        # the shortlist cannot tell the seeds apart and the grid is evaluated
        bs = [BaseStation(i + 1, Point2D(0.0, y), Role.RSS_ONLY)
              for i, y in enumerate((0.0, 1e-156, 1e-300))]
        cfg = SolverConfig(NOISELESS, bs, REGION)
        m = measure(bs, Point2D(1.0, 1.0))
        assert solve_rssd(cfg, m) == sequential_solve(cfg, m)

    def test_flat_directional_objective_seeds_from_whole_grid(self):
        # three directional stations at one point: every cell on the ray
        # toward the user has the gains and distances of the user, so the
        # objective is flat along it up to rounding
        bs = [BaseStation(i + 1, Point2D(0.0, y), Role.RSS_ONLY, DirectionalAntenna(6.5, b))
              for i, (y, b) in enumerate(((0.0, 0.0), (1e-156, 2.0), (1e-300, -2.0)))]
        cfg = SolverConfig(NOISELESS, bs, REGION, AntennaModel.DIRECTIONAL)
        m = measure(bs, Point2D(1.0, 1.0))
        assert solve_rssd(cfg, m) == sequential_solve(cfg, m)

    def test_layouts_never_share_tables(self):
        a = make_stations()
        b = [BaseStation(s.id, Point2D(s.position.x + 0.37, s.position.y), s.role,
                         s.antenna) for s in a]
        tables = []
        for bs in (a, b):
            sx = tuple(s.position.x for s in bs if s.role.measures_rss)
            sy = tuple(s.position.y for s in bs if s.role.measures_rss)
            t = _coarse_tables(sx, sy, REGION)
            dx, dy = t.x - np.array(sx)[:, None], t.y - np.array(sy)[:, None]
            d2 = dx ** 2 + dy ** 2
            logd2 = np.log10(d2)
            lc = logd2 - logd2.mean(axis=0)
            # each table is the float32 rounding of its float64 value
            for got, want in ((t.lc, lc), (t.lc2, np.einsum("ig,ig->g", lc, lc))):
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got, want.astype(np.float32))
            tables.append(t.lc)
        assert not np.array_equal(tables[0], tables[1])

    @pytest.mark.parametrize("inside", [False, True])
    def test_block_tables_hold_their_cells(self, inside):
        # each block's log range is the least and greatest of the objective's
        # own log table over its non-singular cells, and the directions from
        # a station to its cells lie between the ends of the block's arc
        sx, sy = [-2.0, 2.0, 4.0, 4.0], [-4.0, -4.0, -2.0, 2.0]
        if inside:  # on a cell, and off the grid
            sx += [float(_grid(-3.5, 3.5, 0.1)[38]), 0.123]
            sy += [float(_grid(-3.5, 3.5, 0.1)[20]), -0.456]
        region = SearchRegion(-3.5, 3.5, -3.5, 3.5, coarse_step=0.1)
        t = _coarse_tables(tuple(sx), tuple(sy), region)
        assert t.cells.shape == (11 * 11, 49)  # 71 cells a side: ten blocks of 7 and one of 1
        assert sorted(t.cells[t.cells < len(t.x)].tolist()) == list(range(len(t.x)))
        g = solver._Geometry.of(np.array(sx), np.array(sy), t.x, t.y)
        for b, cells in enumerate(t.cells):
            cells = cells[cells < len(t.x)]
            finite = cells[~t.singular[cells]]
            np.testing.assert_array_equal(t.log_lo[:, b], g.logd2[:, finite].min(axis=1))
            np.testing.assert_array_equal(t.log_hi[:, b], g.logd2[:, finite].max(axis=1))
            for i in range(len(sx)):
                # an end e is stored conjugated, so Im(conj(e) u) is the
                # cross product of e with the direction u
                u = g.ux[i, cells] + 1j * g.uy[i, cells]
                if np.array_equal(t.arc[i, :, b], np.zeros(2)):
                    xs, ys = t.x[cells], t.y[cells]
                    assert xs.min() <= sx[i] <= xs.max() and ys.min() <= sy[i] <= ys.max()
                else:
                    np.testing.assert_allclose(np.abs(t.arc[i, :, b]), 1.0)
                    assert (t.arc[i, 0, b] * u).imag.min() >= -1e-12
                    assert (t.arc[i, 1, b] * u).imag.max() <= 1e-12
        assert (t.arc == 0).all(axis=1).sum() == (2 if inside else 0)

    def test_boresights_share_tables(self):
        # re-pointing antennas changes no station position, so every epoch
        # of a directional run reads the same cached geometry
        pos = make_stations()
        sx = tuple(s.position.x for s in pos if s.role.measures_rss)
        sy = tuple(s.position.y for s in pos if s.role.measures_rss)
        first = _coarse_tables(sx, sy, REGION)
        for target in (Point2D(1, 1), Point2D(-2, 0.5)):
            bs = make_stations(directional=True, target=target)
            cfg = SolverConfig(NOISY, bs, REGION, AntennaModel.DIRECTIONAL)
            solve_rssd(cfg, measure(bs, target, NOISY))
            assert _coarse_tables(sx, sy, REGION) is first
        assert not any(a.flags.writeable for a in first)
