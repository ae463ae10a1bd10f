import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rssdloc.channel import (
    ChannelParams,
    ChannelPresets,
    MeasurementSet,
    TdoaNoiseParams,
    received_power,
    simulate_measurements,
    simulate_rss,
)
from rssdloc.errors import CoincidentPosition, NonPositiveDistance, TooFewStations
from rssdloc.geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    DirectionalAntenna,
    OmniAntenna,
    Point2D,
    Role,
    Stations,
    cosine_gain,
)


def omni_bs(positions, role=Role.RSS_ONLY):
    return [BaseStation(i + 1, Point2D(*p), role) for i, p in enumerate(positions)]


class TestReceivedPower:
    def test_reference_distance(self):
        p = ChannelParams(alpha=2.0, sigma_beta=0.0, p0=-40.0, d0=1.0)
        assert received_power(p, 1.0, 0.0) == -40.0

    def test_one_decade(self):
        p = ChannelParams(alpha=2.0, sigma_beta=0.0, p0=-40.0, d0=1.0)
        assert received_power(p, 10.0, 0.0) == pytest.approx(-60.0)

    def test_hand_arithmetic(self):
        p = ChannelParams(alpha=1.7, sigma_beta=0.0, p0=-40.0, d0=1.0)
        expected = -40.0 - 17.0 * math.log10(3.0) + 1.5
        assert received_power(p, 3.0, 1.5) == pytest.approx(expected)

    def test_nonpositive_distance(self):
        p = ChannelParams(alpha=2.0, sigma_beta=0.0)
        with pytest.raises(NonPositiveDistance):
            received_power(p, 0.0, 0.0)

    def test_nonpositive_distance_names_the_first(self):
        # a (T, N) stack names its first non-positive entry, not every entry
        p = ChannelParams(alpha=2.0, sigma_beta=0.0)
        d = np.array([[1.0, 2.0, 3.0], [4.0, -0.5, 0.0]])
        with pytest.raises(NonPositiveDistance, match=r"^distance must be > 0, got -0\.5$"):
            received_power(p, d, 0.0)
        with pytest.raises(NonPositiveDistance, match=r"got nan$"):
            received_power(p, np.array([1.0, np.nan]), 0.0)


def gain(peak, boresight, phi):
    """cosine_gain of an antenna with boresight azimuth `boresight` toward
    the azimuths boresight + phi."""
    phi = np.asarray(phi, dtype=float)
    return cosine_gain(peak * math.cos(boresight), peak * math.sin(boresight),
                       np.cos(boresight + phi), np.sin(boresight + phi))


BORESIGHTS = [0.0, 1.0, -2.5, math.pi]


class TestAntennaGain:
    """cosine_gain, the one directional gain formula, at several boresights."""

    def test_boresight(self):
        assert gain(6.5, 0.0, [0.0])[0] == 6.5
        for b in BORESIGHTS:
            assert gain(6.5, b, [0.0])[0] == pytest.approx(6.5, rel=1e-15)

    def test_broadside_zero(self):
        for b in BORESIGHTS:
            np.testing.assert_allclose(gain(6.5, b, [math.pi / 2, -math.pi / 2]), 0.0,
                                       atol=1e-12)

    def test_sixty_degrees(self):
        for b in BORESIGHTS:
            np.testing.assert_allclose(gain(6.5, b, [math.pi / 3, -math.pi / 3]), 3.25,
                                       rtol=1e-12)

    def test_backlobe_clamped(self):
        for b in BORESIGHTS:
            phi = [0.75 * math.pi, math.pi, -0.75 * math.pi, 0.51 * math.pi]
            assert (gain(6.5, b, phi) == 0.0).all()

    def test_even_and_maximal_at_zero(self):
        phi = np.linspace(0, math.pi, 50)
        assert (gain(6.5, 0.0, phi) <= 6.5).all()
        for b in BORESIGHTS:
            np.testing.assert_allclose(gain(6.5, b, phi), gain(6.5, b, -phi), rtol=1e-12,
                                       atol=1e-12)
            # cos^2 b + sin^2 b rounds to within 2 ulps of 1
            assert (gain(6.5, b, phi) <= 6.5 * (1 + 4e-16)).all()

    def test_omni_is_zero_gain(self):
        assert (gain(0.0, 0.7, np.linspace(-math.pi, math.pi, 9)) == 0.0).all()


class TestPresets:
    def test_default_ordering(self):
        p = ChannelPresets()
        assert p.omni_dir.alpha >= p.omni_omni.alpha
        assert p.omni_dir.sigma_beta <= p.omni_omni.sigma_beta

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ChannelPresets(ChannelParams(2.0, 1.0), ChannelParams(1.5, 1.0))


class TestSimulateMeasurements:
    params = ChannelParams(alpha=1.7, sigma_beta=0.0)
    tdoa = TdoaNoiseParams(0.0)

    def test_equidistant_omni_pair_is_zero(self):
        bs = omni_bs([(-1, 0), (1, 0)])
        m = simulate_measurements(bs, Point2D(0, 2), self.params, self.tdoa,
                                  np.random.default_rng(0))
        assert m.rssd_pairs[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_equidistant_directional_pointed_at_mu(self):
        mu = Point2D(0, 2)
        bs = [
            BaseStation(1, Point2D(-1, 0), Role.RSS_ONLY,
                        DirectionalAntenna(6.5, math.atan2(2, 1))),
            BaseStation(2, Point2D(1, 0), Role.RSS_ONLY,
                        DirectionalAntenna(6.5, math.atan2(2, -1))),
        ]
        m = simulate_measurements(bs, mu, self.params, self.tdoa,
                                  np.random.default_rng(0))
        assert m.rssd_pairs[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_pairs_derive_from_rss(self):
        bs = omni_bs([(0, 0), (4, 0), (2, 3)])
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        m = simulate_measurements(bs, Point2D(1.0, 1.0), noisy, self.tdoa,
                                  np.random.default_rng(5))
        (rss,) = simulate_rss(bs, xy([Point2D(1.0, 1.0)]), noisy, np.random.default_rng(5))
        np.testing.assert_array_equal(m.rss, rss)
        assert m.rssd_pairs == [(1, 2, rss[0] - rss[1]), (1, 3, rss[0] - rss[2]),
                                (2, 3, rss[1] - rss[2])]

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_cycle_consistency(self, seed):
        bs = omni_bs([(0, 0), (4, 0), (2, 3)])
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        m = simulate_measurements(bs, Point2D(1.0, 1.0), noisy, self.tdoa,
                                  np.random.default_rng(seed))
        vals = {(i, j): v for i, j, v in m.rssd_pairs}
        assert vals[(1, 2)] + vals[(2, 3)] == pytest.approx(vals[(1, 3)], abs=1e-12)

    def test_noiseless_matches_log_ratio(self):
        bs = omni_bs([(0, 0), (4, 0)])
        mu = Point2D(1.0, 1.5)
        m = simulate_measurements(bs, mu, self.params, self.tdoa,
                                  np.random.default_rng(0))
        d1 = math.hypot(1.0, 1.5)
        d2 = math.hypot(3.0, 1.5)
        assert m.rssd_pairs[0][2] == pytest.approx(
            10 * 1.7 * math.log10(d2 / d1), abs=1e-12)

    def test_tdoa_from_geometry(self):
        bs = omni_bs([(0, 3), (2, 3)]) + [
            BaseStation(9, Point2D(-2, 0), Role.TDOA_ONLY),
            BaseStation(10, Point2D(2, 0), Role.TDOA_ONLY),
        ]
        mu = Point2D(1.0, 1.0)
        m = simulate_measurements(bs, mu, self.params, self.tdoa,
                                  np.random.default_rng(0))
        k, l, dt = m.tdoa
        assert (k, l) == (9, 10)
        expected = (math.hypot(3, 1) - math.hypot(1, 1)) / SPEED_OF_LIGHT
        assert dt == pytest.approx(expected, abs=1e-18)

    def test_tdoa_noise_std(self):
        bs = omni_bs([(0, 3), (2, 3)]) + [
            BaseStation(9, Point2D(-2, 0), Role.TDOA_ONLY),
            BaseStation(10, Point2D(2, 0), Role.TDOA_ONLY),
        ]
        stations = Stations.of(bs)  # built once for the 100,000 draws
        rng = np.random.default_rng(3)
        noise = TdoaNoiseParams(330e-12)
        mu = Point2D(0.5, 1.0)
        true_dt = (math.hypot(2.5, 1) - math.hypot(1.5, 1)) / SPEED_OF_LIGHT
        draws = np.array([
            simulate_measurements(stations, mu, self.params, noise, rng).tdoa[2] - true_dt
            for _ in range(100_000)
        ])
        assert abs(np.std(draws) / 330e-12 - 1.0) < 0.02

    def test_bias_shifts_rss(self):
        clean = omni_bs([(0, 0), (4, 0)])
        biased = [clean[0], BaseStation(2, Point2D(4, 0), Role.RSS_ONLY,
                                        bias_db=4.0)]
        mu = Point2D(1.0, 1.0)
        r0 = simulate_rss(clean, xy([mu]), self.params, np.random.default_rng(0))
        r1 = simulate_rss(biased, xy([mu]), self.params, np.random.default_rng(0))
        assert r1[0, 1] == pytest.approx(r0[0, 1] - 4.0)  # station 2

    def test_too_few_stations(self):
        with pytest.raises(TooFewStations):
            simulate_measurements(omni_bs([(0, 0)]), Point2D(1, 1), self.params,
                                  self.tdoa, np.random.default_rng(0))

    def test_coincident_position(self):
        bs = omni_bs([(0, 0), (4, 0)])
        with pytest.raises(CoincidentPosition):
            simulate_measurements(bs, Point2D(0, 0), self.params, self.tdoa,
                                  np.random.default_rng(0))


def scalar_rss(bs, mu, params, rng):
    """The per-station loop simulate_rss replaced, kept as its reference:
    stations in ascending id order, one fading draw each, math.log10 path
    loss and the gain G cos(phi) of the off-boresight angle phi from atan2,
    0 beyond +-pi/2.  Gives (RSS, sum of the magnitudes of its terms)."""
    out = {}
    for b in sorted((b for b in bs if b.role.measures_rss), key=lambda b: b.id):
        dx, dy = mu.x - b.position.x, mu.y - b.position.y
        beta = rng.normal(0.0, params.sigma_beta) if params.sigma_beta > 0 else 0.0
        gain = 0.0
        if isinstance(b.antenna, DirectionalAntenna):
            phi = math.remainder(math.atan2(dy, dx) - b.antenna.orientation, math.tau)
            gain = b.antenna.gain_db * math.cos(phi) if abs(phi) <= math.pi / 2 else 0.0
        path = 10.0 * params.alpha * math.log10(math.hypot(dx, dy) / params.d0)
        rss = params.p0 - path + beta + gain - b.bias_db
        out[b.id] = rss, abs(params.p0) + abs(path) + abs(beta) + abs(gain) + abs(b.bias_db)
    return out


# simulate_rss against scalar_rss, in units of the spacing of the sum of the
# terms' magnitudes.  The reference's own angle (atan2, the subtraction of the
# boresight, cos) rounds to within about 10 ulps of G near broadside; the
# path loss and the sum round to within a few ulps.
RSS_ULPS = 16

antennas = st.one_of(st.just(OmniAntenna()),
                     st.builds(DirectionalAntenna, st.floats(0.0, 10.0),
                               st.floats(-10.0, 10.0)))


@st.composite
def channel_cases(draw):
    """Random stations (both antenna kinds, biases, any ids, a TDOA-only
    station among them), channel parameters and a user position."""
    ids = draw(st.lists(st.integers(1, 99), min_size=2, max_size=8, unique=True))
    coord = st.floats(-5.0, 5.0)
    bs = [BaseStation(i, Point2D(draw(coord), draw(coord)),
                      draw(st.sampled_from([Role.RSS_ONLY, Role.RSS_TDOA])),
                      draw(antennas), draw(st.floats(-10.0, 10.0)))
          for i in ids]
    bs.append(BaseStation(100, Point2D(draw(coord), draw(coord)), Role.TDOA_ONLY))
    params = ChannelParams(alpha=draw(st.floats(1.5, 4.0)),
                           sigma_beta=draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0))),
                           p0=draw(st.floats(-60.0, 0.0)), d0=draw(st.floats(0.5, 2.0)))
    mu = Point2D(draw(coord), draw(coord))
    assume(min(math.hypot(mu.x - b.position.x, mu.y - b.position.y) for b in bs) > 1e-3)
    return bs, mu, params, draw(st.integers(0, 2**32 - 1))


class TestVectorChannel:
    @settings(max_examples=200, deadline=None)
    @given(channel_cases())
    def test_within_ulps_of_scalar_loop(self, case):
        bs, mu, params, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ids = Stations.of(bs).ids.tolist()
        got = dict(zip(ids, simulate_rss(bs, xy([mu]), params, rng)[0].tolist()))
        want = scalar_rss(bs, mu, params, ref_rng)
        assert list(got) == list(want)  # ascending id, RSS stations only
        for i, (rss, scale) in want.items():
            assert abs(got[i] - rss) <= RSS_ULPS * np.spacing(scale), (i, got[i], rss)
        # one (1, N) draw consumes the stream as N scalar draws do, and a
        # different draw would miss the bound above by far more than ulps
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(channel_cases())
    def test_rssd_pairs_as_from_id_keyed_rss(self, case):
        bs, mu, params, seed = case
        table = Stations.of(bs)
        m = MeasurementSet(table.ids,
                           simulate_rss(table, xy([mu]), params, np.random.default_rng(seed))[0])
        # the id-keyed dict simulate_rss returned before, and its pairs
        rss = dict(zip(m.ids.tolist(), m.rss.tolist()))
        ids = sorted(rss)
        want = [(i, j, rss[i] - rss[j]) for a, i in enumerate(ids) for j in ids[a + 1:]]
        got = m.rssd_pairs
        assert got == want
        assert [tuple(map(type, p)) for p in got] == [(int, int, float)] * len(want)

    def test_vector_draw_equals_scalar_draws(self):
        for sigma in (0.5, 2.0):
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            assert a.normal(0.0, sigma, 8).tolist() == [b.normal(0.0, sigma) for _ in range(8)]

    def test_received_power_takes_arrays(self):
        p = ChannelParams(alpha=2.0, sigma_beta=0.0, p0=-40.0, d0=1.0)
        d, beta = np.array([1.0, 10.0, 3.0]), np.array([0.0, 0.0, 1.5])
        np.testing.assert_allclose(received_power(p, d, beta),
                                   [received_power(p, di, bi) for di, bi in zip(d, beta)],
                                   rtol=0, atol=0)
        with pytest.raises(NonPositiveDistance):
            received_power(p, np.array([1.0, 0.0]), 0.0)


def bits(a):
    return np.asarray(a).tobytes()


def xy(ps):
    """The (T, 2) array of a list of T points, the form a stack takes."""
    return np.array([(p.x, p.y) for p in ps]).reshape(-1, 2)


@st.composite
def stack_cases(draw):
    """Random RSS stations of either antenna layout (all omni, or some
    directional), no TDOA pair or one, channel and TDOA noise levels with
    either sigma 0, and 0 to 6 positions clear of every station."""
    ids = draw(st.lists(st.integers(1, 99), min_size=2, max_size=8, unique=True))
    coord = st.floats(-5.0, 5.0)
    layout = draw(st.sampled_from(["omni", "directional"]))
    bs = [BaseStation(i, Point2D(draw(coord), draw(coord)), Role.RSS_ONLY,
                      OmniAntenna() if layout == "omni" else draw(antennas),
                      draw(st.floats(-10.0, 10.0)))
          for i in ids]
    pair = draw(st.sampled_from(["none", "tdoa-only", "rss-tdoa"]))
    if pair == "tdoa-only":
        bs += [BaseStation(100 + k, Point2D(draw(coord), draw(coord)), Role.TDOA_ONLY)
               for k in range(2)]
    elif pair == "rss-tdoa":
        bs[:2] = [BaseStation(b.id, b.position, Role.RSS_TDOA, b.antenna, b.bias_db)
                  for b in bs[:2]]
    params = ChannelParams(alpha=draw(st.floats(1.5, 4.0)),
                           sigma_beta=draw(st.sampled_from([0.0, 1.0, 2.5])))
    tdoa = TdoaNoiseParams(draw(st.sampled_from([0.0, 330e-12])))
    ps = draw(st.lists(st.builds(Point2D, coord, coord), max_size=6))
    assume(all(math.hypot(p.x - b.position.x, p.y - b.position.y) > 1e-3
               for p in ps for b in bs))
    return bs, ps, params, tdoa, draw(st.integers(0, 2**32 - 1))


def epoch_reference(bs, mu, params, tdoa, rng):
    """One epoch as the epoch-by-epoch code drew it, kept as the stack's
    reference: N fading normals by rng.normal, then one TDOA normal when
    the pair is noisy.  Gives (rss, tdoa)."""
    table = Stations.of(bs)
    dx, dy = mu.x - table.x, mu.y - table.y
    d = np.hypot(dx, dy)
    beta = rng.normal(0.0, params.sigma_beta, len(d)) if params.sigma_beta > 0 else 0.0
    rss = received_power(params, d, beta)
    rss += cosine_gain(table.gcos, table.gsin, dx / d, dy / d)
    rss -= table.bias_db
    pair = table.pair()
    if pair is None:
        return rss, None
    (k, a), (l, b) = ((i, table.tdoa[i]) for i in pair)
    dt = (math.hypot(mu.x - a.x, mu.y - a.y) - math.hypot(mu.x - b.x, mu.y - b.y)) / SPEED_OF_LIGHT
    if tdoa.sigma_tdoa > 0:
        dt += rng.normal(0.0, tdoa.sigma_tdoa)
    return rss, (k, l, dt)


class TestStackedChannel:
    """A stack of T positions is one measurement set whose rows and TDOA
    column are T single-epoch calls, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(stack_cases())
    def test_stack_equals_per_epoch_calls(self, case):
        bs, ps, params, tdoa, seed = case
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        stack = simulate_measurements(bs, xy(ps), params, tdoa, rngs[0])
        loop = [simulate_measurements(bs, p, params, tdoa, rngs[1]) for p in ps]
        reference = [epoch_reference(bs, p, params, tdoa, rngs[2]) for p in ps]
        table = Stations.of(bs)
        assert isinstance(stack, MeasurementSet)
        assert stack.ids.tolist() == table.ids.tolist()
        assert stack.rss.shape == (len(ps), len(table.ids))
        pair = table.pair()
        if pair is None:
            assert stack.tdoa is None
        else:
            assert stack.tdoa[:2] == pair
            assert stack.tdoa[2].shape == (len(ps),) and stack.tdoa[2].dtype == float
        for e, (want, (rss, obs)) in enumerate(zip(loop, reference, strict=True)):
            assert want.ids.tolist() == stack.ids.tolist()
            assert want.rss.shape == rss.shape == stack.rss[e].shape
            assert bits(stack.rss[e]) == bits(want.rss) == bits(rss)
            assert want.tdoa == obs
            if obs is not None:
                assert bits(stack.tdoa[2][e]) == bits(want.tdoa[2]) == bits(obs[2])
                assert type(want.tdoa[2]) is float
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rss = simulate_rss(bs, xy(ps), params, rng)
        assert rss.shape == (len(ps), len(Stations.of(bs).ids))
        assert bits(rss) == bits([simulate_rss(bs, xy([p]), params, ref_rng) for p in ps])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


    @settings(max_examples=100, deadline=None)
    @given(stack_cases(), st.data())
    def test_turned_antennas_read_as_their_own_draw(self, case, data):
        # a drawn stack's rows read with the antennas turned equal a draw
        # of the same epochs with those antennas, bit for bit
        bs, ps, params, tdoa, seed = case
        table = Stations.of(bs)
        turned = replace(table, boresight=np.array(
            data.draw(st.lists(st.floats(-4.0, 4.0), min_size=len(table.ids),
                               max_size=len(table.ids)))))
        stack = simulate_measurements(table, xy(ps), params, tdoa, np.random.default_rng(seed))
        want = simulate_measurements(turned, xy(ps), params, tdoa, np.random.default_rng(seed))
        lo = data.draw(st.integers(0, len(ps)))
        rows = slice(lo, data.draw(st.integers(lo, len(ps))))
        got = stack.received_by(turned, rows)
        assert got.ids is turned.ids
        assert bits(got.rss) == bits(want.rss[rows])
        if want.tdoa is None:
            assert got.tdoa is None
        else:
            assert got.tdoa[:2] == want.tdoa[:2] and bits(got.tdoa[2]) == bits(want.tdoa[2][rows])


def first_error(call):
    try:
        call()
    except Exception as e:
        return type(e), str(e)
    return None


TWO_PAIR = omni_bs([(0, 3), (2, 3)]) + [
    BaseStation(9, Point2D(-2, 0), Role.TDOA_ONLY),
    BaseStation(10, Point2D(2, 0), Role.TDOA_ONLY),
]
SHARED = omni_bs([(0, 3), (2, 3)]) + [BaseStation(9, Point2D(-2, 0), Role.RSS_TDOA),
                                      BaseStation(10, Point2D(2, 0), Role.TDOA_ONLY)]
THREE_TDOA = TWO_PAIR + [BaseStation(11, Point2D(0, -2), Role.TDOA_ONLY)]
CLEAR = Point2D(0.5, 1.0)


class TestStackErrors:
    """A stack raises the error of the first check it fails, in the order
    simulate_measurements checks: a third TDOA-capable station, then the
    first epoch on a TDOA station, then too few RSS stations, then the
    first epoch on an RSS station, naming it.  One position is a stack of
    one."""

    THIRD = (ValueError, "at most two stations may be TDOA-capable, got stations 9, 10, 11")
    ON_9 = (CoincidentPosition, "MU coincides with TDOA station 9")
    ON_10 = (CoincidentPosition, "MU coincides with TDOA station 10")

    @pytest.mark.parametrize("bs, ps, error", [
        # a TDOA station at any epoch comes before an RSS station at any epoch
        (TWO_PAIR, [CLEAR, Point2D(2, 0), Point2D(0, 3)], ON_10),
        (TWO_PAIR, [CLEAR, Point2D(0, 3), Point2D(2, 0)], ON_10),
        # a station of both roles is met as a TDOA station
        (SHARED, [CLEAR, Point2D(-2, 0)], ON_9),
        # a third TDOA station comes before every epoch
        (THREE_TDOA, [CLEAR, Point2D(0, 3)], THIRD),
        (THREE_TDOA, [Point2D(2, 3), CLEAR], THIRD),
        (THREE_TDOA, [Point2D(2, 0)], THIRD),
        # the RSS station count comes after the TDOA stations and before
        # the epochs on an RSS station
        (omni_bs([(0, 0)]) + TWO_PAIR[2:], [CLEAR, Point2D(2, 0)], ON_10),
        (omni_bs([(0, 0)]) + TWO_PAIR[2:], [CLEAR, Point2D(0, 0)],
         (TooFewStations, "need >= 2 RSS stations, got 1")),
        # the first epoch on an RSS station names its station
        (TWO_PAIR, [CLEAR, Point2D(2, 3), Point2D(0, 3)],
         (CoincidentPosition, "MU coincides with station 2")),
    ], ids=["tdoa-then-rss", "rss-then-tdoa", "same-epoch", "third-tdoa-station",
            "third-tdoa-station-before-rss", "third-tdoa-station-before-tdoa",
            "tdoa-before-too-few-stations", "too-few-stations", "first-rss-station"])
    def test_raises_in_check_order(self, bs, ps, error):
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        tdoa = TdoaNoiseParams(330e-12)
        assert first_error(lambda: simulate_measurements(bs, xy(ps), noisy, tdoa,
                                                         np.random.default_rng(0))) == error

    @pytest.mark.parametrize("bs, ps, error", [
        (TWO_PAIR, [CLEAR, Point2D(2, 0), Point2D(0, 3)], ON_10),
        (TWO_PAIR, [CLEAR, Point2D(0, 3), Point2D(2, 0)],
         (CoincidentPosition, "MU coincides with station 1")),
        # one position is checked in the stack's order too
        (SHARED, [CLEAR, Point2D(-2, 0)], ON_9),
        (THREE_TDOA, [CLEAR, Point2D(0, 3)], THIRD),
        (THREE_TDOA, [Point2D(2, 3), CLEAR], THIRD),
        (omni_bs([(0, 0)]) + TWO_PAIR[2:], [CLEAR, Point2D(2, 0)],
         (TooFewStations, "need >= 2 RSS stations, got 1")),
    ], ids=["tdoa-then-rss", "rss-then-tdoa", "same-epoch", "third-tdoa-station",
            "rss-before-third-tdoa-station", "too-few-stations"])
    def test_first_error_of_the_loop(self, bs, ps, error):
        # a loop of one-position calls stops at its first failing epoch,
        # which raises what that position's stack of one raises
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        tdoa = TdoaNoiseParams(330e-12)

        def loop(form):
            for p in ps:
                simulate_measurements(bs, form(p), noisy, tdoa, np.random.default_rng(0))

        assert (first_error(lambda: loop(lambda p: p))
                == first_error(lambda: loop(lambda p: xy([p]))) == error)

    def test_rss_stack_names_the_first_epochs_station(self):
        # epoch 1 meets station 2 and epoch 2 station 1
        bs = omni_bs([(2, 2), (1, 1)])
        ps = [Point2D(0, 0), Point2D(1, 1), Point2D(2, 2)]
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        with pytest.raises(CoincidentPosition, match="^MU coincides with station 2$"):
            simulate_rss(bs, xy(ps), noisy, np.random.default_rng(0))

    def test_received_by_needs_a_drawn_stack(self):
        # a one-epoch set, drawn or not, and a stack without links have no
        # rows of links to read
        noisy = ChannelParams(alpha=1.7, sigma_beta=2.0)
        table = Stations.of(TWO_PAIR)
        one = simulate_measurements(table, CLEAR, noisy, TdoaNoiseParams(330e-12),
                                    np.random.default_rng(0))
        bare = MeasurementSet(table.ids, np.zeros((2, len(table.ids))))
        for m, message in ((one, "this set is one epoch"),
                           (MeasurementSet(table.ids, one.rss), "this set is one epoch"),
                           (bare, "this set has none")):
            with pytest.raises(ValueError, match=message):
                m.received_by(table, slice(0, 1))
