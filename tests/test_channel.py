import math

import numpy as np
import pytest

from rssdloc.channel import (
    ChannelParams,
    ChannelPresets,
    TdoaNoiseParams,
    antenna_gain,
    received_power,
    simulate_measurements,
    simulate_rss,
)
from rssdloc.errors import CoincidentPosition, NonPositiveDistance, TooFewStations
from rssdloc.geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    DirectionalAntenna,
    Point2D,
    Role,
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


class TestAntennaGain:
    def test_boresight(self):
        assert antenna_gain(6.5, 0.0) == 6.5

    def test_broadside_zero(self):
        assert antenna_gain(6.5, math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_sixty_degrees(self):
        assert antenna_gain(6.5, math.pi / 3) == pytest.approx(3.25)

    def test_backlobe_clamped(self):
        assert antenna_gain(6.5, 0.75 * math.pi) == 0.0
        assert antenna_gain(6.5, math.pi) == 0.0

    def test_even_and_maximal_at_zero(self):
        for phi in np.linspace(0, math.pi, 50):
            assert antenna_gain(6.5, phi) == pytest.approx(antenna_gain(6.5, -phi))
            assert antenna_gain(6.5, phi) <= 6.5


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
        rss = simulate_rss(bs, Point2D(1.0, 1.0), noisy, np.random.default_rng(5))
        assert m.rss == rss
        assert m.rssd_pairs == [(1, 2, rss[1] - rss[2]), (1, 3, rss[1] - rss[3]),
                                (2, 3, rss[2] - rss[3])]

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
        rng = np.random.default_rng(3)
        noise = TdoaNoiseParams(330e-12)
        mu = Point2D(0.5, 1.0)
        true_dt = (math.hypot(2.5, 1) - math.hypot(1.5, 1)) / SPEED_OF_LIGHT
        draws = np.array([
            simulate_measurements(bs, mu, self.params, noise, rng).tdoa[2] - true_dt
            for _ in range(100_000)
        ])
        assert abs(np.std(draws) / 330e-12 - 1.0) < 0.02

    def test_bias_shifts_rss(self):
        clean = omni_bs([(0, 0), (4, 0)])
        biased = [clean[0], BaseStation(2, Point2D(4, 0), Role.RSS_ONLY,
                                        bias_db=4.0)]
        mu = Point2D(1.0, 1.0)
        r0 = simulate_rss(clean, mu, self.params, np.random.default_rng(0))
        r1 = simulate_rss(biased, mu, self.params, np.random.default_rng(0))
        assert r1[2] == pytest.approx(r0[2] - 4.0)

    def test_too_few_stations(self):
        with pytest.raises(TooFewStations):
            simulate_measurements(omni_bs([(0, 0)]), Point2D(1, 1), self.params,
                                  self.tdoa, np.random.default_rng(0))

    def test_coincident_position(self):
        bs = omni_bs([(0, 0), (4, 0)])
        with pytest.raises(CoincidentPosition):
            simulate_measurements(bs, Point2D(0, 0), self.params, self.tdoa,
                                  np.random.default_rng(0))
