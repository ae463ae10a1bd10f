import math

import numpy as np
import pytest

from rssdloc.errors import AliasingSampleRate, TemplateTooLong, WindowOutOfSupport
from rssdloc.receiver import (
    DEFAULT_SAMPLE_RATE,
    DEFAULT_UPSAMPLE,
    CorrelationResult,
    SignalSpec,
    Waveform,
    correlate_and_detect,
    default_chips,
    estimate_tdoa,
    generate_signal,
    rss_from_correlation,
    transmit_template,
)

UPSAMPLED_PERIOD = 1.0 / (DEFAULT_UPSAMPLE * DEFAULT_SAMPLE_RATE)


@pytest.fixture(scope="module")
def spec():
    return SignalSpec()


@pytest.fixture(scope="module")
def template(spec):
    return transmit_template(spec)


class TestGenerateSignal:
    def test_aliasing_guard(self, spec):
        with pytest.raises(AliasingSampleRate):
            generate_signal(spec, 0.0, 0.0, sample_rate=5e9)

    def test_chip_code_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(chips=np.ones(64))
        with pytest.raises(ValueError):
            SignalSpec(chips=np.full(128, 0.5))

    def test_attenuation_halves_amplitude(self, spec):
        full = generate_signal(spec, 0.0, 0.0)
        att = generate_signal(spec, 0.0, -6.0)
        ratio = np.max(np.abs(att.samples)) / np.max(np.abs(full.samples))
        assert ratio == pytest.approx(10 ** (-6 / 20), rel=1e-6)

    def test_first_pulse_at_template_position(self, spec, template):
        # zero delay: the signal is the template itself
        sig = generate_signal(spec, 0.0, 0.0)
        n = min(len(sig.samples), len(template.samples))
        assert np.allclose(sig.samples[:n], template.samples[:n])

    def test_spectral_band_edges(self, spec):
        sig = generate_signal(spec, 0.0, 0.0)
        spectrum = np.abs(np.fft.rfft(sig.samples)) ** 2
        freqs = np.fft.rfftfreq(len(sig.samples), 1.0 / sig.sample_rate)
        peak = np.max(spectrum)
        above = freqs[spectrum >= 0.1 * peak]
        assert abs(above.min() - 2.3e9) < 0.2e9
        assert abs(above.max() - 3.9e9) < 0.2e9

    def test_noise_requires_rng(self, spec):
        with pytest.raises(ValueError):
            generate_signal(spec, 0.0, 0.0, noise_std=0.1)


class TestCorrelateAndDetect:
    def test_zero_delay_peak(self, spec, template):
        r = generate_signal(spec, 0.0, 0.0)
        res = correlate_and_detect(r, template)
        assert abs(res.peak_time) <= UPSAMPLED_PERIOD

    def test_known_delay(self, spec, template):
        res = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        assert abs(res.peak_time - 10e-9) <= UPSAMPLED_PERIOD

    def test_shift_covariance(self, spec, template):
        base = correlate_and_detect(generate_signal(spec, 5e-9, 0.0), template)
        shifted = correlate_and_detect(generate_signal(spec, 5e-9 + 3.7e-9, 0.0),
                                       template)
        assert abs((shifted.peak_time - base.peak_time) - 3.7e-9) <= UPSAMPLED_PERIOD

    def test_subsample_accuracy_under_noise(self, spec, template):
        # SNR ~ 20 dB: timing spread stays well below one raw sample
        amp = np.max(np.abs(template.samples))
        noise_std = amp / 10.0
        errs = []
        for seed in range(30):
            r = generate_signal(spec, 25e-9, 0.0, noise_std=noise_std,
                                rng=np.random.default_rng(seed))
            errs.append(correlate_and_detect(r, template).peak_time - 25e-9)
        assert np.std(errs) < 1.0 / DEFAULT_SAMPLE_RATE

    def test_template_too_long(self, spec, template):
        short = Waveform(template.samples[:1000], template.sample_rate)
        with pytest.raises(TemplateTooLong):
            correlate_and_detect(short, template)


class TestEstimateTdoa:
    def test_identical_results_zero(self, spec, template):
        res = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        assert estimate_tdoa(res, res) == 0.0

    def test_peak_difference(self):
        fake = lambda t: CorrelationResult(Waveform(np.zeros(4), 1e9), t)
        assert estimate_tdoa(fake(15e-9), fake(10e-9)) == pytest.approx(5e-9)

    def test_antisymmetry(self, spec, template):
        a = correlate_and_detect(generate_signal(spec, 12e-9, 0.0), template)
        b = correlate_and_detect(generate_signal(spec, 31e-9, 0.0), template)
        assert estimate_tdoa(a, b) == -estimate_tdoa(b, a)

    def test_generation_parameter_oracle(self, spec, template):
        d1, d2 = 17.3e-9, 9.1e-9
        a = correlate_and_detect(generate_signal(spec, d1, 0.0), template)
        b = correlate_and_detect(generate_signal(spec, d2, 0.0), template)
        assert abs(estimate_tdoa(a, b) - (d1 - d2)) <= UPSAMPLED_PERIOD

    def test_end_to_end_geometry(self, spec, template):
        # two receivers, one source: TDOA must match geometric range diff / c
        from rssdloc.geometry import SPEED_OF_LIGHT, Point2D, distance
        src = Point2D(1.0, 1.3)
        rx1, rx2 = Point2D(0.0, 0.0), Point2D(3.0, 0.0)
        d1 = distance(src, rx1) / SPEED_OF_LIGHT
        d2 = distance(src, rx2) / SPEED_OF_LIGHT
        a = correlate_and_detect(generate_signal(spec, d1, 0.0), template)
        b = correlate_and_detect(generate_signal(spec, d2, 0.0), template)
        assert abs(estimate_tdoa(a, b) - (d1 - d2)) <= UPSAMPLED_PERIOD


class TestRssFromCorrelation:
    def test_zero_window_is_zero(self):
        c = CorrelationResult(Waveform(np.zeros(1000), 1e9, 0.0), 100e-9)
        assert rss_from_correlation(c, 50e-9) == 0.0

    def test_quadratic_scaling(self, spec, template):
        res = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        doubled = CorrelationResult(
            Waveform(2.0 * res.c.samples, res.c.sample_rate, res.c.t0),
            res.peak_time)
        assert rss_from_correlation(doubled) == pytest.approx(
            4.0 * rss_from_correlation(res), rel=1e-12)

    def test_delay_invariance_whole_samples(self, spec, template):
        # 10 ns and 48 ns are both integer sample counts at 12.5 GHz
        a = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        b = correlate_and_detect(generate_signal(spec, 48e-9, 0.0), template)
        pa, pb = rss_from_correlation(a), rss_from_correlation(b)
        assert 10 * math.log10(pa / pb) == pytest.approx(0.0, abs=0.01)

    def test_delay_invariance_fractional(self, spec, template):
        # fractional delays change the sampling phase of the squared carrier
        # (2 * fc sits just under Nyquist), so only approximate invariance
        a = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        b = correlate_and_detect(generate_signal(spec, 47.7e-9, 0.0), template)
        pa, pb = rss_from_correlation(a), rss_from_correlation(b)
        assert abs(10 * math.log10(pa / pb)) < 1.5

    def test_window_out_of_support(self):
        c = CorrelationResult(Waveform(np.zeros(100), 1e9, 0.0), 90e-9)
        with pytest.raises(WindowOutOfSupport):
            rss_from_correlation(c, 70e-9)
        with pytest.raises(WindowOutOfSupport):
            rss_from_correlation(c, -1e-9)


def test_default_chips_fixed_and_binary():
    chips = default_chips()
    assert len(chips) == 128
    assert set(np.unique(chips)) <= {-1.0, 1.0}
    assert np.array_equal(chips, default_chips())
