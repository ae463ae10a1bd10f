import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from rssdloc import receiver
from rssdloc.errors import EmptyInput, TemplateTooLong, WindowOutOfSupport
from rssdloc.receiver import (
    DEFAULT_BAND,
    DEFAULT_RSS_WINDOW,
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


def reference_signal(spec, delay, attenuation_db, noise_std=0.0, rng=None):
    """generate_signal cut from one full-length time axis, as first written."""
    sample_rate = DEFAULT_SAMPLE_RATE
    sigma, fc = spec.pulse_sigma, spec.center_frequency
    pad = 6.0 * sigma
    duration = delay + (len(spec.chips) - 1) / spec.prf + 2.0 * pad
    n = int(math.ceil(duration * sample_rate)) + 1
    t = np.arange(n) / sample_rate
    out = np.zeros(n)
    amp = 10.0 ** (attenuation_db / 20.0)
    for k, chip in enumerate(spec.chips):
        tc = delay + pad + k / spec.prf
        lo = max(int((tc - pad) * sample_rate), 0)
        hi = min(int((tc + pad) * sample_rate) + 1, n)
        tk = t[lo:hi] - tc
        out[lo:hi] += (chip * amp * np.exp(-0.5 * (tk / sigma) ** 2)
                       * np.cos(2.0 * math.pi * fc * tk))
    if noise_std > 0:
        out += rng.normal(0.0, noise_std, size=n)
    return out


# half-length of the reference zero-phase response, past the package's own
# (268 samples at 12.5 GHz, where its tail falls below 1e-17 of its peak)
REF_HALF = 1024


@functools.cache
def zero_phase_response():
    """h_ref: sosfiltfilt's response to a unit impulse far from the ends of
    its input, over lags -REF_HALF..REF_HALF, from a fresh filter design."""
    sos = signal.butter(4, DEFAULT_BAND, btype="bandpass", fs=DEFAULT_SAMPLE_RATE,
                        output="sos")
    impulse = np.zeros(4 * REF_HALF + 1)
    impulse[2 * REF_HALF] = 1.0
    return signal.sosfiltfilt(sos, impulse)[REF_HALF:3 * REF_HALF + 1]


def reference_correlate(r, template):
    """(c, t0, k, peak_time) by a fresh filter design and signal.correlate.

    The input is filtered as h_ref * r, r read as 0 outside its samples,
    and c is its cross-correlation with the template over the lags of r's
    own full correlation, -(len_t - 1) to len_r - 1; k is the coarse peak,
    the first largest |c| over the full-overlap lags.
    """
    fs = DEFAULT_SAMPLE_RATE
    x = signal.fftconvolve(r.samples, zero_phase_response())
    c = signal.correlate(x, template.samples, mode="full", method="fft")
    c = c[REF_HALF:REF_HALF + len(r.samples) + len(template.samples) - 1]
    t0 = (r.t0 - template.t0) - (len(template.samples) - 1) / fs
    lag0 = len(template.samples) - 1
    k = lag0 + int(np.argmax(np.abs(c[lag0:len(r.samples)])))
    half = min(256, k, len(c) - 1 - k)
    up = signal.resample(c[k - half:k + half + 1], (2 * half + 1) * DEFAULT_UPSAMPLE)
    center, span = half * DEFAULT_UPSAMPLE, DEFAULT_UPSAMPLE
    lo, hi = max(center - 2 * span, 0), min(center + 2 * span + 1, len(up))
    j = lo + int(np.argmax(np.abs(up[lo:hi])))
    return c, t0, k, t0 + (k - half) / fs + j / (fs * DEFAULT_UPSAMPLE)


def kept_lags(r, template):
    """The lags correlate_and_detect keeps, as (first, last), per its contract."""
    len_r, len_t = len(r.samples), len(template.samples)
    after = math.ceil(DEFAULT_RSS_WINDOW * DEFAULT_SAMPLE_RATE) + 2
    return -min(256, len_t - 1), min(len_r - len_t + after, len_r - 1)


def rss_or_error(c):
    try:
        return rss_from_correlation(c)
    except WindowOutOfSupport:
        return "WindowOutOfSupport"


def record_runs_builds(monkeypatch):
    """Patch _Runs.of to list the template length of each _Runs it builds."""
    built = []
    runs_of = receiver._Runs.of.__func__

    def recording_runs_of(cls, t, h, extra):
        built.append(len(t))
        return runs_of(cls, t, h, extra)

    monkeypatch.setattr(receiver._Runs, "of", classmethod(recording_runs_of))
    return built


def record_rfft_shapes(monkeypatch, batches=None):
    """Patch numpy.fft.rfft to list the shape of each transform it makes,
    and to append a copy of each three-dimensional input, a batch of
    correlate_and_detect's windows, to `batches` if given."""
    rfft = np.fft.rfft
    shapes = []

    def recording_rfft(x, n=None, axis=-1, *args, **kwargs):
        shape = list(np.shape(x))
        if n is not None:
            shape[axis] = n
        shapes.append(tuple(shape))
        if batches is not None and np.ndim(x) == 3:
            batches.append(np.array(x))
        return rfft(x, n, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    return shapes


def assert_windows_in_chunks(batches, r, template, blocks):
    """The window batches hold at most max(1, _CHUNK_WINDOWS // blocks)
    runs' (blocks, 2048) windows each, and together every run's windows
    once, in run order:
    run i's block b is r[starts[i] + first + b * step:][:2048], r read as
    0 outside its samples, first the first kept lag and step the lags per
    block."""
    runs = template._runs
    assert runs.n == 2048
    per = max(1, receiver._CHUNK_WINDOWS // blocks)
    assert all(0 < len(b) <= per and b.shape[1:] == (blocks, runs.n) for b in batches)
    first, _ = kept_lags(r, template)
    offsets = runs.starts[:, None] + first + (runs.n - runs.width + 1) * np.arange(blocks)
    reach = runs.n + np.abs(offsets).max()
    padded = np.concatenate([np.zeros(reach), r.samples, np.zeros(reach)])
    expected = padded[reach + offsets[..., None] + np.arange(runs.n)]
    assert len(expected) == 128
    assert np.array_equal(np.concatenate(batches), expected)


def sparse_train(pulses, rng):
    """Random pulses of the given lengths, each after its gap of zeros but the first."""
    parts = []
    for i, (length, gap) in enumerate(pulses):
        if i:
            parts.append(np.zeros(gap))
        parts.append(rng.normal(size=length))
    return np.concatenate(parts)


# Short pulse trains (high PRF) keep each example to a few thousand samples.
SHORT_PRFS = (2e8, 5e8)
# Delays of the noisy default train whose kept lags take 1, 2, 5 and 8
# overlap-save blocks of 1,466 lags each.
DEFAULT_TRAIN_DELAYS = {1: 23.1e-9, 2: 48e-9, 5: 400e-9, 8: 800e-9}


@functools.cache
def short_template(prf, t0):
    """One template object per key, so repeated draws reuse its prepared runs."""
    return Waveform(transmit_template(SignalSpec(prf=prf)).samples, t0=t0)


@pytest.fixture(scope="module")
def spec():
    return SignalSpec()


@pytest.fixture(scope="module")
def template(spec):
    return transmit_template(spec)


class TestGenerateSignal:
    def test_chip_code_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(chips=np.ones(64))
        with pytest.raises(ValueError):
            SignalSpec(chips=np.full(128, 0.5))

    @pytest.mark.parametrize("kwargs, message", [
        ({"prf": 0.0}, "prf must be"), ({"prf": -3e6}, "prf must be"),
        ({"prf": math.nan}, "prf must be"), ({"prf": math.inf}, "prf must be"),
    ])
    def test_spec_validation(self, kwargs, message):
        # rejected when the spec is made, not later in the pulse train or
        # the Butterworth design
        with pytest.raises(ValueError, match=message):
            SignalSpec(**kwargs)

    def test_pulses_take_the_receivers_band(self):
        # the receiver filters at DEFAULT_BAND, so the pulses are shaped to
        # it: a spec names no band of its own, which the filter would cut
        # (pulses at 3.5-5.5 GHz read an RSS 18.6 dB low)
        with pytest.raises(TypeError, match="band"):
            SignalSpec(band=(3.5e9, 5.5e9))
        spec = SignalSpec()
        assert spec.center_frequency == 0.5 * (DEFAULT_BAND[0] + DEFAULT_BAND[1])
        half_bw = 0.5 * (DEFAULT_BAND[1] - DEFAULT_BAND[0])
        assert spec.pulse_sigma == math.sqrt(math.log(10.0)) / (2.0 * math.pi * half_bw)

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
        freqs = np.fft.rfftfreq(len(sig.samples), 1.0 / DEFAULT_SAMPLE_RATE)
        peak = np.max(spectrum)
        above = freqs[spectrum >= 0.1 * peak]
        assert abs(above.min() - 2.3e9) < 0.2e9
        assert abs(above.max() - 3.9e9) < 0.2e9

    @pytest.mark.parametrize("kwargs, name", [
        ({"delay": -5e-9}, "delay"), ({"delay": math.nan}, "delay"),
        ({"delay": math.inf}, "delay"), ({"attenuation_db": math.nan}, "attenuation_db"),
        ({"attenuation_db": math.inf}, "attenuation_db"),
        ({"noise_std": math.nan}, "noise_std"), ({"noise_std": -0.1}, "noise_std"),
    ])
    def test_argument_validation(self, spec, kwargs, name):
        args = {"delay": 10e-9, "attenuation_db": -3.0, "noise_std": 0.1,
                "rng": np.random.default_rng(0), **kwargs}
        with pytest.raises(ValueError, match=name):
            generate_signal(spec, **args)

    def test_noise_requires_rng(self, spec):
        with pytest.raises(ValueError):
            generate_signal(spec, 0.0, 0.0, noise_std=0.1)

    @settings(max_examples=40, deadline=None)
    @given(prf=st.sampled_from(SHORT_PRFS),
           delay=st.floats(0.0, 50e-9),
           attenuation=st.floats(-20.0, 0.0),
           noise_std=st.sampled_from([0.0, 0.01, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_time_axis(self, prf, delay, attenuation, noise_std, seed):
        spec = SignalSpec(prf=prf)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        w = generate_signal(spec, delay, attenuation, noise_std, rng)
        ref = reference_signal(spec, delay, attenuation, noise_std, ref_rng)
        assert np.array_equal(w.samples, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_default_spec_matches_full_time_axis(self, spec):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        w = generate_signal(spec, 17.3e-9, -3.0, noise_std=0.1, rng=rng)
        ref = reference_signal(spec, 17.3e-9, -3.0, noise_std=0.1, rng=ref_rng)
        assert np.array_equal(w.samples, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestWaveform:
    def test_samples_reject_writes(self, spec):
        w = generate_signal(spec, 0.0, 0.0)
        with pytest.raises(ValueError, match="read-only"):
            w.samples[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            Waveform(np.zeros(4)).samples += 1.0

    def test_t0_keyword_only(self):
        # a sample rate passed where it was once taken is not read as t0
        with pytest.raises(TypeError):
            Waveform(np.zeros(4), DEFAULT_SAMPLE_RATE)
        assert Waveform(np.zeros(4), t0=2e-9).t0 == 2e-9


class TestBandpass:
    """The in-package filter design and zero-phase filter against scipy.signal."""

    def test_design_matches_butter(self):
        z, p, k = receiver._butter_bandpass()
        z0, p0, k0 = signal.butter(4, DEFAULT_BAND, btype="bandpass", fs=DEFAULT_SAMPLE_RATE,
                                   output="zpk")
        assert np.allclose(np.sort_complex(z), np.sort_complex(z0), rtol=0, atol=1e-12)
        assert np.allclose(np.sort_complex(p), np.sort_complex(p0), rtol=0, atol=1e-12)
        assert k == pytest.approx(k0, rel=1e-12)

    def test_zero_phase_response_matches_sosfiltfilt(self):
        # h is sosfiltfilt's response to a unit impulse far from the ends
        h = receiver._responses()
        expected = zero_phase_response()
        half = len(h) // 2
        assert len(h) == 2 * half + 1 and half < REF_HALF
        got = np.zeros_like(expected)
        got[REF_HALF - half:REF_HALF + half + 1] = h
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @staticmethod
    def assert_filters(x, t0=0.0):
        """bandpass(x) is h_ref * x over its full support and, where h's
        reach stays inside x, sosfiltfilt(x)."""
        w = receiver.bandpass(Waveform(x, t0=t0))
        h_ref = zero_phase_response()
        half = (len(w.samples) - len(x)) // 2
        assert len(w.samples) == len(x) + 2 * half
        assert w.t0 == t0 - half / DEFAULT_SAMPLE_RATE
        full = signal.fftconvolve(x, h_ref)[REF_HALF - half:REF_HALF + half + len(x)]
        assert np.max(np.abs(w.samples - full)) <= 1e-12 * np.max(np.abs(full))
        if len(x) > 2 * half:
            sos = signal.butter(4, DEFAULT_BAND, btype="bandpass", fs=DEFAULT_SAMPLE_RATE,
                                output="sos")
            expected = signal.sosfiltfilt(sos, x)[half:len(x) - half]
            inside = w.samples[2 * half:len(x)]
            assert np.max(np.abs(inside - expected)) <= 1e-12 * np.max(np.abs(full))

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(1, 600) | st.integers(601, 4000),
           t0=st.floats(-5e-9, 5e-9),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sosfiltfilt(self, length, t0, seed):
        # one path at every length, inputs shorter than the filter's reach
        # included
        x = np.random.default_rng(seed).normal(size=length)
        self.assert_filters(x, t0)

    def test_default_train_length_matches_sosfiltfilt(self, spec):
        # the noisy default train, 529,213 samples
        x = generate_signal(spec, 0.0, 0.0, noise_std=0.1,
                            rng=np.random.default_rng(0)).samples
        assert len(x) == 529_213
        self.assert_filters(x)

    def test_correlation_reads_bandpass(self):
        # c over the kept lags is bandpass(r) correlated with the template
        spec = SignalSpec(prf=SHORT_PRFS[1])
        template = short_template(SHORT_PRFS[1], 0.0)
        r = generate_signal(spec, 7e-9, -3.0, noise_std=0.3, rng=np.random.default_rng(2))
        x = receiver.bandpass(r)
        half = (len(x.samples) - len(r.samples)) // 2
        full = signal.correlate(x.samples, template.samples, mode="full", method="direct")
        first, last = kept_lags(r, template)
        lag0 = len(template.samples) - 1 + half  # index of lag 0 in full
        res = correlate_and_detect(r, template)
        expected = full[lag0 + first:lag0 + last + 1]
        assert np.max(np.abs(res.c.samples - expected)) <= 1e-12 * np.max(np.abs(full))
        assert res.c.t0 == pytest.approx(
            x.t0 - template.t0 + (half + first) / DEFAULT_SAMPLE_RATE, abs=1e-21)


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
        short = Waveform(template.samples[:1000])
        with pytest.raises(TemplateTooLong):
            correlate_and_detect(short, template)

    def test_empty_template(self):
        with pytest.raises(EmptyInput, match="template"):
            correlate_and_detect(Waveform(np.ones(100)), Waveform(np.zeros(0)))

    @pytest.mark.parametrize("length", [4, 27])
    def test_short_input_matches_reference(self, length):
        # inputs far shorter than the filter's reach filter like any other
        rng = np.random.default_rng(length)
        TestAgainstReferencePath.assert_same(
            Waveform(rng.normal(size=length)), Waveform(rng.normal(size=3)))

    def test_shortest_filterable_input(self):
        # one sample against a one-sample template
        rng = np.random.default_rng(6)
        TestAgainstReferencePath.assert_same(
            Waveform(rng.normal(size=1)), Waveform(rng.normal(size=1)))


class TestAgainstReferencePath:
    """correlate_and_detect keeps the plain scipy path's lags and peak.

    The reference is the cross-correlation of h_ref * r with the template
    over all the lags of r's full correlation.  Over the kept lags, which
    hold every sample the upsampling and the RSS readout read, c agrees
    within C_TOL of max|c| (the kept lags come from a transform of another
    length, so not bit for bit).  The coarse peak is at the same lag, times
    agree within TIME_TOL, far below the 10 ps peak grid, and the RSS within
    RSS_TOL, or both raise WindowOutOfSupport.
    """

    C_TOL = 1e-12
    TIME_TOL = 1e-15   # s
    RSS_TOL = 1e-9

    @classmethod
    def assert_same(cls, r, template):
        res = correlate_and_detect(r, template)
        c, t0, k, peak_time = reference_correlate(r, template)
        fs = DEFAULT_SAMPLE_RATE
        first, last = kept_lags(r, template)
        lag0 = len(template.samples) - 1
        kept = c[lag0 + first:lag0 + last + 1]
        assert res.c.samples.shape == kept.shape
        half = min(256, k, len(c) - 1 - k)
        assert lag0 + first <= k - half and k + half <= lag0 + last
        assert np.max(np.abs(res.c.samples - kept)) <= cls.C_TOL * np.max(np.abs(c))
        overlap = res.c.samples[-first:-first + len(r.samples) - lag0]
        assert int(np.argmax(np.abs(overlap))) == k - lag0
        assert abs(res.c.t0 - (t0 + (lag0 + first) / fs)) <= cls.TIME_TOL
        assert abs(res.peak_time - peak_time) <= cls.TIME_TOL
        # the reference reads its RSS from the full correlation
        expected = rss_or_error(CorrelationResult(Waveform(c, t0=t0), peak_time))
        if expected == "WindowOutOfSupport":
            assert rss_or_error(res) == expected
        else:
            assert rss_from_correlation(res) == pytest.approx(expected, rel=cls.RSS_TOL)

    @settings(max_examples=60, deadline=None)
    @given(prf=st.sampled_from(SHORT_PRFS),
           template_t0=st.sampled_from([0.0, 2.5e-9]),
           r_t0=st.floats(-5e-9, 5e-9),
           delay=st.floats(0.0, 50e-9),
           attenuation=st.floats(-20.0, 0.0),
           noise_std=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_short_trains(self, prf, template_t0, r_t0, delay, attenuation, noise_std, seed):
        spec = SignalSpec(prf=prf)
        w = generate_signal(spec, delay, attenuation, noise_std, np.random.default_rng(seed))
        self.assert_same(Waveform(w.samples, t0=r_t0), short_template(prf, template_t0))

    @pytest.mark.parametrize("blocks", sorted(DEFAULT_TRAIN_DELAYS))
    def test_default_train(self, monkeypatch, spec, blocks):
        template = transmit_template(spec)
        w = generate_signal(spec, DEFAULT_TRAIN_DELAYS[blocks], -6.0, noise_std=0.2,
                            rng=np.random.default_rng(3))
        r = Waveform(w.samples, t0=1e-9)
        batches = []
        shapes = record_rfft_shapes(monkeypatch, batches)
        correlate_and_detect(r, template)
        # the 128 pulses' windows, one row per block, in chunks of runs; the
        # runs' spectra are one transform
        assert_windows_in_chunks(batches, r, template, blocks)
        assert [s for s in shapes if len(s) == 2] == [(128, 2048)]
        monkeypatch.undo()
        self.assert_same(r, template)

    @settings(max_examples=60, deadline=None)
    @given(pulses=st.lists(st.tuples(st.integers(1, 60),
                                     st.integers(0, 1200) | st.integers(2000, 6000)),
                           min_size=1, max_size=5),
           extra=st.integers(0, 700),
           flush_last=st.booleans(),
           noise_std=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_sparse_trains(self, pulses, extra, flush_last, noise_std, seed):
        # short gaps, over which the widened pulses meet or lie closer than
        # the kept lags past full overlap (at most 1,134) and are merged,
        # and gaps of more than that plus twice the filter's half-length
        # (268 samples), over which they stay separate runs; the arrival
        # starts at r's first sample or ends at its last
        rng = np.random.default_rng(seed)
        t = sparse_train(pulses, rng)
        samples = rng.normal(0.0, noise_std, size=len(t) + extra)
        offset = extra if flush_last else 0
        samples[offset:offset + len(t)] += t
        self.assert_same(Waveform(samples), Waveform(t))

    def test_template_side_built_once(self, monkeypatch, spec):
        # one _Runs and one spectrum build serve inputs of every length, the
        # 400 ns one of five blocks included
        template = transmit_template(spec)
        built = record_runs_builds(monkeypatch)
        batches = []
        shapes = record_rfft_shapes(monkeypatch, batches)
        for delay, blocks in ((0.0, 1), (23.1e-9, 1), (400e-9, 5), (48e-9, 2),
                              (0.0, 1), (400e-9, 5)):
            r = generate_signal(spec, delay, 0.0)
            correlate_and_detect(r, template)
            assert_windows_in_chunks(batches, r, template, blocks)
            batches.clear()
        assert built == [len(template.samples)]
        # the runs' spectra are the one two-dimensional transform, built at
        # first use, after the first chunk's windows: the windows are
        # (runs, blocks, n) and the upsampling window is 1-D
        assert [s for s in shapes if len(s) == 2] == [(128, 2048)]
        assert len(shapes[0]) == 3 and shapes[1] == (128, 2048)

    def test_input_as_long_as_template_peaks_at_lag_zero(self):
        spec = SignalSpec(prf=SHORT_PRFS[1])
        template = short_template(SHORT_PRFS[1], 0.0)
        w = generate_signal(spec, 0.0, -3.0, noise_std=0.3,
                            rng=np.random.default_rng(11))
        assert len(w.samples) == len(template.samples)
        r = Waveform(w.samples, t0=4e-9)
        res = correlate_and_detect(r, template)
        assert abs(res.peak_time - 4e-9) <= UPSAMPLED_PERIOD
        self.assert_same(r, template)

    def test_template_shorter_than_upsampling_window(self):
        rng = np.random.default_rng(4)
        template = Waveform(rng.normal(size=100), t0=1e-9)
        samples = rng.normal(0.0, 0.1, size=3000)
        samples[1234:1334] += template.samples
        r = Waveform(samples)
        res = correlate_and_detect(r, template)
        # c starts at lag -(len_t - 1), the first lag of the full correlation
        assert res.c.t0 == (r.t0 - template.t0) - 99 / DEFAULT_SAMPLE_RATE
        self.assert_same(r, template)

    def test_default_train_transforms_at_most_4096_points(self, monkeypatch, spec):
        template = transmit_template(spec)
        correlate_and_detect(generate_signal(spec, 23.1e-9, -6.0), template)
        batches = []
        shapes = record_rfft_shapes(monkeypatch, batches)
        r = generate_signal(spec, 23.1e-9, -6.0)
        correlate_and_detect(r, template)
        # batched transforms of the 128 pulses' windows in one block, in
        # chunks of runs, and the upsampling window's
        assert_windows_in_chunks(batches, r, template, 1)
        assert len(shapes) == len(batches) + 1 and len(shapes[-1]) == 1
        assert max(shape[-1] for shape in shapes) <= 4096

    def test_close_pulses_transformed_as_one_run(self, monkeypatch):
        # pulses 5 ns (62.5 samples) apart: one row across the gaps is
        # shorter than a row per pulse
        spec = SignalSpec(prf=SHORT_PRFS[0])
        template = transmit_template(spec)
        correlate_and_detect(generate_signal(spec, 3e-9, 0.0), template)
        shapes = record_rfft_shapes(monkeypatch)
        correlate_and_detect(generate_signal(spec, 3e-9, 0.0), template)
        assert shapes[0][0] == 1


class TestMemoryPerChain:
    """A receive chain holds about one input-sized array at a time.

    tracemalloc sees numpy's buffers.  Measured on the default train at
    12 ns in noise of 0.1, after a warm-up call builds the template's runs
    and their spectra.
    """

    def test_default_train_peaks(self, spec):
        template = transmit_template(spec)
        correlate_and_detect(generate_signal(spec, 12e-9, 0.0), template)
        tracemalloc.start()
        try:
            r = generate_signal(spec, 12e-9, 0.0, noise_std=0.1,
                                rng=np.random.default_rng(0))
            generated = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            correlate_and_detect(r, template)
            correlated = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the noise is drawn into the output, with no second noise array
        assert generated <= 1.25 * r.samples.nbytes
        # the runs' windows are transformed a chunk at a time (4.2 MB at once
        # would be as large as the input)
        assert correlated <= 1.5e6

    def test_eight_block_input_peaks(self, spec):
        # at 800 ns the kept lags take 8 blocks, and a chunk holds as many
        # windows as at one block: 2 runs of 8 (16 runs of 8 read 6.4 MB)
        template = transmit_template(spec)
        delay = DEFAULT_TRAIN_DELAYS[8]
        correlate_and_detect(generate_signal(spec, delay, 0.0), template)
        r = generate_signal(spec, delay, 0.0, noise_std=0.1, rng=np.random.default_rng(0))
        tracemalloc.start()
        try:
            correlate_and_detect(r, template)
            correlated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert correlated <= 1.5e6

    @pytest.mark.parametrize("blocks", [2, 8])
    def test_chunks_sum_as_one_batch(self, monkeypatch, spec, blocks):
        # c sums the runs' products in run order whatever the chunk size:
        # chunks of a few runs give c bit for bit as one batch of all 128
        template = transmit_template(spec)
        r = generate_signal(spec, DEFAULT_TRAIN_DELAYS[blocks], -6.0, noise_std=0.2,
                            rng=np.random.default_rng(3))
        chunked = correlate_and_detect(r, template)
        monkeypatch.setattr(receiver, "_CHUNK_WINDOWS", 128 * blocks)
        batches = []
        record_rfft_shapes(monkeypatch, batches)
        whole = correlate_and_detect(r, template)
        assert [len(b) for b in batches] == [128]
        assert np.array_equal(chunked.c.samples, whole.c.samples)
        assert chunked.peak_time == whole.peak_time


class TestEstimateTdoa:
    def test_identical_results_zero(self, spec, template):
        res = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        assert estimate_tdoa(res, res) == 0.0

    def test_peak_difference(self):
        fake = lambda t: CorrelationResult(Waveform(np.zeros(4)), t)
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
        c = CorrelationResult(Waveform(np.zeros(3000)), 100e-9)
        assert rss_from_correlation(c) == 0.0

    def test_quadratic_scaling(self, spec, template):
        res = correlate_and_detect(generate_signal(spec, 10e-9, 0.0), template)
        doubled = CorrelationResult(
            Waveform(2.0 * res.c.samples, t0=res.c.t0),
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
        # 100 ns of lags: the 70 ns window behind a 90 ns peak runs past them
        c = CorrelationResult(Waveform(np.zeros(1250)), 90e-9)
        with pytest.raises(WindowOutOfSupport):
            rss_from_correlation(c)


def test_default_chips_fixed_and_binary():
    chips = default_chips()
    assert len(chips) == 128
    assert set(np.unique(chips)) <= {-1.0, 1.0}
    assert np.array_equal(chips, default_chips())
