"""Cross-correlation receiver for synthetic UWB pulse trains.

Pipeline per receive chain: bandpass filter, correlate with the known
transmit template, band-limited upsampling around the correlation peak,
peak-time readout.  TDOA is the difference of two peak times; RSS is the
mean squared correlation over a fixed window behind the peak.

The receiver runs at one configuration: every pulse train is shaped to
DEFAULT_BAND and sampled at DEFAULT_SAMPLE_RATE, and every chain filters at
DEFAULT_BAND, upsamples by DEFAULT_UPSAMPLE and reads the RSS over
DEFAULT_RSS_WINDOW.

The filtered signal is h * r: the received signal r, read as 0 outside
its samples, convolved with h, the zero-phase impulse response of an
order-4 Butterworth bandpass.  The filter and the correlation are one
step.  The template correlated with h is kept on the template, built at
its first correlation, over the runs around its non-zero samples (the 128
pulses of the default train), with their spectra at one FFT length.  Each
call correlates those runs' windows of r in fixed-size overlap-save
blocks, transformed in batches of about _CHUNK_WINDOWS windows and summed
in run order.  A chain holds about one input-sized array at a time:
generate_signal draws its noise into its output and adds the pulses at
their samples.

The receiver runs on numpy alone.  The Butterworth design follows
scipy.signal.butter, h is scipy.signal.sosfiltfilt's response to a unit
impulse far from its input's ends, and the peak's band-limited upsampling
follows scipy.signal.resample; each matches its scipy counterpart within
rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import EmptyInput, TemplateTooLong, WindowOutOfSupport

DEFAULT_BAND = (2.3e9, 3.9e9)   # Hz, -10 dB band edges
DEFAULT_PRF = 3e6               # Hz
DEFAULT_SAMPLE_RATE = 12.5e9    # Hz
DEFAULT_UPSAMPLE = 8
DEFAULT_RSS_WINDOW = 70e-9      # s
_CHIP_COUNT = 128
_FILTER_ORDER = 4
_PULSE_SUPPORT_SIGMAS = 6.0
# |h| below this fraction of its peak is dropped, about a twentieth of the
# peak's double-precision rounding
_IMPULSE_CUT = 1e-17
_UPSAMPLE_HALF_WIDTH = 256      # samples upsampled either side of the coarse peak
_FINE_REACH = 2                 # samples either side of it searched for the fine peak
_CHUNK_WINDOWS = 16             # windows transformed at once, whole runs, at least one run


@dataclass
class Waveform:
    """Real signal sampled at DEFAULT_SAMPLE_RATE; samples[i] is taken at
    t0 + i / DEFAULT_SAMPLE_RATE.  t0 is keyword-only.

    samples is stored without a copy and made read-only, so the runs kept
    on it as a correlation template (_Runs) cannot go stale.  Pass a copy
    to keep a writable array.
    """

    samples: np.ndarray
    t0: float = field(default=0.0, kw_only=True)
    _runs: Optional["_Runs"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.samples.flags.writeable = False


def default_chips(seed: int = 20120316) -> np.ndarray:
    """Fixed pseudorandom bi-phase code of 128 chips."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=_CHIP_COUNT)


@dataclass
class SignalSpec:
    chips: np.ndarray = field(default_factory=default_chips)
    prf: float = DEFAULT_PRF

    def __post_init__(self):
        self.chips = np.asarray(self.chips, dtype=float)
        if len(self.chips) != _CHIP_COUNT:
            raise ValueError(f"chip code must have {_CHIP_COUNT} entries")
        if not np.all(np.abs(self.chips) == 1.0):
            raise ValueError("chips must be +-1")
        if not (math.isfinite(self.prf) and self.prf > 0):
            raise ValueError(f"prf must be finite and > 0, got {self.prf}")

    @property
    def center_frequency(self) -> float:
        return 0.5 * (DEFAULT_BAND[0] + DEFAULT_BAND[1])

    @property
    def pulse_sigma(self) -> float:
        """Gaussian envelope sigma matching DEFAULT_BAND's -10 dB edges."""
        half_bw = 0.5 * (DEFAULT_BAND[1] - DEFAULT_BAND[0])
        return math.sqrt(math.log(10.0)) / (2.0 * math.pi * half_bw)


@dataclass
class CorrelationResult:
    """A receive chain's correlation lag window and its sub-sample peak.

    c holds the lags the receiver reads, not the full cross-correlation:
    from `before` lags ahead of lag 0 to `after` lags past the last
    full-overlap lag (see correlate_and_detect).  c.t0 is the time of its
    first sample.
    """

    c: Waveform
    peak_time: float  # s, sub-sample peak location


def generate_signal(spec: SignalSpec, delay: float, attenuation_db: float,
                    noise_std: float = 0.0,
                    rng: Optional[np.random.Generator] = None) -> Waveform:
    """Sampled bi-phase pulse train seen at one receiver.

    Each chip is a Gaussian-modulated sinusoid at the band center; the whole
    train is shifted by `delay` (finite and >= 0, not only whole samples),
    scaled by the dB attenuation, and optionally buried in white noise.

    The noise is drawn into the output itself, as noise_std times standard
    normal draws, which is rng.normal(0, noise_std, n) draw for draw, and
    the pulses are added at their own samples: each sample's pulses are
    summed in chip order, where the pulses of a high-PRF train overlap, and
    then added to its noise.  So the call holds one input-sized array.
    """
    if not (math.isfinite(delay) and delay >= 0):
        raise ValueError(f"delay must be finite and >= 0, got {delay}")
    if not math.isfinite(attenuation_db):
        raise ValueError(f"attenuation_db must be finite, got {attenuation_db}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    if noise_std > 0 and rng is None:
        raise ValueError("noise_std > 0 requires an rng")
    fs = DEFAULT_SAMPLE_RATE
    sigma = spec.pulse_sigma
    fc = spec.center_frequency
    pad = _PULSE_SUPPORT_SIGMAS * sigma
    duration = delay + (len(spec.chips) - 1) / spec.prf + 2.0 * pad
    n = int(math.ceil(duration * fs)) + 1
    amp = 10.0 ** (attenuation_db / 20.0)
    # pulse k covers samples lo[k] + j for j < hi[k] - lo[k]
    tc = delay + pad + np.arange(len(spec.chips)) / spec.prf
    lo = np.maximum(((tc - pad) * fs).astype(int), 0)
    hi = np.minimum(((tc + pad) * fs).astype(int) + 1, n)
    j = np.arange((hi - lo).max())
    idx = lo[:, None] + j
    tk = idx / fs - tc[:, None]
    pulses = (spec.chips[:, None] * amp * np.exp(-0.5 * (tk / sigma) ** 2)
              * np.cos(2.0 * math.pi * fc * tk))
    within = j < (hi - lo)[:, None]
    # summed from 0 in chip order, then added to the noise: the rounding of
    # a zeroed train plus noise, where the pulses of a high-PRF train overlap
    at, where = np.unique(idx[within], return_inverse=True)
    train = np.zeros(len(at))
    np.add.at(train, where, pulses[within])
    if noise_std > 0:
        out = rng.standard_normal(n)
        out *= noise_std
    else:
        out = np.zeros(n)
    out[at] += train
    return Waveform(out)


def transmit_template(spec: SignalSpec) -> Waveform:
    """Ideal (noiseless, zero-delay, unit-amplitude) transmit signal."""
    return generate_signal(spec, delay=0.0, attenuation_db=0.0)


def _butter_bandpass() -> Tuple[np.ndarray, np.ndarray, float]:
    """Zeros, poles and gain of the order-4 digital Butterworth bandpass at
    DEFAULT_BAND, sampled at DEFAULT_SAMPLE_RATE.

    scipy.signal.butter's recipe: the analog lowpass prototype's poles on
    the left half of the unit circle, moved onto the pre-warped band by the
    lowpass-to-bandpass map, then into z by the bilinear map at a
    normalised sample rate of 2.  The band's _FILTER_ORDER zeros at s = 0
    map to z = 1, and the bilinear map puts as many at z = -1.
    """
    n = _FILTER_ORDER
    warped = 4.0 * np.tan(np.pi * np.asarray(DEFAULT_BAND, dtype=float) / DEFAULT_SAMPLE_RATE)
    bw = warped[1] - warped[0]
    p_lp = -np.exp(1j * np.pi * np.arange(1 - n, n, 2) / (2 * n)) * bw / 2
    root = np.sqrt(p_lp ** 2 - warped[0] * warped[1])
    p_s = np.concatenate([p_lp + root, p_lp - root])
    z = np.concatenate([np.ones(n), -np.ones(n)])
    k = bw ** n * float((4.0 ** n / np.prod(4.0 - p_s)).real)
    return z, (4.0 + p_s) / (4.0 - p_s), k


def _causal_response(n: int) -> np.ndarray:
    """The first n samples of the filter's impulse response from rest.

    The filter is a cascade of second-order sections, one per conjugate
    pole pair (p, p*), each with one zero at z = 1 and one at z = -1:
    (1 - z^-2) / (1 - 2 Re(p) z^-1 + |p|^2 z^-2), after the gain.  Each
    runs in transposed direct form II, as scipy's sosfilt does, so the
    response keeps its relative precision down its decaying tail.
    """
    _, p, k = _butter_bandpass()
    g = [k] + [0.0] * (n - 1)
    for q in p[p.imag > 0]:
        a1, a2 = -2.0 * float(q.real), float(abs(q)) ** 2
        s1 = s2 = 0.0
        for i, v in enumerate(g):
            y = v + s1
            s1 = s2 - a1 * y
            s2 = -v - a2 * y
            g[i] = y
    return np.array(g)


@functools.cache
def _responses() -> np.ndarray:
    """The filter's zero-phase impulse response h, h[len(h) // 2] at lag 0.

    A forward and a backward pass of the filter make h[m] = sum_i g[i]
    g[i + |m|], the causal response g (_causal_response) correlated with
    itself; h is cut where it falls below _IMPULSE_CUT of its peak.  g
    decays as rho ** i for the largest pole radius rho, so it is taken to
    4 * reach samples, with rho ** reach at the cut, and reach doubles
    until h's cut lies within reach.
    """
    rho = np.abs(_butter_bandpass()[1]).max()
    reach = math.ceil(math.log(_IMPULSE_CUT) / math.log(rho))
    while True:
        g = _causal_response(4 * reach)
        side = np.correlate(g, g, "full")[len(g) - 1:]
        half = np.flatnonzero(np.abs(side) >= _IMPULSE_CUT * side[0])[-1]
        if half < reach:
            break
        reach *= 2
    h = np.concatenate([side[half:0:-1], side[:half + 1]])
    h.flags.writeable = False
    return h


def bandpass(w: Waveform) -> Waveform:
    """The receiver's filter at DEFAULT_BAND: h * w, w read as 0 outside
    its samples and h the zero-phase response (_responses), so filtering
    adds no group delay.

    The result covers the full support, len(w) + len(h) - 1 samples, and
    starts len(h) // 2 samples before w's first.  correlate_and_detect's c is
    this correlated with the template.
    """
    h = _responses()
    return Waveform(np.convolve(w.samples, h), t0=w.t0 - (len(h) // 2) / DEFAULT_SAMPLE_RATE)


@dataclass(frozen=True)
class _Runs:
    """A template correlated with h, kept over its support.

    u[q] = sum_m h[m] t[q + m - half] is non-zero only within half samples
    of a non-zero template sample.  Each run of non-zero samples is widened
    by half on both sides, and runs fewer than `extra` samples apart are
    merged: every row is transformed with at least `extra` lags past its
    width, so one row across such a gap is shorter than two rows.  Row i
    holds u[starts[i]:starts[i] + len(rows[i])], q counted in template
    samples; width is the longest row.  n, the least power of two
    >= width + extra - 1, is the FFT length of every row and window.
    """

    starts: np.ndarray
    rows: Tuple[np.ndarray, ...]
    width: int
    n: int

    @classmethod
    def of(cls, t: np.ndarray, h: np.ndarray, extra: int) -> "_Runs":
        half = len(h) // 2
        # an all-zero template is one zero run
        nz = np.flatnonzero(t) if t.any() else np.zeros(1, dtype=int)
        # widened runs around neighbouring non-zero samples a < b lie
        # b - a - 1 - 2 * half samples apart
        groups = np.split(nz, np.flatnonzero(np.diff(nz) - 1 - 2 * half >= extra) + 1)
        rows = tuple(np.convolve(t[g[0]:g[-1] + 1], h[::-1]) for g in groups)
        starts = np.array([g[0] - half for g in groups])
        width = max(map(len, rows))
        return cls(starts, rows, width, 1 << (width + extra - 2).bit_length())

    @functools.cached_property
    def spectra(self) -> np.ndarray:
        """Conjugated rfft of each row at length n, one row per run.

        Built at first use, after that call's first chunk of windows is
        transformed: built before the windows, the long-lived array was
        measured to slow later calls.
        """
        buf = np.zeros((len(self.rows), self.n))
        for b, row in zip(buf, self.rows):
            b[:len(row)] = row
        spectra = np.conj(np.fft.rfft(buf))
        spectra.flags.writeable = False
        return spectra


def correlate_and_detect(r: Waveform, template: Waveform) -> CorrelationResult:
    """Filter, correlate with the template, and read the peak time.

    Lag k pairs r.samples[i + k] with template.samples[i].  The arrival lies
    in the full-overlap lags [0, len_r - len_t], where the whole template
    fits in r, so only those lags are searched for the coarse peak; ties
    resolve to the earliest lag.  If r is exactly as long as the template,
    that is lag 0 alone.  Lags count samples: r.t0 and template.t0 only
    shift the times, t0 = (r.t0 - template.t0) - before / fs, fs being
    DEFAULT_SAMPLE_RATE.

    The result keeps lags [-before, (len_r - len_t) + after], capped at the
    last lag of the linear correlation, len_r - 1, where
    before = min(256, len_t - 1) is the half-width of the upsampling window
    and after = ceil(DEFAULT_RSS_WINDOW * fs) + 2 covers the RSS window
    behind a fine peak up to two samples past the coarse peak.

    The filtered input is h * r (bandpass), so c is r correlated with u,
    the template correlated with h, kept over the template's widened
    non-zero runs (_Runs, kept on the template at its first call).  The
    runs are correlated with their windows of r, read as 0 outside its
    samples, by batched rffts at the runs' FFT length n, one per chunk of
    max(1, _CHUNK_WINDOWS // blocks) runs, so a chunk's transient does not
    grow with the block count, against their spectra; the products are
    summed in run order, as one batch of every run would sum them, and
    brought back by one irfft.
    A window yields n - width + 1 lags onto which no other lag aliases
    (overlap-save), so the kept lags take one such block on the default
    train for delays up to about 26 ns.  Over the kept lags c is
    bandpass(r) correlated with the template, within rounding.  The peak is
    refined by band-limited (FFT) resampling, by DEFAULT_UPSAMPLE, of a
    window around the coarse peak.
    """
    len_r, len_t = len(r.samples), len(template.samples)
    if len_t == 0:
        raise EmptyInput("template has no samples")
    if len_t > len_r:
        raise TemplateTooLong(f"template ({len_t}) longer than input ({len_r})")
    fs = DEFAULT_SAMPLE_RATE
    before = min(_UPSAMPLE_HALF_WIDTH, len_t - 1)
    after = math.ceil(DEFAULT_RSS_WINDOW * fs) + _FINE_REACH
    first = -before
    extra = before + min(after, len_t - 1) + 1  # kept lags past the full-overlap ones
    lags = len_r - len_t + extra
    runs = template._runs
    if runs is None:
        runs = template._runs = _Runs.of(template.samples, _responses(), extra)
    n = runs.n
    step = n - runs.width + 1  # lags per block
    blocks = -(-lags // step)

    # run i's block b is r[starts[i] + first + b * step:][:n], read as 0
    # outside r.  The products are summed in run order, as a sum over the
    # first axis of one batch of every run adds them, so c does not depend
    # on the chunk size: the running total goes into each chunk's first run
    # before that chunk's sum.
    x = r.samples
    offsets = runs.starts[:, None] + first + step * np.arange(blocks)
    per = max(1, _CHUNK_WINDOWS // blocks)  # runs per chunk
    total = None
    for i in range(0, len(offsets), per):
        chunk = offsets[i:i + per]
        windows = np.zeros((len(chunk), blocks, n))
        for row, s in zip(windows.reshape(-1, n), chunk.ravel().tolist()):
            lo, hi = max(s, 0), min(s + n, len_r)
            if lo < hi:
                row[lo - s:hi - s] = x[lo:hi]
        spectrum = np.fft.rfft(windows)
        spectrum *= runs.spectra[i:i + per, None]
        if total is not None:
            spectrum[0] += total
        total = spectrum.sum(axis=0)
    c = np.fft.irfft(total, n)[:, :step].ravel()[:lags]
    t0 = (r.t0 - template.t0) - before / fs

    k = before + int(np.argmax(np.abs(c[before:before + len_r - len_t + 1])))
    # Upsample only a window around the coarse peak; the sub-sample maximum
    # lies within one sample of it, so search just the central +-_FINE_REACH
    # samples to keep FFT edge effects out.  The FFT resampling is
    # scipy.signal.resample's, scaled as it scales; seg has an odd length,
    # so no Nyquist bin is split.
    half = min(_UPSAMPLE_HALF_WIDTH, k, len(c) - 1 - k)
    seg = c[k - half:k + half + 1]
    num = len(seg) * DEFAULT_UPSAMPLE
    up = np.fft.irfft(np.fft.rfft(seg) / (len(seg) / num), num)
    center = half * DEFAULT_UPSAMPLE
    reach = _FINE_REACH * DEFAULT_UPSAMPLE
    lo = max(center - reach, 0)
    hi = min(center + reach + 1, len(up))
    j = lo + int(np.argmax(np.abs(up[lo:hi])))
    peak_time = t0 + (k - half) / fs + j / (fs * DEFAULT_UPSAMPLE)
    return CorrelationResult(Waveform(c, t0=t0), peak_time)


def estimate_tdoa(a: CorrelationResult, b: CorrelationResult) -> float:
    """Arrival-time difference of two receive chains, in seconds."""
    return a.peak_time - b.peak_time


def rss_from_correlation(c: CorrelationResult) -> float:
    """Mean squared correlation over [peak, peak + DEFAULT_RSS_WINDOW].

    Trapezoidal approximation of the time-normalized energy integral; the
    window rides on the detected peak, so the value is delay-invariant.
    A window past c's lags raises WindowOutOfSupport.
    """
    fs, window = DEFAULT_SAMPLE_RATE, DEFAULT_RSS_WINDOW
    ia = int(math.ceil((c.peak_time - c.c.t0) * fs - 1e-9))
    ib = int(math.floor((c.peak_time + window - c.c.t0) * fs + 1e-9))
    if ia < 0 or ib >= len(c.c.samples) or ib <= ia:
        raise WindowOutOfSupport(
            f"window [{c.peak_time:.3e}, {c.peak_time + window:.3e}] s "
            f"outside correlation support")
    sq = np.square(c.c.samples[ia:ib + 1])
    return float(np.trapezoid(sq, dx=1.0 / fs) / window)
