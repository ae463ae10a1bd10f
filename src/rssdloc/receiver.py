"""Cross-correlation receiver for synthetic UWB pulse trains.

Pipeline per receive chain: bandpass filter, correlate with the known
transmit template, band-limited upsampling around the correlation peak,
peak-time readout.  TDOA is the difference of two peak times; RSS is the
mean squared correlation over a fixed window behind the peak.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import AliasingSampleRate, EmptyInput, TemplateTooLong, WindowOutOfSupport

DEFAULT_BAND = (2.3e9, 3.9e9)   # Hz, -10 dB band edges
DEFAULT_PRF = 3e6               # Hz
DEFAULT_SAMPLE_RATE = 12.5e9    # Hz
DEFAULT_UPSAMPLE = 8
DEFAULT_RSS_WINDOW = 70e-9      # s
_CHIP_COUNT = 128
_FILTER_ORDER = 4
_PULSE_SUPPORT_SIGMAS = 6.0
_SPECTRA_PER_WAVEFORM = 4       # FFT lengths whose template spectrum is kept
_UPSAMPLE_HALF_WIDTH = 256      # samples upsampled either side of the coarse peak
_FINE_REACH = 2                 # samples either side of it searched for the fine peak


@dataclass
class Waveform:
    """Uniformly sampled real signal; samples[i] is taken at t0 + i / sample_rate.

    samples is stored without a copy and made read-only, so a spectrum
    memoised for it cannot go stale.  Pass a copy to keep a writable array.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    _spectra: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be > 0")
        self.samples = np.asarray(self.samples, dtype=float)
        self.samples.flags.writeable = False

    def _reversed_spectrum(self, n: int) -> np.ndarray:
        """rfft of the time-reversed samples at FFT length n, memoised per n."""
        spectrum = self._spectra.get(n)
        if spectrum is None:
            from scipy import fft
            if len(self._spectra) >= _SPECTRA_PER_WAVEFORM:
                del self._spectra[next(iter(self._spectra))]
            spectrum = self._spectra[n] = fft.rfft(self.samples[::-1], n)
            spectrum.flags.writeable = False
        return spectrum


def default_chips(seed: int = 20120316) -> np.ndarray:
    """Fixed pseudorandom bi-phase code of 128 chips."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=_CHIP_COUNT)


@dataclass
class SignalSpec:
    chips: np.ndarray = field(default_factory=default_chips)
    prf: float = DEFAULT_PRF
    band: Tuple[float, float] = DEFAULT_BAND

    def __post_init__(self):
        self.chips = np.asarray(self.chips, dtype=float)
        if len(self.chips) != _CHIP_COUNT:
            raise ValueError(f"chip code must have {_CHIP_COUNT} entries")
        if not np.all(np.abs(self.chips) == 1.0):
            raise ValueError("chips must be +-1")
        if not (math.isfinite(self.prf) and self.prf > 0):
            raise ValueError(f"prf must be finite and > 0, got {self.prf}")
        if not 0 < self.band[0] < self.band[1]:
            raise ValueError(f"band must satisfy 0 < f_low < f_high, got {self.band}")

    @property
    def center_frequency(self) -> float:
        return 0.5 * (self.band[0] + self.band[1])

    @property
    def pulse_sigma(self) -> float:
        """Gaussian envelope sigma matching the -10 dB band edges."""
        half_bw = 0.5 * (self.band[1] - self.band[0])
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
                    sample_rate: float = DEFAULT_SAMPLE_RATE,
                    noise_std: float = 0.0,
                    rng: Optional[np.random.Generator] = None) -> Waveform:
    """Sampled bi-phase pulse train seen at one receiver.

    Each chip is a Gaussian-modulated sinusoid at the band center; the whole
    train is shifted by `delay` (any real value, not only whole samples),
    scaled by the dB attenuation, and optionally buried in white noise.
    """
    if sample_rate < 2.0 * spec.band[1]:
        raise AliasingSampleRate(
            f"sample_rate {sample_rate:.3g} Hz below Nyquist for "
            f"{spec.band[1]:.3g} Hz")
    sigma = spec.pulse_sigma
    fc = spec.center_frequency
    pad = _PULSE_SUPPORT_SIGMAS * sigma
    duration = delay + (len(spec.chips) - 1) / spec.prf + 2.0 * pad
    n = int(math.ceil(duration * sample_rate)) + 1
    out = np.zeros(n)
    amp = 10.0 ** (attenuation_db / 20.0)
    for k, chip in enumerate(spec.chips):
        tc = delay + pad + k / spec.prf
        lo = max(int((tc - pad) * sample_rate), 0)
        hi = min(int((tc + pad) * sample_rate) + 1, n)
        tk = np.arange(lo, hi) / sample_rate - tc
        out[lo:hi] += (chip * amp * np.exp(-0.5 * (tk / sigma) ** 2)
                       * np.cos(2.0 * math.pi * fc * tk))
    if noise_std > 0:
        if rng is None:
            raise ValueError("noise_std > 0 requires an rng")
        out += rng.normal(0.0, noise_std, size=n)
    return Waveform(out, sample_rate, 0.0)


def transmit_template(spec: SignalSpec,
                      sample_rate: float = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Ideal (noiseless, zero-delay, unit-amplitude) transmit signal."""
    return generate_signal(spec, delay=0.0, attenuation_db=0.0,
                           sample_rate=sample_rate)


@functools.lru_cache(maxsize=8)
def _bandpass_sos(band: Tuple[float, float], sample_rate: float) -> np.ndarray:
    # left writable: scipy's sosfilt rejects a read-only sos array
    from scipy import signal  # imported on use: it dominates the package import
    return signal.butter(_FILTER_ORDER, band, btype="bandpass",
                         fs=sample_rate, output="sos")


def bandpass(w: Waveform, band: Tuple[float, float] = DEFAULT_BAND) -> Waveform:
    """Zero-phase Butterworth bandpass, so filtering adds no group delay."""
    from scipy import signal
    sos = _bandpass_sos(tuple(band), w.sample_rate)
    return Waveform(signal.sosfiltfilt(sos, w.samples), w.sample_rate, w.t0)


def _first_abs_argmax(c: np.ndarray) -> int:
    """np.argmax(np.abs(c)), the first index of the largest |c|, with no |c| array."""
    kmax, kmin = int(c.argmax()), int(c.argmin())
    return kmin if (-c[kmin], -kmin) > (c[kmax], -kmax) else kmax


def correlate_and_detect(r: Waveform, template: Waveform,
                         upsample_factor: int = DEFAULT_UPSAMPLE,
                         band: Optional[Tuple[float, float]] = DEFAULT_BAND
                         ) -> CorrelationResult:
    """Filter, correlate with the template, and read the peak time.

    Lag k pairs r.samples[i + k] with template.samples[i].  The arrival lies
    in the full-overlap lags [0, len_r - len_t], where the whole template
    fits in r, so only those lags are searched for the coarse peak; ties
    resolve to the earliest lag.  If r is exactly as long as the template,
    that is lag 0 alone.  Lags count samples: r.t0 and template.t0 only
    shift the times, t0 = (r.t0 - template.t0) - before / fs.

    The result keeps lags [-before, (len_r - len_t) + after], capped at the
    last lag of the linear correlation, len_r - 1, where
    before = min(256, len_t - 1) is the half-width of the upsampling window
    and after = ceil(DEFAULT_RSS_WINDOW * fs) + 2 covers the default RSS
    window behind a fine peak up to two samples past the coarse peak.  A
    longer window that runs past them raises WindowOutOfSupport in
    rss_from_correlation.

    Those lags are cut from a circular correlation,
    irfft(rfft(r, n) * rfft(reversed template, n), n) with the template's
    spectrum memoised on the template.  At n >= len_r + max(before, after)
    no other lag aliases onto them (overlap-save), so for a template about
    as long as r, n is about half the len_r + len_t - 1 of the full
    correlation.  The peak is refined by
    band-limited (FFT) resampling of a window around the coarse peak.
    """
    from scipy import fft, signal

    len_r, len_t = len(r.samples), len(template.samples)
    if upsample_factor < 1:
        raise ValueError("upsample_factor must be >= 1")
    if len_t == 0:
        raise EmptyInput("template has no samples")
    if len_t > len_r:
        raise TemplateTooLong(f"template ({len_t}) longer than input ({len_r})")
    if r.sample_rate != template.sample_rate:
        raise ValueError("input and template sample rates differ")
    fs = r.sample_rate
    before = min(_UPSAMPLE_HALF_WIDTH, len_t - 1)
    after = math.ceil(DEFAULT_RSS_WINDOW * fs) + _FINE_REACH
    filtered = bandpass(r, band) if band is not None else r
    n = fft.next_fast_len(len_r + max(before, after), True)
    spectrum = fft.rfft(filtered.samples, n)
    spectrum *= template._reversed_spectrum(n)
    # circular index len_t - 1 + k holds lag k; the copy lets the n-point output go
    first = len_t - 1 - before
    c = fft.irfft(spectrum, n)[first:len_r + min(after, len_t - 1)].copy()
    t0 = (r.t0 - template.t0) - before / fs
    corr = Waveform(c, fs, t0)

    k = before + _first_abs_argmax(c[before:before + len_r - len_t + 1])
    if upsample_factor == 1:
        return CorrelationResult(corr, t0 + k / fs)

    # Upsample only a window around the coarse peak; the sub-sample maximum
    # lies within one sample of it, so search just the central +-_FINE_REACH
    # samples to keep FFT edge effects out.
    half = min(_UPSAMPLE_HALF_WIDTH, k, len(c) - 1 - k)
    seg = c[k - half:k + half + 1]
    up = signal.resample(seg, len(seg) * upsample_factor)
    center = half * upsample_factor
    reach = _FINE_REACH * upsample_factor
    lo = max(center - reach, 0)
    hi = min(center + reach + 1, len(up))
    j = lo + int(np.argmax(np.abs(up[lo:hi])))
    peak_time = t0 + (k - half) / fs + j / (fs * upsample_factor)
    return CorrelationResult(corr, peak_time)


def estimate_tdoa(a: CorrelationResult, b: CorrelationResult) -> float:
    """Arrival-time difference of two receive chains, in seconds."""
    return a.peak_time - b.peak_time


def rss_from_correlation(c: CorrelationResult,
                         window: float = DEFAULT_RSS_WINDOW) -> float:
    """Mean squared correlation over [peak, peak + window].

    Trapezoidal approximation of the time-normalized energy integral; the
    window rides on the detected peak, so the value is delay-invariant.
    """
    if window <= 0:
        raise WindowOutOfSupport("window must be > 0")
    fs = c.c.sample_rate
    ia = int(math.ceil((c.peak_time - c.c.t0) * fs - 1e-9))
    ib = int(math.floor((c.peak_time + window - c.c.t0) * fs + 1e-9))
    if ia < 0 or ib >= len(c.c.samples) or ib <= ia:
        raise WindowOutOfSupport(
            f"window [{c.peak_time:.3e}, {c.peak_time + window:.3e}] s "
            f"outside correlation support")
    sq = np.square(c.c.samples[ia:ib + 1])
    return float(np.trapezoid(sq, dx=1.0 / fs) / window)
