"""Recover oscillation frequencies from a single agent's sampled signal.

The signal model is a finite sum of sinusoids y(t) = sum_k A_k sin(w_k t + p_k)
with every w_k = 1 + lambda for some Laplacian eigenvalue lambda, so mapping
detected frequencies back to eigenvalues is a shift by one. The estimator is
configured the way classical finite-time frequency estimators are, by three
values: an upper bound on the number of frequencies, a reconstruction-error
threshold (percent) that drives a success flag, and the window length; the
sampling time is the signal's own. PEAK_THRESHOLD (smallest line amplitude),
ZERO_PAD (peak-search DFT oversampling), STFT_ZERO_PAD (spectrogram
oversampling), GN_TOL (Gauss-Newton stopping step) and LAMBDA_TOL (slack
below 1 rad/s still mapped to lambda = 0) are fixed constants.

Detection pipeline: rectangular-window DFT of the current fit residual,
vectorised local-maximum picking with 3-point quadratic interpolation on log
magnitude, then joint Gauss-Newton refinement of all frequencies (gradient
from the design matrix's own sin/cos columns) with the linear amplitude/phase
subproblem solved by least squares at every iteration.
Re-detecting on the residual rather than the raw spectrum keeps window
sidelobes of strong peaks from masquerading as modes. One least-squares fit,
_fit, serves the greedy loop, the refinement and ls_fit, which takes its
condition number from the singular values lstsq already returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trace

PEAK_THRESHOLD = 0.005
ZERO_PAD = 8
STFT_ZERO_PAD = 4
GN_TOL = 1e-13
LAMBDA_TOL = 0.05


class EstimationError(ValueError):
    """Invalid estimator input or configuration."""


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled scalar signal from one agent."""

    samples: np.ndarray
    f_s: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise EstimationError("signal needs at least 2 samples")
        if self.f_s <= 0:
            raise EstimationError(f"sample rate must be positive, got {self.f_s}")
        if not np.all(np.isfinite(self.samples)):
            raise EstimationError("signal has non-finite samples (nan or inf)")

    @property
    def ts(self) -> float:
        return 1.0 / self.f_s

    @property
    def duration(self) -> float:
        return (len(self.samples) - 1) * self.ts

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        agent: int,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> "SampledSignal":
        """Extract one agent's x series, optionally time-sliced.

        A span that holds no sample raises, naming the span and the trace's
        last time.
        """
        if not 0 <= agent < trace.n:
            raise EstimationError(f"agent {agent} out of range [0, {trace.n})")
        lo, hi = 0, trace.num_samples
        if t_start is not None or t_end is not None:
            t_start = trace.times[0] if t_start is None else t_start
            t_end = trace.times[-1] if t_end is None else t_end
            lo, hi = trace.sample_range(t_start, t_end)
            if lo >= hi:
                raise EstimationError(
                    f"span [{t_start:g}, {t_end:g}] s holds no samples: the trace "
                    f"ends at {trace.times[-1]:g} s"
                )
        return cls(samples=trace.x[lo:hi, agent].copy(), f_s=trace.f_s, t0=float(trace.times[lo]))


@dataclass(frozen=True)
class SpectrogramData:
    """STFT magnitudes: rows are time slices, columns frequency bins.

    resolution is the pre-padding bin width 2*pi/(window_len*Ts).
    """

    time_centers: np.ndarray
    omega: np.ndarray
    magnitude: np.ndarray
    resolution: float


@dataclass(frozen=True)
class FreqEstimatorConfig:
    """Estimator interface: frequency-count bound, error threshold (percent),
    and window length in seconds; the sampling time is the signal's own and
    the other settings are the module constants.

    The window must cover at least one period of the slowest sinusoid
    (2*pi seconds, since the slowest mode oscillates at 1 rad/s).
    """

    n_max: int = 8
    se: float = 1.0
    window: float = 50.0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise EstimationError(f"n_max must be at least 1, got {self.n_max}")
        for name, value in (("error threshold se", self.se), ("window", self.window)):
            if not math.isfinite(value):
                raise EstimationError(f"{name} must be finite, got {value}")
        if self.se <= 0:
            raise EstimationError(f"error threshold must be positive, got {self.se}")
        if self.window < 2.0 * math.pi - 1e-9:
            raise EstimationError(
                f"window {self.window:g} s is shorter than the slowest period "
                f"2*pi ~ {2 * math.pi:.4f} s"
            )


@dataclass(frozen=True)
class SpectrumEstimate:
    """Estimator output: frequencies, their sinusoid parameters, the mapped
    eigenvalue estimates, and the reconstruction-quality flag."""

    n: int
    omega: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray
    lambdas: np.ndarray
    flag: bool
    residual_percent: float

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "omega": [float(w) for w in self.omega],
            "lambda": [float(v) for v in self.lambdas],
            "amplitude": [float(a) for a in self.amplitudes],
            "phase": [float(p) for p in self.phases],
            "flag": bool(self.flag),
            "residual_percent": float(self.residual_percent),
        }


def _window_values(name: str, length: int) -> np.ndarray:
    if name == "rect":
        return np.ones(length)
    if name == "hann":
        return np.hanning(length)
    raise EstimationError(f"unknown window {name!r} (expected 'rect' or 'hann')")


def _amplitude_spectrum(
    samples: np.ndarray, ts: float, zero_pad_factor: int, window: str
) -> tuple[np.ndarray, np.ndarray, float]:
    """One-sided amplitude-calibrated DFT magnitude along the last axis.

    samples is one window or a (frames, window_len) stack of them. Returns
    the angular-frequency grid (rad/s), the magnitudes, and the pre-padding
    bin width 2*pi/(N*Ts) (the grid is zero_pad_factor times finer).
    Normalized by the window's coherent gain so a unit-amplitude sinusoid at
    a bin center reads ~1; the zero and Nyquist bins carry no doubling.
    """
    n = samples.shape[-1]
    w = _window_values(window, n)
    gain = w.sum()
    nfft = n * int(zero_pad_factor)
    if nfft % 2:
        nfft += 1
    spec = np.abs(np.fft.rfft(samples * w, nfft))
    mag = spec * (2.0 / gain)
    mag[..., 0] = spec[..., 0] / gain
    mag[..., -1] = spec[..., -1] / gain  # Nyquist bin (nfft even)
    omega = 2.0 * math.pi * np.fft.rfftfreq(nfft, d=ts)
    return omega, mag, 2.0 * math.pi / (n * ts)


def spectrogram(
    sig: SampledSignal, window_len: int, hop: int, window: str = "hann"
) -> SpectrogramData:
    """Short-time Fourier magnitudes over sliding windows."""
    n = len(sig.samples)
    if window_len > n:
        raise EstimationError(f"window of {window_len} samples exceeds signal length {n}")
    if window_len < 4:
        raise EstimationError(f"window_len must be at least 4, got {window_len}")
    if hop < 1:
        raise EstimationError(f"hop must be at least 1, got {hop}")
    starts = np.arange(0, n - window_len + 1, hop)
    frames = sig.samples[starts[:, None] + np.arange(window_len)]
    omega, mag, res = _amplitude_spectrum(frames, sig.ts, STFT_ZERO_PAD, window)
    centers = sig.t0 + (starts + (window_len - 1) / 2.0) * sig.ts
    return SpectrogramData(time_centers=centers, omega=omega, magnitude=mag, resolution=res)


def detect_peaks(
    omega: np.ndarray,
    mag: np.ndarray,
    amplitude_threshold: float,
    min_separation: float,
) -> list[tuple[float, float]]:
    """Local maxima of the spectrum mag on the grid omega above the
    threshold, sub-bin refined.

    Each local maximum is refined by a 3-point parabola on log magnitude.
    Peaks closer than min_separation merge keeping the larger; amplitude ties
    keep the lower frequency. Returns (omega, amplitude) pairs sorted by
    frequency.
    """
    grid_step = omega[1] - omega[0] if len(omega) > 1 else 0.0
    mid_mag = mag[1:-1]
    ks = np.flatnonzero(
        (mid_mag > mag[:-2]) & (mid_mag >= mag[2:]) & (mid_mag > amplitude_threshold)
    ) + 1
    # Zero neighbours give log(0) = -inf; those peaks take the bin itself.
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, mid, hi = np.log(mag[ks - 1]), np.log(mag[ks]), np.log(mag[ks + 1])
        denom = lo - 2.0 * mid + hi
        shift = np.where(denom != 0.0, 0.5 * (lo - hi) / denom, 0.0)
        shift = np.clip(shift, -0.5, 0.5)
        interp = (mag[ks - 1] > 0.0) & (mag[ks + 1] > 0.0)
        peak_omega = np.where(interp, omega[ks] + shift * grid_step, omega[ks])
        peak_amp = np.where(interp, np.exp(mid - 0.25 * (lo - hi) * shift), mag[ks])

    merged: list[tuple[float, float]] = []
    for w, amp in zip(peak_omega.tolist(), peak_amp.tolist()):  # ascending omega
        if merged and w - merged[-1][0] < min_separation:
            if amp > merged[-1][1]:
                merged[-1] = (w, amp)
        else:
            merged.append((w, amp))
    return merged


def _fit(
    y: np.ndarray, t: np.ndarray, omegas
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares sin/cos fit of y at fixed frequencies.

    Returns (design, theta, resid, sv): the design matrix with columns
    sin(w_k t), cos(w_k t) per frequency, the coefficients, the residual
    y - design @ theta, and the design's singular values from lstsq.
    """
    design = np.empty((len(t), 2 * len(omegas)))
    for k, w in enumerate(omegas):
        design[:, 2 * k] = np.sin(w * t)
        design[:, 2 * k + 1] = np.cos(w * t)
    theta, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    return design, theta, y - design @ theta, sv


def _closest_pair(omegas: np.ndarray) -> tuple[float, float]:
    order = np.sort(omegas)
    gaps = np.diff(order)
    k = int(np.argmin(gaps))
    return float(order[k]), float(order[k + 1])


def ls_fit(
    sig: SampledSignal, omegas
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares sinusoid parameters at fixed frequencies.

    Fits y(t) ~ sum_k A_k sin(w_k t + p_k) over the whole signal (time
    measured from the first sample) and returns (amplitudes, phases,
    residual_percent) with residual_percent = 100 * |y - y_hat| / |y|.
    Near-duplicate frequencies make the design ill-conditioned and raise,
    naming the offending pair.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if len(omegas) == 0:
        raise EstimationError("frequency list is empty")
    y = sig.samples
    t = np.arange(len(y)) * sig.ts
    if len(omegas) > 1:
        a, b = _closest_pair(omegas)
        # A pair drifting apart by less than ~0.01 rad across the whole
        # window is indistinguishable: amplitudes would split arbitrarily.
        if (b - a) * t[-1] < 1e-2:
            raise EstimationError(
                f"near-duplicate frequencies {a:.8g} and {b:.8g} are "
                f"indistinguishable over a {t[-1]:.3g} s window"
            )
    _, theta, resid, sv = _fit(y, t, omegas)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e10:
        a, b = _closest_pair(omegas) if len(omegas) > 1 else (omegas[0], omegas[0])
        raise EstimationError(
            f"ill-conditioned fit (condition {sv[0] / max(sv[-1], 1e-300):.2e}); "
            f"closest frequency pair: {a:.6g} and {b:.6g}"
        )
    norm_y = float(np.linalg.norm(y))
    residual_percent = 100.0 * float(np.linalg.norm(resid)) / norm_y if norm_y > 0 else 0.0
    amps = np.hypot(theta[0::2], theta[1::2])
    phases = np.arctan2(theta[1::2], theta[0::2])
    return amps, phases, residual_percent


def refine_frequencies(
    samples: np.ndarray,
    ts: float,
    omegas,
    omega_min: float,
    omega_max: float,
    max_iter: int = 60,
) -> np.ndarray:
    """Jointly polish frequencies by damped Gauss-Newton within
    [omega_min, omega_max].

    The amplitude/phase subproblem is linear and re-solved exactly at every
    iteration; the frequency step comes from the joint linearization and is
    clipped to half a DFT bin so the iteration stays inside the attraction
    basin of the initial peaks. It stops after max_iter iterations or once
    no frequency moves by GN_TOL.
    """
    omegas = np.array(np.atleast_1d(omegas), dtype=float)
    y = np.asarray(samples, dtype=float)
    t = np.arange(len(y)) * ts
    max_step = 0.5 * 2.0 * math.pi / (len(y) * ts)
    for _ in range(max_iter):
        design, theta, resid, _ = _fit(y, t, omegas)
        # d/dw of alpha sin(w t) + beta cos(w t), from the design's own columns.
        grad = t[:, None] * (theta[0::2] * design[:, 1::2] - theta[1::2] * design[:, 0::2])
        joint = np.hstack([design, grad])
        step, *_ = np.linalg.lstsq(joint, resid, rcond=None)
        delta = np.clip(step[2 * len(omegas) :], -max_step, max_step)
        omegas = np.clip(np.abs(omegas + delta), omega_min, omega_max)
        if np.max(np.abs(delta)) < GN_TOL:
            break
    return omegas


def freqs_to_eigenvalues(omegas) -> np.ndarray:
    """Map detected frequencies to eigenvalue estimates by the unit shift.

    Values in [-LAMBDA_TOL, 0) clamp to zero; anything below -LAMBDA_TOL
    corresponds to an oscillation slower than the structural minimum
    (1 rad/s) and is rejected as a spurious peak.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(np.diff(omegas) < 0):
        raise EstimationError("frequencies must be sorted ascending")
    lams = omegas - 1.0
    if np.any(lams < -LAMBDA_TOL):
        worst = float(omegas[np.argmin(lams)])
        raise EstimationError(
            f"spurious peak at omega={worst:.6g} rad/s: below the structural "
            f"minimum frequency 1 rad/s (tolerance {LAMBDA_TOL:g})"
        )
    return np.where(lams < 0.0, 0.0, lams)


def estimate_frequencies(
    sig: SampledSignal, cfg: FreqEstimatorConfig
) -> SpectrumEstimate:
    """Finite-time frequency estimation over exactly one window.

    Greedy detection: repeatedly take the strongest residual-spectrum peak
    (amplitude ties break toward the lower frequency), refine all frequencies
    jointly, and stop at the frequency-count bound, when the residual is
    explained, or when no candidate clears the threshold. Components whose
    fitted amplitude falls below the peak threshold are pruned. Candidates
    below 1 - LAMBDA_TOL rad/s are structurally impossible and never enter.
    The success flag is true exactly when the reconstruction residual
    (percent) is within the configured threshold; with no detected
    frequencies the flag is false and the residual reads 100 percent.
    """
    n_win = int(round(cfg.window * sig.f_s))
    if n_win > len(sig.samples):
        raise EstimationError(
            f"window {cfg.window:g} s needs {n_win} samples, signal has "
            f"{len(sig.samples)}"
        )
    y = sig.samples[:n_win]
    ts = sig.ts
    norm_y = float(np.linalg.norm(y))
    t = np.arange(n_win) * ts
    omega_min = 1.0 - LAMBDA_TOL
    omega_max = 0.999 * math.pi / ts
    merge_gap = 2e-2 / ((n_win - 1) * ts)  # ls_fit's distinguishability limit

    def empty_estimate() -> SpectrumEstimate:
        none = np.empty(0)
        return SpectrumEstimate(
            n=0, omega=none, amplitudes=none, phases=none, lambdas=none,
            flag=False, residual_percent=100.0 if norm_y > 0 else 0.0,
        )

    omegas: list[float] = []
    rejected: list[float] = []
    for _ in range(cfg.n_max):
        resid = _fit(y, t, np.array(omegas))[2] if omegas else y
        if norm_y == 0.0 or float(np.linalg.norm(resid)) / norm_y < 1e-10:
            break
        omega, mag, resolution = _amplitude_spectrum(resid, ts, ZERO_PAD, "rect")
        candidates = [
            c for c in detect_peaks(omega, mag, PEAK_THRESHOLD, 2.0 * resolution)
            if omega_min <= c[0] <= omega_max
            and all(abs(c[0] - r) > merge_gap for r in rejected)
        ]
        if not candidates:
            break
        best = max(candidates, key=lambda c: (c[1], -c[0]))
        omegas.append(best[0])
        refined = refine_frequencies(
            y, ts, omegas, omega_min=omega_min, omega_max=omega_max
        )
        refined = np.sort(refined)
        if len(refined) > 1 and np.min(np.diff(refined)) < merge_gap:
            # New candidate collapsed onto an existing frequency: nothing
            # left for it to explain there; keep looking elsewhere.
            omegas.pop()
            rejected.append(best[0])
            continue
        omegas = [float(w) for w in refined]

    omegas.sort()
    if not omegas:
        return empty_estimate()

    window_sig = SampledSignal(samples=y, f_s=sig.f_s, t0=sig.t0)
    amps, phases, residual = ls_fit(window_sig, omegas)
    keep = amps >= PEAK_THRESHOLD
    if not np.any(keep):
        return empty_estimate()
    if not np.all(keep):
        omegas = [w for w, k in zip(omegas, keep) if k]
        amps, phases, residual = ls_fit(window_sig, omegas)
    omega_arr = np.asarray(omegas)
    return SpectrumEstimate(
        n=len(omegas),
        omega=omega_arr,
        amplitudes=amps,
        phases=phases,
        lambdas=freqs_to_eigenvalues(omega_arr),
        flag=bool(residual <= cfg.se),
        residual_percent=residual,
    )
