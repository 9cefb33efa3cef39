"""Recover oscillation frequencies from a single agent's sampled signal.

The signal model is a finite sum of sinusoids y(t) = sum_k A_k sin(w_k t + p_k)
with every w_k = 1 + lambda for some Laplacian eigenvalue lambda, so mapping
detected frequencies back to eigenvalues is a shift by one. The estimator is
configured the way classical finite-time frequency estimators are: sampling
time, an upper bound on the number of frequencies, a reconstruction-error
threshold (percent) that drives a success flag, and the window length.

Detection pipeline: rectangular-window DFT of the current fit residual,
vectorised local-maximum picking with 3-point quadratic interpolation on log
magnitude, then joint Gauss-Newton refinement of all frequencies (gradient
from the design matrix's own sin/cos columns) with the linear amplitude/phase
subproblem solved by least squares at every iteration.
Re-detecting on the residual rather than the raw spectrum keeps window
sidelobes of strong peaks from masquerading as modes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_SAMPLE_RATE, Trace


class EstimationError(ValueError):
    """Invalid estimator input or configuration."""


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled scalar signal from one agent."""

    samples: np.ndarray
    f_s: float
    agent: int = 0
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
        component: str = "x",
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> "SampledSignal":
        """Extract one agent's x or z series, optionally time-sliced."""
        if not 0 <= agent < trace.n:
            raise EstimationError(f"agent {agent} out of range [0, {trace.n})")
        if component not in ("x", "z"):
            raise EstimationError(f"component must be 'x' or 'z', got {component!r}")
        data = trace.x if component == "x" else trace.z
        lo, hi = 0, trace.num_samples
        if t_start is not None or t_end is not None:
            lo, hi = trace.sample_range(
                trace.times[0] if t_start is None else t_start,
                trace.times[-1] if t_end is None else t_end,
            )
        return cls(
            samples=data[lo:hi, agent].copy(),
            f_s=trace.f_s,
            agent=agent,
            t0=float(trace.times[lo]),
        )


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum on an angular-frequency grid (rad/s).

    resolution is the pre-padding DFT bin width 2*pi/(N*Ts); the grid itself
    may be finer when the transform was zero-padded.
    """

    omega: np.ndarray
    magnitude: np.ndarray
    resolution: float


@dataclass(frozen=True)
class SpectrogramData:
    """STFT magnitudes: rows are time slices, columns frequency bins."""

    time_centers: np.ndarray
    omega: np.ndarray
    magnitude: np.ndarray
    window_len: int
    hop: int
    threshold: float
    resolution: float

    def mask(self) -> np.ndarray:
        """Cells above the display threshold (plotting parity)."""
        return self.magnitude > self.threshold


@dataclass(frozen=True)
class FreqEstimatorConfig:
    """Estimator interface: sampling time, frequency-count bound, error
    threshold (percent), and window length in seconds.

    The window must cover at least one period of the slowest sinusoid
    (2*pi seconds, since the slowest mode oscillates at 1 rad/s).
    """

    ts: float = 1.0 / DEFAULT_SAMPLE_RATE
    n_max: int = 8
    se: float = 1.0
    window: float = 50.0
    peak_threshold: float = 0.005
    zero_pad: int = 8
    lambda_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.ts <= 0:
            raise EstimationError(f"sampling time must be positive, got {self.ts}")
        if self.n_max < 1:
            raise EstimationError(f"n_max must be at least 1, got {self.n_max}")
        if self.se <= 0:
            raise EstimationError(f"error threshold must be positive, got {self.se}")
        if self.window < 2.0 * math.pi - 1e-9:
            raise EstimationError(
                f"window {self.window:g} s is shorter than the slowest period "
                f"2*pi ~ {2 * math.pi:.4f} s"
            )
        if self.peak_threshold <= 0 or self.zero_pad < 1 or self.lambda_tol <= 0:
            raise EstimationError("peak_threshold, zero_pad, lambda_tol must be positive")


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

    samples is one window or a (frames, window_len) stack of them.
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


def dft_magnitude(
    sig: SampledSignal, zero_pad_factor: int = 1, window: str = "rect"
) -> Spectrum:
    """Amplitude spectrum of the signal (optionally windowed / zero-padded)."""
    if zero_pad_factor < 1:
        raise EstimationError(f"zero_pad_factor must be >= 1, got {zero_pad_factor}")
    omega, mag, res = _amplitude_spectrum(sig.samples, sig.ts, zero_pad_factor, window)
    return Spectrum(omega=omega, magnitude=mag, resolution=res)


def spectrogram(
    sig: SampledSignal,
    window_len: int,
    hop: int,
    window: str = "hann",
    threshold: float = 0.1,
    zero_pad_factor: int = 4,
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
    omega, mag, res = _amplitude_spectrum(frames, sig.ts, zero_pad_factor, window)
    centers = sig.t0 + (starts + (window_len - 1) / 2.0) * sig.ts
    return SpectrogramData(
        time_centers=centers,
        omega=omega,
        magnitude=mag,
        window_len=window_len,
        hop=hop,
        threshold=threshold,
        resolution=res,
    )


def detect_peaks(
    spec: Spectrum,
    amplitude_threshold: float,
    min_separation: float | None = None,
) -> list[tuple[float, float]]:
    """Local spectral maxima above the threshold, sub-bin refined.

    Each local maximum is refined by a 3-point parabola on log magnitude.
    Peaks closer than min_separation (default: two pre-padding DFT bins)
    merge keeping the larger; amplitude ties keep the lower frequency.
    Returns (omega, amplitude) pairs sorted by frequency.
    """
    if min_separation is None:
        min_separation = 2.0 * spec.resolution
    mag = spec.magnitude
    grid_step = spec.omega[1] - spec.omega[0] if len(spec.omega) > 1 else 0.0
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
        peak_omega = np.where(interp, spec.omega[ks] + shift * grid_step, spec.omega[ks])
        peak_amp = np.where(interp, np.exp(mid - 0.25 * (lo - hi) * shift), mag[ks])

    merged: list[tuple[float, float]] = []
    for omega, amp in zip(peak_omega.tolist(), peak_amp.tolist()):  # ascending omega
        if merged and omega - merged[-1][0] < min_separation:
            if amp > merged[-1][1]:
                merged[-1] = (omega, amp)
        else:
            merged.append((omega, amp))
    return merged


def _design_matrix(omegas: np.ndarray, t: np.ndarray) -> np.ndarray:
    cols = np.empty((len(t), 2 * len(omegas)))
    for k, w in enumerate(omegas):
        cols[:, 2 * k] = np.sin(w * t)
        cols[:, 2 * k + 1] = np.cos(w * t)
    return cols


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
    design = _design_matrix(omegas, t)
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e10:
        a, b = _closest_pair(omegas) if len(omegas) > 1 else (omegas[0], omegas[0])
        raise EstimationError(
            f"ill-conditioned fit (condition {sv[0] / max(sv[-1], 1e-300):.2e}); "
            f"closest frequency pair: {a:.6g} and {b:.6g}"
        )
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ theta
    norm_y = float(np.linalg.norm(y))
    residual_percent = 100.0 * float(np.linalg.norm(resid)) / norm_y if norm_y > 0 else 0.0
    amps = np.hypot(theta[0::2], theta[1::2])
    phases = np.arctan2(theta[1::2], theta[0::2])
    return amps, phases, residual_percent


def refine_frequencies(
    samples: np.ndarray,
    ts: float,
    omegas,
    omega_min: float = 1e-6,
    omega_max: float | None = None,
    max_iter: int = 60,
    tol: float = 1e-13,
) -> np.ndarray:
    """Jointly polish frequencies by damped Gauss-Newton.

    The amplitude/phase subproblem is linear and re-solved exactly at every
    iteration; the frequency step comes from the joint linearization and is
    clipped to half a DFT bin so the iteration stays inside the attraction
    basin of the initial peaks.
    """
    omegas = np.array(np.atleast_1d(omegas), dtype=float)
    y = np.asarray(samples, dtype=float)
    t = np.arange(len(y)) * ts
    max_step = 0.5 * 2.0 * math.pi / (len(y) * ts)
    if omega_max is None:
        omega_max = math.pi / ts
    for _ in range(max_iter):
        design = _design_matrix(omegas, t)
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ theta
        # d/dw of alpha sin(w t) + beta cos(w t), from the design's own columns.
        grad = t[:, None] * (theta[0::2] * design[:, 1::2] - theta[1::2] * design[:, 0::2])
        joint = np.hstack([design, grad])
        step, *_ = np.linalg.lstsq(joint, resid, rcond=None)
        delta = np.clip(step[2 * len(omegas) :], -max_step, max_step)
        omegas = np.clip(np.abs(omegas + delta), omega_min, omega_max)
        if np.max(np.abs(delta)) < tol:
            break
    return omegas


def freqs_to_eigenvalues(omegas, tol: float = 0.05) -> np.ndarray:
    """Map detected frequencies to eigenvalue estimates by the unit shift.

    Values in [-tol, 0) clamp to zero; anything below -tol corresponds to an
    oscillation slower than the structural minimum (1 rad/s) and is rejected
    as a spurious peak.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(np.diff(omegas) < 0):
        raise EstimationError("frequencies must be sorted ascending")
    lams = omegas - 1.0
    if np.any(lams < -tol):
        worst = float(omegas[np.argmin(lams)])
        raise EstimationError(
            f"spurious peak at omega={worst:.6g} rad/s: below the structural "
            f"minimum frequency 1 rad/s (tolerance {tol:g})"
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
    below 1 - lambda_tol rad/s are structurally impossible and never enter.
    The success flag is true exactly when the reconstruction residual
    (percent) is within the configured threshold; with no detected
    frequencies the flag is false and the residual reads 100 percent.
    """
    if abs(cfg.ts * sig.f_s - 1.0) > 1e-9:
        raise EstimationError(
            f"config sampling time {cfg.ts:g} does not match the signal rate "
            f"1/f_s = {1.0 / sig.f_s:g}"
        )
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
    omega_min = 1.0 - cfg.lambda_tol
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
        if omegas:
            design = _design_matrix(np.array(omegas), t)
            theta, *_ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ theta
        else:
            resid = y
        if norm_y == 0.0 or float(np.linalg.norm(resid)) / norm_y < 1e-10:
            break
        spec = _amplitude_spectrum(resid, ts, cfg.zero_pad, "rect")
        candidates = detect_peaks(
            Spectrum(omega=spec[0], magnitude=spec[1], resolution=spec[2]),
            cfg.peak_threshold,
        )
        candidates = [
            c for c in candidates
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

    window_sig = SampledSignal(samples=y, f_s=sig.f_s, agent=sig.agent, t0=sig.t0)
    amps, phases, residual = ls_fit(window_sig, omegas)
    keep = amps >= cfg.peak_threshold
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
        lambdas=freqs_to_eigenvalues(omega_arr, tol=cfg.lambda_tol),
        flag=bool(residual <= cfg.se),
        residual_percent=residual,
    )
