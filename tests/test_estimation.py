"""Frequency-estimation checks: spectra, peaks, sinusoid fits, the full
estimator, and the frequency-to-eigenvalue mapping."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapspec import (
    EstimationError,
    FreqEstimatorConfig,
    SampledSignal,
    Segment,
    SimConfig,
    TopologySchedule,
    analytic_trajectory,
    complete_graph,
    cycle_graph,
    detect_peaks,
    eigendecompose,
    estimate_frequencies,
    freqs_to_eigenvalues,
    ls_fit,
    modal_coefficients,
    path_graph,
    random_init,
    refine_frequencies,
    simulate,
    spectrogram,
    star_graph,
)
from lapspec.dynamics import DEFAULT_SAMPLE_RATE
from lapspec.estimation import _amplitude_spectrum

FS = DEFAULT_SAMPLE_RATE
P5_LAMBDAS = np.array([0.0, 0.3819660113, 1.3819660113, 2.6180339887, 3.6180339887])


def tone(omega, duration, f_s=FS, amp=1.0, phase=0.0):
    t = np.arange(int(round(duration * f_s))) / f_s
    return SampledSignal(samples=amp * np.sin(omega * t + phase), f_s=f_s)


def p5_trace(seed=12345, t_end=50.0):
    sched = TopologySchedule.single(path_graph(5), t_end)
    return simulate(sched, SimConfig(t_end=t_end), random_init(5, seed))[0]


def dft(sig, zero_pad_factor=1, window="rect"):
    """(omega, magnitude, resolution) of the whole signal."""
    return _amplitude_spectrum(sig.samples, sig.ts, zero_pad_factor, window)


def peaks_of(spec, threshold):
    """detect_peaks at the estimator's separation, two pre-padding bins."""
    omega, mag, resolution = spec
    return detect_peaks(omega, mag, threshold, 2.0 * resolution)


# --- amplitude spectrum ------------------------------------------------------------

def test_dft_tone_unit_magnitude():
    """A unit sinusoid on a bin center reads magnitude ~1."""
    sig = tone(3.0, 20.0 * math.pi)
    omega, mag, resolution = dft(sig)
    k = int(np.argmax(mag))
    assert abs(omega[k] - 3.0) < resolution
    assert abs(mag[k] - 1.0) < 0.01


def test_dft_zero_signal():
    sig = SampledSignal(samples=np.zeros(64), f_s=FS)
    _, mag, _ = dft(sig, zero_pad_factor=4)
    assert np.all(mag == 0.0)


def test_dft_two_tone_amplitude_ratio():
    t = np.arange(int(round(20 * math.pi * FS))) / FS
    sig = SampledSignal(samples=np.cos(t) + 0.5 * np.cos(4.618 * t), f_s=FS)
    peaks = peaks_of(dft(sig, zero_pad_factor=8), 0.3)
    assert len(peaks) == 2
    ratio = peaks[0][1] / peaks[1][1]
    assert abs(ratio - 2.0) < 0.1  # 2:1 within 5%


def test_dft_grid_spans_to_nyquist():
    sig = tone(2.0, 10.0)
    omega, _, _ = dft(sig)
    assert omega[0] == 0.0
    assert abs(omega[-1] - math.pi * FS) < 1e-9


def test_dft_hann_window_gain_compensated():
    sig = tone(3.0, 20.0 * math.pi)
    _, mag, _ = dft(sig, zero_pad_factor=4, window="hann")
    assert abs(mag.max() - 1.0) < 0.02


# --- detect_peaks ------------------------------------------------------------------

def test_peak_interpolation_accuracy():
    """Quadratic interpolation lands within 0.005 rad/s on an off-bin tone."""
    sig = tone(3.0, 20.0 * math.pi)
    peaks = peaks_of(dft(sig, zero_pad_factor=8), 0.3)
    best = max(peaks, key=lambda p: p[1])
    assert abs(best[0] - 3.0) < 0.005


def test_peaks_empty_below_threshold():
    rng = np.random.default_rng(0)
    sig = SampledSignal(samples=1e-3 * rng.standard_normal(500), f_s=FS)
    assert peaks_of(dft(sig, zero_pad_factor=4), 0.02) == []


def test_peaks_unresolvable_pair_merges():
    """Two tones 0.4 rad/s apart inside a 2*pi window (bin width 1 rad/s)
    collapse to a single detected peak: the resolution limit that motivates
    longer observation windows."""
    f_s = FS
    t = np.arange(int(round(2 * math.pi * f_s))) / f_s
    sig = SampledSignal(samples=np.sin(3.0 * t) + np.sin(3.4 * t + 0.3), f_s=f_s)
    spec = dft(sig, zero_pad_factor=8)
    assert abs(spec[2] - 1.0) < 1e-6
    peaks = peaks_of(spec, 0.3)
    assert len(peaks) == 1
    assert 2.9 < peaks[0][0] < 3.5


def test_peaks_merge_keeps_larger_and_lower_tie():
    omega = np.linspace(0.0, 10.0, 101)
    mag = np.zeros(101)
    mag[30] = 1.0   # omega = 3.0
    mag[33] = 0.6   # omega = 3.3, within min_separation of the larger peak
    mag[70] = 0.6   # omega = 7.0, isolated
    peaks = detect_peaks(omega, mag, 0.1, min_separation=0.5)
    assert [round(p[0], 1) for p in peaks] == [3.0, 7.0]
    assert peaks[0][1] == pytest.approx(1.0)


def _reference_detect_peaks(omega, mag, amplitude_threshold, min_separation):
    """Scalar per-bin loop that the vectorised detect_peaks must reproduce."""
    grid_step = omega[1] - omega[0] if len(omega) > 1 else 0.0
    found = []
    for k in range(1, len(mag) - 1):
        if not (mag[k] > mag[k - 1] and mag[k] >= mag[k + 1]):
            continue
        if mag[k] <= amplitude_threshold:
            continue
        if mag[k - 1] > 0.0 and mag[k + 1] > 0.0:
            lo, mid, hi = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
            denom = lo - 2.0 * mid + hi
            shift = 0.5 * (lo - hi) / denom if denom != 0.0 else 0.0
            shift = float(np.clip(shift, -0.5, 0.5))
            peak_omega = omega[k] + shift * grid_step
            peak_amp = float(np.exp(mid - 0.25 * (lo - hi) * shift))
        else:
            peak_omega, peak_amp = float(omega[k]), float(mag[k])
        found.append((peak_omega, peak_amp))
    merged = []
    for w, amp in found:
        if merged and w - merged[-1][0] < min_separation:
            if amp > merged[-1][1]:
                merged[-1] = (w, amp)
        else:
            merged.append((w, amp))
    return merged


THRESHOLD = 0.25
# Few distinct levels make plateaus and ties common; zeros, the threshold
# itself and subnormals exercise the log(0) fallback and the strict cut.
_levels = st.sampled_from([0.0, 5e-324, 1e-300, 0.1, THRESHOLD, 0.5, 1.0])
_magnitude = st.one_of(_levels, st.floats(min_value=0.0, max_value=10.0))


@given(
    st.lists(_magnitude, max_size=80),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_detect_peaks_matches_scalar_reference(mags, step, min_separation):
    mag = np.array(mags, dtype=float)
    omega = np.arange(len(mag)) * step
    got = detect_peaks(omega, mag, THRESHOLD, min_separation)
    want = _reference_detect_peaks(omega, mag, THRESHOLD, min_separation)
    assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


def test_detect_peaks_matches_scalar_reference_on_signal_spectra():
    y = p5_trace().x[:, 0]
    for omega, mag, resolution in (dft(SampledSignal(samples=y, f_s=FS), zero_pad_factor=8),
                                   dft(tone(3.0, 20.0 * math.pi), zero_pad_factor=4)):
        got = detect_peaks(omega, mag, 0.005, 2.0 * resolution)
        want = _reference_detect_peaks(omega, mag, 0.005, 2.0 * resolution)
        assert len(got) > 0
        assert np.array(got).tobytes() == np.array(want).tobytes()


# --- refine_frequencies -------------------------------------------------------------

def _reference_refine(samples, ts, omegas, omega_min=1e-6, omega_max=None,
                      max_iter=60, tol=1e-13):
    """Gauss-Newton with the gradient recomputed per column by np.cos/np.sin."""
    omegas = np.array(np.atleast_1d(omegas), dtype=float)
    y = np.asarray(samples, dtype=float)
    t = np.arange(len(y)) * ts
    max_step = 0.5 * 2.0 * math.pi / (len(y) * ts)
    if omega_max is None:
        omega_max = math.pi / ts
    for _ in range(max_iter):
        design = np.empty((len(t), 2 * len(omegas)))
        for k, w in enumerate(omegas):
            design[:, 2 * k] = np.sin(w * t)
            design[:, 2 * k + 1] = np.cos(w * t)
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ theta
        grad_cols = np.empty_like(design[:, : len(omegas)])
        for k, w in enumerate(omegas):
            alpha, beta = theta[2 * k], theta[2 * k + 1]
            grad_cols[:, k] = t * (alpha * np.cos(w * t) - beta * np.sin(w * t))
        step, *_ = np.linalg.lstsq(np.hstack([design, grad_cols]), resid, rcond=None)
        delta = np.clip(step[2 * len(omegas) :], -max_step, max_step)
        omegas = np.clip(np.abs(omegas + delta), omega_min, omega_max)
        if np.max(np.abs(delta)) < tol:
            break
    return omegas


@pytest.mark.parametrize("case", ["p5", "two_tone_noise", "single"])
def test_refine_frequencies_matches_per_column_gradient(case):
    rng = np.random.default_rng(4)
    ts = 1.0 / FS
    if case == "p5":
        y = p5_trace().x[:, 0]
        start = 1.0 + P5_LAMBDAS + rng.uniform(-0.03, 0.03, size=5)
    elif case == "two_tone_noise":
        t = np.arange(800) * ts
        y = np.sin(1.3 * t + 0.2) + 0.4 * np.cos(2.9 * t) + 0.05 * rng.standard_normal(800)
        start = np.array([1.25, 2.95])
    else:
        y = tone(2.2, 30.0).samples
        start = np.array([2.1])
    # Converged frequencies absorb last-bit gradient differences, so early
    # iterates, whose steps are large, are compared too.
    for max_iter in (1, 2, 3, 60):
        kwargs = dict(omega_min=0.95, omega_max=0.999 * math.pi / ts, max_iter=max_iter)
        got = refine_frequencies(y, ts, start, **kwargs)
        assert got.tobytes() == _reference_refine(y, ts, start, **kwargs).tobytes()


# --- ls_fit -----------------------------------------------------------------------

def test_ls_fit_interpolates_its_own_model():
    t = np.arange(800) / FS
    y = 1.3 * np.sin(1.0 * t + 0.4) + 0.7 * np.sin(2.5 * t - 1.0)
    sig = SampledSignal(samples=y, f_s=FS)
    amps, phases, resid = ls_fit(sig, [1.0, 2.5])
    assert resid < 1e-8
    assert np.allclose(amps, [1.3, 0.7], atol=1e-8)
    assert np.allclose(phases, [0.4, -1.0], atol=1e-8)


def test_ls_fit_k2_trace_amplitude_matches_oracle():
    """On the simulated two-agent trace the fast-mode amplitude equals the
    oracle coefficient (=1) to within integrator error."""
    sched = TopologySchedule.single(path_graph(2), 50.0)
    trace, _ = simulate(
        sched, SimConfig(t_end=50.0), (np.array([1.0, -1.0]), np.zeros(2))
    )
    sig = SampledSignal.from_trace(trace, 0)
    amps, _, _ = ls_fit(sig, [3.0])
    assert abs(amps[0] - 1.0) < 1e-6


def test_ls_fit_omitted_mode_residual_floor():
    """Dropping one mode from the fit leaves at least that mode's energy
    share in the residual (the remaining columns span the other modes)."""
    g = path_graph(5)
    dec = eigendecompose(g)
    x0, z0 = random_init(5, 12345)
    t = np.arange(796) / FS
    x, _ = analytic_trajectory(dec, x0, z0, t)
    agent = 0
    y = x[:, agent]
    omegas = 1.0 + dec.values
    coef = modal_coefficients(dec, x0, z0, agent)
    # component of the omitted mode (index 2), sampled
    block = dec.vectors[2]
    px = float(block[agent, :] @ (block.T @ x0))
    pz = float(block[agent, :] @ (block.T @ z0))
    omitted = px * np.cos(omegas[2] * t) + pz * np.sin(omegas[2] * t)
    share = 100.0 * np.linalg.norm(omitted) / np.linalg.norm(y)
    sig = SampledSignal(samples=y, f_s=FS)
    _, _, resid = ls_fit(sig, np.delete(omegas, 2))
    assert resid > 0.9 * share
    assert resid < 1.1 * share
    assert coef.a[2] > 0.1  # the omitted mode genuinely carries energy


def test_ls_fit_duplicate_frequencies_error():
    sig = tone(3.0, 30.0)
    with pytest.raises(EstimationError, match="near-duplicate.*3"):
        ls_fit(sig, [3.0, 3.0])
    with pytest.raises(EstimationError, match="near-duplicate.*3"):
        ls_fit(sig, [3.0, 3.0 + 1e-9])


def test_ls_fit_near_duplicate_scales_with_window():
    """Distinguishability is relative to the window: a 1e-4 rad/s gap is
    singular over 30 s but fine over 2000 s."""
    short = tone(3.0, 30.0)
    with pytest.raises(EstimationError, match="near-duplicate"):
        ls_fit(short, [3.0, 3.0 + 1e-4])
    t = np.arange(int(round(2000 * FS))) / FS
    y = np.sin(3.0 * t) + 0.5 * np.sin((3.0 + 1e-2) * t)
    amps, _, resid = ls_fit(SampledSignal(samples=y, f_s=FS), [3.0, 3.0 + 1e-2])
    assert resid < 1e-6
    assert np.allclose(amps, [1.0, 0.5], atol=1e-6)


def test_ls_fit_ill_conditioned_names_pair():
    """A frequency so slow that its sine column vanishes over the window
    passes the duplicate check but not the condition-number check, which
    reads the singular values of the one least-squares fit."""
    sig = tone(3.0, 30.0)
    for slow in (0.0, 1e-13):
        with pytest.raises(EstimationError, match=f"ill-conditioned.*pair: {slow:g} and 3"):
            ls_fit(sig, [slow, 3.0])


def test_ls_fit_empty_frequency_list():
    with pytest.raises(EstimationError, match="empty"):
        ls_fit(tone(3.0, 30.0), [])


# --- estimate_frequencies -----------------------------------------------------------

def test_estimate_p5_reference_run():
    """The stationary 50 s run recovers the reference spectrum to 5e-3."""
    trace = p5_trace()
    sig = SampledSignal.from_trace(trace, 0)
    est = estimate_frequencies(sig, FreqEstimatorConfig())
    assert est.n == 5 <= 8
    assert np.all(np.diff(est.omega) > 0)  # sorted ascending
    assert np.max(np.abs(est.lambdas - P5_LAMBDAS)) < 5e-3
    assert est.flag and est.residual_percent < 1.0


def test_fitted_amplitudes_match_oracle_on_rk4_trace():
    """Amplitudes fitted at the oracle frequencies on an integrated (not
    analytic) trace stay within 1e-4 of the per-agent line coefficients."""
    g = path_graph(5)
    dec = eigendecompose(g)
    x0, z0 = random_init(5, 12345)
    trace = p5_trace(seed=12345)
    omegas = 1.0 + dec.values
    for agent in (0, 1, 3):
        sig = SampledSignal.from_trace(trace, agent)
        amps, _, _ = ls_fit(sig, omegas)
        expected = modal_coefficients(dec, x0, z0, agent).line_amplitudes()
        assert np.max(np.abs(amps - expected)) < 1e-4


def test_estimate_caps_at_nmax_and_flags_misfit():
    """With room for only one frequency on a two-mode signal the residual
    carries the second mode's energy, so the flag must drop."""
    t = np.arange(int(round(16 * math.pi * FS))) / FS
    y = np.sin(1.0 * t) + 0.8 * np.sin(3.0 * t + 0.5)
    sig = SampledSignal(samples=y, f_s=FS)
    est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=1, se=1.0, window=16 * math.pi))
    assert est.n == 1
    assert not est.flag
    assert est.residual_percent > 10.0


def test_estimate_flag_tracks_threshold_both_sides():
    t = np.arange(int(round(16 * math.pi * FS))) / FS
    y = np.sin(1.0 * t) + 0.8 * np.sin(3.0 * t + 0.5)
    sig = SampledSignal(samples=y, f_s=FS)
    base = estimate_frequencies(sig, FreqEstimatorConfig(n_max=1, window=16 * math.pi))
    resid = base.residual_percent
    above = estimate_frequencies(
        sig, FreqEstimatorConfig(n_max=1, se=resid * 1.1, window=16 * math.pi)
    )
    below = estimate_frequencies(
        sig, FreqEstimatorConfig(n_max=1, se=resid * 0.9, window=16 * math.pi)
    )
    assert above.flag and not below.flag


def test_estimate_all_ones_single_mode():
    """x0 = z0 = 1 excites only the average mode: lambda_hat = {0}."""
    g = cycle_graph(6)
    sched = TopologySchedule.single(g, 50.0)
    trace, _ = simulate(sched, SimConfig(t_end=50.0), (np.ones(6), np.ones(6)))
    est = estimate_frequencies(
        SampledSignal.from_trace(trace, 2), FreqEstimatorConfig()
    )
    assert est.n == 1
    assert est.lambdas.tolist() == [0.0]
    assert est.flag


def test_estimate_zero_signal():
    sig = SampledSignal(samples=np.zeros(200), f_s=FS)
    est = estimate_frequencies(sig, FreqEstimatorConfig(window=200 / FS))
    assert est.n == 0 and not est.flag


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_signal_rejects_non_finite_samples(bad):
    """A non-finite sample is an error, never an empty 'perfect' fit."""
    samples = np.sin(np.arange(200) / FS)
    samples[57] = bad
    with pytest.raises(EstimationError, match="non-finite"):
        SampledSignal(samples=samples, f_s=FS)


def test_estimate_window_exceeds_signal():
    sig = tone(3.0, 10.0)
    with pytest.raises(EstimationError, match="window"):
        estimate_frequencies(sig, FreqEstimatorConfig(window=20.0))


def test_estimate_takes_sampling_time_from_signal():
    """A default config fits any sample rate: f_s = 16 is not the default."""
    sig = tone(3.0, 60.0, f_s=16.0)
    est = estimate_frequencies(sig, FreqEstimatorConfig())
    assert est.n == 1 and abs(est.omega[0] - 3.0) < 1e-8 and est.flag


def test_estimate_star_repeated_eigenvalue_collapses():
    """Frequencies carry no multiplicity: the 4-agent star yields 3 lines."""
    g = star_graph(4)
    sched = TopologySchedule.single(g, 50.0)
    x0, z0 = random_init(4, 5)
    trace, _ = simulate(sched, SimConfig(t_end=50.0), (x0, z0))
    for leaf in (1, 2, 3):
        est = estimate_frequencies(
            SampledSignal.from_trace(trace, leaf), FreqEstimatorConfig()
        )
        assert est.n == 3
        assert np.max(np.abs(est.lambdas - np.array([0.0, 1.0, 4.0]))) < 1e-2


def test_estimate_monotone_window_benefit():
    """Detection-stage error (DFT + interpolation, the resolution-limited
    mechanism) improves with window length; the refined pipeline is already
    at numerical precision for every admissible window."""
    g = path_graph(5)
    dec = eigendecompose(g)
    windows = [2 * math.pi, 4 * math.pi, 8 * math.pi, 16 * math.pi]
    detect_errors = {w: [] for w in windows}
    pipeline_errors = {w: [] for w in windows}
    for seed in range(12):
        x0, z0 = random_init(5, 1000 + seed)
        coef = modal_coefficients(dec, x0, z0, 0)
        if np.min(coef.line_amplitudes()) < 0.05:
            continue
        t = np.arange(int(round(windows[-1] * FS))) / FS
        x, _ = analytic_trajectory(dec, x0, z0, t)
        for w in windows:
            n_win = int(round(w * FS))
            sig = SampledSignal(samples=x[:n_win, 0], f_s=FS)
            peaks = peaks_of(dft(sig, zero_pad_factor=8), 0.02)
            freqs = np.array([p[0] for p in peaks])
            err = max(
                min(abs(f - 1.0 - lam) for f in freqs) for lam in dec.values
            )
            detect_errors[w].append(err)
            est = estimate_frequencies(sig, FreqEstimatorConfig(window=w))
            perr = max(
                min(abs(lh - lam) for lh in est.lambdas) for lam in dec.values
            )
            pipeline_errors[w].append(perr)
    detect_medians = [float(np.median(detect_errors[w])) for w in windows]
    assert all(
        a >= b - 1e-12 for a, b in zip(detect_medians, detect_medians[1:])
    ), detect_medians
    pipe_medians = [float(np.median(pipeline_errors[w])) for w in windows]
    assert all(
        a >= b - 1e-9 for a, b in zip(pipe_medians, pipe_medians[1:])
    ), pipe_medians
    # at the long window the refined pipeline reaches numerical precision
    assert max(pipeline_errors[windows[-1]]) < 1e-6


# --- frequency-to-eigenvalue mapping -------------------------------------------------

def test_freqs_to_eigenvalues_basic():
    assert freqs_to_eigenvalues([1.0]).tolist() == [0.0]
    assert abs(freqs_to_eigenvalues([4.618])[0] - 3.618) < 1e-12


def test_freqs_to_eigenvalues_clamps_near_zero():
    out = freqs_to_eigenvalues([0.97, 2.0])
    assert out.tolist() == [0.0, 1.0]


def test_freqs_to_eigenvalues_rejects_spurious():
    with pytest.raises(EstimationError, match="spurious"):
        freqs_to_eigenvalues([0.5, 2.0])


def test_freqs_to_eigenvalues_requires_sorted():
    with pytest.raises(EstimationError, match="sorted"):
        freqs_to_eigenvalues([2.0, 1.0])


# --- estimator config --------------------------------------------------------------

def test_config_window_must_cover_slowest_period():
    with pytest.raises(EstimationError, match="slowest period"):
        FreqEstimatorConfig(window=3.0)


def test_config_rejects_bad_bounds():
    with pytest.raises(EstimationError):
        FreqEstimatorConfig(n_max=0)
    with pytest.raises(EstimationError):
        FreqEstimatorConfig(se=0.0)


# --- spectrogram --------------------------------------------------------------------

def test_spectrogram_stationary_p5_constant_peak_sets():
    """Every slice of a stationary trace shows the same five lines."""
    trace = p5_trace()
    sig = SampledSignal.from_trace(trace, 0)
    data = spectrogram(sig, window_len=600, hop=49)
    expected = 1.0 + P5_LAMBDAS
    assert len(data.time_centers) >= 4
    for k in range(len(data.time_centers)):
        peaks = detect_peaks(data.omega, data.magnitude[k], 0.1, 2.0 * data.resolution)
        freqs = np.array([p[0] for p in peaks])
        assert len(freqs) == 5
        assert np.max(np.abs(np.sort(freqs) - expected)) < data.resolution


def test_spectrogram_pure_tone_single_line():
    sig = tone(3.0, 50.0)
    data = spectrogram(sig, window_len=256, hop=64)
    for k in range(len(data.time_centers)):
        peaks = detect_peaks(data.omega, data.magnitude[k], 0.1, 2.0 * data.resolution)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 3.0) < data.resolution


def test_spectrogram_switching_topology_changes_lines():
    """Across the reference switch times the top active frequency flips:
    the middle segment's complete graph pushes a line to 6 rad/s that the
    ring and path segments do not have."""
    segs = (
        Segment(0.0, 6.4, cycle_graph(5)),
        Segment(6.4, 12.9, complete_graph(5)),
        Segment(12.9, 20.0, path_graph(5)),
    )
    sched = TopologySchedule(segments=segs)
    trace, _ = simulate(sched, SimConfig(t_end=20.0), random_init(5, 11))
    expected_high = {0: False, 1: True, 2: False}
    for agent in range(5):
        sig = SampledSignal.from_trace(trace, agent)
        data = spectrogram(sig, window_len=64, hop=8)
        half = (64 / 2) / trace.f_s
        for k, t_c in enumerate(data.time_centers):
            if any(t_c - half - 0.5 < b < t_c + half + 0.5 for b in (6.4, 12.9)):
                continue  # slice overlaps a switch (+/- one window)
            peaks = detect_peaks(data.omega, data.magnitude[k], 0.1, 2.0 * data.resolution)
            top = max((p[0] for p in peaks), default=0.0)
            seg = 0 if t_c < 6.4 else (1 if t_c < 12.9 else 2)
            assert bool(top > 5.5) == expected_high[seg], (agent, t_c, top)


def test_spectrogram_matches_per_window_loop():
    """The batched rfft over all frames gives the same bytes as one rfft per
    window, on the switching trace for several agents, lengths, hops and
    windows."""
    segs = (
        Segment(0.0, 6.4, cycle_graph(5)),
        Segment(6.4, 12.9, complete_graph(5)),
        Segment(12.9, 20.0, path_graph(5)),
    )
    trace, _ = simulate(TopologySchedule(segments=segs), SimConfig(t_end=20.0), random_init(5, 11))
    cases = [(agent, window_len, hop, window)
             for agent in (0, 1, 4)
             for window_len, hop in ((4, 1), (63, 7), (64, 8), (255, 32), (318, 318))
             for window in ("hann", "rect")]
    for agent, window_len, hop, window in cases:
        sig = SampledSignal.from_trace(trace, agent)
        data = spectrogram(sig, window_len, hop, window=window)
        starts = range(0, len(sig.samples) - window_len + 1, hop)
        rows = [
            _amplitude_spectrum(sig.samples[k : k + window_len], sig.ts, 4, window)[1]
            for k in starts
        ]
        omega = _amplitude_spectrum(sig.samples[:window_len], sig.ts, 4, window)[0]
        centers = sig.t0 + (np.array(starts) + (window_len - 1) / 2.0) * sig.ts
        case = (agent, window_len, hop, window)
        assert data.magnitude.tobytes() == np.vstack(rows).tobytes(), case
        assert data.omega.tobytes() == omega.tobytes(), case
        assert data.time_centers.tobytes() == centers.tobytes(), case


def test_spectrogram_window_longer_than_signal():
    sig = tone(3.0, 5.0)
    with pytest.raises(EstimationError, match="exceeds signal"):
        spectrogram(sig, window_len=10000, hop=16)


def test_per_segment_spectra_differ():
    """The three-segment run's per-segment estimates expose three different
    spectra (consumed downstream by the sliding-window display)."""
    segs = (
        Segment(0.0, 6.4, cycle_graph(5)),
        Segment(6.4, 12.9, complete_graph(5)),
        Segment(12.9, 20.0, path_graph(5)),
    )
    sched = TopologySchedule(segments=segs)
    trace, _ = simulate(sched, SimConfig(t_end=20.0), random_init(5, 11))
    sets = []
    for seg in segs:
        sig = SampledSignal.from_trace(trace, 1, t_start=seg.t_start, t_end=seg.t_end)
        est = estimate_frequencies(
            sig,
            FreqEstimatorConfig(window=seg.t_end - seg.t_start),
        )
        sets.append(tuple(np.round(est.lambdas, 1)))
    assert sets[0] != sets[1] and sets[1] != sets[2]
