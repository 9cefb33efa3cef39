"""Frequency-estimation checks: spectra, peaks, sinusoid fits, the full
estimator, and the frequency-to-eigenvalue mapping."""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

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
    check_estimability,
    complete_graph,
    cycle_graph,
    detect_peaks,
    eigendecompose,
    estimate_frequencies,
    freqs_to_eigenvalues,
    ls_fit,
    modal_coefficients,
    parse_schedule,
    path_graph,
    random_init,
    refine_frequencies,
    simulate,
    spectrogram,
    star_graph,
)
from lapspec import estimation
from lapspec.dynamics import DEFAULT_SAMPLE_RATE
from lapspec.estimation import (
    LAMBDA_TOL,
    ORDER_GAP,
    _amplitude_spectrum,
    _greedy_omegas,
    _pencil_seed,
)
from conftest import (
    disjoint_union,
    random_connected_graph,
    simple_spectrum_graph,
    well_conditioned_init,
)

FS = DEFAULT_SAMPLE_RATE
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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
def test_refine_frequencies_matches_per_column_gradient(case, monkeypatch):
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
    # iterates, whose steps are large, are compared too. No pair collapses,
    # so refine_frequencies returns the reference's iterate, sorted.
    sig = SampledSignal(samples=y, f_s=FS)
    bounds = dict(omega_min=0.95, omega_max=0.999 * math.pi / ts)
    assert sig.band == tuple(bounds.values())
    for max_iter in (1, 2, 3, 60):
        monkeypatch.setattr(estimation, "GN_MAX_ITER", max_iter)
        got = refine_frequencies(sig, start)
        want = np.sort(_reference_refine(y, ts, start, max_iter=max_iter, **bounds))
        assert len(got) == len(start) and got.tobytes() == want.tobytes()


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
    px, pz = coef.a[2], coef.b[2]
    omitted = px * np.cos(omegas[2] * t) + pz * np.sin(omegas[2] * t)
    share = 100.0 * np.linalg.norm(omitted) / np.linalg.norm(y)
    sig = SampledSignal(samples=y, f_s=FS)
    _, _, resid = ls_fit(sig, np.delete(omegas, 2))
    assert resid > 0.9 * share
    assert resid < 1.1 * share
    assert coef.line_amplitudes()[2] > 0.1  # the omitted mode genuinely carries energy


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


@pytest.mark.parametrize("f_s", [np.nan, np.inf, 0.0, -1.0])
def test_signal_rejects_bad_sample_rate_by_name(f_s):
    """A non-finite rate would otherwise reach the estimator's sample count
    (NaN/overflow) or the spectrogram's frequency grid."""
    with pytest.raises(EstimationError, match=r"sample rate f_s must be positive and finite"):
        SampledSignal(samples=np.zeros(8), f_s=f_s)


@pytest.mark.parametrize("call, message", [
    (lambda: SampledSignal(samples=np.zeros(1), f_s=FS), "signal needs at least 2 samples"),
    (lambda: ls_fit(tone(2.0, 10.0), [np.nan]), "frequencies must be finite, got [nan]"),
    (lambda: ls_fit(tone(2.0, 10.0), [2.0, np.inf]), "frequencies must be finite, got [2.0, inf]"),
    (lambda: refine_frequencies(tone(2.0, 10.0), [np.nan]),
     "frequencies must be finite, got [nan]"),
    (lambda: refine_frequencies(tone(2.0, 10.0), [2.0, -np.inf]),
     "frequencies must be finite, got [2.0, -inf]"),
    (lambda: spectrogram(tone(2.0, 10.0), 8, 1, window="flat"),
     "unknown window 'flat' (expected 'rect' or 'hann')"),
    (lambda: spectrogram(tone(2.0, 10.0), 3, 1), "window_len must be at least 4, got 3"),
    (lambda: spectrogram(tone(2.0, 10.0), 8, 0), "hop must be at least 1, got 0"),
    (lambda: SampledSignal(samples=np.exp(1j * np.arange(796.0)), f_s=FS),
     "signal samples must be a 1-D real array, got shape (796,) of complex128"),
    (lambda: SampledSignal(samples=np.zeros((796, 2)), f_s=FS),
     "signal samples must be a 1-D real array, got shape (796, 2) of float64"),
], ids=["one sample", "ls_fit nan",
        "ls_fit inf", "refine nan", "refine -inf", "unknown window", "window_len 3", "hop 0",
        "complex samples", "two columns"])
def test_estimation_errors_are_named(call, message):
    with pytest.raises(EstimationError) as exc:
        call()
    assert type(exc.value) is EstimationError and message in str(exc.value)


@pytest.mark.parametrize("agent, error, message", [
    (5, ValueError, "agent 5 out of range [0, 5)"),
    (-1, ValueError, "agent -1 out of range [0, 5)"),
    (True, TypeError, "field 'agent': true is not an integer"),
    (2.5, TypeError, "field 'agent': 2.5 is not an integer"),
], ids=["agent out of range", "negative agent", "bool agent", "fractional agent"])
def test_from_trace_checks_its_agent_as_the_graph_does(agent, error, message):
    """One agent check (graph._agent) serves the trace, the oracle and the CLI."""
    with pytest.raises(error) as exc:
        SampledSignal.from_trace(p5_trace(t_end=10.0), agent)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("window_len, hop, text", [
    (64.5, 8, "'window_len': 64.5"), (64, 2.5, "'hop': 2.5"), (64, True, "'hop': true"),
])
def test_spectrogram_rejects_non_integer_sizes(window_len, hop, text):
    """A fractional size would reach numpy as an index, and True would run
    as hop 1."""
    with pytest.raises(TypeError, match=f"^field {text} is not an integer$"):
        spectrogram(tone(2.0, 10.0), window_len, hop)


def test_signal_stores_real_samples_as_float64():
    """Int and bool samples are stored as float64; a float64 array is kept
    as it is, not copied."""
    ints = SampledSignal(samples=np.array([0, 1, -2, 3]), f_s=FS)
    flags = SampledSignal(samples=[True, False, True], f_s=FS)
    assert ints.samples.dtype == flags.samples.dtype == np.float64
    assert ints.samples.tolist() == [0.0, 1.0, -2.0, 3.0]
    assert flags.samples.tolist() == [1.0, 0.0, 1.0]
    floats = np.linspace(0.0, 1.0, 8)
    assert SampledSignal(samples=floats, f_s=FS).samples is floats


def test_estimate_window_exceeds_signal():
    sig = tone(3.0, 10.0)
    with pytest.raises(EstimationError, match="window"):
        estimate_frequencies(sig, FreqEstimatorConfig(window=20.0))


@pytest.mark.parametrize("f_s, held", [(0.1, 1), (0.05, 0)] + [
    (held / (2 * math.pi), held) for held in range(2, 8)], ids=lambda v: f"{v:g}")
def test_estimate_window_of_fewer_than_eight_samples_rejected(f_s, held):
    """A 2*pi s window at a 10 s (20 s) sample period rounds to 1 (0)
    samples: a named error, not a division by zero (or a quiet empty fit).
    So are 2-7 samples: one line's two poles need a Hankel matrix of 3
    columns, 8 samples."""
    sig = SampledSignal(samples=np.sin(np.arange(40) / f_s), f_s=f_s)
    with pytest.raises(EstimationError, match=(
            rf"window 6\.28319 s holds {held} samples at f_s = {f_s:g}; at least 8 needed")):
        estimate_frequencies(sig, FreqEstimatorConfig(window=2 * math.pi))


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


# --- pencil seed and greedy fallback ------------------------------------------------

def search_range(y, ts):
    """estimate_frequencies' frequency range and merge gap for the window y."""
    return 1.0 - LAMBDA_TOL, 0.999 * math.pi / ts, 2e-2 / ((len(y) - 1) * ts)


def capacity(n_max, n_samples):
    """estimate_frequencies' pole capacity k_max for a window of n_samples:
    the pencil's order bound, and twice the greedy loop's line budget."""
    return min(2 * n_max + 1, n_samples // 4)


@pytest.fixture()
def greedy_calls(monkeypatch):
    """The argument tuples of every _greedy_omegas call estimate_frequencies
    makes while the test runs."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _greedy_omegas(*args)

    monkeypatch.setattr(estimation, "_greedy_omegas", spy)
    return calls


def test_pencil_resolves_close_eigenvalue_pairs():
    """Random n = 12 graphs whose closest eigenvalues are 0.03-0.06 apart:
    every agent's estimate is flagged and hits every eigenvalue whose line
    amplitude is at least 0.01 to within 1e-6. The greedy path alone merges
    such pairs into one line and still flags true."""
    rng = np.random.default_rng(7)
    graphs = []
    while len(graphs) < 8:
        g = random_connected_graph(rng, 12)
        dec = eigendecompose(g)
        if dec.num_distinct == 12 and 0.03 <= np.min(np.diff(dec.values)) <= 0.06:
            graphs.append(g)
    inits = [random_init(12, 7)] * len(graphs)
    schedule, init, offsets = disjoint_union(graphs, inits, 50.0)
    trace, _ = simulate(schedule, SimConfig(t_end=50.0), init)
    for g, (x0, z0), off in zip(graphs, inits, offsets):
        dec = eigendecompose(g)
        for agent in range(g.n):
            targets = dec.values[modal_coefficients(dec, x0, z0, agent).line_amplitudes() >= 0.01]
            sig = SampledSignal.from_trace(trace, off + agent)
            est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=12))
            assert est.flag, (agent, dec.values)
            err = max(float(np.min(np.abs(est.lambdas - v))) for v in targets)
            assert err < 1e-6, (agent, err, dec.values)


def test_pencil_and_greedy_paths_agree_where_greedy_hits():
    """Criterion-02-style graphs: wherever the greedy path finds every line
    to within 1e-2, the pencil-seeded estimate holds the same frequencies
    to 1e-9, the same least-squares optimum reached from a better seed."""
    rng = np.random.default_rng(2024)
    members = []
    while len(members) < 16:
        g = simple_spectrum_graph(rng, int(rng.integers(3, 11)))
        init = well_conditioned_init(g, rng)
        if init is not None:
            members.append((g, init))
    schedule, init, offsets = disjoint_union(
        [g for g, _ in members], [(x0, z0) for _, (x0, z0, _) in members], 50.0
    )
    trace, _ = simulate(schedule, SimConfig(t_end=50.0), init)
    compared = 0
    for (g, (_, _, agent)), off in zip(members, offsets):
        sig = SampledSignal.from_trace(trace, off + agent)
        n_max = g.n + 2
        k_max = capacity(n_max, len(sig.samples))
        assert _pencil_seed(sig, k_max) is not None
        greedy = _greedy_omegas(sig, k_max // 2)
        dec = eigendecompose(g)
        if len(greedy) != dec.num_distinct or np.max(np.abs(greedy - 1.0 - dec.values)) > 1e-2:
            continue
        est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=n_max))
        assert est.n == len(greedy)
        assert np.max(np.abs(est.omega - greedy)) < 1e-9, (est.omega, greedy)
        compared += 1
    assert compared >= 12


# sha256 of the estimate's sorted JSON, measured with the greedy-only
# estimator that preceded the pencil seed.
DENSE_DIGEST = "ccfa66d5fe7ed4afe361765bac5492043d2418d03ea97d8d854bf5c3ed7aa51a"


def dense_signal():
    """Agent 0 of a random 40-agent graph: more lines than n_max = 8 or 14."""
    g = random_connected_graph(np.random.default_rng(40), 40)
    trace, _ = simulate(TopologySchedule.single(g, 50.0), SimConfig(t_end=50.0),
                        random_init(40, 40))
    return SampledSignal.from_trace(trace, 0)


def test_dense_signal_takes_greedy_path_unchanged():
    """40 agents see more lines than n_max = 8 or 14, so the singular values
    show no gap, the pencil declines, and the greedy estimate is unchanged."""
    sig = dense_signal()
    for n_max in (8, 14):
        assert _pencil_seed(sig, capacity(n_max, len(sig.samples))) is None
    est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=8))
    digest = hashlib.sha256(json.dumps(est.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == DENSE_DIGEST


# sha256 of the sorted JSON list of every estimate in the pencil test below,
# with OpenBLAS on the one thread conftest sets: the pencil seed's
# basis.T @ hankel moves in its last bits with the thread count.
PENCIL_DIGEST = "be1cd0f1046ea2d6dfb0b50326762d626185b14bfa74b1912e01851a2732c409"


def n12_and_p5_signals():
    """Every agent of six random n = 12 graphs and of P5, 50 s each."""
    rng = np.random.default_rng(14)
    graphs = [random_connected_graph(rng, 12) for _ in range(6)]
    inits = [random_init(12, seed) for seed in range(6)]
    schedule, init, offsets = disjoint_union(graphs, inits, 50.0)
    trace, _ = simulate(schedule, SimConfig(t_end=50.0), init)
    signals = [SampledSignal.from_trace(trace, off + a) for off in offsets for a in range(12)]
    p5 = p5_trace()
    return signals + [SampledSignal.from_trace(p5, a) for a in range(5)]


def test_n12_and_p5_estimates_take_pencil_path_unchanged(greedy_calls):
    """The 77 signals of the projected-pencil test below, at n_max = 14: no
    greedy call, every estimate flagged, and the estimates unchanged."""
    ests = [estimate_frequencies(sig, FreqEstimatorConfig(n_max=14)).to_dict()
            for sig in n12_and_p5_signals()]
    assert not greedy_calls
    assert all(e["flag"] for e in ests)
    digest = hashlib.sha256(json.dumps(ests, sort_keys=True).encode()).hexdigest()
    assert digest == PENCIL_DIGEST


def test_short_window_is_answered_by_the_pencil(greedy_calls):
    """A 100-sample window holds a Hankel matrix of 25 columns, fewer than
    2 * 14 + 1: the pencil reads every column and finds the tone, and the
    estimate makes no greedy call."""
    sig = tone(3.0, 100 / FS)
    for n_max in (8, 14):
        seed = _pencil_seed(sig, capacity(n_max, len(sig.samples)))
        assert len(seed) == 1 and abs(seed[0] - 3.0) < 1e-9, (n_max, seed)
    est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=14, window=100 / FS))
    assert not greedy_calls
    assert est.n == 1 and abs(est.omega[0] - 3.0) < 1e-9 and est.flag


def collapsed_pair():
    """Tones at 3 and 3.0001 rad/s, 796 samples at the default rate."""
    t = np.arange(796) / FS
    return SampledSignal(samples=np.sin(3.0 * t) + 0.7 * np.sin(3.0001 * t + 1.0), f_s=FS)


def test_collapsed_pencil_pair_merges_into_one_line(greedy_calls):
    """Two tones 1e-4 rad/s apart over 50 s are distinct poles to the
    pencil but closer than ls_fit's distinguishability limit: refining the
    two-line seed collapses them, refine_frequencies drops the upper line
    and refines the one left again, and the estimate returns that line
    without raising or a greedy call. The greedy loop, run directly,
    returns the same line bit for bit."""
    sig = collapsed_pair()
    k_max = capacity(8, len(sig.samples))
    seed = _pencil_seed(sig, k_max)
    merged = refine_frequencies(sig, seed)
    assert len(seed) == 2 and len(merged) == 1
    est = estimate_frequencies(sig, FreqEstimatorConfig())
    assert not greedy_calls
    assert est.n == 1 and est.flag
    assert est.omega.tobytes() == merged.tobytes() == _greedy_omegas(sig, k_max // 2).tobytes()


def two_tones(slow, n_samples=796):
    """sin(slow t) + sin(2 t) sampled at the default rate."""
    t = np.arange(n_samples) / FS
    return SampledSignal(samples=np.sin(slow * t) + np.sin(2.0 * t), f_s=FS)


@pytest.mark.parametrize("slow", [0.5, 0.9])
def test_out_of_band_pole_is_dropped_not_clipped(slow, greedy_calls):
    """A tone below the band [1 - LAMBDA_TOL, ...] is no eigenvalue line: its
    pole is dropped, not clipped onto the band edge (which read as a
    spurious peak at 0.95 rad/s), and the 2 rad/s line is returned, flagged
    false at about 70.7 % residual, with no greedy call."""
    est = estimate_frequencies(two_tones(slow), FreqEstimatorConfig())
    assert not greedy_calls
    assert est.n == 1 and abs(est.omega[0] - 2.0) < 5e-3, est.omega
    assert not est.flag and 70.0 < est.residual_percent < 72.0, est.residual_percent


def test_in_band_slow_tone_is_kept(greedy_calls):
    """A 0.96 rad/s tone is inside the band: both lines come back, the slow
    one mapped to lambda = 0."""
    est = estimate_frequencies(two_tones(0.96), FreqEstimatorConfig())
    assert not greedy_calls
    assert np.max(np.abs(est.omega - [0.96, 2.0])) < 1e-9, est.omega
    assert est.lambdas.tolist() == [0.0, pytest.approx(1.0, abs=1e-9)] and est.flag


def helper_calls(monkeypatch):
    """(name, arguments, result) of every _pencil_seed and _greedy_omegas call
    estimate_frequencies makes from here on, in call order."""
    calls = []

    def spy(name, helper):
        def call(*args):
            result = helper(*args)
            calls.append((name, args, result))
            return result
        return call

    monkeypatch.setattr(estimation, "_pencil_seed", spy("pencil", _pencil_seed))
    monkeypatch.setattr(estimation, "_greedy_omegas", spy("greedy", _greedy_omegas))
    return calls


def faint_noise():
    """Seeded Gaussian noise of sigma 1e-4, 796 samples at the default rate."""
    return SampledSignal(samples=1e-4 * np.random.default_rng(0).normal(size=796), f_s=FS)


SINGLE_TRIGGER = {
    # name: (signal, n_max, window in seconds, helpers called, lines returned);
    # helpers None: the window is a named error before either helper runs
    "gapless": (dense_signal, 8, 50.0, ("pencil", "greedy"), 8),
    "zero": (lambda: SampledSignal(samples=np.zeros(796), f_s=FS), 8, 50.0, (), 0),
    "constant": (lambda: SampledSignal(samples=np.ones(796), f_s=FS), 8, 50.0, ("pencil",), 0),
    "lone 0.5 rad/s": (lambda: tone(0.5, 796 / FS), 8, 50.0, ("pencil",), 0),
    "lone 0.9 rad/s": (lambda: tone(0.9, 796 / FS), 8, 50.0, ("pencil",), 0),
    "three samples": (lambda: tone(1.2, 8.0, f_s=0.5), 8, 2.0 * math.pi, None, None),
    "short": (lambda: tone(3.0, 100 / FS), 14, 100 / FS, ("pencil",), 1),
    "collapsed": (collapsed_pair, 8, 50.0, ("pencil",), 1),
    "out of band": (lambda: two_tones(0.5), 8, 50.0, ("pencil",), 1),
    "faint noise": (faint_noise, 8, 50.0, ("pencil", "greedy"), 0),
    "weak tone": (lambda: tone(2.0, 796 / FS, amp=1e-3), 8, 50.0, ("pencil",), 0),
}


@pytest.mark.parametrize("case", list(SINGLE_TRIGGER))
def test_greedy_loop_runs_exactly_when_the_pencil_declines(case, monkeypatch):
    """One condition picks the path: _greedy_omegas runs, once, exactly when
    _pencil_seed returns None, which only a nonzero gapless window gives. A
    zero window calls neither helper; a constant or a lone tone below the
    band shows a gap with no in-band pole, so no lines; a window under 8
    samples is a named error. Faint noise has no gap, and the greedy loop
    finds no peak above PEAK_THRESHOLD; a weak tone's pencil line is fitted
    below it and dropped. Every estimate with no line is unflagged at 100 %
    residual, 0 % for the zero window. Both helpers get the one capacity
    k_max: the pencil's order bound, and twice the greedy loop's line
    budget."""
    make, n_max, window, helpers, lines = SINGLE_TRIGGER[case]
    sig = make()
    cfg = FreqEstimatorConfig(n_max=n_max, window=window)
    calls = helper_calls(monkeypatch)
    if helpers is None:
        with pytest.raises(EstimationError, match="at least 8 needed"):
            estimate_frequencies(sig, cfg)
        assert not calls
        return
    est = estimate_frequencies(sig, cfg)
    assert tuple(name for name, _, _ in calls) == helpers, (case, est.omega)
    assert est.n == lines, (case, est.omega)
    if helpers:
        _, (win, k_max), seed = calls[0]
        assert (*win.band, win.merge_gap) == search_range(win.samples, win.ts)
        assert k_max == capacity(n_max, len(win.samples))
        assert (seed is None) == ("greedy" in helpers)
    if "greedy" in helpers:
        assert calls[1][1] == (win, k_max // 2)
    if lines == 0:
        assert not est.flag
        assert est.residual_percent == (100.0 if np.any(sig.samples) else 0.0)


def test_constant_window_has_no_line_at_any_length(greedy_calls):
    """A constant window is one pole at z = 1, exactly rank one: singular
    values below machine precision of the largest count as one floor, so
    the pencil reads order 1 at every length and finds no pole in the band.
    Read raw, they gave ratios of 1e15 to inf or NaN, and 21 of these
    lengths returned spurious lines, 11 of them through the greedy loop."""
    cfg = FreqEstimatorConfig(window=4.0 * math.pi)
    wrong = {}
    for n_samples in range(8, 400):
        sig = SampledSignal(samples=np.ones(n_samples), f_s=n_samples / cfg.window)
        est = estimate_frequencies(sig, cfg)
        if est.n or est.flag or est.residual_percent != 100.0:
            wrong[n_samples] = est.omega.tolist()
    assert not wrong
    assert not greedy_calls


def test_greedy_loop_rejects_a_collapsing_candidate(monkeypatch):
    """Agent 0 of a 60-agent path over the whole trace span shows no gap, and
    one greedy candidate refines onto a line already held, so
    refine_frequencies hands back no more lines than the loop held: the
    candidate is rejected, the loop goes on, and the 7 lines returned stay
    at least the merge gap apart."""
    sched = TopologySchedule.single(path_graph(60), 50.0)
    trace, _ = simulate(sched, SimConfig(t_end=50.0), random_init(60, 0))
    sig = SampledSignal.from_trace(trace, 0)
    calls = helper_calls(monkeypatch)
    refined = []

    def spy(win, omegas):
        out = refine_frequencies(win, omegas)
        refined.append((len(omegas), len(out)))
        return out

    monkeypatch.setattr(estimation, "refine_frequencies", spy)
    window = float(trace.times[-1] - trace.times[0])
    est = estimate_frequencies(sig, FreqEstimatorConfig(n_max=8, window=window))
    assert [name for name, _, _ in calls] == ["pencil", "greedy"]
    gap = calls[0][1][0].merge_gap
    collapsed = [(given, kept) for given, kept in refined if kept < given]
    assert len(collapsed) == 1 and collapsed[0][1] == collapsed[0][0] - 1, refined
    assert est.n == 7 and np.min(np.diff(est.omega)) >= gap, est.omega
    assert not est.flag


@pytest.mark.parametrize("n_samples", [8, 12, 16])
def test_noise_never_flags_a_tiny_window(n_samples):
    """Seeded Gaussian noise in a 2*pi s window of 8, 12 or 16 samples: the
    capacity n // 4 leaves room for 1, 1 or 2 lines, too few to fit noise,
    so no estimate is flagged. A budget of n_max = 8 lines whatever the
    length fits such windows closely and flagged about half of them."""
    f_s = n_samples / (2.0 * math.pi)
    cfg = FreqEstimatorConfig(window=2.0 * math.pi)
    flagged = []
    for seed in range(50):
        noise = np.random.default_rng(seed).normal(size=n_samples)
        est = estimate_frequencies(SampledSignal(samples=noise, f_s=f_s), cfg)
        assert est.n <= capacity(cfg.n_max, n_samples) // 2
        if est.flag:
            flagged.append(seed)
    assert not flagged


def switching_run():
    """scenarios/switching.json simulated from seed 11's +/-1 init."""
    path = SCENARIOS / "switching.json"
    schedule = parse_schedule(path.read_text(), base_dir=path.parent)
    trace, _ = simulate(schedule, SimConfig(t_end=schedule.t_end), random_init(schedule.n, 11))
    return schedule, trace


@pytest.mark.parametrize("n_max", [8, 13, 14, 20])
def test_switching_segments_are_flagged_on_the_pencil_path(n_max, greedy_calls):
    """Every agent and segment of switching.json, window = segment length
    (102-113 samples, a Hankel matrix of 25-28 columns): at every n_max each
    estimate is flagged, within 1e-6 of the oracle's eigenvalues both ways,
    and no greedy call is made. Past n_max = 12 these windows used to go to
    the greedy loop, which left some estimates unflagged."""
    schedule, trace = switching_run()
    for seg in schedule.segments:
        dec = eigendecompose(seg.graph)
        lo, _ = trace.sample_range(seg.t_start, seg.t_end)
        for agent in range(schedule.n):
            sig = SampledSignal.from_trace(trace, agent, seg.t_start, seg.t_end)
            cfg = FreqEstimatorConfig(n_max=n_max, window=seg.t_end - seg.t_start)
            est = estimate_frequencies(sig, cfg)
            seen = dec.values[check_estimability(dec, trace.x[lo], trace.z[lo], agent)]
            assert est.flag, (seg.t_start, agent, est.residual_percent)
            for lam in est.lambdas:
                assert np.min(np.abs(dec.values - lam)) < 1e-6, (seg.t_start, agent, est.lambdas)
            for lam in seen:
                assert np.min(np.abs(est.lambdas - lam)) < 1e-6, (seg.t_start, agent, est.lambdas)
    assert not greedy_calls


# --- projected pencil against the full Hankel matrix ---------------------------------

def order_and_gap(s, k_max):
    """Model order at the largest ratio of consecutive singular values among
    the first k_max + 1, and that ratio."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = s[:k_max] / s[1 : k_max + 1]
    k = int(np.argmax(ratios)) + 1
    return k, float(ratios[k - 1])


def full_hankel_seed(y, ts, n_max, omega_min, omega_max):
    """Reference seed from the whole Hankel matrix: the QR of all its columns,
    then the SVD of R. Returns (order, gap ratio, sorted frequencies), the
    frequencies whether or not the gap clears ORDER_GAP."""
    cols = len(y) // 4
    k_max = 2 * n_max + 1
    r = np.linalg.qr(np.lib.stride_tricks.sliding_window_view(y, cols + 1), mode="r")
    _, s, vh = np.linalg.svd(r)
    k, gap = order_and_gap(s, k_max)
    v = vh[:k].T
    poles = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    poles = poles[poles.imag > 0]
    return k, gap, np.sort(np.clip(np.angle(poles) / ts, omega_min, omega_max))


def traced_pencil_seed(monkeypatch, sig, n_max):
    """_pencil_seed's result, with the order and gap ratio of the singular
    values its SVD returned."""
    svd = np.linalg.svd
    spectra = []

    def spy(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        spectra.append(out[1])
        return out

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", spy)
        seed = _pencil_seed(sig, capacity(n_max, len(sig.samples)))
    return seed, *order_and_gap(spectra[0], 2 * n_max + 1)


def assert_matches_full_hankel(monkeypatch, sig, n_max, tol=1e-6):
    """The projected seed keeps the full matrix's order, at least half its
    gap ratio, and frequencies within tol rad/s of its own; it is accepted
    exactly when the full matrix's gap clears ORDER_GAP. Returns the seed."""
    seed, k, gap = traced_pencil_seed(monkeypatch, sig, n_max)
    ref_k, ref_gap, ref_omegas = full_hankel_seed(sig.samples, sig.ts, n_max, *sig.band)
    assert k == ref_k, (k, ref_k)
    assert gap >= 0.5 * ref_gap, (gap, ref_gap)
    assert (seed is not None) == (ref_gap > ORDER_GAP), (gap, ref_gap)
    if seed is not None:
        assert len(seed) == len(ref_omegas)
        assert np.max(np.abs(np.sort(seed) - ref_omegas)) < tol, (seed, ref_omegas)
    return seed


class _Sampled(Exception):
    """Carries the matrix _pencil_seed hands to the QR, ending the call."""


def sampled_columns(monkeypatch, n_samples, n_max):
    """Indices of the Hankel columns _pencil_seed takes its basis from, read
    off the QR input for a ramp signal, whose column j starts with j."""
    def stop(a, *args, **kwargs):
        raise _Sampled(a[0])

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", stop)
        with pytest.raises(_Sampled) as sampled:
            k_max = capacity(n_max, n_samples)
            _pencil_seed(SampledSignal(samples=np.arange(float(n_samples)), f_s=1.0), k_max)
    return sampled.value.args[0].astype(int)


def test_projected_pencil_matches_full_hankel_on_n12_graphs_and_p5(monkeypatch):
    """Every agent of six random n = 12 graphs and of P5 (n_max = 14)."""
    for sig in n12_and_p5_signals():
        assert_matches_full_hankel(monkeypatch, sig, 14)


@pytest.mark.parametrize("sigma", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5])
def test_projected_pencil_matches_full_hankel_under_noise(monkeypatch, sigma):
    """Seeded Gaussian noise on one n = 12 agent: the projection onto spread
    columns keeps the gap (a basis from the first k_max + 1 columns, 1.9 s
    wide, loses it), and both decline once noise closes it."""
    g = random_connected_graph(np.random.default_rng(12), 12)
    trace, _ = simulate(TopologySchedule.single(g, 50.0), SimConfig(t_end=50.0),
                        random_init(12, 12))
    sig = SampledSignal.from_trace(trace, 0)
    y = sig.samples + np.random.default_rng(5).normal(0.0, sigma, len(sig.samples))
    assert_matches_full_hankel(monkeypatch, SampledSignal(samples=y, f_s=sig.f_s), 14)


def test_projected_pencil_separates_lines_aliased_at_the_column_step(monkeypatch):
    """Two lines 2*pi / (step * ts) apart take equal values at columns step
    apart, so columns exactly step apart span one mixed line, and under
    1e-9 noise keep about a tenth of the full matrix's gap. The spread
    columns mix steps of step and step + 1 and span both lines."""
    n_samples, n_max = 796, 14
    step = int(np.min(np.diff(sampled_columns(monkeypatch, n_samples, n_max))))
    t = np.arange(n_samples) / FS
    y = np.sin(2.0 * t) + 0.5 * np.sin((2.0 + 2.0 * math.pi * FS / step) * t + 1.0)
    y += np.random.default_rng(6).normal(0.0, 1e-9, n_samples)
    assert_matches_full_hankel(monkeypatch, SampledSignal(samples=y, f_s=FS), n_max)


def test_pencil_samples_distinct_columns_over_the_whole_width(monkeypatch):
    """min(k_max, cols) + 1 distinct columns, first and last included, for
    every Hankel width from 2 to 401 columns and every n_max to 20: a
    matrix narrower than k_max + 1 columns is sampled whole."""
    for n_max in range(1, 21):
        k_max = 2 * n_max + 1
        for cols in range(1, 401):
            idx = sampled_columns(monkeypatch, 4 * cols, n_max)
            if cols < k_max:
                assert idx.tolist() == list(range(cols + 1)), (n_max, cols, idx)
                continue
            assert len(np.unique(idx)) == k_max + 1, (n_max, cols, idx)
            assert idx[0] == 0 and idx[-1] == cols, (n_max, cols, idx)


@pytest.mark.parametrize("n_max", [1, 3, 6])
def test_pencil_on_the_narrowest_hankel_samples_every_column(monkeypatch, n_max):
    """At cols == k_max every column is sampled once, so the projection is
    the whole matrix and the seed is the full-matrix seed to 1e-9."""
    k_max = 2 * n_max + 1
    n_samples = 4 * k_max
    assert sampled_columns(monkeypatch, n_samples, n_max).tolist() == list(range(k_max + 1))
    t = np.arange(n_samples) / FS
    sig = SampledSignal(samples=sum(np.sin((1.5 + 7.0 * j) * t + j) for j in range(n_max)), f_s=FS)
    assert len(assert_matches_full_hankel(monkeypatch, sig, n_max, tol=1e-9)) == n_max


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


def test_freqs_to_eigenvalues_band_edge_is_the_estimators():
    """1 - LAMBDA_TOL, the estimator's lower band edge and the float its
    refine clips onto, maps to lambda = 0 (0.95 - 1.0 is a hair below
    -LAMBDA_TOL); anything below the edge is still spurious."""
    assert freqs_to_eigenvalues([1.0 - LAMBDA_TOL]).tolist() == [0.0]
    assert freqs_to_eigenvalues([0.95]).tolist() == [0.0]
    sig = tone(0.5, 50.0)
    clipped = refine_frequencies(sig, [0.96])
    assert clipped.tolist() == [1.0 - LAMBDA_TOL]
    assert freqs_to_eigenvalues(clipped).tolist() == [0.0]
    with pytest.raises(EstimationError, match="spurious peak at omega=0.9499 rad/s"):
        freqs_to_eigenvalues([0.9499])


def test_freqs_to_eigenvalues_requires_sorted():
    with pytest.raises(EstimationError, match="sorted"):
        freqs_to_eigenvalues([2.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_freqs_to_eigenvalues_rejects_non_finite(bad):
    with pytest.raises(EstimationError, match="frequencies must be finite"):
        freqs_to_eigenvalues([1.0, bad])


# --- estimator config --------------------------------------------------------------

def test_config_window_must_cover_slowest_period():
    with pytest.raises(EstimationError, match="slowest period"):
        FreqEstimatorConfig(window=3.0)


def test_config_rejects_bad_bounds():
    with pytest.raises(EstimationError):
        FreqEstimatorConfig(n_max=0)
    with pytest.raises(EstimationError):
        FreqEstimatorConfig(se=0.0)
    # n_max is a count: 2.5 would reach a slice, "3" a comparison, and True read as 1
    for bad in (2.5, "3", True, None, 3.0):
        with pytest.raises(TypeError, match="field 'n_max': .* is not an integer"):
            FreqEstimatorConfig(n_max=bad)
    assert FreqEstimatorConfig(n_max=np.int64(3)).n_max == 3


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


@pytest.mark.parametrize("hop", [2**63 - 1, 2**63, 10**20])
def test_spectrogram_hop_past_the_last_start_gives_one_frame(hop):
    """Any hop past the last window start gives the one frame at 0, also a
    hop past int64, which np.arange would take as an object step."""
    sig = tone(3.0, 10.0)
    data, one = spectrogram(sig, 64, hop), spectrogram(sig, 64, len(sig.samples))
    assert len(data.time_centers) == 1
    assert data.time_centers.tobytes() == one.time_centers.tobytes()
    assert data.magnitude.tobytes() == one.magnitude.tobytes()


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
