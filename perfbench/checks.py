"""Correctness checks, run outside the timed span.

Every operation a workload performs is recorded once in a Ledger with the
problems its check found. An operation fails when it raised, exited
non-zero, or any check on its output failed; a failure never aborts the
run. Problems carry a kind; kinds listed in KNOWN_DEFECTS are defects of
the program that the benchmark reproduces on purpose, so that a fix reads
as an improvement in failed_ratio rather than as a change of inputs.

Ground truth comes from the oracle (eigendecompose, modal_coefficients,
check_estimability) and from reference computations written here: the
per-eigenspace PBH rank, the closed-form message count, and the STFT.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from lapspec import oracle as ls_oracle

HIT_TOL = 1e-2          # an estimate hits an eigenvalue within this distance
TARGET_AMPLITUDE = 0.05  # lines at least this strong are recall targets
COEFF_TOL = 1e-6        # validate coefficients vs the oracle
PBH_TOL = 1e-8          # |v_j[agent]| above this counts as observed

KNOWN_DEFECTS = {
    "rank": (
        "verify_rank_relation stacks C, CM, ..., CM^(d-1) and the SVD loses rank "
        "from about n = 10: validate on the 60-agent path reports rank 21/60 with "
        "a false 'rank deficiency', and most observing agents of the n = 12 "
        "graphs in 'agents' get a rank below the PBH count"
    ),
    "merged_pair": (
        "estimate_frequencies can merge two eigenvalues closer than the window's "
        "resolution 2*pi/T into one line near them and still return flag true; "
        "seen on a few of the random n = 12 graphs in 'agents'"
    ),
    "segment_state": (
        "validate reports the coefficients and estimability of segments 2 and 3 "
        "of scenarios/switching.json from the initial state, not from the state "
        "at the segment start"
    ),
}


@dataclass
class Ledger:
    """Operations attempted, their problems, and the recall/precision tally."""

    attempted: int = 0
    failures: list[tuple[str, list[tuple[str, str]]]] = field(default_factory=list)
    targets: int = 0
    hits: int = 0
    lines: int = 0
    spurious: int = 0
    lambda_err_max: float = 0.0
    rank_wrong: int = 0

    def record(self, op: str, problems: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append((op, problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def unexpected(self) -> list[tuple[str, list[tuple[str, str]]]]:
        """Failures with a problem outside KNOWN_DEFECTS."""
        return [
            (op, probs) for op, probs in self.failures
            if any(kind not in KNOWN_DEFECTS for kind, _ in probs)
        ]


def raised(exc: BaseException | None) -> list[tuple[str, str]]:
    return [] if exc is None else [("raised", f"{type(exc).__name__}: {exc}")]


def array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def trace_digest(trace) -> str:
    return array_digest(trace.times, trace.x, trace.z)


def degrees(graph) -> np.ndarray:
    deg = np.zeros(graph.n, dtype=np.int64)
    for i, j in graph.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def expected_messages(segments: list[tuple[object, int]]) -> np.ndarray:
    """Per-agent closed-form count: sum over segments of 4 * deg * steps."""
    total = None
    for graph, steps in segments:
        part = 4 * degrees(graph) * int(steps)
        total = part if total is None else total + part
    return total


def check_messages(per_agent, total, segments) -> list[tuple[str, str]]:
    want = expected_messages(segments)
    got = np.asarray(per_agent, dtype=np.int64)
    if got.shape != want.shape or not np.array_equal(got, want) or int(total) != int(want.sum()):
        return [("messages", f"total {int(total)} != closed form {int(want.sum())}")]
    return []


def trace_segments(trace, h: float) -> list[tuple[object, int]]:
    """(graph, steps) for each simulated segment of a trace."""
    return [(s.graph, round((s.t_end - s.t_start) / h)) for s in trace.segments]


def pbh_rank(dec, agent: int) -> int:
    """Per-eigenspace PBH count sum_j rank(C V_j) for C = e_agent^T."""
    return sum(int(np.linalg.norm(v[agent]) > PBH_TOL) for v in dec.vectors)


def line_truth(dec, x, z, agent: int) -> np.ndarray:
    """Oracle line amplitude of each distinct eigenvalue in agent's x signal."""
    return ls_oracle.modal_coefficients(dec, x, z, agent).line_amplitudes()


def score_estimate(
    ledger: Ledger, lambdas, flag: bool, dec, x, z, agent: int, n_max: int, window: float
) -> list[tuple[str, str]]:
    """Tally recall and precision for one (agent, window) estimate.

    (x, z) is the state at the window start. Targets are the eigenvalues
    whose oracle line amplitude is at least TARGET_AMPLITUDE; a returned
    line is spurious unless it lies within HIT_TOL of an eigenvalue that
    check_estimability says the agent can see. Windows with more targets
    than n_max cannot be recovered by design and are not scored. A flagged
    estimate (flag true) must hit every target and return no spurious
    line; an unflagged one only counts in the tally, since the estimator
    itself reports that it failed. A flagged estimate whose every miss and
    spurious line comes from a pair of eigenvalues closer than the window
    resolution is the known 'merged_pair' defect.
    """
    lam = np.asarray(lambdas, dtype=float)
    values = dec.values
    targets = values[line_truth(dec, x, z, agent) >= TARGET_AMPLITUDE]
    visible = values[ls_oracle.check_estimability(dec, x, z, agent)]
    if len(targets) > n_max:
        return []
    missed = []
    for t in targets:
        err = float(np.min(np.abs(lam - t))) if lam.size else np.inf
        if err <= HIT_TOL:
            ledger.hits += 1
            ledger.lambda_err_max = max(ledger.lambda_err_max, err)
        else:
            missed.append(float(t))
    spurious = [float(v) for v in lam if not np.any(np.abs(visible - v) <= HIT_TOL)]
    ledger.targets += len(targets)
    ledger.lines += lam.size
    ledger.spurious += len(spurious)
    if flag and (missed or spurious):
        resolution = 2 * np.pi / window
        merged = all(_in_close_pair(values, v, lam, resolution) for v in missed + spurious)
        kind = "merged_pair" if merged else "estimate"
        return [(kind, f"flagged estimate missed {missed}, spurious {spurious}")]
    return []


def _in_close_pair(values: np.ndarray, v: float, lam: np.ndarray, resolution: float) -> bool:
    """Whether v (a missed eigenvalue or a spurious line) sits at a pair of
    eigenvalues closer than the resolution that a returned line covers."""
    e = int(np.argmin(np.abs(values - v)))
    neighbours = [values[j] for j in (e - 1, e + 1) if 0 <= j < len(values)]
    close = [u for u in neighbours if abs(u - values[e]) < resolution]
    if not close or abs(v - values[e]) > resolution / 2:
        return False
    lo, hi = min(values[e], *close), max(values[e], *close)
    return bool(np.any((lam >= lo - resolution / 2) & (lam <= hi + resolution / 2)))


def check_rank_report(report, dec, agent: int, ledger: Ledger) -> list[tuple[str, str]]:
    """verify_rank_relation output against the PBH count."""
    want = pbh_rank(dec, agent)
    if (report.rank_laplacian, report.rank_system, report.relation_holds) != (want, 2 * want, True):
        ledger.rank_wrong += 1
        return [("rank", f"agent {agent}: rank L {report.rank_laplacian}, A "
                 f"{report.rank_system}, PBH {want}")]
    return []


def stft_reference(samples: np.ndarray, window_len: int, hop: int, zero_pad: int = 4) -> np.ndarray:
    """Hann-windowed, amplitude-calibrated STFT magnitudes, one batched rfft."""
    w = np.hanning(window_len)
    nfft = window_len * zero_pad
    nfft += nfft % 2
    starts = np.arange(0, len(samples) - window_len + 1, hop)
    frames = samples[starts[:, None] + np.arange(window_len)] * w
    spec = np.abs(np.fft.rfft(frames, nfft, axis=1))
    mag = spec * (2.0 / w.sum())
    mag[:, 0] = spec[:, 0] / w.sum()
    mag[:, -1] = spec[:, -1] / w.sum()
    return mag


def check_spectrogram(magnitude: np.ndarray, samples, window_len, hop, rtol: float) -> list[tuple[str, str]]:
    ref = stft_reference(np.asarray(samples, dtype=float), window_len, hop)
    if magnitude.shape != ref.shape or not np.allclose(magnitude, ref, rtol=rtol, atol=1e-10):
        return [("spectrogram", f"magnitudes differ from the reference STFT {ref.shape}")]
    return []


def check_validate(payload: dict, segments: list[dict], x0, z0, agent: int,
                   ledger: Ledger, n_max: int) -> list[tuple[str, str]]:
    """One validate JSON against the oracle's truth.

    segments holds, per simulated segment, the graph, its decomposition and
    the state (x, z) at the snapped segment start. Coefficients must match
    the state at the segment start; a segment whose coefficients match the
    initial state instead is the known 'segment_state' defect.
    """
    problems: list[tuple[str, str]] = []
    got = payload.get("segments", [])
    if len(got) != len(segments):
        return [("output", f"{len(got)} segments, expected {len(segments)}")]
    energy0 = float(np.sum(x0**2 + z0**2))
    energy = payload["energy"]
    if abs(energy["initial"] - energy0) > 1e-12 * energy0 or energy["relative_drift"] > 1e-6:
        problems.append(("energy", f"energy {payload['energy']}"))
    for k, (seg, truth) in enumerate(zip(got, segments)):
        dec = truth["dec"]
        if not np.allclose(seg["eigenvalues"], dec.values, atol=1e-9):
            problems.append(("eigenvalues", f"segment {k} eigenvalues differ"))
            continue
        amps = line_truth(dec, truth["x"], truth["z"], agent)
        flags = ls_oracle.check_estimability(dec, truth["x"], truth["z"], agent)
        coef = np.array([e["coefficient"] for e in seg["per_eigenvalue"]])
        est_flags = np.array([e["estimable"] for e in seg["per_eigenvalue"]])
        if not (np.allclose(coef, amps, atol=COEFF_TOL) and np.array_equal(est_flags, flags)):
            stale = line_truth(dec, x0, z0, agent)
            kind = "segment_state" if np.allclose(coef, stale, atol=COEFF_TOL) else "coefficient"
            problems.append((kind, f"segment {k} coefficients {np.round(coef, 4).tolist()} "
                                   f"!= {np.round(amps, 4).tolist()}"))
        want = pbh_rank(dec, agent)
        rank = seg["rank"]
        if (rank["L"], rank["A"], rank["full"], rank["relation_holds"]) != (
            want, 2 * want, want == dec.n, True
        ):
            ledger.rank_wrong += 1
            problems.append(("rank", f"segment {k} rank L {rank['L']}/{rank['n']}, PBH {want}"))
        est = seg["estimate"]
        window = seg["t_end"] - seg["t_start"]
        if "error" in est:
            problems.append(("raised", f"segment {k} estimate: {est['error']}"))
        else:
            problems += score_estimate(ledger, est["lambda"], est["flag"], dec,
                                       truth["x"], truth["z"], agent, n_max, window)
    return problems
