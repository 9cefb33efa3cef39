"""Command-line entry point: simulate, estimate, validate, spectrogram, rounds.

Outputs are plot-ready CSV/JSON only; rendering is left to the caller's
scripts. Defaults mirror the reference experiment (sample rate 100/(2*pi),
display threshold 0.1, 50 s estimation window) so a reproduction run needs
no flags. Every simulate run writes a manifest capturing the resolved
configuration; re-running the same invocation reproduces outputs byte for
byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    DEFAULT_SAMPLE_RATE,
    ConfigError,
    SimConfig,
    SimulationError,
    Trace,
    random_init,
    round_bound,
    simulate,
)
from .estimation import (
    EstimationError,
    FreqEstimatorConfig,
    SampledSignal,
    SpectrumEstimate,
    estimate_frequencies,
    spectrogram,
)
from .graph import (
    ParseError,
    ScheduleError,
    TopologySchedule,
    parse_edge_list,
    parse_schedule,
)
from . import oracle


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get("LAPSPEC_OUT_DIR") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_schedule(path: str, t_end: float | None) -> TopologySchedule:
    """Accept either a JSON schedule or a single edge-list file."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("["):
        return parse_schedule(text, base_dir=Path(path).parent)
    graph = parse_edge_list(text)
    return TopologySchedule.single(graph, t_end if t_end is not None else 50.0)


def _schedule_dict(schedule: TopologySchedule) -> list[dict]:
    return [
        {
            "t_start": seg.t_start,
            "t_end": seg.t_end,
            "n": seg.graph.n,
            "edges": sorted(list(e) for e in seg.graph.edges),
        }
        for seg in schedule.segments
    ]


def _initial_state(mode: str, n: int, seed: int):
    if mode == "ones":
        return np.ones(n), np.ones(n)
    return random_init(n, seed)


def write_trace_csv(trace: Trace, path: Path) -> None:
    """Trace CSV: header t,x_0..x_{n-1},z_0..z_{n-1}, full double precision."""
    n = trace.n
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"z_{i}" for i in range(n)])
    row = ",".join(["%.17g"] * (2 * n + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        # Row by row, so a large trace is never held as Python floats at once.
        for t, x, z in zip(trace.times.tolist(), trace.x, trace.z):
            fh.write(row % (t, *x.tolist(), *z.tolist()))


def read_trace_csv(path: Path) -> Trace:
    """Load a trace written by write_trace_csv (segments are not recorded)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if not header or header[0] != "t" or (len(header) - 1) % 2 != 0:
        raise ParseError(f"{path}: not a trace CSV (header {header[:3]}...)")
    n = (len(header) - 1) // 2
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    if len(times) < 2:
        raise ParseError(f"{path}: trace needs at least 2 samples")
    if data.shape[1] != len(header):
        raise ParseError(f"{path}: rows have {data.shape[1]} columns, header has {len(header)}")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise ParseError(f"{path}: non-finite value at line {row + 2}, column {col + 1}")
    period = times[1] - times[0]
    # Timestamps are written with %.17g, so a uniform grid deviates from its
    # first period only by rounding.
    tol = 1e-9 * period + 4.0 * np.spacing(np.abs(times).max())
    if not period > 0 or np.any(np.abs(np.diff(times) - period) > tol):
        raise ParseError(f"{path}: time column is not a uniform increasing grid")
    f_s = 1.0 / period
    return Trace(times=times, x=data[:, 1 : n + 1], z=data[:, n + 1 :], f_s=f_s, segments=())


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    schedule = _load_schedule(args.schedule, args.t_end)
    t_end = args.t_end if args.t_end is not None else schedule.t_end
    cfg = SimConfig(t_end=t_end, f_s=args.fs, h=args.step)
    x0, z0 = _initial_state(args.init, schedule.n, args.seed)
    trace, counter = simulate(schedule, cfg, (x0, z0))

    out = _out_dir(args)
    trace_path = out / "trace.csv"
    messages_path = out / "messages.json"
    manifest_path = out / "manifest.json"
    write_trace_csv(trace, trace_path)
    _write_json(counter.to_dict(), messages_path)
    manifest = {
        "tool": "lapspec",
        "version": __version__,
        "command": "simulate",
        "config": {
            "schedule": _schedule_dict(schedule),
            "t_end": t_end,
            "f_s": args.fs,
            "h": cfg.step_size(),
            "seed": args.seed,
            "init": args.init,
        },
        "outputs": {
            "trace": trace_path.name,
            "messages": messages_path.name,
        },
    }
    _write_json(manifest, manifest_path)
    print(
        f"simulated {trace.num_samples} samples over [0, {t_end:g}] s "
        f"({schedule.n} agents, {len(trace.segments)} segment(s)) -> {trace_path}"
    )
    return 0


def _estimate_span(
    trace: Trace, args, t_start: float | None, t_end: float | None, default_window: float
) -> SpectrumEstimate:
    """args.agent's estimate over [t_start, t_end] (None, None: the whole
    trace) with a --window-second window, default_window when unset.

    A window longer than the span is an error; over the whole trace the
    estimator itself rejects a window with more samples than the trace has.
    """
    window = args.window if args.window is not None else default_window
    if t_start is not None and window > t_end - t_start + 1e-9:
        raise EstimationError(f"window {window:g} s exceeds segment length {t_end - t_start:g} s")
    sig = SampledSignal.from_trace(trace, args.agent, t_start=t_start, t_end=t_end)
    cfg = FreqEstimatorConfig(n_max=args.nmax, se=args.se, window=window)
    return estimate_frequencies(sig, cfg)


def cmd_estimate(args) -> int:
    trace = read_trace_csv(Path(args.trace))
    if not 0 <= args.agent < trace.n:
        raise EstimationError(f"agent {args.agent} out of range [0, {trace.n})")

    if args.per_segment:
        if not args.schedule:
            raise EstimationError("--per-segment requires --schedule for boundaries")
        schedule = _load_schedule(args.schedule, None)
        blocks = []
        for seg in schedule.segments:
            entry: dict = {"t_start": seg.t_start, "t_end": seg.t_end}
            try:
                est = _estimate_span(
                    trace, args, seg.t_start, seg.t_end, seg.t_end - seg.t_start
                )
                entry["estimate"] = est.to_dict()
            except EstimationError as exc:
                entry["error"] = str(exc)
            blocks.append(entry)
        payload = {"agent": args.agent, "per_segment": blocks}
    else:
        duration = trace.times[-1] - trace.times[0]
        est = _estimate_span(trace, args, None, None, min(50.0, duration))
        payload = {"agent": args.agent, "estimate": est.to_dict()}

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out_dir or os.environ.get("LAPSPEC_OUT_DIR"):
        _write_json(payload, _out_dir(args) / "estimate.json")
    return 0


def _validate_segment(seg: dict, trace: Trace, t_start: float, t_end: float, args) -> None:
    """Add the agent's estimate over [t_start, t_end] to the segment's oracle
    report, matching each eigenvalue to the nearest estimated one."""
    lam_hat: list[float] = []
    amp_hat: list[float] = []
    try:
        est = _estimate_span(trace, args, t_start, t_end, t_end - t_start)
        lam_hat = [float(v) for v in est.lambdas]
        amp_hat = [float(a) for a in est.amplitudes]
        seg["estimate"] = est.to_dict()
    except EstimationError as exc:
        seg["estimate"] = {"error": str(exc)}

    errs = []
    for entry in seg["per_eigenvalue"]:
        k = None
        if lam_hat:
            k = min(range(len(lam_hat)), key=lambda idx: abs(lam_hat[idx] - entry["lambda"]))
            if entry["estimable"]:
                errs.append(abs(entry["lambda"] - lam_hat[k]))
        entry["estimated"] = lam_hat[k] if k is not None else None
        entry["estimated_amplitude"] = amp_hat[k] if k is not None else None
    seg["max_abs_error_estimable"] = max(errs) if errs else None
    seg["t_start"] = t_start
    seg["t_end"] = t_end


def cmd_validate(args) -> int:
    schedule = _load_schedule(args.schedule, args.t_end)
    t_end = args.t_end if args.t_end is not None else schedule.t_end
    cfg = SimConfig(t_end=t_end, f_s=args.fs, h=args.step)
    x0, z0 = _initial_state(args.init, schedule.n, args.seed)
    trace, _ = simulate(schedule, cfg, (x0, z0))

    energy = trace.x**2 + trace.z**2
    total = energy.sum(axis=1)
    drift = float(np.max(np.abs(total - total[0])) / total[0]) if total[0] > 0 else 0.0

    segments = []
    warnings: list[str] = []
    for span in trace.segments:
        # Lines over the segment start from the state at its first sample,
        # the same sample the segment's estimate starts from.
        lo, _ = trace.sample_range(span.t_start, span.t_end)
        seg = oracle.oracle_report(
            span.graph, trace.x[lo], trace.z[lo], args.agent,
            cluster_tol=args.cluster_tol, rank_tol=args.rank_tol,
        )
        warnings.extend(seg.pop("warnings"))
        _validate_segment(seg, trace, span.t_start, span.t_end, args)
        segments.append(seg)

    payload = {
        "agent": args.agent,
        "seed": args.seed,
        "init": args.init,
        "energy": {
            "initial": float(total[0]),
            "final": float(total[-1]),
            "relative_drift": drift,
        },
        "segments": segments,
        "warnings": warnings,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out_dir or os.environ.get("LAPSPEC_OUT_DIR"):
        _write_json(payload, _out_dir(args) / "validation.json")
    return 0


def cmd_spectrogram(args) -> int:
    trace = read_trace_csv(Path(args.trace))
    sig = SampledSignal.from_trace(trace, args.agent)
    window_len = args.window_len
    hop = args.hop if args.hop is not None else max(1, window_len // 8)
    data = spectrogram(sig, window_len, hop, window=args.stft_window)
    out = _out_dir(args)
    spec_path = out / "spectrogram.csv"
    mask_path = out / "spectrogram_mask.csv"
    meta_path = out / "spectrogram_meta.json"
    header = "t_center," + ",".join(f"{w:.10g}" for w in data.omega)
    with open(spec_path, "w") as fh:
        fh.write(header + "\n")
        for k, t_c in enumerate(data.time_centers):
            fh.write(f"{t_c:.17g}," + ",".join(f"{v:.8g}" for v in data.magnitude[k]) + "\n")
    mask = (data.magnitude > args.threshold).astype(int)
    with open(mask_path, "w") as fh:
        fh.write(header + "\n")
        for k, t_c in enumerate(data.time_centers):
            fh.write(f"{t_c:.17g}," + ",".join(str(v) for v in mask[k]) + "\n")
    _write_json(
        {
            "agent": args.agent,
            "window_len": window_len,
            "hop": hop,
            "threshold": args.threshold,
            "window": args.stft_window,
            "resolution_rad_per_s": data.resolution,
            "slices": len(data.time_centers),
        },
        meta_path,
    )
    print(f"wrote {len(data.time_centers)} slices x {len(data.omega)} bins -> {spec_path}")
    return 0


def cmd_rounds(args) -> int:
    if args.schedule:
        schedule = _load_schedule(args.schedule, None)
        delta_max = schedule.max_degree()
    elif args.delta_max is not None:
        delta_max = args.delta_max
    else:
        raise ConfigError("provide --delta-max or a schedule file")
    bound = round_bound(delta_max, args.t_min, args.fs)
    payload = {
        "delta_max": delta_max,
        "t_min": args.t_min,
        "f_s": args.fs,
        "bound": bound,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapspec",
        description="Estimate Laplacian eigenvalues from decentralized oscillations.",
    )
    parser.add_argument("--version", action="version", version=f"lapspec {__version__}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=None, help="output root (or $LAPSPEC_OUT_DIR)")
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--fs", type=float, default=DEFAULT_SAMPLE_RATE,
                      help="sample rate, samples/s (default 100/(2*pi))")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=int, default=0, help="RNG seed for +/-1 init")
    sim.add_argument("--step", type=float, default=None,
                     help="RK4 step in seconds (default: sampling period / 10)")
    est = argparse.ArgumentParser(add_help=False)
    est.add_argument("--window", type=float, default=None,
                     help="estimation window in seconds")
    est.add_argument("--nmax", type=int, default=8, help="frequency-count bound")
    est.add_argument("--se", type=float, default=1.0,
                     help="reconstruction-error threshold, percent")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[out, rate, sim],
                           help="run the interaction rule over a schedule")
    p_sim.add_argument("schedule", help="JSON schedule or edge-list file")
    p_sim.add_argument("--t-end", type=float, default=None,
                       help="simulation end (default: schedule end, or 50 s)")
    p_sim.add_argument("--init", choices=("random", "ones"), default="random")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", parents=[out, est],
                           help="estimate eigenvalues from a trace")
    p_est.add_argument("trace", help="trace CSV from simulate")
    p_est.add_argument("--agent", type=int, required=True)
    p_est.add_argument("--per-segment", action="store_true",
                       help="one estimate per schedule segment")
    p_est.add_argument("--schedule", default=None,
                       help="schedule file (required with --per-segment)")
    p_est.set_defaults(func=cmd_estimate)

    p_val = sub.add_parser("validate", parents=[out, rate, sim, est],
                           help="simulate and compare against the dense oracle")
    p_val.add_argument("schedule", help="JSON schedule or edge-list file")
    p_val.add_argument("--agent", type=int, default=0)
    p_val.add_argument("--t-end", type=float, default=None)
    p_val.add_argument("--init", choices=("random", "ones"), default="random")
    p_val.add_argument("--rank-tol", type=float, default=1e-9,
                       help="SVD threshold for rank decisions, relative to ||C||_2")
    p_val.add_argument("--cluster-tol", type=float, default=1e-8,
                       help="eigenvalue multiplicity clustering tolerance")
    p_val.set_defaults(func=cmd_validate)

    p_spec = sub.add_parser("spectrogram", parents=[out],
                            help="STFT magnitudes and display mask from a trace")
    p_spec.add_argument("trace", help="trace CSV from simulate")
    p_spec.add_argument("--agent", type=int, required=True)
    p_spec.add_argument("--window-len", type=int, default=256, help="window in samples")
    p_spec.add_argument("--hop", type=int, default=None, help="hop in samples")
    p_spec.add_argument("--threshold", type=float, default=0.1,
                        help="display-mask amplitude threshold")
    p_spec.add_argument("--stft-window", choices=("hann", "rect"), default="hann")
    p_spec.set_defaults(func=cmd_spectrogram)

    p_rounds = sub.add_parser("rounds", parents=[rate],
                              help="communication-round bound 4*max_degree*T*fs")
    p_rounds.add_argument("schedule", nargs="?", default=None,
                          help="optional schedule to derive the max degree")
    p_rounds.add_argument("--delta-max", type=int, default=None)
    p_rounds.add_argument("--t-min", type=float, default=2.0 * math.pi,
                          help="window length in seconds (default 2*pi)")
    p_rounds.set_defaults(func=cmd_rounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ScheduleError, ConfigError, EstimationError,
            SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
