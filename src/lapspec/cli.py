"""Command-line entry point: simulate, estimate, validate, spectrogram, rounds.

Outputs are plot-ready CSV/JSON only; rendering is left to the caller's
scripts. Defaults mirror the reference experiment (sample rate 100/(2*pi),
display threshold 0.1, 50 s estimation window) so a reproduction run needs
no flags. Every simulate run writes a manifest capturing the resolved
configuration; re-running the same invocation reproduces outputs byte for
byte.

simulate writes the trace CSV from the simulator's row stream as the rows
come, so it holds one state row and the writer, never the trace. Every CSV
goes through one writer, _RowWriter, which takes the time column and any
iterable of rows: a stream, or a finished table's array.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import signal
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    DEFAULT_SAMPLE_RATE,
    ConfigError,
    SimConfig,
    SimulationError,
    Trace,
    _samples,
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
    TIME_TOL,
    ParseError,
    TopologySchedule,
    _agent,
    parse_edge_list,
    parse_schedule,
)
from . import oracle


def _out_dir(args) -> Path:
    path = Path(args.out_dir or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_schedule(path: str, t_end: float | None) -> tuple[TopologySchedule, list[str]]:
    """Accept either a JSON schedule or a single edge-list file. Return it
    with the text of each warning its loading raised (a disconnected segment).
    An edge list's ParseError is prefixed with its path, as an edges_file's is."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        if text.lstrip().startswith("["):
            schedule = parse_schedule(text, base_dir=Path(path).parent)
        else:
            try:
                graph = parse_edge_list(text)
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from None
            schedule = TopologySchedule.single(graph, t_end if t_end is not None else 50.0)
    return schedule, [str(w.message) for w in caught]


def _schedule(path: str, t_end: float | None) -> TopologySchedule:
    """_load_schedule's schedule; each warning is one `warning: ...` line on stderr."""
    schedule, notes = _load_schedule(path, t_end)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return schedule


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


# Cells (the time column included) a table needs before a forked formatter
# takes its rows. The fork and the per-row sends cost the parent little, but
# the formatter shares the host with it. Streaming simulate's rows of a ring
# on a 2-core host, the formatter lost 8 of 9 interleaved runs at 17k-160k
# cells, won 7 of 9 at 200k, drew about even at 400k-800k and won every run
# from 1.6M (3.2M cells, the 2000-agent trace: 1.76 s against 3.00 s).
FORK_CELLS = 200_000


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _format_rows(fh, line: str, times: np.ndarray, rows) -> None:
    # Row by row, so a large table is never held as Python numbers at once.
    for t, row in zip(times.tolist(), rows):
        fh.write(line % (t, *row.tolist()))


class _RowWriter:
    """The one CSV row writer: write(times, rows) writes the header, then per
    row its time (%.17g) and cells in printf format cell. rows is any
    iterable of 1-D rows: a finished table's 2-D array, or a stream such as
    simulate's, which the writer pulls row by row and never holds. A stream
    of at least FORK_CELLS cells, with more than one usable CPU and os.fork,
    gets one forked formatter at its first row, which inherits times and is
    sent each row's raw bytes as the stream yields it; the parent formats
    every other table, a finished one included. Either way the same line
    formats each row into a temporary file beside path, which os.replace
    moves onto path only once every row is written: a failure or an
    interrupt, in the stream too, leaves path as it was. A failed formatter,
    or a failed write in the parent, raises OSError naming path and the
    reason. Use it in a with block: on every exit a running formatter is
    killed and reaped, and the temporary file removed.
    """

    def __init__(self, path: Path, header: str, cell: str) -> None:
        self.path, self.header, self.cell = Path(path), header, cell
        self.tmp: str | None = None
        self.pid: int | None = None  # the formatter, until reaped
        self.rows = self.reason = None  # its pipes: rows to it, its failure reason back

    def __enter__(self) -> "_RowWriter":
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        for pipe in (self.rows, self.reason):
            if pipe is not None:
                pipe.close()
        if self.tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.tmp)

    def _open_tmp(self):
        """The temporary file beside path, holding the header."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, self.tmp = tempfile.mkstemp(prefix=f".{self.path.name}.", suffix=".tmp",
                                        dir=self.path.parent)
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # the mode open(path, "w") would give
        fh = open(fd, "w")
        fh.write(self.header + "\n")
        return fh

    def _fork(self, fh, line: str, times: np.ndarray, first: np.ndarray) -> None:
        """Fork the formatter, which appends the line of each row read from
        the rows pipe (first's size and dtype) to fh, and its failure
        reason, if any, to the reason pipe. It calls only frombuffer,
        tolist, % formatting and file writes, so no BLAS runs after the
        fork, and leaves through os._exit: it never unwinds into its
        caller's frames or flushes a buffer but the file's."""
        rows_r, rows_w = os.pipe()
        reason_r, reason_w = os.pipe()
        self.rows, self.reason = open(rows_w, "wb", buffering=0), open(reason_r, "rb")
        try:
            fh.flush()  # the header is the parent's: the formatter inherits no text
            self.pid = os.fork()
            if self.pid == 0:
                status = 1
                try:
                    self.rows.close()  # else the pipe never ends
                    with open(rows_r, "rb") as src:  # one row's bytes per read
                        received = iter(lambda: src.read(first.nbytes), b"")
                        _format_rows(fh, line, times,
                                     (np.frombuffer(row, first.dtype) for row in received))
                    fh.flush()
                    status = 0
                except BaseException as exc:  # the formatter exits below, whatever it was
                    # One short write: the pipe holds it without a reader.
                    os.write(reason_w, f"{type(exc).__name__}: {exc}".encode()[:4000])
                finally:
                    os._exit(status)
        finally:
            os.close(rows_r)
            os.close(reason_w)

    def _send(self, row: np.ndarray) -> None:
        """Send the formatter one row's bytes; if it has left, raise its reason."""
        data = memoryview(row).cast("B")
        try:
            while data:  # a signal handler can cut a write short
                data = data[self.rows.write(data) :]
        except BrokenPipeError:
            self._reap()  # the formatter left early: raise its reason
            raise

    def _reap(self) -> None:
        """End the rows pipe, wait for the formatter, and raise OSError with
        its reason if it failed."""
        self.rows.close()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = None
        reason = self.reason.read().decode(errors="replace")
        if status or reason:
            raise OSError(f"{self.path}: the row formatter failed: "
                          f"{reason or f'wait status {status}'}")

    def write(self, times: np.ndarray, rows) -> None:
        """Write times with rows, then move the file onto path."""
        streamed = not isinstance(rows, np.ndarray)
        rows = iter(rows)
        first = next(rows)  # every table has a row: a trace 2 or more, a spectrogram 1 or more
        line = ",".join(["%.17g"] + [self.cell] * first.size) + "\n"
        rows = itertools.chain((first,), rows)
        try:
            with self._open_tmp() as fh:
                if (streamed and len(times) * (first.size + 1) >= FORK_CELLS
                        and _usable_cpus() > 1 and hasattr(os, "fork")):
                    self._fork(fh, line, times, first)
                else:
                    _format_rows(fh, line, times, rows)
        except OSError as exc:
            raise OSError(f"{self.path}: {exc}") from exc
        if self.pid is not None:
            for row in rows:
                self._send(row)
            self._reap()
        os.replace(self.tmp, self.path)
        self.tmp = None


def _write_rows(path: Path, header: str, cell: str, times: np.ndarray, rows) -> None:
    """_RowWriter's CSV of times and rows, a finished table or a stream."""
    with _RowWriter(path, header, cell) as writer:
        writer.write(times, rows)


def _trace_header(n: int) -> str:
    """The trace CSV header of n agents: t,x_0..x_{n-1},z_0..z_{n-1}."""
    return ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"z_{i}" for i in range(n)])


def write_trace_csv(trace: Trace, path: Path) -> None:
    """Trace CSV: _trace_header's header, full double precision."""
    _write_rows(path, _trace_header(trace.n), "%.17g", trace.times, trace.states)


def _counted_rows(lines, path: Path, cells: int):
    """Yield the lines after the header, each one data row, raising on a line
    whose cell count is not the header's: loadtxt's usecols reads a row with
    extra cells without a word, and an empty or comment line is one cell."""
    for k, line in enumerate(lines, start=2):
        if line.count(",") != cells - 1:
            raise ParseError(
                f"{path}: line {k} has {line.count(',') + 1} columns, header has {cells}")
        yield line


def _undecodable(path: Path, exc: UnicodeDecodeError) -> ParseError:
    """The error for the first byte of path that exc's codec cannot decode.
    The text reader's exc gives its offset in a decoded block, so the file
    is read again as bytes, one line at a time: past the header the byte is
    named by its file line and column, as every cell error is."""
    with open(path, "rb") as fh:
        for k, raw in enumerate(fh, start=1):
            try:
                raw.decode(exc.encoding)
            except UnicodeDecodeError as bad:
                if k == 1:  # the offset in the header is its offset in the file
                    return ParseError(f"{path}: {bad}")
                return ParseError(f"{path}: byte 0x{raw[bad.start]:02x} at line {k}, column "
                                  f"{raw[: bad.start].count(b',') + 1} is not {exc.encoding}")
    return ParseError(f"{path}: {exc}")


def read_trace_csv(path: Path, agent: int | None = None):
    """Load a trace written by write_trace_csv. The file must be what it
    writes: its header exactly, then one data row per line, with no comment
    or empty line (segments are not recorded).

    With an agent, return (n, trace): the header's agent count and a
    one-agent trace of that agent's x and z columns, the only cells parsed
    besides t. An agent outside the header's [0, n) is rejected before any
    data row is read. Both reads take one route: the cell count of every row,
    the text encoding and the time grid are checked over the whole file, and
    an unparsable or non-finite cell among the columns parsed, or a byte
    past the header that is not text, is named by its file line and column.
    """
    with open(path) as fh:
        try:
            header = fh.readline().strip()
        except UnicodeDecodeError as exc:  # its block can reach past the header
            raise _undecodable(path, exc) from None
        cells = header.split(",")
        n = (len(cells) - 1) // 2
        if n < 1 or header != _trace_header(n):
            raise ParseError(f"{path}: not a trace CSV (header {cells[:3]}...)")
        if agent is not None:
            agent = _agent(agent, n)
        columns = range(len(cells)) if agent is None else (0, 1 + agent, 1 + n + agent)
        with warnings.catch_warnings():
            # A file with no data rows gets its named error below.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                # comments=None: a "#" is an unparsable cell, not the start of a comment.
                data = np.loadtxt(_counted_rows(fh, path, len(cells)), delimiter=",",
                                  comments=None, usecols=columns, ndmin=2)
            except ParseError:
                raise
            except UnicodeDecodeError as exc:
                raise _undecodable(path, exc) from None
            except ValueError as exc:
                found = re.search(r"string (.*) to \w+ at row (\d+), column (\d+)", str(exc))
                if found is None:
                    raise ParseError(f"{path}: {exc}") from None
                raise ParseError(f"{path}: unparsable value {found[1]} at line "
                                 f"{int(found[2]) + 2}, column {found[3]}") from None
    times = data[:, 0]
    if len(times) < 2:
        raise ParseError(f"{path}: trace needs at least 2 samples")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise ParseError(f"{path}: non-finite value at line {row + 2}, column {columns[col] + 1}")
    period = times[1] - times[0]
    # Timestamps are written with %.17g, so a uniform grid deviates from its
    # first period only by rounding.
    tol = 1e-9 * period + 4.0 * np.spacing(np.abs(times).max())
    if not period > 0 or np.any(np.abs(np.diff(times) - period) > tol):
        raise ParseError(f"{path}: time column is not a uniform increasing grid")
    trace = Trace(times=times, states=data[:, 1:], f_s=1.0 / period, segments=())
    return trace if agent is None else (n, trace)


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit(payload: dict, args, name: str) -> None:
    """Print payload as JSON; also write it to --out-dir as name when given."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out_dir:
        _write_json(payload, _out_dir(args) / name)


def _sim_inputs(args, schedule: TopologySchedule) -> tuple[SimConfig, tuple]:
    """The run up to --t-end (default: the schedule's end) and the --init state."""
    t_end = args.t_end if args.t_end is not None else schedule.t_end
    n = schedule.n
    init = (np.ones(n), np.ones(n)) if args.init == "ones" else random_init(n, args.seed)
    return SimConfig(t_end=t_end, f_s=args.fs, h=args.step), init


def cmd_simulate(args) -> int:
    schedule = _schedule(args.schedule, args.t_end)
    cfg, init = _sim_inputs(args, schedule)
    times, segments, counter, rows = _samples(schedule, cfg, init)
    trace_path = Path(args.out_dir or ".") / "trace.csv"
    # write_trace_csv's file, written from simulate's rows as they come: no trace is held.
    _write_rows(trace_path, _trace_header(schedule.n), "%.17g", times, rows)
    out = _out_dir(args)
    messages_path = out / "messages.json"
    manifest_path = out / "manifest.json"
    _write_json(counter.to_dict(), messages_path)
    manifest = {
        "tool": "lapspec",
        "version": __version__,
        "command": "simulate",
        "config": {
            "schedule": _schedule_dict(schedule),
            "t_end": cfg.t_end,
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
        f"simulated {len(times)} samples over [0, {cfg.t_end:g}] s "
        f"({schedule.n} agents, {len(segments)} segment(s)) -> {trace_path}"
    )
    return 0


def _estimate_span(
    trace: Trace, agent: int, args, t_start: float | None = None, t_end: float | None = None
) -> SpectrumEstimate:
    """The estimate of the trace's agent over [t_start, t_end] (None, None:
    the whole trace) with a --window-second window.

    Unset, the window is min(50 s, trace length) over the whole trace, else
    the segment's length L, shrunk to the samples the segment holds when it
    is on the trace and its ends between samples leave one fewer than L
    rounds to. A window longer than the span is an error; over the whole
    trace the estimator rejects a window with more samples than it has.
    """
    window = args.window
    if t_start is not None and window is not None and window > t_end - t_start + TIME_TOL:
        raise EstimationError(f"window {window:g} s exceeds segment length {t_end - t_start:g} s")
    sig = SampledSignal.from_trace(trace, agent, t_start=t_start, t_end=t_end)
    if window is None and t_start is None:
        window = min(FreqEstimatorConfig.window, trace.times[-1] - trace.times[0])
    elif window is None:
        window = t_end - t_start
        # Covered: the grid sample after the trace's last lies past the segment.
        covered = trace.times[-1] + 1.0 / trace.f_s > t_end + TIME_TOL
        if covered and round(window * trace.f_s) > len(sig.samples):
            window = len(sig.samples) / trace.f_s
    cfg = FreqEstimatorConfig(n_max=args.nmax, se=args.se, window=window)
    return estimate_frequencies(sig, cfg)


def cmd_estimate(args) -> int:
    if args.per_segment != bool(args.schedule):
        raise EstimationError(
            "--per-segment and --schedule go together: the schedule sets the segments")
    # The one-agent trace holds args.agent as its agent 0; n is the header's.
    n, trace = read_trace_csv(Path(args.trace), args.agent)

    if args.per_segment:
        schedule = _schedule(args.schedule, None)
        if schedule.n != n:
            raise EstimationError(f"schedule has {schedule.n} agents, trace has {n}")
        blocks = []
        for seg in schedule.segments:
            entry: dict = {"t_start": seg.t_start, "t_end": seg.t_end}
            try:
                est = _estimate_span(trace, 0, args, seg.t_start, seg.t_end)
                entry["estimate"] = est.to_dict()
            except EstimationError as exc:
                entry["error"] = str(exc)
            blocks.append(entry)
        payload = {"agent": args.agent, "per_segment": blocks}
    else:
        est = _estimate_span(trace, 0, args)
        payload = {"agent": args.agent, "estimate": est.to_dict()}
    _emit(payload, args, "estimate.json")
    return 0


def _validate_segment(seg: dict, trace: Trace, t_start: float, t_end: float, args) -> None:
    """Add the agent's estimate over [t_start, t_end] to the segment's oracle
    report, matching each eigenvalue to the nearest estimated one."""
    lam_hat: list[float] = []
    amp_hat: list[float] = []
    try:
        est = _estimate_span(trace, args.agent, args, t_start, t_end)
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
    # The schedule's own warnings (a disconnected segment) go in the report.
    schedule, notes = _load_schedule(args.schedule, args.t_end)
    _agent(args.agent, schedule.n)
    trace, _ = simulate(schedule, *_sim_inputs(args, schedule))

    energy = trace.x**2 + trace.z**2
    total = energy.sum(axis=1)
    drift = float(np.max(np.abs(total - total[0])) / total[0]) if total[0] > 0 else 0.0

    segments = []
    for span in trace.segments:
        # Lines over the segment start from the state at its first sample,
        # the same sample the segment's estimate starts from.
        lo, _ = trace.sample_range(span.t_start, span.t_end)
        seg = oracle.oracle_report(span.graph, trace.x[lo], trace.z[lo], args.agent)
        notes.extend(seg.pop("warnings"))
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
        "warnings": notes,
    }
    _emit(payload, args, "validation.json")
    return 0


def cmd_spectrogram(args) -> int:
    if not math.isfinite(args.threshold):
        raise EstimationError(f"threshold must be finite, got {args.threshold}")
    _, trace = read_trace_csv(Path(args.trace), args.agent)
    sig = SampledSignal.from_trace(trace, 0)
    window_len = args.window_len
    hop = args.hop if args.hop is not None else max(1, window_len // 8)
    data = spectrogram(sig, window_len, hop, window=args.stft_window)
    out = _out_dir(args)
    spec_path = out / "spectrogram.csv"
    mask_path = out / "spectrogram_mask.csv"
    meta_path = out / "spectrogram_meta.json"
    header = "t_center," + ",".join(f"{w:.10g}" for w in data.omega)
    _write_rows(spec_path, header, "%.8g", data.time_centers, data.magnitude)
    mask = (data.magnitude > args.threshold).astype(int)
    _write_rows(mask_path, header, "%d", data.time_centers, mask)
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
    if bool(args.schedule) == (args.delta_max is not None):
        raise ConfigError("give either a schedule file or --delta-max, not both")
    delta_max = _schedule(args.schedule, None).max_degree() if args.schedule else args.delta_max
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
    out.add_argument("--out-dir", default=None, help="output root (default: the working directory)")
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--fs", type=float, default=DEFAULT_SAMPLE_RATE,
                      help="sample rate, samples/s (default 100/(2*pi))")
    sim = argparse.ArgumentParser(add_help=False)
    sim.add_argument("--seed", type=int, default=0, help="RNG seed for +/-1 init")
    sim.add_argument("--step", type=float, default=None,
                     help="RK4 step in seconds (default: sampling period / 10)")
    sim.add_argument("--t-end", type=float, default=None,
                     help="simulation end (default: schedule end, or 50 s)")
    sim.add_argument("--init", choices=("random", "ones"), default="random")
    est = argparse.ArgumentParser(add_help=False)
    est.add_argument("--window", type=float, default=None,
                     help="estimation window in seconds")
    est.add_argument("--nmax", type=int, default=FreqEstimatorConfig.n_max,
                     help="frequency-count bound")
    est.add_argument("--se", type=float, default=FreqEstimatorConfig.se,
                     help="reconstruction-error threshold, percent")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[out, rate, sim],
                           help="run the interaction rule over a schedule")
    p_sim.add_argument("schedule", help="JSON schedule or edge-list file")
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

    p_rounds = sub.add_parser(
        "rounds", parents=[rate],
        help="per-agent message bound 4*max_degree*T*fs at one RK4 step per sample",
        description="Per-agent message bound ceil(4*max_degree*T*fs) over T s at one "
                    "RK4 step per sample; simulate's default step sends ten times more. "
                    "An edgeless schedule (max degree 0) sends none: its bound is 0.")
    p_rounds.add_argument("schedule", nargs="?", default=None,
                          help="schedule to derive the max degree from")
    p_rounds.add_argument("--delta-max", type=int, default=None,
                          help="max degree, when no schedule is given")
    p_rounds.add_argument("--t-min", type=float, default=2.0 * math.pi,
                          help="window length in seconds (default 2*pi)")
    p_rounds.set_defaults(func=cmd_rounds)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, oracle.OracleError, OSError, ValueError, MemoryError,
            OverflowError) as exc:
        if isinstance(exc, MemoryError) and not str(exc):
            exc = "out of memory"  # Python's own allocator names no reason
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
