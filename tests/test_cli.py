"""End-to-end command-line checks over temp directories."""
from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from pathlib import Path

from lapspec import (
    ParseError,
    SimConfig,
    check_estimability,
    complete_graph,
    cycle_graph,
    eigendecompose,
    modal_coefficients,
    parse_schedule,
    path_graph,
    random_init,
    SampledSignal,
    serialize_edge_list,
    simulate,
    spectrogram,
    star_graph,
    TopologySchedule,
)
import lapspec.graph
from lapspec import cli
from lapspec.cli import build_parser, main, read_trace_csv, write_trace_csv
from lapspec.dynamics import DEFAULT_SAMPLE_RATE, Trace

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


P5_LAMBDAS = [0.0, 0.3819660113, 1.3819660113, 2.6180339887, 3.6180339887]


@pytest.fixture()
def p5_file(tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text(serialize_edge_list(path_graph(5)))
    return path


@pytest.fixture()
def switching_schedule(tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text(serialize_edge_list(cycle_graph(5)))
    schedule = [
        {"t_start": 0.0, "t_end": 6.4, "edges_file": "ring.txt"},
        {"t_start": 6.4, "t_end": 12.9,
         "edges": sorted(list(e) for e in complete_graph(5).edges), "n": 5},
        {"t_start": 12.9, "t_end": 20.0,
         "edges": sorted(list(e) for e in path_graph(5).edges), "n": 5},
    ]
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    return path


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_artifacts(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", p5_file, "--seed", "12345", "--out-dir", out]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,x_0,x_1,x_2,x_3,x_4,z_0,z_1,z_2,z_3,z_4"
    assert len(lines[0].split(",")) == 11
    assert len(lines) == 1 + 796  # header + floor(50 * fs) + 1 samples
    messages = json.loads((out / "messages.json").read_text())
    assert set(messages) == {"total", "per_agent", "per_sample_rounds"}
    assert len(messages["per_agent"]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "lapspec" and manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 12345


def test_manifest_replay_is_byte_identical(p5_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["simulate", p5_file, "--seed", "7", "--out-dir", out]) == 0
    for name in ("trace.csv", "messages.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_trace_csv_round_trip(p5_file, tmp_path):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "3", "--out-dir", out])
    trace = read_trace_csv(out / "trace.csv")
    again = tmp_path / "again.csv"
    write_trace_csv(trace, again)
    assert (out / "trace.csv").read_bytes() == again.read_bytes()
    assert abs(trace.f_s - DEFAULT_SAMPLE_RATE) < 1e-9
    sim, _ = simulate(TopologySchedule.single(path_graph(5), 50.0), SimConfig(t_end=50.0),
                      random_init(5, 3))
    assert trace.states.tobytes() == sim.states.tobytes()


def _reference_write_trace_csv(trace, path):
    """Per-cell f"{v:.17g}" writer that write_trace_csv must match byte for byte."""
    n = trace.n
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"z_{i}" for i in range(n)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(trace.num_samples):
            row = [trace.times[k], *trace.x[k], *trace.z[k]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _special_trace(rows=6):
    """A 3-agent trace of rows samples holding signed zeros, subnormals, huge
    and long-mantissa values."""
    rng = np.random.default_rng(9)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1.2345678901234567e17, -9.87e300,
               1.0 / 3.0, 2.0**-1074 * 3, 1e-5, -1.5]
    x = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-320, 300, size=(rows, 3))
    z = rng.standard_normal((rows, 3))
    x.flat[: len(special)] = special
    z.flat[-7:] = special[:7]
    times = np.arange(rows) * 0.0625
    times[0] = -0.0
    return Trace(times=times, states=np.hstack((x, z)), f_s=16.0, segments=())


def test_trace_csv_writer_matches_per_cell_format(tmp_path):
    trace = _special_trace()
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace_csv(trace, got)
    _reference_write_trace_csv(trace, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.fixture()
def forks(monkeypatch):
    """Record the writer's forks, each child's pid with its wait status once
    reaped, and check at each fork that no child is unreaped, so that at
    most one formatter runs and each table has its own. force_fork(cpus)
    sets the usable CPU count and the cell floor to 1, so a small table
    forks like a large one."""
    calls = {}
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        assert None not in calls.values()
        pid = fork()
        if pid:
            calls[pid] = None
        return pid

    def counted_waitpid(pid, options):
        reaped = waitpid(pid, options)
        calls[reaped[0]] = reaped[1]
        return reaped
    monkeypatch.setattr(cli.os, "fork", counted_fork)
    monkeypatch.setattr(cli.os, "waitpid", counted_waitpid)

    def force_fork(cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "FORK_CELLS", 1)
    return calls, force_fork


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _exit_codes(calls):
    return [os.waitstatus_to_exitcode(status) for status in calls.values()]


def _stream(path, header, cell, times, rows):
    """Write the table as cmd_simulate does: from a stream of its rows, not
    the finished array."""
    cli._write_rows(path, header, cell, times, iter(rows))


def _stream_trace(trace, path):
    _stream(path, cli._trace_header(trace.n), "%.17g", trace.times, trace.states)


@pytest.mark.parametrize("cpus, rows", [(1, 6), (2, 6), (3, 6), (4, 7), (16, 5)],
                         ids=["1 CPU", "2 CPUs", "3 CPUs", "4 CPUs", "more CPUs than rows"])
def test_finished_and_streamed_tables_match_per_cell_format(cpus, rows, forks, tmp_path):
    """Whatever the CPU count, a finished table and the same table streamed
    row by row are the reference writer's bytes, and no temporary file or
    child process is left. A finished table forks nothing; a streamed one
    forks one formatter with more than one CPU, which exits 0."""
    calls, force_fork = forks
    force_fork(cpus)
    trace = _special_trace(rows)
    _reference_write_trace_csv(trace, tmp_path / "want.csv")
    write_trace_csv(trace, tmp_path / "finished.csv")
    assert calls == {}
    _stream_trace(trace, tmp_path / "streamed.csv")
    assert _exit_codes(calls) == ([0] if cpus > 1 else [])
    for name in ("finished.csv", "streamed.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["finished.csv", "streamed.csv",
                                                          "want.csv"]
    _assert_no_children()


def test_only_streams_over_the_cell_floor_fork_a_formatter(forks, tmp_path, monkeypatch):
    """With the real floor, a streamed table of 100 rows one row-width short
    of FORK_CELLS cells forks nothing on any CPU count; one of FORK_CELLS
    cells forks one formatter, but none with one usable CPU or without
    os.fork. The file is the same in every case."""
    calls, _ = forks
    width = cli.FORK_CELLS // 100  # cells per row, the time column included
    for cells_per_row, cpus, has_fork, formatters in ((width - 1, 8, True, 0), (width, 1, True, 0),
                                                      (width, 8, True, 1), (width, 8, False, 0)):
        calls.clear()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        if not has_fork:
            monkeypatch.delattr(cli.os, "fork")
        _stream(tmp_path / "got.csv", "h", "%d", np.arange(100.0),
                np.zeros((100, cells_per_row - 1), dtype=int))
        assert len(calls) == formatters
        assert (tmp_path / "got.csv").read_text() == "h\n" + "".join(
            f"{t}" + ",0" * (cells_per_row - 1) + "\n" for t in range(100))


def test_parent_formats_a_finished_table_of_fork_cells(forks, tmp_path, monkeypatch):
    """A finished table of exactly FORK_CELLS cells, with 8 usable CPUs,
    forks nothing: the parent formats every finished table."""
    calls, _ = forks
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    width = cli.FORK_CELLS // 100  # cells per row, the time column included
    cli._write_rows(tmp_path / "got.csv", "h", "%d", np.arange(100.0),
                    np.zeros((100, width - 1), dtype=int))
    assert calls == {}
    assert (tmp_path / "got.csv").read_text() == "h\n" + "".join(
        f"{t}" + ",0" * (width - 1) + "\n" for t in range(100))
    _assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("scenario", ["p5", "switching"])
def test_simulate_formats_rows_while_it_integrates(scenario, cpus, forks, p5_file, tmp_path,
                                                   monkeypatch):
    """cmd_simulate writes simulate's row stream as it comes: with more than
    one CPU the formatter is forked at the first row, and each row is sent
    before the next is integrated. The file is the reference writer's of
    simulate's trace from the same inputs byte for byte. The switching run
    puts segment boundaries in the middle of the sends."""
    calls, force_fork = forks
    force_fork(cpus)
    runs, sends, during = [], [], []
    samples, send = cli._samples, cli._send

    def recorded(*args):
        runs.append(args)
        times, segments, counter, rows = samples(*args)

        def watched():
            for row in rows:
                during.append((len(calls), len(sends)))  # as each row is yielded
                yield row
        return times, segments, counter, watched()

    def counted_send(pipe, row):
        sends.append(row.size)
        send(pipe, row)
    monkeypatch.setattr(cli, "_samples", recorded)
    monkeypatch.setattr(cli, "_send", counted_send)
    schedule = p5_file if scenario == "p5" else SCENARIOS / "switching.json"
    out = tmp_path / "out"
    assert run(["simulate", schedule, "--seed", "7", "--out-dir", out]) == 0
    trace, _ = simulate(*runs[0])
    if scenario == "switching":
        assert len(trace.segments) == 3
    _reference_write_trace_csv(trace, tmp_path / "want.csv")
    assert (out / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "messages.json", "trace.csv"]
    # The temporary file moved into place has the mode a plain open gives.
    assert (out / "trace.csv").stat().st_mode == (out / "messages.json").stat().st_mode
    rows = trace.num_samples
    assert during == ([(0, 0)] + [(1, k) for k in range(1, rows)] if cpus > 1 else
                      [(0, 0)] * rows)
    assert _exit_codes(calls) == ([0] if cpus > 1 else [])
    _assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2], ids=["parent formats", "forked formatter"])
def test_simulate_holds_no_trace(cpus, forks, tmp_path):
    """lapspec simulate holds one state row and the writer, never the trace:
    on a 300-agent ring, the peak of what Python and numpy allocate stays
    below a quarter of the trace's samples * 2n * 8 bytes, whether the
    parent formats the rows or a forked formatter does."""
    calls, force_fork = forks
    force_fork(cpus)
    for n in (5, 300):
        (tmp_path / f"ring{n}.txt").write_text(serialize_edge_list(cycle_graph(n)))
    # The 5-agent run imports what a run needs (numpy.random alone is 0.8 MB).
    assert run(["simulate", tmp_path / "ring5.txt", "--out-dir", tmp_path / "warm"]) == 0
    tracemalloc.start()
    try:
        assert run(["simulate", tmp_path / "ring300.txt", "--seed", "1",
                    "--out-dir", tmp_path / "out"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = len((tmp_path / "out" / "trace.csv").read_text().splitlines()) - 1
    assert samples == 796
    assert peak < samples * 2 * 300 * 8 / 4, peak
    assert _exit_codes(calls) == ([0, 0] if cpus > 1 else [])
    _assert_no_children()


def test_spectrogram_tables_are_formatted_in_the_parent(traces, forks, tmp_path, capsys):
    """The spectrogram's %.8g and %d tables are finished tables: with the
    cell floor at 1 and three usable CPUs the parent still formats each,
    and every cell is its printf format of the STFT."""
    calls, force_fork = forks
    force_fork(3)
    argv = ["spectrogram", traces["sw"], "--agent", "1", "--window-len", "64", "--hop", "8"]
    assert run([*argv, "--out-dir", tmp_path]) == 0
    assert calls == {}
    data = spectrogram(SampledSignal.from_trace(read_trace_csv(traces["sw"]), 1), 64, 8)
    header = "t_center," + ",".join(f"{w:.10g}" for w in data.omega)
    for name, table, cell in (("spectrogram.csv", data.magnitude, "{:.8g}"),
                              ("spectrogram_mask.csv", (data.magnitude > 0.1).astype(int), "{:d}")):
        assert (tmp_path / name).read_text() == header + "\n" + "".join(
            ",".join([f"{t:.17g}", *(cell.format(v) for v in row)]) + "\n"
            for t, row in zip(data.time_centers.tolist(), table.tolist()))


def test_failed_formatter_is_one_named_error(p5_file, forks, tmp_path, monkeypatch, capsys):
    """A formatter that raises gives the parent a named OSError with its
    reason, which main prints as one error line; the formatter exits
    without unwinding into this process's frames, and no output or
    temporary file and no child is left."""
    _, force_fork = forks
    force_fork(3)
    parent, format_rows = os.getpid(), cli._format_rows

    def failing(fh, *args):
        if os.getpid() != parent:
            raise RuntimeError("disk on fire")
        format_rows(fh, *args)
    monkeypatch.setattr(cli, "_format_rows", failing)
    got = tmp_path / "got" / "got.csv"
    got.parent.mkdir()
    with pytest.raises(OSError, match=r"got\.csv: the row formatter failed: "
                                      r"RuntimeError: disk on fire$"):
        _stream_trace(_special_trace(), got)
    assert list(got.parent.iterdir()) == []
    _assert_no_children()
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["simulate", p5_file, "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(out / 'trace.csv'))}: the row formatter failed: "
                        r"RuntimeError: disk on fire\n", err), err
    assert list(out.iterdir()) == []
    _assert_no_children()


@pytest.mark.parametrize("old", [None, "an earlier trace\n"], ids=["no file", "earlier file"])
def test_parent_write_failure_names_the_file(old, p5_file, forks, tmp_path, monkeypatch, capsys):
    """With one usable CPU the parent formats every row itself. A write that
    fails there (a file size limit) is an OSError naming the file and the
    reason, which main prints as one error line; no trace.csv or temporary
    file is left, and an earlier trace.csv is kept as it was."""
    calls, force_fork = forks
    force_fork(1)

    def failing(fh, *args):
        fh.write("1,2,3\n")
        raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
    monkeypatch.setattr(cli, "_format_rows", failing)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "trace.csv"
    if old is not None:
        path.write_text(old)
    left = [] if old is None else [("trace.csv", old)]
    message = f"{path}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    with pytest.raises(OSError, match=f"^{re.escape(message)}$"):
        write_trace_csv(_special_trace(), path)
    assert [(p.name, p.read_text()) for p in out.iterdir()] == left
    capsys.readouterr()
    assert run(["simulate", p5_file, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [(p.name, p.read_text()) for p in out.iterdir()] == left
    assert calls == {}
    _assert_no_children()


def test_interrupt_leaves_no_file_and_no_formatter(forks, tmp_path, monkeypatch):
    """An interrupt while the parent formats a finished table removes the
    temporary file, and no formatter is forked. One in a stream, after its
    first row, kills and reaps the formatter forked at that row too."""
    calls, force_fork = forks
    force_fork(3)
    format_rows = cli._format_rows

    def interrupted_format(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_format_rows", interrupted_format)
    with pytest.raises(KeyboardInterrupt):
        write_trace_csv(_special_trace(), tmp_path / "got.csv")
    assert list(tmp_path.iterdir()) == []
    assert calls == {}
    monkeypatch.setattr(cli, "_format_rows", format_rows)

    def interrupted(rows):
        yield rows[0]
        raise KeyboardInterrupt
    trace = _special_trace()
    with pytest.raises(KeyboardInterrupt):
        cli._write_rows(tmp_path / "got.csv", cli._trace_header(trace.n), "%.17g", trace.times,
                        interrupted(trace.states))
    assert list(tmp_path.iterdir()) == []
    assert _exit_codes(calls) == [-signal.SIGKILL]
    _assert_no_children()


@pytest.mark.parametrize("old", [None, "an earlier trace\n"], ids=["no file", "earlier file"])
@pytest.mark.parametrize("case", ["found when reaped", "found by a send", "interrupt"])
def test_formatter_failure_leaves_no_file(case, old, forks, tmp_path, monkeypatch):
    """A formatter that fails is found when it is reaped after the last row,
    or by the next send after it closed its pipe, which a table larger than
    the pipe's buffer makes mid-stream; either way the parent raises the
    named error. An interrupt in the stream kills the formatter. In each
    case it is reaped, no trace.csv or temporary file is left and an
    earlier trace.csv is kept as it was."""
    calls, force_fork = forks
    force_fork(2)
    path = tmp_path / "trace.csv"
    if old is not None:
        path.write_text(old)
    parent, format_rows = os.getpid(), cli._format_rows

    def failing(fh, *args):
        if os.getpid() != parent:
            raise RuntimeError("disk on fire")
        format_rows(fh, *args)
    if case != "interrupt":
        monkeypatch.setattr(cli, "_format_rows", failing)
    # 6 rows of 3 agents go down the pipe in one short write each; 256 rows
    # of 2000 agents are 8 MB, more than a pipe's buffer holds.
    rows, n = (6, 3) if case == "found when reaped" else (256, 2000)
    times, states, streamed = np.arange(rows) * 0.5, np.ones((rows, 2 * n)), []

    def stream():
        yield from states[: 3 if case == "interrupt" else rows]
        if case == "interrupt":
            raise KeyboardInterrupt
        streamed.append(rows)  # the writer asked for a row past the last
    with pytest.raises(KeyboardInterrupt if case == "interrupt" else OSError,
                       match=None if case == "interrupt" else
                       r"trace\.csv: the row formatter failed: RuntimeError: disk on fire$"):
        cli._write_rows(path, cli._trace_header(n), "%.17g", times, stream())
    assert streamed == ([rows] if case == "found when reaped" else [])
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == (
        [] if old is None else [("trace.csv", old)])
    assert _exit_codes(calls) == [-signal.SIGKILL if case == "interrupt" else 1]
    _assert_no_children()


@pytest.mark.parametrize("end", ["SIGTERM", "SIGRTMIN+1", "exit code 3"])
def test_formatter_leaving_without_a_reason_is_named_by_its_end(end, forks, tmp_path,
                                                                monkeypatch):
    """A formatter that a signal kills, or that exits nonzero, before it can
    send a reason is named by the signal (by its number where Python has no
    name for it) or by its exit code, not by a raw wait status. No file,
    temporary file or child is left."""
    if end == "SIGRTMIN+1" and not hasattr(signal, "SIGRTMIN"):
        pytest.skip("no real-time signals")
    calls, force_fork = forks
    force_fork(2)
    signum = {"SIGTERM": signal.SIGTERM, "SIGRTMIN+1": getattr(signal, "SIGRTMIN", 0) + 1}.get(end)
    parent, format_rows = os.getpid(), cli._format_rows

    def leaving(fh, *args):
        if os.getpid() != parent:
            if signum is None:
                os._exit(3)
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
        format_rows(fh, *args)
    monkeypatch.setattr(cli, "_format_rows", leaving)
    named = {"SIGTERM": "killed by SIGTERM", "SIGRTMIN+1": f"killed by signal {signum}",
             "exit code 3": "exit code 3"}[end]
    with pytest.raises(OSError, match=rf"got\.csv: the row formatter failed: {named}$"):
        _stream_trace(_special_trace(), tmp_path / "got.csv")
    assert list(tmp_path.iterdir()) == []
    assert _exit_codes(calls) == [3 if signum is None else -signum]
    _assert_no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case", ["finished table", "parent formats a stream", "forked formatter",
                                  "formatter failure", "interrupt", "fork fails"])
def test_writer_closes_every_descriptor_it_opens(case, forks, tmp_path, monkeypatch):
    """On every exit the writer closes each descriptor it opened: the
    temporary file's and both pipes' ends, the formatter's included when
    os.fork raises. A fork that fails is an OSError naming the file, and
    leaves no temporary file and no child."""
    calls, force_fork = forks
    force_fork(1 if case == "parent formats a stream" else 2)
    parent, format_rows = os.getpid(), cli._format_rows

    def failing(fh, *args):
        if os.getpid() != parent:
            raise RuntimeError("disk on fire")
        format_rows(fh, *args)

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    if case == "formatter failure":
        monkeypatch.setattr(cli, "_format_rows", failing)
    elif case == "fork fails":
        monkeypatch.setattr(cli.os, "fork", no_fork)
    trace = _special_trace()
    path = tmp_path / "got.csv"

    def stream():
        yield from trace.states[:3]
        if case == "interrupt":
            raise KeyboardInterrupt
        yield from trace.states[3:]
    raised = {
        "formatter failure": pytest.raises(OSError, match=re.escape(
            f"{path}: the row formatter failed: RuntimeError: disk on fire") + "$"),
        "interrupt": pytest.raises(KeyboardInterrupt),
        "fork fails": pytest.raises(OSError, match=re.escape(
            f"{path}: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}") + "$"),
    }
    before = sorted(os.listdir("/proc/self/fd"))
    with raised.get(case, contextlib.nullcontext()):
        cli._write_rows(path, cli._trace_header(trace.n), "%.17g", trace.times,
                        trace.states if case == "finished table" else stream())
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if case in raised else ["got.csv"])
    assert len(calls) == (0 if case in ("finished table", "parent formats a stream", "fork fails")
                          else 1)
    _assert_no_children()


@pytest.mark.parametrize("old", [None, "an earlier trace\n"], ids=["no file", "earlier file"])
@pytest.mark.parametrize("failure", ["overflow", "interrupt"])
def test_simulate_failing_mid_run_leaves_no_trace(failure, old, p5_file, forks, tmp_path,
                                                  monkeypatch, capsys):
    """A run that fails after the formatter is forked, by a state that
    overflows or by an interrupt, kills the formatter and writes no file:
    no trace.csv or temporary file is left, and an earlier trace.csv is
    kept as it was."""
    calls, force_fork = forks
    force_fork(2)
    out = tmp_path / "out"
    if old is not None:
        out.mkdir()
        (out / "trace.csv").write_text(old)
    if failure == "overflow":
        # The first RK4 step's stage sums overflow: a non-finite state at sample 1.
        monkeypatch.setattr(cli, "random_init",
                            lambda n, seed: tuple(1e308 * v for v in random_init(n, seed)))
        assert run(["simulate", p5_file, "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite state at t=0.0628319, ")
    else:
        samples = cli._samples

        def interrupted(*args):
            times, segments, counter, rows = samples(*args)

            def stream():
                yield next(rows)
                raise KeyboardInterrupt
            return times, segments, counter, stream()
        monkeypatch.setattr(cli, "_samples", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(["simulate", p5_file, "--out-dir", out])
    assert _exit_codes(calls) == [-signal.SIGKILL]  # forked at row 0, killed at the failure
    assert [(p.name, p.read_text()) for p in out.iterdir()] == (
        [] if old is None else [("trace.csv", old)])
    _assert_no_children()


def test_trace_csv_rejects_column_count_mismatch(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,x_0,z_0\n" + "".join(f"{k * 0.0625},1,2,3,4\n" for k in range(3)))
    with pytest.raises(ParseError, match="line 2 has 5 columns, header has 3"):
        read_trace_csv(path)


def _rewrite_cell(path, line, column, value):
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_trace_csv_rejects_non_uniform_grid(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "3", "--out-dir", out])
    path = out / "trace.csv"
    t = float(path.read_text().splitlines()[300].split(",")[0])
    _rewrite_cell(path, 300, 0, f"{t + 1e-6 / DEFAULT_SAMPLE_RATE:.17g}")
    with pytest.raises(ParseError, match="uniform"):
        read_trace_csv(path)
    capsys.readouterr()
    assert run(["estimate", path, "--agent", "0"]) == 1
    assert "uniform" in capsys.readouterr().err


def test_trace_csv_rejects_nan_cell(p5_file, tmp_path):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "3", "--out-dir", out])
    path = out / "trace.csv"
    _rewrite_cell(path, 42, 7, "nan")
    with pytest.raises(ParseError, match="non-finite value at line 43, column 8"):
        read_trace_csv(path)


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Trace CSVs of P5 at seed 12345 and scenarios/switching.json at seed 11."""
    root = tmp_path_factory.mktemp("traces")
    p5 = root / "p5.txt"
    p5.write_text(serialize_edge_list(path_graph(5)))
    for name, schedule, seed in (("p5", p5, 12345), ("sw", SCENARIOS / "switching.json", 11)):
        assert run(["simulate", schedule, "--seed", seed, "--out-dir", root / name]) == 0
    return {"p5": root / "p5" / "trace.csv", "sw": root / "sw" / "trace.csv"}


@pytest.mark.parametrize("name", ["p5", "sw"])
def test_one_agent_read_matches_full_read(traces, name):
    full = read_trace_csv(traces[name])
    for agent in range(full.n):
        n, one = read_trace_csv(traces[name], agent)
        assert n == full.n and one.n == 1
        assert one.f_s == full.f_s
        assert one.times.tobytes() == full.times.tobytes()
        assert one.x[:, 0].tobytes() == full.x[:, agent].tobytes()
        assert one.z[:, 0].tobytes() == full.z[:, agent].tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0], "# note", *lines[1:]], "line 2 has 1 columns, header has 11"),
    (lambda lines: [*lines[:9], "", *lines[9:]], "line 10 has 1 columns, header has 11"),
    (lambda lines: [*lines, ""], "line 798 has 1 columns, header has 11"),
    (lambda lines: [lines[0], lines[1] + " # a, b", *lines[2:]],
     "line 2 has 12 columns, header has 11"),
    (lambda lines: [*lines[:42], lines[42] + " # note", *lines[43:]],
     "unparsable value '{cell} # note' at line 43, column 11"),
], ids=["comment line", "empty line", "trailing empty line", "trailing comment with commas",
        "trailing comment without commas"])
def test_reads_reject_comment_and_empty_lines(edit, message, traces, tmp_path):
    """Every line after the header is a data row, as write_trace_csv writes
    it: a comment or empty line is a row of the wrong width, and a trailing
    comment is part of the last cell. Agent 4 parses that cell, z_4."""
    lines = traces["p5"].read_text().splitlines()
    assert len(lines) == 797
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(edit(lines)) + "\n")
    full, one = _read_error(path), _read_error(path, 4)
    assert type(one) is type(full) is ParseError
    assert str(full) == f"{path}: " + message.format(cell=lines[42].split(",")[-1])
    assert str(one) == str(full)


def _full_read_sliced(path, agent):
    """The one-agent read's contract, built from the full read."""
    full = read_trace_csv(path)
    states = full.states[:, [agent, full.n + agent]]
    return full.n, Trace(times=full.times, states=states, f_s=full.f_s, segments=())


@pytest.mark.parametrize("argv", [
    ["estimate", "{p5}", "--agent", "0"],
    ["estimate", "{p5}", "--agent", "4", "--window", "20", "--nmax", "6"],
    ["estimate", "{sw}", "--agent", "1", "--per-segment", "--schedule", "{schedule}"],
    ["estimate", "{sw}", "--agent", "0", "--per-segment", "--schedule", "{schedule}",
     "--nmax", "14", "--out-dir", "{out}"],
    ["spectrogram", "{sw}", "--agent", "1", "--window-len", "64", "--hop", "8",
     "--out-dir", "{out}"],
    ["spectrogram", "{p5}", "--agent", "3", "--window-len", "600", "--hop", "49",
     "--stft-window", "rect", "--out-dir", "{out}"],
], ids=["p5", "p5-window", "sw-segments", "sw-nmax14", "sw-spectrogram", "p5-spectrogram"])
def test_one_agent_outputs_match_full_read(argv, traces, tmp_path, monkeypatch, capsys):
    """estimate stdout and spectrogram files are byte for byte those built
    from a full-read trace."""
    outputs = []
    for side, reader in (("one", read_trace_csv), ("full", _full_read_sliced)):
        monkeypatch.setattr(cli, "read_trace_csv", reader)
        out = tmp_path / side
        fields = dict(traces, schedule=SCENARIOS / "switching.json", out=out)
        capsys.readouterr()
        assert run([a.format(**fields) for a in argv]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.exists() else {}
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
    assert outputs[0] == outputs[1]


def _read_error(path, agent=None):
    with pytest.raises(ValueError) as info:
        read_trace_csv(path) if agent is None else read_trace_csv(path, agent)
    return info.value


def _edited(lines, line, column, value):
    cells = lines[line].split(",")
    cells[column] = value
    return [*lines[:line], ",".join(cells), *lines[line + 1:]]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["time" + lines[0][1:], *lines[1:]], "not a trace CSV"),
    (lambda lines: lines[:1], "trace needs at least 2 samples"),
    (lambda lines: lines[:2], "trace needs at least 2 samples"),
    (lambda lines: _edited(lines, 300, 0, "18.85"), "time column is not a uniform increasing grid"),
    (lambda lines: _edited(lines, 42, 2, "nan"), "non-finite value at line 43, column 3"),
    (lambda lines: _edited(lines, 42, 7, "-inf"), "non-finite value at line 43, column 8"),
    (lambda lines: _edited(lines, 42, 2, "abc"), "unparsable value 'abc' at line 43, column 3"),
    (lambda lines: _edited(lines, 42, 7, ""), "unparsable value '' at line 43, column 8"),
    (lambda lines: [lines[0], "# note", "", *_edited(lines, 42, 2, "abc")[1:]],
     "line 2 has 1 columns, header has 11"),
    (lambda lines: [*lines[:9], "# a, b", *_edited(lines, 42, 7, "nan")[9:]],
     "line 10 has 2 columns, header has 11"),
    (lambda lines: ["t", *(line.split(",")[0] for line in lines[1:])], "not a trace CSV"),
], ids=["foreign header", "header only", "one row", "non-uniform grid", "nan in x_1",
        "inf in z_1", "abc in x_1", "empty z_1", "abc after comment and empty line",
        "nan after comment", "no agent columns"])
def test_one_agent_read_raises_the_full_reads_errors(edit, message, traces, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(edit(traces["p5"].read_text().splitlines())) + "\n")
    full, one = _read_error(path), _read_error(path, 1)
    assert type(one) is type(full) is ParseError
    assert message in str(full) and str(one) == str(full)


@pytest.mark.parametrize("cells", [10, 12], ids=["short row", "long row"])
def test_one_agent_read_checks_every_rows_cell_count(cells, traces, tmp_path):
    """A row with a cell fewer or more than the header fails both reads,
    which name its line. usecols alone reads the long row."""
    lines = traces["p5"].read_text().splitlines()
    row = lines[42].split(",")
    lines[42] = ",".join((row + row)[:cells])
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(lines) + "\n")
    for agent in (None, 0, 4):
        error = _read_error(path, agent)
        assert type(error) is ParseError
        assert str(error) == f"{path}: line 43 has {cells} columns, header has 11"


def test_one_agent_read_rejects_agent_before_reading_rows(tmp_path):
    """The header sets the agent range; no data row is parsed, so a file of
    garbage rows still reports the agent."""
    path = tmp_path / "trace.csv"
    path.write_text("t,x_0,x_1,z_0,z_1\n" + "garbage\n" * 3)
    for agent in (-1, 2):
        error = _read_error(path, agent)
        assert type(error) is ValueError
        assert str(error) == f"agent {agent} out of range [0, 2)"
    with pytest.raises(TypeError, match="field 'agent'"):
        read_trace_csv(path, True)


def test_estimate_reads_only_its_agents_cells(traces, tmp_path, capsys):
    """A nan in z_1 stops agent 1's estimate, naming its cell, and leaves
    agent 0's output unchanged: that estimate reads nothing from the cell."""
    path = tmp_path / "trace.csv"
    path.write_bytes(traces["p5"].read_bytes())
    _rewrite_cell(path, 42, 7, "nan")
    capsys.readouterr()
    assert run(["estimate", traces["p5"], "--agent", "0"]) == 0
    clean = capsys.readouterr().out
    assert run(["estimate", path, "--agent", "0"]) == 0
    assert capsys.readouterr().out == clean
    assert run(["estimate", path, "--agent", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: non-finite value at line 43, column 8\n"


def test_estimate_stationary_p5(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "12345", "--out-dir", out])
    capsys.readouterr()
    assert run(["estimate", out / "trace.csv", "--agent", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    got = payload["estimate"]["lambda"]
    assert len(got) == 5
    assert max(abs(a - b) for a, b in zip(got, P5_LAMBDAS)) < 5e-3
    assert payload["estimate"]["flag"] is True


def test_estimate_agent_out_of_range(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "1", "--out-dir", out])
    capsys.readouterr()
    assert run(["estimate", out / "trace.csv", "--agent", "9"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_estimate_window_of_one_sample_exits_with_error(tmp_path, capsys):
    """At a 10 s sample period a 6.3 s window holds one sample: a named
    error, not a division-by-zero warning and an empty estimate."""
    path = tmp_path / "slow.csv"
    path.write_text("t,x_0,z_0\n" + "".join(
        f"{10.0 * k},{math.sin(k)},{math.cos(k)}\n" for k in range(40)))
    assert run(["estimate", path, "--agent", "0", "--window", "6.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window 6.3 s holds 1 samples at f_s = 0.1; at least 8 needed\n"


def hand_trace(n, rows):
    """Trace CSV text: n agents, rows samples 1/16 s apart."""
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"z_{i}" for i in range(n)])
    return header + "\n" + "".join(
        ",".join([f"{0.0625 * k}"] + [f"{math.sin(k + i)}" for i in range(2 * n)]) + "\n"
        for k in range(rows))


@pytest.mark.parametrize("text, flags, message", [
    ("time,x_0,z_0\n0,1,2\n0.0625,1,2\n", [], "not a trace CSV (header ['time', 'x_0', 'z_0']...)"),
    ("t,x_0\n0,1\n0.0625,1\n", [], "not a trace CSV (header ['t', 'x_0']...)"),
    ("t,a,b\n0,1,2\n0.0625,1,2\n", [], "not a trace CSV (header ['t', 'a', 'b']...)"),
    ("t,z_0,x_0\n0,1,2\n0.0625,1,2\n", [], "not a trace CSV (header ['t', 'z_0', 'x_0']...)"),
    (hand_trace(1, 1), [], "trace needs at least 2 samples"),
    (hand_trace(1, 0), [], "trace needs at least 2 samples"),
    (hand_trace(5, 120), ["--agent", "4", "--per-segment", "--schedule", "{schedule}"],
     "schedule has 3 agents, trace has 5"),
], ids=["header name", "odd column count", "column names", "column order", "one sample",
        "header only", "schedule agent count"])
def test_estimate_errors_are_named(text, flags, message, tmp_path, capsys):
    """A trace estimate cannot read, or a schedule for other agents, exits 1
    with a named error, prints no estimate and raises no warning."""
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    schedule = tmp_path / "p3.json"
    schedule.write_text('[{"t_start": 0, "t_end": 7, "n": 3, "edges": [[0, 1], [1, 2]]}]')
    argv = ["estimate", trace, "--agent", "0", *(f.format(schedule=schedule) for f in flags)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_simulate_nyquist_violation_exits_nonzero(tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text(serialize_edge_list(star_graph(6)))
    assert run(["simulate", star, "--fs", "1.0", "--out-dir", tmp_path]) == 1
    assert "Nyquist" in capsys.readouterr().err


def test_simulate_malformed_edge_list(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 2\n0 5\n")
    assert run(["simulate", bad, "--out-dir", tmp_path]) == 1
    assert "out of range" in capsys.readouterr().err


def test_switching_schedule_spans_and_per_segment(switching_schedule, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", switching_schedule, "--seed", "11", "--out-dir", out]) == 0
    trace = read_trace_csv(out / "trace.csv")
    assert abs(trace.times[-1] - 20.0) < 0.1
    capsys.readouterr()
    assert run([
        "estimate", out / "trace.csv", "--agent", "1",
        "--per-segment", "--schedule", switching_schedule,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    blocks = payload["per_segment"]
    assert len(blocks) == 3
    assert all("estimate" in b for b in blocks)
    # middle segment is the complete graph: spectrum {0, 5}
    mid = blocks[1]["estimate"]["lambda"]
    assert max(abs(a - b) for a, b in zip(mid, [0.0, 5.0])) < 1e-2


def test_per_segment_window_too_long_gives_error_entries(switching_schedule, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", switching_schedule, "--seed", "11", "--out-dir", out])
    capsys.readouterr()
    assert run([
        "estimate", out / "trace.csv", "--agent", "0",
        "--per-segment", "--schedule", switching_schedule, "--window", "15",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all("error" in b for b in payload["per_segment"])
    assert "exceeds segment" in payload["per_segment"][0]["error"]
    # validate takes the same window path: the same error in every segment
    assert run([
        "validate", switching_schedule, "--agent", "0", "--seed", "11", "--window", "15",
    ]) == 0
    segments = json.loads(capsys.readouterr().out)["segments"]
    assert len(segments) == 3
    for seg in segments:
        assert set(seg["estimate"]) == {"error"}
        assert seg["estimate"]["error"].startswith("window 15 s exceeds segment length")
        assert seg["max_abs_error_estimable"] is None


def test_per_segment_past_trace_end_gives_error_entry(switching_schedule, tmp_path, capsys):
    """A segment that starts after the trace ends is an error entry naming
    the span and the trace's last time; the other segments are kept."""
    out = tmp_path / "out"
    assert run(["simulate", switching_schedule, "--seed", "11", "--t-end", "10", "--out-dir", out]) == 0
    capsys.readouterr()
    assert run([
        "estimate", out / "trace.csv", "--agent", "1",
        "--per-segment", "--schedule", switching_schedule,
    ]) == 0
    blocks = json.loads(capsys.readouterr().out)["per_segment"]
    assert len(blocks) == 3
    assert blocks[0]["estimate"]["flag"]
    assert "needs" in blocks[1]["error"]  # 6.5 s window, 3.6 s of trace
    assert blocks[2]["error"] == "span [12.9, 20] s holds no samples: the trace ends at 9.99026 s"


def test_per_segment_flags_every_switching_segment_at_nmax_14(tmp_path, capsys):
    """scenarios/switching.json at --nmax 14: each segment's window (102-113
    samples) is narrower than the Hankel order 2 * 14 + 1, and the pencil
    answers it with every column, so all three segments are flagged for the
    agents whose last segment the greedy loop used to leave unflagged."""
    sched = SCENARIOS / "switching.json"
    out = tmp_path / "sw"
    assert run(["simulate", sched, "--seed", "11", "--out-dir", out]) == 0
    for agent in ("0", "4"):
        capsys.readouterr()
        assert run([
            "estimate", out / "trace.csv", "--agent", agent, "--per-segment",
            "--schedule", sched, "--nmax", "14",
        ]) == 0
        blocks = json.loads(capsys.readouterr().out)["per_segment"]
        assert [b["estimate"]["flag"] for b in blocks] == [True] * 3, (agent, blocks)


def _ring_path_schedule(tmp_path, bounds):
    """Schedule alternating ring and path over consecutive [bounds[k], bounds[k + 1]]."""
    graphs = (cycle_graph(5), path_graph(5))
    segments = [
        {"t_start": a, "t_end": b, "n": 5, "edges": sorted(list(e) for e in graphs[k % 2].edges)}
        for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]
    path = tmp_path / "between.json"
    path.write_text(json.dumps(segments))
    return path


P5_SPECTRUM = np.array([2.0 - 2.0 * math.cos(k * math.pi / 5) for k in range(5)])


def test_per_segment_default_window_fits_segment_between_samples(tmp_path, capsys):
    """[7, 13.946] s is 110.55 sampling periods long but holds 110 samples:
    the default window takes the samples held instead of asking for 111."""
    sched = _ring_path_schedule(tmp_path, [0.0, 7.0, 13.946])
    out = tmp_path / "out"
    assert run(["simulate", sched, "--seed", "11", "--out-dir", out]) == 0
    capsys.readouterr()
    assert run([
        "estimate", out / "trace.csv", "--agent", "1", "--per-segment", "--schedule", sched,
    ]) == 0
    blocks = json.loads(capsys.readouterr().out)["per_segment"]
    assert [sorted(b) for b in blocks] == [["estimate", "t_end", "t_start"]] * 2
    est = blocks[1]["estimate"]
    assert est["flag"] and np.max(np.abs(np.array(est["lambda"]) - P5_SPECTRUM)) < 1e-6


def test_validate_default_window_fits_middle_segment_between_samples(tmp_path, capsys):
    """The middle span [6.539, 13.056] s holds 103 samples where its length
    rounds to 104; every segment still gets an estimate."""
    sched = _ring_path_schedule(tmp_path, [0.0, 6.539, 13.056, 20.0])
    assert run(["validate", sched, "--agent", "1", "--seed", "11"]) == 0
    segments = json.loads(capsys.readouterr().out)["segments"]
    assert len(segments) == 3
    for seg in segments:
        assert seg["estimate"]["flag"]
        assert seg["max_abs_error_estimable"] < 1e-5


@pytest.mark.parametrize("argv, setting", [
    pytest.param(["simulate", "{p5}", "--t-end", "inf"], "t_end must be finite", id="t-end-inf"),
    pytest.param(["simulate", "{p5}", "--fs", "nan"], "f_s must be finite", id="fs-nan"),
    pytest.param(["simulate", "{p5}", "--step", "nan"], "step h must be finite", id="step-nan"),
    pytest.param(["estimate", "{trace}", "--agent", "0", "--window", "inf"],
                 "window must be finite", id="window-inf"),
    pytest.param(["estimate", "{trace}", "--agent", "0", "--window", "nan"],
                 "window must be finite", id="window-nan"),
    pytest.param(["estimate", "{trace}", "--agent", "0", "--se", "nan"],
                 "error threshold se must be finite", id="se-nan"),
    pytest.param(["rounds", "--delta-max", "2", "--t-min", "inf"],
                 "t_min must be positive and finite", id="t-min-inf"),
    pytest.param(["spectrogram", "{trace}", "--agent", "0", "--threshold", "nan",
                  "--out-dir", "{out}"], "threshold must be finite", id="threshold-nan"),
    pytest.param(["spectrogram", "{trace}", "--agent", "0", "--threshold", "inf",
                  "--out-dir", "{out}"], "threshold must be finite", id="threshold-inf"),
])
def test_non_finite_settings_rejected_by_name(argv, setting, p5_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    out = tmp_path / "out"
    if "{trace}" in argv:
        assert run(["simulate", p5_file, "--t-end", "10", "--out-dir", tmp_path]) == 0
        capsys.readouterr()
    # Exit 1 means main caught the error: an uncaught one would raise here.
    assert run([a.format(p5=p5_file, trace=trace, out=out) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {setting}, got ")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["estimate", "{trace}", "--agent", "0", "--window", "1e308"],
                 "window 1e+308 s needs inf samples, signal has 160", id="window-1e308"),
    pytest.param(["rounds", "--delta-max", "2", "--fs", "1e308", "--t-min", "1e308"],
                 "message bound 4 * delta_max * t_min * f_s = inf is not finite",
                 id="rounds-overflow"),
    pytest.param(["simulate", "{p5}", "--seed", "-1", "--out-dir", "{out}"],
                 "seed must be non-negative, got -1", id="seed-negative"),
    *(pytest.param([cmd, "{p5}", *flags, "--out-dir", "{out}"], message, id=f"{cmd}-{name}")
      for cmd in ("simulate", "validate")
      for name, flags, message in (
          ("t-end-1e308", ["--t-end", "1e308"], "sample count t_end * f_s = inf is not finite"),
          ("step-1e-320", ["--step", "1e-320"],
           "steps per sample 1 / (f_s * h) = inf is not finite"),
          ("t-end-1e15", ["--t-end", "1e15"], "Unable to allocate"),
          ("fs-0", ["--fs", "0"], "f_s must be positive, got 0.0"),
          ("fs-1e-320", ["--fs", "1e-320"], "step h must be finite, got inf"),
      )),
])
def test_out_of_range_settings_rejected_by_name(argv, message, p5_file, tmp_path, capsys):
    """Finite settings whose derived values overflow, and a negative seed,
    exit 1 with a named error, not a traceback or numpy's wording."""
    trace = tmp_path / "trace.csv"
    out = tmp_path / "out"
    if "{trace}" in argv:
        assert run(["simulate", p5_file, "--t-end", "10", "--out-dir", tmp_path]) == 0
        capsys.readouterr()
    assert run([a.format(p5=p5_file, trace=trace, out=out) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["rounds", "--delta-max", "2", "--seed", "3"],
    ["spectrogram", "trace.csv", "--agent", "0", "--nmax", "4"],
    ["estimate", "trace.csv", "--agent", "0", "--fs", "15.91549"],
    ["simulate", "p5.txt", "--rank-tol", "1e-6"],
    ["validate", "p5.txt", "--rank-tol", "1e-6"],
    ["validate", "p5.txt", "--cluster-tol", "1e-6"],
    ["estimate", "trace.csv", "--agent", "0", "--step", "0.01"],
    ["spectrogram", "trace.csv", "--agent", "0", "--fs", "16"],
    ["estimate", "trace.csv", "--agent", "0", "--schedule", "switching.json"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    """argparse rejects a flag a subcommand does not define. estimate defines
    --schedule for --per-segment only, so alone it is a named error, raised
    before the trace is read."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code != 0
    named = {"--schedule": "error: --per-segment and --schedule go together"}
    assert named.get(argv[-2], "unrecognized arguments") in capsys.readouterr().err


def test_per_segment_requires_schedule(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--out-dir", out])
    capsys.readouterr()
    assert run(["estimate", out / "trace.csv", "--agent", "0", "--per-segment"]) == 1
    assert "--schedule" in capsys.readouterr().err


def test_validate_star_reports_rank_deficiency(tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text(serialize_edge_list(star_graph(4)))
    out = tmp_path / "out"
    assert run([
        "validate", star, "--agent", "0", "--seed", "5",
        "--t-end", "50", "--out-dir", out,
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("rank deficiency" in w for w in payload["warnings"])
    seg = payload["segments"][0]
    assert seg["rank"]["L"] == 2 and seg["rank"]["A"] == 4
    assert seg["rank"]["relation_holds"] is True
    # the hub cannot estimate the repeated eigenvalue
    flags = {e["lambda"]: e["estimable"] for e in seg["per_eigenvalue"]}
    assert flags[0.0] and flags[4.0] and not flags[1.0]
    assert payload["energy"]["relative_drift"] < 1e-6
    assert (out / "validation.json").exists()


def test_validate_ones_init_warns_degenerate(p5_file, capsys):
    assert run([
        "validate", p5_file, "--agent", "1", "--init", "ones", "--t-end", "50",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("lambda > 0 vanish" in w for w in payload["warnings"])


def test_validate_lists_disconnected_segment_warning(tmp_path, capsys):
    """validate reports the schedule's own warning in its JSON and lets no
    warning escape."""
    path = tmp_path / "two_k2.txt"
    path.write_text("n 4\n0 1\n2 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["validate", path, "--agent", "0", "--seed", "3", "--t-end", "20"]) == 0
    assert not caught, [str(w.message) for w in caught]
    notes = json.loads(capsys.readouterr().out)["warnings"]
    assert notes[0] == ("segment 0 graph is disconnected; its observable spectrum "
                        "splits per component")
    assert any("rank deficiency" in w for w in notes[1:])


DISCONNECTED = ("warning: segment 0 graph is disconnected; its observable spectrum "
                "splits per component\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "{graph}", "--seed", "3", "--t-end", "20", "--out-dir", "{out}"],
    ["rounds", "{graph}"],
    ["estimate", "{trace}", "--agent", "0", "--per-segment", "--schedule", "{graph}"],
], ids=["simulate", "rounds", "estimate-per-segment"])
def test_schedule_warning_is_one_stderr_line(argv, tmp_path, capsys):
    """A disconnected segment's warning is one `warning: ...` line on stderr,
    not Python's warning form with a source line, and no warning escapes."""
    graph = tmp_path / "two_k2.txt"
    graph.write_text("n 4\n0 1\n2 3\n")
    trace = tmp_path / "trace"
    assert run(["simulate", graph, "--seed", "3", "--t-end", "20", "--out-dir", trace]) == 0
    capsys.readouterr()
    fields = dict(graph=graph, trace=trace / "trace.csv", out=tmp_path / "out")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([a.format(**fields) for a in argv]) == 0
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    assert captured.err == DISCONNECTED
    assert captured.out


def test_validate_p5_matches_oracle(p5_file, capsys):
    assert run([
        "validate", p5_file, "--agent", "0", "--seed", "12345", "--t-end", "50",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    seg = payload["segments"][0]
    assert seg["max_abs_error_estimable"] < 5e-3
    assert seg["rank"]["full"] is True


def test_validate_switching_uses_each_segment_start_state(capsys):
    """Each segment's coefficients and estimability are the oracle's at the
    segment's first sample, not at the initial state."""
    path = SCENARIOS / "switching.json"
    assert run(["validate", path, "--agent", "1", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    sched = parse_schedule(path.read_text(), base_dir=SCENARIOS)
    trace, _ = simulate(sched, SimConfig(t_end=sched.t_end), random_init(5, 11))
    assert len(payload["segments"]) == len(trace.segments) == 3
    for seg, span in zip(payload["segments"], trace.segments):
        lo, _ = trace.sample_range(span.t_start, span.t_end)
        dec = eigendecompose(span.graph)
        amps = modal_coefficients(dec, trace.x[lo], trace.z[lo], 1).line_amplitudes()
        flags = check_estimability(dec, trace.x[lo], trace.z[lo], 1)
        got = seg["per_eigenvalue"]
        assert np.allclose([e["coefficient"] for e in got], amps, rtol=0, atol=1e-12)
        assert [e["estimable"] for e in got] == flags.tolist()


@pytest.mark.parametrize("agent", [-1, 5])
@pytest.mark.parametrize("schedule", ["p5.txt", "switching.json"])
def test_validate_rejects_out_of_range_agent_before_simulating(
        monkeypatch, capsys, schedule, agent):
    def no_simulate(*args):
        raise AssertionError("validate simulated before checking --agent")

    monkeypatch.setattr(cli, "simulate", no_simulate)
    assert run(["validate", SCENARIOS / schedule, "--agent", agent]) == 1
    assert capsys.readouterr().err == f"error: agent {agent} out of range [0, 5)\n"


def test_validate_reports_oracle_error_by_name(monkeypatch, capsys):
    """An eigensolver failure inside the oracle is an error line and exit 1,
    not a traceback."""
    def no_convergence(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert run(["validate", SCENARIOS / "p5.txt"]) == 1
    assert capsys.readouterr().err.startswith("error: eigensolver failed to converge")


def test_validate_path60_is_full_rank(tmp_path, capsys):
    path = tmp_path / "path60.txt"
    path.write_text(serialize_edge_list(path_graph(60)))
    assert run(["validate", path, "--agent", "0", "--seed", "3", "--t-end", "20"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rank = payload["segments"][0]["rank"]
    assert (rank["L"], rank["A"], rank["n"]) == (60, 120, 60)
    assert rank["full"] is True and rank["relation_holds"] is True
    assert not any("rank deficiency" in w for w in payload["warnings"])


def test_spectrogram_outputs(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "12345", "--out-dir", out])
    capsys.readouterr()
    assert run([
        "spectrogram", out / "trace.csv", "--agent", "0",
        "--window-len", "600", "--hop", "49", "--out-dir", out,
    ]) == 0
    spec_lines = (out / "spectrogram.csv").read_text().splitlines()
    mask_lines = (out / "spectrogram_mask.csv").read_text().splitlines()
    meta = json.loads((out / "spectrogram_meta.json").read_text())
    assert meta["window_len"] == 600 and meta["threshold"] == 0.1
    assert len(spec_lines) == len(mask_lines) == 1 + meta["slices"]
    cells = set()
    for line in mask_lines[1:]:
        cells.update(line.split(",")[1:])
    assert cells <= {"0", "1"} and "1" in cells


def test_spectrogram_mask_is_magnitude_above_threshold(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "12345", "--out-dir", out])
    capsys.readouterr()
    assert run([
        "spectrogram", out / "trace.csv", "--agent", "2", "--window-len", "128",
        "--threshold", "0.3", "--stft-window", "rect", "--out-dir", out,
    ]) == 0
    spec_lines = (out / "spectrogram.csv").read_text().splitlines()
    mask_lines = (out / "spectrogram_mask.csv").read_text().splitlines()
    assert spec_lines[0] == mask_lines[0] and len(spec_lines) == len(mask_lines)
    cells = set()
    for spec_row, mask_row in zip(spec_lines[1:], mask_lines[1:]):
        t_spec, *mags = spec_row.split(",")
        t_mask, *flags = mask_row.split(",")
        assert t_spec == t_mask
        assert flags == [str(int(float(m) > 0.3)) for m in mags]
        cells.update(flags)
    assert cells == {"0", "1"}
    meta = json.loads((out / "spectrogram_meta.json").read_text())
    assert (meta["threshold"], meta["window"], meta["window_len"], meta["hop"]) == (0.3, "rect", 128, 16)


def test_spectrogram_hop_past_int64_gives_one_slice(traces, tmp_path, capsys):
    """A hop past the last start, also one past int64, gives the one slice
    at 0; the meta records the hop as given."""
    hop = 10**20
    assert run(["spectrogram", traces["p5"], "--agent", "0", "--hop", hop,
                "--out-dir", tmp_path]) == 0
    meta = json.loads((tmp_path / "spectrogram_meta.json").read_text())
    assert (meta["hop"], meta["slices"]) == (hop, 1)
    assert len((tmp_path / "spectrogram.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("command", ["rounds", "simulate", "validate"])
def test_agent_count_failures_are_one_named_line(command, tmp_path, monkeypatch, capsys):
    """An agent count past numpy's largest index is one error line naming
    its file, its line and the count, and one whose arrays cannot be
    allocated (a MemoryError with no message) is one named error line, not a
    traceback or a bare "error: "."""
    huge = tmp_path / "huge.txt"
    huge.write_text("n 99999999999999999999999\n0 1\n")
    out = [] if command == "rounds" else ["--out-dir", tmp_path / "out"]
    assert run([command, huge, *out]) == 1
    assert capsys.readouterr().err == (
        f"error: {huge}: line 1: agent count 99999999999999999999999 exceeds the largest array "
        f"index {np.iinfo(np.intp).max}\n")

    def exhausted(graph):
        raise MemoryError()
    monkeypatch.setattr(lapspec.graph, "is_connected", exhausted)
    many = tmp_path / "many.txt"
    many.write_text("n 1000000\n0 1\n")
    assert run([command, many, *out]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["schedule", "edges_file", "trace"])
def test_input_that_is_not_utf8_names_its_file(reader, tmp_path, capsys):
    """A schedule, a segment's edges_file or a trace CSV that is not UTF-8
    is one error line naming the file (and the segment), as every other
    read error is."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    if reader == "schedule":
        argv, message = ["rounds", bad], f"{bad}: {decode}"
    elif reader == "edges_file":
        schedule = tmp_path / "schedule.json"
        schedule.write_text('[{"t_start": 0, "t_end": 1, "edges_file": "bad.txt"}]')
        argv, message = ["rounds", schedule], f"segment 0: cannot read {bad}: {decode}"
    else:
        argv, message = ["estimate", bad, "--agent", "0"], f"{bad}: {decode}"
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("agent", [None, 1], ids=["full read", "one-agent read"])
def test_trace_byte_that_is_not_utf8_is_named_by_line_and_column(agent, traces, tmp_path, capsys):
    """A 0xff past the header of the P5 trace, in the text decoder's first
    block or far past it, is named by its file line and column, as every
    other cell error is, not by its offset in the decoder's block."""
    path = tmp_path / "bad.csv"
    for offset, line, column in ((100, 3, 2), (100_000, 457, 1)):
        data = bytearray(traces["p5"].read_bytes())
        data[offset] = 0xFF
        path.write_bytes(data)
        message = f"{path}: byte 0xff at line {line}, column {column} is not utf-8"
        error = _read_error(path, agent)
        assert type(error) is ParseError and str(error) == message
        if agent is not None:
            capsys.readouterr()
            assert run(["estimate", path, "--agent", agent]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"


def test_spectrogram_window_too_long(p5_file, tmp_path, capsys):
    out = tmp_path / "out"
    run(["simulate", p5_file, "--seed", "1", "--out-dir", out, "--t-end", "10"])
    capsys.readouterr()
    assert run([
        "spectrogram", out / "trace.csv", "--agent", "0", "--window-len", "5000",
    ]) == 1
    assert "exceeds signal" in capsys.readouterr().err


def test_rounds_reference_bound(capsys):
    assert run(["rounds", "--delta-max", "2", "--t-min", str(2 * math.pi)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 800


def test_rounds_from_schedule(switching_schedule, capsys):
    assert run(["rounds", switching_schedule, "--t-min", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_max"] == 4  # complete graph on 5 agents
    assert payload["bound"] == math.ceil(4 * 4 * 1.0 * DEFAULT_SAMPLE_RATE - 1e-9)


def test_rounds_rejects_schedule_with_delta_max(switching_schedule, capsys):
    assert run(["rounds", switching_schedule, "--delta-max", "7"]) == 1
    assert "give either a schedule file or --delta-max, not both" in capsys.readouterr().err


def test_rounds_names_bad_schedule_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('[{"t_start": null, "t_end": 3, "edges": [[0, 1]], "n": 2}]')
    assert run(["rounds", path]) == 1
    assert capsys.readouterr().err == (
        "error: segment 0: field 't_start' must be a number, got null\n"
    )


def test_rounds_on_an_edgeless_schedule_is_zero(tmp_path, capsys):
    """An edgeless graph sends no message: its bound is 0, as simulate's
    messages.json total is, not an error about a delta_max never given."""
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("n 3\n")
    assert run(["rounds", edgeless]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_max"] == 0 and payload["bound"] == 0
    assert run(["simulate", edgeless, "--out-dir", tmp_path]) == 0
    assert json.loads((tmp_path / "messages.json").read_text())["total"] == 0


def test_rounds_requires_source(capsys):
    assert run(["rounds"]) == 1
    assert "delta-max" in capsys.readouterr().err


def _readme_flag_table():
    """README's subcommand table: {name: (positionals, flags)}."""
    rows = {}
    for line in (SCENARIOS.parent / "README.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`") and cells[1].startswith("`--"):
            name, *positionals = cells[0].strip("`").split()
            rows[name] = (positionals, {f.strip("`") for f in cells[1].split(", ")})
    return rows


def test_readme_flag_table_matches_parser():
    """Each subcommand's README row lists exactly the positionals and flags
    build_parser gives it, so a flag added or removed without a docs change
    fails here."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser_rows = {}
    for name, p in sub.choices.items():
        positionals = [
            f"[{a.dest.upper()}]" if a.nargs == "?" else a.dest.upper()
            for a in p._actions if not a.option_strings
        ]
        flags = {o for a in p._actions for o in a.option_strings if o.startswith("--")}
        parser_rows[name] = (positionals, flags - {"--help"})
    assert _readme_flag_table() == parser_rows
