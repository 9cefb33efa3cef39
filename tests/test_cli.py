"""End-to-end command-line checks over temp directories."""
from __future__ import annotations

import json
import math

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
    serialize_edge_list,
    simulate,
    star_graph,
)
from lapspec.cli import main, read_trace_csv, write_trace_csv
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


def _reference_write_trace_csv(trace, path):
    """Per-cell f"{v:.17g}" writer that write_trace_csv must match byte for byte."""
    n = trace.n
    header = ",".join(["t"] + [f"x_{i}" for i in range(n)] + [f"z_{i}" for i in range(n)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(trace.num_samples):
            row = [trace.times[k], *trace.x[k], *trace.z[k]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_trace_csv_writer_matches_per_cell_format(tmp_path):
    rng = np.random.default_rng(9)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e16, 1.2345678901234567e17, -9.87e300,
               1.0 / 3.0, 2.0**-1074 * 3, 1e-5, -1.5]
    x = rng.standard_normal((6, 3)) * 10.0 ** rng.integers(-320, 300, size=(6, 3))
    z = rng.standard_normal((6, 3))
    x.flat[: len(special)] = special
    z.flat[-7:] = special[:7]
    times = np.arange(6) * 0.0625
    times[0] = -0.0
    trace = Trace(times=times, x=x, z=z, f_s=16.0, segments=())
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_trace_csv(trace, got)
    _reference_write_trace_csv(trace, want)
    assert got.read_bytes() == want.read_bytes()


def test_trace_csv_rejects_column_count_mismatch(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,x_0,z_0\n" + "".join(f"{k * 0.0625},1,2,3,4\n" for k in range(3)))
    with pytest.raises(ParseError, match="rows have 5 columns, header has 3"):
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
])
def test_non_finite_settings_rejected_by_name(argv, setting, p5_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    if "{trace}" in argv:
        assert run(["simulate", p5_file, "--t-end", "10", "--out-dir", tmp_path]) == 0
        capsys.readouterr()
    # Exit 1 means main caught the error: an uncaught one would raise here.
    assert run([a.format(p5=p5_file, trace=trace) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {setting}, got ")


@pytest.mark.parametrize("argv", [
    ["rounds", "--delta-max", "2", "--seed", "3"],
    ["spectrogram", "trace.csv", "--agent", "0", "--nmax", "4"],
    ["estimate", "trace.csv", "--agent", "0", "--fs", "15.91549"],
    ["simulate", "p5.txt", "--rank-tol", "1e-6"],
    ["estimate", "trace.csv", "--agent", "0", "--step", "0.01"],
    ["spectrogram", "trace.csv", "--agent", "0", "--fs", "16"],
])
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err


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


def test_rounds_requires_source(capsys):
    assert run(["rounds"]) == 1
    assert "delta-max" in capsys.readouterr().err


def test_out_dir_env_var(p5_file, tmp_path, monkeypatch):
    monkeypatch.setenv("LAPSPEC_OUT_DIR", str(tmp_path / "envout"))
    assert run(["simulate", p5_file, "--seed", "2"]) == 0
    assert (tmp_path / "envout" / "trace.csv").exists()
