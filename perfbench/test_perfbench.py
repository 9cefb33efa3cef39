"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lapspec  # noqa: E402
from lapspec import cli as ls_cli  # noqa: E402

from perfbench import checks, inputs, tracing, workloads  # noqa: E402
from perfbench.clock import Clock, sampling  # noqa: E402
from perfbench.tracing import Span  # noqa: E402


def test_generators_are_deterministic_per_seed():
    for seed in (0, 7):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert inputs.simple_spectrum_graph(a, 9) == inputs.simple_spectrum_graph(b, 9)
        g = inputs.simple_spectrum_graph(np.random.default_rng(seed), 6)
        ia = inputs.well_conditioned_init(g, np.random.default_rng(seed))
        ib = inputs.well_conditioned_init(g, np.random.default_rng(seed))
        assert ia is not None and ia[2] == ib[2]
        assert np.array_equal(ia[0], ib[0]) and np.array_equal(ia[1], ib[1])
    big = inputs.sparse_connected_graph(np.random.default_rng(3), 500, 8)
    assert big == inputs.sparse_connected_graph(np.random.default_rng(3), 500, 8)
    assert big != inputs.sparse_connected_graph(np.random.default_rng(4), 500, 8)
    assert lapspec.is_connected(big) and lapspec.max_degree(big) <= 8


@pytest.mark.parametrize("cls", [workloads.Sweep, workloads.Agents, workloads.Cli])
def test_workload_inputs_are_deterministic_per_seed(cls, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = cls(tmp_path / "a").setup(5)
    second = cls(tmp_path / "b").setup(5)
    files_a = {p.name: p.read_text() for p in (tmp_path / "a").iterdir()}
    files_b = {p.name: p.read_text() for p in (tmp_path / "b").iterdir()}
    assert files_a == files_b and files_a
    assert repr(_strip_paths(first)) == repr(_strip_paths(second))


def _strip_paths(state):
    if isinstance(state, dict):
        return {k: v for k, v in state.items() if not isinstance(v, Path)}
    return state


def _sweep_case(tmp_path):
    wl = workloads.Sweep(tmp_path)
    wl.graphs = 1
    cases = wl.setup(11)
    ctx = workloads.Ctx(Counter(), tracing.NullTracer(), Clock())
    ops = wl.run_pass(cases, 0, ctx)
    return wl, cases, ops


def test_planted_wrong_estimate_is_a_failure(tmp_path):
    wl, cases, ops = _sweep_case(tmp_path)
    truth = wl.truth(cases, ops)
    good = checks.Ledger()
    for op in ops:
        good.record(op.name, wl.check(op, cases, truth, good))
    assert good.failed == 0 and good.hits == good.targets > 0

    est = ops[1].value
    planted = workloads.Op(ops[1].name, lapspec.SpectrumEstimate(
        n=est.n, omega=est.omega + 0.3, amplitudes=est.amplitudes, phases=est.phases,
        lambdas=est.lambdas + 0.3, flag=True, residual_percent=est.residual_percent))
    bad = checks.Ledger()
    bad.record(planted.name, wl.check(planted, cases, truth, bad))
    assert bad.failed == 1 and bad.unexpected()
    assert bad.spurious == est.n and bad.hits == 0


def test_pass_that_differs_from_the_first_is_a_failure(tmp_path):
    from perfbench.run import Pass, check_passes

    wl, cases, ops = _sweep_case(tmp_path)
    fps = {op.name: wl.fingerprint(op) for op in ops}
    changed = dict(fps, **{ops[1].name: "something else"})
    passes = [Pass(False, 1.0, 1.0, [], ops, Counter(), [], fps),
              Pass(False, 1.0, 1.0, [], ops, Counter(), [], changed)]
    ledger = checks.Ledger()
    check_passes(wl, cases, passes, ledger)
    assert ledger.attempted == len(ops)  # each operation once, however many passes ran
    assert [op for op, _ in ledger.failures] == [ops[1].name]
    assert [k for k, _ in ledger.failures[0][1]] == ["digest"]


def _validate_payload(schedule: str, agent: int, seed: int, t_end: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ls_cli.main(["validate", schedule, "--agent", str(agent), "--seed", str(seed),
                            "--t-end", t_end]) == 0
    return json.loads(out.getvalue())


def test_corrupted_validate_field_is_a_failure():
    p5 = lapspec.path_graph(5)
    x0, z0 = lapspec.random_init(5, 12345)
    payload = _validate_payload(str(workloads.SCENARIOS / "p5.txt"), 2, 12345, "20")
    segs = [{"dec": lapspec.eigendecompose(p5), "x": x0, "z": z0}]

    ledger = checks.Ledger()
    assert checks.check_validate(payload, segs, x0, z0, 2, ledger, n_max=8) == []

    wrong_coef = json.loads(json.dumps(payload))
    wrong_coef["segments"][0]["per_eigenvalue"][1]["coefficient"] += 0.01
    kinds = [k for k, _ in checks.check_validate(wrong_coef, segs, x0, z0, 2, ledger, n_max=8)]
    assert kinds == ["coefficient"]

    wrong_rank = json.loads(json.dumps(payload))
    wrong_rank["segments"][0]["rank"]["L"] += 1
    ledger = checks.Ledger()
    ledger.record("validate", checks.check_validate(wrong_rank, segs, x0, z0, 2, ledger, n_max=8))
    assert ledger.failed == 1 and ledger.rank_wrong == 1
    assert not ledger.unexpected()  # 'rank' is a listed known defect


def test_switching_validate_reproduces_the_segment_state_defect():
    sched = lapspec.parse_schedule((workloads.SCENARIOS / "switching.json").read_text(),
                                   base_dir=workloads.SCENARIOS)
    x0, z0 = lapspec.random_init(sched.n, workloads.SWITCHING_SEED)
    trace, _ = lapspec.simulate(sched, lapspec.SimConfig(t_end=sched.t_end), (x0, z0))
    payload = _validate_payload(str(workloads.SCENARIOS / "switching.json"), 1,
                                workloads.SWITCHING_SEED, "20")
    problems = checks.check_validate(payload, workloads.Cli.segment_truth(trace), x0, z0, 1,
                                     checks.Ledger(), n_max=8)
    assert [k for k, _ in problems] == ["segment_state", "segment_state"]


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        Span(0, "oracle.eigendecompose", 0.0, 10.0, None),
        Span(1, "graph.build_laplacian", 1.0, 3.0, 0),
        Span(2, "oracle.eig_sym", 5.0, 9.0, 0),
        Span(3, "estimation.ls_fit", 6.0, 8.0, 2),
        Span(4, "dynamics.simulate", 20.0, 21.5, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 4.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 1.5}
    layers = tracing.layer_self_times(spans)
    assert layers["oracle"] == 6.0 and layers["graph"] == 2.0 and layers["estimation"] == 2.0
    assert sum(layers.values()) == 10.0 + 1.5  # self times partition the root spans
    metrics = tracing.time_metrics(spans)
    assert metrics["oracle.eig_s"] == 10.0  # eig_sym nested in eigendecompose counts once
    assert metrics["graph.laplacian_s"] == 2.0


def test_instrument_records_nested_spans_and_restores():
    original = lapspec.oracle.eig_sym
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        lapspec.oracle.eigendecompose(lapspec.path_graph(4))
    assert lapspec.oracle.eig_sym is original
    names = {s.sid: s.name for s in tracer.spans}
    parents = {s.name: names.get(s.parent) for s in tracer.spans}
    assert parents == {
        "graph.build_laplacian": "oracle.eigendecompose",
        "oracle.eig_sym": "oracle.eigendecompose",
        "oracle.eigendecompose": None,
    }


def test_child_time_leaves_out_the_calibration_samples_taken_inside(tmp_path):
    samples = tmp_path / "samples.json"

    def child():
        at = time.perf_counter()
        samples.write_text(json.dumps([[at, 0.01], [at + 0.02, 0.01]]))
        time.sleep(0.05)

    clock = Clock()
    start = time.perf_counter()
    clock.run_child(samples, child)
    elapsed = time.perf_counter() - start
    clock.settle()
    assert elapsed - 0.02 - 0.01 < clock.raw_s < elapsed - 0.02
    assert clock.calibrations.count(0.01) == 2
    samples.unlink()
    clock.run_child(samples, time.sleep, 0.01)  # no samples: one stretch
    clock.settle()
    assert clock.raw_s > 0.04


def test_operation_time_leaves_out_the_samples_taken_during_it():
    clock = Clock()
    with sampling():
        clock.run(time.sleep, 0.35)  # the timer interrupts the sleep, which resumes
        clock.settle()
    inside = clock.calibrations[:-1]  # the last one was taken after the operation
    assert len(inside) >= 2
    assert clock.raw_s == pytest.approx(0.35 - sum(inside), abs=0.01)


def test_stft_reference_matches_the_program():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(300)
    data = lapspec.spectrogram(lapspec.SampledSignal(samples, f_s=10.0), 64, 8)
    assert checks.check_spectrogram(data.magnitude, samples, 64, 8, rtol=1e-12) == []
    assert checks.check_spectrogram(data.magnitude * 1.001, samples, 64, 8, rtol=1e-9)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    from perfbench.run import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["sweep", "agents", "cli"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_merged_close_pair_is_the_known_defect_and_a_far_line_is_not():
    # Every agent sees all four eigenvalues; 1.0 and 1.06 are closer than 2*pi/50.
    basis = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    dec = lapspec.EigenDecomposition(values=np.array([0.0, 1.0, 1.06, 3.0]),
                                     multiplicities=np.ones(4, dtype=int),
                                     vectors=tuple(basis[:, [k]] for k in range(4)))
    x0 = np.array([1.0, 0.2, 0.3, 0.4])
    z0 = np.zeros(4)
    merged = checks.score_estimate(checks.Ledger(), [0.0, 1.03, 3.0], True, dec, x0, z0, 0, 8, 50.0)
    assert [k for k, _ in merged] == ["merged_pair"]
    far = checks.score_estimate(checks.Ledger(), [0.0, 1.0, 1.06, 3.4], True, dec, x0, z0, 0, 8, 50.0)
    assert [k for k, _ in far] == ["estimate"]
    unflagged = checks.score_estimate(checks.Ledger(), [0.0, 1.03, 3.0], False, dec, x0, z0, 0, 8, 50.0)
    assert unflagged == []
