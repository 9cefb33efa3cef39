"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they execute.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

from lapspec import (
    FreqEstimatorConfig,
    Graph,
    SampledSignal,
    SimConfig,
    TopologySchedule,
    analytic_trajectory,
    build_laplacian,
    build_system_matrix,
    check_estimability,
    complete_graph,
    cycle_graph,
    eigendecompose,
    estimate_frequencies,
    ls_fit,
    modal_coefficients,
    path_graph,
    random_init,
    round_bound,
    simulate,
    star_graph,
    verify_rank_relation,
)
from lapspec.cli import main as cli_main
from lapspec.dynamics import DEFAULT_SAMPLE_RATE
from lapspec.graph import directed_edges
from lapspec.oracle import EIG_TOL, RANK_TOL
from conftest import (
    disjoint_union,
    random_connected_graph,
    simple_spectrum_graph,
    well_conditioned_init,
)

FS = DEFAULT_SAMPLE_RATE
P5 = path_graph(5)
P5_LAMBDAS = np.array([0.0, 0.3819660113, 1.3819660113, 2.6180339887, 3.6180339887])
STAR4 = star_graph(4)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def estimate_for(trace, agent, n_max=8, window=50.0):
    sig = SampledSignal.from_trace(trace, agent)
    return estimate_frequencies(
        sig, FreqEstimatorConfig(n_max=n_max, window=window)
    )


def test_criterion_01_reference_table_reproduction():
    """Stationary P5, 50 s window: every agent with all modal coefficients
    above 0.05 recovers the full reference spectrum within 5e-3; the path
    center (whose antisymmetric-mode coefficients are structurally zero for
    every initialization) recovers exactly its estimable subset. Under 5 s."""
    start = time.perf_counter()
    seed = 12345
    x0, z0 = random_init(5, seed)
    dec = eigendecompose(P5)

    full_agents, center_agents = [], []
    for agent in range(5):
        amps = modal_coefficients(dec, x0, z0, agent).line_amplitudes()
        (full_agents if np.all(amps > 0.05) else center_agents).append(agent)
    assert full_agents == [0, 1, 3, 4] and center_agents == [2]

    trace, _ = simulate(
        TopologySchedule.single(P5, 50.0), SimConfig(t_end=50.0), (x0, z0)
    )
    worst = 0.0
    for agent in full_agents:
        est = estimate_for(trace, agent)
        assert est.n == 5, (agent, est.lambdas)
        worst = max(worst, float(np.max(np.abs(np.sort(est.lambdas) - P5_LAMBDAS))))
    # center agent: exactly the estimable subset {0, 1.382, 3.618}
    est_c = estimate_for(trace, 2)
    estimable = P5_LAMBDAS[check_estimability(dec, x0, z0, 2)]
    center_ok = est_c.n == 3 and np.max(np.abs(np.sort(est_c.lambdas) - estimable)) < 5e-3
    elapsed = time.perf_counter() - start
    report(
        1,
        "reference-spectrum reproduction on P5 at 50 s window",
        worst < 5e-3 and center_ok and elapsed < 5.0,
        f"max err {worst:.2e}, center n={est_c.n}, {elapsed:.2f}s",
    )


def test_criterion_02_end_to_end_random_graphs():
    """100 random connected graphs with simple spectra: a well-conditioned
    agent's estimate matches the oracle's distinct eigenvalues within 1e-2.
    The graphs run as one simulation over their disjoint union, which gives
    each member's columns bit for bit. Under 2 minutes."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    members = []
    while len(members) < 100:
        n = int(rng.integers(3, 11))
        g = simple_spectrum_graph(rng, n)
        init = well_conditioned_init(g, rng)
        if init is None:
            continue  # graph admits no well-conditioned agent; redraw
        members.append((g, init))
    schedule, init, offsets = disjoint_union(
        [g for g, _ in members], [(x0, z0) for _, (x0, z0, _) in members], 50.0
    )
    trace, _ = simulate(schedule, SimConfig(t_end=50.0), init)
    worst = 0.0
    for (g, (_, _, agent)), off in zip(members, offsets):
        est = estimate_for(trace, off + agent, n_max=g.n + 2)
        dec = eigendecompose(g)
        assert est.n == dec.num_distinct, (g.n, est.lambdas, dec.values)
        worst = max(worst, float(np.max(np.abs(np.sort(est.lambdas) - dec.values))))
    elapsed = time.perf_counter() - start
    report(
        2,
        "end-to-end estimation on 100 random simple-spectrum graphs",
        worst < 1e-2 and elapsed < 120.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_system_eigenvalue_multisets():
    """50 random graphs, n <= 12: complex eigenvalues of the assembled
    system equal the shifted Laplacian spectrum on both half-axes within
    1e-10, as multisets."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n) if k % 5 else Graph.from_edges(
            n, list(random_connected_graph(rng, n).edges)[: max(0, n - 2)]
        )  # every fifth graph possibly disconnected
        lam = np.linalg.eigvalsh(build_laplacian(g))
        expected = np.sort(np.concatenate([1.0 + lam, -(1.0 + lam)]))
        got = np.linalg.eigvals(build_system_matrix(build_laplacian(g)))
        err = max(
            float(np.max(np.abs(np.sort(got.imag) - expected))),
            float(np.max(np.abs(got.real))),
        )
        worst = max(worst, err)
    report(3, "system eigenvalues are the +/-j(1+lambda) multiset", worst < 1e-10,
           f"max dev {worst:.2e}")


def test_criterion_04_amplitude_formulas_on_analytic_trajectories():
    """Least-squares amplitudes at oracle frequencies equal the per-agent
    line coefficients within 1e-6 (star with repeated eigenvalue included);
    the zero-mode coefficient equals the initial average across all agents
    within 1e-14."""
    rng = np.random.default_rng(5)
    cases = []
    for g in (Graph.from_edges(2, [(0, 1)]), STAR4, P5, random_connected_graph(rng, 6)):
        if g.n % 2 == 0:
            z0 = np.array([1.0, -1.0] * (g.n // 2))  # zero-sum quadrature
        else:
            z0 = np.zeros(g.n)
        while True:
            x0 = np.asarray(rng.choice([-1.0, 1.0], g.n))
            if x0.sum() > 0:
                break
        cases.append((g, x0, z0))

    worst_amp = 0.0
    worst_avg = 0.0
    for g, x0, z0 in cases:
        dec = eigendecompose(g)
        t = np.arange(int(round(50.0 * FS))) / FS
        x, _ = analytic_trajectory(dec, x0, z0, t)
        omegas = 1.0 + dec.values
        avg = x0.sum() / g.n
        for agent in range(g.n):
            coef = modal_coefficients(dec, x0, z0, agent)
            sig = SampledSignal(samples=x[:, agent], f_s=FS)
            amps, _, _ = ls_fit(sig, omegas)
            expected = coef.line_amplitudes()
            worst_amp = max(worst_amp, float(np.max(np.abs(amps - expected))))
            worst_avg = max(worst_avg, abs(coef.a[0] - avg))
    report(
        4,
        "fitted amplitudes match the per-agent line coefficients",
        worst_amp < 1e-6 and worst_avg < 1e-14,
        f"amp dev {worst_amp:.2e}, avg dev {worst_avg:.2e}",
    )


def test_criterion_05_integrator_matches_closed_form():
    """RK4 trace vs the closed-form trajectory: max abs error < 1e-6 over
    [0, 10] at h = 1e-3 on random graphs up to n = 8, run as one simulation
    over their disjoint union."""
    rng = np.random.default_rng(31)
    graphs, inits = [], []
    for _ in range(5):
        n = int(rng.integers(2, 9))
        graphs.append(random_connected_graph(rng, n))
        inits.append(random_init(n, int(rng.integers(0, 1000))))
    schedule, init, offsets = disjoint_union(graphs, inits, 10.0)
    trace, _ = simulate(schedule, SimConfig(t_end=10.0, f_s=10.0, h=1e-3), init)
    worst = 0.0
    for g, (x0, z0), off in zip(graphs, inits, offsets):
        xa, za = analytic_trajectory(eigendecompose(g), x0, z0, trace.times)
        worst = max(
            worst,
            float(np.max(np.abs(trace.x[:, off : off + g.n] - xa))),
            float(np.max(np.abs(trace.z[:, off : off + g.n] - za))),
        )
    report(5, "RK4 trace equals the closed-form oracle to 1e-6", worst < 1e-6,
           f"max err {worst:.2e}")


def system_pbh_rank(lap: np.ndarray, out: np.ndarray) -> int:
    """PBH rank of the paired system with output kron(I2, C), from a dense
    eigendecomposition of the assembled system matrix: eigh of the
    Hermitian 1j * A, eigenvalues clustered at EIG_TOL, singular values
    of kron(I2, C) W_j counted above RANK_TOL * ||C||_2."""
    vals, vecs = np.linalg.eigh(1j * build_system_matrix(lap))
    out_sys = np.kron(np.eye(2), out)
    floor = RANK_TOL * np.linalg.norm(out, 2)
    edges = np.flatnonzero(np.diff(vals) > EIG_TOL) + 1
    return sum(
        int(np.sum(np.linalg.svd(out_sys @ w, compute_uv=False) > floor))
        for w in np.split(vecs, edges, axis=1)
    )


def test_criterion_06_observability_rank_relation():
    """rank(O_system) = 2 rank(O_laplacian) exactly, over 50 random
    (graph, output) pairs with single-agent rows and random 2-row outputs,
    plus the repeated-eigenvalue star hub and leaf, the P5 centre and K8.
    The system rank is counted from the assembled 2n x 2n system, not from
    the oracle's Laplacian eigenbasis."""
    rng = np.random.default_rng(41)
    pairs = []
    for k in range(50):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        if k % 2 == 0:
            out = np.zeros((1, n))
            out[0, int(rng.integers(0, n))] = 1.0
        else:
            out = rng.standard_normal((2, n))
        pairs.append((g, out))
    pairs += [(STAR4, np.eye(4)[[0]]), (STAR4, np.eye(4)[[1]]), (P5, np.eye(5)[[2]]),
              (complete_graph(8), np.eye(8)[[3]])]
    mismatches = []
    for g, out in pairs:
        lap = build_laplacian(g)
        rep = verify_rank_relation(lap, out)
        want = system_pbh_rank(lap, out)
        if rep.rank_system != want or 2 * rep.rank_laplacian != want:
            mismatches.append((g.n, rep.rank_laplacian, rep.rank_system, want))
    report(6, "observability rank doubling holds exactly on 54 pairs",
           not mismatches, f"mismatches: {mismatches}" if mismatches else "54/54")


def test_criterion_07_energy_conservation():
    """Relative drift of the conserved energy below 1e-6 over [0, 100] at
    h = 1e-3 on the test graphs, run as one simulation over their disjoint
    union."""
    rng = np.random.default_rng(8)
    graphs = (P5, STAR4, random_connected_graph(rng, 8))
    inits = [random_init(g.n, int(rng.integers(0, 100))) for g in graphs]
    schedule, init, offsets = disjoint_union(graphs, inits, 100.0)
    trace, _ = simulate(schedule, SimConfig(t_end=100.0, f_s=10.0, h=1e-3), init)
    worst = 0.0
    for g, off in zip(graphs, offsets):
        x, z = trace.x[:, off : off + g.n], trace.z[:, off : off + g.n]
        energy = (x**2 + z**2).sum(axis=1)
        worst = max(worst, float(np.max(np.abs(energy - energy[0])) / energy[0]))
    report(7, "energy drift below 1e-6 over 100 s", worst < 1e-6, f"max drift {worst:.2e}")


def test_criterion_08_communication_round_accounting():
    """Measured per-agent messages over one slowest period, one RK4 step per
    sample, stay within 4 * max_degree * T * fs = 800, with equality for the
    maximum-degree agents."""
    t_min = 2.0 * math.pi
    bound = round_bound(2, t_min, FS)
    trace, counter = simulate(
        TopologySchedule.single(P5, t_min),
        SimConfig(t_end=t_min, h=1.0 / FS),
        random_init(5, 0),
    )
    per_agent = counter.per_agent
    max_deg_agents = np.flatnonzero(directed_edges(P5)[2] == 2).tolist()
    ok = (
        bound == 800
        and np.all(per_agent <= bound)
        and all(per_agent[i] == bound for i in max_deg_agents)
    )
    report(8, "per-agent message counts meet the 800-round bound", ok,
           f"bound {bound}, counts {per_agent.tolist()}")


def test_criterion_09_no_dc_component():
    """Trapezoidal time average of every agent's signal over [0, 4*pi] below
    1e-3 on connected integer-spectrum test graphs (all lines then complete
    whole periods over the window). The graphs run as one simulation over
    their disjoint union, whose columns are every agent of every graph."""
    graphs = [
        Graph.from_edges(2, [(0, 1)]),
        complete_graph(3),
        STAR4,
        cycle_graph(4),
        complete_graph(4),
    ]
    inits = [random_init(g.n, 50 + k) for k, g in enumerate(graphs)]
    schedule, init, _ = disjoint_union(graphs, inits, 4.0 * math.pi)
    trace, _ = simulate(schedule, SimConfig(t_end=4.0 * math.pi, f_s=1000.0, h=1e-3), init)
    worst = 0.0
    for win_end in (2.0 * math.pi, 4.0 * math.pi):
        hi = int(np.searchsorted(trace.times, win_end + 1e-9))
        x_win = trace.x[:hi]
        dt = trace.times[1] - trace.times[0]
        # uniform trapezoidal rule; a plain sample mean would double-count
        # the shared endpoint of the whole periods and bias by O(1/N)
        integral = (0.5 * (x_win[0] + x_win[-1]) + x_win[1:-1].sum(axis=0)) * dt
        means = integral / trace.times[hi - 1]
        worst = max(worst, float(np.max(np.abs(means))))
    report(9, "no DC component: window averages below 1e-3", worst < 1e-3,
           f"max |mean| {worst:.2e}")


def test_criterion_10_star_negative_observability(tmp_path, capsys):
    """Each star leaf estimates exactly three eigenvalues {0, 1, 4} (the
    repeated one appears once); the hub misses the repeated eigenvalue
    entirely; the validate command reports the rank deficiency."""
    seed = 0
    x0, z0 = random_init(4, seed)
    dec = eigendecompose(STAR4)
    trace, _ = simulate(
        TopologySchedule.single(STAR4, 50.0), SimConfig(t_end=50.0), (x0, z0)
    )
    leaf_ok = True
    for leaf in (1, 2, 3):
        est = estimate_for(trace, leaf)
        leaf_ok &= est.n == 3 and bool(
            np.max(np.abs(np.sort(est.lambdas) - np.array([0.0, 1.0, 4.0]))) < 1e-2
        )
    hub = estimate_for(trace, 0)
    hub_flags = check_estimability(dec, x0, z0, 0)
    hub_ok = (
        hub.n == 2
        and np.max(np.abs(np.sort(hub.lambdas) - np.array([0.0, 4.0]))) < 1e-2
        and hub_flags.tolist() == [True, False, True]
    )

    star_file = tmp_path / "star.txt"
    star_file.write_text("n 4\n0 1\n0 2\n0 3\n")
    capsys.readouterr()
    code = cli_main([
        "validate", str(star_file), "--agent", "0", "--seed", str(seed),
        "--t-end", "50",
    ])
    payload = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        validate_ok = (
            code == 0
            and any("rank deficiency" in w for w in payload["warnings"])
            and payload["segments"][0]["rank"]["L"] == 2
        )
        report(
            10,
            "star observability negative case and validate report",
            leaf_ok and hub_ok and validate_ok,
            f"hub lambdas {np.round(hub.lambdas, 3).tolist()}",
        )
