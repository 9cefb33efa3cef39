"""Simulator checks: local rule, RK4 stages, sampling, energy, messages."""
from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from lapspec import (
    ConfigError,
    Graph,
    Segment,
    SimConfig,
    SimulationError,
    TopologySchedule,
    analytic_trajectory,
    build_laplacian,
    build_system_matrix,
    complete_graph,
    eigendecompose,
    local_derivative,
    parse_edge_list,
    parse_schedule,
    path_graph,
    random_init,
    round_bound,
    simulate,
    star_graph,
)
from lapspec.dynamics import (
    DEFAULT_SAMPLE_RATE,
    _edge_arrays,
    _flat_edges,
    _rk4_core,
    _stage_rates,
)
from conftest import random_connected_graph

K2 = Graph.from_edges(2, [(0, 1)])
P5 = path_graph(5)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def matrix_rk4_reference(laplacian, x, z, h, steps):
    """Independent integrator: same RK4 stages, dense system matrix."""
    sys_mat = build_system_matrix(laplacian)
    state = np.concatenate([x, z])
    for _ in range(steps):
        k1 = sys_mat @ state
        k2 = sys_mat @ (state + 0.5 * h * k1)
        k3 = sys_mat @ (state + 0.5 * h * k2)
        k4 = sys_mat @ (state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    n = len(x)
    return state[:n], state[n:]


# --- initialization -------------------------------------------------------------

def test_random_init_values_are_pm1():
    x0, z0 = random_init(1, 7)
    assert x0[0] in (-1.0, 1.0) and z0[0] in (-1.0, 1.0)
    x0, z0 = random_init(50, 99)
    assert set(np.unique(np.concatenate([x0, z0]))) <= {-1.0, 1.0}


def test_random_init_deterministic():
    a = random_init(5, 123)
    b = random_init(5, 123)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = random_init(5, 124)
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_random_init_mean_within_3_sigma():
    """Binomial std of the +/-1 mean is 1/sqrt(1000) ~ 0.032; 0.1 is 3 sigma."""
    x0, _ = random_init(1000, 2024)
    assert abs(x0.mean()) < 0.1


def test_random_init_rejects_zero_agents():
    with pytest.raises(ValueError):
        random_init(0, 1)


# --- local rule -------------------------------------------------------------------

def test_local_derivative_isolated_agent():
    assert local_derivative(0, 1.0, 0.0, []) == (0.0, -1.0)


def test_local_derivative_k2_hand_value():
    # dz = -1 - (1 - (-1)) = -3 for x=1 against neighbor x=-1
    dx, dz = local_derivative(0, 1.0, 0.0, [(-1.0, 0.0)])
    assert dx == 0.0 and dz == -3.0


def test_local_derivative_consensus_point():
    # coupling terms vanish when neighbors equal the agent
    dx, dz = local_derivative(1, 0.7, -0.3, [(0.7, -0.3), (0.7, -0.3)])
    assert dx == -0.3 and dz == -0.7


def _stage_test_states(rng, n):
    """Random states, states built from exact zeros, -0.0 and +/-1 (so many
    neighbor differences are exact zeros), and consensus points."""
    for _ in range(50):
        yield rng.standard_normal(n), rng.standard_normal(n)
    values = np.array([0.0, -0.0, 1.0, -1.0])
    for _ in range(50):
        yield rng.choice(values, size=n), rng.choice(values, size=n)
    for c, d in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.7, -0.3)):
        yield np.full(n, c), np.full(n, d)


def test_stage_rates_bitexact_with_local_rule():
    """The vectorized stage round must reproduce the per-agent loop bit for
    bit (same accumulation order, same signed zeros), for many states."""
    rng = np.random.default_rng(0)
    for g in (P5, star_graph(6), complete_graph(5)):
        s2, d2, _ = _flat_edges(g)
        neighbors = {i: [] for i in range(g.n)}
        for i, j in sorted(g.edges):
            neighbors[i].append(j)
            neighbors[j].append(i)
        for x, z in _stage_test_states(rng, g.n):
            rates = _stage_rates(np.concatenate((x, z)), s2, d2)
            expected = np.empty(2 * g.n)
            for i in range(g.n):
                expected[i], expected[g.n + i] = local_derivative(
                    i, x[i], z[i], [(x[j], z[j]) for j in neighbors[i]]
                )
            assert rates.tobytes() == expected.tobytes()


# --- system matrix -----------------------------------------------------------------

def test_system_matrix_single_node():
    assert np.array_equal(build_system_matrix([[0.0]]), [[0.0, 1.0], [-1.0, 0.0]])


def test_system_matrix_k2_blocks():
    mat = build_system_matrix(build_laplacian(K2))
    assert np.array_equal(mat[:2, 2:], [[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(mat[2:, :2], [[-2.0, 1.0], [1.0, -2.0]])
    assert np.array_equal(mat[:2, :2], np.zeros((2, 2)))


def test_system_matrix_exactly_skew():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 13)))
        mat = build_system_matrix(build_laplacian(g))
        assert np.max(np.abs(mat + mat.T)) == 0.0


# --- RK4 stepping ----------------------------------------------------------------

def test_rk4_single_agent_rotation():
    g = Graph.from_edges(1, [])
    cfg = SimConfig(t_end=0.01, f_s=100.0, h=0.01)
    trace, _ = simulate(TopologySchedule.single(g, 0.01), cfg, ([1.0], [0.0]))
    assert abs(trace.x[1, 0] - math.cos(0.01)) < 1e-10
    assert abs(trace.z[1, 0] + math.sin(0.01)) < 1e-10


def test_rk4_zero_step_identity():
    s2, d2, _ = _flat_edges(K2)
    w = np.array([0.3, -0.7, 1.1, 0.0])
    assert np.array_equal(_rk4_core(w, s2, d2, 0.0), w)


def test_rk4_k2_closed_form():
    """1000 steps of h=1e-3 against the closed form cos(3t) at t=1."""
    cfg = SimConfig(t_end=1.0, f_s=1.0, h=1e-3)
    trace, _ = simulate(TopologySchedule.single(K2, 1.0), cfg, ([1.0, -1.0], [0.0, 0.0]))
    assert abs(trace.x[1, 0] - math.cos(3.0)) < 1e-9
    assert abs(trace.x[1, 1] + math.cos(3.0)) < 1e-9


@pytest.mark.filterwarnings("error")
def test_rk4_nonfinite_abort():
    cfg = SimConfig(t_end=1.0, f_s=10.0, h=0.1)
    init = (np.array([np.inf, 0.0]), np.zeros(2))
    with np.errstate(invalid="ignore"), pytest.raises(
        SimulationError, match="non-finite state at t=0.1, first at agent 0"
    ):
        simulate(TopologySchedule.single(K2, 1.0), cfg, init)


def test_simulate_rejects_run_shorter_than_one_sample():
    """A one-sample trace is no trace: simulate rejects it up front."""
    sched, init = TopologySchedule.single(K2, 1.0), ([1.0, 0.0], [0.0, 0.0])
    cfg = SimConfig(t_end=0.05)
    assert cfg.num_samples() == 1
    with pytest.raises(ConfigError, match="at least 2 samples"):
        simulate(sched, cfg, init)
    trace, _ = simulate(sched, SimConfig(t_end=0.07), init)
    assert trace.num_samples == 2
    assert trace.segments == (Segment(0.0, 10 * cfg.step_size(), K2),)


def test_rk4_agrees_with_matrix_reference():
    """Message passing and the dense-matrix formulation agree to machine
    epsilon per step and stay together over a thousand steps."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        lap = build_laplacian(g)
        x0, z0 = random_init(g.n, int(rng.integers(0, 100)))
        cfg = SimConfig(t_end=1.0, f_s=1000.0, h=1e-3)  # one sample per step
        trace, _ = simulate(TopologySchedule.single(g, 1.0), cfg, (x0, z0))
        # single step
        rx, rz = matrix_rk4_reference(lap, x0, z0, 1e-3, 1)
        assert np.max(np.abs(trace.x[1] - rx)) < 1e-13
        assert np.max(np.abs(trace.z[1] - rz)) < 1e-13
        # thousand steps
        rx, rz = matrix_rk4_reference(lap, x0, z0, 1e-3, 1000)
        assert np.max(np.abs(trace.x[1000] - rx)) < 1e-10


# --- simulate --------------------------------------------------------------------

def test_simulate_sample_count():
    """floor(t_end * f_s) + 1 samples: 796 for the 50 s reference run."""
    sched = TopologySchedule.single(P5, 50.0)
    cfg = SimConfig(t_end=50.0)
    trace, _ = simulate(sched, cfg, random_init(5, 1))
    assert trace.num_samples == math.floor(50.0 * DEFAULT_SAMPLE_RATE) + 1 == 796
    assert len(trace.times) == 796
    assert abs(trace.times[1] - trace.times[0] - 1.0 / DEFAULT_SAMPLE_RATE) < 1e-15


def test_simulate_decoupled_agents_closed_form():
    """With no edges every agent runs the scalar rotation cos t + sin t."""
    g = Graph.from_edges(3, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # disconnected-graph warning
        sched = TopologySchedule.single(g, 10.0)
    cfg = SimConfig(t_end=10.0, f_s=10.0, h=1e-3)
    trace, _ = simulate(sched, cfg, (np.ones(3), np.ones(3)))
    expected = np.cos(trace.times) + np.sin(trace.times)
    for i in range(3):
        assert np.max(np.abs(trace.x[:, i] - expected)) < 1e-9


def test_simulate_nyquist_guard():
    sched = TopologySchedule.single(star_graph(6), 10.0)  # max degree 5
    cfg = SimConfig(t_end=10.0, f_s=3.0 / math.pi)  # 2*pi*f_s = 6 < 2*(1+10)
    with pytest.raises(ConfigError, match="Nyquist"):
        simulate(sched, cfg, random_init(6, 0))


def test_simulate_step_must_divide_sampling_period():
    sched = TopologySchedule.single(K2, 5.0)
    cfg = SimConfig(t_end=5.0, f_s=10.0, h=0.03)
    with pytest.raises(ConfigError, match="integer multiple"):
        simulate(sched, cfg, random_init(2, 0))


def test_simulate_t_end_beyond_schedule():
    sched = TopologySchedule.single(K2, 5.0)
    with pytest.raises(ConfigError, match="exceeds schedule"):
        simulate(sched, SimConfig(t_end=6.0), random_init(2, 0))


def test_simulate_bad_init_shape():
    sched = TopologySchedule.single(K2, 5.0)
    with pytest.raises(ConfigError, match="initial condition"):
        simulate(sched, SimConfig(t_end=5.0), (np.ones(3), np.ones(3)))


def test_simulate_deterministic_bit_exact():
    sched = TopologySchedule.single(P5, 10.0)
    cfg = SimConfig(t_end=10.0)
    init = random_init(5, 42)
    t1, c1 = simulate(sched, cfg, init)
    t2, c2 = simulate(sched, cfg, init)
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.z, t2.z)
    assert c1.total == c2.total


def _trace_digest(trace) -> str:
    return hashlib.sha256(trace.x.tobytes() + trace.z.tobytes()).hexdigest()


def test_simulate_golden_digest_p5():
    """Pinned trace bits: any change to the integrator's floating-point
    operations or their order shows up here."""
    g = parse_edge_list((SCENARIOS / "p5.txt").read_text())
    trace, counter = simulate(
        TopologySchedule.single(g, 50.0), SimConfig(t_end=50.0), random_init(5, 12345)
    )
    assert _trace_digest(trace) == (
        "3a9f99f8cf8a0dd89b82f6f9d0e938a03cc89c060c495399b65370b8ab285cbf"
    )
    assert counter.total == 254400


def test_simulate_golden_digest_switching():
    sched = parse_schedule((SCENARIOS / "switching.json").read_text(), base_dir=SCENARIOS)
    trace, counter = simulate(sched, SimConfig(t_end=20.0), random_init(sched.n, 11))
    assert _trace_digest(trace) == (
        "88da66cbb21a4af3809499d8494a4bd0d9ee5d37cf8e1774f133dbe8e6209978"
    )
    assert counter.total == 159544


def test_simulate_energy_conservation_short():
    sched = TopologySchedule.single(P5, 20.0)
    cfg = SimConfig(t_end=20.0, f_s=10.0, h=1e-3)
    trace, _ = simulate(sched, cfg, random_init(5, 3))
    energy = (trace.x**2 + trace.z**2).sum(axis=1)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6


def test_simulate_average_mode_rotation():
    """The state sums rotate at angular frequency exactly 1."""
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 6)
    sched = TopologySchedule.single(g, 12.0)
    cfg = SimConfig(t_end=12.0, f_s=10.0, h=1e-3)
    x0, z0 = random_init(6, 21)
    trace, _ = simulate(sched, cfg, (x0, z0))
    sum_x = trace.x.sum(axis=1)
    expected = x0.sum() * np.cos(trace.times) + z0.sum() * np.sin(trace.times)
    assert np.max(np.abs(sum_x - expected)) < 1e-6


def test_simulate_matches_analytic_oracle():
    rng = np.random.default_rng(14)
    g = random_connected_graph(rng, 6)
    sched = TopologySchedule.single(g, 8.0)
    cfg = SimConfig(t_end=8.0, f_s=10.0, h=1e-3)
    x0, z0 = random_init(6, 5)
    trace, _ = simulate(sched, cfg, (x0, z0))
    xa, za = analytic_trajectory(eigendecompose(g), x0, z0, trace.times)
    assert np.max(np.abs(trace.x - xa)) < 1e-6
    assert np.max(np.abs(trace.z - za)) < 1e-6


def test_simulate_three_segments_carry_state():
    """State is continuous across switches and spans are snapped to steps."""
    segs = [
        (0.0, 3.2, star_graph(5)),
        (3.2, 6.45, complete_graph(5)),
        (6.45, 10.0, P5),
    ]
    sched = TopologySchedule(segments=tuple(Segment(a, b, g) for a, b, g in segs))
    cfg = SimConfig(t_end=10.0, f_s=10.0, h=0.01)
    trace, _ = simulate(sched, cfg, random_init(5, 9))
    assert len(trace.segments) == 3
    for span in trace.segments:
        assert abs(span.t_start / 0.01 - round(span.t_start / 0.01)) < 1e-9
    assert trace.segments[-1].t_end == pytest.approx(10.0)
    # energy is still conserved through both switches
    energy = (trace.x**2 + trace.z**2).sum(axis=1)
    assert np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6


# --- message accounting -----------------------------------------------------------

def test_round_bound_reference_value():
    assert round_bound(2, 2.0 * math.pi, DEFAULT_SAMPLE_RATE) == 800


def test_round_bound_trivial():
    assert round_bound(1, 1.0, 1.0) == 4
    with pytest.raises(ValueError):
        round_bound(0, 1.0, 1.0)


def test_round_bound_is_ceiling():
    assert round_bound(1, 1.1, 1.0) == 5  # 4.4 -> 5


def test_message_counts_per_agent():
    """Per agent: 4 stages x degree messages per step."""
    sched = TopologySchedule.single(P5, 2.0 * math.pi)
    cfg = SimConfig(t_end=2.0 * math.pi, h=1.0 / DEFAULT_SAMPLE_RATE)
    trace, counter = simulate(sched, cfg, random_init(5, 0))
    steps = trace.num_samples - 1
    degrees = _edge_arrays(P5)[2].tolist()
    assert counter.per_agent.tolist() == [4 * d * steps for d in degrees]
    assert counter.total == sum(counter.per_agent)
    assert counter.per_sample_rounds == 4


def test_message_counter_dict_shape():
    sched = TopologySchedule.single(K2, 1.0)
    _, counter = simulate(sched, SimConfig(t_end=1.0), random_init(2, 0))
    payload = counter.to_dict()
    assert set(payload) == {"total", "per_agent", "per_sample_rounds"}
    assert payload["per_sample_rounds"] == 40  # 10 steps per sample x 4 stages
