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
from lapspec.dynamics import DEFAULT_SAMPLE_RATE, Trace, _samples
from lapspec.graph import directed_edges
from conftest import disjoint_union, random_connected_graph, simple_spectrum_graph

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


def _directed_layout(g: Graph) -> tuple[np.ndarray, ...]:
    """The reference's own stage-round arrays over [x, z], from both directions
    of every edge: s2 = [src, src + n], d2 = [dst, dst + n], t2 = swap[s2],
    swap = [n..2n-1, 0..n-1], sgn = [+1]*n + [-1]*n. simulate builds its own
    layout, so the reference checks it rather than sharing it."""
    (src, dst, _), n = directed_edges(g), g.n
    s2, swap = np.concatenate((src, src + n)), np.roll(np.arange(2 * n), n)
    return s2, np.concatenate((dst, dst + n)), swap[s2], swap, np.repeat([1.0, -1.0], n)


def _stage_rates(w: np.ndarray, edges: tuple[np.ndarray, ...]) -> np.ndarray:
    """Reference stage round, one call per round: [z + A_z, (-x) + (-A_x)],
    acc = [A_z, A_x]. simulate's step must match it bit for bit."""
    s2, d2, t2, swap, sgn = edges
    acc = np.bincount(t2, w[s2] - w[d2], minlength=w.size)
    k = w[swap]
    k *= sgn
    k += acc * sgn  # not acc *= sgn: with no edges, bincount returns int zeros
    return k


def _rk4_core(w: np.ndarray, edges: tuple[np.ndarray, ...], h: float) -> np.ndarray:
    """Reference classical RK4 step on the flat state via four stage rounds."""
    k1 = _stage_rates(w, edges)
    k2 = _stage_rates(w + 0.5 * h * k1, edges)
    k3 = _stage_rates(w + 0.5 * h * k2, edges)
    k4 = _stage_rates(w + h * k3, edges)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_run(g: Graph, cfg: SimConfig, x0, z0) -> np.ndarray:
    """Reference simulate on one fixed graph: _rk4_core step by step, one
    [x, z] row per sample."""
    edges = _directed_layout(g)
    h, m = cfg.step_size(), cfg.steps_per_sample()
    w = np.concatenate((x0, z0))
    rows = [w]
    for step in range(1, (cfg.num_samples() - 1) * m + 1):
        w = _rk4_core(w, edges, h)
        if step % m == 0:
            rows.append(w)
    return np.array(rows)


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
    for n, text in ((2.5, "2.5"), (True, "true")):
        with pytest.raises(TypeError, match=f"^field 'n': {text} is not an integer$"):
            random_init(n, 0)


def test_random_init_rejects_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        random_init(5, -1)
    for seed, text in ((1.5, "1.5"), (True, "true")):
        with pytest.raises(TypeError, match=f"^field 'seed': {text} is not an integer$"):
            random_init(2, seed)


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
    neighbor differences are exact zeros), consensus points, and states whose
    magnitudes span 1e-16 to 1e16 beside +/-0.0, where the order of a sum
    decides its rounding."""
    for _ in range(50):
        yield rng.standard_normal(n), rng.standard_normal(n)
    values = np.array([0.0, -0.0, 1.0, -1.0])
    for _ in range(50):
        yield rng.choice(values, size=n), rng.choice(values, size=n)
    for c, d in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.7, -0.3)):
        yield np.full(n, c), np.full(n, d)
    yield from _wide_states(rng, n, 20)


def _wide_states(rng, n, count):
    """count states of magnitudes from 1e-16 to 1e16, half of them drawn from
    +/-0.0 and +/-10^k, so that neighbors cancel exactly or swamp each other."""
    values = np.array([0.0, -0.0, *(s * 10.0**k for k in (-16, -8, 0, 8, 16) for s in (1, -1))])
    for i in range(count):
        if i % 2:
            yield rng.choice(values, size=n), rng.choice(values, size=n)
        else:
            yield tuple(rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-16, 16, size=n)
                        for _ in range(2))


def _middle_star(n):
    """A star whose hub carries the middle label, so it has lower and higher
    neighbors."""
    return Graph.from_edges(n, [(n // 2, i) for i in range(n) if i != n // 2])


def _ascending_neighbors(g):
    neighbors = {i: [] for i in range(g.n)}
    for i, j in sorted(g.edges):
        neighbors[i].append(j)
        neighbors[j].append(i)
    return neighbors


def test_stage_rates_bitexact_with_local_rule():
    """The vectorized stage round must reproduce the per-agent loop bit for
    bit (same accumulation order, same signed zeros), for many states: the
    reference round against local_derivative, and one step of simulate,
    whose loop body holds the rounds, against the reference step and the
    per-agent RK4."""
    rng = np.random.default_rng(0)
    sparse = random_connected_graph(np.random.default_rng(7), 240)  # near the cli size
    h = 0.01
    cfg = SimConfig(t_end=h, f_s=1.0 / h, h=h)  # one step, sampled
    for g in (P5, star_graph(6), _middle_star(7), complete_graph(5), complete_graph(7), sparse):
        edges = _directed_layout(g)
        neighbors = _ascending_neighbors(g)
        sched = TopologySchedule.single(g, h)
        for x, z in _stage_test_states(rng, g.n):
            w = np.concatenate((x, z))
            rates = _stage_rates(w, edges)
            expected = np.empty(2 * g.n)
            for i in range(g.n):
                expected[i], expected[g.n + i] = local_derivative(
                    i, x[i], z[i], [(x[j], z[j]) for j in neighbors[i]]
                )
            assert rates.tobytes() == expected.tobytes()
            trace, _ = simulate(sched, cfg, (x, z))
            assert trace.states[1].tobytes() == _rk4_core(w, edges, h).tobytes()
            assert trace.states.tobytes() == _per_agent_rk4([g], x, z, h, 1).tobytes()


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
    """A step whose update h * rate is below half an ulp of every component
    leaves the state bit for bit, as a zero step would: simulate adds the
    weighted stage sum to w. The reference step at h = 0 is the identity."""
    edges = _directed_layout(K2)
    w = np.array([0.3, -0.7, 1.1, 0.0])
    assert np.array_equal(_rk4_core(w, edges, 0.0), w)
    w = np.array([0.3, -0.7, 1.1, -0.4])
    h = 1e-20
    cfg = SimConfig(t_end=10 * h, f_s=1.0 / h, h=h)
    trace, _ = simulate(TopologySchedule.single(K2, 1.0), cfg, (w[:2], w[2:]))
    assert trace.num_samples == 11
    assert trace.states.tobytes() == np.tile(w, (11, 1)).tobytes()


def test_rk4_k2_closed_form():
    """1000 steps of h=1e-3 against the closed form cos(3t) at t=1."""
    cfg = SimConfig(t_end=1.0, f_s=1.0, h=1e-3)
    trace, _ = simulate(TopologySchedule.single(K2, 1.0), cfg, ([1.0, -1.0], [0.0, 0.0]))
    assert abs(trace.x[1, 0] - math.cos(3.0)) < 1e-9
    assert abs(trace.x[1, 1] + math.cos(3.0)) < 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph, cfg, init, t", [
    (K2, SimConfig(t_end=1.0, f_s=10.0, h=0.1), (np.array([1e308, -1e308]), np.zeros(2)), "0.1"),
    (path_graph(5), SimConfig(t_end=50.0), tuple(1e308 * v for v in random_init(5, 0)),
     "0.0628319"),
], ids=["K2", "P5"])
def test_rk4_nonfinite_abort(graph, cfg, init, t):
    """A finite state that overflows mid-run aborts at the first sample with
    simulate's named error, under warnings as errors: numpy's overflow
    warnings on the way there do not escape."""
    with pytest.raises(SimulationError, match=f"non-finite state at t={t}, first at agent 0"):
        simulate(TopologySchedule.single(graph, cfg.t_end), cfg, init)


def test_doubled_stage_overflow_aborts_at_the_same_sample():
    """Where a state overflows, a doubled k2 that overflows reaches stage 3's
    input, where the textbook's 2*k2 reached only the final sum. Both abort at
    the same sample, t=0.1 on this P3, but simulate finds agent 0 not finite
    and the reference loop agent 1 first."""
    g, cfg = path_graph(3), SimConfig(t_end=1.0, f_s=10.0, h=0.1)
    x0 = np.array([3.8201645662146904e307, -1.2058147272359928e307, -3.5672905452824774e307])
    z0 = np.array([-9.902852851210832e306, -2.0184656265948462e307, 2.175276995771445e307])
    with pytest.raises(SimulationError, match=r"^non-finite state at t=0\.1, first at agent 0$"):
        simulate(TopologySchedule.single(g, 1.0), cfg, (x0, z0))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _reference_run(g, cfg, x0, z0)
    assert np.isfinite(expected[0]).all()
    assert np.flatnonzero(~np.isfinite(expected[1]))[0] % g.n == 1


def test_simulate_rejects_run_shorter_than_one_sample():
    """A one-sample trace is no trace: simulate rejects it up front."""
    sched, init = TopologySchedule.single(K2, 1.0), ([1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ConfigError, match="at least 2 samples"):
        SimConfig(t_end=0.05)
    cfg = SimConfig(t_end=0.07)
    trace, _ = simulate(sched, cfg, init)
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


def _per_agent_rk4(step_graphs, x0, z0, h, m):
    """Pure-Python RK4 by per-agent message passing: in each of the four stage
    rounds every agent calls local_derivative on its own stage value and its
    neighbors' (ascending order). step_graphs[s] is the graph of step s.
    Returns the flat states [x, z] after every m-th step, starting with x0, z0."""
    w = [float(v) for v in (*x0, *z0)]

    def rates(g, v):
        neighbors = _ascending_neighbors(g)
        d = [local_derivative(i, v[i], v[g.n + i], [(v[j], v[g.n + j]) for j in neighbors[i]])
             for i in range(g.n)]
        return [dx for dx, _ in d] + [dz for _, dz in d]

    def axpy(a, u, k):
        return [ui + a * ki for ui, ki in zip(u, k)]

    samples = [w]
    for step, g in enumerate(step_graphs, start=1):
        k1 = rates(g, w)
        k2 = rates(g, axpy(0.5 * h, w, k1))
        k3 = rates(g, axpy(0.5 * h, w, k2))
        k4 = rates(g, axpy(h, w, k3))
        w = [wi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
             for wi, a, b, c, d in zip(w, k1, k2, k3, k4)]
        if step % m == 0:
            samples.append(w)
    return np.array(samples)


def test_simulate_bitexact_with_per_agent_rk4():
    """Whole RK4 steps, not one stage: 50 steps of simulate against the
    per-agent loop, byte for byte, on fixed and switching topologies and on
    states built from signed zeros and +/-1 as well as random ones."""
    rng = np.random.default_rng(21)
    h, m = 0.02, 5  # 50 steps sampled every 5th
    cfg = SimConfig(t_end=1.0, f_s=10.0, h=h)
    g6 = random_connected_graph(rng, 6)
    schedules = [
        TopologySchedule.single(P5, 1.0),
        TopologySchedule.single(star_graph(7), 1.0),
        TopologySchedule.single(random_connected_graph(rng, 10), 1.0),
        TopologySchedule.single(Graph.from_edges(1, []), 1.0),  # no messages at all
        TopologySchedule(segments=(Segment(0.0, 0.4, star_graph(6)), Segment(0.4, 1.0, g6))),
    ]
    values = np.array([0.0, -0.0, 1.0, -1.0])
    for sched in schedules:
        n = sched.n
        inits = [
            (rng.standard_normal(n), rng.standard_normal(n)),
            (rng.choice(values, size=n), rng.choice(values, size=n)),
            (rng.choice(values[:2], size=n), rng.choice(values[:2], size=n)),
        ]
        for x0, z0 in inits:
            trace, _ = simulate(sched, cfg, (x0, z0))
            steps = [seg.graph for seg in trace.segments
                     for _ in range(round((seg.t_end - seg.t_start) / h))]
            assert len(steps) == 50
            expected = _per_agent_rk4(steps, x0, z0, h, m)
            assert trace.x.tobytes() == expected[:, :n].tobytes()
            assert trace.z.tobytes() == expected[:, n:].tobytes()


def test_simulate_bitexact_across_segment_layouts():
    """Each segment gets its own stage-round layout: a switching schedule that
    goes from a middle-labelled star to an edgeless segment (no summands, so
    bincount's int-zero case) to K7 and then to a path, with 6, 0, 21 and 6
    edges, equals the per-agent loop byte for byte, on states from +/-0.0
    to magnitudes of 1e16."""
    rng = np.random.default_rng(30)
    h, m = 0.02, 5
    cfg = SimConfig(t_end=1.0, f_s=10.0, h=h)
    graphs = (_middle_star(7), Graph.from_edges(7, []), complete_graph(7), path_graph(7))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the edgeless segment is disconnected
        sched = TopologySchedule(segments=tuple(
            Segment(t0, t1, g) for t0, t1, g in zip((0.0, 0.2, 0.5, 0.7), (0.2, 0.5, 0.7, 1.0), graphs)))
    for x0, z0 in _wide_states(rng, 7, 6):
        trace, _ = simulate(sched, cfg, (x0, z0))
        steps = [seg.graph for seg in trace.segments
                 for _ in range(round((seg.t_end - seg.t_start) / h))]
        assert [len(seg.graph.edges) for seg in trace.segments] == [6, 0, 21, 6]
        assert trace.states.tobytes() == _per_agent_rk4(steps, x0, z0, h, m).tobytes()


def _full_run_inputs():
    """Simple-spectrum graphs with n = 3..12, the 240-agent sparse graph and
    an edgeless agent, each from a random and a signed-zero (+/-0, +/-1) init;
    and a 4-agent path beside an isolated agent, from +/-0.0 alone, from
    +/-0.0 and +/-1, and from subnormal and tiny normal states, where
    simulate's doubled k2 and k3 must keep every sign and every low bit."""
    rng = np.random.default_rng(20)
    graphs = [simple_spectrum_graph(rng, n) for n in range(3, 13)]
    graphs += [random_connected_graph(np.random.default_rng(7), 240), Graph.from_edges(1, [])]
    values = np.array([0.0, -0.0, 1.0, -1.0])
    for g in graphs:
        yield pytest.param(
            g, rng.standard_normal(g.n), rng.standard_normal(g.n), id=f"n{g.n}-random")
        yield pytest.param(
            g, rng.choice(values, size=g.n), rng.choice(values, size=g.n), id=f"n{g.n}-signed")
    isolated = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    for name, x0, z0 in (
        ("zeros", [-0.0, 0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0, 0.0]),
        ("signed", [-0.0, 1.0, 0.0, -1.0, -0.0], [0.0, -0.0, -1.0, -0.0, 0.0]),
        ("subnormal", [5e-324, -1e-310, 2.2e-308, -5e-324, 1e-310],
         [-2.2e-308, 5e-324, -0.0, 1e-310, -5e-324]),
    ):
        yield pytest.param(isolated, np.array(x0), np.array(z0), id=f"isolated-{name}")


@pytest.mark.parametrize("g, x0, z0", _full_run_inputs())
def test_simulate_full_run_bitexact_with_reference_loop(g, x0, z0):
    """A whole default 50 s run (7950 steps, 796 samples) of simulate equals
    the reference loop of _rk4_core byte for byte."""
    cfg = SimConfig(t_end=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an isolated agent disconnects its graph
        sched = TopologySchedule.single(g, 50.0)
    trace, _ = simulate(sched, cfg, (x0, z0))
    assert trace.num_samples == 796
    assert trace.states.tobytes() == _reference_run(g, cfg, x0, z0).tobytes()


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
    with pytest.raises(ConfigError, match="integer multiple"):
        SimConfig(t_end=5.0, f_s=10.0, h=0.03)


def test_simulate_t_end_beyond_schedule():
    sched = TopologySchedule.single(K2, 5.0)
    with pytest.raises(ConfigError, match="exceeds schedule"):
        simulate(sched, SimConfig(t_end=6.0), random_init(2, 0))


def test_simulate_bad_init_shape():
    sched = TopologySchedule.single(K2, 5.0)
    with pytest.raises(ConfigError, match="initial condition"):
        simulate(sched, SimConfig(t_end=5.0), (np.ones(3), np.ones(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_rejects_non_finite_init(bad):
    """A non-finite initial state is a named error before any step, not an
    abort at the first sample."""
    x0 = np.ones(2)
    x0[1] = bad
    with pytest.raises(ConfigError, match="^initial condition has non-finite entries$"):
        simulate(TopologySchedule.single(K2, 5.0), SimConfig(t_end=5.0), (np.ones(2), x0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(t_end=-1.0), "t_end must be positive, got -1.0"),
    (dict(t_end=0.0), "t_end must be positive, got 0.0"),
    (dict(t_end=10.0, f_s=-2.0), "f_s must be positive, got -2.0"),
    (dict(t_end=10.0, f_s=0.0), "f_s must be positive, got 0.0"),
    (dict(t_end=10.0, h=-0.01), "step h must be positive, got -0.01"),
], ids=["negative t_end", "zero t_end", "negative f_s", "zero f_s", "negative step"])
def test_simulate_errors_are_named(kwargs, message):
    """SimConfig checks its own fields when built: f_s before the step it
    resolves, so a zero rate is named, not a ZeroDivisionError."""
    with pytest.raises(ConfigError) as exc:
        SimConfig(**kwargs)
    assert type(exc.value) is ConfigError and message in str(exc.value)


def test_simulate_deterministic_bit_exact():
    sched = TopologySchedule.single(P5, 10.0)
    cfg = SimConfig(t_end=10.0)
    init = random_init(5, 42)
    t1, c1 = simulate(sched, cfg, init)
    t2, c2 = simulate(sched, cfg, init)
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.z, t2.z)
    assert c1.total == c2.total


def test_trace_states_are_flat_rows_and_x_z_are_their_views():
    """A trace keeps the simulator's w = [x, z] row per sample; x and z are
    views of its halves, not copies."""
    init = random_init(5, 42)
    trace, _ = simulate(TopologySchedule.single(P5, 2.0), SimConfig(t_end=2.0), init)
    assert trace.states.shape == (trace.num_samples, 10) and trace.n == 5
    assert np.shares_memory(trace.x, trace.states) and np.shares_memory(trace.z, trace.states)
    assert np.array_equal(trace.states, np.hstack((trace.x, trace.z)))
    assert trace.states[0].tobytes() == np.concatenate(init).tobytes()


def test_disjoint_union_members_are_bit_identical():
    """One simulate over a disjoint union reproduces every member's own run
    bit for bit, so the acceptance criteria may batch their graphs."""
    rng = np.random.default_rng(3)
    graphs = [P5, star_graph(4)] + [random_connected_graph(rng, n) for n in (3, 7, 10)]
    inits = [random_init(g.n, seed) for seed, g in enumerate(graphs)]
    cfg = SimConfig(t_end=10.0)
    schedule, init, offsets = disjoint_union(graphs, inits, 10.0)
    union, _ = simulate(schedule, cfg, init)
    for g, init, off in zip(graphs, inits, offsets):
        alone, _ = simulate(TopologySchedule.single(g, 10.0), cfg, init)
        assert np.array_equal(union.x[:, off : off + g.n], alone.x)
        assert np.array_equal(union.z[:, off : off + g.n], alone.z)


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


@pytest.mark.parametrize("scenario, digest", [
    ("p5", "3a9f99f8cf8a0dd89b82f6f9d0e938a03cc89c060c495399b65370b8ab285cbf"),
    ("switching", "88da66cbb21a4af3809499d8494a4bd0d9ee5d37cf8e1774f133dbe8e6209978"),
])
def test_simulate_stacks_the_row_stream(scenario, digest):
    """simulate's trace is its row stream stacked, byte for byte, with the
    golden digests: each row is an array of its own, never overwritten by a
    later step, and numpy's error settings between rows are the caller's."""
    if scenario == "p5":
        sched = TopologySchedule.single(parse_edge_list((SCENARIOS / "p5.txt").read_text()), 50.0)
        cfg, init = SimConfig(t_end=50.0), random_init(5, 12345)
    else:
        sched = parse_schedule((SCENARIOS / "switching.json").read_text(), base_dir=SCENARIOS)
        cfg, init = SimConfig(t_end=20.0), random_init(sched.n, 11)
    trace, counter = simulate(sched, cfg, init)
    times, segments, streamed_counter, rows = _samples(sched, cfg, init)
    settings, kept = np.geterr(), []
    for row in rows:
        assert np.geterr() == settings
        kept.append(row)
    assert len({id(row) for row in kept}) == len(kept) == trace.num_samples
    assert np.stack(kept).tobytes() == trace.states.tobytes()
    assert _trace_digest(Trace(times, np.stack(kept), cfg.f_s, segments)) == digest
    assert _trace_digest(trace) == digest
    assert times.tobytes() == trace.times.tobytes() and segments == trace.segments
    assert streamed_counter.to_dict() == counter.to_dict()


@pytest.mark.parametrize("case", ["nyquist", "span", "shape", "non-finite"])
def test_row_stream_checks_before_its_first_row(case):
    """Every check of a run is made when the stream is built, before any row
    is asked for."""
    sched, cfg, init = TopologySchedule.single(K2, 5.0), SimConfig(t_end=5.0), (np.ones(2),) * 2
    if case == "nyquist":
        cfg = SimConfig(t_end=5.0, f_s=0.5, h=0.1)
    elif case == "span":
        cfg = SimConfig(t_end=6.0)
    elif case == "shape":
        init = (np.ones(3), np.ones(3))
    else:
        init = (np.ones(2), np.array([1.0, np.nan]))
    with pytest.raises(ConfigError):
        _samples(sched, cfg, init)


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
    assert round_bound(0, 1.0, 1.0) == 0  # an edgeless graph sends nothing
    with pytest.raises(ValueError, match="delta_max must be non-negative"):
        round_bound(-1, 1.0, 1.0)
    for delta_max, text in ((2.5, "2.5"), (True, "true")):
        with pytest.raises(TypeError, match=f"^field 'delta_max': {text} is not an integer$"):
            round_bound(delta_max, 1.0, 1.0)


def test_round_bound_is_ceiling():
    assert round_bound(1, 1.1, 1.0) == 5  # 4.4 -> 5


def test_round_bound_rejects_overflowing_product():
    """Each argument is finite, but their product is not."""
    with pytest.raises(ValueError, match=r"4 \* delta_max \* t_min \* f_s = inf is not finite"):
        round_bound(2, 1e308, 1e308)


def test_message_counts_per_agent():
    """Per agent: 4 stages x degree messages per step."""
    sched = TopologySchedule.single(P5, 2.0 * math.pi)
    cfg = SimConfig(t_end=2.0 * math.pi, h=1.0 / DEFAULT_SAMPLE_RATE)
    trace, counter = simulate(sched, cfg, random_init(5, 0))
    steps = trace.num_samples - 1
    degrees = directed_edges(P5)[2].tolist()
    assert counter.per_agent.tolist() == [4 * d * steps for d in degrees]
    assert counter.total == sum(counter.per_agent)
    assert counter.per_sample_rounds == 4


def test_message_counter_dict_shape():
    sched = TopologySchedule.single(K2, 1.0)
    _, counter = simulate(sched, SimConfig(t_end=1.0), random_init(2, 0))
    payload = counter.to_dict()
    assert set(payload) == {"total", "per_agent", "per_sample_rounds"}
    assert payload["per_sample_rounds"] == 40  # 10 steps per sample x 4 stages
