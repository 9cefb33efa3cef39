"""Message-passing simulation of the paired-oscillator interaction rule.

Each agent keeps two scalars (x_i, z_i) and updates them from its own state
plus the states of its neighbors only:

    dx_i/dt =  z_i + sum_{j in N_i} (z_i - z_j)
    dz_i/dt = -x_i - sum_{j in N_i} (x_i - x_j)

Stacked over the network this is a skew-symmetric linear system, so the flow
is a pure rotation: every trajectory is a finite sum of sinusoids at angular
frequencies 1 + lambda, one per Laplacian eigenvalue, and the total energy
sum(x_i^2 + z_i^2) is conserved.

Integration is classical fixed-step RK4 realized as four synchronous message
rounds per step: in each stage every agent sends its current stage value to
its neighbors, receives theirs, and evaluates the local rule. The dense
system matrix is never formed here; it lives in the oracle
(oracle.build_system_matrix). The state is one flat array w = [x, z], and
Trace.states keeps one w row per sample: the trace CSV's columns after t.

A stage round on v is six numpy calls: one gather, sw*sgn, one difference,
one np.bincount into swapped slots, acc = [A_z, A_x], acc*sgn, and the sum
k = sw*sgn + acc*sgn = [z + A_z, (-x) + (-A_x)]. Each segment's layout takes
the pairs a < b of graph.directed_edges in its (src, dst) order, in both
halves of v (a and b hold the x half's pairs, then the z half's), and
gathers v at idx = [swap | b | a | b] into one buffer with fixed views
sw = v[swap] = [z, x], lo = [v_b | v_a] and hi = [v_a | v_b]. So lo - hi =
[v_b - v_a | v_a - v_b] holds every summand v_i - v_j of the local rule with
the rule's own operands, and bins = [swap[b], swap[a]] sends each to its
agent's swapped slot. np.bincount adds a bin's summands in input order, from
+0.0: agent i gets its lower neighbors first (the pairs (j, i), ascending in
j) and then its higher ones (the pairs (i, j), ascending in j), the
per-agent loop's ascending order, so both formulations add identical
summands in identical order, bit for bit.

One RK4 step is one loop body in _steps: the four stage rounds and the
weighted sum, 35 numpy calls. At a dozen agents numpy's per-call overhead
sets the step's time, so the step makes as few calls as keep the textbook's
bits. Its constants 0.25*h, 0.5*h and h/6 are arrays of length 2n built once
per run (a Python float times an array costs more than two arrays). Stages
2 and 3 take the signs sgn2 = 2*sgn, so k2 and k3 come doubled and the
weighted sum needs no 2*k call. np.bincount is called as its _implementation,
NEP 18's undispatched C function: the same call and bytes, no dispatch.

Numerical notes: the sign goes on each summand, never on the sum. IEEE a - b
is a + (-b) and a product with +/-1 is exact, so (-x) + (-A_x) is the rule's
(-x) - A_x bit for bit; -(x + A_x) would turn an exact +0.0 rate into -0.0.
A product with +/-2 is exact and 2*(a + b) is 2*a + 2*b, signed zeros and
subnormals included, so sw*sgn2 + acc*sgn2 is 2*k2 bit for bit, and
(0.25*h)*(2*k2) is (0.5*h)*k2, (0.5*h)*(2*k3) is h*k3: the same real
product rounded once (0.25*h and 0.5*h are exact for h >= 2**-1020). Every
other IEEE operation keeps its operands and order: an array filled with c
times k is c * k elementwise, and IEEE sums and products commute exactly,
so accumulating ((k1 + 2*k2) + 2*k3) + k4 in place in k1 gives the textbook
w + (h/6) * (k1 + 2*k2 + 2*k3 + k4) bit for bit while no value overflows.
A doubled k2 or k3 that overflows reaches the next stage's input, where the
textbook's 2*k reached only the weighted sum: every entry the textbook makes
non-finite is non-finite here too, so such a run aborts at the same sample
or earlier, and its error may name another agent.

Each setting is checked once, by its owner: SimConfig checks its fields when
built, and _samples (so simulate) only what needs its other arguments: the
Nyquist guard, t_end within the schedule, and the initial state.

The step loop is one private row stream, _samples. Before the first row it
makes every check and builds the time axis, the snapped segments and the
message counts, none of which depends on the state. Then it yields each
sample's w = [x | z] once that sample passed the non-finite check, the
initial state first. simulate stacks the rows into Trace.states; a caller
that only writes them (lapspec simulate) holds one row at a time, whatever
the horizon.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .graph import (TIME_TOL, Graph, Segment, TopologySchedule, _agent_count, _integer,
                    directed_edges)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class SimulationError(RuntimeError):
    """Simulation aborted (non-finite state)."""


DEFAULT_SAMPLE_RATE = 100.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class SimConfig:
    """Integration and sampling parameters, checked when built.

    t_end, f_s and the step h (default: 1/f_s over 10) must be finite and
    positive, the sampling period 1/f_s an integer multiple of h, and the
    run at least 2 samples long; a violation raises ConfigError. The Nyquist
    guard needs the schedule's max degree, so simulate checks it.
    """

    t_end: float
    f_s: float = DEFAULT_SAMPLE_RATE
    h: float | None = None

    def __post_init__(self) -> None:
        for name in ("t_end", "f_s", "step h"):
            value = self.step_size() if name == "step h" else getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        ratio = 1.0 / (self.f_s * self.step_size())
        if not math.isfinite(ratio):
            raise ConfigError(f"steps per sample 1 / (f_s * h) = {ratio} is not finite")
        m = round(ratio)
        if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"sampling period 1/f_s = {1.0 / self.f_s:g} is not an integer "
                f"multiple of the step h = {self.step_size():g} (ratio {ratio:g})"
            )
        if not math.isfinite(self.t_end * self.f_s):
            raise ConfigError(f"sample count t_end * f_s = {self.t_end * self.f_s} is not finite")
        if self.num_samples() < 2:
            raise ConfigError(
                f"t_end={self.t_end:g} is shorter than one sampling period "
                f"1/f_s = {1.0 / self.f_s:g}; a trace needs at least 2 samples"
            )

    def step_size(self) -> float:
        return self.h if self.h is not None else 1.0 / (self.f_s * 10.0)

    def steps_per_sample(self) -> int:
        return round(1.0 / (self.f_s * self.step_size()))

    def num_samples(self) -> int:
        return int(math.floor(self.t_end * self.f_s + 1e-9)) + 1


@dataclass(frozen=True)
class Trace:
    """Sampled network state, one simulator row w = [x, z] per sample (x and z
    are views of its halves), plus the schedule's segments as simulated,
    boundaries snapped to RK4 steps."""

    times: np.ndarray
    states: np.ndarray
    f_s: float
    segments: tuple[Segment, ...]

    @property
    def n(self) -> int:
        return self.states.shape[1] // 2

    @property
    def num_samples(self) -> int:
        return self.states.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.states[:, : self.n]

    @property
    def z(self) -> np.ndarray:
        return self.states[:, self.n :]

    def sample_range(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Half-open sample index range [lo, hi) covering [t_start, t_end]."""
        lo = int(np.searchsorted(self.times, t_start - TIME_TOL, side="left"))
        hi = int(np.searchsorted(self.times, t_end + TIME_TOL, side="right"))
        return lo, hi


@dataclass(frozen=True)
class MessageCounter:
    """Neighbor-exchange accounting: one message per neighbor per RK4 stage."""

    total: int
    per_agent: np.ndarray
    per_sample_rounds: int

    def to_dict(self) -> dict:
        return {
            "total": int(self.total),
            "per_agent": [int(c) for c in self.per_agent],
            "per_sample_rounds": int(self.per_sample_rounds),
        }


def random_init(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent uniform +/-1 initial values, deterministic given seed.
    A non-integer n or seed raises TypeError (True would read as 1)."""
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    _agent_count(n)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    x0 = rng.choice(np.array([-1.0, 1.0]), size=n)
    z0 = rng.choice(np.array([-1.0, 1.0]), size=n)
    return x0, z0


def local_derivative(
    i: int, x_i: float, z_i: float, neighbor_values
) -> tuple[float, float]:
    """Rate of change of agent i's state from local data only.

    neighbor_values are the current-stage (x_j, z_j) of agent i's neighbors,
    and nothing else is consulted — this is the decentralization contract.
    """
    sum_z = 0.0
    sum_x = 0.0
    for x_j, z_j in neighbor_values:
        sum_z += z_i - z_j
        sum_x += x_i - x_j
    return z_i + sum_z, -x_i - sum_x


def simulate(
    schedule: TopologySchedule,
    cfg: SimConfig,
    init: tuple[np.ndarray, np.ndarray],
) -> tuple[Trace, MessageCounter]:
    """Integrate across all schedule segments, sampling at f_s.

    State carries unchanged across topology switches; segment boundaries are
    snapped to the RK4 step grid so no switch lands mid-step (documented
    behavior). The run is bit-deterministic given (schedule, cfg, init).
    """
    times, spans, counter, rows = _samples(schedule, cfg, init)
    states = np.empty((len(times), 2 * schedule.n))
    for k, row in enumerate(rows):
        states[k] = row
    return Trace(times=times, states=states, f_s=cfg.f_s, segments=spans), counter


def _samples(
    schedule: TopologySchedule, cfg: SimConfig, init: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, tuple[Segment, ...], MessageCounter, Iterator[np.ndarray]]:
    """simulate's run as (times, segments, counter, rows).

    Every check runs, and the time axis, the snapped segments and the
    message counts are built, before it returns. rows then yields each
    sample's w = [x | z] as an array of its own, the initial state first,
    and raises SimulationError at the first sample whose state is not finite.
    """
    top = 2.0 * (1.0 + 2.0 * schedule.max_degree())
    if not 2.0 * math.pi * cfg.f_s > top:
        raise ConfigError(f"Nyquist guard violated: sampling angular rate {2.0 * math.pi * cfg.f_s:g}"
                          f" rad/s must exceed {top:g} rad/s (= 2*(1 + 2*max_degree))")
    if cfg.t_end > schedule.t_end + TIME_TOL:
        raise ConfigError(f"t_end={cfg.t_end:g} exceeds schedule span [0, {schedule.t_end:g}]")
    x, z = (np.array(init[0], dtype=float), np.array(init[1], dtype=float))
    n = schedule.n
    if x.shape != (n,) or z.shape != (n,):
        raise ConfigError(f"initial condition has shape {x.shape}/{z.shape}, expected ({n},)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ConfigError("initial condition has non-finite entries")

    h = cfg.step_size()
    m = cfg.steps_per_sample()
    num_samples = cfg.num_samples()
    total_steps = (num_samples - 1) * m
    times = np.arange(num_samples) * (m * h)

    # Snap segment boundaries to the step grid.
    inner = [min(total_steps, round(seg.t_end / h)) for seg in schedule.segments[:-1]]
    bounds = [0, *inner, total_steps]
    spans = tuple(
        Segment(t_start=first * h, t_end=last * h, graph=seg.graph)
        for seg, first, last in zip(schedule.segments, bounds, bounds[1:])
        if last > first
    )
    edges = [directed_edges(seg.graph) for seg in schedule.segments]
    sent = np.zeros(n, dtype=np.int64)
    for (_, _, deg), first, last in zip(edges, bounds, bounds[1:]):
        sent += 4 * deg * (last - first)  # one message per neighbor per stage round
    counter = MessageCounter(total=int(sent.sum()), per_agent=sent, per_sample_rounds=4 * m)
    return times, spans, counter, _steps(np.concatenate((x, z)), edges, bounds[1:], h, m)


def _steps(w: np.ndarray, edges: list, stops: list, h: float, m: int) -> Iterator[np.ndarray]:
    """_samples' rows: w, then the state after each m-th RK4 step, segment k
    stepping with edges[k] (directed_edges of its graph) up to step stops[k]."""
    yield w
    size = w.size
    n = size // 2
    quarter, half, sixth = (np.full(size, c) for c in (0.25 * h, 0.5 * h, h / 6.0))
    swap, sgn = np.roll(np.arange(size), n), np.repeat([1.0, -1.0], n)
    sgn2 = 2.0 * sgn
    bincount = np.bincount._implementation  # NEP 18's undispatched C function
    step = 0
    for (src, dst, _), last in zip(edges, stops):
        a, b = (np.concatenate((ends, ends + n)) for ends in (src[src < dst], dst[src < dst]))
        idx, bins = np.concatenate((swap, b, a, b)), np.concatenate((swap[b], swap[a]))
        buf = np.empty(idx.size)
        sw, lo, hi = buf[:size], buf[size : size + 2 * a.size], buf[size + a.size :]
        while step < last:
            # Up to the next sample or the segment's end. numpy's overflow warnings
            # are off there, never at a yield, so the caller's settings hold between
            # rows: a state that overflows is named by the non-finite check below.
            with np.errstate(over="ignore", invalid="ignore"):
                for step in range(step + 1, min(last, (step // m + 1) * m) + 1):
                    # Four stage rounds k = sw*sgn + acc*sgn (not acc *= sgn: with no
                    # edges, bincount returns int zeros), each from v = w + c*k; k2 and
                    # k3 come doubled, from sgn2. Every index is in range, so mode="clip"
                    # clips none; it spares the copy through a temporary that take(out=)
                    # makes in its default mode.
                    w.take(idx, out=buf, mode="clip")
                    k1 = sw * sgn
                    k1 += bincount(bins, lo - hi, minlength=size) * sgn
                    v = half * k1
                    v += w
                    v.take(idx, out=buf, mode="clip")
                    k2 = sw * sgn2
                    k2 += bincount(bins, lo - hi, minlength=size) * sgn2
                    v = quarter * k2
                    v += w
                    v.take(idx, out=buf, mode="clip")
                    k3 = sw * sgn2
                    k3 += bincount(bins, lo - hi, minlength=size) * sgn2
                    v = half * k3
                    v += w
                    v.take(idx, out=buf, mode="clip")
                    k4 = sw * sgn
                    k4 += bincount(bins, lo - hi, minlength=size) * sgn
                    # w + (h/6) * (k1 + 2*k2 + 2*k3 + k4), summed left to right in k1.
                    k1 += k2
                    k1 += k3
                    k1 += k4
                    k1 *= sixth
                    k1 += w
                    w = k1
            if step % m == 0:
                if not np.isfinite(w).all():  # the index only when needed: a sample is short
                    raise SimulationError(f"non-finite state at t={step * h:g}, first at agent "
                                          f"{np.flatnonzero(~np.isfinite(w))[0] % n}")
                yield w


def round_bound(delta_max: int, t_min: float, f_s: float) -> int:
    """Ceiling of 4 * delta_max * t_min * f_s: per-agent message bound.

    Over a window of length t_min sampled at f_s with one RK4 step per
    sample, an agent exchanges at most this many messages with neighbors.
    t_min and f_s must be positive and finite; delta_max must be a
    non-negative integer (TypeError for a float or bool, which would round
    or read as 1), and an edgeless graph (delta_max 0) gives a bound of 0.
    """
    if _integer(delta_max, "delta_max") < 0:
        raise ValueError(f"delta_max must be non-negative and finite, got {delta_max}")
    for name, value in (("t_min", t_min), ("f_s", f_s)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    value = 4.0 * delta_max * t_min * f_s
    if not math.isfinite(value):
        raise ValueError(
            f"message bound 4 * delta_max * t_min * f_s = {value} is not finite "
            f"(delta_max={delta_max}, t_min={t_min:g}, f_s={f_s:g})"
        )
    # Guard against float dust pushing an exact product over the next integer.
    return math.ceil(value * (1.0 - 1e-12))
