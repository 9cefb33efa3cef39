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
(oracle.build_system_matrix). The state is one flat array w = [x, z], and a
stage round is one np.bincount over the directed edges, rebuilt from the
graph at each segment start; it sums each agent's neighbor differences in
the per-agent loop's sorted order, so both formulations agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Segment, TopologySchedule


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class SimulationError(RuntimeError):
    """Simulation aborted (non-finite state)."""


DEFAULT_SAMPLE_RATE = 100.0 / (2.0 * math.pi)


@dataclass(frozen=True)
class SimConfig:
    """Integration and sampling parameters.

    The sampling period 1/f_s must be an integer multiple of the RK4 step h
    (default: 10 steps per sample), and the sampling angular frequency
    2*pi*f_s must exceed twice the largest possible signal frequency
    1 + 2*max_degree (checked against the schedule at simulate time).
    t_end, f_s and the step must be positive and finite.
    """

    t_end: float
    f_s: float = DEFAULT_SAMPLE_RATE
    h: float | None = None

    def step_size(self) -> float:
        return self.h if self.h is not None else 1.0 / (self.f_s * 10.0)

    def steps_per_sample(self) -> int:
        ratio = 1.0 / (self.f_s * self.step_size())
        m = round(ratio)
        if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"sampling period 1/f_s = {1.0 / self.f_s:g} is not an integer "
                f"multiple of the step h = {self.step_size():g} (ratio {ratio:g})"
            )
        return m

    def num_samples(self) -> int:
        return int(math.floor(self.t_end * self.f_s + 1e-9)) + 1

    def validate(self, delta_max: int) -> None:
        for name, value in (("t_end", self.t_end), ("f_s", self.f_s), ("step h", self.step_size())):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        self.steps_per_sample()
        if self.num_samples() < 2:
            raise ConfigError(
                f"t_end={self.t_end:g} is shorter than one sampling period "
                f"1/f_s = {1.0 / self.f_s:g}; a trace needs at least 2 samples"
            )
        top = 2.0 * (1.0 + 2.0 * delta_max)
        if not 2.0 * math.pi * self.f_s > top:
            raise ConfigError(
                f"Nyquist guard violated: sampling angular rate "
                f"{2.0 * math.pi * self.f_s:g} rad/s must exceed "
                f"{top:g} rad/s (= 2*(1 + 2*max_degree))"
            )


@dataclass(frozen=True)
class Trace:
    """Uniformly sampled per-agent signals plus the active-topology record:
    the schedule's segments as simulated, boundaries snapped to RK4 steps."""

    times: np.ndarray
    x: np.ndarray
    z: np.ndarray
    f_s: float
    segments: tuple[Segment, ...]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]

    def sample_range(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Half-open sample index range [lo, hi) covering [t_start, t_end]."""
        lo = int(np.searchsorted(self.times, t_start - 1e-9, side="left"))
        hi = int(np.searchsorted(self.times, t_end + 1e-9, side="right"))
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


def random_init(n: int, seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Independent uniform +/-1 initial values, deterministic given seed."""
    if n < 1:
        raise ValueError(f"agent count must be positive, got {n}")
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


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edge index arrays (src, dst) sorted by (src, dst), plus degrees.

    The sort order makes the bincount of a stage round accumulate neighbor
    differences in exactly the order local_derivative's per-agent loop does.
    """
    pairs = sorted(
        [(i, j) for i, j in g.edges] + [(j, i) for i, j in g.edges]
    )
    src = np.array([p[0] for p in pairs], dtype=np.intp)
    dst = np.array([p[1] for p in pairs], dtype=np.intp)
    deg = np.zeros(g.n, dtype=np.intp)
    for i, _ in pairs:
        deg[i] += 1
    return src, dst, deg


def _flat_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays into the flat state [x, z]: s2 = [src, src + n],
    d2 = [dst, dst + n], plus the degrees. Both halves stay (src, dst)-sorted."""
    src, dst, deg = _edge_arrays(g)
    return np.concatenate((src, src + g.n)), np.concatenate((dst, dst + g.n)), deg


def _stage_rates(w: np.ndarray, s2: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """One synchronous message round: every agent evaluates the local rule."""
    n = w.shape[0] // 2
    acc = np.bincount(s2, w[s2] - w[d2], minlength=2 * n)
    k = np.empty_like(w)
    k[:n] = w[n:] + acc[n:]
    k[n:] = (-w[:n]) - acc[:n]
    return k


def _rk4_core(w: np.ndarray, s2: np.ndarray, d2: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step on the flat state via four stage rounds."""
    k1 = _stage_rates(w, s2, d2)
    k2 = _stage_rates(w + 0.5 * h * k1, s2, d2)
    k3 = _stage_rates(w + 0.5 * h * k2, s2, d2)
    k4 = _stage_rates(w + h * k3, s2, d2)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    delta_max = schedule.max_degree()
    cfg.validate(delta_max=delta_max)
    if cfg.t_end > schedule.t_end + 1e-9:
        raise ConfigError(
            f"t_end={cfg.t_end:g} exceeds schedule span [0, {schedule.t_end:g}]"
        )
    x, z = (np.array(init[0], dtype=float), np.array(init[1], dtype=float))
    n = schedule.n
    if x.shape != (n,) or z.shape != (n,):
        raise ConfigError(
            f"initial condition has shape {x.shape}/{z.shape}, expected ({n},)"
        )

    h = cfg.step_size()
    m = cfg.steps_per_sample()
    num_samples = cfg.num_samples()
    total_steps = (num_samples - 1) * m

    # Snap segment boundaries to the step grid.
    bounds = [0]
    for seg in schedule.segments:
        bounds.append(min(total_steps, round(seg.t_end / h)))
    bounds[-1] = total_steps
    spans = tuple(
        Segment(t_start=bounds[k] * h, t_end=bounds[k + 1] * h, graph=seg.graph)
        for k, seg in enumerate(schedule.segments)
        if bounds[k + 1] > bounds[k]
    )

    xs = np.empty((num_samples, n))
    zs = np.empty((num_samples, n))
    xs[0], zs[0] = x, z
    w = np.concatenate((x, z))
    sent = np.zeros(n, dtype=np.int64)

    step = 0
    sample = 1
    for k, seg in enumerate(schedule.segments):
        s2, d2, deg = _flat_edges(seg.graph)
        seg_end = bounds[k + 1]
        sent += 4 * deg * (seg_end - step)  # one message per neighbor per stage round
        while step < seg_end:
            w = _rk4_core(w, s2, d2, h)
            step += 1
            if step % m == 0:
                bad = np.flatnonzero(~np.isfinite(w))
                if len(bad):
                    raise SimulationError(
                        f"non-finite state at t={step * h:g}, first at agent "
                        f"{bad[0] % n}"
                    )
                xs[sample], zs[sample] = w[:n], w[n:]
                sample += 1
    if sample != num_samples:
        raise SimulationError(
            f"internal sampling mismatch: produced {sample} of {num_samples}"
        )

    times = np.arange(num_samples) * (m * h)
    trace = Trace(times=times, x=xs, z=zs, f_s=cfg.f_s, segments=spans)
    counter = MessageCounter(
        total=int(sent.sum()),
        per_agent=sent,
        per_sample_rounds=4 * m,
    )
    return trace, counter


def round_bound(delta_max: int, t_min: float, f_s: float) -> int:
    """Ceiling of 4 * delta_max * t_min * f_s: per-agent message bound.

    Over a window of length t_min sampled at f_s with one RK4 step per
    sample, an agent exchanges at most this many messages with neighbors.
    Every argument must be positive and finite.
    """
    for name, value in (("delta_max", delta_max), ("t_min", t_min), ("f_s", f_s)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    value = 4.0 * delta_max * t_min * f_s
    # Guard against float dust pushing an exact product over the next integer.
    return math.ceil(value * (1.0 - 1e-12))
