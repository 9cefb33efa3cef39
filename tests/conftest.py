"""Shared test helpers: random graph generation, well-conditioned inits and
disjoint unions for running many graphs as one simulation.

OpenBLAS is pinned to one thread before numpy loads, as the benchmark
does: the pencil seed's product basis.T @ hankel differs in its last bits
between one and several threads, and a pinned estimate digest moves with it.
"""
from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from lapspec import Graph, TopologySchedule, eigendecompose, modal_coefficients, random_init


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    """Random spanning tree plus a few extra edges; always connected."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[rng.integers(0, k)])
        b = int(order[k])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, n))):
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


def simple_spectrum_graph(rng: np.random.Generator, n: int, min_gap: float = 0.05) -> Graph:
    """Random connected graph rejected until all eigenvalues are simple.

    The default gap keeps the spectrum identifiable from a 50 s window
    (gap * window >> 1); eigenvalues closer than that are indistinguishable
    from repeated ones in any finite-time estimate."""
    while True:
        g = random_connected_graph(rng, n)
        vals = eigendecompose(g)
        if vals.num_distinct == n and np.min(np.diff(vals.values)) > min_gap:
            return g


def well_conditioned_init(
    g: Graph, rng: np.random.Generator, threshold: float = 0.05, max_tries: int = 40
):
    """(x0, z0, agent) such that every modal coefficient of that agent's
    signal exceeds the threshold, resampling the +/-1 init as needed.

    Returns None when no agent qualifies: some graphs have eigenvectors so
    weakly expressed everywhere that no initialization clears the threshold
    at any single agent."""
    dec = eigendecompose(g)
    for _ in range(max_tries):
        seed = int(rng.integers(0, 2**31))
        x0, z0 = random_init(g.n, seed)
        for agent in range(g.n):
            coef = modal_coefficients(dec, x0, z0, agent)
            if np.all(coef.line_amplitudes() > threshold):
                return x0, z0, agent
    return None


def disjoint_union(graphs, inits, t_end: float):
    """Stationary schedule over the disjoint union of two or more graphs, the
    members' (x0, z0) inits stacked into its init, and each member's first
    agent index in it.

    Every agent's update reads only its own neighbours, in the same order as
    in its member graph, so one simulate over the union gives each member's
    columns bit for bit. The union is disconnected by construction; the
    schedule's warning about that is expected and checked here.
    """
    offsets = np.cumsum([0] + [g.n for g in graphs]).tolist()
    edges = [(i + off, j + off) for g, off in zip(graphs, offsets) for i, j in g.edges]
    union = Graph.from_edges(offsets[-1], edges)
    with pytest.warns(UserWarning, match="disconnected"):
        schedule = TopologySchedule.single(union, t_end)
    init = (np.concatenate([x for x, _ in inits]), np.concatenate([z for _, z in inits]))
    return schedule, init, offsets[:-1]
