"""Seeded input generators owned by the benchmark.

They mirror the recipes of the acceptance suite (random spanning tree plus
extra edges, rejected until the spectrum is simple with gaps above 0.05;
+/-1 initial states resampled until one agent sees every line) but live
here, so a later change to the test helpers cannot move the benchmark's
inputs. Every generator takes a numpy Generator and is deterministic in it.
"""
from __future__ import annotations

import numpy as np

from lapspec import graph as ls_graph
from lapspec import dynamics as ls_dynamics
from lapspec import oracle as ls_oracle

MIN_GAP = 0.05
COEFF_THRESHOLD = 0.05


def random_connected_graph(rng: np.random.Generator, n: int) -> ls_graph.Graph:
    """Random spanning tree plus up to n - 1 extra edges; always connected."""
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
    return ls_graph.Graph.from_edges(n, edges)


def simple_spectrum_graph(rng: np.random.Generator, n: int) -> ls_graph.Graph:
    """Random connected graph, redrawn until every eigenvalue gap exceeds MIN_GAP."""
    while True:
        g = random_connected_graph(rng, n)
        dec = ls_oracle.eigendecompose(g)
        if dec.num_distinct == n and np.min(np.diff(dec.values)) > MIN_GAP:
            return g


def well_conditioned_init(g: ls_graph.Graph, rng: np.random.Generator, max_tries: int = 10):
    """(x0, z0, agent) where every line amplitude at that agent exceeds
    COEFF_THRESHOLD, or None when no agent qualifies within max_tries inits.

    The caller then redraws the graph. Few tries keep the set-up time from
    depending much on how many hard graphs a seed draws.
    """
    dec = ls_oracle.eigendecompose(g)
    for _ in range(max_tries):
        x0, z0 = ls_dynamics.random_init(g.n, int(rng.integers(0, 2**31)))
        for agent in range(g.n):
            coef = ls_oracle.modal_coefficients(dec, x0, z0, agent)
            if np.all(coef.line_amplitudes() > COEFF_THRESHOLD):
                return x0, z0, agent
    return None


def sparse_connected_graph(rng: np.random.Generator, n: int, max_deg: int) -> ls_graph.Graph:
    """Random spanning tree plus n // 2 extra edges, no agent above max_deg.

    Built in O(n) so that thousands of agents cost milliseconds.
    """
    deg = np.zeros(n, dtype=int)
    edges: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for k in range(1, n):
        b = int(order[k])
        while True:
            a = int(order[rng.integers(0, k)])
            if deg[a] < max_deg:
                break
        edges.add((min(a, b), max(a, b)))
        deg[a] += 1
        deg[b] += 1
    added = 0
    while added < n // 2:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        e = (min(a, b), max(a, b))
        if a != b and deg[a] < max_deg and deg[b] < max_deg and e not in edges:
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
            added += 1
    return ls_graph.Graph.from_edges(n, edges)
