"""Undirected graphs, their Laplacians, and time-switched topology schedules.

Agents are 0-indexed. Graphs are unweighted and simple: no self-loops, each
undirected edge stored once as a canonical (i, j) pair with i < j. The
Laplacian is built dense (desk-scale networks) with the usual convention
degree on the diagonal, -1 per edge, so every row sums to zero and the
spectrum lies in [0, 2 * max_degree] by Gershgorin.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Malformed edge-list or schedule input."""


class ScheduleError(ValueError):
    """Structurally invalid topology schedule (gaps, overlaps, mixed sizes)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: agent count plus a canonical edge set."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"agent count must be positive, got {self.n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph, canonicalizing pairs and collapsing duplicates."""
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            canon.add((min(i, j), max(i, j)))
        return cls(n=n, edges=frozenset(canon))


def path_graph(n: int) -> Graph:
    """Chain 0-1-2-...-(n-1)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Hub at agent 0 connected to agents 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    """Ring over n agents (n >= 3)."""
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def build_laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge."""
    lap = np.zeros((g.n, g.n))
    for i, j in g.edges:
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def max_degree(g: Graph) -> int:
    """Largest agent degree; 2*max_degree bounds every Laplacian eigenvalue."""
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return max(deg)


def is_connected(g: Graph) -> bool:
    """Union-find connectivity check."""
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(g.n)}) == 1


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    First non-comment line is "n <count>"; each following non-empty,
    non-comment ('#') line is "<i> <j>". Duplicate undirected edges collapse
    to one. Raises ParseError naming the offending line for malformed lines,
    out-of-range endpoints, and self-loops.
    """
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"line {lineno}: expected 'n <count>', got {raw!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: agent count {parts[1]!r} is not an integer") from None
            if n < 1:
                raise ParseError(f"line {lineno}: agent count must be positive")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<i> <j>', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: endpoints must be integers, got {raw!r}") from None
        if i == j:
            raise ParseError(f"line {lineno}: self-loop on agent {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"line {lineno}: endpoint out of range [0, {n})")
        edges.add((min(i, j), max(i, j)))
    if n is None:
        raise ParseError("empty input: missing 'n <count>' header")
    return Graph(n=n, edges=frozenset(edges))


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list on canonical graphs."""
    lines = [f"n {g.n}"]
    lines += [f"{i} {j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Segment:
    """One schedule entry: the graph active on [t_start, t_end)."""

    t_start: float
    t_end: float
    graph: Graph

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ScheduleError(
                f"segment [{self.t_start}, {self.t_end}] has non-positive duration"
            )


@dataclass(frozen=True)
class TopologySchedule:
    """Contiguous, non-overlapping topology segments starting at t=0.

    All segment graphs must share the same agent count. Disconnected segment
    graphs only split the observable spectrum, so they produce a warning
    rather than an error.
    """

    segments: tuple[Segment, ...]

    _TIME_TOL = 1e-9

    def __post_init__(self) -> None:
        if not self.segments:
            raise ScheduleError("schedule has no segments")
        if abs(self.segments[0].t_start) > self._TIME_TOL:
            raise ScheduleError(
                f"first segment must start at t=0, got {self.segments[0].t_start}"
            )
        n = self.segments[0].graph.n
        for k, seg in enumerate(self.segments):
            if seg.graph.n != n:
                raise ScheduleError(
                    f"segment {k} has n={seg.graph.n}, expected {n} (all segments must match)"
                )
            if k > 0:
                gap = seg.t_start - self.segments[k - 1].t_end
                if abs(gap) > self._TIME_TOL:
                    kind = "gap" if gap > 0 else "overlap"
                    raise ScheduleError(
                        f"{kind} between segments {k - 1} and {k}: "
                        f"{self.segments[k - 1].t_end} -> {seg.t_start}"
                    )
            if not is_connected(seg.graph):
                warnings.warn(
                    f"segment {k} graph is disconnected; its observable spectrum "
                    "splits per component",
                    stacklevel=2,
                )

    @property
    def n(self) -> int:
        return self.segments[0].graph.n

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    def max_degree(self) -> int:
        return max(max_degree(seg.graph) for seg in self.segments)

    @classmethod
    def single(cls, graph: Graph, t_end: float) -> "TopologySchedule":
        """Stationary schedule: one graph over [0, t_end]."""
        return cls(segments=(Segment(0.0, float(t_end), graph),))


def parse_schedule(text: str, base_dir: str | Path = ".") -> TopologySchedule:
    """Parse the JSON schedule format.

    The input is a JSON array of segment objects with "t_start" and "t_end"
    plus either "edges_file" (edge-list path, resolved against base_dir) or
    inline "edges" ([[i, j], ...]) with "n".
    """
    base = Path(base_dir)
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"schedule is not valid JSON: {exc}") from None
    if not isinstance(entries, list):
        raise ParseError("schedule must be a JSON array of segment objects")
    segments = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"segment {k}: expected an object, got {type(entry).__name__}")
        try:
            t_start = float(entry["t_start"])
            t_end = float(entry["t_end"])
        except KeyError as exc:
            raise ParseError(f"segment {k}: missing field {exc}") from None
        if "edges_file" in entry:
            path = base / entry["edges_file"]
            try:
                graph = parse_edge_list(path.read_text())
            except OSError as exc:
                raise ParseError(f"segment {k}: cannot read {path}: {exc}") from None
            except ParseError as exc:
                raise ParseError(f"segment {k}: {path}: {exc}") from None
        elif "edges" in entry:
            if "n" not in entry:
                raise ParseError(f"segment {k}: inline 'edges' requires 'n'")
            try:
                graph = Graph.from_edges(int(entry["n"]), entry["edges"])
            except (ValueError, TypeError) as exc:
                raise ParseError(f"segment {k}: {exc}") from None
        else:
            raise ParseError(f"segment {k}: needs either 'edges_file' or 'edges'")
        segments.append(Segment(t_start, t_end, graph))
    return TopologySchedule(segments=tuple(segments))
