"""Undirected graphs, their Laplacians, and time-switched topology schedules.

Agents are 0-indexed. Graphs are unweighted and simple: no self-loops, each
undirected edge stored once as a canonical (i, j) pair with i < j. The graph
owns the neighbor order and the degrees (directed_edges) that the simulator
and the Laplacian read; max_degree counts the edges' endpoints alone. The
Laplacian is dense (desk-scale networks): degree on the diagonal, -1 per
edge, so every row sums to zero and the spectrum lies in [0, 2 * max_degree]
by Gershgorin.
"""
from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


TIME_TOL = 1e-9  # seconds: two times closer than this are the same time


class ParseError(ValueError):
    """Malformed edge-list or schedule input."""


class ScheduleError(ValueError):
    """Structurally invalid topology schedule (gaps, overlaps, mixed sizes)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: agent count plus a canonical edge set.

    edges may be any iterable of integer pairs in either order; the graph
    stores them as a frozenset of (min, max) pairs, duplicates collapsed.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        pairs = [(_integer(i, "edges"), _integer(j, "edges")) for i, j in self.edges]
        object.__setattr__(self, "n", _agent_count(_integer(self.n, "n")))
        object.__setattr__(self, "edges", frozenset((min(p), max(p)) for p in pairs))
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable of pairs in any order."""
        return cls(n=n, edges=edges)


def _integer(value, field: str) -> int:
    """An agent count or index, checked: int() would read 2.9 as 2, true as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"field '{field}': {json.dumps(value, default=repr)} is not an integer")
    return int(value)


def _agent_count(n: int) -> int:
    """An integer agent count, checked: positive, and no more than numpy's
    largest index, past which no per-agent array can be built."""
    if n < 1:
        raise ValueError(f"agent count must be positive, got {n}")
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"agent count {n} exceeds the largest array index "
                         f"{np.iinfo(np.intp).max}")
    return n


def _agent(value, n: int) -> int:
    """An agent index of an n-agent system, checked: _integer's TypeError,
    then ValueError outside [0, n)."""
    agent = _integer(value, "agent")
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent} out of range [0, {n})")
    return agent


def _seconds(entry: dict, k: int, field: str) -> float:
    """Segment k's time field, checked: float() reads false as 0.0, "10" as 10."""
    if field not in entry:
        raise ParseError(f"segment {k}: missing field '{field}'")
    value = entry[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"segment {k}: field '{field}' must be a number, got {json.dumps(value)}")
    if not abs(value) <= sys.float_info.max:  # inf, nan and integers past float range
        raise ParseError(f"segment {k}: field '{field}' must be finite, got {json.dumps(value)}")
    return float(value)


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


def directed_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every edge as index arrays (src, dst), sorted by
    (src, dst): each agent's neighbors in ascending order, the order a stage
    round accumulates them in. Plus each agent's degree."""
    e = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
    src, dst = np.concatenate((e, e[:, ::-1])).T
    order = np.lexsort((dst, src))
    return src[order], dst[order], np.bincount(src, minlength=g.n)


def build_laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian: degree on the diagonal, -1 per edge."""
    src, dst, deg = directed_edges(g)
    lap = np.diag(deg.astype(float))
    lap[src, dst] = -1.0
    return lap


def max_degree(g: Graph) -> int:
    """Largest agent degree, 0 with no edges; 2*max_degree bounds every
    Laplacian eigenvalue. Counted over the edges' endpoints alone, so no
    array has an entry per agent."""
    ends = np.array(list(g.edges), dtype=np.intp).ravel()
    return int(np.unique(ends, return_counts=True)[1].max(initial=0))


def is_connected(g: Graph) -> bool:
    """Union-find connectivity check. A graph of fewer than n - 1 edges is
    disconnected: that is answered before the per-agent list is built."""
    if len(g.edges) < g.n - 1:
        return False
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
    edges: list[tuple[int, int]] = []
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
            try:
                _agent_count(n)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
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
        edges.append((i, j))
    if n is None:
        raise ParseError("empty input: missing 'n <count>' header")
    return Graph(n=n, edges=edges)


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

    def __post_init__(self) -> None:
        if not self.segments:
            raise ScheduleError("schedule has no segments")
        if abs(self.segments[0].t_start) > TIME_TOL:
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
                if abs(gap) > TIME_TOL:
                    kind = "gap" if gap > 0 else "overlap"
                    raise ScheduleError(
                        f"{kind} between segments {k - 1} and {k}: "
                        f"{self.segments[k - 1].t_end} -> {seg.t_start}"
                    )
            if not is_connected(seg.graph):
                warnings.warn(
                    f"segment {k} graph is disconnected; its observable spectrum "
                    "splits per component",
                    stacklevel=3,  # past the dataclass __init__, to its caller
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
        t_start, t_end = (_seconds(entry, k, name) for name in ("t_start", "t_end"))
        if "edges_file" in entry:
            if not isinstance(entry["edges_file"], str):
                raise ParseError(
                    f"segment {k}: field 'edges_file' must be a path string, "
                    f"got {json.dumps(entry['edges_file'])}"
                )
            path = base / entry["edges_file"]
            try:
                graph = parse_edge_list(path.read_text())
            except (OSError, UnicodeDecodeError) as exc:
                raise ParseError(f"segment {k}: cannot read {path}: {exc}") from None
            except ParseError as exc:
                raise ParseError(f"segment {k}: {path}: {exc}") from None
        elif "edges" in entry:
            if "n" not in entry:
                raise ParseError(f"segment {k}: inline 'edges' requires 'n'")
            try:
                graph = Graph.from_edges(entry["n"], entry["edges"])
            except (ValueError, TypeError) as exc:
                raise ParseError(f"segment {k}: {exc}") from None
        else:
            raise ParseError(f"segment {k}: needs either 'edges_file' or 'edges'")
        segments.append(Segment(t_start, t_end, graph))
    return TopologySchedule(segments=tuple(segments))
