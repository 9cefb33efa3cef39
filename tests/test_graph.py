"""Graph construction, Laplacian invariants, and the two file formats."""
from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapspec import (
    Graph,
    ParseError,
    ScheduleError,
    Segment,
    TopologySchedule,
    build_laplacian,
    complete_graph,
    cycle_graph,
    is_connected,
    max_degree,
    parse_edge_list,
    parse_schedule,
    path_graph,
    serialize_edge_list,
    star_graph,
)
from lapspec.graph import directed_edges
from conftest import random_connected_graph


K2 = Graph.from_edges(2, [(0, 1)])


# --- Graph and Laplacian -----------------------------------------------------

def test_k2_laplacian():
    assert np.array_equal(build_laplacian(K2), [[1.0, -1.0], [-1.0, 1.0]])


def test_single_node_laplacian():
    g = Graph.from_edges(1, [])
    assert np.array_equal(build_laplacian(g), [[0.0]])


def test_p5_laplacian_structure_and_spectrum():
    """P5 is tridiagonal with degrees (1,2,2,2,1); its eigenvalues follow the
    closed form 2 - 2*cos(k*pi/5), the independent oracle for this case."""
    lap = build_laplacian(path_graph(5))
    assert np.array_equal(np.diag(lap), [1, 2, 2, 2, 1])
    assert np.array_equal(np.diag(lap, 1), [-1, -1, -1, -1])
    expected = np.array([2.0 - 2.0 * math.cos(k * math.pi / 5) for k in range(5)])
    got = np.linalg.eigvalsh(lap)
    assert np.max(np.abs(np.sort(got) - np.sort(expected))) < 1e-12
    # frozen reference values (also the t=25 spectrum of the reproduction run)
    assert np.allclose(
        np.sort(got), [0.0, 0.38196601125, 1.38196601125, 2.61803398875, 3.61803398875]
    )


@pytest.mark.parametrize(
    "g,expected",
    [(K2, 1), (path_graph(5), 2), (star_graph(5), 4)],
)
def test_max_degree(g, expected):
    assert max_degree(g) == expected


def _reference_edge_arrays(g):
    """The per-edge loops directed_edges replaced, kept as its reference."""
    pairs = sorted([(i, j) for i, j in g.edges] + [(j, i) for i, j in g.edges])
    src = np.array([p[0] for p in pairs], dtype=np.intp)
    dst = np.array([p[1] for p in pairs], dtype=np.intp)
    deg = np.zeros(g.n, dtype=np.intp)
    for i, _ in pairs:
        deg[i] += 1
    return src, dst, deg


def _reference_laplacian(g):
    lap = np.zeros((g.n, g.n))
    for i, j in g.edges:
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def _reference_max_degree(g):
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return max(deg)


def test_directed_edges_and_laplacian_match_per_edge_loops():
    """directed_edges, build_laplacian and max_degree give exactly what the
    per-edge loops gave: same arrays, dtypes and signs of zero."""
    rng = np.random.default_rng(10)
    graphs = [K2, Graph.from_edges(1, []), Graph.from_edges(6, []), path_graph(5),
              star_graph(6), cycle_graph(7), complete_graph(5)]
    graphs += [random_connected_graph(rng, int(rng.integers(2, 40))) for _ in range(24)]
    graphs.append(random_connected_graph(rng, 2000))
    for g in graphs:
        for got, want in zip(directed_edges(g), _reference_edge_arrays(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        lap, ref = build_laplacian(g), _reference_laplacian(g)
        assert lap.dtype == ref.dtype and np.array_equal(lap, ref)
        assert np.array_equal(np.signbit(lap), np.signbit(ref))
        assert max_degree(g) == _reference_max_degree(g)


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(n=2, edges=frozenset({(0, 2)}))
    # the constructor canonicalises: a reversed pair is the same edge
    assert Graph(n=2, edges=frozenset({(1, 0)})).edges == frozenset({(0, 1)})


def test_connectivity():
    assert is_connected(path_graph(4))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))


def test_connectivity_of_too_few_edges_builds_no_per_agent_list():
    """Fewer than n - 1 edges cannot connect n agents: is_connected answers
    before its union-find list, whose n entries take about 36 MB here."""
    g = Graph.from_edges(10**6, [(0, 1), (5, 999_999)])
    tracemalloc.start()
    try:
        assert not is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_max_degree_builds_no_per_agent_array():
    """max_degree counts the edges' endpoints: one edge among 10**7 agents
    allocates nothing near the 80 MB of a per-agent degree array."""
    g = Graph.from_edges(10**7, [(3, 9_999_999)])
    tracemalloc.start()
    try:
        assert max_degree(g) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert max_degree(Graph.from_edges(10**7, [])) == 0


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_laplacian_nullvector_property(n, seed):
    """The all-ones vector is always in the Laplacian's null space."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n) if n > 1 else Graph.from_edges(1, [])
    lap = build_laplacian(g)
    assert np.max(np.abs(lap @ np.ones(n))) < 1e-12
    assert np.array_equal(lap, lap.T)


def test_spectrum_within_gershgorin_bound():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        vals = np.linalg.eigvalsh(build_laplacian(g))
        assert vals.min() > -1e-9
        assert vals.max() < 2.0 * max_degree(g) + 1e-9


# --- Edge-list format ---------------------------------------------------------

def test_parse_edge_list_k2():
    assert parse_edge_list("n 2\n0 1\n") == K2


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("n 3\n0 1\n1 0\n")
    assert g.n == 3 and g.edges == frozenset({(0, 1)})


def test_parse_edge_list_out_of_range_names_line():
    with pytest.raises(ParseError, match=r"line 2.*out of range"):
        parse_edge_list("n 2\n0 2\n")


def test_parse_edge_list_self_loop_names_line():
    with pytest.raises(ParseError, match=r"line 3.*self-loop"):
        parse_edge_list("n 3\n0 1\n2 2\n")


def test_parse_edge_list_malformed_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("n 2\n0 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("m 2\n")
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# nothing here\n")


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a path\nn 3\n\n0 1  # first\n1 2\n")
    assert g == path_graph(3)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_edge_list_round_trip(n, seed):
    """parse_edge_list after serialize_edge_list is the identity."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n) if n > 1 else Graph.from_edges(1, [])
    assert parse_edge_list(serialize_edge_list(g)) == g


# --- Schedules ----------------------------------------------------------------

def test_single_segment_schedule():
    sched = parse_schedule('[{"t_start": 0, "t_end": 20, "edges": [[0,1],[1,2],[2,3],[3,4]], "n": 5}]')
    assert sched.n == 5 and sched.t_end == 20.0
    assert sched.segments[0].graph == path_graph(5)


def test_three_segment_switch_times():
    """Schedule mirroring the reproduction experiment's switch instants."""
    text = """[
      {"t_start": 0.0, "t_end": 6.4, "edges": [[0,1],[0,2],[0,3],[0,4]], "n": 5},
      {"t_start": 6.4, "t_end": 12.9, "edges": [[0,1],[1,2],[2,3],[3,4],[4,0]], "n": 5},
      {"t_start": 12.9, "t_end": 20.0, "edges": [[0,1],[1,2],[2,3],[3,4]], "n": 5}
    ]"""
    sched = parse_schedule(text)
    assert [s.t_start for s in sched.segments] == [0.0, 6.4, 12.9]
    assert sched.t_end == 20.0


def test_schedule_gap_rejected():
    text = '[{"t_start": 0, "t_end": 5, "edges": [[0,1]], "n": 2},' \
           ' {"t_start": 6, "t_end": 10, "edges": [[0,1]], "n": 2}]'
    with pytest.raises(ScheduleError, match="gap"):
        parse_schedule(text)


def test_schedule_overlap_rejected():
    text = '[{"t_start": 0, "t_end": 5, "edges": [[0,1]], "n": 2},' \
           ' {"t_start": 4, "t_end": 10, "edges": [[0,1]], "n": 2}]'
    with pytest.raises(ScheduleError, match="overlap"):
        parse_schedule(text)


def test_schedule_mismatched_n_rejected():
    text = '[{"t_start": 0, "t_end": 5, "edges": [[0,1]], "n": 2},' \
           ' {"t_start": 5, "t_end": 10, "edges": [[0,1]], "n": 3}]'
    with pytest.raises(ScheduleError, match="must match"):
        parse_schedule(text)


def test_schedule_must_start_at_zero():
    with pytest.raises(ScheduleError, match="start at t=0"):
        parse_schedule('[{"t_start": 1, "t_end": 5, "edges": [[0,1]], "n": 2}]')


def test_schedule_disconnected_warns():
    """The warning points at graph.py, where the schedule is made, not at
    the dataclass-generated __init__ ("<string>")."""
    with pytest.warns(UserWarning, match="disconnected") as caught:
        TopologySchedule.single(Graph.from_edges(4, [(0, 1), (2, 3)]), 10.0)
    assert [Path(w.filename).name for w in caught] == ["graph.py"]


def test_schedule_edges_file_resolution(tmp_path):
    (tmp_path / "ring.txt").write_text(serialize_edge_list(cycle_graph(4)))
    text = '[{"t_start": 0, "t_end": 3, "edges_file": "ring.txt"}]'
    sched = parse_schedule(text, base_dir=tmp_path)
    assert sched.segments[0].graph == cycle_graph(4)


def test_parse_schedule_bad_json_and_fields():
    with pytest.raises(ParseError, match="JSON"):
        parse_schedule("not json")
    with pytest.raises(ParseError, match="missing field"):
        parse_schedule('[{"t_end": 3, "edges": [[0,1]], "n": 2}]')
    with pytest.raises(ParseError, match="edges_file"):
        parse_schedule('[{"t_start": 0, "t_end": 3}]')


@pytest.mark.parametrize("fields, message", [
    ('"t_start": null, "t_end": 3', "segment 1: field 't_start' must be a number, got null"),
    ('"t_start": [5], "t_end": 3', "segment 1: field 't_start' must be a number, got [5]"),
    ('"t_start": "abc", "t_end": 3', "segment 1: field 't_start' must be a number, got \"abc\""),
    ('"t_start": 2, "t_end": {}', "segment 1: field 't_end' must be a number, got {}"),
    ('"t_start": 2, "t_end": 3, "edges_file": 123',
     "segment 1: field 'edges_file' must be a path string, got 123"),
    ('"t_start": 2, "t_end": 3, "edges_file": null',
     "segment 1: field 'edges_file' must be a path string, got null"),
    # int() would read 2.9 agents as 2, an endpoint 1.7 as 1 and true as 1
    ('"t_start": 2, "t_end": 3, "n": 2.9, "edges": [[0, 1]]',
     "segment 1: field 'n': 2.9 is not an integer"),
    ('"t_start": 2, "t_end": 3, "n": true, "edges": []', "segment 1: field 'n': true is not an integer"),
    ('"t_start": 2, "t_end": 3, "n": 2.0', "segment 1: field 'n': 2.0 is not an integer"),
    ('"t_start": 2, "t_end": 3, "n": "2"', "segment 1: field 'n': \"2\" is not an integer"),
    ('"t_start": 2, "t_end": 3, "n": null', "segment 1: field 'n': null is not an integer"),
    ('"t_start": 2, "t_end": 3, "edges": [[0, 1.7]]',
     "segment 1: field 'edges': 1.7 is not an integer"),
    ('"t_start": 2, "t_end": 3, "edges": [[false, 1]]',
     "segment 1: field 'edges': false is not an integer"),
    ('"t_start": 2, "t_end": 3, "n": 3, "edges": [[0, 1], [1, 2.0]]',
     "segment 1: field 'edges': 2.0 is not an integer"),
    # float() would read false as 0.0, true as 1.0, "10" as 10.0 and 1e400 as inf
    ('"t_start": false, "t_end": 3', "segment 1: field 't_start' must be a number, got false"),
    ('"t_start": 2, "t_end": true', "segment 1: field 't_end' must be a number, got true"),
    ('"t_start": 2, "t_end": "10"', "segment 1: field 't_end' must be a number, got \"10\""),
    ('"t_start": 2, "t_end": Infinity', "segment 1: field 't_end' must be finite, got Infinity"),
    ('"t_start": 2, "t_end": 1e400', "segment 1: field 't_end' must be finite, got Infinity"),
    ('"t_start": -Infinity, "t_end": 3',
     "segment 1: field 't_start' must be finite, got -Infinity"),
    ('"t_start": 2, "t_end": NaN', "segment 1: field 't_end' must be finite, got NaN"),
    pytest.param('"t_start": 2, "t_end": 1' + "0" * 400,
                 "segment 1: field 't_end' must be finite, got 1" + "0" * 400,
                 id="t_end-integer-past-float-range"),
])
def test_parse_schedule_bad_field_types_name_segment_and_field(fields, message):
    text = f'[{{"t_start": 0, "t_end": 2, "edges": [[0,1]], "n": 2}}, {{"edges": [[0,1]], "n": 2, {fields}}}]'
    with pytest.raises(ParseError) as info:
        parse_schedule(text)
    assert str(info.value) == message


def test_from_edges_rejects_non_integers_and_keeps_numpy_integers():
    with pytest.raises(TypeError, match="field 'n': 2.9 is not an integer"):
        Graph.from_edges(2.9, [(0, 1)])
    with pytest.raises(TypeError, match="field 'n': true is not an integer"):
        Graph.from_edges(True, [])
    with pytest.raises(TypeError, match="field 'edges': 1.5 is not an integer"):
        Graph.from_edges(3, [(0, 1.5)])
    with pytest.raises(TypeError, match="field 'edges': 0.0 is not an integer"):
        Graph.from_edges(3, np.array([[0.0, 1.0]]))
    g = Graph.from_edges(np.int64(3), np.array([[2, 0], [1, 2]]))
    assert g == Graph.from_edges(3, [(0, 2), (1, 2)])
    assert all(type(v) is int for v in (g.n, *(v for e in g.edges for v in e)))


@pytest.mark.parametrize("n, text", [(2.5, "2.5"), (True, "true"), (np.float64(3.0), "3.0")])
def test_graph_checks_its_agent_count(n, text):
    """The constructor owns the agent-count rule, so a Graph built directly
    is held to it too; a numpy integer is stored as a Python int."""
    with pytest.raises(TypeError, match=f"^field 'n': {text} is not an integer$"):
        Graph(n=n, edges=frozenset())
    assert type(Graph(n=np.int64(3), edges=frozenset()).n) is int


def _schedule_reading(tmp_path, edges_file_text):
    """parse_schedule of one segment whose edges_file holds edges_file_text
    (None: no such file)."""
    if edges_file_text is not None:
        (tmp_path / "g.txt").write_text(edges_file_text)
    text = '[{"t_start": 0, "t_end": 1, "edges_file": "g.txt"}]'
    return parse_schedule(text, base_dir=tmp_path)


@pytest.mark.parametrize("call, kind, message", [
    (lambda tmp: Graph(n=0, edges=frozenset()), ValueError, "agent count must be positive, got 0"),
    (lambda tmp: Graph(n=3, edges=frozenset({(0, 1.5)})), TypeError,
     "field 'edges': 1.5 is not an integer"),
    (lambda tmp: Graph(n=3, edges=frozenset({(True, 2)})), TypeError,
     "field 'edges': true is not an integer"),
    (lambda tmp: parse_edge_list("n five\n"), ParseError,
     "line 1: agent count 'five' is not an integer"),
    (lambda tmp: parse_edge_list("n 0\n"), ParseError, "line 1: agent count must be positive"),
    (lambda tmp: parse_edge_list("# big\nn 99999999999999999999999\n0 1\n"), ParseError,
     f"line 2: agent count 99999999999999999999999 exceeds the largest array index "
     f"{np.iinfo(np.intp).max}"),
    (lambda tmp: Graph(n=2**63, edges=frozenset()), ValueError,
     f"agent count {2**63} exceeds the largest array index {np.iinfo(np.intp).max}"),
    (lambda tmp: parse_schedule(f'[{{"t_start": 0, "t_end": 1, "n": {10**30}, "edges": []}}]'),
     ParseError, f"segment 0: agent count {10**30} exceeds the largest array index"),
    (lambda tmp: parse_edge_list("n 3\n0 b\n"), ParseError,
     "line 2: endpoints must be integers, got '0 b'"),
    (lambda tmp: Segment(2.0, 2.0, K2), ScheduleError, "[2.0, 2.0] has non-positive duration"),
    (lambda tmp: TopologySchedule(segments=()), ScheduleError, "schedule has no segments"),
    (lambda tmp: parse_schedule('{"t_start": 0}'), ParseError,
     "schedule must be a JSON array of segment objects"),
    (lambda tmp: parse_schedule("[[0, 1]]"), ParseError, "segment 0: expected an object, got list"),
    (lambda tmp: _schedule_reading(tmp, None), ParseError, "segment 0: cannot read"),
    (lambda tmp: _schedule_reading(tmp, "0 1\n"), ParseError,
     "g.txt: line 1: expected 'n <count>', got '0 1'"),
    (lambda tmp: parse_schedule('[{"t_start": 0, "t_end": 1, "edges": [[0, 1]]}]'), ParseError,
     "segment 0: inline 'edges' requires 'n'"),
], ids=["zero agents", "fractional endpoint", "bool endpoint", "count not integer",
        "count zero", "count past intp", "Graph count past intp", "inline count past intp",
        "endpoint not integer", "empty segment", "no segments", "not an array",
        "segment not object", "edges file missing", "edges file malformed", "edges without n"])
def test_graph_errors_are_named(call, kind, message, tmp_path):
    with pytest.raises(kind) as exc:
        call(tmp_path)
    assert type(exc.value) is kind and message in str(exc.value)


def test_named_constructors():
    assert complete_graph(4).edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    )
    assert len(cycle_graph(5).edges) == 5
    assert star_graph(4).edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert directed_edges(path_graph(3))[2].tolist() == [1, 2, 1]
