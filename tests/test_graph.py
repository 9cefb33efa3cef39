"""Graph construction, Laplacian invariants, and the two file formats."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lapspec import (
    Graph,
    ParseError,
    ScheduleError,
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
from lapspec.dynamics import _edge_arrays
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


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(n=2, edges=frozenset({(0, 2)}))


def test_connectivity():
    assert is_connected(path_graph(4))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))


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
    with pytest.warns(UserWarning, match="disconnected"):
        TopologySchedule.single(Graph.from_edges(4, [(0, 1), (2, 3)]), 10.0)


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


def test_named_constructors():
    assert complete_graph(4).edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    )
    assert len(cycle_graph(5).edges) == 5
    assert star_graph(4).edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert _edge_arrays(path_graph(3))[2].tolist() == [1, 2, 1]
