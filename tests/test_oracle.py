"""Dense-oracle checks: eigendecomposition, the system eigenstructure the
oracle's ranks rest on, closed-form trajectories, modal coefficients, and
observability ranks."""
from __future__ import annotations

import numpy as np
import pytest

import lapspec.oracle
from lapspec import (
    Graph,
    OracleError,
    SampledSignal,
    analytic_trajectory,
    build_laplacian,
    build_system_matrix,
    check_estimability,
    complete_graph,
    cycle_graph,
    eig_sym,
    eigendecompose,
    ls_fit,
    modal_coefficients,
    observability_rank,
    oracle_report,
    path_graph,
    random_init,
    star_graph,
    verify_rank_relation,
)
from lapspec.oracle import EIG_TOL
from conftest import random_connected_graph

K2 = Graph.from_edges(2, [(0, 1)])
STAR4 = star_graph(4)  # hub 0, leaves 1..3; spectrum {0, 1, 1, 4}
P5 = path_graph(5)


def e_row(n, i):
    row = np.zeros((1, n))
    row[0, i] = 1.0
    return row


# --- eigendecomposition --------------------------------------------------------

def test_eig_k2_by_hand():
    dec = eigendecompose(K2)
    assert np.allclose(dec.values, [0.0, 2.0], atol=1e-12)
    assert np.array_equal(dec.multiplicities, [1, 1])
    # eigenvectors up to sign
    assert np.allclose(np.abs(dec.vectors[0][:, 0]), [1, 1] / np.sqrt(2), atol=1e-12)
    assert np.allclose(np.abs(dec.vectors[1][:, 0]), [1, 1] / np.sqrt(2), atol=1e-12)
    assert np.sign(dec.vectors[1][0, 0]) != np.sign(dec.vectors[1][1, 0])


def test_eig_star_multiplicities():
    dec = eigendecompose(STAR4)
    assert np.allclose(dec.values, [0.0, 1.0, 4.0], atol=1e-10)
    assert np.array_equal(dec.multiplicities, [1, 2, 1])


def test_eig_p5_reference_spectrum():
    """Closed-form path eigenvalues, printed to 4 decimals in the reference
    comparison table for the stationary segment."""
    dec = eigendecompose(P5)
    assert np.array_equal(dec.multiplicities, np.ones(5, dtype=int))
    assert np.allclose(dec.values, [0.0, 0.3819660113, 1.3819660113, 2.6180339887, 3.6180339887])
    assert np.max(np.abs(dec.values - np.round(dec.values, 4))) < 5e-5


def test_eig_residual_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        lap = build_laplacian(g)
        dec = eig_sym(lap)
        basis = dec.full_basis()
        assert np.max(np.abs(basis.T @ basis - np.eye(g.n))) < 1e-10
        recon = lap @ basis - basis * dec.full_values()
        assert np.max(np.abs(recon)) < 1e-10


def test_eig_bases_are_eighs_own_column_blocks():
    """Each cluster basis is eigh's column block as returned, with no
    re-orthonormalization, and it is orthonormal to rounding even where one
    eigenvalue has multiplicity 48 or 49."""
    for g in (star_graph(50), complete_graph(50), path_graph(60)):
        lap = build_laplacian(g)
        basis = np.hstack(eig_sym(lap).vectors)
        assert np.array_equal(basis, np.linalg.eigh(lap)[1])
        assert np.max(np.abs(basis.T @ basis - np.eye(g.n))) <= 1e-13


def test_eig_clustering_merges_near_values():
    mat = np.diag([0.0, 1.0, 1.0 + 1e-12, 3.0])
    dec = eig_sym(mat)
    assert np.array_equal(dec.multiplicities, [1, 2, 1])


def test_eig_clustering_chains_consecutive_gaps():
    """Clusters split where one sorted eigenvalue is more than EIG_TOL
    above the one before it: a chain of small gaps stays one cluster, whose
    value is its mean, even when it spans more than EIG_TOL."""
    mat = np.diag([2.0, 2.0 + 0.75 * EIG_TOL, 2.0 + 1.5 * EIG_TOL, 5.0])
    dec = eig_sym(mat)
    assert np.array_equal(dec.multiplicities, [3, 1])
    assert dec.values[0] == np.mean(np.diag(mat)[:3]) and dec.values[1] == 5.0


def test_eig_splits_values_the_residual_check_would_reject():
    """Eigenvalues 5e-9 apart are two eigenspaces, not one cluster whose
    mean misses both by 2.5e-9 and fails the residual check, so the rank
    route runs."""
    mat = np.diag([0.0, 1.0, 1.0 + 5e-9, 3.0])
    dec = eig_sym(mat)
    assert dec.values.tolist() == [0.0, 1.0, 1.0 + 5e-9, 3.0]
    assert np.array_equal(dec.multiplicities, [1, 1, 1, 1])
    assert verify_rank_relation(mat, e_row(4, 0)).rank_laplacian == 1


# --- induced system eigenstructure ----------------------------------------------

def test_system_eigenvectors_from_laplacian_eigenbasis():
    """build_system_matrix(L) maps [V; +/- jV] / sqrt(2) to +/- j(1 + lambda)
    times itself: the identity the oracle's stated system rank rests on."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        sys_mat = build_system_matrix(build_laplacian(g))
        dec = eigendecompose(g)
        basis, lam = dec.full_basis(), dec.full_values()
        for sign in (1.0, -1.0):
            vecs = np.vstack([basis, sign * 1j * basis]) / np.sqrt(2.0)
            resid = sys_mat @ vecs - vecs * (sign * 1j * (1.0 + lam))
            assert np.max(np.abs(resid)) < EIG_TOL


def test_eig_sym_detects_corrupted_eigenpairs(monkeypatch):
    """eig_sym checks every pair it returns, so a solver whose eigenvalues
    do not match its vectors raises, through eigendecompose as well."""
    real = np.linalg.eigh

    def shifted(mat):
        vals, vecs = real(mat)
        return vals + 0.5, vecs  # wrong eigenvalues

    lap = build_laplacian(K2)
    eig_sym(lap)
    monkeypatch.setattr(np.linalg, "eigh", shifted)
    message = "eigenpair residual 2.500e-01 exceeds 1.0e-10 for lambda = 0.5"
    with pytest.raises(OracleError, match=message):
        eig_sym(lap)
    with pytest.raises(OracleError, match="eigenpair residual"):
        eigendecompose(K2)


def test_lemma_eigenvalue_multiset_random():
    """Complex eigenvalues of the assembled system equal the shifted
    Laplacian spectrum on both half axes, as multisets: a single node
    (+/- j), K2, P5 and random graphs."""
    rng = np.random.default_rng(17)
    graphs = [Graph.from_edges(1, []), K2, P5]
    graphs += [random_connected_graph(rng, int(rng.integers(2, 13))) for _ in range(10)]
    for g in graphs:
        lam = np.linalg.eigvalsh(build_laplacian(g))
        expected = np.sort(np.concatenate([1.0 + lam, -(1.0 + lam)]))
        got = np.linalg.eigvals(build_system_matrix(build_laplacian(g)))
        assert np.max(np.abs(np.sort(got.imag) - expected)) < 1e-10
        assert np.max(np.abs(got.real)) < 1e-10


# --- closed-form trajectories ----------------------------------------------------

def test_analytic_single_node():
    dec = eig_sym(np.array([[0.0]]))
    t = np.linspace(0, 7, 50)
    x, z = analytic_trajectory(dec, [2.0], [-1.0], t)
    assert np.allclose(x[:, 0], 2 * np.cos(t) - np.sin(t), atol=1e-12)
    assert np.allclose(z[:, 0], -2 * np.sin(t) - np.cos(t), atol=1e-12)


def test_analytic_k2_antisymmetric_mode():
    """x0 = (1,-1) has no average component, so both agents swing at the
    shifted pair frequency 3 with opposite signs."""
    dec = eigendecompose(K2)
    t = np.linspace(0, 5, 40)
    x, _ = analytic_trajectory(dec, [1.0, -1.0], [0.0, 0.0], t)
    assert np.max(np.abs(x[:, 0] - np.cos(3 * t))) < 1e-12
    assert np.max(np.abs(x[:, 1] + np.cos(3 * t))) < 1e-12


def test_analytic_identity_at_t0():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 6)
    dec = eigendecompose(g)
    x0, z0 = random_init(6, 4)
    x, z = analytic_trajectory(dec, x0, z0, 0.0)
    assert np.max(np.abs(x - x0)) < 1e-13
    assert np.max(np.abs(z - z0)) < 1e-13


# --- modal coefficients -----------------------------------------------------------

def test_modal_k2_example():
    dec = eigendecompose(K2)
    coef = modal_coefficients(dec, [1.0, -1.0], [0.0, 0.0], 0)
    assert abs(coef.a[0]) < 1e-14          # no average mode
    assert abs(coef.a[1] - 1.0) < 1e-12    # unit cos line of the fast mode
    assert coef.b[1] == 0.0                # z0 = 0: no sin line


def test_modal_all_ones_only_average():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 7)
    dec = eigendecompose(g)
    ones = np.ones(7)
    for agent in (0, 3):
        coef = modal_coefficients(dec, ones, ones, agent)
        assert abs(coef.a[0] - 1.0) < 1e-12 and abs(coef.b[0] - 1.0) < 1e-12
        assert np.max(np.abs(coef.a[1:])) < 1e-12
        assert np.max(np.abs(coef.b[1:])) < 1e-12


def test_modal_average_constancy_and_formula():
    """The zero-mode quadratures equal the initial averages, identically
    across agents."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 10)))
        x0, z0 = random_init(g.n, int(rng.integers(0, 1000)))
        dec = eigendecompose(g)
        a_vals = [modal_coefficients(dec, x0, z0, i).a[0] for i in range(g.n)]
        b_vals = [modal_coefficients(dec, x0, z0, i).b[0] for i in range(g.n)]
        assert np.max(np.abs(np.diff(a_vals))) < 1e-14
        assert abs(a_vals[0] - x0.sum() / g.n) < 1e-12
        assert abs(b_vals[0] - z0.sum() / g.n) < 1e-12


def test_modal_star_degenerate_matches_amplitude_fit():
    """For the repeated eigenvalue of the star the coefficient must match a
    least-squares amplitude fit over the analytic trajectory, regardless of
    the basis chosen inside the degenerate eigenspace."""
    dec = eigendecompose(STAR4)
    rng = np.random.default_rng(77)
    x0 = rng.choice([-1.0, 1.0], 4)
    z0 = rng.choice([-1.0, 1.0], 4)
    f_s = 40.0
    t = np.arange(2000) / f_s
    x, _ = analytic_trajectory(dec, x0, z0, t)
    for agent in range(4):
        coef = modal_coefficients(dec, x0, z0, agent)
        sig = SampledSignal(samples=x[:, agent], f_s=f_s)
        amps, _, resid = ls_fit(sig, 1.0 + dec.values)
        assert resid < 1e-8
        assert abs(amps[1] - coef.line_amplitudes()[1]) < 1e-8


def test_modal_parseval_energy_split():
    """Summing both quadratures' energies over lines and agents recovers the
    total initial energy |x0|^2 + |z0|^2."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        x0, z0 = random_init(g.n, int(rng.integers(0, 1000)))
        dec = eigendecompose(g)
        total = 0.0
        for i in range(g.n):
            coef = modal_coefficients(dec, x0, z0, i)
            total += coef.a @ coef.a + coef.b @ coef.b
        assert abs(total - (x0 @ x0 + z0 @ z0)) < 1e-8


@pytest.mark.parametrize("g", [
    K2,
    STAR4,  # repeated eigenvalue 1
    P5,
    Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),  # three components
    *(random_connected_graph(np.random.default_rng(s), 3 + s) for s in range(4)),
], ids=["K2", "star4", "P5", "disconnected", *(f"random{3 + s}" for s in range(4))])
def test_modal_coefficients_rebuild_analytic_trajectory(g):
    """a and b are the signed cos and sin coefficients of every line:
    x_i = sum_j a_j cos(w_j t) + b_j sin(w_j t) and
    z_i = sum_j b_j cos(w_j t) - a_j sin(w_j t), w_j = 1 + lambda_j."""
    dec = eigendecompose(g)
    x0, z0 = np.random.default_rng(17).standard_normal((2, g.n))
    t = np.linspace(0.0, 20.0, 301)
    x, z = analytic_trajectory(dec, x0, z0, t)
    phase = np.outer(t, 1.0 + dec.values)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    for agent in range(g.n):
        coef = modal_coefficients(dec, x0, z0, agent)
        assert np.max(np.abs(cos_p @ coef.a + sin_p @ coef.b - x[:, agent])) < 1e-12
        assert np.max(np.abs(cos_p @ coef.b - sin_p @ coef.a - z[:, agent])) < 1e-12


# --- estimability -------------------------------------------------------------------

def test_estimability_k2():
    dec = eigendecompose(K2)
    flags = check_estimability(dec, [1.0, -1.0], [0.0, 0.0], 0)
    assert flags.tolist() == [False, True]


def test_estimability_all_ones():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 6)
    dec = eigendecompose(g)
    flags = check_estimability(dec, np.ones(6), np.ones(6), 2)
    assert flags[0] and not np.any(flags[1:])


def test_estimability_p5_generic_seed():
    dec = eigendecompose(P5)
    x0, z0 = random_init(5, 12345)
    assert np.all(check_estimability(dec, x0, z0, 0))
    # the path center is structurally blind to the antisymmetric modes
    center = check_estimability(dec, x0, z0, 2)
    assert center.tolist() == [True, False, True, False, True]


# --- observability ranks --------------------------------------------------------------

def test_rank_path_endpoint_full():
    assert observability_rank(build_laplacian(P5), e_row(5, 0)) == 5


def test_rank_star_leaf_misses_one_dimension():
    """A leaf sees one direction of the repeated eigenspace: rank 3 of 4."""
    assert observability_rank(build_laplacian(STAR4), e_row(4, 1)) == 3


def test_rank_star_center_misses_whole_eigenspace():
    """The repeated eigenspace vanishes at the hub, so the hub's rank drops
    to 2: it can never detect the repeated eigenvalue at all."""
    assert observability_rank(build_laplacian(STAR4), e_row(4, 0)) == 2


def test_rank_identity_output_full():
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        assert observability_rank(build_laplacian(g), np.eye(g.n)) == g.n


@pytest.mark.parametrize(
    "graph,out_index,expected",
    [(P5, 0, (5, 10)), (STAR4, 1, (3, 6)), (STAR4, 0, (2, 4))],
)
def test_rank_relation_examples(graph, out_index, expected):
    report = verify_rank_relation(build_laplacian(graph), e_row(graph.n, out_index))
    assert (report.rank_laplacian, report.rank_system) == expected
    assert report.relation_holds


def test_rank_relation_k2_identity():
    report = verify_rank_relation(build_laplacian(K2), np.eye(2))
    assert (report.rank_laplacian, report.rank_system) == (2, 4)
    assert report.full_rank


def test_rank_relation_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        if rng.integers(0, 2):
            out = e_row(n, int(rng.integers(0, n)))
        else:
            out = rng.standard_normal((2, n))
        lap = build_laplacian(g)
        report = verify_rank_relation(lap, out)
        assert report.rank_system == 2 * report.rank_laplacian
        assert observability_rank(lap, out) == report.rank_laplacian


def test_per_eigenvalue_observability_flags():
    report = verify_rank_relation(build_laplacian(STAR4), e_row(4, 0))
    # hub: sees lambda=0 and lambda=4, not the repeated lambda=1
    assert report.eigenvalue_observable.tolist() == [True, False, True]
    leaf = verify_rank_relation(build_laplacian(STAR4), e_row(4, 1))
    # leaf: the repeated eigenvalue is visible but not with full multiplicity
    assert leaf.eigenvalue_observable.tolist() == [True, False, True]
    full = verify_rank_relation(build_laplacian(STAR4), np.eye(4))
    assert full.eigenvalue_observable.tolist() == [True, True, True]


@pytest.mark.parametrize("n", [20, 60, 200])
def test_rank_path_endpoint_full_at_scale(n):
    """The path endpoint sees every (simple) eigenspace; the power-stacked
    observability matrix lost rank here from about n = 10."""
    lap = build_laplacian(path_graph(n))
    assert observability_rank(lap, e_row(n, 0)) == n
    report = verify_rank_relation(lap, e_row(n, 0))
    assert (report.rank_laplacian, report.rank_system) == (n, 2 * n)
    assert report.full_rank and report.relation_holds


@pytest.mark.parametrize("n", [20, 61, 200])
def test_rank_cycle_agent_sees_each_distinct_eigenvalue(n):
    """C_n has floor(n/2) + 1 distinct eigenvalues, each eigenspace visible
    at every agent, so one agent's rank is floor(n/2) + 1."""
    lap = build_laplacian(cycle_graph(n))
    assert observability_rank(lap, e_row(n, 3)) == n // 2 + 1


def test_rank_complete_and_star_hub_at_n50():
    """K_50 has spectrum {0, 50}; the star hub sees {0, 50} but not the
    48-fold eigenvalue 1, which vanishes at the hub."""
    assert observability_rank(build_laplacian(complete_graph(50)), e_row(50, 7)) == 2
    report = verify_rank_relation(build_laplacian(star_graph(50)), e_row(50, 0))
    assert (report.rank_laplacian, report.rank_system) == (2, 4)
    assert report.eigenvalue_observable.tolist() == [True, False, True]


def test_p5_center_eigenvalue_observable():
    """The path center is blind to the antisymmetric modes (PBH rank 0)."""
    report = verify_rank_relation(build_laplacian(P5), e_row(5, 2))
    assert report.eigenvalue_observable.tolist() == [True, False, True, False, True]
    assert (report.rank_laplacian, report.rank_system) == (3, 6)


def test_observability_rank_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        observability_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), e_row(2, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: eig_sym(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: eig_sym([[1.0, -np.inf], [-np.inf, 1.0]]), "expected a matrix of finite entries"),
    (lambda: eig_sym([[np.nan, 0.0], [0.0, 0.0]]), "expected a matrix of finite entries"),
    (lambda: eig_sym(np.zeros((0, 0))), "expected a non-empty matrix"),
    (lambda: observability_rank(np.zeros((0, 0)), np.zeros((1, 0))), "expected a non-empty matrix"),
    (lambda: modal_coefficients(eigendecompose(P5), np.ones(5), np.ones(5), 5),
     "agent 5 out of range [0, 5)"),
    (lambda: modal_coefficients(eigendecompose(P5), np.ones(4), np.ones(5), 0),
     "states must have shape (5,), got (4,) and (5,)"),
    (lambda: check_estimability(eigendecompose(P5), np.ones(5), np.ones((5, 1)), 0),
     "states must have shape (5,), got (5,) and (5, 1)"),
    (lambda: modal_coefficients(eigendecompose(P5), np.full(5, np.nan), np.ones(5), 0),
     "states must be finite"),
    (lambda: observability_rank(build_laplacian(P5), np.ones((1, 4))),
     "output matrix has 4 columns, expected 5"),
    (lambda: observability_rank(build_laplacian(P5), [[np.inf, 0, 0, 0, 0]]),
     "output matrix has non-finite entries"),
    (lambda: verify_rank_relation(build_laplacian(P5), [[np.nan, 0, 0, 0, 0]]),
     "output matrix has non-finite entries"),
], ids=["not square", "inf matrix", "nan matrix", "empty matrix", "empty rank matrix",
        "agent out of range", "state length", "state shape", "nan state", "output width",
        "inf output", "nan output"])
def test_oracle_errors_are_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and message in str(exc.value)


@pytest.mark.parametrize("call, value", [
    (lambda: modal_coefficients(eigendecompose(P5), np.ones(5), np.ones(5), True), "true"),
    (lambda: modal_coefficients(eigendecompose(P5), np.ones(5), np.ones(5), np.bool_(False)),
     f'"{np.bool_(False)!r}"'),
    (lambda: check_estimability(eigendecompose(P5), np.ones(5), np.ones(5), 2.5), "2.5"),
], ids=["bool agent", "numpy bool agent", "fractional agent"])
def test_oracle_rejects_a_non_integer_agent_as_the_graph_does(call, value):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"field 'agent': {value} is not an integer"


def test_oracle_report_shape():
    x0, z0 = random_init(4, 8)
    report = oracle_report(STAR4, x0, z0, 1)
    assert set(report) == {"eigenvalues", "multiplicities", "per_eigenvalue", "rank", "warnings"}
    assert report["multiplicities"] == [1, 2, 1]
    assert [set(e) for e in report["per_eigenvalue"]] == [
        {"lambda", "multiplicity", "coefficient", "estimable"}
    ] * 3
    dec = eigendecompose(STAR4)
    assert [e["coefficient"] for e in report["per_eigenvalue"]] == (
        modal_coefficients(dec, x0, z0, 1).line_amplitudes().tolist()
    )
    assert [e["estimable"] for e in report["per_eigenvalue"]] == (
        check_estimability(dec, x0, z0, 1).tolist()
    )
    # a leaf sees one direction of the repeated eigenspace: rank 3 of 4
    assert report["rank"] == {"L": 3, "A": 6, "n": 4, "full": False, "relation_holds": True}
    assert report["warnings"][0].startswith("rank deficiency observing agent 1: rank 3 < 4")


def test_oracle_report_decomposes_once_at_cluster_tol(monkeypatch):
    """One eig_sym per report, so the rank half uses the eigenspaces the
    report lists."""
    calls = []
    real = lapspec.oracle.eig_sym

    def counting(lap):
        calls.append(lap)
        return real(lap)

    monkeypatch.setattr(lapspec.oracle, "eig_sym", counting)
    x0, z0 = random_init(4, 8)
    report = oracle_report(STAR4, x0, z0, 1)
    assert len(calls) == 1
    assert report["rank"] == {"L": 3, "A": 6, "n": 4, "full": False, "relation_holds": True}


def test_oracle_report_computes_modal_coefficients_once(monkeypatch):
    """One modal_coefficients call per report serves both the line
    amplitudes and the estimable flags."""
    calls = []
    real = lapspec.oracle.modal_coefficients

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(lapspec.oracle, "modal_coefficients", counting)
    x0, z0 = random_init(5, 12345)
    report = oracle_report(P5, x0, z0, 2)
    assert calls == [2]
    dec = eigendecompose(P5)
    assert [e["estimable"] for e in report["per_eigenvalue"]] == (
        check_estimability(dec, x0, z0, 2).tolist()
    )
