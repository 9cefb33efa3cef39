"""Centralized spectral ground truth for the oscillator network.

Everything here is allowed to see the whole network at once; it exists to
validate what the decentralized side produces. The building blocks:

- dense symmetric eigendecomposition of the Laplacian: eigh's sorted
  output split once at the gaps above EIG_TOL into distinct values,
  multiplicities and eigh's own orthonormal column blocks, each pair's
  residual checked against L at that same EIG_TOL before it is returned;
- the dense paired (x, z) system matrix (build_system_matrix), the tests'
  reference: neither the simulator nor the oracle forms it at run time;
- closed-form trajectories x_i(t), z_i(t) as finite sums of sinusoids, and
  agent i's signed cos/sin coefficients of each sinusoid (modal
  coefficients), whose hypot is the line amplitude;
- observability ranks by the per-eigenspace PBH (Hautus) test: the rank
  of [C; CM; ...] is the sum over eigenspaces V_j of rank(C V_j), computed
  in the eigenbasis without matrix powers, so it stays right at any n. The
  paired system's eigenspaces are [V_j; +/- j V_j] / sqrt(2), which
  [C 0; 0 C] maps to blocks with the singular values of C V_j, so its rank
  is twice the Laplacian rank by construction and is stated, not
  recomputed; observability_rank is that same route's Laplacian-side rank;
- oracle_report, the one ground-truth report validate prints per segment,
  taken from the state at that segment's start.

EIG_TOL (eigenvalue clustering, zero clamp and eigenpair residual bound),
RANK_TOL (rank threshold relative to ||C||_2) and ESTIMABLE_TOL (smallest
estimable line amplitude) are fixed constants. All functions are pure over
immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _agent, build_laplacian

EIG_TOL = 1e-10
RANK_TOL = 1e-9
ESTIMABLE_TOL = 1e-6


class OracleError(RuntimeError):
    """Numerical verification inside the oracle failed."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Distinct Laplacian eigenvalues with multiplicities and cluster bases.

    values[j] are strictly increasing; vectors[j] is an (n, multiplicity[j])
    matrix whose columns form an orthonormal basis of the j-th eigenspace.
    The full basis across clusters is orthonormal, and every pair
    (values[j], column of vectors[j]) passed eig_sym's residual check.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    vectors: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.vectors[0].shape[0]

    @property
    def num_distinct(self) -> int:
        return len(self.values)

    def full_basis(self) -> np.ndarray:
        """All eigenvectors as columns, cluster by cluster (n x n)."""
        return np.hstack(self.vectors)

    def full_values(self) -> np.ndarray:
        """Eigenvalues repeated per multiplicity, aligned with full_basis."""
        return np.repeat(self.values, self.multiplicities)


@dataclass(frozen=True)
class ModalCoefficients:
    """Agent i's signed line coefficients, one pair per distinct eigenvalue:
    x_i(t) = sum_j a_j cos((1 + lambda_j) t) + b_j sin((1 + lambda_j) t)."""

    a: np.ndarray
    b: np.ndarray

    def line_amplitudes(self) -> np.ndarray:
        """Amplitude of each spectral line in x_i: hypot of the quadratures."""
        return np.hypot(self.a, self.b)


@dataclass(frozen=True)
class ObservabilityReport:
    """Ranks of the Laplacian-side and paired-system observability matrices;
    the latter is twice the former by construction (verify_rank_relation)."""

    rank_laplacian: int
    rank_system: int
    n: int
    full_rank: bool
    relation_holds: bool
    eigenvalue_observable: np.ndarray


def eig_sym(laplacian: np.ndarray) -> EigenDecomposition:
    """Full symmetric eigendecomposition with multiplicity detection, checked.

    Eigenvalues closer than EIG_TOL (consecutive-gap clustering of the
    sorted spectrum) merge into one distinct eigenvalue whose multiplicity is
    the cluster size; the cluster value is the mean, and one within EIG_TOL
    of zero is exactly 0. Each cluster basis is eigh's own column block,
    orthonormal as eigh returns it. Every pair (cluster value, column) is
    then checked: its paired-system residual max|L v - lambda v| / sqrt(2)
    above EIG_TOL raises OracleError, so a cluster too wide to be one
    eigenspace is never returned. An empty, non-symmetric (eigh would read
    only its lower triangle) or non-finite matrix raises ValueError.
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap.shape}")
    if lap.size == 0:
        raise ValueError("expected a non-empty matrix")
    if not np.all(np.isfinite(lap)):
        raise ValueError("expected a matrix of finite entries")
    if not np.array_equal(lap, lap.T):
        raise ValueError("expected a symmetric matrix")
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:  # practically unreachable at desk scale
        raise OracleError(f"eigensolver failed to converge: {exc}") from None

    cuts = np.flatnonzero(np.diff(vals) > EIG_TOL) + 1
    clusters = np.split(vals, cuts)
    means = np.array([np.mean(c) for c in clusters])
    values = np.where(np.abs(means) <= EIG_TOL, 0.0, means)
    multiplicities = np.array([len(c) for c in clusters])
    full = np.repeat(values, multiplicities)
    resid = np.max(np.abs(lap @ vecs - vecs * full), axis=0) / np.sqrt(2.0)
    worst = int(np.argmax(resid))
    if resid[worst] > EIG_TOL:
        raise OracleError(
            f"eigenpair residual {resid[worst]:.3e} exceeds {EIG_TOL:.1e} "
            f"for lambda = {full[worst]}"
        )
    return EigenDecomposition(values, multiplicities, tuple(np.split(vecs, cuts, axis=1)))


def eigendecompose(g: Graph) -> EigenDecomposition:
    """Convenience: eig_sym of the graph's Laplacian."""
    return eig_sym(build_laplacian(g))


def build_system_matrix(laplacian: np.ndarray) -> np.ndarray:
    """Stacked 2n x 2n system matrix [[0, I+L], [-(I+L), 0]].

    Skew-symmetric for every topology, hence purely oscillatory dynamics.
    The tests' reference for the paired system: nothing in the package
    forms it at run time, since the simulator passes messages and the
    oracle works in the Laplacian eigenbasis.
    """
    lap = np.asarray(laplacian, dtype=float)
    n = lap.shape[0]
    coupling = np.eye(n) + lap
    zero = np.zeros((n, n))
    return np.block([[zero, coupling], [-coupling, zero]])


def analytic_trajectory(
    dec: EigenDecomposition, x0: np.ndarray, z0: np.ndarray, t
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (x(t), z(t)) of the paired system.

    Expanding the initial condition over the orthonormal eigenbasis, each
    component rotates at angular frequency 1 + lambda:

        x(t) = V (c cos(w t) + s sin(w t)),   c = V^T x0, s = V^T z0,
        z(t) = V (-c sin(w t) + s cos(w t)),  w = 1 + lambda per column.

    t may be a scalar (returns two length-n vectors) or a 1-D array of times
    (returns two (len(t), n) arrays).
    """
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    basis = dec.full_basis()
    omega = 1.0 + dec.full_values()
    c = basis.T @ x0
    s = basis.T @ z0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    phase = np.outer(t_arr, omega)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    x_t = (cos_p * c + sin_p * s) @ basis.T
    z_t = (-sin_p * c + cos_p * s) @ basis.T
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return x_t[0], z_t[0]
    return x_t, z_t


def modal_coefficients(
    dec: EigenDecomposition, x0: np.ndarray, z0: np.ndarray, agent: int
) -> ModalCoefficients:
    """Agent i's cos and sin coefficients a_j = (P_j x0)_i, b_j = (P_j z0)_i.

    P_j = V_j V_j^T projects onto the j-th eigenspace, so neither depends on
    the basis chosen within it; z_i(t) has b_j on cos and -a_j on sin. For a
    connected graph the zero-eigenvalue pair is the initial averages.
    An agent outside [0, n), states not of shape (n,) and non-finite states
    raise ValueError; a non-integer agent raises TypeError.
    """
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    agent = _agent(agent, dec.n)
    if x0.shape != (dec.n,) or z0.shape != (dec.n,):
        raise ValueError(f"states must have shape ({dec.n},), got {x0.shape} and {z0.shape}")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(z0))):
        raise ValueError("states must be finite")
    a = np.array([block[agent, :] @ (block.T @ x0) for block in dec.vectors])
    b = np.array([block[agent, :] @ (block.T @ z0) for block in dec.vectors])
    return ModalCoefficients(a=a, b=b)


def check_estimability(
    dec: EigenDecomposition, x0: np.ndarray, z0: np.ndarray, agent: int
) -> np.ndarray:
    """Which distinct eigenvalues agent i can estimate from its own signal.

    An eigenvalue is estimable exactly when its spectral line in x_i has
    nonzero amplitude (above ESTIMABLE_TOL), which folds together the two
    classical hypotheses (initial conditions not orthogonal to the
    eigenspace, and the eigenspace visible from the agent's output). Returns
    a boolean flag per distinct eigenvalue. Multiplicities are never
    recoverable from frequencies alone.
    """
    return modal_coefficients(dec, x0, z0, agent).line_amplitudes() > ESTIMABLE_TOL


def observability_rank(mat: np.ndarray, out_mat: np.ndarray) -> int:
    """Rank of the observability matrix [C; CM; ...; CM^(d-1)] of symmetric M.

    The Laplacian-side rank of verify_rank_relation, over eig_sym's checked
    eigenspaces: the sum over M's eigenspaces V_j of rank(C V_j), which
    equals the rank of the power stack without forming matrix powers (whose
    dynamic range swamps an SVD from about n = 10).
    Eigenvalues closer than EIG_TOL count as one eigenspace, and
    singular values count above RANK_TOL * ||C||_2. A non-symmetric M
    raises ValueError.
    """
    return verify_rank_relation(mat, out_mat).rank_laplacian


def verify_rank_relation(laplacian: np.ndarray, out_mat: np.ndarray) -> ObservabilityReport:
    """Laplacian-side and paired-system observability ranks.

    The Laplacian rank is the PBH sum of rank(C V_j) over the Laplacian
    eigenspaces. The system eigenspace at +/- j(1 + lambda_j) is
    [V_j; +/- j V_j] / sqrt(2), which [C 0; 0 C] maps to a block with the
    singular values of C V_j, so the system rank is twice the Laplacian
    rank by construction: rank_system and relation_holds are stated, not
    recomputed. An eigenvalue is observable when C sees its whole
    eigenspace: rank(C V_j) equals its multiplicity. Ranks count singular
    values above RANK_TOL * ||C||_2.
    """
    return _rank_report(eig_sym(laplacian), out_mat)


def _rank_report(dec: EigenDecomposition, out_mat: np.ndarray) -> ObservabilityReport:
    """verify_rank_relation over an existing, already checked decomposition.

    rank(C V_j) counts singular values above RANK_TOL * ||C||_2, an
    absolute scale, so an eigenspace that C does not see (C V_j at rounding
    level) counts zero rather than one.
    """
    out = np.atleast_2d(np.asarray(out_mat, dtype=float))
    if out.shape[1] != dec.n:
        raise ValueError(f"output matrix has {out.shape[1]} columns, expected {dec.n}")
    if not np.all(np.isfinite(out)):
        raise ValueError("output matrix has non-finite entries")
    floor = RANK_TOL * np.linalg.norm(out, 2)
    ranks = np.array(
        [int(np.sum(np.linalg.svd(out @ v, compute_uv=False) > floor)) for v in dec.vectors],
        dtype=int,
    )
    rank_lap = int(ranks.sum())
    return ObservabilityReport(
        rank_laplacian=rank_lap,
        rank_system=2 * rank_lap,
        n=dec.n,
        full_rank=(rank_lap == dec.n),
        relation_holds=True,
        eigenvalue_observable=(ranks == dec.multiplicities),
    )


def oracle_report(g: Graph, x: np.ndarray, z: np.ndarray, agent: int) -> dict:
    """JSON-ready ground truth for one agent observing g from state (x, z).

    (x, z) is the state the spectral lines start from: for a segment of a
    switching schedule, the state at the segment start. The report holds the
    distinct eigenvalues and multiplicities; per eigenvalue the agent's line
    amplitude ("coefficient") and whether the agent can estimate it; the
    PBH ranks for the output row e_agent; and warnings for a rank
    deficiency, for eigenvalues the agent cannot estimate, and for an
    initialization that shows the agent only the average mode. One
    decomposition serves the eigenvalues and the ranks, and
    one set of modal coefficients the amplitudes and the estimable flags.
    """
    dec = eigendecompose(g)
    amps = modal_coefficients(dec, x, z, agent).line_amplitudes()
    estimable = amps > ESTIMABLE_TOL
    out_row = np.zeros((1, g.n))
    out_row[0, agent] = 1.0
    rank = _rank_report(dec, out_row)

    warnings: list[str] = []
    if not rank.full_rank:
        warnings.append(
            f"rank deficiency observing agent {agent}: rank {rank.rank_laplacian} "
            f"< {rank.n}; some eigenvalues are invisible from this agent"
        )
    missing = int(np.sum(~estimable))
    if missing:
        warnings.append(
            f"agent {agent} cannot estimate {missing} eigenvalue(s): vanishing "
            "spectral-line coefficients"
        )
    positive = dec.values > 0
    if np.any(positive) and not np.any(estimable[positive]):
        warnings.append(
            f"all coefficients for lambda > 0 vanish at agent {agent}; only the "
            "average mode is visible (degenerate initialization)"
        )
    return {
        "eigenvalues": [float(v) for v in dec.values],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "per_eigenvalue": [
            {
                "lambda": float(lam),
                "multiplicity": int(mult),
                "coefficient": float(amp),
                "estimable": bool(flag),
            }
            for lam, mult, amp, flag in zip(dec.values, dec.multiplicities, amps, estimable)
        ],
        "rank": {
            "L": rank.rank_laplacian,
            "A": rank.rank_system,
            "n": rank.n,
            "full": rank.full_rank,
            "relation_holds": rank.relation_holds,
        },
        "warnings": warnings,
    }
