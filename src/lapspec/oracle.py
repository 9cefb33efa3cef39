"""Centralized spectral ground truth for the oscillator network.

Everything here is allowed to see the whole network at once; it exists to
validate what the decentralized side produces. The building blocks:

- dense symmetric eigendecomposition of the Laplacian, with eigenvalues
  clustered into distinct values and per-cluster orthonormal bases;
- the dense paired (x, z) system matrix (build_system_matrix; the simulator
  never forms it) and its induced eigenstructure, whose eigenvalues sit at
  +/- j(1 + lambda) on the imaginary axis, each pair checked against the
  matrix;
- closed-form trajectories x_i(t), z_i(t) as finite sums of sinusoids, and
  the per-agent line amplitudes (modal coefficients) of those sinusoids;
- observability ranks by the per-eigenspace PBH (Hautus) test: the rank
  of [C; CM; ...] is the sum over eigenspaces V_j of rank(C V_j), computed
  in the eigenbasis without matrix powers, so it stays right at any n;
- oracle_report, the one ground-truth report validate prints per segment,
  taken from the state at that segment's start; it alone takes the
  clustering and rank tolerances as arguments.

CLUSTER_TOL (eigenvalue clustering), RANK_TOL (rank threshold relative to
||C||_2), ESTIMABLE_TOL (smallest estimable line amplitude) and
RESIDUAL_TOL (eigenpair residual bound) are fixed constants. All functions
are pure over immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_laplacian

CLUSTER_TOL = 1e-8
RANK_TOL = 1e-9
ESTIMABLE_TOL = 1e-6
RESIDUAL_TOL = 1e-10


class OracleError(RuntimeError):
    """Numerical verification inside the oracle failed."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Distinct Laplacian eigenvalues with multiplicities and cluster bases.

    values[j] are strictly increasing; vectors[j] is an (n, multiplicity[j])
    matrix whose columns form an orthonormal basis of the j-th eigenspace.
    The full basis across clusters is orthonormal.
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
    """Per-agent sinusoid line amplitudes, one entry per distinct eigenvalue.

    For the zero eigenvalue the two quadratures are reported separately and
    signed (a multiplies cos t, b multiplies sin t in x_i); for positive
    eigenvalues the x and z lines share one nonnegative amplitude, so a == b.
    """

    agent: int
    lambdas: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def line_amplitudes(self) -> np.ndarray:
        """Amplitude of each spectral line in x_i: hypot of the quadratures
        for lambda = 0, a itself for lambda > 0."""
        amps = self.a.copy()
        zero = np.isclose(self.lambdas, 0.0, atol=1e-12)
        amps[zero] = np.hypot(self.a[zero], self.b[zero])
        return amps


@dataclass(frozen=True)
class ObservabilityReport:
    """Ranks of the Laplacian-side and paired-system observability matrices."""

    rank_laplacian: int
    rank_system: int
    n: int
    full_rank: bool
    relation_holds: bool
    eigenvalues: np.ndarray
    eigenvalue_observable: np.ndarray


def eig_sym(laplacian: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> EigenDecomposition:
    """Full symmetric eigendecomposition with multiplicity detection.

    Eigenvalues closer than cluster_tol (consecutive-gap clustering of the
    sorted spectrum) merge into one distinct eigenvalue whose multiplicity is
    the cluster size; the cluster value is the mean. Cluster bases are
    re-orthonormalized for safety. Integer-entry Laplacians at desk scale
    separate distinct eigenvalues far above the default tolerance. A
    non-symmetric matrix raises ValueError (eigh would read only its lower
    triangle).
    """
    lap = np.asarray(laplacian, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {lap.shape}")
    if not np.array_equal(lap, lap.T):
        raise ValueError("expected a symmetric matrix")
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:  # practically unreachable at desk scale
        raise OracleError(f"eigensolver failed to converge: {exc}") from None

    clusters: list[list[int]] = [[0]]
    for k in range(1, len(vals)):
        if vals[k] - vals[clusters[-1][-1]] <= cluster_tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])

    distinct = []
    mults = []
    bases = []
    for idx in clusters:
        value = float(np.mean(vals[idx]))
        block = vecs[:, idx]
        q, _ = np.linalg.qr(block)
        # eigh returns orthonormal columns; QR only guards rounding and fixes
        # nothing structural, so signs may flip — coefficients are basis-free.
        distinct.append(0.0 if abs(value) <= cluster_tol else value)
        mults.append(len(idx))
        bases.append(q)
    return EigenDecomposition(
        values=np.array(distinct),
        multiplicities=np.array(mults, dtype=int),
        vectors=tuple(bases),
    )


def eigendecompose(g: Graph) -> EigenDecomposition:
    """Convenience: eig_sym of the graph's Laplacian."""
    return eig_sym(build_laplacian(g))


def build_system_matrix(laplacian: np.ndarray) -> np.ndarray:
    """Stacked 2n x 2n system matrix [[0, I+L], [-(I+L), 0]].

    Skew-symmetric for every topology, hence purely oscillatory dynamics.
    """
    lap = np.asarray(laplacian, dtype=float)
    n = lap.shape[0]
    coupling = np.eye(n) + lap
    zero = np.zeros((n, n))
    return np.block([[zero, coupling], [-coupling, zero]])


def system_eigenpairs(
    dec: EigenDecomposition, laplacian: np.ndarray
) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of the paired 2n x 2n system matrix induced by the Laplacian.

    Each Laplacian eigenpair (lambda, v) of dec yields the conjugate pair
    +/- j(1 + lambda) with unit-norm eigenvectors [v; +/- j v] / sqrt(2).
    All residuals are checked in one product against the system matrix
    assembled from laplacian; a residual above RESIDUAL_TOL raises
    OracleError naming the worst eigenvalue.
    """
    basis = dec.full_basis()
    lap_vals = dec.full_values()
    sys_mat = build_system_matrix(laplacian)

    signs = np.tile([1.0, -1.0], len(lap_vals))
    cols = np.repeat(basis, 2, axis=1)
    eigs = signs * 1j * (1.0 + np.repeat(lap_vals, 2))
    vecs = np.vstack([cols, signs * 1j * cols]) / np.sqrt(2.0)
    resid = np.max(np.abs(sys_mat @ vecs - vecs * eigs), axis=0)
    worst = int(np.argmax(resid))
    if resid[worst] > RESIDUAL_TOL:
        raise OracleError(
            f"eigenpair residual {resid[worst]:.3e} exceeds {RESIDUAL_TOL:.1e} for {eigs[worst]}"
        )
    return list(zip(eigs, vecs.T))


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
    """Line amplitudes of agent i's trajectory, one per distinct eigenvalue.

    For the zero eigenvalue the quadratures are the signed cluster projections
    (for a connected graph both reduce to the initial averages, identical
    across agents). For positive eigenvalues the amplitude is the invariant
    hypot of the cluster projections, so it does not depend on the basis
    chosen within a degenerate eigenspace.
    """
    x0 = np.asarray(x0, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if not 0 <= agent < dec.n:
        raise ValueError(f"agent {agent} out of range [0, {dec.n})")
    a = np.empty(dec.num_distinct)
    b = np.empty(dec.num_distinct)
    for j, (lam, block) in enumerate(zip(dec.values, dec.vectors)):
        px = float(block[agent, :] @ (block.T @ x0))
        pz = float(block[agent, :] @ (block.T @ z0))
        if lam == 0.0:
            a[j], b[j] = px, pz
        else:
            a[j] = b[j] = float(np.hypot(px, pz))
    return ModalCoefficients(agent=agent, lambdas=dec.values.copy(), a=a, b=b)


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


def _output_matrix(out_mat: np.ndarray, n: int) -> np.ndarray:
    out = np.atleast_2d(np.asarray(out_mat, dtype=float))
    if out.shape[1] != n:
        raise ValueError(f"output matrix has {out.shape[1]} columns, expected {n}")
    return out


def _eigenspace_ranks(out: np.ndarray, bases, rank_tol: float) -> np.ndarray:
    """rank(C V_j) for each eigenspace basis V_j: the PBH (Hautus) test.

    Singular values of C V_j count above rank_tol * ||C||_2, an absolute
    scale, so an eigenspace that C does not see (C V_j at rounding level)
    counts zero rather than one.
    """
    floor = rank_tol * np.linalg.norm(out, 2)
    return np.array(
        [int(np.sum(np.linalg.svd(out @ b, compute_uv=False) > floor)) for b in bases],
        dtype=int,
    )


def observability_rank(mat: np.ndarray, out_mat: np.ndarray) -> int:
    """Rank of the observability matrix [C; CM; ...; CM^(d-1)] of symmetric M.

    Computed in M's eigenbasis as the sum over eigenspaces V_j of
    rank(C V_j), which equals the rank of the power stack without forming
    matrix powers (whose dynamic range swamps an SVD from about n = 10).
    Eigenvalues closer than eig_sym's cluster tolerance count as one
    eigenspace, and singular values count above RANK_TOL * ||C||_2. A
    non-symmetric M raises ValueError.
    """
    dec = eig_sym(mat)
    out = _output_matrix(out_mat, dec.n)
    return int(_eigenspace_ranks(out, dec.vectors, RANK_TOL).sum())


def verify_rank_relation(laplacian: np.ndarray, out_mat: np.ndarray) -> ObservabilityReport:
    """Compare Laplacian-side and paired-system observability ranks.

    The Laplacian rank is the PBH sum of rank(C V_j) over the Laplacian
    eigenspaces. The system rank is the PBH sum for the block-diagonal
    output [C 0; 0 C] over the eigenspaces of the 2n-state system, taken
    from the residual-checked system_eigenpairs and grouped by eigenvalue.
    It is computed independently, so relation_holds (system rank twice the
    Laplacian rank) is a real check; False signals numerical trouble, not a
    logic error. An eigenvalue is observable when C sees its whole
    eigenspace: rank(C V_j) equals its multiplicity. Ranks count singular
    values above RANK_TOL * ||C||_2.
    """
    lap = np.asarray(laplacian, dtype=float)
    return _rank_report(eig_sym(lap), lap, out_mat, RANK_TOL)


def _rank_report(
    dec: EigenDecomposition, lap: np.ndarray, out_mat: np.ndarray, rank_tol: float
) -> ObservabilityReport:
    """verify_rank_relation over an existing decomposition of lap."""
    out = _output_matrix(out_mat, dec.n)
    ranks = _eigenspace_ranks(out, dec.vectors, rank_tol)
    spaces: dict[complex, list[np.ndarray]] = {}
    for eig, vec in system_eigenpairs(dec, laplacian=lap):
        spaces.setdefault(eig, []).append(vec)
    out_sys = np.kron(np.eye(2), out)
    rank_sys = int(
        _eigenspace_ranks(out_sys, [np.column_stack(v) for v in spaces.values()], rank_tol).sum()
    )
    rank_lap = int(ranks.sum())
    return ObservabilityReport(
        rank_laplacian=rank_lap,
        rank_system=rank_sys,
        n=dec.n,
        full_rank=(rank_lap == dec.n),
        relation_holds=(rank_sys == 2 * rank_lap),
        eigenvalues=dec.values.copy(),
        eigenvalue_observable=(ranks == dec.multiplicities),
    )


def oracle_report(
    g: Graph,
    x: np.ndarray,
    z: np.ndarray,
    agent: int,
    cluster_tol: float = CLUSTER_TOL,
    rank_tol: float = RANK_TOL,
) -> dict:
    """JSON-ready ground truth for one agent observing g from state (x, z).

    (x, z) is the state the spectral lines start from: for a segment of a
    switching schedule, the state at the segment start. The report holds the
    distinct eigenvalues and multiplicities; per eigenvalue the agent's line
    amplitude ("coefficient") and whether the agent can estimate it; the
    PBH ranks for the output row e_agent; and warnings for a rank
    deficiency, for eigenvalues the agent cannot estimate, and for an
    initialization that shows the agent only the average mode. One
    decomposition at cluster_tol serves the eigenvalues and the ranks, and
    one set of modal coefficients the amplitudes and the estimable flags.
    """
    lap = build_laplacian(g)
    dec = eig_sym(lap, cluster_tol=cluster_tol)
    amps = modal_coefficients(dec, x, z, agent).line_amplitudes()
    estimable = amps > ESTIMABLE_TOL
    out_row = np.zeros((1, g.n))
    out_row[0, agent] = 1.0
    rank = _rank_report(dec, lap, out_row, rank_tol)

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
