"""Decentralized Laplacian spectrum estimation.

A local interaction rule makes every agent's state oscillate only at angular
frequencies 1 + lambda, one per Laplacian eigenvalue of the interaction
graph. Simulating the rule by message passing and estimating the oscillation
frequencies of any single agent's signal therefore recovers the spectrum.
This package provides the simulator, the per-agent frequency estimator, and
a dense linear-algebra oracle to validate both.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    Segment,
    TopologySchedule,
    ParseError,
    ScheduleError,
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
from .dynamics import (
    ConfigError,
    MessageCounter,
    SimConfig,
    SimulationError,
    Trace,
    local_derivative,
    random_init,
    round_bound,
    simulate,
)
from .oracle import (
    EigenDecomposition,
    ModalCoefficients,
    ObservabilityReport,
    OracleError,
    analytic_trajectory,
    build_system_matrix,
    check_estimability,
    eig_sym,
    eigendecompose,
    modal_coefficients,
    observability_rank,
    oracle_report,
    verify_rank_relation,
)
from .estimation import (
    EstimationError,
    FreqEstimatorConfig,
    SampledSignal,
    SpectrogramData,
    SpectrumEstimate,
    detect_peaks,
    estimate_frequencies,
    freqs_to_eigenvalues,
    ls_fit,
    refine_frequencies,
    spectrogram,
)
