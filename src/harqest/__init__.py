"""Transmission-control policy solver and simulator for real-time remote
estimation of linear dynamic processes over retransmission-combining links."""

from .channel import MarkovChannel, static_channel
from .errors import ConfigError, ConvergenceError, DepthError, HarqestError, ModelError
from .harq_model import (
    HarqModel,
    LinkErrors,
    block_error_prob,
    worst_retransmission_error_markov,
)
from .lti_estimation import (
    CostLadder,
    LtiSystem,
    SteadyStateKalman,
    build_cost_ladder,
    f_apply,
    solve_steady_state,
)
from .mdp_core import (
    FiniteAverageCostMdp,
    policy_average_cost,
    policy_iteration,
    relative_value_iteration,
    relative_value_iteration_cells,
)
from .mdp_markov import (
    Policy,
    StabilityReport,
    assemble_markov_cells,
    build_markov_mdp,
    check_stability_markov,
    high_snr_markov,
    solve_rvi_cells,
    solve_rvi_markov,
    verify_switching_markov,
)
from .mdp_static import build_static_mdp, solve_rvi
from .numerics import first_passage_cost, gaussian_q, gth_stationary, spectral_radius
from .policy_io import load_policy, save_policy
from .simulator import (
    ComparisonTable,
    PolicyEntry,
    PolicySpec,
    SimConfig,
    SimulationTrace,
    evaluate_policies,
    run,
)

__version__ = "0.1.0"
