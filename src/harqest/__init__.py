"""Transmission-control policy solver and simulator for real-time remote
estimation of linear dynamic processes over retransmission-combining links."""

from .channel import MarkovChannel, static_channel
from .errors import ConfigError, ConvergenceError, DepthError, HarqestError, ModelError
from .harq_model import (
    HarqModel,
    HistoryCounter,
    block_error_prob,
    conditional_error_prob,
    worst_retransmission_error_markov,
    worst_retransmission_error_static,
)
from .lti_estimation import (
    CostLadder,
    LtiSystem,
    SteadyStateKalman,
    build_cost_ladder,
    f_apply,
    solve_steady_state,
)
from .mdp_core import FiniteAverageCostMdp, Policy, policy_average_cost, relative_value_iteration
from .mdp_markov import (
    HighSnrChain,
    StabilityReport,
    build_high_snr_chain,
    build_markov_mdp,
    check_stability_markov,
    high_snr_markov,
    solve_rvi_markov,
    verify_switching_markov,
)
from .mdp_static import build_static_mdp, solve_rvi
from .numerics import gaussian_q, gth_stationary, spectral_radius
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
