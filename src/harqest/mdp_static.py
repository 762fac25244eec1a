"""The constant-gain channel under its own state labels.

A constant-gain link is the one-state Markov chain: `mdp_markov` builds and
solves it, and every policy file holds it in the one Markov layout. The
package only re-exports this module, for the benchmark: its oracle test
imports `build_static_mdp` and `solve_rvi`, and its tracer the module.
`solve_rvi` returns its policy on the (r, q) grid that test reads: r counts
the attempts of the pending round, q the age of the freshest estimate.
"""

from dataclasses import replace

from .channel import static_channel
from .harq_model import HarqModel
from .lti_estimation import CostLadder
from .mdp_core import Policy
from .mdp_markov import MarkovMdp, build_markov_mdp, solve_rvi_markov

__all__ = ["build_static_mdp", "solve_rvi"]


def build_static_mdp(
    harq: HarqModel,
    gain: float,
    ladder: CostLadder,
    r_max: int,
    q_max: int,
    cost_mode: str = "mse",
) -> MarkovMdp:
    """The one-state Markov MDP of a constant-gain link, attempts capped at r_max."""
    return build_markov_mdp(harq, static_channel(gain), ladder, (r_max,), q_max, cost_mode)


def solve_rvi(mdp: MarkovMdp, tol: float = 1e-9, max_iters: int = 100_000) -> Policy:
    """Relative value iteration on a one-state MDP, returned on the (r, q) grid."""
    policy = solve_rvi_markov(mdp, tol=tol, max_iters=max_iters)
    return replace(policy, states=tuple((omega[0], q) for omega, q, _ in policy.states))
