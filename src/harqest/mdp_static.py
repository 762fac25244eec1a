"""The constant-gain channel under its own state labels.

A constant-gain link is the one-state Markov chain, and it is built and
solved by `mdp_markov`. Its policies are relabelled here on the (r, q) grid:
r counts the consecutive attempts of the pending round, q is the age of the
freshest delivered estimate, and r <= q always. The one-state label
((r,), q, 0) is written (r, q), and policy files keep that layout.
"""

from dataclasses import replace

from .channel import static_channel
from .harq_model import HarqModel
from .lti_estimation import CostLadder
from .mdp_core import Policy
from .mdp_markov import MarkovMdp, build_markov_mdp, solve_rvi_markov

__all__ = ["build_static_mdp", "solve_rvi", "static_policy", "markov_policy"]


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
    return static_policy(solve_rvi_markov(mdp, tol=tol, max_iters=max_iters))


def static_policy(policy: Policy) -> Policy:
    """A one-state Markov policy relabelled on the (r, q) grid."""
    return replace(
        policy,
        states=tuple((omega[0], q) for omega, q, _ in policy.states),
        kind="static",
        params={"r_max": policy.params["omega_caps"][0], "q_max": policy.params["q_max"]},
    )


def markov_policy(policy: Policy) -> Policy:
    """A static (r, q) policy relabelled as the one-state Markov policy."""
    params = policy.params
    if params:
        params = {"omega_caps": (params["r_max"],), "q_max": params["q_max"]}
    states = tuple(((r,), q, 0) for r, q in policy.states)
    return replace(policy, states=states, kind="markov", params=params)
