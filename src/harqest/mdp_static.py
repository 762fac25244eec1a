"""The constant-gain channel under its own state labels, plus the myopic rule
and the perfect-retransmission closed form.

A constant-gain link is the one-state Markov chain, and every function here
solves it through `mdp_markov`. States are pairs (r, q): r counts the
consecutive attempts of the pending round, q is the age of the freshest
delivered estimate, and r <= q always. The one-state label ((r,), q, 0) is
written (r, q) here, and policy files keep that layout.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import static_channel
from .errors import ConfigError
from .harq_model import HarqModel
from .lti_estimation import CostLadder
from .mdp_core import FiniteAverageCostMdp, Policy
from .mdp_markov import (
    MarkovMdp,
    StabilityReport,
    SwitchingReport,
    assemble_markov_mdp,
    build_markov_mdp,
    check_stability_markov,
    high_snr_markov,
    solve_rvi_markov,
    verify_switching_markov,
)

__all__ = [
    "StabilityReport",
    "check_stability_static",
    "StaticMdp",
    "build_static_mdp",
    "build_static_mdp_from_error_probs",
    "solve_rvi",
    "static_policy",
    "markov_policy",
    "SwitchingReport",
    "verify_switching",
    "myopic_policy",
    "high_snr_zeta_static",
    "high_snr_optimal_static",
    "HighSnrStaticResult",
]

# Treat the retransmission as giving no reliability edge below this gap.
_RELIABILITY_TIE = 1e-15


def check_stability_static(lambda0: float, rho_sq_a: float) -> StabilityReport:
    """Worst retransmission error times the squared spectral radius of A."""
    return check_stability_markov(np.ones((1, 1)), [lambda0], rho_sq_a)


@dataclass(frozen=True, eq=False)
class StaticMdp:
    """The one-state Markov MDP with its states relabelled (r, q).

    g_table[r] is the error probability of the r-th consecutive attempt.
    """

    markov: MarkovMdp
    core: FiniteAverageCostMdp
    states: tuple
    index: dict
    g_table: dict
    ladder: CostLadder
    r_max: int
    q_max: int
    cost_mode: str
    gain: float


def _static_mdp(markov: MarkovMdp, gain: float) -> StaticMdp:
    if markov.omega_caps[0] < 2:
        raise ConfigError("r_max must be at least 2")
    states = tuple((omega[0], q) for omega, q, _ in markov.states)
    return StaticMdp(
        markov=markov,
        core=markov.core,
        states=states,
        index={s: i for i, s in enumerate(states)},
        g_table={omega[0] + 1: g for (omega, _), g in markov.errors.items()},
        ladder=markov.ladder,
        r_max=markov.omega_caps[0],
        q_max=markov.q_max,
        cost_mode=markov.cost_mode,
        gain=gain,
    )


def build_static_mdp_from_error_probs(
    g_table: dict,
    ladder: CostLadder,
    r_max: int,
    q_max: int,
    cost_mode: str = "mse",
    gain: float = float("nan"),
) -> StaticMdp:
    """Truncated MDP from an explicit attempt -> error-probability map.

    Entries 1..r_max of g_table are required. Failure transitions clamp q at
    q_max, and action 1 is unavailable at r = r_max so the kernel stays closed.
    """
    missing = [r for r in range(1, r_max + 1) if r not in g_table]
    if missing:
        raise ConfigError(f"g_table is missing attempts {missing}")
    markov = assemble_markov_mdp(
        lambda omega, xi: g_table[omega[0] + 1], static_channel(1.0), ladder, (r_max,), q_max,
        cost_mode,
    )
    return _static_mdp(markov, gain)


def build_static_mdp(
    harq: HarqModel,
    gain: float,
    ladder: CostLadder,
    r_max: int,
    q_max: int,
    cost_mode: str = "mse",
) -> StaticMdp:
    """Truncated MDP with error probabilities taken from the link model."""
    markov = build_markov_mdp(harq, static_channel(gain), ladder, (r_max,), q_max, cost_mode)
    return _static_mdp(markov, float(gain))


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


def solve_rvi(mdp: StaticMdp, tol: float = 1e-9, max_iters: int = 100_000) -> Policy:
    """Relative value iteration with reference state (1, 1)."""
    return static_policy(solve_rvi_markov(mdp.markov, tol=tol, max_iters=max_iters))


def verify_switching(policy: Policy) -> SwitchingReport:
    """Check the threshold structure on the (r, q) grid.

    (i) action 0 at (r, q) forces action 0 at every (r + z, q);
    (ii) action 1 at (r, q) forces action 1 at every (r, q + z).
    """
    report = verify_switching_markov(markov_policy(policy))
    violations = tuple(
        ((omega[0], q), (omega_next[0], q_next))
        for (omega, q, _), (omega_next, q_next, _) in report.violations
    )
    return SwitchingReport(passed=report.passed, violations=violations)


def myopic_policy(mdp: StaticMdp) -> Policy:
    """Closed-form one-step-lookahead policy: no iteration, no value function.

    Transmit fresh exactly when the expected next-slot cost of doing so is no
    worse than retransmitting; with no reliability edge the comparison
    degenerates and fresh wins. Needs the cost ladder up to q_max + 1.
    """
    ladder = mdp.ladder.extended(mdp.q_max + 1)
    g1 = mdp.g_table[1]
    c1 = ladder.trace(1)
    actions = np.zeros(len(mdp.states), dtype=np.int8)
    for s, (r, q) in enumerate(mdp.states):
        if r >= mdp.r_max:
            continue
        g_next = mdp.g_table[r + 1]
        edge = g1 - g_next
        if abs(edge) < _RELIABILITY_TIE:
            continue
        threshold = ((1.0 - g_next) * ladder.trace(r + 1) - (1.0 - g1) * c1) / edge
        actions[s] = 0 if ladder.trace(q + 1) <= threshold else 1
    return Policy(
        actions=actions,
        states=mdp.states,
        zeta=float("nan"),
        span=float("nan"),
        iterations=0,
        converged=True,
        cost_mode="mse",
        kind="static",
        params={"r_max": mdp.r_max, "q_max": mdp.q_max, "rule": "myopic"},
    )


def high_snr_zeta_static(ladder: CostLadder, lambda_prime0: float, theta: int) -> float:
    """Long-run average MSE of the threshold-theta policy when retransmissions
    always succeed and a fresh transmission fails with probability lambda_prime0.

    Closed form of the stationary distribution of the reduced chain
    {(2,2)} + {(1,q)}: the threshold policy retransmits only at r = 1,
    q > theta, and such a retransmission lands in (2, 2). The solver uses the
    reduced chain itself (`build_high_snr_chain`); this form cross-checks it.
    """
    if theta < 1:
        raise ValueError("theta must be at least 1")
    lam = float(lambda_prime0)
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda_prime0 must lie in [0, 1)")
    ladder = ladder.extended(max(theta + 1, 3))
    c = ladder.trace
    if theta == 1:
        return ((1 - lam) * c(1) + (2 * lam - lam * lam) * c(2) + lam * lam * c(3)) / (1 + lam)
    numerator = sum(c(i) * lam ** (i - 1) for i in range(1, theta + 2)) - c(1) * lam ** (theta - 1)
    denominator = 1.0 - lam ** (theta - 1) + lam ** theta - lam ** (theta + 1)
    return (1 - lam) * numerator / denominator


@dataclass(frozen=True)
class HighSnrStaticResult:
    theta_star: int
    zeta_star: float
    zetas: tuple  # zeta(theta) for theta = 1..theta_max


def high_snr_optimal_static(
    ladder: CostLadder, lambda_prime0: float, theta_max: int
) -> HighSnrStaticResult:
    """Scan the switching threshold on the one-state reduced chain."""
    result = high_snr_markov(ladder, static_channel(1.0), (lambda_prime0,), theta_max)
    zetas = tuple(result.evaluated[(t,)] for t in range(1, theta_max + 1))
    return HighSnrStaticResult(
        theta_star=result.theta_star[0], zeta_star=result.zeta_star, zetas=zetas
    )
