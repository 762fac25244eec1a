"""Plain references the tests compare the package against.

Each is written the direct way: the balance solve of a stationary vector, the
kernel-row sum check, the one-step-lookahead (myopic) rule and the threshold
closed form on the static link, the forced-success simulation check, and the
object-level channel step and attempt-history update of the reference
simulation loop. Nothing in the package imports this module.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from harqest import (
    HistoryCounter,
    Policy,
    PolicySpec,
    block_error_prob,
    build_high_snr_chain,
    run,
)

# Treat the retransmission as giving no reliability edge below this gap.
_RELIABILITY_TIE = 1e-15


# ---------------------------------------------------------------- linear algebra


def balance_stationary(p) -> np.ndarray:
    """Stationary vector of an irreducible column-stochastic matrix, from the
    balance equations with one row replaced by the normalization."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    a = p - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def kernel_row(core, s: int, a: int):
    """(successor indices, probabilities) of state s under action a."""
    idx, prob = core.transitions[a]
    return idx[s], prob[s]


def kernel_row_error(core) -> float:
    """Largest |row sum - 1| over the available (state, action) rows."""
    worst = 0.0
    for a, (_, prob) in enumerate(core.transitions):
        rows = core.available[:, a]
        if rows.any():
            worst = max(worst, float(np.max(np.abs(prob[rows].sum(axis=1) - 1.0))))
    return worst


# ---------------------------------------------------------------- static link


def myopic_policy(mdp) -> Policy:
    """Closed-form one-step-lookahead table of a one-state MDP: no iteration,
    no value function.

    Transmit fresh exactly when the expected next-slot cost of doing so is no
    worse than retransmitting; with no reliability edge the comparison
    degenerates and fresh wins. Returned on the MDP's own ((r,), q, 0) states.
    """
    (r_max,) = mdp.omega_caps
    g = {omega[0] + 1: err for (omega, _), err in mdp.errors.items()}  # attempt -> error
    ladder = mdp.ladder.extended(mdp.q_max + 1)
    c1 = ladder.trace(1)
    actions = np.zeros(len(mdp.states), dtype=np.int8)
    for s, ((r,), q, _) in enumerate(mdp.states):
        if r >= r_max:
            continue
        edge = g[1] - g[r + 1]
        if abs(edge) < _RELIABILITY_TIE:
            continue
        threshold = ((1.0 - g[r + 1]) * ladder.trace(r + 1) - (1.0 - g[1]) * c1) / edge
        actions[s] = 0 if ladder.trace(q + 1) <= threshold else 1
    return Policy(
        actions=actions,
        states=mdp.states,
        zeta=float("nan"),
        span=float("nan"),
        iterations=0,
        converged=True,
        cost_mode="mse",
        kind="markov",
        params={"omega_caps": mdp.omega_caps, "q_max": mdp.q_max, "gains": mdp.channel.gains},
    )


def high_snr_zeta_static(ladder, lambda_prime0: float, theta: int) -> float:
    """Long-run average MSE of the threshold-theta policy when retransmissions
    always succeed and a fresh transmission fails with probability lambda_prime0.

    Closed form of the stationary distribution of the reduced chain
    {(2,2)} + {(1,q)}: the threshold policy retransmits only at r = 1,
    q > theta, and such a retransmission lands in (2, 2).
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
class HighSnrValidation:
    empirical_mean: float
    stderr: float
    zeta: float
    abs_diff: float
    within_3_sigma: bool


def empirical_vs_closed_form(harq, ch, ladder, thetas, cfg) -> HighSnrValidation:
    """Forced-success threshold simulation against the reduced-chain average.

    Retransmissions are forced to succeed; fresh transmissions fail with the
    link model's single-attempt probability, which is exactly the regime the
    closed forms describe.
    """
    thetas = tuple(int(t) for t in thetas)
    cfg = replace(cfg, force_success_retransmissions=True)
    lambda_primes = tuple(block_error_prob(harq, (g,)) for g in ch.gains)
    zeta = build_high_snr_chain(ch, lambda_primes, thetas, ladder).zeta
    spec = PolicySpec(kind="threshold", thetas=thetas, label=f"threshold{thetas}")
    finals = [
        run(harq, ch, ladder, spec, cfg, replicate=rep).final_average
        for rep in range(cfg.replicates)
    ]
    mean = float(np.mean(finals))
    stderr = float(np.std(finals, ddof=1) / math.sqrt(len(finals))) if len(finals) > 1 else 0.0
    diff = abs(mean - zeta)
    # The relative floor keeps the verdict meaningful when the replicate
    # variance collapses to zero (e.g. error-free links).
    return HighSnrValidation(
        empirical_mean=mean,
        stderr=stderr,
        zeta=zeta,
        abs_diff=diff,
        within_3_sigma=diff <= 3.0 * stderr + 1e-9 * (1.0 + abs(zeta)),
    )


# ---------------------------------------------------------------- channel and history


def step(ch, current_index: int, rng: np.random.Generator) -> int:
    """Sample the next gain index. Always consumes exactly one draw from rng."""
    u = rng.random()
    if ch.size == 1:
        return 0
    return int(np.searchsorted(ch._cumulative[:, current_index], u, side="right"))


def zero_history(gains) -> HistoryCounter:
    """The empty attempt counter: no pending round."""
    return HistoryCounter(counts=(0,) * len(gains), gains=tuple(gains))


def unit_history(gains, index: int) -> HistoryCounter:
    """A round of one attempt, made under gain index `index`."""
    counts = tuple(1 if i == index else 0 for i in range(len(gains)))
    return HistoryCounter(counts=counts, gains=tuple(gains))


def incremented(omega: HistoryCounter, index: int) -> HistoryCounter:
    """The counter with one more attempt under gain index `index`."""
    counts = tuple(c + 1 if i == index else c for i, c in enumerate(omega.counts))
    return HistoryCounter(counts=counts, gains=omega.gains)


def update_history(omega: HistoryCounter, last_action: int, last_index: int) -> HistoryCounter:
    """Advance the per-gain attempt counter given last slot's action and gain index.

    A new transmission starts a fresh round (counter reset to the unit vector
    at last_index); a retransmission adds last slot's gain to the round.
    """
    if last_action == 0:
        return unit_history(omega.gains, last_index)
    return incremented(omega, last_index)
