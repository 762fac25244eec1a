"""Generic finite average-cost MDP machinery: relative value iteration and
policy evaluation.

The transition kernel is stored per action as fixed-width (successor index,
probability) arrays, which keeps the Bellman sweep fully vectorized. Both the
retransmission MDPs and the random instances used for solver validation fit
this shape.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ModelError
from .numerics import gth_stationary

__all__ = ["FiniteAverageCostMdp", "Policy", "relative_value_iteration", "policy_average_cost"]


@dataclass(frozen=True, eq=False)
class FiniteAverageCostMdp:
    """costs[s, a]; transitions[a] = (idx, prob) arrays of shape (S, K), with
    one K for every action; available[s, a] masks actions that are forbidden
    at a state."""

    costs: np.ndarray
    transitions: list
    available: np.ndarray
    ref: int = 0

    @property
    def n_states(self) -> int:
        return self.costs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.costs.shape[1]

    def validate_kernel(self, tol: float = 1e-12):
        """Check that every available (state, action) row sums to one."""
        for a, (_, prob) in enumerate(self.transitions):
            rows = self.available[:, a]
            sums = prob[rows].sum(axis=1)
            worst = np.max(np.abs(sums - 1.0)) if rows.any() else 0.0
            if worst > tol:
                raise ModelError(f"action {a} kernel rows deviate from 1 by {worst:.3e}")

    def row(self, s: int, a: int):
        idx, prob = self.transitions[a]
        return idx[s], prob[s]


@dataclass(frozen=True, eq=False)
class Policy:
    """Deterministic state -> action table plus the solve that produced it."""

    actions: np.ndarray
    states: tuple
    zeta: float
    span: float
    iterations: int
    converged: bool
    cost_mode: str = "mse"
    kind: str = "static"
    params: dict = field(default_factory=dict)

    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}


def relative_value_iteration(
    mdp: FiniteAverageCostMdp,
    tol: float = 1e-9,
    max_iters: int = 100_000,
    patience: int = 500,
):
    """Span-seminorm relative value iteration for the long-run average cost.

    Stops when the span of successive value differences drops below tol, or
    when the span stops improving for `patience` sweeps (the float64 noise
    floor for value functions spanning many orders of magnitude). The
    midpoint of the final difference bounds estimates the gain; the span is
    its certified error bar.

    Returns (actions, zeta, span, iterations, converged).
    """
    n, n_actions = mdp.n_states, mdp.n_actions
    if not mdp.available.any(axis=1).all():
        raise ValueError("every state needs at least one available action")
    # Stack the actions: row a * n + s holds (s, a), so one gather and one
    # einsum make a sweep. An unavailable action costs inf, which its kernel
    # row cannot change.
    idx = np.concatenate([idx_a for idx_a, _ in mdp.transitions])
    prob = np.concatenate([prob_a for _, prob_a in mdp.transitions])
    costs = np.where(mdp.available, mdp.costs, np.inf).T.ravel()
    v = np.zeros(n)
    q = np.empty(n_actions * n)
    q_by_action = q.reshape(n_actions, n)
    tv = np.empty(n)
    diff = np.empty(n)

    def bellman():
        # Keep this einsum: from width 3 on its row sum differs from a
        # left-to-right sum of products, so a column-wise sum would move the
        # iterates in the last bit.
        np.einsum("sk,sk->s", prob, v[idx], out=q)
        np.add(q, costs, out=q)

    best_span = np.inf
    stall = 0
    converged = False
    lo = hi = 0.0
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        bellman()
        np.minimum.reduce(q_by_action, axis=0, out=tv)
        np.subtract(tv, v, out=diff)
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        np.subtract(tv, tv[mdp.ref], out=v)
        if span < tol:
            converged = True
            break
        if span < best_span * (1.0 - 1e-6):
            best_span = span
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                break
    else:
        raise ConvergenceError(
            f"relative value iteration did not converge within {max_iters} sweeps "
            f"(final span {hi - lo:.3e})"
        )
    # Greedy actions off the final Q table. Lower-numbered actions win ties;
    # the tie width scales with the Q magnitude because absolute 1e-12 is
    # below float resolution once costs reach ~1e4.
    bellman()
    actions = np.zeros(n, dtype=np.int8)
    best = q_by_action[0].copy()
    for a in range(1, n_actions):
        qa = q_by_action[a]
        finite = np.isfinite(qa)
        tie = 1e-12 + 1e-9 * np.maximum(np.abs(best), np.where(finite, np.abs(qa), 0.0))
        better = qa < best - tie
        actions[better] = a
        best = np.where(better, qa, best)
    zeta = (lo + hi) / 2.0
    return actions, float(zeta), float(hi - lo), iterations, converged


def policy_average_cost(mdp: FiniteAverageCostMdp, actions) -> float:
    """Exact long-run average cost of a fixed policy started at the reference state.

    Averages the one-stage costs under the stationary distribution of the
    closed class the induced chain reaches, found by subtraction-free
    elimination (`gth_stationary`). Stage costs near 1e15 weight tail
    probabilities near 1e-16, which a dense balance solve gets wrong in the
    leading digits. The induced chain is held as a dense S x S matrix.
    """
    actions = np.asarray(actions, dtype=int)
    states = np.arange(mdp.n_states)
    if not mdp.available[states, actions].all():
        raise ValueError("policy selects an unavailable action")
    p = np.zeros((mdp.n_states, mdp.n_states))
    for a, (idx, prob) in enumerate(mdp.transitions):
        chosen = actions == a
        np.add.at(p, (idx[chosen], states[chosen, None]), prob[chosen])
    return float(gth_stationary(p, start=mdp.ref) @ mdp.costs[states, actions])
