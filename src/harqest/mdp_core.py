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
    """costs[s, a]; transitions[a] = (idx, prob) arrays of shape (S, K_a);
    available[s, a] masks actions that are forbidden at a state."""

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
    v = np.zeros(n)
    q = np.empty((n, n_actions))
    best_span = np.inf
    stall = 0
    converged = False
    lo = hi = 0.0
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        for a in range(n_actions):
            idx, prob = mdp.transitions[a]
            q[:, a] = mdp.costs[:, a] + np.einsum("sk,sk->s", prob, v[idx])
        q[~mdp.available] = np.inf
        tv = q.min(axis=1)
        diff = tv - v
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        v = tv - tv[mdp.ref]
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
    for a in range(n_actions):
        idx, prob = mdp.transitions[a]
        q[:, a] = mdp.costs[:, a] + np.einsum("sk,sk->s", prob, v[idx])
    q[~mdp.available] = np.inf
    actions = np.zeros(n, dtype=np.int8)
    best = q[:, 0].copy()
    for a in range(1, n_actions):
        finite = np.isfinite(q[:, a])
        tie = 1e-12 + 1e-9 * np.maximum(np.abs(best), np.where(finite, np.abs(q[:, a]), 0.0))
        better = q[:, a] < best - tie
        actions[better] = a
        best = np.where(better, q[:, a], best)
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
