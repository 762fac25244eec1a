"""Generic finite average-cost MDP machinery: relative value iteration,
Howard policy iteration and exact policy evaluation.

The transition kernel is stored per action as fixed-width (successor index,
probability) arrays, which keeps the Bellman sweep fully vectorized. Both the
retransmission MDPs and the random instances used for solver validation fit
this shape.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ModelError
from .numerics import first_passage_cost

__all__ = [
    "FiniteAverageCostMdp",
    "Policy",
    "relative_value_iteration",
    "policy_iteration",
    "policy_average_cost",
]


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

    Stops for one of three reasons, returned as `stop`:
    - "tol": the span of successive value differences dropped below tol;
    - "plateau": the span stopped improving for `patience` sweeps (the
      float64 noise floor for value functions spanning many orders of
      magnitude);
    - "slow": each of the last `patience` sweeps improved the span, but at
      the geometric rate of that window, span / (span `patience` sweeps
      ago), reaching tol would take more than max_iters sweeps in all. The
      windows end at multiples of `patience` sweeps, so this stop fires at
      the earliest after 2 * patience sweeps.
    The midpoint of the final difference bounds estimates the gain; the span
    is its certified error bar. Raises ConvergenceError when max_iters
    sweeps pass without a stop. Once v repeats bit for bit, the sweeps that
    could only repeat earlier ones are counted without being run, which
    changes no output.

    Returns (actions, zeta, span, iterations, converged, stop).
    """
    n = mdp.n_states
    if not mdp.available.any(axis=1).all():
        raise ValueError("every state needs at least one available action")
    idx, prob, costs = _stacked(mdp)
    v = np.zeros(n)
    q = np.empty(len(costs))
    q_by_action = q.reshape(mdp.n_actions, n)
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
    missed = 0  # the last sweep that did not improve the span
    window_span = None  # the span at the last multiple of patience sweeps
    stop = None
    lo = hi = 0.0
    iterations = 0
    # Brent's cycle detection on the exact bits of v: the anchor is v after
    # the last power-of-two sweep count.
    bits = v.view(np.int64)
    anchor = bits.copy()
    anchored = 0
    while iterations < max_iters:
        iterations += 1
        bellman()
        np.minimum.reduce(q_by_action, axis=0, out=tv)
        np.subtract(tv, v, out=diff)
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        np.subtract(tv, tv[mdp.ref], out=v)
        if span < tol:
            stop = "tol"
            break
        if span < best_span * (1.0 - 1e-6):
            best_span = span
            stall = 0
        else:
            missed = iterations
            stall += 1
            if np.array_equal(bits, anchor):
                # v repeats with period p, so every later sweep repeats one
                # already made and none improves the span. Skipping whole
                # periods leaves v, lo and hi as they are now.
                period = iterations - anchored
                jump = min(patience - stall, max_iters - iterations) // period * period
                iterations += jump
                stall += jump
                missed = iterations
            if stall >= patience:
                stop = "plateau"
                break
        if iterations & (iterations - 1) == 0:
            anchor[:] = bits
            anchored = iterations
        if iterations % patience == 0:
            if window_span is not None and iterations - missed >= patience and (
                tol <= 0.0
                or iterations + patience * math.log(tol / span) / math.log(span / window_span)
                > max_iters
            ):
                stop = "slow"
                break
            window_span = span
    else:
        raise ConvergenceError(
            f"relative value iteration did not converge within {max_iters} sweeps "
            f"(final span {hi - lo:.3e})"
        )
    # Greedy actions off the final Q table; lower-numbered actions win ties.
    bellman()
    actions = _improve(q_by_action, np.zeros(n, dtype=np.int8))
    zeta = (lo + hi) / 2.0
    return actions, float(zeta), float(hi - lo), iterations, stop == "tol", stop


def policy_iteration(mdp: FiniteAverageCostMdp, actions):
    """Howard policy iteration (Puterman, Markov Decision Processes, ch. 8-9)
    from the policy `actions`.

    Each policy is evaluated exactly by `first_passage_cost`, and improved
    by the greedy pass of `relative_value_iteration`, which switches an
    action only when another one is better by more than the tie width. The
    iteration stops when nothing switches, or when an improved policy's cost
    does not strictly decrease, which returns the policy before it (rounding
    can make Q claim a gain that the exact cost does not show).

    Returns (actions, zeta, span, steps): the exact cost of the returned
    policy; the span max(Th - h) - min(Th - h) of its relative values h,
    whose bounds enclose the optimal cost; and the number of improved
    policies evaluated. Raises ModelError when some state may never reach
    the chain's recurrent class under a policy it evaluates.
    """
    idx, prob, costs = _stacked(mdp)
    graph = _successor_graph(mdp)

    def evaluate(policy):
        zeta, h = _evaluate(mdp, policy, graph)
        if np.isnan(h).any():
            raise ModelError("policy iteration needs every state to reach the recurrent class")
        return zeta, h

    actions = np.asarray(actions, dtype=np.int8)
    zeta, h = evaluate(actions)
    steps = 0
    while True:
        q_by_action = (costs + np.einsum("sk,sk->s", prob, h[idx])).reshape(mdp.n_actions, -1)
        th_h = q_by_action.min(axis=0) - h
        better = _improve(q_by_action, actions)
        if np.array_equal(better, actions):
            break
        steps += 1
        better_zeta, better_h = evaluate(better)
        if not better_zeta < zeta:
            break
        actions, zeta, h = better, better_zeta, better_h
    return actions, zeta, float(th_h.max() - th_h.min()), steps


def policy_average_cost(mdp: FiniteAverageCostMdp, actions) -> float:
    """Exact long-run average cost of a fixed policy started at the reference state.

    The renewal ratio of `first_passage_cost` over the closed class the
    induced chain reaches. Its elimination only adds, multiplies and divides
    nonnegative numbers: stage costs near 1e15 weight tail probabilities
    near 1e-16, which a dense balance solve gets wrong in the leading digits.
    """
    return _evaluate(mdp, actions, _successor_graph(mdp))[0]


def _stacked(mdp: FiniteAverageCostMdp):
    """Every action's kernel rows stacked: row a * n + s holds (s, a), so one
    gather and one einsum make a Bellman sweep. An unavailable action costs
    inf, which its kernel row cannot change."""
    idx = np.concatenate([idx_a for idx_a, _ in mdp.transitions])
    prob = np.concatenate([prob_a for _, prob_a in mdp.transitions])
    costs = np.where(mdp.available, mdp.costs, np.inf).T.ravel()
    return idx, prob, costs


def _improve(q_by_action, actions) -> np.ndarray:
    """Greedy pass over a Q table from `actions`: an action switches only to
    one whose Q is lower by more than the tie width, and earlier actions are
    tried first. The tie width scales with the Q magnitude because absolute
    1e-12 is below float resolution once costs reach ~1e4. An unavailable
    action's inf adds no width, so any available action beats it."""
    actions = actions.copy()
    best = q_by_action[actions, np.arange(len(actions))]
    for a, qa in enumerate(q_by_action):
        magnitude = np.maximum(np.where(np.isfinite(best), np.abs(best), 0.0),
                               np.where(np.isfinite(qa), np.abs(qa), 0.0))
        tie = 1e-12 + 1e-9 * magnitude
        better = qa < best - tie
        actions[better] = a
        best = np.where(better, qa, best)
    return actions


def _successor_graph(mdp: FiniteAverageCostMdp) -> np.ndarray:
    """(S, A * K) successors of every state under its available actions."""
    states = np.arange(mdp.n_states)[:, None]
    return np.concatenate(
        [np.where(mdp.available[:, a, None], idx, states) for a, (idx, _) in enumerate(mdp.transitions)],
        axis=1,
    )


def _evaluate(mdp: FiniteAverageCostMdp, actions, graph):
    """(zeta, h) of the chain a policy induces, by `first_passage_cost`."""
    actions = np.asarray(actions, dtype=int)
    states = np.arange(mdp.n_states)
    if not mdp.available[states, actions].all():
        raise ValueError("policy selects an unavailable action")
    succ = np.stack([idx for idx, _ in mdp.transitions])[actions, states]
    prob = np.stack([prob for _, prob in mdp.transitions])[actions, states]
    return first_passage_cost(succ, prob, mdp.costs[states, actions], mdp.ref, graph)
