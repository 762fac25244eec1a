"""Generic finite average-cost MDP machinery: relative value iteration,
run in lockstep over cells that differ only in their probabilities, Howard
policy iteration and exact policy evaluation.

The transition kernel is stored as its distinct rows: fixed-width (successor
index, probability) arrays and a cost per row, with where[a, s] naming the
row that action a takes at state s. Rows that several (state, action) pairs
share are stored once, and an unavailable action points at a row whose cost
is inf. A Bellman sweep computes Q on the rows and expands it with one
gather. On the retransmission grids the builder writes the fresh action's
row once per (q, xi), which is all it depends on, and one inf row for every
state that may not retransmit: 230 rows for the 420 (state, action) pairs of
the static 10 dB grid, 299 of 656 on the fading 10 dB grid and 3383 of 7328
on the fading (8, 8), q_max 30 grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ModelError
from .numerics import first_passage_cost

__all__ = [
    "FiniteAverageCostMdp",
    "relative_value_iteration",
    "relative_value_iteration_cells",
    "policy_iteration",
    "policy_average_cost",
]


@dataclass(frozen=True, eq=False)
class FiniteAverageCostMdp:
    """Row r moves to idx[r, k] with probability prob[r, k] and costs
    cost[r]; idx and prob have shape (R, K). where[a, s] is the row of action
    a at state s, and an action is unavailable where its row costs inf."""

    idx: np.ndarray
    prob: np.ndarray
    cost: np.ndarray
    where: np.ndarray
    ref: int = 0

    @property
    def n_states(self) -> int:
        return self.where.shape[1]

    @property
    def n_actions(self) -> int:
        return self.where.shape[0]

    @property
    def available(self) -> np.ndarray:
        """available[s, a]: whether action a may be taken at state s."""
        return np.isfinite(self.cost[self.where]).T


# Sweeps without a better span before the plateau stop, and the length of
# the windows the slow stop compares.
PATIENCE = 500


def relative_value_iteration(mdp: FiniteAverageCostMdp, tol: float = 1e-9, max_iters: int = 100_000):
    """Relative value iteration on one MDP: the one-cell case of
    `relative_value_iteration_cells`, whose stop rules it follows. Raises
    ConvergenceError when max_iters sweeps pass without a stop.

    Returns (actions, zeta, span, iterations, converged, stop).
    """
    (outcome,) = relative_value_iteration_cells([mdp], tol, max_iters)
    return outcome


def _stop_rules(tol, max_iters):
    """One cell's stop rules, as a generator. It is sent (lo, hi, v) after
    each sweep, where v is the cell's row of values that sweep left, and
    returns (stop, iterations) when the cell stops; stop is None when
    max_iters sweeps passed without one."""
    best_span = math.inf
    stall = 0
    missed = 0  # the last sweep that did not improve the span
    window_span = None  # the span at the last multiple of PATIENCE sweeps
    iterations = 0
    # First-repeat cycle detection on the exact bits of v: every sweep since
    # the last improving one files hash(v) -> sweep number, so the table
    # never holds more than PATIENCE entries. A hash filed p sweeps ago
    # makes v a candidate, confirmed when v equals it bit for bit p sweeps
    # later (bytes still tell -0.0 from 0.0).
    filed = {}
    held = None  # the bytes of a candidate v
    confirm_at = 0
    while iterations < max_iters:
        lo, hi, v = yield
        iterations += 1
        span = 2.0 * (hi - lo)
        if span < tol:
            return "tol", iterations
        if span < best_span * (1.0 - 1e-6):
            best_span = span
            stall = 0
            filed.clear()
            held, confirm_at = None, 0
        else:
            missed = iterations
            stall += 1
            if iterations == confirm_at:
                if v.tobytes() == held:
                    # v repeats with period p, so every later sweep repeats
                    # one already made and none improves the span. Skipping
                    # whole periods leaves v, lo and hi as they are now.
                    jump = min(PATIENCE - stall, max_iters - iterations) // period * period
                    iterations += jump
                    stall += jump
                    missed = iterations
                held = None
            elif held is None:
                key = hash(v.tobytes())
                first = filed.get(key)
                if first is not None:
                    period = iterations - first
                    held, confirm_at = v.tobytes(), iterations + period
                filed[key] = iterations
            if stall >= PATIENCE:
                return "plateau", iterations
        if iterations % PATIENCE == 0:
            if window_span is not None and iterations - missed >= PATIENCE and (
                tol <= 0.0
                or iterations + PATIENCE * math.log(tol / span) / math.log(span / window_span)
                > max_iters
            ):
                return "slow", iterations
            window_span = span
    return None, iterations


def relative_value_iteration_cells(cells, tol: float = 1e-9, max_iters: int = 100_000) -> list:
    """Span-seminorm relative value iteration for the long-run average cost
    of each cell, run in lockstep.

    The cells are MDPs that share idx, cost, where and ref and differ only
    in prob, as the cells of one link's sweep do. Each sweep of the loop
    makes one gather, one einsum, one gather back to the (actions, states)
    table and one minimum over the concatenated rows of every cell still
    running. Each row reduces only its own products, so every cell's
    iterates are those of its own solve, bit for bit. Each cell keeps its
    own counters, stop, cycle jump and budget, takes its greedy pass when
    it stops, and then leaves the stack. A lone MDP is a stack of one.

    Each sweep is damped: v becomes tau * T v + (1 - tau) * v with tau = 1/2,
    which is plain RVI on the kernel tau * P + (1 - tau) * I with costs
    tau * c (Schweitzer's aperiodicity transformation, J. Math. Anal. Appl.
    34, 1971; Puterman, Markov Decision Processes, ch. 8.5). Every state now
    keeps a self-loop, so the iterates converge where an optimal chain is
    periodic: a delivery resets the age, and a link that fails every fresh
    packet but delivers every retransmission makes plain RVI cycle forever.
    The transformation keeps the optimal policies and scales the gain and
    the span of the value differences by tau, so both are reported divided
    by tau, which in float64 is exact; tol bounds that undamped span.

    A cell stops for one of three reasons, returned as `stop`:
    - "tol": the span of successive value differences dropped below tol;
    - "plateau": the span stopped improving for PATIENCE (500) sweeps (the
      float64 noise floor for value functions spanning many orders of
      magnitude);
    - "slow": each of the last PATIENCE sweeps improved the span, but at
      the geometric rate of that window, span / (span PATIENCE sweeps
      ago), reaching tol would take more than max_iters sweeps in all. The
      windows end at multiples of PATIENCE sweeps, so this stop fires at
      the earliest after 2 * PATIENCE sweeps.
    The midpoint of the final difference bounds estimates the gain; the span
    is its certified error bar. The greedy pass reads the undamped Q, whose
    argmin is the damped one's. Once a cell's v repeats bit for bit, the
    sweeps that could only repeat earlier ones are counted without being
    run, which changes no output.

    Returns one outcome per cell, in order: (actions, zeta, span,
    iterations, converged, stop). Raises the ConvergenceError of the first
    cell, in cell order, whose max_iters sweeps passed without a stop, the
    error that cell's own solve raises.
    """
    cells = list(cells)
    outcomes = [None] * len(cells)
    failures = []
    first = cells[0]
    if not first.available.any(axis=1).all():
        raise ValueError("every state needs at least one available action")
    idx, cost, where, ref = first.idx, first.cost, first.where, first.ref
    if any(
        cell.ref != ref or not all(map(np.array_equal, (cell.idx, cell.cost, cell.where), (idx, cost, where)))
        for cell in cells[1:]
    ):
        raise ValueError("cells must share idx, cost, where and ref")
    n, rows = first.n_states, len(cost)
    einsum, add, subtract, multiply = np.einsum, np.add, np.subtract, np.multiply
    min_reduce, max_reduce = np.minimum.reduce, np.maximum.reduce

    def leave(number, v, stop, iterations, lo, hi):
        """Record the outcome of cell `number`, which stopped, or ran out of
        sweeps (stop None), after a last sweep that left its values v and
        whose differences lay in [lo, hi]."""
        if stop is None:
            failures.append((number, f"relative value iteration did not converge within {max_iters} sweeps "
                                     f"(final span {2.0 * (hi - lo):.3e})"))
            return
        # Greedy actions off the final undamped Q table; lower-numbered actions win ties.
        q = einsum("sk,sk->s", cells[number].prob, v[idx])
        q += cost
        actions = _improve(q[where], np.zeros(n, dtype=np.int8))
        outcomes[number] = (actions, lo + hi, 2.0 * (hi - lo), iterations, stop == "tol", stop)

    live = []
    for number in range(len(cells)):
        send = _stop_rules(tol, max_iters).send
        try:
            send(None)
        except StopIteration as end:  # a budget below one sweep
            leave(number, None, *end.value, 0.0, 0.0)
        else:
            live.append((number, send))
    v = np.zeros((len(live), n))
    while live:
        # The stack of the cells still running, in cell order: row r of the
        # c-th is row c * rows + r, and its state s is state c * n + s.
        m = len(live)
        stack_idx = (idx + (np.arange(m) * n)[:, None, None]).reshape(m * rows, -1)
        stack_prob = np.concatenate([cells[number].prob for number, _ in live])
        stack_cost = np.tile(cost, m)
        stack_where = (where[:, None, :] + (np.arange(m) * rows)[:, None]).reshape(len(where), m * n)
        flat = v.reshape(-1)
        q = np.empty(m * rows)
        tv = np.empty((m, n))
        diff = np.empty((m, n))
        flat_tv, flat_diff = tv.reshape(-1), diff.reshape(-1)
        ref_tv = tv[:, ref, None]
        ends = np.empty((2, m))
        lowest, highest = ends
        running = [(number, send, row) for (number, send), row in zip(live, v)]
        gone = []
        while not gone:
            # Keep this einsum: from width 3 on its row sum differs from a
            # left-to-right sum of products, so a column-wise sum would move
            # the iterates in the last bit. Each output row reduces its own K
            # products in an order set by K alone, so bit-equal rows give
            # bit-equal Q, one copy of each row is enough, and the rows of
            # many cells may be swept as one table.
            einsum("sk,sk->s", stack_prob, flat[stack_idx], out=q)
            add(q, stack_cost, out=q)
            min_reduce(q[stack_where], axis=0, out=flat_tv)
            add(flat_tv, flat, out=flat_tv)
            multiply(flat_tv, 0.5, out=flat_tv)  # the damped sweep (T v + v) / 2
            subtract(flat_tv, flat, out=flat_diff)
            subtract(tv, ref_tv, out=v)
            min_reduce(diff, axis=1, out=lowest)
            max_reduce(diff, axis=1, out=highest)
            lows, highs = ends.tolist()
            for (number, send, row), lo, hi in zip(running, lows, highs):
                try:
                    send((lo, hi, row))
                except StopIteration as end:
                    leave(number, row, *end.value, lo, hi)
                    gone.append(number)
        keep = [place for place, (number, _) in enumerate(live) if number not in gone]
        v = v[keep]
        live = [live[place] for place in keep]
    if failures:
        raise ConvergenceError(min(failures)[1])
    return outcomes


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
    graph = _successor_graph(mdp)

    def evaluate(policy):
        zeta, h = _evaluate(mdp, policy, graph)
        if np.isnan(h).any():
            raise ModelError("policy iteration needs every state to reach the recurrent class")
        return zeta, h

    actions = _checked(mdp, actions).astype(np.int8)
    zeta, h = evaluate(actions)
    steps = 0
    while True:
        q_by_action = (mdp.cost + np.einsum("sk,sk->s", mdp.prob, h[mdp.idx]))[mdp.where]
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
    """(S, A * K) successors of every state under its available actions; an
    unavailable action leads a state to itself."""
    states = np.arange(mdp.n_states)[:, None]
    return np.concatenate(
        [np.where(np.isfinite(mdp.cost[rows])[:, None], mdp.idx[rows], states) for rows in mdp.where],
        axis=1,
    )


def _checked(mdp: FiniteAverageCostMdp, actions) -> np.ndarray:
    """`actions` as integers, checked to hold one action in 0..n_actions - 1 per state."""
    given = np.asarray(actions)
    with np.errstate(invalid="ignore"):
        actions = given.astype(np.int64)
    if given.shape != (mdp.n_states,) or (actions != given).any():
        raise ValueError(f"need one integer action per state, {mdp.n_states} in all")
    if ((actions < 0) | (actions >= mdp.n_actions)).any():
        raise ValueError(f"policy actions must lie in 0..{mdp.n_actions - 1}")
    return actions


def _evaluate(mdp: FiniteAverageCostMdp, actions, graph):
    """(zeta, h) of the chain a policy induces, by `first_passage_cost`."""
    rows = mdp.where[_checked(mdp, actions), np.arange(mdp.n_states)]
    if not np.isfinite(mdp.cost[rows]).all():
        raise ValueError("policy selects an unavailable action")
    return first_passage_cost(mdp.idx[rows], mdp.prob[rows], mdp.cost[rows], mdp.ref, graph)
