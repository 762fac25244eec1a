"""Average-cost MDP for a finite-state Markov channel, plus the
perfect-retransmission threshold search costed on its kernel.

States are (omega, q, xi): omega counts the pending round's attempts per gain
state, q is the age of the freshest delivered estimate, and xi is the current
gain index. Action 0 transmits a fresh estimate, action 1 retransmits the
pending one. Kernels, policies and policy files read their states from a
`Grid`. A constant-gain link is the one-state chain, so every static solve
runs here too and its policy keeps the ((r,), q, 0) labels.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product

import numpy as np

from .channel import MarkovChannel
from .errors import ConfigError, ConvergenceError, ModelError
from .harq_model import HarqModel, LinkErrors
from .lti_estimation import CostLadder
from .mdp_core import FiniteAverageCostMdp, policy_iteration, relative_value_iteration_cells
from .numerics import _reachable, gth_stationary, spectral_radius

__all__ = [
    "StabilityReport",
    "check_stability_markov",
    "Grid",
    "MarkovMdp",
    "Policy",
    "assemble_markov_mdp",
    "assemble_markov_cells",
    "build_markov_mdp",
    "solve_rvi_markov",
    "solve_rvi_cells",
    "SwitchingReport",
    "verify_switching_markov",
    "high_snr_markov",
    "HighSnrMarkovResult",
]


@dataclass(frozen=True)
class StabilityReport:
    """Sufficient-condition check: product < 1 guarantees a bounded-MSE policy
    exists; product >= 1 only means the guarantee is silent."""

    product: float
    stable: bool


def check_stability_markov(pi, lambdas, rho_sq_a: float) -> StabilityReport:
    """rho(Pi @ diag(worst retransmission errors)) times rho^2(A), verdict < 1.

    Pi @ diag(lambdas) is formed as pi * lambdas, which scales column j by
    lambdas[j] and is the same matrix bit for bit.
    """
    pi = np.asarray(pi, dtype=float)
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != pi.shape[-1:]:
        raise ValueError(f"need one lambda per gain state, got shape {lambdas.shape} for pi {pi.shape}")
    product_value = spectral_radius(pi * lambdas) * float(rho_sq_a)
    return StabilityReport(product=product_value, stable=product_value < 1.0)


def _counts(caps):
    """Every count vector up to caps, in lexicographic order, made one at a time."""
    if not caps:
        yield ()
        return
    for head in range(caps[0] + 1):
        for tail in _counts(caps[1:]):
            yield (head, *tail)


class Grid:
    """The truncated (omega, q, xi) state space over len(caps) gain states,
    in solver order.

    Omega k is the k-th nonzero count vector up to caps in lexicographic
    order, omegas[k]. Its block of states holds q from sums[k] to q_max and
    every xi, xi fastest, from state base[k] on; bump[k, i] is the omega with
    one more attempt under gain i, or -1 at the cap. State s has omega
    block[s], age q[s] and gain xi[s], and `number` maps a label back to s.
    Caps below 1 and q_max below sum(caps) are config errors.
    """

    def __init__(self, caps, q_max: int):
        self.n = Grid.count(caps, q_max)
        self.caps, self.q_max, self.b = tuple(int(c) for c in caps), q_max, len(caps)
        self.omegas = np.array(list(islice(_counts(self.caps), 1, None)))
        radix = np.array(self.caps) + 1
        # A count vector's mixed-radix value is its place among all of them,
        # the zero vector first.
        self._place = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
        self.sums = self.omegas.sum(axis=1)
        sizes = (q_max + 1 - self.sums) * self.b
        self.base = np.cumsum(sizes) - sizes
        k = np.arange(len(self.omegas))
        self.bump = np.where(self.omegas < self.caps, k[:, None] + self._place, -1)
        self.block = np.repeat(k, sizes)
        self.q, self.xi = np.divmod(np.arange(self.n) - self.base[self.block], self.b)
        self.q += self.sums[self.block]

    @staticmethod
    def count(caps, q_max: int) -> int:
        """The number of states, B ((q_max + 1)(N - 1) - N sum(caps) / 2) with
        N = prod(caps + 1), checked and counted without building the grid."""
        if min(caps) < 1:
            raise ConfigError("every omega cap must be at least 1")
        if q_max < sum(caps):
            raise ConfigError(f"q_max must be at least sum(omega_caps) = {sum(caps)}")
        n = math.prod(c + 1 for c in caps)
        return len(caps) * ((q_max + 1) * (n - 1) - n * sum(caps) // 2)

    @cached_property
    def states(self) -> tuple:
        """Every state's (omega, q, xi) label, in solver order; built on first use."""
        return tuple(
            (omega, q, xi)
            for omega in islice(_counts(self.caps), 1, None)
            for q in range(sum(omega), self.q_max + 1)
            for xi in range(self.b)
        )

    def number(self, omega, q, xi):
        """The number of state (omega, q, xi). Arrays broadcast, with each
        omega's counts along the last axis."""
        k = np.dot(omega, self._place) - 1
        return self.base[k] + (q - self.sums[k]) * self.b + xi


@dataclass(frozen=True, eq=False)
class MarkovMdp:
    """The kernel and costs of a grid's states."""

    core: FiniteAverageCostMdp
    grid: Grid
    channel: MarkovChannel
    cost_mode: str
    ladder: CostLadder

    @property
    def states(self) -> tuple:
        return self.grid.states


@dataclass(frozen=True, eq=False)
class Policy:
    """One action per state of `grid`, in solver order, for a link of these
    gains, plus the solve that produced it."""

    actions: np.ndarray
    grid: Grid
    gains: tuple
    zeta: float
    span: float
    iterations: int
    converged: bool
    cost_mode: str = "mse"


def build_markov_mdp(
    harq: HarqModel,
    ch: MarkovChannel,
    ladder: CostLadder,
    omega_caps,
    q_max: int,
    cost_mode: str = "mse",
) -> MarkovMdp:
    """Truncated MDP with error probabilities taken from the link model."""
    attempt_error = LinkErrors(harq, ch.gains).attempt
    return assemble_markov_mdp(attempt_error, ch, ladder, omega_caps, q_max, cost_mode)


def assemble_markov_mdp(
    attempt_error,
    ch: MarkovChannel,
    ladder: CostLadder,
    omega_caps,
    q_max: int,
    cost_mode: str = "mse",
) -> MarkovMdp:
    """The kernel of one link on the grid of omega_caps and q_max: the
    one-cell case of `assemble_markov_cells`."""
    (mdp,) = assemble_markov_cells([attempt_error], ch, ladder, omega_caps, q_max, cost_mode)
    return mdp


def assemble_markov_cells(
    attempt_errors,
    ch: MarkovChannel,
    ladder: CostLadder,
    omega_caps,
    q_max: int,
    cost_mode: str = "mse",
) -> list:
    """Assemble one kernel per link model, the cells, on the grid of
    omega_caps and q_max.

    attempt_error(omega, xi), one per cell, is the error probability of an
    attempt under gain index xi after a round that buffered the attempts
    omega (all zeros for a fresh transmission); each is called once per
    pair, cell by cell. Truncation: omega is capped per gain state, q is
    clamped at q_max on failure, and a retransmission is unavailable when it
    would push the current gain's count past its cap. A retransmission
    success lands at age sum(omega) + 1, at most sum(omega_caps), so q_max
    >= sum(omega_caps) keeps it on the grid.

    Which rows exist, where they lead, what they cost and which row each
    (action, state) takes depend on the grid, the channel and the cost mode
    alone, so the cells share one grid and one idx, cost, where and ref,
    written once; each cell has its own prob. That is the stack
    `relative_value_iteration_cells` sweeps in lockstep.
    """
    b = ch.size
    if len(omega_caps) != b:
        raise ConfigError(f"omega_caps has {len(omega_caps)} entries, channel has {b} states")
    grid = Grid(omega_caps, q_max)
    if cost_mode not in ("mse", "delay"):
        raise ConfigError(f"cost_mode must be 'mse' or 'delay', got {cost_mode!r}")
    ladder = ladder.extended(q_max)
    block, q, xi = grid.block, grid.q, grid.xi
    allowed = grid.bump >= 0  # per (omega, xi): whether a retransmission may follow
    retx = np.flatnonzero(allowed[block, xi])
    retx_block, retx_xi = block[retx], xi[retx]

    # The rows: a fresh transmission's per (q, xi), at (q - 1) * b + xi;
    # then one retransmission row per state that may retransmit; then one
    # inf row, taken by every state that may not.
    fresh_q, fresh_xi = np.divmod(np.arange(q_max * b), b)
    fresh_q += 1
    row_q = np.concatenate([fresh_q, q[retx]])
    row_xi = np.concatenate([fresh_xi, retx_xi])
    # Per row: the counts it leads to and the success age.
    units = np.eye(b, dtype=np.int64)
    target = np.concatenate([units[fresh_xi], grid.omegas[grid.bump[retx_block, retx_xi]]])
    q_success = np.concatenate([np.ones_like(fresh_q), grid.sums[retx_block] + 1])
    # Row r lists (success, failure) successors per next gain index.
    target, next_xi = target[:, None, :], np.arange(b)
    idx = np.zeros((len(row_q) + 1, 2 * b), dtype=np.int64)
    idx[:-1, 0::2] = grid.number(target, q_success[:, None], next_xi)
    idx[:-1, 1::2] = grid.number(target, np.minimum(row_q + 1, q_max)[:, None], next_xi)
    if cost_mode == "mse":
        stage = np.array([ladder.trace(age) for age in range(1, q_max + 1)])[row_q - 1]
    else:
        stage = row_q.astype(float)
    cost = np.append(stage, np.inf)
    where = np.full((2, grid.n), len(row_q), dtype=np.int64)
    where[0] = (q - 1) * b + xi
    where[1, retx] = len(fresh_q) + np.arange(len(retx))
    ref = int(grid.number((1,) + (0,) * (b - 1), 1, 0))

    pi_from = ch.pi.T[row_xi]  # pi[xn, xi] in column xn
    omegas = list(map(tuple, grid.omegas.tolist()))
    bumps = np.argwhere(allowed).tolist()
    cells = []
    for attempt_error in attempt_errors:
        fresh_error = np.array([attempt_error((0,) * b, i) for i in range(b)])
        # Per (omega, xi): the error of a retransmission, where the cap allows one.
        bump_error = np.zeros(allowed.shape)
        bump_error[allowed] = [attempt_error(omegas[k], i) for k, i in bumps]
        # Per row: the attempt error.
        g = np.concatenate([fresh_error[fresh_xi], bump_error[retx_block, retx_xi]])
        prob = np.zeros(idx.shape)
        prob[:-1, 0::2] = pi_from * (1.0 - g)[:, None]
        prob[:-1, 1::2] = pi_from * g[:, None]
        core = FiniteAverageCostMdp(idx=idx, prob=prob, cost=cost, where=where, ref=ref)
        cells.append(MarkovMdp(core=core, grid=grid, channel=ch, cost_mode=cost_mode, ladder=ladder))
    return cells


def solve_rvi_markov(mdp: MarkovMdp, tol: float = 1e-9, max_iters: int = 100_000) -> Policy:
    """Relative value iteration with reference state (unit omega at gain 0,
    q=1, xi=0): the one-cell case of `solve_rvi_cells`. Raises
    ConvergenceError when RVI runs out of max_iters sweeps."""
    (policy,) = solve_rvi_cells([mdp], tol, max_iters)
    return policy


def solve_rvi_cells(mdps, tol: float = 1e-9, max_iters: int = 100_000):
    """Solve the cells of `assemble_markov_cells` by relative value
    iteration in lockstep, then yield each cell's Policy in cell order.

    When a cell's RVI stops because its rate cannot reach tol within
    max_iters, Howard policy iteration finishes from its greedy policy: the
    reported zeta is then the exact cost of the returned actions, the span
    is that of the final relative values, and the iterations count sweeps
    plus policy steps. That hand-over, and the ConvergenceError of a cell
    that ran out of sweeps, come at the cell's turn, after every cell before
    it has been yielded.
    """
    mdps = list(mdps)
    outcomes = relative_value_iteration_cells([mdp.core for mdp in mdps], tol=tol, max_iters=max_iters)
    for mdp, outcome in zip(mdps, outcomes):
        if isinstance(outcome, ConvergenceError):
            raise outcome
        actions, zeta, span, iterations, converged, stop = outcome
        if stop == "slow":
            actions, zeta, span, steps = policy_iteration(mdp.core, actions)
            iterations, converged = iterations + steps, True
        yield Policy(
            actions=actions,
            grid=mdp.grid,
            gains=mdp.channel.gains,
            zeta=zeta,
            span=span,
            iterations=iterations,
            converged=converged,
            cost_mode=mdp.cost_mode,
        )


@dataclass(frozen=True)
class SwitchingReport:
    passed: bool
    violations: tuple


def verify_switching_markov(policy: Policy) -> SwitchingReport:
    """Threshold structure on the (omega, q, xi) grid.

    (i) action 0 at (omega, q, xi) forces action 0 at (omega + z * unit_i, q, xi);
    (ii) action 1 at (omega, q, xi) forces action 1 at (omega, q + z, xi).
    Immediate neighbors suffice: in-grid segments along each direction are
    contiguous. Violations are listed by state, then direction.
    """
    grid, actions = policy.grid, np.asarray(policy.actions)
    block, q, xi = grid.block, grid.q, grid.xi
    # Per direction (an attempt more under gain i, then a slot more of age): the
    # states it binds, their neighbors' omegas and ages, and the action forced there.
    moves = [((actions == 0) & (up >= 0) & (q > grid.sums[block]), up, q, 0) for up in grid.bump[block].T]
    moves.append(((actions == 1) & (q < grid.q_max), block, q + 1, 1))
    found = []  # (state, direction, neighbor)
    for direction, (binds, to, to_q, forced) in enumerate(moves):
        s = np.flatnonzero(binds)
        t = grid.number(grid.omegas[to[s]], to_q[s], xi[s])
        bad = actions[t] != forced
        found += [(u, direction, v) for u, v in zip(s[bad].tolist(), t[bad].tolist())]
    states = grid.states if found else ()
    violations = tuple((states[s], states[t]) for s, _, t in sorted(found))
    return SwitchingReport(passed=not violations, violations=violations)


@dataclass(frozen=True)
class HighSnrMarkovResult:
    theta_star: tuple
    zeta_star: float
    evaluated: dict  # thetas -> zeta


def high_snr_markov(
    ladder: CostLadder, ch: MarkovChannel, lambda_primes, theta_max_search: int = 8
) -> HighSnrMarkovResult:
    """Exhaustive threshold-vector search over {1..theta_max_search}^B.

    A fresh attempt under gain xi fails with lambda_primes[xi], possibly 1,
    and a retransmission never fails. The table of thetas retransmits exactly
    at round length 1 once q > thetas[xi]. It is costed on the MDP's own
    kernel for that link, whose caps (2,) * B and q_max = max(2B,
    theta_max_search + 2) hold every round and age it reaches. There a
    state's future depends on (sum(omega), q, xi) alone, so the chain is
    lumped onto one state per class (Kemeny and Snell, Finite Markov Chains,
    1960). Every table's chain is eliminated by GTH toward the reference
    state's class in one stacked call. The first minimizer in lexicographic
    order wins ties.
    """
    tables, chains, costs, ref = _threshold_chains(ladder, ch, lambda_primes, theta_max_search)
    zetas = gth_stationary(chains, start=ref) @ costs
    best = int(np.argmin(zetas))  # the first minimizer
    evaluated = dict(zip(tables, zetas.tolist()))
    return HighSnrMarkovResult(
        theta_star=tables[best], zeta_star=evaluated[tables[best]], evaluated=evaluated
    )


def _threshold_chains(ladder: CostLadder, ch: MarkovChannel, lambda_primes, theta_max_search: int):
    """The lumped chains `high_snr_markov` costs, as (tables, chains, costs, ref).

    tables lists the threshold vectors in lexicographic order. chains[t] is
    table t's column-stochastic chain on the classes that some table reaches
    from the reference class, in class order; costs holds their stage costs,
    and ref is the reference class's place among them.
    """
    if theta_max_search < 1:
        raise ValueError("theta_max_search must be at least 1")
    b = ch.size
    lam = tuple(float(v) for v in lambda_primes)
    if len(lam) != b:
        raise ModelError("lambda_primes must have one entry per gain state")
    if any(not 0.0 <= v <= 1.0 for v in lam):
        raise ModelError("lambda_primes must lie in [0, 1]")

    def attempt_error(omega, xi):
        return 0.0 if any(omega) else lam[xi]

    mdp = assemble_markov_mdp(attempt_error, ch, ladder, (2,) * b, max(2 * b, theta_max_search + 2))
    grid = mdp.grid
    # Classes are (r, q, xi) with r = sum(omega), numbered in order of their
    # first state. Omegas come in lexicographic order, so every omega before
    # the first one of length r is shorter: that order is (r, q, xi) order.
    sizes = (grid.q_max + 1 - np.arange(1, sum(grid.caps) + 1)) * b
    r = grid.sums[grid.block]
    cls = (np.cumsum(sizes) - sizes)[r - 1] + (grid.q - r) * b + grid.xi
    m = int(sizes.sum())
    reps = np.searchsorted(np.maximum.accumulate(cls), np.arange(m))  # each class's first state
    r, q, xi = r[reps], grid.q[reps], grid.xi[reps]
    ref = cls[mdp.core.ref]
    tables = list(product(range(1, theta_max_search + 1), repeat=b))
    retx = (r == 1) & (q > np.array(tables)[:, xi])  # [table, class]: retransmit there
    # Per action: each class's successor classes and their probabilities.
    (fresh_to, fresh_p), (retx_to, retx_p) = [
        (cls[mdp.core.idx[rows]], mdp.core.prob[rows]) for rows in mdp.core.where[:, reps]
    ]
    # Keep the classes some table reaches from the reference class.
    to = np.concatenate([fresh_to, retx_to], axis=1)
    used = np.concatenate(
        [(fresh_p > 0.0) & ~retx.all(axis=0)[:, None], (retx_p > 0.0) & retx.any(axis=0)[:, None]],
        axis=1,
    )

    def successors(frontier):
        out = np.zeros(m, dtype=bool)
        out[to[frontier][used[frontier]]] = True
        return out

    keep = np.flatnonzero(_reachable(successors, np.arange(m) == ref))
    # A kept class steps outside `keep` only with probability 0, and place
    # sends that step to class 0, where adding 0.0 changes nothing.
    place = np.zeros(m, dtype=np.int64)
    place[keep] = np.arange(len(keep))
    n = len(keep)
    at_retx = retx[:, keep, None]
    to = np.where(at_retx, place[retx_to[keep]], place[fresh_to[keep]])
    p = np.where(at_retx, retx_p[keep], fresh_p[keep])
    # Flat (table, successor, class) positions; duplicates add up in order.
    at = (np.arange(len(tables))[:, None, None] * n + to) * n + np.arange(n)[:, None]
    chains = np.bincount(at.ravel(), p.ravel(), len(tables) * n * n).reshape(-1, n, n)
    costs = mdp.core.cost[mdp.core.where[0, reps[keep]]]
    return tables, chains, costs, int(place[ref])
