"""Average-cost MDP for a finite-state Markov channel, plus the
perfect-retransmission reduced chain and its average cost.

States are (omega, q, xi): omega counts the pending round's attempts per gain
state, q is the age of the freshest delivered estimate, and xi is the current
gain index. Action 0 transmits a fresh estimate, action 1 retransmits the
pending one. A constant-gain link is the one-state chain, so every static
solve runs here too and its policy keeps the ((r,), q, 0) labels.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channel import MarkovChannel
from .errors import ConfigError, ModelError
from .harq_model import HarqModel, conditional_error_prob
from .lti_estimation import CostLadder
from .mdp_core import FiniteAverageCostMdp, Policy, policy_iteration, relative_value_iteration
from .numerics import gth_stationary, spectral_radius

__all__ = [
    "StabilityReport",
    "check_stability_markov",
    "MarkovMdp",
    "truncated_grid",
    "assemble_markov_mdp",
    "build_markov_mdp",
    "solve_rvi_markov",
    "SwitchingReport",
    "verify_switching_markov",
    "HighSnrChain",
    "build_high_snr_chain",
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


@dataclass(frozen=True, eq=False)
class MarkovMdp:
    """Truncated (omega, q, xi) grid with kernel, costs, and error tables."""

    core: FiniteAverageCostMdp
    states: tuple
    index: dict
    channel: MarkovChannel
    omega_caps: tuple
    q_max: int
    cost_mode: str
    ladder: CostLadder
    errors: dict  # (omega, xi) -> error of the next attempt; all-zero omega is a fresh one


def build_markov_mdp(
    harq: HarqModel,
    ch: MarkovChannel,
    ladder: CostLadder,
    omega_caps,
    q_max: int,
    cost_mode: str = "mse",
) -> MarkovMdp:
    """Truncated MDP with error probabilities taken from the link model."""

    def attempt_error(omega, xi):
        return conditional_error_prob(harq, ch.gains, omega, xi)

    return assemble_markov_mdp(attempt_error, ch, ladder, omega_caps, q_max, cost_mode)


def truncated_grid(omega_caps, q_max: int, b: int):
    """The truncated state space over b gain states, in solver order.

    Returns (omegas, states): every omega with 1 <= sum(omega) and
    omega <= omega_caps, in lexicographic order, and every (omega, q, xi)
    with sum(omega) <= q <= q_max and 0 <= xi < b, ordered by omega, then q,
    then xi. Caps below 1 and q_max below sum(omega_caps) are config errors.
    """
    caps = tuple(int(c) for c in omega_caps)
    if any(c < 1 for c in caps):
        raise ConfigError("every omega cap must be at least 1")
    if q_max < sum(caps):
        raise ConfigError(f"q_max must be at least sum(omega_caps) = {sum(caps)}")
    omegas = [omega for omega in product(*[range(c + 1) for c in caps]) if sum(omega) >= 1]
    states = tuple(
        (omega, q, xi) for omega in omegas for q in range(sum(omega), q_max + 1) for xi in range(b)
    )
    return omegas, states


def assemble_markov_mdp(
    attempt_error,
    ch: MarkovChannel,
    ladder: CostLadder,
    omega_caps,
    q_max: int,
    cost_mode: str = "mse",
) -> MarkovMdp:
    """Enumerate the truncated state space and assemble the kernel.

    attempt_error(omega, xi) is the error probability of an attempt under gain
    index xi after a round that buffered the attempts omega (all zeros for a
    fresh transmission); it is called once per pair. Truncation: omega is
    capped per gain state, q is clamped at q_max on failure, and a
    retransmission is unavailable when it would push the current gain's count
    past its cap. A retransmission success lands at age sum(omega) + 1, at
    most sum(omega_caps), so q_max >= sum(omega_caps) keeps it on the grid.
    """
    b = ch.size
    caps = tuple(int(c) for c in omega_caps)
    if len(caps) != b:
        raise ConfigError(f"omega_caps has {len(caps)} entries, channel has {b} states")
    omegas, states = truncated_grid(caps, q_max, b)
    if cost_mode not in ("mse", "delay"):
        raise ConfigError(f"cost_mode must be 'mse' or 'delay', got {cost_mode!r}")
    ladder = ladder.extended(q_max)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    units = [tuple(1 if j == i else 0 for j in range(b)) for i in range(b)]
    fresh = (0,) * b
    errors = {(fresh, xi): attempt_error(fresh, xi) for xi in range(b)}
    # Per (omega, xi): the omega a retransmission leads to (-1 at the cap)
    # and the error of that attempt.
    number = {omega: k for k, omega in enumerate(omegas)}
    bump = np.full((len(omegas), b), -1, dtype=np.int64)
    bump_error = np.zeros((len(omegas), b))
    for k, omega in enumerate(omegas):
        for xi in range(b):
            if omega[xi] < caps[xi]:
                errors[(omega, xi)] = bump_error[k, xi] = attempt_error(omega, xi)
                bump[k, xi] = number[tuple(o + u for o, u in zip(omega, units[xi]))]

    # Block k holds omega k's states, q from sum(omega) up, xi fastest, so
    # (omega, q, xi) sits at base[omega] + (q - sum(omega)) * b + xi.
    sums = np.array([sum(omega) for omega in omegas], dtype=np.int64)
    sizes = (q_max + 1 - sums) * b
    base = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(omegas)), sizes)
    q, xi = np.divmod(np.arange(n) - base[block], b)
    q += sums[block]
    q_fail = np.minimum(q + 1, q_max)
    available = np.stack([np.ones(n, dtype=bool), bump[block, xi] >= 0], axis=1)
    retx = np.flatnonzero(available[:, 1])

    # Row s of action a lists (success, failure) successors per next gain
    # index; a forbidden retransmission keeps an all-zero row.
    kernel = [(np.zeros((n, 2 * b), dtype=np.int64), np.zeros((n, 2 * b))) for _ in range(2)]
    fresh_error = np.array([errors[(fresh, x)] for x in range(b)])
    retx_block, retx_xi = block[retx], xi[retx]
    moves = (  # rows, the omega they lead to, success age, attempt error
        (slice(None), np.array([number[u] for u in units])[xi], 1, fresh_error[xi]),
        (retx, bump[retx_block, retx_xi], sums[retx_block] + 1, bump_error[retx_block, retx_xi]),
    )
    for (idx, prob), (rows, target, q_success, g) in zip(kernel, moves):
        start = base[target] - sums[target] * b
        idx[rows, 0::2] = (start + q_success * b)[:, None] + np.arange(b)
        idx[rows, 1::2] = (start + q_fail[rows] * b)[:, None] + np.arange(b)
        pi_from = ch.pi.T[xi[rows]]  # pi[xn, xi] in column xn
        prob[rows, 0::2] = pi_from * (1.0 - g)[:, None]
        prob[rows, 1::2] = pi_from * g[:, None]
    if cost_mode == "mse":
        stage = np.array([ladder.trace(age) for age in range(1, q_max + 1)])[q - 1]
    else:
        stage = q.astype(float)
    core = FiniteAverageCostMdp(
        costs=np.stack([stage, stage], axis=1),
        transitions=kernel,
        available=available,
        ref=index[(units[0], 1, 0)],
    )
    return MarkovMdp(
        core=core,
        states=states,
        index=index,
        channel=ch,
        omega_caps=caps,
        q_max=q_max,
        cost_mode=cost_mode,
        ladder=ladder,
        errors=errors,
    )


def solve_rvi_markov(mdp: MarkovMdp, tol: float = 1e-9, max_iters: int = 100_000) -> Policy:
    """Relative value iteration with reference state (unit omega at gain 0, q=1, xi=0).

    When RVI stops because its rate cannot reach tol within max_iters, Howard
    policy iteration finishes from its greedy policy: the reported zeta is
    then the exact cost of the returned actions, the span is that of the
    final relative values, and the iterations count sweeps plus policy
    steps.
    """
    actions, zeta, span, iterations, converged, stop = relative_value_iteration(
        mdp.core, tol=tol, max_iters=max_iters
    )
    if stop == "slow":
        actions, zeta, span, steps = policy_iteration(mdp.core, actions)
        iterations, converged = iterations + steps, True
    return Policy(
        actions=actions,
        states=mdp.states,
        zeta=zeta,
        span=span,
        iterations=iterations,
        converged=converged,
        cost_mode=mdp.cost_mode,
        params={
            "omega_caps": mdp.omega_caps,
            "q_max": mdp.q_max,
            "gains": mdp.channel.gains,
        },
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
    contiguous.
    """
    index = policy.index()
    violations = []
    for s, (omega, q, xi) in enumerate(policy.states):
        a = policy.actions[s]
        if a == 0:
            for i in range(len(omega)):
                bumped = tuple(o + (1 if j == i else 0) for j, o in enumerate(omega))
                neighbor = index.get((bumped, q, xi))
                if neighbor is not None and policy.actions[neighbor] != 0:
                    violations.append(((omega, q, xi), (bumped, q, xi)))
        else:
            neighbor = index.get((omega, q + 1, xi))
            if neighbor is not None and policy.actions[neighbor] != 1:
                violations.append(((omega, q, xi), (omega, q + 1, xi)))
    return SwitchingReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True, eq=False)
class HighSnrChain:
    """Reduced chain of the perfect-retransmission regime for one threshold vector.

    Block layout per gain index: position 0 is the post-retransmission state
    (age 2, fresh round just delivered), position p >= 1 is (round length 1,
    age p). The block covers ages up to max(theta_max, 2) + 1 so the failure
    step out of the post-retransmission state always lands inside the block.
    """

    thetas: tuple
    block_size: int
    transition: np.ndarray  # column-stochastic, B * block_size square
    costs: np.ndarray
    stationary: np.ndarray
    zeta: float


def build_high_snr_chain(
    ch: MarkovChannel, lambda_primes, thetas, ladder: CostLadder
) -> HighSnrChain:
    """Assemble the reduced chain, its stationary vector (by GTH elimination on
    its closed class), and its average cost.

    lambda_primes[i] is the fresh-transmission error probability in gain
    state i, which may be 1: retransmissions always succeed, so a gain state
    whose fresh packets never arrive still delivers. thetas[i] is the age
    threshold beyond which a round-length-1 state retransmits under gain i.
    """
    b = ch.size
    thetas = tuple(int(t) for t in thetas)
    lambda_primes = tuple(float(v) for v in lambda_primes)
    if len(thetas) != b or len(lambda_primes) != b:
        raise ModelError("thetas and lambda_primes must have one entry per gain state")
    if any(t < 1 for t in thetas):
        raise ModelError("every threshold must be at least 1")
    if any(not 0.0 <= v <= 1.0 for v in lambda_primes):
        raise ModelError("lambda_primes must lie in [0, 1]")
    top = max(max(thetas), 2)
    block = top + 2
    ladder = ladder.extended(top + 1)
    m = np.zeros((b * block, b * block))
    for i in range(b):
        within = np.zeros((block, block))
        lam = lambda_primes[i]
        for pos in range(block):
            age = 2 if pos == 0 else pos
            fresh = pos == 0 or age <= thetas[i]
            if fresh:
                within[1, pos] += 1.0 - lam       # success: age resets to 1
                within[age + 1, pos] += lam       # failure: age advances
            else:
                within[0, pos] += 1.0             # retransmission always succeeds
        for xi_next in range(b):
            rows = slice(xi_next * block, (xi_next + 1) * block)
            cols = slice(i * block, (i + 1) * block)
            m[rows, cols] = ch.pi[xi_next, i] * within
    block_costs = [ladder.trace(2)] + [ladder.trace(q) for q in range(1, top + 2)]
    costs = np.array(block_costs * b)
    # Position 1 of block 0 (age 1 under gain 0) is reached from every state.
    stationary = gth_stationary(m, start=1)
    zeta = float(costs @ stationary)
    return HighSnrChain(
        thetas=thetas,
        block_size=block,
        transition=m,
        costs=costs,
        stationary=stationary,
        zeta=zeta,
    )


@dataclass(frozen=True)
class HighSnrMarkovResult:
    theta_star: tuple
    zeta_star: float
    evaluated: dict  # thetas -> zeta


def high_snr_markov(
    ladder: CostLadder, ch: MarkovChannel, lambda_primes, theta_max_search: int = 8
) -> HighSnrMarkovResult:
    """Exhaustive threshold-vector search over {1..theta_max_search}^B.

    The first minimizer in lexicographic order wins ties.
    """
    if theta_max_search < 1:
        raise ValueError("theta_max_search must be at least 1")
    evaluated = {
        thetas: build_high_snr_chain(ch, lambda_primes, thetas, ladder).zeta
        for thetas in product(range(1, theta_max_search + 1), repeat=ch.size)
    }
    best = min(evaluated, key=evaluated.__getitem__)
    return HighSnrMarkovResult(theta_star=best, zeta_star=evaluated[best], evaluated=evaluated)
