"""Average-cost MDP for a finite-state Markov channel, plus the
perfect-retransmission threshold search costed on its kernel.

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
from .harq_model import HarqModel, LinkErrors
from .lti_estimation import CostLadder
from .mdp_core import FiniteAverageCostMdp, Policy, policy_iteration, relative_value_iteration
from .numerics import _reachable, gth_stationary, spectral_radius

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
    """Truncated (omega, q, xi) grid with its kernel and costs."""

    core: FiniteAverageCostMdp
    states: tuple
    index: dict
    channel: MarkovChannel
    omega_caps: tuple
    q_max: int
    cost_mode: str
    ladder: CostLadder


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
    fresh_error = np.array([attempt_error(fresh, xi) for xi in range(b)])
    # Per (omega, xi): the omega a retransmission leads to (-1 at the cap)
    # and the error of that attempt.
    number = {omega: k for k, omega in enumerate(omegas)}
    bump = np.full((len(omegas), b), -1, dtype=np.int64)
    bump_error = np.zeros((len(omegas), b))
    for k, omega in enumerate(omegas):
        for xi in range(b):
            if omega[xi] < caps[xi]:
                bump_error[k, xi] = attempt_error(omega, xi)
                bump[k, xi] = number[tuple(o + u for o, u in zip(omega, units[xi]))]

    # Block k holds omega k's states, q from sum(omega) up, xi fastest, so
    # (omega, q, xi) sits at base[omega] + (q - sum(omega)) * b + xi.
    sums = np.array([sum(omega) for omega in omegas], dtype=np.int64)
    sizes = (q_max + 1 - sums) * b
    base = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(omegas)), sizes)
    q, xi = np.divmod(np.arange(n) - base[block], b)
    q += sums[block]
    retx = np.flatnonzero(bump[block, xi] >= 0)
    retx_block, retx_xi = block[retx], xi[retx]

    # The rows: a fresh transmission's per (q, xi), at (q - 1) * b + xi;
    # then one retransmission row per state that may retransmit; then one
    # inf row, taken by every state that may not.
    fresh_q, fresh_xi = np.divmod(np.arange(q_max * b), b)
    fresh_q += 1
    row_q = np.concatenate([fresh_q, q[retx]])
    row_xi = np.concatenate([fresh_xi, retx_xi])
    # Per row: the omega it leads to, the success age and the attempt error.
    target = np.concatenate([np.array([number[u] for u in units])[fresh_xi], bump[retx_block, retx_xi]])
    q_success = np.concatenate([np.ones_like(fresh_q), sums[retx_block] + 1])
    g = np.concatenate([fresh_error[fresh_xi], bump_error[retx_block, retx_xi]])
    # Row r lists (success, failure) successors per next gain index.
    start = base[target] - sums[target] * b
    idx = np.zeros((len(row_q) + 1, 2 * b), dtype=np.int64)
    idx[:-1, 0::2] = (start + q_success * b)[:, None] + np.arange(b)
    idx[:-1, 1::2] = (start + np.minimum(row_q + 1, q_max) * b)[:, None] + np.arange(b)
    pi_from = ch.pi.T[row_xi]  # pi[xn, xi] in column xn
    prob = np.zeros(idx.shape)
    prob[:-1, 0::2] = pi_from * (1.0 - g)[:, None]
    prob[:-1, 1::2] = pi_from * g[:, None]
    if cost_mode == "mse":
        stage = np.array([ladder.trace(age) for age in range(1, q_max + 1)])[row_q - 1]
    else:
        stage = row_q.astype(float)
    where = np.full((2, n), len(row_q), dtype=np.int64)
    where[0] = (q - 1) * b + xi
    where[1, retx] = len(fresh_q) + np.arange(len(retx))
    core = FiniteAverageCostMdp(
        idx=idx,
        prob=prob,
        cost=np.append(stage, np.inf),
        where=where,
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
    actions = np.asarray(policy.actions).tolist()
    violations = []
    for (omega, q, xi), a in zip(policy.states, actions):
        if a == 0:
            for i, o in enumerate(omega):
                bumped = (*omega[:i], o + 1, *omega[i + 1:])
                neighbor = index.get((bumped, q, xi))
                if neighbor is not None and actions[neighbor] != 0:
                    violations.append(((omega, q, xi), (bumped, q, xi)))
        else:
            neighbor = index.get((omega, q + 1, xi))
            if neighbor is not None and actions[neighbor] != 1:
                violations.append(((omega, q, xi), (omega, q + 1, xi)))
    return SwitchingReport(passed=not violations, violations=tuple(violations))


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
    classes = {}  # (sum(omega), q, xi) -> its number, in order of first state
    cls = np.array([classes.setdefault((sum(o), q, x), len(classes)) for o, q, x in mdp.states])
    m = len(classes)
    reps = np.searchsorted(np.maximum.accumulate(cls), np.arange(m))  # each class's first state
    r, q, xi = np.array(list(classes)).T
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
