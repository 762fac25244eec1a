"""Plain references the tests compare the package against.

Each is written the direct way: the balance solve of a stationary vector, the
kernel-row sum check, the one-step-lookahead (myopic) rule and the threshold
closed form on the static link, the exact cost of a perfect-retransmission
threshold table on the MDP's own kernel, the channel step, the count-tuple
attempt-history update and the per-slot simulation loop they drive, and the
per-state kernel loop of the MDP builder. Nothing in the package imports this
module.
"""

from itertools import product

import numpy as np

from harqest import (
    FiniteAverageCostMdp,
    Policy,
    block_error_prob,
    conditional_error_prob,
    policy_average_cost,
)
from harqest.errors import DepthError
from harqest.mdp_markov import MarkovMdp, assemble_markov_mdp

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


def threshold_table_cost(ch, lambda_primes, thetas, ladder) -> float:
    """Exact long-run MSE of a perfect-retransmission threshold policy, taken
    on the MDP's own kernel.

    The link fails a fresh attempt under gain xi with lambda_primes[xi] and
    never fails a retransmission. The table retransmits exactly at round
    length 1 once the age passes the current gain's threshold. Caps of 2 per
    gain hold every round it plays, and q_max = max(2B, max(thetas) + 2) holds
    every age it reaches: at threshold 1 a fresh failure out of the
    post-retransmission state still reaches age 3.
    """
    b = ch.size
    lam = tuple(float(v) for v in lambda_primes)

    def attempt_error(omega, xi):
        return lam[xi] if not any(omega) else 0.0

    mdp = assemble_markov_mdp(attempt_error, ch, ladder, (2,) * b, max(2 * b, max(thetas) + 2))
    actions = [1 if sum(omega) == 1 and q > thetas[xi] else 0 for omega, q, xi in mdp.states]
    return policy_average_cost(mdp.core, actions)


# ---------------------------------------------------------------- channel and history


def step(ch, current_index: int, rng: np.random.Generator) -> int:
    """Sample the next gain index. Always consumes exactly one draw from rng."""
    u = rng.random()
    if ch.size == 1:
        return 0
    return int(np.searchsorted(ch._cumulative[:, current_index], u, side="right"))


def zero_history(gains) -> tuple:
    """The empty attempt counts over `gains`: no pending round."""
    return (0,) * len(gains)


def unit_history(gains, index: int) -> tuple:
    """The counts of a round of one attempt, made under gain index `index`."""
    return tuple(1 if i == index else 0 for i in range(len(gains)))


def incremented(omega: tuple, index: int) -> tuple:
    """The counts with one more attempt under gain index `index`."""
    return tuple(c + 1 if i == index else c for i, c in enumerate(omega))


def update_history(omega: tuple, last_action: int, last_index: int) -> tuple:
    """Advance the per-gain attempt counts given last slot's action and gain index.

    A new transmission starts a fresh round (counts reset to the unit vector
    at last_index); a retransmission adds last slot's gain to the round.
    """
    if last_action == 0:
        return unit_history(omega, last_index)
    return incremented(omega, last_index)


# ---------------------------------------------------------------- simulation loop


def reference_run(harq, ch, ladder, spec, cfg, replicate=0):
    """The simulator's per-slot loop written the direct way: count-tuple
    attempt histories, `step` drawing one scalar per channel
    move, `update_history`, and a ladder grown on demand by
    CostLadder.extended(n + 32). run() must reproduce it byte for byte."""
    rng = np.random.default_rng([cfg.seed, replicate])
    grown = [ladder]

    def trace(n):
        if n > grown[0].depth:
            grown[0] = grown[0].extended(n + 32)
        return grown[0].trace(n)

    new_tx = tuple(block_error_prob(harq, (g,)) for g in ch.gains)
    if spec.kind in ("table", "delay_optimal_table"):
        table = spec.table
        action = dict(zip(table.states, table.actions.tolist()))
        caps = tuple(table.params["omega_caps"])
        q_max = table.params["q_max"]

        def act(r, q, omega, xi):
            return action[(tuple(map(min, omega, caps)), min(q, q_max), xi)]

    elif spec.kind == "myopic":

        def act(r, q, omega, xi):
            g0 = new_tx[xi]
            g1 = conditional_error_prob(harq, ch.gains, omega, xi)
            fresh = g0 * trace(q + 1) + (1.0 - g0) * trace(1)
            retx = g1 * trace(q + 1) + (1.0 - g1) * trace(sum(omega) + 1)
            return 0 if retx >= fresh else 1

    elif spec.kind == "no_retransmission":

        def act(r, q, omega, xi):
            return 0

    else:

        def act(r, q, omega, xi):
            return 0 if r == q else 1

    if cfg.initial_channel is None:
        cumulative = np.cumsum(ch.stationary())
        xi_prev = min(int(np.searchsorted(cumulative, rng.random(), side="right")), ch.size - 1)
    else:
        xi_prev = cfg.initial_channel
    omega = unit_history(ch.gains, xi_prev)
    xi = step(ch, xi_prev, rng)
    r, q = 1, 1
    rows = []
    diverged_slot = None
    for i in range(cfg.slots):
        try:
            cost = trace(q)
            a = act(r, q, omega, xi)
        except DepthError:
            diverged_slot = i + 1
            break
        if a == 0:
            p_err = new_tx[xi]
        else:
            p_err = conditional_error_prob(harq, ch.gains, omega, xi)
        gamma = 1 if rng.random() >= p_err else 0
        rows.append((a, gamma, r, q, xi, cost, omega))
        r_next = 1 if a == 0 else r + 1
        q = r_next if gamma == 1 else q + 1
        r = r_next
        omega = update_history(omega, a, xi)
        xi = step(ch, xi, rng)
    n = len(rows)
    costs = np.array([row[5] for row in rows], dtype=np.float64)
    return {
        "k": np.arange(1, n + 1, dtype=np.int64),
        "a": np.array([row[0] for row in rows], dtype=np.int8),
        "gamma": np.array([row[1] for row in rows], dtype=np.int8),
        "r": np.array([row[2] for row in rows], dtype=np.int64),
        "q": np.array([row[3] for row in rows], dtype=np.int64),
        "xi": np.array([row[4] for row in rows], dtype=np.int64),
        "trace_mse": costs,
        "running_avg": np.cumsum(costs) / np.arange(1, n + 1) if n else np.array([]),
        "omega": np.array([row[6] for row in rows], dtype=np.int64).reshape(n, ch.size),
        "diverged": diverged_slot is not None,
        "diverged_slot": diverged_slot,
    }


def assert_matches_reference(trace, expected):
    for name, value in expected.items():
        got = getattr(trace, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name


# ---------------------------------------------------------------- kernel


def reference_assemble(attempt_error, ch, ladder, omega_caps, q_max, cost_mode="mse"):
    """The per-state loop `assemble_markov_mdp` replaced: each state's rows
    are looked up in the state index one successor at a time. Takes valid
    arguments only; returns the same `MarkovMdp` fields."""
    b = ch.size
    caps = tuple(int(c) for c in omega_caps)
    ladder = ladder.extended(q_max)
    omegas = [omega for omega in product(*[range(c + 1) for c in caps]) if sum(omega) >= 1]
    states = tuple(
        (omega, q, xi) for omega in omegas for q in range(sum(omega), q_max + 1) for xi in range(b)
    )
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    units = [tuple(1 if j == i else 0 for j in range(b)) for i in range(b)]
    fresh = (0,) * b
    errors = {(fresh, xi): attempt_error(fresh, xi) for xi in range(b)}
    for omega in omegas:
        for xi in range(b):
            if omega[xi] < caps[xi]:
                errors[(omega, xi)] = attempt_error(omega, xi)
    width = 2 * b
    kernel = [(np.zeros((n, width), dtype=np.int64), np.zeros((n, width))) for _ in range(2)]
    available = np.zeros((n, 2), dtype=bool)
    available[:, 0] = True
    pi = ch.pi.tolist()
    for s, (omega, q, xi) in enumerate(states):
        q_fail = min(q + 1, q_max)
        moves = [(units[xi], 1, errors[(fresh, xi)])]  # action 0
        if omega[xi] < caps[xi]:
            available[s, 1] = True
            bumped = tuple(o + u for o, u in zip(omega, units[xi]))
            moves.append((bumped, sum(omega) + 1, errors[(omega, xi)]))  # action 1
        for (idx, prob), (omega_next, q_success, g) in zip(kernel, moves):
            idx[s] = [index[(omega_next, age, xn)] for xn in range(b) for age in (q_success, q_fail)]
            prob[s] = [pi[xn][xi] * p for xn in range(b) for p in (1.0 - g, g)]
    if cost_mode == "mse":
        stage = np.array([ladder.trace(q) for (_, q, _) in states])
    else:
        stage = np.array([float(q) for (_, q, _) in states])
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
