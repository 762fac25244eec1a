"""Plain references the tests compare the package against.

Each is written the direct way: the balance solve of a stationary vector, the
kernel-row sum check, the one-step-lookahead (myopic) rule and the threshold
closed form on the static link, the exact cost of a perfect-retransmission
threshold table on the MDP's own kernel, an attempt's error from its round
expanded into a flat gain tuple, the channel step, the count-tuple
attempt-history update and the per-slot simulation loop they drive, and the
per-state kernel loop of the MDP builder, the per-action form of a
kernel, and the per-action relative value iteration the row sweep replaced;
the CLI's parser with a subparser per command, its row-by-row region-grid
writer, and the filter recursion and cost-ladder loops with their per-step
set-up. Nothing in the package imports this module.
"""

import argparse
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from harqest import (
    ConvergenceError,
    FiniteAverageCostMdp,
    Policy,
    block_error_prob,
    policy_average_cost,
    relative_value_iteration_cells,
)
from harqest.errors import DepthError
from harqest.lti_estimation import _TRACE_LIMIT, CostLadder, SteadyStateKalman, f_apply
from harqest.mdp_markov import assemble_markov_mdp
from harqest.numerics import spectral_radius

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
    row = core.where[a, s]
    return core.idx[row], core.prob[row]


def kernel_row_error(core) -> float:
    """Largest |row sum - 1| over the available (state, action) rows."""
    rows = core.where[core.available.T]
    return float(np.max(np.abs(core.prob[rows].sum(axis=1) - 1.0)))


# ---------------------------------------------------------------- per-action kernels


def stacked_mdp(costs, transitions, available, ref=0) -> FiniteAverageCostMdp:
    """The MDP with costs[s, a], transitions[a] = (idx, prob) of shape (S, K)
    and available[s, a], every (state, action) pair on a row of its own:
    row a * S + s."""
    idx = np.concatenate([idx_a for idx_a, _ in transitions])
    prob = np.concatenate([prob_a for _, prob_a in transitions])
    cost = np.where(available, costs, np.inf).T.ravel()
    where = np.arange(len(cost)).reshape(len(transitions), -1)
    return FiniteAverageCostMdp(idx=idx, prob=prob, cost=cost, where=where, ref=ref)


@dataclass(frozen=True, eq=False)
class PerAction:
    """costs[s, a], inf where the action is unavailable; transitions[a] =
    (idx, prob) of shape (S, K); available[s, a]."""

    costs: np.ndarray
    transitions: list
    available: np.ndarray
    ref: int


def per_action(mdp: FiniteAverageCostMdp) -> PerAction:
    """The kernel of `mdp` laid out by action, one row per state."""
    return PerAction(
        costs=mdp.cost[mdp.where].T,
        transitions=[(mdp.idx[rows], mdp.prob[rows]) for rows in mdp.where],
        available=mdp.available,
        ref=mdp.ref,
    )


# ---------------------------------------------------------------- relative value iteration


def reference_rvi(mdp, tol=1e-9, max_iters=100_000, patience=500):
    """The per-action sweep `relative_value_iteration` replaced, damped the
    same way, kept as the reference its row sweep and its stop rules must
    reproduce bit for bit, on one MDP or on each cell of a lockstep solve."""
    n, n_actions = mdp.n_states, mdp.n_actions
    mdp = per_action(mdp)
    v = np.zeros(n)
    q = np.empty((n, n_actions))
    best_span = np.inf
    stall = 0
    spans = []
    lo = hi = 0.0
    iterations = 0
    stop = None
    while iterations < max_iters:
        iterations += 1
        for a in range(n_actions):
            idx, prob = mdp.transitions[a]
            q[:, a] = mdp.costs[:, a] + np.einsum("sk,sk->s", prob, v[idx])
        q[~mdp.available] = np.inf
        tv = (q.min(axis=1) + v) * 0.5
        diff = tv - v
        lo, hi = float(diff.min()), float(diff.max())
        span = 2.0 * (hi - lo)
        v = tv - tv[mdp.ref]
        if span < tol:
            stop = "tol"
            break
        improved = span < best_span * (1.0 - 1e-6)
        spans.append((span, improved))
        if improved:
            best_span = span
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                stop = "plateau"
                break
        # Slow: the last `patience` sweeps all improved, and at their
        # geometric rate tol lies beyond max_iters sweeps.
        window = spans[-patience:]
        if iterations % patience == 0 and iterations >= 2 * patience and all(ok for _, ok in window):
            rate = span / spans[-patience - 1][0]
            if tol <= 0.0 or iterations + patience * math.log(tol / span) / math.log(rate) > max_iters:
                stop = "slow"
                break
    else:
        raise ConvergenceError(
            f"relative value iteration did not converge within {max_iters} sweeps "
            f"(final span {2.0 * (hi - lo):.3e})"
        )
    for a in range(n_actions):
        idx, prob = mdp.transitions[a]
        q[:, a] = mdp.costs[:, a] + np.einsum("sk,sk->s", prob, v[idx])
    q[~mdp.available] = np.inf
    actions = np.zeros(n, dtype=np.int8)
    best = q[:, 0].copy()
    for a in range(1, n_actions):
        finite = np.isfinite(q[:, a])
        magnitude = np.maximum(np.where(np.isfinite(best), np.abs(best), 0.0),
                               np.where(finite, np.abs(q[:, a]), 0.0))
        tie = 1e-12 + 1e-9 * magnitude
        better = q[:, a] < best - tie
        actions[better] = a
        best = np.where(better, q[:, a], best)
    return actions, lo + hi, 2.0 * (hi - lo), iterations, stop == "tol", stop


def assert_cells_match_reference(cells, **kwargs):
    """`relative_value_iteration_cells` equals `reference_rvi` on each cell
    alone: each outcome's actions, the bits of zeta and span, iterations,
    converged and stop, or, when some cell runs out of sweeps, the
    ConvergenceError text of the first cell in order that does. Returns the
    stops, with "budget" for a cell that runs out."""
    expected, errors = [], []
    for cell in cells:
        try:
            expected.append(reference_rvi(cell, **kwargs))
        except ConvergenceError as exc:
            expected.append(None)
            errors.append(str(exc))
    stops = ["budget" if want is None else want[5] for want in expected]
    try:
        outcomes = relative_value_iteration_cells(cells, **kwargs)
    except ConvergenceError as exc:
        assert errors and str(exc) == errors[0]
        return stops
    assert not errors
    for outcome, want in zip(outcomes, expected, strict=True):
        actions, zeta, span, iterations, converged, stop = outcome
        assert actions.dtype == want[0].dtype
        assert actions.tobytes() == want[0].tobytes()
        assert (zeta.hex(), span.hex()) == (want[1].hex(), want[2].hex())
        assert (iterations, converged, stop) == want[3:]
    return stops


# ---------------------------------------------------------------- static link


def myopic_policy(mdp, attempt_error) -> Policy:
    """Closed-form one-step-lookahead table of a one-state MDP: no iteration,
    no value function. attempt_error(omega, xi) is the link's error after
    the round omega, as `assemble_markov_mdp` takes it.

    Transmit fresh exactly when the expected next-slot cost of doing so is no
    worse than retransmitting; with no reliability edge the comparison
    degenerates and fresh wins. Returned on the MDP's own ((r,), q, 0) states.
    """
    (r_max,) = mdp.grid.caps
    g = {r + 1: attempt_error((r,), 0) for r in range(r_max)}  # attempt -> error
    ladder = mdp.ladder.extended(mdp.grid.q_max + 1)
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
        grid=mdp.grid,
        gains=mdp.channel.gains,
        zeta=float("nan"),
        span=float("nan"),
        iterations=0,
        converged=True,
        cost_mode="mse",
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


def expanded_error_prob(model, gains, counts, xi) -> float:
    """The error of an attempt under gains[xi] after the round `counts`, by
    expanding the counts into a flat gain tuple that block_error_prob sorts
    on every call."""
    current = (float(gains[xi]),)
    past = tuple(float(g) for c, g in zip(counts, gains) for _ in range(c))
    if not past:
        return block_error_prob(model, current)
    denominator = block_error_prob(model, past)
    if denominator < 1e-300:
        return 0.0
    return min(block_error_prob(model, past + current) / denominator, 1.0)


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
        action = dict(zip(table.grid.states, table.actions.tolist()))
        caps, q_max = table.grid.caps, table.grid.q_max

        def act(r, q, omega, xi):
            return action[(tuple(map(min, omega, caps)), min(q, q_max), xi)]

    elif spec.kind == "myopic":

        def act(r, q, omega, xi):
            g0 = new_tx[xi]
            g1 = expanded_error_prob(harq, ch.gains, omega, xi)
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
            p_err = expanded_error_prob(harq, ch.gains, omega, xi)
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


# Every per-slot column of a trace, then its divergence flag and slot: the
# keys of `reference_run`'s record.
TRACE_FIELDS = (
    "k", "a", "gamma", "r", "q", "xi", "trace_mse", "running_avg", "omega", "diverged", "diverged_slot"
)


def rowwise_csv(trace) -> bytes:
    """The trace CSV as one `",".join(map(repr, row))` line per slot."""
    names = ("k", "a", "gamma", "r", "q", "xi", "trace_mse", "running_avg")
    lines = [",".join(names)]
    lines += [
        ",".join(map(repr, row)) for row in zip(*(getattr(trace, n).tolist() for n in names))
    ]
    if trace.diverged:
        lines.append(f"# diverged at slot {trace.diverged_slot}")
    return ("\n".join(lines) + "\n").encode()


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


@dataclass(frozen=True, eq=False)
class ReferenceMdp:
    core: FiniteAverageCostMdp
    states: tuple


def reference_assemble(attempt_error, ch, ladder, omega_caps, q_max, cost_mode="mse"):
    """The per-state loop `assemble_markov_mdp` replaced, on state labels it
    enumerates itself: each state's rows are looked up in its own state
    index one successor at a time. Takes valid arguments only; returns the
    kernel, with every (state, action) pair on a row of its own, and the
    labels in the order of its states."""
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
    core = stacked_mdp(np.stack([stage, stage], axis=1), kernel, available, index[(units[0], 1, 0)])
    return ReferenceMdp(core=core, states=states)


# ---------------------------------------------------------------- CLI


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser as one top-level parser with a subparser per command,
    every command's arguments added on every call."""
    parser = argparse.ArgumentParser(
        prog="harqest",
        description="Retransmit-or-refresh transmission control for remote estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory (default from config)")

    p = sub.add_parser("stability", help="bounded-MSE existence check and stability region sweep")
    common(p)
    p.add_argument(
        "--rho-sq", type=float, nargs="+", default=[1.1, 2.0, 3.0, 5.0],
        help="squared spectral radii for the region sweep grid",
    )
    p.add_argument("--grid-steps", type=int, default=51, help="region sweep resolution per axis")

    p = sub.add_parser("solve", help="solve the transmission-control MDP")
    common(p)
    p.add_argument("--cost", choices=["mse", "delay"], default=None, help="override cost mode")

    p = sub.add_parser("simulate", help="Monte Carlo policy evaluation")
    common(p)
    p.add_argument(
        "--policy", required=True,
        help="policy file, or one of: myopic, no-retx, psi",
    )
    p.add_argument(
        "--compare", nargs="*", default=[],
        help="additional policies for the comparison table",
    )
    p.add_argument("--seed", type=int, default=None, help="override the simulation seed")

    p = sub.add_parser("highsnr", help="perfect-retransmission threshold optimization")
    common(p)
    p.add_argument("--theta-max", type=int, default=8, help="threshold search bound")

    p = sub.add_parser("sweep", help="solve + switching verification over SNR and scheme")
    common(p)
    p.add_argument("--snr-db", type=float, nargs="+", default=[5.0, 10.0, 15.0])
    p.add_argument("--schemes", nargs="+", choices=["cc", "ir"], default=["cc", "ir"])

    return parser


def rowwise_region_grid(ch, rho_sq_values, steps: int, path):
    """The stability-region CSV with one f-string per cell and rho^2."""
    grid = np.linspace(0.0, 1.0, steps)
    lambdas = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    radii = spectral_radius(ch.pi * lambdas[..., None, :]).tolist()
    grid = [repr(value) for value in grid.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda1,lambda2,rho_sq,stable\n")
        for rho_sq in rho_sq_values:
            tail = f",{rho_sq!r},"
            for l1, row in zip(grid, radii):
                fh.write("".join(
                    f"{l1},{l2}{tail}{int(radius * rho_sq < 1.0)}\n"
                    for l2, radius in zip(grid, row)
                ))


# ---------------------------------------------------------------- filter and ladder


def reference_steady_state(sys, tol: float = 1e-10, max_iters: int = 100_000) -> SteadyStateKalman:
    """The filter recursion with `np.eye(n)` and `C.T` formed in every step."""
    a, c, q_w, q_v = sys.A, sys.C, sys.Q_w, sys.Q_v
    p = sys.Sigma0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            p_pred = a @ p @ a.T + q_w
            k = p_pred @ c.T @ np.linalg.inv(c @ p_pred @ c.T + q_v)
            p_new = (np.eye(sys.n) - k @ c) @ p_pred
            p_new = (p_new + p_new.T) / 2.0
            residual = float(np.max(np.abs(p_new - p)))
            p = p_new
            if not np.isfinite(residual):
                break
            if residual < tol:
                return SteadyStateKalman(P_bar0=p, K_bar=k, iterations=it, residual=residual)
    raise ConvergenceError(
        f"filter covariance did not settle within {max_iters} iterations "
        f"(last step changed by {residual:.3e}); the local estimator appears unstable"
    )


def reference_extended(ladder, new_depth: int) -> CostLadder:
    """`CostLadder.extended` stepping through `f_apply`, one call per rung."""
    if new_depth <= ladder.depth:
        return ladder
    traces = list(ladder.traces)
    x = ladder.tail.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(ladder.depth + 1, new_depth + 1):
            x = f_apply(ladder.sys, x)
            tr = float(np.trace(x))
            if not np.isfinite(tr) or tr > _TRACE_LIMIT:
                raise DepthError(
                    f"cost trace overflows at depth {n}; largest safe depth is {n - 1}",
                    largest_safe_depth=n - 1,
                )
            traces.append(tr)
    return CostLadder(sys=ladder.sys, traces=tuple(traces), tail=x)
