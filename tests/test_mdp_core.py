import itertools

import numpy as np
import pytest
from reference import kernel_row, kernel_row_error

from harqest import (
    ConvergenceError,
    FiniteAverageCostMdp,
    HarqModel,
    build_markov_mdp,
    policy_average_cost,
    relative_value_iteration,
    static_channel,
)


def random_mdp(seed, max_states=12, n_actions=2, unavailable=0.0):
    """Dense random MDP with strictly positive kernels (irreducible, aperiodic).

    Each (state, action) pair is unavailable with probability `unavailable`,
    keeping one random action at every state that would lose them all.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, max_states + 1))
    costs = rng.uniform(0.0, 10.0, size=(n, n_actions))
    transitions = []
    for _ in range(n_actions):
        rows = rng.uniform(0.05, 1.0, size=(n, n))
        rows /= rows.sum(axis=1, keepdims=True)
        idx = np.tile(np.arange(n), (n, 1))
        transitions.append((idx, rows))
    available = rng.random((n, n_actions)) >= unavailable
    stuck = np.flatnonzero(~available.any(axis=1))
    available[stuck, rng.integers(0, n_actions, size=len(stuck))] = True
    return FiniteAverageCostMdp(costs=costs, transitions=transitions, available=available, ref=0)


def stationary_gain_oracle(mdp, actions):
    """Average cost via the stationary distribution of the induced chain,
    solved as an eigenproblem (independent of the package's linear-solve route)."""
    n = mdp.n_states
    p = np.zeros((n, n))
    cost = np.empty(n)
    for s in range(n):
        idx, prob = kernel_row(mdp, s, actions[s])
        for j, pr in zip(idx, prob):
            p[s, int(j)] += pr
        cost[s] = mdp.costs[s, actions[s]]
    eigvals, eigvecs = np.linalg.eig(p.T)
    k = int(np.argmin(np.abs(eigvals - 1.0)))
    pi = np.real(eigvecs[:, k])
    pi = np.abs(pi) / np.abs(pi).sum()
    return float(pi @ cost)


def brute_force_optimum(mdp):
    """Enumerate every deterministic policy; exact stationary-cost evaluation."""
    n = mdp.n_states
    best_actions, best_gain = None, np.inf
    for actions in itertools.product(range(mdp.n_actions), repeat=n):
        if not all(mdp.available[s, a] for s, a in enumerate(actions)):
            continue
        gain = stationary_gain_oracle(mdp, actions)
        if gain < best_gain:
            best_actions, best_gain = actions, gain
    return np.array(best_actions), best_gain


class TestRelativeValueIteration:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        mdp = random_mdp(seed, max_states=7)
        actions, zeta, span, iterations, converged = relative_value_iteration(mdp, tol=1e-11)
        oracle_actions, oracle_gain = brute_force_optimum(mdp)
        assert converged
        assert zeta == pytest.approx(oracle_gain, abs=1e-7)
        np.testing.assert_array_equal(actions, oracle_actions)

    def test_reference_state_invariance(self):
        mdp = random_mdp(99, max_states=8)
        _, zeta0, span0, _, _ = relative_value_iteration(mdp, tol=1e-11)
        alt = FiniteAverageCostMdp(
            costs=mdp.costs,
            transitions=mdp.transitions,
            available=mdp.available,
            ref=mdp.n_states - 1,
        )
        _, zeta1, span1, _, _ = relative_value_iteration(alt, tol=1e-11)
        assert abs(zeta0 - zeta1) <= 2.0 * max(span0, span1) + 1e-9

    def test_deterministic(self):
        mdp = random_mdp(5)
        first = relative_value_iteration(mdp)
        second = relative_value_iteration(mdp)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1:] == second[1:]

    def test_max_iters_exceeded_raises(self):
        mdp = random_mdp(1)
        with pytest.raises(ConvergenceError):
            relative_value_iteration(mdp, tol=1e-15, max_iters=2, patience=10_000)


def reference_rvi(mdp, tol=1e-9, max_iters=100_000, patience=500):
    """The per-action sweep `relative_value_iteration` replaced, kept as the
    reference its stacked sweep must reproduce bit for bit."""
    n, n_actions = mdp.n_states, mdp.n_actions
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
    zeta = (lo + hi) / 2.0
    return actions, float(zeta), float(hi - lo), iterations, converged


def assert_same_solve(mdp, **kwargs):
    """Both solvers return identical values, or raise the same error.
    Returns how the solve stopped: "tol", "plateau" or "budget"."""
    try:
        expected = reference_rvi(mdp, **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            relative_value_iteration(mdp, **kwargs)
        assert str(info.value) == str(exc)
        return "budget"
    actions, zeta, span, iterations, converged = relative_value_iteration(mdp, **kwargs)
    assert mdp.available[np.arange(mdp.n_states), actions].all()
    assert actions.dtype == expected[0].dtype
    assert actions.tobytes() == expected[0].tobytes()
    assert (repr(zeta), repr(span)) == (repr(expected[1]), repr(expected[2]))
    assert (iterations, converged) == expected[3:]
    return "tol" if converged else "plateau"


class TestReferenceConformance:
    """The stacked sweep reproduces the per-action sweep bit for bit."""

    @pytest.mark.parametrize("n_actions", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_with_unavailable_actions(self, seed, n_actions):
        mdp = random_mdp(200 + seed, max_states=30, n_actions=n_actions, unavailable=0.3)
        assert not mdp.available.all()
        assert assert_same_solve(mdp, tol=1e-11) == "tol"

    def test_plateau_stop(self):
        mdp = random_mdp(7, max_states=30, n_actions=3, unavailable=0.3)
        assert assert_same_solve(mdp, tol=0.0, patience=50) == "plateau"

    def test_budget_failure(self):
        mdp = random_mdp(8, max_states=30, n_actions=3, unavailable=0.3)
        assert assert_same_solve(mdp, tol=0.0, max_iters=40, patience=10_000) == "budget"

    @pytest.mark.parametrize("cost_mode", ["mse", "delay"])
    @pytest.mark.parametrize("scheme", ["cc", "ir"])
    @pytest.mark.parametrize("snr_db", [5.0, 8.5, 10.0])
    def test_cli_mdps(self, snr_db, scheme, cost_mode, ref_ladder, ref_channel):
        # The reference configs' grids: static r_max = q_max = 20, fading
        # caps (4, 4) with q_max = 10, solved with the CLI's tol and budget.
        harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
        for ch, caps, q_max in ((static_channel(2.0), (20,), 20), (ref_channel, (4, 4), 10)):
            mdp = build_markov_mdp(harq, ch, ref_ladder, caps, q_max, cost_mode)
            assert_same_solve(mdp.core, tol=1e-9, max_iters=100_000)

    def test_ir_fading_budget_failure(self, ref_ladder, ref_channel):
        # IR at 6.5 dB on the {2, 1} chain: the span shrinks too slowly for
        # either stop to fire, so the budget runs out.
        harq = HarqModel.from_db("ir", 6.5, 100, 4.0)
        mdp = build_markov_mdp(harq, ref_channel, ref_ladder, (4, 4), 10)
        assert assert_same_solve(mdp.core, max_iters=2000) == "budget"


class TestPolicyAverageCost:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_eig_oracle(self, seed):
        mdp = random_mdp(40 + seed)
        rng = np.random.default_rng(seed)
        actions = rng.integers(0, mdp.n_actions, size=mdp.n_states)
        assert policy_average_cost(mdp, actions) == pytest.approx(
            stationary_gain_oracle(mdp, actions), abs=1e-9
        )

    def test_handles_transient_states(self):
        # two states; action 0 moves to state 1 and stays: state 0 is transient
        costs = np.array([[5.0, 5.0], [1.0, 1.0]])
        idx = np.array([[1, 1], [1, 1]])
        prob = np.array([[1.0, 0.0], [1.0, 0.0]])
        mdp = FiniteAverageCostMdp(
            costs=costs, transitions=[(idx, prob), (idx, prob)], available=np.ones((2, 2), bool)
        )
        assert policy_average_cost(mdp, [0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unavailable_action(self):
        mdp = random_mdp(3)
        available = mdp.available.copy()
        available[0, 1] = False
        restricted = FiniteAverageCostMdp(
            costs=mdp.costs, transitions=mdp.transitions, available=available, ref=0
        )
        actions = np.ones(mdp.n_states, dtype=int)
        with pytest.raises(ValueError):
            policy_average_cost(restricted, actions)


class TestKernelValidation:
    def test_accepts_valid(self):
        assert kernel_row_error(random_mdp(2)) <= 1e-12

    def test_rejects_deficient_row(self):
        mdp = random_mdp(2)
        idx, prob = mdp.transitions[0]
        broken = prob.copy()
        broken[0] *= 0.5
        bad = FiniteAverageCostMdp(
            costs=mdp.costs,
            transitions=[(idx, broken), mdp.transitions[1]],
            available=mdp.available,
        )
        assert kernel_row_error(bad) == pytest.approx(0.5, abs=1e-12)
