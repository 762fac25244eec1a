import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from reference import kernel_row, kernel_row_error, per_action, reference_assemble, stacked_mdp

import harqest.mdp_core
from harqest import (
    ConvergenceError,
    FiniteAverageCostMdp,
    HarqModel,
    LinkErrors,
    MarkovChannel,
    ModelError,
    build_markov_mdp,
    build_static_mdp,
    policy_average_cost,
    policy_iteration,
    relative_value_iteration,
    solve_rvi,
    solve_rvi_markov,
    static_channel,
    verify_switching_markov,
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
    return stacked_mdp(costs, transitions, available, ref=0)


def stationary_gain_oracle(mdp, actions):
    """Average cost via the stationary distribution of the induced chain,
    solved as an eigenproblem (independent of the package's linear-solve route)."""
    n = mdp.n_states
    costs = per_action(mdp).costs
    p = np.zeros((n, n))
    cost = np.empty(n)
    for s in range(n):
        idx, prob = kernel_row(mdp, s, actions[s])
        for j, pr in zip(idx, prob):
            p[s, int(j)] += pr
        cost[s] = costs[s, actions[s]]
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
        actions, zeta, span, iterations, converged, stop = relative_value_iteration(mdp, tol=1e-11)
        oracle_actions, oracle_gain = brute_force_optimum(mdp)
        assert converged and stop == "tol"
        assert zeta == pytest.approx(oracle_gain, abs=1e-7)
        np.testing.assert_array_equal(actions, oracle_actions)

    def test_reference_state_invariance(self):
        mdp = random_mdp(99, max_states=8)
        _, zeta0, span0, _, _, _ = relative_value_iteration(mdp, tol=1e-11)
        alt = replace(mdp, ref=mdp.n_states - 1)
        _, zeta1, span1, _, _, _ = relative_value_iteration(alt, tol=1e-11)
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
    """The per-action sweep `relative_value_iteration` replaced, damped the
    same way, kept as the reference its row sweep and its stop rules must
    reproduce bit for bit."""
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


def assert_same_solve(mdp, **kwargs):
    """Both solvers return identical values, or raise the same error.
    Returns how the solve stopped: "tol", "plateau", "slow" or "budget"."""
    try:
        expected = reference_rvi(mdp, **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            relative_value_iteration(mdp, **kwargs)
        assert str(info.value) == str(exc)
        return "budget"
    actions, zeta, span, iterations, converged, stop = relative_value_iteration(mdp, **kwargs)
    assert mdp.available[np.arange(mdp.n_states), actions].all()
    assert actions.dtype == expected[0].dtype
    assert actions.tobytes() == expected[0].tobytes()
    assert (repr(zeta), repr(span)) == (repr(expected[1]), repr(expected[2]))
    assert (iterations, converged, stop) == expected[3:]
    return stop


def with_shared_rows(mdp):
    """`mdp` with rows that several (state, action) pairs share, and the same
    solve: every state copied once as a new state that takes the original's
    rows, and every unavailable action pointed at one inf row."""
    where = np.concatenate([mdp.where, mdp.where], axis=1)
    live = np.flatnonzero(np.isfinite(mdp.cost))
    renumber = np.full(len(mdp.cost), len(live))  # every inf row goes to the one after `live`
    renumber[live] = np.arange(len(live))
    return FiniteAverageCostMdp(
        idx=np.vstack([mdp.idx[live], np.zeros_like(mdp.idx[:1])]),
        prob=np.vstack([mdp.prob[live], np.zeros_like(mdp.prob[:1])]),
        cost=np.append(mdp.cost[live], np.inf),
        where=renumber[where],
        ref=mdp.ref,
    )


def slow_swap_mdp():
    """The two-state swap of `test_slow_stop_only_when_tol_lies_beyond_the_budget`
    under action 0, next to an action 1 that is unavailable everywhere."""
    idx = np.array([[0, 1], [1, 0]])
    prob = np.array([[1.0 - 1e-3, 1e-3]] * 2)
    return stacked_mdp(
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        [(idx, prob), (idx, prob)],
        np.array([[True, False], [True, False]]),
    )


def sticky_channel():
    """The gains {2, 1}, switching once in 10^4 slots."""
    return MarkovChannel(gains=(2.0, 1.0), pi=np.array([[1.0 - 1e-4, 1e-4], [1e-4, 1.0 - 1e-4]]))


class TestReferenceConformance:
    """The row sweep reproduces the per-action sweep bit for bit."""

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

    def test_slow_stop_only_when_tol_lies_beyond_the_budget(self):
        # Two states swapping with probability 1e-3, 5e-4 in the damped
        # kernel: the span shrinks by the factor 0.999 each sweep, so the rate
        # over sweeps 501-1000 projects tol = 1e-9 at sweep 20713.9, and RVI
        # reaches it at sweep 20714.
        idx = np.array([[0, 1], [1, 0]])
        prob = np.array([[1.0 - 1e-3, 1e-3]] * 2)
        mdp = stacked_mdp(np.array([[0.0], [1.0]]), [(idx, prob)], np.ones((2, 1), bool))
        assert assert_same_solve(mdp, max_iters=20_708) == "slow"
        assert relative_value_iteration(mdp, max_iters=20_708)[3] == 1000
        assert assert_same_solve(mdp, max_iters=20_718) == "tol"
        assert relative_value_iteration(mdp, max_iters=20_718)[3] == 20_714

    @pytest.mark.parametrize(
        "seed, n_actions, kwargs, stop",
        [
            (200, 2, {"tol": 1e-11}, "tol"),
            (203, 3, {"tol": 1e-11}, "tol"),
            (7, 3, {"tol": 0.0, "patience": 50}, "plateau"),
            (8, 3, {"tol": 0.0, "max_iters": 40, "patience": 10_000}, "budget"),
        ],
        ids=["tol-2", "tol-3", "plateau", "budget"],
    )
    def test_repeated_rows(self, seed, n_actions, kwargs, stop):
        mdp = with_shared_rows(random_mdp(seed, max_states=30, n_actions=n_actions, unavailable=0.3))
        assert len(mdp.cost) < mdp.n_states * mdp.n_actions
        assert assert_same_solve(mdp, **kwargs) == stop

    def test_repeated_rows_slow_stop(self):
        mdp = with_shared_rows(slow_swap_mdp())
        assert assert_same_solve(mdp, max_iters=20_708) == "slow"
        assert relative_value_iteration(mdp, max_iters=20_708)[3] == 1000

    def test_ir_static_plateau(self, ref_ladder):
        # IR at 6.5 dB on the constant-gain (20, 20) grid: the iterates
        # repeat and RVI stops on the plateau after 563 sweeps. Undamped,
        # long runs of improving sweeps, each broken inside a window, ended
        # on the plateau after about 54000 sweeps, never on the slow stop.
        mdp = build_static_mdp(HarqModel.from_db("ir", 6.5, 100, 4.0), 2.0, ref_ladder, 20, 20)
        assert assert_same_solve(mdp.core) == "plateau"

    def test_sticky_fading_slow_stop(self, ref_ladder):
        # IR at 6.5 dB on a {2, 1} chain that switches once in 10^4 slots:
        # the span shrinks too steadily for the plateau stop and far too
        # slowly to reach tol, so the slow stop fires after the second window.
        mdp = build_markov_mdp(HarqModel.from_db("ir", 6.5, 100, 4.0), sticky_channel(), ref_ladder, (4, 4), 10)
        assert assert_same_solve(mdp.core) == "slow"
        assert relative_value_iteration(mdp.core)[3] == 1000


class TestStackedKernel:
    """The builder writes each distinct kernel row once: a fresh row per
    (q, xi), a retransmission row per state that may retransmit and one inf
    row for every state that may not."""

    @pytest.mark.parametrize(
        "scheme, snr_db, fading, caps, q_max, rows",
        [
            ("cc", 10.0, False, (20,), 20, (230, 420)),
            ("cc", 10.0, True, (4, 4), 10, (299, 656)),
            ("ir", 6.5, True, (4, 4), 10, (299, 656)),
            ("cc", 8.5, True, (8, 8), 30, (3383, 7328)),
        ],
        ids=["static-10dB", "fading-10dB", "fading-ir-6.5dB", "fading-8x8-q30-8.5dB"],
    )
    def test_reference_grids(self, scheme, snr_db, fading, caps, q_max, rows, ref_ladder, ref_channel):
        ch = ref_channel if fading else static_channel(2.0)
        harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
        mdp = build_markov_mdp(harq, ch, ref_ladder, caps, q_max).core
        assert (len(mdp.cost), mdp.n_states * mdp.n_actions) == rows
        # no two rows are bit-equal
        words = np.hstack([mdp.idx, mdp.prob.view(np.int64), mdp.cost.view(np.int64)[:, None]])
        assert len({row.tobytes() for row in words}) == len(words)
        # rows[where] is the per-state kernel, bit for bit
        expected = reference_assemble(LinkErrors(harq, ch.gains).attempt, ch, ref_ladder, caps, q_max).core
        assert expected.where.tobytes() == np.arange(rows[1]).reshape(2, -1).tobytes()
        for name in ("idx", "prob", "cost"):
            got = getattr(mdp, name)[mdp.where]
            assert got.tobytes() == getattr(expected, name)[expected.where].tobytes(), name


def reference_iterates(mdp, sweeps):
    """The bytes of v and the span after each of the first `sweeps` sweeps
    of `reference_rvi`, as two lists."""
    n, n_actions = mdp.n_states, mdp.n_actions
    mdp = per_action(mdp)
    v = np.zeros(n)
    q = np.empty((n, n_actions))
    iterates, spans = [], []
    for _ in range(sweeps):
        for a in range(n_actions):
            idx, prob = mdp.transitions[a]
            q[:, a] = mdp.costs[:, a] + np.einsum("sk,sk->s", prob, v[idx])
        q[~mdp.available] = np.inf
        tv = (q.min(axis=1) + v) * 0.5
        diff = tv - v
        spans.append(2.0 * (float(diff.max()) - float(diff.min())))
        v = tv - tv[mdp.ref]
        iterates.append(v.tobytes())
    return iterates, spans


def final_period(mdp, sweeps):
    """The smallest p for which v after `sweeps` sweeps equals, bit for bit,
    v p sweeps earlier."""
    iterates, _ = reference_iterates(mdp, sweeps)
    return next(p for p in range(1, sweeps) if iterates[-1] == iterates[-1 - p])


def first_repeat(mdp, sweeps, period):
    """t1: the first sweep after the last one that improved the span whose v
    equals, bit for bit, v `period` sweeps before (sweeps count from 1)."""
    iterates, spans = reference_iterates(mdp, sweeps)
    best, last = np.inf, 0
    for t, span in enumerate(spans, start=1):
        if span < best * (1.0 - 1e-6):
            best, last = span, t
    return next(t for t in range(max(last + 1, period + 1), sweeps + 1)
                if iterates[t - 1] == iterates[t - 1 - period])


@pytest.fixture
def sweeps_run(monkeypatch):
    """Counts the sweeps `relative_value_iteration` actually runs. Each
    sweep makes one np.einsum call, and the greedy pass after the loop one
    more; call the returned function to read the count since the last read."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def einsum(self, *args, **kwargs):
            calls.append(None)
            return np.einsum(*args, **kwargs)

    monkeypatch.setattr(harqest.mdp_core, "np", CountingNumpy())

    def read():
        count = len(calls) - 1
        calls.clear()
        return count

    return read


class TestCycleJump:
    """Once v repeats bit for bit, RVI skips the sweeps that can only repeat
    earlier ones; every output stays that of the plain loop."""

    GRIDS = {
        # name: (scheme, snr_db, fading, caps, q_max, period of the final v)
        "static-10dB": ("cc", 10.0, False, (20,), 20, 1),
        "static-15dB": ("cc", 15.0, False, (20,), 20, 1),
        "fading-ir-8.5dB": ("ir", 8.5, True, (4, 4), 10, 4),
        "fading-10dB": ("cc", 10.0, True, (4, 4), 10, 1),
        "fading-8x8-q30-8.5dB": ("cc", 8.5, True, (8, 8), 30, 8),
        "fading-8.5dB": ("cc", 8.5, True, (4, 4), 10, 4),
    }

    def build(self, name, ref_ladder, ref_channel):
        scheme, snr_db, fading, caps, q_max, _ = self.GRIDS[name]
        ch = ref_channel if fading else static_channel(2.0)
        harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
        return build_markov_mdp(harq, ch, ref_ladder, caps, q_max).core

    @pytest.mark.parametrize("name", GRIDS)
    def test_periodic_plateaus_match_reference(self, name, ref_ladder, ref_channel, sweeps_run):
        mdp = self.build(name, ref_ladder, ref_channel)
        assert assert_same_solve(mdp) == "plateau"
        ran = sweeps_run()
        iterations = relative_value_iteration(mdp)[3]
        assert ran < iterations
        assert final_period(mdp, iterations) == self.GRIDS[name][-1]

    @pytest.mark.parametrize("name", GRIDS)
    def test_runs_at_most_two_periods_past_the_first_repeat(self, name, ref_ladder, ref_channel,
                                                            sweeps_run):
        # A repeat that starts at sweep t1 is confirmed p sweeps later, and
        # fewer than p sweeps are left after the jump.
        mdp = self.build(name, ref_ladder, ref_channel)
        period = self.GRIDS[name][-1]
        iterations = relative_value_iteration(mdp)[3]
        ran = sweeps_run()
        assert ran <= first_repeat(mdp, iterations, period) + 2 * period

    def test_budget_ends_inside_a_jump(self, ref_ladder, ref_channel, sweeps_run):
        # Period 4: of four consecutive budgets one ends on a whole number of
        # periods, and the other three run 1, 2 and 3 sweeps past the jump.
        mdp = self.build("fading-ir-8.5dB", ref_ladder, ref_channel)
        counts = []
        for max_iters in range(400, 404):
            assert assert_same_solve(mdp, max_iters=max_iters) == "budget"
            counts.append(sweeps_run() + 1)  # a budget failure makes no greedy pass
        assert sorted(counts) == list(range(min(counts), min(counts) + 4))
        assert max(counts) < 400

    def test_jump_lands_on_the_plateau_stop(self, ref_ladder, ref_channel, sweeps_run):
        # As above: one of four consecutive patience values makes the jump
        # end exactly where the plain loop stops.
        mdp = self.build("fading-ir-8.5dB", ref_ladder, ref_channel)
        counts = []
        for patience in range(500, 504):
            assert assert_same_solve(mdp, patience=patience) == "plateau"
            counts.append(sweeps_run())
        assert sorted(counts) == list(range(min(counts), min(counts) + 4))
        assert max(counts) < 500

    def test_static_solve_runs_few_sweeps(self, cc_model, ref_ladder, sweeps_run):
        # Damped sweeps contract by at most 1/2 each, so this fast-mixing
        # grid runs 58 sweeps before its iterates repeat (10 undamped).
        policy = solve_rvi(build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20))
        assert (policy.iterations, policy.converged) == (555, False)
        assert sweeps_run() < 60


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
        mdp = stacked_mdp(costs, [(idx, prob), (idx, prob)], np.ones((2, 2), bool))
        assert policy_average_cost(mdp, [0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_two_closed_classes(self):
        # from state 0 the chain is absorbed in state 1 or in state 2
        idx = np.array([[1, 2], [1, 1], [2, 2]])
        prob = np.array([[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
        mdp = stacked_mdp(np.ones((3, 1)), [(idx, prob)], np.ones((3, 1), bool))
        with pytest.raises(ModelError):
            policy_average_cost(mdp, [0, 0, 0])

    def test_rejects_unavailable_action(self):
        mdp = random_mdp(3)
        kernel = per_action(mdp)
        available = kernel.available.copy()
        available[0, 1] = False
        restricted = stacked_mdp(kernel.costs, kernel.transitions, available, ref=0)
        actions = np.ones(mdp.n_states, dtype=int)
        with pytest.raises(ValueError):
            policy_average_cost(restricted, actions)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_out_of_range_action(self, bad):
        # -1 used to evaluate the last action, and 2 to raise an IndexError
        mdp = random_mdp(3)
        actions = np.zeros(mdp.n_states, dtype=int)
        actions[1] = bad
        with pytest.raises(ValueError, match="must lie in 0..1"):
            policy_average_cost(mdp, actions)

    @pytest.mark.parametrize("fill", [0.7, 1.5, np.nan])
    def test_rejects_fractional_actions(self, fill):
        # 0.7 used to be evaluated as action 0
        mdp = random_mdp(3)
        with pytest.raises(ValueError, match=f"need one integer action per state, {mdp.n_states} in all"):
            policy_average_cost(mdp, [fill] * mdp.n_states)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_rejects_actions_of_another_length(self, change):
        # one action too few used to end in an IndexError
        mdp = random_mdp(3)
        with pytest.raises(ValueError, match=f"need one integer action per state, {mdp.n_states} in all"):
            policy_average_cost(mdp, [0] * (mdp.n_states + change))

    def test_integral_floats_are_actions(self):
        mdp = random_mdp(3)
        actions = np.zeros(mdp.n_states, dtype=int)
        assert policy_average_cost(mdp, actions.astype(float)) == policy_average_cost(mdp, actions)


class TestPolicyIteration:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_from_any_start(self, seed):
        mdp = random_mdp(seed, max_states=7)
        oracle_actions, oracle_gain = brute_force_optimum(mdp)
        for start in (np.zeros(mdp.n_states, dtype=np.int8), np.ones(mdp.n_states, dtype=np.int8)):
            actions, zeta, span, _ = policy_iteration(mdp, start)
            np.testing.assert_array_equal(actions, oracle_actions)
            assert zeta == policy_average_cost(mdp, actions)
            assert zeta == pytest.approx(oracle_gain, abs=1e-9)
            assert 0.0 <= span <= 1e-9

    def test_returns_previous_policy_when_cost_does_not_drop(self, monkeypatch):
        # Q promises a gain that the exact evaluation does not confirm
        mdp = random_mdp(0, max_states=7)
        start = 1 - brute_force_optimum(mdp)[0].astype(np.int8)
        evaluate = harqest.mdp_core._evaluate
        start_zeta = evaluate(mdp, start, harqest.mdp_core._successor_graph(mdp))[0]

        def no_gain(mdp_, actions, graph):
            zeta, h = evaluate(mdp_, actions, graph)
            return (zeta if np.array_equal(actions, start) else start_zeta), h

        monkeypatch.setattr(harqest.mdp_core, "_evaluate", no_gain)
        actions, zeta, _, steps = policy_iteration(mdp, start)
        np.testing.assert_array_equal(actions, start)
        assert (zeta, steps) == (start_zeta, 1)

    def test_rejects_state_that_never_reaches_the_class(self):
        # under action 0 state 2 keeps to itself; action 1 leads it to state 0
        idx = np.array([[1, 0], [0, 1], [2, 2]])
        prob = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        to_zero = np.array([[0, 0], [0, 0], [0, 0]])
        mdp = stacked_mdp(
            np.ones((3, 2)),
            [(idx, prob), (to_zero, np.array([[1.0, 0.0]] * 3))],
            np.ones((3, 2), bool),
        )
        assert policy_average_cost(mdp, [0, 0, 0]) == 1.0
        with pytest.raises(ModelError):
            policy_iteration(mdp, [0, 0, 0])

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_out_of_range_action(self, bad):
        mdp = random_mdp(3)
        start = np.zeros(mdp.n_states, dtype=np.int8)
        start[-1] = bad
        with pytest.raises(ValueError, match="must lie in 0..1"):
            policy_iteration(mdp, start)

    def test_rejects_an_action_beyond_int8(self):
        # 300 used to raise OverflowError from the int8 cast
        mdp = random_mdp(3)
        with pytest.raises(ValueError, match="must lie in 0..1"):
            policy_iteration(mdp, [300] + [0] * (mdp.n_states - 1))

    @pytest.mark.parametrize(
        "actions",
        [lambda n: [0.7] * n, lambda n: [0] * (n - 1)],
        ids=["fractional", "too-short"],
    )
    def test_rejects_malformed_actions(self, actions):
        mdp = random_mdp(3)
        with pytest.raises(ValueError, match="need one integer action per state"):
            policy_iteration(mdp, actions(mdp.n_states))


class TestHandOver:
    """RVI solves that stop slow finish with policy iteration; the grids that
    needed it before RVI was damped now end in RVI."""

    def test_ir_fading_mdp(self, ref_ladder, ref_channel):
        # IR at 6.5 dB on the {2, 1} chain, caps (4, 4), q_max 10: undamped
        # RVI ran out of its 100000 sweeps here, then stopped slow. Damped,
        # its iterates repeat and it stops on the plateau.
        mdp = build_markov_mdp(HarqModel.from_db("ir", 6.5, 100, 4.0), ref_channel, ref_ladder, (4, 4), 10)
        policy = solve_rvi_markov(mdp)
        assert (policy.iterations, policy.converged) == (565, False)
        assert abs(policy.zeta - policy_average_cost(mdp.core, policy.actions)) <= policy.span < 1e-7
        assert policy.zeta == pytest.approx(281.7399925, rel=1e-9)
        assert verify_switching_markov(policy).passed

    def test_ir_static_delay_cell(self, ref_ladder):
        mdp = build_static_mdp(HarqModel.from_db("ir", 6.5, 100, 4.0), 2.0, ref_ladder, 20, 20, "delay")
        policy = solve_rvi_markov(mdp)
        assert (policy.iterations, policy.converged) == (44, True)
        assert abs(policy.zeta - policy_average_cost(mdp.core, policy.actions)) <= policy.span < 1e-9
        assert verify_switching_markov(policy).passed

    def test_sticky_fading_slow_stop(self, ref_ladder):
        # The slow stop of `TestReferenceConformance`: policy iteration takes
        # RVI's table, finds nothing to improve and reports its exact cost.
        mdp = build_markov_mdp(HarqModel.from_db("ir", 6.5, 100, 4.0), sticky_channel(), ref_ladder, (4, 4), 10)
        assert relative_value_iteration(mdp.core)[5] == "slow"
        policy = solve_rvi_markov(mdp)
        assert (policy.iterations, policy.converged) == (1000, True)
        assert policy.zeta == policy_average_cost(mdp.core, policy.actions)
        assert policy.zeta == pytest.approx(281.7401355, rel=1e-9)
        assert 0.0 <= policy.span < 1e-6
        assert verify_switching_markov(policy).passed


class TestKernelValidation:
    def test_accepts_valid(self):
        assert kernel_row_error(random_mdp(2)) <= 1e-12

    def test_rejects_deficient_row(self):
        kernel = per_action(random_mdp(2))
        idx, prob = kernel.transitions[0]
        broken = prob.copy()
        broken[0] *= 0.5
        bad = stacked_mdp(kernel.costs, [(idx, broken), kernel.transitions[1]], kernel.available)
        assert kernel_row_error(bad) == pytest.approx(0.5, abs=1e-12)
