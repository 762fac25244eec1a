import itertools

import numpy as np
import pytest
from reference import (
    balance_stationary,
    high_snr_zeta_static,
    kernel_row,
    kernel_row_error,
    threshold_table_cost,
)

from harqest import (
    HarqModel,
    ModelError,
    Policy,
    block_error_prob,
    build_high_snr_chain,
    build_markov_mdp,
    build_static_mdp,
    check_stability_markov,
    high_snr_markov,
    policy_average_cost,
    solve_rvi,
    solve_rvi_markov,
    static_channel,
    verify_switching_markov,
)


@pytest.fixture(scope="module")
def ref_markov_mdp(cc_model, ref_channel, ref_ladder):
    return build_markov_mdp(cc_model, ref_channel, ref_ladder, (4, 4), 10, "mse")


@pytest.fixture(scope="module")
def ref_markov_policy(ref_markov_mdp):
    return solve_rvi_markov(ref_markov_mdp)


@pytest.fixture(scope="module")
def ref_lambda_primes(cc_model, ref_channel):
    return tuple(block_error_prob(cc_model, (g,)) for g in ref_channel.gains)


class TestStabilityCheck:
    def test_zero_lambdas_stable(self, ref_channel):
        report = check_stability_markov(ref_channel.pi, [0.0, 0.0], 100.0)
        assert report.stable and report.product == 0.0

    def test_single_state_reduces_to_static(self):
        # one state: the product is Lambda0 * rho^2(A) itself
        report = check_stability_markov(static_channel(2.0).pi, [0.3], 2.0)
        assert report.product == pytest.approx(0.6, rel=1e-12)
        assert report.stable

    def test_rejects_one_lambda_for_two_states(self, ref_channel):
        with pytest.raises(ValueError):
            check_stability_markov(ref_channel.pi, [0.3], 2.0)

    def test_region_nesting_in_growth_rate(self):
        # stable cell count shrinks monotonically as rho^2 grows
        pi = np.array([[0.8, 0.5], [0.2, 0.5]])
        grid = np.linspace(0.0, 1.0, 21)
        counts = []
        for rho_sq in (1.1, 2.0, 3.0, 5.0):
            count = sum(
                1
                for l1 in grid
                for l2 in grid
                if check_stability_markov(pi, [l1, l2], rho_sq).stable
            )
            counts.append(count)
        assert counts[0] > counts[1] > counts[2] > counts[3] > 0

    def test_region_containment(self):
        # nesting holds cellwise, not only in counts
        pi = np.array([[0.8, 0.5], [0.2, 0.5]])
        rng = np.random.default_rng(0)
        for _ in range(200):
            l1, l2 = rng.uniform(0.0, 1.0, size=2)
            stable_flags = [
                check_stability_markov(pi, [l1, l2], rho_sq).stable
                for rho_sq in (1.1, 2.0, 3.0, 5.0)
            ]
            for weaker, stronger in zip(stable_flags, stable_flags[1:]):
                assert weaker or not stronger

    def test_reference_point_stable_cc_and_ir(self, ref_channel, ref_system):
        from harqest import worst_retransmission_error_markov

        for scheme in ("cc", "ir"):
            model = HarqModel.from_db(scheme, 10.0, 100, 4.0)
            lambdas = [
                worst_retransmission_error_markov(model, ref_channel.gains, i, 8).value
                for i in range(2)
            ]
            report = check_stability_markov(ref_channel.pi, lambdas, ref_system.rho_squared)
            assert report.stable


class TestKernel:
    def test_state_count_matches_reference_truncation(self, ref_markov_mdp):
        assert len(ref_markov_mdp.states) == 328

    def test_rows_sum_to_one(self, ref_markov_mdp):
        assert kernel_row_error(ref_markov_mdp.core) <= 1e-12

    def test_readoff_retransmission_success(self, cc_model, ref_channel, ref_markov_mdp):
        # from ((1,0), q=3, xi=0), retransmit, success, next channel 1:
        # lands in ((2,0), 2, 1) with probability pi[1,0] * (1 - g~((1,0), gain0))
        from harqest import conditional_error_prob

        s = ref_markov_mdp.index[((1, 0), 3, 0)]
        idx, prob = kernel_row(ref_markov_mdp.core, s, 1)
        target = ref_markov_mdp.index[((2, 0), 2, 1)]
        g = conditional_error_prob(cc_model, ref_channel.gains, (1, 0), 0)
        expected = ref_channel.pi[1, 0] * (1.0 - g)
        hits = [p for j, p in zip(idx, prob) if j == target]
        assert len(hits) == 1
        assert hits[0] == pytest.approx(expected, rel=1e-12)

    def test_retransmission_blocked_at_cap(self, ref_markov_mdp):
        s = ref_markov_mdp.index[((4, 0), 5, 0)]  # current gain already at its cap
        assert not ref_markov_mdp.core.available[s, 1]
        s2 = ref_markov_mdp.index[((4, 0), 5, 1)]  # other gain still has room
        assert ref_markov_mdp.core.available[s2, 1]

    def test_single_state_channel_isomorphic_to_static(self, cc_model, ref_ladder):
        # the static entry point builds the one-state chain, and its solve
        # only relabels the states (r, q)
        static_mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 5, 8, "mse")
        markov_mdp = build_markov_mdp(
            cc_model, static_channel(2.0), ref_ladder, (5,), 8, "mse"
        )
        assert static_mdp.states == markov_mdp.states
        np.testing.assert_array_equal(static_mdp.core.available, markov_mdp.core.available)
        np.testing.assert_array_equal(static_mdp.core.costs, markov_mdp.core.costs)
        for (sidx, sprob), (midx, mprob) in zip(
            static_mdp.core.transitions, markov_mdp.core.transitions
        ):
            assert sidx.tobytes() == midx.tobytes() and sprob.tobytes() == mprob.tobytes()
        static_policy = solve_rvi(static_mdp)
        markov_policy = solve_rvi_markov(markov_mdp)
        assert static_policy.states == tuple((r, q) for ((r,), q, _) in markov_mdp.states)
        assert static_policy.zeta == markov_policy.zeta
        np.testing.assert_array_equal(static_policy.actions, markov_policy.actions)


class TestSolveRvi:
    def test_perfect_link(self, ref_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        mdp = build_markov_mdp(model, ref_channel, ref_ladder, (2, 2), 5, "mse")
        policy = solve_rvi_markov(mdp)
        assert policy.actions.sum() == 0
        assert policy.zeta == pytest.approx(ref_ladder.trace(1), abs=1e-6)

    def test_reference_policy(self, ref_markov_policy, ref_markov_mdp):
        assert verify_switching_markov(ref_markov_policy).passed
        zeros_good = sum(
            1
            for s, (_, _, xi) in enumerate(ref_markov_mdp.states)
            if xi == 0 and ref_markov_policy.actions[s] == 0
        )
        zeros_bad = sum(
            1
            for s, (_, _, xi) in enumerate(ref_markov_mdp.states)
            if xi == 1 and ref_markov_policy.actions[s] == 0
        )
        # fresh transmissions are chosen more often in the strong gain state
        assert zeros_good >= zeros_bad

    def test_matches_brute_force_tiny_instance(self, cc_model, ref_channel, ref_ladder):
        mdp = build_markov_mdp(cc_model, ref_channel, ref_ladder, (1, 1), 3, "mse")
        free = [s for s in range(len(mdp.states)) if mdp.core.available[s, 1]]
        best_gain, best_actions = np.inf, None
        for bits in itertools.product([0, 1], repeat=len(free)):
            actions = np.zeros(len(mdp.states), dtype=int)
            for s, bit in zip(free, bits):
                actions[s] = bit
            gain = policy_average_cost(mdp.core, actions)
            if gain < best_gain:
                best_gain, best_actions = gain, actions
        policy = solve_rvi_markov(mdp)
        assert policy.zeta == pytest.approx(best_gain, abs=1e-7)
        np.testing.assert_array_equal(policy.actions, best_actions)


class TestVerifySwitchingMarkov:
    def test_all_zero_passes(self, ref_markov_mdp):
        policy = Policy(
            actions=np.zeros(len(ref_markov_mdp.states), dtype=np.int8),
            states=ref_markov_mdp.states,
            zeta=0.0,
            span=0.0,
            iterations=0,
            converged=True,
        )
        assert verify_switching_markov(policy).passed

    def test_constructed_violation(self, ref_markov_mdp):
        actions = np.zeros(len(ref_markov_mdp.states), dtype=np.int8)
        actions[ref_markov_mdp.index[((2, 0), 5, 0)]] = 1  # ((1,0),5,0) stays fresh
        policy = Policy(
            actions=actions,
            states=ref_markov_mdp.states,
            zeta=0.0,
            span=0.0,
            iterations=0,
            converged=True,
        )
        report = verify_switching_markov(policy)
        assert not report.passed
        assert (((1, 0), 5, 0), ((2, 0), 5, 0)) in report.violations


def printed_block_pattern(pi, lambda_primes, thetas):
    """Reduced-chain transition matrix written exactly as the block layout:
    per source gain i, an (theta_i + 2)-square top-left block E_i (first row
    a lone 1 in the last column; second row 1-lambda except the last column;
    third row [0, lambda, 0, ...]; fourth row [lambda, 0, lambda, 0, ...];
    then lambda on the subdiagonal), an all-ones-first-row F_i on the right,
    zero rows below, all scaled by the channel column p_i."""
    b = len(thetas)
    t_max = max(thetas)
    block = t_max + 2
    m = np.zeros((b * block, b * block))
    for i in range(b):
        lam = lambda_primes[i]
        ti = thetas[i]
        assert ti >= 2, "the printed pattern is only well-formed for thresholds >= 2"
        e = np.zeros((ti + 2, ti + 2))
        e[0, -1] = 1.0
        e[1, :-1] = 1.0 - lam
        e[2, 1] = lam
        e[3, 0] = lam
        e[3, 2] = lam
        for row in range(4, ti + 2):
            e[row, row - 1] = lam
        f = np.zeros((ti + 2, t_max - ti))
        f[0, :] = 1.0
        within = np.zeros((block, block))
        within[: ti + 2, : ti + 2] = e
        within[: ti + 2, ti + 2 :] = f
        for xi_next in range(b):
            rows = slice(xi_next * block, (xi_next + 1) * block)
            cols = slice(i * block, (i + 1) * block)
            m[rows, cols] = pi[xi_next, i] * within
    return m


class TestHighSnrChain:
    def test_matches_printed_block_pattern(self, ref_channel, ref_ladder, ref_lambda_primes):
        thetas = (4, 3)
        chain = build_high_snr_chain(ref_channel, ref_lambda_primes, thetas, ref_ladder)
        oracle = printed_block_pattern(ref_channel.pi, ref_lambda_primes, thetas)
        np.testing.assert_allclose(chain.transition, oracle, atol=0.0)

    def test_column_stochastic_across_thetas(self, ref_channel, ref_ladder):
        for thetas in itertools.product(range(1, 5), repeat=2):
            chain = build_high_snr_chain(ref_channel, (0.3, 0.7), thetas, ref_ladder)
            np.testing.assert_allclose(chain.transition.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(chain.stationary >= 0.0)
            resid = np.max(np.abs(chain.transition @ chain.stationary - chain.stationary))
            assert resid <= 1e-8

    def test_unit_threshold_block_is_stochastic(self, ref_channel, ref_ladder):
        # with both thresholds at 1 the block still carries the age-3 state
        # reached by a failure out of the post-retransmission state
        chain = build_high_snr_chain(ref_channel, (0.4, 0.6), (1, 1), ref_ladder)
        assert chain.block_size == 4
        np.testing.assert_allclose(chain.transition.sum(axis=0), 1.0, atol=1e-12)

    def test_stationary_matches_empirical_frequencies(self, ref_channel, ref_ladder):
        # long-run state frequencies of the simulated chain vs the null-space
        # vector of (M - I), at unit thresholds
        chain = build_high_snr_chain(ref_channel, (0.4, 0.6), (1, 1), ref_ladder)
        n = chain.transition.shape[0]
        cumulative = np.cumsum(chain.transition, axis=0)
        rng = np.random.default_rng(123)
        counts = np.zeros(n)
        state = 0
        steps = 200_000
        for _ in range(steps):
            counts[state] += 1
            state = int(np.searchsorted(cumulative[:, state], rng.random(), side="right"))
        freq = counts / steps
        sigma = np.sqrt(np.clip(chain.stationary * (1 - chain.stationary), 1e-12, None) / steps)
        assert np.all(np.abs(freq - chain.stationary) <= 5.0 * sigma + 1e-3)

    def test_single_state_matches_static_closed_form(self, ref_ladder):
        ch = static_channel(2.0)
        for lam in (0.1, 0.3, 0.5):
            for theta in range(1, 9):
                chain = build_high_snr_chain(ch, (lam,), (theta,), ref_ladder)
                closed = high_snr_zeta_static(ref_ladder, lam, theta)
                assert chain.zeta == pytest.approx(closed, rel=1e-9)

    def test_zero_error_baseline(self, ref_channel, ref_ladder):
        result = high_snr_markov(ref_ladder, ref_channel, (0.0, 0.0), 4)
        assert result.zeta_star == pytest.approx(ref_ladder.trace(1), rel=1e-9)

    def test_search_returns_scan_minimum(self, ref_channel, ref_ladder, ref_lambda_primes):
        result = high_snr_markov(ref_ladder, ref_channel, ref_lambda_primes, 6)
        assert result.zeta_star == min(result.evaluated.values())
        assert result.evaluated[result.theta_star] == result.zeta_star
        direct = build_high_snr_chain(
            ref_channel, ref_lambda_primes, result.theta_star, ref_ladder
        )
        assert direct.zeta == pytest.approx(result.zeta_star, rel=1e-12)

    @pytest.mark.parametrize("thetas", [(1, 1), (3, 2), (2, 5)])
    def test_fresh_error_of_one_matches_balance_oracle(self, ref_channel, ref_ladder, thetas):
        # the weak state's fresh packets never arrive, its retransmissions do
        chain = build_high_snr_chain(ref_channel, (0.4, 1.0), thetas, ref_ladder)
        np.testing.assert_allclose(chain.transition.sum(axis=0), 1.0, atol=1e-12)
        oracle = balance_stationary(chain.transition)
        np.testing.assert_allclose(chain.stationary, oracle, rtol=1e-9, atol=1e-15)
        assert chain.zeta == pytest.approx(float(chain.costs @ oracle), rel=1e-12)

    def test_invalid_inputs(self, ref_channel, ref_ladder):
        with pytest.raises(ModelError):
            build_high_snr_chain(ref_channel, (0.5,), (2, 2), ref_ladder)
        for lambdas in ((0.5, 1.0 + 1e-12), (-1e-12, 0.5), (0.5, float("nan"))):
            with pytest.raises(ModelError):
                build_high_snr_chain(ref_channel, lambdas, (2, 2), ref_ladder)
        with pytest.raises(ModelError):
            build_high_snr_chain(ref_channel, (0.5, 0.5), (0, 2), ref_ladder)


class TestHighSnrExactCost:
    """The reduced chain against the exact cost of the same threshold table
    on the MDP's own kernel, under a link that never fails a retransmission."""

    def test_near_zero_error_matches_exactly(self, ref_static_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        lam = (block_error_prob(model, (2.0,)),)
        chain = build_high_snr_chain(ref_static_channel, lam, (2,), ref_ladder)
        assert threshold_table_cost(ref_static_channel, lam, (2,), ref_ladder) == chain.zeta
        assert chain.zeta == pytest.approx(ref_ladder.trace(1), rel=1e-12)

    def test_static_threshold_validation(self, cc_model, ref_static_channel, ref_ladder):
        lam = (block_error_prob(cc_model, (2.0,)),)
        exact = threshold_table_cost(ref_static_channel, lam, (2,), ref_ladder)
        chain = build_high_snr_chain(ref_static_channel, lam, (2,), ref_ladder)
        assert exact == pytest.approx(chain.zeta, rel=1e-12)
        assert exact == pytest.approx(
            high_snr_zeta_static(ref_ladder, 7.27617035635667e-4, 2), rel=1e-12
        )

    @pytest.mark.parametrize(
        "link, lambdas",
        [
            ("static", (0.3,)),
            ("static", (7.28e-4,)),
            ("static", (1.0,)),
            ("static", (2e-62,)),  # the static 16 dB fresh error: lambda'^5 underflows
            ("fading", (0.05, 0.6)),
            ("fading", (0.2, 1.0)),
            ("fading", (5e-324, 1e-62)),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(map(repr, v)),
    )
    def test_every_threshold_vector(
        self, ref_channel, ref_static_channel, ref_ladder, link, lambdas
    ):
        ch = ref_static_channel if link == "static" else ref_channel
        for thetas in itertools.product(range(1, 9), repeat=ch.size):
            exact = threshold_table_cost(ch, lambdas, thetas, ref_ladder)
            chain = build_high_snr_chain(ch, lambdas, thetas, ref_ladder)
            assert exact == pytest.approx(chain.zeta, rel=1e-12, abs=0.0), thetas
            if link == "static" and lambdas[0] < 1.0:
                closed = high_snr_zeta_static(ref_ladder, lambdas[0], thetas[0])
                assert exact == pytest.approx(closed, rel=1e-12, abs=0.0), thetas
