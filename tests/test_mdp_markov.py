import itertools

import numpy as np
import pytest
from reference import (
    balance_stationary,
    high_snr_zeta_static,
    kernel_row,
    kernel_row_error,
    per_action,
    threshold_table_cost,
)

from harqest import (
    HarqModel,
    LinkErrors,
    ModelError,
    Policy,
    block_error_prob,
    build_markov_mdp,
    build_static_mdp,
    check_stability_markov,
    gth_stationary,
    high_snr_markov,
    policy_average_cost,
    solve_rvi,
    solve_rvi_markov,
    static_channel,
    verify_switching_markov,
)
from harqest import mdp_markov
from harqest.mdp_markov import _threshold_chains, assemble_markov_mdp


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
                worst_retransmission_error_markov(LinkErrors(model, ref_channel.gains), i, 8).value
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
        s = ref_markov_mdp.grid.number((1, 0), 3, 0)
        idx, prob = kernel_row(ref_markov_mdp.core, s, 1)
        target = ref_markov_mdp.grid.number((2, 0), 2, 1)
        g = LinkErrors(cc_model, ref_channel.gains).attempt((1, 0), 0)
        expected = ref_channel.pi[1, 0] * (1.0 - g)
        hits = [p for j, p in zip(idx, prob) if j == target]
        assert len(hits) == 1
        assert hits[0] == pytest.approx(expected, rel=1e-12)

    def test_retransmission_blocked_at_cap(self, ref_markov_mdp):
        s = ref_markov_mdp.grid.number((4, 0), 5, 0)  # current gain already at its cap
        assert not ref_markov_mdp.core.available[s, 1]
        s2 = ref_markov_mdp.grid.number((4, 0), 5, 1)  # other gain still has room
        assert ref_markov_mdp.core.available[s2, 1]

    def test_single_state_channel_isomorphic_to_static(self, cc_model, ref_ladder):
        # the static entry point builds the one-state chain, and its solve
        # only relabels the states (r, q)
        static_mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 5, 8, "mse")
        markov_mdp = build_markov_mdp(
            cc_model, static_channel(2.0), ref_ladder, (5,), 8, "mse"
        )
        assert static_mdp.states == markov_mdp.states
        for name in ("idx", "prob", "cost", "where"):
            assert getattr(static_mdp.core, name).tobytes() == getattr(markov_mdp.core, name).tobytes()
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
        policy = table(ref_markov_mdp, np.zeros(len(ref_markov_mdp.states), dtype=np.int8))
        assert verify_switching_markov(policy).passed

    def test_constructed_violation(self, ref_markov_mdp):
        actions = np.zeros(len(ref_markov_mdp.states), dtype=np.int8)
        actions[ref_markov_mdp.grid.number((2, 0), 5, 0)] = 1  # ((1,0),5,0) stays fresh
        report = verify_switching_markov(table(ref_markov_mdp, actions))
        assert not report.passed
        assert (((1, 0), 5, 0), ((2, 0), 5, 0)) in report.violations

    def test_constructed_violation_along_the_age(self, ref_markov_mdp):
        actions = np.zeros(len(ref_markov_mdp.states), dtype=np.int8)
        actions[ref_markov_mdp.grid.number((1, 0), 5, 0)] = 1  # ((1,0),6,0) stays fresh
        report = verify_switching_markov(table(ref_markov_mdp, actions))
        assert report.violations == ((((1, 0), 5, 0), ((1, 0), 6, 0)),)

    def test_no_neighbor_past_the_caps_or_q_max(self, ref_markov_mdp):
        # Fresh at ((4,3),7,0) binds no neighbor: gain 0 is at its cap, and
        # (4,4) starts at age 8. Retransmitting at ((1,0),10,0) binds none
        # either: 10 is q_max, and the next state is ((1,1),2,0).
        grid = ref_markov_mdp.grid
        actions = np.ones(len(ref_markov_mdp.states), dtype=np.int8)
        actions[[grid.number((4, 3), 7, 0), grid.number((1, 1), 2, 0)]] = 0
        assert verify_switching_markov(table(ref_markov_mdp, actions)).passed

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_the_per_state_scan(self, seed, ref_markov_mdp):
        # The same violations, in the same order, as one pass over every
        # state in grid order, on random tables with many violations.
        rng = np.random.default_rng(seed)
        available = ref_markov_mdp.core.available[:, 1]
        actions = np.where(available, rng.integers(0, 2, len(available)), 0).astype(np.int8)
        policy = table(ref_markov_mdp, actions)
        violations = verify_switching_markov(policy).violations
        assert len(violations) > 20
        assert violations == per_state_violations(policy)


def table(mdp, actions):
    """A policy of these actions on the grid of `mdp`."""
    return Policy(actions=actions, grid=mdp.grid, gains=mdp.channel.gains, zeta=0.0, span=0.0,
                  iterations=0, converged=True)


def per_state_violations(policy):
    """Switching violations found by visiting every state in grid order."""
    index = {state: s for s, state in enumerate(policy.grid.states)}
    violations = []
    for s, (omega, q, xi) in enumerate(policy.grid.states):
        if policy.actions[s] == 0:
            for i in range(len(omega)):
                bumped = tuple(o + (1 if j == i else 0) for j, o in enumerate(omega))
                neighbor = index.get((bumped, q, xi))
                if neighbor is not None and policy.actions[neighbor] != 0:
                    violations.append(((omega, q, xi), (bumped, q, xi)))
        else:
            neighbor = index.get((omega, q + 1, xi))
            if neighbor is not None and policy.actions[neighbor] != 1:
                violations.append(((omega, q, xi), (omega, q + 1, xi)))
    return tuple(violations)


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
        # per gain block: the post-retransmission state (age 2), then round
        # length 1 at ages 1..max(thetas) + 1
        thetas = (4, 3)
        result = high_snr_markov(ref_ladder, ref_channel, ref_lambda_primes, 4)
        oracle = printed_block_pattern(ref_channel.pi, ref_lambda_primes, thetas)
        costs = np.array([ref_ladder.trace(q) for q in (2, *range(1, max(thetas) + 2))] * 2)
        expected = float(costs @ balance_stationary(oracle))
        assert result.evaluated[thetas] == pytest.approx(expected, rel=1e-12)

    def test_single_state_matches_static_closed_form(self, ref_ladder):
        ch = static_channel(2.0)
        for lam in (0.1, 0.3, 0.5):
            result = high_snr_markov(ref_ladder, ch, (lam,), 8)
            for (theta,), zeta in result.evaluated.items():
                closed = high_snr_zeta_static(ref_ladder, lam, theta)
                assert zeta == pytest.approx(closed, rel=1e-9)

    def test_zero_error_baseline(self, ref_channel, ref_ladder):
        result = high_snr_markov(ref_ladder, ref_channel, (0.0, 0.0), 4)
        assert result.zeta_star == pytest.approx(ref_ladder.trace(1), rel=1e-9)

    def test_search_returns_scan_minimum(self, ref_channel, ref_ladder, ref_lambda_primes):
        result = high_snr_markov(ref_ladder, ref_channel, ref_lambda_primes, 6)
        assert sorted(result.evaluated) == list(itertools.product(range(1, 7), repeat=2))
        assert result.zeta_star == min(result.evaluated.values())
        assert result.evaluated[result.theta_star] == result.zeta_star
        assert min(result.evaluated, key=result.evaluated.__getitem__) == result.theta_star
        exact = threshold_table_cost(ref_channel, ref_lambda_primes, result.theta_star, ref_ladder)
        assert result.zeta_star == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("thetas", [(1, 1), (3, 2), (2, 5)])
    def test_fresh_error_of_one_matches_balance_oracle(self, ref_channel, ref_ladder, thetas):
        # the weak state's fresh packets never arrive, its retransmissions do
        lambdas = (0.4, 1.0)
        zeta = high_snr_markov(ref_ladder, ref_channel, lambdas, 5).evaluated[thetas]
        mdp = assemble_markov_mdp(
            lambda omega, xi: 0.0 if any(omega) else lambdas[xi], ref_channel, ref_ladder, (2, 2), 7
        )
        # the table on the unlumped kernel, as a column-stochastic matrix
        retx = np.array([sum(o) == 1 and q > thetas[xi] for o, q, xi in mdp.states])[:, None]
        kernel = per_action(mdp.core)
        (fresh_idx, fresh_p), (retx_idx, retx_p) = kernel.transitions
        n = len(mdp.states)
        chain = np.zeros((n, n))
        at = (np.where(retx, retx_idx, fresh_idx), np.arange(n)[:, None])
        np.add.at(chain, at, np.where(retx, retx_p, fresh_p))
        oracle = balance_stationary(chain)
        assert zeta == pytest.approx(float(kernel.costs[:, 0] @ oracle), rel=1e-12)

    def test_invalid_inputs(self, ref_channel, ref_ladder):
        with pytest.raises(ModelError):
            high_snr_markov(ref_ladder, ref_channel, (0.5,), 2)
        for lambdas in ((0.5, 1.0 + 1e-12), (-1e-12, 0.5), (0.5, float("nan"))):
            with pytest.raises(ModelError):
                high_snr_markov(ref_ladder, ref_channel, lambdas, 2)
        with pytest.raises(ValueError):
            high_snr_markov(ref_ladder, ref_channel, (0.5, 0.5), 0)


class TestHighSnrExactCost:
    """The search's lumped chain against the exact cost of the same threshold
    table on the unlumped kernel, under a link that never fails a
    retransmission."""

    def test_near_zero_error_matches_exactly(self, ref_static_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        lam = (block_error_prob(model, (2.0,)),)
        zeta = high_snr_markov(ref_ladder, ref_static_channel, lam, 2).evaluated[(2,)]
        assert threshold_table_cost(ref_static_channel, lam, (2,), ref_ladder) == zeta
        assert zeta == pytest.approx(ref_ladder.trace(1), rel=1e-12)

    def test_static_threshold_validation(self, cc_model, ref_static_channel, ref_ladder):
        lam = (block_error_prob(cc_model, (2.0,)),)
        exact = threshold_table_cost(ref_static_channel, lam, (2,), ref_ladder)
        zeta = high_snr_markov(ref_ladder, ref_static_channel, lam, 2).evaluated[(2,)]
        assert exact == pytest.approx(zeta, rel=1e-12)
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
        result = high_snr_markov(ref_ladder, ch, lambdas, 8)
        assert sorted(result.evaluated) == list(itertools.product(range(1, 9), repeat=ch.size))
        for thetas, zeta in result.evaluated.items():
            exact = threshold_table_cost(ch, lambdas, thetas, ref_ladder)
            assert exact == pytest.approx(zeta, rel=1e-12, abs=0.0), thetas
            if link == "static" and lambdas[0] < 1.0:
                closed = high_snr_zeta_static(ref_ladder, lambdas[0], thetas[0])
                assert exact == pytest.approx(closed, rel=1e-12, abs=0.0), thetas


class TestHighSnrStackedCall:
    """The search costs every table in one stacked `gth_stationary` call, and
    each cost is the one a lone call on that table's chain gives."""

    @pytest.mark.parametrize(
        "link, lambdas",
        [("fading", (0.2, 1.0)), ("fading", (5e-324, 1e-62)), ("static", (1.0,))],
        ids=lambda v: v if isinstance(v, str) else "-".join(map(repr, v)),
    )
    def test_every_cost_matches_a_lone_call(
        self, monkeypatch, ref_channel, ref_static_channel, ref_ladder, link, lambdas
    ):
        ch = ref_static_channel if link == "static" else ref_channel
        shapes = []

        def spy(p, start=0):
            shapes.append(np.shape(p))
            return gth_stationary(p, start)

        monkeypatch.setattr(mdp_markov, "gth_stationary", spy)
        result = high_snr_markov(ref_ladder, ch, lambdas, 8)
        tables, chains, costs, ref = _threshold_chains(ref_ladder, ch, lambdas, 8)
        assert shapes == [chains.shape]
        assert list(result.evaluated) == tables
        for thetas, chain in zip(tables, chains):
            lone = float(costs @ gth_stationary(chain, start=ref))
            assert result.evaluated[thetas] == pytest.approx(lone, rel=1e-15, abs=0.0), thetas
