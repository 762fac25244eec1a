import itertools

import numpy as np
import pytest

from harqest import (
    HarqModel,
    Policy,
    build_static_mdp,
    check_stability_static,
    high_snr_optimal_static,
    high_snr_zeta_static,
    myopic_policy,
    policy_average_cost,
    solve_rvi,
    verify_switching,
)
from harqest.mdp_static import build_static_mdp_from_error_probs


@pytest.fixture(scope="module")
def ref_mdp(cc_model, ref_ladder):
    return build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "mse")


@pytest.fixture(scope="module")
def ref_policy(ref_mdp):
    return solve_rvi(ref_mdp)


def reduced_chain_zeta_oracle(ladder, lam, theta):
    """Average cost of the perfect-retransmission threshold chain, found by
    enumerating its states and solving the balance equations directly."""
    q_top = max(theta + 1, 3)
    ladder = ladder.extended(q_top)
    states = [("post_retx", 2)] + [("round1", q) for q in range(1, q_top + 1)]
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    t = np.zeros((n, n))  # t[j, i] = P(j | i)
    for kind, q in states:
        i = pos[(kind, q)]
        if kind == "post_retx" or q <= theta:
            t[pos[("round1", 1)], i] += 1.0 - lam
            t[pos[("round1", q + 1)], i] += lam
        else:
            t[pos[("post_retx", 2)], i] += 1.0
    a = t - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    dist = np.linalg.solve(a, b)
    costs = np.array([ladder.trace(q) for (_, q) in states])
    return float(dist @ costs)


class TestStabilityCheck:
    def test_zero_error_is_stable(self):
        report = check_stability_static(0.0, 100.0)
        assert report.stable and report.product == 0.0

    def test_reference_point_stable(self, cc_model, ir_model, ref_system):
        from harqest import worst_retransmission_error_static

        for model in (cc_model, ir_model):
            worst = worst_retransmission_error_static(model, 2.0, 20)
            assert check_stability_static(worst.value, ref_system.rho_squared).stable

    def test_large_product_not_guaranteed(self):
        report = check_stability_static(0.5, 3.3801)
        assert report.product == pytest.approx(1.69005)
        assert not report.stable
        assert report.margin < 0


class TestKernel:
    def test_readoff_new_transmission_from_1_1(self, ref_mdp):
        s = ref_mdp.index[(1, 1)]
        idx, prob = ref_mdp.core.row(s, 0)
        g1 = ref_mdp.g_table[1]
        assert list(idx) == [ref_mdp.index[(1, 1)], ref_mdp.index[(1, 2)]]
        assert prob[0] == pytest.approx(1.0 - g1) and prob[1] == pytest.approx(g1)

    def test_readoff_retransmission_from_2_5(self, ref_mdp):
        s = ref_mdp.index[(2, 5)]
        idx, prob = ref_mdp.core.row(s, 1)
        g3 = ref_mdp.g_table[3]
        assert list(idx) == [ref_mdp.index[(3, 3)], ref_mdp.index[(3, 6)]]
        assert prob[0] == pytest.approx(1.0 - g3) and prob[1] == pytest.approx(g3)

    def test_rows_sum_to_one_small_grid(self, cc_model, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 6, 6, "mse")
        for a in range(2):
            idx, prob = mdp.core.transitions[a]
            for s in range(len(mdp.states)):
                if mdp.core.available[s, a]:
                    assert abs(prob[s].sum() - 1.0) <= 1e-12

    def test_failure_clamps_at_q_max(self, ref_mdp):
        s = ref_mdp.index[(1, 20)]
        idx, _ = ref_mdp.core.row(s, 0)
        assert list(idx) == [ref_mdp.index[(1, 1)], ref_mdp.index[(1, 20)]]

    def test_retransmission_unavailable_at_r_max(self, ref_mdp):
        s = ref_mdp.index[(20, 20)]
        assert not ref_mdp.core.available[s, 1]

    def test_truncation_too_small_rejected(self, cc_model, ref_ladder):
        from harqest import ConfigError

        with pytest.raises(ConfigError):
            build_static_mdp(cc_model, 2.0, ref_ladder, 1, 6, "mse")


class TestSolveRvi:
    def test_perfect_link_freshness_everywhere(self, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        mdp = build_static_mdp(model, 2.0, ref_ladder, 8, 8, "mse")
        policy = solve_rvi(mdp)
        assert policy.actions.sum() == 0
        assert policy.zeta == pytest.approx(ref_ladder.trace(1), abs=1e-6)

    def test_matches_brute_force_on_toy_grid(self, cc_model, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 2, 2, "mse")
        free = [s for s in range(len(mdp.states)) if mdp.core.available[s, 1]]
        best_gain, best_actions = np.inf, None
        for bits in itertools.product([0, 1], repeat=len(free)):
            actions = np.zeros(len(mdp.states), dtype=int)
            for s, bit in zip(free, bits):
                actions[s] = bit
            gain = policy_average_cost(mdp.core, actions)
            if gain < best_gain:
                best_gain, best_actions = gain, actions
        policy = solve_rvi(mdp)
        assert policy.zeta == pytest.approx(best_gain, abs=1e-7)
        np.testing.assert_array_equal(policy.actions, best_actions)

    def test_reference_policy_structure(self, ref_policy):
        assert verify_switching(ref_policy).passed
        index = ref_policy.index()
        # states on the r = q diagonal transmit fresh: the pending round's
        # content is as old as what the receiver already has
        for r in range(1, 21):
            assert ref_policy.actions[index[(r, r)]] == 0
        # deep-age states with a short round retransmit
        assert ref_policy.actions[index[(1, 20)]] == 1

    def test_gain_invariant_to_reference_state(self, ref_mdp, ref_policy):
        from harqest import FiniteAverageCostMdp
        from harqest.mdp_core import relative_value_iteration

        alt_core = FiniteAverageCostMdp(
            costs=ref_mdp.core.costs,
            transitions=ref_mdp.core.transitions,
            available=ref_mdp.core.available,
            ref=ref_mdp.index[(3, 5)],
        )
        _, zeta_alt, span_alt, _, _ = relative_value_iteration(alt_core)
        assert abs(zeta_alt - ref_policy.zeta) <= 2.0 * max(span_alt, ref_policy.span)

    def test_optimal_not_beaten_by_alternatives(self, cc_model, ref_ladder):
        # moderate truncation keeps the value range well-conditioned
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 8, 8, "mse")
        policy = solve_rvi(mdp)
        myopic = myopic_policy(mdp)
        delay = solve_rvi(build_static_mdp(cc_model, 2.0, ref_ladder, 8, 8, "delay"))
        psi = np.array([0 if r == q or r == 8 else 1 for (r, q) in mdp.states])
        no_retx = np.zeros(len(mdp.states), dtype=int)
        slack = policy.span + 1e-6
        optimal_gain = policy_average_cost(mdp.core, policy.actions)
        for other in (myopic.actions, delay.actions, psi, no_retx):
            assert optimal_gain <= policy_average_cost(mdp.core, other) + slack


class TestExactPolicyCost:
    # Costs of the solved tables on the constant-gain r_max = q_max = 20 grid,
    # recomputed from the link model and the Riccati recursion in 60-digit
    # arithmetic. Stage costs reach 1e15 there, so an evaluation that loses
    # tail probabilities near 1e-16 is off in the fourth digit (5715.74 and
    # 136.41 from a dense balance solve).
    @pytest.mark.parametrize(
        "snr_db, exact", [(5.0, 5714.7546366891265), (8.5, 135.97696834499507)]
    )
    def test_rvi_policy_cost_matches_60_digit_value(self, ref_ladder, snr_db, exact):
        mdp = build_static_mdp(HarqModel.from_db("cc", snr_db, 100, 4.0), 2.0, ref_ladder, 20, 20)
        cost = policy_average_cost(mdp.core, solve_rvi(mdp).actions)
        assert cost == pytest.approx(exact, rel=1e-9)


class TestSwitchingSweep:
    def test_switching_holds_wherever_existence_condition_does(self, ref_ladder, ref_system):
        # SNR x gain x scheme sweep; the threshold structure is guaranteed
        # only where a bounded-MSE policy is guaranteed to exist, and the one
        # swept cell violating it (5 dB, h=1, cc) is indeed infeasible there
        from harqest import worst_retransmission_error_static

        outcomes = {}
        for snr_db in (5.0, 10.0, 15.0):
            for gain in (1.0, 2.0):
                for scheme in ("cc", "ir"):
                    model = HarqModel.from_db(scheme, snr_db, 100, 4.0)
                    policy = solve_rvi(build_static_mdp(model, gain, ref_ladder, 20, 20, "mse"))
                    worst = worst_retransmission_error_static(model, gain, 20)
                    stable = check_stability_static(worst.value, ref_system.rho_squared).stable
                    violations = len(verify_switching(policy).violations)
                    outcomes[(snr_db, gain, scheme)] = (stable, violations)
                    if stable:
                        assert violations == 0, (snr_db, gain, scheme)
        infeasible = {k: v for k, v in outcomes.items() if not v[0]}
        print(f"infeasible cells (stability product >= 1): {infeasible}")


class TestVerifySwitching:
    def test_all_zero_passes(self, ref_mdp):
        policy = Policy(
            actions=np.zeros(len(ref_mdp.states), dtype=np.int8),
            states=ref_mdp.states,
            zeta=0.0,
            span=0.0,
            iterations=0,
            converged=True,
        )
        assert verify_switching(policy).passed

    def test_constructed_violation_reported(self, ref_mdp):
        actions = np.zeros(len(ref_mdp.states), dtype=np.int8)
        actions[ref_mdp.index[(3, 5)]] = 1  # (2,5) fresh but (3,5) retransmits
        policy = Policy(
            actions=actions,
            states=ref_mdp.states,
            zeta=0.0,
            span=0.0,
            iterations=0,
            converged=True,
        )
        report = verify_switching(policy)
        assert not report.passed
        assert ((2, 5), (3, 5)) in report.violations


class TestMyopicPolicy:
    def test_no_reliability_edge_means_fresh(self, ref_ladder):
        g_table = {r: 0.3 for r in range(1, 5)}
        mdp = build_static_mdp_from_error_probs(g_table, ref_ladder, 4, 6, "mse")
        policy = myopic_policy(mdp)
        assert policy.actions.sum() == 0

    def test_ladder_top_retransmits(self, ref_mdp):
        policy = myopic_policy(ref_mdp)
        index = ref_mdp.index
        assert policy.actions[index[(1, 20)]] == 1

    def test_matches_expected_cost_comparison(self, ref_mdp):
        # direct expected-next-cost comparison as the oracle at every state
        ladder = ref_mdp.ladder.extended(ref_mdp.q_max + 1)
        policy = myopic_policy(ref_mdp)
        g1 = ref_mdp.g_table[1]
        for s, (r, q) in enumerate(ref_mdp.states):
            if r >= ref_mdp.r_max:
                assert policy.actions[s] == 0
                continue
            g_next = ref_mdp.g_table[r + 1]
            cost_fresh = g1 * ladder.trace(q + 1) + (1 - g1) * ladder.trace(1)
            cost_retx = g_next * ladder.trace(q + 1) + (1 - g_next) * ladder.trace(r + 1)
            expected = 0 if cost_retx - cost_fresh >= 0 else 1
            assert policy.actions[s] == expected

    def test_is_switching_type(self, ref_mdp):
        assert verify_switching(myopic_policy(ref_mdp)).passed


class TestHighSnrClosedForm:
    def test_zero_error_gives_baseline(self, ref_ladder):
        result = high_snr_optimal_static(ref_ladder, 0.0, 8)
        assert result.theta_star == 1
        assert result.zeta_star == pytest.approx(ref_ladder.trace(1), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("theta", range(1, 9))
    def test_matches_chain_oracle(self, ref_ladder, lam, theta):
        closed = high_snr_zeta_static(ref_ladder, lam, theta)
        oracle = reduced_chain_zeta_oracle(ref_ladder, lam, theta)
        assert closed == pytest.approx(oracle, rel=1e-9)

    def test_optimum_is_scan_minimum(self, ref_ladder):
        result = high_snr_optimal_static(ref_ladder, 0.3, 8)
        assert result.zeta_star == min(result.zetas)
        assert result.zetas[result.theta_star - 1] == result.zeta_star


class TestDelayMode:
    def test_delay_cost_is_age(self, cc_model, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 6, 6, "delay")
        for s, (_, q) in enumerate(mdp.states):
            assert mdp.core.costs[s, 0] == q

    def test_policy_count_comparison(self, cc_model, ref_ladder, ref_policy):
        delay = solve_rvi(build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "delay"))
        mse_zero = int((ref_policy.actions == 0).sum())
        delay_zero = int((delay.actions == 0).sum())
        # delay costs grow linearly, MSE costs exponentially: the delay
        # policy transmits fresh at least as often
        assert delay_zero >= mse_zero
        print(f"fresh-transmission states: delay {delay_zero} vs mse {mse_zero}")
