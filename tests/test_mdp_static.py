"""The constant-gain link, solved as the one-state Markov chain.

`build_static_mdp` builds that chain. Its states are ((r,), q, 0): r attempts
in the pending round, age q; `at(mdp, r, q)` looks one up. The (r, q)
labels that the benchmark reads off `solve_rvi` are checked at the end.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from reference import (
    balance_stationary,
    high_snr_zeta_static,
    kernel_row,
    kernel_row_error,
    myopic_policy,
)

import harqest
import harqest.cli
from harqest import (
    ConfigError,
    FiniteAverageCostMdp,
    HarqModel,
    Policy,
    build_cost_ladder,
    build_high_snr_chain,
    build_static_mdp,
    check_stability_markov,
    high_snr_markov,
    policy_average_cost,
    relative_value_iteration,
    solve_rvi,
    solve_rvi_markov,
    solve_steady_state,
    static_channel,
    verify_switching_markov,
    worst_retransmission_error_markov,
)
from harqest.cli import main
from harqest.config import load_config
from harqest.mdp_markov import assemble_markov_mdp

STATIC_PI = np.ones((1, 1))


def at(mdp, r, q):
    return mdp.index[((r,), q, 0)]


@pytest.fixture(scope="module")
def ref_mdp(cc_model, ref_ladder):
    return build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20)


@pytest.fixture(scope="module")
def ref_policy(ref_mdp):
    return solve_rvi_markov(ref_mdp)


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
    costs = np.array([ladder.trace(q) for (_, q) in states])
    return float(balance_stationary(t) @ costs)


class TestStabilityCheck:
    def test_zero_error_is_stable(self):
        report = check_stability_markov(STATIC_PI, [0.0], 100.0)
        assert report.stable and report.product == 0.0

    def test_reference_point_stable(self, cc_model, ir_model, ref_system):
        for model in (cc_model, ir_model):
            worst = worst_retransmission_error_markov(model, (2.0,), 0, 19)
            assert check_stability_markov(STATIC_PI, [worst.value], ref_system.rho_squared).stable

    def test_large_product_not_guaranteed(self):
        report = check_stability_markov(STATIC_PI, [0.5], 3.3801)
        assert report.product == pytest.approx(1.69005)
        assert not report.stable
        assert report.product > 1


class TestKernel:
    def test_readoff_new_transmission_from_1_1(self, ref_mdp):
        idx, prob = kernel_row(ref_mdp.core, at(ref_mdp, 1, 1), 0)
        g1 = ref_mdp.errors[((0,), 0)]
        assert list(idx) == [at(ref_mdp, 1, 1), at(ref_mdp, 1, 2)]
        assert prob[0] == pytest.approx(1.0 - g1) and prob[1] == pytest.approx(g1)

    def test_readoff_retransmission_from_2_5(self, ref_mdp):
        idx, prob = kernel_row(ref_mdp.core, at(ref_mdp, 2, 5), 1)
        g3 = ref_mdp.errors[((2,), 0)]
        assert list(idx) == [at(ref_mdp, 3, 3), at(ref_mdp, 3, 6)]
        assert prob[0] == pytest.approx(1.0 - g3) and prob[1] == pytest.approx(g3)

    def test_rows_sum_to_one_small_grid(self, cc_model, ref_ladder):
        assert kernel_row_error(build_static_mdp(cc_model, 2.0, ref_ladder, 6, 6).core) <= 1e-12

    def test_failure_clamps_at_q_max(self, ref_mdp):
        idx, _ = kernel_row(ref_mdp.core, at(ref_mdp, 1, 20), 0)
        assert list(idx) == [at(ref_mdp, 1, 1), at(ref_mdp, 1, 20)]

    def test_retransmission_unavailable_at_r_max(self, ref_mdp):
        assert not ref_mdp.core.available[at(ref_mdp, 20, 20), 1]

    def test_truncation_too_small_rejected(self, cc_model, ref_ladder):
        # an attempt cap below 1, or ages that cannot hold a full round
        with pytest.raises(ConfigError):
            build_static_mdp(cc_model, 2.0, ref_ladder, 0, 6)
        with pytest.raises(ConfigError):
            build_static_mdp(cc_model, 2.0, ref_ladder, 6, 5)


class TestSolveRvi:
    def test_perfect_link_freshness_everywhere(self, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        policy = solve_rvi_markov(build_static_mdp(model, 2.0, ref_ladder, 8, 8))
        assert policy.actions.sum() == 0
        assert policy.zeta == pytest.approx(ref_ladder.trace(1), abs=1e-6)

    def test_matches_brute_force_on_toy_grid(self, cc_model, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 2, 2)
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

    def test_reference_policy_structure(self, ref_mdp, ref_policy):
        assert verify_switching_markov(ref_policy).passed
        # states on the r = q diagonal transmit fresh: the pending round's
        # content is as old as what the receiver already has
        for r in range(1, 21):
            assert ref_policy.actions[at(ref_mdp, r, r)] == 0
        # deep-age states with a short round retransmit
        assert ref_policy.actions[at(ref_mdp, 1, 20)] == 1

    def test_gain_invariant_to_reference_state(self, ref_mdp, ref_policy):
        alt_core = FiniteAverageCostMdp(
            costs=ref_mdp.core.costs,
            transitions=ref_mdp.core.transitions,
            available=ref_mdp.core.available,
            ref=at(ref_mdp, 3, 5),
        )
        _, zeta_alt, span_alt, _, _, _ = relative_value_iteration(alt_core)
        assert abs(zeta_alt - ref_policy.zeta) <= 2.0 * max(span_alt, ref_policy.span)

    def test_optimal_not_beaten_by_alternatives(self, cc_model, ref_ladder):
        # moderate truncation keeps the value range well-conditioned
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 8, 8)
        policy = solve_rvi_markov(mdp)
        myopic = myopic_policy(mdp)
        delay = solve_rvi_markov(build_static_mdp(cc_model, 2.0, ref_ladder, 8, 8, "delay"))
        psi = np.array([0 if r == q or r == 8 else 1 for ((r,), q, _) in mdp.states])
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
        cost = policy_average_cost(mdp.core, solve_rvi_markov(mdp).actions)
        assert cost == pytest.approx(exact, rel=1e-9)


class TestSwitchingSweep:
    def test_switching_holds_wherever_existence_condition_does(self, ref_ladder, ref_system):
        # SNR x gain x scheme sweep; the threshold structure is guaranteed
        # only where a bounded-MSE policy is guaranteed to exist, and the one
        # swept cell violating it (5 dB, h=1, cc) is indeed infeasible there
        outcomes = {}
        for snr_db in (5.0, 10.0, 15.0):
            for gain in (1.0, 2.0):
                for scheme in ("cc", "ir"):
                    model = HarqModel.from_db(scheme, snr_db, 100, 4.0)
                    policy = solve_rvi_markov(build_static_mdp(model, gain, ref_ladder, 20, 20))
                    worst = worst_retransmission_error_markov(model, (gain,), 0, 19)
                    stable = check_stability_markov(
                        STATIC_PI, [worst.value], ref_system.rho_squared
                    ).stable
                    violations = len(verify_switching_markov(policy).violations)
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
        assert verify_switching_markov(policy).passed

    def test_constructed_violation_reported(self, ref_mdp):
        actions = np.zeros(len(ref_mdp.states), dtype=np.int8)
        actions[at(ref_mdp, 3, 5)] = 1  # (2,5) fresh but (3,5) retransmits
        policy = Policy(
            actions=actions,
            states=ref_mdp.states,
            zeta=0.0,
            span=0.0,
            iterations=0,
            converged=True,
        )
        report = verify_switching_markov(policy)
        assert not report.passed
        assert (((2,), 5, 0), ((3,), 5, 0)) in report.violations


class TestMyopicPolicy:
    def test_no_reliability_edge_means_fresh(self, ref_ladder):
        # every attempt fails with 0.3, so retransmitting buys nothing
        mdp = assemble_markov_mdp(lambda omega, xi: 0.3, static_channel(1.0), ref_ladder, (4,), 6)
        assert myopic_policy(mdp).actions.sum() == 0

    def test_ladder_top_retransmits(self, ref_mdp):
        assert myopic_policy(ref_mdp).actions[at(ref_mdp, 1, 20)] == 1

    def test_matches_expected_cost_comparison(self, ref_mdp):
        # direct expected-next-cost comparison as the oracle at every state
        ladder = ref_mdp.ladder.extended(ref_mdp.q_max + 1)
        policy = myopic_policy(ref_mdp)
        g1 = ref_mdp.errors[((0,), 0)]
        for s, ((r,), q, _) in enumerate(ref_mdp.states):
            if r >= ref_mdp.omega_caps[0]:
                assert policy.actions[s] == 0
                continue
            g_next = ref_mdp.errors[((r,), 0)]
            cost_fresh = g1 * ladder.trace(q + 1) + (1 - g1) * ladder.trace(1)
            cost_retx = g_next * ladder.trace(q + 1) + (1 - g_next) * ladder.trace(r + 1)
            expected = 0 if cost_retx - cost_fresh >= 0 else 1
            assert policy.actions[s] == expected

    def test_is_switching_type(self, ref_mdp):
        assert verify_switching_markov(myopic_policy(ref_mdp)).passed


class TestHighSnrClosedForm:
    def test_zero_error_gives_baseline(self, ref_ladder):
        result = high_snr_markov(ref_ladder, static_channel(1.0), (0.0,), 8)
        assert result.theta_star == (1,)
        assert result.zeta_star == pytest.approx(ref_ladder.trace(1), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("theta", range(1, 9))
    def test_matches_chain_oracle(self, ref_ladder, lam, theta):
        oracle = reduced_chain_zeta_oracle(ref_ladder, lam, theta)
        chain = build_high_snr_chain(static_channel(1.0), (lam,), (theta,), ref_ladder)
        assert chain.zeta == pytest.approx(oracle, rel=1e-9)
        assert high_snr_zeta_static(ref_ladder, lam, theta) == pytest.approx(oracle, rel=1e-9)

    def test_optimum_is_scan_minimum(self, ref_ladder):
        result = high_snr_markov(ref_ladder, static_channel(1.0), (0.3,), 8)
        assert sorted(result.evaluated) == [(t,) for t in range(1, 9)]
        assert result.zeta_star == min(result.evaluated.values())
        assert result.evaluated[result.theta_star] == result.zeta_star


class TestDelayMode:
    def test_delay_cost_is_age(self, cc_model, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 6, 6, "delay")
        for s, (_, q, _) in enumerate(mdp.states):
            assert mdp.core.costs[s, 0] == q

    def test_policy_count_comparison(self, cc_model, ref_ladder, ref_policy):
        delay = solve_rvi_markov(build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "delay"))
        mse_zero = int((ref_policy.actions == 0).sum())
        delay_zero = int((delay.actions == 0).sum())
        # delay costs grow linearly, MSE costs exponentially: the delay
        # policy transmits fresh at least as often
        assert delay_zero >= mse_zero
        print(f"fresh-transmission states: delay {delay_zero} vs mse {mse_zero}")


class TestBenchmarkImportSurface:
    """What the benchmark in `bench/` imports, which tier-1 does not collect."""

    def test_static_module_imports(self):
        import harqest.mdp_static

        assert harqest.mdp_static.__all__ == ["build_static_mdp", "solve_rvi"]

    def test_static_solve_returns_r_q_states(self, cc_model, ref_ladder, ref_mdp, ref_policy):
        policy = harqest.solve_rvi(harqest.build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20))
        assert policy.params == {"omega_caps": (20,), "q_max": 20, "gains": (2.0,)}
        assert policy.states == tuple((r, q) for ((r,), q, _) in ref_mdp.states)
        assert policy.actions.tobytes() == ref_policy.actions.tobytes()
        assert (policy.zeta, policy.span) == (ref_policy.zeta, ref_policy.span)

    @pytest.mark.parametrize("cost_mode", ["mse", "delay"])
    def test_static_solve_is_the_table_solve_writes(self, tmp_path, cost_mode):
        # The benchmark costs `solve`'s static files; its oracle test reads
        # `solve_rvi`'s (r, q) table. Both must be the same solve.
        path = Path(__file__).resolve().parent.parent / "configs" / "default_static.cfg"
        argv = ["solve", "--config", str(path), "--out", str(tmp_path), "--cost", cost_mode]
        assert main(argv) == 0
        text = (tmp_path / f"policy_static_{cost_mode}.txt").read_text()
        head, body = text.split("[actions]\n")
        header = dict(line.split(" = ") for line in head.splitlines()[1:])
        written = {}
        for line in body.splitlines():
            key, action = line.split(" = ")
            r, q, xi = key.split("|")
            assert xi == "0"
            written[int(r), int(q)] = int(action)
        cfg = load_config(str(path))
        ladder = build_cost_ladder(cfg.system, solve_steady_state(cfg.system), cfg.solver.q_max + 2)
        (gain,), (r_max,) = cfg.channel.gains, cfg.solver.omega_caps
        mdp = build_static_mdp(cfg.harq, gain, ladder, r_max, cfg.solver.q_max, cost_mode)
        policy = solve_rvi(mdp, tol=cfg.solver.tol, max_iters=cfg.solver.max_iters)
        assert written == dict(zip(policy.states, policy.actions.tolist()))
        assert (header["kind"], header["omega_caps"], header["gains"]) == ("markov", "20", "2.0")
        assert float(header["zeta"]) == policy.zeta
        assert float(header["span"]) == policy.span
        assert int(header["iterations"]) == policy.iterations
        assert header["converged"] == str(policy.converged).lower()

    @pytest.mark.parametrize(
        "name", ["build_markov_mdp", "solve_rvi_markov", "verify_switching_markov", "high_snr_markov"]
    )
    def test_cli_patch_points(self, name):
        assert callable(getattr(harqest.cli, name))
