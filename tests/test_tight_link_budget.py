"""Behavior at tight link budgets.

At the default 10 dB point a fresh transmission almost always succeeds, so
every sensible policy acts identically on-path. At 8 dB a fresh packet on the
gain-2 link fails with probability 0.876 while one combined retransmission is
near-certain: never retransmitting diverges, but the MSE-optimal and
delay-optimal policies both retransmit after every failure and have the same
exact cost, so their ordering below holds by equality. At 7 dB on the fading
link incremental redundancy clearly beats chase combining. These tests pin
that behavior on the bundled demo configurations.
"""

import numpy as np
import pytest

from harqest import (
    HarqModel,
    PolicyEntry,
    PolicySpec,
    SimConfig,
    block_error_prob,
    build_markov_mdp,
    build_static_mdp,
    check_stability_markov,
    evaluate_policies,
    solve_rvi_markov,
    static_channel,
    worst_retransmission_error_markov,
)

BASELINE = 15.8397


@pytest.fixture(scope="module")
def static_8db_table(ref_system, ref_ladder):
    model = HarqModel.from_db("cc", 8.0, 100, 4.0)
    opt = solve_rvi_markov(build_static_mdp(model, 2.0, ref_ladder, 20, 20, "mse"))
    delay = solve_rvi_markov(build_static_mdp(model, 2.0, ref_ladder, 20, 20, "delay"))
    cfg = SimConfig(slots=10_000, replicates=10, seed=1)
    table = evaluate_policies(
        [
            PolicyEntry("optimal", PolicySpec(kind="table", table=opt)),
            PolicyEntry("myopic", PolicySpec(kind="myopic")),
            PolicyEntry("delay", PolicySpec(kind="delay_optimal_table", table=delay)),
            PolicyEntry("noretx", PolicySpec(kind="no_retransmission")),
        ],
        model,
        static_channel(2.0),
        ref_ladder,
        cfg,
    )
    return model, table


class TestStatic8dB:
    def test_regime_is_the_interesting_one(self, ref_system):
        model = HarqModel.from_db("cc", 8.0, 100, 4.0)
        fresh = block_error_prob(model, (2.0,))
        # fresh transmissions fail hard, yet the existence condition holds
        assert fresh * ref_system.rho_squared > 1.0
        worst = worst_retransmission_error_markov(model, (2.0,), 0, 19)
        assert check_stability_markov(np.ones((1, 1)), [worst.value], ref_system.rho_squared).stable

    def test_no_retransmission_diverges(self, static_8db_table):
        _, table = static_8db_table
        row = table.row("noretx")
        assert row.n_diverged > 0 or row.mean > 10.0 * BASELINE

    def test_retransmitting_policies_converge(self, static_8db_table):
        _, table = static_8db_table
        for label in ("optimal", "myopic", "delay"):
            trajectory = table.trajectories[label]
            n = len(trajectory)
            last_half = float(np.mean(trajectory[n // 2 :]))
            last_quarter = float(np.mean(trajectory[3 * n // 4 :]))
            assert abs(last_quarter - last_half) < 0.05 * abs(last_half)

    def test_myopic_close_to_optimal(self, static_8db_table):
        _, table = static_8db_table
        opt = table.row("optimal").mean
        myo = table.row("myopic").mean
        assert abs(myo - opt) / opt <= 0.10

    def test_optimal_not_above_delay_optimal(self, static_8db_table):
        _, table = static_8db_table
        assert table.row("optimal").mean <= table.row("delay").mean + 1e-9


class TestMarkov7dB:
    def test_ir_decisively_beats_cc(self, ref_channel, ref_ladder):
        cfg = SimConfig(slots=10_000, replicates=10, seed=1)
        means = {}
        for scheme in ("cc", "ir"):
            model = HarqModel.from_db(scheme, 7.0, 100, 4.0)
            policy = solve_rvi_markov(
                build_markov_mdp(model, ref_channel, ref_ladder, (4, 4), 10, "mse")
            )
            table = evaluate_policies(
                [PolicyEntry(scheme, PolicySpec(kind="table", table=policy))],
                model,
                ref_channel,
                ref_ladder,
                cfg,
            )
            means[scheme] = table.row(scheme).mean
        assert means["ir"] <= means["cc"]
        reduction = 1.0 - (means["ir"] - BASELINE) / (means["cc"] - BASELINE)
        assert reduction >= 0.50
        print(f"IR baseline-excess reduction at 7 dB: {reduction * 100:.1f}%")
