import numpy as np
import pytest
from reference import (
    empirical_vs_closed_form,
    high_snr_zeta_static,
    myopic_policy,
    step,
    unit_history,
    update_history,
)

from harqest import (
    HarqModel,
    MarkovChannel,
    PolicyEntry,
    PolicySpec,
    SimConfig,
    block_error_prob,
    build_markov_mdp,
    build_static_mdp,
    conditional_error_prob,
    evaluate_policies,
    run,
    solve_rvi,
    solve_rvi_markov,
    static_channel,
)
from harqest.errors import DepthError
from harqest.mdp_static import markov_policy

BASELINE = 15.8397


def replay_states(trace, n_gains):
    """Recompute (r, q, omega) from the recorded (a, gamma, xi) history using
    the update rules directly; returns per-slot lists aligned with the trace.
    The initial counter is seeded from the recording (it depends on the
    pre-trace channel draw)."""
    r_seq, q_seq, omega_seq = [], [], []
    r, q = 1, 1
    omega = tuple(trace.omega[0])
    for i in range(len(trace.k)):
        r_seq.append(r)
        q_seq.append(q)
        omega_seq.append(omega)
        a = int(trace.a[i])
        gamma = int(trace.gamma[i])
        xi = int(trace.xi[i])
        r_next = 1 if a == 0 else r + 1
        q_next = r_next if gamma == 1 else q + 1
        counts = list(omega)
        if a == 0:
            counts = [0] * n_gains
            counts[xi] = 1
        else:
            counts[xi] += 1
        r, q, omega = r_next, q_next, tuple(counts)
    return r_seq, q_seq, omega_seq


def reference_run(harq, ch, ladder, spec, cfg, replicate=0):
    """The simulator's per-slot loop written with the model objects:
    HistoryCounter attempt histories, `step` drawing one scalar per channel
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
        table = markov_policy(spec.table) if spec.table.kind == "static" else spec.table
        action = dict(zip(table.states, table.actions.tolist()))
        caps = tuple(table.params["omega_caps"])
        q_max = table.params["q_max"]

        def act(r, q, omega, xi):
            return action[(tuple(map(min, omega.counts, caps)), min(q, q_max), xi)]

    elif spec.kind == "myopic":

        def act(r, q, omega, xi):
            g0 = new_tx[xi]
            g1 = conditional_error_prob(harq, omega, ch.gains[xi])
            fresh = g0 * trace(q + 1) + (1.0 - g0) * trace(1)
            retx = g1 * trace(q + 1) + (1.0 - g1) * trace(omega.total + 1)
            return 0 if retx >= fresh else 1

    elif spec.kind == "no_retransmission":

        def act(r, q, omega, xi):
            return 0

    elif spec.kind == "always_retransmit_psi":

        def act(r, q, omega, xi):
            return 0 if r == q else 1

    else:

        def act(r, q, omega, xi):
            return 1 if (r == 1 and q > spec.thetas[xi]) else 0

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
        elif cfg.force_success_retransmissions:
            p_err = 0.0
        else:
            p_err = conditional_error_prob(harq, omega, ch.gains[xi])
        gamma = 1 if rng.random() >= p_err else 0
        rows.append((a, gamma, r, q, xi, cost, omega.counts))
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


def test_block_draw_equals_scalar_draws():
    # run() draws a replicate's uniforms in one block; that keeps traces and
    # common random numbers only because the block equals the scalar stream
    scalar = np.random.default_rng([7, 3])
    block = np.random.default_rng([7, 3])
    first = scalar.random()
    assert block.random() == first
    expected = [scalar.random() for _ in range(2001)]
    assert block.random(2001).tolist() == expected
    assert block.random() == scalar.random()


FADING = MarkovChannel(gains=(2.0, 1.0), pi=np.array([[0.8, 0.2], [0.2, 0.8]]))
STATIC = static_channel(2.0)


@pytest.fixture(scope="module")
def conformance_tables(ref_ladder):
    """Solved MSE and delay tables per (SNR, link) for the conformance runs."""
    tables = {}
    for snr_db in (5.0, 8.5):
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        for cost_mode in ("mse", "delay"):
            tables[snr_db, "static", cost_mode] = solve_rvi(
                build_static_mdp(model, 2.0, ref_ladder, 20, 20, cost_mode)
            )
            tables[snr_db, "fading", cost_mode] = solve_rvi_markov(
                build_markov_mdp(model, FADING, ref_ladder, (4, 4), 10, cost_mode)
            )
    return tables


def _spec(kind, tables, snr_db, link):
    if kind == "table":
        return PolicySpec(kind=kind, table=tables[snr_db, link, "mse"])
    if kind == "delay_optimal_table":
        return PolicySpec(kind=kind, table=tables[snr_db, link, "delay"])
    if kind == "threshold":
        return PolicySpec(kind=kind, thetas=(3,) if link == "static" else (3, 2))
    return PolicySpec(kind=kind)


_ALL_KINDS = (
    "table",
    "delay_optimal_table",
    "myopic",
    "no_retransmission",
    "always_retransmit_psi",
    "threshold",
)


class TestReferenceConformance:
    @pytest.mark.parametrize("kind", _ALL_KINDS)
    @pytest.mark.parametrize("link", ("static", "fading"))
    @pytest.mark.parametrize("snr_db", (5.0, 8.5))
    def test_matches_reference_loop(self, kind, link, snr_db, conformance_tables, ref_ladder):
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        ch = STATIC if link == "static" else FADING
        spec = _spec(kind, conformance_tables, snr_db, link)
        cfg = SimConfig(slots=1_500, replicates=1, seed=31)
        for rep in (0, 1):
            expected = reference_run(model, ch, ref_ladder, spec, cfg, replicate=rep)
            assert_matches_reference(run(model, ch, ref_ladder, spec, cfg, replicate=rep), expected)

    @pytest.mark.parametrize("kind", _ALL_KINDS)
    @pytest.mark.parametrize("link", ("static", "fading"))
    def test_forced_success_and_initial_channel(self, kind, link, conformance_tables, ref_ladder):
        model = HarqModel.from_db("ir", 8.5, 100, 4.0)
        ch = STATIC if link == "static" else FADING
        spec = _spec(kind, conformance_tables, 8.5, link)
        for cfg in (
            SimConfig(slots=1_000, seed=5, force_success_retransmissions=True),
            SimConfig(slots=1_000, seed=5, initial_channel=ch.size - 1),
        ):
            expected = reference_run(model, ch, ref_ladder, spec, cfg)
            assert_matches_reference(run(model, ch, ref_ladder, spec, cfg), expected)

    @pytest.mark.parametrize("kind", _ALL_KINDS)
    @pytest.mark.parametrize("link", ("static", "fading"))
    def test_divergence_matches_reference(self, kind, link, conformance_tables, ref_ladder):
        # a dead link lets the age grow every slot, past the tables' q_max,
        # until the ladder overflows; run() must stop at the same slot as
        # the reference
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        ch = STATIC if link == "static" else FADING
        spec = _spec(kind, conformance_tables, 5.0, link)
        cfg = SimConfig(slots=2_000, seed=2)
        expected = reference_run(model, ch, ref_ladder, spec, cfg)
        assert expected["diverged"]
        assert_matches_reference(run(model, ch, ref_ladder, spec, cfg), expected)

    def test_divergence_at_5_db_matches_reference(self, ref_ladder):
        # never retransmitting on the fading link at 5 dB diverges through
        # DepthError after a random number of slots
        model = HarqModel.from_db("cc", 5.0, 100, 4.0)
        cfg = SimConfig(slots=3_000, seed=7)
        spec = PolicySpec(kind="no_retransmission")
        expected = reference_run(model, FADING, ref_ladder, spec, cfg)
        assert expected["diverged"]
        assert_matches_reference(run(model, FADING, ref_ladder, spec, cfg), expected)


class TestPerfectLink:
    def test_all_policies_identical_and_flat(self, ref_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=500, replicates=1, seed=9)
        specs = [
            PolicySpec(kind="no_retransmission"),
            PolicySpec(kind="always_retransmit_psi"),
            PolicySpec(kind="myopic"),
            PolicySpec(kind="threshold", thetas=(3, 3)),
        ]
        traces = [run(model, ref_channel, ref_ladder, s, cfg) for s in specs]
        for trace in traces:
            assert np.all(trace.q == 1)
            assert trace.final_average == pytest.approx(ref_ladder.trace(1), rel=1e-12)
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0].gamma, other.gamma)
            np.testing.assert_array_equal(traces[0].xi, other.xi)


class TestHandTrace:
    def test_deterministic_cycle(self, ref_ladder):
        # fresh transmissions always fail (rate far above capacity), forced
        # retransmission success: under the retransmit-until-success rule the
        # loop settles into (2,2) -> (1,3) -> (2,2) ...
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        ch = static_channel(1.0)
        cfg = SimConfig(slots=8, replicates=1, seed=0, force_success_retransmissions=True)
        trace = run(model, ch, ref_ladder, PolicySpec(kind="always_retransmit_psi"), cfg)
        assert list(trace.a) == [0, 1, 0, 1, 0, 1, 0, 1]
        assert list(trace.gamma) == [0, 1, 0, 1, 0, 1, 0, 1]
        assert list(trace.r) == [1, 1, 2, 1, 2, 1, 2, 1]
        assert list(trace.q) == [1, 2, 2, 3, 2, 3, 2, 3]
        expected_costs = [ref_ladder.trace(q) for q in trace.q]
        np.testing.assert_allclose(trace.trace_mse, expected_costs, rtol=0.0)


class TestConformance:
    def test_replay_reproduces_reference_markov_run(
        self, cc_model, ref_channel, ref_ladder, ref_system
    ):
        mdp = build_markov_mdp(cc_model, ref_channel, ref_ladder, (4, 4), 10, "mse")
        policy = solve_rvi_markov(mdp)
        cfg = SimConfig(slots=3_000, replicates=1, seed=21)
        trace = run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="table", table=policy), cfg)
        r_seq, q_seq, omega_seq = replay_states(trace, ref_channel.size)
        np.testing.assert_array_equal(trace.r, r_seq)
        np.testing.assert_array_equal(trace.q, q_seq)
        np.testing.assert_array_equal(trace.omega, omega_seq)
        np.testing.assert_array_equal(trace.omega.sum(axis=1), trace.r)
        # every recorded cost is the ladder value at the recorded age
        for q, cost in zip(trace.q, trace.trace_mse):
            assert cost == ref_ladder.extended(int(q)).trace(int(q))

    def test_round_length_never_exceeds_age(self, cc_model, ref_channel, ref_ladder):
        cfg = SimConfig(slots=2_000, replicates=1, seed=3)
        trace = run(
            cc_model, ref_channel, ref_ladder, PolicySpec(kind="always_retransmit_psi"), cfg
        )
        assert np.all(trace.r >= 1)
        assert np.all(trace.q >= trace.r)


class TestDeterminism:
    def test_identical_runs(self, cc_model, ref_channel, ref_ladder):
        cfg = SimConfig(slots=1_000, replicates=1, seed=5)
        spec = PolicySpec(kind="myopic")
        t1 = run(cc_model, ref_channel, ref_ladder, spec, cfg)
        t2 = run(cc_model, ref_channel, ref_ladder, spec, cfg)
        np.testing.assert_array_equal(t1.gamma, t2.gamma)
        np.testing.assert_array_equal(t1.q, t2.q)
        np.testing.assert_array_equal(t1.running_avg, t2.running_avg)

    def test_csv_byte_identical(self, cc_model, ref_channel, ref_ladder, tmp_path):
        cfg = SimConfig(slots=200, replicates=1, seed=5)
        spec = PolicySpec(kind="always_retransmit_psi")
        paths = []
        for name in ("one.csv", "two.csv"):
            trace = run(cc_model, ref_channel, ref_ladder, spec, cfg)
            path = tmp_path / name
            trace.to_csv(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_replicates_differ(self, cc_model, ref_channel, ref_ladder):
        cfg = SimConfig(slots=1_000, replicates=1, seed=5)
        spec = PolicySpec(kind="myopic")
        t0 = run(cc_model, ref_channel, ref_ladder, spec, cfg, replicate=0)
        t1 = run(cc_model, ref_channel, ref_ladder, spec, cfg, replicate=1)
        assert not np.array_equal(t0.gamma, t1.gamma)


class TestDivergence:
    def test_no_retransmission_diverges_on_fading_link(self, cc_model, ref_channel, ref_ladder):
        cfg = SimConfig(slots=10_000, replicates=1, seed=1)
        trace = run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="no_retransmission"), cfg)
        assert trace.diverged or trace.final_average > 10.0 * BASELINE

    def test_no_retransmission_bounded_on_reference_static_link(
        self, cc_model, ref_static_channel, ref_ladder
    ):
        # at 10 dB and gain 2 a fresh transmission fails with ~7e-4, so even
        # never retransmitting keeps the average pinned near the baseline
        cfg = SimConfig(slots=10_000, replicates=1, seed=1)
        trace = run(
            cc_model, ref_static_channel, ref_ladder, PolicySpec(kind="no_retransmission"), cfg
        )
        assert not trace.diverged
        assert trace.final_average < 2.0 * BASELINE

    def test_divergence_flag_and_truncation(self, ref_static_channel, ref_ladder, tmp_path):
        # a dead link (fresh and combined attempts all fail) grows q every
        # slot, so the cost overflows the ladder guard and raises the flag
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=10_000, replicates=1, seed=1)
        trace = run(
            model, ref_static_channel, ref_ladder, PolicySpec(kind="no_retransmission"), cfg
        )
        assert trace.diverged
        assert trace.diverged_slot is not None
        assert len(trace.k) == trace.diverged_slot - 1
        path = tmp_path / "diverged.csv"
        trace.to_csv(path)
        assert f"# diverged at slot {trace.diverged_slot}" in path.read_text()


class TestTablePolicies:
    def test_saturated_lookup_beyond_truncation(self, ref_ladder, ref_static_channel):
        # a link whose fresh transmissions always fail pushes q far past the
        # table's range; lookups must clamp instead of raising
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        table = solve_rvi(
            build_static_mdp(model, 2.0, ref_ladder, 3, 5, "mse")
        )
        cfg = SimConfig(slots=60, replicates=1, seed=2, force_success_retransmissions=True)
        trace = run(
            model, ref_static_channel, ref_ladder, PolicySpec(kind="table", table=table), cfg
        )
        assert int(trace.q.max()) >= 5

    def test_table_rejects_channel_with_other_gain_count(self, cc_model, ref_channel, ref_ladder):
        table = solve_rvi(build_static_mdp(cc_model, 2.0, ref_ladder, 3, 5, "mse"))
        cfg = SimConfig(slots=10, replicates=1, seed=2)
        with pytest.raises(ValueError, match="gain states"):
            run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="table", table=table), cfg)

    def test_myopic_table_agrees_with_on_the_fly(self, cc_model, ref_static_channel, ref_ladder):
        table = myopic_policy(build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "mse"))
        cfg = SimConfig(slots=5_000, replicates=1, seed=11)
        via_table = run(
            cc_model, ref_static_channel, ref_ladder,
            PolicySpec(kind="table", table=table), cfg,
        )
        on_the_fly = run(
            cc_model, ref_static_channel, ref_ladder, PolicySpec(kind="myopic"), cfg
        )
        np.testing.assert_array_equal(via_table.a, on_the_fly.a)
        np.testing.assert_array_equal(via_table.q, on_the_fly.q)


class TestEvaluatePolicies:
    def test_parallel_replicates_match_serial(self, cc_model, ref_channel, ref_ladder):
        # shared inputs are immutable and each replicate owns its stream, so
        # running replicates concurrently must reproduce the serial results
        from concurrent.futures import ThreadPoolExecutor

        cfg = SimConfig(slots=800, replicates=6, seed=4)
        spec = PolicySpec(kind="myopic")
        serial = [
            run(cc_model, ref_channel, ref_ladder, spec, cfg, replicate=rep).final_average
            for rep in range(cfg.replicates)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(
                pool.map(
                    lambda rep: run(
                        cc_model, ref_channel, ref_ladder, spec, cfg, replicate=rep
                    ).final_average,
                    range(cfg.replicates),
                )
            )
        assert parallel == serial

    def test_common_random_numbers(self, cc_model, ref_channel, ref_ladder):
        cfg = SimConfig(slots=500, replicates=4, seed=13)
        entries = [
            PolicyEntry(label="psi_a", spec=PolicySpec(kind="always_retransmit_psi")),
            PolicyEntry(label="psi_b", spec=PolicySpec(kind="always_retransmit_psi")),
        ]
        table = evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        assert table.row("psi_a").finals == table.row("psi_b").finals

    def test_divergence_marks_row(self, ref_static_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=10_000, replicates=2, seed=1)
        entries = [PolicyEntry(label="none", spec=PolicySpec(kind="no_retransmission"))]
        table = evaluate_policies(entries, model, ref_static_channel, ref_ladder, cfg)
        row = table.row("none")
        assert row.n_diverged > 0 and row.mean == float("inf")

    def test_summary_csv(self, cc_model, ref_channel, ref_ladder, tmp_path):
        cfg = SimConfig(slots=300, replicates=3, seed=2)
        entries = [PolicyEntry(label="psi", spec=PolicySpec(kind="always_retransmit_psi"))]
        table = evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        path = tmp_path / "cmp.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "policy,mean_final_avg_mse,stderr,replicates,diverged"
        assert lines[1].startswith("psi,")


class TestEmpiricalVsClosedForm:
    def test_near_zero_error_matches_exactly(self, ref_static_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=2_000, replicates=5, seed=3)
        out = empirical_vs_closed_form(model, ref_static_channel, ref_ladder, (2,), cfg)
        assert out.within_3_sigma
        assert out.empirical_mean == pytest.approx(ref_ladder.trace(1), rel=1e-9)
        assert out.zeta == pytest.approx(ref_ladder.trace(1), rel=1e-9)

    def test_static_threshold_validation(self, cc_model, ref_static_channel, ref_ladder):
        cfg = SimConfig(slots=20_000, replicates=10, seed=17)
        out = empirical_vs_closed_form(cc_model, ref_static_channel, ref_ladder, (2,), cfg)
        assert out.zeta == pytest.approx(
            high_snr_zeta_static(ref_ladder, 7.27617035635667e-4, 2), rel=1e-12
        )
        assert out.abs_diff <= 3.0 * out.stderr + 1e-6 * out.zeta


class TestPolicySpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="optimal")

    def test_table_requires_table(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="table")

    def test_threshold_requires_thetas(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="threshold")
