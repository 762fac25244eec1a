import dataclasses
import math

import numpy as np
import pytest
from reference import (
    TRACE_FIELDS,
    assert_matches_reference,
    myopic_policy,
    reference_run,
    rowwise_csv,
)

import harqest.simulator
from harqest import (
    HarqModel,
    LinkErrors,
    MarkovChannel,
    Policy,
    PolicyEntry,
    PolicySpec,
    SimConfig,
    build_markov_mdp,
    build_static_mdp,
    evaluate_policies,
    run,
    solve_rvi_markov,
    static_channel,
)
from harqest.errors import ConfigError
from harqest.mdp_markov import Grid

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
# Long packets at a rate between the capacities of SNR 100 and 200: a fresh
# attempt at gain 1 fails with probability exactly 1, and a fresh attempt at
# gain 2 or any retransmission (combined SNR >= 200) exactly 0.
PERFECT_RETX = HarqModel("cc", 100.0, 100_000, 7.0)


@pytest.fixture(scope="module")
def conformance_tables(ref_ladder):
    """Solved MSE and delay tables per (SNR, link) for the conformance runs."""
    tables = {}
    for snr_db in (5.0, 8.5):
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        for cost_mode in ("mse", "delay"):
            tables[snr_db, "static", cost_mode] = solve_rvi_markov(
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
    return PolicySpec(kind=kind)


_ALL_KINDS = (
    "table",
    "delay_optimal_table",
    "myopic",
    "no_retransmission",
    "always_retransmit_psi",
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
        # the perfect-retransmission regime, then a fixed initial channel
        ch = STATIC if link == "static" else FADING
        spec = _spec(kind, conformance_tables, 8.5, link)
        ir = HarqModel.from_db("ir", 8.5, 100, 4.0)
        for model, cfg in (
            (PERFECT_RETX, SimConfig(slots=1_000, seed=5)),
            (ir, SimConfig(slots=1_000, seed=5, initial_channel=ch.size - 1)),
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
        # DepthError at slot 356 in every replicate: a fresh packet fails
        # with probability 1 - 6e-14 at gain 2 and exactly 1 at gain 1, so
        # the age grows every slot (7.5 dB, in TestSharedMachine, is the
        # case whose divergence slot depends on the replicate)
        model = HarqModel.from_db("cc", 5.0, 100, 4.0)
        cfg = SimConfig(slots=3_000, seed=7)
        spec = PolicySpec(kind="no_retransmission")
        expected = reference_run(model, FADING, ref_ladder, spec, cfg)
        assert expected["diverged"]
        assert_matches_reference(run(model, FADING, ref_ladder, spec, cfg), expected)


class TestSharedMachine:
    """evaluate_policies runs every replicate of an entry on one transition
    machine, so a replicate starts from the states, successors and ladder
    growth of the replicates before it, and an entry that acts like an
    earlier one on every state that one numbered takes its run instead of
    running. Each run, and each entry's finals and trajectory, shared or
    run, must still equal the reference loop, which shares nothing."""

    @staticmethod
    def evaluate(model, ch, tables, table_snr_db, link, cfg, ladder, monkeypatch):
        """(label -> traces of the replicates that ran, each checked against
        reference_run; the number of replicates taken from a twin)."""
        runs = []
        original = harqest.simulator.run

        def recording_run(*args, **kwargs):
            trace = original(*args, **kwargs)
            runs.append((args[3], kwargs["replicate"], kwargs["machine"], trace))
            return trace

        monkeypatch.setattr(harqest.simulator, "run", recording_run)
        entries = [
            PolicyEntry(label=kind, spec=_spec(kind, tables, table_snr_db, link))
            for kind in _ALL_KINDS
        ]
        table = evaluate_policies(entries, model, ch, ladder, cfg)
        assert len({(id(spec), id(machine)) for spec, _, machine, _ in runs}) == len(
            {id(spec) for spec, _, _, _ in runs}
        )
        expected = {
            (entry.spec.kind, rep): reference_run(model, ch, ladder, entry.spec, cfg, replicate=rep)
            for entry in entries
            for rep in range(cfg.replicates)
        }
        traces = {}
        for spec, rep, _, trace in runs:
            assert_matches_reference(trace, expected[spec.kind, rep])
            traces.setdefault(spec.kind, []).append(trace)
        for entry in entries:
            row = table.row(entry.label)
            bounded = [
                expected[entry.spec.kind, rep]["running_avg"]
                for rep in range(cfg.replicates)
                if not expected[entry.spec.kind, rep]["diverged"]
            ]
            assert row.finals == tuple(float(avg[-1]) for avg in bounded)
            assert row.n_diverged == cfg.replicates - len(bounded)
            if row.n_diverged:
                assert entry.label not in table.trajectories
            else:
                total = np.zeros(cfg.slots)
                for avg in bounded:
                    total += avg
                assert table.trajectories[entry.label].tobytes() == (total / cfg.replicates).tobytes()
        assert len({(id(spec), rep) for spec, rep, _, _ in runs}) == len(runs)
        assert [rep for spec, rep, _, _ in runs if spec is entries[0].spec] == list(range(cfg.replicates))
        return traces, len(entries) * cfg.replicates - len(runs)

    @pytest.mark.parametrize("link", ("static", "fading"))
    @pytest.mark.parametrize("snr_db", (5.0, 8.5))
    def test_every_replicate_matches_reference(
        self, link, snr_db, conformance_tables, ref_ladder, monkeypatch
    ):
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        ch = STATIC if link == "static" else FADING
        cfg = SimConfig(slots=1_500, replicates=3, seed=31)
        _, shared = self.evaluate(
            model, ch, conformance_tables, snr_db, link, cfg, ref_ladder, monkeypatch
        )
        assert shared > 0

    @pytest.mark.parametrize("link", ("static", "fading"))
    def test_dead_link(self, link, conformance_tables, ref_ladder, monkeypatch):
        # the age grows every slot until the ladder overflows; myopic's
        # lookahead needs one entry more than the cost, so it stops a slot
        # earlier than the policies that need only the cost; a diverged run
        # is never shared
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        ch = STATIC if link == "static" else FADING
        cfg = SimConfig(slots=2_000, replicates=3, seed=2)
        traces, shared = self.evaluate(
            model, ch, conformance_tables, 5.0, link, cfg, ref_ladder, monkeypatch
        )
        assert shared == 0
        assert all(t.diverged for kind in _ALL_KINDS for t in traces[kind])
        for myopic, fresh in zip(traces["myopic"], traces["no_retransmission"]):
            assert myopic.diverged_slot == fresh.diverged_slot - 1

    @pytest.mark.parametrize("snr_db", (5.0, 7.5))
    def test_never_retransmitting_diverges_on_the_fading_link(
        self, snr_db, conformance_tables, ref_ladder, monkeypatch
    ):
        # at 7.5 dB the replicates diverge at different slots, so later ones
        # run on a ladder an earlier one grew past their own stop
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        cfg = SimConfig(slots=3_000, replicates=4, seed=7)
        traces, _ = self.evaluate(
            model, FADING, conformance_tables, 5.0, "fading", cfg, ref_ladder, monkeypatch
        )
        assert len(traces["no_retransmission"]) == cfg.replicates
        assert all(t.diverged for t in traces["no_retransmission"])


class TestPerfectLink:
    def test_all_policies_identical_and_flat(self, ref_channel, ref_ladder):
        model = HarqModel(scheme="cc", snr=1e12, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=500, replicates=1, seed=9)
        specs = [
            PolicySpec(kind="no_retransmission"),
            PolicySpec(kind="always_retransmit_psi"),
            PolicySpec(kind="myopic"),
        ]
        traces = [run(model, ref_channel, ref_ladder, s, cfg) for s in specs]
        for trace in traces:
            assert np.all(trace.q == 1)
            assert trace.running_avg[-1] == pytest.approx(ref_ladder.trace(1), rel=1e-12)
        for other in traces[1:]:
            np.testing.assert_array_equal(traces[0].gamma, other.gamma)
            np.testing.assert_array_equal(traces[0].xi, other.xi)


class TestHandTrace:
    def test_deterministic_cycle(self, ref_ladder):
        # at gain 1 a fresh transmission always fails and a combined
        # retransmission always succeeds: under the retransmit-until-success
        # rule the loop settles into (2,2) -> (1,3) -> (2,2) ...
        ch = static_channel(1.0)
        assert LinkErrors(PERFECT_RETX, ch.gains).attempt((0,), 0) == 1.0
        assert LinkErrors(PERFECT_RETX, ch.gains).attempt((1,), 0) == 0.0
        cfg = SimConfig(slots=8, replicates=1, seed=0)
        trace = run(PERFECT_RETX, ch, ref_ladder, PolicySpec(kind="always_retransmit_psi"), cfg)
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
        assert trace.diverged or trace.running_avg[-1] > 10.0 * BASELINE

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
        assert trace.running_avg[-1] < 2.0 * BASELINE

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


class TestTraceCsv:
    """to_csv writes in chunks, with the middle of each distinct (state,
    outcome) row formatted once; its bytes are those of the row-by-row writer."""

    def test_normal_trace_spanning_chunks(self, cc_model, ref_channel, ref_ladder, tmp_path):
        cfg = SimConfig(slots=2 * harqest.simulator._CSV_CHUNK + 37, seed=5)
        trace = run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="myopic"), cfg)
        assert not trace.diverged
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == rowwise_csv(trace)

    def test_diverged_trace(self, ref_static_channel, ref_ladder, tmp_path):
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=10_000, seed=1)
        trace = run(
            model, ref_static_channel, ref_ladder, PolicySpec(kind="no_retransmission"), cfg
        )
        assert trace.diverged and len(trace.k) > 1
        trace.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == rowwise_csv(trace)

    def test_trace_diverged_at_slot_one(self, cc_model, ref_channel, ref_ladder, tmp_path):
        cfg = SimConfig(slots=5)
        trace = run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="myopic"), cfg)
        empty = dataclasses.replace(
            trace, states=trace.states[:0], running_avg=trace.running_avg[:0], diverged=True, diverged_slot=1
        )
        expected = {name: getattr(trace, name)[:0] for name in TRACE_FIELDS[:-2]}
        assert_matches_reference(empty, dict(expected, diverged=True, diverged_slot=1))
        empty.to_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == rowwise_csv(empty)
        assert rowwise_csv(empty).endswith(b"running_avg\n# diverged at slot 1\n")


class TestTablePolicies:
    def test_saturated_lookup_beyond_truncation(self, ref_ladder, ref_static_channel):
        # a link whose fresh transmissions always fail pushes q far past the
        # table's range; lookups must clamp instead of raising
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        table = solve_rvi_markov(
            build_static_mdp(model, 2.0, ref_ladder, 3, 5, "mse")
        )
        cfg = SimConfig(slots=60, replicates=1, seed=2)
        trace = run(
            model, ref_static_channel, ref_ladder, PolicySpec(kind="table", table=table), cfg
        )
        assert not trace.diverged
        assert int(trace.q.max()) >= 5

    def test_table_rejects_channel_with_other_gain_count(self, cc_model, ref_channel, ref_ladder):
        table = solve_rvi_markov(build_static_mdp(cc_model, 2.0, ref_ladder, 3, 5, "mse"))
        cfg = SimConfig(slots=10, replicates=1, seed=2)
        with pytest.raises(ConfigError, match="gain states"):
            run(cc_model, ref_channel, ref_ladder, PolicySpec(kind="table", table=table), cfg)

    def test_myopic_table_agrees_with_on_the_fly(self, cc_model, ref_static_channel, ref_ladder):
        mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "mse")
        table = myopic_policy(mdp, LinkErrors(cc_model, (2.0,)).attempt)
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
            run(cc_model, ref_channel, ref_ladder, spec, cfg, replicate=rep).running_avg[-1]
            for rep in range(cfg.replicates)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            parallel = list(
                pool.map(
                    lambda rep: run(
                        cc_model, ref_channel, ref_ladder, spec, cfg, replicate=rep
                    ).running_avg[-1],
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

    def test_draws_each_replicate_once(self, cc_model, ref_channel, ref_ladder, monkeypatch):
        seeds = []
        original = np.random.default_rng

        def counting_rng(seed):
            seeds.append(tuple(seed))
            return original(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        cfg = SimConfig(slots=300, replicates=3, seed=9)
        entries = [
            PolicyEntry(label=kind, spec=PolicySpec(kind=kind))
            for kind in ("myopic", "no_retransmission", "always_retransmit_psi")
        ]
        evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        assert seeds == [(9, 0), (9, 1), (9, 2)]

    @pytest.mark.parametrize("snr_db", (5.0, 8.5))
    def test_shared_streams_equal_entries_evaluated_alone(
        self, snr_db, conformance_tables, ref_ladder
    ):
        # at 5 dB never retransmitting diverges on the fading link, which
        # drops that entry's trajectory but not the others'
        model = HarqModel.from_db("cc", snr_db, 100, 4.0)
        entries = [
            PolicyEntry(label=kind, spec=_spec(kind, conformance_tables, snr_db, "fading"))
            for kind in _ALL_KINDS
        ]
        entries.append(
            PolicyEntry(
                label="myopic_ir",
                spec=PolicySpec(kind="myopic"),
                harq=HarqModel.from_db("ir", snr_db, 100, 4.0),
            )
        )
        cfg = SimConfig(slots=1_200, replicates=3, seed=21)
        together = evaluate_policies(entries, model, FADING, ref_ladder, cfg)
        alone = [evaluate_policies([e], model, FADING, ref_ladder, cfg) for e in entries]
        for entry, single in zip(entries, alone):
            row, expected = together.row(entry.label), single.rows[0]
            assert (row.finals, row.n_diverged) == (expected.finals, expected.n_diverged)
            assert repr((row.mean, row.stderr)) == repr((expected.mean, expected.stderr))
            assert (entry.label in together.trajectories) == (entry.label in single.trajectories)
            if entry.label in single.trajectories:
                got = together.trajectories[entry.label]
                assert got.tobytes() == single.trajectories[entry.label].tobytes()
        assert snr_db != 5.0 or together.row("no_retransmission").n_diverged
        first = alone[0].first_trace
        expected = {name: getattr(first, name) for name in TRACE_FIELDS}
        assert_matches_reference(together.first_trace, expected)

    def test_gathers_columns_for_the_first_trace_only(
        self, cc_model, ref_channel, ref_ladder, monkeypatch, tmp_path
    ):
        # Every run keeps its states; only the trace the CLI writes builds
        # per-slot columns, and only when it is written.
        traces = []
        original = harqest.simulator.run

        def keeping_run(*args, **kwargs):
            traces.append(original(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(harqest.simulator, "run", keeping_run)
        cfg = SimConfig(slots=400, replicates=3, seed=6)
        entries = [
            PolicyEntry(label=kind, spec=PolicySpec(kind=kind))
            for kind in ("myopic", "no_retransmission", "always_retransmit_psi")
        ]
        table = evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        table.first_trace.to_csv(tmp_path / "t.csv")
        assert len(traces) == 9 and traces[0] is table.first_trace
        columns = ("k", "a", "gamma", "r", "q", "xi", "trace_mse", "omega")
        gathered = [[name for name in columns if name in vars(trace)] for trace in traces]
        assert gathered == [["gamma"]] + [[]] * 8

    def test_stderr_of_huge_finals_does_not_overflow(self, ref_ladder):
        # A table on a weak IR link whose two bounded finals are 8.7e237 and
        # 8.7e257: squaring them overflows, scaled by a power of two it does not.
        grid = Grid((2,), 4)
        table = Policy(
            actions=np.array([0, 0, 0, 1, 0, 1, 1], dtype=np.int8), grid=grid, gains=(2.0,),
            zeta=0.0, span=0.0, iterations=0, converged=True,
        )
        model = HarqModel.from_db("ir", 2.0, 100, 4.0)
        cfg = SimConfig(slots=340, replicates=2, seed=0)
        entries = [PolicyEntry(label="table", spec=PolicySpec(kind="table", table=table))]
        (row,) = evaluate_policies(entries, model, static_channel(2.0), ref_ladder, cfg).rows
        finals = np.array(row.finals)
        assert row.n_diverged == 0 and 1e237 < finals.min() and finals.max() < 1e258
        # For two finals the standard error is half their distance.
        assert row.stderr == pytest.approx(abs(finals[1] - finals[0]) / 2.0, rel=1e-15, abs=0.0)

    def test_stderr_keeps_the_bits_of_numpys(self):
        # Scaling by a power of two is exact, so ordinary finals keep the
        # bits of the unscaled formula.
        rng = np.random.default_rng(29)
        for _ in range(2000):
            n = int(rng.integers(2, 40))
            finals = (10.0 ** rng.uniform(-3, 12)) * rng.lognormal(0.0, rng.uniform(0, 3), n)
            got = harqest.simulator._stderr(finals.tolist())
            want = float(np.std(finals, ddof=1) / math.sqrt(n))
            assert repr(got) == repr(want), finals

    def test_divergence_marks_row(self, ref_static_channel, ref_ladder, tmp_path):
        model = HarqModel(scheme="cc", snr=1e-9, blocklength=100, rate=4.0)
        cfg = SimConfig(slots=10_000, replicates=2, seed=1)
        entries = [PolicyEntry(label="none", spec=PolicySpec(kind="no_retransmission"))]
        table = evaluate_policies(entries, model, ref_static_channel, ref_ladder, cfg)
        row = table.row("none")
        assert row.n_diverged > 0 and row.mean == float("inf")
        # the replicates column counts every replicate run, diverged or not
        table.to_csv(tmp_path / "cmp.csv")
        assert (tmp_path / "cmp.csv").read_text().splitlines()[1] == "none,inf,nan,2,2"

    @pytest.mark.parametrize("slots", (1, 2, 300))
    def test_trajectory_is_the_in_order_mean(self, slots, cc_model, ref_channel, ref_ladder):
        # for slots >= 2 the in-order sum over R is the bits of numpy's
        # column mean; for one slot numpy sums the column pairwise, and the
        # trajectory follows the in-order sum
        cfg = SimConfig(slots=slots, replicates=9, seed=3)
        kinds = ("myopic", "always_retransmit_psi")
        entries = [PolicyEntry(label=kind, spec=PolicySpec(kind=kind)) for kind in kinds]
        table = evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        for kind in kinds:
            spec = PolicySpec(kind=kind)
            runs = [
                run(cc_model, ref_channel, ref_ladder, spec, cfg, replicate=rep).running_avg
                for rep in range(cfg.replicates)
            ]
            total = np.zeros(slots)
            for running_avg in runs:
                total += running_avg
            expected = total / cfg.replicates
            if slots >= 2:
                assert expected.tobytes() == np.mean(np.stack(runs), axis=0).tobytes()
            assert table.trajectories[kind].tobytes() == expected.tobytes()

    def test_memory_does_not_grow_with_replicates(self, cc_model, ref_channel, ref_ladder):
        import tracemalloc

        entries = [
            PolicyEntry(label=kind, spec=PolicySpec(kind=kind))
            for kind in ("myopic", "always_retransmit_psi")
        ]
        configs = [SimConfig(slots=20_000, replicates=n, seed=5) for n in (2, 64)]
        # a first call fills the link model's error cache, which later calls reuse
        evaluate_policies(entries, cc_model, ref_channel, ref_ladder, configs[0])
        peaks = []
        tracemalloc.start()
        try:
            for cfg in configs:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks

    def test_summary_csv(self, cc_model, ref_channel, ref_ladder, tmp_path):
        cfg = SimConfig(slots=300, replicates=3, seed=2)
        entries = [PolicyEntry(label="psi", spec=PolicySpec(kind="always_retransmit_psi"))]
        table = evaluate_policies(entries, cc_model, ref_channel, ref_ladder, cfg)
        path = tmp_path / "cmp.csv"
        table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "policy,mean_final_avg_mse,stderr,replicates,diverged"
        assert lines[1].startswith("psi,")


class TestPolicySpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="optimal")

    def test_table_requires_table(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="table")
