"""Acceptance gate: every criterion asserted at its stated tolerance.

Each check prints one PASS/FAIL line (run with -s to stream them). A claim
that rests on a premise is checked where the program itself says the premise
holds: the switching structure on the cells where a bounded-MSE policy is
guaranteed to exist, and the policy separations at 8.5 dB, where a fresh
packet fails about half the time so reliability and freshness really trade
off (at the default 10 dB point it fails with probability 7.3e-4 and the
separations are exactly zero).
"""

import itertools
import time

import numpy as np
import pytest
from reference import high_snr_zeta_static, kernel_row, kernel_row_error, threshold_table_cost

from harqest import (
    FiniteAverageCostMdp,
    HarqModel,
    PolicyEntry,
    PolicySpec,
    SimConfig,
    block_error_prob,
    build_high_snr_chain,
    build_markov_mdp,
    build_static_mdp,
    check_stability_markov,
    evaluate_policies,
    f_apply,
    relative_value_iteration,
    solve_rvi_markov,
    solve_steady_state,
    static_channel,
    verify_switching_markov,
    worst_retransmission_error_markov,
)

STATIC_PI = np.ones((1, 1))

BASELINE = 15.8397


def report(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1


def test_c1_steady_state_covariance(ref_system):
    start = time.monotonic()
    kal = solve_steady_state(ref_system)
    p0 = f_apply(ref_system, kal.P_bar0)
    elapsed = time.monotonic() - start
    pbar_ref = np.array([[2.5548, -1.6233], [-1.6233, 1.6179]])
    p0_ref = np.array([[14.2218, -1.6966], [-1.6966, 1.6179]])
    ok = (
        np.max(np.abs(kal.P_bar0 - pbar_ref)) < 1e-3
        and np.max(np.abs(p0 - p0_ref)) < 1e-3
        and abs(float(np.trace(p0)) - 15.8) <= 0.05
        and elapsed < 1.0
    )
    assert report(
        "1",
        ok,
        f"P_bar0 within 1e-3, Tr f(P_bar0) = {float(np.trace(p0)):.4f} (15.8 +- 0.05), "
        f"{elapsed * 1e3:.0f} ms",
    )


# ---------------------------------------------------------------- criterion 2


def test_c2_stability_checks(ref_system, ref_channel):
    start = time.monotonic()
    rho_sq = ref_system.rho_squared
    verdicts = {}
    for scheme in ("cc", "ir"):
        model = HarqModel.from_db(scheme, 10.0, 100, 4.0)
        worst = worst_retransmission_error_markov(model, (2.0,), 0, 19)
        verdicts[f"static/{scheme}"] = check_stability_markov(STATIC_PI, [worst.value], rho_sq).stable
        lambdas = [
            worst_retransmission_error_markov(model, ref_channel.gains, i, 8).value
            for i in range(2)
        ]
        verdicts[f"markov/{scheme}"] = check_stability_markov(
            ref_channel.pi, lambdas, rho_sq
        ).stable
    pi = np.array([[0.8, 0.5], [0.2, 0.5]])
    grid = np.linspace(0.0, 1.0, 51)
    counts = []
    for rho in (1.1, 2.0, 3.0, 5.0):
        counts.append(
            sum(
                1
                for l1 in grid
                for l2 in grid
                if check_stability_markov(pi, [l1, l2], rho).stable
            )
        )
    elapsed = time.monotonic() - start
    nested = counts[0] > counts[1] > counts[2] > counts[3]
    ok = all(verdicts.values()) and nested and elapsed < 10.0
    assert report(
        "2",
        ok,
        f"verdicts {verdicts}, region cell counts {counts} strictly nested, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------- criterion 3


def _random_mdp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 13))
    costs = rng.uniform(0.0, 10.0, size=(n, 2))
    transitions = []
    for _ in range(2):
        rows = rng.uniform(0.05, 1.0, size=(n, n))
        rows /= rows.sum(axis=1, keepdims=True)
        transitions.append((np.tile(np.arange(n), (n, 1)), rows))
    return FiniteAverageCostMdp(
        costs=costs, transitions=transitions, available=np.ones((n, 2), bool), ref=0
    )


def _stationary_gain(mdp, actions):
    n = mdp.n_states
    p = np.zeros((n, n))
    cost = np.empty(n)
    for s in range(n):
        idx, prob = kernel_row(mdp, s, actions[s])
        for j, pr in zip(idx, prob):
            p[s, int(j)] += pr
        cost[s] = mdp.costs[s, actions[s]]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    dist = np.linalg.solve(a, b)
    return float(dist @ cost)


def test_c3_solver_matches_brute_force():
    start = time.monotonic()
    worst_gap = 0.0
    policy_mismatches = 0
    for seed in range(20):
        mdp = _random_mdp(seed)
        actions, zeta, _, _, converged, _ = relative_value_iteration(mdp, tol=1e-11)
        assert converged
        best_gain, best_actions = np.inf, None
        for candidate in itertools.product((0, 1), repeat=mdp.n_states):
            gain = _stationary_gain(mdp, candidate)
            if gain < best_gain:
                best_gain, best_actions = gain, candidate
        worst_gap = max(worst_gap, abs(zeta - best_gain))
        if tuple(actions) != best_actions:
            policy_mismatches += 1
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-7 and policy_mismatches == 0 and elapsed < 30.0
    assert report(
        "3",
        ok,
        f"20 random instances: max cost gap {worst_gap:.2e} (<= 1e-7), "
        f"{policy_mismatches} policy mismatches, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------- criterion 4


def test_c4_switching_structure_sweep(ref_system, ref_ladder, ref_channel):
    """Zero switching violations on every swept cell whose existence product
    is below 1; where it is not, the structure guarantee is silent."""
    rho_sq = ref_system.rho_squared
    caps = (4, 4)
    cells, excluded = {}, {}
    for snr_db in (5.0, 10.0, 15.0):
        for scheme in ("cc", "ir"):
            model = HarqModel.from_db(scheme, snr_db, 100, 4.0)
            static = check_stability_markov(
                STATIC_PI, [worst_retransmission_error_markov(model, (2.0,), 0, 19).value], rho_sq
            )
            key = f"static/{snr_db:g}dB/{scheme}"
            if static.stable:
                static_policy = solve_rvi_markov(
                    build_markov_mdp(model, static_channel(2.0), ref_ladder, (20,), 20, "mse")
                )
                cells[key] = len(verify_switching_markov(static_policy).violations)
            else:
                excluded[key] = round(static.product, 2)
            lambdas = [
                worst_retransmission_error_markov(model, ref_channel.gains, i, sum(caps)).value
                for i in range(ref_channel.size)
            ]
            markov = check_stability_markov(ref_channel.pi, lambdas, rho_sq)
            key = f"markov/{snr_db:g}dB/{scheme}"
            if markov.stable:
                markov_policy = solve_rvi_markov(
                    build_markov_mdp(model, ref_channel, ref_ladder, caps, 10, "mse")
                )
                cells[key] = len(verify_switching_markov(markov_policy).violations)
            else:
                excluded[key] = round(markov.product, 2)
    bad = {k: v for k, v in cells.items() if v}
    kinds = {k.split("/")[0] for k in cells}
    ok = not bad and kinds == {"static", "markov"}
    assert report(
        "4",
        ok,
        f"{len(cells)} cells with existence product < 1 checked, violations {bad or 'none'}; "
        f"excluded cells (product >= 1): {excluded}",
    ), f"switching violations {bad} on cells where the existence condition holds"


# ---------------------------------------------------------------- criterion 5


def _chain_zeta_oracle(ladder, lam, theta):
    q_top = max(theta + 1, 3)
    ladder = ladder.extended(q_top)
    states = [("post", 2)] + [("one", q) for q in range(1, q_top + 1)]
    pos = {s: i for i, s in enumerate(states)}
    t = np.zeros((len(states), len(states)))
    for kind, q in states:
        i = pos[(kind, q)]
        if kind == "post" or q <= theta:
            t[pos[("one", 1)], i] += 1.0 - lam
            t[pos[("one", q + 1)], i] += lam
        else:
            t[pos[("post", 2)], i] += 1.0
    a = t - np.eye(len(states))
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    dist = np.linalg.solve(a, b)
    return float(dist @ np.array([ladder.trace(q) for (_, q) in states]))


def test_c5_closed_forms(ref_ladder, cc_model, ref_channel):
    start = time.monotonic()
    worst_rel = 0.0
    for lam in (0.0, 0.1, 0.3, 0.5):
        for theta in range(1, 9):
            closed = high_snr_zeta_static(ref_ladder, lam, theta)
            oracle = _chain_zeta_oracle(ref_ladder, lam, theta)
            worst_rel = max(worst_rel, abs(closed - oracle) / max(1.0, abs(oracle)))
    lambda_primes = tuple(block_error_prob(cc_model, (g,)) for g in ref_channel.gains)
    zeta = build_high_snr_chain(ref_channel, lambda_primes, (4, 3), ref_ladder).zeta
    exact = threshold_table_cost(ref_channel, lambda_primes, (4, 3), ref_ladder)
    chain_rel = abs(zeta - exact) / exact
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-9 and chain_rel <= 1e-12 and elapsed < 120.0
    assert report(
        "5",
        ok,
        f"threshold closed form vs chain oracle: max rel err {worst_rel:.2e} (<= 1e-9); "
        f"2-state chain {zeta:.6f} vs exact table cost {exact:.6f}: rel err "
        f"{chain_rel:.2e} (<= 1e-12); {elapsed:.0f} s",
    )


# ---------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def comparison(ref_system, ref_ladder, ref_channel):
    """Policy comparisons at the default operating point, common random
    numbers, 20 replicates of 10^4 slots."""
    start = time.monotonic()
    cc = HarqModel.from_db("cc", 10.0, 100, 4.0)
    ir = HarqModel.from_db("ir", 10.0, 100, 4.0)
    cfg = SimConfig(slots=10_000, replicates=20, seed=1)

    st_opt = solve_rvi_markov(build_static_mdp(cc, 2.0, ref_ladder, 20, 20, "mse"))
    st_delay = solve_rvi_markov(build_static_mdp(cc, 2.0, ref_ladder, 20, 20, "delay"))
    static_table = evaluate_policies(
        [
            PolicyEntry("optimal", PolicySpec(kind="table", table=st_opt)),
            PolicyEntry("myopic", PolicySpec(kind="myopic")),
            PolicyEntry("delay", PolicySpec(kind="delay_optimal_table", table=st_delay)),
            PolicyEntry("noretx", PolicySpec(kind="no_retransmission")),
        ],
        cc,
        static_channel(2.0),
        ref_ladder,
        cfg,
    )

    mk_opt_cc = solve_rvi_markov(build_markov_mdp(cc, ref_channel, ref_ladder, (4, 4), 10, "mse"))
    mk_opt_ir = solve_rvi_markov(build_markov_mdp(ir, ref_channel, ref_ladder, (4, 4), 10, "mse"))
    mk_delay = solve_rvi_markov(build_markov_mdp(cc, ref_channel, ref_ladder, (4, 4), 10, "delay"))
    markov_table = evaluate_policies(
        [
            PolicyEntry("optimal_cc", PolicySpec(kind="table", table=mk_opt_cc)),
            PolicyEntry("optimal_ir", PolicySpec(kind="table", table=mk_opt_ir), harq=ir),
            PolicyEntry("myopic", PolicySpec(kind="myopic")),
            PolicyEntry("delay", PolicySpec(kind="delay_optimal_table", table=mk_delay)),
            PolicyEntry("noretx", PolicySpec(kind="no_retransmission")),
        ],
        cc,
        ref_channel,
        ref_ladder,
        cfg,
    )
    return {
        "static": static_table,
        "markov": markov_table,
        "elapsed": time.monotonic() - start,
    }


@pytest.fixture(scope="module")
def tradeoff(ref_system, ref_ladder, ref_channel):
    """The policies the separation checks compare, at 8.5 dB, where a fresh
    packet on the gain-2 link fails about half the time; otherwise the
    `comparison` setup. Also the premise values those checks rest on."""
    cc = HarqModel.from_db("cc", 8.5, 100, 4.0)
    ir = HarqModel.from_db("ir", 8.5, 100, 4.0)
    cfg = SimConfig(slots=10_000, replicates=20, seed=1)

    st_opt = solve_rvi_markov(build_static_mdp(cc, 2.0, ref_ladder, 20, 20, "mse"))
    st_delay = solve_rvi_markov(build_static_mdp(cc, 2.0, ref_ladder, 20, 20, "delay"))
    static_table = evaluate_policies(
        [
            PolicyEntry("optimal", PolicySpec(kind="table", table=st_opt)),
            PolicyEntry("delay", PolicySpec(kind="delay_optimal_table", table=st_delay)),
            PolicyEntry("noretx", PolicySpec(kind="no_retransmission")),
        ],
        cc,
        static_channel(2.0),
        ref_ladder,
        cfg,
    )

    mk_opt_cc = solve_rvi_markov(build_markov_mdp(cc, ref_channel, ref_ladder, (4, 4), 10, "mse"))
    mk_opt_ir = solve_rvi_markov(build_markov_mdp(ir, ref_channel, ref_ladder, (4, 4), 10, "mse"))
    mk_delay = solve_rvi_markov(build_markov_mdp(cc, ref_channel, ref_ladder, (4, 4), 10, "delay"))
    markov_table = evaluate_policies(
        [
            PolicyEntry("optimal_cc", PolicySpec(kind="table", table=mk_opt_cc)),
            PolicyEntry("optimal_ir", PolicySpec(kind="table", table=mk_opt_ir), harq=ir),
            PolicyEntry("delay", PolicySpec(kind="delay_optimal_table", table=mk_delay)),
        ],
        cc,
        ref_channel,
        ref_ladder,
        cfg,
    )
    rho_sq = ref_system.rho_squared
    worst = worst_retransmission_error_markov(cc, (2.0,), 0, 19)
    return {
        "static": static_table,
        "markov": markov_table,
        "eps1": block_error_prob(cc, (2.0,)),
        "rho_sq": rho_sq,
        "static_product": check_stability_markov(STATIC_PI, [worst.value], rho_sq).product,
    }


def _assert_tradeoff_premise(tradeoff):
    """Reliability and freshness trade off: a fresh packet fails often enough
    that never retransmitting cannot stay bounded, yet retransmissions make a
    bounded-MSE policy exist on the static link."""
    eps1, rho_sq = tradeoff["eps1"], tradeoff["rho_sq"]
    assert 0.25 <= eps1 <= 0.75, f"fresh-packet error {eps1:.3g} outside [0.25, 0.75]"
    assert eps1 * rho_sq >= 1.0, f"eps1 * rho^2(A) = {eps1 * rho_sq:.3g} < 1"
    product = tradeoff["static_product"]
    assert product < 1.0, f"static existence product {product:.3g} >= 1"


def _converged(trajectory):
    n = len(trajectory)
    last_half = float(np.mean(trajectory[n // 2 :]))
    last_quarter = float(np.mean(trajectory[3 * n // 4 :]))
    return abs(last_quarter - last_half) / abs(last_half), abs(
        last_quarter - last_half
    ) < 0.05 * abs(last_half)


def test_c6a_no_retransmission_diverges_static(tradeoff):
    _assert_tradeoff_premise(tradeoff)
    row = tradeoff["static"].row("noretx")
    diverged = row.n_diverged > 0 or row.mean > 10.0 * BASELINE
    assert report(
        "6a-static",
        diverged,
        f"no-retransmission mean {row.mean:.4f} vs 10x baseline {10 * BASELINE:.0f}, "
        f"{row.n_diverged} diverged replicates",
    ), "never retransmitting stayed bounded although eps1 * rho^2(A) >= 1"


def test_c6a_no_retransmission_diverges_markov(comparison):
    row = comparison["markov"].row("noretx")
    diverged = row.n_diverged > 0 or row.mean > 10.0 * BASELINE
    assert report(
        "6a-markov",
        diverged,
        f"no-retransmission mean {row.mean:.3e} vs 10x baseline {10 * BASELINE:.0f}, "
        f"{row.n_diverged} diverged replicates",
    )


def test_c6b_policies_converge(comparison):
    rels = {}
    ok = True
    for mode, labels in (
        ("static", ("optimal", "myopic", "delay")),
        ("markov", ("optimal_cc", "myopic", "delay")),
    ):
        for label in labels:
            rel, good = _converged(comparison[mode].trajectories[label])
            rels[f"{mode}/{label}"] = round(rel, 5)
            ok = ok and good
    assert report("6b", ok, f"last-quarter vs last-half relative gaps {rels} (< 0.05)")


def test_c6c_myopic_close_to_optimal(comparison):
    gaps = {}
    ok = True
    for mode, opt_label in (("static", "optimal"), ("markov", "optimal_cc")):
        opt = comparison[mode].row(opt_label).mean
        myo = comparison[mode].row("myopic").mean
        gap = abs(myo - opt) / opt
        gaps[mode] = round(gap, 5)
        ok = ok and gap <= 0.10
    assert report("6c", ok, f"myopic vs optimal relative gaps {gaps} (<= 0.10)")


def test_c6d_beats_delay_optimal_static(tradeoff):
    _assert_tradeoff_premise(tradeoff)
    opt = tradeoff["static"].row("optimal").mean - BASELINE
    delay = tradeoff["static"].row("delay").mean - BASELINE
    ok = opt <= 0.95 * delay
    assert report(
        "6d-static",
        ok,
        f"baseline-excess optimal {opt:.4f} vs 0.95 x delay-optimal {0.95 * delay:.4f}",
    ), "the MSE-optimal policy did not cut the delay-optimal baseline excess by 5%"


def test_c6d_beats_delay_optimal_markov(tradeoff):
    _assert_tradeoff_premise(tradeoff)
    opt = tradeoff["markov"].row("optimal_cc").mean - BASELINE
    delay = tradeoff["markov"].row("delay").mean - BASELINE
    ok = opt <= 0.85 * delay
    assert report(
        "6d-markov",
        ok,
        f"baseline-excess optimal {opt:.3f} vs 0.85 x delay-optimal {0.85 * delay:.3f}",
    ), "the MSE-optimal policy did not cut the delay-optimal baseline excess by 15%"


def test_c6e_ir_not_worse_than_cc(comparison):
    cc_mean = comparison["markov"].row("optimal_cc").mean
    ir_mean = comparison["markov"].row("optimal_ir").mean
    ok = ir_mean <= cc_mean
    assert report("6e-ordering", ok, f"IR mean {ir_mean:.3f} <= CC mean {cc_mean:.3f}")


def test_c6e_ir_excess_reduction(tradeoff):
    _assert_tradeoff_premise(tradeoff)
    cc_excess = tradeoff["markov"].row("optimal_cc").mean - BASELINE
    ir_excess = tradeoff["markov"].row("optimal_ir").mean - BASELINE
    reduction = 1.0 - ir_excess / cc_excess
    ok = reduction >= 0.50
    assert report(
        "6e-reduction",
        ok,
        f"IR baseline-excess reduction {reduction * 100:.2f}% (>= 50% required)",
    ), "incremental redundancy did not halve the chase-combining baseline excess"


def test_c6_runtime(comparison):
    elapsed = comparison["elapsed"]
    assert report("6-runtime", elapsed < 300.0, f"comparison suite took {elapsed:.0f} s (< 300)")


# ---------------------------------------------------------------- criterion 7


CFG_TEMPLATE = """
[system]
A = 2.4 0.2 ; 0.2 0.8
C = 1 1
Q_w = 1 0 ; 0 1
Q_v = 1

[harq]
scheme = cc
snr_db = 10
blocklength = 100
rate = 4

[channel]
gains = 2 1
transition = 0.8 0.2 ; 0.2 0.8

[solver]
r_max = 8
q_max = 8
omega_caps = 3 3

[sim]
slots = 2000
replicates = 3
seed = 42

[output]
directory = {out}
"""


def test_c7_cli_determinism(tmp_path):
    from harqest.cli import main

    cfg_path = tmp_path / "determinism.cfg"
    contents = {}
    for tag in ("first", "second"):
        out = tmp_path / tag
        cfg_path.write_text(CFG_TEMPLATE.format(out=out))
        code = main(["simulate", "--config", str(cfg_path), "--policy", "psi"])
        assert code == 0
        contents[tag] = (out / "trace_psi_rep0.csv").read_bytes()
    ok = contents["first"] == contents["second"]
    assert report("7", ok, "two identically-seeded runs produced byte-identical trace files")


# ---------------------------------------------------------------- criterion 8


def _replay(trace, n_gains):
    """Recompute (r, q, omega) from the recorded (a, gamma, xi) history and
    compare against the trace slot by slot. The first slot's counter is seeded
    from the recording (it depends on the pre-trace channel draw)."""
    r, q = 1, 1
    omega = list(trace.omega[0])
    for i in range(len(trace.k)):
        if trace.r[i] != r or trace.q[i] != q:
            return False
        if list(trace.omega[i]) != omega or sum(omega) != r:
            return False
        a, gamma, xi = int(trace.a[i]), int(trace.gamma[i]), int(trace.xi[i])
        r = 1 if a == 0 else r + 1
        q = r if gamma == 1 else q + 1
        if a == 0:
            omega = [0] * n_gains
            omega[xi] = 1
        else:
            omega[xi] += 1
    return True


def test_c8_conformance(cc_model, ref_channel, ref_ladder):
    from harqest import run

    static_mdp = build_static_mdp(cc_model, 2.0, ref_ladder, 20, 20, "mse")
    markov_mdp = build_markov_mdp(cc_model, ref_channel, ref_ladder, (4, 4), 10, "mse")
    kernel_ok = max(kernel_row_error(static_mdp.core), kernel_row_error(markov_mdp.core)) <= 1e-12
    cfg = SimConfig(slots=5_000, replicates=1, seed=31)
    traces = [
        run(cc_model, static_channel(2.0), ref_ladder, PolicySpec(kind="always_retransmit_psi"), cfg),
        run(
            cc_model,
            ref_channel,
            ref_ladder,
            PolicySpec(kind="table", table=solve_rvi_markov(markov_mdp)),
            cfg,
        ),
    ]
    replays = [_replay(traces[0], 1), _replay(traces[1], 2)]
    ok = all(replays) and kernel_ok
    assert report(
        "8", ok, f"state replay exact on {sum(replays)}/2 traces; kernel rows sum to 1 within 1e-12"
    )
