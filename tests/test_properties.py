"""Invariants of policy files, of the kernel and its assembly, of the
first-passage evaluation, of the worst-error scan, of the high-SNR reduced
chain, of common random numbers in the simulator and of the simulator
against its reference loop, checked on generated tables, grids, chains and
links.

Examples are derived from a fixed seed, so every run checks the same cases.
"""

import tempfile
from dataclasses import fields
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    assert_matches_reference,
    high_snr_zeta_static,
    kernel_row_error,
    reference_assemble,
    reference_run,
    threshold_table_cost,
)

from harqest import (
    HarqModel,
    MarkovChannel,
    Policy,
    PolicySpec,
    SimConfig,
    build_high_snr_chain,
    build_markov_mdp,
    conditional_error_prob,
    first_passage_cost,
    gth_stationary,
    load_policy,
    run,
    save_policy,
    worst_retransmission_error_markov,
)
from harqest.mdp_markov import assemble_markov_mdp

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

solve_fields = st.fixed_dictionaries({
    "zeta": st.floats(allow_nan=False),
    "span": st.floats(min_value=0.0, allow_nan=False),
    "iterations": st.integers(0, 10**6),
    "converged": st.booleans(),
    "cost_mode": st.sampled_from(["mse", "delay"]),
})


@st.composite
def markov_policies(draw):
    b = draw(st.integers(1, 3))
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))
    q_max = draw(st.integers(sum(caps), sum(caps) + 3))
    gains = tuple(draw(st.lists(st.floats(1e-3, 1e3), min_size=b, max_size=b)))
    omegas = [o for o in product(*[range(c + 1) for c in caps]) if sum(o) >= 1]
    states = tuple(
        (o, q, xi) for o in omegas for q in range(sum(o), q_max + 1) for xi in range(b)
    )
    actions = draw(st.lists(st.integers(0, 1), min_size=len(states), max_size=len(states)))
    return Policy(
        actions=np.array(actions, dtype=np.int8),
        states=states,
        params={"omega_caps": caps, "q_max": q_max, "gains": gains},
        **draw(solve_fields),
    )


@PROPERTY
@given(markov_policies())
def test_policy_file_round_trip_is_byte_identical(policy):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.policy", Path(tmp) / "second.policy"
        save_policy(policy, first)
        loaded = load_policy(first)
        save_policy(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.states == policy.states
    assert loaded.actions.tobytes() == policy.actions.tobytes()
    assert (loaded.zeta, loaded.span, loaded.iterations) == (
        policy.zeta, policy.span, policy.iterations
    )
    assert (loaded.converged, loaded.cost_mode) == (policy.converged, policy.cost_mode)
    assert loaded.params == policy.params


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    cap_choices=st.lists(st.integers(1, 4), min_size=2, max_size=2),
    extra_ages=st.integers(0, 4),
    snr_db=st.floats(-5.0, 20.0),
    scheme=st.sampled_from(["cc", "ir"]),
    cost_mode=st.sampled_from(["mse", "delay"]),
)
def test_available_kernel_rows_sum_to_one(
    ref_ladder, stay, cap_choices, extra_ages, snr_db, scheme, cost_mode
):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    caps = tuple(cap_choices[:b])
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    mdp = build_markov_mdp(harq, ch, ref_ladder, caps, sum(caps) + extra_ages, cost_mode)
    assert kernel_row_error(mdp.core) <= 1e-12


@st.composite
def kernel_grids(draw):
    """A 1-3 state chain with random columns, omega caps, q_max, cost mode
    and a table of attempt errors that includes exact 0 and 1."""
    b = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = rng.uniform(0.05, 1.0, size=(b, b))
    pi /= pi.sum(axis=0)
    ch = MarkovChannel(gains=tuple(rng.uniform(0.5, 3.0, size=b)), pi=pi)
    caps = tuple(draw(st.lists(st.integers(1, 3), min_size=b, max_size=b)))
    q_max = sum(caps) + draw(st.integers(0, 3))
    errors = {}

    def attempt_error(omega, xi):
        if (omega, xi) not in errors:
            errors[(omega, xi)] = float(rng.choice([0.0, 1.0, rng.uniform()]))
        return errors[(omega, xi)]

    return attempt_error, ch, caps, q_max, draw(st.sampled_from(["mse", "delay"]))


@PROPERTY
@given(grid=kernel_grids())
def test_kernel_equals_per_state_loop(ref_ladder, grid):
    attempt_error, ch, caps, q_max, cost_mode = grid
    mdp = assemble_markov_mdp(attempt_error, ch, ref_ladder, caps, q_max, cost_mode)
    expected = reference_assemble(attempt_error, ch, ref_ladder, caps, q_max, cost_mode)
    for (idx, prob), (idx_ref, prob_ref) in zip(mdp.core.transitions, expected.core.transitions):
        assert idx.dtype == idx_ref.dtype and idx.tobytes() == idx_ref.tobytes()
        assert prob.dtype == prob_ref.dtype and prob.tobytes() == prob_ref.tobytes()
    assert mdp.core.available.tobytes() == expected.core.available.tobytes()
    assert mdp.core.costs.tobytes() == expected.core.costs.tobytes()
    assert mdp.states == expected.states
    assert mdp.index == expected.index
    assert mdp.core.ref == expected.core.ref
    assert list(mdp.errors.items()) == list(expected.errors.items())


@st.composite
def chains(draw):
    """Sparse chain (succ, prob, cost) with a cycle through states 1..n-1,
    which then form its one closed class, and stage costs spread over twelve
    decades. State 0 is on the cycle too, unless `transient`: then no row
    leads to it."""
    n = draw(st.integers(2, 14))
    width = draw(st.integers(1, 4))
    transient = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = 1 if transient else 0
    cycle = np.arange(1, n + 1) % n if not transient else np.r_[1, np.arange(1, n) % (n - 1) + 1]
    succ = np.column_stack([cycle, rng.integers(first, n, size=(n, width))])
    prob = rng.uniform(0.05, 1.0, size=succ.shape)
    prob /= prob.sum(axis=1, keepdims=True)
    cost = 10.0 ** rng.uniform(0.0, 12.0, size=n)
    return succ, prob, cost, transient


@PROPERTY
@given(chain=chains())
def test_first_passage_cost_equals_dense_gth(chain):
    succ, prob, cost, transient = chain
    n = len(cost)
    p = np.zeros((n, n))  # column-stochastic, as gth_stationary takes it
    np.add.at(p, (succ, np.arange(n)[:, None]), prob)
    zeta, h = first_passage_cost(succ, prob, cost, 0, succ)
    assert zeta == pytest.approx(float(gth_stationary(p, start=0) @ cost), rel=1e-12)
    # h solves the Poisson equation h = cost - zeta + P h
    residual = cost - zeta + np.einsum("sk,sk->s", prob, h[succ]) - h
    assert np.abs(residual).max() <= 1e-12 * (cost.max() + np.abs(h).max())
    if not transient:
        assert h[0] == 0.0  # the start state is the anchor


@PROPERTY
@given(
    gains=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    budget=st.integers(1, 6),
    index=st.integers(0, 2),
    snr_db=st.floats(0.0, 15.0),
    scheme=st.sampled_from(["cc", "ir"]),
)
def test_worst_error_scan_is_the_first_maximum(gains, budget, index, snr_db, scheme):
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    xi = index % len(gains)
    worst = worst_retransmission_error_markov(harq, gains, xi, budget)
    histories = [c for c in product(range(budget + 1), repeat=len(gains)) if 1 <= sum(c) <= budget]
    assert len(worst.values) == len(histories)
    assert worst.value == max(worst.values)
    assert worst.argmax_counts == histories[worst.values.index(worst.value)]
    assert worst.at_budget_boundary == (sum(worst.argmax_counts) == budget)
    if len(gains) == 1:
        # the static link's scan: attempts 2..budget + 1 of one gain, exactly
        direct = tuple(conditional_error_prob(harq, gains, (n,), 0) for n in range(1, budget + 1))
        assert worst.values == direct


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    lambdas=st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=2, max_size=2),
    thetas=st.lists(st.integers(1, 8), min_size=2, max_size=2),
)
def test_high_snr_chain_is_the_exact_threshold_cost(ref_ladder, stay, lambdas, thetas):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    lam, thetas = tuple(lambdas[:b]), tuple(thetas[:b])
    exact = threshold_table_cost(ch, lam, thetas, ref_ladder)
    chain = build_high_snr_chain(ch, lam, thetas, ref_ladder)
    assert chain.zeta == pytest.approx(exact, rel=1e-12, abs=0.0)
    if b == 1 and lam[0] < 1.0:
        # the closed form's denominator cancels like 1 - lambda' as lambda' -> 1
        closed = high_snr_zeta_static(ref_ladder, lam[0], thetas[0])
        assert closed == pytest.approx(exact, rel=1e-12 / (1.0 - lam[0]), abs=0.0)


def small_table(ch, actions) -> Policy:
    """A table over caps of 2 per gain and ages up to 2B + 2 on channel `ch`;
    actions(n) gives its n actions in state order."""
    b = ch.size
    caps, q_max = (2,) * b, 2 * b + 2
    omegas = [o for o in product(*[range(c + 1) for c in caps]) if sum(o) >= 1]
    states = tuple((o, q, xi) for o in omegas for q in range(sum(o), q_max + 1) for xi in range(b))
    return Policy(
        actions=np.array(actions(len(states)), dtype=np.int8),
        states=states,
        zeta=0.0,
        span=0.0,
        iterations=0,
        converged=True,
        params={"omega_caps": caps, "q_max": q_max, "gains": ch.gains},
    )


@PROPERTY
@given(
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    slots=st.integers(1, 400),
    snr_db=st.floats(2.0, 15.0),
)
def test_all_fresh_table_replays_no_retransmission(ref_ladder, stay, seed, slots, snr_db):
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    table = small_table(ch, lambda n: [0] * n)
    harq = HarqModel.from_db("cc", snr_db, 100, 4.0)
    cfg = SimConfig(slots=slots, seed=seed)
    got = run(harq, ch, ref_ladder, PolicySpec(kind="table", table=table), cfg)
    want = run(harq, ch, ref_ladder, PolicySpec(kind="no_retransmission"), cfg)
    for field in fields(got):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if isinstance(mine, np.ndarray):
            assert mine.shape == theirs.shape and mine.dtype == theirs.dtype, field.name
            assert mine.tobytes() == theirs.tobytes(), field.name
        else:
            assert mine == theirs, field.name


@PROPERTY
@given(
    snr_db=st.floats(4.0, 12.0),
    scheme=st.sampled_from(["cc", "ir"]),
    seed=st.integers(0, 2**32 - 1),
    stay=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2),
    kind=st.sampled_from(["table", "myopic", "no_retransmission", "always_retransmit_psi"]),
    data=st.data(),
)
def test_run_equals_the_reference_loop(ref_ladder, snr_db, scheme, seed, stay, kind, data):
    # the transition machine against the direct per-slot loop; a random
    # table plays both actions, and its lookups clamp counts and ages that
    # pass its caps and q_max
    b = len(stay)
    pi = np.array([[1.0]]) if b == 1 else np.array(
        [[stay[0], 1.0 - stay[1]], [1.0 - stay[0], stay[1]]]
    )
    ch = MarkovChannel(gains=(2.0, 1.0)[:b], pi=pi)
    if kind == "table":

        def actions(n):
            return data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))

        spec = PolicySpec(kind="table", table=small_table(ch, actions))
    else:
        spec = PolicySpec(kind=kind)
    cfg = SimConfig(
        slots=data.draw(st.integers(1, 600)),
        seed=seed,
        initial_channel=data.draw(st.none() | st.integers(0, b - 1)),
    )
    harq = HarqModel.from_db(scheme, snr_db, 100, 4.0)
    expected = reference_run(harq, ch, ref_ladder, spec, cfg)
    assert_matches_reference(run(harq, ch, ref_ladder, spec, cfg), expected)
